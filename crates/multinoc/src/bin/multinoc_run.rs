//! `multinoc-run` — the console version of the paper's "Serial
//! software" (§4): load object code onto the MultiNoC processors,
//! activate them, and interact.
//!
//! ```text
//! multinoc-run <p1.obj> [<p2.obj>] [--budget <cycles>] [--read <node> <addr> <len>]
//! ```
//!
//! `printf` words appear on stdout as `P<n>: <value>`; a `scanf` request
//! reads one decimal word per line from stdin. After all processors
//! halt, each `--read` dumps memory exactly like the Fig. 9
//! `00 01 01 00 20` read command.

use std::io::BufRead;
use std::process::ExitCode;

use multinoc::host::Host;
use multinoc::{NodeId, System, SystemError, PROCESSOR_1, PROCESSOR_2};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("multinoc-run: {message}");
            ExitCode::FAILURE
        }
    }
}

fn parse_u16(s: &str) -> Option<u16> {
    if let Some(hex) = s.strip_prefix("0x") {
        u16::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut images: Vec<String> = Vec::new();
    let mut budget = 50_000_000u64;
    let mut reads: Vec<(NodeId, u16, u16)> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--budget" => {
                budget = iter
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--budget needs a number")?;
            }
            "--read" => {
                let node = iter.next().and_then(|s| s.parse::<u8>().ok());
                let addr = iter.next().and_then(|s| parse_u16(s));
                let len = iter.next().and_then(|s| parse_u16(s));
                match (node, addr, len) {
                    (Some(n), Some(a), Some(l)) => reads.push((NodeId(n), a, l)),
                    _ => return Err("--read needs <node> <addr> <len>".into()),
                }
            }
            "-h" | "--help" => {
                eprintln!(
                    "usage: multinoc-run <p1.obj> [<p2.obj>] [--budget <cycles>] [--read <node> <addr> <len>]"
                );
                return Ok(());
            }
            path => images.push(path.to_string()),
        }
    }
    if images.is_empty() || images.len() > 2 {
        return Err("expected one or two object files".into());
    }

    let mut system = System::paper_config().map_err(|e| e.to_string())?;
    let mut host = Host::new().with_budget(budget);
    host.synchronize(&mut system).map_err(|e| e.to_string())?;

    let nodes = [PROCESSOR_1, PROCESSOR_2];
    for (path, &node) in images.iter().zip(&nodes) {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let words = r8::objfile::from_text(&text).map_err(|e| format!("{path}: {e}"))?;
        host.load_program(&mut system, node, &words)
            .map_err(|e| e.to_string())?;
        eprintln!("loaded {} words into {node} from {path}", words.len());
    }
    for (_, &node) in images.iter().zip(&nodes) {
        host.activate(&mut system, node)
            .map_err(|e| e.to_string())?;
    }
    eprintln!("processors activated; running…");

    // Print printf words and answer scanf requests as they arrive,
    // until the system is idle: every core halted with its traffic
    // drained, or blocked for good.
    let mut printed = [0usize; 2];
    system
        .run_until(budget, "all processors to halt", |sys| {
            host.poll(sys)?;
            for (i, &node) in nodes.iter().enumerate().take(images.len()) {
                let output = host.printf_output(node);
                for value in &output[printed[i]..] {
                    println!("P{}: {value}", node.0);
                }
                printed[i] = output.len();
            }
            let pending = host.pending_scanf().next();
            if let Some(node) = pending {
                eprint!("{node} scanf> ");
                let mut line = String::new();
                std::io::stdin()
                    .lock()
                    .read_line(&mut line)
                    .map_err(|e| SystemError::Protocol(format!("stdin: {e}")))?;
                let value = line.trim().parse::<u16>().unwrap_or(0);
                host.answer_scanf(sys, node, value)?;
            }
            Ok(sys.is_idle())
        })
        .map_err(|e| match e {
            SystemError::BudgetExhausted { .. } => format!("budget of {budget} cycles exhausted"),
            e => e.to_string(),
        })?;
    if !system.halted_and_drained() {
        let report = multinoc::debug::analyze_deadlock(&system);
        eprintln!("system blocked without progress:\n{report}");
        return Err("blocked".into());
    }
    eprintln!(
        "all processors halted after {} cycles ({:.2} ms at 25 MHz)",
        system.cycle(),
        system.cycle() as f64 / system.clock_hz() * 1e3
    );
    for (node, addr, len) in reads {
        let data = host
            .read_memory(&mut system, node, addr, usize::from(len))
            .map_err(|e| e.to_string())?;
        print!("{node} [{addr:#06x}..]:");
        for value in data {
            print!(" {value:04X}");
        }
        println!();
    }
    Ok(())
}

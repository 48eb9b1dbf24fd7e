//! `r8sim` — run a program on a standalone R8 core, the counterpart of
//! the paper's "R8 Simulator environment" (§4). Accepts assembly or
//! object text (detected by content), runs to `HALT`, and reports
//! registers, cycle counts and optionally memory.
//!
//! ```text
//! r8sim <input.asm|input.obj> [--cycles <budget>] [--dump <addr> <len>]
//! ```
//!
//! Standalone simulation maps `ST` to `0xFFFF` to stdout (`printf`) and
//! `LD` from `0xFFFF` reads a decimal word per line from stdin
//! (`scanf`), so host-interactive programs work at the console.

use std::io::BufRead;
use std::process::ExitCode;

use r8::core::{Bus, BusResponse, Cpu, RamBus};
use r8::objfile::ParseObjErrorKind;

/// RAM plus console-mapped I/O at 0xFFFF.
struct ConsoleBus {
    ram: RamBus,
}

impl Bus for ConsoleBus {
    fn read(&mut self, addr: u16) -> BusResponse {
        if addr == 0xFFFF {
            let mut line = String::new();
            if std::io::stdin().lock().read_line(&mut line).is_ok() {
                if let Ok(value) = line.trim().parse::<u16>() {
                    return BusResponse::Data(value);
                }
            }
            return BusResponse::Data(0);
        }
        self.ram.read(addr)
    }
    fn write(&mut self, addr: u16, value: u16) -> BusResponse {
        if addr == 0xFFFF {
            println!("{value}");
            return BusResponse::Data(0);
        }
        self.ram.write(addr, value)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut input = None;
    let mut budget = 10_000_000u64;
    let mut dumps: Vec<(u16, u16)> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--cycles" => match iter.next().and_then(|s| s.parse().ok()) {
                Some(n) => budget = n,
                None => return usage("--cycles needs a number"),
            },
            "--dump" => {
                let addr = iter.next().and_then(|s| parse_u16(s));
                let len = iter.next().and_then(|s| parse_u16(s));
                match (addr, len) {
                    (Some(a), Some(l)) => dumps.push((a, l)),
                    _ => return usage("--dump needs <addr> <len>"),
                }
            }
            "-h" | "--help" => return usage(""),
            path if input.is_none() => input = Some(path.to_string()),
            extra => return usage(&format!("unexpected argument `{extra}`")),
        }
    }
    let Some(input) = input else {
        return usage("missing input file");
    };
    let text = match std::fs::read_to_string(&input) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("r8sim: cannot read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Object text contains only hex words / @ / comments; try it first,
    // fall back to the assembler. Well-formed object text that overflows
    // the address space is an error of its own, not assembly source.
    let words = match r8::objfile::from_text(&text) {
        Ok(words) => words,
        Err(e) if e.kind == ParseObjErrorKind::PastAddressSpace => {
            eprintln!("r8sim: {input}: {e}");
            return ExitCode::FAILURE;
        }
        Err(_) => match r8::asm::assemble(&text) {
            Ok(program) => program.words().to_vec(),
            Err(e) => {
                eprintln!("r8sim: {input}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let mut bus = ConsoleBus {
        ram: RamBus::new(65536),
    };
    bus.ram.load(0, &words);
    let mut cpu = Cpu::new();
    if let Err(e) = cpu.run(&mut bus, budget) {
        eprintln!("r8sim: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "halted after {} instructions, {} cycles (CPI {:.2})",
        cpu.retired(),
        cpu.cycles(),
        cpu.cpi()
    );
    for i in 0..16 {
        eprint!("R{i}={:04X} ", cpu.reg(i));
        if i % 8 == 7 {
            eprintln!();
        }
    }
    eprintln!("PC={:04X} SP={:04X}", cpu.pc(), cpu.sp());
    for (addr, len) in dumps {
        for (k, a) in (addr..addr.saturating_add(len)).enumerate() {
            if k % 8 == 0 {
                eprint!("\n{a:04X}: ");
            }
            eprint!("{:04X} ", bus.ram.peek(a));
        }
        eprintln!();
    }
    ExitCode::SUCCESS
}

fn parse_u16(s: &str) -> Option<u16> {
    if let Some(hex) = s.strip_prefix("0x") {
        u16::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn usage(problem: &str) -> ExitCode {
    if !problem.is_empty() {
        eprintln!("r8sim: {problem}");
    }
    eprintln!("usage: r8sim <input.asm|input.obj> [--cycles <budget>] [--dump <addr> <len>]");
    if problem.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

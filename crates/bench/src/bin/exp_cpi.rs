//! E7 — §2.4: "The R8 processor is a 16-bit Von Neumann architecture
//! with a CPI between 2 and 4."
//!
//! Runs instruction-mix microbenchmarks on a standalone R8 core and
//! reports the measured CPI per mix, plus the wait-state effect of
//! remote (NoC) accesses that the Processor IP adds.
//!
//! Run with `cargo run -p multinoc-bench --bin exp_cpi`.

use multinoc::{host::Host, System, PROCESSOR_1, REMOTE_MEMORY};
use multinoc_bench::table_row;
use r8::asm::assemble;
use r8::core::{Cpu, RamBus};

fn standalone_cpi(body: &str, repeat: usize) -> f64 {
    let mut source = String::new();
    for _ in 0..repeat {
        source.push_str(body);
        source.push('\n');
    }
    source.push_str("HALT\n");
    let program = assemble(&source).expect("mix assembles");
    let mut bus = RamBus::new(4096);
    bus.load(0, program.words());
    let mut cpu = Cpu::new();
    cpu.run(&mut bus, 10_000_000).expect("halts");
    cpu.cpi()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("E7: R8 cycles per instruction by mix (paper: between 2 and 4)\n");
    table_row!("instruction mix", "CPI");
    let mixes: [(&str, &str); 6] = [
        ("pure ALU", "ADD R1, R2, R3\nXOR R4, R1, R2"),
        ("ALU + immediates", "ADDI R1, 3\nLDL R2, 7\nSUBI R1, 1"),
        ("shifts", "SL0 R1, R2\nSR1 R2, R1"),
        (
            "local loads/stores",
            "XOR R0, R0, R0\nLIW R5, 0x300\nST R1, R5, R0\nLD R2, R5, R0",
        ),
        (
            "mul/div",
            "LIW R1, 77\nLIW R2, 5\nMUL R3, R1, R2\nDIV R4, R3, R2",
        ),
        ("stack traffic", "LIW R15, 0x3F0\nLDSP R15\nPUSH R1\nPOP R2"),
    ];
    for (name, body) in mixes {
        let cpi = standalone_cpi(body, 200);
        assert!((2.0..=4.0).contains(&cpi), "{name} CPI {cpi} out of band");
        table_row!(name, format!("{cpi:.2}"));
    }

    // Branchy code: the taken-branch penalty keeps CPI inside the band.
    let branchy = {
        let program = assemble(
            "
        LIW  R1, 500
loop:   SUBI R1, 1
        JMPZD done
        JMPD loop
done:   HALT
",
        )?;
        let mut bus = RamBus::new(1024);
        bus.load(0, program.words());
        let mut cpu = Cpu::new();
        cpu.run(&mut bus, 1_000_000)?;
        cpu.cpi()
    };
    table_row!("tight branch loop", format!("{branchy:.2}"));

    // Remote accesses stall the core with wait states (§2.4): effective
    // CPI rises well above the band — that is the NUMA cost, not the
    // core's.
    let mut system = System::paper_config()?;
    let base = system
        .address_map(PROCESSOR_1)?
        .window_base(REMOTE_MEMORY)
        .expect("remote window");
    let program = assemble(&format!(
        "
        XOR  R0, R0, R0
        LIW  R1, {base}
        LIW  R3, 100
loop:   LD   R2, R1, R0      ; remote load -> NoC round trip
        SUBI R3, 1
        JMPZD done
        JMPD loop
done:   HALT
"
    ))?;
    let mut host = Host::new();
    host.synchronize(&mut system)?;
    host.load_program(&mut system, PROCESSOR_1, program.words())?;
    host.activate(&mut system, PROCESSOR_1)?;
    system.run_until_halted(10_000_000)?;
    let cpu = system.cpu(PROCESSOR_1)?;
    table_row!(
        "remote-load loop (NUMA)",
        format!("{:.2}  <- includes NoC wait states", cpu.cpi())
    );
    assert!(cpu.cpi() > 4.0);
    // The core counts each wait state once: one core cycle per cycle
    // its processor spent running or blocked on the NoC, plus HALT's 2.
    let util = system.processor_utilization(PROCESSOR_1)?;
    assert_eq!(
        cpu.cycles(),
        util.running + util.blocked + 2,
        "core cycles against running {} + blocked {} + HALT",
        util.running,
        util.blocked
    );
    println!("\nconclusion: core CPI stays in the paper's 2..4 band; only NoC wait\nstates (remote loads, I/O, wait) push the effective CPI beyond it.");
    Ok(())
}

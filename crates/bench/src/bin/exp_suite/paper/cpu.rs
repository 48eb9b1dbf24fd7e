//! The R8 core: E7 cycles per instruction and E12 compiler cost. Both
//! run a standalone core on a RAM bus; only E7's remote-load loop runs
//! in a system.

use std::error::Error;

use multinoc::{host::Host, System, PROCESSOR_1, REMOTE_MEMORY};
use multinoc_bench::suite::Runs;
use r8::asm::assemble;
use r8::core::{Cpu, RamBus};
use r8::Program;

use super::{row, Report, Table};
use crate::Outcome;

/// Runs `program` from address 0 on a standalone core over a 4K-word RAM
/// until it halts.
fn standalone(program: &Program) -> (Cpu, RamBus) {
    let mut bus = RamBus::new(4096);
    bus.load(0, program.words());
    let mut cpu = Cpu::new();
    cpu.run(&mut bus, 50_000_000).expect("halts");
    (cpu, bus)
}

pub fn e7(runs: &mut Runs, report: &mut Report) -> Outcome {
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
    let branch_loop = "
        LIW  R1, 500
loop:   SUBI R1, 1
        JMPZD done
        JMPD loop
done:   HALT
";
    let mut core = Table::new(&["instruction mix", "CPI"]);
    let mut in_band = true;
    for (name, source) in mixes
        .map(|(name, body)| (name, format!("{body}\n").repeat(200) + "HALT\n"))
        .into_iter()
        .chain([("tight branch loop", branch_loop.to_owned())])
    {
        let cpi = standalone(&assemble(&source)?).0.cpi();
        in_band &= (2.0..=4.0).contains(&cpi);
        row!(core, name, format!("{cpi:.2}"));
    }
    runs.record(core.digest());
    report.table(&core);

    // Remote accesses stall the core with wait states (§2.4).
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
    runs.record(system.fingerprint());
    let cpu = system.cpu(PROCESSOR_1)?;
    let util = system.processor_utilization(PROCESSOR_1)?;
    let mut remote = Table::new(&["loop", "effective CPI"]);
    row!(
        remote,
        "remote-load loop (NUMA)",
        format!("{:.2}", cpu.cpi())
    );
    report.note("In the system, including NoC wait states:");
    report.table(&remote);
    report.claim(in_band, "every standalone mix has a CPI between 2 and 4");
    report.claim(
        cpu.cpi() > 4.0,
        "NoC wait states push the remote-load loop's CPI above 4",
    );
    report.claim(
        cpu.cycles() == util.running + util.blocked + 2,
        "the core counts each wait state once: its cycles are its processor's \
         running plus blocked cycles plus HALT's 2",
    );
    Ok(())
}

/// E12's kernels: a name, hand-written assembly and the same kernel in
/// r8c. Each leaves its result at 0x700.
const KERNELS: [(&str, &str, &str); 2] = [
    (
        "sum 1..=200",
        "
        XOR  R0, R0, R0
        LIW  R1, 200
        XOR  R2, R2, R2
loop:   ADD  R2, R2, R1
        SUBI R1, 1
        JMPZD done
        JMPD loop
done:   LIW  R3, 0x700
        ST   R2, R3, R0
        HALT
",
        "func main() {
             var i = 200;
             var total = 0;
             while (i > 0) {
                 total = total + i;
                 i = i - 1;
             }
             poke(0x700, total);
         }",
    ),
    (
        "popcount x16",
        "
        XOR  R0, R0, R0
        XOR  R4, R4, R4          ; i
        XOR  R7, R7, R7          ; checksum
outer:  LIW  R5, 259
        MUL  R5, R4, R5          ; x = i * 259
        XOR  R6, R6, R6          ; popcount
bits:   SUB  R8, R5, R0
        JMPZD donebits
        LIW  R9, 1
        AND  R9, R5, R9
        ADD  R6, R6, R9
        SR0  R5, R5
        JMPD bits
donebits:
        ADD  R7, R7, R6
        ADDI R4, 1
        LIW  R9, 16
        SUB  R8, R4, R9
        JMPZD fin
        JMPD outer
fin:    LIW  R3, 0x700
        ST   R7, R3, R0
        HALT
",
        "func weight(x) {
             var acc = 0;
             while (x) {
                 acc = acc + (x & 1);
                 x = x >> 1;
             }
             return acc;
         }
         func main() {
             var i = 0;
             var checksum = 0;
             while (i < 16) {
                 checksum = checksum + weight(i * 259);
                 i = i + 1;
             }
             poke(0x700, checksum);
         }",
    ),
];

pub fn e12(runs: &mut Runs, report: &mut Report) -> Outcome {
    let mut table = Table::new(&[
        "kernel",
        "hand asm",
        "r8c -O0",
        "r8c -O1",
        "O1 overhead",
        "agree",
    ]);
    let mut all_agree = true;
    for (name, hand, source) in KERNELS {
        let run = |program: Program| {
            let (cpu, bus) = standalone(&program);
            (cpu.cycles(), bus.peek(0x700))
        };
        let compiled = |opt| -> Result<Program, Box<dyn Error>> {
            Ok(assemble(&r8c::compile_with(source, opt)?)?)
        };
        let (hand_cycles, hand_result) = run(assemble(hand)?);
        let (o0_cycles, o0_result) = run(compiled(r8c::OptLevel::None)?);
        let (o1_cycles, o1_result) = run(compiled(r8c::OptLevel::Basic)?);
        let agree = hand_result == o0_result && o0_result == o1_result;
        all_agree &= agree;
        row!(
            table,
            name,
            hand_cycles,
            o0_cycles,
            o1_cycles,
            format!("{:.2}x", o1_cycles as f64 / hand_cycles as f64),
            agree
        );
    }
    runs.record(table.digest());
    report.table(&table);
    report.claim(
        all_agree,
        "hand assembly, -O0 and -O1 compute the same result for every kernel",
    );
    Ok(())
}

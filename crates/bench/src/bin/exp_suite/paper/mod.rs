//! E1–E17 — the paper's own results, and the extensions that measure its
//! design choices: §2.1's latency formula and router throughput, §3's
//! device fit, floorplan and area scaling, §4's host flow and edge
//! detection, §2.4's CPI, then buffering, arbitration, the serial link,
//! saturation, the compiler, the service mix, scaling, reconfiguration,
//! utilization and routing.
//!
//! Runs the seventeen experiments in E order, asserts every claim each
//! section lists (a failed claim panics naming its experiment) and
//! writes their tables to `RUN_REPORT_paper.md`, which is also printed.
//! The digest takes the `Noc`/`System::fingerprint` of every simulated
//! run; the tables computed without a network or system (E3, E4, E7's
//! standalone core, E12, E15's area) enter it as the Fletcher-64 of their
//! rendered rows. There is no smoke variant: the whole experiment takes
//! a few seconds in a release build, so `--smoke` runs it in full.

mod area;
mod cpu;
mod noc;
mod system;

use std::fmt::{Display, Write};

use hermes_noc::snapshot::fletcher64;
use multinoc_bench::suite::Runs;

use crate::Outcome;

/// An experiment: it runs, records its digest entries and writes its
/// tables and claims into the report.
type Experiment = fn(&mut Runs, &mut Report) -> Outcome;

/// E1–E17 in E order: each section's title and setup, and the
/// experiment that fills it.
const SECTIONS: [(&str, &str, Experiment); 17] = [
    (
        "minimal packet latency vs the analytic model (§2.1)",
        "Lone packets on an idle 8×8 mesh against `latency = (Σ R_i + P) × 2`, R_i = 7 \
         cycles, 2 cycles/flit.",
        noc::e1,
    ),
    (
        "peak router throughput (§2.1)",
        "At 50 MHz, five wormhole flows of 200-flit packets saturate the centre router of \
         a 3×3 mesh for 60,000 cycles.",
        noc::e2,
    ),
    (
        "FPGA utilization and the Fig. 7 floorplan (§3)",
        "The calibrated per-IP area model of the paper's 2×2 system on the XC2S200E.",
        area::e3,
    ),
    (
        "NoC share of system area (§3)",
        "Square meshes of the paper's router with one IP per router.",
        area::e4,
    ),
    (
        "system execution flow (§4, Figs. 8–9)",
        "A 64-element vector sum on P1 of the paper system, fast functional serial link; \
         the cycles of every host phase.",
        system::e5,
    ),
    (
        "parallel edge detection (§4, Fig. 10)",
        "Line-pipelined Sobel over synthetic images on the paper system, one processor \
         against two.",
        system::e6,
    ),
    (
        "processor CPI (§2.4)",
        "Instruction mixes repeated 200 times and a tight branch loop on a standalone R8 \
         core, then a remote-load loop on P1 of the paper system.",
        cpu::e7,
    ),
    (
        "input buffer depth under contention (§2.1)",
        "4×4 mesh, transpose traffic, 8-flit payloads, 30,000 cycles of generation.",
        noc::e8,
    ),
    (
        "round-robin arbitration against starvation (§2.1)",
        "8 senders into the hotspot router 11 of a 3×3 mesh, offered load 0.6, 40,000 \
         cycles; packets delivered per sender.",
        noc::e9,
    ),
    (
        "serial bottleneck (§2.2, §4)",
        "A 1K-word (2 KiB) image written to P1's memory over the serial link at 25 MHz, \
         on a 2×2 system.",
        system::e10,
    ),
    (
        "saturation curve (extension)",
        "4×4 mesh, uniform random traffic, 6-flit packets (4-flit payloads), 30,000 \
         cycles per load, measured over the generation window.",
        noc::e11,
    ),
    (
        "compiler cost (extension)",
        "The same kernels in hand-written R8 assembly and in r8c at both optimization \
         levels, cycles to completion on a standalone core.",
        cpu::e12,
    ),
    (
        "service mix (extension)",
        "Messages of each NoC service in one 32x12 edge-detection run on 2 processors, \
         by sender.",
        system::e13,
    ),
    (
        "sea of processors (extension, §1)",
        "Strong scaling of 360 work units of a compiled kernel over 1–12 processors of a \
         4×4 mesh; the makespan is the cycle the last processor halts.",
        system::e14,
    ),
    (
        "dynamic reconfiguration (§5)",
        "On a 4×4 mesh, P1 at router 10 reads P2's memory 50 times while P2 is relocated \
         towards it; then the area the system frees by removing IPs.",
        system::e15,
    ),
    (
        "utilization by application (extension)",
        "Per-processor cycle accounting of two applications on the paper system.",
        system::e16,
    ),
    (
        "routing ablation, XY vs YX (extension)",
        "4×4 mesh, 6-flit payloads, 25,000 cycles of generation per run.",
        noc::e17,
    ),
];

pub fn run(runs: &mut Runs) -> Outcome {
    let mut report = Report {
        text: String::from(
            "# Paper reproduction report (E1–E17)\n\n\
             Written by `exp_suite paper`; do not edit. Every value is \
             deterministic (fixed seeds, cycle-accurate simulation), and every \
             time is simulated time at the stated clock, never host time. Each \
             section ends with the claims the run asserts; EXPERIMENTS.md \
             interprets them.\n",
        ),
        experiment: 0,
        claims: Vec::new(),
    };
    for (e, (title, setup, experiment)) in (1..).zip(SECTIONS) {
        report.experiment = e;
        let _ = write!(report.text, "\n## E{e} — {title}\n\n{setup}\n");
        experiment(runs, &mut report)?;
        if !report.claims.is_empty() {
            report.text.push_str("\nAsserted:\n\n");
        }
        for claim in report.claims.drain(..) {
            let _ = writeln!(report.text, "- {claim}");
        }
    }
    print!("{}", report.text);
    std::fs::write("RUN_REPORT_paper.md", &report.text)?;
    Ok(())
}

/// The markdown report, the experiment whose section it is writing and
/// the claims that section has asserted so far.
pub struct Report {
    text: String,
    experiment: u8,
    claims: Vec<String>,
}

impl Report {
    /// A paragraph: a caption or a derived figure.
    fn note(&mut self, text: impl Display) {
        let _ = write!(self.text, "\n{text}\n");
    }

    fn table(&mut self, table: &Table) {
        let _ = write!(self.text, "\n{}", table.0);
    }

    /// Asserts one of the section's claims; the section lists it at its
    /// end.
    ///
    /// # Panics
    ///
    /// If the claim does not hold, naming the experiment.
    fn claim(&mut self, holds: bool, text: impl Display) {
        assert!(holds, "E{}: claim does not hold: {text}", self.experiment);
        self.claims.push(text.to_string());
    }
}

/// A markdown table, rendered row by row.
pub struct Table(String);

impl Table {
    fn new(header: &[&str]) -> Self {
        let mut table = Self(String::new());
        table.push(header);
        table.0.push('|');
        table.0.push_str(&"---|".repeat(header.len()));
        table.0.push('\n');
        table
    }

    fn push(&mut self, cells: &[impl Display]) {
        for cell in cells {
            let _ = write!(self.0, "| {cell} ");
        }
        self.0.push_str("|\n");
    }

    /// Fletcher-64 over the rendered rows: the digest entry of a table
    /// computed without a simulated network or system.
    fn digest(&self) -> u64 {
        fletcher64(self.0.as_bytes())
    }
}

/// Appends one row of displayable cells to a [`Table`].
macro_rules! row {
    ($table:expr, $($cell:expr),+ $(,)?) => {
        $table.push(&[$($cell.to_string()),+])
    };
}
use row;

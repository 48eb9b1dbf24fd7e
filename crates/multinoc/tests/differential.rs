//! The determinism contract of the whole system as one table-driven
//! matrix: every workload below × observers {off, all on} × kernels
//! {Reference, Active, Parallel 1/2/8} × driving {`step`, `run`} must
//! reach the same [`System::fingerprint`] at every boundary of an
//! irregular chunk sequence and after the final `run_until_halted`. At
//! one boundary per run the system is checkpointed, restored under the
//! next kernel and resumed from there; once per row and observer
//! setting the checkpoint → restore → checkpoint round trip must also
//! be byte-stable.
//!
//! `run` fast-forwards timer-bound idle gaps while `step` walks every
//! cycle, so the matrix also holds the fast-forward to stepping. The
//! fingerprint digests the whole checkpoint payload — CPU images,
//! memories, reliability layers, serial link, counters, trace and span
//! logs and the network — so one equality replaces comparing each
//! observable or export; `restored_system_renders_identical_exports`
//! checks that the exports are indeed a function of that state.

use hermes_noc::fault::{CycleWindow, FaultPlan};
use hermes_noc::{D2dChannel, KernelMode, NocConfig, Port, RouterAddr, Routing, TelemetryConfig};
use multinoc::{NodeId, System};
use r8::asm::assemble;

mod common;
use common::load_handshake;

const P1: NodeId = NodeId(1);
const MEM: NodeId = NodeId(3);

const KERNELS: [KernelMode; 5] = [
    KernelMode::Reference,
    KernelMode::Active,
    KernelMode::Parallel { threads: 1 },
    KernelMode::Parallel { threads: 2 },
    KernelMode::Parallel { threads: 8 },
];

/// Chunk lengths the matrix advances by, in order and then cycled: the
/// short ones land boundaries mid-burst, the long ones span idle gaps
/// the fast-forward jumps.
const CHUNKS: [u64; 10] = [1, 2, 5, 16, 61, 250, 3, 1_000, 37, 400];

/// Cycle budget of the final `run_until_halted`.
const BUDGET: u64 = 4_000_000;

/// Eight remote stores then eight remote loads against the window at
/// 0x800: every iteration is a sequenced service round trip with its
/// own causal span.
const REMOTE_WALK: &str = "LIW R2, 0x800\n\
     LIW R1, 8\n\
     XOR R0, R0, R0\n\
     wr: ST R1, R2, R0\n\
     ADDI R0, 1\n\
     SUBI R1, 1\n\
     JMPZD rd\n\
     JMPD wr\n\
     rd: LIW R1, 8\n\
     XOR R0, R0, R0\n\
     rl: LD R3, R2, R0\n\
     ADDI R0, 1\n\
     SUBI R1, 1\n\
     JMPZD done\n\
     JMPD rl\n\
     done: HALT";

/// One row of the matrix: a layout over a network, an optional fault
/// plan and the program load, driven chunk by chunk for `horizon`
/// cycles and then run to halt.
struct Row {
    config: NocConfig,
    /// Replicated memory on (1,1)/(2,2) instead of the paper's second
    /// processor and memory.
    replicated: bool,
    plan: Option<FaultPlan>,
    load: fn(&mut System),
    horizon: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Driving {
    /// `step` every cycle of every chunk.
    Step,
    /// `run(chunk)`, jumping timer-bound idle gaps.
    Run,
}

fn fault_tolerant(config: NocConfig) -> NocConfig {
    config.with_routing(Routing::FaultTolerantXy)
}

fn load_program(sys: &mut System, node: NodeId, source: &str) {
    let program = assemble(source).expect("program assembles");
    sys.memory_mut(node)
        .expect("processor memory")
        .write_block(0, program.words());
    sys.activate_directly(node).expect("activates");
}

/// [`load_handshake`] with the remote word pre-seeded, so P1's read cannot
/// race its retransmitted write.
fn seeded_handshake(sys: &mut System) {
    sys.memory_mut(MEM).expect("memory").write(0, 777);
    load_handshake(sys);
}

fn remote_walk(sys: &mut System) {
    load_program(sys, P1, REMOTE_WALK);
}

/// Writes the replicated window, spins past the primary's death, reads
/// the word back and writes the next one.
fn failover_spin(sys: &mut System) {
    let base = sys
        .address_map(P1)
        .expect("map")
        .window_base(NodeId(2))
        .expect("replicated window");
    load_program(
        sys,
        P1,
        &format!(
            "LIW R1, {base}\nLIW R2, 555\nXOR R0, R0, R0\nST R2, R1, R0\n\
             LIW R5, 200\nloop: SUBI R5, 1\nJMPZD go\nJMPD loop\n\
             go: LD R3, R1, R0\nLIW R4, 0x20\nST R3, R4, R0\nLIW R6, 666\n\
             ADDI R1, 1\nST R6, R1, R0\nHALT"
        ),
    );
}

/// Twelve stores through the replicated window, so spans are open
/// when the serving replica dies.
fn replicated_stores(sys: &mut System) {
    let base = sys
        .address_map(P1)
        .expect("map")
        .window_base(NodeId(2))
        .expect("replicated window");
    load_program(
        sys,
        P1,
        &format!(
            "LIW R2, {base}\nLIW R1, 12\nXOR R0, R0, R0\nwr: ST R1, R2, R0\n\
             ADDI R0, 1\nSUBI R1, 1\nJMPZD done\nJMPD wr\ndone: HALT"
        ),
    );
}

/// Builds the row's system under `kernel`, with every observer on if
/// `observed`: trace log, packet tracer, service spans, interval
/// telemetry and the phase profiler.
fn build(row: &Row, kernel: KernelMode, observed: bool) -> System {
    let builder = System::builder()
        .noc(row.config.clone())
        .kernel(kernel)
        .serial_at(RouterAddr::new(0, 0))
        .processor_at(RouterAddr::new(0, 1));
    let builder = if row.replicated {
        builder.replicated_memory_at(RouterAddr::new(1, 1), RouterAddr::new(2, 2))
    } else {
        builder
            .processor_at(RouterAddr::new(1, 0))
            .memory_at(RouterAddr::new(1, 1))
    };
    let mut sys = builder.build().expect("valid layout");
    if observed {
        sys.enable_trace(256);
        sys.enable_packet_trace(128);
        sys.enable_service_spans(256);
        sys.enable_telemetry(TelemetryConfig::default());
        sys.enable_phase_profiler();
    }
    if let Some(plan) = &row.plan {
        sys.set_fault_plan(plan.clone()).expect("valid fault plan");
    }
    (row.load)(&mut sys);
    sys
}

/// Drives one run and returns `(cycle, fingerprint)` at every chunk
/// boundary and after the final `run_until_halted`. With `resume_under`
/// set, the run is checkpointed at the first boundary past half the
/// horizon and continues as the restored copy under that kernel.
fn drive(
    row: &Row,
    observed: bool,
    kernel: KernelMode,
    driving: Driving,
    resume_under: Option<KernelMode>,
) -> Vec<(u64, u64)> {
    let mut sys = build(row, kernel, observed);
    let mut resume_under = resume_under;
    let mut seen = Vec::new();
    for &chunk in CHUNKS.iter().cycle() {
        let chunk = chunk.min(row.horizon - sys.cycle());
        match driving {
            Driving::Step => (0..chunk).for_each(|_| sys.step().expect("steps")),
            Driving::Run => sys.run(chunk).expect("runs"),
        }
        seen.push((sys.cycle(), sys.fingerprint()));
        if let Some(other) = resume_under.filter(|_| 2 * sys.cycle() >= row.horizon) {
            let saved = sys.checkpoint();
            let resumed = System::restore_with_kernel(&saved, other).expect("checkpoint restores");
            // Once per row and observer setting (the round trip is the
            // costliest step): the restored copy must save the same bytes.
            if kernel == KernelMode::Reference {
                let again = System::restore_with_kernel(&resumed.checkpoint(), kernel)
                    .expect("checkpoint restores")
                    .checkpoint();
                assert!(
                    again == saved,
                    "checkpoint -> restore -> checkpoint is not byte-stable"
                );
            }
            sys = resumed;
            resume_under = None;
        }
        if sys.cycle() == row.horizon {
            break;
        }
    }
    sys.run_until_halted(BUDGET).expect("the run halts");
    seen.push((sys.cycle(), sys.fingerprint()));
    seen
}

/// Runs the full matrix over one row. The uninterrupted stepped
/// `Reference` run is the baseline; every other run resumes mid-way
/// under the next kernel of the line-up.
fn check(row: Row) {
    for observed in [false, true] {
        let baseline = drive(&row, observed, KERNELS[0], Driving::Step, None);
        for driving in [Driving::Step, Driving::Run] {
            for (i, &kernel) in KERNELS.iter().enumerate() {
                if i == 0 && driving == Driving::Step {
                    continue;
                }
                let resume = KERNELS[(i + 1) % KERNELS.len()];
                let got = drive(&row, observed, kernel, driving, Some(resume));
                let diverged = baseline.iter().zip(&got).find(|(a, b)| a != b);
                assert!(
                    diverged.is_none() && got.len() == baseline.len(),
                    "{} observers={observed}: {kernel:?} driven by {driving:?} (resumed under \
                     {resume:?}) diverged from the stepped reference run at cycle {:?}",
                    row.config.topology,
                    diverged.map(|(a, _)| a.0),
                );
            }
        }
    }
}

/// A row on the paper layout: serial, two processors and a memory.
fn paper(config: NocConfig, plan: Option<FaultPlan>, load: fn(&mut System), horizon: u64) -> Row {
    Row {
        config,
        replicated: false,
        plan,
        load,
        horizon,
    }
}

/// A row on a fault-tolerant 3×3 mesh with a replicated memory.
fn replicated(plan: FaultPlan, load: fn(&mut System), horizon: u64) -> Row {
    Row {
        config: fault_tolerant(NocConfig::mesh(3, 3)),
        replicated: true,
        plan: Some(plan),
        load,
        horizon,
    }
}

fn span_walk_row() -> Row {
    paper(NocConfig::multinoc(), None, remote_walk, 1_100)
}

#[test]
fn healthy_handshake() {
    check(paper(
        fault_tolerant(NocConfig::multinoc()),
        None,
        load_handshake,
        450,
    ));
}

#[test]
fn retransmission() {
    // Lossy delivery keeps the retransmission timers busy: exactly the
    // gaps `run` jumps.
    let plan = FaultPlan::new(0xFA57).with_drop_rate(0.15);
    check(paper(
        fault_tolerant(NocConfig::multinoc()),
        Some(plan),
        load_handshake,
        1_400,
    ));
}

#[test]
fn degraded_link() {
    // A permanent dead link: diagnosis, epoch wavefront, reroute and the
    // reliability layer's reroute resets.
    let plan = FaultPlan::new(11).with_link_down(
        RouterAddr::new(0, 1),
        Port::East,
        CycleWindow::open_ended(0),
    );
    check(paper(
        fault_tolerant(NocConfig::multinoc()),
        Some(plan),
        seeded_handshake,
        700,
    ));
}

#[test]
fn failover() {
    // The serving primary's router dies mid-run: death diagnosis,
    // failover cycle and the survivor's contents.
    let plan = FaultPlan::new(0xDEAD).with_router_down(RouterAddr::new(1, 1), 600);
    check(replicated(plan, failover_spin, 1_500));
}

#[test]
fn torus_3x3() {
    let plan = FaultPlan::new(0xFA57).with_drop_rate(0.1);
    check(paper(
        fault_tolerant(NocConfig::torus(3, 3)),
        Some(plan),
        load_handshake,
        1_400,
    ));
}

#[test]
fn chiplet_off_chip_serial() {
    let config = fault_tolerant(NocConfig::chiplet(2, 2, D2dChannel::OffChipSerial));
    let plan = FaultPlan::new(0xFA57).with_drop_rate(0.1);
    check(paper(config, Some(plan), load_handshake, 1_400));
}

#[test]
fn span_walk() {
    check(span_walk_row());
}

#[test]
fn span_walk_lossy() {
    // The drop window opens after the activation so the walk starts.
    let plan = FaultPlan::new(0x0B5_FA17)
        .with_drop_rate(0.2)
        .with_drop_window(CycleWindow::new(50, 2_000));
    check(paper(NocConfig::multinoc(), Some(plan), remote_walk, 1_400));
}

#[test]
fn span_redirect() {
    // Open spans follow their traffic to the survivor of a failover.
    let plan = FaultPlan::new(0x0B5_D1E).with_router_down(RouterAddr::new(1, 1), 500);
    check(replicated(plan, replicated_stores, 1_000));
}

#[test]
fn restored_system_renders_identical_exports() {
    // Every export is rendered from checkpointed state only, so equal
    // fingerprints imply equal metrics, Perfetto and telemetry bytes.
    let mut sys = build(&span_walk_row(), KernelMode::Active, true);
    sys.run(700).expect("runs");
    let exports = |sys: &System| {
        let metrics = sys.metrics_snapshot();
        [
            metrics.to_json(),
            metrics.to_prometheus(),
            sys.perfetto_json(),
            sys.telemetry_json().expect("telemetry on"),
            sys.telemetry_prometheus().expect("telemetry on"),
        ]
    };
    let restored = System::restore_with_kernel(&sys.checkpoint(), KernelMode::Reference)
        .expect("checkpoint restores");
    assert_eq!(restored.fingerprint(), sys.fingerprint());
    assert_eq!(exports(&restored), exports(&sys));
}

#[test]
fn traced_checkpoints_restore_at_every_fifth_cycle() {
    // Most checkpoints of this traced walk failed to restore while the
    // newest packet trace held more span events than the old 14-byte
    // per-event floor allowed for (an event is 13 bytes).
    let mut sys = build(&span_walk_row(), KernelMode::Active, false);
    sys.enable_packet_trace(256);
    for _ in 0..40 {
        sys.run(5).expect("runs");
        let restored = System::restore(&sys.checkpoint())
            .unwrap_or_else(|e| panic!("checkpoint at cycle {} failed: {e}", sys.cycle()));
        assert_eq!(restored.fingerprint(), sys.fingerprint());
    }
}

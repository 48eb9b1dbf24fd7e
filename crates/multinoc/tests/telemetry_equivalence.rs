//! Differential test of the causal service-span layer: for the same
//! program the combined Perfetto export — packet spans, service instants
//! and the span slices with their flow arrows — must be byte-identical
//! across kernels, spans must record retransmissions
//! under a lossy network and redirects across a replicated-memory
//! failover, and a checkpoint/restore split must resume to the same
//! span log as the uninterrupted run.

use hermes_noc::fault::{CycleWindow, FaultPlan};
use hermes_noc::{KernelMode, NocConfig, RouterAddr, Routing};
use multinoc::{NodeId, System};
use r8::asm::assemble;

const PROCESSOR: NodeId = NodeId(1);

/// Kernels every export is compared across.
const KERNELS: [KernelMode; 4] = [
    KernelMode::Reference,
    KernelMode::Active,
    KernelMode::Parallel { threads: 2 },
    KernelMode::Parallel { threads: 8 },
];

/// Eight remote stores then eight remote loads against the window at
/// 0x800: every iteration is a sequenced service round trip, so every
/// iteration opens and completes one span.
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

/// What one run exports plus the span-log counters.
#[derive(Debug, PartialEq)]
struct Run {
    perfetto: String,
    spans_total: u64,
    completed: u64,
    retransmissions: u64,
    redirects: u64,
}

/// Boots the paper layout, walks the remote memory IP and returns the
/// exports. `plan` optionally makes the network lossy.
fn run_walk(kernel: KernelMode, plan: Option<FaultPlan>) -> Run {
    let mut sys = System::builder()
        .noc(NocConfig::multinoc().with_kernel_mode(kernel))
        .serial_at(RouterAddr::new(0, 0))
        .processor_at(RouterAddr::new(0, 1))
        .processor_at(RouterAddr::new(1, 0))
        .memory_at(RouterAddr::new(1, 1))
        .build()
        .expect("paper layout");
    sys.enable_trace(1_024);
    sys.enable_packet_trace(1_024);
    sys.enable_service_spans(1_024);
    if let Some(plan) = plan {
        sys.set_fault_plan(plan).expect("valid fault plan");
    }
    let program = assemble(REMOTE_WALK).expect("assembles");
    sys.memory_mut(PROCESSOR)
        .expect("p1 memory")
        .write_block(0, program.words());
    sys.activate_directly(PROCESSOR).expect("activates");
    sys.run_until_halted(10_000_000).expect("halts");
    let spans = sys.service_spans().expect("spans enabled");
    Run {
        spans_total: spans.spans_total(),
        completed: spans.completed(),
        retransmissions: spans.retransmissions(),
        redirects: spans.redirects(),
        perfetto: sys.perfetto_json(),
    }
}

/// Healthy walk: the span-bearing Perfetto document is byte-identical
/// across every kernel, carries the flow-arrow phases, and completes one
/// span per remote operation.
#[test]
fn span_exports_identical_across_kernels() {
    let reference = run_walk(KERNELS[0], None);
    assert_eq!(
        reference.spans_total, 16,
        "8 stores + 8 loads, one span each"
    );
    assert_eq!(reference.completed, 16, "every request completed");
    for phase in ["\"ph\":\"s\"", "\"ph\":\"t\"", "\"ph\":\"f\""] {
        assert!(
            reference.perfetto.contains(phase),
            "the export carries {phase} flow events"
        );
    }
    assert!(
        reference.perfetto.contains("multinoc spans"),
        "spans render on their own named process track"
    );
    for kernel in KERNELS {
        assert_eq!(
            reference,
            run_walk(kernel, None),
            "span export diverged under {kernel:?}"
        );
    }
}

/// A lossy network forces the reliable layer to retransmit; the spans
/// must attribute those retransmissions to their originating request,
/// deterministically across kernels. The drop window opens after the
/// (NoC-delivered) activation packet so the walk always starts.
#[test]
fn spans_record_retransmissions_under_faults() {
    let plan = || {
        Some(
            FaultPlan::new(0x0B5_FA17)
                .with_drop_rate(0.2)
                .with_drop_window(CycleWindow::new(50, 2_000)),
        )
    };
    let reference = run_walk(KERNELS[0], plan());
    assert!(
        reference.retransmissions > 0,
        "a 20% drop rate must force at least one retransmission"
    );
    assert_eq!(
        reference.completed, 16,
        "the reliable layer still completes every request"
    );
    for kernel in &KERNELS[1..] {
        assert_eq!(
            reference,
            run_walk(*kernel, plan()),
            "faulted span export diverged under {kernel:?}"
        );
    }
}

/// Killing the serving replica mid-walk fails the group over; open spans
/// are redirected to the survivor so in-flight responses still complete
/// them — and the whole story exports byte-identically across kernels.
#[test]
fn failover_redirects_open_spans_deterministically() {
    let run = |kernel: KernelMode| {
        let mut config = NocConfig::mesh(3, 3);
        config.routing = Routing::FaultTolerantXy;
        let mut sys = System::builder()
            .noc(config.with_kernel_mode(kernel))
            .serial_at(RouterAddr::new(0, 0))
            .processor_at(RouterAddr::new(0, 1))
            .replicated_memory_at(RouterAddr::new(1, 1), RouterAddr::new(2, 2))
            .build()
            .expect("replicated layout");
        sys.enable_service_spans(1_024);
        sys.set_fault_plan(FaultPlan::new(0x0B5_D1E).with_router_down(RouterAddr::new(1, 1), 900))
            .expect("valid fault plan");
        let base = sys
            .address_map(PROCESSOR)
            .expect("map")
            .window_base(NodeId(2))
            .expect("replicated window");
        let program = assemble(&format!(
            "LIW R2, {base}\n\
             LIW R1, 24\n\
             XOR R0, R0, R0\n\
             wr: ST R1, R2, R0\n\
             ADDI R0, 1\n\
             SUBI R1, 1\n\
             JMPZD done\n\
             JMPD wr\n\
             done: HALT"
        ))
        .expect("assembles");
        sys.memory_mut(PROCESSOR)
            .expect("p memory")
            .write_block(0, program.words());
        sys.activate_directly(PROCESSOR).expect("activates");
        sys.run_until_halted(10_000_000)
            .expect("halts despite the death");
        let spans = sys.service_spans().expect("spans enabled");
        (
            spans.redirects(),
            spans.completed(),
            spans.spans_total(),
            sys.perfetto_json(),
        )
    };
    let reference = run(KernelMode::Reference);
    assert!(
        reference.0 > 0,
        "killing the serving replica must redirect at least one open span"
    );
    assert!(reference.1 > 0, "redirected requests still complete");
    for kernel in &KERNELS[1..] {
        assert_eq!(
            reference,
            run(*kernel),
            "failover span export diverged under {kernel:?}"
        );
    }
}

/// Checkpoint mid-walk, discard the live system, restore — same kernel
/// and cross-kernel — and finish: the final span log and Perfetto export
/// must match the uninterrupted run byte for byte (spans ride snapshot
/// v4).
#[test]
fn checkpoint_restore_resumes_the_span_log() {
    let boot = || {
        let mut sys = System::builder()
            .noc(NocConfig::multinoc())
            .serial_at(RouterAddr::new(0, 0))
            .processor_at(RouterAddr::new(0, 1))
            .processor_at(RouterAddr::new(1, 0))
            .memory_at(RouterAddr::new(1, 1))
            .build()
            .expect("paper layout");
        sys.enable_service_spans(1_024);
        let program = assemble(REMOTE_WALK).expect("assembles");
        sys.memory_mut(PROCESSOR)
            .expect("p1 memory")
            .write_block(0, program.words());
        sys.activate_directly(PROCESSOR).expect("activates");
        sys
    };
    let finish = |sys: &mut System| {
        sys.run_until_halted(10_000_000).expect("halts");
        let spans = sys.service_spans().expect("spans survive the snapshot");
        (
            spans.spans_total(),
            spans.completed(),
            spans.retransmissions(),
            format!("{:?}", spans.spans().collect::<Vec<_>>()),
        )
    };
    let mut uninterrupted = boot();
    for _ in 0..600 {
        uninterrupted.step().expect("steps");
    }
    let bytes = uninterrupted.checkpoint();
    let expected = finish(&mut uninterrupted);
    assert!(expected.0 > 0, "the walk opened spans");

    let mut restored = System::restore(&bytes).expect("checkpoint restores");
    assert_eq!(
        expected,
        finish(&mut restored),
        "restored span log diverged from the uninterrupted run"
    );
    let mut cross = System::restore_with_kernel(&bytes, KernelMode::Parallel { threads: 2 })
        .expect("checkpoint restores into the parallel kernel");
    assert_eq!(
        expected,
        finish(&mut cross),
        "cross-kernel restored span log diverged"
    );
}

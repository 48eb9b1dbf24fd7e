//! Behaviour of the causal service-span layer: one span per remote
//! operation with flow arrows into its packets in the combined Perfetto
//! export, retransmissions attributed under a lossy network, and open
//! spans redirected across a replicated-memory failover. That every
//! kernel, stepping style and checkpoint split exports the same spans
//! is checked by the matrix in `differential.rs`.

use hermes_noc::fault::{CycleWindow, FaultPlan};
use hermes_noc::{NocConfig, RouterAddr, Routing};
use multinoc::{NodeId, System};
use r8::asm::assemble;

const PROCESSOR: NodeId = NodeId(1);

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
struct Run {
    perfetto: String,
    spans_total: u64,
    completed: u64,
    retransmissions: u64,
}

/// Boots the paper layout, walks the remote memory IP and returns the
/// exports. `plan` optionally makes the network lossy.
fn run_walk(plan: Option<FaultPlan>) -> Run {
    let mut sys = System::builder()
        .noc(NocConfig::multinoc())
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
        perfetto: sys.perfetto_json(),
    }
}

/// Healthy walk: the span-bearing Perfetto document carries the
/// flow-arrow phases and completes one span per remote operation.
#[test]
fn span_walk_exports_one_span_per_operation() {
    let run = run_walk(None);
    assert_eq!(run.spans_total, 16, "8 stores + 8 loads, one span each");
    assert_eq!(run.completed, 16, "every request completed");
    for phase in ["\"ph\":\"s\"", "\"ph\":\"t\"", "\"ph\":\"f\""] {
        assert!(
            run.perfetto.contains(phase),
            "the export carries {phase} flow events"
        );
    }
    assert!(
        run.perfetto.contains("multinoc spans"),
        "spans render on their own named process track"
    );
}

/// A lossy network forces the reliable layer to retransmit; the spans
/// must attribute those retransmissions to their originating request.
/// The drop window opens after the (NoC-delivered) activation packet so
/// the walk always starts.
#[test]
fn spans_record_retransmissions_under_faults() {
    let plan = FaultPlan::new(0x0B5_FA17)
        .with_drop_rate(0.2)
        .with_drop_window(CycleWindow::new(50, 2_000));
    let run = run_walk(Some(plan));
    assert!(
        run.retransmissions > 0,
        "a 20% drop rate must force at least one retransmission"
    );
    assert_eq!(
        run.completed, 16,
        "the reliable layer still completes every request"
    );
}

/// Killing the serving replica mid-walk fails the group over; open spans
/// are redirected to the survivor so in-flight responses still complete
/// them.
#[test]
fn failover_redirects_open_spans() {
    let mut config = NocConfig::mesh(3, 3);
    config.routing = Routing::FaultTolerantXy;
    let mut sys = System::builder()
        .noc(config)
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
    assert!(
        spans.redirects() > 0,
        "killing the serving replica must redirect at least one open span"
    );
    assert!(spans.completed() > 0, "redirected requests still complete");
}

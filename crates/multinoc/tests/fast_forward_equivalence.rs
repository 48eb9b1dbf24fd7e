//! Bounds of the system-level idle fast-forward: a bounded `run` lands
//! on the exact cycle even when a timer deadline lies beyond it, and a
//! processor parked forever in `wait` still reaches the idle verdict.
//! That fast-forwarding changes nothing the simulated system does is
//! checked by the matrix in `differential.rs`, which drives every
//! workload both by `run` and by `step`.

use hermes_noc::{NocConfig, RouterAddr, Routing};
use multinoc::processor::ProcessorStatus;
use multinoc::{NodeId, System};
use r8::asm::assemble;

mod common;
use common::load_handshake;

const P1: NodeId = NodeId(1);
const P2: NodeId = NodeId(2);

fn build() -> System {
    let mut config = NocConfig::multinoc();
    config.routing = Routing::FaultTolerantXy;
    System::builder()
        .noc(config)
        .serial_at(RouterAddr::new(0, 0))
        .processor_at(RouterAddr::new(0, 1))
        .processor_at(RouterAddr::new(1, 0))
        .memory_at(RouterAddr::new(1, 1))
        .build()
        .expect("paper layout")
}

#[test]
fn bounded_run_lands_on_the_exact_cycle() {
    // run(n) must advance exactly n cycles even when a timer deadline
    // lies beyond the budget: the jump is clamped, never overshoots.
    let mut sys = build();
    load_handshake(&mut sys);
    for chunk in [1u64, 7, 100, 4_096, 50_000] {
        let before = sys.cycle();
        sys.run(chunk).expect("run");
        assert_eq!(sys.cycle() - before, chunk, "run({chunk}) overshot");
    }
}

#[test]
fn deadlocked_wait_still_reaches_idle_verdict() {
    // A processor parked forever in `wait` has no deadline; the
    // fast-forward must not spin or jump, and run_until_idle must still
    // classify the system as idle-with-a-blocked-core.
    let mut sys = build();
    let program = assemble(&format!(
        "LIW R2, 0xFFFE\nXOR R0, R0, R0\nLIW R3, {}\nST R3, R0, R2\nHALT",
        P2.as_u16(),
    ))
    .expect("assembles");
    sys.memory_mut(P1)
        .expect("p1 memory")
        .write_block(0, program.words());
    sys.activate_directly(P1).expect("activate");
    sys.run_until_idle(100_000).expect("goes idle");
    assert_eq!(
        sys.processor_status(P1).expect("status"),
        ProcessorStatus::Blocked
    );
}

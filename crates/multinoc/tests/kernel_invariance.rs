//! The kernel knob at system level: `KernelMode::auto` picks a kernel
//! that builds and runs the paper workload. That every kernel and
//! thread count produces the same system run is checked by the matrix
//! in `differential.rs`.

use hermes_noc::{KernelMode, NocConfig, RouterAddr, Routing};
use multinoc::{NodeId, System};

mod common;
use common::load_handshake;

const P2: NodeId = NodeId(2);

fn build(kernel: KernelMode) -> System {
    let mut config = NocConfig::multinoc();
    config.routing = Routing::FaultTolerantXy;
    System::builder()
        .noc(config)
        .kernel(kernel)
        .serial_at(RouterAddr::new(0, 0))
        .processor_at(RouterAddr::new(0, 1))
        .processor_at(RouterAddr::new(1, 0))
        .memory_at(RouterAddr::new(1, 1))
        .build()
        .expect("paper layout")
}

#[test]
fn auto_kernel_builds_and_runs() {
    // `KernelMode::auto` picks by mesh size and host parallelism; on the
    // paper's 2×2 it must stay sequential, and whatever it picks must run.
    let auto = KernelMode::auto(2, 2);
    assert_eq!(auto, KernelMode::Active);
    let mut sys = build(auto);
    load_handshake(&mut sys);
    sys.run_until_halted(1_000_000).expect("run halts");
    assert_eq!(sys.memory(P2).expect("p2").read(0x40), 0x5A5A);
}

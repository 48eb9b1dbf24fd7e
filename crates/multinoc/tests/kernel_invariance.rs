//! Differential test of the NoC kernel knob at system level: the same
//! program-driven workload must produce identical observables — elapsed
//! cycles, memory contents, reliability retries, service counters and
//! the latency histogram — whichever simulation kernel the network runs
//! on and however many worker threads the parallel kernel shards over.

use hermes_noc::{FaultPlan, KernelMode, NocConfig, RouterAddr, Routing};
use multinoc::{NodeId, System};
use r8::asm::assemble;

const P1: NodeId = NodeId(1);
const P2: NodeId = NodeId(2);
const MEM: NodeId = NodeId(3);

fn build(kernel: KernelMode, plan: Option<FaultPlan>) -> System {
    let mut config = NocConfig::multinoc();
    config.routing = Routing::FaultTolerantXy;
    let mut sys = System::builder()
        .noc(config)
        .kernel(kernel)
        .serial_at(RouterAddr::new(0, 0))
        .processor_at(RouterAddr::new(0, 1))
        .processor_at(RouterAddr::new(1, 0))
        .memory_at(RouterAddr::new(1, 1))
        .build()
        .expect("paper layout");
    if let Some(plan) = plan {
        sys.set_fault_plan(plan).expect("valid fault plan");
    }
    sys
}

/// P1 writes through remote memory, pokes P2's memory and notifies it;
/// P2 reads back and halts. Lossy delivery keeps the reliability layer's
/// retransmission timers busy.
fn load_workload(sys: &mut System) {
    let mem_base = sys
        .address_map(P1)
        .expect("map")
        .window_base(MEM)
        .expect("window");
    let p2_base = sys
        .address_map(P1)
        .expect("map")
        .window_base(P2)
        .expect("window");
    let p1 = assemble(&format!(
        "LIW R1, {mem_base}\n\
         XOR R0, R0, R0\n\
         LIW R2, 777\n\
         ST  R2, R1, R0\n\
         LD  R3, R1, R0\n\
         LIW R4, 0x20\n\
         ST  R3, R4, R0\n\
         LIW R5, {p2_base}\n\
         LIW R6, 0x5A5A\n\
         ST  R6, R5, R0\n\
         LIW R7, 0xFFFD\n\
         LIW R2, {}\n\
         ST  R2, R0, R7\n\
         HALT",
        P2.as_u16(),
    ))
    .expect("p1 assembles");
    let p2 = assemble(&format!(
        "LIW R2, 0xFFFE\n\
         XOR R0, R0, R0\n\
         LIW R3, {}\n\
         ST  R3, R0, R2\n\
         LD  R4, R0, R0\n\
         LIW R5, 0x40\n\
         ST  R4, R5, R0\n\
         HALT",
        P1.as_u16(),
    ))
    .expect("p2 assembles");
    sys.memory_mut(P1)
        .expect("p1 memory")
        .write_block(0, p1.words());
    sys.memory_mut(P2)
        .expect("p2 memory")
        .write_block(0, p2.words());
    sys.activate_directly(P1).expect("activate p1");
    sys.activate_directly(P2).expect("activate p2");
}

/// Everything the run should leave behind, rendered comparable.
fn fingerprint(sys: &System, elapsed: u64) -> (u64, u64, String, String, String, String) {
    (
        elapsed,
        sys.cycle(),
        format!("{:?}", sys.retry_counters()),
        format!("{:?}", sys.service_counters()),
        format!("{:?}", sys.noc_stats().faults),
        format!("{:?}", sys.noc_stats().latency_histogram()),
    )
}

#[test]
fn every_kernel_produces_the_same_system_run() {
    let kernels = [
        KernelMode::Reference,
        KernelMode::Active,
        KernelMode::Parallel { threads: 1 },
        KernelMode::Parallel { threads: 2 },
        KernelMode::Parallel { threads: 4 },
    ];
    let plan = || FaultPlan::new(0xFA57).with_drop_rate(0.15);
    let mut baseline = None;
    for kernel in kernels {
        let mut sys = build(kernel, Some(plan()));
        load_workload(&mut sys);
        let elapsed = sys.run_until_halted(4_000_000).expect("run halts");
        assert_eq!(sys.memory(P1).expect("p1").read(0x20), 777, "{kernel:?}");
        assert_eq!(sys.memory(P2).expect("p2").read(0x40), 0x5A5A, "{kernel:?}");
        let fp = fingerprint(&sys, elapsed);
        match &baseline {
            None => {
                assert!(
                    sys.retry_counters().retransmissions > 0,
                    "the workload must actually exercise retransmissions"
                );
                baseline = Some(fp);
            }
            Some(b) => assert_eq!(b, &fp, "observables diverged under {kernel:?}"),
        }
    }
}

#[test]
fn every_kernel_produces_the_same_failover() {
    // A replicated memory loses its serving primary mid-run: the death
    // diagnosis, the failover cycle, the survivor's contents and every
    // counter must be bit-identical whichever kernel the NoC runs on.
    let kernels = [
        KernelMode::Reference,
        KernelMode::Active,
        KernelMode::Parallel { threads: 1 },
        KernelMode::Parallel { threads: 2 },
        KernelMode::Parallel { threads: 4 },
    ];
    const PRIMARY: NodeId = NodeId(2);
    const BACKUP: NodeId = NodeId(3);
    let mut baseline = None;
    for kernel in kernels {
        let mut config = NocConfig::mesh(3, 3);
        config.routing = Routing::FaultTolerantXy;
        let mut sys = System::builder()
            .noc(config)
            .kernel(kernel)
            .serial_at(RouterAddr::new(0, 0))
            .processor_at(RouterAddr::new(0, 1))
            .replicated_memory_at(RouterAddr::new(1, 1), RouterAddr::new(2, 2))
            .build()
            .expect("replicated layout");
        sys.set_fault_plan(FaultPlan::new(0xDEAD).with_router_down(RouterAddr::new(1, 1), 2500))
            .expect("valid fault plan");
        let base = sys
            .address_map(P1)
            .expect("map")
            .window_base(PRIMARY)
            .expect("window");
        let program = assemble(&format!(
            "LIW R1, {base}\n\
             LIW R2, 555\n\
             XOR R0, R0, R0\n\
             ST R2, R1, R0\n\
             LIW R5, 4000\n\
             loop: SUBI R5, 1\n\
             JMPZD go\n\
             JMPD loop\n\
             go: LD R3, R1, R0\n\
             LIW R4, 0x20\n\
             ST R3, R4, R0\n\
             LIW R6, 666\n\
             ADDI R1, 1\n\
             ST R6, R1, R0\n\
             HALT"
        ))
        .expect("assembles");
        sys.memory_mut(P1)
            .expect("p1 memory")
            .write_block(0, program.words());
        sys.activate_directly(P1).expect("activate p1");
        let elapsed = sys.run_until_halted(4_000_000).expect("run halts");
        assert_eq!(sys.memory(P1).expect("p1").read(0x20), 555, "{kernel:?}");
        assert_eq!(
            sys.memory(BACKUP).expect("backup").read(1),
            666,
            "{kernel:?}"
        );
        assert_eq!(sys.dead_nodes(), &[PRIMARY], "{kernel:?}");
        let fp = (
            fingerprint(&sys, elapsed),
            format!("{:?}", sys.failover_report()),
            sys.replication_writes(),
            sys.metrics_snapshot().to_prometheus(),
        );
        match &baseline {
            None => {
                assert_eq!(sys.failover_report().len(), 1);
                baseline = Some(fp);
            }
            Some(b) => assert_eq!(b, &fp, "failover observables diverged under {kernel:?}"),
        }
    }
}

#[test]
fn topology_never_changes_kernel_invariance() {
    // The same program-driven workload on a torus and on a chiplet
    // mesh-of-meshes (both under fault-tolerant routing and a lossy
    // link): every kernel × thread count must reproduce the per-topology
    // baseline exactly, just like on the paper mesh.
    use hermes_noc::D2dChannel;
    let plan = || FaultPlan::new(0xFA57).with_drop_rate(0.1);
    for base in [
        NocConfig::torus(3, 3),
        NocConfig::chiplet(2, 2, D2dChannel::OffChipSerial),
    ] {
        let mut baseline = None;
        for kernel in [
            KernelMode::Reference,
            KernelMode::Active,
            KernelMode::Parallel { threads: 1 },
            KernelMode::Parallel { threads: 2 },
            KernelMode::Parallel { threads: 8 },
        ] {
            let mut config = base.clone();
            config.routing = Routing::FaultTolerantXy;
            let mut sys = System::builder()
                .noc(config)
                .kernel(kernel)
                .serial_at(RouterAddr::new(0, 0))
                .processor_at(RouterAddr::new(0, 1))
                .processor_at(RouterAddr::new(1, 0))
                .memory_at(RouterAddr::new(1, 1))
                .build()
                .expect("the paper layout fits every topology");
            sys.set_fault_plan(plan()).expect("valid fault plan");
            load_workload(&mut sys);
            let elapsed = sys.run_until_halted(4_000_000).expect("run halts");
            assert_eq!(
                sys.memory(P2).expect("p2").read(0x40),
                0x5A5A,
                "{} {kernel:?}",
                base.topology
            );
            let fp = fingerprint(&sys, elapsed);
            match &baseline {
                None => baseline = Some(fp),
                Some(b) => assert_eq!(b, &fp, "{} diverged under {kernel:?}", base.topology),
            }
        }
    }
}

#[test]
fn auto_kernel_builds_and_runs() {
    // `KernelMode::auto` picks by mesh size and host parallelism; on the
    // paper's 2×2 it must stay sequential, and whatever it picks must run.
    let auto = KernelMode::auto(2, 2);
    assert_eq!(auto, KernelMode::Active);
    let mut sys = build(auto, None);
    load_workload(&mut sys);
    sys.run_until_halted(1_000_000).expect("run halts");
    assert_eq!(sys.memory(P2).expect("p2").read(0x40), 0x5A5A);
}

//! Checkpoint/restore round-trip equivalence: a run resumed from a
//! checkpoint must be indistinguishable from the run that was never
//! interrupted — the same `System::fingerprint`, which digests every
//! simulated field a checkpoint holds (cycle, memory images,
//! reliability and service state, fault diagnosis, logs). The suite
//! checkpoints healthy, faulted, degraded and failover runs mid-flight
//! (at *every* cycle for the short healthy schedule) and compares the
//! resumed world against the uninterrupted one. It also covers the
//! watchdog restore hazard: a resumed run must never fire a DeadLink
//! verdict the uninterrupted run would not have fired.

use hermes_noc::{CycleWindow, FaultPlan, KernelMode, NocConfig, Port, RouterAddr, Routing};
use multinoc::{NodeId, System};
use r8::asm::assemble;

mod common;
use common::load_handshake;

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

#[test]
fn healthy_run_resumes_identically_from_every_cycle() {
    // The reference world: never interrupted.
    let mut reference = build(KernelMode::Active, None);
    load_handshake(&mut reference);
    reference.run_until_halted(1_000_000).expect("run halts");
    let want = reference.fingerprint();

    // The probed world: checkpointed at every single cycle. Each
    // checkpoint must (a) survive an immediate restore + re-checkpoint
    // byte-for-byte, and (b) resume to the exact reference fingerprint.
    let mut stepped = build(KernelMode::Active, None);
    load_handshake(&mut stepped);
    let mut cycles_probed = 0u64;
    loop {
        let snap = stepped.checkpoint();
        let restored = System::restore(&snap).expect("restore");
        assert_eq!(
            restored.checkpoint(),
            snap,
            "checkpoint at cycle {} is not byte-stable across restore",
            stepped.cycle()
        );
        let mut resumed = restored;
        resumed
            .run_until_halted(1_000_000)
            .expect("resumed run halts");
        assert_eq!(
            resumed.fingerprint(),
            want,
            "resume from cycle {} diverged from the uninterrupted run",
            stepped.cycle()
        );
        if stepped.all_halted()
            && stepped.noc().is_idle()
            && stepped.link().is_idle()
            && stepped.net_quiet()
        {
            break;
        }
        assert!(cycles_probed < 100_000, "probe budget exhausted");
        stepped.step().expect("step");
        cycles_probed += 1;
    }
    assert_eq!(
        stepped.fingerprint(),
        want,
        "the per-cycle probing itself perturbed the run"
    );
    assert_eq!(sys_read(&reference, P1, 0x20), 777);
    assert_eq!(sys_read(&reference, P2, 0x40), 0x5A5A);
}

fn sys_read(sys: &System, node: NodeId, addr: u16) -> u16 {
    sys.memory(node).expect("memory").read(addr)
}

/// Runs the uninterrupted schedule once, then replays it with a single
/// mid-flight checkpoint at each of several cut points and asserts the
/// resumed world's final fingerprint matches the uninterrupted one.
fn assert_resumes_identically(
    make: impl Fn() -> System,
    prepare: impl Fn(&mut System),
    check: impl Fn(&System),
) {
    let mut reference = make();
    prepare(&mut reference);
    let elapsed = reference.run_until_halted(4_000_000).expect("run halts");
    check(&reference);
    let want = reference.fingerprint();
    assert!(elapsed > 8, "schedule too short to cut mid-flight");
    for cut in [elapsed / 8, elapsed / 3, elapsed / 2, elapsed - 7] {
        let mut sys = make();
        prepare(&mut sys);
        sys.run(cut).expect("run to the cut point");
        let snap = sys.checkpoint();
        drop(sys); // the "crashed" world is gone; only the bytes survive
        let mut resumed = System::restore(&snap).expect("restore");
        assert_eq!(resumed.cycle(), cut);
        resumed
            .run_until_halted(4_000_000)
            .expect("resumed run halts");
        check(&resumed);
        assert_eq!(
            resumed.fingerprint(),
            want,
            "resume from cycle {cut} diverged from the uninterrupted run"
        );
    }
}

#[test]
fn faulted_run_resumes_identically() {
    // Lossy delivery keeps retransmission timers, dedup state and seq
    // windows hot at every cut point; the trace log rides along too.
    assert_resumes_identically(
        || {
            let mut sys = build(
                KernelMode::Active,
                Some(FaultPlan::new(0xFA57).with_drop_rate(0.15)),
            );
            sys.enable_trace(4096);
            sys
        },
        load_handshake,
        |sys| {
            assert!(
                sys.retry_counters().retransmissions > 0,
                "the workload must actually exercise retransmissions"
            );
            assert_eq!(sys_read(sys, P2, 0x40), 0x5A5A);
        },
    );
}

#[test]
fn degraded_run_resumes_identically() {
    // A permanent dead link: the diagnosis, reconfiguration epoch and
    // reroute state must all survive the checkpoint boundary.
    assert_resumes_identically(
        || {
            build(
                KernelMode::Active,
                Some(FaultPlan::new(11).with_link_down(
                    RouterAddr::new(0, 1),
                    Port::East,
                    CycleWindow::open_ended(0),
                )),
            )
        },
        |sys| {
            // Pre-seed so P1's read does not race its retransmitted write.
            sys.memory_mut(MEM).expect("mem").write(0, 777);
            load_handshake(sys);
        },
        |sys| {
            assert!(sys.degraded(), "the dead link was diagnosed");
            assert_eq!(sys_read(sys, P2, 0x40), 0x5A5A);
        },
    );
}

#[test]
fn node_down_failover_resumes_identically() {
    // A replicated memory loses its primary mid-run; cut points land
    // both before and after the death, so the checkpoint must carry the
    // health monitors, the failover record and the rebound directory.
    const PRIMARY: NodeId = NodeId(2);
    const BACKUP: NodeId = NodeId(3);
    let make = || {
        let mut config = NocConfig::mesh(3, 3);
        config.routing = Routing::FaultTolerantXy;
        let mut sys = System::builder()
            .noc(config)
            .serial_at(RouterAddr::new(0, 0))
            .processor_at(RouterAddr::new(0, 1))
            .replicated_memory_at(RouterAddr::new(1, 1), RouterAddr::new(2, 2))
            .build()
            .expect("replicated layout");
        sys.set_fault_plan(FaultPlan::new(0xDEAD).with_router_down(RouterAddr::new(1, 1), 2500))
            .expect("valid fault plan");
        sys
    };
    let prepare = |sys: &mut System| {
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
    };
    assert_resumes_identically(make, prepare, |sys| {
        assert_eq!(sys_read(sys, P1, 0x20), 555);
        assert_eq!(sys_read(sys, BACKUP, 1), 666);
        assert_eq!(sys.dead_nodes(), &[PRIMARY]);
        assert_eq!(sys.failover_report().len(), 1);
    });
}

#[test]
fn checkpoint_and_restore_commute_with_the_kernel() {
    // The snapshot captures simulated state, not simulator state: a
    // checkpoint taken under the 8-thread parallel kernel must resume
    // identically under the reference kernel, and vice versa.
    let plan = || FaultPlan::new(0xFA57).with_drop_rate(0.15);
    let mut reference = build(KernelMode::Parallel { threads: 8 }, Some(plan()));
    load_handshake(&mut reference);
    let elapsed = reference.run_until_halted(4_000_000).expect("run halts");
    let want = reference.fingerprint();
    let swaps = [
        (
            KernelMode::Parallel { threads: 8 },
            KernelMode::Reference,
            "parallel → reference",
        ),
        (
            KernelMode::Reference,
            KernelMode::Parallel { threads: 8 },
            "reference → parallel",
        ),
    ];
    for (run_under, resume_under, label) in swaps {
        let mut sys = build(run_under, Some(plan()));
        load_handshake(&mut sys);
        sys.run(elapsed / 2).expect("run to the cut point");
        let snap = sys.checkpoint();
        let mut resumed = System::restore_with_kernel(&snap, resume_under).expect("restore");
        resumed
            .run_until_halted(4_000_000)
            .expect("resumed run halts");
        assert_eq!(
            resumed.fingerprint(),
            want,
            "kernel swap {label} changed the simulated outcome"
        );
    }
}

#[test]
fn restored_watchdog_does_not_fire_a_false_dead_link() {
    // Regression for the restore-path determinism hazard: the watchdog's
    // idle/progress windows are checkpointed verbatim and must NOT be
    // re-armed from the restored world's current counters. At real baud
    // rates the Activate command takes far longer than the watchdog
    // window to trickle over the serial link; a restore taken during
    // that quiet stretch used to look like an instant stall once the
    // first packet entered the mesh.
    use multinoc::serial::{HostCommand, SerialConfig, SYNC_BYTE};
    let make = || {
        let mut sys = System::builder()
            .noc(NocConfig::multinoc())
            .serial(SerialConfig::from_baud(25.0e6, 115_200.0))
            .serial_at(RouterAddr::new(0, 0))
            .processor_at(RouterAddr::new(0, 1))
            .processor_at(RouterAddr::new(1, 0))
            .memory_at(RouterAddr::new(1, 1))
            .build()
            .expect("paper layout");
        // Any fault plan arms the watchdog; inject nothing.
        sys.set_fault_plan(FaultPlan::new(1)).expect("plan");
        let program = assemble("LIW R1, 1\nHALT").expect("assembles");
        sys.memory_mut(P1)
            .expect("p1 memory")
            .write_block(0, program.words());
        sys.link_mut().host_send(&[SYNC_BYTE]);
        sys.link_mut()
            .host_send(&HostCommand::Activate { node: 1 }.to_bytes());
        sys
    };
    let mut reference = make();
    let elapsed = reference
        .run_until_halted(1_000_000)
        .expect("slow serial is idle time, not a dead link");
    let want = reference.fingerprint();
    // The quiet activation trickle must outlast the 4096-cycle watchdog
    // window for the probe to mean anything; checkpoint inside it, while
    // the host bytes are still in flight, including right before the
    // first packet finally enters the mesh.
    assert!(elapsed > 4_200, "trickle too fast to probe past the window");
    for cut in [2_000u64, 3_500, elapsed - 7] {
        let mut sys = make();
        sys.run(cut).expect("run to the cut point");
        let snap = sys.checkpoint();
        let mut resumed = System::restore(&snap).expect("restore");
        resumed
            .run_until_halted(1_000_000)
            .unwrap_or_else(|e| panic!("restore at cycle {cut} fired a false verdict: {e}"));
        assert_eq!(
            resumed.fingerprint(),
            want,
            "resume from cycle {cut} diverged from the uninterrupted run"
        );
    }
}

#[test]
fn checkpoint_file_round_trips_atomically() {
    let dir = std::env::temp_dir().join(format!("multinoc-recovery-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("mid_flight.mnsp");
    let mut sys = build(KernelMode::Active, None);
    load_handshake(&mut sys);
    sys.run(40).expect("run");
    sys.checkpoint_to_file(&path).expect("write checkpoint");
    assert!(
        !dir.join("mid_flight.mnsp.tmp").exists(),
        "the temporary file must be renamed away"
    );
    let mut reference = sys;
    reference.run_until_halted(1_000_000).expect("run halts");
    let mut resumed = System::restore_from_file(&path).expect("restore from file");
    resumed
        .run_until_halted(1_000_000)
        .expect("resumed run halts");
    assert_eq!(resumed.fingerprint(), reference.fingerprint());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn auto_checkpoint_writes_on_schedule_and_resumes() {
    let dir = std::env::temp_dir().join(format!("multinoc-autockpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("auto.mnsp");
    let mut reference = build(KernelMode::Active, None);
    load_handshake(&mut reference);
    reference.run_until_halted(1_000_000).expect("run halts");
    let want = reference.fingerprint();

    let mut sys = build(KernelMode::Active, None);
    load_handshake(&mut sys);
    sys.enable_auto_checkpoint(&path, 25);
    sys.run(120).expect("run");
    assert!(
        sys.auto_checkpoints_written() >= 4,
        "expected a checkpoint every 25 cycles, saw {}",
        sys.auto_checkpoints_written()
    );
    // The file on disk is a valid resume point...
    let mut resumed = System::restore_from_file(&path).expect("restore auto checkpoint");
    resumed
        .run_until_halted(1_000_000)
        .expect("resumed run halts");
    assert_eq!(resumed.fingerprint(), want);
    // ...and the policy itself is runtime configuration: it is not
    // serialized, and disabling it stops the writes.
    assert_eq!(resumed.auto_checkpoints_written(), 0);
    sys.disable_auto_checkpoint();
    let written = sys.auto_checkpoints_written();
    sys.run_until_halted(1_000_000).expect("run halts");
    assert_eq!(sys.auto_checkpoints_written(), written);
    assert_eq!(sys.fingerprint(), want);
    std::fs::remove_dir_all(&dir).ok();
}

/// A traced, telemetry-on, faulted 4×4 network paused with traffic in
/// flight: a dead link (so health entries and a detour epoch), a dead
/// router and a dead endpoint, drops and corruption, a record window
/// small enough to evict into the latency histogram.
fn pinned_noc() -> hermes_noc::Noc {
    use hermes_noc::{Noc, Packet, TelemetryConfig};
    let mut config = NocConfig::mesh(4, 4);
    config.routing = Routing::FaultTolerantXy;
    config.stats_window = 16;
    let mut noc = Noc::new(config).expect("4x4 mesh");
    noc.enable_packet_trace(32);
    noc.enable_telemetry(TelemetryConfig {
        sample_interval: 16,
        capacity: 8,
        ..TelemetryConfig::default()
    });
    noc.set_fault_plan(
        FaultPlan::new(0x5EED)
            .with_corrupt_rate(0.01)
            .with_drop_rate(0.02)
            .with_link_down(
                RouterAddr::new(1, 1),
                Port::East,
                CycleWindow::open_ended(40),
            )
            .with_router_down(RouterAddr::new(3, 0), 150)
            .with_endpoint_down(RouterAddr::new(0, 3), 90),
    )
    .expect("valid plan");
    for round in 0..6u16 {
        for i in 0..16u16 {
            let src = RouterAddr::new((i % 4) as u8, (i / 4) as u8);
            let j = (i * 7 + round * 3 + 5) % 16;
            let dest = RouterAddr::new((j % 4) as u8, (j / 4) as u8);
            let payload = (0..1 + (i + round) % 5).map(|w| w * 17 + i).collect();
            // A send may be refused once its source is dead.
            let _ = noc.send(src, Packet::new(dest, payload));
        }
        noc.run(45);
    }
    noc
}

/// The paper layout, faulted, with every observer on — trace log,
/// packet trace, service spans and telemetry — paused mid-handshake.
fn pinned_system() -> System {
    let mut sys = build(
        KernelMode::Active,
        Some(FaultPlan::new(0xC0FFEE).with_drop_rate(0.05)),
    );
    sys.enable_trace(128);
    sys.enable_packet_trace(32);
    sys.enable_service_spans(64);
    sys.enable_telemetry(hermes_noc::TelemetryConfig {
        sample_interval: 32,
        capacity: 16,
        ..hermes_noc::TelemetryConfig::default()
    });
    load_handshake(&mut sys);
    sys.run(700).expect("run");
    sys
}

#[test]
fn snapshot_byte_format_is_pinned() {
    // Length and Fletcher-64 of two fixed snapshots. Any change to the
    // payload layout moves them; such a change must bump
    // `SNAPSHOT_VERSION` (and keep the older layouts decodable) before
    // these values are updated.
    use hermes_noc::snapshot::fletcher64;
    let noc = pinned_noc().save_state();
    let sys = pinned_system().checkpoint();
    assert_eq!(
        (noc.len(), fletcher64(&noc)),
        (153_135, 0xe1af_1a72_a6d8_9010)
    );
    assert_eq!(
        (sys.len(), fletcher64(&sys)),
        (145_012, 0xaf6b_2395_d7b5_91ca)
    );
}

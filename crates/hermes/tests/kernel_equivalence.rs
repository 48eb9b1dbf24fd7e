//! Differential test of the cycle kernels: for the same seed and
//! workload, `KernelMode::Active` and `KernelMode::Parallel` (at any
//! thread count) must be indistinguishable from `KernelMode::Reference`
//! — identical cycle counts, identical statistics (including fault and
//! health counters fed by the site-keyed random streams), identical
//! per-packet records and identical delivered packets — on healthy,
//! faulted and degraded meshes.

use std::fmt::Write as _;

use hermes_noc::fault::{CycleWindow, FaultPlan};
use hermes_noc::stats::NocStats;
use hermes_noc::{D2dChannel, KernelMode, Noc, NocConfig, Packet, Port, RouterAddr, Routing};
use proptest::prelude::*;

/// One scheduled submission: at `cycle`, send `packet` from `src`.
struct Send {
    cycle: u64,
    src: RouterAddr,
    dest: RouterAddr,
    payload: Vec<u16>,
}

fn snapshot(stats: &NocStats) -> impl PartialEq + std::fmt::Debug {
    (
        stats.cycles,
        stats.packets_sent,
        stats.packets_delivered,
        stats.flit_hops,
        stats.flits_delivered,
        stats.faults,
        stats.health,
        stats.evicted_records(),
    )
}

/// The kernel line-up every differential run covers: the full-mesh
/// reference walk, the quiescence-aware active set, and the sharded
/// parallel engine at degenerate, even and oversubscribed thread counts.
const KERNELS: [KernelMode; 5] = [
    KernelMode::Reference,
    KernelMode::Active,
    KernelMode::Parallel { threads: 1 },
    KernelMode::Parallel { threads: 2 },
    KernelMode::Parallel { threads: 8 },
];

/// Steps all kernels in lockstep over the same submission schedule and
/// asserts every observable matches the reference cycle for cycle.
fn assert_kernels_equivalent(
    config: NocConfig,
    plan: Option<FaultPlan>,
    schedule: &[Send],
    run_cycles: u64,
) {
    let mut nocs: Vec<Noc> = KERNELS
        .iter()
        .map(|&kernel| {
            Noc::new(config.clone().with_kernel_mode(kernel)).expect("valid kernel config")
        })
        .collect();
    if let Some(plan) = plan {
        for noc in &mut nocs {
            noc.set_fault_plan(plan.clone()).expect("valid fault plan");
        }
    }
    let mut next = 0;
    for cycle in 0..run_cycles {
        while next < schedule.len() && schedule[next].cycle == cycle {
            let s = &schedule[next];
            let outcomes: Vec<_> = nocs
                .iter_mut()
                .map(|noc| noc.send(s.src, Packet::new(s.dest, s.payload.clone())))
                .collect();
            for (kernel, outcome) in KERNELS.iter().zip(&outcomes) {
                assert_eq!(
                    outcome, &outcomes[0],
                    "send outcome diverged at cycle {cycle} under {kernel:?}"
                );
            }
            next += 1;
        }
        for noc in &mut nocs {
            noc.step();
        }
        let (reference, rest) = nocs.split_first().expect("at least one kernel");
        for (kernel, noc) in KERNELS[1..].iter().zip(rest) {
            assert_eq!(
                snapshot(reference.stats()),
                snapshot(noc.stats()),
                "stats diverged at cycle {cycle} under {kernel:?}"
            );
            assert_eq!(
                reference.is_idle(),
                noc.is_idle(),
                "idleness diverged at cycle {cycle} under {kernel:?}"
            );
            assert_eq!(
                reference.current_epoch(),
                noc.current_epoch(),
                "epochs diverged at cycle {cycle} under {kernel:?}"
            );
        }
    }
    let (reference, rest) = nocs.split_first_mut().expect("at least one kernel");
    for (kernel, noc) in KERNELS[1..].iter().zip(rest.iter()) {
        assert_eq!(reference.cycle(), noc.cycle(), "{kernel:?}");
        assert_eq!(
            reference.stats().records(),
            noc.stats().records(),
            "{kernel:?}"
        );
        assert_eq!(reference.dead_links(), noc.dead_links(), "{kernel:?}");
        assert_eq!(reference.dead_routers(), noc.dead_routers(), "{kernel:?}");
        assert_eq!(
            reference.dead_endpoints(),
            noc.dead_endpoints(),
            "{kernel:?}"
        );
        assert_eq!(
            reference.stats().latency_histogram(),
            noc.stats().latency_histogram(),
            "latency histogram diverged under {kernel:?}"
        );
        assert_eq!(
            reference.stats().latency_quantile(0.99),
            noc.stats().latency_quantile(0.99),
            "{kernel:?}"
        );
    }
    // Delivered packets drain in the same order with the same sources.
    let (w, h) = (reference.config().width(), reference.config().height());
    for y in 0..h {
        for x in 0..w {
            let at = RouterAddr::new(x, y);
            loop {
                let expect = reference.try_recv(at);
                for (kernel, noc) in KERNELS[1..].iter().zip(rest.iter_mut()) {
                    let got = noc.try_recv(at);
                    assert_eq!(
                        got, expect,
                        "delivered stream diverged at {at} ({kernel:?})"
                    );
                }
                if expect.is_none() {
                    break;
                }
            }
        }
    }
}

/// Drives `noc` through the sends of `schedule` falling in cycles
/// `[noc.cycle(), upto)` using batched `run` calls — the batched-window
/// engine's native driving style — recording each send outcome into
/// `fp`, and leaves the clock at exactly `upto`.
fn drive_chunked(noc: &mut Noc, schedule: &[Send], upto: u64, fp: &mut String) {
    for s in schedule {
        if s.cycle < noc.cycle() || s.cycle >= upto {
            continue;
        }
        noc.run(s.cycle - noc.cycle());
        let outcome = noc.send(s.src, Packet::new(s.dest, s.payload.clone()));
        write!(fp, "send@{}:{outcome:?};", s.cycle).expect("write to string");
    }
    noc.run(upto - noc.cycle());
}

/// Every observable after a drained run, folded into one comparable
/// string: final cycle, statistics, per-packet records, the latency
/// histogram, the diagnosed-dead sets and the full delivered stream.
fn drained_fingerprint(noc: &mut Noc, fp: &mut String) {
    noc.run_until_idle(100_000).expect("network drains");
    write!(
        fp,
        "cycle:{} stats:{:?} records:{:?} hist:{:?} dead:{:?}/{:?}/{:?}",
        noc.cycle(),
        snapshot(noc.stats()),
        noc.stats().records(),
        noc.stats().latency_histogram(),
        noc.dead_links(),
        noc.dead_routers(),
        noc.dead_endpoints(),
    )
    .expect("write to string");
    let (w, h) = (noc.config().width(), noc.config().height());
    for y in 0..h {
        for x in 0..w {
            let at = RouterAddr::new(x, y);
            while let Some((from, packet)) = noc.try_recv(at) {
                write!(fp, " {from}->{at}:{:?}", packet.payload()).expect("write to string");
            }
        }
    }
}

/// Builds a network, drives the whole schedule in batched chunks and
/// returns the drained fingerprint.
fn chunked_fingerprint(
    config: NocConfig,
    plan: Option<&FaultPlan>,
    schedule: &[Send],
    run_cycles: u64,
) -> String {
    let mut noc = Noc::new(config).expect("valid config");
    if let Some(plan) = plan {
        noc.set_fault_plan(plan.clone()).expect("valid fault plan");
    }
    let mut fp = String::new();
    drive_chunked(&mut noc, schedule, run_cycles, &mut fp);
    drained_fingerprint(&mut noc, &mut fp);
    fp
}

/// A deterministic all-to-all-ish schedule over a `w`×`h` mesh.
fn schedule(w: u8, h: u8, packets: usize, spacing: u64) -> Vec<Send> {
    let nodes = u64::from(w) * u64::from(h);
    (0..packets as u64)
        .map(|k| {
            let s = k % nodes;
            let d = (k * 7 + 3) % nodes;
            Send {
                cycle: k * spacing,
                src: RouterAddr::new((s % u64::from(w)) as u8, (s / u64::from(w)) as u8),
                dest: RouterAddr::new((d % u64::from(w)) as u8, (d / u64::from(w)) as u8),
                payload: vec![(k % 200) as u16; 1 + (k % 6) as usize],
            }
        })
        .collect()
}

#[test]
fn healthy_workload_is_cycle_identical() {
    // Bursty phase, long idle gap, another burst: exercises both the busy
    // and the quiescent paths of the active-set kernel.
    let mut sends = schedule(4, 4, 40, 9);
    for (i, s) in schedule(4, 4, 10, 13).into_iter().enumerate() {
        sends.push(Send {
            cycle: 8_000 + i as u64 * 13,
            ..s
        });
    }
    sends.sort_by_key(|s| s.cycle);
    assert_kernels_equivalent(NocConfig::mesh(4, 4), None, &sends, 12_000);
}

#[test]
fn faulted_workload_is_cycle_identical() {
    // Drops, corruption, a link outage window and a router stall window:
    // every consumer of the injector's random stream and every fault
    // counter must align between the kernels.
    let plan = FaultPlan::new(1234)
        .with_drop_rate(0.1)
        .with_corrupt_rate(0.15)
        .with_link_down(RouterAddr::new(1, 0), Port::East, CycleWindow::new(50, 400))
        .with_router_stall(RouterAddr::new(2, 1), CycleWindow::new(100, 700));
    let sends = schedule(3, 3, 60, 17);
    assert_kernels_equivalent(NocConfig::mesh(3, 3), Some(plan), &sends, 6_000);
}

#[test]
fn degraded_workload_is_cycle_identical() {
    // A permanent dead link under fault-tolerant routing: diagnosis,
    // wedged-worm flush, epoch wavefront and detoured grants must all
    // happen on the same cycles in both kernels.
    let plan = FaultPlan::new(99).with_link_down(
        RouterAddr::new(1, 1),
        Port::East,
        CycleWindow::open_ended(0),
    );
    let config = NocConfig::mesh(3, 3).with_routing(Routing::FaultTolerantXy);
    let sends = schedule(3, 3, 60, 23);
    assert_kernels_equivalent(config, Some(plan), &sends, 8_000);
}

#[test]
fn router_killed_mid_flight_is_cycle_identical() {
    // A router dies while worms are crossing it: the timed-out handshake
    // counting, the escalation that condemns every adjacent link, the
    // victim purge and the per-neighbour epoch announcements must all
    // land on the same cycles under every kernel. An IP-core death rides
    // along to cover the endpoint-death path too.
    let plan = FaultPlan::new(4242)
        .with_router_down(RouterAddr::new(1, 1), 120)
        .with_endpoint_down(RouterAddr::new(2, 0), 300);
    let config = NocConfig::mesh(3, 3).with_routing(Routing::FaultTolerantXy);
    let sends = schedule(3, 3, 60, 19);
    assert_kernels_equivalent(config, Some(plan), &sends, 8_000);
}

#[test]
fn small_stats_window_stays_cycle_identical() {
    // Eviction must not influence simulation behaviour in either kernel.
    let config = NocConfig::mesh(3, 3).with_stats_window(4);
    let sends = schedule(3, 3, 50, 11);
    assert_kernels_equivalent(config, None, &sends, 4_000);
}

#[test]
fn parallel_kernel_is_thread_count_invariant() {
    // The same faulted workload at every thread count must land on the
    // same cycle count, the same service counters and the same latency
    // histogram bucket for bucket — the whole point of keying randomness
    // by site and merging deltas in shard order.
    let plan = FaultPlan::new(7)
        .with_drop_rate(0.05)
        .with_corrupt_rate(0.05);
    let sends = schedule(4, 4, 80, 7);
    let mut baseline: Option<(u64, Vec<u8>)> = None;
    for threads in [1usize, 2, 3, 8] {
        let config = NocConfig::mesh(4, 4).with_kernel_mode(KernelMode::Parallel { threads });
        let mut noc = Noc::new(config).expect("valid parallel config");
        noc.set_fault_plan(plan.clone()).expect("valid fault plan");
        let mut next = 0;
        for cycle in 0..4_000 {
            while next < sends.len() && sends[next].cycle == cycle {
                let s = &sends[next];
                noc.send(s.src, Packet::new(s.dest, s.payload.clone()))
                    .expect("send");
                next += 1;
            }
            noc.step();
        }
        noc.run_until_idle(100_000).expect("drains");
        let fingerprint = (
            noc.cycle(),
            format!(
                "{:?} {:?}",
                snapshot(noc.stats()),
                noc.stats().latency_histogram()
            )
            .into_bytes(),
        );
        match &baseline {
            None => baseline = Some(fingerprint),
            Some(b) => assert_eq!(
                b, &fingerprint,
                "observables changed with thread count {threads}"
            ),
        }
    }
}

#[test]
fn long_run_stats_stay_within_the_configured_window() {
    let window = 16;
    let mut noc = Noc::new(NocConfig::mesh(2, 2).with_stats_window(window)).expect("valid config");
    let src = RouterAddr::new(0, 0);
    let dst = RouterAddr::new(1, 1);
    let mut sent = 0u64;
    for round in 0..2_000u64 {
        noc.send(src, Packet::new(dst, vec![(round % 100) as u16]))
            .expect("send");
        sent += 1;
        noc.run_until_idle(10_000).expect("deliver");
        assert!(
            noc.stats().records().len() <= window,
            "round {round}: window overflowed"
        );
        let _ = noc.try_recv(dst);
    }
    let stats = noc.stats();
    assert_eq!(stats.packets_sent, sent);
    assert_eq!(stats.packets_delivered, sent);
    // Every delivered latency was folded into the streaming aggregate
    // even though only the last few records survive.
    assert_eq!(stats.latency_histogram().count(), sent);
    // Eviction is amortized: the backing store holds at most twice the
    // window, so everything older than that has definitely been evicted.
    assert!(stats.evicted_records() >= sent.saturating_sub(2 * window as u64));
    assert!(stats.evicted_records() <= sent - stats.records().len() as u64);
    assert!(stats.mean_latency().is_some());
    // And the source reported by try_recv no longer depends on records.
    noc.send(src, Packet::new(dst, vec![7])).expect("send");
    noc.run_until_idle(10_000).expect("deliver");
    let (from, packet) = noc.try_recv(dst).expect("delivered");
    assert_eq!(from, src, "true source survives record eviction");
    assert_eq!(packet.payload(), &[7]);
}

/// The four differential schedules — healthy, faulted, degraded and
/// router-killed — as `(config, plan, sends, cycles)` tuples for the
/// batched-window sweeps.
fn sweep_schedules() -> Vec<(NocConfig, Option<FaultPlan>, Vec<Send>, u64)> {
    let faulted = FaultPlan::new(1234)
        .with_drop_rate(0.1)
        .with_corrupt_rate(0.15)
        .with_link_down(RouterAddr::new(1, 0), Port::East, CycleWindow::new(50, 400))
        .with_router_stall(RouterAddr::new(2, 1), CycleWindow::new(100, 700));
    let degraded = FaultPlan::new(99).with_link_down(
        RouterAddr::new(1, 1),
        Port::East,
        CycleWindow::open_ended(0),
    );
    let node_down = FaultPlan::new(4242)
        .with_router_down(RouterAddr::new(1, 1), 120)
        .with_endpoint_down(RouterAddr::new(2, 0), 300);
    let ft = NocConfig::mesh(3, 3).with_routing(Routing::FaultTolerantXy);
    vec![
        (NocConfig::mesh(4, 4), None, schedule(4, 4, 40, 9), 2_000),
        (
            NocConfig::mesh(3, 3),
            Some(faulted),
            schedule(3, 3, 60, 17),
            2_000,
        ),
        (ft.clone(), Some(degraded), schedule(3, 3, 60, 23), 2_500),
        (ft, Some(node_down), schedule(3, 3, 60, 19), 2_500),
    ]
}

#[test]
fn batched_windows_are_bit_identical_across_window_and_thread_sweeps() {
    // Every window size × thread count must reproduce the per-cycle
    // reference fingerprint exactly, on every schedule class. On the
    // faulted schedules the engine collapses to one-cycle windows
    // internally; the sweep proves that collapse — and the batched path
    // on the healthy schedule — is observationally invisible. The
    // baseline is the reference kernel, the only one pinned to
    // one-cycle windows.
    for (config, plan, sends, cycles) in sweep_schedules() {
        let baseline = chunked_fingerprint(
            config.clone().with_kernel_mode(KernelMode::Reference),
            plan.as_ref(),
            &sends,
            cycles,
        );
        for window in [1u32, 2, 5, 16] {
            for kernel in [
                KernelMode::Active,
                KernelMode::Parallel { threads: 1 },
                KernelMode::Parallel { threads: 2 },
                KernelMode::Parallel { threads: 8 },
            ] {
                let fp = chunked_fingerprint(
                    config
                        .clone()
                        .with_kernel_mode(kernel)
                        .with_batch_window(window),
                    plan.as_ref(),
                    &sends,
                    cycles,
                );
                assert_eq!(
                    fp, baseline,
                    "observables diverged under {kernel:?} with batch window {window}"
                );
            }
        }
    }
}

#[test]
fn topology_sweep_is_bit_identical_across_kernels_windows_and_threads() {
    // The torus (table-routed, wraparound links) and the chiplet
    // mesh-of-meshes (multi-cycle off-chip channels) must be exactly as
    // kernel-, window- and thread-invariant as the paper mesh: every
    // kernel × batch window reproduces the reference fingerprint bit for
    // bit, including with the slow serial d2d channel whose future-cycle
    // arrivals cross batch-window boundaries. The baseline steps cycle by
    // cycle under the reference kernel.
    for config in [
        NocConfig::torus(4, 3),
        NocConfig::chiplet(2, 2, D2dChannel::OffChipSerial),
        NocConfig::chiplet(2, 2, D2dChannel::OffChipParallel),
    ] {
        let sends = schedule(config.width(), config.height(), 40, 9);
        let baseline = chunked_fingerprint(
            config.clone().with_kernel_mode(KernelMode::Reference),
            None,
            &sends,
            2_000,
        );
        for window in [1u32, 16] {
            for kernel in [
                KernelMode::Reference,
                KernelMode::Active,
                KernelMode::Parallel { threads: 1 },
                KernelMode::Parallel { threads: 2 },
                KernelMode::Parallel { threads: 8 },
            ] {
                let fp = chunked_fingerprint(
                    config
                        .clone()
                        .with_kernel_mode(kernel)
                        .with_batch_window(window),
                    None,
                    &sends,
                    2_000,
                );
                assert_eq!(
                    fp, baseline,
                    "{} diverged under {kernel:?} with batch window {window}",
                    config.topology
                );
            }
        }
    }
}

#[test]
fn off_chip_serial_channel_is_slower_than_parallel() {
    // The channel model must actually separate the two d2d variants: the
    // same cross-chiplet packet takes longer over the serialized off-chip
    // link than over the parallel one, and both take longer than a purely
    // on-chip hop sequence of the same length on a plain mesh.
    let latency_of = |config: NocConfig| {
        let mut noc = Noc::new(config).expect("valid config");
        let src = RouterAddr::new(0, 0);
        let dst = RouterAddr::new(3, 0); // crosses the chiplet boundary at x=1|2
        let id = noc.send(src, Packet::new(dst, vec![7; 4])).expect("send");
        noc.run_until_idle(100_000).expect("drains");
        noc.stats().record(id).expect("recorded").latency()
    };
    let mesh = latency_of(NocConfig::mesh(4, 4));
    let parallel = latency_of(NocConfig::chiplet(2, 2, D2dChannel::OffChipParallel));
    let serial = latency_of(NocConfig::chiplet(2, 2, D2dChannel::OffChipSerial));
    assert!(
        mesh < parallel && parallel < serial,
        "expected mesh ({mesh}) < off-chip-parallel ({parallel}) < off-chip-serial ({serial})"
    );
}

#[test]
fn checkpoint_at_a_run_boundary_resumes_bit_identically() {
    // `save_state` can only run between public calls, and every public
    // call returns at a fully merged window boundary — even when the
    // split lands mid-way through what a full window would have covered
    // (1_003 is not a multiple of 16: the engine clamps the final window
    // to end exactly there). The resumed halves must reproduce the
    // uninterrupted fingerprint under the same kernel and under a
    // different one.
    let sends = schedule(4, 4, 40, 9);
    let config = NocConfig::mesh(4, 4)
        .with_kernel_mode(KernelMode::Parallel { threads: 2 })
        .with_batch_window(16);
    let total = 2_000;
    let split = 1_003;
    let uninterrupted = chunked_fingerprint(config.clone(), None, &sends, total);

    let mut first = Noc::new(config).expect("valid config");
    let mut fp = String::new();
    drive_chunked(&mut first, &sends, split, &mut fp);
    let bytes = first.save_state();

    for kernel in [
        KernelMode::Parallel { threads: 2 },
        KernelMode::Reference,
        KernelMode::Parallel { threads: 8 },
    ] {
        let mut resumed =
            Noc::restore_state_with_kernel(&bytes, kernel).expect("snapshot restores");
        let mut resumed_fp = fp.clone();
        drive_chunked(&mut resumed, &sends, total, &mut resumed_fp);
        drained_fingerprint(&mut resumed, &mut resumed_fp);
        assert_eq!(
            resumed_fp, uninterrupted,
            "resume under {kernel:?} diverged from the uninterrupted run"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mid-batch restore is *exact*: whatever cycle a `run` call splits
    /// the workload at — including cycles that sit strictly inside the
    /// window a longer run would have batched — the snapshot taken there
    /// captures a fully merged state, and resuming from it is
    /// bit-identical to never having stopped.
    #[test]
    fn restore_at_any_run_split_is_bit_exact(
        split in 0u64..1_200,
        threads in 1usize..5,
        window in 1u32..24,
    ) {
        let sends = schedule(4, 4, 30, 13);
        let config = NocConfig::mesh(4, 4)
            .with_kernel_mode(KernelMode::Parallel { threads })
            .with_batch_window(window);
        let total = 1_200;
        let uninterrupted = chunked_fingerprint(config.clone(), None, &sends, total);

        let mut first = Noc::new(config).expect("valid config");
        let mut fp = String::new();
        drive_chunked(&mut first, &sends, split, &mut fp);
        let bytes = first.save_state();
        let mut resumed = Noc::restore_state(&bytes).expect("snapshot restores");
        drive_chunked(&mut resumed, &sends, total, &mut fp);
        drained_fingerprint(&mut resumed, &mut fp);
        prop_assert_eq!(fp, uninterrupted);
    }
}

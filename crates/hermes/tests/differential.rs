//! The determinism contract of the network as one table-driven matrix:
//! every schedule below × observers {off, all on} × kernels {Reference,
//! Active, Parallel 1/2/8} × driving {`step`, `run`} must reach the same
//! [`Noc::fingerprint`] at every boundary of an irregular chunk
//! sequence and after the final `run_until_idle`. Stepped runs also
//! check every completion against the per-router delivery bounds
//! reported before it, and every run the minimum delivery latency. At one boundary per
//! run the network is saved, restored under the next kernel and resumed
//! from there; once per row and observer setting the save → restore →
//! save round trip must also be byte-stable.
//!
//! The fingerprint digests the whole snapshot payload — buffers,
//! statistics, records, health, epochs, delivered queues, trace ring and
//! telemetry — so one equality replaces comparing each observable or
//! export; `restored_network_renders_identical_exports` checks that the
//! exports are indeed a function of that state. Regression tests for
//! snapshots that did not restore close the file.

use hermes_noc::fault::{CycleWindow, FaultPlan};
use hermes_noc::latency::{min_delivery_latency, minimal_latency};
use hermes_noc::{
    D2dChannel, KernelMode, Noc, NocConfig, Packet, Port, RouterAddr, Routing, TelemetryConfig,
};

const KERNELS: [KernelMode; 5] = [
    KernelMode::Reference,
    KernelMode::Active,
    KernelMode::Parallel { threads: 1 },
    KernelMode::Parallel { threads: 2 },
    KernelMode::Parallel { threads: 8 },
];

/// Chunk lengths the matrix advances by, in order and then cycled. The
/// 1-, 2-, 5- and 16-cycle chunks reach every engine window size through
/// `run(k)`'s clamp to `k`; the longer ones cross telemetry sample
/// boundaries and idle gaps.
const CHUNKS: [u64; 10] = [1, 2, 5, 16, 61, 250, 3, 1_000, 37, 400];

/// Cycle budget of the final `run_until_idle`.
const BUDGET: u64 = 1_000_000;

/// One scheduled submission: at `cycle`, send a packet from `src`.
struct Send {
    cycle: u64,
    src: RouterAddr,
    dest: RouterAddr,
    payload: Vec<u16>,
}

/// One row of the matrix: a network, an optional fault plan and a send
/// schedule, driven chunk by chunk for `horizon` cycles and then
/// drained.
struct Row {
    config: NocConfig,
    plan: Option<FaultPlan>,
    sends: Vec<Send>,
    horizon: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Driving {
    /// `step` every cycle of every chunk.
    Step,
    /// `run(chunk)`, which jumps an idle gap the fault plan allows
    /// jumping.
    Run,
}

/// A deterministic all-to-all-ish schedule over a `w`×`h` grid.
fn schedule(w: u8, h: u8, packets: u64, spacing: u64) -> Vec<Send> {
    let nodes = u64::from(w) * u64::from(h);
    let at = |i: u64| RouterAddr::new((i % u64::from(w)) as u8, (i / u64::from(w)) as u8);
    (0..packets)
        .map(|k| Send {
            cycle: k * spacing,
            src: at(k % nodes),
            dest: at((k * 7 + 3) % nodes),
            payload: vec![(k % 200) as u16; 1 + (k % 6) as usize],
        })
        .collect()
}

/// A row over `config` sending `schedule(packets, spacing)` and driven
/// until just after its last send.
fn row(config: NocConfig, plan: Option<FaultPlan>, packets: u64, spacing: u64) -> Row {
    let sends = schedule(config.width(), config.height(), packets, spacing);
    let horizon = sends.last().map_or(0, |s| s.cycle) + 50;
    Row {
        config,
        plan,
        sends,
        horizon,
    }
}

/// Builds the row's network under `kernel`, with every observer on if
/// `observed`: the packet tracer, interval telemetry and the phase
/// profiler (which must not perturb the simulation).
fn build(row: &Row, kernel: KernelMode, observed: bool) -> Noc {
    let mut noc = Noc::new(row.config.clone().with_kernel_mode(kernel)).expect("valid config");
    if let Some(plan) = &row.plan {
        noc.set_fault_plan(plan.clone()).expect("valid fault plan");
    }
    if observed {
        noc.enable_packet_trace(128);
        noc.enable_telemetry(TelemetryConfig::default());
        noc.enable_phase_profiler();
    }
    noc
}

/// Every router address of `noc`'s grid, in index order.
fn routers(noc: &Noc) -> Vec<RouterAddr> {
    let (w, h) = (noc.config().width(), noc.config().height());
    (0..h)
        .flat_map(|y| (0..w).map(move |x| RouterAddr::new(x, y)))
        .collect()
}

/// Advances `noc` by `cycles`. Stepping also holds the network to its
/// [`Noc::delivery_bound`]s: `floor` keeps, per router, the highest bound
/// reported in any earlier cycle, and no packet may complete there
/// before it.
fn advance(noc: &mut Noc, cycles: u64, driving: Driving, floor: &mut [u64]) {
    match driving {
        Driving::Step => {
            let routers = routers(noc);
            for _ in 0..cycles {
                let mut waiting = Vec::with_capacity(routers.len());
                for (i, &at) in routers.iter().enumerate() {
                    if let Some(bound) = noc.delivery_bound(at) {
                        floor[i] = floor[i].max(bound);
                    }
                    waiting.push(noc.pending_recv(at));
                }
                noc.step();
                for (i, &at) in routers.iter().enumerate() {
                    assert!(
                        noc.pending_recv(at) == waiting[i] || noc.cycle() >= floor[i],
                        "{}: a packet completed at {at} in cycle {}, before the bound {}",
                        noc.config().topology,
                        noc.cycle(),
                        floor[i]
                    );
                }
            }
        }
        Driving::Run => noc.run(cycles),
    }
}

/// Drives one run and returns `(cycle, fingerprint)` at every chunk
/// boundary and after the final drain. With `resume_under` set, the run
/// is checkpointed at the first boundary past half the horizon and
/// continues as the restored copy under that kernel.
fn drive(
    row: &Row,
    observed: bool,
    kernel: KernelMode,
    driving: Driving,
    resume_under: Option<KernelMode>,
) -> Vec<(u64, u64)> {
    let mut noc = build(row, kernel, observed);
    let mut resume_under = resume_under;
    let mut sends = row.sends.iter().peekable();
    let mut floor = vec![0; row.config.router_count()];
    let mut seen = Vec::new();
    for &chunk in CHUNKS.iter().cycle() {
        let end = (noc.cycle() + chunk).min(row.horizon);
        while noc.cycle() < end {
            while let Some(s) = sends.next_if(|s| s.cycle == noc.cycle()) {
                let _ = noc.send(s.src, Packet::new(s.dest, s.payload.clone()));
            }
            let next = sends.peek().map_or(end, |s| s.cycle.min(end));
            let cycles = next - noc.cycle();
            advance(&mut noc, cycles, driving, &mut floor);
        }
        seen.push((noc.cycle(), noc.fingerprint()));
        if let Some(other) = resume_under.filter(|_| 2 * noc.cycle() >= row.horizon) {
            let saved = noc.save_state();
            let resumed = Noc::restore_state_with_kernel(&saved, other).expect("snapshot restores");
            // Once per row and observer setting (the round trip is the
            // costliest step): the restored copy must save the same bytes.
            if kernel == KernelMode::Reference {
                let again = Noc::restore_state_with_kernel(&resumed.save_state(), kernel)
                    .expect("snapshot restores")
                    .save_state();
                assert!(again == saved, "save -> restore -> save is not byte-stable");
            }
            noc = resumed;
            resume_under = None;
        }
        if noc.cycle() == row.horizon {
            break;
        }
    }
    noc.run_until_idle(BUDGET).expect("the network drains");
    // No packet of any schedule became visible sooner after its send
    // than the lookahead bound a system may run its cores ahead by.
    let bound = min_delivery_latency(&row.config);
    let fastest = noc.stats().latency_histogram().min();
    assert!(
        fastest.is_none_or(|l| l >= bound),
        "{} {kernel:?}: a packet arrived {fastest:?} cycles after its send, under the \
         {bound}-cycle bound",
        row.config.topology,
    );
    seen.push((noc.cycle(), noc.fingerprint()));
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

#[test]
fn healthy_mesh() {
    // Two bursts around a long idle gap: the busy and quiescent paths of
    // the active set, and telemetry frames across a jump of `run`.
    let mut r = row(NocConfig::mesh(4, 4), None, 40, 9);
    for (i, s) in schedule(4, 4, 10, 13).into_iter().enumerate() {
        r.sends.push(Send {
            cycle: 3_000 + i as u64 * 13,
            ..s
        });
    }
    r.horizon = 3_120;
    check(r);
}

#[test]
fn faulted_mesh() {
    // Drops, corruption, a link outage and a router stall: every consumer
    // of the injector's random stream and every fault counter.
    let plan = FaultPlan::new(1234)
        .with_drop_rate(0.1)
        .with_corrupt_rate(0.15)
        .with_link_down(RouterAddr::new(1, 0), Port::East, CycleWindow::new(50, 400))
        .with_router_stall(RouterAddr::new(2, 1), CycleWindow::new(100, 700));
    check(row(NocConfig::mesh(3, 3), Some(plan), 60, 17));
}

#[test]
fn degraded_mesh() {
    // A permanent dead link under fault-tolerant routing: diagnosis,
    // wedged-worm flush, epoch wavefront and detoured grants.
    let plan = FaultPlan::new(99).with_link_down(
        RouterAddr::new(1, 1),
        Port::East,
        CycleWindow::open_ended(0),
    );
    let config = NocConfig::mesh(3, 3).with_routing(Routing::FaultTolerantXy);
    check(row(config, Some(plan), 60, 23));
}

#[test]
fn router_killed_mid_flight() {
    // A router dies with worms crossing it, plus a standalone IP-core
    // death: escalation, victim purge and per-neighbour epochs.
    let plan = FaultPlan::new(4242)
        .with_router_down(RouterAddr::new(1, 1), 120)
        .with_endpoint_down(RouterAddr::new(2, 0), 300);
    let config = NocConfig::mesh(3, 3).with_routing(Routing::FaultTolerantXy);
    check(row(config, Some(plan), 60, 19));
}

#[test]
fn four_record_stats_window() {
    // Record eviction must not influence the simulation.
    check(row(
        NocConfig::mesh(3, 3).with_stats_window(4),
        None,
        50,
        11,
    ));
}

#[test]
fn torus_4x3() {
    check(row(NocConfig::torus(4, 3), None, 40, 9));
}

#[test]
fn chiplet_off_chip_serial() {
    // Multi-cycle d2d arrivals cross window and chunk boundaries.
    let config = NocConfig::chiplet(2, 2, D2dChannel::OffChipSerial);
    check(row(config, None, 40, 9));
}

#[test]
fn chiplet_off_chip_parallel() {
    let config = NocConfig::chiplet(2, 2, D2dChannel::OffChipParallel);
    check(row(config, None, 40, 9));
}

/// Cycles from `send` until `try_recv` at `dest` first returns the
/// packet, stepping one cycle at a time on an otherwise empty network.
fn visible_after(config: &NocConfig, src: RouterAddr, dest: RouterAddr) -> u64 {
    let mut noc = Noc::new(config.clone()).expect("valid config");
    noc.run(5);
    let sent = noc.cycle();
    noc.send(src, Packet::new(dest, Vec::new())).expect("send");
    while noc.try_recv(dest).is_none() {
        noc.step();
        assert!(noc.cycle() - sent < 1_000, "the packet never arrived");
    }
    noc.cycle() - sent
}

#[test]
fn minimal_packets_arrive_exactly_at_the_formula() {
    // The lookahead bound is tight: a minimal self-addressed packet is
    // collected exactly `min_delivery_latency` cycles after its send, and
    // a minimal one-hop packet exactly at the two-router formula, on
    // every kernel and at several (routing, per-flit) timings.
    let here = RouterAddr::new(1, 1);
    let east = RouterAddr::new(2, 1);
    for (routing, per_flit) in [(7, 2), (1, 1), (3, 1)] {
        for kernel in KERNELS {
            let mut config = NocConfig::mesh(3, 3)
                .with_routing_cycles(routing)
                .with_kernel_mode(kernel);
            config.cycles_per_flit = per_flit;
            let bound = min_delivery_latency(&config);
            assert_eq!(visible_after(&config, here, here), bound, "{kernel:?}");
            assert_eq!(
                visible_after(&config, here, east),
                minimal_latency(2, 2, routing, per_flit),
                "{kernel:?}"
            );
        }
    }
}

#[test]
fn restored_network_renders_identical_exports() {
    // Every export is rendered from snapshotted state only, so equal
    // fingerprints imply equal metrics, Perfetto and telemetry bytes.
    let r = row(NocConfig::mesh(4, 4), None, 40, 9);
    let mut noc = build(&r, KernelMode::Active, true);
    for s in &r.sends {
        noc.run(s.cycle - noc.cycle());
        noc.send(s.src, Packet::new(s.dest, s.payload.clone()))
            .expect("send");
    }
    noc.run(100);
    let exports = |noc: &Noc| {
        let metrics = noc.metrics();
        [
            metrics.to_json(),
            metrics.to_prometheus(),
            noc.packet_trace().expect("traced").perfetto_json(),
            noc.telemetry_json().expect("telemetry on"),
            noc.telemetry_prometheus().expect("telemetry on"),
        ]
    };
    let restored = Noc::restore_state_with_kernel(&noc.save_state(), KernelMode::Reference)
        .expect("snapshot restores");
    assert_eq!(restored.fingerprint(), noc.fingerprint());
    let rendered = exports(&noc);
    assert!(
        rendered[2].contains("\"ph\":\"X\""),
        "the trace holds hop spans"
    );
    assert!(
        rendered[3].contains("\"frames\""),
        "the series holds frames"
    );
    assert_eq!(exports(&restored), rendered);
}

/// Saves `noc`, restores it and checks the copy carries the same state.
fn assert_round_trips(noc: &Noc) {
    let restored = Noc::restore_state(&noc.save_state()).expect("snapshot restores");
    assert_eq!(restored.fingerprint(), noc.fingerprint());
}

#[test]
fn traced_delivery_snapshot_restores() {
    // The newest trace holds more span events than the payload has bytes
    // left at the old 14-byte-per-event floor (an event is 13 bytes).
    let mut noc = Noc::new(NocConfig::mesh(2, 2)).expect("valid config");
    noc.enable_packet_trace(8);
    noc.send(
        RouterAddr::new(0, 0),
        Packet::new(RouterAddr::new(1, 1), vec![1, 2, 3]),
    )
    .expect("send");
    noc.run_until_idle(BUDGET).expect("drains");
    assert_round_trips(&noc);
}

#[test]
fn queued_burst_snapshot_restores() {
    // Thousands of not-yet-injected packets leave records whose three
    // optional cycles are unset: 35 bytes each, under the old floor of 40.
    let mut noc = Noc::new(NocConfig::mesh(2, 2)).expect("valid config");
    for i in 0..2_000u16 {
        noc.send(
            RouterAddr::new(0, 0),
            Packet::new(RouterAddr::new(1, 1), vec![i % 200]),
        )
        .expect("send");
    }
    noc.step();
    assert_round_trips(&noc);
}

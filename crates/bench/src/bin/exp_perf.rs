//! E20 (extension) — simulation-kernel performance: host cycles/second
//! of the quiescence-aware active-set kernel (`KernelMode::Active`, the
//! default) against the reference full-scan kernel on idle-heavy,
//! saturated and degraded-mesh workloads, plus the system-level idle
//! fast-forward, with a peak-RSS proxy and the bounded-statistics
//! memory evidence.
//!
//! Every workload is seeded and runs under *both* kernels; the harness
//! asserts the runs' `Noc::fingerprint`s — a digest of the whole
//! simulated state — are identical before reporting any speed number,
//! so a reported speedup can never come from simulating something else.
//! Wall-clock rates vary with the machine; the simulated outcomes do
//! not. The machine-readable summary lands in `BENCH_perf.json`.
//!
//! A second section sweeps `KernelMode::Parallel` over 1/2/4/8 worker
//! threads on an idle-heavy 16×16 mesh and a saturated 32×32
//! sea-of-processors mesh, again asserting bit-identical observables
//! against the sequential kernel before recording any rate. Thread
//! speedups are *observations* of this host (recorded with its CPU
//! count in `BENCH_parallel.json`), never assertions — a single-core CI
//! runner legitimately reports ≤1×. Every rate comes from a run with the
//! phase profiler off; each sweep point's phase breakdown comes from a
//! separate profiled run of the same workload.
//!
//! Run with `cargo run --release -p multinoc-bench --bin exp_perf`
//! (set `EXP_PERF_SMOKE=1` for the fast CI variant).

use std::fmt::Write as _;
use std::time::Instant;

use hermes_noc::traffic::{Pattern, TrafficGen};
use hermes_noc::{
    CycleWindow, FaultPlan, KernelMode, Noc, NocConfig, Packet, PhaseProfile, Port, RouterAddr,
    Routing,
};
use multinoc::serial::{HostCommand, SerialConfig, SYNC_BYTE};
use multinoc::{NodeId, System};
use r8::asm::assemble;

/// Seed shared by every workload.
const SEED: u64 = 0xE20_BEEF;

/// Workload scale: 1 for the CI smoke run, 10 for the full measurement.
fn scale() -> u64 {
    if std::env::var_os("EXP_PERF_SMOKE").is_some() {
        1
    } else {
        10
    }
}

struct Measured {
    /// [`Noc::fingerprint`] of the finished run: equal across kernels
    /// for the same workload — the differential guard on every speed
    /// number.
    fingerprint: u64,
    /// Simulated cycles.
    cycles: u64,
    seconds: f64,
    /// End-to-end latency `(p50, p95, p99)` in cycles, from the bounded
    /// histogram; `None` before the first delivery.
    latency: (Option<u64>, Option<u64>, Option<u64>),
    /// Kernel phase breakdown; `Some` only for a profiled run.
    phases: Option<PhaseProfile>,
}

impl Measured {
    /// Captures everything a workload reports: the differential
    /// fingerprint, the elapsed wall clock, the latency percentiles and
    /// (when profiling) the phase breakdown.
    fn capture(noc: &Noc, start: Instant) -> Self {
        let seconds = start.elapsed().as_secs_f64();
        let hist = noc.stats().latency_histogram();
        Self {
            fingerprint: noc.fingerprint(),
            cycles: noc.stats().cycles,
            seconds,
            latency: (hist.p50(), hist.p95(), hist.p99()),
            phases: noc.phase_profile(),
        }
    }
}

/// Builds the network of one run; `profiled` turns the phase profiler
/// on. Rates come only from unprofiled runs, since the profiler reads
/// the clock several times per cycle.
fn network(config: NocConfig, profiled: bool) -> Noc {
    let mut noc = Noc::new(config).expect("valid mesh");
    if profiled {
        noc.enable_phase_profiler();
    }
    noc
}

/// Sparse bursts on a 16×16 mesh: a handful of packets every few
/// thousand cycles, then silence — the regime where the reference
/// kernel scans 256 idle routers per cycle for nothing.
fn idle_heavy(kernel: KernelMode, cycles: u64, profiled: bool) -> Measured {
    let mut noc = network(NocConfig::mesh(16, 16).with_kernel_mode(kernel), profiled);
    let start = Instant::now();
    // Bursts land at 4k-cycle boundaries, so the driving is naturally
    // chunked: each burst is submitted, then the network runs to the
    // next boundary in one call (batched windows under every kernel but
    // the reference, which steps cycle by cycle).
    let mut now = 0;
    while now < cycles {
        if now % 4_000 == 0 {
            let k = now / 4_000;
            for j in 0..4u64 {
                let s = (k * 31 + j * 7) % 256;
                let d = (k * 17 + j * 13 + 5) % 256;
                if s == d {
                    continue;
                }
                let src = RouterAddr::new((s % 16) as u8, (s / 16) as u8);
                let dst = RouterAddr::new((d % 16) as u8, (d / 16) as u8);
                noc.send(src, Packet::new(dst, vec![j as u16; 3]))
                    .expect("send");
            }
        }
        let chunk = (4_000 - now % 4_000).min(cycles - now);
        noc.run(chunk);
        now += chunk;
    }
    Measured::capture(&noc, start)
}

/// Uniform random traffic at a high injection rate on an 8×8 mesh: the
/// regime where (almost) every router is busy and the active set buys
/// nothing — the overhead guard.
fn saturated(kernel: KernelMode, cycles: u64, profiled: bool) -> Measured {
    let mut noc = network(NocConfig::mesh(8, 8).with_kernel_mode(kernel), profiled);
    let mut gen = TrafficGen::new(Pattern::Uniform, 0.25, 4, SEED);
    let start = Instant::now();
    gen.drive(&mut noc, cycles, 1_000_000).expect("drive");
    Measured::capture(&noc, start)
}

/// Moderate traffic on an 8×8 fault-tolerant mesh with two permanent
/// dead links: online diagnosis, wedged-worm flushes, epoch wavefronts
/// and detoured routing all run under both kernels.
fn degraded(kernel: KernelMode, cycles: u64, profiled: bool) -> Measured {
    let config = NocConfig::mesh(8, 8)
        .with_kernel_mode(kernel)
        .with_routing(Routing::FaultTolerantXy);
    let mut noc = network(config, profiled);
    noc.set_fault_plan(
        FaultPlan::new(SEED)
            .with_link_down(
                RouterAddr::new(3, 3),
                Port::East,
                CycleWindow::open_ended(0),
            )
            .with_link_down(
                RouterAddr::new(5, 2),
                Port::North,
                CycleWindow::open_ended(0),
            ),
    )
    .expect("valid fault plan");
    let mut gen = TrafficGen::new(Pattern::Uniform, 0.05, 4, SEED ^ 0xD15EA5E);
    let start = Instant::now();
    gen.drive(&mut noc, cycles, 1_000_000).expect("drive");
    Measured::capture(&noc, start)
}

/// Uniform random traffic on a 32×32 sea-of-processors mesh (10-bit
/// flits so 32 rows and columns stay addressable): every row has work
/// almost every cycle — the regime the row-sharded parallel kernel is
/// built for.
fn sea_saturated(kernel: KernelMode, cycles: u64, profiled: bool) -> Measured {
    let config = NocConfig::mesh(32, 32)
        .with_flit_bits(10)
        .with_kernel_mode(kernel);
    let mut noc = network(config, profiled);
    let mut gen = TrafficGen::new(Pattern::Uniform, 0.2, 4, SEED ^ 0x5EA);
    let start = Instant::now();
    // Batched driving (16 cycles of traffic per boundary): the network
    // advances in window-sized runs, so the parallel kernel pays one
    // merge — and three barriers per cycle instead of four — per window.
    gen.drive_batched(&mut noc, cycles, 16, 1_000_000)
        .expect("drive");
    Measured::capture(&noc, start)
}

/// Thread counts the parallel sweep covers: powers of two up to the
/// host's available parallelism (capped at 8 — the row-shard counts the
/// mesh heights here can use), plus exactly one deliberately
/// oversubscribed point (flagged) so the cost of oversubscription stays
/// measured without polluting the scaling curve.
fn sweep_threads(host_cpus: usize) -> Vec<(usize, bool)> {
    let cap = host_cpus.clamp(1, 8);
    let mut threads: Vec<(usize, bool)> = Vec::new();
    let mut t = 1;
    while t <= cap {
        threads.push((t, false));
        t *= 2;
    }
    let over = (cap * 2).min(16);
    threads.push((over, true));
    threads
}

/// One parallel sweep point: rate plus the phase breakdown of a separate
/// profiled run.
struct SweepPoint {
    threads: usize,
    /// More worker threads than host CPUs: recorded for visibility, not
    /// part of the scaling curve.
    oversubscribed: bool,
    cps: f64,
    phases: Option<PhaseProfile>,
}

struct ParallelRow {
    name: &'static str,
    detail: String,
    cycles: u64,
    /// Sequential active-set kernel, the speedup baseline.
    active_cps: f64,
    per_threads: Vec<SweepPoint>,
}

/// Runs `run` under the sequential kernel and under the parallel kernel
/// at every sweep thread count — timed with the profiler off, then once
/// more profiled for the phase breakdown — asserting all fingerprints
/// identical before any rate is recorded.
fn sweep(
    name: &'static str,
    detail: String,
    cycles: u64,
    threads: &[(usize, bool)],
    run: impl Fn(KernelMode, u64, bool) -> Measured,
) -> ParallelRow {
    let active = run(KernelMode::Active, cycles, false);
    let per_threads = threads
        .iter()
        .map(|&(threads, oversubscribed)| {
            let parallel = run(KernelMode::Parallel { threads }, cycles, false);
            let profiled = run(KernelMode::Parallel { threads }, cycles, true);
            for outcome in [&parallel, &profiled] {
                assert_eq!(
                    active.fingerprint, outcome.fingerprint,
                    "{name}: parallel kernel at {threads} threads disagrees on the simulated outcome"
                );
            }
            SweepPoint {
                threads,
                oversubscribed,
                cps: parallel.cycles as f64 / parallel.seconds,
                phases: profiled.phases,
            }
        })
        .collect();
    ParallelRow {
        name,
        detail,
        cycles: active.cycles,
        active_cps: active.cycles as f64 / active.seconds,
        per_threads,
    }
}

/// One full host-driven MultiNoC run over a real-baud serial link with
/// lossy delivery: sync, activate P1 over the wire, run a small program
/// to halt. Nearly all cycles sit in baud-tick and retransmission-
/// backoff gaps — the system-level fast-forward's home turf.
fn multinoc_run(fast_forward: bool) -> (u64, f64) {
    let mut sys = System::builder()
        // Fault-tolerant routing so a drop-wedged worm is diagnosed and
        // flushed rather than hanging the mesh (plain Xy has no flush).
        .noc(NocConfig::multinoc().with_routing(Routing::FaultTolerantXy))
        .serial(SerialConfig::from_baud(25.0e6, 115_200.0))
        .serial_at(RouterAddr::new(0, 0))
        .processor_at(RouterAddr::new(0, 1))
        .processor_at(RouterAddr::new(1, 0))
        .memory_at(RouterAddr::new(1, 1))
        .build()
        .expect("paper layout");
    // Mild loss: enough to push the reliability layer through its
    // backoff timers (more idle-gap cycles to jump) without wedging a
    // worm badly enough for the progress watchdog to call DeadLink.
    sys.set_fault_plan(FaultPlan::new(SEED).with_drop_rate(0.08))
        .expect("valid fault plan");
    let program = assemble(
        "LIW R1, 40\n\
         loop: SUBI R1, 1\n\
         JMPZD done\n\
         JMPD loop\n\
         done: HALT",
    )
    .expect("assembles");
    sys.memory_mut(NodeId(1))
        .expect("p1 memory")
        .write_block(0, program.words());
    sys.link_mut().host_send(&[SYNC_BYTE]);
    sys.link_mut()
        .host_send(&HostCommand::Activate { node: 1 }.to_bytes());
    let budget = 10_000_000;
    let start = Instant::now();
    let elapsed = if fast_forward {
        sys.run_until_halted(budget).expect("halts")
    } else {
        // Identical exit condition, stepped one cycle at a time.
        let from = sys.cycle();
        loop {
            if sys.all_halted() && sys.noc().is_idle() && sys.link().is_idle() && sys.net_quiet() {
                break sys.cycle() - from;
            }
            assert!(sys.cycle() - from < budget, "budget exhausted");
            sys.step().expect("step");
        }
    };
    (elapsed, start.elapsed().as_secs_f64())
}

/// Long bounded-window run: many more packets than the window retains,
/// proving the statistics stay O(window), not O(packets).
fn bounded_stats(packets: u64) -> (u64, usize, u64, usize) {
    let window = 4_096;
    let mut noc = Noc::new(NocConfig::mesh(4, 4).with_stats_window(window)).expect("valid mesh");
    let mut gen = TrafficGen::new(Pattern::Uniform, 0.2, 2, SEED ^ 0xB0);
    while noc.stats().packets_sent < packets {
        gen.drive(&mut noc, 2_000, 1_000_000).expect("drive");
    }
    let s = noc.stats();
    (
        s.packets_sent,
        s.records().len(),
        s.evicted_records(),
        window,
    )
}

/// Peak resident set (VmHWM) in KiB from `/proc/self/status`; `None`
/// where the proc filesystem is unavailable.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

struct Row {
    name: &'static str,
    detail: String,
    cycles: u64,
    reference_cps: f64,
    active_cps: f64,
    /// End-to-end latency `(p50, p95, p99)` in cycles (identical across
    /// kernels — part of the simulated outcome).
    latency: (Option<u64>, Option<u64>, Option<u64>),
    rss_kib: Option<u64>,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.active_cps / self.reference_cps
    }
}

fn measure(
    name: &'static str,
    detail: String,
    cycles: u64,
    run: impl Fn(KernelMode, u64, bool) -> Measured,
) -> Row {
    let reference = run(KernelMode::Reference, cycles, false);
    let active = run(KernelMode::Active, cycles, false);
    assert_eq!(
        reference.fingerprint, active.fingerprint,
        "{name}: kernels disagree on the simulated outcome"
    );
    Row {
        name,
        detail,
        cycles: reference.cycles,
        reference_cps: reference.cycles as f64 / reference.seconds,
        active_cps: active.cycles as f64 / active.seconds,
        latency: active.latency,
        rss_kib: peak_rss_kib(),
    }
}

/// Renders an optional cycle count for a table cell.
fn opt_cycles(v: Option<u64>) -> String {
    v.map_or_else(|| "-".into(), |c| c.to_string())
}

/// Renders an optional cycle count as a JSON value.
fn opt_json(v: Option<u64>) -> String {
    v.map_or_else(|| "null".into(), |c| c.to_string())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = scale();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E20: simulation-kernel performance (seed {SEED:#x}, scale {scale}x)\n\
         cycles/second, host wall clock; every workload runs under both\n\
         kernels and must produce identical simulated observables\n"
    );

    let rows = vec![
        measure(
            "idle_heavy",
            "16x16 mesh, 4-packet burst every 4k cycles".into(),
            20_000 * scale,
            idle_heavy,
        ),
        measure(
            "saturated",
            "8x8 mesh, uniform traffic at 0.25 flits/node/cycle".into(),
            4_000 * scale,
            saturated,
        ),
        measure(
            "degraded",
            "8x8 fault-tolerant mesh, 2 permanent dead links".into(),
            4_000 * scale,
            degraded,
        ),
    ];

    let _ = writeln!(
        out,
        "  {:<12} {:>12} {:>15} {:>15} {:>9}",
        "workload", "cycles", "reference c/s", "active c/s", "speedup"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "  {:<12} {:>12} {:>15.0} {:>15.0} {:>8.1}x",
            r.name,
            r.cycles,
            r.reference_cps,
            r.active_cps,
            r.speedup()
        );
        let _ = writeln!(
            out,
            "               ({}; latency p50/p95/p99 {}/{}/{} cycles)",
            r.detail,
            opt_cycles(r.latency.0),
            opt_cycles(r.latency.1),
            opt_cycles(r.latency.2),
        );
    }

    // Parallel-kernel thread sweep: observations, not assertions — the
    // only hard requirement is bit-identical simulated outcomes, checked
    // inside `sweep` before any rate is recorded.
    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let threads = sweep_threads(host_cpus);
    let parallel_rows = vec![
        sweep(
            "idle_heavy_16x16",
            "16x16 mesh, 4-packet burst every 4k cycles".into(),
            20_000 * scale,
            &threads,
            idle_heavy,
        ),
        sweep(
            "sea_saturated_32x32",
            "32x32 mesh (10-bit flits), uniform traffic at 0.2 flits/node/cycle, \
             16-cycle batched windows"
                .into(),
            1_500 * scale,
            &threads,
            sea_saturated,
        ),
    ];

    // On a multi-core host the batched-window engine must not lose to
    // its own single-thread configuration on the saturated mesh — that
    // was the whole point of killing the per-cycle barriers. Smoke runs
    // are too short for a strict comparison, so they get a tolerance;
    // EXP_PERF_NO_SPEEDUP_CHECK=1 disables the gate entirely for
    // pathological hosts (heavily shared CI machines).
    if host_cpus >= 2 && std::env::var_os("EXP_PERF_NO_SPEEDUP_CHECK").is_none() {
        let sea = parallel_rows
            .iter()
            .find(|r| r.name == "sea_saturated_32x32")
            .expect("saturated sweep row exists");
        let rate = |t: usize| {
            sea.per_threads
                .iter()
                .find(|p| p.threads == t)
                .map(|p| p.cps)
        };
        if let (Some(r1), Some(r2)) = (rate(1), rate(2)) {
            let floor = if scale == 1 { 0.8 * r1 } else { r1 };
            assert!(
                r2 > floor,
                "saturated 32x32: threads=2 ({r2:.0} c/s) is not faster than \
                 threads=1 ({r1:.0} c/s) on a {host_cpus}-CPU host"
            );
        }
    }

    let _ = writeln!(
        out,
        "\n  parallel kernel thread sweep (host has {host_cpus} CPU(s);\n\
         sweep clamped to host parallelism, one oversubscribed point kept;\n\
         speedups are wall-clock observations on this host):"
    );
    for r in &parallel_rows {
        let _ = writeln!(
            out,
            "  {:<20} {:>12} cycles, active {:>12.0} c/s",
            r.name, r.cycles, r.active_cps
        );
        for p in &r.per_threads {
            let _ = writeln!(
                out,
                "    {} thread(s): {:>12.0} c/s ({:.2}x vs active){}",
                p.threads,
                p.cps,
                p.cps / r.active_cps,
                if p.oversubscribed {
                    " [oversubscribed]"
                } else {
                    ""
                },
            );
            if let Some(ph) = &p.phases {
                let total = ph.total_nanos().max(1) as f64;
                let _ = writeln!(
                    out,
                    "      phases: local {:.0}% decide {:.0}% apply-src {:.0}% \
                     apply-dst {:.0}% barrier {:.0}%",
                    100.0 * ph.local_nanos as f64 / total,
                    100.0 * ph.decide_nanos as f64 / total,
                    100.0 * ph.apply_src_nanos as f64 / total,
                    100.0 * ph.apply_dst_nanos as f64 / total,
                    100.0 * ph.barrier_nanos as f64 / total,
                );
            }
        }
        let _ = writeln!(out, "               ({})", r.detail);
    }

    // System-level idle fast-forward: same workload, stepped vs jumped.
    let runs = 4 * scale;
    let (mut ff_cycles, mut ff_secs) = (0u64, 0.0f64);
    let (mut st_cycles, mut st_secs) = (0u64, 0.0f64);
    for _ in 0..runs {
        let (c, s) = multinoc_run(true);
        ff_cycles += c;
        ff_secs += s;
        let (c2, s2) = multinoc_run(false);
        st_cycles += c2;
        st_secs += s2;
        assert_eq!(
            c, c2,
            "fast-forward and single-stepping disagree on elapsed cycles"
        );
    }
    let ff_cps = ff_cycles as f64 / ff_secs;
    let st_cps = st_cycles as f64 / st_secs;
    let _ = writeln!(
        out,
        "\n  multinoc idle fast-forward ({runs} host-driven runs over a\n\
         115200-baud link with 8% packet drops, {} cycles each):\n\
         stepped {st_cps:.0} c/s, fast-forwarded {ff_cps:.0} c/s \
         ({:.1}x)",
        ff_cycles / runs,
        ff_cps / st_cps
    );

    let (sent, retained, evicted, window) = bounded_stats(20_000 * scale);
    let _ = writeln!(
        out,
        "\n  bounded statistics: {sent} packets sent, {retained} records\n\
         retained (window {window}), {evicted} evicted into streaming\n\
         aggregates — per-packet memory is O(window), not O(traffic)"
    );
    let rss = peak_rss_kib();
    match rss {
        Some(kib) => {
            let _ = writeln!(out, "  peak RSS proxy (VmHWM): {kib} KiB");
        }
        None => {
            let _ = writeln!(out, "  peak RSS proxy unavailable (no /proc/self/status)");
        }
    }

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"experiment\": \"E20 simulation-kernel performance\","
    );
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"workloads\": [");
    for r in &rows {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"cycles\": {}, \"reference_cycles_per_sec\": {:.0}, \
             \"active_cycles_per_sec\": {:.0}, \"speedup\": {:.2}, \
             \"latency_p50\": {}, \"latency_p95\": {}, \"latency_p99\": {}, \
             \"peak_rss_kib\": {}}},",
            r.name,
            r.cycles,
            r.reference_cps,
            r.active_cps,
            r.speedup(),
            opt_json(r.latency.0),
            opt_json(r.latency.1),
            opt_json(r.latency.2),
            r.rss_kib.map_or("null".into(), |k| k.to_string()),
        );
    }
    let _ = writeln!(
        json,
        "    {{\"name\": \"multinoc_idle\", \"cycles\": {ff_cycles}, \
         \"reference_cycles_per_sec\": {st_cps:.0}, \
         \"active_cycles_per_sec\": {ff_cps:.0}, \"speedup\": {:.2}, \
         \"peak_rss_kib\": {}}}",
        ff_cps / st_cps,
        rss.map_or("null".into(), |k| k.to_string()),
    );
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"bounded_stats\": {{\"packets_sent\": {sent}, \"records_retained\": {retained}, \
         \"records_evicted\": {evicted}, \"stats_window\": {window}}},"
    );
    let _ = writeln!(
        json,
        "  \"peak_rss_kib\": {}",
        rss.map_or("null".into(), |k| k.to_string())
    );
    json.push_str("}\n");

    std::fs::write("BENCH_perf.json", &json)?;

    let mut pjson = String::from("{\n");
    let _ = writeln!(
        pjson,
        "  \"experiment\": \"E20 parallel-kernel thread sweep\","
    );
    let _ = writeln!(pjson, "  \"seed\": {SEED},");
    let _ = writeln!(pjson, "  \"scale\": {scale},");
    let _ = writeln!(pjson, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(pjson, "  \"sweep_clamped_to_host\": true,");
    let _ = writeln!(
        pjson,
        "  \"note\": \"all kernels asserted bit-identical before any rate; \
         thread counts clamped to host parallelism (one oversubscribed point \
         kept, flagged); speedups are wall-clock observations of this host, \
         not assertions\","
    );
    let _ = writeln!(pjson, "  \"workloads\": [");
    for (i, r) in parallel_rows.iter().enumerate() {
        let _ = writeln!(
            pjson,
            "    {{\"name\": \"{}\", \"cycles\": {}, \"active_cycles_per_sec\": {:.0},",
            r.name, r.cycles, r.active_cps
        );
        let _ = writeln!(pjson, "     \"threads\": [");
        for (j, p) in r.per_threads.iter().enumerate() {
            let phases = p.phases.as_ref().map_or("null".to_string(), |ph| {
                format!(
                    "{{\"local_nanos\": {}, \"decide_nanos\": {}, \
                     \"apply_src_nanos\": {}, \"apply_dst_nanos\": {}, \
                     \"barrier_nanos\": {}, \"barrier_fraction\": {:.4}}}",
                    ph.local_nanos,
                    ph.decide_nanos,
                    ph.apply_src_nanos,
                    ph.apply_dst_nanos,
                    ph.barrier_nanos,
                    ph.barrier_fraction(),
                )
            });
            let _ = writeln!(
                pjson,
                "       {{\"threads\": {}, \"oversubscribed\": {}, \
                 \"cycles_per_sec\": {:.0}, \
                 \"speedup_vs_active\": {:.3}, \"phases\": {phases}}}{}",
                p.threads,
                p.oversubscribed,
                p.cps,
                p.cps / r.active_cps,
                if j + 1 < r.per_threads.len() { "," } else { "" },
            );
        }
        let _ = writeln!(
            pjson,
            "     ]}}{}",
            if i + 1 < parallel_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(pjson, "  ]");
    pjson.push_str("}\n");
    std::fs::write("BENCH_parallel.json", &pjson)?;

    print!("{out}");
    println!("\nMachine-readable summaries written to BENCH_perf.json and BENCH_parallel.json");
    Ok(())
}

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
//! count in `BENCH_parallel.json`) — a single-core CI runner
//! legitimately reports ≤1×. The one speed assertion is the 2-thread
//! gate on hosts with at least 2 CPUs: on the saturated 32×32 mesh the
//! median of three 2-thread runs must beat the median of three
//! alternating 1-thread runs (0.8× of it under `--smoke`, whose runs
//! are too short for a strict comparison). Every rate comes from a run with the
//! phase profiler off; each sweep point's phase breakdown comes from a
//! separate profiled run of the same workload.

use std::time::Instant;

use hermes_noc::traffic::{Pattern, TrafficGen};
use hermes_noc::{
    CycleWindow, FaultPlan, KernelMode, Noc, NocConfig, Packet, PhaseProfile, Port, RouterAddr,
    Routing,
};
use multinoc::serial::{HostCommand, SerialConfig, SYNC_BYTE};
use multinoc::{NodeId, System};
use multinoc_bench::json::{Doc, Fixed};
use multinoc_bench::obj;
use multinoc_bench::suite::Runs;
use r8::asm::assemble;

use crate::Outcome;

/// Seed shared by every workload.
const SEED: u64 = 0xE20_BEEF;

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

    /// Simulated cycles per host second.
    fn cps(&self) -> f64 {
        self.cycles as f64 / self.seconds
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

/// Times `run` under the reference and the active-set kernel once they
/// agree on the simulated outcome; prints the table row and returns the
/// workload's `BENCH_perf.json` entry.
fn measure(
    runs: &mut Runs,
    name: &'static str,
    detail: &str,
    cycles: u64,
    run: impl Fn(KernelMode, u64, bool) -> Measured,
) -> Doc {
    let mut rates = Vec::new();
    let kernels = [KernelMode::Reference, KernelMode::Active];
    let (cycles, (p50, p95, p99)) = runs.agree(name, &kernels, |kernel| {
        let m = run(kernel, cycles, false);
        rates.push(m.cps());
        (m.fingerprint, (m.cycles, m.latency))
    });
    let (reference, active) = (rates[0], rates[1]);
    let cell = |v: Option<u64>| v.map_or_else(|| "-".into(), |c| c.to_string());
    println!(
        "  {name:<12} {cycles:>12} {reference:>15.0} {active:>15.0} {:>8.1}x\n               \
         ({detail}; latency p50/p95/p99 {}/{}/{} cycles)",
        active / reference,
        cell(p50),
        cell(p95),
        cell(p99),
    );
    obj! {
        "name": name,
        "cycles": cycles,
        "reference_cycles_per_sec": Fixed(reference, 0),
        "active_cycles_per_sec": Fixed(active, 0),
        "speedup": Fixed(active / reference, 2),
        "latency_p50": p50,
        "latency_p95": p95,
        "latency_p99": p99,
        "peak_rss_kib": peak_rss_kib(),
    }
}

/// Runs `run` under the sequential kernel and under the parallel kernel
/// at every sweep thread count — timed with the profiler off, then once
/// more profiled for the phase breakdown — asserting all fingerprints
/// identical before any rate is recorded; the host-dependent thread list
/// adds one agreed entry to the digest. Prints the sweep and returns the
/// agreed fingerprint with the sweep's `BENCH_parallel.json` row.
fn sweep(
    runs: &mut Runs,
    name: &'static str,
    detail: &str,
    cycles: u64,
    threads: &[(usize, bool)],
    run: impl Fn(KernelMode, u64, bool) -> Measured,
) -> (u64, Doc) {
    let mut variants = vec![(KernelMode::Active, false)];
    for &(threads, _) in threads {
        variants.push((KernelMode::Parallel { threads }, false));
        variants.push((KernelMode::Parallel { threads }, true));
    }
    let (mut rates, mut phases) = (Vec::new(), Vec::new());
    let (fingerprint, cycles) = runs.agree(name, &variants, |(kernel, profiled)| {
        let m = run(kernel, cycles, profiled);
        if profiled {
            phases.push(m.phases);
        } else {
            rates.push(m.cps());
        }
        (m.fingerprint, (m.fingerprint, m.cycles))
    });
    let active = rates[0];
    println!("  {name:<20} {cycles:>12} cycles, active {active:>12.0} c/s");
    let mut points = Vec::new();
    for ((&(threads, oversubscribed), &cps), phases) in threads.iter().zip(&rates[1..]).zip(phases)
    {
        let flag = if oversubscribed {
            " [oversubscribed]"
        } else {
            ""
        };
        println!(
            "    {threads} thread(s): {cps:>12.0} c/s ({:.2}x vs active){flag}",
            cps / active
        );
        if let Some(ph) = &phases {
            let share = |nanos: u64| 100.0 * nanos as f64 / ph.total_nanos().max(1) as f64;
            println!(
                "      phases: local {:.0}% decide {:.0}% apply-src {:.0}% \
                 apply-dst {:.0}% barrier {:.0}%",
                share(ph.local_nanos),
                share(ph.decide_nanos),
                share(ph.apply_src_nanos),
                share(ph.apply_dst_nanos),
                share(ph.barrier_nanos),
            );
        }
        points.push(obj! {
            "threads": threads,
            "oversubscribed": oversubscribed,
            "cycles_per_sec": Fixed(cps, 0),
            "speedup_vs_active": Fixed(cps / active, 3),
            "phases": phases.map(|ph| obj! {
                "local_nanos": ph.local_nanos,
                "decide_nanos": ph.decide_nanos,
                "apply_src_nanos": ph.apply_src_nanos,
                "apply_dst_nanos": ph.apply_dst_nanos,
                "barrier_nanos": ph.barrier_nanos,
                "barrier_fraction": Fixed(ph.barrier_fraction(), 4),
            }),
        });
    }
    println!("               ({detail})");
    let row = obj! {
        "name": name,
        "cycles": cycles,
        "active_cycles_per_sec": Fixed(active, 0),
        "threads": points,
    };
    (fingerprint, row)
}

/// The 2-thread gate's two sides on the saturated 32×32 mesh: the median
/// rate of three timed runs each at 1 and 2 threads, alternating so a
/// slow spell of the host hits both sides alike. Every run must reach
/// the sweep's `fingerprint`; the gate runs only on hosts with 2+ CPUs,
/// so its runs stay out of the digest.
fn gate_rates(cycles: u64, fingerprint: u64) -> (f64, f64) {
    let mut rates = [Vec::new(), Vec::new()];
    for threads in [1, 2, 1, 2, 1, 2] {
        let m = sea_saturated(KernelMode::Parallel { threads }, cycles, false);
        assert_eq!(
            m.fingerprint, fingerprint,
            "saturated 32x32: the {threads}-thread gate run disagrees with the sweep"
        );
        rates[threads - 1].push(m.cps());
    }
    let [one, two] = rates.map(|mut r| {
        r.sort_by(f64::total_cmp);
        r[1]
    });
    (one, two)
}

/// One full host-driven MultiNoC run over a real-baud serial link with
/// lossy delivery: sync, activate P1 over the wire, run a small program
/// to halt. Nearly all cycles sit in baud-tick and retransmission-
/// backoff gaps — the system-level fast-forward's home turf. Returns the
/// network's fingerprint, the elapsed cycles and the host seconds: only
/// `run_until_halted` polls the progress watchdog, so a fast-forwarded
/// and a stepped run's `System::fingerprint`s differ in its window and
/// nowhere else.
fn multinoc_run(fast_forward: bool) -> (u64, u64, f64) {
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
            if sys.halted_and_drained() {
                break sys.cycle() - from;
            }
            assert!(sys.cycle() - from < budget, "budget exhausted");
            sys.step().expect("step");
        }
    };
    let seconds = start.elapsed().as_secs_f64();
    (sys.noc().fingerprint(), elapsed, seconds)
}

/// Long bounded-window run: many more packets than the window retains,
/// proving the statistics stay O(window), not O(packets).
fn bounded_stats(runs: &mut Runs, packets: u64) -> (u64, usize, u64, usize) {
    let window = 4_096;
    let mut noc = Noc::new(NocConfig::mesh(4, 4).with_stats_window(window)).expect("valid mesh");
    let mut gen = TrafficGen::new(Pattern::Uniform, 0.2, 2, SEED ^ 0xB0);
    while noc.stats().packets_sent < packets {
        gen.drive(&mut noc, 2_000, 1_000_000).expect("drive");
    }
    runs.record(noc.fingerprint());
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

pub fn run(runs: &mut Runs) -> Outcome {
    let scale = if runs.smoke { 1 } else { 10 };
    println!(
        "E20: simulation-kernel performance (seed {SEED:#x}, scale {scale}x)\n\
         cycles/second, host wall clock; every workload runs under both\n\
         kernels and must produce identical simulated observables\n"
    );
    println!(
        "  {:<12} {:>12} {:>15} {:>15} {:>9}",
        "workload", "cycles", "reference c/s", "active c/s", "speedup"
    );
    let mut workloads = vec![
        measure(
            runs,
            "idle_heavy",
            "16x16 mesh, 4-packet burst every 4k cycles",
            20_000 * scale,
            idle_heavy,
        ),
        measure(
            runs,
            "saturated",
            "8x8 mesh, uniform traffic at 0.25 flits/node/cycle",
            4_000 * scale,
            saturated,
        ),
        measure(
            runs,
            "degraded",
            "8x8 fault-tolerant mesh, 2 permanent dead links",
            4_000 * scale,
            degraded,
        ),
    ];

    // Parallel-kernel thread sweep: observations — the hard requirement
    // is bit-identical simulated outcomes, checked inside `sweep` before
    // any rate is recorded.
    let host_cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let threads = sweep_threads(host_cpus);
    println!(
        "\n  parallel kernel thread sweep (host has {host_cpus} CPU(s);\n\
         sweep clamped to host parallelism, one oversubscribed point kept;\n\
         speedups are wall-clock observations on this host):"
    );
    let (_, idle_row) = sweep(
        runs,
        "idle_heavy_16x16",
        "16x16 mesh, 4-packet burst every 4k cycles",
        20_000 * scale,
        &threads,
        idle_heavy,
    );
    let (sea_fingerprint, sea_row) = sweep(
        runs,
        "sea_saturated_32x32",
        "32x32 mesh (10-bit flits), uniform traffic at 0.2 flits/node/cycle, \
         16-cycle batched windows",
        1_500 * scale,
        &threads,
        sea_saturated,
    );

    // On a multi-core host the batched-window engine must not lose to
    // its own single-thread configuration on the saturated mesh — that
    // was the whole point of killing the per-cycle barriers. Smoke runs
    // are too short for a strict comparison, so they get a tolerance.
    if host_cpus >= 2 {
        let (r1, r2) = gate_rates(1_500 * scale, sea_fingerprint);
        let floor = if runs.smoke { 0.8 } else { 1.0 };
        println!(
            "\n  2-thread gate (saturated 32x32, medians of 3 alternating runs):\n\
             threads=1 {r1:.0} c/s, threads=2 {r2:.0} c/s ({:.2}x, floor {floor:.1}x)",
            r2 / r1
        );
        assert!(
            r2 > floor * r1,
            "saturated 32x32: threads=2 ({r2:.0} c/s) is not faster than {floor:.1}x \
             threads=1 ({r1:.0} c/s) on a {host_cpus}-CPU host"
        );
    }

    // System-level idle fast-forward: same workload, stepped vs jumped.
    let repeats = 4 * scale;
    let (mut cycles, mut seconds) = (0u64, [0.0f64; 2]);
    for _ in 0..repeats {
        cycles += runs.agree("fast-forward vs stepping", &[true, false], |ff| {
            let (fingerprint, cycles, secs) = multinoc_run(ff);
            seconds[usize::from(ff)] += secs;
            (fingerprint, cycles)
        });
    }
    let [stepped, jumped] = seconds.map(|secs| cycles as f64 / secs);
    println!(
        "\n  multinoc idle fast-forward ({repeats} host-driven runs over a\n\
         115200-baud link with 8% packet drops, {} cycles each):\n\
         stepped {stepped:.0} c/s, fast-forwarded {jumped:.0} c/s ({:.1}x)",
        cycles / repeats,
        jumped / stepped
    );

    let (sent, retained, evicted, window) = bounded_stats(runs, 20_000 * scale);
    println!(
        "\n  bounded statistics: {sent} packets sent, {retained} records\n\
         retained (window {window}), {evicted} evicted into streaming\n\
         aggregates — per-packet memory is O(window), not O(traffic)"
    );
    let rss = peak_rss_kib();
    match rss {
        Some(kib) => println!("  peak RSS proxy (VmHWM): {kib} KiB"),
        None => println!("  peak RSS proxy unavailable (no /proc/self/status)"),
    }

    workloads.push(obj! {
        "name": "multinoc_idle",
        "cycles": cycles,
        "reference_cycles_per_sec": Fixed(stepped, 0),
        "active_cycles_per_sec": Fixed(jumped, 0),
        "speedup": Fixed(jumped / stepped, 2),
        "peak_rss_kib": rss,
    });
    let json = obj! {
        "experiment": "E20 simulation-kernel performance",
        "seed": SEED,
        "scale": scale,
        "workloads": workloads,
        "bounded_stats": obj! {
            "packets_sent": sent,
            "records_retained": retained,
            "records_evicted": evicted,
            "stats_window": window,
        },
        "peak_rss_kib": rss,
    };
    std::fs::write("BENCH_perf.json", json.render())?;
    let json = obj! {
        "experiment": "E20 parallel-kernel thread sweep",
        "seed": SEED,
        "scale": scale,
        "host_cpus": host_cpus,
        "sweep_clamped_to_host": true,
        "note": "all kernels asserted bit-identical before any rate; thread counts clamped \
                 to host parallelism (one oversubscribed point kept, flagged); speedups are \
                 wall-clock observations of this host, not assertions",
        "workloads": vec![idle_row, sea_row],
    };
    std::fs::write("BENCH_parallel.json", json.render())?;
    println!("\nMachine-readable summaries written to BENCH_perf.json and BENCH_parallel.json");
    Ok(())
}

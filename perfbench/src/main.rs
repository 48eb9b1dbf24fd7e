//! perfbench — end-to-end and per-layer benchmark of the MultiNoC
//! simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sea12|edge_host|mem_hotspot|noc_sat32> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload, one simulation at a time (a closed
//! loop): set up, run the timed region, check every output against a
//! host-side reference, time one pass of the calibration kernel, repeat
//! until `--seconds` have passed, and report order statistics over the
//! simulations (see [`best_rate`] and [`FAST_TAIL`]). With
//! `--trace 0` it prints the end-to-end metrics; with
//! `--trace 1` it alternates untraced and traced simulations and prints
//! the per-layer metrics, read from outside the simulator through its
//! public API (phase profiler, statistics and counters). The last line
//! of standard output is one JSON object; the lines before it are `#`
//! comments for people.

mod calibrate;
mod stats;
mod workloads;

#[cfg(test)]
mod selftest;

use std::time::{Duration, Instant};

use hermes_noc::PhaseProfile;
use workloads::{Counts, Results, SpanLatencies, Workload};

/// A metric's name and unit.
type Spec = (&'static str, &'static str);
/// A metric's name and measured value.
type Metric = (&'static str, f64);

/// End-to-end metrics (`--trace 0`).
const END_TO_END: [Spec; 5] = [
    ("sim_cycles_per_s", "1/s"),
    ("makespan_cycles", "cycles"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("verified_ops_frac", "ratio"),
];

/// Per-layer metrics (`--trace 1`). Layers are named after the
/// simulator's modules; a layer a workload does not exercise reads 0.
const PER_LAYER: [Spec; 30] = [
    ("sim_instr_per_s", "1/s"),
    ("r8.instructions", "count"),
    ("r8.ns_per_instr", "ns"),
    ("processor.running_frac", "ratio"),
    ("processor.blocked_frac", "ratio"),
    ("system.stepped_frac", "ratio"),
    ("system.ns_per_cycle_outside_noc", "ns"),
    ("reliable.sent", "count"),
    ("reliable.retransmissions", "count"),
    ("reliable.acked", "count"),
    ("reliable.useful_frac", "ratio"),
    ("service.read_requests", "count"),
    ("service.write_requests", "count"),
    ("service.read_latency_p50_cycles", "cycles"),
    ("service.read_latency_p99_cycles", "cycles"),
    ("service.write_latency_p50_cycles", "cycles"),
    ("service.write_latency_p99_cycles", "cycles"),
    ("hermes.local_ns_per_cycle", "ns"),
    ("hermes.decide_ns_per_cycle", "ns"),
    ("hermes.apply_ns_per_cycle", "ns"),
    ("hermes.mailbox_ns_per_cycle", "ns"),
    ("hermes.barrier_ns_per_cycle", "ns"),
    ("hermes.barrier_frac", "ratio"),
    ("hermes.ns_per_router_cycle", "ns"),
    ("hermes.packets_delivered", "count"),
    ("hermes.flit_hops", "count"),
    ("hermes.latency_p50_cycles", "cycles"),
    ("hermes.latency_p99_cycles", "cycles"),
    ("hermes.peak_link_util", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// `setup_s` reports this quantile of its per-simulation samples, the
/// fast tail. Other tenants of a shared host can only slow a set-up,
/// never speed it up, so the fast tail tracks the simulator's own cost.
const FAST_TAIL: f64 = 0.1;

/// Timed simulations a run makes at least, however long they take.
const MIN_ITERATIONS: usize = 5;

/// Host time spent timing the workload's program on a bare R8 core.
const R8_PROBE: Duration = Duration::from_millis(200);

const USAGE: &str =
    "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10,
            trace: false,
        };
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
            };
            match flag.as_str() {
                "--workload" => parsed.workload = value.clone(),
                "--seed" => parsed.seed = number()?,
                "--seconds" => parsed.seconds = number()?,
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    }
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        if parsed.workload.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(parsed)
    }
}

/// One simulation: set-up, timed region and verification.
#[derive(Debug, Clone)]
struct Iteration {
    setup_s: f64,
    wall_s: f64,
    makespan: u64,
    attempted: u64,
    failed: u64,
    counts: Counts,
    traced: Option<Traced>,
}

/// What a traced simulation's observers reported.
#[derive(Debug, Clone)]
struct Traced {
    profile: PhaseProfile,
    noc_threads: usize,
    routers: u64,
    latency_p50: u64,
    latency_p99: u64,
    peak_link_util: f64,
    spans: SpanLatencies,
}

fn run_once(workload: &Workload, expected: &Results, traced: bool) -> Iteration {
    let t = Instant::now();
    let sim = workload.setup();
    let setup_s = t.elapsed().as_secs_f64();
    let mut iteration = Iteration {
        setup_s,
        wall_s: 0.0,
        makespan: 0,
        attempted: expected.ops(),
        failed: expected.ops(),
        counts: Counts::default(),
        traced: None,
    };
    let mut sim = match sim {
        Ok(sim) => sim,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return iteration;
        }
    };
    if traced {
        sim.enable_tracing();
    }
    let (start, before) = (sim.cycle(), sim.counts());
    let t = Instant::now();
    let driven = workload.drive(&mut sim);
    iteration.wall_s = t.elapsed().as_secs_f64();
    iteration.makespan = sim.cycle() - start;
    iteration.counts = sim.counts().since(before);
    match driven {
        Ok(()) => (iteration.attempted, iteration.failed) = workload.output(&sim).check(expected),
        Err(e) => eprintln!("perfbench: simulation failed: {e}"),
    }
    if traced {
        let (latency_p50, latency_p99, peak_link_util) = sim.noc_latency_and_peak();
        iteration.traced = Some(Traced {
            profile: sim.phase_profile().unwrap_or_default(),
            noc_threads: sim.noc_threads(),
            routers: sim.routers(),
            latency_p50,
            latency_p99,
            peak_link_util,
            spans: sim.span_latencies(),
        });
    }
    iteration
}

/// Median over `iterations` of `f`.
fn median_of(iterations: &[Iteration], f: impl Fn(&Iteration) -> f64) -> f64 {
    stats::median(&mut iterations.iter().map(f).collect::<Vec<_>>())
}

/// Quantile `q` over `iterations` of `f`.
fn quantile_of(iterations: &[Iteration], q: f64, f: impl Fn(&Iteration) -> f64) -> f64 {
    stats::quantile(&mut iterations.iter().map(f).collect::<Vec<_>>(), q)
}

/// Simulated cycles per host second of one simulation.
fn cycle_rate(i: &Iteration) -> f64 {
    ratio(i.makespan as f64, i.wall_s)
}

/// The fastest simulation's `rate`, scaled to the reference host by the
/// calibration kernel's `slowdown` (see [`calibrate`]). Other tenants of
/// a shared host can only slow a simulation, never speed it up, so the
/// fastest one tracks the simulator's own cost. On a 2-vCPU Xeon VM whose
/// per-simulation rates ranged 2× within a run, four 20-second runs of
/// `edge_host` spread 6.1% (range over median) in the raw fastest rate
/// and 2.6% once scaled; the 90th percentile of the raw rate spread 13%
/// on `sea12` where its scaled fastest rate spread 2%.
fn best_rate(iterations: &[Iteration], slowdown: f64, rate: impl Fn(&Iteration) -> f64) -> f64 {
    quantile_of(iterations, 1.0, rate) * slowdown
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Operations attempted and failed over every simulation of a run.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, iteration: &Iteration) {
        self.attempted += iteration.attempted;
        self.failed += iteration.failed;
    }

    fn verified_frac(self) -> f64 {
        1.0 - ratio(self.failed as f64, self.attempted as f64)
    }
}

fn end_to_end(plain: &[Iteration], tally: Tally, peak_rss_kib: u64, slowdown: f64) -> Vec<Metric> {
    vec![
        ("sim_cycles_per_s", best_rate(plain, slowdown, cycle_rate)),
        ("makespan_cycles", median_of(plain, |i| i.makespan as f64)),
        ("setup_s", quantile_of(plain, FAST_TAIL, |i| i.setup_s)),
        ("peak_rss_mib", peak_rss_kib as f64 / 1024.0),
        ("verified_ops_frac", tally.verified_frac()),
    ]
}

fn per_layer(
    plain: &[Iteration],
    traced: &[(Iteration, Traced)],
    r8_ns_per_instr: f64,
    slowdown: f64,
) -> Vec<Metric> {
    // Counts are exact and repeat in every simulation of a seed, so the
    // last traced simulation stands for all; host times are medians.
    let (last, obs) = traced
        .last()
        .expect("a traced run makes at least one simulation");
    let c = &last.counts;
    let per_cycle = |f: fn(&PhaseProfile) -> u64| {
        let mut v: Vec<f64> = traced
            .iter()
            .map(|(_, t)| ratio(f(&t.profile) as f64, t.profile.cycles as f64))
            .collect();
        stats::median(&mut v)
    };
    // Wall time inside the profiled NoC phases: the shards' summed
    // phase time spread over the threads that ran them.
    let noc_wall_ns = |t: &Traced| t.profile.total_nanos() as f64 / t.noc_threads as f64;
    let traced_median = |f: &dyn Fn(&Iteration, &Traced) -> f64| {
        let mut v: Vec<f64> = traced.iter().map(|(i, t)| f(i, t)).collect();
        stats::median(&mut v)
    };
    let spans = obs.spans.clone();
    let (mut reads, mut writes) = (spans.reads, spans.writes);
    vec![
        (
            "sim_instr_per_s",
            best_rate(plain, slowdown, |i| {
                ratio(i.counts.instructions as f64, i.wall_s)
            }),
        ),
        ("r8.instructions", c.instructions as f64),
        ("r8.ns_per_instr", r8_ns_per_instr),
        (
            "processor.running_frac",
            ratio(c.running as f64, c.sampled as f64),
        ),
        (
            "processor.blocked_frac",
            ratio(c.blocked as f64, c.sampled as f64),
        ),
        (
            "system.stepped_frac",
            ratio(obs.profile.cycles as f64, last.makespan as f64),
        ),
        (
            "system.ns_per_cycle_outside_noc",
            traced_median(&|i, t| ratio(i.wall_s * 1e9 - noc_wall_ns(t), t.profile.cycles as f64)),
        ),
        ("reliable.sent", c.sent as f64),
        ("reliable.retransmissions", c.retransmissions as f64),
        ("reliable.acked", c.acked as f64),
        (
            "reliable.useful_frac",
            ratio(c.acked as f64, (c.sent + c.retransmissions) as f64),
        ),
        ("service.read_requests", c.read_requests as f64),
        ("service.write_requests", c.write_requests as f64),
        (
            "service.read_latency_p50_cycles",
            stats::quantile(&mut reads, 0.5) as f64,
        ),
        (
            "service.read_latency_p99_cycles",
            stats::quantile(&mut reads, 0.99) as f64,
        ),
        (
            "service.write_latency_p50_cycles",
            stats::quantile(&mut writes, 0.5) as f64,
        ),
        (
            "service.write_latency_p99_cycles",
            stats::quantile(&mut writes, 0.99) as f64,
        ),
        ("hermes.local_ns_per_cycle", per_cycle(|p| p.local_nanos)),
        ("hermes.decide_ns_per_cycle", per_cycle(|p| p.decide_nanos)),
        (
            "hermes.apply_ns_per_cycle",
            per_cycle(|p| p.apply_src_nanos),
        ),
        // The profiler's `apply_dst` bucket now times mailbox drains.
        (
            "hermes.mailbox_ns_per_cycle",
            per_cycle(|p| p.apply_dst_nanos),
        ),
        (
            "hermes.barrier_ns_per_cycle",
            per_cycle(|p| p.barrier_nanos),
        ),
        (
            "hermes.barrier_frac",
            traced_median(&|_, t| t.profile.barrier_fraction()),
        ),
        (
            "hermes.ns_per_router_cycle",
            traced_median(&|_, t| ratio(noc_wall_ns(t), (t.profile.cycles * t.routers) as f64)),
        ),
        ("hermes.packets_delivered", c.packets_delivered as f64),
        ("hermes.flit_hops", c.flit_hops as f64),
        ("hermes.latency_p50_cycles", obs.latency_p50 as f64),
        ("hermes.latency_p99_cycles", obs.latency_p99 as f64),
        ("hermes.peak_link_util", obs.peak_link_util),
        (
            "trace.overhead_frac",
            ratio(
                traced_median(&|i, _| i.wall_s),
                median_of(plain, |i| i.wall_s),
            ) - 1.0,
        ),
    ]
}

/// Peak resident set (VmHWM) of this process in KiB, 0 where
/// `/proc/self/status` is unavailable.
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// The commit checked out in the working directory, read from `.git`
/// without looking above it; "unknown" outside a git checkout.
fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The unit `table` gives metric `name`.
fn unit_of(table: &[Spec], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| *u)
}

/// The result line: one JSON object with every metric and its unit.
fn result_json(tally: Tally, metrics: &[Metric], table: &[Spec]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let unit = unit_of(table, name);
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(workload) = Workload::new(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?}; choose one of {}",
            args.workload,
            workloads::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    // The reference run (a whole simulation on noc_sat32) gets a thread
    // of its own, so its allocations stay out of the main thread's heap:
    // otherwise whether later set-ups reuse memory or fault in fresh
    // pages depends on the seed, and setup_s jumps between two levels.
    let expected = std::thread::scope(|s| {
        s.spawn(|| workload.expected())
            .join()
            .unwrap_or_else(|_| Err("the reference run panicked".into()))
    });
    let expected = match expected {
        Ok(expected) => expected,
        Err(e) => {
            eprintln!("perfbench: reference run failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} host_cpus={} noc_threads={} \
         noc_reference_threads={} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workloads::host_cpus(),
        workloads::NOC_THREADS,
        workloads::reference_threads(),
        git_commit()
    );

    let mut tally = Tally::default();
    // Warm-up: verified like every simulation, but not timed.
    tally.add(&run_once(&workload, &expected, args.trace));
    // Peak memory of set-up plus one simulation (and, on noc_sat32, the
    // one-thread reference run). Read before the timed loop: repeated
    // simulations on fresh worker threads let the allocator's footprint
    // drift upwards by a seed-independent, timing-dependent amount.
    let peak_rss = peak_rss_kib();
    let mut calibrator = calibrate::Calibrator::default();
    // Reserved up front so that no allocation made between simulations
    // outlives one: every set-up then meets the same allocator state.
    let (mut plain, mut traced) = (Vec::with_capacity(4096), Vec::with_capacity(4096));
    let started = Instant::now();
    while plain.len() < MIN_ITERATIONS || started.elapsed() < Duration::from_secs(args.seconds) {
        let iteration = run_once(&workload, &expected, false);
        tally.add(&iteration);
        plain.push(iteration);
        calibrator.sample();
        if args.trace {
            let mut iteration = run_once(&workload, &expected, true);
            tally.add(&iteration);
            let observed = iteration.traced.take().expect("traced simulation");
            traced.push((iteration, observed));
        }
    }

    let slowdown = calibrator.slowdown();
    let (metrics, table): (Vec<Metric>, &[Spec]) = if args.trace {
        let r8 = match workload.r8_ns_per_instr(R8_PROBE) {
            Ok(ns) => ns.unwrap_or(0.0),
            Err(e) => {
                eprintln!("perfbench: bare-core run failed: {e}");
                tally.failed += 1;
                tally.attempted += 1;
                0.0
            }
        };
        (per_layer(&plain, &traced, r8, slowdown), &PER_LAYER)
    } else {
        (end_to_end(&plain, tally, peak_rss, slowdown), &END_TO_END)
    };
    println!(
        "# {} simulations timed, {} operations, {} failed",
        plain.len() + traced.len(),
        tally.attempted,
        tally.failed
    );
    let at = |q: f64| quantile_of(&plain, q, cycle_rate);
    println!(
        "# raw simulated cycles per host second over untraced simulations: min {:.0} \
         q1 {:.0} median {:.0} q3 {:.0} max {:.0}; calibration slowdown {:.4} \
         (fastest pass {:.0} ns, reference {:.0} ns)",
        at(0.0),
        at(0.25),
        at(0.5),
        at(0.75),
        at(1.0),
        slowdown,
        slowdown * calibrate::REFERENCE_NS,
        calibrate::REFERENCE_NS
    );
    for (name, value) in &metrics {
        println!("# {name:<34} {value:>16.4} {}", unit_of(table, name));
    }
    println!("{}", result_json(tally, &metrics, table));
}

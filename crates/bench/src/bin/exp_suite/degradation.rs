//! E19 (extension) — graceful degradation: delivered-operation rate and
//! latency overhead of host write/read round trips as permanent link
//! failures accumulate on 2×2..4×4 meshes under `FaultTolerantXy`.
//!
//! Each configuration kills a deterministic pseudo-random set of mesh
//! edges (both directions, permanently, from cycle 0). The network's
//! online diagnosis has to notice each dead link from failed hop
//! handshakes, flush the wedged wormhole, bump the reconfiguration
//! epoch and detour later traffic — while the reliability layer resets
//! its retry clocks on the epoch change instead of burning retries.
//! Failure sets that would partition the mesh are rejected up front
//! (they are the `Unreachable` regime, not the degraded one); on the
//! 2×2 mesh every 2-edge removal partitions, which the report states
//! rather than hides.
//!
//! Everything is seeded, and the runner pins the fingerprint of every
//! trial's system. The machine-readable summary lands in
//! `BENCH_degradation.json`.

use hermes_noc::{
    CycleWindow, FaultPlan, NocConfig, Port, RouteTable, RouterAddr, Routing, Topology,
};
use multinoc::{host::Host, NodeId, System, SystemError};
use multinoc_bench::json::Fixed;
use multinoc_bench::obj;
use multinoc_bench::suite::Runs;
use prng::Xorshift64;

use crate::Outcome;

/// Seed shared by every configuration of the sweep.
const SEED: u64 = 0xDE6A_DE19;
/// Write+read round trips attempted per trial.
const OPS: usize = 6;
/// Words moved per operation.
const WORDS: u16 = 8;
/// Independent failure-set draws aggregated per (mesh, failure count).
const TRIALS: u64 = 3;
/// Largest number of simultaneous permanent link failures swept.
const MAX_FAILURES: usize = 3;
/// Mesh side lengths swept.
const MESHES: &[u8] = &[2, 3, 4];

/// Every undirected mesh edge, named by its East/North-facing channel.
fn edges(n: u8) -> Vec<(RouterAddr, Port)> {
    let mut out = Vec::new();
    for y in 0..n {
        for x in 0..n {
            if x + 1 < n {
                out.push((RouterAddr::new(x, y), Port::East));
            }
            if y + 1 < n {
                out.push((RouterAddr::new(x, y), Port::North));
            }
        }
    }
    out
}

/// Whether killing `dead` still leaves every router pair connected.
fn connected(n: u8, dead: &[(RouterAddr, Port)]) -> bool {
    let dead: std::collections::BTreeSet<_> = dead.iter().copied().collect();
    let table = RouteTable::build(
        &Topology::Mesh {
            width: n,
            height: n,
        },
        &dead,
    );
    for a in 0..n * n {
        for b in 0..n * n {
            let src = RouterAddr::new(a % n, a / n);
            let dst = RouterAddr::new(b % n, b / n);
            if !table.reachable(src, dst) {
                return false;
            }
        }
    }
    true
}

/// Draws a non-partitioning set of `count` distinct edges, or `None` if
/// the bounded deterministic search finds none (e.g. 2 failures on 2×2).
fn draw_failures(n: u8, count: usize, prng: &mut Xorshift64) -> Option<Vec<(RouterAddr, Port)>> {
    let all = edges(n);
    if count > all.len() {
        return None;
    }
    for _ in 0..200 {
        let mut pool = all.clone();
        let mut picked = Vec::with_capacity(count);
        for _ in 0..count {
            picked.push(pool.swap_remove(prng.below(pool.len() as u64) as usize));
        }
        picked.sort();
        if connected(n, &picked) {
            return Some(picked);
        }
    }
    None
}

struct Trial {
    delivered: usize,
    cycles: u64,
    reroute_resets: u64,
    retransmissions: u64,
    links_diagnosed: usize,
    error: Option<SystemError>,
    fingerprint: u64,
}

/// Runs one trial: a fault-tolerant system with `dead` edges down (both
/// directions) from cycle 0, pushing `OPS` write+read round trips from
/// the host through the serial IP to the far-corner memory.
fn run_trial(n: u8, dead: &[(RouterAddr, Port)]) -> Result<Trial, SystemError> {
    let mut config = NocConfig::mesh(n, n);
    config.routing = Routing::FaultTolerantXy;
    let mut system = System::builder()
        .noc(config)
        .serial_at(RouterAddr::new(0, 0))
        .memory_at(RouterAddr::new(n - 1, n - 1))
        .build()?;
    let memory = NodeId(1);
    let mut plan = FaultPlan::new(SEED);
    for &(addr, port) in dead {
        plan = plan.with_link_down(addr, port, CycleWindow::open_ended(0));
        let peer = match port {
            Port::East => RouterAddr::new(addr.x() + 1, addr.y()),
            Port::North => RouterAddr::new(addr.x(), addr.y() + 1),
            _ => unreachable!("edges() only names East/North channels"),
        };
        let back = if port == Port::East {
            Port::West
        } else {
            Port::South
        };
        plan = plan.with_link_down(peer, back, CycleWindow::open_ended(0));
    }
    if !dead.is_empty() {
        system.set_fault_plan(plan)?;
    }
    let mut host = Host::new().with_budget(4_000_000);
    host.synchronize(&mut system)?;

    let start = system.cycle();
    let mut delivered = 0;
    let mut error = None;
    for op in 0..OPS {
        let addr = 0x100 + (op as u16) * WORDS;
        let data: Vec<u16> = (0..WORDS)
            .map(|i| (op as u16) << 8 | u16::from(i as u8) | 0x2000)
            .collect();
        let attempt = host
            .write_memory(&mut system, memory, addr, &data)
            .and_then(|()| host.read_memory(&mut system, memory, addr, WORDS as usize));
        match attempt {
            Ok(read_back) if read_back == data => delivered += 1,
            Ok(_) => {}
            Err(e) => {
                error = Some(e);
                break;
            }
        }
    }
    let retries = system.retry_counters();
    Ok(Trial {
        delivered,
        cycles: system.cycle() - start,
        reroute_resets: retries.reroute_resets,
        retransmissions: retries.retransmissions,
        links_diagnosed: system.dead_links().len(),
        error,
        fingerprint: system.fingerprint(),
    })
}

pub fn run(runs: &mut Runs) -> Outcome {
    println!(
        "E19: graceful degradation under permanent link failures\n\
         {OPS} host write+read round trips ({WORDS} words) per trial, {TRIALS} trials\n\
         per point, fault-tolerant XY routing, seed {SEED:#x}\n"
    );
    let mut points = Vec::new();
    for &n in MESHES {
        println!(
            "{n}x{n} mesh (serial at 0.0, memory at {}.{}):",
            n - 1,
            n - 1
        );
        println!(
            "  {:<10} {:>9} {:>12} {:>10} {:>7} {:>7} {:>6}",
            "failures", "delivered", "cycles/op", "overhead", "resets", "retx", "dead"
        );
        let mut healthy_cycles_per_op = None;
        for failures in 0..=MAX_FAILURES {
            let mut prng = Xorshift64::new(SEED ^ (u64::from(n) << 32) ^ (failures as u64 + 1));
            let mut delivered = 0;
            let mut ops = 0;
            let mut cycles = 0u64;
            let mut resets = 0;
            let mut retx = 0;
            let mut diagnosed = 0;
            let mut skipped = false;
            let mut first_error = None;
            for _ in 0..TRIALS {
                let Some(dead) = draw_failures(n, failures, &mut prng) else {
                    skipped = true;
                    break;
                };
                let t = run_trial(n, &dead)?;
                runs.record(t.fingerprint);
                delivered += t.delivered;
                ops += OPS;
                cycles += t.cycles;
                resets += t.reroute_resets;
                retx += t.retransmissions;
                diagnosed += t.links_diagnosed;
                if let Some(e) = t.error {
                    first_error.get_or_insert(e);
                }
            }
            if skipped {
                println!(
                    "  {:<10} every {failures}-edge removal partitions this mesh",
                    failures
                );
                continue;
            }
            let per_op = cycles as f64 / ops as f64;
            let healthy = *healthy_cycles_per_op.get_or_insert(per_op);
            let overhead = (per_op - healthy) / healthy * 100.0;
            println!(
                "  {:<10} {:>5}/{:<3} {:>12.1} {:>9.1}% {:>7} {:>7} {:>6}",
                failures, delivered, ops, per_op, overhead, resets, retx, diagnosed
            );
            if let Some(e) = first_error {
                println!("  {:<10} ^ typed error: {e}", "");
            }
            points.push(obj! {
                "mesh": format!("{n}x{n}"),
                "failures": failures,
                "delivered": delivered,
                "ops": ops,
                "avg_cycles_per_op": Fixed(per_op, 1),
                "overhead_pct": Fixed(overhead, 1),
                "reroute_resets": resets,
                "retransmissions": retx,
                "links_diagnosed": diagnosed,
            });
        }
        println!();
    }
    println!(
        "Every non-partitioning failure set delivers all operations: the\n\
         diagnosis declares the dead links, the epoch flushes the wedged\n\
         worms, routing detours and the reliability layer absorbs the loss\n\
         as reroute resets, not failures. The cost is latency overhead,\n\
         which grows with the number of detours on the path."
    );
    let json = obj! {
        "experiment": "E19 graceful degradation",
        "seed": SEED,
        "ops_per_point": OPS * TRIALS as usize,
        "points": points,
    };
    std::fs::write("BENCH_degradation.json", json.render())?;
    println!("Machine-readable summary written to BENCH_degradation.json");
    Ok(())
}

//! E24 — topology sweep: the paper's mesh against a torus and a chiplet
//! mesh-of-meshes at matched router counts, the off-chip channel model
//! (serialized vs parallel die-to-die links), and a 1024-router chiplet
//! system driven end to end through the parallel kernel.
//!
//! Three sections:
//!
//! 1. **Matched-count sweep** — for each router count, the same seeded
//!    uniform traffic runs on a mesh, a torus and a chiplet grid of
//!    identical size. The chiplet grid pays the off-chip boundary
//!    crossings; the torus pays for VC-free deadlock freedom with
//!    up*/down* root congestion.
//! 2. **Off-chip channel separation** — the same cross-chiplet corner
//!    packet and the same uniform workload on `OffChipParallel` vs
//!    `OffChipSerial` d2d links; the serialized channel must cost more,
//!    both on the single packet and on the mean.
//! 3. **1024 routers** — `NocConfig::chiplet(4, 8, …)` is a 32×32 grid
//!    of 1024 routers across 16 chiplets; the sequential and the
//!    8-thread batched parallel kernel must reach the same
//!    `Noc::fingerprint`, so they agree on every counter.
//!
//! Everything is seeded; the sweep runs twice and the report must be
//! byte-identical before anything prints. The machine-readable summary
//! lands in `BENCH_topology.json`. `EXP_TOPOLOGY_SMOKE=1` shrinks the
//! cycle counts for CI.
//!
//! Run with `cargo run -p multinoc-bench --bin exp_topology`.

use std::fmt::Write as _;

use hermes_noc::traffic::{Pattern, TrafficGen};
use hermes_noc::{D2dChannel, KernelMode, Noc, NocConfig, Packet, RouterAddr};

/// Seed shared by every configuration of the sweep.
const SEED: u64 = 0xE240_7090;
/// Flits of payload per generated packet.
const PAYLOAD: usize = 4;

/// Cycle scale: 1 for the CI smoke run, 4 for the full measurement.
fn scale() -> u64 {
    if std::env::var_os("EXP_TOPOLOGY_SMOKE").is_some() {
        1
    } else {
        4
    }
}

struct Point {
    name: String,
    routers: usize,
    cycles: u64,
    sent: u64,
    delivered: u64,
    mean_latency: f64,
    p95_latency: u64,
    peak_utilization: f64,
    /// [`Noc::fingerprint`] of the drained network.
    fingerprint: u64,
}

/// Drives seeded uniform traffic over `config` for `cycles`, drains,
/// and reads every number off the stats the topology exported.
fn measure(config: NocConfig, cycles: u64, rate: f64) -> Point {
    let name = config.topology.to_string();
    let routers = config.router_count();
    let cadence = config.cycles_per_flit;
    let mut noc = Noc::new(config).expect("valid config");
    let mut gen = TrafficGen::new(Pattern::Uniform, rate, PAYLOAD, SEED);
    gen.drive(&mut noc, cycles, 4_000_000).expect("drains");
    let s = noc.stats();
    Point {
        name,
        routers,
        cycles: s.cycles,
        sent: s.packets_sent,
        delivered: s.packets_delivered,
        mean_latency: s.mean_latency().unwrap_or(0.0),
        p95_latency: s.latency_quantile(0.95).unwrap_or(0),
        peak_utilization: s.peak_link_utilization(cadence),
        fingerprint: noc.fingerprint(),
    }
}

/// Latency of one corner-to-corner packet on an otherwise idle network.
fn corner_latency(config: NocConfig) -> u64 {
    let (w, h) = (config.width(), config.height());
    let mut noc = Noc::new(config).expect("valid config");
    let id = noc
        .send(
            RouterAddr::new(0, 0),
            Packet::new(RouterAddr::new(w - 1, h - 1), vec![7; PAYLOAD]),
        )
        .expect("send");
    noc.run_until_idle(1_000_000).expect("drains");
    noc.stats().record(id).expect("recorded").latency()
}

fn run_sweep(scale: u64) -> (String, String) {
    let mut out = String::new();
    let mut points: Vec<Point> = Vec::new();
    let _ = writeln!(
        out,
        "E24: topology sweep (seed {SEED:#x}, scale {scale}x)\n\
         uniform traffic, {PAYLOAD}-flit payloads, same seed on every topology\n"
    );

    // 1. Matched router counts: mesh vs torus vs chiplet of the same size.
    let cycles = 2_000 * scale;
    let _ = writeln!(
        out,
        "{:<34} {:>8} {:>6} {:>10} {:>9} {:>8} {:>7}",
        "topology", "routers", "sent", "delivered", "mean lat", "p95 lat", "peak u"
    );
    for side in [4u8, 6] {
        let k_chip = side / 2;
        let trio = [
            NocConfig::mesh(side, side),
            NocConfig::torus(side, side),
            NocConfig::chiplet(k_chip, 2, D2dChannel::OffChipParallel),
        ];
        for config in trio {
            let p = measure(config, cycles, 0.05);
            let _ = writeln!(
                out,
                "{:<34} {:>8} {:>6} {:>10} {:>9.1} {:>8} {:>6.2}%",
                p.name,
                p.routers,
                p.sent,
                p.delivered,
                p.mean_latency,
                p.p95_latency,
                p.peak_utilization * 100.0
            );
            assert_eq!(p.sent, p.delivered, "{}: healthy runs deliver all", p.name);
            points.push(p);
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "The chiplet grid routes like the mesh plus the die-to-die crossings.\n\
         The torus pays for VC-free deadlock freedom: its turn-restricted\n\
         up*/down* table concentrates traffic near the spanning-tree root,\n\
         so under uniform load its latency exceeds the mesh's despite the\n\
         shorter physical distances the wraparound links offer.\n"
    );

    // 2. Off-chip channel model: serialized vs parallel d2d links.
    let _ = writeln!(out, "off-chip channel separation (2x2 chiplets of 2x2):");
    let mut d2d_points: Vec<(String, u64, Point)> = Vec::new();
    for d2d in [D2dChannel::OffChipParallel, D2dChannel::OffChipSerial] {
        let corner = corner_latency(NocConfig::chiplet(2, 2, d2d));
        let p = measure(NocConfig::chiplet(2, 2, d2d), cycles, 0.05);
        let _ = writeln!(
            out,
            "  {:<34} corner-to-corner {:>4} cycles, mean {:>7.1}, p95 {:>5}",
            p.name, corner, p.mean_latency, p.p95_latency
        );
        d2d_points.push((format!("{d2d:?}"), corner, p));
    }
    let mesh_corner = corner_latency(NocConfig::mesh(4, 4));
    let _ = writeln!(
        out,
        "  {:<34} corner-to-corner {:>4} cycles (no off-chip hops)",
        "mesh-4x4", mesh_corner
    );
    assert!(
        mesh_corner < d2d_points[0].1 && d2d_points[0].1 < d2d_points[1].1,
        "expected mesh ({mesh_corner}) < parallel d2d ({}) < serial d2d ({})",
        d2d_points[0].1,
        d2d_points[1].1
    );
    assert!(
        d2d_points[0].2.mean_latency < d2d_points[1].2.mean_latency,
        "serialized d2d must also cost more on the traffic mean"
    );
    let _ = writeln!(
        out,
        "  the serialized channel stretches every boundary crossing; the\n\
         parallel channel only pays its pipeline latency.\n"
    );

    // 3. 1024 routers end to end: 16 chiplets of 8x8, sequential vs
    // 8-thread batched parallel kernel on the same seeded traffic.
    let big_cycles = 300 * scale;
    let _ = writeln!(out, "1024-router chiplet system (4x4 chiplets of 8x8):");
    let mut big_fingerprints = Vec::new();
    let mut big_point = None;
    for kernel in [KernelMode::Active, KernelMode::Parallel { threads: 8 }] {
        let config = NocConfig::chiplet(4, 8, D2dChannel::OffChipParallel).with_kernel_mode(kernel);
        assert_eq!(config.router_count(), 1024);
        let p = measure(config, big_cycles, 0.02);
        let _ = writeln!(
            out,
            "  {:<26} {:>6} sent {:>6} delivered, mean lat {:>7.1}, {} cycles",
            format!("{kernel:?}"),
            p.sent,
            p.delivered,
            p.mean_latency,
            p.cycles
        );
        big_fingerprints.push(p.fingerprint);
        big_point = Some(p);
    }
    assert_eq!(
        big_fingerprints[0], big_fingerprints[1],
        "kernels diverged on the 1024-router chiplet system"
    );
    let big = big_point.expect("big run happened");
    assert!(
        big.delivered > 0,
        "the big system must actually move traffic"
    );
    let _ = writeln!(
        out,
        "  sequential and parallel kernels agree on every counter.\n"
    );

    // Machine-readable summary.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"experiment\": \"E24 topology sweep\",");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"matched_router_counts\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 == points.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"topology\": \"{}\", \"routers\": {}, \"cycles\": {}, \
             \"sent\": {}, \"delivered\": {}, \"mean_latency\": {:.2}, \
             \"p95_latency\": {}, \"peak_utilization\": {:.4}}}{comma}",
            p.name,
            p.routers,
            p.cycles,
            p.sent,
            p.delivered,
            p.mean_latency,
            p.p95_latency,
            p.peak_utilization
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"d2d_channels\": [");
    for (i, (channel, corner, p)) in d2d_points.iter().enumerate() {
        let comma = if i + 1 == d2d_points.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"channel\": \"{channel}\", \"corner_latency\": {corner}, \
             \"mean_latency\": {:.2}, \"p95_latency\": {}}}{comma}",
            p.mean_latency, p.p95_latency
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"mesh_corner_latency\": {mesh_corner},");
    let _ = writeln!(
        json,
        "  \"chiplet_1024\": {{\"topology\": \"{}\", \"routers\": {}, \
         \"cycles\": {}, \"sent\": {}, \"delivered\": {}, \
         \"mean_latency\": {:.2}, \"kernels_agree\": true}}",
        big.name, big.routers, big.cycles, big.sent, big.delivered, big.mean_latency
    );
    json.push_str("}\n");
    (out, json)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = scale();
    let first = run_sweep(scale);
    let second = run_sweep(scale);
    assert_eq!(
        first, second,
        "same seed must reproduce the identical sweep"
    );
    let (report, json) = first;
    std::fs::write("BENCH_topology.json", &json)?;
    print!("{report}");
    println!("Determinism check: two same-seed sweeps produced identical reports.");
    println!("Machine-readable summary written to BENCH_topology.json");
    Ok(())
}

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
//! The machine-readable summary lands in `BENCH_topology.json`.

use hermes_noc::traffic::{Pattern, TrafficGen};
use hermes_noc::{D2dChannel, KernelMode, Noc, NocConfig, Packet, RouterAddr};
use multinoc_bench::json::Fixed;
use multinoc_bench::obj;
use multinoc_bench::suite::Runs;

use crate::Outcome;

/// Seed shared by every configuration of the sweep.
const SEED: u64 = 0xE240_7090;
/// Flits of payload per generated packet.
const PAYLOAD: usize = 4;

#[derive(Debug, PartialEq)]
struct Point {
    name: String,
    routers: usize,
    cycles: u64,
    sent: u64,
    delivered: u64,
    mean_latency: f64,
    p95_latency: u64,
    peak_utilization: f64,
}

/// Drives seeded uniform traffic over `config` for `cycles`, drains,
/// and reads every number off the stats the topology exported; returns
/// the drained network's [`Noc::fingerprint`] with them.
fn measure(config: NocConfig, cycles: u64, rate: f64) -> (u64, Point) {
    let name = config.topology.to_string();
    let routers = config.router_count();
    let cadence = config.cycles_per_flit;
    let mut noc = Noc::new(config).expect("valid config");
    let mut gen = TrafficGen::new(Pattern::Uniform, rate, PAYLOAD, SEED);
    gen.drive(&mut noc, cycles, 4_000_000).expect("drains");
    let s = noc.stats();
    let point = Point {
        name,
        routers,
        cycles: s.cycles,
        sent: s.packets_sent,
        delivered: s.packets_delivered,
        mean_latency: s.mean_latency().unwrap_or(0.0),
        p95_latency: s.latency_quantile(0.95).unwrap_or(0),
        peak_utilization: s.peak_link_utilization(cadence),
    };
    (noc.fingerprint(), point)
}

/// Latency of one corner-to-corner packet on an otherwise idle network.
fn corner_latency(runs: &mut Runs, config: NocConfig) -> u64 {
    let (w, h) = (config.width(), config.height());
    let mut noc = Noc::new(config).expect("valid config");
    let id = noc
        .send(
            RouterAddr::new(0, 0),
            Packet::new(RouterAddr::new(w - 1, h - 1), vec![7; PAYLOAD]),
        )
        .expect("send");
    noc.run_until_idle(1_000_000).expect("drains");
    runs.record(noc.fingerprint());
    noc.stats().record(id).expect("recorded").latency()
}

pub fn run(runs: &mut Runs) -> Outcome {
    let scale = if runs.smoke { 1 } else { 4 };
    println!(
        "E24: topology sweep (seed {SEED:#x}, scale {scale}x)\n\
         uniform traffic, {PAYLOAD}-flit payloads, same seed on every topology\n"
    );

    // 1. Matched router counts: mesh vs torus vs chiplet of the same size.
    let cycles = 2_000 * scale;
    println!(
        "{:<34} {:>8} {:>6} {:>10} {:>9} {:>8} {:>7}",
        "topology", "routers", "sent", "delivered", "mean lat", "p95 lat", "peak u"
    );
    let mut matched = Vec::new();
    for side in [4u8, 6] {
        let k_chip = side / 2;
        let trio = [
            NocConfig::mesh(side, side),
            NocConfig::torus(side, side),
            NocConfig::chiplet(k_chip, 2, D2dChannel::OffChipParallel),
        ];
        for config in trio {
            let (fingerprint, p) = measure(config, cycles, 0.05);
            runs.record(fingerprint);
            println!(
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
            matched.push(obj! {
                "topology": p.name,
                "routers": p.routers,
                "cycles": p.cycles,
                "sent": p.sent,
                "delivered": p.delivered,
                "mean_latency": Fixed(p.mean_latency, 2),
                "p95_latency": p.p95_latency,
                "peak_utilization": Fixed(p.peak_utilization, 4),
            });
        }
        println!();
    }
    println!(
        "The chiplet grid routes like the mesh plus the die-to-die crossings.\n\
         The torus pays for VC-free deadlock freedom: its turn-restricted\n\
         up*/down* table concentrates traffic near the spanning-tree root,\n\
         so under uniform load its latency exceeds the mesh's despite the\n\
         shorter physical distances the wraparound links offer.\n"
    );

    // 2. Off-chip channel model: serialized vs parallel d2d links.
    println!("off-chip channel separation (2x2 chiplets of 2x2):");
    let mut d2d_points: Vec<(D2dChannel, u64, Point)> = Vec::new();
    for d2d in [D2dChannel::OffChipParallel, D2dChannel::OffChipSerial] {
        let corner = corner_latency(runs, NocConfig::chiplet(2, 2, d2d));
        let (fingerprint, p) = measure(NocConfig::chiplet(2, 2, d2d), cycles, 0.05);
        runs.record(fingerprint);
        println!(
            "  {:<34} corner-to-corner {:>4} cycles, mean {:>7.1}, p95 {:>5}",
            p.name, corner, p.mean_latency, p.p95_latency
        );
        d2d_points.push((d2d, corner, p));
    }
    let mesh_corner = corner_latency(runs, NocConfig::mesh(4, 4));
    println!(
        "  {:<34} corner-to-corner {:>4} cycles (no off-chip hops)",
        "mesh-4x4", mesh_corner
    );
    let [(_, parallel_corner, parallel), (_, serial_corner, serial)] = &d2d_points[..] else {
        unreachable!("two d2d channels")
    };
    assert!(
        mesh_corner < *parallel_corner && parallel_corner < serial_corner,
        "expected mesh ({mesh_corner}) < parallel d2d ({parallel_corner}) < serial d2d \
         ({serial_corner})"
    );
    assert!(
        parallel.mean_latency < serial.mean_latency,
        "serialized d2d must also cost more on the traffic mean"
    );
    println!(
        "  the serialized channel stretches every boundary crossing; the\n\
         parallel channel only pays its pipeline latency.\n"
    );

    // 3. 1024 routers end to end: 16 chiplets of 8x8, sequential vs
    // 8-thread batched parallel kernel on the same seeded traffic.
    println!("1024-router chiplet system (4x4 chiplets of 8x8):");
    let kernels = [KernelMode::Active, KernelMode::Parallel { threads: 8 }];
    let big = runs.agree("1024-router chiplet system", &kernels, |kernel| {
        let config = NocConfig::chiplet(4, 8, D2dChannel::OffChipParallel).with_kernel_mode(kernel);
        assert_eq!(config.router_count(), 1024);
        let (fingerprint, p) = measure(config, 300 * scale, 0.02);
        println!(
            "  {:<26} {:>6} sent {:>6} delivered, mean lat {:>7.1}, {} cycles",
            format!("{kernel:?}"),
            p.sent,
            p.delivered,
            p.mean_latency,
            p.cycles
        );
        (fingerprint, p)
    });
    assert!(
        big.delivered > 0,
        "the big system must actually move traffic"
    );
    println!("  sequential and parallel kernels agree on every counter.\n");

    let json = obj! {
        "experiment": "E24 topology sweep",
        "seed": SEED,
        "matched_router_counts": matched,
        "d2d_channels": d2d_points.iter().map(|(channel, corner, p)| obj! {
            "channel": format!("{channel:?}"),
            "corner_latency": *corner,
            "mean_latency": Fixed(p.mean_latency, 2),
            "p95_latency": p.p95_latency,
        }).collect::<Vec<_>>(),
        "mesh_corner_latency": mesh_corner,
        "chiplet_1024": obj! {
            "topology": big.name,
            "routers": big.routers,
            "cycles": big.cycles,
            "sent": big.sent,
            "delivered": big.delivered,
            "mean_latency": Fixed(big.mean_latency, 2),
            "kernels_agree": true,
        },
    };
    std::fs::write("BENCH_topology.json", json.render())?;
    println!("Machine-readable summary written to BENCH_topology.json");
    Ok(())
}

//! The Hermes network alone: E1 latency, E2 throughput, E8 buffering,
//! E9 arbitration, E11 saturation and E17 routing.

use std::collections::BTreeMap;

use hermes_noc::traffic::{Pattern, TrafficGen};
use hermes_noc::{latency, Arbitration, Noc, NocConfig, Packet, Port, RouterAddr, Routing};
use multinoc_bench::saturate;
use multinoc_bench::suite::Runs;

use super::{row, Report, Table};
use crate::Outcome;

/// The clock of §2.1's throughput figure.
const CLOCK_HZ: f64 = 50.0e6;

pub fn e1(runs: &mut Runs, report: &mut Report) -> Outcome {
    let config = NocConfig::mesh(8, 8);
    let src = RouterAddr::new(0, 0);
    let mut swept = 0;
    let mut exact = 0;
    // Sends one packet to `dst`; returns (routers on path, wire flits,
    // analytic, measured).
    let mut lone_packet = |dst: RouterAddr, payload: usize| -> Result<_, hermes_noc::NocError> {
        let mut noc = Noc::new(config.clone())?;
        let id = noc.send(src, Packet::new(dst, vec![0xA5; payload]))?;
        noc.run_until_idle(1_000_000)?;
        runs.record(noc.fingerprint());
        let record = noc.stats().record(id).expect("recorded");
        let n = src.routers_on_path(dst);
        let analytic = latency::minimal_latency(
            n,
            record.wire_flits,
            config.routing_cycles,
            config.cycles_per_flit,
        );
        swept += 1;
        exact += usize::from(record.latency() == analytic);
        Ok((n, record.wire_flits, analytic, record.latency()))
    };

    let mut straight = Table::new(&[
        "routers on path (n)",
        "payload flits",
        "P (wire flits)",
        "analytic",
        "measured",
        "match",
    ]);
    for hops in 0..=7u8 {
        for payload in [0usize, 1, 4, 16, 64, 128] {
            let (n, wire, analytic, measured) = lone_packet(RouterAddr::new(hops, 0), payload)?;
            let matches = if measured == analytic { "yes" } else { "NO" };
            row!(straight, n, payload, wire, analytic, measured, matches);
        }
    }
    let mut diagonal = Table::new(&["path", "n", "analytic", "measured"]);
    for (x, y) in [(1u8, 1u8), (3, 2), (7, 7)] {
        let dst = RouterAddr::new(x, y);
        let (n, _, analytic, measured) = lone_packet(dst, 4)?;
        row!(diagonal, format!("00 -> {dst}"), n, analytic, measured);
    }
    report.table(&straight);
    report.note("Diagonal paths (X then Y turns), 4-flit payloads:");
    report.table(&diagonal);
    report.claim(
        exact == swept,
        format!("measured latency equals the formula for all {swept} packets swept"),
    );
    Ok(())
}

/// The five non-conflicting flows through the centre router of a 3×3
/// mesh: W→E, E→W, S→N, N→S and the local self-loop.
const CENTRE_FLOWS: [(RouterAddr, RouterAddr); 5] = [
    (RouterAddr::new(0, 1), RouterAddr::new(2, 1)),
    (RouterAddr::new(2, 1), RouterAddr::new(0, 1)),
    (RouterAddr::new(1, 0), RouterAddr::new(1, 2)),
    (RouterAddr::new(1, 2), RouterAddr::new(1, 0)),
    (RouterAddr::new(1, 1), RouterAddr::new(1, 1)),
];

pub fn e2(runs: &mut Runs, report: &mut Report) -> Outcome {
    let mut router = Table::new(&[
        "flit width (bits)",
        "theory Gbit/s",
        "measured Gbit/s",
        "efficiency",
    ]);
    let mut at_8_bits = 0.0;
    for flit_bits in [8u8, 16] {
        let config = NocConfig::mesh(3, 3).with_flit_bits(flit_bits);
        let theory = config.peak_router_throughput_bps(CLOCK_HZ);
        let mut noc = Noc::new(config)?;
        let cycles = 60_000u64;
        // Long packets amortize the per-packet routing charge.
        saturate(&mut noc, &CENTRE_FLOWS, 200, cycles)?;
        runs.record(noc.fingerprint());
        // Aggregate flits leaving the centre router over its 5 outputs.
        let centre = RouterAddr::new(1, 1);
        let flits: u64 = Port::ALL
            .iter()
            .map(|&p| noc.stats().link_flits((centre, p)))
            .sum();
        let measured = flits as f64 * f64::from(flit_bits) * CLOCK_HZ / cycles as f64;
        if flit_bits == 8 {
            at_8_bits = measured;
        }
        row!(
            router,
            flit_bits,
            format!("{:.2}", theory / 1e9),
            format!("{:.2}", measured / 1e9),
            format!("{:.0}%", measured / theory * 100.0)
        );
    }
    report.table(&router);

    let mut link = Table::new(&["flit width (bits)", "link theory Mbit/s", "measured Mbit/s"]);
    for flit_bits in [8u8, 16] {
        let config = NocConfig::mesh(2, 2).with_flit_bits(flit_bits);
        let theory = CLOCK_HZ / f64::from(config.cycles_per_flit) * f64::from(flit_bits);
        let mut noc = Noc::new(config)?;
        let flow = [(RouterAddr::new(0, 0), RouterAddr::new(1, 0))];
        saturate(&mut noc, &flow, 200, 40_000)?;
        runs.record(noc.fingerprint());
        let measured = noc.stats().peak_link_throughput_bps(flit_bits, CLOCK_HZ);
        row!(
            link,
            flit_bits,
            format!("{:.0}", theory / 1e6),
            format!("{:.0}", measured / 1e6)
        );
    }
    report.note("Per-link ceiling, one connection (one flit per 2 cycles), 40,000 cycles:");
    report.table(&link);
    report.claim(
        at_8_bits >= 0.9e9,
        "an 8-bit router moves at least 0.9 Gbit/s at 50 MHz",
    );
    Ok(())
}

pub fn e8(runs: &mut Runs, report: &mut Report) -> Outcome {
    let mut depth_2_wins = true;
    for rate in [0.10f64, 0.20, 0.30] {
        let mut table = Table::new(&[
            "buffer depth",
            "mean latency",
            "p99 latency",
            "delivered",
            "accepted f/c/n",
        ]);
        let mut means = Vec::new();
        for depth in [1usize, 2, 4, 8, 16] {
            let mut noc = Noc::new(NocConfig::mesh(4, 4).with_buffer_depth(depth))?;
            let mut gen = TrafficGen::new(Pattern::Transpose, rate, 8, 2024);
            gen.drive(&mut noc, 30_000, 3_000_000)?;
            runs.record(noc.fingerprint());
            let stats = noc.stats();
            let mean = stats.mean_latency().unwrap_or(f64::NAN);
            means.push(mean);
            row!(
                table,
                depth,
                format!("{mean:.1}"),
                stats.latency_quantile(0.99).unwrap_or(0),
                stats.packets_delivered,
                format!("{:.3}", stats.flits_delivered as f64 / 30_000.0 / 16.0)
            );
        }
        depth_2_wins &= means[1] < means[0];
        report.note(format!("Offered load {rate:.2} flits/cycle/node:"));
        report.table(&table);
    }
    report.claim(
        depth_2_wins,
        "depth 2's mean latency is below depth 1's at every offered load",
    );
    Ok(())
}

/// Packets each sender delivered into the hotspot under `arbitration`.
fn hotspot_deliveries(
    runs: &mut Runs,
    arbitration: Arbitration,
) -> Result<BTreeMap<String, u64>, hermes_noc::NocError> {
    let mut noc = Noc::new(NocConfig::mesh(3, 3).with_arbitration(arbitration))?;
    let mut gen = TrafficGen::new(Pattern::Hotspot(RouterAddr::new(1, 1)), 0.6, 8, 7);
    gen.drive(&mut noc, 40_000, 2_000_000)?;
    runs.record(noc.fingerprint());
    let mut by_src = BTreeMap::new();
    for r in noc.stats().records() {
        if r.is_delivered() {
            *by_src.entry(r.src.to_string()).or_insert(0u64) += 1;
        }
    }
    Ok(by_src)
}

pub fn e9(runs: &mut Runs, report: &mut Report) -> Outcome {
    let rr = hotspot_deliveries(runs, Arbitration::RoundRobin)?;
    let fixed = hotspot_deliveries(runs, Arbitration::FixedPriority)?;
    let mut table = Table::new(&["sender", "round-robin", "fixed priority"]);
    for (sender, delivered) in &rr {
        row!(table, sender, delivered, fixed.get(sender).unwrap_or(&0));
    }
    let ratio = |m: &BTreeMap<String, u64>| {
        let max = *m.values().max().expect("a sender") as f64;
        let min = *m.values().min().expect("a sender") as f64;
        max / min.max(1.0)
    };
    let (r_rr, r_fx) = (ratio(&rr), ratio(&fixed));
    row!(
        table,
        "max/min ratio",
        format!("{r_rr:.2}"),
        format!("{r_fx:.2}")
    );
    report.table(&table);
    report.claim(
        r_rr * 10.0 <= r_fx,
        "round-robin's max/min ratio is at least 10× below fixed priority's",
    );
    Ok(())
}

/// E11's offered loads, flits/cycle/node.
const OFFERED: [f64; 9] = [0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40];

pub fn e11(runs: &mut Runs, report: &mut Report) -> Outcome {
    let cycles = 30_000u64;
    let mut table = Table::new(&[
        "offered (f/c/n)",
        "accepted (f/c/n)",
        "mean latency",
        "p99 latency",
        "delivered",
    ]);
    let mut accepted = Vec::new();
    for offered in OFFERED {
        let mut noc = Noc::new(NocConfig::mesh(4, 4))?;
        let mut gen = TrafficGen::new(Pattern::Uniform, offered, 4, 77);
        for _ in 0..cycles {
            gen.pump(&mut noc)?;
            noc.step();
        }
        runs.record(noc.fingerprint());
        let stats = noc.stats();
        let rate = stats.flits_delivered as f64 / cycles as f64 / 16.0;
        accepted.push(rate);
        row!(
            table,
            format!("{offered:.2}"),
            format!("{rate:.3}"),
            format!("{:.1}", stats.mean_latency().unwrap_or(f64::NAN)),
            stats.latency_quantile(0.99).unwrap_or(0),
            stats.packets_delivered
        );
    }
    report.table(&table);
    // Saturation: the first load the network no longer accepts in full.
    let knee = OFFERED
        .iter()
        .zip(&accepted)
        .position(|(&offered, &rate)| rate < 0.9 * offered);
    report.claim(
        knee.is_some(),
        "accepted traffic falls below 90 % of offered within the sweep",
    );
    let knee = knee.expect("claimed above");
    let plateau = accepted[knee];
    report.note(format!(
        "Saturation sets in at offered {:.2} flits/cycle/node, the first load accepted \
         below 90 %; accepted plateaus at {plateau:.3} flits/cycle/node.",
        OFFERED[knee]
    ));
    report.claim(
        accepted[knee..]
            .iter()
            .all(|&rate| (rate - plateau).abs() <= 0.05 * plateau),
        "accepted stays within ±5 % of the plateau at every higher load",
    );
    Ok(())
}

pub fn e17(runs: &mut Runs, report: &mut Report) -> Outcome {
    let hotspot = RouterAddr::new(3, 3);
    let mut table = Table::new(&[
        "pattern",
        "routing",
        "delivered",
        "mean latency",
        "peak link util",
    ]);
    let mut hotspot_runs = Vec::new();
    for (name, pattern, rate) in [
        ("uniform", Pattern::Uniform, 0.05),
        ("transpose", Pattern::Transpose, 0.10),
        ("hotspot(3,3)", Pattern::Hotspot(hotspot), 0.20),
    ] {
        for routing in [Routing::Xy, Routing::Yx] {
            let mut noc = Noc::new(NocConfig::mesh(4, 4).with_routing(routing))?;
            let mut gen = TrafficGen::new(pattern, rate, 6, 11);
            gen.drive(&mut noc, 25_000, 2_000_000)?;
            runs.record(noc.fingerprint());
            let stats = noc.stats();
            row!(
                table,
                name,
                format!("{routing:?}"),
                stats.packets_delivered,
                format!("{:.1}", stats.mean_latency().unwrap_or(f64::NAN)),
                format!(
                    "{:.0}%",
                    stats.peak_link_utilization(noc.config().cycles_per_flit) * 100.0
                )
            );
            if pattern == Pattern::Hotspot(hotspot) {
                hotspot_runs.push((routing, noc));
            }
        }
    }
    report.table(&table);

    let mut approach = Table::new(&["routing", "from West (row last)", "from South (col last)"]);
    for (routing, noc) in &hotspot_runs {
        let flits = |from: RouterAddr, port: Port| noc.stats().link_flits((from, port));
        row!(
            approach,
            format!("{routing:?}"),
            flits(RouterAddr::new(2, 3), Port::East),
            flits(RouterAddr::new(3, 2), Port::North)
        );
    }
    report.note("Flits into the hotspot router 33 by final approach direction:");
    report.table(&approach);
    Ok(())
}

//! Crate-level property tests of the Hermes simulator: conservation
//! invariants and deadlock freedom in hostile configurations.

use std::collections::BTreeMap;

use hermes_noc::fault::FaultPlan;
use hermes_noc::traffic::{Pattern, Rng64, TrafficGen};
use hermes_noc::{D2dChannel, Noc, NocConfig, Packet, Port, RouterAddr, Routing, SpanKind};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single-flit buffers, every pattern, random load: XY wormhole must
    /// still deliver everything (deadlock freedom does not depend on
    /// buffer depth).
    #[test]
    fn minimum_buffers_never_deadlock(
        seed in 0u64..500,
        pattern_pick in 0usize..3,
    ) {
        let pattern = [Pattern::Uniform, Pattern::Transpose, Pattern::BitComplement][pattern_pick];
        let config = NocConfig::mesh(4, 4).with_buffer_depth(1);
        let mut noc = Noc::new(config).unwrap();
        let mut gen = TrafficGen::new(pattern, 0.3, 6, seed);
        for _ in 0..3_000 {
            gen.pump(&mut noc).unwrap();
            noc.step();
        }
        // Everything in flight must drain once injection stops.
        noc.run_until_idle(5_000_000).expect("drained without deadlock");
        prop_assert_eq!(
            noc.stats().packets_delivered,
            noc.stats().packets_sent
        );
    }

    /// Flit conservation: every injected flit is eventually delivered,
    /// and per-hop link counters are consistent with the totals.
    #[test]
    fn flit_conservation(seed in 0u64..500) {
        let config = NocConfig::mesh(3, 3);
        let mut noc = Noc::new(config).unwrap();
        let mut rng = Rng64::new(seed);
        let mut expected_flits = 0u64;
        for _ in 0..40 {
            let src = RouterAddr::new(rng.below(3) as u8, rng.below(3) as u8);
            let dst = RouterAddr::new(rng.below(3) as u8, rng.below(3) as u8);
            let len = rng.below(20) as usize;
            noc.send(src, Packet::new(dst, vec![0x3C; len])).unwrap();
            expected_flits += len as u64 + 2;
        }
        noc.run_until_idle(5_000_000).unwrap();
        let stats = noc.stats();
        prop_assert_eq!(stats.flits_delivered, expected_flits);
        // Local egress flits across all routers equal delivered flits.
        let egress: u64 = stats
            .link_flit_counts()
            .filter(|((_, port), _)| *port == Port::Local)
            .map(|(_, count)| count)
            .sum();
        prop_assert_eq!(egress, expected_flits);
        // Ingress equals delivered too (everything injected got out).
        let ingress: u64 = stats.local_ingress_counts().map(|(_, count)| count).sum();
        prop_assert_eq!(ingress, expected_flits);
        // Total hops = ingress + egress + inter-router hops; each packet
        // takes exactly `hops` inter-router transfers per flit.
        let inter: u64 = stats
            .link_flit_counts()
            .filter(|((_, port), _)| *port != Port::Local)
            .map(|(_, count)| count)
            .sum();
        let expected_inter: u64 = stats
            .records()
            .iter()
            .map(|r| u64::from(r.hops) * r.wire_flits as u64)
            .sum();
        prop_assert_eq!(inter, expected_inter);
        prop_assert_eq!(stats.flit_hops, ingress + egress + inter);
    }

    /// Determinism: two networks fed identically step identically.
    #[test]
    fn simulation_is_deterministic(seed in 0u64..200) {
        let run = || {
            let mut noc = Noc::new(NocConfig::mesh(4, 4)).unwrap();
            let mut gen = TrafficGen::new(Pattern::Uniform, 0.2, 5, seed);
            gen.drive(&mut noc, 2_000, 1_000_000).unwrap();
            (
                noc.cycle(),
                noc.stats().packets_delivered,
                noc.stats().flit_hops,
                noc.stats().mean_latency(),
            )
        };
        prop_assert_eq!(run(), run());
    }

    /// Any single router death under live fault-tolerant traffic is
    /// survivable: the mesh diagnoses the victim, drains without
    /// deadlock, and afterwards every healthy pair still delivers over
    /// the detoured table while the victim reports a typed partition.
    #[test]
    fn any_single_router_death_is_survived(
        victim_idx in 0usize..9,
        kill_cycle in 0u64..400,
        seed in 0u64..100,
    ) {
        let victim = RouterAddr::new((victim_idx % 3) as u8, (victim_idx / 3) as u8);
        let config = NocConfig::mesh(3, 3).with_routing(Routing::FaultTolerantXy);
        let mut noc = Noc::new(config).unwrap();
        noc.set_fault_plan(FaultPlan::new(seed).with_router_down(victim, kill_cycle))
            .unwrap();
        let mut gen = TrafficGen::new(Pattern::Uniform, 0.15, 4, seed);
        for _ in 0..1_200 {
            // Sends addressed to the victim fail once it is escalated.
            let _ = gen.pump(&mut noc);
            noc.step();
        }
        noc.run_until_idle(5_000_000).expect("drained without deadlock");
        if !noc.is_router_dead(victim) {
            // The random traffic never probed the victim; do it now so
            // the diagnosis/escalation path always runs.
            let src = RouterAddr::new((victim.x() + 1) % 3, victim.y());
            noc.send(src, Packet::new(victim, vec![1, 2])).unwrap();
            noc.run_until_idle(5_000_000).expect("probe flushed, not stuck");
        }
        prop_assert_eq!(noc.dead_routers(), vec![victim]);
        // Every healthy pair still delivers over the rebuilt table.
        let mut ids = Vec::new();
        for s in 0..9usize {
            for d in 0..9usize {
                let src = RouterAddr::new((s % 3) as u8, (s / 3) as u8);
                let dst = RouterAddr::new((d % 3) as u8, (d / 3) as u8);
                if src == victim || dst == victim {
                    continue;
                }
                ids.push(noc.send(src, Packet::new(dst, vec![7; 3])).unwrap());
            }
        }
        noc.run_until_idle(5_000_000).expect("post-failure mesh still drains");
        for id in ids {
            prop_assert!(noc.stats().record(id).unwrap().is_delivered());
        }
    }

    /// Link-by-link counts against the routes the packet tracer records,
    /// on a mesh, a torus and a chiplet mesh: every link carried the wire
    /// flits of exactly the packets whose header hopped across it, every
    /// Local egress those of the packets delivered there and every IP
    /// those it injected. Sums alone would not see a count filed under the
    /// wrong link; the corner-to-corner packets make the torus use its
    /// wrap links and the chiplet mesh its off-chip links.
    #[test]
    fn link_counts_follow_the_traced_routes(seed in 0u64..500) {
        let configs = [
            NocConfig::mesh(3, 3),
            NocConfig::torus(3, 3),
            NocConfig::chiplet(2, 2, D2dChannel::OffChipSerial),
        ];
        for config in configs {
            let (width, height) = (config.width(), config.height());
            let topology = config.topology;
            let mut noc = Noc::new(config).unwrap();
            noc.enable_packet_trace(64);
            let mut rng = Rng64::new(seed);
            let far = RouterAddr::new(width - 1, height - 1);
            let corners = [(RouterAddr::new(0, 0), far), (far, RouterAddr::new(0, 0))];
            let random = (0..40).map(|_| {
                let mut at = || RouterAddr::new(rng.below(u64::from(width)) as u8, rng.below(u64::from(height)) as u8);
                (at(), at())
            });
            let mut wire = BTreeMap::new();
            let mut ingress: BTreeMap<RouterAddr, u64> = BTreeMap::new();
            for (k, (src, dst)) in corners.into_iter().chain(random.collect::<Vec<_>>()).enumerate() {
                let len = (seed as usize + 7 * k) % 20;
                let id = noc.send(src, Packet::new(dst, vec![0x3C; len])).unwrap();
                wire.insert(id, len as u64 + 2);
                *ingress.entry(src).or_default() += len as u64 + 2;
            }
            noc.run_until_idle(5_000_000).unwrap();
            let mut links: BTreeMap<(RouterAddr, Port), u64> = BTreeMap::new();
            for trace in noc.packet_trace().unwrap().traces() {
                prop_assert!(trace.is_delivered());
                let flits = wire[&trace.id()];
                for hop in trace.events().iter().filter(|e| e.kind == SpanKind::Hop) {
                    *links.entry((hop.router, hop.port)).or_default() += flits;
                }
                *links.entry((trace.dest(), Port::Local)).or_default() += flits;
            }
            let stats = noc.stats();
            prop_assert_eq!(stats.link_flit_counts().collect::<BTreeMap<_, _>>(), links.clone());
            prop_assert_eq!(stats.local_ingress_counts().collect::<BTreeMap<_, _>>(), ingress.clone());
            for x in 0..width {
                for y in 0..height {
                    let at = RouterAddr::new(x, y);
                    for port in Port::ALL {
                        let expected = links.get(&(at, port)).copied().unwrap_or(0);
                        prop_assert_eq!(stats.link_flits((at, port)), expected);
                    }
                }
            }
            let special = |&(at, port): &(RouterAddr, Port)| {
                topology.is_wraparound(at, port) || topology.is_off_chip(at, port)
            };
            prop_assert_eq!(
                links.keys().any(special),
                !matches!(topology, hermes_noc::Topology::Mesh { .. }),
                "{:?}", topology
            );
        }
    }

    /// Backlog accounting: after sending, the backlog equals the wire
    /// flits queued; after draining it is zero.
    #[test]
    fn backlog_reflects_queued_flits(lens in proptest::collection::vec(0usize..30, 1..6)) {
        let mut noc = Noc::new(NocConfig::mesh(2, 2)).unwrap();
        let src = RouterAddr::new(0, 0);
        let dst = RouterAddr::new(1, 1);
        let mut total = 0;
        for &len in &lens {
            noc.send(src, Packet::new(dst, vec![1; len])).unwrap();
            total += len + 2;
        }
        prop_assert_eq!(noc.backlog_flits(src), total);
        noc.run_until_idle(5_000_000).unwrap();
        prop_assert_eq!(noc.backlog_flits(src), 0);
    }
}

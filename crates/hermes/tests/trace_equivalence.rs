//! Behaviour of the packet-lifecycle tracer: the trace ring stays
//! bounded, and the traced spans tie back to the routing algorithm — a
//! delivered packet's hop count equals its XY route length on a healthy
//! mesh, and its span path is a contiguous walk from source to
//! destination even under fault-tolerant detours. That every kernel
//! traces the same run is checked by the matrix in `differential.rs`.

use hermes_noc::fault::{CycleWindow, FaultPlan};
use hermes_noc::trace::SpanKind;
use hermes_noc::{Noc, NocConfig, Packet, Port, RouterAddr, Routing};
use proptest::prelude::*;

#[test]
fn trace_ring_stays_bounded_under_load() {
    let mut noc = Noc::new(NocConfig::mesh(2, 2)).expect("valid config");
    noc.enable_packet_trace(8);
    let src = RouterAddr::new(0, 0);
    let dst = RouterAddr::new(1, 1);
    for round in 0..200u64 {
        noc.send(src, Packet::new(dst, vec![(round % 100) as u16]))
            .expect("send");
        noc.run_until_idle(10_000).expect("deliver");
        let _ = noc.try_recv(dst);
        let tracer = noc.packet_trace().expect("enabled");
        assert!(tracer.traces().len() <= 8, "round {round}: window overflow");
    }
    let tracer = noc.take_packet_trace().expect("enabled");
    assert!(tracer.evicted_traces() >= 200 - 2 * 8);
    assert!(tracer.traces().iter().all(|t| t.is_delivered()));
    // Tracing off again: the hooks revert to their disabled fast path.
    assert!(noc.packet_trace().is_none());
    noc.send(src, Packet::new(dst, vec![1])).expect("send");
    noc.run_until_idle(10_000).expect("deliver");
}

#[test]
fn a_cycle_replays_its_local_events_before_its_apply_events() {
    // With one-cycle routing on a one-cycle handshake a header is granted
    // its output and crosses the link in the same cycle. The merge
    // replays each cycle's local-phase events (inject, route) before its
    // apply-phase events (hop, sink), as the sub-phases ran, so the trace
    // alternates route and hop in every window and under every kernel.
    use hermes_noc::KernelMode;
    let mut config = NocConfig::mesh(3, 3).with_routing_cycles(1);
    config.cycles_per_flit = 1;
    let route_and_hop = [SpanKind::Route, SpanKind::Hop];
    let mut expected = vec![SpanKind::Inject];
    (0..4).for_each(|_| expected.extend(route_and_hop));
    expected.extend([SpanKind::Route, SpanKind::Sink, SpanKind::Delivered]);
    for kernel in [
        KernelMode::Reference,
        KernelMode::Active,
        KernelMode::Parallel { threads: 2 },
    ] {
        for stepped in [false, true] {
            let mut noc = Noc::new(config.clone().with_kernel_mode(kernel)).expect("valid config");
            noc.enable_packet_trace(4);
            noc.send(
                RouterAddr::new(0, 0),
                Packet::new(RouterAddr::new(2, 2), vec![1, 2, 3]),
            )
            .expect("send");
            while !noc.is_idle() {
                if stepped {
                    noc.step();
                } else {
                    noc.run(16);
                }
            }
            let trace = &noc.packet_trace().expect("enabled").traces()[0];
            let events = trace.events();
            let kinds: Vec<SpanKind> = events.iter().map(|e| e.kind).collect();
            assert_eq!(kinds, expected, "{kernel:?}, stepped: {stepped}");
            assert!(
                (events.windows(2)).any(|w| w[0].kind == SpanKind::Route
                    && w[1].kind == SpanKind::Hop
                    && w[0].cycle == w[1].cycle),
                "{kernel:?}: no header routed and hopped in one cycle"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On a healthy mesh, every delivered packet's traced hop count is
    /// exactly the Manhattan distance of its endpoints (XY is minimal),
    /// its route count is one grant per router on the path, and its span
    /// sequence is well-formed (one inject, first; delivered last).
    #[test]
    fn traced_hops_equal_xy_route_length(seed in 0u64..200) {
        let mut noc = Noc::new(NocConfig::mesh(4, 4)).unwrap();
        noc.enable_packet_trace(64);
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut step = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut ids = Vec::new();
        for _ in 0..20 {
            let src = RouterAddr::new((step() % 4) as u8, (step() % 4) as u8);
            let dst = RouterAddr::new((step() % 4) as u8, (step() % 4) as u8);
            let len = (step() % 8) as usize;
            ids.push((noc.send(src, Packet::new(dst, vec![7; len])).unwrap(), src, dst));
        }
        noc.run_until_idle(5_000_000).unwrap();
        let tracer = noc.packet_trace().unwrap();
        for (id, src, dst) in ids {
            let trace = tracer.trace(id).expect("window holds all 20");
            prop_assert!(trace.is_delivered());
            prop_assert_eq!(trace.hop_count(), src.hops_to(dst) as usize);
            prop_assert_eq!(trace.route_count(), trace.hop_count() + 1);
            let events = trace.events();
            prop_assert_eq!(events[0].kind, SpanKind::Inject);
            prop_assert_eq!(events.iter().filter(|e| e.kind == SpanKind::Inject).count(), 1);
            prop_assert_eq!(events[events.len() - 1].kind, SpanKind::Delivered);
            prop_assert_eq!(trace.path()[0], src);
            prop_assert_eq!(*trace.path().last().unwrap(), dst);
        }
    }

    /// Under a fault-tolerant detour the traced path is still a
    /// contiguous walk of adjacent routers from source to destination,
    /// and the hop count equals the grant count minus one — even when it
    /// exceeds the Manhattan distance.
    #[test]
    fn degraded_traces_form_contiguous_paths(seed in 0u64..100) {
        let plan = FaultPlan::new(seed).with_link_down(
            RouterAddr::new(1, 1),
            Port::East,
            CycleWindow::open_ended(0),
        );
        let config = NocConfig::mesh(3, 3).with_routing(Routing::FaultTolerantXy);
        let mut noc = Noc::new(config).unwrap();
        noc.enable_packet_trace(256);
        noc.set_fault_plan(plan).unwrap();
        for k in 0..30u16 {
            let src = RouterAddr::new((k % 3) as u8, ((k / 3) % 3) as u8);
            let dst = RouterAddr::new(2 - (k % 3) as u8, 2 - ((k / 3) % 3) as u8);
            let _ = noc.send(src, Packet::new(dst, vec![k; 3]));
        }
        noc.run_until_idle(5_000_000).unwrap();
        let tracer = noc.packet_trace().unwrap();
        for trace in tracer.traces() {
            if !trace.is_delivered() {
                continue; // the wedged worm the diagnosis flushed
            }
            let path = trace.path();
            prop_assert_eq!(path[0], trace.src());
            prop_assert_eq!(*path.last().unwrap(), trace.dest());
            prop_assert_eq!(trace.hop_count(), path.len() - 1);
            prop_assert!(
                trace.hop_count() >= trace.src().hops_to(trace.dest()) as usize,
                "a detour can only lengthen the path"
            );
            for pair in path.windows(2) {
                prop_assert_eq!(
                    pair[0].hops_to(pair[1]),
                    1,
                    "consecutive grants are mesh neighbours"
                );
            }
        }
    }
}

//! Behaviour the kernel line-up shares: statistics stay bounded by their
//! record window on arbitrarily long runs, and the chiplet channel model
//! separates its two off-chip variants. That every kernel produces the
//! same run is checked by the matrix in `differential.rs`.

use hermes_noc::{D2dChannel, Noc, NocConfig, Packet, RouterAddr};

#[test]
fn long_run_stats_stay_within_the_configured_window() {
    let window = 16;
    let mut noc = Noc::new(NocConfig::mesh(2, 2).with_stats_window(window)).expect("valid config");
    let src = RouterAddr::new(0, 0);
    let dst = RouterAddr::new(1, 1);
    let mut sent = 0u64;
    for round in 0..2_000u64 {
        noc.send(src, Packet::new(dst, vec![(round % 100) as u16]))
            .expect("send");
        sent += 1;
        noc.run_until_idle(10_000).expect("deliver");
        assert!(
            noc.stats().records().len() <= window,
            "round {round}: window overflowed"
        );
        let _ = noc.try_recv(dst);
    }
    let stats = noc.stats();
    assert_eq!(stats.packets_sent, sent);
    assert_eq!(stats.packets_delivered, sent);
    // Every delivered latency was folded into the streaming aggregate
    // even though only the last few records survive.
    assert_eq!(stats.latency_histogram().count(), sent);
    // Eviction is amortized: the backing store holds at most twice the
    // window, so everything older than that has definitely been evicted.
    assert!(stats.evicted_records() >= sent.saturating_sub(2 * window as u64));
    assert!(stats.evicted_records() <= sent - stats.records().len() as u64);
    assert!(stats.mean_latency().is_some());
    // And the source reported by try_recv no longer depends on records.
    noc.send(src, Packet::new(dst, vec![7])).expect("send");
    noc.run_until_idle(10_000).expect("deliver");
    let (from, packet) = noc.try_recv(dst).expect("delivered");
    assert_eq!(from, src, "true source survives record eviction");
    assert_eq!(packet.payload(), &[7]);
}

#[test]
fn off_chip_serial_channel_is_slower_than_parallel() {
    // The channel model must actually separate the two d2d variants: the
    // same cross-chiplet packet takes longer over the serialized off-chip
    // link than over the parallel one, and both take longer than a purely
    // on-chip hop sequence of the same length on a plain mesh.
    let latency_of = |config: NocConfig| {
        let mut noc = Noc::new(config).expect("valid config");
        let src = RouterAddr::new(0, 0);
        let dst = RouterAddr::new(3, 0); // crosses the chiplet boundary at x=1|2
        let id = noc.send(src, Packet::new(dst, vec![7; 4])).expect("send");
        noc.run_until_idle(100_000).expect("drains");
        noc.stats().record(id).expect("recorded").latency()
    };
    let mesh = latency_of(NocConfig::mesh(4, 4));
    let parallel = latency_of(NocConfig::chiplet(2, 2, D2dChannel::OffChipParallel));
    let serial = latency_of(NocConfig::chiplet(2, 2, D2dChannel::OffChipSerial));
    assert!(
        mesh < parallel && parallel < serial,
        "expected mesh ({mesh}) < off-chip-parallel ({parallel}) < off-chip-serial ({serial})"
    );
}

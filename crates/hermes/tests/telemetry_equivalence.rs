//! Behaviour of the interval telemetry sampler: a pinned hotspot link
//! raises a sustained-congestion alert that clears once the load
//! drains, and the chiplet exports label their off-chip links and tell
//! the two d2d channel styles apart. That every kernel, window and
//! stepping style samples the same series is checked by the matrix in
//! `differential.rs`.

use hermes_noc::{CongestionKind, D2dChannel, Noc, NocConfig, Packet, RouterAddr, TelemetryConfig};

fn addr_of(index: u64, width: u8) -> RouterAddr {
    RouterAddr::new(
        (index % u64::from(width)) as u8,
        (index / u64::from(width)) as u8,
    )
}

/// Injects wave `wave` of the scatter schedule: every router sends one
/// 3-word packet to a shuffled destination.
fn inject_wave(noc: &mut Noc, wave: u64) {
    let config = noc.config().clone();
    let nodes = u64::from(config.width()) * u64::from(config.height());
    for i in 0..nodes {
        let src = addr_of(i, config.width());
        let dest = addr_of((i * 7 + wave * 3 + 3) % nodes, config.width());
        let _ = noc.send(src, Packet::new(dest, vec![(wave * 31 + i) as u16; 3]));
    }
}

/// Builds a telemetry-enabled network, drives 12 scatter waves 37
/// cycles apart and returns the exported time-series JSON.
fn drive(config: NocConfig) -> String {
    let mut noc = Noc::new(config).expect("valid config");
    noc.enable_telemetry(TelemetryConfig::default());
    for wave in 0..12 {
        inject_wave(&mut noc, wave);
        noc.run(37);
    }
    noc.telemetry_json().expect("telemetry enabled")
}

/// The congestion analytics must deterministically raise (and, once the
/// load drains, clear) a sustained-congestion alert when a single link
/// is pinned at practical saturation: every packet aimed at (0,0) from
/// off row 0 converges on the (0,1)->(0,0) link under XY routing.
#[test]
fn hotspot_raises_and_clears_a_sustained_alert() {
    let config = NocConfig::mesh(4, 4);
    let mut noc = Noc::new(config).expect("valid config");
    noc.enable_telemetry(TelemetryConfig::default());
    let sink = RouterAddr::new(0, 0);
    for cycle in 0..1_400u64 {
        if cycle.is_multiple_of(2) {
            let src = addr_of(4 + (cycle / 2) % 12, 4);
            let _ = noc.send(src, Packet::new(sink, vec![0x0AB; 3]));
        }
        noc.step();
    }
    let telemetry = noc.telemetry().expect("enabled");
    assert!(
        telemetry.alerts_raised() >= 1,
        "saturating one link must raise a sustained-congestion alert"
    );
    let threshold = telemetry.config().alert_threshold_permille;
    assert!(
        telemetry
            .events()
            .filter(|e| e.kind == CongestionKind::Raised)
            .all(|e| e.ewma_permille >= threshold),
        "raised alerts must carry an EWMA at or above the threshold"
    );
    assert!(telemetry.links_alerted() >= 1, "the alert is still active");

    // Drain and idle: the EWMA decays through zero-delta frames and the
    // alert clears.
    noc.run_until_idle(100_000).expect("drains");
    noc.run(1_024);
    let telemetry = noc.telemetry().expect("enabled");
    assert!(
        telemetry.alerts_cleared() >= 1,
        "the alert must clear once the hotspot drains"
    );
    assert_eq!(
        telemetry.links_alerted(),
        0,
        "no link stays alerted on an idle network"
    );
}

/// Both off-chip d2d channel styles label their links `:d2d` in the
/// series, and the two produce genuinely different series (the
/// serialized channel is the slower path).
#[test]
fn chiplet_d2d_exports_are_labelled_and_distinct() {
    let serial = drive(NocConfig::chiplet(2, 2, D2dChannel::OffChipSerial));
    let parallel = drive(NocConfig::chiplet(2, 2, D2dChannel::OffChipParallel));
    for series in [&serial, &parallel] {
        assert!(series.contains(":d2d"), "off-chip links are labelled :d2d");
    }
    assert_ne!(
        serial, parallel,
        "serialized and parallel d2d channels must not export the same series"
    );
}

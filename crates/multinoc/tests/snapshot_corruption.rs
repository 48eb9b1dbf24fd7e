//! Corrupt-checkpoint hardening: a damaged snapshot file must come back
//! as a typed [`SnapshotError`] — never a panic, and never a silently
//! mis-restored system. The suite tampers with a real mid-flight system
//! checkpoint every way a file can rot (truncation, bit flips, a wrong
//! version stamp, a wrong payload kind, a mesh-shape mismatch, trailing
//! garbage) and finishes with property tests that flip or stomp bytes
//! and re-seal both checksums, so the damage reaches the field decoders.

use std::sync::OnceLock;

use hermes_noc::snapshot::{fletcher64, HEADER_LEN, SNAPSHOT_VERSION};
use hermes_noc::{FaultPlan, NocConfig, RouterAddr, Routing, SnapshotError, TelemetryConfig};
use multinoc::{NodeId, System};
use proptest::prelude::*;
use r8::asm::assemble;

const P1: NodeId = NodeId(1);
const MEM: NodeId = NodeId(3);

/// A sealed checkpoint of a busy mid-flight system with the service
/// trace and spans on; `noc_observers` also turns on the network's
/// packet trace and telemetry, sampled often enough to hold frames.
fn checkpoint(noc_observers: bool) -> Vec<u8> {
    let mut config = NocConfig::multinoc();
    config.routing = Routing::FaultTolerantXy;
    let mut sys = System::builder()
        .noc(config)
        .serial_at(RouterAddr::new(0, 0))
        .processor_at(RouterAddr::new(0, 1))
        .processor_at(RouterAddr::new(1, 0))
        .memory_at(RouterAddr::new(1, 1))
        .build()
        .expect("paper layout");
    sys.set_fault_plan(FaultPlan::new(0xC0).with_drop_rate(0.2))
        .expect("plan");
    let base = sys
        .address_map(P1)
        .expect("map")
        .window_base(MEM)
        .expect("window");
    let program = assemble(&format!(
        "LIW R1, {base}\n\
         XOR R0, R0, R0\n\
         LIW R2, 777\n\
         ST  R2, R1, R0\n\
         LD  R3, R1, R0\n\
         HALT"
    ))
    .expect("assembles");
    sys.memory_mut(P1)
        .expect("p1 memory")
        .write_block(0, program.words());
    sys.activate_directly(P1).expect("activate");
    sys.enable_trace(256);
    sys.enable_service_spans(256);
    if noc_observers {
        sys.enable_packet_trace(128);
        sys.enable_telemetry(TelemetryConfig {
            sample_interval: 8,
            ..TelemetryConfig::default()
        });
    }
    // Stop mid remote read, with flits in flight and timers armed.
    sys.run(60).expect("run");
    sys.checkpoint()
}

/// The checkpoint with every observer on, built once and shared by every
/// tamper case.
fn base_checkpoint() -> &'static [u8] {
    static SNAP: OnceLock<Vec<u8>> = OnceLock::new();
    SNAP.get_or_init(|| checkpoint(true))
}

/// Length of the end of the base checkpoint's NoC payload that holds the
/// packet trace, the profiler flag and the telemetry: what turning the
/// two observers on adds, plus the three bytes the sections take when
/// they are off.
fn noc_observer_tail() -> usize {
    static TAIL: OnceLock<usize> = OnceLock::new();
    *TAIL.get_or_init(|| {
        let bare = checkpoint(false);
        inner_container(base_checkpoint()).len() - inner_container(&bare).len() + 3
    })
}

/// Recomputes the outer container checksum after a deliberate tamper,
/// so the test reaches the *decoder's* validation, not the checksum.
fn reseal(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let sum = fletcher64(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn truncation_at_any_length_is_a_typed_error() {
    let snap = base_checkpoint();
    for cut in [0, 1, 4, 8, HEADER_LEN - 1, HEADER_LEN, HEADER_LEN + 21] {
        assert!(
            matches!(System::restore(&snap[..cut]), Err(SnapshotError::Truncated)),
            "cut at {cut} bytes must be Truncated"
        );
    }
    // Cutting anywhere in the payload leaves header and length
    // disagreeing about the total size.
    for cut in [snap.len() - 1, snap.len() - 9, snap.len() / 2] {
        assert!(
            System::restore(&snap[..cut]).is_err(),
            "cut at {cut} bytes must fail"
        );
    }
}

#[test]
fn bad_magic_is_rejected() {
    let mut bytes = base_checkpoint().to_vec();
    bytes[0] ^= 0xFF;
    reseal(&mut bytes);
    assert!(matches!(
        System::restore(&bytes),
        Err(SnapshotError::BadMagic)
    ));
}

#[test]
fn future_version_is_rejected_not_guessed_at() {
    let mut bytes = base_checkpoint().to_vec();
    let future = SNAPSHOT_VERSION + 1;
    bytes[4..8].copy_from_slice(&future.to_le_bytes());
    reseal(&mut bytes);
    match System::restore(&bytes) {
        Err(SnapshotError::UnsupportedVersion(v)) => assert_eq!(v, future),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn wrong_payload_kind_is_rejected() {
    // A bare NoC snapshot is a valid container of the wrong kind; the
    // system decoder must refuse it instead of misreading the payload.
    let noc = hermes_noc::Noc::new(NocConfig::multinoc()).expect("noc");
    match System::restore(&noc.save_state()) {
        Err(SnapshotError::WrongKind { expected, found }) => {
            assert_eq!(expected, hermes_noc::snapshot::KIND_SYSTEM);
            assert_eq!(found, hermes_noc::snapshot::KIND_NOC);
        }
        other => panic!("expected WrongKind, got {other:?}"),
    }
}

#[test]
fn checksum_guards_the_payload() {
    let mut bytes = base_checkpoint().to_vec();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    assert!(matches!(
        System::restore(&bytes),
        Err(SnapshotError::ChecksumMismatch)
    ));
}

#[test]
fn mesh_shape_mismatch_is_rejected() {
    // The embedded NoC blob sits behind the outer header and an 8-byte
    // length prefix; its own payload opens with the topology tag and
    // then the mesh width. Grow the claimed width, reseal the inner
    // container, reseal the outer: both checksums pass, and only the
    // decoder's shape check is left to catch the lie.
    let mut bytes = base_checkpoint().to_vec();
    let inner_start = HEADER_LEN + 8;
    let inner_len = u64::from_le_bytes(bytes[HEADER_LEN..inner_start].try_into().unwrap()) as usize;
    let inner_end = inner_start + inner_len;
    assert_eq!(bytes[inner_start + HEADER_LEN], 0, "mesh topology tag");
    bytes[inner_start + HEADER_LEN + 1] = 4;
    let inner_body = inner_end - 8;
    let inner_sum = fletcher64(&bytes[inner_start..inner_body]);
    bytes[inner_body..inner_end].copy_from_slice(&inner_sum.to_le_bytes());
    reseal(&mut bytes);
    match System::restore(&bytes) {
        Err(SnapshotError::MeshMismatch { .. }) => {}
        other => panic!("expected MeshMismatch, got {other:?}"),
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut bytes = base_checkpoint().to_vec();
    bytes.push(0xAB);
    assert!(
        System::restore(&bytes).is_err(),
        "extra bytes after the trailer must not pass"
    );
}

#[test]
fn intact_checkpoint_still_restores_after_all_that() {
    // Sanity anchor for the suite: the shared base checkpoint itself is
    // healthy, and restoring it reproduces the exact same bytes.
    let snap = base_checkpoint();
    let sys = System::restore(snap).expect("healthy restore");
    assert_eq!(sys.checkpoint(), snap);
}

/// Where the embedded NoC container sits inside a system checkpoint:
/// behind the outer header and its 8-byte length prefix.
fn inner_container(bytes: &[u8]) -> std::ops::Range<usize> {
    let start = HEADER_LEN + 8;
    let len = u64::from_le_bytes(bytes[HEADER_LEN..start].try_into().unwrap()) as usize;
    start..start + len
}

/// Maps `pos` onto the bytes whose damage reaches a decoder, a third of
/// the cases each: the first 4 KB of the NoC payload, its observer tail
/// (packet trace and telemetry), and the system section after it
/// (service trace and spans included). The middle of the NoC payload is
/// mostly the dense latency histogram, where any value decodes.
fn damage_site(bytes: &[u8], pos: usize) -> usize {
    let inner = inner_container(bytes);
    let noc_payload = inner.start + HEADER_LEN..inner.end - 8;
    let sites = [
        noc_payload.start..noc_payload.start + noc_payload.len().min(4096),
        noc_payload.end - noc_observer_tail()..noc_payload.end,
        inner.end..bytes.len() - 8,
    ];
    let site = &sites[pos % sites.len()];
    site.start + pos / sites.len() % site.len()
}

/// Re-seals the embedded NoC container, then the outer one, so the
/// damage reaches the decoders instead of stopping at a checksum.
fn reseal_both(bytes: &mut [u8]) {
    let inner = inner_container(bytes);
    reseal(&mut bytes[inner]);
    reseal(bytes);
}

/// A damaged checkpoint either fails with a typed error or restores a
/// system that keeps running: a few hundred more cycles, then a
/// checkpoint that itself restores. Nothing may panic.
fn restore_and_run(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(mut sys) = System::restore(bytes) {
        // A run may stop with a typed error of its own; only a panic
        // fails the case.
        let _ = sys.run(400);
        let again = sys.checkpoint();
        prop_assert!(
            System::restore(&again).is_ok(),
            "restored system lost round-trip"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flipping any single bit of a decoded field either fails with a
    /// typed error or — if the flip lands somewhere truly inert — still
    /// restores a system that runs on and round-trips. It must never
    /// panic.
    #[test]
    fn any_single_bit_flip_fails_cleanly_or_round_trips(
        pos in 0usize..1_000_000,
        bit in 0u32..8,
    ) {
        let mut bytes = base_checkpoint().to_vec();
        let at = damage_site(&bytes, pos);
        bytes[at] ^= 1 << bit;
        reseal_both(&mut bytes);
        restore_and_run(&bytes)?;
    }

    /// Same property under multi-byte damage: stomp a short run of
    /// bytes with arbitrary values.
    #[test]
    fn any_byte_stomp_fails_cleanly_or_round_trips(
        pos in 0usize..1_000_000,
        values in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let mut bytes = base_checkpoint().to_vec();
        let at = damage_site(&bytes, pos);
        let end = (at + values.len()).min(bytes.len() - 8);
        bytes[at..end].copy_from_slice(&values[..end - at]);
        reseal_both(&mut bytes);
        restore_and_run(&bytes)?;
    }
}

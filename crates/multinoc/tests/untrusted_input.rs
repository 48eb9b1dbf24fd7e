//! Never-panic property for the host's serial byte stream: whatever
//! bytes the host sends, the paper system runs them to `Ok` or a typed
//! `SystemError`.

use multinoc::serial::SYNC_BYTE;
use multinoc::System;
use proptest::prelude::*;

/// Cycles each case runs. The link moves a byte every 4 cycles, so every
/// byte arrives early on, and the serial IP, the memory and any core a
/// command activates get the rest to act on them.
const BUDGET: u64 = 2_000;

/// Arbitrary bytes; a stream that opens with the sync byte and a
/// host-command opcode (read, write, activate, scanf return), so the
/// frame parser sees a well-formed head; and one whose command also
/// names a node of the system, so the serial IP acts on it.
fn host_stream() -> impl Strategy<Value = Vec<u8>> {
    let bytes = || proptest::collection::vec(any::<u8>(), 0..48);
    let framed = |head: Vec<u8>, tail: Vec<u8>| [SYNC_BYTE].into_iter().chain(head).chain(tail);
    prop_oneof![
        bytes(),
        (0..4u8, bytes()).prop_map(move |(op, tail)| framed(vec![op], tail).collect()),
        (0..4u8, 0..4u8, bytes())
            .prop_map(move |(op, node, tail)| { framed(vec![op, node], tail).collect() }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn host_byte_streams_end_ok_or_in_a_typed_error(bytes in host_stream()) {
        let mut sys = System::paper_config().expect("the paper layout builds");
        sys.link_mut().host_send(&bytes);
        let _ = sys.run(BUDGET);
    }
}

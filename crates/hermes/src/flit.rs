//! Flits — the flow-control units that move through the network.

use crate::addr::RouterAddr;
use crate::endpoint::PacketId;

/// A flit in flight, tagged with bookkeeping the simulator needs: which
/// packet it belongs to (for latency accounting), the router that injected
/// it (so delivery can report the true source even after the packet's
/// statistics record has been evicted), and the cycle it arrived in its
/// current buffer (a flit may move at most one hop per cycle).
///
/// The `value` is the raw wire content, masked to the configured flit
/// width; within a packet the first flit is the header (target address)
/// and the second is the payload size, exactly as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Raw flit contents (masked to the configured width).
    pub value: u16,
    /// The packet this flit belongs to.
    pub packet: PacketId,
    /// Router at which this flit entered the network.
    pub src: RouterAddr,
    /// Cycle at which this flit arrived in its current buffer.
    pub arrived: u64,
}

crate::snap_struct!(Flit {
    value,
    packet,
    src,
    arrived
});

impl Flit {
    /// Creates a flit.
    pub const fn new(value: u16, packet: PacketId, src: RouterAddr, arrived: u64) -> Self {
        Self {
            value,
            packet,
            src,
            arrived,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let f = Flit::new(0xAB, PacketId(7), RouterAddr::new(1, 0), 42);
        assert_eq!(f.value, 0xAB);
        assert_eq!(f.packet, PacketId(7));
        assert_eq!(f.src, RouterAddr::new(1, 0));
        assert_eq!(f.arrived, 42);
    }
}

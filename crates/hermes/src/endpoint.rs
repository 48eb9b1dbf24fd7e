//! Local network interfaces.
//!
//! Each router's Local port connects to an IP core through a small network
//! interface that serializes outgoing packets into flit streams (header,
//! size, payload) and reassembles incoming flit streams back into packets.
//! In the FPGA prototype this logic lives inside each IP's NoC wrapper;
//! here it is shared simulator infrastructure.

use std::collections::VecDeque;

use crate::addr::RouterAddr;
use crate::flit::Flit;
use crate::packet::Packet;
use crate::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::trace::SpanKind;

/// Opaque identifier of a packet submitted to the network, used to look up
/// its [`PacketRecord`](crate::stats::PacketRecord) afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub(crate) u64);

impl PacketId {
    /// Raw numeric value (unique per NoC instance, in submission order).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// A packet queued at a source, partially injected.
#[derive(Debug)]
pub(crate) struct OutgoingPacket {
    pub id: PacketId,
    /// Remaining wire flits, front = next to inject.
    pub flits: VecDeque<u16>,
    /// Whether any flit has entered the network. A packet mid-injection
    /// when its IP core dies is allowed to finish (a truncated worm would
    /// wedge healthy links); one that never started is simply discarded.
    pub started: bool,
}

/// Reassembly state at a destination.
#[derive(Debug)]
enum RxState {
    /// Waiting for a header flit.
    Header,
    /// Header seen; waiting for the size flit.
    Size {
        id: PacketId,
        src: RouterAddr,
        dest: RouterAddr,
    },
    /// Collecting `remaining` payload flits.
    Payload {
        id: PacketId,
        src: RouterAddr,
        dest: RouterAddr,
        remaining: usize,
        payload: Vec<u16>,
    },
}

/// The local network interface of one router.
#[derive(Debug)]
pub(crate) struct LocalEndpoint {
    /// Packets waiting to be injected, front first.
    pub outgoing: VecDeque<OutgoingPacket>,
    /// Earliest cycle the next flit may be injected (handshake cadence).
    pub next_inject_ok: u64,
    rx: RxState,
    /// Fully reassembled packets awaiting `try_recv`, each tagged with
    /// the router that injected it (carried on every flit, so the source
    /// stays correct even after the packet's stats record is evicted).
    pub delivered: VecDeque<(PacketId, RouterAddr, Packet)>,
    /// Packets completed here since the network last resynchronised its
    /// in-flight counts (see [`Noc::delivery_bound`]); never serialized.
    ///
    /// [`Noc::delivery_bound`]: crate::Noc::delivery_bound
    pub completed: u64,
    flit_bits: u8,
}

impl LocalEndpoint {
    pub fn new(flit_bits: u8) -> Self {
        Self {
            outgoing: VecDeque::new(),
            next_inject_ok: 0,
            rx: RxState::Header,
            delivered: VecDeque::new(),
            completed: 0,
            flit_bits,
        }
    }

    /// Queues a packet for injection.
    pub fn enqueue(&mut self, id: PacketId, packet: &Packet) {
        self.outgoing.push_back(OutgoingPacket {
            id,
            flits: packet.to_wire(self.flit_bits).into(),
            started: false,
        });
    }

    /// Total flits still waiting to enter the network.
    pub fn backlog_flits(&self) -> usize {
        self.outgoing.iter().map(|p| p.flits.len()).sum()
    }

    /// The next flit to inject, if any, without consuming it.
    pub fn peek_inject(&self) -> Option<(PacketId, u16)> {
        self.outgoing
            .front()
            .and_then(|p| p.flits.front().map(|&f| (p.id, f)))
    }

    /// Consumes the next flit to inject.
    pub fn pop_inject(&mut self) -> Option<(PacketId, u16)> {
        let packet = self.outgoing.front_mut()?;
        let flit = packet.flits.pop_front()?;
        packet.started = true;
        let id = packet.id;
        if packet.flits.is_empty() {
            self.outgoing.pop_front();
        }
        Some((id, flit))
    }

    /// Feeds one flit delivered by the router's Local output port into the
    /// reassembly state machine, and reports the packet-lifecycle event it
    /// makes: a header's [`Sink`](SpanKind::Sink), a last flit's
    /// [`Delivered`](SpanKind::Delivered), nothing mid-packet.
    pub fn receive(&mut self, flit: Flit) -> Option<(PacketId, SpanKind)> {
        // A payload flit other than the last is appended in place.
        if let RxState::Payload {
            id,
            remaining,
            payload,
            ..
        } = &mut self.rx
        {
            debug_assert_eq!(*id, flit.packet, "interleaved packets at local port");
            if *remaining > 1 {
                payload.push(flit.value);
                *remaining -= 1;
                return None;
            }
        }
        match std::mem::replace(&mut self.rx, RxState::Header) {
            RxState::Header => {
                let dest = RouterAddr::from_flit(flit.value, self.flit_bits);
                self.rx = RxState::Size {
                    id: flit.packet,
                    src: flit.src,
                    dest,
                };
                Some((flit.packet, SpanKind::Sink))
            }
            RxState::Size { id, src, dest } => {
                debug_assert_eq!(id, flit.packet, "interleaved packets at local port");
                let remaining = usize::from(flit.value);
                if remaining == 0 {
                    self.delivered
                        .push_back((id, src, Packet::new(dest, Vec::new())));
                    self.completed += 1;
                    Some((id, SpanKind::Delivered))
                } else {
                    self.rx = RxState::Payload {
                        id,
                        src,
                        dest,
                        remaining,
                        payload: Vec::with_capacity(remaining),
                    };
                    None
                }
            }
            RxState::Payload {
                id,
                src,
                dest,
                mut payload,
                ..
            } => {
                payload.push(flit.value);
                self.delivered
                    .push_back((id, src, Packet::new(dest, payload)));
                self.completed += 1;
                Some((id, SpanKind::Delivered))
            }
        }
    }

    /// The fewest flits that must still arrive here before a packet
    /// completes: the payload flits left of the packet being reassembled,
    /// 1 once a header has arrived without its size flit, else 2 (a
    /// header and a size flit).
    pub fn flits_to_completion(&self) -> u64 {
        match &self.rx {
            RxState::Header => 2,
            RxState::Size { .. } => 1,
            RxState::Payload { remaining, .. } => *remaining as u64,
        }
    }

    /// Abandons a partial reassembly (the rest of the packet was flushed
    /// at a dead link and will never arrive). Returns the id of the
    /// aborted packet, if one was mid-reassembly.
    pub fn abort_rx(&mut self) -> Option<PacketId> {
        match std::mem::replace(&mut self.rx, RxState::Header) {
            RxState::Header => None,
            RxState::Size { id, .. } | RxState::Payload { id, .. } => Some(id),
        }
    }

    /// Whether the endpoint holds no outgoing, in-reassembly or delivered
    /// traffic.
    pub fn is_idle(&self) -> bool {
        self.outgoing.is_empty() && matches!(self.rx, RxState::Header)
    }

    /// Serializes the injection queue, reassembly state machine and
    /// delivered-packet queue (`flit_bits` comes from the configuration).
    pub fn snapshot_write(&self, w: &mut SnapshotWriter) {
        w.put(&self.outgoing);
        w.put(&self.next_inject_ok);
        w.put(&self.rx);
        w.put(&self.delivered);
    }

    /// Restores state into an endpoint freshly built from the
    /// configuration.
    pub fn snapshot_read(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.outgoing = r.take()?;
        self.next_inject_ok = r.take()?;
        self.rx = r.take()?;
        self.delivered = r.take()?;
        Ok(())
    }
}

crate::snap_struct!(PacketId { 0 } OutgoingPacket { id, flits, started });

/// A tag byte (0 header, 1 size, 2 payload), then the variant's fields.
impl Snap for RxState {
    fn put(&self, w: &mut SnapshotWriter) {
        match self {
            RxState::Header => w.put(&0u8),
            RxState::Size { id, src, dest } => w.put(&(1u8, *id, *src, *dest)),
            RxState::Payload {
                id,
                src,
                dest,
                remaining,
                payload,
            } => {
                w.put(&(2u8, *id, *src, *dest));
                w.put(remaining);
                w.put(payload);
            }
        }
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.take::<u8>()? {
            0 => RxState::Header,
            1 => {
                let (id, src, dest) = r.take()?;
                RxState::Size { id, src, dest }
            }
            2 => {
                let (id, src, dest, remaining) = r.take()?;
                if remaining == 0 || remaining > usize::from(u16::MAX) {
                    return Err(SnapshotError::Malformed("payload flits remaining"));
                }
                RxState::Payload {
                    id,
                    src,
                    dest,
                    remaining,
                    payload: r.take()?,
                }
            }
            _ => return Err(SnapshotError::Malformed("rx state tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(value: u16, id: u64) -> Flit {
        Flit::new(value, PacketId(id), RouterAddr::new(0, 1), 0)
    }

    #[test]
    fn serializes_packets_into_wire_flits() {
        let mut ep = LocalEndpoint::new(8);
        ep.enqueue(PacketId(1), &Packet::new(RouterAddr::new(1, 0), vec![9, 8]));
        assert_eq!(ep.backlog_flits(), 4);
        assert_eq!(ep.pop_inject(), Some((PacketId(1), 0x10)));
        assert_eq!(ep.pop_inject(), Some((PacketId(1), 2)));
        assert_eq!(ep.pop_inject(), Some((PacketId(1), 9)));
        assert_eq!(ep.pop_inject(), Some((PacketId(1), 8)));
        assert_eq!(ep.pop_inject(), None);
        assert!(ep.is_idle());
    }

    #[test]
    fn reassembles_a_packet() {
        let mut ep = LocalEndpoint::new(8);
        assert_eq!(
            ep.receive(flit(0x11, 3)),
            Some((PacketId(3), SpanKind::Sink))
        );
        assert_eq!(ep.receive(flit(2, 3)), None);
        assert_eq!(ep.receive(flit(0xAA, 3)), None);
        let delivered = Some((PacketId(3), SpanKind::Delivered));
        assert_eq!(ep.receive(flit(0x55, 3)), delivered);
        let (id, src, packet) = ep.delivered.pop_front().unwrap();
        assert_eq!(id, PacketId(3));
        assert_eq!(src, RouterAddr::new(0, 1), "source carried on the flits");
        assert_eq!(packet.dest(), RouterAddr::new(1, 1));
        assert_eq!(packet.payload(), &[0xAA, 0x55]);
        assert!(ep.is_idle());
    }

    #[test]
    fn reassembles_zero_payload_packet() {
        let mut ep = LocalEndpoint::new(8);
        ep.receive(flit(0x00, 4));
        assert_eq!(
            ep.receive(flit(0, 4)),
            Some((PacketId(4), SpanKind::Delivered))
        );
        let (_, _, packet) = ep.delivered.pop_front().unwrap();
        assert!(packet.payload().is_empty());
    }

    #[test]
    fn back_to_back_packets() {
        let mut ep = LocalEndpoint::new(8);
        for id in 0..3u64 {
            ep.receive(flit(0x01, id));
            ep.receive(flit(1, id));
            ep.receive(flit(id as u16, id));
        }
        assert_eq!(ep.delivered.len(), 3);
        for (expect, (id, _, packet)) in ep.delivered.drain(..).enumerate() {
            assert_eq!(id, PacketId(expect as u64));
            assert_eq!(packet.payload(), &[expect as u16]);
        }
    }
}

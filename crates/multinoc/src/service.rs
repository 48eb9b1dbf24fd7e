//! The nine NoC services (§2.1 of the paper).
//!
//! "The Hermes NoC in the MultiNoC system internally supports nine
//! distinct packet formats, which define a set of services offered by the
//! communication network to the IP cores connected to it."
//!
//! A service message is carried in the *payload* of a Hermes packet (the
//! header and size flits are the network's own framing). The first
//! payload flit is the service code, the second the source router
//! address, followed by a 16-bit sequence number; 16-bit fields are then
//! split big-endian over as many flits as the flit width requires (two
//! flits per word with the paper's 8-bit flits).
//!
//! ## Reliability extension
//!
//! Two fields extend the paper's wire format so the system survives an
//! unreliable network (see `DESIGN.md`, "Fault model and recovery"):
//!
//! - every message ends in **two check flits**, a Fletcher-style
//!   [`checksum`] of all preceding payload flits. Any bit flip in one
//!   flit — and any pair of single-bit flips in two flits, for every
//!   packet length the network can carry — changes at least one check
//!   flit, so [`Message::from_packet`] detects it and returns
//!   [`ServiceError::Checksum`] instead of a mangled message;
//! - every message carries a **sequence number** right after the source
//!   address. `0` means "unsequenced" (fire-and-forget, the paper's
//!   original semantics); a non-zero value identifies the message for
//!   acknowledgement, retransmission and duplicate suppression. The
//!   tenth service code, [`Service::Ack`], acknowledges the sequence
//!   number it carries in its own `seq` field.

use std::fmt;

use hermes_noc::snapshot::Snap;
use hermes_noc::{Packet, RouterAddr, SnapshotError, SnapshotReader, SnapshotWriter};

/// Service codes, numbered in the order the paper lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ServiceCode {
    /// Request data from a memory.
    ReadFromMemory = 1,
    /// Response to a read request.
    ReadReturn = 2,
    /// Store data into some memory of the system.
    WriteInMemory = 3,
    /// Start a processor executing from address 0 of its local memory.
    ActivateProcessor = 4,
    /// Processor sends data to the host computer.
    Printf = 5,
    /// Processor requests user input from the host computer.
    Scanf = 6,
    /// Requested input data arriving from the host computer.
    ScanfReturn = 7,
    /// Wake up a processor blocked by `wait`.
    Notify = 8,
    /// Block a processor until it is notified.
    Wait = 9,
    /// Acknowledge a sequenced message (reliability extension; not one
    /// of the paper's nine services).
    Ack = 10,
    /// Primary → backup write-through replication of an accepted
    /// `WriteInMemory` (replicated-memory extension; carries the
    /// *originating* writer so the backup's duplicate suppression keeps
    /// working across a failover).
    ReplicateWrite = 11,
    /// Broadcast by a just-promoted backup: any value obtained from the
    /// named (now dead) router should be discarded and re-fetched from
    /// the new serving replica.
    ReplicaInvalidate = 12,
}

impl ServiceCode {
    pub(crate) fn from_flit(flit: u16) -> Option<Self> {
        Some(match flit {
            1 => ServiceCode::ReadFromMemory,
            2 => ServiceCode::ReadReturn,
            3 => ServiceCode::WriteInMemory,
            4 => ServiceCode::ActivateProcessor,
            5 => ServiceCode::Printf,
            6 => ServiceCode::Scanf,
            7 => ServiceCode::ScanfReturn,
            8 => ServiceCode::Notify,
            9 => ServiceCode::Wait,
            10 => ServiceCode::Ack,
            11 => ServiceCode::ReplicateWrite,
            12 => ServiceCode::ReplicaInvalidate,
            _ => return None,
        })
    }
}

/// A decoded service message (without its source address).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Service {
    /// Request `count` words starting at `addr` from the target's memory.
    ReadFromMemory {
        /// First word address.
        addr: u16,
        /// Number of words.
        count: u16,
    },
    /// Reply carrying the requested words.
    ReadReturn {
        /// First word address (echoed from the request).
        addr: u16,
        /// The words read.
        data: Vec<u16>,
    },
    /// Store `data` starting at `addr` in the target's memory.
    WriteInMemory {
        /// First word address.
        addr: u16,
        /// The words to store.
        data: Vec<u16>,
    },
    /// Start the target processor from address 0.
    ActivateProcessor,
    /// Output words for the host console.
    Printf {
        /// The words printed.
        data: Vec<u16>,
    },
    /// Request one word of user input.
    Scanf,
    /// The requested input word.
    ScanfReturn {
        /// The input value.
        value: u16,
    },
    /// Wake the target if (or when) it waits on `from`.
    Notify {
        /// Node number of the notifying processor.
        from: u16,
    },
    /// Block the target until it is notified by node `from`.
    Wait {
        /// Node number whose notify releases the target.
        from: u16,
    },
    /// Acknowledge the sequenced message whose sequence number this
    /// message carries in [`Message::seq`].
    Ack,
    /// Write-through replication of an accepted write, primary → backup.
    /// The originating writer rides along so the backup registers the
    /// write under the *client's* identity too: after a failover the
    /// client's retransmission of the same write is then recognised as a
    /// duplicate instead of being applied twice.
    ReplicateWrite {
        /// Router of the client whose write is being replicated.
        origin: RouterAddr,
        /// The client's sequence number for that write (0 if it was
        /// unsequenced).
        origin_seq: u16,
        /// First word address.
        addr: u16,
        /// The words written.
        data: Vec<u16>,
    },
    /// A promoted backup telling clients that values fetched from the
    /// dead router `stale` are no longer authoritative.
    ReplicaInvalidate {
        /// Router of the demoted (dead) primary.
        stale: RouterAddr,
    },
}

impl Service {
    /// The service code of this message.
    pub fn code(&self) -> ServiceCode {
        match self {
            Service::ReadFromMemory { .. } => ServiceCode::ReadFromMemory,
            Service::ReadReturn { .. } => ServiceCode::ReadReturn,
            Service::WriteInMemory { .. } => ServiceCode::WriteInMemory,
            Service::ActivateProcessor => ServiceCode::ActivateProcessor,
            Service::Printf { .. } => ServiceCode::Printf,
            Service::Scanf => ServiceCode::Scanf,
            Service::ScanfReturn { .. } => ServiceCode::ScanfReturn,
            Service::Notify { .. } => ServiceCode::Notify,
            Service::Wait { .. } => ServiceCode::Wait,
            Service::Ack => ServiceCode::Ack,
            Service::ReplicateWrite { .. } => ServiceCode::ReplicateWrite,
            Service::ReplicaInvalidate { .. } => ServiceCode::ReplicaInvalidate,
        }
    }
}

impl Service {
    /// The router a replication message names — the origin of a
    /// replicated write or the stale primary of an invalidation.
    pub(crate) fn peer(&self) -> Option<RouterAddr> {
        match *self {
            Service::ReplicateWrite { origin, .. } => Some(origin),
            Service::ReplicaInvalidate { stale } => Some(stale),
            _ => None,
        }
    }
}

/// The code's number as one byte.
impl Snap for ServiceCode {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&(*self as u8));
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        ServiceCode::from_flit(u16::from(r.take::<u8>()?))
            .ok_or(SnapshotError::Malformed("service code tag"))
    }
}

/// The service code, then the variant's fields. Distinct from the wire
/// format, which packs fields into flit-width chunks and appends check
/// flits.
impl Snap for Service {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.code());
        match self {
            Service::ReadFromMemory { addr, count } => w.put(&(*addr, *count)),
            Service::ReadReturn { addr, data } | Service::WriteInMemory { addr, data } => {
                w.put(addr);
                w.put(data);
            }
            Service::ActivateProcessor | Service::Scanf | Service::Ack => {}
            Service::Printf { data } => w.put(data),
            Service::ScanfReturn { value } => w.put(value),
            Service::Notify { from } | Service::Wait { from } => w.put(from),
            Service::ReplicateWrite {
                origin,
                origin_seq,
                addr,
                data,
            } => {
                w.put(&(*origin, *origin_seq, *addr));
                w.put(data);
            }
            Service::ReplicaInvalidate { stale } => w.put(stale),
        }
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.take()? {
            ServiceCode::ReadFromMemory => Service::ReadFromMemory {
                addr: r.take()?,
                count: r.take()?,
            },
            ServiceCode::ReadReturn => Service::ReadReturn {
                addr: r.take()?,
                data: r.take()?,
            },
            ServiceCode::WriteInMemory => Service::WriteInMemory {
                addr: r.take()?,
                data: r.take()?,
            },
            ServiceCode::ActivateProcessor => Service::ActivateProcessor,
            ServiceCode::Printf => Service::Printf { data: r.take()? },
            ServiceCode::Scanf => Service::Scanf,
            ServiceCode::ScanfReturn => Service::ScanfReturn { value: r.take()? },
            ServiceCode::Notify => Service::Notify { from: r.take()? },
            ServiceCode::Wait => Service::Wait { from: r.take()? },
            ServiceCode::Ack => Service::Ack,
            ServiceCode::ReplicateWrite => Service::ReplicateWrite {
                origin: r.take()?,
                origin_seq: r.take()?,
                addr: r.take()?,
                data: r.take()?,
            },
            ServiceCode::ReplicaInvalidate => Service::ReplicaInvalidate { stale: r.take()? },
        })
    }
}

impl fmt::Display for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Service::ReadFromMemory { addr, count } => {
                write!(f, "read from memory [{addr:#06x}; {count}]")
            }
            Service::ReadReturn { addr, data } => {
                write!(f, "read return [{addr:#06x}; {}]", data.len())
            }
            Service::WriteInMemory { addr, data } => {
                write!(f, "write in memory [{addr:#06x}; {}]", data.len())
            }
            Service::ActivateProcessor => write!(f, "activate processor"),
            Service::Printf { data } => write!(f, "printf ({} words)", data.len()),
            Service::Scanf => write!(f, "scanf"),
            Service::ScanfReturn { value } => write!(f, "scanf return {value:#06x}"),
            Service::Notify { from } => write!(f, "notify from node {from}"),
            Service::Wait { from } => write!(f, "wait for node {from}"),
            Service::Ack => write!(f, "ack"),
            Service::ReplicateWrite {
                origin, addr, data, ..
            } => {
                write!(
                    f,
                    "replicate write from {origin} [{addr:#06x}; {}]",
                    data.len()
                )
            }
            Service::ReplicaInvalidate { stale } => {
                write!(f, "invalidate replica of {stale}")
            }
        }
    }
}

/// A service message together with the router that sent it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Router address of the sender.
    pub src: RouterAddr,
    /// Sequence number; `0` means unsequenced (fire-and-forget). For
    /// [`Service::Ack`] this is the sequence number being acknowledged,
    /// for responses ([`Service::ReadReturn`], [`Service::ScanfReturn`])
    /// it echoes the request's sequence number.
    pub seq: u16,
    /// The service payload.
    pub service: Service,
}

/// Malformed service payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Payload shorter than the fixed fields of its service.
    Truncated,
    /// Unknown service code.
    UnknownCode(u16),
    /// Variable-length data did not align to whole 16-bit words.
    RaggedData,
    /// The trailing check flits did not match the payload: at least one
    /// flit was corrupted in flight.
    Checksum,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Truncated => write!(f, "service payload truncated"),
            ServiceError::UnknownCode(c) => write!(f, "unknown service code {c}"),
            ServiceError::RaggedData => write!(f, "service data not word-aligned"),
            ServiceError::Checksum => write!(f, "service checksum mismatch"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Flits needed to carry one 16-bit word at the given flit width.
pub fn flits_per_word(flit_bits: u8) -> usize {
    usize::from(16_u8.div_ceil(flit_bits))
}

/// Packs a 16-bit word into big-endian flit chunks.
pub fn pack_u16(value: u16, flit_bits: u8, out: &mut Vec<u16>) {
    let chunks = flits_per_word(flit_bits);
    let mask = if flit_bits >= 16 {
        u16::MAX
    } else {
        (1 << flit_bits) - 1
    };
    for i in (0..chunks).rev() {
        let shift = (i as u8) * flit_bits;
        let chunk = if shift >= 16 {
            0
        } else {
            (value >> shift) & mask
        };
        out.push(chunk);
    }
}

/// Reads one big-endian packed word from `flits` at `pos`, advancing it.
pub fn unpack_u16(flits: &[u16], pos: &mut usize, flit_bits: u8) -> Result<u16, ServiceError> {
    let chunks = flits_per_word(flit_bits);
    if *pos + chunks > flits.len() {
        return Err(ServiceError::Truncated);
    }
    let mut value: u32 = 0;
    for _ in 0..chunks {
        value = (value << flit_bits) | u32::from(flits[*pos]);
        *pos += 1;
    }
    Ok(value as u16)
}

/// Fletcher-style checksum of a flit sequence at the given flit width:
/// `c0` is the sum of the flits and `c1` the sum of the running sums,
/// both modulo `2^flit_bits − 1`. The two values travel as the last two
/// payload flits.
///
/// A single-bit flip changes a flit by ±2^b with `b < flit_bits`, never
/// a multiple of the modulus, so `c0` always catches it. Two single-bit
/// flips that cancel in `c0` must be exact negations, and then cancel in
/// the position-weighted `c1` only when the flits lie a full modulus
/// apart — longer than any packet the network accepts. (A plain XOR
/// parity, by contrast, silently passes any two flips of the same bit
/// position.)
pub fn checksum(flits: &[u16], flit_bits: u8) -> (u16, u16) {
    let m = (1u64 << flit_bits) - 1;
    let mut c0: u64 = 0;
    let mut c1: u64 = 0;
    for &f in flits {
        c0 = (c0 + u64::from(f)) % m;
        c1 = (c1 + c0) % m;
    }
    (c0 as u16, c1 as u16)
}

impl Message {
    /// Creates an unsequenced message (`seq == 0`).
    pub fn new(src: RouterAddr, service: Service) -> Self {
        Self {
            src,
            seq: 0,
            service,
        }
    }

    /// Sets the sequence number.
    pub fn with_seq(mut self, seq: u16) -> Self {
        self.seq = seq;
        self
    }

    /// Encodes the message into a network packet for router `dest`.
    pub fn to_packet(&self, dest: RouterAddr, flit_bits: u8) -> Packet {
        let mut payload = Vec::new();
        payload.push(self.service.code() as u16);
        payload.push(self.src.to_flit(flit_bits));
        pack_u16(self.seq, flit_bits, &mut payload);
        let mut word = |v: u16| pack_u16(v, flit_bits, &mut payload);
        match &self.service {
            Service::ReadFromMemory { addr, count } => {
                word(*addr);
                word(*count);
            }
            Service::ReadReturn { addr, data } | Service::WriteInMemory { addr, data } => {
                word(*addr);
                for &d in data {
                    word(d);
                }
            }
            Service::ActivateProcessor | Service::Scanf => {}
            Service::Printf { data } => {
                for &d in data {
                    word(d);
                }
            }
            Service::ScanfReturn { value } => word(*value),
            Service::Notify { from } | Service::Wait { from } => word(*from),
            Service::Ack => {}
            Service::ReplicateWrite {
                origin,
                origin_seq,
                addr,
                data,
            } => {
                payload.push(origin.to_flit(flit_bits));
                pack_u16(*origin_seq, flit_bits, &mut payload);
                pack_u16(*addr, flit_bits, &mut payload);
                for &d in data {
                    pack_u16(d, flit_bits, &mut payload);
                }
            }
            Service::ReplicaInvalidate { stale } => {
                payload.push(stale.to_flit(flit_bits));
            }
        }
        let (c0, c1) = checksum(&payload, flit_bits);
        payload.push(c0);
        payload.push(c1);
        Packet::new(dest, payload)
    }

    /// Decodes a delivered packet payload back into a message, verifying
    /// and stripping the two trailing check flits.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] if the payload is truncated, fails its checksum,
    /// carries an unknown code, or its variable-length data is not
    /// word-aligned.
    pub fn from_packet(packet: &Packet, flit_bits: u8) -> Result<Self, ServiceError> {
        let all = packet.payload();
        // Minimum: code + src + seq word + two check flits.
        if all.len() < 4 + flits_per_word(flit_bits) {
            return Err(ServiceError::Truncated);
        }
        let (flits, check) = all.split_at(all.len() - 2);
        if checksum(flits, flit_bits) != (check[0], check[1]) {
            return Err(ServiceError::Checksum);
        }
        let code = ServiceCode::from_flit(flits[0]).ok_or(ServiceError::UnknownCode(flits[0]))?;
        let src = RouterAddr::from_flit(flits[1], flit_bits);
        let mut pos = 2;
        let seq = unpack_u16(flits, &mut pos, flit_bits)?;
        let read_word = |pos: &mut usize| unpack_u16(flits, pos, flit_bits);
        let read_rest = |pos: &mut usize| -> Result<Vec<u16>, ServiceError> {
            let per = flits_per_word(flit_bits);
            if !(flits.len() - *pos).is_multiple_of(per) {
                return Err(ServiceError::RaggedData);
            }
            let mut data = Vec::with_capacity((flits.len() - *pos) / per);
            while *pos < flits.len() {
                data.push(unpack_u16(flits, pos, flit_bits)?);
            }
            Ok(data)
        };
        let service = match code {
            ServiceCode::ReadFromMemory => Service::ReadFromMemory {
                addr: read_word(&mut pos)?,
                count: read_word(&mut pos)?,
            },
            ServiceCode::ReadReturn => Service::ReadReturn {
                addr: read_word(&mut pos)?,
                data: read_rest(&mut pos)?,
            },
            ServiceCode::WriteInMemory => Service::WriteInMemory {
                addr: read_word(&mut pos)?,
                data: read_rest(&mut pos)?,
            },
            ServiceCode::ActivateProcessor => Service::ActivateProcessor,
            ServiceCode::Printf => Service::Printf {
                data: read_rest(&mut pos)?,
            },
            ServiceCode::Scanf => Service::Scanf,
            ServiceCode::ScanfReturn => Service::ScanfReturn {
                value: read_word(&mut pos)?,
            },
            ServiceCode::Notify => Service::Notify {
                from: read_word(&mut pos)?,
            },
            ServiceCode::Wait => Service::Wait {
                from: read_word(&mut pos)?,
            },
            ServiceCode::Ack => Service::Ack,
            ServiceCode::ReplicateWrite => {
                if pos >= flits.len() {
                    return Err(ServiceError::Truncated);
                }
                let origin = RouterAddr::from_flit(flits[pos], flit_bits);
                pos += 1;
                Service::ReplicateWrite {
                    origin,
                    origin_seq: read_word(&mut pos)?,
                    addr: read_word(&mut pos)?,
                    data: read_rest(&mut pos)?,
                }
            }
            ServiceCode::ReplicaInvalidate => {
                if pos >= flits.len() {
                    return Err(ServiceError::Truncated);
                }
                Service::ReplicaInvalidate {
                    stale: RouterAddr::from_flit(flits[pos], flit_bits),
                }
            }
        };
        Ok(Self { src, seq, service })
    }

    /// Maximum words per read/write/printf data block so the packet stays
    /// within the flit-width packet size limit.
    pub fn max_data_words(flit_bits: u8) -> usize {
        let max_payload = (1usize << flit_bits)
            .saturating_sub(2)
            .min(if flit_bits >= 16 {
                usize::from(u16::MAX)
            } else {
                (1 << flit_bits) - 1
            });
        let per = flits_per_word(flit_bits);
        // code + src + seq + addr + two check flits leave the rest.
        (max_payload - 4 - 2 * per) / per
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(service: Service) {
        let src = RouterAddr::new(0, 1);
        let dest = RouterAddr::new(1, 1);
        for flit_bits in [8u8, 16] {
            let msg = Message::new(src, service.clone());
            let packet = msg.to_packet(dest, flit_bits);
            assert_eq!(packet.dest(), dest);
            let back = Message::from_packet(&packet, flit_bits).expect("decodes");
            assert_eq!(back, msg, "flit width {flit_bits}");
        }
    }

    #[test]
    fn all_nine_services_round_trip() {
        round_trip(Service::ReadFromMemory {
            addr: 0x20,
            count: 4,
        });
        round_trip(Service::ReadReturn {
            addr: 0x20,
            data: vec![1, 0xFFFF, 42],
        });
        round_trip(Service::WriteInMemory {
            addr: 0x3FF,
            data: vec![0xABCD],
        });
        round_trip(Service::ActivateProcessor);
        round_trip(Service::Printf {
            data: vec![72, 105],
        });
        round_trip(Service::Scanf);
        round_trip(Service::ScanfReturn { value: 0xBEEF });
        round_trip(Service::Notify { from: 2 });
        round_trip(Service::Wait { from: 1 });
    }

    #[test]
    fn replication_services_round_trip() {
        round_trip(Service::ReplicateWrite {
            origin: RouterAddr::new(2, 1),
            origin_seq: 0x1234,
            addr: 0x3FF,
            data: vec![0xABCD, 7],
        });
        round_trip(Service::ReplicateWrite {
            origin: RouterAddr::new(0, 0),
            origin_seq: 1,
            addr: 0,
            data: vec![],
        });
        round_trip(Service::ReplicaInvalidate {
            stale: RouterAddr::new(1, 2),
        });
    }

    #[test]
    fn ack_and_sequence_numbers_round_trip() {
        let src = RouterAddr::new(1, 0);
        for flit_bits in [8u8, 16] {
            let msg = Message::new(src, Service::Ack).with_seq(0xBEEF);
            let packet = msg.to_packet(RouterAddr::new(0, 0), flit_bits);
            let back = Message::from_packet(&packet, flit_bits).expect("decodes");
            assert_eq!(back.seq, 0xBEEF);
            assert_eq!(back.service, Service::Ack);
        }
    }

    #[test]
    fn empty_data_blocks_round_trip() {
        round_trip(Service::Printf { data: vec![] });
        round_trip(Service::WriteInMemory {
            addr: 0,
            data: vec![],
        });
    }

    /// Appends the two check flits to a hand-built 8-bit payload.
    fn with_ck(mut flits: Vec<u16>) -> Vec<u16> {
        let (c0, c1) = checksum(&flits, 8);
        flits.extend([c0, c1]);
        flits
    }

    #[test]
    fn wire_format_is_as_documented() {
        // 8-bit flits: [code, src, seq_hi, seq_lo, addr_hi, addr_lo,
        // count_hi, count_lo, c0, c1].
        let msg = Message::new(
            RouterAddr::new(0, 0),
            Service::ReadFromMemory {
                addr: 0x0120,
                count: 1,
            },
        )
        .with_seq(0x0007);
        let packet = msg.to_packet(RouterAddr::new(1, 1), 8);
        assert_eq!(
            packet.payload(),
            &[1, 0x00, 0x00, 0x07, 0x01, 0x20, 0x00, 0x01, 0x2A, 0x90]
        );
        // c0 = sum of the fields mod 255, c1 = sum of running sums.
        assert_eq!(checksum(&packet.payload()[..8], 8), (0x2A, 0x90));
    }

    #[test]
    fn decode_rejects_garbage() {
        // Unknown code with *valid* check flits still fails.
        let p = Packet::new(RouterAddr::new(0, 0), with_ck(vec![99, 0, 0, 0]));
        assert_eq!(
            Message::from_packet(&p, 8),
            Err(ServiceError::UnknownCode(99))
        );
        let p = Packet::new(RouterAddr::new(0, 0), vec![1]);
        assert_eq!(Message::from_packet(&p, 8), Err(ServiceError::Truncated));
        let p = Packet::new(RouterAddr::new(0, 0), vec![1, 0, 0, 0, 0]);
        assert_eq!(Message::from_packet(&p, 8), Err(ServiceError::Truncated));
        // Ragged printf data (odd flit count at 8-bit width), check ok.
        let p = Packet::new(RouterAddr::new(0, 0), with_ck(vec![5, 0, 0, 0, 1, 2, 3]));
        assert_eq!(Message::from_packet(&p, 8), Err(ServiceError::RaggedData));
    }

    #[test]
    fn checksum_catches_any_single_flit_corruption() {
        let msg = Message::new(
            RouterAddr::new(0, 1),
            Service::ReadReturn {
                addr: 0x40,
                data: vec![0x1234, 0x00FF],
            },
        )
        .with_seq(3);
        let good = msg.to_packet(RouterAddr::new(1, 1), 8);
        assert!(Message::from_packet(&good, 8).is_ok());
        for i in 0..good.payload().len() {
            for bit in 0..8 {
                let mut flits = good.payload().to_vec();
                flits[i] ^= 1 << bit;
                let bad = Packet::new(good.dest(), flits);
                match Message::from_packet(&bad, 8) {
                    Err(ServiceError::Checksum) => {}
                    other => panic!("corruption of flit {i} bit {bit} gave {other:?}"),
                }
            }
        }
    }

    #[test]
    fn checksum_catches_same_bit_double_corruption() {
        // The failure mode that breaks a plain XOR parity: the same bit
        // flipped in two different flits. The position-weighted second
        // check flit must still catch every such pair.
        let msg = Message::new(
            RouterAddr::new(0, 1),
            Service::WriteInMemory {
                addr: 0x10,
                data: vec![0x5555, 0xAAAA, 0x0F0F],
            },
        )
        .with_seq(9);
        let good = msg.to_packet(RouterAddr::new(1, 1), 8);
        let n = good.payload().len();
        for i in 0..n {
            for j in (i + 1)..n {
                for bit in 0..8 {
                    let mut flits = good.payload().to_vec();
                    flits[i] ^= 1 << bit;
                    flits[j] ^= 1 << bit;
                    let bad = Packet::new(good.dest(), flits);
                    match Message::from_packet(&bad, 8) {
                        Err(ServiceError::Checksum) => {}
                        other => {
                            panic!("flits {i},{j} bit {bit} corrupted, got {other:?}")
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn snapshot_codec_round_trips_every_service() {
        let services = vec![
            Service::ReadFromMemory {
                addr: 0x20,
                count: 4,
            },
            Service::ReadReturn {
                addr: 0x20,
                data: vec![1, 0xFFFF, 42],
            },
            Service::WriteInMemory {
                addr: 0x3FF,
                data: vec![0xABCD],
            },
            Service::ActivateProcessor,
            Service::Printf {
                data: vec![72, 105],
            },
            Service::Scanf,
            Service::ScanfReturn { value: 0xBEEF },
            Service::Notify { from: 2 },
            Service::Wait { from: 1 },
            Service::Ack,
            Service::ReplicateWrite {
                origin: RouterAddr::new(1, 0),
                origin_seq: 7,
                addr: 0x10,
                data: vec![9, 8],
            },
            Service::ReplicaInvalidate {
                stale: RouterAddr::new(0, 1),
            },
        ];
        let mut w = SnapshotWriter::new();
        w.put(&services);
        let bytes = w.finish(hermes_noc::snapshot::KIND_SYSTEM);
        let mut r = SnapshotReader::open(&bytes, hermes_noc::snapshot::KIND_SYSTEM).unwrap();
        assert_eq!(r.take::<Vec<Service>>().unwrap(), services);
        r.finish().unwrap();
    }

    #[test]
    fn pack_unpack_words() {
        let mut flits = Vec::new();
        pack_u16(0xABCD, 8, &mut flits);
        assert_eq!(flits, vec![0xAB, 0xCD]);
        let mut pos = 0;
        assert_eq!(unpack_u16(&flits, &mut pos, 8).unwrap(), 0xABCD);
        assert_eq!(pos, 2);

        let mut flits = Vec::new();
        pack_u16(0xABCD, 4, &mut flits);
        assert_eq!(flits, vec![0xA, 0xB, 0xC, 0xD]);
        let mut pos = 0;
        assert_eq!(unpack_u16(&flits, &mut pos, 4).unwrap(), 0xABCD);

        let mut flits = Vec::new();
        pack_u16(0xABCD, 16, &mut flits);
        assert_eq!(flits, vec![0xABCD]);
    }

    #[test]
    fn max_data_words_fits_packets() {
        // 8-bit flits: 254 payload max; code+src+check(4) + seq(2) +
        // addr(2) = 8; (254-8)/2 = 123.
        assert_eq!(Message::max_data_words(8), 123);
        let msg = Message::new(
            RouterAddr::new(0, 0),
            Service::WriteInMemory {
                addr: 0,
                data: vec![0; Message::max_data_words(8)],
            },
        );
        let packet = msg.to_packet(RouterAddr::new(1, 1), 8);
        assert!(packet.payload().len() <= 254);
    }
}

//! The RS-232 serial link and the host protocol frames (§2.2, §4).
//!
//! The physical UART is modelled as two independent byte channels with a
//! configurable per-byte transfer time (`cycles_per_byte` — at 25 MHz and
//! 115 200 baud a 10-bit character takes ~2170 clock cycles; tests
//! default to a fast link so they exercise the protocol, experiment E10
//! sweeps realistic rates).
//!
//! On top of the byte stream, the Serial software speaks a small framed
//! protocol. The paper shows its shape in the Fig. 9 walkthrough: the
//! user types `00 01 01 00 20`, "a read operation (00) from P1 processor
//! local memory (01), reading just one memory position (01) and starting
//! at address 0020H" — i.e. `[command, node, count, addr_hi, addr_lo]`.
//! Commands carrying data append two big-endian bytes per word.

use std::collections::VecDeque;
use std::fmt;

use hermes_noc::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};

/// Serial link timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SerialConfig {
    /// Clock cycles one byte occupies on the wire in each direction.
    pub cycles_per_byte: u64,
}

impl SerialConfig {
    /// Fast link for tests and functional runs (4 cycles per byte).
    pub fn fast() -> Self {
        Self { cycles_per_byte: 4 }
    }

    /// Timing of a real UART: `clock_hz` system clock, `baud` line rate,
    /// 10 bits per character (start + 8 data + stop).
    pub fn from_baud(clock_hz: f64, baud: f64) -> Self {
        Self {
            cycles_per_byte: (clock_hz / baud * 10.0).ceil() as u64,
        }
    }
}

impl Default for SerialConfig {
    fn default() -> Self {
        Self::fast()
    }
}

/// One direction of the link: bytes in flight become available
/// `cycles_per_byte` apart, at most one per cycle.
#[derive(Debug, Default)]
struct Channel {
    in_flight: VecDeque<u8>,
    ready: VecDeque<u8>,
    next_deliver: u64,
}

impl Channel {
    /// Delivers the next byte in flight if its tick has come, and returns
    /// it.
    fn step(&mut self, now: u64, cycles_per_byte: u64) -> Option<u8> {
        if now < self.next_deliver {
            return None;
        }
        let byte = self.in_flight.pop_front()?;
        self.ready.push_back(byte);
        self.next_deliver = now + cycles_per_byte.max(1);
        Some(byte)
    }

    /// The baud tick of the byte `k` places behind the next one in
    /// flight, if that many are in flight. Exact once the burst is
    /// clocked: a step after the last send from outside has set
    /// `next_deliver` past that step's cycle.
    fn tick(&self, k: usize, cycles_per_byte: u64) -> Option<u64> {
        (k < self.in_flight.len()).then(|| self.next_deliver + k as u64 * cycles_per_byte.max(1))
    }

    fn is_idle(&self) -> bool {
        self.in_flight.is_empty() && self.ready.is_empty()
    }
}

/// Where the device frames of the byte stream towards the host end: the
/// parse a [`FrameBuffer`] fed that stream byte by byte makes, followed
/// at each byte the link delivers. Derived from the stream, never
/// serialized.
#[derive(Debug, Default)]
struct FrameEnds {
    /// The first bytes of the frame the next byte in flight belongs to,
    /// as far as they have been delivered: the opcode and count bytes
    /// that fix the frame's length.
    head: [u8; 3],
    /// How many bytes of that frame have been delivered.
    delivered: usize,
    /// Whether the parse is unknown: on a restored link until the bytes
    /// in flight at the save have all arrived, and on a stream broken by
    /// an unknown opcode until it drains. Every byte is then an end.
    lost: bool,
}

impl FrameEnds {
    /// Follows one delivered byte; `drained` says whether it was the last
    /// in flight. A lost parse starts again on a frame once the stream
    /// drains: the serial IP sends whole frames.
    fn deliver(&mut self, byte: u8, drained: bool) {
        if !self.lost {
            if let Some(slot) = self.head.get_mut(self.delivered) {
                *slot = byte;
            }
            self.delivered += 1;
            let head = &self.head[..self.delivered.min(3)];
            match device_frame_need(|i| head.get(i).copied()) {
                Some(Ok(need)) if need == self.delivered => self.delivered = 0,
                Some(Err(_)) => self.lost = true,
                _ => {}
            }
        }
        if drained && self.lost {
            *self = Self::default();
        }
    }

    /// The place in `in_flight` of the first byte that ends a frame, or
    /// of the last byte if none does; `None` with nothing in flight.
    fn next_end(&self, in_flight: &VecDeque<u8>) -> Option<usize> {
        let last = in_flight.len().checked_sub(1)?;
        if self.lost {
            return Some(0);
        }
        let held = self.delivered;
        let at = |i: usize| match i.checked_sub(held) {
            Some(k) => in_flight.get(k).copied(),
            None => self.head.get(i).copied(),
        };
        Some(match device_frame_need(at) {
            Some(Ok(need)) => (need - held - 1).min(last),
            Some(Err(_)) => 0,
            None => last,
        })
    }
}

/// The bidirectional RS-232 link between host computer and MultiNoC
/// (`tx`/`rx` of Fig. 1).
///
/// The system steps the link at every cycle it visits. A run loop does
/// not visit the baud ticks of bytes that change nothing an IP acts on or
/// the host sees: towards the serial IP the bytes that complete no host
/// command, towards the host the bytes at which a [`FrameBuffer`] fed the
/// stream byte by byte parses no device frame, except the last byte in
/// flight. It delivers them afterwards, each at its own tick
/// (`next_deliver + k × cycles_per_byte` within a burst), which leaves
/// the link where stepping every cycle would. Where the frames towards
/// the host end is derived from the stream and not serialized: a
/// restored link stops at every byte that was in flight towards the host
/// when it was saved.
#[derive(Debug, Default)]
pub struct SerialLink {
    config: SerialConfig,
    to_device: Channel,
    to_host: Channel,
    /// Where the frames towards the host end; derived, not serialized.
    host_frames: FrameEnds,
}

impl SerialLink {
    /// A link with the given timing.
    pub fn new(config: SerialConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }

    /// The link timing.
    pub fn config(&self) -> SerialConfig {
        self.config
    }

    /// Advances the per-byte timers by one clock cycle.
    pub fn step(&mut self, now: u64) {
        self.to_device.step(now, self.config.cycles_per_byte);
        if let Some(byte) = self.to_host.step(now, self.config.cycles_per_byte) {
            let drained = self.to_host.in_flight.is_empty();
            self.host_frames.deliver(byte, drained);
        }
    }

    /// Delivers every byte in flight in either direction whose baud tick
    /// is at most `through`, each at its own tick, and returns how many
    /// went towards the device: stepping the link at every cycle up to
    /// `through`, for bursts that are already clocked.
    pub(crate) fn deliver_through(&mut self, through: u64) -> usize {
        let cycles_per_byte = self.config.cycles_per_byte;
        let towards_device = self.to_device.in_flight.len();
        let next_tick = |link: &Self| {
            let ticks = [&link.to_device, &link.to_host].map(|c| c.tick(0, cycles_per_byte));
            ticks.into_iter().flatten().min()
        };
        while let Some(tick) = next_tick(self).filter(|&tick| tick <= through) {
            self.step(tick);
        }
        towards_device - self.to_device.in_flight.len()
    }

    /// Host transmits bytes towards the device.
    pub fn host_send(&mut self, bytes: &[u8]) {
        self.to_device.in_flight.extend(bytes.iter().copied());
    }

    /// Host collects one received byte, if any has arrived.
    pub fn host_recv(&mut self) -> Option<u8> {
        self.to_host.ready.pop_front()
    }

    /// Device transmits bytes towards the host.
    pub fn device_send(&mut self, bytes: &[u8]) {
        self.to_host.in_flight.extend(bytes.iter().copied());
    }

    /// Device collects one received byte, if any has arrived.
    pub fn device_recv(&mut self) -> Option<u8> {
        self.to_device.ready.pop_front()
    }

    /// Whether no byte is queued or in flight in either direction.
    pub fn is_idle(&self) -> bool {
        self.to_device.is_idle() && self.to_host.is_idle()
    }

    /// The baud tick of the next byte in flight towards the host that the
    /// run loop, at cycle `now`, must stop at: the first byte at which a
    /// [`FrameBuffer`] fed the host-bound stream byte by byte would parse
    /// a device frame, whatever the [`device_send`](Self::device_send)
    /// calls were, else the last byte in flight. A restored link with
    /// bytes in flight towards the host stops at every byte until they
    /// have all arrived. A burst not yet clocked — sent into an idle
    /// direction since the link last stepped — stops at its first tick,
    /// at or before `now`, so that the visit that follows clocks it.
    pub(crate) fn next_host_stop(&self, now: u64) -> Option<u64> {
        let cycles_per_byte = self.config.cycles_per_byte;
        let first = self.to_host.tick(0, cycles_per_byte)?;
        if first <= now {
            return Some(first);
        }
        let end = self.host_frames.next_end(&self.to_host.in_flight)?;
        self.to_host.tick(end, cycles_per_byte)
    }

    /// The baud tick at which byte `k` of those in flight towards the
    /// device (0 the next) arrives, if that many are in flight and the
    /// burst is clocked (see [`deliver_through`](Self::deliver_through)).
    pub(crate) fn device_tick(&self, k: usize) -> Option<u64> {
        self.to_device.tick(k, self.config.cycles_per_byte)
    }

    /// The bytes in flight towards the device, next first. Only
    /// [`step`](Self::step) takes from them and only
    /// [`host_send`](Self::host_send) adds.
    pub(crate) fn bytes_to_device(&self) -> &VecDeque<u8> {
        &self.to_device.in_flight
    }
}

/// The synchronization byte the host sends first so the prototype can
/// lock to its baud rate (§4: "transmitting the value 55H").
pub const SYNC_BYTE: u8 = 0x55;

/// Commands the host sends to the MultiNoC system. The serial IP accepts
/// exactly these four (§2.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostCommand {
    /// Read `count` words starting at `addr` from `node`'s memory.
    ReadMemory {
        /// Target node number.
        node: u8,
        /// Number of words (1–255).
        count: u8,
        /// First word address.
        addr: u16,
    },
    /// Write `data` starting at `addr` into `node`'s memory.
    WriteMemory {
        /// Target node number.
        node: u8,
        /// First word address.
        addr: u16,
        /// Words to write (at most 255).
        data: Vec<u16>,
    },
    /// Activate `node`'s processor.
    Activate {
        /// Target node number.
        node: u8,
    },
    /// Answer a pending scanf of `node` with `value`.
    ScanfReturn {
        /// Target node number.
        node: u8,
        /// The input word.
        value: u16,
    },
}

/// Command opcodes on the wire.
mod opcode {
    pub const READ: u8 = 0x00;
    pub const WRITE: u8 = 0x01;
    pub const ACTIVATE: u8 = 0x02;
    pub const SCANF_RETURN: u8 = 0x03;
    pub const PRINTF: u8 = 0x05;
    pub const SCANF_REQUEST: u8 = 0x06;
    pub const READ_RETURN: u8 = 0x07;
}

impl HostCommand {
    /// Serializes the command into its byte frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            HostCommand::ReadMemory { node, count, addr } => {
                vec![
                    opcode::READ,
                    *node,
                    *count,
                    (addr >> 8) as u8,
                    (addr & 0xFF) as u8,
                ]
            }
            HostCommand::WriteMemory { node, addr, data } => {
                let mut bytes = vec![
                    opcode::WRITE,
                    *node,
                    data.len() as u8,
                    (addr >> 8) as u8,
                    (addr & 0xFF) as u8,
                ];
                for &word in data {
                    bytes.push((word >> 8) as u8);
                    bytes.push((word & 0xFF) as u8);
                }
                bytes
            }
            HostCommand::Activate { node } => vec![opcode::ACTIVATE, *node],
            HostCommand::ScanfReturn { node, value } => vec![
                opcode::SCANF_RETURN,
                *node,
                (value >> 8) as u8,
                (value & 0xFF) as u8,
            ],
        }
    }
}

/// Frames the MultiNoC system sends to the host: printf output, scanf
/// requests and read returns (§2.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceFrame {
    /// One printf word from a processor.
    Printf {
        /// Originating node number.
        node: u8,
        /// The printed word.
        value: u16,
    },
    /// A processor is blocked in scanf, waiting for input.
    ScanfRequest {
        /// Requesting node number.
        node: u8,
    },
    /// Data answering a host read command.
    ReadReturn {
        /// Node the data came from.
        node: u8,
        /// First word address.
        addr: u16,
        /// The words read.
        data: Vec<u16>,
    },
}

impl DeviceFrame {
    /// Serializes the frame into bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            DeviceFrame::Printf { node, value } => vec![
                opcode::PRINTF,
                *node,
                (value >> 8) as u8,
                (value & 0xFF) as u8,
            ],
            DeviceFrame::ScanfRequest { node } => vec![opcode::SCANF_REQUEST, *node],
            DeviceFrame::ReadReturn { node, addr, data } => {
                let mut bytes = vec![
                    opcode::READ_RETURN,
                    *node,
                    data.len() as u8,
                    (addr >> 8) as u8,
                    (addr & 0xFF) as u8,
                ];
                for &word in data {
                    bytes.push((word >> 8) as u8);
                    bytes.push((word & 0xFF) as u8);
                }
                bytes
            }
        }
    }
}

/// Incremental frame parser: feed bytes, collect complete frames.
/// Used on both ends (the serial IP parses [`HostCommand`]s, the host
/// parses [`DeviceFrame`]s) through the two `parse_*` functions.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    bytes: Vec<u8>,
}

/// Malformed byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError {
    /// The opcode byte that was not recognized.
    pub opcode: u8,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown frame opcode {:#04x}", self.opcode)
    }
}

impl std::error::Error for FrameError {}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one received byte.
    pub fn push(&mut self, byte: u8) {
        self.bytes.push(byte);
    }

    /// Bytes currently buffered (a partial frame).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    fn word(&self, at: usize) -> u16 {
        (u16::from(self.bytes[at]) << 8) | u16::from(self.bytes[at + 1])
    }

    fn words(&self, at: usize, count: usize) -> Vec<u16> {
        (0..count).map(|i| self.word(at + 2 * i)).collect()
    }

    fn consume(&mut self, len: usize) {
        self.bytes.drain(..len);
    }

    /// Tries to parse one complete [`HostCommand`] from the buffered
    /// bytes.
    ///
    /// # Errors
    ///
    /// [`FrameError`] if the first byte is not a host command opcode
    /// (the buffer is left untouched; the caller decides how to resync).
    pub fn parse_host_command(&mut self) -> Result<Option<HostCommand>, FrameError> {
        let Some(need) = self.host_command_len()? else {
            return Ok(None);
        };
        let cmd = match self.bytes[0] {
            opcode::READ => HostCommand::ReadMemory {
                node: self.bytes[1],
                count: self.bytes[2],
                addr: self.word(3),
            },
            opcode::WRITE => HostCommand::WriteMemory {
                node: self.bytes[1],
                addr: self.word(3),
                data: self.words(5, usize::from(self.bytes[2])),
            },
            opcode::ACTIVATE => HostCommand::Activate {
                node: self.bytes[1],
            },
            opcode::SCANF_RETURN => HostCommand::ScanfReturn {
                node: self.bytes[1],
                value: self.word(2),
            },
            _ => unreachable!(),
        };
        self.consume(need);
        Ok(Some(cmd))
    }

    /// The length of the complete host command at the front of the
    /// buffer, `None` while it is still partial.
    fn host_command_len(&self) -> Result<Option<usize>, FrameError> {
        let need = host_command_need(|i| self.bytes.get(i).copied()).transpose()?;
        Ok(need.filter(|&need| self.bytes.len() >= need))
    }

    /// Whether [`parse_host_command`](Self::parse_host_command) would
    /// return a command or an error rather than wait for more bytes.
    #[cfg(test)]
    fn host_command_ready(&self) -> bool {
        !matches!(self.host_command_len(), Ok(None))
    }

    /// How many bytes of `stream`, pushed one by one, make
    /// [`parse_host_command`](Self::parse_host_command) return a command
    /// or an error rather than wait: 0 if it would already, `None` if it
    /// still waits after all of `stream`. The command's
    /// length follows from its opcode and count bytes, read across the
    /// buffer and `stream`; an unknown opcode breaks the frame as soon as
    /// it arrives.
    pub(crate) fn host_command_needs(&self, stream: &VecDeque<u8>) -> Option<usize> {
        let held = self.bytes.len();
        let at = |i: usize| (self.bytes.get(i)).or_else(|| stream.get(i - held));
        let need = host_command_need(|i| at(i).copied())?.unwrap_or(1);
        (need <= held + stream.len()).then(|| need.saturating_sub(held))
    }

    /// Tries to parse one complete [`DeviceFrame`] from the buffered
    /// bytes.
    ///
    /// # Errors
    ///
    /// [`FrameError`] if the first byte is not a device frame opcode.
    pub fn parse_device_frame(&mut self) -> Result<Option<DeviceFrame>, FrameError> {
        let Some(need) = device_frame_need(|i| self.bytes.get(i).copied()).transpose()? else {
            return Ok(None);
        };
        if self.bytes.len() < need {
            return Ok(None);
        }
        let frame = match self.bytes[0] {
            opcode::PRINTF => DeviceFrame::Printf {
                node: self.bytes[1],
                value: self.word(2),
            },
            opcode::SCANF_REQUEST => DeviceFrame::ScanfRequest {
                node: self.bytes[1],
            },
            opcode::READ_RETURN => DeviceFrame::ReadReturn {
                node: self.bytes[1],
                addr: self.word(3),
                data: self.words(5, usize::from(self.bytes[2])),
            },
            _ => unreachable!(),
        };
        self.consume(need);
        Ok(Some(frame))
    }
}

/// The length of the host command whose bytes `at` reads from the front,
/// or the error for an unknown opcode; `None` while a byte that fixes the
/// length is missing.
fn host_command_need(at: impl Fn(usize) -> Option<u8>) -> Option<Result<usize, FrameError>> {
    Some(Ok(match at(0)? {
        opcode::READ => 5,
        opcode::WRITE => 5 + 2 * usize::from(at(2)?),
        opcode::ACTIVATE => 2,
        opcode::SCANF_RETURN => 4,
        opcode => return Some(Err(FrameError { opcode })),
    }))
}

/// The length of the device frame whose bytes `at` reads from the front,
/// or the error for an unknown opcode; `None` while a byte that fixes the
/// length is missing.
fn device_frame_need(at: impl Fn(usize) -> Option<u8>) -> Option<Result<usize, FrameError>> {
    Some(Ok(match at(0)? {
        opcode::PRINTF => 4,
        opcode::SCANF_REQUEST => 2,
        opcode::READ_RETURN => 5 + 2 * usize::from(at(2)?),
        opcode => return Some(Err(FrameError { opcode })),
    }))
}

hermes_noc::snap_struct!(SerialConfig { cycles_per_byte } Channel {
    in_flight,
    ready,
    next_deliver,
} FrameBuffer { bytes });

/// The timing and both channels. Where the frames towards the host end
/// is derived, and unknown for the bytes in flight at the save.
impl Snap for SerialLink {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.config);
        w.put(&self.to_device);
        w.put(&self.to_host);
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let (config, to_device, to_host): (_, _, Channel) = r.take()?;
        let host_frames = FrameEnds {
            lost: !to_host.in_flight.is_empty(),
            ..FrameEnds::default()
        };
        Ok(Self {
            config,
            to_device,
            to_host,
            host_frames,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn link_delivers_bytes_with_timing() {
        let mut link = SerialLink::new(SerialConfig {
            cycles_per_byte: 10,
        });
        link.host_send(&[1, 2, 3]);
        let mut arrivals = Vec::new();
        for now in 0..40 {
            link.step(now);
            if let Some(b) = link.device_recv() {
                arrivals.push((now, b));
            }
        }
        assert_eq!(arrivals, vec![(0, 1), (10, 2), (20, 3)]);
        assert!(link.is_idle());
    }

    #[test]
    fn both_directions_are_independent() {
        let mut link = SerialLink::new(SerialConfig { cycles_per_byte: 1 });
        link.host_send(&[0xAA]);
        link.device_send(&[0xBB]);
        link.step(0);
        assert_eq!(link.device_recv(), Some(0xAA));
        assert_eq!(link.host_recv(), Some(0xBB));
    }

    #[test]
    fn baud_timing() {
        // 25 MHz, 115200 baud: 25e6 / 115200 * 10 ≈ 2171 cycles per byte.
        let c = SerialConfig::from_baud(25.0e6, 115_200.0);
        assert_eq!(c.cycles_per_byte, 2171);
    }

    #[test]
    fn paper_read_command_byte_layout() {
        // "00 01 01 00 20": read (00) from P1 (01), one word (01), at 0020h.
        let cmd = HostCommand::ReadMemory {
            node: 1,
            count: 1,
            addr: 0x20,
        };
        assert_eq!(cmd.to_bytes(), vec![0x00, 0x01, 0x01, 0x00, 0x20]);
    }

    fn round_trip_host(cmd: HostCommand) {
        let mut buf = FrameBuffer::new();
        for b in cmd.to_bytes() {
            buf.push(b);
        }
        assert_eq!(buf.parse_host_command().unwrap(), Some(cmd));
        assert!(buf.is_empty());
    }

    #[test]
    fn host_commands_round_trip() {
        round_trip_host(HostCommand::ReadMemory {
            node: 3,
            count: 9,
            addr: 0x1234,
        });
        round_trip_host(HostCommand::WriteMemory {
            node: 1,
            addr: 0x0040,
            data: vec![0xDEAD, 0xBEEF],
        });
        round_trip_host(HostCommand::Activate { node: 2 });
        round_trip_host(HostCommand::ScanfReturn {
            node: 1,
            value: 777,
        });
    }

    fn round_trip_device(frame: DeviceFrame) {
        let mut buf = FrameBuffer::new();
        for b in frame.to_bytes() {
            buf.push(b);
        }
        assert_eq!(buf.parse_device_frame().unwrap(), Some(frame));
        assert!(buf.is_empty());
    }

    #[test]
    fn device_frames_round_trip() {
        round_trip_device(DeviceFrame::Printf {
            node: 1,
            value: 0xCAFE,
        });
        round_trip_device(DeviceFrame::ScanfRequest { node: 2 });
        round_trip_device(DeviceFrame::ReadReturn {
            node: 3,
            addr: 0x20,
            data: vec![1, 2, 3],
        });
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let mut buf = FrameBuffer::new();
        let bytes = HostCommand::WriteMemory {
            node: 1,
            addr: 0,
            data: vec![7; 4],
        }
        .to_bytes();
        for &b in &bytes[..bytes.len() - 1] {
            buf.push(b);
            assert_eq!(buf.parse_host_command().unwrap(), None);
        }
        buf.push(*bytes.last().unwrap());
        assert!(buf.parse_host_command().unwrap().is_some());
    }

    #[test]
    fn unknown_opcode_is_an_error() {
        let mut buf = FrameBuffer::new();
        buf.push(0x99);
        assert_eq!(buf.parse_host_command(), Err(FrameError { opcode: 0x99 }));
    }

    #[test]
    fn back_to_back_frames_parse_in_order() {
        let mut buf = FrameBuffer::new();
        for b in (HostCommand::Activate { node: 1 }).to_bytes() {
            buf.push(b);
        }
        for b in (HostCommand::Activate { node: 2 }).to_bytes() {
            buf.push(b);
        }
        assert_eq!(
            buf.parse_host_command().unwrap(),
            Some(HostCommand::Activate { node: 1 })
        );
        assert_eq!(
            buf.parse_host_command().unwrap(),
            Some(HostCommand::Activate { node: 2 })
        );
    }

    /// One host frame of a random kind: a read, a write of 0 to 255 words,
    /// an activate, a scanf return, or a lone unknown opcode.
    fn host_frame() -> impl Strategy<Value = Vec<u8>> {
        let parts = (0u8..5, any::<u8>(), any::<u8>(), any::<u16>());
        parts.prop_map(|(kind, node, count, addr)| match kind {
            0 => HostCommand::ReadMemory { node, count, addr }.to_bytes(),
            1 => HostCommand::WriteMemory {
                node,
                addr,
                data: (0..u16::from(count)).collect(),
            }
            .to_bytes(),
            2 => HostCommand::Activate { node }.to_bytes(),
            3 => HostCommand::ScanfReturn { node, value: addr }.to_bytes(),
            _ => vec![opcode::SCANF_RETURN + 1 + node % 252],
        })
    }

    /// One device frame of a random kind: a printf, a scanf request or a
    /// read return of 0 to 255 words.
    fn device_frame() -> impl Strategy<Value = Vec<u8>> {
        let parts = (0u8..3, any::<u8>(), any::<u8>(), any::<u16>());
        parts.prop_map(|(kind, node, count, addr)| match kind {
            0 => DeviceFrame::Printf { node, value: addr }.to_bytes(),
            1 => DeviceFrame::ScanfRequest { node }.to_bytes(),
            _ => DeviceFrame::ReadReturn {
                node,
                addr,
                data: (0..u16::from(count)).collect(),
            }
            .to_bytes(),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The host-bound stop against parsing byte by byte: a random
        /// frame sequence goes out in random pieces, a random number of
        /// its bytes arrive, and the link's next stop is the tick of the
        /// first byte in flight at which a buffer fed the stream one byte
        /// at a time parses a frame — none with nothing in flight.
        #[test]
        fn host_stop_matches_parsing_byte_by_byte(
            frames in proptest::collection::vec(device_frame(), 1..4),
            cuts in proptest::collection::vec(any::<u16>(), 0..4),
            delivered in any::<u16>(),
        ) {
            let bytes = frames.concat();
            let delivered = usize::from(delivered) % (bytes.len() + 1);
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| usize::from(c) % bytes.len()).collect();
            cuts.extend([0, bytes.len()]);
            cuts.sort_unstable();
            let mut link = SerialLink::new(SerialConfig::fast());
            for piece in cuts.windows(2) {
                link.device_send(&bytes[piece[0]..piece[1]]);
            }
            // The burst is clocked from cycle 100, four cycles a byte.
            link.to_host.next_deliver = 100;
            let now = 99 + 4 * delivered as u64;
            link.deliver_through(now);
            let mut parsed = FrameBuffer::new();
            let mut parses = |byte: u8| {
                parsed.push(byte);
                parsed.parse_device_frame().expect("valid frames").is_some()
            };
            bytes[..delivered].iter().for_each(|&b| { parses(b); });
            let first_frame = (delivered..bytes.len()).find(|&i| parses(bytes[i]));
            let tick = |i: usize| 100 + 4 * i as u64;
            prop_assert_eq!(link.next_host_stop(now), first_frame.map(tick));
        }

        /// The completing-byte prediction against pushing byte by byte:
        /// from a buffer holding a random prefix of a random frame
        /// sequence, the stream of a random number of the bytes after it
        /// makes the buffer ready after exactly the predicted count, or
        /// never if none is predicted.
        #[test]
        fn host_command_needs_matches_pushing_byte_by_byte(
            frames in proptest::collection::vec(host_frame(), 1..4),
            held in any::<u16>(),
            sent in any::<u16>(),
        ) {
            let bytes = frames.concat();
            let held = usize::from(held) % (bytes.len() + 1);
            let sent = usize::from(sent) % (bytes.len() - held + 1);
            let buffer = FrameBuffer { bytes: bytes[..held].to_vec() };
            let stream: VecDeque<u8> = bytes[held..held + sent].iter().copied().collect();
            let mut pushed = FrameBuffer { bytes: buffer.bytes.clone() };
            let first_ready = (0..=stream.len()).find(|&k| {
                if k > 0 {
                    pushed.push(stream[k - 1]);
                }
                pushed.host_command_ready()
            });
            prop_assert_eq!(buffer.host_command_needs(&stream), first_ready);
        }
    }
}

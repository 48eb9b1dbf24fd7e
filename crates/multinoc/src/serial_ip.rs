//! The Serial IP core (§2.2 of the paper).
//!
//! "The basic function of the Serial IP is to assemble and disassemble
//! packets. When information comes from the host computer, the Serial IP
//! creates a valid NoC packet. When a packet is received from the NoC it
//! must be disassembled, and sent serially to the host computer."
//!
//! Four commands arrive from the host (read from memory, write to
//! memory, activate processor, scanf return) and three travel towards it
//! (printf, scanf, read return). Before anything else the host must send
//! the [`SYNC_BYTE`] `0x55` so the hardware can
//! lock to the baud rate; bytes before it are ignored.

use hermes_noc::snapshot::check_mesh;
use hermes_noc::{RouterAddr, SnapshotError, SnapshotReader, SnapshotWriter};

use crate::directory::ServiceDirectory;
use crate::error::SystemError;
use crate::net::NetPort;
use crate::node::{NodeId, NodeTable};
use crate::reliable::{PendingRequest, ReliableSender, RetryCounters};
use crate::serial::{DeviceFrame, FrameBuffer, HostCommand, SerialLink, SYNC_BYTE};
use crate::service::Service;

/// The serial IP: the bridge between the RS-232 link and the NoC.
#[derive(Debug)]
pub struct SerialIp {
    addr: RouterAddr,
    table: NodeTable,
    /// Which replica currently serves each logical node; host commands
    /// addressed to a failed-over memory are transparently redirected.
    directory: ServiceDirectory,
    synced: bool,
    rx: FrameBuffer,
    /// Retransmitting sender for host writes and activations.
    reliable: ReliableSender,
    /// Host-commanded reads in flight; the `ReadReturn` echoing the
    /// sequence number is the implicit ack.
    pending_reads: Vec<PendingRequest>,
    /// Scanf requests forwarded to the host and not yet answered:
    /// `(node, requesting router, request seq)`.
    scanf_pending: Vec<(u8, RouterAddr, u16)>,
    /// Last answered scanf per requesting router: `(router, seq, value)`.
    /// A retransmitted `Scanf` with a cached seq is answered from here —
    /// the reply was lost, not the request — without asking the host
    /// twice.
    scanf_answered: Vec<(RouterAddr, u16, u16)>,
}

impl SerialIp {
    /// A serial IP at router `addr` knowing the system's node directory.
    pub fn new(addr: RouterAddr, table: NodeTable) -> Self {
        Self {
            addr,
            table,
            directory: ServiceDirectory::new(),
            synced: false,
            rx: FrameBuffer::new(),
            reliable: ReliableSender::new(NodeId(0)),
            pending_reads: Vec::new(),
            scanf_pending: Vec::new(),
            scanf_answered: Vec::new(),
        }
    }

    /// The router this IP is attached to.
    pub fn router(&self) -> RouterAddr {
        self.addr
    }

    /// Whether the 0x55 synchronization byte has been received.
    pub fn is_synced(&self) -> bool {
        self.synced
    }

    /// Updates this IP's view of the system after a reconfiguration.
    pub(crate) fn reconfigure(&mut self, addr: RouterAddr, table: NodeTable) {
        self.addr = addr;
        self.table = table;
    }

    /// Updates this IP's view of which replica serves each logical node.
    pub(crate) fn set_directory(&mut self, directory: ServiceDirectory) {
        self.directory = directory;
    }

    /// Retargets in-flight reliable traffic from a dead router to the
    /// replica that took over its service.
    pub(crate) fn redirect(&mut self, old: RouterAddr, new: RouterAddr, now: u64) {
        self.reliable.redirect_dest(old, new, now);
        for req in &mut self.pending_reads {
            req.redirect(old, new, now);
        }
    }

    /// Whether this IP has no reliable traffic in flight or queued.
    pub fn net_quiet(&self) -> bool {
        self.reliable.is_idle() && self.pending_reads.is_empty()
    }

    /// Work done by this IP's reliability layer.
    pub fn retry_counters(&self) -> RetryCounters {
        self.reliable.counters()
    }

    /// The earliest cycle at which stepping this IP can change what it
    /// or the host sees without a delivery at its router, under network
    /// epoch `epoch`: `now` while an epoch is not yet noted; otherwise
    /// the soonest of the retransmission deadlines and the
    /// [byte wake](Self::byte_wake). `None` when only a delivery or host
    /// bytes not yet sent can wake it — scanfs pending at the host have
    /// no deadline.
    pub(crate) fn wake(&self, now: u64, epoch: u64, link: &SerialLink) -> Option<u64> {
        if !self.reliable.noted(epoch) {
            return Some(now);
        }
        let requests = self.pending_reads.iter();
        let deadlines = requests.map(|req| self.reliable.request_deadline(req));
        let deadlines = deadlines.chain(self.reliable.next_deadline());
        deadlines.chain(self.byte_wake(now, link)).min()
    }

    /// The baud tick of the first byte in flight on `link` that can change
    /// what this IP or the host sees: while the IP is unsynced, the next
    /// byte; otherwise the byte that completes or breaks the next host
    /// command (`now` if the buffer holds one already); failing both, the
    /// last byte in flight, which leaves the link idle. The bytes before
    /// it only grow the frame buffer, which the system fills without a
    /// visit (see [`buffer_received`](Self::buffer_received)).
    fn byte_wake(&self, now: u64, link: &SerialLink) -> Option<u64> {
        let in_flight = link.bytes_to_device();
        let bytes = if self.synced {
            match self.rx.host_command_needs(in_flight) {
                Some(0) => return Some(now),
                Some(bytes) => bytes,
                None => in_flight.len(),
            }
        } else {
            1
        };
        link.device_tick(bytes.checked_sub(1)?)
    }

    /// Takes every byte the link has delivered: bytes before the
    /// [`SYNC_BYTE`] are dropped, later ones buffered for
    /// [`step`](Self::step) to parse. The system calls it in every cycle
    /// the link delivers a byte, whether or not it visits the IP.
    pub(crate) fn buffer_received(&mut self, link: &mut SerialLink) {
        while let Some(byte) = link.device_recv() {
            if !self.synced {
                self.synced = byte == SYNC_BYTE;
                continue;
            }
            self.rx.push(byte);
        }
    }

    /// One clock step: disassemble NoC packets into host frames and
    /// assemble the complete host commands the system buffered from the
    /// link into NoC packets.
    ///
    /// # Errors
    ///
    /// [`SystemError::Protocol`] on an unknown host opcode, a command for
    /// a nonexistent node, or an unexpected service arriving from the
    /// network; [`SystemError::DeliveryFailed`] when a host command
    /// exhausts its retransmission budget.
    pub fn step(
        &mut self,
        now: u64,
        link: &mut SerialLink,
        net: &mut NetPort<'_>,
    ) -> Result<(), SystemError> {
        // NoC → host direction.
        while let Some(msg) = net.recv()? {
            let node = self.table.node_of(msg.src).ok_or_else(|| {
                SystemError::Protocol(format!("service from unknown router {}", msg.src))
            })?;
            let node = node.0;
            match msg.service {
                Service::Printf { data } => {
                    for value in data {
                        link.device_send(&DeviceFrame::Printf { node, value }.to_bytes());
                    }
                }
                Service::Scanf => self.handle_scanf(node, msg.src, msg.seq, net, link)?,
                Service::ReadReturn { addr, data } => {
                    self.pending_reads
                        .retain(|req| !req.matches(msg.src, msg.seq));
                    link.device_send(&DeviceFrame::ReadReturn { node, addr, data }.to_bytes());
                }
                Service::Ack => {
                    self.reliable.on_ack(net, msg.src, msg.seq, now)?;
                }
                // A failover invalidation broadcast: the serial IP holds
                // no parked read values (ReadReturns stream straight to
                // the host), so there is nothing to discard.
                Service::ReplicaInvalidate { .. } => {}
                other => {
                    return Err(SystemError::Protocol(format!(
                        "serial IP cannot handle service `{other}`"
                    )))
                }
            }
        }

        // Host → NoC direction.
        loop {
            match self.rx.parse_host_command() {
                Ok(Some(cmd)) => self.execute(cmd, net, now)?,
                Ok(None) => break,
                Err(e) => return Err(SystemError::Protocol(e.to_string())),
            }
        }

        // Reliability timers.
        self.reliable.poll(net, now)?;
        for req in &mut self.pending_reads {
            self.reliable.poll_request(net, req, now)?;
        }
        Ok(())
    }

    /// A `Scanf` request from a processor. Fresh requests go to the host;
    /// a retransmission of an already-answered request is served from the
    /// cache (its `ScanfReturn` was lost, the user must not be asked
    /// twice); a retransmission of a still-unanswered request is dropped
    /// (the host already has it).
    fn handle_scanf(
        &mut self,
        node: u8,
        src: RouterAddr,
        seq: u16,
        net: &mut NetPort<'_>,
        link: &mut SerialLink,
    ) -> Result<(), SystemError> {
        if seq != 0 {
            if let Some(&(_, _, value)) = self
                .scanf_answered
                .iter()
                .find(|&&(r, s, _)| r == src && s == seq)
            {
                return net.send_seq(src, Service::ScanfReturn { value }, seq);
            }
            if self
                .scanf_pending
                .iter()
                .any(|&(_, r, s)| r == src && s == seq)
            {
                return Ok(());
            }
        }
        self.scanf_pending.push((node, src, seq));
        link.device_send(&DeviceFrame::ScanfRequest { node }.to_bytes());
        Ok(())
    }

    fn target(&self, node: u8) -> Result<RouterAddr, SystemError> {
        self.table
            .router_of(self.directory.serving(NodeId(node)))
            .ok_or(SystemError::BadNode {
                node: NodeId(node),
                expected: "a node of this system",
            })
    }

    fn execute(
        &mut self,
        cmd: HostCommand,
        net: &mut NetPort<'_>,
        now: u64,
    ) -> Result<(), SystemError> {
        match cmd {
            HostCommand::ReadMemory { node, count, addr } => {
                let dest = self.target(node)?;
                let request = Service::ReadFromMemory {
                    addr,
                    count: u16::from(count),
                };
                let seq = self.reliable.alloc_seq(dest);
                net.send_seq(dest, request.clone(), seq)?;
                self.pending_reads
                    .push(PendingRequest::new(dest, seq, request, now));
                Ok(())
            }
            HostCommand::WriteMemory { node, addr, data } => {
                let dest = self.target(node)?;
                self.reliable
                    .send(net, dest, Service::WriteInMemory { addr, data }, now)
                    .map(|_| ())
            }
            HostCommand::Activate { node } => {
                let dest = self.target(node)?;
                self.reliable
                    .send(net, dest, Service::ActivateProcessor, now)
                    .map(|_| ())
            }
            HostCommand::ScanfReturn { node, value } => {
                let dest = self.target(node)?;
                // Answer the oldest pending scanf of this node, echoing
                // its sequence number, and remember the answer so a
                // retransmitted request can be served from the cache.
                let pos = self.scanf_pending.iter().position(|&(n, _, _)| n == node);
                let (src, seq) = match pos {
                    Some(i) => {
                        let (_, src, seq) = self.scanf_pending.remove(i);
                        (src, seq)
                    }
                    // No pending request (unsequenced legacy flow): send
                    // straight to the node's router.
                    None => (dest, 0),
                };
                if seq != 0 {
                    self.scanf_answered.retain(|&(r, _, _)| r != src);
                    self.scanf_answered.push((src, seq, value));
                }
                net.send_seq(src, Service::ScanfReturn { value }, seq)
            }
        }
    }

    /// Snapshot codec: framing state, reliability layer and the pending
    /// read/scanf bookkeeping. Address, node table and directory come
    /// from the system and are not written.
    pub(crate) fn snapshot_write(&self, w: &mut SnapshotWriter) {
        w.put(&self.synced);
        w.put(&self.rx);
        self.reliable.snapshot_write(w);
        w.put(&self.pending_reads);
        w.put(&self.scanf_pending);
        w.put(&self.scanf_answered);
    }

    /// Decodes a serial IP written by
    /// [`snapshot_write`](Self::snapshot_write) for router `addr` of a
    /// `mesh`-shaped network.
    pub(crate) fn snapshot_read(
        r: &mut SnapshotReader<'_>,
        addr: RouterAddr,
        table: NodeTable,
        directory: ServiceDirectory,
        mesh: (u8, u8),
    ) -> Result<Self, SnapshotError> {
        let ip = Self {
            addr,
            table,
            directory,
            synced: r.take()?,
            rx: r.take()?,
            reliable: ReliableSender::snapshot_read(r, NodeId(0))?,
            pending_reads: r.take()?,
            scanf_pending: r.take()?,
            scanf_answered: r.take()?,
        };
        check_mesh(
            mesh,
            (ip.reliable.addrs())
                .chain(ip.pending_reads.iter().flat_map(PendingRequest::addrs))
                .chain(ip.scanf_pending.iter().map(|&(_, src, _)| src))
                .chain(ip.scanf_answered.iter().map(|&(src, _, _)| src)),
        )?;
        Ok(ip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeKind;
    use crate::serial::SerialConfig;
    use crate::service::Message;
    use hermes_noc::{Noc, NocConfig, Packet};

    fn setup() -> (Noc, SerialIp, SerialLink) {
        let noc = Noc::new(NocConfig::mesh(2, 2)).unwrap();
        let table = NodeTable::new(vec![
            (RouterAddr::new(0, 0), NodeKind::Serial),
            (RouterAddr::new(0, 1), NodeKind::Processor),
            (RouterAddr::new(1, 0), NodeKind::Processor),
            (RouterAddr::new(1, 1), NodeKind::Memory),
        ]);
        let ip = SerialIp::new(RouterAddr::new(0, 0), table);
        let link = SerialLink::new(SerialConfig { cycles_per_byte: 1 });
        (noc, ip, link)
    }

    fn pump(noc: &mut Noc, ip: &mut SerialIp, link: &mut SerialLink, cycles: u64) {
        for _ in 0..cycles {
            noc.step();
            let now = noc.cycle();
            link.step(now);
            ip.buffer_received(link);
            let mut net = NetPort::new(noc, RouterAddr::new(0, 0));
            ip.step(now, link, &mut net).unwrap();
        }
    }

    #[test]
    fn ignores_bytes_before_sync() {
        let (mut noc, mut ip, mut link) = setup();
        link.host_send(&[0x00, 0x01, SYNC_BYTE]);
        pump(&mut noc, &mut ip, &mut link, 10);
        assert!(ip.is_synced());
        // The garbage before the sync byte must not have become a command.
        assert!(ip.rx.is_empty());
    }

    #[test]
    fn read_command_becomes_read_packet() {
        let (mut noc, mut ip, mut link) = setup();
        link.host_send(&[SYNC_BYTE]);
        link.host_send(
            &HostCommand::ReadMemory {
                node: 1,
                count: 1,
                addr: 0x20,
            }
            .to_bytes(),
        );
        pump(&mut noc, &mut ip, &mut link, 200);
        // The packet must have been delivered at P1's router (0,1).
        let (src, packet) = noc.try_recv(RouterAddr::new(0, 1)).expect("delivered");
        assert_eq!(src, RouterAddr::new(0, 0));
        let msg = Message::from_packet(&packet, 8).unwrap();
        assert_eq!(
            msg.service,
            Service::ReadFromMemory {
                addr: 0x20,
                count: 1
            }
        );
    }

    #[test]
    fn printf_packet_becomes_host_frame() {
        let (mut noc, mut ip, mut link) = setup();
        // P2 (router (1,0)) prints 0xCAFE.
        let msg = Message::new(
            RouterAddr::new(1, 0),
            Service::Printf { data: vec![0xCAFE] },
        );
        noc.send(
            RouterAddr::new(1, 0),
            msg.to_packet(RouterAddr::new(0, 0), 8),
        )
        .unwrap();
        pump(&mut noc, &mut ip, &mut link, 200);
        let mut buf = FrameBuffer::new();
        let mut host_bytes = Vec::new();
        while let Some(b) = link.host_recv() {
            host_bytes.push(b);
            buf.push(b);
        }
        assert_eq!(
            buf.parse_device_frame().unwrap(),
            Some(DeviceFrame::Printf {
                node: 2,
                value: 0xCAFE
            })
        );
    }

    #[test]
    fn command_for_unknown_node_errors() {
        let (mut noc, mut ip, mut link) = setup();
        link.host_send(&[SYNC_BYTE]);
        link.host_send(&HostCommand::Activate { node: 9 }.to_bytes());
        let mut failed = false;
        for _ in 0..20 {
            noc.step();
            let now = noc.cycle();
            link.step(now);
            ip.buffer_received(&mut link);
            let mut net = NetPort::new(&mut noc, RouterAddr::new(0, 0));
            if ip.step(now, &mut link, &mut net).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "activating node 9 should fail");
    }

    #[test]
    fn unexpected_service_errors() {
        let (mut noc, mut ip, mut link) = setup();
        let msg = Message::new(RouterAddr::new(1, 1), Service::ActivateProcessor);
        noc.send(
            RouterAddr::new(1, 1),
            msg.to_packet(RouterAddr::new(0, 0), 8),
        )
        .unwrap();
        let mut failed = false;
        for _ in 0..500 {
            noc.step();
            let now = noc.cycle();
            link.step(now);
            let mut net = NetPort::new(&mut noc, RouterAddr::new(0, 0));
            if ip.step(now, &mut link, &mut net).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed);
    }

    #[test]
    fn garbage_packet_is_dropped_not_fatal() {
        // Under fault injection an undecodable packet is an expected
        // event: it must be counted and discarded, never kill the IP.
        let (mut noc, mut ip, mut link) = setup();
        noc.send(
            RouterAddr::new(1, 1),
            Packet::new(RouterAddr::new(0, 0), vec![0xFF, 0xFF]),
        )
        .unwrap();
        pump(&mut noc, &mut ip, &mut link, 200);
        // The IP survived and still serves valid traffic afterwards.
        let msg = Message::new(RouterAddr::new(1, 0), Service::Printf { data: vec![7] });
        noc.send(
            RouterAddr::new(1, 0),
            msg.to_packet(RouterAddr::new(0, 0), 8),
        )
        .unwrap();
        pump(&mut noc, &mut ip, &mut link, 200);
        assert!(
            link.host_recv().is_some(),
            "printf still flows after garbage"
        );
    }
}

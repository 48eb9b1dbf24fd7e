//! The Memory IP core (§2.3 of the paper).
//!
//! A 1K × 16-bit storage. The paper builds it from four BlockRAM banks of
//! 1024 × 4-bit words accessed in parallel — bank 3 holds bits 15:12 down
//! to bank 0 holding bits 3:0 (Fig. 4). The four banks are always read and
//! written together, so the model stores whole words in one array and
//! shows the banked organization as a view
//! ([`MemoryCore::bank_nibble`]); the FPGA area model counts the banks on
//! its own. The IP carries the paper's two interfaces: the processor port
//! (which has priority) and the NoC port, with the `busyNoC*`
//! mutual-exclusion flags.

use hermes_noc::snapshot::{check_mesh, Snap};
use hermes_noc::{RouterAddr, SnapshotError, SnapshotReader, SnapshotWriter};

use crate::error::SystemError;
use crate::net::NetPort;
use crate::node::NodeId;
use crate::reliable::{DedupReceiver, ReliableSender, RetryCounters};
use crate::service::{Message, Service};

/// The storage core shared by the remote Memory IP and each processor's
/// local memory: one array of 16-bit words.
#[derive(Debug, Clone)]
pub struct MemoryCore {
    words: Vec<u16>,
}

impl MemoryCore {
    /// A memory of `words` 16-bit words (the paper uses 1024).
    ///
    /// # Panics
    ///
    /// Panics if `words` is zero.
    pub fn new(words: u16) -> Self {
        assert!(words > 0, "memory must hold at least one word");
        Self {
            words: vec![0; usize::from(words)],
        }
    }

    /// Capacity in 16-bit words.
    pub fn words(&self) -> u16 {
        // `new` takes the capacity as a u16.
        self.words.len() as u16
    }

    /// The array index of `addr`. Out-of-range addresses wrap (the
    /// hardware simply ignores the upper address bits); in-range ones
    /// skip the division.
    fn index(&self, addr: u16) -> usize {
        let addr = usize::from(addr);
        if addr < self.words.len() {
            addr
        } else {
            addr % self.words.len()
        }
    }

    /// Reads the word at `addr`. Out-of-range addresses wrap.
    pub fn read(&self, addr: u16) -> u16 {
        self.words[self.index(addr)]
    }

    /// Writes `value` at `addr`. Out-of-range addresses wrap.
    pub fn write(&mut self, addr: u16, value: u16) {
        let i = self.index(addr);
        self.words[i] = value;
    }

    /// The 4-bit word BlockRAM bank `bank` (0–3) of Fig. 4 holds at
    /// `addr`: bits `4·bank + 3 : 4·bank` of the stored word.
    ///
    /// # Panics
    ///
    /// Panics if `bank > 3`.
    pub fn bank_nibble(&self, bank: u8, addr: u16) -> u8 {
        assert!(bank < 4, "the memory has four banks");
        ((self.read(addr) >> (4 * bank)) & 0xF) as u8
    }

    /// Reads `count` consecutive words starting at `addr` (wrapping).
    pub fn read_block(&self, addr: u16, count: u16) -> Vec<u16> {
        (0..count)
            .map(|i| self.read(addr.wrapping_add(i)))
            .collect()
    }

    /// Writes `data` consecutively starting at `addr` (wrapping).
    pub fn write_block(&mut self, addr: u16, data: &[u16]) {
        for (i, &value) in data.iter().enumerate() {
            self.write(addr.wrapping_add(i as u16), value);
        }
    }

    /// Makes this memory a copy of `other`, reusing its allocation.
    pub(crate) fn copy_from(&mut self, other: &MemoryCore) {
        self.words.clone_from(&other.words);
    }
}

/// Capacity followed by every word.
impl Snap for MemoryCore {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.words());
        for word in &self.words {
            w.put(word);
        }
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let words: u16 = r.take()?;
        if words == 0 {
            return Err(SnapshotError::Malformed("memory capacity is 0"));
        }
        if usize::from(words) * 2 > r.remaining() {
            return Err(SnapshotError::Malformed("memory contents exceed payload"));
        }
        let mut core = Self::new(words);
        for word in &mut core.words {
            *word = r.take()?;
        }
        Ok(core)
    }
}

/// A client acknowledgement owed but withheld until the backup confirms
/// the replicated write — the invariant that makes failover lossless:
/// an acknowledged write is *always* recoverable from the survivor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingAck {
    client: RouterAddr,
    client_seq: u16,
    /// Sequence number of the `ReplicateWrite` carrying it to the backup.
    backup_seq: u16,
}

hermes_noc::snap_struct!(PendingAck {
    client,
    client_seq,
    backup_seq
});

/// The standalone remote Memory IP: a [`MemoryCore`] plus the NoC-facing
/// control logic that answers read/write service messages. (In the
/// paper's words, the remote memory IP has no processor interface.)
///
/// A memory IP can additionally act as the *serving primary* of a
/// replica pair: every fresh write it applies is forwarded as a
/// [`Service::ReplicateWrite`] to the backup over the reliable layer,
/// carrying the originating client and its sequence number. The backup
/// registers the write under the *client's* identity, so if the primary
/// later dies and clients re-aim their unacknowledged writes at the
/// promoted backup, the retransmissions are recognized as duplicates —
/// exactly-once application survives the failover. The client's
/// acknowledgement is deferred until the backup has confirmed the
/// replica copy, so an acked write can never be lost while either
/// member survives.
#[derive(Debug)]
pub struct MemoryIp {
    core: MemoryCore,
    node: NodeId,
    addr: RouterAddr,
    dedup: DedupReceiver,
    /// Router of the write-through backup, when this IP is a serving
    /// primary.
    replica: Option<RouterAddr>,
    /// Retransmitting sender for the replication stream.
    reliable: ReliableSender,
    /// Client acks withheld until the backup confirms replication.
    pending_acks: Vec<PendingAck>,
    /// Fresh writes forwarded to the backup.
    replication_writes: u64,
}

impl MemoryIp {
    /// The memory IP of `node`, attached to router `addr`.
    pub fn new(node: NodeId, addr: RouterAddr, words: u16) -> Self {
        Self {
            core: MemoryCore::new(words),
            node,
            addr,
            dedup: DedupReceiver::new(),
            replica: None,
            reliable: ReliableSender::new(node),
            pending_acks: Vec::new(),
            replication_writes: 0,
        }
    }

    /// The router this IP is attached to.
    pub fn router(&self) -> RouterAddr {
        self.addr
    }

    /// Moves this IP to another router (dynamic reconfiguration).
    pub(crate) fn set_router(&mut self, addr: RouterAddr) {
        self.addr = addr;
    }

    /// Direct access to the storage (host-side inspection, tests).
    pub fn core(&self) -> &MemoryCore {
        &self.core
    }

    /// Mutable access to the storage.
    pub fn core_mut(&mut self) -> &mut MemoryCore {
        &mut self.core
    }

    /// Handles one incoming service message, returning the reply to send
    /// — `(destination, service, sequence number)` — or `None`.
    ///
    /// A read produces a `ReadReturn` echoing the request's sequence
    /// number (so the requester can match it as the implicit ack). A
    /// *sequenced* write is applied once — duplicates from retransmission
    /// are suppressed — and always acknowledged, since a duplicate means
    /// the previous ack was lost. Unsupported services are ignored, as a
    /// hardware memory controller would.
    pub fn handle(&mut self, msg: &Message) -> Option<(RouterAddr, Service, u16)> {
        match &msg.service {
            Service::ReadFromMemory { addr, count } => {
                let data = self.core.read_block(*addr, *count);
                Some((msg.src, Service::ReadReturn { addr: *addr, data }, msg.seq))
            }
            Service::WriteInMemory { addr, data } => {
                if self.dedup.accept(msg.src, msg.seq) {
                    self.core.write_block(*addr, data);
                }
                (msg.seq != 0).then_some((msg.src, Service::Ack, msg.seq))
            }
            _ => None,
        }
    }

    /// Duplicate writes suppressed by the reliability layer.
    pub fn duplicates_dropped(&self) -> u64 {
        self.dedup.duplicates()
    }

    /// This memory's node number.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The router of this primary's write-through backup, if any.
    pub fn replica(&self) -> Option<RouterAddr> {
        self.replica
    }

    /// Makes this IP the serving primary of a pair, write-through
    /// replicating to the memory at `backup`.
    pub(crate) fn set_replica(&mut self, backup: Option<RouterAddr>) {
        self.replica = backup;
    }

    /// Fresh writes forwarded to the backup so far.
    pub fn replication_writes(&self) -> u64 {
        self.replication_writes
    }

    /// Replication-stream retry counters.
    pub fn replication_counters(&self) -> RetryCounters {
        self.reliable.counters()
    }

    /// One clock step: drains the NoC port, answering reads and applying
    /// writes exactly as [`handle`](Self::handle), and additionally runs
    /// the replication machinery — forwarding fresh writes to the
    /// backup, applying the replication stream when this IP *is* the
    /// backup, and retransmitting unacknowledged replication traffic.
    ///
    /// # Errors
    ///
    /// [`SystemError`] on malformed traffic or when the replication
    /// stream exhausts its retry budget against a silent backup.
    pub fn step(&mut self, now: u64, net: &mut NetPort<'_>) -> Result<(), SystemError> {
        while let Some(msg) = net.recv()? {
            match &msg.service {
                Service::ReadFromMemory { addr, count } => {
                    let data = self.core.read_block(*addr, *count);
                    net.send_seq(msg.src, Service::ReadReturn { addr: *addr, data }, msg.seq)?;
                }
                Service::WriteInMemory { addr, data } => {
                    let fresh = self.dedup.accept(msg.src, msg.seq);
                    if fresh {
                        self.core.write_block(*addr, data);
                        if let Some(backup) = self.replica {
                            let backup_seq = self.reliable.send(
                                net,
                                backup,
                                Service::ReplicateWrite {
                                    origin: msg.src,
                                    origin_seq: msg.seq,
                                    addr: *addr,
                                    data: data.clone(),
                                },
                                now,
                            )?;
                            self.replication_writes += 1;
                            if msg.seq != 0 {
                                // Ack once the backup holds the copy.
                                self.pending_acks.push(PendingAck {
                                    client: msg.src,
                                    client_seq: msg.seq,
                                    backup_seq,
                                });
                            }
                            continue;
                        }
                    }
                    // A duplicate whose first ack is still withheld must
                    // keep waiting for the backup, not be acked early.
                    let withheld = self
                        .pending_acks
                        .iter()
                        .any(|p| p.client == msg.src && p.client_seq == msg.seq);
                    if msg.seq != 0 && !withheld {
                        net.send_seq(msg.src, Service::Ack, msg.seq)?;
                    }
                }
                Service::ReplicateWrite {
                    origin,
                    origin_seq,
                    addr,
                    data,
                } => {
                    // Two layers of duplicate suppression: the replication
                    // stream itself (primary's stop-and-wait retransmits),
                    // then the originating client's sequence — registered
                    // here so the client's own post-failover retransmission
                    // of this write is refused as the duplicate it is.
                    if self.dedup.accept(msg.src, msg.seq)
                        && (*origin_seq == 0 || self.dedup.accept(*origin, *origin_seq))
                    {
                        self.core.write_block(*addr, data);
                    }
                    if msg.seq != 0 {
                        net.send_seq(msg.src, Service::Ack, msg.seq)?;
                    }
                }
                Service::Ack => {
                    self.reliable.on_ack(net, msg.src, msg.seq, now)?;
                    // The backup confirmed a replicated write: release the
                    // client ack that was withheld on it.
                    if self.replica == Some(msg.src) {
                        let mut released = Vec::new();
                        self.pending_acks.retain(|p| {
                            if p.backup_seq == msg.seq {
                                released.push(*p);
                                false
                            } else {
                                true
                            }
                        });
                        for p in released {
                            net.send_seq(p.client, Service::Ack, p.client_seq)?;
                        }
                    }
                }
                // Anything else a hardware memory controller ignores.
                _ => {}
            }
        }
        self.reliable.poll(net, now)?;
        Ok(())
    }

    /// Promotes this backup to serving primary after the old primary at
    /// `stale` was declared dead: stops treating the dead node as a
    /// replication peer and broadcasts [`Service::ReplicaInvalidate`] to
    /// every client so values still in flight from the dead primary are
    /// discarded. The broadcast is unsequenced and best-effort — a value
    /// the old primary committed before dying is correct, so a lost
    /// invalidation costs nothing.
    pub(crate) fn promote(
        &mut self,
        stale: RouterAddr,
        clients: &[RouterAddr],
        net: &mut NetPort<'_>,
    ) -> Result<(), SystemError> {
        self.replica = None;
        self.reliable.forget_dest(stale);
        self.pending_acks.clear();
        for &client in clients {
            match net.send(client, Service::ReplicaInvalidate { stale }) {
                // A client cut off by the same fault simply misses the
                // (optional) invalidation.
                Err(SystemError::Noc(hermes_noc::NocError::Route(
                    hermes_noc::RouteError::Unreachable { .. },
                ))) => {}
                other => other?,
            }
        }
        Ok(())
    }

    /// Degrades this serving primary to an unreplicated memory after its
    /// *backup* was declared dead: abandons the replication stream and
    /// releases every withheld client ack — the writes are applied here,
    /// and with the backup gone this copy is the only truth left.
    pub(crate) fn drop_replica(
        &mut self,
        dead_backup: RouterAddr,
        net: &mut NetPort<'_>,
    ) -> Result<(), SystemError> {
        self.replica = None;
        self.reliable.forget_dest(dead_backup);
        for p in std::mem::take(&mut self.pending_acks) {
            match net.send_seq(p.client, Service::Ack, p.client_seq) {
                Err(SystemError::Noc(hermes_noc::NocError::Route(
                    hermes_noc::RouteError::Unreachable { .. },
                ))) => {}
                other => other?,
            }
        }
        Ok(())
    }

    /// The earliest cycle at which stepping this IP can change its state
    /// without a delivery at its router, under network epoch `epoch`:
    /// `now` while that epoch is not yet noted, else the replication
    /// stream's next retransmission deadline. `None` when only a
    /// delivery can wake it.
    pub(crate) fn wake(&self, now: u64, epoch: u64) -> Option<u64> {
        if !self.reliable.noted(epoch) {
            return Some(now);
        }
        self.reliable.next_deadline()
    }

    /// Whether the replication stream is quiet: nothing in flight or
    /// queued towards the backup and no client ack withheld.
    pub fn net_quiet(&self) -> bool {
        self.reliable.is_idle() && self.pending_acks.is_empty()
    }

    /// Snapshot codec: storage, duplicate suppression, replication role
    /// and the withheld-ack ledger. Node id and router come from the
    /// system's node table and are not written.
    pub(crate) fn snapshot_write(&self, w: &mut SnapshotWriter) {
        w.put(&self.core);
        w.put(&self.dedup);
        w.put(&self.replica);
        self.reliable.snapshot_write(w);
        w.put(&self.pending_acks);
        w.put(&self.replication_writes);
    }

    /// Decodes a memory IP written by
    /// [`snapshot_write`](Self::snapshot_write) for the slot `node` on
    /// router `addr` of a `mesh`-shaped network.
    pub(crate) fn snapshot_read(
        r: &mut SnapshotReader<'_>,
        node: NodeId,
        addr: RouterAddr,
        mesh: (u8, u8),
    ) -> Result<Self, SnapshotError> {
        let ip = Self {
            core: r.take()?,
            node,
            addr,
            dedup: r.take()?,
            replica: r.take()?,
            reliable: ReliableSender::snapshot_read(r, node)?,
            pending_acks: r.take()?,
            replication_writes: r.take()?,
        };
        check_mesh(
            mesh,
            (ip.replica.into_iter())
                .chain(ip.pending_acks.iter().map(|p| p.client))
                .chain(ip.dedup.addrs())
                .chain(ip.reliable.addrs()),
        )?;
        Ok(ip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banked_read_write_round_trip() {
        let mut m = MemoryCore::new(1024);
        for (addr, value) in [(0u16, 0x0000u16), (1, 0xFFFF), (2, 0xA5C3), (1023, 0x1234)] {
            m.write(addr, value);
            assert_eq!(m.read(addr), value);
        }
    }

    #[test]
    fn banks_hold_their_nibbles() {
        let mut m = MemoryCore::new(16);
        m.write(5, 0xABCD);
        assert_eq!(m.bank_nibble(3, 5), 0xA);
        assert_eq!(m.bank_nibble(2, 5), 0xB);
        assert_eq!(m.bank_nibble(1, 5), 0xC);
        assert_eq!(m.bank_nibble(0, 5), 0xD);
    }

    #[test]
    fn addresses_wrap_like_hardware() {
        let mut m = MemoryCore::new(1024);
        m.write(1024, 7); // wraps to 0
        assert_eq!(m.read(0), 7);
        assert_eq!(m.read(2048), 7);
    }

    #[test]
    fn block_operations() {
        let mut m = MemoryCore::new(64);
        m.write_block(60, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(m.read_block(60, 6), vec![1, 2, 3, 4, 5, 6]);
        // Wrapped across the top.
        assert_eq!(m.read(0), 5);
        assert_eq!(m.read(1), 6);
    }

    #[test]
    fn memory_ip_answers_reads() {
        let mut ip = MemoryIp::new(NodeId(3), RouterAddr::new(1, 1), 1024);
        ip.core_mut().write_block(0x10, &[10, 20, 30]);
        let requester = RouterAddr::new(0, 0);
        let msg = Message::new(
            requester,
            Service::ReadFromMemory {
                addr: 0x10,
                count: 3,
            },
        );
        let (to, reply, seq) = ip.handle(&msg).expect("read gets a reply");
        assert_eq!(to, requester);
        assert_eq!(seq, 0);
        assert_eq!(
            reply,
            Service::ReadReturn {
                addr: 0x10,
                data: vec![10, 20, 30]
            }
        );
    }

    #[test]
    fn memory_ip_applies_unsequenced_writes_silently() {
        let mut ip = MemoryIp::new(NodeId(3), RouterAddr::new(1, 1), 1024);
        let msg = Message::new(
            RouterAddr::new(0, 0),
            Service::WriteInMemory {
                addr: 5,
                data: vec![42, 43],
            },
        );
        assert!(ip.handle(&msg).is_none());
        assert_eq!(ip.core().read(5), 42);
        assert_eq!(ip.core().read(6), 43);
    }

    #[test]
    fn memory_ip_acks_sequenced_writes_and_drops_duplicates() {
        let mut ip = MemoryIp::new(NodeId(3), RouterAddr::new(1, 1), 1024);
        let writer = RouterAddr::new(0, 0);
        let msg = Message::new(
            writer,
            Service::WriteInMemory {
                addr: 5,
                data: vec![42],
            },
        )
        .with_seq(7);
        let (to, reply, seq) = ip.handle(&msg).expect("sequenced write is acked");
        assert_eq!((to, reply, seq), (writer, Service::Ack, 7));
        assert_eq!(ip.core().read(5), 42);
        // The ack was lost; a retransmitted duplicate arrives after an
        // unrelated overwrite. It must be re-acked but NOT re-applied.
        ip.core_mut().write(5, 99);
        let (to, reply, seq) = ip.handle(&msg).expect("duplicate still acked");
        assert_eq!((to, reply, seq), (writer, Service::Ack, 7));
        assert_eq!(ip.core().read(5), 99, "duplicate write not re-applied");
        assert_eq!(ip.duplicates_dropped(), 1);
    }

    #[test]
    fn read_return_echoes_the_request_sequence() {
        let mut ip = MemoryIp::new(NodeId(3), RouterAddr::new(1, 1), 1024);
        let msg = Message::new(
            RouterAddr::new(0, 1),
            Service::ReadFromMemory { addr: 0, count: 1 },
        )
        .with_seq(33);
        let (_, _, seq) = ip.handle(&msg).expect("reply");
        assert_eq!(seq, 33);
    }

    #[test]
    fn memory_ip_ignores_other_services() {
        let mut ip = MemoryIp::new(NodeId(3), RouterAddr::new(1, 1), 1024);
        let msg = Message::new(RouterAddr::new(0, 0), Service::Scanf);
        assert!(ip.handle(&msg).is_none());
    }

    mod replication {
        use super::*;
        use hermes_noc::{Noc, NocConfig};

        const CLIENT: RouterAddr = RouterAddr::new(0, 0);
        const PRIMARY: RouterAddr = RouterAddr::new(1, 1);
        const BACKUP: RouterAddr = RouterAddr::new(1, 0);

        fn setup() -> (Noc, MemoryIp, MemoryIp) {
            let noc = Noc::new(NocConfig::mesh(2, 2)).unwrap();
            let mut primary = MemoryIp::new(NodeId(2), PRIMARY, 64);
            primary.set_replica(Some(BACKUP));
            let backup = MemoryIp::new(NodeId(3), BACKUP, 64);
            (noc, primary, backup)
        }

        fn inject(noc: &mut Noc, from: RouterAddr, to: RouterAddr, msg: Message) {
            noc.send(from, msg.to_packet(to, 8)).unwrap();
        }

        fn pump(noc: &mut Noc, primary: &mut MemoryIp, backup: Option<&mut MemoryIp>, n: u64) {
            let mut backup = backup;
            for _ in 0..n {
                noc.step();
                let now = noc.cycle();
                {
                    let mut net = NetPort::new(noc, PRIMARY);
                    primary.step(now, &mut net).unwrap();
                }
                if let Some(b) = backup.as_deref_mut() {
                    let mut net = NetPort::new(noc, BACKUP);
                    b.step(now, &mut net).unwrap();
                }
            }
        }

        fn client_frames(noc: &mut Noc) -> Vec<Message> {
            let mut out = Vec::new();
            while let Some((_, packet)) = noc.try_recv(CLIENT) {
                out.push(Message::from_packet(&packet, 8).unwrap());
            }
            out
        }

        #[test]
        fn write_is_acked_only_after_the_backup_confirms() {
            let (mut noc, mut primary, mut backup) = setup();
            let write = Message::new(
                CLIENT,
                Service::WriteInMemory {
                    addr: 5,
                    data: vec![42],
                },
            )
            .with_seq(9);
            inject(&mut noc, CLIENT, PRIMARY, write);
            // Backup unplugged: the primary applies the write and sends
            // the ReplicateWrite, but must withhold the client's ack.
            pump(&mut noc, &mut primary, None, 300);
            assert_eq!(primary.core().read(5), 42);
            assert_eq!(primary.replication_writes(), 1);
            assert!(
                client_frames(&mut noc).is_empty(),
                "no ack before the backup confirmed"
            );
            // Plug the backup in: it applies the replica write, acks,
            // and the withheld client ack is released.
            pump(&mut noc, &mut primary, Some(&mut backup), 200);
            assert_eq!(backup.core().read(5), 42);
            let frames = client_frames(&mut noc);
            assert!(
                frames
                    .iter()
                    .any(|m| m.service == Service::Ack && m.seq == 9),
                "client acked after replication: {frames:?}"
            );
            assert!(primary.net_quiet());
        }

        #[test]
        fn backup_death_releases_withheld_acks() {
            let (mut noc, mut primary, _backup) = setup();
            let write = Message::new(
                CLIENT,
                Service::WriteInMemory {
                    addr: 7,
                    data: vec![1],
                },
            )
            .with_seq(4);
            inject(&mut noc, CLIENT, PRIMARY, write);
            pump(&mut noc, &mut primary, None, 300);
            assert!(client_frames(&mut noc).is_empty());
            // The system declares the backup dead: replication stops and
            // every withheld ack is released (the primary alone is now
            // the source of truth).
            {
                let mut net = NetPort::new(&mut noc, PRIMARY);
                primary.drop_replica(BACKUP, &mut net).unwrap();
            }
            assert_eq!(primary.replica(), None);
            pump(&mut noc, &mut primary, None, 300);
            let frames = client_frames(&mut noc);
            assert!(frames
                .iter()
                .any(|m| m.service == Service::Ack && m.seq == 4));
            assert!(primary.net_quiet());
        }

        #[test]
        fn replicated_write_registers_the_origin_for_dedup() {
            // The client's write reached the old primary, was replicated,
            // and the primary died before acking. The client retransmits
            // to the promoted backup: the replica must recognize the
            // (origin, seq) pair and refuse to re-apply.
            let (mut noc, mut _primary, mut backup) = setup();
            let replicate = Message::new(
                PRIMARY,
                Service::ReplicateWrite {
                    origin: CLIENT,
                    origin_seq: 9,
                    addr: 3,
                    data: vec![55],
                },
            )
            .with_seq(1);
            inject(&mut noc, PRIMARY, BACKUP, replicate);
            for _ in 0..300 {
                noc.step();
                let now = noc.cycle();
                let mut net = NetPort::new(&mut noc, BACKUP);
                backup.step(now, &mut net).unwrap();
            }
            assert_eq!(backup.core().read(3), 55);
            // Overwrite to detect a re-apply.
            backup.core_mut().write(3, 99);
            let retransmission = Message::new(
                CLIENT,
                Service::WriteInMemory {
                    addr: 3,
                    data: vec![55],
                },
            )
            .with_seq(9);
            inject(&mut noc, CLIENT, BACKUP, retransmission);
            for _ in 0..300 {
                noc.step();
                let now = noc.cycle();
                let mut net = NetPort::new(&mut noc, BACKUP);
                backup.step(now, &mut net).unwrap();
            }
            assert_eq!(backup.core().read(3), 99, "retransmission not re-applied");
            let frames = client_frames(&mut noc);
            assert!(
                frames
                    .iter()
                    .any(|m| m.service == Service::Ack && m.seq == 9),
                "the duplicate is still acked so the client unblocks"
            );
        }

        #[test]
        fn promote_clears_replication_state_and_invalidates() {
            let (mut noc, mut primary, _backup) = setup();
            // Treat `primary` as the surviving backup being promoted; the
            // dead router is BACKUP for the purposes of this test.
            let clients = vec![CLIENT];
            {
                let mut net = NetPort::new(&mut noc, PRIMARY);
                primary.promote(BACKUP, &clients, &mut net).unwrap();
            }
            assert_eq!(primary.replica(), None);
            // The invalidation broadcast reached the client.
            for _ in 0..300 {
                noc.step();
            }
            let frames = client_frames(&mut noc);
            assert!(frames
                .iter()
                .any(|m| m.service == Service::ReplicaInvalidate { stale: BACKUP }));
        }
    }
}

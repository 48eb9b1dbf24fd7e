//! End-to-end reliable delivery over an unreliable NoC.
//!
//! The Hermes network may corrupt flits, drop packets or lose whole
//! links (see `hermes_noc::fault`). The service layer recovers with a
//! classic end-to-end protocol:
//!
//! - every message carries a checksum flit, so corruption is *detected*
//!   at the receiver and the packet discarded (handled transparently in
//!   [`Message`](crate::service::Message) and
//!   [`NetPort::recv`](crate::net::NetPort::recv));
//! - fire-and-forget services that must not be lost (`WriteInMemory`,
//!   `Notify`, `ActivateProcessor`) are *sequenced* and retransmitted by
//!   a [`ReliableSender`] until the receiver's
//!   [`Ack`](crate::service::Service::Ack) arrives, with bounded
//!   exponential backoff; the receiver suppresses duplicates with a
//!   [`DedupReceiver`] (stop-and-wait per destination, so duplicates can
//!   only ever repeat the most recent sequence number);
//! - request/response services (`ReadFromMemory`, `Scanf`) treat the
//!   response as an implicit acknowledgement: the requester keeps a
//!   [`PendingRequest`] and retransmits the request itself on timeout.
//!
//! When the retry budget is exhausted the failure surfaces as the typed
//! [`SystemError::DeliveryFailed`] — never a hang, never a panic.
//!
//! The sender is *reconfiguration-aware*: when the network's online
//! fault diagnosis declares a link dead it bumps a reconfiguration
//! epoch (visible through [`NetPort::epoch`]). Messages that were
//! already on the wire may have been flushed with the wedged wormhole
//! or delayed by the reroute, so their accumulated backoff says nothing
//! about the *new* topology. On an epoch change the sender resets the
//! retry clock of everything in flight instead of burning retries —
//! a message only fails after exhausting its full budget against the
//! reconfigured network. If the diagnosis has cut the destination off
//! entirely, sends surface the definitive [`SystemError::Unreachable`]
//! instead of timing out pointlessly.

use std::collections::VecDeque;
use std::fmt;

use hermes_noc::{RouterAddr, SnapshotError, SnapshotReader, SnapshotWriter};

use crate::error::SystemError;
use crate::net::NetPort;
use crate::node::NodeId;
use crate::service::Service;

/// Timeout and retry budget for reliable sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Cycles to wait for an acknowledgement before the first
    /// retransmission; later attempts back off exponentially.
    pub base_timeout: u64,
    /// Retransmissions allowed before the delivery is declared failed.
    pub max_retries: u32,
}

impl RetryPolicy {
    /// The timeout after `attempt` transmissions (bounded exponential
    /// backoff: doubles per attempt, capped at 64× the base).
    pub fn timeout_for(&self, attempt: u32) -> u64 {
        self.base_timeout.saturating_mul(1 << attempt.min(6))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // A 2×2-mesh round trip is a few hundred cycles with the paper's
        // parameters; 512 leaves headroom without dragging out recovery.
        Self {
            base_timeout: 512,
            max_retries: 6,
        }
    }
}

/// Counters describing the work the reliability layer has done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryCounters {
    /// Sequenced messages handed to the sender.
    pub sent: u64,
    /// Timed-out (re)transmissions, explicit-ack and implicit-ack alike.
    pub retransmissions: u64,
    /// Deliveries confirmed by an acknowledgement.
    pub acked: u64,
    /// Retry clocks reset because a network reconfiguration epoch
    /// invalidated the backoff accumulated against the old topology.
    pub reroute_resets: u64,
}

/// Maps the transport's typed partition error onto the system-level
/// [`SystemError::Unreachable`], attributing it to the sending IP. Any
/// other transport error passes through unchanged.
fn promote_unreachable(node: NodeId, dest: RouterAddr, err: SystemError) -> SystemError {
    match err {
        SystemError::Noc(hermes_noc::NocError::Route(hermes_noc::RouteError::Unreachable {
            ..
        })) => SystemError::Unreachable { node, dest },
        other => other,
    }
}

/// When a message was last transmitted and how often: the one retry
/// clock of explicit-ack messages and implicit-ack requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RetryClock {
    /// Cycle of the most recent transmission.
    sent_at: u64,
    /// Transmissions so far (1 after the initial send, never 0).
    attempt: u32,
}

impl RetryClock {
    /// The clock of a message first sent at `now` — the one start, and
    /// the one restart when an epoch change or a redirect voids the
    /// backoff.
    fn at(now: u64) -> Self {
        Self {
            sent_at: now,
            attempt: 1,
        }
    }

    /// The cycle the next retransmission is due under `policy`.
    fn due(&self, policy: &RetryPolicy) -> u64 {
        self.sent_at
            .saturating_add(policy.timeout_for(self.attempt - 1))
    }
}

/// One unacknowledged message on the wire.
#[derive(Debug, Clone)]
struct Inflight {
    seq: u16,
    service: Service,
    clock: RetryClock,
}

/// Stop-and-wait state towards one destination: at most one sequenced
/// message in flight; later sends queue behind it so retransmissions can
/// never reorder writes.
#[derive(Debug)]
struct DestQueue {
    dest: RouterAddr,
    /// Next sequence number for this destination (never 0).
    next_seq: u16,
    inflight: Option<Inflight>,
    backlog: VecDeque<(u16, Service)>,
}

/// Retransmitting sender for sequenced (explicit-ack) services.
#[derive(Debug)]
pub struct ReliableSender {
    node: NodeId,
    policy: RetryPolicy,
    /// `Vec`, not a map: iteration order must be deterministic.
    queues: Vec<DestQueue>,
    counters: RetryCounters,
    /// Last reconfiguration epoch observed on the network.
    last_epoch: u64,
    /// Cycle of the most recent epoch change; transmissions older than
    /// this get their retry clock reset instead of burning retries.
    epoch_reset_at: Option<u64>,
}

impl ReliableSender {
    /// A sender for the IP at `node` with the default [`RetryPolicy`].
    pub fn new(node: NodeId) -> Self {
        Self {
            node,
            policy: RetryPolicy::default(),
            queues: Vec::new(),
            counters: RetryCounters::default(),
            last_epoch: 0,
            epoch_reset_at: None,
        }
    }

    /// Overrides the retry policy.
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The active retry policy.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Work counters.
    pub fn counters(&self) -> RetryCounters {
        self.counters
    }

    /// Allocates the next non-zero sequence number for messages to
    /// `dest`.
    ///
    /// Sequence numbers count *per destination*, not globally. The
    /// receiving [`DedupReceiver`] remembers only the latest number per
    /// peer, and a per-destination counter steps by exactly one between
    /// a peer's consecutive messages, so a fresh message can never
    /// collide with the remembered one — not even after the counter
    /// wraps. (A single shared counter had exactly that bug: traffic to
    /// other destinations could wrap it back onto a peer's remembered
    /// number, and the next fresh message to that peer was then refused
    /// as a duplicate forever while still being acknowledged — silent
    /// message loss.)
    pub fn alloc_seq(&mut self, dest: RouterAddr) -> u16 {
        let i = self.queue_idx(dest);
        let q = &mut self.queues[i];
        let seq = q.next_seq;
        q.next_seq = q.next_seq.checked_add(1).unwrap_or(1);
        seq
    }

    /// No sequenced message is in flight or queued.
    pub fn is_idle(&self) -> bool {
        self.queues
            .iter()
            .all(|q| q.inflight.is_none() && q.backlog.is_empty())
    }

    fn queue_idx(&mut self, dest: RouterAddr) -> usize {
        if let Some(i) = self.queues.iter().position(|q| q.dest == dest) {
            return i;
        }
        self.queues.push(DestQueue {
            dest,
            next_seq: 1,
            inflight: None,
            backlog: VecDeque::new(),
        });
        self.queues.len() - 1
    }

    /// Queues `service` for reliable delivery to `dest`, transmitting
    /// immediately if the destination has nothing in flight. Returns the
    /// assigned sequence number.
    ///
    /// # Errors
    ///
    /// Transport errors from [`NetPort::send_seq`].
    pub fn send(
        &mut self,
        net: &mut NetPort<'_>,
        dest: RouterAddr,
        service: Service,
        now: u64,
    ) -> Result<u16, SystemError> {
        self.note_epoch(net, now);
        let node = self.node;
        let seq = self.alloc_seq(dest);
        self.counters.sent += 1;
        let i = self.queue_idx(dest);
        if self.queues[i].inflight.is_none() {
            net.send_seq(dest, service.clone(), seq)
                .map_err(|e| promote_unreachable(node, dest, e))?;
            self.queues[i].inflight = Some(Inflight {
                seq,
                service,
                clock: RetryClock::at(now),
            });
        } else {
            self.queues[i].backlog.push_back((seq, service));
        }
        Ok(seq)
    }

    /// Processes an [`Ack`](Service::Ack) received from `from` for `seq`:
    /// completes the matching in-flight message and launches the next one
    /// queued for that destination, if any.
    ///
    /// # Errors
    ///
    /// Transport errors from transmitting the next queued message.
    pub fn on_ack(
        &mut self,
        net: &mut NetPort<'_>,
        from: RouterAddr,
        seq: u16,
        now: u64,
    ) -> Result<(), SystemError> {
        let node = self.node;
        let Some(q) = self.queues.iter_mut().find(|q| q.dest == from) else {
            return Ok(()); // stray ack
        };
        if q.inflight.as_ref().is_none_or(|inf| inf.seq != seq) {
            return Ok(()); // duplicate or stale ack
        }
        q.inflight = None;
        self.counters.acked += 1;
        if let Some((next_seq, service)) = q.backlog.pop_front() {
            let dest = q.dest;
            net.send_seq(dest, service.clone(), next_seq)
                .map_err(|e| promote_unreachable(node, dest, e))?;
            q.inflight = Some(Inflight {
                seq: next_seq,
                service,
                clock: RetryClock::at(now),
            });
        }
        Ok(())
    }

    /// Retransmits timed-out messages; call once per cycle.
    ///
    /// # Errors
    ///
    /// [`SystemError::DeliveryFailed`] once a message has exhausted its
    /// retry budget; transport errors from retransmitting.
    pub fn poll(&mut self, net: &mut NetPort<'_>, now: u64) -> Result<(), SystemError> {
        self.note_epoch(net, now);
        let mut queues = std::mem::take(&mut self.queues);
        let polled = queues.iter_mut().try_for_each(|q| {
            let Some(inf) = q.inflight.as_mut() else {
                return Ok(());
            };
            let message = (q.dest, inf.seq, &inf.service);
            self.retransmit(net, message, &mut inf.clock, now, false)
        });
        self.queues = queues;
        polled
    }

    /// The one retransmission: once `clock` is due, sends `service` to
    /// `dest` again as `seq` and counts the attempt. Past the retry
    /// budget the delivery fails typed instead, unless `patient`.
    fn retransmit(
        &mut self,
        net: &mut NetPort<'_>,
        (dest, seq, service): (RouterAddr, u16, &Service),
        clock: &mut RetryClock,
        now: u64,
        patient: bool,
    ) -> Result<(), SystemError> {
        if now < clock.due(&self.policy) {
            return Ok(());
        }
        if !patient && clock.attempt > self.policy.max_retries {
            return Err(SystemError::DeliveryFailed {
                node: self.node,
                dest,
                seq,
                attempts: clock.attempt,
            });
        }
        net.send_seq(dest, service.clone(), seq)
            .map_err(|e| promote_unreachable(self.node, dest, e))?;
        clock.sent_at = now;
        clock.attempt = clock.attempt.saturating_add(1);
        self.counters.retransmissions += 1;
        Ok(())
    }

    /// The earliest cycle at which [`poll`](Self::poll) has work to do —
    /// the soonest retransmission deadline among in-flight messages.
    /// `None` when nothing is in flight, so the sender can sleep until
    /// something external wakes it. Feeds the owning IP's wake cycle.
    pub fn next_deadline(&self) -> Option<u64> {
        self.queues
            .iter()
            .filter_map(|q| q.inflight.as_ref())
            .map(|inf| inf.clock.due(&self.policy))
            .min()
    }

    /// The cycle at which [`poll_request`](Self::poll_request) next acts
    /// on `pending` under this sender's policy: the epoch change that
    /// still has to restart its retry clock, else its timeout.
    pub fn request_deadline(&self, pending: &PendingRequest) -> u64 {
        match self.epoch_reset_at {
            Some(reset_at) if pending.clock.sent_at < reset_at => reset_at,
            _ => pending.clock.due(&self.policy),
        }
    }

    /// Whether this sender has already observed reconfiguration epoch
    /// `epoch` (its next poll would not react to it).
    pub(crate) fn noted(&self, epoch: u64) -> bool {
        self.last_epoch == epoch
    }

    /// Observes the network's reconfiguration epoch. On a change, every
    /// in-flight message's retry clock restarts from `now`: the backoff
    /// it accumulated measured the dead topology, not the reconfigured
    /// one, and the message itself may have been flushed with a wedged
    /// wormhole through no fault of the destination.
    fn note_epoch(&mut self, net: &NetPort<'_>, now: u64) {
        let epoch = net.epoch();
        if epoch == self.last_epoch {
            return;
        }
        self.last_epoch = epoch;
        self.epoch_reset_at = Some(now);
        for q in &mut self.queues {
            if let Some(inf) = q.inflight.as_mut() {
                inf.clock = RetryClock::at(now);
                self.counters.reroute_resets += 1;
            }
        }
    }

    /// Retransmits a timed-out implicit-ack request using this sender's
    /// policy, counting the work here.
    ///
    /// # Errors
    ///
    /// As [`poll`](Self::poll).
    pub fn poll_request(
        &mut self,
        net: &mut NetPort<'_>,
        pending: &mut PendingRequest,
        now: u64,
    ) -> Result<(), SystemError> {
        self.poll_pending(net, pending, now, false)
    }

    /// Like [`poll_request`](Self::poll_request), but without a retry
    /// budget: the request keeps retransmitting at the widest backoff
    /// forever. For requests answered by the *host* (`Scanf`), where a
    /// long silence means a slow human, not a lost packet.
    ///
    /// # Errors
    ///
    /// Transport errors from retransmitting.
    pub fn poll_request_patient(
        &mut self,
        net: &mut NetPort<'_>,
        pending: &mut PendingRequest,
        now: u64,
    ) -> Result<(), SystemError> {
        self.poll_pending(net, pending, now, true)
    }

    /// Restarts a request last transmitted before the most recent
    /// reconfiguration epoch change, else retransmits it once due.
    fn poll_pending(
        &mut self,
        net: &mut NetPort<'_>,
        pending: &mut PendingRequest,
        now: u64,
        patient: bool,
    ) -> Result<(), SystemError> {
        self.note_epoch(net, now);
        if self.reset_for_reroute(pending, now) {
            return Ok(());
        }
        let message = (pending.dest, pending.seq, &pending.request);
        self.retransmit(net, message, &mut pending.clock, now, patient)
    }

    /// Restarts a pending request's retry clock if it was last
    /// transmitted before the most recent reconfiguration epoch change.
    /// Self-disarming: the restart stamps the clock at or past the change.
    fn reset_for_reroute(&mut self, pending: &mut PendingRequest, now: u64) -> bool {
        let Some(reset_at) = self.epoch_reset_at else {
            return false;
        };
        if pending.clock.sent_at >= reset_at {
            return false;
        }
        pending.clock = RetryClock::at(now);
        self.counters.reroute_resets += 1;
        true
    }

    /// Retargets all reliability state aimed at `old` to `new`: the
    /// destination queue (in-flight message, backlog and the sequence
    /// counter keep going against the new address) has its retry clock
    /// restarted from `now`, exactly as after a reconfiguration epoch —
    /// the backoff accumulated against the dead destination says nothing
    /// about the replacement. Used when a service fails over to a
    /// replica on another node: the replica's duplicate suppression
    /// already knows this sender's sequence numbers from replication, so
    /// continuing the counter is what makes retransmitted writes
    /// recognizable as duplicates across the failover.
    pub fn redirect_dest(&mut self, old: RouterAddr, new: RouterAddr, now: u64) {
        // A pre-existing (necessarily idle) queue towards the new address
        // would shadow the retargeted one in `queue_idx`; drop it. The
        // retargeted queue's counter is the one the replica knows.
        if let Some(i) = self
            .queues
            .iter()
            .position(|q| q.dest == new && q.inflight.is_none() && q.backlog.is_empty())
        {
            self.queues.remove(i);
        }
        for q in &mut self.queues {
            if q.dest != old {
                continue;
            }
            q.dest = new;
            if let Some(inf) = q.inflight.as_mut() {
                inf.clock = RetryClock::at(now);
                self.counters.reroute_resets += 1;
            }
        }
    }

    /// Drops all reliability state towards `dest`, abandoning anything
    /// in flight or queued. Used when the destination is declared dead
    /// with no replacement (e.g. a replica backup dies while the primary
    /// is healthy): retrying against it forever would end in a spurious
    /// [`SystemError::DeliveryFailed`].
    pub fn forget_dest(&mut self, dest: RouterAddr) {
        self.queues.retain(|q| q.dest != dest);
    }

    /// Snapshot codec: retry policy, per-destination queues, counters
    /// and epoch bookkeeping; `node` is the owning IP's.
    pub(crate) fn snapshot_write(&self, w: &mut SnapshotWriter) {
        w.put(&self.policy);
        w.put(&self.queues);
        w.put(&self.counters);
        w.put(&self.last_epoch);
        w.put(&self.epoch_reset_at);
    }

    /// Decodes a sender written by
    /// [`snapshot_write`](Self::snapshot_write) for the IP at `node`.
    pub(crate) fn snapshot_read(
        r: &mut SnapshotReader<'_>,
        node: NodeId,
    ) -> Result<Self, SnapshotError> {
        Ok(Self {
            node,
            policy: r.take()?,
            queues: r.take()?,
            counters: r.take()?,
            last_epoch: r.take()?,
            epoch_reset_at: r.take()?,
        })
    }

    /// Every router this sender addresses or names in a queued message.
    pub(crate) fn addrs(&self) -> impl Iterator<Item = RouterAddr> + '_ {
        self.queues.iter().flat_map(|q| {
            let inflight = q.inflight.iter().map(|i| &i.service);
            let queued = inflight.chain(q.backlog.iter().map(|(_, service)| service));
            std::iter::once(q.dest).chain(queued.filter_map(Service::peer))
        })
    }
}

/// A request whose response acts as its acknowledgement
/// (`ReadFromMemory` → `ReadReturn`, `Scanf` → `ScanfReturn`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingRequest {
    /// Where the request went.
    pub dest: RouterAddr,
    /// Its sequence number; the response must echo it.
    pub seq: u16,
    /// The request itself, kept for retransmission.
    pub request: Service,
    /// When it was last transmitted and how often.
    clock: RetryClock,
}

impl PendingRequest {
    /// Records a request just transmitted at `now`.
    pub fn new(dest: RouterAddr, seq: u16, request: Service, now: u64) -> Self {
        Self {
            dest,
            seq,
            request,
            clock: RetryClock::at(now),
        }
    }

    /// Whether a response carrying `seq` from `src` answers this request.
    pub fn matches(&self, src: RouterAddr, seq: u16) -> bool {
        self.dest == src && self.seq == seq
    }

    /// Retargets the request to `new` if it was aimed at `old`,
    /// restarting its retry clock; the next poll retransmits it to the
    /// replacement and only its response is accepted from then on.
    pub fn redirect(&mut self, old: RouterAddr, new: RouterAddr, now: u64) {
        if self.dest != old {
            return;
        }
        self.dest = new;
        self.clock = RetryClock::at(now);
    }

    /// The request's destination and any router its message names.
    pub(crate) fn addrs(&self) -> impl Iterator<Item = RouterAddr> {
        std::iter::once(self.dest).chain(self.request.peer())
    }
}

/// Receiver-side duplicate suppression for sequenced messages.
///
/// Stop-and-wait sending means a duplicate can only repeat the *latest*
/// sequence number from a peer, so remembering one number per peer is
/// exact, not heuristic.
#[derive(Debug, Default)]
pub struct DedupReceiver {
    seen: Vec<(RouterAddr, u16)>,
    duplicates: u64,
}

impl DedupReceiver {
    /// A receiver with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the message `(src, seq)` is fresh and should be applied.
    /// Duplicates are counted and refused (the caller still acknowledges
    /// them, since the first ack evidently went missing). Unsequenced
    /// messages (`seq == 0`) are always fresh.
    pub fn accept(&mut self, src: RouterAddr, seq: u16) -> bool {
        if seq == 0 {
            return true;
        }
        match self.seen.iter_mut().find(|(peer, _)| *peer == src) {
            Some((_, last)) if *last == seq => {
                self.duplicates += 1;
                false
            }
            Some((_, last)) => {
                *last = seq;
                true
            }
            None => {
                self.seen.push((src, seq));
                true
            }
        }
    }

    /// Duplicates refused so far.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// The peers whose latest sequence number is remembered.
    pub(crate) fn addrs(&self) -> impl Iterator<Item = RouterAddr> + '_ {
        self.seen.iter().map(|&(peer, _)| peer)
    }
}

impl fmt::Display for RetryCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} sent, {} retransmitted, {} acked",
            self.sent, self.retransmissions, self.acked
        )?;
        if self.reroute_resets > 0 {
            write!(f, ", {} reroute resets", self.reroute_resets)?;
        }
        Ok(())
    }
}

/// Transmission counts start at 1: a retry clock at 0 would underflow
/// its backoff.
fn check_clock(clock: &RetryClock) -> Result<(), SnapshotError> {
    if clock.attempt == 0 {
        return Err(SnapshotError::Malformed("retry clock attempt is 0"));
    }
    Ok(())
}

/// Sequence numbers start at 1.
fn check_queue(queue: &DestQueue) -> Result<(), SnapshotError> {
    let inflight = queue.inflight.iter().map(|inf| inf.seq);
    let mut seqs = inflight.chain(queue.backlog.iter().map(|&(seq, _)| seq));
    if queue.next_seq == 0 || seqs.any(|seq| seq == 0) {
        return Err(SnapshotError::Malformed("sequence number is 0"));
    }
    Ok(())
}

hermes_noc::snap_struct!(RetryPolicy {
    base_timeout,
    max_retries
} RetryCounters {
    sent,
    retransmissions,
    acked,
    reroute_resets,
} RetryClock {
    sent_at,
    attempt,
} => check_clock Inflight {
    seq,
    service,
    clock,
} DestQueue {
    dest,
    next_seq,
    inflight,
    backlog,
} => check_queue PendingRequest {
    dest,
    seq,
    request,
    clock,
} DedupReceiver { seen, duplicates });

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_noc::{Noc, NocConfig};

    fn mesh() -> Noc {
        Noc::new(NocConfig::mesh(2, 2)).expect("2x2 mesh")
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            base_timeout: 100,
            max_retries: 20,
        };
        assert_eq!(p.timeout_for(0), 100);
        assert_eq!(p.timeout_for(1), 200);
        assert_eq!(p.timeout_for(3), 800);
        assert_eq!(p.timeout_for(6), 6_400);
        assert_eq!(p.timeout_for(19), 6_400, "backoff is bounded");
    }

    #[test]
    fn redirect_dest_retargets_queue_and_continues_the_counter() {
        let mut noc = mesh();
        let mut s = ReliableSender::new(NodeId(1));
        let here = RouterAddr::new(0, 0);
        let old = RouterAddr::new(1, 1);
        let new = RouterAddr::new(1, 0);
        let mut net = NetPort::new(&mut noc, here);
        let seq1 = s
            .send(&mut net, old, Service::ActivateProcessor, 0)
            .unwrap();
        assert_eq!(seq1, 1);
        // An idle pre-existing queue towards the new address must not
        // shadow the retargeted one.
        s.alloc_seq(new);
        let resets_before = s.counters().reroute_resets;
        s.redirect_dest(old, new, 50);
        assert!(
            s.counters().reroute_resets > resets_before,
            "the in-flight retry clock restarted"
        );
        // The sequence counter continues against the new destination —
        // the replica knows our numbers from the replication stream.
        assert_eq!(s.alloc_seq(new), 2);
        assert!(!s.is_idle(), "the in-flight message survived the redirect");
        // Acks from the new destination complete it.
        s.on_ack(&mut net, new, seq1, 60).unwrap();
        assert!(s.is_idle());
    }

    #[test]
    fn forget_dest_abandons_in_flight_traffic() {
        let mut noc = mesh();
        let mut s = ReliableSender::new(NodeId(1));
        let here = RouterAddr::new(0, 0);
        let dead = RouterAddr::new(1, 1);
        let mut net = NetPort::new(&mut noc, here);
        s.send(&mut net, dead, Service::ActivateProcessor, 0)
            .unwrap();
        assert!(!s.is_idle());
        s.forget_dest(dead);
        assert!(s.is_idle(), "nothing left to retry against a dead node");
        assert_eq!(s.next_deadline(), None);
    }

    #[test]
    fn pending_request_redirect_rebinds_the_implicit_ack() {
        let req = PendingRequest::new(
            RouterAddr::new(1, 1),
            7,
            Service::ReadFromMemory { addr: 0, count: 1 },
            0,
        );
        let mut moved = req.clone();
        moved.redirect(RouterAddr::new(1, 1), RouterAddr::new(1, 0), 10);
        assert!(
            !moved.matches(RouterAddr::new(1, 1), 7),
            "a stale reply from the dead router no longer matches"
        );
        assert!(moved.matches(RouterAddr::new(1, 0), 7));
        // A request aimed elsewhere is untouched.
        let mut other = req.clone();
        other.redirect(RouterAddr::new(0, 1), RouterAddr::new(1, 0), 10);
        assert!(other.matches(RouterAddr::new(1, 1), 7));
    }

    #[test]
    fn a_pending_request_with_attempt_zero_is_malformed() {
        // Regression: a checkpointed remote read, scanf or serial-IP read
        // with `attempt: 0` used to decode, and the next `poll_request`
        // underflowed `attempt - 1`.
        use hermes_noc::snapshot::KIND_SYSTEM;
        let mut w = SnapshotWriter::new();
        w.put(&RouterAddr::new(1, 1));
        w.put(&7u16);
        w.put(&Service::Scanf);
        w.put(&(40u64, 0u32));
        let bytes = w.finish(KIND_SYSTEM);
        let mut r = SnapshotReader::open(&bytes, KIND_SYSTEM).expect("container");
        assert_eq!(
            r.take::<PendingRequest>(),
            Err(SnapshotError::Malformed("retry clock attempt is 0"))
        );
    }

    #[test]
    fn seq_allocation_is_per_destination_and_skips_zero() {
        let mut s = ReliableSender::new(NodeId(1));
        let a = RouterAddr::new(0, 0);
        let b = RouterAddr::new(1, 1);
        assert_eq!(s.alloc_seq(a), 1);
        assert_eq!(s.alloc_seq(a), 2);
        assert_eq!(s.alloc_seq(b), 1, "destinations count independently");
        let i = s.queue_idx(a);
        s.queues[i].next_seq = u16::MAX;
        assert_eq!(s.alloc_seq(a), u16::MAX);
        assert_eq!(s.alloc_seq(a), 1, "wraps past the reserved 0");
        assert_eq!(s.alloc_seq(b), 2, "the wrap did not disturb b");
    }

    #[test]
    fn wraparound_cannot_collide_with_a_peers_remembered_seq() {
        // Regression: with one counter shared across destinations,
        // traffic to other peers could wrap it back onto the last number
        // some peer had seen; the next fresh message to that peer then
        // reused the remembered number and the receiver refused it as a
        // duplicate forever — while still acknowledging it, so the loss
        // was silent. Per-destination counters step by exactly one
        // between a peer's consecutive messages, so fresh never equals
        // remembered, all the way around the sequence space.
        let mut s = ReliableSender::new(NodeId(1));
        let mut d = DedupReceiver::new();
        let peer = RouterAddr::new(1, 1);
        let elsewhere = RouterAddr::new(0, 1);
        let mut last = s.alloc_seq(peer);
        assert!(d.accept(peer, last));
        for _ in 0..(usize::from(u16::MAX) + 10) {
            // The old counter's poison: interleaved traffic elsewhere.
            let _ = s.alloc_seq(elsewhere);
            let seq = s.alloc_seq(peer);
            assert_ne!(seq, 0, "0 stays reserved for unsequenced traffic");
            assert_ne!(seq, last, "consecutive seqs to one peer repeated");
            assert!(d.accept(peer, seq), "fresh message refused as duplicate");
            last = seq;
        }
    }

    #[test]
    fn deadlines_follow_the_backoff_schedule() {
        let mut noc = mesh();
        let here = RouterAddr::new(0, 0);
        let dest = RouterAddr::new(1, 1);
        let mut sender = ReliableSender::new(NodeId(0)).with_policy(RetryPolicy {
            base_timeout: 100,
            max_retries: 5,
        });
        assert_eq!(sender.next_deadline(), None, "idle sender never wakes");
        let mut net = NetPort::new(&mut noc, here);
        sender
            .send(&mut net, dest, Service::Notify { from: 0 }, 40)
            .expect("send");
        assert_eq!(sender.next_deadline(), Some(140));
        // After the first retransmission the backoff doubles.
        sender.poll(&mut net, 140).expect("poll");
        assert_eq!(sender.counters().retransmissions, 1);
        assert_eq!(sender.next_deadline(), Some(140 + 200));
        let req = PendingRequest::new(dest, 9, Service::Scanf, 1_000);
        assert_eq!(sender.request_deadline(&req), 1_100);
    }

    #[test]
    fn stop_and_wait_queues_behind_the_inflight_message() {
        let mut noc = mesh();
        let here = RouterAddr::new(0, 0);
        let dest = RouterAddr::new(1, 1);
        let mut sender = ReliableSender::new(NodeId(0));
        let mut net = NetPort::new(&mut noc, here);
        let s1 = sender
            .send(&mut net, dest, Service::Notify { from: 0 }, 0)
            .expect("send");
        let s2 = sender
            .send(&mut net, dest, Service::Notify { from: 0 }, 0)
            .expect("send");
        assert_ne!(s1, s2);
        assert!(!sender.is_idle());
        // Only the first is on the wire until its ack arrives.
        noc.run_until_idle(10_000).expect("delivers");
        let mut net = NetPort::new(&mut noc, dest);
        let got = net.recv().expect("recv").expect("one message");
        assert_eq!(got.seq, s1);
        assert!(net.recv().expect("recv").is_none());
        // Ack the first: the second launches.
        let mut net = NetPort::new(&mut noc, here);
        sender.on_ack(&mut net, dest, s1, 100).expect("ack");
        noc.run_until_idle(10_000).expect("delivers");
        let mut net = NetPort::new(&mut noc, dest);
        assert_eq!(net.recv().expect("recv").expect("second").seq, s2);
        sender
            .on_ack(&mut NetPort::new(&mut noc, here), dest, s2, 200)
            .expect("ack");
        assert!(sender.is_idle());
        assert_eq!(sender.counters().acked, 2);
    }

    #[test]
    fn timeouts_retransmit_then_fail_typed() {
        let mut noc = mesh();
        let here = RouterAddr::new(0, 0);
        let dest = RouterAddr::new(1, 1);
        let mut sender = ReliableSender::new(NodeId(3)).with_policy(RetryPolicy {
            base_timeout: 10,
            max_retries: 2,
        });
        let mut net = NetPort::new(&mut noc, here);
        sender
            .send(&mut net, dest, Service::ActivateProcessor, 0)
            .expect("send");
        // No ack ever arrives: two retransmissions, then a typed failure.
        let mut t = 0;
        let err = loop {
            t += 1_000;
            let mut net = NetPort::new(&mut noc, here);
            match sender.poll(&mut net, t) {
                Ok(()) => continue,
                Err(e) => break e,
            }
        };
        assert_eq!(sender.counters().retransmissions, 2);
        match err {
            SystemError::DeliveryFailed {
                node,
                dest: d,
                attempts,
                ..
            } => {
                assert_eq!(node, NodeId(3));
                assert_eq!(d, dest);
                assert_eq!(attempts, 3);
            }
            other => panic!("expected DeliveryFailed, got {other}"),
        }
    }

    #[test]
    fn dedup_refuses_repeats_but_accepts_progress() {
        let mut d = DedupReceiver::new();
        let a = RouterAddr::new(0, 0);
        let b = RouterAddr::new(1, 0);
        assert!(d.accept(a, 1));
        assert!(!d.accept(a, 1), "duplicate refused");
        assert!(d.accept(a, 2));
        assert!(d.accept(b, 1), "peers are independent");
        assert!(d.accept(a, 0), "unsequenced always fresh");
        assert!(d.accept(a, 0));
        assert_eq!(d.duplicates(), 1);
    }

    #[test]
    fn epoch_change_resets_backoff_and_delivery_survives_a_dead_link() {
        use hermes_noc::{CycleWindow, FaultPlan, Port, Routing};
        let mut config = NocConfig::mesh(2, 2);
        config.routing = Routing::FaultTolerantXy;
        let mut noc = Noc::new(config).expect("mesh");
        noc.set_fault_plan(FaultPlan::new(7).with_link_down(
            RouterAddr::new(0, 0),
            Port::East,
            CycleWindow::open_ended(0),
        ))
        .unwrap();
        let here = RouterAddr::new(0, 0);
        let dest = RouterAddr::new(1, 0);
        let mut sender = ReliableSender::new(NodeId(0)).with_policy(RetryPolicy {
            base_timeout: 64,
            max_retries: 3,
        });
        sender
            .send(
                &mut NetPort::new(&mut noc, here),
                dest,
                Service::Notify { from: 0 },
                0,
            )
            .expect("send");
        // The first copy wedges on the dying link and is flushed by the
        // diagnosis; the epoch bump resets the sender's retry clock, and
        // the retransmission detours around the dead link.
        let mut delivered = false;
        for _ in 0..40 {
            // Step a fixed slice so the retry clock advances even while
            // the (flushed) network sits idle.
            for _ in 0..200 {
                noc.step();
            }
            let now = noc.cycle();
            sender
                .poll(&mut NetPort::new(&mut noc, here), now)
                .expect("budget never exhausted");
            if NetPort::new(&mut noc, dest).recv().expect("recv").is_some() {
                delivered = true;
                break;
            }
        }
        assert!(delivered, "delivery survives the dead link");
        assert_eq!(noc.current_epoch(), 1, "the link death reconfigured");
        assert!(
            sender.counters().reroute_resets >= 1,
            "the reconfiguration reset the retry clock: {}",
            sender.counters()
        );
    }

    #[test]
    fn partition_surfaces_typed_unreachable() {
        use hermes_noc::{CycleWindow, FaultPlan, Packet, Port, Routing};
        let mut config = NocConfig::mesh(2, 2);
        config.routing = Routing::FaultTolerantXy;
        let mut noc = Noc::new(config).expect("mesh");
        let corner = RouterAddr::new(0, 0);
        noc.set_fault_plan(
            FaultPlan::new(4)
                .with_link_down(corner, Port::East, CycleWindow::open_ended(0))
                .with_link_down(corner, Port::North, CycleWindow::open_ended(0)),
        )
        .unwrap();
        // Two probes kill the corner's links; the corner is then cut off.
        noc.send(corner, Packet::new(RouterAddr::new(1, 1), vec![1]))
            .unwrap();
        noc.run_until_idle(50_000).unwrap();
        noc.send(corner, Packet::new(RouterAddr::new(1, 1), vec![2]))
            .unwrap();
        noc.run_until_idle(50_000).unwrap();
        assert_eq!(noc.current_epoch(), 2);
        let now = noc.cycle();
        let mut sender = ReliableSender::new(NodeId(2));
        let err = sender
            .send(
                &mut NetPort::new(&mut noc, RouterAddr::new(1, 1)),
                corner,
                Service::Notify { from: 2 },
                now,
            )
            .expect_err("the corner is partitioned off");
        match err {
            SystemError::Unreachable { node, dest } => {
                assert_eq!(node, NodeId(2));
                assert_eq!(dest, corner);
            }
            other => panic!("expected Unreachable, got {other}"),
        }
    }

    #[test]
    fn stray_and_stale_acks_are_ignored() {
        let mut noc = mesh();
        let here = RouterAddr::new(0, 0);
        let dest = RouterAddr::new(1, 1);
        let mut sender = ReliableSender::new(NodeId(0));
        let mut net = NetPort::new(&mut noc, here);
        let seq = sender
            .send(&mut net, dest, Service::Notify { from: 0 }, 0)
            .expect("send");
        sender
            .on_ack(&mut net, RouterAddr::new(0, 1), seq, 1)
            .expect("stray peer");
        sender
            .on_ack(&mut net, dest, seq.wrapping_add(9), 1)
            .expect("wrong seq");
        assert!(!sender.is_idle());
        sender.on_ack(&mut net, dest, seq, 1).expect("real ack");
        assert!(sender.is_idle());
        sender
            .on_ack(&mut net, dest, seq, 2)
            .expect("duplicate ack");
        assert_eq!(sender.counters().acked, 1);
    }
}

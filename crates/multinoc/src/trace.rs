//! Service-level observability: per-node counters for each of the nine
//! NoC services and an opt-in event log.
//!
//! The counters are always on (they cost one array increment per
//! message); the event log must be enabled with
//! [`System::enable_trace`](crate::System::enable_trace) and records one
//! [`TraceEvent`] per service message sent or received at any IP — the
//! message-level view the paper's future-work "multiprocessor simulator"
//! needs for understanding distributed applications.

use std::collections::BTreeMap;
use std::fmt;

use hermes_noc::snapshot::Snap;
use hermes_noc::{Ring, RouterAddr, SnapshotError, SnapshotReader, SnapshotWriter};

use crate::node::NodeId;
use crate::service::{Service, ServiceCode};

/// Direction of a traced message, from the local IP's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// The IP injected the message.
    Sent,
    /// The IP received the message.
    Received,
}

/// One service message observed at an IP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Clock cycle of the observation.
    pub cycle: u64,
    /// The observing node.
    pub node: NodeId,
    /// Sent or received.
    pub direction: Direction,
    /// The other endpoint's router.
    pub peer: RouterAddr,
    /// The service code.
    pub code: ServiceCode,
    /// Human-readable summary of the message.
    pub summary: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let arrow = match self.direction {
            Direction::Sent => "->",
            Direction::Received => "<-",
        };
        write!(
            f,
            "[{:>8}] {} {arrow} router {}: {}",
            self.cycle, self.node, self.peer, self.summary
        )
    }
}

/// All service codes (the paper's nine plus the reliability [`Ack`]
/// and replication extensions), for iteration.
///
/// [`Ack`]: ServiceCode::Ack
pub const ALL_CODES: [ServiceCode; 12] = [
    ServiceCode::ReadFromMemory,
    ServiceCode::ReadReturn,
    ServiceCode::WriteInMemory,
    ServiceCode::ActivateProcessor,
    ServiceCode::Printf,
    ServiceCode::Scanf,
    ServiceCode::ScanfReturn,
    ServiceCode::Notify,
    ServiceCode::Wait,
    ServiceCode::Ack,
    ServiceCode::ReplicateWrite,
    ServiceCode::ReplicaInvalidate,
];

fn code_index(code: ServiceCode) -> usize {
    code as usize - 1
}

/// Per-node, per-service message counters, plus a system-wide tally of
/// packets the reliability layer rejected (checksum failures, garbage).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    sent: BTreeMap<NodeId, [u64; 12]>,
    received: BTreeMap<NodeId, [u64; 12]>,
    corrupt_dropped: u64,
}

impl ServiceCounters {
    pub(crate) fn count(&mut self, node: NodeId, direction: Direction, code: ServiceCode) {
        let table = match direction {
            Direction::Sent => &mut self.sent,
            Direction::Received => &mut self.received,
        };
        table.entry(node).or_insert([0; 12])[code_index(code)] += 1;
    }

    pub(crate) fn count_corrupt_drop(&mut self) {
        self.corrupt_dropped += 1;
    }

    /// Undecodable service packets (failed checksum, unknown code,
    /// truncated) dropped at any IP instead of being delivered.
    pub fn corrupt_dropped(&self) -> u64 {
        self.corrupt_dropped
    }

    /// Messages of `code` sent by `node`.
    pub fn sent(&self, node: NodeId, code: ServiceCode) -> u64 {
        self.sent
            .get(&node)
            .map(|row| row[code_index(code)])
            .unwrap_or(0)
    }

    /// Messages of `code` received by `node`.
    pub fn received(&self, node: NodeId, code: ServiceCode) -> u64 {
        self.received
            .get(&node)
            .map(|row| row[code_index(code)])
            .unwrap_or(0)
    }

    /// Total messages of `code` sent anywhere in the system.
    pub fn total_sent(&self, code: ServiceCode) -> u64 {
        self.sent.values().map(|row| row[code_index(code)]).sum()
    }

    /// All nodes that sent or received anything, in node order.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self
            .sent
            .keys()
            .chain(self.received.keys())
            .copied()
            .collect();
        nodes.sort();
        nodes.dedup();
        nodes
    }
}

/// The opt-in event log (bounded; oldest events drop first).
///
/// A [`Ring`] of events numbered in push order, like the hermes
/// statistics window: the buffer grows to twice the capacity before the
/// oldest half is drained in one `memmove`, so a push is amortized O(1)
/// instead of the O(n) of a front removal per event. The log drains as
/// soon as a push fills it, not at the next push.
#[derive(Debug, Default)]
pub struct TraceLog {
    events: Ring<TraceEvent>,
}

impl TraceLog {
    /// A log holding up to `capacity` events (at least one).
    pub fn new(capacity: usize) -> Self {
        Self {
            events: Ring::new(capacity),
        }
    }

    pub(crate) fn push(&mut self, event: TraceEvent) {
        self.events.push(self.events.end(), event);
        self.events.compact();
    }

    /// The recorded events, oldest first — at most the configured
    /// capacity, always the most recent ones.
    pub fn events(&self) -> &[TraceEvent] {
        self.events.visible()
    }

    /// Events no longer visible because the log was full.
    pub fn dropped(&self) -> u64 {
        self.events.end() - self.events().len() as u64
    }

    /// Events physically evicted from the ring buffer, mirroring
    /// [`NocStats::evicted_records`](hermes_noc::NocStats::evicted_records).
    /// Lags [`dropped`](Self::dropped) by up to one capacity's worth
    /// because eviction is amortized.
    pub fn evicted_events(&self) -> u64 {
        self.events.evicted()
    }
}

/// The capacity, the events pushed so far (derived: one past the newest
/// event's number), the eviction count and the held events, each
/// checked on decode.
impl Snap for TraceLog {
    fn put(&self, w: &mut SnapshotWriter) {
        let ring = &self.events;
        w.put(&(ring.window(), ring.end(), ring.evicted()));
        ring.put_held(w);
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let (capacity, pushed, evicted): (usize, u64, u64) = r.take()?;
        let held: Vec<TraceEvent> = r.take()?;
        if pushed.checked_sub(held.len() as u64) != Some(evicted) {
            return Err(SnapshotError::Malformed("trace log push count"));
        }
        let events = Ring::restore(capacity, evicted, evicted, held, "trace log capacity")?;
        Ok(Self { events })
    }
}

/// Builds the one-line summary used in trace events.
pub(crate) fn summarize(service: &Service) -> String {
    service.to_string()
}

hermes_noc::snap_enum!(Direction, "trace direction tag" {
    Sent = 0,
    Received = 1,
});

hermes_noc::snap_struct!(ServiceCounters {
    sent,
    received,
    corrupt_dropped,
} TraceEvent {
    cycle,
    node,
    direction,
    peer,
    code,
    summary,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_node_and_code() {
        let mut c = ServiceCounters::default();
        c.count(NodeId(1), Direction::Sent, ServiceCode::Printf);
        c.count(NodeId(1), Direction::Sent, ServiceCode::Printf);
        c.count(NodeId(2), Direction::Received, ServiceCode::Printf);
        assert_eq!(c.sent(NodeId(1), ServiceCode::Printf), 2);
        assert_eq!(c.received(NodeId(2), ServiceCode::Printf), 1);
        assert_eq!(c.sent(NodeId(2), ServiceCode::Printf), 0);
        assert_eq!(c.total_sent(ServiceCode::Printf), 2);
        assert_eq!(c.nodes(), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn eviction_is_amortized_and_counted() {
        let mut log = TraceLog::new(4);
        let event = |cycle| TraceEvent {
            cycle,
            node: NodeId(0),
            direction: Direction::Sent,
            peer: RouterAddr::new(0, 0),
            code: ServiceCode::Scanf,
            summary: "scanf".into(),
        };
        for i in 0..100u64 {
            log.push(event(i));
            assert!(
                log.events().len() <= 4,
                "visible window never exceeds capacity"
            );
        }
        assert_eq!(log.events().len(), 4);
        assert_eq!(
            log.events().iter().map(|e| e.cycle).collect::<Vec<_>>(),
            vec![96, 97, 98, 99],
            "the newest events are the visible ones"
        );
        assert_eq!(log.dropped(), 96);
        assert_eq!(
            log.evicted_events(),
            96,
            "the 100th push filled the buffer to twice the capacity and drained it at once"
        );
    }

    #[test]
    fn event_display() {
        let e = TraceEvent {
            cycle: 42,
            node: NodeId(1),
            direction: Direction::Received,
            peer: RouterAddr::new(0, 0),
            code: ServiceCode::Notify,
            summary: "notify from node 2".into(),
        };
        let text = e.to_string();
        assert!(text.contains("42") && text.contains("<-") && text.contains("notify"));
    }
}

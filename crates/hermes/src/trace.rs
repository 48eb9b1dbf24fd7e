//! Packet-lifecycle tracing.
//!
//! When enabled ([`Noc::enable_packet_trace`](crate::Noc::enable_packet_trace)),
//! the kernel records a cycle-stamped [`SpanEvent`] at every observable
//! point of a packet's life — injection at the source, each route decision,
//! each header link transfer, arrival at the destination's local port and
//! final delivery (or a drop) — together with the occupancy of the input
//! buffer the packet was sitting in. Events are collected through the
//! two-phase kernel's `ShardDelta`s and replayed at merge time in shard
//! order, so `Reference`, `Active` and `Parallel` kernels (at any thread
//! count) emit bit-identical streams; the trace doubles as a correctness
//! oracle for the deterministic parallel engine.
//!
//! Traces live in the same bounded [`Ring`] as the statistics records:
//! only the most recent `window` packet traces are visible, the backing
//! store never exceeds twice the window, and everything older is counted
//! by [`PacketTracer::evicted_traces`].
//!
//! [`PacketTracer::perfetto_json`] exports the visible traces in the
//! Chrome trace-event format (one timeline track per packet, one
//! microsecond per simulated cycle), directly loadable in
//! `ui.perfetto.dev` or `chrome://tracing`.

use std::fmt;

use crate::addr::{Port, RouterAddr};
use crate::endpoint::PacketId;
use crate::ring::Ring;
use crate::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};

/// What happened at one point of a packet's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The header flit entered the source router's local input buffer.
    Inject,
    /// A router granted the packet's header an output port (the route
    /// decision, after the `routing_cycles` control charge).
    Route,
    /// The header flit crossed an inter-router link through the recorded
    /// output port.
    Hop,
    /// The header flit reached the destination router's local port and
    /// sinking into the endpoint began.
    Sink,
    /// The last payload flit reached the endpoint; the packet is complete.
    Delivered,
    /// The packet's worm was dropped at the recorded router (dead link
    /// with no detour, unreachable or misaddressed destination).
    Drop,
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SpanKind::Inject => "inject",
            SpanKind::Route => "route",
            SpanKind::Hop => "hop",
            SpanKind::Sink => "sink",
            SpanKind::Delivered => "delivered",
            SpanKind::Drop => "drop",
        };
        f.write_str(name)
    }
}

/// One cycle-stamped event in a packet's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Simulation cycle the event happened in.
    pub cycle: u64,
    /// What happened.
    pub kind: SpanKind,
    /// Router the event happened at.
    pub router: RouterAddr,
    /// Port involved: the granted output for [`SpanKind::Route`] and
    /// [`SpanKind::Hop`], the blocked input for [`SpanKind::Drop`],
    /// `Local` for inject/sink/delivered.
    pub port: Port,
    /// Flits buffered in the packet's input port when the event fired
    /// (after the triggering push or pop) — the queueing depth seen at
    /// this hop.
    pub occupancy: u8,
}

/// The recorded lifecycle of one packet: identity, endpoints and the
/// cycle-ordered span events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketTrace {
    pub(crate) id: PacketId,
    pub(crate) src: RouterAddr,
    pub(crate) dest: RouterAddr,
    pub(crate) sent: u64,
    pub(crate) events: Vec<SpanEvent>,
}

impl PacketTrace {
    /// The traced packet's id.
    pub fn id(&self) -> PacketId {
        self.id
    }

    /// Source router.
    pub fn src(&self) -> RouterAddr {
        self.src
    }

    /// Destination router.
    pub fn dest(&self) -> RouterAddr {
        self.dest
    }

    /// Cycle the packet was submitted at the source endpoint.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// The span events, in cycle order.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Number of inter-router link crossings the header made — the route
    /// length in links. Equals the Manhattan distance under healthy XY
    /// routing and the detour length under fault-tolerant routing.
    pub fn hop_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == SpanKind::Hop)
            .count()
    }

    /// Number of route decisions (output-port grants) the header won; on
    /// a delivered packet this is one per router on the path, i.e.
    /// [`hop_count`](Self::hop_count)` + 1`.
    pub fn route_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == SpanKind::Route)
            .count()
    }

    /// The routers that granted the header, in path order (source first).
    pub fn path(&self) -> Vec<RouterAddr> {
        self.events
            .iter()
            .filter(|e| e.kind == SpanKind::Route)
            .map(|e| e.router)
            .collect()
    }

    /// Whether the trace ends in [`SpanKind::Delivered`].
    pub fn is_delivered(&self) -> bool {
        self.events
            .last()
            .is_some_and(|e| e.kind == SpanKind::Delivered)
    }

    /// Whether the packet was dropped inside the network.
    pub fn is_dropped(&self) -> bool {
        self.events.iter().any(|e| e.kind == SpanKind::Drop)
    }
}

impl fmt::Display for PacketTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "packet {} {} -> {} (sent cycle {})",
            self.id.as_u64(),
            self.src,
            self.dest,
            self.sent
        )?;
        for e in &self.events {
            writeln!(
                f,
                "  cycle {:>8}  {:<9} at {} port {} (occupancy {})",
                e.cycle,
                e.kind.to_string(),
                e.router,
                e.port,
                e.occupancy
            )?;
        }
        Ok(())
    }
}

/// Bounded [`Ring`] of recent packet traces, numbered by packet id like
/// the records of [`NocStats`](crate::stats::NocStats), so long runs stay
/// in O(window) memory with amortized O(1) bookkeeping per packet.
#[derive(Debug, Clone, Default)]
pub struct PacketTracer {
    traces: Ring<PacketTrace>,
}

impl PacketTracer {
    /// Creates a tracer retaining the `window` most recent packet traces.
    pub(crate) fn new(window: usize) -> Self {
        Self {
            traces: Ring::new(window),
        }
    }

    /// Starts a trace for a freshly submitted packet. Ids are contiguous
    /// in submission order, which is what makes ring lookup O(1).
    pub(crate) fn register(&mut self, id: PacketId, src: RouterAddr, dest: RouterAddr, sent: u64) {
        let trace = PacketTrace {
            id,
            src,
            dest,
            sent,
            events: Vec::new(),
        };
        self.traces.push(id.as_u64(), trace);
    }

    /// Appends a span event to a live trace. Events for evicted traces
    /// (or for packets submitted before tracing was enabled) are silently
    /// discarded.
    pub(crate) fn record(&mut self, id: PacketId, event: SpanEvent) {
        if let Some(trace) = self.traces.get_mut(id.as_u64()) {
            trace.events.push(event);
        }
    }

    /// The visible traces: the most recent `window` packets, oldest first.
    pub fn traces(&self) -> &[PacketTrace] {
        self.traces.visible()
    }

    /// The trace of one packet, if it is still in the backing store.
    pub fn trace(&self, id: PacketId) -> Option<&PacketTrace> {
        self.traces.get(id.as_u64())
    }

    /// The most recent `last` traces touching `node` as source or
    /// destination, oldest first.
    pub fn traces_for(&self, node: RouterAddr, last: usize) -> Vec<&PacketTrace> {
        let mut hits: Vec<&PacketTrace> = self
            .traces()
            .iter()
            .rev()
            .filter(|t| t.src == node || t.dest == node)
            .take(last)
            .collect();
        hits.reverse();
        hits
    }

    /// Number of traces evicted from the ring so far.
    pub fn evicted_traces(&self) -> u64 {
        self.traces.evicted()
    }

    /// The configured window.
    pub fn window(&self) -> usize {
        self.traces.window()
    }

    /// The visible traces as Chrome trace-event JSON objects (one string
    /// per event), ready for [`perfetto_wrap`].
    pub fn perfetto_events(&self) -> Vec<String> {
        let mut out = Vec::new();
        out.push(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"hermes packets\"}}"
                .to_string(),
        );
        for trace in self.traces() {
            let tid = trace.id.as_u64();
            out.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":\"packet {} {} -> {}\"}}}}",
                tid, trace.src, trace.dest
            ));
            for pair in trace.events.windows(2) {
                let (e, next) = (&pair[0], &pair[1]);
                out.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"packet\",\"ph\":\"X\",\"ts\":{},\
                     \"dur\":{},\"pid\":0,\"tid\":{tid},\"args\":{{\"router\":\"{}\",\
                     \"port\":\"{}\",\"occupancy\":{}}}}}",
                    e.kind,
                    e.cycle,
                    next.cycle.saturating_sub(e.cycle),
                    e.router,
                    e.port,
                    e.occupancy
                ));
            }
            if let Some(e) = trace.events.last() {
                out.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"packet\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{},\"pid\":0,\"tid\":{tid},\"args\":{{\"router\":\"{}\",\
                     \"port\":\"{}\",\"occupancy\":{}}}}}",
                    e.kind, e.cycle, e.router, e.port, e.occupancy
                ));
            }
        }
        out
    }

    /// The visible traces as one Chrome trace-event / Perfetto JSON
    /// document (`ts` is the simulation cycle, rendered as microseconds).
    pub fn perfetto_json(&self) -> String {
        perfetto_wrap(&self.perfetto_events())
    }
}

/// The ring's window, first id and eviction count, whether tracing has
/// started (derived: the ring holds a trace) and the held traces, each
/// checked on decode.
impl Snap for PacketTracer {
    fn put(&self, w: &mut SnapshotWriter) {
        let ring = &self.traces;
        w.put(&(
            ring.window(),
            ring.first(),
            ring.evicted(),
            !ring.is_empty(),
        ));
        ring.put_held(w);
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let (window, first, evicted, started): (usize, u64, u64, bool) = r.take()?;
        let traces: Ring<PacketTrace> =
            Ring::restore(window, first, evicted, r.take()?, "trace ring")?;
        if started == traces.is_empty() || !traces.numbered(|trace| trace.id.as_u64()) {
            return Err(SnapshotError::Malformed("trace ring numbering"));
        }
        Ok(Self { traces })
    }
}

crate::snap_enum!(SpanKind, "span kind tag" {
    Inject = 0,
    Route = 1,
    Hop = 2,
    Sink = 3,
    Delivered = 4,
    Drop = 5,
});

crate::snap_struct!(SpanEvent {
    cycle,
    kind,
    router,
    port,
    occupancy,
} PacketTrace {
    id,
    src,
    dest,
    sent,
    events,
});

/// Wraps pre-rendered trace-event JSON objects into a complete Chrome
/// trace-event document (`{"traceEvents": [...]}`).
pub fn perfetto_wrap(events: &[String]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, event) in events.iter().enumerate() {
        out.push_str(event);
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(cycle: u64, kind: SpanKind) -> SpanEvent {
        SpanEvent {
            cycle,
            kind,
            router: RouterAddr::new(0, 0),
            port: Port::Local,
            occupancy: 1,
        }
    }

    #[test]
    fn ring_keeps_the_window_and_counts_evictions() {
        let mut tracer = PacketTracer::new(2);
        for i in 0..5u64 {
            tracer.register(PacketId(i), RouterAddr::new(0, 0), RouterAddr::new(1, 1), i);
            tracer.record(PacketId(i), event(i, SpanKind::Inject));
        }
        let visible = tracer.traces();
        assert_eq!(visible.len(), 2);
        assert_eq!(visible[0].id(), PacketId(3));
        assert_eq!(visible[1].id(), PacketId(4));
        assert_eq!(tracer.evicted_traces(), 2);
        // Backing store never exceeds twice the window.
        assert!(tracer.traces.held().len() <= 4);
        // Events for evicted packets are dropped silently.
        tracer.record(PacketId(0), event(9, SpanKind::Hop));
        assert!(tracer.trace(PacketId(0)).is_none());
        assert_eq!(tracer.trace(PacketId(4)).unwrap().events().len(), 1);
    }

    #[test]
    fn hop_and_route_counts() {
        let mut tracer = PacketTracer::new(4);
        tracer.register(PacketId(0), RouterAddr::new(0, 0), RouterAddr::new(1, 0), 0);
        for (c, k) in [
            (0, SpanKind::Inject),
            (7, SpanKind::Route),
            (9, SpanKind::Hop),
            (16, SpanKind::Route),
            (20, SpanKind::Sink),
            (26, SpanKind::Delivered),
        ] {
            tracer.record(PacketId(0), event(c, k));
        }
        let t = tracer.trace(PacketId(0)).unwrap();
        assert_eq!(t.hop_count(), 1);
        assert_eq!(t.route_count(), 2);
        assert!(t.is_delivered());
        assert!(!t.is_dropped());
    }

    #[test]
    fn perfetto_export_is_well_formed() {
        let mut tracer = PacketTracer::new(4);
        tracer.register(PacketId(0), RouterAddr::new(0, 0), RouterAddr::new(1, 0), 0);
        tracer.record(PacketId(0), event(0, SpanKind::Inject));
        tracer.record(PacketId(0), event(7, SpanKind::Delivered));
        let json = tracer.perfetto_json();
        assert!(json.starts_with('{'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn json_escape_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}

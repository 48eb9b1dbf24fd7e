//! Causal service-level tracing: one [`ServiceSpan`] per sequenced
//! request, tying together every transmission (including retransmissions
//! by the reliability layer), every failover redirect, and the final
//! delivery acknowledgement.
//!
//! Spans are recorded from the same observation hooks that feed the
//! service counters, so they advance only at fully merged cycle
//! boundaries and are bit-identical across kernels, thread counts and
//! batch windows. The [`System`](crate::System) links them into its
//! Perfetto export via flow events, so a cached read or remote-memory
//! write renders as one connected track from request to completion.

use std::collections::VecDeque;

use hermes_noc::{RouterAddr, SnapshotError};

use crate::node::NodeId;
use crate::service::ServiceCode;

/// One packet submission on behalf of a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanTransmission {
    /// Cycle the packet was handed to the network.
    pub cycle: u64,
    /// The network's packet id, when the submission reached the NoC
    /// (`None` for messages observed without one).
    pub packet: Option<u64>,
}

/// One failover redirect applied to a span's destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRedirect {
    /// Cycle the reliability layer rewrote the destination.
    pub cycle: u64,
    /// The dead router the span was addressed to.
    pub from: RouterAddr,
    /// The promoted survivor it was redirected to.
    pub to: RouterAddr,
}

/// The causal record of one sequenced service request: request id →
/// packets → retransmissions → redirects/failovers → delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceSpan {
    /// Monotone span id (unique within the system run).
    pub id: u64,
    /// The node that issued the request.
    pub node: NodeId,
    /// Current destination router (rewritten by failover redirects).
    pub dest: RouterAddr,
    /// The request's service code.
    pub code: ServiceCode,
    /// The reliability-layer sequence number carried by every
    /// transmission.
    pub seq: u16,
    /// Cycle of the first transmission.
    pub started: u64,
    /// Every packet sent for this request, first transmission included.
    pub transmissions: Vec<SpanTransmission>,
    /// Failover redirects applied while the request was open.
    pub redirects: Vec<SpanRedirect>,
    /// Cycle the completing response (ack / read return / scanf return)
    /// was received, once delivered.
    pub completed: Option<u64>,
}

impl ServiceSpan {
    /// Packets sent beyond the first transmission.
    pub fn retransmissions(&self) -> u64 {
        (self.transmissions.len() as u64).saturating_sub(1)
    }
}

/// Bounded ring of [`ServiceSpan`]s plus the aggregate counters the
/// metrics snapshot exports. Owned by the [`System`](crate::System) and
/// fed from its message observation hooks.
#[derive(Debug)]
pub struct SpanLog {
    capacity: usize,
    spans: VecDeque<ServiceSpan>,
    next_id: u64,
    evicted: u64,
    completed: u64,
    retransmissions: u64,
    redirects: u64,
}

impl SpanLog {
    /// An empty log retaining at most `capacity` spans (at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            spans: VecDeque::new(),
            next_id: 0,
            evicted: 0,
            completed: 0,
            retransmissions: 0,
            redirects: 0,
        }
    }

    /// The retained spans, oldest first.
    pub fn spans(&self) -> impl ExactSizeIterator<Item = &ServiceSpan> + '_ {
        self.spans.iter()
    }

    /// Spans opened so far (including evicted ones).
    pub fn spans_total(&self) -> u64 {
        self.next_id
    }

    /// Spans evicted from the bounded ring so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Spans that reached completion.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Packets sent beyond each span's first transmission.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Failover redirects applied to open spans.
    pub fn redirects(&self) -> u64 {
        self.redirects
    }

    /// Whether `code` opens (or extends) a span when sent. Responses and
    /// acknowledgements ride on their request's span instead of opening
    /// their own.
    fn is_request(code: ServiceCode) -> bool {
        !matches!(
            code,
            ServiceCode::Ack | ServiceCode::ReadReturn | ServiceCode::ScanfReturn
        )
    }

    /// The most recent open span matching the key, if any.
    fn open_span(
        &mut self,
        node: NodeId,
        dest: RouterAddr,
        seq: u16,
        code: Option<ServiceCode>,
    ) -> Option<&mut ServiceSpan> {
        self.spans.iter_mut().rev().find(|s| {
            s.completed.is_none()
                && s.node == node
                && s.dest == dest
                && s.seq == seq
                && code.is_none_or(|c| s.code == c)
        })
    }

    /// Observes a sequenced message leaving `node` for `dest`: the first
    /// send of a request opens a span, a repeat of the same
    /// (node, dest, seq, code) while open records a retransmission.
    /// Unsequenced messages and responses are ignored.
    pub(crate) fn on_sent(
        &mut self,
        now: u64,
        node: NodeId,
        dest: RouterAddr,
        seq: u16,
        code: ServiceCode,
        packet: Option<u64>,
    ) {
        if seq == 0 || !Self::is_request(code) {
            return;
        }
        let tx = SpanTransmission { cycle: now, packet };
        if let Some(span) = self.open_span(node, dest, seq, Some(code)) {
            span.transmissions.push(tx);
            self.retransmissions += 1;
            return;
        }
        let span = ServiceSpan {
            id: self.next_id,
            node,
            dest,
            code,
            seq,
            started: now,
            transmissions: vec![tx],
            redirects: Vec::new(),
            completed: None,
        };
        self.next_id += 1;
        if self.spans.len() == self.capacity {
            self.spans.pop_front();
            self.evicted += 1;
        }
        self.spans.push_back(span);
    }

    /// Observes a message arriving at `node` from `peer`: an `Ack`
    /// completes the open span it acknowledges, a `ReadReturn` /
    /// `ScanfReturn` completes the read / scanf request it answers.
    pub(crate) fn on_received(
        &mut self,
        now: u64,
        node: NodeId,
        peer: RouterAddr,
        seq: u16,
        code: ServiceCode,
    ) {
        if seq == 0 {
            return;
        }
        let request = match code {
            ServiceCode::Ack => None,
            ServiceCode::ReadReturn => Some(ServiceCode::ReadFromMemory),
            ServiceCode::ScanfReturn => Some(ServiceCode::Scanf),
            _ => return,
        };
        if let Some(span) = self.open_span(node, peer, seq, request) {
            span.completed = Some(now);
            self.completed += 1;
        }
    }

    /// Applies a failover redirect: every open span addressed to the dead
    /// router `from` is rewritten to the promoted survivor `to`, so its
    /// completing response (which will arrive from `to`) still matches.
    pub(crate) fn redirect(&mut self, from: RouterAddr, to: RouterAddr, now: u64) {
        for span in self.spans.iter_mut() {
            if span.completed.is_none() && span.dest == from {
                span.dest = to;
                span.redirects.push(SpanRedirect {
                    cycle: now,
                    from,
                    to,
                });
                self.redirects += 1;
            }
        }
    }

    /// The checks a decoded log must pass: a nonzero capacity holding
    /// its ring.
    fn check_restored(&self) -> Result<(), SnapshotError> {
        if self.capacity == 0 {
            return Err(SnapshotError::Malformed("span log capacity"));
        }
        if self.spans.len() > self.capacity {
            return Err(SnapshotError::Malformed("span ring over capacity"));
        }
        Ok(())
    }
}
/// Every span records its first transmission.
fn check_span(span: &ServiceSpan) -> Result<(), SnapshotError> {
    if span.transmissions.is_empty() {
        return Err(SnapshotError::Malformed("span without transmissions"));
    }
    Ok(())
}

hermes_noc::snap_struct!(SpanTransmission { cycle, packet } SpanRedirect {
    cycle,
    from,
    to
} ServiceSpan {
    id,
    node,
    dest,
    code,
    seq,
    started,
    transmissions,
    redirects,
    completed,
} => check_span SpanLog {
    capacity,
    next_id,
    evicted,
    completed,
    retransmissions,
    redirects,
    spans,
} => SpanLog::check_restored);

//! Online per-link health monitoring.
//!
//! Routers cannot see a [`FaultPlan`](crate::fault::FaultPlan); what they
//! *can* see is hop handshakes that time out (a transfer that was ready
//! but the link never acknowledged) or come back garbled (a flit
//! corrupted in flight). The monitor counts **consecutive** failed
//! handshakes per directed link; once the count reaches the configured
//! [`fault_threshold`](crate::NocConfig::fault_threshold) the link is
//! declared dead and — under
//! [`Routing::FaultTolerantXy`](crate::Routing::FaultTolerantXy) — the
//! mesh reconfigures around it. A successful handshake resets the count,
//! so transient congestion or a bounded outage window never kills a link
//! by itself unless it outlasts the threshold.

use std::collections::{BTreeMap, BTreeSet};

use crate::stats::LinkId;

/// Health of one directed link, as seen by the online monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkHealth {
    /// The observed link (upstream router, output port).
    pub link: LinkId,
    /// Current run of consecutive failed handshakes.
    pub consecutive_failures: u32,
    /// Total failed handshakes ever observed.
    pub failures: u64,
    /// Total successful handshakes observed since the first failure.
    pub successes: u64,
    /// Cycle at which the link was declared dead, if it was.
    pub dead_since: Option<u64>,
}

/// Tracks handshake outcomes per directed link and declares links dead.
///
/// Only links that have failed at least once are tracked, so the healthy
/// fast path costs nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct HealthMonitor {
    threshold: u32,
    entries: BTreeMap<LinkId, LinkHealth>,
    dead: BTreeSet<LinkId>,
}

impl HealthMonitor {
    pub fn new(threshold: u32) -> Self {
        Self {
            threshold: threshold.max(1),
            entries: BTreeMap::new(),
            dead: BTreeSet::new(),
        }
    }

    /// Whether any link has ever failed a handshake. While false, the
    /// forwarding fast path can skip success bookkeeping entirely.
    pub fn is_pristine(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records one failed (timed-out or garbled) handshake on `link` at
    /// cycle `now`. Returns `true` exactly once per link: the moment the
    /// consecutive-failure count reaches the threshold.
    pub fn observe_failure(&mut self, link: LinkId, now: u64) -> bool {
        let entry = self.entries.entry(link).or_insert(LinkHealth {
            link,
            consecutive_failures: 0,
            failures: 0,
            successes: 0,
            dead_since: None,
        });
        entry.failures += 1;
        entry.consecutive_failures += 1;
        if entry.dead_since.is_none() && entry.consecutive_failures >= self.threshold {
            entry.dead_since = Some(now);
            self.dead.insert(link);
            return true;
        }
        false
    }

    /// Records one successful handshake on `link`, resetting its run of
    /// consecutive failures. Links already declared dead stay dead (a
    /// reconfiguration epoch is never rolled back).
    pub fn observe_success(&mut self, link: LinkId) {
        if let Some(entry) = self.entries.get_mut(&link) {
            if entry.dead_since.is_none() {
                entry.consecutive_failures = 0;
                entry.successes += 1;
            }
        }
    }

    /// Force-declares `link` dead at cycle `now`, bypassing the
    /// consecutive-failure count. Used when a whole router is diagnosed
    /// dead: every link touching it is condemned at once rather than
    /// waiting for each to time out on its own. Returns `true` if the
    /// link was not already dead.
    pub fn declare_dead(&mut self, link: LinkId, now: u64) -> bool {
        let entry = self.entries.entry(link).or_insert(LinkHealth {
            link,
            consecutive_failures: 0,
            failures: 0,
            successes: 0,
            dead_since: None,
        });
        if entry.dead_since.is_some() {
            return false;
        }
        entry.dead_since = Some(now);
        self.dead.insert(link);
        true
    }

    /// Whether `link` has been declared dead.
    pub fn is_dead(&self, link: LinkId) -> bool {
        self.dead.contains(&link)
    }

    /// The set of links declared dead so far.
    pub fn dead_links(&self) -> &BTreeSet<LinkId> {
        &self.dead
    }

    /// Health of every link that has ever failed a handshake, in link
    /// order (deterministic).
    pub fn snapshot(&self) -> Vec<LinkHealth> {
        self.entries.values().copied().collect()
    }

    /// Serializes the tracked entries. The dead set is not written: it is
    /// exactly the entries with `dead_since` set, so it is rebuilt on
    /// restore. The threshold comes from the configuration.
    pub fn snapshot_write(&self, w: &mut crate::snapshot::SnapshotWriter) {
        w.put(&self.snapshot());
    }

    /// Restores the tracked entries into a monitor freshly built from the
    /// configuration, rebuilding the dead set from `dead_since` markers.
    pub fn snapshot_read(
        &mut self,
        r: &mut crate::snapshot::SnapshotReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        for health in r.take::<Vec<LinkHealth>>()? {
            if self.entries.insert(health.link, health).is_some() {
                return Err(crate::snapshot::SnapshotError::Malformed(
                    "duplicate health entry",
                ));
            }
            if health.dead_since.is_some() {
                self.dead.insert(health.link);
            }
        }
        Ok(())
    }
}

crate::snap_struct!(LinkHealth {
    link,
    consecutive_failures,
    failures,
    successes,
    dead_since,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Port, RouterAddr};

    fn link() -> LinkId {
        (RouterAddr::new(0, 0), Port::East)
    }

    #[test]
    fn declares_dead_at_threshold_exactly_once() {
        let mut m = HealthMonitor::new(3);
        assert!(m.is_pristine());
        assert!(!m.observe_failure(link(), 10));
        assert!(!m.observe_failure(link(), 12));
        assert!(!m.is_dead(link()));
        assert!(m.observe_failure(link(), 14), "third strike kills it");
        assert!(m.is_dead(link()));
        assert!(!m.observe_failure(link(), 16), "declared only once");
        assert_eq!(m.snapshot()[0].dead_since, Some(14));
        assert!(!m.is_pristine());
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let mut m = HealthMonitor::new(2);
        assert!(!m.observe_failure(link(), 1));
        m.observe_success(link());
        assert!(!m.observe_failure(link(), 3), "run was reset");
        assert!(m.observe_failure(link(), 5));
        let h = m.snapshot()[0];
        assert_eq!(h.failures, 3);
        assert_eq!(h.successes, 1);
    }

    #[test]
    fn success_on_untracked_link_is_free() {
        let mut m = HealthMonitor::new(2);
        m.observe_success(link());
        assert!(m.is_pristine());
    }

    #[test]
    fn declare_dead_bypasses_the_threshold() {
        let mut m = HealthMonitor::new(4);
        assert!(m.declare_dead(link(), 7), "newly declared");
        assert!(m.is_dead(link()));
        assert!(!m.declare_dead(link(), 9), "already dead");
        assert_eq!(
            m.snapshot()[0].dead_since,
            Some(7),
            "first declaration wins"
        );
        assert!(
            !m.observe_failure(link(), 11),
            "later failures never re-declare"
        );
    }

    #[test]
    fn dead_links_accumulate_in_order() {
        let mut m = HealthMonitor::new(1);
        let b = (RouterAddr::new(1, 1), Port::South);
        assert!(m.observe_failure(b, 5));
        assert!(m.observe_failure(link(), 9));
        let dead: Vec<LinkId> = m.dead_links().iter().copied().collect();
        assert_eq!(dead, vec![link(), b], "BTreeSet keeps address order");
    }
}

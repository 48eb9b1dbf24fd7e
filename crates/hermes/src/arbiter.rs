//! Output-port arbitration.
//!
//! When more than one input port requests a connection at the same time,
//! the router's centralized control grants one of them. The paper uses a
//! round-robin scheme "to avoid starvation"; a fixed-priority scheme is
//! provided so the benefit can be measured (experiment E9 in DESIGN.md).

/// Arbitration policy used by every router's control logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Arbitration {
    /// Scan input ports starting after the most recently granted one.
    /// No requester can be starved: after a grant the winner becomes the
    /// lowest-priority port.
    #[default]
    RoundRobin,
    /// Always scan input ports in fixed order (East first). A persistent
    /// high-priority requester can starve the others — kept only as an
    /// ablation baseline.
    FixedPriority,
}

crate::snap_enum!(Arbitration, "arbitration tag" {
    RoundRobin = 0,
    FixedPriority = 1,
});

/// Round-robin scan state for one router (the rotating priority pointer).
#[derive(Debug, Clone)]
pub struct Arbiter {
    policy: Arbitration,
    /// Index of the input port with *lowest* priority in the next scan
    /// (the most recent winner under round-robin).
    last_winner: usize,
    ports: usize,
}

impl Arbiter {
    /// Creates an arbiter over `ports` input ports.
    pub fn new(policy: Arbitration, ports: usize) -> Self {
        Self {
            policy,
            last_winner: ports.saturating_sub(1),
            ports,
        }
    }

    /// The order in which input ports should be examined this cycle.
    pub fn scan_order(&self) -> impl Iterator<Item = usize> + '_ {
        let start = match self.policy {
            Arbitration::RoundRobin => (self.last_winner + 1) % self.ports,
            Arbitration::FixedPriority => 0,
        };
        (0..self.ports).map(move |offset| (start + offset) % self.ports)
    }

    /// Records that `port` won arbitration, rotating the priority pointer
    /// under round-robin.
    pub fn grant(&mut self, port: usize) {
        debug_assert!(port < self.ports);
        self.last_winner = port;
    }

    /// Serializes the rotating priority pointer (policy and port count
    /// come from the configuration).
    pub(crate) fn snapshot_write(&self, w: &mut crate::snapshot::SnapshotWriter) {
        w.put(&(self.last_winner as u8));
    }

    /// Restores the priority pointer into an arbiter freshly built from
    /// the configuration.
    pub(crate) fn snapshot_read(
        &mut self,
        r: &mut crate::snapshot::SnapshotReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        let winner = usize::from(r.take::<u8>()?);
        if winner >= self.ports {
            return Err(crate::snapshot::SnapshotError::Malformed(
                "arbiter priority pointer out of range",
            ));
        }
        self.last_winner = winner;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_rotates_after_grant() {
        let mut a = Arbiter::new(Arbitration::RoundRobin, 5);
        assert_eq!(a.scan_order().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        a.grant(0);
        assert_eq!(a.scan_order().collect::<Vec<_>>(), vec![1, 2, 3, 4, 0]);
        a.grant(3);
        assert_eq!(a.scan_order().collect::<Vec<_>>(), vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn fixed_priority_never_rotates() {
        let mut a = Arbiter::new(Arbitration::FixedPriority, 5);
        a.grant(2);
        a.grant(4);
        assert_eq!(a.scan_order().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn every_port_appears_exactly_once() {
        let mut a = Arbiter::new(Arbitration::RoundRobin, 5);
        for winner in [1usize, 4, 0, 2] {
            a.grant(winner);
            let mut order = a.scan_order().collect::<Vec<_>>();
            order.sort_unstable();
            assert_eq!(order, vec![0, 1, 2, 3, 4]);
        }
    }
}

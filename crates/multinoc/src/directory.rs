//! Service directory: which node currently *serves* each logical node.
//!
//! The paper's node table maps node numbers to routers and is only
//! rewritten by explicit reconfiguration. Fault tolerance adds a second,
//! dynamic level: a Memory IP can be *replicated* — a primary and a
//! write-through backup on distinct nodes — and when the network's
//! online diagnosis declares the primary's node dead, the system
//! promotes the backup. Clients keep addressing the logical (primary)
//! node number; the directory tells them which node is serving it right
//! now, and the node table then resolves that node to a router as
//! usual.
//!
//! The directory is deliberately dumb and deterministic: it holds no
//! timers and makes no decisions. The system drives it from the same
//! epoch/diagnosis machinery that rewrites routes, calling
//! [`fail_over`](ServiceDirectory::fail_over) exactly when a member
//! node is declared dead, so every kernel replays the identical
//! promotion at the identical cycle.

use hermes_noc::SnapshotError;

use crate::node::NodeId;

/// A primary/backup pair serving one logical node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaGroup {
    /// The logical node clients address; also the initial server.
    pub primary: NodeId,
    /// The write-through replica promoted if the primary dies.
    pub backup: NodeId,
    /// The member currently serving requests.
    pub serving: NodeId,
    /// Cycle of the promotion, once one happened.
    pub failed_over_at: Option<u64>,
}

impl ReplicaGroup {
    /// Whether `node` is one of this group's members.
    pub fn contains(&self, node: NodeId) -> bool {
        self.primary == node || self.backup == node
    }

    /// The member that is not `node` (caller guarantees membership).
    fn other(&self, node: NodeId) -> NodeId {
        if self.primary == node {
            self.backup
        } else {
            self.primary
        }
    }
}

/// Maps logical nodes to the node currently serving them.
///
/// Ungrouped nodes serve themselves; the directory only tracks
/// replicated services. Every IP holds a clone (pushed by the system on
/// every change, like the node table), so resolution is a local lookup
/// with no traffic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceDirectory {
    /// `Vec`, not a map: iteration order must be deterministic.
    groups: Vec<ReplicaGroup>,
}

impl ServiceDirectory {
    /// An empty directory: every node serves itself.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `backup` as the write-through replica of `primary`.
    pub fn register(&mut self, primary: NodeId, backup: NodeId) {
        self.groups.push(ReplicaGroup {
            primary,
            backup,
            serving: primary,
            failed_over_at: None,
        });
    }

    /// The node currently serving requests addressed to `node`.
    /// Identity for nodes without a replica group.
    pub fn serving(&self, node: NodeId) -> NodeId {
        self.groups
            .iter()
            .find(|g| g.primary == node)
            .map_or(node, |g| g.serving)
    }

    /// The replica group `node` belongs to, if any.
    pub fn group_of(&self, node: NodeId) -> Option<&ReplicaGroup> {
        self.groups.iter().find(|g| g.contains(node))
    }

    /// All registered groups.
    pub fn groups(&self) -> &[ReplicaGroup] {
        &self.groups
    }

    /// Reacts to `dead` being declared dead at `cycle`. If it was the
    /// serving member of a group whose other member is still available,
    /// promotes the survivor and returns `(logical, survivor)` so the
    /// system can rewire clients. Returns `None` when the dead node
    /// serves nothing here (including the case where it is the inactive
    /// member: the serving side keeps serving, it merely loses its
    /// replica).
    pub fn fail_over(&mut self, dead: NodeId, cycle: u64) -> Option<(NodeId, NodeId)> {
        let g = self
            .groups
            .iter_mut()
            .find(|g| g.contains(dead) && g.serving == dead)?;
        let survivor = g.other(dead);
        g.serving = survivor;
        g.failed_over_at = Some(cycle);
        Some((g.primary, survivor))
    }
}

/// A group's serving node must be one of its two replicas.
fn check_group(g: &ReplicaGroup) -> Result<(), SnapshotError> {
    if g.serving != g.primary && g.serving != g.backup {
        return Err(SnapshotError::Malformed("serving node outside group"));
    }
    Ok(())
}

hermes_noc::snap_struct!(ReplicaGroup {
    primary,
    backup,
    serving,
    failed_over_at,
} => check_group ServiceDirectory { groups });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ungrouped_nodes_serve_themselves() {
        let d = ServiceDirectory::new();
        assert_eq!(d.serving(NodeId(3)), NodeId(3));
        assert!(d.group_of(NodeId(3)).is_none());
    }

    #[test]
    fn primary_serves_until_failover_promotes_the_backup() {
        let mut d = ServiceDirectory::new();
        d.register(NodeId(3), NodeId(4));
        assert_eq!(d.serving(NodeId(3)), NodeId(3));
        assert_eq!(d.fail_over(NodeId(3), 77), Some((NodeId(3), NodeId(4))));
        assert_eq!(d.serving(NodeId(3)), NodeId(4));
        let g = d.group_of(NodeId(3)).unwrap();
        assert_eq!(g.failed_over_at, Some(77));
        assert_eq!(g.serving, NodeId(4));
    }

    #[test]
    fn backup_death_does_not_move_the_service() {
        let mut d = ServiceDirectory::new();
        d.register(NodeId(3), NodeId(4));
        assert_eq!(d.fail_over(NodeId(4), 10), None);
        assert_eq!(d.serving(NodeId(3)), NodeId(3));
        assert!(d.group_of(NodeId(3)).unwrap().failed_over_at.is_none());
    }

    #[test]
    fn dead_unrelated_node_is_ignored() {
        let mut d = ServiceDirectory::new();
        d.register(NodeId(3), NodeId(4));
        assert_eq!(d.fail_over(NodeId(1), 5), None);
    }

    #[test]
    fn failback_after_both_deaths_is_not_attempted_twice() {
        // Primary dies, backup promoted; then the backup dies too. The
        // group fails over back to the (dead) primary only if asked —
        // the system gates this on liveness, the directory just records.
        let mut d = ServiceDirectory::new();
        d.register(NodeId(3), NodeId(4));
        d.fail_over(NodeId(3), 1);
        assert_eq!(d.fail_over(NodeId(4), 2), Some((NodeId(3), NodeId(3))));
    }
}

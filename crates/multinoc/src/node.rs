//! Node identities.

use std::fmt;

/// Logical number of an IP core in the MultiNoC system, as used by the
/// host protocol ("read from P1 local memory" = node 1) and by the
/// wait/notify commands ("the number of the processor").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u8);

impl NodeId {
    /// The node number as carried in packets and registers.
    pub fn as_u16(self) -> u16 {
        u16::from(self.0)
    }

    /// Index into the system's node table.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node {}", self.0)
    }
}

impl From<u8> for NodeId {
    fn from(n: u8) -> Self {
        Self(n)
    }
}

/// What kind of IP core occupies a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An R8 processor IP with its 1K-word local memory.
    Processor,
    /// An independently accessible remote memory IP.
    Memory,
    /// The RS-232 serial IP bridging to the host computer.
    Serial,
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            NodeKind::Processor => "processor",
            NodeKind::Memory => "memory",
            NodeKind::Serial => "serial",
        };
        f.write_str(name)
    }
}

/// The system's directory: which router each node sits on and what kind
/// of IP it is. Shared (by clone) with the IPs that need to translate
/// node numbers to router addresses. Slots may be vacant: node ids stay
/// stable when an IP core is removed by dynamic reconfiguration (§5).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodeTable {
    entries: Vec<Option<(hermes_noc::RouterAddr, NodeKind)>>,
}

impl NodeTable {
    /// Builds a table from `(router, kind)` pairs in node-id order.
    pub fn new(entries: Vec<(hermes_noc::RouterAddr, NodeKind)>) -> Self {
        Self {
            entries: entries.into_iter().map(Some).collect(),
        }
    }

    /// Number of node slots (including vacant ones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no node slots.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Router address of `node` (`None` for unknown or vacant nodes).
    pub fn router_of(&self, node: NodeId) -> Option<hermes_noc::RouterAddr> {
        self.entries
            .get(node.index())
            .copied()
            .flatten()
            .map(|(addr, _)| addr)
    }

    /// Kind of `node` (`None` for unknown or vacant nodes).
    pub fn kind_of(&self, node: NodeId) -> Option<NodeKind> {
        self.entries
            .get(node.index())
            .copied()
            .flatten()
            .map(|(_, kind)| kind)
    }

    /// Node sitting on router `addr`.
    pub fn node_of(&self, addr: hermes_noc::RouterAddr) -> Option<NodeId> {
        self.entries
            .iter()
            .position(|e| e.is_some_and(|(a, _)| a == addr))
            .map(|i| NodeId(i as u8))
    }

    /// All nodes of a kind, in node-id order.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> impl Iterator<Item = NodeId> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.is_some_and(|(_, k)| k == kind))
            .map(|(i, _)| NodeId(i as u8))
    }

    /// Moves `node` to `addr` (dynamic reconfiguration).
    pub(crate) fn relocate(&mut self, node: NodeId, addr: hermes_noc::RouterAddr) {
        if let Some(Some(entry)) = self.entries.get_mut(node.index()) {
            entry.0 = addr;
        }
    }

    /// Appends a node, returning its id.
    pub(crate) fn push(&mut self, addr: hermes_noc::RouterAddr, kind: NodeKind) -> NodeId {
        self.entries.push(Some((addr, kind)));
        NodeId(self.entries.len() as u8 - 1)
    }

    /// Routers of all occupied slots.
    pub(crate) fn routers(&self) -> impl Iterator<Item = hermes_noc::RouterAddr> + '_ {
        self.entries.iter().flatten().map(|&(addr, _)| addr)
    }

    /// Vacates a node slot (the id is never reused).
    pub(crate) fn vacate(&mut self, node: NodeId) {
        if let Some(entry) = self.entries.get_mut(node.index()) {
            *entry = None;
        }
    }
}

// A node table snapshot is its slot list: a vacancy tag per slot and,
// if occupied, the router address and kind.
hermes_noc::snap_struct!(NodeId { 0 } NodeTable { entries });

hermes_noc::snap_enum!(NodeKind, "node kind tag" {
    Processor = 0,
    Memory = 1,
    Serial = 2,
});

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_noc::RouterAddr;

    #[test]
    fn node_table_lookups() {
        let table = NodeTable::new(vec![
            (RouterAddr::new(0, 0), NodeKind::Serial),
            (RouterAddr::new(0, 1), NodeKind::Processor),
            (RouterAddr::new(1, 0), NodeKind::Processor),
            (RouterAddr::new(1, 1), NodeKind::Memory),
        ]);
        assert_eq!(table.len(), 4);
        assert_eq!(table.router_of(NodeId(1)), Some(RouterAddr::new(0, 1)));
        assert_eq!(table.node_of(RouterAddr::new(1, 1)), Some(NodeId(3)));
        assert_eq!(table.kind_of(NodeId(0)), Some(NodeKind::Serial));
        assert_eq!(table.router_of(NodeId(9)), None);
        assert_eq!(
            table.nodes_of_kind(NodeKind::Processor).collect::<Vec<_>>(),
            vec![NodeId(1), NodeId(2)]
        );
    }

    #[test]
    fn conversions_and_display() {
        let n = NodeId(3);
        assert_eq!(n.as_u16(), 3);
        assert_eq!(n.index(), 3);
        assert_eq!(n.to_string(), "node 3");
        assert_eq!(NodeId::from(7u8), NodeId(7));
        assert_eq!(NodeKind::Serial.to_string(), "serial");
    }
}

//! Network topologies: the flat paper mesh, a wraparound torus, and a
//! chiplet mesh-of-meshes with explicit off-chip (die-to-die) channels.
//!
//! Every shape presents the same flat coordinate space to the rest of the
//! simulator — routers live at `(x, y)` on a `width()`×`height()` grid and
//! are stored in row-major order — so sharding, snapshots and statistics
//! work unchanged. What varies per topology is *connectivity* (which
//! neighbours exist, [`Topology::neighbour`]) and the *channel model* of
//! each link ([`Topology::link_cadence_mult`], [`Topology::link_latency`]):
//!
//! - [`Topology::Mesh`] — the paper's `width`×`height` mesh. Border
//!   routers lack the outward ports; every link is a single-cycle-cadence
//!   on-chip channel. Behaviour is bit-for-bit the pre-topology simulator.
//! - [`Topology::Torus`] — the same grid with wraparound links joining
//!   each border to the opposite border, so every router has all four
//!   mesh ports. Plain XY is *not* deadlock-free on a wormhole torus
//!   without virtual channels, so torus networks route by an up*/down*
//!   [`RouteTable`](crate::RouteTable) (acyclic by construction for any
//!   graph) instead of the algebraic XY step.
//! - [`Topology::ChipletMesh`] — `k_chip`×`k_chip` chiplets, each an
//!   on-chip `k_node`×`k_node` mesh, abutted into one aligned global grid
//!   the way `chiplet-network-sim` wires its MultiChipMesh. Links that
//!   cross a chip boundary are die-to-die channels with their own
//!   bandwidth/latency model ([`D2dChannel`]); routing is hierarchical
//!   chip-local XY + inter-chip XY, which on the aligned grid is exactly
//!   global XY and therefore inherits XY's turn-model deadlock freedom.

use std::fmt;

use crate::addr::{Port, RouterAddr};
use crate::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::stats::LinkId;

/// Physical model of an off-chip die-to-die channel, following the
/// serial-vs-parallel split in `chiplet-network-sim`: a serial link
/// time-multiplexes the flit over few wires (lower bandwidth, longer
/// serialization), a parallel link ships the flit wide (full bandwidth,
/// only the crossing latency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum D2dChannel {
    /// Serialized die-to-die link: one flit every
    /// `4 × cycles_per_flit` cycles, and each flit spends 8 extra cycles
    /// in flight before the far router can see it.
    OffChipSerial,
    /// Wide die-to-die link: full on-chip cadence, 2 extra cycles of
    /// crossing latency per flit.
    OffChipParallel,
}

impl D2dChannel {
    /// Cadence multiplier: how many on-chip flit slots one off-chip flit
    /// occupies on its upstream output port (bandwidth model).
    pub const fn cadence_mult(self) -> u32 {
        match self {
            D2dChannel::OffChipSerial => 4,
            D2dChannel::OffChipParallel => 1,
        }
    }

    /// Extra cycles a flit spends crossing the channel before the
    /// downstream router can act on it (latency model).
    pub const fn latency(self) -> u64 {
        match self {
            D2dChannel::OffChipSerial => 8,
            D2dChannel::OffChipParallel => 2,
        }
    }
}

impl fmt::Display for D2dChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            D2dChannel::OffChipSerial => f.write_str("off-chip-serial"),
            D2dChannel::OffChipParallel => f.write_str("off-chip-parallel"),
        }
    }
}

/// Shape of the router network. The module-level documentation above
/// spells out the semantics of each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// Flat `width`×`height` mesh — the paper's topology and the default.
    Mesh {
        /// Columns (X dimension).
        width: u8,
        /// Rows (Y dimension).
        height: u8,
    },
    /// `width`×`height` grid with wraparound links on both axes. Both
    /// dimensions must be at least 3 (a 1-wide ring is a self-loop, a
    /// 2-wide ring doubles the existing edge).
    Torus {
        /// Columns (X dimension).
        width: u8,
        /// Rows (Y dimension).
        height: u8,
    },
    /// `k_chip`×`k_chip` chiplets of `k_node`×`k_node` routers abutted
    /// into one `(k_chip·k_node)`² global grid; links crossing a chip
    /// boundary are off-chip [`D2dChannel`]s.
    ChipletMesh {
        /// Chiplets per side of the package.
        k_chip: u8,
        /// Routers per side of one chiplet.
        k_node: u8,
        /// Channel model of the die-to-die links.
        d2d: D2dChannel,
    },
}

impl Topology {
    /// Global grid columns. For a chiplet mesh this is `k_chip · k_node`;
    /// [`NocConfig::validate`](crate::NocConfig::validate) guarantees the
    /// product fits a coordinate byte before any simulation runs.
    pub fn width(&self) -> u8 {
        match *self {
            Topology::Mesh { width, .. } | Topology::Torus { width, .. } => width,
            Topology::ChipletMesh { k_chip, k_node, .. } => {
                let w = u16::from(k_chip) * u16::from(k_node);
                debug_assert!(w <= u16::from(u8::MAX), "chiplet side {w} overflows u8");
                w as u8
            }
        }
    }

    /// Global grid rows (equal to [`width`](Self::width) for the square
    /// chiplet package).
    pub fn height(&self) -> u8 {
        match *self {
            Topology::Mesh { height, .. } | Topology::Torus { height, .. } => height,
            Topology::ChipletMesh { .. } => self.width(),
        }
    }

    /// Total number of routers.
    pub fn router_count(&self) -> usize {
        usize::from(self.width()) * usize::from(self.height())
    }

    /// Whether `addr` names a router of this topology.
    pub fn contains(&self, addr: RouterAddr) -> bool {
        addr.x() < self.width() && addr.y() < self.height()
    }

    /// Row-major storage index of `addr`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `addr` lies outside the grid; callers
    /// validate with [`contains`](Self::contains) where input is untrusted.
    pub fn index(&self, addr: RouterAddr) -> usize {
        debug_assert!(self.contains(addr), "router {addr} outside topology");
        usize::from(addr.y()) * usize::from(self.width()) + usize::from(addr.x())
    }

    /// Inverse of [`index`](Self::index).
    pub fn addr_of(&self, index: usize) -> RouterAddr {
        let w = usize::from(self.width());
        RouterAddr::new((index % w) as u8, (index / w) as u8)
    }

    /// The router reached by leaving `addr` through `port`, or `None` when
    /// no such link exists (mesh/chiplet borders, and always for `Local`).
    /// On the torus every non-`Local` port connects, wrapping at the
    /// borders.
    pub fn neighbour(&self, addr: RouterAddr, port: Port) -> Option<RouterAddr> {
        let (x, y) = (addr.x(), addr.y());
        let (w, h) = (self.width(), self.height());
        if x >= w || y >= h {
            return None;
        }
        let wraps = matches!(self, Topology::Torus { .. });
        match port {
            Port::East => {
                if x + 1 < w {
                    Some(RouterAddr::new(x + 1, y))
                } else if wraps && w >= 2 {
                    Some(RouterAddr::new(0, y))
                } else {
                    None
                }
            }
            Port::West => {
                if x > 0 {
                    Some(RouterAddr::new(x - 1, y))
                } else if wraps && w >= 2 {
                    Some(RouterAddr::new(w - 1, y))
                } else {
                    None
                }
            }
            Port::North => {
                if y + 1 < h {
                    Some(RouterAddr::new(x, y + 1))
                } else if wraps && h >= 2 {
                    Some(RouterAddr::new(x, 0))
                } else {
                    None
                }
            }
            Port::South => {
                if y > 0 {
                    Some(RouterAddr::new(x, y - 1))
                } else if wraps && h >= 2 {
                    Some(RouterAddr::new(x, h - 1))
                } else {
                    None
                }
            }
            Port::Local => None,
        }
    }

    /// Whether the router at `addr` has the given port wired: `Local` is
    /// always present, the mesh ports exactly when a neighbour exists.
    pub fn has_port(&self, addr: RouterAddr, port: Port) -> bool {
        port == Port::Local || self.neighbour(addr, port).is_some()
    }

    /// Whether the link leaving `addr` through `port` is a torus
    /// wraparound link (joins opposite borders).
    pub fn is_wraparound(&self, addr: RouterAddr, port: Port) -> bool {
        if !matches!(self, Topology::Torus { .. }) {
            return false;
        }
        match port {
            Port::East => addr.x() + 1 == self.width(),
            Port::West => addr.x() == 0,
            Port::North => addr.y() + 1 == self.height(),
            Port::South => addr.y() == 0,
            Port::Local => false,
        }
    }

    /// Whether the link leaving `addr` through `port` crosses a chiplet
    /// boundary (and is therefore an off-chip [`D2dChannel`]).
    pub fn is_off_chip(&self, addr: RouterAddr, port: Port) -> bool {
        let Topology::ChipletMesh { k_node, .. } = *self else {
            return false;
        };
        if self.neighbour(addr, port).is_none() {
            return false;
        }
        let k = k_node.max(1);
        match port {
            Port::East => (addr.x() + 1).is_multiple_of(k),
            Port::West => addr.x().is_multiple_of(k),
            Port::North => (addr.y() + 1).is_multiple_of(k),
            Port::South => addr.y().is_multiple_of(k),
            Port::Local => false,
        }
    }

    /// Cadence multiplier of the link leaving `addr` through `port`: the
    /// upstream output port stays busy `cadence_mult × cycles_per_flit`
    /// cycles per flit. On-chip links (and every link of mesh/torus) are
    /// `1`; off-chip links follow their [`D2dChannel`].
    pub fn link_cadence_mult(&self, addr: RouterAddr, port: Port) -> u32 {
        match *self {
            Topology::ChipletMesh { d2d, .. } if self.is_off_chip(addr, port) => d2d.cadence_mult(),
            _ => 1,
        }
    }

    /// Extra in-flight cycles a flit spends on the link leaving `addr`
    /// through `port` before the downstream router can act on it. Zero
    /// for on-chip links; off-chip links follow their [`D2dChannel`].
    pub fn link_latency(&self, addr: RouterAddr, port: Port) -> u64 {
        match *self {
            Topology::ChipletMesh { d2d, .. } if self.is_off_chip(addr, port) => d2d.latency(),
            _ => 0,
        }
    }

    /// Chip coordinates `(cx, cy)` of the chiplet holding `addr`
    /// (`(0, 0)` everywhere on non-chiplet topologies).
    pub fn chip_of(&self, addr: RouterAddr) -> (u8, u8) {
        match *self {
            Topology::ChipletMesh { k_node, .. } if k_node > 0 => {
                (addr.x() / k_node, addr.y() / k_node)
            }
            _ => (0, 0),
        }
    }

    /// Human-readable name of a directed link for metrics and heatmaps.
    /// Mesh labels keep the historic `"<addr>:<port>"` form byte-for-byte;
    /// torus wraparound links gain a `:wrap` suffix, and chiplet labels
    /// are hierarchical — `"c<cx><cy>.<lx><ly>:<port>"` with a `:d2d`
    /// suffix on off-chip links.
    pub fn link_label(&self, link: LinkId) -> String {
        let (addr, port) = link;
        match *self {
            Topology::Mesh { .. } => format!("{addr}:{port}"),
            Topology::Torus { .. } => {
                if self.is_wraparound(addr, port) {
                    format!("{addr}:{port}:wrap")
                } else {
                    format!("{addr}:{port}")
                }
            }
            Topology::ChipletMesh { k_node, .. } => {
                let (cx, cy) = self.chip_of(addr);
                let (lx, ly) = if k_node > 0 {
                    (addr.x() % k_node, addr.y() % k_node)
                } else {
                    (addr.x(), addr.y())
                };
                if self.is_off_chip(addr, port) {
                    format!("c{cx}{cy}.{lx}{ly}:{port}:d2d")
                } else {
                    format!("c{cx}{cy}.{lx}{ly}:{port}")
                }
            }
        }
    }

    /// Inverse of [`link_label`](Self::link_label): recovers the link a
    /// label names, or `None` if the label belongs to no link of this
    /// topology. Exact by construction — it compares against the labels
    /// this topology generates, so exporters that consume metric names
    /// (heatmaps, dashboards) never re-implement the three label shapes.
    pub fn parse_link_label(&self, label: &str) -> Option<LinkId> {
        for idx in 0..self.router_count() {
            let addr = self.addr_of(idx);
            for port in Port::ALL {
                if self.link_label((addr, port)) == label {
                    return Some((addr, port));
                }
            }
        }
        None
    }

    /// Whether healthy routing on this topology needs a precomputed
    /// [`RouteTable`](crate::RouteTable) instead of the algebraic XY/YX
    /// step. True for the torus: minimal dimension-order routing on a
    /// wormhole torus without virtual channels can deadlock around the
    /// wraparound rings, so the torus routes by the turn-restricted
    /// up*/down* table, which is acyclic for any connected graph.
    pub fn requires_route_table(&self) -> bool {
        matches!(self, Topology::Torus { .. })
    }
}

crate::snap_enum!(D2dChannel, "d2d channel tag" {
    OffChipSerial = 0,
    OffChipParallel = 1,
});

/// A variant tag (`0` mesh, `1` torus, `2` chiplet mesh), then the
/// variant's parameters.
impl Snap for Topology {
    fn put(&self, w: &mut SnapshotWriter) {
        match *self {
            Topology::Mesh { width, height } => w.put(&(0u8, width, height)),
            Topology::Torus { width, height } => w.put(&(1u8, width, height)),
            Topology::ChipletMesh {
                k_chip,
                k_node,
                d2d,
            } => w.put(&(2u8, k_chip, k_node, d2d)),
        }
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.take::<u8>()? {
            0 => {
                let (width, height) = r.take()?;
                Topology::Mesh { width, height }
            }
            1 => {
                let (width, height) = r.take()?;
                Topology::Torus { width, height }
            }
            2 => {
                let (k_chip, k_node, d2d) = r.take()?;
                Topology::ChipletMesh {
                    k_chip,
                    k_node,
                    d2d,
                }
            }
            _ => return Err(SnapshotError::Malformed("topology tag")),
        })
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Topology::Mesh { width, height } => write!(f, "mesh-{width}x{height}"),
            Topology::Torus { width, height } => write!(f, "torus-{width}x{height}"),
            Topology::ChipletMesh {
                k_chip,
                k_node,
                d2d,
            } => write!(f, "chiplet-{k_chip}x{k_chip}of{k_node}x{k_node}-{d2d}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Topology {
        Topology::Mesh {
            width: 3,
            height: 2,
        }
    }

    fn torus() -> Topology {
        Topology::Torus {
            width: 4,
            height: 3,
        }
    }

    fn chiplet() -> Topology {
        Topology::ChipletMesh {
            k_chip: 2,
            k_node: 2,
            d2d: D2dChannel::OffChipSerial,
        }
    }

    #[test]
    fn dims_and_indexing_round_trip() {
        for topo in [mesh(), torus(), chiplet()] {
            assert_eq!(
                topo.router_count(),
                usize::from(topo.width()) * usize::from(topo.height())
            );
            for idx in 0..topo.router_count() {
                let addr = topo.addr_of(idx);
                assert!(topo.contains(addr));
                assert_eq!(topo.index(addr), idx);
            }
        }
        assert_eq!(chiplet().width(), 4);
        assert_eq!(chiplet().height(), 4);
    }

    #[test]
    fn mesh_borders_have_no_neighbours() {
        let t = mesh();
        let corner = RouterAddr::new(0, 0);
        assert_eq!(t.neighbour(corner, Port::West), None);
        assert_eq!(t.neighbour(corner, Port::South), None);
        assert_eq!(t.neighbour(corner, Port::East), Some(RouterAddr::new(1, 0)));
        assert_eq!(
            t.neighbour(corner, Port::North),
            Some(RouterAddr::new(0, 1))
        );
        assert!(!t.has_port(corner, Port::West));
        assert!(t.has_port(corner, Port::Local));
    }

    #[test]
    fn torus_wraps_all_four_borders() {
        let t = torus();
        assert_eq!(
            t.neighbour(RouterAddr::new(0, 1), Port::West),
            Some(RouterAddr::new(3, 1))
        );
        assert_eq!(
            t.neighbour(RouterAddr::new(3, 1), Port::East),
            Some(RouterAddr::new(0, 1))
        );
        assert_eq!(
            t.neighbour(RouterAddr::new(2, 2), Port::North),
            Some(RouterAddr::new(2, 0))
        );
        assert_eq!(
            t.neighbour(RouterAddr::new(2, 0), Port::South),
            Some(RouterAddr::new(2, 2))
        );
        // Every router of a torus has every port.
        for idx in 0..t.router_count() {
            for port in Port::ALL {
                assert!(t.has_port(t.addr_of(idx), port));
            }
        }
        assert!(t.is_wraparound(RouterAddr::new(0, 1), Port::West));
        assert!(!t.is_wraparound(RouterAddr::new(1, 1), Port::West));
        assert!(t.requires_route_table());
        assert!(!mesh().requires_route_table());
    }

    #[test]
    fn torus_neighbour_relation_is_symmetric() {
        let t = torus();
        for idx in 0..t.router_count() {
            let here = t.addr_of(idx);
            for port in [Port::East, Port::West, Port::North, Port::South] {
                let there = t.neighbour(here, port).unwrap();
                assert_eq!(
                    t.neighbour(there, port.opposite().unwrap()),
                    Some(here),
                    "{here}:{port}"
                );
            }
        }
    }

    #[test]
    fn chiplet_boundary_links_are_off_chip() {
        let t = chiplet();
        // x=1 -> x=2 crosses the chip boundary (k_node = 2).
        assert!(t.is_off_chip(RouterAddr::new(1, 0), Port::East));
        assert!(t.is_off_chip(RouterAddr::new(2, 0), Port::West));
        assert!(t.is_off_chip(RouterAddr::new(0, 1), Port::North));
        assert!(t.is_off_chip(RouterAddr::new(0, 2), Port::South));
        // Interior links stay on-chip.
        assert!(!t.is_off_chip(RouterAddr::new(0, 0), Port::East));
        // Package borders have no link at all.
        assert!(!t.is_off_chip(RouterAddr::new(3, 0), Port::East));
        assert_eq!(t.neighbour(RouterAddr::new(3, 0), Port::East), None);
        // Channel model follows the d2d kind.
        assert_eq!(t.link_cadence_mult(RouterAddr::new(1, 0), Port::East), 4);
        assert_eq!(t.link_latency(RouterAddr::new(1, 0), Port::East), 8);
        assert_eq!(t.link_cadence_mult(RouterAddr::new(0, 0), Port::East), 1);
        assert_eq!(t.link_latency(RouterAddr::new(0, 0), Port::East), 0);
        let wide = Topology::ChipletMesh {
            k_chip: 2,
            k_node: 2,
            d2d: D2dChannel::OffChipParallel,
        };
        assert_eq!(wide.link_cadence_mult(RouterAddr::new(1, 0), Port::East), 1);
        assert_eq!(wide.link_latency(RouterAddr::new(1, 0), Port::East), 2);
    }

    #[test]
    fn mesh_and_torus_links_have_unit_channel_model() {
        for topo in [mesh(), torus()] {
            for idx in 0..topo.router_count() {
                let here = topo.addr_of(idx);
                for port in Port::ALL {
                    assert_eq!(topo.link_cadence_mult(here, port), 1);
                    assert_eq!(topo.link_latency(here, port), 0);
                }
            }
        }
    }

    #[test]
    fn link_labels_follow_topology() {
        let a = RouterAddr::new(0, 1);
        assert_eq!(mesh().link_label((a, Port::East)), "01:East");
        assert_eq!(torus().link_label((a, Port::East)), "01:East");
        assert_eq!(torus().link_label((a, Port::West)), "01:West:wrap");
        let t = chiplet();
        assert_eq!(
            t.link_label((RouterAddr::new(0, 0), Port::East)),
            "c00.00:East"
        );
        assert_eq!(
            t.link_label((RouterAddr::new(1, 2), Port::East)),
            "c01.10:East:d2d"
        );
    }

    #[test]
    fn every_link_label_parses_back_to_its_link() {
        for topo in [mesh(), torus(), chiplet()] {
            for idx in 0..topo.router_count() {
                let addr = topo.addr_of(idx);
                for port in Port::ALL {
                    let label = topo.link_label((addr, port));
                    assert_eq!(
                        topo.parse_link_label(&label),
                        Some((addr, port)),
                        "{topo} label {label}"
                    );
                }
            }
            assert_eq!(topo.parse_link_label("99:East"), None);
            assert_eq!(topo.parse_link_label("not a label"), None);
        }
    }

    #[test]
    fn snapshot_round_trip_all_variants() {
        use crate::snapshot::{SnapshotReader, SnapshotWriter, KIND_NOC};
        for topo in [
            mesh(),
            torus(),
            chiplet(),
            Topology::ChipletMesh {
                k_chip: 4,
                k_node: 8,
                d2d: D2dChannel::OffChipParallel,
            },
        ] {
            let mut w = SnapshotWriter::new();
            w.put(&topo);
            let bytes = w.finish(KIND_NOC);
            let mut r = SnapshotReader::open(&bytes, KIND_NOC).unwrap();
            assert_eq!(r.take::<Topology>().unwrap(), topo);
            r.finish().unwrap();
        }
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(mesh().to_string(), "mesh-3x2");
        assert_eq!(torus().to_string(), "torus-4x3");
        assert_eq!(chiplet().to_string(), "chiplet-2x2of2x2-off-chip-serial");
    }
}

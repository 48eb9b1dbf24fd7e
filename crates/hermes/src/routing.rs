//! Routing algorithms.
//!
//! The paper employs the deterministic XY algorithm: a packet first moves
//! along the X dimension until the destination column is reached, then
//! along Y. XY is minimal and deadlock-free on a mesh (it forbids the
//! turns that could close a cyclic channel dependency). YX is included as
//! the mirror-image ablation.
//!
//! [`Routing::FaultTolerantXy`] adds graceful degradation: while the mesh
//! is healthy it routes exactly like XY, but once links have been declared
//! dead (see [`fault`](crate::fault) and the health monitor in
//! [`Noc`](crate::Noc)) routers switch to a precomputed [`RouteTable`]
//! that detours around the dead links under a turn restriction that keeps
//! the channel dependency graph acyclic — so detours cannot deadlock.
//!
//! ## The turn model
//!
//! The table is an *up\*/down\** orientation of the surviving channels.
//! Every router gets a key `(bfs_level, index)` from a breadth-first
//! search over the live links, rooted at the smallest live address of its
//! connected component. A directed channel is **up** if it moves to a
//! strictly smaller key and **down** otherwise; a packet may take any
//! turn except *down → up* (and may never make a 180° U-turn). Because
//! the keys form a total order, a cyclic channel dependency would need at
//! least one down → up transition — which is forbidden — so the turn set
//! is provably cycle-free for *any* dead-link set. Within a connected
//! component an up-then-down path always exists (climb BFS parents
//! towards the root, descend to the destination), so the table returns
//! `None` only when the dead links actually partition the mesh.

use std::collections::BTreeSet;
use std::collections::VecDeque;

use crate::addr::{Port, RouterAddr};
use crate::error::RouteError;
use crate::stats::LinkId;
use crate::topology::Topology;

/// Deterministic routing algorithm run by each router's control logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Routing {
    /// Route along X (East/West) first, then Y (North/South). Used by the
    /// paper.
    #[default]
    Xy,
    /// Route along Y first, then X. Equally deadlock-free; ablation only.
    Yx,
    /// XY while the mesh is healthy; once links are declared dead, routers
    /// adopt a turn-restricted detour table (see [`RouteTable`]) that
    /// stays deadlock-free and reaches every destination the dead-link
    /// set has not cut off.
    FaultTolerantXy,
}

crate::snap_enum!(Routing, "routing tag" {
    Xy = 0,
    Yx = 1,
    FaultTolerantXy = 2,
});

impl Routing {
    /// The output port a packet for `dest` takes at router `here`, on a
    /// healthy grid topology. Returns [`Port::Local`] when the packet has
    /// arrived. [`Routing::FaultTolerantXy`] routes like XY here; its
    /// detours live in [`RouteTable`] and apply only once links have
    /// died.
    ///
    /// On [`Topology::Mesh`] this is the paper's algorithm; on
    /// [`Topology::ChipletMesh`] the chiplets abut into one aligned
    /// global grid, so global XY *is* the hierarchical chip-local-XY +
    /// inter-chip-XY route and inherits XY's turn-model deadlock freedom.
    /// A [`Topology::Torus`] never routes through this function — its
    /// healthy routing is the up\*/down\* [`RouteTable`] (see
    /// [`Topology::requires_route_table`]) because XY with wraparound
    /// choice can close cyclic channel dependencies; called on a torus
    /// anyway, this returns the wrap-free mesh-XY step, which is valid
    /// but never uses the wraparound links.
    ///
    /// # Errors
    ///
    /// [`RouteError::OutOfMesh`] if `here` or `dest` lies outside the
    /// grid — an out-of-mesh destination must surface as a typed error,
    /// not be silently "delivered" to whichever router decoded it.
    pub fn route(
        self,
        here: RouterAddr,
        dest: RouterAddr,
        topology: &Topology,
    ) -> Result<Port, RouteError> {
        for addr in [here, dest] {
            if !topology.contains(addr) {
                return Err(RouteError::OutOfMesh {
                    addr,
                    width: topology.width(),
                    height: topology.height(),
                });
            }
        }
        Ok(match self {
            Routing::Xy | Routing::FaultTolerantXy => Self::step_x(here, dest)
                .or_else(|| Self::step_y(here, dest))
                .unwrap_or(Port::Local),
            Routing::Yx => Self::step_y(here, dest)
                .or_else(|| Self::step_x(here, dest))
                .unwrap_or(Port::Local),
        })
    }

    fn step_x(here: RouterAddr, dest: RouterAddr) -> Option<Port> {
        match dest.x().cmp(&here.x()) {
            std::cmp::Ordering::Greater => Some(Port::East),
            std::cmp::Ordering::Less => Some(Port::West),
            std::cmp::Ordering::Equal => None,
        }
    }

    fn step_y(here: RouterAddr, dest: RouterAddr) -> Option<Port> {
        match dest.y().cmp(&here.y()) {
            std::cmp::Ordering::Greater => Some(Port::North),
            std::cmp::Ordering::Less => Some(Port::South),
            std::cmp::Ordering::Equal => None,
        }
    }
}

/// The four inter-router directions, in [`Port::ALL`] order.
const DIRS: [Port; 4] = [Port::East, Port::West, Port::North, Port::South];

/// A fault-tolerant routing table for one dead-link set.
///
/// Built once per reconfiguration epoch and shared by every router that
/// has adopted that epoch. The table answers, for each `(router, input
/// port, destination)` triple, which output port the packet takes next —
/// or `None` when the dead links cut the destination off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteTable {
    topology: Topology,
    dead: BTreeSet<LinkId>,
    /// Router key: `(bfs_level << 16) | router_index`; up = smaller key.
    keys: Vec<u32>,
    /// `next[(dest * n + router) * 5 + input_port]`.
    next: Vec<Option<Port>>,
    /// Channel hops from injection at `src` to ejection at `dest`, flat
    /// `dest * n + src`; `None` when unreachable.
    inj_dist: Vec<Option<u32>>,
}

impl RouteTable {
    /// Builds the detour table for a topology with the given directed
    /// dead links. Dead `Local` links make the attached IP unreachable
    /// for ejection.
    ///
    /// The up\*/down\* construction only needs the topology's neighbour
    /// relation, so it works unchanged on the mesh, the wraparound torus
    /// (where it doubles as the *healthy* routing function) and the
    /// chiplet grid — and its deadlock-freedom argument (a cycle would
    /// need a forbidden down → up turn in the total key order) holds for
    /// any of them, with any dead-link set.
    ///
    /// A dead inter-router channel kills the whole edge for routing (the
    /// reverse channel is not used either, even if it still works): the
    /// up\*/down\* reachability argument reasons over undirected edges,
    /// and an asymmetric hole — one direction usable, the other not —
    /// could otherwise leave a connected pair of routers with no
    /// valid-turn path between them.
    pub fn build(topology: &Topology, dead: &BTreeSet<LinkId>) -> Self {
        let n = topology.router_count();
        let mut table = Self {
            topology: *topology,
            dead: dead.clone(),
            keys: vec![0; n],
            next: vec![None; n * n * 5],
            inj_dist: vec![None; n * n],
        };
        for &(addr, dir) in dead {
            if !topology.contains(addr) {
                continue;
            }
            let Some(opp) = dir.opposite() else { continue };
            if let Some(peer) = table.neighbour(table.idx(addr), dir) {
                table.dead.insert((table.addr(peer), opp));
            }
        }
        table.assign_keys();
        for dest in 0..n {
            table.fill_dest(dest);
        }
        table
    }

    fn idx(&self, addr: RouterAddr) -> usize {
        self.topology.index(addr)
    }

    fn addr(&self, idx: usize) -> RouterAddr {
        self.topology.addr_of(idx)
    }

    fn neighbour(&self, idx: usize, dir: Port) -> Option<usize> {
        self.topology
            .neighbour(self.addr(idx), dir)
            .map(|a| self.idx(a))
    }

    /// Whether the directed inter-router channel out of `idx` through
    /// `dir` exists and is not declared dead.
    fn channel_live(&self, idx: usize, dir: Port) -> bool {
        self.neighbour(idx, dir).is_some() && !self.dead.contains(&(self.addr(idx), dir))
    }

    /// BFS levels over the surviving topology. Each connected component is
    /// rooted at its smallest router index; an undirected edge survives if
    /// either of its two directed channels is live.
    fn assign_keys(&mut self) {
        let n = self.keys.len();
        let mut level = vec![u32::MAX; n];
        for root in 0..n {
            if level[root] != u32::MAX {
                continue;
            }
            level[root] = 0;
            let mut queue = VecDeque::from([root]);
            while let Some(u) = queue.pop_front() {
                for dir in DIRS {
                    let Some(v) = self.neighbour(u, dir) else {
                        continue;
                    };
                    let fwd = self.channel_live(u, dir);
                    let back = dir.opposite().is_some_and(|opp| self.channel_live(v, opp));
                    if (fwd || back) && level[v] == u32::MAX {
                        level[v] = level[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
        }
        for (idx, key) in self.keys.iter_mut().enumerate() {
            *key = (level[idx] << 16) | idx as u32;
        }
    }

    /// Whether the channel `from → through dir` moves to a strictly
    /// smaller key (an *up* channel).
    fn is_up(&self, from: usize, dir: Port) -> bool {
        self.neighbour(from, dir)
            .is_some_and(|to| self.keys[to] < self.keys[from])
    }

    /// Whether a packet that entered `at` through input port `in_port`
    /// (the upstream router sits on that side) may leave through
    /// `out_dir`: no 180° U-turn and no down → up transition.
    fn turn_allowed(&self, at: usize, in_port: Port, out_dir: Port) -> bool {
        if out_dir == in_port {
            // 180° U-turn back over the arrival link.
            return false;
        }
        let Some(upstream) = self.neighbour(at, in_port) else {
            // No upstream router (injection); every live channel is fair.
            return true;
        };
        let came_up = self.keys[at] < self.keys[upstream];
        let goes_up = self.is_up(at, out_dir);
        came_up || !goes_up
    }

    /// Reverse BFS over the channel graph towards `dest`, then pick the
    /// distance-minimal allowed successor for every `(router, input)`.
    fn fill_dest(&mut self, dest: usize) {
        let n = self.keys.len();
        // dist[router * 4 + dir]: valid-walk hops from the moment the
        // packet is about to cross that channel until ejection at `dest`.
        let mut dist = vec![None::<u32>; n * 4];
        let mut queue = VecDeque::new();
        let eject_ok = !self.dead.contains(&(self.addr(dest), Port::Local));
        if eject_ok {
            for u in 0..n {
                for (d, dir) in DIRS.iter().enumerate() {
                    if self.channel_live(u, *dir) && self.neighbour(u, *dir) == Some(dest) {
                        dist[u * 4 + d] = Some(1);
                        queue.push_back((u, *dir));
                    }
                }
            }
        }
        while let Some((v, out_dir)) = queue.pop_front() {
            let base = dist[v * 4 + out_dir.index()].expect("queued channels have a distance");
            // Predecessor channels u → v whose turn onto (v, out_dir) is
            // allowed inherit distance base + 1.
            for (d, in_dir) in DIRS.iter().enumerate() {
                let Some(opp) = in_dir.opposite() else {
                    continue;
                };
                let Some(u) = self.neighbour(v, opp) else {
                    continue;
                };
                if !self.channel_live(u, *in_dir) || dist[u * 4 + d].is_some() {
                    continue;
                }
                // The packet entered v through its `opp` input port.
                if !self.turn_allowed(v, opp, out_dir) {
                    continue;
                }
                dist[u * 4 + d] = Some(base + 1);
                queue.push_back((u, *in_dir));
            }
        }

        for v in 0..n {
            for in_idx in 0..5 {
                let slot = (dest * n + v) * 5 + in_idx;
                if v == dest {
                    self.next[slot] = eject_ok.then_some(Port::Local);
                    continue;
                }
                let in_port = Port::from_index(in_idx);
                let mut best: Option<(u32, Port)> = None;
                for dir in DIRS {
                    if !self.channel_live(v, dir) {
                        continue;
                    }
                    if in_port != Port::Local && !self.turn_allowed(v, in_port, dir) {
                        continue;
                    }
                    let Some(d) = dist[v * 4 + dir.index()] else {
                        continue;
                    };
                    if best.is_none_or(|(bd, _)| d < bd) {
                        best = Some((d, dir));
                    }
                }
                self.next[slot] = best.map(|(_, dir)| dir);
            }
            let inj = self.next[(dest * n + v) * 5 + Port::Local.index()];
            self.inj_dist[dest * n + v] = if v == dest {
                eject_ok.then_some(0)
            } else {
                inj.map(|dir| dist[v * 4 + dir.index()].expect("chosen channel has a distance"))
            };
        }
    }

    /// Topology the table was built for.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Grid width the table was built for.
    pub fn width(&self) -> u8 {
        self.topology.width()
    }

    /// Grid height the table was built for.
    pub fn height(&self) -> u8 {
        self.topology.height()
    }

    /// The dead-link set the table detours around.
    pub fn dead_links(&self) -> &BTreeSet<LinkId> {
        &self.dead
    }

    /// The output port a packet for `dest` takes at `here`, given the
    /// input port it arrived on (`Port::Local` for freshly injected
    /// packets). `None` means the destination is unreachable from this
    /// channel under the current dead-link set.
    ///
    /// # Errors
    ///
    /// [`RouteError::OutOfMesh`] when `here` or `dest` lies outside the
    /// mesh the table was built for.
    pub fn next_hop(
        &self,
        here: RouterAddr,
        arrived: Port,
        dest: RouterAddr,
    ) -> Result<Option<Port>, RouteError> {
        for addr in [here, dest] {
            if !self.topology.contains(addr) {
                return Err(RouteError::OutOfMesh {
                    addr,
                    width: self.width(),
                    height: self.height(),
                });
            }
        }
        let n = self.keys.len();
        Ok(self.next[(self.idx(dest) * n + self.idx(here)) * 5 + arrived.index()])
    }

    /// Whether a packet injected at `src` can reach (and eject at) `dest`.
    pub fn reachable(&self, src: RouterAddr, dest: RouterAddr) -> bool {
        self.route_hops(src, dest).is_some()
    }

    /// Link hops of the table's path from injection at `src` to ejection
    /// at `dest` (0 for self-addressed), or `None` when unreachable.
    pub fn route_hops(&self, src: RouterAddr, dest: RouterAddr) -> Option<u32> {
        if !self.topology.contains(src) || !self.topology.contains(dest) {
            return None;
        }
        let n = self.keys.len();
        self.inj_dist[self.idx(dest) * n + self.idx(src)]
    }

    /// Every turn the table's paths may use, as `(incoming channel,
    /// outgoing channel)` pairs over live channels. Tests check this
    /// relation is cycle-free, which is the deadlock-freedom argument.
    pub fn allowed_turns(&self) -> Vec<(LinkId, LinkId)> {
        let n = self.keys.len();
        let mut turns = Vec::new();
        for v in 0..n {
            for in_dir in DIRS {
                let Some(opp) = in_dir.opposite() else {
                    continue;
                };
                let Some(u) = self.neighbour(v, opp) else {
                    continue;
                };
                if !self.channel_live(u, in_dir) {
                    continue;
                }
                for out_dir in DIRS {
                    if !self.channel_live(v, out_dir) {
                        continue;
                    }
                    if self.turn_allowed(v, opp, out_dir) {
                        turns.push(((self.addr(u), in_dir), (self.addr(v), out_dir)));
                    }
                }
            }
        }
        turns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh(width: u8, height: u8) -> Topology {
        Topology::Mesh { width, height }
    }

    fn torus(width: u8, height: u8) -> Topology {
        Topology::Torus { width, height }
    }

    #[test]
    fn xy_goes_x_first() {
        let here = RouterAddr::new(1, 1);
        let route = |dest| Routing::Xy.route(here, dest, &mesh(4, 4)).unwrap();
        assert_eq!(route(RouterAddr::new(3, 3)), Port::East);
        assert_eq!(route(RouterAddr::new(0, 3)), Port::West);
        assert_eq!(route(RouterAddr::new(1, 3)), Port::North);
        assert_eq!(route(RouterAddr::new(1, 0)), Port::South);
        assert_eq!(route(here), Port::Local);
    }

    #[test]
    fn yx_goes_y_first() {
        let here = RouterAddr::new(1, 1);
        assert_eq!(
            Routing::Yx.route(here, RouterAddr::new(3, 3), &mesh(4, 4)),
            Ok(Port::North)
        );
        assert_eq!(
            Routing::Yx.route(here, RouterAddr::new(3, 1), &mesh(4, 4)),
            Ok(Port::East)
        );
    }

    #[test]
    fn out_of_mesh_destination_is_a_typed_error_not_local() {
        // The old behaviour silently returned Port::Local for any address
        // whose coordinates matched after wrap-around — a misdelivery.
        let here = RouterAddr::new(1, 1);
        let bad = RouterAddr::new(5, 1);
        for routing in [Routing::Xy, Routing::Yx, Routing::FaultTolerantXy] {
            assert_eq!(
                routing.route(here, bad, &mesh(2, 2)),
                Err(RouteError::OutOfMesh {
                    addr: bad,
                    width: 2,
                    height: 2
                })
            );
            assert_eq!(
                routing.route(bad, here, &mesh(2, 2)),
                Err(RouteError::OutOfMesh {
                    addr: bad,
                    width: 2,
                    height: 2
                })
            );
        }
    }

    #[test]
    fn fault_tolerant_matches_xy_on_a_healthy_mesh() {
        for sx in 0..4u8 {
            for sy in 0..3u8 {
                for dx in 0..4u8 {
                    for dy in 0..3u8 {
                        let here = RouterAddr::new(sx, sy);
                        let dest = RouterAddr::new(dx, dy);
                        assert_eq!(
                            Routing::FaultTolerantXy.route(here, dest, &mesh(4, 3)),
                            Routing::Xy.route(here, dest, &mesh(4, 3)),
                        );
                    }
                }
            }
        }
    }

    /// Following the routing function step by step must reach the
    /// destination in exactly the Manhattan distance.
    #[test]
    fn routing_is_minimal_and_terminates() {
        for routing in [Routing::Xy, Routing::Yx, Routing::FaultTolerantXy] {
            for sx in 0..4u8 {
                for sy in 0..4u8 {
                    for dx in 0..4u8 {
                        for dy in 0..4u8 {
                            let dest = RouterAddr::new(dx, dy);
                            let mut here = RouterAddr::new(sx, sy);
                            let mut hops = 0;
                            loop {
                                match routing.route(here, dest, &mesh(4, 4)).unwrap() {
                                    Port::Local => break,
                                    Port::East => here = RouterAddr::new(here.x() + 1, here.y()),
                                    Port::West => here = RouterAddr::new(here.x() - 1, here.y()),
                                    Port::North => here = RouterAddr::new(here.x(), here.y() + 1),
                                    Port::South => here = RouterAddr::new(here.x(), here.y() - 1),
                                }
                                hops += 1;
                                assert!(hops <= 8, "routing did not terminate");
                            }
                            assert_eq!(here, dest);
                            assert_eq!(hops, RouterAddr::new(sx, sy).hops_to(dest));
                        }
                    }
                }
            }
        }
    }

    fn walk(table: &RouteTable, src: RouterAddr, dest: RouterAddr) -> Option<u32> {
        let mut here = src;
        let mut arrived = Port::Local;
        let mut hops = 0u32;
        loop {
            match table.next_hop(here, arrived, dest).unwrap()? {
                Port::Local => return Some(hops),
                dir => {
                    arrived = dir.opposite().unwrap();
                    here = table
                        .topology()
                        .neighbour(here, dir)
                        .expect("table only routes over existing links");
                    hops += 1;
                    assert!(hops <= 64, "table walk did not terminate");
                }
            }
        }
    }

    #[test]
    fn healthy_table_is_minimal_everywhere() {
        let table = RouteTable::build(&mesh(4, 4), &BTreeSet::new());
        for s in 0..16usize {
            for d in 0..16usize {
                let src = RouterAddr::new((s % 4) as u8, (s / 4) as u8);
                let dest = RouterAddr::new((d % 4) as u8, (d / 4) as u8);
                assert_eq!(walk(&table, src, dest), Some(src.hops_to(dest)));
                assert_eq!(table.route_hops(src, dest), Some(src.hops_to(dest)));
            }
        }
    }

    #[test]
    fn single_dead_link_detours_and_still_reaches() {
        // Kill (1,1) -> East in both directions on a 3x3; every pair must
        // still be reachable, the straight-line pairs via a detour.
        let mut dead = BTreeSet::new();
        dead.insert((RouterAddr::new(1, 1), Port::East));
        dead.insert((RouterAddr::new(2, 1), Port::West));
        let table = RouteTable::build(&mesh(3, 3), &dead);
        for s in 0..9usize {
            for d in 0..9usize {
                let src = RouterAddr::new((s % 3) as u8, (s / 3) as u8);
                let dest = RouterAddr::new((d % 3) as u8, (d / 3) as u8);
                let hops = walk(&table, src, dest).expect("still connected");
                assert!(hops >= src.hops_to(dest));
                assert_eq!(table.route_hops(src, dest), Some(hops));
            }
        }
        let detour = table
            .route_hops(RouterAddr::new(1, 1), RouterAddr::new(2, 1))
            .unwrap();
        assert!(detour > 1, "the dead straight line needs a detour");
    }

    #[test]
    fn one_direction_dead_kills_the_whole_edge_for_routing() {
        // Only (0,0) -> East is declared dead; the reverse channel still
        // works. The table must treat the edge as gone entirely — the
        // up*/down* turn restriction cannot promise a path that uses one
        // direction of an edge whose other direction is dead — and every
        // pair must remain mutually reachable via the detour.
        let mut dead = BTreeSet::new();
        dead.insert((RouterAddr::new(0, 0), Port::East));
        let table = RouteTable::build(&mesh(2, 2), &dead);
        assert!(
            table
                .dead_links()
                .contains(&(RouterAddr::new(1, 0), Port::West)),
            "the reverse channel is retired with its partner"
        );
        for s in 0..4usize {
            for d in 0..4usize {
                let src = RouterAddr::new((s % 2) as u8, (s / 2) as u8);
                let dest = RouterAddr::new((d % 2) as u8, (d / 2) as u8);
                walk(&table, src, dest).expect("still connected");
            }
        }
    }

    #[test]
    fn partition_reports_unreachable() {
        // Cut off (0,0) on a 2x2 completely.
        let mut dead = BTreeSet::new();
        for (r, p) in [
            (RouterAddr::new(0, 0), Port::East),
            (RouterAddr::new(1, 0), Port::West),
            (RouterAddr::new(0, 0), Port::North),
            (RouterAddr::new(0, 1), Port::South),
        ] {
            dead.insert((r, p));
        }
        let table = RouteTable::build(&mesh(2, 2), &dead);
        assert!(!table.reachable(RouterAddr::new(0, 0), RouterAddr::new(1, 1)));
        assert!(!table.reachable(RouterAddr::new(1, 1), RouterAddr::new(0, 0)));
        assert!(table.reachable(RouterAddr::new(1, 0), RouterAddr::new(0, 1)));
        assert!(table.reachable(RouterAddr::new(0, 0), RouterAddr::new(0, 0)));
        assert_eq!(
            table.next_hop(RouterAddr::new(0, 0), Port::Local, RouterAddr::new(1, 1)),
            Ok(None)
        );
    }

    #[test]
    fn dead_local_link_blocks_ejection_only() {
        let mut dead = BTreeSet::new();
        dead.insert((RouterAddr::new(1, 0), Port::Local));
        let table = RouteTable::build(&mesh(2, 2), &dead);
        assert!(!table.reachable(RouterAddr::new(0, 0), RouterAddr::new(1, 0)));
        assert!(table.reachable(RouterAddr::new(0, 0), RouterAddr::new(1, 1)));
    }

    /// The dead-link set a router escalation condemns: every outgoing
    /// channel of the victim (including its local ejection port) plus
    /// every inbound channel from its mesh neighbours.
    fn router_death_links(w: u8, h: u8, victim: RouterAddr) -> BTreeSet<LinkId> {
        let mut dead = BTreeSet::new();
        dead.insert((victim, Port::Local));
        let neighbour = |dir| match dir {
            Port::East if victim.x() + 1 < w => Some(RouterAddr::new(victim.x() + 1, victim.y())),
            Port::West if victim.x() > 0 => Some(RouterAddr::new(victim.x() - 1, victim.y())),
            Port::North if victim.y() + 1 < h => Some(RouterAddr::new(victim.x(), victim.y() + 1)),
            Port::South if victim.y() > 0 => Some(RouterAddr::new(victim.x(), victim.y() - 1)),
            _ => None,
        };
        for dir in [Port::East, Port::West, Port::North, Port::South] {
            if let Some(peer) = neighbour(dir) {
                dead.insert((victim, dir));
                dead.insert((peer, dir.opposite().unwrap()));
            }
        }
        dead
    }

    #[test]
    fn every_single_router_failure_routes_around_the_victim() {
        // Exhaustively kill each router on every mesh up to 4x4 with the
        // exact link set a dead-router escalation condemns. A 2D mesh
        // minus one node stays connected, so the rebuilt table must keep
        // every healthy pair mutually reachable (walked hop by hop, not
        // just claimed), report the victim unreachable in both
        // directions, and keep the allowed-turn relation acyclic —
        // deadlock freedom survives any single router death.
        for (w, h) in [(2u8, 2u8), (2, 3), (3, 3), (3, 4), (4, 4)] {
            for vy in 0..h {
                for vx in 0..w {
                    let victim = RouterAddr::new(vx, vy);
                    let table = RouteTable::build(&mesh(w, h), &router_death_links(w, h, victim));
                    for s in 0..usize::from(w) * usize::from(h) {
                        let src =
                            RouterAddr::new((s % usize::from(w)) as u8, (s / usize::from(w)) as u8);
                        if src == victim {
                            continue;
                        }
                        assert!(
                            !table.reachable(src, victim) && !table.reachable(victim, src),
                            "{w}x{h}: dead {victim} still reachable from {src}"
                        );
                        for d in 0..usize::from(w) * usize::from(h) {
                            let dest = RouterAddr::new(
                                (d % usize::from(w)) as u8,
                                (d / usize::from(w)) as u8,
                            );
                            if dest == victim {
                                continue;
                            }
                            let hops = walk(&table, src, dest).unwrap_or_else(|| {
                                panic!("{w}x{h}: dead {victim} partitions {src} -> {dest}")
                            });
                            assert!(hops >= src.hops_to(dest));
                            assert_eq!(table.route_hops(src, dest), Some(hops));
                        }
                    }
                    assert_turns_acyclic(&table);
                }
            }
        }
    }

    #[test]
    fn turn_relation_is_acyclic_for_arbitrary_dead_sets() {
        // Exhaustively kill every single physical link on a 3x3 and check
        // the allowed-turn relation never closes a cycle.
        let healthy = RouteTable::build(&mesh(3, 3), &BTreeSet::new());
        let mut cases: Vec<BTreeSet<LinkId>> = vec![BTreeSet::new()];
        for v in 0..9usize {
            let addr = RouterAddr::new((v % 3) as u8, (v / 3) as u8);
            for dir in [Port::East, Port::North] {
                if healthy.neighbour(v, dir).is_none() {
                    continue;
                }
                let peer = healthy.addr(healthy.neighbour(v, dir).unwrap());
                let mut dead = BTreeSet::new();
                dead.insert((addr, dir));
                dead.insert((peer, dir.opposite().unwrap()));
                cases.push(dead);
            }
        }
        for dead in cases {
            let table = RouteTable::build(&mesh(3, 3), &dead);
            assert_turns_acyclic(&table);
        }
    }

    #[test]
    fn torus_table_reaches_all_pairs_and_uses_wraparound() {
        let t = torus(4, 4);
        let table = RouteTable::build(&t, &BTreeSet::new());
        assert_turns_acyclic(&table);
        for s in 0..16usize {
            for d in 0..16usize {
                let src = t.addr_of(s);
                let dest = t.addr_of(d);
                let hops = walk(&table, src, dest).expect("healthy torus is connected");
                assert_eq!(table.route_hops(src, dest), Some(hops));
            }
        }
        // At least one border pair must ride a wraparound link: without
        // wrap, (0,0) -> (3,0) costs 3 hops; the ring makes it 1.
        let wrapped = (0..4u8).any(|y| {
            table
                .route_hops(RouterAddr::new(0, y), RouterAddr::new(3, y))
                .is_some_and(|h| h < 3)
        });
        assert!(wrapped, "no route used the wraparound links");
    }

    #[test]
    fn torus_table_survives_any_single_edge_death() {
        let t = torus(3, 3);
        let healthy = RouteTable::build(&t, &BTreeSet::new());
        for v in 0..9usize {
            let addr = t.addr_of(v);
            for dir in [Port::East, Port::North] {
                let peer = healthy.addr(healthy.neighbour(v, dir).unwrap());
                let mut dead = BTreeSet::new();
                dead.insert((addr, dir));
                dead.insert((peer, dir.opposite().unwrap()));
                let table = RouteTable::build(&t, &dead);
                assert_turns_acyclic(&table);
                for s in 0..9usize {
                    for d in 0..9usize {
                        walk(&table, t.addr_of(s), t.addr_of(d))
                            .expect("one dead edge cannot partition a torus");
                    }
                }
            }
        }
    }

    #[test]
    fn chiplet_table_matches_equally_sized_mesh_connectivity() {
        // The chiplet package abuts into one aligned global grid, so the
        // up*/down* table must produce exactly the mesh table's hop
        // counts (the channel *model* differs, not the connectivity).
        let chip = Topology::ChipletMesh {
            k_chip: 2,
            k_node: 2,
            d2d: crate::topology::D2dChannel::OffChipSerial,
        };
        let chip_table = RouteTable::build(&chip, &BTreeSet::new());
        let mesh_table = RouteTable::build(&mesh(4, 4), &BTreeSet::new());
        assert_turns_acyclic(&chip_table);
        for s in 0..16usize {
            for d in 0..16usize {
                let src = chip.addr_of(s);
                let dest = chip.addr_of(d);
                assert_eq!(
                    chip_table.route_hops(src, dest),
                    mesh_table.route_hops(src, dest)
                );
            }
        }
    }

    fn assert_turns_acyclic(table: &RouteTable) {
        use std::collections::HashMap;
        let turns = table.allowed_turns();
        let mut adj: HashMap<LinkId, Vec<LinkId>> = HashMap::new();
        let mut nodes: BTreeSet<LinkId> = BTreeSet::new();
        for (a, b) in &turns {
            adj.entry(*a).or_default().push(*b);
            nodes.insert(*a);
            nodes.insert(*b);
        }
        // Iterative three-colour DFS.
        let mut state: HashMap<LinkId, u8> = HashMap::new();
        for &start in &nodes {
            if state.get(&start).copied().unwrap_or(0) != 0 {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            state.insert(start, 1);
            while let Some(&mut (node, ref mut child)) = stack.last_mut() {
                let next = adj.get(&node).and_then(|c| c.get(*child).copied());
                *child += 1;
                match next {
                    None => {
                        state.insert(node, 2);
                        stack.pop();
                    }
                    Some(succ) => match state.get(&succ).copied().unwrap_or(0) {
                        0 => {
                            state.insert(succ, 1);
                            stack.push((succ, 0));
                        }
                        1 => panic!("turn relation has a cycle through {succ:?}"),
                        _ => {}
                    },
                }
            }
        }
    }
}

//! Deterministic, seed-reproducible fault injection for the NoC.
//!
//! EmuNoC-style emulation frameworks treat injectable link errors as a
//! first-class prototyping feature; this module brings the same idea to
//! the simulator. A [`FaultPlan`] describes *what can go wrong*:
//!
//! - **flit corruption** — a payload flit crossing a link gets one bit
//!   flipped (header and size flits are exempt, modelling the hop-level
//!   control-flit protection real routers implement in hardware; it is
//!   the *end-to-end* payload that the MultiNoC service layer must
//!   protect with its checksum);
//! - **packet drops** — a router's control logic discards an entire
//!   packet instead of granting it a connection, consuming its flits as
//!   they arrive (the wormhole unwinds, nothing wedges);
//! - **link outages** — a directed inter-router link stops transferring
//!   flits for a cycle window (possibly forever); upstream traffic
//!   experiences backpressure, and a permanent outage wedges the path
//!   until a system-level watchdog notices;
//! - **router stalls** — a router's control logic grants no new
//!   connections for a cycle window (established connections keep
//!   forwarding, as in a control-path-only fault);
//! - **router death** — a whole router dies at a scheduled cycle:
//!   every link touching it (its four mesh links in both directions and
//!   its Local port) stops transferring flits forever. Neighbours see
//!   the same symptom as a permanent link outage on each adjacent link
//!   and the online diagnosis escalates the cluster to a dead *router*;
//! - **endpoint death** — the IP core behind a router dies at a
//!   scheduled cycle: the router keeps forwarding through traffic, but
//!   nothing can be injected at or delivered to its Local port.
//!
//! All randomness comes from the in-tree counter-based generator
//! ([`prng::CounterRng`]) seeded by the plan: every decision is a pure
//! function of `(plan seed, fault site, cycle)`, where the site is the
//! router (for drops) or directed link (for corruption) involved. Two
//! runs with the same plan and workload are identical flit for flit,
//! *regardless of the order routers are stepped in* — which is what lets
//! the parallel kernel shard the mesh without perturbing fault outcomes.
//! Outcomes are counted in [`FaultCounters`](crate::stats::FaultCounters).

use prng::CounterRng;

use crate::addr::{Port, RouterAddr};
use crate::stats::LinkId;

/// A half-open cycle interval `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleWindow {
    /// First cycle (inclusive) at which the fault is active.
    pub from: u64,
    /// First cycle at which the fault is no longer active.
    pub until: u64,
}

impl CycleWindow {
    /// The window `[from, until)`.
    pub fn new(from: u64, until: u64) -> Self {
        Self { from, until }
    }

    /// A permanent fault starting at `from`.
    pub fn open_ended(from: u64) -> Self {
        Self {
            from,
            until: u64::MAX,
        }
    }

    /// Whether `cycle` falls inside the window.
    pub fn contains(&self, cycle: u64) -> bool {
        self.from <= cycle && cycle < self.until
    }

    /// Whether the window never closes.
    pub fn is_permanent(&self) -> bool {
        self.until == u64::MAX
    }
}

/// A directed inter-router link taken down for a window. The link is
/// identified by its upstream router and output port, matching
/// [`LinkId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkOutage {
    /// Upstream router of the affected link.
    pub router: RouterAddr,
    /// Output port of the affected link (`Local` affects final delivery).
    pub port: Port,
    /// When the outage is active.
    pub window: CycleWindow,
}

/// A router whose control logic grants no new connections for a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterStall {
    /// The stalled router.
    pub router: RouterAddr,
    /// When the stall is active.
    pub window: CycleWindow,
}

/// A router that dies — permanently — at a scheduled cycle. Death is
/// keyed by `(router, cycle)` like every other fault, and it never
/// heals: reconfiguration epochs are monotone, so a resurrecting router
/// would have nothing to rejoin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterDown {
    /// The dying router.
    pub router: RouterAddr,
    /// First cycle at which the router is dead.
    pub cycle: u64,
}

/// An IP core (endpoint) that dies — permanently — at a scheduled
/// cycle, while its router keeps forwarding through traffic. Only the
/// Local link is affected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndpointDown {
    /// Router whose attached IP core dies.
    pub router: RouterAddr,
    /// First cycle at which the endpoint is dead.
    pub cycle: u64,
}

/// A [`FaultPlan`] rejected at installation time: the typed
/// configuration error returned by [`FaultPlan::validate`] (and hence
/// by [`Noc::set_fault_plan`](crate::Noc::set_fault_plan)) instead of
/// letting a corrupt rate or inverted window silently misbehave at
/// runtime.
#[derive(Debug, Clone, Copy)]
pub enum PlanError {
    /// A probability outside `0.0..=1.0` (or NaN).
    BadRate {
        /// Which rate is bad (`"corrupt"` or `"drop"`).
        kind: &'static str,
        /// The rejected value.
        rate: f64,
    },
    /// A cycle window whose end precedes its start.
    InvertedWindow {
        /// First cycle of the rejected window.
        from: u64,
        /// End of the rejected window, before `from`.
        until: u64,
    },
}

impl PartialEq for PlanError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            // Bitwise rate comparison so a NaN-carrying error still
            // equals itself (derive would make it unequal).
            (PlanError::BadRate { kind: a, rate: x }, PlanError::BadRate { kind: b, rate: y }) => {
                a == b && x.to_bits() == y.to_bits()
            }
            (
                PlanError::InvertedWindow { from: a, until: b },
                PlanError::InvertedWindow { from: c, until: d },
            ) => a == c && b == d,
            _ => false,
        }
    }
}

impl Eq for PlanError {}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::BadRate { kind, rate } => {
                write!(f, "{kind} rate {rate} is not a probability in 0.0..=1.0")
            }
            PlanError::InvertedWindow { from, until } => {
                write!(f, "cycle window [{from}, {until}) ends before it starts")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// A reproducible description of the faults to inject into a
/// [`Noc`](crate::Noc); install it with
/// [`Noc::set_fault_plan`](crate::Noc::set_fault_plan).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the injector's private random stream.
    pub seed: u64,
    /// Probability that a payload flit is corrupted while crossing a
    /// link (per transfer, in `0.0..=1.0`).
    pub corrupt_rate: f64,
    /// When set, `corrupt_rate` only applies inside this window.
    pub corrupt_window: Option<CycleWindow>,
    /// Probability that a router drops a whole packet instead of
    /// routing it (per packet per hop, in `0.0..=1.0`).
    pub drop_rate: f64,
    /// When set, `drop_rate` only applies inside this window.
    pub drop_window: Option<CycleWindow>,
    /// Scheduled link outages.
    pub outages: Vec<LinkOutage>,
    /// Scheduled router control stalls.
    pub stalls: Vec<RouterStall>,
    /// Scheduled router deaths (permanent).
    pub router_downs: Vec<RouterDown>,
    /// Scheduled endpoint (IP core) deaths (permanent).
    pub endpoint_downs: Vec<EndpointDown>,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            corrupt_rate: 0.0,
            corrupt_window: None,
            drop_rate: 0.0,
            drop_window: None,
            outages: Vec::new(),
            stalls: Vec::new(),
            router_downs: Vec::new(),
            endpoint_downs: Vec::new(),
        }
    }

    /// Sets the per-transfer payload-flit corruption probability.
    /// Validated by [`FaultPlan::validate`] when the plan is installed.
    pub fn with_corrupt_rate(mut self, rate: f64) -> Self {
        self.corrupt_rate = rate;
        self
    }

    /// Restricts flit corruption to `window` (useful for reproducible
    /// recovery tests: corrupt everything early, then let retries pass).
    pub fn with_corrupt_window(mut self, window: CycleWindow) -> Self {
        self.corrupt_window = Some(window);
        self
    }

    /// Sets the per-hop packet drop probability. Validated by
    /// [`FaultPlan::validate`] when the plan is installed.
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }

    /// Restricts packet drops to `window`.
    pub fn with_drop_window(mut self, window: CycleWindow) -> Self {
        self.drop_window = Some(window);
        self
    }

    /// Takes the directed link out of `router` through `port` down for
    /// `window`.
    pub fn with_link_down(mut self, router: RouterAddr, port: Port, window: CycleWindow) -> Self {
        self.outages.push(LinkOutage {
            router,
            port,
            window,
        });
        self
    }

    /// Stalls `router`'s control logic for `window`.
    pub fn with_router_stall(mut self, router: RouterAddr, window: CycleWindow) -> Self {
        self.stalls.push(RouterStall { router, window });
        self
    }

    /// Kills `router` — all its links, both directions, plus its Local
    /// port — permanently from `cycle` on.
    pub fn with_router_down(mut self, router: RouterAddr, cycle: u64) -> Self {
        self.router_downs.push(RouterDown { router, cycle });
        self
    }

    /// Kills the IP core behind `router` permanently from `cycle` on;
    /// the router itself keeps forwarding through traffic.
    pub fn with_endpoint_down(mut self, router: RouterAddr, cycle: u64) -> Self {
        self.endpoint_downs.push(EndpointDown { router, cycle });
        self
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.corrupt_rate == 0.0
            && self.drop_rate == 0.0
            && self.outages.is_empty()
            && self.stalls.is_empty()
            && self.router_downs.is_empty()
            && self.endpoint_downs.is_empty()
    }

    /// Whether any scheduled outage never ends (a *dead link*): traffic
    /// routed across it after `window.from` can never make progress.
    /// Router and endpoint deaths count — they are permanent outages of
    /// every adjacent link.
    pub fn has_permanent_outage(&self) -> bool {
        self.outages.iter().any(|o| o.window.is_permanent()) || self.has_deaths()
    }

    /// Whether the plan schedules any router or endpoint death.
    pub fn has_deaths(&self) -> bool {
        !self.router_downs.is_empty() || !self.endpoint_downs.is_empty()
    }

    /// Checks the plan for nonsense that would otherwise misbehave
    /// silently at runtime: rates outside `0.0..=1.0` (or NaN) and
    /// cycle windows that end before they start.
    ///
    /// # Errors
    ///
    /// The first [`PlanError`] found, scanning rates before windows.
    pub fn validate(&self) -> Result<(), PlanError> {
        fn check_rate(kind: &'static str, rate: f64) -> Result<(), PlanError> {
            // NaN fails the range check, so it is rejected here too.
            if (0.0..=1.0).contains(&rate) {
                Ok(())
            } else {
                Err(PlanError::BadRate { kind, rate })
            }
        }
        fn check_window(w: &CycleWindow) -> Result<(), PlanError> {
            if w.until < w.from {
                Err(PlanError::InvertedWindow {
                    from: w.from,
                    until: w.until,
                })
            } else {
                Ok(())
            }
        }
        check_rate("corrupt", self.corrupt_rate)?;
        check_rate("drop", self.drop_rate)?;
        self.corrupt_window
            .iter()
            .chain(self.drop_window.iter())
            .chain(self.outages.iter().map(|o| &o.window))
            .chain(self.stalls.iter().map(|s| &s.window))
            .try_for_each(check_window)
    }

    /// Whether the plan schedules any router control stall. A stalled
    /// router accrues its stall counter on every stepped cycle even when
    /// idle, so an idle network is not jumped while such a plan is
    /// installed (see [`Noc::ticks_idly`](crate::Noc::ticks_idly)).
    pub fn has_router_stalls(&self) -> bool {
        !self.stalls.is_empty()
    }
}

// Because every random decision is a pure function of `(seed, site,
// cycle)`, the plan is the *complete* injector state: restoring it and
// rebuilding the `FaultInjector` reproduces all future fault decisions
// exactly. A decoded plan still has to pass `FaultPlan::validate`.
crate::snap_struct!(CycleWindow { from, until } LinkOutage {
    router,
    port,
    window,
} RouterStall {
    router,
    window
} RouterDown {
    router,
    cycle
} EndpointDown {
    router,
    cycle
} FaultPlan {
    seed,
    corrupt_rate,
    corrupt_window,
    drop_rate,
    drop_window,
    outages,
    stalls,
    router_downs,
    endpoint_downs,
});

/// An injector is its plan (see above).
impl crate::snapshot::Snap for FaultInjector {
    fn put(&self, w: &mut crate::snapshot::SnapshotWriter) {
        w.put(&self.plan);
    }

    fn take(
        r: &mut crate::snapshot::SnapshotReader<'_>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        Ok(Self::new(r.take()?))
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::new(0)
    }
}

/// The runtime state evaluating a [`FaultPlan`] inside the simulator.
///
/// Every random decision is a pure function of the plan seed, a *site*
/// (the router or directed link the fault would hit) and the cycle, so
/// the injector is shared immutably across shards by the parallel kernel
/// and the order in which sites are polled is irrelevant. Each site makes
/// at most one roll of each kind per cycle (a router considers at most
/// one new packet per cycle for dropping; a link carries at most one flit
/// per cycle), so `(site, cycle)` uniquely identifies a draw.
#[derive(Debug, Clone)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    rng: CounterRng,
}

/// Stream-tag kinds keeping the three decision families decorrelated
/// even when router and link site ids collide numerically.
const STREAM_DROP: u64 = 1 << 32;
const STREAM_CORRUPT: u64 = 2 << 32;
const STREAM_CORRUPT_BIT: u64 = 3 << 32;

/// Dense per-router site id (coordinates fit in a `u8` each).
fn router_site(at: RouterAddr) -> u64 {
    (u64::from(at.x()) << 8) | u64::from(at.y())
}

/// Dense per-directed-link site id.
fn link_site(link: LinkId) -> u64 {
    router_site(link.0) * 8 + link.1.index() as u64
}

/// The router on the far side of `port` from `router`, if the port
/// leads off-board of `router` at all (`Local` does not, and a border
/// port may point outside the mesh — such links are never queried).
fn neighbour(router: RouterAddr, port: Port) -> Option<RouterAddr> {
    let (x, y) = (router.x(), router.y());
    Some(match port {
        Port::East => RouterAddr::new(x.checked_add(1)?, y),
        Port::West => RouterAddr::new(x.checked_sub(1)?, y),
        Port::North => RouterAddr::new(x, y.checked_add(1)?),
        Port::South => RouterAddr::new(x, y.checked_sub(1)?),
        Port::Local => return None,
    })
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> Self {
        // A private key derivation keeps fault decisions decorrelated
        // from any traffic generator sharing the same seed.
        let rng = CounterRng::new(plan.seed ^ prng::hash_str("hermes-fault-injector"));
        Self { plan, rng }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether the directed link `(router, port)` is down at `now` —
    /// because of a scheduled outage, because either router touching it
    /// is dead, or (for the Local port) because the endpoint is dead.
    pub fn link_down(&self, router: RouterAddr, port: Port, now: u64) -> bool {
        if self
            .plan
            .outages
            .iter()
            .any(|o| o.router == router && o.port == port && o.window.contains(now))
        {
            return true;
        }
        if self.router_down(router, now) {
            return true;
        }
        match port {
            Port::Local => self.endpoint_down(router, now),
            p => neighbour(router, p).is_some_and(|n| self.router_down(n, now)),
        }
    }

    /// Whether `router` is scheduled dead at `now`.
    pub fn router_down(&self, router: RouterAddr, now: u64) -> bool {
        self.plan
            .router_downs
            .iter()
            .any(|d| d.router == router && now >= d.cycle)
    }

    /// Whether the IP core behind `router` is scheduled dead at `now`
    /// (router deaths take their endpoint down with them).
    pub fn endpoint_down(&self, router: RouterAddr, now: u64) -> bool {
        self.router_down(router, now)
            || self
                .plan
                .endpoint_downs
                .iter()
                .any(|d| d.router == router && now >= d.cycle)
    }

    /// If `link`'s failure at `now` is attributable to a scheduled
    /// router death, the dead router (for the online diagnosis to
    /// escalate a link verdict to a router verdict).
    pub fn dead_router_at(&self, link: LinkId, now: u64) -> Option<RouterAddr> {
        if self.router_down(link.0, now) {
            return Some(link.0);
        }
        neighbour(link.0, link.1).filter(|&n| self.router_down(n, now))
    }

    /// Whether `router`'s control logic is stalled at `now`.
    pub fn router_stalled(&self, router: RouterAddr, now: u64) -> bool {
        self.plan
            .stalls
            .iter()
            .any(|s| s.router == router && s.window.contains(now))
    }

    /// Rolls the drop decision for the packet router `at` would grant a
    /// connection to at cycle `now`.
    pub fn roll_drop(&self, at: RouterAddr, now: u64) -> bool {
        self.plan.drop_rate > 0.0
            && self.plan.drop_window.is_none_or(|w| w.contains(now))
            && self
                .rng
                .chance(STREAM_DROP | router_site(at), now, self.plan.drop_rate)
    }

    /// Rolls the corruption decision for the flit crossing `link` at
    /// cycle `now`.
    pub fn roll_corrupt(&self, link: LinkId, now: u64) -> bool {
        self.plan.corrupt_rate > 0.0
            && self.plan.corrupt_window.is_none_or(|w| w.contains(now))
            && self.rng.chance(
                STREAM_CORRUPT | link_site(link),
                now,
                self.plan.corrupt_rate,
            )
    }

    /// Returns `value` with one random bit (within `flit_bits`) flipped;
    /// the result always differs from the input. The bit choice is keyed
    /// by the same `(link, cycle)` site as the corruption roll.
    pub fn corrupt_value(&self, link: LinkId, now: u64, value: u16, flit_bits: u8) -> u16 {
        let bit = self.rng.below(
            STREAM_CORRUPT_BIT | link_site(link),
            now,
            u64::from(flit_bits.clamp(1, 16)),
        ) as u16;
        value ^ (1 << bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows() {
        let w = CycleWindow::new(10, 20);
        assert!(!w.contains(9));
        assert!(w.contains(10));
        assert!(w.contains(19));
        assert!(!w.contains(20));
        assert!(!w.is_permanent());
        let p = CycleWindow::open_ended(5);
        assert!(p.contains(u64::MAX - 1));
        assert!(p.is_permanent());
    }

    #[test]
    fn plan_builders_accumulate() {
        let plan = FaultPlan::new(7)
            .with_corrupt_rate(0.25)
            .with_drop_rate(0.5)
            .with_link_down(RouterAddr::new(0, 0), Port::East, CycleWindow::new(0, 10))
            .with_router_stall(RouterAddr::new(1, 1), CycleWindow::open_ended(50))
            .with_router_down(RouterAddr::new(1, 0), 100)
            .with_endpoint_down(RouterAddr::new(0, 1), 200);
        assert_eq!(plan.corrupt_rate, 0.25);
        assert_eq!(plan.drop_rate, 0.5);
        assert_eq!(plan.outages.len(), 1);
        assert_eq!(plan.stalls.len(), 1);
        assert_eq!(plan.router_downs.len(), 1);
        assert_eq!(plan.endpoint_downs.len(), 1);
        assert!(!plan.is_empty());
        assert!(plan.has_deaths());
        assert!(plan.has_permanent_outage(), "deaths are permanent outages");
        assert!(FaultPlan::new(1).is_empty());
        assert!(!FaultPlan::new(1).has_deaths());
    }

    #[test]
    fn validation_rejects_bad_rates() {
        assert_eq!(FaultPlan::new(0).validate(), Ok(()));
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY, -f64::INFINITY] {
            let e = FaultPlan::new(0)
                .with_corrupt_rate(bad)
                .validate()
                .expect_err("corrupt rate must be rejected");
            assert!(
                matches!(
                    e,
                    PlanError::BadRate {
                        kind: "corrupt",
                        ..
                    }
                ),
                "{e}"
            );
            let e = FaultPlan::new(0)
                .with_drop_rate(bad)
                .validate()
                .expect_err("drop rate must be rejected");
            assert!(matches!(e, PlanError::BadRate { kind: "drop", .. }), "{e}");
        }
        // Boundary values are fine.
        assert_eq!(
            FaultPlan::new(0)
                .with_corrupt_rate(0.0)
                .with_drop_rate(1.0)
                .validate(),
            Ok(())
        );
        // A NaN-carrying error still equals itself (bitwise comparison).
        let e = FaultPlan::new(0).with_drop_rate(f64::NAN).validate();
        assert_eq!(e, e.clone());
    }

    #[test]
    fn validation_rejects_inverted_windows() {
        let at = RouterAddr::new(0, 0);
        let bad = CycleWindow::new(20, 10);
        for plan in [
            FaultPlan::new(0).with_corrupt_window(bad),
            FaultPlan::new(0).with_drop_window(bad),
            FaultPlan::new(0).with_link_down(at, Port::East, bad),
            FaultPlan::new(0).with_router_stall(at, bad),
        ] {
            assert_eq!(
                plan.validate(),
                Err(PlanError::InvertedWindow {
                    from: 20,
                    until: 10
                })
            );
        }
        // An empty (but not inverted) window is a harmless no-op.
        assert_eq!(
            FaultPlan::new(0)
                .with_drop_window(CycleWindow::new(10, 10))
                .validate(),
            Ok(())
        );
        assert!(PlanError::InvertedWindow {
            from: 20,
            until: 10
        }
        .to_string()
        .contains("ends before"));
    }

    #[test]
    fn router_death_takes_down_every_adjacent_link() {
        let victim = RouterAddr::new(1, 1);
        let inj = FaultInjector::new(FaultPlan::new(0).with_router_down(victim, 50));
        // Not dead yet.
        assert!(!inj.router_down(victim, 49));
        assert!(!inj.link_down(victim, Port::East, 49));
        // From cycle 50: all outgoing links, the Local port, and every
        // inbound link from a neighbour are down.
        assert!(inj.router_down(victim, 50));
        for port in Port::ALL {
            assert!(inj.link_down(victim, port, 50), "outgoing {port}");
        }
        assert!(inj.link_down(RouterAddr::new(0, 1), Port::East, 50));
        assert!(inj.link_down(RouterAddr::new(2, 1), Port::West, 50));
        assert!(inj.link_down(RouterAddr::new(1, 0), Port::North, 50));
        assert!(inj.link_down(RouterAddr::new(1, 2), Port::South, 50));
        // Unrelated links are untouched.
        assert!(!inj.link_down(RouterAddr::new(0, 0), Port::West, 50));
        assert!(!inj.link_down(RouterAddr::new(0, 1), Port::North, 50));
        // Attribution: both directions of an adjacent link blame the
        // dead router.
        assert_eq!(inj.dead_router_at((victim, Port::East), 50), Some(victim));
        assert_eq!(
            inj.dead_router_at((RouterAddr::new(0, 1), Port::East), 50),
            Some(victim)
        );
        assert_eq!(
            inj.dead_router_at((RouterAddr::new(0, 0), Port::East), 50),
            None
        );
        assert_eq!(inj.dead_router_at((victim, Port::East), 49), None);
    }

    #[test]
    fn endpoint_death_blocks_only_the_local_port() {
        let victim = RouterAddr::new(1, 0);
        let inj = FaultInjector::new(FaultPlan::new(0).with_endpoint_down(victim, 10));
        assert!(!inj.endpoint_down(victim, 9));
        assert!(inj.endpoint_down(victim, 10));
        assert!(!inj.router_down(victim, 10), "the router itself survives");
        assert!(inj.link_down(victim, Port::Local, 10));
        for port in [Port::East, Port::West, Port::North, Port::South] {
            assert!(!inj.link_down(victim, port, 10), "through-port {port}");
        }
        assert_eq!(inj.dead_router_at((victim, Port::Local), 10), None);
        // A router death implies its endpoint's death.
        let inj = FaultInjector::new(FaultPlan::new(0).with_router_down(victim, 10));
        assert!(inj.endpoint_down(victim, 10));
    }

    #[test]
    fn injector_is_deterministic_and_order_independent() {
        let plan = FaultPlan::new(99)
            .with_corrupt_rate(0.5)
            .with_drop_rate(0.5);
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        let sites: Vec<RouterAddr> = (0..4)
            .flat_map(|x| (0..4).map(move |y| RouterAddr::new(x, y)))
            .collect();
        // Same plan → identical decisions, queried in any order.
        for now in 0..50 {
            for at in &sites {
                let link = (*at, Port::East);
                assert_eq!(a.roll_drop(*at, now), b.roll_drop(*at, now));
                assert_eq!(a.roll_corrupt(link, now), b.roll_corrupt(link, now));
                assert_eq!(
                    a.corrupt_value(link, now, 0xAB, 8),
                    b.corrupt_value(link, now, 0xAB, 8)
                );
            }
        }
        // Polling sites backwards, repeatedly, or with interleaved extra
        // queries changes nothing: the decision is a pure function of
        // (site, cycle), not of draw order.
        for now in (0..50).rev() {
            for at in sites.iter().rev() {
                let expect = a.roll_drop(*at, now);
                let _ = a.roll_corrupt((*at, Port::South), now + 1);
                assert_eq!(a.roll_drop(*at, now), expect);
            }
        }
        // Distinct sites and cycles give decorrelated streams: with a
        // 50% rate, 16 sites x 50 cycles should not all agree.
        let inj = &a;
        let fired = sites
            .iter()
            .flat_map(|&at| (0..50).map(move |now| inj.roll_drop(at, now)))
            .filter(|&f| f)
            .count();
        assert!(
            (100..700).contains(&fired),
            "drop rolls look degenerate: {fired}"
        );
    }

    #[test]
    fn corruption_always_changes_the_value_within_the_flit() {
        let inj = FaultInjector::new(FaultPlan::new(3).with_corrupt_rate(1.0));
        let link = (RouterAddr::new(1, 0), Port::West);
        for v in 0..=255u16 {
            let c = inj.corrupt_value(link, u64::from(v), v, 8);
            assert_ne!(c, v);
            assert!(c <= 0xFF, "corruption left the 8-bit flit domain: {c:#x}");
        }
    }

    #[test]
    fn outage_and_stall_lookup() {
        let plan = FaultPlan::new(0)
            .with_link_down(RouterAddr::new(0, 0), Port::East, CycleWindow::new(5, 10))
            .with_router_stall(RouterAddr::new(1, 0), CycleWindow::new(5, 10));
        let inj = FaultInjector::new(plan);
        assert!(inj.link_down(RouterAddr::new(0, 0), Port::East, 5));
        assert!(!inj.link_down(RouterAddr::new(0, 0), Port::East, 10));
        assert!(!inj.link_down(RouterAddr::new(0, 0), Port::West, 5));
        assert!(!inj.link_down(RouterAddr::new(0, 1), Port::East, 5));
        assert!(inj.router_stalled(RouterAddr::new(1, 0), 9));
        assert!(!inj.router_stalled(RouterAddr::new(1, 0), 4));
        assert!(!inj.router_stalled(RouterAddr::new(0, 0), 9));
    }

    #[test]
    fn zero_rates_never_fire() {
        let inj = FaultInjector::new(FaultPlan::new(1));
        let at = RouterAddr::new(0, 0);
        for now in 0..1000 {
            assert!(!inj.roll_drop(at, now));
            assert!(!inj.roll_corrupt((at, Port::East), now));
        }
    }

    #[test]
    fn rate_windows_gate_the_rolls() {
        let plan = FaultPlan::new(4)
            .with_drop_rate(1.0)
            .with_drop_window(CycleWindow::new(10, 20))
            .with_corrupt_rate(1.0)
            .with_corrupt_window(CycleWindow::new(10, 20));
        let inj = FaultInjector::new(plan);
        let at = RouterAddr::new(0, 0);
        let link = (at, Port::East);
        assert!(!inj.roll_drop(at, 9));
        assert!(inj.roll_drop(at, 10));
        assert!(!inj.roll_drop(at, 20));
        assert!(!inj.roll_corrupt(link, 9));
        assert!(inj.roll_corrupt(link, 19));
        assert!(!inj.roll_corrupt(link, 20));
    }
}

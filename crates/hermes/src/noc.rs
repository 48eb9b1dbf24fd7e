//! The network simulator: a mesh of routers stepped cycle by cycle.

use std::collections::BTreeSet;

use crate::addr::{Port, RouterAddr};
use crate::config::{KernelMode, NocConfig};
use crate::endpoint::{LocalEndpoint, PacketId};
use crate::error::{NocError, RouteError, SendError};
use crate::fault::{FaultInjector, FaultPlan, PlanError};
use crate::health::{HealthMonitor, LinkHealth};
use crate::kernel::{
    self, CycleShared, HealthEvent, PhaseProfiler, RecordEvent, ShardDelta, WorkerPool,
};
use crate::metrics::{PhaseProfile, Registry};
use crate::packet::Packet;
use crate::router::Router;
use crate::routing::{RouteTable, Routing};
use crate::snapshot::{self, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::stats::{LinkId, NocStats, PacketRecord};
use crate::telemetry::{Telemetry, TelemetryConfig};
use crate::trace::PacketTracer;

/// Cycles the engine batches per dispatch and merge inside
/// [`Noc::run`] and [`Noc::run_until_idle`] when nothing forces one-cycle
/// windows; a `run(k)` with `k` below it clamps its window to `k`.
const WINDOW: u32 = 16;

/// One reconfiguration round: a new detour table announced by the router
/// that detected a dead link. Router `r` adopts the epoch once the control
/// wave has had time to reach it — `hops(r, origin) × cycles_per_flit`
/// cycles after the announcement; the origin itself switches immediately.
#[derive(Debug)]
pub(crate) struct Epoch {
    announced: u64,
    origin: RouterAddr,
    table: RouteTable,
}

/// The newest epoch whose control wave has reached `here` by `now`, if
/// any; `None` means the router still routes with healthy minimal XY.
fn table_for(epochs: &[Epoch], cycles_per_flit: u32, here: RouterAddr, now: u64) -> Option<&Epoch> {
    epochs.iter().rev().find(|e| {
        now >= e.announced + u64::from(e.origin.hops_to(here)) * u64::from(cycles_per_flit)
    })
}

/// The items of the cycle-ascending stream `items` (a shard delta's
/// cycle-tagged events) that `cycle_of` tags with `cycle`.
fn at_cycle<T>(items: &[T], cycle: u64, cycle_of: impl Fn(&T) -> u64) -> &[T] {
    let from = items.partition_point(|item| cycle_of(item) < cycle);
    let len = items[from..].partition_point(|item| cycle_of(item) == cycle);
    &items[from..from + len]
}

/// Outcome of one routing decision at a router's control logic.
pub(crate) enum RouteDecision {
    /// Forward through this port; the flag records whether the choice
    /// diverged from minimal XY (a detour grant).
    Forward(Port, bool),
    /// Header names an address outside the mesh (corrupted header);
    /// discard instead of misdelivering.
    Misaddressed,
    /// The detour table has no path to this destination; discard and let
    /// the end-to-end layer surface the partition.
    Unreachable,
}

/// Why the control logic decided to discard a packet instead of routing
/// it; each cause feeds its own counter.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DropKind {
    /// Fault injection rolled a drop.
    Fault,
    /// No surviving path to the destination.
    Unreachable,
    /// Header names an address outside the mesh.
    Misaddressed,
}

pub(crate) fn decide_route(
    config: &NocConfig,
    base_table: Option<&RouteTable>,
    epochs: &[Epoch],
    here: RouterAddr,
    in_port: Port,
    dest: RouterAddr,
    now: u64,
) -> RouteDecision {
    if !config.topology.contains(dest) {
        return RouteDecision::Misaddressed;
    }
    // The healthy choice: the minimal algorithm where it is deadlock-free,
    // the precomputed up*/down* table on topologies whose cycles would
    // otherwise deadlock a wormhole (the torus).
    let minimal = match base_table {
        Some(table) => match table
            .next_hop(here, in_port, dest)
            .expect("router and destination addresses were validated")
        {
            Some(port) => port,
            None => return RouteDecision::Unreachable,
        },
        None => config
            .routing
            .route(here, dest, &config.topology)
            .expect("router and destination addresses were validated"),
    };
    if config.routing == Routing::FaultTolerantXy {
        if let Some(epoch) = table_for(epochs, config.cycles_per_flit, here, now) {
            return match epoch
                .table
                .next_hop(here, in_port, dest)
                .expect("addresses were validated")
            {
                Some(port) => RouteDecision::Forward(port, port != minimal),
                None => RouteDecision::Unreachable,
            };
        }
    }
    RouteDecision::Forward(minimal, false)
}

/// A simulated Hermes network-on-chip.
///
/// Construct one from a [`NocConfig`], submit packets with [`send`], step
/// the clock with [`step`] or [`run_until_idle`], and collect delivered
/// packets with [`try_recv`]. All behaviour is deterministic.
///
/// [`send`]: Noc::send
/// [`step`]: Noc::step
/// [`run_until_idle`]: Noc::run_until_idle
/// [`try_recv`]: Noc::try_recv
#[derive(Debug)]
pub struct Noc {
    config: NocConfig,
    /// Healthy routing table for topologies that route by table instead
    /// of by algorithm (see [`Topology::requires_route_table`]
    /// (crate::Topology::requires_route_table)); `None` for the mesh
    /// family, whose minimal XY needs no precomputation.
    base_table: Option<Box<RouteTable>>,
    routers: Vec<Router>,
    endpoints: Vec<LocalEndpoint>,
    cycle: u64,
    next_id: u64,
    stats: NocStats,
    injector: Option<FaultInjector>,
    health: HealthMonitor,
    epochs: Vec<Epoch>,
    /// Routers the health machinery has escalated to dead (every adjacent
    /// link condemned, state purged). Grows monotonically.
    dead_routers: BTreeSet<RouterAddr>,
    /// Routers whose local IP core has been declared dead — a superset of
    /// `dead_routers` (an IP dies with its router) plus standalone
    /// endpoint deaths diagnosed through the Local ejection link.
    dead_endpoints: BTreeSet<RouterAddr>,
    /// Per-node activity flag of the engine's active-set walk: `true`
    /// means router `i` or its endpoint may have work this cycle. Nodes
    /// are woken by injection, flit arrival or a scheduled control
    /// stall, and retired once router and endpoint are both quiescent
    /// (the reference full walk wakes nodes but never retires them).
    active: Vec<bool>,
    /// Per-shard merge buffers of the cycle engine, one per shard.
    /// Allocations persist across windows.
    deltas: Vec<ShardDelta>,
    /// Persistent worker threads of a multi-threaded kernel, created
    /// lazily on the first sharded window and joined on drop.
    pool: Option<WorkerPool>,
    /// Packet-lifecycle tracer; `None` (the default) makes every trace
    /// hook a single never-taken branch.
    tracer: Option<PacketTracer>,
    /// Kernel phase profiler; boxed so the kernel can hold a stable raw
    /// pointer to it for the duration of a cycle.
    profiler: Option<Box<PhaseProfiler>>,
    /// Interval telemetry sampler; `None` (the default) makes the
    /// boundary hook a single never-taken branch. Boxed to keep the
    /// common no-telemetry `Noc` small.
    telemetry: Option<Box<Telemetry>>,
}

impl Noc {
    /// Builds the network described by `config`.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`](crate::ConfigError) the
    /// configuration violates.
    pub fn new(config: NocConfig) -> Result<Self, NocError> {
        config.validate()?;
        let mut routers = Vec::with_capacity(config.router_count());
        let mut endpoints = Vec::with_capacity(config.router_count());
        for y in 0..config.height() {
            for x in 0..config.width() {
                routers.push(Router::new(RouterAddr::new(x, y), &config));
                endpoints.push(LocalEndpoint::new(config.flit_bits));
            }
        }
        let base_table = config
            .topology
            .requires_route_table()
            .then(|| Box::new(RouteTable::build(&config.topology, &BTreeSet::new())));
        let stats = NocStats::new(routers.len(), config.stats_window);
        let health = HealthMonitor::new(config.fault_threshold);
        let active = vec![false; routers.len()];
        Ok(Self {
            config,
            base_table,
            routers,
            endpoints,
            cycle: 0,
            next_id: 0,
            stats,
            injector: None,
            health,
            epochs: Vec::new(),
            dead_routers: BTreeSet::new(),
            dead_endpoints: BTreeSet::new(),
            active,
            deltas: Vec::new(),
            pool: None,
            tracer: None,
            profiler: None,
            telemetry: None,
        })
    }

    /// Installs a [`FaultPlan`]; its decisions apply from the next cycle
    /// on. Replacing a plan restarts the injector's random stream.
    ///
    /// # Errors
    ///
    /// [`PlanError`] if the plan fails [`FaultPlan::validate`]: a NaN or
    /// out-of-range probability, or a cycle window that ends before it
    /// starts.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), PlanError> {
        plan.validate()?;
        self.injector = Some(FaultInjector::new(plan));
        Ok(())
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.injector.as_ref().map(FaultInjector::plan)
    }

    /// Removes the fault plan. Damage already injected (corrupted or
    /// dropped flits) is not undone.
    pub fn clear_fault_plan(&mut self) {
        self.injector = None;
    }

    /// The configuration this network was built from.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// Clock cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Enables packet-lifecycle tracing, retaining the `window` most
    /// recent packet traces (see [`PacketTracer`]). Packets submitted
    /// from now on are traced; tracing is opt-in and costs one predictable
    /// branch per instrumented site while disabled. The emitted stream is
    /// bit-identical across every [`KernelMode`] and thread count.
    pub fn enable_packet_trace(&mut self, window: usize) {
        self.tracer = Some(PacketTracer::new(window));
    }

    /// The packet tracer, if tracing is enabled.
    pub fn packet_trace(&self) -> Option<&PacketTracer> {
        self.tracer.as_ref()
    }

    /// Disables tracing and returns the traces collected so far.
    pub fn take_packet_trace(&mut self) -> Option<PacketTracer> {
        self.tracer.take()
    }

    /// Enables the kernel phase profiler: wall-clock time per engine
    /// sub-phase (and per barrier wait, summed over shards). A pure
    /// observer — simulation observables are unaffected; idempotent.
    pub fn enable_phase_profiler(&mut self) {
        if self.profiler.is_none() {
            self.profiler = Some(Box::default());
        }
    }

    /// A snapshot of the phase profiler, or `None` if it was never
    /// enabled.
    pub fn phase_profile(&self) -> Option<PhaseProfile> {
        self.profiler.as_deref().map(PhaseProfiler::snapshot)
    }

    /// Enables interval telemetry: every
    /// [`sample_interval`](TelemetryConfig::sample_interval) cycles a
    /// [`TelemetryFrame`](crate::TelemetryFrame) of per-link, per-router
    /// and latency deltas is cut into a bounded ring, and the congestion
    /// analytics advance. Sampling happens only at fully merged cycle
    /// boundaries (the engine clamps batch windows to them), so the
    /// stream is bit-identical across kernels, thread counts and window
    /// sizes. Replacing an existing sampler restarts the stream with
    /// fresh baselines.
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) {
        self.telemetry = Some(Box::new(Telemetry::new(config, &self.stats)));
    }

    /// The telemetry sampler, if enabled.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// The retained telemetry as a time-series JSON document (frames,
    /// hotspots, congestion alerts; timestamps in cycles), or `None` if
    /// telemetry is disabled. Byte-identical across kernels.
    pub fn telemetry_json(&self) -> Option<String> {
        self.telemetry
            .as_deref()
            .map(|t| t.export_json(&self.config.topology, self.config.cycles_per_flit))
    }

    /// The retained telemetry as Prometheus text exposition with
    /// cycle-valued timestamps, or `None` if telemetry is disabled.
    /// Byte-identical across kernels.
    pub fn telemetry_prometheus(&self) -> Option<String> {
        self.telemetry
            .as_deref()
            .map(|t| t.export_prometheus(&self.config.topology, self.config.cycles_per_flit))
    }

    /// Cuts a telemetry frame if the clock sits exactly on a sample
    /// boundary. Called after every public stepping path has fully merged
    /// the cycle (and after idle jumps have positioned the clock), so the
    /// observed state — stats deltas and buffer occupancy — is identical
    /// under every kernel.
    fn telemetry_tick(&mut self) {
        let Some(telemetry) = self.telemetry.as_deref() else {
            return;
        };
        let interval = telemetry.sample_interval();
        if self.cycle == 0 || !self.cycle.is_multiple_of(interval) {
            return;
        }
        let occupancy: Vec<(u32, u64)> = self
            .routers
            .iter()
            .enumerate()
            .filter_map(|(idx, router)| {
                let buffered = router.buffered_flits();
                (buffered > 0).then_some((idx as u32, buffered))
            })
            .collect();
        let end = self.cycle;
        let cycles_per_flit = self.config.cycles_per_flit;
        if let Some(telemetry) = self.telemetry.as_deref_mut() {
            telemetry.sample(end, &self.stats, occupancy, cycles_per_flit);
        }
    }

    /// A point-in-time metrics snapshot of this network: cycle and packet
    /// counters, latency percentiles, per-link utilization, per-router
    /// buffer high-water marks and the fault/health counters. Purely a
    /// read of already-maintained state, deterministically ordered, and
    /// bit-identical across kernels.
    pub fn metrics(&self) -> Registry {
        let s = &self.stats;
        let mut reg = Registry::new();
        reg.gauge_int("hermes_cycles", "Simulated clock cycles", &[], s.cycles);
        reg.counter(
            "hermes_packets_sent_total",
            "Packets submitted via send",
            &[],
            s.packets_sent,
        );
        reg.counter(
            "hermes_packets_delivered_total",
            "Packets fully delivered to destination IPs",
            &[],
            s.packets_delivered,
        );
        reg.counter(
            "hermes_flit_hops_total",
            "Flits that completed a hop (including local ingress/egress)",
            &[],
            s.flit_hops,
        );
        reg.counter(
            "hermes_flits_delivered_total",
            "Flits delivered to destination IPs",
            &[],
            s.flits_delivered,
        );
        let hist = s.latency_histogram();
        if let Some(mean) = hist.mean() {
            reg.gauge(
                "hermes_latency_mean_cycles",
                "Mean end-to-end packet latency",
                &[],
                mean,
            );
        }
        for (q, v) in [
            ("0.5", hist.p50()),
            ("0.95", hist.p95()),
            ("0.99", hist.p99()),
        ] {
            if let Some(v) = v {
                reg.gauge_int(
                    "hermes_latency_cycles",
                    "End-to-end packet latency percentile",
                    &[("quantile", q)],
                    v,
                );
            }
        }
        for (link, &flits) in &s.link_flits {
            let label = self.config.topology.link_label(*link);
            reg.counter(
                "hermes_link_flits_total",
                "Flits transferred per directed link",
                &[("link", &label)],
                flits,
            );
            if s.cycles > 0 {
                let util = flits as f64 * f64::from(self.config.cycles_per_flit) / s.cycles as f64;
                reg.gauge(
                    "hermes_link_utilization",
                    "Link busy fraction (1.0 = a flit every cycles_per_flit)",
                    &[("link", &label)],
                    util,
                );
            }
        }
        for (idx, counters) in s.routers.iter().enumerate() {
            let addr = self.config.topology.addr_of(idx);
            let label = addr.to_string();
            reg.gauge_int(
                "hermes_buffer_peak_flits",
                "High-water mark of any input buffer of the router",
                &[("router", &label)],
                counters.buffer_peak,
            );
            reg.counter(
                "hermes_router_grants_total",
                "Connections granted by the router's control logic",
                &[("router", &label)],
                counters.grants,
            );
        }
        reg.counter(
            "hermes_fault_flits_corrupted_total",
            "Flits bit-flipped while crossing a link",
            &[],
            s.faults.flits_corrupted,
        );
        reg.counter(
            "hermes_fault_packets_dropped_total",
            "Packets discarded by fault injection",
            &[],
            s.faults.packets_dropped,
        );
        reg.counter(
            "hermes_fault_link_down_blocks_total",
            "Transfers blocked by a link outage",
            &[],
            s.faults.link_down_blocks,
        );
        reg.counter(
            "hermes_epochs_total",
            "Reconfiguration epochs announced",
            &[],
            s.health.epochs,
        );
        reg.counter(
            "hermes_links_declared_dead_total",
            "Links the online health monitor declared dead",
            &[],
            s.health.links_declared_dead,
        );
        reg.counter(
            "hermes_routers_declared_dead_total",
            "Routers escalated to dead by the health machinery",
            &[],
            s.health.routers_declared_dead,
        );
        reg.counter(
            "hermes_endpoints_declared_dead_total",
            "IP cores declared dead by the health machinery",
            &[],
            s.health.endpoints_declared_dead,
        );
        reg.counter(
            "hermes_rerouted_grants_total",
            "Grants that diverged from minimal XY due to a detour table",
            &[],
            s.health.rerouted_grants,
        );
        reg.counter(
            "hermes_deadlock_recoveries_total",
            "Connections flushed by the zero-progress deadlock timeout",
            &[],
            s.health.deadlock_recoveries,
        );
        if let Some(tracer) = &self.tracer {
            reg.counter(
                "hermes_trace_evicted_total",
                "Packet traces evicted from the bounded trace ring",
                &[],
                tracer.evicted_traces(),
            );
        }
        if let Some(telemetry) = self.telemetry.as_deref() {
            reg.counter(
                "hermes_telemetry_frames_total",
                "Telemetry frames sampled",
                &[],
                telemetry.frames_total(),
            );
            reg.counter(
                "hermes_telemetry_frames_evicted_total",
                "Telemetry frames evicted from the bounded ring",
                &[],
                telemetry.frames_evicted(),
            );
            reg.counter(
                "hermes_congestion_alerts_raised_total",
                "Sustained-congestion alerts raised",
                &[],
                telemetry.alerts_raised(),
            );
            reg.counter(
                "hermes_congestion_alerts_cleared_total",
                "Sustained-congestion alerts cleared",
                &[],
                telemetry.alerts_cleared(),
            );
            reg.gauge_int(
                "hermes_congestion_links_alerted",
                "Links with a currently raised congestion alert",
                &[],
                telemetry.links_alerted(),
            );
        }
        reg
    }

    /// Reconfiguration epochs announced so far; `0` means every router
    /// still routes with the healthy minimal algorithm. The count only
    /// ever grows, so the reliable-delivery layer can treat a change as a
    /// reroute notification.
    pub fn current_epoch(&self) -> u64 {
        self.epochs.len() as u64
    }

    /// Links the online health monitor has declared dead, in address
    /// order.
    pub fn dead_links(&self) -> Vec<LinkId> {
        self.health.dead_links().iter().copied().collect()
    }

    /// Health of every link that has ever failed a hop handshake.
    pub fn link_health(&self) -> Vec<LinkHealth> {
        self.health.snapshot()
    }

    /// Whether the online monitor has declared `link` dead.
    pub fn is_link_dead(&self, link: LinkId) -> bool {
        self.health.is_dead(link)
    }

    /// Routers the health machinery has escalated to dead, in address
    /// order. A router lands here when handshake failures on one of its
    /// links cross the threshold *and* the diagnosis attributes the run
    /// to the router itself; every adjacent link is then condemned at
    /// once and the router's state is purged.
    pub fn dead_routers(&self) -> Vec<RouterAddr> {
        self.dead_routers.iter().copied().collect()
    }

    /// Routers whose local IP core has been declared dead, in address
    /// order: every dead router (the IP dies with it) plus standalone
    /// IP-core deaths diagnosed through the Local ejection link.
    pub fn dead_endpoints(&self) -> Vec<RouterAddr> {
        self.dead_endpoints.iter().copied().collect()
    }

    /// Whether `router` has been declared dead.
    pub fn is_router_dead(&self, router: RouterAddr) -> bool {
        self.dead_routers.contains(&router)
    }

    /// Whether the IP core at `router` has been declared dead (on its own
    /// or together with its router).
    pub fn is_endpoint_dead(&self, router: RouterAddr) -> bool {
        self.dead_endpoints.contains(&router)
    }

    /// Whether the mesh is running degraded (at least one link declared
    /// dead).
    pub fn is_degraded(&self) -> bool {
        !self.health.dead_links().is_empty()
    }

    /// Whether the latest reconfiguration epoch has had time to reach
    /// every router. While `false`, in-flight packets may still bounce
    /// between routers holding different epoch views, so a quiet network
    /// is not yet evidence of deadlock.
    pub fn reconfiguration_settled(&self) -> bool {
        self.epochs.last().is_none_or(|e| {
            let radius = u64::from(self.config.width()) + u64::from(self.config.height());
            self.cycle >= e.announced + radius * u64::from(self.config.cycles_per_flit)
        })
    }

    /// The detour table of the latest epoch, if any link has died under
    /// [`Routing::FaultTolerantXy`].
    pub fn route_table(&self) -> Option<&RouteTable> {
        self.epochs.last().map(|e| &e.table)
    }

    fn index(&self, addr: RouterAddr) -> Option<usize> {
        self.config
            .topology
            .contains(addr)
            .then(|| self.config.topology.index(addr))
    }

    fn neighbour(&self, addr: RouterAddr, port: Port) -> Option<RouterAddr> {
        self.config.topology.neighbour(addr, port)
    }

    /// Submits a packet at the network interface of router `src`. The
    /// packet is queued at the source and injected flit by flit at the
    /// handshake cadence.
    ///
    /// # Errors
    ///
    /// [`SendError`] if source or destination lie outside the mesh, the
    /// payload is too long for the flit width, or a payload value
    /// overflows a flit.
    pub fn send(&mut self, src: RouterAddr, packet: Packet) -> Result<PacketId, NocError> {
        let src_idx = self.index(src).ok_or(SendError::UnknownSource(src))?;
        self.index(packet.dest())
            .ok_or(SendError::UnknownDestination(packet.dest()))?;
        packet.validate(&self.config)?;
        if self.config.routing == Routing::FaultTolerantXy {
            // A declared-dead node no longer acks its network interface:
            // its purge already ran, so accepting a packet here would
            // park it in the source queue forever. The epoch check below
            // cannot catch this — the victim's own table view lags the
            // wavefront by one hop.
            if self.dead_routers.contains(&src)
                || self.dead_endpoints.contains(&src)
                || self.dead_routers.contains(&packet.dest())
                || self.dead_endpoints.contains(&packet.dest())
            {
                return Err(NocError::Route(RouteError::Unreachable {
                    src,
                    dest: packet.dest(),
                }));
            }
            // The source router's current epoch view knows whether the
            // dead-link set has cut the destination off entirely.
            if let Some(epoch) =
                table_for(&self.epochs, self.config.cycles_per_flit, src, self.cycle)
            {
                if !epoch.table.reachable(src, packet.dest()) {
                    return Err(NocError::Route(RouteError::Unreachable {
                        src,
                        dest: packet.dest(),
                    }));
                }
            }
        }
        let id = PacketId(self.next_id);
        self.next_id += 1;
        self.stats.add_record(PacketRecord {
            id,
            src,
            dest: packet.dest(),
            sent: self.cycle,
            injected: None,
            header_delivered: None,
            delivered: None,
            wire_flits: packet.wire_flits(),
            hops: src.hops_to(packet.dest()),
        });
        self.stats.packets_sent += 1;
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.register(id, src, packet.dest(), self.cycle);
        }
        let endpoint = &mut self.endpoints[src_idx];
        if endpoint.outgoing.is_empty() {
            // The local handshake also takes `cycles_per_flit` per flit; an
            // idle source's first flit lands that many cycles after send.
            endpoint.next_inject_ok = endpoint
                .next_inject_ok
                .max(self.cycle + u64::from(self.config.cycles_per_flit));
        }
        endpoint.enqueue(id, &packet);
        self.active[src_idx] = true;
        Ok(id)
    }

    /// Removes and returns the oldest packet delivered at router `at`,
    /// together with the address of its source router. The source rides
    /// on the flits themselves, so it is reported correctly even after
    /// the packet's statistics record has been evicted from the bounded
    /// window.
    pub fn try_recv(&mut self, at: RouterAddr) -> Option<(RouterAddr, Packet)> {
        let idx = self.index(at)?;
        let (_, src, packet) = self.endpoints[idx].delivered.pop_front()?;
        Some((src, packet))
    }

    /// Number of packets delivered at `at` and not yet collected.
    pub fn pending_recv(&self, at: RouterAddr) -> usize {
        self.index(at)
            .map(|idx| self.endpoints[idx].delivered.len())
            .unwrap_or(0)
    }

    /// Whether every router's delivery queue is empty — no reassembled
    /// packet anywhere awaits [`try_recv`](Self::try_recv). ([`is_idle`]
    /// deliberately ignores delivered packets, which need no simulation
    /// cycles; consumers that must not sleep past one check this too.)
    ///
    /// [`is_idle`]: Self::is_idle
    pub fn delivered_empty(&self) -> bool {
        self.endpoints.iter().all(|e| e.delivered.is_empty())
    }

    /// Flits still queued at the source interface of `at`, waiting to
    /// enter the network. Useful to bound source queues in traffic
    /// generators.
    pub fn backlog_flits(&self, at: RouterAddr) -> usize {
        self.index(at)
            .map(|idx| self.endpoints[idx].backlog_flits())
            .unwrap_or(0)
    }

    /// Whether no traffic is queued, in flight or in reassembly.
    /// Delivered-but-uncollected packets do not count as traffic.
    pub fn is_idle(&self) -> bool {
        // With no node flagged active there can be no queued, buffered or
        // in-reassembly traffic anywhere (every flit lives in some active
        // node, and a truncated reassembly is aborted when its worm is
        // flushed), so the scan can be skipped. The flags are a
        // conservative superset of the busy set under every kernel, so
        // "all clear" proves idleness; a stale superset (the reference
        // walk never retires a node) merely falls through to the full
        // scan.
        !self.active.iter().any(|&a| a)
            || (self.endpoints.iter().all(LocalEndpoint::is_idle)
                && self.routers.iter().all(Router::is_idle))
    }

    /// Wakes routers inside a scheduled control-stall window: a stalled
    /// router accrues [`FaultCounters::router_stall_cycles`] every cycle
    /// of the window even with nothing buffered, so the active-set walk
    /// must visit it to count identically to the reference walk.
    ///
    /// [`FaultCounters::router_stall_cycles`]: crate::stats::FaultCounters::router_stall_cycles
    fn wake_scheduled_stalls(&mut self, now: u64) {
        let mut s = 0;
        while let Some(stall) = self
            .injector
            .as_ref()
            .and_then(|inj| inj.plan().stalls.get(s))
            .copied()
        {
            s += 1;
            if stall.window.contains(now) {
                if let Some(idx) = self.index(stall.router) {
                    self.active[idx] = true;
                }
            }
        }
    }

    /// Advances the simulation by one clock cycle: a one-cycle window of
    /// the engine [`run`](Self::run) batches. Every [`KernelMode`]
    /// produces bit-identical observables: random fault decisions are
    /// keyed by fault site and cycle — never by visit order — and every
    /// cross-router side effect is merged serially in ascending router
    /// order.
    pub fn step(&mut self) {
        let base = self.cycle + 1;
        self.cycle = base;
        self.run_window(base, 1);
        self.close_window(1);
    }

    /// The length of the window starting at `base`, at most `limit`
    /// cycles. Any path that feeds merge output back into the phases —
    /// fault injection (health failures, scheduled stalls) or a
    /// non-empty epoch list (route reconfiguration, armed deadlock
    /// recovery) — collapses the window to one cycle so the feedback
    /// stays cycle-exact, and so does the reference full walk, whose
    /// never-empty walk would defeat the idle-tail rewind of
    /// [`run_until_idle`](Self::run_until_idle); otherwise windows are
    /// [`WINDOW`] cycles long. A window may end on a telemetry sample
    /// boundary (the merge then ticks the sampler) but never crosses
    /// one.
    fn next_window(&self, base: u64, limit: u64) -> u32 {
        let window =
            if self.config.kernel.full_walk() || self.injector.is_some() || !self.epochs.is_empty()
            {
                1
            } else {
                WINDOW
            };
        let mut window = u64::from(window).min(limit);
        if let Some(telemetry) = self.telemetry.as_deref() {
            let interval = telemetry.sample_interval();
            let next_boundary = base.div_ceil(interval).saturating_mul(interval);
            window = window.min(next_boundary - base + 1);
        }
        window as u32
    }

    /// Runs the `window` cycles starting at `base`, sharded row-wise over
    /// the kernel's thread count. The stepping thread runs shard 0;
    /// shards `1..n` run on the persistent worker pool, created lazily on
    /// the first sharded window. Returns the last cycle in which any
    /// shard walked a node (0 if none did), for the idle-tail rewind of
    /// [`run_until_idle`](Self::run_until_idle).
    #[inline]
    fn run_window(&mut self, base: u64, window: u32) -> u64 {
        // A scheduled control stall must wake its router even with
        // nothing buffered, or the active-set walk skips the stall
        // bookkeeping. Stalls require an installed plan, which also
        // forces a one-cycle window.
        if self.injector.is_some() {
            debug_assert_eq!(window, 1, "an installed fault plan forces 1-cycle windows");
            self.wake_scheduled_stalls(base);
        }
        // More shards than rows would only add idle workers: every shard
        // owns whole grid rows.
        let shards = self
            .config
            .kernel
            .threads()
            .clamp(1, usize::from(self.config.height()).max(1));
        self.ensure_shards(shards);
        if shards == 1 {
            let shared = self.cycle_shared(base, 1, window);
            // SAFETY: one shard on the calling thread owns every router,
            // endpoint and delta for the whole window.
            unsafe { kernel::run_shard(&shared, 0, None) };
        } else {
            if self.pool.as_ref().map(|p| p.shards()) != Some(shards) {
                self.pool = Some(WorkerPool::new(shards));
            }
            // Move the pool out so no borrow of `self` is alive while the
            // workers mutate the mesh through the published raw view.
            let pool = self.pool.take().expect("pool created above");
            let shared = self.cycle_shared(base, shards, window);
            // SAFETY: `shared` stays valid until `run_window` returns (it
            // blocks past the window's final barrier), the pool
            // synchronises exactly `shards` participants, and each claims
            // a unique shard index.
            unsafe { pool.run_window(shared) };
            self.pool = Some(pool);
        }
        self.merge_window(base, base + u64::from(window) - 1)
    }

    /// Books `cycles` just-merged cycles once the clock sits on the
    /// window's boundary: the profiler's cycle count, the statistics
    /// clock and the telemetry sampler.
    fn close_window(&mut self, cycles: u64) {
        if let Some(profiler) = self.profiler.as_deref() {
            profiler.bump_cycles(cycles);
        }
        self.stats.cycles = self.cycle;
        self.telemetry_tick();
    }

    /// Grows the per-shard delta pool to at least `n` entries.
    fn ensure_shards(&mut self, n: usize) {
        if self.deltas.len() < n {
            self.deltas.resize_with(n, ShardDelta::default);
        }
    }

    /// Publishes the raw per-window view the engine phases work through.
    fn cycle_shared(&mut self, now: u64, n_shards: usize, window: u32) -> CycleShared {
        CycleShared {
            routers: self.routers.as_mut_ptr(),
            endpoints: self.endpoints.as_mut_ptr(),
            deltas: self.deltas.as_mut_ptr(),
            active: self.active.as_mut_ptr(),
            n_routers: self.routers.len(),
            n_shards,
            config: &self.config,
            base_table: self
                .base_table
                .as_deref()
                .map_or(std::ptr::null(), |t| t as *const RouteTable),
            epochs: self.epochs.as_ptr(),
            epochs_len: self.epochs.len(),
            injector: self
                .injector
                .as_ref()
                .map_or(std::ptr::null(), |inj| inj as *const FaultInjector),
            now,
            window,
            recovery_armed: self.config.routing == Routing::FaultTolerantXy
                && self.config.deadlock_timeout > 0
                && !self.epochs.is_empty(),
            pristine: self.health.is_pristine(),
            trace_enabled: self.tracer.is_some(),
            full_walk: self.config.kernel.full_walk(),
            profiler: self
                .profiler
                .as_deref()
                .map_or(std::ptr::null(), |p| p as *const PhaseProfiler),
        }
    }

    /// Serially merges every shard's deferred side effects for the
    /// window `start..=end` into the global observables — statistics
    /// counters, packet records, link health and reconfiguration epochs —
    /// in shard order, which is ascending router order, so the result is
    /// independent of how the phases were scheduled. Cycle-tagged streams
    /// (packet records, trace spans) are additionally interleaved in
    /// cycle order, reproducing the per-cycle sequential merge exactly.
    /// Merge-time feedback into the phases (health failures, epochs,
    /// deadlock recovery) can only occur when the window is one cycle, so
    /// applying it at `end` is always cycle-exact. Returns the last cycle
    /// in which any shard walked a node (0 if none did).
    fn merge_window(&mut self, start: u64, end: u64) -> u64 {
        let now = end;
        // The statistics keep an exact mirror of the per-router hardware
        // counters; the phases update only the counters of walked
        // routers. A one-cycle window's walks name every router that can
        // have changed; a longer window mirrors them all, once.
        if start == end {
            for delta in &self.deltas {
                for &idx in &delta.walk {
                    self.stats.routers[idx] = self.routers[idx].counters;
                }
            }
        } else {
            for (idx, router) in self.routers.iter().enumerate() {
                self.stats.routers[idx] = router.counters;
            }
        }

        let mut deltas = std::mem::take(&mut self.deltas);

        // Links crossing the fault threshold this cycle: `(router, out,
        // wedged)`. Decide-phase observations (outage timeouts) replay
        // before apply-phase ones (garbled transfers), in ascending
        // router order — exactly the order the sequential scan discovers
        // them in.
        let mut newly_dead: Vec<(usize, usize, bool)> = Vec::new();
        let local_events = deltas.iter().flat_map(|d| d.health_local.iter());
        let decide_events = deltas.iter().flat_map(|d| d.health_decide.iter());
        let apply_events = deltas.iter().flat_map(|d| d.health_apply.iter());
        for &ev in local_events.chain(decide_events).chain(apply_events) {
            match ev {
                HealthEvent::Failure {
                    link,
                    idx,
                    out,
                    wedged,
                } => {
                    if self.health.observe_failure(link, now) {
                        newly_dead.push((idx, out, wedged));
                    }
                }
                HealthEvent::Success(link) => self.health.observe_success(link),
            }
        }

        // Replay the window's trace stream cycle by cycle: within each
        // cycle every local-phase span first (shard order is ascending
        // router order), then every apply-phase span — exactly the order
        // the one-shard sequential engine appends them in, so all kernels
        // emit bit-identical traces for every window size.
        if let Some(tracer) = self.tracer.as_mut() {
            for cycle in start..=end {
                for delta in &deltas {
                    for &(id, event) in at_cycle(&delta.trace_local, cycle, |(_, e)| e.cycle) {
                        tracer.record(id, event);
                    }
                }
                for delta in &deltas {
                    for &(id, event) in at_cycle(&delta.trace_apply, cycle, |(_, e)| e.cycle) {
                        tracer.record(id, event);
                    }
                }
            }
        }

        // Zero-progress runs that crossed the deadlock-recovery timeout
        // this cycle (the per-cycle bookkeeping itself now lives in the
        // apply sub-phase; recovery is armed only with a non-empty epoch
        // list, which forces a one-cycle window).
        let stuck: Vec<(usize, usize)> = deltas
            .iter()
            .flat_map(|d| d.stuck.iter().copied())
            .collect();

        for delta in &deltas {
            self.stats.flit_hops += delta.flit_hops;
            self.stats.flits_delivered += delta.flits_delivered;
            self.stats.packets_delivered += delta.packets_delivered;
            self.stats.faults.flits_dropped += delta.flits_dropped;
            self.stats.faults.packets_dropped += delta.packets_dropped;
            self.stats.faults.flits_corrupted += delta.flits_corrupted;
            self.stats.faults.router_stall_cycles += delta.router_stall_cycles;
            self.stats.faults.link_down_blocks += delta.link_down_blocks;
            self.stats.health.unreachable_drops += delta.unreachable_drops;
            self.stats.health.misaddressed_drops += delta.misaddressed_drops;
            self.stats.health.rerouted_grants += delta.rerouted_grants;
            self.stats.health.source_queue_drops += delta.source_queue_drops;
            for &addr in &delta.local_ingress {
                *self.stats.local_ingress_flits.entry(addr).or_insert(0) += 1;
            }
            for &link in &delta.link_flits {
                *self.stats.link_flits.entry(link).or_insert(0) += 1;
            }
        }

        // Apply the window's record events cycle by cycle, stamping every
        // event with its own cycle — bit-identical to a per-cycle merge,
        // including the order latency observations reach the histogram.
        for cycle in start..=end {
            for delta in &deltas {
                for &(at, ev) in at_cycle(&delta.record_events, cycle, |&(at, _)| at) {
                    match ev {
                        RecordEvent::Injected(id) => {
                            if let Some(record) = self.stats.record_mut(id) {
                                if record.injected.is_none() {
                                    record.injected = Some(at);
                                }
                            }
                        }
                        RecordEvent::Header(id) => {
                            if let Some(record) = self.stats.record_mut(id) {
                                record.header_delivered = Some(at);
                            }
                        }
                        RecordEvent::Delivered(id) => {
                            let mut latency = None;
                            if let Some(record) = self.stats.record_mut(id) {
                                record.delivered = Some(at);
                                latency = Some(at - record.sent);
                            }
                            if let Some(latency) = latency {
                                self.stats.observe_latency(latency);
                            }
                        }
                    }
                }
            }
        }

        let mut last_busy = 0u64;
        for delta in &mut deltas {
            last_busy = last_busy.max(delta.last_busy);
            delta.clear();
        }
        self.deltas = deltas;

        // React to links that crossed the failure threshold this cycle:
        // flush wormholes wedged on them and announce a fresh detour
        // table. Diagnosis always runs; the routing reaction is reserved
        // for [`Routing::FaultTolerantXy`] so the plain XY modes keep
        // their documented wedge-on-dead-link behaviour.
        for (idx, out, wedged) in newly_dead {
            self.stats.health.links_declared_dead += 1;
            let fault_tolerant = self.config.routing == Routing::FaultTolerantXy;
            if fault_tolerant {
                if wedged {
                    self.flush_dead_link(idx, out, now);
                }
                self.epochs.push(Epoch {
                    announced: now,
                    origin: self.routers[idx].addr,
                    table: RouteTable::build(&self.config.topology, self.health.dead_links()),
                });
                self.stats.health.epochs += 1;
            }
            // Node-death attribution: was the failure run caused by a
            // dead router or IP core rather than a single bad link? The
            // injector stands in for the watchdog hardware a real node
            // would carry; the *decision* to declare still came from
            // observed handshake timeouts crossing the threshold.
            let link = (self.routers[idx].addr, Port::from_index(out));
            let (dead_router, dead_endpoint) = match &self.injector {
                Some(inj) => (
                    inj.dead_router_at(link, now),
                    link.1 == Port::Local && inj.endpoint_down(link.0, now),
                ),
                None => (None, false),
            };
            if let Some(victim) = dead_router {
                if self.index(victim).is_some() && self.dead_routers.insert(victim) {
                    self.stats.health.routers_declared_dead += 1;
                    if self.dead_endpoints.insert(victim) {
                        self.stats.health.endpoints_declared_dead += 1;
                    }
                    if fault_tolerant {
                        self.escalate_dead_router(victim, now);
                    }
                }
            } else if dead_endpoint && self.dead_endpoints.insert(link.0) {
                self.stats.health.endpoints_declared_dead += 1;
            }
        }

        // Deadlock recovery: a connection that kept a flit ready against a
        // full downstream buffer for the whole timeout is making no
        // forward progress; on a degraded fault-tolerant mesh (mixed-epoch
        // transients are the only way the acyclic turn relation can be
        // circumvented) flush the worm like any other wedged packet and
        // let the end-to-end layer retry.
        for (idx, in_idx) in stuck {
            let Some(out) = self.routers[idx].inputs[in_idx].conn else {
                continue;
            };
            self.routers[idx].inputs[in_idx].blocked_cycles = 0;
            self.flush_dead_link(idx, out, now);
            self.stats.health.deadlock_recoveries += 1;
        }

        last_busy
    }

    /// Escalates one diagnosed dead router to a node-level declaration:
    /// every link touching it — its five outgoing links and the inbound
    /// links from its neighbours — is condemned at once, worms wedged
    /// across them are flushed, a detour table excluding the node is
    /// announced from every surviving neighbour (the origin adopts its
    /// epoch instantly, so no neighbour ever again grants toward the
    /// victim), and the victim's buffers, connections and source queue
    /// are purged: its control logic is gone and nothing else would ever
    /// drain them.
    fn escalate_dead_router(&mut self, victim: RouterAddr, now: u64) {
        let vidx = self
            .index(victim)
            .expect("victim was validated against the mesh");
        // Every adjacent link goes on the flush list even if the health
        // monitor already declared it — several of the victim's links can
        // cross the failure threshold in the same replay that triggers
        // this escalation, and the purge below destroys the victim-side
        // connection state their own reaction entries would need to walk
        // the worm downstream. Flushing is idempotent, so condemning the
        // full set here is safe and the later entries become no-ops.
        let mut condemned: Vec<(usize, usize)> = Vec::new();
        for port in Port::ALL {
            let neighbour = self.neighbour(victim, port);
            if port == Port::Local || neighbour.is_some() {
                if self.health.declare_dead((victim, port), now) {
                    self.stats.health.links_declared_dead += 1;
                }
                condemned.push((vidx, port.index()));
            }
            if let Some(n) = neighbour {
                let inbound = port
                    .opposite()
                    .expect("a port with a neighbour is not Local");
                let nidx = self.index(n).expect("neighbour lies on the mesh");
                if self.health.declare_dead((n, inbound), now) {
                    self.stats.health.links_declared_dead += 1;
                }
                condemned.push((nidx, inbound.index()));
            }
        }
        for &(idx, out) in &condemned {
            self.flush_dead_link(idx, out, now);
        }
        let table = RouteTable::build(&self.config.topology, self.health.dead_links());
        for port in Port::ALL {
            let Some(origin) = self.neighbour(victim, port) else {
                continue;
            };
            self.epochs.push(Epoch {
                announced: now,
                origin,
                table: table.clone(),
            });
            self.stats.health.epochs += 1;
        }
        let router = &mut self.routers[vidx];
        let mut flushed = 0u64;
        for input in router.inputs.iter_mut() {
            while input.buffer.pop().is_some() {
                flushed += 1;
            }
            input.close();
        }
        for output in router.outputs.iter_mut() {
            output.owner = None;
        }
        self.stats.health.wedged_flits_flushed += flushed;
        let endpoint = &mut self.endpoints[vidx];
        self.stats.health.source_queue_drops += endpoint.outgoing.len() as u64;
        endpoint.outgoing.clear();
        endpoint.abort_rx();
    }

    /// Advances the clock by `cycles` at once without stepping any router
    /// — valid only while the network is idle, where a step is a pure
    /// clock tick. The caller must also ensure no scheduled router-stall
    /// window overlaps the gap (a stalled idle router still accrues its
    /// stall counter every stepped cycle, which a jump would skip); see
    /// [`FaultPlan::has_router_stalls`](crate::fault::FaultPlan::has_router_stalls).
    pub fn advance_idle(&mut self, cycles: u64) {
        debug_assert!(self.is_idle(), "advance_idle requires an idle network");
        let target = self.cycle + cycles;
        // The jump must leave the same telemetry stream a stepped run
        // would: one (all-zero-delta) frame per crossed sample boundary,
        // with the congestion EWMAs decaying frame by frame.
        if let Some(interval) = self.telemetry.as_deref().map(Telemetry::sample_interval) {
            let mut boundary = (self.cycle / interval + 1) * interval;
            while boundary <= target {
                self.cycle = boundary;
                self.stats.cycles = boundary;
                self.telemetry_tick();
                boundary += interval;
            }
        }
        self.cycle = target;
        self.stats.cycles = target;
    }

    /// Runs for exactly `cycles` clock cycles, batched into windows of
    /// up to 16 cycles per dispatch.
    /// An installed fault plan, a reconfiguration epoch or the
    /// [`Reference`](KernelMode::Reference) kernel collapses the windows
    /// to one cycle, and the final window is clamped so the run ends
    /// exactly at `cycles`. The call returns at a fully merged cycle
    /// boundary with observables bit-identical to stepping cycle by
    /// cycle.
    pub fn run(&mut self, cycles: u64) {
        let mut remaining = cycles;
        while remaining > 0 {
            let base = self.cycle + 1;
            let w = self.next_window(base, remaining);
            self.cycle += u64::from(w);
            remaining -= u64::from(w);
            self.run_window(base, w);
            self.close_window(u64::from(w));
        }
    }

    /// Runs until the network is idle, in the same windows as
    /// [`run`](Self::run). Trailing cycles of a window in which every
    /// shard's walk was empty mutate nothing, so the clock is rewound to
    /// the last busy cycle and the count of cycles actually spent matches
    /// per-cycle stepping exactly.
    ///
    /// # Errors
    ///
    /// [`NocError::NotIdle`] if traffic is still in flight after `budget`
    /// cycles.
    pub fn run_until_idle(&mut self, budget: u64) -> Result<u64, NocError> {
        let start = self.cycle;
        while !self.is_idle() {
            let spent = self.cycle - start;
            if spent >= budget {
                return Err(NocError::NotIdle { budget });
            }
            let base = self.cycle + 1;
            let w = self.next_window(base, budget - spent);
            let last_busy = self.run_window(base, w);
            // Not idle on entry ⇒ some walk was non-empty, so
            // `last_busy >= base`; it equals the window end whenever
            // traffic is still in flight.
            debug_assert!(last_busy >= base);
            self.cycle = last_busy;
            // After the idle-tail rewind the clock sits exactly where
            // per-cycle stepping stopped; the tick fires only if that is
            // a sample boundary, keeping the streams aligned.
            self.close_window(last_busy - base + 1);
        }
        Ok(self.cycle - start)
    }

    /// Severs the wormhole wedged on a dead link. Upstream of the break
    /// the owning input switches to the paced sink, so the rest of the
    /// worm — including whatever the source interface has yet to inject —
    /// unwinds at handshake cadence exactly like a fault-dropped packet.
    /// Downstream of the break the worm's flits are purged buffer by
    /// buffer (only its own flits: an innocent complete packet queued
    /// ahead of them is left untouched) and a partial reassembly at the
    /// destination is abandoned.
    fn flush_dead_link(&mut self, idx: usize, out: usize, now: u64) {
        let Some(in_idx) = self.routers[idx].outputs[out].owner else {
            return;
        };
        let wid = self.routers[idx].inputs[in_idx].cur_packet;
        let input = &mut self.routers[idx].inputs[in_idx];
        // Keep fwd_count/fwd_expected: the sink continues the packet
        // bookkeeping exactly where forwarding stopped.
        input.conn = None;
        input.start_sink(now);
        self.routers[idx].outputs[out].owner = None;
        self.stats.health.wedged_packets_dropped += 1;

        let Some(wid) = wid else { return };
        let mut cur_idx = idx;
        let mut cur_out = Port::from_index(out);
        loop {
            if cur_out == Port::Local {
                let aborted = self.endpoints[cur_idx].abort_rx();
                debug_assert!(
                    aborted.is_none() || aborted == Some(wid),
                    "local output serializes packets, so any partial reassembly is the worm's"
                );
                break;
            }
            let Some(next) = self.neighbour(self.routers[cur_idx].addr, cur_out) else {
                break;
            };
            let Some(next_idx) = self.index(next) else {
                break;
            };
            let Some(in_port) = cur_out.opposite() else {
                break;
            };
            let input = &mut self.routers[next_idx].inputs[in_port.index()];
            self.stats.health.wedged_flits_flushed += input.buffer.remove_packet(wid);
            if input.cur_packet != Some(wid) {
                break;
            }
            let next_conn = input.conn;
            input.close();
            let Some(o) = next_conn else { break };
            self.routers[next_idx].outputs[o].owner = None;
            cur_idx = next_idx;
            cur_out = Port::from_index(o);
        }
    }

    /// Serializes the complete network state — configuration, clock,
    /// every router and endpoint, statistics, health monitor, epochs,
    /// dead sets, activity flags, fault plan and tracer — into a sealed
    /// [`snapshot`](crate::snapshot) container of kind
    /// [`KIND_NOC`](crate::snapshot::KIND_NOC).
    ///
    /// Transient kernel scratch (shard merge buffers, worker pool) and the wall-clock phase profiler's accumulated timings are
    /// deliberately excluded: they carry no simulation state, and the
    /// profiler measures host time, which is not deterministic. Only the
    /// profiler's *enabled* flag is preserved.
    ///
    /// Because this method borrows the network, it can only run between
    /// public stepping calls — and every such call (including a batched
    /// [`run`](Self::run), whose final window is clamped to the
    /// requested cycle count) returns at a fully merged
    /// cycle boundary. A mid-window state is unobservable here, so every
    /// snapshot is exact and restoring it under any kernel or window
    /// size resumes bit-identically.
    pub fn save_state(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        self.snapshot_write(&mut w, false);
        w.finish(snapshot::KIND_NOC)
    }

    /// A digest of the simulated state: [`snapshot::fletcher64`] over
    /// the payload [`save_state`](Self::save_state) writes, with the
    /// fields that only describe how the simulator computes that state —
    /// the kernel and its thread count, the active-set flags, the
    /// profiler switch — written canonically. Equal fingerprints mean
    /// equal clocks, buffers, statistics, health, fault-plan progress,
    /// delivered queues, trace rings and telemetry, so two networks
    /// that agree on it export the same bytes; it is the determinism
    /// contract's one comparison. Costs one serialization, so compare
    /// at run boundaries rather than every cycle.
    pub fn fingerprint(&self) -> u64 {
        let mut w = SnapshotWriter::new();
        self.snapshot_write(&mut w, true);
        w.digest()
    }

    /// Rebuilds a network from a container produced by
    /// [`save_state`](Self::save_state). Stepping the restored network is
    /// bit-identical to stepping the original from the same point.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]: a damaged container (truncated, bad magic,
    /// checksum or kind), an unsupported version, a mesh-shape mismatch,
    /// or malformed field encodings. No partial state escapes a failed
    /// restore.
    pub fn restore_state(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::open(bytes, snapshot::KIND_NOC)?;
        let noc = Self::snapshot_read(&mut r, None)?;
        r.finish()?;
        Ok(noc)
    }

    /// Like [`restore_state`](Self::restore_state) but overrides the
    /// snapshot's execution kernel. Observables are kernel-invariant, so
    /// a snapshot taken under one kernel may be resumed under any other —
    /// e.g. checkpoint under `Parallel { threads: 8 }`, restore under
    /// `Reference` — without perturbing the simulation.
    ///
    /// # Errors
    ///
    /// As [`restore_state`](Self::restore_state); additionally rejects an
    /// invalid override (e.g. `Parallel { threads: 0 }`).
    pub fn restore_state_with_kernel(
        bytes: &[u8],
        kernel: KernelMode,
    ) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::open(bytes, snapshot::KIND_NOC)?;
        let noc = Self::snapshot_read(&mut r, Some(kernel))?;
        r.finish()?;
        Ok(noc)
    }

    /// Writes the raw payload fields (no container framing). `canonical`
    /// writes the simulator-only fields in a fixed form for
    /// [`fingerprint`](Self::fingerprint): the `Active` kernel, no
    /// active-set flags and the profiler off.
    fn snapshot_write(&self, w: &mut SnapshotWriter, canonical: bool) {
        if canonical {
            w.put(&self.config.clone().with_kernel_mode(KernelMode::Active));
        } else {
            w.put(&self.config);
        }
        // Explicit router count: lets the decoder distinguish "payload
        // from a different mesh shape" from generic corruption.
        w.put(&self.routers.len());
        w.put(&(self.cycle, self.next_id));
        for router in &self.routers {
            router.snapshot_write(w);
        }
        for endpoint in &self.endpoints {
            endpoint.snapshot_write(w);
        }
        self.stats.snapshot_write(w);
        self.health.snapshot_write(w);
        // An epoch is its announcement and dead-link set; the detour
        // table is rebuilt from them on restore.
        let epochs: Vec<_> = (self.epochs.iter())
            .map(|e| (e.announced, e.origin, e.table.dead_links().clone()))
            .collect();
        w.put(&epochs);
        w.put(&self.dead_routers);
        w.put(&self.dead_endpoints);
        if !canonical {
            for flag in &self.active {
                w.put(flag);
            }
        }
        w.put(&self.injector);
        w.put(&self.tracer);
        w.put(&(self.profiler.is_some() && !canonical));
        w.put(&self.telemetry);
    }

    /// Decodes a payload written by
    /// [`snapshot_write`](Self::snapshot_write), optionally overriding
    /// the execution kernel before the configuration is re-validated,
    /// then runs the checks that need the decoded network as context.
    fn snapshot_read(
        r: &mut SnapshotReader<'_>,
        kernel: Option<KernelMode>,
    ) -> Result<Self, SnapshotError> {
        let mut config: NocConfig = r.take()?;
        if let Some(kernel) = kernel {
            config.kernel = kernel;
        }
        config
            .validate()
            .map_err(|_| SnapshotError::Malformed("configuration fails validation"))?;
        let routers = r.take_len()?;
        if routers != config.router_count() {
            return Err(SnapshotError::MeshMismatch {
                width: config.width(),
                height: config.height(),
                routers,
            });
        }
        let mesh = (config.width(), config.height());
        let mut noc = Self::new(config)
            .map_err(|_| SnapshotError::Malformed("validated configuration failed to build"))?;
        (noc.cycle, noc.next_id) = r.take()?;
        for router in &mut noc.routers {
            router.snapshot_read(r)?;
        }
        for endpoint in &mut noc.endpoints {
            endpoint.snapshot_read(r)?;
        }
        noc.stats.snapshot_read(r)?;
        noc.health.snapshot_read(r)?;
        let epochs: Vec<(u64, RouterAddr, BTreeSet<LinkId>)> = r.take()?;
        noc.dead_routers = r.take()?;
        noc.dead_endpoints = r.take()?;
        for flag in &mut noc.active {
            *flag = r.take()?;
        }
        noc.injector = r.take()?;
        noc.tracer = r.take()?;
        if r.take()? {
            noc.enable_phase_profiler();
        }
        if r.version() >= 4 {
            noc.telemetry = r.take()?;
        }

        noc.stats.check_restored(noc.next_id, noc.cycle, mesh)?;
        let epoch_addrs = epochs.iter().flat_map(|(_, origin, dead)| {
            std::iter::once(*origin).chain(dead.iter().map(|link| link.0))
        });
        snapshot::check_mesh(
            mesh,
            (noc.health.snapshot().iter().map(|h| h.link.0))
                .chain(epoch_addrs)
                .chain(noc.dead_routers.iter().copied())
                .chain(noc.dead_endpoints.iter().copied())
                .chain(noc.telemetry.iter().flat_map(|t| t.addrs())),
        )?;
        if let Some(injector) = &noc.injector {
            (injector.plan().validate())
                .map_err(|_| SnapshotError::Malformed("fault plan fails validation"))?;
        }
        if let Some(telemetry) = &noc.telemetry {
            telemetry.check_restored(noc.routers.len(), &noc.stats)?;
        }
        let topology = noc.config.topology;
        noc.epochs = (epochs.into_iter())
            .map(|(announced, origin, dead)| Epoch {
                announced,
                origin,
                table: RouteTable::build(&topology, &dead),
            })
            .collect();
        Ok(noc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency;

    fn noc_2x2() -> Noc {
        Noc::new(NocConfig::mesh(2, 2)).expect("valid config")
    }

    #[test]
    fn delivers_a_packet_with_payload_intact() {
        let mut noc = noc_2x2();
        let src = RouterAddr::new(0, 0);
        let dst = RouterAddr::new(1, 1);
        noc.send(src, Packet::new(dst, vec![1, 2, 3, 4, 5]))
            .expect("send");
        noc.run_until_idle(10_000).expect("delivered");
        let (from, packet) = noc.try_recv(dst).expect("delivered packet");
        assert_eq!(from, src);
        assert_eq!(packet.payload(), &[1, 2, 3, 4, 5]);
        assert!(noc.try_recv(dst).is_none());
    }

    #[test]
    fn minimal_latency_matches_paper_formula() {
        // latency = (sum Ri + P) * 2 in an idle network.
        for (dst, payload_len) in [
            (RouterAddr::new(0, 0), 4usize),
            (RouterAddr::new(1, 0), 4),
            (RouterAddr::new(1, 1), 4),
            (RouterAddr::new(3, 3), 10),
            (RouterAddr::new(2, 0), 0),
        ] {
            let mut noc = Noc::new(NocConfig::mesh(4, 4)).unwrap();
            let src = RouterAddr::new(0, 0);
            let id = noc
                .send(src, Packet::new(dst, vec![7; payload_len]))
                .unwrap();
            noc.run_until_idle(100_000).unwrap();
            let record = noc.stats().record(id).unwrap();
            let expected = latency::minimal_latency(
                src.routers_on_path(dst),
                record.wire_flits,
                noc.config().routing_cycles,
                noc.config().cycles_per_flit,
            );
            assert_eq!(
                record.latency(),
                expected,
                "dst {dst} payload {payload_len}"
            );
        }
    }

    #[test]
    fn self_addressed_packet_loops_through_local_port() {
        let mut noc = noc_2x2();
        let here = RouterAddr::new(0, 0);
        noc.send(here, Packet::new(here, vec![42])).unwrap();
        noc.run_until_idle(1_000).unwrap();
        let (from, packet) = noc.try_recv(here).expect("delivered");
        assert_eq!(from, here);
        assert_eq!(packet.payload(), &[42]);
    }

    #[test]
    fn rejects_out_of_mesh_addresses() {
        let mut noc = noc_2x2();
        let bad = RouterAddr::new(5, 5);
        let ok = RouterAddr::new(0, 0);
        assert!(matches!(
            noc.send(bad, Packet::new(ok, vec![])),
            Err(NocError::Send(SendError::UnknownSource(_)))
        ));
        assert!(matches!(
            noc.send(ok, Packet::new(bad, vec![])),
            Err(NocError::Send(SendError::UnknownDestination(_)))
        ));
    }

    #[test]
    fn many_packets_all_arrive() {
        let mut noc = Noc::new(NocConfig::mesh(4, 4)).unwrap();
        let mut expected = 0;
        for x in 0..4u8 {
            for y in 0..4u8 {
                let src = RouterAddr::new(x, y);
                let dst = RouterAddr::new(3 - x, 3 - y);
                for k in 0..5u16 {
                    noc.send(src, Packet::new(dst, vec![k, k + 1, k + 2]))
                        .unwrap();
                    expected += 1;
                }
            }
        }
        noc.run_until_idle(1_000_000).unwrap();
        assert_eq!(noc.stats().packets_delivered, expected);
        let mut collected = 0;
        for x in 0..4u8 {
            for y in 0..4u8 {
                while noc.try_recv(RouterAddr::new(x, y)).is_some() {
                    collected += 1;
                }
            }
        }
        assert_eq!(collected, expected);
    }

    #[test]
    fn wormhole_preserves_per_flow_packet_order() {
        let mut noc = noc_2x2();
        let src = RouterAddr::new(0, 0);
        let dst = RouterAddr::new(1, 1);
        for k in 0..10u16 {
            noc.send(src, Packet::new(dst, vec![k])).unwrap();
        }
        noc.run_until_idle(100_000).unwrap();
        for k in 0..10u16 {
            let (_, packet) = noc.try_recv(dst).expect("in order");
            assert_eq!(packet.payload(), &[k]);
        }
    }

    #[test]
    fn run_until_idle_reports_budget_exhaustion() {
        let mut noc = noc_2x2();
        noc.send(
            RouterAddr::new(0, 0),
            Packet::new(RouterAddr::new(1, 1), vec![0; 50]),
        )
        .unwrap();
        assert_eq!(noc.run_until_idle(3), Err(NocError::NotIdle { budget: 3 }));
        // And it can still finish afterwards.
        noc.run_until_idle(100_000).unwrap();
        assert_eq!(noc.stats().packets_delivered, 1);
    }

    #[test]
    fn run_until_idle_stops_where_stepping_does_under_every_kernel() {
        // The drain starts with a worm in flight: the batched kernels
        // must rewind their last window's idle tail, and the reference
        // kernel, whose walk is never empty, must run one-cycle windows.
        let start = |kernel| {
            let mut noc = Noc::new(NocConfig::mesh(3, 3).with_kernel_mode(kernel)).unwrap();
            noc.send(
                RouterAddr::new(0, 0),
                Packet::new(RouterAddr::new(2, 2), vec![1, 2, 3]),
            )
            .unwrap();
            noc.run(5);
            noc
        };
        let mut stepped = start(KernelMode::Reference);
        let mut steps = 0;
        while !stepped.is_idle() {
            stepped.step();
            steps += 1;
        }
        for kernel in [
            KernelMode::Reference,
            KernelMode::Active,
            KernelMode::Parallel { threads: 2 },
        ] {
            let mut noc = start(kernel);
            assert_eq!(noc.run_until_idle(10_000), Ok(steps), "{kernel:?}");
            assert_eq!(noc.cycle(), stepped.cycle(), "{kernel:?}");
        }
    }

    #[test]
    fn idle_network_stays_idle() {
        let mut noc = noc_2x2();
        assert!(noc.is_idle());
        noc.run(100);
        assert!(noc.is_idle());
        assert_eq!(noc.stats().flit_hops, 0);
    }

    #[test]
    fn contended_output_serializes_packets() {
        // Two sources target the same destination; both must arrive.
        let mut noc = noc_2x2();
        let dst = RouterAddr::new(1, 1);
        noc.send(RouterAddr::new(0, 0), Packet::new(dst, vec![1; 20]))
            .unwrap();
        noc.send(RouterAddr::new(1, 0), Packet::new(dst, vec![2; 20]))
            .unwrap();
        noc.run_until_idle(100_000).unwrap();
        assert_eq!(noc.pending_recv(dst), 2);
        let payloads: Vec<Vec<u16>> = (0..2)
            .map(|_| noc.try_recv(dst).unwrap().1.into_payload())
            .collect();
        assert!(payloads.contains(&vec![1; 20]));
        assert!(payloads.contains(&vec![2; 20]));
    }

    #[test]
    fn dropped_packet_unwinds_and_network_goes_idle() {
        use crate::fault::FaultPlan;
        let mut noc = noc_2x2();
        noc.set_fault_plan(FaultPlan::new(1).with_drop_rate(1.0))
            .unwrap();
        noc.send(
            RouterAddr::new(0, 0),
            Packet::new(RouterAddr::new(1, 1), vec![5; 6]),
        )
        .unwrap();
        noc.run_until_idle(10_000)
            .expect("a dropped packet must drain, not wedge");
        assert_eq!(noc.stats().packets_delivered, 0);
        assert_eq!(noc.stats().faults.packets_dropped, 1);
        assert_eq!(
            noc.stats().faults.flits_dropped,
            8,
            "header + size + 6 payload"
        );
        assert!(noc.try_recv(RouterAddr::new(1, 1)).is_none());
    }

    #[test]
    fn corruption_mangles_payload_but_still_delivers() {
        use crate::fault::FaultPlan;
        let mut noc = noc_2x2();
        noc.set_fault_plan(FaultPlan::new(2).with_corrupt_rate(1.0))
            .unwrap();
        let src = RouterAddr::new(0, 0);
        let dst = RouterAddr::new(1, 1);
        noc.send(src, Packet::new(dst, vec![0; 8])).unwrap();
        noc.run_until_idle(10_000).unwrap();
        let (from, packet) = noc.try_recv(dst).expect("corruption must not lose packets");
        assert_eq!(from, src, "header flits are never corrupted");
        assert_eq!(packet.payload().len(), 8, "size flit is never corrupted");
        assert!(
            packet.payload().iter().any(|&v| v != 0),
            "at rate 1.0 every payload flit is flipped at least once"
        );
        assert!(noc.stats().faults.flits_corrupted > 0);
    }

    #[test]
    fn link_down_window_delays_delivery_until_it_lifts() {
        use crate::fault::{CycleWindow, FaultPlan};
        let src = RouterAddr::new(0, 0);
        let dst = RouterAddr::new(1, 0);
        let mut clean = noc_2x2();
        let baseline = clean.send(src, Packet::new(dst, vec![1, 2])).unwrap();
        clean.run_until_idle(10_000).unwrap();
        let clean_latency = clean.stats().record(baseline).unwrap().latency();

        let mut noc = noc_2x2();
        noc.set_fault_plan(FaultPlan::new(3).with_link_down(
            src,
            Port::East,
            CycleWindow::new(0, 200),
        ))
        .unwrap();
        let id = noc.send(src, Packet::new(dst, vec![1, 2])).unwrap();
        noc.run_until_idle(10_000).unwrap();
        let record = noc.stats().record(id).unwrap();
        assert!(record.is_delivered());
        assert!(
            record.delivered.unwrap() > 200,
            "nothing crosses the link before the outage lifts"
        );
        assert!(record.latency() > clean_latency);
        assert!(noc.stats().faults.link_down_blocks > 0);
    }

    #[test]
    fn permanent_link_down_wedges_the_path() {
        use crate::fault::{CycleWindow, FaultPlan};
        let mut noc = noc_2x2();
        noc.set_fault_plan(FaultPlan::new(4).with_link_down(
            RouterAddr::new(0, 0),
            Port::East,
            CycleWindow::open_ended(0),
        ))
        .unwrap();
        assert!(noc.fault_plan().unwrap().has_permanent_outage());
        noc.send(
            RouterAddr::new(0, 0),
            Packet::new(RouterAddr::new(1, 0), vec![9]),
        )
        .unwrap();
        assert_eq!(
            noc.run_until_idle(5_000),
            Err(NocError::NotIdle { budget: 5_000 }),
            "a dead link is a typed error, not a hang or panic"
        );
        assert_eq!(noc.stats().packets_delivered, 0);
    }

    #[test]
    fn stalled_router_grants_nothing_during_the_window() {
        use crate::fault::{CycleWindow, FaultPlan};
        let src = RouterAddr::new(0, 0);
        let dst = RouterAddr::new(1, 0);
        let mut noc = noc_2x2();
        noc.set_fault_plan(FaultPlan::new(5).with_router_stall(src, CycleWindow::new(0, 100)))
            .unwrap();
        let id = noc.send(src, Packet::new(dst, vec![7])).unwrap();
        noc.run_until_idle(10_000).unwrap();
        let record = noc.stats().record(id).unwrap();
        assert!(
            record.delivered.unwrap() > 100,
            "no grant before the stall lifts"
        );
        assert!(noc.stats().faults.router_stall_cycles > 0);
    }

    #[test]
    fn same_plan_and_workload_reproduce_identical_outcomes() {
        use crate::fault::FaultPlan;
        let run = || {
            let mut noc = Noc::new(NocConfig::mesh(3, 3)).unwrap();
            noc.set_fault_plan(
                FaultPlan::new(42)
                    .with_drop_rate(0.2)
                    .with_corrupt_rate(0.1),
            )
            .unwrap();
            for k in 0..20u16 {
                let src = RouterAddr::new((k % 3) as u8, (k / 7) as u8);
                let dst = RouterAddr::new(2 - (k % 3) as u8, 2 - (k / 7) as u8);
                noc.send(src, Packet::new(dst, vec![k; 5])).unwrap();
            }
            noc.run_until_idle(100_000).unwrap();
            (
                noc.stats().packets_delivered,
                noc.stats().faults,
                noc.stats().flit_hops,
            )
        };
        assert_eq!(run(), run());
    }

    fn noc_ft(width: u8, height: u8) -> Noc {
        let mut config = NocConfig::mesh(width, height);
        config.routing = Routing::FaultTolerantXy;
        Noc::new(config).expect("valid config")
    }

    #[test]
    fn fault_tolerant_mode_survives_a_permanent_dead_link() {
        use crate::fault::{CycleWindow, FaultPlan};
        let mut noc = noc_ft(2, 2);
        noc.set_fault_plan(FaultPlan::new(4).with_link_down(
            RouterAddr::new(0, 0),
            Port::East,
            CycleWindow::open_ended(0),
        ))
        .unwrap();
        let src = RouterAddr::new(0, 0);
        let dst = RouterAddr::new(1, 0);
        // The first packet wedges on the dying link; diagnosis flushes it
        // instead of leaving the network wedged forever.
        noc.send(src, Packet::new(dst, vec![9])).unwrap();
        noc.run_until_idle(50_000)
            .expect("the wedged worm is flushed, not stuck");
        assert_eq!(noc.stats().health.links_declared_dead, 1);
        assert_eq!(noc.stats().health.wedged_packets_dropped, 1);
        assert_eq!(noc.stats().health.epochs, 1);
        assert_eq!(noc.current_epoch(), 1);
        assert!(noc.is_degraded());
        assert!(noc.is_link_dead((src, Port::East)));
        // After reconfiguration traffic detours N-E-S and is delivered.
        let id = noc.send(src, Packet::new(dst, vec![1, 2, 3])).unwrap();
        noc.run_until_idle(50_000).unwrap();
        let record = noc.stats().record(id).unwrap();
        assert!(record.is_delivered());
        let (from, packet) = noc.try_recv(dst).expect("delivered via detour");
        assert_eq!(from, src);
        assert_eq!(packet.payload(), &[1, 2, 3]);
        assert!(noc.stats().health.rerouted_grants > 0);
    }

    #[test]
    fn partitioned_destination_is_a_typed_send_error() {
        use crate::fault::{CycleWindow, FaultPlan};
        let mut noc = noc_ft(2, 2);
        let corner = RouterAddr::new(0, 0);
        noc.set_fault_plan(
            FaultPlan::new(4)
                .with_link_down(corner, Port::East, CycleWindow::open_ended(0))
                .with_link_down(corner, Port::North, CycleWindow::open_ended(0)),
        )
        .unwrap();
        // Two probes kill the corner's two links one after the other.
        noc.send(corner, Packet::new(RouterAddr::new(1, 1), vec![1]))
            .unwrap();
        noc.run_until_idle(50_000).unwrap();
        noc.send(corner, Packet::new(RouterAddr::new(1, 1), vec![2]))
            .unwrap();
        noc.run_until_idle(50_000).unwrap();
        assert_eq!(noc.stats().health.links_declared_dead, 2);
        // The corner is now cut off: sending to or from it fails with the
        // typed partition error rather than wedging the network.
        assert!(matches!(
            noc.send(corner, Packet::new(RouterAddr::new(1, 1), vec![3])),
            Err(NocError::Route(RouteError::Unreachable { .. }))
        ));
        assert!(matches!(
            noc.send(RouterAddr::new(1, 1), Packet::new(corner, vec![4])),
            Err(NocError::Route(RouteError::Unreachable { .. }))
        ));
        // The surviving component still carries traffic.
        let id = noc
            .send(
                RouterAddr::new(1, 0),
                Packet::new(RouterAddr::new(0, 1), vec![5]),
            )
            .unwrap();
        noc.run_until_idle(50_000).unwrap();
        assert!(noc.stats().record(id).unwrap().is_delivered());
    }

    #[test]
    fn degraded_runs_are_deterministic() {
        use crate::fault::{CycleWindow, FaultPlan};
        let run = || {
            let mut noc = noc_ft(3, 3);
            noc.set_fault_plan(FaultPlan::new(7).with_link_down(
                RouterAddr::new(1, 1),
                Port::East,
                CycleWindow::open_ended(0),
            ))
            .unwrap();
            for k in 0..30u16 {
                let src = RouterAddr::new((k % 3) as u8, ((k / 3) % 3) as u8);
                let dst = RouterAddr::new(2 - (k % 3) as u8, 2 - ((k / 3) % 3) as u8);
                noc.send(src, Packet::new(dst, vec![k; 4])).unwrap();
            }
            noc.run_until_idle(1_000_000).unwrap();
            (
                noc.stats().packets_delivered,
                noc.stats().health,
                noc.stats().faults,
                noc.stats().flit_hops,
            )
        };
        let (delivered, health, _, _) = run();
        assert_eq!(run(), run());
        assert!(health.links_declared_dead >= 1);
        assert!(delivered >= 29, "at most the wedged worm is lost");
    }

    #[test]
    fn invalid_fault_plan_is_rejected_before_installation() {
        use crate::fault::{FaultPlan, PlanError};
        let mut noc = noc_2x2();
        assert_eq!(
            noc.set_fault_plan(FaultPlan::new(1).with_drop_rate(1.5)),
            Err(PlanError::BadRate {
                kind: "drop",
                rate: 1.5
            })
        );
        assert!(noc.fault_plan().is_none(), "a rejected plan is not kept");
    }

    #[test]
    fn router_death_is_diagnosed_escalated_and_detoured() {
        use crate::fault::FaultPlan;
        let mut noc = noc_ft(3, 3);
        let victim = RouterAddr::new(1, 1);
        noc.set_fault_plan(FaultPlan::new(6).with_router_down(victim, 0))
            .unwrap();
        let src = RouterAddr::new(0, 1);
        let dst = RouterAddr::new(2, 1);
        // The probe worm wedges on the link into the dead router; the
        // health monitor counts the timed-out handshakes, declares the
        // link, attributes the run to the router and escalates.
        noc.send(src, Packet::new(dst, vec![9; 4])).unwrap();
        noc.run_until_idle(50_000)
            .expect("the wedged probe is flushed, not stuck");
        assert_eq!(noc.dead_routers(), vec![victim]);
        assert!(noc.is_router_dead(victim));
        assert!(noc.is_endpoint_dead(victim), "the IP dies with its router");
        assert_eq!(noc.stats().health.routers_declared_dead, 1);
        assert_eq!(noc.stats().health.endpoints_declared_dead, 1);
        assert!(
            noc.stats().health.links_declared_dead > 1,
            "escalation condemns every adjacent link at once"
        );
        // Sending *to* the dead node is now a typed partition error.
        assert!(matches!(
            noc.send(src, Packet::new(victim, vec![1])),
            Err(NocError::Route(RouteError::Unreachable { .. }))
        ));
        // Traffic that used to cross the victim detours and delivers.
        let id = noc.send(src, Packet::new(dst, vec![1, 2, 3])).unwrap();
        noc.run_until_idle(50_000).unwrap();
        assert!(noc.stats().record(id).unwrap().is_delivered());
        assert!(noc.stats().health.rerouted_grants > 0);
    }

    #[test]
    fn dead_router_with_only_its_own_traffic_self_diagnoses() {
        use crate::fault::FaultPlan;
        let mut noc = noc_ft(3, 3);
        let victim = RouterAddr::new(0, 0);
        noc.set_fault_plan(FaultPlan::new(8).with_router_down(victim, 20))
            .unwrap();
        // A long packet is still mid-injection when the router dies; the
        // local ingress handshake times out, which is the only signal the
        // health machinery gets.
        noc.send(victim, Packet::new(RouterAddr::new(2, 2), vec![7; 30]))
            .unwrap();
        noc.run_until_idle(50_000)
            .expect("self-diagnosis purges the victim and the network drains");
        assert_eq!(noc.dead_routers(), vec![victim]);
        assert_eq!(noc.stats().packets_delivered, 0);
        assert!(
            noc.stats().health.source_queue_drops > 0,
            "the rest of the source queue is discarded at the purge"
        );
    }

    #[test]
    fn dead_endpoint_drops_unstarted_sends_quietly() {
        use crate::fault::FaultPlan;
        let mut noc = noc_ft(2, 2);
        let victim = RouterAddr::new(0, 0);
        noc.set_fault_plan(FaultPlan::new(9).with_endpoint_down(victim, 0))
            .unwrap();
        noc.send(victim, Packet::new(RouterAddr::new(1, 1), vec![1]))
            .unwrap();
        noc.run_until_idle(1_000).expect("nothing ever injects");
        assert_eq!(noc.stats().health.source_queue_drops, 1);
        assert_eq!(noc.stats().packets_delivered, 0);
        assert!(
            noc.dead_endpoints().is_empty(),
            "no handshake ever failed, so nothing was diagnosed"
        );
    }

    #[test]
    fn endpoint_death_blocks_ejection_but_keeps_the_router_routing() {
        use crate::fault::FaultPlan;
        let mut noc = noc_ft(2, 2);
        let victim = RouterAddr::new(1, 0);
        noc.set_fault_plan(FaultPlan::new(10).with_endpoint_down(victim, 0))
            .unwrap();
        let src = RouterAddr::new(0, 0);
        // The probe reaches the victim's router but the Local ejection
        // handshake never acks; the worm wedges, is diagnosed and flushed.
        noc.send(src, Packet::new(victim, vec![5; 3])).unwrap();
        noc.run_until_idle(50_000)
            .expect("the wedged probe is flushed, not stuck");
        assert_eq!(noc.dead_endpoints(), vec![victim]);
        assert!(
            noc.dead_routers().is_empty(),
            "only the IP core died; the router still forwards"
        );
        assert_eq!(noc.stats().health.endpoints_declared_dead, 1);
        assert_eq!(noc.stats().health.routers_declared_dead, 0);
        // Sending to the dead IP is a typed error; transit through its
        // router still works.
        assert!(matches!(
            noc.send(src, Packet::new(victim, vec![6])),
            Err(NocError::Route(RouteError::Unreachable { .. }))
        ));
        let id = noc
            .send(src, Packet::new(RouterAddr::new(1, 1), vec![7]))
            .unwrap();
        noc.run_until_idle(50_000).unwrap();
        assert!(noc.stats().record(id).unwrap().is_delivered());
    }

    #[test]
    fn link_stats_accumulate() {
        let mut noc = noc_2x2();
        let src = RouterAddr::new(0, 0);
        let dst = RouterAddr::new(1, 0);
        noc.send(src, Packet::new(dst, vec![9, 9])).unwrap();
        noc.run_until_idle(10_000).unwrap();
        // 4 wire flits crossed (0,0)->East and were delivered at (1,0) Local.
        assert_eq!(noc.stats().link_flits[&(src, Port::East)], 4);
        assert_eq!(noc.stats().link_flits[&(dst, Port::Local)], 4);
        assert_eq!(noc.stats().flits_delivered, 4);
    }

    /// A faulted, degraded, traced 3×3 workload paused mid-flight: the
    /// worst case a checkpoint has to capture.
    fn mid_flight_noc() -> Noc {
        use crate::fault::{CycleWindow, FaultPlan};
        let mut config = NocConfig::mesh(3, 3);
        config.routing = Routing::FaultTolerantXy;
        let mut noc = Noc::new(config).unwrap();
        noc.enable_packet_trace(64);
        noc.set_fault_plan(
            FaultPlan::new(77)
                .with_corrupt_rate(0.02)
                .with_drop_rate(0.01)
                .with_link_down(
                    RouterAddr::new(0, 0),
                    Port::East,
                    CycleWindow::open_ended(10),
                ),
        )
        .unwrap();
        for i in 0..8u8 {
            let src = RouterAddr::new(i % 3, i / 3);
            let dst = RouterAddr::new(2 - i % 3, 2 - i / 3);
            noc.send(src, Packet::new(dst, vec![u16::from(i), u16::from(i) * 3]))
                .unwrap();
        }
        noc.run(40);
        // Keep traffic in flight across the checkpoint boundary.
        noc.send(
            RouterAddr::new(1, 1),
            Packet::new(RouterAddr::new(0, 2), vec![200]),
        )
        .unwrap();
        noc
    }

    #[test]
    fn snapshot_round_trip_resumes_bit_identically() {
        let mut original = mid_flight_noc();
        let bytes = original.save_state();
        let mut restored = Noc::restore_state(&bytes).expect("restore");
        assert_eq!(restored.cycle(), original.cycle());
        // Drive both forward identically: more traffic, then drain.
        for noc in [&mut original, &mut restored] {
            noc.send(
                RouterAddr::new(2, 2),
                Packet::new(RouterAddr::new(0, 0), vec![7, 8, 9]),
            )
            .unwrap();
            noc.run_until_idle(100_000).unwrap();
        }
        assert_eq!(original.fingerprint(), restored.fingerprint());
    }

    #[test]
    fn snapshot_restore_is_stable_across_double_round_trip() {
        let noc = mid_flight_noc();
        let once = noc.save_state();
        let twice = Noc::restore_state(&once).unwrap().save_state();
        assert_eq!(once, twice, "save(restore(s)) must be byte-identical");
    }

    #[test]
    fn snapshot_kernel_override_preserves_observables() {
        let mut reference = mid_flight_noc();
        let bytes = reference.save_state();
        let mut parallel =
            Noc::restore_state_with_kernel(&bytes, KernelMode::Parallel { threads: 8 })
                .expect("restore under the parallel kernel");
        assert_eq!(
            parallel.config().kernel,
            KernelMode::Parallel { threads: 8 }
        );
        reference.run_until_idle(100_000).unwrap();
        parallel.run_until_idle(100_000).unwrap();
        assert_eq!(reference.fingerprint(), parallel.fingerprint());
    }

    #[test]
    fn snapshot_rejects_mesh_shape_mismatch() {
        use crate::snapshot::{fletcher64, HEADER_LEN};
        let noc = mid_flight_noc();
        let mut bytes = noc.save_state();
        // The payload opens with the topology tag, then the mesh width;
        // grow the claimed mesh and re-seal the checksum so only the
        // shape check can trip.
        assert_eq!(bytes[HEADER_LEN], 0, "payload starts with the Mesh tag");
        assert_eq!(bytes[HEADER_LEN + 1], 3, "the width follows the tag");
        bytes[HEADER_LEN + 1] = 4;
        let body = bytes.len() - 8;
        let sum = fletcher64(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        match Noc::restore_state(&bytes) {
            Err(SnapshotError::MeshMismatch {
                width: 4,
                height: 3,
                routers: 9,
            }) => {}
            other => panic!("expected MeshMismatch, got {other:?}"),
        }
    }

    #[test]
    fn v2_snapshot_without_topology_tag_restores_as_mesh() {
        use crate::snapshot::{fletcher64, HEADER_LEN};
        use crate::topology::Topology;
        let original = mid_flight_noc();
        let mut bytes = original.save_state();
        // Surgery back to the version-2 layout: drop the leading topology
        // tag (v2 payloads open directly with width,height), rewrite the
        // container version and payload length, and re-seal the checksum.
        assert_eq!(bytes[HEADER_LEN], 0, "payload starts with the Mesh tag");
        bytes.remove(HEADER_LEN);
        // v4 payloads end with the telemetry-presence flag; v2 payloads
        // end before it.
        let flag = bytes.remove(bytes.len() - 9);
        assert_eq!(flag, 0, "no telemetry sampler in the test network");
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        let len = u64::from_le_bytes(bytes[9..17].try_into().unwrap()) - 2;
        bytes[9..17].copy_from_slice(&len.to_le_bytes());
        let body = bytes.len() - 8;
        let sum = fletcher64(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        let mut restored =
            Noc::restore_state(&bytes).expect("a pre-topology snapshot decodes as a mesh");
        assert_eq!(
            restored.config().topology,
            Topology::Mesh {
                width: 3,
                height: 3
            }
        );
        assert_eq!(restored.cycle(), original.cycle());
        // And it resumes: the restored network still drains to idle.
        restored.run_until_idle(100_000).unwrap();
    }

    #[test]
    fn v1_snapshot_is_rejected_with_a_typed_error() {
        use crate::snapshot::fletcher64;
        let noc = mid_flight_noc();
        let mut bytes = noc.save_state();
        // A version below MIN_SNAPSHOT_VERSION must be a typed rejection,
        // never a garbage decode.
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        let body = bytes.len() - 8;
        let sum = fletcher64(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            Noc::restore_state(&bytes).err(),
            Some(SnapshotError::UnsupportedVersion(1))
        );
    }

    #[test]
    fn torus_and_chiplet_snapshots_round_trip() {
        for config in [
            NocConfig::torus(3, 3),
            NocConfig::chiplet(2, 2, crate::topology::D2dChannel::OffChipSerial),
        ] {
            let topology = config.topology;
            let mut noc = Noc::new(config).unwrap();
            noc.send(
                RouterAddr::new(0, 0),
                Packet::new(RouterAddr::new(2, 2), vec![1, 2, 3]),
            )
            .unwrap();
            noc.run(12);
            let bytes = noc.save_state();
            let mut restored = Noc::restore_state(&bytes).expect("restore");
            assert_eq!(restored.config().topology, topology);
            for n in [&mut noc, &mut restored] {
                n.run_until_idle(100_000).unwrap();
            }
            assert_eq!(noc.fingerprint(), restored.fingerprint(), "{topology}");
        }
    }

    #[test]
    fn snapshot_rejects_truncation_and_bit_flips_without_panicking() {
        let noc = mid_flight_noc();
        let bytes = noc.save_state();
        for cut in [0, 1, 8, 16, 17, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                Noc::restore_state(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail cleanly"
            );
        }
        let mut flipped = bytes.clone();
        flipped[HEADER_LEN_PROBE] ^= 0x40;
        assert!(Noc::restore_state(&flipped).is_err());
    }

    /// A mid-payload offset used by the bit-flip test.
    const HEADER_LEN_PROBE: usize = 64;

    /// Applies `edit` to the payload of `bytes` and re-seals the
    /// checksum, so the decoder, not the checksum, has to refuse it.
    fn resealed(mut bytes: Vec<u8>, edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
        use crate::snapshot::{fletcher64, HEADER_LEN};
        let body = bytes.len() - 8;
        edit(&mut bytes[HEADER_LEN..body]);
        let sum = fletcher64(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    #[test]
    fn corrupt_buffer_depth_is_a_typed_error_not_an_allocation() {
        // The top byte of the configured depth (after the topology tag,
        // width, height and flit width) would size every input buffer at
        // 2^56 flits.
        let bytes = resealed(noc_2x2().save_state(), |p| p[11] = 0x01);
        assert_eq!(
            Noc::restore_state(&bytes).unwrap_err(),
            SnapshotError::Malformed("configuration fails validation")
        );
    }

    #[test]
    fn restore_rejects_a_next_id_ahead_of_the_record_ring() {
        let mut noc = noc_2x2();
        noc.send(
            RouterAddr::new(0, 0),
            Packet::new(RouterAddr::new(1, 1), vec![7]),
        )
        .unwrap();
        noc.run_until_idle(10_000).unwrap();
        // `next_id` follows the 43-byte configuration, the router count
        // and the cycle.
        let bytes = resealed(noc.save_state(), |p| {
            assert_eq!(p[59..67], 1u64.to_le_bytes());
            p[59] = 2;
        });
        assert_eq!(
            Noc::restore_state(&bytes).unwrap_err(),
            SnapshotError::Malformed("record ids disagree with next id")
        );
    }

    #[test]
    fn restore_rejects_a_telemetry_baseline_above_its_counter() {
        let mut noc = noc_2x2();
        noc.enable_telemetry(crate::TelemetryConfig::default());
        noc.send(
            RouterAddr::new(0, 0),
            Packet::new(RouterAddr::new(1, 1), vec![7]),
        )
        .unwrap();
        noc.run(10);
        // With no frames, links, alerts or latency buckets yet, the
        // sampler's flit-hop baseline is the u64 145 bytes before the
        // payload's end. A baseline above the live count would
        // underflow at the next sample.
        let bytes = resealed(noc.save_state(), |p| {
            let at = p.len() - 145;
            p[at..at + 8].copy_from_slice(&1_000_000u64.to_le_bytes());
        });
        assert_eq!(
            Noc::restore_state(&bytes).unwrap_err(),
            SnapshotError::Malformed("telemetry baseline above its counter")
        );
    }

    #[test]
    fn restore_rejects_a_packet_sent_after_the_snapshot_cycle() {
        let mut noc = noc_2x2();
        noc.run(1000);
        noc.send(
            RouterAddr::new(0, 0),
            Packet::new(RouterAddr::new(1, 1), vec![7]),
        )
        .unwrap();
        // The record's `sent` is the last 8-byte 1000 in the payload.
        let bytes = resealed(noc.save_state(), |p| {
            let sent = 1000u64.to_le_bytes();
            let at = (0..p.len() - 8)
                .rev()
                .find(|&i| p[i..i + 8] == sent)
                .unwrap();
            p[at..at + 8].copy_from_slice(&5000u64.to_le_bytes());
        });
        assert_eq!(
            Noc::restore_state(&bytes).unwrap_err(),
            SnapshotError::Malformed("packet sent after snapshot cycle")
        );
    }
}

//! Network statistics: per-packet latency records, link utilization and
//! fault and health counters (the routers own their per-router counters).
//!
//! Per-packet records are kept in a **bounded window** of the most recent
//! packets (see [`NocConfig::stats_window`](crate::NocConfig::stats_window));
//! older records are folded into online aggregates — a count/sum/min/max
//! and a fixed-bucket latency histogram — before being evicted, so memory
//! stays constant on arbitrarily long runs while [`mean_latency`] stays
//! exact and [`latency_quantile`] stays exact for latencies below the
//! histogram range.
//!
//! [`mean_latency`]: NocStats::mean_latency
//! [`latency_quantile`]: NocStats::latency_quantile

use std::collections::BTreeMap;

use crate::addr::{Port, RouterAddr};
use crate::endpoint::PacketId;
use crate::ring::Ring;
use crate::router::{Router, RouterCounters};
use crate::snapshot::{check_mesh, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::trace::SpanKind;

/// Latencies up to this many cycles land in their own one-cycle-wide
/// histogram bucket (quantiles are exact for them); anything larger is
/// counted in a single overflow bucket represented by the observed
/// maximum.
pub(crate) const LATENCY_BUCKETS: usize = 16_384;

/// Streaming aggregate of end-to-end latencies of delivered packets:
/// count, sum, min, max and a fixed-bucket histogram. Constant memory,
/// O(1) updates; quantiles are exact for latencies below
/// `LATENCY_BUCKETS` cycles and clamp to the observed maximum beyond.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// One-cycle-wide buckets, allocated on first observation; a
    /// snapshot writes them densely behind a presence tag, so snapshots
    /// of runs that delivered nothing stay small.
    pub(crate) buckets: Option<Box<[u32; LATENCY_BUCKETS]>>,
    overflow: u64,
}

crate::snap_struct!(LatencyHistogram {
    count,
    sum,
    min,
    max,
    buckets,
    overflow,
});

impl LatencyHistogram {
    /// Folds one latency observation into the aggregate.
    pub(crate) fn observe(&mut self, latency: u64) {
        if self.count == 0 {
            self.min = latency;
            self.max = latency;
        } else {
            self.min = self.min.min(latency);
            self.max = self.max.max(latency);
        }
        self.count += 1;
        self.sum += latency;
        match usize::try_from(latency) {
            Ok(idx) if idx < LATENCY_BUCKETS => {
                let buckets = self
                    .buckets
                    .get_or_insert_with(|| Box::new([0; LATENCY_BUCKETS]));
                buckets[idx] = buckets[idx].saturating_add(1);
            }
            _ => self.overflow += 1,
        }
    }

    /// Number of latencies observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed latencies in cycles.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observed latency, or `None` if nothing was observed.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observed latency, or `None` if nothing was observed.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Observations beyond the histogram range (telemetry deltas).
    pub(crate) fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The raw one-cycle-wide buckets; empty until the first in-range
    /// observation (telemetry deltas).
    pub(crate) fn buckets(&self) -> &[u32] {
        self.buckets.as_deref().map_or(&[], |buckets| buckets)
    }

    /// Mean latency, or `None` if nothing was observed.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Latency at quantile `q` in `0.0..=1.0`. Exact for latencies below
    /// the histogram range; quantiles falling into the overflow region
    /// report the observed maximum.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (idx, &n) in self.buckets().iter().enumerate() {
            seen += u64::from(n);
            if seen > rank {
                return Some(idx as u64);
            }
        }
        Some(self.max)
    }

    /// Median latency — [`quantile`](Self::quantile)`(0.5)`.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// 95th-percentile latency — [`quantile`](Self::quantile)`(0.95)`.
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th-percentile latency — [`quantile`](Self::quantile)`(0.99)`.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }
}

/// Life-cycle record of one packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketRecord {
    /// Identifier returned by [`Noc::send`](crate::Noc::send).
    pub id: PacketId,
    /// Source router.
    pub src: RouterAddr,
    /// Destination router.
    pub dest: RouterAddr,
    /// Cycle at which the packet was submitted to the source interface.
    pub sent: u64,
    /// Cycle at which the header flit entered the network, if it has.
    pub injected: Option<u64>,
    /// Cycle at which the header flit reached the destination IP, if it has.
    pub header_delivered: Option<u64>,
    /// Cycle at which the last flit reached the destination IP, if it has.
    pub delivered: Option<u64>,
    /// Total wire flits (header + size + payload) — the `P` of the
    /// paper's latency formula.
    pub wire_flits: usize,
    /// Links traversed (Manhattan distance between source and destination).
    pub hops: u32,
}

crate::snap_struct!(PacketRecord {
    id,
    src,
    dest,
    sent,
    injected,
    header_delivered,
    delivered,
    wire_flits,
    hops,
});

impl PacketRecord {
    /// Whether all flits have reached the destination.
    pub fn is_delivered(&self) -> bool {
        self.delivered.is_some()
    }

    /// End-to-end latency in clock cycles, from submission to delivery of
    /// the last flit.
    ///
    /// # Panics
    ///
    /// Panics if the packet has not been delivered yet; check
    /// [`is_delivered`](Self::is_delivered) first.
    pub fn latency(&self) -> u64 {
        self.delivered.expect("packet not delivered yet") - self.sent
    }

    /// Network latency in clock cycles, from header injection to delivery
    /// of the last flit (excludes source queueing).
    ///
    /// # Panics
    ///
    /// Panics if the packet has not been delivered yet.
    pub fn network_latency(&self) -> u64 {
        self.delivered.expect("packet not delivered yet")
            - self.injected.expect("packet not injected yet")
    }

    /// Number of routers on the path, source and target included — the
    /// `n` of the paper's latency formula.
    pub fn routers_on_path(&self) -> u32 {
        self.hops + 1
    }
}

/// A directed inter-router link (or a local ingress/egress), identified by
/// the upstream router and its output port.
pub type LinkId = (RouterAddr, Port);

/// Counters of injected-fault outcomes; all zero unless a
/// [`FaultPlan`](crate::fault::FaultPlan) is installed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Flits whose value was bit-flipped while crossing a link.
    pub flits_corrupted: u64,
    /// Packets a router's control logic decided to discard.
    pub packets_dropped: u64,
    /// Flits consumed and discarded while unwinding dropped packets.
    pub flits_dropped: u64,
    /// Transfer opportunities blocked because the link was down.
    pub link_down_blocks: u64,
    /// Router-cycles in which a stalled control logic granted nothing.
    pub router_stall_cycles: u64,
}

/// Counters of the online fault-diagnosis and reconfiguration subsystem;
/// all zero while every link is healthy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthCounters {
    /// Links the health monitor declared dead.
    pub links_declared_dead: u64,
    /// Reconfiguration epochs announced (one per declared-dead link under
    /// fault-tolerant routing).
    pub epochs: u64,
    /// Packets discarded because they were wedged across a link at the
    /// moment it was declared dead.
    pub wedged_packets_dropped: u64,
    /// Flits force-flushed from buffers downstream of a dead link.
    pub wedged_flits_flushed: u64,
    /// Routing grants that diverged from the minimal XY choice because a
    /// detour table was in effect.
    pub rerouted_grants: u64,
    /// Packets discarded because the detour table had no path to their
    /// destination (the dead-link set partitions the mesh).
    pub unreachable_drops: u64,
    /// Packets discarded because their header named an address outside
    /// the mesh (only possible with a corrupted header).
    pub misaddressed_drops: u64,
    /// Routers escalated to dead: every link touching them condemned at
    /// once after one adjacent link crossed the failure threshold.
    pub routers_declared_dead: u64,
    /// IP cores (local endpoints) declared dead, either with their router
    /// or on their own when the Local ejection link crossed the threshold.
    pub endpoints_declared_dead: u64,
    /// Packets discarded from a dead IP core's source queue before any of
    /// their flits entered the network.
    pub source_queue_drops: u64,
    /// Connections flushed by the deadlock-recovery timeout: zero forward
    /// progress for [`deadlock_timeout`] consecutive cycles on a degraded
    /// fault-tolerant mesh (a transient mixed-epoch dependency cycle).
    ///
    /// [`deadlock_timeout`]: crate::NocConfig::deadlock_timeout
    pub deadlock_recoveries: u64,
}

crate::snap_struct!(FaultCounters {
    flits_corrupted,
    packets_dropped,
    flits_dropped,
    link_down_blocks,
    router_stall_cycles,
} HealthCounters {
    links_declared_dead,
    epochs,
    wedged_packets_dropped,
    wedged_flits_flushed,
    rerouted_grants,
    unreachable_drops,
    misaddressed_drops,
    routers_declared_dead,
    endpoints_declared_dead,
    source_queue_drops,
    deadlock_recoveries,
});

/// Aggregate statistics of a [`Noc`](crate::Noc) run. The default has an
/// effectively unbounded record window; [`Noc::new`](crate::Noc::new)
/// sets the configured one.
#[derive(Debug, Clone, Default)]
pub struct NocStats {
    /// Simulated clock cycles so far.
    pub cycles: u64,
    /// Packets submitted via `send`.
    pub packets_sent: u64,
    /// Packets whose last flit reached their destination IP.
    pub packets_delivered: u64,
    /// Flits that completed a hop (including local ingress/egress).
    pub flit_hops: u64,
    /// Flits delivered to destination IPs.
    pub flits_delivered: u64,
    /// Recent per-packet records, numbered by packet id: ids are
    /// assigned sequentially, so a record is found by offsetting its id
    /// against the oldest retained one — no index map needed.
    records: Ring<PacketRecord>,
    /// Streaming latency aggregate over every delivered packet whose
    /// record was still retained at delivery time.
    latency: LatencyHistogram,
    /// Flits transferred per directed link, at `router × 5 + port`
    /// (row-major router index, [`Port::index`]): the kernel counts each
    /// flit in place. `(router, Local)` is the router-to-IP egress
    /// channel; IP-to-router injections are counted in
    /// `local_ingress_flits`.
    pub(crate) link_flits: Vec<u64>,
    /// Flits injected by each IP into its router (the IP-to-router
    /// direction of the local port), by row-major router index.
    pub(crate) local_ingress_flits: Vec<u64>,
    /// Columns of the grid the two tables are laid out for.
    width: u8,
    /// Outcomes of injected faults (see [`FaultCounters`]).
    pub faults: FaultCounters,
    /// Outcomes of online fault diagnosis and reconfiguration (see
    /// [`HealthCounters`]).
    pub health: HealthCounters,
}

impl NocStats {
    /// Statistics with a `window`-record ring and zeroed link tables for
    /// a `width`×`height` grid.
    pub(crate) fn new(window: usize, (width, height): (u8, u8)) -> Self {
        let routers = usize::from(width) * usize::from(height);
        Self {
            records: Ring::new(window),
            link_flits: vec![0; routers * 5],
            local_ingress_flits: vec![0; routers],
            width,
            ..Self::default()
        }
    }

    /// The address of the router at row-major index `idx`.
    fn addr_of(&self, idx: usize) -> RouterAddr {
        let width = usize::from(self.width);
        RouterAddr::new((idx % width) as u8, (idx / width) as u8)
    }

    /// The row-major index of `at`, if it lies on the grid.
    fn index_of(&self, at: RouterAddr) -> Option<usize> {
        let idx = usize::from(at.y()) * usize::from(self.width) + usize::from(at.x());
        (at.x() < self.width && idx < self.local_ingress_flits.len()).then_some(idx)
    }

    /// The row-major router indices in address order (by column, then
    /// row), the order the snapshot writes its counts in.
    fn in_addr_order(&self) -> impl Iterator<Item = usize> {
        let width = usize::from(self.width);
        let height = self
            .local_ingress_flits
            .len()
            .checked_div(width)
            .unwrap_or(0);
        (0..width).flat_map(move |x| (0..height).map(move |y| y * width + x))
    }

    /// Flits transferred over `link` so far; 0 for a link off the grid.
    pub fn link_flits(&self, (at, port): LinkId) -> u64 {
        self.index_of(at)
            .map_or(0, |idx| self.link_flits[idx * 5 + port.index()])
    }

    /// Every link that has carried a flit, with its count, in link order.
    pub fn link_flit_counts(&self) -> impl Iterator<Item = (LinkId, u64)> + '_ {
        let links = self.in_addr_order().flat_map(move |idx| {
            let at = self.addr_of(idx);
            (Port::ALL.into_iter())
                .map(move |port| ((at, port), self.link_flits[idx * 5 + port.index()]))
        });
        links.filter(|&(_, flits)| flits > 0)
    }

    /// Every router whose IP has injected a flit, with its count, in
    /// address order.
    pub fn local_ingress_counts(&self) -> impl Iterator<Item = (RouterAddr, u64)> + '_ {
        (self.in_addr_order())
            .map(|idx| (self.addr_of(idx), self.local_ingress_flits[idx]))
            .filter(|&(_, flits)| flits > 0)
    }

    pub(crate) fn add_record(&mut self, record: PacketRecord) {
        self.records.push(record.id.0, record);
    }

    /// Folds one packet-lifecycle event at `cycle` into the packet's
    /// record: the header's injection and arrival, the last flit's
    /// arrival. A delivery also folds the packet's end-to-end
    /// latency into the streaming aggregate, if its record is still
    /// held (an evicted record's latency is unknown).
    pub(crate) fn observe(&mut self, id: PacketId, kind: SpanKind, cycle: u64) {
        let Some(record) = self.records.get_mut(id.0) else {
            return;
        };
        match kind {
            SpanKind::Inject => record.injected = Some(cycle),
            SpanKind::Sink => record.header_delivered = Some(cycle),
            SpanKind::Delivered => {
                record.delivered = Some(cycle);
                self.latency.observe(cycle - record.sent);
            }
            SpanKind::Route | SpanKind::Hop | SpanKind::Drop => {}
        }
    }

    /// Record of one recent packet by id; `None` once the record has been
    /// evicted from the bounded window (its latency, if it was delivered
    /// in time, lives on in [`latency_histogram`](Self::latency_histogram)).
    pub fn record(&self, id: PacketId) -> Option<&PacketRecord> {
        self.records.get(id.0)
    }

    /// The most recent packet records (at most the configured window), in
    /// submission order.
    pub fn records(&self) -> &[PacketRecord] {
        self.records.visible()
    }

    /// Records evicted from the bounded window so far.
    pub fn evicted_records(&self) -> u64 {
        self.records.evicted()
    }

    /// The streaming latency aggregate (count/sum/min/max + histogram)
    /// over all delivered packets, including those whose record has been
    /// evicted.
    pub fn latency_histogram(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Mean end-to-end latency over delivered packets, or `None` if no
    /// packet was delivered. Computed from the streaming sum, so it
    /// covers the whole run, not just the record window.
    pub fn mean_latency(&self) -> Option<f64> {
        self.latency.mean()
    }

    /// Latency at quantile `q` in `0.0..=1.0` over delivered packets,
    /// answered from the fixed-bucket histogram: exact below the
    /// histogram range, clamped to the observed maximum beyond it.
    pub fn latency_quantile(&self, q: f64) -> Option<u64> {
        self.latency.quantile(q)
    }

    /// Accepted traffic in flits per cycle per node over the whole run.
    pub fn accepted_flits_per_cycle_per_node(&self, nodes: usize) -> f64 {
        if self.cycles == 0 || nodes == 0 {
            return 0.0;
        }
        self.flits_delivered as f64 / self.cycles as f64 / nodes as f64
    }

    /// Utilization of the busiest directed link: flit-transfer cycles over
    /// total cycles (a link at 1.0 moves a flit every `cycles_per_flit`).
    pub fn peak_link_utilization(&self, cycles_per_flit: u32) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let max = self.link_flits.iter().copied().max().unwrap_or(0);
        max as f64 * f64::from(cycles_per_flit) / self.cycles as f64
    }

    /// Delivered bits per second on the busiest link at `clock_hz`.
    pub fn peak_link_throughput_bps(&self, flit_bits: u8, clock_hz: f64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let max = self.link_flits.iter().copied().max().unwrap_or(0);
        max as f64 * f64::from(flit_bits) * clock_hz / self.cycles as f64
    }

    /// Serializes all counters, the record ring and the latency
    /// aggregate. The link tables are written as maps, each counted link
    /// or router in key order. The slot of the per-router counters, which
    /// the routers own, is written from `routers`, positionally.
    pub(crate) fn snapshot_write(&self, w: &mut SnapshotWriter, routers: &[Router]) {
        w.put(&(self.cycles, self.packets_sent, self.packets_delivered));
        w.put(&(self.flit_hops, self.flits_delivered));
        self.records.put_held(w);
        w.put(&(self.records.first(), self.records.evicted()));
        w.put(&self.latency);
        w.put(&self.link_flit_counts().collect::<Vec<_>>());
        w.put(&self.local_ingress_counts().collect::<Vec<_>>());
        for router in routers {
            w.put(&router.counters);
        }
        w.put(&(self.faults, self.health));
    }

    /// Restores statistics written by
    /// [`snapshot_write`](Self::snapshot_write) into statistics freshly
    /// built for the configured record window and grid. Every link and
    /// router a map names must lie on the grid and hold a positive count:
    /// the tables cannot hold any other. The per-router counters slot
    /// must repeat what the already restored `routers` hold.
    pub(crate) fn snapshot_read(
        &mut self,
        r: &mut SnapshotReader<'_>,
        routers: &[Router],
    ) -> Result<(), SnapshotError> {
        (self.cycles, self.packets_sent, self.packets_delivered) = r.take()?;
        (self.flit_hops, self.flits_delivered) = r.take()?;
        let records = r.take()?;
        let (first, evicted) = r.take()?;
        let window = self.records.window();
        self.records = Ring::restore(window, first, evicted, records, "record ring over window")?;
        self.latency = r.take()?;
        for ((at, port), flits) in r.take::<BTreeMap<LinkId, u64>>()? {
            let idx = self.counted(at, flits)?;
            self.link_flits[idx * 5 + port.index()] = flits;
        }
        for (at, flits) in r.take::<BTreeMap<RouterAddr, u64>>()? {
            let idx = self.counted(at, flits)?;
            self.local_ingress_flits[idx] = flits;
        }
        for router in routers {
            if r.take::<RouterCounters>()? != router.counters {
                return Err(SnapshotError::Malformed("router counters disagree"));
            }
        }
        (self.faults, self.health) = r.take()?;
        Ok(())
    }

    /// The table index of a decoded count of `flits` at router `at`.
    fn counted(&self, at: RouterAddr, flits: u64) -> Result<usize, SnapshotError> {
        if flits == 0 {
            return Err(SnapshotError::Malformed("zero flit count"));
        }
        (self.index_of(at)).ok_or(SnapshotError::Malformed("router address outside mesh"))
    }

    /// The checks restored statistics need context for: the record ring
    /// numbers its packets sequentially up to the network's `next_id`,
    /// no packet was sent after the snapshot's `cycle`, and every
    /// recorded source lies on the mesh.
    pub(crate) fn check_restored(
        &self,
        next_id: u64,
        cycle: u64,
        mesh: (u8, u8),
    ) -> Result<(), SnapshotError> {
        if !self.records.numbered(|record| record.id.0) {
            return Err(SnapshotError::Malformed("record ids not sequential"));
        }
        if !self.records.is_empty() && next_id != self.records.end() {
            return Err(SnapshotError::Malformed("record ids disagree with next id"));
        }
        let records = self.records.held();
        if records.iter().any(|record| record.sent > cycle) {
            return Err(SnapshotError::Malformed("packet sent after snapshot cycle"));
        }
        check_mesh(mesh, records.iter().map(|record| record.src))
    }

    /// A multi-line human-readable summary of the run.
    ///
    /// ```rust
    /// # use hermes_noc::{Noc, NocConfig, Packet, RouterAddr};
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// # let mut noc = Noc::new(NocConfig::mesh(2, 2))?;
    /// # noc.send(RouterAddr::new(0, 0), Packet::new(RouterAddr::new(1, 1), vec![1]))?;
    /// # noc.run_until_idle(10_000)?;
    /// println!("{}", noc.stats().report(2));
    /// # Ok(())
    /// # }
    /// ```
    pub fn report(&self, cycles_per_flit: u32) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "cycles: {}\npackets: {} sent, {} delivered\nflits: {} hops, {} delivered\n",
            self.cycles,
            self.packets_sent,
            self.packets_delivered,
            self.flit_hops,
            self.flits_delivered,
        ));
        if let Some(mean) = self.mean_latency() {
            out.push_str(&format!(
                "latency: mean {:.1}, p50 {}, p99 {} cycles\n",
                mean,
                self.latency_quantile(0.5).unwrap_or(0),
                self.latency_quantile(0.99).unwrap_or(0),
            ));
        }
        out.push_str(&format!(
            "peak link utilization: {:.1}%\n",
            self.peak_link_utilization(cycles_per_flit) * 100.0
        ));
        if self.faults != FaultCounters::default() {
            out.push_str(&format!(
                "faults: {} flits corrupted, {} packets dropped ({} flits), \
                 {} link-down blocks, {} router stall cycles\n",
                self.faults.flits_corrupted,
                self.faults.packets_dropped,
                self.faults.flits_dropped,
                self.faults.link_down_blocks,
                self.faults.router_stall_cycles,
            ));
        }
        if self.health != HealthCounters::default() {
            out.push_str(&format!(
                "degraded: {} links declared dead, {} epochs, \
                 {} wedged packets dropped ({} flits flushed), \
                 {} rerouted grants, {} unreachable drops, {} misaddressed drops\n",
                self.health.links_declared_dead,
                self.health.epochs,
                self.health.wedged_packets_dropped,
                self.health.wedged_flits_flushed,
                self.health.rerouted_grants,
                self.health.unreachable_drops,
                self.health.misaddressed_drops,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, sent: u64, delivered: Option<u64>) -> PacketRecord {
        PacketRecord {
            id: PacketId(id),
            src: RouterAddr::new(0, 0),
            dest: RouterAddr::new(1, 1),
            sent,
            injected: Some(sent + 2),
            header_delivered: delivered.map(|d| d - 2),
            delivered,
            wire_flits: 4,
            hops: 2,
        }
    }

    /// Adds the record and, if it is delivered, folds its delivery in
    /// the way the simulator does.
    fn add(stats: &mut NocStats, r: PacketRecord) {
        let (id, delivered) = (r.id, r.delivered);
        stats.add_record(r);
        if let Some(cycle) = delivered {
            stats.observe(id, SpanKind::Delivered, cycle);
        }
    }

    #[test]
    fn mean_latency_ignores_undelivered() {
        let mut stats = NocStats::new(1024, (2, 2));
        add(&mut stats, record(0, 0, Some(40)));
        add(&mut stats, record(1, 0, Some(60)));
        add(&mut stats, record(2, 0, None));
        assert_eq!(stats.mean_latency(), Some(50.0));
    }

    #[test]
    fn quantiles() {
        let mut stats = NocStats::new(1024, (2, 2));
        for i in 0..10u64 {
            add(&mut stats, record(i, 0, Some((i + 1) * 10)));
        }
        assert_eq!(stats.latency_quantile(0.0), Some(10));
        assert_eq!(stats.latency_quantile(1.0), Some(100));
        assert_eq!(stats.latency_quantile(0.5), Some(60));
        let h = stats.latency_histogram();
        assert_eq!(h.count(), 10);
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(100));
        assert_eq!(h.sum(), 550);
    }

    #[test]
    fn empty_stats_return_none_or_zero() {
        let stats = NocStats::new(1024, (2, 2));
        assert_eq!(stats.mean_latency(), None);
        assert_eq!(stats.latency_quantile(0.5), None);
        assert_eq!(stats.accepted_flits_per_cycle_per_node(4), 0.0);
        assert_eq!(stats.peak_link_utilization(2), 0.0);
        assert_eq!(stats.latency_histogram().min(), None);
        assert_eq!(stats.latency_histogram().max(), None);
    }

    #[test]
    fn record_lookup_by_id() {
        let mut stats = NocStats::new(1024, (2, 2));
        stats.add_record(record(7, 3, Some(50)));
        assert_eq!(stats.record(PacketId(7)).unwrap().sent, 3);
        assert!(stats.record(PacketId(8)).is_none());
        assert!(stats.record(PacketId(6)).is_none());
        assert_eq!(stats.record(PacketId(7)).unwrap().latency(), 47);
        assert_eq!(stats.record(PacketId(7)).unwrap().network_latency(), 45);
        assert_eq!(stats.record(PacketId(7)).unwrap().routers_on_path(), 3);
    }

    #[test]
    fn window_bounds_retained_records_but_keeps_aggregates() {
        let window = 8;
        let mut stats = NocStats::new(window, (2, 2));
        for i in 0..1000u64 {
            add(&mut stats, record(i, 0, Some(i + 10)));
        }
        assert!(stats.records().len() <= window);
        // The window holds the most recent packets in submission order.
        let ids: Vec<u64> = stats.records().iter().map(|r| r.id.0).collect();
        assert_eq!(ids.last(), Some(&999));
        assert!(ids.windows(2).all(|w| w[1] == w[0] + 1));
        // Old ids are gone, recent ones resolve.
        assert!(stats.record(PacketId(0)).is_none());
        assert!(stats.record(PacketId(999)).is_some());
        assert!(stats.evicted_records() >= 1000 - 2 * window as u64);
        // Aggregates still cover the whole run.
        assert_eq!(stats.latency_histogram().count(), 1000);
        assert_eq!(stats.latency_quantile(0.0), Some(10));
        assert_eq!(stats.latency_quantile(1.0), Some(1009));
    }

    #[test]
    fn percentile_accessors_delegate_to_quantile() {
        let mut h = LatencyHistogram::default();
        for i in 1..=100u64 {
            h.observe(i);
        }
        assert_eq!(h.p50(), h.quantile(0.5));
        assert_eq!(h.p95(), h.quantile(0.95));
        assert_eq!(h.p99(), h.quantile(0.99));
        assert_eq!(h.p50(), Some(51));
        assert_eq!(h.p95(), Some(95));
        assert_eq!(h.p99(), Some(99));
        assert_eq!(LatencyHistogram::default().p99(), None);
    }

    #[test]
    fn quantiles_beyond_histogram_range_clamp_to_max() {
        let mut h = LatencyHistogram::default();
        h.observe(5);
        h.observe(1_000_000);
        assert_eq!(h.quantile(0.0), Some(5));
        assert_eq!(h.quantile(1.0), Some(1_000_000));
        assert_eq!(h.max(), Some(1_000_000));
        assert_eq!(h.count(), 2);
    }

    /// Pinned audit of the quantile semantics the telemetry exporters
    /// and run reports depend on: nearest-rank on `(count-1) * q`
    /// (rounded), exact inside the one-cycle bucket range, clamped to
    /// the observed maximum beyond it. These exact values are a
    /// regression contract — a change here silently re-defines every
    /// reported p50/p95/p99.
    #[test]
    fn quantile_semantics_are_pinned() {
        // Single observation: every quantile is that observation.
        let mut h = LatencyHistogram::default();
        h.observe(42);
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(h.quantile(q), Some(42));
        }

        // 1..=100, one each: nearest-rank round((count-1)*q).
        let mut h = LatencyHistogram::default();
        for i in 1..=100u64 {
            h.observe(i);
        }
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.5), Some(51), "rank round(99*0.5) = 50");
        assert_eq!(h.quantile(0.95), Some(95), "rank round(99*0.95) = 94");
        assert_eq!(h.quantile(0.99), Some(99), "rank round(99*0.99) = 98");
        assert_eq!(h.quantile(1.0), Some(100));
        // Out-of-range q clamps rather than extrapolating.
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(7.0), h.quantile(1.0));

        // Heavy ties: 5 observations of 10, 3 of 20.
        let mut h = LatencyHistogram::default();
        for _ in 0..5 {
            h.observe(10);
        }
        for _ in 0..3 {
            h.observe(20);
        }
        assert_eq!(
            h.quantile(0.5),
            Some(10),
            "rank round(7*0.5) = 4 -> tie run"
        );
        assert_eq!(h.quantile(0.95), Some(20));

        // Bucket-range edges: the last exact one-cycle bucket is
        // LATENCY_BUCKETS - 1; one past it lands in overflow and the
        // quantile clamps to the observed maximum.
        let edge = (LATENCY_BUCKETS - 1) as u64;
        let mut h = LatencyHistogram::default();
        h.observe(edge);
        assert_eq!(h.quantile(1.0), Some(edge), "edge bucket stays exact");
        assert_eq!(h.overflow(), 0);
        let mut h = LatencyHistogram::default();
        h.observe(edge + 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.quantile(0.0), Some(edge + 1), "overflow clamps to max");

        // All observations in overflow: every quantile is the maximum —
        // the documented (lossy) behavior beyond the histogram range.
        let mut h = LatencyHistogram::default();
        h.observe(20_000);
        h.observe(30_000);
        h.observe(40_000);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), Some(40_000));
        }
        assert_eq!(h.overflow(), 3);
        assert_eq!(h.min(), Some(20_000), "min still tracks exactly");
    }

    #[test]
    #[should_panic(expected = "not delivered")]
    fn latency_of_undelivered_packet_panics() {
        record(0, 0, None).latency();
    }
}

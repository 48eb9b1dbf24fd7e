//! Deterministic time-series telemetry: an interval sampler driven from
//! the kernel merge point, plus online congestion analytics over the
//! sampled frames.
//!
//! Once enabled with [`Noc::enable_telemetry`](crate::Noc::enable_telemetry)
//! the network appends one [`TelemetryFrame`] every `sample_interval`
//! cycles into a bounded ring: per-link flit deltas, per-router grant
//! deltas and buffer occupancy at the boundary, and the latency-histogram
//! delta of the interval. Frames are sampled **only at fully merged cycle
//! boundaries** — after each window, and the engine clamps its batch
//! windows so no window ever straddles a sample boundary — which is what
//! makes the stream bit-identical across
//! `Reference`, `Active` and `Parallel` at any thread count and batch
//! window, on every topology (see `DESIGN.md`, "Observability").
//!
//! On top of the frames the module keeps **online congestion analytics**:
//! a per-link EWMA of interval utilization in fixed-point per-mille
//! arithmetic (no floats anywhere near the determinism contract), top-k
//! hotspot ranking, and a sustained-congestion alert stream of typed
//! [`CongestionEvent`]s surfaced through the metrics registry.

use std::collections::{BTreeMap, VecDeque};

use crate::addr::RouterAddr;
use crate::router::Router;
use crate::snapshot::SnapshotError;
use crate::stats::{LinkId, NocStats, LATENCY_BUCKETS};
use crate::topology::Topology;

/// Fixed-point scale of the per-link EWMA state: per-mille utilization
/// carried with 8 fractional bits, so repeated small decays still make
/// progress toward zero.
const EWMA_FP_SHIFT: u32 = 8;

/// Configuration of the telemetry sampler and its congestion analytics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Cycles per sample interval; a frame is cut every time the clock
    /// crosses a multiple of this (must be at least 1).
    pub sample_interval: u64,
    /// Frames retained in the bounded ring (must be at least 1); older
    /// frames are evicted and counted.
    pub capacity: usize,
    /// EWMA smoothing exponent: each frame moves the per-link average by
    /// `(sample - ewma) / 2^ewma_shift`.
    pub ewma_shift: u32,
    /// EWMA utilization (per-mille of raw wire capacity, one flit per
    /// `cycles_per_flit`) at or above which a link counts as saturated
    /// for alerting. The wormhole per-flit handshake tops out near a
    /// third of raw wire rate, so thresholds are calibrated against that
    /// practical ceiling, not the wire rate itself.
    pub alert_threshold_permille: u32,
    /// Consecutive saturated frames before a
    /// [`CongestionKind::Raised`] alert fires.
    pub alert_sustain: u32,
    /// Links reported by [`Telemetry::hotspots`] and the exporters.
    pub hotspot_count: usize,
}

impl Default for TelemetryConfig {
    /// 64-cycle intervals, 1024 retained frames, EWMA `alpha = 1/4`,
    /// alerts at a sustained 25% wire utilization over 3 frames (about
    /// three quarters of the practical per-link ceiling — see
    /// [`alert_threshold_permille`](Self::alert_threshold_permille)),
    /// 8 hotspots.
    fn default() -> Self {
        Self {
            sample_interval: 64,
            capacity: 1024,
            ewma_shift: 2,
            alert_threshold_permille: 250,
            alert_sustain: 3,
            hotspot_count: 8,
        }
    }
}

impl TelemetryConfig {
    fn validated(mut self) -> Self {
        self.sample_interval = self.sample_interval.max(1);
        self.capacity = self.capacity.max(1);
        self.ewma_shift = self.ewma_shift.clamp(0, 16);
        self.alert_sustain = self.alert_sustain.max(1);
        self
    }
}

/// The latency observations added during one sample interval: a sparse
/// delta of the streaming histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyDelta {
    /// Packets whose latency was observed this interval.
    pub packets: u64,
    /// Sum of those latencies in cycles.
    pub sum_cycles: u64,
    /// Observations that landed in the histogram's overflow region.
    pub overflow: u64,
    /// `(latency_cycles, new_observations)` for every one-cycle bucket
    /// that grew this interval, ascending.
    pub buckets: Vec<(u32, u32)>,
}

/// One sample interval's worth of network activity.
///
/// All counter-valued fields are **deltas over the interval**; the buffer
/// occupancy is a point-in-time reading at the interval's closing cycle
/// boundary. Sparse vectors carry only non-zero entries, in ascending key
/// order, so frames of quiet intervals stay tiny.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetryFrame {
    /// Monotone frame number (not reset by ring eviction).
    pub index: u64,
    /// First cycle covered by the interval.
    pub start: u64,
    /// Closing cycle boundary (a multiple of the sample interval).
    pub end: u64,
    /// Flit hops completed this interval.
    pub flit_hops: u64,
    /// Flits delivered to destination IPs this interval.
    pub flits_delivered: u64,
    /// Packets submitted this interval.
    pub packets_sent: u64,
    /// Packets fully delivered this interval.
    pub packets_delivered: u64,
    /// Flits per directed link this interval, ascending by link.
    pub link_flits: Vec<(LinkId, u64)>,
    /// Arbitration grants per router this interval, ascending by router
    /// index.
    pub router_grants: Vec<(u32, u64)>,
    /// Flits sitting in each router's input buffers at the closing
    /// boundary, ascending by router index (empty on an idle network).
    pub buffer_occupancy: Vec<(u32, u64)>,
    /// Latency-histogram delta of the interval.
    pub latency: LatencyDelta,
}

/// Whether a congestion alert began or ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CongestionKind {
    /// The link's EWMA utilization stayed at or above the threshold for
    /// the configured number of consecutive frames.
    Raised,
    /// A previously raised alert saw the EWMA drop below the threshold.
    Cleared,
}

/// One sustained-congestion alert transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CongestionEvent {
    /// Frame index at which the transition was detected.
    pub frame: u64,
    /// Closing cycle of that frame.
    pub cycle: u64,
    /// The congested link.
    pub link: LinkId,
    /// EWMA utilization (per-mille of capacity) at the transition.
    pub ewma_permille: u32,
    /// Raised or cleared.
    pub kind: CongestionKind,
}

/// Per-link congestion analytics state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct LinkState {
    /// EWMA utilization, per-mille scaled by `2^EWMA_FP_SHIFT`.
    ewma_fp: u64,
    /// Consecutive frames at or above the alert threshold.
    hot_frames: u32,
    /// An alert is currently raised for this link.
    alerted: bool,
}

/// The telemetry sampler: the bounded frame ring, the inter-frame
/// baselines, and the congestion analytics derived online from each new
/// frame. Owned by [`Noc`](crate::Noc); all state advances only at fully
/// merged cycle boundaries, so it is bit-identical across kernels.
#[derive(Debug)]
pub struct Telemetry {
    config: TelemetryConfig,
    frames: VecDeque<TelemetryFrame>,
    /// Frames evicted from the ring so far.
    evicted: u64,
    /// Index the next frame will get (= frames produced so far).
    next_index: u64,
    // ---- baselines at the previous sample boundary ----
    base_flit_hops: u64,
    base_flits_delivered: u64,
    base_packets_sent: u64,
    base_packets_delivered: u64,
    base_link_flits: BTreeMap<LinkId, u64>,
    base_grants: Vec<u64>,
    base_latency_count: u64,
    base_latency_sum: u64,
    base_latency_overflow: u64,
    base_latency_buckets: Option<Box<[u32; LATENCY_BUCKETS]>>,
    // ---- congestion analytics ----
    links: BTreeMap<LinkId, LinkState>,
    events: VecDeque<CongestionEvent>,
    events_evicted: u64,
    alerts_raised: u64,
    alerts_cleared: u64,
}

impl Telemetry {
    /// Builds a sampler with its baselines primed from the network's
    /// current statistics and router counters, so the first frame covers
    /// only activity after the enable point.
    pub(crate) fn new(config: TelemetryConfig, stats: &NocStats, routers: &[Router]) -> Self {
        let hist = stats.latency_histogram();
        Self {
            config: config.validated(),
            frames: VecDeque::new(),
            evicted: 0,
            next_index: 0,
            base_flit_hops: stats.flit_hops,
            base_flits_delivered: stats.flits_delivered,
            base_packets_sent: stats.packets_sent,
            base_packets_delivered: stats.packets_delivered,
            base_link_flits: stats.link_flit_counts().collect(),
            base_grants: routers.iter().map(|r| r.counters.grants).collect(),
            base_latency_count: hist.count(),
            base_latency_sum: hist.sum(),
            base_latency_overflow: hist.overflow(),
            base_latency_buckets: hist.buckets.clone(),
            links: BTreeMap::new(),
            events: VecDeque::new(),
            events_evicted: 0,
            alerts_raised: 0,
            alerts_cleared: 0,
        }
    }

    /// The configured sample interval in cycles.
    pub fn sample_interval(&self) -> u64 {
        self.config.sample_interval
    }

    /// The sampler configuration.
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// The retained frames, oldest first.
    pub fn frames(&self) -> impl ExactSizeIterator<Item = &TelemetryFrame> + '_ {
        self.frames.iter()
    }

    /// Frames produced so far (including evicted ones).
    pub fn frames_total(&self) -> u64 {
        self.next_index
    }

    /// Frames evicted from the bounded ring so far.
    pub fn frames_evicted(&self) -> u64 {
        self.evicted
    }

    /// The retained congestion alert transitions, oldest first.
    pub fn events(&self) -> impl ExactSizeIterator<Item = &CongestionEvent> + '_ {
        self.events.iter()
    }

    /// Alert transitions evicted from the bounded event ring so far.
    pub fn events_evicted(&self) -> u64 {
        self.events_evicted
    }

    /// Sustained-congestion alerts raised so far.
    pub fn alerts_raised(&self) -> u64 {
        self.alerts_raised
    }

    /// Alerts cleared so far.
    pub fn alerts_cleared(&self) -> u64 {
        self.alerts_cleared
    }

    /// Links whose alert is currently raised.
    pub fn links_alerted(&self) -> u64 {
        self.links.values().filter(|s| s.alerted).count() as u64
    }

    /// Current EWMA utilization of `link` in per-mille of capacity.
    pub fn ewma_permille(&self, link: LinkId) -> u32 {
        self.links
            .get(&link)
            .map(|s| (s.ewma_fp >> EWMA_FP_SHIFT) as u32)
            .unwrap_or(0)
    }

    /// The `k` busiest links by EWMA utilization (per-mille), busiest
    /// first; ties break toward the smaller link id. Links whose EWMA has
    /// decayed to zero are omitted.
    pub fn hotspots(&self, k: usize) -> Vec<(LinkId, u32)> {
        let mut all: Vec<(LinkId, u32)> = self
            .links
            .iter()
            .map(|(link, s)| (*link, (s.ewma_fp >> EWMA_FP_SHIFT) as u32))
            .filter(|&(_, p)| p > 0)
            .collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    /// Cuts the frame closing at cycle `end` (a multiple of the sample
    /// interval): computes every delta against the previous boundary,
    /// advances the baselines, appends the frame to the ring and feeds it
    /// to the congestion analytics. The frame also reads each router's
    /// grants and buffered flits at the boundary.
    pub(crate) fn sample(
        &mut self,
        end: u64,
        stats: &NocStats,
        routers: &[Router],
        cycles_per_flit: u32,
    ) {
        let interval = self.config.sample_interval;
        let start = end.saturating_sub(interval - 1);

        let mut link_flits: Vec<(LinkId, u64)> = Vec::new();
        for (link, flits) in stats.link_flit_counts() {
            let base = self.base_link_flits.get(&link).copied().unwrap_or(0);
            if flits > base {
                link_flits.push((link, flits - base));
            }
        }
        if !link_flits.is_empty() {
            self.base_link_flits = stats.link_flit_counts().collect();
        }

        if self.base_grants.len() < routers.len() {
            self.base_grants.resize(routers.len(), 0);
        }
        let mut router_grants: Vec<(u32, u64)> = Vec::new();
        let mut occupancy: Vec<(u32, u64)> = Vec::new();
        for (idx, router) in routers.iter().enumerate() {
            let delta = router.counters.grants - self.base_grants[idx];
            if delta > 0 {
                router_grants.push((idx as u32, delta));
                self.base_grants[idx] = router.counters.grants;
            }
            let buffered = router.buffered_flits();
            if buffered > 0 {
                occupancy.push((idx as u32, buffered));
            }
        }

        let hist = stats.latency_histogram();
        let latency = if hist.count() == self.base_latency_count
            && hist.overflow() == self.base_latency_overflow
        {
            LatencyDelta::default()
        } else {
            let base = self.base_latency_buckets.as_deref();
            let mut buckets = Vec::new();
            for (idx, &n) in hist.buckets().iter().enumerate() {
                let base = base.map_or(0, |base| base[idx]);
                if n > base {
                    buckets.push((idx as u32, n - base));
                }
            }
            self.base_latency_buckets = hist.buckets.clone();
            let delta = LatencyDelta {
                packets: hist.count() - self.base_latency_count,
                sum_cycles: hist.sum() - self.base_latency_sum,
                overflow: hist.overflow() - self.base_latency_overflow,
                buckets,
            };
            self.base_latency_count = hist.count();
            self.base_latency_sum = hist.sum();
            self.base_latency_overflow = hist.overflow();
            delta
        };

        let frame = TelemetryFrame {
            index: self.next_index,
            start,
            end,
            flit_hops: stats.flit_hops - self.base_flit_hops,
            flits_delivered: stats.flits_delivered - self.base_flits_delivered,
            packets_sent: stats.packets_sent - self.base_packets_sent,
            packets_delivered: stats.packets_delivered - self.base_packets_delivered,
            link_flits,
            router_grants,
            buffer_occupancy: occupancy,
            latency: latency.clone(),
        };
        self.base_flit_hops = stats.flit_hops;
        self.base_flits_delivered = stats.flits_delivered;
        self.base_packets_sent = stats.packets_sent;
        self.base_packets_delivered = stats.packets_delivered;

        self.congest(&frame, cycles_per_flit);

        self.next_index += 1;
        if self.frames.len() == self.config.capacity {
            self.frames.pop_front();
            self.evicted += 1;
        }
        self.frames.push_back(frame);
    }

    /// Feeds one frame to the congestion analytics: every tracked or
    /// newly active link's EWMA moves toward its interval utilization (in
    /// per-mille of capacity, pure integer arithmetic), alert state
    /// machines advance, and transitions land in the bounded event ring.
    fn congest(&mut self, frame: &TelemetryFrame, cycles_per_flit: u32) {
        let interval = self.config.sample_interval;
        // Interval utilization per link: a link at capacity moves one
        // flit every `cycles_per_flit`, so full utilization is
        // `interval / cycles_per_flit` flits.
        let mut samples: BTreeMap<LinkId, u64> = BTreeMap::new();
        for &(link, flits) in &frame.link_flits {
            let permille = flits
                .saturating_mul(u64::from(cycles_per_flit))
                .saturating_mul(1000)
                / interval;
            samples.insert(link, permille.min(2000));
        }
        // Tracked links with no traffic this frame decay toward zero.
        for link in self.links.keys() {
            samples.entry(*link).or_insert(0);
        }
        let shift = self.config.ewma_shift;
        let threshold = self.config.alert_threshold_permille;
        let sustain = self.config.alert_sustain;
        let mut transitions: Vec<CongestionEvent> = Vec::new();
        let mut prune: Vec<LinkId> = Vec::new();
        for (link, sample) in samples {
            let state = self.links.entry(link).or_default();
            let sample_fp = (sample << EWMA_FP_SHIFT) as i64;
            let mut ewma = state.ewma_fp as i64;
            ewma += (sample_fp - ewma) >> shift;
            state.ewma_fp = ewma.max(0) as u64;
            let permille = (state.ewma_fp >> EWMA_FP_SHIFT) as u32;
            if permille >= threshold {
                state.hot_frames = state.hot_frames.saturating_add(1);
                if state.hot_frames == sustain && !state.alerted {
                    state.alerted = true;
                    transitions.push(CongestionEvent {
                        frame: frame.index,
                        cycle: frame.end,
                        link,
                        ewma_permille: permille,
                        kind: CongestionKind::Raised,
                    });
                }
            } else {
                state.hot_frames = 0;
                if state.alerted {
                    state.alerted = false;
                    transitions.push(CongestionEvent {
                        frame: frame.index,
                        cycle: frame.end,
                        link,
                        ewma_permille: permille,
                        kind: CongestionKind::Cleared,
                    });
                }
                if state.ewma_fp == 0 {
                    prune.push(link);
                }
            }
        }
        for link in prune {
            self.links.remove(&link);
        }
        for event in transitions {
            match event.kind {
                CongestionKind::Raised => self.alerts_raised += 1,
                CongestionKind::Cleared => self.alerts_cleared += 1,
            }
            if self.events.len() == self.config.capacity {
                self.events.pop_front();
                self.events_evicted += 1;
            }
            self.events.push_back(event);
        }
    }

    // ------------------------------------------------------------------
    // Exporters. Labels are rendered through the topology so hotspot and
    // time-series output carries the same `:wrap` / `:d2d` annotations as
    // the metrics registry.
    // ------------------------------------------------------------------

    /// The retained telemetry as one time-series JSON document:
    /// per-interval frames (timestamps in cycles), current hotspots and
    /// the congestion alert stream. Deterministically ordered;
    /// byte-identical across kernels.
    pub(crate) fn export_json(&self, topology: &Topology, cycles_per_flit: u32) -> String {
        use std::fmt::Write as _;
        let interval = self.config.sample_interval;
        let mut out = String::from("{\"time_series\":{");
        let _ = write!(
            out,
            "\"interval\":{interval},\"cycles_per_flit\":{cycles_per_flit},\
             \"frames_total\":{},\"frames_evicted\":{},",
            self.next_index, self.evicted
        );
        out.push_str("\"frames\":[\n");
        for (i, f) in self.frames.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"index\":{},\"start\":{},\"end\":{},\"flit_hops\":{},\
                 \"flits_delivered\":{},\"packets_sent\":{},\"packets_delivered\":{},",
                f.index,
                f.start,
                f.end,
                f.flit_hops,
                f.flits_delivered,
                f.packets_sent,
                f.packets_delivered
            );
            out.push_str("\"links\":[");
            for (j, &(link, flits)) in f.link_flits.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let permille = flits
                    .saturating_mul(u64::from(cycles_per_flit))
                    .saturating_mul(1000)
                    / interval;
                let _ = write!(
                    out,
                    "{{\"link\":\"{}\",\"flits\":{flits},\"utilization_permille\":{permille}}}",
                    topology.link_label(link)
                );
            }
            out.push_str("],\"routers\":[");
            // Merge the two sparse per-router vectors into one object
            // stream, ascending by router index.
            let mut g = 0usize;
            let mut b = 0usize;
            let mut first = true;
            while g < f.router_grants.len() || b < f.buffer_occupancy.len() {
                let gi = f.router_grants.get(g).map(|&(i, _)| i);
                let bi = f.buffer_occupancy.get(b).map(|&(i, _)| i);
                let idx = match (gi, bi) {
                    (Some(x), Some(y)) => x.min(y),
                    (Some(x), None) => x,
                    (None, Some(y)) => y,
                    (None, None) => unreachable!(),
                };
                let grants = if gi == Some(idx) {
                    g += 1;
                    f.router_grants[g - 1].1
                } else {
                    0
                };
                let buffered = if bi == Some(idx) {
                    b += 1;
                    f.buffer_occupancy[b - 1].1
                } else {
                    0
                };
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"router\":\"{}\",\"grants\":{grants},\"buffered\":{buffered}}}",
                    topology.addr_of(idx as usize)
                );
            }
            let _ = write!(
                out,
                "],\"latency\":{{\"packets\":{},\"sum_cycles\":{},\"overflow\":{},\"buckets\":[",
                f.latency.packets, f.latency.sum_cycles, f.latency.overflow
            );
            for (j, &(cycles, n)) in f.latency.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{cycles},{n}]");
            }
            out.push_str("]}}");
        }
        out.push_str("\n],\"hotspots\":[");
        for (i, (link, permille)) in self.hotspots(self.config.hotspot_count).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"link\":\"{}\",\"ewma_permille\":{permille}}}",
                topology.link_label(*link)
            );
        }
        out.push_str("],\"alerts\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let kind = match e.kind {
                CongestionKind::Raised => "raised",
                CongestionKind::Cleared => "cleared",
            };
            let _ = write!(
                out,
                "{{\"frame\":{},\"cycle\":{},\"link\":\"{}\",\"ewma_permille\":{},\
                 \"kind\":\"{kind}\"}}",
                e.frame,
                e.cycle,
                topology.link_label(e.link),
                e.ewma_permille
            );
        }
        let _ = writeln!(
            out,
            "],\"alerts_raised_total\":{},\"alerts_cleared_total\":{},\
             \"events_evicted\":{}}}}}",
            self.alerts_raised, self.alerts_cleared, self.events_evicted
        );
        out
    }

    /// The retained telemetry as Prometheus text exposition with
    /// **timestamps in cycles**: every sample line ends in the closing
    /// cycle of its frame, so a scrape of the whole document reconstructs
    /// the full time series. Deterministically ordered; byte-identical
    /// across kernels.
    pub(crate) fn export_prometheus(&self, topology: &Topology, cycles_per_flit: u32) -> String {
        use std::fmt::Write as _;
        let interval = self.config.sample_interval;
        let mut out = String::new();
        let scalar =
            |out: &mut String, name: &str, help: &str, pick: &dyn Fn(&TelemetryFrame) -> u64| {
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} gauge");
                for f in &self.frames {
                    let _ = writeln!(out, "{name} {} {}", pick(f), f.end);
                }
            };
        scalar(
            &mut out,
            "hermes_ts_flit_hops",
            "Flit hops completed in the sample interval",
            &|f| f.flit_hops,
        );
        scalar(
            &mut out,
            "hermes_ts_flits_delivered",
            "Flits delivered in the sample interval",
            &|f| f.flits_delivered,
        );
        scalar(
            &mut out,
            "hermes_ts_packets_sent",
            "Packets submitted in the sample interval",
            &|f| f.packets_sent,
        );
        scalar(
            &mut out,
            "hermes_ts_packets_delivered",
            "Packets delivered in the sample interval",
            &|f| f.packets_delivered,
        );
        scalar(
            &mut out,
            "hermes_ts_latency_packets",
            "Latency observations in the sample interval",
            &|f| f.latency.packets,
        );
        scalar(
            &mut out,
            "hermes_ts_latency_sum_cycles",
            "Sum of observed latencies in the sample interval",
            &|f| f.latency.sum_cycles,
        );
        let _ = writeln!(
            out,
            "# HELP hermes_ts_link_flits Flits per directed link in the sample interval"
        );
        let _ = writeln!(out, "# TYPE hermes_ts_link_flits gauge");
        for f in &self.frames {
            for &(link, flits) in &f.link_flits {
                let _ = writeln!(
                    out,
                    "hermes_ts_link_flits{{link=\"{}\"}} {flits} {}",
                    topology.link_label(link),
                    f.end
                );
            }
        }
        let _ = writeln!(
            out,
            "# HELP hermes_ts_link_utilization_permille Link busy share of the sample \
             interval, per mille of capacity"
        );
        let _ = writeln!(out, "# TYPE hermes_ts_link_utilization_permille gauge");
        for f in &self.frames {
            for &(link, flits) in &f.link_flits {
                let permille = flits
                    .saturating_mul(u64::from(cycles_per_flit))
                    .saturating_mul(1000)
                    / interval;
                let _ = writeln!(
                    out,
                    "hermes_ts_link_utilization_permille{{link=\"{}\"}} {permille} {}",
                    topology.link_label(link),
                    f.end
                );
            }
        }
        let _ = writeln!(
            out,
            "# HELP hermes_ts_router_grants Arbitration grants per router in the sample interval"
        );
        let _ = writeln!(out, "# TYPE hermes_ts_router_grants gauge");
        for f in &self.frames {
            for &(idx, grants) in &f.router_grants {
                let _ = writeln!(
                    out,
                    "hermes_ts_router_grants{{router=\"{}\"}} {grants} {}",
                    topology.addr_of(idx as usize),
                    f.end
                );
            }
        }
        let _ = writeln!(
            out,
            "# HELP hermes_ts_router_buffered_flits Flits buffered at the router at the \
             closing cycle boundary"
        );
        let _ = writeln!(out, "# TYPE hermes_ts_router_buffered_flits gauge");
        for f in &self.frames {
            for &(idx, buffered) in &f.buffer_occupancy {
                let _ = writeln!(
                    out,
                    "hermes_ts_router_buffered_flits{{router=\"{}\"}} {buffered} {}",
                    topology.addr_of(idx as usize),
                    f.end
                );
            }
        }
        if let Some(last) = self.frames.back() {
            let _ = writeln!(
                out,
                "# HELP hermes_congestion_ewma_permille Current EWMA utilization of the \
                 busiest links, per mille of capacity"
            );
            let _ = writeln!(out, "# TYPE hermes_congestion_ewma_permille gauge");
            for (link, permille) in self.hotspots(self.config.hotspot_count) {
                let _ = writeln!(
                    out,
                    "hermes_congestion_ewma_permille{{link=\"{}\"}} {permille} {}",
                    topology.link_label(link),
                    last.end
                );
            }
        }
        out
    }

    /// Every router address the sampler holds: the links of its
    /// frames, baselines, analytics and events.
    pub(crate) fn addrs(&self) -> impl Iterator<Item = RouterAddr> + '_ {
        let frames = self.frames.iter().flat_map(|f| &f.link_flits);
        (frames.map(|(link, _)| link.0))
            .chain(self.base_link_flits.keys().map(|link| link.0))
            .chain(self.links.keys().map(|link| link.0))
            .chain(self.events.iter().map(|e| e.link.0))
    }

    /// The checks a decoded sampler must pass for a network with the
    /// restored `stats` and `routers`: a validated configuration, rings
    /// within capacity, router indices and grant baselines that fit the
    /// mesh, and no baseline above the counter the next sample subtracts
    /// it from.
    pub(crate) fn check_restored(
        &self,
        stats: &NocStats,
        routers: &[Router],
    ) -> Result<(), SnapshotError> {
        let router_count = routers.len();
        let config = &self.config;
        // Enabling telemetry validates its configuration, so a snapshot
        // only ever holds one that validation leaves unchanged.
        if config.validated() != *config {
            return Err(SnapshotError::Malformed("telemetry configuration"));
        }
        if self.frames.len() > config.capacity {
            return Err(SnapshotError::Malformed("telemetry ring over capacity"));
        }
        if self.events.len() > config.capacity {
            return Err(SnapshotError::Malformed("telemetry events over capacity"));
        }
        let mut indices = self
            .frames
            .iter()
            .flat_map(|f| f.router_grants.iter().chain(&f.buffer_occupancy));
        if indices.any(|&(idx, _)| idx as usize >= router_count) {
            return Err(SnapshotError::Malformed("telemetry router index"));
        }
        if self.base_grants.len() != router_count {
            return Err(SnapshotError::Malformed("telemetry baseline grants"));
        }
        let hist = stats.latency_histogram();
        let bucket = |idx: usize| hist.buckets().get(idx).copied().unwrap_or(0);
        let base_buckets = self.base_latency_buckets.as_deref().map_or(&[][..], |b| b);
        if self.base_flit_hops > stats.flit_hops
            || self.base_flits_delivered > stats.flits_delivered
            || self.base_packets_sent > stats.packets_sent
            || self.base_packets_delivered > stats.packets_delivered
            || (self.base_grants.iter().zip(routers)).any(|(&base, r)| base > r.counters.grants)
            || self.base_latency_count > hist.count()
            || self.base_latency_sum > hist.sum()
            || self.base_latency_overflow > hist.overflow()
            || (base_buckets.iter().enumerate()).any(|(idx, &base)| base > bucket(idx))
        {
            return Err(SnapshotError::Malformed(
                "telemetry baseline above its counter",
            ));
        }
        Ok(())
    }
}

// The whole sampler — frames, baselines, analytics — is part of the
// deterministic simulation state, so checkpoints taken mid-run restore
// the exact telemetry stream.
crate::snap_struct!(TelemetryConfig {
    sample_interval,
    capacity,
    ewma_shift,
    alert_threshold_permille,
    alert_sustain,
    hotspot_count,
} LatencyDelta {
    packets,
    sum_cycles,
    overflow,
    buckets,
} TelemetryFrame {
    index,
    start,
    end,
    flit_hops,
    flits_delivered,
    packets_sent,
    packets_delivered,
    link_flits,
    router_grants,
    buffer_occupancy,
    latency,
} CongestionEvent {
    frame,
    cycle,
    link,
    ewma_permille,
    kind,
} LinkState {
    ewma_fp,
    hot_frames,
    alerted,
} Telemetry {
    config,
    next_index,
    evicted,
    frames,
    base_flit_hops,
    base_flits_delivered,
    base_packets_sent,
    base_packets_delivered,
    base_link_flits,
    base_grants,
    base_latency_count,
    base_latency_sum,
    base_latency_overflow,
    base_latency_buckets,
    links,
    events,
    events_evicted,
    alerts_raised,
    alerts_cleared,
});

crate::snap_enum!(CongestionKind, "congestion kind tag" {
    Cleared = 0,
    Raised = 1,
});

//! The integrated MultiNoC system: Hermes NoC + IP cores + serial link,
//! co-simulated cycle by cycle.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use hermes_noc::{
    latency, snapshot, FaultPlan, KernelMode, Noc, NocConfig, NocStats, Port, RouterAddr,
    SnapshotError, SnapshotReader, SnapshotWriter,
};
use r8::core::Cpu;

use crate::addrmap::AddressMap;
use crate::directory::ServiceDirectory;
use crate::error::SystemError;
use crate::memory::{MemoryCore, MemoryIp};
use crate::net::NetPort;
use crate::node::{NodeId, NodeKind, NodeTable};
use crate::processor::{BlockReason, ProcessorIp, ProcessorStatus};
use crate::reliable::RetryCounters;
use crate::serial::{SerialConfig, SerialLink};
use crate::serial_ip::SerialIp;
use crate::span::SpanLog;
use crate::trace::{ServiceCounters, TraceLog};

/// Cycles without a single flit hop (with flits in flight) before the
/// watchdog declares a dead link. Comfortably above the worst-case
/// wormhole service time on the paper's mesh.
const WATCHDOG_WINDOW: u64 = 4096;

/// Progress monitor armed alongside fault injection. Healthy systems
/// either move flits or go quiet with nothing owed; the watchdog
/// recognises the two ways a faulty system can hang instead — every
/// active processor parked in `wait` with the network drained, or
/// traffic wedged in the mesh making no forward progress.
#[derive(Debug)]
struct Watchdog {
    /// Cycles of zero flit movement tolerated while flits are in flight.
    window: u64,
    /// `flit_hops` at the last observed movement.
    last_hops: u64,
    /// Cycle of the last observed movement.
    last_change: u64,
    /// Reconfiguration epoch at the last check; a bump is progress (the
    /// diagnosis just flushed a wedge and rerouted, not a hang).
    last_epoch: u64,
}

/// Opt-in automatic checkpointing: the full system snapshot is written
/// to one file every `every` cycles and when a fault-class event is
/// detected (a watchdog verdict, a node death). Each write goes to a
/// temporary file that is atomically renamed over the target, so a
/// crash mid-write never corrupts the last good checkpoint. Runtime
/// configuration — deliberately not part of the snapshot itself.
#[derive(Debug)]
struct AutoCheckpoint {
    /// The checkpoint file, overwritten in place on every write.
    path: PathBuf,
    /// Cycles between periodic checkpoints.
    every: u64,
    /// Cycle of the last checkpoint written.
    last: u64,
    /// Checkpoints written since the policy was enabled.
    written: u64,
}

/// How a [`jump`](System::jump) ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Jump {
    /// The clock did not move.
    Refused,
    /// The clock parked just before a cycle that must be visited.
    Parked,
    /// A packet landed inside the jump, and its cycle was visited.
    Landed,
}

/// One IP core instance. `Vacant` marks a node removed by dynamic
/// reconfiguration: its id is never reused and stray packets addressed
/// to it are dropped, as a de-configured FPGA region would.
#[derive(Debug)]
enum Ip {
    Processor(Box<ProcessorIp>),
    Memory(MemoryIp),
    Serial(SerialIp),
    Vacant,
}

impl Ip {
    /// The IP's wake cycle under network epoch `epoch` (see
    /// [`ProcessorIp::wake`]); a vacant slot only drains deliveries.
    fn wake(&self, now: u64, epoch: u64, link: &SerialLink) -> Option<u64> {
        match self {
            Ip::Processor(p) => p.wake(now, epoch),
            Ip::Serial(s) => s.wake(now, epoch, link),
            Ip::Memory(m) => m.wake(now, epoch),
            Ip::Vacant => None,
        }
    }
}

hermes_noc::snap_struct!(Watchdog {
    window,
    last_hops,
    last_change,
    last_epoch,
} FailoverRecord {
    cycle,
    logical,
    from,
    to
});

/// One recorded service failover: the cycle the survivor took over and
/// who handed off to whom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverRecord {
    /// Cycle at which the survivor was promoted.
    pub cycle: u64,
    /// The logical node clients keep addressing.
    pub logical: NodeId,
    /// The member that died.
    pub from: NodeId,
    /// The member now serving.
    pub to: NodeId,
}

/// The whole MultiNoC system. Build one with [`System::paper_config`]
/// (the exact 2×2 system of the paper) or [`System::builder`] (arbitrary
/// meshes and IP mixes, "using the natural scalability of NoCs").
///
/// See the [crate-level example](crate) for the typical host-driven flow.
#[derive(Debug)]
pub struct System {
    noc: Noc,
    ips: Vec<Ip>,
    table: NodeTable,
    link: SerialLink,
    clock_hz: f64,
    counters: ServiceCounters,
    trace: Option<TraceLog>,
    /// Causal service-span log (request → packets → retransmissions →
    /// redirects → delivery); opt-in, like the trace log.
    spans: Option<SpanLog>,
    /// Routers whose IP was removed; stray deliveries there are dropped.
    vacated_routers: Vec<RouterAddr>,
    /// Armed by [`set_fault_plan`](Self::set_fault_plan) or
    /// [`enable_watchdog`](Self::enable_watchdog); off by default.
    watchdog: Option<Watchdog>,
    /// Which node currently serves each logical node (replica groups).
    directory: ServiceDirectory,
    /// Nodes whose router or IP core the diagnosis declared dead, in
    /// detection order.
    dead_nodes: Vec<NodeId>,
    /// Dead routers already reacted to (death handling runs once each).
    processed_dead: BTreeSet<RouterAddr>,
    /// Every completed failover, in promotion order.
    failover_log: Vec<FailoverRecord>,
    /// Armed by [`enable_auto_checkpoint`](Self::enable_auto_checkpoint);
    /// off by default and never serialized.
    auto_checkpoint: Option<AutoCheckpoint>,
    /// [`send_count`](Self::send_count) when the last stepped cycle
    /// ended; never serialized.
    sends_seen: u64,
}

impl System {
    /// The paper's configuration (Fig. 1): a 2×2 Hermes NoC with the
    /// serial IP at router 00, processors at 01 and 10, and the remote
    /// memory at 11.
    ///
    /// # Errors
    ///
    /// Never fails in practice; shares the builder's validation.
    pub fn paper_config() -> Result<Self, SystemError> {
        Self::builder()
            .noc(NocConfig::multinoc())
            .serial_at(RouterAddr::new(0, 0))
            .processor_at(RouterAddr::new(0, 1))
            .processor_at(RouterAddr::new(1, 0))
            .memory_at(RouterAddr::new(1, 1))
            .build()
    }

    /// Starts building a custom system.
    pub fn builder() -> SystemBuilder {
        SystemBuilder::default()
    }

    /// The node directory.
    pub fn table(&self) -> &NodeTable {
        &self.table
    }

    /// The network, for statistics and configuration.
    pub fn noc(&self) -> &Noc {
        &self.noc
    }

    /// Accumulated network statistics.
    pub fn noc_stats(&self) -> &NocStats {
        self.noc.stats()
    }

    /// The serial link, for inspection.
    pub fn link(&self) -> &SerialLink {
        &self.link
    }

    /// The serial link, as the host computer sees it.
    pub fn link_mut(&mut self) -> &mut SerialLink {
        &mut self.link
    }

    /// Simulated clock frequency (for converting cycles to wall time;
    /// the prototype ran at 25 MHz).
    pub fn clock_hz(&self) -> f64 {
        self.clock_hz
    }

    /// Clock cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.noc.cycle()
    }

    fn processor(&self, node: NodeId) -> Result<&ProcessorIp, SystemError> {
        match self.ips.get(node.index()) {
            Some(Ip::Processor(p)) => Ok(p),
            _ => Err(SystemError::BadNode {
                node,
                expected: "a processor",
            }),
        }
    }

    fn processor_mut(&mut self, node: NodeId) -> Result<&mut ProcessorIp, SystemError> {
        match self.ips.get_mut(node.index()) {
            Some(Ip::Processor(p)) => Ok(p),
            _ => Err(SystemError::BadNode {
                node,
                expected: "a processor",
            }),
        }
    }

    /// The R8 core of processor `node`, for inspection.
    ///
    /// # Errors
    ///
    /// [`SystemError::BadNode`] if `node` is not a processor.
    pub fn cpu(&self, node: NodeId) -> Result<&Cpu, SystemError> {
        Ok(self.processor(node)?.cpu())
    }

    /// Status of processor `node`.
    ///
    /// # Errors
    ///
    /// [`SystemError::BadNode`] if `node` is not a processor.
    pub fn processor_status(&self, node: NodeId) -> Result<ProcessorStatus, SystemError> {
        Ok(self.processor(node)?.status())
    }

    /// Where processor `node`'s cycles have gone.
    ///
    /// # Errors
    ///
    /// [`SystemError::BadNode`] if `node` is not a processor.
    pub fn processor_utilization(
        &self,
        node: NodeId,
    ) -> Result<crate::processor::UtilizationCounters, SystemError> {
        Ok(self.processor(node)?.utilization())
    }

    /// Why processor `node` is blocked, if it is.
    ///
    /// # Errors
    ///
    /// [`SystemError::BadNode`] if `node` is not a processor.
    pub fn block_reason(
        &self,
        node: NodeId,
    ) -> Result<Option<crate::processor::BlockReason>, SystemError> {
        Ok(self.processor(node)?.block_reason())
    }

    /// All processor nodes, in node order.
    pub fn processors(&self) -> Vec<NodeId> {
        self.table.nodes_of_kind(NodeKind::Processor).collect()
    }

    /// The address map of processor `node` (to compute window bases for
    /// programs that access remote memories).
    ///
    /// # Errors
    ///
    /// [`SystemError::BadNode`] if `node` is not a processor.
    pub fn address_map(&self, node: NodeId) -> Result<&AddressMap, SystemError> {
        Ok(self.processor(node)?.map())
    }

    /// Direct access to the memory contents of `node` — a processor's
    /// local memory or a memory IP. Intended for tests and experiment
    /// harnesses; the real system goes through the serial protocol.
    ///
    /// # Errors
    ///
    /// [`SystemError::BadNode`] if `node` owns no memory.
    pub fn memory(&self, node: NodeId) -> Result<&MemoryCore, SystemError> {
        match self.ips.get(node.index()) {
            Some(Ip::Processor(p)) => Ok(p.local()),
            Some(Ip::Memory(m)) => Ok(m.core()),
            _ => Err(SystemError::BadNode {
                node,
                expected: "a node owning memory",
            }),
        }
    }

    /// Mutable access to the memory contents of `node`.
    ///
    /// # Errors
    ///
    /// [`SystemError::BadNode`] if `node` owns no memory.
    pub fn memory_mut(&mut self, node: NodeId) -> Result<&mut MemoryCore, SystemError> {
        match self.ips.get_mut(node.index()) {
            Some(Ip::Processor(p)) => Ok(p.local_mut()),
            Some(Ip::Memory(m)) => Ok(m.core_mut()),
            _ => Err(SystemError::BadNode {
                node,
                expected: "a node owning memory",
            }),
        }
    }

    /// Directly activates processor `node`, bypassing the serial
    /// protocol (experiment harnesses; the host normally activates over
    /// the link).
    ///
    /// # Errors
    ///
    /// [`SystemError::BadNode`] if `node` is not a processor.
    pub fn activate_directly(&mut self, node: NodeId) -> Result<(), SystemError> {
        let addr = self.table.router_of(node).ok_or(SystemError::BadNode {
            node,
            expected: "a node of this system",
        })?;
        if self.dead_nodes.contains(&node) {
            return Err(SystemError::NodeDown { node, router: addr });
        }
        self.processor_mut(node)?; // kind check
        let msg = crate::service::Message::new(addr, crate::service::Service::ActivateProcessor);
        let flit_bits = self.noc.config().flit_bits;
        self.noc.send(addr, msg.to_packet(addr, flit_bits))?;
        Ok(())
    }

    /// Per-node, per-service message counters (always on).
    pub fn service_counters(&self) -> &ServiceCounters {
        &self.counters
    }

    /// Injects faults into the network according to `plan` and arms the
    /// [watchdog](Self::enable_watchdog): a faulty network can hang in
    /// ways a healthy one cannot, and hangs should become typed errors,
    /// not exhausted budgets.
    ///
    /// # Errors
    ///
    /// [`SystemError::FaultPlan`] if the plan fails validation (e.g. a
    /// fault site outside the mesh).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), SystemError> {
        self.noc.set_fault_plan(plan)?;
        self.enable_watchdog();
        Ok(())
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.noc.fault_plan()
    }

    /// Arms the progress watchdog. The run methods then return
    /// [`SystemError::Deadlock`] when every active processor is parked
    /// in `wait` with the network drained and nothing owed, and
    /// [`SystemError::DeadLink`] when flits in flight make no forward
    /// progress for a whole window — instead of burning their budget.
    pub fn enable_watchdog(&mut self) {
        let (hops, cycle) = (self.noc.stats().flit_hops, self.noc.cycle());
        let epoch = self.noc.current_epoch();
        self.watchdog.get_or_insert(Watchdog {
            window: WATCHDOG_WINDOW,
            last_hops: hops,
            last_change: cycle,
            last_epoch: epoch,
        });
    }

    /// Whether every IP's reliability layer is quiet: no unacknowledged
    /// messages, queued retransmissions or outstanding requests. Dead
    /// nodes are exempt — whatever they owed died with them.
    pub fn net_quiet(&self) -> bool {
        self.ips.iter().enumerate().all(|(i, ip)| {
            if self.dead_nodes.contains(&NodeId(i as u8)) {
                return true;
            }
            match ip {
                Ip::Processor(p) => p.net_quiet(),
                Ip::Serial(s) => s.net_quiet(),
                Ip::Memory(m) => m.net_quiet(),
                Ip::Vacant => true,
            }
        })
    }

    /// Aggregate reliability-layer work across every IP (the memory IPs'
    /// replication streams included).
    pub fn retry_counters(&self) -> RetryCounters {
        let mut total = RetryCounters::default();
        for ip in &self.ips {
            let c = match ip {
                Ip::Processor(p) => p.retry_counters(),
                Ip::Serial(s) => s.retry_counters(),
                Ip::Memory(m) => m.replication_counters(),
                Ip::Vacant => continue,
            };
            total.sent += c.sent;
            total.retransmissions += c.retransmissions;
            total.acked += c.acked;
            total.reroute_resets += c.reroute_resets;
        }
        total
    }

    /// Whether the network's online diagnosis has declared any link dead
    /// and the system is running in degraded mode.
    pub fn degraded(&self) -> bool {
        self.noc.is_degraded()
    }

    /// The links the online diagnosis has declared dead, in address
    /// order (empty on a healthy mesh).
    pub fn dead_links(&self) -> Vec<(RouterAddr, Port)> {
        self.noc.dead_links()
    }

    /// Human-readable summary of degraded-mode state: dead links,
    /// reconfiguration epochs and reroute work. Empty when healthy.
    pub fn degradation_report(&self) -> String {
        if !self.noc.is_degraded() {
            return String::new();
        }
        let h = self.noc.stats().health;
        let links: Vec<String> = self
            .noc
            .dead_links()
            .iter()
            .map(|(addr, port)| format!("{addr}:{port:?}"))
            .collect();
        let mut report = format!(
            "degraded: dead links [{}], {} epochs, {} rerouted grants, \
             {} wedged packets flushed",
            links.join(", "),
            h.epochs,
            h.rerouted_grants,
            h.wedged_packets_dropped
        );
        let dead_routers = self.noc.dead_routers();
        if !dead_routers.is_empty() {
            let routers: Vec<String> = dead_routers.iter().map(ToString::to_string).collect();
            report.push_str(&format!(", dead routers [{}]", routers.join(", ")));
        }
        if !self.dead_nodes.is_empty() {
            let nodes: Vec<String> = self.dead_nodes.iter().map(ToString::to_string).collect();
            report.push_str(&format!(", dead nodes [{}]", nodes.join(", ")));
        }
        for f in &self.failover_log {
            report.push_str(&format!(
                ", {} failed over {} -> {} at cycle {}",
                f.logical, f.from, f.to, f.cycle
            ));
        }
        report
    }

    /// Nodes whose router or IP core the online diagnosis has declared
    /// dead, in detection order.
    pub fn dead_nodes(&self) -> &[NodeId] {
        &self.dead_nodes
    }

    /// The service directory: which node currently serves each logical
    /// node.
    pub fn directory(&self) -> &ServiceDirectory {
        &self.directory
    }

    /// Every completed service failover, in promotion order.
    pub fn failover_report(&self) -> &[FailoverRecord] {
        &self.failover_log
    }

    /// Fresh writes the serving primaries have forwarded to their
    /// backups, summed over every memory IP.
    pub fn replication_writes(&self) -> u64 {
        self.ips
            .iter()
            .map(|ip| match ip {
                Ip::Memory(m) => m.replication_writes(),
                _ => 0,
            })
            .sum()
    }

    /// Duplicate sequenced messages suppressed by receivers, summed over
    /// every IP.
    pub fn duplicates_dropped(&self) -> u64 {
        self.ips
            .iter()
            .map(|ip| match ip {
                Ip::Processor(p) => p.duplicates_dropped(),
                Ip::Memory(m) => m.duplicates_dropped(),
                _ => 0,
            })
            .sum()
    }

    /// Starts recording service messages into a bounded event log.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(TraceLog::new(capacity));
    }

    /// The trace log, if tracing is enabled.
    pub fn trace(&self) -> Option<&TraceLog> {
        self.trace.as_ref()
    }

    /// Stops tracing and returns the log.
    pub fn take_trace(&mut self) -> Option<TraceLog> {
        self.trace.take()
    }

    /// Starts causal service-span recording into a bounded ring of
    /// `capacity` spans: every sequenced request is tracked from first
    /// transmission through retransmissions and failover redirects to
    /// its completing response, and rendered as one connected flow in
    /// [`perfetto_json`](Self::perfetto_json). Bit-identical across
    /// kernels, thread counts and batch windows.
    pub fn enable_service_spans(&mut self, capacity: usize) {
        self.spans = Some(SpanLog::new(capacity));
    }

    /// The service-span log, if span recording is enabled.
    pub fn service_spans(&self) -> Option<&SpanLog> {
        self.spans.as_ref()
    }

    /// Stops span recording and returns the log.
    pub fn take_service_spans(&mut self) -> Option<SpanLog> {
        self.spans.take()
    }

    /// Enables interval telemetry in the underlying NoC (see
    /// [`Noc::enable_telemetry`]).
    pub fn enable_telemetry(&mut self, config: hermes_noc::TelemetryConfig) {
        self.noc.enable_telemetry(config);
    }

    /// The NoC telemetry sampler, if telemetry is enabled.
    pub fn telemetry(&self) -> Option<&hermes_noc::Telemetry> {
        self.noc.telemetry()
    }

    /// The NoC time-series JSON export, if telemetry is enabled (see
    /// [`Noc::telemetry_json`]).
    pub fn telemetry_json(&self) -> Option<String> {
        self.noc.telemetry_json()
    }

    /// The NoC time-series Prometheus export, if telemetry is enabled
    /// (see [`Noc::telemetry_prometheus`]).
    pub fn telemetry_prometheus(&self) -> Option<String> {
        self.noc.telemetry_prometheus()
    }

    /// Starts packet-lifecycle tracing in the underlying NoC, retaining
    /// the `window` most recent packet traces (see
    /// [`Noc::enable_packet_trace`]).
    pub fn enable_packet_trace(&mut self, window: usize) {
        self.noc.enable_packet_trace(window);
    }

    /// The NoC packet tracer, if packet tracing is enabled.
    pub fn packet_trace(&self) -> Option<&hermes_noc::PacketTracer> {
        self.noc.packet_trace()
    }

    /// Enables the NoC kernel phase profiler (see
    /// [`Noc::enable_phase_profiler`]).
    pub fn enable_phase_profiler(&mut self) {
        self.noc.enable_phase_profiler();
    }

    /// A snapshot of the kernel phase profiler, if it was enabled.
    pub fn phase_profile(&self) -> Option<hermes_noc::PhaseProfile> {
        self.noc.phase_profile()
    }

    /// A point-in-time metrics snapshot of the whole system: every
    /// network metric of [`Noc::metrics`] plus the service-level view —
    /// per-node per-service message counters, reliability-layer work
    /// (retransmissions, acks, reroute resets), duplicate and corrupt
    /// drops, and the trace-log pressure counters. Deterministically
    /// ordered and bit-identical across simulation kernels.
    pub fn metrics_snapshot(&self) -> hermes_noc::Registry {
        let mut reg = self.noc.metrics();
        for node in self.counters.nodes() {
            let node_label = node.to_string();
            for code in crate::trace::ALL_CODES {
                let code_label = format!("{code:?}");
                let labels = [
                    ("node", node_label.as_str()),
                    ("service", code_label.as_str()),
                ];
                let sent = self.counters.sent(node, code);
                if sent > 0 {
                    reg.counter(
                        "multinoc_service_sent_total",
                        "Service messages sent, per node and service code",
                        &labels,
                        sent,
                    );
                }
                let received = self.counters.received(node, code);
                if received > 0 {
                    reg.counter(
                        "multinoc_service_received_total",
                        "Service messages received, per node and service code",
                        &labels,
                        received,
                    );
                }
            }
        }
        reg.counter(
            "multinoc_corrupt_dropped_total",
            "Undecodable service packets dropped at the IPs",
            &[],
            self.counters.corrupt_dropped(),
        );
        reg.counter(
            "multinoc_duplicates_dropped_total",
            "Duplicate sequenced messages suppressed by receivers",
            &[],
            self.duplicates_dropped(),
        );
        reg.counter(
            "multinoc_node_deaths_total",
            "Nodes declared dead by the online diagnosis",
            &[],
            self.dead_nodes.len() as u64,
        );
        reg.counter(
            "multinoc_failovers_total",
            "Replicated services promoted to their surviving member",
            &[],
            self.failover_log.len() as u64,
        );
        reg.counter(
            "multinoc_replication_writes_total",
            "Fresh writes forwarded by serving primaries to their backups",
            &[],
            self.replication_writes(),
        );
        let retries = self.retry_counters();
        reg.counter(
            "multinoc_reliable_sent_total",
            "Acknowledged-class messages first sent by the reliability layer",
            &[],
            retries.sent,
        );
        reg.counter(
            "multinoc_retransmissions_total",
            "Messages retransmitted after an ack timeout",
            &[],
            retries.retransmissions,
        );
        reg.counter(
            "multinoc_acked_total",
            "Messages confirmed by an acknowledgement",
            &[],
            retries.acked,
        );
        reg.counter(
            "multinoc_reroute_resets_total",
            "Retry clocks reset by a reconfiguration epoch",
            &[],
            retries.reroute_resets,
        );
        if let Some(log) = &self.trace {
            reg.counter(
                "multinoc_trace_events_dropped_total",
                "Service trace events no longer visible in the bounded log",
                &[],
                log.dropped(),
            );
            reg.counter(
                "multinoc_trace_events_evicted_total",
                "Service trace events physically evicted from the log ring",
                &[],
                log.evicted_events(),
            );
        }
        if let Some(spans) = &self.spans {
            reg.counter(
                "multinoc_spans_total",
                "Causal service spans opened",
                &[],
                spans.spans_total(),
            );
            reg.counter(
                "multinoc_spans_completed_total",
                "Service spans that reached their completing response",
                &[],
                spans.completed(),
            );
            reg.counter(
                "multinoc_spans_evicted_total",
                "Service spans evicted from the bounded ring",
                &[],
                spans.evicted(),
            );
            reg.counter(
                "multinoc_span_retransmissions_total",
                "Packets sent beyond each span's first transmission",
                &[],
                spans.retransmissions(),
            );
            reg.counter(
                "multinoc_span_redirects_total",
                "Failover redirects applied to open spans",
                &[],
                spans.redirects(),
            );
        }
        reg
    }

    /// The system's observable history as one Chrome trace-event /
    /// Perfetto JSON document: the NoC packet-lifecycle spans (if packet
    /// tracing is enabled) on process 0, and the service-level message
    /// log (if [`enable_trace`](Self::enable_trace) is on) as instant
    /// events on process 1, one thread per node. Loadable directly in
    /// `ui.perfetto.dev` or `chrome://tracing`.
    pub fn perfetto_json(&self) -> String {
        use crate::trace::Direction;
        use hermes_noc::trace::json_escape;
        let mut events = self
            .noc
            .packet_trace()
            .map(hermes_noc::PacketTracer::perfetto_events)
            .unwrap_or_default();
        if let Some(log) = &self.trace {
            events.push(
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
                 \"args\":{\"name\":\"multinoc services\"}}"
                    .to_string(),
            );
            let mut named: Vec<NodeId> = Vec::new();
            for e in log.events() {
                if !named.contains(&e.node) {
                    named.push(e.node);
                    events.push(format!(
                        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                         \"args\":{{\"name\":\"{}\"}}}}",
                        e.node.0, e.node
                    ));
                }
                let direction = match e.direction {
                    Direction::Sent => "sent",
                    Direction::Received => "received",
                };
                events.push(format!(
                    "{{\"name\":\"{:?}\",\"cat\":\"service\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{},\"pid\":1,\"tid\":{},\"args\":{{\"direction\":\"{direction}\",\
                     \"peer\":\"{}\",\"summary\":\"{}\"}}}}",
                    e.code,
                    e.cycle,
                    e.node.0,
                    e.peer,
                    json_escape(&e.summary)
                ));
            }
        }
        // Failovers as short spans on the services process, one per
        // promotion, on the logical node's track.
        for f in &self.failover_log {
            events.push(format!(
                "{{\"name\":\"failover {} -> {}\",\"cat\":\"failover\",\"ph\":\"X\",\
                 \"ts\":{},\"dur\":1,\"pid\":1,\"tid\":{},\"args\":{{\"logical\":\"{}\",\
                 \"from\":\"{}\",\"to\":\"{}\"}}}}",
                f.from, f.to, f.cycle, f.logical.0, f.logical, f.from, f.to
            ));
        }
        // Causal service spans on process 2, one thread per issuing
        // node, each request one "X" slice. Flow events (`s`/`t`/`f`)
        // share the span id and step through every transmission on the
        // packet-trace process, so a request renders as one connected
        // track: span → packet(s) → retransmissions → completion.
        if let Some(spans) = &self.spans {
            events.push(
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\
                 \"args\":{\"name\":\"multinoc spans\"}}"
                    .to_string(),
            );
            let mut named: Vec<NodeId> = Vec::new();
            for s in spans.spans() {
                if !named.contains(&s.node) {
                    named.push(s.node);
                    events.push(format!(
                        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":{},\
                         \"args\":{{\"name\":\"{}\"}}}}",
                        s.node.0, s.node
                    ));
                }
                let last = s
                    .completed
                    .or_else(|| s.transmissions.last().map(|t| t.cycle))
                    .unwrap_or(s.started);
                let dur = (last - s.started).max(1);
                events.push(format!(
                    "{{\"name\":\"{:?} -> {} seq {}\",\"cat\":\"span\",\"ph\":\"X\",\
                     \"ts\":{},\"dur\":{dur},\"pid\":2,\"tid\":{},\"args\":{{\"span\":{},\
                     \"transmissions\":{},\"redirects\":{},\"completed\":{}}}}}",
                    s.code,
                    s.dest,
                    s.seq,
                    s.started,
                    s.node.0,
                    s.id,
                    s.transmissions.len(),
                    s.redirects.len(),
                    s.completed.is_some()
                ));
                events.push(format!(
                    "{{\"name\":\"span\",\"cat\":\"span\",\"ph\":\"s\",\"id\":{},\
                     \"ts\":{},\"pid\":2,\"tid\":{}}}",
                    s.id, s.started, s.node.0
                ));
                for t in &s.transmissions {
                    let Some(packet) = t.packet else { continue };
                    events.push(format!(
                        "{{\"name\":\"span\",\"cat\":\"span\",\"ph\":\"t\",\"id\":{},\
                         \"ts\":{},\"pid\":0,\"tid\":{packet}}}",
                        s.id, t.cycle
                    ));
                }
                if let Some(done) = s.completed {
                    events.push(format!(
                        "{{\"name\":\"span\",\"cat\":\"span\",\"ph\":\"f\",\"bp\":\"e\",\
                         \"id\":{},\"ts\":{done},\"pid\":2,\"tid\":{}}}",
                        s.id, s.node.0
                    ));
                }
            }
        }
        hermes_noc::trace::perfetto_wrap(&events)
    }

    /// Advances the whole system by one clock cycle.
    ///
    /// # Errors
    ///
    /// [`SystemError::Protocol`] if an IP received malformed traffic.
    pub fn step(&mut self) -> Result<(), SystemError> {
        self.step_through(self.cycle() + 1)
    }

    /// Advances the whole system by one clock cycle: the network advance,
    /// then the [visits](Self::visit) of the cycle it advanced to. An
    /// idle network advances its clock without being stepped. With `last`
    /// (the final cycle of the calling run) equal to the cycle being
    /// stepped this is plain lockstep, as [`step`](Self::step) uses it.
    fn step_through(&mut self, last: u64) -> Result<(), SystemError> {
        // A packet or host bytes queued from outside the loop since its
        // last cycle — by `done`, a host call or a test — went out at the
        // clock and can reach a router Q cycles later: no core may stay
        // further ahead than that.
        if self.send_count() != self.sends_seen {
            let reach = self.cycle() + latency::min_delivery_latency(self.noc.config()) - 1;
            for ip in &mut self.ips {
                if let Ip::Processor(p) = ip {
                    p.rewind(reach);
                }
            }
        }
        self.noc.run(1);
        self.visit(last)
    }

    /// The visits of the cycle the network just advanced to, visiting only
    /// the IPs that can act in it: those with a delivery waiting at their
    /// router or a [wake](ProcessorIp::wake) cycle that has come; every
    /// other processor is credited the cycle. The link is stepped first,
    /// and a byte it delivers to a live serial IP goes straight into the
    /// IP's frame buffer: only the byte that completes a command wakes it.
    ///
    /// Then, with no fault plan, no epoch and nothing undelivered, every
    /// running core [runs ahead](Self::run_ahead) up to `last` or its next
    /// possible delivery, and a periodic auto-checkpoint that is due is
    /// written. On an error exit every core is
    /// [rewound](Self::rewind_run_ahead) to where lockstep stepping
    /// leaves it.
    fn visit(&mut self, last: u64) -> Result<(), SystemError> {
        let now = self.noc.cycle();
        if let Err(e) = self.react_to_deaths(now) {
            self.rewind_run_ahead(now, 0);
            return Err(e);
        }
        self.link.step(now);
        self.buffer_link_bytes();
        let epoch = self.noc.current_epoch();
        for idx in 0..self.ips.len() {
            let node = NodeId(idx as u8);
            let Some(addr) = self.table.router_of(node) else {
                continue; // vacated slot
            };
            // A dead node's IP no longer executes; whatever the network
            // still delivers to its router is discarded, as a powered-off
            // core would.
            if self.dead_nodes.contains(&node) {
                while self.noc.try_recv(addr).is_some() {}
                continue;
            }
            let wake = self.ips[idx].wake(now, epoch, &self.link);
            if wake.is_none_or(|w| w > now) && self.noc.pending_recv(addr) == 0 {
                if let Ip::Processor(p) = &mut self.ips[idx] {
                    p.credit_skipped(1, now);
                }
                continue;
            }
            let observer = crate::net::Observer {
                node,
                now,
                counters: &mut self.counters,
                log: self.trace.as_mut(),
                spans: self.spans.as_mut(),
            };
            let mut net = NetPort::observed(&mut self.noc, addr, observer);
            let stepped = match &mut self.ips[idx] {
                Ip::Processor(p) => p.step(now, &mut net),
                Ip::Serial(s) => s.step(now, &mut self.link, &mut net),
                Ip::Memory(m) => m.step(now, &mut net),
                Ip::Vacant => {
                    // Drop anything that still arrives here.
                    while net.recv()?.is_some() {}
                    Ok(())
                }
            };
            if let Err(e) = stepped {
                self.rewind_run_ahead(now, idx + 1);
                return Err(self.promote_node_down(e));
            }
        }
        // Drain stray deliveries at routers whose IP was removed.
        for i in 0..self.vacated_routers.len() {
            let addr = self.vacated_routers[i];
            while self.noc.try_recv(addr).is_some() {}
        }
        if last > now && self.unperturbed() && self.noc.delivered_empty() {
            self.run_ahead(now, last);
        }
        self.sends_seen = self.send_count();
        // The run-ahead never passes the checkpoint cycle, so a
        // checkpoint written here holds exactly the lockstep state.
        self.auto_checkpoint_due()?;
        Ok(())
    }

    /// No fault plan and no reconfiguration epoch: the network reaches the
    /// IPs only through deliveries, which its
    /// [delivery bound](Noc::delivery_bound) covers.
    fn unperturbed(&self) -> bool {
        self.noc.fault_plan().is_none() && self.noc.current_epoch() == 0
    }

    /// Packets sent into the network so far plus bytes in flight towards
    /// the serial IP. Between two cycles neither can shrink, so a change
    /// means something outside the loop sent.
    fn send_count(&self) -> u64 {
        self.noc.stats().packets_sent + self.link.bytes_to_device().len() as u64
    }

    /// Runs every running core ahead of the clock after the visits of a
    /// cycle `now` with no fault plan, no epoch and nothing undelivered,
    /// through every local-only instruction starting at or before
    /// `min(last, the next auto-checkpoint cycle, E + Q − 1, B − 1)`.
    ///
    /// E is the earliest cycle anything can send: the soonest of every
    /// live IP's [send wake](ProcessorIp::send_wake) — the serial IP's is
    /// the baud tick of the byte that completes or breaks the next host
    /// command, so cores run ahead across a whole command — the
    /// network's [next delivery bound](Noc::next_delivery_bound) (a
    /// delivery can make its receiver send in that same cycle) and, found
    /// by running each core ahead, each core's first access past local
    /// memory. Q is
    /// [`min_delivery_latency`](hermes_noc::latency::min_delivery_latency):
    /// a packet sent at E reaches no router before E + Q. B is the core's
    /// own router's [delivery bound](Noc::delivery_bound): nothing already
    /// on its way there lands before it. So no delivery can reach a core
    /// inside its stretch.
    ///
    /// The pass runs in rounds that reach `now + Q`, `now + 2Q`,
    /// `now + 4Q` and so on, each taking every core to the round's reach
    /// or its limit, whichever is lower. It ends with the first round
    /// that reaches the horizon or leaves no core held at its reach: a
    /// core that stops at its send, a `HALT`, a fault or B − 1 stays
    /// there until its lockstep visit. So before a core's send lowers E,
    /// no core runs more than about twice as far past the clock as the
    /// horizon it is held to.
    ///
    /// Cores the final round ran before a later core lowered E are
    /// rewound to the final horizon; earlier rounds stopped below it.
    /// Cores ahead from an earlier pass already are within it: every
    /// send since was at or after that pass's E, so reaches no router
    /// before that pass's horizon, and what was on its way to a core's
    /// router then lands at or after that pass's B. Deliveries are the
    /// only way a core's first send can move. Sends from outside the loop
    /// are clamped at the top of [`step_through`](Self::step_through).
    fn run_ahead(&mut self, now: u64, last: u64) {
        let lookahead = latency::min_delivery_latency(self.noc.config());
        let mut cap = last;
        if let Some(due) = self.next_auto_checkpoint() {
            cap = cap.min(due.max(now));
        }
        let landing = self.noc.next_delivery_bound();
        let mut send = self.earliest_send(now).into_iter().chain(landing).min();
        let horizon =
            |send: Option<u64>| send.map_or(cap, |e| cap.min(e.saturating_add(lookahead - 1)));
        let mut span = lookahead;
        loop {
            let reach = cap.min(now.saturating_add(span));
            // The slots below `overshot` ran with a horizon above the
            // final one.
            let mut overshot = 0;
            let mut held = false;
            for (idx, ip) in self.ips.iter_mut().enumerate() {
                if let Ip::Processor(p) = ip {
                    if !self.dead_nodes.contains(&NodeId(idx as u8)) {
                        // With nothing in flight anywhere, no router has a bound.
                        let own = (landing.and_then(|_| self.noc.delivery_bound(p.router())))
                            .map_or(u64::MAX, |b| b - 1);
                        let limit = reach.min(horizon(send)).min(own);
                        let first = p.run_ahead(limit);
                        if first.is_some_and(|first| send.is_none_or(|e| first < e)) {
                            send = first;
                            overshot = idx;
                        }
                        held |= limit < own && p.held_at(limit);
                    }
                }
            }
            let horizon = horizon(send);
            if horizon <= reach || !held {
                for ip in &mut self.ips[..overshot] {
                    if let Ip::Processor(p) = ip {
                        p.rewind(horizon);
                    }
                }
                return;
            }
            span = span.saturating_mul(2);
        }
    }

    /// The earliest cycle at which anything but a running core's next
    /// instruction can send: every live processor's
    /// [send wake](ProcessorIp::send_wake) and every other live IP's
    /// wake. The serial IP's covers the link: it sends only at the byte
    /// that completes a host command.
    fn earliest_send(&self, now: u64) -> Option<u64> {
        let epoch = self.noc.current_epoch();
        let wakes = self.live_ips().filter_map(|ip| match ip {
            Ip::Processor(p) => p.send_wake(now, epoch),
            ip => ip.wake(now, epoch, &self.link),
        });
        wakes.min()
    }

    /// The IPs of every node the diagnosis has not declared dead.
    fn live_ips(&self) -> impl Iterator<Item = &Ip> {
        (self.ips.iter().enumerate())
            .filter(|&(idx, _)| !self.dead_nodes.contains(&NodeId(idx as u8)))
            .map(|(_, ip)| ip)
    }

    /// Undoes every run-ahead instruction lockstep stepping had not
    /// reached when the run stopped in cycle `now`, after visiting the
    /// IP slots below `visited`: instructions that start after `now`,
    /// and those starting at `now` on cores the cycle never visited.
    /// Every core is then at its lockstep state.
    fn rewind_run_ahead(&mut self, now: u64, visited: usize) {
        for (idx, ip) in self.ips.iter_mut().enumerate() {
            if let Ip::Processor(p) = ip {
                p.settle(if idx < visited {
                    now
                } else {
                    now.saturating_sub(1)
                });
            }
        }
    }

    /// Upgrades a transport-level partition error to the node-level
    /// diagnosis when the unreachable destination is in fact a node the
    /// health machinery has declared dead: the caller learns the core is
    /// gone, not merely that paths to it are cut.
    fn promote_node_down(&self, e: SystemError) -> SystemError {
        if let SystemError::Unreachable { dest, .. } = e {
            if let Some(node) = self.table.node_of(dest) {
                if self.dead_nodes.contains(&node) {
                    return SystemError::NodeDown { node, router: dest };
                }
            }
        }
        e
    }

    /// Reacts — once per dead router — to node deaths declared by the
    /// network's online diagnosis this cycle: records the dead node,
    /// fails replicated services over to their surviving member, rewires
    /// every client's in-flight traffic at the survivor, and releases
    /// acks a primary was withholding on a dead backup. Deterministic:
    /// dead routers are visited in address order and every decision is a
    /// pure function of the (kernel-invariant) diagnosis state.
    fn react_to_deaths(&mut self, now: u64) -> Result<(), SystemError> {
        // Cheap early-out for the healthy path.
        if self.noc.fault_plan().is_none() {
            return Ok(());
        }
        let mut newly_dead: Vec<RouterAddr> = self
            .noc
            .dead_endpoints()
            .into_iter()
            .filter(|r| !self.processed_dead.contains(r))
            .collect();
        newly_dead.sort_unstable();
        let any_deaths = !newly_dead.is_empty();
        for router in newly_dead {
            self.processed_dead.insert(router);
            let Some(node) = self.table.node_of(router) else {
                continue; // a router without an IP died; routing handles it
            };
            self.dead_nodes.push(node);
            self.handle_node_death(node, router, now)?;
        }
        // A node death is exactly the moment a recovery point matters:
        // snapshot the just-failed-over state.
        if any_deaths {
            self.auto_checkpoint_now()?;
        }
        Ok(())
    }

    /// Fails over or degrades the replica group `node` belonged to, if
    /// any.
    fn handle_node_death(
        &mut self,
        node: NodeId,
        router: RouterAddr,
        now: u64,
    ) -> Result<(), SystemError> {
        let Some(group) = self.directory.group_of(node).copied() else {
            return Ok(()); // unreplicated node: requests surface NodeDown
        };
        if group.serving != node {
            // The standby member died: the serving primary degrades to an
            // unreplicated memory and releases the acks it was
            // withholding on replication to the dead backup.
            let serving = group.serving;
            if let Some(serving_router) = self.table.router_of(serving) {
                let observer = crate::net::Observer {
                    node: serving,
                    now,
                    counters: &mut self.counters,
                    log: self.trace.as_mut(),
                    spans: self.spans.as_mut(),
                };
                let mut net = NetPort::observed(&mut self.noc, serving_router, observer);
                if let Some(Ip::Memory(m)) = self.ips.get_mut(serving.index()) {
                    m.drop_replica(router, &mut net)?;
                }
            }
            return Ok(());
        }
        // The serving member died. Promote the survivor if it is alive.
        let survivor = if group.primary == node {
            group.backup
        } else {
            group.primary
        };
        if self.dead_nodes.contains(&survivor) {
            return Ok(()); // both members gone: requests surface NodeDown
        }
        let Some(survivor_router) = self.table.router_of(survivor) else {
            return Ok(());
        };
        self.directory.fail_over(node, now);
        self.failover_log.push(FailoverRecord {
            cycle: now,
            logical: group.primary,
            from: node,
            to: survivor,
        });
        // The survivor stops replicating to the dead member and tells
        // every client to discard read values still parked from it.
        let clients: Vec<RouterAddr> = self
            .ips
            .iter()
            .enumerate()
            .filter(|(i, ip)| {
                matches!(ip, Ip::Processor(_) | Ip::Serial(_))
                    && !self.dead_nodes.contains(&NodeId(*i as u8))
            })
            .filter_map(|(i, _)| self.table.router_of(NodeId(i as u8)))
            .collect();
        let observer = crate::net::Observer {
            node: survivor,
            now,
            counters: &mut self.counters,
            log: self.trace.as_mut(),
            spans: self.spans.as_mut(),
        };
        let mut net = NetPort::observed(&mut self.noc, survivor_router, observer);
        if let Some(Ip::Memory(m)) = self.ips.get_mut(survivor.index()) {
            m.promote(router, &clients, &mut net)?;
        }
        // Re-resolve the service at every client: updated directory plus
        // a rewire of everything already in flight towards the dead
        // member, so unacknowledged writes and the pending read retry
        // against the survivor (and are deduplicated there).
        for ip in &mut self.ips {
            match ip {
                Ip::Processor(p) => {
                    p.set_directory(self.directory.clone());
                    p.redirect(router, survivor_router, now);
                }
                Ip::Serial(s) => {
                    s.set_directory(self.directory.clone());
                    s.redirect(router, survivor_router, now);
                }
                _ => {}
            }
        }
        // Open spans addressed to the dead router follow their traffic
        // to the survivor, recording the failover on the causal track.
        if let Some(spans) = self.spans.as_mut() {
            spans.redirect(router, survivor_router, now);
        }
        Ok(())
    }

    /// Advances the clock through cycles in which no IP can act, visiting
    /// none of them: up to just before the soonest live IP's
    /// [wake](ProcessorIp::wake) or the link's
    /// [next stop towards the host](SerialLink::next_host_stop) (a byte
    /// that ends a device frame, which `done` may read, or the last byte
    /// in flight), never past `last` or into the next periodic
    /// auto-checkpoint's cycle. A busy network stepped alone needs no
    /// wake: its landing ends the jump. Otherwise the jump is refused
    /// when nothing has a wake, in which case only the run loop's stop
    /// condition can end the wait.
    ///
    /// The serial IP's wake is the byte that completes or breaks the next
    /// host command, or the last byte in flight, so the jump steps over
    /// the bytes the host streams before it, and over the bytes towards
    /// the host inside a device frame. It delivers the bytes it crossed in
    /// both directions at their own baud ticks, those towards a live
    /// serial IP into its frame buffer, before it parks or visits a
    /// landing, so that the link and the IP are in their lockstep state
    /// wherever a visit, `done` or a checkpoint sees them (see
    /// [`deliver_link_bytes`](Self::deliver_link_bytes)). A burst the
    /// host queued since the loop's last cycle is not crossed: that is a
    /// send from outside, and the visit that follows clocks its first
    /// byte. A burst towards the host that is not yet clocked stops the
    /// jump at once, for the same reason.
    ///
    /// An idle network ticks its clock through the gap, even under a
    /// fault plan without router stalls and with the watchdog armed. A
    /// busy network is stepped alone, and only with no fault plan, no
    /// epoch and no watchdog: in [`Noc::run`] windows up to its
    /// [next delivery bound](Noc::next_delivery_bound), recomputed as the
    /// jump goes, then one cycle at a time until a packet lands. The IPs
    /// are visited in that landing cycle, which ends the jump. Either way
    /// nothing may be undelivered and nothing sent from outside the loop
    /// since its last cycle. Every live processor is credited the cycles
    /// it was skipped over, exactly as per-cycle stepping would have: a
    /// skipped IP cannot change state. The observable simulation is
    /// unchanged — only the wall-clock cost of crossing the cycles.
    fn jump(&mut self, last: u64) -> Result<Jump, SystemError> {
        // A busy network is stepped alone only while nothing but its
        // deliveries reaches the IPs and no watchdog reads its progress.
        let alone = self.unperturbed() && self.watchdog.is_none();
        let busy = !self.noc.ticks_idly();
        if !self.noc.delivered_empty() || self.send_count() != self.sends_seen || (busy && !alone) {
            return Ok(Jump::Refused);
        }
        let now = self.noc.cycle();
        let epoch = self.noc.current_epoch();
        let wakes = self
            .live_ips()
            .filter_map(|ip| ip.wake(now, epoch, &self.link));
        let stops = wakes.chain(self.link.next_host_stop(now));
        let Some(wake) = stops.chain(busy.then_some(last)).min() else {
            return Ok(Jump::Refused);
        };
        // The step that observes cycle `stop` begins by advancing the
        // network, so the clock parks at `stop - 1`.
        let mut stop = wake.min(last);
        if let Some(due) = self.next_auto_checkpoint() {
            stop = stop.min(due);
        }
        let park = stop.saturating_sub(1);
        if park <= now {
            return Ok(Jump::Refused);
        }
        while self.noc.cycle() < park {
            let from = self.noc.cycle();
            if self.noc.ticks_idly() {
                self.noc.run(park - from);
                self.credit_skipped(park - from);
                break;
            }
            let quiet_until = (self.noc.next_delivery_bound()).map_or(park, |b| park.min(b - 1));
            if quiet_until > from {
                self.noc.run(quiet_until - from);
                self.credit_skipped(quiet_until - from);
                continue;
            }
            self.noc.step();
            if !self.noc.delivered_empty() {
                self.deliver_link_bytes(self.noc.cycle() - 1);
                self.visit(last)?;
                return Ok(Jump::Landed);
            }
            self.credit_skipped(1);
        }
        self.deliver_link_bytes(park);
        Ok(Jump::Parked)
    }

    /// Delivers the link's bytes in both directions whose baud ticks a
    /// jump crossed, through cycle `through`, each at its own tick, and
    /// [buffers](Self::buffer_link_bytes) those towards the serial IP.
    /// The link and the IP are then in their lockstep state, and the host
    /// finds every crossed byte in its queue. A jump crosses no byte that
    /// completes a host command for a live serial IP, ends a device frame
    /// or is the last in flight towards the host: those are stops.
    fn deliver_link_bytes(&mut self, through: u64) {
        if self.link.deliver_through(through) > 0 {
            self.buffer_link_bytes();
            self.sends_seen = self.send_count();
        }
    }

    /// Hands the bytes the link delivered to a live serial IP's frame
    /// buffer ([`SerialIp::buffer_received`]); bytes towards a dead one
    /// stay unread in the link.
    fn buffer_link_bytes(&mut self) {
        let dead = &self.dead_nodes;
        let mut ips = self.ips.iter_mut().enumerate();
        let serial = ips.find_map(|(idx, ip)| match ip {
            Ip::Serial(s) if !dead.contains(&NodeId(idx as u8)) => Some(s),
            _ => None,
        });
        if let Some(serial) = serial {
            serial.buffer_received(&mut self.link);
        }
    }

    /// Books `cycles` skipped cycles, the last of them the clock, to every
    /// live processor (see [`ProcessorIp::credit_skipped`]).
    fn credit_skipped(&mut self, cycles: u64) {
        let through = self.noc.cycle();
        for (idx, ip) in self.ips.iter_mut().enumerate() {
            if let Ip::Processor(p) = ip {
                if !self.dead_nodes.contains(&NodeId(idx as u8)) {
                    p.credit_skipped(cycles, through);
                }
            }
        }
    }

    /// Drives the clock until `done` holds and returns the cycles run:
    /// the one loop behind [`run`](Self::run), the other `run_until_*`
    /// methods and every blocking [`Host`](crate::host::Host) call. It
    /// jumps the cycles in which no IP can act — idle gaps, and a busy
    /// network stepped alone between deliveries — and lets running cores
    /// run ahead of the clock through local-only work, each up to the
    /// system's next possible send (plus the network's minimum delivery
    /// latency) or its own router's next possible delivery, not a fixed
    /// number of cycles.
    ///
    /// `done` is asked now, at every cycle whose IPs are visited, at the
    /// end of each jump and at each landing inside one — once per device
    /// frame towards the host, not at every cycle in which a flit moves
    /// or a host byte reaches the serial IP or the host. In between,
    /// nothing an IP acts on or the host sees changes: no host command
    /// completes, no device frame reaches the host and the link does not
    /// go idle, and neither do the network's idleness and delivery
    /// queues change: without a fault plan a packet leaves the network
    /// only by landing. Other state moves inside a jump, so a `done` that
    /// reads it sees it at those cycles only: flit hops and link loads,
    /// the host bytes that only grow the serial IP's frame buffer, and
    /// the bytes towards the host that end no device frame (a `done` that
    /// reads single host bytes finds them queued at the frame's end).
    /// So `done` must read the simulated state, not the clock, which
    /// `budget` bounds; it may also drive the system itself — send a
    /// packet, queue host bytes, run a nested loop — and the loop goes on
    /// from there, first pulling every core back within reach of what
    /// `done` sent. It may see running cores ahead of the clock in their
    /// registers and local memory, never in their status, the network,
    /// the link or anything the host sees. Every exit rewinds them to
    /// where per-cycle [`step`](Self::step)s leave them.
    ///
    /// # Errors
    ///
    /// [`SystemError::BudgetExhausted`], naming `waiting_for`, after
    /// `budget` cycles; the first error of `done` or of a step.
    pub fn run_until(
        &mut self,
        budget: u64,
        waiting_for: &'static str,
        mut done: impl FnMut(&mut System) -> Result<bool, SystemError>,
    ) -> Result<u64, SystemError> {
        let start = self.cycle();
        let last = start.saturating_add(budget);
        let mut drive = || -> Result<bool, SystemError> {
            while !done(self)? {
                if self.cycle() >= last {
                    return Ok(false);
                }
                match self.jump(last)? {
                    Jump::Refused => {}
                    // The cycle after a parked jump is due.
                    Jump::Parked if !done(self)? => {}
                    Jump::Parked => break,
                    Jump::Landed => continue,
                }
                self.step_through(last)?;
            }
            Ok(true)
        };
        let finished = drive();
        self.rewind_run_ahead(self.cycle(), self.ips.len());
        if !finished? {
            return Err(SystemError::BudgetExhausted {
                budget,
                waiting_for,
            });
        }
        Ok(self.cycle() - start)
    }

    /// Runs for exactly `cycles` clock cycles.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SystemError`] from [`step`](Self::step).
    pub fn run(&mut self, cycles: u64) -> Result<(), SystemError> {
        // Nothing but the budget ends the run.
        match self.run_until(cycles, "the cycle count", |_| Ok(false)) {
            Err(SystemError::BudgetExhausted { .. }) => Ok(()),
            other => other.map(drop),
        }
    }

    fn faulted_processor(&self) -> Option<(NodeId, &str)> {
        self.ips.iter().enumerate().find_map(|(i, ip)| match ip {
            Ip::Processor(p) => p.fault().map(|f| (NodeId(i as u8), f)),
            _ => None,
        })
    }

    /// Whether every activated processor has executed `HALT`.
    pub fn all_halted(&self) -> bool {
        self.ips.iter().all(|ip| match ip {
            Ip::Processor(p) => !p.is_active() || p.status() == ProcessorStatus::Halted,
            _ => true,
        })
    }

    /// Whether every activated processor has halted and the network,
    /// link and reliability layer have drained: nothing the programs
    /// wrote is still on its way.
    pub fn halted_and_drained(&self) -> bool {
        self.all_halted() && self.is_idle()
    }

    /// Whether nothing can make progress any more: network and link
    /// drained, no retransmission owed, and every processor inactive,
    /// halted or blocked.
    pub fn is_idle(&self) -> bool {
        self.noc.is_idle()
            && self.link.is_idle()
            && self.net_quiet()
            && self.ips.iter().all(|ip| match ip {
                Ip::Processor(p) => p.status() != ProcessorStatus::Running,
                _ => true,
            })
    }

    /// The watchdog's verdict on the current cycle, if it is armed.
    /// Distinguishes the two ways a faulty system hangs: everyone parked
    /// in `wait` with the network drained (deadlock — the missing
    /// notifies can never arrive) and flits in flight that stopped
    /// moving (a wedged wormhole on a dead link).
    fn watchdog_check(&mut self) -> Result<(), SystemError> {
        if self.watchdog.is_none() {
            return Ok(());
        }
        let now = self.noc.cycle();
        let hops = self.noc.stats().flit_hops;
        let epoch = self.noc.current_epoch();
        let settled = self.noc.reconfiguration_settled();
        let idle = self.noc.is_idle();
        let (window, last_change) = match &mut self.watchdog {
            None => return Ok(()),
            Some(w) => {
                // An idle network is not a stalled one: the dead-link
                // window measures contiguous cycles of flits in flight
                // making no progress. Without this reset, a long quiet
                // stretch (e.g. a command trickling in over a slow
                // serial link) counts toward the window, and the first
                // packet injected afterwards draws an instant DeadLink
                // verdict before it has moved a single hop.
                if hops != w.last_hops || epoch != w.last_epoch || idle {
                    w.last_hops = hops;
                    w.last_epoch = epoch;
                    w.last_change = now;
                    if !idle {
                        return Ok(());
                    }
                }
                (w.window, w.last_change)
            }
        };
        // While a reconfiguration epoch propagates across the mesh a
        // quiet network is expected, not evidence of a hang: routers are
        // adopting new tables and the reliability layer is about to
        // retransmit what the flush discarded.
        if !settled {
            return Ok(());
        }
        if !idle {
            let stalled_for = now - last_change;
            if stalled_for >= window {
                return Err(SystemError::DeadLink { stalled_for });
            }
            return Ok(());
        }
        // Network drained. If nothing is owed and every active,
        // non-halted processor sits in `wait`, nobody can notify anyone:
        // that is a deadlock, and waiting longer will not change it.
        if !self.link.is_idle() || !self.net_quiet() {
            return Ok(());
        }
        let mut waiting = Vec::new();
        let mut any_active = false;
        for (i, ip) in self.ips.iter().enumerate() {
            let Ip::Processor(p) = ip else { continue };
            if !p.is_active()
                || matches!(
                    p.status(),
                    ProcessorStatus::Halted | ProcessorStatus::Faulted
                )
            {
                continue;
            }
            any_active = true;
            match p.block_reason() {
                Some(BlockReason::WaitFor(target)) => waiting.push((NodeId(i as u8), target)),
                // Running, or blocked on something the host or a reply
                // can still unblock: not a deadlock.
                _ => return Ok(()),
            }
        }
        if any_active && !waiting.is_empty() {
            return Err(SystemError::Deadlock { waiting });
        }
        Ok(())
    }

    /// Runs until every activated processor halts and the network, link
    /// and reliability layer drain.
    ///
    /// # Errors
    ///
    /// [`SystemError::BudgetExhausted`] after `budget` cycles,
    /// [`SystemError::Cpu`] if a processor faulted, a watchdog verdict
    /// ([`SystemError::Deadlock`] / [`SystemError::DeadLink`]) if one is
    /// armed, or a protocol error.
    pub fn run_until_halted(&mut self, budget: u64) -> Result<u64, SystemError> {
        self.run_until(budget, "all processors to halt", |sys| {
            if let Some((node, fault)) = sys.faulted_processor() {
                let message = fault.to_string();
                return Err(SystemError::Cpu { node, message });
            }
            if sys.halted_and_drained() {
                return Ok(true);
            }
            sys.watchdog_verdict()?;
            Ok(false)
        })
    }

    // ------------------------------------------------------------------
    // Partial and dynamic reconfiguration (§5 of the paper): "the IP
    // cores position be modified in execution at runtime, favoring the
    // IPs communication with improved throughput. Reconfiguration can
    // also be used to reduce system area consumption through insertion
    // and removal of IP cores on demand."
    // ------------------------------------------------------------------

    fn require_quiescent(&self) -> Result<(), SystemError> {
        if self.noc.is_idle() && self.link.is_idle() {
            Ok(())
        } else {
            Err(SystemError::Protocol(
                "reconfiguration requires an idle network and serial link".into(),
            ))
        }
    }

    /// Pushes the (updated) node directory into every IP.
    fn refresh_tables(&mut self) {
        let io_router = self
            .table
            .nodes_of_kind(NodeKind::Serial)
            .next()
            .and_then(|n| self.table.router_of(n));
        for idx in 0..self.ips.len() {
            let node = NodeId(idx as u8);
            let Some(addr) = self.table.router_of(node) else {
                continue;
            };
            match &mut self.ips[idx] {
                Ip::Processor(p) => {
                    p.reconfigure(addr, self.table.clone(), io_router);
                    p.set_directory(self.directory.clone());
                }
                Ip::Serial(s) => {
                    s.reconfigure(addr, self.table.clone());
                    s.set_directory(self.directory.clone());
                }
                Ip::Memory(m) => m.set_router(addr),
                Ip::Vacant => {}
            }
        }
    }

    fn require_free_router(&self, addr: RouterAddr) -> Result<(), SystemError> {
        let config = self.noc.config();
        if !config.topology.contains(addr) {
            return Err(SystemError::BadLayout(format!(
                "router {addr} is outside the {}x{} grid",
                config.width(),
                config.height()
            )));
        }
        if self.table.node_of(addr).is_some() {
            return Err(SystemError::BadLayout(format!(
                "router {addr} already hosts an IP"
            )));
        }
        Ok(())
    }

    /// Moves `node` (with all its state — memory contents, CPU
    /// registers) to the free router `new_addr`. The network and serial
    /// link must be idle, as a partial-reconfiguration controller would
    /// quiesce the region first.
    ///
    /// # Errors
    ///
    /// [`SystemError::Protocol`] if traffic is in flight,
    /// [`SystemError::BadLayout`] if the target router is occupied or
    /// outside the mesh, [`SystemError::BadNode`] for vacant/unknown
    /// nodes.
    pub fn relocate_ip(&mut self, node: NodeId, new_addr: RouterAddr) -> Result<(), SystemError> {
        self.require_quiescent()?;
        self.require_free_router(new_addr)?;
        if self.table.router_of(node).is_none() {
            return Err(SystemError::BadNode {
                node,
                expected: "an occupied node",
            });
        }
        self.table.relocate(node, new_addr);
        self.refresh_tables();
        Ok(())
    }

    /// Inserts a new R8 processor IP at the free router `addr`,
    /// returning its node id. Every existing processor gains a window
    /// onto the new processor's memory *after* its current windows, so
    /// running software keeps its addresses.
    ///
    /// # Errors
    ///
    /// As [`relocate_ip`](Self::relocate_ip); additionally
    /// [`SystemError::BadLayout`] if some processor's address map has no
    /// room for another window.
    pub fn insert_processor_at(&mut self, addr: RouterAddr) -> Result<NodeId, SystemError> {
        self.insert_ip(addr, NodeKind::Processor)
    }

    /// Inserts a new remote memory IP at the free router `addr`.
    ///
    /// # Errors
    ///
    /// As [`insert_processor_at`](Self::insert_processor_at).
    pub fn insert_memory_at(&mut self, addr: RouterAddr) -> Result<NodeId, SystemError> {
        self.insert_ip(addr, NodeKind::Memory)
    }

    fn insert_ip(&mut self, addr: RouterAddr, kind: NodeKind) -> Result<NodeId, SystemError> {
        self.require_quiescent()?;
        self.require_free_router(addr)?;
        if self.ips.len() >= 255 {
            return Err(SystemError::BadLayout("node ids are exhausted".into()));
        }
        // Check every processor can take one more window before mutating.
        for ip in &self.ips {
            if let Ip::Processor(p) = ip {
                let windows = p.map().windows().len() as u32 + 1;
                let top = (windows + 1) * u32::from(p.map().window_words());
                if top > u32::from(crate::NOTIFY_ADDR) {
                    return Err(SystemError::BadLayout(format!(
                        "{}'s address map has no room for another window",
                        p.node()
                    )));
                }
            }
        }
        let node = self.table.push(addr, kind);
        for ip in &mut self.ips {
            if let Ip::Processor(p) = ip {
                if p.map_mut().push_window(node).is_none() {
                    return Err(SystemError::BadLayout(format!(
                        "{}'s address map has no room for another window",
                        p.node()
                    )));
                }
            }
        }
        let io_router = self
            .table
            .nodes_of_kind(NodeKind::Serial)
            .next()
            .and_then(|n| self.table.router_of(n));
        let ip = match kind {
            NodeKind::Memory => Ip::Memory(MemoryIp::new(node, addr, crate::MEMORY_WORDS)),
            NodeKind::Processor => {
                // The new processor sees every other memory-owning node,
                // processors first, in node order (builder convention).
                let mut windows: Vec<NodeId> = self
                    .table
                    .nodes_of_kind(NodeKind::Processor)
                    .filter(|&n| n != node)
                    .collect();
                windows.extend(self.table.nodes_of_kind(NodeKind::Memory));
                Ip::Processor(Box::new(ProcessorIp::new(
                    node,
                    addr,
                    crate::MEMORY_WORDS,
                    AddressMap::paper(windows),
                    self.table.clone(),
                    io_router,
                )))
            }
            NodeKind::Serial => {
                return Err(SystemError::BadLayout(
                    "inserting a second serial IP is not supported".into(),
                ))
            }
        };
        self.ips.push(ip);
        self.refresh_tables();
        Ok(node)
    }

    /// Removes `node` from the system ("to reduce system area
    /// consumption"). The node id stays reserved; peers' windows onto it
    /// keep their addresses but reads return 0 and writes are dropped.
    /// A processor must be inactive, halted or faulted to be removed.
    ///
    /// # Errors
    ///
    /// [`SystemError::Protocol`] with traffic in flight or a running
    /// processor; [`SystemError::BadNode`] for vacant/unknown nodes.
    pub fn remove_ip(&mut self, node: NodeId) -> Result<(), SystemError> {
        self.require_quiescent()?;
        let Some(addr) = self.table.router_of(node) else {
            return Err(SystemError::BadNode {
                node,
                expected: "an occupied node",
            });
        };
        if let Some(Ip::Processor(p)) = self.ips.get(node.index()) {
            if matches!(
                p.status(),
                ProcessorStatus::Running | ProcessorStatus::Blocked
            ) {
                return Err(SystemError::Protocol(format!(
                    "{node} is executing; halt it before removal"
                )));
            }
        }
        self.ips[node.index()] = Ip::Vacant;
        self.table.vacate(node);
        self.vacated_routers.push(addr);
        self.refresh_tables();
        Ok(())
    }

    /// Runs until the system is [idle](Self::is_idle) — including
    /// processors parked in `wait` or `scanf`, which makes this the right
    /// tool to detect synchronization deadlocks.
    ///
    /// # Errors
    ///
    /// [`SystemError::BudgetExhausted`] after `budget` cycles, or a
    /// propagated step error.
    pub fn run_until_idle(&mut self, budget: u64) -> Result<u64, SystemError> {
        // Always make at least one step so freshly queued traffic starts.
        self.step()?;
        let rest = self.run_until(budget.saturating_sub(1), "system to go idle", |sys| {
            if sys.is_idle() {
                return Ok(true);
            }
            sys.watchdog_verdict()?;
            Ok(false)
        });
        match rest {
            Ok(cycles) => Ok(cycles + 1),
            Err(SystemError::BudgetExhausted { waiting_for, .. }) => {
                Err(SystemError::BudgetExhausted {
                    budget,
                    waiting_for,
                })
            }
            Err(e) => Err(e),
        }
    }

    // ------------------------------------------------------------------
    // Deterministic checkpoint/restore: the full system state as one
    // versioned, checksummed binary container, embedding the NoC's own
    // sealed snapshot. A restored system replays bit-identically to the
    // uninterrupted run on any simulation kernel.
    // ------------------------------------------------------------------

    /// Captures the complete system state — the network (flit buffers,
    /// in-flight worms, arbiters, health monitors, fault-plan progress,
    /// RNG counters, statistics), every IP core (CPU images, memories,
    /// reliability layers), the serial link, service counters, trace
    /// log, watchdog and failover bookkeeping — as one self-describing
    /// binary snapshot. The auto-checkpoint policy itself is runtime
    /// configuration and is deliberately not captured.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        // The NoC snapshot keeps its own sealed container (version,
        // checksum, mesh-shape validation) and is embedded as an opaque
        // blob.
        w.put(&self.noc.save_state());
        self.snapshot_write(&mut w);
        w.finish(snapshot::KIND_SYSTEM)
    }

    /// A digest of the simulated state: [`snapshot::fletcher64`] over
    /// the payload [`checkpoint`](Self::checkpoint) writes, with the
    /// embedded network snapshot replaced by its canonical
    /// [`Noc::fingerprint`]. Equal fingerprints mean equal clocks,
    /// memories, CPU images, reliability layers, serial link, counters,
    /// logs and network state, whatever kernel, thread count or
    /// stepping style produced them. Costs one serialization, so
    /// compare at run boundaries rather than every cycle.
    pub fn fingerprint(&self) -> u64 {
        let mut w = SnapshotWriter::new();
        w.put(&self.noc.fingerprint());
        self.snapshot_write(&mut w);
        w.digest()
    }

    /// Writes everything a checkpoint holds after the network snapshot.
    fn snapshot_write(&self, w: &mut SnapshotWriter) {
        w.put(&self.clock_hz);
        w.put(&self.link);
        w.put(&self.table);
        w.put(&self.directory);
        // The IP list writes its own length: each IP decodes with the
        // context of its node-table slot.
        w.put(&self.ips.len());
        for ip in &self.ips {
            match ip {
                Ip::Vacant => w.put(&0u8),
                Ip::Processor(p) => {
                    w.put(&1u8);
                    p.snapshot_write(w);
                }
                Ip::Memory(m) => {
                    w.put(&2u8);
                    m.snapshot_write(w);
                }
                Ip::Serial(s) => {
                    w.put(&3u8);
                    s.snapshot_write(w);
                }
            }
        }
        w.put(&self.counters);
        w.put(&self.trace);
        w.put(&self.vacated_routers);
        // The watchdog's progress windows are written verbatim: a
        // restored run re-arming them from current values could fire a
        // false DeadLink the uninterrupted run never saw.
        w.put(&self.watchdog);
        w.put(&self.dead_nodes);
        w.put(&self.processed_dead);
        w.put(&self.failover_log);
        w.put(&self.spans);
    }

    /// Writes [`checkpoint`](Self::checkpoint) to `path` atomically:
    /// the bytes go to a temporary file in the same directory which is
    /// then renamed over the target, so a crash mid-write leaves the
    /// previous checkpoint intact.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on any filesystem failure.
    pub fn checkpoint_to_file(&self, path: &Path) -> Result<(), SnapshotError> {
        snapshot::write_atomic(path, &self.checkpoint())
    }

    /// Reconstructs a system from [`checkpoint`](Self::checkpoint)
    /// bytes. The resumed system replays bit-identically to the
    /// uninterrupted original.
    ///
    /// # Errors
    ///
    /// A typed [`SnapshotError`] on truncated, corrupt, wrong-version
    /// or internally inconsistent input — never a panic.
    pub fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        Self::restore_inner(bytes, None)
    }

    /// [`restore`](Self::restore) with the network's simulation kernel
    /// overridden — checkpoints are kernel-portable, so a snapshot
    /// taken under `Parallel { workers: 8 }` restores under
    /// `Reference` (and vice versa) with identical behaviour.
    ///
    /// # Errors
    ///
    /// As [`restore`](Self::restore).
    pub fn restore_with_kernel(bytes: &[u8], kernel: KernelMode) -> Result<Self, SnapshotError> {
        Self::restore_inner(bytes, Some(kernel))
    }

    /// Reads and [`restore`](Self::restore)s a checkpoint file.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] if the file cannot be read, else as
    /// [`restore`](Self::restore).
    pub fn restore_from_file(path: &Path) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path)?;
        Self::restore(&bytes)
    }

    fn restore_inner(bytes: &[u8], kernel: Option<KernelMode>) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::open(bytes, snapshot::KIND_SYSTEM)?;
        let noc_blob: Vec<u8> = r.take()?;
        let noc = match kernel {
            None => Noc::restore_state(&noc_blob)?,
            Some(k) => Noc::restore_state_with_kernel(&noc_blob, k)?,
        };
        let mesh = (noc.config().width(), noc.config().height());
        let clock_hz: f64 = r.take()?;
        if !clock_hz.is_finite() || clock_hz <= 0.0 {
            return Err(SnapshotError::Malformed("clock frequency"));
        }
        let link = r.take()?;
        let table: NodeTable = r.take()?;
        snapshot::check_mesh(mesh, table.routers())?;
        let directory: ServiceDirectory = r.take()?;
        let io_router = table
            .nodes_of_kind(NodeKind::Serial)
            .next()
            .and_then(|n| table.router_of(n));
        let count = r.take_len()?;
        if count != table.len() {
            return Err(SnapshotError::Malformed(
                "IP count does not match node table",
            ));
        }
        let mut ips = Vec::with_capacity(count);
        for idx in 0..count {
            let node = NodeId(idx as u8);
            let tag: u8 = r.take()?;
            let slot = table.router_of(node);
            let ip = match (tag, slot, table.kind_of(node)) {
                (0, None, _) => Ip::Vacant,
                (1, Some(addr), Some(NodeKind::Processor)) => {
                    Ip::Processor(Box::new(ProcessorIp::snapshot_read(
                        &mut r,
                        node,
                        addr,
                        table.clone(),
                        directory.clone(),
                        io_router,
                        mesh,
                    )?))
                }
                (2, Some(addr), Some(NodeKind::Memory)) => {
                    Ip::Memory(MemoryIp::snapshot_read(&mut r, node, addr, mesh)?)
                }
                (3, Some(addr), Some(NodeKind::Serial)) => Ip::Serial(SerialIp::snapshot_read(
                    &mut r,
                    addr,
                    table.clone(),
                    directory.clone(),
                    mesh,
                )?),
                (0..=3, _, _) => {
                    return Err(SnapshotError::Malformed(
                        "IP kind does not match node table",
                    ))
                }
                _ => return Err(SnapshotError::Malformed("IP kind tag")),
            };
            ips.push(ip);
        }
        let counters = r.take()?;
        let trace = r.take()?;
        let vacated_routers: Vec<RouterAddr> = r.take()?;
        let watchdog = r.take()?;
        let dead_nodes: Vec<NodeId> = r.take()?;
        let processed_dead: BTreeSet<RouterAddr> = r.take()?;
        let failover_log = r.take()?;
        let spans = if r.version() >= 4 { r.take()? } else { None };
        r.finish()?;
        snapshot::check_mesh(mesh, vacated_routers.iter().chain(&processed_dead).copied())?;
        if dead_nodes.iter().any(|n| n.index() >= table.len()) {
            return Err(SnapshotError::Malformed("dead node outside the table"));
        }
        Ok(System {
            noc,
            ips,
            table,
            link,
            clock_hz,
            counters,
            trace,
            spans,
            vacated_routers,
            watchdog,
            directory,
            dead_nodes,
            processed_dead,
            failover_log,
            auto_checkpoint: None,
            sends_seen: 0,
        })
    }

    /// Arms the automatic checkpoint policy: the full system snapshot
    /// is written to `path` every `every_cycles` cycles and whenever a
    /// fault-class event is detected (a watchdog Deadlock/DeadLink
    /// verdict, a node death). Writes are atomic — a crash mid-write
    /// never corrupts the last good checkpoint. Off by default; not
    /// part of the checkpoint itself, so a restored system must opt in
    /// again.
    pub fn enable_auto_checkpoint(&mut self, path: impl Into<PathBuf>, every_cycles: u64) {
        self.auto_checkpoint = Some(AutoCheckpoint {
            path: path.into(),
            every: every_cycles.max(1),
            last: self.cycle(),
            written: 0,
        });
    }

    /// Disarms the automatic checkpoint policy.
    pub fn disable_auto_checkpoint(&mut self) {
        self.auto_checkpoint = None;
    }

    /// Checkpoints written by the automatic policy since it was armed.
    pub fn auto_checkpoints_written(&self) -> u64 {
        self.auto_checkpoint.as_ref().map_or(0, |a| a.written)
    }

    /// The cycle whose step writes the next periodic auto-checkpoint, if
    /// the policy is armed.
    fn next_auto_checkpoint(&self) -> Option<u64> {
        let ac = self.auto_checkpoint.as_ref()?;
        Some(ac.last.saturating_add(ac.every))
    }

    /// Periodic auto-checkpoint hook: writes when the interval elapsed.
    fn auto_checkpoint_due(&mut self) -> Result<(), SystemError> {
        let Some(ac) = &self.auto_checkpoint else {
            return Ok(());
        };
        if self.noc.cycle().saturating_sub(ac.last) < ac.every {
            return Ok(());
        }
        self.auto_checkpoint_now()
    }

    /// Writes an auto-checkpoint immediately, if the policy is armed.
    fn auto_checkpoint_now(&mut self) -> Result<(), SystemError> {
        let Some(ac) = &self.auto_checkpoint else {
            return Ok(());
        };
        let path = ac.path.clone();
        self.checkpoint_to_file(&path)
            .map_err(|e| SystemError::Snapshot(e.to_string()))?;
        let now = self.noc.cycle();
        if let Some(ac) = &mut self.auto_checkpoint {
            ac.last = now;
            ac.written += 1;
        }
        Ok(())
    }

    /// [`watchdog_check`](Self::watchdog_check), snapshotting the
    /// moment of failure (best-effort) before surfacing a verdict.
    fn watchdog_verdict(&mut self) -> Result<(), SystemError> {
        match self.watchdog_check() {
            Ok(()) => Ok(()),
            Err(e) => {
                // The verdict is the error to surface; a failed
                // checkpoint write must not mask it.
                self.rewind_run_ahead(self.cycle(), self.ips.len());
                let _ = self.auto_checkpoint_now();
                Err(e)
            }
        }
    }
}

/// Builder for custom MultiNoC systems.
///
/// Nodes are numbered in the order they are added (the paper numbers the
/// serial IP 0, the processors 1 and 2, the memory 3). Each processor's
/// address map exposes windows onto all *other* memory-owning nodes:
/// first the other processors, then the memory IPs, in node order.
#[derive(Debug, Default)]
pub struct SystemBuilder {
    noc: Option<NocConfig>,
    serial: SerialConfig,
    clock_hz: Option<f64>,
    nodes: Vec<(RouterAddr, NodeKind)>,
    /// `(primary, backup)` router pairs added by
    /// [`replicated_memory_at`](Self::replicated_memory_at).
    replicas: Vec<(RouterAddr, RouterAddr)>,
}

impl SystemBuilder {
    /// Sets the network configuration (defaults to the paper's 2×2).
    pub fn noc(mut self, config: NocConfig) -> Self {
        self.noc = Some(config);
        self
    }

    /// Overrides the simulation kernel of the network — e.g.
    /// [`KernelMode::Parallel`] to
    /// shard big meshes over worker threads. All kernels produce
    /// bit-identical system behaviour; this is purely a wall-clock knob.
    pub fn kernel(mut self, kernel: hermes_noc::KernelMode) -> Self {
        let config = self.noc.unwrap_or_else(NocConfig::multinoc);
        self.noc = Some(config.with_kernel_mode(kernel));
        self
    }

    /// Sets the serial link timing (defaults to a fast functional link).
    pub fn serial(mut self, config: SerialConfig) -> Self {
        self.serial = config;
        self
    }

    /// Sets the clock frequency used for cycle↔time conversions
    /// (defaults to the prototype's 25 MHz).
    pub fn clock_hz(mut self, hz: f64) -> Self {
        self.clock_hz = Some(hz);
        self
    }

    /// Adds a serial IP at `addr` (at most one per system).
    pub fn serial_at(mut self, addr: RouterAddr) -> Self {
        self.nodes.push((addr, NodeKind::Serial));
        self
    }

    /// Adds an R8 processor IP at `addr`.
    pub fn processor_at(mut self, addr: RouterAddr) -> Self {
        self.nodes.push((addr, NodeKind::Processor));
        self
    }

    /// Adds a remote memory IP at `addr`.
    pub fn memory_at(mut self, addr: RouterAddr) -> Self {
        self.nodes.push((addr, NodeKind::Memory));
        self
    }

    /// Adds a *replicated* remote memory: the serving primary at
    /// `primary` plus a write-through backup at `backup` (distinct
    /// routers, so one router death cannot take both). Processors see a
    /// single memory window, addressed at the primary's node id; the
    /// backup holds no window of its own. If the network's online
    /// diagnosis later declares the serving member's node dead, the
    /// system promotes the survivor and clients fail over transparently.
    pub fn replicated_memory_at(mut self, primary: RouterAddr, backup: RouterAddr) -> Self {
        self.nodes.push((primary, NodeKind::Memory));
        self.nodes.push((backup, NodeKind::Memory));
        self.replicas.push((primary, backup));
        self
    }

    /// Builds the system.
    ///
    /// # Errors
    ///
    /// [`SystemError::BadLayout`] if routers repeat, lie outside the
    /// mesh, more than one serial IP was added, or a processor would have
    /// more remote windows than the address space holds;
    /// [`SystemError::Noc`] for an invalid network configuration.
    pub fn build(self) -> Result<System, SystemError> {
        let noc_config = self.noc.unwrap_or_else(NocConfig::multinoc);
        let noc = Noc::new(noc_config.clone())?;
        for (addr, _) in &self.nodes {
            if !noc_config.topology.contains(*addr) {
                return Err(SystemError::BadLayout(format!(
                    "router {addr} is outside the {}x{} grid",
                    noc_config.width(),
                    noc_config.height()
                )));
            }
        }
        for (i, (a, _)) in self.nodes.iter().enumerate() {
            if self.nodes[..i].iter().any(|(b, _)| a == b) {
                return Err(SystemError::BadLayout(format!(
                    "router {a} hosts more than one IP"
                )));
            }
        }
        let serial_count = self
            .nodes
            .iter()
            .filter(|(_, k)| *k == NodeKind::Serial)
            .count();
        if serial_count > 1 {
            return Err(SystemError::BadLayout(
                "at most one serial IP is supported".into(),
            ));
        }
        let table = NodeTable::new(self.nodes.clone());
        let io_router = table
            .nodes_of_kind(NodeKind::Serial)
            .next()
            .and_then(|n| table.router_of(n));

        // Resolve replica pairs to node ids and validate them.
        let mut directory = ServiceDirectory::new();
        let mut backup_nodes: Vec<NodeId> = Vec::new();
        for &(primary, backup) in &self.replicas {
            if primary == backup {
                return Err(SystemError::BadLayout(format!(
                    "replica pair at {primary} needs two distinct routers"
                )));
            }
            let (Some(p), Some(b)) = (table.node_of(primary), table.node_of(backup)) else {
                return Err(SystemError::BadLayout(format!(
                    "replica pair {primary}/{backup} lost its nodes"
                )));
            };
            directory.register(p, b);
            backup_nodes.push(b);
        }

        // Windows seen by each processor: other processors first, then
        // memory IPs, in node order (matches the paper's map). Replica
        // backups are invisible — clients address the logical primary
        // and the directory decides who serves it.
        let mut ips = Vec::with_capacity(self.nodes.len());
        for (i, &(addr, kind)) in self.nodes.iter().enumerate() {
            let node = NodeId(i as u8);
            let ip = match kind {
                NodeKind::Serial => Ip::Serial(SerialIp::new(addr, table.clone())),
                NodeKind::Memory => {
                    let mut m = MemoryIp::new(node, addr, crate::MEMORY_WORDS);
                    if let Some(g) = directory.group_of(node) {
                        if g.primary == node {
                            m.set_replica(table.router_of(g.backup));
                        }
                    }
                    Ip::Memory(m)
                }
                NodeKind::Processor => {
                    let mut windows: Vec<NodeId> = table
                        .nodes_of_kind(NodeKind::Processor)
                        .filter(|&n| n != node)
                        .collect();
                    windows.extend(
                        table
                            .nodes_of_kind(NodeKind::Memory)
                            .filter(|n| !backup_nodes.contains(n)),
                    );
                    if (windows.len() + 1) * usize::from(crate::MEMORY_WORDS)
                        > usize::from(crate::NOTIFY_ADDR)
                    {
                        return Err(SystemError::BadLayout(format!(
                            "{} remote windows do not fit the 16-bit address space",
                            windows.len()
                        )));
                    }
                    let map = AddressMap::paper(windows);
                    Ip::Processor(Box::new(ProcessorIp::new(
                        node,
                        addr,
                        crate::MEMORY_WORDS,
                        map,
                        table.clone(),
                        io_router,
                    )))
                }
            };
            ips.push(ip);
        }

        let mut system = System {
            noc,
            ips,
            table,
            link: SerialLink::new(self.serial),
            clock_hz: self.clock_hz.unwrap_or(25.0e6),
            counters: ServiceCounters::default(),
            trace: None,
            spans: None,
            vacated_routers: Vec::new(),
            watchdog: None,
            directory,
            dead_nodes: Vec::new(),
            processed_dead: BTreeSet::new(),
            failover_log: Vec::new(),
            auto_checkpoint: None,
            sends_seen: 0,
        };
        // Every client starts with the (identity) directory view.
        system.refresh_tables();
        Ok(system)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PROCESSOR_1, PROCESSOR_2, REMOTE_MEMORY, SERIAL};
    use r8::asm::assemble;

    #[test]
    fn paper_config_layout() {
        let sys = System::paper_config().unwrap();
        assert_eq!(sys.table().len(), 4);
        assert_eq!(sys.table().kind_of(SERIAL), Some(NodeKind::Serial));
        assert_eq!(sys.table().kind_of(PROCESSOR_1), Some(NodeKind::Processor));
        assert_eq!(sys.table().kind_of(PROCESSOR_2), Some(NodeKind::Processor));
        assert_eq!(sys.table().kind_of(REMOTE_MEMORY), Some(NodeKind::Memory));
        // P1's windows: P2 then memory.
        let map = sys.address_map(PROCESSOR_1).unwrap();
        assert_eq!(map.windows(), &[PROCESSOR_2, REMOTE_MEMORY]);
        assert_eq!(map.window_base(REMOTE_MEMORY), Some(2048));
        // P2's windows: P1 then memory.
        let map = sys.address_map(PROCESSOR_2).unwrap();
        assert_eq!(map.windows(), &[PROCESSOR_1, REMOTE_MEMORY]);
    }

    #[test]
    fn builder_rejects_bad_layouts() {
        let err = System::builder()
            .processor_at(RouterAddr::new(5, 5))
            .build()
            .unwrap_err();
        assert!(matches!(err, SystemError::BadLayout(_)));

        let err = System::builder()
            .processor_at(RouterAddr::new(0, 0))
            .memory_at(RouterAddr::new(0, 0))
            .build()
            .unwrap_err();
        assert!(matches!(err, SystemError::BadLayout(_)));

        let err = System::builder()
            .serial_at(RouterAddr::new(0, 0))
            .serial_at(RouterAddr::new(0, 1))
            .build()
            .unwrap_err();
        assert!(matches!(err, SystemError::BadLayout(_)));
    }

    #[test]
    fn direct_activation_runs_a_preloaded_program() {
        let mut sys = System::paper_config().unwrap();
        let program = assemble("LIW R1, 5\nLIW R2, 6\nMUL R3, R1, R2\nHALT").unwrap();
        sys.memory_mut(PROCESSOR_1)
            .unwrap()
            .write_block(0, program.words());
        sys.activate_directly(PROCESSOR_1).unwrap();
        sys.run_until_halted(100_000).unwrap();
        assert_eq!(sys.cpu(PROCESSOR_1).unwrap().reg(3), 30);
    }

    #[test]
    fn reactivation_while_stalled_paces_the_first_instruction_in_full() {
        // Running cycles from activation to HALT of a short program, on a
        // fresh core or on one re-activated after 2,000 cycles stalled on
        // a scanf nobody answers: the stall must not discount the first
        // instruction of the new program.
        let running_to_halt = |stalled_first: bool| {
            let mut sys = System::paper_config().unwrap();
            if stalled_first {
                let scanf = assemble("XOR R0, R0, R0\nLIW R1, 0xFFFF\nLD R2, R1, R0\nHALT");
                let scanf = scanf.unwrap();
                sys.memory_mut(PROCESSOR_1)
                    .unwrap()
                    .write_block(0, scanf.words());
                sys.activate_directly(PROCESSOR_1).unwrap();
                sys.run(2_000).unwrap();
                assert_eq!(
                    sys.block_reason(PROCESSOR_1).unwrap(),
                    Some(BlockReason::Scanf)
                );
            }
            let program = assemble("LIW R1, 5\nADDI R1, 1\nHALT").unwrap();
            sys.memory_mut(PROCESSOR_1)
                .unwrap()
                .write_block(0, program.words());
            let before = sys.processor_utilization(PROCESSOR_1).unwrap().running;
            sys.activate_directly(PROCESSOR_1).unwrap();
            sys.run_until(1_000, "P1 to halt", |sys| {
                Ok(sys.processor_status(PROCESSOR_1)? == ProcessorStatus::Halted)
            })
            .unwrap();
            assert_eq!(sys.cpu(PROCESSOR_1).unwrap().reg(1), 6);
            sys.processor_utilization(PROCESSOR_1).unwrap().running - before
        };
        assert_eq!(running_to_halt(true), running_to_halt(false));
    }

    #[test]
    fn remote_memory_access_via_the_network() {
        // P1 stores to the remote memory window and reads it back.
        let mut sys = System::paper_config().unwrap();
        let base = sys
            .address_map(PROCESSOR_1)
            .unwrap()
            .window_base(REMOTE_MEMORY)
            .unwrap();
        let program = assemble(&format!(
            "LIW R1, {base}\n\
             XOR R0, R0, R0\n\
             LIW R2, 777\n\
             ST  R2, R1, R0\n\
             LD  R3, R1, R0\n\
             LIW R4, 0x20\n\
             ST  R3, R4, R0\n\
             HALT"
        ))
        .unwrap();
        sys.memory_mut(PROCESSOR_1)
            .unwrap()
            .write_block(0, program.words());
        sys.activate_directly(PROCESSOR_1).unwrap();
        sys.run_until_halted(1_000_000).unwrap();
        // The value landed in the remote memory IP...
        assert_eq!(sys.memory(REMOTE_MEMORY).unwrap().read(0), 777);
        // ...and the read-back arrived in P1's local memory.
        assert_eq!(sys.memory(PROCESSOR_1).unwrap().read(0x20), 777);
    }

    #[test]
    fn processors_share_each_others_memory() {
        // P1 writes into P2's local memory through its peer window.
        let mut sys = System::paper_config().unwrap();
        let base = sys
            .address_map(PROCESSOR_1)
            .unwrap()
            .window_base(PROCESSOR_2)
            .unwrap();
        let program = assemble(&format!(
            "LIW R1, {base}\n\
             XOR R0, R0, R0\n\
             LIW R2, 0x1234\n\
             ADDI R1, 0x40\n\
             ST  R2, R1, R0\n\
             HALT"
        ))
        .unwrap();
        sys.memory_mut(PROCESSOR_1)
            .unwrap()
            .write_block(0, program.words());
        sys.activate_directly(PROCESSOR_1).unwrap();
        sys.run_until_halted(1_000_000).unwrap();
        assert_eq!(sys.memory(PROCESSOR_2).unwrap().read(0x40), 0x1234);
    }

    #[test]
    fn wait_notify_synchronizes_two_processors() {
        // P1 waits for P2; P2 writes a flag into P1's memory then
        // notifies. P1 then copies the flag — it must see P2's value.
        let mut sys = System::paper_config().unwrap();
        let p1 = assemble(&format!(
            "LIW R2, {:#x}\n\
             XOR R0, R0, R0\n\
             LIW R3, {}\n\
             ST  R3, R0, R2     ; wait for P2\n\
             LIW R4, 0x80\n\
             LD  R5, R4, R0     ; read the flag P2 wrote\n\
             LIW R6, 0x81\n\
             ST  R5, R6, R0     ; copy it\n\
             HALT",
            crate::WAIT_ADDR,
            PROCESSOR_2.0,
        ))
        .unwrap();
        // P2: write 0xBEEF into P1's word 0x80, then notify P1.
        let p2_window = sys
            .address_map(PROCESSOR_2)
            .unwrap()
            .window_base(PROCESSOR_1)
            .unwrap();
        let p2 = assemble(&format!(
            "LIW R1, {}\n\
             XOR R0, R0, R0\n\
             LIW R2, 0xBEEF\n\
             ADDI R1, 0x80\n\
             ST  R2, R1, R0     ; flag into P1 memory\n\
             LIW R3, {:#x}\n\
             LIW R4, {}\n\
             ST  R4, R0, R3     ; notify P1\n\
             HALT",
            p2_window,
            crate::NOTIFY_ADDR,
            PROCESSOR_1.0,
        ))
        .unwrap();
        sys.memory_mut(PROCESSOR_1)
            .unwrap()
            .write_block(0, p1.words());
        sys.memory_mut(PROCESSOR_2)
            .unwrap()
            .write_block(0, p2.words());
        sys.activate_directly(PROCESSOR_1).unwrap();
        sys.activate_directly(PROCESSOR_2).unwrap();
        sys.run_until_halted(1_000_000).unwrap();
        assert_eq!(sys.memory(PROCESSOR_1).unwrap().read(0x81), 0xBEEF);
    }

    #[test]
    fn deadlocked_wait_is_detected_as_idle() {
        // P1 waits for a notify that never comes.
        let mut sys = System::paper_config().unwrap();
        let program = assemble(&format!(
            "LIW R2, {:#x}\nXOR R0, R0, R0\nLIW R3, {}\nST R3, R0, R2\nHALT",
            crate::WAIT_ADDR,
            PROCESSOR_2.0,
        ))
        .unwrap();
        sys.memory_mut(PROCESSOR_1)
            .unwrap()
            .write_block(0, program.words());
        sys.activate_directly(PROCESSOR_1).unwrap();
        sys.run_until_idle(100_000).unwrap();
        assert_eq!(
            sys.processor_status(PROCESSOR_1).unwrap(),
            ProcessorStatus::Blocked
        );
        // run_until_halted correctly reports it never halts.
        assert!(matches!(
            sys.run_until_halted(10_000),
            Err(SystemError::BudgetExhausted { .. })
        ));
    }

    #[test]
    fn notify_before_wait_is_not_lost() {
        // P2 notifies first; P1 waits afterwards and must pass through.
        let mut sys = System::paper_config().unwrap();
        let p1 = assemble(&format!(
            "LIW R1, 0x300\n\
             XOR R0, R0, R0\n\
             ; burn some cycles so P2's notify arrives first\n\
             LIW R5, 50\n\
             spin: SUBI R5, 1\n\
             JMPZD waiting\n\
             JMPD spin\n\
             waiting: LIW R2, {:#x}\n\
             LIW R3, {}\n\
             ST  R3, R0, R2\n\
             LIW R4, 1\n\
             ST  R4, R1, R0\n\
             HALT",
            crate::WAIT_ADDR,
            PROCESSOR_2.0,
        ))
        .unwrap();
        let p2 = assemble(&format!(
            "XOR R0, R0, R0\nLIW R3, {:#x}\nLIW R4, {}\nST R4, R0, R3\nHALT",
            crate::NOTIFY_ADDR,
            PROCESSOR_1.0,
        ))
        .unwrap();
        sys.memory_mut(PROCESSOR_1)
            .unwrap()
            .write_block(0, p1.words());
        sys.memory_mut(PROCESSOR_2)
            .unwrap()
            .write_block(0, p2.words());
        sys.activate_directly(PROCESSOR_1).unwrap();
        sys.activate_directly(PROCESSOR_2).unwrap();
        sys.run_until_halted(1_000_000).unwrap();
        assert_eq!(sys.memory(PROCESSOR_1).unwrap().read(0x300), 1);
    }

    #[test]
    fn link_death_mid_flight_is_survived_under_the_watchdog() {
        use hermes_noc::{CycleWindow, Routing};
        let mut config = NocConfig::multinoc();
        config.routing = Routing::FaultTolerantXy;
        let mut sys = System::builder()
            .noc(config)
            .serial_at(RouterAddr::new(0, 0))
            .processor_at(RouterAddr::new(0, 1))
            .processor_at(RouterAddr::new(1, 0))
            .memory_at(RouterAddr::new(1, 1))
            .build()
            .unwrap();
        let base = sys
            .address_map(PROCESSOR_1)
            .unwrap()
            .window_base(REMOTE_MEMORY)
            .unwrap();
        // Remote reads stall the core until the reply; remote writes are
        // posted and acknowledged asynchronously. Pre-seed the remote
        // word so the read does not race the (retransmitted) write.
        sys.memory_mut(REMOTE_MEMORY).unwrap().write(0, 777);
        let program = assemble(&format!(
            "LIW R1, {base}\n\
             XOR R0, R0, R0\n\
             LD  R3, R1, R0\n\
             LIW R4, 0x20\n\
             ST  R3, R4, R0\n\
             LIW R2, 888\n\
             ADDI R1, 1\n\
             ST  R2, R1, R0\n\
             HALT"
        ))
        .unwrap();
        sys.memory_mut(PROCESSOR_1)
            .unwrap()
            .write_block(0, program.words());
        // The direct route P1 → memory dies under the first message. The
        // fault plan arms the watchdog, which must not mistake the quiet
        // flush-and-reroute interval for a deadlock or a wedged link.
        sys.set_fault_plan(FaultPlan::new(11).with_link_down(
            RouterAddr::new(0, 1),
            Port::East,
            CycleWindow::open_ended(0),
        ))
        .unwrap();
        sys.activate_directly(PROCESSOR_1).unwrap();
        sys.run_until_halted(2_000_000)
            .expect("the workload completes despite the dead link");
        assert_eq!(sys.memory(PROCESSOR_1).unwrap().read(0x20), 777);
        assert_eq!(sys.memory(REMOTE_MEMORY).unwrap().read(1), 888);
        assert!(sys.degraded());
        assert_eq!(sys.dead_links(), vec![(RouterAddr::new(0, 1), Port::East)]);
        let counters = sys.retry_counters();
        assert!(
            counters.reroute_resets >= 1,
            "the epoch change reset the retry clock: {counters}"
        );
        assert!(sys.degradation_report().starts_with("degraded: dead links"));
    }

    #[test]
    fn long_quiet_startup_does_not_trip_the_watchdog() {
        // Regression: the dead-link window must measure contiguous
        // non-idle stall, not wall-clock since the last hop. At real
        // baud rates the Activate command takes > WATCHDOG_WINDOW
        // cycles to trickle over the serial link; the first packet the
        // serial IP then injects used to draw an instant DeadLink
        // verdict before moving a single hop.
        use crate::serial::{HostCommand, SerialConfig, SYNC_BYTE};
        let mut sys = System::builder()
            .noc(NocConfig::multinoc())
            .serial(SerialConfig::from_baud(25.0e6, 115_200.0))
            .serial_at(RouterAddr::new(0, 0))
            .processor_at(RouterAddr::new(0, 1))
            .processor_at(RouterAddr::new(1, 0))
            .memory_at(RouterAddr::new(1, 1))
            .build()
            .unwrap();
        // Any fault plan arms the watchdog; inject nothing.
        sys.set_fault_plan(FaultPlan::new(1)).unwrap();
        let program = assemble("LIW R1, 1\nHALT").unwrap();
        sys.memory_mut(PROCESSOR_1)
            .unwrap()
            .write_block(0, program.words());
        sys.link_mut().host_send(&[SYNC_BYTE]);
        sys.link_mut()
            .host_send(&HostCommand::Activate { node: 1 }.to_bytes());
        sys.run_until_halted(1_000_000)
            .expect("a slow serial link is idle time, not a dead link");
    }

    /// `run_until_halted` without the fast-forward or run-ahead: the
    /// same checks, with the watchdog polled in every cycle.
    fn polled_until_halted(sys: &mut System, budget: u64) -> Result<u64, SystemError> {
        let start = sys.cycle();
        loop {
            if let Some((node, fault)) = sys.faulted_processor() {
                let message = fault.to_string();
                return Err(SystemError::Cpu { node, message });
            }
            if sys.all_halted() && sys.noc.is_idle() && sys.link.is_idle() && sys.net_quiet() {
                return Ok(sys.cycle() - start);
            }
            sys.watchdog_check()?;
            if sys.cycle() - start >= budget {
                return Err(SystemError::BudgetExhausted {
                    budget,
                    waiting_for: "all processors to halt",
                });
            }
            sys.step()?;
        }
    }

    #[test]
    fn jumped_gaps_leave_the_watchdog_as_per_cycle_polls() {
        // Under a fault plan `run_until_halted` polls the watchdog once
        // per loop iteration. Jumped idle gaps — CPI pacing, retransmission
        // backoff — must leave it where a poll in every cycle would, or
        // the outcome would depend on the gaps: at seed 9 a backoff gap
        // used to count toward the dead-link window and end the run with
        // a DeadLink verdict for a network that had been idle.
        let build = |seed: u64, drop_rate: f64, p1: &str, p2: &str| {
            let mut sys = System::builder()
                .noc(NocConfig::multinoc().with_routing(hermes_noc::Routing::FaultTolerantXy))
                .serial_at(RouterAddr::new(0, 0))
                .processor_at(RouterAddr::new(0, 1))
                .processor_at(RouterAddr::new(1, 0))
                .memory_at(RouterAddr::new(1, 1))
                .build()
                .unwrap();
            sys.set_fault_plan(FaultPlan::new(seed).with_drop_rate(drop_rate))
                .unwrap();
            for (node, source) in [(PROCESSOR_1, p1), (PROCESSOR_2, p2)] {
                let program = assemble(source).unwrap();
                sys.memory_mut(node)
                    .unwrap()
                    .write_block(0, program.words());
                sys.activate_directly(node).unwrap();
            }
            sys
        };
        let spin = "LIW R1, 300\nl: SUBI R1, 1\nJMPZD d\nJMPD l\nd: HALT";
        let write_read = "LIW R2, 2048\nXOR R0, R0, R0\nLIW R3, 5\nST R3, R2, R0\n\
                          LD R4, R2, R0\nHALT";
        let handshake = "LIW R2, 2048\nXOR R0, R0, R0\nLIW R3, 5\nST R3, R2, R0\n\
                         LD R4, R2, R0\nLIW R5, 1152\nST R4, R5, R0\nLIW R7, 0xFFFD\n\
                         LIW R6, 2\nST R6, R0, R7\nLIW R1, 200\nl: SUBI R1, 1\nJMPZD d\n\
                         JMPD l\nd: HALT";
        let waiter = "LIW R2, 0xFFFE\nXOR R0, R0, R0\nLIW R3, 1\nST R3, R0, R2\n\
                      LIW R1, 150\nl: SUBI R1, 1\nJMPZD d\nJMPD l\nd: HALT";
        let cases = [
            (4, 0.2, write_read, spin),
            (5, 0.2, write_read, spin),
            (6, 0.2, write_read, spin),
            (9, 0.15, handshake, waiter),
        ];
        for (seed, drop_rate, p1, p2) in cases {
            let mut jumped = build(seed, drop_rate, p1, p2);
            let mut polled = build(seed, drop_rate, p1, p2);
            let got = jumped
                .run_until_halted(1_000_000)
                .map_err(|e| e.to_string());
            let want = polled_until_halted(&mut polled, 1_000_000).map_err(|e| e.to_string());
            assert_eq!(got, want, "seed {seed}");
            assert_eq!(jumped.cycle(), polled.cycle(), "seed {seed}");
            assert_eq!(jumped.fingerprint(), polled.fingerprint(), "seed {seed}");
        }
    }

    #[test]
    fn cpu_fault_surfaces_in_run_until_halted() {
        let mut sys = System::paper_config().unwrap();
        sys.memory_mut(PROCESSOR_1).unwrap().write(0, 0x00B0);
        sys.activate_directly(PROCESSOR_1).unwrap();
        match sys.run_until_halted(100_000) {
            Err(SystemError::Cpu { node, .. }) => assert_eq!(node, PROCESSOR_1),
            other => panic!("expected a cpu fault, got {other:?}"),
        }
    }

    /// A 3×3 fault-tolerant mesh: serial at (0,0), one processor at
    /// (0,1), and a replicated memory — primary at (1,1), write-through
    /// backup at (2,2). Nodes 0..=3 in that order.
    fn replicated_system() -> System {
        use hermes_noc::Routing;
        let mut config = NocConfig::mesh(3, 3);
        config.routing = Routing::FaultTolerantXy;
        System::builder()
            .noc(config)
            .serial_at(RouterAddr::new(0, 0))
            .processor_at(RouterAddr::new(0, 1))
            .replicated_memory_at(RouterAddr::new(1, 1), RouterAddr::new(2, 2))
            .build()
            .unwrap()
    }

    const REPLICA_PRIMARY: NodeId = NodeId(2);
    const REPLICA_BACKUP: NodeId = NodeId(3);

    #[test]
    fn replicated_build_hides_the_backup_window() {
        let sys = replicated_system();
        let map = sys.address_map(PROCESSOR_1).unwrap();
        assert!(map.window_base(REPLICA_PRIMARY).is_some());
        assert!(
            map.window_base(REPLICA_BACKUP).is_none(),
            "clients address the logical primary only"
        );
        assert_eq!(sys.directory().serving(REPLICA_PRIMARY), REPLICA_PRIMARY);
        assert!(sys.failover_report().is_empty());
        // A replica pair needs two distinct routers.
        assert!(System::builder()
            .noc(NocConfig::mesh(3, 3))
            .replicated_memory_at(RouterAddr::new(1, 1), RouterAddr::new(1, 1))
            .build()
            .is_err());
    }

    #[test]
    fn replicated_write_reaches_the_backup() {
        let mut sys = replicated_system();
        let base = sys
            .address_map(PROCESSOR_1)
            .unwrap()
            .window_base(REPLICA_PRIMARY)
            .unwrap();
        let program = assemble(&format!(
            "LIW R1, {base}\n\
             LIW R2, 4242\n\
             XOR R0, R0, R0\n\
             ST R2, R1, R0\n\
             HALT"
        ))
        .unwrap();
        sys.memory_mut(PROCESSOR_1)
            .unwrap()
            .write_block(0, program.words());
        sys.activate_directly(PROCESSOR_1).unwrap();
        sys.run_until_halted(1_000_000).unwrap();
        assert_eq!(sys.memory(REPLICA_PRIMARY).unwrap().read(0), 4242);
        assert_eq!(
            sys.memory(REPLICA_BACKUP).unwrap().read(0),
            4242,
            "the write-through replica converged"
        );
        assert!(sys.replication_writes() >= 1);
        assert!(sys.failover_report().is_empty(), "nothing died");
    }

    #[test]
    fn primary_router_death_fails_over_to_the_backup() {
        let mut sys = replicated_system();
        let base = sys
            .address_map(PROCESSOR_1)
            .unwrap()
            .window_base(REPLICA_PRIMARY)
            .unwrap();
        // Write 555 before the primary dies, spin long enough for the
        // death (cycle 2500) and the failover to land, then read the
        // word back through the same window and store it locally; a
        // second write exercises the post-failover write path.
        let program = assemble(&format!(
            "LIW R1, {base}\n\
             LIW R2, 555\n\
             XOR R0, R0, R0\n\
             ST R2, R1, R0\n\
             LIW R5, 4000\n\
             loop: SUBI R5, 1\n\
             JMPZD go\n\
             JMPD loop\n\
             go: LD R3, R1, R0\n\
             LIW R4, 0x20\n\
             ST R3, R4, R0\n\
             LIW R6, 666\n\
             ADDI R1, 1\n\
             ST R6, R1, R0\n\
             HALT"
        ))
        .unwrap();
        sys.memory_mut(PROCESSOR_1)
            .unwrap()
            .write_block(0, program.words());
        let primary_router = RouterAddr::new(1, 1);
        sys.set_fault_plan(FaultPlan::new(21).with_router_down(primary_router, 2500))
            .unwrap();
        sys.activate_directly(PROCESSOR_1).unwrap();
        sys.run_until_halted(4_000_000)
            .expect("the workload completes on the surviving replica");
        // The pre-death write was replicated and read back post-failover.
        assert_eq!(sys.memory(PROCESSOR_1).unwrap().read(0x20), 555);
        // The post-failover write landed on the survivor.
        assert_eq!(sys.memory(REPLICA_BACKUP).unwrap().read(1), 666);
        assert_eq!(sys.dead_nodes(), &[REPLICA_PRIMARY]);
        let log = sys.failover_report();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].logical, REPLICA_PRIMARY);
        assert_eq!(log[0].from, REPLICA_PRIMARY);
        assert_eq!(log[0].to, REPLICA_BACKUP);
        assert_eq!(sys.directory().serving(REPLICA_PRIMARY), REPLICA_BACKUP);
        let report = sys.degradation_report();
        assert!(report.contains("dead routers"), "report: {report}");
        assert!(report.contains("failed over"), "report: {report}");
        let metrics = sys.metrics_snapshot();
        assert_eq!(metrics.get("multinoc_failovers_total", &[]), Some(1.0));
        assert_eq!(metrics.get("multinoc_node_deaths_total", &[]), Some(1.0));
    }

    #[test]
    fn failover_mid_read_is_answered_exactly_once() {
        // Regression: the primary dies with the client's read in flight.
        // The pending request must be retargeted to the survivor and the
        // core must see exactly one reply — not zero (hang) and not a
        // stale one from the dead router.
        let mut sys = replicated_system();
        let base = sys
            .address_map(PROCESSOR_1)
            .unwrap()
            .window_base(REPLICA_PRIMARY)
            .unwrap();
        // Pre-seed both members directly so the value is replicated
        // regardless of death timing.
        sys.memory_mut(REPLICA_PRIMARY).unwrap().write(0, 777);
        sys.memory_mut(REPLICA_BACKUP).unwrap().write(0, 777);
        let program = assemble(&format!(
            "LIW R1, {base}\n\
             XOR R0, R0, R0\n\
             LD R3, R1, R0\n\
             LIW R4, 0x20\n\
             ST R3, R4, R0\n\
             HALT"
        ))
        .unwrap();
        sys.memory_mut(PROCESSOR_1)
            .unwrap()
            .write_block(0, program.words());
        // The primary's router is dead from cycle 0: the very first read
        // is swallowed and must be recovered via retry + failover.
        sys.set_fault_plan(FaultPlan::new(22).with_router_down(RouterAddr::new(1, 1), 0))
            .unwrap();
        sys.activate_directly(PROCESSOR_1).unwrap();
        sys.run_until_halted(4_000_000)
            .expect("the read fails over to the survivor");
        assert_eq!(sys.memory(PROCESSOR_1).unwrap().read(0x20), 777);
        assert_eq!(sys.directory().serving(REPLICA_PRIMARY), REPLICA_BACKUP);
    }

    #[test]
    fn unreplicated_node_death_is_a_typed_error() {
        // A plain (unreplicated) memory dies: clients must get the typed
        // NodeDown error instead of hanging or a bare Unreachable.
        use hermes_noc::Routing;
        let mut config = NocConfig::mesh(3, 3);
        config.routing = Routing::FaultTolerantXy;
        let mut sys = System::builder()
            .noc(config)
            .serial_at(RouterAddr::new(0, 0))
            .processor_at(RouterAddr::new(0, 1))
            .memory_at(RouterAddr::new(1, 1))
            .build()
            .unwrap();
        let memory = NodeId(2);
        let base = sys
            .address_map(PROCESSOR_1)
            .unwrap()
            .window_base(memory)
            .unwrap();
        let program = assemble(&format!(
            "LIW R1, {base}\n\
             XOR R0, R0, R0\n\
             LD R3, R1, R0\n\
             HALT"
        ))
        .unwrap();
        sys.memory_mut(PROCESSOR_1)
            .unwrap()
            .write_block(0, program.words());
        sys.set_fault_plan(FaultPlan::new(23).with_router_down(RouterAddr::new(1, 1), 0))
            .unwrap();
        sys.activate_directly(PROCESSOR_1).unwrap();
        match sys.run_until_halted(4_000_000) {
            Err(SystemError::NodeDown { node, router }) => {
                assert_eq!(node, memory);
                assert_eq!(router, RouterAddr::new(1, 1));
            }
            other => panic!("expected NodeDown, got {other:?}"),
        }
        assert_eq!(sys.dead_nodes(), &[memory]);
    }
}

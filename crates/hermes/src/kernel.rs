//! The one cycle engine behind every [`KernelMode`]. [`Noc`](crate::Noc)
//! advances the clock only in windows of cycles through [`run_shard`] —
//! a [`step`](crate::Noc::step) is a one-cycle window — on a single shard
//! or sharded row-wise over a worker pool; the kernel modes differ only
//! in the shard count and in which routers a shard walks.
//!
//! A cycle is three sub-phases, each reading only state the previous
//! sub-phase left behind:
//!
//! 1. **local** — inject, routing/arbitration and drop-sink work that
//!    touches exactly one router and its endpoint;
//! 2. **decide** — collect the flit transfers every established
//!    connection would make, reading neighbour buffer fullness but
//!    mutating nothing;
//! 3. **apply** — each source router pops the decided flits from its own
//!    buffers, runs corruption rolls and delivers: locally to its
//!    endpoint, directly into a same-shard neighbour's buffer (staged in
//!    `inbox_local` so every pop of the cycle precedes every push), or
//!    into the shard's `outbox` for a foreign-shard neighbour.
//!
//! Cross-shard flits are *mailbox-deferred*: the destination shard drains
//! every foreign outbox at the start of its next cycle, before any state
//! of that cycle is read. Because a flit that arrives in cycle `c` is not
//! routable before `c + 1` (`Flit::arrived` gates the header scan) and
//! nothing reads the destination buffer between the end of `c` and the
//! start of `c + 1`, draining at the next cycle's start is observably
//! identical to the sequential push at the end of `c`.
//!
//! A single shard owns the whole mesh, so it has no mailboxes to drain
//! and no barriers to wait at, and skips both (and their profiler laps).
//!
//! **Windows.** Every kernel batches `W` cycles per dispatch: one gate
//! release, `3W` barriers (none on a single shard) and one serial merge
//! instead of per-cycle dispatch and merge. This is sound whenever every
//! merge-time feedback path into the phases is quiet — link-health
//! failures, epoch announcements, deadlock recovery and scheduled stalls
//! all require an installed fault plan or a non-empty epoch list, so
//! [`Noc`](crate::Noc) collapses the window to 1 whenever either exists.
//! Side effects that cross router ownership — statistics, the
//! cycle-tagged packet-event stream, link-health observations — are
//! accumulated in per-shard [`ShardDelta`]s across the whole window and
//! merged serially (in shard order, which is ascending router order; and
//! in cycle order for the cycle-tagged stream) after the final barrier,
//! so the merged observables are independent of how routers were
//! scheduled. Combined with the counter-based fault RNG (keyed by fault
//! site and cycle, not draw order — see [`crate::fault`]), this makes
//! every kernel bit-identical for every window size and thread count.
//!
//! **Active-set walk.** Each shard walks only the routers whose activity
//! flag is set and retires a node once its router and source queue are
//! quiescent. Flags are only ever written by their owning shard (retire
//! and same-shard wake in apply, foreign wake while draining its own
//! mailbox), so the flag array needs no synchronisation beyond the
//! existing barriers. [`KernelMode::Reference`] walks every router of
//! its shard instead and retires none — the differential reference for
//! the active set. Its walk is never empty, so `Noc` pins it to
//! one-cycle windows: the idle-tail rewind of
//! [`run_until_idle`](crate::Noc::run_until_idle) finds the stopping
//! cycle from the last non-empty walk.
//!
//! [`KernelMode`]: crate::KernelMode
//! [`KernelMode::Reference`]: crate::KernelMode::Reference

use std::ops::Range;
use std::ptr::addr_of;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::addr::{Port, RouterAddr};
use crate::config::NocConfig;
use crate::endpoint::{LocalEndpoint, PacketId};
use crate::fault::FaultInjector;
use crate::flit::Flit;
use crate::metrics::PhaseProfile;
use crate::noc::{decide_route, DropKind, Epoch, RouteDecision};
use crate::router::Router;
use crate::routing::RouteTable;
use crate::stats::LinkId;
use crate::trace::{SpanEvent, SpanKind};

/// Routers owned by `shard` of `n_shards`: a contiguous row-major range
/// covering whole grid rows, so most neighbour reads stay shard-local
/// (torus wraparound and chiplet-boundary links ride the same cross-shard
/// outboxes as any other remote neighbour). Shards beyond the row count
/// come out empty.
pub(crate) fn shard_range(
    width: usize,
    height: usize,
    n_shards: usize,
    shard: usize,
) -> Range<usize> {
    let base = height / n_shards;
    let extra = height % n_shards;
    let start_row = shard * base + shard.min(extra);
    let rows = base + usize::from(shard < extra);
    (start_row * width)..((start_row + rows) * width)
}

/// A deferred link-health observation. Each directed link sees at most
/// one handshake outcome per cycle (a single input owns each output and
/// the handshake cadence admits one transfer), so per-link state is
/// independent of application order; only the order newly-dead links are
/// *discovered* in matters, and the merge replays decide-phase events
/// before apply-phase events in shard (= ascending router) order, exactly
/// like the sequential scan. Failures require an installed fault plan,
/// which collapses the window to one cycle, so they never straddle a
/// window; successes are pure streak resets and commute.
#[derive(Debug, Clone, Copy)]
pub(crate) enum HealthEvent {
    /// A timed-out (outage-blocked) or garbled hop handshake.
    Failure {
        /// The failed link.
        link: LinkId,
        /// Upstream router index (for wedged-worm flushing).
        idx: usize,
        /// Upstream output port index.
        out: usize,
        /// Whether a worm is wedged across the link (outage timeout) or
        /// still moving (garbled transfer).
        wedged: bool,
    },
    /// A clean hop handshake (resets the link's consecutive-failure run).
    Success(LinkId),
}

/// Everything one shard defers to the serial merge: statistics counters,
/// packet and health events and flits staged for other shards' routers.
/// With a window larger than one cycle the delta accumulates the whole
/// window before merging; the packet events, whose folds are
/// cycle-sensitive, carry their cycle in `SpanEvent::cycle`.
#[derive(Debug, Default)]
pub(crate) struct ShardDelta {
    pub flit_hops: u64,
    pub flits_delivered: u64,
    pub packets_delivered: u64,
    pub flits_dropped: u64,
    pub packets_dropped: u64,
    pub flits_corrupted: u64,
    pub router_stall_cycles: u64,
    pub link_down_blocks: u64,
    pub unreachable_drops: u64,
    pub misaddressed_drops: u64,
    pub rerouted_grants: u64,
    /// Packets discarded from a dead IP core's source queue before any
    /// of their flits entered the network.
    pub source_queue_drops: u64,
    /// Packet-lifecycle events of the local sub-phase, in ascending
    /// cycle order (cycles are walked in order): every header's inject,
    /// and while a tracer listens the route decisions and drops.
    pub events_local: Vec<(PacketId, SpanEvent)>,
    /// Packet-lifecycle events of the apply sub-phase: every header's
    /// and last flit's arrival (sink, delivered), and while a tracer
    /// listens the header's link hops.
    pub events_apply: Vec<(PacketId, SpanEvent)>,
    /// How many of `events_local` and `events_apply` the merge has
    /// replayed so far.
    pub replayed: [usize; 2],
    /// Health events observed in the local sub-phase (local ingress
    /// handshakes timing out against a dead router).
    pub health_local: Vec<HealthEvent>,
    /// Health events observed while deciding transfers (outage blocks).
    pub health_decide: Vec<HealthEvent>,
    /// Health events observed while applying transfers (garbles/successes).
    pub health_apply: Vec<HealthEvent>,
    /// Transfers decided for this shard's routers this cycle:
    /// `(router, input, output)`. Consumed and cleared every cycle.
    pub transfers: Vec<(usize, usize, usize)>,
    /// Connections with a flit ready but the downstream buffer full this
    /// cycle: `(router, input)`. Consumed every cycle into the routers'
    /// own `blocked_cycles` counters.
    pub blocked_conns: Vec<(usize, usize)>,
    /// Connections whose zero-progress run crossed the deadlock-recovery
    /// timeout; flushed at the merge. Only populated while recovery is
    /// armed, which requires a non-empty epoch list and therefore a
    /// one-cycle window.
    pub stuck: Vec<(usize, usize)>,
    /// Flits leaving this shard's routers for a foreign shard's input
    /// buffers: `(destination router, input port index, flit)`. Drained
    /// by the destination shard at the start of its next cycle and
    /// cleared by the owner in its next apply sub-phase.
    pub outbox: Vec<(usize, usize, Flit)>,
    /// Flits moving between this shard's own routers this cycle, staged
    /// so every pop of the apply sub-phase precedes every push.
    pub inbox_local: Vec<(usize, usize, Flit)>,
    /// Scratch: the active-set walk of the current cycle (kept across
    /// cycles to avoid re-allocating).
    pub walk: Vec<usize>,
    /// Last cycle of the window in which this shard's walk was
    /// non-empty; 0 if it never was. Lets `run_until_idle` rewind the
    /// idle tail of a window to the exact per-cycle stopping cycle.
    pub last_busy: u64,
}

impl ShardDelta {
    /// Resets the delta for the next window, keeping allocations.
    pub fn clear(&mut self) {
        self.flit_hops = 0;
        self.flits_delivered = 0;
        self.packets_delivered = 0;
        self.flits_dropped = 0;
        self.packets_dropped = 0;
        self.flits_corrupted = 0;
        self.router_stall_cycles = 0;
        self.link_down_blocks = 0;
        self.unreachable_drops = 0;
        self.misaddressed_drops = 0;
        self.rerouted_grants = 0;
        self.source_queue_drops = 0;
        self.events_local.clear();
        self.events_apply.clear();
        self.replayed = [0; 2];
        self.health_local.clear();
        self.health_decide.clear();
        self.health_apply.clear();
        self.transfers.clear();
        self.blocked_conns.clear();
        self.stuck.clear();
        self.outbox.clear();
        self.inbox_local.clear();
        self.walk.clear();
        self.last_busy = 0;
    }
}

/// The per-window context shared by every shard: raw views of the router
/// and endpoint arrays plus the immutable inputs of the window.
///
/// # Safety contract
///
/// The pointers are valid for the duration of one window (from
/// publication until the final barrier) and accessed under the sub-phase
/// discipline: a shard takes `&mut` only to routers/endpoints/deltas it
/// owns, takes `&` to foreign routers only in sub-phases where no shard
/// mutates routers (decide), reads foreign outboxes only in the
/// mailbox-drain slot (two barriers away from both the owner's writes
/// and its clear), and writes activity flags and flit counts only for
/// nodes it owns.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CycleShared {
    pub routers: *mut Router,
    pub endpoints: *mut LocalEndpoint,
    pub deltas: *mut ShardDelta,
    /// Per-node activity flags; each shard reads and writes only the
    /// slice covering its own router range.
    pub active: *mut bool,
    /// The statistics' per-link flit table (`router × 5 + port`) and
    /// per-router local-ingress table; each shard counts only into the
    /// entries of its own routers.
    pub link_flits: *mut u64,
    pub local_ingress: *mut u64,
    pub n_routers: usize,
    pub n_shards: usize,
    pub config: *const NocConfig,
    /// Null unless the topology routes by a precomputed healthy table
    /// (the torus — see [`Topology::requires_route_table`]
    /// (crate::Topology::requires_route_table)).
    pub base_table: *const RouteTable,
    pub epochs: *const Epoch,
    pub epochs_len: usize,
    /// Null when no fault plan is installed.
    pub injector: *const FaultInjector,
    /// First cycle of the window.
    pub now: u64,
    /// Number of cycles in this window (≥ 1). Anything that feeds merge
    /// output back into the phases forces a window of 1.
    pub window: u32,
    /// Whether the deadlock-recovery timeout is armed this window
    /// (fault-tolerant routing, a positive timeout and at least one
    /// epoch — which also forces `window == 1`).
    pub recovery_armed: bool,
    /// Whether the health monitor was pristine at the start of the
    /// window; success observations are skipped while it is (they would
    /// be no-ops: only links with a prior failure entry are tracked).
    /// Failures cannot occur without a fault plan, and a fault plan
    /// forces a one-cycle window, so the flag cannot go stale mid-window.
    pub pristine: bool,
    /// Whether packet-lifecycle tracing is on; when false the events
    /// only the tracer folds (route, hop, drop) cost one predictable
    /// branch per site.
    pub trace_enabled: bool,
    /// Whether every shard walks all of its routers every cycle and never
    /// retires one ([`KernelMode::Reference`]) instead of walking the
    /// active set.
    ///
    /// [`KernelMode::Reference`]: crate::KernelMode::Reference
    pub full_walk: bool,
    /// Null unless the kernel phase profiler is enabled.
    pub profiler: *const PhaseProfiler,
}

// SAFETY: the raw pointers are only dereferenced during an active window
// under the barrier discipline documented on the struct; between windows
// the copies held by the worker gate are stale and never touched.
unsafe impl Send for CycleShared {}
unsafe impl Sync for CycleShared {}

/// Clamps a buffer length into the `u8` occupancy field of a span event.
fn occupancy_of(len: usize) -> u8 {
    len.min(usize::from(u8::MAX)) as u8
}

impl CycleShared {
    unsafe fn config(&self) -> &NocConfig {
        &*self.config
    }

    unsafe fn base_table(&self) -> Option<&RouteTable> {
        self.base_table.as_ref()
    }

    unsafe fn epochs(&self) -> &[Epoch] {
        if self.epochs_len == 0 {
            &[]
        } else {
            std::slice::from_raw_parts(self.epochs, self.epochs_len)
        }
    }

    unsafe fn injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    unsafe fn profiler(&self) -> Option<&PhaseProfiler> {
        self.profiler.as_ref()
    }

    unsafe fn router(&self, idx: usize) -> &Router {
        debug_assert!(idx < self.n_routers);
        &*self.routers.add(idx)
    }

    #[allow(clippy::mut_from_ref)] // raw-view accessor; disjointness is the caller's contract
    unsafe fn router_mut(&self, idx: usize) -> &mut Router {
        debug_assert!(idx < self.n_routers);
        &mut *self.routers.add(idx)
    }

    unsafe fn endpoint(&self, idx: usize) -> &LocalEndpoint {
        debug_assert!(idx < self.n_routers);
        &*self.endpoints.add(idx)
    }

    #[allow(clippy::mut_from_ref)]
    unsafe fn endpoint_mut(&self, idx: usize) -> &mut LocalEndpoint {
        debug_assert!(idx < self.n_routers);
        &mut *self.endpoints.add(idx)
    }
}

/// Sub-phase 1: router-local work — source injection, routing/arbitration
/// and paced discarding of dropped packets — for every node in `nodes`.
///
/// # Safety
///
/// The caller must guarantee exclusive access to the routers, endpoints
/// and delta named by `nodes`/`delta` (disjoint shards, or a single
/// thread).
unsafe fn phase_local(
    sh: &CycleShared,
    now: u64,
    nodes: impl Iterator<Item = usize>,
    delta: &mut ShardDelta,
) {
    let config = sh.config();
    let base_table = sh.base_table();
    let epochs = sh.epochs();
    let injector = sh.injector();
    let cadence = u64::from(config.cycles_per_flit);
    // From header arrival to header forwarded is `routing_cycles ×
    // cycles_per_flit` (the paper's latency formula charges R_i flit
    // periods per router). One cycle is consumed by the grant itself.
    let decision_delay = u64::from(config.routing_cycles) * cadence - 1;
    for idx in nodes {
        let router = sh.router_mut(idx);
        let endpoint = sh.endpoint_mut(idx);
        let here = router.addr;

        // --- buffer high-water mark, sampled at the cycle boundary
        // (before any of this cycle's pushes or pops). A router skipped
        // by the active-set walk holds no flits, so the skip cannot
        // miss a peak and the counter stays kernel-identical. ---
        let deepest = router
            .inputs
            .iter()
            .map(|p| p.buffer.len())
            .max()
            .unwrap_or(0) as u64;
        if deepest > router.counters.buffer_peak {
            router.counters.buffer_peak = deepest;
        }

        // --- node death: a dead IP core starts no new packets, so its
        // not-yet-started queue is discarded (it would otherwise pin the
        // node active forever). A packet already mid-injection finishes:
        // truncating it would wedge healthy links downstream with nothing
        // for diagnosis to condemn. A dead *router* additionally stops
        // acknowledging the local ingress handshake, so a mid-injection
        // worm stalls there and each timed-out attempt feeds the health
        // monitor — that is how a dead router carrying only its own
        // traffic still gets diagnosed. ---
        let router_dead = injector.is_some_and(|inj| inj.router_down(here, now));
        if injector.is_some_and(|inj| inj.endpoint_down(here, now)) {
            let keep = usize::from(endpoint.outgoing.front().is_some_and(|p| p.started));
            while endpoint.outgoing.len() > keep {
                endpoint.outgoing.pop_back();
                delta.source_queue_drops += 1;
            }
        }

        // --- inject: the source interface pushes its next flit into the
        // local input buffer at the handshake cadence. ---
        if now >= endpoint.next_inject_ok {
            if router_dead {
                if endpoint.peek_inject().is_some() {
                    endpoint.next_inject_ok = now + cadence;
                    delta.health_local.push(HealthEvent::Failure {
                        link: (here, Port::Local),
                        idx,
                        out: Port::Local.index(),
                        wedged: true,
                    });
                }
            } else if let Some((id, value)) = endpoint.peek_inject() {
                let local_in = &mut router.inputs[Port::Local.index()];
                if !local_in.buffer.is_full() {
                    let pushed = local_in.buffer.push(Flit::new(value, id, here, now));
                    debug_assert!(pushed);
                    let header = endpoint.outgoing.front().is_some_and(|p| !p.started);
                    endpoint.pop_inject();
                    endpoint.next_inject_ok = now + cadence;
                    *sh.local_ingress.add(idx) += 1;
                    delta.flit_hops += 1;
                    if header {
                        delta.events_local.push((
                            id,
                            SpanEvent {
                                cycle: now,
                                kind: SpanKind::Inject,
                                router: here,
                                port: Port::Local,
                                occupancy: occupancy_of(local_in.buffer.len()),
                            },
                        ));
                    }
                }
            }
        }

        // --- routing: the control logic runs arbitration and the routing
        // algorithm for at most one pending header. A dead router's
        // control logic grants nothing and counts nothing: upstream
        // handshakes time out instead, and the health monitor's
        // escalation eventually purges the node. ---
        let stalled = !router_dead && injector.is_some_and(|inj| inj.router_stalled(here, now));
        if router_dead {
            // no grants, no stall bookkeeping, no sink progress
        } else if stalled {
            if now >= router.control_busy_until {
                delta.router_stall_cycles += 1;
            }
        } else if now >= router.control_busy_until {
            let mut granted = None;
            let mut dropped = None;
            let mut blocked = false;
            for in_idx in router.arbiter.scan_order() {
                let input = &router.inputs[in_idx];
                if !input.has_pending_header(now) {
                    continue;
                }
                let Some(head) = input.buffer.peek() else {
                    continue;
                };
                let dest = RouterAddr::from_flit(head.value, config.flit_bits);
                let wid = head.packet;
                match decide_route(
                    config,
                    base_table,
                    epochs,
                    here,
                    Port::from_index(in_idx),
                    dest,
                    now,
                ) {
                    RouteDecision::Forward(out_port, rerouted) => {
                        debug_assert!(
                            router.has_port(out_port, &config.topology),
                            "routing picked a port off the grid edge"
                        );
                        let out = out_port.index();
                        if router.outputs[out].owner.is_none() {
                            if injector.is_some_and(|inj| inj.roll_drop(here, now)) {
                                dropped = Some((in_idx, DropKind::Fault, wid));
                            } else {
                                granted = Some((in_idx, out, rerouted, wid));
                            }
                            break;
                        }
                        blocked = true;
                    }
                    RouteDecision::Misaddressed => {
                        dropped = Some((in_idx, DropKind::Misaddressed, wid));
                        break;
                    }
                    RouteDecision::Unreachable => {
                        dropped = Some((in_idx, DropKind::Unreachable, wid));
                        break;
                    }
                }
            }
            if let Some((in_idx, out, rerouted, wid)) = granted {
                router.inputs[in_idx].conn = Some(out);
                router.inputs[in_idx].conn_active_at = now + decision_delay;
                router.inputs[in_idx].cur_packet = Some(wid);
                router.outputs[out].owner = Some(in_idx);
                router.control_busy_until = now + decision_delay;
                router.arbiter.grant(in_idx);
                router.counters.grants += 1;
                if rerouted {
                    delta.rerouted_grants += 1;
                }
                if sh.trace_enabled {
                    delta.events_local.push((
                        wid,
                        SpanEvent {
                            cycle: now,
                            kind: SpanKind::Route,
                            router: here,
                            port: Port::from_index(out),
                            occupancy: occupancy_of(router.inputs[in_idx].buffer.len()),
                        },
                    ));
                }
            } else if let Some((in_idx, kind, wid)) = dropped {
                // The control logic discards the packet instead of routing
                // it: it occupies the control for the same charge and
                // advances the arbiter, but opens no connection.
                router.inputs[in_idx].cur_packet = Some(wid);
                router.inputs[in_idx].start_sink(now);
                router.control_busy_until = now + decision_delay;
                router.arbiter.grant(in_idx);
                match kind {
                    DropKind::Fault => delta.packets_dropped += 1,
                    DropKind::Unreachable => delta.unreachable_drops += 1,
                    DropKind::Misaddressed => delta.misaddressed_drops += 1,
                }
                if sh.trace_enabled {
                    delta.events_local.push((
                        wid,
                        SpanEvent {
                            cycle: now,
                            kind: SpanKind::Drop,
                            router: here,
                            port: Port::from_index(in_idx),
                            occupancy: occupancy_of(router.inputs[in_idx].buffer.len()),
                        },
                    ));
                }
            } else if blocked {
                router.counters.blocked_cycles += 1;
            }
        }

        // --- sink: input ports discarding a dropped packet consume one
        // flit per handshake period, so the upstream wormhole keeps
        // moving and the drop never wedges the path. A dead router's
        // sinks freeze with the rest of its control logic. ---
        for in_idx in 0..router.inputs.len() {
            if router_dead {
                break;
            }
            let input = &mut router.inputs[in_idx];
            if !input.sinking || now < input.sink_ready_at {
                continue;
            }
            let Some(head) = input.buffer.peek() else {
                continue;
            };
            if head.arrived >= now {
                continue;
            }
            let Some(flit) = input.buffer.pop() else {
                continue;
            };
            input.sink_ready_at = now + cadence;
            input.fwd_count += 1;
            if input.fwd_count == 2 {
                input.fwd_expected = Some(usize::from(flit.value) + 2);
            }
            if input.fwd_expected == Some(input.fwd_count) {
                input.close();
            }
            delta.flits_dropped += 1;
        }
    }
}

/// Sub-phase 2: collect the flit transfer every established connection of
/// `nodes` would make this cycle. Mutates nothing but `delta`; reads
/// neighbour buffer fullness, so it must not run concurrently with any
/// router mutation.
///
/// # Safety
///
/// All shards must be between the local and apply barriers of the same
/// cycle (no router is mutated anywhere while decide runs).
unsafe fn phase_decide(
    sh: &CycleShared,
    now: u64,
    nodes: impl Iterator<Item = usize>,
    delta: &mut ShardDelta,
) {
    let injector = sh.injector();
    for idx in nodes {
        let router = sh.router(idx);
        for (in_idx, input) in router.inputs.iter().enumerate() {
            let Some(out) = input.conn else { continue };
            if now < input.conn_active_at {
                continue;
            }
            if now < router.outputs[out].next_free {
                continue;
            }
            let Some(flit) = input.buffer.peek() else {
                continue;
            };
            if flit.arrived >= now {
                continue;
            }
            let out_port = Port::from_index(out);
            if injector.is_some_and(|inj| inj.link_down(router.addr, out_port, now)) {
                delta.link_down_blocks += 1;
                // A ready transfer blocked by the outage is one failed
                // hop handshake; each link sees at most one per cycle
                // (a single input owns each output).
                delta.health_decide.push(HealthEvent::Failure {
                    link: (router.addr, out_port),
                    idx,
                    out,
                    wedged: true,
                });
                continue;
            }
            let has_space = match (out_port, router.links[out].next) {
                (Port::Local, _) => true,
                (_, Some((next_idx, in_port))) => {
                    !sh.router(next_idx).inputs[in_port].buffer.is_full()
                }
                (_, None) => continue,
            };
            if has_space {
                delta.transfers.push((idx, in_idx, out));
            } else {
                // A flit is ready but the downstream buffer is full: zero
                // forward progress this cycle. The apply sub-phase counts
                // consecutive runs; the merge flushes the worm once they
                // exceed the deadlock-recovery timeout.
                delta.blocked_conns.push((idx, in_idx));
            }
        }
    }
}

/// Sub-phase 3: apply the decided transfers on their source routers —
/// pop, corruption roll, then local delivery, a staged same-shard push
/// or the foreign-shard outbox. Also folds the cycle's zero-progress
/// bookkeeping into the routers' own counters and finally lands every
/// staged same-shard flit (so all pops of the cycle precede all pushes,
/// exactly like the sequential engine).
///
/// # Safety
///
/// Every router index in `delta.transfers`/`delta.blocked_conns` and
/// every staged destination in `delta.inbox_local` must lie in `range`,
/// the caller must exclusively own the routers in `range`, and all
/// shards must have passed the decide barrier (no one reads foreign
/// buffers any more this cycle).
unsafe fn phase_apply_src(sh: &CycleShared, now: u64, range: Range<usize>, delta: &mut ShardDelta) {
    let config = sh.config();
    let injector = sh.injector();

    // Zero-progress bookkeeping lives on the input ports themselves, so
    // it must fold in cycle by cycle (the reset below races it only in
    // the trivial sense that a connection is either blocked or
    // transferring in a given cycle, never both).
    let mut blocked = std::mem::take(&mut delta.blocked_conns);
    for &(idx, in_idx) in &blocked {
        let input = &mut sh.router_mut(idx).inputs[in_idx];
        input.blocked_cycles = input.blocked_cycles.saturating_add(1);
        if sh.recovery_armed && input.blocked_cycles >= config.deadlock_timeout {
            delta.stuck.push((idx, in_idx));
        }
    }
    blocked.clear();
    delta.blocked_conns = blocked;

    // The previous cycle's outbox has been drained by every destination
    // shard (two barriers ago); reclaim it for this cycle's staging.
    delta.outbox.clear();

    let transfers = std::mem::take(&mut delta.transfers);
    for &(idx, in_idx, out) in &transfers {
        let router = sh.router_mut(idx);
        let here = router.addr;
        let out_port = Port::from_index(out);
        let link: LinkId = (here, out_port);
        // The transfer was decided on a peeked flit this same cycle,
        // so the pop cannot miss; skipping keeps the phase total even
        // if that invariant were ever broken.
        let Some(mut flit) = router.inputs[in_idx].buffer.pop() else {
            continue;
        };
        // Off-chip links (chiplet boundaries) pace slower than the on-chip
        // handshake; on-chip links keep the multiplier at 1 so the mesh is
        // byte-identical to the pre-topology kernel.
        let hop = router.links[out];
        router.outputs[out].next_free = now + hop.hold;
        router.counters.flits_forwarded += 1;
        delta.flit_hops += 1;
        *sh.link_flits.add(idx * 5 + out) += 1;

        // Track packet boundaries on the forwarding side.
        let input = &mut router.inputs[in_idx];
        input.blocked_cycles = 0;
        input.fwd_count += 1;
        if input.fwd_count == 2 {
            input.fwd_expected = Some(usize::from(flit.value) + 2);
        }
        let flit_index = input.fwd_count;
        let close = input.fwd_expected == Some(input.fwd_count);
        if close {
            input.close();
            router.outputs[out].owner = None;
        }

        // Payload flits (3rd wire flit onward) may be corrupted while
        // crossing the link; header and size flits are exempt so the
        // wormhole bookkeeping itself stays sound (see `fault`).
        let mut garbled = false;
        if flit_index >= 3 {
            if let Some(inj) = injector {
                if inj.roll_corrupt(link, now) {
                    flit.value = inj.corrupt_value(link, now, flit.value, config.flit_bits);
                    delta.flits_corrupted += 1;
                    garbled = true;
                }
            }
        }
        if garbled {
            delta.health_apply.push(HealthEvent::Failure {
                link,
                idx,
                out,
                wedged: false,
            });
        } else if !sh.pristine {
            delta.health_apply.push(HealthEvent::Success(link));
        }

        // On-chip hops land this cycle (readable next cycle, as before);
        // off-chip hops stamp a future arrival, and the `arrived < now`
        // gates keep the flit untouchable until the channel delay elapses
        // — sound under any batch window.
        flit.arrived = now + hop.latency;
        let occupancy = occupancy_of(router.inputs[in_idx].buffer.len());
        match out_port {
            Port::Local => {
                delta.flits_delivered += 1;
                let Some((id, kind)) = sh.endpoint_mut(idx).receive(flit) else {
                    continue;
                };
                if kind == SpanKind::Delivered {
                    delta.packets_delivered += 1;
                }
                delta.events_apply.push((
                    id,
                    SpanEvent {
                        cycle: now,
                        kind,
                        router: here,
                        port: Port::Local,
                        occupancy,
                    },
                ));
            }
            _ => {
                // Decide only emits a transfer over a link with a
                // downstream router.
                let Some((next_idx, in_port)) = hop.next else {
                    continue;
                };
                if sh.trace_enabled && flit_index == 1 {
                    delta.events_apply.push((
                        flit.packet,
                        SpanEvent {
                            cycle: now,
                            kind: SpanKind::Hop,
                            router: here,
                            port: out_port,
                            occupancy,
                        },
                    ));
                }
                if range.contains(&next_idx) {
                    delta.inbox_local.push((next_idx, in_port, flit));
                } else {
                    delta.outbox.push((next_idx, in_port, flit));
                }
            }
        }
    }
    let mut transfers = transfers;
    transfers.clear();
    delta.transfers = transfers;

    // Land the same-shard flits: every pop above is done, so pushing now
    // reproduces the sequential pops-then-pushes order exactly. The
    // arrival also wakes the destination for the next cycle's walk —
    // flags are only ever written by the shard owning the node.
    let mut inbox = std::mem::take(&mut delta.inbox_local);
    for &(dst_idx, in_idx, flit) in &inbox {
        debug_assert!(range.contains(&dst_idx));
        let pushed = sh.router_mut(dst_idx).inputs[in_idx].buffer.push(flit);
        debug_assert!(pushed, "downstream buffer checked for space");
        *sh.active.add(dst_idx) = true;
    }
    inbox.clear();
    delta.inbox_local = inbox;
}

/// Drains every *foreign* shard's outbox into the input buffers of the
/// routers in `range`, waking each destination node. Runs at the start
/// of a shard's cycle (and once after the window's last cycle), so a
/// flit sent in cycle `c` is visible from cycle `c + 1` on — exactly
/// when the sequential engine first lets it be observed. Each downstream
/// buffer is fed by exactly one upstream output, so at most one staged
/// flit targets any buffer per cycle.
///
/// # Safety
///
/// All shards must have passed the apply barrier of the previous cycle
/// (outboxes are complete, and their owners will not clear them until
/// two barriers from now); the caller must exclusively own the routers
/// in `range` and be the only shard with index `shard`.
unsafe fn drain_mailboxes(sh: &CycleShared, range: &Range<usize>, shard: usize) {
    for j in 0..sh.n_shards {
        if j == shard {
            // Own transfers were staged in `inbox_local`, never the
            // outbox; skipping also keeps this loop free of references
            // into the delta this shard holds `&mut`.
            continue;
        }
        // Field-granular raw projection: only the foreign delta's
        // `outbox` is ever referenced, never the delta as a whole.
        let outbox = &*addr_of!((*sh.deltas.add(j)).outbox);
        for &(dst_idx, in_idx, flit) in outbox {
            if !range.contains(&dst_idx) {
                continue;
            }
            let pushed = sh.router_mut(dst_idx).inputs[in_idx].buffer.push(flit);
            debug_assert!(pushed, "downstream buffer checked for space");
            *sh.active.add(dst_idx) = true;
        }
    }
}

/// One timed bucket of the kernel phase profiler. `ApplyDst` now times
/// the mailbox drains (the windowed engine's replacement for the old
/// apply-dst sub-phase).
#[derive(Debug, Clone, Copy)]
enum ProfiledPhase {
    Local,
    Decide,
    ApplySrc,
    ApplyDst,
    Barrier,
}

/// Wall-clock nanoseconds accumulated per kernel sub-phase — and per
/// barrier wait, summed across every shard — plus the number of profiled
/// cycles. Purely an observer: it reads the monotonic clock and touches
/// no simulation state, so enabling it cannot change any observable
/// (fingerprints stay bit-identical; only wall-clock throughput pays the
/// few `Instant::now` calls per shard per cycle).
#[derive(Debug, Default)]
pub(crate) struct PhaseProfiler {
    local: AtomicU64,
    decide: AtomicU64,
    apply_src: AtomicU64,
    apply_dst: AtomicU64,
    barrier: AtomicU64,
    cycles: AtomicU64,
}

impl PhaseProfiler {
    fn add(&self, phase: ProfiledPhase, nanos: u64) {
        let bucket = match phase {
            ProfiledPhase::Local => &self.local,
            ProfiledPhase::Decide => &self.decide,
            ProfiledPhase::ApplySrc => &self.apply_src,
            ProfiledPhase::ApplyDst => &self.apply_dst,
            ProfiledPhase::Barrier => &self.barrier,
        };
        bucket.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Counts `n` profiled cycles (one step, or one whole window).
    pub fn bump_cycles(&self, n: u64) {
        self.cycles.fetch_add(n, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot (the simulation is quiescent whenever
    /// this is called, so relaxed loads observe every preceding cycle).
    pub fn snapshot(&self) -> PhaseProfile {
        PhaseProfile {
            cycles: self.cycles.load(Ordering::Relaxed),
            local_nanos: self.local.load(Ordering::Relaxed),
            decide_nanos: self.decide.load(Ordering::Relaxed),
            apply_src_nanos: self.apply_src.load(Ordering::Relaxed),
            apply_dst_nanos: self.apply_dst.load(Ordering::Relaxed),
            barrier_nanos: self.barrier.load(Ordering::Relaxed),
        }
    }
}

/// A stopwatch over the profiler: `mark` charges the time since the last
/// mark to one bucket. Compiles to nothing when the profiler is off.
struct Lap<'a> {
    profiler: Option<&'a PhaseProfiler>,
    last: Option<Instant>,
}

impl<'a> Lap<'a> {
    fn start(profiler: Option<&'a PhaseProfiler>) -> Self {
        Self {
            profiler,
            last: profiler.map(|_| Instant::now()),
        }
    }

    fn mark(&mut self, phase: ProfiledPhase) {
        if let (Some(profiler), Some(last)) = (self.profiler, self.last.as_mut()) {
            let now = Instant::now();
            profiler.add(phase, now.duration_since(*last).as_nanos() as u64);
            *last = now;
        }
    }
}

impl std::fmt::Debug for Lap<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lap")
            .field("enabled", &self.profiler.is_some())
            .finish()
    }
}

/// Waits for every shard at `barrier` and charges the wait to the
/// profiler. A lone shard (`None`) has nobody to wait for and skips both.
#[inline]
fn sync(barrier: Option<&SpinBarrier>, lap: &mut Lap<'_>) {
    if let Some(barrier) = barrier {
        barrier.wait();
        lap.mark(ProfiledPhase::Barrier);
    }
}

/// Runs `sh.window` cycles of the fused three-barrier engine for
/// `shard`: each cycle drains the shard's mailbox (from the second cycle
/// on), walks the shard's nodes — the active set, or every node under a
/// full walk — through local → decide → apply, and retires active-set
/// nodes that went quiescent; a final drain after the last cycle lands
/// the window's trailing cross-shard flits so the merged state matches
/// the end-of-cycle state of a per-cycle run exactly. Every
/// participating shard (including the caller) must call this exactly
/// once per window with the same `sh`. A single shard passes no
/// `barrier` and skips the shard arithmetic, the mailboxes and the
/// barriers.
///
/// # Safety
///
/// `sh` must be a valid [`CycleShared`] for this window, `barrier` must
/// have as many participants as `sh.n_shards` (`None` exactly when that
/// is one), and each shard index in `0..n_shards` must be claimed by
/// exactly one concurrent caller.
#[inline]
pub(crate) unsafe fn run_shard(sh: &CycleShared, shard: usize, barrier: Option<&SpinBarrier>) {
    debug_assert_eq!(barrier.is_none(), sh.n_shards == 1);
    debug_assert!(sh.window >= 1, "a window is at least one cycle");
    let sharded = barrier.is_some();
    let range = if sharded {
        let config = sh.config();
        shard_range(
            usize::from(config.width()),
            usize::from(config.height()),
            sh.n_shards,
            shard,
        )
    } else {
        0..sh.n_routers
    };
    let mut lap = Lap::start(sh.profiler());
    let delta = &mut *sh.deltas.add(shard);
    for step in 0..u64::from(sh.window) {
        let now = sh.now + step;
        if sharded && step > 0 {
            // Cross-shard flits sent in the previous cycle land before
            // anything of this cycle reads the buffers.
            drain_mailboxes(sh, &range, shard);
            lap.mark(ProfiledPhase::ApplyDst);
        }
        let mut walk = std::mem::take(&mut delta.walk);
        walk.clear();
        if sh.full_walk {
            walk.extend(range.clone());
        } else {
            walk.extend(range.clone().filter(|&idx| *sh.active.add(idx)));
        }
        if !walk.is_empty() {
            delta.last_busy = now;
        }
        phase_local(sh, now, walk.iter().copied(), delta);
        lap.mark(ProfiledPhase::Local);
        sync(barrier, &mut lap);
        phase_decide(sh, now, walk.iter().copied(), delta);
        lap.mark(ProfiledPhase::Decide);
        sync(barrier, &mut lap);
        phase_apply_src(sh, now, range.clone(), delta);
        // Retire active-set nodes that went quiescent this cycle. A node
        // retired here that a foreign shard just sent a flit to is
        // re-woken by the next drain, before anyone observes the flags.
        if !sh.full_walk {
            for &idx in &walk {
                if sh.router(idx).is_idle() && sh.endpoint(idx).outgoing.is_empty() {
                    *sh.active.add(idx) = false;
                }
            }
        }
        lap.mark(ProfiledPhase::ApplySrc);
        delta.walk = walk;
        sync(barrier, &mut lap);
    }
    if sharded {
        // Land the last cycle's cross-shard flits before the merge reads
        // or snapshots any router state.
        drain_mailboxes(sh, &range, shard);
        lap.mark(ProfiledPhase::ApplyDst);
        sync(barrier, &mut lap);
    }
}

/// How long a waiter busy-spins on the barrier before yielding the CPU.
const SPIN_BUDGET: u32 = 256;

/// How many `yield_now` rounds follow the spin budget before the waiter
/// parks on the barrier's condvar. Short enough that an oversubscribed
/// or single-CPU host stops burning timeslices; long enough that a
/// healthy rendezvous never pays a syscall.
const YIELD_BUDGET: u32 = 64;

/// A sense-counting barrier that spins briefly, yields briefly, and then
/// blocks. `wait` releases everyone once `total` participants have
/// arrived.
#[derive(Debug)]
pub(crate) struct SpinBarrier {
    arrived: AtomicUsize,
    generation: AtomicUsize,
    total: usize,
    /// Waiters parked (or about to park) on the condvar; the releaser
    /// only takes the lock when this is non-zero, so the fast path stays
    /// lock-free.
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl SpinBarrier {
    pub fn new(total: usize) -> Self {
        Self {
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            total: total.max(1),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    pub fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.arrived.store(0, Ordering::Release);
            // SeqCst orders this store against the sleeper-count load
            // below and the sleeper's own (count-increment, generation
            // re-check) pair: either we observe the sleeper and notify,
            // or the sleeper's re-check under the lock observes the new
            // generation and never blocks.
            self.generation.store(gen.wrapping_add(1), Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                drop(self.lock.lock().expect("barrier lock poisoned"));
                self.cv.notify_all();
            }
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                if spins < SPIN_BUDGET {
                    std::hint::spin_loop();
                } else if spins < SPIN_BUDGET + YIELD_BUDGET {
                    std::thread::yield_now();
                } else {
                    self.sleep(gen);
                    return;
                }
                spins += 1;
            }
        }
    }

    /// Blocks until the generation moves past `gen`. Both budgets are
    /// exhausted: the host is oversubscribed (or single-CPU), so a
    /// syscall beats burning the timeslice the releaser needs.
    #[cold]
    fn sleep(&self, gen: usize) {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut guard = self.lock.lock().expect("barrier lock poisoned");
        while self.generation.load(Ordering::SeqCst) == gen {
            guard = self.cv.wait(guard).expect("barrier lock poisoned");
        }
        drop(guard);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// What the gate releases the workers into.
#[derive(Debug, Clone, Copy)]
enum Command {
    /// Nothing yet (initial state).
    Idle,
    /// Run one window over the published shared view.
    Run(CycleShared),
    /// Exit the worker loop.
    Shutdown,
}

/// Blocks workers between windows and publishes the next command.
/// Workers park on a condvar, so an idle pool costs nothing — important
/// both between windows and across long idle fast-forward gaps.
#[derive(Debug)]
struct Gate {
    state: Mutex<(u64, Command)>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Self {
        Self {
            state: Mutex::new((0, Command::Idle)),
            cv: Condvar::new(),
        }
    }

    fn release(&self, cmd: Command) {
        let mut st = self.state.lock().expect("worker gate poisoned");
        st.0 += 1;
        st.1 = cmd;
        self.cv.notify_all();
    }

    fn await_change(&self, last_seen: u64) -> (u64, Command) {
        let mut st = self.state.lock().expect("worker gate poisoned");
        while st.0 == last_seen {
            st = self.cv.wait(st).expect("worker gate poisoned");
        }
        *st
    }
}

/// The persistent worker pool of [`KernelMode::Parallel`]: `shards - 1`
/// plain `std::thread` workers (the stepping thread itself runs shard 0)
/// released window by window through the gate and synchronised by the
/// in-window barrier. Dropping the pool shuts the workers down and joins
/// them.
///
/// [`KernelMode::Parallel`]: crate::KernelMode::Parallel
pub(crate) struct WorkerPool {
    shards: usize,
    barrier: Arc<SpinBarrier>,
    gate: Arc<Gate>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns workers for shards `1..shards`.
    pub fn new(shards: usize) -> Self {
        debug_assert!(shards >= 2, "a 1-shard pool has no workers");
        let barrier = Arc::new(SpinBarrier::new(shards));
        let gate = Arc::new(Gate::new());
        let workers = (1..shards)
            .map(|shard| {
                let barrier = Arc::clone(&barrier);
                let gate = Arc::clone(&gate);
                std::thread::Builder::new()
                    .name(format!("hermes-shard-{shard}"))
                    .spawn(move || {
                        let mut last_seen = 0u64;
                        loop {
                            let (gen, cmd) = gate.await_change(last_seen);
                            last_seen = gen;
                            match cmd {
                                // SAFETY: the stepping thread published a
                                // view valid until the final barrier of
                                // this window, participates as shard 0 and
                                // assigned this worker a unique shard.
                                Command::Run(sh) => unsafe {
                                    run_shard(&sh, shard, Some(&barrier))
                                },
                                Command::Shutdown => return,
                                Command::Idle => {}
                            }
                        }
                    })
                    .expect("failed to spawn kernel worker thread")
            })
            .collect();
        Self {
            shards,
            barrier,
            gate,
            workers,
        }
    }

    /// Number of shards this pool synchronises (workers + the caller).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Runs one window of `sh.window` cycles: releases the workers on
    /// shards `1..n`, runs shard 0 on the calling thread, and returns
    /// once every shard has passed the final barrier (all mutation
    /// quiesced; `sh` may be dropped).
    ///
    /// # Safety
    ///
    /// Same contract as [`run_shard`]: `sh` must be valid for this
    /// window and `sh.n_shards` must equal this pool's shard count.
    pub unsafe fn run_window(&self, sh: CycleShared) {
        debug_assert_eq!(sh.n_shards, self.shards);
        self.gate.release(Command::Run(sh));
        run_shard(&sh, 0, Some(&self.barrier));
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.gate.release(Command::Shutdown);
        for handle in self.workers.drain(..) {
            // A worker that panicked already poisoned the run; don't
            // double-panic during drop.
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("shards", &self.shards)
            .field("workers", &self.workers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_are_row_aligned_and_cover_the_mesh() {
        for (width, height, shards) in [(4, 4, 2), (4, 4, 3), (16, 16, 8), (3, 5, 4), (2, 2, 8)] {
            let mut covered = Vec::new();
            for s in 0..shards {
                let r = shard_range(width, height, shards, s);
                assert_eq!(r.start % width, 0, "shard {s} does not start on a row");
                assert_eq!(r.end % width, 0, "shard {s} does not end on a row");
                covered.extend(r);
            }
            assert_eq!(
                covered,
                (0..width * height).collect::<Vec<_>>(),
                "{width}x{height} over {shards} shards"
            );
        }
    }

    #[test]
    fn spin_barrier_synchronises_threads() {
        let barrier = Arc::new(SpinBarrier::new(4));
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                    barrier.wait();
                    // After the barrier everyone has incremented.
                    assert_eq!(counter.load(Ordering::SeqCst), 4);
                })
            })
            .collect();
        counter.fetch_add(1, Ordering::SeqCst);
        barrier.wait();
        assert_eq!(counter.load(Ordering::SeqCst), 4);
        for h in handles {
            h.join().expect("barrier thread");
        }
    }

    #[test]
    fn spin_barrier_parks_and_is_woken_after_the_yield_budget() {
        // The waiter exhausts its spin and yield budgets long before the
        // releaser arrives, so it must park on the condvar and still be
        // released — on a loaded host this used to busy-yield forever.
        let barrier = Arc::new(SpinBarrier::new(2));
        for _ in 0..3 {
            let waiter = {
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || barrier.wait())
            };
            std::thread::sleep(std::time::Duration::from_millis(30));
            barrier.wait();
            waiter.join().expect("parked waiter must be woken");
        }
    }

    #[test]
    fn single_participant_barrier_never_blocks() {
        let b = SpinBarrier::new(1);
        for _ in 0..10 {
            b.wait();
        }
    }

    #[test]
    fn pool_shuts_down_cleanly_without_running_a_cycle() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.shards(), 4);
        drop(pool);
    }

    #[test]
    fn topology_helpers_agree_with_geometry() {
        let topo = crate::topology::Topology::Mesh {
            width: 2,
            height: 2,
        };
        assert_eq!(topo.index(RouterAddr::new(1, 1)), 3);
        assert!(!topo.contains(RouterAddr::new(2, 0)));
        assert_eq!(
            topo.neighbour(RouterAddr::new(0, 0), Port::East),
            Some(RouterAddr::new(1, 0))
        );
        assert_eq!(topo.neighbour(RouterAddr::new(0, 0), Port::West), None);
        assert_eq!(topo.neighbour(RouterAddr::new(0, 0), Port::Local), None);
    }
}

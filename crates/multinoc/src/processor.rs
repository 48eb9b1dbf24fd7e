//! The Processor IP core (§2.4 of the paper).
//!
//! An R8 soft core plus a 1K-word local memory (acting as a unified
//! cache) plus the control logic interfacing both to the Hermes NoC. The
//! control logic "commands the execution of the R8 processor, putting it
//! in wait state each time the processor executes a load-store
//! instruction" that leaves the local memory:
//!
//! - loads/stores into a remote window become `ReadFromMemory` /
//!   `WriteInMemory` service packets (reads stall the core until the
//!   `ReadReturn` arrives; writes are posted);
//! - `ST` at `0xFFFF` sends `Printf`, `LD` at `0xFFFF` sends `Scanf` and
//!   stalls until the `ScanfReturn` arrives;
//! - `ST` at `0xFFFE` (`wait`) stalls until a `Notify` from the named
//!   processor arrives;
//! - `ST` at `0xFFFD` (`notify`) sends a `Notify` packet to the named
//!   processor.
//!
//! The IP also serves the network side of the NUMA model: incoming
//! `ReadFromMemory` / `WriteInMemory` messages access the local memory
//! with the processor having bus priority, and `ActivateProcessor`
//! starts execution from address 0.

use std::collections::HashMap;

use hermes_noc::snapshot::{check_mesh, Snap};
use hermes_noc::{RouterAddr, SnapshotError, SnapshotReader, SnapshotWriter};
use r8::core::{BatchStop, Bus, BusResponse, Cpu, CpuImage, CpuState, Flags, Pending, StepOutcome};

use crate::addrmap::{AddressMap, Target};
use crate::directory::ServiceDirectory;
use crate::error::SystemError;
use crate::memory::MemoryCore;
use crate::net::NetPort;
use crate::node::{NodeId, NodeTable};
use crate::reliable::{DedupReceiver, PendingRequest, ReliableSender, RetryCounters};
use crate::service::Service;

/// An in-flight network transaction of the control logic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
enum NetPending {
    /// No transaction in flight.
    #[default]
    Idle,
    /// A remote read was sent; waiting for the `ReadReturn` that echoes
    /// its sequence number (retransmitted on timeout).
    RemoteRead(PendingRequest),
    /// A remote read completed with this value; the core collects it on
    /// its retry. Carries the router that answered so a
    /// `ReplicaInvalidate` naming it can discard the value before the
    /// core consumes it (the read then re-issues against the promoted
    /// replica).
    RemoteReadDone {
        /// The value read.
        value: u16,
        /// The router that served it.
        from: RouterAddr,
    },
    /// A `Scanf` was sent; waiting for the `ScanfReturn`.
    Scanf(PendingRequest),
    /// The scanf answer arrived.
    ScanfDone(u16),
}

/// Why (and for whom) the core is blocked in a wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum WaitState {
    /// Not waiting.
    #[default]
    None,
    /// The core executed the wait command (`ST` at `0xFFFE`); the stalled
    /// store retries and consumes the notify itself.
    Internal(u16),
    /// A `Wait` service packet blocked the core; the step loop consumes
    /// the notify when it arrives.
    External(u16),
}

/// Why a [`ProcessorStatus::Blocked`] processor is blocked — the
/// observable state the paper's proposed multiprocessor debugger needs
/// "to detect distributed application errors" (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// Executing `wait`, parked until the named node notifies.
    WaitFor(NodeId),
    /// A remote load is in flight on the NoC.
    RemoteRead,
    /// A `scanf` awaits host input.
    Scanf,
}

/// Execution status a processor can be observed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessorStatus {
    /// Not yet activated by the host.
    Inactive,
    /// Fetching/executing instructions.
    Running,
    /// Blocked: in a `wait`, a remote read, or a `scanf`.
    Blocked,
    /// Executed `HALT`.
    Halted,
    /// Hit an illegal instruction; stopped.
    Faulted,
}

/// Where a processor's cycles went, sampled once per clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UtilizationCounters {
    /// Cycles spent executing (including instruction pacing).
    pub running: u64,
    /// Cycles blocked on the network: wait, remote reads, scanf.
    pub blocked: u64,
    /// Cycles halted after `HALT`.
    pub halted: u64,
    /// Cycles before activation (or after a fault).
    pub idle: u64,
}

impl UtilizationCounters {
    /// Total sampled cycles.
    pub fn total(&self) -> u64 {
        self.running + self.blocked + self.halted + self.idle
    }

    /// Fraction of sampled cycles spent running, `0.0..=1.0`.
    pub fn busy_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.running as f64 / self.total() as f64
        }
    }

    /// Fraction of sampled cycles blocked on the network.
    pub fn blocked_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.blocked as f64 / self.total() as f64
        }
    }
}

/// The Processor IP: R8 core, local memory and NoC control logic.
#[derive(Debug)]
pub struct ProcessorIp {
    node: NodeId,
    addr: RouterAddr,
    cpu: Cpu,
    local: MemoryCore,
    map: AddressMap,
    table: NodeTable,
    /// Which node currently serves each logical node (replica failover).
    directory: ServiceDirectory,
    /// Router of the serial IP, where printf/scanf go; `None` makes
    /// printf a no-op and scanf return 0 (headless systems).
    io_router: Option<RouterAddr>,
    active: bool,
    fault: Option<String>,
    next_ready: u64,
    /// Stall cycles already charged for the in-flight instruction.
    stalled_cycles: u32,
    pending: NetPending,
    /// Wait/notify blocking state.
    wait: WaitState,
    /// Notifies received and not yet consumed, by sender node number.
    notifies: HashMap<u16, u32>,
    utilization: UtilizationCounters,
    /// Retransmitting sender for writes and notifies (explicit ack).
    reliable: ReliableSender,
    /// Duplicate suppression for sequenced messages this IP receives.
    dedup: DedupReceiver,
    /// Where the core stands ahead of the clock, so an exit can
    /// [rewind](Self::rewind) it. Never serialized: every run loop exit
    /// leaves the core at its lockstep state.
    ahead: RunAhead,
}

/// A core's [run-ahead](ProcessorIp::run_ahead) state: one lockstep
/// image — the core as it stood before the first instruction it ran
/// ahead through since its last lockstep visit — which
/// [`rewind`](ProcessorIp::rewind) restores and replays from, so the
/// cost stays one core and one local memory however far the core runs.
#[derive(Debug)]
struct RunAhead {
    /// Start cycle of the last instruction run ahead through since the
    /// image was taken; `None` while the core is at its lockstep state
    /// and the image holds nothing.
    to: Option<u64>,
    /// The core, its `next_ready` and its local memory at the image.
    cpu: Cpu,
    next_ready: u64,
    local: MemoryCore,
    /// Start cycle of the core's next instruction once run-ahead has
    /// found it reaches past local memory: the core's first send. Kept
    /// until the core's next lockstep visit, since its local run is a
    /// function of its own state.
    send: Option<u64>,
}

impl RunAhead {
    fn new(local_words: u16) -> Self {
        Self {
            to: None,
            cpu: Cpu::new(),
            next_ready: 0,
            local: MemoryCore::new(local_words),
            send: None,
        }
    }
}

impl ProcessorIp {
    /// Builds a processor IP.
    pub fn new(
        node: NodeId,
        addr: RouterAddr,
        local_words: u16,
        map: AddressMap,
        table: NodeTable,
        io_router: Option<RouterAddr>,
    ) -> Self {
        Self {
            node,
            addr,
            cpu: Cpu::new(),
            local: MemoryCore::new(local_words),
            map,
            table,
            directory: ServiceDirectory::new(),
            io_router,
            active: false,
            fault: None,
            next_ready: 0,
            stalled_cycles: 0,
            pending: NetPending::Idle,
            wait: WaitState::None,
            notifies: HashMap::new(),
            utilization: UtilizationCounters::default(),
            reliable: ReliableSender::new(node),
            dedup: DedupReceiver::new(),
            ahead: RunAhead::new(local_words),
        }
    }

    /// The router this IP is attached to.
    pub fn router(&self) -> RouterAddr {
        self.addr
    }

    /// This processor's node number.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The R8 core, for inspection.
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// The local memory, for inspection.
    pub fn local(&self) -> &MemoryCore {
        &self.local
    }

    /// Mutable local memory (host-side preloading in tests; the real
    /// system loads through the serial link).
    pub fn local_mut(&mut self) -> &mut MemoryCore {
        &mut self.local
    }

    /// This processor's address map.
    pub fn map(&self) -> &AddressMap {
        &self.map
    }

    /// Mutable address map (dynamic reconfiguration appends windows).
    pub fn map_mut(&mut self) -> &mut AddressMap {
        &mut self.map
    }

    /// Updates this IP's view of the system after a reconfiguration.
    pub(crate) fn reconfigure(
        &mut self,
        addr: RouterAddr,
        table: NodeTable,
        io_router: Option<RouterAddr>,
    ) {
        self.addr = addr;
        self.table = table;
        self.io_router = io_router;
    }

    /// Installs this IP's view of the service directory (pushed by the
    /// system whenever a replica group changes hands).
    pub(crate) fn set_directory(&mut self, directory: ServiceDirectory) {
        self.directory = directory;
    }

    /// Retargets everything this IP has in flight towards `old` — the
    /// reliable write/notify queue and a pending remote read — at `new`,
    /// with retry clocks restarted from `now`. Called by the system when
    /// a service this IP talks to fails over to a replica.
    pub(crate) fn redirect(&mut self, old: RouterAddr, new: RouterAddr, now: u64) {
        self.reliable.redirect_dest(old, new, now);
        if let NetPending::RemoteRead(req) = &mut self.pending {
            req.redirect(old, new, now);
        }
    }

    /// Whether the host has activated this processor.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Current status.
    pub fn status(&self) -> ProcessorStatus {
        if self.fault.is_some() {
            ProcessorStatus::Faulted
        } else if !self.active {
            ProcessorStatus::Inactive
        } else if self.cpu.is_halted() {
            ProcessorStatus::Halted
        } else if self.wait != WaitState::None || self.pending != NetPending::Idle {
            ProcessorStatus::Blocked
        } else {
            ProcessorStatus::Running
        }
    }

    /// The fault message, if the core stopped on an illegal instruction.
    pub fn fault(&self) -> Option<&str> {
        self.fault.as_deref()
    }

    /// Why the processor is blocked, if it is.
    pub fn block_reason(&self) -> Option<BlockReason> {
        match self.wait {
            WaitState::Internal(n) | WaitState::External(n) => {
                return Some(BlockReason::WaitFor(NodeId(n as u8)));
            }
            WaitState::None => {}
        }
        match self.pending {
            NetPending::RemoteRead(_) => Some(BlockReason::RemoteRead),
            NetPending::Scanf(_) => Some(BlockReason::Scanf),
            _ => None,
        }
    }

    /// Where this processor's cycles have gone so far.
    pub fn utilization(&self) -> UtilizationCounters {
        self.utilization
    }

    /// Whether this IP has no reliable traffic in flight or queued (its
    /// writes and notifies have all been acknowledged).
    pub fn net_quiet(&self) -> bool {
        self.reliable.is_idle()
    }

    /// Work done by this IP's reliability layer.
    pub fn retry_counters(&self) -> RetryCounters {
        self.reliable.counters()
    }

    /// Duplicate sequenced messages this IP refused.
    pub fn duplicates_dropped(&self) -> u64 {
        self.dedup.duplicates()
    }

    /// The earliest cycle at which stepping this IP can change its state
    /// without a delivery at its router, under network epoch `epoch`:
    /// `now` for a satisfied wait, a completed read or scanf, or an
    /// epoch its reliability layer has not noted yet; otherwise the
    /// soonest of `next_ready` (a running core's next instruction) and
    /// the retransmission deadlines. `None` when only a delivery can
    /// wake it. A core that cannot execute (inactive, halted, faulted)
    /// and owes nothing sleeps through epoch changes too: the lockstep
    /// loop never visited it for them.
    pub(crate) fn wake(&self, now: u64, epoch: u64) -> Option<u64> {
        let status = self.status();
        if status == ProcessorStatus::Running {
            // A known first send is never before the next instruction.
            let send = self.send_wake(now, epoch);
            return Some(send.map_or(self.next_ready, |s| s.min(self.next_ready)));
        }
        let released = match self.wait {
            WaitState::Internal(n) | WaitState::External(n) => {
                self.notifies.get(&n).is_some_and(|&count| count > 0)
            }
            WaitState::None => false,
        };
        let collected = matches!(
            self.pending,
            NetPending::RemoteReadDone { .. } | NetPending::ScanfDone(_)
        );
        if released || collected {
            return Some(now);
        }
        let mut wake = self.reliable.next_deadline();
        let mut note = |d: u64| wake = Some(wake.map_or(d, |w: u64| w.min(d)));
        if let NetPending::RemoteRead(req) | NetPending::Scanf(req) = &self.pending {
            note(self.reliable.request_deadline(req));
        }
        if wake.is_none() && status != ProcessorStatus::Blocked {
            return None;
        }
        if !self.reliable.noted(epoch) {
            return Some(now);
        }
        wake
    }

    /// The earliest cycle at which this IP can send without a delivery at
    /// its router: its [wake](Self::wake), except that a running core's
    /// next instruction does not count — its retransmission deadlines
    /// do, and so does its next instruction once
    /// [`run_ahead`](Self::run_ahead) has found it reaches past local
    /// memory.
    pub(crate) fn send_wake(&self, now: u64, epoch: u64) -> Option<u64> {
        if self.status() != ProcessorStatus::Running {
            return self.wake(now, epoch);
        }
        if !self.reliable.noted(epoch) {
            return Some(now);
        }
        self.reliable
            .next_deadline()
            .into_iter()
            .chain(self.ahead.send)
            .min()
    }

    /// Books `cycles` the system skipped this IP over, the last of them
    /// `through`, into the utilization category the processor currently
    /// occupies, and charges a core stalled on a bus access the retries
    /// it would have made — exactly what per-cycle stepping would have
    /// recorded, since a skipped processor cannot change state otherwise.
    pub(crate) fn credit_skipped(&mut self, cycles: u64, through: u64) {
        match self.status() {
            ProcessorStatus::Running => self.utilization.running += cycles,
            ProcessorStatus::Blocked => self.utilization.blocked += cycles,
            ProcessorStatus::Halted => self.utilization.halted += cycles,
            ProcessorStatus::Inactive | ProcessorStatus::Faulted => {
                self.utilization.idle += cycles;
            }
        }
        // A core stalled on a remote read or scanf retries the access
        // every cycle, and every retry costs a core cycle and re-arms
        // the next retry for the following cycle.
        if self.status() == ProcessorStatus::Blocked
            && self.wait == WaitState::None
            && matches!(
                self.pending,
                NetPending::RemoteRead(_) | NetPending::Scanf(_)
            )
        {
            let cycles = u32::try_from(cycles).unwrap_or(u32::MAX);
            self.cpu.stall_for(cycles);
            self.stalled_cycles = self.stalled_cycles.saturating_add(cycles);
            self.next_ready = through + 1;
        }
    }

    /// Runs a running core ahead of the global clock through every
    /// instruction that starts at or before `horizon` and touches local
    /// memory only, and returns the start cycle of its next instruction
    /// if that one reaches past local memory: the earliest cycle this
    /// core can send. The caller guarantees nothing reaches this IP's
    /// router before `horizon + 1`, so each instruction does exactly what
    /// the lockstep visit at its start cycle would. The core's
    /// [batched run](Cpu::run_batch) stops before an instruction that
    /// reaches past local memory, executes `HALT` or faults, and leaves
    /// it for that lockstep visit. The core may run ahead this way until
    /// its next send, across any number of calls; the first call since
    /// its last lockstep visit takes the image [`rewind`](Self::rewind)
    /// replays from.
    pub(crate) fn run_ahead(&mut self, horizon: u64) -> Option<u64> {
        if self.status() != ProcessorStatus::Running {
            return None;
        }
        if self.next_ready > horizon || self.ahead.send == Some(self.next_ready) {
            return self.ahead.send;
        }
        if self.ahead.to.is_none() {
            self.ahead.cpu.clone_from(&self.cpu);
            self.ahead.next_ready = self.next_ready;
            self.ahead.local.copy_from(&self.local);
        }
        match self.run_local(horizon) {
            BatchStop::Limit => {}
            BatchStop::Wait => self.ahead.send = Some(self.next_ready),
            BatchStop::Halt | BatchStop::Illegal(_) => self.ahead.send = None,
        }
        self.ahead.send
    }

    /// Whether [`run_ahead`](Self::run_ahead) to `horizon` left the core
    /// at the horizon, so that a later horizon would take it further.
    pub(crate) fn held_at(&self, horizon: u64) -> bool {
        self.next_ready > horizon
            && self.ahead.send != Some(self.next_ready)
            && self.status() == ProcessorStatus::Running
    }

    /// Runs the core on a local-only bus, in one batched run, through
    /// the instructions that start at or before `horizon` (`next_ready`
    /// is at most `horizon`), and moves `next_ready` and the start cycle
    /// of the last instruction run ahead through with it. A batched run
    /// charges no wait state, so each instruction advances the core's
    /// cycle count by its cost: what lockstep pacing adds to
    /// `next_ready`.
    fn run_local(&mut self, horizon: u64) -> BatchStop {
        let cycles = self.cpu.cycles();
        let mut bus = LocalBus {
            local: &mut self.local,
            map: &self.map,
        };
        let budget = (horizon - self.next_ready).saturating_add(1);
        let batch = self.cpu.run_batch(&mut bus, budget);
        if let Some(start) = batch.last_start {
            self.ahead.to = Some(self.next_ready + (start - cycles));
        }
        self.next_ready += self.cpu.cycles() - cycles;
        batch.stop
    }

    /// Undoes the run-ahead instructions that start after `cycle`,
    /// leaving the core exactly where lockstep stepping through `cycle`
    /// would have: the lockstep image is restored and the instructions
    /// up to `cycle` are replayed. The core stays ahead up to `cycle`.
    pub(crate) fn rewind(&mut self, cycle: u64) {
        if self.ahead.to.is_none_or(|to| to <= cycle) {
            return;
        }
        self.cpu.clone_from(&self.ahead.cpu);
        self.next_ready = self.ahead.next_ready;
        self.local.copy_from(&self.ahead.local);
        self.ahead.to = None;
        if self.next_ready <= cycle {
            let replayed = self.run_local(cycle);
            debug_assert_eq!(replayed, BatchStop::Limit, "a replayed run ran before");
        }
    }

    /// [Rewinds](Self::rewind) to `cycle` and ends the run-ahead: the
    /// core is at its lockstep state, which the host may change before
    /// the next run.
    pub(crate) fn settle(&mut self, cycle: u64) {
        self.rewind(cycle);
        self.ahead.to = None;
        self.ahead.send = None;
    }

    /// One clock step: service the network, then (at the pace set by
    /// instruction timing) the core.
    ///
    /// # Errors
    ///
    /// [`SystemError`] on malformed network traffic. An illegal
    /// instruction does not error the step; it faults the processor
    /// (see [`status`](Self::status) and [`fault`](Self::fault)) so the
    /// rest of the system keeps running, and is surfaced by the system's
    /// run methods.
    pub fn step(&mut self, now: u64, net: &mut NetPort<'_>) -> Result<(), SystemError> {
        // Once the clock has passed everything the core ran ahead
        // through, that is its lockstep state. A visit before then only
        // retransmits: nothing reaches a core ahead of the clock.
        if self.ahead.to.is_none_or(|to| to < now) {
            self.ahead.to = None;
            self.ahead.send = None;
        }
        match self.status() {
            ProcessorStatus::Running => self.utilization.running += 1,
            ProcessorStatus::Blocked => self.utilization.blocked += 1,
            ProcessorStatus::Halted => self.utilization.halted += 1,
            ProcessorStatus::Inactive | ProcessorStatus::Faulted => self.utilization.idle += 1,
        }
        // Network side first: the paper gives the processor priority on
        // the memory banks, but the NoC interface is independent logic.
        while let Some(msg) = net.recv()? {
            debug_assert!(self.ahead.to.is_none(), "a delivery reached a core ahead");
            match msg.service {
                Service::ReadFromMemory { addr, count } => {
                    let data = self.local.read_block(addr, count);
                    net.send_seq(msg.src, Service::ReadReturn { addr, data }, msg.seq)?;
                }
                Service::WriteInMemory { addr, data } => {
                    if self.dedup.accept(msg.src, msg.seq) {
                        self.local.write_block(addr, &data);
                    }
                    if msg.seq != 0 {
                        net.send_seq(msg.src, Service::Ack, msg.seq)?;
                    }
                }
                Service::ActivateProcessor => {
                    // A retransmitted duplicate must not reset a running
                    // core: the first activation was delivered, only its
                    // ack was lost.
                    if self.dedup.accept(msg.src, msg.seq) {
                        self.cpu.reset();
                        self.active = true;
                        self.fault = None;
                        self.stalled_cycles = 0;
                        self.pending = NetPending::Idle;
                        self.wait = WaitState::None;
                    }
                    if msg.seq != 0 {
                        net.send_seq(msg.src, Service::Ack, msg.seq)?;
                    }
                }
                Service::ReadReturn { data, .. } => {
                    if let NetPending::RemoteRead(req) = &self.pending {
                        if req.matches(msg.src, msg.seq) {
                            let value = data.first().copied().unwrap_or(0);
                            self.pending = NetPending::RemoteReadDone {
                                value,
                                from: msg.src,
                            };
                        }
                    }
                }
                Service::ScanfReturn { value } => {
                    if let NetPending::Scanf(req) = &self.pending {
                        if req.matches(msg.src, msg.seq) {
                            self.pending = NetPending::ScanfDone(value);
                        }
                    }
                }
                Service::Notify { from } => {
                    if self.dedup.accept(msg.src, msg.seq) {
                        *self.notifies.entry(from).or_insert(0) += 1;
                    }
                    if msg.seq != 0 {
                        net.send_seq(msg.src, Service::Ack, msg.seq)?;
                    }
                }
                Service::Wait { from } => {
                    self.wait = WaitState::External(from);
                }
                Service::Ack => {
                    self.reliable.on_ack(net, msg.src, msg.seq, now)?;
                }
                Service::ReplicaInvalidate { stale } => {
                    // A failover promoted a new replica. A read answer
                    // still parked from the dead primary is discarded so
                    // the stalled load re-issues against the survivor.
                    if matches!(self.pending, NetPending::RemoteReadDone { from, .. } if from == stale)
                    {
                        self.pending = NetPending::Idle;
                    }
                }
                Service::Printf { .. } | Service::Scanf => {
                    return Err(SystemError::Protocol(format!(
                        "processor {} received a host-bound service",
                        self.node
                    )));
                }
                Service::ReplicateWrite { .. } => {
                    return Err(SystemError::Protocol(format!(
                        "processor {} received a memory-bound replication service",
                        self.node
                    )));
                }
            }
        }

        // Reliability timers: retransmit unacknowledged writes/notifies
        // and the pending remote read or scanf, if any timed out. The
        // scanf is answered by the host, which may legitimately take
        // arbitrarily long — it retries patiently instead of exhausting.
        self.reliable.poll(net, now)?;
        match &mut self.pending {
            NetPending::RemoteRead(req) => self.reliable.poll_request(net, req, now)?,
            NetPending::Scanf(req) => self.reliable.poll_request_patient(net, req, now)?,
            _ => {}
        }

        // Release a blocked core once the matching notify shows up. An
        // internal wait (stalled ST at 0xFFFE) consumes the notify in its
        // own retry; an external wait consumes it here.
        match self.wait {
            WaitState::None => {}
            WaitState::Internal(expected) => {
                if self.notifies.get(&expected).copied().unwrap_or(0) == 0 {
                    return Ok(()); // still blocked
                }
                self.wait = WaitState::None;
            }
            WaitState::External(expected) => match self.notifies.get_mut(&expected) {
                Some(count) if *count > 0 => {
                    *count -= 1;
                    self.wait = WaitState::None;
                }
                _ => return Ok(()), // still blocked
            },
        }

        if !self.active || self.cpu.is_halted() || self.fault.is_some() || now < self.next_ready {
            return Ok(());
        }

        let mut bus = CtrlBus {
            local: &mut self.local,
            map: &self.map,
            table: &self.table,
            directory: &self.directory,
            io_router: self.io_router,
            pending: &mut self.pending,
            wait: &mut self.wait,
            notifies: &mut self.notifies,
            node: self.node,
            reliable: &mut self.reliable,
            now,
            error: None,
            net,
        };
        let outcome = self.cpu.step(&mut bus);
        if let Some(e) = bus.error.take() {
            return Err(e);
        }
        match outcome {
            Ok(StepOutcome::Retired { cycles }) => {
                // Stall cycles were already spent in real time while the
                // bus answered Wait; only the base cost remains.
                let remaining = cycles.saturating_sub(self.stalled_cycles);
                self.next_ready = now + u64::from(remaining.max(1));
                self.stalled_cycles = 0;
            }
            Ok(StepOutcome::Stalled) => {
                self.stalled_cycles += 1;
                self.next_ready = now + 1;
            }
            Ok(StepOutcome::Halted) => {}
            Err(e) => {
                self.fault = Some(e.to_string());
            }
        }
        Ok(())
    }

    /// Snapshot codec: the complete per-processor state — core image,
    /// local memory, address map, control-logic and reliability state.
    /// The system-level context (node number, router, node table,
    /// directory, I/O router) is not written here; the system restores
    /// it from its own snapshot and passes it to
    /// [`snapshot_read`](Self::snapshot_read).
    pub(crate) fn snapshot_write(&self, w: &mut SnapshotWriter) {
        put_cpu_image(w, &self.cpu.image());
        w.put(&self.local);
        w.put(&self.map);
        w.put(&self.active);
        w.put(&self.fault);
        w.put(&self.next_ready);
        w.put(&self.stalled_cycles);
        w.put(&self.pending);
        w.put(&self.wait);
        w.put(&self.notifies);
        w.put(&self.utilization);
        self.reliable.snapshot_write(w);
        w.put(&self.dedup);
    }

    /// Decodes a processor written by
    /// [`snapshot_write`](Self::snapshot_write) into the given system
    /// context on a `mesh`-shaped network.
    pub(crate) fn snapshot_read(
        r: &mut SnapshotReader<'_>,
        node: NodeId,
        addr: RouterAddr,
        table: NodeTable,
        directory: ServiceDirectory,
        io_router: Option<RouterAddr>,
        mesh: (u8, u8),
    ) -> Result<Self, SnapshotError> {
        let cpu = Cpu::from_image(take_cpu_image(r)?)
            .map_err(|_| SnapshotError::Malformed("decoded instruction slot"))?;
        let local: MemoryCore = r.take()?;
        let ahead = RunAhead::new(local.words());
        let ip = Self {
            node,
            addr,
            cpu,
            local,
            map: r.take()?,
            table,
            directory,
            io_router,
            active: r.take()?,
            fault: r.take()?,
            next_ready: r.take()?,
            stalled_cycles: r.take()?,
            pending: r.take()?,
            wait: r.take()?,
            notifies: r.take()?,
            utilization: r.take()?,
            reliable: ReliableSender::snapshot_read(r, node)?,
            dedup: r.take()?,
            ahead,
        };
        let pending: Vec<RouterAddr> = match &ip.pending {
            NetPending::RemoteRead(req) | NetPending::Scanf(req) => req.addrs().collect(),
            NetPending::RemoteReadDone { from, .. } => vec![*from],
            NetPending::Idle | NetPending::ScanfDone(_) => Vec::new(),
        };
        check_mesh(
            mesh,
            (pending.into_iter())
                .chain(ip.reliable.addrs())
                .chain(ip.dedup.addrs()),
        )?;
        Ok(ip)
    }
}

/// Writes an R8 core image: registers, control state and the in-flight
/// instruction of the two-phase stepping model. The image types belong
/// to the `r8` crate, so they are written field by field here.
fn put_cpu_image(w: &mut SnapshotWriter, image: &CpuImage) {
    let flags = image.flags;
    w.put(&(image.regs, image.pc, image.sp));
    w.put(&(flags.n, flags.z, flags.c, flags.v));
    w.put(&(
        matches!(image.state, CpuState::Halted),
        image.cycles,
        image.retired,
    ));
    match image.pending {
        Pending::Fetch => w.put(&0u8),
        Pending::Read { addr } => w.put(&(1u8, addr)),
        Pending::Write { addr, value } => w.put(&(2u8, addr, value)),
    }
    w.put(&(image.decoded, image.inflight_cycles));
}

/// Decodes an R8 core image written by [`put_cpu_image`].
fn take_cpu_image(r: &mut SnapshotReader<'_>) -> Result<CpuImage, SnapshotError> {
    let (regs, pc, sp) = r.take()?;
    let (n, z, c, v) = r.take()?;
    let (halted, cycles, retired) = r.take()?;
    let state = if halted {
        CpuState::Halted
    } else {
        CpuState::Running
    };
    let pending = match r.take::<u8>()? {
        0 => Pending::Fetch,
        1 => Pending::Read { addr: r.take()? },
        2 => {
            let (addr, value) = r.take()?;
            Pending::Write { addr, value }
        }
        _ => return Err(SnapshotError::Malformed("cpu pending tag")),
    };
    let (decoded, inflight_cycles) = r.take()?;
    Ok(CpuImage {
        regs,
        pc,
        sp,
        flags: Flags { n, z, c, v },
        state,
        cycles,
        retired,
        pending,
        decoded,
        inflight_cycles,
    })
}

/// A tag (`0` idle, `1` remote read, `2` read done, `3` scanf, `4` scanf
/// done), then the variant's fields.
impl Snap for NetPending {
    fn put(&self, w: &mut SnapshotWriter) {
        match self {
            NetPending::Idle => w.put(&0u8),
            NetPending::RemoteRead(req) => {
                w.put(&1u8);
                w.put(req);
            }
            NetPending::RemoteReadDone { value, from } => w.put(&(2u8, *value, *from)),
            NetPending::Scanf(req) => {
                w.put(&3u8);
                w.put(req);
            }
            NetPending::ScanfDone(value) => w.put(&(4u8, *value)),
        }
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.take::<u8>()? {
            0 => NetPending::Idle,
            1 => NetPending::RemoteRead(r.take()?),
            2 => {
                let (value, from) = r.take()?;
                NetPending::RemoteReadDone { value, from }
            }
            3 => NetPending::Scanf(r.take()?),
            4 => NetPending::ScanfDone(r.take()?),
            _ => return Err(SnapshotError::Malformed("processor pending tag")),
        })
    }
}

/// A tag (`0` none, `1` internal, `2` external), then the awaited node.
impl Snap for WaitState {
    fn put(&self, w: &mut SnapshotWriter) {
        match *self {
            WaitState::None => w.put(&0u8),
            WaitState::Internal(n) => w.put(&(1u8, n)),
            WaitState::External(n) => w.put(&(2u8, n)),
        }
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.take::<u8>()? {
            0 => WaitState::None,
            1 => WaitState::Internal(r.take()?),
            2 => WaitState::External(r.take()?),
            _ => return Err(SnapshotError::Malformed("wait state tag")),
        })
    }
}

hermes_noc::snap_struct!(UtilizationCounters {
    running,
    blocked,
    halted,
    idle
});

/// The bus a core [runs ahead](ProcessorIp::run_ahead) on: local memory
/// only. Any other access — a remote window, I/O, the wait/notify
/// command words, an unmapped address — is refused with a wait state
/// before it has any effect.
#[derive(Debug)]
struct LocalBus<'a> {
    local: &'a mut MemoryCore,
    map: &'a AddressMap,
}

impl Bus for LocalBus<'_> {
    fn read(&mut self, addr: u16) -> BusResponse {
        match self.map.decode(addr) {
            Target::Local { offset } => BusResponse::Data(self.local.read(offset)),
            _ => BusResponse::Wait,
        }
    }

    fn write(&mut self, addr: u16, value: u16) -> BusResponse {
        match self.map.decode(addr) {
            Target::Local { offset } => {
                self.local.write(offset, value);
                BusResponse::Data(0)
            }
            _ => BusResponse::Wait,
        }
    }
}

/// The bus the control logic presents to the R8 core: decodes the NUMA
/// address map and turns non-local accesses into service packets and
/// wait states.
#[derive(Debug)]
struct CtrlBus<'a, 'n> {
    local: &'a mut MemoryCore,
    map: &'a AddressMap,
    table: &'a NodeTable,
    directory: &'a ServiceDirectory,
    io_router: Option<RouterAddr>,
    pending: &'a mut NetPending,
    wait: &'a mut WaitState,
    notifies: &'a mut HashMap<u16, u32>,
    node: NodeId,
    reliable: &'a mut ReliableSender,
    now: u64,
    /// The `Bus` trait cannot return errors; a failed send is parked
    /// here and surfaced by `ProcessorIp::step` right after the core
    /// step, instead of panicking inside the bus.
    error: Option<SystemError>,
    net: &'a mut NetPort<'n>,
}

impl CtrlBus<'_, '_> {
    /// Best-effort send (printf): loss is acceptable, corruption is
    /// caught by the checksum at the receiver.
    fn send_unreliable(&mut self, dest: RouterAddr, service: Service) {
        if let Err(e) = self.net.send(dest, service) {
            self.error.get_or_insert(e);
        }
    }

    /// Acknowledged send (writes, notifies): queued with the reliable
    /// sender, retransmitted until acked.
    fn send_reliable(&mut self, dest: RouterAddr, service: Service) {
        if let Err(e) = self.reliable.send(self.net, dest, service, self.now) {
            self.error.get_or_insert(e);
        }
    }

    /// Transmits a request whose response is its implicit ack, returning
    /// the pending-request state to park in `NetPending`.
    fn start_request(&mut self, dest: RouterAddr, request: Service) -> PendingRequest {
        let seq = self.reliable.alloc_seq(dest);
        if let Err(e) = self.net.send_seq(dest, request.clone(), seq) {
            self.error.get_or_insert(e);
        }
        PendingRequest::new(dest, seq, request, self.now)
    }
}

impl Bus for CtrlBus<'_, '_> {
    fn read(&mut self, addr: u16) -> BusResponse {
        match self.map.decode(addr) {
            Target::Local { offset } => BusResponse::Data(self.local.read(offset)),
            Target::Remote { node, offset } => match *self.pending {
                NetPending::Idle => {
                    // The directory maps the logical node to whichever
                    // replica currently serves it (identity for
                    // unreplicated nodes).
                    let Some(dest) = self.table.router_of(self.directory.serving(node)) else {
                        return BusResponse::Data(0);
                    };
                    let req = self.start_request(
                        dest,
                        Service::ReadFromMemory {
                            addr: offset,
                            count: 1,
                        },
                    );
                    *self.pending = NetPending::RemoteRead(req);
                    BusResponse::Wait
                }
                NetPending::RemoteReadDone { value, .. } => {
                    *self.pending = NetPending::Idle;
                    BusResponse::Data(value)
                }
                _ => BusResponse::Wait,
            },
            Target::Io => match *self.pending {
                NetPending::Idle => {
                    let Some(dest) = self.io_router else {
                        // Headless system: scanf reads 0.
                        return BusResponse::Data(0);
                    };
                    let req = self.start_request(dest, Service::Scanf);
                    *self.pending = NetPending::Scanf(req);
                    BusResponse::Wait
                }
                NetPending::ScanfDone(value) => {
                    *self.pending = NetPending::Idle;
                    BusResponse::Data(value)
                }
                _ => BusResponse::Wait,
            },
            // Reads of the command addresses and holes are undefined in
            // the paper; the hardware bus would float. Return 0.
            Target::WaitCmd | Target::NotifyCmd | Target::Unmapped => BusResponse::Data(0),
        }
    }

    fn write(&mut self, addr: u16, value: u16) -> BusResponse {
        match self.map.decode(addr) {
            Target::Local { offset } => {
                self.local.write(offset, value);
                BusResponse::Data(0)
            }
            Target::Remote { node, offset } => {
                if let Some(dest) = self.table.router_of(self.directory.serving(node)) {
                    self.send_reliable(
                        dest,
                        Service::WriteInMemory {
                            addr: offset,
                            data: vec![value],
                        },
                    );
                }
                BusResponse::Data(0) // posted write (acked asynchronously)
            }
            Target::Io => {
                if let Some(dest) = self.io_router {
                    self.send_unreliable(dest, Service::Printf { data: vec![value] });
                }
                BusResponse::Data(0)
            }
            Target::WaitCmd => {
                // Block until a notify from node `value` is available.
                match self.notifies.get_mut(&value) {
                    Some(count) if *count > 0 => {
                        *count -= 1;
                        *self.wait = WaitState::None;
                        BusResponse::Data(0)
                    }
                    _ => {
                        *self.wait = WaitState::Internal(value);
                        BusResponse::Wait
                    }
                }
            }
            Target::NotifyCmd => {
                if let Some(dest) = self.table.router_of(NodeId(value as u8)) {
                    self.send_reliable(
                        dest,
                        Service::Notify {
                            from: self.node.as_u16(),
                        },
                    );
                }
                BusResponse::Data(0)
            }
            Target::Unmapped => BusResponse::Data(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeKind;
    use hermes_noc::{Noc, NocConfig};
    use r8::asm::assemble;

    fn table() -> NodeTable {
        NodeTable::new(vec![
            (RouterAddr::new(0, 0), NodeKind::Serial),
            (RouterAddr::new(0, 1), NodeKind::Processor),
            (RouterAddr::new(1, 0), NodeKind::Processor),
            (RouterAddr::new(1, 1), NodeKind::Memory),
        ])
    }

    fn processor(node: u8, addr: RouterAddr, windows: Vec<NodeId>) -> ProcessorIp {
        ProcessorIp::new(
            NodeId(node),
            addr,
            1024,
            AddressMap::paper(windows),
            table(),
            Some(RouterAddr::new(0, 0)),
        )
    }

    #[test]
    fn inactive_processor_does_not_execute() {
        let mut noc = Noc::new(NocConfig::mesh(2, 2)).unwrap();
        let mut ip = processor(1, RouterAddr::new(0, 1), vec![NodeId(2), NodeId(3)]);
        let program = assemble("LIW R1, 7\nHALT").unwrap();
        ip.local_mut().write_block(0, program.words());
        for now in 1..100 {
            noc.step();
            let mut net = NetPort::new(&mut noc, RouterAddr::new(0, 1));
            ip.step(now, &mut net).unwrap();
        }
        assert_eq!(ip.status(), ProcessorStatus::Inactive);
        assert_eq!(ip.cpu().reg(1), 0);
    }

    #[test]
    fn activation_starts_execution_from_zero() {
        let mut noc = Noc::new(NocConfig::mesh(2, 2)).unwrap();
        let mut ip = processor(1, RouterAddr::new(0, 1), vec![NodeId(2), NodeId(3)]);
        let program = assemble("LIW R1, 7\nHALT").unwrap();
        ip.local_mut().write_block(0, program.words());
        // Activation arrives over the network from the serial router.
        let msg = crate::service::Message::new(RouterAddr::new(0, 0), Service::ActivateProcessor);
        noc.send(
            RouterAddr::new(0, 0),
            msg.to_packet(RouterAddr::new(0, 1), 8),
        )
        .unwrap();
        for _ in 0..500 {
            noc.step();
            let now = noc.cycle();
            let mut net = NetPort::new(&mut noc, RouterAddr::new(0, 1));
            ip.step(now, &mut net).unwrap();
        }
        assert_eq!(ip.status(), ProcessorStatus::Halted);
        assert_eq!(ip.cpu().reg(1), 7);
    }

    #[test]
    fn cpi_pacing_spreads_instructions_over_cycles() {
        let mut noc = Noc::new(NocConfig::mesh(2, 2)).unwrap();
        let mut ip = processor(1, RouterAddr::new(0, 1), vec![NodeId(2), NodeId(3)]);
        // 10 ALU instructions at 2 cycles each, then HALT.
        let mut src = String::new();
        for _ in 0..10 {
            src.push_str("ADDI R1, 1\n");
        }
        src.push_str("HALT");
        ip.local_mut()
            .write_block(0, assemble(&src).unwrap().words());
        ip.active = true;
        let mut halted_at = 0;
        for _ in 0..200 {
            noc.step();
            let now = noc.cycle();
            let mut net = NetPort::new(&mut noc, RouterAddr::new(0, 1));
            ip.step(now, &mut net).unwrap();
            if ip.cpu().is_halted() {
                halted_at = now;
                break;
            }
        }
        assert_eq!(ip.cpu().reg(1), 10);
        // 11 instructions × 2 cycles ≈ 22 cycles; pacing must be visible.
        assert!(halted_at >= 20, "halted already at {halted_at}");
    }

    #[test]
    fn serves_remote_reads_of_its_local_memory() {
        let mut noc = Noc::new(NocConfig::mesh(2, 2)).unwrap();
        let mut ip = processor(1, RouterAddr::new(0, 1), vec![NodeId(2), NodeId(3)]);
        ip.local_mut().write(0x30, 4242);
        let requester = RouterAddr::new(1, 1);
        let msg = crate::service::Message::new(
            requester,
            Service::ReadFromMemory {
                addr: 0x30,
                count: 1,
            },
        );
        noc.send(requester, msg.to_packet(RouterAddr::new(0, 1), 8))
            .unwrap();
        for _ in 0..500 {
            noc.step();
            let now = noc.cycle();
            let mut net = NetPort::new(&mut noc, RouterAddr::new(0, 1));
            ip.step(now, &mut net).unwrap();
        }
        let (_, packet) = noc.try_recv(requester).expect("reply delivered");
        let reply = crate::service::Message::from_packet(&packet, 8).unwrap();
        assert_eq!(
            reply.service,
            Service::ReadReturn {
                addr: 0x30,
                data: vec![4242]
            }
        );
    }

    #[test]
    fn snapshot_round_trip_preserves_mid_flight_state() {
        let mut noc = Noc::new(NocConfig::mesh(2, 2)).unwrap();
        let mut ip = processor(1, RouterAddr::new(0, 1), vec![NodeId(2), NodeId(3)]);
        // A remote read stalls the core mid-instruction: rich state to
        // round-trip (pending request, stall counter, CPU wait).
        let program = assemble("LIW R1, 1024\nLD R2, R1, R0\nHALT").unwrap();
        ip.local_mut().write_block(0, program.words());
        ip.active = true;
        ip.notifies.insert(3, 2);
        for _ in 0..20 {
            noc.step();
            let now = noc.cycle();
            let mut net = NetPort::new(&mut noc, RouterAddr::new(0, 1));
            ip.step(now, &mut net).unwrap();
        }
        assert_eq!(ip.status(), ProcessorStatus::Blocked);

        let mut w = SnapshotWriter::new();
        ip.snapshot_write(&mut w);
        let bytes = w.finish(hermes_noc::snapshot::KIND_SYSTEM);

        let mut r = SnapshotReader::open(&bytes, hermes_noc::snapshot::KIND_SYSTEM).unwrap();
        let restored = ProcessorIp::snapshot_read(
            &mut r,
            ip.node,
            ip.addr,
            ip.table.clone(),
            ip.directory.clone(),
            ip.io_router,
            (2, 2),
        )
        .unwrap();
        r.finish().unwrap();

        // Re-encoding the restored processor must reproduce the exact
        // bytes: every field survived.
        let mut w2 = SnapshotWriter::new();
        restored.snapshot_write(&mut w2);
        let again = w2.finish(hermes_noc::snapshot::KIND_SYSTEM);
        assert_eq!(bytes, again);
        assert_eq!(restored.status(), ProcessorStatus::Blocked);
        assert_eq!(restored.cpu().pc(), ip.cpu().pc());
    }

    #[test]
    fn fault_on_illegal_instruction_is_contained() {
        let mut noc = Noc::new(NocConfig::mesh(2, 2)).unwrap();
        let mut ip = processor(1, RouterAddr::new(0, 1), vec![NodeId(2), NodeId(3)]);
        ip.local_mut().write(0, 0x00B0); // invalid word
        ip.active = true;
        for _ in 0..50 {
            noc.step();
            let now = noc.cycle();
            let mut net = NetPort::new(&mut noc, RouterAddr::new(0, 1));
            ip.step(now, &mut net).unwrap();
        }
        assert_eq!(ip.status(), ProcessorStatus::Faulted);
        assert!(ip.fault().unwrap().contains("illegal instruction"));
    }
}

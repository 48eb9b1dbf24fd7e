//! Multiprocessor debugging — the first item of the paper's future work
//! (§5): "the development of a multiprocessor simulator. This tool is
//! important to detect distributed application errors and to synchronize
//! software running on different processors."
//!
//! Two facilities:
//!
//! - [`Debugger`] — breakpoints, watchpoints and single-instruction
//!   stepping over the cycle-accurate system simulation;
//! - [`analyze_deadlock`] — a wait-for-graph analysis of the blocked
//!   processors, reporting synchronization cycles (true deadlocks) and
//!   processors waiting on inactive peers.

use std::collections::{BTreeMap, BTreeSet};

use crate::error::SystemError;
use crate::node::NodeId;
use crate::processor::{BlockReason, ProcessorStatus};
use crate::system::System;

/// Why a [`Debugger`] run stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// A processor reached a breakpoint address.
    Breakpoint {
        /// The processor.
        node: NodeId,
        /// The program counter it stopped at.
        pc: u16,
    },
    /// A watched memory word changed.
    Watchpoint {
        /// The node owning the memory.
        node: NodeId,
        /// The watched address.
        addr: u16,
        /// Value before the change.
        old: u16,
        /// Value after the change.
        new: u16,
    },
    /// Every activated processor halted and the network drained.
    AllHalted,
    /// The system went idle with processors still blocked — run
    /// [`analyze_deadlock`] next.
    IdleBlocked,
    /// The cycle budget ran out.
    Budget,
}

/// A breakpoint/watchpoint debugger over a [`System`].
///
/// ```rust
/// use multinoc::debug::Debugger;
/// use multinoc::{System, PROCESSOR_1};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut system = System::paper_config()?;
/// let program = r8::asm::assemble("LIW R1, 5\nLIW R2, 6\nHALT")?;
/// system.memory_mut(PROCESSOR_1)?.write_block(0, program.words());
/// system.activate_directly(PROCESSOR_1)?;
/// let mut debugger = Debugger::new();
/// debugger.add_breakpoint(PROCESSOR_1, 2); // after the first LIW pair
/// let stop = debugger.run(&mut system, 10_000)?;
/// assert_eq!(system.cpu(PROCESSOR_1)?.reg(1), 5);
/// assert_eq!(system.cpu(PROCESSOR_1)?.reg(2), 0); // not yet executed
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Debugger {
    breakpoints: BTreeMap<NodeId, BTreeSet<u16>>,
    watchpoints: Vec<Watch>,
    /// Last PC seen per node, so a breakpoint fires once per arrival.
    last_pc: BTreeMap<NodeId, u16>,
}

#[derive(Debug)]
struct Watch {
    node: NodeId,
    addr: u16,
    last: Option<u16>,
}

impl Debugger {
    /// A debugger with no breakpoints or watchpoints.
    pub fn new() -> Self {
        Self::default()
    }

    /// Breaks when `node`'s program counter reaches `pc`.
    pub fn add_breakpoint(&mut self, node: NodeId, pc: u16) {
        self.breakpoints.entry(node).or_default().insert(pc);
    }

    /// Removes a breakpoint; returns whether it existed.
    pub fn remove_breakpoint(&mut self, node: NodeId, pc: u16) -> bool {
        self.breakpoints
            .get_mut(&node)
            .is_some_and(|set| set.remove(&pc))
    }

    /// Stops when the word at `addr` of `node`'s memory changes.
    pub fn add_watchpoint(&mut self, node: NodeId, addr: u16) {
        self.watchpoints.push(Watch {
            node,
            addr,
            last: None,
        });
    }

    fn check(&mut self, system: &System) -> Result<Option<StopReason>, SystemError> {
        for (&node, pcs) in &self.breakpoints {
            let pc = system.cpu(node)?.pc();
            let arrived = self.last_pc.insert(node, pc) != Some(pc);
            if arrived
                && pcs.contains(&pc)
                && system.processor_status(node)? == ProcessorStatus::Running
            {
                return Ok(Some(StopReason::Breakpoint { node, pc }));
            }
        }
        for watch in &mut self.watchpoints {
            let value = system.memory(watch.node)?.read(watch.addr);
            match watch.last.replace(value) {
                Some(old) if old != value => {
                    return Ok(Some(StopReason::Watchpoint {
                        node: watch.node,
                        addr: watch.addr,
                        old,
                        new: value,
                    }));
                }
                _ => {}
            }
        }
        Ok(None)
    }

    /// Runs the system until a breakpoint or watchpoint fires, all
    /// activated processors halt and the network drains, the system
    /// idles with blocked processors, or `budget` cycles pass. It steps
    /// cycle by cycle, not through [`System::run_until`]: breakpoints
    /// read every cycle's PC, which a core running ahead would skip.
    ///
    /// # Errors
    ///
    /// Propagates [`SystemError`] from stepping or from breakpoints set
    /// on non-processor nodes.
    pub fn run(&mut self, system: &mut System, budget: u64) -> Result<StopReason, SystemError> {
        // Prime watch/PC state so pre-existing values don't fire.
        self.check(system)?;
        for _ in 0..budget {
            system.step()?;
            if let Some(reason) = self.check(system)? {
                return Ok(reason);
            }
            if system.halted_and_drained() {
                return Ok(StopReason::AllHalted);
            }
            if system.is_idle() {
                return Ok(StopReason::IdleBlocked);
            }
        }
        Ok(StopReason::Budget)
    }

    /// Steps the system until processor `node` retires exactly one more
    /// instruction (or `budget` cycles pass).
    ///
    /// # Errors
    ///
    /// [`SystemError::BadNode`] if `node` is not a processor; budget
    /// exhaustion is reported as `Ok(false)`.
    pub fn step_instruction(
        &mut self,
        system: &mut System,
        node: NodeId,
        budget: u64,
    ) -> Result<bool, SystemError> {
        let start = system.cpu(node)?.retired();
        for _ in 0..budget {
            system.step()?;
            if system.cpu(node)?.retired() > start {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// One blocked processor in a [`DeadlockReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedProcessor {
    /// The blocked processor.
    pub node: NodeId,
    /// Why it is blocked.
    pub reason: BlockReason,
}

/// Result of [`analyze_deadlock`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeadlockReport {
    /// All blocked processors and their reasons.
    pub blocked: Vec<BlockedProcessor>,
    /// Wait-for cycles among processors: each is a closed chain
    /// `a → b → … → a` of `wait` dependencies — a certain deadlock.
    pub cycles: Vec<Vec<NodeId>>,
    /// Processors waiting on a node that can never notify them: an
    /// inactive or halted processor, or a non-processor node.
    pub waiting_on_dead: Vec<BlockedProcessor>,
    /// Links the network's online diagnosis has declared dead — context
    /// for telling a software deadlock from network degradation (a
    /// blocked processor may simply be on the far side of a reroute).
    pub dead_links: Vec<(hermes_noc::RouterAddr, hermes_noc::Port)>,
    /// Routers the online diagnosis has declared dead entirely.
    pub dead_routers: Vec<hermes_noc::RouterAddr>,
    /// Nodes the system has declared dead (their IP no longer steps); a
    /// processor "waiting" on one of these is starved, not deadlocked.
    pub dead_nodes: Vec<NodeId>,
}

impl DeadlockReport {
    /// Whether the analysis found a certain synchronization bug.
    pub fn has_deadlock(&self) -> bool {
        !self.cycles.is_empty() || !self.waiting_on_dead.is_empty()
    }
}

impl std::fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.blocked.is_empty() {
            return write!(f, "no blocked processors");
        }
        writeln!(f, "blocked processors:")?;
        for b in &self.blocked {
            writeln!(f, "  {}: {:?}", b.node, b.reason)?;
        }
        for cycle in &self.cycles {
            let chain: Vec<String> = cycle.iter().map(|n| n.to_string()).collect();
            writeln!(f, "deadlock cycle: {} -> {}", chain.join(" -> "), chain[0])?;
        }
        for b in &self.waiting_on_dead {
            writeln!(f, "{} waits on a node that cannot notify", b.node)?;
        }
        if !self.dead_links.is_empty() {
            let links: Vec<String> = self
                .dead_links
                .iter()
                .map(|(addr, port)| format!("{addr}:{port:?}"))
                .collect();
            writeln!(f, "network degraded, dead links: {}", links.join(", "))?;
        }
        if !self.dead_routers.is_empty() {
            let routers: Vec<String> = self.dead_routers.iter().map(|a| a.to_string()).collect();
            writeln!(f, "dead routers: {}", routers.join(", "))?;
        }
        if !self.dead_nodes.is_empty() {
            let nodes: Vec<String> = self.dead_nodes.iter().map(|n| n.to_string()).collect();
            writeln!(f, "dead nodes: {}", nodes.join(", "))?;
        }
        Ok(())
    }
}

/// The debugger's `trace` command: formats the last `last` packet-level
/// traces that touched `node`'s router as source or destination — every
/// route decision, link hop and buffer occupancy along each packet's
/// path. Requires [`System::enable_packet_trace`]; returns a hint when
/// packet tracing is off.
pub fn packet_trace_dump(system: &System, node: NodeId, last: usize) -> String {
    let Some(addr) = system.table().router_of(node) else {
        return format!("{node} is not part of this system\n");
    };
    let Some(tracer) = system.packet_trace() else {
        return "packet tracing is off — call System::enable_packet_trace first\n".to_string();
    };
    let traces = tracer.traces_for(addr, last);
    if traces.is_empty() {
        return format!("no traced packets touched {node} (router {addr})\n");
    }
    let mut out = String::new();
    for trace in traces {
        out.push_str(&trace.to_string());
    }
    out
}

/// Builds the wait-for graph of the blocked processors and reports
/// synchronization cycles and waits on dead nodes.
pub fn analyze_deadlock(system: &System) -> DeadlockReport {
    let mut report = DeadlockReport {
        dead_links: system.dead_links(),
        dead_routers: system.noc().dead_routers(),
        dead_nodes: system.dead_nodes().to_vec(),
        ..DeadlockReport::default()
    };
    let processors = system.processors();
    let mut wait_edge: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    for &node in &processors {
        let Ok(Some(reason)) = system.block_reason(node) else {
            continue;
        };
        report.blocked.push(BlockedProcessor { node, reason });
        if let BlockReason::WaitFor(target) = reason {
            wait_edge.insert(node, target);
            // Waiting on a node that cannot ever notify?
            let dead = match system.processor_status(target) {
                Ok(ProcessorStatus::Inactive)
                | Ok(ProcessorStatus::Halted)
                | Ok(ProcessorStatus::Faulted) => true,
                Ok(_) => false,
                Err(_) => true, // not a processor (or not a node)
            };
            if dead {
                report
                    .waiting_on_dead
                    .push(BlockedProcessor { node, reason });
            }
        }
    }
    // Cycle detection: follow wait edges from each blocked node.
    let mut reported: BTreeSet<NodeId> = BTreeSet::new();
    for &start in wait_edge.keys() {
        if reported.contains(&start) {
            continue;
        }
        let mut path = vec![start];
        let mut here = start;
        while let Some(&next) = wait_edge.get(&here) {
            if let Some(pos) = path.iter().position(|&n| n == next) {
                let cycle: Vec<NodeId> = path[pos..].to_vec();
                // Report each cycle only once, whichever node we entered
                // it from.
                if cycle.iter().all(|n| !reported.contains(n)) {
                    for &n in &cycle {
                        reported.insert(n);
                    }
                    report.cycles.push(cycle);
                }
                break;
            }
            path.push(next);
            here = next;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PROCESSOR_1, PROCESSOR_2, WAIT_ADDR};
    use r8::asm::assemble;

    fn wait_program(on: u16) -> Vec<u16> {
        assemble(&format!(
            "XOR R0, R0, R0\nLIW R8, {WAIT_ADDR}\nLIW R9, {on}\nST R9, R0, R8\nHALT"
        ))
        .unwrap()
        .words()
        .to_vec()
    }

    #[test]
    fn breakpoint_stops_before_later_instructions() {
        let mut system = System::paper_config().unwrap();
        let program = assemble("LIW R1, 5\nLIW R2, 6\nHALT").unwrap();
        system
            .memory_mut(PROCESSOR_1)
            .unwrap()
            .write_block(0, program.words());
        system.activate_directly(PROCESSOR_1).unwrap();
        let mut debugger = Debugger::new();
        debugger.add_breakpoint(PROCESSOR_1, 2);
        let stop = debugger.run(&mut system, 10_000).unwrap();
        assert_eq!(
            stop,
            StopReason::Breakpoint {
                node: PROCESSOR_1,
                pc: 2
            }
        );
        assert_eq!(system.cpu(PROCESSOR_1).unwrap().reg(1), 5);
        assert_eq!(system.cpu(PROCESSOR_1).unwrap().reg(2), 0);
        // Continuing runs to completion.
        let stop = debugger.run(&mut system, 10_000).unwrap();
        assert_eq!(stop, StopReason::AllHalted);
        assert_eq!(system.cpu(PROCESSOR_1).unwrap().reg(2), 6);
    }

    #[test]
    fn watchpoint_reports_the_change() {
        let mut system = System::paper_config().unwrap();
        let program =
            assemble("XOR R0, R0, R0\nLIW R1, 0x80\nLIW R2, 42\nST R2, R1, R0\nHALT").unwrap();
        system
            .memory_mut(PROCESSOR_1)
            .unwrap()
            .write_block(0, program.words());
        system.activate_directly(PROCESSOR_1).unwrap();
        let mut debugger = Debugger::new();
        debugger.add_watchpoint(PROCESSOR_1, 0x80);
        let stop = debugger.run(&mut system, 10_000).unwrap();
        assert_eq!(
            stop,
            StopReason::Watchpoint {
                node: PROCESSOR_1,
                addr: 0x80,
                old: 0,
                new: 42,
            }
        );
    }

    #[test]
    fn single_stepping_advances_one_instruction() {
        let mut system = System::paper_config().unwrap();
        // A long straight-line program so the core is still running when
        // we start stepping.
        let mut source = String::new();
        for _ in 0..100 {
            source.push_str("ADDI R1, 1\n");
        }
        source.push_str("HALT");
        let program = assemble(&source).unwrap();
        system
            .memory_mut(PROCESSOR_1)
            .unwrap()
            .write_block(0, program.words());
        system.activate_directly(PROCESSOR_1).unwrap();
        // Let the activation packet arrive first.
        system.run(50).unwrap();
        let mut debugger = Debugger::new();
        let before = system.cpu(PROCESSOR_1).unwrap().retired();
        assert!(debugger
            .step_instruction(&mut system, PROCESSOR_1, 1_000)
            .unwrap());
        assert_eq!(system.cpu(PROCESSOR_1).unwrap().retired(), before + 1);
    }

    #[test]
    fn mutual_wait_is_reported_as_a_cycle() {
        let mut system = System::paper_config().unwrap();
        system
            .memory_mut(PROCESSOR_1)
            .unwrap()
            .write_block(0, &wait_program(PROCESSOR_2.as_u16()));
        system
            .memory_mut(PROCESSOR_2)
            .unwrap()
            .write_block(0, &wait_program(PROCESSOR_1.as_u16()));
        system.activate_directly(PROCESSOR_1).unwrap();
        system.activate_directly(PROCESSOR_2).unwrap();
        let mut debugger = Debugger::new();
        let stop = debugger.run(&mut system, 1_000_000).unwrap();
        assert_eq!(stop, StopReason::IdleBlocked);
        let report = analyze_deadlock(&system);
        assert!(report.has_deadlock());
        assert_eq!(report.cycles.len(), 1);
        let mut cycle = report.cycles[0].clone();
        cycle.sort();
        assert_eq!(cycle, vec![PROCESSOR_1, PROCESSOR_2]);
        assert!(report.to_string().contains("deadlock cycle"));
    }

    #[test]
    fn waiting_on_a_halted_peer_is_flagged() {
        let mut system = System::paper_config().unwrap();
        system
            .memory_mut(PROCESSOR_1)
            .unwrap()
            .write_block(0, &wait_program(PROCESSOR_2.as_u16()));
        // P2 just halts without notifying.
        let halt = assemble("HALT").unwrap();
        system
            .memory_mut(PROCESSOR_2)
            .unwrap()
            .write_block(0, halt.words());
        system.activate_directly(PROCESSOR_1).unwrap();
        system.activate_directly(PROCESSOR_2).unwrap();
        let mut debugger = Debugger::new();
        let stop = debugger.run(&mut system, 1_000_000).unwrap();
        assert_eq!(stop, StopReason::IdleBlocked);
        let report = analyze_deadlock(&system);
        assert!(report.has_deadlock());
        assert!(report.cycles.is_empty());
        assert_eq!(report.waiting_on_dead.len(), 1);
        assert_eq!(report.waiting_on_dead[0].node, PROCESSOR_1);
    }

    #[test]
    fn trace_dump_shows_a_nodes_packets() {
        let mut system = System::paper_config().unwrap();
        // Tracing off: the command explains itself instead of panicking.
        assert!(packet_trace_dump(&system, PROCESSOR_1, 5).contains("packet tracing is off"));
        system.enable_packet_trace(64);
        let program = assemble("LIW R1, 1\nHALT").unwrap();
        system
            .memory_mut(PROCESSOR_1)
            .unwrap()
            .write_block(0, program.words());
        system.activate_directly(PROCESSOR_1).unwrap();
        system.run_until_halted(100_000).unwrap();
        let dump = packet_trace_dump(&system, PROCESSOR_1, 5);
        assert!(
            dump.contains("packet"),
            "activation traffic was traced: {dump}"
        );
        assert!(dump.contains("route"), "route decisions appear in the dump");
        // A node outside the system is reported, not an error.
        assert!(packet_trace_dump(&system, NodeId(99), 5).contains("not part"));
    }

    #[test]
    fn healthy_system_reports_nothing() {
        let mut system = System::paper_config().unwrap();
        let program = assemble("LIW R1, 1\nHALT").unwrap();
        system
            .memory_mut(PROCESSOR_1)
            .unwrap()
            .write_block(0, program.words());
        system.activate_directly(PROCESSOR_1).unwrap();
        system.run_until_halted(100_000).unwrap();
        let report = analyze_deadlock(&system);
        assert!(!report.has_deadlock());
        assert!(report.blocked.is_empty());
        assert_eq!(report.to_string(), "no blocked processors");
    }
}

//! The host computer: a programmatic model of the paper's "Serial
//! software" (§4, Figs. 8–9).
//!
//! The host drives the MultiNoC system over the serial link: it
//! synchronizes (0x55), fills memories with object code and data,
//! activates processors, answers `scanf` requests and collects `printf`
//! output and memory read-backs. Every method pumps the system clock
//! while it waits, so a single call corresponds to one interaction of the
//! original GUI.

use std::collections::{BTreeMap, VecDeque};

use crate::error::SystemError;
use crate::node::NodeId;
use crate::serial::{DeviceFrame, FrameBuffer, HostCommand, SYNC_BYTE};
use crate::service::Message;
use crate::system::System;

/// The host-side endpoint of the serial protocol.
#[derive(Debug)]
pub struct Host {
    rx: FrameBuffer,
    printf_log: BTreeMap<u8, Vec<u16>>,
    scanf_requests: VecDeque<u8>,
    budget: u64,
    synced: bool,
}

impl Host {
    /// A host with the default per-operation cycle budget (1M cycles).
    pub fn new() -> Self {
        Self {
            rx: FrameBuffer::new(),
            printf_log: BTreeMap::new(),
            scanf_requests: VecDeque::new(),
            budget: 1_000_000,
            synced: false,
        }
    }

    /// Sets the cycle budget each blocking operation may consume.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Drains bytes arriving from the system into frames, filing printf
    /// output and scanf requests.
    ///
    /// # Errors
    ///
    /// [`SystemError::Protocol`] on an unknown frame opcode.
    pub fn poll(&mut self, system: &mut System) -> Result<Vec<DeviceFrame>, SystemError> {
        while let Some(byte) = system.link_mut().host_recv() {
            self.rx.push(byte);
        }
        let mut frames = Vec::new();
        loop {
            match self.rx.parse_device_frame() {
                Ok(Some(frame)) => {
                    match &frame {
                        DeviceFrame::Printf { node, value } => {
                            self.printf_log.entry(*node).or_default().push(*value);
                        }
                        DeviceFrame::ScanfRequest { node } => {
                            self.scanf_requests.push_back(*node);
                        }
                        DeviceFrame::ReadReturn { .. } => {}
                    }
                    frames.push(frame);
                }
                Ok(None) => return Ok(frames),
                Err(e) => return Err(SystemError::Protocol(e.to_string())),
            }
        }
    }

    /// Runs the system until `done` holds, polling frames along the way.
    fn pump<F>(
        &mut self,
        system: &mut System,
        what: &'static str,
        mut done: F,
    ) -> Result<Vec<DeviceFrame>, SystemError>
    where
        F: FnMut(&System, &[DeviceFrame]) -> bool,
    {
        let mut collected = Vec::new();
        system.run_until(self.budget, what, |sys| {
            collected.extend(self.poll(sys)?);
            Ok(done(sys, &collected))
        })?;
        Ok(collected)
    }

    /// Sends the 0x55 synchronization byte and waits until the serial IP
    /// locks on ("Synchronize SW/HW" in Fig. 8).
    ///
    /// # Errors
    ///
    /// [`SystemError::BudgetExhausted`] if the byte never arrives.
    pub fn synchronize(&mut self, system: &mut System) -> Result<(), SystemError> {
        system.link_mut().host_send(&[SYNC_BYTE]);
        self.synced = true;
        self.pump(system, "serial synchronization", |sys, _| {
            sys.link().is_idle()
        })?;
        Ok(())
    }

    fn ensure_synced(&mut self, system: &mut System) -> Result<(), SystemError> {
        if !self.synced {
            self.synchronize(system)?;
        }
        Ok(())
    }

    /// Writes `data` into `node`'s memory starting at `addr`, chunking as
    /// needed, and waits until the system drains so the write has landed
    /// ("Send Generated Object Code" / "Fill Memory Contents" of Fig. 8).
    ///
    /// # Errors
    ///
    /// [`SystemError::AddressRange`] if the block does not fit a 16-bit
    /// address space; budget/protocol errors from pumping.
    pub fn write_memory(
        &mut self,
        system: &mut System,
        node: NodeId,
        addr: u16,
        data: &[u16],
    ) -> Result<(), SystemError> {
        self.ensure_synced(system)?;
        if usize::from(addr) + data.len() > usize::from(u16::MAX) + 1 {
            return Err(SystemError::AddressRange {
                addr,
                count: data.len(),
            });
        }
        let chunk_size = Message::max_data_words(system.noc().config().flit_bits).min(64);
        let mut offset = 0usize;
        while offset < data.len() {
            let chunk = &data[offset..(offset + chunk_size).min(data.len())];
            let cmd = HostCommand::WriteMemory {
                node: node.0,
                addr: addr + offset as u16,
                data: chunk.to_vec(),
            };
            system.link_mut().host_send(&cmd.to_bytes());
            offset += chunk.len();
        }
        // Drain: the writes have landed once the link and network are
        // empty AND the serial IP holds no unacknowledged writes — under
        // fault injection a quiet network may just mean a retransmission
        // timer is pending.
        self.pump(system, "memory write to drain", |sys, _| {
            sys.link().is_idle() && sys.noc().is_idle() && sys.net_quiet()
        })?;
        Ok(())
    }

    /// Loads a program image at address 0 of `node`'s local memory.
    ///
    /// # Errors
    ///
    /// As [`write_memory`](Self::write_memory).
    pub fn load_program(
        &mut self,
        system: &mut System,
        node: NodeId,
        words: &[u16],
    ) -> Result<(), SystemError> {
        self.write_memory(system, node, 0, words)
    }

    /// Reads `count` words starting at `addr` from `node`'s memory (the
    /// debug flow of Fig. 9, step 1).
    ///
    /// # Errors
    ///
    /// Budget/protocol errors; [`SystemError::AddressRange`] for
    /// impossible ranges.
    pub fn read_memory(
        &mut self,
        system: &mut System,
        node: NodeId,
        addr: u16,
        count: usize,
    ) -> Result<Vec<u16>, SystemError> {
        self.ensure_synced(system)?;
        if usize::from(addr) + count > usize::from(u16::MAX) + 1 {
            return Err(SystemError::AddressRange { addr, count });
        }
        let chunk_size = Message::max_data_words(system.noc().config().flit_bits).min(64);
        let mut result = Vec::with_capacity(count);
        let mut offset = 0usize;
        while offset < count {
            let chunk = (count - offset).min(chunk_size);
            let chunk_addr = addr + offset as u16;
            let cmd = HostCommand::ReadMemory {
                node: node.0,
                count: chunk as u8,
                addr: chunk_addr,
            };
            system.link_mut().host_send(&cmd.to_bytes());
            let frames = self.pump(system, "read return", |_, frames| {
                frames.iter().any(|f| {
                    matches!(f, DeviceFrame::ReadReturn { node: n, addr: a, .. }
                             if *n == node.0 && *a == chunk_addr)
                })
            })?;
            for frame in frames {
                if let DeviceFrame::ReadReturn {
                    node: n,
                    addr: a,
                    data,
                } = frame
                {
                    if n == node.0 && a == chunk_addr {
                        result.extend(data);
                    }
                }
            }
            offset += chunk;
        }
        Ok(result)
    }

    /// Activates `node`'s processor ("Activate Processors" of Fig. 8) and
    /// waits until it actually starts.
    ///
    /// # Errors
    ///
    /// [`SystemError::BadNode`] if `node` is not a processor; budget/
    /// protocol errors from pumping.
    pub fn activate(&mut self, system: &mut System, node: NodeId) -> Result<(), SystemError> {
        self.ensure_synced(system)?;
        system.processor_status(node)?; // kind check up front
        let cmd = HostCommand::Activate { node: node.0 };
        system.link_mut().host_send(&cmd.to_bytes());
        self.pump(system, "processor activation", |sys, _| {
            sys.processor_status(node)
                .map(|s| s != crate::processor::ProcessorStatus::Inactive)
                .unwrap_or(false)
        })?;
        Ok(())
    }

    /// Printf output collected so far from `node`.
    pub fn printf_output(&self, node: NodeId) -> &[u16] {
        self.printf_log
            .get(&node.0)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Takes (and clears) the printf output of `node`.
    pub fn take_printf(&mut self, node: NodeId) -> Vec<u16> {
        self.printf_log.remove(&node.0).unwrap_or_default()
    }

    /// Nodes with a pending scanf request, oldest first.
    pub fn pending_scanf(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.scanf_requests.iter().map(|&n| NodeId(n))
    }

    /// Answers the oldest pending scanf of `node` with `value` (the
    /// interaction monitors of Fig. 9, step 2).
    ///
    /// # Errors
    ///
    /// [`SystemError::Protocol`] if `node` has no pending scanf; budget
    /// errors from pumping.
    pub fn answer_scanf(
        &mut self,
        system: &mut System,
        node: NodeId,
        value: u16,
    ) -> Result<(), SystemError> {
        let pos = self
            .scanf_requests
            .iter()
            .position(|&n| n == node.0)
            .ok_or_else(|| SystemError::Protocol(format!("{node} has no pending scanf")))?;
        self.scanf_requests.remove(pos);
        let cmd = HostCommand::ScanfReturn {
            node: node.0,
            value,
        };
        system.link_mut().host_send(&cmd.to_bytes());
        self.pump(system, "scanf answer delivery", |sys, _| {
            sys.link().is_idle()
        })?;
        Ok(())
    }

    /// Runs the system until `node` has produced at least `count` printf
    /// words in total (as counted by [`printf_output`](Self::printf_output)).
    ///
    /// # Errors
    ///
    /// Budget/protocol errors from pumping.
    pub fn wait_for_printf(
        &mut self,
        system: &mut System,
        node: NodeId,
        count: usize,
    ) -> Result<(), SystemError> {
        let have = self.printf_output(node).len();
        if have >= count {
            return Ok(());
        }
        self.pump(system, "printf output", |_, frames| {
            let printed = frames
                .iter()
                .filter(|f| matches!(f, DeviceFrame::Printf { node: n, .. } if *n == node.0));
            have + printed.count() >= count
        })?;
        Ok(())
    }

    /// Runs the system until a scanf request from any node arrives
    /// (useful for interactive applications like the edge detector).
    ///
    /// # Errors
    ///
    /// Budget/protocol errors from pumping.
    pub fn wait_for_scanf(&mut self, system: &mut System) -> Result<NodeId, SystemError> {
        if self.scanf_requests.is_empty() {
            self.pump(system, "a scanf request", |_, frames| {
                frames
                    .iter()
                    .any(|f| matches!(f, DeviceFrame::ScanfRequest { .. }))
            })?;
        }
        self.pending_scanf().next().ok_or_else(|| {
            SystemError::Protocol("pump returned on a scanf frame but none was queued".into())
        })
    }
}

impl Default for Host {
    fn default() -> Self {
        Self::new()
    }
}

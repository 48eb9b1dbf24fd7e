//! The Hermes router: five buffered input ports, five output ports and a
//! single centralized control logic running routing and arbitration
//! (Fig. 2 of the paper).

use crate::addr::{Port, RouterAddr};
use crate::arbiter::Arbiter;
use crate::buffer::FlitBuffer;
use crate::config::NocConfig;
use crate::flit::Flit;
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

/// Rejects a crossbar port index outside the five ports.
fn check_port_index(index: Option<usize>) -> Result<(), SnapshotError> {
    match index {
        Some(index) if index >= 5 => Err(SnapshotError::Malformed("crossbar port index")),
        _ => Ok(()),
    }
}

/// One buffered input port and its wormhole connection state.
#[derive(Debug)]
pub(crate) struct InputPort {
    /// Circular FIFO holding flits waiting to be forwarded.
    pub buffer: FlitBuffer,
    /// Output port this input is currently connected to, if any.
    pub conn: Option<usize>,
    /// Cycle at which the connection becomes usable (routing charge).
    pub conn_active_at: u64,
    /// Flits of the current packet already forwarded over `conn`.
    pub fwd_count: usize,
    /// Total wire flits of the current packet, known once the size flit
    /// has been forwarded.
    pub fwd_expected: Option<usize>,
    /// Fault injection decided to drop the current packet: instead of a
    /// crossbar connection, the port consumes and discards its flits
    /// until the trailer, so the wormhole unwinds cleanly.
    pub sinking: bool,
    /// Earliest cycle the sink may consume its next flit (discarding
    /// paces at the same handshake cadence as a real transfer).
    pub sink_ready_at: u64,
    /// The packet currently being forwarded (or sunk) through this input,
    /// recorded at grant time so a wedged wormhole can be identified and
    /// flushed when a link dies mid-packet.
    pub cur_packet: Option<crate::endpoint::PacketId>,
    /// Consecutive cycles this connection had a flit ready but the
    /// downstream buffer full; feeds the deadlock-recovery timeout on
    /// degraded fault-tolerant meshes.
    pub blocked_cycles: u32,
}

impl InputPort {
    fn new(depth: usize) -> Self {
        Self {
            buffer: FlitBuffer::new(depth),
            conn: None,
            conn_active_at: 0,
            fwd_count: 0,
            fwd_expected: None,
            sinking: false,
            sink_ready_at: 0,
            cur_packet: None,
            blocked_cycles: 0,
        }
    }

    /// Whether the head flit is an unrouted packet header.
    pub fn has_pending_header(&self, now: u64) -> bool {
        self.conn.is_none()
            && !self.sinking
            && self.fwd_count == 0
            && self.buffer.peek().is_some_and(|flit| flit.arrived < now)
    }

    /// Starts discarding the packet whose header is at the buffer head.
    pub fn start_sink(&mut self, now: u64) {
        self.sinking = true;
        self.sink_ready_at = now;
    }

    /// Clears connection state after the packet trailer has left.
    pub fn close(&mut self) {
        self.conn = None;
        self.fwd_count = 0;
        self.fwd_expected = None;
        self.sinking = false;
        self.cur_packet = None;
        self.blocked_cycles = 0;
    }

    /// Serializes the buffered flits (head first) and the wormhole
    /// connection state.
    pub fn snapshot_write(&self, w: &mut SnapshotWriter) {
        let mut buffer = self.buffer.clone();
        w.put(&std::iter::from_fn(|| buffer.pop()).collect::<Vec<Flit>>());
        w.put(&(
            self.conn,
            self.conn_active_at,
            self.fwd_count,
            self.fwd_expected,
        ));
        w.put(&(
            self.sinking,
            self.sink_ready_at,
            self.cur_packet,
            self.blocked_cycles,
        ));
    }

    /// Restores state into a port freshly built from the configuration.
    pub fn snapshot_read(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let flits: Vec<Flit> = r.take()?;
        if flits.len() > self.buffer.capacity() {
            return Err(SnapshotError::Malformed("flit buffer over capacity"));
        }
        for flit in flits {
            self.buffer.push(flit);
        }
        (
            self.conn,
            self.conn_active_at,
            self.fwd_count,
            self.fwd_expected,
        ) = r.take()?;
        (
            self.sinking,
            self.sink_ready_at,
            self.cur_packet,
            self.blocked_cycles,
        ) = r.take()?;
        check_port_index(self.conn)
    }
}

/// One output port: the physical channel towards a neighbour (or the local
/// IP) plus the switch state saying which input owns it.
#[derive(Debug)]
pub(crate) struct OutputPort {
    /// Input port currently connected through the crossbar, if any.
    pub owner: Option<usize>,
    /// Earliest cycle the next flit transfer may complete (the
    /// asynchronous handshake takes `cycles_per_flit` per flit).
    pub next_free: u64,
}

crate::snap_struct!(OutputPort { owner, next_free } RouterCounters {
    grants,
    blocked_cycles,
    flits_forwarded,
    buffer_peak,
});

impl OutputPort {
    fn new() -> Self {
        Self {
            owner: None,
            next_free: 0,
        }
    }
}

/// Per-router control-logic counters; [`Noc::metrics`](crate::Noc::metrics)
/// exports the grants and the buffer peak.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RouterCounters {
    /// Connections granted by the control logic.
    pub grants: u64,
    /// Cycle-samples in which a routing request waited on a busy output.
    pub blocked_cycles: u64,
    /// Flits forwarded through this router (all output ports).
    pub flits_forwarded: u64,
    /// High-water mark of any single input buffer's occupancy, sampled at
    /// every cycle boundary — the deepest queueing this router ever saw.
    pub buffer_peak: u64,
}

/// The link leaving one output port, resolved from the topology once when
/// the router is built, so the kernel looks nothing up per flit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Link {
    /// The downstream router's index and the input port index the link
    /// enters it by; `None` for `Local` and for a port off the grid edge.
    pub next: Option<(usize, usize)>,
    /// Cycles the output stays busy per flit: `cycles_per_flit` times the
    /// link's cadence multiplier.
    pub hold: u64,
    /// Extra in-flight cycles before the downstream router can act on a
    /// flit (see [`Topology::link_latency`](crate::Topology::link_latency)).
    pub latency: u64,
}

/// A Hermes router.
#[derive(Debug)]
pub(crate) struct Router {
    pub addr: RouterAddr,
    pub inputs: [InputPort; 5],
    pub outputs: [OutputPort; 5],
    /// The link behind each output port, by port index. Derived from the
    /// configuration, never serialized.
    pub links: [Link; 5],
    pub arbiter: Arbiter,
    /// The centralized control handles one routing decision at a time;
    /// while busy no new connection can be granted.
    pub control_busy_until: u64,
    pub counters: RouterCounters,
}

impl Router {
    pub fn new(addr: RouterAddr, config: &NocConfig) -> Self {
        let topology = &config.topology;
        let link = |out: usize| {
            let port = Port::from_index(out);
            let next = (topology.neighbour(addr, port))
                .zip(port.opposite())
                .map(|(next, in_port)| (topology.index(next), in_port.index()));
            let mult = topology.link_cadence_mult(addr, port);
            Link {
                next,
                hold: u64::from(config.cycles_per_flit) * u64::from(mult),
                latency: topology.link_latency(addr, port),
            }
        };
        Self {
            addr,
            inputs: std::array::from_fn(|_| InputPort::new(config.buffer_depth)),
            outputs: std::array::from_fn(|_| OutputPort::new()),
            links: std::array::from_fn(link),
            arbiter: Arbiter::new(config.arbitration, 5),
            control_busy_until: 0,
            counters: RouterCounters::default(),
        }
    }

    /// Whether a port exists on this router in the given topology (mesh
    /// borders lack the ports that would leave the grid; torus routers
    /// have all five).
    pub fn has_port(&self, port: Port, topology: &crate::topology::Topology) -> bool {
        topology.has_port(self.addr, port)
    }

    /// Flits currently sitting in this router's input buffers (telemetry
    /// occupancy reading at sample boundaries).
    pub fn buffered_flits(&self) -> u64 {
        self.inputs.iter().map(|p| p.buffer.len() as u64).sum()
    }

    /// All buffers empty, no connection open and no packet mid-discard.
    pub fn is_idle(&self) -> bool {
        self.inputs
            .iter()
            .all(|input| input.buffer.is_empty() && input.conn.is_none() && !input.sinking)
    }

    /// Serializes every port, the arbiter pointer, the control-logic
    /// busy horizon and the counters (the address is positional).
    pub fn snapshot_write(&self, w: &mut SnapshotWriter) {
        for input in &self.inputs {
            input.snapshot_write(w);
        }
        w.put(&self.outputs);
        self.arbiter.snapshot_write(w);
        w.put(&(self.control_busy_until, self.counters));
    }

    /// Restores state into a router freshly built from the configuration.
    pub fn snapshot_read(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        for input in &mut self.inputs {
            input.snapshot_read(r)?;
        }
        self.outputs = r.take()?;
        for output in &self.outputs {
            check_port_index(output.owner)?;
        }
        self.arbiter.snapshot_read(r)?;
        (self.control_busy_until, self.counters) = r.take()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn border_router_port_presence() {
        let config = NocConfig::mesh(2, 2);
        let topo = config.topology;
        let r = Router::new(RouterAddr::new(0, 0), &config);
        assert!(r.has_port(Port::East, &topo));
        assert!(!r.has_port(Port::West, &topo));
        assert!(r.has_port(Port::North, &topo));
        assert!(!r.has_port(Port::South, &topo));
        assert!(r.has_port(Port::Local, &topo));
        let r = Router::new(RouterAddr::new(1, 1), &config);
        assert!(!r.has_port(Port::East, &topo));
        assert!(r.has_port(Port::West, &topo));
        // On a torus the same corner router has every port.
        let wrap = crate::topology::Topology::Torus {
            width: 3,
            height: 3,
        };
        let r = Router::new(RouterAddr::new(0, 0), &NocConfig::torus(3, 3));
        for port in Port::ALL {
            assert!(r.has_port(port, &wrap));
        }
    }

    #[test]
    fn fresh_router_is_idle() {
        let r = Router::new(RouterAddr::new(0, 0), &NocConfig::default());
        assert!(r.is_idle());
    }
}

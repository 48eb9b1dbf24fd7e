//! NoC configuration.

use crate::arbiter::Arbitration;
use crate::error::ConfigError;
use crate::routing::Routing;
use crate::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::topology::{D2dChannel, Topology};

/// Deepest input buffer a configuration may ask for, in flits. The
/// paper's prototype uses 2 and the buffer-depth sweep stops at 16; the
/// bound keeps a damaged snapshot's depth from sizing every buffer of
/// the mesh.
pub(crate) const MAX_BUFFER_DEPTH: usize = 64;

/// How the one cycle engine behind [`Noc::step`](crate::Noc::step),
/// [`Noc::run`](crate::Noc::run) and
/// [`Noc::run_until_idle`](crate::Noc::run_until_idle) is driven: a
/// thread count (the mesh is sharded row-wise over that many threads)
/// and whether each cycle walks only the active routers or all of them.
/// All kernels are cycle-for-cycle identical in every observable outcome
/// (delivery cycles, statistics, fault counters, random fault decisions);
/// they differ only in how much work a cycle costs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum KernelMode {
    /// One thread walking the active set (the default): routers and
    /// endpoints with no buffered flits, no open connection and no
    /// pending control work are skipped entirely; they are woken by a
    /// flit arrival, a local injection, or a scheduled control-logic
    /// stall window.
    #[default]
    Active,
    /// One thread walking every router and endpoint through every
    /// sub-phase on every cycle, one cycle per window. Kept as the
    /// reference for differential testing of the active-set walk.
    Reference,
    /// The active-set walk sharded row-wise across a persistent pool of
    /// `threads` workers, synchronised by barriers. `threads: 1` is
    /// exactly `Active`. Bit-identical to `Active` and `Reference` in
    /// every observable; worthwhile only on meshes large enough to
    /// amortise the barrier cost (1024 routers, see [`auto`](Self::auto)).
    Parallel {
        /// Number of worker threads (the calling thread is one of them);
        /// must be at least 1.
        threads: usize,
    },
}

impl KernelMode {
    /// A reasonable kernel for a `width`×`height` mesh on this host:
    /// the sequential active-set kernel unless the mesh is saturated-scale
    /// (1024 routers, a 32×32 mesh) *and* the host has at least two cores.
    /// The crossover is set from `exp_suite perf`'s thread sweep (E20):
    /// below it even the batched-window parallel kernel cannot amortise
    /// its synchronisation against `Active`'s idle-skipping, so picking
    /// `Parallel` there would silently select the slower kernel.
    pub fn auto(width: u8, height: u8) -> Self {
        let routers = usize::from(width) * usize::from(height);
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        if routers >= 1024 && cores >= 2 {
            KernelMode::Parallel {
                threads: cores.min(8).min(usize::from(height).max(1)),
            }
        } else {
            KernelMode::Active
        }
    }

    /// Threads — and row shards — the engine runs on.
    pub(crate) fn threads(self) -> usize {
        match self {
            KernelMode::Parallel { threads } => threads,
            KernelMode::Active | KernelMode::Reference => 1,
        }
    }

    /// Whether every cycle walks every router instead of the active set.
    pub(crate) fn full_walk(self) -> bool {
        self == KernelMode::Reference
    }
}

/// Parameters of a Hermes NoC instance.
///
/// The defaults reproduce the MultiNoC prototype: 8-bit flits, 2-flit
/// circular-FIFO input buffers, a routing charge of 7 cycles per router,
/// 2 cycles per flit per hop (asynchronous handshake), XY routing and
/// round-robin arbitration.
///
/// ```rust
/// use hermes_noc::NocConfig;
/// let config = NocConfig::mesh(2, 2);
/// assert_eq!(config.flit_bits, 8);
/// assert_eq!(config.buffer_depth, 2);
/// assert_eq!(config.routing_cycles, 7);
/// assert_eq!(config.max_payload_flits(), 254);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NocConfig {
    /// Shape of the router network: the paper's flat mesh, a wraparound
    /// torus, or a chiplet mesh-of-meshes with off-chip d2d channels.
    pub topology: Topology,
    /// Flit width in bits; even, in `4..=16`. The paper uses 8.
    pub flit_bits: u8,
    /// Input buffer depth in flits; the paper uses 2 to fit the FPGA.
    pub buffer_depth: usize,
    /// Routing/arbitration charge `R_i` per router in clock cycles; the
    /// paper states at least 7.
    pub routing_cycles: u32,
    /// Clock cycles a flit needs to cross one hop; the paper's handshake
    /// protocol needs at least 2.
    pub cycles_per_flit: u32,
    /// Routing algorithm; the paper uses deterministic XY.
    pub routing: Routing,
    /// Output-port arbitration; the paper uses round-robin to avoid
    /// starvation.
    pub arbitration: Arbitration,
    /// Consecutive failed (timed-out or garbled) hop handshakes after
    /// which the health monitor declares a link dead; must be at least 1.
    /// Only [`Routing::FaultTolerantXy`] reacts by reconfiguring.
    pub fault_threshold: u32,
    /// Stepping kernel (see [`KernelMode`]); all kernels are observably
    /// identical, `Reference` exists for differential testing.
    pub kernel: KernelMode,
    /// Number of recent per-packet records the statistics retain; must be
    /// at least 1. Older records are folded into the online aggregates
    /// (count/sum/min/max and the latency histogram) and evicted, so
    /// memory stays bounded on arbitrarily long runs.
    pub stats_window: usize,
    /// Consecutive cycles an established connection may sit with a flit
    /// ready but the downstream buffer full before the worm is flushed as
    /// deadlocked, on a degraded [`Routing::FaultTolerantXy`] mesh (at
    /// least one reconfiguration epoch announced). `0` disables recovery.
    ///
    /// While every router routes by the same table the turn restriction
    /// makes deadlock impossible, but during the reconfiguration
    /// wavefront worms granted under the old table can close a cyclic
    /// dependency with worms granted under the new one; the timeout
    /// breaks such transient cycles and the end-to-end layer retries the
    /// dropped payloads.
    ///
    /// A genuine cycle never makes progress, so its counters grow without
    /// bound and any finite threshold eventually fires; the default is
    /// therefore sized well above the longest zero-progress stretch heavy
    /// bursty congestion produces on small meshes (buffer depth 2 showed
    /// ≈500-cycle starvation under a 64-packet single-cycle burst), so
    /// merely-congested worms are never flushed.
    pub deadlock_timeout: u32,
}

impl NocConfig {
    /// Paper-default configuration for a `width`×`height` mesh.
    pub fn mesh(width: u8, height: u8) -> Self {
        Self::with_topology(Topology::Mesh { width, height })
    }

    /// Paper-default configuration for a `width`×`height` torus (both
    /// dimensions must be at least 3 to validate).
    pub fn torus(width: u8, height: u8) -> Self {
        Self::with_topology(Topology::Torus { width, height })
    }

    /// Paper-default configuration for a `k_chip`×`k_chip` package of
    /// `k_node`×`k_node` chiplets joined by `d2d` off-chip channels. The
    /// flit width is sized up automatically so the global grid stays
    /// addressable.
    pub fn chiplet(k_chip: u8, k_node: u8, d2d: D2dChannel) -> Self {
        let config = Self::with_topology(Topology::ChipletMesh {
            k_chip,
            k_node,
            d2d,
        });
        let side = u16::from(k_chip) * u16::from(k_node);
        let mut bits = config.flit_bits;
        while bits < 16 && side > (1u16 << (bits / 2)) {
            bits += 2;
        }
        config.with_flit_bits(bits)
    }

    /// Paper-default configuration over an explicit [`Topology`].
    pub fn with_topology(topology: Topology) -> Self {
        Self {
            topology,
            flit_bits: 8,
            buffer_depth: 2,
            routing_cycles: 7,
            cycles_per_flit: 2,
            routing: Routing::Xy,
            arbitration: Arbitration::RoundRobin,
            fault_threshold: 8,
            kernel: KernelMode::Active,
            stats_window: 4096,
            deadlock_timeout: 4096,
        }
    }

    /// The exact MultiNoC prototype network: a 2×2 mesh with the paper's
    /// defaults.
    pub fn multinoc() -> Self {
        Self::mesh(2, 2)
    }

    /// Sets the input buffer depth (builder style).
    pub fn with_buffer_depth(mut self, depth: usize) -> Self {
        self.buffer_depth = depth;
        self
    }

    /// Sets the flit width in bits (builder style).
    pub fn with_flit_bits(mut self, bits: u8) -> Self {
        self.flit_bits = bits;
        self
    }

    /// Sets the per-router routing charge in cycles (builder style).
    pub fn with_routing_cycles(mut self, cycles: u32) -> Self {
        self.routing_cycles = cycles;
        self
    }

    /// Sets the arbitration scheme (builder style).
    pub fn with_arbitration(mut self, arbitration: Arbitration) -> Self {
        self.arbitration = arbitration;
        self
    }

    /// Sets the routing algorithm (builder style).
    pub fn with_routing(mut self, routing: Routing) -> Self {
        self.routing = routing;
        self
    }

    /// Sets the consecutive-handshake-failure count after which a link is
    /// declared dead (builder style).
    pub fn with_fault_threshold(mut self, threshold: u32) -> Self {
        self.fault_threshold = threshold;
        self
    }

    /// Sets the stepping kernel (builder style).
    pub fn with_kernel_mode(mut self, kernel: KernelMode) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sets the number of recent per-packet records retained by the
    /// statistics (builder style).
    pub fn with_stats_window(mut self, window: usize) -> Self {
        self.stats_window = window;
        self
    }

    /// Sets the zero-progress window after which a connection on a
    /// degraded fault-tolerant mesh is flushed as deadlocked; `0`
    /// disables the recovery (builder style).
    pub fn with_deadlock_timeout(mut self, cycles: u32) -> Self {
        self.deadlock_timeout = cycles;
        self
    }

    /// Global grid columns (X dimension) of the topology.
    pub fn width(&self) -> u8 {
        self.topology.width()
    }

    /// Global grid rows (Y dimension) of the topology.
    pub fn height(&self) -> u8 {
        self.topology.height()
    }

    /// Number of routers in the network.
    pub fn router_count(&self) -> usize {
        self.topology.router_count()
    }

    /// Bit mask selecting the valid bits of a flit.
    pub fn flit_mask(&self) -> u16 {
        if self.flit_bits >= 16 {
            u16::MAX
        } else {
            (1u16 << self.flit_bits) - 1
        }
    }

    /// Maximum number of *payload* flits in one packet. The paper fixes
    /// the total packet length at `2^flit_bits` flits; two of those are the
    /// header and size flits.
    pub fn max_payload_flits(&self) -> usize {
        let total = 1usize << self.flit_bits;
        // The size flit itself must also be able to express the count.
        (total - 2).min(usize::from(self.flit_mask()))
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let (width, height) = match self.topology {
            Topology::Mesh { width, height } => (u16::from(width), u16::from(height)),
            Topology::Torus { width, height } => {
                if width != 0 && height != 0 && (width < 3 || height < 3) {
                    return Err(ConfigError::TorusTooSmall { width, height });
                }
                (u16::from(width), u16::from(height))
            }
            Topology::ChipletMesh { k_chip, k_node, .. } => {
                let side = u16::from(k_chip) * u16::from(k_node);
                if side > u16::from(u8::MAX) {
                    return Err(ConfigError::ChipletTooLarge { k_chip, k_node });
                }
                (side, side)
            }
        };
        if width == 0 || height == 0 {
            return Err(ConfigError::EmptyMesh);
        }
        if !(4..=16).contains(&self.flit_bits) || !self.flit_bits.is_multiple_of(2) {
            return Err(ConfigError::BadFlitBits(self.flit_bits));
        }
        let half = self.flit_bits / 2;
        let max_dim = 1u16 << half;
        if width > max_dim || height > max_dim {
            return Err(ConfigError::MeshTooLarge {
                width: width.min(255) as u8,
                height: height.min(255) as u8,
                flit_bits: self.flit_bits,
            });
        }
        if self.buffer_depth == 0 {
            return Err(ConfigError::ZeroBufferDepth);
        }
        if self.buffer_depth > MAX_BUFFER_DEPTH {
            return Err(ConfigError::BufferTooDeep(self.buffer_depth));
        }
        if self.routing_cycles == 0 || self.cycles_per_flit == 0 {
            return Err(ConfigError::ZeroRoutingCycles);
        }
        if self.fault_threshold == 0 {
            return Err(ConfigError::ZeroFaultThreshold);
        }
        if self.stats_window == 0 {
            return Err(ConfigError::ZeroStatsWindow);
        }
        if let KernelMode::Parallel { threads: 0 } = self.kernel {
            return Err(ConfigError::ZeroThreads);
        }
        Ok(())
    }

    /// Theoretical peak throughput of one router channel in bits per
    /// second at clock frequency `clock_hz`: one flit every
    /// `cycles_per_flit` cycles on each of up to five simultaneous
    /// connections. The paper quotes 1 Gbit/s per router at 50 MHz with
    /// 8-bit flits (five connections × 50 MHz / 2 × 8 bits / connection).
    pub fn peak_router_throughput_bps(&self, clock_hz: f64) -> f64 {
        let per_link = clock_hz / f64::from(self.cycles_per_flit) * f64::from(self.flit_bits);
        per_link * 5.0
    }
}

impl Default for NocConfig {
    fn default() -> Self {
        Self::multinoc()
    }
}

/// The topology (a tag and its parameters) leads the stream; version-2
/// payloads predate the topology abstraction and open with bare `width,
/// height` bytes, which decode as [`Topology::Mesh`] (the only shape that
/// existed then). A decoded configuration still has to pass
/// [`NocConfig::validate`].
impl Snap for NocConfig {
    fn put(&self, w: &mut SnapshotWriter) {
        w.put(&self.topology);
        w.put(&(self.flit_bits, self.buffer_depth));
        w.put(&(self.routing_cycles, self.cycles_per_flit));
        w.put(&(self.routing, self.arbitration, self.fault_threshold));
        w.put(&(self.kernel, self.stats_window, self.deadlock_timeout));
        // The slot of the retired `batch_window` knob: always 0 (the
        // engine default), so v2–v4 snapshots keep their layout.
        w.put(&0u32);
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let topology = if r.version() <= 2 {
            let (width, height) = r.take()?;
            Topology::Mesh { width, height }
        } else {
            r.take()?
        };
        let (flit_bits, buffer_depth) = r.take()?;
        let (routing_cycles, cycles_per_flit) = r.take()?;
        let (routing, arbitration, fault_threshold) = r.take()?;
        let (kernel, stats_window, deadlock_timeout) = r.take()?;
        r.take::<u32>()?;
        Ok(Self {
            topology,
            flit_bits,
            buffer_depth,
            routing_cycles,
            cycles_per_flit,
            routing,
            arbitration,
            fault_threshold,
            kernel,
            stats_window,
            deadlock_timeout,
        })
    }
}

/// A tag (`0` active, `1` reference, `2` parallel plus its thread count).
impl Snap for KernelMode {
    fn put(&self, w: &mut SnapshotWriter) {
        match *self {
            KernelMode::Active => w.put(&0u8),
            KernelMode::Reference => w.put(&1u8),
            KernelMode::Parallel { threads } => w.put(&(2u8, threads)),
        }
    }

    fn take(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.take::<u8>()? {
            0 => Ok(KernelMode::Active),
            1 => Ok(KernelMode::Reference),
            2 => Ok(KernelMode::Parallel { threads: r.take()? }),
            _ => Err(SnapshotError::Malformed("kernel tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = NocConfig::default();
        assert_eq!(
            c.topology,
            Topology::Mesh {
                width: 2,
                height: 2
            }
        );
        assert_eq!((c.width(), c.height()), (2, 2));
        assert_eq!(c.flit_bits, 8);
        assert_eq!(c.buffer_depth, 2);
        assert_eq!(c.routing_cycles, 7);
        assert_eq!(c.cycles_per_flit, 2);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn peak_throughput_is_one_gbps_at_50mhz() {
        let c = NocConfig::default();
        let bps = c.peak_router_throughput_bps(50.0e6);
        assert!((bps - 1.0e9).abs() < 1.0, "got {bps}");
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert_eq!(
            NocConfig::mesh(0, 2).validate(),
            Err(ConfigError::EmptyMesh)
        );
        assert_eq!(
            NocConfig::mesh(2, 2).with_flit_bits(7).validate(),
            Err(ConfigError::BadFlitBits(7))
        );
        assert_eq!(
            NocConfig::mesh(2, 2).with_flit_bits(2).validate(),
            Err(ConfigError::BadFlitBits(2))
        );
        assert!(matches!(
            NocConfig::mesh(20, 20).with_flit_bits(8).validate(),
            Err(ConfigError::MeshTooLarge { .. })
        ));
        assert_eq!(
            NocConfig::mesh(2, 2).with_buffer_depth(0).validate(),
            Err(ConfigError::ZeroBufferDepth)
        );
        assert_eq!(
            NocConfig::mesh(2, 2).with_routing_cycles(0).validate(),
            Err(ConfigError::ZeroRoutingCycles)
        );
        assert_eq!(
            NocConfig::mesh(2, 2).with_fault_threshold(0).validate(),
            Err(ConfigError::ZeroFaultThreshold)
        );
        assert_eq!(
            NocConfig::mesh(2, 2).with_stats_window(0).validate(),
            Err(ConfigError::ZeroStatsWindow)
        );
        assert_eq!(
            NocConfig::mesh(2, 2)
                .with_kernel_mode(KernelMode::Parallel { threads: 0 })
                .validate(),
            Err(ConfigError::ZeroThreads)
        );
        assert!(NocConfig::mesh(2, 2)
            .with_kernel_mode(KernelMode::Parallel { threads: 4 })
            .validate()
            .is_ok());
    }

    #[test]
    fn validation_covers_torus_and_chiplet_shapes() {
        assert_eq!(
            NocConfig::torus(2, 4).validate(),
            Err(ConfigError::TorusTooSmall {
                width: 2,
                height: 4
            })
        );
        assert_eq!(
            NocConfig::torus(0, 4).validate(),
            Err(ConfigError::EmptyMesh)
        );
        assert!(NocConfig::torus(3, 3).validate().is_ok());
        assert!(NocConfig::torus(4, 4).validate().is_ok());
        assert_eq!(
            NocConfig::chiplet(16, 16, D2dChannel::OffChipSerial).validate(),
            Err(ConfigError::ChipletTooLarge {
                k_chip: 16,
                k_node: 16
            })
        );
        assert_eq!(
            NocConfig::chiplet(0, 4, D2dChannel::OffChipSerial).validate(),
            Err(ConfigError::EmptyMesh)
        );
        // chiplet() sizes the flit width so the global grid is addressable:
        // 4 chips × 8 routers = a 32-wide grid needs 10-bit flits.
        let big = NocConfig::chiplet(4, 8, D2dChannel::OffChipParallel);
        assert_eq!(big.flit_bits, 10);
        assert_eq!(big.router_count(), 1024);
        assert!(big.validate().is_ok());
        assert!(NocConfig::chiplet(2, 2, D2dChannel::OffChipSerial)
            .validate()
            .is_ok());
    }

    #[test]
    fn kernel_defaults_to_active_and_is_switchable() {
        let c = NocConfig::default();
        assert_eq!(c.kernel, KernelMode::Active);
        assert!(c.stats_window >= 1);
        let c = c
            .with_kernel_mode(KernelMode::Reference)
            .with_stats_window(7);
        assert_eq!(c.kernel, KernelMode::Reference);
        assert_eq!(c.stats_window, 7);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn auto_kernel_is_sequential_on_small_meshes() {
        assert_eq!(KernelMode::auto(2, 2), KernelMode::Active);
        assert_eq!(KernelMode::auto(4, 4), KernelMode::Active);
        // Regression for the mis-gated crossover: `exp_suite perf`'s
        // thread sweep (E20) showed Parallel strictly slower than Active
        // up to 16×16, so auto must stay sequential there regardless of
        // core count.
        assert_eq!(KernelMode::auto(16, 16), KernelMode::Active);
        // Saturated-scale meshes pick Parallel only on multi-core hosts;
        // either way the choice must validate.
        let big = KernelMode::auto(32, 32);
        assert!(
            NocConfig::mesh(32, 32)
                .with_flit_bits(10)
                .with_kernel_mode(big)
                .validate()
                .is_ok(),
            "auto kernel {big:?} must be valid"
        );
        if let KernelMode::Parallel { threads } = big {
            assert!(threads >= 2, "parallel with <2 threads is never a win");
        }
        if std::thread::available_parallelism().map_or(1, usize::from) < 2 {
            assert_eq!(big, KernelMode::Active, "single-core hosts never shard");
        }
    }

    #[test]
    fn sixteen_by_sixteen_fits_8bit_flits() {
        assert!(NocConfig::mesh(16, 16).validate().is_ok());
        assert!(NocConfig::mesh(17, 1).validate().is_err());
    }

    #[test]
    fn max_payload_flits() {
        assert_eq!(NocConfig::mesh(2, 2).max_payload_flits(), 254);
        assert_eq!(
            NocConfig::mesh(2, 2).with_flit_bits(4).max_payload_flits(),
            14
        );
    }

    #[test]
    fn flit_mask() {
        assert_eq!(NocConfig::mesh(2, 2).flit_mask(), 0xFF);
        assert_eq!(NocConfig::mesh(2, 2).with_flit_bits(16).flit_mask(), 0xFFFF);
        assert_eq!(NocConfig::mesh(2, 2).with_flit_bits(4).flit_mask(), 0xF);
    }
}

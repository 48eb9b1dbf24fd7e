//! Synthetic traffic generation for network evaluation.
//!
//! The paper itself only runs application traffic, but its claims about
//! buffering, arbitration and scalability need synthetic load to be
//! measured (experiments E2, E8, E9). This module provides the classic
//! NoC evaluation patterns with a small deterministic RNG so results are
//! reproducible without external dependencies.

use crate::addr::RouterAddr;
use crate::error::NocError;
use crate::noc::Noc;
use crate::packet::Packet;

/// The deterministic SplitMix64 generator shared across the workspace
/// (re-exported from the in-tree [`prng`] crate); also seeds the
/// [fault injector](crate::fault).
pub use prng::Rng64;

/// Destination-selection pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Uniformly random destination different from the source.
    Uniform,
    /// `(x, y) → (y, x)`; needs a square mesh. Self-addressed sources
    /// (the diagonal) stay silent.
    Transpose,
    /// Both coordinates mirrored: `(x, y) → (w-1-x, h-1-y)`.
    BitComplement,
    /// Every node sends to one fixed hotspot (the router given); the
    /// hotspot itself stays silent.
    Hotspot(RouterAddr),
}

impl Pattern {
    /// Destination for a packet issued at `src` in a `width`×`height`
    /// mesh, or `None` if this source does not transmit under the pattern.
    pub fn dest(
        self,
        src: RouterAddr,
        width: u8,
        height: u8,
        rng: &mut Rng64,
    ) -> Option<RouterAddr> {
        match self {
            Pattern::Uniform => {
                let nodes = u64::from(width) * u64::from(height);
                if nodes < 2 {
                    return None;
                }
                loop {
                    let pick = rng.below(nodes);
                    let dest = RouterAddr::new(
                        (pick % u64::from(width)) as u8,
                        (pick / u64::from(width)) as u8,
                    );
                    if dest != src {
                        return Some(dest);
                    }
                }
            }
            Pattern::Transpose => {
                let dest = RouterAddr::new(src.y(), src.x());
                (dest != src).then_some(dest)
            }
            Pattern::BitComplement => {
                let dest = RouterAddr::new(width - 1 - src.x(), height - 1 - src.y());
                (dest != src).then_some(dest)
            }
            Pattern::Hotspot(spot) => (src != spot).then_some(spot),
        }
    }
}

/// Open-loop traffic generator: every cycle, each node independently
/// starts a new packet with probability `injection_rate / packet flits`,
/// so the offered load is `injection_rate` flits per cycle per node.
///
/// A node whose source queue already holds `max_backlog_flits` does not
/// inject (keeps the source queues, which are unbounded, from growing
/// without limit past saturation).
#[derive(Debug, Clone)]
pub struct TrafficGen {
    /// Destination pattern.
    pub pattern: Pattern,
    /// Offered load in flits per cycle per node.
    pub injection_rate: f64,
    /// Payload flits per packet.
    pub payload_flits: usize,
    /// Backlog bound; nodes at or above it skip injection.
    pub max_backlog_flits: usize,
    rng: Rng64,
}

impl TrafficGen {
    /// Creates a generator with a deterministic seed.
    pub fn new(pattern: Pattern, injection_rate: f64, payload_flits: usize, seed: u64) -> Self {
        Self {
            pattern,
            injection_rate,
            payload_flits,
            max_backlog_flits: 64,
            rng: Rng64::new(seed),
        }
    }

    /// Runs one generation step against `noc` (call once per cycle before
    /// [`Noc::step`]). Returns the number of packets submitted.
    ///
    /// # Errors
    ///
    /// Propagates [`NocError`] from `send` (cannot occur for in-mesh
    /// patterns and legal payload sizes).
    pub fn pump(&mut self, noc: &mut Noc) -> Result<u64, NocError> {
        let (width, height) = (noc.config().width(), noc.config().height());
        let wire_flits = (self.payload_flits + 2) as f64;
        let p_packet = (self.injection_rate / wire_flits).min(1.0);
        let mut sent = 0;
        for y in 0..height {
            for x in 0..width {
                let src = RouterAddr::new(x, y);
                if noc.backlog_flits(src) >= self.max_backlog_flits {
                    continue;
                }
                if self.rng.unit() >= p_packet {
                    continue;
                }
                let Some(dest) = self.pattern.dest(src, width, height, &mut self.rng) else {
                    continue;
                };
                let payload: Vec<u16> = (0..self.payload_flits)
                    .map(|_| (self.rng.next_u64() & u64::from(noc.config().flit_mask())) as u16)
                    .collect();
                noc.send(src, Packet::new(dest, payload))?;
                sent += 1;
            }
        }
        Ok(sent)
    }

    /// Drives `noc` for `cycles` cycles with this generator, pumping
    /// once before every cycle, then lets in-flight traffic drain for up
    /// to `drain_budget` cycles: [`drive_batched`](Self::drive_batched)
    /// with a batch of one cycle.
    ///
    /// # Errors
    ///
    /// Propagates send errors; never fails for in-mesh patterns. The
    /// drain phase ignores a non-idle outcome (a saturated network may
    /// legitimately hold undeliverable backlog; statistics still count
    /// only what was delivered).
    pub fn drive(&mut self, noc: &mut Noc, cycles: u64, drain_budget: u64) -> Result<(), NocError> {
        self.drive_batched(noc, cycles, 1, drain_budget)
    }

    /// Submits `batch` cycles' worth of traffic at each batch boundary
    /// and advances the network `batch` cycles at a time — the driving
    /// style that lets the engine amortise its merges (and barriers)
    /// over multi-cycle windows — then drains like
    /// [`drive`](Self::drive). The offered load is the same for every
    /// `batch`; only the backlog guard is sampled at batch boundaries
    /// instead of every cycle, so the generated schedule differs from
    /// per-cycle driving but — because every boundary is a fully merged,
    /// kernel-invariant network state — is identical across kernels and
    /// thread counts for a given `batch`.
    ///
    /// # Errors
    ///
    /// As [`drive`](Self::drive).
    pub fn drive_batched(
        &mut self,
        noc: &mut Noc,
        cycles: u64,
        batch: u64,
        drain_budget: u64,
    ) -> Result<(), NocError> {
        let batch = batch.max(1);
        let mut remaining = cycles;
        while remaining > 0 {
            let b = batch.min(remaining);
            for _ in 0..b {
                self.pump(noc)?;
            }
            noc.run(b);
            remaining -= b;
        }
        let _ = noc.run_until_idle(drain_budget);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NocConfig;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn rng_unit_in_range() {
        let mut rng = Rng64::new(7);
        for _ in 0..1000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_never_self_addresses() {
        let mut rng = Rng64::new(1);
        let src = RouterAddr::new(1, 1);
        for _ in 0..500 {
            let dest = Pattern::Uniform.dest(src, 4, 4, &mut rng).unwrap();
            assert_ne!(dest, src);
            assert!(dest.x() < 4 && dest.y() < 4);
        }
    }

    #[test]
    fn transpose_and_complement() {
        let mut rng = Rng64::new(1);
        assert_eq!(
            Pattern::Transpose.dest(RouterAddr::new(1, 3), 4, 4, &mut rng),
            Some(RouterAddr::new(3, 1))
        );
        assert_eq!(
            Pattern::Transpose.dest(RouterAddr::new(2, 2), 4, 4, &mut rng),
            None
        );
        assert_eq!(
            Pattern::BitComplement.dest(RouterAddr::new(0, 0), 4, 4, &mut rng),
            Some(RouterAddr::new(3, 3))
        );
    }

    #[test]
    fn hotspot_targets_the_spot() {
        let mut rng = Rng64::new(1);
        let spot = RouterAddr::new(0, 0);
        assert_eq!(
            Pattern::Hotspot(spot).dest(RouterAddr::new(1, 1), 2, 2, &mut rng),
            Some(spot)
        );
        assert_eq!(Pattern::Hotspot(spot).dest(spot, 2, 2, &mut rng), None);
    }

    #[test]
    fn generator_delivers_traffic() {
        let mut noc = Noc::new(NocConfig::mesh(4, 4)).unwrap();
        let mut gen = TrafficGen::new(Pattern::Uniform, 0.1, 4, 123);
        gen.drive(&mut noc, 2_000, 100_000).unwrap();
        assert!(noc.stats().packets_sent > 0);
        assert_eq!(noc.stats().packets_delivered, noc.stats().packets_sent);
    }

    #[test]
    fn offered_load_roughly_matches_injection_rate() {
        let mut noc = Noc::new(NocConfig::mesh(4, 4)).unwrap();
        let rate = 0.05; // well below saturation
        let mut gen = TrafficGen::new(Pattern::Uniform, rate, 4, 9);
        gen.drive(&mut noc, 20_000, 200_000).unwrap();
        let delivered = noc.stats().flits_delivered as f64 / 20_000.0 / 16.0;
        assert!(
            (delivered - rate).abs() / rate < 0.25,
            "delivered {delivered} vs offered {rate}"
        );
    }
}

//! Host-speed calibration of the end-to-end rates.
//!
//! A shared host's speed drifts over minutes as other tenants come and
//! go: on a 2-vCPU Xeon VM the fastest `sea12` simulation of a 20-second
//! run drifted 9% between runs, and a whole run can slow by 2×, so no
//! statistic taken within one run removes it. Between simulations the
//! benchmark therefore times a fixed kernel that does the same kind of
//! work as the simulator — a small register-machine interpreter stepping
//! through an L2-resident word memory — and scales each rate by the
//! kernel's fastest pass in the run over [`REFERENCE_NS`]. A rate then
//! reads as it would on a host that runs the kernel in [`REFERENCE_NS`].
//! On the same runs the fastest simulation time over the fastest kernel
//! time drifted 2%. A slow spell that spares the kernel still shows: one
//! whole 20-second `sea12` run ran at 0.6× while the kernel did not slow.
//!
//! The kernel is the benchmark's own code and runs no simulator code, so
//! a change to the simulator moves the scaled rates exactly as it moves
//! the raw ones.

use std::hint::black_box;
use std::time::Instant;

/// Words of the kernel's memory: 128 KiB, more than L1 and well inside L2.
const WORDS: usize = 1 << 16;

/// Interpreter steps of one pass.
const STEPS: u32 = 250_000;

/// The kernel's fastest pass, in nanoseconds, on the host the benchmark
/// was written on (2-vCPU x86-64 VM, Intel Xeon).
pub const REFERENCE_NS: f64 = 2_000_000.0;

/// Times kernel passes and keeps the fastest.
#[derive(Debug)]
pub struct Calibrator {
    memory: Vec<u16>,
    best_ns: f64,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            memory: vec![0; WORDS],
            best_ns: f64::INFINITY,
        }
    }
}

impl Calibrator {
    /// Runs and times one pass of the kernel.
    pub fn sample(&mut self) {
        let t = Instant::now();
        black_box(run(black_box(&mut self.memory)));
        self.best_ns = self.best_ns.min(t.elapsed().as_nanos() as f64);
    }

    /// How much slower this host ran the kernel than the reference host:
    /// the factor that scales a measured rate to the reference host. 1
    /// before any pass.
    pub fn slowdown(&self) -> f64 {
        if self.best_ns.is_finite() {
            self.best_ns / REFERENCE_NS
        } else {
            1.0
        }
    }
}

/// One pass: fills `memory` with a fixed pattern, then interprets it as a
/// program of 16-bit words over sixteen registers, with loads, stores,
/// data-dependent branches and ALU operations. Returns a checksum.
fn run(memory: &mut [u16]) -> u64 {
    for (i, word) in memory.iter_mut().enumerate() {
        *word = (i as u16).wrapping_mul(40503).wrapping_add(0x9e37);
    }
    let mask = memory.len() - 1;
    let (mut pc, mut sum, mut regs) = (0usize, 0u64, [0u16; 16]);
    for _ in 0..STEPS {
        let word = memory[pc & mask];
        let (a, b) = (usize::from(word >> 8) & 15, usize::from(word >> 4) & 15);
        match word >> 12 {
            0..=3 => regs[a] = regs[a].wrapping_add(regs[b]).wrapping_add(word),
            4..=6 => regs[a] ^= memory[usize::from(regs[b]) & mask],
            7..=9 => memory[usize::from(regs[a]) & mask] = regs[b],
            10..=12 => {
                if regs[a] & 1 == 0 {
                    pc = pc.wrapping_add(usize::from(regs[b] & 0xff));
                }
            }
            _ => regs[a] = regs[a].rotate_left(3),
        }
        pc = pc.wrapping_add(1);
        sum = sum.wrapping_add(u64::from(regs[a]));
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_is_deterministic_and_sets_the_slowdown() {
        let mut memory = vec![0; WORDS];
        assert_eq!(run(&mut memory), run(&mut memory));
        let mut c = Calibrator::default();
        assert_eq!(c.slowdown(), 1.0);
        c.sample();
        assert!(c.slowdown() > 0.0 && c.slowdown().is_finite());
    }
}

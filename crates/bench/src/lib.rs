//! Shared infrastructure for the MultiNoC experiment harness.
//!
//! Each `exp_*` binary in `src/bin/` regenerates one evaluation artifact
//! of the paper (E1–E17), and `exp_suite` runs the E18–E25 extension
//! experiments against pinned result digests (see the experiment index
//! in `DESIGN.md`). This library holds the small shared pieces: a
//! fixed-width table printer, the saturation workload used by the
//! throughput experiments, the runner's gates ([`suite`]), and a small
//! JSON parser and writer ([`json`]) that validates exported artifacts
//! (Chrome trace-event documents, metrics snapshots) and lays out the
//! `BENCH_*.json` files, without external dependencies.

use hermes_noc::{Noc, Packet, RouterAddr};

pub mod json;
pub mod suite;

/// Prints a row of fixed-width columns (16 characters each, first column
/// 24) so experiment output lines up like the paper's tables.
pub fn row(cells: &[String]) {
    let mut line = String::new();
    for (i, cell) in cells.iter().enumerate() {
        let width = if i == 0 { 24 } else { 16 };
        line.push_str(&format!("{cell:>width$}"));
    }
    println!("{line}");
}

/// Convenience for building a row from displayable items.
#[macro_export]
macro_rules! table_row {
    ($($cell:expr),+ $(,)?) => {
        $crate::row(&[$(format!("{}", $cell)),+])
    };
}

/// Keeps `flows` source queues non-empty so the links they use stay
/// saturated, then runs the network for `cycles`. Each flow is a
/// `(source, destination)` pair streaming `payload_flits`-flit packets.
///
/// # Errors
///
/// Propagates [`hermes_noc::NocError`] for out-of-mesh flows.
pub fn saturate(
    noc: &mut Noc,
    flows: &[(RouterAddr, RouterAddr)],
    payload_flits: usize,
    cycles: u64,
) -> Result<(), hermes_noc::NocError> {
    let wire = payload_flits + 2;
    for _ in 0..cycles {
        for &(src, dst) in flows {
            // Keep roughly two packets of backlog per flow.
            while noc.backlog_flits(src) < 2 * wire {
                noc.send(src, Packet::new(dst, vec![0x5A; payload_flits]))?;
            }
        }
        noc.step();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_noc::NocConfig;

    #[test]
    fn saturate_fills_a_link() {
        let mut noc = Noc::new(NocConfig::mesh(2, 2)).unwrap();
        let flows = [(RouterAddr::new(0, 0), RouterAddr::new(1, 0))];
        // Long packets amortize the per-packet routing charge.
        saturate(&mut noc, &flows, 100, 8_000).unwrap();
        let util = noc
            .stats()
            .peak_link_utilization(noc.config().cycles_per_flit);
        // A single continuous stream approaches full link utilization.
        assert!(util > 0.85, "utilization {util}");
    }
}

//! The paper's analytic latency model.
//!
//! Section 2.1 gives the minimal latency, in clock cycles, to transfer a
//! packet from source to destination:
//!
//! ```text
//! latency = ( Σ_{i=1..n} R_i  +  P ) × 2
//! ```
//!
//! where `n` is the number of routers on the communication path (source
//! and target included), `R_i` is the time required by the routing
//! algorithm at each router (at least 7 clock cycles), `P` is the packet
//! size in flits, and the factor 2 reflects the handshake protocol that
//! needs at least 2 clock cycles per flit.
//!
//! The simulator reproduces this exactly for an idle network (experiment
//! E1); under load, queueing and blocking add to it.

use crate::addr::RouterAddr;
use crate::config::NocConfig;
use crate::packet::Packet;

/// Minimal latency in clock cycles per the paper's formula, with uniform
/// routing charge `routing_cycles` at each of the `routers_on_path`
/// routers and a handshake of `cycles_per_flit` cycles per flit.
///
/// ```rust
/// use hermes_noc::latency::minimal_latency;
/// // 2 routers on the path, 4-flit packet, paper constants:
/// assert_eq!(minimal_latency(2, 4, 7, 2), 36);
/// ```
pub fn minimal_latency(
    routers_on_path: u32,
    wire_flits: usize,
    routing_cycles: u32,
    cycles_per_flit: u32,
) -> u64 {
    (u64::from(routers_on_path) * u64::from(routing_cycles) + wire_flits as u64)
        * u64::from(cycles_per_flit)
}

/// Minimal latency for sending `packet` from `src` under `config`,
/// convenience wrapper over [`minimal_latency`].
pub fn packet_latency(config: &NocConfig, src: RouterAddr, packet: &Packet) -> u64 {
    minimal_latency(
        src.routers_on_path(packet.dest()),
        packet.wire_flits(),
        config.routing_cycles,
        config.cycles_per_flit,
    )
}

/// The fewest cycles after [`Noc::send`](crate::Noc::send) at which any
/// packet can become visible to [`Noc::try_recv`](crate::Noc::try_recv)
/// under `config`: the paper's formula for the smallest packet there is
/// (header and size flits, no payload) addressed to its own router, one
/// router on the path. Every other packet crosses more routers or
/// carries more flits, so a network that holds no traffic at cycle `t`
/// delivers nothing anywhere before `t + min_delivery_latency(config)` —
/// the lookahead bound a co-simulator may run its IP cores ahead by.
///
/// ```rust
/// use hermes_noc::{latency::min_delivery_latency, NocConfig};
/// assert_eq!(min_delivery_latency(&NocConfig::multinoc()), 18);
/// ```
pub fn min_delivery_latency(config: &NocConfig) -> u64 {
    minimal_latency(1, 2, config.routing_cycles, config.cycles_per_flit)
}

/// Latency in microseconds at a given clock frequency.
pub fn cycles_to_us(cycles: u64, clock_hz: f64) -> f64 {
    cycles as f64 / clock_hz * 1.0e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formula_examples() {
        // Single router (IP to itself), 2-flit packet: (7 + 2) * 2 = 18.
        assert_eq!(minimal_latency(1, 2, 7, 2), 18);
        // Paper 2x2 corner-to-corner: n = 3 routers.
        assert_eq!(minimal_latency(3, 10, 7, 2), 62);
    }

    #[test]
    fn packet_wrapper_matches_manual_computation() {
        let config = NocConfig::mesh(4, 4);
        let src = RouterAddr::new(0, 0);
        let packet = Packet::new(RouterAddr::new(3, 1), vec![0; 6]);
        // hops = 4, routers = 5, P = 8.
        assert_eq!(packet_latency(&config, src, &packet), (5 * 7 + 8) * 2);
    }

    #[test]
    fn us_conversion() {
        // 50 cycles at 25 MHz = 2 us.
        assert!((cycles_to_us(50, 25.0e6) - 2.0).abs() < 1e-9);
    }
}

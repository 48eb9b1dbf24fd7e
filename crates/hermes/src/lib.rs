//! # Hermes network-on-chip simulator
//!
//! Cycle-accurate model of the **Hermes** NoC as used by the MultiNoC
//! system (Mello et al., DATE 2004/05, §2.1):
//!
//! - **mesh topology** of routers, each with up to five bi-directional
//!   ports (East, West, North, South, Local) and a single centralized
//!   control logic;
//! - **wormhole packet switching**: a packet is a stream of flits; the
//!   header flit reserves a path hop by hop, payload flits follow it, and
//!   blocked flits stay distributed over the input buffers of the routers
//!   along the path;
//! - **deterministic XY routing** (with YX available for ablation);
//! - **round-robin arbitration** among input ports to avoid starvation
//!   (fixed-priority available for ablation);
//! - **circular-FIFO input buffers**, two flits deep by default exactly as
//!   in the paper's FPGA-constrained prototype;
//! - **asynchronous handshake** between neighbours, modelled as two clock
//!   cycles per flit per hop;
//! - a routing/arbitration charge of at least `R_i = 7` clock cycles per
//!   router, so that the minimal packet latency reproduces the paper's
//!   analytic model `latency = (Σ R_i + P) × 2` (see [`latency`]).
//!
//! ## Packet format
//!
//! A packet on the wire is `[header, size, payload…]`. The header flit
//! carries the target router address (X in the high half of the flit, Y in
//! the low half), the second flit the number of payload flits. With the
//! default 8-bit flit a packet holds at most `2^8` flits in total.
//!
//! ## Example
//!
//! ```rust
//! use hermes_noc::{Noc, NocConfig, Packet, RouterAddr};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut noc = Noc::new(NocConfig::mesh(2, 2))?;
//! let src = RouterAddr::new(0, 0);
//! let dst = RouterAddr::new(1, 1);
//! let id = noc.send(src, Packet::new(dst, vec![0xAB, 0xCD]))?;
//! noc.run_until_idle(10_000)?;
//! let (from, packet) = noc.try_recv(dst).expect("packet delivered");
//! assert_eq!(from, src);
//! assert_eq!(packet.payload(), &[0xAB, 0xCD]);
//! let record = noc.stats().record(id).expect("recorded");
//! assert!(record.latency() > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod arbiter;
mod buffer;
mod config;
mod endpoint;
mod error;
mod flit;
mod health;
mod kernel;
mod noc;
mod packet;
mod router;
mod routing;
mod topology;

pub mod fault;
pub mod latency;
pub mod metrics;
pub mod ring;
pub mod snapshot;
pub mod stats;
pub mod telemetry;
pub mod trace;
pub mod traffic;

pub use addr::{Port, RouterAddr};
pub use arbiter::Arbitration;
pub use buffer::FlitBuffer;
pub use config::{KernelMode, NocConfig};
pub use endpoint::PacketId;
pub use error::{ConfigError, NocError, RouteError, SendError};
pub use fault::{CycleWindow, FaultPlan, PlanError};
pub use flit::Flit;
pub use health::LinkHealth;
pub use metrics::{MetricKind, PhaseProfile, Registry};
pub use noc::Noc;
pub use packet::Packet;
pub use ring::Ring;
pub use routing::{RouteTable, Routing};
pub use snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
pub use stats::{FaultCounters, HealthCounters, NocStats, PacketRecord};
pub use telemetry::{
    CongestionEvent, CongestionKind, LatencyDelta, Telemetry, TelemetryConfig, TelemetryFrame,
};
pub use topology::{D2dChannel, Topology};
pub use trace::{PacketTrace, PacketTracer, SpanEvent, SpanKind};

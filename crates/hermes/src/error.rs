//! Error types for NoC construction and operation.

use std::error::Error;
use std::fmt;

use crate::addr::RouterAddr;

/// Rejected [`NocConfig`](crate::NocConfig) at construction time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Mesh dimensions must both be at least 1.
    EmptyMesh,
    /// Flit width is outside the supported `4..=16` bits or is odd (the
    /// header flit splits into two equal halves).
    BadFlitBits(u8),
    /// A mesh coordinate does not fit in half a header flit.
    MeshTooLarge {
        /// Requested mesh width (columns).
        width: u8,
        /// Requested mesh height (rows).
        height: u8,
        /// Flit width in bits that the mesh must be addressable in.
        flit_bits: u8,
    },
    /// Input buffers must hold at least one flit.
    ZeroBufferDepth,
    /// Input buffers hold at most 64 flits.
    BufferTooDeep(usize),
    /// The routing charge `R_i` must be at least one cycle.
    ZeroRoutingCycles,
    /// A link must fail at least one handshake before being declared dead.
    ZeroFaultThreshold,
    /// The statistics must retain at least one recent packet record.
    ZeroStatsWindow,
    /// The parallel kernel needs at least one worker thread.
    ZeroThreads,
    /// Torus dimensions must both be at least 3: a 1-wide ring wraps a
    /// router onto itself and a 2-wide ring doubles the existing edge.
    TorusTooSmall {
        /// Requested torus width (columns).
        width: u8,
        /// Requested torus height (rows).
        height: u8,
    },
    /// A chiplet mesh's global side `k_chip · k_node` must fit in one
    /// coordinate byte.
    ChipletTooLarge {
        /// Chiplets per package side.
        k_chip: u8,
        /// Routers per chiplet side.
        k_node: u8,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyMesh => write!(f, "mesh dimensions must be at least 1x1"),
            ConfigError::BadFlitBits(bits) => {
                write!(f, "flit width {bits} is not an even number in 4..=16")
            }
            ConfigError::MeshTooLarge {
                width,
                height,
                flit_bits,
            } => write!(
                f,
                "a {width}x{height} mesh is not addressable with {flit_bits}-bit header flits"
            ),
            ConfigError::ZeroBufferDepth => write!(f, "input buffer depth must be at least 1"),
            ConfigError::BufferTooDeep(depth) => write!(
                f,
                "input buffer depth {depth} exceeds {} flits",
                crate::config::MAX_BUFFER_DEPTH
            ),
            ConfigError::ZeroRoutingCycles => {
                write!(f, "routing charge must be at least 1 cycle")
            }
            ConfigError::ZeroFaultThreshold => {
                write!(f, "fault threshold must be at least 1 failed handshake")
            }
            ConfigError::ZeroStatsWindow => {
                write!(f, "statistics window must retain at least 1 record")
            }
            ConfigError::ZeroThreads => {
                write!(f, "parallel kernel needs at least 1 thread")
            }
            ConfigError::TorusTooSmall { width, height } => {
                write!(
                    f,
                    "a {width}x{height} torus is degenerate; both dimensions must be at least 3"
                )
            }
            ConfigError::ChipletTooLarge { k_chip, k_node } => {
                write!(
                    f,
                    "a {k_chip}x{k_chip} package of {k_node}x{k_node} chiplets exceeds the addressable grid"
                )
            }
        }
    }
}

impl Error for ConfigError {}

/// Rejected packet submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendError {
    /// The source address names a router outside the mesh.
    UnknownSource(RouterAddr),
    /// The destination address names a router outside the mesh.
    UnknownDestination(RouterAddr),
    /// The payload exceeds the maximum packet size for the configured flit
    /// width (a packet holds at most `2^flit_bits` flits including header
    /// and size flits).
    PayloadTooLong {
        /// Number of payload flits in the rejected packet.
        len: usize,
        /// Maximum number of payload flits the configuration allows.
        max: usize,
    },
    /// A payload flit value does not fit in the configured flit width.
    FlitOverflow {
        /// Index of the offending payload flit.
        index: usize,
        /// Its value.
        value: u16,
    },
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::UnknownSource(addr) => write!(f, "source router {addr} is not in the mesh"),
            SendError::UnknownDestination(addr) => {
                write!(f, "destination router {addr} is not in the mesh")
            }
            SendError::PayloadTooLong { len, max } => {
                write!(f, "payload of {len} flits exceeds the maximum of {max}")
            }
            SendError::FlitOverflow { index, value } => {
                write!(
                    f,
                    "payload flit {index} value {value:#x} overflows the flit width"
                )
            }
        }
    }
}

impl Error for SendError {}

/// A routing decision that cannot be made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// An address handed to the routing function lies outside the
    /// configured mesh; forwarding it would misdeliver the packet to
    /// whichever border router decoded it.
    OutOfMesh {
        /// The offending address.
        addr: RouterAddr,
        /// Mesh columns the address was validated against.
        width: u8,
        /// Mesh rows the address was validated against.
        height: u8,
    },
    /// The current dead-link set partitions the mesh: no fault-tolerant
    /// path from `src` to `dest` exists.
    Unreachable {
        /// Source router of the doomed packet.
        src: RouterAddr,
        /// Destination router no path reaches.
        dest: RouterAddr,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::OutOfMesh {
                addr,
                width,
                height,
            } => write!(f, "address {addr} lies outside the {width}x{height} mesh"),
            RouteError::Unreachable { src, dest } => write!(
                f,
                "dead links partition the mesh: no route from {src} to {dest}"
            ),
        }
    }
}

impl Error for RouteError {}

/// Any error produced by the NoC simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NocError {
    /// Invalid configuration.
    Config(ConfigError),
    /// Invalid packet submission.
    Send(SendError),
    /// No route exists for a packet (out-of-mesh address, or the dead-link
    /// set partitions the mesh under fault-tolerant routing).
    Route(RouteError),
    /// [`Noc::run_until_idle`](crate::Noc::run_until_idle) hit its cycle
    /// budget with traffic still in flight.
    NotIdle {
        /// The cycle budget that was exhausted.
        budget: u64,
    },
}

impl fmt::Display for NocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NocError::Config(e) => e.fmt(f),
            NocError::Send(e) => e.fmt(f),
            NocError::Route(e) => e.fmt(f),
            NocError::NotIdle { budget } => {
                write!(f, "network not idle after {budget} cycles")
            }
        }
    }
}

impl Error for NocError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NocError::Config(e) => Some(e),
            NocError::Send(e) => Some(e),
            NocError::Route(e) => Some(e),
            NocError::NotIdle { .. } => None,
        }
    }
}

impl From<ConfigError> for NocError {
    fn from(e: ConfigError) -> Self {
        NocError::Config(e)
    }
}

impl From<SendError> for NocError {
    fn from(e: SendError) -> Self {
        NocError::Send(e)
    }
}

impl From<RouteError> for NocError {
    fn from(e: RouteError) -> Self {
        NocError::Route(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = ConfigError::BadFlitBits(5);
        assert!(e.to_string().contains('5'));
        let e = SendError::PayloadTooLong { len: 300, max: 254 };
        assert!(e.to_string().contains("300"));
        let e: NocError = ConfigError::EmptyMesh.into();
        assert!(e.to_string().starts_with("mesh"));
    }

    #[test]
    fn error_trait_source_chain() {
        let e: NocError = SendError::UnknownSource(RouterAddr::new(9, 9)).into();
        assert!(e.source().is_some());
        assert!(NocError::NotIdle { budget: 5 }.source().is_none());
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NocError>();
        assert_send_sync::<ConfigError>();
        assert_send_sync::<SendError>();
        assert_send_sync::<RouteError>();
    }

    #[test]
    fn route_errors_display_and_chain() {
        let e = RouteError::OutOfMesh {
            addr: RouterAddr::new(7, 7),
            width: 2,
            height: 2,
        };
        assert!(e.to_string().contains("2x2"));
        let e: NocError = RouteError::Unreachable {
            src: RouterAddr::new(0, 0),
            dest: RouterAddr::new(1, 1),
        }
        .into();
        assert!(e.to_string().contains("partition"));
        assert!(e.source().is_some());
    }
}

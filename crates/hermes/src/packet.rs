//! Packets as seen by IP cores.

use crate::addr::RouterAddr;
use crate::config::NocConfig;
use crate::error::SendError;

/// A packet handed to (or received from) the network: a destination
/// router address plus a sequence of payload flit values.
///
/// On the wire the packet becomes `[header, size, payload…]`; the header
/// and size flits are added by the local network interface and stripped
/// again at the destination, so `payload` here is only the useful data.
///
/// ```rust
/// use hermes_noc::{Packet, RouterAddr};
/// let p = Packet::new(RouterAddr::new(1, 1), vec![1, 2, 3]);
/// assert_eq!(p.wire_flits(), 5); // header + size + 3 payload flits
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    dest: RouterAddr,
    payload: Vec<u16>,
}

crate::snap_struct!(Packet { dest, payload });

impl Packet {
    /// Creates a packet addressed to `dest` carrying `payload`.
    pub fn new(dest: RouterAddr, payload: Vec<u16>) -> Self {
        Self { dest, payload }
    }

    /// Destination router.
    pub fn dest(&self) -> RouterAddr {
        self.dest
    }

    /// Payload flit values.
    pub fn payload(&self) -> &[u16] {
        &self.payload
    }

    /// Consumes the packet, returning its payload.
    pub fn into_payload(self) -> Vec<u16> {
        self.payload
    }

    /// Total number of flits this packet occupies on the wire, including
    /// the header and size flits — the `P` of the paper's latency formula.
    pub fn wire_flits(&self) -> usize {
        self.payload.len() + 2
    }

    /// Checks the packet against a configuration.
    ///
    /// # Errors
    ///
    /// [`SendError::PayloadTooLong`] if the payload exceeds
    /// [`NocConfig::max_payload_flits`], or [`SendError::FlitOverflow`] if
    /// any payload value does not fit in the flit width.
    pub fn validate(&self, config: &NocConfig) -> Result<(), SendError> {
        let max = config.max_payload_flits();
        if self.payload.len() > max {
            return Err(SendError::PayloadTooLong {
                len: self.payload.len(),
                max,
            });
        }
        let mask = config.flit_mask();
        for (index, &value) in self.payload.iter().enumerate() {
            if value & !mask != 0 {
                return Err(SendError::FlitOverflow { index, value });
            }
        }
        Ok(())
    }

    /// Serializes the packet into its wire flit values
    /// `[header, size, payload…]` for the given flit width.
    pub fn to_wire(&self, flit_bits: u8) -> Vec<u16> {
        let mut wire = Vec::with_capacity(self.wire_flits());
        wire.push(self.dest.to_flit(flit_bits));
        wire.push(self.payload.len() as u16);
        wire.extend_from_slice(&self.payload);
        wire
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_format_matches_paper() {
        let p = Packet::new(RouterAddr::new(1, 0), vec![0xAA, 0x55]);
        assert_eq!(p.to_wire(8), vec![0x10, 2, 0xAA, 0x55]);
    }

    #[test]
    fn empty_payload_is_legal() {
        let p = Packet::new(RouterAddr::new(0, 0), vec![]);
        assert_eq!(p.to_wire(8), vec![0x00, 0]);
        assert!(p.validate(&NocConfig::default()).is_ok());
    }

    #[test]
    fn validate_rejects_oversized_payload() {
        let config = NocConfig::default();
        let p = Packet::new(RouterAddr::new(0, 0), vec![0; 255]);
        assert!(matches!(
            p.validate(&config),
            Err(SendError::PayloadTooLong { len: 255, max: 254 })
        ));
        let p = Packet::new(RouterAddr::new(0, 0), vec![0; 254]);
        assert!(p.validate(&config).is_ok());
    }

    #[test]
    fn validate_rejects_wide_flits() {
        let config = NocConfig::default();
        let p = Packet::new(RouterAddr::new(0, 0), vec![0x100]);
        assert!(matches!(
            p.validate(&config),
            Err(SendError::FlitOverflow {
                index: 0,
                value: 0x100
            })
        ));
    }

    #[test]
    fn into_payload_returns_data() {
        let p = Packet::new(RouterAddr::new(0, 0), vec![7, 8]);
        assert_eq!(p.into_payload(), vec![7, 8]);
    }
}

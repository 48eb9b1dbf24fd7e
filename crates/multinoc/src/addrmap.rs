//! The NUMA address map (Fig. 6 of the paper).
//!
//! Each processor sees its own 1K-word local memory at the bottom of the
//! address space, followed by one 1K window per remote target (in the
//! paper's 2×2 system: the other processor, then the remote memory IP).
//! Three memory-mapped command addresses sit at the top:
//! `0xFFFD` (notify), `0xFFFE` (wait) and `0xFFFF` (printf/scanf I/O).
//!
//! The paper's listing computes `globalAddress = 1024 - address` for the
//! second range; that is a typo for `address - 1024` (offsets must grow
//! with the address), which is what this implementation does.

use hermes_noc::SnapshotError;

use crate::node::NodeId;
use crate::{IO_ADDR, NOTIFY_ADDR, WAIT_ADDR};

/// Where a processor address lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Word `offset` of the processor's own local memory.
    Local {
        /// Word offset inside the local memory.
        offset: u16,
    },
    /// Word `offset` of the memory owned by `node` (another processor's
    /// local memory or a remote memory IP).
    Remote {
        /// The node owning the memory.
        node: NodeId,
        /// Word offset inside that memory.
        offset: u16,
    },
    /// The printf/scanf I/O port (`0xFFFF`).
    Io,
    /// The `wait` command address (`0xFFFE`).
    WaitCmd,
    /// The `notify` command address (`0xFFFD`).
    NotifyCmd,
    /// No device claims this address.
    Unmapped,
}

/// A processor's view of the system: the size of its local memory and
/// the ordered list of remote windows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressMap {
    window_words: u16,
    windows: Vec<NodeId>,
}

impl AddressMap {
    /// Builds a map with `window_words`-sized local memory and one
    /// equally sized window per entry of `windows` (in address order).
    ///
    /// # Panics
    ///
    /// Panics if `window_words` is 0 or the windows would overlap the
    /// command addresses at the top of the address space.
    pub fn new(window_words: u16, windows: Vec<NodeId>) -> Self {
        assert!(window_words > 0, "window size must be positive");
        let top = u32::from(window_words) * (windows.len() as u32 + 1);
        assert!(
            top <= u32::from(NOTIFY_ADDR),
            "windows overlap the command addresses"
        );
        Self {
            window_words,
            windows,
        }
    }

    /// The paper's map: 1K local, then the given targets (other
    /// processor, remote memory).
    pub fn paper(windows: Vec<NodeId>) -> Self {
        Self::new(crate::MEMORY_WORDS, windows)
    }

    /// Size of the local memory and of each window, in words.
    pub fn window_words(&self) -> u16 {
        self.window_words
    }

    /// The remote windows in address order.
    pub fn windows(&self) -> &[NodeId] {
        &self.windows
    }

    /// Classifies a processor address.
    pub fn decode(&self, addr: u16) -> Target {
        match addr {
            IO_ADDR => return Target::Io,
            WAIT_ADDR => return Target::WaitCmd,
            NOTIFY_ADDR => return Target::NotifyCmd,
            _ => {}
        }
        if addr < self.window_words {
            // Local memory, the common case: no division.
            return Target::Local { offset: addr };
        }
        let window = usize::from(addr / self.window_words);
        let offset = addr % self.window_words;
        if window == 0 {
            Target::Local { offset }
        } else if let Some(&node) = self.windows.get(window - 1) {
            Target::Remote { node, offset }
        } else {
            Target::Unmapped
        }
    }

    /// The base address of the window onto `node`, if this map has one.
    /// Programs use this to form pointers into remote memories.
    pub fn window_base(&self, node: NodeId) -> Option<u16> {
        self.windows
            .iter()
            .position(|&n| n == node)
            .map(|i| (i as u16 + 1) * self.window_words)
    }

    /// The checks a decoded map must pass: a nonzero window size and
    /// windows that stay below the command addresses.
    fn check_restored(&self) -> Result<(), SnapshotError> {
        if self.window_words == 0 {
            return Err(SnapshotError::Malformed("address window size is 0"));
        }
        let top = u64::from(self.window_words) * (self.windows.len() as u64 + 1);
        if top > u64::from(NOTIFY_ADDR) {
            return Err(SnapshotError::Malformed(
                "address windows overlap command addresses",
            ));
        }
        Ok(())
    }
    /// Appends a window onto `node` after the existing ones (dynamic
    /// reconfiguration: existing window bases stay stable). Returns the
    /// new window's base address, or `None` if another window would
    /// collide with the command addresses at the top of the address
    /// space.
    pub fn push_window(&mut self, node: NodeId) -> Option<u16> {
        let base = u32::from(self.window_words) * (self.windows.len() as u32 + 1);
        let top = base + u32::from(self.window_words);
        if top > u32::from(crate::NOTIFY_ADDR) {
            return None;
        }
        self.windows.push(node);
        Some(base as u16)
    }
}

hermes_noc::snap_struct!(AddressMap {
    window_words,
    windows
} => AddressMap::check_restored);

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_map() -> AddressMap {
        // As seen from P1: window 1 = P2 (node 2), window 2 = memory (node 3).
        AddressMap::paper(vec![NodeId(2), NodeId(3)])
    }

    #[test]
    fn paper_ranges() {
        let map = paper_map();
        assert_eq!(map.decode(0), Target::Local { offset: 0 });
        assert_eq!(map.decode(1023), Target::Local { offset: 1023 });
        assert_eq!(
            map.decode(1024),
            Target::Remote {
                node: NodeId(2),
                offset: 0
            }
        );
        assert_eq!(
            map.decode(2047),
            Target::Remote {
                node: NodeId(2),
                offset: 1023
            }
        );
        assert_eq!(
            map.decode(2048),
            Target::Remote {
                node: NodeId(3),
                offset: 0
            }
        );
        assert_eq!(
            map.decode(3071),
            Target::Remote {
                node: NodeId(3),
                offset: 1023
            }
        );
        assert_eq!(map.decode(3072), Target::Unmapped);
    }

    #[test]
    fn command_addresses() {
        let map = paper_map();
        assert_eq!(map.decode(0xFFFF), Target::Io);
        assert_eq!(map.decode(0xFFFE), Target::WaitCmd);
        assert_eq!(map.decode(0xFFFD), Target::NotifyCmd);
        assert_eq!(map.decode(0xFFFC), Target::Unmapped);
    }

    #[test]
    fn window_bases() {
        let map = paper_map();
        assert_eq!(map.window_base(NodeId(2)), Some(1024));
        assert_eq!(map.window_base(NodeId(3)), Some(2048));
        assert_eq!(map.window_base(NodeId(7)), None);
    }

    #[test]
    fn many_windows() {
        // An 8-processor system: 7 peers + 1 memory = 8 windows.
        let windows: Vec<NodeId> = (1..=8).map(NodeId).collect();
        let map = AddressMap::new(1024, windows);
        assert_eq!(
            map.decode(8 * 1024 + 5),
            Target::Remote {
                node: NodeId(8),
                offset: 5
            }
        );
        assert_eq!(map.decode(9 * 1024), Target::Unmapped);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn windows_cannot_reach_command_addresses() {
        AddressMap::new(1024, (0..63).map(NodeId).collect());
    }
}

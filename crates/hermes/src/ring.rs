//! The bounded ring behind every amortized observer window: the
//! statistics' packet records, the tracer's packet traces and the
//! service event log of a `multinoc` system.

use crate::snapshot::{Snap, SnapshotError, SnapshotWriter};

/// A bounded window over sequentially numbered items (packet ids, or
/// push order): the `window` most recent items are visible, and the
/// ring counts the ones it evicts. The backing vector drains back to
/// the window once it holds twice the window, so a push costs amortized
/// O(1) and memory stays O(window).
///
/// Owners serialize the fields themselves, each in its own historical
/// byte order, and rebuild the ring with [`Ring::restore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ring<T> {
    items: Vec<T>,
    window: usize,
    /// Number of `items[0]`; the next push into an empty ring sets it.
    first: u64,
    /// Items drained out of the backing vector so far.
    evicted: u64,
}

impl<T> Ring<T> {
    /// An empty ring showing the `window` most recent items (at least
    /// one).
    pub fn new(window: usize) -> Self {
        Self {
            items: Vec::new(),
            window: window.max(1),
            first: 0,
            evicted: 0,
        }
    }

    /// Rebuilds a ring from its serialized fields: the window, the
    /// number of the first held item, the eviction count and the held
    /// items.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] naming `what` for a zero window,
    /// more items than twice the window, or numbers past `u64::MAX`.
    pub fn restore(
        window: usize,
        first: u64,
        evicted: u64,
        items: Vec<T>,
        what: &'static str,
    ) -> Result<Self, SnapshotError> {
        if window == 0
            || items.len() > window.saturating_mul(2)
            || first.checked_add(items.len() as u64).is_none()
        {
            return Err(SnapshotError::Malformed(what));
        }
        Ok(Self {
            items,
            window,
            first,
            evicted,
        })
    }

    /// Appends item `number`, which must follow the last held one; the
    /// first item of an empty ring sets the numbering. A full backing
    /// vector drains back to the window first.
    pub fn push(&mut self, number: u64, item: T) {
        if self.items.is_empty() {
            self.first = number;
        }
        debug_assert_eq!(number, self.end(), "ring items are numbered in order");
        self.compact();
        self.items.push(item);
    }

    /// Drains the backing vector back to the window if it holds twice
    /// the window.
    pub fn compact(&mut self) {
        if self.items.len() >= self.window.saturating_mul(2) {
            let excess = self.items.len() - self.window;
            self.items.drain(..excess);
            self.first += excess as u64;
            self.evicted += excess as u64;
        }
    }

    fn offset(&self, number: u64) -> Option<usize> {
        usize::try_from(number.checked_sub(self.first)?).ok()
    }

    /// Item `number`, if the backing vector still holds it.
    pub fn get(&self, number: u64) -> Option<&T> {
        self.items.get(self.offset(number)?)
    }

    /// Item `number` for update, if the backing vector still holds it.
    pub fn get_mut(&mut self, number: u64) -> Option<&mut T> {
        let offset = self.offset(number)?;
        self.items.get_mut(offset)
    }

    /// The visible items: the `window` most recent, oldest first.
    pub fn visible(&self) -> &[T] {
        &self.items[self.items.len().saturating_sub(self.window)..]
    }

    /// Every held item, oldest first: the visible ones and up to a
    /// window more that wait for the next drain.
    pub fn held(&self) -> &[T] {
        &self.items
    }

    /// Whether every held item carries its own number, as `number_of`
    /// reads it.
    pub fn numbered(&self, number_of: impl Fn(&T) -> u64) -> bool {
        (self.items.iter().zip(self.first..)).all(|(item, number)| number_of(item) == number)
    }

    /// Writes the held items as a sequence (the encoding of a `Vec`).
    pub fn put_held(&self, w: &mut SnapshotWriter)
    where
        T: Snap,
    {
        w.put(&self.items);
    }

    /// Whether the ring holds nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The configured window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of the oldest held item (of the next one, while empty).
    pub fn first(&self) -> u64 {
        self.first
    }

    /// Number the next item takes: one past the newest held item.
    pub fn end(&self) -> u64 {
        self.first + self.items.len() as u64
    }

    /// Items drained out of the backing vector so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

/// An empty ring with an effectively unbounded window.
impl<T> Default for Ring<T> {
    fn default() -> Self {
        Self::new(usize::MAX)
    }
}

//! Token-level KV placement — ALISA's caching substrate (Table I:
//! "Caching granularity: token-level (dynamic)").
//!
//! One entry per token position; every entry's KV bytes live on the GPU,
//! on the CPU, or nowhere (deleted, pending recomputation — Phase III).
//! The store tracks placement only: the scheduler prices each move at
//! its own per-region widths, so a token's bytes are modelled in one
//! place.

use serde::{Deserialize, Serialize};

/// Where a token's KV tensor currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Location {
    /// Resident in GPU HBM — usable immediately.
    Gpu,
    /// Offloaded to CPU DRAM — must cross the link before use.
    Cpu,
    /// Deleted (Phase III) — must be recomputed before use.
    Deleted,
}

/// Token-granular KV placement map for one batch.
///
/// # Example
///
/// ```
/// use alisa_kvcache::{Location, TokenKvStore};
///
/// let mut store = TokenKvStore::new();
/// store.append(Location::Gpu);
/// store.append(Location::Gpu);
/// store.relocate(0, Location::Cpu);
/// assert_eq!(store.location(0), Location::Cpu);
/// assert_eq!(store.location(1), Location::Gpu);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TokenKvStore {
    locations: Vec<Location>,
}

impl TokenKvStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        TokenKvStore::default()
    }

    /// Number of token positions tracked (including deleted ones).
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// Whether no tokens have been appended.
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }

    /// Appends the next token's KV entry at `location`, returning its
    /// index.
    pub fn append(&mut self, location: Location) -> usize {
        self.locations.push(location);
        self.locations.len() - 1
    }

    /// Location of token `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn location(&self, i: usize) -> Location {
        self.locations[i]
    }

    /// Moves token `i` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn relocate(&mut self, i: usize, to: Location) {
        self.locations[i] = to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_count() {
        let mut s = TokenKvStore::new();
        assert!(s.is_empty());
        assert_eq!(s.append(Location::Gpu), 0);
        assert_eq!(s.append(Location::Cpu), 1);
        assert_eq!(s.append(Location::Gpu), 2);
        assert_eq!(s.len(), 3);
        assert_eq!(s.location(1), Location::Cpu);
        assert_eq!(s.location(2), Location::Gpu);
    }

    #[test]
    fn relocate_updates_placement() {
        let mut s = TokenKvStore::new();
        s.append(Location::Gpu);
        s.append(Location::Gpu);
        s.relocate(0, Location::Cpu);
        assert_eq!(s.location(0), Location::Cpu);
        assert_eq!(s.location(1), Location::Gpu, "other tokens stay put");
        s.relocate(0, Location::Deleted);
        assert_eq!(s.location(0), Location::Deleted);
        s.relocate(0, Location::Gpu);
        assert_eq!(s.location(0), Location::Gpu);
    }
}

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

impl std::fmt::Display for Location {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Location::Gpu => write!(f, "gpu"),
            Location::Cpu => write!(f, "cpu"),
            Location::Deleted => write!(f, "deleted"),
        }
    }
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
/// assert_eq!(store.count(Location::Gpu), 1);
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

    /// Number of tokens at `location`.
    pub fn count(&self, location: Location) -> usize {
        self.locations.iter().filter(|&&l| l == location).count()
    }

    /// For a set of needed token indices, partitions them by where they
    /// currently live. The allocating reference that
    /// `tests/differential.rs` pins [`TokenKvStore::partition_needed_into`]
    /// against; the scheduler calls the reusing variant.
    pub fn partition_needed(&self, needed: &[usize]) -> NeededPartition {
        let mut p = NeededPartition::default();
        self.partition_needed_into(needed, &mut p);
        p
    }

    /// The scheduler's per-step working-set analysis:
    /// [`TokenKvStore::partition_needed`] into a caller-owned partition
    /// whose buffers are cleared and reused, so a per-step caller
    /// allocates nothing in steady state. Produces exactly the same
    /// partition as the allocating variant.
    pub fn partition_needed_into(&self, needed: &[usize], out: &mut NeededPartition) {
        out.on_gpu.clear();
        out.on_cpu.clear();
        out.deleted.clear();
        out.missing.clear();
        for &i in needed {
            match self.locations.get(i) {
                Some(Location::Gpu) => out.on_gpu.push(i),
                Some(Location::Cpu) => out.on_cpu.push(i),
                Some(Location::Deleted) => out.deleted.push(i),
                None => out.missing.push(i),
            }
        }
    }
}

/// Result of [`TokenKvStore::partition_needed`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NeededPartition {
    /// Needed tokens already resident on the GPU.
    pub on_gpu: Vec<usize>,
    /// Needed tokens that must be loaded across the link.
    pub on_cpu: Vec<usize>,
    /// Needed tokens that must be recomputed (Phase III).
    pub deleted: Vec<usize>,
    /// Indices never appended — indicates a scheduler bug.
    pub missing: Vec<usize>,
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
        assert_eq!(s.count(Location::Gpu), 2);
        assert_eq!(s.count(Location::Cpu), 1);
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
        // Recompute lands the token back on GPU.
        s.relocate(0, Location::Gpu);
        assert_eq!(s.count(Location::Gpu), 2);
    }

    #[test]
    fn partition_needed_splits_correctly() {
        let mut s = TokenKvStore::new();
        s.append(Location::Gpu); // 0
        s.append(Location::Cpu); // 1
        s.append(Location::Deleted); // 2
        let p = s.partition_needed(&[0, 1, 2, 9]);
        assert_eq!(p.on_gpu, vec![0]);
        assert_eq!(p.on_cpu, vec![1]);
        assert_eq!(p.deleted, vec![2]);
        assert_eq!(p.missing, vec![9]);
        // The reusing variant clears stale contents and agrees exactly.
        let mut reused = s.partition_needed(&[2, 9]);
        s.partition_needed_into(&[0, 1, 2, 9], &mut reused);
        assert_eq!(reused, p);
    }

    #[test]
    fn display_locations() {
        assert_eq!(Location::Gpu.to_string(), "gpu");
        assert_eq!(Location::Deleted.to_string(), "deleted");
    }
}

//! Byte-accurate memory pools with classed accounting and OOM detection.
//!
//! Figure 1 and Figure 12 of the paper report GPU memory split into
//! weights / activations / KV tensors, with a red line at the HBM
//! capacity and explicit OOM outcomes. [`MemPool`] reproduces that
//! accounting: every allocation carries a [`MemClass`], usage can never
//! go negative, and exceeding capacity is a hard, reportable error
//! rather than silent growth.

use serde::{Deserialize, Serialize};

/// What an allocation holds; matches the breakdown of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemClass {
    /// Model weights (resident for the whole run in this repository,
    /// matching the paper's "weights and activations always in GPU").
    Weights,
    /// Per-step activations and workspace buffers.
    Activations,
    /// Cached KV tensors.
    KvCache,
}

impl std::fmt::Display for MemClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemClass::Weights => write!(f, "weights"),
            MemClass::Activations => write!(f, "activations"),
            MemClass::KvCache => write!(f, "kv-cache"),
        }
    }
}

/// Error returned when an allocation would exceed the pool capacity —
/// the "OOM" entries in Figures 1 and 9.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OomError {
    /// Pool name (e.g. `"GPU"`).
    pub pool: String,
    /// Bytes requested by the failing allocation.
    pub requested: u64,
    /// Bytes in use at the time of the request.
    pub in_use: u64,
    /// Pool capacity.
    pub capacity: u64,
}

impl std::fmt::Display for OomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} out of memory: requested {} B with {}/{} B in use",
            self.pool, self.requested, self.in_use, self.capacity
        )
    }
}

impl std::error::Error for OomError {}

/// A fixed-capacity memory pool with per-class usage accounting. It
/// keeps current usage only: the simulators stamp it into each step's
/// [`StepRecord`](crate::StepRecord), and the
/// [`Timeline`](crate::Timeline) takes its high-water marks from those.
///
/// # Example
///
/// ```
/// use alisa_memsim::{MemPool, MemClass};
///
/// let mut gpu = MemPool::new("GPU", 1024);
/// gpu.alloc(MemClass::Weights, 512).unwrap();
/// assert_eq!(gpu.used(), 512);
/// assert!(gpu.alloc(MemClass::KvCache, 1024).is_err()); // OOM
/// gpu.free(MemClass::Weights, 512);
/// assert_eq!(gpu.used(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemPool {
    name: String,
    capacity: u64,
    used_by_class: [u64; 3],
}

impl MemPool {
    /// Creates an empty pool with the given capacity in bytes.
    pub fn new(name: impl Into<String>, capacity: u64) -> Self {
        MemPool {
            name: name.into(),
            capacity,
            used_by_class: [0; 3],
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently in use across all classes.
    pub fn used(&self) -> u64 {
        self.used_by_class.iter().sum()
    }

    /// Bytes currently in use by one class.
    pub fn used_by(&self, class: MemClass) -> u64 {
        self.used_by_class[Self::slot(class)]
    }

    /// Bytes still available.
    pub fn available(&self) -> u64 {
        self.capacity - self.used()
    }

    /// Allocates `bytes` of `class` memory.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] (leaving the pool unchanged) if the request
    /// exceeds the remaining capacity.
    pub fn alloc(&mut self, class: MemClass, bytes: u64) -> Result<(), OomError> {
        if bytes > self.available() {
            return Err(OomError {
                pool: self.name.clone(),
                requested: bytes,
                in_use: self.used(),
                capacity: self.capacity,
            });
        }
        self.used_by_class[Self::slot(class)] += bytes;
        Ok(())
    }

    /// Releases `bytes` of `class` memory.
    ///
    /// # Panics
    ///
    /// Panics if more bytes are freed than the class has allocated —
    /// that is a scheduler accounting bug and must fail loudly in tests.
    pub fn free(&mut self, class: MemClass, bytes: u64) {
        let slot = Self::slot(class);
        assert!(
            self.used_by_class[slot] >= bytes,
            "{}: freeing {} B of {} but only {} allocated",
            self.name,
            bytes,
            class,
            self.used_by_class[slot]
        );
        self.used_by_class[slot] -= bytes;
    }

    fn slot(class: MemClass) -> usize {
        match class {
            MemClass::Weights => 0,
            MemClass::Activations => 1,
            MemClass::KvCache => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let mut p = MemPool::new("GPU", 100);
        p.alloc(MemClass::KvCache, 60).unwrap();
        assert_eq!(p.used(), 60);
        assert_eq!(p.used_by(MemClass::KvCache), 60);
        assert_eq!(p.available(), 40);
        p.free(MemClass::KvCache, 60);
        assert_eq!(p.used(), 0);
    }

    #[test]
    fn oom_leaves_pool_unchanged() {
        let mut p = MemPool::new("GPU", 100);
        p.alloc(MemClass::Weights, 90).unwrap();
        let err = p.alloc(MemClass::KvCache, 20).unwrap_err();
        assert_eq!(err.requested, 20);
        assert_eq!(err.in_use, 90);
        assert_eq!(err.capacity, 100);
        assert_eq!(p.used(), 90);
    }

    #[test]
    #[should_panic(expected = "freeing")]
    fn over_free_panics() {
        let mut p = MemPool::new("GPU", 100);
        p.alloc(MemClass::KvCache, 10).unwrap();
        p.free(MemClass::KvCache, 20);
    }

    #[test]
    fn classes_are_tracked_separately() {
        let mut p = MemPool::new("GPU", 100);
        p.alloc(MemClass::Weights, 30).unwrap();
        p.alloc(MemClass::Activations, 20).unwrap();
        p.alloc(MemClass::KvCache, 10).unwrap();
        assert_eq!(p.used_by(MemClass::Weights), 30);
        assert_eq!(p.used_by(MemClass::Activations), 20);
        assert_eq!(p.used_by(MemClass::KvCache), 10);
        assert_eq!(p.used(), 60);
    }

    #[test]
    fn exact_fit_succeeds() {
        let mut p = MemPool::new("GPU", 100);
        p.alloc(MemClass::KvCache, 100).unwrap();
        assert_eq!(p.available(), 0);
        assert!(p.alloc(MemClass::KvCache, 1).is_err());
        assert!(p.alloc(MemClass::KvCache, 0).is_ok());
    }

    #[test]
    fn oom_error_displays_pool_name() {
        let mut p = MemPool::new("CPU", 10);
        let err = p.alloc(MemClass::KvCache, 11).unwrap_err();
        assert!(err.to_string().contains("CPU out of memory"));
    }
}

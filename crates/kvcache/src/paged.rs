//! Block-level paged KV storage — the vLLM substrate (Table I:
//! "Block-level (static)").
//!
//! vLLM \[21\] stores KV tensors in fixed-size blocks of tokens inside
//! non-contiguous paged memory, swapping *whole blocks* between GPU and
//! CPU. Block granularity removes external fragmentation (its design
//! goal) but couples placement decisions across the tokens sharing a
//! block — the coarseness ALISA's token-level scheduling removes.

use serde::{Deserialize, Serialize};

use crate::token_store::Location;

/// One fixed-capacity block of consecutive token KV entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    /// Tokens currently stored (≤ block_size).
    pub tokens: usize,
    /// Where the whole block resides (blocks are never split).
    pub location: Location,
}

/// Paged KV store: tokens append into the newest block; blocks swap
/// whole.
///
/// # Example
///
/// ```
/// use alisa_kvcache::PagedKvStore;
///
/// let mut store = PagedKvStore::new(16, 128); // 16 tokens/block
/// for _ in 0..20 {
///     store.append_token();
/// }
/// assert_eq!(store.num_blocks(), 2);
/// // Both blocks are charged full capacity on the GPU:
/// assert_eq!(store.gpu_bytes(), 2 * 16 * 128);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PagedKvStore {
    block_size: usize,
    bytes_per_token: u64,
    blocks: Vec<Block>,
}

impl PagedKvStore {
    /// Creates an empty paged store.
    ///
    /// # Panics
    ///
    /// Panics if `block_size == 0`.
    pub fn new(block_size: usize, bytes_per_token: u64) -> Self {
        assert!(block_size > 0, "block size must be positive");
        PagedKvStore {
            block_size,
            bytes_per_token,
            blocks: Vec::new(),
        }
    }

    /// Tokens per block.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Bytes a full block occupies (blocks are allocated whole — the
    /// partial tail block still reserves full capacity, vLLM's internal
    /// fragmentation).
    pub fn block_bytes(&self) -> u64 {
        self.block_size as u64 * self.bytes_per_token
    }

    /// Number of allocated blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total tokens stored.
    pub fn num_tokens(&self) -> usize {
        self.blocks.iter().map(|b| b.tokens).sum()
    }

    /// Appends one token; allocates a fresh GPU block when the tail
    /// block is full. Returns the block index the token landed in.
    pub fn append_token(&mut self) -> usize {
        let needs_new = self
            .blocks
            .last()
            .is_none_or(|b| b.tokens == self.block_size);
        if needs_new {
            self.blocks.push(Block {
                tokens: 0,
                location: Location::Gpu,
            });
        }
        let idx = self.blocks.len() - 1;
        self.blocks[idx].tokens += 1;
        idx
    }

    /// Block metadata.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn block(&self, i: usize) -> Block {
        self.blocks[i]
    }

    /// Swaps a block to the given side; returns bytes moved across the
    /// link (full block capacity — vLLM swaps pages whole).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the block is `Deleted`.
    pub fn swap(&mut self, i: usize, to: Location) -> u64 {
        let from = self.blocks[i].location;
        assert!(from != Location::Deleted, "cannot swap a deleted block");
        self.blocks[i].location = to;
        match (from, to) {
            (Location::Gpu, Location::Cpu) | (Location::Cpu, Location::Gpu) => self.block_bytes(),
            _ => 0,
        }
    }

    /// Bytes reserved on the GPU (full capacity per resident block).
    pub fn gpu_bytes(&self) -> u64 {
        self.bytes_on(Location::Gpu)
    }

    /// Bytes reserved on the CPU.
    pub fn cpu_bytes(&self) -> u64 {
        self.bytes_on(Location::Cpu)
    }

    fn bytes_on(&self, loc: Location) -> u64 {
        self.blocks.iter().filter(|b| b.location == loc).count() as u64 * self.block_bytes()
    }

    /// Indices of blocks on the given side, oldest first.
    pub fn blocks_at(&self, loc: Location) -> Vec<usize> {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.location == loc)
            .map(|(i, _)| i)
            .collect()
    }

    /// Internal fragmentation: reserved-but-unused bytes in the tail
    /// block.
    pub fn fragmented_bytes(&self) -> u64 {
        self.blocks
            .last()
            .map(|b| (self.block_size - b.tokens) as u64 * self.bytes_per_token)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_fill_then_allocate() {
        let mut s = PagedKvStore::new(4, 10);
        for i in 0..4 {
            assert_eq!(s.append_token(), 0, "token {i} fills block 0");
        }
        assert_eq!(s.append_token(), 1);
        assert_eq!(s.num_blocks(), 2);
        assert_eq!(s.num_tokens(), 5);
    }

    #[test]
    fn gpu_bytes_charge_full_blocks() {
        let mut s = PagedKvStore::new(4, 10);
        s.append_token();
        // One token, but a whole block is reserved.
        assert_eq!(s.gpu_bytes(), 40);
        assert_eq!(s.fragmented_bytes(), 30);
    }

    #[test]
    fn swap_moves_whole_blocks() {
        let mut s = PagedKvStore::new(4, 10);
        for _ in 0..8 {
            s.append_token();
        }
        let moved = s.swap(0, Location::Cpu);
        assert_eq!(moved, 40);
        assert_eq!(s.gpu_bytes(), 40);
        assert_eq!(s.cpu_bytes(), 40);
        assert_eq!(s.blocks_at(Location::Cpu), vec![0]);
        // Swapping back also crosses the link.
        assert_eq!(s.swap(0, Location::Gpu), 40);
        // No-op swap is free.
        assert_eq!(s.swap(0, Location::Gpu), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_block_size_rejected() {
        let _ = PagedKvStore::new(0, 1);
    }

    #[test]
    fn empty_store_has_no_bytes() {
        let s = PagedKvStore::new(16, 128);
        assert_eq!(s.gpu_bytes(), 0);
        assert_eq!(s.fragmented_bytes(), 0);
        assert_eq!(s.num_tokens(), 0);
    }
}

//! Block-level paged KV reservation — the vLLM substrate (Table I:
//! "Block-level (static)").
//!
//! vLLM \[21\] stores KV tensors in fixed-size blocks of tokens inside
//! non-contiguous paged memory. Block granularity removes external
//! fragmentation (its design goal) but reserves whole blocks: a
//! sequence's partial tail block still books full capacity, vLLM's
//! internal fragmentation. The offline vLLM simulator and serving
//! admission both book KV through [`reserved_bytes`].

/// Bytes `tokens` KV entries reserve when stored in blocks of
/// `block_size` tokens of `bytes_per_token` each: every started block
/// is booked whole.
///
/// # Example
///
/// ```
/// use alisa_kvcache::paged::reserved_bytes;
///
/// // 20 tokens in 16-token blocks occupy two full blocks.
/// assert_eq!(reserved_bytes(20, 16, 128), 2 * 16 * 128);
/// ```
///
/// # Panics
///
/// Panics if `block_size == 0`.
pub fn reserved_bytes(tokens: usize, block_size: usize, bytes_per_token: u64) -> u64 {
    assert!(block_size > 0, "block size must be positive");
    tokens.div_ceil(block_size) as u64 * block_size as u64 * bytes_per_token
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_fill_then_allocate() {
        for tokens in 1..=4 {
            assert_eq!(reserved_bytes(tokens, 4, 10), 40, "{tokens} fill block 0");
        }
        assert_eq!(reserved_bytes(5, 4, 10), 80, "the fifth starts block 1");
    }

    #[test]
    fn reserved_bytes_charge_full_blocks() {
        // One token, but a whole block is reserved.
        assert_eq!(reserved_bytes(1, 4, 10), 40);
        assert_eq!(reserved_bytes(17, 16, 1), 32);
        assert_eq!(reserved_bytes(16, 16, 1), 16);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_block_size_rejected() {
        let _ = reserved_bytes(1, 0, 1);
    }

    #[test]
    fn empty_store_has_no_bytes() {
        assert_eq!(reserved_bytes(0, 16, 128), 0);
    }
}

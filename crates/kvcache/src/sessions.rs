//! Cross-request session KV retention — the substrate for multi-turn
//! prefix reuse.
//!
//! A follow-up turn of a conversation re-submits the whole conversation
//! so far as its prompt. If the previous turn's KV state is still
//! resident on the replica that served it, the shared prefix needs no
//! prefill — the serving engine only runs the new user text through the
//! model and attends over the retained sparse KV. This module holds the
//! bookkeeping for that: a per-replica pool of *retained* session
//! caches, byte-accounted like live requests (the caller prices each
//! retained working set through the same `AdmissionPolicy` /
//! `PrecisionPolicy` path that prices admissions, so retention and
//! admission compete for the same HBM), evicted in LRU order whenever
//! admission needs the room back.
//!
//! Determinism: eviction order is driven by a monotonically increasing
//! integer tick (no wall clock, no float comparisons), so two identical
//! runs retain and evict identically.

use serde::{Deserialize, Serialize};

/// One retained session cache: the KV working set of the last finished
/// turn of a session, kept resident in the hope that the next turn
/// lands on this replica.
///
/// ```
/// use alisa_kvcache::SessionKvCache;
///
/// let mut kv = SessionKvCache::new(1000);
/// kv.retain(7, 128, 600, u64::MAX);
/// // The next turn's prompt contains the 128 retained tokens as a
/// // prefix, so the lookup hits and hands the bytes back.
/// assert_eq!(kv.peek(7, 128), Some((128, 600)));
/// let (seq, bytes) = kv.take(7, 128).unwrap();
/// assert_eq!((seq, bytes), (128, 600));
/// assert_eq!(kv.bytes(), 0);
/// assert_eq!(kv.stats().hits, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetainedSession {
    /// Session this cache belongs to.
    pub session_id: usize,
    /// Tokens covered: positions `[0, seq_len)` of the conversation.
    pub seq_len: usize,
    /// Stored bytes, as priced by the caller's admission policy (the
    /// policy's GPU-region precision — the same pricing live requests
    /// reserve under).
    pub bytes: u64,
    /// LRU tick of the last touch (insert or hit).
    tick: u64,
}

/// Aggregate reuse counters, reported alongside serving metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ReuseStats {
    /// Admitted turns whose session prefix KV was still resident.
    pub hits: usize,
    /// Admitted turns that *had* a reusable prefix but found it gone
    /// (evicted, or never retained on this replica).
    pub misses: usize,
    /// Total prompt tokens whose prefill was skipped via reuse.
    pub reused_tokens: u64,
    /// Retained caches evicted to make room (for admissions or newer
    /// retained sessions).
    pub evictions: usize,
    /// Session caches retained: at turn completion, and for a preempted
    /// request's built KV at preemption.
    pub retained: usize,
    /// Highest retained-pool occupancy observed, bytes.
    pub peak_retained_bytes: u64,
}

/// A per-replica pool of retained session KV caches with LRU eviction.
///
/// The pool enforces two ceilings: its own `cap_bytes` (the retention
/// budget, typically a fraction of the replica's KV budget) and
/// whatever *global* allowance the caller passes per operation —
/// retained bytes always yield to live reservations, so retention can
/// delay admission by at most one eviction sweep, never block it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionKvCache {
    cap_bytes: u64,
    bytes: u64,
    tick: u64,
    entries: Vec<RetainedSession>,
    stats: ReuseStats,
}

impl SessionKvCache {
    /// An empty pool that may retain at most `cap_bytes` of session KV.
    pub fn new(cap_bytes: u64) -> Self {
        SessionKvCache {
            cap_bytes,
            bytes: 0,
            tick: 0,
            entries: Vec::new(),
            stats: ReuseStats::default(),
        }
    }

    /// Bytes currently retained.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The retention ceiling this pool was built with.
    pub fn cap_bytes(&self) -> u64 {
        self.cap_bytes
    }

    /// Number of retained session caches.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counters so far.
    pub fn stats(&self) -> ReuseStats {
        self.stats
    }

    /// Records an admitted turn that had a reusable prefix but found no
    /// retained cache for it.
    pub fn note_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Non-mutating lookup: the retained `(seq_len, bytes)` for
    /// `session_id`, provided the retained tokens are a prefix of the
    /// incoming turn's context (`seq_len <= max_prefix`). A longer
    /// retained cache than the incoming prefix cannot be reused (its
    /// tail belongs to a different continuation) and reports `None`.
    pub fn peek(&self, session_id: usize, max_prefix: usize) -> Option<(usize, u64)> {
        self.entries
            .iter()
            .find(|e| e.session_id == session_id && e.seq_len > 0 && e.seq_len <= max_prefix)
            .map(|e| (e.seq_len, e.bytes))
    }

    /// Consumes the retained cache for `session_id` (the admission hit
    /// path): removes it from the pool and returns `(seq_len, bytes)`.
    /// Counts a hit and credits the reused tokens. Any entry for the
    /// session that cannot serve this prefix is dropped as stale.
    pub fn take(&mut self, session_id: usize, max_prefix: usize) -> Option<(usize, u64)> {
        let pos = self
            .entries
            .iter()
            .position(|e| e.session_id == session_id)?;
        let e = self.entries[pos];
        if e.seq_len > 0 && e.seq_len <= max_prefix {
            self.entries.remove(pos);
            self.bytes -= e.bytes;
            self.stats.hits += 1;
            self.stats.reused_tokens += e.seq_len as u64;
            Some((e.seq_len, e.bytes))
        } else {
            // Stale: retained state that can never prefix this session's
            // future turns either (prefixes only grow). Drop it.
            self.entries.remove(pos);
            self.bytes -= e.bytes;
            self.stats.evictions += 1;
            None
        }
    }

    /// Evicts least-recently-used caches (skipping `keep`, the session
    /// an in-flight admission is about to consume) until at most
    /// `max_bytes` of *other* sessions' caches remain. Admission calls
    /// this with its post-admit headroom so retention always yields.
    ///
    /// Returns the evicted entries in eviction (LRU) order so callers
    /// can surface them — e.g. as `retention-evict` trace events.
    pub fn evict_until(&mut self, max_bytes: u64, keep: Option<usize>) -> Vec<RetainedSession> {
        let kept_bytes = |s: &Self| {
            s.bytes
                - keep
                    .and_then(|k| s.entries.iter().find(|e| e.session_id == k))
                    .map_or(0, |e| e.bytes)
        };
        let mut evicted = Vec::new();
        while kept_bytes(self) > max_bytes {
            let victim = self
                .entries
                .iter()
                .filter(|e| Some(e.session_id) != keep)
                .min_by_key(|e| e.tick)
                .copied();
            match victim {
                Some(v) => {
                    self.entries.retain(|e| e.session_id != v.session_id);
                    self.bytes -= v.bytes;
                    self.stats.evictions += 1;
                    evicted.push(v);
                }
                None => break,
            }
        }
        evicted
    }

    /// Retains `bytes` of session KV covering `[0, seq_len)`, replacing
    /// any previous cache for the session. The insert is skipped
    /// (returning `None`) when `bytes` exceeds the pool cap or
    /// `global_allow` — the replica-wide headroom left by live
    /// reservations; otherwise older sessions are evicted LRU until
    /// both ceilings hold, and the evicted entries are returned in
    /// eviction order, as [`SessionKvCache::evict_until`] returns them.
    /// On a skip, any previous cache for the session is left in place:
    /// a shorter retained context is still a valid prefix of every
    /// future turn, so keeping it preserves a partial-ancestor hit.
    pub fn retain(
        &mut self,
        session_id: usize,
        seq_len: usize,
        bytes: u64,
        global_allow: u64,
    ) -> Option<Vec<RetainedSession>> {
        let allow = self.cap_bytes.min(global_allow);
        if bytes > allow {
            return None;
        }
        // Replace any previous cache for this session, so its bytes
        // don't count against the ceilings.
        if let Some(pos) = self.entries.iter().position(|e| e.session_id == session_id) {
            self.bytes -= self.entries[pos].bytes;
            self.entries.remove(pos);
        }
        let evicted = self.evict_until(allow - bytes, None);
        self.tick += 1;
        self.entries.push(RetainedSession {
            session_id,
            seq_len,
            bytes,
            tick: self.tick,
        });
        self.bytes += bytes;
        self.stats.retained += 1;
        self.stats.peak_retained_bytes = self.stats.peak_retained_bytes.max(self.bytes);
        Some(evicted)
    }
}

impl ReuseStats {
    /// Element-wise sum (peaks take the max) — fleet reports aggregate
    /// per-replica stats with this.
    pub fn merged(self, other: ReuseStats) -> ReuseStats {
        ReuseStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            reused_tokens: self.reused_tokens + other.reused_tokens,
            evictions: self.evictions + other.evictions,
            retained: self.retained + other.retained,
            peak_retained_bytes: self.peak_retained_bytes.max(other.peak_retained_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retain_take_round_trip() {
        let mut kv = SessionKvCache::new(1000);
        assert_eq!(kv.retain(1, 100, 400, u64::MAX), Some(Vec::new()));
        assert_eq!(kv.retain(2, 50, 300, u64::MAX), Some(Vec::new()));
        assert_eq!(kv.bytes(), 700);
        assert_eq!(kv.len(), 2);
        assert_eq!(kv.peek(1, 120), Some((100, 400)));
        assert_eq!(kv.peek(1, 99), None, "retained longer than the prefix");
        assert_eq!(kv.take(1, 120), Some((100, 400)));
        assert_eq!(kv.bytes(), 300);
        let s = kv.stats();
        assert_eq!((s.hits, s.reused_tokens, s.retained), (1, 100, 2));
    }

    #[test]
    fn lru_eviction_under_cap_pressure() {
        let mut kv = SessionKvCache::new(1000);
        kv.retain(1, 10, 400, u64::MAX);
        kv.retain(2, 10, 400, u64::MAX);
        // Touch session 1 so session 2 becomes the LRU victim.
        assert!(kv.take(1, 10).is_some());
        kv.retain(1, 10, 400, u64::MAX);
        // Session 3 needs room: the LRU victim, session 2, goes.
        let evicted = kv.retain(3, 10, 400, u64::MAX).expect("fits");
        assert_eq!(evicted.len(), 1);
        assert_eq!((evicted[0].session_id, evicted[0].bytes), (2, 400));
        assert_eq!(kv.peek(2, 10), None);
        assert_eq!(kv.peek(1, 10), Some((10, 400)));
        assert_eq!(kv.peek(3, 10), Some((10, 400)));
        assert_eq!(kv.stats().evictions, 1);
    }

    #[test]
    fn oversized_and_globally_disallowed_retains_are_skipped() {
        let mut kv = SessionKvCache::new(100);
        assert!(kv.retain(1, 10, 200, u64::MAX).is_none(), "over pool cap");
        assert!(kv.retain(1, 10, 80, 50).is_none(), "over global allowance");
        assert!(kv.is_empty());
        assert!(kv.retain(1, 10, 80, 90).is_some());
        assert_eq!(kv.bytes(), 80);
    }

    #[test]
    fn oversized_replacement_keeps_the_previous_cache() {
        // A shorter retained context is a valid prefix of every future
        // turn; an unstorable replacement must not destroy it.
        let mut kv = SessionKvCache::new(100);
        assert!(kv.retain(1, 10, 60, u64::MAX).is_some());
        assert!(
            kv.retain(1, 40, 150, u64::MAX).is_none(),
            "replacement over cap"
        );
        assert_eq!(kv.peek(1, 40), Some((10, 60)), "old prefix survives");
        assert_eq!(kv.stats().evictions, 0);
    }

    #[test]
    fn evict_until_spares_the_kept_session() {
        let mut kv = SessionKvCache::new(1000);
        kv.retain(1, 10, 300, u64::MAX);
        kv.retain(2, 10, 300, u64::MAX);
        kv.retain(3, 10, 300, u64::MAX);
        kv.evict_until(0, Some(2));
        assert_eq!(kv.len(), 1);
        assert_eq!(kv.peek(2, 10), Some((10, 300)));
        assert_eq!(kv.stats().evictions, 2);
    }

    #[test]
    fn replacing_a_session_does_not_double_count() {
        let mut kv = SessionKvCache::new(1000);
        kv.retain(1, 10, 400, u64::MAX);
        kv.retain(1, 20, 600, u64::MAX);
        assert_eq!(kv.bytes(), 600);
        assert_eq!(kv.len(), 1);
        assert_eq!(kv.peek(1, 20), Some((20, 600)));
    }

    #[test]
    fn stale_entry_is_dropped_on_mismatched_take() {
        let mut kv = SessionKvCache::new(1000);
        kv.retain(1, 100, 400, u64::MAX);
        // Incoming turn whose prefix is *shorter* than the retained
        // state (e.g. an intermediate turn was rejected): unusable now
        // and forever — dropped.
        assert_eq!(kv.take(1, 60), None);
        assert!(kv.is_empty());
        assert_eq!(kv.stats().hits, 0);
        assert_eq!(kv.stats().evictions, 1);
    }

    #[test]
    fn merged_stats_sum_and_max() {
        let a = ReuseStats {
            hits: 1,
            misses: 2,
            reused_tokens: 10,
            evictions: 1,
            retained: 3,
            peak_retained_bytes: 100,
        };
        let b = ReuseStats {
            hits: 2,
            misses: 0,
            reused_tokens: 5,
            evictions: 0,
            retained: 1,
            peak_retained_bytes: 250,
        };
        let m = a.merged(b);
        assert_eq!(m.hits, 3);
        assert_eq!(m.reused_tokens, 15);
        assert_eq!(m.peak_retained_bytes, 250);
    }
}

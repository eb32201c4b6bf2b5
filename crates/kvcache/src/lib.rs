//! KV-cache management substrates (paper §V and Table I).
//!
//! The paper's central systems claim is about *granularity*: vLLM
//! manages KV tensors in fixed blocks, FlexGen in static head-level
//! splits, ALISA at the level of individual tokens. This crate holds
//! each system's rule once, in the form its simulator in `alisa-sched`
//! reads it; the simulators charge the resulting bytes and traffic to
//! the cost model:
//!
//! * [`token_store::TokenKvStore`] — per-token placement
//!   (GPU / CPU / deleted), ALISA's substrate. It tracks where each
//!   token lives; the scheduler prices every move at its per-region
//!   precision widths,
//! * [`paged::reserved_bytes`] — whole-block booking, vLLM's substrate,
//!   shared by the offline simulator and serving admission,
//! * [`head_split::solve_fraction`] and [`head_split::cpu_bytes_per_token`]
//!   — a static fraction of every token's KV pinned to CPU, FlexGen's
//!   substrate,
//! * [`policies`] — eviction orderings, including the Belady oracle the
//!   paper cites as the impractical upper bound (§III-C),
//! * [`sessions::SessionKvCache`] — retained per-session KV caches for
//!   multi-turn prefix reuse, LRU-evicted under a byte budget so
//!   retention competes with live admissions for the same HBM.

pub mod head_split;
pub mod paged;
pub mod policies;
pub mod sessions;
pub mod token_store;

pub use sessions::{RetainedSession, ReuseStats, SessionKvCache};
pub use token_store::{Location, TokenKvStore};

//! Transformer-decoder substrate for the ALISA reproduction.
//!
//! Two faithful stand-ins for the paper's trained OPT/LLaMA/Pythia
//! checkpoints (see "Two evaluation paths, one cost model" in
//! `docs/ARCHITECTURE.md`):
//!
//! * [`config`] — model-architecture descriptions carrying the **real**
//!   dimensions of every model the paper evaluates (layer count, hidden
//!   size, head count, vocabulary). The performance simulator derives all
//!   byte and FLOP counts from these.
//! * [`transformer`] — an **executable** multi-head decoder at laptop
//!   scale whose attention reproduces the statistics the paper's
//!   algorithm exploits: power-law attention mass, distant heavy
//!   hitters, local recency. Weights come from [`init`]'s structured
//!   generator (heavy-hitter sinks + ALiBi recency + scale-dependent
//!   concentration) or from [`assoc`]'s hand-constructed associative
//!   retrieval model used for QA-style accuracy tasks.
//! * [`engine`] — autoregressive generation and teacher-forced scoring
//!   with pluggable sparsity policies and optional INT8/INT4 KV storage.
//!
//! # Example
//!
//! ```
//! use alisa_model::config::ModelConfig;
//! use alisa_model::init::InitSpec;
//! use alisa_model::transformer::TinyTransformer;
//!
//! let cfg = ModelConfig::tiny_2l();
//! let model = TinyTransformer::structured(cfg, InitSpec::default());
//! assert!(model.config().num_layers > 0);
//! ```

pub mod assoc;
pub mod config;
pub mod engine;
pub mod init;
pub mod transformer;

pub use config::{ModelConfig, ModelFamily};
pub use engine::{GenerationConfig, GenerationOutput, ScoreOutput};
pub use init::InitSpec;
pub use transformer::TinyTransformer;

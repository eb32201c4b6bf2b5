//! Memory-hierarchy and timing simulator for the ALISA reproduction.
//!
//! The paper's system evaluation (§VI) runs on single GPU–CPU machines:
//! V100-16/32GB or H100-80GB over a 20 GB/s CPU link. This crate models
//! that substrate analytically so the *scheduling algorithms* — which are
//! implemented for real in `alisa-sched` — can be executed step by step at
//! the paper's true model sizes without physical GPUs:
//!
//! * [`hardware`] — device specs and the paper's three testbed presets,
//! * [`mempool`] — byte-accurate GPU/CPU memory pools: usage per
//!   [`MemClass`], and an [`OomError`] naming the pool when an
//!   allocation does not fit,
//! * [`cost`] — analytic timing: roofline GEMM times with a small-GEMM
//!   utilization penalty (Figure 11), bandwidth-bound memory ops, and
//!   PCIe transfer times,
//! * [`timeline`] — per-step, per-component time and memory records used
//!   by every throughput/breakdown figure; peak memory is read from them.
//!
//! # Example
//!
//! ```
//! use alisa_memsim::{HardwareSpec, cost::CostModel};
//!
//! let hw = HardwareSpec::h100_80gb();
//! let cost = CostModel::new(&hw);
//! // One decoding-step projection GEMM: (1 x 4096) · (4096 x 4096)
//! let t = cost.gemm_time(1, 4096, 4096, 2);
//! assert!(t > 0.0 && t < 1e-3);
//! ```

pub mod cost;
pub mod hardware;
pub mod mempool;
pub mod timeline;

pub use cost::CostModel;
pub use hardware::{CpuSpec, GpuSpec, HardwareSpec, LinkSpec};
pub use mempool::{MemClass, MemPool, OomError};
pub use timeline::{StepRecord, Timeline};

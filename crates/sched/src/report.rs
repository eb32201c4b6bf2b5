//! Simulation outcomes and aggregate reports.

use alisa_memsim::Timeline;
use serde::{Deserialize, Serialize};

use crate::workload::Workload;

/// How a simulated run ended.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Outcome {
    /// The run finished all decoding steps.
    Completed,
    /// The run aborted with out-of-memory — the "OOM" bars of Figures 1
    /// and 9.
    Oom {
        /// Step at which the allocation failed (0 = during setup or
        /// prefill); the timeline holds the steps before it.
        at_step: usize,
        /// Which pool overflowed and by how much.
        detail: String,
    },
}

impl Outcome {
    /// Whether the run completed.
    pub fn is_completed(&self) -> bool {
        matches!(self, Outcome::Completed)
    }
}

/// Full record of one simulated inference run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// System name (e.g. `"ALISA"`, `"FlexGen"`).
    pub system: String,
    /// Model name (e.g. `"OPT-6.7B"`).
    pub model: String,
    /// The workload that was run.
    pub workload: Workload,
    /// Completion or OOM.
    pub outcome: Outcome,
    /// Per-step component times and memory usage.
    pub timeline: Timeline,
}

impl RunReport {
    /// End-to-end token throughput (tokens/s): generated tokens over
    /// total time, the paper's §VI-A metric. Zero for OOM runs.
    pub fn throughput(&self) -> f64 {
        if !self.outcome.is_completed() {
            return 0.0;
        }
        self.timeline.throughput(self.workload.generated_tokens())
    }

    /// Total wall-clock seconds (partial if OOM).
    pub fn total_time(&self) -> f64 {
        self.timeline.total_time()
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        match &self.outcome {
            Outcome::Completed => format!(
                "{:<12} {:<10} [{}] {:>8.1} tok/s  (compute {:.1}s, transfer {:.1}s, peak GPU {:.1} GiB)",
                self.system,
                self.model,
                self.workload,
                self.throughput(),
                self.timeline.total_compute_time(),
                self.timeline.total_transfer_time(),
                self.timeline.peak_gpu_mem() as f64 / (1u64 << 30) as f64,
            ),
            Outcome::Oom { at_step, detail } => format!(
                "{:<12} {:<10} [{}] OOM at step {} ({})",
                self.system, self.model, self.workload, at_step, detail
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alisa_memsim::StepRecord;

    #[test]
    fn oom_reports_zero_throughput() {
        let r = RunReport {
            system: "X".into(),
            model: "M".into(),
            workload: Workload::new(1, 1, 1),
            outcome: Outcome::Oom {
                at_step: 3,
                detail: "GPU".into(),
            },
            timeline: Timeline::new(),
        };
        assert_eq!(r.throughput(), 0.0);
        assert!(r.summary().contains("OOM at step 3"));
        assert!(!r.outcome.is_completed());
    }

    #[test]
    fn completed_run_computes_throughput() {
        let mut t = Timeline::new();
        t.push(StepRecord {
            step: 0,
            mha_time: 2.0,
            ..StepRecord::default()
        });
        let r = RunReport {
            system: "X".into(),
            model: "M".into(),
            workload: Workload::new(4, 8, 16), // 64 generated tokens
            outcome: Outcome::Completed,
            timeline: t,
        };
        assert!((r.throughput() - 32.0).abs() < 1e-9);
        assert!(r.summary().contains("tok/s"));
    }
}

//! SLO metrics and the serving report.
//!
//! The online counterpart of `alisa_sched::RunReport`: latency
//! percentiles (TTFT / TBT / E2E), goodput under an SLO, rejection
//! accounting, and queue-depth / KV-occupancy timelines. Reports are
//! plain data with a canonical text form ([`ServeReport::canonical_text`])
//! so determinism can be asserted byte-for-byte.

use alisa_kvcache::ReuseStats;
use alisa_obs::profile::{self, Phase};
use serde::{Deserialize, Serialize};

use crate::discipline::DisciplineStats;
use crate::request::{Request, RequestState};

/// Latency service-level objective a request must meet to count toward
/// goodput.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloSpec {
    /// Max acceptable time-to-first-token, seconds.
    pub ttft_s: f64,
    /// Max acceptable mean time-between-tokens, seconds.
    pub tbt_s: f64,
}

impl SloSpec {
    /// Whether a finished request met both targets.
    pub(crate) fn met_by(&self, r: &Request) -> bool {
        match (r.ttft(), r.mean_tbt()) {
            (Some(ttft), Some(tbt)) => ttft <= self.ttft_s && tbt <= self.tbt_s,
            _ => false,
        }
    }
}

/// Order statistics over one latency population (nearest-rank
/// percentiles). All fields are zero for an empty population.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Sample count.
    pub count: usize,
    /// Arithmetic mean, seconds.
    pub mean: f64,
    /// Median, seconds.
    pub p50: f64,
    /// 90th percentile, seconds.
    pub p90: f64,
    /// 99th percentile, seconds.
    pub p99: f64,
    /// Maximum, seconds.
    pub max: f64,
}

impl LatencyStats {
    /// Computes stats from unsorted samples.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        if samples.is_empty() {
            return LatencyStats {
                count: 0,
                mean: 0.0,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
                max: 0.0,
            };
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let pick = |p: f64| {
            let rank = ((p * count as f64).ceil() as usize).clamp(1, count);
            samples[rank - 1]
        };
        LatencyStats {
            count,
            mean,
            p50: pick(0.50),
            p90: pick(0.90),
            p99: pick(0.99),
            max: samples[count - 1],
        }
    }
}

/// One sampled point of the serving timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeSample {
    /// Simulation clock, seconds.
    pub t: f64,
    /// Requests waiting for admission.
    pub queue_depth: usize,
    /// Requests decoding (the continuous batch).
    pub running: usize,
    /// GPU bytes reserved for KV at this instant.
    pub kv_bytes: u64,
}

/// Aggregate outcome of one online serving simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Admission policy name.
    pub policy: String,
    /// Model name.
    pub model: String,
    /// Hardware description.
    pub hardware: String,
    /// Requests that arrived.
    pub arrived: usize,
    /// Requests admitted into the batch.
    pub admitted: usize,
    /// Requests rejected (infeasible or queue-timeout).
    pub rejected: usize,
    /// Requests that finished decoding.
    pub completed: usize,
    /// Requests meeting the SLO.
    pub slo_met: usize,
    /// Wall-clock span of the simulation, seconds.
    pub makespan_s: f64,
    /// Span over which load was offered (first to last arrival),
    /// seconds. Goodput is normalized to this window so that policies
    /// with equal SLO attainment under equal offered load score
    /// equally, independent of how long their backlog takes to drain.
    pub offered_window_s: f64,
    /// Time-to-first-token stats over completed requests.
    pub ttft: LatencyStats,
    /// Mean time-between-tokens stats over completed requests.
    pub tbt: LatencyStats,
    /// End-to-end latency stats over completed requests.
    pub e2e: LatencyStats,
    /// The SLO used for goodput accounting.
    pub slo: SloSpec,
    /// SLO-meeting requests per second of offered-load window.
    pub goodput_rps: f64,
    /// Fraction of *arrived* requests that met the SLO.
    pub slo_attainment: f64,
    /// Generated tokens per second of makespan.
    pub throughput_tps: f64,
    /// Mean decode-batch size over engine steps.
    pub mean_batch: f64,
    /// Deepest admission queue observed (exact, tracked every step —
    /// not derived from the decimated timeline).
    pub peak_queue_depth: usize,
    /// Highest KV reservation observed, bytes (exact, tracked every
    /// step).
    pub peak_kv_bytes: u64,
    /// Sampled queue/batch/KV timeline (decimated past 16384 samples;
    /// use the `peak_*` fields for exact extrema).
    pub timeline: Vec<ServeSample>,
    /// Session prefix-reuse counters — `Some` only when the engine ran
    /// with a retention budget, so legacy (no-retention) reports stay
    /// byte-identical to pre-session ones.
    pub reuse: Option<ReuseStats>,
    /// Queue-discipline counters (preemptions / preempted requests) —
    /// `Some` only when a non-FCFS [`crate::QueueDiscipline`] ran, so
    /// pre-discipline canonical reports stay byte-identical.
    pub discipline: Option<DisciplineStats>,
    /// Canonical dump of the run's `alisa_obs::MetricsRegistry` —
    /// `Some` only when the run was traced through an enabled sink
    /// ([`crate::ServeEngine::run_traced`]), so untraced reports stay
    /// byte-identical to pre-observability ones.
    pub metrics: Option<String>,
}

impl ServeReport {
    /// Builds the report from terminal request states.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_requests(
        policy: String,
        model: String,
        hardware: String,
        requests: &[&Request],
        slo: SloSpec,
        makespan_s: f64,
        mean_batch: f64,
        timeline: Vec<ServeSample>,
        peak_queue_depth: usize,
        peak_kv_bytes: u64,
        reuse: Option<ReuseStats>,
        discipline: Option<String>,
    ) -> Self {
        let _p = profile::timer(Phase::Report);
        let arrived = requests.len();
        // An admission only counts if it *stuck*: a request admitted
        // somewhere and later lost to a replica failure with no
        // survivor able to hold it terminates Rejected, and must count
        // on exactly one side of `admitted + rejected == arrived`. No
        // failure-free path rejects an admitted request (timeout scans
        // exempt preempted and first-token requests), so this filter
        // changes nothing outside failure injection.
        let admitted = requests
            .iter()
            .filter(|r| r.admitted_at.is_some() && r.state != RequestState::Rejected)
            .count();
        let rejected = requests
            .iter()
            .filter(|r| r.state == RequestState::Rejected)
            .count();
        let finished: Vec<&Request> = (requests.iter().copied())
            .filter(|r| r.state == RequestState::Finished)
            .collect();
        let slo_met = finished.iter().filter(|r| slo.met_by(r)).count();
        let ttft = LatencyStats::from_samples(finished.iter().filter_map(|r| r.ttft()).collect());
        let tbt =
            LatencyStats::from_samples(finished.iter().filter_map(|r| r.mean_tbt()).collect());
        let e2e = LatencyStats::from_samples(finished.iter().filter_map(|r| r.e2e()).collect());
        let generated: usize = requests.iter().map(|r| r.generated).sum();
        // Arrivals are validated non-negative, so the window runs from
        // simulation start (t = 0) to the last arrival. A trace whose
        // arrivals all land (near-)instantaneously — a burst replay —
        // has no meaningful offered window, so goodput falls back to
        // the makespan: requests served within SLO per second of
        // serving them.
        let offered_window_s = requests.iter().map(|r| r.arrival).fold(0.0f64, f64::max);
        let span = makespan_s.max(f64::MIN_POSITIVE);
        let window = if offered_window_s > makespan_s * 1e-3 {
            offered_window_s
        } else {
            span
        };
        // Preemption counters fall straight out of the terminal request
        // states, so engine and router cannot disagree with them.
        let discipline = discipline.map(|name| DisciplineStats {
            discipline: name,
            preemptions: requests.iter().map(|r| r.preemptions as u64).sum(),
            preempted_requests: requests.iter().filter(|r| r.preemptions > 0).count() as u64,
        });
        ServeReport {
            policy,
            model,
            hardware,
            arrived,
            admitted,
            rejected,
            completed: finished.len(),
            slo_met,
            makespan_s,
            offered_window_s,
            ttft,
            tbt,
            e2e,
            slo,
            goodput_rps: slo_met as f64 / window,
            slo_attainment: if arrived == 0 {
                0.0
            } else {
                slo_met as f64 / arrived as f64
            },
            throughput_tps: generated as f64 / span,
            mean_batch,
            peak_queue_depth,
            peak_kv_bytes,
            timeline,
            reuse,
            discipline,
            metrics: None,
        }
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<8} {:>4} arrived  {:>4} done  {:>4} rejected | goodput {:>6.2} req/s ({:>5.1}% SLO) | \
             ttft p50/p99 {:>6.3}/{:>6.3}s | tbt p99 {:>6.4}s | {:>7.1} tok/s | batch {:>5.1}",
            self.policy,
            self.arrived,
            self.completed,
            self.rejected,
            self.goodput_rps,
            100.0 * self.slo_attainment,
            self.ttft.p50,
            self.ttft.p99,
            self.tbt.p99,
            self.throughput_tps,
            self.mean_batch,
        )
    }

    /// Canonical, deterministic text dump of *every* field including
    /// the full timeline. Floats use Rust's shortest-round-trip
    /// formatting, so two reports are byte-identical iff equal.
    pub fn canonical_text(&self) -> String {
        let mut s = String::with_capacity(256 + 32 * self.timeline.len());
        s.push_str(&format!(
            "serve-report v1\npolicy {}\nmodel {}\nhardware {}\n",
            self.policy, self.model, self.hardware
        ));
        s.push_str(&format!(
            "counts arrived={} admitted={} rejected={} completed={} slo_met={}\n",
            self.arrived, self.admitted, self.rejected, self.completed, self.slo_met
        ));
        s.push_str(&format!(
            "slo ttft={} tbt={}\nmakespan {}\nwindow {}\ngoodput {}\nattainment {}\nthroughput {}\nmean_batch {}\n",
            self.slo.ttft_s,
            self.slo.tbt_s,
            self.makespan_s,
            self.offered_window_s,
            self.goodput_rps,
            self.slo_attainment,
            self.throughput_tps,
            self.mean_batch,
        ));
        for (name, l) in [("ttft", &self.ttft), ("tbt", &self.tbt), ("e2e", &self.e2e)] {
            s.push_str(&format!(
                "{name} count={} mean={} p50={} p90={} p99={} max={}\n",
                l.count, l.mean, l.p50, l.p90, l.p99, l.max
            ));
        }
        s.push_str(&format!(
            "peaks queue={} kv={}\n",
            self.peak_queue_depth, self.peak_kv_bytes,
        ));
        // Emitted only for retention-enabled runs: legacy reports must
        // stay byte-identical to the pre-session golden fixtures.
        if let Some(r) = &self.reuse {
            s.push_str(&format!(
                "reuse hits={} misses={} reused_tokens={} evictions={} retained={} peak_retained={}\n",
                r.hits, r.misses, r.reused_tokens, r.evictions, r.retained, r.peak_retained_bytes
            ));
        }
        // Likewise emitted only for non-FCFS disciplines: pre-split
        // golden fixtures never see this line.
        if let Some(d) = &self.discipline {
            s.push_str(&format!(
                "discipline {} preemptions={} preempted={}\n",
                d.discipline, d.preemptions, d.preempted_requests
            ));
        }
        // Emitted only for traced runs (an enabled `TraceSink`):
        // untraced reports stay byte-identical to pre-observability
        // fixtures.
        if let Some(m) = &self.metrics {
            s.push_str(&format!("metrics {}\n", m.lines().count()));
            s.push_str(m);
        }
        s.push_str(&format!("timeline {}\n", self.timeline.len()));
        for p in &self.timeline {
            s.push_str(&format!(
                "{} {} {} {}\n",
                p.t, p.queue_depth, p.running, p.kv_bytes
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let l = LatencyStats::from_samples((1..=100).map(|i| i as f64).collect());
        assert_eq!(l.count, 100);
        assert_eq!(l.p50, 50.0);
        assert_eq!(l.p90, 90.0);
        assert_eq!(l.p99, 99.0);
        assert_eq!(l.max, 100.0);
        assert!((l.mean - 50.5).abs() < 1e-12);
    }

    #[test]
    fn empty_population_is_zeroed() {
        let l = LatencyStats::from_samples(vec![]);
        assert_eq!(l.count, 0);
        assert_eq!(l.p99, 0.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let l = LatencyStats::from_samples(vec![3.5]);
        assert_eq!((l.p50, l.p90, l.p99, l.max), (3.5, 3.5, 3.5, 3.5));
    }

    #[test]
    fn slo_requires_both_targets() {
        let slo = SloSpec {
            ttft_s: 1.0,
            tbt_s: 0.1,
        };
        let mut r = Request::from_entry(&crate::trace::TraceEntry::single_shot(0.0, 8, 11));
        r.state = RequestState::Finished;
        r.admitted_at = Some(0.1);
        r.first_token_at = Some(0.5);
        r.finished_at = Some(1.5);
        r.generated = 11;
        assert!(slo.met_by(&r)); // ttft 0.5, tbt 0.1
        r.first_token_at = Some(1.2);
        assert!(!slo.met_by(&r), "ttft 1.2 breaks the SLO");
        r.first_token_at = Some(0.2);
        r.finished_at = Some(3.0);
        assert!(!slo.met_by(&r), "tbt 0.28 breaks the SLO");
    }
}

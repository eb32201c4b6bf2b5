//! Counters and histograms with a canonical, byte-stable text dump.
//!
//! A [`MetricsRegistry`] can be fed live (the engines call
//! [`MetricsRegistry::record`] alongside each sink emission) or
//! derived after the fact from a collected event stream with
//! [`MetricsRegistry::from_events`] — both paths produce identical
//! registries, which the integration tests assert.
//!
//! The canonical dump uses `BTreeMap` ordering and shortest
//! round-trip float formatting, so equal registries always serialize
//! to identical bytes — the property that lets the dump join
//! `ServeReport`'s canonical text as an opt-in section.

use crate::event::{Event, EventKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A log₂-bucketed histogram of `f64` observations.
///
/// Buckets are indexed by `floor(log2(value))`; zero and negative
/// observations land in a reserved floor bucket. This keeps the dump
/// compact and deterministic while still answering "where does the
/// mass live" at a glance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    buckets: BTreeMap<i32, u64>,
}

/// The floor bucket index for zero / negative / subnormal values.
const FLOOR_BUCKET: i32 = i32::MIN;

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        let idx = if value > 0.0 && value.is_finite() {
            value.log2().floor() as i32
        } else {
            FLOOR_BUCKET
        };
        *self.buckets.entry(idx).or_insert(0) += 1;
    }
}

/// A named collection of counters and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a registry from a collected event stream. Produces the
    /// same registry as calling [`MetricsRegistry::record`] live on
    /// each event.
    pub fn from_events(events: &[Event]) -> Self {
        let mut reg = Self::new();
        for e in events {
            reg.record(e);
        }
        reg
    }

    /// Increments a counter by `by`.
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Records one observation into a named histogram.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.hists
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Reads a counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Applies the standard event → metric mapping for one event.
    pub fn record(&mut self, event: &Event) {
        match &event.kind {
            EventKind::Arrival { .. } => self.inc("arrived", 1),
            EventKind::Admitted { queue_wait_s, .. } => {
                self.inc("admitted", 1);
                self.observe("queue_wait_s", *queue_wait_s);
            }
            EventKind::Rejected {
                reason,
                queue_wait_s,
                ..
            } => {
                self.inc("rejected", 1);
                self.inc(&format!("rejected_{}", reason.replace('-', "_")), 1);
                self.observe("queue_wait_s", *queue_wait_s);
            }
            EventKind::Preempted { .. } => self.inc("preemptions", 1),
            EventKind::RetentionHit { reused_tokens, .. } => {
                self.inc("retention_hits", 1);
                self.inc("reused_tokens", *reused_tokens as u64);
            }
            EventKind::RetentionMiss { .. } => self.inc("retention_misses", 1),
            EventKind::RetentionStore { .. } => self.inc("retention_stores", 1),
            EventKind::RetentionEvict { .. } => self.inc("retention_evictions", 1),
            EventKind::Step {
                dur_s,
                prefills,
                decodes,
                ..
            } => {
                self.inc("steps", 1);
                self.observe("step_time_s", *dur_s);
                self.observe("batch", (*prefills + *decodes) as f64);
            }
            EventKind::Finished { e2e_s, .. } => {
                self.inc("finished", 1);
                self.observe("e2e_s", *e2e_s);
            }
            EventKind::Dispatch { .. } => self.inc("dispatches", 1),
            EventKind::Requeue { .. } => self.inc("requeues", 1),
            EventKind::Handoff { .. } => self.inc("handoffs", 1),
            EventKind::ReplicaUp { .. } => self.inc("replica_ups", 1),
            EventKind::ReplicaDrained { .. } => self.inc("replica_drains", 1),
            EventKind::ReplicaFailed { .. } => self.inc("replica_failures", 1),
            EventKind::SessionRecovered { rebuilt_tokens, .. } => {
                self.inc("sessions_recovered", 1);
                self.inc("rebuilt_tokens", *rebuilt_tokens as u64);
            }
        }
    }

    /// The canonical, byte-stable text dump.
    ///
    /// One line per metric, `BTreeMap` order, counters first:
    ///
    /// ```text
    /// counter admitted 42
    /// hist queue_wait_s count=42 sum=3.5 min=0 max=0.5 buckets=floor:3,-4:12,-3:27
    /// ```
    pub fn canonical_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter {name} {v}");
        }
        for (name, h) in &self.hists {
            let _ = write!(
                out,
                "hist {name} count={} sum={} min={} max={} buckets=",
                h.count, h.sum, h.min, h.max
            );
            for (i, (idx, n)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if *idx == FLOOR_BUCKET {
                    let _ = write!(out, "floor:{n}");
                } else {
                    let _ = write!(out, "{idx}:{n}");
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let mut h = Histogram::default();
        for v in [0.5, 2.0, 0.25, 8.0] {
            h.observe(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 10.75);
        assert_eq!(h.min, 0.25);
        assert_eq!(h.max, 8.0);
    }

    #[test]
    fn zero_and_negative_land_in_floor_bucket() {
        let mut h = Histogram::default();
        h.observe(0.0);
        h.observe(-1.0);
        h.observe(1.0);
        assert_eq!(h.buckets.get(&FLOOR_BUCKET), Some(&2));
        assert_eq!(h.buckets.get(&0), Some(&1));
    }

    /// Pins the dump byte for byte: counters before histograms, names in
    /// order, and floats in their shortest round-trip form (`0`, `3`).
    #[test]
    fn canonical_text_round_trips() {
        let mut reg = MetricsRegistry::new();
        reg.inc("arrived", 7);
        reg.inc("admitted", 5);
        reg.observe("queue_wait_s", 0.0);
        reg.observe("queue_wait_s", 0.125);
        reg.observe("queue_wait_s", 3.0);
        assert_eq!(
            reg.canonical_text(),
            "counter admitted 5\n\
             counter arrived 7\n\
             hist queue_wait_s count=3 sum=3.125 min=0 max=3 buckets=floor:1,-3:1,1:1\n"
        );
    }
}

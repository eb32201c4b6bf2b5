//! The measurement loop every workload shares.
//!
//! 1. Set-up runs `SETUPS` times, each from scratch after the previous
//!    one is dropped; `setup_s` is the median, so a set-up of a few
//!    milliseconds still reads steadily.
//! 2. One untimed warm-up pass. Passes are timed warm: a cold first
//!    pass also pays the process's first page faults and lazy
//!    initialisation, a one-time cost that set-up time already carries.
//! 3. Timed passes until `--seconds` have passed (at least
//!    `MIN_PASSES`); `wall_s` and every throughput use the median pass.
//! 4. Every pass is checked and hashed outside the timed interval: a
//!    panic, a broken invariant or a digest that differs from the first
//!    pass's fails the pass.
//! 5. An untimed counting pass yields the exact work counts the
//!    throughputs divide.
//!
//! Every set-up and pass is followed by a run of the reference kernel,
//! and each is stated at the kernel's nominal host speed by the kernel
//! runs on either side of it (see `reference`). The unscaled medians are
//! printed next to the result.
//!
//! With `--trace 1`, the seconds are split between passes with the
//! profiler off and passes with the `alisa_obs::profile` phases on,
//! spans are recorded throughout, and the per-layer metrics are printed
//! instead.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use alisa_obs::profile::{self, Phase, ProfileReport};

use crate::cli::Args;
use crate::host::{self, SchedStat};
use crate::metrics::{self, MetricDef, END_TO_END, PER_LAYER};
use crate::reference::Reference;
use crate::spans::Spans;

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Timed passes per run, at least.
const MIN_PASSES: usize = 5;

/// `Full` is what the benchmark measures; `Small` is the reduced size
/// the self-tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Small,
}

/// Wall time of the two named parts of a pass, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Parts {
    pub sched_s: f64,
    pub gen_s: f64,
}

/// Exact counts of the work one pass does. They repeat for a seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    pub requests: u64,
    pub steps: u64,
    pub sched_tokens: u64,
    pub gen_tokens: u64,
}

/// The verdict on one pass's output.
pub struct Checked {
    pub digest: u64,
    pub violations: Vec<String>,
}

pub trait Workload: Sized {
    type Output;
    /// Set-ups per run.
    const SETUPS: usize;

    /// Generates the inputs from `seed` and builds the objects under test.
    fn setup(seed: u64, size: Size, spans: &mut Spans) -> Self;

    /// One pass of calls into the program. Returns the output and, when
    /// the pass has separately timed parts, their times (otherwise both
    /// parts are the whole pass).
    fn pass(&self, spans: &mut Spans) -> (Self::Output, Option<Parts>);

    /// Checks and hashes one pass's output.
    fn check(&self, out: Self::Output) -> Checked;

    /// An untimed pass that counts the work (and records the simulated
    /// outcomes into `values`).
    fn count(&self, values: &mut Values) -> Result<Work, String>;
}

/// What one run measured.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub setups: usize,
    pub passes: usize,
    /// Unscaled medians: set-up time, pass wall time, kernel time.
    pub setup_raw_s: f64,
    pub wall_raw_s: f64,
    pub kernel_s: f64,
    /// Quartiles of the timed passes' wall time, unscaled and scaled.
    pub pass_quartiles: [[f64; 3]; 2],
    pub notes: Vec<String>,
    pub host: SchedStat,
    pub metrics: Vec<(&'static MetricDef, f64)>,
    pub spans: Spans,
}

impl Report {
    pub fn result_line(&self) -> String {
        metrics::result_json(self.correct, self.attempted, self.failed, &self.metrics)
    }
}

struct Timed {
    id: u32,
    /// Unscaled wall time of the pass.
    wall_s: f64,
    parts: Option<Parts>,
    profile: Option<ProfileReport>,
    /// The reference kernel's factor for this pass.
    scale: f64,
}

impl Timed {
    fn scaled(&self) -> f64 {
        self.wall_s * self.scale
    }

    fn part(&self, f: fn(&Parts) -> f64) -> f64 {
        self.parts.as_ref().map_or(self.wall_s, f) * self.scale
    }
}

#[derive(Default)]
struct Checker {
    attempted: u64,
    failed: u64,
    first: Option<u64>,
    notes: Vec<String>,
}

impl Checker {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        self.notes.push(note);
    }

    /// Runs, times and checks one pass.
    fn pass<W: Workload>(
        &mut self,
        w: &W,
        spans: &mut Spans,
        kind: &'static str,
        profiled: bool,
    ) -> Option<Timed> {
        self.attempted += 1;
        let id = spans.begin(kind);
        if profiled {
            profile::reset();
            profile::set_enabled(true);
        }
        let t0 = Instant::now();
        let ran = catch_unwind(AssertUnwindSafe(|| spans.time("pass", |s| w.pass(s))));
        let wall_s = t0.elapsed().as_secs_f64();
        let profile = profiled.then(|| {
            profile::set_enabled(false);
            ProfileReport::capture((wall_s * 1e9) as u64)
        });
        let Ok((out, parts)) = ran else {
            spans.close_open();
            self.fail(format!("pass {id} panicked"));
            return None;
        };
        let Ok(checked) = catch_unwind(AssertUnwindSafe(|| w.check(out))) else {
            self.fail(format!("checking pass {id} panicked"));
            return None;
        };
        if !checked.violations.is_empty() {
            self.fail(format!("pass {id}: {}", checked.violations.join("; ")));
            return None;
        }
        match self.first {
            None => self.first = Some(checked.digest),
            Some(first) if first != checked.digest => {
                self.fail(format!(
                    "pass {id}: digest {:016x} differs from the first pass's {first:016x}",
                    checked.digest
                ));
                return None;
            }
            Some(_) => {}
        }
        Some(Timed {
            id,
            wall_s,
            parts,
            profile,
            scale: 1.0,
        })
    }

    /// Passes until `budget` has elapsed, and at least `MIN_PASSES`.
    fn passes<W: Workload>(
        &mut self,
        w: &W,
        spans: &mut Spans,
        reference: &mut Reference,
        budget: Duration,
        kind: &'static str,
        profiled: bool,
    ) -> Vec<Timed> {
        let start = Instant::now();
        let mut timed = Vec::new();
        let mut tries = 0;
        while tries < MIN_PASSES || start.elapsed() < budget {
            tries += 1;
            let pass = self.pass(w, spans, kind, profiled);
            let scale = reference.scale_after();
            timed.extend(pass.map(|t| Timed { scale, ..t }));
        }
        timed
    }
}

pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile (of the lower and upper
/// halves).
fn quartiles(values: impl IntoIterator<Item = f64>) -> [f64; 3] {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    let half = v.len() / 2;
    [
        median(v[..half].iter().copied()),
        median(v.iter().copied()),
        median(v[v.len() - half..].iter().copied()),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs workload `W` as `args` asks.
pub fn run<W: Workload>(args: &Args, size: Size) -> Result<Report, String> {
    let mut spans = Spans::new(args.trace);
    let mut values = Values::new();
    let mut reference = Reference::new();

    // (unscaled, scaled) time of each set-up.
    let mut setup_s = Vec::with_capacity(W::SETUPS);
    let mut built = None;
    for _ in 0..W::SETUPS {
        drop(built.take());
        spans.begin("setup");
        let t0 = Instant::now();
        built = Some(spans.time("setup", |s| W::setup(args.seed, size, s)));
        let raw = t0.elapsed().as_secs_f64();
        setup_s.push((raw, raw * reference.scale_after()));
    }
    let w = built.ok_or("a workload needs at least one set-up")?;

    let mut checker = Checker::default();
    checker.pass(&w, &mut spans, "warmup", false);
    reference.scale_after();
    let budget = Duration::from_secs_f64(args.seconds);
    let plain_budget = if args.trace { budget / 2 } else { budget };
    let before = SchedStat::now()?;
    let timed = checker.passes(&w, &mut spans, &mut reference, plain_budget, "timed", false);
    let host = SchedStat::now()?.since(before);
    let peak_rss_mb = host::peak_rss_mb()?;
    let profiled = if args.trace {
        checker.passes(&w, &mut spans, &mut reference, budget / 2, "profiled", true)
    } else {
        Vec::new()
    };
    checker.attempted += 1;
    let work = w.count(&mut values).unwrap_or_else(|e| {
        checker.fail(format!("counting pass: {e}"));
        Work::default()
    });
    if timed.is_empty() {
        checker.fail("no timed pass succeeded".to_string());
    }

    let wall_s = median(timed.iter().map(Timed::scaled));
    let part = |f: fn(&Parts) -> f64| median(timed.iter().map(|t| t.part(f)));
    values.insert("setup_s", median(setup_s.iter().map(|s| s.1)));
    values.insert("wall_s", wall_s);
    values.insert("peak_rss_mb", peak_rss_mb);
    values.insert("sim_req_per_s", ratio(work.requests as f64, wall_s));
    values.insert("replica_steps_per_s", ratio(work.steps as f64, wall_s));
    values.insert(
        "sched_tokens_per_s",
        ratio(work.sched_tokens as f64, part(|p| p.sched_s)),
    );
    values.insert(
        "gen_tokens_per_s",
        ratio(work.gen_tokens as f64, part(|p| p.gen_s)),
    );
    if args.trace {
        per_layer(&mut values, &spans, &timed, &profiled, host);
    }

    let defs: &'static [MetricDef] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut correct = checker.failed == 0;
    let metrics = defs
        .iter()
        .map(|def| {
            let value = values.get(def.name).copied().unwrap_or(0.0);
            // An end-to-end metric is never 0 or non-finite on a good run.
            if !value.is_finite() || (!args.trace && value <= 0.0) {
                correct = false;
            }
            (def, if value.is_finite() { value } else { 0.0 })
        })
        .collect();
    Ok(Report {
        correct,
        attempted: checker.attempted,
        failed: checker.failed,
        digest: checker.first.unwrap_or(0),
        setups: setup_s.len(),
        passes: timed.len() + profiled.len(),
        setup_raw_s: median(setup_s.iter().map(|s| s.0)),
        wall_raw_s: median(timed.iter().map(|t| t.wall_s)),
        pass_quartiles: [
            quartiles(timed.iter().map(|t| t.wall_s)),
            quartiles(timed.iter().map(Timed::scaled)),
        ],
        kernel_s: reference.median_s(),
        notes: checker.notes,
        host,
        metrics,
        spans,
    })
}

/// Span totals reported per layer: `(span, metric, pass kind)`.
const SPAN_METRICS: [(&str, &str, &str); 9] = [
    ("workloads.trace_gen", "workloads.trace_gen_s", "setup"),
    ("router.build", "router.build_s", "setup"),
    ("engine.build", "engine.build_s", "setup"),
    ("model.init", "model.init_s", "setup"),
    ("router.run", "router.run_s", "timed"),
    ("engine.run", "engine.run_s", "timed"),
    ("sched.plan_search", "sched.plan_search_s", "timed"),
    ("model.teacher_gen", "model.teacher_gen_s", "timed"),
    ("model.swa_score", "model.swa_score_s", "timed"),
];

/// Profiler phases reported per layer: `(phase, ns metric, calls metric)`.
const PHASE_METRICS: [(Phase, &str, &str); 7] = [
    (
        Phase::Dispatch,
        "router.dispatch_ns",
        "router.dispatch_calls",
    ),
    (
        Phase::EventScan,
        "engine.event_scan_ns",
        "engine.event_scan_calls",
    ),
    (
        Phase::Discipline,
        "engine.discipline_ns",
        "engine.discipline_calls",
    ),
    (Phase::Pricing, "engine.pricing_ns", "engine.pricing_calls"),
    (
        Phase::Accounting,
        "engine.accounting_ns",
        "engine.accounting_calls",
    ),
    (Phase::Report, "engine.report_ns", "engine.report_calls"),
    (Phase::TopK, "sched.topk_ns", "sched.topk_calls"),
];

fn per_layer(
    values: &mut Values,
    spans: &Spans,
    timed: &[Timed],
    profiled: &[Timed],
    host: SchedStat,
) {
    for (span, metric, kind) in SPAN_METRICS {
        let ids = if kind == "timed" {
            timed.iter().map(|t| t.id).collect()
        } else {
            spans.passes(kind)
        };
        values.insert(
            metric,
            median(ids.iter().map(|&id| spans.total_s(id, span))),
        );
    }
    let reports: Vec<&ProfileReport> = profiled.iter().filter_map(|t| t.profile.as_ref()).collect();
    for (phase, ns, calls) in PHASE_METRICS {
        let of = |r: &ProfileReport| {
            r.phases
                .iter()
                .find(|(p, _, _)| *p == phase)
                .map_or((0, 0), |&(_, ns, calls)| (ns, calls))
        };
        values.insert(ns, median(reports.iter().map(|r| of(r).0 as f64)));
        values.insert(calls, reports.last().map_or(0.0, |r| of(r).1 as f64));
    }
    let get = |values: &Values, name| values.get(name).copied().unwrap_or(0.0);
    let run_s = get(values, "router.run_s") + get(values, "engine.run_s");
    let steps = get(values, "engine.steps");
    values.insert("engine.ns_per_step", ratio(run_s * 1e9, steps));
    let sched_s = median(timed.iter().filter_map(|t| t.parts.map(|p| p.sched_s)));
    let decode_steps = get(values, "sched.decode_steps");
    values.insert(
        "sched.ns_per_decode_step",
        ratio(sched_s * 1e9, decode_steps),
    );
    // The share of the router's run that no profiler phase covers (the
    // lockstep sweeps among it), measured within each profiled pass.
    if get(values, "router.run_s") > 0.0 {
        let unattributed = profiled.iter().filter_map(|t| {
            let r = t.profile.as_ref()?;
            let run_ns = spans.total_s(t.id, "router.run") * 1e9;
            Some(1.0 - ratio(r.bucket_ns() as f64, run_ns))
        });
        values.insert("router.unattributed_frac", median(unattributed));
    }
    values.insert(
        "obs.profile_coverage",
        median(reports.iter().map(|r| r.coverage())),
    );
    values.insert(
        "bench.trace_overhead",
        ratio(
            median(profiled.iter().map(Timed::scaled)),
            median(timed.iter().map(Timed::scaled)),
        ),
    );
    values.insert("host.oncpu_s", host.oncpu_s);
    values.insert("host.runq_wait_s", host.runq_wait_s);
}

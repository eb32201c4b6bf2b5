//! Self-tests of the harness: well-formed metric names, the metric
//! lists in `BENCHMARK.json`, digests that repeat, the result line, and
//! span nesting. The workloads run at their reduced size.

use std::collections::HashSet;

use alisa_obs::json::{self, Json};

use crate::cli::Args;
use crate::harness::{Report, Size, Workload};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::workloads::{EngineChat, Fleet512, Name, OfflineSwa};

fn made_of(s: &str, extra: &str) -> bool {
    s.chars()
        .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

#[test]
fn metric_names_and_units_are_well_formed() {
    let mut seen = HashSet::new();
    for def in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            def.name.len() <= 64
                && def.name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && made_of(def.name, "_.-"),
            "bad metric name `{}`",
            def.name
        );
        assert!(seen.insert(def.name), "`{}` listed twice", def.name);
        assert!(
            !def.unit.is_empty() && def.unit.len() <= 16 && made_of(def.unit, "_/%.-"),
            "bad unit `{}`",
            def.unit
        );
        assert!(matches!(def.better, "higher" | "lower"));
    }
}

#[test]
fn benchmark_json_lists_the_workloads_and_metrics_printed() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits next to perfbench/");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect(key).to_vec();
    let workloads: Vec<String> = list("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, Name::ALL.map(Name::as_str));
    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = list(key);
        assert_eq!(listed.len(), defs.len(), "{key}");
        for (item, def) in listed.iter().zip(defs) {
            assert_eq!(item.get("name").and_then(Json::as_str), Some(def.name));
            assert_eq!(item.get("unit").and_then(Json::as_str), Some(def.unit));
            assert_eq!(item.get("better").and_then(Json::as_str), Some(def.better));
        }
    }
}

/// Two passes of one set-up, and a pass of a second set-up from the same
/// seed, give one digest; another seed gives another.
fn digests_repeat<W: Workload>() {
    let mut spans = Spans::new(false);
    let mut digest = |w: &W| {
        let (out, _) = w.pass(&mut spans);
        let checked = w.check(out);
        assert!(checked.violations.is_empty(), "{:?}", checked.violations);
        checked.digest
    };
    let first = W::setup(5, Size::Small, &mut Spans::new(false));
    let again = W::setup(5, Size::Small, &mut Spans::new(false));
    let other = W::setup(6, Size::Small, &mut Spans::new(false));
    let d = digest(&first);
    assert_eq!(d, digest(&first), "second pass");
    assert_eq!(d, digest(&again), "second set-up");
    assert_ne!(d, digest(&other), "another seed must give other inputs");
}

#[test]
fn fleet_512_digests_repeat() {
    digests_repeat::<Fleet512>();
}

#[test]
fn engine_chat_digests_repeat() {
    digests_repeat::<EngineChat>();
}

#[test]
fn offline_swa_digests_repeat() {
    digests_repeat::<OfflineSwa>();
}

fn small_run(workload: Name, trace: bool) -> Report {
    let args = Args {
        workload,
        seed: 3,
        seconds: 0.001,
        trace,
    };
    crate::run(&args, Size::Small).expect("a small run completes")
}

#[test]
fn every_end_to_end_metric_is_printed_with_a_unit() {
    for name in Name::ALL {
        let report = small_run(name, false);
        let line = json::parse(&report.result_line()).expect("the result line is JSON");
        let Json::Obj(fields) = &line else {
            panic!("the result line is an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.get("correct"),
            Some(&Json::Bool(true)),
            "{}: {:?}",
            name.as_str(),
            report.notes
        );
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
        let metrics = line.get("metrics").expect("metrics");
        let Json::Obj(printed) = metrics else {
            panic!("metrics is an object")
        };
        assert_eq!(printed.len(), END_TO_END.len());
        for def in &END_TO_END {
            let m = metrics.get(def.name).expect(def.name);
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit));
            let value = m.get("value").and_then(Json::as_f64).expect("value");
            assert!(value > 0.0, "{} {} = {value}", name.as_str(), def.name);
        }
    }
}

#[test]
fn traced_spans_nest_inside_their_parent() {
    for name in Name::ALL {
        let report = small_run(name, true);
        let line = json::parse(&report.result_line()).expect("the result line is JSON");
        let metrics = line.get("metrics").expect("metrics");
        for def in &PER_LAYER {
            assert!(metrics.get(def.name).is_some(), "{} missing", def.name);
        }
        let spans = report.spans.spans();
        assert!(
            spans.iter().any(|s| s.parent.is_some()),
            "{}",
            name.as_str()
        );
        for s in spans {
            assert!(s.start_ns <= s.end_ns);
            if let Some(p) = s.parent {
                let parent = &spans[p];
                assert!(
                    parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                    "{} [{}, {}] escapes {} [{}, {}]",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    parent.name,
                    parent.start_ns,
                    parent.end_ns
                );
                assert_eq!(parent.pass, s.pass, "a span shares its parent's pass");
            }
        }
    }
}

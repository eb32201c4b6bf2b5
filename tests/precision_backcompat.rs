//! Back-compat gate for the mixed-precision refactor: the per-region
//! [`PrecisionPolicy`] replaced the old `compression: bool` in every
//! pricing path, and the two legacy operating points must reproduce the
//! pre-refactor results *byte for byte*.
//!
//! The fixtures under `tests/golden/` are canonical report dumps
//! generated by the pre-refactor code (boolean-flag pricing) on the
//! exact traces re-generated here. FP16-everywhere must equal the old
//! `compression: false` run, [`PrecisionPolicy::int8`] the old
//! `compression: true` run — for the single engine and for a
//! disaggregated fleet (which additionally pins the handoff pricing).

use alisa::{KvPrecision, PrecisionPolicy};
use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_serve::{
    AdmissionPolicy, ArrivalProcess, Router, RouterConfig, ServeConfig, ServeEngine, Trace,
};
use alisa_workloads::LengthModel;

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing fixture {path}: {e}"))
}

fn trace(seed: u64) -> Trace {
    Trace::generate(
        &ArrivalProcess::Poisson { rate: 6.0 },
        &LengthModel::alpaca().with_max_output(48),
        50,
        seed,
    )
}

fn serve_config(precision: PrecisionPolicy) -> ServeConfig {
    ServeConfig::new(
        ModelConfig::opt_6_7b(),
        HardwareSpec::v100_16gb(),
        AdmissionPolicy::Alisa {
            sparsity: 0.8,
            precision,
        },
    )
}

#[test]
fn fp16_everywhere_reproduces_legacy_uncompressed_reports() {
    for seed in [7u64, 42] {
        let report = ServeEngine::new(serve_config(PrecisionPolicy::fp16())).run(&trace(seed));
        assert_eq!(
            report.canonical_text(),
            golden(&format!("serve_fp16_seed{seed}.txt")),
            "FP16-everywhere diverged from the pre-refactor compression:false run (seed {seed})"
        );
    }
}

#[test]
fn uniform_int8_reproduces_legacy_compressed_reports() {
    for seed in [7u64, 42] {
        let report = ServeEngine::new(serve_config(PrecisionPolicy::int8())).run(&trace(seed));
        assert_eq!(
            report.canonical_text(),
            golden(&format!("serve_int8_seed{seed}.txt")),
            "INT8 policy diverged from the pre-refactor compression:true run (seed {seed})"
        );
    }
}

#[test]
fn disaggregated_fleet_reproduces_legacy_handoff_pricing() {
    for seed in [7u64, 42] {
        let cfg = serve_config(PrecisionPolicy::int8());
        let router = Router::new(RouterConfig::homogeneous(cfg, 3).with_disagg(1));
        let report = router.run(&trace(seed));
        assert_eq!(
            report.canonical_text(),
            golden(&format!("router_int8_disagg_seed{seed}.txt")),
            "disaggregated INT8 fleet diverged from the pre-refactor run (seed {seed})"
        );
    }
}

#[test]
fn legacy_bool_constructors_map_to_golden_policies() {
    // The convenience constructors must keep pointing at the legacy
    // operating points the goldens pin.
    assert_eq!(
        AdmissionPolicy::alisa(),
        AdmissionPolicy::Alisa {
            sparsity: 0.8,
            precision: PrecisionPolicy::int8(),
        }
    );
    assert_eq!(PrecisionPolicy::from_legacy_compression(false), {
        PrecisionPolicy::fp16()
    });
    assert_eq!(
        PrecisionPolicy::int8().handoff,
        KvPrecision::Fp16,
        "the legacy compressed path never repriced handoffs"
    );
}

#[test]
fn mixed_precision_changes_results_where_it_should() {
    // Sanity that the goldens have teeth: a genuinely different policy
    // must NOT reproduce them (otherwise the fixtures test nothing).
    let report = ServeEngine::new(serve_config(PrecisionPolicy::mixed())).run(&trace(42));
    assert_ne!(report.canonical_text(), golden("serve_int8_seed42.txt"));
    assert_ne!(report.canonical_text(), golden("serve_fp16_seed42.txt"));
}

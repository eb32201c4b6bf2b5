//! Mixed-precision KV walkthrough: price each cache-state region at its
//! own bit width and watch where the bytes (and the goodput) go.
//!
//! The paper's §V-B switch is all-or-nothing: INT8 for every offloaded
//! token or FP16 for everything. A [`PrecisionPolicy`] splits the KV
//! that leaves the FP16 GPU hot window into regions — CPU-resident
//! sparse remainder (warm share + cold tail) and in-flight replica
//! handoffs — and assigns each its own precision. This example walks
//! the axis:
//!
//! 1. byte accounting per region for one decode-heavy request,
//! 2. a single-GPU serving comparison at a saturating arrival rate,
//! 3. a disaggregated 3-replica fleet where quantized handoffs shrink
//!    the prefill→decode transfer.
//!
//! ```sh
//! cargo run --release --example mixed_precision_serving
//! ```

use alisa::{KvPrecision, PrecisionPolicy};
use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_serve::{
    AdmissionPolicy, ArrivalProcess, Router, RouterConfig, ServeConfig, ServeEngine, Trace,
};
use alisa_workloads::LengthModel;

fn main() {
    let model = ModelConfig::opt_6_7b();
    let hw = HardwareSpec::v100_16gb();
    let lengths = LengthModel::alpaca();
    let seed = 2026;

    let configs: [(&str, PrecisionPolicy); 4] = [
        ("fp16-everywhere", PrecisionPolicy::fp16()),
        ("flat-int8 (paper SS V-B)", PrecisionPolicy::int8()),
        ("mixed (int4 cold tail)", PrecisionPolicy::mixed()),
        (
            "aggressive (int4 offload)",
            PrecisionPolicy::int8()
                .with_cpu(KvPrecision::Int4)
                .with_cold_tail(0.5, KvPrecision::Int4)
                .with_handoff(KvPrecision::Int4),
        ),
    ];

    // ---- 1. Where do one request's KV bytes go?
    println!("== per-region bytes for one 640-token request (80% sparsity) ==");
    let fp16_set = AdmissionPolicy::alisa().gpu_kv_bytes(&model, 640);
    println!("working set at FP16: {:.1} MiB", mib(fp16_set));
    for (name, p) in &configs {
        println!(
            "  {name:<26} gpu {:>7.1} MiB | offloaded/link {:>6.1} MiB | handoff {:>6.1} MiB",
            mib(fp16_set),
            mib(p.cpu_bytes(fp16_set)),
            mib(p.handoff_bytes(fp16_set)),
        );
    }

    // ---- 2. Single GPU under a saturating Poisson load.
    println!("\n== single V100, poisson @ 8 req/s, 120 requests ==");
    let trace = Trace::generate(&ArrivalProcess::Poisson { rate: 8.0 }, &lengths, 120, seed);
    for (name, p) in &configs {
        let policy = AdmissionPolicy::alisa_with(*p);
        let cfg = ServeConfig::new(model.clone(), hw.clone(), policy);
        let r = ServeEngine::new(cfg).run(&trace);
        println!(
            "  {name:<26} goodput {:>6.3} r/s | slo {:>5.1}% | p99 ttft {:>6.2}s",
            r.goodput_rps,
            100.0 * r.slo_attainment,
            r.ttft.p99
        );
    }

    // ---- 3. Disaggregated fleet: the handoff precision now matters.
    println!("\n== 1 prefill + 2 decode replicas, poisson @ 6 req/s ==");
    let trace = Trace::generate(&ArrivalProcess::Poisson { rate: 6.0 }, &lengths, 90, seed);
    for (name, p) in &configs {
        let policy = AdmissionPolicy::alisa_with(*p);
        let cfg = ServeConfig::new(model.clone(), hw.clone(), policy);
        let engine = ServeEngine::new(cfg.clone());
        let router = Router::new(RouterConfig::homogeneous(cfg, 3).with_disagg(1));
        let r = router.run(&trace);
        println!(
            "  {name:<26} goodput {:>6.3} r/s | {} handoffs x {:>6.1} MiB @ {:>5.1} ms",
            r.fleet.goodput_rps,
            r.handoffs,
            mib(engine.kv_handoff_bytes(640)),
            engine.kv_handoff_time(640) * 1e3,
        );
    }
    println!("\n(the cold tail trims offload traffic a flat INT8 switch cannot reach; FP16-everywhere and flat-INT8 reproduce the legacy boolean exactly)");
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

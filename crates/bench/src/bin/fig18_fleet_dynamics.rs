//! Figure 18 (new experiment, beyond the paper): survivable fleets —
//! autoscaling, replica failure injection, and heterogeneous hardware.
//!
//! The paper evaluates ALISA on a fixed replica set. Real serving
//! fleets breathe and break: capacity follows a diurnal load curve,
//! replicas die mid-decode, and generations of hardware coexist. This
//! figure stresses the router's dynamic-fleet layer on all three axes:
//!
//! * **Part A — autoscaling.** A diurnal arrival wave (trough at t=0,
//!   peak mid-period) served by static fleets of 1..=4 replicas and by
//!   the autoscaler (floor 1, ceiling 4), which brings standbys up
//!   when windowed SLO attainment / KV pressure / queue wait degrade
//!   and drains them again in the trough. The fair metric is
//!   *goodput per replica-hour*: static fleets bill every replica for
//!   the whole makespan, the autoscaler only for its up-stretches.
//! * **Part B — failure injection.** A seeded [`FailurePlan`] kills
//!   k = 0, 1, 2 of 3 replicas mid-run. In-flight sessions on the dead
//!   replica lose their KV and re-prefill on survivors through the
//!   normal admission pricing path; retention state is discarded.
//! * **Part C — heterogeneous hardware.** A mixed 2x V100-16GB +
//!   1x H100-80GB fleet under capability-aware load balancing
//!   (outstanding / KV-pressure keys normalized by each replica's
//!   measured throughput weight) vs. capability-blind round-robin.
//!
//! Gates (the process exits nonzero on violation): the autoscaler
//! beats every static fleet size on goodput per replica-hour; every
//! failure run conserves requests exactly (admitted + rejected ==
//! offered) and goodput degrades gracefully (monotone within epsilon,
//! nonzero even at k=2) with every kill catching in-flight work; the
//! capability-aware policy beats round-robin on the mixed fleet. Same
//! seed => byte-identical output.
//!
//! ```sh
//! cargo run --release --bin fig18_fleet_dynamics [-- --quick] [-- --seed N]
//! ```
//!
//! Part A runs every fleet over one diurnal trace; parts B and C share
//! one steady trace.
//!
//! Observability flag (default output is byte-identical without
//! it): `--events <path>` streams a structured JSONL event log of
//! the k=2 failure run — replica-failed events with decision traces,
//! session-recovered events with rebuilt-token counts, retention
//! evictions of the dead replica's sessions. See
//! `docs/OBSERVABILITY.md`.

use alisa_bench::{banner, check_args, events_arg, f, quick_mode, row, seed_arg};
use alisa_memsim::HardwareSpec;
use alisa_model::ModelConfig;
use alisa_serve::{
    AdmissionPolicy, ArrivalProcess, FailurePlan, LoadBalancePolicy, Router, RouterConfig,
    ServeConfig, Trace,
};
use alisa_workloads::LengthModel;

fn main() {
    check_args(&["--events"]);
    let quick = quick_mode();
    let seed = seed_arg();
    let events = events_arg();
    let model = ModelConfig::opt_6_7b();
    let hw = HardwareSpec::v100_16gb();
    let lengths = LengthModel::alpaca().with_max_output(64);

    // Part A workload: a diurnal wave whose peak overloads one replica
    // several times over and whose trough is nearly idle, spanning a
    // bit over one full period so the autoscaler must both grow and
    // shrink within the run.
    // The diurnal shape is identical in quick mode: the run is
    // milliseconds either way, and the autoscaler gates need a full
    // trough-peak-trough cycle to have teeth.
    let (diurnal_rate, period_s) = (40.0, 24.0);
    let swing = 0.9;
    let n_diurnal = 1100;
    let ceiling = 4usize;
    // Part B/C workload: a steady wave that keeps a 3-replica fleet
    // busy enough that a mid-run kill always catches in-flight work.
    let steady_rate = 40.0;
    let n_steady = if quick { 160 } else { 320 };
    let kill_counts: [usize; 3] = [0, 1, 2];

    banner(
        "Figure 18",
        "Survivable fleets: autoscaling, failure injection, heterogeneous hardware (new experiment; the fleet layer the paper holds fixed)",
    );
    println!(
        "model: {model}\nhardware: {hw} (+ 1x {} in part C)\nseed: {seed} | diurnal rate {diurnal_rate}/s swing {swing} period {period_s}s, {n_diurnal} requests | steady rate {steady_rate}/s, {n_steady} requests\n",
        HardwareSpec::h100_80gb(),
    );

    let diurnal = Trace::generate(
        &ArrivalProcess::Diurnal {
            rate: diurnal_rate,
            swing,
            period_s,
        },
        &lengths,
        n_diurnal,
        seed,
    );
    let steady = Trace::generate(
        &ArrivalProcess::Poisson { rate: steady_rate },
        &lengths,
        n_steady,
        seed,
    );
    // Horizon for seeded kill times: the arrival span, so every kill
    // lands while traffic is still flowing.
    let horizon_s = steady.duration();

    let base = || ServeConfig::new(model.clone(), hw.clone(), AdmissionPolicy::alisa());
    let least_out = |replicas| {
        RouterConfig::homogeneous(base(), replicas).with_lb(LoadBalancePolicy::LeastOutstanding)
    };
    // Part B's fleet, and the `--events` replay's: 3 replicas, k kills.
    let killed = |k| {
        let rc = least_out(3);
        if k > 0 {
            rc.with_failures(FailurePlan::seeded(seed, k, 3, horizon_s))
        } else {
            rc
        }
    };

    // ---- Part A: autoscaler vs static fleet sizes ------------------
    println!("-- part A: diurnal wave, static fleets vs autoscaler --");
    row(
        "fleet",
        ["goodput", "slo%", "gp/rep-hr", "rep-sec", "ups", "drains"],
    );
    let mut static_gph = Vec::new();
    for replicas in 1..=ceiling {
        let r = Router::new(least_out(replicas)).run(&diurnal);
        static_gph.push(r.goodput_per_replica_hour());
        row(
            &format!("static x{replicas}"),
            [
                f(r.fleet.goodput_rps),
                f(100.0 * r.fleet.slo_attainment),
                f(r.goodput_per_replica_hour()),
                f(r.replicas.len() as f64 * r.fleet.makespan_s),
                f(0.0),
                f(0.0),
            ],
        );
    }
    let auto = Router::new(least_out(ceiling).with_autoscaler()).run(&diurnal);
    let auto_d = auto.dynamics.expect("autoscaled run reports dynamics");
    let auto_gph = auto.goodput_per_replica_hour();
    row(
        "autoscaled 1..4",
        [
            f(auto.fleet.goodput_rps),
            f(100.0 * auto.fleet.slo_attainment),
            f(auto_gph),
            f(auto_d.replica_seconds),
            f(auto_d.scale_ups as f64),
            f(auto_d.drains as f64),
        ],
    );
    let auto_beats_static = static_gph.iter().all(|&g| auto_gph + 1e-12 >= g);
    let auto_breathes = auto_d.scale_ups >= 1 && auto_d.drains >= 1;

    // ---- Part B: failure injection ---------------------------------
    println!("\n-- part B: k replica kills out of 3 (seeded) --");
    row(
        "kills",
        [
            "goodput",
            "admit",
            "reject",
            "complete",
            "recovered",
            "relocated",
        ],
    );
    let mut conserves = true;
    let mut graceful = true;
    let mut kills_bite = true;
    let mut prev_goodput = f64::INFINITY;
    for k in kill_counts {
        let r = Router::new(killed(k)).run(&steady);
        let d = r.dynamics.unwrap_or_default();
        row(
            &format!("k={k}"),
            [
                f(r.fleet.goodput_rps),
                f(r.fleet.admitted as f64),
                f(r.fleet.rejected as f64),
                f(r.fleet.completed as f64),
                f(d.recovered as f64),
                f(d.relocated as f64),
            ],
        );
        if r.fleet.admitted + r.fleet.rejected != r.fleet.arrived
            || r.fleet.completed != r.fleet.admitted
            || r.fleet.arrived != n_steady
        {
            conserves = false;
        }
        if d.failures != k {
            conserves = false;
        }
        if r.fleet.goodput_rps > prev_goodput + 1e-9 || r.fleet.goodput_rps <= 0.0 {
            graceful = false;
        }
        prev_goodput = r.fleet.goodput_rps;
        if k > 0 && d.recovered + d.relocated == 0 {
            kills_bite = false;
        }
    }

    // ---- Part C: heterogeneous fleet -------------------------------
    println!("\n-- part C: 2x V100-16GB + 1x H100-80GB --");
    row("policy", ["goodput", "slo%", "v100.0", "v100.1", "h100"]);
    let mut hetero = Vec::new();
    for (tag, lb) in [
        ("round-robin", LoadBalancePolicy::RoundRobin),
        ("least-out(norm)", LoadBalancePolicy::LeastOutstanding),
    ] {
        let h100 = ServeConfig::new(
            model.clone(),
            HardwareSpec::h100_80gb(),
            AdmissionPolicy::alisa(),
        );
        let r = Router::new(RouterConfig::heterogeneous(vec![base(), base(), h100]).with_lb(lb))
            .run(&steady);
        row(
            tag,
            [
                f(r.fleet.goodput_rps),
                f(100.0 * r.fleet.slo_attainment),
                f(r.replicas[0].arrived as f64),
                f(r.replicas[1].arrived as f64),
                f(r.replicas[2].arrived as f64),
            ],
        );
        hetero.push(r);
    }
    let aware_wins = hetero[1].fleet.goodput_rps + 1e-12 >= hetero[0].fleet.goodput_rps;
    let aware_biases = hetero[1].replicas[2].arrived
        > hetero[1].replicas[0]
            .arrived
            .min(hetero[1].replicas[1].arrived);

    let verdict = |ok: bool| if ok { "yes" } else { "NO (regression!)" };
    println!();
    println!(
        "autoscaler beats every static fleet on goodput per replica-hour: {}",
        verdict(auto_beats_static)
    );
    println!(
        "autoscaler both grew and drained within the run: {}",
        verdict(auto_breathes)
    );
    println!(
        "every failure run conserves requests exactly: {}",
        verdict(conserves)
    );
    println!(
        "goodput degrades gracefully with kills: {}",
        verdict(graceful)
    );
    println!(
        "every kill caught in-flight work to re-home: {}",
        verdict(kills_bite)
    );
    println!(
        "capability-aware balancing beats round-robin on the mixed fleet: {}",
        verdict(aware_wins && aware_biases)
    );
    println!("\n(paper context: the paper's evaluation holds the replica set fixed; this figure exercises the fleet layer real deployments need — elastic capacity, crash recovery priced through ALISA's own re-prefill cost model, and mixed hardware generations)");
    if let Some(log) = events {
        log.write(|sink| {
            // The k=2 failure run, traced: replica-failed + session-
            // recovered decision traces plus the dead replicas' retention
            // evictions.
            let _ = Router::new(killed(2)).run_traced(&steady, sink);
        });
    }
    if !(auto_beats_static
        && auto_breathes
        && conserves
        && graceful
        && kills_bite
        && aware_wins
        && aware_biases)
    {
        // Fail loudly so the smoke test and CI catch the regression,
        // not just a human reading the table.
        std::process::exit(1);
    }
}

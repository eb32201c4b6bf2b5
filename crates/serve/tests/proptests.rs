//! Property-based tests of the arrival generators and trace codec, the
//! step pricing, and the queue disciplines.

use alisa_serve::{ArrivalProcess, Trace};
use alisa_workloads::LengthModel;
use proptest::prelude::*;

fn processes(rate: f64, aux: f64) -> Vec<ArrivalProcess> {
    vec![
        ArrivalProcess::Poisson { rate },
        ArrivalProcess::Bursty {
            rate,
            burst: 2.0 + aux * 6.0,
            on_frac: 0.2 + aux * 0.6,
            period_s: 5.0 + aux * 20.0,
        },
        ArrivalProcess::ClosedLoop {
            clients: 1 + (aux * 15.0) as usize,
            think_s: 0.1 + aux * 3.0,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generator emits non-decreasing, finite, non-negative
    /// timestamps, for any rate/shape/seed/size.
    #[test]
    fn arrival_timestamps_are_monotone(
        rate in 0.1f64..50.0,
        aux in 0.0f64..1.0,
        n in 1usize..400,
        seed in 0u64..1_000_000,
    ) {
        for p in processes(rate, aux) {
            let ts = p.arrival_times(n, seed);
            prop_assert_eq!(ts.len(), n, "{} must emit n stamps", p.name());
            for w in ts.windows(2) {
                prop_assert!(w[0] <= w[1], "{}: timestamps regressed", p.name());
            }
            for &t in &ts {
                prop_assert!(t.is_finite() && t >= 0.0, "{}: bad stamp {t}", p.name());
            }
            // Determinism: same seed, same stream.
            prop_assert_eq!(&ts, &p.arrival_times(n, seed));
        }
    }

    /// Generated traces validate and survive the text codec exactly.
    #[test]
    fn generated_traces_round_trip(
        rate in 0.2f64..20.0,
        n in 1usize..120,
        seed in 0u64..1_000_000,
    ) {
        let lengths = LengthModel::alpaca();
        let trace = Trace::generate(&ArrivalProcess::Poisson { rate }, &lengths, n, seed);
        prop_assert_eq!(trace.len(), n);
        let back = Trace::from_text(&trace.to_text()).expect("round trip");
        prop_assert_eq!(&trace, &back);
        prop_assert_eq!(trace.to_text(), back.to_text());
    }

    /// Any legacy single-shot trace round-trips *unchanged* through the
    /// session-aware parser: the emitted text keeps the v1 3-column
    /// shape byte-for-byte, no entry acquires a session id, and the
    /// session accessors report the inert values the engine's reuse
    /// path treats as "nothing to do".
    #[test]
    fn legacy_traces_parse_as_one_turn_sessions(
        rate in 0.2f64..20.0,
        n in 1usize..120,
        seed in 0u64..1_000_000,
    ) {
        let lengths = LengthModel::alpaca();
        let trace = Trace::generate(&ArrivalProcess::Poisson { rate }, &lengths, n, seed);
        let text = trace.to_text();
        prop_assert!(text.lines().next().expect("header").contains("v1"));
        for line in text.lines().skip(1) {
            prop_assert_eq!(line.split_whitespace().count(), 3, "v1 lines have 3 columns");
        }
        let back = Trace::from_text(&text).expect("round trip");
        prop_assert_eq!(text, back.to_text(), "byte-identical re-emission");
        prop_assert!(!back.has_sessions());
        prop_assert_eq!(back.session_count(), 0);
        prop_assert!(back.prefix_lens().iter().all(|&p| p == 0));
        prop_assert!(back.next_turn_exists().iter().all(|&b| !b));
    }

    /// Session traces validate by construction for any model shape and
    /// survive the v2 codec exactly; prefix lengths always equal the
    /// previous turn's final context.
    #[test]
    fn session_traces_round_trip_and_contain_prefixes(
        rate in 0.2f64..5.0,
        sessions in 1usize..24,
        max_turns in 1usize..6,
        seed in 0u64..1_000_000,
    ) {
        let model = alisa_workloads::SessionModel::chat().with_max_turns(max_turns);
        let trace = Trace::generate_sessions(
            &ArrivalProcess::Poisson { rate },
            &model,
            sessions,
            seed,
        );
        let back = Trace::from_text(&trace.to_text()).expect("round trip");
        prop_assert_eq!(&trace, &back);
        prop_assert_eq!(trace.to_text(), back.to_text());
        // Every turn's prompt contains the session's prior context.
        let prefixes = trace.prefix_lens();
        for (e, &p) in trace.entries().iter().zip(prefixes.iter()) {
            prop_assert!(e.prompt_len >= p);
            if let Some(sref) = e.session {
                if sref.turn > 0 {
                    prop_assert!(p > 0, "later turns must have a reusable prefix");
                }
            }
        }
    }
}

mod precision_pricing {
    use super::*;
    use alisa_memsim::HardwareSpec;
    use alisa_model::ModelConfig;
    use alisa_sched::common::FP16;
    use alisa_sched::SimBase;
    use alisa_serve::{AdmissionPolicy, ServeConfig, ServeEngine};
    use alisa_tensor::quant::{KvPrecision, PrecisionPolicy};

    /// The pre-refactor constants, frozen here on purpose: the legacy
    /// formulas below must stay an independent re-statement of what the
    /// boolean-flag code charged, not a call back into the refactored
    /// path.
    const ALISA_RELOAD_FRAC: f64 = 0.02;

    /// Exactly what the old `compression: bool` step-overhead code
    /// computed for ALISA, re-implemented from the pre-refactor source.
    fn legacy_step_overhead(
        sim: &SimBase,
        model: &ModelConfig,
        b: usize,
        mean_seq: usize,
        sparsity: f64,
        compression: bool,
    ) -> f64 {
        let per_tok = model.kv_bytes_per_token(FP16);
        let budget = ((mean_seq as f64 * (1.0 - sparsity)).round() as usize).clamp(1, mean_seq);
        let selection = sim.selection_overhead(model, b, mean_seq, budget, 4);
        let store = (b as f64 * sparsity * per_tok as f64) as u64;
        let reload = (b as f64 * budget as f64 * ALISA_RELOAD_FRAC * per_tok as f64) as u64;
        let link_bytes = if compression {
            (store + reload) / 2
        } else {
            store + reload
        };
        let quant = if compression {
            sim.cost.quantize_time(link_bytes)
        } else {
            0.0
        };
        selection + sim.cost.transfer_time(link_bytes) + quant
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The FP16-everywhere policy prices per-step overhead exactly
        /// like the pre-refactor `compression: false` formula, and the
        /// uniform-INT8 policy exactly like `compression: true` — for
        /// any batch, context length, and sparsity.
        #[test]
        fn legacy_policies_price_steps_identically(
            b in 1usize..96,
            mean_seq in 4usize..4096,
            sparsity in 0.05f64..0.95,
        ) {
            let sim = SimBase::new(&HardwareSpec::v100_16gb());
            let model = ModelConfig::opt_6_7b();
            let fp16 = AdmissionPolicy::Alisa {
                sparsity,
                precision: PrecisionPolicy::fp16(),
            };
            let int8 = AdmissionPolicy::Alisa {
                sparsity,
                precision: PrecisionPolicy::int8(),
            };
            prop_assert_eq!(
                fp16.step_overhead(&sim, &model, b, mean_seq),
                legacy_step_overhead(&sim, &model, b, mean_seq, sparsity, false),
                "FP16-everywhere diverged from the uncompressed formula"
            );
            prop_assert_eq!(
                int8.step_overhead(&sim, &model, b, mean_seq),
                legacy_step_overhead(&sim, &model, b, mean_seq, sparsity, true),
                "uniform INT8 diverged from the flat-halving formula"
            );
        }

        /// End to end: for any seed the FP16-everywhere serving report
        /// is byte-for-byte stable, insensitive to the cold-tail
        /// settings that a zero tail makes inert, and distinct from the
        /// INT8 report once offload traffic exists. Together with the
        /// step identity above (and the pre-refactor golden fixtures in
        /// `tests/precision_backcompat.rs`) this pins the whole legacy
        /// pricing surface per seed.
        #[test]
        fn fp16_reports_are_stable_per_seed(
            seed in 0u64..1_000_000,
            rate in 0.5f64..8.0,
            n in 4usize..32,
        ) {
            let trace = Trace::generate(
                &ArrivalProcess::Poisson { rate },
                &LengthModel::alpaca().with_max_output(32),
                n,
                seed,
            );
            let run = |precision: PrecisionPolicy| {
                let cfg = ServeConfig::new(
                    ModelConfig::opt_6_7b(),
                    HardwareSpec::v100_16gb(),
                    AdmissionPolicy::Alisa {
                        sparsity: 0.8,
                        precision,
                    },
                );
                ServeEngine::new(cfg).run(&trace).canonical_text()
            };
            let fp16 = run(PrecisionPolicy::fp16());
            // Determinism per seed.
            prop_assert_eq!(&fp16, &run(PrecisionPolicy::fp16()));
            // A zero-fraction cold tail and the handoff width are inert
            // for a single-replica engine: the report must not move.
            prop_assert_eq!(
                &fp16,
                &run(PrecisionPolicy::fp16().with_cold_tail(0.0, KvPrecision::Int4))
            );
            prop_assert_eq!(
                &fp16,
                &run(PrecisionPolicy::fp16().with_handoff(KvPrecision::Int8))
            );
        }
    }
}

mod queue_disciplines {
    use super::*;
    use alisa_memsim::HardwareSpec;
    use alisa_model::ModelConfig;
    use alisa_serve::{AdmissionPolicy, QueueDiscipline, ServeConfig, ServeEngine};

    /// The discipline under test, indexed by a proptest-drawn selector
    /// (covers every variant, with drawn aging/patience knobs).
    fn discipline(sel: u8, aging: f64, patience: f64) -> QueueDiscipline {
        match sel % 4 {
            0 => QueueDiscipline::fcfs(),
            1 => QueueDiscipline::sjf().with_aging(aging),
            2 => QueueDiscipline::best_fit(),
            _ => QueueDiscipline::preemptive_sjf()
                .with_aging(aging)
                .with_patience(patience),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `admitted + rejected == offered` holds under every
        /// discipline, load level, and timeout — and with no timeout
        /// every admitted request finishes: preempted requests are
        /// re-queued and complete, never lost.
        #[test]
        fn conservation_holds_under_every_discipline(
            sel in 0u8..4,
            aging in 0.5f64..20.0,
            patience in 0.05f64..3.0,
            rate in 0.5f64..24.0,
            n in 4usize..64,
            seed in 0u64..1_000_000,
            timed_out in 0u8..2,
        ) {
            let d = discipline(sel, aging, patience);
            let trace = Trace::generate(
                &ArrivalProcess::Poisson { rate },
                &LengthModel::heavy_tailed(),
                n,
                seed,
            );
            let mut cfg = ServeConfig::new(
                ModelConfig::opt_6_7b(),
                HardwareSpec::v100_16gb(),
                AdmissionPolicy::alisa(),
            )
            .with_discipline(d);
            if timed_out == 1 {
                cfg = cfg.with_queue_timeout(2.0);
            }
            let r = ServeEngine::new(cfg).run(&trace);
            prop_assert_eq!(r.arrived, n, "{}", d.name());
            prop_assert_eq!(
                r.admitted + r.rejected, r.arrived,
                "{}: admitted + rejected != offered", d.name()
            );
            prop_assert_eq!(
                r.completed, r.admitted,
                "{}: an admitted (possibly preempted) request vanished", d.name()
            );
        }

        /// FCFS is the default: an explicit `with_discipline(fcfs)`
        /// run is byte-identical to the default-constructed config on
        /// any trace — the pre-split behaviour is pinned everywhere,
        /// not just on the golden fixtures.
        #[test]
        fn explicit_fcfs_is_byte_identical_to_default(
            rate in 0.5f64..16.0,
            n in 4usize..48,
            seed in 0u64..1_000_000,
        ) {
            let trace = Trace::generate(
                &ArrivalProcess::Poisson { rate },
                &LengthModel::heavy_tailed(),
                n,
                seed,
            );
            let base = ServeConfig::new(
                ModelConfig::opt_6_7b(),
                HardwareSpec::v100_16gb(),
                AdmissionPolicy::alisa(),
            );
            let default = ServeEngine::new(base.clone()).run(&trace);
            let explicit = ServeEngine::new(base.with_discipline(QueueDiscipline::fcfs()))
                .run(&trace);
            prop_assert_eq!(
                default.canonical_text().into_bytes(),
                explicit.canonical_text().into_bytes()
            );
        }

        /// SJF with a finite aging horizon admits every request
        /// eventually: no starvation, for any horizon and any
        /// heavy-tailed trace (no timeout, so a starved request would
        /// show up as `completed < admitted`-or-hang, and the aged run
        /// must never serve its worst-case request later than pure
        /// SJF).
        #[test]
        fn sjf_aging_starves_nobody(
            aging in 0.5f64..30.0,
            rate in 1.0f64..16.0,
            n in 8usize..48,
            seed in 0u64..1_000_000,
        ) {
            let trace = Trace::generate(
                &ArrivalProcess::Poisson { rate },
                &LengthModel::heavy_tailed(),
                n,
                seed,
            );
            let run = |d: QueueDiscipline| {
                let cfg = ServeConfig::new(
                    ModelConfig::opt_6_7b(),
                    HardwareSpec::v100_16gb(),
                    AdmissionPolicy::alisa(),
                )
                .with_discipline(d);
                ServeEngine::new(cfg).run(&trace)
            };
            let aged = run(QueueDiscipline::sjf().with_aging(aging));
            prop_assert_eq!(aged.completed, aged.arrived, "every request is admitted");
            let pure = run(QueueDiscipline::sjf().with_aging(f64::INFINITY));
            prop_assert!(
                aged.e2e.max <= pure.e2e.max + 1e-9,
                "aging delayed the most-starved request: {} vs {}",
                aged.e2e.max,
                pure.e2e.max
            );
        }
    }
}

mod step_pricing {
    use super::*;
    use alisa_memsim::HardwareSpec;
    use alisa_model::ModelConfig;
    use alisa_sched::SimBase;
    use alisa_serve::{AdmissionPolicy, PrefillJob, ServeConfig, ServeEngine};
    use alisa_tensor::quant::PrecisionPolicy;

    /// `ServeEngine::step_time` as it read before the engine tabulated
    /// its price terms, word for word over the public formulas it
    /// called: the reference the table-driven pricing must equal to the
    /// bit.
    fn reference_step_time(
        cfg: &ServeConfig,
        sim: &SimBase,
        prefills: &[PrefillJob],
        running_seq_lens: &[usize],
    ) -> f64 {
        let model = &cfg.model;
        let eff = cfg.policy.efficiency();
        let mut step_time = 0.0;
        for p in prefills {
            step_time += sim.prefill_compute(model, 1, p.new_tokens(), eff);
            if p.reused_prefix > 0 {
                let ctx = cfg.policy.attended_tokens(p.reused_prefix);
                step_time += sim.context_attention_time(model, p.new_tokens(), ctx, eff);
            }
        }
        if !running_seq_lens.is_empty() {
            let mean_kv = running_seq_lens
                .iter()
                .map(|&s| cfg.policy.attended_tokens(s))
                .sum::<usize>()
                / running_seq_lens.len();
            let (mha, ffn) = sim.decode_compute(model, running_seq_lens.len(), mean_kv.max(1), eff);
            step_time += mha + ffn;
        }
        let batch = running_seq_lens.len() + prefills.len();
        if let Some(mean_seq) = (running_seq_lens.iter().copied())
            .chain(prefills.iter().map(|p| p.prompt_len))
            .sum::<usize>()
            .checked_div(batch)
        {
            step_time += cfg.policy.step_overhead(sim, model, batch, mean_seq.max(1));
        }
        step_time
    }

    /// The policy under test: ALISA at a drawn sparsity, or at exactly
    /// 0.5 so half-token ties must round away from zero, under each of
    /// the three precision points; vLLM; FlexGen.
    fn policy(sel: usize, sparsity: f64) -> AdmissionPolicy {
        let precision = [
            PrecisionPolicy::fp16(),
            PrecisionPolicy::int8(),
            PrecisionPolicy::mixed(),
        ];
        match sel {
            0..=2 => AdmissionPolicy::Alisa {
                sparsity,
                precision: precision[sel],
            },
            3..=5 => AdmissionPolicy::Alisa {
                sparsity: 0.5,
                precision: precision[sel - 3],
            },
            6 => AdmissionPolicy::vllm(),
            _ => AdmissionPolicy::flexgen(),
        }
    }

    /// A sequence length in 1–5,000, a tenth of them on the edge of the
    /// engine's 4,096-length table: 4,095, 4,096 or 4,097.
    fn seq_len() -> impl Strategy<Value = usize> {
        (0usize..10, 1usize..=5000).prop_map(|(edge, s)| if edge == 0 { 4095 + s % 3 } else { s })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every step price equals the formulas' by `to_bits`: decode
        /// batches of 1–70 (past the 64-request batch cap) at lengths
        /// past the table's end, with 0–3 prefills, some reusing a
        /// session prefix, on three GPUs and two models.
        #[test]
        fn step_time_matches_the_formulas_bit_for_bit(
            (sel, sparsity) in (0usize..8, 0.0f64..0.95),
            (gpu, opt_13b) in (0usize..3, 0usize..2),
            running in collection::vec(seq_len(), 1..=70),
            prefills in collection::vec((seq_len(), 0usize..2, 0.0f64..1.0), 0..=3),
        ) {
            let hardware = match gpu {
                0 => HardwareSpec::v100_16gb(),
                1 => HardwareSpec::v100_32gb(),
                _ => HardwareSpec::h100_80gb(),
            };
            let model = if opt_13b == 1 {
                ModelConfig::opt_13b()
            } else {
                ModelConfig::opt_6_7b()
            };
            let cfg = ServeConfig::new(model, hardware, policy(sel, sparsity));
            let prefills: Vec<PrefillJob> = prefills
                .into_iter()
                .map(|(prompt_len, reuse, share)| PrefillJob {
                    prompt_len,
                    reused_prefix: reuse * (prompt_len as f64 * share) as usize,
                })
                .collect();
            let engine = ServeEngine::new(cfg.clone());
            let sim = SimBase::new(&cfg.hardware);
            prop_assert_eq!(
                engine.step_time(&prefills, &running).to_bits(),
                reference_step_time(&cfg, &sim, &prefills, &running).to_bits(),
                "{} on {}: prefills {:?}, running {:?}",
                cfg.policy.name(),
                cfg.hardware.gpu.name,
                prefills,
                running
            );
        }
    }
}

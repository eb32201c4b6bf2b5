//! One replica's continuous-batching step — the single step machine
//! behind the fleet loop that runs both [`ServeEngine::run`] and
//! [`crate::Router::run`].
//!
//! A [`Replica`] holds one engine's queue, running batch, KV
//! reservations, retained session caches, clock, and report counters.
//! [`Replica::step`] runs, in order: the queue scan (rejection, or a
//! re-queue bounce), discipline-ordered admission with preemption and
//! retention reuse, pricing through [`ServeEngine::step_time`],
//! token accounting (including prefill→decode handoffs), and the
//! timeline sample. The fleet loop (`crate::router::FleetRun`) drives
//! one replica for the engine and many for the router, with the same
//! dispatch and the same sweeps: each sweep steps, in index order, the
//! busy replicas whose clocks lag the next pending time, found by one
//! scan of the loop's flat array of busy clocks. Per-request state lives
//! in one [`Request`] per request, indexed by request id and lent to each
//! step as a `&mut` slice.

use std::collections::VecDeque;

use alisa_kvcache::{RetainedSession, SessionKvCache};
use alisa_obs::profile::{self, Phase};
use alisa_obs::{Event, EventKind, MetricsRegistry, TraceSink};
use alisa_sched::common::FP16;

use crate::engine::{PrefillJob, ServeEngine, TimelineRec};
use crate::metrics::{ServeReport, ServeSample};
use crate::request::{Request, RequestState};

/// Cap on concurrently decoding requests per replica.
pub(crate) const MAX_BATCH: usize = 64;

/// Tracing context threaded through a run's dispatch and step paths:
/// the sink and the metrics registry accumulating alongside it. Every
/// emission site sits behind a `TRACED` const generic, so the untraced
/// monomorphization never constructs an event.
pub(crate) struct ObsCtx<'a> {
    sink: &'a mut dyn TraceSink,
    pub(crate) reg: MetricsRegistry,
}

impl<'a> ObsCtx<'a> {
    pub(crate) fn new(sink: &'a mut dyn TraceSink) -> Self {
        ObsCtx {
            sink,
            reg: MetricsRegistry::new(),
        }
    }

    pub(crate) fn emit(&mut self, ev: Event) {
        self.reg.record(&ev);
        self.sink.emit(&ev);
    }

    /// Whether the sink records events (the run is traced).
    pub(crate) fn enabled(&self) -> bool {
        self.sink.enabled()
    }

    /// The report's opt-in metrics section: present iff traced.
    pub(crate) fn metrics(&self) -> Option<String> {
        self.enabled().then(|| self.reg.canonical_text())
    }
}

/// What a replica does in the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// Prefill + decode (no disaggregation).
    Unified,
    /// Prefill only; finished prompts are handed off.
    Prefill,
    /// Decode only; admits handed-off requests.
    Decode,
}

/// A replica's availability in a dynamic fleet. Static fleets (the
/// single engine among them) stay `Up` for the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lifecycle {
    /// Admitting new work.
    Up,
    /// Powered down, holding nothing; the autoscaler may bring it up.
    Standby,
    /// Not admitting; queued work has been handed to survivors and the
    /// running batch finishes locally, then the replica goes standby.
    Draining,
    /// Killed by the failure plan. Permanent.
    Failed,
}

/// Buffers a step works in, owned by the run and reused across steps
/// and replicas so the steady-state loop allocates nothing. Every
/// buffer is cleared before use; `requeues` and `handoffs` hold the
/// last step's outputs for the router to put on its event heap.
#[derive(Debug, Default)]
pub(crate) struct StepScratch {
    newly: Vec<usize>,
    new_jobs: Vec<PrefillJob>,
    ingests: Vec<usize>,
    evicted: Vec<RetainedSession>,
    running_lens: Vec<usize>,
    still_running: Vec<usize>,
    /// Timeout bounces, as `(time, id)`.
    pub(crate) requeues: Vec<(f64, usize)>,
    /// Prefill→decode handoffs, as `(arrival at the decode tier, id)`.
    pub(crate) handoffs: Vec<(f64, usize)>,
}

/// Mutable state of one serving replica plus its step.
pub(crate) struct Replica<'a> {
    /// The engine whose config, budget and pricing the replica runs.
    pub(crate) engine: &'a ServeEngine,
    /// Replica index in the fleet, stamped on its events.
    pub(crate) idx: usize,
    pub(crate) role: Role,
    /// Availability in a dynamic fleet; always `Up` in a static one.
    pub(crate) life: Lifecycle,
    /// When the current up (or draining) stretch began.
    pub(crate) up_since: f64,
    /// Accumulated admitting-or-draining seconds from *closed*
    /// stretches; the open stretch (if any) is settled at drain
    /// completion, failure, or end of run.
    pub(crate) up_seconds: f64,
    /// Relative throughput ([`ServeEngine::throughput_weight`]) the
    /// router's least-* load signals are normalized by.
    weight: f64,
    pub(crate) budget: u64,
    pub(crate) queue: VecDeque<usize>,
    pub(crate) running: Vec<usize>,
    pub(crate) reserved: u64,
    pub(crate) t: f64,
    pub(crate) step_count: u64,
    pub(crate) batch_sum: u64,
    pub(crate) peak_queue_depth: usize,
    pub(crate) peak_kv_bytes: u64,
    pub(crate) timeline: TimelineRec,
    /// Replica-local retained session caches (prefix reuse), present
    /// when the replica's config enables retention.
    pub(crate) session_kv: Option<SessionKvCache>,
    /// A timed-out request bounces for one retry elsewhere instead of
    /// being rejected (fleets with re-queue on).
    requeue: bool,
    /// Reference path: scan the queue every step, ungated.
    force_scan: bool,
    /// Scan gate: a lower bound on the queued epochs. The scan can only
    /// remove something once the bound has outlived the timeout; the
    /// gate applies the scan's own `t - queued_since > timeout`
    /// expression, so skipping a scan never changes which step rejects
    /// what.
    min_queued_since: f64,
}

impl<'a> Replica<'a> {
    pub(crate) fn new(
        engine: &'a ServeEngine,
        idx: usize,
        role: Role,
        requeue: bool,
        force_scan: bool,
    ) -> Self {
        let budget = engine.kv_budget();
        Replica {
            engine,
            idx,
            role,
            life: Lifecycle::Up,
            up_since: 0.0,
            up_seconds: 0.0,
            weight: engine.throughput_weight(),
            budget,
            queue: VecDeque::new(),
            running: Vec::new(),
            reserved: 0,
            t: 0.0,
            step_count: 0,
            batch_sum: 0,
            peak_queue_depth: 0,
            peak_kv_bytes: 0,
            timeline: TimelineRec::new(),
            session_kv: engine
                .config()
                .retention
                .map(|r| SessionKvCache::new(r.pool_bytes(budget))),
            requeue,
            force_scan,
            min_queued_since: f64::INFINITY,
        }
    }

    /// Whether the replica has work (queued or running requests).
    pub(crate) fn busy(&self) -> bool {
        !(self.queue.is_empty() && self.running.is_empty())
    }

    /// Outstanding requests — the least-outstanding policy's load
    /// signal.
    pub(crate) fn outstanding(&self) -> usize {
        self.queue.len() + self.running.len()
    }

    /// KV occupancy in `[0, 1]` — the least-KV-pressure load signal.
    pub(crate) fn kv_pressure(&self) -> f64 {
        if self.budget == 0 {
            1.0
        } else {
            self.reserved as f64 / self.budget as f64
        }
    }

    /// Whether the replica accepts new dispatches.
    pub(crate) fn is_admitting(&self) -> bool {
        self.life == Lifecycle::Up
    }

    /// Throughput-normalized outstanding count — what the
    /// least-outstanding policy actually minimizes. On a homogeneous
    /// fleet every weight is equal, so the order (and every tie) is
    /// exactly the raw count's.
    pub(crate) fn load_norm(&self) -> f64 {
        self.outstanding() as f64 / self.weight
    }

    /// Throughput-normalized KV occupancy — the least-KV-pressure
    /// signal, biased toward replicas that drain their reservations
    /// faster.
    pub(crate) fn pressure_norm(&self) -> f64 {
        self.kv_pressure() / self.weight
    }

    /// Accepts request `id` into the admission queue at time `at` and
    /// becomes its owner, booking `res` as its waiting reservation (an
    /// idle replica's clock jumps forward to `at`). Dispatch, handoff and
    /// recovery check fit first: a request that can never fit is
    /// rejected there.
    pub(crate) fn enqueue(&mut self, id: usize, at: f64, res: u64, reqs: &mut [Request]) {
        debug_assert!(
            res <= self.budget,
            "request {id} can never fit replica {}",
            self.idx
        );
        self.t = self.t.max(at);
        let req = &mut reqs[id];
        req.booked = res;
        req.queued_since = at;
        req.owner = Some(self.idx);
        self.min_queued_since = self.min_queued_since.min(at);
        self.queue.push_back(id);
    }

    /// This replica's report over `requests`, ending at `makespan`; its
    /// timeline moves into the report.
    pub(crate) fn report(self, requests: &[&Request], makespan: f64) -> ServeReport {
        let cfg = self.engine.config();
        let mean_batch = if self.step_count == 0 {
            0.0
        } else {
            self.batch_sum as f64 / self.step_count as f64
        };
        ServeReport::from_requests(
            cfg.policy.name().to_string(),
            cfg.model.name.clone(),
            cfg.hardware.to_string(),
            requests,
            cfg.slo,
            makespan,
            mean_batch,
            self.timeline.into_samples(),
            self.peak_queue_depth,
            self.peak_kv_bytes,
            self.session_kv.as_ref().map(|kv| kv.stats()),
            (!cfg.discipline.is_fcfs()).then(|| cfg.discipline.name().to_string()),
        )
    }

    /// Runs one engine step at the replica clock: scan, admit, price,
    /// account, sample. Leaves the clock alone when nothing was
    /// admitted and nothing is running. `on_done` sees the id of every
    /// request that reaches a terminal state, with the time it did;
    /// timeout bounces and handoffs land in `scratch`.
    pub(crate) fn step<const TRACED: bool>(
        &mut self,
        reqs: &mut [Request],
        scratch: &mut StepScratch,
        obs: &mut ObsCtx<'_>,
        mut on_done: impl FnMut(usize, f64),
    ) {
        let engine = self.engine;
        let cfg = engine.config();
        let t = self.t;
        let budget = self.budget;
        let replica = Some(self.idx);
        let StepScratch {
            newly,
            new_jobs,
            ingests,
            evicted,
            running_lens,
            still_running,
            requeues,
            handoffs,
        } = scratch;
        requeues.clear();
        handoffs.clear();

        // ---- 1. Reject what has waited past the timeout — or bounce
        // it once, when re-queue is on. Requests holding their first
        // token (preempted, or handed off from the prefill tier) are in
        // service, not waiting for it: preemption re-queues, it never
        // drops.
        let _scan = profile::timer(Phase::EventScan);
        if self.force_scan || t - self.min_queued_since > cfg.queue_timeout_s {
            let min_queued = &mut self.min_queued_since;
            *min_queued = f64::INFINITY;
            let requeue = self.requeue;
            self.queue.retain(|&id| {
                let req = &mut reqs[id];
                if req.first_token_at.is_some() {
                    return true;
                }
                let waited_s = t - req.queued_since;
                if waited_s <= cfg.queue_timeout_s {
                    *min_queued = min_queued.min(req.queued_since);
                    return true;
                }
                if requeue && !req.was_requeued {
                    req.was_requeued = true;
                    requeues.push((t, id));
                    return false;
                }
                req.state = RequestState::Rejected;
                if TRACED {
                    obs.emit(Event {
                        t,
                        replica,
                        request: Some(id),
                        kind: EventKind::Rejected {
                            reason: "queue-timeout".to_string(),
                            queue_wait_s: waited_s,
                            decision_trace: format!(
                                "waited {waited_s:.3}s > timeout {:.3}s in {} scan",
                                cfg.queue_timeout_s,
                                cfg.discipline.name()
                            ),
                        },
                    });
                }
                on_done(id, t);
                false
            });
            if TRACED {
                for &(_, id) in requeues.iter() {
                    obs.emit(Event {
                        t,
                        replica,
                        request: Some(id),
                        kind: EventKind::Requeue { from: self.idx },
                    });
                }
            }
        }
        // The waiting backlog peaks here: hopeless entries are gone,
        // but admission has not yet drained the queue.
        self.peak_queue_depth = self.peak_queue_depth.max(self.queue.len());
        drop(_scan);

        // ---- 2. Admit per the queue discipline under the KV budget
        // and batch cap. FCFS walks the queue head-first and stops at
        // the first misfit; SJF/best-fit reorder by the policy-priced
        // reservation. A request holding its first token without being
        // preempted is a handed-off decode ingest: it joins the batch
        // without a prefill. A queued turn whose session prefix KV is
        // retained here is admitted with only its suffix needing
        // prefill; retained caches LRU-yield to admission. A candidate
        // blocked past the preemptive discipline's patience evicts the
        // cheapest-to-restart running victim — on unified replicas
        // only, since a handed-off request cannot re-prefill on a
        // decode-only replica.
        let discipline = cfg.discipline;
        let can_preempt = self.role == Role::Unified;
        newly.clear();
        new_jobs.clear();
        ingests.clear();
        let _order = profile::timer(Phase::Discipline);
        loop {
            if self.running.len() + newly.len() + ingests.len() >= MAX_BATCH {
                break;
            }
            let Some(pos) = discipline.select(
                &self.queue,
                budget - self.reserved,
                |id| reqs[id].booked,
                |id| t - reqs[id].queued_since,
            ) else {
                break;
            };
            let id = self.queue[pos];
            // A handed-off ingest's KV arrived whole — nothing to
            // prefill, so nothing to reuse (prefix 0 makes the retention
            // probe inert while retained caches still yield).
            let req = &reqs[id];
            let is_preempted = req.state == RequestState::Preempted;
            let is_ingest = req.first_token_at.is_some() && !is_preempted;
            let prefix = if is_preempted {
                req.seq_len()
            } else if is_ingest {
                0
            } else {
                req.prefix_len
            };
            let dres = req.booked;
            evicted.clear();
            if let Some((res, job)) = self.admit_with_reuse(req, prefix, evicted) {
                self.queue.remove(pos);
                self.reserved += res;
                let req = &mut reqs[id];
                req.booked = res;
                if is_ingest {
                    req.state = RequestState::Decoding;
                    ingests.push(id);
                } else {
                    if req.admitted_at.is_none() {
                        req.admitted_at = Some(t);
                    }
                    req.state = RequestState::Prefilling;
                    new_jobs.push(job);
                    newly.push(id);
                }
                if TRACED {
                    let session = req.session;
                    for evd in evicted.iter() {
                        obs.emit(evict_event(t, self.idx, evd));
                    }
                    if job.reused_prefix > 0 {
                        if let Some(sref) = session {
                            obs.emit(Event {
                                t,
                                replica,
                                request: Some(id),
                                kind: EventKind::RetentionHit {
                                    session: sref.session_id as u64,
                                    reused_tokens: job.reused_prefix,
                                },
                            });
                        }
                    } else if prefix > 0 && self.session_kv.is_some() {
                        if let Some(sref) = session {
                            obs.emit(Event {
                                t,
                                replica,
                                request: Some(id),
                                kind: EventKind::RetentionMiss {
                                    session: sref.session_id as u64,
                                },
                            });
                        }
                    }
                    // A handed-off ingest's prompt never runs through
                    // this replica's model; it books a single-token
                    // decode workspace.
                    let act_tokens = if is_ingest { 1 } else { job.new_tokens() };
                    let act = cfg.model.activation_bytes_per_seq(FP16) * act_tokens as u64;
                    obs.emit(Event {
                        t,
                        replica,
                        request: Some(id),
                        kind: EventKind::Admitted {
                            reservation_bytes: res,
                            kv_bytes: res.saturating_sub(act),
                            activation_bytes: act,
                            reserved_after: self.reserved,
                            budget,
                            reused_prefix: job.reused_prefix,
                            queue_wait_s: t - req.queued_since,
                        },
                    });
                }
                continue;
            }
            let patient = can_preempt
                && discipline
                    .preemption_patience()
                    .is_some_and(|p| t - req.queued_since > p);
            if patient {
                if let Some(vpos) = self.pick_victim(reqs, dres) {
                    let vid = self.running.remove(vpos);
                    if TRACED {
                        let cost = engine.restart_cost(&reqs[vid]);
                        let decision_trace = format!(
                            "candidate {id} (res {dres} B) outwaited patience; victim {vid} \
                             books {} B > {dres} B and is cheapest to restart ({cost:.4}s)",
                            reqs[vid].booked
                        );
                        obs.emit(Event {
                            t,
                            replica,
                            request: Some(vid),
                            kind: EventKind::Preempted {
                                victim_of: id,
                                restart_cost_s: cost,
                                decision_trace,
                            },
                        });
                    }
                    self.preempt::<TRACED>(vid, reqs, t, obs);
                    continue;
                }
            }
            break;
        }
        drop(_order);
        if newly.is_empty() && ingests.is_empty() && self.running.is_empty() {
            self.check_books(reqs, t);
            return;
        }

        // ---- 3. Price the step: a prefill per newly admitted prompt,
        // one decode token for the running batch, and the policy's
        // per-step overhead.
        running_lens.clear();
        running_lens.extend(
            self.running
                .iter()
                .chain(ingests.iter())
                .map(|&id| reqs[id].seq_len()),
        );
        let step_time = {
            let _price = profile::timer(Phase::Pricing);
            engine.step_time(new_jobs, running_lens)
        };
        let batch = running_lens.len() + new_jobs.len();
        let _acct = profile::timer(Phase::Accounting);
        if TRACED {
            obs.emit(Event {
                t,
                replica,
                request: None,
                kind: EventKind::Step {
                    dur_s: step_time,
                    prefills: new_jobs.len(),
                    decodes: running_lens.len(),
                    kv_reserved: self.reserved,
                    queue_depth: self.queue.len(),
                },
            });
        }
        self.t += step_time;
        self.step_count += 1;
        self.batch_sum += batch as u64;
        self.peak_kv_bytes = self.peak_kv_bytes.max(self.reserved);
        let t_end = self.t;

        // ---- 4. Account tokens, completions, and handoffs, rebuilding
        // the running batch in place: prior running, then ingests, then
        // fresh prefills.
        std::mem::swap(&mut self.running, still_running);
        self.running.clear();
        still_running.append(ingests);
        for &id in still_running.iter() {
            reqs[id].generated += 1;
        }
        for &id in newly.iter() {
            let req = &mut reqs[id];
            // A re-admitted preempted request already delivered its
            // first token before eviction: its TTFT stands, and the
            // re-prefill step advances its kept progress by one.
            if req.first_token_at.is_none() {
                req.first_token_at = Some(t_end);
            }
            req.generated += 1;
            req.state = RequestState::Decoding;
            if self.role != Role::Prefill {
                still_running.push(id);
            } else if req.generated >= req.output_len {
                self.finish::<TRACED>(reqs, id, t_end, obs, &mut on_done);
            } else {
                // Hand the prefilled KV to the decode tier.
                self.reserved -= req.booked;
                handoffs.push((t_end + engine.kv_handoff_time(req.seq_len()), id));
            }
        }
        for id in still_running.drain(..) {
            if reqs[id].generated >= reqs[id].output_len {
                self.finish::<TRACED>(reqs, id, t_end, obs, &mut on_done);
            } else {
                self.running.push(id);
            }
        }

        // ---- 5. Sample the timeline (decimating deterministically
        // once it grows past the cap; first and last sample survive).
        self.timeline.push(
            self.step_count,
            ServeSample {
                t: t_end,
                queue_depth: self.queue.len(),
                running: self.running.len(),
                kv_bytes: self.reserved,
            },
        );
        self.check_books(reqs, t);
    }

    /// Debug builds check the books a step that began at clock `t0`
    /// leaves: the clock has not moved backwards, `reserved` is what the
    /// running batch booked, every running request is owned here, and
    /// live reservations plus retained session caches fit the budget.
    fn check_books(&self, reqs: &[Request], t0: f64) {
        debug_assert!(
            self.t >= t0,
            "replica {}'s step moved its clock back from {t0} to {}",
            self.idx,
            self.t
        );
        debug_assert_eq!(
            self.reserved,
            self.running.iter().map(|&id| reqs[id].booked).sum::<u64>(),
            "replica {} reserves other than its running batch booked",
            self.idx
        );
        debug_assert!(
            self.running
                .iter()
                .all(|&id| reqs[id].owner == Some(self.idx)),
            "replica {} runs a request it does not own",
            self.idx
        );
        debug_assert!(
            self.reserved + self.session_kv.as_ref().map_or(0, SessionKvCache::bytes)
                <= self.budget,
            "replica {}: reservations plus retained caches exceed the budget",
            self.idx
        );
    }

    /// Admission for a queued candidate: probes the retained session
    /// pool for its `prefix_len` tokens, computes the (possibly
    /// reuse-shrunk) reservation, checks it against the budget, evicts
    /// LRU retained caches standing between the candidate and the
    /// headroom, and — on success — consumes the hit. Returns the
    /// reservation to book and the prefill job, or `None` when the
    /// candidate cannot fit even with every retained cache evicted.
    /// Retained caches evicted to make room are appended to `evicted` so
    /// the step can trace them.
    fn admit_with_reuse(
        &mut self,
        req: &Request,
        prefix_len: usize,
        evicted: &mut Vec<RetainedSession>,
    ) -> Option<(u64, PrefillJob)> {
        let (eff_prompt, eff_output) = req.owed();
        let hit = self.session_kv.as_ref().and_then(|kv| {
            req.session
                .and_then(|sref| kv.peek(sref.session_id, prefix_len))
        });
        let (res, reuse_len) = match hit {
            Some((seq, _)) => {
                let new_tokens = (eff_prompt - seq).max(1);
                (
                    self.engine
                        .reservation_bytes(eff_prompt, eff_output, new_tokens),
                    seq,
                )
            }
            None => (req.booked, 0),
        };
        if self.reserved + res > self.budget {
            return None;
        }
        let headroom = self.budget - self.reserved - res;
        if let Some(kv) = self.session_kv.as_mut() {
            // Retained caches yield to admission. The hit entry is
            // about to be consumed by this very request, so it is
            // spared and does not count against the headroom.
            let keep = req.session.filter(|_| reuse_len > 0).map(|s| s.session_id);
            evicted.extend(kv.evict_until(headroom, keep));
            if reuse_len > 0 {
                let sref = req.session.expect("hit implies a session");
                kv.take(sref.session_id, prefix_len);
            } else if prefix_len > 0 && req.session.is_some() {
                // Only a session turn can genuinely miss. A preempted
                // *sessionless* re-admission also probes with a nonzero
                // prefix (its rebuilt context), but nothing was ever
                // retainable for it, so it must not skew the miss
                // counter.
                kv.note_miss();
            }
        }
        Some((
            res,
            PrefillJob {
                prompt_len: eff_prompt,
                reused_prefix: reuse_len,
            },
        ))
    }

    /// Picks the preemption victim for a blocked candidate needing
    /// `cand_res` bytes: among the running batch, the
    /// cheapest-to-restart request whose eviction alone lets the
    /// candidate fit. Victims must book strictly more than the
    /// candidate (big-for-small only — preempting small jobs for big
    /// ones would recreate the head-of-line blocking preemption exists
    /// to break, and allows eviction ping-pong), and must themselves
    /// remain re-admissible (their restart reservation fits an empty
    /// budget). Returns the *position* in the running batch; ties break
    /// to the earliest position.
    fn pick_victim(&self, reqs: &[Request], cand_res: u64) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (pos, &id) in self.running.iter().enumerate() {
            let req = &reqs[id];
            if req.booked <= cand_res {
                continue;
            }
            if self.reserved - req.booked + cand_res > self.budget {
                continue;
            }
            if self.engine.owed_reservation(req.owed()) > self.budget {
                continue; // evicting it would strand it forever
            }
            let cost = self.engine.restart_cost(req);
            if best.is_none_or(|(_, c)| cost < c) {
                best = Some((pos, cost));
            }
        }
        best.map(|(pos, _)| pos)
    }

    /// Evicts victim `vid` (already removed from the running batch):
    /// releases its reservation, books what it now owes as its waiting
    /// reservation, restarts its waiting epoch at `now`, marks it
    /// `Preempted` with its progress kept, re-queues it, and — when
    /// retention is on — retains its built KV for its session so the
    /// re-prefill can hit the cache like any other reuse.
    fn preempt<const TRACED: bool>(
        &mut self,
        vid: usize,
        reqs: &mut [Request],
        now: f64,
        obs: &mut ObsCtx<'_>,
    ) {
        let vreq = &mut reqs[vid];
        self.reserved -= vreq.booked;
        vreq.booked = self.engine.owed_reservation(vreq.owed());
        vreq.queued_since = now;
        vreq.state = RequestState::Preempted;
        vreq.preemptions += 1;
        self.queue.push_back(vid);
        if let Some(sref) = vreq.session {
            let seq = vreq.seq_len();
            self.retain_session::<TRACED>(vid, sref.session_id, seq, now, obs);
        }
    }

    /// Retires request `id`, finished at `t_end`: releases its
    /// reservation and, when its session has a later turn, retains its
    /// final KV working set for it — priced like a live reservation and
    /// capped by both the retention pool and the unreserved headroom.
    /// (Under disaggregation the next turn enters at the prefill tier,
    /// so decode-side retention stays inert — sticky unified fleets
    /// are where reuse pays.)
    fn finish<const TRACED: bool>(
        &mut self,
        reqs: &mut [Request],
        id: usize,
        t_end: f64,
        obs: &mut ObsCtx<'_>,
        on_done: &mut impl FnMut(usize, f64),
    ) {
        let req = &mut reqs[id];
        self.reserved -= req.booked;
        req.finished_at = Some(t_end);
        req.state = RequestState::Finished;
        if TRACED {
            obs.emit(Event {
                t: t_end,
                replica: Some(self.idx),
                request: Some(id),
                kind: EventKind::Finished {
                    generated: req.generated,
                    e2e_s: t_end - req.arrival,
                },
            });
        }
        on_done(id, t_end);
        if !req.next_turn {
            return;
        }
        if let Some(sref) = req.session {
            let seq_len = req.final_seq_len();
            self.retain_session::<TRACED>(id, sref.session_id, seq_len, t_end, obs);
        }
    }

    /// Retains request `id`'s `seq_len`-token KV working set for
    /// `session` at `t`, when retention is on — priced like a live
    /// reservation and capped by both the retention pool and the
    /// unreserved headroom. Traces each LRU eviction the retain makes,
    /// then the store, so the event stream reconciles with
    /// [`alisa_kvcache::ReuseStats`].
    fn retain_session<const TRACED: bool>(
        &mut self,
        id: usize,
        session: usize,
        seq_len: usize,
        t: f64,
        obs: &mut ObsCtx<'_>,
    ) {
        let Some(kv) = self.session_kv.as_mut() else {
            return;
        };
        let cfg = self.engine.config();
        let bytes = cfg.policy.gpu_kv_bytes(&cfg.model, seq_len);
        let Some(evicted) = kv.retain(session, seq_len, bytes, self.budget - self.reserved) else {
            return;
        };
        if TRACED {
            for evd in &evicted {
                obs.emit(evict_event(t, self.idx, evd));
            }
            obs.emit(Event {
                t,
                replica: Some(self.idx),
                request: Some(id),
                kind: EventKind::RetentionStore {
                    session: session as u64,
                    seq_len,
                    bytes,
                },
            });
        }
    }
}

/// The `retention-evict` event for retained cache `evd`, evicted from
/// replica `replica` at `t`.
pub(crate) fn evict_event(t: f64, replica: usize, evd: &RetainedSession) -> Event {
    Event {
        t,
        replica: Some(replica),
        request: None,
        kind: EventKind::RetentionEvict {
            session: evd.session_id as u64,
            seq_len: evd.seq_len,
            bytes: evd.bytes,
        },
    }
}

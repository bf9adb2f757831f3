//! The what-if service workload `whatif_first_visit`: the write path of
//! one bounded `Store`, where every op asks a pfail never asked before.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use ckpt_bench::BANDWIDTH;
use ckpt_core::policy::PolicyScratch;
use ckpt_core::stage::{
    curve_stage, evaluate_stage, inject, placement_stage, schedule_stage, segment_graph_stage,
};
use ckpt_core::{CheckpointPlan, CostCtx, PlacementStats, Platform, Schedule, StageId};
use ckpt_service::{
    Answer, Inputs, ModelSpec, Session, Store, WhatIf, WorkflowArtifact, WorkflowSource,
};
use pegasus::WorkflowClass;

use crate::measure::{
    closed_loop, end_to_end, log_phase, min_ops, outcome, peak_rss_mb, traced_outcome, LayerExtras,
    Outcome, RunCfg, THREADS,
};
use crate::trace::{Layer, Tracer, ROOT};

/// Task count of every service workflow.
const SIZE: usize = 300;
/// The store's capacity per memo: far below the walk, so the run evicts
/// on nearly every op.
const STORE_CAPACITY: usize = 512;
/// Base per-task failure probability.
const PFAIL: f64 = 1e-3;
/// The session's tracker is cleared this often in untimed bookkeeping
/// (the tracker appends an event per stage per query and never forgets).
/// The workload thus models a client that clears its tracker, and
/// `peak_rss_mb` leaves tracker growth out.
const TRACKER_CLEAR_EVERY: u64 = 1024;
/// Latency windows the timed phase fills at least: its p99 is the median
/// of as many window p99s.
const LATENCY_WINDOWS: u64 = 15;

/// Bit-for-bit equality of two answers (the service's documented
/// contract against a cold session).
fn same(a: &Answer, b: &Answer) -> bool {
    a.policy == b.policy
        && a.expected_makespan.to_bits() == b.expected_makespan.to_bits()
        && a.n_checkpoints == b.n_checkpoints
        && a.n_segments == b.n_segments
        && a.ckpt_files == b.ckpt_files
        && a.ckpt_bytes.to_bits() == b.ckpt_bytes.to_bits()
        && a.w_par.to_bits() == b.w_par.to_bits()
        && a.mc.is_none()
        && b.mc.is_none()
        && a.degraded == b.degraded
}

/// Answers `q` on a fresh session with its own empty store — the cold
/// recompute every incremental answer must equal bit for bit.
fn cold_answer(inputs: &Inputs, q: &WhatIf) -> Result<Answer, String> {
    let mut cold = Session::new(inputs.clone());
    cold.plan_threads = THREADS;
    cold.mc_threads = THREADS;
    cold.try_query(q).map_err(|e| format!("cold session: {e}"))
}

fn session(inputs: Inputs, store: &Arc<Store>) -> Session {
    let mut s = Session::with_store(inputs, store.clone());
    s.plan_threads = THREADS;
    s.mc_threads = THREADS;
    s
}

/// The inputs `q` describes against `base` (the kinds this workload
/// asks; mirrors `Session`'s own derivation).
fn hypothetical(base: &Inputs, q: &WhatIf) -> Inputs {
    let mut i = base.clone();
    match q {
        WhatIf::Nop => {}
        WhatIf::SetPfail(p) => i.model = i.model.with_pfail(*p),
        _ => unreachable!("the workload asks only pfail queries"),
    }
    i
}

type WfKey = (WorkflowClass, usize, u64, Option<u64>, u64);

/// Replays a query's executed stages through the stage functions,
/// timing each under a child span of the query, and reassembles the
/// answer so the caller can check it bit for bit. Stages the query
/// served from the store are recomputed untimed when a replayed stage
/// downstream needs their artifact.
#[derive(Default)]
struct Replayer {
    workflows: HashMap<WfKey, Arc<WorkflowArtifact>>,
    schedules: HashMap<(WfKey, usize), Arc<Schedule>>,
    prev_plan: Option<CheckpointPlan>,
    /// (placements equal to the previous one, placements compared)
    reuse: (u64, u64),
}

impl Replayer {
    fn workflow(
        &mut self,
        tr: &mut Tracer,
        parent: u32,
        inputs: &Inputs,
        executed: bool,
    ) -> (WfKey, Arc<WorkflowArtifact>) {
        let WorkflowSource::Generated {
            class,
            size,
            seed,
            ccr,
        } = inputs.workflow
        else {
            unreachable!("the workload generates its workflow")
        };
        let key = (
            class,
            size,
            seed,
            ccr.map(f64::to_bits),
            inputs.bandwidth.to_bits(),
        );
        if executed || !self.workflows.contains_key(&key) {
            let generate = || pegasus::generate(class, size, seed);
            let mut w = if executed {
                tr.time(Layer::Generate, parent, || {
                    inject(StageId::Generate).expect("delay-only plans never fail a stage");
                    generate()
                })
            } else {
                generate()
            };
            if let Some(c) = ccr {
                pegasus::ccr::scale_to_ccr(&mut w, c, inputs.bandwidth);
            }
            self.workflows
                .insert(key, Arc::new(WorkflowArtifact::new(w)));
        }
        (key, self.workflows[&key].clone())
    }

    /// Replays one query; `None` when it executed no stage (nothing to
    /// replay or check).
    fn replay(
        &mut self,
        tr: &mut Tracer,
        parent: u32,
        inputs: &Inputs,
        executed: &BTreeSet<StageId>,
    ) -> Option<(f64, PlacementStats, f64)> {
        if executed.is_empty() {
            return None;
        }
        let ran = |s: StageId| executed.contains(&s);
        let expect = "inputs were validated by the session";
        let (key, wa) = self.workflow(tr, parent, inputs, ran(StageId::Generate));
        let w = &wa.workflow;
        let model = inputs.model.build(wa.mean_weight);
        let skey = (key, inputs.procs);
        if ran(StageId::Schedule) || !self.schedules.contains_key(&skey) {
            let compute = || schedule_stage(w, inputs.procs, &inputs.alloc).expect(expect);
            let s = if ran(StageId::Schedule) {
                tr.time(Layer::Schedule, parent, compute)
            } else {
                compute()
            };
            self.schedules.insert(skey, Arc::new(s));
        }
        let schedule = self.schedules[&skey].clone();
        let platform = Platform::with_model(inputs.procs, model, inputs.bandwidth);
        let curve_fn = || curve_stage(&w.dag, &platform).expect(expect);
        let curve = if ran(StageId::Curve) {
            tr.time(Layer::Curve, parent, curve_fn)
        } else {
            curve_fn()
        };
        let ctx = CostCtx {
            dag: &w.dag,
            model,
            bandwidth: inputs.bandwidth,
            curve: curve.as_ref(),
            budget: None,
        };
        let policy = inputs.policy.build();
        let place = || {
            placement_stage(
                &ctx,
                &schedule,
                policy.as_ref(),
                &mut PolicyScratch::new(),
                THREADS,
            )
            .expect(expect)
        };
        let plan = if ran(StageId::Placement) {
            let plan = tr.time(Layer::Placement, parent, place);
            if let Some(prev) = &self.prev_plan {
                self.reuse.0 += (*prev == plan) as u64;
                self.reuse.1 += 1;
            }
            self.prev_plan = Some(plan.clone());
            plan
        } else {
            place()
        };
        let graph = || segment_graph_stage(&ctx, &schedule, &plan).expect(expect);
        let sg = if ran(StageId::SegmentGraph) {
            tr.time(Layer::SegmentGraph, parent, graph)
        } else {
            graph()
        };
        let evaluator = inputs.evaluator.build();
        let eval = || evaluate_stage(&sg, evaluator.as_ref()).expect(expect);
        let em = if ran(StageId::EvalAnalytic) {
            tr.time(Layer::Eval, parent, eval)
        } else {
            eval()
        };
        Some((
            em,
            sg.placement_stats(&w.dag),
            schedule.failure_free_parallel_time(&w.dag),
        ))
    }
}

/// One query as the traced run issues it: timed as a `service.query`
/// span, then replayed. True if the answer is `Ok` and, when replayed,
/// the replay reproduces it bit for bit.
fn traced_query(
    tr: &mut Tracer,
    rep: &mut Replayer,
    s: &Session,
    q: &WhatIf,
) -> (u64, Result<Answer, String>) {
    s.tracker().clear();
    let t = Instant::now();
    let r = s.try_query(q);
    let ns = t.elapsed().as_nanos() as u64;
    let id = tr.push(Layer::Query, ROOT, ns);
    let a = match r {
        Ok(a) => a,
        Err(e) => return (ns, Err(format!("query failed: {e}"))),
    };
    let executed = s.tracker().executed();
    let inputs = hypothetical(s.inputs(), q);
    match rep.replay(tr, id, &inputs, &executed) {
        Some((em, stats, w_par))
            if em.to_bits() != a.expected_makespan.to_bits()
                || stats.segments != a.n_segments
                || stats.ckpt_files != a.ckpt_files
                || stats.ckpt_bytes.to_bits() != a.ckpt_bytes.to_bits()
                || w_par.to_bits() != a.w_par.to_bits()
                || inputs.policy.name() != a.policy =>
        {
            (ns, Err("replay differs from the service's answer".into()))
        }
        _ => (ns, Ok(a)),
    }
}

/// Answers `q` on `s` untraced. Every [`TRACKER_CLEAR_EVERY`] ops it
/// first clears the session's tracker, outside the timed part, so the
/// tracker does not grow without bound.
fn plain_query(i: u64, s: &Session, q: &WhatIf) -> (u64, Result<Answer, String>) {
    if i.is_multiple_of(TRACKER_CLEAR_EVERY) {
        s.tracker().clear();
    }
    let t = Instant::now();
    let r = s.try_query(q);
    let ns = t.elapsed().as_nanos() as u64;
    (ns, r.map_err(|e| format!("query failed: {e}")))
}

// --------------------------------------------------------- first visit

/// Range of the first-visit λ walk, in per-task pfail.
const PFAIL_LO: f64 = 1e-4;
const PFAIL_HI: f64 = 1e-2;
/// Share of walk steps that jump to a fresh log-uniform pfail; the rest
/// are small relative steps that often leave the plan unchanged.
const JUMP_SHARE: f64 = 0.2;
const SMALL_STEPS: [f64; 3] = [0.001, 0.01, 0.05];
/// First visits the untimed warm-up walk makes in set-up: more than
/// the store holds, so the timed phase starts with every memo full and
/// evicting.
const WARMUP_VISITS: usize = STORE_CAPACITY + 128;
/// Most sampled ops the cold-session check compares, and the sampling
/// rate, which spreads them over the first half of the timed phase.
const SAMPLES: usize = 64;
const SAMPLE_EVERY: u64 = 128;

/// Whether op `i` of a run on `seed` is sampled: one op in `every`,
/// chosen by seed.
fn sampled(seed: u64, i: u64, every: u64) -> bool {
    seedmix::derive(seed, &[0x5341_4d50, i]).is_multiple_of(every) // "SAMP"
}

/// A seeded λ drift walk that never repeats a value: mostly small
/// relative steps, sometimes a jump anywhere in the range.
struct Walk {
    seed: u64,
    n: u64,
    pfail: f64,
    seen: HashSet<u64>,
}

impl Walk {
    fn new(seed: u64, seen: HashSet<u64>) -> Self {
        Walk {
            seed,
            n: 0,
            pfail: PFAIL,
            seen,
        }
    }

    fn uniform(&mut self) -> f64 {
        self.n += 1;
        (seedmix::derive(self.seed, &[self.n]) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn next(&mut self) -> f64 {
        loop {
            let p = if self.uniform() < JUMP_SHARE {
                (PFAIL_LO.ln() + self.uniform() * (PFAIL_HI / PFAIL_LO).ln()).exp()
            } else {
                let step = SMALL_STEPS[(self.uniform() * SMALL_STEPS.len() as f64) as usize];
                let sign = if self.uniform() < 0.5 { -1.0 } else { 1.0 };
                (self.pfail * (1.0 + sign * step)).clamp(PFAIL_LO, PFAIL_HI)
            };
            if self.seen.insert(p.to_bits()) {
                self.pfail = p;
                return p;
            }
        }
    }
}

fn first_visit_inputs() -> Inputs {
    // The Montage-300 instance the ROADMAP's first-visit figure tracks
    // (the `whatif` binary's defaults).
    Inputs::basic(
        WorkflowSource::Generated {
            class: WorkflowClass::Montage,
            size: SIZE,
            seed: 9,
            ccr: Some(0.05),
        },
        Platform::paper_proc_counts(SIZE)[0],
        BANDWIDTH,
        ModelSpec::Exponential { pfail: PFAIL },
    )
}

/// Set-up: generate and schedule (the baseline query), then the
/// warm-up walk on its own stream, the same for every seed so that
/// `setup_s` does not vary with it. Returns the session and every pfail
/// visited so far.
fn first_visit_setup(
    tr: &mut Tracer,
    rep: &mut Replayer,
) -> Result<(Session, HashSet<u64>), String> {
    let store = Arc::new(Store::bounded(STORE_CAPACITY));
    let s = session(first_visit_inputs(), &store);
    let mut seen = HashSet::from([PFAIL.to_bits()]);
    let mut queries = vec![WhatIf::Nop];
    let mut warmup = Walk::new(0x5755_5057, seen.clone()); // "WUPW"
    queries.extend((0..WARMUP_VISITS).map(|_| WhatIf::SetPfail(warmup.next())));
    // A traced run traces the baseline, which generates and schedules;
    // the warm-up walk's first visits are the timed op's kind.
    for (i, q) in queries.iter().enumerate() {
        let (_, r) = if tr.on() && i == 0 {
            traced_query(tr, rep, &s, q)
        } else {
            plain_query(i as u64, &s, q)
        };
        r?;
    }
    seen.extend(warmup.seen);
    Ok((s, seen))
}

fn valid(a: &Answer) -> bool {
    a.expected_makespan.is_finite()
        && a.expected_makespan >= a.w_par
        && a.n_segments >= 1
        && a.w_par > 0.0
}

/// `whatif_first_visit`: every op asks a λ the session has never seen,
/// on a store too small to keep the walk.
pub fn first_visit(cfg: &RunCfg) -> Result<Outcome, String> {
    const NAME: &str = "whatif_first_visit";
    let mut tr = Tracer::new(cfg.trace);
    let mut rep = Replayer::default();
    let (s, seen) = first_visit_setup(&mut tr, &mut rep)?;
    let mut walk = Walk::new(seedmix::derive(cfg.seed, &[0x5449_4d57]), seen); // "TIMW"
    let mut samples: Vec<(f64, Answer)> = Vec::new();
    let mut plain = |i: u64| {
        let p = walk.next();
        let (ns, r) = plain_query(i, &s, &WhatIf::SetPfail(p));
        let ok = r.is_ok_and(|a| {
            if samples.len() < SAMPLES && sampled(cfg.seed, i, SAMPLE_EVERY) {
                samples.push((p, a));
            }
            valid(&a)
        });
        Some((ns, ok))
    };
    if cfg.trace {
        let untraced = closed_loop(cfg.seconds, 0, &mut plain);
        let traced = closed_loop(cfg.seconds, 0, |_| {
            if tr.full() {
                return None;
            }
            let (ns, r) = traced_query(&mut tr, &mut rep, &s, &WhatIf::SetPfail(walk.next()));
            Some((ns, r.is_ok_and(|a| valid(&a))))
        });
        let x = LayerExtras {
            reuse: rep.reuse,
            store: Some(s.store().stats()),
            ..LayerExtras::default()
        };
        return Ok(traced_outcome(NAME, &tr, &untraced, &traced, x, true));
    }
    let setup_s = cfg.setup_s();
    let mut phase = closed_loop(cfg.seconds, min_ops(LATENCY_WINDOWS), &mut plain);
    log_phase(NAME, "timed phase", &phase);
    // Read before the output check allocates.
    let rss_mb = peak_rss_mb();
    let base = s.inputs().clone();
    let mut bad = 0u64;
    for (p, a) in &samples {
        if !same(&cold_answer(&base, &WhatIf::SetPfail(*p))?, a) {
            bad += 1;
        }
    }
    phase.ok -= bad.min(phase.ok);
    eprintln!(
        "{NAME}: check against cold sessions: {} of {} sampled ops bit-identical; store {}",
        samples.len() as u64 - bad,
        samples.len(),
        s.store().stats().totals
    );
    Ok(outcome(
        bad == 0,
        &phase,
        end_to_end(setup_s, rss_mb, &phase)?,
    ))
}

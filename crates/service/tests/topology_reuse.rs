//! The segment topology is keyed on what it reads — workflow,
//! bandwidth, schedule and plan — not on the failure model, so every λ
//! and every policy that places the same checkpoints shares one. These
//! tests pin that the sharing is sound (answers equal cold sessions bit
//! for bit) and exact (the topology is served from the store precisely
//! when the query's plan is one the store still holds).

use std::collections::HashMap;
use std::sync::Arc;

use ckpt_core::{CheckpointPlan, DpOptimalPolicy, Pipeline, Platform, ScheduleArtifact, StageId};
use ckpt_service::{
    Answer, Inputs, McSpec, ModelSpec, PolicySpec, Session, Store, WhatIf, WorkflowSource,
};
use pegasus::WorkflowClass;

const SIZE: usize = 300;
const PROCS: usize = 18;
const BANDWIDTH: f64 = 1e8;
const CCR: f64 = 0.05;

fn inputs(class: WorkflowClass, pfail: f64) -> Inputs {
    let source = WorkflowSource::Generated {
        class,
        size: SIZE,
        seed: 9,
        ccr: Some(CCR),
    };
    Inputs::basic(source, PROCS, BANDWIDTH, ModelSpec::Exponential { pfail })
}

fn assert_same(what: &str, a: &Answer, b: &Answer) {
    assert_eq!(a.policy, b.policy, "{what}: policy");
    let bits = |a: &Answer| {
        [
            a.expected_makespan.to_bits(),
            a.n_checkpoints as u64,
            a.n_segments as u64,
            a.ckpt_files as u64,
            a.ckpt_bytes.to_bits(),
            a.w_par.to_bits(),
        ]
    };
    assert_eq!(bits(a), bits(b), "{what}");
    let mc = |a: &Answer| {
        a.mc.map(|m| [m.mean_makespan.to_bits(), m.stderr.to_bits()])
    };
    assert_eq!(mc(a), mc(b), "{what}: mc");
    assert_eq!(a.degraded, b.degraded, "{what}: degraded");
}

fn cold(inputs: &Inputs) -> Answer {
    Session::new(inputs.clone()).baseline()
}

/// A seeded walk of `n` pfail values over a ladder of `rungs` values
/// from 1e-4 to 1e-2: mostly a step to a neighbouring rung, one step in
/// five a jump to any rung, so it revisits both λs and placements.
fn walk(n: usize, rungs: usize, seed: u64) -> Vec<f64> {
    let rung = |i: usize| 1e-4 * 100f64.powf(i as f64 / (rungs - 1) as f64);
    let mut at = rungs / 2;
    (0..n as u64)
        .map(|k| {
            let r = seedmix::derive(seed, &[k]);
            at = match r % 10 {
                0 | 1 => (r >> 8) as usize % rungs,
                2..=5 => at.saturating_sub(1),
                _ => (at + 1).min(rungs - 1),
            };
            rung(at)
        })
        .collect()
}

/// A λ walk with revisits on a store of 8 entries per memo: every
/// answer equals a cold session's, and SegmentGraph is `Cached` exactly
/// when the query's plan is among the 8 the graphs memo still holds (an
/// LRU of plans, touched once per query, models it).
#[test]
fn a_lambda_walk_reuses_topologies_soundly() {
    const CAPACITY: usize = 8;
    for class in [WorkflowClass::Montage, WorkflowClass::Genome] {
        let base = inputs(class, 1e-3);
        let store = Arc::new(Store::bounded(CAPACITY));
        let session = Session::with_store(base.clone(), store.clone());

        // The plan each λ places, from the one-shot pipeline.
        let mut w = pegasus::generate(class, SIZE, 9);
        pegasus::ccr::scale_to_ccr(&mut w, CCR, BANDWIDTH);
        let mean = w.dag.mean_weight();
        let schedule = ScheduleArtifact::new(ckpt_core::allocate(&w, PROCS, &base.alloc), &w.dag);
        let plan_of = |pfail: f64| {
            let model = ModelSpec::Exponential { pfail }.build(mean);
            let platform = Platform::with_model(PROCS, model, BANDWIDTH);
            Pipeline::with_schedule(&w, platform, &schedule).plan(&DpOptimalPolicy)
        };

        let mut plans: HashMap<u64, CheckpointPlan> = HashMap::new();
        let mut colds: HashMap<u64, Answer> = HashMap::new();
        let mut lru: Vec<CheckpointPlan> = Vec::new();
        let mut seen: Vec<CheckpointPlan> = Vec::new();
        let (mut reused, mut built, mut rebuilt) = (0, 0, 0);
        for (i, pfail) in walk(200, 40, 0x544f_504f).into_iter().enumerate() {
            let what = format!("{class:?} query {i} pfail {pfail:e}");
            session.tracker().clear();
            let answer = session.query(&WhatIf::SetPfail(pfail));
            let want = colds
                .entry(pfail.to_bits())
                .or_insert_with(|| cold(&inputs(class, pfail)));
            assert_same(&what, &answer, want);

            let plan = plans
                .entry(pfail.to_bits())
                .or_insert_with(|| plan_of(pfail))
                .clone();
            let held = lru.iter().position(|p| *p == plan);
            let tracker = session.tracker();
            assert_eq!(
                held.is_some(),
                tracker.cached().contains(&StageId::SegmentGraph),
                "{what}: served from the store"
            );
            assert_eq!(
                held.is_none(),
                tracker.executed().contains(&StageId::SegmentGraph),
                "{what}: coalesced"
            );
            match held {
                Some(at) => {
                    reused += 1;
                    lru.remove(at);
                }
                None if seen.contains(&plan) => rebuilt += 1,
                None => {
                    built += 1;
                    seen.push(plan.clone());
                }
            }
            lru.push(plan);
            if lru.len() > CAPACITY {
                lru.remove(0);
            }
        }
        let graphs = store.graphs.stats();
        assert_eq!((graphs.hits, graphs.misses), (reused, built + rebuilt));
        assert!(store.graphs.len() <= CAPACITY);
        // The walk exercised all three paths.
        assert!(
            reused > 0 && built > CAPACITY as u64 && rebuilt > 0,
            "{class:?}: reused {reused}, built {built}, rebuilt {rebuilt}"
        );
    }
}

/// CkptAll and a risk bound below every segment's failure probability
/// place the same checkpoints: the second policy's query finds the
/// first's topology and Monte Carlo estimate, and still answers in its
/// own name, equal to its cold session.
#[test]
fn policies_placing_the_same_plan_share_topology_and_estimate() {
    let mut base = inputs(WorkflowClass::Montage, 1e-3);
    base.mc = Some(McSpec { runs: 64, seed: 5 });
    let session = Session::new(base.clone());
    let specs = [PolicySpec::CkptAll, PolicySpec::Risk { max_risk: 1e-12 }];
    let mut answers = Vec::new();
    for spec in specs {
        session.tracker().clear();
        answers.push(session.query(&WhatIf::SetPolicy(spec)));
    }
    let tracker = session.tracker();
    assert_eq!(
        tracker.executed(),
        [StageId::Placement, StageId::EvalAnalytic].into()
    );
    assert!(tracker.cached().contains(&StageId::SegmentGraph));
    assert!(tracker.cached().contains(&StageId::EvalMc));
    let stats = session.store().stats();
    let memo = |name: &str| stats.per_memo.iter().find(|(n, _)| *n == name).unwrap().1;
    assert_eq!((memo("graphs").hits, memo("graphs").misses), (1, 1));
    assert_eq!((memo("sims").hits, memo("sims").misses), (1, 1));

    assert_eq!(answers[0].policy, "CkptAll");
    assert_eq!(answers[1].policy, "RiskThreshold");
    for (spec, answer) in specs.iter().zip(&answers) {
        let mut inputs = base.clone();
        inputs.policy = *spec;
        assert_same(spec.name(), answer, &cold(&inputs));
    }
}

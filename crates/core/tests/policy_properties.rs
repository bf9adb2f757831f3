//! Property tests for the checkpoint-policy subsystem: the DP's
//! optimality pin against every other builtin policy, the Daly
//! collapse on uniform chains, placement validity (segment-graph
//! invariants) for every builtin policy, and byte-identity of the
//! paper's placements' segment graphs to their direct construction on
//! seeded Pegasus instances.

use ckpt_core::policy::{
    placement_expected_time, CheckpointPolicy, CkptAllPolicy, DalyPeriodic, DpOptimalPolicy,
    ExitOnlyPolicy, GreedyCrossover, PolicyScratch, RiskThreshold,
};
use ckpt_core::{
    allocate, coalesce, optimal_checkpoints, AllocateConfig, CheckpointPlan, CostCtx, FailureModel,
    Pipeline, Platform, SegmentCostScratch, SegmentGraph,
};
use mspg::gen::{random_workflow, GenConfig};
use mspg::linearize::Linearizer;
use mspg::{Dag, Mspg, TaskId, Workflow};
use probdag::NodeDist;
use proptest::prelude::*;

fn wf(n: usize, seed: u64) -> Workflow {
    random_workflow(&GenConfig {
        n_tasks: n,
        max_branch: 4,
        weight_range: (0.5, 60.0),
        size_range: (1.0, 5e7),
        seed,
    })
}

/// Every builtin policy, boxed (default knobs).
fn builtin_policies() -> Vec<Box<dyn CheckpointPolicy>> {
    vec![
        Box::new(CkptAllPolicy),
        Box::new(ExitOnlyPolicy),
        Box::new(DpOptimalPolicy),
        Box::new(DalyPeriodic::auto()),
        Box::new(RiskThreshold::default()),
        Box::new(GreedyCrossover),
    ]
}

/// A chain of `n` tasks of identical weight whose identical-size output
/// feeds the next task (the "uniform tasks" limit of the Daly-collapse
/// satellite).
fn uniform_chain(n: usize, weight: f64, out_bytes: f64) -> (Workflow, Vec<TaskId>) {
    let mut dag = Dag::new();
    let k = dag.add_kind("t");
    let ids: Vec<TaskId> = (0..n)
        .map(|i| dag.add_task_with_output(&format!("t{i}"), k, weight, out_bytes))
        .collect();
    for w in ids.windows(2) {
        let f = dag.primary_output(w[0]).unwrap();
        dag.add_edge(w[1], f);
    }
    let root = Mspg::chain(ids.iter().copied()).unwrap();
    (Workflow::new(dag, root), ids)
}

/// Bitwise comparison of two segment graphs: same segments (tasks,
/// processors, cost bits) and the same 2-state node laws bit-for-bit.
fn assert_segment_graphs_bitwise_eq(a: &SegmentGraph, b: &SegmentGraph, label: &str) {
    assert_eq!(a.segments.len(), b.segments.len(), "{label}: segment count");
    for (i, (x, y)) in a.segments.iter().zip(b.segments.iter()).enumerate() {
        assert_eq!(x.tasks, y.tasks, "{label}: segment {i} tasks");
        assert_eq!(x.proc, y.proc, "{label}: segment {i} proc");
        assert_eq!(x.superchain, y.superchain, "{label}: segment {i} chain");
        assert_eq!(x.cost.r.to_bits(), y.cost.r.to_bits(), "{label}: r");
        assert_eq!(x.cost.w.to_bits(), y.cost.w.to_bits(), "{label}: w");
        assert_eq!(x.cost.c.to_bits(), y.cost.c.to_bits(), "{label}: c");
    }
    assert_eq!(a.task_segment, b.task_segment, "{label}: task map");
    assert_eq!(a.pdag.n_edges(), b.pdag.n_edges(), "{label}: edges");
    for v in a.pdag.node_ids() {
        match (a.pdag.dist(v), b.pdag.dist(v)) {
            (NodeDist::Certain(p), NodeDist::Certain(q)) => {
                assert_eq!(p.to_bits(), q.to_bits(), "{label}: node {v:?}")
            }
            (
                NodeDist::TwoState {
                    low: l1,
                    high: h1,
                    p_high: p1,
                },
                NodeDist::TwoState {
                    low: l2,
                    high: h2,
                    p_high: p2,
                },
            ) => {
                assert_eq!(l1.to_bits(), l2.to_bits(), "{label}: node {v:?} low");
                assert_eq!(h1.to_bits(), h2.to_bits(), "{label}: node {v:?} high");
                assert_eq!(p1.to_bits(), p2.to_bits(), "{label}: node {v:?} p");
            }
            (x, y) => panic!("{label}: node {v:?} law mismatch: {x:?} vs {y:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Optimality pin: on every superchain, the DP's expected execution
    /// time (the objective all placement policies are scored by) is no
    /// worse than any other builtin policy's.
    #[test]
    fn dp_is_optimal_among_all_policies(n in 2usize..60, seed: u64,
                                        lambda in 1e-6f64..0.02) {
        let w = wf(n, seed);
        let sched = allocate(&w, 1, &AllocateConfig { linearizer: Linearizer::RandomTopo, seed });
        let ctx = CostCtx::exponential(&w.dag, lambda, 1e7);
        let mut scratch = PolicyScratch::new();
        let mut seg_scratch = SegmentCostScratch::new();
        for sc in &sched.superchains {
            let len = sc.tasks.len();
            let mut dp_out = vec![false; len];
            DpOptimalPolicy.place(&ctx, &sc.tasks, &mut scratch, &mut dp_out);
            let dp_time = placement_expected_time(&ctx, &sc.tasks, &dp_out, &mut seg_scratch);
            for policy in builtin_policies() {
                let mut out = vec![false; len];
                policy.place(&ctx, &sc.tasks, &mut scratch, &mut out);
                let time = placement_expected_time(&ctx, &sc.tasks, &out, &mut seg_scratch);
                prop_assert!(
                    dp_time <= time * (1.0 + 1e-9),
                    "{}: dp {dp_time} vs {time}", policy.name()
                );
            }
        }
    }

    /// Daly collapse: on a uniform chain, DalyPeriodic driven by the
    /// DP's own checkpoint count (period = total work / count) places
    /// near-evenly and lands within a few percent of the DP's optimal
    /// expected time, with at most one extra segment.
    #[test]
    fn daly_with_dp_count_collapses_toward_dp_on_uniform_chains(
        n in 4usize..60,
        weight in 0.5f64..5.0,
        out_bytes in 0.0f64..2.0,   // bandwidth 1: c ≤ 2, comparable to w
        lambda in 1e-4f64..0.02,
    ) {
        let (w, ids) = uniform_chain(n, weight, out_bytes);
        let ctx = CostCtx::exponential(&w.dag, lambda, 1.0);
        let dp = optimal_checkpoints(&ctx, &ids);
        let m = dp.ckpt_after.iter().filter(|&&c| c).count();
        let period = weight * n as f64 / m as f64;
        let daly = DalyPeriodic::with_period(period);
        let mut scratch = PolicyScratch::new();
        let mut out = vec![false; n];
        daly.place(&ctx, &ids, &mut scratch, &mut out);
        let daly_count = out.iter().filter(|&&c| c).count();
        prop_assert!(daly_count <= m + 1, "daly {daly_count} vs dp {m}");
        let mut seg_scratch = SegmentCostScratch::new();
        let daly_time = placement_expected_time(&ctx, &ids, &out, &mut seg_scratch);
        prop_assert!(
            daly_time <= dp.expected_time * 1.05,
            "daly {daly_time} vs dp {} (count {m}, period {period})", dp.expected_time
        );
    }

    /// Every builtin policy produces a valid placement on arbitrary
    /// M-SPGs, processor counts, and failure-model families: every
    /// superchain ends in a checkpoint (asserted by `plan_with_policy`
    /// and `coalesce`), the checkpointed-file set is closed under the
    /// segment-graph invariants (acyclic, every task in exactly one
    /// segment), and the coalesced node count matches the plan's
    /// checkpoint count.
    #[test]
    fn every_builtin_policy_yields_a_valid_placement(
        n in 1usize..100, p in 1usize..8, seed: u64, family in 0usize..2,
    ) {
        let w = wf(n, seed);
        let w_bar = w.dag.mean_weight();
        let model = if family == 0 {
            FailureModel::exponential_from_pfail(0.01, w_bar)
        } else {
            FailureModel::weibull_from_pfail(2.0, 0.01, w_bar)
        };
        let platform = Platform::with_model(p, model, 1e7);
        let cfg = AllocateConfig { linearizer: Linearizer::RandomTopo, seed };
        let pipe = Pipeline::new(&w, platform, &cfg);
        for policy in builtin_policies() {
            let plan = pipe.plan(policy.as_ref());
            prop_assert_eq!(plan.ckpt_after.len(), n);
            for sc in &pipe.schedule.superchains {
                prop_assert!(
                    plan.ckpt_after[sc.tasks.last().unwrap().index()],
                    "{}: superchain exit not checkpointed", policy.name()
                );
            }
            let sg = pipe.segment_graph(policy.as_ref());
            prop_assert_eq!(sg.segments.len(), plan.n_checkpoints());
            // Acyclic (topo_order panics on cycles) and a full cover.
            let order = sg.pdag.topo_order();
            prop_assert_eq!(order.len(), sg.segments.len());
            let covered: usize = sg.segments.iter().map(|s| s.tasks.len()).sum();
            prop_assert_eq!(covered, n);
            prop_assert!(sg.task_segment.iter().all(|&s| s != u32::MAX));
            // The placement census prices exactly what the segment
            // costs price.
            let stats = sg.placement_stats(&w.dag);
            let c_bytes = sg.total_checkpoint_time() * 1e7;
            prop_assert!(
                (stats.ckpt_bytes - c_bytes).abs() <= 1e-6 * c_bytes.max(1.0),
                "{}: census {} vs priced {}", policy.name(), stats.ckpt_bytes, c_bytes
            );
        }
    }
}

/// The paper's placements, as policies, reproduce their directly built
/// segment graphs bit-for-bit on seeded Pegasus instances:
/// CkptAll against the all-true plan, ExitOnly against the
/// last-task-per-superchain plan, CkptSome against fresh per-superchain
/// `optimal_checkpoints` calls.
#[test]
fn legacy_strategies_are_bitwise_identical_to_pre_refactor_graphs() {
    for class in pegasus::WorkflowClass::ALL {
        for seed in [1u64, 7] {
            let w = pegasus::generate(class, 50, seed);
            let lambda = ckpt_core::lambda_from_pfail(0.001, w.dag.mean_weight());
            let platform = Platform::new(5, lambda, 1e7);
            let cfg = AllocateConfig {
                linearizer: Linearizer::RandomTopo,
                seed,
            };
            let pipe = Pipeline::new(&w, platform, &cfg);
            let ctx = CostCtx::exponential(&w.dag, lambda, 1e7);
            // Pre-refactor constructions of the three placements.
            let all = CheckpointPlan {
                ckpt_after: vec![true; w.dag.n_tasks()],
            };
            let mut exit = CheckpointPlan {
                ckpt_after: vec![false; w.dag.n_tasks()],
            };
            let mut some = CheckpointPlan {
                ckpt_after: vec![false; w.dag.n_tasks()],
            };
            for sc in &pipe.schedule.superchains {
                exit.ckpt_after[sc.tasks.last().unwrap().index()] = true;
                let choice = optimal_checkpoints(&ctx, &sc.tasks);
                for (k, &t) in sc.tasks.iter().enumerate() {
                    some.ckpt_after[t.index()] = choice.ckpt_after[k];
                }
            }
            let placements: [(&dyn CheckpointPolicy, _); 3] = [
                (&CkptAllPolicy, &all),
                (&ExitOnlyPolicy, &exit),
                (&DpOptimalPolicy, &some),
            ];
            for (policy, reference) in placements {
                let name = policy.name();
                assert_eq!(
                    &pipe.plan(policy),
                    reference,
                    "{class} seed {seed}: {name} plan"
                );
                let via_policy = pipe.segment_graph(policy);
                let pre_refactor = coalesce(&ctx, &pipe.schedule, reference);
                assert_segment_graphs_bitwise_eq(
                    &via_policy,
                    &pre_refactor,
                    &format!("{class} seed {seed}: {name}"),
                );
            }
        }
    }
}

/// `plan_with_policy` and `Pipeline::plan_reusing` agree with
/// the one-shot path when a scratch is reused across many plans (the
/// steady-state loop of the E10 scenario and the policy bench).
#[test]
fn reused_policy_scratch_is_bitwise_identical_to_fresh() {
    let w = pegasus::generate(pegasus::WorkflowClass::Montage, 120, 3);
    let lambda = ckpt_core::lambda_from_pfail(0.01, w.dag.mean_weight());
    let platform = Platform::new(18, lambda, 1e7);
    let pipe = Pipeline::new(&w, platform, &AllocateConfig::default());
    let mut scratch = PolicyScratch::new();
    for _ in 0..2 {
        for policy in builtin_policies() {
            let reused = pipe.plan_reusing(policy.as_ref(), &mut scratch);
            let fresh = pipe.plan(policy.as_ref());
            assert_eq!(reused, fresh, "{}", policy.name());
        }
    }
}

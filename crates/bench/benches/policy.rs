//! Criterion bench: checkpoint-planning cost per policy — a whole-plan
//! pass (every superchain of the schedule) on the 300-task Genome and
//! Montage instances, with one reused `PolicyScratch` so the DP rides
//! its allocation-free `DpScratch` path. The DP's `O(n²)` segment-table
//! sweep is the reference cost; DalyPeriodic is `O(n)` segment-cost
//! probes plus the effective-rate fixed point; RiskThreshold re-sweeps
//! the open segment per task; GreedyCrossover is a pure structural
//! scan. `dp-stored-tables` times the DP's two halves on Montage-300:
//! a placement from scratch (fill and minimization, what `Pipeline`
//! runs) against the minimization alone on stored segment tables (what
//! a first-visit λ query of the service runs).

use ckpt_core::policy::{
    plan_on_tables, plan_with_policy, CheckpointPolicy, DalyPeriodic, DpOptimalPolicy,
    GreedyCrossover, PolicyScratch, RiskThreshold,
};
use ckpt_core::stage::{curve_stage, segment_costs_stage};
use ckpt_core::{AllocateConfig, CostCtx, FailureModel, Pipeline, Platform};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pegasus::ccr::scale_to_ccr;
use pegasus::WorkflowClass;

fn bench_policy_planning(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy-planning");
    group.sample_size(20);
    let policies: [(&str, &dyn CheckpointPolicy); 4] = [
        ("dp", &DpOptimalPolicy),
        ("daly", &DalyPeriodic { period: None }),
        ("risk", &RiskThreshold { max_risk: 0.1 }),
        ("crossover", &GreedyCrossover),
    ];
    for class in [WorkflowClass::Genome, WorkflowClass::Montage] {
        let mut w = pegasus::generate(class, 300, 42);
        let bw = 1e8;
        scale_to_ccr(&mut w, 0.01, bw);
        let lambda = ckpt_core::lambda_from_pfail(0.001, w.dag.mean_weight());
        let platform = Platform::new(18, lambda, bw);
        let pipe = Pipeline::new(&w, platform, &AllocateConfig::default());
        let mut scratch = PolicyScratch::new();
        for (name, policy) in policies {
            group.bench_with_input(
                BenchmarkId::new(name, format!("{class}-300")),
                &pipe,
                |b, pipe| b.iter(|| pipe.plan_reusing(policy, &mut scratch)),
            );
        }
    }
    group.finish();
}

fn bench_policy_planning_weibull(c: &mut Criterion) {
    // Non-memoryless planning rides the pipeline's RestartCurve: the
    // DP's O(n²) renewal queries and Daly's effective-rate fixed point
    // both answer from the table.
    let mut group = c.benchmark_group("policy-planning-weibull-k2");
    group.sample_size(10);
    let mut w = pegasus::generate(WorkflowClass::Genome, 300, 42);
    let bw = 1e8;
    scale_to_ccr(&mut w, 0.01, bw);
    let model = FailureModel::weibull_from_pfail(2.0, 0.001, w.dag.mean_weight());
    let platform = Platform::with_model(18, model, bw);
    let pipe = Pipeline::new(&w, platform, &AllocateConfig::default());
    let mut scratch = PolicyScratch::new();
    let policies: [(&str, &dyn CheckpointPolicy); 3] = [
        ("dp", &DpOptimalPolicy),
        ("daly", &DalyPeriodic { period: None }),
        ("risk", &RiskThreshold { max_risk: 0.1 }),
    ];
    for (name, policy) in policies {
        group.bench_function(BenchmarkId::new(name, "genome-300"), |b| {
            b.iter(|| pipe.plan_reusing(policy, &mut scratch))
        });
    }
    group.finish();
}

fn bench_dp_stored_tables(c: &mut Criterion) {
    let mut group = c.benchmark_group("dp-stored-tables");
    group.sample_size(20);
    let mut w = pegasus::generate(WorkflowClass::Montage, 300, 9);
    let bw = 1e8;
    scale_to_ccr(&mut w, 0.05, bw);
    let schedule = ckpt_core::allocate(&w, 18, &AllocateConfig::default());
    let tables = segment_costs_stage(&w.dag, bw, &schedule).unwrap();
    let mean = w.dag.mean_weight();
    let models = [
        ("exp", FailureModel::exponential_from_pfail(0.001, mean)),
        (
            "weibull-k2",
            FailureModel::weibull_from_pfail(2.0, 0.001, mean),
        ),
    ];
    let mut scratch = PolicyScratch::new();
    for (name, model) in models {
        let curve = curve_stage(&w.dag, &Platform::with_model(18, model, bw)).unwrap();
        let ctx = CostCtx::with_curve(&w.dag, model, bw, curve.as_ref());
        group.bench_function(BenchmarkId::new("from-scratch", name), |b| {
            b.iter(|| plan_with_policy(&ctx, &schedule, &DpOptimalPolicy, &mut scratch))
        });
        group.bench_function(BenchmarkId::new("stored-tables", name), |b| {
            b.iter(|| plan_on_tables(&ctx, &schedule, &tables, &mut scratch, 1))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_policy_planning,
    bench_policy_planning_weibull,
    bench_dp_stored_tables
);
criterion_main!(benches);

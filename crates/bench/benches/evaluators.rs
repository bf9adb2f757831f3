//! Criterion bench: the four expected-makespan evaluators of §VI-B on a
//! coalesced Genome-300 CkptAll graph (the paper's speed comparison:
//! PathApprox ≪ Normal < Dodin ≪ MonteCarlo), PathApprox on Montage-300,
//! and the coalescing that builds their input graphs.

use ckpt_bench::{instance, pipeline_for};
use ckpt_core::{
    coalesce, coalesce_topology, CheckpointPolicy, CkptAllPolicy, CostCtx, DpOptimalPolicy,
};
use criterion::{criterion_group, criterion_main, Criterion};
use probdag::{Dodin, Evaluator, MonteCarlo, NormalSculli, PathApprox};

fn bench_evaluators(c: &mut Criterion) {
    let w = instance(pegasus::WorkflowClass::Genome, 300, 1e-3, 42);
    let pipe = pipeline_for(&w, 18, 0.01, 42);
    let sg = pipe.segment_graph(&CkptAllPolicy);
    let pdag = sg.pdag;

    let mut group = c.benchmark_group("evaluators-genome300");
    group.bench_function("pathapprox", |b| {
        b.iter(|| PathApprox::default().expected_makespan(&pdag))
    });
    group.bench_function("normal", |b| {
        b.iter(|| NormalSculli.expected_makespan(&pdag))
    });
    group.bench_function("dodin", |b| {
        b.iter(|| Dodin::default().expected_makespan(&pdag))
    });
    group.sample_size(10);
    group.bench_function("montecarlo-10k", |b| {
        let mc = MonteCarlo {
            trials: 10_000,
            seed: 1,
            threads: 0,
        };
        b.iter(|| mc.run(&pdag).mean)
    });
    group.finish();
}

fn bench_pathapprox_montage(c: &mut Criterion) {
    // Montage's complete-bipartite levels are PathApprox's worst case:
    // the CkptAll graph has 10,159 edges on 300 nodes, so a node
    // crossing a level has hundreds of predecessors to sweep and, once
    // asked for a second path, to heapify; and the Clark fold can skip
    // only about a quarter of the pairs of its K best paths. K = 256 is
    // the production default. `reused` holds one
    // evaluator across iterations (the steady-state assess loop: arena,
    // heaps and bitsets at their high-water marks, no per-run
    // allocations); `fresh` constructs a new evaluator per run.
    let w = instance(pegasus::WorkflowClass::Montage, 300, 1e-3, 42);
    let pipe = pipeline_for(&w, 18, 0.01, 42);
    let sg = pipe.segment_graph(&CkptAllPolicy);
    let pdag = sg.pdag;
    // The what-if first visit's shape: the CkptSome graph of the
    // Montage-300 instance the service benchmark queries (seed 9, CCR
    // 0.05, 18 processors), at pfail 1e-3.
    let w9 = instance(pegasus::WorkflowClass::Montage, 300, 0.05, 9);
    let some = pipeline_for(&w9, 18, 1e-3, 9)
        .segment_graph(&DpOptimalPolicy)
        .pdag;

    let mut group = c.benchmark_group("pathapprox-montage300-k256");
    let reused = PathApprox::default();
    group.bench_function("reused", |b| b.iter(|| reused.expected_makespan(&pdag)));
    group.bench_function("fresh", |b| {
        b.iter(|| PathApprox::default().expected_makespan(&pdag))
    });
    group.bench_function("ckptsome-first-visit", |b| {
        b.iter(|| reused.expected_makespan(&some))
    });
    group.finish();
}

fn bench_coalesce_montage(c: &mut Criterion) {
    // The first-visit what-if instance (Montage-300, seed 9, CCR 0.05,
    // 18 processors, pfail 1e-3). `coalesce` builds the segment graph
    // from scratch, as a one-shot pipeline does; `with-model` re-models
    // a stored topology of the same plan, which is all a what-if
    // session runs when a λ drift keeps the placement.
    let w = instance(pegasus::WorkflowClass::Montage, 300, 0.05, 9);
    let pipe = pipeline_for(&w, 18, 1e-3, 9);
    let ctx = CostCtx::with_model(&w.dag, pipe.platform.model, pipe.platform.bandwidth);
    let mut group = c.benchmark_group("coalesce-montage300");
    let policies: [(&str, &dyn CheckpointPolicy); 2] =
        [("ckptsome", &DpOptimalPolicy), ("ckptall", &CkptAllPolicy)];
    for (name, policy) in policies {
        let plan = pipe.plan(policy);
        let topo = coalesce_topology(&w.dag, ctx.bandwidth, &pipe.schedule, &plan);
        group.bench_function(format!("{name}/coalesce"), |b| {
            b.iter(|| coalesce(&ctx, &pipe.schedule, &plan))
        });
        group.bench_function(format!("{name}/with-model"), |b| {
            b.iter(|| topo.with_model(&ctx))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_evaluators,
    bench_pathapprox_montage,
    bench_coalesce_montage
);
criterion_main!(benches);

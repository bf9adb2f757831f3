//! Criterion bench: discrete-event simulator throughput (per-execution
//! cost of the checkpointed renewal simulation and the CkptNone cascade
//! engine).

use ckpt_bench::{instance, pipeline_for};
use ckpt_core::DpOptimalPolicy;
use criterion::{criterion_group, criterion_main, Criterion};
use failsim::{simulate_none, simulate_segments_model, ModelFailures};

fn bench_sim(c: &mut Criterion) {
    let w = instance(pegasus::WorkflowClass::Genome, 300, 1e-3, 42);
    let pipe = pipeline_for(&w, 18, 0.001, 42);
    let sg = pipe.segment_graph(&DpOptimalPolicy);

    let mut group = c.benchmark_group("failsim-genome300");
    group.bench_function("segments-one-run", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            simulate_segments_model(&sg, &pipe.platform.model, seed)
        })
    });
    group.bench_function("ckptnone-one-run", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut src = ModelFailures::new(pipe.platform.model, seed);
            simulate_none(&w.dag, &pipe.schedule, &mut src, 1_000_000).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);

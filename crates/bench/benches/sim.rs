//! Criterion bench: discrete-event simulator throughput (per-execution
//! cost of the checkpointed renewal simulation and the CkptNone cascade
//! engine).

use ckpt_bench::BANDWIDTH;
use ckpt_core::{lambda_from_pfail, AllocateConfig, DpOptimalPolicy, Pipeline, Platform};
use criterion::{criterion_group, criterion_main, Criterion};
use failsim::{simulate_none, simulate_segments_model, ModelFailures};
use pegasus::ccr::scale_to_ccr;

fn bench_sim(c: &mut Criterion) {
    let mut w = pegasus::generate(pegasus::WorkflowClass::Genome, 300, 42);
    scale_to_ccr(&mut w, 1e-3, BANDWIDTH);
    let lambda = lambda_from_pfail(0.001, w.dag.mean_weight());
    let cfg = AllocateConfig {
        seed: 42,
        ..Default::default()
    };
    let pipe = Pipeline::new(&w, Platform::new(18, lambda, BANDWIDTH), &cfg);
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

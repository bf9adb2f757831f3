//! Golden bits: every field of every Monte Carlo entry point, pinned on
//! one fixed instance (Genome-50 seed 4 on 5 processors). Refactors of
//! the estimators must leave each of these bits as it is, at any thread
//! budget: a changed bit is a changed E5/E9–E11 CSV.

use ckpt_core::{allocate, lambda_from_pfail, AllocateConfig, FailureModel};
use ckpt_core::{Pipeline, Platform, Strategy};
use failsim::{
    montecarlo_none_model, montecarlo_segments_model, simulate_segments_model, Estimator,
    NoneMcStats, SimConfig, SplitConfig,
};
use pegasus::{generate, WorkflowClass};

const THREADS: [usize; 2] = [1, 3];

fn cfg(threads: usize, estimator: Estimator) -> SimConfig {
    SimConfig {
        runs: 400,
        seed: 21,
        threads,
        max_failures: 300,
        estimator,
        tail_at: 2,
    }
}

/// All eight fields, floats as bits, counts as themselves.
fn none_bits(r: &NoneMcStats) -> [u64; 8] {
    [
        r.stats.mean_makespan.to_bits(),
        r.stats.stderr.to_bits(),
        r.stats.mean_failures.to_bits(),
        r.stats.mean_wasted.to_bits(),
        r.stats.runs as u64,
        r.diverged as u64,
        r.p_tail.to_bits(),
        r.p_tail_stderr.to_bits(),
    ]
}

/// Weibull k = 2 wear-out at pfail 3e-3 with a 300-failure budget: a
/// few naive runs and more splitting roots are censored, so the
/// censoring contract is pinned along with the converged statistics.
#[test]
fn ckpt_none_estimators_keep_their_bits() {
    let w = generate(WorkflowClass::Genome, 50, 4);
    let sched = allocate(&w, 5, &AllocateConfig::default());
    let model = FailureModel::weibull_from_pfail(2.0, 3e-3, w.dag.mean_weight());
    let split = Estimator::Splitting(SplitConfig {
        factor: 2,
        stride: 1,
        max_levels: 4,
    });
    for threads in THREADS {
        let naive = montecarlo_none_model(&w.dag, &sched, &model, &cfg(threads, Estimator::Naive));
        assert_eq!(
            none_bits(&naive),
            [
                0x40c2df548bf6c9a2,
                0x4080aede4166e11b,
                0x404a5dc28f5c28f6,
                0x409d1a0873f40a4a,
                395,
                5,
                0x3fea28f5c28f5c29,
                0x3f93cd136a77fd42,
            ],
            "naive, threads={threads}"
        );
        let split = montecarlo_none_model(&w.dag, &sched, &model, &cfg(threads, split));
        assert_eq!(
            none_bits(&split),
            [
                0x40c18056b8814fad,
                0x4071bd6abfc1964e,
                0x40487b3851eb851f,
                0x409b6755799d3078,
                362,
                38,
                0x3fea147ae147ae14,
                0x3f9392a9269cb62f,
            ],
            "splitting, threads={threads}"
        );
    }
}

/// Exponential failures at pfail 1e-2 on the CkptSome segment graph.
#[test]
fn segment_mc_and_one_run_keep_their_bits() {
    let w = generate(WorkflowClass::Genome, 50, 4);
    let lambda = lambda_from_pfail(1e-2, w.dag.mean_weight());
    let platform = Platform::new(5, lambda, 1e7);
    let pipe = Pipeline::new(&w, platform, &AllocateConfig::default());
    let sg = pipe.segment_graph(Strategy::CkptSome);
    let model = FailureModel::exponential(lambda);
    for threads in THREADS {
        let m = montecarlo_segments_model(&sg, &model, &cfg(threads, Estimator::Naive));
        assert_eq!(
            [
                m.mean_makespan.to_bits(),
                m.stderr.to_bits(),
                m.mean_failures.to_bits(),
                m.mean_wasted.to_bits(),
                m.runs as u64,
            ],
            [
                0x408947c079b57b66,
                0x4008694fc9cbbfb6,
                0x3fdf0a3d70a3d70a,
                0x404de790c5662cdf,
                400,
            ],
            "threads={threads}"
        );
    }
    let one = simulate_segments_model(&sg, &model, 31);
    assert_eq!(one.makespan.to_bits(), 0x408b482392b2e2da);
    assert_eq!(one.n_failures, 1);
    assert_eq!(one.wasted_time.to_bits(), 0x4067a0b941691c61);
    assert_eq!(one.n_reexecs, 1);
}

//! Seeded runs are bit-for-bit reproducible: generators, the scheduling
//! pipeline, the Monte Carlo evaluator, and the discrete-event simulators
//! must all be pure functions of their seeds. This is what makes the
//! figure experiments, the proptest streams, and CI itself reproducible.

mod common;

use ckpt_workflows::prelude::*;
use pegasus::ccr::scale_to_ccr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BW: f64 = 1e8;

fn build(class: WorkflowClass, seed: u64) -> (Workflow, Platform) {
    let mut w = pegasus::generate(class, 100, seed);
    scale_to_ccr(&mut w, 0.01, BW);
    let lambda = lambda_from_pfail(0.001, w.dag.mean_weight());
    (w, Platform::new(5, lambda, BW))
}

#[test]
fn generators_are_bitwise_deterministic() {
    for class in WorkflowClass::ALL_EXTENDED {
        let a = pegasus::generate(class, 100, 12345);
        let b = pegasus::generate(class, 100, 12345);
        // Text serialization captures every task, file, edge, and weight.
        assert_eq!(
            pegasus::textio::to_text(&a),
            pegasus::textio::to_text(&b),
            "{class}: two same-seed generations must serialize identically"
        );
        let c = pegasus::generate(class, 100, 12346);
        assert_ne!(
            pegasus::textio::to_text(&a),
            pegasus::textio::to_text(&c),
            "{class}: different seeds must differ"
        );
    }
}

#[test]
fn stdrng_streams_are_reproducible() {
    let mut a = StdRng::seed_from_u64(0xDEAD_BEEF);
    let mut b = StdRng::seed_from_u64(0xDEAD_BEEF);
    for _ in 0..1000 {
        let (x, y): (f64, f64) = (a.gen(), b.gen());
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn pipeline_assessments_are_bitwise_deterministic() {
    let run = |seed: u64| {
        let (w, platform) = build(WorkflowClass::Genome, seed);
        let cfg = AllocateConfig {
            seed,
            ..Default::default()
        };
        let pipe = Pipeline::new(&w, platform, &cfg);
        let evaluator = PathApprox::default();
        [
            pipe.assess(&CkptAllPolicy, &evaluator),
            pipe.assess(&DpOptimalPolicy, &evaluator),
            pipe.assess_none(),
            pipe.assess(&ExitOnlyPolicy, &evaluator),
        ]
    };
    let a = run(7);
    let b = run(7);
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(
            x.expected_makespan.to_bits(),
            y.expected_makespan.to_bits(),
            "{}: expected makespan must be bit-identical",
            x.policy
        );
        assert_eq!(x.n_checkpoints, y.n_checkpoints);
        assert_eq!(x.n_segments, y.n_segments);
    }
}

#[test]
fn montecarlo_evaluator_is_bitwise_deterministic() {
    let (w, platform) = build(WorkflowClass::Montage, 3);
    let pipe = Pipeline::new(&w, platform, &AllocateConfig::default());
    let sg = pipe.segment_graph(&DpOptimalPolicy);
    // Each trial owns its own seed stream and the reduction runs in
    // canonical trial order, so the estimate is a pure function of
    // (seed, trials) — the thread budget must not matter.
    let run = |threads: usize| {
        MonteCarlo {
            trials: 20_000,
            seed: 99,
            threads,
        }
        .run(&sg.pdag)
    };
    let a = run(2);
    let b = run(2);
    assert_eq!(a.mean.to_bits(), b.mean.to_bits());
    assert_eq!(a.stderr.to_bits(), b.stderr.to_bits());
    let c = run(7);
    assert_eq!(a.mean.to_bits(), c.mean.to_bits());
    assert_eq!(a.stderr.to_bits(), c.stderr.to_bits());
}

#[test]
fn simulators_are_bitwise_deterministic() {
    let (w, platform) = build(WorkflowClass::Ligo, 11);
    let pipe = Pipeline::new(&w, platform, &AllocateConfig::default());
    let sg = pipe.segment_graph(&CkptAllPolicy);

    let a = simulate_segments_model(&sg, &platform.model, 21);
    let b = simulate_segments_model(&sg, &platform.model, 21);
    assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    assert_eq!(a.n_failures, b.n_failures);
    assert_eq!(a.wasted_time.to_bits(), b.wasted_time.to_bits());

    let run_none = || {
        let mut src = ModelFailures::new(platform.model, 5);
        simulate_none(&w.dag, &pipe.schedule, &mut src, 100_000).unwrap()
    };
    let (x, y) = (run_none(), run_none());
    assert_eq!(x.makespan.to_bits(), y.makespan.to_bits());
    assert_eq!(x.n_failures, y.n_failures);

    let cfg = SimConfig {
        runs: 500,
        seed: 17,
        threads: 2,
        ..Default::default()
    };
    let ma = failsim::montecarlo_segments_model(&sg, &platform.model, &cfg);
    let mb = failsim::montecarlo_segments_model(&sg, &platform.model, &cfg);
    assert_eq!(ma.mean_makespan.to_bits(), mb.mean_makespan.to_bits());
    assert_eq!(ma.stderr.to_bits(), mb.stderr.to_bits());
    assert_eq!(ma.mean_failures.to_bits(), mb.mean_failures.to_bits());
}

#[test]
fn non_memoryless_pipeline_is_bitwise_deterministic() {
    // The quadrature cost path and the model-driven simulators are pure
    // functions of (model, seed), like every exponential path before
    // them.
    let (w, _) = build(WorkflowClass::Montage, 23);
    let model = FailureModel::weibull_from_pfail(0.7, 0.001, w.dag.mean_weight());
    let platform = Platform::with_model(5, model, BW);
    let run = || {
        let pipe = Pipeline::new(&w, platform, &AllocateConfig::default());
        let em = pipe
            .assess(&DpOptimalPolicy, &PathApprox::default())
            .expected_makespan;
        let sg = pipe.segment_graph(&DpOptimalPolicy);
        let sim = failsim::simulate_segments_model(&sg, &model, 31);
        let mut src = failsim::ModelFailures::new(model, 7);
        let none = simulate_none(&w.dag, &pipe.schedule, &mut src, 100_000).unwrap();
        (em, sim, none)
    };
    let (ea, sa, na) = run();
    let (eb, sb, nb) = run();
    assert_eq!(ea.to_bits(), eb.to_bits());
    assert_eq!(sa, sb);
    assert_eq!(na, nb);
}

#[test]
fn figure_cells_are_bitwise_deterministic() {
    // The top of the experiment stack: a full figure cell twice.
    let a = common::figure_cell(WorkflowClass::Genome, 50, 5, 0.001, 1e-3, 2, 42);
    let b = common::figure_cell(WorkflowClass::Genome, 50, 5, 0.001, 1e-3, 2, 42);
    assert_eq!(a.em_some.to_bits(), b.em_some.to_bits());
    assert_eq!(a.em_all.to_bits(), b.em_all.to_bits());
    assert_eq!(a.em_none.to_bits(), b.em_none.to_bits());
    assert_eq!(a.ckpts_some, b.ckpts_some);
    assert_eq!(ckpt_bench::figure_csv(&a), ckpt_bench::figure_csv(&b));
}

#[test]
fn engine_grids_are_bitwise_deterministic_across_thread_counts() {
    // The engine path on top of the same stack: cells execute on a work
    // queue, yet the streamed CSV (values and order) must not depend on
    // the thread count or on which worker ran which cell.
    use ckpt_bench::engine::{self, EngineConfig, StringSink};
    use ckpt_bench::scenarios::FigureScenario;
    let scenario = FigureScenario {
        class: WorkflowClass::Genome,
        sizes: vec![50],
        ccr_points: 2,
        instances: 2,
        base_seed: 42,
    };
    let run = |threads: usize| {
        let mut sink = StringSink::new();
        engine::run(&scenario, &EngineConfig::with_threads(threads), &mut sink).unwrap();
        sink.csv
    };
    let serial = run(1);
    assert_eq!(serial, run(3));
    assert_eq!(serial, run(1), "repeated runs must also be identical");
}

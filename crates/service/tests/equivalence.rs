//! Incremental answers must be byte-identical to cold recomputes —
//! caching decides *who* computes an artifact, never *what* it is —
//! and batches must be invariant to the worker thread budget.

use ckpt_core::{Pipeline, Platform, Strategy};
use ckpt_service::{
    Answer, EvalSpec, Inputs, McSpec, ModelSpec, PolicySpec, Session, WhatIf, WorkflowSource,
};
use pegasus::WorkflowClass;
use probdag::PathApprox;

fn montage_inputs(pfail: f64) -> Inputs {
    let source = WorkflowSource::Generated {
        class: WorkflowClass::Montage,
        size: 300,
        seed: 9,
        ccr: Some(0.05),
    };
    Inputs::basic(source, 18, 1e8, ModelSpec::Exponential { pfail })
}

fn assert_same(a: &Answer, b: &Answer) {
    assert_eq!(a.policy, b.policy);
    assert_eq!(a.expected_makespan.to_bits(), b.expected_makespan.to_bits());
    assert_eq!(a.n_checkpoints, b.n_checkpoints);
    assert_eq!(a.n_segments, b.n_segments);
    assert_eq!(a.ckpt_files, b.ckpt_files);
    assert_eq!(a.ckpt_bytes.to_bits(), b.ckpt_bytes.to_bits());
    assert_eq!(a.w_par.to_bits(), b.w_par.to_bits());
    match (&a.mc, &b.mc) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(x.mean_makespan.to_bits(), y.mean_makespan.to_bits());
            assert_eq!(x.stderr.to_bits(), y.stderr.to_bits());
            assert_eq!(x.runs, y.runs);
        }
        _ => panic!("MC presence mismatch"),
    }
}

#[test]
fn lambda_drift_matches_cold_recompute_on_montage_300() {
    // The acceptance-bar identity: a warm session answering a λ-drift
    // what-if returns exactly what a fresh session at that λ computes.
    let warm = Session::new(montage_inputs(1e-3));
    warm.baseline();
    let incremental = warm.query(&WhatIf::SetPfail(2e-3));
    let cold = Session::new(montage_inputs(2e-3)).baseline();
    assert_same(&incremental, &cold);
}

#[test]
fn every_whatif_kind_matches_its_cold_session() {
    let warm = Session::new(montage_inputs(1e-3));
    warm.baseline();

    // Policy swap.
    let inc = warm.query(&WhatIf::SetPolicy(PolicySpec::ExitOnly));
    let mut inputs = montage_inputs(1e-3);
    inputs.policy = PolicySpec::ExitOnly;
    assert_same(&inc, &Session::new(inputs).baseline());

    // Platform rescale.
    let inc = warm.query(&WhatIf::SetProcs(24));
    let mut inputs = montage_inputs(1e-3);
    inputs.procs = 24;
    assert_same(&inc, &Session::new(inputs).baseline());

    // Model family swap.
    let spec = ModelSpec::Weibull {
        shape: 2.0,
        pfail: 1e-3,
    };
    let inc = warm.query(&WhatIf::SetModel(spec));
    let mut inputs = montage_inputs(1e-3);
    inputs.model = spec;
    assert_same(&inc, &Session::new(inputs).baseline());
}

#[test]
fn batch_answers_are_thread_invariant_and_order_preserving() {
    let queries: Vec<WhatIf> = (0..24)
        .map(|i| match i % 4 {
            0 => WhatIf::SetPfail(1e-3 * (1.0 + i as f64 / 8.0)),
            1 => WhatIf::SetPolicy(PolicySpec::CkptAll),
            2 => WhatIf::SetProcs(12 + i),
            _ => WhatIf::Nop,
        })
        .collect();
    // Separate sessions: the store state differs (the serial one warms
    // sequentially), which must not matter for the answers.
    let s1 = Session::new(montage_inputs(1e-3));
    let serial = s1.query_batch(&queries, 1);
    let s4 = Session::new(montage_inputs(1e-3));
    let parallel = s4.query_batch(&queries, 4);
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_same(a, b);
    }
}

#[test]
fn mc_stage_is_memoized_and_identical_to_cold() {
    let mut inputs = montage_inputs(1e-3);
    inputs.workflow = WorkflowSource::Generated {
        class: WorkflowClass::Genome,
        size: 50,
        seed: 4,
        ccr: Some(0.05),
    };
    inputs.procs = 5;
    inputs.mc = Some(McSpec { runs: 64, seed: 77 });
    let warm = Session::new(inputs.clone());
    warm.baseline();
    let inc = warm.query(&WhatIf::SetPfail(3e-3));
    let mut cold_inputs = inputs.clone();
    cold_inputs.model = cold_inputs.model.with_pfail(3e-3);
    let cold = Session::new(cold_inputs).baseline();
    assert_same(&inc, &cold);
    assert!(inc.mc.is_some());
    // Asking again re-uses the simulated estimate.
    warm.tracker().clear();
    warm.query(&WhatIf::SetPfail(3e-3));
    assert!(warm.tracker().executed().is_empty());
}

#[test]
fn evaluator_swap_reuses_the_graph() {
    let warm = Session::new(montage_inputs(1e-3));
    warm.baseline();
    warm.tracker().clear();
    let mut inputs = montage_inputs(1e-3);
    inputs.evaluator = EvalSpec::Normal;
    // Build the same state via a fresh session to cross-check values…
    let cold = Session::new(inputs).baseline();
    // …and via the warm store: only EvalAnalytic re-runs.
    let inc = warm.query(&WhatIf::SetEvaluator(EvalSpec::Normal));
    let executed = warm.tracker().executed();
    assert_eq!(
        executed,
        [ckpt_core::StageId::EvalAnalytic].into_iter().collect()
    );
    assert_same(&inc, &cold);
}

#[test]
fn baseline_answers_equal_the_one_shot_pipeline() {
    // The service and `Pipeline` assemble an answer through one
    // function: the same workflow, allocation, calibrated model and
    // policy give the same bits.
    let inputs = montage_inputs(1e-3);
    let mut w = pegasus::generate(WorkflowClass::Montage, 300, 9);
    pegasus::ccr::scale_to_ccr(&mut w, 0.05, inputs.bandwidth);
    let model = inputs.model.build(w.dag.mean_weight());
    let platform = Platform::with_model(inputs.procs, model, inputs.bandwidth);
    let pipe = Pipeline::new(&w, platform, &inputs.alloc);
    for (policy, strategy) in [
        (PolicySpec::DpOptimal, Strategy::CkptSome),
        (PolicySpec::CkptAll, Strategy::CkptAll),
    ] {
        let a = pipe.assess(strategy, &PathApprox::default());
        let expected = Answer {
            policy: a.policy,
            expected_makespan: a.expected_makespan,
            n_checkpoints: a.n_checkpoints,
            n_segments: a.n_segments,
            ckpt_files: a.ckpt_files,
            ckpt_bytes: a.ckpt_bytes,
            w_par: a.w_par,
            mc: None,
            degraded: false,
        };
        let mut inputs = montage_inputs(1e-3);
        inputs.policy = policy;
        assert_same(&Session::new(inputs).baseline(), &expected);
    }
}

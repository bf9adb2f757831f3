//! Cross-crate integration: generator → scheduler → checkpoint DP →
//! coalescing → evaluators → simulator, on all three workflow classes.

use ckpt_workflows::prelude::*;
use failsim::montecarlo_segments_model;
use pegasus::ccr::scale_to_ccr;

const BW: f64 = 1e8;

fn pipeline(
    class: WorkflowClass,
    size: usize,
    procs: usize,
    pfail: f64,
    ccr: f64,
    seed: u64,
) -> (Workflow, Platform) {
    let mut w = pegasus::generate(class, size, seed);
    scale_to_ccr(&mut w, ccr, BW);
    let lambda = lambda_from_pfail(pfail, w.dag.mean_weight());
    (w, Platform::new(procs, lambda, BW))
}

#[test]
fn full_pipeline_runs_on_all_classes() {
    for class in WorkflowClass::ALL {
        let (w, platform) = pipeline(class, 50, 5, 0.001, 0.01, 7);
        let pipe = Pipeline::new(&w, platform, &AllocateConfig::default());
        pipe.schedule.validate(&w.dag).unwrap();
        let policies: [&dyn CheckpointPolicy; 3] =
            [&CkptAllPolicy, &DpOptimalPolicy, &ExitOnlyPolicy];
        for policy in policies {
            let a = pipe.assess(policy, &PathApprox::default());
            assert!(a.expected_makespan.is_finite() && a.expected_makespan > 0.0);
            assert!(
                a.expected_makespan >= a.w_par * 0.99,
                "{class} {}",
                a.policy
            );
        }
        let none = pipe.assess_none();
        assert!(none.expected_makespan >= none.w_par);
    }
}

#[test]
fn checkpoint_counts_are_ordered() {
    // CkptAll ≥ CkptSome ≥ ExitOnly ≥ #superchains.
    for class in WorkflowClass::ALL {
        let (w, platform) = pipeline(class, 300, 18, 0.001, 0.05, 3);
        let pipe = Pipeline::new(&w, platform, &AllocateConfig::default());
        let all = pipe.plan(&CkptAllPolicy).n_checkpoints();
        let some = pipe.plan(&DpOptimalPolicy).n_checkpoints();
        let exit = pipe.plan(&ExitOnlyPolicy).n_checkpoints();
        assert_eq!(all, w.n_tasks());
        assert!(some <= all);
        assert!(exit <= some, "{class}: exit {exit} vs some {some}");
        assert_eq!(exit, pipe.schedule.superchains.len());
    }
}

#[test]
fn evaluators_agree_on_coalesced_graphs() {
    // The §VI-B hierarchy on a real coalesced DAG: PathApprox tight,
    // Normal close, Dodin an upper bound whose independence bias blows up
    // on Ligo's shared-ancestor-heavy structure (why the paper picked
    // PathApprox).
    let (w, platform) = pipeline(WorkflowClass::Ligo, 300, 18, 0.001, 0.01, 5);
    let pipe = Pipeline::new(&w, platform, &AllocateConfig::default());
    let sg = pipe.segment_graph(&DpOptimalPolicy);
    // Pinned thread count so `truth` is identical on every machine (the
    // per-worker RNG streams depend on the partition).
    let truth = MonteCarlo {
        trials: 100_000,
        seed: 1,
        threads: 4,
    }
    .run(&sg.pdag)
    .mean;
    let pa = PathApprox::default().expected_makespan(&sg.pdag);
    let nn = NormalSculli.expected_makespan(&sg.pdag);
    let dd = Dodin::default().expected_makespan(&sg.pdag);
    assert!(
        (pa - truth).abs() / truth < 0.02,
        "pathapprox {pa} vs MC {truth}"
    );
    assert!(
        (nn - truth).abs() / truth < 0.05,
        "normal {nn} vs MC {truth}"
    );
    assert!(
        dd >= truth * 0.99,
        "dodin must upper-bound: {dd} vs MC {truth}"
    );
    assert!(
        (pa - truth).abs() < (dd - truth).abs(),
        "pathapprox must beat dodin: pa {pa}, dodin {dd}, truth {truth}"
    );
}

#[test]
fn simulation_validates_first_order_model() {
    // E5 in miniature: model vs exact renewal simulation within 5 stderr
    // + 1% model error.
    let (w, platform) = pipeline(WorkflowClass::Montage, 300, 18, 0.001, 0.03, 9);
    let pipe = Pipeline::new(&w, platform, &AllocateConfig::default());
    let model = pipe
        .assess(&DpOptimalPolicy, &PathApprox::default())
        .expected_makespan;
    let sg = pipe.segment_graph(&DpOptimalPolicy);
    let sim = montecarlo_segments_model(
        &sg,
        &platform.model,
        &SimConfig {
            runs: 3000,
            seed: 2,
            ..Default::default()
        },
    );
    let tol = 5.0 * sim.stderr + 0.01 * sim.mean_makespan;
    assert!(
        (model - sim.mean_makespan).abs() < tol,
        "model {model} vs sim {} ± {}",
        sim.mean_makespan,
        sim.stderr
    );
}

#[test]
fn serialization_roundtrip_preserves_pipeline_results() {
    let (w, platform) = pipeline(WorkflowClass::Genome, 50, 5, 0.001, 0.005, 13);
    let text = pegasus::textio::to_text(&w);
    let back = pegasus::textio::from_text(&text).unwrap();
    let cfg = AllocateConfig::default();
    let a = Pipeline::new(&w, platform, &cfg).assess(&DpOptimalPolicy, &PathApprox::default());
    let b = Pipeline::new(&back, platform, &cfg).assess(&DpOptimalPolicy, &PathApprox::default());
    assert_eq!(a.expected_makespan, b.expected_makespan);
    assert_eq!(a.n_checkpoints, b.n_checkpoints);
}

#[test]
fn recognizer_verifies_generated_workflows_at_scale() {
    for class in WorkflowClass::ALL {
        let w = pegasus::generate(class, 1000, 17);
        mspg::recognize(&w.dag).unwrap_or_else(|e| panic!("{class}: {e}"));
    }
}

/// §VIII future work, implemented: a General SPG (transitive shortcut
/// edges carrying real data) goes through the full pipeline after
/// transitive reduction, with the shortcut files still read and
/// checkpointed.
#[test]
fn gspg_runs_through_the_full_pipeline() {
    // Build a Genome workflow and add data-carrying shortcut edges from
    // each lane's fastqSplit straight to the final pileup (skipping the
    // whole lane — a classic provenance/summary-file pattern).
    let w = pegasus::generate(WorkflowClass::Genome, 50, 21);
    let mut dag = w.dag.clone();
    let splits: Vec<mspg::TaskId> = dag
        .task_ids()
        .filter(|&t| dag.kind_name(dag.task(t).kind) == "fastqSplit")
        .collect();
    let pileup = dag
        .task_ids()
        .find(|&t| dag.kind_name(dag.task(t).kind) == "pileup")
        .unwrap();
    for s in &splits {
        let f = dag.primary_output(*s).unwrap();
        dag.add_edge(pileup, f);
    }
    assert!(mspg::recognize(&dag).is_err(), "shortcuts break the M-SPG");
    let (expr, reduced) = mspg::recognize_gspg(&dag).expect("still a GSPG");
    // The shortcut data survives as transitive reads of pileup.
    assert!(!reduced.input_files(pileup).is_empty());
    let workflow = Workflow::from_wired(reduced, expr);
    workflow.validate().unwrap();
    let lambda = lambda_from_pfail(0.001, workflow.dag.mean_weight());
    let pipe = Pipeline::new(
        &workflow,
        Platform::new(5, lambda, 1e7),
        &AllocateConfig::default(),
    );
    let some = pipe.assess(&DpOptimalPolicy, &PathApprox::default());
    let all = pipe.assess(&CkptAllPolicy, &PathApprox::default());
    assert!(some.expected_makespan > 0.0 && some.expected_makespan.is_finite());
    assert!(some.expected_makespan <= all.expected_makespan * 1.03);
    // The shortcut file must be priced: dropping its size must shrink the
    // CkptAll makespan read component.
    let sg = pipe.segment_graph(&CkptAllPolicy);
    let f = workflow.dag.primary_output(splits[0]).unwrap();
    let seg_of_pileup = sg.task_segment[pileup.index()] as usize;
    let read = sg.segments[seg_of_pileup].cost.r;
    assert!(
        read * pipe.platform.bandwidth >= workflow.dag.file(f).size,
        "pileup's segment must read the shortcut file"
    );
}

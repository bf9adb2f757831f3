//! The invalidation matrix, tracker-asserted: each what-if re-executes
//! exactly the stages whose input fingerprints change — no fewer
//! (soundness would be luck) and no more (or "incremental" is a lie).

use ckpt_core::StageId;
use ckpt_service::{Inputs, ModelSpec, PolicySpec, Session, WhatIf, WorkflowSource};
use pegasus::WorkflowClass;
use std::collections::BTreeSet;

fn montage_session(size: usize) -> Session {
    let source = WorkflowSource::Generated {
        class: WorkflowClass::Montage,
        size,
        seed: 9,
        ccr: Some(0.05),
    };
    Session::new(Inputs::basic(
        source,
        18,
        1e8,
        ModelSpec::Exponential { pfail: 1e-3 },
    ))
}

fn stages(ids: &[StageId]) -> BTreeSet<StageId> {
    ids.iter().copied().collect()
}

#[test]
fn first_visit_executes_the_whole_graph() {
    let session = montage_session(50);
    session.baseline();
    assert_eq!(
        session.tracker().executed(),
        stages(&[
            StageId::Generate,
            StageId::Schedule,
            StageId::Curve,
            StageId::Placement,
            StageId::SegmentGraph,
            StageId::EvalAnalytic,
        ])
    );
}

#[test]
fn noop_reexecutes_zero_stages() {
    let session = montage_session(50);
    session.baseline();
    session.tracker().clear();
    session.query(&WhatIf::Nop);
    assert!(
        session.tracker().executed().is_empty(),
        "no-op executed {:?}",
        session.tracker().executed()
    );
    // …and the same drift asked twice is a no-op the second time.
    session.query(&WhatIf::SetPfail(2e-3));
    session.tracker().clear();
    session.query(&WhatIf::SetPfail(2e-3));
    assert!(session.tracker().executed().is_empty());
}

#[test]
fn lambda_drift_touches_only_curve_placement_graph_evaluate() {
    // The acceptance-bar case, on the full 300-task Montage instance:
    // λ drift must leave the workflow and schedule untouched. This
    // drift moves the placement, so the segment topology, which is
    // keyed on the plan, re-runs with it.
    let session = montage_session(300);
    let before = session.baseline();
    session.tracker().clear();
    let after = session.query(&WhatIf::SetPfail(2e-3));
    assert_ne!(before.n_segments, after.n_segments, "the placement moved");
    assert_eq!(
        session.tracker().executed(),
        stages(&[
            StageId::Curve,
            StageId::Placement,
            StageId::SegmentGraph,
            StageId::EvalAnalytic,
        ])
    );
    // Explicitly: the expensive upstream stages were *not* re-run.
    assert_eq!(session.tracker().executed_count(StageId::Generate), 0);
    assert_eq!(session.tracker().executed_count(StageId::Schedule), 0);
}

#[test]
fn model_family_swap_behaves_like_lambda_drift() {
    // The Weibull swap keeps Montage-50's placement, so the segment
    // topology, which never reads the model, is served from the store:
    // only the stages that read the model run.
    let session = montage_session(50);
    let before = session.baseline();
    session.tracker().clear();
    let after = session.query(&WhatIf::SetModel(ModelSpec::Weibull {
        shape: 0.7,
        pfail: 1e-3,
    }));
    assert_eq!(before.n_segments, after.n_segments);
    assert_eq!(before.ckpt_bytes.to_bits(), after.ckpt_bytes.to_bits());
    assert_eq!(
        session.tracker().executed(),
        stages(&[StageId::Curve, StageId::Placement, StageId::EvalAnalytic])
    );
    assert_eq!(
        session.tracker().cached(),
        stages(&[StageId::Generate, StageId::Schedule, StageId::SegmentGraph])
    );
}

#[test]
fn a_drift_back_to_an_earlier_placement_reuses_its_topology() {
    // 2e-3 moves Montage-300's placement (see above); a first visit of
    // 1.001e-3 places the baseline's checkpoints again, so its
    // topology is still in the store.
    let session = montage_session(300);
    let before = session.baseline();
    session.query(&WhatIf::SetPfail(2e-3));
    session.tracker().clear();
    let back = session.query(&WhatIf::SetPfail(1.001e-3));
    assert_eq!(before.n_segments, back.n_segments);
    assert_eq!(before.ckpt_bytes.to_bits(), back.ckpt_bytes.to_bits());
    assert_eq!(
        session.tracker().executed(),
        stages(&[StageId::Curve, StageId::Placement, StageId::EvalAnalytic])
    );
    assert_eq!(
        session.tracker().cached(),
        stages(&[StageId::Generate, StageId::Schedule, StageId::SegmentGraph])
    );
}

#[test]
fn policy_swap_touches_only_placement_graph_evaluate() {
    let session = montage_session(50);
    session.baseline();
    session.tracker().clear();
    session.query(&WhatIf::SetPolicy(PolicySpec::CkptAll));
    assert_eq!(
        session.tracker().executed(),
        stages(&[
            StageId::Placement,
            StageId::SegmentGraph,
            StageId::EvalAnalytic,
        ])
    );
}

#[test]
fn platform_rescale_reruns_schedule_but_not_curve() {
    // Curve reads (model, span stats, bandwidth) — not the processor
    // count. Early cutoff keeps the quadrature table cached.
    let session = montage_session(50);
    session.baseline();
    session.tracker().clear();
    session.query(&WhatIf::SetProcs(24));
    assert_eq!(
        session.tracker().executed(),
        stages(&[
            StageId::Schedule,
            StageId::Placement,
            StageId::SegmentGraph,
            StageId::EvalAnalytic,
        ])
    );
}

#[test]
fn bandwidth_rescale_leaves_the_schedule_cached() {
    // On a *fixed* workflow (provided, so file sizes are pinned —
    // a CCR-pinned generated source would legitimately re-derive its
    // sizes), a storage upgrade re-prices I/O but never re-schedules:
    // structure-driven linearizers read neither sizes nor bandwidth.
    let source = WorkflowSource::provided(pegasus::generate(WorkflowClass::Montage, 50, 9));
    let session = Session::new(Inputs::basic(
        source,
        18,
        1e8,
        ModelSpec::Exponential { pfail: 1e-3 },
    ));
    session.baseline();
    session.tracker().clear();
    session.query(&WhatIf::SetBandwidth(2e8));
    assert_eq!(
        session.tracker().executed(),
        stages(&[
            StageId::Curve,
            StageId::Placement,
            StageId::SegmentGraph,
            StageId::EvalAnalytic,
        ])
    );
}

#[test]
fn workflow_edit_invalidates_everything_downstream() {
    let session = montage_session(50);
    session.baseline();
    session.tracker().clear();
    session.query(&WhatIf::SetTaskWeight {
        task: 0,
        weight: 1234.5,
    });
    // The edited workflow is provided (Generate has nothing to run),
    // but every planning stage downstream re-executes.
    assert_eq!(
        session.tracker().executed(),
        stages(&[
            StageId::Schedule,
            StageId::Curve,
            StageId::Placement,
            StageId::SegmentGraph,
            StageId::EvalAnalytic,
        ])
    );
}

#[test]
fn apply_commits_so_the_next_baseline_is_cached() {
    let mut session = montage_session(50);
    session.baseline();
    session.apply(&WhatIf::SetPfail(5e-3));
    session.query(&WhatIf::Nop); // warm the drifted state
    session.tracker().clear();
    let a = session.baseline();
    assert!(session.tracker().executed().is_empty());
    let b = session.query(&WhatIf::SetPfail(5e-3));
    assert_eq!(
        a.expected_makespan.to_bits(),
        b.expected_makespan.to_bits(),
        "committed state must equal the equivalent drift query"
    );
}

#[test]
fn weibull_session_caches_the_restart_curve_across_policy_swaps() {
    // Non-memoryless models pay a real cost to build the quadrature
    // curve; a policy swap must reuse it.
    let source = WorkflowSource::Generated {
        class: WorkflowClass::Genome,
        size: 50,
        seed: 3,
        ccr: Some(0.05),
    };
    let session = Session::new(Inputs::basic(
        source,
        5,
        1e8,
        ModelSpec::Weibull {
            shape: 0.7,
            pfail: 1e-3,
        },
    ));
    session.baseline();
    session.tracker().clear();
    session.query(&WhatIf::SetPolicy(PolicySpec::Daly { period: None }));
    let executed = session.tracker().executed();
    assert!(!executed.contains(&StageId::Curve), "curve must be cached");
    assert!(executed.contains(&StageId::Placement));
}

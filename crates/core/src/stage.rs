//! The planning pipeline as an explicit stage graph.
//!
//! This module names each step of planning as a **pure stage
//! function** — a deterministic map from its inputs to one artifact —
//! so that a caller holding content fingerprints of the inputs
//! ([`crate::fingerprint`]) can cache artifacts and re-execute only the
//! stages a change actually touches. [`crate::evaluate::Pipeline`] is
//! a one-shot run of these functions on one
//! [`crate::ScheduleArtifact`], and the `ckpt_service` crate builds its
//! incremental sessions on the same functions.
//!
//! The stage graph (downstream depends on upstream):
//!
//! ```text
//! Generate ──► Schedule ──► SegmentCosts ──► Placement ──► SegmentGraph ──► EvalAnalytic
//!     │            │                          ▲   ▲       (topology)       EvalMc
//!     └────────────┼──► Curve ────────────────┘   │                          ▲
//!                  └──────────(model, platform)───┴──────────────────────────┘
//! ```
//!
//! One fusion and two splits are deliberate. *Superchain decomposition*
//! is not a separate stage: Algorithm 1 interleaves proportional-mapping
//! decomposition with per-sub-graph linearization, so the superchains
//! are a field of the [`Schedule`] artifact (see [`crate::allocate`]).
//! The exact *checkpoint DP* is split along what reads the failure
//! model: its segment-cost tables read only the workflow, bandwidth and
//! schedule ([`segment_costs_stage`]), and only its minimization reads
//! λ ([`dp_placement_stage`]). [`placement_stage`] runs any policy from
//! scratch — the DP's fill included — for one-shot callers; the service
//! stores the tables so that a λ drift re-runs only the minimization.
//! And the *segment graph* is split along what reads the failure model:
//! its segments, costs and edges read only the workflow, bandwidth,
//! schedule and plan ([`segment_topology_stage`]), while the two-state
//! law of each segment reads the model
//! ([`SegmentGraph::with_model`], run inside the evaluations). A model
//! drift that keeps the placement therefore keeps the topology — the
//! invalidation-matrix tests in `ckpt_service` pin this exactly.
//! [`segment_graph_stage`] is the two passes in a row, for one-shot
//! callers.
//!
//! Two stage ids have no function here: `Generate` (workflow synthesis
//! lives in the `pegasus` crate, upstream of this one) and `EvalMc`
//! (discrete-event simulation lives in `failsim`, downstream). The
//! service invokes those crates directly under the same stage ids.

use std::sync::OnceLock;

use mspg::{Dag, Workflow};
use probdag::Evaluator;

use crate::allocate::{allocate, AllocateConfig};
use crate::checkpoint_dp::{CostCtx, SegmentTables};
use crate::coalesce::{coalesce, coalesce_topology, CheckpointPlan, SegmentGraph};
use crate::error::{require_positive, PlanError, PlanResult};
use crate::failure_model::{FailureModel, RestartCurve};
use crate::platform::Platform;
use crate::policy::{plan_on_tables, plan_with_policy_threads, CheckpointPolicy, PolicyScratch};
use crate::schedule::Schedule;

/// Names of the pipeline stages, in dependency order. Used by the
/// incremental service's tracker so tests can assert exactly which
/// stages a what-if query re-executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StageId {
    /// Workflow synthesis / parse (lives in `pegasus`).
    Generate,
    /// Algorithm 1: proportional mapping + superchain linearization
    /// (includes the superchain decomposition — see module docs).
    Schedule,
    /// RestartCurve tabulation for non-memoryless models.
    Curve,
    /// The exact DP's model-free segment-cost tables.
    SegmentCosts,
    /// Checkpoint placement (Algorithm 2 DP or any policy).
    Placement,
    /// §II-C coalescing into the 2-state probabilistic DAG.
    SegmentGraph,
    /// Analytic expected-makespan estimate (a `probdag` evaluator).
    EvalAnalytic,
    /// Monte Carlo / discrete-event estimate (lives in `failsim`).
    EvalMc,
}

impl StageId {
    /// All stages, dependency-ordered.
    pub const ALL: [StageId; 8] = [
        StageId::Generate,
        StageId::Schedule,
        StageId::Curve,
        StageId::SegmentCosts,
        StageId::Placement,
        StageId::SegmentGraph,
        StageId::EvalAnalytic,
        StageId::EvalMc,
    ];

    /// Stable display name (also the tracker's and the wall
    /// histogram's label).
    pub fn name(self) -> &'static str {
        NAMES[self as usize][0]
    }

    /// Static site name `"stage.<name>"`, shared by the fault-injection
    /// sites ([`inject`]) and the execution spans ([`traced`]).
    pub fn site(self) -> &'static str {
        NAMES[self as usize][1]
    }

    /// Static resolution-span name `"resolve.<name>"`, used when a
    /// stage's artifact is looked up in the service store (see
    /// `ckpt_service::Memo::resolve` and DESIGN.md §12).
    pub fn resolve_site(self) -> &'static str {
        NAMES[self as usize][2]
    }
}

/// The one naming scheme of every stage, indexed by [`StageId`]:
/// `[name, "stage.<name>", "resolve.<name>"]`. Tracker labels, fault
/// sites, spans and metric labels all read it, so they cannot drift
/// apart.
#[rustfmt::skip]
const NAMES: [[&str; 3]; StageId::ALL.len()] = [
    ["generate", "stage.generate", "resolve.generate"],
    ["schedule", "stage.schedule", "resolve.schedule"],
    ["curve", "stage.curve", "resolve.curve"],
    ["segment_costs", "stage.segment_costs", "resolve.segment_costs"],
    ["placement", "stage.placement", "resolve.placement"],
    ["segment_graph", "stage.segment_graph", "resolve.segment_graph"],
    ["eval_analytic", "stage.eval_analytic", "resolve.eval_analytic"],
    ["eval_mc", "stage.eval_mc", "resolve.eval_mc"],
];

impl std::fmt::Display for StageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Named fault-injection site of one stage: inert in default builds,
/// and under the `faultinject` feature an armed plan may panic here
/// (caught at the memo boundary), delay, or make the stage return an
/// injected [`PlanError::StageFailed`]. Site names are
/// `"stage.<stage name>"` — see `DESIGN.md` §11.
///
/// Public so the service can fire the two sites whose stage functions
/// live outside this crate (`Generate` in `pegasus`, `EvalMc` in
/// `failsim`) under the same naming scheme.
pub fn inject(stage: StageId) -> PlanResult<()> {
    seedmix::faultinject::fire_err(stage.site()).map_err(|message| PlanError::StageFailed {
        stage,
        message,
        attempts: 1,
    })
}

/// Run `f` as one execution of `stage`: inside a span named
/// [`StageId::site`], marked failed if `f` errors, whose measured
/// nanoseconds also go to the `ckpt_stage_wall_seconds{stage=<name>}`
/// histogram — one clock reading feeds both. This is the one stage
/// timer: the in-crate stage functions below use it, the service
/// reuses it for the two stages whose functions live outside this
/// crate (`Generate` in `pegasus`, `EvalMc` in `failsim`), and the
/// grid engine runs its Monte Carlo and CCR rescaling under it.
///
/// Observability contract: the span layer only *observes* `f` — it
/// never alters the value flowing out, and without the `observe`
/// feature this compiles to a plain call of `f`.
pub fn traced<T>(stage: StageId, f: impl FnOnce() -> PlanResult<T>) -> PlanResult<T> {
    let parent = obs::span::Parent::Current;
    let (out, nanos) = obs::span::timed_full(stage.site(), None, None, parent, |span| {
        let out = f();
        if out.is_err() {
            span.set_outcome(obs::span::SpanOutcome::Failed);
        }
        out
    });
    wall_histogram(stage).observe_ns(nanos);
    out
}

/// The `ckpt_stage_wall_seconds` histogram of `stage`, resolved once
/// per process so [`traced`] never takes the registry lock.
fn wall_histogram(stage: StageId) -> &'static obs::metrics::Histogram {
    static HISTS: OnceLock<[obs::metrics::Histogram; StageId::ALL.len()]> = OnceLock::new();
    let hists = HISTS.get_or_init(|| {
        StageId::ALL.map(|s| {
            obs::metrics::labeled_histogram_seconds("ckpt_stage_wall_seconds", "stage", s.name())
        })
    });
    &hists[stage as usize]
}

/// One-line summary of the `ckpt_stage_wall_seconds` histogram: the
/// seconds this process has spent in each stage, summed across threads
/// (worker-seconds; zero without the `observe` feature), e.g.
/// `generate 0.42s | schedule 0.10s | …`.
pub fn wall_summary() -> String {
    StageId::ALL
        .iter()
        .map(|&s| format!("{} {:.2}s", s.name(), wall_histogram(s).sum()))
        .collect::<Vec<_>>()
        .join(" | ")
}

/// **Schedule stage**: Algorithm 1 on `workflow` for `n_procs`
/// processors. Pure in (workflow structure [+ file sizes iff the
/// linearizer reads them], `n_procs`, `cfg`); the platform's failure
/// model is *not* an input — schedules survive model drift untouched.
///
/// Fails with [`PlanError::InvalidInput`] for a zero-processor
/// platform (the list scheduler has nowhere to place anything).
pub fn schedule_stage(
    workflow: &Workflow,
    n_procs: usize,
    cfg: &AllocateConfig,
) -> PlanResult<Schedule> {
    traced(StageId::Schedule, || {
        if n_procs == 0 {
            return Err(PlanError::invalid("procs", "must be at least 1, got 0"));
        }
        inject(StageId::Schedule)?;
        Ok(allocate(workflow, n_procs, cfg))
    })
}

/// Whether [`curve_stage`] reads anything beyond the model: `false` for
/// memoryless or never-failing models, whose curve is `None` whatever
/// the workflow and bandwidth.
pub fn curve_reads_workflow(model: &FailureModel) -> bool {
    !(model.is_memoryless() || model.never_fails())
}

/// **Curve stage**: the renewal [`RestartCurve`] backing every
/// non-memoryless cost query — `None` for memoryless or never-failing
/// platforms, which take closed-form paths. Pure in (failure model,
/// workflow span statistics, bandwidth), and in nothing at all when
/// [`curve_reads_workflow`] is `false`.
///
/// The table covers every span the DP or coalescer can query on this
/// workflow: from the smallest positive task weight (no segment's
/// failure-free span is shorter than the weight of a task it contains)
/// up to the whole workflow executed serially with every file read and
/// checkpointed once. Spans outside (only reachable through zero-weight
/// dummy tasks) fall back to direct quadrature. Bounded to 12 decades.
pub fn curve_stage(dag: &Dag, platform: &Platform) -> PlanResult<Option<RestartCurve>> {
    traced(StageId::Curve, || {
        require_positive("bandwidth", platform.bandwidth)?;
        inject(StageId::Curve)?;
        if !curve_reads_workflow(&platform.model) {
            return Ok(None);
        }
        let b_hi = dag.total_weight() + 2.0 * dag.total_data_volume() / platform.bandwidth;
        if b_hi <= 0.0 || !b_hi.is_finite() {
            return Ok(None);
        }
        let min_weight = dag
            .task_ids()
            .map(|t| dag.weight(t))
            .filter(|&w| w > 0.0)
            .fold(f64::INFINITY, f64::min);
        let b_lo = if min_weight.is_finite() {
            min_weight.min(b_hi)
        } else {
            b_hi * 1e-6
        };
        // Bound the table (and its build cost) to 12 decades of span.
        let b_lo = b_lo.max(b_hi * 1e-12);
        Ok(Some(RestartCurve::build(platform.model, b_lo, b_hi)))
    })
}

/// **Placement stage**: the checkpoint plan `policy` induces on
/// `schedule`. Pure in (workflow, model+curve, bandwidth, schedule,
/// policy); `threads` and `scratch` are speed knobs — plans are
/// bit-identical for every budget (see
/// [`crate::policy::plan_with_policy_threads`]).
pub fn placement_stage(
    ctx: &CostCtx<'_>,
    schedule: &Schedule,
    policy: &dyn CheckpointPolicy,
    scratch: &mut PolicyScratch,
    threads: usize,
) -> PlanResult<CheckpointPlan> {
    traced(StageId::Placement, || {
        inject(StageId::Placement)?;
        Ok(plan_with_policy_threads(
            ctx, schedule, policy, scratch, threads,
        ))
    })
}

/// **Segment-costs stage**: the exact DP's λ-free half for every
/// superchain of `schedule` ([`SegmentTables`]). Pure in (workflow
/// weights and file sizes, bandwidth, schedule); the failure model is
/// not an input, so a caller keying on those reuses one set of tables
/// across model drifts and hands it to [`dp_placement_stage`].
pub fn segment_costs_stage(
    dag: &Dag,
    bandwidth: f64,
    schedule: &Schedule,
) -> PlanResult<SegmentTables> {
    traced(StageId::SegmentCosts, || {
        inject(StageId::SegmentCosts)?;
        Ok(SegmentTables::build(dag, bandwidth, &schedule.superchains))
    })
}

/// **Placement stage** of [`crate::policy::DpOptimalPolicy`] on stored
/// segment tables: only the minimization runs for a chain whose table
/// `tables` holds ([`crate::policy::plan_on_tables`]). The plan is
/// bit-identical to [`placement_stage`]'s with the same policy; the
/// Placement span and fault site are the same too.
pub fn dp_placement_stage(
    ctx: &CostCtx<'_>,
    schedule: &Schedule,
    tables: &SegmentTables,
    scratch: &mut PolicyScratch,
    threads: usize,
) -> PlanResult<CheckpointPlan> {
    traced(StageId::Placement, || {
        inject(StageId::Placement)?;
        Ok(plan_on_tables(ctx, schedule, tables, scratch, threads))
    })
}

/// **Segment-graph stage**: §II-C coalescing of checkpoint-delimited
/// segments into the 2-state probabilistic DAG. Pure in (workflow,
/// model+curve, bandwidth, schedule, plan): the topology of
/// [`segment_topology_stage`] with the model's two-state laws written
/// in place.
pub fn segment_graph_stage(
    ctx: &CostCtx<'_>,
    schedule: &Schedule,
    plan: &CheckpointPlan,
) -> PlanResult<SegmentGraph> {
    traced(StageId::SegmentGraph, || {
        inject(StageId::SegmentGraph)?;
        Ok(coalesce(ctx, schedule, plan))
    })
}

/// **Segment-graph stage, model-free**: the segment topology of
/// `schedule` under `plan` — segments, R/W/C costs at `bandwidth` and
/// edges, every node at its failure-free span. Pure in (workflow,
/// bandwidth, schedule, plan); the failure model is not an input, so a
/// caller keying on those reuses one topology across model drifts and
/// re-models it with [`SegmentGraph::with_model`].
pub fn segment_topology_stage(
    dag: &Dag,
    bandwidth: f64,
    schedule: &Schedule,
    plan: &CheckpointPlan,
) -> PlanResult<SegmentGraph> {
    traced(StageId::SegmentGraph, || {
        inject(StageId::SegmentGraph)?;
        Ok(coalesce_topology(dag, bandwidth, schedule, plan))
    })
}

/// **Analytic-evaluate stage**: expected makespan of the coalesced
/// graph under a `probdag` evaluator. Pure in (segment graph,
/// evaluator configuration).
///
/// Fails with [`PlanError::Numeric`] when the evaluator returns a
/// non-finite makespan — the one stage whose output is a bare number,
/// so the one place a NaN could otherwise slip into an answer.
pub fn evaluate_stage(sg: &SegmentGraph, evaluator: &dyn Evaluator) -> PlanResult<f64> {
    traced(StageId::EvalAnalytic, || {
        inject(StageId::EvalAnalytic)?;
        let em = evaluator.expected_makespan(&sg.pdag);
        if em.is_finite() {
            Ok(em)
        } else {
            Err(PlanError::Numeric {
                stage: StageId::EvalAnalytic,
                message: format!("expected makespan is {em}"),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::Pipeline;
    use crate::pfail::lambda_from_pfail;
    use crate::policy::DpOptimalPolicy;
    use pegasus::{generate, WorkflowClass};
    use probdag::PathApprox;

    #[test]
    fn stage_ids_are_distinct_and_ordered() {
        for w in StageId::ALL.windows(2) {
            assert!(w[0] < w[1]);
        }
        let names: std::collections::HashSet<_> = StageId::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), StageId::ALL.len());
        for s in StageId::ALL {
            assert_eq!(format!("stage.{}", s.name()), s.site());
            assert_eq!(format!("resolve.{}", s.name()), s.resolve_site());
        }
    }

    #[test]
    fn stage_functions_compose_to_the_pipeline() {
        // Running the stage functions by hand reproduces the Pipeline
        // bit for bit.
        let w = generate(WorkflowClass::Montage, 50, 11);
        let lambda = lambda_from_pfail(0.001, w.dag.mean_weight());
        let platform = Platform::new(5, lambda, 1e8);
        let pipe = Pipeline::new(&w, platform, &AllocateConfig::default());

        let schedule = schedule_stage(&w, platform.n_procs, &AllocateConfig::default()).unwrap();
        let curve = curve_stage(&w.dag, &platform).unwrap();
        let ctx = CostCtx {
            dag: &w.dag,
            model: platform.model,
            bandwidth: platform.bandwidth,
            curve: curve.as_ref(),
            budget: None,
        };
        let plan = placement_stage(
            &ctx,
            &schedule,
            &DpOptimalPolicy,
            &mut PolicyScratch::new(),
            1,
        )
        .unwrap();
        assert_eq!(plan, pipe.plan(&DpOptimalPolicy));
        // The service's route: stored tables, then the minimization.
        let tables = segment_costs_stage(&w.dag, platform.bandwidth, &schedule).unwrap();
        let stored =
            dp_placement_stage(&ctx, &schedule, &tables, &mut PolicyScratch::new(), 1).unwrap();
        assert_eq!(plan, stored);
        let sg = segment_graph_stage(&ctx, &schedule, &plan).unwrap();
        let em = evaluate_stage(&sg, &PathApprox::default()).unwrap();
        let assessed = pipe.assess(&DpOptimalPolicy, &PathApprox::default());
        assert_eq!(em.to_bits(), assessed.expected_makespan.to_bits());
        // The service's route: the model-free topology, re-modelled.
        let topo = segment_topology_stage(&w.dag, platform.bandwidth, &schedule, &plan).unwrap();
        let em = evaluate_stage(&topo.with_model(&ctx), &PathApprox::default()).unwrap();
        assert_eq!(em.to_bits(), assessed.expected_makespan.to_bits());
    }

    #[test]
    fn segment_costs_stay_small_on_paper_workflows() {
        // DESIGN §10's bound: 8 bytes × Σ n(n+1)/2 over the chains
        // shorter than KERNEL_MIN_LEN, at most 64 KiB at the paper's
        // sizes and processor counts.
        for class in WorkflowClass::ALL_EXTENDED {
            for size in [50, 300, 1000] {
                let w = generate(class, size, 9);
                for &procs in Platform::paper_proc_counts(size) {
                    let cfg = AllocateConfig::default();
                    let schedule = schedule_stage(&w, procs, &cfg).unwrap();
                    let tables = segment_costs_stage(&w.dag, 1e8, &schedule).unwrap();
                    let cells: usize = schedule
                        .superchains
                        .iter()
                        .map(|sc| crate::checkpoint_dp::segment_table_len(sc.tasks.len()))
                        .sum();
                    assert_eq!(tables.bytes(), 8 * cells, "{class}-{size} on {procs}");
                    assert!(
                        tables.bytes() <= 64 << 10,
                        "{class}-{size} on {procs}: {} bytes",
                        tables.bytes()
                    );
                }
            }
        }
        // The first-visit instance's tables: 7.6 KiB.
        let w = generate(WorkflowClass::Montage, 300, 9);
        let schedule = schedule_stage(&w, 18, &AllocateConfig::default()).unwrap();
        let tables = segment_costs_stage(&w.dag, 1e8, &schedule).unwrap();
        assert_eq!(tables.bytes(), 7736);
    }

    #[test]
    fn curve_stage_is_none_for_memoryless() {
        let w = generate(WorkflowClass::Genome, 50, 1);
        let p = Platform::new(4, 1e-5, 1e8);
        assert!(curve_stage(&w.dag, &p).unwrap().is_none());
    }

    #[test]
    fn stages_reject_malformed_inputs_with_typed_errors() {
        let w = generate(WorkflowClass::Genome, 20, 3);
        let err = schedule_stage(&w, 0, &AllocateConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            PlanError::InvalidInput { field: "procs", .. }
        ));
    }
}

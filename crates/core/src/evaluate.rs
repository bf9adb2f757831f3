//! End-to-end evaluation pipeline: schedule → checkpoint → expected
//! makespan, for all strategies of the paper — and, since the policy
//! subsystem, for any [`CheckpointPolicy`].

use std::sync::Arc;

use mspg::{Dag, Workflow};
use probdag::Evaluator;

use crate::allocate::AllocateConfig;
use crate::checkpoint_dp::CostCtx;
use crate::coalesce::{CheckpointPlan, SegmentGraph};
use crate::error::PlanResult;
use crate::failure_model::{FailureModel, RestartCurve};
use crate::platform::Platform;
use crate::policy::{
    CheckpointPolicy, CkptAllPolicy, DpOptimalPolicy, ExitOnlyPolicy, PolicyScratch,
};
use crate::schedule::Schedule;
use crate::stage;

/// The checkpointing strategies compared in §VI.
///
/// Since the policy subsystem this enum is a thin constructor over the
/// builtin [`CheckpointPolicy`] implementations ([`Strategy::policy`]);
/// it remains the stable axis of the legacy experiments (E1–E9).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Checkpoint every task's output (the production default).
    CkptAll,
    /// Checkpoint nothing; expected makespan estimated by Theorem 1.
    CkptNone,
    /// The paper's contribution: superchain scheduling + optimal DP
    /// checkpoint placement.
    CkptSome,
    /// Ablation (§II-C "naive solution"): checkpoint only superchain
    /// exits.
    ExitOnly,
}

impl Strategy {
    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::CkptAll => "CkptAll",
            Strategy::CkptNone => "CkptNone",
            Strategy::CkptSome => "CkptSome",
            Strategy::ExitOnly => "ExitOnly",
        }
    }

    /// The builtin placement policy this strategy routes through, or
    /// `None` for [`Strategy::CkptNone`] (which has no placement — it
    /// is assessed by Theorem 1 and simulated by the crossover-cascade
    /// executor).
    pub fn policy(self) -> Option<&'static dyn CheckpointPolicy> {
        static ALL: CkptAllPolicy = CkptAllPolicy;
        static DP: DpOptimalPolicy = DpOptimalPolicy;
        static EXIT: ExitOnlyPolicy = ExitOnlyPolicy;
        match self {
            Strategy::CkptAll => Some(&ALL),
            Strategy::CkptSome => Some(&DP),
            Strategy::ExitOnly => Some(&EXIT),
            Strategy::CkptNone => None,
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Theorem 1: estimated expected makespan of a no-checkpoint execution
/// with failure-free parallel time `w_par` on `n_procs` processors of
/// failure rate `lambda`:
/// `EM = (1 - pλW)·W + pλW·(3/2·W) = W·(1 + pλW/2)`.
pub fn theorem1(w_par: f64, n_procs: usize, lambda: f64) -> f64 {
    let q = n_procs as f64 * lambda * w_par;
    (1.0 - q) * w_par + q * 1.5 * w_par
}

/// Theorem 1 generalized to any failure model: the first-order failure
/// mass `λW` becomes the cumulative hazard `H(W) = -ln S(W)` of one
/// processor over the failure-free span (for the exponential model
/// `H(W) = λW` exactly, so this delegates to [`theorem1`] bit-for-bit).
pub fn theorem1_model(w_par: f64, n_procs: usize, model: &FailureModel) -> f64 {
    match *model {
        FailureModel::Exponential { lambda } => theorem1(w_par, n_procs, lambda),
        ref m => {
            let q = n_procs as f64 * m.cumulative_hazard(w_par);
            (1.0 - q) * w_par + q * 1.5 * w_par
        }
    }
}

/// Outcome of assessing one policy (or legacy strategy) on one
/// scheduled workflow.
#[derive(Clone, Debug)]
pub struct Assessment {
    /// Display name of the policy assessed (a [`Strategy::name`] for
    /// the legacy strategies).
    pub policy: &'static str,
    /// Estimated expected makespan (seconds).
    pub expected_makespan: f64,
    /// Number of checkpointed tasks (0 for CkptNone). Derived from the
    /// segment graph — every segment ends in exactly one checkpoint —
    /// so this always equals [`Assessment::n_segments`] for placement
    /// policies.
    pub n_checkpoints: usize,
    /// Number of coalesced segments (tasks for CkptAll; 0 for CkptNone).
    pub n_segments: usize,
    /// Files written to stable storage by the placement's checkpoints.
    pub ckpt_files: usize,
    /// Bytes those checkpoints write.
    pub ckpt_bytes: f64,
    /// Failure-free parallel time of the schedule *without* storage I/O.
    pub w_par: f64,
}

/// The analytic assessment of `policy`'s segment graph `sg` over `dag`'s
/// tasks: the expected makespan under `evaluator` (the analytic-evaluate
/// stage), with the placement census derived from `sg` and the
/// schedule's failure-free parallel time `w_par` alongside. The one
/// assembly both [`Pipeline`] and the what-if service answer from.
pub fn assessment(
    policy: &'static str,
    sg: &SegmentGraph,
    dag: &Dag,
    w_par: f64,
    evaluator: &dyn Evaluator,
) -> PlanResult<Assessment> {
    let stats = sg.placement_stats(dag);
    Ok(Assessment {
        policy,
        expected_makespan: stage::evaluate_stage(sg, evaluator)?,
        n_checkpoints: stats.segments,
        n_segments: stats.segments,
        ckpt_files: stats.ckpt_files,
        ckpt_bytes: stats.ckpt_bytes,
        w_par,
    })
}

/// A scheduled workflow ready for strategy assessment.
///
/// Scheduling (the expensive, strategy-independent step) happens once in
/// [`Pipeline::new`]; each [`Pipeline::assess`] call then derives
/// checkpoint decisions and evaluates the expected makespan — exactly how
/// the paper compares the three strategies on a common schedule.
pub struct Pipeline<'a> {
    /// The workflow under evaluation.
    pub workflow: &'a Workflow,
    /// The platform (processor count, failure rate, storage bandwidth).
    pub platform: Platform,
    /// The superchain schedule produced by `Allocate`, shared: the grid
    /// engine hands every cell's pipeline the store's copy.
    pub schedule: Arc<Schedule>,
    /// Cached renewal curve for non-memoryless platforms, built once per
    /// pipeline over the workflow's span range and threaded through
    /// every [`CostCtx`] this pipeline hands out (`None` for exponential
    /// or never-failing models). See `DESIGN.md` §7.
    curve: Option<RestartCurve>,
    /// Thread budget for per-superchain checkpoint placement (a pure
    /// speed knob — placements are bit-identical for every budget; see
    /// [`crate::policy::plan_with_policy_threads`]). Default 1 (serial).
    plan_threads: usize,
}

impl<'a> Pipeline<'a> {
    /// Schedules `workflow` on `platform` with `Allocate` (the Schedule
    /// stage).
    pub fn new(workflow: &'a Workflow, platform: Platform, cfg: &AllocateConfig) -> Self {
        let schedule = stage::schedule_stage(workflow, platform.n_procs, cfg)
            .expect("Pipeline inputs are valid by construction");
        Self::with_schedule(workflow, platform, schedule)
    }

    /// Builds a pipeline around a schedule computed elsewhere.
    ///
    /// `Allocate` is the expensive strategy-independent step, and for the
    /// structure-driven linearizers (`Structural`, `RandomTopo`) it does
    /// not read file sizes at all — so a schedule computed once per
    /// workflow instance can be re-used across every CCR rescaling of that
    /// instance (the experiment engine relies on this: it schedules the
    /// unscaled instance once per run and shares that schedule, by
    /// `Arc`, with every cell's pipeline).
    ///
    /// # Panics
    /// Panics if `schedule` does not cover `workflow` on
    /// `platform.n_procs` processors (e.g. it was computed for a different
    /// instance or processor count).
    pub fn with_schedule(
        workflow: &'a Workflow,
        platform: Platform,
        schedule: impl Into<Arc<Schedule>>,
    ) -> Self {
        let schedule = schedule.into();
        assert_eq!(
            schedule.n_procs, platform.n_procs,
            "schedule was computed for a different processor count"
        );
        schedule
            .validate(&workflow.dag)
            .expect("schedule does not fit this workflow");
        Pipeline {
            workflow,
            platform,
            schedule,
            curve: stage::curve_stage(&workflow.dag, &platform)
                .expect("Pipeline inputs are valid by construction"),
            plan_threads: 1,
        }
    }

    /// Sets the thread budget for per-superchain checkpoint placement
    /// (0 = all cores, 1 = serial, the default). A pure speed knob:
    /// placements land in canonical superchain order and are
    /// bit-identical for every budget.
    pub fn with_plan_threads(mut self, threads: usize) -> Self {
        self.plan_threads = threads;
        self
    }

    /// The renewal curve backing this pipeline's cost paths, if any
    /// (`None` for memoryless or never-failing platforms).
    pub fn restart_curve(&self) -> Option<&RestartCurve> {
        self.curve.as_ref()
    }

    fn ctx(&self) -> CostCtx<'_> {
        CostCtx {
            dag: &self.workflow.dag,
            model: self.platform.model,
            bandwidth: self.platform.bandwidth,
            curve: self.curve.as_ref(),
            budget: None,
        }
    }

    /// The checkpoint plan a strategy induces on this schedule.
    ///
    /// # Panics
    /// Panics for [`Strategy::CkptNone`], which has no checkpoint plan —
    /// use [`Pipeline::assess`].
    pub fn plan(&self, strategy: Strategy) -> CheckpointPlan {
        let policy = strategy.policy().expect("CkptNone has no checkpoint plan");
        self.plan_policy(policy)
    }

    /// The checkpoint plan a placement policy induces on this schedule
    /// (one [`PolicyScratch`] threaded across every superchain: the DP
    /// tables and sweep buffers are allocated once at the largest chain
    /// and reused).
    pub fn plan_policy(&self, policy: &dyn CheckpointPolicy) -> CheckpointPlan {
        self.plan_policy_reusing(policy, &mut PolicyScratch::new())
    }

    /// [`Pipeline::plan_policy`] with caller-owned scratch buffers
    /// (steady-state loops over many plans amortize every allocation).
    pub fn plan_policy_reusing(
        &self,
        policy: &dyn CheckpointPolicy,
        scratch: &mut PolicyScratch,
    ) -> CheckpointPlan {
        // Pipeline is the documented unwrap funnel for the fallible
        // stage API: offline grids build their inputs by construction
        // and never arm fault injection, so stage errors here are bugs.
        stage::placement_stage(
            &self.ctx(),
            &self.schedule,
            policy,
            scratch,
            self.plan_threads,
        )
        .expect("Pipeline inputs are valid by construction")
    }

    /// The coalesced 2-state segment graph for a checkpointing strategy.
    pub fn segment_graph(&self, strategy: Strategy) -> SegmentGraph {
        let policy = strategy.policy().expect("CkptNone has no segment graph");
        self.segment_graph_policy(policy)
    }

    /// The coalesced 2-state segment graph for a placement policy.
    pub fn segment_graph_policy(&self, policy: &dyn CheckpointPolicy) -> SegmentGraph {
        let plan = self.plan_policy(policy);
        stage::segment_graph_stage(&self.ctx(), &self.schedule, &plan)
            .expect("Pipeline inputs are valid by construction")
    }

    /// Assesses a strategy with the given 2-state DAG evaluator
    /// (irrelevant for CkptNone, which uses the Theorem 1 closed form).
    pub fn assess(&self, strategy: Strategy, evaluator: &dyn Evaluator) -> Assessment {
        match strategy.policy() {
            None => {
                let w_par = self.schedule.failure_free_parallel_time(&self.workflow.dag);
                Assessment {
                    policy: strategy.name(),
                    expected_makespan: theorem1_model(
                        w_par,
                        self.platform.n_procs,
                        &self.platform.model,
                    ),
                    n_checkpoints: 0,
                    n_segments: 0,
                    ckpt_files: 0,
                    ckpt_bytes: 0.0,
                    w_par,
                }
            }
            Some(policy) => {
                self.assess_graph(policy.name(), &self.segment_graph_policy(policy), evaluator)
            }
        }
    }

    /// Assessment of an already-built segment graph — the shared path
    /// when one graph serves both an analytic column and a simulation
    /// column (see the validate/distributions/strategies scenarios).
    pub fn assess_graph(
        &self,
        policy: &'static str,
        sg: &SegmentGraph,
        evaluator: &dyn Evaluator,
    ) -> Assessment {
        let dag = &self.workflow.dag;
        let w_par = self.schedule.failure_free_parallel_time(dag);
        assessment(policy, sg, dag, w_par, evaluator)
            .expect("Pipeline inputs are valid by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocate::allocate;
    use crate::pfail::lambda_from_pfail;
    use pegasus::ccr::scale_to_ccr;
    use pegasus::{generate, WorkflowClass};
    use probdag::PathApprox;

    fn platform(w: &Workflow, n_procs: usize, pfail: f64, bw: f64) -> Platform {
        Platform::new(n_procs, lambda_from_pfail(pfail, w.dag.mean_weight()), bw)
    }

    #[test]
    fn theorem1_formula() {
        // q = pλW; EM = W(1 + q/2).
        let em = theorem1(100.0, 4, 1e-4);
        let q: f64 = 4.0 * 1e-4 * 100.0;
        assert!((em - 100.0 * (1.0 + q / 2.0)).abs() < 1e-9);
    }

    #[test]
    fn theorem1_zero_lambda_is_wpar() {
        assert_eq!(theorem1(123.0, 8, 0.0), 123.0);
    }

    #[test]
    fn theorem1_model_reduces_to_theorem1_for_exponential() {
        let m = FailureModel::exponential(1e-4);
        assert_eq!(
            theorem1_model(100.0, 4, &m).to_bits(),
            theorem1(100.0, 4, 1e-4).to_bits()
        );
    }

    #[test]
    fn theorem1_model_weibull_tracks_calibrated_hazard() {
        // Weibull k=1 calibrated to the same pfail has the same
        // cumulative hazard as the exponential, so Theorem 1 agrees (up
        // to the scale representation); k≠1 bends the estimate.
        let w_bar = 10.0;
        let exp = FailureModel::exponential_from_pfail(0.001, w_bar);
        let wei1 = FailureModel::weibull_from_pfail(1.0, 0.001, w_bar);
        let a = theorem1_model(200.0, 6, &exp);
        let b = theorem1_model(200.0, 6, &wei1);
        assert!((a - b).abs() < 1e-9 * a, "{a} vs {b}");
        let wearout = FailureModel::weibull_from_pfail(2.0, 0.001, w_bar);
        // Over a span 20× the mean weight, an increasing hazard has
        // accumulated much more failure mass.
        assert!(theorem1_model(200.0, 6, &wearout) > a);
    }

    #[test]
    fn non_memoryless_pipeline_end_to_end() {
        // The full pipeline accepts a Weibull platform: the DP runs on
        // the quadrature cost path and CkptSome still dominates CkptAll.
        let mut w = generate(WorkflowClass::Genome, 50, 5);
        let bw = 1e7;
        scale_to_ccr(&mut w, 0.01, bw);
        let model = FailureModel::weibull_from_pfail(0.7, 0.01, w.dag.mean_weight());
        let p = Platform::with_model(5, model, bw);
        let pipe = Pipeline::new(&w, p, &AllocateConfig::default());
        let some = pipe.assess(Strategy::CkptSome, &PathApprox::default());
        let all = pipe.assess(Strategy::CkptAll, &PathApprox::default());
        let none = pipe.assess(Strategy::CkptNone, &PathApprox::default());
        assert!(some.expected_makespan > 0.0 && none.expected_makespan > 0.0);
        assert!(
            some.expected_makespan <= all.expected_makespan * 1.02,
            "some {} vs all {}",
            some.expected_makespan,
            all.expected_makespan
        );
        assert!(some.n_checkpoints <= all.n_checkpoints);
    }

    #[test]
    fn ckptsome_never_worse_than_ckptall() {
        // The DP contains CkptAll's solution (checkpoint everywhere) in
        // its search space, so segment-DAG expected makespans should obey
        // CkptSome ≤ CkptAll up to evaluator noise.
        for class in WorkflowClass::ALL {
            let mut w = generate(class, 50, 5);
            let bw = 1e7;
            scale_to_ccr(&mut w, 0.01, bw);
            let p = platform(&w, 5, 0.001, bw);
            let pipe = Pipeline::new(&w, p, &AllocateConfig::default());
            let some = pipe.assess(Strategy::CkptSome, &PathApprox::default());
            let all = pipe.assess(Strategy::CkptAll, &PathApprox::default());
            assert!(
                some.expected_makespan <= all.expected_makespan * 1.02,
                "{class}: some {} vs all {}",
                some.expected_makespan,
                all.expected_makespan
            );
            assert!(some.n_checkpoints <= all.n_checkpoints);
        }
    }

    #[test]
    fn cheap_checkpoints_make_ckptsome_equal_ckptall() {
        // §VI-C: as the CCR → 0, CkptSome checkpoints every task. The
        // crossover is where interface I/O (write + later read) matches
        // the re-execution gain λ·b1·b2 — for sub-second Genome tasks at
        // pfail = 0.01 that is around CCR ~ 1e-6, so 1e-9 is firmly in the
        // checkpoint-everything regime.
        let mut w = generate(WorkflowClass::Genome, 50, 3);
        let bw = 1e7;
        scale_to_ccr(&mut w, 1e-9, bw);
        let p = platform(&w, 5, 0.01, bw);
        let pipe = Pipeline::new(&w, p, &AllocateConfig::default());
        let some = pipe.plan(Strategy::CkptSome);
        assert_eq!(some.n_checkpoints(), w.n_tasks());
    }

    #[test]
    fn expensive_checkpoints_reduce_to_exits() {
        // Very expensive storage + rare failures: only superchain exits
        // remain checkpointed.
        let mut w = generate(WorkflowClass::Genome, 50, 3);
        let bw = 1e7;
        scale_to_ccr(&mut w, 10.0, bw);
        let p = platform(&w, 5, 0.0001, bw);
        let pipe = Pipeline::new(&w, p, &AllocateConfig::default());
        let some = pipe.plan(Strategy::CkptSome);
        let exits = pipe.plan(Strategy::ExitOnly);
        assert_eq!(some, exits);
    }

    #[test]
    fn exitonly_bounds_ckptsome_from_search_space() {
        let mut w = generate(WorkflowClass::Ligo, 50, 4);
        let bw = 1e7;
        scale_to_ccr(&mut w, 0.1, bw);
        let p = platform(&w, 5, 0.001, bw);
        let pipe = Pipeline::new(&w, p, &AllocateConfig::default());
        let some = pipe.assess(Strategy::CkptSome, &PathApprox::default());
        let exit = pipe.assess(Strategy::ExitOnly, &PathApprox::default());
        assert!(some.expected_makespan <= exit.expected_makespan * 1.02);
    }

    #[test]
    fn with_schedule_reuses_a_ccr_invariant_schedule() {
        // RandomTopo scheduling never reads file sizes, so the schedule of
        // the unscaled instance drives a rescaled clone to bit-identical
        // assessments.
        let base = generate(WorkflowClass::Montage, 50, 9);
        let cfg = AllocateConfig::default();
        let mut scaled = base.clone();
        let bw = 1e7;
        scale_to_ccr(&mut scaled, 0.05, bw);
        let p = platform(&scaled, 5, 0.001, bw);
        let from_scratch = Pipeline::new(&scaled, p, &cfg);
        let cached = allocate(&base, p.n_procs, &cfg);
        let reused = Pipeline::with_schedule(&scaled, p, cached);
        for strategy in [Strategy::CkptAll, Strategy::CkptSome, Strategy::ExitOnly] {
            let a = from_scratch.assess(strategy, &PathApprox::default());
            let b = reused.assess(strategy, &PathApprox::default());
            assert_eq!(
                a.expected_makespan.to_bits(),
                b.expected_makespan.to_bits(),
                "{strategy}"
            );
            assert_eq!(a.n_checkpoints, b.n_checkpoints);
        }
    }

    #[test]
    #[should_panic(expected = "different processor count")]
    fn with_schedule_rejects_mismatched_platform() {
        let w = generate(WorkflowClass::Genome, 50, 1);
        let p5 = platform(&w, 5, 0.001, 1e7);
        let sched = allocate(&w, 3, &AllocateConfig::default());
        let _ = Pipeline::with_schedule(&w, p5, sched);
    }

    #[test]
    fn assessments_report_consistent_counts() {
        let w = generate(WorkflowClass::Montage, 50, 6);
        let p = platform(&w, 5, 0.001, 1e7);
        let pipe = Pipeline::new(&w, p, &AllocateConfig::default());
        let all = pipe.assess(Strategy::CkptAll, &PathApprox::default());
        assert_eq!(all.n_checkpoints, w.n_tasks());
        assert_eq!(all.n_segments, w.n_tasks());
        let none = pipe.assess(Strategy::CkptNone, &PathApprox::default());
        assert_eq!(none.n_checkpoints, 0);
        assert!(none.w_par > 0.0);
    }

    #[test]
    fn ckptnone_beats_ckptall_when_io_dominates_and_failures_rare() {
        // §VI-C: CkptNone wins when checkpoints are expensive and failures
        // rare.
        let mut w = generate(WorkflowClass::Montage, 50, 7);
        let bw = 1e7;
        scale_to_ccr(&mut w, 1.0, bw);
        let p = platform(&w, 5, 0.0001, bw);
        let pipe = Pipeline::new(&w, p, &AllocateConfig::default());
        let none = pipe.assess(Strategy::CkptNone, &PathApprox::default());
        let all = pipe.assess(Strategy::CkptAll, &PathApprox::default());
        assert!(
            none.expected_makespan < all.expected_makespan,
            "none {} vs all {}",
            none.expected_makespan,
            all.expected_makespan
        );
    }

    #[test]
    fn ckptsome_beats_ckptnone_under_frequent_failures() {
        // §VI-C: CkptNone loses when failures are frequent and
        // checkpoints cheap.
        let mut w = generate(WorkflowClass::Genome, 300, 8);
        let bw = 1e7;
        scale_to_ccr(&mut w, 1e-4, bw);
        let p = platform(&w, 18, 0.01, bw);
        let pipe = Pipeline::new(&w, p, &AllocateConfig::default());
        let none = pipe.assess(Strategy::CkptNone, &PathApprox::default());
        let some = pipe.assess(Strategy::CkptSome, &PathApprox::default());
        assert!(
            some.expected_makespan < none.expected_makespan,
            "some {} vs none {}",
            some.expected_makespan,
            none.expected_makespan
        );
    }
}

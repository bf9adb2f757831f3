//! Long-lived incremental planning sessions.
//!
//! A [`Session`] holds one set of planning [`Inputs`] (workflow,
//! platform shape, failure model, scheduling configuration, placement
//! policy, evaluator) plus a shared artifact [`Store`], and answers
//! **what-if queries** — "what would the plan cost if λ drifted / the
//! policy changed / the platform rescaled / the workflow were edited" —
//! by re-executing *only* the stages whose input fingerprints changed.
//!
//! ## Key derivation
//!
//! Every stage artifact is keyed by a composition of the content
//! fingerprints of exactly the inputs that stage reads
//! (`ckpt_core::fingerprint`):
//!
//! ```text
//! workflow  = digest(class, size, seed, ccr, bw)        (generated)
//!           | content fingerprint                        (provided)
//! schedule  = (wf.structure [, wf.sizes iff MinVolume], procs, alloc)
//! curve     = (model, wf.structure, wf.sizes, bw)
//! placement = (wf.combined, model, bw, schedule, policy)
//! graph     = (wf.combined, bw, schedule, plan)   — the model-free
//!             segment topology: R/W/C read weights and file sizes
//! eval      = (placement, evaluator)   — the analytic assessment:
//!             expected makespan, placement census, w_par; it names the
//!             policy, and the placement key closes over the model
//!             the per-model pass reads
//! mc        = (graph, model, runs, seed)
//! ```
//!
//! The graph key names the plan by content (`plan` is the plan's
//! fingerprint, computed once with the plan), not by the placement key
//! that produced it, so the failure models and policies that place the
//! same checkpoints share one topology, and one Monte Carlo estimate
//! per model. The eval and Monte Carlo resolutions write the model's
//! two-state laws on the topology (`SegmentGraph::with_model`) inside
//! their own closures.
//!
//! Equal key ⇒ equal inputs ⇒ (stages are pure) equal artifact, so a
//! cache hit is always sound and every answer is byte-identical to a
//! cold recompute — for any thread budget, since memoization only
//! decides *who* computes, never *what*. The split workflow fingerprint
//! gives early cutoff: a CCR rescale leaves `schedule` untouched, a λ
//! drift leaves both `schedule` and the workflow alone, and a no-op
//! query re-executes nothing at all. The [`Tracker`] counts each
//! stage's outcomes so tests assert those sets exactly.
//!
//! ## Failure semantics
//!
//! Every query has a fallible form (`try_query` / `try_query_batch` /
//! `try_apply`) returning typed [`PlanError`]s. Malformed parameters
//! are rejected at the what-if boundary by [`Inputs::validate`] /
//! [`Session::try_apply`] **before** any stage runs, so an invalid
//! query can never poison the session or the shared [`Store`], and the
//! next valid query answers byte-identically to a fresh session. Stage
//! failures (including injected ones — `seedmix::faultinject`) are
//! retried a bounded number of times at the memo boundary and surface
//! as [`PlanError::StageFailed`]. An optional per-query
//! [`Session::deadline`] cancels the DP hot loops cooperatively
//! ([`PlanError::Cancelled`]) and degrades Monte Carlo ground truth
//! gracefully: the analytic answer is still served, flagged
//! [`Answer::degraded`]. See `DESIGN.md` §11.

use std::sync::Arc;
use std::time::Duration;

use ckpt_core::budget::install_quiet_unwind_hook;
use ckpt_core::error::{require_pfail, require_positive};
use ckpt_core::evaluate::assessment;
use ckpt_core::fingerprint::{
    allocate_config_fp, compose, linearizer_reads_file_sizes, model_fp, plan_fp,
};
use ckpt_core::policy::{
    CheckpointPolicy, CkptAllPolicy, DalyPeriodic, DpOptimalPolicy, ExitOnlyPolicy,
    GreedyCrossover, PolicyScratch, RiskThreshold,
};
use ckpt_core::stage::{
    curve_stage, inject, placement_stage, schedule_stage, segment_topology_stage, traced, StageId,
};
use ckpt_core::{AllocateConfig, Budget, CostCtx, FailureModel, PlanError, PlanResult, Platform};
use failsim::{montecarlo_segments_model, montecarlo_segments_model_abortable, McStats, SimConfig};
use mspg::TaskId;
use pegasus::WorkflowClass;
use probdag::{Dodin, Evaluator, NormalSculli, PathApprox};
use seedmix::digest::Fnv1a;
use seedmix::parallel_slots;

use crate::store::{Memo, PlanArtifact, ScheduleArtifact, Store, WorkflowArtifact};
use crate::tracker::{Outcome, Tracker};
use obs::span::SpanOutcome;

/// Domain tags for session-level stage keys (disjoint from the
/// `ckpt_core::fingerprint::tag` artifact tags).
mod tag {
    pub const GENERATE: u64 = 0x5356_4745; // "SVGE"
    pub const SCHEDULE: u64 = 0x5356_5343; // "SVSC"
    pub const CURVE: u64 = 0x5356_4356; // "SVCV"
    pub const PLACEMENT: u64 = 0x5356_504c; // "SVPL"
    pub const GRAPH: u64 = 0x5356_4752; // "SVGR"
    pub const EVAL: u64 = 0x5356_4556; // "SVEV"
    pub const MC: u64 = 0x5356_4d43; // "SVMC"
    pub const POLICY: u64 = 0x5356_5043; // "SVPC"
    pub const EVALUATOR: u64 = 0x5356_4554; // "SVET"
    pub const MCSPEC: u64 = 0x5356_4d53; // "SVMS"
}

/// Where the session's workflow comes from.
#[derive(Clone)]
pub enum WorkflowSource {
    /// A Pegasus-class instance generated (and optionally CCR-rescaled)
    /// on first use — the Generate stage proper.
    Generated {
        /// Workflow class.
        class: WorkflowClass,
        /// Task count.
        size: usize,
        /// Instance seed.
        seed: u64,
        /// Target CCR at the session bandwidth, if rescaled.
        ccr: Option<f64>,
    },
    /// A caller-provided (e.g. edited) workflow with its precomputed
    /// fingerprint.
    Provided(Arc<WorkflowArtifact>),
}

impl WorkflowSource {
    /// Wraps an owned workflow, fingerprinting it once.
    pub fn provided(workflow: mspg::Workflow) -> Self {
        WorkflowSource::Provided(Arc::new(WorkflowArtifact::new(workflow)))
    }
}

fn class_tag(c: WorkflowClass) -> u64 {
    match c {
        WorkflowClass::Genome => 0,
        WorkflowClass::Montage => 1,
        WorkflowClass::Ligo => 2,
        WorkflowClass::Cybershake => 3,
    }
}

/// The Generate stage of a generated workflow: its store key and the
/// computation the key names (generation, then rescaling to `ccr` at
/// `bandwidth` if given). [`Session`] and the grid engine both resolve
/// generated workflows through this, so they share one key scheme.
pub fn generate_keyed(
    class: WorkflowClass,
    size: usize,
    seed: u64,
    ccr: Option<f64>,
    bandwidth: f64,
) -> (u64, impl Fn() -> PlanResult<WorkflowArtifact>) {
    let mut h = Fnv1a::tagged(tag::GENERATE);
    h.write_word(class_tag(class))
        .write_usize(size)
        .write_word(seed);
    match ccr {
        None => h.write_word(0),
        // CCR rescaling reads the bandwidth, so it keys in.
        Some(c) => h.write_word(1).write_f64(c).write_f64(bandwidth),
    };
    let generate = move || {
        traced(StageId::Generate, || {
            inject(StageId::Generate)?;
            let mut workflow = pegasus::generate(class, size, seed);
            if let Some(c) = ccr {
                pegasus::ccr::scale_to_ccr(&mut workflow, c, bandwidth);
            }
            Ok(WorkflowArtifact::new(workflow))
        })
    };
    (h.finish(), generate)
}

/// The Schedule stage of `wa` on `procs` processors under `alloc`: its
/// store key and the computation the key names (the schedule and its
/// failure-free parallel time). The key never reads the failure model,
/// and reads file sizes only through the MinVolume linearizer. Shared
/// by [`Session`] and the grid engine, like [`generate_keyed`].
pub fn schedule_keyed(
    wa: &WorkflowArtifact,
    procs: usize,
    alloc: AllocateConfig,
) -> (u64, impl Fn() -> PlanResult<ScheduleArtifact> + '_) {
    let mut parts = vec![wa.fp.structure, procs as u64, allocate_config_fp(&alloc)];
    if linearizer_reads_file_sizes(alloc.linearizer) {
        parts.push(wa.fp.file_sizes);
    }
    let key = compose(tag::SCHEDULE, &parts);
    let schedule = move || {
        let schedule = schedule_stage(&wa.workflow, procs, &alloc)?;
        let w_par = schedule.failure_free_parallel_time(&wa.workflow.dag);
        Ok(ScheduleArtifact {
            schedule: Arc::new(schedule),
            w_par,
        })
    };
    (key, schedule)
}

/// A calibrated failure-model specification. Unlike a raw
/// [`FailureModel`], the calibrated variants re-derive their parameters
/// from the *current* workflow's mean task weight — so a workflow edit
/// automatically re-calibrates, exactly like the experiment grids.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ModelSpec {
    /// Memoryless, calibrated so an average task fails w.p. `pfail`.
    Exponential {
        /// Per-mean-weight-task failure probability.
        pfail: f64,
    },
    /// Weibull of the given shape, same calibration.
    Weibull {
        /// Shape `k > 0`.
        shape: f64,
        /// Per-mean-weight-task failure probability.
        pfail: f64,
    },
    /// LogNormal of the given log-std-dev, same calibration.
    LogNormal {
        /// Standard deviation of the log.
        sigma: f64,
        /// Per-mean-weight-task failure probability.
        pfail: f64,
    },
    /// An explicit, already-parameterized model (no re-calibration).
    Raw(FailureModel),
}

impl ModelSpec {
    /// Materializes the failure model for a workflow of mean task
    /// weight `mean_weight`.
    pub fn build(&self, mean_weight: f64) -> FailureModel {
        match *self {
            ModelSpec::Exponential { pfail } => {
                FailureModel::exponential_from_pfail(pfail, mean_weight)
            }
            ModelSpec::Weibull { shape, pfail } => {
                FailureModel::weibull_from_pfail(shape, pfail, mean_weight)
            }
            ModelSpec::LogNormal { sigma, pfail } => {
                FailureModel::lognormal_from_pfail(sigma, pfail, mean_weight)
            }
            ModelSpec::Raw(m) => m,
        }
    }

    /// The same family re-calibrated to a new `pfail` (a raw model
    /// becomes a calibrated exponential — the paper's default family).
    pub fn with_pfail(&self, pfail: f64) -> ModelSpec {
        match *self {
            ModelSpec::Exponential { .. } => ModelSpec::Exponential { pfail },
            ModelSpec::Weibull { shape, .. } => ModelSpec::Weibull { shape, pfail },
            ModelSpec::LogNormal { sigma, .. } => ModelSpec::LogNormal { sigma, pfail },
            ModelSpec::Raw(_) => ModelSpec::Exponential { pfail },
        }
    }

    /// The family's shape knob: 1 for the exponential, `k` for Weibull,
    /// `σ` for LogNormal (the E9/E10 CSV `shape` column).
    pub fn shape(&self) -> f64 {
        match *self {
            ModelSpec::Exponential { .. } | ModelSpec::Raw(FailureModel::Exponential { .. }) => 1.0,
            ModelSpec::Weibull { shape, .. }
            | ModelSpec::Raw(FailureModel::Weibull { shape, .. }) => shape,
            ModelSpec::LogNormal { sigma, .. }
            | ModelSpec::Raw(FailureModel::LogNormal { sigma, .. }) => sigma,
        }
    }
}

/// A checkpoint-placement policy specification: a digestible, cloneable
/// description that builds the builtin [`CheckpointPolicy`] objects.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PolicySpec {
    /// Checkpoint every task.
    CkptAll,
    /// The paper's Algorithm 2 DP (optimal placement).
    DpOptimal,
    /// Superchain exits only.
    ExitOnly,
    /// Young/Daly periodic (`None` = auto period).
    Daly {
        /// Fixed period in seconds, or `None` for the Daly formula.
        period: Option<f64>,
    },
    /// Adaptive risk-threshold checkpointing.
    Risk {
        /// Maximum tolerated per-segment failure probability.
        max_risk: f64,
    },
    /// The structural crossover heuristic.
    Crossover,
}

impl PolicySpec {
    /// Builds the policy object.
    pub fn build(&self) -> Box<dyn CheckpointPolicy> {
        match *self {
            PolicySpec::CkptAll => Box::new(CkptAllPolicy),
            PolicySpec::DpOptimal => Box::new(DpOptimalPolicy),
            PolicySpec::ExitOnly => Box::new(ExitOnlyPolicy),
            PolicySpec::Daly { period: None } => Box::new(DalyPeriodic::auto()),
            PolicySpec::Daly { period: Some(p) } => Box::new(DalyPeriodic::with_period(p)),
            PolicySpec::Risk { max_risk } => Box::new(RiskThreshold::new(max_risk)),
            PolicySpec::Crossover => Box::new(GreedyCrossover),
        }
    }

    /// Display name of the policy [`PolicySpec::build`] makes, without
    /// building (boxing) it. Knob values are not part of the name, so a
    /// grid listing two `Risk` points emits rows it cannot tell apart.
    pub fn name(&self) -> &'static str {
        match *self {
            PolicySpec::CkptAll => CkptAllPolicy.name(),
            PolicySpec::DpOptimal => DpOptimalPolicy.name(),
            PolicySpec::ExitOnly => ExitOnlyPolicy.name(),
            PolicySpec::Daly { period } => DalyPeriodic { period }.name(),
            PolicySpec::Risk { max_risk } => RiskThreshold { max_risk }.name(),
            PolicySpec::Crossover => GreedyCrossover.name(),
        }
    }

    /// Content fingerprint (variant + parameters).
    pub fn fp(&self) -> u64 {
        let mut h = Fnv1a::tagged(tag::POLICY);
        match *self {
            PolicySpec::CkptAll => h.write_word(1),
            PolicySpec::DpOptimal => h.write_word(2),
            PolicySpec::ExitOnly => h.write_word(3),
            PolicySpec::Daly { period } => {
                h.write_word(4);
                match period {
                    None => h.write_word(0),
                    Some(p) => h.write_word(1).write_f64(p),
                }
            }
            PolicySpec::Risk { max_risk } => h.write_word(5).write_f64(max_risk),
            PolicySpec::Crossover => h.write_word(6),
        };
        h.finish()
    }
}

/// Which analytic evaluator estimates the expected makespan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvalSpec {
    /// The longest-paths approximation of Casanova, Herrmann & Robert
    /// (the repo's workhorse).
    PathApprox,
    /// Sculli's normal-approximation sweep.
    Normal,
    /// Dodin's discretized bound (default bin count).
    Dodin,
}

impl EvalSpec {
    /// Builds the evaluator (default parameters — the spec pins them).
    pub fn build(&self) -> Box<dyn Evaluator> {
        match self {
            EvalSpec::PathApprox => Box::new(PathApprox::default()),
            EvalSpec::Normal => Box::new(NormalSculli),
            EvalSpec::Dodin => Box::new(Dodin::default()),
        }
    }

    /// Content fingerprint.
    pub fn fp(&self) -> u64 {
        let t = match self {
            EvalSpec::PathApprox => 1,
            EvalSpec::Normal => 2,
            EvalSpec::Dodin => 3,
        };
        Fnv1a::tagged(tag::EVALUATOR).write_word(t).finish()
    }
}

/// Monte Carlo ground-truth configuration (optional per session).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct McSpec {
    /// Simulated executions.
    pub runs: usize,
    /// Base seed (estimates are pure functions of `(seed, runs)`).
    pub seed: u64,
}

impl McSpec {
    fn fp(&self) -> u64 {
        Fnv1a::tagged(tag::MCSPEC)
            .write_usize(self.runs)
            .write_word(self.seed)
            .finish()
    }

    fn sim_config(&self, threads: usize) -> SimConfig {
        SimConfig {
            runs: self.runs,
            seed: self.seed,
            threads,
            ..SimConfig::default()
        }
    }
}

/// The complete planning inputs of one session state.
#[derive(Clone)]
pub struct Inputs {
    /// The workflow under study.
    pub workflow: WorkflowSource,
    /// Processor count.
    pub procs: usize,
    /// Stable-storage bandwidth (bytes/s).
    pub bandwidth: f64,
    /// Scheduling configuration (linearizer + seed).
    pub alloc: AllocateConfig,
    /// Failure-model specification.
    pub model: ModelSpec,
    /// Placement policy.
    pub policy: PolicySpec,
    /// Analytic evaluator.
    pub evaluator: EvalSpec,
    /// Optional Monte Carlo ground truth per answer.
    pub mc: Option<McSpec>,
}

impl Inputs {
    /// Inputs with the repo's default scheduling (RandomTopo, seed 0),
    /// the DP placement, the PathApprox evaluator, and no Monte Carlo.
    pub fn basic(workflow: WorkflowSource, procs: usize, bandwidth: f64, model: ModelSpec) -> Self {
        Inputs {
            workflow,
            procs,
            bandwidth,
            alloc: AllocateConfig::default(),
            model,
            policy: PolicySpec::DpOptimal,
            evaluator: EvalSpec::PathApprox,
            mc: None,
        }
    }

    /// Strict admission control at the what-if boundary: every
    /// parameter an inner stage or builder would otherwise `assert!`
    /// on is checked here and reported as a typed
    /// [`PlanError::InvalidInput`], so a malformed query is rejected
    /// before any stage runs or any store entry is touched.
    pub fn validate(&self) -> PlanResult<()> {
        if self.procs == 0 {
            return Err(PlanError::invalid("procs", "must be at least 1, got 0"));
        }
        require_positive("bandwidth", self.bandwidth)?;
        if let WorkflowSource::Generated { size, ccr, .. } = &self.workflow {
            if *size == 0 {
                return Err(PlanError::invalid("size", "must be at least 1, got 0"));
            }
            if let Some(c) = ccr {
                require_positive("ccr", *c)?;
            }
        }
        match self.model {
            ModelSpec::Exponential { pfail } => {
                require_pfail("pfail", pfail)?;
            }
            ModelSpec::Weibull { shape, pfail } => {
                require_positive("shape", shape)?;
                require_pfail("pfail", pfail)?;
            }
            ModelSpec::LogNormal { sigma, pfail } => {
                require_positive("sigma", sigma)?;
                require_pfail("pfail", pfail)?;
            }
            ModelSpec::Raw(_) => {}
        }
        match self.policy {
            PolicySpec::Daly { period: Some(p) } => {
                require_positive("period", p)?;
            }
            // NaN fails both comparisons, so it lands in the guard too.
            PolicySpec::Risk { max_risk } if !(max_risk > 0.0 && max_risk < 1.0) => {
                return Err(PlanError::invalid(
                    "max_risk",
                    format!("must be in (0, 1), got {max_risk}"),
                ));
            }
            _ => {}
        }
        if let Some(mc) = &self.mc {
            if mc.runs == 0 {
                return Err(PlanError::invalid("mc.runs", "must be at least 1, got 0"));
            }
        }
        Ok(())
    }
}

/// One what-if delta against the session's current inputs.
#[derive(Clone)]
pub enum WhatIf {
    /// No change — answers from the store, executing zero stages.
    Nop,
    /// Re-calibrate the failure model family to a new `pfail` (λ drift).
    SetPfail(f64),
    /// Switch the failure model entirely.
    SetModel(ModelSpec),
    /// Switch the placement policy.
    SetPolicy(PolicySpec),
    /// Switch the analytic evaluator (re-runs only the evaluate stage).
    SetEvaluator(EvalSpec),
    /// Rescale the platform to a new processor count.
    SetProcs(usize),
    /// Rescale the platform to a new storage bandwidth.
    SetBandwidth(f64),
    /// Replace the workflow wholesale.
    SetWorkflow(WorkflowSource),
    /// Edit one task's failure-free execution time (a re-profiled
    /// runtime — the canonical small workflow edit).
    SetTaskWeight {
        /// Task index.
        task: usize,
        /// New weight (seconds).
        weight: f64,
    },
}

/// The answer to one what-if query.
#[derive(Clone, Copy, Debug)]
pub struct Answer {
    /// Placement policy name.
    pub policy: &'static str,
    /// Analytic expected makespan (seconds).
    pub expected_makespan: f64,
    /// Checkpointed tasks (= segments for placement policies).
    pub n_checkpoints: usize,
    /// Coalesced segments.
    pub n_segments: usize,
    /// Files written to stable storage by the placement.
    pub ckpt_files: usize,
    /// Bytes those checkpoints write.
    pub ckpt_bytes: f64,
    /// Failure-free parallel time of the schedule.
    pub w_par: f64,
    /// Monte Carlo ground truth, if configured.
    pub mc: Option<McStats>,
    /// `true` iff the query's [`Session::deadline`] expired during the
    /// Monte Carlo stage: the analytic fields are exact and complete,
    /// but `mc` is `None` even though the session configured it.
    pub degraded: bool,
}

/// A long-lived incremental planning session (see module docs).
pub struct Session {
    store: Arc<Store>,
    tracker: Tracker,
    inputs: Inputs,
    /// Placement thread budget (speed knob; not fingerprinted).
    pub plan_threads: usize,
    /// Monte Carlo thread budget (speed knob; not fingerprinted).
    pub mc_threads: usize,
    /// Optional per-query wall-clock budget. When set, the DP hot
    /// loops cancel cooperatively ([`PlanError::Cancelled`]) and an
    /// over-deadline Monte Carlo stage degrades to the analytic-only
    /// answer ([`Answer::degraded`]). `None` (the default) compiles to
    /// zero checks in the hot loops.
    pub deadline: Option<Duration>,
}

impl Session {
    /// A session with its own private store.
    pub fn new(inputs: Inputs) -> Self {
        Self::with_store(inputs, Arc::new(Store::new()))
    }

    /// A session over a shared store (fleets of sessions pool
    /// artifacts this way).
    pub fn with_store(inputs: Inputs, store: Arc<Store>) -> Self {
        Session {
            store,
            tracker: Tracker::new(),
            inputs,
            plan_threads: 1,
            mc_threads: 1,
            deadline: None,
        }
    }

    /// The stage tracker (clear it between queries to assert per-query
    /// stage sets).
    pub fn tracker(&self) -> &Tracker {
        &self.tracker
    }

    /// The shared store.
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// The current inputs.
    pub fn inputs(&self) -> &Inputs {
        &self.inputs
    }

    /// Answers the current inputs (a [`WhatIf::Nop`] query).
    pub fn baseline(&self) -> Answer {
        self.query(&WhatIf::Nop)
    }

    /// Fallible [`Session::baseline`].
    pub fn try_baseline(&self) -> PlanResult<Answer> {
        self.try_query(&WhatIf::Nop)
    }

    /// Answers one what-if query **without** committing the change.
    ///
    /// Panics on a [`PlanError`]; callers that need to survive invalid
    /// parameters, deadlines, or injected faults use
    /// [`Session::try_query`].
    pub fn query(&self, whatif: &WhatIf) -> Answer {
        self.try_query(whatif)
            .unwrap_or_else(|e| panic!("what-if query failed: {e}"))
    }

    /// Answers one what-if query **without** committing the change,
    /// surfacing failures as typed [`PlanError`]s. A failed query
    /// leaves the session and store fully serviceable: the next valid
    /// query answers byte-identically to a fresh cold session.
    pub fn try_query(&self, whatif: &WhatIf) -> PlanResult<Answer> {
        self.try_query_traced(whatif, None)
    }

    /// [`Session::try_query`] under a `"query"` span. Batch members
    /// pass their batch index as `ord` and become span-tree *roots*
    /// regardless of which worker thread runs them — batch position,
    /// not scheduling, is what the trace-determinism contract pins.
    /// Single queries (`ord = None`) nest under the caller's current
    /// span (e.g. an engine cell).
    fn try_query_traced(&self, whatif: &WhatIf, ord: Option<u64>) -> PlanResult<Answer> {
        let mut span = match ord {
            Some(o) => obs::span::enter_root_ord("query", o),
            None => obs::span::enter("query"),
        };
        let out = (|| {
            let inputs = self.try_hypothetical(whatif)?;
            inputs.validate()?;
            let budget = self.deadline.map(Budget::with_deadline);
            if budget.is_some() || seedmix::faultinject::is_armed() {
                // Cancellation and injected faults unwind by design;
                // keep their panic reports off stderr.
                install_quiet_unwind_hook();
            }
            self.try_resolve(&inputs, budget.as_ref())
        })();
        match &out {
            Ok(a) if a.degraded => span.set_outcome(SpanOutcome::Degraded),
            Ok(_) => {}
            Err(_) => span.set_outcome(SpanOutcome::Failed),
        }
        out
    }

    /// Answers a batch of independent what-if queries on `threads`
    /// workers (0 = all cores). Answers land in query order and are
    /// byte-identical for every thread budget: the store only decides
    /// who computes an artifact, never what it is.
    pub fn query_batch(&self, queries: &[WhatIf], threads: usize) -> Vec<Answer> {
        parallel_slots(queries.len(), threads, |i| {
            self.try_query_traced(&queries[i], Some(i as u64))
                .unwrap_or_else(|e| panic!("what-if query failed: {e}"))
        })
    }

    /// Fallible [`Session::query_batch`]: each query fails or succeeds
    /// independently — one malformed delta never takes down its batch
    /// neighbours.
    pub fn try_query_batch(&self, queries: &[WhatIf], threads: usize) -> Vec<PlanResult<Answer>> {
        parallel_slots(queries.len(), threads, |i| {
            self.try_query_traced(&queries[i], Some(i as u64))
        })
    }

    /// Commits a what-if delta as the session's new current inputs.
    ///
    /// Panics on a [`PlanError`]; see [`Session::try_apply`].
    pub fn apply(&mut self, whatif: &WhatIf) {
        self.try_apply(whatif)
            .unwrap_or_else(|e| panic!("apply failed: {e}"));
    }

    /// Commits a what-if delta as the session's new current inputs,
    /// rejecting malformed deltas **before** the commit — a failed
    /// apply leaves the current inputs untouched.
    pub fn try_apply(&mut self, whatif: &WhatIf) -> PlanResult<()> {
        let inputs = self.try_hypothetical(whatif)?;
        inputs.validate()?;
        self.inputs = inputs;
        Ok(())
    }

    /// The inputs `whatif` describes, materializing workflow edits.
    /// Edit parameters are validated here (the edit runs eagerly);
    /// everything else is validated by [`Inputs::validate`] on the
    /// assembled result.
    fn try_hypothetical(&self, whatif: &WhatIf) -> PlanResult<Inputs> {
        let mut inputs = self.inputs.clone();
        match whatif {
            WhatIf::Nop => {}
            WhatIf::SetPfail(p) => inputs.model = inputs.model.with_pfail(*p),
            WhatIf::SetModel(spec) => inputs.model = *spec,
            WhatIf::SetPolicy(spec) => inputs.policy = *spec,
            WhatIf::SetEvaluator(spec) => inputs.evaluator = *spec,
            WhatIf::SetProcs(n) => inputs.procs = *n,
            WhatIf::SetBandwidth(bw) => inputs.bandwidth = *bw,
            WhatIf::SetWorkflow(src) => inputs.workflow = src.clone(),
            WhatIf::SetTaskWeight { task, weight } => {
                if !weight.is_finite() || *weight < 0.0 {
                    return Err(PlanError::invalid(
                        "weight",
                        format!("must be finite and non-negative, got {weight}"),
                    ));
                }
                // The edit happens outside the stage graph (it *is* the
                // new Generate-stage input); downstream stages see a
                // changed workflow fingerprint and re-run.
                let wa = self.workflow_artifact(&self.inputs)?;
                let n = wa.workflow.dag.n_tasks();
                if *task >= n {
                    return Err(PlanError::invalid(
                        "task",
                        format!("index {task} out of range for a {n}-task workflow"),
                    ));
                }
                let mut edited = wa.workflow.clone();
                edited.dag.set_weight(TaskId(*task as u32), *weight);
                inputs.workflow = WorkflowSource::provided(edited);
            }
        }
        Ok(inputs)
    }

    /// Runs the stage graph for `inputs` against the store, recording
    /// one outcome per stage. `inputs` must already be validated.
    fn try_resolve(&self, inputs: &Inputs, budget: Option<&Budget>) -> PlanResult<Answer> {
        let wa = self.workflow_artifact(inputs)?;
        let w = &wa.workflow;
        let fp = wa.fp;
        let model = inputs.model.build(wa.mean_weight);
        let mfp = model_fp(&model);
        let bw_bits = inputs.bandwidth.to_bits();

        let (sched_key, schedule) = schedule_keyed(&wa, inputs.procs, inputs.alloc);
        let scheduled = self.memo_stage(
            StageId::Schedule,
            &self.store.schedules,
            sched_key,
            schedule,
        )?;
        let schedule = &scheduled.schedule;

        // Curve: model + span statistics (weights, sizes, bandwidth).
        let curve_key = compose(tag::CURVE, &[mfp, fp.structure, fp.file_sizes, bw_bits]);
        let curve = self.memo_stage(StageId::Curve, &self.store.curves, curve_key, || {
            curve_stage(
                &w.dag,
                &Platform::with_model(inputs.procs, model, inputs.bandwidth),
            )
        })?;

        let ctx = CostCtx {
            dag: &w.dag,
            model,
            bandwidth: inputs.bandwidth,
            curve: (*curve).as_ref(),
            budget,
        };

        // Placement: everything cost-relevant.
        let place_key = compose(
            tag::PLACEMENT,
            &[fp.combined(), mfp, bw_bits, sched_key, inputs.policy.fp()],
        );
        let plan = self.memo_stage(StageId::Placement, &self.store.plans, place_key, || {
            let policy = inputs.policy.build();
            let plan = placement_stage(
                &ctx,
                schedule,
                policy.as_ref(),
                &mut PolicyScratch::new(),
                self.plan_threads,
            )?;
            let fp = plan_fp(&plan);
            Ok(PlanArtifact { plan, fp })
        })?;

        // Segment topology: what coalescing reads besides the model —
        // weights and file sizes, bandwidth, schedule, and the plan by
        // content.
        let graph_key = compose(tag::GRAPH, &[fp.combined(), bw_bits, sched_key, plan.fp]);
        let topology =
            self.memo_stage(StageId::SegmentGraph, &self.store.graphs, graph_key, || {
                segment_topology_stage(&w.dag, inputs.bandwidth, schedule, &plan.plan)
            })?;

        // Analytic evaluate on the topology under this model. The
        // assessment also carries the policy name, the placement census
        // and w_par the answer reports; the placement key covers all of
        // them and the model.
        let eval_key = compose(tag::EVAL, &[place_key, inputs.evaluator.fp()]);
        let evaluate = || {
            let policy = inputs.policy.name();
            let evaluator = inputs.evaluator.build();
            let sg = topology.with_model(&ctx);
            assessment(policy, &sg, &w.dag, scheduled.w_par, evaluator.as_ref())
        };
        let eval = self.memo_stage(StageId::EvalAnalytic, &self.store.evals, eval_key, evaluate)?;

        // Monte Carlo ground truth, if configured. The one stage that
        // degrades instead of failing on an expired deadline: the
        // analytic fields above are already exact, so the answer is
        // served without ground truth and flagged.
        let mut degraded = false;
        let mc = match inputs.mc.as_ref() {
            None => None,
            Some(spec) => {
                let cfg = spec.sim_config(self.mc_threads);
                let mc_key = compose(tag::MC, &[graph_key, mfp, spec.fp()]);
                let res = self.memo_stage(StageId::EvalMc, &self.store.sims, mc_key, || {
                    let sg = topology.with_model(&ctx);
                    traced(StageId::EvalMc, || {
                        inject(StageId::EvalMc)?;
                        match budget {
                            None => Ok(montecarlo_segments_model(&sg, &model, &cfg)),
                            Some(b) => {
                                montecarlo_segments_model_abortable(&sg, &model, &cfg, &|| {
                                    b.is_exhausted()
                                })
                                .ok_or(PlanError::Cancelled)
                            }
                        }
                    })
                });
                match res {
                    Ok(stats) => Some(*stats),
                    Err(PlanError::Cancelled) => {
                        degraded = true;
                        None
                    }
                    Err(e) => return Err(e),
                }
            }
        };

        Ok(Answer {
            policy: eval.policy,
            expected_makespan: eval.expected_makespan,
            n_checkpoints: eval.n_checkpoints,
            n_segments: eval.n_segments,
            ckpt_files: eval.ckpt_files,
            ckpt_bytes: eval.ckpt_bytes,
            w_par: eval.w_par,
            mc,
            degraded,
        })
    }

    /// Resolves the Generate stage: memoized synthesis for generated
    /// sources, the artifact in hand for provided ones.
    fn workflow_artifact(&self, inputs: &Inputs) -> PlanResult<Arc<WorkflowArtifact>> {
        match &inputs.workflow {
            WorkflowSource::Provided(wa) => {
                let mut span =
                    obs::span::enter_key(StageId::Generate.resolve_site(), wa.fp.combined());
                span.set_outcome(SpanOutcome::Cached);
                self.tracker.record(StageId::Generate, Outcome::Cached);
                Ok(wa.clone())
            }
            WorkflowSource::Generated {
                class,
                size,
                seed,
                ccr,
            } => {
                let (key, generate) = generate_keyed(*class, *size, *seed, *ccr, inputs.bandwidth);
                self.memo_stage(StageId::Generate, &self.store.workflows, key, generate)
            }
        }
    }

    /// [`Memo::resolve`] with tracker recording: each resolution
    /// records exactly one outcome, the one its `"resolve.<stage>"`
    /// span carries.
    fn memo_stage<V: Send + Sync>(
        &self,
        stage: StageId,
        memo: &Memo<V>,
        key: u64,
        f: impl Fn() -> PlanResult<V>,
    ) -> PlanResult<Arc<V>> {
        let (res, outcome) = memo.resolve(stage, key, f);
        self.tracker.record(stage, outcome);
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_match_the_built_policies() {
        for spec in [
            PolicySpec::CkptAll,
            PolicySpec::DpOptimal,
            PolicySpec::ExitOnly,
            PolicySpec::Daly { period: None },
            PolicySpec::Daly { period: Some(60.0) },
            PolicySpec::Risk { max_risk: 0.1 },
            PolicySpec::Crossover,
        ] {
            assert_eq!(spec.build().name(), spec.name(), "{spec:?}");
        }
    }

    /// The grid engine resolves a lane's unscaled workflow and schedule
    /// through [`generate_keyed`] / [`schedule_keyed`] on its own store;
    /// a session over that store finds both artifacts under its keys.
    #[test]
    fn engine_style_lookups_share_the_session_key_scheme() {
        let store = Arc::new(Store::new());
        let (class, size, seed, procs, bandwidth) = (WorkflowClass::Montage, 50, 7, 5, 1e8);
        let (key, generate) = generate_keyed(class, size, seed, None, bandwidth);
        let (wa, outcome) = store.workflows.resolve(StageId::Generate, key, generate);
        assert_eq!(Outcome::Executed, outcome);
        let alloc = AllocateConfig {
            seed,
            ..AllocateConfig::default()
        };
        let wa = wa.unwrap();
        let (key, schedule) = schedule_keyed(&wa, procs, alloc);
        let (_, outcome) = store.schedules.resolve(StageId::Schedule, key, schedule);
        assert_eq!(Outcome::Executed, outcome);

        let source = WorkflowSource::Generated {
            class,
            size,
            seed,
            ccr: None,
        };
        let mut inputs = Inputs::basic(
            source,
            procs,
            bandwidth,
            ModelSpec::Exponential { pfail: 1e-3 },
        );
        inputs.alloc = alloc;
        let session = Session::with_store(inputs, store);
        session.baseline();
        let cached = session.tracker().cached();
        assert!(cached.contains(&StageId::Generate), "{cached:?}");
        assert!(cached.contains(&StageId::Schedule), "{cached:?}");
    }
}

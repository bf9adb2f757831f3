//! The experiment scenarios E1–E10, expressed against the
//! [`crate::engine`]. Each harness binary is now a thin CLI shell around
//! one of these types; the grids, seeds, caching and parallelism all
//! live here and in the engine. E1–E8 reproduce the paper's evaluation;
//! E9 ([`DistributionsScenario`]) extends it along the failure-model
//! axis (Weibull / LogNormal vs the exponential baseline), and E10
//! ([`StrategiesScenario`]) along the checkpoint-policy axis (the DP vs
//! Young/Daly periodic, risk-threshold, and structural placements).

use std::ops::Range;
use std::sync::Arc;

use ckpt_core::stage::schedule_stage;
use ckpt_core::{
    AllocateConfig, Assessment, CheckpointPolicy, CkptAllPolicy, DpOptimalPolicy, ExitOnlyPolicy,
    Pipeline, Schedule, StageId,
};
use ckpt_service::{ModelSpec, PolicySpec};
use failsim::{montecarlo_none_model, montecarlo_segments_model, McStats, SimConfig};
use mspg::linearize::Linearizer;
use mspg::Workflow;
use pegasus::ccr::scale_to_ccr;
use pegasus::WorkflowClass;
use probdag::{Dodin, MonteCarlo, NormalSculli, PathApprox};

use crate::engine::{in_stage, CcrAxis, Cell, CellCtx, Grid, ProcAxis, Scenario};
use crate::{figure_csv, timed_eval, FigureRow, BANDWIDTH, FIGURE_HEADER, PFAILS, SIZES};

/// E1/E2/E3 — one figure: relative expected makespan of CkptAll and
/// CkptNone over CkptSome across the CCR sweep.
#[derive(Clone, Debug)]
pub struct FigureScenario {
    /// Workflow class (one figure per class).
    pub class: WorkflowClass,
    /// Workflow sizes (rows of the figure).
    pub sizes: Vec<usize>,
    /// CCR points per sweep.
    pub ccr_points: usize,
    /// Generated instances averaged per cell.
    pub instances: usize,
    /// Base seed everything derives from.
    pub base_seed: u64,
}

impl FigureScenario {
    /// The paper's full grid for `class`.
    pub fn paper(
        class: WorkflowClass,
        ccr_points: usize,
        instances: usize,
        base_seed: u64,
    ) -> Self {
        FigureScenario {
            class,
            sizes: SIZES.to_vec(),
            ccr_points,
            instances,
            base_seed,
        }
    }
}

impl Scenario for FigureScenario {
    type Row = FigureRow;

    fn name(&self) -> &'static str {
        "figure"
    }

    fn cells(&self) -> Vec<Cell> {
        Grid {
            classes: vec![self.class],
            sizes: self.sizes.clone(),
            procs: ProcAxis::Paper,
            pfails: PFAILS.to_vec(),
            ccrs: CcrAxis::ClassLog {
                points: self.ccr_points,
            },
            instances: self.instances,
            base_seed: self.base_seed,
        }
        .cells()
    }

    fn run_cell(&self, cell: &Cell, ctx: &CellCtx<'_>) -> Vec<FigureRow> {
        let evaluator = PathApprox::default();
        let (mut em_some, mut em_all, mut em_none) = (0.0, 0.0, 0.0);
        let mut ckpts = 0usize;
        let mut actual = 0usize;
        for i in 0..cell.instances {
            let w = ctx.scaled_instance(cell, i);
            actual = w.n_tasks();
            let pipe = ctx.pipeline(cell, i, &w, Linearizer::RandomTopo);
            let some = pipe.assess(&DpOptimalPolicy, &evaluator);
            em_some += some.expected_makespan;
            ckpts += some.n_checkpoints;
            em_all += pipe.assess(&CkptAllPolicy, &evaluator).expected_makespan;
            // CkptNone is the Theorem 1 closed form — no planning stage.
            em_none += pipe.assess_none().expected_makespan;
        }
        let nf = cell.instances as f64;
        let (em_some, em_all, em_none) = (em_some / nf, em_all / nf, em_none / nf);
        vec![FigureRow {
            class: cell.class,
            size: cell.size,
            actual_tasks: actual,
            procs: cell.procs,
            pfail: cell.pfail,
            ccr: cell.ccr,
            em_some,
            em_all,
            em_none,
            ckpts_some: ckpts / cell.instances,
            rel_all: em_all / em_some,
            rel_none: em_none / em_some,
        }]
    }

    fn header(&self) -> String {
        FIGURE_HEADER.to_owned()
    }

    fn csv(&self, row: &FigureRow) -> String {
        figure_csv(row)
    }
}

/// One row of the E4 accuracy table.
#[derive(Clone, Debug)]
pub struct AccuracyRow {
    /// Workflow class.
    pub class: WorkflowClass,
    /// Requested task count.
    pub size: usize,
    /// Placement whose coalesced DAG is evaluated (CkptAll or
    /// CkptSome).
    pub strategy: &'static str,
    /// Nodes of the coalesced 2-state DAG.
    pub nodes: usize,
    /// Evaluator name.
    pub evaluator: &'static str,
    /// Expected-makespan estimate.
    pub estimate: f64,
    /// |estimate − MC| / MC, percent.
    pub rel_error_pct: f64,
    /// Evaluator runtime (seconds; wall clock, not deterministic).
    pub runtime_s: f64,
    /// Standard error of the Monte Carlo ground truth.
    pub mc_stderr: f64,
}

/// E4 — §VI-B: accuracy and runtime of the four 2-state evaluators
/// against the Monte Carlo ground truth. Each cell evaluates CkptAll's
/// coalesced DAG, then CkptSome's, both with the cell's one Monte Carlo
/// seed.
#[derive(Clone, Debug)]
pub struct AccuracyScenario {
    /// Monte Carlo trials for the ground truth (the paper uses 300 000).
    pub trials: usize,
    /// Workflow sizes.
    pub sizes: Vec<usize>,
    /// Per-task failure probability.
    pub pfail: f64,
    /// Base seed.
    pub base_seed: u64,
}

/// CSV header of the E4 table.
pub const ACCURACY_HEADER: &str =
    "class,size,strategy,nodes,evaluator,estimate,rel_error_pct,runtime_s,mc_stderr";

impl Scenario for AccuracyScenario {
    type Row = AccuracyRow;

    fn name(&self) -> &'static str {
        "accuracy"
    }

    fn cells(&self) -> Vec<Cell> {
        let classes = WorkflowClass::ALL.to_vec();
        Grid::midpoint(
            classes,
            self.sizes.clone(),
            vec![self.pfail],
            self.base_seed,
        )
        .cells()
    }

    fn run_cell(&self, cell: &Cell, ctx: &CellCtx<'_>) -> Vec<AccuracyRow> {
        let w = ctx.scaled_instance(cell, 0);
        let pipe = ctx.pipeline(cell, 0, &w, Linearizer::RandomTopo);
        let mc = MonteCarlo {
            trials: self.trials,
            seed: ctx.instance_seed(cell, 0),
            threads: ctx.mc_threads,
        };
        let policies: [&dyn CheckpointPolicy; 2] = [&CkptAllPolicy, &DpOptimalPolicy];
        let mut rows = Vec::with_capacity(8);
        for policy in policies {
            let sg = pipe.segment_graph(policy);
            let (truth, mc_time) = in_stage(StageId::EvalMc, || {
                let t0 = std::time::Instant::now();
                let truth = mc.run(&sg.pdag);
                (truth, t0.elapsed().as_secs_f64())
            });
            let evals = in_stage(StageId::EvalAnalytic, || {
                vec![
                    ("MonteCarlo", truth.mean, mc_time),
                    {
                        let (v, t) = timed_eval(&Dodin::default(), &sg.pdag);
                        ("Dodin", v, t)
                    },
                    {
                        let (v, t) = timed_eval(&NormalSculli, &sg.pdag);
                        ("Normal", v, t)
                    },
                    {
                        let (v, t) = timed_eval(&PathApprox::default(), &sg.pdag);
                        ("PathApprox", v, t)
                    },
                ]
            });
            rows.extend(evals.into_iter().map(|(name, v, t)| AccuracyRow {
                class: cell.class,
                size: cell.size,
                strategy: policy.name(),
                nodes: sg.pdag.n_nodes(),
                evaluator: name,
                estimate: v,
                rel_error_pct: 100.0 * (v - truth.mean).abs() / truth.mean,
                runtime_s: t,
                mc_stderr: truth.stderr,
            }));
        }
        rows
    }

    fn header(&self) -> String {
        ACCURACY_HEADER.to_owned()
    }

    fn csv(&self, r: &AccuracyRow) -> String {
        format!(
            "{},{},{},{},{},{:.6},{:.4},{:.6},{:.6}",
            r.class.name(),
            r.size,
            r.strategy,
            r.nodes,
            r.evaluator,
            r.estimate,
            r.rel_error_pct,
            r.runtime_s,
            r.mc_stderr
        )
    }
}

/// The paper's model-vs-simulation check of one placement on one
/// pipeline, shared by E5, E9 and E10: the analytic value next to its
/// discrete-event ground truth on the same inputs.
struct ModelVsSim {
    /// PathApprox on the placement's segment graph, or Theorem 1 for
    /// CkptNone.
    model: Assessment,
    /// The segment Monte Carlo on the same graph, or the CkptNone
    /// crossover-cascade simulation.
    sim: McStats,
    /// |model − sim| / sim, percent; `inf` when the simulated mean is
    /// not finite (every CkptNone run diverged), not `inf/inf = NaN`.
    rel_err_pct: f64,
    /// Diverged CkptNone runs (0 for a placement).
    diverged: usize,
}

/// [`ModelVsSim`] for `policy`'s placement, or for CkptNone when
/// `policy` is `None`, simulated under the pipeline's failure model.
fn model_vs_sim(
    pipe: &Pipeline<'_>,
    policy: Option<&dyn CheckpointPolicy>,
    cfg: &SimConfig,
) -> ModelVsSim {
    let failures = &pipe.platform.model;
    let (model, sim, diverged) = match policy {
        Some(policy) => {
            let sg = pipe.segment_graph(policy);
            let model = pipe.assess_graph(policy.name(), &sg, &PathApprox::default());
            let sim = in_stage(StageId::EvalMc, || {
                montecarlo_segments_model(&sg, failures, cfg)
            });
            (model, sim, 0)
        }
        None => {
            let dag = &pipe.workflow.dag;
            let sim = in_stage(StageId::EvalMc, || {
                montecarlo_none_model(dag, &pipe.schedule, failures, cfg)
            });
            (pipe.assess_none(), sim.stats, sim.diverged)
        }
    };
    let rel_err_pct = if sim.mean_makespan.is_finite() {
        100.0 * (model.expected_makespan - sim.mean_makespan).abs() / sim.mean_makespan
    } else {
        f64::INFINITY
    };
    ModelVsSim {
        model,
        sim,
        rel_err_pct,
        diverged,
    }
}

/// One row of the E5 validation table.
#[derive(Clone, Debug)]
pub struct ValidateRow {
    /// Workflow class.
    pub class: WorkflowClass,
    /// Requested task count.
    pub size: usize,
    /// Per-task failure probability.
    pub pfail: f64,
    /// Strategy name.
    pub strategy: &'static str,
    /// Model name (`Eq2+PathApprox` or `Theorem1`).
    pub model: &'static str,
    /// First-order model estimate.
    pub model_em: f64,
    /// Simulated mean makespan.
    pub sim_em: f64,
    /// Standard error of the simulated mean.
    pub sim_stderr: f64,
    /// |model − sim| / sim, percent.
    pub rel_err_pct: f64,
    /// Diverged CkptNone runs (0 for checkpointed strategies).
    pub diverged: usize,
}

/// E5 — first-order model vs discrete-event simulation.
#[derive(Clone, Debug)]
pub struct ValidateScenario {
    /// Simulated executions per cell.
    pub runs: usize,
    /// Workflow sizes.
    pub sizes: Vec<usize>,
    /// Base seed.
    pub base_seed: u64,
}

/// CSV header of the E5 table.
pub const VALIDATE_HEADER: &str =
    "class,size,pfail,strategy,model,model_em,sim_em,sim_stderr,rel_err_pct,diverged";

impl Scenario for ValidateScenario {
    type Row = ValidateRow;

    fn name(&self) -> &'static str {
        "validate"
    }

    fn cells(&self) -> Vec<Cell> {
        let classes = WorkflowClass::ALL.to_vec();
        Grid::midpoint(classes, self.sizes.clone(), PFAILS.to_vec(), self.base_seed).cells()
    }

    fn run_cell(&self, cell: &Cell, ctx: &CellCtx<'_>) -> Vec<ValidateRow> {
        let w = ctx.scaled_instance(cell, 0);
        let pipe = ctx.pipeline(cell, 0, &w, Linearizer::RandomTopo);
        let cfg = SimConfig {
            runs: self.runs,
            seed: ctx.instance_seed(cell, 0),
            threads: ctx.mc_threads,
            ..Default::default()
        };
        let placements: [Option<&dyn CheckpointPolicy>; 3] =
            [Some(&CkptAllPolicy), Some(&DpOptimalPolicy), None];
        placements
            .into_iter()
            .map(|policy| {
                let check = model_vs_sim(&pipe, policy, &cfg);
                ValidateRow {
                    class: cell.class,
                    size: cell.size,
                    pfail: cell.pfail,
                    strategy: check.model.policy,
                    model: if policy.is_some() {
                        "Eq2+PathApprox"
                    } else {
                        "Theorem1"
                    },
                    model_em: check.model.expected_makespan,
                    sim_em: check.sim.mean_makespan,
                    sim_stderr: check.sim.stderr,
                    rel_err_pct: check.rel_err_pct,
                    diverged: check.diverged,
                }
            })
            .collect()
    }

    fn header(&self) -> String {
        VALIDATE_HEADER.to_owned()
    }

    fn csv(&self, r: &ValidateRow) -> String {
        format!(
            "{},{},{},{},{},{:.4},{:.4},{:.4},{:.3},{}",
            r.class.name(),
            r.size,
            r.pfail,
            r.strategy,
            r.model,
            r.model_em,
            r.sim_em,
            r.sim_stderr,
            r.rel_err_pct,
            r.diverged
        )
    }
}

/// One row of the E6 linearization ablation.
#[derive(Clone, Debug)]
pub struct LinearizationRow {
    /// Workflow class.
    pub class: WorkflowClass,
    /// Communication-to-computation ratio.
    pub ccr: f64,
    /// Per-task failure probability.
    pub pfail: f64,
    /// CkptSome expected makespan under the random topological order.
    pub em_random: f64,
    /// … under the volume-minimizing order.
    pub em_minvolume: f64,
    /// … under the structural order.
    pub em_structural: f64,
    /// Gain of MinVolume over random, percent.
    pub gain_pct: f64,
}

/// E6 — superchain linearizers inside CkptSome.
#[derive(Clone, Debug)]
pub struct LinearizationScenario {
    /// CCR points per class sweep.
    pub ccr_points: usize,
    /// Base seed.
    pub base_seed: u64,
}

/// CSV header of the E6 table.
pub const LINEARIZATION_HEADER: &str =
    "class,ccr,pfail,em_random,em_minvolume,em_structural,minvolume_gain_pct";

impl Scenario for LinearizationScenario {
    type Row = LinearizationRow;

    fn name(&self) -> &'static str {
        "linearization"
    }

    fn cells(&self) -> Vec<Cell> {
        Grid {
            classes: vec![WorkflowClass::Montage, WorkflowClass::Genome],
            sizes: vec![300],
            procs: ProcAxis::Explicit(vec![18]),
            pfails: vec![0.01, 0.001],
            ccrs: CcrAxis::ClassLog {
                points: self.ccr_points,
            },
            instances: 1,
            base_seed: self.base_seed,
        }
        .cells()
    }

    fn run_cell(&self, cell: &Cell, ctx: &CellCtx<'_>) -> Vec<LinearizationRow> {
        let w = ctx.scaled_instance(cell, 0);
        let evaluator = PathApprox::default();
        let em = |lin: Linearizer| {
            ctx.pipeline(cell, 0, &w, lin)
                .assess(&DpOptimalPolicy, &evaluator)
                .expected_makespan
        };
        let em_random = em(Linearizer::RandomTopo);
        let em_minvolume = em(Linearizer::MinVolume);
        let em_structural = em(Linearizer::Structural);
        vec![LinearizationRow {
            class: cell.class,
            ccr: cell.ccr,
            pfail: cell.pfail,
            em_random,
            em_minvolume,
            em_structural,
            gain_pct: 100.0 * (em_random - em_minvolume) / em_random,
        }]
    }

    fn header(&self) -> String {
        LINEARIZATION_HEADER.to_owned()
    }

    fn csv(&self, r: &LinearizationRow) -> String {
        format!(
            "{},{:.6e},{},{:.4},{:.4},{:.4},{:.3}",
            r.class.name(),
            r.ccr,
            r.pfail,
            r.em_random,
            r.em_minvolume,
            r.em_structural,
            r.gain_pct
        )
    }
}

/// One row of the E7 naive-coalescing ablation.
#[derive(Clone, Debug)]
pub struct NaiveCoalesceRow {
    /// Workflow class.
    pub class: WorkflowClass,
    /// Requested task count.
    pub size: usize,
    /// Communication-to-computation ratio.
    pub ccr: f64,
    /// Per-task failure probability.
    pub pfail: f64,
    /// Expected makespan of the §II-C naive solution.
    pub em_exit_only: f64,
    /// Expected makespan of the DP.
    pub em_ckptsome: f64,
    /// ExitOnly / CkptSome.
    pub ratio: f64,
}

/// E7 — exit-only checkpoints (naive coalescing) vs the DP.
#[derive(Clone, Debug)]
pub struct NaiveCoalesceScenario {
    /// CCR points per class sweep.
    pub ccr_points: usize,
    /// Base seed.
    pub base_seed: u64,
}

/// CSV header of the E7 table.
pub const NAIVE_COALESCE_HEADER: &str = "class,size,ccr,pfail,em_exit_only,em_ckptsome,ratio";

impl Scenario for NaiveCoalesceScenario {
    type Row = NaiveCoalesceRow;

    fn name(&self) -> &'static str {
        "naive_coalesce"
    }

    fn cells(&self) -> Vec<Cell> {
        Grid {
            classes: WorkflowClass::ALL.to_vec(),
            sizes: vec![50, 300],
            procs: ProcAxis::PaperIndex(1),
            pfails: vec![0.01, 0.001],
            ccrs: CcrAxis::ClassLog {
                points: self.ccr_points,
            },
            instances: 1,
            base_seed: self.base_seed,
        }
        .cells()
    }

    fn run_cell(&self, cell: &Cell, ctx: &CellCtx<'_>) -> Vec<NaiveCoalesceRow> {
        let w = ctx.scaled_instance(cell, 0);
        let pipe = ctx.pipeline(cell, 0, &w, Linearizer::RandomTopo);
        let evaluator = PathApprox::default();
        let em = |policy: &dyn CheckpointPolicy| pipe.assess(policy, &evaluator).expected_makespan;
        let em_exit_only = em(&ExitOnlyPolicy);
        let em_ckptsome = em(&DpOptimalPolicy);
        vec![NaiveCoalesceRow {
            class: cell.class,
            size: cell.size,
            ccr: cell.ccr,
            pfail: cell.pfail,
            em_exit_only,
            em_ckptsome,
            ratio: em_exit_only / em_ckptsome,
        }]
    }

    fn header(&self) -> String {
        NAIVE_COALESCE_HEADER.to_owned()
    }

    fn csv(&self, r: &NaiveCoalesceRow) -> String {
        format!(
            "{},{},{:.6e},{},{:.4},{:.4},{:.4}",
            r.class.name(),
            r.size,
            r.ccr,
            r.pfail,
            r.em_exit_only,
            r.em_ckptsome,
            r.ratio
        )
    }
}

/// One row of the E8 Ligo-footnote study.
#[derive(Clone, Debug)]
pub struct LigoFootnoteRow {
    /// Communication-to-computation ratio.
    pub ccr: f64,
    /// Per-task failure probability.
    pub pfail: f64,
    /// rel_all of the mainline (complete-bipartite) instance.
    pub rel_all_mainline: f64,
    /// rel_all of the dummy-patched incomplete instance.
    pub rel_all_patched: f64,
    /// mainline − patched.
    pub sync_penalty: f64,
}

/// E8 — the Ligo incomplete-bipartite footnote: CkptSome must process
/// the dummy-patched workflow (extra synchronizations, no data), while
/// CkptAll's costs are unaffected by the zero-size dummies.
///
/// The two 300-task instances (and their CCR-invariant schedules) are
/// built once at construction; each cell only rescales clones and
/// shares the schedules.
pub struct LigoFootnoteScenario {
    ccr_points: usize,
    base_seed: u64,
    mainline: Workflow,
    mainline_schedule: Arc<Schedule>,
    patched: Workflow,
    patched_schedule: Arc<Schedule>,
}

/// CSV header of the E8 table.
pub const LIGO_FOOTNOTE_HEADER: &str = "ccr,pfail,rel_all_mainline,rel_all_patched,sync_penalty";

const LIGO_FOOTNOTE_PROCS: usize = 18;

impl LigoFootnoteScenario {
    /// Builds both Ligo-300 variants and their schedules.
    pub fn new(ccr_points: usize, base_seed: u64) -> Self {
        let seed = seedmix::derive(base_seed, &[WorkflowClass::Ligo as u64, 300]);
        let wf_seed = seedmix::stream_seed(seed, 0);
        let mainline = pegasus::ligo::generate(300, wf_seed);
        let mut inc = pegasus::ligo::generate_incomplete(300, wf_seed);
        let shape = pegasus::ligo::ligo_shape(300);
        for g in 0..shape.groups {
            mspg::patch::complete_bipartite(
                &mut inc.dag,
                &inc.inspiral_level[g],
                &inc.thinca_level[g],
            );
        }
        let root = mspg::recognize(&inc.dag).expect("patched Ligo must be an M-SPG");
        let patched = Workflow::from_wired(inc.dag, root);
        patched.validate().expect("patched workflow valid");
        let cfg = AllocateConfig {
            linearizer: Linearizer::RandomTopo,
            seed: wf_seed,
        };
        let schedule = |w| schedule_stage(w, LIGO_FOOTNOTE_PROCS, &cfg).expect("valid E8 inputs");
        let mainline_schedule = Arc::new(schedule(&mainline));
        let patched_schedule = Arc::new(schedule(&patched));
        LigoFootnoteScenario {
            ccr_points,
            base_seed,
            mainline,
            mainline_schedule,
            patched,
            patched_schedule,
        }
    }

    fn rel_all(w: &Workflow, schedule: Arc<Schedule>, cell: &Cell, ctx: &CellCtx<'_>) -> f64 {
        let w = in_stage(StageId::Generate, || {
            let mut w = w.clone();
            scale_to_ccr(&mut w, cell.ccr, BANDWIDTH);
            w
        });
        let lambda = ckpt_core::lambda_from_pfail(cell.pfail, w.dag.mean_weight());
        let platform = ckpt_core::Platform::new(cell.procs, lambda, BANDWIDTH);
        let pipe = ckpt_core::Pipeline::with_schedule(&w, platform, schedule)
            .with_plan_threads(ctx.plan_threads);
        let evaluator = PathApprox::default();
        let em = |policy: &dyn CheckpointPolicy| pipe.assess(policy, &evaluator).expected_makespan;
        em(&CkptAllPolicy) / em(&DpOptimalPolicy)
    }
}

impl Scenario for LigoFootnoteScenario {
    type Row = LigoFootnoteRow;

    fn name(&self) -> &'static str {
        "ligo_footnote"
    }

    fn cells(&self) -> Vec<Cell> {
        Grid {
            classes: vec![WorkflowClass::Ligo],
            sizes: vec![300],
            procs: ProcAxis::Explicit(vec![LIGO_FOOTNOTE_PROCS]),
            pfails: vec![0.001],
            ccrs: CcrAxis::ClassLog {
                points: self.ccr_points,
            },
            instances: 1,
            base_seed: self.base_seed,
        }
        .cells()
    }

    fn run_cell(&self, cell: &Cell, ctx: &CellCtx<'_>) -> Vec<LigoFootnoteRow> {
        let mainline = Self::rel_all(&self.mainline, self.mainline_schedule.clone(), cell, ctx);
        let patched = Self::rel_all(&self.patched, self.patched_schedule.clone(), cell, ctx);
        vec![LigoFootnoteRow {
            ccr: cell.ccr,
            pfail: cell.pfail,
            rel_all_mainline: mainline,
            rel_all_patched: patched,
            sync_penalty: mainline - patched,
        }]
    }

    fn header(&self) -> String {
        LIGO_FOOTNOTE_HEADER.to_owned()
    }

    fn csv(&self, r: &LigoFootnoteRow) -> String {
        format!(
            "{:.6e},{},{:.4},{:.4},{:.4}",
            r.ccr, r.pfail, r.rel_all_mainline, r.rel_all_patched, r.sync_penalty
        )
    }
}

/// The E9/E10 cell layout: the cells of a base grid repeated once per
/// block, block-major and re-indexed, so every block pairs the same
/// lanes, seeds and pfails (a paired comparison across blocks).
struct Blocks<B> {
    base: Vec<Cell>,
    blocks: Vec<B>,
}

impl<B: Copy> Blocks<B> {
    fn new(base: Grid, blocks: Vec<B>) -> Self {
        assert!(!blocks.is_empty(), "need at least one block");
        Blocks {
            base: base.cells(),
            blocks,
        }
    }

    fn cells(&self) -> Vec<Cell> {
        (0..self.blocks.len())
            .flat_map(|_| &self.base)
            .enumerate()
            .map(|(index, c)| Cell { index, ..c.clone() })
            .collect()
    }

    /// The block `cell` belongs to.
    fn of(&self, cell: &Cell) -> B {
        self.blocks[cell.index / self.base.len()]
    }

    /// Each block with its contiguous cell-index range.
    fn ranges(&self) -> impl Iterator<Item = (B, Range<usize>)> + '_ {
        let n = self.base.len();
        self.blocks
            .iter()
            .enumerate()
            .map(move |(b, &block)| (block, b * n..(b + 1) * n))
    }
}

/// The `family(shape)` label of a failure-model block.
fn model_label(spec: &ModelSpec) -> String {
    let family = match spec {
        ModelSpec::Weibull { .. } => "weibull",
        ModelSpec::LogNormal { .. } => "lognormal",
        _ => "exponential",
    };
    format!("{family}({})", spec.shape())
}

/// One row of the E9 `distributions` table.
#[derive(Clone, Debug)]
pub struct DistributionRow {
    /// Workflow class.
    pub class: WorkflowClass,
    /// Requested task count.
    pub size: usize,
    /// Processor count.
    pub procs: usize,
    /// Per-task failure probability every model is calibrated to.
    pub pfail: f64,
    /// Communication-to-computation ratio.
    pub ccr: f64,
    /// Failure-model family.
    pub model: &'static str,
    /// Shape knob of the family.
    pub shape: f64,
    /// Strategy name.
    pub strategy: &'static str,
    /// Analytic expected makespan (renewal cost path + PathApprox, or
    /// generalized Theorem 1 for CkptNone).
    pub model_em: f64,
    /// Simulated mean makespan.
    pub sim_em: f64,
    /// Standard error of the simulated mean.
    pub sim_stderr: f64,
    /// |model − sim| / sim, percent.
    pub rel_err_pct: f64,
    /// Diverged CkptNone runs (0 for checkpointed strategies).
    pub diverged: usize,
}

/// E9 — the failure-distribution study: CkptAll / CkptNone / CkptSome /
/// ExitOnly under non-memoryless failure models (Weibull, LogNormal)
/// against the exponential baseline, every family calibrated to the same
/// per-task `pfail`. The analytic column exercises the quadrature
/// renewal cost path; the simulation column is its ground truth.
///
/// The cell list is the Cartesian grid `model × class × size × pfail`
/// (model outermost, so each model's block reuses the same per-lane
/// workflow instances, schedules, and simulation seeds — a paired
/// comparison across families).
#[derive(Clone, Debug)]
pub struct DistributionsScenario {
    /// Failure-model family points. Each cell re-calibrates its family
    /// to the cell's `pfail` ([`ModelSpec::with_pfail`]), so the `pfail`
    /// a family is listed with is a placeholder (NaN in the standard
    /// study).
    pub models: Vec<ModelSpec>,
    /// Workflow sizes.
    pub sizes: Vec<usize>,
    /// Per-task failure probabilities.
    pub pfails: Vec<f64>,
    /// Simulated executions per cell and strategy.
    pub runs: usize,
    /// Base seed.
    pub base_seed: u64,
}

/// CSV header of the E9 table.
pub const DISTRIBUTIONS_HEADER: &str =
    "class,size,procs,pfail,ccr,model,shape,strategy,model_em,sim_em,sim_stderr,rel_err_pct,diverged";

impl DistributionsScenario {
    /// The default study: exponential baseline, infant-mortality and
    /// wear-out Weibull, and a heavy-tailed LogNormal.
    pub fn standard(runs: usize, sizes: Vec<usize>, base_seed: u64) -> Self {
        let pfail = f64::NAN; // placeholder: each cell re-calibrates
        DistributionsScenario {
            models: vec![
                ModelSpec::Exponential { pfail },
                ModelSpec::Weibull { shape: 0.7, pfail },
                ModelSpec::Weibull { shape: 2.0, pfail },
                ModelSpec::LogNormal { sigma: 1.0, pfail },
            ],
            sizes,
            pfails: vec![0.01, 0.001],
            runs,
            base_seed,
        }
    }

    fn layout(&self) -> Blocks<ModelSpec> {
        let classes = WorkflowClass::ALL.to_vec();
        let base = Grid::midpoint(
            classes,
            self.sizes.clone(),
            self.pfails.clone(),
            self.base_seed,
        );
        Blocks::new(base, self.models.clone())
    }

    /// The contiguous cell-index range of each model's block, labelled
    /// `family(shape)` — used by the binary to attribute per-block
    /// wall-clock from [`crate::engine::RunReport::cell_walls`].
    pub fn blocks(&self) -> Vec<(String, Range<usize>)> {
        let layout = self.layout();
        layout
            .ranges()
            .map(|(spec, r)| (model_label(&spec), r))
            .collect()
    }
}

impl Scenario for DistributionsScenario {
    type Row = DistributionRow;

    fn name(&self) -> &'static str {
        "distributions"
    }

    fn cells(&self) -> Vec<Cell> {
        self.layout().cells()
    }

    fn run_cell(&self, cell: &Cell, ctx: &CellCtx<'_>) -> Vec<DistributionRow> {
        let spec = self.layout().of(cell).with_pfail(cell.pfail);
        let w = ctx.scaled_instance(cell, 0);
        let model = spec.build(w.dag.mean_weight());
        let pipe = ctx.pipeline_with_model(cell, 0, &w, Linearizer::RandomTopo, model);
        let cfg = SimConfig {
            runs: self.runs,
            seed: ctx.instance_seed(cell, 0),
            threads: ctx.mc_threads,
            // Wear-out models at high pfail push CkptNone into genuine
            // divergence (every attempt of a long task fails); a tight
            // budget censors those runs quickly instead of grinding
            // through the default million-failure budget per run.
            max_failures: 10_000,
            ..Default::default()
        };
        let placements: [Option<&dyn CheckpointPolicy>; 4] = [
            Some(&CkptAllPolicy),
            Some(&DpOptimalPolicy),
            Some(&ExitOnlyPolicy),
            None,
        ];
        placements
            .into_iter()
            .map(|policy| {
                let check = model_vs_sim(&pipe, policy, &cfg);
                DistributionRow {
                    class: cell.class,
                    size: cell.size,
                    procs: cell.procs,
                    pfail: cell.pfail,
                    ccr: cell.ccr,
                    model: model.family_name(),
                    shape: spec.shape(),
                    strategy: check.model.policy,
                    model_em: check.model.expected_makespan,
                    sim_em: check.sim.mean_makespan,
                    sim_stderr: check.sim.stderr,
                    rel_err_pct: check.rel_err_pct,
                    diverged: check.diverged,
                }
            })
            .collect()
    }

    fn header(&self) -> String {
        DISTRIBUTIONS_HEADER.to_owned()
    }

    fn csv(&self, r: &DistributionRow) -> String {
        format!(
            "{},{},{},{},{:.6e},{},{},{},{:.4},{:.4},{:.4},{:.3},{}",
            r.class.name(),
            r.size,
            r.procs,
            r.pfail,
            r.ccr,
            r.model,
            r.shape,
            r.strategy,
            r.model_em,
            r.sim_em,
            r.sim_stderr,
            r.rel_err_pct,
            r.diverged
        )
    }
}

/// One row of the E10 `strategies` table.
#[derive(Clone, Debug)]
pub struct StrategyRow {
    /// Workflow class.
    pub class: WorkflowClass,
    /// Requested task count.
    pub size: usize,
    /// Processor count.
    pub procs: usize,
    /// Per-task failure probability every model is calibrated to.
    pub pfail: f64,
    /// Communication-to-computation ratio.
    pub ccr: f64,
    /// Failure-model family.
    pub model: &'static str,
    /// Shape knob of the family.
    pub shape: f64,
    /// Checkpoint-policy name.
    pub policy: &'static str,
    /// Analytic expected makespan (renewal cost path + PathApprox).
    pub model_em: f64,
    /// Simulated mean makespan.
    pub sim_em: f64,
    /// Standard error of the simulated mean.
    pub sim_stderr: f64,
    /// |model − sim| / sim, percent.
    pub rel_err_pct: f64,
    /// Coalesced segments (= checkpointed tasks).
    pub segments: usize,
    /// Files the placement checkpoints.
    pub ckpt_files: usize,
    /// Bytes the placement checkpoints.
    pub ckpt_bytes: f64,
}

/// E10 — the checkpoint-policy study: the DP placement against the
/// classical competitors (Young/Daly periodic, adaptive risk-threshold,
/// structural crossover) and the paper's baselines, under exponential
/// and non-memoryless failure models, every family calibrated to the
/// cell's `pfail`. Quantifies what the DP actually buys over periodic
/// checkpointing — especially under wear-out, where memoryless-tuned
/// periods should visibly lose.
///
/// The cell list is the Cartesian grid `policy × model × class × size ×
/// pfail` with the **policy axis outermost** (then the model axis), so
/// every `(policy, model)` block reuses the same per-lane workflow
/// instances, schedules, and simulation seeds — a paired comparison
/// along both new axes.
#[derive(Clone, Debug)]
pub struct StrategiesScenario {
    /// Checkpoint policies (blocks, outermost axis). Names carry no knob
    /// values, so list at most one point per policy family.
    pub policies: Vec<PolicySpec>,
    /// Failure-model family points (inner block axis), re-calibrated per
    /// cell as in [`DistributionsScenario::models`].
    pub models: Vec<ModelSpec>,
    /// Workflow classes.
    pub classes: Vec<WorkflowClass>,
    /// Workflow sizes.
    pub sizes: Vec<usize>,
    /// Per-task failure probabilities.
    pub pfails: Vec<f64>,
    /// Simulated executions per cell.
    pub runs: usize,
    /// Base seed.
    pub base_seed: u64,
}

/// CSV header of the E10 table.
pub const STRATEGIES_HEADER: &str = "class,size,procs,pfail,ccr,model,shape,policy,\
     model_em,sim_em,sim_stderr,rel_err_pct,segments,ckpt_files,ckpt_bytes";

impl StrategiesScenario {
    /// The default study: all six builtin policies under the
    /// exponential baseline and both Weibull regimes, on the two
    /// structurally extreme classes (Genome's deep lanes, Montage's
    /// wide levels).
    pub fn standard(runs: usize, sizes: Vec<usize>, base_seed: u64) -> Self {
        let pfail = f64::NAN; // placeholder: each cell re-calibrates
        StrategiesScenario {
            policies: vec![
                PolicySpec::DpOptimal,
                PolicySpec::CkptAll,
                PolicySpec::ExitOnly,
                PolicySpec::Daly { period: None },
                PolicySpec::Risk { max_risk: 0.1 },
                PolicySpec::Crossover,
            ],
            models: vec![
                ModelSpec::Exponential { pfail },
                ModelSpec::Weibull { shape: 0.7, pfail },
                ModelSpec::Weibull { shape: 2.0, pfail },
            ],
            classes: vec![WorkflowClass::Genome, WorkflowClass::Montage],
            sizes,
            pfails: vec![0.01, 0.001],
            runs,
            base_seed,
        }
    }

    fn layout(&self) -> Blocks<(PolicySpec, ModelSpec)> {
        let base = Grid::midpoint(
            self.classes.clone(),
            self.sizes.clone(),
            self.pfails.clone(),
            self.base_seed,
        );
        let blocks = self
            .policies
            .iter()
            .flat_map(|&p| self.models.iter().map(move |&m| (p, m)))
            .collect();
        Blocks::new(base, blocks)
    }

    /// The contiguous cell-index range of each `(policy, model)` block,
    /// labelled `policy/family(shape)` — used by the binary to
    /// attribute per-block wall-clock.
    pub fn blocks(&self) -> Vec<(String, Range<usize>)> {
        let layout = self.layout();
        let label = |(policy, spec): (PolicySpec, ModelSpec)| {
            format!("{}/{}", policy.name(), model_label(&spec))
        };
        layout.ranges().map(|(b, r)| (label(b), r)).collect()
    }
}

impl Scenario for StrategiesScenario {
    type Row = StrategyRow;

    fn name(&self) -> &'static str {
        "strategies"
    }

    fn cells(&self) -> Vec<Cell> {
        self.layout().cells()
    }

    fn run_cell(&self, cell: &Cell, ctx: &CellCtx<'_>) -> Vec<StrategyRow> {
        let (policy, spec) = self.layout().of(cell);
        let spec = spec.with_pfail(cell.pfail);
        let w = ctx.scaled_instance(cell, 0);
        let model = spec.build(w.dag.mean_weight());
        let pipe = ctx.pipeline_with_model(cell, 0, &w, Linearizer::RandomTopo, model);
        let cfg = SimConfig {
            runs: self.runs,
            seed: ctx.instance_seed(cell, 0),
            threads: ctx.mc_threads,
            max_failures: 10_000,
            ..Default::default()
        };
        let check = model_vs_sim(&pipe, Some(policy.build().as_ref()), &cfg);
        vec![StrategyRow {
            class: cell.class,
            size: cell.size,
            procs: cell.procs,
            pfail: cell.pfail,
            ccr: cell.ccr,
            model: model.family_name(),
            shape: spec.shape(),
            policy: check.model.policy,
            model_em: check.model.expected_makespan,
            sim_em: check.sim.mean_makespan,
            sim_stderr: check.sim.stderr,
            rel_err_pct: check.rel_err_pct,
            segments: check.model.n_segments,
            ckpt_files: check.model.ckpt_files,
            ckpt_bytes: check.model.ckpt_bytes,
        }]
    }

    fn header(&self) -> String {
        STRATEGIES_HEADER.to_owned()
    }

    fn csv(&self, r: &StrategyRow) -> String {
        format!(
            "{},{},{},{},{:.6e},{},{},{},{:.4},{:.4},{:.4},{:.3},{},{},{:.6e}",
            r.class.name(),
            r.size,
            r.procs,
            r.pfail,
            r.ccr,
            r.model,
            r.shape,
            r.policy,
            r.model_em,
            r.sim_em,
            r.sim_stderr,
            r.rel_err_pct,
            r.segments,
            r.ckpt_files,
            r.ckpt_bytes
        )
    }
}

/// One row of the E12 `drift` table: the answer to one step of a
/// session's drift ladder. Results only — stage-execution metadata
/// stays out of the CSV so the bytes are comparable against any cold
/// recompute.
#[derive(Clone, Debug)]
pub struct DriftRow {
    /// Workflow class.
    pub class: WorkflowClass,
    /// Requested task count.
    pub size: usize,
    /// Processor count the step ran on (drifts mid-ladder).
    pub procs: usize,
    /// Communication-to-computation ratio.
    pub ccr: f64,
    /// Ladder step index.
    pub step: usize,
    /// What drifted at this step.
    pub kind: &'static str,
    /// The drifted value (pfail, shape, or processor count).
    pub param: f64,
    /// Placement policy in force.
    pub policy: &'static str,
    /// Analytic expected makespan.
    pub em: f64,
    /// Coalesced segments.
    pub segments: usize,
    /// Files the placement checkpoints.
    pub ckpt_files: usize,
    /// Bytes the placement checkpoints.
    pub ckpt_bytes: f64,
    /// Failure-free parallel time of the schedule in force.
    pub w_par: f64,
}

/// CSV header of the E12 table.
pub const DRIFT_HEADER: &str =
    "class,size,procs,ccr,step,kind,param,policy,em,segments,ckpt_files,ckpt_bytes,w_par";

/// E12 — the incremental-planning drift sweep: every cell opens a fresh
/// [`ckpt_service::Session`] on its `(class, size)` instance and
/// serially commits a fixed **drift ladder** — λ drifts, policy swaps,
/// a platform rescale, a model-family swap, and a return to the
/// starting λ — emitting one row per step. This drives the service's
/// incremental path end-to-end under the engine (cells in parallel,
/// each ladder sequential and stateful), and with
/// [`DriftScenario::self_check`] on, every step's answer is asserted
/// bit-identical to a cold recompute of the same drifted inputs in a
/// fresh store — the soundness bar, enforced inside the run itself.
#[derive(Clone, Debug)]
pub struct DriftScenario {
    /// Workflow classes.
    pub classes: Vec<WorkflowClass>,
    /// Workflow sizes.
    pub sizes: Vec<usize>,
    /// Base per-task failure probability each ladder starts from.
    pub pfail: f64,
    /// Assert each incremental answer against a cold recompute.
    pub self_check: bool,
    /// Base seed.
    pub base_seed: u64,
}

impl DriftScenario {
    /// The default sweep: both structurally extreme classes, cold
    /// self-check on.
    pub fn standard(sizes: Vec<usize>, base_seed: u64) -> Self {
        DriftScenario {
            classes: vec![WorkflowClass::Genome, WorkflowClass::Montage],
            sizes,
            pfail: 1e-3,
            self_check: true,
            base_seed,
        }
    }

    /// The drift ladder every cell walks: `(kind, param, delta)`
    /// triples, committed in order.
    fn ladder(&self, procs: usize) -> Vec<(&'static str, f64, ckpt_service::WhatIf)> {
        use ckpt_service::{ModelSpec, PolicySpec, WhatIf};
        let p = self.pfail;
        vec![
            ("baseline", p, WhatIf::Nop),
            ("pfail", 2.0 * p, WhatIf::SetPfail(2.0 * p)),
            ("pfail", 4.0 * p, WhatIf::SetPfail(4.0 * p)),
            ("policy", 4.0 * p, WhatIf::SetPolicy(PolicySpec::CkptAll)),
            ("policy", 4.0 * p, WhatIf::SetPolicy(PolicySpec::ExitOnly)),
            ("policy", 4.0 * p, WhatIf::SetPolicy(PolicySpec::DpOptimal)),
            ("procs", (2 * procs) as f64, WhatIf::SetProcs(2 * procs)),
            (
                "model",
                0.7,
                WhatIf::SetModel(ModelSpec::Weibull {
                    shape: 0.7,
                    pfail: 4.0 * p,
                }),
            ),
            // Return to the starting λ: with the Weibull family in
            // force this re-calibrates it, not the original
            // exponential — drift ladders don't rewind.
            ("pfail", p, WhatIf::SetPfail(p)),
        ]
    }
}

impl Scenario for DriftScenario {
    type Row = DriftRow;

    fn name(&self) -> &'static str {
        "drift"
    }

    fn cells(&self) -> Vec<Cell> {
        let (classes, sizes) = (self.classes.clone(), self.sizes.clone());
        Grid::midpoint(classes, sizes, vec![self.pfail], self.base_seed).cells()
    }

    fn run_cell(&self, cell: &Cell, ctx: &CellCtx<'_>) -> Vec<DriftRow> {
        use ckpt_service::{Inputs, ModelSpec, Session, WorkflowSource};
        let seed = ctx.instance_seed(cell, 0);
        let source = WorkflowSource::Generated {
            class: cell.class,
            size: cell.size,
            seed,
            ccr: Some(cell.ccr),
        };
        let mut inputs = Inputs::basic(
            source,
            cell.procs,
            crate::BANDWIDTH,
            ModelSpec::Exponential { pfail: cell.pfail },
        );
        inputs.alloc = AllocateConfig {
            seed,
            ..AllocateConfig::default()
        };
        let mut session = Session::new(inputs);
        session.plan_threads = ctx.plan_threads;
        let mut rows = Vec::new();
        for (step, (kind, param, delta)) in self.ladder(cell.procs).into_iter().enumerate() {
            session.apply(&delta);
            let answer = session.baseline();
            if self.self_check {
                // The soundness bar: a fresh session (empty store) on
                // the drifted inputs must reproduce the incremental
                // answer bit for bit.
                let cold = Session::new(session.inputs().clone()).baseline();
                assert_eq!(
                    answer.expected_makespan.to_bits(),
                    cold.expected_makespan.to_bits(),
                    "incremental/cold divergence at step {step} ({kind})"
                );
                assert_eq!(answer.n_segments, cold.n_segments);
                assert_eq!(answer.ckpt_bytes.to_bits(), cold.ckpt_bytes.to_bits());
            }
            rows.push(DriftRow {
                class: cell.class,
                size: cell.size,
                procs: session.inputs().procs,
                ccr: cell.ccr,
                step,
                kind,
                param,
                policy: answer.policy,
                em: answer.expected_makespan,
                segments: answer.n_segments,
                ckpt_files: answer.ckpt_files,
                ckpt_bytes: answer.ckpt_bytes,
                w_par: answer.w_par,
            });
        }
        rows
    }

    fn header(&self) -> String {
        DRIFT_HEADER.to_owned()
    }

    fn csv(&self, r: &DriftRow) -> String {
        format!(
            "{},{},{},{:.6e},{},{},{:.6e},{},{:.4},{},{},{:.6e},{:.4}",
            r.class.name(),
            r.size,
            r.procs,
            r.ccr,
            r.step,
            r.kind,
            r.param,
            r.policy,
            r.em,
            r.segments,
            r.ckpt_files,
            r.ckpt_bytes,
            r.w_par
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{self, EngineConfig, NullSink};

    #[test]
    fn figure_scenario_covers_the_paper_grid() {
        let s = FigureScenario::paper(WorkflowClass::Ligo, 2, 1, 7);
        // 3 sizes × 4 proc counts × 3 pfails × 2 CCR points.
        assert_eq!(s.cells().len(), 3 * 4 * 3 * 2);
    }

    #[test]
    fn accuracy_cell_emits_ckptall_then_ckptsome_rows() {
        let s = AccuracyScenario {
            trials: 200,
            sizes: vec![50],
            pfail: 0.01,
            base_seed: 1,
        };
        // Every column but the wall-clock `runtime_s` (the 8th).
        let lines = |threads| {
            let report =
                engine::run(&s, &EngineConfig::with_threads(threads), &mut NullSink).unwrap();
            assert_eq!(report.cells, 3);
            assert_eq!(report.rows.len(), 3 * 8);
            for cell in report.rows.chunks(8) {
                for (k, r) in cell.iter().enumerate() {
                    let strategy = if k < 4 { "CkptAll" } else { "CkptSome" };
                    let evaluator = ["MonteCarlo", "Dodin", "Normal", "PathApprox"][k % 4];
                    assert_eq!((r.strategy, r.evaluator), (strategy, evaluator), "row {k}");
                    assert_eq!((r.class, r.size), (cell[0].class, cell[0].size));
                }
            }
            report
                .rows
                .iter()
                .map(|r| {
                    let mut fields: Vec<String> = s.csv(r).split(',').map(str::to_owned).collect();
                    fields.remove(7);
                    fields.join(",")
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(lines(1), lines(3));
    }

    #[test]
    fn validate_scenario_mini_run_produces_three_rows_per_cell() {
        let s = ValidateScenario {
            runs: 40,
            sizes: vec![50],
            base_seed: 3,
        };
        let report = engine::run(&s, &EngineConfig::with_threads(1), &mut NullSink).unwrap();
        assert_eq!(report.cells, 3 * 3);
        assert_eq!(report.rows.len(), report.cells * 3);
        for r in &report.rows {
            assert!(r.model_em > 0.0 && r.sim_em > 0.0);
        }
    }

    #[test]
    fn distributions_cells_repeat_the_base_grid_per_model() {
        let s = DistributionsScenario::standard(10, vec![50], 3);
        let cells = s.cells();
        // 4 models × 3 classes × 1 size × 1 proc × 2 pfails × 1 CCR.
        assert_eq!(cells.len(), 4 * 3 * 2);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
        // Model blocks share lane seeds with the base grid (paired
        // comparison): cell k and cell k + block have identical
        // coordinates.
        let block = cells.len() / 4;
        for k in 0..block {
            assert_eq!(cells[k].seed, cells[k + block].seed);
            assert_eq!(cells[k].pfail, cells[k + block].pfail);
        }
    }

    #[test]
    fn distributions_mini_run_produces_four_rows_per_cell() {
        let pfail = f64::NAN;
        let s = DistributionsScenario {
            models: vec![
                ModelSpec::Exponential { pfail },
                ModelSpec::Weibull { shape: 2.0, pfail },
            ],
            sizes: vec![50],
            pfails: vec![0.01],
            runs: 20,
            base_seed: 9,
        };
        let report = engine::run(&s, &EngineConfig::with_threads(2), &mut NullSink).unwrap();
        assert_eq!(report.cells, 2 * 3);
        assert_eq!(report.rows.len(), report.cells * 4);
        for r in &report.rows {
            assert!(r.model_em > 0.0 && r.sim_em > 0.0, "{r:?}");
        }
        // The exponential block must agree with the validate scenario's
        // exponential machinery: same strategies, finite errors.
        assert!(report.rows.iter().any(|r| r.model == "exponential"));
        assert!(report.rows.iter().any(|r| r.model == "weibull"));
    }

    #[test]
    fn strategies_cells_repeat_the_base_grid_per_policy_and_model() {
        let s = StrategiesScenario::standard(10, vec![50], 5);
        let cells = s.cells();
        // 6 policies × 3 models × (2 classes × 1 size × 2 pfails).
        assert_eq!(cells.len(), 6 * 3 * (2 * 2));
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
        // Every block shares lane seeds with the base grid (paired
        // comparison along both the policy and the model axis).
        let block = 2 * 2;
        for k in 0..cells.len() {
            assert_eq!(cells[k].seed, cells[k % block].seed);
            assert_eq!(cells[k].pfail, cells[k % block].pfail);
        }
        let blocks = s.blocks();
        assert_eq!(blocks.len(), 6 * 3);
        for (b, (_, range)) in blocks.into_iter().enumerate() {
            assert_eq!(range, b * block..(b + 1) * block);
        }
    }

    #[test]
    fn strategies_mini_run_ranks_the_dp_first() {
        let pfail = f64::NAN;
        let s = StrategiesScenario {
            policies: vec![
                PolicySpec::DpOptimal,
                PolicySpec::Daly { period: None },
                PolicySpec::Risk { max_risk: 0.1 },
                PolicySpec::Crossover,
            ],
            models: vec![
                ModelSpec::Exponential { pfail },
                ModelSpec::Weibull { shape: 2.0, pfail },
            ],
            classes: vec![WorkflowClass::Genome],
            sizes: vec![50],
            pfails: vec![0.01],
            runs: 20,
            base_seed: 13,
        };
        let report = engine::run(&s, &EngineConfig::with_threads(2), &mut NullSink).unwrap();
        // 1 class × 1 size × 1 pfail per (policy, model) block.
        let block = 1;
        assert_eq!(report.rows.len(), 4 * 2 * block);
        for r in &report.rows {
            assert!(r.model_em > 0.0 && r.sim_em > 0.0, "{r:?}");
            assert!(r.segments >= 1 && r.ckpt_files >= 1);
            assert!(r.ckpt_bytes > 0.0);
        }
        // Paired comparison: for each (model, cell) the DP's analytic
        // expected makespan is never (meaningfully) beaten by any other
        // policy on the same instance, schedule, and calibrated model.
        let n_models = s.models.len();
        for (i, r) in report.rows.iter().enumerate() {
            let dp = &report.rows[i % (n_models * block)];
            assert_eq!(dp.policy, "CkptSome");
            assert_eq!(dp.model, r.model);
            assert!(
                dp.model_em <= r.model_em * 1.02,
                "{} under {}: DP {} vs {}",
                r.policy,
                r.model,
                dp.model_em,
                r.model_em
            );
        }
    }

    #[test]
    fn drift_scenario_walks_the_full_ladder_with_self_check() {
        let s = DriftScenario {
            classes: vec![WorkflowClass::Genome],
            sizes: vec![50],
            pfail: 1e-3,
            self_check: true, // cold-equality asserted inside run_cell
            base_seed: 17,
        };
        let report = engine::run(&s, &EngineConfig::with_threads(2), &mut NullSink).unwrap();
        assert_eq!(report.cells, 1);
        assert_eq!(report.rows.len(), 9);
        for (step, r) in report.rows.iter().enumerate() {
            assert_eq!(r.step, step);
            assert!(r.em > 0.0 && r.w_par > 0.0, "{r:?}");
        }
        // The ladder's λ steps strictly increase the expected makespan
        // on the same policy and platform.
        assert!(report.rows[1].em > report.rows[0].em);
        assert!(report.rows[2].em > report.rows[1].em);
        // CkptAll checkpoints at least as many files as the DP.
        assert!(report.rows[3].ckpt_files >= report.rows[2].ckpt_files);
        // The platform rescale doubles the processor count in the rows.
        assert_eq!(report.rows[6].procs, 2 * report.rows[5].procs);
    }

    #[test]
    fn ligo_footnote_scenario_reproduces_a_sync_penalty_signal() {
        let s = LigoFootnoteScenario::new(3, 42);
        let report = engine::run(&s, &EngineConfig::with_threads(2), &mut NullSink).unwrap();
        assert_eq!(report.rows.len(), 3);
        for r in &report.rows {
            assert!(r.rel_all_mainline > 0.0 && r.rel_all_patched > 0.0);
        }
    }
}

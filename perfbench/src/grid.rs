//! `figure_grid_montage`: the engine + `Pipeline` driver on a reduced
//! Montage figure grid (E1's scenario), one cell per op. Each pass of
//! the timed phase is one `engine::run` over the grid on another
//! instance, so the slowest cells, which set the latency tail, come
//! from many instances rather than from one. The instances form a fixed
//! pool whose every cell has a recorded reference; the seed picks where
//! in the pool a run starts.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ckpt_bench::engine::{self, CacheStats, Cell, CellCtx, EngineConfig, NullSink, Scenario};
use ckpt_bench::scenarios::FigureScenario;
use ckpt_bench::{FigureRow, BANDWIDTH};
use ckpt_core::policy::{CheckpointPolicy, CkptAllPolicy, DpOptimalPolicy, PolicyScratch};
use ckpt_core::stage::{curve_stage, evaluate_stage, placement_stage, segment_graph_stage};
use ckpt_core::{
    allocate, lambda_from_pfail, theorem1_model, AllocateConfig, CostCtx, FailureModel, Platform,
    Schedule,
};
use mspg::linearize::Linearizer;
use mspg::Workflow;
use pegasus::WorkflowClass;
use probdag::PathApprox;

use crate::hist::Latencies;
use crate::measure::{
    end_to_end, log_phase, min_ops, outcome, peak_rss_mb, traced_outcome, LayerExtras, Outcome,
    Phase, RunCfg, THREADS,
};
use crate::refs::{verdict, RefTable, Tally};
use crate::trace::{Layer, Tracer, ROOT};

const NAME: &str = "figure_grid_montage";
/// CCR points per sweep (the paper grid has 9): all three sizes, the
/// paper's processor counts and pfails, one instance.
const CCR_POINTS: usize = 3;
/// Cells per pass: 3 sizes × 4 processor counts × 3 pfails × 3 CCRs.
const CELLS: u64 = 108;
/// Set-up runs every `SETUP_STRIDE`-th cell of the set-up grid.
const SETUP_STRIDE: usize = 4;
/// Grid instances in the pool. A run makes about ten passes on a 2-vCPU
/// VM (a thousand cells, its one latency window), so runs on different
/// seeds share some instances but not all; a faster host wraps around.
const POOL_GRIDS: u64 = 24;

/// Pool grid `j`, the same for every seed.
fn pool_grid(j: u64) -> FigureScenario {
    let grid_seed = seedmix::derive(0x4752_4944, &[j]); // "GRID"
    FigureScenario::paper(WorkflowClass::Montage, CCR_POINTS, 1, grid_seed)
}

/// The pool grid that timed pass `pass` of a run on `seed` runs: passes
/// walk the pool from a seeded start.
fn pass_grid(seed: u64, pass: u64) -> u64 {
    let start = seedmix::derive(seed, &[0x5354_5254]) % POOL_GRIDS; // "STRT"
    (start + pass % POOL_GRIDS) % POOL_GRIDS
}

/// The reference key of cell `i` of pool grid `j`.
fn ref_key(j: u64, i: usize) -> u64 {
    j * CELLS + i as u64
}

/// The set-up grid, outside the pool. It is the same for every seed, so
/// `setup_s` varies with the host and the program, not with the seed.
fn setup_grid() -> FigureScenario {
    let grid_seed = seedmix::derive(0x4753_4554, &[]); // "GSET"
    FigureScenario::paper(WorkflowClass::Montage, CCR_POINTS, 1, grid_seed)
}

fn engine_cfg() -> EngineConfig {
    EngineConfig {
        threads: THREADS,
        mc_threads: THREADS,
        plan_threads: THREADS,
    }
}

/// A row's checked outputs, in reference-file order.
fn row_values(r: &FigureRow) -> Vec<f64> {
    vec![
        r.actual_tasks as f64,
        r.em_some,
        r.em_all,
        r.em_none,
        r.ckpts_some as f64,
        r.rel_all,
        r.rel_none,
    ]
}

/// Replays cells through the functions the engine calls, so that the
/// replay meets the same fault-injection sites: a lane's workflow is
/// generated (`pegasus::generate`), and a (lane, procs) schedule
/// computed (`allocate`), on the pass's first cell that needs it,
/// exactly when the engine's caches miss; the rest goes through the
/// stage functions `Pipeline` calls.
#[derive(Default)]
struct CellReplayer {
    workflows: HashMap<(usize, u64), Arc<Workflow>>,
    schedules: HashMap<(usize, u64, usize), Arc<Schedule>>,
}

impl CellReplayer {
    /// The row `cell` must produce, from direct calls, each timed under
    /// a child span of `parent`.
    fn replay(&mut self, tr: &mut Tracer, parent: u32, cell: &Cell) -> Vec<f64> {
        let expect = "grid inputs are valid by construction";
        let seed = seedmix::stream_seed(cell.seed, 0);
        let w0 = self
            .workflows
            .entry((cell.size, seed))
            .or_insert_with(|| {
                Arc::new(tr.time(Layer::Generate, parent, || {
                    pegasus::generate(cell.class, cell.size, seed)
                }))
            })
            .clone();
        let schedule = self
            .schedules
            .entry((cell.size, seed, cell.procs))
            .or_insert_with(|| {
                let cfg = AllocateConfig {
                    linearizer: Linearizer::RandomTopo,
                    seed,
                };
                Arc::new(tr.time(Layer::Schedule, parent, || allocate(&w0, cell.procs, &cfg)))
            })
            .clone();
        let mut w = (*w0).clone();
        pegasus::ccr::scale_to_ccr(&mut w, cell.ccr, BANDWIDTH);
        let model = FailureModel::exponential(lambda_from_pfail(cell.pfail, w.dag.mean_weight()));
        let platform = Platform::with_model(cell.procs, model, BANDWIDTH);
        let curve = tr.time(Layer::Curve, parent, || {
            curve_stage(&w.dag, &platform).expect(expect)
        });
        let ctx = CostCtx {
            dag: &w.dag,
            model,
            bandwidth: BANDWIDTH,
            curve: curve.as_ref(),
            budget: None,
        };
        let mut assess = |policy: &dyn CheckpointPolicy| {
            let plan = tr.time(Layer::Placement, parent, || {
                placement_stage(&ctx, &schedule, policy, &mut PolicyScratch::new(), THREADS)
                    .expect(expect)
            });
            let sg = tr.time(Layer::SegmentGraph, parent, || {
                segment_graph_stage(&ctx, &schedule, &plan).expect(expect)
            });
            let em = tr.time(Layer::Eval, parent, || {
                evaluate_stage(&sg, &PathApprox::default()).expect(expect)
            });
            (em, sg.placement_stats(&w.dag).segments)
        };
        let (em_some, ckpts) = assess(&DpOptimalPolicy);
        let (em_all, _) = assess(&CkptAllPolicy);
        let w_par = schedule.failure_free_parallel_time(&w.dag);
        let em_none = theorem1_model(w_par, cell.procs, &model);
        vec![
            w.n_tasks() as f64,
            em_some,
            em_all,
            em_none,
            ckpts as f64,
            em_all / em_some,
            em_none / em_some,
        ]
    }
}

/// What the wrapping scenario records per cell, across passes.
struct CellLog {
    hist: Latencies,
    tracer: Tracer,
    /// Reset at every pass: each engine run starts with empty caches.
    replayer: CellReplayer,
    replay_mismatches: u64,
}

impl CellLog {
    fn new(tracer: Tracer) -> Self {
        CellLog {
            hist: Latencies::new(),
            tracer,
            replayer: CellReplayer::default(),
            replay_mismatches: 0,
        }
    }
}

/// Wraps the figure scenario to time each cell and, when the log's
/// tracer is on, replay it. `cells` is the grid or a slice of it,
/// re-indexed.
struct Timed<'a> {
    inner: FigureScenario,
    cells: Vec<Cell>,
    log: Mutex<&'a mut CellLog>,
}

impl Scenario for Timed<'_> {
    type Row = FigureRow;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn cells(&self) -> Vec<Cell> {
        self.cells.clone()
    }

    fn run_cell(&self, cell: &Cell, ctx: &CellCtx<'_>) -> Vec<FigureRow> {
        let t = Instant::now();
        let rows = self.inner.run_cell(cell, ctx);
        let ns = t.elapsed().as_nanos() as u64;
        let mut log = self.log.lock().expect("a cell panicked while logging");
        log.hist.record(ns);
        if log.tracer.on() {
            let CellLog {
                tracer, replayer, ..
            } = &mut **log;
            let id = tracer.push(Layer::Cell, ROOT, ns);
            let want = replayer.replay(tracer, id, cell);
            if rows.len() != 1 || row_values(&rows[0]) != want {
                log.replay_mismatches += 1;
            }
        }
        rows
    }

    fn header(&self) -> String {
        self.inner.header()
    }

    fn csv(&self, row: &FigureRow) -> String {
        self.inner.csv(row)
    }
}

/// One `engine::run` over the cells of `grid` whose index `keep`
/// admits: their rows, in cell order, wall time and cache counters. A
/// cell's row depends on the cell alone, not on which others run.
fn pass(
    log: &mut CellLog,
    grid: FigureScenario,
    keep: impl Fn(usize) -> bool,
) -> Result<(Vec<FigureRow>, f64, CacheStats), String> {
    log.replayer = CellReplayer::default();
    let cells = grid
        .cells()
        .into_iter()
        .filter(|c| keep(c.index))
        .enumerate()
        .map(|(index, c)| Cell { index, ..c })
        .collect();
    let timed = Timed {
        inner: grid,
        cells,
        log: Mutex::new(log),
    };
    let t = Instant::now();
    let report = engine::run(&timed, &engine_cfg(), &mut NullSink)
        .map_err(|e| format!("engine run: {e}"))?;
    Ok((report.rows, t.elapsed().as_secs_f64(), report.cache))
}

/// A timed pass's pool grid and rows.
type PassRows = (u64, Vec<FigureRow>);

/// Passes 0, 1, … until `seconds` have passed and `min_ops` cells ran.
/// Returns the phase, each pass's pool grid and rows, and the summed
/// cache counters.
fn passes(
    seed: u64,
    log: &mut CellLog,
    seconds: f64,
    min_ops: u64,
) -> Result<(Phase, Vec<PassRows>, CacheStats), String> {
    log.hist = Latencies::new();
    let mut rows = Vec::new();
    let mut cache = CacheStats::default();
    let (mut wall_s, mut ops) = (0.0, 0u64);
    while wall_s < seconds || ops < min_ops {
        let j = pass_grid(seed, rows.len() as u64);
        let (r, wall, c) = pass(log, pool_grid(j), |_| true)?;
        ops += r.len() as u64;
        wall_s += wall;
        rows.push((j, r));
        cache.workflow_hits += c.workflow_hits;
        cache.workflow_misses += c.workflow_misses;
        cache.schedule_hits += c.schedule_hits;
        cache.schedule_misses += c.schedule_misses;
        cache.evictions += c.evictions;
    }
    let hist = std::mem::replace(&mut log.hist, Latencies::new());
    Ok((
        Phase {
            ops,
            ok: ops,
            wall_s,
            hist,
        },
        rows,
        cache,
    ))
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    if cfg.trace {
        // Set-up and the traced phase share one recorder; the untraced
        // phase between them gives the overhead ratio's numerator.
        let mut log = CellLog::new(Tracer::new(true));
        pass(&mut log, setup_grid(), is_setup_cell)?;
        let (untraced, _, _) = passes(
            cfg.seed,
            &mut CellLog::new(Tracer::new(false)),
            cfg.seconds,
            0,
        )?;
        let (mut traced, _, cache) = passes(cfg.seed, &mut log, cfg.seconds, 0)?;
        traced.ok -= log.replay_mismatches.min(traced.ok);
        eprintln!(
            "{NAME}: {} replayed cells differ from the engine's rows",
            log.replay_mismatches
        );
        let x = LayerExtras {
            engine_cache: Some(cache),
            ..LayerExtras::default()
        };
        let correct = log.replay_mismatches == 0;
        return Ok(traced_outcome(
            NAME,
            &log.tracer,
            &untraced,
            &traced,
            x,
            correct,
        ));
    }
    let refs = RefTable::load(&cfg.refs.join(format!("{NAME}.txt")))?;
    pass(
        &mut CellLog::new(Tracer::new(false)),
        setup_grid(),
        is_setup_cell,
    )?;
    let setup_s = cfg.setup_s();
    let (mut phase, rows, _) = passes(
        cfg.seed,
        &mut CellLog::new(Tracer::new(false)),
        cfg.seconds,
        min_ops(1),
    )?;
    log_phase(NAME, "timed phase", &phase);
    // Read before the output check allocates.
    let rss_mb = peak_rss_mb();
    // Output check, untimed: every cell against its recorded reference.
    let mut tally = Tally::default();
    phase.ok = 0;
    for (j, pass_rows) in &rows {
        for (i, r) in pass_rows.iter().enumerate() {
            let passed = tally.add(verdict(&row_values(r), refs.get(ref_key(*j, i))?));
            phase.ok += passed as u64;
        }
    }
    tally.log(NAME);
    Ok(outcome(
        tally.outside == 0,
        &phase,
        end_to_end(setup_s, rss_mb, &phase)?,
    ))
}

fn is_setup_cell(i: usize) -> bool {
    i.is_multiple_of(SETUP_STRIDE)
}

/// The `record` subcommand: every cell of every pool grid, each grid
/// one `engine::run` as a timed pass makes it.
pub fn record(table: &mut RefTable) -> Result<(), String> {
    for j in 0..POOL_GRIDS {
        let (rows, _, _) = pass(&mut CellLog::new(Tracer::new(false)), pool_grid(j), |_| {
            true
        })?;
        for (i, r) in rows.iter().enumerate() {
            table.insert(ref_key(j, i), row_values(r));
        }
    }
    Ok(())
}

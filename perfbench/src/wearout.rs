//! `wearout_mc`: the E9 wear-out block's Monte Carlo — the CkptNone
//! cascade simulator and the checkpointed-segment simulator — on
//! instances generated and planned in set-up through the non-memoryless
//! curve/DP/coalesce path. The instances form a fixed universe whose
//! every estimate has a recorded reference; the seed picks where in it
//! a run starts.

use std::time::Instant;

use ckpt_bench::BANDWIDTH;
use ckpt_core::policy::{DpOptimalPolicy, PolicyScratch};
use ckpt_core::stage::{curve_stage, inject, placement_stage, schedule_stage, segment_graph_stage};
use ckpt_core::{AllocateConfig, CostCtx, FailureModel, Platform, Schedule, SegmentGraph, StageId};
use failsim::{montecarlo_none_model, montecarlo_segments_model, SimConfig};
use mspg::linearize::Linearizer;
use mspg::Workflow;
use pegasus::WorkflowClass;

use crate::measure::{
    closed_loop, end_to_end, log_phase, min_ops, outcome, peak_rss_mb, traced_outcome, LayerExtras,
    Outcome, RunCfg, THREADS,
};
use crate::refs::{verdict, RefTable, Tally};
use crate::trace::{Layer, Tracer, ROOT};

const NAME: &str = "wearout_mc";
/// E9's wear-out family: Weibull k = 2, calibrated to this pfail. At
/// pfail 1e-3 no CkptNone run reaches the failure budget, so an op
/// times simulation rather than censoring.
const SHAPE: f64 = 2.0;
const PFAIL: f64 = 1e-3;
const SIZE: usize = 50;
const CLASSES: [WorkflowClass; 3] = [
    WorkflowClass::Genome,
    WorkflowClass::Montage,
    WorkflowClass::Ligo,
];
/// Instances in the universe, class-interleaved. Set-up plans them all,
/// and ops walk them from a seeded start, wrapping. A run on a 2-vCPU VM
/// makes about 2000 ops, so most of its ops' cost is common to every
/// seed: a run on a window of half the universe read up to 15% faster on
/// some seeds than on others at the same time.
const UNIVERSE: u64 = 2400;
/// Disjoint instances per class estimated once in set-up as warm-up.
const WARMUP_PER_CLASS: u64 = 2;
/// Simulated executions per estimate, and E9's CkptNone failure budget.
const RUNS: usize = 400;
const MAX_FAILURES: usize = 10_000;

/// One E9 wear-out instance, planned for CkptSome.
struct Instance {
    w: Workflow,
    schedule: Schedule,
    model: FailureModel,
    sg: SegmentGraph,
    mc_seed: u64,
}

/// Generates and plans instance `seed` of `class` through the stage
/// functions (E9's path: class-midpoint CCR, paper processor index 1,
/// random-topological linearization, renewal curve, DP placement).
fn plan(tr: &mut Tracer, class: WorkflowClass, seed: u64) -> Instance {
    let expect = "E9 inputs are valid by construction";
    let mut w = tr.time(Layer::Generate, ROOT, || {
        inject(StageId::Generate).expect("delay-only plans never fail a stage");
        pegasus::generate(class, SIZE, seed)
    });
    let (lo, hi) = class.ccr_range();
    pegasus::ccr::scale_to_ccr(&mut w, (lo * hi).sqrt(), BANDWIDTH);
    let procs = Platform::paper_proc_counts(SIZE)[1];
    let model = FailureModel::weibull_from_pfail(SHAPE, PFAIL, w.dag.mean_weight());
    let cfg = AllocateConfig {
        linearizer: Linearizer::RandomTopo,
        seed,
    };
    let schedule = tr.time(Layer::Schedule, ROOT, || {
        schedule_stage(&w, procs, &cfg).expect(expect)
    });
    let platform = Platform::with_model(procs, model, BANDWIDTH);
    let curve = tr.time(Layer::Curve, ROOT, || {
        curve_stage(&w.dag, &platform).expect(expect)
    });
    let ctx = CostCtx {
        dag: &w.dag,
        model,
        bandwidth: BANDWIDTH,
        curve: curve.as_ref(),
        budget: None,
    };
    let plan = tr.time(Layer::Placement, ROOT, || {
        placement_stage(
            &ctx,
            &schedule,
            &DpOptimalPolicy,
            &mut PolicyScratch::new(),
            THREADS,
        )
        .expect(expect)
    });
    let sg = tr.time(Layer::SegmentGraph, ROOT, || {
        segment_graph_stage(&ctx, &schedule, &plan).expect(expect)
    });
    Instance {
        w,
        schedule,
        model,
        sg,
        mc_seed: seedmix::derive(seed, &[0x4d43]), // "MC"
    }
}

/// One op: a 400-run CkptNone estimate, then a 400-run CkptSome one.
/// Returns the outputs the check compares, in reference-file order.
fn estimate(tr: &mut Tracer, x: &mut LayerExtras, inst: &Instance) -> Vec<f64> {
    let cfg = SimConfig {
        runs: RUNS,
        seed: inst.mc_seed,
        threads: THREADS,
        max_failures: MAX_FAILURES,
        ..SimConfig::default()
    };
    let fire = |on: bool| {
        if on {
            inject(StageId::EvalMc).expect("delay-only plans never fail a stage");
        }
    };
    let on = tr.on();
    let none = tr.time(Layer::SimNone, ROOT, || {
        fire(on);
        montecarlo_none_model(&inst.w.dag, &inst.schedule, &inst.model, &cfg)
    });
    let seg = tr.time(Layer::SimSegments, ROOT, || {
        fire(on);
        montecarlo_segments_model(&inst.sg, &inst.model, &cfg)
    });
    x.none_runs += RUNS as u64;
    x.none_failures += none.stats.mean_failures * RUNS as f64;
    x.none_diverged += none.diverged as u64;
    x.seg_runs += RUNS as u64;
    vec![
        none.stats.mean_makespan,
        none.stats.stderr,
        none.stats.mean_failures,
        none.diverged as f64,
        seg.mean_makespan,
        seg.stderr,
        seg.mean_failures,
    ]
}

/// Universe instance `k`'s class and seed, the same for every run
/// seed. Consecutive instances change class.
fn universe_entry(k: u64) -> (WorkflowClass, u64) {
    let n = CLASSES.len() as u64;
    let c = CLASSES[(k % n) as usize];
    (c, seedmix::derive(0x554e_4956, &[c as u64, k / n])) // "UNIV"
}

/// The universe index of the instance op `i` of a run on `seed`
/// estimates.
fn op_key(seed: u64, i: u64) -> u64 {
    let start = seedmix::derive(seed, &[0x504f_4f4c]) % UNIVERSE; // "POOL"
    (start + i) % UNIVERSE
}

/// Set-up: plan the universe in the run's op order, then estimate once
/// on warm-up instances outside it, the same for every seed.
fn setup(tr: &mut Tracer, x: &mut LayerExtras, seed: u64) -> Vec<Instance> {
    let instances = (0..UNIVERSE)
        .map(|i| {
            let (c, s) = universe_entry(op_key(seed, i));
            plan(tr, c, s)
        })
        .collect();
    for i in 0..WARMUP_PER_CLASS {
        for c in CLASSES {
            let warm = plan(tr, c, seedmix::derive(0x5755_5057, &[c as u64, i])); // "WUPW"
            estimate(tr, x, &warm);
        }
    }
    instances
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut x = LayerExtras::default();
    let mut tr = Tracer::new(cfg.trace);
    if cfg.trace {
        let instances = setup(&mut tr, &mut x, cfg.seed);
        let n = instances.len() as u64;
        let mut off = Tracer::new(false);
        let untraced = closed_loop(cfg.seconds, 0, |i| {
            let t = Instant::now();
            let inst = &instances[(i % n) as usize];
            estimate(&mut off, &mut LayerExtras::default(), inst);
            Some((t.elapsed().as_nanos() as u64, true))
        });
        let traced = closed_loop(cfg.seconds, 0, |i| {
            let t = Instant::now();
            estimate(&mut tr, &mut x, &instances[(i % n) as usize]);
            Some((t.elapsed().as_nanos() as u64, true))
        });
        return Ok(traced_outcome(NAME, &tr, &untraced, &traced, x, true));
    }
    let refs = RefTable::load(&cfg.refs.join(format!("{NAME}.txt")))?;
    let instances = setup(&mut tr, &mut LayerExtras::default(), cfg.seed);
    let n = instances.len() as u64;
    let setup_s = cfg.setup_s();
    let mut outputs: Vec<Vec<f64>> = Vec::new();
    let mut phase = closed_loop(cfg.seconds, min_ops(1), |i| {
        let inst = &instances[(i % n) as usize];
        let t = Instant::now();
        let out = estimate(&mut tr, &mut x, inst);
        let ns = t.elapsed().as_nanos() as u64;
        outputs.push(out);
        Some((ns, true))
    });
    log_phase(NAME, "timed phase", &phase);
    // Read before the output check allocates.
    let rss_mb = peak_rss_mb();
    // Output check, untimed: every op against its instance's recorded
    // reference.
    let mut tally = Tally::default();
    phase.ok = 0;
    for (i, got) in outputs.iter().enumerate() {
        let passed = tally.add(verdict(got, refs.get(op_key(cfg.seed, i as u64))?));
        phase.ok += passed as u64;
    }
    tally.log(NAME);
    eprintln!(
        "{NAME}: {n} instances from universe instance {}, {:.2} CkptNone failures per run, \
         {} diverged runs",
        op_key(cfg.seed, 0),
        x.none_failures / x.none_runs.max(1) as f64,
        x.none_diverged
    );
    Ok(outcome(
        tally.outside == 0,
        &phase,
        end_to_end(setup_s, rss_mb, &phase)?,
    ))
}

/// The `record` subcommand: every universe instance, planned and
/// estimated as a run does.
pub fn record(table: &mut RefTable) -> Result<(), String> {
    let mut off = Tracer::new(false);
    for k in 0..UNIVERSE {
        let (c, s) = universe_entry(k);
        let inst = plan(&mut off, c, s);
        table.insert(k, estimate(&mut off, &mut LayerExtras::default(), &inst));
    }
    Ok(())
}

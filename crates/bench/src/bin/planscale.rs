//! planscale — end-to-end planning of one huge synthetic workflow
//! (default: a million-task chain), printing a deterministic placement
//! digest on stdout and the per-stage wall breakdown on stderr.
//!
//! The digest line is a pure function of the arguments: task count,
//! superchain count, checkpoint count, an FNV-1a hash of the
//! checkpoint-after bits, the analytic expected makespan (exact bits)
//! and the schedule's failure-free parallel time `W_par` (exact bits). CI diffs it across `--plan-threads` budgets to pin the
//! parallel-placement determinism guarantee; the stage walls (the
//! `ckpt_stage_wall_seconds` histogram) quantify where generate,
//! schedule, placement, coalescing and evaluation time goes at scale.
//!
//! ```text
//! cargo run -p ckpt_bench --release --bin planscale
//!     [-- --tasks 1000000] [--shape chain|forkjoin] [--width 1000]
//!     [--procs 8] [--pfail 0.001] [--seed 42] [--plan-threads 1]
//!     [--eval 1]
//! ```
//!
//! `--eval 0` skips the expected-makespan evaluation (and drops its
//! fields from the digest line) — the placement digest is complete
//! without it, and time-budgeted CI smokes only need the placement.

use ckpt_bench::engine::in_stage;
use ckpt_bench::{Args, ObsOut, BANDWIDTH};
use ckpt_core::stage::{schedule_stage, segment_graph_stage, wall_summary};
use ckpt_core::{
    lambda_from_pfail, AllocateConfig, CostCtx, DpOptimalPolicy, Pipeline, Platform,
    ScheduleArtifact, StageId,
};
use mspg::linearize::Linearizer;
use probdag::{Evaluator, PathApprox};

fn main() {
    let args =
        Args::parse("tasks shape width procs pfail seed plan-threads eval trace-out metrics-out");
    let obs_out = ObsOut::from_args(&args);
    let tasks: usize = args.get_or("tasks", 1_000_000);
    let shape = args.choice("shape", &["chain", "forkjoin"]);
    let width: usize = args.get_or("width", 1000);
    let procs: usize = args.get_or("procs", 8);
    let pfail: f64 = args.get_or("pfail", 0.001);
    let seed: u64 = args.get_or("seed", 42);
    let plan_threads: usize = args.get_or("plan-threads", 1);
    let eval: usize = args.get_or("eval", 1);

    let w = in_stage(StageId::Generate, || match shape {
        "forkjoin" => {
            let levels = (tasks / (width + 1)).max(1);
            pegasus::generic::fork_join(levels, width, seed)
        }
        _ => pegasus::generic::chain(tasks, seed),
    });
    let n = w.n_tasks();
    let cfg = AllocateConfig {
        linearizer: Linearizer::Structural,
        seed,
    };
    let schedule = schedule_stage(&w, procs, &cfg).expect("--procs must be at least 1");
    let n_chains = schedule.superchains.len();
    let artifact = ScheduleArtifact::new(schedule, &w.dag);
    let lambda = lambda_from_pfail(pfail, w.dag.mean_weight());
    let platform = Platform::new(procs, lambda, BANDWIDTH);
    let pipe = Pipeline::with_schedule(&w, platform, &artifact).with_plan_threads(plan_threads);
    let plan = pipe.plan(&DpOptimalPolicy);
    // Coalesce the computed plan rather than replanning through
    // `segment_graph`.
    let ctx = CostCtx::exponential(&w.dag, lambda, BANDWIDTH);
    let sg = segment_graph_stage(&ctx, &pipe.schedule, &plan).expect("valid by construction");
    let em = (eval != 0).then(|| {
        in_stage(StageId::EvalAnalytic, || {
            PathApprox::default().expected_makespan(&sg.pdag)
        })
    });

    // FNV-1a over the checkpoint-after bits: any placement difference
    // flips the digest. The formula lives in seedmix::digest now; CI
    // pins this printed line, so the shared helper must stay
    // byte-identical to the historical inline loop.
    let h = seedmix::digest::plan_digest(&plan.ckpt_after);
    let em_cols = em
        .map(|em| format!(" em_bits={:016x} em={:.6e}", em.to_bits(), em))
        .unwrap_or_default();
    println!(
        "tasks={} superchains={} checkpoints={} digest={:016x}{} wpar_bits={:016x}",
        n,
        n_chains,
        plan.n_checkpoints(),
        h,
        em_cols,
        artifact.w_par().to_bits()
    );
    eprintln!(
        "planscale: shape={shape} tasks={n} procs={procs} pfail={pfail} \
         plan_threads={plan_threads} segments={}",
        sg.segments.len()
    );
    eprintln!("stage walls: {}", wall_summary());
    obs_out.finish().expect("write observability outputs");
}

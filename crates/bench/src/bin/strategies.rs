//! E10 — the checkpoint-policy study: the paper's DP placement
//! (CkptSome) against classical competitors — Young/Daly periodic
//! checkpointing, adaptive risk-threshold checkpointing, the structural
//! crossover heuristic — plus the CkptAll/ExitOnly baselines, under
//! exponential and Weibull (infant-mortality, wear-out) failure models,
//! every family calibrated so an average task fails with the cell's
//! `pfail`. Each row pairs the analytic renewal-path estimate with its
//! discrete-event simulation ground truth and the placement census
//! (segments / checkpointed files / bytes). Cells run on the scenario
//! engine's thread pool; the CSV is byte-identical for every
//! `--threads` *and* `--mc-threads` value — both are pure speed knobs
//! (nested simulation defaults to all cores, `--mc-threads 0`).
//!
//! ```text
//! cargo run -p ckpt_bench --release --bin strategies
//!     [-- --runs 400] [--sizes 50] [--seed 42] [--threads 0]
//!     [--mc-threads 0] [--plan-threads 1] [--out results]
//! ```

use ckpt_bench::engine::{self, CsvFileSink, EngineConfig};
use ckpt_bench::scenarios::StrategiesScenario;
use ckpt_bench::summary::EndpointSummary;
use ckpt_bench::{Args, ObsOut};

fn main() {
    let args = Args::parse();
    let obs_out = ObsOut::from_args(&args);
    let runs: usize = args.get_or("runs", 400);
    let seed: u64 = args.get_or("seed", 42);
    let threads: usize = args.get_or("threads", 0);
    let mc_threads: usize = args.get_or("mc-threads", 0);
    let plan_threads: usize = args.get_or("plan-threads", 1);
    let out_dir: String = args.get_or("out", "results".to_owned());
    let sizes: Vec<usize> = args.list_or("sizes", vec![50]);
    let cfg = EngineConfig {
        threads,
        mc_threads,
        plan_threads,
    };
    println!("# E10 checkpoint-policy study ({runs} simulated runs per cell)");
    let scenario = StrategiesScenario::standard(runs, sizes, seed);
    let path = std::path::Path::new(&out_dir).join("strategies.csv");
    let mut sink = CsvFileSink::new(&path);
    let report = engine::run(&scenario, &cfg, &mut sink).expect("write CSV");
    eprintln!(
        "wrote {} rows to {} in {:.1}s ({} workers × {} MC threads)",
        sink.rows_written(),
        path.display(),
        report.wall,
        report.workers,
        report.mc_threads,
    );
    eprintln!("stage walls: {}", ckpt_core::stage::wall_summary());
    // Per-(policy, model)-block wall-clock attribution (diagnostic
    // only, never part of the CSV).
    for (label, range) in scenario.blocks() {
        let block_wall: f64 = report.cell_walls[range].iter().sum();
        eprintln!("block {label:32} {block_wall:7.2}s");
    }
    // The headline table: each policy's analytic expected makespan
    // relative to the DP's on the *same* instance, schedule, seed, and
    // calibrated model (the grid is paired along both block axes), plus
    // the placement size. Ratios > 1 are the DP's margin.
    let n_models = scenario.models.len();
    let block = report.rows.len() / (scenario.policies.len() * n_models);
    let mut summary = EndpointSummary::new(
        "policy model shape class",
        "pfail",
        &["em_vs_dp", "segments", "rel_err_pct"],
    );
    for (i, r) in report.rows.iter().enumerate() {
        let dp = &report.rows[i % (n_models * block)];
        summary.observe(
            &format!(
                "{:15} {:12} {:4} {:8}",
                r.policy,
                r.model,
                r.shape,
                r.class.name()
            ),
            r.pfail,
            &[r.model_em / dp.model_em, r.segments as f64, r.rel_err_pct],
        );
    }
    summary.print();
    obs_out.finish().expect("write observability outputs");
}

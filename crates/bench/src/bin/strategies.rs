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

use ckpt_bench::scenarios::StrategiesScenario;
use ckpt_bench::summary::EndpointSummary;
use ckpt_bench::GridShell;

fn main() {
    let shell = GridShell::parse("runs sizes mc-threads plan-threads");
    let runs: usize = shell.args.get_or("runs", 400);
    let sizes: Vec<usize> = shell.args.list_or("sizes", vec![50]);
    println!("# E10 checkpoint-policy study ({runs} simulated runs per cell)");
    let scenario = StrategiesScenario::standard(runs, sizes, shell.seed);
    let report = shell.run(&scenario, "strategies.csv");
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
    shell.finish();
}

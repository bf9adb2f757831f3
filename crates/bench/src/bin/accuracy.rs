//! E4 — §VI-B: accuracy and runtime of the four expected-makespan
//! evaluators (MonteCarlo ground truth at 300k trials vs Dodin, Normal,
//! PathApprox) on the 2-state DAGs the pipeline produces. Cells run on
//! the scenario engine; `--threads` buys cell-level parallelism while
//! each cell's nested Monte Carlo gets the separate `--mc-threads`
//! budget (default 0 = all cores — MC estimates are bit-identical
//! functions of `(seed, trials)`, so the budget only sets the pace;
//! the `runtime_s` column is wall-clock by design and never
//! byte-stable).
//!
//! ```text
//! cargo run -p ckpt_bench --release --bin accuracy [-- --trials 300000]
//!     [--seed 42] [--threads 0] [--mc-threads 0] [--plan-threads 1]
//!     [--out results]
//! ```

use ckpt_bench::scenarios::AccuracyScenario;
use ckpt_bench::GridShell;

fn main() {
    let shell = GridShell::parse("trials mc-threads plan-threads");
    let trials: usize = shell.args.get_or("trials", 300_000);
    let pfail = 0.01;
    let scenario = AccuracyScenario {
        trials,
        sizes: vec![50, 300, 1000],
        pfail,
        base_seed: shell.seed,
    };
    println!("# E4 accuracy (MC trials = {trials}, pfail = {pfail})");
    let report = shell.run(&scenario, "table_accuracy.csv");
    println!(
        "{:8} {:5} {:9} {:6} {:>11} {:>12} {:>12} {:>10}",
        "class", "size", "strategy", "nodes", "evaluator", "estimate", "err(%)", "time(s)"
    );
    for r in &report.rows {
        println!(
            "{:8} {:5} {:9} {:6} {:>11} {:>12.4} {:>12.4} {:>10.6}",
            r.class.name(),
            r.size,
            r.strategy,
            r.nodes,
            r.evaluator,
            r.estimate,
            r.rel_error_pct,
            r.runtime_s
        );
    }
    shell.finish();
}

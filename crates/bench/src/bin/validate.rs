//! E5 — validates the paper's first-order model against discrete-event
//! simulation:
//!
//! * CkptAll / CkptSome: PathApprox on the coalesced 2-state DAG
//!   (Eq. (2)) vs the exact renewal simulation of checkpointed execution;
//! * CkptNone: the Theorem 1 closed form vs the full crossover-cascade
//!   simulation (whose expectation is #P-complete to compute).
//!
//! Cells run on the scenario engine; `--threads` buys cell-level
//! parallelism, while each cell's nested simulation gets the separate
//! `--mc-threads` budget (default 0 = all cores). Both are pure speed
//! knobs: the CSV is byte-identical for every combination.
//!
//! ```text
//! cargo run -p ckpt_bench --release --bin validate [-- --runs 5000]
//!     [--seed 42] [--threads 0] [--mc-threads 0] [--plan-threads 1]
//!     [--out results]
//! ```

use ckpt_bench::scenarios::ValidateScenario;
use ckpt_bench::summary::EndpointSummary;
use ckpt_bench::GridShell;

fn main() {
    let shell = GridShell::parse("runs mc-threads plan-threads");
    let runs: usize = shell.args.get_or("runs", 5000);
    let scenario = ValidateScenario {
        runs,
        sizes: vec![50, 300],
        base_seed: shell.seed,
    };
    println!("# E5 model-vs-simulation validation ({runs} sim runs per cell)");
    let report = shell.run(&scenario, "table_validation.csv");
    println!(
        "{:8} {:5} {:7} {:9} {:>14} {:>12} {:>12} {:>9}",
        "class", "size", "pfail", "strategy", "model", "model_EM", "sim_EM", "err(%)"
    );
    for r in &report.rows {
        println!(
            "{:8} {:5} {:7} {:9} {:>14} {:>12.2} {:>12.2} {:>9.3}  (diverged {})",
            r.class.name(),
            r.size,
            r.pfail,
            r.strategy,
            r.model,
            r.model_em,
            r.sim_em,
            r.rel_err_pct,
            r.diverged
        );
    }
    // Shape summary: model error at the pfail endpoints, per strategy.
    let mut summary = EndpointSummary::new("class size strategy", "pfail", &["err_pct"]);
    for r in &report.rows {
        summary.observe(
            &format!("{:8} {:5} {:9}", r.class.name(), r.size, r.strategy),
            r.pfail,
            &[r.rel_err_pct],
        );
    }
    println!("# E5 model-error summary");
    summary.print();
    shell.finish();
}

//! E9 — the failure-distribution study: CkptAll / CkptNone / CkptSome /
//! ExitOnly under Weibull (infant-mortality and wear-out) and LogNormal
//! failures against the paper's exponential baseline, every family
//! calibrated so an average task fails with the cell's `pfail`. The
//! analytic column drives the quadrature renewal cost path; the
//! simulation column is its discrete-event ground truth. Cells run on
//! the scenario engine's thread pool; the CSV is byte-identical for
//! every `--threads` *and* `--mc-threads` value — both are pure speed
//! knobs (nested simulation defaults to all cores, `--mc-threads 0`).
//!
//! ```text
//! cargo run -p ckpt_bench --release --bin distributions
//!     [-- --runs 400] [--sizes 50] [--seed 42] [--threads 0]
//!     [--mc-threads 0] [--plan-threads 1] [--out results]
//! ```

use ckpt_bench::scenarios::DistributionsScenario;
use ckpt_bench::summary::EndpointSummary;
use ckpt_bench::GridShell;

fn main() {
    let shell = GridShell::parse("runs sizes mc-threads plan-threads");
    let runs: usize = shell.args.get_or("runs", 400);
    let sizes: Vec<usize> = shell.args.list_or("sizes", vec![50]);
    println!("# E9 failure-distribution study ({runs} simulated runs per cell and strategy)");
    let scenario = DistributionsScenario::standard(runs, sizes, shell.seed);
    let report = shell.run(&scenario, "distributions.csv");
    // Per-model-block CPU attribution (sums of per-cell run_cell wall
    // clocks; diagnostic only, never part of the CSV). This is the
    // number BENCH_hotpath.json tracks for the non-exponential blocks.
    for (label, range) in scenario.blocks() {
        let block_wall: f64 = report.cell_walls[range].iter().sum();
        eprintln!("block {label:18} {block_wall:7.2}s");
    }
    // Per (model, strategy): how far the analytic path strays from the
    // simulated ground truth across the grid.
    let mut summary = EndpointSummary::new("model shape strategy", "pfail", &["rel_err_pct"]);
    for r in &report.rows {
        summary.observe(
            &format!("{:12} {:4} {:8}", r.model, r.shape, r.strategy),
            r.pfail,
            &[r.rel_err_pct],
        );
    }
    summary.print();
    shell.finish();
}

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

use ckpt_bench::engine::{self, CsvFileSink, EngineConfig};
use ckpt_bench::scenarios::AccuracyScenario;
use ckpt_bench::{Args, ObsOut};

fn main() {
    let args = Args::parse();
    let obs_out = ObsOut::from_args(&args);
    let trials: usize = args.get_or("trials", 300_000);
    let seed: u64 = args.get_or("seed", 42);
    let threads: usize = args.get_or("threads", 0);
    let mc_threads: usize = args.get_or("mc-threads", 0);
    let plan_threads: usize = args.get_or("plan-threads", 1);
    let out_dir: String = args.get_or("out", "results".to_owned());
    let pfail = 0.01;
    let scenario = AccuracyScenario {
        trials,
        sizes: vec![50, 300, 1000],
        pfail,
        base_seed: seed,
    };
    println!("# E4 accuracy (MC trials = {trials}, pfail = {pfail})");
    let path = std::path::Path::new(&out_dir).join("table_accuracy.csv");
    let mut sink = CsvFileSink::new(&path);
    let cfg = EngineConfig {
        threads,
        mc_threads,
        plan_threads,
    };
    let report = engine::run(&scenario, &cfg, &mut sink).expect("write CSV");
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
    eprintln!(
        "wrote {} ({} cells in {:.1}s, {} workers × {} MC threads)",
        path.display(),
        report.cells,
        report.wall,
        report.workers,
        report.mc_threads
    );
    eprintln!("stage walls: {}", ckpt_core::stage::wall_summary());
    obs_out.finish().expect("write observability outputs");
}

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

use ckpt_bench::engine::{self, CsvFileSink, EngineConfig};
use ckpt_bench::scenarios::DistributionsScenario;
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
    let sizes: Vec<usize> = args
        .get("sizes")
        .map(|s| {
            s.split(',')
                .map(|x| x.parse().expect("bad --sizes entry"))
                .collect()
        })
        .unwrap_or_else(|| vec![50]);
    let cfg = EngineConfig {
        threads,
        mc_threads,
        plan_threads,
    };
    println!("# E9 failure-distribution study ({runs} simulated runs per cell and strategy)");
    let scenario = DistributionsScenario::standard(runs, sizes, seed);
    let path = std::path::Path::new(&out_dir).join("distributions.csv");
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
    // Per-model-block CPU attribution (sums of per-cell run_cell wall
    // clocks; diagnostic only, never part of the CSV). This is the
    // number BENCH_hotpath.json tracks for the non-exponential blocks.
    for (label, range) in scenario.model_blocks() {
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
    obs_out.finish().expect("write observability outputs");
}

//! E12 — the incremental-planning drift sweep: every `(class, size)`
//! cell opens a fresh `ckpt_service` session and serially commits a
//! fixed drift ladder (λ drifts, policy swaps, a platform rescale, a
//! model-family swap), one CSV row per step. With the self-check on
//! (the default) every incremental answer is asserted bit-identical to
//! a cold recompute of the same drifted inputs inside the run itself —
//! the scenario doubles as an end-to-end soundness harness for the
//! service's cache invalidation.
//!
//! ```text
//! cargo run -p ckpt_bench --release --bin drift
//!     [-- --sizes 50,300] [--seed 42] [--threads 0]
//!     [--self-check 1] [--out results]
//! ```

use ckpt_bench::engine::{self, CsvFileSink, EngineConfig};
use ckpt_bench::scenarios::DriftScenario;
use ckpt_bench::{Args, ObsOut};

fn main() {
    let args = Args::parse();
    let obs_out = ObsOut::from_args(&args);
    let seed: u64 = args.get_or("seed", 42);
    let threads: usize = args.get_or("threads", 0);
    let self_check: usize = args.get_or("self-check", 1);
    let out_dir: String = args.get_or("out", "results".to_owned());
    let sizes: Vec<usize> = args.list_or("sizes", vec![50, 300]);
    println!(
        "# E12 incremental drift sweep (cold self-check: {})",
        self_check != 0
    );
    let scenario = DriftScenario {
        self_check: self_check != 0,
        ..DriftScenario::standard(sizes, seed)
    };
    let path = std::path::Path::new(&out_dir).join("drift.csv");
    let mut sink = CsvFileSink::new(&path);
    let report =
        engine::run(&scenario, &EngineConfig::with_threads(threads), &mut sink).expect("write CSV");
    eprintln!(
        "wrote {} rows to {} in {:.1}s ({} workers)",
        sink.rows_written(),
        path.display(),
        report.wall,
        report.workers,
    );
    obs_out.finish().expect("write observability outputs");
}

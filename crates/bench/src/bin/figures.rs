//! E1/E2/E3 — regenerates Figures 5 (Genome), 6 (Montage) and 7 (Ligo):
//! relative expected makespan of CkptAll and CkptNone over CkptSome as a
//! function of the CCR, for three workflow sizes, four processor counts
//! and three failure probabilities. Cells run on the scenario engine's
//! thread pool; the CSV is streamed in canonical grid order and is
//! byte-identical for every `--threads` value.
//!
//! ```text
//! cargo run -p ckpt_bench --release --bin figures [-- --workflow genome|montage|ligo]
//!     [--points 9] [--instances 3] [--seed 42] [--threads 0]
//!     [--plan-threads 1] [--out results]
//! ```

use ckpt_bench::engine::{self, CsvFileSink, EngineConfig};
use ckpt_bench::scenarios::FigureScenario;
use ckpt_bench::summary::figure_shape_summary;
use ckpt_bench::{Args, ObsOut};
use pegasus::WorkflowClass;

fn main() {
    let args = Args::parse();
    let obs_out = ObsOut::from_args(&args);
    let points: usize = args.get_or("points", 9);
    let instances: usize = args.get_or("instances", 3);
    let seed: u64 = args.get_or("seed", 42);
    let threads: usize = args.get_or("threads", 0);
    let out_dir: String = args.get_or("out", "results".to_owned());
    let classes: Vec<WorkflowClass> = match args.get("workflow") {
        Some(c) => vec![c.parse().expect("unknown workflow class")],
        None => WorkflowClass::ALL.to_vec(),
    };
    let mut cfg = EngineConfig::with_threads(threads);
    cfg.plan_threads = args.get_or("plan-threads", 1);
    for class in classes {
        let fig = match class {
            WorkflowClass::Genome => "fig5",
            WorkflowClass::Montage => "fig6",
            WorkflowClass::Ligo => "fig7",
            WorkflowClass::Cybershake => "figx",
        };
        eprintln!("running {fig} ({class}): {points} CCR points × sizes × procs × pfail…");
        let scenario = FigureScenario::paper(class, points, instances, seed);
        let path = std::path::Path::new(&out_dir).join(format!("{fig}_{class}.csv"));
        let mut sink = CsvFileSink::new(&path);
        let report = engine::run(&scenario, &cfg, &mut sink).expect("write CSV");
        eprintln!(
            "wrote {} rows to {} in {:.1}s ({} workers × {} MC threads; \
             workflow store {}/{} hits, schedule store {}/{} hits)",
            sink.rows_written(),
            path.display(),
            report.wall,
            report.workers,
            report.mc_threads,
            report.cache.workflow_hits,
            report.cache.workflow_hits + report.cache.workflow_misses,
            report.cache.schedule_hits,
            report.cache.schedule_hits + report.cache.schedule_misses,
        );
        // Shape summary on stdout: per (size, procs, pfail), the CCR
        // endpoints.
        println!("# {fig} ({class}) shape summary");
        figure_shape_summary(&report.rows).print();
    }
    eprintln!("stage walls: {}", ckpt_core::stage::wall_summary());
    obs_out.finish().expect("write observability outputs");
}

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

use ckpt_bench::scenarios::FigureScenario;
use ckpt_bench::summary::figure_shape_summary;
use ckpt_bench::GridShell;
use pegasus::WorkflowClass;

fn main() {
    let shell = GridShell::parse("workflow points instances plan-threads");
    let points: usize = shell.args.get_or("points", 9);
    let instances: usize = shell.args.get_or("instances", 3);
    let classes: Vec<WorkflowClass> = match shell.args.parsed("workflow") {
        Some(c) => vec![c],
        None => WorkflowClass::ALL.to_vec(),
    };
    for class in classes {
        let fig = match class {
            WorkflowClass::Genome => "fig5",
            WorkflowClass::Montage => "fig6",
            WorkflowClass::Ligo => "fig7",
            WorkflowClass::Cybershake => "figx",
        };
        eprintln!("running {fig} ({class}): {points} CCR points × sizes × procs × pfail…");
        let scenario = FigureScenario::paper(class, points, instances, shell.seed);
        let report = shell.run(&scenario, &format!("{fig}_{class}.csv"));
        // Shape summary on stdout: per (size, procs, pfail), the CCR
        // endpoints.
        println!("# {fig} ({class}) shape summary");
        figure_shape_summary(&report.rows).print();
    }
    shell.finish();
}

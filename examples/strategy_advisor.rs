//! Strategy advisor: the paper's concluding methodology ("our experimental
//! methodology provides the quantitative means to identify these cases…
//! so as to select which approach to use in practice", §VIII).
//!
//! Given a workflow class, size, processor count, per-task failure
//! probability and CCR, evaluates all strategies and recommends one.
//!
//! ```text
//! cargo run --release --example strategy_advisor -- \
//!     [--class ligo] [--tasks 300] [--procs 35] [--pfail 0.001] [--ccr 0.1]
//! ```

use ckpt_bench::Args;
use ckpt_workflows::prelude::*;
use pegasus::ccr::scale_to_ccr;

fn main() {
    let args = Args::parse("class tasks procs pfail ccr");
    let class = args.get_or("class", WorkflowClass::Ligo);
    let tasks: usize = args.get_or("tasks", 300);
    let procs: usize = args.get_or("procs", 35);
    let pfail: f64 = args.get_or("pfail", 0.001);
    let ccr: f64 = args.get_or("ccr", 0.1);
    let bw = 1e8;

    let mut w = pegasus::generate(class, tasks, 42);
    scale_to_ccr(&mut w, ccr, bw);
    let lambda = lambda_from_pfail(pfail, w.dag.mean_weight());
    let platform = Platform::new(procs, lambda, bw);
    let pipe = Pipeline::new(&w, platform, &AllocateConfig::default());
    let evaluator = PathApprox::default();

    println!(
        "workflow={class} tasks={} procs={procs} pfail={pfail} ccr={ccr}\n",
        w.n_tasks()
    );
    let results = [
        pipe.assess(&CkptAllPolicy, &evaluator),
        pipe.assess(&DpOptimalPolicy, &evaluator),
        pipe.assess_none(),
    ];
    let [_, some, none] = &results;
    println!(
        "{:10} {:>18} {:>13}",
        "strategy", "expected makespan", "checkpoints"
    );
    for a in &results {
        println!(
            "{:10} {:>17.0}s {:>13}",
            a.policy, a.expected_makespan, a.n_checkpoints
        );
    }
    let best = results
        .iter()
        .min_by(|a, b| a.expected_makespan.total_cmp(&b.expected_makespan))
        .unwrap();
    let (em, some_em) = (best.expected_makespan, some.expected_makespan);
    println!(
        "\nRecommendation: {} (expected makespan {:.0}s)",
        best.policy, em
    );
    if best.policy == none.policy {
        println!(
            "Note: CkptNone wins here because checkpoints are expensive and/or\n\
             failures rare — the bet is that re-running from scratch on the rare\n\
             failure is cheaper than always paying checkpoint I/O (§VI-C).\n\
             CkptSome would cost {:.1}% more but bounds re-execution.",
            100.0 * (some_em / em - 1.0)
        );
    }
}

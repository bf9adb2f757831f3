//! E6/E7/E8 — ablation studies, all driven through the scenario engine:
//!
//! * `--study linearization` (E6): random topological sort vs the
//!   volume-minimizing sum-cut heuristic (§VIII future work) vs the
//!   structural order, as superchain linearizers inside CkptSome;
//! * `--study naive-coalesce` (E7): the §II-C naive solution (checkpoint
//!   only superchain exits) vs the full DP;
//! * `--study ligo-footnote` (E8): the incomplete-bipartite Ligo instances
//!   patched with dummy edges (footnote 3: a few CCR points where CkptAll
//!   can beat CkptSome on Ligo/300).
//!
//! ```text
//! cargo run -p ckpt_bench --release --bin ablation [-- --study all]
//!     [--seed 42] [--threads 0] [--plan-threads 1] [--out results]
//! ```

use ckpt_bench::scenarios::{LigoFootnoteScenario, LinearizationScenario, NaiveCoalesceScenario};
use ckpt_bench::summary::EndpointSummary;
use ckpt_bench::GridShell;

fn main() {
    let shell = GridShell::parse("study plan-threads");
    let study = shell.args.choice(
        "study",
        &["all", "linearization", "naive-coalesce", "ligo-footnote"],
    );
    if matches!(study, "all" | "linearization") {
        linearization(&shell);
    }
    if matches!(study, "all" | "naive-coalesce") {
        naive_coalesce(&shell);
    }
    if matches!(study, "all" | "ligo-footnote") {
        ligo_footnote(&shell);
    }
    shell.finish();
}

/// E6: linearizer comparison inside CkptSome.
fn linearization(shell: &GridShell) {
    println!("# E6 linearization ablation (CkptSome expected makespan)");
    let scenario = LinearizationScenario {
        ccr_points: 5,
        base_seed: shell.seed,
    };
    let rows = shell.run(&scenario, "ablation_linearization.csv").rows;
    let mut summary = EndpointSummary::new(
        "class pfail",
        "CCR",
        &["em_random", "em_minvolume", "em_structural"],
    );
    for r in &rows {
        summary.observe(
            &format!("{:8} {:6}", r.class.name(), r.pfail),
            r.ccr,
            &[r.em_random, r.em_minvolume, r.em_structural],
        );
    }
    summary.print();
}

/// E7: exit-only checkpoints (naive coalescing) vs the DP.
fn naive_coalesce(shell: &GridShell) {
    println!("# E7 naive-coalescing ablation (ExitOnly vs CkptSome)");
    let scenario = NaiveCoalesceScenario {
        ccr_points: 4,
        base_seed: shell.seed,
    };
    let rows = shell.run(&scenario, "ablation_naive_coalesce.csv").rows;
    let mut summary = EndpointSummary::new("class size pfail", "CCR", &["exit/some"]);
    for r in &rows {
        summary.observe(
            &format!("{:8} {:5} {:6}", r.class.name(), r.size, r.pfail),
            r.ccr,
            &[r.ratio],
        );
    }
    summary.print();
}

/// E8: the Ligo incomplete-bipartite artifact (see
/// [`LigoFootnoteScenario`]).
fn ligo_footnote(shell: &GridShell) {
    println!("# E8 Ligo incomplete-bipartite footnote");
    let scenario = LigoFootnoteScenario::new(7, shell.seed);
    let rows = shell.run(&scenario, "ablation_ligo_footnote.csv").rows;
    let mut summary = EndpointSummary::new("pfail", "CCR", &["relall_main", "relall_patched"]);
    for r in &rows {
        summary.observe(
            &format!("{:6}", r.pfail),
            r.ccr,
            &[r.rel_all_mainline, r.rel_all_patched],
        );
    }
    summary.print();
}

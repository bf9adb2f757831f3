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

use ckpt_bench::scenarios::DriftScenario;
use ckpt_bench::GridShell;

fn main() {
    let shell = GridShell::parse("sizes self-check");
    let self_check: usize = shell.args.get_or("self-check", 1);
    let sizes: Vec<usize> = shell.args.list_or("sizes", vec![50, 300]);
    println!(
        "# E12 incremental drift sweep (cold self-check: {})",
        self_check != 0
    );
    let scenario = DriftScenario {
        self_check: self_check != 0,
        ..DriftScenario::standard(sizes, shell.seed)
    };
    shell.run(&scenario, "drift.csv");
    shell.finish();
}

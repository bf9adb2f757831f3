//! Ground-truth check by discrete-event simulation: run a Genome workflow
//! under injected exponential failures and compare the measured mean
//! makespan against the paper's first-order model (Eq. (2) + PathApprox
//! for checkpointed strategies, Theorem 1 for CkptNone).
//!
//! ```text
//! cargo run --release --example failure_injection [-- <runs>]
//! ```

use ckpt_workflows::prelude::*;
use failsim::{montecarlo_none_model, montecarlo_segments_model};

fn main() {
    let runs: usize = ckpt_bench::positional_or("runs", 2000);
    let bw = 1e8;
    let mut w = pegasus::generate(WorkflowClass::Genome, 300, 11);
    pegasus::ccr::scale_to_ccr(&mut w, 1e-3, bw);
    println!(
        "Genome, {} tasks on 18 processors, CCR 1e-3, {} simulated runs per cell\n",
        w.n_tasks(),
        runs
    );
    println!(
        "{:>8} {:10} {:>12} {:>12} {:>8} {:>12} {:>10}",
        "pfail", "strategy", "model EM", "sim EM", "err%", "failures/run", "wasted/run"
    );
    for pfail in [0.01, 0.001, 0.0001] {
        let lambda = lambda_from_pfail(pfail, w.dag.mean_weight());
        let platform = Platform::new(18, lambda, bw);
        let pipe = Pipeline::new(&w, platform, &AllocateConfig::default());
        let cfg = SimConfig {
            runs,
            seed: 5,
            ..Default::default()
        };
        let policies: [&dyn CheckpointPolicy; 2] = [&CkptAllPolicy, &DpOptimalPolicy];
        for policy in policies {
            let model = pipe
                .assess(policy, &PathApprox::default())
                .expected_makespan;
            let sg = pipe.segment_graph(policy);
            let sim = montecarlo_segments_model(&sg, &pipe.platform.model, &cfg);
            println!(
                "{:>8} {:10} {:>11.0}s {:>11.0}s {:>8.2} {:>12.2} {:>9.0}s",
                pfail,
                policy.name(),
                model,
                sim.mean_makespan,
                100.0 * (model - sim.mean_makespan).abs() / sim.mean_makespan,
                sim.mean_failures,
                sim.mean_wasted
            );
        }
        let none = pipe.assess_none();
        let model = none.expected_makespan;
        let sim = montecarlo_none_model(&w.dag, &pipe.schedule, &pipe.platform.model, &cfg);
        println!(
            "{:>8} {:10} {:>11.0}s {:>11.0}s {:>8.2} {:>12.2} {:>9.0}s  ({} diverged)",
            pfail,
            none.policy,
            model,
            sim.stats.mean_makespan,
            100.0 * (model - sim.stats.mean_makespan).abs() / sim.stats.mean_makespan,
            sim.stats.mean_failures,
            sim.stats.mean_wasted,
            sim.diverged
        );
    }
    println!(
        "\nThe Eq.(2) model tracks the simulation to first order in λ;\n\
         Theorem 1 is the paper's admittedly rough CkptNone estimate (§V)."
    );

    // Beyond the paper: the same pipeline under non-memoryless failure
    // models, every family calibrated to the same per-task pfail. The
    // analytic column is the renewal-quadrature cost path; the simulated
    // column is its ground truth.
    let pfail = 0.001;
    let w_bar = w.dag.mean_weight();
    println!("\n# CkptSome under non-memoryless failure models (pfail {pfail})");
    println!(
        "{:>24} {:>12} {:>12} {:>8} {:>6}",
        "model", "model EM", "sim EM", "err%", "ckpts"
    );
    let models = [
        (
            "exponential",
            FailureModel::exponential_from_pfail(pfail, w_bar),
        ),
        (
            "weibull k=0.7 (infant)",
            FailureModel::weibull_from_pfail(0.7, pfail, w_bar),
        ),
        (
            "weibull k=2.0 (wearout)",
            FailureModel::weibull_from_pfail(2.0, pfail, w_bar),
        ),
        (
            "lognormal sigma=1.0",
            FailureModel::lognormal_from_pfail(1.0, pfail, w_bar),
        ),
    ];
    let cfg = SimConfig {
        runs,
        seed: 5,
        ..Default::default()
    };
    for (label, model) in models {
        let platform = Platform::with_model(18, model, bw);
        let pipe = Pipeline::new(&w, platform, &AllocateConfig::default());
        let some = pipe.assess(&DpOptimalPolicy, &PathApprox::default());
        let sg = pipe.segment_graph(&DpOptimalPolicy);
        let sim = montecarlo_segments_model(&sg, &model, &cfg);
        println!(
            "{:>24} {:>11.0}s {:>11.0}s {:>8.2} {:>6}",
            label,
            some.expected_makespan,
            sim.mean_makespan,
            100.0 * (some.expected_makespan - sim.mean_makespan).abs() / sim.mean_makespan,
            some.n_checkpoints
        );
    }
    println!(
        "\nInfant-mortality failures (k < 1) make long uncheckpointed spans\n\
         cheap to retry; wear-out (k > 1) punishes them — watch the\n\
         checkpoint counts move against the exponential baseline."
    );
}

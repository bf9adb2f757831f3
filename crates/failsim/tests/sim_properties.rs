//! Property-based tests for the discrete-event simulators.

use ckpt_core::policy::{CheckpointPolicy, DalyPeriodic, GreedyCrossover, RiskThreshold};
use ckpt_core::stage::curve_stage;
use ckpt_core::{
    allocate, AllocateConfig, CkptAllPolicy, CostCtx, DpOptimalPolicy, FailureModel, Pipeline,
    Platform,
};
use failsim::{
    montecarlo_segments_model, simulate_none, simulate_none_reference, simulate_segments_model,
    ModelFailures, SimConfig, TraceFailures,
};
use mspg::gen::{random_workflow, GenConfig};
use proptest::prelude::*;

fn wf(n: usize, seed: u64) -> mspg::Workflow {
    random_workflow(&GenConfig {
        n_tasks: n,
        max_branch: 4,
        weight_range: (0.5, 20.0),
        size_range: (1.0, 1e7),
        seed,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Without failures, both engines reproduce their deterministic
    /// makespans exactly: the segment graph's all-low longest path, and
    /// the schedule's failure-free parallel time.
    #[test]
    fn zero_lambda_is_deterministic(n in 2usize..60, p in 1usize..6, seed: u64) {
        let w = wf(n, seed);
        let platform = Platform::new(p, 0.0, 1e7);
        let pipe = Pipeline::new(&w, platform, &AllocateConfig { seed, ..Default::default() });
        let sg = pipe.segment_graph(&DpOptimalPolicy);
        let stats = simulate_segments_model(&sg, &platform.model, seed);
        prop_assert!((stats.makespan - sg.pdag.makespan_low()).abs() < 1e-6);
        prop_assert_eq!(stats.n_failures, 0);
        let mut src = ModelFailures::new(platform.model, seed);
        let none = simulate_none(&w.dag, &pipe.schedule, &mut src, 10).unwrap();
        let wpar = pipe.schedule.failure_free_parallel_time(&w.dag);
        prop_assert!((none.makespan - wpar).abs() < 1e-6 * wpar.max(1.0),
            "sim {} vs wpar {wpar}", none.makespan);
    }

    /// Failures never shorten an execution, and wasted time is consistent
    /// with the failure count.
    #[test]
    fn failures_only_lengthen(n in 2usize..50, seed: u64, lam_exp in 1u32..5) {
        let w = wf(n, seed);
        let lambda = 10f64.powi(-(lam_exp as i32 + 1));
        let platform = Platform::new(3, lambda, 1e7);
        let pipe = Pipeline::new(&w, platform, &AllocateConfig { seed, ..Default::default() });
        let sg = pipe.segment_graph(&CkptAllPolicy);
        let floor = sg.pdag.makespan_low();
        let stats = simulate_segments_model(&sg, &platform.model, seed);
        prop_assert!(stats.makespan >= floor - 1e-9);
        prop_assert!(stats.wasted_time >= 0.0);
        if stats.n_failures == 0 {
            prop_assert!((stats.makespan - floor).abs() < 1e-9 * floor.max(1.0));
        }
    }

    /// The CkptNone cascade engine terminates and respects the
    /// failure-free floor under scripted failure traces.
    #[test]
    fn cascade_engine_terminates(n in 2usize..40, p in 1usize..5, seed: u64,
                                 fail_times in prop::collection::vec(0.1f64..200.0, 0..12)) {
        let w = wf(n, seed);
        let sched = allocate(&w, p, &AllocateConfig { seed, ..Default::default() });
        let wpar = sched.failure_free_parallel_time(&w.dag);
        // Spread the scripted failures round-robin over processors.
        let mut traces: Vec<Vec<f64>> = vec![Vec::new(); p];
        for (i, t) in fail_times.iter().enumerate() {
            traces[i % p].push(*t);
        }
        let mut src = TraceFailures::new(traces);
        let stats = simulate_none(&w.dag, &sched, &mut src, 100_000).unwrap();
        prop_assert!(stats.makespan >= wpar - 1e-6 * wpar.max(1.0));
        prop_assert!(stats.n_failures <= fail_times.len());
    }

    /// The renewal simulator is the ground truth for the analytic cost
    /// path: over a single-segment chain, the simulated mean converges
    /// to `CostCtx::expected_segment_time` to first order when the
    /// per-span failure mass is small — for every model family. The
    /// exponential arm checks Eq. (2) (first-order, so an O((λ·base)²)
    /// slack applies); the Weibull and LogNormal arms check the exact
    /// quadrature renewal solve.
    #[test]
    fn single_segment_mean_matches_cost_model(weight in 1.0f64..50.0,
                                              hazard in 1e-3f64..2e-2,
                                              family in 0usize..4,
                                              seed: u64) {
        let mut dag = mspg::Dag::new();
        let k = dag.add_kind("t");
        let t = dag.add_task("t0", k, weight);
        let root = mspg::Mspg::chain([t]).unwrap();
        let w = mspg::Workflow::new(dag, root);
        // Calibrate every family to the same failure mass over the span.
        let pfail = 1.0 - (-hazard).exp();
        let model = match family {
            0 => FailureModel::exponential_from_pfail(pfail, weight),
            1 => FailureModel::weibull_from_pfail(0.8, pfail, weight),
            2 => FailureModel::weibull_from_pfail(2.0, pfail, weight),
            _ => FailureModel::lognormal_from_pfail(1.0, pfail, weight),
        };
        let platform = Platform::with_model(1, model, 1e7);
        let pipe = Pipeline::new(&w, platform, &AllocateConfig::default());
        let sg = pipe.segment_graph(&CkptAllPolicy);
        prop_assert_eq!(sg.segments.len(), 1);
        let base = sg.segments[0].cost.base();
        let expected = CostCtx::with_model(&w.dag, model, 1e7).expected_segment_time(base);
        // The cached renewal curve must agree with the direct quadrature
        // here too (the simulator cross-checks both cost paths).
        let curve = curve_stage(&w.dag, &platform).unwrap();
        let cached = CostCtx::with_curve(&w.dag, model, 1e7, curve.as_ref())
            .expected_segment_time(base);
        prop_assert!(
            (cached - expected).abs() <= 1e-3 * expected.max(1e-12) + 1e-12,
            "family {family}: curve {cached} vs direct {expected}"
        );
        let mc = montecarlo_segments_model(&sg, &model, &SimConfig {
            runs: 4000,
            seed,
            threads: 1,
            ..Default::default()
        });
        // 5σ statistical slack + the exponential arm's first-order model
        // error (≈ (λ·base)²·base/6) + quadrature slack.
        let tol = 5.0 * mc.stderr + hazard * hazard * base + 1e-6 * base;
        prop_assert!((mc.mean_makespan - expected).abs() < tol,
            "family {family}: sim {} vs model {expected} (stderr {})",
            mc.mean_makespan, mc.stderr);
    }

    /// A Weibull with shape 1 *is* the exponential distribution; with a
    /// power-of-two scale (so `scale·x == x/λ` exactly) both simulator
    /// paths must reproduce the exponential results bit-for-bit under
    /// the same seed — segment renewal sampling and the per-processor
    /// CkptNone cascade alike.
    #[test]
    fn weibull_shape_one_is_bitwise_exponential(n in 2usize..40, seed: u64) {
        let lambda = 0.03125; // 2⁻⁵ ⇒ scale 32 is exactly representable
        let weibull = FailureModel::weibull(1.0, 32.0);
        let w = wf(n, seed);
        let platform = Platform::new(3, lambda, 1e7);
        let pipe = Pipeline::new(&w, platform, &AllocateConfig { seed, ..Default::default() });
        let sg = pipe.segment_graph(&CkptAllPolicy);
        let a = simulate_segments_model(&sg, &platform.model, seed);
        let b = simulate_segments_model(&sg, &weibull, seed);
        prop_assert_eq!(a, b);
        let mut exp_src = ModelFailures::new(platform.model, seed);
        let mut wei_src = ModelFailures::new(weibull, seed);
        let na = simulate_none(&w.dag, &pipe.schedule, &mut exp_src, 100_000);
        let nb = simulate_none(&w.dag, &pipe.schedule, &mut wei_src, 100_000);
        prop_assert_eq!(na, nb);
    }

    /// The CkptNone fail-restart fast path (inline handling of failure
    /// events that are already the strict heap minimum) must be
    /// *bit-for-bit* equivalent to the reference dispatcher-only engine:
    /// same stats, same divergence verdict, same draw consumption — for
    /// every model family, across rates dense enough to exercise both
    /// the inline cycles and the mixed-event regime, and under scripted
    /// traces whose exact time ties stress the (time, seq) ordering.
    #[test]
    fn fail_restart_fast_path_is_bitwise_equivalent(
        n in 2usize..40,
        p in 1usize..5,
        seed: u64,
        family in 0usize..4,
        hazard_exp in 0u32..5,
    ) {
        let w = wf(n, seed);
        let sched = allocate(&w, p, &AllocateConfig { seed, ..Default::default() });
        let pfail = 1.0 - (-(10f64.powi(-(hazard_exp as i32)))).exp();
        let w_bar = w.dag.mean_weight();
        let model = match family {
            0 => FailureModel::exponential_from_pfail(pfail, w_bar),
            1 => FailureModel::weibull_from_pfail(0.7, pfail, w_bar),
            2 => FailureModel::weibull_from_pfail(2.0, pfail, w_bar),
            _ => FailureModel::lognormal_from_pfail(1.0, pfail.max(1e-9), w_bar),
        };
        let mut fast_src = ModelFailures::new(model, seed);
        let mut ref_src = ModelFailures::new(model, seed);
        let fast = simulate_none(&w.dag, &sched, &mut fast_src, 3000);
        let reference = simulate_none_reference(&w.dag, &sched, &mut ref_src, 3000);
        prop_assert_eq!(fast, reference);
        // Draw consumption must match too: both sources must produce the
        // same next value afterwards.
        prop_assert_eq!(
            fast_src.sample_interarrival(0).to_bits(),
            ref_src.sample_interarrival(0).to_bits()
        );
    }

    /// Fast-path equivalence under scripted traces with exact ties
    /// (integer failure times landing on integer task boundaries).
    #[test]
    fn fail_restart_fast_path_handles_tied_traces(
        n in 2usize..30,
        p in 1usize..4,
        seed: u64,
        fail_times in prop::collection::vec(1u32..40, 0..16),
    ) {
        let w = wf(n, seed);
        let sched = allocate(&w, p, &AllocateConfig { seed, ..Default::default() });
        let mut traces: Vec<Vec<f64>> = vec![Vec::new(); p];
        for (i, t) in fail_times.iter().enumerate() {
            traces[i % p].push(*t as f64);
        }
        let mut fast_src = TraceFailures::new(traces.clone());
        let mut ref_src = TraceFailures::new(traces);
        let fast = simulate_none(&w.dag, &sched, &mut fast_src, 100_000);
        let reference = simulate_none_reference(&w.dag, &sched, &mut ref_src, 100_000);
        prop_assert_eq!(fast, reference);
    }

    /// Policy-built segment graphs drive the executors unchanged: for
    /// every new checkpoint policy, the simulated mean over the
    /// policy's coalesced graph matches the analytic estimate the same
    /// graph's 2-state laws encode (the E10 scenario's two columns), to
    /// first order in the per-segment failure mass.
    #[test]
    fn policy_segment_graphs_drive_the_simulator(n in 10usize..50, p in 1usize..5,
                                                 seed: u64, family in 0usize..2) {
        let w = wf(n, seed);
        let w_bar = w.dag.mean_weight();
        let model = if family == 0 {
            FailureModel::exponential_from_pfail(0.001, w_bar)
        } else {
            FailureModel::weibull_from_pfail(2.0, 0.001, w_bar)
        };
        let platform = Platform::with_model(p, model, 1e7);
        let pipe = Pipeline::new(&w, platform, &AllocateConfig { seed, ..Default::default() });
        let policies: [&dyn CheckpointPolicy; 3] = [
            &DalyPeriodic { period: None },
            &RiskThreshold { max_risk: 0.1 },
            &GreedyCrossover,
        ];
        for policy in policies {
            let sg = pipe.segment_graph(policy);
            let analytic: f64 = probdag::Evaluator::expected_makespan(
                &probdag::PathApprox::default(), &sg.pdag);
            let mc = montecarlo_segments_model(&sg, &model, &SimConfig {
                runs: 1500,
                seed,
                threads: 1,
                ..Default::default()
            });
            let tol = 5.0 * mc.stderr + 0.02 * analytic;
            prop_assert!(
                (mc.mean_makespan - analytic).abs() < tol,
                "{}: sim {} vs analytic {analytic} (stderr {})",
                policy.name(), mc.mean_makespan, mc.stderr
            );
        }
    }

    /// Monte Carlo estimates are pure functions of `(seed, runs)`: every
    /// aggregate from both engines (segment renewal and CkptNone
    /// cascade) is bit-identical across thread budgets.
    #[test]
    fn montecarlo_is_partition_invariant(n in 2usize..40, p in 1usize..5,
                                         seed: u64, family in 0usize..3) {
        let w = wf(n, seed);
        let w_bar = w.dag.mean_weight();
        let model = match family {
            0 => FailureModel::exponential_from_pfail(0.01, w_bar),
            1 => FailureModel::weibull_from_pfail(2.0, 0.01, w_bar),
            _ => FailureModel::lognormal_from_pfail(1.0, 0.01, w_bar),
        };
        let platform = Platform::with_model(p, model, 1e7);
        let pipe = Pipeline::new(&w, platform, &AllocateConfig { seed, ..Default::default() });
        let sg = pipe.segment_graph(&DpOptimalPolicy);
        // A small failure budget keeps diverging cascades cheap while
        // still exercising the censoring path across budgets.
        let cfg = |threads| SimConfig {
            runs: 64, seed, threads, max_failures: 500, ..Default::default()
        };
        let seg1 = montecarlo_segments_model(&sg, &model, &cfg(1));
        let none1 = failsim::montecarlo_none_model(
            &w.dag, &pipe.schedule, &model, &cfg(1));
        for threads in [2usize, 3, 7, 16] {
            let seg = montecarlo_segments_model(&sg, &model, &cfg(threads));
            prop_assert_eq!(seg1.mean_makespan.to_bits(), seg.mean_makespan.to_bits());
            prop_assert_eq!(seg1.stderr.to_bits(), seg.stderr.to_bits());
            prop_assert_eq!(seg1.mean_failures.to_bits(), seg.mean_failures.to_bits());
            prop_assert_eq!(seg1.mean_wasted.to_bits(), seg.mean_wasted.to_bits());
            let none = failsim::montecarlo_none_model(
                &w.dag, &pipe.schedule, &model, &cfg(threads));
            prop_assert_eq!(none1.stats.mean_makespan.to_bits(),
                            none.stats.mean_makespan.to_bits());
            prop_assert_eq!(none1.stats.stderr.to_bits(), none.stats.stderr.to_bits());
            prop_assert_eq!(none1.stats.mean_failures.to_bits(),
                            none.stats.mean_failures.to_bits());
            prop_assert_eq!(none1.diverged, none.diverged);
        }
    }

    /// Monte Carlo means respond monotonically to the failure rate (with
    /// generous statistical slack).
    #[test]
    fn mc_mean_monotone_in_lambda(seed in 0u64..100) {
        let w = wf(40, seed);
        let platform = Platform::new(3, 1e-5, 1e7);
        let pipe = Pipeline::new(&w, platform, &AllocateConfig { seed, ..Default::default() });
        let sg = pipe.segment_graph(&DpOptimalPolicy);
        let runs = 300;
        let mean = |lambda: f64| -> f64 {
            let model = FailureModel::exponential(lambda);
            (0..runs)
                .map(|i| simulate_segments_model(&sg, &model, seed.wrapping_add(i)).makespan)
                .sum::<f64>() / runs as f64
        };
        let lo = mean(1e-6);
        let hi = mean(5e-3);
        prop_assert!(hi >= lo * 0.999, "hi {hi} vs lo {lo}");
    }
}

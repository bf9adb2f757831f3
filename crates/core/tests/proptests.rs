//! Property-based tests for the scheduling and checkpointing algorithms.

use ckpt_core::{
    allocate, optimal_checkpoints, segment_cost, AllocateConfig, CostCtx, DpOptimalPolicy,
    ExitOnlyPolicy, FailureModel, Pipeline, Platform, RestartCurve,
};
use mspg::gen::{random_workflow, GenConfig};
use mspg::linearize::Linearizer;
use probdag::{Evaluator, PathApprox};
use proptest::prelude::*;

fn wf(n: usize, seed: u64) -> mspg::Workflow {
    random_workflow(&GenConfig {
        n_tasks: n,
        max_branch: 4,
        weight_range: (0.5, 60.0),
        size_range: (1.0, 5e7),
        seed,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Allocate produces a valid schedule (full cover, topological
    /// superchains, deadlock-free) on arbitrary M-SPGs and processor
    /// counts.
    #[test]
    fn allocate_is_always_valid(n in 1usize..150, p in 1usize..24, seed: u64) {
        let w = wf(n, seed);
        let cfg = AllocateConfig { linearizer: Linearizer::RandomTopo, seed };
        let s = allocate(&w, p, &cfg);
        prop_assert!(s.validate(&w.dag).is_ok());
        prop_assert_eq!(s.n_tasks(), n);
        // Every superchain sits on a valid processor.
        for sc in &s.superchains {
            prop_assert!(sc.proc < p);
        }
    }

    /// The failure-free parallel time is bracketed by the critical path
    /// and the sequential time, and never improves with fewer processors.
    #[test]
    fn parallel_time_brackets(n in 2usize..120, seed: u64) {
        let w = wf(n, seed);
        let cfg = AllocateConfig::default();
        let t1 = allocate(&w, 1, &cfg).failure_free_parallel_time(&w.dag);
        let t8 = allocate(&w, 8, &cfg).failure_free_parallel_time(&w.dag);
        let cp = w.dag.critical_path();
        let total = w.dag.total_weight();
        prop_assert!((t1 - total).abs() < 1e-6 * total, "t1 {t1} vs total {total}");
        prop_assert!(t8 >= cp - 1e-9);
        prop_assert!(t8 <= t1 + 1e-9);
    }

    /// The checkpoint DP is optimal: on small superchains it matches
    /// exhaustive enumeration over all checkpoint subsets.
    #[test]
    fn dp_matches_exhaustive(n in 1usize..40, p in 1usize..4, seed: u64,
                             lambda in 1e-6f64..0.05, bw in 1e5f64..1e9) {
        let w = wf(n, seed);
        let s = allocate(&w, p, &AllocateConfig { linearizer: Linearizer::RandomTopo, seed });
        let ctx = CostCtx::exponential(&w.dag, lambda, bw);
        for sc in &s.superchains {
            let len = sc.tasks.len();
            if len > 12 {
                continue;
            }
            let dp = optimal_checkpoints(&ctx, &sc.tasks);
            // Exhaustive enumeration.
            let mut best = f64::INFINITY;
            for mask in 0u32..(1 << (len - 1)) {
                let mut total = 0.0;
                let mut lo = 0usize;
                for hi in 0..len {
                    let is_ckpt = hi == len - 1 || mask >> hi & 1 == 1;
                    if is_ckpt {
                        let c = segment_cost(&ctx, &sc.tasks, lo, hi);
                        total += ctx.expected_segment_time(c.base());
                        lo = hi + 1;
                    }
                }
                best = best.min(total);
            }
            prop_assert!(
                (dp.expected_time - best).abs() <= 1e-9 * best.max(1.0),
                "dp {} vs exhaustive {best}", dp.expected_time
            );
        }
    }

    /// Segment costs are superadditive-consistent: splitting a segment
    /// never reduces total I/O below the merged I/O minus the interface
    /// data (reads/writes only move, they don't vanish).
    #[test]
    fn segment_cost_monotonicity(n in 2usize..60, seed: u64) {
        let w = wf(n, seed);
        let s = allocate(&w, 1, &AllocateConfig::default());
        let ctx = CostCtx::exponential(&w.dag, 0.0, 1e6);
        for sc in &s.superchains {
            let len = sc.tasks.len();
            if len < 2 {
                continue;
            }
            let whole = segment_cost(&ctx, &sc.tasks, 0, len - 1);
            let mid = len / 2;
            let left = segment_cost(&ctx, &sc.tasks, 0, mid - 1);
            let right = segment_cost(&ctx, &sc.tasks, mid, len - 1);
            // Work is conserved exactly.
            prop_assert!((left.w + right.w - whole.w).abs() < 1e-9 * whole.w.max(1.0));
            // Splitting can only add I/O (the interface files get written
            // and re-read).
            let merged_io = whole.r + whole.c;
            let split_io = left.r + left.c + right.r + right.c;
            prop_assert!(split_io >= merged_io - 1e-9 * merged_io.max(1.0),
                "split {split_io} < merged {merged_io}");
        }
    }

    /// End-to-end: CkptSome's evaluated makespan never exceeds ExitOnly's
    /// (the DP dominates the naive solution on the same schedule), and
    /// all strategies respect the failure-free lower bound.
    #[test]
    fn strategy_dominance(n in 2usize..80, p in 1usize..8, seed: u64) {
        let w = wf(n, seed);
        let lambda = ckpt_core::lambda_from_pfail(0.001, w.dag.mean_weight());
        let platform = Platform::new(p, lambda, 1e7);
        let pipe = Pipeline::new(&w, platform, &AllocateConfig { linearizer: Linearizer::RandomTopo, seed });
        let some = pipe.assess(&DpOptimalPolicy, &PathApprox::default());
        let exit = pipe.assess(&ExitOnlyPolicy, &PathApprox::default());
        prop_assert!(
            some.expected_makespan <= exit.expected_makespan * 1.03,
            "some {} vs exit {}", some.expected_makespan, exit.expected_makespan
        );
        prop_assert!(some.expected_makespan >= some.w_par * 0.99);
    }

    /// Theorem 1 is monotone in every argument.
    #[test]
    fn theorem1_monotone(w1 in 1.0f64..1e5, p in 1usize..512, l in 0.0f64..1e-3) {
        let base = ckpt_core::theorem1(w1, p, l);
        prop_assert!(ckpt_core::theorem1(w1 * 1.5, p, l) >= base);
        prop_assert!(ckpt_core::theorem1(w1, p + 1, l) >= base);
        prop_assert!(ckpt_core::theorem1(w1, p, l + 1e-6) >= base);
    }

    /// The RestartCurve honors its documented error contract for every
    /// family, shape, calibration, and span decade: within
    /// [`RestartCurve::REL_TOL`] of the production 128-panel Simpson
    /// solve and within [`RestartCurve::REL_TOL_REF`] of the 4096-panel
    /// reference, across the curve's full tabulated range.
    #[test]
    fn restart_curve_matches_direct_simpson(
        family in 0usize..3,
        shape_pct in 40u32..250,       // Weibull k / LogNormal σ × 100
        pfail_exp in 2u32..5,          // pfail ∈ {1e-2 .. 1e-4}
        w_bar in 0.5f64..500.0,
        span_log10 in -300i32..300,    // b = w̄ · 10^(log10/100) ± jitter
        jitter in 0.0f64..0.01,
    ) {
        let shape = shape_pct as f64 / 100.0;
        let pfail = 10f64.powi(-(pfail_exp as i32));
        let model = match family {
            0 => FailureModel::weibull_from_pfail(shape, pfail, w_bar),
            1 => FailureModel::weibull_from_pfail(1.0, pfail, w_bar),
            _ => FailureModel::lognormal_from_pfail(shape, pfail, w_bar),
        };
        let curve = RestartCurve::build(model, w_bar * 1e-3, w_bar * 1e3);
        let b = w_bar * 10f64.powf(span_log10 as f64 / 100.0 + jitter);
        let (lo, hi) = curve.span_range();
        // Out-of-range queries are bit-identical to the direct path by
        // construction; the interesting contract is in-range.
        let b = b.clamp(lo, hi);
        let cached = curve.expected_restart_time(b);
        let direct = model.expected_restart_time(b);
        if !direct.is_finite() {
            prop_assert!(!cached.is_finite(), "{model:?} at b={b}: cached {cached}");
            return;
        }
        prop_assert!(
            (cached - direct).abs() <= RestartCurve::REL_TOL * direct,
            "{model:?} at b={b}: cached {cached} vs direct {direct}"
        );
        let fine = model.expected_restart_time_ref(b, 4096);
        prop_assert!(
            (cached - fine).abs() <= RestartCurve::REL_TOL_REF * fine,
            "{model:?} at b={b}: cached {cached} vs fine {fine} (rel {})",
            (cached - fine).abs() / fine
        );
    }

    /// Exponential cost queries never touch an attached curve: with the
    /// closed form short-circuiting first, an exponential `CostCtx`
    /// must produce bit-identical segment times and two-state
    /// probabilities whether or not a (foreign-model) curve is wired in
    /// — this is the E1–E8 byte-stability guarantee at the unit level.
    #[test]
    fn exponential_queries_never_touch_the_curve(
        lambda in 1e-7f64..0.1,
        base in 1e-3f64..1e4,
    ) {
        let dag = mspg::Dag::new();
        let foreign = FailureModel::weibull(2.0, 42.0);
        let curve = RestartCurve::build(foreign, 1e-3, 1e4);
        let model = FailureModel::exponential(lambda);
        let bare = CostCtx::with_model(&dag, model, 1e7);
        // Deliberately wire a foreign-model curve past the constructor's
        // mismatch guard: if the exponential arm ever consulted it, the
        // bit-equality below would break loudly.
        let wired = CostCtx {
            curve: Some(&curve),
            ..bare
        };
        prop_assert_eq!(
            bare.expected_segment_time(base).to_bits(),
            wired.expected_segment_time(base).to_bits()
        );
        prop_assert_eq!(
            bare.two_state_p_high(base).to_bits(),
            wired.two_state_p_high(base).to_bits()
        );
        // And both equal the paper's closed form exactly.
        prop_assert_eq!(
            bare.expected_segment_time(base).to_bits(),
            (base + 0.5 * lambda * base * base).to_bits()
        );
    }

    /// The curve-backed pipeline agrees with the quadrature-backed
    /// pipeline within the documented tolerance at the end-to-end level:
    /// same plans, and expected makespans within a few × REL_TOL_REF
    /// (the evaluator composes ~n segment queries).
    #[test]
    fn curve_backed_pipeline_tracks_direct_quadrature(
        n in 2usize..50, p in 1usize..6, seed: u64, family in 0usize..2,
    ) {
        let w = wf(n, seed);
        let w_bar = w.dag.mean_weight();
        let model = if family == 0 {
            FailureModel::weibull_from_pfail(0.7, 0.01, w_bar)
        } else {
            FailureModel::lognormal_from_pfail(1.0, 0.01, w_bar)
        };
        let platform = Platform::with_model(p, model, 1e7);
        let cfg = AllocateConfig { linearizer: Linearizer::RandomTopo, seed };
        let pipe = Pipeline::new(&w, platform, &cfg);
        prop_assert!(ckpt_core::stage::curve_stage(&w.dag, &platform).unwrap().is_some());
        // Direct-quadrature reference: the same schedule, costs through
        // CostCtx::with_model (no curve).
        let direct_ctx = CostCtx::with_model(&w.dag, model, 1e7);
        let plan = pipe.plan(&DpOptimalPolicy);
        let sg_curve = pipe.segment_graph(&DpOptimalPolicy);
        let sg_direct = ckpt_core::coalesce(&direct_ctx, &pipe.schedule, &plan);
        prop_assert_eq!(sg_curve.segments.len(), sg_direct.segments.len());
        let ev = PathApprox::default();
        let em_curve = ev.expected_makespan(&sg_curve.pdag);
        let em_direct = ev.expected_makespan(&sg_direct.pdag);
        prop_assert!(
            (em_curve - em_direct).abs() <= 1e-3 * em_direct,
            "curve {em_curve} vs direct {em_direct}"
        );
    }
}

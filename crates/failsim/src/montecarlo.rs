//! Parallel Monte Carlo over simulated executions.

use ckpt_core::{FailureModel, Schedule, SegmentGraph};
use mspg::Dag;

use crate::failure::ModelFailures;
use crate::metrics::{ExecStats, McStats};
use crate::none_exec::{NoneState, NoneStatic, RunOutcome};
use crate::segment_exec::simulate_segments_model;

/// Monte Carlo configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Number of simulated executions (for the splitting estimator:
    /// number of root trajectories).
    pub runs: usize,
    /// Base seed; run `i` derives an independent stream.
    pub seed: u64,
    /// Worker threads (0 = all available cores). A **pure speed knob**:
    /// every run owns its own seed stream and result slot, and
    /// aggregation folds in canonical run order, so the estimate is a
    /// bit-identical function of `(seed, runs)` for any thread budget
    /// (pinned by `sim_properties` proptests).
    pub threads: usize,
    /// Failure budget per CkptNone run (see
    /// [`crate::none_exec::Diverged`]).
    pub max_failures: usize,
    /// Which CkptNone estimator to run; both run the one splitting
    /// code path, naive Monte Carlo with zero levels. Ignored by the
    /// segment-graph engine (checkpointed runs have no rare-cascade
    /// regime worth splitting for).
    pub estimator: Estimator,
    /// Cascade-tail threshold for [`NoneMcStats::p_tail`]: the CkptNone
    /// estimators also report `P(n_failures ≥ tail_at)`, the
    /// probability that a trajectory suffers a deep failure cascade.
    /// This is the statistic multilevel splitting is built for — naive
    /// sampling needs `≫ 1/p` runs to see one such cascade, while every
    /// splitting root contributes a smoothed weighted estimate. The
    /// default `0` makes it trivially 1 (every run has ≥ 0 failures).
    pub tail_at: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            runs: 1000,
            seed: 0xF00D,
            threads: 0,
            max_failures: 1_000_000,
            estimator: Estimator::Naive,
            tail_at: 0,
        }
    }
}

/// CkptNone estimator selector (see [`SimConfig::estimator`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Estimator {
    /// Classic Monte Carlo: `runs` independent trajectories. This is
    /// [`Estimator::Splitting`] with zero levels: no trajectory ever
    /// pauses or clones, so each root is one plain run at weight 1.
    Naive,
    /// Multilevel splitting on the failure count, for rare-event
    /// regimes (small `pfail`, wear-out models) where the makespan tail
    /// is driven by cascades that almost no naive run samples. Each
    /// root trajectory pauses just before its `stride`-th,
    /// `2·stride`-th, … failure; at each level the trajectory is cloned
    /// `factor` ways and every clone's weight is divided by `factor`,
    /// so the weighted leaf aggregate per root is an unbiased — and
    /// much smoother — estimate of the root's conditional expectation.
    /// Clones share the pending (already-drawn) event heap, which is
    /// part of the state being conditioned on; their *future* failure
    /// draws come from fresh `seedmix`-derived streams.
    Splitting(SplitConfig),
}

/// Multilevel-splitting parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitConfig {
    /// Clones per level (≥ 2); each passage divides the weight by this.
    pub factor: usize,
    /// Failure-count spacing between levels (≥ 1): level `j` sits just
    /// before failure `j·stride`.
    pub stride: usize,
    /// Maximum number of split levels per root (bounds the tree at
    /// `factor^max_levels` leaves; past the last level trajectories run
    /// to completion).
    pub max_levels: usize,
}

impl Default for SplitConfig {
    fn default() -> Self {
        // Worst-case 2⁶ = 64 leaves per root: strong tail smoothing in
        // rare-event regimes (where almost no root reaches level 1, so
        // the *expected* tree is barely larger than a naive run) while
        // staying bounded if pointed at a failure-dense regime by
        // mistake.
        SplitConfig {
            factor: 2,
            stride: 1,
            max_levels: 6,
        }
    }
}

fn run_seed(base: u64, i: usize) -> u64 {
    seedmix::stream_seed(base, i as u64)
}

/// Monte Carlo over checkpointed (segment-graph) executions under an
/// arbitrary [`FailureModel`]:
/// [`montecarlo_segments_model_abortable`] with an abort that never
/// fires.
pub fn montecarlo_segments_model(
    sg: &SegmentGraph,
    model: &FailureModel,
    cfg: &SimConfig,
) -> McStats {
    montecarlo_segments_model_abortable(sg, model, cfg, &|| false).expect("never aborted")
}

/// Monte Carlo over checkpointed executions with a cooperative abort
/// predicate, polled once per replication (replications are the
/// natural cadence: each costs far more than the poll). Returns `None`
/// if `abort` reported true at any point — a partial aggregate would be
/// silently biased toward the cheap runs, so an exceeded deadline
/// yields *no* estimate, never a wrong one. Whether or not a caller can
/// abort, the estimate is the same: run `i` owns its own `seedmix`
/// stream and result slot (`seedmix::parallel_slots`), and the
/// reduction folds in canonical run order.
///
/// The abort signal is a plain predicate (not an unwind): replication
/// workers run under `seedmix::parallel_slots`, and an unwinding abort
/// would re-raise through the scoped join — the flag keeps the fast
/// path branch-predictable and the shutdown orderly.
pub fn montecarlo_segments_model_abortable(
    sg: &SegmentGraph,
    model: &FailureModel,
    cfg: &SimConfig,
    abort: &(dyn Fn() -> bool + Sync),
) -> Option<McStats> {
    use std::sync::atomic::{AtomicBool, Ordering};
    let aborted = AtomicBool::new(false);
    let runs = seedmix::parallel_slots(cfg.runs, cfg.threads, |i| {
        // Once any worker observes the abort, every remaining claimed
        // run short-circuits to a placeholder; the whole vector is
        // discarded below.
        if aborted.load(Ordering::Relaxed) || abort() {
            aborted.store(true, Ordering::Relaxed);
            return ExecStats::default();
        }
        simulate_segments_model(sg, model, run_seed(cfg.seed, i))
    });
    if aborted.load(Ordering::Relaxed) {
        None
    } else {
        // The canonical fold is the partition-invariance anchor
        // (DESIGN.md §4): worth its own span so traces show reduce vs
        // simulate cost.
        Some(obs::span::timed("mc.reduce", || McStats::from_runs(&runs)).0)
    }
}

/// Monte Carlo over CkptNone executions. Diverged runs (failure budget
/// exhausted) are censored at the budget and reported separately.
///
/// Censoring contract (uniform whether *some* or *all* runs diverge):
///
/// * `stats.mean_makespan`, `stats.stderr`, `stats.runs` cover the
///   **converged** runs only; when every run diverges (the regime where
///   the paper's plots clip CkptNone — reachable under wear-out failure
///   models) they are `f64::INFINITY`, `f64::INFINITY`, and `0`.
/// * `stats.mean_failures` averages over **all** runs, counting each
///   diverged run at its censored failure count (the budget at which it
///   was cut off). This is a *lower bound* on the true mean: a diverged
///   run would have kept failing past the budget.
/// * `stats.mean_wasted` averages over **converged** runs only (0 when
///   none converged): diverged runs do not track wasted time, so
///   including their zeros would silently bias the column down.
/// * With `runs == 0` there is no sample: every statistic is NaN,
///   `stats.runs == 0` and `diverged == 0` (no run was made, so none
///   was censored) — the no-data contract of [`McStats::from_runs`].
pub struct NoneMcStats {
    /// Aggregate over the simulated runs, censored per the contract
    /// above.
    pub stats: McStats,
    /// Number of runs that exceeded the failure budget.
    pub diverged: usize,
    /// Estimated `P(n_failures ≥ tail_at)` (see [`SimConfig::tail_at`]),
    /// averaged over **all** runs — diverged runs enter at their
    /// censored failure count, so they count toward the tail whenever
    /// the budget is at least `tail_at`. NaN when `runs == 0`. Under
    /// the splitting estimator each root contributes its weighted leaf
    /// indicator average, which is unbiased for the same probability.
    pub p_tail: f64,
    /// Standard error of [`Self::p_tail`] (sample stddev across
    /// runs/roots over `√runs`); NaN for fewer than two runs.
    pub p_tail_stderr: f64,
}

/// Sample mean and standard error of one f64 statistic per run, folded
/// in canonical run order (unbiased `n − 1` variance; NaN mean for
/// `n == 0`, NaN stderr for `n < 2`).
fn mean_stderr(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if values.len() < 2 {
        return (mean, f64::NAN);
    }
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

/// The naive estimator as splitting: with zero levels no trajectory
/// ever pauses, so each root is one plain run at weight 1 (`factor` and
/// `stride` are never read).
const NAIVE: SplitConfig = SplitConfig {
    factor: 2,
    stride: 1,
    max_levels: 0,
};

/// Monte Carlo over CkptNone executions under an arbitrary
/// [`FailureModel`]: root `i` owns a [`ModelFailures`] source whose
/// per-processor substreams derive from the run's seed. Both
/// estimators run the one splitting code path; [`Estimator::Naive`] is
/// splitting with zero levels.
pub fn montecarlo_none_model(
    dag: &Dag,
    sched: &Schedule,
    model: &FailureModel,
    cfg: &SimConfig,
) -> NoneMcStats {
    let sc = match cfg.estimator {
        Estimator::Naive => NAIVE,
        Estimator::Splitting(sc) => {
            assert!(sc.factor >= 2, "split factor must be at least 2");
            assert!(sc.stride >= 1, "split stride must be at least 1");
            sc
        }
    };
    // One static-table build per estimate, shared by every run (the
    // CSR maps are read-only; each run clones only the dynamic state).
    let st = NoneStatic::new(dag, sched, true);
    let roots = seedmix::parallel_slots(cfg.runs, cfg.threads, |i| {
        split_root(
            &st,
            model,
            run_seed(cfg.seed, i),
            cfg.max_failures,
            cfg.tail_at,
            &sc,
        )
    });
    aggregate_censored(&roots)
}

/// Weighted leaf aggregate of one splitting root: an unbiased sample of
/// the root's makespan expectation, with the deep cascade branches
/// smoothed by conditional averaging. A zero-level root is one leaf at
/// weight 1, so each sum is exactly that run's value (`0 + 1·x == x`
/// for every `x` but `−0.0`, which no statistic here takes).
struct RootResult {
    makespan: f64,
    failures: f64,
    wasted: f64,
    /// Weighted leaf average of `1[n_failures ≥ tail_at]`.
    p_tail: f64,
    /// True if *any* leaf exhausted the failure budget: the root is
    /// then censored wholesale.
    diverged: bool,
}

fn split_root(
    st: &NoneStatic,
    model: &FailureModel,
    root_seed: u64,
    max_failures: usize,
    tail_at: usize,
    sc: &SplitConfig,
) -> RootResult {
    let mut src = ModelFailures::new(*model, root_seed);
    let state = NoneState::new(st, &mut src);
    let mut acc = RootResult {
        makespan: 0.0,
        failures: 0.0,
        wasted: 0.0,
        p_tail: 0.0,
        diverged: false,
    };
    descend(
        st,
        model,
        max_failures,
        tail_at,
        sc,
        state,
        &mut src,
        1.0,
        0,
        root_seed,
        &mut acc,
    );
    acc
}

/// Depth-first splitting: drive `state` to its next level; on a split,
/// recurse into `factor − 1` fresh-stream clones and then the parent's
/// own continuation, each at `weight / factor`. The recursion order is
/// fixed, so the accumulated sums are a pure function of the root seed.
#[allow(clippy::too_many_arguments)]
fn descend(
    st: &NoneStatic,
    model: &FailureModel,
    max_failures: usize,
    tail_at: usize,
    sc: &SplitConfig,
    mut state: NoneState,
    src: &mut ModelFailures,
    weight: f64,
    level: usize,
    branch_seed: u64,
    acc: &mut RootResult,
) {
    state.next_split = if level < sc.max_levels {
        (level + 1) * sc.stride
    } else {
        0
    };
    match state.run(st, src, max_failures) {
        RunOutcome::Done(s) => {
            acc.makespan += weight * s.makespan;
            acc.failures += weight * s.n_failures as f64;
            acc.wasted += weight * s.wasted_time;
            if s.n_failures >= tail_at {
                acc.p_tail += weight;
            }
        }
        RunOutcome::Diverged(d) => {
            acc.diverged = true;
            acc.failures += weight * d.n_failures as f64;
            if d.n_failures >= tail_at {
                acc.p_tail += weight;
            }
        }
        RunOutcome::Split => {
            let w = weight / sc.factor as f64;
            for c in 1..sc.factor {
                // Clones inherit the pending event heap (already-drawn
                // failures are conditioning state, shared by design) and
                // draw their *future* failures from a fresh avalanche-
                // derived stream, unique per (branch, level, clone).
                let child_seed = seedmix::derive(branch_seed, &[(level + 1) as u64, c as u64]);
                let mut child_src = ModelFailures::new(*model, child_seed);
                descend(
                    st,
                    model,
                    max_failures,
                    tail_at,
                    sc,
                    state.clone(),
                    &mut child_src,
                    w,
                    level + 1,
                    child_seed,
                    acc,
                );
            }
            descend(
                st,
                model,
                max_failures,
                tail_at,
                sc,
                state,
                src,
                w,
                level + 1,
                branch_seed,
                acc,
            );
        }
    }
}

/// Aggregates CkptNone roots under the [`NoneMcStats`] censoring
/// contract: makespan statistics over converged roots, failure counts
/// and the tail probability over all roots (censored counts included),
/// wasted time over converged roots. All folds run in canonical root
/// order.
fn aggregate_censored(roots: &[RootResult]) -> NoneMcStats {
    let conv: Vec<&RootResult> = roots.iter().filter(|r| !r.diverged).collect();
    let diverged = roots.len() - conv.len();
    let (mean_makespan, stderr, mean_wasted) = if conv.is_empty() && diverged > 0 {
        // Censored, not empty: every root ran and hit the failure budget.
        (f64::INFINITY, f64::INFINITY, 0.0)
    } else {
        let makespans: Vec<f64> = conv.iter().map(|r| r.makespan).collect();
        let (mean, stderr) = mean_stderr(&makespans);
        let wasted = conv.iter().map(|r| r.wasted).sum::<f64>() / conv.len() as f64;
        (mean, stderr, wasted)
    };
    let stats = McStats {
        mean_makespan,
        stderr,
        // Censored failure counts enter the average whether some or all
        // roots diverge, so the column's meaning does not flip with the
        // divergence fraction.
        mean_failures: roots.iter().map(|r| r.failures).sum::<f64>() / roots.len() as f64,
        mean_wasted,
        runs: conv.len(),
    };
    let tails: Vec<f64> = roots.iter().map(|r| r.p_tail).collect();
    let (p_tail, p_tail_stderr) = mean_stderr(&tails);
    NoneMcStats {
        stats,
        diverged,
        p_tail,
        p_tail_stderr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_core::{allocate, AllocateConfig, Pipeline, Platform, Strategy};
    use pegasus::{generate, WorkflowClass};

    #[test]
    fn abortable_mc_matches_plain_when_never_aborted_and_yields_none_when_tripped() {
        let w = generate(WorkflowClass::Genome, 30, 4);
        let lambda = ckpt_core::lambda_from_pfail(0.01, w.dag.mean_weight());
        let platform = Platform::new(4, lambda, 1e7);
        let pipe = Pipeline::new(&w, platform, &AllocateConfig::default());
        let sg = pipe.segment_graph(Strategy::CkptSome);
        let model = ckpt_core::FailureModel::exponential(lambda);
        for threads in [1usize, 2, 7] {
            let cfg = SimConfig {
                runs: 200,
                threads,
                ..Default::default()
            };
            let plain = montecarlo_segments_model(&sg, &model, &cfg);
            let live = montecarlo_segments_model_abortable(&sg, &model, &cfg, &|| false)
                .expect("never aborted");
            assert_eq!(
                plain.mean_makespan.to_bits(),
                live.mean_makespan.to_bits(),
                "threads={threads}"
            );
            assert_eq!(plain.stderr.to_bits(), live.stderr.to_bits());
            assert!(
                montecarlo_segments_model_abortable(&sg, &model, &cfg, &|| true).is_none(),
                "an immediately-exhausted budget must yield no estimate"
            );
        }
    }

    #[test]
    fn segment_mc_matches_pathapprox_at_small_pfail() {
        // E5 in miniature: the first-order 2-state model evaluated by
        // PathApprox must agree with the exact renewal simulation within a
        // few standard errors plus the O(λ²) model error.
        let w = generate(WorkflowClass::Genome, 50, 2);
        let lambda = ckpt_core::lambda_from_pfail(0.001, w.dag.mean_weight());
        let platform = Platform::new(5, lambda, 1e7);
        let pipe = Pipeline::new(&w, platform, &AllocateConfig::default());
        let sg = pipe.segment_graph(Strategy::CkptSome);
        let mc = montecarlo_segments_model(
            &sg,
            &pipe.platform.model,
            &SimConfig {
                runs: 4000,
                ..Default::default()
            },
        );
        let pa = pipe
            .assess(Strategy::CkptSome, &probdag::PathApprox::default())
            .expected_makespan;
        let tol = 5.0 * mc.stderr + 0.01 * pa;
        assert!(
            (mc.mean_makespan - pa).abs() < tol,
            "mc {} vs pathapprox {pa} (stderr {})",
            mc.mean_makespan,
            mc.stderr
        );
    }

    #[test]
    fn none_mc_reports_divergence_separately() {
        let w = generate(WorkflowClass::Genome, 50, 4);
        let sched = allocate(&w, 5, &AllocateConfig::default());
        let lambda = ckpt_core::lambda_from_pfail(0.0001, w.dag.mean_weight());
        let r = montecarlo_none_model(
            &w.dag,
            &sched,
            &FailureModel::exponential(lambda),
            &SimConfig {
                runs: 200,
                ..Default::default()
            },
        );
        assert_eq!(r.diverged, 0);
        assert!(r.stats.mean_makespan >= sched.failure_free_parallel_time(&w.dag) - 1e-6);
    }

    #[test]
    fn splitting_estimator_is_unbiased() {
        // In a moderate-failure regime both estimators target the same
        // expectation; the means must agree within combined error bars.
        let w = generate(WorkflowClass::Genome, 50, 4);
        let sched = allocate(&w, 5, &AllocateConfig::default());
        let model = ckpt_core::FailureModel::weibull_from_pfail(2.0, 0.005, w.dag.mean_weight());
        let naive = montecarlo_none_model(
            &w.dag,
            &sched,
            &model,
            &SimConfig {
                runs: 1000,
                seed: 21,
                max_failures: 20_000,
                tail_at: 2,
                ..Default::default()
            },
        );
        let split = montecarlo_none_model(
            &w.dag,
            &sched,
            &model,
            &SimConfig {
                runs: 300,
                seed: 22,
                max_failures: 20_000,
                estimator: Estimator::Splitting(SplitConfig {
                    factor: 2,
                    stride: 1,
                    max_levels: 4,
                }),
                tail_at: 2,
                ..Default::default()
            },
        );
        assert_eq!(naive.diverged, 0);
        assert_eq!(split.diverged, 0);
        let tol = 6.0 * (naive.stats.stderr.hypot(split.stats.stderr));
        assert!(
            (naive.stats.mean_makespan - split.stats.mean_makespan).abs() < tol,
            "naive {} vs split {} (tol {tol})",
            naive.stats.mean_makespan,
            split.stats.mean_makespan
        );
        // Failure counts target the same mean too.
        let ftol = 6.0 * (naive.stats.mean_failures / (1000f64).sqrt()).max(0.05);
        assert!(
            (naive.stats.mean_failures - split.stats.mean_failures).abs() < ftol,
            "naive failures {} vs split {}",
            naive.stats.mean_failures,
            split.stats.mean_failures
        );
        // And the cascade-tail probability: both estimate the same
        // P(failures ≥ 2), within combined error bars.
        let ptol = 6.0 * naive.p_tail_stderr.hypot(split.p_tail_stderr);
        assert!(
            (naive.p_tail - split.p_tail).abs() < ptol,
            "naive p_tail {} vs split {} (tol {ptol})",
            naive.p_tail,
            split.p_tail
        );
    }

    #[test]
    fn splitting_estimator_is_partition_invariant_and_reproducible() {
        let w = generate(WorkflowClass::Genome, 40, 6);
        let sched = allocate(&w, 4, &AllocateConfig::default());
        let model = ckpt_core::FailureModel::weibull_from_pfail(2.0, 0.01, w.dag.mean_weight());
        let cfg = |threads| SimConfig {
            runs: 100,
            seed: 33,
            threads,
            max_failures: 10_000,
            estimator: Estimator::Splitting(SplitConfig {
                factor: 2,
                stride: 1,
                max_levels: 3,
            }),
            tail_at: 2,
        };
        let serial = montecarlo_none_model(&w.dag, &sched, &model, &cfg(1));
        for threads in [2, 3, 7, 16] {
            let r = montecarlo_none_model(&w.dag, &sched, &model, &cfg(threads));
            assert_eq!(
                serial.stats.mean_makespan.to_bits(),
                r.stats.mean_makespan.to_bits(),
                "threads={threads}"
            );
            assert_eq!(serial.stats.stderr.to_bits(), r.stats.stderr.to_bits());
            assert_eq!(
                serial.stats.mean_failures.to_bits(),
                r.stats.mean_failures.to_bits()
            );
            assert_eq!(serial.p_tail.to_bits(), r.p_tail.to_bits());
            assert_eq!(serial.p_tail_stderr.to_bits(), r.p_tail_stderr.to_bits());
            assert_eq!(serial.diverged, r.diverged);
        }
    }

    #[test]
    fn none_mc_survives_total_divergence() {
        // A wear-out model so aggressive nothing ever completes: the
        // aggregate must censor every run instead of panicking.
        let w = generate(WorkflowClass::Genome, 50, 4);
        let sched = allocate(&w, 5, &AllocateConfig::default());
        let model = ckpt_core::FailureModel::weibull(2.0, w.dag.mean_weight() * 1e-3);
        let r = montecarlo_none_model(
            &w.dag,
            &sched,
            &model,
            &SimConfig {
                runs: 5,
                max_failures: 200,
                ..Default::default()
            },
        );
        assert_eq!(r.diverged, 5);
        assert_eq!(r.stats.runs, 0);
        assert!(r.stats.mean_makespan.is_infinite());
    }

    #[test]
    fn deterministic_for_fixed_seed_and_threads() {
        let w = generate(WorkflowClass::Ligo, 50, 5);
        let lambda = ckpt_core::lambda_from_pfail(0.001, w.dag.mean_weight());
        let platform = Platform::new(3, lambda, 1e7);
        let pipe = Pipeline::new(&w, platform, &AllocateConfig::default());
        let sg = pipe.segment_graph(Strategy::CkptAll);
        let cfg = SimConfig {
            runs: 500,
            seed: 11,
            threads: 2,
            max_failures: 1000,
            ..Default::default()
        };
        let a = montecarlo_segments_model(&sg, &pipe.platform.model, &cfg);
        let b = montecarlo_segments_model(&sg, &pipe.platform.model, &cfg);
        assert_eq!(a.mean_makespan, b.mean_makespan);
    }

    #[test]
    fn estimates_are_bit_identical_across_thread_budgets() {
        // The tentpole guarantee: both MC engines are pure functions of
        // (seed, runs) — the thread budget only changes wall-clock.
        let w = generate(WorkflowClass::Genome, 50, 3);
        let lambda = ckpt_core::lambda_from_pfail(0.01, w.dag.mean_weight());
        let platform = Platform::new(5, lambda, 1e7);
        let pipe = Pipeline::new(&w, platform, &AllocateConfig::default());
        let sg = pipe.segment_graph(Strategy::CkptSome);
        let cfg = |threads| SimConfig {
            runs: 200,
            seed: 77,
            threads,
            max_failures: 100_000,
            ..Default::default()
        };
        let model = &pipe.platform.model;
        let seg1 = montecarlo_segments_model(&sg, model, &cfg(1));
        let none1 = montecarlo_none_model(&w.dag, &pipe.schedule, model, &cfg(1));
        for threads in [2, 3, 7, 16] {
            let seg = montecarlo_segments_model(&sg, model, &cfg(threads));
            assert_eq!(seg1.mean_makespan.to_bits(), seg.mean_makespan.to_bits());
            assert_eq!(seg1.stderr.to_bits(), seg.stderr.to_bits());
            assert_eq!(seg1.mean_failures.to_bits(), seg.mean_failures.to_bits());
            assert_eq!(seg1.mean_wasted.to_bits(), seg.mean_wasted.to_bits());
            let none = montecarlo_none_model(&w.dag, &pipe.schedule, model, &cfg(threads));
            assert_eq!(
                none1.stats.mean_makespan.to_bits(),
                none.stats.mean_makespan.to_bits()
            );
            assert_eq!(none1.stats.stderr.to_bits(), none.stats.stderr.to_bits());
            assert_eq!(none1.diverged, none.diverged);
        }
    }

    #[test]
    fn censored_failure_counts_enter_the_mean_in_both_branches() {
        // Partial divergence: mean_failures must include the censored
        // roots' counts (at the budget), matching the all-diverged
        // branch. One-leaf roots, as the naive estimator makes them;
        // with tail_at = 10, only the censored count 50 is in the tail.
        let some = [
            RootResult {
                makespan: 10.0,
                failures: 2.0,
                wasted: 1.0,
                p_tail: 0.0,
                diverged: false,
            },
            RootResult {
                makespan: 0.0,
                failures: 50.0,
                wasted: 0.0,
                p_tail: 1.0,
                diverged: true,
            },
        ];
        let agg = super::aggregate_censored(&some);
        assert_eq!(agg.diverged, 1);
        assert_eq!(agg.stats.runs, 1);
        assert_eq!(agg.stats.mean_makespan, 10.0);
        assert_eq!(agg.stats.mean_failures, 26.0, "censored count included");
        assert_eq!(agg.stats.mean_wasted, 1.0, "converged runs only");
        // The diverged run's censored count (50 ≥ 10) enters the tail.
        assert_eq!(agg.p_tail, 0.5);
        let agg = super::aggregate_censored(&some[1..]);
        assert_eq!(agg.diverged, 1);
        assert_eq!(agg.stats.runs, 0);
        assert!(agg.stats.mean_makespan.is_infinite());
        assert_eq!(agg.stats.mean_failures, 50.0);
        assert_eq!(agg.stats.mean_wasted, 0.0);
    }

    #[test]
    fn zero_runs_report_no_data_not_censoring() {
        // No run made is no run censored: both entry points return the
        // NaN no-data aggregate of `McStats::from_runs`, not the ∞ of an
        // all-diverged estimate.
        let w = generate(WorkflowClass::Genome, 30, 4);
        let lambda = ckpt_core::lambda_from_pfail(0.01, w.dag.mean_weight());
        let pipe = Pipeline::new(
            &w,
            Platform::new(4, lambda, 1e7),
            &AllocateConfig::default(),
        );
        let sg = pipe.segment_graph(Strategy::CkptSome);
        let model = &pipe.platform.model;
        let empty = |estimator| SimConfig {
            runs: 0,
            estimator,
            ..Default::default()
        };
        let seg = montecarlo_segments_model(&sg, model, &empty(Estimator::Naive));
        for r in [
            montecarlo_none_model(&w.dag, &pipe.schedule, model, &empty(Estimator::Naive)),
            montecarlo_none_model(
                &w.dag,
                &pipe.schedule,
                model,
                &empty(Estimator::Splitting(SplitConfig::default())),
            ),
        ] {
            assert_eq!(r.diverged, 0);
            assert!(r.p_tail.is_nan() && r.p_tail_stderr.is_nan());
            for s in [r.stats, seg] {
                assert_eq!(s.runs, 0);
                assert!(s.mean_makespan.is_nan() && s.stderr.is_nan());
                assert!(s.mean_failures.is_nan() && s.mean_wasted.is_nan());
            }
        }
    }
}

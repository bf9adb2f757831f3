//! Simulation of checkpointed executions (CkptAll / CkptSome / ExitOnly).
//!
//! With every superchain checkpointed there are no crossover dependencies:
//! each segment restarts from its own inputs on stable storage, so a
//! segment's wall-clock duration is an independent renewal process —
//! failed attempts (a time-to-failure drawn from the platform's
//! [`FailureModel`] striking before the `R + W + C` span completes)
//! repeat until one attempt survives. Failures during idle waiting are
//! harmless (no state in memory between segments), which makes the
//! renewal sampling *exact* for this execution model, not an
//! approximation — for any model family, since every restart rejuvenates
//! the processor.

use ckpt_core::{FailureModel, SegmentGraph};

use crate::failure::ModelSampler;
use crate::metrics::ExecStats;

/// Simulates one execution under an arbitrary [`FailureModel`]: every
/// attempt of a segment restarts a rejuvenated processor, so each draws
/// a fresh time-to-failure from the model. For non-memoryless models
/// this is exactly the restart/renewal process whose expectation
/// `CostCtx::expected_segment_time` solves by quadrature — the simulator
/// is the ground truth for that numeric path.
///
/// A segment retries until an attempt survives, so under a model whose
/// draws almost never reach some segment's span this does not return;
/// [`crate::montecarlo_segments_model_abortable`] bounds such a run
/// with its abort predicate.
pub fn simulate_segments_model(sg: &SegmentGraph, model: &FailureModel, seed: u64) -> ExecStats {
    simulate_segments_abortable(sg, model, seed, &|| false).expect("never aborted")
}

/// [`simulate_segments_model`] polling `abort` after every failed
/// attempt: `None` once it reports true. The poll draws no randomness,
/// so a run it never stops is bit-identical to the plain one.
pub(crate) fn simulate_segments_abortable(
    sg: &SegmentGraph,
    model: &FailureModel,
    seed: u64,
    abort: &dyn Fn() -> bool,
) -> Option<ExecStats> {
    let mut src = ModelSampler::new(*model, seed);
    let order = sg.pdag.topo_order();
    let mut finish = vec![0.0f64; sg.segments.len()];
    let mut stats = ExecStats::default();
    for v in order {
        let start = sg
            .pdag
            .preds(v)
            .iter()
            .map(|u| finish[u.index()])
            .fold(0.0f64, f64::max);
        let base = sg.segments[v.index()].cost.base();
        let dur = sample_duration(base, &mut src, &mut stats, abort)?;
        finish[v.index()] = start + dur;
        stats.makespan = stats.makespan.max(finish[v.index()]);
    }
    Some(stats)
}

/// Renewal sampling of one segment's wall-clock duration: attempts of span
/// `base` repeat until no failure strikes within the attempt, or until
/// `abort`, polled after each failed one, reports true (`None`).
fn sample_duration(
    base: f64,
    src: &mut ModelSampler,
    stats: &mut ExecStats,
    abort: &dyn Fn() -> bool,
) -> Option<f64> {
    if base == 0.0 {
        return Some(0.0);
    }
    let mut elapsed = 0.0;
    loop {
        let strike = src.sample_ttf();
        if strike >= base {
            return Some(elapsed + base);
        }
        elapsed += strike;
        stats.n_failures += 1;
        stats.n_reexecs += 1;
        stats.wasted_time += strike;
        if abort() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_core::{AllocateConfig, DpOptimalPolicy, Pipeline, Platform};
    use pegasus::{generate, WorkflowClass};

    fn segment_graph(pfail: f64, n_procs: usize) -> SegmentGraph {
        let w = generate(WorkflowClass::Genome, 50, 1);
        let lambda = ckpt_core::lambda_from_pfail(pfail, w.dag.mean_weight());
        let platform = Platform::new(n_procs, lambda, 1e7);
        let pipe = Pipeline::new(&w, platform, &AllocateConfig::default());
        pipe.segment_graph(&DpOptimalPolicy)
    }

    #[test]
    fn zero_failures_reproduce_deterministic_makespan() {
        let sg = segment_graph(0.0, 5);
        let stats = simulate_segments_model(&sg, &FailureModel::exponential(0.0), 1);
        assert_eq!(stats.n_failures, 0);
        assert_eq!(stats.wasted_time, 0.0);
        assert!((stats.makespan - sg.pdag.makespan_low()).abs() < 1e-9);
    }

    #[test]
    fn failures_only_lengthen() {
        let sg = segment_graph(0.01, 5);
        let base = sg.pdag.makespan_low();
        let model = FailureModel::exponential(ckpt_core::lambda_from_pfail(0.01, 50.0));
        for seed in 0..50 {
            let stats = simulate_segments_model(&sg, &model, seed);
            assert!(stats.makespan >= base - 1e-9);
        }
    }

    #[test]
    fn seeded_reproducibility() {
        let sg = segment_graph(0.01, 5);
        let model = FailureModel::exponential(1e-4);
        let a = simulate_segments_model(&sg, &model, 9);
        let b = simulate_segments_model(&sg, &model, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn higher_rate_more_failures_on_average() {
        let sg = segment_graph(0.01, 5);
        let runs = 200;
        let count = |lambda: f64| -> f64 {
            let model = FailureModel::exponential(lambda);
            (0..runs)
                .map(|s| simulate_segments_model(&sg, &model, s).n_failures as f64)
                .sum::<f64>()
                / runs as f64
        };
        let lo = count(1e-6);
        let hi = count(1e-3);
        assert!(hi > lo, "failures: hi {hi} vs lo {lo}");
    }
}

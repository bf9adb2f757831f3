//! Failure injection: model-driven renewal processes and deterministic
//! traces, one independent stream per processor.

use ckpt_core::FailureModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A source of fail-stop failure times, one stream per processor.
///
/// Contract: `next_failure(proc, after)` is only queried at *renewal
/// points* of `proc` — time 0 and the instant of a reboot — so sources
/// backed by a parametric [`FailureModel`] may draw a fresh
/// time-to-failure (the processor is rejuvenated), which reduces to the
/// paper's Poisson process in the exponential case.
pub trait FailureSource {
    /// The next failure on `proc` strictly after time `after`, or
    /// `f64::INFINITY` if the processor never fails again.
    fn next_failure(&mut self, proc: usize, after: f64) -> f64;
}

/// A single-stream sampler of times-to-failure from one [`FailureModel`]
/// (used by the segment simulator, where every attempt is an independent
/// renewal and processor identity carries no state).
///
/// One stream seeded straight from the run seed, one uniform per draw:
/// this layout fixes the segment simulator's bits. [`ModelFailures`]'
/// per-processor substreams would draw different values from the same
/// seed, so the two samplers stay apart.
pub struct ModelSampler {
    model: FailureModel,
    rng: StdRng,
}

impl ModelSampler {
    /// Creates the sampler with the given model and seed.
    pub fn new(model: FailureModel, seed: u64) -> Self {
        ModelSampler {
            model,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws one time-to-failure of a freshly started processor.
    pub fn sample_ttf(&mut self) -> f64 {
        if self.model.never_fails() {
            return f64::INFINITY;
        }
        let u: f64 = self.rng.gen::<f64>().max(f64::MIN_POSITIVE);
        self.model.time_to_failure(u)
    }
}

/// Model-driven failures with an **independent splitmix-derived
/// substream per processor** (`seedmix::substream(seed, proc)`), so the
/// draws a processor sees are a pure function of `(model, seed, proc)` —
/// never of the order in which processors happen to be queried.
///
/// A single stream shared by all processors would make per-processor
/// failure times depend on query interleaving: any change in event
/// ordering (or in another processor's workload) would silently
/// reshuffle everyone's failures. With per-processor substreams,
/// model-driven sources and [`TraceFailures`] are truly interchangeable
/// behind [`FailureSource`]. The paper's exponential process is
/// `ModelFailures::new(FailureModel::exponential(λ), seed)`: memoryless,
/// so each query draws a fresh exponential inter-arrival from `after`.
pub struct ModelFailures {
    model: FailureModel,
    seed: u64,
    streams: Vec<Option<StdRng>>,
}

impl ModelFailures {
    /// Creates the source with the given model and base seed.
    pub fn new(model: FailureModel, seed: u64) -> Self {
        ModelFailures {
            model,
            seed,
            streams: Vec::new(),
        }
    }

    /// The model failures are drawn from.
    pub fn model(&self) -> &FailureModel {
        &self.model
    }

    /// Draws one time-to-failure on `proc`'s own substream.
    pub fn sample_interarrival(&mut self, proc: usize) -> f64 {
        if self.model.never_fails() {
            return f64::INFINITY;
        }
        let model = self.model;
        let rng = self.stream(proc);
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        model.time_to_failure(u)
    }

    fn stream(&mut self, proc: usize) -> &mut StdRng {
        if proc >= self.streams.len() {
            self.streams.resize_with(proc + 1, || None);
        }
        // Mix the substream seed only on first touch of a processor —
        // this runs once per (run, proc), not once per draw (the CkptNone
        // divergence regime draws millions of times per grid cell).
        let slot = &mut self.streams[proc];
        if slot.is_none() {
            *slot = Some(StdRng::seed_from_u64(seedmix::substream(
                self.seed,
                proc as u64,
            )));
        }
        slot.as_mut().expect("just initialized")
    }
}

impl FailureSource for ModelFailures {
    fn next_failure(&mut self, proc: usize, after: f64) -> f64 {
        after + self.sample_interarrival(proc)
    }
}

/// Deterministic failure trace: explicit failure times per processor
/// (used by tests to script crossover-dependency scenarios).
pub struct TraceFailures {
    /// Sorted failure times per processor.
    traces: Vec<Vec<f64>>,
}

impl TraceFailures {
    /// Creates a trace source; each inner vector is sorted ascending.
    pub fn new(mut traces: Vec<Vec<f64>>) -> Self {
        for t in &mut traces {
            t.sort_by(f64::total_cmp);
        }
        TraceFailures { traces }
    }
}

impl FailureSource for TraceFailures {
    fn next_failure(&mut self, proc: usize, after: f64) -> f64 {
        match self.traces.get(proc) {
            Some(ts) => ts
                .iter()
                .copied()
                .find(|&t| t > after)
                .unwrap_or(f64::INFINITY),
            None => f64::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_mean_matches_rate() {
        let mut src = ModelFailures::new(FailureModel::exponential(0.5), 1);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| src.sample_interarrival(0)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn weibull_mean_matches_gamma_moment() {
        // E[Weibull(k=2, η)] = η·Γ(1.5) = η·√π/2.
        let mut src = ModelSampler::new(FailureModel::weibull(2.0, 4.0), 3);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| src.sample_ttf()).sum::<f64>() / n as f64;
        let expect = 4.0 * std::f64::consts::PI.sqrt() / 2.0;
        assert!((mean - expect).abs() < 0.05, "mean {mean} vs {expect}");
    }

    #[test]
    fn lognormal_median_matches_mu() {
        // The LogNormal median is e^μ.
        let mut src = ModelSampler::new(FailureModel::lognormal(2.0, 1.0), 4);
        let n = 100_001;
        let mut xs: Vec<f64> = (0..n).map(|_| src.sample_ttf()).collect();
        xs.sort_by(f64::total_cmp);
        let median = xs[n / 2];
        let expect = 2.0f64.exp();
        assert!(
            (median - expect).abs() < 0.05 * expect,
            "median {median} vs {expect}"
        );
    }

    #[test]
    fn zero_rate_never_fails() {
        let mut src = ModelFailures::new(FailureModel::exponential(0.0), 2);
        assert_eq!(src.next_failure(0, 10.0), f64::INFINITY);
    }

    #[test]
    fn exp_failures_are_seeded() {
        let a: Vec<f64> = {
            let mut s = ModelFailures::new(FailureModel::exponential(1.0), 7);
            (0..10).map(|_| s.sample_interarrival(0)).collect()
        };
        let b: Vec<f64> = {
            let mut s = ModelFailures::new(FailureModel::exponential(1.0), 7);
            (0..10).map(|_| s.sample_interarrival(0)).collect()
        };
        assert_eq!(a, b);
    }

    /// The satellite regression for the shared-stream bug: per-processor
    /// draws must be invariant under any permutation of the query order
    /// across processors.
    #[test]
    fn per_processor_draws_survive_query_reordering() {
        let draws = |order: &[usize]| -> Vec<Vec<f64>> {
            let mut src = ModelFailures::new(FailureModel::exponential(1.0), 7);
            let mut out = vec![Vec::new(); 3];
            for &p in order {
                out[p].push(src.sample_interarrival(p));
            }
            out
        };
        // Same per-processor query counts, maximally different
        // interleavings.
        let a = draws(&[0, 0, 0, 1, 1, 1, 2, 2, 2]);
        let b = draws(&[2, 1, 0, 0, 1, 2, 1, 0, 2]);
        assert_eq!(a, b, "per-proc streams must not depend on interleaving");
        // And the three processors see genuinely distinct streams.
        assert_ne!(a[0], a[1]);
        assert_ne!(a[1], a[2]);
    }

    #[test]
    fn model_failures_reordering_holds_for_all_families() {
        for model in [
            FailureModel::weibull(0.7, 10.0),
            FailureModel::lognormal(1.0, 0.5),
        ] {
            let draws = |order: &[usize]| -> Vec<Vec<f64>> {
                let mut src = ModelFailures::new(model, 11);
                let mut out = vec![Vec::new(); 2];
                for &p in order {
                    out[p].push(src.next_failure(p, 0.0));
                }
                out
            };
            assert_eq!(draws(&[0, 0, 1, 1]), draws(&[1, 0, 1, 0]), "{model:?}");
        }
    }

    /// Behind `&mut dyn FailureSource`, trace-driven and model-driven
    /// sources are interchangeable per processor.
    #[test]
    fn sources_are_interchangeable_behind_the_trait() {
        let mut exp = ModelFailures::new(FailureModel::exponential(0.5), 9);
        let mut trace = TraceFailures::new(vec![vec![5.0, 1.0, 9.0]]);
        let sources: [&mut dyn FailureSource; 2] = [&mut exp, &mut trace];
        for src in sources {
            let t0 = src.next_failure(0, 0.0);
            let t1 = src.next_failure(0, t0);
            assert!(t1 > t0);
            // A processor with no trace / its own substream still answers.
            assert!(src.next_failure(7, 0.0) > 0.0);
        }
    }

    #[test]
    fn trace_returns_next_strictly_after() {
        let mut src = TraceFailures::new(vec![vec![5.0, 1.0, 9.0]]);
        assert_eq!(src.next_failure(0, 0.0), 1.0);
        assert_eq!(src.next_failure(0, 1.0), 5.0);
        assert_eq!(src.next_failure(0, 7.0), 9.0);
        assert_eq!(src.next_failure(0, 9.0), f64::INFINITY);
        assert_eq!(src.next_failure(1, 0.0), f64::INFINITY);
    }
}

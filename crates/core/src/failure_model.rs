//! The failure-distribution subsystem: parametric fail-stop models
//! beyond the paper's exponential assumption.
//!
//! The paper models failures as independent exponential (memoryless)
//! processes of rate `λ` per processor, which is what makes Eq. (2)'s
//! first-order expected segment time a closed form. Related work
//! (Sodre's restart/checkpoint asymptotics; Aupy et al.'s Weibull-class
//! processes) shows the interesting regimes are *non-memoryless*:
//! infant-mortality Weibull (`k < 1`) favors eager checkpointing much
//! more than its exponential-rate equivalent, wear-out Weibull (`k > 1`)
//! and LogNormal much less. [`FailureModel`] opens that axis:
//!
//! * **analytics** — [`FailureModel::expected_restart_time`] solves the
//!   renewal (restart) equation `E[T] = ∫₀^b S(t) dt / S(b)` for any
//!   model, exactly for the exponential and by deterministic Simpson
//!   quadrature otherwise. `CostCtx::expected_segment_time` keeps the
//!   paper's closed-form Eq. (2) path for the exponential case
//!   bit-for-bit and uses the quadrature path for everything else;
//! * **simulation** — [`FailureModel::time_to_failure`] inverts the
//!   survival function from a uniform draw, so every model shares one
//!   uniform stream discipline in `failsim` (and Weibull `k = 1`
//!   reproduces the exponential sampler's arithmetic exactly);
//! * **calibration** — the `*_from_pfail` constructors generalize
//!   `lambda_from_pfail` (§VI-A): each model is pinned so that a task of
//!   the workflow's mean weight fails with probability `pfail`, which
//!   keeps cross-model comparisons honest.
//!
//! Trace-driven failures remain a *simulation-side* concern: they have
//! no parametric survival function for the cost model, so they live
//! behind `failsim::FailureSource` (`TraceFailures`), interchangeable
//! with the model-driven sources per processor.

use probdag::{normal_cdf, normal_quantile};

use crate::pfail::lambda_from_pfail;

/// Simpson panels for the numeric renewal solve (even, fixed — the
/// quadrature must be a pure function of `(model, base)` so results are
/// deterministic and thread-count independent).
const QUAD_PANELS: usize = 128;

/// A parametric fail-stop failure distribution: the time to the first
/// failure of a freshly (re)started processor. Failures form a renewal
/// process — every reboot or checkpoint restart rejuvenates the
/// processor — which reduces to the paper's Poisson process in the
/// exponential case.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FailureModel {
    /// Memoryless failures of rate `lambda` (the paper's model).
    Exponential {
        /// Failure rate (1/s), `≥ 0` (`0` = never fails).
        lambda: f64,
    },
    /// Weibull failures: `S(t) = exp(-(t/scale)^shape)`. `shape < 1`
    /// models infant mortality (decreasing hazard), `shape > 1` wear-out
    /// (increasing hazard), `shape = 1` is exponential with rate
    /// `1/scale`.
    Weibull {
        /// Shape `k > 0`.
        shape: f64,
        /// Scale `η > 0` in seconds (`∞` = never fails).
        scale: f64,
    },
    /// LogNormal failures: `ln(time-to-failure) ~ N(mu, sigma²)`.
    /// Heavy-tailed with a non-monotone hazard; never memoryless.
    LogNormal {
        /// Mean of the log (log-seconds).
        mu: f64,
        /// Standard deviation of the log, `> 0`.
        sigma: f64,
    },
}

impl FailureModel {
    /// Exponential failures of rate `lambda`.
    pub fn exponential(lambda: f64) -> Self {
        assert!(
            lambda >= 0.0 && lambda.is_finite(),
            "exponential rate must be finite and non-negative"
        );
        FailureModel::Exponential { lambda }
    }

    /// Weibull failures with the given shape and scale.
    pub fn weibull(shape: f64, scale: f64) -> Self {
        assert!(
            shape > 0.0 && shape.is_finite(),
            "Weibull shape must be positive and finite"
        );
        assert!(scale > 0.0, "Weibull scale must be positive");
        FailureModel::Weibull { shape, scale }
    }

    /// LogNormal failures with the given log-mean and log-deviation.
    pub fn lognormal(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite(), "LogNormal mu must be finite");
        assert!(
            sigma > 0.0 && sigma.is_finite(),
            "LogNormal sigma must be positive and finite"
        );
        FailureModel::LogNormal { mu, sigma }
    }

    /// The exponential model whose average task of weight `mean_weight`
    /// fails with probability `pfail` (§VI-A's normalization).
    pub fn exponential_from_pfail(pfail: f64, mean_weight: f64) -> Self {
        FailureModel::Exponential {
            lambda: lambda_from_pfail(pfail, mean_weight),
        }
    }

    /// The Weibull model of shape `shape` whose average task fails with
    /// probability `pfail`: `(w̄/scale)^k = -ln(1-pfail)` pins the scale.
    /// `pfail ∈ [0, 1)`; `pfail = 0` yields a never-failing model.
    pub fn weibull_from_pfail(shape: f64, pfail: f64, mean_weight: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&pfail),
            "pfail must be in [0, 1), got {pfail}"
        );
        assert!(
            mean_weight > 0.0 && mean_weight.is_finite(),
            "mean weight must be positive and finite"
        );
        assert!(
            shape > 0.0 && shape.is_finite(),
            "Weibull shape must be positive and finite"
        );
        let h = -(1.0 - pfail).ln();
        let scale = if h == 0.0 {
            f64::INFINITY
        } else {
            mean_weight / h.powf(1.0 / shape)
        };
        FailureModel::Weibull { shape, scale }
    }

    /// The LogNormal model of log-deviation `sigma` whose average task
    /// fails with probability `pfail`: `Φ((ln w̄ - μ)/σ) = pfail` pins
    /// `μ`. `pfail ∈ (0, 1)` strictly (the quantile diverges at 0).
    pub fn lognormal_from_pfail(sigma: f64, pfail: f64, mean_weight: f64) -> Self {
        assert!(
            pfail > 0.0 && pfail < 1.0,
            "LogNormal calibration needs pfail in (0, 1), got {pfail}"
        );
        assert!(
            mean_weight > 0.0 && mean_weight.is_finite(),
            "mean weight must be positive and finite"
        );
        let mu = mean_weight.ln() - sigma * normal_quantile(pfail);
        FailureModel::lognormal(mu, sigma)
    }

    /// Whether this model never produces a failure (rate 0 / scale ∞).
    pub fn never_fails(&self) -> bool {
        match *self {
            FailureModel::Exponential { lambda } => lambda == 0.0,
            FailureModel::Weibull { scale, .. } => scale.is_infinite(),
            FailureModel::LogNormal { .. } => false,
        }
    }

    /// Whether this is the memoryless (exponential) model, for which the
    /// closed-form first-order cost paths apply.
    pub fn is_memoryless(&self) -> bool {
        matches!(self, FailureModel::Exponential { .. })
    }

    /// The exponential rate, if this is the exponential model.
    pub fn exponential_rate(&self) -> Option<f64> {
        match *self {
            FailureModel::Exponential { lambda } => Some(lambda),
            _ => None,
        }
    }

    /// Survival function `S(t) = P(time to failure > t)`.
    pub fn survival(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 1.0;
        }
        match *self {
            FailureModel::Exponential { lambda } => (-lambda * t).exp(),
            FailureModel::Weibull { shape, scale } => (-(t / scale).powf(shape)).exp(),
            FailureModel::LogNormal { mu, sigma } => 1.0 - normal_cdf((t.ln() - mu) / sigma),
        }
    }

    /// Cumulative distribution `F(t) = 1 - S(t)`.
    pub fn cdf(&self, t: f64) -> f64 {
        1.0 - self.survival(t)
    }

    /// Cumulative hazard `H(t) = -ln S(t)`. For the exponential model
    /// this is exactly `λ·t` (the quantity Theorem 1's first-order
    /// estimate is linear in).
    pub fn cumulative_hazard(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        match *self {
            FailureModel::Exponential { lambda } => lambda * t,
            FailureModel::Weibull { shape, scale } => (t / scale).powf(shape),
            FailureModel::LogNormal { .. } => -self.survival(t).ln(),
        }
    }

    /// Inverts the survival function at `u ∈ (0, 1)`: the time to
    /// failure whose survival probability is `u`. Feeding i.i.d. uniform
    /// draws through this is how `failsim` samples every model from one
    /// stream discipline.
    ///
    /// The exponential arm computes `-ln(u)/λ` with exactly the
    /// arithmetic the historical sampler used, and the Weibull arm
    /// special-cases `shape = 1` to `scale · (-ln u)` — so a Weibull
    /// with `scale = 1/λ` representable such that `scale·x == x/λ`
    /// (e.g. a power of two) reproduces the exponential stream
    /// bit-for-bit.
    pub fn time_to_failure(&self, u: f64) -> f64 {
        debug_assert!(u > 0.0 && u <= 1.0, "u must be in (0, 1], got {u}");
        if self.never_fails() {
            return f64::INFINITY;
        }
        match *self {
            FailureModel::Exponential { lambda } => -u.ln() / lambda,
            FailureModel::Weibull { shape, scale } => {
                let t = -u.ln();
                if shape == 1.0 {
                    scale * t
                } else {
                    scale * t.powf(1.0 / shape)
                }
            }
            FailureModel::LogNormal { mu, sigma } => {
                // S(t) = u ⇔ Φ((ln t - μ)/σ) = 1 - u.
                let z = if u == 1.0 {
                    // gen::<f64>() ∈ [0, 1) clamped to (0, 1) never hits
                    // this, but the inversion must stay total.
                    return 0.0;
                } else {
                    normal_quantile(1.0 - u)
                };
                (mu + sigma * z).exp()
            }
        }
    }

    /// Exact expected completion time of a restarted span of length
    /// `base`: attempts repeat from scratch (processor rejuvenated) until
    /// one attempt sees no failure. The renewal solution is
    /// `E[T] = ∫₀^base S(t) dt / S(base)` — closed form
    /// `(e^{λ·base} - 1)/λ` for the exponential model, composite Simpson
    /// quadrature (fixed panel count, deterministic) otherwise.
    ///
    /// Returns `∞` when `S(base)` underflows to zero (a span the model
    /// essentially never completes).
    pub fn expected_restart_time(&self, base: f64) -> f64 {
        self.expected_restart_time_ref(base, QUAD_PANELS)
    }

    /// Reference renewal solve at a chosen Simpson resolution (even
    /// panel count) — used by the `RestartCurve` validation tests to
    /// bound the curve against a finer quadrature than the production
    /// 128-panel path.
    pub fn expected_restart_time_ref(&self, base: f64, panels: usize) -> f64 {
        assert!(
            panels >= 2 && panels.is_multiple_of(2),
            "need an even panel count"
        );
        assert!(base >= 0.0, "span must be non-negative");
        if base == 0.0 {
            return 0.0;
        }
        if self.never_fails() {
            return base;
        }
        if let FailureModel::Exponential { lambda } = *self {
            return (lambda * base).exp_m1() / lambda;
        }
        let integral = simpson_survival(self, base, panels);
        let s_end = self.survival(base);
        if s_end <= 0.0 {
            f64::INFINITY
        } else {
            integral / s_end
        }
    }

    /// Short display name of the family (`exponential` / `weibull` /
    /// `lognormal`).
    pub fn family_name(&self) -> &'static str {
        match self {
            FailureModel::Exponential { .. } => "exponential",
            FailureModel::Weibull { .. } => "weibull",
            FailureModel::LogNormal { .. } => "lognormal",
        }
    }
}

/// Log-spaced grid density of a [`RestartCurve`] (points per decade of
/// span). 256 keeps the interpolation error well under
/// [`RestartCurve::REL_TOL`] for every supported family (the binding
/// constraint is the LogNormal's log-log hazard curvature; the Weibull
/// hazard is *exactly* log-log linear, so its survival interpolation is
/// error-free).
const CURVE_POINTS_PER_DECADE: f64 = 256.0;

/// Hard cap on curve grid points (a curve spanning more decades than
/// this allows falls back to direct quadrature outside its range).
const CURVE_MAX_POINTS: usize = 1 << 16;

/// Precomputed renewal curve of a **non-memoryless** [`FailureModel`]:
/// answers [`RestartCurve::expected_restart_time`] queries by monotone
/// interpolation on a fixed log-spaced grid instead of re-running the
/// 128-panel Simpson quadrature per query (~4 transcendental evaluations
/// per query instead of 129).
///
/// The restart literature (Sodre, arXiv:1802.07455) treats
/// `E[T(b)] = ∫₀^b S / S(b)` as a smooth monotone curve of the span `b`
/// — exactly the object to tabulate once per model. The curve stores, at
/// grid abscissae `t_j` covering `[b_lo, b_hi]`:
///
/// * the survival `S(t_j)` at each abscissa;
/// * the survival prefix integral `I(t_j) = ∫₀^{t_j} S`, accumulated by
///   per-cell Simpson at build time.
///
/// A query `E(b) = I(b) / S(b)` evaluates `S(b)` **exactly** (one
/// survival call) and completes the prefix integral with a trapezoid
/// over the sub-cell tail `[t_j, b]` between the stored `S(t_j)` and the
/// exact `S(b)` — so the only approximation is the tail trapezoid, whose
/// relative error is `O((Δln t)³)` and far below the documented bound.
///
/// ## Determinism and error contract
///
/// The curve is a pure function of `(model, b_lo, b_hi)` — no query
/// adapts it — so any two curves built from the same inputs answer every
/// query bit-identically, independent of thread count or query order.
/// Queries **outside** `[b_lo, b_hi]` fall back to the direct
/// [`FailureModel::expected_restart_time`] quadrature (bit-identical to
/// the uncached path). Queries inside the range satisfy two bounds,
/// property-tested across all families and span decades in
/// `crates/core/tests/proptests.rs`:
///
/// * |curve(b) − simpson₁₂₈(b)| ≤ [`RestartCurve::REL_TOL`] ·
///   simpson₁₂₈(b) against the production 128-panel Simpson solve. The
///   bound is loose because at spans far beyond the model's mass scale
///   the *reference* goes coarse (its uniform `b/128` step underresolves
///   a survival integrand concentrated near 0) while the curve's
///   log-spaced cells do not — the curve is the more accurate of the
///   two there;
/// * |curve(b) − simpson₄₀₉₆(b)| ≤ [`RestartCurve::REL_TOL_REF`] ·
///   simpson₄₀₉₆(b) against a 32×-finer reference
///   ([`FailureModel::expected_restart_time_ref`]), which bounds the
///   curve's true error.
///
/// Exponential models never build or consult a curve:
/// `CostCtx::expected_segment_time` short-circuits to the paper's closed
/// form first, which is what keeps the E1–E8 CSV outputs bit-for-bit
/// stable.
#[derive(Clone, Debug)]
pub struct RestartCurve {
    model: FailureModel,
    /// Grid abscissae (log-spaced, ascending).
    ts: Vec<f64>,
    /// Survival at each abscissa.
    sv: Vec<f64>,
    /// Prefix integral `∫₀^{t_j} S`.
    integral: Vec<f64>,
    ln_t0: f64,
    /// `1 / ln r` where `r` is the grid ratio (for O(1) cell lookup).
    inv_ln_r: f64,
}

impl RestartCurve {
    /// Documented relative-error bound of in-range queries against the
    /// production 128-panel Simpson renewal solve (loose only where the
    /// reference itself is coarse — see the type docs).
    pub const REL_TOL: f64 = 2e-2;

    /// Documented relative-error bound of in-range queries against the
    /// 4096-panel reference solve (the curve's true accuracy).
    pub const REL_TOL_REF: f64 = 2e-5;

    /// Builds the curve for spans in `[b_lo, b_hi]`.
    ///
    /// # Panics
    /// Panics for memoryless or never-failing models (which have closed
    /// forms and must not pay for a curve) and for non-positive or
    /// non-finite range endpoints.
    pub fn build(model: FailureModel, b_lo: f64, b_hi: f64) -> Self {
        assert!(
            !model.is_memoryless(),
            "exponential models keep their closed form; no curve"
        );
        assert!(!model.never_fails(), "never-failing models need no curve");
        assert!(
            b_lo > 0.0 && b_hi >= b_lo && b_hi.is_finite(),
            "bad span range [{b_lo}, {b_hi}]"
        );
        let decades = (b_hi / b_lo).log10().max(0.0);
        let cells =
            ((decades * CURVE_POINTS_PER_DECADE).ceil() as usize + 1).clamp(2, CURVE_MAX_POINTS);
        let ln_t0 = b_lo.ln();
        let ln_r = (b_hi.ln() - ln_t0) / cells as f64;
        let n = cells + 1;
        let mut ts = Vec::with_capacity(n);
        for j in 0..n {
            // exp is monotone, so the grid is strictly ascending; pin the
            // endpoints so in-range queries never fall out by rounding.
            let t = match j {
                0 => b_lo,
                _ if j == n - 1 => b_hi,
                _ => (ln_t0 + j as f64 * ln_r).exp(),
            };
            ts.push(t);
        }
        let sv: Vec<f64> = ts.iter().map(|&t| model.survival(t)).collect();
        // Head integral ∫₀^{t_0} S by the same fixed-panel Simpson the
        // direct path uses, then one 2-point Simpson per cell.
        let mut integral = Vec::with_capacity(n);
        integral.push(simpson_survival(&model, ts[0], QUAD_PANELS));
        for j in 1..n {
            let (a, b) = (ts[j - 1], ts[j]);
            let mid = model.survival(0.5 * (a + b));
            let cell = (b - a) / 6.0 * (sv[j - 1] + 4.0 * mid + sv[j]);
            integral.push(integral[j - 1] + cell);
        }
        RestartCurve {
            model,
            ts,
            sv,
            integral,
            ln_t0,
            inv_ln_r: if ln_r > 0.0 { 1.0 / ln_r } else { 0.0 },
        }
    }

    /// The model this curve tabulates.
    pub fn model(&self) -> &FailureModel {
        &self.model
    }

    /// The span range `[b_lo, b_hi]` answered from the table (queries
    /// outside fall back to direct quadrature).
    pub fn span_range(&self) -> (f64, f64) {
        (self.ts[0], *self.ts.last().unwrap())
    }

    /// Expected completion time of a restarted span of length `base` —
    /// the cached equivalent of [`FailureModel::expected_restart_time`],
    /// within [`RestartCurve::REL_TOL`] of it for in-range spans and
    /// bit-identical to it outside the range.
    pub fn expected_restart_time(&self, base: f64) -> f64 {
        // Same domain contract as the direct path: a negative or NaN
        // span is an upstream bug and must fail at the fault site, not
        // flow through the DP as NaN.
        assert!(base >= 0.0, "span must be non-negative");
        if base == 0.0 {
            return 0.0;
        }
        let n = self.ts.len();
        if base < self.ts[0] || base > self.ts[n - 1] {
            return self.model.expected_restart_time(base);
        }
        // O(1) cell lookup; clamp and nudge against float slop so
        // ts[j] <= base <= ts[j+1].
        let mut j = (((base.ln() - self.ln_t0) * self.inv_ln_r) as usize).min(n - 2);
        while j > 0 && base < self.ts[j] {
            j -= 1;
        }
        while j + 2 < n && base > self.ts[j + 1] {
            j += 1;
        }
        let s_b = self.model.survival(base);
        if s_b <= 0.0 {
            return f64::INFINITY;
        }
        // Prefix integral up to ts[j] plus the trapezoid tail.
        let tail = (base - self.ts[j]) * 0.5 * (self.sv[j] + s_b);
        (self.integral[j] + tail) / s_b
    }
}

/// The direct path's composite Simpson `∫₀^b S` (the head integral of a
/// curve shares the direct quadrature's arithmetic).
fn simpson_survival(model: &FailureModel, b: f64, n: usize) -> f64 {
    let h = b / n as f64;
    let mut acc = model.survival(0.0) + model.survival(b);
    for i in 1..n {
        let w = if i % 2 == 1 { 4.0 } else { 2.0 };
        acc += w * model.survival(i as f64 * h);
    }
    acc * h / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pfail::pfail_from_lambda;

    #[test]
    fn survival_is_monotone_and_bounded() {
        let models = [
            FailureModel::exponential(0.3),
            FailureModel::weibull(0.7, 5.0),
            FailureModel::weibull(2.0, 5.0),
            FailureModel::lognormal(1.0, 0.8),
        ];
        for m in models {
            let mut prev = 1.0;
            assert_eq!(m.survival(0.0), 1.0);
            for i in 1..50 {
                let s = m.survival(i as f64 * 0.5);
                assert!(s <= prev + 1e-12 && (0.0..=1.0).contains(&s), "{m:?}");
                prev = s;
            }
        }
    }

    #[test]
    fn cumulative_hazard_matches_survival() {
        for m in [
            FailureModel::exponential(0.2),
            FailureModel::weibull(1.5, 3.0),
            FailureModel::lognormal(0.5, 1.0),
        ] {
            for t in [0.1, 1.0, 4.0] {
                let h = m.cumulative_hazard(t);
                assert!(((-h).exp() - m.survival(t)).abs() < 1e-9, "{m:?} at t={t}");
            }
        }
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        let lambda = 0.25;
        let w = FailureModel::weibull(1.0, 1.0 / lambda);
        let e = FailureModel::exponential(lambda);
        for t in [0.0, 0.5, 2.0, 10.0] {
            assert!((w.survival(t) - e.survival(t)).abs() < 1e-12);
        }
        // Power-of-two scale: the samplers agree bit-for-bit.
        for u in [0.9, 0.5, 1e-3] {
            assert_eq!(
                w.time_to_failure(u).to_bits(),
                e.time_to_failure(u).to_bits()
            );
        }
    }

    #[test]
    fn time_to_failure_inverts_survival() {
        for m in [
            FailureModel::exponential(0.7),
            FailureModel::weibull(0.8, 2.0),
            FailureModel::weibull(2.5, 2.0),
            FailureModel::lognormal(0.3, 1.2),
        ] {
            for u in [0.95, 0.5, 0.05, 1e-3] {
                let t = m.time_to_failure(u);
                assert!(
                    (m.survival(t) - u).abs() < 1e-6,
                    "{m:?}: S({t}) = {} vs {u}",
                    m.survival(t)
                );
            }
        }
    }

    #[test]
    fn pfail_calibration_hits_the_mean_weight() {
        let w_bar = 37.0;
        for pfail in [0.01, 0.001] {
            let models = [
                FailureModel::exponential_from_pfail(pfail, w_bar),
                FailureModel::weibull_from_pfail(0.7, pfail, w_bar),
                FailureModel::weibull_from_pfail(2.0, pfail, w_bar),
                FailureModel::lognormal_from_pfail(1.0, pfail, w_bar),
            ];
            for m in models {
                // The LogNormal roundtrip is bounded by the A&S normal
                // CDF's 1.5e-7 absolute error, not the calibration's.
                assert!(
                    (m.cdf(w_bar) - pfail).abs() < 3e-7,
                    "{m:?}: F(w̄) = {} vs {pfail}",
                    m.cdf(w_bar)
                );
            }
        }
    }

    #[test]
    fn exponential_calibration_matches_pfail_roundtrip() {
        let m = FailureModel::exponential_from_pfail(0.01, 12.0);
        let lambda = m.exponential_rate().unwrap();
        assert!((pfail_from_lambda(lambda, 12.0) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn zero_pfail_weibull_never_fails() {
        let m = FailureModel::weibull_from_pfail(1.5, 0.0, 10.0);
        assert!(m.never_fails());
        assert_eq!(m.survival(1e12), 1.0);
        assert_eq!(m.time_to_failure(0.5), f64::INFINITY);
        assert_eq!(m.expected_restart_time(42.0), 42.0);
    }

    #[test]
    fn restart_time_exponential_closed_form() {
        let m = FailureModel::exponential(0.1);
        let b = 3.0;
        let exact = ((0.1f64 * b).exp() - 1.0) / 0.1;
        assert!((m.expected_restart_time(b) - exact).abs() < 1e-12);
        // First order in λ·b: b + λb²/2.
        let tiny = FailureModel::exponential(1e-5);
        let e = tiny.expected_restart_time(100.0);
        assert!((e - (100.0 + 0.5 * 1e-5 * 100.0 * 100.0)).abs() < 1e-4);
    }

    #[test]
    fn quadrature_matches_exponential_closed_form() {
        // Route an exponential through the Weibull k=1 quadrature... k=1
        // short-circuits nothing in expected_restart_time (only the
        // Exponential variant does), so Weibull(1, 1/λ) exercises Simpson
        // against the closed form.
        let lambda = 0.05;
        let w = FailureModel::weibull(1.0, 1.0 / lambda);
        let e = FailureModel::exponential(lambda);
        for b in [0.5, 5.0, 20.0] {
            let num = w.expected_restart_time(b);
            let exact = e.expected_restart_time(b);
            assert!(
                (num - exact).abs() < 1e-8 * exact,
                "b={b}: {num} vs {exact}"
            );
        }
    }

    #[test]
    fn restart_time_exceeds_base_and_grows_with_hazard() {
        for m in [
            FailureModel::weibull(0.7, 50.0),
            FailureModel::weibull(2.0, 50.0),
            FailureModel::lognormal(4.0, 1.0),
        ] {
            let short = m.expected_restart_time(1.0);
            let long = m.expected_restart_time(10.0);
            assert!(short >= 1.0 && long >= 10.0, "{m:?}");
            assert!(long > short);
        }
    }

    #[test]
    fn infant_mortality_penalizes_restarts_more_than_wear_out() {
        // Same calibrated pfail: k < 1 concentrates failures early, so a
        // span longer than the mean weight restarts *less* often than
        // under k > 1 (whose hazard keeps climbing).
        let w_bar = 10.0;
        let infant = FailureModel::weibull_from_pfail(0.7, 0.01, w_bar);
        let wearout = FailureModel::weibull_from_pfail(2.0, 0.01, w_bar);
        let b = 8.0 * w_bar;
        assert!(infant.expected_restart_time(b) < wearout.expected_restart_time(b));
    }

    #[test]
    #[should_panic(expected = "pfail must be in [0, 1)")]
    fn weibull_from_pfail_rejects_one() {
        FailureModel::weibull_from_pfail(1.0, 1.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "needs pfail in (0, 1)")]
    fn lognormal_from_pfail_rejects_zero() {
        FailureModel::lognormal_from_pfail(1.0, 0.0, 10.0);
    }

    #[test]
    fn curve_matches_direct_simpson_within_tolerance() {
        let w_bar = 10.0;
        let models = [
            FailureModel::weibull_from_pfail(0.7, 0.01, w_bar),
            FailureModel::weibull_from_pfail(2.0, 0.01, w_bar),
            FailureModel::weibull_from_pfail(1.0, 0.001, w_bar),
            FailureModel::lognormal_from_pfail(1.0, 0.01, w_bar),
            FailureModel::lognormal_from_pfail(0.5, 0.001, w_bar),
        ];
        for m in models {
            let curve = RestartCurve::build(m, w_bar * 1e-3, w_bar * 1e3);
            // Sweep spans across the six covered decades, off-grid.
            for e in -29..=29 {
                let b = w_bar * 10f64.powf(e as f64 / 10.0 + 0.037);
                let direct = m.expected_restart_time(b);
                let fine = m.expected_restart_time_ref(b, 4096);
                let cached = curve.expected_restart_time(b);
                if direct.is_infinite() {
                    assert!(cached.is_infinite(), "{m:?} at b={b}");
                    continue;
                }
                assert!(
                    (cached - direct).abs() <= RestartCurve::REL_TOL * direct,
                    "{m:?} at b={b}: cached {cached} vs direct {direct} \
                     (rel {})",
                    (cached - direct).abs() / direct
                );
                assert!(
                    (cached - fine).abs() <= RestartCurve::REL_TOL_REF * fine,
                    "{m:?} at b={b}: cached {cached} vs fine {fine} \
                     (rel {})",
                    (cached - fine).abs() / fine
                );
            }
        }
    }

    #[test]
    fn curve_out_of_range_is_bitwise_direct() {
        let m = FailureModel::weibull(1.3, 25.0);
        let curve = RestartCurve::build(m, 1.0, 100.0);
        for b in [0.01, 0.5, 150.0, 1e4] {
            assert_eq!(
                curve.expected_restart_time(b).to_bits(),
                m.expected_restart_time(b).to_bits(),
                "out-of-range span {b} must take the direct path"
            );
        }
        assert_eq!(curve.expected_restart_time(0.0), 0.0);
    }

    #[test]
    fn curve_is_monotone_in_span() {
        for m in [
            FailureModel::weibull(0.7, 40.0),
            FailureModel::weibull(2.0, 40.0),
            FailureModel::lognormal(3.0, 1.0),
        ] {
            let curve = RestartCurve::build(m, 0.1, 1000.0);
            let mut prev = 0.0;
            for i in 1..400 {
                let b = 0.1 * (1000.0f64 / 0.1).powf(i as f64 / 400.0);
                let e = curve.expected_restart_time(b);
                assert!(e >= prev, "{m:?}: E({b}) = {e} < {prev}");
                prev = e;
            }
        }
    }

    #[test]
    fn curve_degenerate_range_still_answers() {
        let m = FailureModel::weibull(2.0, 40.0);
        let curve = RestartCurve::build(m, 5.0, 5.0);
        let direct = m.expected_restart_time(5.0);
        let cached = curve.expected_restart_time(5.0);
        assert!((cached - direct).abs() <= RestartCurve::REL_TOL * direct);
    }

    #[test]
    #[should_panic(expected = "no curve")]
    fn curve_rejects_exponential() {
        RestartCurve::build(FailureModel::exponential(0.1), 1.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "need no curve")]
    fn curve_rejects_never_failing() {
        RestartCurve::build(FailureModel::weibull_from_pfail(2.0, 0.0, 1.0), 1.0, 10.0);
    }

    #[test]
    fn family_names() {
        assert_eq!(FailureModel::exponential(0.0).family_name(), "exponential");
        assert_eq!(FailureModel::weibull(2.0, 1.0).family_name(), "weibull");
        assert_eq!(FailureModel::lognormal(0.0, 1.0).family_name(), "lognormal");
    }
}

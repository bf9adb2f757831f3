//! Finite discrete distributions with exact convolution and independent
//! maximum — the arithmetic behind Dodin-style evaluation and the exact
//! oracle.

/// A finite discrete probability distribution.
///
/// Support points are kept sorted by value with strictly positive
/// probabilities summing to 1 (up to floating-point roundoff); duplicate
/// values are merged on construction.
#[derive(Clone, Debug, PartialEq)]
pub struct Discrete {
    /// `(value, probability)` pairs, sorted by value.
    points: Vec<(f64, f64)>,
}

impl Discrete {
    /// The distribution concentrated on `v`.
    pub fn certain(v: f64) -> Self {
        assert!(v.is_finite());
        Discrete {
            points: vec![(v, 1.0)],
        }
    }

    /// The paper's 2-state distribution: `low` with probability
    /// `1 - p_high`, `high` with probability `p_high`.
    pub fn two_state(low: f64, high: f64, p_high: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_high),
            "p_high must be a probability"
        );
        assert!(low.is_finite() && high.is_finite());
        if p_high == 0.0 {
            Discrete::certain(low)
        } else if p_high == 1.0 {
            Discrete::certain(high)
        } else {
            let mut pts = vec![(low, 1.0 - p_high), (high, p_high)];
            pts.sort_by(|a, b| a.0.total_cmp(&b.0));
            Discrete::from_points(pts)
        }
    }

    /// Builds from arbitrary `(value, prob)` pairs: sorts, merges duplicate
    /// values, drops zero-probability points, and renormalizes.
    pub fn from_points(mut pts: Vec<(f64, f64)>) -> Self {
        assert!(!pts.is_empty(), "empty support");
        pts.retain(|&(_, p)| p > 0.0);
        assert!(!pts.is_empty(), "all probabilities were zero");
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut merged: Vec<(f64, f64)> = Vec::with_capacity(pts.len());
        for (v, p) in pts {
            match merged.last_mut() {
                Some((lv, lp)) if *lv == v => *lp += p,
                _ => merged.push((v, p)),
            }
        }
        let total: f64 = merged.iter().map(|&(_, p)| p).sum();
        debug_assert!(total > 0.0);
        for (_, p) in &mut merged {
            *p /= total;
        }
        Discrete { points: merged }
    }

    /// The support as `(value, probability)` pairs, sorted by value.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of support points.
    pub fn support_len(&self) -> usize {
        self.points.len()
    }

    /// Expected value.
    pub fn mean(&self) -> f64 {
        self.points.iter().map(|&(v, p)| v * p).sum()
    }

    /// Variance.
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        self.points
            .iter()
            .map(|&(v, p)| p * (v - m) * (v - m))
            .sum()
    }

    /// `P[X <= x]`.
    pub fn cdf(&self, x: f64) -> f64 {
        self.points
            .iter()
            .take_while(|&&(v, _)| v <= x)
            .map(|&(_, p)| p)
            .sum()
    }

    /// Distribution of `X + Y` for independent `X`, `Y`.
    pub fn convolve(&self, other: &Discrete) -> Discrete {
        let mut pts = Vec::with_capacity(self.points.len() * other.points.len());
        for &(v1, p1) in &self.points {
            for &(v2, p2) in &other.points {
                pts.push((v1 + v2, p1 * p2));
            }
        }
        Discrete::from_points(pts)
    }

    /// Distribution of `max(X, Y)` for independent `X`, `Y`.
    ///
    /// Computed from the product of CDFs: walking the merged support,
    /// `P[max = v] = F_X(v)·F_Y(v) - F_X(v⁻)·F_Y(v⁻)`.
    pub fn max(&self, other: &Discrete) -> Discrete {
        let mut values: Vec<f64> = self
            .points
            .iter()
            .chain(other.points.iter())
            .map(|&(v, _)| v)
            .collect();
        values.sort_by(f64::total_cmp);
        values.dedup();
        let mut pts = Vec::with_capacity(values.len());
        let mut prev = 0.0f64;
        let (mut fx, mut fy) = (0.0f64, 0.0f64);
        let (mut ix, mut iy) = (0usize, 0usize);
        for &v in &values {
            while ix < self.points.len() && self.points[ix].0 <= v {
                fx += self.points[ix].1;
                ix += 1;
            }
            while iy < other.points.len() && other.points[iy].0 <= v {
                fy += other.points[iy].1;
                iy += 1;
            }
            let cum = fx * fy;
            let mass = cum - prev;
            if mass > 0.0 {
                pts.push((v, mass));
            }
            prev = cum;
        }
        Discrete::from_points(pts)
    }

    /// Reduces the support to at most `max_points` by repeatedly merging
    /// the pair of adjacent points with the smallest value gap into their
    /// probability-weighted mean. Preserves the mean exactly; variance
    /// shrinks (merging is a mean-preserving contraction).
    pub fn compress(&mut self, max_points: usize) {
        assert!(max_points >= 1);
        while self.points.len() > max_points {
            // Find the adjacent pair with the smallest gap.
            let mut best = 0;
            let mut best_gap = f64::INFINITY;
            for i in 0..self.points.len() - 1 {
                let gap = self.points[i + 1].0 - self.points[i].0;
                if gap < best_gap {
                    best_gap = gap;
                    best = i;
                }
            }
            let (v1, p1) = self.points[best];
            let (v2, p2) = self.points[best + 1];
            let p = p1 + p2;
            let v = (v1 * p1 + v2 * p2) / p;
            self.points[best] = (v, p);
            self.points.remove(best + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn certain_basics() {
        let d = Discrete::certain(5.0);
        assert_eq!(d.mean(), 5.0);
        assert_eq!(d.variance(), 0.0);
        assert_eq!(d.support_len(), 1);
    }

    #[test]
    fn two_state_mean() {
        let d = Discrete::two_state(10.0, 15.0, 0.2);
        assert!(close(d.mean(), 0.8 * 10.0 + 0.2 * 15.0));
        assert!(close(d.variance(), 0.8 * 0.2 * 25.0)); // p(1-p)(Δ)²
    }

    #[test]
    fn two_state_degenerate() {
        assert_eq!(Discrete::two_state(1.0, 2.0, 0.0), Discrete::certain(1.0));
        assert_eq!(Discrete::two_state(1.0, 2.0, 1.0), Discrete::certain(2.0));
    }

    #[test]
    fn from_points_merges_duplicates() {
        let d = Discrete::from_points(vec![(1.0, 0.25), (1.0, 0.25), (2.0, 0.5)]);
        assert_eq!(d.support_len(), 2);
        assert!(close(d.cdf(1.0), 0.5));
    }

    #[test]
    fn convolve_means_add() {
        let a = Discrete::two_state(1.0, 2.0, 0.3);
        let b = Discrete::two_state(10.0, 30.0, 0.1);
        let c = a.convolve(&b);
        assert!(close(c.mean(), a.mean() + b.mean()));
        assert!(close(c.variance(), a.variance() + b.variance()));
        assert_eq!(c.support_len(), 4);
    }

    #[test]
    fn max_of_independent_two_states() {
        // X ∈ {1, 4} p=0.5; Y ∈ {2, 3} p=0.5.
        // max: P[1]=0 (Y≥2); P[2]=P[X=1]P[Y=2]=0.25; P[3]=P[X=1]P[Y=3]=0.25;
        // P[4]=P[X=4]=0.5.
        let x = Discrete::two_state(1.0, 4.0, 0.5);
        let y = Discrete::two_state(2.0, 3.0, 0.5);
        let m = x.max(&y);
        assert_eq!(m.points(), &[(2.0, 0.25), (3.0, 0.25), (4.0, 0.5)]);
    }

    #[test]
    fn max_mean_dominates() {
        let a = Discrete::two_state(1.0, 5.0, 0.4);
        let b = Discrete::two_state(2.0, 4.0, 0.3);
        let m = a.max(&b);
        assert!(m.mean() >= a.mean() - 1e-12);
        assert!(m.mean() >= b.mean() - 1e-12);
        assert_eq!(m.points().last().map(|&(v, _)| v), Some(5.0));
    }

    #[test]
    fn max_with_certain_is_clamp() {
        let a = Discrete::two_state(1.0, 3.0, 0.5);
        let c = Discrete::certain(2.0);
        let m = a.max(&c);
        assert_eq!(m.points(), &[(2.0, 0.5), (3.0, 0.5)]);
    }

    #[test]
    fn compress_preserves_mean_and_mass() {
        let mut d = Discrete::from_points((0..50).map(|i| (i as f64, 1.0 / 50.0)).collect());
        let mean = d.mean();
        d.compress(8);
        assert_eq!(d.support_len(), 8);
        let mass: f64 = d.points().iter().map(|&(_, p)| p).sum();
        assert!(close(mass, 1.0));
        assert!(close(d.mean(), mean));
    }

    #[test]
    fn compress_noop_when_small() {
        let mut d = Discrete::two_state(1.0, 2.0, 0.5);
        d.compress(10);
        assert_eq!(d.support_len(), 2);
    }

    #[test]
    fn cdf_steps() {
        let d = Discrete::two_state(1.0, 2.0, 0.25);
        assert_eq!(d.cdf(0.5), 0.0);
        assert!(close(d.cdf(1.0), 0.75));
        assert!(close(d.cdf(1.5), 0.75));
        assert!(close(d.cdf(2.0), 1.0));
    }
}

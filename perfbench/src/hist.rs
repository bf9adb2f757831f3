//! Fixed-memory latency histograms with log-linear buckets.
//!
//! A histogram's memory does not grow with the op count, so the
//! benchmark's own buffers stay out of `peak_rss_mb` however many ops a
//! run times. 128 sub-buckets per octave bound a bucket's
//! width to 1/128 of its value, and a quantile interpolates inside its
//! bucket, so two runs never read the same number merely because their
//! quantile fell in the same bucket.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Octaves above the linear range, enough for any `u64` nanoseconds.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// The fewest samples a reported percentile must have beyond it.
pub const MIN_BEYOND: u64 = 10;

/// Ops per latency window: the fewest whose p99 has [`MIN_BEYOND`]
/// samples beyond it. On a shared VM, interference from other tenants
/// comes in bursts of about a tenth of a second. A burst can hold 1% of
/// a run's ops and set a whole-run p99, which then moved by up to 90%
/// (first visit) from run to run while most windows read the same. The reported p99 is the median of the windows' p99s, so a tail
/// that lands in fewer than half the windows does not move it; the log
/// prints the whole-run p99 beside it.
pub const WINDOW_OPS: usize = 100 * MIN_BEYOND as usize;

pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

fn index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = (v >> shift) as usize - SUB;
    ((shift as usize + 1) << SUB_BITS) | sub
}

/// `(lowest value, width)` of bucket `i`.
fn bucket(i: usize) -> (f64, f64) {
    if i < SUB {
        return (i as f64, 1.0);
    }
    let shift = (i >> SUB_BITS) - 1;
    let sub = i & (SUB - 1);
    (
        ((SUB + sub) as f64) * (1u64 << shift) as f64,
        (1u64 << shift) as f64,
    )
}

impl Hist {
    pub fn new() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }

    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// 1-based rank of quantile `q`, and how many samples lie beyond it.
    fn rank(&self, q: f64) -> (u64, u64) {
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n.max(1));
        (rank, self.n.saturating_sub(rank))
    }

    /// The `q`-quantile, or `None` when fewer than [`MIN_BEYOND`]
    /// samples lie beyond it: such a percentile rests on a handful of
    /// samples and must not be printed.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let (rank, beyond) = self.rank(q);
        if self.n == 0 || beyond < MIN_BEYOND {
            return None;
        }
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && below + c >= rank {
                let (lo, width) = bucket(i);
                let pos = (rank - below) as f64 - 0.5;
                return Some(lo + width * pos / c as f64);
            }
            below += c;
        }
        unreachable!("rank {rank} is within the {} recorded samples", self.n)
    }
}

/// A timed phase's per-op latencies: the whole phase's histogram, and
/// the exact p99 of each full window of [`WINDOW_OPS`] consecutive ops.
pub struct Latencies {
    all: Hist,
    window: Vec<u64>,
    window_p99s: Vec<u64>,
}

impl Latencies {
    pub fn new() -> Self {
        Latencies {
            all: Hist::new(),
            window: Vec::with_capacity(WINDOW_OPS),
            window_p99s: Vec::new(),
        }
    }

    pub fn record(&mut self, ns: u64) {
        self.all.record(ns);
        self.window.push(ns);
        if self.window.len() == WINDOW_OPS {
            // Rank 990 of 1000, with ten samples beyond it.
            let rank = WINDOW_OPS - MIN_BEYOND as usize;
            let (_, p99, _) = self.window.select_nth_unstable(rank - 1);
            self.window_p99s.push(*p99);
            self.window.clear();
        }
    }

    pub fn count(&self) -> u64 {
        self.all.count()
    }

    /// The median over the whole phase.
    pub fn p50(&self) -> Option<f64> {
        self.all.quantile(0.5)
    }

    /// The p99 over the whole phase.
    pub fn whole_p99(&self) -> Option<f64> {
        self.all.quantile(0.99)
    }

    /// The median of the full windows' p99s; `None` before the first
    /// window fills.
    pub fn p99(&self) -> Option<f64> {
        let mut w = self.window_p99s.clone();
        w.sort_unstable();
        let mid = w.len() / 2;
        match w.len() {
            0 => None,
            n if n % 2 == 1 => Some(w[mid] as f64),
            _ => Some((w[mid - 1] + w[mid]) as f64 / 2.0),
        }
    }

    /// Full windows the p99 is the median of.
    pub fn windows(&self) -> usize {
        self.window_p99s.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_line() {
        let mut prev_end = 0.0;
        for i in 0..BUCKETS - 1 {
            let (lo, w) = bucket(i);
            assert_eq!(lo, prev_end, "bucket {i}");
            prev_end = lo + w;
        }
        for v in [0u64, 1, 127, 128, 129, 255, 256, 1000, 1 << 40, u64::MAX] {
            let (lo, w) = bucket(index(v));
            assert!(
                lo <= v as f64 && (v as f64) < lo + w || v == u64::MAX,
                "{v}"
            );
            assert!(w <= (lo / SUB as f64).max(1.0), "{v}");
        }
    }

    #[test]
    fn quantiles_are_within_a_bucket_of_exact() {
        let mut h = Hist::new();
        let samples: Vec<u64> = (1..=5000u64).map(|i| 1000 + (i * 7919) % 90_000).collect();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.99] {
            let exact = sorted[((q * 5000.0) as usize).saturating_sub(1)] as f64;
            let got = h.quantile(q).unwrap();
            assert!(
                (got - exact).abs() <= exact / 64.0,
                "q={q}: {got} vs {exact}"
            );
        }
    }

    #[test]
    fn refuses_percentiles_with_fewer_than_ten_samples_beyond() {
        let mut h = Hist::new();
        for v in 0..999u64 {
            h.record(v);
        }
        // 999 samples: p99 has rank 990 and only 9 samples beyond it.
        assert_eq!(h.quantile(0.99), None);
        h.record(999);
        assert!(h.quantile(0.99).is_some());
        assert!(Hist::new().quantile(0.5).is_none());
    }

    #[test]
    fn p99_is_the_median_window_p99() {
        let mut l = Latencies::new();
        for _ in 0..WINDOW_OPS - 1 {
            l.record(100);
        }
        assert_eq!(l.p99(), None);
        // Three windows, the middle one with a 5% burst of slow ops.
        let mut l = Latencies::new();
        for w in 0..3 {
            for i in 0..WINDOW_OPS {
                l.record(if w == 1 && i % 20 == 0 { 10_000 } else { 100 });
            }
        }
        assert_eq!(l.windows(), 3);
        assert_eq!(l.p99(), Some(100.0));
        assert!(l.whole_p99().unwrap() > 9000.0);
        // The exact 990th of 1000: ten samples lie beyond it.
        let mut l = Latencies::new();
        (1..=WINDOW_OPS as u64).for_each(|v| l.record(v));
        assert_eq!(l.p99(), Some(990.0));
    }
}

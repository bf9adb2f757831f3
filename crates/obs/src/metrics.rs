//! Typed metrics registry: counters, gauges, and histograms with a
//! Prometheus-style text exposition.
//!
//! Naming convention (enforced by use, documented in DESIGN.md §12):
//! every metric is prefixed `ckpt_`, counters end in `_total`, and
//! duration histograms end in `_seconds`. Breakdown dimensions use a
//! single label, e.g. `ckpt_store_hits_total{memo="plans"}`.
//!
//! Handles are cheap clonable `Arc`s; hot paths resolve a handle once
//! (e.g. in a `OnceLock`) and then touch only a relaxed atomic.
//! Registration takes a global mutex and is expected to happen at
//! setup/dump time, not per-operation. Without the `enabled` feature
//! the whole registry compiles to inert stubs.

#[cfg(feature = "enabled")]
mod live {
    use std::collections::BTreeMap;
    use std::fmt::Write as _;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};

    /// Bucket upper bounds (seconds) for duration histograms: one
    /// decade per bucket from a microsecond to 100 s, plus +Inf.
    pub const SECONDS_BUCKETS: &[f64] = &[1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0];

    /// Monotone counter.
    #[derive(Clone)]
    pub struct Counter(Arc<AtomicU64>);

    impl Counter {
        #[inline]
        pub fn inc(&self) {
            self.add(1);
        }
        #[inline]
        pub fn add(&self, n: u64) {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
        #[inline]
        pub fn get(&self) -> u64 {
            self.0.load(Ordering::Relaxed)
        }
    }

    /// Last-write-wins gauge (unsigned; depths, sizes, capacities).
    #[derive(Clone)]
    pub struct Gauge(Arc<AtomicU64>);

    impl Gauge {
        #[inline]
        pub fn set(&self, v: u64) {
            self.0.store(v, Ordering::Relaxed);
        }
        /// Set to `v` if larger (high-water marks).
        #[inline]
        pub fn set_max(&self, v: u64) {
            self.0.fetch_max(v, Ordering::Relaxed);
        }
        #[inline]
        pub fn get(&self) -> u64 {
            self.0.load(Ordering::Relaxed)
        }
    }

    struct HistInner {
        bounds: &'static [f64],
        /// One slot per bound plus the +Inf overflow slot.
        buckets: Vec<AtomicU64>,
        count: AtomicU64,
        sum_bits: AtomicU64,
    }

    /// Fixed-bucket histogram of `f64` observations (seconds).
    #[derive(Clone)]
    pub struct Histogram(Arc<HistInner>);

    impl Histogram {
        pub fn observe(&self, v: f64) {
            let idx = self
                .0
                .bounds
                .iter()
                .position(|b| v <= *b)
                .unwrap_or(self.0.bounds.len());
            self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
            self.0.count.fetch_add(1, Ordering::Relaxed);
            let mut cur = self.0.sum_bits.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + v).to_bits();
                match self.0.sum_bits.compare_exchange_weak(
                    cur,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
        /// Observe a nanosecond duration as seconds.
        #[inline]
        pub fn observe_ns(&self, nanos: u64) {
            self.observe(nanos as f64 / 1e9);
        }
        pub fn count(&self) -> u64 {
            self.0.count.load(Ordering::Relaxed)
        }
        pub fn sum(&self) -> f64 {
            f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
        }
    }

    enum Metric {
        Counter(Counter),
        Gauge(Gauge),
        Histogram(Histogram),
    }

    type Label = Option<(&'static str, String)>;
    type Registry = BTreeMap<(&'static str, Label), Metric>;

    fn registry() -> &'static Mutex<Registry> {
        static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
    }

    fn with_entry<T>(
        name: &'static str,
        label: Label,
        make: impl FnOnce() -> Metric,
        pick: impl FnOnce(&Metric) -> Option<T>,
    ) -> T {
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        let metric = reg.entry((name, label)).or_insert_with(make);
        pick(metric)
            .unwrap_or_else(|| panic!("metric `{name}` is already registered as a different type"))
    }

    /// Get or register an unlabeled counter.
    pub fn counter(name: &'static str) -> Counter {
        labeled_counter_opt(name, None)
    }

    /// Get or register a counter with one `{key="value"}` label.
    pub fn labeled_counter(name: &'static str, key: &'static str, value: &str) -> Counter {
        labeled_counter_opt(name, Some((key, value.to_string())))
    }

    fn labeled_counter_opt(name: &'static str, label: Label) -> Counter {
        with_entry(
            name,
            label,
            || Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))),
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// Get or register an unlabeled gauge.
    pub fn gauge(name: &'static str) -> Gauge {
        with_entry(
            name,
            None,
            || Metric::Gauge(Gauge(Arc::new(AtomicU64::new(0)))),
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// Get or register a seconds histogram with one label.
    pub fn labeled_histogram_seconds(
        name: &'static str,
        key: &'static str,
        value: &str,
    ) -> Histogram {
        with_entry(
            name,
            Some((key, value.to_string())),
            || {
                let buckets = (0..=SECONDS_BUCKETS.len())
                    .map(|_| AtomicU64::new(0))
                    .collect();
                Metric::Histogram(Histogram(Arc::new(HistInner {
                    bounds: SECONDS_BUCKETS,
                    buckets,
                    count: AtomicU64::new(0),
                    sum_bits: AtomicU64::new(0f64.to_bits()),
                })))
            },
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    fn render_label(label: &Label) -> String {
        match label {
            None => String::new(),
            Some((k, v)) => format!("{{{k}=\"{v}\"}}"),
        }
    }

    fn type_of(metric: &Metric) -> &'static str {
        match metric {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }

    /// Prometheus text exposition of every registered metric, sorted
    /// by `(name, label)` so output is deterministic.
    pub fn exposition() -> String {
        let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        let mut last_name: Option<&'static str> = None;
        for ((name, label), metric) in reg.iter() {
            if last_name != Some(name) {
                let _ = writeln!(out, "# TYPE {name} {}", type_of(metric));
                last_name = Some(name);
            }
            let lbl = render_label(label);
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name}{lbl} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{name}{lbl} {}", g.get());
                }
                Metric::Histogram(h) => {
                    let mut cum = 0u64;
                    for (i, bound) in h.0.bounds.iter().enumerate() {
                        cum += h.0.buckets[i].load(Ordering::Relaxed);
                        let le = match label {
                            None => format!("{{le=\"{bound}\"}}"),
                            Some((k, v)) => format!("{{{k}=\"{v}\",le=\"{bound}\"}}"),
                        };
                        let _ = writeln!(out, "{name}_bucket{le} {cum}");
                    }
                    cum += h.0.buckets[h.0.bounds.len()].load(Ordering::Relaxed);
                    let inf = match label {
                        None => "{le=\"+Inf\"}".to_string(),
                        Some((k, v)) => format!("{{{k}=\"{v}\",le=\"+Inf\"}}"),
                    };
                    let _ = writeln!(out, "{name}_bucket{inf} {cum}");
                    let _ = writeln!(out, "{name}_sum{lbl} {}", h.sum());
                    let _ = writeln!(out, "{name}_count{lbl} {}", h.count());
                }
            }
        }
        out
    }

    /// Zero every registered metric in place (handles stay valid).
    /// Used by binaries at startup and by tests for isolation.
    pub fn reset() {
        let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        for metric in reg.values() {
            match metric {
                Metric::Counter(c) => c.0.store(0, Ordering::Relaxed),
                Metric::Gauge(g) => g.0.store(0, Ordering::Relaxed),
                Metric::Histogram(h) => {
                    for b in &h.0.buckets {
                        b.store(0, Ordering::Relaxed);
                    }
                    h.0.count.store(0, Ordering::Relaxed);
                    h.0.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
                }
            }
        }
    }
}

#[cfg(feature = "enabled")]
pub use live::{
    counter, exposition, gauge, labeled_counter, labeled_histogram_seconds, reset, Counter, Gauge,
    Histogram, SECONDS_BUCKETS,
};

#[cfg(not(feature = "enabled"))]
mod stub {
    /// Same bounds as the live registry, for code that references them.
    pub const SECONDS_BUCKETS: &[f64] = &[1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0];

    #[derive(Clone)]
    pub struct Counter;
    impl Counter {
        #[inline(always)]
        pub fn inc(&self) {}
        #[inline(always)]
        pub fn add(&self, _n: u64) {}
        #[inline(always)]
        pub fn get(&self) -> u64 {
            0
        }
    }

    #[derive(Clone)]
    pub struct Gauge;
    impl Gauge {
        #[inline(always)]
        pub fn set(&self, _v: u64) {}
        #[inline(always)]
        pub fn set_max(&self, _v: u64) {}
        #[inline(always)]
        pub fn get(&self) -> u64 {
            0
        }
    }

    #[derive(Clone)]
    pub struct Histogram;
    impl Histogram {
        #[inline(always)]
        pub fn observe(&self, _v: f64) {}
        #[inline(always)]
        pub fn observe_ns(&self, _nanos: u64) {}
        #[inline(always)]
        pub fn count(&self) -> u64 {
            0
        }
        #[inline(always)]
        pub fn sum(&self) -> f64 {
            0.0
        }
    }

    #[inline(always)]
    pub fn counter(_name: &'static str) -> Counter {
        Counter
    }
    #[inline(always)]
    pub fn labeled_counter(_name: &'static str, _key: &'static str, _value: &str) -> Counter {
        Counter
    }
    #[inline(always)]
    pub fn gauge(_name: &'static str) -> Gauge {
        Gauge
    }
    #[inline(always)]
    pub fn labeled_histogram_seconds(
        _name: &'static str,
        _key: &'static str,
        _value: &str,
    ) -> Histogram {
        Histogram
    }
    #[inline(always)]
    pub fn exposition() -> String {
        String::new()
    }
    #[inline(always)]
    pub fn reset() {}
}

#[cfg(not(feature = "enabled"))]
pub use stub::{
    counter, exposition, gauge, labeled_counter, labeled_histogram_seconds, reset, Counter, Gauge,
    Histogram, SECONDS_BUCKETS,
};

#[cfg(all(test, feature = "enabled"))]
mod live_tests {
    use super::*;
    use std::sync::Mutex;

    // The registry is process-global; serialize tests that reset it.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn counters_gauges_and_histograms_expose_deterministically() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        counter("ckpt_test_cancellations_total").add(3);
        labeled_counter("ckpt_test_hits_total", "memo", "plans").inc();
        labeled_counter("ckpt_test_hits_total", "memo", "curves").add(2);
        gauge("ckpt_test_queue_depth").set(5);
        gauge("ckpt_test_queue_depth").set_max(2); // keeps 5
        let h = labeled_histogram_seconds("ckpt_test_stage_wall_seconds", "stage", "plan");
        h.observe(0.5e-3);
        h.observe(2.0);
        let text = exposition();
        assert!(text.contains("# TYPE ckpt_test_cancellations_total counter"));
        assert!(text.contains("ckpt_test_cancellations_total 3"));
        assert!(text.contains("ckpt_test_hits_total{memo=\"curves\"} 2"));
        assert!(text.contains("ckpt_test_hits_total{memo=\"plans\"} 1"));
        assert!(text.contains("ckpt_test_queue_depth 5"));
        assert!(text.contains("ckpt_test_stage_wall_seconds_bucket{stage=\"plan\",le=\"0.001\"} 1"));
        assert!(text.contains("ckpt_test_stage_wall_seconds_bucket{stage=\"plan\",le=\"+Inf\"} 2"));
        assert!(text.contains("ckpt_test_stage_wall_seconds_count{stage=\"plan\"} 2"));
        assert_eq!(2, h.count());
        assert!((h.sum() - 2.0005).abs() < 1e-9);
        // `curves` sorts before `plans`: exposition order is fixed.
        let curves = text.find("memo=\"curves\"").unwrap();
        let plans = text.find("memo=\"plans\"").unwrap();
        assert!(curves < plans);
    }

    #[test]
    fn reset_zeroes_in_place_and_handles_stay_valid() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        let c = counter("ckpt_test_reset_total");
        c.add(7);
        assert_eq!(7, c.get());
        reset();
        assert_eq!(0, c.get());
        c.inc();
        assert_eq!(1, c.get());
        assert_eq!(1, counter("ckpt_test_reset_total").get());
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_clash_panics_with_a_clear_message() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        counter("ckpt_test_clash");
        gauge("ckpt_test_clash");
    }
}

#[cfg(all(test, not(feature = "enabled")))]
mod stub_tests {
    use super::*;

    #[test]
    fn disabled_registry_is_inert() {
        let c = counter("ckpt_anything_total");
        c.inc();
        c.add(10);
        assert_eq!(0, c.get());
        let h = labeled_histogram_seconds("ckpt_x_seconds", "stage", "plan");
        h.observe(1.0);
        assert_eq!(0, h.count());
        assert!(exposition().is_empty());
    }
}

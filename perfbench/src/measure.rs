//! What every workload shares: the closed loop, set-up time, peak RSS,
//! and the assembly of the end-to-end and per-layer metric sets.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use ckpt_bench::engine::CacheStats;
use ckpt_service::{MemoStats, StoreStats};

use crate::hist::{Latencies, MIN_BEYOND, WINDOW_OPS};
use crate::trace::{Layer, LayerStats, Tracer};

/// One run's settings, from the command line.
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub refs: PathBuf,
    /// When `main` began.
    pub start: Instant,
}

impl RunCfg {
    /// `setup_s`: time from the start of `main` to now, read just before
    /// the first timed op. It covers the one set-up a run makes.
    pub fn setup_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// A workload's result line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Every thread budget in the benchmark. One vCPU of a small shared VM
/// is what one client gets; a second thread would time the neighbour.
pub const THREADS: usize = 1;

/// The fewest ops of a timed phase that rests its p99 on `windows`
/// latency windows; the phase runs until both `--seconds` have passed
/// and this many ops completed, so slow-op workloads can run past
/// `--seconds`. A window's p99 has [`MIN_BEYOND`] samples beyond it.
pub const fn min_ops(windows: u64) -> u64 {
    windows * WINDOW_OPS as u64
}

/// One timed phase of a closed loop.
pub struct Phase {
    pub ops: u64,
    pub ok: u64,
    pub wall_s: f64,
    pub hist: Latencies,
}

impl Phase {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }
}

/// Runs `op(i)` back to back — one client, each op issued when the last
/// returns — until `seconds` have passed and at least `min_ops` ops ran.
/// `op` returns its own latency (the part of it the user waits on) and
/// whether its output passed the check, or `None` to end the phase
/// without running (the traced phase's span store is full).
pub fn closed_loop(
    seconds: f64,
    min_ops: u64,
    mut op: impl FnMut(u64) -> Option<(u64, bool)>,
) -> Phase {
    let mut hist = Latencies::new();
    let (mut ops, mut ok) = (0u64, 0u64);
    let start = Instant::now();
    while let Some((latency_ns, passed)) = op(ops) {
        hist.record(latency_ns);
        ops += 1;
        ok += passed as u64;
        if ops >= min_ops && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Phase {
        ops,
        ok,
        wall_s: start.elapsed().as_secs_f64(),
        hist,
    }
}

/// Peak resident set of this process, in MiB.
#[cfg(target_os = "linux")]
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `struct timeval`s (two 64-bit
    // words each), then fourteen `long`s of which `ru_maxrss` (KiB) is
    // the first.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut r = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    const _: () = assert!(std::mem::size_of::<usize>() == 8, "64-bit Linux only");
    // SAFETY: `r` is a live, writable value laid out as the C `struct
    // rusage` of 64-bit Linux (the cfg and the assertion above admit no
    // other target), and getrusage writes only into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    r.maxrss as f64 / 1024.0
}

/// The end-to-end metric set, in BENCHMARK.json order, once the output
/// check has settled `phase.ok`.
pub fn end_to_end(setup_s: f64, rss_mb: f64, phase: &Phase) -> Result<Vec<Metric>, String> {
    let refuse = |p: &str| {
        format!(
            "refusing {p}: {} ops leave fewer than {MIN_BEYOND} samples beyond it",
            phase.hist.count()
        )
    };
    let p50 = phase.hist.p50().ok_or_else(|| refuse("p50"))?;
    let p99 = phase.hist.p99().ok_or_else(|| refuse("p99"))?;
    Ok(vec![
        metric("setup_s", setup_s, "s"),
        metric("ops_per_s", phase.ops_per_s(), "1/s"),
        metric("latency_p50_us", p50 / 1e3, "us"),
        metric("latency_p99_us", p99 / 1e3, "us"),
        metric(
            "success_ratio",
            phase.ok as f64 / phase.ops.max(1) as f64,
            "ratio",
        ),
        metric("peak_rss_mb", rss_mb, "MiB"),
    ])
}

/// What the per-layer metrics need beyond the span aggregate. Every
/// field stays zero for a workload that never runs the layer.
#[derive(Default)]
pub struct LayerExtras {
    /// Placements whose plan equals the previous placement's, and
    /// placements compared.
    pub reuse: (u64, u64),
    /// CkptNone Monte Carlo totals: runs, failures summed over runs
    /// (censored runs at their budget), and diverged runs.
    pub none_runs: u64,
    pub none_failures: f64,
    pub none_diverged: u64,
    /// CkptSome Monte Carlo runs.
    pub seg_runs: u64,
    /// The service store's counters over the traced run.
    pub store: Option<StoreStats>,
    /// The engine's cache counters over the traced phase.
    pub engine_cache: Option<CacheStats>,
    /// Untraced ÷ traced ops per second.
    pub overhead_ratio: f64,
}

/// Memos whose hit ratio the per-layer metrics report: every memo a
/// service workload touches (no workload configures Monte Carlo in a
/// session, so `sims` stays untouched).
pub const MEMOS: [&str; 8] = [
    "workflows",
    "schedules",
    "curves",
    "plans",
    "graphs",
    "evals",
    "wpars",
    "stats",
];

/// The per-layer metric set, in BENCHMARK.json order. A layer a workload
/// never calls reads 0 calls and 0 seconds.
pub fn per_layer(agg: &BTreeMap<Layer, LayerStats>, x: &LayerExtras) -> Vec<Metric> {
    let empty = LayerStats::default();
    let get = |l: Layer| agg.get(&l).unwrap_or(&empty);
    let secs = |ns: u64| ns as f64 * 1e-9;
    let mut out = Vec::new();
    for l in [
        Layer::Generate,
        Layer::Schedule,
        Layer::Curve,
        Layer::Placement,
        Layer::SegmentGraph,
        Layer::Eval,
        Layer::SimNone,
        Layer::SimSegments,
    ] {
        let s = get(l);
        let name = l.name();
        out.push(metric(format!("{name}.calls"), s.calls as f64, "count"));
        out.push(metric(format!("{name}.busy_s"), secs(s.busy_ns), "s"));
        match l {
            Layer::Placement | Layer::SegmentGraph | Layer::Eval => {
                out.push(metric(format!("{name}.p50_us"), s.p50_us(), "us"));
            }
            _ => {}
        }
        match l {
            Layer::Placement => out.push(metric(
                "core.placement.reuse_ratio",
                ratio(x.reuse.0 as f64, x.reuse.1 as f64),
                "ratio",
            )),
            Layer::SimNone => {
                let runs = x.none_runs as f64;
                out.push(metric(
                    "failsim.none.runs_per_s",
                    ratio(runs, secs(s.busy_ns)),
                    "1/s",
                ));
                out.push(metric(
                    "failsim.none.failures_per_run",
                    ratio(x.none_failures, runs),
                    "count",
                ));
                out.push(metric(
                    "failsim.none.diverged_ratio",
                    ratio(x.none_diverged as f64, runs),
                    "ratio",
                ));
            }
            Layer::SimSegments => out.push(metric(
                "failsim.segments.runs_per_s",
                ratio(x.seg_runs as f64, secs(s.busy_ns)),
                "1/s",
            )),
            _ => {}
        }
    }
    let query = get(Layer::Query);
    out.push(metric("service.query.calls", query.calls as f64, "count"));
    out.push(metric("service.self_s", secs(query.self_ns), "s"));
    let store = x.store.clone().unwrap_or_default();
    let t = store.totals;
    let hit_ratio = |m: MemoStats| ratio(m.hits as f64, (m.hits + m.misses) as f64);
    out.push(metric("service.store.hits", t.hits as f64, "count"));
    out.push(metric("service.store.misses", t.misses as f64, "count"));
    out.push(metric("service.store.hit_ratio", hit_ratio(t), "ratio"));
    out.push(metric(
        "service.store.evictions",
        t.evictions as f64,
        "count",
    ));
    out.push(metric("service.store.retries", t.retries as f64, "count"));
    out.push(metric("service.store.failures", t.failures as f64, "count"));
    for memo in MEMOS {
        let m = store
            .per_memo
            .iter()
            .find(|(name, _)| *name == memo)
            .map_or_else(MemoStats::default, |(_, m)| *m);
        out.push(metric(
            format!("service.store.{memo}.hit_ratio"),
            hit_ratio(m),
            "ratio",
        ));
    }
    let cell = get(Layer::Cell);
    let cache = x.engine_cache.unwrap_or_default();
    let cache_ratio = |h: usize, m: usize| ratio(h as f64, (h + m) as f64);
    out.push(metric("engine.cells", cell.calls as f64, "count"));
    out.push(metric("engine.self_s", secs(cell.self_ns), "s"));
    out.push(metric(
        "engine.workflow_cache.hit_ratio",
        cache_ratio(cache.workflow_hits, cache.workflow_misses),
        "ratio",
    ));
    out.push(metric(
        "engine.schedule_cache.hit_ratio",
        cache_ratio(cache.schedule_hits, cache.schedule_misses),
        "ratio",
    ));
    out.push(metric("trace.overhead_ratio", x.overhead_ratio, "ratio"));
    out
}

/// A traced run's result: phase logs, layer shares, and the per-layer
/// metrics with the untraced ÷ traced throughput ratio.
pub fn traced_outcome(
    name: &str,
    tr: &Tracer,
    untraced: &Phase,
    traced: &Phase,
    mut x: LayerExtras,
    correct: bool,
) -> Outcome {
    log_phase(name, "untraced phase", untraced);
    log_phase(name, "traced phase", traced);
    let agg = tr.aggregate();
    log_shares(name, &agg);
    x.overhead_ratio = untraced.ops_per_s() / traced.ops_per_s();
    outcome(correct, traced, per_layer(&agg, &x))
}

/// A share with its base; 0 when the base is empty.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Logs the traced run's layer shares: each layer's self time over the
/// sum of self times (what workloads.json records).
pub fn log_shares(workload: &str, agg: &BTreeMap<Layer, LayerStats>) {
    let total: u64 = agg.values().map(|s| s.self_ns).sum();
    let shares: Vec<String> = Layer::ALL
        .iter()
        .filter_map(|l| agg.get(l).map(|s| (l, s)))
        .map(|(l, s)| {
            format!(
                "{} {:.1}%",
                l.name(),
                100.0 * ratio(s.self_ns as f64, total as f64)
            )
        })
        .collect();
    eprintln!("{workload}: layer self-time shares: {}", shares.join(", "));
}

/// Arms the attribution self-test's delay plan on every stage site: each
/// arrival sleeps `delay_ms` and nothing fails.
#[cfg(feature = "attribution-selftest")]
pub fn arm_delay(delay_ms: u64) {
    if delay_ms > 0 {
        seedmix::faultinject::arm(seedmix::faultinject::FaultPlan {
            seed: 0,
            panic_per_mille: 0,
            error_per_mille: 0,
            delay_per_mille: 1000,
            delay_ms,
        });
    }
}

#[cfg(not(feature = "attribution-selftest"))]
pub fn arm_delay(delay_ms: u64) {
    assert_eq!(
        delay_ms, 0,
        "--delay-ms needs the attribution-selftest build"
    );
}

/// Logs the phase's op count and latency sample count, and the whole
/// phase's p99 beside the windowed one, so a tail that clusters in a
/// few windows stays visible (stderr).
pub fn log_phase(workload: &str, what: &str, p: &Phase) {
    let us = |v: Option<f64>| v.map_or_else(|| "-".into(), |ns| format!("{:.3} us", ns / 1e3));
    eprintln!(
        "{workload}: {what}: {} ops in {:.3} s ({:.1} ops/s), {} ok, {} latency samples; \
         p99 {} as the median of {} windows of {WINDOW_OPS} ops, {} over the whole phase",
        p.ops,
        p.wall_s,
        p.ops_per_s(),
        p.ok,
        p.hist.count(),
        us(p.hist.p99()),
        p.hist.windows(),
        us(p.hist.whole_p99())
    );
}

/// Converts the outcome of checks into the result line's counts.
pub fn outcome(correct: bool, phase: &Phase, metrics: Vec<Metric>) -> Outcome {
    Outcome {
        correct: correct && phase.ok == phase.ops,
        attempted: phase.ops,
        failed: phase.ops - phase.ok,
        metrics,
    }
}

//! # ckpt-bench — experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§VI).
//! See DESIGN.md §5 for the experiment index (E1–E12) and §5.1 for the
//! scenario engine; EXPERIMENTS.md tracks paper-vs-measured results.
//! The grid binaries run the scenarios in [`scenarios`] on the
//! [`engine`], each inside one [`GridShell`]:
//!
//! * `figures` — E1/E2/E3: relative expected makespan of CkptAll and
//!   CkptNone over CkptSome vs CCR (Figures 5, 6, 7);
//! * `accuracy` — E4: accuracy/runtime of the four 2-state evaluators
//!   (§VI-B);
//! * `validate` — E5: first-order model vs discrete-event simulation;
//! * `ablation` — E6 (linearization), E7 (naive coalescing), E8 (Ligo
//!   incomplete-bipartite footnote);
//! * `distributions` — E9: the four strategies under Weibull / LogNormal
//!   failure models against the exponential baseline (DESIGN.md §6);
//! * `strategies` — E10: the checkpoint-policy comparison (DP vs
//!   Young/Daly periodic vs risk-threshold vs structural crossover,
//!   DESIGN.md §8);
//! * `drift` — E12: the incremental-planning drift sweep (per-cell
//!   `ckpt_service` sessions committing a drift ladder with an in-run
//!   cold-equality self-check, DESIGN.md §10);
//! * `whatif` — the batched what-if query load, incremental vs cold
//!   recompute (not grid-driven: it exercises `ckpt_service` directly;
//!   `splitting` and `planscale` are likewise direct harnesses).

pub mod engine;
pub mod scenarios;
pub mod summary;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use ckpt_core::{
    lambda_from_pfail, AllocateConfig, CkptAllPolicy, DpOptimalPolicy, Pipeline, Platform,
};
use mspg::Workflow;
use pegasus::ccr::scale_to_ccr;
use pegasus::WorkflowClass;
use probdag::{Evaluator, PathApprox};

/// Stable-storage bandwidth used throughout the experiments (bytes/s).
/// Its absolute value is immaterial: every experiment pins the CCR by
/// rescaling file sizes against it (§VI-A).
pub const BANDWIDTH: f64 = 1e8;

/// The paper's workflow sizes.
pub const SIZES: [usize; 3] = [50, 300, 1000];

/// The paper's `pfail` values (columns of Figures 5–7).
pub const PFAILS: [f64; 3] = [0.01, 0.001, 0.0001];

/// One row of the figure experiments.
#[derive(Clone, Debug)]
pub struct FigureRow {
    /// Workflow class (figure).
    pub class: WorkflowClass,
    /// Requested task count (row of the figure).
    pub size: usize,
    /// Actual task count of the generated instance.
    pub actual_tasks: usize,
    /// Processor count (curve).
    pub procs: usize,
    /// Per-task failure probability (column).
    pub pfail: f64,
    /// Communication-to-computation ratio (x-axis).
    pub ccr: f64,
    /// Expected makespan of CkptSome (seconds).
    pub em_some: f64,
    /// Expected makespan of CkptAll (seconds).
    pub em_all: f64,
    /// Expected makespan of CkptNone (Theorem 1, seconds).
    pub em_none: f64,
    /// Checkpointed tasks under CkptSome.
    pub ckpts_some: usize,
    /// Relative expected makespan CkptAll / CkptSome (y-axis, > 1 means
    /// CkptSome wins).
    pub rel_all: f64,
    /// Relative expected makespan CkptNone / CkptSome.
    pub rel_none: f64,
}

/// Runs one figure cell, averaging over `instances` generated workflows.
///
/// This is the serial reference implementation the calibration gates in
/// `tests/figure_shapes.rs` pin; the binaries and [`figure_grid`] run
/// the cache-sharing engine path ([`scenarios::FigureScenario`])
/// instead.
pub fn figure_cell(
    class: WorkflowClass,
    size: usize,
    procs: usize,
    pfail: f64,
    ccr: f64,
    instances: usize,
    base_seed: u64,
) -> FigureRow {
    assert!(instances >= 1);
    let evaluator = PathApprox::default();
    let (mut em_some, mut em_all, mut em_none) = (0.0, 0.0, 0.0);
    let mut ckpts = 0usize;
    let mut actual = 0usize;
    for i in 0..instances {
        let seed = base_seed.wrapping_add(i as u64);
        let mut w = pegasus::generate(class, size, seed);
        actual = w.n_tasks();
        scale_to_ccr(&mut w, ccr, BANDWIDTH);
        let lambda = lambda_from_pfail(pfail, w.dag.mean_weight());
        let platform = Platform::new(procs, lambda, BANDWIDTH);
        let cfg = AllocateConfig {
            seed,
            ..Default::default()
        };
        let pipe = Pipeline::new(&w, platform, &cfg);
        let some = pipe.assess(&DpOptimalPolicy, &evaluator);
        let all = pipe.assess(&CkptAllPolicy, &evaluator);
        let none = pipe.assess_none();
        em_some += some.expected_makespan;
        em_all += all.expected_makespan;
        em_none += none.expected_makespan;
        ckpts += some.n_checkpoints;
    }
    let nf = instances as f64;
    let (em_some, em_all, em_none) = (em_some / nf, em_all / nf, em_none / nf);
    FigureRow {
        class,
        size,
        actual_tasks: actual,
        procs,
        pfail,
        ccr,
        em_some,
        em_all,
        em_none,
        ckpts_some: ckpts / instances,
        rel_all: em_all / em_some,
        rel_none: em_none / em_some,
    }
}

/// Runs the full grid for one class (one figure): sizes × processor
/// counts × pfail × CCR grid, through the parallel scenario engine
/// (all cores; rows come back in canonical grid order regardless).
pub fn figure_grid(
    class: WorkflowClass,
    ccr_points: usize,
    instances: usize,
    seed: u64,
) -> Vec<FigureRow> {
    let scenario = scenarios::FigureScenario::paper(class, ccr_points, instances, seed);
    engine::run(
        &scenario,
        &engine::EngineConfig::default(),
        &mut engine::NullSink,
    )
    .expect("in-memory engine run cannot fail")
    .rows
}

/// CSV header matching [`FigureRow`].
pub const FIGURE_HEADER: &str =
    "class,size,actual_tasks,procs,pfail,ccr,em_some,em_all,em_none,ckpts_some,rel_all,rel_none";

/// Formats a figure row as CSV.
pub fn figure_csv(r: &FigureRow) -> String {
    format!(
        "{},{},{},{},{},{:.6e},{:.6},{:.6},{:.6},{},{:.4},{:.4}",
        r.class,
        r.size,
        r.actual_tasks,
        r.procs,
        r.pfail,
        r.ccr,
        r.em_some,
        r.em_all,
        r.em_none,
        r.ckpts_some,
        r.rel_all,
        r.rel_none
    )
}

/// Writes rows to `path`, creating parent directories.
pub fn write_csv(path: &Path, header: &str, rows: &[String]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut out = String::with_capacity(rows.len() * 80 + header.len() + 1);
    writeln!(out, "{header}").unwrap();
    for r in rows {
        writeln!(out, "{r}").unwrap();
    }
    std::fs::write(path, out)
}

/// A workflow instance pinned to a CCR (shared by `accuracy`/`validate`).
pub fn instance(class: WorkflowClass, size: usize, ccr: f64, seed: u64) -> Workflow {
    let mut w = pegasus::generate(class, size, seed);
    scale_to_ccr(&mut w, ccr, BANDWIDTH);
    w
}

/// Builds the evaluation pipeline for an instance.
pub fn pipeline_for<'a>(w: &'a Workflow, procs: usize, pfail: f64, seed: u64) -> Pipeline<'a> {
    let lambda = lambda_from_pfail(pfail, w.dag.mean_weight());
    let platform = Platform::new(procs, lambda, BANDWIDTH);
    let cfg = AllocateConfig {
        seed,
        ..Default::default()
    };
    Pipeline::new(w, platform, &cfg)
}

/// Times a single evaluator invocation, returning `(estimate, seconds)`.
pub fn timed_eval(e: &dyn Evaluator, pdag: &probdag::ProbDag) -> (f64, f64) {
    let start = std::time::Instant::now();
    let v = e.expected_makespan(pdag);
    (v, start.elapsed().as_secs_f64())
}

/// Tiny `--key value` argument parser for the harness binaries and
/// examples. Strict: every word is a flag the binary reads, followed by
/// its value.
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    /// Parses `std::env::args()` (skipping the binary name) against
    /// `known`, the space-separated names of the flags the binary reads:
    /// any other flag, a word that is not a flag's value, or a flag
    /// without a value is a [`usage_error`].
    pub fn parse(known: &str) -> Self {
        Args::from_argv(std::env::args().skip(1), known).unwrap_or_else(|e| usage_error(&e))
    }

    fn from_argv(argv: impl IntoIterator<Item = String>, known: &str) -> Result<Self, String> {
        let mut argv = argv.into_iter().peekable();
        let mut pairs = Vec::new();
        while let Some(word) = argv.next() {
            let key = word
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {word:?}"))?;
            if !known.split_whitespace().any(|k| k == key) {
                return Err(format!("unknown flag --{key}"));
            }
            let value = argv
                .next_if(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("missing value for --{key}"))?;
            pairs.push((key.to_owned(), value));
        }
        Ok(Args { pairs })
    }

    /// The value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Parses `--key` as `T`: `Ok(None)` when the flag is absent, an
    /// error naming the flag and the value when it does not parse.
    fn try_parse<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("invalid value {v:?} for --{key}"))
            })
            .transpose()
    }

    /// Parses `--key` as `T` if it is given; a value that does not parse
    /// is a [`usage_error`].
    pub fn parsed<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.try_parse(key).unwrap_or_else(|e| usage_error(&e))
    }

    /// Parses `--key` as `T`, with a default when the flag is absent; a
    /// value that does not parse is a [`usage_error`].
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.parsed(key).unwrap_or(default)
    }

    /// The value of a named-choice flag: one of `choices`, the first
    /// when the flag is absent; any other value is a [`usage_error`].
    pub fn choice(&self, key: &str, choices: &[&'static str]) -> &'static str {
        let Some(v) = self.get(key) else {
            return choices[0];
        };
        choices
            .iter()
            .copied()
            .find(|&c| c == v)
            .unwrap_or_else(|| {
                let expected = choices.join("|");
                usage_error(&format!(
                    "invalid value {v:?} for --{key} (expected {expected})"
                ))
            })
    }

    /// Parses `--key` as a comma-separated list of `T`, with a default
    /// when the flag is absent; an entry that does not parse is a
    /// [`usage_error`].
    pub fn list_or<T: std::str::FromStr>(&self, key: &str, default: Vec<T>) -> Vec<T> {
        let Some(v) = self.get(key) else {
            return default;
        };
        v.split(',')
            .map(|x| {
                x.parse()
                    .unwrap_or_else(|_| usage_error(&format!("invalid entry {x:?} in --{key}")))
            })
            .collect()
    }
}

/// The one optional positional argument of an example, `<name>`, parsed
/// as `T`, with a default when it is absent; a value that does not
/// parse, or any further word, is a [`usage_error`].
pub fn positional_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.as_slice() {
        [] => default,
        [v] => v
            .parse()
            .unwrap_or_else(|_| usage_error(&format!("invalid value {v:?} for <{name}>"))),
        [_, extra, ..] => usage_error(&format!("unexpected argument {extra:?}")),
    }
}

/// Prints `error: {msg}` to stderr and exits with status 2: a bad
/// command line, reported without a panic or a backtrace.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// The shell every grid binary runs in (DESIGN.md §5.1): the shared
/// flags, one engine run per CSV file, and the common ending.
///
/// Every grid binary reads `--seed` (default 42), `--out` (default
/// `results`), `--threads` (default 0 = all cores) and, through
/// [`ObsOut`], `--trace-out` and `--metrics-out`. A binary whose cells
/// nest Monte Carlo or placement work also lists `mc-threads` (default
/// 0 = all cores) or `plan-threads` (default 1) among its own flags.
pub struct GridShell {
    /// The parsed command line, for the binary's own flags.
    pub args: Args,
    /// The `--seed` every scenario derives its cells' seeds from.
    pub seed: u64,
    out: PathBuf,
    cfg: engine::EngineConfig,
    obs_out: ObsOut,
}

impl GridShell {
    /// Parses the command line of a grid binary whose own flags are
    /// `own` (space-separated) and arms the requested observability
    /// outputs.
    pub fn parse(own: &str) -> Self {
        let args = Args::parse(&format!("seed out threads trace-out metrics-out {own}"));
        let obs_out = ObsOut::from_args(&args);
        let cfg = engine::EngineConfig {
            threads: args.get_or("threads", 0),
            mc_threads: args.get_or("mc-threads", 0),
            plan_threads: args.get_or("plan-threads", 1),
        };
        GridShell {
            seed: args.get_or("seed", 42),
            out: args.get_or("out", PathBuf::from("results")),
            cfg,
            obs_out,
            args,
        }
    }

    /// Runs `scenario` into `<out>/<file>` and prints one stderr summary
    /// line.
    pub fn run<S: engine::Scenario>(&self, scenario: &S, file: &str) -> engine::RunReport<S::Row> {
        let path = self.out.join(file);
        let mut sink = engine::CsvFileSink::new(&path);
        let report = engine::run(scenario, &self.cfg, &mut sink).expect("write CSV");
        let cache = &report.cache;
        eprintln!(
            "wrote {} rows to {} in {:.1}s ({} workers × {} MC threads; \
             workflow store {}/{} hits, schedule store {}/{} hits)",
            sink.rows_written(),
            path.display(),
            report.wall,
            report.workers,
            report.mc_threads,
            cache.workflow_hits,
            cache.workflow_hits + cache.workflow_misses,
            cache.schedule_hits,
            cache.schedule_hits + cache.schedule_misses,
        );
        report
    }

    /// Prints the stage-walls line (the process-wide
    /// `ckpt_stage_wall_seconds` histogram) and writes the observability
    /// outputs; call once, after the last run.
    pub fn finish(self) {
        eprintln!("stage walls: {}", ckpt_core::stage::wall_summary());
        self.obs_out.finish().expect("write observability outputs");
    }
}

/// Observability outputs for a harness binary, parsed from
/// `--trace-out FILE` (schema-validated JSONL span dump) and
/// `--metrics-out FILE` (Prometheus text exposition). Every binary
/// accepts both; construct this **before** the run (it arms the
/// span recorder and zeroes the metrics registry) and call
/// [`ObsOut::finish`] after.
pub struct ObsOut {
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

impl ObsOut {
    /// Parses the flags; arms the recorder / resets the registry when
    /// an output was requested. A binary built with
    /// `--no-default-features` has the layer compiled out, and silently
    /// writing an empty trace would be worse than refusing — so this
    /// panics instead.
    pub fn from_args(args: &Args) -> Self {
        let trace_out = args.get("trace-out").map(str::to_owned);
        let metrics_out = args.get("metrics-out").map(str::to_owned);
        if (trace_out.is_some() || metrics_out.is_some()) && !obs::compiled_in() {
            panic!(
                "--trace-out/--metrics-out require the `observe` feature; \
                 this binary was built with --no-default-features"
            );
        }
        if trace_out.is_some() || metrics_out.is_some() {
            obs::metrics::reset();
        }
        if trace_out.is_some() {
            obs::span::arm();
        }
        ObsOut {
            trace_out,
            metrics_out,
        }
    }

    /// Whether span recording was requested (and the recorder armed).
    pub fn tracing(&self) -> bool {
        self.trace_out.is_some()
    }

    /// Whether a metrics dump was requested.
    pub fn metrics(&self) -> bool {
        self.metrics_out.is_some()
    }

    /// Disarms the recorder and writes the requested files. Call after
    /// any final metric exports (e.g. `Store::export_metrics`), once.
    pub fn finish(&self) -> std::io::Result<()> {
        obs::span::disarm();
        if let Some(out) = &self.trace_out {
            let spans = obs::span::drain();
            let path = Path::new(out);
            obs::jsonl::write_file(path, &spans)?;
            eprintln!("trace: {} spans -> {}", spans.len(), path.display());
        }
        if let Some(out) = &self.metrics_out {
            let path = Path::new(out);
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir)?;
                }
            }
            std::fs::write(path, obs::metrics::exposition())?;
            eprintln!("metrics -> {}", path.display());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_cell_produces_sane_ratios() {
        let r = figure_cell(WorkflowClass::Genome, 50, 5, 0.001, 1e-3, 1, 42);
        assert!(r.em_some > 0.0);
        assert!(r.rel_all >= 0.98, "CkptAll/CkptSome {}", r.rel_all);
        assert!(r.rel_none > 0.0);
        assert_eq!(r.procs, 5);
    }

    #[test]
    fn csv_roundtrip_format() {
        let r = figure_cell(WorkflowClass::Montage, 50, 3, 0.01, 0.1, 1, 1);
        let line = figure_csv(&r);
        assert_eq!(line.split(',').count(), FIGURE_HEADER.split(',').count());
        assert!(line.starts_with("montage,50"));
    }

    #[test]
    fn args_parser() {
        let args = Args {
            pairs: vec![
                ("workflow".into(), "ligo".into()),
                ("points".into(), "5".into()),
            ],
        };
        assert_eq!(args.get("workflow"), Some("ligo"));
        assert_eq!(args.get_or("points", 9usize), 5);
        assert_eq!(args.get_or("instances", 3usize), 3);
    }

    fn argv(words: &[&str]) -> Result<Args, String> {
        Args::from_argv(words.iter().map(|w| w.to_string()), "runs out")
    }

    #[test]
    fn args_report_a_flag_without_a_value_as_missing() {
        let err = |words: &[&str]| argv(words).err();
        let missing = Some("missing value for --runs".to_owned());
        assert_eq!(err(&["--runs", "--out", "dir"]), missing);
        assert_eq!(err(&["--out", "dir", "--runs"]), missing);
        assert_eq!(argv(&["--runs", "-3"]).unwrap().get("runs"), Some("-3"));
    }

    #[test]
    fn args_reject_a_flag_the_binary_does_not_read() {
        assert_eq!(
            argv(&["--runs", "4", "--bogus", "7"]).err(),
            Some("unknown flag --bogus".to_owned())
        );
    }

    #[test]
    fn args_reject_a_word_that_is_not_a_flag_value() {
        assert_eq!(
            argv(&["--runs", "4", "stray"]).err(),
            Some("unexpected argument \"stray\"".to_owned())
        );
        assert_eq!(
            argv(&["runs", "4"]).err(),
            Some("unexpected argument \"runs\"".to_owned())
        );
    }

    #[test]
    fn args_reject_values_that_do_not_parse() {
        let args = Args {
            pairs: vec![("runs".into(), "16x".into()), ("seed".into(), "7".into())],
        };
        assert_eq!(
            args.try_parse::<usize>("runs"),
            Err("invalid value \"16x\" for --runs".to_owned())
        );
        assert_eq!(args.try_parse::<u64>("seed"), Ok(Some(7)));
        assert_eq!(args.try_parse::<u64>("levels"), Ok(None));
    }
}

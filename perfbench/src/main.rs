//! `perfbench` — the planning stack's benchmark: three workloads, each
//! a closed loop with one client on one thread, whose outputs are
//! checked and whose end-to-end metrics print as one JSON line.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--refs DIR]
//! perfbench record --workload NAME
//! perfbench compare DIR_A DIR_B
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that prints the per-layer metrics (see
//! `trace.rs`). `--refs` points the output check at another reference
//! directory than `refs/` (the tests use it). `record` writes the
//! reference outputs the checks compare against into `refs/`, for every
//! input the workload can draw on any seed; `compare`
//! sets two result sets side by side (see `compare.rs`). README.md
//! documents the workloads.

mod compare;
mod grid;
mod hist;
mod json;
mod measure;
mod refs;
mod service;
mod trace;
mod wearout;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use measure::{Metric, Outcome, RunCfg};

/// The workloads, in the order BENCHMARK.json lists them.
const WORKLOADS: [&str; 3] = ["whatif_first_visit", "figure_grid_montage", "wearout_mc"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1 [--refs DIR]\n       \
         perfbench record --workload NAME\n       \
         perfbench compare DIR_A DIR_B",
        WORKLOADS.join("|")
    )
}

/// `--key value` pairs after the subcommand, rejecting unknown keys and
/// repeated ones.
fn parse_flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out: Vec<(String, String)> = Vec::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {key:?}"))?;
        if !known.contains(&name) {
            return Err(format!("unknown flag --{name}"));
        }
        if out.iter().any(|(k, _)| k == name) {
            return Err(format!("--{name} given twice"));
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        out.push((name.to_owned(), value.clone()));
    }
    Ok(out)
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn required<T: std::str::FromStr>(flags: &[(String, String)], name: &str) -> Result<T, String> {
    let raw = flag(flags, name).ok_or_else(|| format!("missing --{name}"))?;
    raw.parse()
        .map_err(|_| format!("--{name}: cannot parse {raw:?}"))
}

fn workload_name(flags: &[(String, String)]) -> Result<&'static str, String> {
    let name = flag(flags, "workload").ok_or("missing --workload")?;
    WORKLOADS
        .iter()
        .copied()
        .find(|w| *w == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))
}

/// Where the recorded references live.
const REFS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/refs");

/// `start` is when `main` began: set-up time counts from there.
fn run_workload(args: &[String], start: Instant) -> Result<ExitCode, String> {
    let known: &[&str] = if cfg!(feature = "attribution-selftest") {
        &["workload", "seed", "seconds", "trace", "refs", "delay-ms"]
    } else {
        &["workload", "seed", "seconds", "trace", "refs"]
    };
    let flags = parse_flags(args, known)?;
    let workload = workload_name(&flags)?;
    let seconds: f64 = required(&flags, "seconds")?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
    }
    let trace = match required::<u8>(&flags, "trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let delay_ms: u64 = match flag(&flags, "delay-ms") {
        Some(_) => required(&flags, "delay-ms")?,
        None => 0,
    };
    if seedmix::faultinject::compiled_in() && !trace {
        return Err(
            "this build compiles fault injection in; it only serves traced \
                    attribution self-tests, never measurements"
                .into(),
        );
    }
    if trace {
        // From the start, so that every traced stage call, set-up's
        // included, carries the delay.
        measure::arm_delay(delay_ms);
    }
    let cfg = RunCfg {
        seed: required(&flags, "seed")?,
        seconds,
        trace,
        refs: flag(&flags, "refs").map_or_else(|| PathBuf::from(REFS), PathBuf::from),
        start,
    };
    let out = match workload {
        "whatif_first_visit" => service::first_visit(&cfg),
        "figure_grid_montage" => grid::run(&cfg),
        "wearout_mc" => wearout::run(&cfg),
        _ => unreachable!("workload names are validated above"),
    }?;
    print_outcome(&out);
    Ok(if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The result line: the last line of stdout, one JSON object.
fn print_outcome(out: &Outcome) {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|Metric { name, value, unit }| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(name),
                json::number(*value),
                json::string(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}

fn record(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, &["workload"])?;
    let workload = workload_name(&flags)?;
    let path = PathBuf::from(REFS).join(format!("{workload}.txt"));
    let mut table = refs::RefTable::default();
    match workload {
        "figure_grid_montage" => grid::record(&mut table)?,
        "wearout_mc" => wearout::record(&mut table)?,
        other => {
            return Err(format!(
            "{other} is checked against a cold session at run time; it has no recorded references"
        ))
        }
    }
    table
        .write(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("recorded -> {}", path.display());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("record") => record(&args[1..]),
        Some("compare") => compare::run(&args[1..]),
        Some(_) => run_workload(&args, start),
        None => Err("no arguments".into()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            ExitCode::from(2)
        }
    }
}

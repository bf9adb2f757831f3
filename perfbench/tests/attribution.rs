//! Attribution self-test. With seedmix's fault injection compiled in and
//! a delay plan armed on every stage site, each stage layer's busy time
//! per call grows by about the delay, and a driver's self time per op
//! does not take the delay: the traced run charges a delay to the stage
//! it hit. The bounds allow for a loaded host, where a sleep overshoots
//! by a millisecond or more and the data touched after a sleep has left
//! the cache.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml --features attribution-selftest
//! ```

#![cfg(feature = "attribution-selftest")]

use std::process::Command;

const DELAY_MS: u64 = 3;

/// A traced one-second run's result line.
fn traced(workload: &str, delay_ms: u64) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "1", "--seconds", "1"])
        .args(["--trace", "1", "--delay-ms", &delay_ms.to_string()])
        .output()
        .expect("perfbench starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload}: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = stdout.lines().last().unwrap_or_default().to_owned();
    assert!(result.starts_with(r#"{"correct": true"#), "{result}");
    result
}

/// Metric `name`'s value in a result line.
fn metric(result: &str, name: &str) -> f64 {
    let key = format!(r#""{name}": {{"value": "#);
    let at = result.find(&key).unwrap_or_else(|| panic!("no {name}")) + key.len();
    let end = at + result[at..].find(',').expect("value ends");
    result[at..end].parse().expect("numeric value")
}

/// Busy seconds per call of `layer`.
fn per_call(result: &str, layer: &str) -> f64 {
    metric(result, &format!("{layer}.busy_s")) / metric(result, &format!("{layer}.calls"))
}

/// Runs `workload` without and with the delay; checks that each layer in
/// `delayed` grows by about the delay per call, and that `driver` —
/// (self-time metric, op-count metric) — takes a small part of the delay
/// its stage calls took.
fn check(workload: &str, delayed: &[&str], driver: Option<(&str, &str)>) {
    let (base, slow) = (traced(workload, 0), traced(workload, DELAY_MS));
    let d = DELAY_MS as f64 * 1e-3;
    for layer in delayed {
        let before = per_call(&base, layer);
        let growth = per_call(&slow, layer) - before;
        // Beyond the delay: its overshoot, and the stage's own work
        // slowed by a cache emptied while it slept. Short of it: the
        // stage's own work sped up by a host whose speed drifts by
        // several percent between the two runs.
        assert!(
            (0.75 * d - 0.1 * before..d + 2e-3 + 2.0 * before).contains(&growth),
            "{workload}: {layer} grew {growth:e} s per call from {before:e} s, delay {d:e} s"
        );
    }
    if let Some((self_s, ops)) = driver {
        let per_op = |r: &str, m: &str| metric(r, m) / metric(r, ops);
        let growth = |m: &str| per_op(&slow, m) - per_op(&base, m);
        let stages: f64 = delayed.iter().map(|l| growth(&format!("{l}.busy_s"))).sum();
        assert!(
            growth(self_s) < 0.25 * stages,
            "{workload}: {self_s} grew {:e} s per op, its stages {stages:e} s",
            growth(self_s)
        );
    }
}

#[test]
fn injected_delays_are_charged_to_their_stage() {
    let stages = [
        "core.curve",
        "core.placement",
        "core.segment_graph",
        "probdag.eval",
    ];
    // Generate and Schedule run once here, too few calls to time a
    // delay; wearout_mc checks them.
    check(
        "whatif_first_visit",
        &stages,
        Some(("service.self_s", "service.query.calls")),
    );
    // The engine generates and schedules through its caches, which
    // bypass the Generate and Schedule sites.
    check(
        "figure_grid_montage",
        &stages,
        Some(("engine.self_s", "engine.cells")),
    );
    let planning = [
        "pegasus.generate",
        "core.schedule",
        "core.curve",
        "core.placement",
        "core.segment_graph",
    ];
    let mc = [&planning[..], &["failsim.none", "failsim.segments"]].concat();
    check("wearout_mc", &mc, None);
}

//! The output check behind `success_ratio` fails a run when one
//! reference it reaches is wrong, counts an output within the relative
//! tolerance apart from a bit-identical one, and covers any seed: the
//! references are recorded for the universe the seed draws from.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

#![cfg(not(feature = "attribution-selftest"))]

use std::path::{Path, PathBuf};
use std::process::Command;

const REFS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/refs");
const WORKLOAD: &str = "wearout_mc";
/// A seed no earlier recording singled out.
const SEED: &str = "99991";

/// Runs the workload for one second against the references in `refs`:
/// exit code, result line, stderr.
fn run(refs: &Path) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", WORKLOAD, "--seed", SEED, "--seconds", "1"])
        .args(["--trace", "0", "--refs"])
        .arg(refs)
        .output()
        .expect("perfbench starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = stdout.lines().last().unwrap_or_default().to_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), result, stderr)
}

/// The number that follows `label` in `text`.
fn after(text: &str, label: &str) -> u64 {
    let at = text
        .find(label)
        .unwrap_or_else(|| panic!("no {label:?} in {text}"))
        + label.len();
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("a count")
}

/// The output check's count of ops that were `kind` (`bit-identical`,
/// `within`, `outside`), from its tally line.
fn tally(stderr: &str, kind: &str) -> u64 {
    let line = stderr
        .lines()
        .find(|l| l.contains("ops against recorded references"))
        .unwrap_or_else(|| panic!("no tally in {stderr}"));
    let head = &line[..line.find(&format!(" {kind}")).expect("tallied kind")];
    head.rsplit(' ').next().unwrap().parse().expect("a count")
}

/// A copy of the references in a fresh directory `name`, with the first
/// output of reference `key` scaled by `1 + rel`.
fn perturbed(name: &str, key: u64, rel: f64) -> PathBuf {
    let file = format!("{WORKLOAD}.txt");
    let text = std::fs::read_to_string(Path::new(REFS).join(&file)).expect("recorded references");
    let prefix = format!("{key} ");
    let line = text
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("reference {key} is recorded"));
    let mut words: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
    let value: f64 = words[1].parse().expect("recorded value");
    words[1] = format!("{:?}", value * (1.0 + rel));
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join(&file), text.replacen(line, &words.join(" "), 1)).expect("write");
    dir
}

#[test]
fn one_corrupted_reference_fails_the_run() {
    let (code, result, stderr) = run(Path::new(REFS));
    assert_eq!(code, Some(0), "{stderr}");
    assert!(result.starts_with(r#"{"correct": true"#), "{result}");
    assert_eq!(tally(&stderr, "within"), 0, "{stderr}");
    assert_eq!(tally(&stderr, "outside"), 0, "{stderr}");
    // The instance the first op estimates, which every run reaches.
    let first = after(&stderr, "instances from universe instance ");

    let (code, result, stderr) = run(&perturbed("corrupted-refs", first, 1e-6));
    assert_eq!(code, Some(1), "{stderr}");
    assert!(result.starts_with(r#"{"correct": false"#), "{result}");
    assert!(!result.contains(r#""failed": 0,"#), "{result}");
    assert!(tally(&stderr, "outside") >= 1, "{stderr}");

    let (code, result, stderr) = run(&perturbed("tolerated-refs", first, 1e-12));
    assert_eq!(code, Some(0), "{stderr}");
    assert!(result.contains(r#""failed": 0,"#), "{result}");
    assert!(tally(&stderr, "within") >= 1, "{stderr}");
    assert_eq!(tally(&stderr, "outside"), 0, "{stderr}");
}

#[test]
fn missing_references_are_a_usage_error() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("no-refs");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (code, result, stderr) = run(&dir);
    assert_eq!(code, Some(2), "{stderr}");
    assert_eq!(result, "", "printed a result");
}

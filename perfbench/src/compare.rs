//! `perfbench compare A B`: two result sets side by side.
//!
//! A result set is a directory of result lines, one file per run, named
//! `<workload>.<anything>.json` (`sweep.sh` writes them). Untraced and
//! traced runs are told apart by their metrics. For every workload ×
//! end-to-end metric the comparison prints each side's median and
//! quartiles and judges the change against the bound in the
//! repository's BENCHMARK.json; for traced runs it prints the per-layer
//! medians and names the layer whose self time per op moved most.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::json::{self, Value};

/// One run's result line: metric name → value.
type Run = BTreeMap<String, f64>;

#[derive(Default)]
struct Set {
    /// workload → untraced runs
    e2e: BTreeMap<String, Vec<Run>>,
    /// workload → traced runs (with `attempted` under "ops")
    traced: BTreeMap<String, Vec<Run>>,
}

fn load(dir: &Path) -> Result<Set, String> {
    let mut set = Set::default();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let workload = name.split('.').next().unwrap_or("").to_owned();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let line = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("");
        let v = json::parse(line).map_err(|e| format!("{}: {e}", path.display()))?;
        let Some(Value::Obj(metrics)) = v.get("metrics") else {
            return Err(format!("{}: no metrics object", path.display()));
        };
        let mut run: Run = metrics
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect();
        let ops = v.get("attempted").and_then(Value::as_f64).unwrap_or(0.0);
        if run.contains_key("ops_per_s") {
            set.e2e.entry(workload).or_default().push(run);
        } else {
            run.insert("ops".into(), ops);
            set.traced.entry(workload).or_default().push(run);
        }
    }
    Ok(set)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (its default exclusive method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    Some([q(1), q(2), q(3)])
}

fn values(runs: &[Run], metric: &str) -> Vec<f64> {
    runs.iter().filter_map(|r| r.get(metric).copied()).collect()
}

fn cell(v: &[f64]) -> String {
    match quartiles(v) {
        Some([q1, med, q3]) => format!("{med:>12.4} [{q1:.4}, {q3:.4}]"),
        None if v.len() == 1 => format!("{:>12.4} [n=1]", v[0]),
        None => format!("{:>12}", "-"),
    }
}

/// BENCHMARK.json's end-to-end metrics: (name, unit, lower is better,
/// bound), and its per-layer metric names.
type Spec = (Vec<(String, String, bool, f64)>, Vec<String>);

fn spec(path: &Path) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| match v.get(key) {
        Some(Value::Arr(a)) => Ok(a.clone()),
        _ => Err(format!("{}: no {key} list", path.display())),
    };
    let e2e = list("end_to_end")?
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("unit")?.as_str()?.to_owned(),
                m.get("better")?.as_str()? == "lower",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("malformed end_to_end entry")?;
    let layers = list("per_layer")?
        .iter()
        .map(|m| Some(m.get("name")?.as_str()?.to_owned()))
        .collect::<Option<Vec<_>>>()
        .ok_or("malformed per_layer entry")?;
    Ok((e2e, layers))
}

/// Layer time metrics: a leaf's busy time is its self time; the two
/// drivers report self time directly.
fn is_self_time(name: &str) -> bool {
    (name.ends_with(".busy_s") && !name.starts_with("service.") && !name.starts_with("engine."))
        || name == "service.self_s"
        || name == "engine.self_s"
}

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare needs two result-set directories".into());
    };
    let dirs = [a, b];
    let (e2e, layers) = spec(Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../BENCHMARK.json"
    )))?;
    let (a, b) = (load(Path::new(&dirs[0]))?, load(Path::new(&dirs[1]))?);
    let mut regressions = 0;
    println!("A = {}, B = {}", dirs[0], dirs[1]);
    let workloads: Vec<&String> = a.e2e.keys().chain(a.traced.keys()).collect();
    let mut seen = std::collections::BTreeSet::new();
    for w in workloads.into_iter().filter(|w| seen.insert(*w)) {
        if let (Some(ra), Some(rb)) = (a.e2e.get(w), b.e2e.get(w)) {
            println!(
                "\n{w}: end to end (A {} runs, B {} runs) — median [q1, q3]",
                ra.len(),
                rb.len()
            );
            for (name, unit, lower, bound) in &e2e {
                let (va, vb) = (values(ra, name), values(rb, name));
                let verdict = match (quartiles(&va), quartiles(&vb)) {
                    (Some([q1, ma, q3]), Some([_, mb, _])) if ma != 0.0 => {
                        let worse = if *lower { mb / ma - 1.0 } else { 1.0 - mb / ma };
                        let spread = (q3 - q1) / ma.abs();
                        if worse > *bound {
                            regressions += 1;
                            format!(
                                "WORSE by {:.1}% (bound {:.0}%)",
                                100.0 * worse,
                                100.0 * bound
                            )
                        } else if spread > *bound {
                            format!(
                                "unresolved: A's spread {:.1}% exceeds the bound",
                                100.0 * spread
                            )
                        } else {
                            format!("{:+.1}% better", 0.0 - 100.0 * worse)
                        }
                    }
                    _ => "too few runs".into(),
                };
                println!(
                    "  {name:<16} {unit:<6} A {}  B {}  {verdict}",
                    cell(&va),
                    cell(&vb)
                );
            }
        }
        if let (Some(ta), Some(tb)) = (a.traced.get(w), b.traced.get(w)) {
            println!("\n{w}: per layer, traced runs (medians)");
            let med = |runs: &[Run], name: &str| {
                let v = values(runs, name);
                quartiles(&v).map(|q| q[1]).or(v.first().copied())
            };
            let mut moved: Option<(f64, &str)> = None;
            for name in &layers {
                let (Some(ma), Some(mb)) = (med(ta, name), med(tb, name)) else {
                    continue;
                };
                if ma == 0.0 && mb == 0.0 {
                    continue;
                }
                let rel = if ma != 0.0 {
                    format!("{:+.1}%", 100.0 * (mb / ma - 1.0))
                } else {
                    "new".into()
                };
                println!("  {name:<36} A {ma:>14.6}  B {mb:>14.6}  {rel}");
                if is_self_time(name) {
                    let per_op = |runs: &[Run], m: f64| {
                        m / med(runs, "ops").filter(|o| *o > 0.0).unwrap_or(1.0)
                    };
                    let delta = per_op(tb, mb) - per_op(ta, ma);
                    if moved.is_none_or(|(d, _)| delta.abs() > d.abs()) {
                        moved = Some((delta, name));
                    }
                }
            }
            if let Some((delta, name)) = moved {
                println!(
                    "  self time per op moved most in {name}: {:+.3} us per traced op",
                    delta * 1e6
                );
            }
        }
    }
    println!("\n{regressions} workload x metric pairs worse than their bound");
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}

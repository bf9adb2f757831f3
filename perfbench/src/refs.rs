//! Reference outputs and the tolerance check behind `success_ratio`.
//!
//! A reference file holds the expected output of every op a workload can
//! run (a grid cell's row, an instance's Monte Carlo estimates) as f64s
//! in shortest round-trip form, so parsing restores every bit. The
//! workloads draw their inputs from a fixed universe that the seed picks
//! from, so one recording covers every seed.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

/// Relative tolerance: an output this close to its reference passes,
/// though it is not bit-identical (a reordered reduction would land
/// here); anything further fails its op.
pub const REL_TOL: f64 = 1e-9;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    BitIdentical,
    WithinTol,
    Outside,
}

/// Compares an op's output with its reference, value by value.
pub fn verdict(got: &[f64], want: &[f64]) -> Verdict {
    if got.len() != want.len() {
        return Verdict::Outside;
    }
    if got
        .iter()
        .zip(want)
        .all(|(a, b)| a.to_bits() == b.to_bits())
    {
        return Verdict::BitIdentical;
    }
    let close = |a: f64, b: f64| (a - b).abs() <= REL_TOL * a.abs().max(b.abs());
    if got.iter().zip(want).all(|(&a, &b)| close(a, b)) {
        Verdict::WithinTol
    } else {
        Verdict::Outside
    }
}

/// Counts of verdicts over a run's checked ops.
#[derive(Default)]
pub struct Tally {
    pub bit_identical: u64,
    pub within_tol: u64,
    pub outside: u64,
}

impl Tally {
    /// Records one verdict; true if the op passes.
    pub fn add(&mut self, v: Verdict) -> bool {
        match v {
            Verdict::BitIdentical => self.bit_identical += 1,
            Verdict::WithinTol => self.within_tol += 1,
            Verdict::Outside => self.outside += 1,
        }
        v != Verdict::Outside
    }

    pub fn log(&self, workload: &str) {
        eprintln!(
            "{workload}: ops against recorded references: {} bit-identical, \
             {} within rel {REL_TOL:e}, {} outside",
            self.bit_identical, self.within_tol, self.outside
        );
    }
}

/// A workload's recorded references: op key → values. The keys cover
/// the workload's whole universe of inputs, which does not depend on
/// the seed, so every seed a run may be given is covered.
#[derive(Default)]
pub struct RefTable {
    ops: BTreeMap<u64, Vec<f64>>,
}

impl RefTable {
    /// The reference of op `key`; an error when the recording lacks it.
    pub fn get(&self, key: u64) -> Result<&[f64], String> {
        self.ops
            .get(&key)
            .map(Vec::as_slice)
            .ok_or_else(|| format!("no reference for op {key}; re-record with `perfbench record`"))
    }

    pub fn insert(&mut self, key: u64, values: Vec<f64>) {
        self.ops.insert(key, values);
    }

    pub fn load(path: &Path) -> Result<RefTable, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::parse(&text, &path.display().to_string())
    }

    /// Parses a table's text; `origin` names it in errors.
    pub fn parse(text: &str, origin: &str) -> Result<RefTable, String> {
        let mut table = RefTable::default();
        for (n, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let bad = || format!("{origin}:{}: malformed reference line", n + 1);
            let mut words = line.split_whitespace();
            let key: u64 = words.next().and_then(|w| w.parse().ok()).ok_or_else(bad)?;
            let values = words
                .map(|w| w.parse::<f64>().map_err(|_| bad()))
                .collect::<Result<Vec<f64>, String>>()?;
            table.insert(key, values);
        }
        Ok(table)
    }

    /// The table's text form.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# perfbench references: op key, then the op's outputs \
             (f64, shortest round-trip). Regenerate with `perfbench record`.\n",
        );
        for (key, values) in &self.ops {
            let vals: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
            out.push_str(&format!("{key} {}\n", vals.join(" ")));
        }
        out
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.render().as_bytes())?;
        f.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_separate_bits_from_tolerance() {
        assert_eq!(verdict(&[1.0, 2.0], &[1.0, 2.0]), Verdict::BitIdentical);
        assert_eq!(
            verdict(&[1.0 + 1e-12, 2.0], &[1.0, 2.0]),
            Verdict::WithinTol
        );
        assert_eq!(verdict(&[1.0 + 1e-6, 2.0], &[1.0, 2.0]), Verdict::Outside);
        assert_eq!(verdict(&[1.0], &[1.0, 2.0]), Verdict::Outside);
        assert_eq!(verdict(&[f64::NAN], &[1.0]), Verdict::Outside);
    }

    #[test]
    fn tables_round_trip_every_bit() {
        let mut t = RefTable::default();
        let v = vec![0.1 + 0.2, 1e-300, 12345.678901234567, 3.0];
        t.insert(2, v.clone());
        let back = RefTable::parse(&t.render(), "t").unwrap();
        assert_eq!(verdict(back.get(2).unwrap(), &v), Verdict::BitIdentical);
        assert!(back.get(3).is_err());
        assert!(RefTable::parse("x 1.0", "t").is_err());
        assert!(RefTable::parse("7 1.0 y", "t").is_err());
    }
}

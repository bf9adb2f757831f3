//! Stage-resolution tracking.
//!
//! Incremental recomputation is easy to get silently wrong in both
//! directions: under-invalidation returns stale artifacts,
//! over-invalidation quietly recomputes everything and the "incremental"
//! service is incremental in name only. The [`Tracker`] makes both
//! failure modes *assertable*: every stage resolution counts whether
//! the artifact was executed or served from the store, and tests pin
//! the exact set of stages a given what-if must re-run (the
//! invalidation matrix in `tests/invalidation.rs`).

use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

use ckpt_core::{ErrorKind, StageId};

/// How a stage resolution was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The stage function ran and produced a fresh artifact.
    Executed,
    /// The artifact came from the store (or was already in hand, for a
    /// provided workflow).
    Cached,
    /// The stage resolution surfaced a typed error instead of an
    /// artifact. Carries *how* it failed — the error kind and how many
    /// compute attempts were made — so chaos tests can assert the
    /// failure mode, not just its existence.
    Failed {
        /// Compute attempts behind the error (see
        /// `ckpt_core::PlanError::attempts`).
        attempts: u32,
        /// Coarse classification of the error.
        kind: ErrorKind,
    },
}

/// Counts stage resolutions across a session's queries.
///
/// Per stage it counts executed and cached resolutions, and it keeps
/// every failure in record order: memory stays bounded by the stage
/// count while resolutions succeed, however long the session runs.
/// [`Tracker::executed`] / [`Tracker::cached`] / [`Tracker::failed`]
/// give order-free set views.
///
/// The mutex recovers from poisoning: a batch worker that dies between
/// `record` calls (a stage panic escaping past its catch boundary)
/// leaves fully valid counts — each `record` either updated them or it
/// didn't — and the observer reading them must not be the second
/// casualty of a worker that already reported its own failure.
#[derive(Default)]
pub struct Tracker {
    counts: Mutex<Counts>,
}

#[derive(Default)]
struct Counts {
    /// Executed resolutions, indexed by `StageId`.
    executed: [usize; StageId::ALL.len()],
    /// Cached resolutions, indexed by `StageId`.
    cached: [usize; StageId::ALL.len()],
    /// Every failed resolution: stage, attempt count and error kind.
    failures: Vec<(StageId, u32, ErrorKind)>,
}

/// The stages with a nonzero count.
fn stages_with(counts: &[usize]) -> BTreeSet<StageId> {
    StageId::ALL
        .into_iter()
        .filter(|&s| counts[s as usize] > 0)
        .collect()
}

impl Tracker {
    /// Empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Counts> {
        self.counts.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Counts one resolution of `stage`.
    pub fn record(&self, stage: StageId, outcome: Outcome) {
        let mut c = self.lock();
        match outcome {
            Outcome::Executed => c.executed[stage as usize] += 1,
            Outcome::Cached => c.cached[stage as usize] += 1,
            Outcome::Failed { attempts, kind } => c.failures.push((stage, attempts, kind)),
        }
    }

    /// The set of stages that *executed* since the last clear.
    pub fn executed(&self) -> BTreeSet<StageId> {
        stages_with(&self.lock().executed)
    }

    /// The set of stages served from cache since the last clear.
    pub fn cached(&self) -> BTreeSet<StageId> {
        stages_with(&self.lock().cached)
    }

    /// The set of stages whose resolution failed since the last clear.
    pub fn failed(&self) -> BTreeSet<StageId> {
        self.lock()
            .failures
            .iter()
            .map(|&(stage, ..)| stage)
            .collect()
    }

    /// Every failure since the last clear, with its attempt count and
    /// error kind, in record order.
    pub fn failures(&self) -> Vec<(StageId, u32, ErrorKind)> {
        self.lock().failures.clone()
    }

    /// Number of executions of one stage since the last clear.
    pub fn executed_count(&self, stage: StageId) -> usize {
        self.lock().executed[stage as usize]
    }

    /// Forgets all counts (typically called between what-if queries so
    /// each assertion sees exactly one query's stage set).
    pub fn clear(&self) {
        *self.lock() = Counts::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_classifies() {
        let t = Tracker::new();
        t.record(StageId::Schedule, Outcome::Executed);
        t.record(StageId::Curve, Outcome::Cached);
        t.record(StageId::Placement, Outcome::Executed);
        assert_eq!(
            t.executed(),
            [StageId::Schedule, StageId::Placement]
                .into_iter()
                .collect()
        );
        assert_eq!(t.cached(), [StageId::Curve].into_iter().collect());
        assert_eq!(t.executed_count(StageId::Placement), 1);
        t.clear();
        assert!(t.executed().is_empty() && t.cached().is_empty() && t.failed().is_empty());
    }

    #[test]
    fn failed_outcomes_classify_separately_and_carry_the_mode() {
        let t = Tracker::new();
        t.record(
            StageId::Placement,
            Outcome::Failed {
                attempts: 3,
                kind: ErrorKind::StageFailed,
            },
        );
        t.record(StageId::Schedule, Outcome::Executed);
        t.record(
            StageId::EvalMc,
            Outcome::Failed {
                attempts: 1,
                kind: ErrorKind::Cancelled,
            },
        );
        assert_eq!(
            t.failed(),
            [StageId::Placement, StageId::EvalMc].into_iter().collect()
        );
        assert_eq!(t.executed(), [StageId::Schedule].into_iter().collect());
        assert!(t.cached().is_empty());
        assert_eq!(
            t.failures(),
            vec![
                (StageId::Placement, 3, ErrorKind::StageFailed),
                (StageId::EvalMc, 1, ErrorKind::Cancelled),
            ]
        );
    }

    #[test]
    fn poisoned_tracker_keeps_observing() {
        use std::sync::Arc;
        let t = Arc::new(Tracker::new());
        t.record(StageId::Schedule, Outcome::Executed);
        let t2 = t.clone();
        // Die while holding the count lock: the counts are still valid
        // (each record is atomic w.r.t. the lock), so observers must
        // recover.
        let _ = std::thread::spawn(move || {
            let _g = t2.counts.lock().unwrap();
            panic!("worker dies mid-observation");
        })
        .join();
        t.record(StageId::Curve, Outcome::Cached);
        assert_eq!(t.cached(), [StageId::Curve].into_iter().collect());
        assert_eq!(t.executed_count(StageId::Schedule), 1);
    }
}

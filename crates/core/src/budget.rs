//! Cooperative cancellation and deadline budgets.
//!
//! The planning hot loops (the checkpoint DP's `O(n²)` sweep, the
//! Monte Carlo replication loop) can run for seconds on large inputs; a
//! serving layer needs a way to abandon them mid-flight without leaving
//! a thread spinning or a partial artifact in a cache. A [`Budget`] is
//! the cooperative half of that contract: the DP and policy loops call
//! [`Budget::check`] at coarse intervals (once per DP row or
//! superchain), and an expired budget aborts the computation.
//!
//! The Monte Carlo never calls `check`: its replications run on scoped
//! worker threads, where an unwind would re-raise through the join.
//! It polls [`Budget::is_exhausted`] instead, once per replication,
//! through `failsim::montecarlo_segments_model_abortable`, which
//! returns `None` — no estimate — once the budget is spent.
//!
//! ## Abort mechanism
//!
//! Threading `Result` through every DP inner call would contaminate a
//! deep, hot call graph whose callers (the offline experiment grids)
//! never cancel. Instead `check` unwinds with a typed [`Cancelled`]
//! payload — the same technique Salsa and similar incremental engines
//! use — and the one place that runs stages speculatively
//! (`ckpt_service`'s memo layer) catches the unwind, classifies the
//! payload, and turns it into `PlanError::Cancelled`. Nothing partial
//! is ever cached: the unwind destroys the stage's locals before the
//! memo slot is filled.
//!
//! A `Budget` is cheap to poll (`Instant::now` plus one atomic load)
//! and clone-free to share: stages receive `Option<&Budget>` via
//! `CostCtx` and check it only when present, so the offline paths pay a
//! single well-predicted branch.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The typed unwind payload of a cooperative cancellation. Catchers
/// (`ckpt_service::Memo`) downcast panic payloads to this type to
/// distinguish "budget expired" from a genuine stage death.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled;

impl Cancelled {
    /// Begins the cancellation unwind. Never returns.
    pub fn throw() -> ! {
        std::panic::panic_any(Cancelled)
    }

    /// Whether a caught panic payload is a cancellation unwind.
    pub fn caught(payload: &(dyn std::any::Any + Send)) -> bool {
        payload.downcast_ref::<Cancelled>().is_some()
    }
}

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("cancelled (deadline or budget expired)")
    }
}

/// A cooperative cancellation/deadline budget shared between a request
/// and the stages computing it.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    cancelled: Arc<AtomicBool>,
}

impl Budget {
    /// A budget that never expires on its own (but can still be
    /// [`Budget::cancel`]led).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// A budget expiring `limit` from now.
    pub fn with_deadline(limit: Duration) -> Self {
        Budget {
            deadline: Some(Instant::now() + limit),
            cancelled: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Marks the budget cancelled; every sharer's next [`Budget::check`]
    /// aborts.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the budget has been cancelled or its deadline passed.
    pub fn is_exhausted(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Cooperative cancellation point: unwinds with [`Cancelled`] when
    /// the budget is exhausted. Call at coarse intervals from hot loops.
    #[inline]
    pub fn check(&self) {
        if self.is_exhausted() {
            Cancelled::throw()
        }
    }

    /// [`Budget::check`] as a `Result`, for code already on a fallible
    /// path (stage boundaries rather than hot loops).
    pub fn check_ok(&self) -> Result<(), Cancelled> {
        if self.is_exhausted() {
            Err(Cancelled)
        } else {
            Ok(())
        }
    }
}

/// Installs (once, process-wide) a panic hook that stays silent for
/// [`Cancelled`] unwinds and for `seedmix` injected-fault panics, and
/// delegates everything else to the previously installed hook.
/// Cancellation and injected faults are *control flow* on the serving
/// path — caught, classified, and retried a few frames up — so the
/// default hook's "thread panicked" stderr chatter is pure noise there.
/// Callers that arm a deadline or a fault plan invoke this lazily; the
/// offline binaries never do, so their crash diagnostics are untouched.
pub fn install_quiet_unwind_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let quiet = info.payload().downcast_ref::<Cancelled>().is_some()
                || info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.starts_with(seedmix::faultinject::PANIC_PREFIX))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.starts_with(seedmix::faultinject::PANIC_PREFIX));
            if !quiet {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        assert!(!b.is_exhausted());
        b.check(); // must not unwind
        assert!(b.check_ok().is_ok());
    }

    #[test]
    fn cancel_trips_all_clones() {
        let b = Budget::unlimited();
        let c = b.clone();
        b.cancel();
        assert!(c.is_exhausted());
        assert!(c.check_ok().is_err());
    }

    #[test]
    fn deadline_in_the_past_trips_immediately() {
        let b = Budget::with_deadline(Duration::ZERO);
        assert!(b.is_exhausted());
    }

    #[test]
    fn check_unwinds_with_a_recognizable_payload() {
        let b = Budget::with_deadline(Duration::ZERO);
        let err = std::panic::catch_unwind(|| b.check()).unwrap_err();
        assert!(Cancelled::caught(err.as_ref()));
        // An ordinary panic payload must NOT classify as cancellation.
        let err = std::panic::catch_unwind(|| panic!("plain")).unwrap_err();
        assert!(!Cancelled::caught(err.as_ref()));
    }
}

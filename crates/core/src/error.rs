//! Typed failure taxonomy of the planning stack.
//!
//! The serving path (`ckpt_service`) must never answer a query by
//! crashing the process or by handing back a silently-wrong number:
//! every way a stage can fail is named here, and the stage functions
//! ([`crate::stage`]) plus the session/store API return [`PlanError`]
//! instead of panicking. The offline experiment grids keep their
//! fail-fast behavior by unwrapping at a single documented funnel
//! (`Pipeline`), where inputs are valid by construction.
//!
//! The taxonomy is deliberately small — callers branch on *kind*, not
//! on message text:
//!
//! * [`PlanError::InvalidInput`] — the request itself is malformed
//!   (NaN pfail, zero processors, negative task weight, …). Never
//!   retried: the same request can only fail the same way.
//! * [`PlanError::Numeric`] — a stage produced a non-finite or
//!   otherwise meaningless number from inputs that passed validation.
//!   A bug or a model pushed outside its domain; surfaced, not served.
//! * [`PlanError::Cancelled`] — a cooperative deadline/cancellation
//!   budget ([`crate::budget::Budget`]) expired mid-stage. The partial
//!   work is discarded; nothing is cached.
//! * [`PlanError::StageFailed`] — a stage died (panicked or hit an
//!   injected fault) while computing. Carries the stage, the captured
//!   panic message, and how many attempts the memo layer made before
//!   giving up (see `ckpt_service::Memo`'s bounded retry).

use crate::stage::StageId;

/// Everything the planning stack can return instead of an answer.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanError {
    /// The request is malformed; re-running it cannot succeed.
    InvalidInput {
        /// Which input field or parameter was rejected.
        field: &'static str,
        /// Human-readable description of the violation.
        message: String,
    },
    /// A stage produced a non-finite / meaningless value from inputs
    /// that passed validation.
    Numeric {
        /// The stage whose output was rejected.
        stage: StageId,
        /// What was wrong with the number.
        message: String,
    },
    /// A cooperative cancellation/deadline budget expired.
    Cancelled,
    /// A stage panicked (or hit an injected fault) while computing.
    StageFailed {
        /// The stage that died.
        stage: StageId,
        /// The captured panic payload (or injected-fault description).
        message: String,
        /// Attempts the memo layer made before surfacing the error.
        attempts: u32,
    },
}

/// Coarse classification of a [`PlanError`] — the part of a failure
/// that trackers, spans, and metrics carry without holding onto the
/// message. One variant per [`PlanError`] variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ErrorKind {
    /// See [`PlanError::InvalidInput`].
    InvalidInput,
    /// See [`PlanError::Numeric`].
    Numeric,
    /// See [`PlanError::Cancelled`].
    Cancelled,
    /// See [`PlanError::StageFailed`].
    StageFailed,
}

impl ErrorKind {
    /// Stable snake_case label (metric label values, trace output).
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::InvalidInput => "invalid_input",
            ErrorKind::Numeric => "numeric",
            ErrorKind::Cancelled => "cancelled",
            ErrorKind::StageFailed => "stage_failed",
        }
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl PlanError {
    /// Convenience constructor for [`PlanError::InvalidInput`].
    pub fn invalid(field: &'static str, message: impl Into<String>) -> Self {
        PlanError::InvalidInput {
            field,
            message: message.into(),
        }
    }

    /// The coarse kind of this error (what failure trackers record).
    pub fn kind(&self) -> ErrorKind {
        match self {
            PlanError::InvalidInput { .. } => ErrorKind::InvalidInput,
            PlanError::Numeric { .. } => ErrorKind::Numeric,
            PlanError::Cancelled => ErrorKind::Cancelled,
            PlanError::StageFailed { .. } => ErrorKind::StageFailed,
        }
    }

    /// How many times the failing computation was attempted. Stage
    /// deaths carry the memo layer's retry count; every other kind is
    /// deterministic, so the one run that produced it is the count.
    pub fn attempts(&self) -> u32 {
        match self {
            PlanError::StageFailed { attempts, .. } => *attempts,
            _ => 1,
        }
    }
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::InvalidInput { field, message } => {
                write!(f, "invalid input `{field}`: {message}")
            }
            PlanError::Numeric { stage, message } => {
                write!(f, "numeric failure in stage `{stage}`: {message}")
            }
            PlanError::Cancelled => write!(f, "cancelled (deadline or budget expired)"),
            PlanError::StageFailed {
                stage,
                message,
                attempts,
            } => write!(
                f,
                "stage `{stage}` failed after {attempts} attempt(s): {message}"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// Result alias used across the fallible planning API.
pub type PlanResult<T> = Result<T, PlanError>;

/// Ensures `v` is finite, mapping violations to
/// [`PlanError::InvalidInput`] on `field`.
pub fn require_finite(field: &'static str, v: f64) -> PlanResult<f64> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(PlanError::invalid(
            field,
            format!("must be finite, got {v}"),
        ))
    }
}

/// Ensures `v` is finite and strictly positive.
pub fn require_positive(field: &'static str, v: f64) -> PlanResult<f64> {
    require_finite(field, v)?;
    if v > 0.0 {
        Ok(v)
    } else {
        Err(PlanError::invalid(
            field,
            format!("must be strictly positive, got {v}"),
        ))
    }
}

/// Ensures `v` is a valid per-task failure probability, `[0, 1)`.
pub fn require_pfail(field: &'static str, v: f64) -> PlanResult<f64> {
    require_finite(field, v)?;
    if (0.0..1.0).contains(&v) {
        Ok(v)
    } else {
        Err(PlanError::invalid(
            field,
            format!("must be in [0, 1), got {v}"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_kind_and_context() {
        let e = PlanError::invalid("pfail", "must be in [0, 1), got NaN");
        assert!(e.to_string().contains("pfail"));
        let e = PlanError::StageFailed {
            stage: StageId::Placement,
            message: "boom".into(),
            attempts: 3,
        };
        let s = e.to_string();
        assert!(s.contains("placement") && s.contains("3") && s.contains("boom"));
        assert!(PlanError::Cancelled.to_string().contains("cancelled"));
    }

    #[test]
    fn kinds_and_attempts_classify_every_variant() {
        assert_eq!(
            ErrorKind::InvalidInput,
            PlanError::invalid("x", "bad").kind()
        );
        assert_eq!(ErrorKind::Cancelled, PlanError::Cancelled.kind());
        let numeric = PlanError::Numeric {
            stage: StageId::EvalAnalytic,
            message: "NaN".into(),
        };
        assert_eq!(ErrorKind::Numeric, numeric.kind());
        assert_eq!(1, numeric.attempts());
        let died = PlanError::StageFailed {
            stage: StageId::Curve,
            message: "boom".into(),
            attempts: 3,
        };
        assert_eq!(ErrorKind::StageFailed, died.kind());
        assert_eq!(3, died.attempts());
        assert_eq!("stage_failed", died.kind().name());
        assert_eq!("cancelled", ErrorKind::Cancelled.to_string());
    }

    #[test]
    fn validators_accept_and_reject_boundaries() {
        assert!(require_pfail("p", 0.0).is_ok());
        assert!(require_pfail("p", 0.999).is_ok());
        assert!(require_pfail("p", 1.0).is_err());
        assert!(require_pfail("p", f64::NAN).is_err());
        assert!(require_positive("w", 1e-300).is_ok());
        assert!(require_positive("w", 0.0).is_err());
        assert!(require_positive("w", f64::INFINITY).is_err());
        assert!(require_finite("b", -3.0).is_ok());
    }
}

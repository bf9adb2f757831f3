//! The execution platform model.

use crate::failure_model::FailureModel;

/// A homogeneous failure-prone platform (§II): `n_procs` identical
/// processors with independent fail-stop failures drawn from `model`
/// (the paper's exponential process, or any [`FailureModel`]), sharing
/// stable storage of bandwidth `bandwidth` bytes/s.
///
/// Reading or writing a file of `s` bytes takes `s / bandwidth` seconds;
/// in-memory transfers between tasks cost nothing (the paper's model —
/// only stable-storage traffic is priced).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Platform {
    /// Number of processors.
    pub n_procs: usize,
    /// Per-processor failure distribution (renewal process: each reboot
    /// or restart rejuvenates the processor).
    pub model: FailureModel,
    /// Stable-storage bandwidth (bytes/s).
    pub bandwidth: f64,
}

impl Platform {
    /// Creates the paper's exponential platform, validating the
    /// parameters.
    pub fn new(n_procs: usize, lambda: f64, bandwidth: f64) -> Self {
        Platform::with_model(n_procs, FailureModel::exponential(lambda), bandwidth)
    }

    /// Creates a platform with an arbitrary failure model.
    pub fn with_model(n_procs: usize, model: FailureModel, bandwidth: f64) -> Self {
        assert!(n_procs >= 1, "need at least one processor");
        assert!(bandwidth > 0.0 && bandwidth.is_finite(), "bad bandwidth");
        Platform {
            n_procs,
            model,
            bandwidth,
        }
    }

    /// The paper's processor counts for each workflow size (§VI, figures
    /// 5–7): 50 → {3,5,7,10}, 300 → {18,35,52,70}, 1000 → {61,123,184,245}.
    pub fn paper_proc_counts(n_tasks: usize) -> &'static [usize] {
        match n_tasks {
            0..=149 => &[3, 5, 7, 10],
            150..=649 => &[18, 35, 52, 70],
            _ => &[61, 123, 184, 245],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_counts() {
        assert_eq!(Platform::paper_proc_counts(50), &[3, 5, 7, 10]);
        assert_eq!(Platform::paper_proc_counts(300), &[18, 35, 52, 70]);
        assert_eq!(Platform::paper_proc_counts(1000), &[61, 123, 184, 245]);
    }

    #[test]
    #[should_panic]
    fn zero_procs_rejected() {
        Platform::new(0, 0.0, 1.0);
    }
}

//! # failsim — discrete-event simulation of fail-stop workflow execution
//!
//! Ground-truth substrate for *Checkpointing Workflows for Fail-Stop
//! Errors* (Han et al., CLUSTER 2017). Where `probdag` evaluates the
//! paper's *first-order model* (Eq. (1)/(2)), this crate simulates the
//! *actual execution processes*, validating the model (experiment E5):
//!
//! * [`segment_exec`] — checkpointed executions (CkptAll / CkptSome /
//!   ExitOnly): segments restart from stable storage, so per-segment
//!   renewal sampling is exact for the execution model;
//! * [`none_exec`] — the CkptNone strategy with full crossover-dependency
//!   cascades: processor failures lose in-memory outputs, consumers demand
//!   transitive producer re-execution (the process whose expectation the
//!   paper proves #P-complete to compute);
//! * [`failure`] — pluggable failure injection: parametric
//!   [`FailureModel`]s (exponential / Weibull / LogNormal) and
//!   deterministic traces, each processor on an independent
//!   splitmix-derived substream;
//! * [`montecarlo`] — seeded, thread-parallel aggregation, one code
//!   path per execution model: [`montecarlo_segments_model_abortable`]
//!   for checkpointed runs, and multilevel splitting behind
//!   [`montecarlo_none_model`] for CkptNone, whose naive estimator is
//!   splitting with zero levels.
//!
//! Every entry point takes a [`FailureModel`]; the paper's exponential
//! process is `FailureModel::exponential(λ)`, which is what
//! `Platform::new` builds.

pub mod failure;
pub mod metrics;
pub mod montecarlo;
pub mod none_exec;
pub mod segment_exec;

pub use ckpt_core::FailureModel;
pub use failure::{FailureSource, ModelFailures, ModelSampler, TraceFailures};
pub use metrics::{ExecStats, McStats};
pub use montecarlo::{
    montecarlo_none_model, montecarlo_segments_model, montecarlo_segments_model_abortable,
    Estimator, NoneMcStats, SimConfig, SplitConfig,
};
pub use none_exec::{simulate_none, simulate_none_reference, Diverged};
pub use segment_exec::simulate_segments_model;

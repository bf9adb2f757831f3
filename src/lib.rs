//! # ckpt-workflows
//!
//! A full Rust implementation of *Checkpointing Workflows for Fail-Stop
//! Errors* (Li Han, Louis-Claude Canon, Henri Casanova, Yves Robert,
//! Frédéric Vivien — IEEE CLUSTER 2017): scheduling Minimal
//! Series-Parallel Graph (M-SPG) workflows on failure-prone platforms and
//! deciding which task outputs to checkpoint so as to minimize the
//! expected makespan.
//!
//! This umbrella crate re-exports the workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`seedmix`] | shared splitmix64 seed derivation and thread-budget resolution |
//! | [`mspg`] | task/file/edge DAGs, recursive M-SPG structure, decomposition, linearization, recognition, dummy-edge patching |
//! | [`pegasus`] | synthetic Pegasus-like generators (Genome / Montage / Ligo), CCR control, text serialization |
//! | [`probdag`] | 2-state probabilistic DAG evaluators: MonteCarlo, Dodin, Normal (Sculli), PathApprox, exact oracle |
//! | [`ckpt_core`] | the paper's algorithms: `Allocate`/`PropMap` scheduling, the checkpoint-placement DP, segment coalescing, CkptAll/CkptNone/CkptSome |
//! | [`failsim`] | discrete-event fail-stop simulation, including CkptNone crossover cascades |
//!
//! ## Example
//!
//! ```
//! use ckpt_workflows::prelude::*;
//!
//! // A 50-task Epigenomics workflow on 5 processors with a 0.1% per-task
//! // failure probability.
//! let workflow = pegasus::generate(pegasus::WorkflowClass::Genome, 50, 7);
//! let lambda = lambda_from_pfail(0.001, workflow.dag.mean_weight());
//! let platform = Platform::new(5, lambda, 1e8);
//! let pipe = Pipeline::new(&workflow, platform, &AllocateConfig::default());
//!
//! let some = pipe.assess(&DpOptimalPolicy, &PathApprox::default());
//! let all = pipe.assess(&CkptAllPolicy, &PathApprox::default());
//! let none = pipe.assess_none(); // CkptNone: Theorem 1, no placement
//! assert!(some.expected_makespan <= all.expected_makespan * 1.02);
//! assert!(some.n_checkpoints <= all.n_checkpoints);
//! assert_eq!(none.policy, "CkptNone");
//! ```

pub use ckpt_core;
pub use failsim;
pub use mspg;
pub use pegasus;
pub use probdag;
pub use seedmix;

/// One-stop imports for the common pipeline.
pub mod prelude {
    pub use ckpt_core::{
        allocate, lambda_from_pfail, optimal_checkpoints, theorem1, theorem1_model, AllocateConfig,
        Assessment, CheckpointPlan, CheckpointPolicy, CkptAllPolicy, CostCtx, DalyPeriodic,
        DpOptimalPolicy, ExitOnlyPolicy, FailureModel, GreedyCrossover, Pipeline, Platform,
        RiskThreshold, Schedule, SegmentGraph, Superchain,
    };
    pub use failsim::{simulate_none, simulate_segments_model, ModelFailures, SimConfig};
    pub use mspg::{Dag, Mspg, TaskId, Workflow};
    pub use pegasus::WorkflowClass;
    pub use probdag::{Dodin, Evaluator, MonteCarlo, NormalSculli, PathApprox, ProbDag};
    pub use seedmix::{splitmix64, stream_seed};
}

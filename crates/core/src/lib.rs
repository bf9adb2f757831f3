//! # ckpt-core — scheduling and checkpointing M-SPG workflows for
//! fail-stop errors
//!
//! The primary contribution of *Checkpointing Workflows for Fail-Stop
//! Errors* (Han, Canon, Casanova, Robert, Vivien — IEEE CLUSTER 2017),
//! implemented in full:
//!
//! * [`allocate`] / [`propmap`] — Algorithm 1: the recursive
//!   proportional-mapping list scheduler that decomposes an M-SPG as
//!   `C ⊳ (G1 ∥ … ∥ Gn) ⊳ Gn+1` and linearizes sub-graphs into
//!   **superchains**;
//! * [`checkpoint_dp`] — Algorithm 2: the `O(n²)` dynamic program placing
//!   checkpoints inside a superchain under the extended checkpoint
//!   semantics (Eq. (2) costs, per-file deduplication), always
//!   checkpointing superchain exits to remove crossover dependencies;
//! * [`coalesce`] — §II-C: coalescing checkpoint-delimited segments into a
//!   2-state probabilistic DAG evaluable by the `probdag` estimators;
//! * [`evaluate`] — the three strategies of §VI behind a single
//!   [`evaluate::Pipeline`]: **CkptAll** and **CkptSome** (and the naive
//!   exit-only ablation) are placement policies, **CkptNone** places
//!   nothing and is assessed by Theorem 1;
//! * [`pfail`] / [`platform`] — the `pfail ↔ λ` normalization and platform
//!   model of §VI-A;
//! * [`failure_model`] — the pluggable failure-distribution subsystem
//!   (Exponential / Weibull / LogNormal) behind every cost path: Eq. (2)
//!   stays closed-form for the exponential case, non-memoryless models
//!   ride an exact renewal solve by deterministic quadrature;
//! * [`policy`] — the pluggable checkpoint-placement subsystem: the
//!   paper's placements as builtin [`policy::CheckpointPolicy`]s
//!   ([`CkptAllPolicy`], [`DpOptimalPolicy`], [`ExitOnlyPolicy`]) plus
//!   classical competitors — Young/Daly periodic, adaptive
//!   risk-threshold, and the structural crossover heuristic;
//! * [`stage`] / [`fingerprint`] — the pipeline as an explicit **stage
//!   graph**: each step a pure function from content-fingerprinted
//!   inputs to one artifact, which is what lets the `ckpt_service`
//!   crate answer what-if queries by re-executing only the stages a
//!   change touches.
//!
//! ## Quickstart
//!
//! ```
//! use ckpt_core::allocate::AllocateConfig;
//! use ckpt_core::evaluate::Pipeline;
//! use ckpt_core::pfail::lambda_from_pfail;
//! use ckpt_core::platform::Platform;
//! use ckpt_core::policy::{CkptAllPolicy, DpOptimalPolicy};
//! use probdag::PathApprox;
//!
//! let workflow = pegasus::generate(pegasus::WorkflowClass::Genome, 50, 42);
//! let lambda = lambda_from_pfail(0.001, workflow.dag.mean_weight());
//! let platform = Platform::new(5, lambda, 1e8);
//! let pipe = Pipeline::new(&workflow, platform, &AllocateConfig::default());
//! let some = pipe.assess(&DpOptimalPolicy, &PathApprox::default());
//! let all = pipe.assess(&CkptAllPolicy, &PathApprox::default());
//! let none = pipe.assess_none(); // Theorem 1, no placement
//! assert!(some.expected_makespan <= all.expected_makespan * 1.02);
//! assert_eq!(none.n_checkpoints, 0);
//! ```

pub mod allocate;
pub mod budget;
pub mod checkpoint_dp;
pub mod coalesce;
pub mod error;
pub mod evaluate;
pub mod failure_model;
pub mod fingerprint;
pub mod pfail;
pub mod platform;
pub mod policy;
pub mod propmap;
pub mod schedule;
pub mod stage;

pub use allocate::{allocate, AllocateConfig};
pub use budget::{Budget, Cancelled};
pub use checkpoint_dp::{
    optimal_checkpoints, optimal_checkpoints_reusing, segment_cost, segment_cost_reusing, CostCtx,
    DpScratch, SegmentCost, SegmentCostScratch, KERNEL_MIN_LEN,
};
pub use coalesce::{
    coalesce, coalesce_topology, CheckpointPlan, PlacementStats, Segment, SegmentGraph,
};
pub use error::{ErrorKind, PlanError, PlanResult};
pub use evaluate::{theorem1, theorem1_model, Assessment, Pipeline};
pub use failure_model::{FailureModel, RestartCurve};
pub use fingerprint::{allocate_config_fp, model_fp, plan_fp, workflow_fp, WorkflowFp};
pub use pfail::{lambda_from_pfail, pfail_from_lambda};
pub use platform::Platform;
pub use policy::{
    placement_expected_time, plan_with_policy, plan_with_policy_threads, CheckpointPolicy,
    CkptAllPolicy, DalyPeriodic, DpOptimalPolicy, ExitOnlyPolicy, GreedyCrossover, PolicyScratch,
    RiskThreshold,
};
pub use propmap::{propmap, PropMapResult};
pub use schedule::{Schedule, Superchain};
pub use stage::StageId;

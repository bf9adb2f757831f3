//! # ckpt-service — incremental what-if planning sessions
//!
//! The paper's planner is a one-shot function: workflow → schedule →
//! placement → segment graph → expected makespan. A long-lived planning
//! service needs the opposite shape — "what if λ drifted overnight?",
//! "what if we switch to Daly periodic?", "what if the platform grows
//! to 32 processors?" — answered in microseconds, not by rebuilding the
//! chain from scratch per query.
//!
//! This crate provides that shape on top of `ckpt_core`'s explicit
//! stage graph (`ckpt_core::stage`):
//!
//! * [`Store`] / [`Memo`] — bounded, concurrent, fingerprint-keyed
//!   artifact caches with deterministic LRU eviction. Stages are pure,
//!   so hits are always sound and eviction only ever costs a recompute.
//! * [`Session`] — holds one set of planning [`Inputs`] and answers
//!   [`WhatIf`] queries (λ drift, model/policy swap, platform rescale,
//!   workflow edit) by re-executing exactly the stages whose input
//!   fingerprints changed. Batched queries fan out on a thread pool and
//!   stay byte-identical for every budget.
//! * [`Tracker`] — counts, per stage, whether resolutions executed or
//!   were served from the store, so tests can assert the
//!   invalidation matrix exactly (a λ drift re-runs curve + placement +
//!   evaluate, plus the segment topology iff the placement changed,
//!   and nothing else; a no-op runs nothing).
//!
//! ```
//! use ckpt_service::{Inputs, ModelSpec, Session, WhatIf, WorkflowSource};
//!
//! let source = WorkflowSource::Generated {
//!     class: pegasus::WorkflowClass::Montage,
//!     size: 50,
//!     seed: 7,
//!     ccr: Some(0.05),
//! };
//! let inputs = Inputs::basic(source, 8, 1e8, ModelSpec::Exponential { pfail: 1e-3 });
//! let mut session = Session::new(inputs);
//! let before = session.baseline();
//! // λ drifted overnight: only curve/placement/evaluate re-run (and
//! // the segment topology, if the placement moved).
//! let after = session.query(&WhatIf::SetPfail(2e-3));
//! assert!(after.expected_makespan >= before.expected_makespan);
//! session.apply(&WhatIf::SetPfail(2e-3));
//! ```
//!
//! See `DESIGN.md` §10 for the fingerprint scheme and the soundness
//! argument.

pub mod session;
pub mod store;
pub mod tracker;

pub use ckpt_core::{Budget, ErrorKind, PlanError, PlanResult};
pub use session::{
    generate_keyed, schedule_keyed, Answer, EvalSpec, Inputs, McSpec, ModelSpec, PolicySpec,
    Session, WhatIf, WorkflowSource,
};
pub use store::{Memo, MemoStats, PlanArtifact, Store, StoreStats, WorkflowArtifact, MAX_ATTEMPTS};
pub use tracker::{Outcome, Tracker};

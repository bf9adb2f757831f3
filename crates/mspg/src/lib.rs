//! # mspg — Minimal Series-Parallel Graph workflow model
//!
//! This crate implements the workflow-graph substrate of
//! *Checkpointing Workflows for Fail-Stop Errors* (Han, Canon, Casanova,
//! Robert, Vivien — IEEE CLUSTER 2017):
//!
//! * a task/file/edge DAG ([`Dag`]) where every dependence edge carries the
//!   *file* transferred between producer and consumer (a file produced once
//!   may feed many consumers, and checkpoint costs deduplicate by file);
//! * the recursive **M-SPG** structure ([`Mspg`]): atomic tasks, serial
//!   composition `G1 ⊳ G2` (all sinks of `G1` connected to all sources of
//!   `G2`, without merging) and parallel composition `G1 ∥ G2` (disjoint
//!   union);
//! * the `C ⊳ (G1 ∥ … ∥ Gn) ⊳ Gn+1` decomposition used by the paper's
//!   `Allocate` scheduler ([`decompose`]);
//! * linearizations of sub-M-SPGs onto a single processor
//!   ([`linearize`]): structural, seeded-random topological, and a
//!   volume-minimizing heuristic (the sum-cut-inspired refinement from the
//!   paper's future-work section);
//! * recognition of arbitrary DAGs as M-SPGs ([`recognize`]), used to check
//!   that generated workflows are in the class the algorithms require;
//! * the dummy-edge patch applied to incomplete-bipartite Ligo instances
//!   ([`patch`], §VI-A footnote of the paper).

pub mod dag;
pub mod decompose;
pub mod expr;
pub mod file;
pub mod gen;
pub mod linearize;
pub mod normalize;
pub mod patch;
pub mod recognize;
pub mod reduce;
pub mod task;
pub mod workflow;

pub use dag::Dag;
pub use decompose::{decompose, Decomposition};
pub use expr::Mspg;
pub use file::{DataFile, FileId};
pub use gen::{random_workflow, GenConfig};
pub use recognize::{recognize, NotMspg};
pub use reduce::{recognize_gspg, transitive_reduction};
pub use task::{KindId, Task, TaskId};
pub use workflow::Workflow;

//! Content fingerprints of planning inputs.
//!
//! Every stage of the planning pipeline (see [`crate::stage`]) is a
//! pure function of a handful of inputs: the workflow, the failure
//! model, the platform shape, the scheduling configuration, the
//! placement policy. A *fingerprint* is a 64-bit FNV-1a digest
//! ([`seedmix::digest`]) of exactly the content a stage reads — so two
//! equal fingerprints mean "this stage would compute the same artifact",
//! and the incremental `ckpt_service` may reuse a cached one.
//!
//! ## What is (and is not) hashed
//!
//! * [`workflow_fp`] splits the workflow into two digests.
//!   [`WorkflowFp::structure`] covers the task count, every task weight
//!   (exact bits), the task-kind assignment, the full file wiring
//!   (producer / consumers / workflow inputs / primary outputs), the
//!   dependence edges, and the recursive M-SPG expression — everything
//!   the scheduler and planner read *except* file sizes.
//!   [`WorkflowFp::file_sizes`] covers the per-file byte sizes alone.
//!   The split mirrors the engine's schedule-cache soundness argument:
//!   the `Structural` and `RandomTopo` linearizers never read file
//!   sizes, so a CCR rescaling (which only rewrites sizes) leaves the
//!   schedule fingerprint unchanged and the schedule reusable, while
//!   every size-reading stage (placement, coalescing, evaluation) keys
//!   on the combined digest.
//! * Task and file *names* are not hashed: no planning stage reads
//!   them, so a rename must not invalidate anything (early cutoff).
//! * [`model_fp`] hashes the failure-model variant and its exact
//!   parameter bits; [`allocate_config_fp`] the linearizer tag and
//!   seed; [`plan_fp`] a checkpoint plan's flags, so that two policies
//!   (or two failure models) placing the same checkpoints share every
//!   artifact downstream of the plan that does not read the model.
//!
//! Fingerprint equality is treated as content equality (64-bit FNV-1a;
//! see DESIGN.md §10 for why that is acceptable here).

use mspg::linearize::Linearizer;
use mspg::{Mspg, Workflow};
use seedmix::digest::{plan_digest, Fnv1a};

use crate::allocate::AllocateConfig;
use crate::coalesce::CheckpointPlan;
use crate::failure_model::FailureModel;

/// Domain-separation tags, one per fingerprinted artifact kind. Tags
/// keep a workflow digest from ever colliding with, say, a model digest
/// that happens to fold the same words.
pub mod tag {
    /// Workflow structure (topology + weights + wiring + expression).
    pub const WORKFLOW_STRUCTURE: u64 = 0x5747_5354; // "WGST"
    /// Workflow file sizes.
    pub const WORKFLOW_SIZES: u64 = 0x5747_535A; // "WGSZ"
    /// Failure model.
    pub const MODEL: u64 = 0x4d4f_444c; // "MODL"
    /// Allocate (scheduling) configuration.
    pub const ALLOC_CFG: u64 = 0x414c_4346; // "ALCF"
    /// Checkpoint plan.
    pub const PLAN: u64 = 0x504c_414e; // "PLAN"
    /// Generic composition of stage-input fingerprints.
    pub const COMPOSE: u64 = 0x434f_4d50; // "COMP"
}

/// The two-part workflow fingerprint (see module docs for the split).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WorkflowFp {
    /// Digest of everything except file sizes: task count, weights,
    /// kinds, file wiring, edges, and the M-SPG expression.
    pub structure: u64,
    /// Digest of the per-file sizes alone.
    pub file_sizes: u64,
}

impl WorkflowFp {
    /// The combined digest: keys any stage that reads file sizes.
    pub fn combined(&self) -> u64 {
        compose(tag::COMPOSE, &[self.structure, self.file_sizes])
    }
}

/// Fingerprints `w` — one pass over the DAG plus one walk of the
/// expression. Cost is linear in tasks + files + edges; callers cache
/// the result per workflow instance (the service does).
pub fn workflow_fp(w: &Workflow) -> WorkflowFp {
    let dag = &w.dag;
    let mut h = Fnv1a::tagged(tag::WORKFLOW_STRUCTURE);
    h.write_usize(dag.n_tasks()).write_usize(dag.n_files());
    for t in dag.task_ids() {
        h.write_f64(dag.weight(t));
        h.write_word(dag.task(t).kind.0 as u64);
        // Incoming edges identify the topology; hashing preds (not
        // succs) covers every edge exactly once.
        h.write_usize(dag.preds(t).len());
        for &(u, f) in dag.preds(t) {
            h.write_word(u.0 as u64).write_word(f.0 as u64);
        }
        h.write_usize(dag.input_files(t).len());
        for &f in dag.input_files(t) {
            h.write_word(f.0 as u64);
        }
        match dag.primary_output(t) {
            Some(f) => h.write_word(f.0 as u64 + 1),
            None => h.write_word(0),
        };
    }
    for f in dag.file_ids() {
        match dag.producer(f) {
            Some(t) => h.write_word(t.0 as u64 + 1),
            None => h.write_word(0),
        };
        // Consumer lists matter to coalescing's per-file deduplication.
        h.write_usize(dag.consumers(f).len());
        for &t in dag.consumers(f) {
            h.write_word(t.0 as u64);
        }
    }
    write_expr(&mut h, &w.root);
    let structure = h.finish();

    let mut s = Fnv1a::tagged(tag::WORKFLOW_SIZES);
    s.write_usize(dag.n_files());
    for f in dag.file_ids() {
        s.write_f64(dag.file(f).size);
    }
    WorkflowFp {
        structure,
        file_sizes: s.finish(),
    }
}

/// Folds the M-SPG expression into `h` (prefix-free: every node writes
/// a variant tag, containers write their arity). Recursion depth is the
/// expression nesting depth, which is logarithmic-ish for generated
/// workflows (a million-task chain is one flat `Series`).
fn write_expr(h: &mut Fnv1a, e: &Mspg) {
    match e {
        Mspg::Task(t) => {
            h.write_word(1).write_word(t.0 as u64);
        }
        Mspg::Series(cs) => {
            h.write_word(2).write_usize(cs.len());
            for c in cs {
                write_expr(h, c);
            }
        }
        Mspg::Parallel(cs) => {
            h.write_word(3).write_usize(cs.len());
            for c in cs {
                write_expr(h, c);
            }
        }
    }
}

/// Fingerprints a failure model: variant tag + exact parameter bits.
pub fn model_fp(m: &FailureModel) -> u64 {
    let mut h = Fnv1a::tagged(tag::MODEL);
    match *m {
        FailureModel::Exponential { lambda } => {
            h.write_word(1).write_f64(lambda);
        }
        FailureModel::Weibull { shape, scale } => {
            h.write_word(2).write_f64(shape).write_f64(scale);
        }
        FailureModel::LogNormal { mu, sigma } => {
            h.write_word(3).write_f64(mu).write_f64(sigma);
        }
    }
    h.finish()
}

/// Fingerprints a scheduling configuration: linearizer tag + seed.
pub fn allocate_config_fp(cfg: &AllocateConfig) -> u64 {
    let mut h = Fnv1a::tagged(tag::ALLOC_CFG);
    h.write_word(linearizer_tag(cfg.linearizer));
    h.write_word(cfg.seed);
    h.finish()
}

/// Fingerprints a checkpoint plan: its length and the placement digest
/// of its flags ([`plan_digest`], one word per flag — packing 64 flags
/// to a word would let word-wise FNV-1a confuse flags that sit at the
/// same high bit of different words).
pub fn plan_fp(plan: &CheckpointPlan) -> u64 {
    let flags = &plan.ckpt_after;
    compose(tag::PLAN, &[flags.len() as u64, plan_digest(flags)])
}

/// Stable numeric tag of a linearizer (also the engine cache key part).
pub fn linearizer_tag(l: Linearizer) -> u64 {
    match l {
        Linearizer::Structural => 0,
        Linearizer::RandomTopo => 1,
        Linearizer::MinVolume => 2,
    }
}

/// Does this linearizer read file sizes? `MinVolume` orders by live
/// data volume, so its schedules must key on the combined workflow
/// digest; the structure-driven linearizers stay CCR-invariant.
pub fn linearizer_reads_file_sizes(l: Linearizer) -> bool {
    matches!(l, Linearizer::MinVolume)
}

/// Composes part-fingerprints into one stage-input fingerprint
/// (order-sensitive, domain-tagged).
pub fn compose(tag: u64, parts: &[u64]) -> u64 {
    let mut h = Fnv1a::tagged(tag);
    h.write_usize(parts.len());
    for &p in parts {
        h.write_word(p);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pegasus::{generate, WorkflowClass};

    #[test]
    fn workflow_fp_is_deterministic_and_instance_sensitive() {
        let a = workflow_fp(&generate(WorkflowClass::Genome, 50, 1));
        let a2 = workflow_fp(&generate(WorkflowClass::Genome, 50, 1));
        assert_eq!(a, a2);
        let b = workflow_fp(&generate(WorkflowClass::Genome, 50, 2));
        assert_ne!(a.structure, b.structure);
    }

    #[test]
    fn ccr_rescale_changes_only_file_sizes() {
        // The engine's schedule-cache soundness argument, as a
        // fingerprint identity: rescaling to a CCR rewrites sizes, not
        // structure.
        let base = generate(WorkflowClass::Montage, 50, 7);
        let mut scaled = base.clone();
        pegasus::ccr::scale_to_ccr(&mut scaled, 0.05, 1e8);
        let fa = workflow_fp(&base);
        let fb = workflow_fp(&scaled);
        assert_eq!(fa.structure, fb.structure);
        assert_ne!(fa.file_sizes, fb.file_sizes);
        assert_ne!(fa.combined(), fb.combined());
    }

    #[test]
    fn weight_change_flips_structure() {
        let mut w = generate(WorkflowClass::Genome, 50, 3);
        let before = workflow_fp(&w);
        let t = w.dag.task_ids().next().unwrap();
        let old = w.dag.weight(t);
        w.dag.set_weight(t, old * 2.0);
        assert_ne!(workflow_fp(&w).structure, before.structure);
        assert_eq!(workflow_fp(&w).file_sizes, before.file_sizes);
    }

    #[test]
    fn model_fp_separates_families_and_params() {
        let e1 = model_fp(&FailureModel::exponential(1e-5));
        let e2 = model_fp(&FailureModel::exponential(2e-5));
        assert_ne!(e1, e2);
        // Weibull k=1 with scale 1/λ is distribution-equal to the
        // exponential, but the fingerprint keys on representation —
        // over-invalidation is sound, under-invalidation would not be.
        let w1 = model_fp(&FailureModel::weibull(1.0, 1e5));
        assert_ne!(e1, w1);
    }

    #[test]
    fn allocate_config_fp_keys_on_linearizer_and_seed() {
        let a = allocate_config_fp(&AllocateConfig::default());
        let b = allocate_config_fp(&AllocateConfig {
            linearizer: Linearizer::Structural,
            seed: 0,
        });
        let c = allocate_config_fp(&AllocateConfig {
            linearizer: Linearizer::RandomTopo,
            seed: 1,
        });
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn plan_fp_keys_on_every_flag_and_the_length() {
        let plan = |flags: Vec<bool>| CheckpointPlan { ckpt_after: flags };
        let base = plan(vec![true; 130]);
        let mut seen = std::collections::HashSet::from([plan_fp(&base)]);
        for i in [0, 63, 64, 127, 129] {
            let mut flipped = base.clone();
            flipped.ckpt_after[i] = false;
            assert!(seen.insert(plan_fp(&flipped)), "flag {i}");
        }
        assert!(seen.insert(plan_fp(&plan(vec![true; 129]))));
        assert!(seen.insert(plan_fp(&plan(vec![false; 130]))));
        assert_eq!(plan_fp(&base), plan_fp(&plan(vec![true; 130])));
    }

    #[test]
    fn compose_is_order_sensitive() {
        assert_ne!(compose(9, &[1, 2]), compose(9, &[2, 1]));
        assert_ne!(compose(9, &[]), compose(10, &[]));
    }
}

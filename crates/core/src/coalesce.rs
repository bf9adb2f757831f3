//! Segment coalescing: from a checkpointed schedule to a 2-state
//! probabilistic DAG (§II-C).
//!
//! Once checkpoints are placed, each maximal run of tasks between
//! checkpoints on a processor — a *segment* — recovers independently, so
//! it is coalesced into a single node whose duration follows the
//! first-order 2-state law of Eq. (2). The resulting DAG (segment
//! dependence + same-processor serialization) is what the §II-B
//! evaluators compute the expected makespan of.
//!
//! Coalescing runs in two passes. [`coalesce_topology`] builds the
//! segments, their R/W/C costs and the edges from the workflow, the
//! bandwidth, the schedule and the plan: none of that reads the failure
//! model. [`SegmentGraph::with_model`] then writes each segment's
//! two-state law, the one part that does. [`coalesce`] is the two in a
//! row, so a caller holding a topology can re-model it for another
//! failure model without coalescing again.

use std::sync::Arc;

use mspg::{Dag, TaskId};
use probdag::{NodeDist, NodeId, ProbDag};

use crate::checkpoint_dp::{segment_cost_at, CostCtx, IdSet, SegmentCost, SegmentCostScratch};
use crate::schedule::Schedule;

/// Per-task checkpoint decisions (indexed by task id): `ckpt_after[t]`
/// means a checkpoint is taken right after `t` completes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointPlan {
    /// Checkpoint-after flags, one per task.
    pub ckpt_after: Vec<bool>,
}

impl CheckpointPlan {
    /// Number of checkpointed tasks.
    pub fn n_checkpoints(&self) -> usize {
        self.ckpt_after.iter().filter(|&&c| c).count()
    }
}

/// One coalesced segment.
#[derive(Clone, Debug)]
pub struct Segment {
    /// Owning superchain index in the schedule.
    pub superchain: usize,
    /// Owning processor.
    pub proc: usize,
    /// The segment's tasks, in execution order.
    pub tasks: Vec<TaskId>,
    /// Failure-free read/work/checkpoint costs.
    pub cost: SegmentCost,
}

/// The coalesced 2-state probabilistic DAG plus segment metadata.
///
/// A *topology* ([`coalesce_topology`]) is the graph of a platform that
/// never fails: every node is `Certain` at its failure-free span.
/// [`SegmentGraph::with_model`] turns it into the graph of a failure
/// model; the per-model graphs of one topology share its segment
/// metadata.
#[derive(Clone, Debug)]
pub struct SegmentGraph {
    /// One node per segment, same indexing as `segments`.
    pub pdag: ProbDag,
    /// Segment metadata.
    pub segments: Arc<Vec<Segment>>,
    /// Per task: owning segment index.
    pub task_segment: Arc<Vec<u32>>,
}

/// Aggregate placement statistics of a segment graph — derived in one
/// place from the coalesced graph so every consumer (`Pipeline::assess`,
/// the experiment scenarios, the E10 CSV) agrees on the counts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlacementStats {
    /// Coalesced segments. Every segment ends in exactly one
    /// checkpoint, so this is also the checkpoint count.
    pub segments: usize,
    /// Files written to stable storage by segment checkpoints. Each
    /// file's producer lives in exactly one segment, so no file is
    /// counted twice.
    pub ckpt_files: usize,
    /// Total bytes those checkpoints write
    /// (`total_checkpoint_time() × bandwidth`).
    pub ckpt_bytes: f64,
}

impl SegmentGraph {
    /// The per-model pass: this graph with every segment's two-state
    /// law under `ctx`'s failure model (and curve). Only the node laws
    /// read the model, so the edges are copied and the segment metadata
    /// shared; `coalesce_topology` followed by `with_model(ctx)` is
    /// `coalesce(ctx, …)` bit for bit.
    pub fn with_model(&self, ctx: &CostCtx<'_>) -> SegmentGraph {
        let mut pdag = self.pdag.clone();
        pdag.set_dists(self.dists(ctx));
        SegmentGraph {
            pdag,
            segments: Arc::clone(&self.segments),
            task_segment: Arc::clone(&self.task_segment),
        }
    }

    /// Each segment's first-order 2-state law (Eq. 2) under `ctx`:
    /// `low = base`, `high = 1.5 × base`, `p_high` from the model, and
    /// `Certain(base)` when the segment is empty or cannot fail.
    fn dists(&self, ctx: &CostCtx<'_>) -> Vec<NodeDist> {
        self.segments
            .iter()
            .map(|seg| {
                let base = seg.cost.base();
                let p_high = ctx.two_state_p_high(base);
                if base == 0.0 || p_high == 0.0 {
                    NodeDist::Certain(base)
                } else {
                    NodeDist::TwoState {
                        low: base,
                        high: 1.5 * base,
                        p_high,
                    }
                }
            })
            .collect()
    }

    /// Total checkpoint write time across segments (failure-free).
    pub fn total_checkpoint_time(&self) -> f64 {
        self.segments.iter().map(|s| s.cost.c).sum()
    }

    /// Placement statistics of this graph: segment count plus the
    /// checkpointed-file census (a file counts when its producing
    /// segment has a consumer outside itself — the same "needed later"
    /// rule `segment_cost` prices).
    pub fn placement_stats(&self, dag: &Dag) -> PlacementStats {
        let mut seen = IdSet::default();
        let mut ckpt_files = 0usize;
        let mut ckpt_bytes = 0.0f64;
        for (s_idx, seg) in self.segments.iter().enumerate() {
            seen.reset(dag.n_files());
            for &t in &seg.tasks {
                for &f in dag.output_files(t) {
                    let needed_later = dag
                        .consumers(f)
                        .iter()
                        .any(|&v| self.task_segment[v.index()] != s_idx as u32);
                    if needed_later && seen.insert(f.index()) {
                        ckpt_files += 1;
                        ckpt_bytes += dag.file(f).size;
                    }
                }
            }
        }
        PlacementStats {
            segments: self.segments.len(),
            ckpt_files,
            ckpt_bytes,
        }
    }
}

/// Builds the segment graph for a schedule and checkpoint plan under
/// `ctx`'s failure model: the topology, then the two-state laws written
/// in place.
///
/// Every superchain must end in a checkpoint (the paper's
/// crossover-dependency removal); this is asserted.
pub fn coalesce(ctx: &CostCtx<'_>, sched: &Schedule, plan: &CheckpointPlan) -> SegmentGraph {
    let mut sg = coalesce_topology(ctx.dag, ctx.bandwidth, sched, plan);
    let dists = sg.dists(ctx);
    sg.pdag.set_dists(dists);
    sg
}

/// The model-free segment topology of a schedule and checkpoint plan:
/// segments, their R/W/C costs at `bandwidth`, and the serialization
/// and data edges, with every node `Certain` at its failure-free span.
/// It reads no failure model; [`SegmentGraph::with_model`] adds one.
///
/// Every superchain must end in a checkpoint (the paper's
/// crossover-dependency removal); this is asserted.
pub fn coalesce_topology(
    dag: &Dag,
    bandwidth: f64,
    sched: &Schedule,
    plan: &CheckpointPlan,
) -> SegmentGraph {
    let mut segments: Vec<Segment> = Vec::new();
    let mut task_segment = vec![u32::MAX; dag.n_tasks()];
    let mut scratch = SegmentCostScratch::new();
    for (sc_idx, sc) in sched.superchains.iter().enumerate() {
        let last = *sc.tasks.last().expect("non-empty superchain");
        assert!(
            plan.ckpt_after[last.index()],
            "superchain {sc_idx} does not end in a checkpoint"
        );
        let mut lo = 0usize;
        for (k, &t) in sc.tasks.iter().enumerate() {
            if plan.ckpt_after[t.index()] {
                let tasks = sc.tasks[lo..=k].to_vec();
                let cost = segment_cost_at(dag, bandwidth, &sc.tasks, lo, k, &mut scratch);
                let seg_idx = segments.len() as u32;
                for &x in &tasks {
                    task_segment[x.index()] = seg_idx;
                }
                segments.push(Segment {
                    superchain: sc_idx,
                    proc: sc.proc,
                    tasks,
                    cost,
                });
                lo = k + 1;
            }
        }
    }
    // Build the probabilistic DAG.
    let mut pdag = ProbDag::new();
    for seg in &segments {
        pdag.add_node(NodeDist::Certain(seg.cost.base()));
    }
    // Same-processor serialization edges. A segment's tasks run back to
    // back, so each segment has at most one serialization predecessor.
    let mut serial_pred = vec![u32::MAX; segments.len()];
    for p in 0..sched.n_procs {
        let mut prev: Option<u32> = None;
        for &sc_idx in &sched.proc_chains[p] {
            for &t in &sched.superchains[sc_idx].tasks {
                let s = task_segment[t.index()];
                if let Some(q) = prev {
                    if q != s {
                        pdag.add_edge(NodeId(q), NodeId(s));
                        serial_pred[s as usize] = q;
                    }
                }
                prev = Some(s);
            }
        }
    }
    // Data edges: a segment reading file f depends on the segment that
    // checkpointed f (the producer's segment). Every edge into `s` other
    // than its serialization edge is added in `s`'s own iteration, so a
    // per-target stamp, seeded with the serialization predecessor, says
    // exactly which edges into `s` exist. It replaces `add_edge`'s
    // linear duplicate scan, which is quadratic on Montage's bipartite
    // levels; the edges arrive in the same order, so the succ and pred
    // lists are the ones `add_edge` builds.
    let mut stamp = vec![u32::MAX; segments.len()];
    for (s_idx, seg) in segments.iter().enumerate() {
        let s = s_idx as u32;
        let q = serial_pred[s_idx];
        if q != u32::MAX {
            stamp[q as usize] = s;
        }
        for &t in &seg.tasks {
            for &(u, _) in dag.preds(t) {
                let us = task_segment[u.index()];
                if us != s && stamp[us as usize] != s {
                    stamp[us as usize] = s;
                    pdag.add_new_edge(NodeId(us), NodeId(s));
                }
            }
        }
    }
    SegmentGraph {
        pdag,
        segments: Arc::new(segments),
        task_segment: Arc::new(task_segment),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocate::{allocate, AllocateConfig};
    use crate::checkpoint_dp::optimal_checkpoints;
    use pegasus::{generate, WorkflowClass};

    fn plan_all(dag: &mspg::Dag) -> CheckpointPlan {
        CheckpointPlan {
            ckpt_after: vec![true; dag.n_tasks()],
        }
    }

    fn plan_some(ctx: &CostCtx<'_>, sched: &Schedule) -> CheckpointPlan {
        let mut ckpt_after = vec![false; ctx.dag.n_tasks()];
        for sc in &sched.superchains {
            let choice = optimal_checkpoints(ctx, &sc.tasks);
            for (k, &t) in sc.tasks.iter().enumerate() {
                ckpt_after[t.index()] = choice.ckpt_after[k];
            }
        }
        CheckpointPlan { ckpt_after }
    }

    #[test]
    fn ckptall_has_one_segment_per_task() {
        let w = generate(WorkflowClass::Genome, 50, 1);
        let sched = allocate(&w, 3, &AllocateConfig::default());
        let ctx = CostCtx::exponential(&w.dag, 1e-5, 1e7);
        let sg = coalesce(&ctx, &sched, &plan_all(&w.dag));
        assert_eq!(sg.segments.len(), w.n_tasks());
        assert_eq!(sg.pdag.n_nodes(), w.n_tasks());
    }

    #[test]
    fn segment_graph_is_acyclic_and_covers_tasks() {
        let w = generate(WorkflowClass::Montage, 300, 2);
        let sched = allocate(&w, 18, &AllocateConfig::default());
        let ctx = CostCtx::exponential(&w.dag, 1e-6, 1e7);
        let sg = coalesce(&ctx, &sched, &plan_some(&ctx, &sched));
        // Topological sort must succeed (panics on cycle).
        let order = sg.pdag.topo_order();
        assert_eq!(order.len(), sg.segments.len());
        // Every task belongs to exactly one segment.
        let covered: usize = sg.segments.iter().map(|s| s.tasks.len()).sum();
        assert_eq!(covered, w.n_tasks());
        assert!(sg.task_segment.iter().all(|&s| s != u32::MAX));
    }

    #[test]
    fn fewer_checkpoints_than_ckptall() {
        let w = generate(WorkflowClass::Ligo, 300, 3);
        let sched = allocate(&w, 18, &AllocateConfig::default());
        // Moderate failure rate, expensive I/O: CkptSome should skip many
        // checkpoints.
        let lambda = crate::pfail::lambda_from_pfail(0.001, w.dag.mean_weight());
        let ctx = CostCtx::exponential(&w.dag, lambda, 1e5);
        let some = plan_some(&ctx, &sched);
        assert!(some.n_checkpoints() < w.n_tasks());
        assert!(some.n_checkpoints() >= sched.superchains.len());
    }

    #[test]
    fn segment_distributions_follow_eq2() {
        let w = pegasus::generic::chain(4, 1);
        let sched = allocate(&w, 1, &AllocateConfig::default());
        let ctx = CostCtx::exponential(&w.dag, 1e-3, 1e7);
        let sg = coalesce(&ctx, &sched, &plan_all(&w.dag));
        for (seg, v) in sg.segments.iter().zip(sg.pdag.node_ids()) {
            let base = seg.cost.base();
            match *sg.pdag.dist(v) {
                NodeDist::TwoState { low, high, p_high } => {
                    assert!((low - base).abs() < 1e-12);
                    assert!((high - 1.5 * base).abs() < 1e-12);
                    assert!((p_high - 1e-3 * base).abs() < 1e-12);
                }
                NodeDist::Certain(x) => assert_eq!(x, base),
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not end in a checkpoint")]
    fn missing_final_checkpoint_panics() {
        let w = pegasus::generic::chain(3, 1);
        let sched = allocate(&w, 1, &AllocateConfig::default());
        let ctx = CostCtx::exponential(&w.dag, 1e-3, 1e7);
        let plan = CheckpointPlan {
            ckpt_after: vec![false; w.dag.n_tasks()],
        };
        coalesce(&ctx, &sched, &plan);
    }

    #[test]
    fn placement_stats_agree_with_segment_costs() {
        let w = generate(WorkflowClass::Montage, 300, 4);
        let sched = allocate(&w, 18, &AllocateConfig::default());
        let bw = 1e7;
        let ctx = CostCtx::exponential(&w.dag, 1e-5, bw);
        for plan in [plan_all(&w.dag), plan_some(&ctx, &sched)] {
            let sg = coalesce(&ctx, &sched, &plan);
            let stats = sg.placement_stats(&w.dag);
            assert_eq!(stats.segments, sg.segments.len());
            // The byte census prices exactly what the segment costs
            // price: C-time × bandwidth.
            let c_bytes = sg.total_checkpoint_time() * bw;
            assert!(
                (stats.ckpt_bytes - c_bytes).abs() < 1e-6 * c_bytes.max(1.0),
                "{} vs {}",
                stats.ckpt_bytes,
                c_bytes
            );
            assert!(stats.ckpt_files > 0);
        }
    }

    /// The segment graph's edges as `ProbDag::add_edge`, with its
    /// duplicate scan, builds them from the same segments.
    fn edges_via_add_edge(dag: &mspg::Dag, sched: &Schedule, sg: &SegmentGraph) -> ProbDag {
        let mut g = ProbDag::new();
        for v in sg.pdag.node_ids() {
            g.add_node(sg.pdag.dist(v).clone());
        }
        for p in 0..sched.n_procs {
            let mut prev: Option<u32> = None;
            for &sc_idx in &sched.proc_chains[p] {
                for &t in &sched.superchains[sc_idx].tasks {
                    let s = sg.task_segment[t.index()];
                    if let Some(q) = prev.filter(|&q| q != s) {
                        g.add_edge(NodeId(q), NodeId(s));
                    }
                    prev = Some(s);
                }
            }
        }
        for (s, seg) in sg.segments.iter().enumerate() {
            for &t in &seg.tasks {
                for &(u, _) in dag.preds(t) {
                    let us = sg.task_segment[u.index()];
                    if us != s as u32 {
                        g.add_edge(NodeId(us), NodeId(s as u32));
                    }
                }
            }
        }
        g
    }

    #[test]
    fn stamped_edges_match_add_edge() {
        let classes = [
            WorkflowClass::Montage,
            WorkflowClass::Genome,
            WorkflowClass::Ligo,
            WorkflowClass::Cybershake,
        ];
        for class in classes {
            for size in [50, 300, 1000] {
                let w = generate(class, size, 9);
                let sched = allocate(&w, 18, &AllocateConfig::default());
                for pfail in [1e-3, 1e-2] {
                    let lambda = crate::pfail::lambda_from_pfail(pfail, w.dag.mean_weight());
                    let ctx = CostCtx::exponential(&w.dag, lambda, 1e8);
                    for plan in [plan_some(&ctx, &sched), plan_all(&w.dag)] {
                        let sg = coalesce(&ctx, &sched, &plan);
                        let want = edges_via_add_edge(&w.dag, &sched, &sg);
                        let what = format!("{class:?}-{size} pfail {pfail}");
                        for v in sg.pdag.node_ids() {
                            assert_eq!(sg.pdag.succs(v), want.succs(v), "{what}");
                            assert_eq!(sg.pdag.preds(v), want.preds(v), "{what}");
                        }
                    }
                }
            }
        }
    }

    /// Segments, task map, edge lists and node laws equal bit for bit.
    fn assert_same_graph(a: &SegmentGraph, b: &SegmentGraph, what: &str) {
        assert_eq!(a.segments.len(), b.segments.len(), "{what}: segments");
        for (x, y) in a.segments.iter().zip(b.segments.iter()) {
            assert_eq!((x.superchain, x.proc), (y.superchain, y.proc), "{what}");
            assert_eq!(x.tasks, y.tasks, "{what}");
            let bits = |c: &SegmentCost| [c.r.to_bits(), c.w.to_bits(), c.c.to_bits()];
            assert_eq!(bits(&x.cost), bits(&y.cost), "{what}: costs");
        }
        assert_eq!(a.task_segment, b.task_segment, "{what}: task map");
        assert_eq!(a.pdag.n_nodes(), b.pdag.n_nodes(), "{what}: nodes");
        let bits = |d: &NodeDist| [d.low(), d.high(), d.p_high()].map(f64::to_bits);
        for v in a.pdag.node_ids() {
            assert_eq!(a.pdag.succs(v), b.pdag.succs(v), "{what}: succ {v:?}");
            assert_eq!(a.pdag.preds(v), b.pdag.preds(v), "{what}: pred {v:?}");
            let (x, y) = (a.pdag.dist(v), b.pdag.dist(v));
            assert_eq!(
                std::mem::discriminant(x),
                std::mem::discriminant(y),
                "{what}: law kind {v:?}"
            );
            assert_eq!(bits(x), bits(y), "{what}: law {v:?}");
        }
    }

    /// `coalesce` is `coalesce_topology` then `with_model`, bit for bit,
    /// for the memoryless model and for three whose `p_high` goes
    /// through the renewal curve; and one topology re-modelled for every
    /// model equals a fresh coalesce under each.
    #[test]
    fn topology_then_model_is_coalesce() {
        use crate::failure_model::FailureModel;
        use crate::platform::Platform;
        use crate::stage::curve_stage;
        let classes = [
            WorkflowClass::Montage,
            WorkflowClass::Genome,
            WorkflowClass::Ligo,
            WorkflowClass::Cybershake,
        ];
        let bw = 1e8;
        for class in classes {
            for size in [50, 300] {
                let w = generate(class, size, 9);
                let sched = allocate(&w, 18, &AllocateConfig::default());
                let mean = w.dag.mean_weight();
                for pfail in [1e-3, 1e-2] {
                    let models = [
                        FailureModel::exponential_from_pfail(pfail, mean),
                        FailureModel::weibull_from_pfail(0.7, pfail, mean),
                        FailureModel::weibull_from_pfail(2.0, pfail, mean),
                        FailureModel::lognormal_from_pfail(1.0, pfail, mean),
                    ];
                    let curves: Vec<_> = models
                        .iter()
                        .map(|&m| curve_stage(&w.dag, &Platform::with_model(18, m, bw)).unwrap())
                        .collect();
                    let ctxs: Vec<_> = models
                        .iter()
                        .zip(&curves)
                        .map(|(&m, c)| CostCtx::with_curve(&w.dag, m, bw, c.as_ref()))
                        .collect();
                    for (m, ctx) in ctxs.iter().enumerate() {
                        for plan in [plan_some(ctx, &sched), plan_all(&w.dag)] {
                            let topo = coalesce_topology(&w.dag, bw, &sched, &plan);
                            for (m2, ctx2) in ctxs.iter().enumerate() {
                                let what = format!(
                                    "{class:?}-{size} pfail {pfail} plan of model {m}, \
                                     {} ckpts, model {m2}",
                                    plan.n_checkpoints()
                                );
                                let fresh = coalesce(ctx2, &sched, &plan);
                                assert_same_graph(&fresh, &topo.with_model(ctx2), &what);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn topology_is_the_never_failing_graph() {
        let w = generate(WorkflowClass::Genome, 50, 4);
        let sched = allocate(&w, 5, &AllocateConfig::default());
        let ctx = CostCtx::exponential(&w.dag, 0.0, 1e7);
        let plan = plan_some(&CostCtx::exponential(&w.dag, 1e-4, 1e7), &sched);
        let topo = coalesce_topology(&w.dag, 1e7, &sched, &plan);
        assert_same_graph(&coalesce(&ctx, &sched, &plan), &topo, "λ = 0");
        // Per-model graphs share the topology's segment metadata.
        let modelled = topo.with_model(&CostCtx::exponential(&w.dag, 1e-4, 1e7));
        assert!(Arc::ptr_eq(&topo.segments, &modelled.segments));
        assert!(Arc::ptr_eq(&topo.task_segment, &modelled.task_segment));
    }

    #[test]
    fn serialization_edges_chain_processor_segments() {
        let w = pegasus::generic::chain(5, 2);
        let sched = allocate(&w, 1, &AllocateConfig::default());
        let ctx = CostCtx::exponential(&w.dag, 0.0, 1e7);
        let sg = coalesce(&ctx, &sched, &plan_all(&w.dag));
        // 5 segments in a row: 4 serialization/data edges.
        assert_eq!(sg.pdag.n_edges(), 4);
    }
}

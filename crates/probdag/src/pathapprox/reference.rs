//! The eager PathApprox, kept as the reference the lazy enumeration and
//! the pruned fold must match bit for bit: a K-best dynamic program that
//! builds every node's full list of up to `K` path ends by a K-way merge
//! over its predecessors, a stable sort of every sink entry, and the
//! Clark fold over every pair of selected paths.

use std::collections::BinaryHeap;

use crate::normal::clark_max_corr;
use crate::pdag::{NodeId, ProbDag};

/// One end of a candidate path in the K-best DP.
#[derive(Clone, Copy, Debug)]
struct PathEnd {
    mean: f64,
    var: f64,
    /// Predecessor node and index into its list (`None` for a path
    /// starting at this node).
    parent: Option<(NodeId, u32)>,
}

/// `f64` ordered by `total_cmp` (heap key for the k-way merge).
#[derive(Clone, Copy, PartialEq, Debug)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The eager estimate and its selected paths, best first, as (sink,
/// index in the sink's list, mean bits, variance bits).
pub(super) fn eager(dag: &ProbDag, k_paths: usize) -> (f64, Vec<(u32, u32, u64, u64)>) {
    let n = dag.n_nodes();
    if n == 0 {
        return (0.0, Vec::new());
    }
    let k = k_paths.max(1);
    let order = dag.topo_order();
    let mut arena: Vec<PathEnd> = Vec::new();
    let mut start = vec![0u32; n];
    let mut len = vec![0u32; n];
    let mut heap: BinaryHeap<(OrdF64, u32, u32)> = BinaryHeap::new();
    for &v in &order {
        let m_v = dag.dist(v).mean();
        let var_v = dag.dist(v).variance();
        let preds = dag.preds(v);
        let at = arena.len() as u32;
        start[v.index()] = at;
        if preds.is_empty() {
            arena.push(PathEnd {
                mean: m_v,
                var: var_v,
                parent: None,
            });
        } else {
            heap.clear();
            for (slot, &u) in preds.iter().enumerate() {
                if len[u.index()] > 0 {
                    let pe = arena[start[u.index()] as usize];
                    heap.push((OrdF64(pe.mean), slot as u32, 0));
                }
            }
            while (arena.len() as u32 - at) < k as u32 {
                let Some((_, slot, idx)) = heap.pop() else {
                    break;
                };
                let u = preds[slot as usize];
                let pe = arena[(start[u.index()] + idx) as usize];
                arena.push(PathEnd {
                    mean: pe.mean + m_v,
                    var: pe.var + var_v,
                    parent: Some((u, idx)),
                });
                if idx + 1 < len[u.index()] {
                    let next = arena[(start[u.index()] + idx + 1) as usize];
                    heap.push((OrdF64(next.mean), slot, idx + 1));
                }
            }
        }
        len[v.index()] = arena.len() as u32 - at;
    }
    let mut best: Vec<(NodeId, u32, f64, f64)> = Vec::new();
    for v in dag.node_ids() {
        if !dag.succs(v).is_empty() {
            continue;
        }
        for i in 0..len[v.index()] {
            let pe = arena[(start[v.index()] + i) as usize];
            best.push((v, i, pe.mean, pe.var));
        }
    }
    best.sort_by(|a, b| b.2.total_cmp(&a.2));
    best.truncate(k);
    let words = n.div_ceil(64);
    let mut bits = vec![0u64; best.len() * words];
    for (p, &(v, i, _, _)) in best.iter().enumerate() {
        let path_bits = &mut bits[p * words..(p + 1) * words];
        let (mut node, mut idx) = (v, i);
        loop {
            path_bits[node.index() / 64] |= 1u64 << (node.index() % 64);
            match arena[(start[node.index()] + idx) as usize].parent {
                Some((u, j)) => {
                    node = u;
                    idx = j;
                }
                None => break,
            }
        }
    }
    let (mut m, mut var) = (best[0].2, best[0].3);
    for j in 1..best.len() {
        let cov = (0..j)
            .map(|i| {
                shared_variance(
                    dag,
                    &bits[i * words..(i + 1) * words],
                    &bits[j * words..(j + 1) * words],
                )
            })
            .fold(0.0f64, f64::max)
            .min(var)
            .min(best[j].3);
        (m, var) = clark_max_corr(m, var, best[j].2, best[j].3, cov);
    }
    let estimate = m.clamp(dag.makespan_low(), dag.makespan_high());
    let selection = best
        .iter()
        .map(|&(v, i, mean, var)| (v.0, i, mean.to_bits(), var.to_bits()))
        .collect();
    (estimate, selection)
}

/// Sum of node variances over the intersection of two path node sets, in
/// ascending node id, each variance taken from the node's distribution.
fn shared_variance(dag: &ProbDag, a: &[u64], b: &[u64]) -> f64 {
    let mut cov = 0.0;
    for (w, (&wa, &wb)) in a.iter().zip(b.iter()).enumerate() {
        let mut inter = wa & wb;
        while inter != 0 {
            let bit = inter.trailing_zeros() as usize;
            cov += dag.dist(NodeId((w * 64 + bit) as u32)).variance();
            inter &= inter - 1;
        }
    }
    cov
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::eager;
    use crate::pathapprox::PathApprox;
    use crate::pdag::{NodeDist, NodeId, ProbDag};

    const KS: [usize; 6] = [1, 2, 3, 7, 64, 256];

    /// Runs the lazy evaluator and the eager reference at `k`, and
    /// requires the same selected paths and the same estimate bits.
    fn assert_matches(g: &ProbDag, k: usize, what: &str) {
        let lazy = PathApprox::with_k(k);
        let estimate = lazy.run(g);
        let (reference, selection) = eager(g, k);
        assert_eq!(lazy.selection(), selection, "{what}, K = {k}: paths");
        assert_eq!(
            estimate.to_bits(),
            reference.to_bits(),
            "{what}, K = {k}: {estimate} vs {reference}"
        );
    }

    /// A random DAG that forces mean ties: integer lows, `p_high` in
    /// {0, .1, .25, .5}, `Certain` nodes, spreads `high - low` over 40
    /// binary orders (variances over 80), and ends in several sinks
    /// with equal means.
    fn random_dag(rng: &mut StdRng) -> ProbDag {
        let n = rng.gen_range(1usize..40);
        let density = [0.05, 0.15, 0.4, 0.8][rng.gen_range(0usize..4)];
        let mut g = ProbDag::new();
        for _ in 0..n {
            let low = rng.gen_range(0u32..5) as f64;
            let dist = match rng.gen_range(0u32..4) {
                0 => NodeDist::Certain(low),
                kind => {
                    let p_high = [0.0, 0.1, 0.25, 0.5][rng.gen_range(0usize..4)];
                    let spread = if kind == 1 {
                        2f64.powi(rng.gen_range(-20i32..21))
                    } else {
                        rng.gen_range(1u32..3) as f64
                    };
                    NodeDist::TwoState {
                        low,
                        high: low + spread,
                        p_high,
                    }
                }
            };
            g.add_node(dist);
        }
        for j in 1..n {
            for i in 0..j {
                if rng.gen::<f64>() < density {
                    g.add_edge(NodeId(i as u32), NodeId(j as u32));
                }
            }
        }
        // Equal-mean sinks hanging off one node.
        let from = NodeId(rng.gen_range(0..n) as u32);
        for _ in 0..rng.gen_range(0u32..4) {
            let sink = g.add_node(NodeDist::TwoState {
                low: 1.0,
                high: 2.0,
                p_high: 0.25,
            });
            g.add_edge(from, sink);
        }
        g
    }

    #[test]
    fn lazy_matches_eager_on_random_dags_with_ties() {
        // A fixed seeded loop, not a proptest: PROPTEST_CASES would
        // otherwise truncate it.
        let mut rng = StdRng::seed_from_u64(16);
        for case in 0..3000 {
            let g = random_dag(&mut rng);
            for k in KS {
                assert_matches(&g, k, &format!("random DAG {case}"));
            }
        }
    }

    #[test]
    fn lazy_matches_eager_on_segment_graphs() {
        use ckpt_core::{lambda_from_pfail, AllocateConfig, Pipeline, Platform, Strategy};
        use pegasus::WorkflowClass;

        let classes = [
            WorkflowClass::Montage,
            WorkflowClass::Genome,
            WorkflowClass::Ligo,
            WorkflowClass::Cybershake,
        ];
        for class in classes {
            for size in [50, 300] {
                let w = pegasus::generate(class, size, 9);
                for pfail in [1e-3, 1e-2] {
                    let lambda = lambda_from_pfail(pfail, w.dag.mean_weight());
                    let platform = Platform::new(18, lambda, 1e8);
                    let pipe = Pipeline::new(&w, platform, &AllocateConfig::default());
                    for strategy in [Strategy::CkptSome, Strategy::CkptAll] {
                        let sg = pipe.segment_graph(strategy);
                        // The graph's type comes from the probdag build
                        // that ckpt_core links; rebuild it in this one
                        // with the same distributions and pred lists.
                        let src = &sg.pdag;
                        let mut g = ProbDag::new();
                        for v in src.node_ids() {
                            let d = src.dist(v);
                            g.add_node(if d.p_high() == 0.0 {
                                NodeDist::Certain(d.low())
                            } else {
                                NodeDist::TwoState {
                                    low: d.low(),
                                    high: d.high(),
                                    p_high: d.p_high(),
                                }
                            });
                        }
                        for v in src.node_ids() {
                            for u in src.preds(v) {
                                g.add_edge(NodeId(u.0), NodeId(v.0));
                            }
                        }
                        let what = format!("{class:?}-{size} {strategy:?} pfail {pfail}");
                        for k in [1, 64, 256] {
                            assert_matches(&g, k, &what);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn long_chain_enumerates_without_recursion() {
        // Asking the sink for its second path walks back to the source:
        // a recursive enumeration would need one frame per node and
        // overflow a 2 MiB stack long before 100,000.
        let run = || {
            let mut g = ProbDag::new();
            let mut prev = None;
            for i in 0..100_000u32 {
                let v = g.add_node(NodeDist::TwoState {
                    low: 1.0 + (i % 7) as f64,
                    high: 2.0 + (i % 7) as f64,
                    p_high: 0.01,
                });
                if let Some(u) = prev {
                    g.add_edge(u, v);
                }
                prev = Some(v);
            }
            assert_matches(&g, 256, "100,000-node chain");
        };
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(run)
            .unwrap()
            .join()
            .unwrap();
    }
}

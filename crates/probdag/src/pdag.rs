//! Probabilistic DAGs: nodes with independent random durations.

use crate::dist::Discrete;

/// Identifier of a node in a [`ProbDag`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into dense per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Duration distribution of a node.
///
/// The 2-state case is kept symbolic (rather than a general [`Discrete`])
/// because it is the only case the paper's pipeline produces and it admits
/// much faster sampling and first-order evaluation.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeDist {
    /// Deterministic duration.
    Certain(f64),
    /// `low` with probability `1 - p_high`, `high` with probability
    /// `p_high` (the paper's Eq. (1)/(2) first-order form).
    TwoState {
        /// Failure-free duration.
        low: f64,
        /// Duration when one failure occurs (paper: `1.5 × low`).
        high: f64,
        /// Probability of the high state (paper: `λ · low`).
        p_high: f64,
    },
}

impl NodeDist {
    /// Mean duration.
    pub fn mean(&self) -> f64 {
        match *self {
            NodeDist::Certain(v) => v,
            NodeDist::TwoState { low, high, p_high } => (1.0 - p_high) * low + p_high * high,
        }
    }

    /// Variance of the duration.
    pub fn variance(&self) -> f64 {
        match *self {
            NodeDist::Certain(_) => 0.0,
            NodeDist::TwoState { low, high, p_high } => {
                let d = high - low;
                p_high * (1.0 - p_high) * d * d
            }
        }
    }

    /// Duration in the no-failure state.
    pub fn low(&self) -> f64 {
        match *self {
            NodeDist::Certain(v) => v,
            NodeDist::TwoState { low, .. } => low,
        }
    }

    /// Duration in the failed state (equals `low` for `Certain`).
    pub fn high(&self) -> f64 {
        match *self {
            NodeDist::Certain(v) => v,
            NodeDist::TwoState { high, .. } => high,
        }
    }

    /// Probability of the high state.
    pub fn p_high(&self) -> f64 {
        match *self {
            NodeDist::Certain(_) => 0.0,
            NodeDist::TwoState { p_high, .. } => p_high,
        }
    }

    /// Conversion to a general discrete distribution.
    pub fn to_discrete(&self) -> Discrete {
        match *self {
            NodeDist::Certain(v) => Discrete::certain(v),
            NodeDist::TwoState { low, high, p_high } => Discrete::two_state(low, high, p_high),
        }
    }
}

/// Panics unless a `TwoState` is a distribution: `p_high` in `[0, 1]`,
/// `low` and `high` finite, and `high - low` finite.
fn assert_distribution(dist: &NodeDist) {
    if let NodeDist::TwoState { low, high, p_high } = *dist {
        assert!(
            (0.0..=1.0).contains(&p_high)
                && low.is_finite()
                && high.is_finite()
                && (high - low).is_finite(),
            "TwoState {{ low: {low}, high: {high}, p_high: {p_high} }} is not a distribution"
        );
    }
}

/// A DAG whose nodes carry independent duration distributions.
///
/// The makespan is the maximum over sink nodes of the completion time,
/// where `completion(v) = duration(v) + max over predecessors of their
/// completion` (entry nodes start at 0).
#[derive(Clone, Debug, Default)]
pub struct ProbDag {
    dists: Vec<NodeDist>,
    succ: Vec<Vec<NodeId>>,
    pred: Vec<Vec<NodeId>>,
}

impl ProbDag {
    /// Creates an empty probabilistic DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node with the given duration distribution.
    ///
    /// Panics unless a `TwoState` is a distribution: `p_high` in
    /// `[0, 1]`, `low` and `high` finite, and `high - low` finite. Then
    /// neither its mean nor its variance is NaN, and its variance is not
    /// negative, which the evaluators rely on.
    pub fn add_node(&mut self, dist: NodeDist) -> NodeId {
        assert!(self.dists.len() < u32::MAX as usize);
        assert_distribution(&dist);
        let id = NodeId(self.dists.len() as u32);
        self.dists.push(dist);
        self.succ.push(Vec::new());
        self.pred.push(Vec::new());
        id
    }

    /// Replaces every node's distribution, keeping the edges: `dists[v]`
    /// becomes node `v`'s law. Panics unless there is one per node and
    /// each passes [`ProbDag::add_node`]'s check.
    pub fn set_dists(&mut self, dists: Vec<NodeDist>) {
        assert_eq!(dists.len(), self.n_nodes(), "one distribution per node");
        dists.iter().for_each(assert_distribution);
        self.dists = dists;
    }

    /// Adds a dependence edge `u → v`. Duplicate edges are ignored.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert_ne!(u, v, "self-loop");
        if !self.succ[u.index()].contains(&v) {
            self.succ[u.index()].push(v);
            self.pred[v.index()].push(u);
        }
    }

    /// Adds an edge `u → v` the caller knows is new, without
    /// [`ProbDag::add_edge`]'s linear scan for a duplicate: the lists
    /// come out as `add_edge` would leave them. Debug builds check that
    /// the edge is new.
    pub fn add_new_edge(&mut self, u: NodeId, v: NodeId) {
        assert_ne!(u, v, "self-loop");
        debug_assert!(!self.succ[u.index()].contains(&v), "duplicate edge");
        self.succ[u.index()].push(v);
        self.pred[v.index()].push(u);
    }

    /// Number of nodes.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.dists.len()
    }

    /// Number of (deduplicated) edges.
    pub fn n_edges(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }

    /// The duration distribution of `v`.
    #[inline]
    pub fn dist(&self, v: NodeId) -> &NodeDist {
        &self.dists[v.index()]
    }

    /// Successors of `v`.
    #[inline]
    pub fn succs(&self, v: NodeId) -> &[NodeId] {
        &self.succ[v.index()]
    }

    /// Predecessors of `v`.
    #[inline]
    pub fn preds(&self, v: NodeId) -> &[NodeId] {
        &self.pred[v.index()]
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.dists.len() as u32).map(NodeId)
    }

    /// Nodes without successors.
    pub fn sink_nodes(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|v| self.succ[v.index()].is_empty())
            .collect()
    }

    /// A deterministic topological order. Panics on cycles.
    pub fn topo_order(&self) -> Vec<NodeId> {
        let mut order = Vec::new();
        self.topo_order_into(&mut order, &mut Vec::new(), &mut Vec::new());
        order
    }

    /// [`ProbDag::topo_order`] into caller-owned buffers (`order` is
    /// cleared and filled; `indeg`/`ready` are work space) — the same
    /// deterministic order with zero allocations once the buffers have
    /// grown to the graph size. Panics on cycles.
    pub fn topo_order_into(
        &self,
        order: &mut Vec<NodeId>,
        indeg: &mut Vec<usize>,
        ready: &mut Vec<NodeId>,
    ) {
        let n = self.n_nodes();
        indeg.clear();
        indeg.extend((0..n).map(|v| self.pred[v].len()));
        ready.clear();
        ready.extend(self.node_ids().filter(|v| indeg[v.index()] == 0));
        order.clear();
        order.reserve(n);
        while let Some(v) = ready.pop() {
            order.push(v);
            for &w in &self.succ[v.index()] {
                indeg[w.index()] -= 1;
                if indeg[w.index()] == 0 {
                    ready.push(w);
                }
            }
        }
        assert_eq!(order.len(), n, "ProbDag has a cycle");
    }

    /// Makespan when every node takes the duration selected by `pick`.
    /// `scratch` must have length `n_nodes` (reused across calls to avoid
    /// per-trial allocation — see the perf-book guidance on workhorse
    /// buffers).
    pub fn makespan_with(&self, pick: impl Fn(NodeId) -> f64, scratch: &mut [f64]) -> f64 {
        debug_assert_eq!(scratch.len(), self.n_nodes());
        let order = self.topo_order();
        self.makespan_with_order(&order, pick, scratch)
    }

    /// Same as [`ProbDag::makespan_with`] but with a precomputed
    /// topological order (the hot path for Monte Carlo).
    pub fn makespan_with_order(
        &self,
        order: &[NodeId],
        pick: impl Fn(NodeId) -> f64,
        finish: &mut [f64],
    ) -> f64 {
        let mut best = 0.0f64;
        for &v in order {
            let start = self.pred[v.index()]
                .iter()
                .map(|u| finish[u.index()])
                .fold(0.0f64, f64::max);
            let f = start + pick(v);
            finish[v.index()] = f;
            best = best.max(f);
        }
        best
    }

    /// Makespan with every node at its `low` duration (the deterministic
    /// critical path `CP₀`).
    pub fn makespan_low(&self) -> f64 {
        let mut scratch = vec![0.0; self.n_nodes()];
        self.makespan_with(|v| self.dist(v).low(), &mut scratch)
    }

    /// Makespan with every node at its `high` duration.
    pub fn makespan_high(&self) -> f64 {
        let mut scratch = vec![0.0; self.n_nodes()];
        self.makespan_with(|v| self.dist(v).high(), &mut scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two(low: f64, high: f64, p: f64) -> NodeDist {
        NodeDist::TwoState {
            low,
            high,
            p_high: p,
        }
    }

    /// a → {b, c} → d diamond.
    fn diamond() -> (ProbDag, [NodeId; 4]) {
        let mut g = ProbDag::new();
        let a = g.add_node(two(1.0, 1.5, 0.1));
        let b = g.add_node(two(2.0, 3.0, 0.1));
        let c = g.add_node(two(4.0, 6.0, 0.1));
        let d = g.add_node(two(1.0, 1.5, 0.1));
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        (g, [a, b, c, d])
    }

    #[test]
    fn node_dist_moments() {
        let d = two(10.0, 15.0, 0.2);
        assert!((d.mean() - 11.0).abs() < 1e-12);
        assert!((d.variance() - 0.2 * 0.8 * 25.0).abs() < 1e-12);
        assert_eq!(NodeDist::Certain(3.0).variance(), 0.0);
    }

    #[test]
    fn low_high_makespans() {
        let (g, _) = diamond();
        assert_eq!(g.makespan_low(), 1.0 + 4.0 + 1.0);
        assert_eq!(g.makespan_high(), 1.5 + 6.0 + 1.5);
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = ProbDag::new();
        let a = g.add_node(NodeDist::Certain(1.0));
        let b = g.add_node(NodeDist::Certain(1.0));
        g.add_edge(a, b);
        g.add_edge(a, b);
        assert_eq!(g.n_edges(), 1);
    }

    #[test]
    #[should_panic(expected = "is not a distribution")]
    fn p_high_outside_unit_interval_panics() {
        ProbDag::new().add_node(two(1.0, 1.5, 1.25));
    }

    #[test]
    fn add_node_rejects_every_non_distribution() {
        let bad = [
            two(1.0, 1.5, f64::NAN),
            two(1.0, 1.5, -0.1),
            two(f64::NAN, 1.5, 0.1),
            two(1.0, f64::INFINITY, 0.1),
            two(-f64::MAX, f64::MAX, 0.0),
        ];
        for d in bad {
            let r = std::panic::catch_unwind(|| ProbDag::new().add_node(d.clone()));
            assert!(r.is_err(), "{d:?} was accepted");
        }
        // The edges of the range are distributions.
        let mut g = ProbDag::new();
        g.add_node(two(1.0, 1.5, 0.0));
        g.add_node(two(1.0, 1.5, 1.0));
        g.add_node(NodeDist::Certain(2.0));
        assert_eq!(g.n_nodes(), 3);
    }

    #[test]
    fn set_dists_keeps_edges_and_validates() {
        let (mut g, [a, b, c, d]) = diamond();
        let laws = vec![
            NodeDist::Certain(1.0),
            two(2.0, 3.0, 0.5),
            NodeDist::Certain(4.0),
            NodeDist::Certain(1.0),
        ];
        g.set_dists(laws.clone());
        assert_eq!(g.succs(a), &[b, c]);
        assert_eq!(g.preds(d), &[b, c]);
        assert_eq!(&laws[1], g.dist(b));
        let short = std::panic::catch_unwind(|| diamond().0.set_dists(laws[..3].to_vec()));
        assert!(short.is_err(), "a missing law was accepted");
        let mut bad = laws;
        bad[2] = two(1.0, 1.5, 2.0);
        let r = std::panic::catch_unwind(|| diamond().0.set_dists(bad));
        assert!(r.is_err(), "p_high 2 was accepted");
    }

    #[test]
    fn topo_order_is_consistent() {
        let (g, [a, b, c, d]) = diamond();
        let o = g.topo_order();
        let pos = |x: NodeId| o.iter().position(|&v| v == x).unwrap();
        assert!(pos(a) < pos(b));
        assert!(pos(a) < pos(c));
        assert!(pos(b) < pos(d));
        assert!(pos(c) < pos(d));
    }

    #[test]
    fn sinks() {
        let (g, [_, _, _, d]) = diamond();
        assert_eq!(g.sink_nodes(), vec![d]);
    }

    #[test]
    fn makespan_with_picks() {
        let (g, [_, b, ..]) = diamond();
        let mut scratch = vec![0.0; 4];
        // Only b at high: path a-b-d = 1 + 3 + 1 = 5 < a-c-d = 6.
        let m = g.makespan_with(
            |v| {
                if v == b {
                    g.dist(v).high()
                } else {
                    g.dist(v).low()
                }
            },
            &mut scratch,
        );
        assert_eq!(m, 6.0);
    }
}

//! PathApprox: longest-paths estimation of the expected makespan
//! (Casanova, Herrmann & Robert, P2S2 2016).
//!
//! The makespan of a probabilistic DAG is the maximum over paths of the sum
//! of node durations. Along a *single* path the durations are independent,
//! so the sum's mean and variance are exact and, by the CLT, the sum is
//! well approximated by a normal. PathApprox therefore:
//!
//! 1. extracts the `K` paths with the largest expected lengths;
//! 2. models each as a normal with its exact mean/variance;
//! 3. combines them with Clark's maximum, using the covariance induced by
//!    shared nodes (paths through common ancestors are positively
//!    correlated; ignoring that would overestimate the maximum);
//! 4. clamps the estimate to the almost-sure makespan bounds
//!    `[CP_low, CP_high]`.
//!
//! Paths not among the `K` best means are neglected; in the paper's
//! low-variance 2-state regime (`p_high = λ·(r+w)`, `λ → 0`) they are
//! dominated with overwhelming probability, which is why §VI-B finds the
//! method both fastest and closest to Monte Carlo.
//!
//! ## The K best paths, lazily
//!
//! Every node `v` has a list of the paths ending at it, best mean first,
//! capped at `K` entries. Entry `j + 1` of `v`'s list is the best of a
//! candidate heap holding, per predecessor slot, the next path of that
//! predecessor not yet extended to `v`, keyed `(pred mean, slot)`, max
//! first. (An eager K-way merge keys on `(pred mean, slot, index)`, but
//! with one candidate per slot the index never decides.) The keys are
//! unique, so the pop order depends only on the heap's contents. The
//! lists are built on demand with the recursive enumeration algorithm
//! (Jiménez & Marzal, WAE 1999):
//!
//! - One forward sweep in topological order gives every node its best
//!   path, the argmax over predecessors of `(mean, slot)`, and computes
//!   `CP_low` and `CP_high` on the way: O(V + E).
//! - The global top `K` is a merge over the sinks, ordered by mean
//!   descending (`total_cmp`), then sink id, then list index.
//! - Asking `v` for its next entry pops `v`'s candidate heap after
//!   offering it the path that follows, in its own predecessor's list,
//!   the prefix of `v`'s last entry. The heap is built, by heapify in
//!   O(P), only when `v` is first asked for a second entry. Computing
//!   the offered path may ask that predecessor for its next entry, and
//!   so on back along one path; the walk keeps an explicit stack, so a
//!   171,571-node chain does not recurse.
//!
//! Each list is therefore a prefix of the list an eager K-best dynamic
//! program builds (each node's `K` best by a K-way merge over its
//! predecessors, then a stable sort of all sink entries): the heaps hold
//! the same candidates when they pop. Path means and variances are summed
//! in the same order, so they have the same bits, and every list is
//! non-increasing in mean (rounding is monotone), so the sink merge picks
//! the entries the stable sort keeps. The work is O(V + E) for the sweep,
//! plus O(P) per node asked for a second path, plus O(log P) per entry
//! computed. Each of the `K` picks computes at most one entry per node
//! of one path, so at most `K · D` entries are computed, `D` being the
//! node count of the longest path, against the eager program's `K`
//! entries at every node.
//!
//! The fold of step 3 skips every path pair that cannot change its
//! result; `Scratch::fold` states why that is exact.
//!
//! ## Allocation discipline
//!
//! The evaluator runs once per strategy per grid cell and once per
//! what-if first visit, so its working memory lives in a
//! [`PathApprox`]-owned scratch reused across runs, and every buffer
//! keeps its high-water allocation. Storage is flat: every list entry
//! of every node lives in one arena (node `v`'s best path at position
//! `v`, later entries appended and chained by position); every candidate
//! heap is a region of one buffer, never larger than the node's
//! in-degree; per-node state, the enumeration stack, the path bitsets
//! and the topological-order buffers are plain vectors. No run allocates
//! per node.

use std::cell::RefCell;
use std::cmp::Ordering;

use crate::normal::clark_max_corr;
use crate::pdag::{NodeId, ProbDag};
use crate::Evaluator;

#[cfg(test)]
mod reference;

/// The PathApprox estimator. Carries its reusable scratch; cloning
/// yields a fresh (empty) scratch with the same configuration.
#[derive(Debug)]
pub struct PathApprox {
    /// Number of candidate longest-expected-length paths (`K`).
    pub k_paths: usize,
    scratch: RefCell<Scratch>,
}

impl Default for PathApprox {
    fn default() -> Self {
        // K = 256 does not bring the estimate close to Monte Carlo on
        // wide graphs at high pfail: at pfail 0.01, E4 reads it 3.3–4.1%
        // low on Genome-300 and 6.8–7.8% low on Genome-1000. Moving K
        // anywhere from 64 to 4096 shifts that error by at most 0.52
        // points, so the per-path normal, not K, is the cause (ROADMAP
        // item 2 tracks it).
        PathApprox::with_k(256)
    }
}

impl Clone for PathApprox {
    fn clone(&self) -> Self {
        PathApprox::with_k(self.k_paths)
    }
}

/// Arena link that points nowhere: no prefix, or the end of a list.
const NONE: u32 = u32::MAX;
/// Arena link not computed yet: the list may have a next entry.
const PENDING: u32 = u32::MAX - 1;

/// One entry of a node's K-best list: a path ending at that node.
#[derive(Clone, Copy, Debug, Default)]
struct PathEnd {
    /// Exact mean of the path's duration sum.
    mean: f64,
    /// Exact variance of the path's duration sum.
    var: f64,
    /// The node the path ends at.
    node: u32,
    /// Arena position of the path minus its last node (an entry of the
    /// predecessor at `slot`), or `NONE` for a one-node path.
    parent: u32,
    /// Predecessor slot the path enters its last node through.
    slot: u32,
    /// Arena position of the next entry of the same list, `PENDING` or
    /// `NONE`.
    next: u32,
}

/// A heap entry: the path at arena position `pos`, ranked by
/// `(mean, tag)`, max first. In a node's heap `tag` is the predecessor
/// slot; in the sink merge it is `!sink`, so equal means pop the lowest
/// sink id first.
#[derive(Clone, Copy, Debug)]
struct Cand {
    mean: f64,
    tag: u32,
    pos: u32,
}

/// Enumeration state of one node.
#[derive(Clone, Copy, Debug)]
struct NodeState {
    /// Arena position of the list's last computed entry.
    tail: u32,
    /// Entries computed.
    len: u32,
    /// Start of the node's candidate heap in `Scratch::heaps`, `NONE`
    /// until the node is first asked for a second entry.
    heap_at: u32,
    /// Candidates in the heap.
    heap_len: u32,
}

/// Reusable working memory of one [`PathApprox`] (see the module docs).
#[derive(Debug, Default)]
struct Scratch {
    /// Topological order plus its work buffers.
    order: Vec<NodeId>,
    indeg: Vec<usize>,
    ready: Vec<NodeId>,
    /// Per-node duration mean and variance, computed once per run.
    mean: Vec<f64>,
    var: Vec<f64>,
    /// Per-node completion time with every node at its low and at its
    /// high duration.
    finish: Vec<(f64, f64)>,
    /// Every computed list entry; node `v`'s best path is at position `v`.
    arena: Vec<PathEnd>,
    nodes: Vec<NodeState>,
    /// Candidate heaps, one region per node that has built one.
    heaps: Vec<Cand>,
    /// The sink merge's heap.
    sinks: Vec<Cand>,
    /// Nodes waiting for a predecessor's next entry.
    stack: Vec<u32>,
    /// Arena positions of the selected paths, best first.
    best: Vec<u32>,
    /// Flat per-path node bitsets (`best.len() × words`).
    bits: Vec<u64>,
    /// Per selected path, the sum of its node variances in ascending id.
    asc: Vec<f64>,
}

impl PathApprox {
    /// A PathApprox with the given `K` and an empty scratch.
    pub fn with_k(k_paths: usize) -> Self {
        PathApprox {
            k_paths,
            scratch: RefCell::new(Scratch::default()),
        }
    }

    /// Estimated expected makespan.
    pub fn run(&self, dag: &ProbDag) -> f64 {
        if dag.n_nodes() == 0 {
            return 0.0;
        }
        let k = self.k_paths.clamp(1, u32::MAX as usize) as u32;
        let mut s = self.scratch.borrow_mut();
        let (cp_low, cp_high) = s.sweep(dag, k);
        s.select(dag, k);
        s.mark_paths(dag.n_nodes());
        // The makespan is a.s. within [CP_low, CP_high]; the normal
        // approximation can stray slightly, so clamp.
        s.fold().clamp(cp_low, cp_high)
    }
}

impl Scratch {
    /// The forward sweep: every node's best path, the per-node moments,
    /// and `(CP_low, CP_high)`. The bounds take the same maxima in the
    /// same order as [`ProbDag::makespan_low`] and
    /// [`ProbDag::makespan_high`], so they have the same bits.
    fn sweep(&mut self, dag: &ProbDag, k: u32) -> (f64, f64) {
        let n = dag.n_nodes();
        dag.topo_order_into(&mut self.order, &mut self.indeg, &mut self.ready);
        self.mean.resize(n, 0.0);
        self.var.resize(n, 0.0);
        self.finish.resize(n, (0.0, 0.0));
        self.arena.clear();
        self.arena.resize(n, PathEnd::default());
        self.nodes.clear();
        self.nodes.resize(
            n,
            NodeState {
                tail: 0,
                len: 1,
                heap_at: NONE,
                heap_len: 0,
            },
        );
        self.heaps.clear();
        let (mut cp_low, mut cp_high) = (0.0f64, 0.0f64);
        for &v in &self.order {
            let d = dag.dist(v);
            let (m_v, var_v) = (d.mean(), d.variance());
            let (mut low, mut high) = (0.0f64, 0.0f64);
            let mut best: Option<(u32, usize)> = None;
            for (slot, &u) in dag.preds(v).iter().enumerate() {
                let (f_low, f_high) = self.finish[u.index()];
                low = low.max(f_low);
                high = high.max(f_high);
                let mean = self.arena[u.index()].mean;
                // Ties go to the later slot, as in a max-heap on
                // (mean, slot).
                if best.is_none_or(|(_, b)| mean.total_cmp(&self.arena[b].mean).is_ge()) {
                    best = Some((slot as u32, u.index()));
                }
            }
            let finish = (low + d.low(), high + d.high());
            self.finish[v.index()] = finish;
            cp_low = cp_low.max(finish.0);
            cp_high = cp_high.max(finish.1);
            self.mean[v.index()] = m_v;
            self.var[v.index()] = var_v;
            self.nodes[v.index()].tail = v.0;
            self.arena[v.index()] = match best {
                None => PathEnd {
                    mean: m_v,
                    var: var_v,
                    node: v.0,
                    parent: NONE,
                    slot: NONE,
                    next: NONE,
                },
                Some((slot, u)) => PathEnd {
                    mean: self.arena[u].mean + m_v,
                    var: self.arena[u].var + var_v,
                    node: v.0,
                    parent: u as u32,
                    slot,
                    next: if k == 1 { NONE } else { PENDING },
                },
            };
        }
        (cp_low, cp_high)
    }

    /// Merges the sinks' lists into `best`, the global top `k`.
    fn select(&mut self, dag: &ProbDag, k: u32) {
        self.sinks.clear();
        for v in dag.node_ids().filter(|&v| dag.succs(v).is_empty()) {
            self.sinks.push(Cand {
                mean: self.arena[v.index()].mean,
                tag: !v.0,
                pos: v.0,
            });
        }
        heapify(&mut self.sinks);
        self.best.clear();
        let mut len = self.sinks.len();
        let mut offer = None;
        loop {
            let (popped, rest) = pop_offering(&mut self.sinks[..len], offer);
            len = rest;
            let Some(c) = popped else { break };
            self.best.push(c.pos);
            if self.best.len() == k as usize {
                break;
            }
            if self.arena[c.pos as usize].next == PENDING {
                self.extend(dag, k, !c.tag);
            }
            let next = self.arena[c.pos as usize].next;
            offer = (next != NONE).then(|| Cand {
                mean: self.arena[next as usize].mean,
                tag: c.tag,
                pos: next,
            });
        }
    }

    /// Computes the entry after the tail of `v`'s list (or ends the
    /// list), first computing, on an explicit stack, the predecessor
    /// entries that step needs.
    fn extend(&mut self, dag: &ProbDag, k: u32, v: u32) {
        debug_assert!(self.stack.is_empty());
        self.stack.push(v);
        while let Some(&w) = self.stack.last() {
            let tail = self.arena[self.nodes[w as usize].tail as usize];
            // A node whose tail is PENDING is not a source, so its tail
            // has a prefix; the entry after that prefix is offered next.
            let prefix = self.arena[tail.parent as usize];
            if prefix.next == PENDING {
                self.stack.push(prefix.node);
                continue;
            }
            self.stack.pop();
            self.grow(dag, k, w as usize);
        }
    }

    /// Appends the next entry to `v`'s list, or ends it. The entry after
    /// the prefix of `v`'s tail must already be known.
    fn grow(&mut self, dag: &ProbDag, k: u32, v: usize) {
        let st = self.nodes[v];
        let tail = self.arena[st.tail as usize];
        let after = self.arena[tail.parent as usize].next;
        debug_assert_ne!(after, PENDING);
        let offer = (after != NONE).then(|| Cand {
            mean: self.arena[after as usize].mean,
            tag: tail.slot,
            pos: after,
        });
        let at = if st.heap_at == NONE {
            // First ask for a second entry: every other predecessor's
            // best path, plus the offer from the slot already taken.
            let at = self.heaps.len();
            for (slot, &u) in dag.preds(NodeId(v as u32)).iter().enumerate() {
                if slot as u32 != tail.slot {
                    self.heaps.push(Cand {
                        mean: self.arena[u.index()].mean,
                        tag: slot as u32,
                        pos: u.0,
                    });
                }
            }
            heapify(&mut self.heaps[at..]);
            self.nodes[v].heap_at =
                u32::try_from(at).expect("candidate heaps hold fewer than 2^32 - 1 entries");
            self.nodes[v].heap_len = (self.heaps.len() - at) as u32;
            at
        } else {
            st.heap_at as usize
        };
        let len = self.nodes[v].heap_len as usize;
        let (popped, rest) = pop_offering(&mut self.heaps[at..at + len], offer);
        self.nodes[v].heap_len = rest as u32;
        let Some(c) = popped else {
            self.arena[st.tail as usize].next = NONE;
            return;
        };
        let pos = u32::try_from(self.arena.len())
            .ok()
            .filter(|&pos| pos < PENDING)
            .expect("PathApprox arena positions fit below PENDING");
        let from = self.arena[c.pos as usize];
        self.arena.push(PathEnd {
            mean: from.mean + self.mean[v],
            var: from.var + self.var[v],
            node: v as u32,
            parent: c.pos,
            slot: c.tag,
            next: if st.len + 1 == k { NONE } else { PENDING },
        });
        self.arena[st.tail as usize].next = pos;
        self.nodes[v].tail = pos;
        self.nodes[v].len += 1;
    }

    /// Fills `bits` with each selected path's node set, and `asc` with
    /// its variance sum.
    fn mark_paths(&mut self, n: usize) {
        let words = n.div_ceil(64);
        self.bits.clear();
        self.bits.resize(self.best.len() * words, 0);
        self.asc.clear();
        for (p, &end) in self.best.iter().enumerate() {
            let bits = &mut self.bits[p * words..(p + 1) * words];
            let mut pos = end;
            loop {
                let e = self.arena[pos as usize];
                bits[e.node as usize / 64] |= 1u64 << (e.node % 64);
                if e.parent == NONE {
                    break;
                }
                pos = e.parent;
            }
            self.asc.push(shared_variance(&self.var, bits, bits));
        }
    }

    /// Sequential Clark max over the selected paths, best first. The
    /// running max is not a path, so its covariance with the next
    /// candidate `j` is approximated by `j`'s largest shared variance
    /// with any already-folded path, capped by both variances:
    /// near-duplicate paths (sharing almost all nodes) then contribute
    /// almost nothing, while genuinely independent branches contribute
    /// their full Clark increment.
    ///
    /// Most pairs cannot change that largest shared variance, and are
    /// skipped, exactly. Let `asc(p)` be path `p`'s own variance sum,
    /// added in ascending node id as [`shared_variance`] adds. Node
    /// variances are non-negative and not NaN (`ProbDag::add_node`
    /// asserts it). A subset of non-negative terms, added in the same
    /// order, never sums to more than all of them: each partial sum of
    /// the subset is ≤ the matching partial sum of the whole, because
    /// rounding is monotone and adding a term ≥ 0 never lowers a sum. So
    /// `shared(i, j) ≤ min(asc(i), asc(j))`, and with `mx` the largest
    /// shared variance so far:
    ///
    /// - a path `i` with `asc(i) ≤ mx` cannot raise `mx`: it is skipped;
    /// - once `mx ≥ asc(j)`, no later `i` can raise it: the scan stops;
    /// - once `mx` exceeds `var` or `var_j`, raising it cannot change
    ///   `mx.min(var).min(var_j)`: the scan stops. The test is strict so
    ///   that a signed zero never decides a `min`.
    ///
    /// Every sum starts at `+0.0` and adds terms `≥ 0`, so none is
    /// `-0.0`, and equal sums have equal bits. Each covariance, and so
    /// the estimate, has the bits of the unpruned fold over every pair.
    fn fold(&self) -> f64 {
        let words = self.bits.len() / self.best.len();
        let path = |p: usize| {
            let e = self.arena[self.best[p] as usize];
            (e.mean, e.var, &self.bits[p * words..(p + 1) * words])
        };
        let (mut m, mut var, _) = path(0);
        for j in 1..self.best.len() {
            let (m_j, var_j, bits_j) = path(j);
            let mut mx = 0.0f64;
            for i in 0..j {
                if mx >= self.asc[j] || mx > var.min(var_j) {
                    break;
                }
                if self.asc[i] > mx {
                    mx = mx.max(shared_variance(&self.var, path(i).2, bits_j));
                }
            }
            let cov = mx.min(var).min(var_j);
            (m, var) = clark_max_corr(m, var, m_j, var_j, cov);
        }
        m
    }
}

/// Sum of node variances over the intersection of two path node sets, in
/// ascending node id — the exact covariance of the two path sums.
fn shared_variance(node_var: &[f64], a: &[u64], b: &[u64]) -> f64 {
    let mut cov = 0.0;
    for (w, (&wa, &wb)) in a.iter().zip(b.iter()).enumerate() {
        let mut inter = wa & wb;
        while inter != 0 {
            let bit = inter.trailing_zeros() as usize;
            cov += node_var[w * 64 + bit];
            inter &= inter - 1;
        }
    }
    cov
}

/// Whether `a` pops before `b`.
#[inline]
fn above(a: &Cand, b: &Cand) -> bool {
    a.mean.total_cmp(&b.mean).then(a.tag.cmp(&b.tag)) == Ordering::Greater
}

/// Restores the heap order of `h` below position `i`.
fn sift_down(h: &mut [Cand], mut i: usize) {
    loop {
        let l = 2 * i + 1;
        if l >= h.len() {
            return;
        }
        let c = if l + 1 < h.len() && above(&h[l + 1], &h[l]) {
            l + 1
        } else {
            l
        };
        if !above(&h[c], &h[i]) {
            return;
        }
        h.swap(i, c);
        i = c;
    }
}

/// Orders `h` as a max-heap in O(len).
fn heapify(h: &mut [Cand]) {
    for i in (0..h.len() / 2).rev() {
        sift_down(h, i);
    }
}

/// Pops the best of the heap `h` plus `offer`, and returns it with the
/// heap's new length: the rest stays in `h`, which never grows. The
/// result is what a push of `offer` and then a pop would give.
fn pop_offering(h: &mut [Cand], offer: Option<Cand>) -> (Option<Cand>, usize) {
    match offer {
        Some(c) if h.is_empty() || above(&c, &h[0]) => (Some(c), h.len()),
        Some(c) => {
            let top = std::mem::replace(&mut h[0], c);
            sift_down(h, 0);
            (Some(top), h.len())
        }
        None if h.is_empty() => (None, 0),
        None => {
            let last = h.len() - 1;
            h.swap(0, last);
            sift_down(&mut h[..last], 0);
            (Some(h[last]), last)
        }
    }
}

#[cfg(test)]
impl PathApprox {
    /// The paths the last [`PathApprox::run`] selected, best first, as
    /// (sink, index in the sink's list, mean bits, variance bits).
    fn selection(&self) -> Vec<(u32, u32, u64, u64)> {
        let s = self.scratch.borrow();
        s.best
            .iter()
            .map(|&pos| {
                let sink = s.arena[pos as usize].node;
                let (mut at, mut index) = (sink, 0);
                while at != pos {
                    at = s.arena[at as usize].next;
                    index += 1;
                }
                let e = s.arena[pos as usize];
                (sink, index, e.mean.to_bits(), e.var.to_bits())
            })
            .collect()
    }
}

impl Evaluator for PathApprox {
    fn name(&self) -> &'static str {
        "PathApprox"
    }

    fn expected_makespan(&self, dag: &ProbDag) -> f64 {
        self.run(dag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactEnum;
    use crate::pdag::NodeDist;

    fn two(low: f64, high: f64, p: f64) -> NodeDist {
        NodeDist::TwoState {
            low,
            high,
            p_high: p,
        }
    }

    fn pa() -> PathApprox {
        PathApprox::default()
    }

    #[test]
    fn single_node_is_exact() {
        let mut g = ProbDag::new();
        g.add_node(two(10.0, 15.0, 0.25));
        let e = pa().run(&g);
        assert!((e - (0.75 * 10.0 + 0.25 * 15.0)).abs() < 1e-12);
    }

    #[test]
    fn chain_is_exact() {
        // A chain has a single path: the estimate is the exact mean.
        let mut g = ProbDag::new();
        let a = g.add_node(two(1.0, 1.5, 0.1));
        let b = g.add_node(two(2.0, 3.0, 0.2));
        let c = g.add_node(two(4.0, 6.0, 0.3));
        g.add_edge(a, b);
        g.add_edge(b, c);
        let expect = (0.9 * 1.0 + 0.1 * 1.5) + (0.8 * 2.0 + 0.2 * 3.0) + (0.7 * 4.0 + 0.3 * 6.0);
        assert!((pa().run(&g) - expect).abs() < 1e-12);
    }

    #[test]
    fn deterministic_dag_is_critical_path() {
        let mut g = ProbDag::new();
        let a = g.add_node(NodeDist::Certain(2.0));
        let b = g.add_node(NodeDist::Certain(5.0));
        let c = g.add_node(NodeDist::Certain(1.0));
        g.add_edge(a, b);
        g.add_edge(a, c);
        assert_eq!(pa().run(&g), 7.0);
    }

    #[test]
    fn diamond_close_to_exact() {
        let mut g = ProbDag::new();
        let a = g.add_node(two(1.0, 1.5, 0.01));
        let b = g.add_node(two(2.0, 3.0, 0.01));
        let c = g.add_node(two(4.0, 6.0, 0.01));
        let d = g.add_node(two(1.0, 1.5, 0.01));
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        let exact = ExactEnum.run(&g);
        let est = pa().run(&g);
        assert!(
            (est - exact).abs() < 0.005 * exact,
            "est {est} vs exact {exact}"
        );
    }

    #[test]
    fn estimate_within_as_bounds() {
        let mut g = ProbDag::new();
        let a = g.add_node(two(1.0, 1.5, 0.4));
        let b = g.add_node(two(2.0, 3.0, 0.4));
        let c = g.add_node(two(4.0, 6.0, 0.4));
        g.add_edge(a, b);
        g.add_edge(a, c);
        let e = pa().run(&g);
        assert!(e >= g.makespan_low() && e <= g.makespan_high());
    }

    #[test]
    fn monotone_in_p() {
        let build = |p: f64| {
            let mut g = ProbDag::new();
            let a = g.add_node(two(1.0, 1.5, p));
            let b = g.add_node(two(2.0, 3.0, p));
            g.add_edge(a, b);
            g
        };
        let lo = pa().run(&build(0.001));
        let hi = pa().run(&build(0.1));
        assert!(hi > lo);
    }

    #[test]
    fn k1_equals_best_mean_path() {
        // With K = 1 the estimate is the largest path mean (clamped).
        let mut g = ProbDag::new();
        let a = g.add_node(two(1.0, 1.5, 0.5));
        let b = g.add_node(two(2.0, 3.0, 0.5));
        let c = g.add_node(two(2.4, 3.6, 0.5));
        g.add_edge(a, b);
        g.add_edge(a, c);
        let est = PathApprox::with_k(1).run(&g);
        let best_mean = (0.5 * 1.0 + 0.5 * 1.5) + (0.5 * 2.4 + 0.5 * 3.6);
        assert!((est - best_mean).abs() < 1e-12);
    }

    #[test]
    fn more_paths_never_decreases_estimate_below_k1() {
        let mut g = ProbDag::new();
        let a = g.add_node(two(1.0, 1.5, 0.2));
        let b = g.add_node(two(2.0, 3.0, 0.2));
        let c = g.add_node(two(2.0, 3.0, 0.2));
        let d = g.add_node(two(1.0, 1.5, 0.2));
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        let e1 = PathApprox::with_k(1).run(&g);
        let e8 = PathApprox::with_k(8).run(&g);
        assert!(e8 >= e1 - 1e-12);
    }

    #[test]
    fn scratch_reuse_is_bitwise_stable() {
        // One evaluator across many different graphs: stale scratch
        // contents must never leak into a later estimate.
        let graphs: Vec<ProbDag> = (0..6)
            .map(|i| {
                let mut g = ProbDag::new();
                let nodes: Vec<_> = (0..(3 + 7 * i))
                    .map(|j| g.add_node(two(1.0 + j as f64, 2.0 + j as f64, 0.1)))
                    .collect();
                for w in nodes.windows(2) {
                    g.add_edge(w[0], w[1]);
                }
                // A few cross edges for multi-path structure.
                for j in (2..nodes.len()).step_by(3) {
                    g.add_edge(nodes[j - 2], nodes[j]);
                }
                g
            })
            .collect();
        let reused = pa();
        // Warm the scratch on the biggest graph first, then sweep.
        let _ = reused.run(graphs.last().unwrap());
        for g in &graphs {
            let fresh = pa().run(g);
            let warm = reused.run(g);
            assert_eq!(fresh.to_bits(), warm.to_bits());
        }
    }
}

//! Checkpoint placement in superchains — Algorithm 2 (§IV).
//!
//! Extends Toueg & Babaoğlu's chain algorithm to superchains with the
//! paper's *extended checkpoint semantics*: the checkpoint taken after a
//! task saves the output of **all** executed-but-uncheckpointed tasks that
//! still have unexecuted successors (all solid dependence edges crossing
//! the checkpoint time). Segments between checkpoints therefore recover
//! independently: a failure rolls back exactly to the previous checkpoint.
//!
//! `ETime(j) = min( T(a,j), min_{a≤i<j} ETime(i) + T(i+1,j) )` where
//! `T(i,j)` is the first-order expected time (Eq. (2)) to read the
//! segment's external inputs (`Rᵢʲ`), run it (`Wᵢʲ`), and checkpoint the
//! data needed later (`Cᵢʲ`). All file costs deduplicate by file — a file
//! consumed by several segment tasks is read once, a file needed by
//! several later tasks is saved once.
//!
//! ## Complexity
//!
//! The general DP is quadratic in the superchain length, and comes in
//! two halves. The **fill** ([`fill_segment_table`]) builds the
//! `n(n+1)/2`-cell `base(i, j)` table with an incremental sweep in
//! `O(n·(E + n))`; it reads the workflow, the bandwidth and the chain,
//! never the failure model. The **minimization**
//! ([`minimize_segment_table`]) scans the `O(n²)` candidate splits of
//! a given table; it is the only half that reads λ. The one-shot path
//! ([`optimal_checkpoints_exact_quadratic`]) runs both in a row on the
//! caller's [`DpScratch`]; a caller that keeps the tables of a
//! schedule ([`SegmentTables`]) re-runs only the minimization when the
//! model drifts. Long chains (`n ≥` [`KERNEL_MIN_LEN`]) first attempt the
//! subquadratic **candidate-queue kernel** — `O(n log n)` cost probes
//! and `O(n)` memory, never building the dense table — which applies
//! when three preconditions hold:
//!
//! 1. the chain's segment costs decompose **additively**,
//!    `base(i, j) = A[j] − B[i]` (detected in `O(n + E)` by classifying
//!    every file touched by the chain — see
//!    `DpScratch::fill_additive_profile`);
//! 2. both profiles `A` and `B` are **nondecreasing** (high
//!    communication-to-computation ratios can break this);
//! 3. the model's expected segment time is **convex** in the span
//!    (exponential always; Weibull `shape ≥ 1`; LogNormal never — see
//!    `convex_segment_time`).
//!
//! Any chain failing the gate falls back to the exact quadratic path
//! **bit-for-bit** (it is the same historical code), so the experiment
//! CSVs — whose superchains are far below the length threshold — are
//! unaffected. See `DESIGN.md` §9 for the crossing argument and the
//! fallback contract.

use mspg::{Dag, FileId, TaskId};

use crate::budget::Budget;
use crate::failure_model::{FailureModel, RestartCurve};
use crate::schedule::Superchain;

/// Cost context: the workflow, the processor failure model, and the
/// stable storage bandwidth — plus, for non-memoryless models, an
/// optional borrowed [`RestartCurve`] that answers renewal queries from
/// a precomputed table instead of per-query quadrature.
#[derive(Clone, Copy, Debug)]
pub struct CostCtx<'a> {
    /// The workflow DAG (weights and file sizes).
    pub dag: &'a Dag,
    /// Per-processor failure distribution.
    pub model: FailureModel,
    /// Stable-storage bandwidth (bytes/s).
    pub bandwidth: f64,
    /// Cached renewal curve for non-memoryless models (`None` falls back
    /// to direct quadrature; ignored — never consulted — for the
    /// exponential model, whose closed form short-circuits first).
    /// `Pipeline` builds one per platform and threads it through every
    /// cost path; see `DESIGN.md` §7.
    pub curve: Option<&'a RestartCurve>,
    /// Cooperative cancellation/deadline budget. `None` (every offline
    /// path) costs one branch per DP row; when present, the DP sweeps
    /// poll it once per outer iteration and abandon the computation by
    /// unwinding with [`crate::budget::Cancelled`] — see the module
    /// docs of [`crate::budget`] for the abort contract.
    pub budget: Option<&'a Budget>,
}

impl<'a> CostCtx<'a> {
    /// The paper's context: exponential failures of rate `lambda`.
    pub fn exponential(dag: &'a Dag, lambda: f64, bandwidth: f64) -> Self {
        CostCtx {
            dag,
            model: FailureModel::exponential(lambda),
            bandwidth,
            curve: None,
            budget: None,
        }
    }

    /// A context with an arbitrary failure model (renewal queries go
    /// through direct quadrature; prefer [`CostCtx::with_curve`] on hot
    /// paths).
    pub fn with_model(dag: &'a Dag, model: FailureModel, bandwidth: f64) -> Self {
        CostCtx {
            dag,
            model,
            bandwidth,
            curve: None,
            budget: None,
        }
    }

    /// A context with an arbitrary failure model and a prebuilt renewal
    /// curve for it.
    ///
    /// # Panics
    /// Panics if `curve` was built for a different model (a mismatched
    /// cache would silently answer the wrong renewal equation).
    pub fn with_curve(
        dag: &'a Dag,
        model: FailureModel,
        bandwidth: f64,
        curve: Option<&'a RestartCurve>,
    ) -> Self {
        if let Some(c) = curve {
            assert!(
                *c.model() == model,
                "renewal curve was built for {:?}, not {:?}",
                c.model(),
                model
            );
        }
        CostCtx {
            dag,
            model,
            bandwidth,
            curve,
            budget: None,
        }
    }

    /// Cooperative cancellation point for the DP hot loops: no-op
    /// without a budget, unwinds with [`crate::budget::Cancelled`] when
    /// the attached budget is exhausted.
    #[inline]
    pub fn check_budget(&self) {
        if let Some(b) = self.budget {
            b.check();
        }
    }

    /// Expected time to execute a segment whose failure-free span is
    /// `base = R + W + C`.
    ///
    /// * Exponential model — Eq. (2)'s closed first-order form
    ///   `(1-λ·base)·base + λ·base·(3/2·base) = base + λ·base²/2`
    ///   (bit-for-bit the paper's path, never touching the curve);
    /// * any other model — the exact renewal (restart) solve, answered
    ///   from the [`RestartCurve`] when one is attached (within its
    ///   documented tolerance) or by the direct deterministic quadrature
    ///   of [`FailureModel::expected_restart_time`] otherwise, with the
    ///   discrete-event simulator as ground truth.
    #[inline]
    pub fn expected_segment_time(&self, base: f64) -> f64 {
        match self.model {
            FailureModel::Exponential { lambda } => base + 0.5 * lambda * base * base,
            model => match self.curve {
                Some(curve) => curve.expected_restart_time(base),
                None => model.expected_restart_time(base),
            },
        }
    }

    /// The two-state surrogate's failure-branch probability for a
    /// segment of span `base`: the `p_high` of the coalesced node whose
    /// mean `(1 + p/2)·base` matches [`CostCtx::expected_segment_time`].
    /// For the exponential model this is the paper's `λ·base` exactly.
    #[inline]
    pub fn two_state_p_high(&self, base: f64) -> f64 {
        match self.model {
            FailureModel::Exponential { lambda } => (lambda * base).min(1.0),
            _ => {
                if base == 0.0 {
                    0.0
                } else {
                    (2.0 * (self.expected_segment_time(base) / base - 1.0)).clamp(0.0, 1.0)
                }
            }
        }
    }
}

/// Failure-free costs of one segment: stable-storage read time `r`,
/// compute time `w`, checkpoint write time `c` (seconds).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SegmentCost {
    /// `Rᵢʲ` — external inputs (files produced outside the segment,
    /// including workflow inputs), deduplicated by file.
    pub r: f64,
    /// `Wᵢʲ` — sum of task weights.
    pub w: f64,
    /// `Cᵢʲ` — files produced in the segment and consumed after it,
    /// deduplicated by file.
    pub c: f64,
}

impl SegmentCost {
    /// Failure-free span `R + W + C`.
    #[inline]
    pub fn base(&self) -> f64 {
        self.r + self.w + self.c
    }
}

/// An epoch-stamped id set: O(1) insert/contains keyed by a dense id
/// (`TaskId`/`FileId` index), with O(1) clearing between uses — the
/// reusable-bitset replacement for the `Vec::contains` scans that made
/// [`segment_cost`] quadratic in segment width. Shared crate-wide by the
/// segment-cost sweeps, the policy subsystem's membership tests, and the
/// placement-stats accounting.
#[derive(Clone, Debug, Default)]
pub(crate) struct IdSet {
    stamp: Vec<u32>,
    epoch: u32,
}

impl IdSet {
    /// Clears the set and ensures capacity for ids `< n`.
    pub(crate) fn reset(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Inserts `i`; returns `true` if it was not already present.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) -> bool {
        if self.stamp[i] == self.epoch {
            false
        } else {
            self.stamp[i] = self.epoch;
            true
        }
    }

    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.stamp[i] == self.epoch
    }
}

/// Reusable scratch buffers for [`segment_cost_reusing`]: one allocation
/// amortized across every segment of a coalescing pass (or across the
/// simulator's cross-checks) instead of three fresh ones per call.
#[derive(Clone, Debug, Default)]
pub struct SegmentCostScratch {
    tasks: IdSet,
    read: IdSet,
    ckpt: IdSet,
}

impl SegmentCostScratch {
    /// An empty scratch; buffers grow to fit the DAG on first use.
    pub fn new() -> Self {
        SegmentCostScratch::default()
    }
}

/// Computes the cost of the segment `chain[lo..=hi]` directly (used by the
/// simulator and as a cross-check for the DP's incremental sweep).
pub fn segment_cost(ctx: &CostCtx<'_>, chain: &[TaskId], lo: usize, hi: usize) -> SegmentCost {
    segment_cost_reusing(ctx, chain, lo, hi, &mut SegmentCostScratch::new())
}

/// [`segment_cost`] with caller-owned scratch buffers. File and task
/// dedup is O(1) per check via epoch-stamped id sets, so the cost of a
/// segment of `k` tasks touching `m` files is `O(k + m)` rather than the
/// `O(m²)` of the former `Vec::contains` scans.
#[inline]
pub fn segment_cost_reusing(
    ctx: &CostCtx<'_>,
    chain: &[TaskId],
    lo: usize,
    hi: usize,
    scratch: &mut SegmentCostScratch,
) -> SegmentCost {
    segment_cost_at(ctx.dag, ctx.bandwidth, chain, lo, hi, scratch)
}

/// [`segment_cost_reusing`] from the two inputs it reads: the costs of
/// a segment never depend on the failure model.
pub(crate) fn segment_cost_at(
    dag: &Dag,
    bandwidth: f64,
    chain: &[TaskId],
    lo: usize,
    hi: usize,
    scratch: &mut SegmentCostScratch,
) -> SegmentCost {
    assert!(lo <= hi && hi < chain.len());
    scratch.tasks.reset(dag.n_tasks());
    scratch.read.reset(dag.n_files());
    scratch.ckpt.reset(dag.n_files());
    for &t in &chain[lo..=hi] {
        scratch.tasks.insert(t.index());
    }
    let mut w = 0.0;
    let mut r_bytes = 0.0;
    let mut c_bytes = 0.0;
    for &t in &chain[lo..=hi] {
        w += dag.weight(t);
        for &(u, f) in dag.preds(t) {
            if !scratch.tasks.contains(u.index()) && scratch.read.insert(f.index()) {
                r_bytes += dag.file(f).size;
            }
        }
        // Workflow inputs and transitive reads (GSPG support): read from
        // storage unless the producer is inside the segment.
        for &f in dag.input_files(t) {
            let produced_inside = dag
                .producer(f)
                .is_some_and(|u| scratch.tasks.contains(u.index()));
            if !produced_inside && scratch.read.insert(f.index()) {
                r_bytes += dag.file(f).size;
            }
        }
        for &f in dag.output_files(t) {
            let needed_later = dag
                .consumers(f)
                .iter()
                .any(|&v| !scratch.tasks.contains(v.index()));
            if needed_later && scratch.ckpt.insert(f.index()) {
                c_bytes += dag.file(f).size;
            }
        }
    }
    SegmentCost {
        r: r_bytes / bandwidth,
        w,
        c: c_bytes / bandwidth,
    }
}

/// Result of the checkpoint DP on one superchain.
#[derive(Clone, Debug)]
pub struct CheckpointChoice {
    /// `ckpt_after[k]` — take a checkpoint after `chain[k]`. The final
    /// position is always checkpointed (crossover-dependency removal,
    /// §IV-B).
    pub ckpt_after: Vec<bool>,
    /// The DP's optimal expected time to execute the superchain.
    pub expected_time: f64,
}

/// Optimal checkpoint positions for a superchain (Algorithm 2): the
/// exact `O(n²)` DP over all segment splits, with the subquadratic
/// candidate-queue kernel engaging automatically on long qualifying
/// chains (see the module docs). An empty chain yields an empty
/// placement with expected time `0.0` (a documented skip — degenerate
/// schedules must not panic the planner mid-grid).
///
/// Allocates fresh buffers per call; steady-state loops over many
/// superchains should hold a [`DpScratch`] and call
/// [`optimal_checkpoints_reusing`] instead.
pub fn optimal_checkpoints(ctx: &CostCtx<'_>, chain: &[TaskId]) -> CheckpointChoice {
    let mut scratch = DpScratch::new();
    let expected_time = optimal_checkpoints_reusing(ctx, chain, &mut scratch);
    CheckpointChoice {
        ckpt_after: scratch.ckpt_after().to_vec(),
        expected_time,
    }
}

/// Chains at least this long attempt the subquadratic candidate-queue
/// kernel before the exact quadratic DP; shorter chains always run the
/// historical quadratic path, whose arithmetic the experiment CSVs pin
/// bit-for-bit. 512 keeps every superchain of the paper grids (≤ ~350
/// tasks at their sizes and processor counts — pinned by the
/// `paper_workflows_stay_on_the_exact_path` test) on the exact path
/// while engaging the kernel well before the dense `base(i, j)` table
/// becomes the dominant planning cost.
pub const KERNEL_MIN_LEN: usize = 512;

/// [`optimal_checkpoints`] with caller-owned scratch buffers: runs the
/// DP with zero heap allocations once the scratch has grown to the
/// workload's high-water mark. The chosen positions are left in
/// [`DpScratch::ckpt_after`]; the optimal expected time is returned.
/// An empty chain is a documented skip: expected time `0.0`, empty
/// [`DpScratch::ckpt_after`].
pub fn optimal_checkpoints_reusing(
    ctx: &CostCtx<'_>,
    chain: &[TaskId],
    scratch: &mut DpScratch,
) -> f64 {
    optimal_checkpoints_tuned(ctx, chain, scratch, KERNEL_MIN_LEN)
}

/// [`optimal_checkpoints_reusing`] with an explicit kernel length
/// threshold, so tests can force the kernel onto short chains (or force
/// it off entirely with `usize::MAX`). Test-only surface.
#[doc(hidden)]
pub fn optimal_checkpoints_tuned(
    ctx: &CostCtx<'_>,
    chain: &[TaskId],
    scratch: &mut DpScratch,
    kernel_min_len: usize,
) -> f64 {
    scratch.kernel_used = false;
    let n = chain.len();
    if n == 0 {
        // Documented skip, not a panic: a degenerate schedule may hand
        // the planner an empty superchain; it plans as "no tasks, no
        // checkpoints, zero expected time" — `ckpt_after()` is empty,
        // matching `plan_with_policy`'s tolerance of empty chains.
        scratch.n_last = 0;
        return 0.0;
    }
    if n >= kernel_min_len && convex_segment_time(&ctx.model) {
        if let Some(t) = kernel_attempt(ctx, chain, scratch) {
            scratch.kernel_used = true;
            return t;
        }
    }
    optimal_checkpoints_exact_quadratic(ctx, chain, scratch)
}

/// The exact `O(n²)` DP — the historical path whose arithmetic every
/// experiment CSV pins bit-for-bit: [`fill_segment_table`] followed by
/// [`minimize_segment_table`] on the scratch's own table. Production
/// code reaches it through [`optimal_checkpoints_reusing`], which
/// dispatches here whenever the kernel's gate rejects the chain; it is
/// public so the equivalence tests can compare the kernel against it
/// directly.
#[doc(hidden)]
pub fn optimal_checkpoints_exact_quadratic(
    ctx: &CostCtx<'_>,
    chain: &[TaskId],
    scratch: &mut DpScratch,
) -> f64 {
    let n = chain.len();
    assert!(n > 0, "empty superchain");
    let cells = segment_table_len(n);
    let mut base = std::mem::take(&mut scratch.base);
    grow(&mut base, cells, 0.0);
    fill_segment_table(ctx.dag, ctx.bandwidth, chain, &mut base[..cells], scratch);
    let expected_time = minimize_segment_table(ctx, &base[..cells], n, scratch);
    scratch.base = base;
    expected_time
}

/// Cells of a chain's segment table: the `n(n+1)/2` spans `base(i, j)`,
/// `i ≤ j`, that [`minimize_segment_table`] reads.
pub fn segment_table_len(n: usize) -> usize {
    n * (n + 1) / 2
}

/// The λ-free half of the exact DP: fills `table` with the failure-free
/// span `R + W + C` of every segment `chain[i..=j]`, row by row (`i`
/// ascending, then `j` from `i` up — the packed upper triangle, so row
/// `i` starts at cell `i·n − i(i−1)/2`). Reads only the workflow, the
/// bandwidth and the chain; `scratch` lends its sweep stamps and
/// carries no data between calls.
///
/// The sweep is incremental, `O(n·(E+n))`: for each start `i`, extend
/// `j` rightward maintaining R/W/C with per-file counters, writing one
/// cell per step. Bit-identical arithmetic to the historical per-call
/// `SegmentTable`; only the buffer lifetimes and the table's layout
/// changed.
///
/// # Panics
/// Panics unless `table.len()` is [`segment_table_len`]`(chain.len())`.
pub fn fill_segment_table(
    dag: &Dag,
    bandwidth: f64,
    chain: &[TaskId],
    table: &mut [f64],
    scratch: &mut DpScratch,
) {
    assert_eq!(
        table.len(),
        segment_table_len(chain.len()),
        "segment table size"
    );
    let n = chain.len();
    let nf = dag.n_files();
    grow(&mut scratch.pos, dag.n_tasks(), usize::MAX);
    grow(&mut scratch.stamp, nf, 0);
    grow(&mut scratch.read_stamp, nf, 0);
    grow(&mut scratch.outside_consumers, nf, 0);
    // Stamps are compared against `mark0 + i`; advancing the mark
    // base by `n` per fill is an O(1) clear of both stamp arrays.
    if scratch.next_mark > u64::MAX - (n as u64 + 1) {
        scratch.stamp.fill(0);
        scratch.read_stamp.fill(0);
        scratch.next_mark = 1;
    }
    let mark0 = scratch.next_mark.max(1);
    scratch.next_mark = mark0 + n as u64;
    for (k, &t) in chain.iter().enumerate() {
        scratch.pos[t.index()] = k;
    }
    let pos = &scratch.pos;
    let (stamp, read_stamp) = (&mut scratch.stamp, &mut scratch.read_stamp);
    let outside_consumers = &mut scratch.outside_consumers;
    let mut cell = 0;
    for i in 0..n {
        let mark = mark0 + i as u64;
        let mut r_bytes = 0.0f64;
        let mut w = 0.0f64;
        let mut c_bytes = 0.0f64;
        for &t in &chain[i..] {
            w += dag.weight(t);
            // External inputs: producer outside [i..=j]. Producers
            // precede consumers, so "outside" is fixed for fixed i.
            for &(u, f) in dag.preds(t) {
                let fp = f.index();
                let u_inside = pos[u.index()] != usize::MAX && pos[u.index()] >= i;
                if u_inside {
                    // A producer inside the segment: this consumer
                    // leaves the file's outside-consumer set.
                    if stamp[fp] == mark && outside_consumers[fp] > 0 {
                        outside_consumers[fp] -= 1;
                        if outside_consumers[fp] == 0 {
                            c_bytes -= dag.file(f).size;
                        }
                    }
                } else if read_stamp[fp] != mark {
                    read_stamp[fp] = mark;
                    r_bytes += dag.file(f).size;
                }
            }
            // Workflow inputs and transitive reads (GSPG support).
            for &f in dag.input_files(t) {
                let fp = f.index();
                let u_inside = dag
                    .producer(f)
                    .is_some_and(|u| pos[u.index()] != usize::MAX && pos[u.index()] >= i);
                if u_inside {
                    if stamp[fp] == mark && outside_consumers[fp] > 0 {
                        outside_consumers[fp] -= 1;
                        if outside_consumers[fp] == 0 {
                            c_bytes -= dag.file(f).size;
                        }
                    }
                } else if read_stamp[fp] != mark {
                    read_stamp[fp] = mark;
                    r_bytes += dag.file(f).size;
                }
            }
            // Outputs: initially every consumer is outside (consumers
            // are topologically after the producer).
            for &f in dag.output_files(t) {
                let fp = f.index();
                let consumers = dag.consumers(f).len();
                stamp[fp] = mark;
                outside_consumers[fp] = consumers;
                if consumers > 0 {
                    c_bytes += dag.file(f).size;
                }
            }
            table[cell] = (r_bytes + c_bytes) / bandwidth + w;
            cell += 1;
        }
    }
    // Restore the position map for the next chain.
    for &t in chain {
        scratch.pos[t.index()] = usize::MAX;
    }
}

/// The λ half of the exact DP: Algorithm 2's minimization of
/// `ETime(j)` over the segment splits of an `n`-task chain whose
/// segment spans `table` holds ([`fill_segment_table`]'s layout). The
/// chosen positions are left in [`DpScratch::ckpt_after`]; the optimal
/// expected time is returned. Polls the context's budget once per row.
///
/// # Panics
/// Panics on an empty chain or unless `table.len()` is
/// [`segment_table_len`]`(n)`.
pub fn minimize_segment_table(
    ctx: &CostCtx<'_>,
    table: &[f64],
    n: usize,
    scratch: &mut DpScratch,
) -> f64 {
    assert!(n > 0, "empty superchain");
    assert_eq!(table.len(), segment_table_len(n), "segment table size");
    scratch.kernel_used = false;
    grow(&mut scratch.etime, n, 0.0);
    grow(&mut scratch.last, n, usize::MAX);
    grow(&mut scratch.ckpt, n, false);
    {
        let DpScratch { etime, last, .. } = scratch;
        for j in 0..n {
            // One budget poll per DP row: O(n) polls against O(n²)
            // work, cheap enough to never show in profiles yet tight
            // enough that a deadline abandons the sweep within one row.
            ctx.check_budget();
            // Segment [0..=j] is cell j of row 0.
            etime[j] = ctx.expected_segment_time(table[j]);
            last[j] = usize::MAX;
            // Segment [i+1..=j] walks down column j: row i+1 starts
            // n − i cells after row i, and is one cell shorter.
            let mut at = n + j - 1;
            for i in 0..j {
                let cand = etime[i] + ctx.expected_segment_time(table[at]);
                if cand < etime[j] {
                    etime[j] = cand;
                    last[j] = i;
                }
                at += n - i - 2;
            }
        }
    }
    scratch.traceback(n);
    scratch.etime[n - 1]
}

/// The λ-free half of the exact DP for every superchain of a schedule:
/// each chain shorter than [`KERNEL_MIN_LEN`] keeps its
/// [`segment_table_len`] cells, which are all that
/// [`minimize_segment_table`] reads. Longer chains store nothing: they
/// keep the per-call path (the kernel, or the quadratic DP) of
/// [`optimal_checkpoints_reusing`]. Its size is
/// 8 bytes × Σ n(n+1)/2 over the stored chains.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SegmentTables {
    /// Superchain `k`'s cells are `cells[starts[k]..starts[k + 1]]`
    /// (empty for a chain that stores nothing).
    starts: Vec<usize>,
    cells: Vec<f64>,
}

impl SegmentTables {
    /// Fills the table of every stored chain of `chains` at `bandwidth`.
    pub fn build(dag: &Dag, bandwidth: f64, chains: &[Superchain]) -> Self {
        let stored = |n: usize| if n < KERNEL_MIN_LEN { n } else { 0 };
        let mut starts = Vec::with_capacity(chains.len() + 1);
        let mut end = 0;
        starts.push(end);
        for sc in chains {
            end += segment_table_len(stored(sc.tasks.len()));
            starts.push(end);
        }
        let mut cells = vec![0.0; end];
        let mut scratch = DpScratch::new();
        for (k, sc) in chains.iter().enumerate() {
            if stored(sc.tasks.len()) > 0 {
                let table = &mut cells[starts[k]..starts[k + 1]];
                fill_segment_table(dag, bandwidth, &sc.tasks, table, &mut scratch);
            }
        }
        SegmentTables { starts, cells }
    }

    /// Superchain `k`'s table, or `None` when the chain stores nothing
    /// (it is empty or at least [`KERNEL_MIN_LEN`] long).
    pub fn table(&self, k: usize) -> Option<&[f64]> {
        let cells = &self.cells[self.starts[k]..self.starts[k + 1]];
        (!cells.is_empty()).then_some(cells)
    }

    /// Number of superchains the tables were built for.
    pub fn n_chains(&self) -> usize {
        self.starts.len() - 1
    }

    /// Bytes the stored cells occupy.
    pub fn bytes(&self) -> usize {
        std::mem::size_of_val(self.cells.as_slice())
    }
}

/// Whether [`CostCtx::expected_segment_time`] is convex in the span for
/// this model — the analytic precondition of the candidate-queue
/// kernel's once-crossing pruning rule. Exponential: `b + λb²/2` is
/// convex for any `λ ≥ 0`. Weibull `shape ≥ 1`: the renewal solve
/// `E(b) = ∫₀ᵇ S / S(b)` satisfies `E″ = h + h²E + h′E ≥ 0` for a
/// nondecreasing hazard `h`. A decreasing hazard (Weibull `shape < 1`)
/// or a non-monotone one (LogNormal) carries no such guarantee, so
/// those models always take the exact quadratic path.
fn convex_segment_time(model: &FailureModel) -> bool {
    match *model {
        FailureModel::Exponential { .. } => true,
        FailureModel::Weibull { shape, .. } => shape >= 1.0,
        FailureModel::LogNormal { .. } => false,
    }
}

/// The kernel's cost probe: the expected segment time of the additive
/// span `A[j] − B[s]`, clamped at zero (the subtraction can round a
/// mathematically nonnegative span to a tiny negative, which the
/// curve-backed path rejects). The additive reference DP uses the *same*
/// expression, which is what makes kernel-vs-reference comparisons
/// bit-exact.
#[inline]
fn probe(ctx: &CostCtx<'_>, span: f64) -> f64 {
    ctx.expected_segment_time(if span > 0.0 { span } else { 0.0 })
}

/// The candidate-queue kernel (convex least-weight-subsequence):
/// `O(n log n)` cost probes and `O(n)` memory when the chain's segment
/// costs decompose additively and both profiles are monotone. Returns
/// `None` (the caller falls back to the exact quadratic DP) when either
/// structural precondition fails; the model-convexity gate is the
/// caller's responsibility.
///
/// Candidate `s` is a segment start: `val(s, j) = prev(s) + f(A[j] −
/// B[s])` with `prev(0) = 0` and `prev(s) = etime[s−1]`. Convexity of
/// `f` plus monotone profiles make any two candidate curves cross at
/// most once in `j`, so a queue of `(start, takeover-position)` pairs —
/// each optimal from its takeover until the next entry's — represents
/// the full lower envelope. Every comparison uses strict `<` with the
/// *older* (smaller `s`) candidate winning ties, reproducing the
/// quadratic path's leftmost-argmin tie-break exactly.
fn kernel_attempt(ctx: &CostCtx<'_>, chain: &[TaskId], scratch: &mut DpScratch) -> Option<f64> {
    let n = chain.len();
    if !scratch.fill_additive_profile(ctx, chain) {
        return None;
    }
    {
        let a = &scratch.prof_a[..n];
        let b = &scratch.prof_b[..n];
        if !a[0].is_finite() || !b[0].is_finite() {
            return None;
        }
        for j in 1..n {
            // Monotone profiles are what make candidate curves cross at
            // most once; a single violation (possible at high CCR, where
            // an adjacent-edge read outweighs a task) forfeits the
            // pruning argument for the whole chain.
            if !(a[j] >= a[j - 1] && b[j] >= b[j - 1] && a[j].is_finite() && b[j].is_finite()) {
                return None;
            }
        }
    }
    grow(&mut scratch.etime, n, 0.0);
    grow(&mut scratch.last, n, usize::MAX);
    grow(&mut scratch.ckpt, n, false);
    grow(&mut scratch.kq_s, 2 * n + 2, 0);
    grow(&mut scratch.kq_from, 2 * n + 2, 0);
    {
        let DpScratch {
            prof_a,
            prof_b,
            etime,
            last,
            kq_s,
            kq_from,
            ..
        } = scratch;
        let a = &prof_a[..n];
        let b = &prof_b[..n];
        // The queue lives in kq_s/kq_from[head .. head + len]; the head
        // only advances and each candidate is pushed at most once, so
        // slot indices stay below 2n + 2.
        let mut head = 0usize;
        let mut len = 1usize;
        kq_s[0] = 0;
        kq_from[0] = 0;
        for j in 0..n {
            // Same per-row cancellation cadence as the quadratic path.
            ctx.check_budget();
            if j > 0 {
                // Insert candidate s = j (its prefix cost etime[j−1] is
                // final). Pop back entries it dominates from their
                // earliest still-relevant position; convexity says a win
                // there is a win everywhere later.
                let pj = etime[j - 1];
                let mut takeover = None;
                while len > 0 {
                    let bs = kq_s[head + len - 1];
                    let bf = kq_from[head + len - 1].max(j);
                    let pb = if bs == 0 { 0.0 } else { etime[bs - 1] };
                    if pj + probe(ctx, a[bf] - b[j]) < pb + probe(ctx, a[bf] - b[bs]) {
                        len -= 1;
                        continue;
                    }
                    // The newcomer loses at bf: binary-search the first
                    // position where it strictly wins (hi = n ⇒ never).
                    let (mut lo, mut hi) = (bf, n);
                    while lo + 1 < hi {
                        let mid = (lo + hi) / 2;
                        if pj + probe(ctx, a[mid] - b[j]) < pb + probe(ctx, a[mid] - b[bs]) {
                            hi = mid;
                        } else {
                            lo = mid;
                        }
                    }
                    takeover = Some(hi);
                    break;
                }
                if len == 0 {
                    // The newcomer dominated the whole queue: it is the
                    // leftmost argmin from j on.
                    kq_s[head] = j;
                    kq_from[head] = j;
                    len = 1;
                } else if let Some(t) = takeover {
                    if t < n {
                        kq_s[head + len] = j;
                        kq_from[head + len] = t;
                        len += 1;
                    }
                }
            }
            while len > 1 && kq_from[head + 1] <= j {
                head += 1;
                len -= 1;
            }
            let s = kq_s[head];
            let prev = if s == 0 { 0.0 } else { etime[s - 1] };
            etime[j] = prev + probe(ctx, a[j] - b[s]);
            last[j] = if s == 0 { usize::MAX } else { s - 1 };
        }
    }
    scratch.traceback(n);
    Some(scratch.etime[n - 1])
}

/// The `O(n²)` reference DP over the *additive* cost probes — identical
/// arithmetic (`prev + f(A[j] − B[s])`, strict-`<` leftmost tie-break)
/// to the candidate-queue kernel but with an exhaustive scan, so
/// kernel-vs-reference equality is exact rather than
/// tolerance-bounded. `None` when the chain has no additive
/// decomposition. Test-only surface; production code never calls this.
#[doc(hidden)]
pub fn optimal_checkpoints_additive_reference(
    ctx: &CostCtx<'_>,
    chain: &[TaskId],
    scratch: &mut DpScratch,
) -> Option<f64> {
    let n = chain.len();
    if n == 0 || !scratch.fill_additive_profile(ctx, chain) {
        return None;
    }
    grow(&mut scratch.etime, n, 0.0);
    grow(&mut scratch.last, n, usize::MAX);
    grow(&mut scratch.ckpt, n, false);
    {
        let DpScratch {
            prof_a,
            prof_b,
            etime,
            last,
            ..
        } = scratch;
        let a = &prof_a[..n];
        let b = &prof_b[..n];
        for j in 0..n {
            etime[j] = probe(ctx, a[j] - b[0]);
            last[j] = usize::MAX;
            for s in 1..=j {
                let cand = etime[s - 1] + probe(ctx, a[j] - b[s]);
                if cand < etime[j] {
                    etime[j] = cand;
                    last[j] = s - 1;
                }
            }
        }
    }
    scratch.traceback(n);
    Some(scratch.etime[n - 1])
}

/// The candidate-queue kernel with no length threshold — `None` when
/// the gate (model convexity, additive decomposition, monotone
/// profiles) rejects the chain. Test-only surface for the equivalence
/// proptests.
#[doc(hidden)]
pub fn optimal_checkpoints_kernel_forced(
    ctx: &CostCtx<'_>,
    chain: &[TaskId],
    scratch: &mut DpScratch,
) -> Option<f64> {
    scratch.kernel_used = false;
    if chain.is_empty() || !convex_segment_time(&ctx.model) {
        return None;
    }
    let t = kernel_attempt(ctx, chain, scratch)?;
    scratch.kernel_used = true;
    Some(t)
}

/// Grows `v` to at least `n` elements (never shrinks — the point is to
/// keep the high-water allocation across calls).
fn grow<T: Clone>(v: &mut Vec<T>, n: usize, fill: T) {
    if v.len() < n {
        v.resize(n, fill);
    }
}

/// Reusable buffers for the checkpoint DP ([`optimal_checkpoints_reusing`]):
/// the `base(i, j)` segment table, the per-file sweep stamps, and
/// the DP's `etime`/`last`/`ckpt_after` arrays. One scratch amortizes
/// every allocation across all superchains of a plan (and across plans),
/// which is what makes the steady-state assess loop allocation-free.
#[derive(Clone, Debug, Default)]
pub struct DpScratch {
    /// The segment table of the one-shot path ([`fill_segment_table`]'s
    /// packed layout).
    base: Vec<f64>,
    /// Position of each task within the current chain (`usize::MAX` =
    /// outside); entries are restored to `MAX` after each fill.
    pos: Vec<usize>,
    /// Per-file "produced inside the current sweep" stamp.
    stamp: Vec<u64>,
    /// Per-file "already counted as read in the current sweep" stamp.
    read_stamp: Vec<u64>,
    /// Outside-consumer counts of files stamped in the current sweep.
    outside_consumers: Vec<usize>,
    /// First stamp value of the next fill (stamp arrays are zero-valid,
    /// so marks start at 1 and advance by `n` per fill instead of being
    /// cleared).
    next_mark: u64,
    /// DP expected-time table.
    etime: Vec<f64>,
    /// DP back-pointers.
    last: Vec<usize>,
    /// Chosen checkpoint positions of the last run.
    ckpt: Vec<bool>,
    /// Chain length of the last run (prefix of `ckpt` that is valid).
    n_last: usize,
    /// Additive profile of the subquadratic kernel: `base(i, j) =
    /// prof_a[j] − prof_b[i]` when the chain qualifies (see
    /// `fill_additive_profile`).
    prof_a: Vec<f64>,
    prof_b: Vec<f64>,
    /// Per-position byte accumulators of the profile build:
    /// always-checkpointed + single-consumer-read bytes, and the
    /// adjacent-edge read/checkpoint bytes.
    prof_bytes: Vec<f64>,
    prof_edge_r: Vec<f64>,
    prof_edge_c: Vec<f64>,
    /// Profile-build file dedup (an external file reachable from several
    /// chain tasks is classified once).
    prof_seen: IdSet,
    /// Candidate queue of the kernel (`(start, takeover)` pairs).
    kq_s: Vec<usize>,
    kq_from: Vec<usize>,
    /// Whether the most recent run used the subquadratic kernel (`false`
    /// = the exact quadratic path, the one the experiment CSVs pin).
    kernel_used: bool,
}

impl DpScratch {
    /// An empty scratch; buffers grow to the workload's high-water mark
    /// on use and are never shrunk.
    pub fn new() -> Self {
        DpScratch::default()
    }

    /// Checkpoint positions chosen by the most recent
    /// [`optimal_checkpoints_reusing`] call (`ckpt_after[k]` = take a
    /// checkpoint after `chain[k]`).
    pub fn ckpt_after(&self) -> &[bool] {
        &self.ckpt[..self.n_last]
    }

    /// Whether the most recent [`optimal_checkpoints_reusing`] call ran
    /// the subquadratic kernel (`false` = the exact quadratic path — the
    /// arithmetic every experiment CSV pins). Introspection for the
    /// kernel-engagement tests.
    pub fn last_run_used_kernel(&self) -> bool {
        self.kernel_used
    }

    /// Marks the checkpoint positions implied by the `last[]`
    /// back-pointers (the final position is always checkpointed) and
    /// records the valid prefix length.
    fn traceback(&mut self, n: usize) {
        self.ckpt[..n].fill(false);
        self.ckpt[n - 1] = true;
        let mut cur = n - 1;
        while self.last[cur] != usize::MAX {
            cur = self.last[cur];
            self.ckpt[cur] = true;
        }
        self.n_last = n;
    }

    /// Attempts the additive decomposition `base(i, j) = A[j] − B[i]` of
    /// the chain's segment costs, filling `prof_a`/`prof_b`. Returns
    /// `false` (kernel ineligible) as soon as a file's consumption
    /// pattern breaks additivity:
    ///
    /// * an in-chain-produced file whose in-chain consumers are anything
    ///   but the producer's immediate successor position (the read's
    ///   activation then depends on both segment ends);
    /// * an externally produced (or workflow-input) file read by some
    ///   but not all chain positions, unless by exactly one.
    ///
    /// The additive classes, with `bw` the bandwidth and prefix sums
    /// `Σw` / `Σbytes` over positions:
    ///
    /// * always-checkpointed bytes (an output some out-of-chain task
    ///   consumes) and single-position external reads activate exactly
    ///   when their position is inside the segment → prefix terms in
    ///   both profiles;
    /// * an output consumed only by the next position is read iff the
    ///   segment *starts* there (`− edge_r[i]` in `B`) and, when no
    ///   out-of-chain consumer keeps it checkpointed, saved iff the
    ///   segment *ends* at the producer (`+ edge_c[j]` in `A`);
    /// * an external file read by **every** chain position costs every
    ///   segment the same read → a constant folded into `A`.
    ///
    /// So `A[j] = Σw[..=j] + (Σbytes[..=j] + edge_c[j] + K) / bw` and
    /// `B[i] = Σw[..i] + (Σbytes[..i] − edge_r[i]) / bw`, giving
    /// `A[j] − B[i]` = the sweep's `R + W + C` for segment `[i..=j]` up
    /// to floating-point association.
    fn fill_additive_profile(&mut self, ctx: &CostCtx<'_>, chain: &[TaskId]) -> bool {
        let dag = ctx.dag;
        let n = chain.len();
        grow(&mut self.pos, dag.n_tasks(), usize::MAX);
        grow(&mut self.prof_a, n, 0.0);
        grow(&mut self.prof_b, n, 0.0);
        grow(&mut self.prof_bytes, n, 0.0);
        grow(&mut self.prof_edge_r, n, 0.0);
        grow(&mut self.prof_edge_c, n, 0.0);
        self.prof_bytes[..n].fill(0.0);
        self.prof_edge_r[..n].fill(0.0);
        self.prof_edge_c[..n].fill(0.0);
        self.prof_seen.reset(dag.n_files());
        for (k, &t) in chain.iter().enumerate() {
            self.pos[t.index()] = k;
        }
        let mut k_bytes = 0.0f64;
        let mut ok = true;
        'classify: for (q, &t) in chain.iter().enumerate() {
            for &f in dag.output_files(t) {
                // In-chain producer at position q: classify its
                // consumer set.
                let mut in_count = 0usize;
                let mut in_pos = 0usize;
                let mut out_count = 0usize;
                for &v in dag.consumers(f) {
                    let pv = self.pos[v.index()];
                    if pv == usize::MAX {
                        out_count += 1;
                    } else {
                        in_count += 1;
                        in_pos = pv;
                    }
                }
                let adjacent_only = in_count == 1 && in_pos == q + 1;
                let size = dag.file(f).size;
                if out_count > 0 {
                    // Checkpointed whenever q is inside the segment.
                    self.prof_bytes[q] += size;
                    if in_count > 0 {
                        if !adjacent_only {
                            ok = false;
                            break 'classify;
                        }
                        self.prof_edge_r[q + 1] += size;
                    }
                } else if in_count > 0 {
                    if !adjacent_only {
                        ok = false;
                        break 'classify;
                    }
                    // Read iff the segment starts at q + 1; checkpointed
                    // iff the segment ends at q.
                    self.prof_edge_r[q + 1] += size;
                    self.prof_edge_c[q] += size;
                }
                // A file nobody consumes is never read nor checkpointed.
            }
            for &(u, f) in dag.preds(t) {
                if self.pos[u.index()] != usize::MAX {
                    continue;
                }
                if !self.classify_external(dag, f, n, &mut k_bytes) {
                    ok = false;
                    break 'classify;
                }
            }
            for &f in dag.input_files(t) {
                if dag
                    .producer(f)
                    .is_some_and(|u| self.pos[u.index()] != usize::MAX)
                {
                    continue;
                }
                if !self.classify_external(dag, f, n, &mut k_bytes) {
                    ok = false;
                    break 'classify;
                }
            }
        }
        if ok {
            let bw = ctx.bandwidth;
            let mut wsum = 0.0f64;
            let mut bytes = 0.0f64;
            for (j, &t) in chain.iter().enumerate() {
                self.prof_b[j] = wsum + (bytes - self.prof_edge_r[j]) / bw;
                wsum += dag.weight(t);
                bytes += self.prof_bytes[j];
                self.prof_a[j] = wsum + (bytes + self.prof_edge_c[j] + k_bytes) / bw;
            }
        }
        for &t in chain {
            self.pos[t.index()] = usize::MAX;
        }
        ok
    }

    /// Classifies one externally produced (or workflow-input) file for
    /// [`DpScratch::fill_additive_profile`]; returns `false` when its
    /// consumption pattern breaks additivity.
    fn classify_external(&mut self, dag: &Dag, f: FileId, n: usize, k_bytes: &mut f64) -> bool {
        if !self.prof_seen.insert(f.index()) {
            return true;
        }
        let mut in_count = 0usize;
        let mut in_pos = 0usize;
        for &v in dag.consumers(f) {
            let pv = self.pos[v.index()];
            if pv != usize::MAX {
                in_count += 1;
                in_pos = pv;
            }
        }
        let size = dag.file(f).size;
        if in_count == n {
            // Every segment contains a consumer: a constant read (the
            // fork-join case — all width tasks load the entry's output).
            *k_bytes += size;
            true
        } else if in_count == 1 {
            self.prof_bytes[in_pos] += size;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspg::{Mspg, Workflow};

    /// A chain of n unit tasks, each with a 1-byte output consumed by the
    /// next (plus a final dangling output with no consumer).
    fn unit_chain(n: usize, out_bytes: f64) -> (Workflow, Vec<TaskId>) {
        let mut dag = Dag::new();
        let k = dag.add_kind("t");
        let ids: Vec<TaskId> = (0..n)
            .map(|i| dag.add_task_with_output(&format!("t{i}"), k, 1.0, out_bytes))
            .collect();
        let root = Mspg::chain(ids.iter().copied()).unwrap();
        let w = Workflow::new(dag, root);
        (w, ids)
    }

    /// Brute-force optimum: enumerate all checkpoint subsets (the last
    /// position is forced) and minimize the sum of segment expected times.
    fn brute_force(ctx: &CostCtx<'_>, chain: &[TaskId]) -> (f64, Vec<bool>) {
        let n = chain.len();
        assert!(n <= 16);
        let mut best = f64::INFINITY;
        let mut best_mask = vec![false; n];
        for mask in 0u32..(1 << (n - 1)) {
            let mut ck = vec![false; n];
            for (b, flag) in ck.iter_mut().enumerate().take(n - 1) {
                *flag = mask >> b & 1 == 1;
            }
            ck[n - 1] = true;
            let mut total = 0.0;
            let mut lo = 0usize;
            for (hi, &flag) in ck.iter().enumerate() {
                if flag {
                    let cost = segment_cost(ctx, chain, lo, hi);
                    total += ctx.expected_segment_time(cost.base());
                    lo = hi + 1;
                }
            }
            if total < best {
                best = total;
                best_mask = ck;
            }
        }
        (best, best_mask)
    }

    #[test]
    fn dp_matches_brute_force_on_chains() {
        for n in [1usize, 2, 3, 5, 8] {
            for lambda in [1e-4, 1e-2, 0.1] {
                let (w, ids) = unit_chain(n, 5.0);
                let ctx = CostCtx::exponential(&w.dag, lambda, 10.0);
                let dp = optimal_checkpoints(&ctx, &ids);
                let (bf_time, _) = brute_force(&ctx, &ids);
                assert!(
                    (dp.expected_time - bf_time).abs() < 1e-9,
                    "n={n} λ={lambda}: dp {} vs bf {bf_time}",
                    dp.expected_time
                );
            }
        }
    }

    #[test]
    fn dp_matches_brute_force_on_linearized_fork_join() {
        let w = pegasus::generic::fork_join(2, 4, 3);
        let sched = crate::allocate::allocate(&w, 1, &crate::allocate::AllocateConfig::default());
        for lambda in [1e-3, 0.05] {
            let ctx = CostCtx::exponential(&w.dag, lambda, 1e6);
            for sc in &sched.superchains {
                if sc.tasks.len() > 14 {
                    continue;
                }
                let dp = optimal_checkpoints(&ctx, &sc.tasks);
                let (bf_time, _) = brute_force(&ctx, &sc.tasks);
                assert!(
                    (dp.expected_time - bf_time).abs() < 1e-9,
                    "λ={lambda}: dp {} vs bf {bf_time}",
                    dp.expected_time
                );
            }
        }
    }

    #[test]
    fn free_checkpoints_mean_checkpoint_everywhere() {
        // Zero-size files: splitting is free and λ > 0 makes smaller
        // segments strictly better.
        let (w, ids) = unit_chain(6, 0.0);
        let ctx = CostCtx::exponential(&w.dag, 0.1, 1.0);
        let dp = optimal_checkpoints(&ctx, &ids);
        assert!(dp.ckpt_after.iter().all(|&c| c), "{:?}", dp.ckpt_after);
    }

    #[test]
    fn expensive_checkpoints_and_rare_failures_mean_exit_only() {
        // Huge files, tiny λ: any interior checkpoint costs more than the
        // re-execution risk it saves.
        let (w, ids) = unit_chain(6, 1e9);
        let ctx = CostCtx::exponential(&w.dag, 1e-9, 1e6);
        let dp = optimal_checkpoints(&ctx, &ids);
        let interior: usize = dp.ckpt_after[..5].iter().filter(|&&c| c).count();
        assert_eq!(interior, 0, "{:?}", dp.ckpt_after);
        assert!(dp.ckpt_after[5]);
    }

    #[test]
    fn last_task_always_checkpointed() {
        for lambda in [0.0, 1e-3, 0.5] {
            let (w, ids) = unit_chain(4, 3.0);
            let ctx = CostCtx::exponential(&w.dag, lambda, 1.0);
            let dp = optimal_checkpoints(&ctx, &ids);
            assert!(dp.ckpt_after[3]);
        }
    }

    #[test]
    fn segment_cost_dedups_shared_files() {
        // Figure 4 shape: T1 → T2 → {T3, T4}; T3 → T5; T2 → T4… build the
        // example where one file feeds two tasks in the same segment.
        let mut dag = Dag::new();
        let k = dag.add_kind("t");
        let a = dag.add_task_with_output("a", k, 1.0, 100.0);
        let b = dag.add_task("b", k, 1.0);
        let c = dag.add_task("c", k, 1.0);
        let fa = dag.primary_output(a).unwrap();
        dag.add_edge(b, fa);
        dag.add_edge(c, fa);
        let chain = [b, c];
        let ctx = CostCtx::exponential(&dag, 0.0, 1.0);
        let cost = segment_cost(&ctx, &chain, 0, 1);
        // fa read once, not twice.
        assert_eq!(cost.r, 100.0);
        assert_eq!(cost.c, 0.0);
        assert_eq!(cost.w, 2.0);
    }

    #[test]
    fn extended_checkpoint_covers_live_outputs() {
        // Figure 4 of the paper: T1 → T2 → T3 → T4 → T5 → T6 linearized;
        // extra edges T2→T4 (via its file) and T3→T5. A checkpoint after
        // T4 must also save T3's output (needed by T5).
        let mut dag = Dag::new();
        let k = dag.add_kind("t");
        let t: Vec<TaskId> = (1..=6)
            .map(|i| dag.add_task_with_output(&format!("T{i}"), k, 1.0, 10.0))
            .collect();
        let edges = [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)];
        for &(u, v) in &edges {
            let file = dag.primary_output(t[u]).unwrap();
            dag.add_edge(t[v], file);
        }
        let ctx = CostCtx::exponential(&dag, 0.0, 1.0);
        // Segment [T3, T4] (indices 2..=3): checkpoint must save T3's
        // output (needed by T5) and T4's output (needed by T5): C = 20.
        let cost = segment_cost(&ctx, &t, 2, 3);
        assert_eq!(cost.c, 20.0);
        // It reads T2's output only (T2 outside), deduplicated: R = 10.
        assert_eq!(cost.r, 10.0);
    }

    #[test]
    fn incremental_table_matches_direct_costs() {
        let w = pegasus::generate(pegasus::WorkflowClass::Montage, 60, 5);
        let sched = crate::allocate::allocate(&w, 3, &crate::allocate::AllocateConfig::default());
        let ctx = CostCtx::exponential(&w.dag, 1e-4, 1e7);
        // One scratch across all superchains: reuse must not leak state
        // between chains (stamps, positions, stale base cells).
        let mut scratch = DpScratch::new();
        for sc in &sched.superchains {
            let n = sc.tasks.len();
            let mut table = vec![f64::NAN; segment_table_len(n)];
            fill_segment_table(&w.dag, ctx.bandwidth, &sc.tasks, &mut table, &mut scratch);
            let mut cells = table.iter();
            for i in 0..n {
                for j in i..n {
                    let direct = segment_cost(&ctx, &sc.tasks, i, j);
                    let got = *cells.next().expect("one cell per segment");
                    assert!(
                        (got - direct.base()).abs() < 1e-9 * direct.base().max(1.0),
                        "segment [{i},{j}]: table {got} vs direct {}",
                        direct.base()
                    );
                }
            }
        }
    }

    #[test]
    fn reused_scratch_is_bitwise_identical_to_fresh() {
        let w = pegasus::generate(pegasus::WorkflowClass::Genome, 120, 9);
        let sched = crate::allocate::allocate(&w, 4, &crate::allocate::AllocateConfig::default());
        let ctx = CostCtx::exponential(&w.dag, 3e-4, 1e7);
        let mut scratch = DpScratch::new();
        // Two passes over all superchains with one scratch (the second
        // pass hits fully-grown, stale-valued buffers) against fresh
        // per-chain allocation.
        for _ in 0..2 {
            for sc in &sched.superchains {
                let et = optimal_checkpoints_reusing(&ctx, &sc.tasks, &mut scratch);
                let fresh = optimal_checkpoints(&ctx, &sc.tasks);
                assert_eq!(et.to_bits(), fresh.expected_time.to_bits());
                assert_eq!(scratch.ckpt_after(), &fresh.ckpt_after[..]);
            }
        }
    }

    #[test]
    fn zero_failure_rate_still_checkpoints_last_only() {
        // λ = 0: interior checkpoints only add cost.
        let (w, ids) = unit_chain(5, 10.0);
        let ctx = CostCtx::exponential(&w.dag, 0.0, 1.0);
        let dp = optimal_checkpoints(&ctx, &ids);
        let interior: usize = dp.ckpt_after[..4].iter().filter(|&&c| c).count();
        assert_eq!(interior, 0);
    }

    #[test]
    fn empty_chain_is_a_documented_skip() {
        let (w, _) = unit_chain(3, 1.0);
        let ctx = CostCtx::exponential(&w.dag, 1e-3, 10.0);
        let choice = optimal_checkpoints(&ctx, &[]);
        assert_eq!(choice.expected_time, 0.0);
        assert!(choice.ckpt_after.is_empty());
        let mut scratch = DpScratch::new();
        assert_eq!(optimal_checkpoints_reusing(&ctx, &[], &mut scratch), 0.0);
        assert!(scratch.ckpt_after().is_empty());
        assert!(!scratch.last_run_used_kernel());
    }

    #[test]
    fn kernel_is_bit_identical_to_additive_reference_on_chains() {
        // The kernel and the additive-probe quadratic reference share
        // every arithmetic expression, so agreement is exact.
        for n in [1usize, 2, 3, 7, 40, 130] {
            for lambda in [0.0, 1e-4, 1e-2, 0.1] {
                let (w, ids) = unit_chain(n, 5.0);
                let ctx = CostCtx::exponential(&w.dag, lambda, 10.0);
                let mut sk = DpScratch::new();
                let kt = optimal_checkpoints_kernel_forced(&ctx, &ids, &mut sk)
                    .expect("unit chains are kernel-eligible");
                assert!(sk.last_run_used_kernel());
                let kp: Vec<bool> = sk.ckpt_after().to_vec();
                let mut sr = DpScratch::new();
                let rt = optimal_checkpoints_additive_reference(&ctx, &ids, &mut sr)
                    .expect("unit chains decompose additively");
                assert_eq!(kt.to_bits(), rt.to_bits(), "n={n} λ={lambda}");
                assert_eq!(kp, sr.ckpt_after(), "n={n} λ={lambda}");
            }
        }
    }

    #[test]
    fn kernel_matches_exact_quadratic_on_chains() {
        // Against the historical sweep-based DP the agreement is up to
        // floating-point association (the sweep accumulates bytes in
        // segment order, the profile by prefix subtraction).
        for n in [2usize, 9, 60, 200] {
            for lambda in [1e-4, 1e-2] {
                let (w, ids) = unit_chain(n, 5.0);
                let ctx = CostCtx::exponential(&w.dag, lambda, 10.0);
                let mut sk = DpScratch::new();
                let kt = optimal_checkpoints_kernel_forced(&ctx, &ids, &mut sk).unwrap();
                let kp: Vec<bool> = sk.ckpt_after().to_vec();
                let mut sq = DpScratch::new();
                let qt = optimal_checkpoints_exact_quadratic(&ctx, &ids, &mut sq);
                assert!(
                    (kt - qt).abs() <= 1e-9 * qt.max(1.0),
                    "n={n} λ={lambda}: kernel {kt} vs quadratic {qt}"
                );
                assert_eq!(kp, sq.ckpt_after(), "n={n} λ={lambda}");
            }
        }
    }

    #[test]
    fn long_chains_engage_the_kernel_and_match_the_quadratic_dp() {
        let (w, ids) = unit_chain(600, 5.0);
        let ctx = CostCtx::exponential(&w.dag, 1e-2, 10.0);
        let mut scratch = DpScratch::new();
        let t = optimal_checkpoints_reusing(&ctx, &ids, &mut scratch);
        assert!(
            scratch.last_run_used_kernel(),
            "600-task unit chain must engage the kernel"
        );
        let kp: Vec<bool> = scratch.ckpt_after().to_vec();
        let mut sq = DpScratch::new();
        let qt = optimal_checkpoints_exact_quadratic(&ctx, &ids, &mut sq);
        assert!((t - qt).abs() <= 1e-9 * qt, "kernel {t} vs quadratic {qt}");
        assert_eq!(kp, sq.ckpt_after());
        assert!(
            kp.iter().filter(|&&c| c).count() > 1,
            "expected interior checkpoints"
        );
    }

    #[test]
    fn short_chains_stay_on_the_exact_path() {
        let (w, ids) = unit_chain(100, 5.0);
        let ctx = CostCtx::exponential(&w.dag, 1e-2, 10.0);
        let mut scratch = DpScratch::new();
        optimal_checkpoints_reusing(&ctx, &ids, &mut scratch);
        assert!(!scratch.last_run_used_kernel());
    }

    #[test]
    fn kernel_gate_rejects_nonmonotone_profiles() {
        // Adjacent-edge reads larger than the task weight make B
        // decrease (B[1] − B[0] = w₀ − size/bw < 0): the once-crossing
        // argument is void, so the gate must fall back.
        let (w, ids) = unit_chain(8, 100.0);
        let ctx = CostCtx::exponential(&w.dag, 1e-2, 1.0);
        let mut scratch = DpScratch::new();
        assert!(optimal_checkpoints_kernel_forced(&ctx, &ids, &mut scratch).is_none());
    }

    #[test]
    fn kernel_gate_rejects_non_adjacent_consumers() {
        // A skip edge (t0's output also read by t2) breaks additivity:
        // the read activates only when t0 and t2 fall in different
        // segments, which depends on both ends.
        let mut dag = Dag::new();
        let k = dag.add_kind("t");
        let ids: Vec<TaskId> = (0..5)
            .map(|i| dag.add_task_with_output(&format!("t{i}"), k, 1.0, 2.0))
            .collect();
        let f0 = dag.primary_output(ids[0]).unwrap();
        let root = Mspg::chain(ids.iter().copied()).unwrap();
        let mut w = Workflow::new(dag, root);
        w.dag.add_transitive_read(ids[2], f0);
        let ctx = CostCtx::exponential(&w.dag, 1e-2, 10.0);
        let mut scratch = DpScratch::new();
        assert!(optimal_checkpoints_kernel_forced(&ctx, &ids, &mut scratch).is_none());
        // And the dispatch still agrees with the brute force.
        let dp = optimal_checkpoints(&ctx, &ids);
        let (bf_time, _) = brute_force(&ctx, &ids);
        assert!((dp.expected_time - bf_time).abs() < 1e-9);
    }

    #[test]
    fn kernel_gate_rejects_non_convex_models() {
        let (w, ids) = unit_chain(20, 5.0);
        for model in [
            FailureModel::weibull(0.7, 1e4),
            FailureModel::lognormal(8.0, 1.0),
        ] {
            let ctx = CostCtx::with_model(&w.dag, model, 10.0);
            let mut scratch = DpScratch::new();
            assert!(
                optimal_checkpoints_kernel_forced(&ctx, &ids, &mut scratch).is_none(),
                "{model:?} must not pass the convexity gate"
            );
        }
    }

    #[test]
    fn shared_entry_file_is_kernel_eligible_as_a_constant_read() {
        // The fork-join shape: every chain task reads the (external)
        // entry's output and writes a file consumed out-of-chain. The
        // shared read costs every segment the same → the K constant.
        let mut dag = Dag::new();
        let k = dag.add_kind("t");
        let entry = dag.add_task_with_output("entry", k, 1.0, 7.0);
        let entry_f = dag.primary_output(entry).unwrap();
        let width: Vec<TaskId> = (0..40)
            .map(|i| dag.add_task_with_output(&format!("w{i}"), k, 1.0, 3.0))
            .collect();
        let join = dag.add_task_with_output("join", k, 1.0, 1.0);
        for &t in &width {
            dag.add_edge(t, entry_f);
            let f = dag.primary_output(t).unwrap();
            dag.add_edge(join, f);
        }
        let ctx = CostCtx::exponential(&dag, 1e-2, 10.0);
        let mut sk = DpScratch::new();
        let kt = optimal_checkpoints_kernel_forced(&ctx, &width, &mut sk)
            .expect("width superchain with a shared entry read is kernel-eligible");
        let kp: Vec<bool> = sk.ckpt_after().to_vec();
        let mut sq = DpScratch::new();
        let qt = optimal_checkpoints_exact_quadratic(&ctx, &width, &mut sq);
        assert!(
            (kt - qt).abs() <= 1e-9 * qt,
            "kernel {kt} vs quadratic {qt}"
        );
        assert_eq!(kp, sq.ckpt_after());
    }
}

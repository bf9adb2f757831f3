//! Pluggable checkpoint-placement policies.
//!
//! A placement is named by its policy object, and only by it.
//! [`CheckpointPolicy`] maps one superchain (plus the cost context —
//! workflow, failure model, bandwidth, renewal curve) to per-task
//! checkpoint decisions, and the whole pipeline
//! (`Pipeline::{plan,segment_graph,assess}`, `coalesce`, the
//! simulators, the experiment harness) consumes the resulting
//! [`CheckpointPlan`] without knowing which policy produced it. The
//! paper's CkptNone places nothing, so it is not a policy: it is
//! assessed by Theorem 1 (`Pipeline::assess_none`) and simulated by
//! the crossover-cascade executor.
//!
//! Builtin policies:
//!
//! * [`CkptAllPolicy`] / [`DpOptimalPolicy`] / [`ExitOnlyPolicy`] — the
//!   paper's CkptAll and CkptSome and the §II-C exit-only ablation.
//! * [`DalyPeriodic`] — classical Young/Daly periodic checkpointing
//!   (arXiv:1802.07455's restart asymptotics): checkpoint every
//!   `sqrt(2·C̄/λ)` seconds of accumulated work, generalized to
//!   non-memoryless models through the renewal solve's *effective rate*
//!   (the `λ` an exponential model would need to show the same
//!   first-order overhead on the candidate span).
//! * [`RiskThreshold`] — the adaptive-scheme analogue
//!   (arXiv:0711.3949): checkpoint as soon as the accumulated
//!   uncheckpointed span's failure probability `F(base)` crosses a
//!   bound.
//! * [`GreedyCrossover`] — the cheap structural heuristic: checkpoint
//!   only tasks feeding crossover dependencies (successors outside the
//!   superchain), i.e. exactly the data another processor waits for.
//!
//! ## Determinism contract
//!
//! `place` must be a pure function of `(policy parameters, ctx, chain)`
//! — no ambient randomness, no query-adaptive state — so that plans are
//! reproducible and the experiment engine's byte-identity guarantee
//! extends to the policy axis. Scratch buffers ([`PolicyScratch`])
//! carry no information between calls, only capacity.

use mspg::TaskId;

use crate::checkpoint_dp::{
    minimize_segment_table, optimal_checkpoints_reusing, segment_cost_reusing, CostCtx, DpScratch,
    IdSet, SegmentCostScratch, SegmentTables,
};
use crate::coalesce::CheckpointPlan;
use crate::failure_model::FailureModel;
use crate::schedule::Schedule;

/// A checkpoint-placement policy: decides, per superchain, after which
/// tasks to take a checkpoint.
pub trait CheckpointPolicy: Sync {
    /// Display name (stable — used as the CSV label of the E10
    /// `strategies` experiment).
    fn name(&self) -> &'static str;

    /// Fills the checkpoint decisions for one superchain: `out[k]`
    /// means "checkpoint after `chain[k]`". `out` arrives all-`false`
    /// with `out.len() == chain.len()`; the policy **must** set the
    /// final position (superchain exits are always checkpointed — the
    /// paper's crossover-dependency removal, §IV-B). `scratch` carries
    /// reusable capacity only, never data.
    fn place(
        &self,
        ctx: &CostCtx<'_>,
        chain: &[TaskId],
        scratch: &mut PolicyScratch,
        out: &mut [bool],
    );
}

/// Reusable buffers threaded through a planning pass: one scratch
/// amortizes the DP tables, segment-cost sweeps, and membership stamps
/// across every superchain of a plan (and across plans).
#[derive(Default)]
pub struct PolicyScratch {
    /// The checkpoint DP's tables ([`DpOptimalPolicy`]).
    pub dp: DpScratch,
    /// Segment-cost sweep buffers (period / risk / expected-time
    /// computations).
    pub seg: SegmentCostScratch,
    /// Superchain-membership stamps ([`GreedyCrossover`]).
    member: IdSet,
    /// Per-chain decision buffer of [`plan_with_policy`].
    buf: Vec<bool>,
}

impl PolicyScratch {
    /// An empty scratch; buffers grow to the workload's high-water mark
    /// on use and never shrink.
    pub fn new() -> Self {
        PolicyScratch::default()
    }
}

/// Runs `policy` over every superchain of `schedule` and assembles the
/// per-task [`CheckpointPlan`] the rest of the stack consumes.
///
/// # Panics
/// Panics if the policy violates its contract and leaves a superchain
/// without a final checkpoint.
pub fn plan_with_policy(
    ctx: &CostCtx<'_>,
    schedule: &Schedule,
    policy: &dyn CheckpointPolicy,
    scratch: &mut PolicyScratch,
) -> CheckpointPlan {
    plan_with_policy_threads(ctx, schedule, policy, scratch, 1)
}

/// [`plan_with_policy`] with a thread budget: superchains are placed on
/// a deterministic work-queue (`seedmix::parallel_slots_with` — workers
/// claim chain indices off a shared counter and every placement lands
/// in its canonical slot), then scattered into the per-task plan in
/// canonical superchain order. Because [`CheckpointPolicy::place`] is a
/// pure function of `(ctx, chain)` (the trait's purity contract), the
/// plan is **bit-identical for every thread budget**; `threads` is a
/// pure speed knob. `threads ≤ 1` (or a schedule with at most one
/// superchain) runs a serial loop on the caller's scratch, spawning
/// nothing.
///
/// # Panics
/// Panics if the policy violates its contract and leaves a superchain
/// without a final checkpoint.
pub fn plan_with_policy_threads(
    ctx: &CostCtx<'_>,
    schedule: &Schedule,
    policy: &dyn CheckpointPolicy,
    scratch: &mut PolicyScratch,
    threads: usize,
) -> CheckpointPlan {
    let place = |k: usize, scratch: &mut PolicyScratch, out: &mut [bool]| {
        policy.place(ctx, &schedule.superchains[k].tasks, scratch, out)
    };
    plan_chains(ctx, schedule, policy.name(), scratch, threads, &place)
}

/// [`DpOptimalPolicy`]'s plan, minimized on stored segment tables: each
/// chain with a table in `tables` runs only
/// [`minimize_segment_table`], and every other chain takes
/// [`DpOptimalPolicy::place`]'s per-call path. Bit-identical to
/// [`plan_with_policy_threads`] with [`DpOptimalPolicy`] for every
/// thread budget, because a stored chain is one the per-call path would
/// run the same fill and minimization on.
///
/// # Panics
/// Panics unless `tables` was built for `schedule`'s superchains.
pub fn plan_on_tables(
    ctx: &CostCtx<'_>,
    schedule: &Schedule,
    tables: &SegmentTables,
    scratch: &mut PolicyScratch,
    threads: usize,
) -> CheckpointPlan {
    assert_eq!(
        tables.n_chains(),
        schedule.superchains.len(),
        "segment tables built for another schedule"
    );
    let place = |k: usize, scratch: &mut PolicyScratch, out: &mut [bool]| {
        let chain = &schedule.superchains[k].tasks;
        match tables.table(k) {
            Some(table) => {
                minimize_segment_table(ctx, table, chain.len(), &mut scratch.dp);
                out.copy_from_slice(scratch.dp.ckpt_after());
            }
            None => DpOptimalPolicy.place(ctx, chain, scratch, out),
        }
    };
    plan_chains(
        ctx,
        schedule,
        DpOptimalPolicy.name(),
        scratch,
        threads,
        &place,
    )
}

/// The superchain loop of every plan: `place(k, scratch, out)` fills
/// superchain `k`'s decisions, serially on the caller's scratch or on a
/// deterministic work-queue (see [`plan_with_policy_threads`]), and the
/// decisions are scattered into the per-task plan in canonical
/// superchain order. The budget is polled once per chain.
///
/// # Panics
/// Panics if a superchain is left without a final checkpoint (`name`
/// labels the message).
fn plan_chains(
    ctx: &CostCtx<'_>,
    schedule: &Schedule,
    name: &str,
    scratch: &mut PolicyScratch,
    threads: usize,
    place: &(dyn Fn(usize, &mut PolicyScratch, &mut [bool]) + Sync),
) -> CheckpointPlan {
    let mut ckpt_after = vec![false; ctx.dag.n_tasks()];
    let mut scatter = |k: usize, buf: &[bool]| {
        let tasks = &schedule.superchains[k].tasks;
        let n = tasks.len();
        assert!(
            n == 0 || buf[n - 1],
            "policy {name} left a superchain without a final checkpoint"
        );
        for (&t, &ck) in tasks.iter().zip(buf) {
            ckpt_after[t.index()] = ck;
        }
    };
    let n_chains = schedule.superchains.len();
    if n_chains <= 1 || seedmix::resolve_threads(threads) <= 1 {
        let mut buf = std::mem::take(&mut scratch.buf);
        for (k, sc) in schedule.superchains.iter().enumerate() {
            // Per-superchain cancellation point; the DP inside `place`
            // also polls per row, so a deadline aborts within one row
            // either way.
            ctx.check_budget();
            buf.clear();
            buf.resize(sc.tasks.len(), false);
            place(k, scratch, &mut buf);
            scatter(k, &buf);
        }
        scratch.buf = buf;
    } else {
        let placements: Vec<Vec<bool>> = seedmix::parallel_slots_with(
            n_chains,
            threads,
            1,
            PolicyScratch::new,
            |worker_scratch, k| {
                // Workers poll per claimed chain; `parallel_slots_with`
                // re-raises the `Cancelled` unwind with its payload
                // intact.
                ctx.check_budget();
                let mut buf = vec![false; schedule.superchains[k].tasks.len()];
                place(k, worker_scratch, &mut buf);
                buf
            },
        );
        for (k, buf) in placements.iter().enumerate() {
            scatter(k, buf);
        }
    }
    CheckpointPlan { ckpt_after }
}

/// Total expected execution time of one superchain under a placement:
/// the sum of expected segment times over the checkpoint-delimited
/// segments — the objective the DP minimizes, usable to rank any two
/// placements on the same chain.
///
/// # Panics
/// Panics if the placement does not end in a checkpoint.
pub fn placement_expected_time(
    ctx: &CostCtx<'_>,
    chain: &[TaskId],
    ckpt_after: &[bool],
    scratch: &mut SegmentCostScratch,
) -> f64 {
    assert_eq!(chain.len(), ckpt_after.len());
    assert!(
        ckpt_after.last().copied().unwrap_or(true),
        "placement must end in a checkpoint"
    );
    let mut total = 0.0;
    let mut lo = 0usize;
    for (hi, &ck) in ckpt_after.iter().enumerate() {
        if ck {
            let cost = segment_cost_reusing(ctx, chain, lo, hi, scratch);
            total += ctx.expected_segment_time(cost.base());
            lo = hi + 1;
        }
    }
    total
}

/// Checkpoint after every task (the paper's CkptAll baseline).
#[derive(Clone, Copy, Debug, Default)]
pub struct CkptAllPolicy;

impl CheckpointPolicy for CkptAllPolicy {
    fn name(&self) -> &'static str {
        "CkptAll"
    }

    fn place(
        &self,
        _ctx: &CostCtx<'_>,
        _chain: &[TaskId],
        _scratch: &mut PolicyScratch,
        out: &mut [bool],
    ) {
        out.fill(true);
    }
}

/// Checkpoint only superchain exits (the §II-C naive solution).
#[derive(Clone, Copy, Debug, Default)]
pub struct ExitOnlyPolicy;

impl CheckpointPolicy for ExitOnlyPolicy {
    fn name(&self) -> &'static str {
        "ExitOnly"
    }

    fn place(
        &self,
        _ctx: &CostCtx<'_>,
        _chain: &[TaskId],
        _scratch: &mut PolicyScratch,
        out: &mut [bool],
    ) {
        if let Some(last) = out.last_mut() {
            *last = true;
        }
    }
}

/// The paper's contribution: the `O(n²)` dynamic program of Algorithm 2
/// (optimal under the first-order segment cost model).
#[derive(Clone, Copy, Debug, Default)]
pub struct DpOptimalPolicy;

impl CheckpointPolicy for DpOptimalPolicy {
    fn name(&self) -> &'static str {
        "CkptSome"
    }

    fn place(
        &self,
        ctx: &CostCtx<'_>,
        chain: &[TaskId],
        scratch: &mut PolicyScratch,
        out: &mut [bool],
    ) {
        optimal_checkpoints_reusing(ctx, chain, &mut scratch.dp);
        out.copy_from_slice(scratch.dp.ckpt_after());
    }
}

/// Young/Daly periodic checkpointing: checkpoint once the accumulated
/// work since the last checkpoint reaches a fixed period.
///
/// With `period: None` the period is derived per superchain as
/// `sqrt(2·C̄/λ_eff)`, where `C̄` is the chain's mean per-task checkpoint
/// write time and `λ_eff` the model's *effective rate*: `λ` itself for
/// the exponential model, and otherwise the rate an exponential model
/// would need to reproduce the renewal solve's first-order overhead on
/// the candidate span, `λ_eff(b) = 2·(E[T(b)] − b)/b²` (answered from
/// the pipeline's [`crate::failure_model::RestartCurve`] when one is
/// attached), fixed-point iterated `period ↦ sqrt(2·C̄/λ_eff(period))` a
/// fixed number of rounds so the result stays a pure function of
/// `(model, chain)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct DalyPeriodic {
    /// Fixed work period in seconds, or `None` to derive the Young/Daly
    /// period from the failure model.
    pub period: Option<f64>,
}

/// Fixed-point rounds of the effective-rate iteration (deterministic).
const DALY_ITERS: usize = 8;

impl DalyPeriodic {
    /// Derive the period from the failure model (the default).
    pub fn auto() -> Self {
        DalyPeriodic { period: None }
    }

    /// Checkpoint every `period` seconds of accumulated work.
    ///
    /// # Panics
    /// Panics on a non-positive or NaN period (`f64::INFINITY` is valid
    /// and means "final checkpoint only").
    pub fn with_period(period: f64) -> Self {
        assert!(period > 0.0, "period must be positive, got {period}");
        DalyPeriodic {
            period: Some(period),
        }
    }

    /// The per-superchain Young/Daly period (see the type docs).
    /// `0` means "checkpoint after every task", `∞` "final only".
    fn derived_period(
        &self,
        ctx: &CostCtx<'_>,
        chain: &[TaskId],
        scratch: &mut SegmentCostScratch,
    ) -> f64 {
        if ctx.model.never_fails() {
            return f64::INFINITY;
        }
        let n = chain.len();
        // Mean per-task checkpoint write time: the cost a checkpoint
        // would add at each position, averaged over the chain.
        let mut c_sum = 0.0;
        for k in 0..n {
            c_sum += segment_cost_reusing(ctx, chain, k, k, scratch).c;
        }
        let c_bar = c_sum / n as f64;
        if c_bar <= 0.0 {
            // Free checkpoints: any failure risk makes splitting a win.
            return 0.0;
        }
        if let FailureModel::Exponential { lambda } = ctx.model {
            // λ_eff is span-independent: the closed Young/Daly period.
            return (2.0 * c_bar / lambda).sqrt();
        }
        // Non-memoryless: iterate the effective rate at the candidate
        // span, seeded with the whole-chain span (the largest segment a
        // placement could produce). For an increasing (wear-out) hazard
        // `period ↦ sqrt(2·C̄/λ_eff(period))` is a *decreasing* map, so
        // the raw iteration oscillates between extremes; the
        // geometric-mean damping contracts it while staying a pure
        // function of `(model, chain)`.
        let span_hi = segment_cost_reusing(ctx, chain, 0, n - 1, scratch).base();
        if span_hi <= 0.0 {
            return f64::INFINITY;
        }
        let span_lo = span_hi * 1e-9;
        let mut b = span_hi;
        for _ in 0..DALY_ITERS {
            let next = match daly_candidate(ctx, c_bar, b) {
                // A span the model essentially never completes: probe
                // far shorter spans.
                None => span_lo,
                Some(period) => period.clamp(span_lo, span_hi),
            };
            b = (b * next).sqrt();
        }
        // A still-hopeless converged span (None) means checkpoint as
        // eagerly as possible.
        daly_candidate(ctx, c_bar, b).unwrap_or(0.0)
    }
}

/// One step of the Young/Daly fixed point: the period
/// `sqrt(2·C̄/λ_eff(b))` implied by the effective rate at span `b`, or
/// `None` when the model essentially never completes a span of `b`
/// (`E[T(b)] = ∞`). A vanishing effective rate (no failure mass at this
/// span) yields `∞`.
fn daly_candidate(ctx: &CostCtx<'_>, c_bar: f64, b: f64) -> Option<f64> {
    let e = ctx.expected_segment_time(b);
    if !e.is_finite() {
        return None;
    }
    let lambda_eff = 2.0 * (e - b) / (b * b);
    if lambda_eff <= 0.0 {
        Some(f64::INFINITY)
    } else {
        Some((2.0 * c_bar / lambda_eff).sqrt())
    }
}

impl CheckpointPolicy for DalyPeriodic {
    fn name(&self) -> &'static str {
        "DalyPeriodic"
    }

    fn place(
        &self,
        ctx: &CostCtx<'_>,
        chain: &[TaskId],
        scratch: &mut PolicyScratch,
        out: &mut [bool],
    ) {
        debug_assert!(
            self.period.is_none_or(|p| p > 0.0),
            "period must be positive (use DalyPeriodic::with_period)"
        );
        let n = chain.len();
        if n == 0 {
            // plan_with_policy tolerates empty superchains; so do we.
            return;
        }
        let period = self
            .period
            .unwrap_or_else(|| self.derived_period(ctx, chain, &mut scratch.seg));
        let mut acc = 0.0;
        for (k, &t) in chain.iter().enumerate() {
            acc += ctx.dag.weight(t);
            if acc >= period {
                out[k] = true;
                acc = 0.0;
            }
        }
        out[n - 1] = true;
    }
}

/// Adaptive risk-bounded checkpointing: extend the current segment
/// until its failure probability `F(R + W + C)` would cross `max_risk`,
/// then checkpoint (the volunteer-computing adaptive-scheme analogue).
#[derive(Clone, Copy, Debug)]
pub struct RiskThreshold {
    /// Per-segment failure-probability bound, in `(0, 1)`.
    pub max_risk: f64,
}

impl RiskThreshold {
    /// A policy bounding each segment's failure probability by
    /// `max_risk`.
    ///
    /// # Panics
    /// Panics unless `max_risk ∈ (0, 1)`.
    pub fn new(max_risk: f64) -> Self {
        assert!(
            max_risk > 0.0 && max_risk < 1.0,
            "max_risk must be in (0, 1), got {max_risk}"
        );
        RiskThreshold { max_risk }
    }
}

impl Default for RiskThreshold {
    /// The default 10% bound: segments stay an order of magnitude away
    /// from certain re-execution while tolerating the occasional
    /// restart.
    fn default() -> Self {
        RiskThreshold::new(0.1)
    }
}

impl CheckpointPolicy for RiskThreshold {
    fn name(&self) -> &'static str {
        "RiskThreshold"
    }

    fn place(
        &self,
        ctx: &CostCtx<'_>,
        chain: &[TaskId],
        scratch: &mut PolicyScratch,
        out: &mut [bool],
    ) {
        debug_assert!(
            self.max_risk > 0.0 && self.max_risk < 1.0,
            "max_risk must be in (0, 1) (use RiskThreshold::new)"
        );
        let n = chain.len();
        if n == 0 {
            return;
        }
        let mut lo = 0usize;
        for (k, slot) in out.iter_mut().enumerate() {
            let base = segment_cost_reusing(ctx, chain, lo, k, &mut scratch.seg).base();
            if ctx.model.cdf(base) >= self.max_risk {
                *slot = true;
                lo = k + 1;
            }
        }
        out[n - 1] = true;
    }
}

/// The cheap structural heuristic: checkpoint exactly the tasks with a
/// successor outside the superchain (crossover dependencies — the data
/// another processor waits for), plus the mandatory final checkpoint.
/// Ignores costs and the failure model entirely.
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyCrossover;

impl CheckpointPolicy for GreedyCrossover {
    fn name(&self) -> &'static str {
        "GreedyCrossover"
    }

    fn place(
        &self,
        ctx: &CostCtx<'_>,
        chain: &[TaskId],
        scratch: &mut PolicyScratch,
        out: &mut [bool],
    ) {
        if chain.is_empty() {
            return;
        }
        let dag = ctx.dag;
        scratch.member.reset(dag.n_tasks());
        for &t in chain {
            scratch.member.insert(t.index());
        }
        for (k, &t) in chain.iter().enumerate() {
            if dag
                .succs(t)
                .iter()
                .any(|&(v, _)| !scratch.member.contains(v.index()))
            {
                out[k] = true;
            }
        }
        out[chain.len() - 1] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocate::{allocate, AllocateConfig};
    use mspg::{Dag, Mspg, Workflow};

    /// A chain of n unit tasks, each with an `out_bytes` output consumed
    /// by the next task.
    fn unit_chain(n: usize, out_bytes: f64) -> (Workflow, Vec<TaskId>) {
        let mut dag = Dag::new();
        let k = dag.add_kind("t");
        let ids: Vec<TaskId> = (0..n)
            .map(|i| dag.add_task_with_output(&format!("t{i}"), k, 1.0, out_bytes))
            .collect();
        for w in ids.windows(2) {
            let f = dag.primary_output(w[0]).unwrap();
            dag.add_edge(w[1], f);
        }
        let root = Mspg::chain(ids.iter().copied()).unwrap();
        (Workflow::new(dag, root), ids)
    }

    fn run(policy: &dyn CheckpointPolicy, ctx: &CostCtx<'_>, chain: &[TaskId]) -> Vec<bool> {
        let mut scratch = PolicyScratch::new();
        let mut out = vec![false; chain.len()];
        policy.place(ctx, chain, &mut scratch, &mut out);
        out
    }

    #[test]
    fn builtin_legacy_policies_match_their_definitions() {
        let (w, ids) = unit_chain(6, 5.0);
        let ctx = CostCtx::exponential(&w.dag, 1e-3, 10.0);
        assert!(run(&CkptAllPolicy, &ctx, &ids).iter().all(|&c| c));
        let exit = run(&ExitOnlyPolicy, &ctx, &ids);
        assert_eq!(exit.iter().filter(|&&c| c).count(), 1);
        assert!(exit[5]);
        let dp = run(&DpOptimalPolicy, &ctx, &ids);
        let direct = crate::checkpoint_dp::optimal_checkpoints(&ctx, &ids);
        assert_eq!(dp, direct.ckpt_after);
    }

    #[test]
    fn daly_fixed_period_places_periodically() {
        let (w, ids) = unit_chain(10, 1.0);
        let ctx = CostCtx::exponential(&w.dag, 1e-3, 1e6);
        // Unit weights, period 3: checkpoints after tasks 2, 5, 8 and
        // the mandatory final one.
        let got = run(&DalyPeriodic::with_period(3.0), &ctx, &ids);
        let expect: Vec<bool> = (0..10).map(|k| k % 3 == 2 || k == 9).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn daly_auto_matches_young_daly_for_exponential() {
        // C̄ = 1 byte / 1 B/s... use out_bytes so c̄ = out/bw; interior
        // positions all checkpoint `out_bytes` (next task consumes it),
        // final output has no consumer → c = 0 there.
        let n = 40;
        let out_bytes = 50.0;
        let bw = 10.0;
        let lambda = 1e-3;
        let (w, ids) = unit_chain(n, out_bytes);
        let ctx = CostCtx::exponential(&w.dag, lambda, bw);
        let c_bar = (out_bytes / bw) * (n as f64 - 1.0) / n as f64;
        let period = (2.0 * c_bar / lambda).sqrt();
        let got = run(&DalyPeriodic::auto(), &ctx, &ids);
        let expect = run(&DalyPeriodic::with_period(period), &ctx, &ids);
        assert_eq!(got, expect);
    }

    #[test]
    fn daly_never_failing_checkpoints_final_only() {
        let (w, ids) = unit_chain(8, 5.0);
        let ctx = CostCtx::exponential(&w.dag, 0.0, 10.0);
        let got = run(&DalyPeriodic::auto(), &ctx, &ids);
        assert_eq!(got.iter().filter(|&&c| c).count(), 1);
        assert!(got[7]);
    }

    #[test]
    fn daly_free_checkpoints_go_everywhere() {
        let (w, ids) = unit_chain(8, 0.0);
        let ctx = CostCtx::exponential(&w.dag, 1e-3, 10.0);
        assert!(run(&DalyPeriodic::auto(), &ctx, &ids).iter().all(|&c| c));
    }

    #[test]
    fn daly_wearout_checkpoints_more_than_infant_mortality() {
        // Same calibrated pfail: an increasing hazard concentrates
        // failure mass on long spans, so the effective rate at the
        // candidate period is higher and the period shorter.
        let (w, ids) = unit_chain(60, 20.0);
        let bw = 10.0;
        let w_bar = w.dag.mean_weight();
        let wear = CostCtx::with_model(
            &w.dag,
            FailureModel::weibull_from_pfail(2.0, 0.01, w_bar),
            bw,
        );
        let infant = CostCtx::with_model(
            &w.dag,
            FailureModel::weibull_from_pfail(0.7, 0.01, w_bar),
            bw,
        );
        let n_wear = run(&DalyPeriodic::auto(), &wear, &ids)
            .iter()
            .filter(|&&c| c)
            .count();
        let n_infant = run(&DalyPeriodic::auto(), &infant, &ids)
            .iter()
            .filter(|&&c| c)
            .count();
        assert!(n_wear > n_infant, "wear-out {n_wear} vs infant {n_infant}");
    }

    #[test]
    fn daly_effective_rate_beats_memoryless_tuned_period_under_wearout() {
        // The ISSUE-5 claim: a Young/Daly period tuned with the
        // memoryless rate of the same calibrated pfail visibly loses
        // under wear-out — the increasing hazard makes its 3×-longer
        // segments restart far more than the exponential math predicts.
        let (w, ids) = unit_chain(60, 20.0);
        let bw = 10.0;
        let w_bar = w.dag.mean_weight();
        let pfail = 0.01;
        let ctx = CostCtx::with_model(
            &w.dag,
            FailureModel::weibull_from_pfail(2.0, pfail, w_bar),
            bw,
        );
        let lambda_memoryless = crate::pfail::lambda_from_pfail(pfail, w_bar);
        let c_bar = (20.0 / bw) * 59.0 / 60.0;
        let memoryless_period = (2.0 * c_bar / lambda_memoryless).sqrt();
        let auto = run(&DalyPeriodic::auto(), &ctx, &ids);
        let tuned = run(&DalyPeriodic::with_period(memoryless_period), &ctx, &ids);
        let mut scratch = SegmentCostScratch::new();
        let t_auto = placement_expected_time(&ctx, &ids, &auto, &mut scratch);
        let t_tuned = placement_expected_time(&ctx, &ids, &tuned, &mut scratch);
        assert!(
            t_auto * 1.05 < t_tuned,
            "effective-rate {t_auto} vs memoryless-tuned {t_tuned}"
        );
    }

    #[test]
    fn risk_threshold_bounds_segment_failure_probability() {
        let (w, ids) = unit_chain(30, 2.0);
        let lambda = 0.02;
        let ctx = CostCtx::exponential(&w.dag, lambda, 10.0);
        let bound = 0.25;
        let got = run(&RiskThreshold::new(bound), &ctx, &ids);
        assert!(got[29]);
        // Every segment *without* its closing task stays under the
        // bound (the closing task is what pushed it over).
        let mut scratch = SegmentCostScratch::new();
        let mut lo = 0usize;
        for (hi, &ck) in got.iter().enumerate() {
            if ck {
                if hi > lo {
                    let base = segment_cost_reusing(&ctx, &ids, lo, hi - 1, &mut scratch).base();
                    assert!(
                        ctx.model.cdf(base) < bound,
                        "segment [{lo},{}] already over the bound",
                        hi - 1
                    );
                }
                lo = hi + 1;
            }
        }
        // And the bound binds: interior checkpoints exist.
        assert!(got.iter().filter(|&&c| c).count() > 1);
    }

    #[test]
    fn risk_threshold_rare_failures_reduce_to_exit_only() {
        let (w, ids) = unit_chain(10, 2.0);
        let ctx = CostCtx::exponential(&w.dag, 1e-9, 10.0);
        let got = run(&RiskThreshold::default(), &ctx, &ids);
        assert_eq!(got, run(&ExitOnlyPolicy, &ctx, &ids));
    }

    #[test]
    fn greedy_crossover_checkpoints_exactly_crossing_tasks() {
        // a ⊳ (b ∥ c) ⊳ d scheduled on 2 procs: superchain [a] feeds b
        // and c (crossover to c's processor), [b] feeds d on the same
        // proc... build via allocate and check against succ membership.
        let w = pegasus::generic::fork_join(2, 3, 7);
        let sched = allocate(&w, 2, &AllocateConfig::default());
        let ctx = CostCtx::exponential(&w.dag, 1e-3, 1e6);
        let mut scratch = PolicyScratch::new();
        let plan = plan_with_policy(&ctx, &sched, &GreedyCrossover, &mut scratch);
        for sc in &sched.superchains {
            let member: Vec<bool> = {
                let mut m = vec![false; w.dag.n_tasks()];
                for &t in &sc.tasks {
                    m[t.index()] = true;
                }
                m
            };
            for (k, &t) in sc.tasks.iter().enumerate() {
                let crossing = w.dag.succs(t).iter().any(|&(v, _)| !member[v.index()]);
                let expect = crossing || k == sc.tasks.len() - 1;
                assert_eq!(plan.ckpt_after[t.index()], expect, "task {t}");
            }
        }
    }

    #[test]
    fn empty_superchains_are_tolerated() {
        // plan_with_policy's contract tolerates empty superchains
        // (`n == 0 || buf[n-1]`); every non-DP builtin must too.
        let (w, _) = unit_chain(3, 1.0);
        let ctx = CostCtx::exponential(&w.dag, 1e-3, 10.0);
        let mut scratch = PolicyScratch::new();
        let daly = DalyPeriodic::auto();
        let risk = RiskThreshold::default();
        let policies: [&dyn CheckpointPolicy; 5] = [
            &CkptAllPolicy,
            &ExitOnlyPolicy,
            &daly,
            &risk,
            &GreedyCrossover,
        ];
        for p in policies {
            let mut out: Vec<bool> = Vec::new();
            p.place(&ctx, &[], &mut scratch, &mut out);
            assert!(out.is_empty(), "{}", p.name());
        }
    }

    #[test]
    fn placement_expected_time_matches_dp_objective() {
        let (w, ids) = unit_chain(12, 5.0);
        let ctx = CostCtx::exponential(&w.dag, 1e-2, 10.0);
        let dp = crate::checkpoint_dp::optimal_checkpoints(&ctx, &ids);
        let mut scratch = SegmentCostScratch::new();
        let t = placement_expected_time(&ctx, &ids, &dp.ckpt_after, &mut scratch);
        assert!((t - dp.expected_time).abs() < 1e-9 * dp.expected_time);
    }

    #[test]
    #[should_panic(expected = "without a final checkpoint")]
    fn plan_with_policy_enforces_final_checkpoint() {
        struct Broken;
        impl CheckpointPolicy for Broken {
            fn name(&self) -> &'static str {
                "Broken"
            }
            fn place(&self, _: &CostCtx<'_>, _: &[TaskId], _: &mut PolicyScratch, _: &mut [bool]) {}
        }
        let (w, _) = unit_chain(3, 1.0);
        let sched = allocate(&w, 1, &AllocateConfig::default());
        let ctx = CostCtx::exponential(&w.dag, 1e-3, 10.0);
        plan_with_policy(&ctx, &sched, &Broken, &mut PolicyScratch::new());
    }
}

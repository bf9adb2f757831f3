//! Event-driven simulation of the CkptNone strategy, including
//! crossover-dependency cascades (§I of the paper).
//!
//! No data is ever checkpointed: a task's outputs live only in its
//! processor's memory. When a processor fails it instantly reboots but
//! loses everything — the task it was running *and* the outputs of every
//! completed task still resident. Consumers that later need a lost datum
//! force the producer to re-execute on its original processor, which may
//! transitively require re-executing *its* producers ("a few crashes can
//! thus lead to many task re-executions"). The paper proves computing the
//! expected makespan of this process is #P-complete; this engine samples
//! it instead.
//!
//! Model choices (documented in DESIGN.md): instant reboot (no downtime),
//! zero-cost in-memory transfer, consumers copy their inputs at start (a
//! running task is immune to later producer failures), workflow inputs
//! live on stable storage and are always recoverable, and re-executions
//! keep the original task→processor mapping.
//!
//! The engine is split into [`NoneStatic`] (immutable per-schedule
//! tables) and [`NoneState`] (the cloneable dynamic state of one
//! trajectory). A trajectory can be **paused** just before it injects
//! its `next_split`-th failure and resumed — or cloned and resumed many
//! times — which is what the multilevel-splitting rare-event estimator
//! in [`crate::montecarlo`] builds on. With `next_split == 0` (the
//! default) the pause branch never triggers and the engine is the plain
//! one-shot simulator.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ckpt_core::Schedule;
use mspg::{Dag, TaskId};

use crate::failure::FailureSource;
use crate::metrics::ExecStats;

/// Simulation failed to converge within the failure budget (the expected
/// number of failures per execution explodes for high `λ·W` products —
/// exactly the regime where the paper's plots clip CkptNone).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Diverged {
    /// Failures injected before giving up.
    pub n_failures: usize,
}

impl std::fmt::Display for Diverged {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CkptNone simulation exceeded {} failures",
            self.n_failures
        )
    }
}

impl std::error::Error for Diverged {}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TState {
    /// Waiting in its processor's queue (never run, or demanded again).
    Queued,
    /// Currently executing.
    Running,
    /// Completed with output data live in processor memory.
    DoneLive,
    /// Completed but output data lost to a failure.
    DoneLost,
}

#[derive(Clone, Copy, Debug)]
enum Event {
    /// Fail-stop failure on a processor.
    Fail(usize),
    /// Completion of the task running on a processor; stale epochs are
    /// dropped.
    Done(usize, u64),
}

/// Total-ordered event key (time, tie-break sequence).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Key(f64, u64);

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

/// One simulated CkptNone execution of `sched` under `failures`.
///
/// `max_failures` bounds the simulation (see [`Diverged`]).
pub fn simulate_none(
    dag: &Dag,
    sched: &Schedule,
    failures: &mut dyn FailureSource,
    max_failures: usize,
) -> Result<ExecStats, Diverged> {
    simulate_none_impl(dag, sched, failures, max_failures, true)
}

/// [`simulate_none`] with the hot-path machinery disabled: every failure
/// event takes the full heap round-trip through the dispatcher, and
/// `start_ready` exhaustively rescans every processor after every event.
/// Bit-identical to [`simulate_none`] by construction; exists so the
/// equivalence is *pinned by test*
/// (`sim_properties::fail_restart_fast_path_is_bitwise_equivalent`)
/// rather than argued once and silently regressed later.
#[doc(hidden)]
pub fn simulate_none_reference(
    dag: &Dag,
    sched: &Schedule,
    failures: &mut dyn FailureSource,
    max_failures: usize,
) -> Result<ExecStats, Diverged> {
    simulate_none_impl(dag, sched, failures, max_failures, false)
}

fn simulate_none_impl(
    dag: &Dag,
    sched: &Schedule,
    failures: &mut dyn FailureSource,
    max_failures: usize,
    inline_fail_cycles: bool,
) -> Result<ExecStats, Diverged> {
    let st = NoneStatic::new(dag, sched, inline_fail_cycles);
    let mut state = NoneState::new(&st, failures);
    match state.run(&st, failures, max_failures) {
        RunOutcome::Done(s) => Ok(s),
        RunOutcome::Diverged(d) => Err(d),
        RunOutcome::Split => unreachable!("splitting disabled (next_split = 0)"),
    }
}

/// Immutable per-`(dag, schedule)` tables, shared by every trajectory
/// over the same mapping (including every clone the splitting estimator
/// spawns).
pub(crate) struct NoneStatic {
    p: usize,
    /// Task weights indexed by task id.
    weights: Vec<f64>,
    /// Owning processor of each task.
    proc_of: Vec<usize>,
    /// Rank of each task in its processor's schedule order.
    pos_of: Vec<u32>,
    /// Per-processor schedule order (queue initialization).
    proc_orders: Vec<Vec<TaskId>>,
    // Flat (CSR) adjacency for the event loop's hottest scans: the
    // dependence-edge tuples of `Dag` carry file ids the simulator never
    // reads, and a task's consumers collapse to at most `p` distinct
    // processors for dirty-marking.
    pred_off: Vec<u32>,
    pred_tasks: Vec<u32>,
    cons_off: Vec<u32>,
    cons_procs: Vec<u32>,
    is_sink: Vec<bool>,
    n_sinks: usize,
    /// Enables two hot-path mechanisms, both of which leave the
    /// processed event sequence — and therefore every draw, state
    /// transition, and statistic — bit-identical:
    ///
    /// * **inline fail cycles** — when the failure event a handler is
    ///   about to push is *strictly below* every key in the event heap
    ///   (the steady state of a diverging run: one processor fails,
    ///   restarts its task, and fails again before anything else
    ///   happens), the event is processed in place instead of doing a
    ///   push + pop + dispatch round trip. Event keys `(time, seq)` are
    ///   unique and totally ordered, and the fast path *reserves* the
    ///   failure's `seq` exactly where the slow path pushes it, so every
    ///   later event's tie-break key is unchanged and the elision fires
    ///   only when that key would be the next pop anyway;
    /// * **dirty-processor tracking** — `start_ready` checks only
    ///   processors whose startability could have changed since their
    ///   last unsuccessful check. Unsuccessful checks have no side
    ///   effects, so skipping provably-unprogressable processors
    ///   preserves the exact sequence of starts and demands.
    inline_fail_cycles: bool,
}

impl NoneStatic {
    pub(crate) fn new(dag: &Dag, sched: &Schedule, inline_fail_cycles: bool) -> NoneStatic {
        let n = dag.n_tasks();
        let p = sched.n_procs;
        let mut weights = vec![0.0f64; n];
        for t in dag.task_ids() {
            weights[t.index()] = dag.weight(t);
        }
        let mut proc_of = vec![usize::MAX; n];
        let mut pos_of = vec![u32::MAX; n];
        let mut proc_orders: Vec<Vec<TaskId>> = Vec::with_capacity(p);
        for q in 0..p {
            let order = sched.proc_task_order(q);
            for (i, &t) in order.iter().enumerate() {
                proc_of[t.index()] = q;
                pos_of[t.index()] = i as u32;
            }
            proc_orders.push(order);
        }
        let mut pred_off = Vec::with_capacity(n + 1);
        let mut pred_tasks: Vec<u32> = Vec::new();
        let mut cons_off = Vec::with_capacity(n + 1);
        let mut cons_procs: Vec<u32> = Vec::new();
        {
            let mut proc_seen = vec![u32::MAX; p];
            pred_off.push(0u32);
            cons_off.push(0u32);
            for t in dag.task_ids() {
                for &(u, _) in dag.preds(t) {
                    pred_tasks.push(u.0);
                }
                pred_off.push(pred_tasks.len() as u32);
                for &(v, _) in dag.succs(t) {
                    let r = proc_of[v.index()];
                    if proc_seen[r] != t.0 {
                        proc_seen[r] = t.0;
                        cons_procs.push(r as u32);
                    }
                }
                cons_off.push(cons_procs.len() as u32);
            }
        }
        // The workflow completes when every *sink* has completed once:
        // sinks have no consumers, so their first completion is final,
        // and all other tasks are ancestors of some sink. Re-execution
        // demands still pending at that instant are irrelevant.
        let mut is_sink = vec![false; n];
        let mut n_sinks = 0usize;
        for t in dag.task_ids() {
            if dag.succs(t).is_empty() {
                is_sink[t.index()] = true;
                n_sinks += 1;
            }
        }
        NoneStatic {
            p,
            weights,
            proc_of,
            pos_of,
            proc_orders,
            pred_off,
            pred_tasks,
            cons_off,
            cons_procs,
            is_sink,
            n_sinks,
            inline_fail_cycles,
        }
    }

    fn preds_of(&self, t: TaskId) -> &[u32] {
        &self.pred_tasks[self.pred_off[t.index()] as usize..self.pred_off[t.index() + 1] as usize]
    }

    fn cons_procs_of(&self, t: TaskId) -> &[u32] {
        &self.cons_procs[self.cons_off[t.index()] as usize..self.cons_off[t.index() + 1] as usize]
    }
}

/// Result of driving a [`NoneState`] until it finishes, diverges, or
/// pauses at its split level.
#[derive(Clone, Copy, Debug)]
pub(crate) enum RunOutcome {
    /// All sinks completed; the trajectory's final statistics.
    Done(ExecStats),
    /// The failure budget was exhausted.
    Diverged(Diverged),
    /// Paused just *before* injecting failure number `next_split`. The
    /// pending failure event is back in the heap with its original key,
    /// so cloning the state and resuming (with any failure source for
    /// the not-yet-drawn future) continues bit-exactly from this point.
    Split,
}

/// The dynamic state of one CkptNone trajectory. `Clone` is the
/// splitting estimator's trajectory-cloning primitive: a clone shares
/// the already-drawn pending events (they are part of the state being
/// conditioned on) and diverges only through future failure draws.
#[derive(Clone)]
pub(crate) struct NoneState {
    state: Vec<TState>,
    ever_done: Vec<bool>,
    /// Tasks whose output is live in each processor's memory (exactly
    /// the tasks of that processor in state DoneLive) — a failure drains
    /// this list instead of sweeping the processor's whole task order.
    live: Vec<Vec<TaskId>>,
    queues: Vec<BinaryHeap<Reverse<(u32, u32)>>>,
    current: Vec<Option<(TaskId, f64)>>,
    epoch: Vec<u64>,
    events: BinaryHeap<Reverse<(Key, EventBox)>>,
    seq: u64,
    stats: ExecStats,
    remaining_sinks: usize,
    /// Dirty-processor worklist for `start_ready`: a processor is
    /// checked only if something that could change its startability
    /// happened since its last unsuccessful check — it became idle, its
    /// queue changed, or a predecessor of (potentially) its front task
    /// transitioned to DoneLive / DoneLost. Checking a clean processor
    /// provably cannot progress, and an unsuccessful check has no side
    /// effects, so skipping clean processors leaves the exact sequence
    /// of successful starts/demands — and therefore every event
    /// sequence number — identical to the exhaustive rescan (pinned by
    /// `sim_properties::fail_restart_fast_path_is_bitwise_equivalent`).
    dirty: Vec<bool>,
    /// Pause threshold: [`NoneState::run`] returns [`RunOutcome::Split`]
    /// immediately before injecting failure number `next_split`
    /// (1-indexed). `0` disables pausing; the engine is then bitwise
    /// the classic one-shot simulator.
    pub(crate) next_split: usize,
}

impl NoneState {
    /// Fresh trajectory at time 0: initial failure arrivals drawn from
    /// `failures` (one per processor), source tasks started.
    pub(crate) fn new(st: &NoneStatic, failures: &mut dyn FailureSource) -> NoneState {
        let n = st.weights.len();
        let p = st.p;
        let mut queues: Vec<BinaryHeap<Reverse<(u32, u32)>>> =
            (0..p).map(|_| BinaryHeap::new()).collect();
        for (q, queue) in queues.iter_mut().enumerate() {
            for &t in &st.proc_orders[q] {
                queue.push(Reverse((st.pos_of[t.index()], t.0)));
            }
        }
        let mut s = NoneState {
            state: vec![TState::Queued; n],
            ever_done: vec![false; n],
            live: vec![Vec::new(); p],
            queues,
            current: vec![None; p],
            epoch: vec![0u64; p],
            events: BinaryHeap::new(),
            seq: 0,
            stats: ExecStats::default(),
            remaining_sinks: st.n_sinks,
            dirty: vec![true; p],
            next_split: 0,
        };
        for q in 0..p {
            let t = failures.next_failure(q, 0.0);
            if t.is_finite() {
                s.push_event(t, Event::Fail(q));
            }
        }
        s.start_ready(st, 0.0);
        s
    }

    /// Failures injected so far (monotone across resumes).
    #[cfg(test)]
    pub(crate) fn n_failures(&self) -> usize {
        self.stats.n_failures
    }

    fn push_event(&mut self, time: f64, ev: Event) {
        self.seq += 1;
        self.events
            .push(Reverse((Key(time, self.seq), EventBox(ev))));
    }

    /// Starts the front task of every idle processor whose predecessors
    /// are all DoneLive; lost predecessors are demanded for re-execution
    /// on their own processors. Loops until no processor can start (a
    /// fresh re-execution demand may itself be immediately startable).
    fn start_ready(&mut self, st: &NoneStatic, now: f64) {
        loop {
            let mut progressed = false;
            for q in 0..st.p {
                if st.inline_fail_cycles {
                    // Fast engine: skip provably-unprogressable procs.
                    if !self.dirty[q] {
                        continue;
                    }
                    self.dirty[q] = false;
                }
                if self.current[q].is_some() {
                    continue;
                }
                let Some(&Reverse((_, tid))) = self.queues[q].peek() else {
                    continue;
                };
                let t = TaskId(tid);
                let mut ready = true;
                for &u in st.preds_of(t) {
                    let ui = u as usize;
                    match self.state[ui] {
                        TState::DoneLive => {}
                        TState::DoneLost => {
                            // Demand re-execution of the producer on its
                            // own processor; re-scan so that an idle
                            // processor picks the demand up in this same
                            // instant.
                            self.state[ui] = TState::Queued;
                            self.stats.n_reexecs += 1;
                            let r = st.proc_of[ui];
                            self.queues[r].push(Reverse((st.pos_of[ui], u)));
                            // r's queue (and possibly its front) changed.
                            self.dirty[r] = true;
                            ready = false;
                            progressed = true;
                        }
                        _ => ready = false,
                    }
                }
                if ready {
                    self.queues[q].pop();
                    self.current[q] = Some((t, now));
                    self.state[t.index()] = TState::Running;
                    self.epoch[q] += 1;
                    self.seq += 1;
                    self.events.push(Reverse((
                        Key(now + st.weights[t.index()], self.seq),
                        EventBox(Event::Done(q, self.epoch[q])),
                    )));
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }

    /// Drives the trajectory until it completes, exhausts
    /// `max_failures`, or reaches its `next_split` pause point. Future
    /// failure arrivals are drawn from `failures`; a resumed clone may
    /// pass a *different* source than its parent (the pending events in
    /// the heap were already drawn and are shared).
    pub(crate) fn run(
        &mut self,
        st: &NoneStatic,
        failures: &mut dyn FailureSource,
        max_failures: usize,
    ) -> RunOutcome {
        if self.remaining_sinks == 0 {
            return RunOutcome::Done(self.stats);
        }
        while let Some(Reverse((key, EventBox(ev)))) = self.events.pop() {
            let Key(now, _) = key;
            match ev {
                Event::Done(q, e) => {
                    if e != self.epoch[q] {
                        continue; // aborted by a failure
                    }
                    let (t, _) = self.current[q].take().expect("done on idle proc");
                    self.state[t.index()] = TState::DoneLive;
                    self.live[q].push(t);
                    // q idles, and t's consumers may have become
                    // startable.
                    self.dirty[q] = true;
                    for &r in st.cons_procs_of(t) {
                        self.dirty[r as usize] = true;
                    }
                    if !self.ever_done[t.index()] {
                        self.ever_done[t.index()] = true;
                        if st.is_sink[t.index()] {
                            self.remaining_sinks -= 1;
                            self.stats.makespan = self.stats.makespan.max(now);
                            if self.remaining_sinks == 0 {
                                return RunOutcome::Done(self.stats);
                            }
                        }
                    }
                    self.start_ready(st, now);
                }
                Event::Fail(q) => {
                    if self.next_split != 0 && self.stats.n_failures + 1 >= self.next_split {
                        // Pause *before* injecting this failure: push the
                        // event back under its original key, so the heap
                        // (and every future tie-break) is exactly the
                        // pre-pop state.
                        self.events.push(Reverse((key, EventBox(ev))));
                        return RunOutcome::Split;
                    }
                    let mut now = now;
                    loop {
                        self.stats.n_failures += 1;
                        if self.stats.n_failures > max_failures {
                            return RunOutcome::Diverged(Diverged {
                                n_failures: self.stats.n_failures,
                            });
                        }
                        // Abort the running task.
                        if let Some((t, started)) = self.current[q].take() {
                            self.stats.wasted_time += now - started;
                            self.state[t.index()] = TState::Queued;
                            self.queues[q].push(Reverse((st.pos_of[t.index()], t.0)));
                            self.epoch[q] += 1;
                            // q idles with a changed queue.
                            self.dirty[q] = true;
                        }
                        // All live outputs on q are lost; consumers
                        // blocked on a lost output can now issue a
                        // re-execution demand.
                        let mut lost = std::mem::take(&mut self.live[q]);
                        for t in lost.drain(..) {
                            if self.state[t.index()] == TState::DoneLive {
                                self.state[t.index()] = TState::DoneLost;
                                for &r in st.cons_procs_of(t) {
                                    self.dirty[r as usize] = true;
                                }
                            }
                        }
                        self.live[q] = lost;
                        let next = failures.next_failure(q, now);
                        // Reserve the next Fail(q)'s sequence number
                        // *here* — where the slow path pushes it — so
                        // every later event's tie-break key is identical
                        // whether or not the fast path below elides the
                        // heap transit.
                        let fail_seq = if next.is_finite() {
                            self.seq += 1;
                            Some(self.seq)
                        } else {
                            None
                        };
                        self.start_ready(st, now);
                        let Some(fs) = fail_seq else {
                            break;
                        };
                        let key = Key(next, fs);
                        let is_next_event = st.inline_fail_cycles
                            && match self.events.peek() {
                                None => true,
                                Some(&Reverse((top, _))) => key < top,
                            };
                        if is_next_event {
                            if self.next_split != 0 && self.stats.n_failures + 1 >= self.next_split
                            {
                                // Same pause point as the dispatcher's:
                                // materialize the elided event and stop
                                // before injecting it.
                                self.events.push(Reverse((key, EventBox(Event::Fail(q)))));
                                return RunOutcome::Split;
                            }
                            // Fail(q) at `next` is strictly the earliest
                            // pending event: process it in place.
                            now = next;
                            continue;
                        }
                        self.events.push(Reverse((key, EventBox(Event::Fail(q)))));
                        break;
                    }
                }
            }
        }
        // Event queue drained: with no more failures scheduled everything
        // still queued would have started; reaching here with sinks
        // pending means a blocked demand was never satisfied — a bug.
        assert_eq!(
            self.remaining_sinks, 0,
            "simulation stalled with {} sinks left",
            self.remaining_sinks
        );
        RunOutcome::Done(self.stats)
    }
}

/// Boxed event to keep the heap element `Ord` (events themselves are not
/// ordered; the key is).
#[derive(Clone, Copy, Debug)]
struct EventBox(Event);

impl PartialEq for EventBox {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for EventBox {}

impl PartialOrd for EventBox {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EventBox {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::{ModelFailures, TraceFailures};
    use ckpt_core::{allocate, AllocateConfig, FailureModel};
    use mspg::{Mspg, Workflow};

    /// a → b with a on P0, b on P1; weights 2 and 3.
    fn cross_proc_chain() -> (Workflow, Schedule) {
        let mut dag = Dag::new();
        let k = dag.add_kind("t");
        let a = dag.add_task_with_output("a", k, 2.0, 1.0);
        let b = dag.add_task_with_output("b", k, 3.0, 1.0);
        let root = Mspg::chain([a, b]).unwrap();
        let w = Workflow::new(dag, root);
        let scs = vec![
            ckpt_core::Superchain {
                proc: 0,
                tasks: vec![a],
            },
            ckpt_core::Superchain {
                proc: 1,
                tasks: vec![b],
            },
        ];
        let sched = ckpt_core::Schedule::from_superchains(&w.dag, 2, scs);
        (w, sched)
    }

    #[test]
    fn no_failures_gives_parallel_time() {
        let (w, sched) = cross_proc_chain();
        let mut src = TraceFailures::new(vec![]);
        let stats = simulate_none(&w.dag, &sched, &mut src, 1000).unwrap();
        assert_eq!(stats.makespan, 5.0);
        assert_eq!(stats.n_failures, 0);
    }

    #[test]
    fn crossover_dependency_forces_producer_reexecution() {
        // a (P0, weight 2) completes at t=2; b (P1, weight 3) starts at 2.
        // P1 fails at t=4 (b aborted, its input copy lost). By then P0
        // failed at t=3, losing a's output. b's restart demands a's
        // re-execution: a reruns 4→6, b reruns 6→9.
        let (w, sched) = cross_proc_chain();
        let mut src = TraceFailures::new(vec![vec![3.0], vec![4.0]]);
        let stats = simulate_none(&w.dag, &sched, &mut src, 1000).unwrap();
        assert_eq!(stats.makespan, 9.0);
        assert_eq!(stats.n_failures, 2);
        assert_eq!(stats.n_reexecs, 1, "a must be demanded once");
    }

    #[test]
    fn producer_failure_during_consumer_run_is_harmless() {
        // b starts at 2 holding a copy of a's output; P0 fails at t=3 but
        // b completes at t=5 unaffected.
        let (w, sched) = cross_proc_chain();
        let mut src = TraceFailures::new(vec![vec![3.0], vec![]]);
        let stats = simulate_none(&w.dag, &sched, &mut src, 1000).unwrap();
        assert_eq!(stats.makespan, 5.0);
        assert_eq!(stats.n_reexecs, 0);
    }

    #[test]
    fn failure_of_running_task_restarts_it() {
        let (w, sched) = cross_proc_chain();
        // P0 fails at t=1 (a half done): a reruns 1→3, b runs 3→6.
        let mut src = TraceFailures::new(vec![vec![1.0], vec![]]);
        let stats = simulate_none(&w.dag, &sched, &mut src, 1000).unwrap();
        assert_eq!(stats.makespan, 6.0);
        assert!((stats.wasted_time - 1.0).abs() < 1e-12);
    }

    #[test]
    fn divergence_is_reported() {
        let (w, sched) = cross_proc_chain();
        // Both processors fail every 0.5 s: nothing of weight ≥ 2 can ever
        // finish.
        let times: Vec<f64> = (1..100_000).map(|i| i as f64 * 0.5).collect();
        let mut src = TraceFailures::new(vec![times.clone(), times]);
        let r = simulate_none(&w.dag, &sched, &mut src, 500);
        assert!(matches!(r, Err(Diverged { .. })));
    }

    #[test]
    fn matches_wpar_for_scheduled_workflows_without_failures() {
        for class in pegasus::WorkflowClass::ALL {
            let w = pegasus::generate(class, 50, 3);
            let sched = allocate(&w, 5, &AllocateConfig::default());
            let wpar = sched.failure_free_parallel_time(&w.dag);
            let mut src = ModelFailures::new(FailureModel::exponential(0.0), 1);
            let stats = simulate_none(&w.dag, &sched, &mut src, 10).unwrap();
            assert!(
                (stats.makespan - wpar).abs() < 1e-6 * wpar,
                "{class}: sim {} vs wpar {wpar}",
                stats.makespan
            );
        }
    }

    #[test]
    fn failures_increase_expected_makespan() {
        let w = pegasus::generate(pegasus::WorkflowClass::Genome, 50, 7);
        let sched = allocate(&w, 5, &AllocateConfig::default());
        let wpar = sched.failure_free_parallel_time(&w.dag);
        let lambda = ckpt_core::lambda_from_pfail(0.01, w.dag.mean_weight());
        let runs = 100;
        let mean: f64 = (0..runs)
            .map(|s| {
                let mut src = ModelFailures::new(FailureModel::exponential(lambda), s);
                simulate_none(&w.dag, &sched, &mut src, 100_000)
                    .unwrap()
                    .makespan
            })
            .sum::<f64>()
            / runs as f64;
        assert!(mean > wpar, "mean {mean} vs wpar {wpar}");
    }

    #[test]
    fn paused_and_resumed_run_is_bitwise_the_oneshot_run() {
        // Pausing at every single failure level and resuming (same
        // source, no cloning) must leave the trajectory bit-identical
        // to the one-shot run: the pause only parks the pending event.
        let w = pegasus::generate(pegasus::WorkflowClass::Genome, 40, 5);
        let sched = allocate(&w, 3, &AllocateConfig::default());
        let lambda = ckpt_core::lambda_from_pfail(0.2, w.dag.mean_weight());
        let mut one = ModelFailures::new(FailureModel::exponential(lambda), 9);
        let oneshot = simulate_none(&w.dag, &sched, &mut one, 100_000).unwrap();
        let st = NoneStatic::new(&w.dag, &sched, true);
        let mut src = ModelFailures::new(FailureModel::exponential(lambda), 9);
        let mut state = NoneState::new(&st, &mut src);
        let mut k = 1;
        loop {
            state.next_split = k;
            match state.run(&st, &mut src, 100_000) {
                RunOutcome::Split => {
                    assert_eq!(state.n_failures(), k - 1);
                    k += 1;
                }
                RunOutcome::Done(s) => {
                    assert_eq!(s, oneshot);
                    break;
                }
                RunOutcome::Diverged(d) => panic!("unexpected divergence: {d}"),
            }
        }
        assert!(k > 1, "seed must produce at least one failure");
        assert_eq!(k - 1, oneshot.n_failures, "one pause per failure");
    }
}

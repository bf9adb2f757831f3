//! Schedules: superchains mapped onto processors, and the checked
//! schedule artifact that every way of planning works on.

use std::sync::Arc;

use mspg::{Dag, TaskId};

/// A superchain: a sub-M-SPG linearized onto one processor (§II-C).
///
/// Tasks execute sequentially in `tasks` order; the order is a topological
/// order of the induced sub-DAG. Entry tasks have predecessors outside the
/// superchain, exit tasks have successors outside it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Superchain {
    /// Owning processor.
    pub proc: usize,
    /// Execution order (topological within the superchain).
    pub tasks: Vec<TaskId>,
}

/// A complete schedule: every task assigned to a superchain, superchains
/// ordered per processor.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Number of processors.
    pub n_procs: usize,
    /// All superchains, in creation order.
    pub superchains: Vec<Superchain>,
    /// Per processor: indices into `superchains`, in execution order.
    pub proc_chains: Vec<Vec<usize>>,
    /// Per task: owning processor.
    pub task_proc: Vec<u32>,
    /// Per task: owning superchain index.
    pub task_sc: Vec<u32>,
}

/// Error returned by [`Schedule::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleError {
    /// A task is scheduled zero or multiple times.
    BadCover(TaskId),
    /// A superchain's order violates an internal dependence.
    NotTopological(usize),
    /// The superchain/serialization graph has a cycle (deadlock).
    Deadlock,
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::BadCover(t) => write!(f, "task {t} not scheduled exactly once"),
            ScheduleError::NotTopological(s) => {
                write!(f, "superchain {s} violates internal dependencies")
            }
            ScheduleError::Deadlock => write!(f, "schedule graph has a cycle"),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl Schedule {
    /// Builds a schedule from superchains (used by `allocate`).
    pub fn from_superchains(dag: &Dag, n_procs: usize, superchains: Vec<Superchain>) -> Self {
        let mut proc_chains = vec![Vec::new(); n_procs];
        let mut task_proc = vec![u32::MAX; dag.n_tasks()];
        let mut task_sc = vec![u32::MAX; dag.n_tasks()];
        for (i, sc) in superchains.iter().enumerate() {
            proc_chains[sc.proc].push(i);
            for &t in &sc.tasks {
                task_proc[t.index()] = sc.proc as u32;
                task_sc[t.index()] = i as u32;
            }
        }
        Schedule {
            n_procs,
            superchains,
            proc_chains,
            task_proc,
            task_sc,
        }
    }

    /// The full task order on processor `p` (concatenated superchains).
    pub fn proc_task_order(&self, p: usize) -> Vec<TaskId> {
        self.proc_chains[p]
            .iter()
            .flat_map(|&s| self.superchains[s].tasks.iter().copied())
            .collect()
    }

    /// Total number of scheduled tasks.
    pub fn n_tasks(&self) -> usize {
        self.superchains.iter().map(|s| s.tasks.len()).sum()
    }

    /// Failure-free parallel time `W_par`: the longest path over task
    /// weights through dependence edges *plus* same-processor serialization
    /// edges, with zero I/O cost (used by Theorem 1 for CkptNone). One
    /// linear sweep; [`ScheduleArtifact`] holds it for a checked schedule.
    ///
    /// # Panics
    /// Panics if the schedule graph has a cycle.
    pub fn failure_free_parallel_time(&self, dag: &Dag) -> f64 {
        self.sweep(dag).expect("schedule graph has a cycle")
    }

    /// Validates coverage, per-superchain topological consistency, and
    /// global acyclicity of dependence + serialization edges.
    pub fn validate(&self, dag: &Dag) -> Result<(), ScheduleError> {
        self.checked_w_par(dag).map(|_| ())
    }

    /// [`Schedule::validate`]'s checks, in its order, then `W_par` from
    /// the sweep that proves acyclicity. Linear in tasks plus edges.
    fn checked_w_par(&self, dag: &Dag) -> Result<f64, ScheduleError> {
        // Per task: its superchain and its position there.
        let mut place = vec![(u32::MAX, 0u32); dag.n_tasks()];
        for (i, sc) in self.superchains.iter().enumerate() {
            for (k, &t) in sc.tasks.iter().enumerate() {
                if place[t.index()].0 != u32::MAX {
                    return Err(ScheduleError::BadCover(t));
                }
                place[t.index()] = (i as u32, k as u32);
            }
        }
        if let Some(i) = place.iter().position(|&(sc, _)| sc == u32::MAX) {
            return Err(ScheduleError::BadCover(TaskId(i as u32)));
        }
        // The first superchain with an internal edge pointing backwards.
        let backwards = dag
            .task_ids()
            .flat_map(|t| dag.succs(t).iter().map(move |&(v, _)| (t, v)))
            .map(|(t, v)| (place[t.index()], place[v.index()]))
            .filter(|&((sc, k), (sc_v, k_v))| sc == sc_v && k >= k_v)
            .map(|((sc, _), _)| sc)
            .min();
        if let Some(sc) = backwards {
            return Err(ScheduleError::NotTopological(sc as usize));
        }
        self.sweep(dag).ok_or(ScheduleError::Deadlock)
    }

    /// The one Kahn sweep over dependence plus serialization edges: the
    /// latest finish time, which is `W_par`, or `None` if that graph has
    /// a cycle. Each task's serialization neighbours (the tasks before
    /// and after it in its processor's concatenated superchains) come
    /// from one pass over the processors, so the sweep is linear. `max`
    /// is exact, so the finish times do not depend on the visit order.
    fn sweep(&self, dag: &Dag) -> Option<f64> {
        let n = dag.n_tasks();
        let mut serial_prev: Vec<Option<TaskId>> = vec![None; n];
        let mut serial_next: Vec<Option<TaskId>> = vec![None; n];
        for chains in &self.proc_chains {
            let mut prev = None;
            for &t in chains.iter().flat_map(|&s| &self.superchains[s].tasks) {
                if let Some(u) = prev {
                    serial_prev[t.index()] = Some(u);
                    serial_next[u.index()] = Some(t);
                }
                prev = Some(t);
            }
        }
        let mut indeg = vec![0usize; n];
        for t in dag.task_ids() {
            let succs = dag.succs(t).iter().map(|&(v, _)| v);
            for v in succs.chain(serial_next[t.index()]) {
                indeg[v.index()] += 1;
            }
        }
        let mut ready: Vec<TaskId> = dag.task_ids().filter(|t| indeg[t.index()] == 0).collect();
        let mut finish = vec![0.0f64; n];
        let mut done = 0usize;
        let mut best = 0.0f64;
        while let Some(t) = ready.pop() {
            done += 1;
            let mut start = 0.0f64;
            for &(u, _) in dag.preds(t) {
                start = start.max(finish[u.index()]);
            }
            if let Some(u) = serial_prev[t.index()] {
                start = start.max(finish[u.index()]);
            }
            finish[t.index()] = start + dag.weight(t);
            best = best.max(finish[t.index()]);
            let succs = dag.succs(t).iter().map(|&(v, _)| v);
            for v in succs.chain(serial_next[t.index()]) {
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    ready.push(v);
                }
            }
        }
        (done == n).then_some(best)
    }
}

/// A schedule checked against the DAG it was built for, with its
/// failure-free parallel time `W_par`: what [`crate::Pipeline`], the
/// grid engine's cells and the service's sessions all plan on.
/// [`ScheduleArtifact::new`] is its one constructor, so an artifact
/// always holds a valid schedule and that schedule's own `W_par`.
///
/// Neither the checks nor `W_par` read file sizes, so the artifact of a
/// workflow instance serves every CCR rescale of it.
#[derive(Debug)]
pub struct ScheduleArtifact {
    schedule: Arc<Schedule>,
    w_par: f64,
}

impl ScheduleArtifact {
    /// Checks `schedule` against `dag` as [`Schedule::validate`] does
    /// and measures its `W_par`, in one linear sweep.
    ///
    /// # Panics
    /// Panics if `schedule` does not fit `dag` (a [`ScheduleError`]).
    pub fn new(schedule: Schedule, dag: &Dag) -> Self {
        let w_par = schedule
            .checked_w_par(dag)
            .unwrap_or_else(|e| panic!("schedule does not fit this workflow: {e}"));
        ScheduleArtifact {
            schedule: Arc::new(schedule),
            w_par,
        }
    }

    /// The schedule, shared: every pipeline built on this artifact
    /// holds the same one.
    pub fn schedule(&self) -> &Arc<Schedule> {
        &self.schedule
    }

    /// Failure-free parallel time of the schedule, without storage I/O
    /// ([`Schedule::failure_free_parallel_time`]).
    pub fn w_par(&self) -> f64 {
        self.w_par
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspg::Mspg;
    use mspg::Workflow;

    /// a ⊳ (b ∥ c) ⊳ d on 2 procs: P0 = [a], [b], [d]; P1 = [c].
    fn manual_schedule() -> (Workflow, Schedule) {
        let mut dag = Dag::new();
        let k = dag.add_kind("t");
        let a = dag.add_task_with_output("a", k, 1.0, 10.0);
        let b = dag.add_task_with_output("b", k, 2.0, 10.0);
        let c = dag.add_task_with_output("c", k, 5.0, 10.0);
        let d = dag.add_task_with_output("d", k, 1.0, 10.0);
        let root = Mspg::series([
            Mspg::Task(a),
            Mspg::parallel([Mspg::Task(b), Mspg::Task(c)]).unwrap(),
            Mspg::Task(d),
        ])
        .unwrap();
        let w = Workflow::new(dag, root);
        let scs = vec![
            Superchain {
                proc: 0,
                tasks: vec![a],
            },
            Superchain {
                proc: 0,
                tasks: vec![b],
            },
            Superchain {
                proc: 1,
                tasks: vec![c],
            },
            Superchain {
                proc: 0,
                tasks: vec![d],
            },
        ];
        let sched = Schedule::from_superchains(&w.dag, 2, scs);
        (w, sched)
    }

    #[test]
    fn validate_ok_and_cover_errors() {
        let (w, sched) = manual_schedule();
        assert!(sched.validate(&w.dag).is_ok());
        let mut bad = sched.clone();
        bad.superchains[1].tasks.clear();
        assert!(matches!(
            bad.validate(&w.dag),
            Err(ScheduleError::BadCover(_))
        ));
    }

    #[test]
    fn validate_rejects_bad_order() {
        let (w, mut sched) = manual_schedule();
        // Merge b and d into one superchain in the wrong order.
        sched.superchains[1] = Superchain {
            proc: 0,
            tasks: vec![TaskId(3), TaskId(1)],
        };
        sched.superchains.remove(3);
        sched = Schedule::from_superchains(&w.dag, 2, sched.superchains);
        assert!(matches!(
            sched.validate(&w.dag),
            Err(ScheduleError::NotTopological(_))
        ));
    }

    /// P0 runs d before b, which d depends on: each superchain is in
    /// order, but the serialization edge d → b closes a cycle.
    fn deadlocked_schedule() -> (Workflow, Schedule) {
        let (w, mut sched) = manual_schedule();
        sched.superchains.swap(1, 3);
        let sched = Schedule::from_superchains(&w.dag, 2, sched.superchains);
        (w, sched)
    }

    #[test]
    fn validate_rejects_a_deadlock() {
        let (w, sched) = deadlocked_schedule();
        assert_eq!(sched.validate(&w.dag), Err(ScheduleError::Deadlock));
    }

    #[test]
    fn artifact_holds_the_checked_schedule_and_its_w_par() {
        let (w, sched) = manual_schedule();
        let artifact = ScheduleArtifact::new(sched.clone(), &w.dag);
        assert_eq!(artifact.w_par(), 7.0);
        assert_eq!(artifact.schedule().superchains, sched.superchains);
    }

    #[test]
    #[should_panic(expected = "not scheduled exactly once")]
    fn artifact_rejects_a_bad_cover() {
        let (w, mut sched) = manual_schedule();
        sched.superchains[1].tasks.clear();
        let _ = ScheduleArtifact::new(sched, &w.dag);
    }

    #[test]
    #[should_panic(expected = "superchain 1 violates internal dependencies")]
    fn artifact_rejects_a_superchain_out_of_order() {
        let (w, mut sched) = manual_schedule();
        sched.superchains[1].tasks = vec![TaskId(3), TaskId(1)];
        sched.superchains.remove(3);
        let sched = Schedule::from_superchains(&w.dag, 2, sched.superchains);
        let _ = ScheduleArtifact::new(sched, &w.dag);
    }

    #[test]
    #[should_panic(expected = "schedule graph has a cycle")]
    fn artifact_rejects_a_deadlock() {
        let (w, sched) = deadlocked_schedule();
        let _ = ScheduleArtifact::new(sched, &w.dag);
    }

    #[test]
    fn parallel_time_diamond() {
        let (w, sched) = manual_schedule();
        // P0: a(1) → b(2) → d(1); P1: c(5) after a. Critical: a + c + d = 7.
        assert_eq!(sched.failure_free_parallel_time(&w.dag), 7.0);
    }

    #[test]
    fn serialization_lengthens_parallel_time() {
        let (w, _) = manual_schedule();
        // Everything on one processor: W_par = total weight.
        let scs = vec![Superchain {
            proc: 0,
            tasks: vec![TaskId(0), TaskId(1), TaskId(2), TaskId(3)],
        }];
        let sched = Schedule::from_superchains(&w.dag, 1, scs);
        assert_eq!(sched.failure_free_parallel_time(&w.dag), 9.0);
    }

    #[test]
    fn proc_task_order_concatenates() {
        let (_, sched) = manual_schedule();
        assert_eq!(
            sched.proc_task_order(0),
            vec![TaskId(0), TaskId(1), TaskId(3)]
        );
        assert_eq!(sched.proc_task_order(1), vec![TaskId(2)]);
    }
}

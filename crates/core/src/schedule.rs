//! Schedules: superchains mapped onto processors.

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
    /// edges, with zero I/O cost (used by Theorem 1 for CkptNone).
    pub fn failure_free_parallel_time(&self, dag: &Dag) -> f64 {
        let n = dag.n_tasks();
        // Serialization successor: the next task on the same processor.
        let mut serial_next = vec![None; n];
        for p in 0..self.n_procs {
            let order = self.proc_task_order(p);
            for w in order.windows(2) {
                serial_next[w[0].index()] = Some(w[1]);
            }
        }
        let mut indeg = vec![0usize; n];
        for t in dag.task_ids() {
            for &(v, _) in dag.succs(t) {
                indeg[v.index()] += 1;
            }
            if let Some(v) = serial_next[t.index()] {
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
            // Serialization predecessor contributes too; handled by the
            // indegree graph: find it by scanning is avoidable — track via
            // a reverse map.
            start = start.max(finish_serial_pred(&finish, t, self, dag));
            finish[t.index()] = start + dag.weight(t);
            best = best.max(finish[t.index()]);
            for &(v, _) in dag.succs(t) {
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    ready.push(v);
                }
            }
            if let Some(v) = serial_next[t.index()] {
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    ready.push(v);
                }
            }
        }
        assert_eq!(done, n, "schedule graph has a cycle");
        best
    }

    /// Validates coverage, per-superchain topological consistency, and
    /// global acyclicity of dependence + serialization edges.
    pub fn validate(&self, dag: &Dag) -> Result<(), ScheduleError> {
        let mut seen = vec![false; dag.n_tasks()];
        for sc in &self.superchains {
            for &t in &sc.tasks {
                if seen[t.index()] {
                    return Err(ScheduleError::BadCover(t));
                }
                seen[t.index()] = true;
            }
        }
        if let Some(i) = seen.iter().position(|&s| !s) {
            return Err(ScheduleError::BadCover(TaskId(i as u32)));
        }
        for (i, sc) in self.superchains.iter().enumerate() {
            if !mspg::linearize::is_topological_induced(dag, &sc.tasks) {
                return Err(ScheduleError::NotTopological(i));
            }
        }
        // Global acyclicity: reuse the longest-path routine, which panics
        // on cycles — probe cheaply instead.
        if !self.is_acyclic_with_serialization(dag) {
            return Err(ScheduleError::Deadlock);
        }
        Ok(())
    }

    fn is_acyclic_with_serialization(&self, dag: &Dag) -> bool {
        let n = dag.n_tasks();
        let mut serial_next = vec![None; n];
        for p in 0..self.n_procs {
            let order = self.proc_task_order(p);
            for w in order.windows(2) {
                serial_next[w[0].index()] = Some(w[1]);
            }
        }
        let mut indeg = vec![0usize; n];
        for t in dag.task_ids() {
            for &(v, _) in dag.succs(t) {
                indeg[v.index()] += 1;
            }
            if let Some(v) = serial_next[t.index()] {
                indeg[v.index()] += 1;
            }
        }
        let mut ready: Vec<TaskId> = dag.task_ids().filter(|t| indeg[t.index()] == 0).collect();
        let mut done = 0usize;
        while let Some(t) = ready.pop() {
            done += 1;
            for &(v, _) in dag.succs(t) {
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    ready.push(v);
                }
            }
            if let Some(v) = serial_next[t.index()] {
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    ready.push(v);
                }
            }
        }
        done == n
    }
}

/// Finish time of `t`'s serialization predecessor, if any.
fn finish_serial_pred(finish: &[f64], t: TaskId, sched: &Schedule, dag: &Dag) -> f64 {
    // The serialization predecessor is the previous task in t's
    // superchain, or the last task of the previous superchain on the same
    // processor.
    let sc_idx = sched.task_sc[t.index()] as usize;
    let sc = &sched.superchains[sc_idx];
    let pos = sc
        .tasks
        .iter()
        .position(|&x| x == t)
        .expect("task in its superchain");
    if pos > 0 {
        return finish[sc.tasks[pos - 1].index()];
    }
    let chain_pos = sched.proc_chains[sc.proc]
        .iter()
        .position(|&s| s == sc_idx)
        .expect("superchain on its processor");
    if chain_pos > 0 {
        let prev = &sched.superchains[sched.proc_chains[sc.proc][chain_pos - 1]];
        if let Some(&last) = prev.tasks.last() {
            return finish[last.index()];
        }
    }
    let _ = dag;
    0.0
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

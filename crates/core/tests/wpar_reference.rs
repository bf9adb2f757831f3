//! The linear `W_par` sweep against the scan it replaced: the same bits
//! on random schedules of every generator class and linearizer, and on
//! the generic chain and fork-join families.

use ckpt_core::{allocate, AllocateConfig, Schedule, ScheduleArtifact};
use mspg::linearize::Linearizer;
use mspg::{Dag, TaskId, Workflow};
use pegasus::WorkflowClass;
use proptest::prelude::*;

const LINEARIZERS: [Linearizer; 3] = [
    Linearizer::RandomTopo,
    Linearizer::MinVolume,
    Linearizer::Structural,
];

/// `W_par` as the scan computed it: a Kahn sweep over dependence plus
/// serialization edges that finds each task's serialization predecessor
/// with two `position` scans, quadratic in superchain length.
fn scan_w_par(sched: &Schedule, dag: &Dag) -> f64 {
    let n = dag.n_tasks();
    let mut serial_next = vec![None; n];
    for p in 0..sched.n_procs {
        let order = sched.proc_task_order(p);
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
        start = start.max(finish_serial_pred(&finish, t, sched));
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

/// Finish time of `t`'s serialization predecessor: the previous task in
/// its superchain, or the last task of the previous superchain on its
/// processor (0 if none).
fn finish_serial_pred(finish: &[f64], t: TaskId, sched: &Schedule) -> f64 {
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
    0.0
}

/// The sweep's `W_par`, through the public function and the artifact,
/// against the scan's, by bits.
fn assert_same_bits(w: &Workflow, sched: Schedule, what: &str) {
    let want = scan_w_par(&sched, &w.dag).to_bits();
    assert_eq!(
        sched.failure_free_parallel_time(&w.dag).to_bits(),
        want,
        "{what}"
    );
    assert_eq!(
        ScheduleArtifact::new(sched, &w.dag).w_par().to_bits(),
        want,
        "{what}"
    );
}

/// The most superchains any one processor runs.
fn most_chains_per_proc(sched: &Schedule) -> usize {
    sched.proc_chains.iter().map(Vec::len).max().unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sweep_matches_the_scan_on_random_schedules(
        class in 0usize..4,
        size in 30usize..400,
        procs in 1usize..24,
        lin in 0usize..3,
        seed: u64,
    ) {
        let w = pegasus::generate(WorkflowClass::ALL_EXTENDED[class], size, seed);
        let cfg = AllocateConfig { linearizer: LINEARIZERS[lin], seed };
        let sched = allocate(&w, procs, &cfg);
        let want = scan_w_par(&sched, &w.dag).to_bits();
        prop_assert_eq!(sched.failure_free_parallel_time(&w.dag).to_bits(), want);
        prop_assert_eq!(ScheduleArtifact::new(sched, &w.dag).w_par().to_bits(), want);
    }
}

/// Every class at two of the paper's sizes on its processor counts, with
/// every linearizer: schedules that put several superchains on one
/// processor, where the serialization predecessor of a superchain's
/// first task is the last task of the one before.
#[test]
fn sweep_matches_the_scan_on_paper_schedules() {
    let mut stacked = 0;
    for class in WorkflowClass::ALL_EXTENDED {
        for size in [50, 300] {
            let w = pegasus::generate(class, size, 7);
            for &procs in ckpt_core::Platform::paper_proc_counts(size) {
                for linearizer in LINEARIZERS {
                    let sched = allocate(
                        &w,
                        procs,
                        &AllocateConfig {
                            linearizer,
                            seed: 7,
                        },
                    );
                    if most_chains_per_proc(&sched) > 1 {
                        stacked += 1;
                    }
                    let what = format!("{class}-{size} on {procs} ({linearizer:?})");
                    assert_same_bits(&w, sched, &what);
                }
            }
        }
    }
    // 4 classes × 2 sizes × 4 processor counts × 3 linearizers.
    assert!(
        stacked > 48,
        "only {stacked} of 96 schedules stack superchains"
    );
}

/// The generic families at sizes the scan still finishes quickly.
#[test]
fn sweep_matches_the_scan_on_chains_and_fork_joins() {
    let cfg = AllocateConfig {
        linearizer: Linearizer::Structural,
        seed: 42,
    };
    for procs in [1, 4, 8] {
        let w = pegasus::generic::chain(5000, 1);
        assert_same_bits(&w, allocate(&w, procs, &cfg), &format!("chain on {procs}"));
        let w = pegasus::generic::fork_join(9, 1000, 42);
        let sched = allocate(&w, procs, &cfg);
        assert!(procs == 1 || most_chains_per_proc(&sched) > 1);
        assert_same_bits(&w, sched, &format!("fork-join on {procs}"));
    }
}

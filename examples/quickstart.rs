//! Quickstart: the paper's running example (Figures 2 and 3).
//!
//! Builds the 13-task M-SPG of Figure 2 by hand, schedules it on two
//! processors with `Allocate` (reproducing the two superchains of
//! Figure 3), places checkpoints with the DP, and compares the expected
//! makespan of the three strategies.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ckpt_workflows::prelude::*;

fn main() {
    // ----- Figure 2: T1 ⊳ ((T2‖T3‖T4) ⊳ (T5..T9 levels)…) -------------
    // The paper's graph: T1 fans out to {T2,T3,T4}; T2 → {T5,T6};
    // T3 → {T7,T8}; T4 → T9; {T5,T6} → T10; {T7,T8,T9} → {T11,T12};
    // {T10,T11,T12} → T13. As an M-SPG:
    // T1 ⊳ ( (T2 ⊳ (T5‖T6) ⊳ T10) ‖ ((T3 ⊳ (T7‖T8)) ‖ T4 … ) ) ⊳ T13.
    let mut dag = Dag::new();
    let kind = dag.add_kind("task");
    let t: Vec<TaskId> = (1..=13)
        .map(|i| dag.add_task_with_output(&format!("T{i}"), kind, 10.0 + i as f64, 4e7))
        .collect();
    let task = |i: usize| Mspg::Task(t[i - 1]); // paper is 1-indexed
    let left = Mspg::series([
        task(2),
        Mspg::parallel([task(5), task(6)]).unwrap(),
        task(10),
    ])
    .unwrap();
    let right = Mspg::series([
        Mspg::parallel([
            Mspg::series([task(3), Mspg::parallel([task(7), task(8)]).unwrap()]).unwrap(),
            Mspg::series([task(4), task(9)]).unwrap(),
        ])
        .unwrap(),
        Mspg::parallel([task(11), task(12)]).unwrap(),
    ])
    .unwrap();
    let root = Mspg::series([task(1), Mspg::parallel([left, right]).unwrap(), task(13)]).unwrap();
    let workflow = Workflow::new(dag, root);
    workflow.validate().expect("valid M-SPG workflow");
    println!(
        "Figure 2 workflow: {} tasks, {} dependence edges, critical path {:.0}s",
        workflow.n_tasks(),
        workflow.dag.n_edges(),
        workflow.dag.critical_path()
    );

    // ----- Figure 3: schedule on two processors ------------------------
    let lambda = lambda_from_pfail(0.01, workflow.dag.mean_weight());
    let platform = Platform::new(2, lambda, 1e8);
    let pipe = Pipeline::new(&workflow, platform, &AllocateConfig::default());
    println!(
        "\nSchedule ({} superchains):",
        pipe.schedule.superchains.len()
    );
    for (i, sc) in pipe.schedule.superchains.iter().enumerate() {
        let names: Vec<&str> = sc
            .tasks
            .iter()
            .map(|&x| workflow.dag.task(x).name.as_str())
            .collect();
        println!("  superchain {i} on P{}: {}", sc.proc, names.join(" → "));
    }

    // ----- Checkpoint placement (Algorithm 2) --------------------------
    let plan = pipe.plan(&DpOptimalPolicy);
    let ckpts: Vec<&str> = workflow
        .dag
        .task_ids()
        .filter(|&x| plan.ckpt_after[x.index()])
        .map(|x| workflow.dag.task(x).name.as_str())
        .collect();
    println!("\nCkptSome checkpoints after: {}", ckpts.join(", "));

    // ----- Expected makespans ------------------------------------------
    let evaluator = PathApprox::default();
    println!(
        "\n{:10} {:>18} {:>13} {:>10}",
        "strategy", "expected makespan", "checkpoints", "segments"
    );
    for a in [
        pipe.assess(&CkptAllPolicy, &evaluator),
        pipe.assess(&DpOptimalPolicy, &evaluator),
        pipe.assess_none(),
    ] {
        println!(
            "{:10} {:>17.1}s {:>13} {:>10}",
            a.policy, a.expected_makespan, a.n_checkpoints, a.n_segments
        );
    }
}

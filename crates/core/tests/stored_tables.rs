//! The DP on stored segment tables places what the DP from scratch
//! places. The service keeps each schedule's λ-free segment-cost tables
//! (`segment_costs_stage`) and re-runs only the minimization per model
//! (`dp_placement_stage`); the one-shot path fills and minimizes in one
//! call (`placement_stage` with `DpOptimalPolicy`). On Pegasus
//! instances of every class, under the four model families the service
//! answers, at several pfails and for thread budgets 1 and 3, both give
//! the same plan and the same bits for every chain's expected time.

use ckpt_core::policy::{DpOptimalPolicy, PolicyScratch};
use ckpt_core::stage::{
    curve_stage, dp_placement_stage, placement_stage, schedule_stage, segment_costs_stage,
};
use ckpt_core::{
    minimize_segment_table, optimal_checkpoints_reusing, AllocateConfig, CostCtx, DpScratch,
    FailureModel, Platform, KERNEL_MIN_LEN,
};
use mspg::linearize::Linearizer;
use pegasus::WorkflowClass;
use proptest::prelude::*;

/// The model families of the invalidation matrix, at one pfail.
fn models(pfail: f64, mean_weight: f64) -> [FailureModel; 4] {
    [
        FailureModel::exponential_from_pfail(pfail, mean_weight),
        FailureModel::weibull_from_pfail(0.7, pfail, mean_weight),
        FailureModel::weibull_from_pfail(2.0, pfail, mean_weight),
        FailureModel::lognormal_from_pfail(1.0, pfail, mean_weight),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn stored_tables_place_what_the_dp_places(
        class in 0usize..4, size in 30usize..160, procs in 1usize..24, seed: u64,
        bw in 1e6f64..1e9,
    ) {
        let w = pegasus::generate(WorkflowClass::ALL_EXTENDED[class], size, seed);
        let alloc = AllocateConfig { linearizer: Linearizer::RandomTopo, seed };
        let schedule = schedule_stage(&w, procs, &alloc).unwrap();
        let tables = segment_costs_stage(&w.dag, bw, &schedule).unwrap();
        for (k, sc) in schedule.superchains.iter().enumerate() {
            let n = sc.tasks.len();
            prop_assert_eq!(tables.table(k).is_some(), n > 0 && n < KERNEL_MIN_LEN);
        }
        let (mut stored, mut fresh) = (DpScratch::new(), DpScratch::new());
        let mut compared = 0;
        for pfail in [1e-4, 1e-3, 1e-2] {
            for model in models(pfail, w.dag.mean_weight()) {
                let platform = Platform::with_model(procs, model, bw);
                let curve = curve_stage(&w.dag, &platform).unwrap();
                let ctx = CostCtx::with_curve(&w.dag, model, bw, curve.as_ref());
                for threads in [1, 3] {
                    let scratch = &mut PolicyScratch::new();
                    let want = placement_stage(&ctx, &schedule, &DpOptimalPolicy, scratch, threads);
                    let scratch = &mut PolicyScratch::new();
                    let got = dp_placement_stage(&ctx, &schedule, &tables, scratch, threads);
                    prop_assert_eq!(want.unwrap(), got.unwrap(), "{:?} threads {}", model, threads);
                }
                for (k, sc) in schedule.superchains.iter().enumerate() {
                    let Some(table) = tables.table(k) else { continue };
                    let t = minimize_segment_table(&ctx, table, sc.tasks.len(), &mut stored);
                    let want = optimal_checkpoints_reusing(&ctx, &sc.tasks, &mut fresh);
                    prop_assert_eq!(t.to_bits(), want.to_bits(), "{:?} chain {}", model, k);
                    prop_assert_eq!(stored.ckpt_after(), fresh.ckpt_after());
                    compared += 1;
                }
            }
        }
        prop_assert!(compared > 0, "no chain stores a table");
    }
}

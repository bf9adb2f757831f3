//! The engine's core guarantee (ISSUE 2 acceptance bar, extended by
//! ISSUE 6): for a fixed scenario and base seed, the emitted CSV is
//! **byte-identical for every `threads` and `mc_threads` value** —
//! cells may execute in any order on any worker, seeds derive from
//! grid coordinates, rows are re-sequenced into canonical order before
//! they reach the sink, and every nested Monte Carlo estimate is a
//! pure function of `(seed, runs)` regardless of its thread budget.

use ckpt_bench::engine::{self, EngineConfig, NullSink, Scenario, StringSink};
use ckpt_bench::scenarios::{
    DistributionsScenario, DriftScenario, FigureScenario, LinearizationScenario,
    StrategiesScenario, ValidateScenario,
};
use ckpt_service::{ModelSpec, PolicySpec};
use pegasus::WorkflowClass;

fn csv<S: Scenario>(scenario: &S, threads: usize) -> String {
    let mut sink = StringSink::new();
    engine::run(scenario, &EngineConfig::with_threads(threads), &mut sink).unwrap();
    sink.csv
}

fn mini_figures() -> FigureScenario {
    FigureScenario {
        class: WorkflowClass::Montage,
        sizes: vec![50],
        ccr_points: 3,
        instances: 2,
        base_seed: 42,
    }
}

#[test]
fn parallel_figure_grid_is_byte_identical_to_serial() {
    let scenario = mini_figures();
    let serial = csv(&scenario, 1);
    // 1 size × 4 procs × 3 pfails × 3 CCRs = 36 cells, plus the header.
    assert_eq!(serial.lines().count(), 37);
    for threads in [2, 4, 8] {
        assert_eq!(serial, csv(&scenario, threads), "threads={threads}");
    }
    // And stable across repeated runs of the same configuration.
    assert_eq!(serial, csv(&scenario, 1));
}

#[test]
fn parallel_validation_with_nested_mc_is_byte_identical_to_serial() {
    // The validation scenario nests Monte Carlo simulation inside each
    // cell; each replication draws from its own derived stream and the
    // results reduce in canonical run-index order, so the simulated
    // estimates are identical across cell-worker counts — including
    // budgets larger than the 9-cell grid.
    let scenario = ValidateScenario {
        runs: 60,
        sizes: vec![50],
        base_seed: 7,
    };
    let serial = csv(&scenario, 1);
    for threads in [2, 4, 16] {
        assert_eq!(serial, csv(&scenario, threads), "threads={threads}");
    }
}

#[test]
fn parallel_distributions_grid_is_byte_identical_to_serial() {
    // The E9 failure-distribution scenario nests both segment and
    // CkptNone Monte Carlo inside each cell and repeats the base grid
    // once per model block; its CSV must hold the engine's byte-identity
    // guarantee for any thread count, including budgets beyond the cell
    // count.
    let pfail = f64::NAN; // placeholder: each cell re-calibrates
    let scenario = DistributionsScenario {
        models: vec![
            ModelSpec::Exponential { pfail },
            ModelSpec::Weibull { shape: 0.7, pfail },
        ],
        sizes: vec![50],
        pfails: vec![0.001],
        runs: 30,
        base_seed: 11,
    };
    let serial = csv(&scenario, 1);
    // 2 models × 3 classes × 1 size × 1 pfail cells, 4 strategies each,
    // plus the header.
    assert_eq!(serial.lines().count(), 2 * 3 * 4 + 1);
    for threads in [2, 8] {
        assert_eq!(serial, csv(&scenario, threads), "threads={threads}");
    }
}

#[test]
fn parallel_strategies_grid_is_byte_identical_to_serial() {
    // The E10 checkpoint-policy scenario repeats the base grid once per
    // (policy, model) block and nests a segment simulation in every
    // cell; its CSV must hold the engine's byte-identity guarantee for
    // any thread count, including budgets beyond the cell count.
    let pfail = f64::NAN; // placeholder: each cell re-calibrates
    let scenario = StrategiesScenario {
        policies: vec![
            PolicySpec::DpOptimal,
            PolicySpec::Daly { period: None },
            PolicySpec::Risk { max_risk: 0.1 },
            PolicySpec::Crossover,
        ],
        models: vec![
            ModelSpec::Exponential { pfail },
            ModelSpec::Weibull { shape: 2.0, pfail },
        ],
        classes: vec![WorkflowClass::Genome, WorkflowClass::Montage],
        sizes: vec![50],
        pfails: vec![0.01],
        runs: 30,
        base_seed: 21,
    };
    let serial = csv(&scenario, 1);
    // 4 policies × 2 models × 2 classes × 1 size × 1 pfail cells, one
    // row each, plus the header.
    assert_eq!(serial.lines().count(), 4 * 2 * 2 + 1);
    for threads in [2, 8, 32] {
        assert_eq!(serial, csv(&scenario, threads), "threads={threads}");
    }
}

#[test]
fn csv_is_byte_identical_across_mc_thread_budgets() {
    // ISSUE 6 acceptance bar: `mc_threads` is a pure speed knob. The
    // nested Monte Carlo partitions its replications differently under
    // each budget, but per-replication streams and canonical-order
    // reduction make every estimate — and therefore the CSV — a pure
    // function of `(seed, runs)`.
    let scenario = ValidateScenario {
        runs: 60,
        sizes: vec![50],
        base_seed: 7,
    };
    let csv_at = |mc_threads: usize| {
        let mut sink = StringSink::new();
        let cfg = EngineConfig {
            threads: 2,
            mc_threads,
            plan_threads: 1,
        };
        engine::run(&scenario, &cfg, &mut sink).unwrap();
        sink.csv
    };
    let baseline = csv_at(1);
    for mc_threads in [4, 0] {
        assert_eq!(baseline, csv_at(mc_threads), "mc_threads={mc_threads}");
    }
}

#[test]
fn csv_is_byte_identical_across_plan_thread_budgets() {
    // ISSUE 7 acceptance bar: `plan_threads` is a pure speed knob.
    // Parallel per-superchain placement claims superchains from an
    // atomic counter, but each placement is a pure function of its own
    // superchain and results land in canonical slots, so the plan — and
    // therefore the CSV — is bit-identical for every budget. The figure
    // scenario exercises all three strategies (CkptSome runs the DP per
    // superchain) on multi-superchain Montage schedules.
    let scenario = mini_figures();
    let csv_at = |plan_threads: usize| {
        let mut sink = StringSink::new();
        let cfg = EngineConfig {
            threads: 2,
            mc_threads: 0,
            plan_threads,
        };
        engine::run(&scenario, &cfg, &mut sink).unwrap();
        sink.csv
    };
    let baseline = csv_at(1);
    for plan_threads in [4, 0] {
        assert_eq!(
            baseline,
            csv_at(plan_threads),
            "plan_threads={plan_threads}"
        );
    }
}

#[test]
fn parallel_drift_sweep_is_byte_identical_to_serial() {
    // The E12 scenario is stateful *within* a cell (each cell's session
    // commits a drift ladder step by step) but cells are independent:
    // every cell owns a fresh session and store, so the engine's
    // byte-identity guarantee must hold for any worker count. The cold
    // self-check stays on — this doubles as the invalidation soundness
    // harness under parallel execution.
    let scenario = DriftScenario {
        classes: vec![pegasus::WorkflowClass::Genome, WorkflowClass::Montage],
        sizes: vec![50],
        pfail: 1e-3,
        self_check: true,
        base_seed: 29,
    };
    let serial = csv(&scenario, 1);
    // 2 classes × 1 size cells, 9 ladder steps each, plus the header.
    assert_eq!(serial.lines().count(), 2 * 9 + 1);
    for threads in [2, 8] {
        assert_eq!(serial, csv(&scenario, threads), "threads={threads}");
    }
}

#[test]
fn rows_follow_canonical_cell_order() {
    let scenario = mini_figures();
    let cells = scenario.cells();
    let report = engine::run(&scenario, &EngineConfig::with_threads(4), &mut NullSink).unwrap();
    assert_eq!(report.rows.len(), cells.len());
    for (cell, row) in cells.iter().zip(&report.rows) {
        assert_eq!(cell.size, row.size);
        assert_eq!(cell.procs, row.procs);
        assert_eq!(cell.pfail.to_bits(), row.pfail.to_bits());
        assert_eq!(cell.ccr.to_bits(), row.ccr.to_bits());
    }
}

fn store_counts<S: Scenario>(scenario: &S) -> engine::CacheStats {
    let cfg = EngineConfig::with_threads(2);
    engine::run(scenario, &cfg, &mut NullSink).unwrap().cache
}

#[test]
fn store_generates_once_per_lane_and_schedules_once_per_procs_and_linearizer() {
    // Figures: 36 cells × 2 instances on 2 lanes (1 size × 2 instances)
    // and 4 proc counts. Each cell looks each instance up twice (the
    // rescaled clone, then the schedule key).
    let c = store_counts(&mini_figures());
    assert_eq!((c.workflow_misses, c.workflow_hits), (2, 36 * 2 * 2 - 2));
    assert_eq!(
        (c.schedule_misses, c.schedule_hits),
        (4 * 2, 36 * 2 - 4 * 2)
    );
    assert_eq!(c.evictions, 0);
    // E6: 8 cells (2 classes × 2 pfails × 2 CCRs), one lane per class,
    // three linearizers per cell. The MinVolume key reads the unscaled
    // instance's file sizes, so it is shared across CCRs too.
    let c = store_counts(&LinearizationScenario {
        ccr_points: 2,
        base_seed: 5,
    });
    assert_eq!((c.workflow_misses, c.workflow_hits), (2, 8 * 4 - 2));
    assert_eq!((c.schedule_misses, c.schedule_hits), (2 * 3, 8 * 3 - 2 * 3));
}

#[test]
fn figure_grid_wrapper_matches_explicit_engine_run() {
    let rows = ckpt_bench::figure_grid(WorkflowClass::Ligo, 2, 1, 11);
    let scenario = FigureScenario::paper(WorkflowClass::Ligo, 2, 1, 11);
    let report = engine::run(&scenario, &EngineConfig::with_threads(1), &mut NullSink).unwrap();
    assert_eq!(rows.len(), report.rows.len());
    for (a, b) in rows.iter().zip(&report.rows) {
        assert_eq!(ckpt_bench::figure_csv(a), ckpt_bench::figure_csv(b));
    }
}

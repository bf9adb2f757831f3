//! Observability no-perturbation suite for the scenario engine (ISSUE
//! 10 acceptance bar): running a grid with the span recorder **armed**
//! must emit the exact same CSV bytes as running it untraced, while
//! producing a complete, schema-valid span tree — one grid root, one
//! `cell` span per cell attached under it, store resolutions and stage
//! spans nested inside the cells. Gated on `observe` (a default
//! feature; a `--no-default-features` build compiles the layer out
//! entirely).

#![cfg(feature = "observe")]

use std::sync::Mutex;

use ckpt_bench::engine::{self, EngineConfig, Scenario, StringSink};
use ckpt_bench::scenarios::{DriftScenario, FigureScenario};
use ckpt_core::StageId;
use obs::span::SpanRecord;
use pegasus::WorkflowClass;

/// The span recorder is process-global; trace tests must not overlap.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn csv<S: Scenario>(scenario: &S, threads: usize) -> String {
    let mut sink = StringSink::new();
    engine::run(scenario, &EngineConfig::with_threads(threads), &mut sink).unwrap();
    sink.csv
}

fn traced_csv<S: Scenario>(scenario: &S, threads: usize) -> (String, Vec<SpanRecord>) {
    obs::span::arm();
    let out = csv(scenario, threads);
    obs::span::disarm();
    (out, obs::span::drain())
}

fn mini_figures() -> FigureScenario {
    FigureScenario {
        class: WorkflowClass::Montage,
        sizes: vec![50],
        ccr_points: 3,
        instances: 1,
        base_seed: 42,
    }
}

#[test]
fn traced_figure_grid_is_byte_identical_and_fully_spanned() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scenario = mini_figures();
    let n_cells = scenario.cells().len();
    let quiet = csv(&scenario, 2);
    let (traced, spans) = traced_csv(&scenario, 2);
    assert_eq!(quiet, traced, "tracing changed the CSV bytes");

    let grid: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(1, grid.len(), "exactly one grid root span");
    assert_eq!(scenario.name(), grid[0].name);
    let cells: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "cell").collect();
    assert_eq!(n_cells, cells.len(), "one `cell` span per grid cell");
    let mut ords: Vec<u64> = cells
        .iter()
        .map(|c| {
            assert_eq!(Some(grid[0].id), c.parent, "cells attach under the grid");
            c.ord.expect("cell spans carry the cell index")
        })
        .collect();
    ords.sort_unstable();
    assert_eq!((0..n_cells as u64).collect::<Vec<_>>(), ords);
    // The lane's workflow and schedule lookups are store resolutions
    // under the cells (a session's `resolve.*` spans), the stage work
    // is `stage.*` spans, and every line is wire-valid.
    let cell_ids: Vec<u64> = cells.iter().map(|c| c.id).collect();
    let in_cells = |s: &&SpanRecord| s.parent.is_some_and(|p| cell_ids.contains(&p));
    let names: Vec<&str> = spans.iter().filter(in_cells).map(|s| s.name).collect();
    for name in ["resolve.generate", "resolve.schedule", "stage.placement"] {
        assert!(names.contains(&name), "no `{name}` span under a cell");
    }
    assert!(spans.iter().all(|s| !s.name.starts_with("engine.")));
    for span in &spans {
        let line = obs::jsonl::to_line(span);
        obs::jsonl::validate_line(&line)
            .unwrap_or_else(|e| panic!("span {} failed schema: {e}\n{line}", span.id));
    }
}

#[test]
fn traced_drift_sweep_is_byte_identical_with_service_spans() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The drift scenario runs full `ckpt_service` sessions inside each
    // cell — this is the cross-layer path (engine spans + service
    // resolve/stage spans in one trace). Self-check off: the traced and
    // untraced runs must already be byte-identical on their own.
    let scenario = DriftScenario {
        self_check: false,
        ..DriftScenario::standard(vec![50], 42)
    };
    let quiet = csv(&scenario, 2);
    let (traced, spans) = traced_csv(&scenario, 2);
    assert_eq!(quiet, traced, "tracing changed the drift CSV bytes");
    for name in ["cell", "query", "resolve.curve", "stage.curve"] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "no `{name}` span in the drift trace"
        );
    }
}

#[test]
fn repeated_traced_runs_produce_the_same_canonical_tree() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scenario = mini_figures();
    let (_, first) = traced_csv(&scenario, 1);
    let (_, second) = traced_csv(&scenario, 4);
    assert_eq!(
        obs::jsonl::canonicalize(&first),
        obs::jsonl::canonicalize(&second),
        "canonical engine trace diverged across thread budgets"
    );
}

#[test]
fn grid_runs_move_the_stage_wall_histogram_for_each_stage_they_ran() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let hist = |s: StageId| {
        obs::metrics::labeled_histogram_seconds("ckpt_stage_wall_seconds", "stage", s.name())
    };
    // The figure grid runs every stage but the stored segment costs
    // (its placements fill their own tables) and Monte Carlo.
    let ran: Vec<StageId> = StageId::ALL
        .into_iter()
        .filter(|s| !matches!(s, StageId::SegmentCosts | StageId::EvalMc))
        .collect();
    let before: Vec<u64> = ran.iter().map(|&s| hist(s).count()).collect();
    csv(&mini_figures(), 2);
    for (&s, before) in ran.iter().zip(before) {
        assert!(hist(s).count() > before, "{s} left no wall sample");
    }
    let text = obs::metrics::exposition();
    assert!(text.contains("ckpt_stage_wall_seconds_count{stage=\"segment_graph\"}"));
}

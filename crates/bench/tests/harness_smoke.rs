//! Smoke tests for the experiment harness: tiny grids must run, emit
//! well-formed CSV, and cover the extension class.

use ckpt_bench::engine::sink::{CsvFileSink, RowSink};
use ckpt_bench::engine::{
    self, CcrAxis, Cell, CellCtx, EngineConfig, Grid, NullSink, ProcAxis, Scenario,
};
use ckpt_bench::scenarios::FigureScenario;
use ckpt_bench::{figure_csv, FigureRow, FIGURE_HEADER};
use pegasus::WorkflowClass;

/// [`FigureScenario`] on the cells of an explicit grid.
struct OnGrid(FigureScenario, Grid);

impl Scenario for OnGrid {
    type Row = FigureRow;

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn cells(&self) -> Vec<Cell> {
        self.1.cells()
    }

    fn run_cell(&self, cell: &Cell, ctx: &CellCtx<'_>) -> Vec<FigureRow> {
        self.0.run_cell(cell, ctx)
    }

    fn header(&self) -> String {
        self.0.header()
    }

    fn csv(&self, row: &FigureRow) -> String {
        self.0.csv(row)
    }
}

/// The row `FigureScenario` computes for one cell of a grid on
/// `base_seed`, averaged over `instances`.
fn figure_cell(
    class: WorkflowClass,
    size: usize,
    procs: usize,
    pfail: f64,
    ccr: f64,
    instances: usize,
    base_seed: u64,
) -> FigureRow {
    let grid = Grid {
        classes: vec![class],
        sizes: vec![size],
        procs: ProcAxis::Explicit(vec![procs]),
        pfails: vec![pfail],
        ccrs: CcrAxis::Explicit(vec![ccr]),
        instances,
        base_seed,
    };
    let scenario = OnGrid(FigureScenario::paper(class, 2, instances, base_seed), grid);
    let report = engine::run(&scenario, &EngineConfig::with_threads(1), &mut NullSink);
    report.unwrap().rows.remove(0)
}

#[test]
fn tiny_grid_covers_all_dimensions() {
    let scenario = FigureScenario::paper(WorkflowClass::Ligo, 2, 1, 7);
    let rows = engine::run(&scenario, &EngineConfig::default(), &mut NullSink)
        .unwrap()
        .rows;
    // 3 sizes × 4 proc counts × 3 pfails × 2 CCR points.
    assert_eq!(rows.len(), 3 * 4 * 3 * 2);
    // Every row has positive makespans and consistent ratios.
    for r in &rows {
        assert!(r.em_some > 0.0 && r.em_all > 0.0 && r.em_none > 0.0);
        assert!((r.rel_all - r.em_all / r.em_some).abs() < 1e-9);
        assert!((r.rel_none - r.em_none / r.em_some).abs() < 1e-9);
    }
}

#[test]
fn cybershake_extension_runs_through_harness() {
    let r = figure_cell(WorkflowClass::Cybershake, 50, 5, 0.001, 0.1, 1, 3);
    assert!(r.em_some > 0.0);
    assert!(r.rel_all >= 0.97);
    assert_eq!(r.class, WorkflowClass::Cybershake);
}

#[test]
fn csv_writer_roundtrip() {
    let dir = std::env::temp_dir().join("ckpt_bench_smoke");
    let path = dir.join("probe.csv");
    let r = figure_cell(WorkflowClass::Genome, 50, 3, 0.001, 1e-3, 1, 1);
    let mut sink = CsvFileSink::new(&path);
    sink.begin(FIGURE_HEADER).unwrap();
    sink.row(&figure_csv(&r)).unwrap();
    sink.finish().unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some(FIGURE_HEADER));
    let data = lines.next().unwrap();
    assert_eq!(data.split(',').count(), FIGURE_HEADER.split(',').count());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn instances_average_smooths_determinism() {
    let a = figure_cell(WorkflowClass::Montage, 50, 5, 0.001, 0.1, 2, 11);
    let b = figure_cell(WorkflowClass::Montage, 50, 5, 0.001, 0.1, 2, 11);
    assert_eq!(a.em_some, b.em_some, "averaged cells are deterministic");
}

//! The figure cells the `figures` binary computes, one at a time:
//! [`FigureScenario::run_cell`] on an explicit one-cell grid, through
//! the engine.

use ckpt_bench::engine::{
    self, CcrAxis, Cell, CellCtx, EngineConfig, Grid, NullSink, ProcAxis, Scenario,
};
use ckpt_bench::scenarios::FigureScenario;
use ckpt_bench::FigureRow;
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

/// The figure cell `(class, size, procs, pfail, ccr)` averaged over
/// `instances`, in a grid on `base_seed`: the row every figure grid on
/// that seed holds for it (a cell's seed depends only on its class,
/// size and the base seed).
pub fn figure_cell(
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
    report.expect("in-memory engine run").rows.remove(0)
}

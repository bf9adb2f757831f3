//! Declarative grid specification: which cells an experiment visits, in
//! which canonical order, and with which derived seeds.

use ckpt_core::Platform;
use pegasus::ccr::ccr_grid;
use pegasus::WorkflowClass;

/// Processor-count axis of a [`Grid`].
#[derive(Clone, Debug)]
pub enum ProcAxis {
    /// All of the paper's per-size processor counts (the figure curves).
    Paper,
    /// One of the paper's per-size counts, by index (the accuracy and
    /// validation tables use index 1).
    PaperIndex(usize),
    /// Explicit counts, identical for every size.
    Explicit(Vec<usize>),
}

impl ProcAxis {
    fn resolve(&self, size: usize) -> Vec<usize> {
        match self {
            ProcAxis::Paper => Platform::paper_proc_counts(size).to_vec(),
            ProcAxis::PaperIndex(i) => vec![Platform::paper_proc_counts(size)[*i]],
            ProcAxis::Explicit(v) => v.clone(),
        }
    }
}

/// CCR axis of a [`Grid`].
#[derive(Clone, Debug)]
pub enum CcrAxis {
    /// The class's figure range, log-spaced (`points ≥ 2`).
    ClassLog { points: usize },
    /// The geometric midpoint of the class's figure range (one point).
    ClassMid,
    /// Explicit CCR values.
    Explicit(Vec<f64>),
}

impl CcrAxis {
    fn resolve(&self, class: WorkflowClass) -> Vec<f64> {
        match self {
            CcrAxis::ClassLog { points } => {
                let (lo, hi) = class.ccr_range();
                ccr_grid(lo, hi, *points)
            }
            CcrAxis::ClassMid => {
                let (lo, hi) = class.ccr_range();
                vec![(lo * hi).sqrt()]
            }
            CcrAxis::Explicit(v) => v.clone(),
        }
    }
}

/// A declarative experiment grid: the Cartesian product of its axes,
/// enumerated in canonical order `class → size → procs → pfail → CCR`.
/// A cell covers every placement its scenario compares.
///
/// Every `(class, size)` lane derives its own seed stream from
/// `base_seed` via [`seedmix::derive`], so instance workflows are shared
/// by all cells of a lane (the engine's workflow cache keys on it) while
/// distinct lanes stay statistically independent.
#[derive(Clone, Debug)]
pub struct Grid {
    /// Workflow classes, outermost axis.
    pub classes: Vec<WorkflowClass>,
    /// Requested task counts.
    pub sizes: Vec<usize>,
    /// Processor counts per size.
    pub procs: ProcAxis,
    /// Per-task failure probabilities.
    pub pfails: Vec<f64>,
    /// Communication-to-computation ratios per class.
    pub ccrs: CcrAxis,
    /// Workflow instances averaged (or enumerated) per cell.
    pub instances: usize,
    /// The single user-facing seed everything derives from.
    pub base_seed: u64,
}

/// One point of an experiment grid, with its derived seed and canonical
/// position.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Canonical position; the engine emits rows in this order.
    pub index: usize,
    /// Workflow class.
    pub class: WorkflowClass,
    /// Requested task count.
    pub size: usize,
    /// Processor count.
    pub procs: usize,
    /// Per-task failure probability.
    pub pfail: f64,
    /// Communication-to-computation ratio.
    pub ccr: f64,
    /// Workflow instances this cell aggregates.
    pub instances: usize,
    /// Seed of the `(class, size)` lane; instance `i` lives on
    /// `seedmix::stream_seed(seed, i)`.
    pub seed: u64,
}

impl Grid {
    /// One instance per cell on the paper's second processor count for
    /// each size, at the class's middle CCR: the grid E4, E5, E9, E10
    /// and E12 sweep over classes, sizes and pfails.
    pub fn midpoint(
        classes: Vec<WorkflowClass>,
        sizes: Vec<usize>,
        pfails: Vec<f64>,
        base_seed: u64,
    ) -> Self {
        Grid {
            classes,
            sizes,
            procs: ProcAxis::PaperIndex(1),
            pfails,
            ccrs: CcrAxis::ClassMid,
            instances: 1,
            base_seed,
        }
    }

    /// Enumerates the grid's cells in canonical order.
    pub fn cells(&self) -> Vec<Cell> {
        assert!(self.instances >= 1, "grids need at least one instance");
        let mut cells = Vec::new();
        for &class in &self.classes {
            let ccrs = self.ccrs.resolve(class);
            for &size in &self.sizes {
                let seed = seedmix::derive(self.base_seed, &[class as u64, size as u64]);
                for procs in self.procs.resolve(size) {
                    for &pfail in &self.pfails {
                        for &ccr in &ccrs {
                            cells.push(Cell {
                                index: cells.len(),
                                class,
                                size,
                                procs,
                                pfail,
                                ccr,
                                instances: self.instances,
                                seed,
                            });
                        }
                    }
                }
            }
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Grid {
        Grid {
            classes: vec![WorkflowClass::Genome, WorkflowClass::Ligo],
            sizes: vec![50, 300],
            procs: ProcAxis::Paper,
            pfails: vec![0.01, 0.001],
            ccrs: CcrAxis::ClassLog { points: 3 },
            instances: 2,
            base_seed: 42,
        }
    }

    #[test]
    fn cell_count_is_cartesian() {
        // 2 classes × 2 sizes × 4 procs × 2 pfails × 3 CCRs.
        assert_eq!(tiny().cells().len(), 2 * 2 * 4 * 2 * 3);
    }

    #[test]
    fn indices_are_canonical_positions() {
        for (i, c) in tiny().cells().iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn lanes_share_seeds_and_differ_across_lanes() {
        let cells = tiny().cells();
        let seed_of = |class, size| {
            cells
                .iter()
                .find(|c| c.class == class && c.size == size)
                .unwrap()
                .seed
        };
        // All cells of one (class, size) lane share the seed…
        for c in &cells {
            assert_eq!(c.seed, seed_of(c.class, c.size));
        }
        // …and the four lanes are pairwise distinct.
        let mut lanes: Vec<u64> = cells.iter().map(|c| c.seed).collect();
        lanes.sort_unstable();
        lanes.dedup();
        assert_eq!(lanes.len(), 4);
    }

    #[test]
    fn class_mid_is_geometric_midpoint() {
        let mut g = tiny();
        g.ccrs = CcrAxis::ClassMid;
        let c = &g.cells()[0];
        let (lo, hi) = c.class.ccr_range();
        assert!((c.ccr - (lo * hi).sqrt()).abs() < 1e-12);
    }
}

//! Reproduction gates: the qualitative shapes of Figures 5–7 (§VI-C) must
//! hold on a reduced grid. These are the claims the paper's conclusion
//! rests on; a regression here means the reproduction is broken even if
//! every unit test passes. Each cell is computed by the code that writes
//! the figures (`FigureScenario`), on base seed 42.

mod common;

use ckpt_bench::PFAILS;
use common::figure_cell;
use pegasus::ccr::ccr_grid;
use pegasus::WorkflowClass;

/// "A clear observation is that CkptSome always outperforms CkptAll":
/// rel_all ≥ 1 (up to 1% evaluator noise) across the grid — **except**
/// Ligo with 300 tasks, where the paper's own footnote 3 reports "a
/// couple of CCR values" violating the claim. Our mainline Ligo-300
/// reproduces that corner: PathApprox puts the worst cell at rel_all
/// 0.9809 (CCR = 1e-2, pfail = 0.001); on another instance Monte Carlo
/// confirmed such a loss is real (≈ 7% at CCR = 0.1, pfail = 0.01). The
/// worst Genome and Montage cells read 1.0002 and 1.0016. The mechanism:
/// the DP optimizes per-superchain sequential time, and merging segments
/// delays cross-processor data availability on Ligo's tightly coupled
/// stages.
#[test]
fn ckptsome_always_outperforms_ckptall() {
    for class in WorkflowClass::ALL {
        let floor = if class == WorkflowClass::Ligo {
            0.96
        } else {
            0.99
        };
        let (lo, hi) = class.ccr_range();
        for &ccr in &ccr_grid(lo, hi, 4) {
            for &pfail in &PFAILS {
                let r = figure_cell(class, 300, 18, pfail, ccr, 1, 42);
                assert!(
                    r.rel_all >= floor,
                    "{class} ccr={ccr} pfail={pfail}: rel_all {}",
                    r.rel_all
                );
            }
        }
    }
}

/// "As the CCR decreases, the relative expected makespan of CkptAll
/// decreases and converges to 1" — and CkptSome checkpoints (almost)
/// everything in that limit. At pfail = 0.001, rel_all reads 1.0009 →
/// 1.0254 (Genome), 1.0022 → 2.3197 (Montage) and 1.0008 → 1.3807 (Ligo)
/// from the lowest to the highest CCR.
#[test]
fn ckptall_converges_to_one_at_low_ccr() {
    for class in WorkflowClass::ALL {
        let (lo, hi) = class.ccr_range();
        let low = figure_cell(class, 300, 18, 0.001, lo, 1, 42);
        let high = figure_cell(class, 300, 18, 0.001, hi, 1, 42);
        assert!(
            (low.rel_all - 1.0).abs() < 0.02,
            "{class}: rel_all at low CCR = {}",
            low.rel_all
        );
        assert!(
            high.rel_all > low.rel_all,
            "{class}: rel_all must grow with CCR ({} vs {})",
            high.rel_all,
            low.rel_all
        );
    }
}

/// "The relative expected makespan of CkptNone increases as the CCR
/// decreases". At pfail = 0.01, rel_none reads 2.9246 vs 2.8740
/// (Genome), 15.04 vs 6.78 (Montage) and 2.4783 vs 0.8373 (Ligo) at the
/// lowest vs the highest CCR.
#[test]
fn ckptnone_worsens_as_ccr_decreases() {
    for class in WorkflowClass::ALL {
        let (lo, hi) = class.ccr_range();
        let low = figure_cell(class, 300, 18, 0.01, lo, 1, 42);
        let high = figure_cell(class, 300, 18, 0.01, hi, 1, 42);
        assert!(
            low.rel_none > high.rel_none,
            "{class}: rel_none {} at low CCR vs {} at high",
            low.rel_none,
            high.rel_none
        );
    }
}

/// "CkptNone becomes worse whenever there are more failing tasks": the
/// pfail = 0.01 column dominates the pfail = 0.0001 column, and larger
/// workflows dominate smaller ones. At the lowest Montage CCR, rel_none
/// reads 1.0105 < 2.0242 < 85.02.
#[test]
fn ckptnone_worsens_with_failures_and_scale() {
    let class = WorkflowClass::Montage;
    let (lo, _) = class.ccr_range();
    let small_rare = figure_cell(class, 50, 5, 0.0001, lo, 1, 42);
    let small_freq = figure_cell(class, 50, 5, 0.01, lo, 1, 42);
    let big_freq = figure_cell(class, 1000, 61, 0.01, lo, 1, 42);
    assert!(small_freq.rel_none > small_rare.rel_none);
    assert!(big_freq.rel_none > small_freq.rel_none);
    // Bottom-left corner: "so high that it does not appear in the plots".
    assert!(big_freq.rel_none > 3.0, "got {}", big_freq.rel_none);
}

/// "CkptSome … is only outperformed by CkptNone when checkpoints are
/// expensive and/or failures are rare": rel_none < 1 must occur at the
/// high-CCR / low-pfail corner, and only there. Ligo-300 reads 0.3725
/// in that corner and 2.4783 in the opposite one.
#[test]
fn ckptnone_wins_exactly_in_the_paper_corner() {
    let class = WorkflowClass::Ligo;
    let (lo, hi) = class.ccr_range();
    let corner = figure_cell(class, 300, 18, 0.0001, hi, 1, 42);
    assert!(
        corner.rel_none < 1.0,
        "CkptNone must win at high CCR / rare failures: {}",
        corner.rel_none
    );
    let opposite = figure_cell(class, 300, 18, 0.01, lo, 1, 42);
    assert!(
        opposite.rel_none > 1.0,
        "CkptNone must lose at low CCR / frequent failures: {}",
        opposite.rel_none
    );
}

/// Checkpoint count decreases monotonically-ish with CCR: cheaper
/// checkpoints → more of them (the mechanism behind convergence to
/// CkptAll). Genome-300 places 133 at the lowest CCR and 68 at the
/// highest.
#[test]
fn checkpoint_count_grows_as_ccr_shrinks() {
    let class = WorkflowClass::Genome;
    let (lo, hi) = class.ccr_range();
    let cheap = figure_cell(class, 300, 18, 0.001, lo, 1, 42);
    let pricey = figure_cell(class, 300, 18, 0.001, hi, 1, 42);
    assert!(
        cheap.ckpts_some > pricey.ckpts_some,
        "cheap {} vs pricey {}",
        cheap.ckpts_some,
        pricey.ckpts_some
    );
}

//! E11 — the rare-event splitting study on the E9 wear-out corners:
//! CkptNone under Weibull wear-out (`k = 2`) at `pfail ∈ {1e-3, 1e-4}`,
//! where almost no naive trajectory samples a failure cascade and the
//! makespan CI is driven by a handful of lucky draws. The multilevel
//! splitting estimator ([`failsim::SplitConfig`]) clones every
//! trajectory that survives `stride` failures and weights the leaves,
//! smoothing exactly that tail.
//!
//! For each corner the binary runs both estimators over a ladder of run
//! counts and emits the CI-width-vs-runs curve for both the mean
//! makespan and the cascade-tail probability `P(failures ≥ tail_at)`,
//! plus a paired summary: the per-run variance of each estimator and
//! the run-reduction factor (naive runs per splitting root at equal CI
//! width). The tail probability is where splitting earns its keep —
//! naive sampling needs `≫ 1/p` runs to see one deep cascade, while
//! every splitting root that enters the cascade regime contributes
//! `factor^levels` weighted leaves. Both estimators are bit-identical
//! functions of `(seed, runs)`, so the curve is reproducible for any
//! `--mc-threads`.
//!
//! ```text
//! cargo run -p ckpt_bench --release --bin splitting
//!     [-- --runs 65536] [--seed 42] [--factor 2] [--stride 1]
//!     [--levels 8] [--tail-at 8] [--pfails 1e-3,1e-4] [--procs 4]
//!     [--mc-threads 0] [--out results]
//! ```

use ckpt_bench::{usage_error, Args, ObsOut};
use ckpt_core::{allocate, AllocateConfig, FailureModel};
use failsim::{montecarlo_none_model, NoneMcStats, SimConfig, SplitConfig};
use pegasus::{generate, WorkflowClass};
use std::io::Write;
use std::time::Instant;

struct Point {
    pfail: f64,
    estimator: &'static str,
    runs: usize,
    stats: NoneMcStats,
    wall: f64,
}

fn main() {
    let args = Args::parse(
        "runs seed factor stride levels tail-at pfails procs mc-threads out trace-out metrics-out",
    );
    let obs_out = ObsOut::from_args(&args);
    let max_runs: usize = args.get_or("runs", 65_536);
    let seed: u64 = args.get_or("seed", 42);
    let factor: Option<usize> = args.parsed("factor");
    let stride: usize = args.get_or("stride", 1);
    if let Some(f) = factor.filter(|&f| f < 2) {
        usage_error(&format!("--factor must be at least 2, got {f}"));
    }
    if stride < 1 {
        usage_error("--stride must be at least 1, got 0");
    }
    let max_levels: usize = args.get_or("levels", 8);
    let tail_at: usize = args.get_or("tail-at", stride * max_levels);
    let mc_threads: usize = args.get_or("mc-threads", 0);
    let procs: usize = args.get_or("procs", 4);
    let out_dir: String = args.get_or("out", "results".to_owned());
    let pfails: Vec<f64> = args.list_or("pfails", vec![1e-3, 1e-4]);

    // The E9 wear-out corner: Genome/50, Weibull k = 2 calibrated to
    // the per-task pfail.
    let w = generate(WorkflowClass::Genome, 50, 4);
    let sched = allocate(&w, procs, &AllocateConfig::default());
    // Splitting pays when `factor × q ≈ 1` for `q` the conditional
    // probability of one more cascade failure: the rarer the corner,
    // the smaller `q` and the harder each passage must multiply. The
    // per-corner default keeps the dense corner's clone tree bounded
    // while the rare corner still samples deep cascades.
    let split_for = |pfail: f64| SplitConfig {
        factor: factor.unwrap_or(if pfail < 3e-4 { 8 } else { 2 }),
        stride,
        max_levels,
    };
    println!(
        "# E11 rare-event splitting study (Genome/50 on {procs} procs, Weibull k=2, \
         stride {stride} levels {max_levels}, tail at {tail_at} failures)"
    );

    let ladder: Vec<usize> = (0..4).rev().map(|i| max_runs >> (2 * i)).collect();
    let mut points = Vec::new();
    for &pfail in &pfails {
        let model = FailureModel::weibull_from_pfail(2.0, pfail, w.dag.mean_weight());
        for &runs in &ladder {
            for (name, split) in [
                ("naive", SplitConfig::default()),
                ("splitting", split_for(pfail)),
            ] {
                let cfg = SimConfig {
                    runs,
                    seed,
                    threads: mc_threads,
                    max_failures: 10_000,
                    split,
                    tail_at,
                };
                let t = Instant::now();
                let stats = montecarlo_none_model(&w.dag, &sched, &model, &cfg);
                points.push(Point {
                    pfail,
                    estimator: name,
                    runs,
                    stats,
                    wall: t.elapsed().as_secs_f64(),
                });
            }
        }
    }

    let path = std::path::Path::new(&out_dir).join("table_splitting.csv");
    std::fs::create_dir_all(&out_dir).expect("create out dir");
    let mut csv = std::io::BufWriter::new(std::fs::File::create(&path).expect("create CSV"));
    writeln!(
        csv,
        "pfail,estimator,runs,mean_makespan,stderr,ci95_width,mean_failures,\
         p_tail,p_tail_stderr,diverged,wall_s"
    )
    .unwrap();
    println!(
        "{:>8} {:>10} {:>7} {:>12} {:>10} {:>10} {:>11} {:>11} {:>8}",
        "pfail", "estimator", "runs", "mean_EM", "stderr", "ci95", "p_tail", "p_stderr", "wall(s)"
    );
    for p in &points {
        let s = &p.stats.stats;
        let ci = 2.0 * 1.96 * s.stderr;
        writeln!(
            csv,
            "{},{},{},{:.6},{:.6e},{:.6e},{:.6e},{:.6e},{:.6e},{},{:.3}",
            p.pfail,
            p.estimator,
            p.runs,
            s.mean_makespan,
            s.stderr,
            ci,
            s.mean_failures,
            p.stats.p_tail,
            p.stats.p_tail_stderr,
            p.stats.diverged,
            p.wall
        )
        .unwrap();
        println!(
            "{:>8} {:>10} {:>7} {:>12.2} {:>10.4} {:>10.4} {:>11.4e} {:>11.4e} {:>8.2}",
            p.pfail,
            p.estimator,
            p.runs,
            s.mean_makespan,
            s.stderr,
            ci,
            p.stats.p_tail,
            p.stats.p_tail_stderr,
            p.wall
        );
    }
    csv.flush().unwrap();

    // Paired summary from the top rung: stderr · √runs estimates each
    // estimator's per-run standard deviation, so the run count needed
    // for a target CI width scales with its square — the ratio is the
    // equal-width run-reduction factor.
    println!("# E11 equal-CI-width summary (top rung, {max_runs} runs)");
    for &pfail in &pfails {
        let top = |name: &str| {
            points
                .iter()
                .find(|p| p.pfail == pfail && p.estimator == name && p.runs == max_runs)
                .unwrap()
        };
        let (naive, split) = (top("naive"), top("splitting"));
        let sqn = (max_runs as f64).sqrt();
        let em = (naive.stats.stats.stderr / split.stats.stats.stderr).powi(2);
        // When the corner is rare enough that *no* naive run sampled the
        // tail, the empirical naive sd degenerates to 0; fall back to
        // the exact Bernoulli sd at the splitting point estimate (a
        // naive run is an indicator draw, so this is its true per-run
        // sd, not an approximation).
        let p = split.stats.p_tail;
        let naive_sd = if naive.stats.p_tail > 0.0 && naive.stats.p_tail < 1.0 {
            naive.stats.p_tail_stderr * sqn
        } else {
            (p * (1.0 - p)).sqrt()
        };
        let split_sd = split.stats.p_tail_stderr * sqn;
        let tail = (naive_sd / split_sd).powi(2);
        let cost = split.wall / naive.wall;
        println!(
            "pfail {pfail:>6}: makespan per-run sd {:.3} vs {:.3} -> {em:.1}x; \
             P(failures >= {tail_at}) per-run sd {naive_sd:.3e} vs {split_sd:.3e} \
             -> {tail:.1}x fewer runs at equal CI width \
             ({cost:.1}x wall-clock per run -> {:.1}x net)",
            naive.stats.stats.stderr * sqn,
            split.stats.stats.stderr * sqn,
            tail / cost,
        );
    }
    eprintln!("wrote {}", path.display());
    obs_out.finish().expect("write observability outputs");
}

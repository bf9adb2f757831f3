//! `whatif` — the incremental planning service under a batched
//! drift-query load, against its own cold-recompute control.
//!
//! Opens one [`ckpt_service::Session`] on a generated instance and
//! answers a deterministic batch of what-if queries — λ drifts cycling
//! a fixed set of distinct values, policy swaps, platform rescales —
//! either **incrementally** (one shared store, the default) or **cold**
//! (`--cold 1`: a fresh session and store per query). Both modes write
//! the same CSV schema with rows in query order, and the bytes are
//! identical for every `--threads` value *and* across the two modes:
//! the store only decides who computes an artifact, never what it is.
//! CI diffs the two files; the wall-clock ratio printed to stderr is
//! the service's batch-amortized speedup (BENCH_hotpath.json).
//!
//! ```text
//! cargo run -p ckpt_bench --release --bin whatif
//!     [-- --class montage] [--size 300] [--seed 9] [--ccr 0.05]
//!     [--procs 18] [--pfail 1e-3] [--queries 256] [--lambdas 16]
//!     [--kinds all] [--threads 0] [--cold 0] [--out results/whatif.csv]
//!     [--deadline-ms 0]
//! ```
//!
//! `--deadline-ms N` (default 0 = off) gives every query a cooperative
//! wall-clock budget (`Session::deadline`): over-budget queries report
//! a typed cancellation instead of a row value, and their count goes to
//! stderr. Off by default, so benchmark CSVs are bit-identical to the
//! pre-deadline runs.
//!
//! Observability (DESIGN.md §12): `--trace-out FILE` dumps the query
//! batch's span tree as schema-validated JSONL, `--metrics-out FILE`
//! the Prometheus text exposition (store counters included), and
//! `--stats 1` prints the per-memo [`ckpt_service::StoreStats`] table
//! to stderr. None of these perturb the CSV — CI diffs traced against
//! untraced output.

use std::io::Write as _;
use std::time::Instant;

use ckpt_bench::{Args, ObsOut};
use ckpt_service::{
    Answer, Inputs, ModelSpec, PlanResult, PolicySpec, Session, WhatIf, WorkflowSource,
};
use pegasus::WorkflowClass;

/// The deterministic query batch. `--kinds all` (the default) mixes two
/// λ drifts for every policy swap or platform rescale, cycling
/// `lambdas` distinct multipliers of the base `pfail` so the
/// incremental store keeps revisiting warm keys; `--kinds pfail` emits
/// pure λ drifts, so with `lambdas >= n` every incremental query is a
/// *first visit* of its λ — the honest per-query drift cost, no batch
/// amortization.
fn build_queries(n: usize, lambdas: usize, pfail: f64, procs: usize, kinds: &str) -> Vec<WhatIf> {
    const POLICIES: [PolicySpec; 5] = [
        PolicySpec::DpOptimal,
        PolicySpec::CkptAll,
        PolicySpec::ExitOnly,
        PolicySpec::Daly { period: None },
        PolicySpec::Crossover,
    ];
    let lambda = |i: usize| WhatIf::SetPfail(pfail * (1.0 + (i % lambdas) as f64 * 0.25));
    match kinds {
        "pfail" => (0..n).map(lambda).collect(),
        _ => (0..n)
            .map(|i| match i % 4 {
                0 | 1 => lambda(i / 2),
                2 => WhatIf::SetPolicy(POLICIES[(i / 4) % POLICIES.len()]),
                _ => WhatIf::SetProcs(procs + (i / 4) % 8),
            })
            .collect(),
    }
}

fn kind(q: &WhatIf) -> &'static str {
    match q {
        WhatIf::SetPfail(_) => "pfail",
        WhatIf::SetPolicy(_) => "policy",
        WhatIf::SetProcs(_) => "procs",
        _ => "nop",
    }
}

fn param(q: &WhatIf) -> f64 {
    match q {
        WhatIf::SetPfail(p) => *p,
        WhatIf::SetProcs(n) => *n as f64,
        _ => 0.0,
    }
}

fn csv_row(i: usize, q: &WhatIf, a: &Answer) -> String {
    format!(
        "{},{},{:.6e},{},{:.4},{},{},{:.6e},{:.4}",
        i,
        kind(q),
        param(q),
        a.policy,
        a.expected_makespan,
        a.n_segments,
        a.ckpt_files,
        a.ckpt_bytes,
        a.w_par
    )
}

fn main() {
    let args = Args::parse(
        "class size seed ccr procs pfail queries lambdas threads cold kinds out \
         deadline-ms stats trace-out metrics-out",
    );
    let obs_out = ObsOut::from_args(&args);
    let class = args.get_or("class", WorkflowClass::Montage);
    let size: usize = args.get_or("size", 300);
    let seed: u64 = args.get_or("seed", 9);
    let ccr: f64 = args.get_or("ccr", 0.05);
    let procs: usize = args.get_or("procs", 18);
    let pfail: f64 = args.get_or("pfail", 1e-3);
    let n_queries: usize = args.get_or("queries", 256);
    let lambdas: usize = args.get_or("lambdas", 16);
    let threads: usize = args.get_or("threads", 0);
    let cold: usize = args.get_or("cold", 0);
    let kinds = args.choice("kinds", &["all", "pfail"]);
    let out: String = args.get_or("out", "results/whatif.csv".to_owned());
    let deadline_ms: u64 = args.get_or("deadline-ms", 0);
    let deadline = (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms));
    let stats: usize = args.get_or("stats", 0);

    let inputs = Inputs::basic(
        WorkflowSource::Generated {
            class,
            size,
            seed,
            ccr: Some(ccr),
        },
        procs,
        ckpt_bench::BANDWIDTH,
        ModelSpec::Exponential { pfail },
    );
    let queries = build_queries(n_queries, lambdas.max(1), pfail, procs, kinds);

    let t0 = Instant::now();
    // The incremental session outlives the batch so `--stats` and the
    // metrics dump can read its store afterwards.
    let mut incr_session: Option<Session> = None;
    let answers: Vec<PlanResult<Answer>> = if cold != 0 {
        // Control: every query pays the full pipeline in its own store.
        seedmix::parallel_slots(queries.len(), threads, |i| {
            let mut session = Session::new(inputs.clone());
            session.deadline = deadline;
            session.try_query(&queries[i])
        })
    } else {
        let mut session = Session::new(inputs.clone());
        session.deadline = deadline;
        let answers = session.try_query_batch(&queries, threads);
        incr_session = Some(session);
        answers
    };
    let wall = t0.elapsed().as_secs_f64();
    let cancelled = answers.iter().filter(|r| r.is_err()).count();
    if deadline.is_none() {
        // Without a deadline every query must succeed — surface the
        // first typed error instead of writing a partial CSV.
        if let Some(e) = answers.iter().find_map(|r| r.as_ref().err()) {
            panic!("what-if query failed: {e}");
        }
    }

    let path = std::path::Path::new(&out);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path).expect("create CSV"));
    writeln!(
        f,
        "query,kind,param,policy,em,segments,ckpt_files,ckpt_bytes,w_par"
    )
    .expect("write CSV");
    for (i, (q, a)) in queries.iter().zip(&answers).enumerate() {
        if let Ok(a) = a {
            writeln!(f, "{}", csv_row(i, q, a)).expect("write CSV");
        }
    }
    f.flush().expect("flush CSV");
    eprintln!(
        "{} {} queries ({} distinct lambdas) on {}-{} in {:.3}s ({:.3} ms/query) -> {}{}",
        if cold != 0 { "cold" } else { "incremental" },
        n_queries,
        lambdas,
        class.name(),
        size,
        wall,
        1e3 * wall / n_queries.max(1) as f64,
        path.display(),
        if deadline.is_some() {
            format!(" [{cancelled} over-deadline]")
        } else {
            String::new()
        },
    );
    match &incr_session {
        Some(session) => {
            if stats != 0 {
                eprintln!("{}", session.store().stats());
            }
            if obs_out.metrics() {
                session.store().export_metrics();
            }
        }
        None if stats != 0 => {
            eprintln!("--stats 1 needs incremental mode; cold stores are per-query and discarded")
        }
        None => {}
    }
    obs_out.finish().expect("write observability outputs");
}

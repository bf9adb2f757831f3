//! Recovery tests for the serving path — no fault injection feature
//! required. Three properties:
//!
//! 1. **Memo abandonment**: a computing worker that dies never strands
//!    its waiters — one of them takes over and everybody gets the
//!    correct value in bounded time (thread budgets 2 and 7).
//! 2. **Invalid inputs are inert**: malformed what-if parameters are
//!    rejected with typed [`PlanError::InvalidInput`]s *before* any
//!    stage runs, and the session's next valid answer is byte-identical
//!    to a fresh cold session's.
//! 3. **Deadline degradation**: an expired per-query deadline during
//!    Monte Carlo yields the exact analytic answer flagged `degraded`,
//!    not an error and not a corrupted estimate.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ckpt_core::StageId;
use ckpt_service::{
    Answer, ErrorKind, Inputs, McSpec, Memo, ModelSpec, PlanError, PolicySpec, Session, WhatIf,
    WorkflowSource, MAX_ATTEMPTS,
};
use pegasus::WorkflowClass;

fn montage_inputs(pfail: f64) -> Inputs {
    Inputs::basic(
        WorkflowSource::Generated {
            class: WorkflowClass::Montage,
            size: 60,
            seed: 11,
            ccr: Some(0.05),
        },
        8,
        1e8,
        ModelSpec::Exponential { pfail },
    )
}

fn assert_same(a: &Answer, b: &Answer) {
    assert_eq!(a.policy, b.policy);
    assert_eq!(a.expected_makespan.to_bits(), b.expected_makespan.to_bits());
    assert_eq!(a.n_checkpoints, b.n_checkpoints);
    assert_eq!(a.n_segments, b.n_segments);
    assert_eq!(a.ckpt_files, b.ckpt_files);
    assert_eq!(a.ckpt_bytes.to_bits(), b.ckpt_bytes.to_bits());
    assert_eq!(a.w_par.to_bits(), b.w_par.to_bits());
    assert_eq!(a.degraded, b.degraded);
    match (&a.mc, &b.mc) {
        (None, None) => {}
        (Some(x), Some(y)) => {
            assert_eq!(x.mean_makespan.to_bits(), y.mean_makespan.to_bits());
            assert_eq!(x.stderr.to_bits(), y.stderr.to_bits());
            assert_eq!(x.runs, y.runs);
        }
        _ => panic!("MC presence mismatch"),
    }
}

/// Regression for the abandoned-slot hang: the *first* worker to claim
/// a memo slot panics mid-compute while the other workers are already
/// parked on it. A waiter must take over with its own closure and every
/// thread must receive the correct value — quickly, not after some
/// timeout-driven crawl.
#[test]
fn waiters_survive_a_dying_first_worker() {
    for threads in [2usize, 7] {
        let memo: Memo<u64> = Memo::new();
        let attempts = AtomicUsize::new(0);
        let start = Instant::now();
        let values = seedmix::parallel_slots(threads, threads, |_| {
            memo.resolve(StageId::Placement, 42, || {
                // Exactly the first attempt dies; whoever retries
                // (the original claimant or a parked waiter) succeeds.
                if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("first worker dies mid-compute");
                }
                Ok(7u64)
            })
            .0
        });
        assert!(
            values.iter().all(|v| matches!(v.as_deref(), Ok(&7))),
            "threads={threads}: some worker saw a wrong or missing value"
        );
        // "Bounded time" with a generous CI margin: recovery is driven
        // by takeover + notification, not by waiting out long timeouts.
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "threads={threads}: recovery took {:?}",
            start.elapsed()
        );
        assert!(attempts.load(Ordering::SeqCst) >= 2);
    }
}

/// A closure that *always* dies turns terminally `Failed` after
/// [`MAX_ATTEMPTS`], every concurrent worker gets the typed error, and
/// the memo self-heals: the next compute with a working closure
/// succeeds on a fresh slot.
#[test]
fn persistent_failure_is_typed_and_self_healing() {
    for threads in [2usize, 7] {
        let memo: Memo<u64> = Memo::new();
        let attempts = AtomicUsize::new(0);
        let results = seedmix::parallel_slots(threads, threads, |_| {
            memo.resolve(StageId::Curve, 9, || {
                attempts.fetch_add(1, Ordering::SeqCst);
                panic!("always dies");
            })
            .0
        });
        for r in &results {
            match r {
                Err(PlanError::StageFailed {
                    stage, attempts, ..
                }) => {
                    assert_eq!(*stage, StageId::Curve);
                    assert_eq!(*attempts, MAX_ATTEMPTS);
                }
                other => panic!("threads={threads}: expected StageFailed, got {other:?}"),
            }
        }
        // Parked waiters share the claimant's MAX_ATTEMPTS; a worker
        // arriving *after* the failed key self-healed away starts a
        // fresh slot and burns its own attempts — so the global count
        // is at least one bound's worth, at most one per worker.
        let total = attempts.load(Ordering::SeqCst);
        assert!(total >= MAX_ATTEMPTS as usize);
        assert!(total <= MAX_ATTEMPTS as usize * threads);
        // Self-healing: the failed key was removed, so a later query
        // recomputes instead of inheriting the corpse.
        let v = memo.resolve(StageId::Curve, 9, || Ok(5u64)).0.unwrap();
        assert_eq!(*v, 5);
    }
}

#[test]
fn invalid_whatifs_return_typed_errors_and_leave_the_session_exact() {
    let session = Session::new(montage_inputs(1e-3));
    session.baseline();

    let field = |r: Result<Answer, PlanError>| match r {
        Err(PlanError::InvalidInput { field, .. }) => field,
        other => panic!("expected InvalidInput, got {other:?}"),
    };
    assert_eq!(
        field(session.try_query(&WhatIf::SetPfail(f64::NAN))),
        "pfail"
    );
    assert_eq!(field(session.try_query(&WhatIf::SetPfail(1.5))), "pfail");
    assert_eq!(field(session.try_query(&WhatIf::SetProcs(0))), "procs");
    assert_eq!(
        field(session.try_query(&WhatIf::SetBandwidth(-1.0))),
        "bandwidth"
    );
    assert_eq!(
        field(session.try_query(&WhatIf::SetPolicy(PolicySpec::Risk { max_risk: 1.5 }))),
        "max_risk"
    );
    assert_eq!(
        field(session.try_query(&WhatIf::SetTaskWeight {
            task: 0,
            weight: -3.0
        })),
        "weight"
    );
    assert_eq!(
        field(session.try_query(&WhatIf::SetTaskWeight {
            task: usize::MAX,
            weight: 1.0
        })),
        "task"
    );

    // After the barrage, a valid query answers byte-identically to a
    // fresh cold session: nothing was poisoned.
    let warm = session.try_query(&WhatIf::SetPfail(2e-3)).unwrap();
    let cold = Session::new(montage_inputs(2e-3)).try_baseline().unwrap();
    assert_same(&warm, &cold);
}

#[test]
fn failed_apply_leaves_current_inputs_untouched() {
    let mut session = Session::new(montage_inputs(1e-3));
    let before = session.baseline();
    assert!(matches!(
        session.try_apply(&WhatIf::SetProcs(0)),
        Err(PlanError::InvalidInput { field: "procs", .. })
    ));
    assert!(matches!(
        session.try_apply(&WhatIf::SetPfail(2.0)),
        Err(PlanError::InvalidInput { field: "pfail", .. })
    ));
    assert_same(&before, &session.baseline());
}

#[test]
fn batch_queries_fail_independently() {
    let session = Session::new(montage_inputs(1e-3));
    let queries = [
        WhatIf::SetPfail(2e-3),
        WhatIf::SetProcs(0),
        WhatIf::SetPfail(3e-3),
    ];
    for threads in [1usize, 2, 7] {
        let results = session.try_query_batch(&queries, threads);
        assert!(results[0].is_ok(), "threads={threads}");
        assert!(
            matches!(
                &results[1],
                Err(PlanError::InvalidInput { field: "procs", .. })
            ),
            "threads={threads}"
        );
        assert!(results[2].is_ok(), "threads={threads}");
    }
}

/// An expired deadline during Monte Carlo degrades gracefully: the
/// analytic fields are exact (byte-identical to an undeadlined session
/// without MC), `mc` is `None`, and the answer is flagged. Once the
/// deadline is lifted the same session serves the full answer.
#[test]
fn deadline_degrades_monte_carlo_to_the_exact_analytic_answer() {
    let mut inputs = montage_inputs(1e-3);
    // Enough replications that the simulation cannot finish inside the
    // deadline (seconds of work), while the analytic pipeline
    // (milliseconds on this workflow) comfortably does.
    inputs.mc = Some(McSpec {
        runs: 2_000_000,
        seed: 17,
    });
    let mut session = Session::new(inputs.clone());
    session.deadline = Some(Duration::from_millis(100));
    let start = Instant::now();
    let degraded = session.try_baseline().unwrap();
    // No hang: the abort predicate is polled per replication.
    assert!(start.elapsed() < Duration::from_secs(30));
    assert!(degraded.degraded);
    assert!(degraded.mc.is_none());
    // The tracker records *how* the MC stage died: one cancelled
    // resolution on its first attempt, nothing else failed.
    assert_eq!(
        vec![(StageId::EvalMc, 1, ErrorKind::Cancelled)],
        session.tracker().failures()
    );

    let mut analytic_inputs = inputs.clone();
    analytic_inputs.mc = None;
    let exact = Session::new(analytic_inputs).try_baseline().unwrap();
    assert_eq!(
        degraded.expected_makespan.to_bits(),
        exact.expected_makespan.to_bits()
    );
    assert_eq!(degraded.w_par.to_bits(), exact.w_par.to_bits());

    // Lifting the deadline on the *same* session serves the full
    // answer — the aborted simulation was never cached.
    session.deadline = None;
    let mut full_inputs = inputs;
    full_inputs.mc = Some(McSpec {
        runs: 200,
        seed: 17,
    });
    let mut full_session = Session::new(full_inputs.clone());
    let full = full_session.try_baseline().unwrap();
    assert!(!full.degraded);
    assert!(full.mc.is_some());
    // And a deadlined session whose MC *fits* the budget is not
    // degraded either.
    full_session.deadline = Some(Duration::from_secs(60));
    let relaxed = full_session.try_baseline().unwrap();
    assert!(!relaxed.degraded);
    assert_same(&full, &relaxed);
}

/// A deadline that is already exhausted before planning starts cancels
/// the query with the typed error — and the session stays serviceable:
/// removing the deadline immediately yields the exact answer.
#[test]
fn zero_deadline_cancels_and_the_session_recovers() {
    let mut session = Session::new(montage_inputs(1e-3));
    session.deadline = Some(Duration::ZERO);
    match session.try_baseline() {
        Err(PlanError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    session.deadline = None;
    let warm = session.try_baseline().unwrap();
    let cold = Session::new(montage_inputs(1e-3)).try_baseline().unwrap();
    assert_same(&warm, &cold);
}

//! Trace-determinism suite for the observability layer (DESIGN.md §12).
//! Only compiled with the `observe` feature:
//!
//! ```text
//! cargo test -p ckpt_service --features observe --test trace
//! ```
//!
//! The contract:
//!
//! * **Same tree for every budget** — one seed and query batch produce
//!   the *same canonical span tree* for thread budgets 1, 2 and 7.
//!   Executed/cached attribution is scheduling-dependent (the store
//!   decides *who* computes, never *what*), so the canonicalizer folds
//!   both into `resolved`; everything else — structure, names, keys,
//!   ords, failures — must match byte for byte.
//! * **Same work for every budget** — the multiset of `(name, key)`
//!   pairs that actually *executed* is also budget-invariant: each
//!   missing artifact is computed exactly once no matter how workers
//!   interleave.
//! * **Schema round-trip** — every recorded span serializes to a JSONL
//!   line that passes the wire-schema validator.
//! * **No perturbation** — answers with the recorder armed are
//!   bit-identical to answers without it.

#![cfg(feature = "observe")]

use std::cell::Cell;
use std::sync::Mutex;

use ckpt_core::StageId;
use ckpt_service::{
    Answer, Inputs, McSpec, Memo, ModelSpec, Outcome, PolicySpec, Session, WhatIf, WorkflowSource,
};
use obs::span::{SpanOutcome, SpanRecord};
use pegasus::WorkflowClass;

/// The span recorder is process-global; trace tests must not overlap.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn trace_inputs() -> Inputs {
    let mut inputs = Inputs::basic(
        WorkflowSource::Generated {
            class: WorkflowClass::Montage,
            size: 60,
            seed: 11,
            ccr: Some(0.05),
        },
        8,
        1e8,
        ModelSpec::Exponential { pfail: 1e-3 },
    );
    inputs.mc = Some(McSpec { runs: 60, seed: 5 });
    inputs
}

/// A batch touching every stage: λ drifts (with repeats, so the store
/// serves cached resolutions), a policy swap, a rescale, and a no-op.
fn trace_queries() -> Vec<WhatIf> {
    vec![
        WhatIf::Nop,
        WhatIf::SetPfail(2e-3),
        WhatIf::SetPolicy(PolicySpec::CkptAll),
        WhatIf::SetProcs(12),
        WhatIf::SetPfail(2e-3),
        WhatIf::SetPfail(3e-3),
        WhatIf::SetBandwidth(2e8),
        WhatIf::Nop,
    ]
}

/// Runs the batch on a fresh session/store and returns the drained
/// spans plus the answers.
fn traced_batch(threads: usize) -> (Vec<SpanRecord>, Vec<Answer>) {
    let queries = trace_queries();
    obs::span::arm();
    let session = Session::new(trace_inputs());
    let results = session.try_query_batch(&queries, threads);
    obs::span::disarm();
    let spans = obs::span::drain();
    let answers = results
        .into_iter()
        .map(|r| r.expect("fault-free query must succeed"))
        .collect();
    (spans, answers)
}

/// The budget-invariant view of *what executed*: every `(name, key)`
/// whose resolution span ran the stage function, as a sorted multiset.
fn executed_multiset(spans: &[SpanRecord]) -> Vec<(&'static str, Option<u64>)> {
    let mut out: Vec<_> = spans
        .iter()
        .filter(|s| s.outcome == SpanOutcome::Executed)
        .map(|s| (s.name, s.key))
        .collect();
    out.sort_unstable();
    out
}

#[test]
fn span_trees_are_identical_across_thread_budgets() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (spans1, answers1) = traced_batch(1);
    let canon1 = obs::jsonl::canonicalize(&spans1);
    let executed1 = executed_multiset(&spans1);
    // The serial trace has one root per query, in batch order.
    let roots: Vec<u64> = spans1
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.name, s.ord))
        .map(|(name, ord)| {
            assert_eq!("query", name);
            ord.expect("batch roots carry their query index")
        })
        .collect();
    assert_eq!((0..trace_queries().len() as u64).collect::<Vec<_>>(), roots);
    for threads in [2usize, 7] {
        let (spans, answers) = traced_batch(threads);
        assert_eq!(
            canon1,
            obs::jsonl::canonicalize(&spans),
            "threads={threads}: canonical span tree diverged"
        );
        assert_eq!(
            executed1,
            executed_multiset(&spans),
            "threads={threads}: executed (name, key) multiset diverged"
        );
        for (i, (a, b)) in answers1.iter().zip(&answers).enumerate() {
            assert_eq!(
                a.expected_makespan.to_bits(),
                b.expected_makespan.to_bits(),
                "threads={threads} q{i}"
            );
        }
    }
}

#[test]
fn every_recorded_span_passes_the_wire_schema() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (spans, _) = traced_batch(2);
    assert!(!spans.is_empty());
    for span in &spans {
        let line = obs::jsonl::to_line(span);
        obs::jsonl::validate_line(&line)
            .unwrap_or_else(|e| panic!("span {} failed schema: {e}\n{line}", span.id));
    }
    // The batch exercised every span family the service emits.
    for name in ["query", "resolve.curve", "stage.curve", "mc.reduce"] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "no `{name}` span in the batch trace"
        );
    }
}

#[test]
fn arming_the_recorder_does_not_bend_answers() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let queries = trace_queries();
    // Untraced reference on a fresh session.
    let quiet: Vec<Answer> = Session::new(trace_inputs())
        .try_query_batch(&queries, 2)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    let (_, traced) = traced_batch(2);
    for (i, (a, b)) in quiet.iter().zip(&traced).enumerate() {
        assert_eq!(
            a.expected_makespan.to_bits(),
            b.expected_makespan.to_bits(),
            "q{i}: expected_makespan"
        );
        assert_eq!(a.ckpt_bytes.to_bits(), b.ckpt_bytes.to_bits(), "q{i}");
        assert_eq!(a.w_par.to_bits(), b.w_par.to_bits(), "q{i}");
        match (&a.mc, &b.mc) {
            (Some(x), Some(y)) => {
                assert_eq!(x.mean_makespan.to_bits(), y.mean_makespan.to_bits(), "q{i}")
            }
            (None, None) => {}
            _ => panic!("q{i}: MC presence mismatch"),
        }
    }
}

/// The canonicalizer prints attempts only on failed spans, so the tree
/// tests above never see the attempt count of a resolution that
/// recovered: pin it here.
#[test]
fn a_recovered_resolution_records_both_attempts_on_its_span() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let memo: Memo<u64> = Memo::new();
    let calls = Cell::new(0u32);
    obs::span::arm();
    let (value, outcome) = memo.resolve(StageId::Placement, 5, || {
        calls.set(calls.get() + 1);
        if calls.get() == 1 {
            panic!("first-attempt death");
        }
        Ok(13)
    });
    obs::span::disarm();
    let spans = obs::span::drain();
    assert_eq!(13, *value.unwrap());
    assert_eq!(Outcome::Executed, outcome);
    let span = spans
        .iter()
        .find(|s| s.name == "resolve.placement")
        .expect("the resolution is spanned");
    assert_eq!(Some(5), span.key);
    assert_eq!(SpanOutcome::Executed, span.outcome);
    assert_eq!(2, span.attempts, "failed attempt + successful retry");
}

//! `obs` — zero-dependency observability for the checkpoint planning
//! stack: structured spans, a typed metrics registry, and the single
//! timing primitive the profiling layer is built on.
//!
//! Three pillars (DESIGN.md §12):
//!
//! 1. [`span`] — a thread-safe recorder producing a creation-ordered
//!    list of [`span::SpanRecord`]s: stage executions, memo
//!    resolutions (with fingerprint keys, outcomes, and attempt
//!    counts), engine cells, and MC reductions. Exported as
//!    schema-validated JSONL ([`jsonl`]).
//! 2. [`metrics`] — counters/gauges/histograms with Prometheus-style
//!    text exposition.
//! 3. Profiling — the per-stage wall histogram and the engine's
//!    per-cell timings are derived from [`span::timed_full`]'s returned
//!    nanoseconds, so traces and profiles can never disagree.
//!
//! The non-negotiable contract: **observability never perturbs
//! results**. No span or metric ever feeds back into a computed
//! value, recording state lives outside all result types, and without
//! the `enabled` cargo feature the whole crate compiles to
//! `#[inline(always)]` no-op stubs (the same discipline as
//! `seedmix::faultinject`, checked the same way in CI). A dedicated
//! test pins that E1–E12 CSV outputs are byte-identical with tracing
//! fully enabled.

pub mod jsonl;
pub mod metrics;
pub mod span;

/// Whether this build carries the live recorder (`enabled` feature).
/// Binaries use this to refuse `--trace-out`/`--metrics-out` loudly
/// instead of silently writing empty files.
#[inline(always)]
pub const fn compiled_in() -> bool {
    cfg!(feature = "enabled")
}

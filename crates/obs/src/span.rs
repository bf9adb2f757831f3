//! Structured spans: a thread-safe, allocation-light recorder for the
//! planning stack's execution tree.
//!
//! A span is opened with [`enter`] (or one of its variants), carries a
//! `&'static str` name, an optional 64-bit fingerprint `key`, an
//! optional `ord` (stable position in a batch or grid), an outcome,
//! and an attempt count. Closing the guard stamps a monotonic
//! duration and pushes the finished [`SpanRecord`] into a thread-local
//! buffer; [`drain`] collects every buffer into one id-ordered list.
//!
//! Design constraints (see DESIGN.md §12):
//!
//! * **No perturbation.** Recording never touches result values; the
//!   only shared-state writes are an id fetch-add and a push into an
//!   uncontended thread-local buffer. When the recorder is not
//!   [`arm`]ed, opening a span is a single relaxed atomic load.
//! * **Compiles out.** Without the `enabled` cargo feature every entry
//!   point here is an `#[inline(always)]` no-op stub, same discipline
//!   as `seedmix::faultinject`.
//! * **One clock.** [`timed_full`] is the single timing primitive; the
//!   stage-wall histogram (`ckpt_core::stage::traced`) and the engine's
//!   per-cell timings are derived from the nanosecond value it returns,
//!   so profiling and tracing can never disagree.
//!
//! [`SpanRecord`] itself (and the JSONL/canonicalizer helpers in
//! [`crate::jsonl`]) compile unconditionally: they are pure data and
//! are needed by tests that assert the *disabled* build records
//! nothing.

/// Terminal state of a span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanOutcome {
    /// Plain timed region; no resolution semantics.
    Ok,
    /// A memoized resolution that ran the stage function.
    Executed,
    /// A memoized resolution served from the store.
    Cached,
    /// The region surfaced an error.
    Failed,
    /// The region answered, but degraded (e.g. deadline hit mid-batch).
    Degraded,
}

impl SpanOutcome {
    /// Stable lowercase wire name used by the JSONL schema.
    pub fn name(self) -> &'static str {
        match self {
            SpanOutcome::Ok => "ok",
            SpanOutcome::Executed => "executed",
            SpanOutcome::Cached => "cached",
            SpanOutcome::Failed => "failed",
            SpanOutcome::Degraded => "degraded",
        }
    }

    /// Inverse of [`SpanOutcome::name`].
    pub fn parse(s: &str) -> Option<SpanOutcome> {
        Some(match s {
            "ok" => SpanOutcome::Ok,
            "executed" => SpanOutcome::Executed,
            "cached" => SpanOutcome::Cached,
            "failed" => SpanOutcome::Failed,
            "degraded" => SpanOutcome::Degraded,
            _ => return None,
        })
    }
}

/// A finished span. Ids are unique and monotone in creation order
/// within one process; `start_ns`/`dur_ns` are monotonic (not wall
/// clock) and are the only fields the trace-determinism canonicalizer
/// strips.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Unique creation-ordered id.
    pub id: u64,
    /// Enclosing span at open time, if any.
    pub parent: Option<u64>,
    /// Static site name, e.g. `"query"`, `"resolve.curve"`, `"stage.placement"`.
    pub name: &'static str,
    /// Fingerprint key of the artifact being resolved, if any.
    pub key: Option<u64>,
    /// Stable position in a batch/grid (query index, cell index).
    pub ord: Option<u64>,
    /// Terminal state.
    pub outcome: SpanOutcome,
    /// Stage-function attempts charged to this span (0 = none).
    pub attempts: u32,
    /// Monotonic open time, nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Where a new span attaches in the tree.
#[derive(Clone, Copy, Debug)]
pub enum Parent {
    /// Under the innermost open span on this thread (or a root if none).
    Current,
    /// Always a root, regardless of what is open on this thread.
    Root,
    /// Under an explicit span id (for cross-thread attachment).
    Under(u64),
}

#[cfg(feature = "enabled")]
mod live {
    use super::{Parent, SpanOutcome, SpanRecord};
    use std::cell::{Cell, OnceCell};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};
    use std::time::Instant;

    static ARMED: AtomicBool = AtomicBool::new(false);
    static NEXT_ID: AtomicU64 = AtomicU64::new(1);

    fn epoch() -> Instant {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        *EPOCH.get_or_init(Instant::now)
    }

    type Buffer = Arc<Mutex<Vec<SpanRecord>>>;

    fn sinks() -> &'static Mutex<Vec<Buffer>> {
        static SINKS: OnceLock<Mutex<Vec<Buffer>>> = OnceLock::new();
        SINKS.get_or_init(|| Mutex::new(Vec::new()))
    }

    thread_local! {
        static LOCAL: OnceCell<Buffer> = const { OnceCell::new() };
        static CURRENT: Cell<Option<u64>> = const { Cell::new(None) };
    }

    fn push(rec: SpanRecord) {
        LOCAL.with(|cell| {
            let buf = cell.get_or_init(|| {
                let buf: Buffer = Arc::new(Mutex::new(Vec::new()));
                sinks()
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(Arc::clone(&buf));
                buf
            });
            buf.lock().unwrap_or_else(|e| e.into_inner()).push(rec);
        });
    }

    /// Start recording. Clears any spans left over from a previous
    /// arm/drain cycle so traces never mix runs.
    pub fn arm() {
        for buf in sinks().lock().unwrap_or_else(|e| e.into_inner()).iter() {
            buf.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
        epoch();
        ARMED.store(true, Ordering::SeqCst);
    }

    /// Stop recording. Spans already buffered stay until [`drain`].
    pub fn disarm() {
        ARMED.store(false, Ordering::SeqCst);
    }

    /// Whether the recorder is currently armed.
    #[inline]
    pub fn armed() -> bool {
        ARMED.load(Ordering::Relaxed)
    }

    /// Collect all finished spans from every thread buffer, sorted by
    /// creation id, leaving the buffers empty.
    pub fn drain() -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for buf in sinks().lock().unwrap_or_else(|e| e.into_inner()).iter() {
            out.append(&mut buf.lock().unwrap_or_else(|e| e.into_inner()));
        }
        out.sort_by_key(|r| r.id);
        out
    }

    struct OpenSpan {
        id: u64,
        parent: Option<u64>,
        restore: Option<u64>,
        name: &'static str,
        key: Option<u64>,
        ord: Option<u64>,
        outcome: SpanOutcome,
        attempts: u32,
        opened: Instant,
        dur_override_ns: Option<u64>,
    }

    /// RAII handle for an in-flight span. Inert (zero work on drop)
    /// when the recorder was not armed at open time.
    pub struct SpanGuard {
        inner: Option<OpenSpan>,
    }

    impl SpanGuard {
        /// Id of the span, if recording.
        #[inline]
        pub fn id(&self) -> Option<u64> {
            self.inner.as_ref().map(|o| o.id)
        }

        /// Whether this guard will emit a record on drop.
        #[inline]
        pub fn active(&self) -> bool {
            self.inner.is_some()
        }

        /// Set the terminal outcome (default [`SpanOutcome::Ok`]).
        #[inline]
        pub fn set_outcome(&mut self, outcome: SpanOutcome) {
            if let Some(o) = self.inner.as_mut() {
                o.outcome = outcome;
            }
        }

        /// Set the attempt count charged to this span.
        #[inline]
        pub fn set_attempts(&mut self, attempts: u32) {
            if let Some(o) = self.inner.as_mut() {
                o.attempts = attempts;
            }
        }

        /// Pin the recorded duration to an externally measured value,
        /// so [`super::timed`] callers see the exact nanoseconds that
        /// land in the trace.
        #[inline]
        pub fn set_duration_ns(&mut self, nanos: u64) {
            if let Some(o) = self.inner.as_mut() {
                o.dur_override_ns = Some(nanos);
            }
        }
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            let Some(o) = self.inner.take() else { return };
            CURRENT.with(|c| c.set(o.restore));
            let dur_ns = o
                .dur_override_ns
                .unwrap_or_else(|| o.opened.elapsed().as_nanos() as u64);
            push(SpanRecord {
                id: o.id,
                parent: o.parent,
                name: o.name,
                key: o.key,
                ord: o.ord,
                outcome: o.outcome,
                attempts: o.attempts,
                start_ns: o.opened.duration_since(epoch()).as_nanos() as u64,
                dur_ns,
            });
        }
    }

    /// Full-control span constructor; prefer the `enter*` conveniences.
    pub fn open(
        name: &'static str,
        key: Option<u64>,
        ord: Option<u64>,
        parent: Parent,
    ) -> SpanGuard {
        if !armed() {
            return SpanGuard { inner: None };
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let restore = CURRENT.with(|c| c.get());
        let parent_id = match parent {
            Parent::Current => restore,
            Parent::Root => None,
            Parent::Under(p) => Some(p),
        };
        CURRENT.with(|c| c.set(Some(id)));
        SpanGuard {
            inner: Some(OpenSpan {
                id,
                parent: parent_id,
                restore,
                name,
                key,
                ord,
                outcome: SpanOutcome::Ok,
                attempts: 0,
                opened: Instant::now(),
                dur_override_ns: None,
            }),
        }
    }

    /// Run `f` inside a span and return `(result, nanoseconds)`. `f`
    /// gets the span's guard (to set its outcome). The nanoseconds are
    /// measured even when the recorder is unarmed, so profiling
    /// consumers (stage walls, per-cell timings) always see real
    /// durations while the feature is compiled in.
    pub fn timed_full<T>(
        name: &'static str,
        key: Option<u64>,
        ord: Option<u64>,
        parent: Parent,
        f: impl FnOnce(&mut SpanGuard) -> T,
    ) -> (T, u64) {
        let mut guard = open(name, key, ord, parent);
        let t0 = Instant::now();
        let out = f(&mut guard);
        let nanos = t0.elapsed().as_nanos() as u64;
        guard.set_duration_ns(nanos);
        (out, nanos)
    }
}

#[cfg(feature = "enabled")]
pub use live::{arm, armed, disarm, drain, open, timed_full, SpanGuard};

#[cfg(not(feature = "enabled"))]
mod stub {
    use super::{Parent, SpanOutcome, SpanRecord};

    /// No-op stand-in for the live guard; every method compiles away.
    pub struct SpanGuard {
        _priv: (),
    }

    impl SpanGuard {
        #[inline(always)]
        pub fn id(&self) -> Option<u64> {
            None
        }
        #[inline(always)]
        pub fn active(&self) -> bool {
            false
        }
        #[inline(always)]
        pub fn set_outcome(&mut self, _outcome: SpanOutcome) {}
        #[inline(always)]
        pub fn set_attempts(&mut self, _attempts: u32) {}
        #[inline(always)]
        pub fn set_duration_ns(&mut self, _nanos: u64) {}
    }

    #[inline(always)]
    pub fn arm() {}
    #[inline(always)]
    pub fn disarm() {}
    #[inline(always)]
    pub fn armed() -> bool {
        false
    }
    #[inline(always)]
    pub fn drain() -> Vec<SpanRecord> {
        Vec::new()
    }
    #[inline(always)]
    pub fn open(
        _name: &'static str,
        _key: Option<u64>,
        _ord: Option<u64>,
        _parent: Parent,
    ) -> SpanGuard {
        SpanGuard { _priv: () }
    }
    /// Disabled build: runs `f` with zero instrumentation and reports
    /// zero nanoseconds (profiling is part of the compiled-out layer).
    #[inline(always)]
    pub fn timed_full<T>(
        _name: &'static str,
        _key: Option<u64>,
        _ord: Option<u64>,
        _parent: Parent,
        f: impl FnOnce(&mut SpanGuard) -> T,
    ) -> (T, u64) {
        (f(&mut SpanGuard { _priv: () }), 0)
    }
}

#[cfg(not(feature = "enabled"))]
pub use stub::{arm, armed, disarm, drain, open, timed_full, SpanGuard};

/// Open a span under the current span on this thread.
#[inline(always)]
pub fn enter(name: &'static str) -> SpanGuard {
    open(name, None, None, Parent::Current)
}

/// Open a span carrying a fingerprint key, under the current span.
#[inline(always)]
pub fn enter_key(name: &'static str, key: u64) -> SpanGuard {
    open(name, Some(key), None, Parent::Current)
}

/// Open a root span with a batch position (batch members are roots by
/// construction, independent of which thread runs them).
#[inline(always)]
pub fn enter_root_ord(name: &'static str, ord: u64) -> SpanGuard {
    open(name, None, Some(ord), Parent::Root)
}

/// Time `f` in a span under the current span; returns `(result, ns)`.
#[inline(always)]
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    timed_full(name, None, None, Parent::Current, |_| f())
}

#[cfg(all(test, feature = "enabled"))]
mod live_tests {
    use super::*;
    use std::sync::Mutex;

    // The recorder is process-global; serialize tests that arm it.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn spans_nest_under_current_and_drain_in_id_order() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        arm();
        {
            let root = open("query", None, Some(3), Parent::Current);
            let root_id = root.id().unwrap();
            {
                let mut child = enter_key("resolve.curve", 0xfeed);
                child.set_outcome(SpanOutcome::Cached);
                assert_eq!(root_id + 1, child.id().unwrap());
            }
            let _sibling = enter("resolve.eval_analytic");
        }
        disarm();
        let spans = drain();
        assert_eq!(3, spans.len());
        assert!(spans.windows(2).all(|w| w[0].id < w[1].id));
        let root = spans.iter().find(|s| s.name == "query").unwrap();
        assert_eq!(None, root.parent);
        assert_eq!(Some(3), root.ord);
        for child in spans.iter().filter(|s| s.name != "query") {
            assert_eq!(Some(root.id), child.parent);
        }
        let cached = spans.iter().find(|s| s.name == "resolve.curve").unwrap();
        assert_eq!(SpanOutcome::Cached, cached.outcome);
        assert_eq!(Some(0xfeed), cached.key);
    }

    #[test]
    fn unarmed_spans_record_nothing_but_timed_still_measures() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        disarm();
        let _ = drain();
        let g = enter("stage.curve");
        assert!(!g.active());
        drop(g);
        let (v, ns) = timed("stage.schedule", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7u32
        });
        assert_eq!(7, v);
        assert!(ns >= 1_000_000, "timed must measure while compiled in");
        assert!(drain().is_empty());
    }

    #[test]
    fn arm_clears_leftovers_and_roots_ignore_current() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        arm();
        drop(enter("stale"));
        arm(); // re-arm wipes the stale span
        {
            let outer = enter("cell");
            let outer_id = outer.id().unwrap();
            let (_, ns) = timed_full("query", None, Some(0), Parent::Root, |_| ());
            let _ = ns;
            let _under = open("mc.reduce", None, None, Parent::Under(outer_id));
        }
        disarm();
        let spans = drain();
        assert!(spans.iter().all(|s| s.name != "stale"));
        let cell = spans.iter().find(|s| s.name == "cell").unwrap();
        let query = spans.iter().find(|s| s.name == "query").unwrap();
        let mc = spans.iter().find(|s| s.name == "mc.reduce").unwrap();
        assert_eq!(None, query.parent, "batch members are roots");
        assert_eq!(Some(cell.id), mc.parent, "explicit parent attaches");
    }

    #[test]
    fn cross_thread_buffers_all_drain() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        arm();
        std::thread::scope(|scope| {
            for t in 0..3u64 {
                scope.spawn(move || {
                    drop(enter_root_ord("query", t));
                });
            }
        });
        disarm();
        let spans = drain();
        assert_eq!(3, spans.len());
        let mut ords: Vec<_> = spans.iter().map(|s| s.ord.unwrap()).collect();
        ords.sort_unstable();
        assert_eq!(vec![0, 1, 2], ords);
    }
}

#[cfg(all(test, not(feature = "enabled")))]
mod stub_tests {
    use super::*;

    #[test]
    fn disabled_layer_is_inert() {
        arm();
        assert!(!armed());
        let mut g = enter("query");
        assert!(!g.active());
        assert_eq!(None, g.id());
        g.set_outcome(SpanOutcome::Failed);
        drop(g);
        let (v, ns) = timed("stage.curve", || 41 + 1);
        assert_eq!(42, v);
        assert_eq!(0, ns, "disabled build reports zero nanoseconds");
        assert!(drain().is_empty());
        disarm();
    }
}

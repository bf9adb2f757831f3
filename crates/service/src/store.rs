//! Fingerprint-keyed artifact memos, hardened against dying workers.
//!
//! A [`Memo`] maps a 64-bit input fingerprint to one immutable
//! artifact. Because every pipeline stage is a *pure* function of the
//! fingerprinted inputs (see `ckpt_core::stage`), a memo hit is always
//! sound — the cached artifact is bit-identical to what a recompute
//! would produce — and eviction can never change a result, only cost a
//! recompute. That is what lets the bounded cache stay exact.
//!
//! ## Slot state machine
//!
//! The map hands out per-key `Arc<Slot>`s under a brief mutex; racing
//! workers then synchronize on the *slot*, not the map. Each slot is an
//! explicit state machine (`Idle → InFlight → Done | Failed`) driven
//! under its own mutex + condvar:
//!
//! * exactly one worker computes at a time (`InFlight`); waiters block
//!   on the condvar (with a periodic timeout re-check, so even a lost
//!   wakeup could only cost milliseconds, never a hang);
//! * the compute closure runs under `catch_unwind` — a worker that
//!   **panics** (a genuine bug or an injected fault) marks the slot
//!   `Idle` again and the next caller *takes over* with its own
//!   closure (pure-function contract: any caller's closure computes
//!   the same artifact), up to [`MAX_ATTEMPTS`] total failures;
//! * at the attempt bound the slot turns terminally `Failed` and the
//!   key is **removed from the map** — waiters already parked on the
//!   slot get the typed error, while any later query starts a fresh
//!   slot. The store self-heals: once a transient fault source clears,
//!   answers are byte-identical to a cold session's, because nothing
//!   partial or failed is ever served from the map;
//! * a **cancelled** worker (deadline unwind, see `ckpt_core::budget`)
//!   is not a failure: the slot returns to `Idle` with its failure
//!   count untouched and the canceller alone observes
//!   `PlanError::Cancelled` — one query's deadline never degrades
//!   another query's cache;
//! * deterministic errors (`InvalidInput`, `Numeric`) skip retry
//!   entirely — re-running the same pure closure cannot change them.
//!
//! Every mutex acquisition recovers from poisoning
//! (`unwrap_or_else(|e| e.into_inner())`): all state transitions are
//! whole-value assignments, so a worker dying between transitions can
//! strand no invariant, and one dying worker must never take the whole
//! store's observers down with it.
//!
//! ## Eviction
//!
//! Eviction is deterministic least-recently-used: a monotone clock
//! stamps every access under the same lock, so for a given (serial)
//! access sequence the evicted keys are a pure function of that
//! sequence — no randomness, no dependence on hash iteration order
//! (clock stamps are unique, so the LRU minimum is too).
//!
//! A bounded memo finds that minimum through a *lazy* index, an ordered
//! map from stamp to key, so that a hit stays one stamp write and a miss
//! costs O(log n) amortized instead of a scan of the whole map. The
//! index holds exactly one entry per key, filed at a stamp no later than
//! the key's `last_use`: a hit moves `last_use` and leaves the index
//! alone. To evict, pop the index's minimum `(s, k)`. If `s` is `k`'s
//! `last_use`, `k` is the victim; otherwise re-file `k` at its
//! `last_use` and pop again.
//!
//! *Proof that this evicts the scan's victim.* Say the pop returns
//! `(s, k)` with `s = last_use(k)`. Every other key `k'` has its one
//! entry at some `s' > s` (stamps are unique, and `s` was the minimum),
//! and `last_use(k') ≥ s'`, so `last_use(k') > last_use(k)`: `k` is the
//! unique least-recently-used key, the one a scan over the map picks.
//! Re-filing keeps the invariant (the new entry's stamp is exactly
//! `last_use`), and each key is re-filed at most once per eviction, so
//! the loop ends. The key just inserted holds the newest stamp and is
//! never the victim, as in the scan, which skips it. Removing a failed
//! slot and clearing the memo drop the index entries with the keys.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use ckpt_core::budget::Cancelled;
use ckpt_core::{Assessment, PlanError, PlanResult, StageId};
use obs::span::SpanOutcome;

use crate::tracker::Outcome;

/// Total compute failures (panics or injected stage errors) tolerated
/// per slot before it turns terminally [`SlotState::Failed`]. Three
/// means: the original attempt plus two retries — enough to ride out
/// sparse injected faults, small enough that a deterministic crasher
/// fails fast.
pub const MAX_ATTEMPTS: u32 = 3;

/// How long a waiter parks on the slot condvar before re-checking the
/// state. Purely defensive: the protocol always notifies, so this
/// bounds the cost of a hypothetical lost wakeup without ever being the
/// mechanism that makes progress.
const WAIT_RECHECK: Duration = Duration::from_millis(50);

enum SlotState<V> {
    /// Nobody computing; the next caller takes over. `failures` counts
    /// compute failures accumulated across takeovers.
    Idle { failures: u32 },
    /// One worker is running the compute closure. (The worker tracks
    /// the accumulated failure count in a local — nobody else reads it
    /// until the slot leaves this state.)
    InFlight,
    /// The artifact is ready; served to every caller forever.
    Done(Arc<V>),
    /// Terminal: the error every parked waiter receives. The key is
    /// removed from the map at this transition, so fresh queries
    /// recompute on a new slot instead of inheriting the corpse.
    Failed(PlanError),
}

struct Slot<V> {
    state: Mutex<SlotState<V>>,
    cv: Condvar,
}

impl<V> Slot<V> {
    fn new() -> Self {
        Slot {
            state: Mutex::new(SlotState::Idle { failures: 0 }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, SlotState<V>> {
        // Poison recovery: transitions are whole-value assignments, so
        // the state is valid even if a holder died (it cannot — no user
        // code runs under this lock — but the store must not assume).
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

struct Entry<V> {
    slot: Arc<Slot<V>>,
    last_use: u64,
    /// This key's stamp in the LRU index (`≤ last_use`; bounded memos
    /// only).
    filed: u64,
}

struct Inner<V> {
    map: HashMap<u64, Entry<V>>,
    /// The lazy LRU index of a bounded memo: stamp → key, one entry per
    /// key, at its `Entry::filed` (see the module docs). Empty when
    /// unbounded.
    lru: BTreeMap<u64, u64>,
    clock: u64,
}

impl<V> Inner<V> {
    /// Removes and returns the least-recently-used key other than the
    /// newest, re-filing stale index entries on the way (see the module
    /// docs for why this is the scan's victim).
    fn evict_lru(&mut self) -> Option<u64> {
        while let Some((stamp, key)) = self.lru.pop_first() {
            let e = self
                .map
                .get_mut(&key)
                .expect("the LRU index tracks the map");
            if e.last_use == stamp {
                self.map.remove(&key);
                return Some(key);
            }
            e.filed = e.last_use;
            self.lru.insert(e.last_use, key);
        }
        None
    }

    /// Drops `key` and its index entry.
    fn remove(&mut self, key: u64) {
        if let Some(e) = self.map.remove(&key) {
            self.lru.remove(&e.filed);
        }
    }
}

/// Hit/miss/eviction/failure counters of one [`Memo`] (monotone; read
/// with [`Memo::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Accesses that found an existing entry (the artifact may still
    /// have been mid-computation by another worker).
    pub hits: u64,
    /// Accesses that created the entry and ran the compute closure.
    pub misses: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
    /// Compute attempts that started on a slot carrying prior failures
    /// (bounded-retry activity; see [`MAX_ATTEMPTS`]).
    pub retries: u64,
    /// Computes claimed by a caller that had first parked behind
    /// another worker (waiter takeover after a death or cancellation).
    pub takeovers: u64,
    /// Slots that turned terminally failed (and were removed).
    pub failures: u64,
}

impl MemoStats {
    /// Field-wise accumulation (the store's totals row).
    pub fn absorb(&mut self, other: MemoStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.retries += other.retries;
        self.takeovers += other.takeovers;
        self.failures += other.failures;
    }
}

impl std::fmt::Display for MemoStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits={} misses={} evictions={} retries={} takeovers={} failures={}",
            self.hits, self.misses, self.evictions, self.retries, self.takeovers, self.failures
        )
    }
}

/// How one compute attempt ended (internal classification of closure
/// results and caught unwinds).
enum Attempt<V> {
    Value(V),
    /// Budget unwind — not a failure, not retried here.
    Cancelled,
    /// Deterministic error: retry cannot help.
    Fatal(PlanError),
    /// Panic or injected stage error: retryable until [`MAX_ATTEMPTS`].
    Transient(String),
}

/// A bounded, concurrent, fingerprint-keyed artifact cache.
pub struct Memo<V> {
    inner: Mutex<Inner<V>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    retries: AtomicU64,
    takeovers: AtomicU64,
    failures: AtomicU64,
}

/// Cached handle for the budget-cancellation counter (resolved once;
/// inert without the `observe` feature).
fn cancellations_total() -> &'static obs::metrics::Counter {
    static C: std::sync::OnceLock<obs::metrics::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| obs::metrics::counter("ckpt_cancellations_total"))
}

/// Cached handle for the fault-injection firing counter. Injected
/// faults are recognized at the memo boundary by the `faultinject:`
/// panic/message prefix — the same marker the chaos tests key on.
fn fault_injections_total() -> &'static obs::metrics::Counter {
    static C: std::sync::OnceLock<obs::metrics::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| obs::metrics::counter("ckpt_fault_injections_total"))
}

impl<V> Memo<V> {
    /// Unbounded memo (no eviction).
    pub fn new() -> Self {
        Self::bounded(0)
    }

    /// Memo holding at most `capacity` entries (`0` = unbounded),
    /// evicting the least-recently-used entry on overflow.
    pub fn bounded(capacity: usize) -> Self {
        Memo {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                lru: BTreeMap::new(),
                clock: 0,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            takeovers: AtomicU64::new(0),
            failures: AtomicU64::new(0),
        }
    }

    fn lock_inner(&self) -> MutexGuard<'_, Inner<V>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The slot for `key`, creating (and LRU-evicting) as needed. A hit
    /// writes the key's stamp only; a miss of a bounded memo files the
    /// key in the LRU index and, over capacity, evicts through it.
    fn slot(&self, key: u64) -> Arc<Slot<V>> {
        let mut g = self.lock_inner();
        g.clock += 1;
        let now = g.clock;
        if let Some(e) = g.map.get_mut(&key) {
            e.last_use = now;
            self.hits.fetch_add(1, Ordering::Relaxed);
            e.slot.clone()
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            let slot = Arc::new(Slot::new());
            g.map.insert(
                key,
                Entry {
                    slot: slot.clone(),
                    last_use: now,
                    filed: now,
                },
            );
            if self.capacity > 0 {
                g.lru.insert(now, key);
                if g.map.len() > self.capacity && g.evict_lru().is_some() {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
            slot
        }
    }

    /// Removes `key` iff it still points at `slot` (a terminally failed
    /// slot must not knock out a fresh successor entry).
    fn remove_slot(&self, key: u64, slot: &Arc<Slot<V>>) {
        let mut g = self.lock_inner();
        if g.map.get(&key).is_some_and(|e| Arc::ptr_eq(&e.slot, slot)) {
            g.remove(key);
        }
    }

    /// Runs one compute attempt under `catch_unwind` and classifies the
    /// outcome. `AssertUnwindSafe` is justified by the purity contract:
    /// the closure owns no state that outlives it except through the
    /// slot, whose transitions are whole-value assignments.
    fn run_attempt(f: &impl Fn() -> PlanResult<V>) -> Attempt<V> {
        let attempt = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Attempt::Value(v),
            Ok(Err(PlanError::Cancelled)) => Attempt::Cancelled,
            Ok(Err(e @ (PlanError::InvalidInput { .. } | PlanError::Numeric { .. }))) => {
                Attempt::Fatal(e)
            }
            Ok(Err(PlanError::StageFailed { message, .. })) => Attempt::Transient(message),
            Err(payload) => {
                if Cancelled::caught(payload.as_ref()) {
                    Attempt::Cancelled
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    Attempt::Transient(s.clone())
                } else if let Some(s) = payload.downcast_ref::<&str>() {
                    Attempt::Transient((*s).to_string())
                } else {
                    Attempt::Transient("panic with non-string payload".to_string())
                }
            }
        };
        // Metric classification rides on the same funnel that already
        // sees every attempt outcome; it never alters the attempt.
        match &attempt {
            Attempt::Cancelled => cancellations_total().inc(),
            Attempt::Transient(message)
                if message.starts_with(seedmix::faultinject::PANIC_PREFIX) =>
            {
                fault_injections_total().inc()
            }
            _ => {}
        }
        attempt
    }

    /// The artifact of `stage` under `key`, computing it with `f` on
    /// first access — the one way into a memo.
    ///
    /// `f` must be a pure function of the content `key` fingerprints —
    /// the whole soundness story rests on that contract; it is also
    /// what makes waiter takeover sound (any caller's closure computes
    /// the same artifact) and why `f` is `Fn`, not `FnOnce`: a caller
    /// whose attempt fails retries with the same closure.
    ///
    /// At most one worker computes per slot at a time. A worker that
    /// panics or returns [`PlanError::StageFailed`] yields the slot for
    /// retry/takeover; after [`MAX_ATTEMPTS`] total failures the slot
    /// is terminally failed, every parked waiter gets the error, and
    /// the key is removed so later queries recompute fresh. A
    /// [`PlanError::Cancelled`] unwind returns the slot untouched to
    /// `Idle` and surfaces only to the cancelled caller. Nothing is
    /// ever served from a slot except a fully computed artifact.
    /// `stage` labels errors built from caught panics.
    ///
    /// The resolution is one `"resolve.<stage>"` span carrying the key,
    /// the outcome and this caller's attempt count (stage spans from
    /// `f` nest under it). The returned [`Outcome`] — `Executed` iff
    /// this caller's closure produced the artifact — is what a
    /// [`crate::Tracker`] records.
    pub fn resolve(
        &self,
        stage: StageId,
        key: u64,
        f: impl Fn() -> PlanResult<V>,
    ) -> (PlanResult<Arc<V>>, Outcome) {
        let mut span = obs::span::enter_key(stage.resolve_site(), key);
        // How this caller was served: per-caller and scheduling-dependent,
        // so it feeds the span and the outcome, never the shared artifact.
        let mut attempts = 0u32;
        let mut waited = false;
        let mut executed = false;
        let res = {
            let slot = self.slot(key);
            let mut g = slot.lock();
            loop {
                let prior = match &*g {
                    SlotState::Done(v) => break Ok(v.clone()),
                    SlotState::Failed(e) => break Err(e.clone()),
                    SlotState::InFlight => {
                        waited = true;
                        // Timed re-check instead of a bare wait: progress
                        // never depends on a notification arriving.
                        let (guard, _timeout) = slot
                            .cv
                            .wait_timeout(g, WAIT_RECHECK)
                            .unwrap_or_else(|e| e.into_inner());
                        g = guard;
                        continue;
                    }
                    SlotState::Idle { failures } => *failures,
                };
                *g = SlotState::InFlight;
                drop(g);
                if prior > 0 {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                }
                if waited {
                    self.takeovers.fetch_add(1, Ordering::Relaxed);
                }
                attempts += 1;
                let attempt = Self::run_attempt(&f);
                g = slot.lock();
                let terminal = match attempt {
                    Attempt::Value(v) => {
                        executed = true;
                        let v = Arc::new(v);
                        *g = SlotState::Done(v.clone());
                        slot.cv.notify_all();
                        break Ok(v);
                    }
                    Attempt::Cancelled => {
                        // Not a fault: hand the slot back untouched so a
                        // waiter with a live budget takes over.
                        *g = SlotState::Idle { failures: prior };
                        slot.cv.notify_all();
                        break Err(PlanError::Cancelled);
                    }
                    Attempt::Fatal(e) => e,
                    Attempt::Transient(message) => {
                        let failures = prior + 1;
                        if failures < MAX_ATTEMPTS {
                            *g = SlotState::Idle { failures };
                            slot.cv.notify_all();
                            // Retry with our own closure (a waiter may
                            // beat us to the takeover, and then we park).
                            continue;
                        }
                        PlanError::StageFailed {
                            stage,
                            message,
                            attempts: failures,
                        }
                    }
                };
                *g = SlotState::Failed(terminal.clone());
                drop(g);
                self.failures.fetch_add(1, Ordering::Relaxed);
                self.remove_slot(key, &slot);
                slot.cv.notify_all();
                break Err(terminal);
            }
        };
        let outcome = match &res {
            // `e.attempts()` is the memo layer's total across takeovers
            // (what the error surfaced), not just this caller's runs.
            Err(e) => Outcome::Failed {
                attempts: e.attempts(),
                kind: e.kind(),
            },
            Ok(_) if executed => Outcome::Executed,
            Ok(_) => Outcome::Cached,
        };
        span.set_attempts(attempts);
        span.set_outcome(match outcome {
            Outcome::Executed => SpanOutcome::Executed,
            Outcome::Cached => SpanOutcome::Cached,
            Outcome::Failed { .. } => SpanOutcome::Failed,
        });
        (res, outcome)
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.lock_inner().map.len()
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The keys held, and a check of the LRU index invariant: one
    /// entry per key, filed at a stamp no later than its `last_use`.
    #[cfg(test)]
    fn keys_checked(&self) -> std::collections::BTreeSet<u64> {
        let g = self.lock_inner();
        if self.capacity > 0 {
            assert_eq!(g.lru.len(), g.map.len(), "one index entry per key");
            for (&stamp, key) in &g.lru {
                let e = &g.map[key];
                assert!(e.filed == stamp && stamp <= e.last_use);
            }
        }
        g.map.keys().copied().collect()
    }

    /// Snapshot of the access counters.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            takeovers: self.takeovers.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
        }
    }

    /// Drops every entry (counters keep accumulating).
    pub fn clear(&self) {
        let mut g = self.lock_inner();
        g.map.clear();
        g.lru.clear();
    }
}

impl<V> Default for Memo<V> {
    fn default() -> Self {
        Self::new()
    }
}

/// One memo per [`StageId`] — the session's shared store.
///
/// Keys are *stage-input fingerprints* (see `ckpt_core::fingerprint`
/// and the composition scheme in [`crate::session`]); values are the
/// immutable stage artifacts. Sessions share a store via `Arc`, so a
/// fleet of sessions over the same workflow family pools artifacts.
pub struct Store {
    /// Generated (and CCR-scaled) workflows with their fingerprints.
    pub workflows: Memo<WorkflowArtifact>,
    /// Algorithm 1 schedules, checked once, with their failure-free
    /// parallel times (`ckpt_core::ScheduleArtifact`).
    pub schedules: Memo<ckpt_core::ScheduleArtifact>,
    /// Renewal restart curves (`None` = memoryless/never-failing).
    pub curves: Memo<Option<ckpt_core::RestartCurve>>,
    /// The exact DP's model-free segment-cost tables
    /// (`ckpt_core::SegmentTables`): keyed on what the fill reads, so
    /// every failure model's DP placement minimizes on one.
    pub costs: Memo<ckpt_core::SegmentTables>,
    /// Checkpoint plans with their fingerprints.
    pub plans: Memo<PlanArtifact>,
    /// Model-free segment topologies (`ckpt_core::coalesce_topology`):
    /// keyed on what they read, so the placements of many failure
    /// models share one.
    pub graphs: Memo<ckpt_core::SegmentGraph>,
    /// Analytic assessments: expected makespan plus the placement
    /// census and failure-free parallel time an answer reports.
    pub evals: Memo<Assessment>,
    /// Monte Carlo ground-truth estimates.
    pub sims: Memo<failsim::McStats>,
}

/// A workflow together with its content fingerprint and summary
/// statistics (computed once, reused by every downstream key
/// derivation and model calibration).
pub struct WorkflowArtifact {
    /// The workflow itself.
    pub workflow: mspg::Workflow,
    /// Its two-part content fingerprint.
    pub fp: ckpt_core::WorkflowFp,
    /// Mean task weight (the calibrated model families read it on
    /// every query).
    pub mean_weight: f64,
}

impl WorkflowArtifact {
    /// Fingerprints and summarizes `workflow`.
    pub fn new(workflow: mspg::Workflow) -> Self {
        let fp = ckpt_core::workflow_fp(&workflow);
        let mean_weight = workflow.dag.mean_weight();
        WorkflowArtifact {
            workflow,
            fp,
            mean_weight,
        }
    }
}

/// A checkpoint plan together with its fingerprint, which keys the
/// segment topology: computed once with the plan, so a warm answer
/// never hashes the plan's per-task flags.
pub struct PlanArtifact {
    /// The plan.
    pub plan: ckpt_core::CheckpointPlan,
    /// `ckpt_core::plan_fp` of the plan.
    pub fp: u64,
}

/// Aggregated statistics of a whole [`Store`]: the totals row plus a
/// per-memo breakdown, in stage order. Printed by
/// `whatif --stats` and exported to the metrics registry by
/// [`Store::export_metrics`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Sum over every memo.
    pub totals: MemoStats,
    /// `(memo name, its counters)`, stage-ordered.
    pub per_memo: Vec<(&'static str, MemoStats)>,
}

impl std::fmt::Display for StoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "store: {}", self.totals)?;
        for (name, stats) in &self.per_memo {
            writeln!(f, "  {name}: {stats}")?;
        }
        Ok(())
    }
}

impl Store {
    /// Unbounded store.
    pub fn new() -> Self {
        Self::bounded(0)
    }

    /// Store whose memos each hold at most `capacity` entries
    /// (`0` = unbounded), evicting LRU.
    pub fn bounded(capacity: usize) -> Self {
        Store {
            workflows: Memo::bounded(capacity),
            schedules: Memo::bounded(capacity),
            curves: Memo::bounded(capacity),
            costs: Memo::bounded(capacity),
            plans: Memo::bounded(capacity),
            graphs: Memo::bounded(capacity),
            evals: Memo::bounded(capacity),
            sims: Memo::bounded(capacity),
        }
    }

    /// Snapshot of every memo's counters plus the totals row, one row
    /// per [`StageId`] in stage order.
    pub fn stats(&self) -> StoreStats {
        let per_memo: Vec<(&'static str, MemoStats)> = vec![
            ("workflows", self.workflows.stats()),
            ("schedules", self.schedules.stats()),
            ("curves", self.curves.stats()),
            ("costs", self.costs.stats()),
            ("plans", self.plans.stats()),
            ("graphs", self.graphs.stats()),
            ("evals", self.evals.stats()),
            ("sims", self.sims.stats()),
        ];
        let mut totals = MemoStats::default();
        for (_, s) in &per_memo {
            totals.absorb(*s);
        }
        StoreStats { totals, per_memo }
    }

    /// Copies the store's counters into the global metrics registry as
    /// `ckpt_store_*_total{memo="..."}` series. The counters are
    /// monotone snapshots: call once per run, at dump time (repeated
    /// calls would double-count). Inert without the `observe` feature.
    pub fn export_metrics(&self) {
        for (name, s) in self.stats().per_memo {
            obs::metrics::labeled_counter("ckpt_store_hits_total", "memo", name).add(s.hits);
            obs::metrics::labeled_counter("ckpt_store_misses_total", "memo", name).add(s.misses);
            obs::metrics::labeled_counter("ckpt_store_evictions_total", "memo", name)
                .add(s.evictions);
            obs::metrics::labeled_counter("ckpt_store_retries_total", "memo", name).add(s.retries);
            obs::metrics::labeled_counter("ckpt_store_takeovers_total", "memo", name)
                .add(s.takeovers);
            obs::metrics::labeled_counter("ckpt_store_terminal_failures_total", "memo", name)
                .add(s.failures);
        }
    }
}

impl Default for Store {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::atomic::AtomicUsize;

    /// The artifact of an infallible resolution.
    fn get(memo: &Memo<u64>, key: u64, f: impl Fn() -> u64) -> Arc<u64> {
        memo.resolve(StageId::Generate, key, || Ok(f()))
            .0
            .expect("an infallible closure resolves")
    }

    #[test]
    fn computes_once_per_key() {
        let memo: Memo<u64> = Memo::new();
        let calls = Cell::new(0);
        let mut outcomes = Vec::new();
        for _ in 0..3 {
            let (v, outcome) = memo.resolve(StageId::Curve, 7, || {
                calls.set(calls.get() + 1);
                Ok(42)
            });
            assert_eq!(*v.unwrap(), 42);
            outcomes.push(outcome);
        }
        assert_eq!(calls.get(), 1);
        // Who computed it: this caller first, the store after.
        let expected = [Outcome::Executed, Outcome::Cached, Outcome::Cached];
        assert_eq!(expected.to_vec(), outcomes);
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (2, 1, 0));
    }

    #[test]
    fn lru_eviction_is_deterministic() {
        let memo: Memo<u64> = Memo::bounded(2);
        get(&memo, 1, || 1);
        get(&memo, 2, || 2);
        get(&memo, 1, || 1); // touch 1 → 2 is now LRU
        get(&memo, 3, || 3); // evicts 2
        assert_eq!(memo.len(), 2);
        let recomputed = Cell::new(false);
        get(&memo, 2, || {
            recomputed.set(true);
            2
        });
        assert!(recomputed.get(), "evicted key must recompute");
        let recomputed1 = Cell::new(false);
        get(&memo, 1, || {
            recomputed1.set(true);
            1
        });
        // 1 was evicted when 2 was re-inserted (LRU at that point was 3?
        // no: after inserting 2 the map held {1,3,2} → evict LRU(1)).
        assert!(recomputed1.get());
        assert!(memo.stats().evictions >= 2);
    }

    /// The O(n) scan the lazy LRU index replaced, kept as its
    /// reference: the same clock, and the victim is the key with the
    /// least `last_use` other than the one just inserted.
    struct ScanLru {
        last_use: HashMap<u64, u64>,
        clock: u64,
        capacity: usize,
        stats: MemoStats,
    }

    impl ScanLru {
        /// One access of `key`; returns the key it evicted, if any.
        fn access(&mut self, key: u64) -> Option<u64> {
            self.clock += 1;
            if let Some(t) = self.last_use.get_mut(&key) {
                *t = self.clock;
                self.stats.hits += 1;
                return None;
            }
            self.stats.misses += 1;
            self.last_use.insert(key, self.clock);
            if self.capacity == 0 || self.last_use.len() <= self.capacity {
                return None;
            }
            let victim = self
                .last_use
                .iter()
                .filter(|&(&k, _)| k != key)
                .min_by_key(|&(_, &t)| t)
                .map(|(&k, _)| k);
            if let Some(k) = victim {
                self.last_use.remove(&k);
                self.stats.evictions += 1;
            }
            victim
        }
    }

    /// Random resolutions, terminal failures and clears drive a bounded
    /// memo and the scan side by side: the same victims in the same
    /// order, the same keys at the end, the same counters.
    #[test]
    fn lazy_lru_index_evicts_what_the_scan_evicts() {
        for capacity in [1usize, 2, 3, 8] {
            for seed in 0..16u64 {
                let memo: Memo<u64> = Memo::bounded(capacity);
                let mut scan = ScanLru {
                    last_use: HashMap::new(),
                    clock: 0,
                    capacity,
                    stats: MemoStats::default(),
                };
                let (mut victims, mut want_victims) = (Vec::new(), Vec::new());
                for i in 0..400u64 {
                    let r = seedmix::derive(seed, &[capacity as u64, i]);
                    let key = r % (3 * capacity as u64 + 2);
                    let before = memo.keys_checked();
                    match (r >> 32) % 25 {
                        0 => {
                            memo.clear();
                            scan.last_use.clear();
                            assert!(memo.keys_checked().is_empty());
                            continue;
                        }
                        1..=4 => {
                            let fail = || Err(PlanError::invalid("key", "refused"));
                            let (res, _) = memo.resolve(StageId::Generate, key, fail);
                            let held = scan.last_use.contains_key(&key);
                            want_victims.extend(scan.access(key));
                            if !held {
                                assert!(res.is_err());
                                scan.last_use.remove(&key);
                                scan.stats.failures += 1;
                            }
                        }
                        _ => {
                            get(&memo, key, || key);
                            want_victims.extend(scan.access(key));
                        }
                    }
                    let after = memo.keys_checked();
                    victims.extend(before.difference(&after).filter(|&&k| k != key));
                    let want: std::collections::BTreeSet<u64> =
                        scan.last_use.keys().copied().collect();
                    assert_eq!(want, after, "capacity {capacity} seed {seed} op {i}");
                }
                let what = format!("capacity {capacity} seed {seed}");
                assert_eq!(want_victims, victims, "{what}");
                let want: std::collections::BTreeSet<u64> = scan.last_use.keys().copied().collect();
                assert_eq!(want, memo.keys_checked(), "{what}");
                assert_eq!(scan.stats, memo.stats(), "{what}");
            }
        }
    }

    #[test]
    fn eviction_never_changes_values() {
        // With capacity 1 every access but the first evicts, yet the
        // values are always what the pure closure yields.
        let memo: Memo<u64> = Memo::bounded(1);
        for round in 0..3 {
            for k in 0..4u64 {
                let v = get(&memo, k, || k * 10);
                assert_eq!(*v, k * 10, "round {round}");
            }
        }
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn concurrent_same_key_executes_once() {
        let memo: Memo<u64> = Memo::new();
        let calls = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let v = get(&memo, 99, || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(5));
                        7
                    });
                    assert_eq!(*v, 7);
                });
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let memo: Memo<u64> = Memo::new();
        get(&memo, 1, || 1);
        memo.clear();
        assert!(memo.is_empty());
        assert_eq!(memo.stats().misses, 1);
    }

    #[test]
    fn panicking_closure_is_retried_then_succeeds() {
        let memo: Memo<u64> = Memo::new();
        let calls = Cell::new(0u32);
        let v = memo
            .resolve(StageId::Placement, 5, || {
                calls.set(calls.get() + 1);
                if calls.get() == 1 {
                    panic!("injected first-attempt death");
                }
                Ok(13)
            })
            .0
            .expect("retry must recover a transient panic");
        assert_eq!(*v, 13);
        assert_eq!(calls.get(), 2);
        assert_eq!(memo.stats().failures, 0, "recovered, not terminal");
    }

    #[test]
    fn persistent_panic_turns_terminal_and_self_heals() {
        let memo: Memo<u64> = Memo::new();
        let calls = Cell::new(0u32);
        let err = memo
            .resolve(StageId::Curve, 5, || -> PlanResult<u64> {
                calls.set(calls.get() + 1);
                panic!("always dies");
            })
            .0
            .unwrap_err();
        assert_eq!(calls.get(), MAX_ATTEMPTS);
        match &err {
            PlanError::StageFailed {
                stage,
                message,
                attempts,
            } => {
                assert_eq!(*stage, StageId::Curve);
                assert_eq!(*attempts, MAX_ATTEMPTS);
                assert!(message.contains("always dies"));
            }
            other => panic!("expected StageFailed, got {other}"),
        }
        assert_eq!(memo.stats().failures, 1);
        // Self-healing: the key was removed, so once the fault source
        // clears the next access recomputes fresh and succeeds.
        assert!(memo.is_empty());
        let v = memo.resolve(StageId::Curve, 5, || Ok(99)).0.unwrap();
        assert_eq!(*v, 99);
    }

    #[test]
    fn deterministic_errors_are_not_retried() {
        let memo: Memo<u64> = Memo::new();
        let calls = Cell::new(0u32);
        let err = memo
            .resolve(StageId::Schedule, 1, || {
                calls.set(calls.get() + 1);
                Err(PlanError::invalid("procs", "zero"))
            })
            .0
            .unwrap_err();
        assert_eq!(calls.get(), 1, "InvalidInput must not retry");
        assert!(matches!(err, PlanError::InvalidInput { .. }));
        assert!(memo.is_empty(), "failed key must not linger");
    }

    #[test]
    fn cancellation_leaves_the_slot_reusable_and_uncounted() {
        let memo: Memo<u64> = Memo::new();
        let err = memo
            .resolve(StageId::Placement, 3, || -> PlanResult<u64> {
                ckpt_core::Cancelled::throw()
            })
            .0
            .unwrap_err();
        assert_eq!(err, PlanError::Cancelled);
        assert_eq!(memo.stats().failures, 0);
        // A later caller with a live budget computes normally.
        let v = memo.resolve(StageId::Placement, 3, || Ok(8)).0.unwrap();
        assert_eq!(*v, 8);
    }

    #[test]
    fn waiters_take_over_after_the_first_worker_dies() {
        // The memo-slot abandonment regression (see also the
        // robustness integration suite for the full thread matrix):
        // worker 0 panics mid-compute; concurrent waiters on the same
        // key must still obtain the correct value via takeover.
        let memo: Memo<u64> = Memo::new();
        let deaths = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let (r, _) = memo.resolve(StageId::EvalAnalytic, 77, || {
                        if deaths.fetch_add(1, Ordering::SeqCst) == 0 {
                            panic!("first worker dies");
                        }
                        Ok(1234)
                    });
                    // The dying worker itself retries (its closure only
                    // panics once), so every caller ends with the value.
                    assert_eq!(*r.expect("takeover must recover"), 1234);
                });
            }
        });
    }

    #[test]
    fn a_transient_death_counts_one_retry_and_two_attempts() {
        let memo: Memo<u64> = Memo::new();
        let calls = Cell::new(0u32);
        let (v, outcome) = memo.resolve(StageId::Placement, 5, || {
            calls.set(calls.get() + 1);
            if calls.get() == 1 {
                panic!("first-attempt death");
            }
            Ok(13)
        });
        assert_eq!(*v.unwrap(), 13);
        assert_eq!(Outcome::Executed, outcome);
        assert_eq!(2, calls.get(), "failed attempt + successful retry");
        let s = memo.stats();
        assert_eq!(1, s.retries);
        assert_eq!(0, s.takeovers, "same caller retried; nobody waited");
    }

    #[test]
    fn a_waiter_that_claims_the_slot_counts_as_takeover() {
        let memo: Memo<u64> = Memo::new();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                // The closure runs strictly after the slot turns
                // InFlight, so the barrier guarantees the main thread
                // can only ever observe InFlight and park.
                let (r, _) = memo.resolve(StageId::Curve, 1, || -> PlanResult<u64> {
                    barrier.wait();
                    std::thread::sleep(Duration::from_millis(30));
                    ckpt_core::Cancelled::throw()
                });
                assert_eq!(r.unwrap_err(), PlanError::Cancelled);
            });
            barrier.wait();
            let (v, outcome) = memo.resolve(StageId::Curve, 1, || Ok(77));
            assert_eq!(*v.unwrap(), 77);
            assert_eq!(
                Outcome::Executed,
                outcome,
                "parked, then claimed the compute"
            );
        });
        assert_eq!(
            1,
            memo.stats().takeovers,
            "must have parked behind the canceller"
        );
        assert_eq!(0, memo.stats().retries, "cancellation is not a failure");
    }

    #[test]
    fn store_stats_aggregates_every_memo_with_a_totals_row() {
        let store = Store::new();
        for _ in 0..2 {
            // A miss, then a hit.
            store
                .curves
                .resolve(StageId::Curve, 1, || Ok(None))
                .0
                .unwrap();
        }
        let sim = || Ok(failsim::McStats::default());
        store.sims.resolve(StageId::EvalMc, 2, sim).0.unwrap();
        let s = store.stats();
        let names: Vec<&str> = s.per_memo.iter().map(|&(name, _)| name).collect();
        assert_eq!(
            vec![
                "workflows",
                "schedules",
                "curves",
                "costs",
                "plans",
                "graphs",
                "evals",
                "sims"
            ],
            names,
            "one row per stage, in stage order"
        );
        assert_eq!(StageId::ALL.len(), s.per_memo.len());
        assert_eq!(1, s.totals.hits);
        assert_eq!(2, s.totals.misses);
        let text = s.to_string();
        assert!(text.starts_with("store: hits=1 misses=2"));
        assert!(text.contains("curves: hits=1 misses=1"));
        assert!(text.contains("sims: hits=0 misses=1"));
    }

    #[test]
    fn poisoned_map_mutex_recovers() {
        // Poison the *map* mutex by panicking while holding it, then
        // verify the memo still serves. (Slot mutexes never run user
        // code under lock, but the recovery discipline covers both.)
        let memo = Arc::new(Memo::<u64>::new());
        let m = memo.clone();
        let _ = std::thread::spawn(move || {
            let _g = m.lock_inner();
            panic!("die holding the map lock");
        })
        .join();
        let v = get(&memo, 1, || 11);
        assert_eq!(*v, 11);
    }
}

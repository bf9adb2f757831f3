//! The traced run's span recorder.
//!
//! Spans are taken in this benchmark's own files, around each call into
//! a layer's public function, and stay in memory until the run ends.
//! Two drivers hide their stage calls — `Session::try_query` and
//! `engine::run` — so for their ops the traced run times the driver
//! call as one span, then *replays* the op's stage calls directly with
//! the same inputs, each under a child span of the driver's. A driver's
//! self time is its span minus its replayed children: the part of the
//! op no stage function accounts for.
//!
//! The program's own `obs` recorder stays disarmed throughout.

use std::collections::BTreeMap;
use std::time::Instant;

/// A layer boundary the benchmark times. Leaves are stage functions;
/// `Query` and `Cell` are the drivers whose children are replays.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Generate,
    Schedule,
    Curve,
    Placement,
    SegmentGraph,
    Eval,
    SimNone,
    SimSegments,
    Query,
    Cell,
}

impl Layer {
    pub const ALL: [Layer; 10] = [
        Layer::Generate,
        Layer::Schedule,
        Layer::Curve,
        Layer::Placement,
        Layer::SegmentGraph,
        Layer::Eval,
        Layer::SimNone,
        Layer::SimSegments,
        Layer::Query,
        Layer::Cell,
    ];

    /// Metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Generate => "pegasus.generate",
            Layer::Schedule => "core.schedule",
            Layer::Curve => "core.curve",
            Layer::Placement => "core.placement",
            Layer::SegmentGraph => "core.segment_graph",
            Layer::Eval => "probdag.eval",
            Layer::SimNone => "failsim.none",
            Layer::SimSegments => "failsim.segments",
            Layer::Query => "service.query",
            Layer::Cell => "engine.cell",
        }
    }
}

/// Parent id of a span that has no parent.
pub const ROOT: u32 = u32::MAX;

pub struct Span {
    pub layer: Layer,
    pub parent: u32,
    pub dur_ns: u64,
}

/// In-memory span store. A disabled tracer runs the closures untimed,
/// so replay code serves both the traced run and reference checks.
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
}

/// Spans kept before the traced phase stops early: 16 bytes each, so
/// the cap bounds the recorder at 32 MiB however short the ops.
pub const SPAN_CAP: usize = 1 << 21;

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn full(&self) -> bool {
        self.spans.len() >= SPAN_CAP
    }

    /// Records a span measured by the caller; returns its id.
    pub fn push(&mut self, layer: Layer, parent: u32, dur_ns: u64) -> u32 {
        if !self.on {
            return ROOT;
        }
        self.spans.push(Span {
            layer,
            parent,
            dur_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Runs `f` under a span of `layer`.
    pub fn time<T>(&mut self, layer: Layer, parent: u32, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.push(layer, parent, t.elapsed().as_nanos() as u64);
        out
    }

    /// Per-layer totals over every recorded span.
    pub fn aggregate(&self) -> BTreeMap<Layer, LayerStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.dur_ns;
            }
        }
        let mut out: BTreeMap<Layer, LayerStats> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(s.layer).or_default();
            e.calls += 1;
            e.busy_ns += s.dur_ns;
            e.self_ns += s.dur_ns.saturating_sub(children);
            e.durs.push(s.dur_ns);
        }
        out
    }
}

#[derive(Default)]
pub struct LayerStats {
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
    durs: Vec<u64>,
}

impl LayerStats {
    /// Median span duration in microseconds (0 with no calls).
    pub fn p50_us(&self) -> f64 {
        if self.durs.is_empty() {
            return 0.0;
        }
        let mut d = self.durs.clone();
        let mid = d.len() / 2;
        let (_, m, _) = d.select_nth_unstable(mid);
        *m as f64 / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_replayed_children() {
        let mut t = Tracer::new(true);
        let q = t.push(Layer::Query, ROOT, 1000);
        t.push(Layer::Placement, q, 300);
        t.push(Layer::Eval, q, 500);
        let agg = t.aggregate();
        assert_eq!(agg[&Layer::Query].self_ns, 200);
        assert_eq!(agg[&Layer::Query].busy_ns, 1000);
        assert_eq!(agg[&Layer::Eval].self_ns, 500);
        assert_eq!(agg[&Layer::Placement].calls, 1);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.time(Layer::Eval, ROOT, || 7), 7);
        assert!(t.aggregate().is_empty());
    }
}

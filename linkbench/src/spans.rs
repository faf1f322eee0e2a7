//! In-memory spans around the benchmark's calls into each layer.
//!
//! A [`Probe`] is threaded through every workload answer. Untraced it
//! carries no tracer and [`Probe::span`] is a plain call; traced, each
//! span records its name, the layer it is charged to, its start and end
//! on one monotonic clock, its parent span and the answer (run id) it
//! belongs to. Spans stay in memory until the benchmark writes them out
//! at exit.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The layer a span's time is charged to (the workspace module the
/// wrapped call enters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's own code: answer roots and glue between calls.
    Bench,
    /// `linkpad_workloads::scenario`: topology build and reset.
    Scenario,
    /// `linkpad_sim::parallel`: replication fan-out over workers.
    Parallel,
    /// `linkpad_sim::engine`: the event loop (`run_for`, `collect_piats`).
    Engine,
    /// `linkpad_workloads::shard`: the sharded fan-out and merge.
    Shard,
    /// `linkpad_adversary`: features, KDE-Bayes and flow-count estimators.
    Adversary,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 6] = [
        Layer::Bench,
        Layer::Scenario,
        Layer::Parallel,
        Layer::Engine,
        Layer::Shard,
        Layer::Adversary,
    ];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Scenario => "scenario",
            Layer::Parallel => "parallel",
            Layer::Engine => "engine",
            Layer::Shard => "shard",
            Layer::Adversary => "adversary",
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (≥ 1).
    pub id: u64,
    /// Id of the span whose call made this one, 0 for an answer root.
    pub parent: u64,
    /// The answer this span belongs to.
    pub run: u32,
    /// The wrapped call.
    pub name: &'static str,
    /// Layer the call enters.
    pub layer: Layer,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span store poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// The spans as JSON lines (times in microseconds).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"run\":{},\"name\":\"{}\",\"layer\":\"{}\",\
                 \"start_us\":{:.3},\"end_us\":{:.3}}}\n",
                s.id,
                s.parent,
                s.run,
                s.name,
                s.layer.name(),
                s.start_ns as f64 * 1e-3,
                s.end_ns as f64 * 1e-3
            ));
        }
        out
    }
}

/// How the engine is instrumented during one answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineProbe {
    /// The plain event loop.
    Plain,
    /// `Sim::enable_profiling`: store counters, batch sizes, depth peak.
    Profile,
    /// `Sim::run_until_attributed` with an `AttributionSampler`; sharded
    /// runs execute shard by shard.
    Attribute,
    /// The plain event loop, with sharded runs executed shard by shard
    /// (`shard_builder(s).build()` + run) so each shard's build and run
    /// time is visible. Workloads without shards run as with `Plain`.
    SerialShards,
}

/// The instrumentation of one answer: an optional tracer, the answer's
/// run id, and the engine probe. `Copy`, so workers share it freely.
#[derive(Debug, Clone, Copy)]
pub struct Probe<'a> {
    tracer: Option<&'a Tracer>,
    run: u32,
    /// Engine instrumentation for this answer.
    pub engine: EngineProbe,
}

impl<'a> Probe<'a> {
    /// No spans, plain engine: how end-to-end numbers are measured.
    pub fn plain() -> Self {
        Self {
            tracer: None,
            run: 0,
            engine: EngineProbe::Plain,
        }
    }

    /// Spans into `tracer` under run id `run`, with the given engine probe.
    pub fn traced(tracer: &'a Tracer, run: u32, engine: EngineProbe) -> Self {
        Self {
            tracer: Some(tracer),
            run,
            engine,
        }
    }

    /// Does this probe record spans?
    pub fn is_traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// Call `f` inside a span `name` charged to `layer`, as a child of
    /// `parent`. `f` receives the new span's id for its own children
    /// (0 when untraced).
    pub fn span<R>(
        &self,
        name: &'static str,
        layer: Layer,
        parent: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let Some(t) = self.tracer else {
            return f(0);
        };
        let id = t.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = t.now_ns();
        let out = f(id);
        let end_ns = t.now_ns();
        t.spans.lock().expect("span store poisoned").push(Span {
            id,
            parent,
            run: self.run,
            name,
            layer,
            start_ns,
            end_ns,
        });
        out
    }
}

/// Self time per layer over `spans` (seconds): each span's duration minus
/// the part of its interval that its children cover. Children running on
/// other threads overlap; their union is what is subtracted.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<Layer, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<Layer, f64> = Layer::ALL.iter().map(|&l| (l, 0.0)).collect();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| union_within(c, s.start_ns, s.end_ns));
        *out.entry(s.layer).or_default() += (s.end_ns - s.start_ns - covered) as f64 * 1e-9;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: Layer, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            run: 0,
            name: "s",
            layer,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Root 0..100 with two overlapping children 10..50 and 30..70
        // (two workers) and a grandchild 20..40 under the first.
        let spans = [
            span(1, 0, Layer::Bench, 0, 100),
            span(2, 1, Layer::Parallel, 10, 50),
            span(3, 1, Layer::Parallel, 30, 70),
            span(4, 2, Layer::Engine, 20, 40),
        ];
        let t = self_time_by_layer(&spans);
        let ns = |l| (t[&l] * 1e9).round() as u64;
        assert_eq!(ns(Layer::Bench), 40); // 100 − |10..70|
        assert_eq!(ns(Layer::Parallel), 20 + 40); // (40 − 20) + 40
        assert_eq!(ns(Layer::Engine), 20);
    }

    #[test]
    fn untraced_probe_records_nothing_and_passes_id_zero() {
        let p = Probe::plain();
        assert_eq!(p.span("x", Layer::Engine, 0, |id| id), 0);
        let t = Tracer::new();
        let p = Probe::traced(&t, 3, EngineProbe::Plain);
        let child = p.span("outer", Layer::Bench, 0, |id| {
            p.span("inner", Layer::Engine, id, |child| child)
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.id, child);
        assert_eq!(inner.run, 3);
        assert_ne!(inner.parent, 0);
    }
}

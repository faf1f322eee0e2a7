//! Causal event tracing: bounded, deterministic per-event records with
//! scheduler provenance, plus timeline/flamegraph exporters.
//!
//! Where [`crate::profile`] answers *how many* (dispatch counters,
//! queue depth), this module answers *why*: every traced dispatch
//! records which earlier event scheduled it (the **parent event id**,
//! threaded through the engine's scheduler), so a trace is a causal
//! forest over the run — timer chains, delivery cascades — rather than
//! a flat event count.
//!
//! The recorder obeys the same determinism contract as the rest of the
//! deterministic side of this crate:
//!
//! * record content is sim-time only — sequence numbers, simulated
//!   nanoseconds, node ids. No wall clock exists in this module
//!   (`DET_WALLCLOCK` enforces it), so a trace is a pure function of
//!   `(spec, seed)` and replays bit-for-bit across `reset(seed)` and
//!   fresh builds.
//! * memory is bounded by construction: records live in a decimating
//!   ring ([`TRACE_CAP`]) that halves itself and doubles its sampling
//!   stride when full — the [`crate::profile::EngineProfile`] depth-series
//!   discipline — and the pending-provenance map is bounded by the
//!   number of *pending* events (entries retire when their event fires).
//!
//! Two exporters turn a [`TraceReport`] into standard tooling formats:
//! Chrome trace-event JSON ([`TraceReport::chrome_trace_json`], loadable
//! in Perfetto / `chrome://tracing`, one track per node, sim-time mapped
//! to microseconds) and collapsed causal stacks
//! ([`TraceReport::collapsed_stacks`], the `inferno`/`flamegraph.pl`
//! input format, with the parent chain standing in for a call stack).

use std::collections::BTreeMap;

/// Sentinel parent id for events with no recorded scheduler: roots
/// (scheduled by `on_start` or before tracing was enabled) and events
/// whose birth predates the recorder.
pub const NO_PARENT: u64 = u64::MAX;

/// Records kept before the ring decimates 2:1 and doubles its stride.
pub const TRACE_CAP: usize = 16_384;

/// What kind of dispatch a trace record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A timer firing on its node.
    Timer,
    /// A packet delivery.
    Deliver,
}

impl TraceEventKind {
    /// Stable lowercase name used by both exporters.
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::Timer => "timer",
            TraceEventKind::Deliver => "deliver",
        }
    }
}

/// One traced dispatch. All fields are simulation-deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// The event's global scheduling sequence number (unique per run).
    pub seq: u64,
    /// Sequence number of the event whose handler scheduled this one,
    /// or [`NO_PARENT`].
    pub parent: u64,
    /// Simulated time of the dispatch, nanoseconds.
    pub sim_nanos: u64,
    /// Target node index.
    pub node: u32,
    /// Timer or delivery.
    pub kind: TraceEventKind,
}

/// Opt-in causal trace recorder, held by the engine as
/// `Option<Box<TraceRecorder>>` so the disabled case costs one pointer
/// of state and one predictable branch per run call.
///
/// The engine drives it with two calls per dispatch: [`birth`]
/// (provenance of every event scheduled while tracing) and
/// [`dispatched`] (emit the record).
///
/// [`birth`]: TraceRecorder::birth
/// [`dispatched`]: TraceRecorder::dispatched
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecorder {
    /// Decimating ring of records: every `stride`-th dispatch.
    records: Vec<TraceRecord>,
    /// Pending provenance: child seq → parent seq, inserted at schedule
    /// time and removed when the child fires — bounded by the pending
    /// event population, not the run length.
    parents: BTreeMap<u64, u64>,
    /// Node labels indexed by node id, captured at enable time.
    node_labels: Vec<String>,
    /// Current sampling stride: a dispatch is recorded when its index
    /// is a multiple of this. Starts at 1 (record everything), doubles
    /// on each ring decimation.
    stride: u64,
    /// Total dispatches seen (recorded or not).
    dispatched: u64,
}

impl TraceRecorder {
    /// A fresh recorder. `node_labels[i]` names node `i` (from
    /// [`Node::label`]); the exporters use it for track and frame names.
    ///
    /// [`Node::label`]: ../../linkpad_sim/node/trait.Node.html
    pub fn new(node_labels: Vec<String>) -> Self {
        Self {
            records: Vec::new(),
            parents: BTreeMap::new(),
            node_labels,
            stride: 1,
            dispatched: 0,
        }
    }

    /// Re-zero everything except the node labels (the topology is
    /// unchanged across [`reset`]-style replays), so a reset-then-run
    /// trace is bit-identical to a fresh-enable-then-run trace.
    ///
    /// [`reset`]: ../../linkpad_sim/engine/struct.Sim.html#method.reset
    pub fn reset(&mut self) {
        self.records.clear();
        self.parents.clear();
        self.stride = 1;
        self.dispatched = 0;
    }

    /// Register the provenance of a freshly scheduled event: `child`
    /// was scheduled while event `parent` (or [`NO_PARENT`]) was being
    /// dispatched.
    pub fn birth(&mut self, child: u64, parent: u64) {
        self.parents.insert(child, parent);
    }

    /// Fold one dispatch into the trace: resolve and retire the event's
    /// provenance, and append a record when the sampling stride is due.
    pub fn dispatched(&mut self, seq: u64, sim_nanos: u64, node: u32, kind: TraceEventKind) {
        let parent = self.parents.remove(&seq).unwrap_or(NO_PARENT);
        let index = self.dispatched;
        self.dispatched += 1;
        if !index.is_multiple_of(self.stride) {
            return;
        }
        self.records.push(TraceRecord {
            seq,
            parent,
            sim_nanos,
            node,
            kind,
        });
        if self.records.len() >= TRACE_CAP {
            // Keep every other record (indices 0, 2, 4, … — multiples
            // of the doubled stride) and halve the sampling rate, so
            // the ring stays bounded and the kept set is exactly what
            // recording at the new stride from the start would have
            // kept. Same discipline as the profile's depth series.
            let mut keep = 0u64;
            self.records.retain(|_| {
                keep += 1;
                keep % 2 == 1
            });
            self.stride *= 2;
        }
    }

    /// Snapshot the trace accumulated so far.
    pub fn report(&self) -> TraceReport {
        TraceReport {
            records: self.records.clone(),
            node_labels: self.node_labels.clone(),
            stride: self.stride,
            dispatched: self.dispatched,
        }
    }
}

/// An immutable trace snapshot: the recorded dispatches plus the
/// context the exporters need. Bit-identical across `reset(seed)`
/// replays and fresh builds (pinned by `metrics_determinism.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReport {
    /// Recorded dispatches, in dispatch order.
    pub records: Vec<TraceRecord>,
    /// Node labels indexed by node id.
    pub node_labels: Vec<String>,
    /// Final sampling stride: records are every `stride`-th dispatch.
    pub stride: u64,
    /// Total dispatches the recorder saw (recorded or not).
    pub dispatched: u64,
}

/// Frames deeper than this are folded into a `[deep]` root marker —
/// timer re-arm chains make causal chains as long as the run, and a
/// thousand-frame stack defeats the point of a flamegraph.
const MAX_CHAIN: usize = 32;

impl TraceReport {
    /// Label of node `id`, or a stable placeholder for ids outside the
    /// captured table.
    fn label(&self, id: u32) -> &str {
        self.node_labels
            .get(id as usize)
            .map_or("node", String::as_str)
    }

    /// Render the trace as Chrome trace-event JSON (the
    /// `{"traceEvents": [...]}` object form), loadable in Perfetto and
    /// `chrome://tracing`.
    ///
    /// Mapping: one process (`pid` 0), one thread **per node** (`tid` =
    /// node id, named `node<id> <label>` via `thread_name` metadata),
    /// each dispatch an instant event (`ph: "i"`, thread scope) whose
    /// `ts` is the simulated time in microseconds (fractional — sim
    /// nanoseconds / 1000) and whose `args` carry the sequence number
    /// and parent id (omitted for roots). The output uses
    /// only the JSON subset `linkpad-bench`'s mini parser accepts, and a
    /// round-trip test there holds this exporter to it.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.records.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if first {
                first = false;
            } else {
                out.push(',');
            }
        };
        // Track names: one metadata record per node that appears.
        let mut nodes: Vec<u32> = self.records.iter().map(|r| r.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        for node in nodes {
            sep(&mut out);
            out.push_str(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{node},\
                 \"args\":{{\"name\":\"node{node} {}\"}}}}",
                crate::json::escape(self.label(node))
            ));
        }
        for r in &self.records {
            sep(&mut out);
            let ts_us = r.sim_nanos / 1_000;
            let ts_frac = r.sim_nanos % 1_000;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\
                 \"ts\":{ts_us}.{ts_frac:03},\"pid\":0,\"tid\":{},\"args\":{{\"seq\":{}",
                crate::json::escape(self.label(r.node)),
                r.kind.name(),
                r.node,
                r.seq,
            ));
            if r.parent != NO_PARENT {
                out.push_str(&format!(",\"parent\":{}", r.parent));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Render the causal chains as collapsed stacks (`frame;frame;…
    /// weight` lines, the flamegraph-tool input format): each record
    /// contributes its parent chain as the "stack", with weight 1.
    /// Chains whose ancestors were decimated out of the ring start at a
    /// `[truncated]` root; chains deeper than 32 frames fold into
    /// `[deep]`. Identical stacks aggregate; lines are emitted in
    /// lexicographic order (deterministic).
    pub fn collapsed_stacks(&self) -> String {
        let by_seq: BTreeMap<u64, &TraceRecord> = self.records.iter().map(|r| (r.seq, r)).collect();
        let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
        for r in &self.records {
            let mut frames = Vec::new();
            let mut cur = Some(r);
            while let Some(rec) = cur {
                frames.push(format!("{}:{}", self.label(rec.node), rec.kind.name()));
                if frames.len() >= MAX_CHAIN {
                    frames.push("[deep]".to_string());
                    break;
                }
                cur = match rec.parent {
                    NO_PARENT => None,
                    p => match by_seq.get(&p) {
                        Some(parent) => Some(parent),
                        None => {
                            // The ancestor fired between recorded
                            // strides: the chain is real but its root
                            // was decimated.
                            frames.push("[truncated]".to_string());
                            None
                        }
                    },
                };
            }
            frames.reverse();
            *stacks.entry(frames.join(";")).or_insert(0) += 1;
        }
        let mut out = String::new();
        for (stack, weight) in stacks {
            out.push_str(&stack);
            out.push(' ');
            out.push_str(&weight.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder() -> TraceRecorder {
        TraceRecorder::new(vec!["ticker".to_string(), "sink".to_string()])
    }

    #[test]
    fn provenance_resolves_and_retires() {
        let mut t = recorder();
        t.birth(5, NO_PARENT);
        t.dispatched(5, 100, 0, TraceEventKind::Timer);
        // The timer's handler scheduled 6 and 7.
        t.birth(6, 5);
        t.birth(7, 5);
        t.dispatched(6, 100, 1, TraceEventKind::Deliver);
        t.dispatched(7, 100, 1, TraceEventKind::Deliver);
        let report = t.report();
        assert_eq!(report.records.len(), 3);
        assert_eq!(report.records[0].parent, NO_PARENT);
        assert_eq!(report.records[1].parent, 5);
        assert_eq!(report.records[2].parent, 5);
        assert!(t.parents.is_empty(), "all provenance retired");
    }

    #[test]
    fn unknown_birth_reads_as_root() {
        let mut t = recorder();
        t.dispatched(9, 50, 0, TraceEventKind::Timer);
        assert_eq!(t.report().records[0].parent, NO_PARENT);
    }

    #[test]
    fn ring_decimates_and_doubles_stride() {
        let mut t = recorder();
        for seq in 0..(2 * TRACE_CAP as u64) {
            t.dispatched(seq, seq, 0, TraceEventKind::Timer);
        }
        let report = t.report();
        assert!(report.records.len() <= TRACE_CAP);
        assert!(report.stride > 1, "cap must force decimation");
        assert_eq!(report.dispatched, 2 * TRACE_CAP as u64);
        // Kept records are exactly the multiples of the final stride
        // (dispatch index == seq here).
        assert!(report
            .records
            .iter()
            .enumerate()
            .all(|(i, r)| r.seq == i as u64 * report.stride));
    }

    #[test]
    fn reset_keeps_labels_and_clears_state() {
        let mut t = recorder();
        t.birth(1, NO_PARENT);
        t.dispatched(1, 10, 0, TraceEventKind::Timer);
        t.reset();
        let report = t.report();
        assert!(report.records.is_empty());
        assert_eq!(report.dispatched, 0);
        assert_eq!(report.stride, 1);
        assert_eq!(report.node_labels, vec!["ticker", "sink"]);
    }

    #[test]
    fn chrome_trace_has_tracks_and_provenance_args() {
        let mut t = recorder();
        t.dispatched(0, 1_500, 0, TraceEventKind::Timer);
        t.birth(1, 0);
        t.dispatched(1, 2_500, 1, TraceEventKind::Deliver);
        let json = t.report().chrome_trace_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"name\":\"thread_name\""));
        assert!(json.contains("\"name\":\"node0 ticker\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"ts\":2.500"));
        assert!(json.contains("\"args\":{\"seq\":1,\"parent\":0}"));
        // Roots omit the parent key entirely.
        assert!(!json.contains("\"parent\":18446744073709551615"));
    }

    #[test]
    fn collapsed_stacks_walk_chains_and_aggregate() {
        let mut t = recorder();
        t.dispatched(0, 0, 0, TraceEventKind::Timer);
        t.birth(1, 0);
        t.dispatched(1, 10, 1, TraceEventKind::Deliver);
        t.birth(2, 0);
        t.dispatched(2, 20, 1, TraceEventKind::Deliver);
        let out = t.report().collapsed_stacks();
        assert!(out.contains("ticker:timer 1\n"), "{out}");
        assert!(out.contains("ticker:timer;sink:deliver 2\n"), "{out}");
    }

    #[test]
    fn decimated_ancestors_truncate_the_chain() {
        let mut t = recorder();
        t.birth(1, 999); // parent never recorded
        t.dispatched(1, 10, 1, TraceEventKind::Deliver);
        let out = t.report().collapsed_stacks();
        assert_eq!(out, "[truncated];sink:deliver 1\n");
    }
}

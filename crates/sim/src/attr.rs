//! Coordinator-side wall-time attribution: *where do the ~50 ns/event
//! go?* (ROADMAP open item 4 — the dispatch bound.)
//!
//! [`AttributionSampler`] splits each sampled dispatch into the three
//! phases of the engine's hot loop — **store** (event-queue pop plus
//! same-instant batch collection), **context** ([`Context`] build via
//! the split-borrow), and **dispatch** (the boxed `dyn Node` handler
//! call) — and accumulates nanoseconds per phase *per node type*, so a
//! profile says "gateway handlers cost X, the store under router load
//! costs Y" rather than one blended number. Node *type* means the
//! [`Node::label`] with any trailing `-<digits>` instance suffix
//! stripped: per-flow scenarios stamp thousands of indexed labels
//! (`gw1-9982`), and attribution by instance would drown the signal in
//! one-sample rows.
//!
//! [`Node::label`]: crate::node::Node::label
//!
//! The sampler is a [`LoopHooks`] implementation: attach it to any run
//! with [`Sim::run_until_with`] (or [`Sim::run_until_attributed`]),
//! under a watchdog, alongside a profile or trace, or per shard
//! (`ShardedAggregate::with_attribution` in `linkpad-workloads`). Its
//! `Instant` reads are the engine crate's only wall-clock reads outside
//! the watchdog, behind a file-scoped `DET_WALLCLOCK` allowlist entry.
//! Nothing here feeds back into simulation state — hooks only observe,
//! so an attributed run's simulated results are bit-identical to a
//! plain run. It is a measurement harness, not a simulation feature.
//!
//! [`Context`]: crate::engine::Context
//! [`Sim::run_until_with`]: crate::engine::Sim::run_until_with
//! [`Sim::run_until_attributed`]: crate::engine::Sim::run_until_attributed

use crate::hooks::{Dispatch, LoopHooks};
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-label phase accumulator.
#[derive(Debug, Clone, Copy, Default)]
struct RowAccum {
    samples: u64,
    store_ns: u64,
    context_ns: u64,
    dispatch_ns: u64,
}

/// The node-type key for an attribution row: `label` with a trailing
/// `-<digits>` instance suffix stripped (`gw1-9982` → `gw1`). Labels
/// whose suffix is not purely numeric (`subnet-b`, `trunk-demux`) are
/// their own type.
fn type_key(label: &str) -> &str {
    match label.rsplit_once('-') {
        Some((head, tail))
            if !head.is_empty() && !tail.is_empty() && tail.bytes().all(|b| b.is_ascii_digit()) =>
        {
            head
        }
        _ => label,
    }
}

/// Samples every N-th dispatch and attributes its wall time to
/// store / context / dispatch phases, keyed by the target node's type
/// (its label minus any numeric instance suffix — see [`type_key`]).
///
/// Sampling keeps the measurement from perturbing what it measures:
/// un-sampled events pay one counter increment and one branch per lap
/// call, no `Instant::now`.
#[derive(Debug)]
pub struct AttributionSampler {
    /// Sample every `every`-th dispatch (>= 1).
    every: u64,
    /// Dispatches seen (sampled or not).
    seen: u64,
    /// Is the current dispatch being sampled?
    sampling: bool,
    /// Timestamp of the last phase boundary within the sampled dispatch.
    mark: Instant,
    /// Phase durations staged until `lap_node` learns the label.
    pending_store_ns: u64,
    pending_context_ns: u64,
    rows: BTreeMap<String, RowAccum>,
}

impl AttributionSampler {
    /// A sampler measuring every `every`-th dispatch (`0` is treated
    /// as `1` — measure everything).
    pub fn new(every: u64) -> Self {
        Self {
            every: every.max(1),
            seen: 0,
            sampling: false,
            mark: Instant::now(),
            pending_store_ns: 0,
            pending_context_ns: 0,
            rows: BTreeMap::new(),
        }
    }

    /// Start of one dispatch iteration (called before the pop).
    fn begin(&mut self) {
        self.sampling = self.seen.is_multiple_of(self.every);
        self.seen += 1;
        if self.sampling {
            self.mark = Instant::now();
        }
    }

    /// Phase boundary: pop + same-instant batch collection finished.
    fn lap_store(&mut self) {
        if !self.sampling {
            return;
        }
        let now = Instant::now();
        self.pending_store_ns = now.duration_since(self.mark).as_nanos() as u64;
        self.mark = now;
    }

    /// Phase boundary: split-borrow + [`Context`] build finished.
    ///
    /// [`Context`]: crate::engine::Context
    fn lap_context(&mut self) {
        if !self.sampling {
            return;
        }
        let now = Instant::now();
        self.pending_context_ns = now.duration_since(self.mark).as_nanos() as u64;
        self.mark = now;
    }

    /// End of the dispatch: the node handler returned. Folds the staged
    /// phase durations into the row for `label`'s node type.
    fn lap_node(&mut self, label: &str) {
        if !self.sampling {
            return;
        }
        self.sampling = false;
        let dispatch_ns = Instant::now().duration_since(self.mark).as_nanos() as u64;
        let key = type_key(label);
        // get-or-insert without allocating the key on the (common) hit.
        if self.rows.get_mut(key).is_none() {
            self.rows.insert(key.to_string(), RowAccum::default());
        }
        if let Some(row) = self.rows.get_mut(key) {
            row.samples += 1;
            row.store_ns += self.pending_store_ns;
            row.context_ns += self.pending_context_ns;
            row.dispatch_ns += dispatch_ns;
        }
        self.pending_store_ns = 0;
        self.pending_context_ns = 0;
    }

    /// Snapshot the attribution accumulated so far.
    pub fn report(&self) -> AttributionReport {
        AttributionReport {
            rows: self
                .rows
                .iter()
                .map(|(label, r)| AttributionRow {
                    label: label.clone(),
                    samples: r.samples,
                    store_ns: r.store_ns,
                    context_ns: r.context_ns,
                    dispatch_ns: r.dispatch_ns,
                })
                .collect(),
            sample_every: self.every,
            dispatches_seen: self.seen,
        }
    }
}

/// The sampler's laps sit on the loop's phase boundaries.
impl LoopHooks for AttributionSampler {
    fn before_pop(&mut self) {
        self.begin();
    }
    fn after_pop(&mut self) {
        self.lap_store();
    }
    fn before_handler(&mut self) {
        self.lap_context();
    }
    fn after_handler(&mut self, dispatch: &Dispatch<'_>) {
        self.lap_node(dispatch.node().label());
    }
}

/// One node type's sampled wall-time totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributionRow {
    /// Node type: the dispatched node's [`Node::label`] with any
    /// trailing `-<digits>` instance suffix stripped.
    ///
    /// [`Node::label`]: crate::node::Node::label
    pub label: String,
    /// Sampled dispatches attributed to this label.
    pub samples: u64,
    /// Wall nanoseconds in the event store (pop + batch collection).
    pub store_ns: u64,
    /// Wall nanoseconds building the dispatch [`Context`].
    ///
    /// [`Context`]: crate::engine::Context
    pub context_ns: u64,
    /// Wall nanoseconds inside the node handler itself.
    pub dispatch_ns: u64,
}

impl AttributionRow {
    /// Total sampled wall nanoseconds for this label.
    pub fn total_ns(&self) -> u64 {
        self.store_ns + self.context_ns + self.dispatch_ns
    }
}

/// Snapshot of an [`AttributionSampler`]: per-node-type rows sorted by
/// type key, plus the sampling parameters needed to interpret them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributionReport {
    /// Per-node-type phase totals, sorted by type key.
    pub rows: Vec<AttributionRow>,
    /// The sampler measured every `sample_every`-th dispatch.
    pub sample_every: u64,
    /// Total dispatches the sampler saw (sampled or not).
    pub dispatches_seen: u64,
}

impl AttributionReport {
    /// Total sampled dispatches across all node types.
    pub fn samples(&self) -> u64 {
        self.rows.iter().map(|r| r.samples).sum()
    }

    /// Total sampled wall nanoseconds across all node types and phases.
    pub fn total_ns(&self) -> u64 {
        self.rows.iter().map(AttributionRow::total_ns).sum()
    }

    /// Fold another report in (e.g. per-shard attributions into a run
    /// total): rows with the same type key add, new keys insert in
    /// order, and dispatch counts add. Both reports should share one
    /// sampling rate for the merged shares to mean anything.
    pub fn merge(&mut self, other: &AttributionReport) {
        for row in &other.rows {
            match self.rows.binary_search_by(|r| r.label.cmp(&row.label)) {
                Ok(i) => {
                    let r = &mut self.rows[i];
                    r.samples += row.samples;
                    r.store_ns += row.store_ns;
                    r.context_ns += row.context_ns;
                    r.dispatch_ns += row.dispatch_ns;
                }
                Err(i) => self.rows.insert(i, row.clone()),
            }
        }
        self.dispatches_seen += other.dispatches_seen;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_every_nth_and_attributes_by_label() {
        let mut s = AttributionSampler::new(2);
        for i in 0..10u64 {
            s.begin();
            s.lap_store();
            s.lap_context();
            s.lap_node(if i.is_multiple_of(2) { "even" } else { "odd" });
        }
        let report = s.report();
        assert_eq!(report.dispatches_seen, 10);
        assert_eq!(report.sample_every, 2);
        // Dispatches 0,2,4,6,8 are sampled — all land on "even".
        assert_eq!(report.samples(), 5);
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].label, "even");
        assert_eq!(report.rows[0].samples, 5);
    }

    #[test]
    fn unsampled_dispatches_record_nothing() {
        let mut s = AttributionSampler::new(1_000_000);
        s.begin(); // sampled (index 0)
        s.lap_store();
        s.lap_context();
        s.lap_node("a");
        s.begin(); // not sampled
        s.lap_store();
        s.lap_context();
        s.lap_node("b");
        let report = s.report();
        assert_eq!(report.samples(), 1);
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].label, "a");
    }

    #[test]
    fn indexed_instance_labels_fold_into_their_node_type() {
        let mut s = AttributionSampler::new(1);
        for label in [
            "gw1-9982",
            "gw1-17",
            "gw1",
            "subnet-b",
            "trunk-demux",
            "tap@gw1",
        ] {
            s.begin();
            s.lap_store();
            s.lap_context();
            s.lap_node(label);
        }
        let report = s.report();
        let labels: Vec<&str> = report.rows.iter().map(|r| r.label.as_str()).collect();
        // The three gw1 instances share one row; hyphenated labels whose
        // suffix is not numeric keep their own.
        assert_eq!(labels, ["gw1", "subnet-b", "tap@gw1", "trunk-demux"]);
        assert_eq!(report.rows[0].samples, 3);
    }

    #[test]
    fn merged_reports_add_rows_by_type_and_keep_them_sorted() {
        let report = |labels: &[&str]| {
            let mut s = AttributionSampler::new(1);
            for label in labels {
                s.begin();
                s.lap_store();
                s.lap_context();
                s.lap_node(label);
            }
            s.report()
        };
        let mut total = report(&["gw1-1", "trunk"]);
        total.merge(&report(&["cohort-7", "gw1-2", "gw1-3"]));
        let rows: Vec<(&str, u64)> = total
            .rows
            .iter()
            .map(|r| (r.label.as_str(), r.samples))
            .collect();
        assert_eq!(rows, [("cohort", 1), ("gw1", 3), ("trunk", 1)]);
        assert_eq!(total.dispatches_seen, 5);
        assert_eq!(total.samples(), 5);
    }

    #[test]
    fn zero_every_degrades_to_sample_everything() {
        let mut s = AttributionSampler::new(0);
        for _ in 0..3 {
            s.begin();
            s.lap_store();
            s.lap_context();
            s.lap_node("n");
        }
        assert_eq!(s.report().samples(), 3);
    }
}

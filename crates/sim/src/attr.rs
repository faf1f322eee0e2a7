//! Coordinator-side wall-time attribution: *where do the ~50 ns/event
//! go?* (ROADMAP open item 4 — the dispatch bound.)
//!
//! [`AttributionSampler`] splits each sampled dispatch into the three
//! phases of the engine's hot loop — **store** (the event-queue pop),
//! **context** ([`Context`] build via the split-borrow), and
//! **dispatch** (the boxed `dyn Node` handler call) — and accumulates
//! nanoseconds per phase *per node type*, so a
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
use linkpad_stats::rng::Xoshiro256StarStar;
use rand_core::RngCore;
use std::collections::BTreeMap;
use std::time::Instant;

/// Seed of every sampler's stride generator. Fixed, so one dispatch
/// sequence is always sampled at the same dispatches.
const STRIDE_SEED: u64 = 0xA77B_5A3F_1E7D_2C4B;

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

/// Samples one dispatch in N on average and attributes its wall time to
/// store / context / dispatch phases, keyed by the target node's type
/// (its label minus any numeric instance suffix: `gw1-7` counts as
/// `gw1`).
///
/// Sampling keeps the measurement from perturbing what it measures:
/// un-sampled events pay one counter increment and one branch per lap
/// call, no `Instant::now`. The gap between samples is drawn uniformly
/// from `[1, 2N − 1]` by a generator the sampler owns: a fixed stride
/// locks onto any dispatch cycle whose period divides it (a two-step
/// source → router cycle under a stride of 64 would charge every sample
/// to one of the two), while a jittered one samples each dispatch with
/// probability `1/N`, so `samples × N` estimates each row without bias.
#[derive(Debug)]
pub struct AttributionSampler {
    /// Mean stride between sampled dispatches (>= 1).
    every: u64,
    /// Dispatches seen (sampled or not).
    seen: u64,
    /// Index (in `seen` order) of the next dispatch to sample.
    next_sample: u64,
    /// Draws the gaps between samples.
    stride: Xoshiro256StarStar,
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
    /// A sampler measuring one dispatch in `every` on average, starting
    /// with the first (`0` is treated as `1` — measure everything).
    pub fn new(every: u64) -> Self {
        Self {
            every: every.max(1),
            seen: 0,
            next_sample: 0,
            stride: Xoshiro256StarStar::from_u64(STRIDE_SEED),
            sampling: false,
            mark: Instant::now(),
            pending_store_ns: 0,
            pending_context_ns: 0,
            rows: BTreeMap::new(),
        }
    }

    /// Start of one dispatch iteration (called before the pop).
    fn begin(&mut self) {
        self.sampling = self.seen == self.next_sample;
        self.seen += 1;
        if self.sampling {
            self.next_sample += self.gap();
            self.mark = Instant::now();
        }
    }

    /// The next gap between samples: uniform on `[1, 2·every − 1]`, mean
    /// `every` (always 1 when `every` is 1).
    fn gap(&mut self) -> u64 {
        let span = self.every.saturating_mul(2) - 1;
        1 + ((u128::from(self.stride.next_u64()) * u128::from(span)) >> 64) as u64
    }

    /// Phase boundary: the pop finished.
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
    /// Wall nanoseconds in the event store (the pop).
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
    /// The sampler's mean stride: it measured one dispatch in
    /// `sample_every`, so `samples × sample_every` estimates a row's
    /// dispatches.
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

    /// One dispatch to a node labelled `label`, through every lap.
    fn dispatch(s: &mut AttributionSampler, label: &str) {
        s.begin();
        s.lap_store();
        s.lap_context();
        s.lap_node(label);
    }

    #[test]
    fn samples_at_the_mean_stride_and_attributes_by_label() {
        let mut s = AttributionSampler::new(2);
        for i in 0..10_000u64 {
            dispatch(&mut s, if i.is_multiple_of(2) { "even" } else { "odd" });
        }
        let report = s.report();
        assert_eq!(report.dispatches_seen, 10_000);
        assert_eq!(report.sample_every, 2);
        // One dispatch in two on average, split between both labels.
        let samples = report.samples();
        assert!((4_750..=5_250).contains(&samples), "{samples} samples");
        let labels: Vec<&str> = report.rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["even", "odd"]);
        for row in &report.rows {
            assert!(
                row.samples > samples * 2 / 5,
                "{}: {}",
                row.label,
                row.samples
            );
        }
    }

    #[test]
    fn unsampled_dispatches_record_nothing() {
        let mut s = AttributionSampler::new(1_000_000);
        // The first dispatch is sampled; the next gap averages 10⁶.
        dispatch(&mut s, "a");
        dispatch(&mut s, "b");
        let report = s.report();
        assert_eq!(report.samples(), 1);
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].label, "a");
    }

    #[test]
    fn a_periodic_dispatch_cycle_is_sampled_evenly() {
        // A strict four-type cycle: a fixed stride of 64 would charge
        // every sample to one type.
        let types = ["a", "b", "c", "d"];
        let mut s = AttributionSampler::new(64);
        for i in 0..256_000 {
            dispatch(&mut s, types[i % 4]);
        }
        let report = s.report();
        let total = report.samples() as f64;
        assert!((total / 4_000.0 - 1.0).abs() < 0.05, "{total} samples");
        assert_eq!(report.rows.len(), 4);
        for row in &report.rows {
            let share = row.samples as f64 / total;
            assert!((share - 0.25).abs() < 0.03, "{}: {share}", row.label);
        }
    }

    #[test]
    fn one_dispatch_sequence_samples_the_same_dispatches() {
        // One label per dispatch, so the rows name the sampled indices.
        let sampled = || {
            let mut s = AttributionSampler::new(64);
            for i in 0..10_000 {
                dispatch(&mut s, &format!("d{i}"));
            }
            let rows = s.report().rows;
            rows.into_iter().map(|r| r.label).collect::<Vec<_>>()
        };
        let first = sampled();
        assert!(first.len() > 100, "{} samples", first.len());
        assert_eq!(first, sampled());
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
            dispatch(&mut s, label);
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
                dispatch(&mut s, label);
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
            dispatch(&mut s, "n");
        }
        assert_eq!(s.report().samples(), 3);
    }
}

//! Engine self-profiling: what the event loop and its event store are
//! actually doing, recorded deterministically in sim time.
//!
//! The profile answers with evidence how deep the pending set runs over
//! sim time, how many events the store took, and how the event mix
//! splits between timers and deliveries. All of it is integers keyed to
//! the simulation clock, so two runs of the same `(spec, seed)` produce
//! bit-identical profiles — asserted by the `reset_determinism` family.
//!
//! The engine owns an `Option<Box<EngineProfile>>` and records into it
//! as a hook on its event loop; a sim that never enables profiling
//! takes one branch per run call and pays nothing per event. See
//! DESIGN.md §Observability.

/// How many dispatches between pending-depth samples. Power of two so
/// the due-check is a mask; 1024 matches the watchdog's wall-check
/// stride.
const SAMPLE_EVERY: u64 = 1024;

/// Depth samples kept before the series decimates (drops every other
/// sample and doubles its stride) — bounds profile memory at ~128 KiB
/// regardless of run length while keeping full-run coverage.
const SERIES_CAP: usize = 4096;

/// A log₂-bucketed histogram of `u64` samples: the per-window count
/// distribution of a sharded run's manifest.
///
/// Bucket 0 counts zeros; bucket `k ≥ 1` counts values in
/// `[2^(k-1), 2^k)`. Exact count/sum/min/max ride alongside, so the
/// mean is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    /// `u64::MAX` while empty.
    min: u64,
    max: u64,
    buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; 65],
        }
    }

    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Fold one sample in.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[Self::bucket_of(v)] += 1;
    }

    /// Samples folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Render as a JSON object with the exact moments and the sparse
    /// non-empty buckets (keyed by bucket upper bound).
    pub fn to_json(&self) -> String {
        let buckets: Vec<String> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(k, &n)| {
                let ub = if k == 0 { 0u128 } else { 1u128 << k };
                format!("\"{ub}\":{n}")
            })
            .collect();
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":{{{}}}}}",
            self.count,
            self.sum,
            self.min(),
            self.max,
            buckets.join(",")
        )
    }
}

/// One pending-depth sample, keyed to the simulation clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthSample {
    /// Simulation time of the sample (nanoseconds).
    pub sim_nanos: u64,
    /// Total pending events in the store.
    pub pending: u64,
}

/// Event-store operation counters, as deltas over the profiled span.
///
/// The store is one binary heap, so the only operation to count is a
/// push, and every scheduled event is one. The other four fields are the
/// tiers of an earlier time-ladder store and always read 0; they stay
/// because the benchmark (`linkbench/`) reads all five.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreCounters {
    /// Events pushed into the store.
    pub push_near: u64,
    /// Always 0: the store has no calendar tier.
    pub push_rung: u64,
    /// Always 0: the store has no far tier.
    pub push_far: u64,
    /// Always 0: the store never refills a tier.
    pub refills: u64,
    /// Always 0: the store never re-bases a ladder.
    pub rebases: u64,
}

impl StoreCounters {
    /// `self - base`, field-wise (saturating) — turns cumulative
    /// counters into a span delta.
    pub fn delta(&self, base: &StoreCounters) -> StoreCounters {
        StoreCounters {
            push_near: self.push_near.saturating_sub(base.push_near),
            push_rung: self.push_rung.saturating_sub(base.push_rung),
            push_far: self.push_far.saturating_sub(base.push_far),
            refills: self.refills.saturating_sub(base.refills),
            rebases: self.rebases.saturating_sub(base.rebases),
        }
    }

    fn to_json(self) -> String {
        format!(
            "{{\"push_near\":{},\"push_rung\":{},\"push_far\":{},\"refills\":{},\
             \"rebases\":{}}}",
            self.push_near, self.push_rung, self.push_far, self.refills, self.rebases,
        )
    }
}

/// Live profiling state the engine records into while a profiled run
/// is in flight. Construct via [`EngineProfile::new`] with the queue's
/// cumulative counters as the zero point.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineProfile {
    timer_events: u64,
    deliver_events: u64,
    depth: Vec<DepthSample>,
    depth_stride: u64,
    depth_peak: u64,
    since_sample: u64,
    store_base: StoreCounters,
}

impl EngineProfile {
    /// Fresh profile. `store_base` is the queue's cumulative operation
    /// counters at enable time; reports subtract it so the profile
    /// covers exactly the profiled span.
    pub fn new(store_base: StoreCounters) -> Self {
        Self {
            timer_events: 0,
            deliver_events: 0,
            depth: Vec::new(),
            depth_stride: 1,
            depth_peak: 0,
            since_sample: 0,
            store_base,
        }
    }

    /// Re-zero for a reset sim: same shape as a fresh profile with the
    /// queue's current cumulative counters as the new base.
    pub fn reset(&mut self, store_base: StoreCounters) {
        *self = EngineProfile::new(store_base);
    }

    /// Fold one dispatched event in: a timer firing or a delivery.
    /// Returns `true` when a pending-depth sample is due (every 1024th
    /// dispatch, at a stride that doubles each time the series
    /// decimates).
    #[must_use]
    pub fn record_dispatch(&mut self, is_timer: bool) -> bool {
        if is_timer {
            self.timer_events += 1;
        } else {
            self.deliver_events += 1;
        }
        self.since_sample += 1;
        if self.since_sample >= SAMPLE_EVERY * self.depth_stride {
            self.since_sample = 0;
            true
        } else {
            false
        }
    }

    /// Record a pending-depth sample (called when
    /// [`EngineProfile::record_dispatch`] returned `true`).
    pub fn sample_depth(&mut self, sim_nanos: u64, pending: u64) {
        self.depth_peak = self.depth_peak.max(pending);
        self.depth.push(DepthSample { sim_nanos, pending });
        if self.depth.len() >= SERIES_CAP {
            // Decimate: keep every other sample, double the stride. The
            // series stays a uniform-stride view of the whole run.
            let mut keep = 0;
            self.depth.retain(|_| {
                keep += 1;
                keep % 2 == 1
            });
            self.depth_stride *= 2;
        }
    }

    /// Events recorded so far (timers + deliveries).
    pub fn events(&self) -> u64 {
        self.timer_events + self.deliver_events
    }

    /// Finalize into a report. `store_now` is the queue's cumulative
    /// operation counters at read time; the report carries the delta
    /// over the profiled span.
    pub fn report(&self, store_now: StoreCounters) -> ProfileReport {
        ProfileReport {
            timer_events: self.timer_events,
            deliver_events: self.deliver_events,
            deliver_batches: self.deliver_events,
            depth: self.depth.clone(),
            depth_sample_stride: SAMPLE_EVERY * self.depth_stride,
            depth_peak: self.depth_peak,
            store: store_now.delta(&self.store_base),
        }
    }
}

/// Finalized engine profile for one run span — what sharded run
/// manifests carry per shard and linkbench's traced run reads its
/// store counters from.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Timer events dispatched.
    pub timer_events: u64,
    /// Delivery events dispatched.
    pub deliver_events: u64,
    /// Always `deliver_events`: every delivery is its own dispatch. It
    /// stays because the benchmark (`linkbench/`) reads it.
    pub deliver_batches: u64,
    /// Pending-depth time series (sim-time-stamped, uniform stride).
    pub depth: Vec<DepthSample>,
    /// Dispatches between consecutive depth samples.
    pub depth_sample_stride: u64,
    /// Largest sampled pending population.
    pub depth_peak: u64,
    /// Event-store operation counters over the profiled span.
    pub store: StoreCounters,
}

impl ProfileReport {
    /// Total events dispatched over the profiled span.
    pub fn events(&self) -> u64 {
        self.timer_events + self.deliver_events
    }

    /// Render as a JSON object. The depth series is emitted as parallel
    /// arrays (compact, trivially plottable).
    pub fn to_json(&self) -> String {
        let col = |f: fn(&DepthSample) -> u64| -> String {
            let vals: Vec<String> = self.depth.iter().map(|s| f(s).to_string()).collect();
            format!("[{}]", vals.join(","))
        };
        format!(
            "{{\"timer_events\":{},\"deliver_events\":{},\"deliver_batches\":{},\
             \"depth_peak\":{},\"depth_sample_stride\":{},\
             \"depth\":{{\"sim_nanos\":{},\"pending\":{}}},\"store\":{}}}",
            self.timer_events,
            self.deliver_events,
            self.deliver_batches,
            self.depth_peak,
            self.depth_sample_stride,
            col(|s| s.sim_nanos),
            col(|s| s.pending),
            self.store.to_json(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 9);
        assert_eq!(h.sum(), 1050);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1024);
        // zeros → bucket 0; 1 → bucket 1; 2,3 → bucket 2; 4..7 → 3; 8 → 4.
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[3], 2);
        assert_eq!(h.buckets[4], 1);
        assert_eq!(h.buckets[11], 1);
    }

    #[test]
    fn dispatch_recording_splits_timers_and_deliveries() {
        let mut p = EngineProfile::new(StoreCounters::default());
        let _ = p.record_dispatch(true);
        let _ = p.record_dispatch(false);
        let _ = p.record_dispatch(false);
        let r = p.report(StoreCounters::default());
        assert_eq!(r.timer_events, 1);
        assert_eq!(r.deliver_events, 2);
        assert_eq!(r.deliver_batches, r.deliver_events);
        assert_eq!(r.events(), 3);
    }

    #[test]
    fn depth_sampling_fires_every_stride() {
        let mut p = EngineProfile::new(StoreCounters::default());
        let mut due = 0;
        for _ in 0..(SAMPLE_EVERY * 3) {
            if p.record_dispatch(true) {
                due += 1;
                p.sample_depth(0, 1);
            }
        }
        assert_eq!(due, 3);
    }

    #[test]
    fn depth_series_decimates_at_cap() {
        let mut p = EngineProfile::new(StoreCounters::default());
        for i in 0..(SERIES_CAP as u64 + 10) {
            p.sample_depth(i, i);
        }
        let r = p.report(StoreCounters::default());
        assert!(r.depth.len() < SERIES_CAP);
        assert_eq!(r.depth_sample_stride, SAMPLE_EVERY * 2);
        assert_eq!(r.depth_peak, SERIES_CAP as u64 + 9);
        // Survivors are the odd-position originals (every other kept).
        assert_eq!(r.depth[0].sim_nanos, 0);
        assert_eq!(r.depth[1].sim_nanos, 2);
    }

    #[test]
    fn store_counters_report_as_deltas() {
        let base = StoreCounters {
            push_near: 10,
            ..Default::default()
        };
        let p = EngineProfile::new(base);
        let now = StoreCounters {
            push_near: 25,
            ..Default::default()
        };
        let r = p.report(now);
        assert_eq!(r.store.push_near, 15);
        assert_eq!(
            r.store,
            StoreCounters {
                push_near: 15,
                ..now
            }
        );
    }

    #[test]
    fn reset_profile_matches_a_fresh_one() {
        let mut p = EngineProfile::new(StoreCounters::default());
        let _ = p.record_dispatch(false);
        p.sample_depth(5, 9);
        let base = StoreCounters {
            push_near: 4,
            ..Default::default()
        };
        p.reset(base);
        assert_eq!(p, EngineProfile::new(base));
    }

    #[test]
    fn report_json_contains_the_headline_fields() {
        let mut p = EngineProfile::new(StoreCounters::default());
        let _ = p.record_dispatch(false);
        let _ = p.record_dispatch(false);
        p.sample_depth(7, 3);
        let j = p.report(StoreCounters::default()).to_json();
        for needle in [
            "\"timer_events\":0",
            "\"deliver_events\":2",
            "\"deliver_batches\":2",
            "\"depth\":{\"sim_nanos\":[7],\"pending\":[3]}",
            "\"store\":{\"push_near\":0",
        ] {
            assert!(j.contains(needle), "missing {needle} in {j}");
        }
    }
}

//! Engine self-profiling: what the event loop and its calendar queue
//! are actually doing, recorded deterministically in sim time.
//!
//! The profile exists to attack the dispatch bound (ROADMAP open item
//! 4) with evidence: how large same-instant delivery batches really
//! get, how deep the pending set runs over sim time, which ladder rungs
//! fill and which spill to the far tier, and how the event mix splits
//! between timers and deliveries. All of it is integers keyed to the
//! simulation clock, so two runs of the same `(spec, seed)` produce
//! bit-identical profiles — asserted by the `reset_determinism` family.
//!
//! The engine owns an `Option<Box<EngineProfile>>` and records into it
//! as a hook on its event loop; a sim that never enables profiling
//! takes one branch per run call and pays nothing per event. See
//! DESIGN.md §Observability.

use crate::metrics::Histogram;

/// How many dispatches between pending-depth samples. Power of two so
/// the due-check is a mask; 1024 matches the watchdog's wall-check
/// stride.
const SAMPLE_EVERY: u64 = 1024;

/// Depth samples kept before the series decimates (drops every other
/// sample and doubles its stride) — bounds profile memory at ~128 KiB
/// regardless of run length while keeping full-run coverage.
const SERIES_CAP: usize = 4096;

/// One pending-depth sample, keyed to the simulation clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthSample {
    /// Simulation time of the sample (nanoseconds).
    pub sim_nanos: u64,
    /// Total pending events in the store.
    pub pending: u64,
    /// Events in the near (active-window) heap.
    pub near: u64,
    /// Events across the calendar rungs.
    pub rung: u64,
    /// Events in the unsorted far tier.
    pub far: u64,
}

/// Event-store operation counters, as deltas over the profiled span.
/// The engine copies these out of the queue's cumulative diagnostics
/// (which survive resets) so a profile always reads zero-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreCounters {
    /// Pushes routed to the near heap.
    pub push_near: u64,
    /// Pushes routed to a calendar rung.
    pub push_rung: u64,
    /// Pushes spilled to the far tier (beyond the rung span).
    pub push_far: u64,
    /// Rung-to-near refills.
    pub refills: u64,
    /// Ladder re-bases (full far-tier sweeps).
    pub rebases: u64,
    /// Keys examined by re-base sweeps.
    pub rebase_scanned: u64,
    /// Keys moved into rungs by re-bases.
    pub rebase_moved: u64,
}

impl StoreCounters {
    /// `self - base`, field-wise (saturating) — turns cumulative queue
    /// diagnostics into a span delta.
    pub fn delta(&self, base: &StoreCounters) -> StoreCounters {
        StoreCounters {
            push_near: self.push_near.saturating_sub(base.push_near),
            push_rung: self.push_rung.saturating_sub(base.push_rung),
            push_far: self.push_far.saturating_sub(base.push_far),
            refills: self.refills.saturating_sub(base.refills),
            rebases: self.rebases.saturating_sub(base.rebases),
            rebase_scanned: self.rebase_scanned.saturating_sub(base.rebase_scanned),
            rebase_moved: self.rebase_moved.saturating_sub(base.rebase_moved),
        }
    }

    fn to_json(self) -> String {
        format!(
            "{{\"push_near\":{},\"push_rung\":{},\"push_far\":{},\"refills\":{},\
             \"rebases\":{},\"rebase_scanned\":{},\"rebase_moved\":{}}}",
            self.push_near,
            self.push_rung,
            self.push_far,
            self.refills,
            self.rebases,
            self.rebase_scanned,
            self.rebase_moved
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
    deliver_batches: u64,
    batch_sizes: Histogram,
    depth: Vec<DepthSample>,
    depth_stride: u64,
    depth_peak: u64,
    rung_peak: Vec<u64>,
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
            deliver_batches: 0,
            batch_sizes: Histogram::new(),
            depth: Vec::new(),
            depth_stride: 1,
            depth_peak: 0,
            rung_peak: Vec::new(),
            since_sample: 0,
            store_base,
        }
    }

    /// Re-zero for a reset sim: same shape as a fresh profile with the
    /// queue's current cumulative counters as the new base.
    pub fn reset(&mut self, store_base: StoreCounters) {
        *self = EngineProfile::new(store_base);
    }

    /// Fold one dispatched event (or same-instant batch) in. `consumed`
    /// is the number of events the dispatch retired — 1 for timers, the
    /// batch length for deliveries. Returns `true` when a pending-depth
    /// sample is due (every [`SAMPLE_EVERY`]-th dispatch).
    #[must_use]
    pub fn record_dispatch(&mut self, is_timer: bool, consumed: u64) -> bool {
        if is_timer {
            self.timer_events += 1;
        } else {
            self.deliver_events += consumed;
            self.deliver_batches += 1;
            self.batch_sizes.record(consumed);
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
    /// [`EngineProfile::record_dispatch`] returned `true`). `rung_lens`
    /// is the per-rung occupancy of the calendar tier; per-rung peaks
    /// are kept across the run.
    pub fn sample_depth(
        &mut self,
        sim_nanos: u64,
        pending: u64,
        near: u64,
        rung: u64,
        far: u64,
        rung_lens: &[usize],
    ) {
        self.depth_peak = self.depth_peak.max(pending);
        if self.rung_peak.len() < rung_lens.len() {
            self.rung_peak.resize(rung_lens.len(), 0);
        }
        for (peak, &len) in self.rung_peak.iter_mut().zip(rung_lens.iter()) {
            *peak = (*peak).max(len as u64);
        }
        self.depth.push(DepthSample {
            sim_nanos,
            pending,
            near,
            rung,
            far,
        });
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
            deliver_batches: self.deliver_batches,
            batch_sizes: self.batch_sizes.clone(),
            depth: self.depth.clone(),
            depth_sample_stride: SAMPLE_EVERY * self.depth_stride,
            depth_peak: self.depth_peak,
            rung_peak: self.rung_peak.clone(),
            store: store_now.delta(&self.store_base),
        }
    }
}

/// Finalized engine profile for one run span — what `perf_baseline`
/// embeds in `BENCH_N.json` and sharded run manifests carry per shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Timer events dispatched.
    pub timer_events: u64,
    /// Delivery events dispatched (sum over batches).
    pub deliver_events: u64,
    /// Same-instant delivery batches dispatched.
    pub deliver_batches: u64,
    /// Distribution of same-instant batch sizes.
    pub batch_sizes: Histogram,
    /// Pending-depth time series (sim-time-stamped, uniform stride).
    pub depth: Vec<DepthSample>,
    /// Dispatches between consecutive depth samples.
    pub depth_sample_stride: u64,
    /// Largest sampled pending population.
    pub depth_peak: u64,
    /// Peak occupancy per calendar rung (sampled alongside depth).
    pub rung_peak: Vec<u64>,
    /// Event-store operation counters over the profiled span.
    pub store: StoreCounters,
}

impl ProfileReport {
    /// Total events dispatched over the profiled span.
    pub fn events(&self) -> u64 {
        self.timer_events + self.deliver_events
    }

    /// Mean same-instant delivery batch size (1.0 when no batches).
    pub fn mean_batch(&self) -> f64 {
        if self.deliver_batches == 0 {
            1.0
        } else {
            self.deliver_events as f64 / self.deliver_batches as f64
        }
    }

    /// Render as a JSON object. The depth series is emitted as parallel
    /// arrays (compact, trivially plottable); rung peaks as one array
    /// indexed by rung.
    pub fn to_json(&self) -> String {
        let col = |f: fn(&DepthSample) -> u64| -> String {
            let vals: Vec<String> = self.depth.iter().map(|s| f(s).to_string()).collect();
            format!("[{}]", vals.join(","))
        };
        let rungs: Vec<String> = self.rung_peak.iter().map(|v| v.to_string()).collect();
        format!(
            "{{\"timer_events\":{},\"deliver_events\":{},\"deliver_batches\":{},\
             \"mean_batch\":{},\"batch_sizes\":{},\"depth_peak\":{},\
             \"depth_sample_stride\":{},\"depth\":{{\"sim_nanos\":{},\"pending\":{},\
             \"near\":{},\"rung\":{},\"far\":{}}},\"rung_peak\":[{}],\"store\":{}}}",
            self.timer_events,
            self.deliver_events,
            self.deliver_batches,
            crate::json::num(self.mean_batch()),
            self.batch_sizes.to_json(),
            self.depth_peak,
            self.depth_sample_stride,
            col(|s| s.sim_nanos),
            col(|s| s.pending),
            col(|s| s.near),
            col(|s| s.rung),
            col(|s| s.far),
            rungs.join(","),
            self.store.to_json(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_recording_splits_timers_and_batches() {
        let mut p = EngineProfile::new(StoreCounters::default());
        let _ = p.record_dispatch(true, 1);
        let _ = p.record_dispatch(false, 3);
        let _ = p.record_dispatch(false, 1);
        let r = p.report(StoreCounters::default());
        assert_eq!(r.timer_events, 1);
        assert_eq!(r.deliver_events, 4);
        assert_eq!(r.deliver_batches, 2);
        assert_eq!(r.events(), 5);
        assert_eq!(r.mean_batch(), 2.0);
        assert_eq!(r.batch_sizes.max(), 3);
    }

    #[test]
    fn depth_sampling_fires_every_stride() {
        let mut p = EngineProfile::new(StoreCounters::default());
        let mut due = 0;
        for _ in 0..(SAMPLE_EVERY * 3) {
            if p.record_dispatch(true, 1) {
                due += 1;
                p.sample_depth(0, 1, 1, 0, 0, &[]);
            }
        }
        assert_eq!(due, 3);
    }

    #[test]
    fn depth_series_decimates_at_cap() {
        let mut p = EngineProfile::new(StoreCounters::default());
        for i in 0..(SERIES_CAP as u64 + 10) {
            p.sample_depth(i, i, 0, 0, 0, &[]);
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
    fn rung_peaks_track_the_maximum_per_rung() {
        let mut p = EngineProfile::new(StoreCounters::default());
        p.sample_depth(0, 0, 0, 0, 0, &[1, 5, 0]);
        p.sample_depth(1, 0, 0, 0, 0, &[3, 2, 4]);
        let r = p.report(StoreCounters::default());
        assert_eq!(r.rung_peak, vec![3, 5, 4]);
    }

    #[test]
    fn store_counters_report_as_deltas() {
        let base = StoreCounters {
            push_near: 10,
            refills: 2,
            ..Default::default()
        };
        let p = EngineProfile::new(base);
        let now = StoreCounters {
            push_near: 25,
            push_far: 3,
            refills: 5,
            ..Default::default()
        };
        let r = p.report(now);
        assert_eq!(r.store.push_near, 15);
        assert_eq!(r.store.push_far, 3);
        assert_eq!(r.store.refills, 3);
    }

    #[test]
    fn reset_profile_matches_a_fresh_one() {
        let mut p = EngineProfile::new(StoreCounters::default());
        let _ = p.record_dispatch(false, 7);
        p.sample_depth(5, 9, 9, 0, 0, &[1]);
        let base = StoreCounters {
            push_rung: 4,
            ..Default::default()
        };
        p.reset(base);
        assert_eq!(p, EngineProfile::new(base));
    }

    #[test]
    fn report_json_contains_the_headline_fields() {
        let mut p = EngineProfile::new(StoreCounters::default());
        let _ = p.record_dispatch(false, 2);
        p.sample_depth(7, 3, 2, 1, 0, &[1, 0]);
        let j = p.report(StoreCounters::default()).to_json();
        for needle in [
            "\"timer_events\":0",
            "\"deliver_events\":2",
            "\"deliver_batches\":1",
            "\"depth\":{\"sim_nanos\":[7]",
            "\"rung_peak\":[1,0]",
            "\"store\":{\"push_near\":0",
        ] {
            assert!(j.contains(needle), "missing {needle} in {j}");
        }
    }
}

//! Streaming windowed link observer — the aggregate-link adversary's
//! measurement instrument.
//!
//! A [`Tap`](crate::tap::Tap) stores every arrival timestamp, which is
//! the right instrument for per-flow captures (memory `O(arrivals)`,
//! and the detection pipeline wants the raw PIATs anyway). On an
//! *aggregated* trunk carrying 10⁴ padded flows the same run produces
//! millions of arrivals per simulated second, almost all of which the
//! aggregate-link adversary immediately folds into coarse statistics.
//! [`WindowedObserver`] does that folding online: arrivals are binned
//! into fixed-width time windows and each window keeps only
//!
//! * the **arrival count**,
//! * the **byte total** (→ byte rate), and
//! * the **PIAT moments** (count/mean/variance/… via
//!   [`RunningMoments`]) of inter-arrival times whose *later* arrival
//!   fell inside the window.
//!
//! Memory is `O(windows)` = `O(observed time / window width)` —
//! independent of the arrival count — so the observer sustains trunks
//! that would make a store-everything tap reallocate without bound.
//!
//! The observer records only timestamps and on-the-wire sizes, never
//! packet kinds or flow ids, so everything the [`ObserverHandle`]
//! exposes is legitimately available to the adversary. A
//! [`WindowedObserver`] node is a capture-only endpoint. An aggregate's
//! trunk does not deliver to one: the [`Trunk`](crate::trunk::Trunk)
//! owns its observer and folds each packet's far-end arrival in place.

use crate::engine::Context;
use crate::fault::OutageSchedule;
use crate::node::Node;
use crate::packet::Packet;
use crate::time::{SimDuration, SimTime};
use linkpad_stats::moments::RunningMoments;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Statistics of one fixed-width observation window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Arrivals whose timestamp fell inside the window.
    pub count: u64,
    /// Sum of on-the-wire sizes of those arrivals, bytes.
    pub bytes: u64,
    /// Moments of the inter-arrival times ending in this window (an
    /// inter-arrival spanning a window boundary is attributed to the
    /// window of its *later* arrival). Seconds.
    pub piats: RunningMoments,
    /// Fraction of the window the observer was actually watching, in
    /// `[0, 1]`. `1.0` for a fault-free observer; measurement gaps
    /// ([`WindowedObserver::with_gaps`]) stamp the up-time fraction of
    /// each window, and a fully-blind window has coverage `0.0` with
    /// zero counts. This is the validity mask gap-aware estimators key
    /// on: skip (or rescale by) windows below a coverage threshold.
    pub coverage: f64,
}

impl WindowStats {
    /// A window with nothing observed (the identity of [`WindowStats::merge`]).
    pub fn empty() -> Self {
        Self {
            count: 0,
            bytes: 0,
            piats: RunningMoments::new(),
            coverage: 1.0,
        }
    }

    /// Fold another window's statistics into this one.
    ///
    /// Counts and bytes **superpose exactly** (the merged window counts
    /// precisely the union of both arrival sets), so summing per-shard
    /// series reconstructs the single-trunk count/byte series
    /// bit-identically. The PIAT moments **pool**: the merged
    /// accumulator is the exact pairwise combination
    /// ([`RunningMoments::merge`]) of both windows' inter-arrival
    /// populations — the moments of all PIATs observed by either
    /// component, *not* the inter-arrival process of the interleaved
    /// union (which cannot be reconstructed from per-component
    /// statistics in `O(windows)`; see DESIGN.md, cohort superposition).
    /// Merging with [`WindowStats::empty`] on either side is an exact
    /// identity, bit for bit.
    ///
    /// Coverage merges as the **minimum**: merged shard counts are
    /// only as valid as the least-covered component (in practice every
    /// shard of one run shares one gap schedule, so the minimum is
    /// that common coverage — gaps propagate unchanged across the
    /// shard reduction). The empty window's coverage of `1.0`
    /// preserves the merge identity.
    pub fn merge(&mut self, other: &WindowStats) {
        self.count += other.count;
        self.bytes += other.bytes;
        self.piats.merge(&other.piats);
        self.coverage = self.coverage.min(other.coverage);
    }
}

/// Merge one window series into another element-wise (window `i` of
/// `from` folds into window `i` of `into` via [`WindowStats::merge`]).
/// Ragged lengths are fine: `into` grows to cover `from`, and windows
/// present in only one series pass through unchanged (merge with the
/// empty window is exact). This is the shard-reduction step: summing the
/// per-shard trunk series of a [`ShardedAggregate`-style] split
/// reconstructs the whole trunk's count/byte view.
///
/// [`ShardedAggregate`-style]: WindowStats::merge
pub fn merge_window_series(into: &mut Vec<WindowStats>, from: &[WindowStats]) {
    if into.len() < from.len() {
        into.resize(from.len(), WindowStats::empty());
    }
    for (dst, src) in into.iter_mut().zip(from) {
        dst.merge(src);
    }
}

#[derive(Debug)]
struct ObserverState {
    windows: Vec<WindowStats>,
    last_arrival: Option<SimTime>,
    arrivals: u64,
    /// Measurement-gap schedule (configuration, survives `clear`).
    gaps: Option<OutageSchedule>,
}

impl ObserverState {
    /// Drop everything observed, keeping the window buffer's capacity
    /// and the gap schedule — configuration, not observation — (shared
    /// by [`ObserverHandle::clear`] and the node's reset hook).
    fn clear(&mut self) {
        self.windows.clear();
        self.last_arrival = None;
        self.arrivals = 0;
    }

    /// Grow the series to `len` windows, stamping each new window's
    /// coverage from the gap schedule (`1.0` without one — the resize
    /// default is [`WindowStats::empty`]).
    #[cold]
    fn materialize(&mut self, len: usize, window_nanos: u64) {
        let old = self.windows.len();
        self.windows.resize(len, WindowStats::empty());
        if let Some(gaps) = self.gaps {
            for (i, w) in self.windows.iter_mut().enumerate().skip(old) {
                let a = SimTime::from_nanos(i as u64 * window_nanos);
                let b = SimTime::from_nanos((i as u64 + 1) * window_nanos);
                w.coverage = gaps.coverage(a, b);
            }
        }
    }

    #[inline]
    fn record(&mut self, now: SimTime, size_bytes: u32, window_nanos: u64) {
        if let Some(gaps) = self.gaps {
            self.record_gapped(gaps, now, size_bytes, window_nanos);
        } else {
            self.record_watched(now, size_bytes, window_nanos);
        }
    }

    /// The gapped fold: drop arrivals the observer is blind to under
    /// `gaps`, then delegate to the watched fold. Outlined so the
    /// gap-free per-arrival path ([`ObserverState::record_watched`])
    /// keeps the exact pre-fault-injection body.
    #[cold]
    #[inline(never)]
    fn record_gapped(
        &mut self,
        gaps: OutageSchedule,
        now: SimTime,
        size_bytes: u32,
        window_nanos: u64,
    ) {
        if gaps.is_down(now) {
            // Blind: the arrival is never seen. The PIAT chain
            // restarts after the gap — an inter-arrival spanning
            // unobserved arrivals would be a fabricated sample.
            self.last_arrival = None;
            return;
        }
        self.record_watched(now, size_bytes, window_nanos);
    }

    /// Fold one watched arrival into its window.
    #[inline]
    fn record_watched(&mut self, now: SimTime, size_bytes: u32, window_nanos: u64) {
        let idx = (now.as_nanos() / window_nanos) as usize;
        if self.windows.len() <= idx {
            self.materialize(idx + 1, window_nanos);
        }
        let w = &mut self.windows[idx];
        w.count += 1;
        w.bytes += size_bytes as u64;
        if let Some(prev) = self.last_arrival {
            w.piats.push(now.saturating_since(prev).as_secs_f64());
        }
        self.last_arrival = Some(now);
        self.arrivals += 1;
    }
}

/// Shared handle for reading what a [`WindowedObserver`] accumulated,
/// usable after the simulation has run (the engine owns the node, or
/// the [`Trunk`](crate::trunk::Trunk) that owns it).
/// Single-threaded `Rc<RefCell<_>>` sharing, like
/// [`TapHandle`](crate::tap::TapHandle).
#[derive(Debug, Clone)]
pub struct ObserverHandle {
    state: Rc<RefCell<ObserverState>>,
    window: SimDuration,
}

impl ObserverHandle {
    /// The configured window width.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// The configured window width in seconds.
    pub fn window_secs(&self) -> f64 {
        self.window.as_secs_f64()
    }

    /// Number of windows spanned so far (windows exist from time zero up
    /// to the latest arrival; trailing quiet time opens no windows). The
    /// last window is generally still filling.
    pub fn windows(&self) -> usize {
        self.state.borrow().windows.len()
    }

    /// Total arrivals observed (`Σ count` over all windows).
    pub fn arrivals(&self) -> u64 {
        self.state.borrow().arrivals
    }

    /// Run `f` over the raw per-window statistics without cloning them.
    pub fn with_windows<R>(&self, f: impl FnOnce(&[WindowStats]) -> R) -> R {
        f(&self.state.borrow().windows)
    }

    /// Clone out the whole window series — the mergeable trunk view a
    /// sharded run extracts from each worker (see
    /// [`merge_window_series`]).
    pub fn window_series(&self) -> Vec<WindowStats> {
        self.with_windows(|ws| ws.to_vec())
    }

    /// Per-window arrival counts, as `f64` for the estimators.
    pub fn counts(&self) -> Vec<f64> {
        self.with_windows(|ws| ws.iter().map(|w| w.count as f64).collect())
    }

    /// Per-window byte rates (bytes per second over the full window
    /// width; the trailing partially-filled window reads low).
    pub fn byte_rates(&self) -> Vec<f64> {
        let secs = self.window.as_secs_f64();
        self.with_windows(|ws| ws.iter().map(|w| w.bytes as f64 / secs).collect())
    }

    /// Per-window PIAT sample means, seconds (`NaN` for windows with no
    /// completed inter-arrival).
    pub fn piat_means(&self) -> Vec<f64> {
        self.with_windows(|ws| {
            ws.iter()
                .map(|w| w.piats.mean().unwrap_or(f64::NAN))
                .collect()
        })
    }

    /// Per-window unbiased PIAT sample variances, s² (`NaN` for windows
    /// with fewer than two completed inter-arrivals).
    pub fn piat_variances(&self) -> Vec<f64> {
        self.with_windows(|ws| {
            ws.iter()
                .map(|w| w.piats.variance().unwrap_or(f64::NAN))
                .collect()
        })
    }

    /// Per-window coverage fractions (`1.0` everywhere for a gap-free
    /// observer) — the validity mask for gap-aware estimation.
    pub fn coverages(&self) -> Vec<f64> {
        self.with_windows(|ws| ws.iter().map(|w| w.coverage).collect())
    }

    /// Mean coverage over the observed span (`1.0` when no windows
    /// exist yet).
    pub fn mean_coverage(&self) -> f64 {
        self.with_windows(|ws| {
            if ws.is_empty() {
                1.0
            } else {
                ws.iter().map(|w| w.coverage).sum::<f64>() / ws.len() as f64
            }
        })
    }

    /// Drop everything observed so far (e.g. to discard a warm-up span).
    pub fn clear(&self) {
        self.state.borrow_mut().clear();
    }
}

/// The observer node: a capture-only endpoint that records window
/// statistics for **every** packet reaching it (an aggregate link has no
/// flow filter) and ends it.
#[derive(Debug)]
pub struct WindowedObserver {
    state: Rc<RefCell<ObserverState>>,
    window_nanos: u64,
}

impl WindowedObserver {
    /// An observer with fixed window width `window`. Windows are
    /// anchored at simulation time zero: window `i` covers
    /// `[i·window, (i+1)·window)`.
    ///
    /// # Panics
    /// Panics if `window` is zero (configuration constant).
    pub fn new(window: SimDuration) -> (ObserverHandle, Self) {
        assert!(
            window > SimDuration::ZERO,
            "observer window width must be positive"
        );
        let state = Rc::new(RefCell::new(ObserverState {
            windows: Vec::new(),
            last_arrival: None,
            arrivals: 0,
            gaps: None,
        }));
        (
            ObserverHandle {
                state: Rc::clone(&state),
                window,
            },
            Self {
                state,
                window_nanos: window.as_nanos(),
            },
        )
    }

    /// Give the observer a measurement-gap schedule: while the
    /// schedule is down the observer is blind — arrivals are neither
    /// counted nor timestamped, the PIAT chain restarts after each gap,
    /// and every materialized window carries its up-time fraction in
    /// [`WindowStats::coverage`]. The schedule is configuration and
    /// survives [`ObserverHandle::clear`] and resets.
    pub fn with_gaps(self, gaps: OutageSchedule) -> Self {
        self.state.borrow_mut().gaps = Some(gaps);
        self
    }

    /// Fold and remove the leading `(instant, size)` arrivals of
    /// `arrivals` that fall at or before `horizon`, in order, under one
    /// borrow: the trunk's in-place far end.
    pub(crate) fn fold_through(&self, arrivals: &mut VecDeque<(SimTime, u32)>, horizon: SimTime) {
        let mut st = self.state.borrow_mut();
        while let Some(&(at, size_bytes)) = arrivals.front() {
            if at > horizon {
                break;
            }
            st.record(at, size_bytes, self.window_nanos);
            arrivals.pop_front();
        }
    }
}

impl Node for WindowedObserver {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        self.state
            .borrow_mut()
            .record(ctx.now(), packet.size_bytes, self.window_nanos);
    }

    fn reset(&mut self) {
        self.state.borrow_mut().clear();
    }

    fn label(&self) -> &str {
        "observer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimBuilder;
    use crate::node::NodeId;
    use crate::packet::{FlowId, PacketKind};
    use linkpad_stats::rng::MasterSeed;

    /// Emits one 500-byte packet every `period`.
    struct Clock {
        dst: NodeId,
        period: SimDuration,
        remaining: u32,
    }
    impl Node for Clock {
        fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.schedule_timer(self.period, 0);
        }
        fn on_timer(&mut self, _t: u64, ctx: &mut Context<'_>) {
            let pkt = ctx.spawn_packet(FlowId::PADDED, PacketKind::Dummy, 500);
            ctx.send_now(self.dst, pkt);
            self.remaining -= 1;
            if self.remaining > 0 {
                ctx.schedule_timer(self.period, 0);
            }
        }
    }

    fn run_clocked(period_ms: f64, total: u32, window_ms: f64) -> ObserverHandle {
        run_clocked_with(period_ms, total, window_ms, None)
    }

    fn run_clocked_with(
        period_ms: f64,
        total: u32,
        window_ms: f64,
        gaps: Option<OutageSchedule>,
    ) -> ObserverHandle {
        let mut b = SimBuilder::new(MasterSeed::new(1));
        let (obs, mut node) = WindowedObserver::new(SimDuration::from_millis_f64(window_ms));
        if let Some(gaps) = gaps {
            node = node.with_gaps(gaps);
        }
        let obs_id = b.add_node(Box::new(node));
        b.add_node(Box::new(Clock {
            dst: obs_id,
            period: SimDuration::from_millis_f64(period_ms),
            remaining: total,
        }));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::MAX);
        obs
    }

    #[test]
    fn windows_partition_a_periodic_stream() {
        // 10 ms period, 100 ms windows → 10 arrivals per full window.
        let obs = run_clocked(10.0, 100, 100.0);
        assert_eq!(obs.arrivals(), 100);
        let counts = obs.counts();
        assert_eq!(counts.iter().sum::<f64>(), 100.0);
        // Arrivals at 10,20,…,1000 ms: window 0 covers [0,100) — nine
        // arrivals (t = 100 ms sits on the boundary and opens window 1)
        // — then ten per window until the last arrival opens window 10.
        assert_eq!(counts.len(), 11);
        assert_eq!(counts[0], 9.0, "{counts:?}");
        assert!(counts[1..10].iter().all(|&c| c == 10.0), "{counts:?}");
        assert_eq!(counts[10], 1.0);
        // Byte rate of a full window: 10 × 500 B / 0.1 s = 50 kB/s.
        assert_eq!(obs.byte_rates()[3], 50_000.0);
    }

    #[test]
    fn piat_moments_recover_the_period() {
        let obs = run_clocked(10.0, 60, 200.0);
        let means = obs.piat_means();
        let vars = obs.piat_variances();
        // Full windows: PIAT mean exactly the 10 ms period, zero variance.
        assert!((means[1] - 0.010).abs() < 1e-12, "{means:?}");
        assert_eq!(vars[1], 0.0);
        obs.with_windows(|ws| {
            assert_eq!(ws[1].piats.count(), 20);
            // Window 0 covers [0,200): 19 arrivals (t = 200 ms opens
            // window 1), and the first arrival starts the PIAT chain.
            assert_eq!(ws[0].piats.count(), 18);
        });
    }

    #[test]
    fn empty_windows_between_bursts_are_materialized() {
        // 400 ms period, 100 ms windows: three of every four windows are
        // empty — they must still exist (the series is a time series).
        let obs = run_clocked(400.0, 4, 100.0);
        let counts = obs.counts();
        assert_eq!(counts.len(), 17); // arrival at 1600 ms → window 16
        assert_eq!(counts.iter().sum::<f64>(), 4.0);
        assert_eq!(counts[4], 1.0);
        assert_eq!(counts[5], 0.0);
        assert!(obs.piat_means()[5].is_nan());
        assert!(obs.piat_variances()[4].is_nan()); // one PIAT, no variance
    }

    #[test]
    fn clear_discards_and_observer_keeps_window_config() {
        let obs = run_clocked(10.0, 30, 50.0);
        assert!(obs.windows() > 0 && obs.arrivals() == 30);
        obs.clear();
        assert_eq!(obs.windows(), 0);
        assert_eq!(obs.arrivals(), 0);
        assert_eq!(obs.window_secs(), 0.050);
    }

    #[test]
    #[should_panic(expected = "window width must be positive")]
    fn zero_window_panics() {
        let _ = WindowedObserver::new(SimDuration::ZERO);
    }

    /// Fold `(piat, bytes)` observations into one window.
    fn window_of(samples: &[(f64, u64)]) -> WindowStats {
        let mut w = WindowStats::empty();
        for &(piat, bytes) in samples {
            w.count += 1;
            w.bytes += bytes;
            w.piats.push(piat);
        }
        w
    }

    #[test]
    fn merge_of_split_halves_equals_sequential_folding() {
        // The satellite property: any split of a window's observation
        // population merges back to the sequential fold — counts/bytes
        // bit-for-bit, moments f64-equal (RunningMoments::merge is the
        // exact pairwise combination; tolerances cover re-association).
        let samples: Vec<(f64, u64)> = (0..257)
            .map(|i| (10e-3 + (i as f64 * 0.7).sin() * 8e-6, 500 + (i % 3)))
            .collect();
        let whole = window_of(&samples);
        for split in [0usize, 1, 64, 128, 256, 257] {
            let mut a = window_of(&samples[..split]);
            let b = window_of(&samples[split..]);
            a.merge(&b);
            assert_eq!(a.count, whole.count);
            assert_eq!(a.bytes, whole.bytes);
            assert_eq!(a.piats.count(), whole.piats.count());
            let (am, wm) = (a.piats.mean().unwrap(), whole.piats.mean().unwrap());
            assert!((am - wm).abs() < 1e-15, "split {split}: mean {am} vs {wm}");
            let (av, wv) = (a.piats.variance().unwrap(), whole.piats.variance().unwrap());
            assert!(
                ((av - wv) / wv).abs() < 1e-9,
                "split {split}: var {av:e} vs {wv:e}"
            );
        }
    }

    #[test]
    fn merge_with_empty_is_bit_identity() {
        let w = window_of(&[(0.01, 500), (0.0101, 500), (0.0099, 500)]);
        let mut a = w;
        a.merge(&WindowStats::empty());
        assert_eq!(a, w, "empty on the right is an exact identity");
        let mut e = WindowStats::empty();
        e.merge(&w);
        assert_eq!(e, w, "empty on the left is an exact identity");
    }

    #[test]
    fn series_merge_handles_ragged_lengths() {
        let long = run_clocked(10.0, 100, 100.0); // 11 windows
        let short = run_clocked(10.0, 40, 100.0); // 5 windows
        let mut merged = long.window_series();
        merge_window_series(&mut merged, &short.window_series());
        assert_eq!(merged.len(), 11);
        // Overlapping windows sum counts; the tail passes through.
        let long_counts = long.counts();
        let short_counts = short.counts();
        for (i, w) in merged.iter().enumerate() {
            let want = long_counts[i] + short_counts.get(i).copied().unwrap_or(0.0);
            assert_eq!(w.count as f64, want, "window {i}");
        }
        // Growing direction: short grows to cover long.
        let mut grown = short.window_series();
        merge_window_series(&mut grown, &long.window_series());
        assert_eq!(grown.len(), 11);
        assert_eq!(
            grown.iter().map(|w| w.count).sum::<u64>(),
            140,
            "all arrivals of both series survive the merge"
        );
    }

    #[test]
    fn gaps_blind_the_observer() {
        // 10 ms period, 100 ms windows; down for the first 100 ms of
        // every 400 ms → every fourth window is fully blind.
        let gaps = OutageSchedule::new(
            SimDuration::from_millis_f64(400.0),
            SimDuration::from_millis_f64(100.0),
        );
        let obs = run_clocked_with(10.0, 100, 100.0, Some(gaps));
        let counts = obs.counts();
        let cov = obs.coverages();
        assert_eq!(counts.len(), cov.len());
        // Window 0 covers [0,100) ms — fully down: zero coverage, zero
        // count. Window 1 is fully up.
        assert_eq!(cov[0], 0.0);
        assert_eq!(counts[0], 0.0);
        assert_eq!(cov[1], 1.0);
        assert_eq!(counts[1], 10.0);
        assert_eq!(cov[4], 0.0, "every fourth window blind: {cov:?}");
        assert_eq!(counts[4], 0.0);
        // Observed arrivals = total minus the blinded ones.
        let seen: f64 = counts.iter().sum();
        assert_eq!(obs.arrivals(), seen as u64);
        assert!(seen < 100.0);
        assert!((obs.mean_coverage() - cov.iter().sum::<f64>() / cov.len() as f64).abs() < 1e-12);
    }

    #[test]
    fn piat_chain_restarts_after_a_gap() {
        // First arrival after each gap must start a fresh chain: no
        // recorded inter-arrival may span the 100 ms blind span (all
        // true PIATs are 10 ms).
        let gaps = OutageSchedule::new(
            SimDuration::from_millis_f64(400.0),
            SimDuration::from_millis_f64(100.0),
        );
        let obs = run_clocked_with(10.0, 200, 100.0, Some(gaps));
        obs.with_windows(|ws| {
            for (i, w) in ws.iter().enumerate() {
                if let Some(mean) = w.piats.mean() {
                    assert!(
                        (mean - 0.010).abs() < 1e-9,
                        "window {i}: PIAT mean {mean} spans a gap"
                    );
                }
            }
        });
        // And the first up-window after a gap has one fewer PIAT than
        // arrivals (chain restart), like the very first window.
        obs.with_windows(|ws| {
            assert_eq!(ws[1].count, 10);
            assert_eq!(ws[1].piats.count(), 9, "chain restarted after gap");
        });
    }

    #[test]
    fn partial_gap_coverage_is_fractional() {
        // Down the first 30 ms of every 200 ms with 100 ms windows:
        // even windows have coverage 0.7, odd windows 1.0.
        let gaps = OutageSchedule::new(
            SimDuration::from_millis_f64(200.0),
            SimDuration::from_millis_f64(30.0),
        );
        let obs = run_clocked_with(10.0, 100, 100.0, Some(gaps));
        let cov = obs.coverages();
        assert!((cov[0] - 0.7).abs() < 1e-9, "{cov:?}");
        assert_eq!(cov[1], 1.0);
        assert!((cov[2] - 0.7).abs() < 1e-9);
        // Counts in partially-covered windows are the up-time arrivals
        // only (arrivals at 30..100 ms step 10 → 7 of 10 survive).
        assert_eq!(obs.counts()[0], 7.0);
    }

    #[test]
    fn gap_schedule_survives_clear() {
        let gaps = OutageSchedule::new(
            SimDuration::from_millis_f64(400.0),
            SimDuration::from_millis_f64(100.0),
        );
        let obs = run_clocked_with(10.0, 50, 100.0, Some(gaps));
        let before = obs.coverages();
        obs.clear();
        assert_eq!(obs.windows(), 0);
        // A cleared observer re-records with the same mask (the node's
        // reset path relies on this).
        let obs2 = run_clocked_with(10.0, 50, 100.0, Some(gaps));
        assert_eq!(obs2.coverages(), before);
    }

    #[test]
    fn merged_series_carries_the_minimum_coverage() {
        let mut a = WindowStats::empty();
        a.coverage = 0.6;
        let mut b = WindowStats::empty();
        b.count = 3;
        b.coverage = 0.9;
        a.merge(&b);
        assert_eq!(a.coverage, 0.6);
        assert_eq!(a.count, 3);
        // Ragged series merge: the tail's own coverage passes through.
        let mut series = vec![a];
        let mut tail = WindowStats::empty();
        tail.coverage = 0.25;
        merge_window_series(&mut series, &[b, tail]);
        assert_eq!(series[0].coverage, 0.6);
        assert_eq!(series[1].coverage, 0.25);
    }
}

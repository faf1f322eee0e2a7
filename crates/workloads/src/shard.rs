//! Sharded aggregate execution: one trunk scenario, many worker sub-sims.
//!
//! The second wall between the aggregate family and 10⁶ flows (after
//! per-flow node state, which [`linkpad_sim::cohort`] removes) is the
//! **one event-loop thread per scenario**: a single `Sim` serializes
//! every gateway tick and trunk arrival through one queue. The flows of
//! an aggregate are statistically independent — each draws from its own
//! RNG streams and, under CIT, its wire output is a phase-offset comb —
//! so the population can be **partitioned**: [`ShardedAggregate`] splits
//! the global flow range over `shards` sub-simulations, runs each on a
//! worker (dynamic work-stealing via
//! [`parallel_map_init_catching`](linkpad_sim::parallel::parallel_map_init_catching);
//! every shard is a fresh build of its range), and merges the per-shard
//! trunk window series into one trunk view with
//! [`merge_window_series`](linkpad_sim::observer::merge_window_series).
//!
//! **Harness fault tolerance.** A panicking shard worker no longer
//! tears the whole fan-out down: the panic is caught in the worker
//! (sibling shards keep running), and the failed shard is retried
//! exactly once, sequentially, with a fresh rebuild. Because every
//! shard is a closed deterministic sub-simulation, the retried result
//! is bit-identical to what the first attempt would have produced —
//! a run that needed a retry merges the same window series as one that
//! didn't. A shard that fails twice surfaces as the typed
//! [`ScenarioError::ShardFailed`] carrying the shard index and panic
//! message. Orthogonally, [`ShardedAggregate::with_watchdog`] bounds
//! each shard's event count and wall-clock budget: a tripped shard
//! ends early with its fully-simulated windows intact (the partial
//! last window is discarded) and the merged series is truncated to
//! the prefix every shard completed, so a timeout yields a shorter but
//! valid result instead of none.
//!
//! **Instruments.** Profiling, tracing and wall-time attribution attach
//! per shard ([`ShardedAggregate::with_profiling`],
//! [`ShardedAggregate::with_tracing`],
//! [`ShardedAggregate::with_attribution`]) and compose with the
//! watchdog: they are hooks on the shard sim's one event loop, so an
//! instrumented shard dispatches exactly the events a plain one does.
//!
//! **What the merge means.** Per-window arrival counts and byte totals
//! **superpose exactly**: the merged series is bit-identical to what a
//! single sim of the whole population records (arrival timestamps are
//! µs-jittered per flow but sit ms-deep inside 10⁻¹–10⁰ s windows, so
//! no arrival can change windows across the split; guarded by this
//! module's tests). These count/byte series are what the aggregate
//! adversary's flow-count estimators consume. The per-window PIAT
//! moments **pool** across shards (the exact
//! `RunningMoments::merge` reduction of each shard's inter-arrival
//! population); they are *not* the inter-arrival process of the
//! interleaved union, which is not reconstructible from per-shard
//! statistics in `O(windows)` — see DESIGN.md. A one-shard run is the
//! degenerate case and is bit-identical to the plain single sim,
//! moments included.
//!
//! Shard 0 carries the instrumented target flow (and runs under the
//! builder's own seed, so `shards = 1` reproduces the unsharded run
//! exactly); shards 1.. are observer-only populations under seeds
//! derived from the builder seed and the shard index.

use crate::scenario::{ScenarioBuilder, ScenarioError};
use linkpad_obs::json::{escape, num};
use linkpad_obs::{EventLog, HarnessEvent, Histogram, ProfileReport, TraceReport};
use linkpad_sim::attr::{AttributionReport, AttributionSampler};
use linkpad_sim::observer::{merge_window_series, WindowStats};
use linkpad_sim::parallel::{default_threads, panic_message, parallel_map_init_catching};
use linkpad_sim::time::SimDuration;
use linkpad_stats::rng::splitmix64_mix;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Result of one shard's sub-simulation.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard index (0 carries the target flow).
    pub shard: usize,
    /// Global flow range `[start, start+count)` this shard simulated.
    pub flow_range: (usize, usize),
    /// The shard's trunk window series.
    pub windows: Vec<WindowStats>,
    /// Trunk arrivals in `windows` (`Σ count`): an interrupted shard
    /// counts only the arrivals of the windows it kept.
    pub arrivals: u64,
    /// Events the shard's event loop dispatched.
    pub events: u64,
    /// Largest pending-event population sampled during the run (at the
    /// run-slice granularity — a lower bound on the true peak).
    pub pending_peak: usize,
    /// Did the shard's watchdog budget end the run early? When set,
    /// `windows` holds only the fully-simulated prefix (the partial
    /// window in progress at the trip is discarded).
    pub interrupted: bool,
    /// Sim time (nanoseconds) the shard had reached when its watchdog
    /// tripped — the truncation point a partial result was cut at.
    /// `None` for a complete run.
    pub truncated_at_nanos: Option<u64>,
    /// Engine self-profile, when the run enabled
    /// [`ShardedAggregate::with_profiling`].
    pub profile: Option<ProfileReport>,
    /// Causal trace of the shard's event loop, when the run enabled
    /// [`ShardedAggregate::with_tracing`]. Per-shard and deterministic,
    /// like the profile; deliberately kept out of run manifests (a
    /// trace is an artifact of its own, exported via the Perfetto /
    /// collapsed-stack renderers).
    pub trace: Option<TraceReport>,
    /// Sampled wall-time attribution of the shard's event loop per node
    /// type, when the run enabled [`ShardedAggregate::with_attribution`].
    /// Wall-clock, so unlike the profile it varies run to run.
    pub attribution: Option<AttributionReport>,
}

impl ShardReport {
    /// This shard's entry in the run manifest.
    fn to_json(&self) -> String {
        let profile = match &self.profile {
            Some(p) => format!(",\"profile\":{}", p.to_json()),
            None => String::new(),
        };
        format!(
            "{{\"shard\":{},\"flow_start\":{},\"flow_count\":{},\"events\":{},\
             \"arrivals\":{},\"windows\":{},\"pending_peak\":{},\"interrupted\":{}{}}}",
            self.shard,
            self.flow_range.0,
            self.flow_range.1,
            self.events,
            self.arrivals,
            self.windows.len(),
            self.pending_peak,
            self.interrupted,
            profile,
        )
    }
}

/// Merged outcome of a sharded aggregate run.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// The merged trunk window series (counts/bytes superposed exactly,
    /// PIAT moments pooled — see the module docs).
    pub windows: Vec<WindowStats>,
    /// Per-shard reports, in shard order.
    pub shards: Vec<ShardReport>,
    /// Wall-clock seconds for the whole fan-out, including merge.
    pub wall_secs: f64,
}

impl ShardedRun {
    /// Per-window arrival counts of the merged trunk view, as `f64` for
    /// the estimators (same shape as `ObserverHandle::counts`).
    pub fn counts(&self) -> Vec<f64> {
        self.windows.iter().map(|w| w.count as f64).collect()
    }

    /// Total trunk arrivals across all shards.
    pub fn arrivals(&self) -> u64 {
        self.shards.iter().map(|s| s.arrivals).sum()
    }

    /// Total events dispatched across all shard event loops.
    pub fn events(&self) -> u64 {
        self.shards.iter().map(|s| s.events).sum()
    }

    /// Largest sampled pending-event population of any shard — the
    /// per-worker memory high-water proxy.
    pub fn pending_peak(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.pending_peak)
            .max()
            .unwrap_or(0)
    }

    /// Did any shard's watchdog end its run early? The merged series is
    /// then truncated to the prefix every shard fully simulated.
    pub fn interrupted(&self) -> bool {
        self.shards.iter().any(|s| s.interrupted)
    }

    /// The shards' wall-time attributions merged into one per-node-type
    /// breakdown of the run, or `None` when attribution was off.
    pub fn attribution(&self) -> Option<AttributionReport> {
        let mut reports = self.shards.iter().filter_map(|s| s.attribution.as_ref());
        let mut total = reports.next()?.clone();
        for report in reports {
            total.merge(report);
        }
        Some(total)
    }
}

/// An aggregate scenario split over worker sub-simulations (see the
/// module docs). Construct from an aggregate [`ScenarioBuilder`] with a
/// shard count set via [`ScenarioBuilder::with_shards`].
#[derive(Debug, Clone)]
pub struct ShardedAggregate {
    builder: ScenarioBuilder,
    ranges: Vec<(usize, usize)>,
    /// Per-shard run budget: (max events, max wall clock).
    watchdog: Option<(Option<u64>, Option<Duration>)>,
    /// Test hook: attempts at this shard panic while the shared budget
    /// is positive (each firing decrements it).
    panic_budget: Option<(usize, Arc<AtomicUsize>)>,
    /// Enable per-shard engine self-profiling
    /// ([`linkpad_sim::engine::Sim::enable_profiling`]).
    profiling: bool,
    /// Enable per-shard causal tracing
    /// ([`linkpad_sim::engine::Sim::enable_tracing`]).
    tracing: bool,
    /// Attribute per-shard wall time, sampling one dispatch in n on
    /// average ([`linkpad_sim::attr::AttributionSampler`]).
    attribution: Option<u64>,
}

impl ShardedAggregate {
    /// Validate and plan the split. Fails unless the builder is an
    /// aggregate (whose trunk observer is the mergeable view) with no
    /// pre-set flow range and `1 ≤ shards ≤ flows`.
    pub fn new(builder: ScenarioBuilder) -> Result<Self, ScenarioError> {
        let Some(spec) = builder.aggregate_spec() else {
            return Err(ScenarioError::InvalidSharding(
                "only the aggregate family shards",
            ));
        };
        if spec.flow_range.is_some() {
            return Err(ScenarioError::InvalidSharding(
                "builder is already restricted to a flow range",
            ));
        }
        let shards = builder.shards();
        if shards == 0 || shards > spec.flows {
            return Err(ScenarioError::InvalidSharding(
                "shard count must be between 1 and the flow count",
            ));
        }
        // Even split; the first `flows % shards` shards absorb the
        // remainder, so shard sizes differ by at most one.
        let base = spec.flows / shards;
        let rem = spec.flows % shards;
        let mut ranges = Vec::with_capacity(shards);
        let mut start = 0usize;
        for s in 0..shards {
            let count = base + usize::from(s < rem);
            ranges.push((start, count));
            start += count;
        }
        Ok(Self {
            builder,
            ranges,
            watchdog: None,
            panic_budget: None,
            profiling: false,
            tracing: false,
            attribution: None,
        })
    }

    /// Enable engine self-profiling in every shard sim: each
    /// [`ShardReport`] (and manifest) then carries a
    /// [`ProfileReport`] — batch-size distribution, pending-depth
    /// series, event-store op counters. Profiles are deterministic per
    /// shard.
    pub fn with_profiling(mut self) -> Self {
        self.profiling = true;
        self
    }

    /// Enable causal tracing in every shard sim: each [`ShardReport`]
    /// then carries a [`TraceReport`] — per-event records with exact
    /// scheduler provenance, renderable as a Perfetto timeline or
    /// collapsed causal stacks. Traces are deterministic per shard
    /// (S=1 tracing reproduces the unsharded sim's trace bit-for-bit).
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Attribute every shard's event-loop wall time to store, context
    /// and handler phases per node type, sampling one dispatch in
    /// `sample_every` on average: each [`ShardReport`] then carries an
    /// [`AttributionReport`], and [`ShardedRun::attribution`] merges
    /// them. Simulated results are unchanged. Cohort service is not an
    /// event: the trunk serves its cohorts inside the dispatches of the
    /// target's packets and at each run slice's end, so a shard without
    /// the target dispatches nothing and its report samples nothing.
    pub fn with_attribution(mut self, sample_every: u64) -> Self {
        self.attribution = Some(sample_every);
        self
    }

    /// Bound every shard's run: end its event loop early once it has
    /// dispatched `max_events` events or run for `max_wall` of wall
    /// clock (see [`linkpad_sim::engine::Sim::set_watchdog`]). A
    /// tripped shard reports `interrupted` and keeps only its
    /// fully-simulated windows; the merged series truncates to the
    /// prefix every shard completed. Cohort service is not an event, so
    /// the budget bounds only the target's path: a shard without the
    /// target dispatches nothing and always completes. Its work is fixed
    /// by the run length, since nothing feeds back into open-loop cohort
    /// traffic to make it run away.
    pub fn with_watchdog(mut self, max_events: Option<u64>, max_wall: Option<Duration>) -> Self {
        self.watchdog = Some((max_events, max_wall));
        self
    }

    /// Test hook: make the **first** attempt at shard `shard` panic
    /// inside its worker. Used by the fault-tolerance tests and the
    /// `fig_fault_robustness` harness gate to prove that a crashed
    /// worker is retried and the merged result is bit-identical to an
    /// undisturbed run.
    pub fn inject_panic_once(&mut self, shard: usize) {
        self.inject_panics(shard, 1);
    }

    /// Test hook: make the first `times` attempts at shard `shard`
    /// panic. `times >= 2` also defeats the single retry, exercising
    /// the [`ScenarioError::ShardFailed`] surface.
    pub fn inject_panics(&mut self, shard: usize, times: usize) {
        self.panic_budget = Some((shard, Arc::new(AtomicUsize::new(times))));
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.ranges.len()
    }

    /// The global flow range of shard `s`.
    pub fn flow_range(&self, s: usize) -> (usize, usize) {
        self.ranges[s]
    }

    /// The master seed shard `s` runs under. Shard 0 uses the builder's
    /// own seed — a one-shard run reproduces the unsharded scenario
    /// bit-for-bit — and later shards derive independent seeds from
    /// `(builder seed, shard index)`.
    pub fn shard_seed(&self, s: usize) -> u64 {
        if s == 0 {
            self.builder.seed()
        } else {
            splitmix64_mix(
                self.builder
                    .seed()
                    .wrapping_add((s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            )
        }
    }

    /// The builder materializing shard `s`'s sub-simulation.
    pub fn shard_builder(&self, s: usize) -> ScenarioBuilder {
        let (start, count) = self.ranges[s];
        self.builder
            .clone()
            .with_flow_range(start, count)
            .with_seed(self.shard_seed(s))
    }

    /// Run every shard for `secs` of simulated time on the default
    /// worker pool and merge the trunk views.
    pub fn run_for_secs(&self, secs: f64) -> Result<ShardedRun, ScenarioError> {
        self.run_for_secs_with_threads(secs, default_threads())
    }

    /// [`ShardedAggregate::run_for_secs`] with an explicit worker count.
    /// Results are independent of `threads` (each shard is a closed,
    /// deterministic sub-simulation; the merge runs in shard order).
    ///
    /// A shard whose worker panics is retried once, sequentially, with
    /// a fresh rebuild — bit-identical to the result the first attempt
    /// would have produced (see the module docs). A shard that panics
    /// twice fails the run with [`ScenarioError::ShardFailed`].
    pub fn run_for_secs_with_threads(
        &self,
        secs: f64,
        threads: usize,
    ) -> Result<ShardedRun, ScenarioError> {
        self.run_observed(secs, threads, None)
    }

    /// [`ShardedAggregate::run_for_secs_with_threads`] that also emits
    /// structured lifecycle events — run start/finish, per-shard
    /// completion, panic/retry, watchdog truncation, fault-plan
    /// activation, observer gap windows — into `log`. Events are
    /// emitted by the coordinator after the fan-out, so the simulated
    /// results are byte-identical to an unlogged run.
    pub fn run_for_secs_logged(
        &self,
        secs: f64,
        threads: usize,
        log: &mut EventLog,
    ) -> Result<ShardedRun, ScenarioError> {
        self.run_observed(secs, threads, Some(log))
    }

    fn run_observed(
        &self,
        secs: f64,
        threads: usize,
        mut log: Option<&mut EventLog>,
    ) -> Result<ShardedRun, ScenarioError> {
        let start = Instant::now();
        if let Some(l) = log.as_deref_mut() {
            l.emit(HarnessEvent::RunStart {
                seed: self.builder.seed(),
                shards: self.shards(),
                flows: self.builder.aggregate_spec().map_or(0, |s| s.flows),
            });
            if let Some(plan) = self.builder.aggregate_spec().and_then(|s| s.faults) {
                l.emit(HarnessEvent::FaultPlanActive {
                    summary: format!("{plan:?}"),
                });
            }
        }
        let shard_ids: Vec<usize> = (0..self.shards()).collect();
        let attempts =
            parallel_map_init_catching(shard_ids, threads, || (), |_, s| self.run_shard(s, secs));
        let mut shards = Vec::with_capacity(attempts.len());
        for (s, attempt) in attempts.into_iter().enumerate() {
            let report = match attempt {
                Ok(report) => report?,
                // Worker panic: one fresh-rebuild retry. The shard is a
                // closed deterministic sub-sim, so a clean retry
                // reproduces the lost result exactly.
                Err(panic) => {
                    if let Some(l) = log.as_deref_mut() {
                        l.emit(HarnessEvent::ShardPanicked {
                            shard: s,
                            cause: panic.message,
                        });
                    }
                    match catch_unwind(AssertUnwindSafe(|| self.run_shard(s, secs))) {
                        Ok(report) => {
                            if let Some(l) = log.as_deref_mut() {
                                l.emit(HarnessEvent::ShardRetried { shard: s });
                            }
                            report?
                        }
                        Err(payload) => {
                            return Err(ScenarioError::ShardFailed {
                                shard: s,
                                cause: panic_message(payload),
                            });
                        }
                    }
                }
            };
            if let Some(l) = log.as_deref_mut() {
                l.emit(HarnessEvent::ShardFinished {
                    shard: report.shard,
                    events: report.events,
                    arrivals: report.arrivals,
                    windows: report.windows.len(),
                    interrupted: report.interrupted,
                });
            }
            shards.push(report);
        }
        let mut windows = Vec::new();
        for report in &shards {
            merge_window_series(&mut windows, &report.windows);
        }
        // A watchdog-interrupted shard contributes a shorter series;
        // truncate the merge to the prefix every shard fully simulated
        // so partial results never mix complete and incomplete windows.
        // The truncation is announced prominently: a silently shortened
        // series reads as a complete run to anyone who does not think
        // to check the interrupted flags.
        if shards.iter().any(|r| r.interrupted) {
            let complete = shards.iter().map(|r| r.windows.len()).min().unwrap_or(0);
            let dropped = windows.len().saturating_sub(complete);
            windows.truncate(complete);
            if let Some(l) = log.as_deref_mut() {
                if let Some(first) = shards.iter().find(|r| r.interrupted) {
                    l.emit(HarnessEvent::WatchdogTruncation {
                        complete_windows: complete,
                        dropped,
                        first_tripped_shard: first.shard,
                        sim_nanos: first.truncated_at_nanos.unwrap_or(0),
                    });
                }
            }
        }
        if let Some(l) = log {
            for (i, w) in windows.iter().enumerate() {
                if w.coverage < 1.0 {
                    l.emit(HarnessEvent::ObserverGap {
                        window: i,
                        coverage: w.coverage,
                    });
                }
            }
            l.emit(HarnessEvent::RunFinished {
                events: shards.iter().map(|r| r.events).sum(),
                arrivals: shards.iter().map(|r| r.arrivals).sum(),
                windows: windows.len(),
                interrupted: shards.iter().any(|r| r.interrupted),
            });
        }
        Ok(ShardedRun {
            windows,
            shards,
            wall_secs: start.elapsed().as_secs_f64(),
        })
    }

    /// Render the machine-readable manifest of a finished run
    /// (`linkpad-run-manifest-v2` JSON) straight from the run record:
    /// seed, spec digest, totals, the merged window series' byte total
    /// and count distribution, the per-shard breakdown (with profiles
    /// when enabled), and — when a watchdog cut the run short —
    /// `"interrupted": true` plus the truncation point, so a partial
    /// result can never be mistaken for a complete one. Two runs of one
    /// `(spec, seed)` render equal manifests apart from `wall_secs`.
    pub fn manifest(&self, bin: &str, run: &ShardedRun) -> String {
        // The digest names the spec alone (the seed has its own key), so
        // runs of one spec at different seeds share it.
        let spec = format!("{:?}", self.builder.clone().with_seed(0));
        let truncation = match run.shards.iter().find(|s| s.interrupted) {
            Some(s) => format!(
                "{{\"complete_windows\":{},\"first_tripped_shard\":{},\"sim_nanos\":{}}}",
                run.windows.len(),
                s.shard,
                s.truncated_at_nanos.unwrap_or(0)
            ),
            None => "null".to_string(),
        };
        let mut window_counts = Histogram::new();
        for w in &run.windows {
            window_counts.record(w.count);
        }
        let shards: Vec<String> = run.shards.iter().map(ShardReport::to_json).collect();
        format!(
            "{{\n  \"schema\": \"linkpad-run-manifest-v2\",\n  \"bin\": \"{}\",\n  \"seed\": {},\n  \
             \"spec_digest\": \"fnv1a:{:016x}\",\n  \"interrupted\": {},\n  \"truncation\": {},\n  \
             \"wall_secs\": {},\n  \"events\": {},\n  \"arrivals\": {},\n  \
             \"windows\": {},\n  \"peak_pending\": {},\n  \"window_bytes\": {},\n  \
             \"window_counts\": {},\n  \"shards\": [{}]\n}}\n",
            escape(bin),
            self.builder.seed(),
            linkpad_obs::fnv1a(spec.as_bytes()),
            run.interrupted(),
            truncation,
            num(run.wall_secs),
            run.events(),
            run.arrivals(),
            run.windows.len(),
            run.pending_peak(),
            run.windows.iter().map(|w| w.bytes).sum::<u64>(),
            window_counts.to_json(),
            shards.join(","),
        )
    }

    /// One worker step: build shard `s`'s sub-sim, arm the enabled
    /// instruments, run it, extract the trunk view.
    fn run_shard(&self, s: usize, secs: f64) -> Result<ShardReport, ScenarioError> {
        if let Some((target, remaining)) = &self.panic_budget {
            let armed = *target == s
                && remaining
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok();
            if armed {
                panic!("injected shard fault (test hook)");
            }
        }
        let mut scenario = self.shard_builder(s).build()?;
        if let Some((max_events, max_wall)) = self.watchdog {
            scenario.sim.set_watchdog(max_events, max_wall);
        }
        if self.profiling {
            scenario.sim.enable_profiling();
        }
        if self.tracing {
            scenario.sim.enable_tracing();
        }
        // Run in slices, sampling the pending-event population for the
        // memory high-water report. A tripped watchdog makes the
        // remaining slices no-ops.
        const SLICES: usize = 8;
        let slice = SimDuration::from_secs_f64(secs / SLICES as f64);
        let mut sampler = self.attribution.map(AttributionSampler::new);
        let mut pending_peak = 0;
        for _ in 0..SLICES {
            let until = scenario.sim.now() + slice;
            match &mut sampler {
                Some(sampler) => scenario.sim.run_until_with(until, sampler),
                None => scenario.sim.run_until(until),
            };
            pending_peak = pending_peak.max(scenario.sim.pending_events());
        }
        let observer = scenario
            .aggregate
            .as_ref()
            .ok_or(ScenarioError::InvalidSharding(
                "shard built without aggregate handles",
            ))?
            .trunk_observer
            .clone()
            .ok_or(ScenarioError::InvalidSharding(
                "sharded runs merge window series; the shard built no trunk observer",
            ))?;
        let interrupted = scenario.sim.watchdog_tripped();
        let mut windows = observer.window_series();
        if interrupted {
            // Keep only windows the clock fully crossed: the window
            // containing the trip instant is incomplete (its counts
            // stop mid-window) and would read as a traffic dip.
            let window = observer.window();
            if window.as_nanos() > 0 {
                let complete = (scenario.sim.now().as_nanos() / window.as_nanos()) as usize;
                windows.truncate(complete);
            }
        }
        Ok(ShardReport {
            shard: s,
            flow_range: self.ranges[s],
            arrivals: windows.iter().map(|w| w.count).sum(),
            windows,
            events: scenario.sim.events_processed(),
            pending_peak,
            interrupted,
            truncated_at_nanos: interrupted.then(|| scenario.sim.now().as_nanos()),
            profile: scenario.sim.profile_report(),
            trace: scenario.sim.trace_report(),
            attribution: sampler.map(|s| s.report()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::PhaseSpec;

    fn small_builder(seed: u64, flows: usize, shards: usize) -> ScenarioBuilder {
        ScenarioBuilder::aggregate(seed, flows)
            .with_payload_rate(10.0)
            .with_trunk_observer(0.1)
            .with_cohorts(4)
            .with_shards(shards)
    }

    #[test]
    fn one_shard_run_is_bit_identical_to_the_single_sim() {
        let builder = small_builder(31, 12, 1);
        let sharded = ShardedAggregate::new(builder.clone()).unwrap();
        let run = sharded.run_for_secs(2.0).unwrap();

        let mut single = builder.build().unwrap();
        single.run_for_secs(2.0);
        let obs = single
            .aggregate
            .as_ref()
            .unwrap()
            .trunk_observer
            .clone()
            .unwrap();
        // Full series equality — counts, bytes, and PIAT moments bit for
        // bit (merging a single shard into an empty series is exact).
        assert_eq!(run.windows, obs.window_series());
        assert_eq!(run.arrivals(), obs.arrivals());
    }

    #[test]
    fn merged_counts_match_the_unsharded_single_sim_bit_identically() {
        // Counts and bytes superpose: splitting the population over
        // shards must not move a single arrival across a window, even
        // though per-flow jitter draws differ between the runs (µs-scale
        // jitter vs ms-scale window margins).
        let t = 2.05; // end mid-window
        let single_builder = small_builder(32, 13, 1);
        let mut single = single_builder.build().unwrap();
        single.run_for_secs(t);
        let obs = single
            .aggregate
            .as_ref()
            .unwrap()
            .trunk_observer
            .clone()
            .unwrap();

        for shards in [2usize, 3, 5] {
            let sharded = ShardedAggregate::new(small_builder(32, 13, shards)).unwrap();
            let run = sharded.run_for_secs(t).unwrap();
            assert_eq!(run.shards.len(), shards);
            assert_eq!(run.counts(), obs.counts(), "{shards} shards");
            let single_bytes: Vec<u64> =
                obs.with_windows(|ws| ws.iter().map(|w| w.bytes).collect());
            let merged_bytes: Vec<u64> = run.windows.iter().map(|w| w.bytes).collect();
            assert_eq!(merged_bytes, single_bytes, "{shards} shards");
            assert_eq!(run.arrivals(), obs.arrivals(), "{shards} shards");
            // The pooled PIAT population is the union of the shards'.
            let pooled: u64 = run.windows.iter().map(|w| w.piats.count()).sum();
            let per_shard: u64 = run
                .shards
                .iter()
                .flat_map(|s| s.windows.iter().map(|w| w.piats.count()))
                .sum();
            assert_eq!(pooled, per_shard);
        }
    }

    #[test]
    fn position_dependent_phase_layouts_survive_any_split() {
        // Regression guards: (a) stratified phases are keyed to global
        // flow/member indices, so cohort grouping at shard boundaries
        // must not change the aggregate phase multiset; (b) no shard may
        // run another shard's phase layout. Both bugs showed up as
        // merged counts diverging from the unsharded single sim — in
        // per-flow mode (a 3-shard run once reused shard 1's stratified
        // topology for shard 2) and in cohort mode (shard-local chunking
        // restarted stratification at each range).
        for phases in [PhaseSpec::Stratified, PhaseSpec::Uniform { seed: 9 }] {
            for cohorts in [None, Some(4)] {
                let mut builder = ScenarioBuilder::aggregate(42, 13)
                    .with_payload_rate(10.0)
                    .with_trunk_observer(0.1)
                    .with_phases(phases);
                if let Some(k) = cohorts {
                    builder = builder.with_cohorts(k);
                }
                let mut single = builder.clone().build().unwrap();
                single.run_for_secs(1.55);
                let obs = single
                    .aggregate
                    .as_ref()
                    .unwrap()
                    .trunk_observer
                    .clone()
                    .unwrap();
                for shards in [2usize, 3] {
                    let run = ShardedAggregate::new(builder.clone().with_shards(shards))
                        .unwrap()
                        .run_for_secs_with_threads(1.55, 1)
                        .unwrap();
                    assert_eq!(
                        run.counts(),
                        obs.counts(),
                        "{phases:?} cohorts={cohorts:?} shards={shards}"
                    );
                }
            }
        }
    }

    #[test]
    fn each_shard_equals_a_fresh_build_of_its_range() {
        // flows = 10, cohorts of 4, 3 shards → ranges (0,4), (4,3),
        // (7,3). On the global member grid, shard 1 partitions into
        // cohorts of sizes [1, 2] and shard 2 into [2, 1]: same flow
        // count, different alignment, different per-node jitter draw
        // sequences. Shard 2 must run its own partition, not shard 1's
        // — regression guard from when a worker reused the previous
        // shard's topology (same counts, bitwise-different PIAT moments,
        // thread-schedule dependent).
        let sharded = ShardedAggregate::new(
            ScenarioBuilder::aggregate(55, 10)
                .with_payload_rate(10.0)
                .with_trunk_observer(0.1)
                .with_cohorts(4)
                .with_shards(3),
        )
        .unwrap();
        // threads = 1 makes one worker run every shard in order.
        let run = sharded.run_for_secs_with_threads(1.55, 1).unwrap();
        for s in 0..3 {
            let mut fresh = sharded.shard_builder(s).build().unwrap();
            fresh.run_for_secs(1.55);
            let obs = fresh
                .aggregate
                .as_ref()
                .unwrap()
                .trunk_observer
                .clone()
                .unwrap();
            assert_eq!(
                run.shards[s].windows,
                obs.window_series(),
                "shard {s} must match a fresh build bit-for-bit, moments included"
            );
        }
    }

    #[test]
    fn cohort_grouping_is_keyed_to_the_global_cohort_grid() {
        // A shard starting mid-cohort builds a leading partial cohort
        // aligned to the global grid, not a full local chunk: flows
        // 1..14 on a 4-grid are cohorts {1-4},{5-8},{9-12},{13}, so the
        // range [6, 7) → flows 6..13 splits as {6-8},{9-12}.
        let builder = ScenarioBuilder::aggregate(7, 14)
            .with_payload_rate(10.0)
            .with_trunk_observer(0.1)
            .with_cohorts(4)
            .with_flow_range(6, 7);
        let s = builder.build().unwrap();
        let sizes: Vec<u32> = s
            .aggregate
            .as_ref()
            .unwrap()
            .cohorts
            .iter()
            .map(|c| c.flows())
            .collect();
        assert_eq!(sizes, vec![3, 4]);
    }

    #[test]
    fn sharded_runs_are_deterministic_across_invocations_and_threads() {
        let sharded = ShardedAggregate::new(small_builder(33, 10, 3)).unwrap();
        let a = sharded.run_for_secs_with_threads(1.5, 1).unwrap();
        let b = sharded.run_for_secs_with_threads(1.5, 4).unwrap();
        assert_eq!(a.windows, b.windows);
        assert_eq!(a.events(), b.events());
        for (ra, rb) in a.shards.iter().zip(&b.shards) {
            assert_eq!(ra.windows, rb.windows, "shard {}", ra.shard);
            assert_eq!(ra.flow_range, rb.flow_range);
        }
    }

    #[test]
    fn per_flow_mode_shards_too() {
        // Without cohorts: every flow a real sender gateway, split over
        // ranges — the small-N cross-check configuration.
        let builder = ScenarioBuilder::aggregate(34, 6)
            .with_payload_rate(10.0)
            .with_trunk_observer(0.1)
            .with_shards(2);
        let mut single = builder.clone().build().unwrap();
        single.run_for_secs(1.55);
        let obs = single
            .aggregate
            .as_ref()
            .unwrap()
            .trunk_observer
            .clone()
            .unwrap();
        let run = ShardedAggregate::new(builder)
            .unwrap()
            .run_for_secs(1.55)
            .unwrap();
        assert_eq!(run.counts(), obs.counts());
        // Only shard 0 carries the target; the other shard's trunk
        // forwards nothing.
        assert_eq!(run.shards[0].flow_range, (0, 3));
        assert_eq!(run.shards[1].flow_range, (3, 3));
    }

    #[test]
    fn observer_only_shard_has_zeroed_target_scaffold() {
        let builder = small_builder(35, 8, 2);
        let sharded = ShardedAggregate::new(builder).unwrap();
        let mut shard1 = sharded.shard_builder(1).build().unwrap();
        shard1.run_for_secs(1.0);
        assert_eq!(shard1.gateway.ticks(), 0, "no target gateway wired");
        assert_eq!(shard1.receiver.payload_delivered(), 0);
        assert_eq!(shard1.sender_tap.count(), 0);
        let agg = shard1.aggregate.as_ref().unwrap();
        assert!(agg.gateways.is_empty());
        let obs = agg.trunk_observer.clone().unwrap();
        assert!(obs.arrivals() > 0, "cohort traffic still observed");
    }

    #[test]
    fn a_panicked_shard_is_retried_and_the_merge_is_bit_identical() {
        let clean = ShardedAggregate::new(small_builder(61, 12, 3)).unwrap();
        let baseline = clean.run_for_secs_with_threads(1.5, 2).unwrap();
        let mut faulty = ShardedAggregate::new(small_builder(61, 12, 3)).unwrap();
        faulty.inject_panic_once(1);
        let run = faulty.run_for_secs_with_threads(1.5, 2).unwrap();
        // The retry rebuilt shard 1 from scratch; every series — per
        // shard and merged — matches the undisturbed run bit for bit.
        assert_eq!(run.windows, baseline.windows);
        assert_eq!(run.shards[1].windows, baseline.shards[1].windows);
        assert_eq!(run.arrivals(), baseline.arrivals());
        assert!(!run.interrupted());
    }

    #[test]
    fn a_twice_panicking_shard_fails_with_the_typed_error() {
        let mut faulty = ShardedAggregate::new(small_builder(62, 8, 2)).unwrap();
        faulty.inject_panics(1, 2);
        match faulty.run_for_secs_with_threads(1.0, 2) {
            Err(ScenarioError::ShardFailed { shard, cause }) => {
                assert_eq!(shard, 1);
                assert!(cause.contains("injected shard fault"), "cause: {cause}");
            }
            Ok(_) => panic!("expected ShardFailed, got a successful run"),
            Err(other) => panic!("expected ShardFailed, got {other}"),
        }
    }

    #[test]
    fn watchdog_budget_yields_a_truncated_but_valid_series() {
        let builder = small_builder(63, 12, 3);
        let full = ShardedAggregate::new(builder.clone())
            .unwrap()
            .run_for_secs_with_threads(2.0, 1)
            .unwrap();
        assert!(!full.interrupted());
        // Cohort traffic is no event: only the target shard dispatches.
        assert!(full.shards[0].events > 0);
        assert!(full.shards[1..].iter().all(|r| r.events == 0));
        // An event budget a quarter of the target shard's full run trips
        // it early.
        let budget = full.shards[0].events / 4;
        let bounded = ShardedAggregate::new(builder)
            .unwrap()
            .with_watchdog(Some(budget), None);
        let run = bounded.run_for_secs_with_threads(2.0, 1).unwrap();
        assert!(run.interrupted());
        let (target, rest) = run.shards.split_first().unwrap();
        assert!(target.interrupted);
        assert!(
            !target.windows.is_empty() && target.windows.len() < full.shards[0].windows.len(),
            "partial series: {} of {} windows",
            target.windows.len(),
            full.shards[0].windows.len()
        );
        // The target shard's surviving prefix is bit-identical to the
        // unbounded run: truncation removed incomplete windows, never
        // corrupted one.
        assert_eq!(
            target.windows[..],
            full.shards[0].windows[..target.windows.len()]
        );
        // A shard without the target has nothing to bound: it completes
        // the unbounded run's series without a dispatch.
        for (shard, unbounded) in rest.iter().zip(&full.shards[1..]) {
            assert!(!shard.interrupted, "shard {}", shard.shard);
            assert_eq!(shard.events, 0, "shard {}", shard.shard);
            assert_eq!(shard.windows, unbounded.windows, "shard {}", shard.shard);
        }
        // The merge truncates to the prefix every shard completed.
        assert_eq!(run.windows.len(), target.windows.len());
        assert_eq!(run.windows[..], full.windows[..run.windows.len()]);
        // Each shard reports the arrivals of the windows it kept, not
        // those of the partial window it discarded.
        for shard in &run.shards {
            let kept: u64 = shard.windows.iter().map(|w| w.count).sum();
            assert_eq!(shard.arrivals, kept, "shard {}", shard.shard);
        }
    }

    #[test]
    fn attributed_shards_run_exactly_like_plain_shards_even_under_a_watchdog() {
        let builder = small_builder(64, 12, 3);
        let run = |attribute: bool, budget: Option<u64>| {
            let mut sharded = ShardedAggregate::new(builder.clone()).unwrap();
            if attribute {
                sharded = sharded.with_attribution(8);
            }
            if budget.is_some() {
                sharded = sharded.with_watchdog(budget, None);
            }
            sharded.run_for_secs_with_threads(1.5, 2).unwrap()
        };
        let plain = run(false, None);
        assert!(plain.attribution().is_none());
        let attributed = run(true, None);
        assert_eq!(attributed.windows, plain.windows);
        assert_eq!(attributed.events(), plain.events());
        // The target shard's dispatches are sampled; a shard without the
        // target dispatches nothing, so there is nothing to sample.
        for shard in &attributed.shards {
            let report = shard.attribution.as_ref().expect("attribution enabled");
            if shard.shard == 0 {
                assert!(report.samples() > 0, "shard {} sampled", shard.shard);
            } else {
                assert_eq!(shard.events, 0, "shard {}", shard.shard);
                assert_eq!(report.samples(), 0, "shard {}", shard.shard);
            }
        }
        let total = attributed.attribution().expect("attribution enabled");
        let per_shard: u64 = attributed
            .shards
            .iter()
            .filter_map(|s| s.attribution.as_ref())
            .map(|a| a.dispatches_seen)
            .sum();
        assert_eq!(total.dispatches_seen, per_shard);
        // The watchdog bounds attributed shards exactly like plain ones.
        let budget = Some(plain.shards[0].events / 4);
        let (bounded, bounded_attributed) = (run(false, budget), run(true, budget));
        assert!(bounded_attributed.interrupted());
        assert_eq!(bounded_attributed.windows, bounded.windows);
        assert_eq!(bounded_attributed.events(), bounded.events());
    }

    #[test]
    fn misconfigurations_fail_loudly() {
        // Not the aggregate family.
        let lab = ScenarioBuilder::lab(1);
        assert!(matches!(
            ShardedAggregate::new(lab),
            Err(ScenarioError::InvalidSharding(_))
        ));
        // More shards than flows.
        let too_many = ScenarioBuilder::aggregate(1, 2)
            .with_trunk_observer(0.1)
            .with_shards(3);
        assert!(matches!(
            ShardedAggregate::new(too_many),
            Err(ScenarioError::InvalidSharding(_))
        ));
        // Pre-restricted range.
        let ranged = ScenarioBuilder::aggregate(1, 8)
            .with_trunk_observer(0.1)
            .with_flow_range(0, 4)
            .with_shards(2);
        assert!(matches!(
            ShardedAggregate::new(ranged),
            Err(ScenarioError::InvalidSharding(_))
        ));
    }
}

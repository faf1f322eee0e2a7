//! The paper's experiment topologies as builders.
//!
//! * **lab** (Fig. 3): `source → GW1 → [tap] → ESR-5000-style router
//!   (shared with a cross-traffic workstation) → [tap] → GW2 → sink`.
//!   The router serves the workstation's packet-level cross traffic
//!   itself, drawing each arrival when a padded packet needs the backlog
//!   it left ([`Router::with_cross_traffic`]). With cross traffic off
//!   this is §5.1's zero-cross-traffic setup — the adversary's best
//!   case; with it on, it is the Fig. 6 sweep.
//! * **campus** (Fig. 7a): the same, but the padded flow traverses a
//!   3-router enterprise chain with light cross traffic at every hop and
//!   the adversary taps right in front of the receiver gateway.
//! * **wan** (Fig. 7b): a 15-router chain ("the path … spans over 15
//!   routers") with heavy cross traffic — the Ohio→Texas configuration.
//!
//! Every built scenario exposes two taps (sender egress and receiver
//! ingress) so experiments choose the adversary's vantage point, plus
//! gateway/receiver handles for QoS and overhead accounting.

use crate::aggregate::{AggregateSpec, PhaseSpec, SwitchingSpec};
use crate::cross::{cross_interval_law, cross_rate_for_utilization, SizeMix};
use crate::spec::{HopSpec, PayloadModel, PayloadSpec, ScheduleSpec};
use crate::switching::RateLog;
use linkpad_core::calibration::CalibratedDefaults;
use linkpad_core::gateway::{
    GatewayHandle, ReceiverGateway, ReceiverHandle, SenderGateway, TimerDiscipline,
};
use linkpad_sim::engine::{BuildError, Sim, SimBuilder};
use linkpad_sim::fault::{FaultGateHandle, FaultPlan};
use linkpad_sim::observer::ObserverHandle;
use linkpad_sim::packet::{FlowId, PacketKind};
use linkpad_sim::router::Router;
use linkpad_sim::source::DistSource;
use linkpad_sim::tap::{Tap, TapHandle};
use linkpad_sim::time::SimDuration;
use linkpad_stats::rng::MasterSeed;
use linkpad_stats::StatsError;

/// Where the adversary's analyzer is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapPosition {
    /// Right at the output of the sender gateway GW1 — minimum δ_net,
    /// the adversary's best case (paper §5.1).
    SenderEgress,
    /// Right in front of the receiver gateway GW2 — maximum accumulated
    /// δ_net (paper §5.3, campus/WAN).
    ReceiverIngress,
}

/// Errors from building or driving a scenario.
#[derive(Debug)]
pub enum ScenarioError {
    /// Invalid statistical configuration.
    Stats(StatsError),
    /// Topology wiring failure.
    Build(BuildError),
    /// The tap did not accumulate enough packets within the run budget.
    CollectionStalled {
        /// Timestamps needed.
        needed: usize,
        /// Timestamps captured when the budget ran out.
        got: usize,
    },
    /// An aggregate scenario was configured with zero flows.
    EmptyAggregate,
    /// An aggregate cohort was configured with zero flows per cohort.
    EmptyCohort,
    /// A cohort was configured with a defense the one-node superposition
    /// cannot model (today: reactive adaptive padding, whose padding
    /// clock couples to per-member client traffic — see DESIGN.md).
    CohortUnsupported {
        /// Display name of the offending schedule spec.
        schedule: &'static str,
        /// Why cohort aggregation cannot model it.
        reason: &'static str,
    },
    /// An aggregate flow range lies outside the configured population.
    InvalidFlowRange {
        /// First global flow of the requested range.
        start: usize,
        /// Number of flows in the requested range.
        count: usize,
        /// Total flows in the aggregate.
        flows: usize,
    },
    /// A sharded run was configured with an unusable shard count or a
    /// builder the sharding layer cannot split (see
    /// [`crate::shard::ShardedAggregate::new`]).
    InvalidSharding(&'static str),
    /// A fault plan's trunk loss model is invalid (see
    /// [`linkpad_sim::fault::LossModel::validate`]).
    InvalidFaultPlan(&'static str),
    /// A shard worker failed — it panicked on its first attempt *and*
    /// on the one fresh-rebuild retry the harness grants it (see
    /// [`crate::shard::ShardedAggregate`]). The cause carries the last
    /// panic payload.
    ShardFailed {
        /// Index of the failed shard.
        shard: usize,
        /// Human-readable cause (the worker's panic message).
        cause: String,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Stats(e) => write!(f, "scenario configuration: {e}"),
            ScenarioError::Build(e) => write!(f, "scenario wiring: {e}"),
            ScenarioError::CollectionStalled { needed, got } => {
                write!(f, "tap stalled: needed {needed} packets, got {got}")
            }
            ScenarioError::EmptyAggregate => {
                write!(f, "aggregate scenario needs at least one flow")
            }
            ScenarioError::EmptyCohort => {
                write!(f, "aggregate cohorts need at least one flow each")
            }
            ScenarioError::CohortUnsupported { schedule, reason } => {
                write!(
                    f,
                    "flow cohorts do not support the {schedule} schedule: {reason}"
                )
            }
            ScenarioError::InvalidFlowRange {
                start,
                count,
                flows,
            } => {
                write!(
                    f,
                    "aggregate flow range [{start}, {}) outside population of {flows}",
                    start + count
                )
            }
            ScenarioError::InvalidSharding(why) => {
                write!(f, "sharded aggregate misconfigured: {why}")
            }
            ScenarioError::InvalidFaultPlan(why) => {
                write!(f, "fault plan misconfigured: {why}")
            }
            ScenarioError::ShardFailed { shard, cause } => {
                write!(f, "shard {shard} failed after retry: {cause}")
            }
        }
    }
}
impl std::error::Error for ScenarioError {}

impl From<StatsError> for ScenarioError {
    fn from(e: StatsError) -> Self {
        ScenarioError::Stats(e)
    }
}
impl From<BuildError> for ScenarioError {
    fn from(e: BuildError) -> Self {
        ScenarioError::Build(e)
    }
}

/// Configurable scenario description. Cloneable; `build()` may be called
/// repeatedly (each call materializes fresh RNG streams from the seed).
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    /// Calibrated constants (τ, rates, packet size, link speed, jitter).
    pub defaults: CalibratedDefaults,
    seed: u64,
    payload: PayloadSpec,
    schedule: ScheduleSpec,
    payload_model: PayloadModel,
    hops: Vec<HopSpec>,
    hop_propagation: f64,
    /// Capacity of the shared hop links (bits/s). Defaults to the
    /// calibrated lab value; campus/wan presets use faster links.
    hop_link_bps: f64,
    discipline: TimerDiscipline,
    /// When set, `build()` materializes the many-gateway aggregate
    /// topology instead of the single-pair hop chain.
    aggregate: Option<AggregateSpec>,
    /// How many worker sub-sims a [`crate::shard::ShardedAggregate`]
    /// splits this scenario's flow population across (1 = unsharded;
    /// plain `build()` ignores it).
    shards: usize,
    label: &'static str,
}

impl ScenarioBuilder {
    /// The laboratory topology (Fig. 3): one shared router, cross traffic
    /// off by default (§5.1 zero-cross case). Turn cross traffic on
    /// with [`ScenarioBuilder::with_hops`] or
    /// [`ScenarioBuilder::with_uniform_utilization`].
    pub fn lab(seed: u64) -> Self {
        let defaults = CalibratedDefaults::paper();
        Self {
            defaults,
            seed,
            payload: PayloadSpec::Cbr {
                rate: defaults.rate_low,
            },
            schedule: ScheduleSpec::Cit,
            payload_model: PayloadModel::Fixed,
            hops: vec![HopSpec::quiet()],
            hop_propagation: 0.5e-3,
            hop_link_bps: defaults.link_bps,
            discipline: defaults.discipline,
            aggregate: None,
            shards: 1,
            label: "lab",
        }
    }

    /// The aggregate many-gateway topology (see [`crate::aggregate`]):
    /// `flows` independent padded sender gateways sharing one trunk
    /// link, with a windowed observer on the trunk that ends every flow
    /// but the target's.
    /// Flow 0 keeps the lab scenario's instrumentation and receiver
    /// gateway, so the usual tap positions and collectors work
    /// unchanged; the extra handles live in [`BuiltScenario::aggregate`].
    pub fn aggregate(seed: u64, flows: usize) -> Self {
        let mut s = Self::lab(seed);
        s.hops = Vec::new(); // the trunk replaces the hop chain
        s.aggregate = Some(AggregateSpec::new(flows));
        s.label = "aggregate";
        s
    }

    /// The campus topology (Fig. 7a): 3 routers on 600 Mb/s enterprise
    /// links with light cross traffic (fluid background model — see
    /// `crate::background`).
    pub fn campus(seed: u64, utilization: f64) -> Self {
        let mut s = Self::lab(seed);
        s.hops = vec![HopSpec::background(utilization); 3];
        s.hop_link_bps = 600e6;
        s.label = "campus";
        s
    }

    /// The WAN topology (Fig. 7b): 15 routers on ~1.3 Gb/s backbone
    /// links ("the path … spans over 15 routers"), heavy cross traffic
    /// (fluid background model).
    pub fn wan(seed: u64, utilization: f64) -> Self {
        let mut s = Self::lab(seed);
        s.hops = vec![HopSpec::background(utilization); 15];
        s.hop_link_bps = 1.3e9;
        s.label = "wan";
        s
    }

    /// Override the shared hop link capacity (bits/s).
    pub fn with_hop_link_bps(mut self, bps: f64) -> Self {
        self.hop_link_bps = bps;
        self
    }

    /// Override the aggregate trunk (capacity in bits/s, propagation in
    /// seconds). No effect outside the aggregate family.
    pub fn with_trunk(mut self, bps: f64, propagation_secs: f64) -> Self {
        if let Some(spec) = &mut self.aggregate {
            spec.trunk_bps = bps;
            spec.trunk_propagation = propagation_secs;
        }
        self
    }

    /// Set the window width (seconds) of the aggregate trunk's streaming
    /// observer, the aggregate-link adversary's instrument, which folds
    /// arrivals into per-window count/byte-rate/PIAT-moment statistics in
    /// `O(windows)` memory (default 0.2 s; see
    /// [`AggregateSpec::observer_window`]). The handle lands in
    /// [`AggregateHandles::trunk_observer`]. No effect outside the
    /// aggregate family.
    pub fn with_trunk_observer(mut self, window_secs: f64) -> Self {
        if let Some(spec) = &mut self.aggregate {
            spec.observer_window = window_secs;
        }
        self
    }

    /// Drive the aggregate target flow (flow 0) with a rate-switching
    /// payload source alternating between `rates[0]` and `rates[1]`
    /// (pps) every `dwell_secs` — the hidden state the aggregate-link
    /// adversary estimates. The ground-truth switch log lands in
    /// [`AggregateHandles::target_rate_log`]. No effect outside the
    /// aggregate family.
    pub fn with_switching_target(mut self, rates: [f64; 2], dwell_secs: f64) -> Self {
        if let Some(spec) = &mut self.aggregate {
            spec.switching = Some(SwitchingSpec { rates, dwell_secs });
        }
        self
    }

    /// Simulate the aggregate's non-target flows as
    /// [`FlowCohort`](linkpad_sim::cohort::FlowCohort)s of up to
    /// `cohort_size` flows each, which the trunk draws on demand —
    /// no node, timer or event per cohort instead of two nodes per
    /// flow, the lever that takes the family to 10⁶ concurrent flows. Requires a schedule with
    /// stochastic-cohort support (build fails with
    /// [`ScenarioError::CohortUnsupported`] otherwise — today only
    /// reactive adaptive padding is excluded); QoS instrumentation then
    /// exists only for the target flow. No effect outside the aggregate
    /// family.
    pub fn with_cohorts(mut self, cohort_size: usize) -> Self {
        if let Some(spec) = &mut self.aggregate {
            spec.cohort_size = Some(cohort_size);
        }
        self
    }

    /// Padding-clock phase layout across the aggregate's flows (default
    /// [`PhaseSpec::Synchronized`], the one-τ-grid regime): the
    /// desynchronized-clock countermeasure comparison from the ROADMAP.
    /// No effect outside the aggregate family.
    pub fn with_phases(mut self, phases: PhaseSpec) -> Self {
        if let Some(spec) = &mut self.aggregate {
            spec.phases = phases;
        }
        self
    }

    /// Inject faults into the aggregate: trunk packet loss and/or
    /// scheduled outages (the trunk consults a
    /// [`linkpad_sim::fault::LossyGate`] on every arrival) and observer
    /// measurement gaps (the trunk observer records nothing while its
    /// gap schedule is down and stamps per-window coverage fractions).
    /// The drop pattern is fully determined by `(plan.seed, run seed,
    /// topology)` — see the determinism contract in
    /// [`linkpad_sim::fault`]. A plan with no trunk axis gives the trunk
    /// no gate. No effect outside the aggregate family.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        if let Some(spec) = &mut self.aggregate {
            spec.faults = Some(plan);
        }
        self
    }

    /// Split this aggregate over `shards` worker sub-sims when executed
    /// through [`crate::shard::ShardedAggregate`] (plain `build()`
    /// ignores the setting). No effect outside the aggregate family.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Build only the global flow sub-population `[start, start+count)`
    /// — the per-worker view of a sharded run. The instrumented target
    /// exists only in the range containing flow 0; other ranges build
    /// observer-only shards. Exposed so shard workers (and tests) can
    /// materialize a single shard; most callers want
    /// [`crate::shard::ShardedAggregate`] instead. No effect outside
    /// the aggregate family.
    pub fn with_flow_range(mut self, start: usize, count: usize) -> Self {
        if let Some(spec) = &mut self.aggregate {
            spec.flow_range = Some((start, count));
        }
        self
    }

    /// Set the payload law (rate class ω).
    pub fn with_payload(mut self, payload: PayloadSpec) -> Self {
        self.payload = payload;
        self
    }

    /// Set CBR payload at `rate` pps (shorthand).
    pub fn with_payload_rate(self, rate: f64) -> Self {
        self.with_payload(PayloadSpec::Cbr { rate })
    }

    /// Set the padding schedule spec.
    pub fn with_schedule(mut self, schedule: ScheduleSpec) -> Self {
        self.schedule = schedule;
        self
    }

    /// Set the wire payload-size model (default [`PayloadModel::Fixed`],
    /// the calibrated constant packet size). Applies to every padded
    /// sender the builder materializes — the lab pair, aggregate
    /// per-flow gateways, and cohorts.
    pub fn with_payload_model(mut self, model: PayloadModel) -> Self {
        self.payload_model = model;
        self
    }

    /// Replace the hop list.
    pub fn with_hops(mut self, hops: Vec<HopSpec>) -> Self {
        self.hops = hops;
        self
    }

    /// Set every existing hop to the same Poisson utilization.
    pub fn with_uniform_utilization(mut self, utilization: f64) -> Self {
        for h in &mut self.hops {
            *h = HopSpec::poisson(utilization);
        }
        self
    }

    /// Gateway timer discipline (ablation).
    pub fn with_discipline(mut self, discipline: TimerDiscipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// Override the calibrated defaults wholesale.
    pub fn with_defaults(mut self, defaults: CalibratedDefaults) -> Self {
        self.defaults = defaults;
        self
    }

    /// Use a different seed (e.g. per replication).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The payload spec currently configured.
    pub fn payload(&self) -> PayloadSpec {
        self.payload
    }

    /// The schedule spec currently configured.
    pub fn schedule(&self) -> ScheduleSpec {
        self.schedule
    }

    /// The payload-size model currently configured.
    pub fn payload_model(&self) -> PayloadModel {
        self.payload_model
    }

    /// Number of hops in the unprotected path.
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// The timer discipline currently configured.
    pub fn discipline(&self) -> TimerDiscipline {
        self.discipline
    }

    /// The master seed this builder materializes RNG streams from.
    ///
    /// Exposed so sweep harnesses can derive per-replication child seeds
    /// from the *configured* seed instead of hashing incidental builder
    /// state (which silently reseeded every experiment whenever the
    /// builder's `Debug` output changed).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Aggregate flow count (1 for the single-pair families).
    pub fn flow_count(&self) -> usize {
        self.aggregate.map_or(1, |a| a.flows)
    }

    /// The aggregate topology spec, when this is the aggregate family.
    pub fn aggregate_spec(&self) -> Option<AggregateSpec> {
        self.aggregate
    }

    /// Configured shard count (see [`ScenarioBuilder::with_shards`]).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Scenario family name ("lab" / "campus" / "wan" / "aggregate").
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Materialize the simulation.
    pub fn build(&self) -> Result<BuiltScenario, ScenarioError> {
        if let Some(spec) = self.aggregate {
            return crate::aggregate::build_aggregate(self, spec);
        }
        check_link_bps("hop link capacity", self.hop_link_bps)?;
        let d = self.defaults;
        let mut b = SimBuilder::new(MasterSeed::new(self.seed));

        // Downstream first: subnet-B endpoint ← GW2 ← receiver tap.
        let (payload_sink, sink) = Tap::new(None, None);
        let sink_id = b.add_node(Box::new(sink.with_label("subnet-b")));
        let (receiver, gw2) = ReceiverGateway::new(Some(sink_id));
        let gw2_id = b.add_node(Box::new(gw2));
        let (receiver_tap, rtap) = Tap::on_padded_flow(Some(gw2_id));
        let rtap_id = b.add_node(Box::new(rtap.with_label("tap@gw2")));

        // The hop chain, built back to front.
        let mut next_for_padded = rtap_id;
        for (i, hop) in self.hops.iter().enumerate().rev() {
            if hop.background {
                let bg = crate::background::BackgroundNoiseHop::new(
                    next_for_padded,
                    self.hop_link_bps,
                    hop.utilization,
                    SizeMix::InternetTrimodal.mean_bytes(),
                    SimDuration::from_secs_f64(self.hop_propagation),
                )?;
                next_for_padded = b.add_node(Box::new(bg.with_label(format!("bg-hop-{i}"))));
                continue;
            }
            let mut router = Router::new(
                next_for_padded,
                self.hop_link_bps,
                SimDuration::from_secs_f64(self.hop_propagation),
            )
            .with_label(format!("router-{i}"));
            if hop.utilization > 0.0 {
                let rate = cross_rate_for_utilization(
                    hop.utilization,
                    self.hop_link_bps,
                    SizeMix::InternetTrimodal.mean_bytes(),
                )?;
                router = router.with_cross_traffic(
                    cross_interval_law(rate, hop.bursty)?,
                    Box::new(SizeMix::InternetTrimodal.law()?),
                )?;
            }
            next_for_padded = b.add_node(Box::new(router));
        }

        // Sender side: GW1 ← sender tap wiring runs forward.
        let (sender_tap, stap) = Tap::on_padded_flow(Some(next_for_padded));
        let stap_id = b.add_node(Box::new(stap.with_label("tap@gw1")));
        let (gateway, gw1) = SenderGateway::new(
            stap_id,
            self.schedule.to_schedule(d.tau)?,
            d.jitter,
            d.packet_size,
        );
        let mut gw1 = gw1.with_discipline(self.discipline);
        if let Some(law) = self.payload_model.size_law(d.packet_size)? {
            gw1 = gw1.with_packet_size_law(law);
        }
        let gw1_id = b.add_node(Box::new(gw1));
        b.add_node(Box::new(DistSource::new(
            gw1_id,
            FlowId::PADDED,
            PacketKind::Payload,
            self.payload.interval_law()?,
            Box::new(linkpad_stats::dist::Deterministic::new(
                d.packet_size as f64,
            )?),
        )));

        let sim = b.build()?;
        Ok(BuiltScenario {
            sim,
            sender_tap,
            receiver_tap,
            gateway,
            receiver,
            payload_sink,
            aggregate: None,
            tau: d.tau,
        })
    }
}

/// Reject a link capacity the router model cannot serve: it must be
/// finite and positive.
pub(crate) fn check_link_bps(what: &'static str, bps: f64) -> Result<(), StatsError> {
    if !bps.is_finite() {
        return Err(StatsError::NonFinite { what, value: bps });
    }
    if bps <= 0.0 {
        return Err(StatsError::NonPositive { what, value: bps });
    }
    Ok(())
}

/// Extra instrumentation of an aggregate scenario (one entry per flow,
/// indexed by flow id; flow 0 is also exposed through the plain
/// [`BuiltScenario`] handles).
pub struct AggregateHandles {
    /// Streaming windowed observer on the shared trunk — the
    /// aggregate-link adversary's `O(windows)` view of **all** flows.
    /// Always `Some` for an aggregate. The `Option` stays because the
    /// benchmark (`linkbench/`) reads the field through
    /// `Option::and_then`; dropping it is a benchmark change.
    pub trunk_observer: Option<ObserverHandle>,
    /// Ground-truth rate-switch log of the target flow. `None` unless
    /// [`ScenarioBuilder::with_switching_target`] was used.
    pub target_rate_log: Option<RateLog>,
    /// Per-flow sender-gateway instrumentation. In cohort mode only the
    /// target flow has a real gateway, so this holds at most one entry.
    pub gateways: Vec<GatewayHandle>,
    /// Per-cohort instrumentation (empty unless
    /// [`ScenarioBuilder::with_cohorts`] was used).
    pub cohorts: Vec<linkpad_sim::cohort::CohortHandle>,
    /// Drop counters of the trunk fault gate. `None` unless
    /// [`ScenarioBuilder::with_faults`] configured trunk loss or
    /// outages (observer-gap-only plans add no gate).
    pub fault_gate: Option<FaultGateHandle>,
}

/// A runnable scenario with its instrumentation handles.
pub struct BuiltScenario {
    /// The underlying simulation (own it to run it).
    pub sim: Sim,
    /// Tap at GW1's egress.
    pub sender_tap: TapHandle,
    /// Tap in front of GW2.
    pub receiver_tap: TapHandle,
    /// GW1 instrumentation.
    pub gateway: GatewayHandle,
    /// GW2 instrumentation.
    pub receiver: ReceiverHandle,
    /// Capture-only tap at the payload's destination in subnet B.
    pub payload_sink: TapHandle,
    /// Aggregate-family extras (`None` for lab/campus/wan).
    pub aggregate: Option<AggregateHandles>,
    pub(crate) tau: f64,
}

impl BuiltScenario {
    /// The tap at a position.
    pub fn tap(&self, at: TapPosition) -> &TapHandle {
        match at {
            TapPosition::SenderEgress => &self.sender_tap,
            TapPosition::ReceiverIngress => &self.receiver_tap,
        }
    }

    /// Run for `secs` of simulated time.
    pub fn run_for_secs(&mut self, secs: f64) {
        self.sim.run_for(SimDuration::from_secs_f64(secs));
    }

    /// Rewind the scenario to its as-built state under a new seed,
    /// reusing the whole topology — nodes, event-store allocations,
    /// tap capture buffers. The contract (guarded by
    /// `tests/reset_determinism.rs`) is that `reset(s)` followed by any
    /// run is **bit-identical** to `builder.with_seed(s).build()`
    /// followed by the same run: every node drops its runtime and
    /// instrumentation state, and every RNG stream is re-derived from
    /// `(s, node index)`. Configuration (topology, schedules, rates) is
    /// construction-time state and is reused, not re-randomized.
    ///
    /// This is the sweep fast path: replications differ only by seed,
    /// so rebuilding the topology per replication is pure overhead.
    pub fn reset(&mut self, seed: u64) {
        self.sim.reset(MasterSeed::new(seed));
    }

    /// Drive the simulation until the tap at `at` has captured
    /// `warmup + count + 1` packets, then return `count` PIATs with the
    /// first `warmup` discarded (boot transient: queue fill, first
    /// payload phase-in).
    ///
    /// Fails with [`ScenarioError::CollectionStalled`] if the tap stops
    /// filling (wiring bug or stopped sources) rather than spinning
    /// forever.
    pub fn collect_piats(
        &mut self,
        at: TapPosition,
        count: usize,
        warmup: usize,
    ) -> Result<Vec<f64>, ScenarioError> {
        let mut out = Vec::new();
        self.collect_piats_into(at, count, warmup, &mut out)?;
        Ok(out)
    }

    /// [`BuiltScenario::collect_piats`] appending into a caller-provided
    /// buffer, so sweep loops can reuse one allocation across samples.
    pub fn collect_piats_into(
        &mut self,
        at: TapPosition,
        count: usize,
        warmup: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), ScenarioError> {
        let needed = warmup + count + 1;
        // Pre-size the tap's capture buffer for the whole collection so
        // the hot path never reallocates mid-run.
        self.tap(at)
            .reserve(needed.saturating_sub(self.tap(at).count()));
        let mut idle_rounds = 0;
        while self.tap(at).count() < needed {
            let missing = needed - self.tap(at).count();
            let before = self.tap(at).count();
            // Expected time for the missing packets, padded 25%.
            let span = (missing as f64 * self.tau * 1.25).max(self.tau * 16.0);
            self.sim.run_for(SimDuration::from_secs_f64(span));
            if self.tap(at).count() == before {
                idle_rounds += 1;
                if idle_rounds >= 3 {
                    return Err(ScenarioError::CollectionStalled {
                        needed,
                        got: self.tap(at).count(),
                    });
                }
            } else {
                idle_rounds = 0;
            }
        }
        let filled = self.tap(at).piats_window_into(warmup, count, out);
        debug_assert!(filled, "collection loop guaranteed enough packets");
        Ok(())
    }

    /// Reset to `seed` and collect — one replication of a sweep, reusing
    /// the built topology (see [`BuiltScenario::reset`]). Equivalent to
    /// `piats_for(&builder.with_seed(seed), ..)` without the rebuild.
    pub fn collect_piats_reseeded(
        &mut self,
        seed: u64,
        at: TapPosition,
        count: usize,
        warmup: usize,
    ) -> Result<Vec<f64>, ScenarioError> {
        self.reset(seed);
        self.collect_piats(at, count, warmup)
    }
}

/// Convenience used throughout benches and tests: build the scenario,
/// collect `count` PIATs at `at`, return them.
pub fn piats_for(
    builder: &ScenarioBuilder,
    at: TapPosition,
    count: usize,
    warmup: usize,
) -> Result<Vec<f64>, ScenarioError> {
    let mut s = builder.build()?;
    s.collect_piats(at, count, warmup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkpad_stats::dist::ContinuousDist;
    use linkpad_stats::moments::{sample_mean, sample_variance};

    #[test]
    fn lab_zero_cross_piats_center_on_tau() {
        let piats = piats_for(
            &ScenarioBuilder::lab(1).with_payload_rate(10.0),
            TapPosition::SenderEgress,
            2000,
            50,
        )
        .unwrap();
        assert_eq!(piats.len(), 2000);
        let m = sample_mean(&piats).unwrap();
        assert!((m - 0.010).abs() < 1e-6, "mean {m}");
        // Jitter is µs-scale.
        let sd = sample_variance(&piats).unwrap().sqrt();
        assert!(sd > 1e-6 && sd < 50e-6, "sd {sd}");
    }

    #[test]
    fn lab_r_ratio_is_in_papers_band_at_sender() {
        let var_at = |seed, rate| {
            sample_variance(
                &piats_for(
                    &ScenarioBuilder::lab(seed).with_payload_rate(rate),
                    TapPosition::SenderEgress,
                    6000,
                    50,
                )
                .unwrap(),
            )
            .unwrap()
        };
        let r = var_at(2, 40.0) / var_at(3, 10.0);
        assert!(r > 1.15 && r < 1.7, "r = {r}");
    }

    #[test]
    fn cross_traffic_inflates_receiver_side_variance() {
        let var_with_util = |seed, util| {
            let b = ScenarioBuilder::lab(seed)
                .with_payload_rate(10.0)
                .with_uniform_utilization(util);
            sample_variance(&piats_for(&b, TapPosition::ReceiverIngress, 3000, 50).unwrap())
                .unwrap()
        };
        let quiet = var_with_util(4, 0.0);
        let busy = var_with_util(5, 0.4);
        assert!(
            busy > 3.0 * quiet,
            "σ_net missing: quiet={quiet:e} busy={busy:e}"
        );
    }

    #[test]
    fn lab_router_waits_match_pollaczek_khinchine() {
        // The lab hop is an M/G/1 queue fed by Poisson cross traffic.
        // Padded probes 10 ms apart see independent stationary backlogs
        // (the argument of `background.rs`), so a probe's wait is a draw
        // of the stationary virtual waiting time, whose mean is
        // Pollaczek–Khinchine's W_q = λ·E[S²] / (2(1 − ρ)).
        const UTIL: f64 = 0.45;
        const SEEDS: u64 = 8;
        const SECS: f64 = 30.0;
        let d = CalibratedDefaults::paper();
        let mix = SizeMix::InternetTrimodal;
        let sizes = mix.law().unwrap();
        let lambda = cross_rate_for_utilization(UTIL, d.link_bps, mix.mean_bytes()).unwrap();
        let secs_per_byte = 8.0 / d.link_bps;
        let service_sq = (sizes.variance() + sizes.mean().powi(2)) * secs_per_byte.powi(2);
        let pk = lambda * service_sq / (2.0 * (1.0 - UTIL));
        assert!((pk - 9.243e-6).abs() < 1e-9, "W_q = {pk:e}");

        // Tap to tap, a probe spends its wait, its own transmit time and
        // the hop's propagation, all in whole nanoseconds.
        let fixed_ns = SimDuration::from_secs_f64(d.packet_size as f64 * secs_per_byte).as_nanos()
            + SimDuration::from_secs_f64(0.5e-3).as_nanos();
        let mut waits = Vec::new();
        for seed in 1..=SEEDS {
            let mut s = ScenarioBuilder::lab(seed)
                .with_payload_rate(10.0)
                .with_uniform_utilization(UTIL)
                .build()
                .unwrap();
            s.run_for_secs(SECS);
            let sent = s.sender_tap.timestamps();
            let got = s.receiver_tap.timestamps();
            assert!(got.len() + 2 >= sent.len(), "probes lost");
            // FIFO and lossless: the k-th capture at each tap is one packet.
            for (a, b) in sent.iter().zip(&got) {
                let wait_ns = b.saturating_since(*a).as_nanos() - fixed_ns;
                waits.push(wait_ns as f64 * 1e-9);
            }
        }
        let mean = sample_mean(&waits).unwrap();
        let se = (sample_variance(&waits).unwrap() / waits.len() as f64).sqrt();
        let z = (mean - pk) / se;
        assert!(
            z.abs() < 3.0,
            "mean wait {mean:e} s vs P-K {pk:e} s: z = {z:.2} over {} probes",
            waits.len()
        );
    }

    #[test]
    fn wan_chain_accumulates_more_noise_than_campus() {
        let var_for = |b: &ScenarioBuilder| {
            sample_variance(&piats_for(b, TapPosition::ReceiverIngress, 2000, 50).unwrap()).unwrap()
        };
        let campus = var_for(&ScenarioBuilder::campus(6, 0.10).with_payload_rate(10.0));
        let wan = var_for(&ScenarioBuilder::wan(7, 0.40).with_payload_rate(10.0));
        assert!(
            wan > campus * 2.0,
            "wan {wan:e} should dwarf campus {campus:e}"
        );
    }

    #[test]
    fn receiver_gets_all_payload() {
        let b = ScenarioBuilder::lab(8).with_payload_rate(40.0);
        let mut s = b.build().unwrap();
        s.run_for_secs(30.0);
        // 40 pps × 30 s = 1200 payload packets, minus at most a couple in
        // flight.
        let delivered = s.receiver.payload_delivered();
        assert!(
            (1195..=1200).contains(&delivered),
            "delivered = {delivered}"
        );
        assert_eq!(s.receiver.unexpected(), 0);
        // Subnet-B sink saw exactly the delivered payload.
        assert_eq!(s.payload_sink.count() as u64, delivered);
    }

    #[test]
    fn taps_never_see_cross_traffic() {
        let b = ScenarioBuilder::lab(9)
            .with_payload_rate(10.0)
            .with_uniform_utilization(0.45);
        let mut s = b.build().unwrap();
        s.run_for_secs(20.0);
        // Every packet either tap captured is the padded flow's payload
        // or dummy: none is cross traffic.
        for tap in [&s.sender_tap, &s.receiver_tap] {
            let (payload, dummy) = tap.kind_counts();
            assert_eq!(payload + dummy, tap.count() as u64);
        }
        assert!(s.receiver_tap.count() > 1500);
    }

    #[test]
    fn collect_piats_discards_warmup() {
        let b = ScenarioBuilder::lab(10).with_payload_rate(10.0);
        let mut s = b.build().unwrap();
        let piats = s.collect_piats(TapPosition::SenderEgress, 100, 10).unwrap();
        assert_eq!(piats.len(), 100);
        // All sane values near τ.
        assert!(piats.iter().all(|&x| x > 0.005 && x < 0.015));
    }

    #[test]
    fn builder_accessors_report_configuration() {
        let b = ScenarioBuilder::wan(11, 0.3)
            .with_payload(PayloadSpec::Poisson { rate: 40.0 })
            .with_schedule(ScheduleSpec::VitTruncatedNormal { sigma_t: 1e-3 });
        assert_eq!(b.hop_count(), 15);
        assert_eq!(b.label(), "wan");
        assert_eq!(b.payload().rate(), 40.0);
        assert_eq!(b.schedule().sigma_t(0.010), 1e-3);
    }

    #[test]
    fn bad_link_parameters_are_typed_errors() {
        let nan = f64::NAN;
        let cases = [
            (
                "hop capacity 0",
                ScenarioBuilder::lab(14).with_hop_link_bps(0.0),
            ),
            (
                "trunk capacity 0",
                ScenarioBuilder::aggregate(14, 4).with_trunk(0.0, 1e-3),
            ),
            (
                "trunk capacity NaN",
                ScenarioBuilder::aggregate(14, 4).with_trunk(nan, 1e-3),
            ),
            (
                "trunk propagation < 0",
                ScenarioBuilder::aggregate(14, 4).with_trunk(1e9, -1.0),
            ),
        ];
        for (what, builder) in cases {
            assert!(
                matches!(builder.build(), Err(ScenarioError::Stats(_))),
                "{what} must be a typed error"
            );
        }
    }

    #[test]
    fn invalid_configuration_errors_cleanly() {
        let b = ScenarioBuilder::lab(12).with_payload_rate(-5.0);
        assert!(matches!(b.build(), Err(ScenarioError::Stats(_))));
        let b = ScenarioBuilder::lab(13).with_uniform_utilization(1.5);
        assert!(b.build().is_err());
    }
}

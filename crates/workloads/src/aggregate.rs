//! Many-gateway aggregate workload: N padded flows on one trunk.
//!
//! The paper studies a single gateway pair; aggregate-traffic analyses
//! (throughput fingerprinting, messaging-app traffic analysis) study an
//! adversary who taps an *aggregated* link carrying many padded flows at
//! once. This module opens that regime end to end:
//!
//! ```text
//!  src_0 → GW1_0 → [tap@gw1] ─┐
//!  flow 1 (emitter) ──────────┤   trunk
//!   ...                       ├→ [far-end observer] → [tap@gw2] → GW2_0 → [subnet-b]
//!  flow N (emitter) ──────────┘   (flows 1..N end here)
//! ```
//!
//! Every flow runs its own padding clock, and all of them feed one
//! shared **trunk** (a FIFO egress with configurable
//! capacity and propagation). The trunk owns the **trunk observer**
//! ([`WindowedObserver`], no flow filter) at the far end of its egress
//! ([`Trunk::new`]): it folds the aggregate arrival process into
//! per-window statistics — the adversary's view of the shared link, in
//! `O(windows)` memory — and ends every packet but the target's on
//! arrival: nothing downstream of the trunk reads another flow. Flow 0
//! is the fully instrumented *target* flow: a payload source, a sender
//! gateway node, the lab scenario's sender-egress and receiver-ingress
//! taps and its receiver gateway, so
//! [`TapPosition`](crate::scenario::TapPosition) semantics carry over
//! unchanged.
//!
//! No other flow is a node. Each is an emitter the trunk owns and draws
//! on demand ([`Trunk::with_emitter`]): in per-flow mode one
//! [`GatewayEmitter`] per flow (a sender gateway plus its payload
//! source, with the node's exact tick draws), in cohort mode
//! [`FlowCohort`]s of up to K flows. Either way no non-target packet is
//! an event, so a run dispatches only its target's path (a handful of
//! pending events: two timers and the target's packets in flight), and
//! a shard without the target dispatches nothing. The packets in flight
//! on a long-haul trunk (~10⁵ on linkbench's 100 ms `gateway_trunk`
//! trunk) are not events either: the trunk keeps each as a 16-byte
//! far-end record until it folds it.

use crate::scenario::{
    check_link_bps, AggregateHandles, BuiltScenario, ScenarioBuilder, ScenarioError,
};
use crate::switching::SwitchingSource;
use linkpad_core::clock::{GatewayEmitter, PaddingClock};
use linkpad_core::gateway::{ReceiverGateway, SenderGateway};
use linkpad_sim::cohort::{CohortJitter, FlowCohort};
use linkpad_sim::engine::SimBuilder;
use linkpad_sim::fault::{FaultPlan, LossyGate};
use linkpad_sim::node::NodeId;
use linkpad_sim::observer::WindowedObserver;
use linkpad_sim::packet::{FlowId, PacketKind};
use linkpad_sim::source::DistSource;
use linkpad_sim::tap::Tap;
use linkpad_sim::time::SimDuration;
use linkpad_sim::trunk::{Emitter, Trunk};
use linkpad_stats::rng::{splitmix64_mix, MasterSeed};
use linkpad_stats::StatsError;

/// Rate-switching drive for the target flow (flow 0) of an aggregate
/// scenario: the hidden state the aggregate-link adversary estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchingSpec {
    /// The two payload rates (pps) the target alternates between,
    /// starting with `rates[0]`.
    pub rates: [f64; 2],
    /// Dwell time at each rate, seconds.
    pub dwell_secs: f64,
}

/// How the padding-clock start phases of an aggregate's flows are laid
/// out — the desynchronized-clock knob from the ROADMAP. Flow k's
/// gateway (or cohort member) starts its clock at the given offset, so
/// its ticks sit at `phase + j·τ`; the phase layout decides whether the
/// trunk's per-window count variance reads `N²·f(1−f)` (synchronized,
/// perfectly correlated Bernoulli offsets) or `N·f(1−f)` (independent
/// phases) — see `linkpad_adversary::aggregate::estimator`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseSpec {
    /// Every clock starts at zero — one shared τ grid (the historical
    /// default; gateways deployed together and never restarted).
    Synchronized,
    /// Phases spread evenly over the period: stratification index `i`
    /// of a population `m` gets phase `(i/m)·τ`. In cohort mode the
    /// index is the flow's **global** within-cohort position
    /// (`(f−1) % K` over the global cohort grid) and in per-flow mode
    /// its global id over the whole population — both keyed to the
    /// flow, never to a shard-local position, so the aggregate phase
    /// multiset is identical however the population is split.
    Stratified,
    /// Independent uniform phases in `[0, τ)`, drawn per **global** flow
    /// id from a dedicated phase seed. The seed is configuration (not
    /// the scenario's master seed), so rebuilding or reseeding a
    /// topology never re-randomizes the clock layout — `reset()` and
    /// `build()` stay bit-identical.
    Uniform {
        /// Phase-layout seed (configuration, independent of run seeds).
        seed: u64,
    },
}

impl PhaseSpec {
    /// The clock start phase of one flow, in seconds (always `< tau`).
    ///
    /// `flow` is the global flow id (drives [`PhaseSpec::Uniform`]);
    /// `index`/`modulus` are the stratification position and population
    /// (member-within-cohort for cohorts, global-flow-within-aggregate
    /// for real gateway pairs).
    pub fn phase_secs(&self, flow: usize, index: usize, modulus: usize, tau: f64) -> f64 {
        match *self {
            PhaseSpec::Synchronized => 0.0,
            PhaseSpec::Stratified => {
                let m = modulus.max(1);
                (index % m) as f64 / m as f64 * tau
            }
            PhaseSpec::Uniform { seed } => {
                let word = splitmix64_mix(seed ^ (flow as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                // 53-bit uniform in [0, 1) → phase strictly below τ.
                (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * tau
            }
        }
    }
}

/// Configuration of the aggregate (many-gateway trunk) topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregateSpec {
    /// Number of padded flows (sender gateways). Flow 0 is the
    /// instrumented target, carried as `FlowId(0)`, and the only flow
    /// with a receiver gateway.
    pub flows: usize,
    /// Trunk link capacity, bits/s.
    pub trunk_bps: f64,
    /// Trunk propagation delay, seconds. Long-haul trunks keep many
    /// packets in flight, roughly `flows × propagation/τ`; the trunk
    /// holds them as far-end records, not pending events, and no
    /// non-target flow is an event at all, so the pending events are the
    /// target's path alone (a handful).
    pub trunk_propagation: f64,
    /// Width (seconds) of the trunk observer's windows. Every aggregate
    /// watches the far end of its trunk with a [`WindowedObserver`] —
    /// `O(windows)` memory — whose view lives in
    /// [`AggregateHandles::trunk_observer`](crate::scenario::AggregateHandles).
    pub observer_window: f64,
    /// When set, flow 0's payload is driven by a rate-switching source
    /// instead of the builder's payload law; the ground-truth switch log
    /// lands in
    /// [`AggregateHandles::target_rate_log`](crate::scenario::AggregateHandles).
    pub switching: Option<SwitchingSpec>,
    /// When set, flows other than the instrumented target are simulated
    /// as [`FlowCohort`]s of up to this many flows each, instead of one
    /// [`GatewayEmitter`] per flow: one next-fire heap entry per run of
    /// coincident members instead of one per flow, which is what takes
    /// the family from ~10⁴ to 10⁶ flows. Every schedule with cohort
    /// support runs there (see
    /// [`ScheduleSpec::cohort_support`](crate::spec::ScheduleSpec::cohort_support)
    /// and `linkpad_sim::cohort`). Like every non-target flow, cohort
    /// traffic ends at the trunk once recorded.
    pub cohort_size: Option<usize>,
    /// Padding-clock phase layout across the flow population.
    pub phases: PhaseSpec,
    /// Restrict the built topology to the global flow sub-population
    /// `[start, start+count)` — the sharded-execution plumbing
    /// ([`crate::shard::ShardedAggregate`] gives each worker sub-sim one
    /// range). The instrumented target exists only in the range
    /// containing flow 0; other ranges build observer-only shards whose
    /// target handles read zero.
    pub flow_range: Option<(usize, usize)>,
    /// Fault injection: trunk loss/outages (a [`LossyGate`] the trunk
    /// consults on every arrival, [`Trunk::with_gate`]) and observer
    /// measurement gaps. `None` — and plans with no trunk axes set — give
    /// the trunk no gate.
    pub faults: Option<FaultPlan>,
}

impl AggregateSpec {
    /// Defaults for `flows` gateway pairs: a 10 Gb/s metro trunk with
    /// 5 ms propagation. At the calibrated τ = 10 ms padding clock each
    /// flow offers 400 kb/s, so utilization stays moderate up to ~10⁴
    /// flows. The trunk observer's windows default to 20 τ = 0.2 s and
    /// flow 0 to the builder's payload law.
    pub fn new(flows: usize) -> Self {
        Self {
            flows,
            trunk_bps: 10e9,
            trunk_propagation: 5e-3,
            observer_window: 0.2,
            switching: None,
            cohort_size: None,
            phases: PhaseSpec::Synchronized,
            flow_range: None,
            faults: None,
        }
    }
}

/// Materialize the aggregate topology for `builder` (its payload,
/// schedule, discipline and calibrated defaults apply to **every**
/// flow; each flow draws from its own RNG streams, so flows are
/// statistically independent replicas).
///
/// Flows other than the target are [`GatewayEmitter`]s the trunk owns,
/// or with [`AggregateSpec::cohort_size`] set [`FlowCohort`]s; with
/// [`AggregateSpec::flow_range`] set, only that global sub-population is
/// built (shard plumbing). Ranges that exclude flow 0 produce
/// observer-only shards: the target-flow scaffold handles exist so
/// [`BuiltScenario`]'s shape is uniform, but no target nodes are wired
/// and their counters stay zero.
pub(crate) fn build_aggregate(
    builder: &ScenarioBuilder,
    spec: AggregateSpec,
) -> Result<BuiltScenario, ScenarioError> {
    if spec.flows == 0 {
        return Err(ScenarioError::EmptyAggregate);
    }
    check_link_bps("trunk capacity", spec.trunk_bps)?;
    let propagation = spec.trunk_propagation;
    if !propagation.is_finite() {
        return Err(ScenarioError::Stats(StatsError::NonFinite {
            what: "trunk propagation",
            value: propagation,
        }));
    }
    if propagation < 0.0 {
        return Err(ScenarioError::Stats(StatsError::NonPositive {
            what: "trunk propagation",
            value: propagation,
        }));
    }
    if let Some(sw) = spec.switching {
        for r in sw.rates {
            if !(r.is_finite() && r > 0.0) {
                return Err(ScenarioError::Stats(StatsError::NonPositive {
                    what: "switching target rate",
                    value: r,
                }));
            }
        }
        if !(sw.dwell_secs.is_finite() && sw.dwell_secs > 0.0) {
            return Err(ScenarioError::Stats(StatsError::NonPositive {
                what: "switching dwell",
                value: sw.dwell_secs,
            }));
        }
    }
    let window = spec.observer_window;
    if !(window.is_finite() && window > 0.0) {
        return Err(ScenarioError::Stats(StatsError::NonPositive {
            what: "observer window",
            value: window,
        }));
    }
    let (start, count) = spec.flow_range.unwrap_or((0, spec.flows));
    if count == 0 || start.checked_add(count).is_none_or(|end| end > spec.flows) {
        return Err(ScenarioError::InvalidFlowRange {
            start,
            count,
            flows: spec.flows,
        });
    }
    if let Some(k) = spec.cohort_size {
        if k == 0 {
            return Err(ScenarioError::EmptyCohort);
        }
        if let Err(reason) = builder.schedule().cohort_support() {
            return Err(ScenarioError::CohortUnsupported {
                schedule: builder.schedule().name(),
                reason,
            });
        }
    }
    // Trunk faults: a gate the trunk consults on every arrival, target
    // and emitters alike, before serialization.
    // Fault-free plans build none.
    let gate = match spec.faults.filter(|p| p.affects_trunk()) {
        Some(plan) => Some(
            LossyGate::new(plan.trunk_loss, plan.trunk_outage, plan.seed)
                .map_err(ScenarioError::InvalidFaultPlan)?,
        ),
        None => None,
    };
    // Validate the payload law up front: a cohort-only shard builds no
    // payload source, but a misconfigured rate must still fail loudly.
    drop(builder.payload().interval_law()?);

    let has_target = start == 0;
    let d = builder.defaults;
    let tau = d.tau;
    let mut b = SimBuilder::new(MasterSeed::new(builder.seed()));

    // Receiver side, flow 0 (the instrumented target): subnet-B
    // endpoint ← GW2 ← tap.
    // Observer-only shards (ranges excluding flow 0) keep the handles —
    // constructed, never wired — so every shard exposes the same
    // `BuiltScenario` shape with zeroed target instrumentation.
    let (payload_sink, receiver, receiver_tap, target_next) = if has_target {
        let (payload_sink, sink) = Tap::new(None, None);
        let sink_id = b.add_node(Box::new(sink.with_label("subnet-b")));
        let (receiver, gw2) = ReceiverGateway::new(Some(sink_id));
        let gw2_id = b.add_node(Box::new(gw2));
        let (receiver_tap, rtap) = Tap::on_padded_flow(Some(gw2_id));
        let rtap_id = b.add_node(Box::new(rtap.with_label("tap@gw2")));
        (payload_sink, receiver, receiver_tap, Some(rtap_id))
    } else {
        let (payload_sink, _sink) = Tap::new(None, None);
        let (receiver, _gw2) = ReceiverGateway::new(None);
        let (receiver_tap, _rtap) = Tap::on_padded_flow(None);
        (payload_sink, receiver, receiver_tap, None)
    };

    // The shared trunk, installed once its emitters are built.
    let trunk_id = b.reserve();

    // Sender side: the target flow through its egress tap, everything
    // else drawn inside the trunk. Clock phases spread over the
    // schedule's emission period (τ for the timer families, 1/rate for
    // constant-rate, the stationary mean for adaptive padding) so
    // cohorts and per-flow senders lay their clocks out identically.
    let period = builder.schedule().mean_interval(tau);
    let mut emitters = Vec::new();
    let mut target_rate_log = None;
    let (sender_tap, gateway) = if has_target {
        let (sender_tap, stap) = Tap::on_padded_flow(Some(trunk_id));
        let stap_id = b.add_node(Box::new(stap.with_label("tap@gw1")));
        let phase = spec.phases.phase_secs(0, 0, spec.flows, period);
        let (gw, gw1) = SenderGateway::new(
            stap_id,
            builder.schedule().to_schedule(tau)?,
            d.jitter,
            d.packet_size,
        );
        let mut gw1 = gw1
            .with_discipline(builder.discipline())
            .with_start_phase(SimDuration::from_secs_f64(phase))
            .with_label("gw1-0");
        if let Some(law) = builder.payload_model().size_law(d.packet_size)? {
            gw1 = gw1.with_packet_size_law(law);
        }
        let gw1_id = b.add_node(Box::new(gw1));
        // The target optionally runs the rate-switching drive (the
        // hidden state the aggregate adversary estimates); without a
        // switching spec it follows the builder's payload law.
        match spec.switching {
            Some(sw) => {
                let (log, src) = SwitchingSource::new(
                    gw1_id,
                    sw.rates,
                    SimDuration::from_secs_f64(sw.dwell_secs),
                    d.packet_size,
                );
                target_rate_log = Some(log);
                b.add_node(Box::new(src));
            }
            None => {
                b.add_node(Box::new(DistSource::new(
                    gw1_id,
                    FlowId(0),
                    PacketKind::Payload,
                    builder.payload().interval_law()?,
                    Box::new(linkpad_stats::dist::Deterministic::new(
                        d.packet_size as f64,
                    )?),
                )));
            }
        }
        (sender_tap, gw)
    } else {
        let (sender_tap, _stap) = Tap::on_padded_flow(None);
        let (gw, _gw1) = SenderGateway::new(
            trunk_id,
            builder.schedule().to_schedule(tau)?,
            d.jitter,
            d.packet_size,
        );
        (sender_tap, gw)
    };

    // The trunk, observed at its far end: the observer is the
    // adversary's view of the shared link, in O(windows) memory. The
    // trunk serves its emitters and every packet the target delivers,
    // passes the target flow on to its receiver and ends every other
    // flow (an observer-only shard's trunk forwards nothing).
    let (trunk_observer, mut observer) = WindowedObserver::new(SimDuration::from_secs_f64(window));
    // Measurement gaps: the observer goes blind on the gap schedule's
    // down intervals and stamps per-window coverage.
    if let Some(gaps) = spec.faults.and_then(|p| p.observer_gaps) {
        observer = observer.with_gaps(gaps);
    }
    let (fault_gate, gate) = gate.unzip();
    let far_end = FarEnd {
        observer,
        target: target_next,
        bps: spec.trunk_bps,
        propagation: SimDuration::from_secs_f64(spec.trunk_propagation),
        gate,
    };

    match spec.cohort_size {
        // Per-flow mode: one sender gateway and payload source per flow,
        // as an emitter.
        None => {
            let mut trunk_emitters = Vec::with_capacity(count);
            for f in start.max(1)..start + count {
                let phase = spec.phases.phase_secs(f, f, spec.flows, period);
                let mut clock = PaddingClock::new(
                    builder.schedule().to_schedule(tau)?,
                    d.jitter,
                    d.packet_size,
                )
                .with_discipline(builder.discipline())
                .with_start_phase(SimDuration::from_secs_f64(phase));
                if let Some(law) = builder.payload_model().size_law(d.packet_size)? {
                    clock = clock.with_packet_size_law(law);
                }
                let (h, emitter) = GatewayEmitter::new(clock, builder.payload().interval_law()?);
                emitters.push(h);
                trunk_emitters.push(emitter);
            }
            far_end.install(&mut b, trunk_id, trunk_emitters);
        }
        // Cohort mode: non-target flows grouped K at a time into
        // superposition generators the trunk owns. Grouping and
        // stratification are keyed to each flow's **global** member
        // position (flow f is member `f − 1`; global cohort id
        // `(f − 1)/K`, within-cohort index `(f − 1) % K`), never to the
        // shard-local chunk position — so a
        // flow's phase, and therefore the merged arrival multiset, is
        // identical no matter how the population is split over shards
        // (shard boundaries merely create partial cohorts at the edges).
        // The payload's only wire-visible effect under CIT is the
        // per-tick interrupt-blocking delay, carried by the cohort
        // jitter's Bernoulli arrival probability p = rate·τ (the paper's
        // sub-unit-rate regime; see DESIGN.md).
        Some(k) => {
            let jitter = CohortJitter {
                base_sigma: d.jitter.base_sigma(),
                blocking_mean: d.jitter.blocking_mean(),
                arrival_prob: (builder.payload().rate() * tau).clamp(0.0, 1.0),
            };
            let mut group: Vec<SimDuration> = Vec::with_capacity(k);
            let mut group_id = None;
            let mut trunk_cohorts = Vec::new();
            let mut flush = |group: &mut Vec<SimDuration>,
                             group_id: &mut Option<usize>|
             -> Result<(), ScenarioError> {
                if group_id.take().is_none() {
                    return Ok(());
                }
                let sched = builder
                    .schedule()
                    .member_schedule(tau, group.len() as u32)?;
                let (h, cohort) = FlowCohort::new(group, d.packet_size, sched);
                let mut cohort = cohort.with_jitter(jitter)?;
                if let Some(law) = builder.payload_model().size_law(d.packet_size)? {
                    cohort = cohort.with_packet_size_law(law);
                }
                trunk_cohorts.push(cohort);
                emitters.push(h);
                group.clear();
                Ok(())
            };
            for f in start.max(1)..start + count {
                let member = f - 1;
                if group_id != Some(member / k) {
                    flush(&mut group, &mut group_id)?;
                    group_id = Some(member / k);
                }
                group.push(SimDuration::from_secs_f64(spec.phases.phase_secs(
                    f,
                    member % k,
                    k,
                    period,
                )));
            }
            flush(&mut group, &mut group_id)?;
            far_end.install(&mut b, trunk_id, trunk_cohorts);
        }
    }

    let sim = b.build()?;
    Ok(BuiltScenario {
        sim,
        sender_tap,
        receiver_tap,
        gateway,
        receiver,
        payload_sink,
        aggregate: Some(AggregateHandles {
            trunk_observer: Some(trunk_observer),
            target_rate_log,
            emitters,
            fault_gate,
        }),
        tau,
    })
}

/// The trunk's configuration, less its emitters.
struct FarEnd {
    observer: WindowedObserver,
    /// Where the target flow goes on (`None` in an observer-only shard).
    target: Option<NodeId>,
    bps: f64,
    propagation: SimDuration,
    gate: Option<LossyGate>,
}

impl FarEnd {
    /// Install the trunk serving `emitters` at `id`.
    fn install<E: Emitter + 'static>(self, b: &mut SimBuilder, id: NodeId, emitters: Vec<E>) {
        let mut trunk = Trunk::new(self.observer, self.target, self.bps, self.propagation);
        if let Some(gate) = self.gate {
            trunk = trunk.with_gate(gate);
        }
        for emitter in emitters {
            trunk = trunk.with_emitter(emitter);
        }
        b.install(id, Box::new(trunk));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::TapPosition;
    use linkpad_stats::moments::{sample_mean, sample_variance};

    #[test]
    fn aggregate_builds_and_collects_target_flow_piats() {
        let b = ScenarioBuilder::aggregate(1, 16).with_payload_rate(10.0);
        let mut s = b.build().unwrap();
        let piats = s
            .collect_piats(TapPosition::SenderEgress, 1000, 50)
            .unwrap();
        assert_eq!(piats.len(), 1000);
        let m = sample_mean(&piats).unwrap();
        // Flow 0's egress is still a τ-clocked padded stream.
        assert!((m - 0.010).abs() < 1e-5, "mean {m}");
        let sd = sample_variance(&piats).unwrap().sqrt();
        assert!(sd > 1e-7 && sd < 100e-6, "sd {sd}");
    }

    #[test]
    fn trunk_observer_sees_all_flows_and_passes_on_the_target() {
        let flows = 8;
        let b = ScenarioBuilder::aggregate(2, flows).with_payload_rate(10.0);
        let mut s = b.build().unwrap();
        s.run_for_secs(5.0);
        let agg = s.aggregate.as_ref().unwrap();
        // Every gateway ticks at ~100 pps; the trunk observer sees the
        // union.
        let per_flow = s.sender_tap.count() as f64;
        let obs = agg.trunk_observer.clone().unwrap();
        let trunk = obs.arrivals() as f64;
        assert!(
            (trunk / per_flow - flows as f64).abs() < 0.1 * flows as f64,
            "trunk {trunk} vs per-flow {per_flow}"
        );
        // The default 0.2 s windows partition the arrivals in
        // O(windows) memory; full windows hold ~flows × window/τ.
        assert_eq!(obs.counts().iter().sum::<f64>(), trunk);
        assert!(obs.windows() <= 26, "windows {}", obs.windows());
        let mid = obs.counts()[12];
        assert!((mid - (flows * 20) as f64).abs() <= 2.0, "mid window {mid}");
        // Past the observer only flow 0 goes on: its receiver sees a
        // clean single-flow stream again.
        assert!(s.receiver_tap.count() > 400);
        assert_eq!(s.receiver.unexpected(), 0);
        assert_eq!(
            s.receiver.payload_delivered() + s.receiver.dummies_stripped(),
            s.receiver_tap.count() as u64
        );
    }

    #[test]
    fn aggregate_target_receiver_gets_all_payload() {
        let b = ScenarioBuilder::aggregate(3, 4).with_payload_rate(40.0);
        let mut s = b.build().unwrap();
        s.run_for_secs(10.0);
        // Everything the target sent is delivered, minus at most a
        // couple in flight over the 5 ms trunk.
        let gw = &s.gateway;
        assert!(gw.payload_sent() >= 395, "sent {}", gw.payload_sent());
        assert!(gw.payload_sent() - s.receiver.payload_delivered() <= 2);
        assert!(gw.dummy_sent() - s.receiver.dummies_stripped() <= 2);
        assert_eq!(
            s.payload_sink.count() as u64,
            s.receiver.payload_delivered()
        );
    }

    #[test]
    fn empty_aggregate_is_a_build_error() {
        let b = ScenarioBuilder::aggregate(4, 0);
        assert!(matches!(b.build(), Err(ScenarioError::EmptyAggregate)));
    }

    #[test]
    fn switching_target_records_ground_truth_and_keeps_qos() {
        let b = ScenarioBuilder::aggregate(12, 3)
            .with_trunk_observer(0.05)
            .with_switching_target([10.0, 40.0], 1.0);
        let mut s = b.build().unwrap();
        s.run_for_secs(3.5);
        let agg = s.aggregate.as_ref().unwrap();
        let log = agg.target_rate_log.clone().unwrap();
        let entries = log.entries();
        assert_eq!(entries.len(), 4, "start + 3 switches: {entries:?}");
        assert_eq!(entries[0].1, 10.0);
        assert_eq!(entries[1].1, 40.0);
        // The switching payload still rides the padded flow end to end.
        assert!(s.receiver.payload_delivered() > 50);
        assert_eq!(s.receiver.unexpected(), 0);
        assert!(s.gateway.ticks() > 300, "the target gateway starved");
        assert_eq!(agg.emitters.len(), 2);
        for (i, e) in agg.emitters.iter().enumerate() {
            assert_eq!(e.flows(), 1);
            assert!(e.emitted() > 300, "emitter {i} starved");
        }
    }

    #[test]
    fn fault_gate_drops_trunk_traffic_at_the_configured_rate() {
        use linkpad_sim::fault::LossModel;
        let plan = FaultPlan::new(7).with_trunk_loss(LossModel::Bernoulli { p: 0.2 });
        let b = ScenarioBuilder::aggregate(20, 4)
            .with_payload_rate(10.0)
            .with_faults(plan);
        let mut s = b.build().unwrap();
        s.run_for_secs(10.0);
        let agg = s.aggregate.as_ref().unwrap();
        let gate = agg.fault_gate.clone().unwrap();
        assert!(gate.offered() > 3500, "offered {}", gate.offered());
        let frac = gate.drop_fraction();
        assert!((frac - 0.2).abs() < 0.03, "drop fraction {frac}");
        // The trunk observer sits behind the gate: it sees survivors
        // only (minus the few packets in flight over the 5 ms trunk).
        let trunk = agg.trunk_observer.as_ref().unwrap().arrivals();
        assert!(
            gate.passed() - trunk <= 8,
            "observer {trunk} vs passed {}",
            gate.passed()
        );
    }

    #[test]
    fn observer_gap_plan_stamps_coverage_without_a_gate() {
        use linkpad_sim::fault::OutageSchedule;
        let gaps = OutageSchedule::new(
            SimDuration::from_secs_f64(1.0),
            SimDuration::from_secs_f64(0.25),
        );
        let base = ScenarioBuilder::aggregate(21, 4)
            .with_payload_rate(10.0)
            .with_trunk_observer(0.25);
        let nodes = base.build().unwrap().sim.node_count();
        let gap_plan = FaultPlan::new(3).with_observer_gaps(gaps);
        // Plans without a trunk axis build the no-plan topology: no
        // gate, not one extra node.
        for plan in [FaultPlan::new(1), gap_plan] {
            let s = base.clone().with_faults(plan).build().unwrap();
            assert!(s.aggregate.as_ref().unwrap().fault_gate.is_none());
            assert_eq!(s.sim.node_count(), nodes);
        }
        let mut s = base.with_faults(gap_plan).build().unwrap();
        s.run_for_secs(4.0);
        let agg = s.aggregate.as_ref().unwrap();
        let obs = agg.trunk_observer.clone().unwrap();
        let covs = obs.coverages();
        // 0.25 s windows, down the first 0.25 s of every 1 s: every
        // fourth window is fully blind, the rest fully covered.
        assert!(covs.len() >= 12, "windows {}", covs.len());
        for (i, &c) in covs.iter().enumerate() {
            let want = if i % 4 == 0 { 0.0 } else { 1.0 };
            assert_eq!(c, want, "window {i}");
        }
        // Blind windows record nothing.
        let counts = obs.counts();
        assert_eq!(counts[4], 0.0);
        assert!(counts[5] > 0.0);
    }

    #[test]
    fn default_aggregate_observes_its_trunk_and_honours_observer_gaps() {
        use linkpad_sim::fault::OutageSchedule;
        // No `with_trunk_observer`: the default 0.2 s observer watches
        // the trunk, and a gap-only plan blinds it.
        let gaps = OutageSchedule::new(
            SimDuration::from_secs_f64(1.0),
            SimDuration::from_secs_f64(0.2),
        );
        let mut s = ScenarioBuilder::aggregate(22, 4)
            .with_payload_rate(10.0)
            .with_faults(FaultPlan::new(3).with_observer_gaps(gaps))
            .build()
            .unwrap();
        s.run_for_secs(3.0);
        let agg = s.aggregate.as_ref().unwrap();
        let obs = agg
            .trunk_observer
            .clone()
            .expect("every aggregate observes its trunk");
        assert_eq!(obs.window_secs(), 0.2);
        // Down the first 0.2 s of every 1 s: windows 0, 5, 10, … are
        // blind, the rest fully covered.
        let covs = obs.coverages();
        assert!(covs.len() >= 14, "windows {}", covs.len());
        for (i, &c) in covs.iter().enumerate() {
            let want = if i % 5 == 0 { 0.0 } else { 1.0 };
            assert_eq!(c, want, "window {i}");
        }
    }

    #[test]
    fn invalid_fault_plan_is_a_typed_build_error() {
        use linkpad_sim::fault::LossModel;
        let bad = ScenarioBuilder::aggregate(1, 2)
            .with_faults(FaultPlan::new(0).with_trunk_loss(LossModel::Bernoulli { p: 2.0 }));
        assert!(matches!(
            bad.build(),
            Err(ScenarioError::InvalidFaultPlan(_))
        ));
    }

    #[test]
    fn invalid_switching_and_observer_specs_error_cleanly() {
        let bad_rate = ScenarioBuilder::aggregate(1, 2).with_switching_target([0.0, 40.0], 1.0);
        assert!(matches!(bad_rate.build(), Err(ScenarioError::Stats(_))));
        let bad_dwell = ScenarioBuilder::aggregate(1, 2).with_switching_target([10.0, 40.0], -1.0);
        assert!(matches!(bad_dwell.build(), Err(ScenarioError::Stats(_))));
        let bad_window = ScenarioBuilder::aggregate(1, 2).with_trunk_observer(0.0);
        assert!(matches!(bad_window.build(), Err(ScenarioError::Stats(_))));
    }
}

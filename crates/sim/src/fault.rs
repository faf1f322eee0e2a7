//! Deterministic fault injection: lossy trunks and scheduled outages.
//!
//! Every result in the repo so far assumed a perfect world — lossless
//! trunks and an observer that never blinks. Real aggregated links drop
//! packets (congestion, layer-2 errors) and real measurement
//! infrastructure has maintenance windows; the throughput-fingerprinting
//! and statistical-disclosure literature this workbench extends operates
//! explicitly on such noisy, partial observations. This module provides
//! the in-simulation half of the fault model:
//!
//! * [`LossModel`] — per-packet loss laws: i.i.d. Bernoulli and the
//!   bursty two-state Gilbert–Elliott chain.
//! * [`OutageSchedule`] — periodic up/down intervals with a closed-form
//!   coverage integral, shared by link outages (packets dropped while
//!   down) and observer measurement gaps (arrivals unrecorded while
//!   down; see [`WindowedObserver::with_gaps`](crate::observer::WindowedObserver::with_gaps)).
//! * [`LossyGate`] — the loss-capable hop: a zero-delay pass-through
//!   node that drops packets per its loss model and outage schedule and
//!   forwards survivors unchanged.
//! * [`FaultPlan`] — the scenario-level bundle wiring the three fault
//!   axes through `ScenarioBuilder`/`AggregateSpec` in
//!   `linkpad-workloads`.
//!
//! **Determinism contract.** Faults are as reproducible as everything
//! else: the gate's drop pattern is fully determined by
//! `(FaultPlan::seed, run seed, topology)`. At `on_start` the gate
//! derives a private RNG by mixing the plan seed with one draw from its
//! per-node stream — the same derivation `Sim::reset` re-runs — so
//! `reset(seed)` replays the exact drop pattern a fresh build at that
//! seed would produce, while changing `FaultPlan::seed` re-randomizes
//! the fault realization without touching traffic generation.

use crate::engine::Context;
use crate::node::{Node, NodeId};
use crate::packet::Packet;
use crate::time::{SimDuration, SimTime};
use linkpad_stats::rng::{splitmix64_mix, Xoshiro256StarStar};
use rand_core::RngCore;
use std::cell::RefCell;
use std::rc::Rc;

/// Per-packet loss law applied by a [`LossyGate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// Independent loss: every packet is dropped with probability `p`.
    Bernoulli {
        /// Drop probability, in `[0, 1]`.
        p: f64,
    },
    /// Two-state Gilbert–Elliott bursty loss. The channel alternates
    /// between a *good* and a *bad* state; each packet is dropped with
    /// the current state's loss probability, then the state transitions
    /// (packet-driven chain). Mean burst length in the bad state is
    /// `1 / p_bad_to_good` packets.
    GilbertElliott {
        /// Per-packet probability of moving good → bad.
        p_good_to_bad: f64,
        /// Per-packet probability of moving bad → good.
        p_bad_to_good: f64,
        /// Drop probability while in the good state.
        loss_good: f64,
        /// Drop probability while in the bad state.
        loss_bad: f64,
    },
}

impl LossModel {
    /// Validate every probability is a finite value in `[0, 1]`.
    pub fn validate(&self) -> Result<(), &'static str> {
        let ok = |p: f64| p.is_finite() && (0.0..=1.0).contains(&p);
        match *self {
            LossModel::Bernoulli { p } => {
                if !ok(p) {
                    return Err("Bernoulli loss probability must be in [0, 1]");
                }
            }
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                if !(ok(p_good_to_bad) && ok(p_bad_to_good) && ok(loss_good) && ok(loss_bad)) {
                    return Err("Gilbert-Elliott probabilities must be in [0, 1]");
                }
            }
        }
        Ok(())
    }

    /// Stationary mean loss rate of the law (Bernoulli: `p`;
    /// Gilbert–Elliott: the loss probabilities weighted by the chain's
    /// stationary state distribution; a chain with no transitions in
    /// either direction sits in its initial good state forever).
    pub fn mean_loss(&self) -> f64 {
        match *self {
            LossModel::Bernoulli { p } => p,
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                let denom = p_good_to_bad + p_bad_to_good;
                if denom <= 0.0 {
                    return loss_good; // absorbing start state
                }
                let pi_bad = p_good_to_bad / denom;
                loss_good * (1.0 - pi_bad) + loss_bad * pi_bad
            }
        }
    }
}

/// A periodic up/down schedule: starting at `phase`, the subject is
/// *down* for the first `down` of every `period`, up for the rest.
/// Times before `phase` are up. Used both for link outages (the gate
/// drops every packet while down) and observer measurement gaps (the
/// observer records nothing while down).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageSchedule {
    period: SimDuration,
    down: SimDuration,
    phase: SimDuration,
}

impl OutageSchedule {
    /// A schedule that is down for the first `down` of every `period`,
    /// starting at time zero.
    ///
    /// # Panics
    /// Panics if `period` is zero or `down > period` (configuration
    /// constants).
    pub fn new(period: SimDuration, down: SimDuration) -> Self {
        assert!(period > SimDuration::ZERO, "outage period must be positive");
        assert!(down <= period, "outage down-time cannot exceed the period");
        Self {
            period,
            down,
            phase: SimDuration::ZERO,
        }
    }

    /// Delay the first down interval: the schedule is up until `phase`,
    /// then cycles (down for `down`, up for the rest of each period).
    pub fn with_phase(mut self, phase: SimDuration) -> Self {
        self.phase = phase;
        self
    }

    /// The cycle period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Down-time per cycle.
    pub fn down(&self) -> SimDuration {
        self.down
    }

    /// Long-run fraction of time spent down.
    pub fn down_fraction(&self) -> f64 {
        self.down.as_nanos() as f64 / self.period.as_nanos() as f64
    }

    /// Is the subject down at instant `t`? Interval convention: down on
    /// `[cycle_start, cycle_start + down)`, matching the half-open
    /// observation windows.
    pub fn is_down(&self, t: SimTime) -> bool {
        let t = t.as_nanos();
        let phase = self.phase.as_nanos();
        if t < phase {
            return false;
        }
        (t - phase) % self.period.as_nanos() < self.down.as_nanos()
    }

    /// Cumulative down-time (nanoseconds) in `[0, t)`, closed form.
    fn downtime_before(&self, t: u64) -> u64 {
        let u = t.saturating_sub(self.phase.as_nanos());
        let period = self.period.as_nanos();
        let down = self.down.as_nanos();
        (u / period) * down + (u % period).min(down)
    }

    /// Fraction of the half-open interval `[a, b)` the subject is *up*
    /// (the coverage the observer stamps on its windows). Exact closed
    /// form, no sampling. An empty interval (`b <= a`) has coverage 1.
    pub fn coverage(&self, a: SimTime, b: SimTime) -> f64 {
        let (a, b) = (a.as_nanos(), b.as_nanos());
        if b <= a {
            return 1.0;
        }
        let down = self.downtime_before(b) - self.downtime_before(a);
        1.0 - down as f64 / (b - a) as f64
    }
}

/// The full fault configuration of a scenario: which trunk loss law,
/// link outage schedule and observer gap schedule apply, plus the
/// dedicated fault seed. `Copy` configuration, like
/// `AggregateSpec` — a plan with no axes set (`FaultPlan::new(seed)`)
/// injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Dedicated fault seed, mixed into the gate's RNG derivation so
    /// fault realizations can be varied independently of the run seed.
    pub seed: u64,
    /// Per-packet loss on the trunk ingress, if any.
    pub trunk_loss: Option<LossModel>,
    /// Scheduled trunk outages (all packets dropped while down), if any.
    pub trunk_outage: Option<OutageSchedule>,
    /// Observer measurement gaps (arrivals unrecorded while down), if
    /// any.
    pub observer_gaps: Option<OutageSchedule>,
}

impl FaultPlan {
    /// An empty plan (no faults) under a dedicated fault seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            trunk_loss: None,
            trunk_outage: None,
            observer_gaps: None,
        }
    }

    /// Add a trunk packet-loss law.
    pub fn with_trunk_loss(mut self, loss: LossModel) -> Self {
        self.trunk_loss = Some(loss);
        self
    }

    /// Add a scheduled trunk outage.
    pub fn with_trunk_outage(mut self, outage: OutageSchedule) -> Self {
        self.trunk_outage = Some(outage);
        self
    }

    /// Add observer measurement gaps.
    pub fn with_observer_gaps(mut self, gaps: OutageSchedule) -> Self {
        self.observer_gaps = Some(gaps);
        self
    }

    /// Does the plan require a [`LossyGate`] in front of the trunk?
    /// (Observer gaps live inside the observer; loss and outages need
    /// the gate hop.)
    pub fn affects_trunk(&self) -> bool {
        self.trunk_loss.is_some() || self.trunk_outage.is_some()
    }

    /// Validate every probability in the plan.
    pub fn validate(&self) -> Result<(), &'static str> {
        if let Some(loss) = &self.trunk_loss {
            loss.validate()?;
        }
        Ok(())
    }
}

/// Counters a [`LossyGate`] accumulates, shared with its
/// [`FaultGateHandle`].
#[derive(Debug, Default)]
struct GateStats {
    passed: u64,
    dropped_loss: u64,
    dropped_outage: u64,
}

/// Read-side handle to a [`LossyGate`]'s drop counters, usable after
/// the simulation has run (the engine owns the node).
#[derive(Debug, Clone)]
pub struct FaultGateHandle {
    state: Rc<RefCell<GateStats>>,
}

impl FaultGateHandle {
    /// Packets forwarded downstream.
    pub fn passed(&self) -> u64 {
        self.state.borrow().passed
    }

    /// Packets dropped by the loss model.
    pub fn dropped_loss(&self) -> u64 {
        self.state.borrow().dropped_loss
    }

    /// Packets dropped because the link was in a scheduled outage.
    pub fn dropped_outage(&self) -> u64 {
        self.state.borrow().dropped_outage
    }

    /// Total packets dropped (loss + outage).
    pub fn dropped(&self) -> u64 {
        let st = self.state.borrow();
        st.dropped_loss + st.dropped_outage
    }

    /// Total packets offered to the gate (passed + dropped).
    pub fn offered(&self) -> u64 {
        let st = self.state.borrow();
        st.passed + st.dropped_loss + st.dropped_outage
    }

    /// Realized drop fraction (`NaN` before any packet was offered).
    pub fn drop_fraction(&self) -> f64 {
        let st = self.state.borrow();
        let offered = st.passed + st.dropped_loss + st.dropped_outage;
        (st.dropped_loss + st.dropped_outage) as f64 / offered as f64
    }
}

/// The loss-capable hop: drops packets per an optional
/// [`OutageSchedule`] (checked first — a down link loses everything)
/// and an optional [`LossModel`], forwarding survivors to `next` with
/// zero delay (the gate models loss, not queueing; put a
/// [`Router`](crate::router::Router) behind it for that).
#[derive(Debug)]
pub struct LossyGate {
    next: NodeId,
    loss: Option<LossModel>,
    outage: Option<OutageSchedule>,
    plan_seed: u64,
    rng: Xoshiro256StarStar,
    /// Gilbert–Elliott chain state (`true` = bad). Always starts good.
    bad: bool,
    state: Rc<RefCell<GateStats>>,
    label: String,
}

impl LossyGate {
    /// A gate forwarding to `next`, dropping per `loss` and `outage`
    /// under the given plan seed. With both `None` the gate passes
    /// everything (zero drops, still one virtual-dispatch hop — the
    /// scenario builders skip the node entirely in that case).
    ///
    /// # Panics
    /// Panics if the loss model fails [`LossModel::validate`]
    /// (configuration constant; scenario builders validate first and
    /// return typed errors).
    pub fn new(
        next: NodeId,
        loss: Option<LossModel>,
        outage: Option<OutageSchedule>,
        plan_seed: u64,
    ) -> (FaultGateHandle, Self) {
        if let Some(l) = &loss {
            if let Err(msg) = l.validate() {
                panic!("invalid loss model: {msg}");
            }
        }
        let state = Rc::new(RefCell::new(GateStats::default()));
        (
            FaultGateHandle {
                state: Rc::clone(&state),
            },
            Self {
                next,
                loss,
                outage,
                plan_seed,
                rng: Xoshiro256StarStar::from_u64(splitmix64_mix(plan_seed)),
                bad: false,
                state,
                label: "lossy-gate".to_string(),
            },
        )
    }

    /// Builder-style label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// One per-packet drop decision. Outage first (a down link loses
    /// everything without consuming RNG draws), then the loss law.
    #[inline]
    fn passes(&mut self, now: SimTime, st: &mut GateStats) -> bool {
        if let Some(outage) = &self.outage {
            if outage.is_down(now) {
                st.dropped_outage += 1;
                return false;
            }
        }
        match self.loss {
            None => {}
            // The guard draws the per-packet Bernoulli exactly once.
            Some(LossModel::Bernoulli { p }) if self.rng.next_f64() < p => {
                st.dropped_loss += 1;
                return false;
            }
            Some(LossModel::Bernoulli { .. }) => {}
            Some(LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            }) => {
                // Draw loss in the current state, then transition —
                // exactly two RNG draws per packet, state included.
                let p = if self.bad { loss_bad } else { loss_good };
                let lost = self.rng.next_f64() < p;
                let flip = self.rng.next_f64()
                    < if self.bad {
                        p_bad_to_good
                    } else {
                        p_good_to_bad
                    };
                if flip {
                    self.bad = !self.bad;
                }
                if lost {
                    st.dropped_loss += 1;
                    return false;
                }
            }
        }
        st.passed += 1;
        true
    }
}

impl Node for LossyGate {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // Mix the dedicated fault seed with one draw from this node's
        // per-(run seed, node index) stream: changing either the plan
        // seed or the run seed re-randomizes the drop pattern, and
        // `Sim::reset` re-derives the stream so reset replays it
        // bit-identically.
        self.rng =
            Xoshiro256StarStar::from_u64(splitmix64_mix(self.plan_seed) ^ ctx.rng.next_u64());
        self.bad = false;
    }

    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        let now = ctx.now();
        let pass = {
            let state = Rc::clone(&self.state);
            let mut st = state.borrow_mut();
            self.passes(now, &mut st)
        };
        if pass {
            ctx.send_now(self.next, packet);
        }
    }

    fn on_packets(&mut self, packets: &mut Vec<Packet>, ctx: &mut Context<'_>) {
        // Burst path: one state borrow, decisions in arrival order.
        let now = ctx.now();
        let state = Rc::clone(&self.state);
        let mut st = state.borrow_mut();
        for packet in packets.drain(..) {
            if self.passes(now, &mut st) {
                ctx.send_now(self.next, packet);
            }
        }
    }

    fn reset(&mut self) {
        // `on_start` re-derives the RNG; restore the construction-time
        // placeholder and chain state so a never-started sim is also
        // bit-identical to a fresh build.
        self.rng = Xoshiro256StarStar::from_u64(splitmix64_mix(self.plan_seed));
        self.bad = false;
        *self.state.borrow_mut() = GateStats::default();
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimBuilder;
    use crate::packet::{FlowId, PacketKind};
    use crate::tap::{Tap, TapHandle};
    use linkpad_stats::rng::MasterSeed;

    fn dur(secs: f64) -> SimDuration {
        SimDuration::from_secs_f64(secs)
    }

    #[test]
    fn outage_schedule_membership_and_coverage() {
        // Down 0.25 s of every 1 s, starting at t = 0.5 s.
        let o = OutageSchedule::new(dur(1.0), dur(0.25)).with_phase(dur(0.5));
        assert!(!o.is_down(SimTime::from_secs_f64(0.1)), "before phase: up");
        assert!(o.is_down(SimTime::from_secs_f64(0.5)));
        assert!(o.is_down(SimTime::from_secs_f64(0.74)));
        assert!(!o.is_down(SimTime::from_secs_f64(0.75)), "half-open");
        assert!(o.is_down(SimTime::from_secs_f64(1.6)));
        assert!((o.down_fraction() - 0.25).abs() < 1e-12);

        // Closed-form coverage vs brute-force sampling of is_down.
        for (a, b) in [(0.0, 4.0), (0.3, 0.9), (0.55, 0.65), (1.9, 3.1)] {
            let samples = 100_000;
            let mut down = 0u32;
            for i in 0..samples {
                let t = a + (i as f64 + 0.5) / samples as f64 * (b - a);
                if o.is_down(SimTime::from_secs_f64(t)) {
                    down += 1;
                }
            }
            let sampled = 1.0 - down as f64 / samples as f64;
            let exact = o.coverage(SimTime::from_secs_f64(a), SimTime::from_secs_f64(b));
            assert!(
                (sampled - exact).abs() < 1e-3,
                "[{a},{b}): sampled {sampled} vs exact {exact}"
            );
        }
        // Empty interval.
        assert_eq!(
            o.coverage(SimTime::from_secs_f64(2.0), SimTime::from_secs_f64(2.0)),
            1.0
        );
        // Fully-down interval.
        assert_eq!(
            o.coverage(SimTime::from_secs_f64(1.5), SimTime::from_secs_f64(1.75)),
            0.0
        );
    }

    #[test]
    fn gilbert_elliott_mean_loss_matches_stationary_law() {
        let ge = LossModel::GilbertElliott {
            p_good_to_bad: 0.02,
            p_bad_to_good: 0.18,
            loss_good: 0.001,
            loss_bad: 0.45,
        };
        // π_bad = 0.02 / 0.20 = 0.1.
        assert!((ge.mean_loss() - (0.001 * 0.9 + 0.45 * 0.1)).abs() < 1e-12);
        assert!(ge.validate().is_ok());
        assert!(LossModel::Bernoulli { p: 1.5 }.validate().is_err());
        assert!(LossModel::GilbertElliott {
            p_good_to_bad: 0.5,
            p_bad_to_good: 0.5,
            loss_good: 0.0,
            loss_bad: f64::NAN,
        }
        .validate()
        .is_err());
    }

    /// Emits one 500-byte packet every `period` through a gate.
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

    fn run_gated(
        seed: u64,
        total: u32,
        loss: Option<LossModel>,
        outage: Option<OutageSchedule>,
        plan_seed: u64,
    ) -> (FaultGateHandle, TapHandle) {
        let mut b = SimBuilder::new(MasterSeed::new(seed));
        let (sink_handle, sink) = Tap::new(None, None);
        let sink_id = b.add_node(Box::new(sink));
        let (gate_handle, gate) = LossyGate::new(sink_id, loss, outage, plan_seed);
        let gate_id = b.add_node(Box::new(gate));
        b.add_node(Box::new(Clock {
            dst: gate_id,
            period: SimDuration::from_millis_f64(1.0),
            remaining: total,
        }));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::MAX);
        (gate_handle, sink_handle)
    }

    #[test]
    fn bernoulli_gate_drops_at_the_configured_rate() {
        let p = 0.05;
        let (gate, sink) = run_gated(3, 20_000, Some(LossModel::Bernoulli { p }), None, 11);
        assert_eq!(gate.offered(), 20_000);
        assert_eq!(gate.passed(), sink.count() as u64);
        assert_eq!(gate.dropped_outage(), 0);
        let rate = gate.dropped_loss() as f64 / gate.offered() as f64;
        assert!((rate - p).abs() < 0.01, "realized loss {rate} vs p={p}");
    }

    #[test]
    fn gilbert_elliott_gate_matches_stationary_rate_and_bursts() {
        let ge = LossModel::GilbertElliott {
            p_good_to_bad: 0.02,
            p_bad_to_good: 0.18,
            loss_good: 0.0,
            loss_bad: 0.9,
        };
        let (gate, _) = run_gated(5, 50_000, Some(ge), None, 29);
        let rate = gate.drop_fraction();
        let want = ge.mean_loss();
        assert!(
            (rate - want).abs() < 0.02,
            "realized loss {rate} vs stationary {want}"
        );
    }

    #[test]
    fn outage_gate_drops_exactly_the_down_windows() {
        // 1 ms arrivals; down the first 0.2 s of every 1 s. Every drop
        // is an outage drop and the realized drop fraction matches the
        // down fraction.
        let outage = OutageSchedule::new(dur(1.0), dur(0.2));
        let (gate, sink) = run_gated(7, 10_000, None, Some(outage), 0);
        assert_eq!(gate.dropped_loss(), 0);
        assert_eq!(gate.passed(), sink.count() as u64);
        let frac = gate.dropped_outage() as f64 / gate.offered() as f64;
        assert!((frac - 0.2).abs() < 0.01, "outage drop fraction {frac}");
    }

    #[test]
    fn same_seeds_reproduce_the_exact_drop_pattern() {
        let loss = Some(LossModel::Bernoulli { p: 0.1 });
        let (a, _) = run_gated(9, 5_000, loss, None, 77);
        let (b, _) = run_gated(9, 5_000, loss, None, 77);
        assert_eq!(a.dropped_loss(), b.dropped_loss());
        assert_eq!(a.passed(), b.passed());
        // Different plan seed, same run seed → different realization.
        let (c, _) = run_gated(9, 5_000, loss, None, 78);
        assert_ne!(
            a.dropped_loss(),
            c.dropped_loss(),
            "plan seed must re-randomize the drop pattern"
        );
    }

    #[test]
    fn plan_builder_and_validation() {
        let plan = FaultPlan::new(42)
            .with_trunk_loss(LossModel::Bernoulli { p: 0.05 })
            .with_trunk_outage(OutageSchedule::new(dur(1.0), dur(0.25)))
            .with_observer_gaps(OutageSchedule::new(dur(2.0), dur(0.5)));
        assert!(plan.affects_trunk());
        assert!(plan.validate().is_ok());
        assert!(!FaultPlan::new(1).affects_trunk());
        let bad = FaultPlan::new(1).with_trunk_loss(LossModel::Bernoulli { p: -0.1 });
        assert!(bad.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "outage down-time cannot exceed the period")]
    fn oversized_downtime_panics() {
        let _ = OutageSchedule::new(dur(1.0), dur(1.5));
    }
}

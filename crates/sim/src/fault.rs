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
//! * [`LossyGate`] — the drop decision of a lossy trunk: the
//!   [`Trunk`](crate::trunk::Trunk) that owns it
//!   ([`Trunk::with_gate`](crate::trunk::Trunk::with_gate)) asks it
//!   about every arrival, in service order, before the arrival joins the
//!   egress queue.
//! * [`FaultPlan`] — the scenario-level bundle wiring the three fault
//!   axes through `ScenarioBuilder`/`AggregateSpec` in
//!   `linkpad-workloads`.
//!
//! **Determinism contract.** Faults are as reproducible as everything
//! else: the gate's drop pattern is fully determined by
//! `(FaultPlan::seed, run seed, topology)`. When its trunk starts, the
//! gate derives a private RNG by mixing the plan seed with one draw from
//! the trunk's stream — the same derivation a run after `Sim::reset`
//! repeats — so `reset(seed)` replays the exact drop pattern a fresh
//! build at that seed would produce, while changing `FaultPlan::seed`
//! re-randomizes the fault realization without touching traffic
//! generation.

use crate::time::{SimDuration, SimTime};
use linkpad_stats::rng::{splitmix64_mix, Xoshiro256StarStar};
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

    /// Does the plan need a [`LossyGate`] on the trunk? (Observer gaps
    /// live inside the observer; loss and outages need the gate.)
    pub fn affects_trunk(&self) -> bool {
        self.trunk_loss.is_some() || self.trunk_outage.is_some()
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
/// the simulation has run (the trunk owns the gate).
#[derive(Debug, Clone)]
pub struct FaultGateHandle {
    state: Rc<RefCell<GateStats>>,
}

impl FaultGateHandle {
    /// Packets that passed the gate into the trunk's queue.
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

/// The drop decision of a lossy trunk: drops arrivals per an optional
/// [`OutageSchedule`] (checked first — a down link loses everything)
/// and an optional [`LossModel`]. Not a node: the
/// [`Trunk`](crate::trunk::Trunk) that owns it asks it about every
/// arrival, in service order, and serves the survivors.
#[derive(Debug)]
pub struct LossyGate {
    loss: Option<LossModel>,
    outage: Option<OutageSchedule>,
    plan_seed: u64,
    rng: Xoshiro256StarStar,
    /// Gilbert–Elliott chain state (`true` = bad). Always starts good.
    bad: bool,
    state: Rc<RefCell<GateStats>>,
}

impl LossyGate {
    /// A gate dropping per `loss` and `outage` under the given plan
    /// seed. With both `None` the gate passes everything (the scenario
    /// builders then build no gate at all).
    ///
    /// # Errors
    /// The reason [`LossModel::validate`] gives for an invalid loss
    /// model.
    pub fn new(
        loss: Option<LossModel>,
        outage: Option<OutageSchedule>,
        plan_seed: u64,
    ) -> Result<(FaultGateHandle, Self), &'static str> {
        if let Some(l) = &loss {
            l.validate()?;
        }
        let state = Rc::new(RefCell::new(GateStats::default()));
        Ok((
            FaultGateHandle {
                state: Rc::clone(&state),
            },
            Self {
                loss,
                outage,
                plan_seed,
                rng: Xoshiro256StarStar::from_u64(splitmix64_mix(plan_seed)),
                bad: false,
                state,
            },
        ))
    }

    /// Start the gate's private RNG from `draw`, one draw of the owning
    /// trunk's per-(run seed, node index) stream, mixed with the plan
    /// seed: changing either seed re-randomizes the drop pattern, and a
    /// run after `Sim::reset` re-derives the stream, so reset replays it
    /// bit-identically.
    pub(crate) fn start(&mut self, draw: u64) {
        self.rng = Xoshiro256StarStar::from_u64(splitmix64_mix(self.plan_seed) ^ draw);
        self.bad = false;
    }

    /// Restore the construction-time RNG placeholder, chain state and
    /// counters, so a never-started trunk is also bit-identical to a
    /// fresh build.
    pub(crate) fn reset(&mut self) {
        self.rng = Xoshiro256StarStar::from_u64(splitmix64_mix(self.plan_seed));
        self.bad = false;
        *self.state.borrow_mut() = GateStats::default();
    }

    /// One per-packet drop decision for an arrival at `now`. Outage
    /// first (a down link loses everything without consuming RNG
    /// draws), then the loss law.
    #[inline]
    pub(crate) fn passes(&mut self, now: SimTime) -> bool {
        let mut st = self.state.borrow_mut();
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

#[cfg(test)]
mod tests {
    use super::*;
    use linkpad_stats::rng::MasterSeed;
    use rand_core::RngCore;

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

    /// Offers `total` arrivals, one per millisecond from 1 ms on, to a
    /// gate started the way its trunk starts it (one draw of stream
    /// 0 under `seed`), and returns the gate's counters.
    fn run_gated(
        seed: u64,
        total: u64,
        loss: Option<LossModel>,
        outage: Option<OutageSchedule>,
        plan_seed: u64,
    ) -> FaultGateHandle {
        let (handle, mut gate) = LossyGate::new(loss, outage, plan_seed).unwrap();
        gate.start(MasterSeed::new(seed).stream(0).next_u64());
        for k in 1..=total {
            gate.passes(SimTime::from_nanos(k * 1_000_000));
        }
        handle
    }

    #[test]
    fn bernoulli_gate_drops_at_the_configured_rate() {
        let p = 0.05;
        let gate = run_gated(3, 20_000, Some(LossModel::Bernoulli { p }), None, 11);
        assert_eq!(gate.offered(), 20_000);
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
        let gate = run_gated(5, 50_000, Some(ge), None, 29);
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
        let gate = run_gated(7, 10_000, None, Some(outage), 0);
        assert_eq!(gate.dropped_loss(), 0);
        assert_eq!(gate.passed() + gate.dropped(), gate.offered());
        let frac = gate.dropped_outage() as f64 / gate.offered() as f64;
        assert!((frac - 0.2).abs() < 0.01, "outage drop fraction {frac}");
    }

    #[test]
    fn same_seeds_reproduce_the_exact_drop_pattern() {
        let loss = Some(LossModel::Bernoulli { p: 0.1 });
        let a = run_gated(9, 5_000, loss, None, 77);
        let b = run_gated(9, 5_000, loss, None, 77);
        assert_eq!(a.dropped_loss(), b.dropped_loss());
        assert_eq!(a.passed(), b.passed());
        // Different plan seed, same run seed → different realization.
        let c = run_gated(9, 5_000, loss, None, 78);
        assert_ne!(
            a.dropped_loss(),
            c.dropped_loss(),
            "plan seed must re-randomize the drop pattern"
        );
    }

    #[test]
    fn plan_builder_and_gate_validation() {
        let plan = FaultPlan::new(42)
            .with_trunk_loss(LossModel::Bernoulli { p: 0.05 })
            .with_trunk_outage(OutageSchedule::new(dur(1.0), dur(0.25)))
            .with_observer_gaps(OutageSchedule::new(dur(2.0), dur(0.5)));
        assert!(plan.affects_trunk());
        assert!(LossyGate::new(plan.trunk_loss, plan.trunk_outage, plan.seed).is_ok());
        assert!(!FaultPlan::new(1).affects_trunk());
        // An invalid loss model is a typed error, not a panic.
        let bad = Some(LossModel::Bernoulli { p: -0.1 });
        assert_eq!(
            LossyGate::new(bad, None, 1).err(),
            Some("Bernoulli loss probability must be in [0, 1]")
        );
    }

    #[test]
    fn reset_then_restart_replays_the_drop_pattern() {
        let ge = LossModel::GilbertElliott {
            p_good_to_bad: 0.05,
            p_bad_to_good: 0.3,
            loss_good: 0.01,
            loss_bad: 0.6,
        };
        let (handle, mut gate) = LossyGate::new(Some(ge), None, 5).unwrap();
        let pattern = |gate: &mut LossyGate| -> Vec<bool> {
            gate.start(0xC0FFEE);
            (1..=2_000)
                .map(|k| gate.passes(SimTime::from_nanos(k)))
                .collect()
        };
        let first = pattern(&mut gate);
        assert!(handle.dropped() > 0);
        gate.reset();
        assert_eq!(handle.offered(), 0, "reset clears the counters");
        assert_eq!(pattern(&mut gate), first);
    }

    #[test]
    #[should_panic(expected = "outage down-time cannot exceed the period")]
    fn oversized_downtime_panics() {
        let _ = OutageSchedule::new(dur(1.0), dur(1.5));
    }
}

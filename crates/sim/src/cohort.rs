//! Flow cohorts: K padded flows superposed in one generator.
//!
//! The aggregate scenario family's per-flow mode models every padded
//! flow as its own sender gateway and payload source: one
//! `GatewayEmitter` (`linkpad-core`) per flow, which the
//! [`Trunk`](crate::trunk::Trunk) pulls with no node and no timer, but
//! which still keeps its own payload law, clock state and RNG streams.
//! A cohort keeps K flows in one emitter on one stream. What a padding
//! gateway puts on the wire is only its emission instants and wire
//! sizes: flow k with start phase φₖ fires its j-th tick at
//! `φₖ + T₁ + … + Tⱼ`, each transmission shifted by an independent
//! per-tick disturbance δ that does not feed back into the clock, and
//! nothing else about the flow (payload content, queue state) is
//! visible. CIT is the σ_T = 0 member of that timer family (`Tᵢ = τ`,
//! so the instants are the exact comb `φₖ + j·τ`); VIT laws and
//! adaptive padding draw their intervals.
//!
//! [`FlowCohort`] generates the superposition of K such clocks, driven
//! by a [`MemberSchedule`] (an interval *law* shared iid across members,
//! or per-member machines like adaptive padding). It is not an engine
//! node and arms no timer: it is an [`Emitter`], which the
//! [`Trunk`](crate::trunk::Trunk) that carries its traffic owns and
//! draws on demand ([`Emitter::fire`]), so a cohort packet is never an
//! event. The cohort keeps its members' next fire instants as runs of
//! members that fire together (the same schedule a trunk keeps over its
//! emitters): a synchronized CIT cohort is one run, costing one heap
//! operation per instant, and desynchronized phases cost one `O(log K)`
//! operation per emission. Each fired member emits one packet, drawing
//! jitter δ, then wire size, then its next interval, in that order (the
//! `SenderGateway` order).
//!
//! Determinism: members fire in `(time, member)` order however they
//! split into runs, and every draw comes off the cohort's single RNG
//! stream in that order; the trunk hands the cohort that stream at start
//! ([`Emitter::start`]), so runs replay bit-identically under
//! `reset(seed)`. With a `Deterministic` law, no jitter and no size law
//! the cohort makes **zero RNG draws**, and its emission times are
//! bit-exact nominal instants — the regime the exactness tests compare
//! against real `SenderGateway`s. What one RNG stream does *not*
//! preserve is the gateway fan-in's *stream interleaving*: K real
//! gateways draw from K independent streams, so with any draw on the
//! emission path the equivalence is distributional (window count/byte
//! moments), not bit-exact — see `defense_equivalence.rs` and
//! `DESIGN.md` ("cohort superposition"), which also lists what a cohort
//! deliberately refuses to model: the `Relative` timer discipline (δ
//! feeds back into the period) and reactive defences (the clock reacts
//! to per-member payload).
//!
//! The per-tick disturbance is reproduced by [`CohortJitter`], mirroring
//! `GatewayJitterModel` (that type lives upstream in `linkpad-core`,
//! which depends on this crate): a zero-mean baseline normal plus an
//! interrupt-blocking exponential triggered with the per-tick payload
//! arrival probability `p = rate·τ`, behind the same 6σ causality
//! offset.

use crate::runs::Runs;
use crate::time::{SimDuration, SimTime};
use crate::trunk::{Emitter, EmitterHandle};
use linkpad_stats::dist::{ContinuousDist, Exponential};
use linkpad_stats::normal::Normal;
use linkpad_stats::rng::Xoshiro256StarStar;
use linkpad_stats::StatsError;
use rand_core::RngCore;

/// Per-member interval source of a cohort: `member` is the within-cohort
/// index (position in the sorted phase vector). Called once per member
/// (in member order) at start, then once per emission in the
/// deterministic `(time, member)` fire order.
pub trait MemberSchedule: std::fmt::Debug {
    /// Draw member `member`'s next inter-emission interval, seconds.
    /// Must be positive (the cohort floors to 1 ns defensively).
    fn next_interval_secs(&mut self, member: u32, rng: &mut dyn RngCore) -> f64;

    /// Return any machine state to its initial value (the next
    /// [`Emitter::start`] reschedules every member from a fresh RNG
    /// stream).
    fn reset(&mut self);
}

/// A [`MemberSchedule`] where every member draws iid intervals from one
/// shared law — the cohort form of the timer families (each member's
/// clock is an independent renewal process of the same law; a
/// `Deterministic(τ)` law is CIT).
#[derive(Debug)]
pub struct LawSchedule {
    law: Box<dyn ContinuousDist>,
}

impl LawSchedule {
    /// Wrap an interval law (mean must be positive; the caller
    /// validates, as `PaddingSchedule` constructors already do).
    pub fn new(law: Box<dyn ContinuousDist>) -> Self {
        Self { law }
    }
}

impl MemberSchedule for LawSchedule {
    fn next_interval_secs(&mut self, _member: u32, rng: &mut dyn RngCore) -> f64 {
        self.law.sample(rng).max(1e-6)
    }

    fn reset(&mut self) {}
}

/// Per-emission disturbance model of a cohort member, mirroring the
/// sender gateway's δ_gw: baseline OS jitter plus payload-arrival
/// interrupt blocking (see `linkpad-core`'s `GatewayJitterModel`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CohortJitter {
    /// Baseline zero-mean normal jitter σ_base, seconds.
    pub base_sigma: f64,
    /// Mean of the interrupt-blocking delay per payload arrival, seconds.
    pub blocking_mean: f64,
    /// Probability that a payload packet arrived during the tick period
    /// (`p = payload_rate · τ`, clamped to [0, 1] — the Bernoulli
    /// arrival regime of all the paper's experiments).
    pub arrival_prob: f64,
}

/// Materialized samplers for [`CohortJitter`] (built once per cohort so
/// the per-emission path allocates nothing).
#[derive(Debug)]
struct JitterSamplers {
    base: Option<Normal>,
    blocking: Option<Exponential>,
    arrival_prob: f64,
    /// Constant causality offset (6σ_base), as in the gateway.
    pipeline_offset: f64,
}

impl JitterSamplers {
    fn new(j: CohortJitter) -> Result<Self, StatsError> {
        for (what, v) in [
            ("cohort jitter base_sigma", j.base_sigma),
            ("cohort jitter blocking_mean", j.blocking_mean),
            ("cohort jitter arrival_prob", j.arrival_prob),
        ] {
            if !v.is_finite() {
                return Err(StatsError::NonFinite { what, value: v });
            }
            if v < 0.0 {
                return Err(StatsError::NonPositive { what, value: v });
            }
        }
        if j.arrival_prob > 1.0 {
            return Err(StatsError::InvalidProbability {
                what: "cohort jitter arrival_prob",
                value: j.arrival_prob,
            });
        }
        Ok(Self {
            base: (j.base_sigma > 0.0)
                .then(|| Normal::new(0.0, j.base_sigma))
                .transpose()?,
            blocking: (j.blocking_mean > 0.0 && j.arrival_prob > 0.0)
                .then(|| Exponential::new(j.blocking_mean))
                .transpose()?,
            arrival_prob: j.arrival_prob,
            pipeline_offset: 6.0 * j.base_sigma,
        })
    }

    /// One member flow's send delay for this tick (non-negative).
    #[inline]
    fn sample_send_delay(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        let mut delay = match &self.base {
            Some(n) => n.sample(rng),
            None => 0.0,
        };
        if let Some(blk) = &self.blocking {
            if rng.next_f64() < self.arrival_prob {
                delay += blk.sample(rng);
            }
        }
        (self.pipeline_offset + delay).max(0.0)
    }
}

/// The superposed emission process of K padded flows, generated from
/// runs of members that fire together (see the module docs).
#[derive(Debug)]
pub struct FlowCohort {
    packet_size: u32,
    /// Wire-size law for variable-payload defences (`None` → every
    /// packet is exactly `packet_size`, zero RNG draws).
    size_law: Option<Box<dyn ContinuousDist>>,
    jitter: Option<JitterSamplers>,
    sched: Box<dyn MemberSchedule>,
    /// Member `m`'s clock start offset (sorted ascending; the member
    /// index is the position in this vector).
    phases: Vec<SimDuration>,
    /// Every member's next nominal fire instant.
    runs: Runs,
    /// The stream every draw comes from, handed over by `start`.
    rng: Xoshiro256StarStar,
    emitted: EmitterHandle,
}

impl FlowCohort {
    /// A cohort of `phases.len()` flows whose clocks are driven by
    /// `schedule`. Member `m` is the m-th entry of the sorted phase
    /// vector; its first emission lands at `phase_m + T₁(m)` where `T₁`
    /// is the member's first interval draw, matching a `SenderGateway`
    /// built `with_start_phase(phase_m)`, whose first tick fires at
    /// `start_phase + T₁`. An empty cohort never fires.
    pub fn new(
        phases: &[SimDuration],
        packet_size: u32,
        schedule: Box<dyn MemberSchedule>,
    ) -> (EmitterHandle, Self) {
        let mut phases = phases.to_vec();
        phases.sort_unstable();
        let emitted = EmitterHandle::new(phases.len() as u32);
        (
            emitted.clone(),
            Self {
                packet_size,
                size_law: None,
                jitter: None,
                sched: schedule,
                runs: Runs::default(),
                phases,
                rng: Xoshiro256StarStar::from_u64(0),
                emitted,
            },
        )
    }

    /// Enable the per-emission disturbance model (default: none — exact
    /// nominal instants, zero jitter draws).
    ///
    /// # Errors
    /// [`StatsError::NonFinite`] for a NaN or infinite field,
    /// [`StatsError::NonPositive`] for a negative one, and
    /// [`StatsError::InvalidProbability`] for an `arrival_prob` above 1.
    pub fn with_jitter(mut self, jitter: CohortJitter) -> Result<Self, StatsError> {
        self.jitter = Some(JitterSamplers::new(jitter)?);
        Ok(self)
    }

    /// Install a wire-size law for variable-payload defences: each
    /// emission samples its size (floored to whole bytes, min 1).
    /// Deterministic laws make zero RNG draws, preserving bit-exactness.
    pub fn with_packet_size_law(mut self, law: Box<dyn ContinuousDist>) -> Self {
        self.size_law = Some(law);
        self
    }
}

impl Emitter for FlowCohort {
    /// Start every member clock at time zero, drawing from `rng` from
    /// now on: each member draws its first interval, in member order,
    /// and consecutive equal first fire times merge into runs.
    fn start(&mut self, rng: Xoshiro256StarStar) {
        self.rng = rng;
        let Self {
            phases,
            sched,
            rng,
            runs,
            ..
        } = self;
        runs.start(phases.iter().enumerate().map(|(m, &phase)| {
            Some(SimTime::ZERO + phase + next_interval(&mut **sched, m as u32, rng))
        }));
    }

    /// When the next member fires, or `None` for an empty or unstarted
    /// cohort.
    #[inline]
    fn next_fire(&self) -> Option<SimTime> {
        self.runs.next_fire()
    }

    /// Fire every member due at [`Emitter::next_fire`], in member
    /// order. Each emits one packet, handing `emit` its arrival instant
    /// (the fire instant shifted by the member's jitter δ) and wire
    /// size, then draws its next interval.
    fn fire(&mut self, mut emit: impl FnMut(SimTime, u32)) {
        let Self {
            packet_size,
            size_law,
            jitter,
            sched,
            runs,
            rng,
            emitted,
            ..
        } = self;
        let mut fired = 0u64;
        runs.fire(|t, m| {
            // One emission: jitter δ, then wire size, then the member's
            // next interval.
            let delay = jitter.as_ref().map(|j| j.sample_send_delay(rng));
            let size = match size_law {
                Some(law) => law.sample(rng).floor().max(1.0) as u32,
                None => *packet_size,
            };
            emit(delay.map_or(t, |d| t + SimDuration::from_secs_f64(d)), size);
            fired += 1;
            Some(t + next_interval(&mut **sched, m, rng))
        });
        emitted.add(fired);
    }

    /// Return to the as-built state: no member scheduled, schedule
    /// machines and counters reset. [`Emitter::start`] must follow
    /// before the cohort fires again.
    fn reset(&mut self) {
        self.runs.clear();
        self.sched.reset();
        self.emitted.clear();
    }
}

/// Member `member`'s next interval, floored to a nonzero duration so
/// every fire advances sim time (no same-instant livelock).
#[inline]
fn next_interval(
    sched: &mut dyn MemberSchedule,
    member: u32,
    rng: &mut Xoshiro256StarStar,
) -> SimDuration {
    let d = SimDuration::from_secs_f64(sched.next_interval_secs(member, rng));
    SimDuration::from_nanos(d.as_nanos().max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkpad_stats::dist::{Categorical, Deterministic};
    use linkpad_stats::rng::MasterSeed;

    const TAU: SimDuration = SimDuration::from_nanos(10_000_000); // 10 ms

    fn ms(x: f64) -> SimDuration {
        SimDuration::from_millis_f64(x)
    }

    /// The CIT member schedule at period τ.
    fn cit() -> Box<dyn MemberSchedule> {
        law(Deterministic::new(TAU.as_secs_f64()).unwrap())
    }

    fn law(d: impl ContinuousDist + 'static) -> Box<dyn MemberSchedule> {
        Box::new(LawSchedule::new(Box::new(d)))
    }

    /// Starts `cohort` on stream `seed` and fires it through `until`,
    /// returning every `(arrival, size)` it emitted there (arrivals of
    /// fires at or before `until` that land after it included) and the
    /// most runs it held.
    fn drain(cohort: &mut FlowCohort, seed: u64, until: SimTime) -> (Vec<(SimTime, u32)>, usize) {
        cohort.start(MasterSeed::new(seed).stream(0));
        let mut out = Vec::new();
        let mut peak = cohort.runs.len();
        while cohort.next_fire().is_some_and(|t| t <= until) {
            cohort.fire(|at, size| out.push((at, size)));
            peak = peak.max(cohort.runs.len());
        }
        (out, peak)
    }

    fn nanos(arrivals: &[(SimTime, u32)]) -> Vec<u64> {
        arrivals.iter().map(|a| a.0.as_nanos()).collect()
    }

    #[test]
    fn comb_times_are_exact_nominal_instants() {
        let (handle, mut cohort) = FlowCohort::new(&[ms(0.0), ms(2.0), ms(5.0)], 500, cit());
        let (out, _) = drain(&mut cohort, 1, SimTime::from_secs_f64(0.0255));
        // Flows at phases {0, 2, 5} ms: emissions at 10, 12, 15, 20, 22,
        // 25 ms — exactly, to the nanosecond (no jitter → no RNG).
        assert_eq!(
            nanos(&out),
            vec![10_000_000, 12_000_000, 15_000_000, 20_000_000, 22_000_000, 25_000_000]
        );
        assert!(out.iter().all(|&(_, size)| size == 500));
        assert_eq!(handle.emitted(), 6);
        assert_eq!(handle.flows(), 3);
    }

    #[test]
    fn an_empty_or_unstarted_cohort_never_fires() {
        let (_, mut empty) = FlowCohort::new(&[], 500, cit());
        assert_eq!(drain(&mut empty, 1, SimTime::MAX).0, vec![]);
        let (_, unstarted) = FlowCohort::new(&[ms(1.0)], 500, cit());
        assert_eq!(unstarted.next_fire(), None);
    }

    #[test]
    fn synchronized_phases_collapse_into_bursts() {
        let (handle, mut cohort) = FlowCohort::new(&[SimDuration::ZERO; 64], 500, cit());
        let (out, peak) = drain(&mut cohort, 2, SimTime::from_secs_f64(0.05));
        // 5 periods × 64 flows, all at exact multiples of τ, from one
        // run of every member.
        assert_eq!(peak, 1, "64 coincident members, one run");
        assert_eq!(handle.emitted(), 5 * 64);
        assert_eq!(out.len(), 5 * 64);
        assert!(out.iter().all(|a| a.0.as_nanos() % TAU.as_nanos() == 0));
    }

    #[test]
    fn window_counts_match_flows_times_windows_over_tau() {
        let phases: Vec<SimDuration> = (0..40).map(|k| ms(0.25 * k as f64)).collect();
        let (_, mut cohort) = FlowCohort::new(&phases, 500, cit());
        let (out, _) = drain(&mut cohort, 3, SimTime::from_secs_f64(1.0));
        // Full 100 ms windows hold flows × W/τ = 40 × 10 arrivals.
        let mut counts = [0u32; 10];
        for (at, _) in out {
            counts[(at.as_nanos() / 100_000_000).min(9) as usize] += 1;
        }
        for &c in &counts[1..8] {
            assert_eq!(c, 400, "{counts:?}");
        }
    }

    #[test]
    fn jitter_shifts_sends_without_changing_counts() {
        let run = |jitter: Option<CohortJitter>| {
            let (_, mut cohort) = FlowCohort::new(&[ms(0.0), ms(4.0)], 500, cit());
            if let Some(j) = jitter {
                cohort = cohort.with_jitter(j).unwrap();
            }
            drain(&mut cohort, 4, SimTime::from_secs_f64(0.9995)).0
        };
        let exact = run(None);
        let jittered = run(Some(CohortJitter {
            base_sigma: 6e-6,
            blocking_mean: 6e-6,
            arrival_prob: 0.1,
        }));
        assert_eq!(exact.len(), jittered.len(), "jitter never drops a tick");
        for (e, j) in exact.iter().zip(&jittered) {
            let shift = j.0.saturating_since(e.0).as_secs_f64();
            assert!(
                (0.0..100e-6).contains(&shift),
                "µs-scale causal shift, got {shift}"
            );
        }
    }

    #[test]
    fn reset_then_restart_replays_bit_identically() {
        let (handle, cohort) = FlowCohort::new(&[ms(1.0), ms(7.0)], 500, cit());
        let jitter = CohortJitter {
            base_sigma: 6e-6,
            blocking_mean: 6e-6,
            arrival_prob: 0.4,
        };
        let mut cohort = cohort.with_jitter(jitter).unwrap();
        let until = SimTime::from_secs_f64(0.5);
        let (first, _) = drain(&mut cohort, 5, until);
        assert!(handle.emitted() > 0);
        cohort.reset();
        assert_eq!(handle.emitted(), 0, "reset clears instrumentation");
        assert_eq!(cohort.next_fire(), None, "reset unschedules every member");
        assert_eq!(drain(&mut cohort, 5, until).0, first);
    }

    #[test]
    fn invalid_jitter_is_a_typed_error() {
        let jitter = |base_sigma, arrival_prob| {
            FlowCohort::new(&[ms(1.0)], 500, cit())
                .1
                .with_jitter(CohortJitter {
                    base_sigma,
                    blocking_mean: 6e-6,
                    arrival_prob,
                })
                .err()
        };
        assert!(matches!(
            jitter(f64::NAN, 0.1),
            Some(StatsError::NonFinite { .. })
        ));
        assert!(matches!(
            jitter(6e-6, 1.5),
            Some(StatsError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn stochastic_heap_replays_bit_identically_after_reset() {
        // Spread phases (singleton runs), and synchronized ones under a
        // two-point law, whose runs form and split as members draw.
        let spread: Vec<SimDuration> = (0..16).map(|k| ms(0.5 * k as f64)).collect();
        let two_point = || Categorical::new(&[(0.008, 0.5), (0.012, 0.5)]).unwrap();
        let until = SimTime::from_secs_f64(0.5);
        for (phases, sched) in [
            (spread, law(Exponential::new(0.010).unwrap())),
            (vec![SimDuration::ZERO; 16], law(two_point())),
        ] {
            let (handle, mut cohort) = FlowCohort::new(&phases, 500, sched);
            let (first, _) = drain(&mut cohort, 12, until);
            assert!(handle.emitted() > 0);
            // Fire order is `(time, member)`: instants never go back.
            assert!(first.windows(2).all(|w| w[0].0 <= w[1].0));
            cohort.reset();
            assert_eq!(handle.emitted(), 0);
            assert_eq!(drain(&mut cohort, 12, until).0, first);
        }
    }

    #[test]
    fn stochastic_heap_rate_matches_the_law_mean() {
        // 32 members with exponential interval law of mean τ emit at
        // ~32/τ packets per second in steady state.
        let phases: Vec<SimDuration> = (0..32).map(|k| ms(0.25 * k as f64)).collect();
        let (_, mut cohort) = FlowCohort::new(&phases, 500, law(Exponential::new(0.010).unwrap()));
        let secs = 20.0;
        let (out, _) = drain(&mut cohort, 13, SimTime::from_secs_f64(secs));
        let expected = 32.0 * secs / 0.010;
        let got = out.len() as f64;
        assert!(
            (got - expected).abs() / expected < 0.03,
            "got {got}, expected ~{expected}"
        );
    }

    #[test]
    fn size_law_draws_variable_wire_sizes() {
        let (_, cohort) = FlowCohort::new(&[ms(0.0), ms(3.0)], 500, cit());
        let law = Box::new(linkpad_stats::dist::Uniform::new(300.0, 901.0).unwrap());
        let mut cohort = cohort.with_packet_size_law(law);
        let (out, _) = drain(&mut cohort, 14, SimTime::from_secs_f64(2.0));
        assert!(out.len() > 100);
        let bytes: u64 = out.iter().map(|&(_, size)| u64::from(size)).sum();
        let mean = bytes as f64 / out.len() as f64;
        // U[300, 901) floored to whole bytes has mean ≈ 600.
        assert!((mean - 600.0).abs() < 25.0, "mean wire size {mean}");
    }
}

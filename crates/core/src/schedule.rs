//! Padding timer schedules: CIT and VIT.
//!
//! The paper (§3.2, remark 2): *"the only tunable parameter is the time
//! interval between timer interrupts. … A system is said to have a
//! constant interval timer (CIT) if the timer is a periodic one. … A
//! system is said to have a variable interval timer (VIT) whenever the
//! interval between two consecutive timer interrupts is a random variable
//! and satisfies some distribution."*
//!
//! A [`PaddingSchedule`] produces the *designed* interval `T` of eq. 8/9:
//! `T ~ N(τ, σ_T²)` with `σ_T = 0` for CIT. The canonical VIT law is a
//! truncated normal (a real interval must stay positive); uniform and
//! exponential laws are provided for the interval-law ablation, which
//! shows the defence depends on `σ_T`, not on the particular law.
//!
//! Beyond the paper's timer families, two further link-padding defences
//! are modelled (§Defense schedules in DESIGN.md):
//!
//! * **Constant-rate** link padding — a CIT at an operator-chosen rate
//!   rather than the paper's τ; client traffic is absorbed into the
//!   fixed-interval comb ([`PaddingSchedule::constant_rate`]).
//! * **Adaptive padding** — the Idle/Burst/Gap state machine of
//!   Shmatikov–Wang-style countermeasures: bursts of closely spaced
//!   packets separated by longer idle gaps, every gap sampled from a
//!   bounded law ([`AdaptivePadding`]). Stateful, so the gateway holds
//!   it behind [`LinkSchedule`], the enum over stateless interval laws
//!   and stateful machines.

use linkpad_stats::dist::{ContinuousDist, Deterministic, Exponential, TruncatedNormal, Uniform};
use linkpad_stats::StatsError;
use rand_core::RngCore;

/// A padding schedule: the law of the designed timer interval `T`.
#[derive(Debug)]
pub struct PaddingSchedule {
    law: Box<dyn ContinuousDist>,
    kind: ScheduleKind,
}

/// Which family a schedule belongs to (for reporting and benches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleKind {
    /// Constant interval timer: `σ_T = 0`.
    Cit,
    /// Variable interval timer, truncated-normal law (the paper's VIT).
    VitTruncatedNormal,
    /// Variable interval timer, uniform law (ablation).
    VitUniform,
    /// Variable interval timer, exponential law (ablation).
    VitExponential,
    /// Constant-rate link padding: a periodic timer at an
    /// operator-chosen packet rate (σ_T = 0, like CIT, but the period
    /// is `1/rate` rather than the paper's τ).
    ConstantRate,
    /// Adaptive padding: the stateful Idle/Burst/Gap machine (held in a
    /// [`LinkSchedule::Adaptive`], never inside a `PaddingSchedule`).
    AdaptivePadding,
    /// User-supplied law.
    Custom,
}

impl ScheduleKind {
    /// Short human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            ScheduleKind::Cit => "CIT",
            ScheduleKind::VitTruncatedNormal => "VIT(trunc-normal)",
            ScheduleKind::VitUniform => "VIT(uniform)",
            ScheduleKind::VitExponential => "VIT(exponential)",
            ScheduleKind::ConstantRate => "constant-rate",
            ScheduleKind::AdaptivePadding => "adaptive-padding",
            ScheduleKind::Custom => "custom",
        }
    }
}

impl PaddingSchedule {
    /// CIT with period `tau_secs` (e.g. `0.010` for the paper's 10 ms).
    pub fn cit(tau_secs: f64) -> Result<Self, StatsError> {
        Ok(Self {
            law: Box::new(Deterministic::new(validate_tau(tau_secs)?)?),
            kind: ScheduleKind::Cit,
        })
    }

    /// The paper's VIT: `T ~ N(τ, σ_T²)` truncated to stay positive.
    pub fn vit_truncated_normal(tau_secs: f64, sigma_t_secs: f64) -> Result<Self, StatsError> {
        let tau = validate_tau(tau_secs)?;
        Ok(Self {
            law: Box::new(TruncatedNormal::vit_law(tau, sigma_t_secs)?),
            kind: ScheduleKind::VitTruncatedNormal,
        })
    }

    /// VIT with a uniform interval law of matching mean and σ_T.
    pub fn vit_uniform(tau_secs: f64, sigma_t_secs: f64) -> Result<Self, StatsError> {
        let tau = validate_tau(tau_secs)?;
        Ok(Self {
            law: Box::new(Uniform::with_mean_sigma(tau, sigma_t_secs)?),
            kind: ScheduleKind::VitUniform,
        })
    }

    /// VIT with exponential intervals of mean τ (σ_T = τ; maximal jitter
    /// for a renewal law with this mean — the Poisson-padding limit).
    pub fn vit_exponential(tau_secs: f64) -> Result<Self, StatsError> {
        let tau = validate_tau(tau_secs)?;
        Ok(Self {
            law: Box::new(Exponential::new(tau)?),
            kind: ScheduleKind::VitExponential,
        })
    }

    /// Constant-rate link padding: one packet every `1/rate_pps`
    /// seconds, exactly. Deterministic (zero RNG draws), so constant-
    /// rate cohorts emit at bit-exact nominal instants just like CIT.
    pub fn constant_rate(rate_pps: f64) -> Result<Self, StatsError> {
        if !rate_pps.is_finite() {
            return Err(StatsError::NonFinite {
                what: "constant-rate packet rate",
                value: rate_pps,
            });
        }
        if rate_pps <= 0.0 {
            return Err(StatsError::NonPositive {
                what: "constant-rate packet rate",
                value: rate_pps,
            });
        }
        Ok(Self {
            law: Box::new(Deterministic::new(1.0 / rate_pps)?),
            kind: ScheduleKind::ConstantRate,
        })
    }

    /// A custom interval law. The law's mean must be positive.
    pub fn custom(law: Box<dyn ContinuousDist>) -> Result<Self, StatsError> {
        if !law.mean().is_finite() || law.mean() <= 0.0 {
            return Err(StatsError::NonPositive {
                what: "custom schedule mean interval",
                value: law.mean(),
            });
        }
        Ok(Self {
            law,
            kind: ScheduleKind::Custom,
        })
    }

    /// Draw the next designed interval, in seconds. Guaranteed positive
    /// (laws are constructed positive; a defensive floor of 1 µs guards
    /// custom laws).
    pub fn next_interval_secs(&self, rng: &mut dyn RngCore) -> f64 {
        self.law.sample(rng).max(1e-6)
    }

    /// Mean designed interval τ in seconds.
    pub fn tau(&self) -> f64 {
        self.law.mean()
    }

    /// Designed-interval standard deviation σ_T in seconds (0 for CIT).
    pub fn sigma_t(&self) -> f64 {
        self.law.std_dev()
    }

    /// Designed-interval variance σ_T² in seconds² (eq. 9).
    pub fn sigma_t_sq(&self) -> f64 {
        self.law.variance()
    }

    /// Mean padded-packet rate in packets/second (1/τ).
    pub fn padding_rate(&self) -> f64 {
        1.0 / self.tau()
    }

    /// The schedule family.
    pub fn kind(&self) -> ScheduleKind {
        self.kind
    }

    /// Consume the schedule, yielding its bare interval law (used to
    /// drive law-based stochastic cohorts, where the per-member state is
    /// just the next nominal fire time).
    pub fn into_law(self) -> Box<dyn ContinuousDist> {
        self.law
    }
}

/// Adaptive padding: the Idle/Burst/Gap state machine.
///
/// The machine alternates between an **Idle** state (quiet link) and a
/// **Burst** state (a run of closely spaced packets); the *Gap*
/// terminology of the countermeasure literature names the sampled wait
/// inside a burst. Each call to [`AdaptivePadding::next_interval_secs`]
/// yields the wait before the *next* padded emission:
///
/// * in **Idle**: one draw from the bounded *inter-burst* gap law, then
///   one integer draw for the length of the burst being entered
///   (uniform in `1..=max_burst`) — exactly two RNG draws;
/// * in **Burst** with `remaining > 0`: one draw from the bounded
///   *intra-burst* gap law — exactly one RNG draw — and the machine
///   returns to Idle only once the burst count is exhausted (the
///   "Gap never fires before Burst exhausts" invariant).
///
/// The default laws are scaled from the base period τ: intra-burst gaps
/// `U[0.2τ, 0.8τ)`, inter-burst gaps `U[2τ, 6τ)`, `max_burst = 15`
/// (median burst length 8). The disjoint supports make every draw
/// classifiable by value, which is what the property tests lean on.
///
/// A **disabled** machine ([`AdaptivePadding::disabled`]) degenerates to
/// a fixed-τ CIT and makes *zero* RNG draws — the bit-exactness escape
/// hatch. A **reactive** machine ([`AdaptivePadding::reactive`]) lets
/// the gateway force a fresh burst when client traffic arrives
/// ([`AdaptivePadding::notify_client_arrival`]); reactive machines
/// couple the padding clock to per-member client traffic, which the
/// cohort aggregation cannot model — `ScenarioBuilder` rejects reactive
/// cohorts with a typed error.
#[derive(Debug)]
pub struct AdaptivePadding {
    tau: f64,
    intra: Uniform,
    inter: Uniform,
    max_burst: u32,
    enabled: bool,
    reactive: bool,
    state: AdaptiveState,
    pending_trigger: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AdaptiveState {
    Idle,
    Burst { remaining: u32 },
}

impl AdaptivePadding {
    /// Canonical machine for base period τ: intra-burst gaps
    /// `U[0.2τ, 0.8τ)`, inter-burst gaps `U[2τ, 6τ)`, bursts of
    /// `1..=15` packets.
    pub fn new(tau_secs: f64) -> Result<Self, StatsError> {
        let tau = validate_tau(tau_secs)?;
        Self::with_params(tau, (0.2 * tau, 0.8 * tau), (2.0 * tau, 6.0 * tau), 15)
    }

    /// Fully parameterised machine. `intra`/`inter` are `[lo, hi)`
    /// bounds of the uniform gap laws; `max_burst ≥ 1` bounds the
    /// uniform burst-length draw.
    pub fn with_params(
        tau_secs: f64,
        intra: (f64, f64),
        inter: (f64, f64),
        max_burst: u32,
    ) -> Result<Self, StatsError> {
        let tau = validate_tau(tau_secs)?;
        if max_burst == 0 {
            return Err(StatsError::NonPositive {
                what: "adaptive padding max burst length",
                value: 0.0,
            });
        }
        Ok(Self {
            tau,
            intra: Uniform::new(intra.0, intra.1)?,
            inter: Uniform::new(inter.0, inter.1)?,
            max_burst,
            enabled: true,
            reactive: false,
            state: AdaptiveState::Idle,
            pending_trigger: false,
        })
    }

    /// Disabled machine: every interval is exactly τ and **no RNG draws
    /// are made** — indistinguishable from CIT on the wire and on the
    /// RNG stream.
    pub fn disabled(tau_secs: f64) -> Result<Self, StatsError> {
        let mut m = Self::new(tau_secs)?;
        m.enabled = false;
        Ok(m)
    }

    /// Canonical machine that additionally reacts to client traffic:
    /// [`AdaptivePadding::notify_client_arrival`] forces the next draw
    /// (if Idle) to open a fresh burst without waiting out the idle gap.
    pub fn reactive(tau_secs: f64) -> Result<Self, StatsError> {
        let mut m = Self::new(tau_secs)?;
        m.reactive = true;
        Ok(m)
    }

    /// Draw the wait before the next padded emission (see the type-level
    /// docs for the per-state draw discipline). Guaranteed positive.
    pub fn next_interval_secs(&mut self, rng: &mut dyn RngCore) -> f64 {
        if !self.enabled {
            return self.tau;
        }
        if self.pending_trigger {
            self.pending_trigger = false;
            if self.state == AdaptiveState::Idle {
                // Client traffic opens a burst immediately: skip the
                // idle gap, draw only the burst length.
                let len = self.draw_burst_len(rng);
                self.state = AdaptiveState::Burst { remaining: len };
            }
        }
        match self.state {
            AdaptiveState::Idle => {
                let gap = self.inter.sample(rng).max(1e-6);
                let len = self.draw_burst_len(rng);
                self.state = AdaptiveState::Burst { remaining: len };
                gap
            }
            AdaptiveState::Burst { remaining } => {
                let gap = self.intra.sample(rng).max(1e-6);
                self.state = if remaining <= 1 {
                    AdaptiveState::Idle
                } else {
                    AdaptiveState::Burst {
                        remaining: remaining - 1,
                    }
                };
                gap
            }
        }
    }

    fn draw_burst_len(&self, rng: &mut dyn RngCore) -> u32 {
        1 + (rng.next_u64() % u64::from(self.max_burst)) as u32
    }

    /// Signal a client-packet arrival. No-op unless the machine was
    /// built [`reactive`](AdaptivePadding::reactive).
    pub fn notify_client_arrival(&mut self) {
        if self.enabled && self.reactive {
            self.pending_trigger = true;
        }
    }

    /// Return to the initial state (Idle, no pending trigger). The gap
    /// laws are configuration and survive the reset.
    pub fn reset(&mut self) {
        self.state = AdaptiveState::Idle;
        self.pending_trigger = false;
    }

    /// Whether the machine is currently inside a burst.
    pub fn in_burst(&self) -> bool {
        matches!(self.state, AdaptiveState::Burst { .. })
    }

    /// Whether this machine reacts to client traffic (reactive machines
    /// have no stochastic-cohort support).
    pub fn is_reactive(&self) -> bool {
        self.reactive
    }

    /// Mean emission interval of the stationary machine: each cycle is
    /// one inter-burst gap followed by `E[L]` intra-burst gaps, so the
    /// per-emission mean is `(E[inter] + E[L]·E[intra]) / (1 + E[L])`.
    /// A disabled machine's mean is exactly τ.
    pub fn mean_interval_secs(&self) -> f64 {
        if !self.enabled {
            return self.tau;
        }
        let el = (1.0 + f64::from(self.max_burst)) / 2.0;
        (self.inter.mean() + el * self.intra.mean()) / (1.0 + el)
    }

    /// Standard deviation of the stationary interval mixture (weights
    /// `1/(1+E[L])` on the inter law, `E[L]/(1+E[L])` on the intra law).
    pub fn sigma_t(&self) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        let el = (1.0 + f64::from(self.max_burst)) / 2.0;
        let w_inter = 1.0 / (1.0 + el);
        let w_intra = el / (1.0 + el);
        let m = self.mean_interval_secs();
        let ex2 = w_inter * (self.inter.variance() + self.inter.mean().powi(2))
            + w_intra * (self.intra.variance() + self.intra.mean().powi(2));
        (ex2 - m * m).max(0.0).sqrt()
    }
}

/// A link-padding schedule as held by the sender gateway: either a
/// stateless interval *law* (CIT/VIT/constant-rate) or a stateful
/// *machine* (adaptive padding). Constructed from either via `From`.
#[derive(Debug)]
pub enum LinkSchedule {
    /// Stateless interval law: each interval is an independent draw.
    Law(PaddingSchedule),
    /// Stateful Idle/Burst/Gap machine.
    Adaptive(AdaptivePadding),
}

impl LinkSchedule {
    /// Draw the next designed interval, in seconds.
    pub fn next_interval_secs(&mut self, rng: &mut dyn RngCore) -> f64 {
        match self {
            LinkSchedule::Law(s) => s.next_interval_secs(rng),
            LinkSchedule::Adaptive(m) => m.next_interval_secs(rng),
        }
    }

    /// Return any machine state to its initial value (laws are
    /// stateless; the adaptive machine re-enters Idle).
    pub fn reset(&mut self) {
        if let LinkSchedule::Adaptive(m) = self {
            m.reset();
        }
    }

    /// Forward a client-packet arrival to a reactive adaptive machine
    /// (no-op for laws and non-reactive machines).
    pub fn notify_client_arrival(&mut self) {
        if let LinkSchedule::Adaptive(m) = self {
            m.notify_client_arrival();
        }
    }

    /// Mean designed interval in seconds (τ for the paper's families).
    pub fn mean_interval_secs(&self) -> f64 {
        match self {
            LinkSchedule::Law(s) => s.tau(),
            LinkSchedule::Adaptive(m) => m.mean_interval_secs(),
        }
    }

    /// Designed-interval standard deviation in seconds.
    pub fn sigma_t(&self) -> f64 {
        match self {
            LinkSchedule::Law(s) => s.sigma_t(),
            LinkSchedule::Adaptive(m) => m.sigma_t(),
        }
    }

    /// Mean padded-packet rate in packets/second.
    pub fn padding_rate(&self) -> f64 {
        1.0 / self.mean_interval_secs()
    }

    /// The schedule family.
    pub fn kind(&self) -> ScheduleKind {
        match self {
            LinkSchedule::Law(s) => s.kind(),
            LinkSchedule::Adaptive(_) => ScheduleKind::AdaptivePadding,
        }
    }

    /// The underlying law, when the schedule is stateless.
    pub fn as_law(&self) -> Option<&PaddingSchedule> {
        match self {
            LinkSchedule::Law(s) => Some(s),
            LinkSchedule::Adaptive(_) => None,
        }
    }
}

impl From<PaddingSchedule> for LinkSchedule {
    fn from(s: PaddingSchedule) -> Self {
        LinkSchedule::Law(s)
    }
}

impl From<AdaptivePadding> for LinkSchedule {
    fn from(m: AdaptivePadding) -> Self {
        LinkSchedule::Adaptive(m)
    }
}

/// Per-member adaptive machines for a flow cohort: member `m`
/// owns its own Idle/Burst/Gap state, all driven off the cohort's
/// single RNG stream in the deterministic pop order of the cohort heap.
#[derive(Debug)]
pub struct AdaptiveCohortSchedule {
    tau: f64,
    members: Vec<AdaptivePadding>,
}

impl AdaptiveCohortSchedule {
    /// One canonical (non-reactive) machine per member.
    pub fn new(members: u32, tau_secs: f64) -> Result<Self, StatsError> {
        let tau = validate_tau(tau_secs)?;
        let mut v = Vec::with_capacity(members as usize);
        for _ in 0..members {
            v.push(AdaptivePadding::new(tau)?);
        }
        Ok(Self { tau, members: v })
    }
}

impl linkpad_sim::cohort::MemberSchedule for AdaptiveCohortSchedule {
    fn next_interval_secs(&mut self, member: u32, rng: &mut dyn RngCore) -> f64 {
        match self.members.get_mut(member as usize) {
            Some(m) => m.next_interval_secs(rng),
            // Out-of-range members (never constructed by the cohort
            // builder) fall back to the base period.
            None => self.tau,
        }
    }

    fn reset(&mut self) {
        for m in &mut self.members {
            m.reset();
        }
    }
}

fn validate_tau(tau: f64) -> Result<f64, StatsError> {
    if !tau.is_finite() {
        return Err(StatsError::NonFinite {
            what: "schedule tau",
            value: tau,
        });
    }
    if tau <= 0.0 {
        return Err(StatsError::NonPositive {
            what: "schedule tau",
            value: tau,
        });
    }
    Ok(tau)
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkpad_stats::moments::RunningMoments;
    use linkpad_stats::rng::MasterSeed;

    #[test]
    fn cit_intervals_are_exactly_tau() {
        let s = PaddingSchedule::cit(0.010).unwrap();
        let mut rng = MasterSeed::new(1).stream(0);
        for _ in 0..100 {
            assert_eq!(s.next_interval_secs(&mut rng), 0.010);
        }
        assert_eq!(s.tau(), 0.010);
        assert_eq!(s.sigma_t(), 0.0);
        assert_eq!(s.kind(), ScheduleKind::Cit);
        assert!((s.padding_rate() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn vit_truncated_normal_hits_requested_moments() {
        let s = PaddingSchedule::vit_truncated_normal(0.010, 0.001).unwrap();
        let mut rng = MasterSeed::new(2).stream(0);
        let mut m = RunningMoments::new();
        for _ in 0..100_000 {
            m.push(s.next_interval_secs(&mut rng));
        }
        assert!((m.mean().unwrap() - 0.010).abs() < 5e-5);
        assert!((m.std_dev().unwrap() - 0.001).abs() < 5e-5);
        assert_eq!(s.kind().name(), "VIT(trunc-normal)");
    }

    #[test]
    fn vit_intervals_are_always_positive() {
        // Large σ_T relative to τ — truncation must keep intervals > 0.
        let s = PaddingSchedule::vit_truncated_normal(0.010, 0.005).unwrap();
        let mut rng = MasterSeed::new(3).stream(0);
        for _ in 0..50_000 {
            assert!(s.next_interval_secs(&mut rng) > 0.0);
        }
    }

    #[test]
    fn vit_uniform_and_exponential_report_sigma() {
        let u = PaddingSchedule::vit_uniform(0.010, 0.002).unwrap();
        assert!((u.sigma_t() - 0.002).abs() < 1e-9);
        assert_eq!(u.kind(), ScheduleKind::VitUniform);
        let e = PaddingSchedule::vit_exponential(0.010).unwrap();
        assert!((e.sigma_t() - 0.010).abs() < 1e-12);
        assert_eq!(e.kind(), ScheduleKind::VitExponential);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(PaddingSchedule::cit(0.0).is_err());
        assert!(PaddingSchedule::cit(-1.0).is_err());
        assert!(PaddingSchedule::cit(f64::NAN).is_err());
        assert!(PaddingSchedule::vit_truncated_normal(0.010, 0.0).is_err());
        assert!(PaddingSchedule::vit_uniform(0.010, 0.010).is_err()); // would cross zero
    }

    #[test]
    fn custom_law_is_accepted_and_floored() {
        let law = Box::new(linkpad_stats::dist::Deterministic::new(0.003).unwrap());
        let s = PaddingSchedule::custom(law).unwrap();
        assert_eq!(s.kind(), ScheduleKind::Custom);
        let bad = Box::new(linkpad_stats::dist::Deterministic::new(-0.5).unwrap());
        assert!(PaddingSchedule::custom(bad).is_err());
    }

    #[test]
    fn constant_rate_is_an_exact_comb() {
        let s = PaddingSchedule::constant_rate(125.0).unwrap();
        let mut rng = MasterSeed::new(9).stream(0);
        for _ in 0..100 {
            assert_eq!(s.next_interval_secs(&mut rng), 0.008);
        }
        assert_eq!(s.kind(), ScheduleKind::ConstantRate);
        assert_eq!(s.sigma_t(), 0.0);
        assert!(PaddingSchedule::constant_rate(0.0).is_err());
        assert!(PaddingSchedule::constant_rate(f64::INFINITY).is_err());
    }
}

/// Property tests for the [`AdaptivePadding`] state machine. The
/// canonical laws have disjoint supports (intra `[0.2τ, 0.8τ)`, inter
/// `[2τ, 6τ)`), so every sampled gap is classifiable by value alone and
/// the burst structure can be read straight off the interval sequence.
#[cfg(test)]
mod adaptive_padding_props {
    use super::*;
    use linkpad_stats::rng::MasterSeed;

    const TAU: f64 = 0.010;

    /// RNG wrapper that counts every draw the machine makes.
    struct CountingRng<R: RngCore> {
        inner: R,
        draws: u64,
    }

    impl<R: RngCore> RngCore for CountingRng<R> {
        fn next_u32(&mut self) -> u32 {
            self.draws += 1;
            self.inner.next_u32()
        }
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            self.inner.next_u64()
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            self.draws += 1;
            self.inner.fill_bytes(dest)
        }
    }

    fn is_intra(gap: f64) -> bool {
        (0.2 * TAU..0.8 * TAU).contains(&gap)
    }

    fn is_inter(gap: f64) -> bool {
        (2.0 * TAU..6.0 * TAU).contains(&gap)
    }

    #[test]
    fn every_gap_respects_its_laws_bounds() {
        for seed in 0..32 {
            let mut m = AdaptivePadding::new(TAU).unwrap();
            let mut rng = MasterSeed::new(seed).stream(0);
            for _ in 0..2_000 {
                let was_idle = !m.in_burst();
                let gap = m.next_interval_secs(&mut rng);
                if was_idle {
                    assert!(is_inter(gap), "idle gap {gap} outside [2τ, 6τ)");
                } else {
                    assert!(is_intra(gap), "burst gap {gap} outside [0.2τ, 0.8τ)");
                }
            }
        }
    }

    #[test]
    fn gap_never_fires_before_burst_exhausts() {
        // Once a burst opens, intra draws run until the drawn length is
        // exhausted: no two consecutive inter-burst gaps, and every
        // burst run has length in 1..=max_burst.
        for seed in 0..32 {
            let mut m = AdaptivePadding::new(TAU).unwrap();
            let mut rng = MasterSeed::new(1000 + seed).stream(0);
            let gaps: Vec<f64> = (0..4_000).map(|_| m.next_interval_secs(&mut rng)).collect();
            let mut run = 0u32;
            let mut prev_was_inter = false;
            for &g in &gaps {
                if is_inter(g) {
                    assert!(
                        !prev_was_inter,
                        "two consecutive idle gaps: a Gap fired before the burst exhausted"
                    );
                    if run > 0 {
                        assert!((1..=15).contains(&run), "burst length {run} out of range");
                    }
                    run = 0;
                    prev_was_inter = true;
                } else {
                    assert!(is_intra(g), "gap {g} in neither law's support");
                    run += 1;
                    assert!(run <= 15, "burst overran max_burst");
                    prev_was_inter = false;
                }
            }
        }
    }

    #[test]
    fn burst_lengths_cover_the_configured_range() {
        // Over a long run, the uniform burst-length draw must actually
        // reach both ends of 1..=max_burst.
        let mut m = AdaptivePadding::new(TAU).unwrap();
        let mut rng = MasterSeed::new(7).stream(0);
        let mut lens = std::collections::BTreeSet::new();
        let mut run = 0u32;
        for _ in 0..60_000 {
            let g = m.next_interval_secs(&mut rng);
            if is_inter(g) {
                if run > 0 {
                    lens.insert(run);
                }
                run = 0;
            } else {
                run += 1;
            }
        }
        assert!(lens.contains(&1), "shortest burst never drawn");
        assert!(lens.contains(&15), "longest burst never drawn");
    }

    #[test]
    fn disabled_machine_makes_zero_rng_draws() {
        let mut m = AdaptivePadding::disabled(TAU).unwrap();
        let mut rng = CountingRng {
            inner: MasterSeed::new(4).stream(0),
            draws: 0,
        };
        for _ in 0..10_000 {
            assert_eq!(m.next_interval_secs(&mut rng), TAU);
        }
        assert_eq!(rng.draws, 0, "disabled machine touched the RNG");
        assert_eq!(m.sigma_t(), 0.0);
        assert_eq!(m.mean_interval_secs(), TAU);
    }

    #[test]
    fn reactive_trigger_opens_a_burst_without_an_idle_gap() {
        let mut m = AdaptivePadding::reactive(TAU).unwrap();
        let mut rng = MasterSeed::new(5).stream(0);
        assert!(!m.in_burst());
        m.notify_client_arrival();
        let gap = m.next_interval_secs(&mut rng);
        assert!(is_intra(gap), "triggered draw {gap} was not a burst gap");
        assert!(m.is_reactive());
        // Non-reactive machines ignore the signal entirely.
        let mut plain = AdaptivePadding::new(TAU).unwrap();
        plain.notify_client_arrival();
        let gap = plain.next_interval_secs(&mut rng);
        assert!(is_inter(gap), "non-reactive machine consumed a trigger");
    }

    #[test]
    fn reset_replays_the_same_interval_sequence() {
        let mut m = AdaptivePadding::new(TAU).unwrap();
        let a: Vec<f64> = {
            let mut rng = MasterSeed::new(6).stream(0);
            (0..500).map(|_| m.next_interval_secs(&mut rng)).collect()
        };
        m.reset();
        let b: Vec<f64> = {
            let mut rng = MasterSeed::new(6).stream(0);
            (0..500).map(|_| m.next_interval_secs(&mut rng)).collect()
        };
        assert_eq!(a, b, "reset did not restore the initial machine state");
    }

    #[test]
    fn stationary_mean_matches_the_analytic_value() {
        let mut m = AdaptivePadding::new(TAU).unwrap();
        let mut rng = MasterSeed::new(8).stream(0);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| m.next_interval_secs(&mut rng)).sum();
        let empirical = sum / f64::from(n);
        let analytic = m.mean_interval_secs();
        assert!(
            (empirical - analytic).abs() / analytic < 0.02,
            "empirical mean {empirical} vs analytic {analytic}"
        );
    }
}

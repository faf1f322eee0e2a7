//! Cloneable experiment specifications.
//!
//! Sweeps describe hundreds of runs; distributions and schedules hold
//! boxed trait objects and are not `Clone`, so configuration travels as
//! plain-data *specs* that are materialized into live objects per run.

use linkpad_core::schedule::{
    AdaptiveCohortSchedule, AdaptivePadding, LinkSchedule, PaddingSchedule,
};
use linkpad_sim::cohort::{LawSchedule, MemberSchedule};
use linkpad_stats::dist::{Categorical, ContinuousDist, Deterministic, Exponential, Uniform};
use linkpad_stats::StatsError;

/// Payload traffic law for the protected flow (rate in packets/second).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PayloadSpec {
    /// Constant bit rate: one packet every `1/rate` seconds.
    Cbr {
        /// Packets per second.
        rate: f64,
    },
    /// Poisson arrivals at `rate` packets per second.
    Poisson {
        /// Packets per second.
        rate: f64,
    },
}

impl PayloadSpec {
    /// The mean rate in packets/second.
    pub fn rate(&self) -> f64 {
        match *self {
            PayloadSpec::Cbr { rate } | PayloadSpec::Poisson { rate } => rate,
        }
    }

    /// Materialize the inter-arrival law.
    pub fn interval_law(&self) -> Result<Box<dyn ContinuousDist>, StatsError> {
        match *self {
            PayloadSpec::Cbr { rate } => {
                if !rate.is_finite() || rate <= 0.0 {
                    return Err(StatsError::NonPositive {
                        what: "payload rate",
                        value: rate,
                    });
                }
                Ok(Box::new(Deterministic::new(1.0 / rate)?))
            }
            PayloadSpec::Poisson { rate } => Ok(Box::new(Exponential::with_rate(rate)?)),
        }
    }
}

/// Padding schedule specification (mirrors `linkpad_core::schedule`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScheduleSpec {
    /// Constant interval timer at period τ.
    Cit,
    /// VIT with truncated-normal interval law and the given σ_T (s).
    VitTruncatedNormal {
        /// Standard deviation of the designed timer interval, seconds.
        sigma_t: f64,
    },
    /// VIT with a uniform interval law of the given σ_T (s) — ablation.
    VitUniform {
        /// Standard deviation of the designed timer interval, seconds.
        sigma_t: f64,
    },
    /// VIT with exponential intervals (σ_T = τ) — ablation.
    VitExponential,
    /// Constant-rate link padding: a periodic timer at `rate` packets
    /// per second (σ_T = 0; the period is `1/rate`, not τ).
    ConstantRate {
        /// Padded-packet rate, packets per second.
        rate: f64,
    },
    /// Adaptive padding: the Idle/Burst/Gap state machine at base
    /// period τ (canonical gap laws scaled from τ).
    AdaptivePadding {
        /// React to client traffic by opening a burst immediately.
        /// Reactive machines couple the padding clock to per-member
        /// client traffic, so they have **no stochastic-cohort
        /// support** — cohort builds reject them with
        /// `ScenarioError::CohortUnsupported`.
        reactive: bool,
    },
}

impl ScheduleSpec {
    /// Materialize against a mean period `tau` (seconds) into the
    /// gateway-facing [`LinkSchedule`] (a stateless law for the timer
    /// families, the stateful machine for adaptive padding).
    pub fn to_schedule(&self, tau: f64) -> Result<LinkSchedule, StatsError> {
        match *self {
            ScheduleSpec::Cit => PaddingSchedule::cit(tau).map(Into::into),
            ScheduleSpec::VitTruncatedNormal { sigma_t } => {
                PaddingSchedule::vit_truncated_normal(tau, sigma_t).map(Into::into)
            }
            ScheduleSpec::VitUniform { sigma_t } => {
                PaddingSchedule::vit_uniform(tau, sigma_t).map(Into::into)
            }
            ScheduleSpec::VitExponential => PaddingSchedule::vit_exponential(tau).map(Into::into),
            ScheduleSpec::ConstantRate { rate } => {
                PaddingSchedule::constant_rate(rate).map(Into::into)
            }
            ScheduleSpec::AdaptivePadding { reactive } => if reactive {
                AdaptivePadding::reactive(tau)
            } else {
                AdaptivePadding::new(tau)
            }
            .map(Into::into),
        }
    }

    /// The designed σ_T this spec yields at period `tau`.
    pub fn sigma_t(&self, tau: f64) -> f64 {
        match *self {
            ScheduleSpec::Cit | ScheduleSpec::ConstantRate { .. } => 0.0,
            ScheduleSpec::VitTruncatedNormal { sigma_t } | ScheduleSpec::VitUniform { sigma_t } => {
                sigma_t
            }
            ScheduleSpec::VitExponential => tau,
            ScheduleSpec::AdaptivePadding { .. } => AdaptivePadding::new(tau)
                .map(|m| m.sigma_t())
                .unwrap_or(0.0),
        }
    }

    /// Mean emission interval this spec yields at base period `tau`:
    /// τ for the timer families, `1/rate` for constant-rate, the
    /// stationary machine mean for adaptive padding. The quantity the
    /// flow-count estimator's `window_over_interval` must use.
    pub fn mean_interval(&self, tau: f64) -> f64 {
        match *self {
            ScheduleSpec::Cit
            | ScheduleSpec::VitTruncatedNormal { .. }
            | ScheduleSpec::VitUniform { .. }
            | ScheduleSpec::VitExponential => tau,
            ScheduleSpec::ConstantRate { rate } => 1.0 / rate,
            ScheduleSpec::AdaptivePadding { .. } => AdaptivePadding::new(tau)
                .map(|m| m.mean_interval_secs())
                .unwrap_or(tau),
        }
    }

    /// Materialize against base period `tau` (seconds) into the clock
    /// source of a `members`-flow [`FlowCohort`](linkpad_sim::cohort::FlowCohort):
    /// the shared interval law for the timer families (CIT and
    /// constant-rate are `Deterministic` laws), one machine per member
    /// for adaptive padding. Check [`ScheduleSpec::cohort_support`]
    /// first: a reactive machine materializes as a non-reactive one.
    pub fn member_schedule(
        &self,
        tau: f64,
        members: u32,
    ) -> Result<Box<dyn MemberSchedule>, StatsError> {
        Ok(match self.to_schedule(tau)? {
            LinkSchedule::Law(law) => Box::new(LawSchedule::new(law.into_law())),
            LinkSchedule::Adaptive(_) => Box::new(AdaptiveCohortSchedule::new(members, tau)?),
        })
    }

    /// Whether cohort aggregation supports this defence. Every law
    /// family runs in a cohort, as does non-reactive adaptive padding;
    /// *reactive* adaptive padding couples the padding clock to
    /// per-member client traffic, which the cohort's shared Bernoulli
    /// absorption model cannot represent.
    pub fn cohort_support(&self) -> Result<(), &'static str> {
        match self {
            ScheduleSpec::AdaptivePadding { reactive: true } => Err(
                "reactive adaptive padding responds to per-member client traffic, \
                 which cohort aggregation does not model",
            ),
            _ => Ok(()),
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            ScheduleSpec::Cit => "CIT",
            ScheduleSpec::VitTruncatedNormal { .. } => "VIT-tn",
            ScheduleSpec::VitUniform { .. } => "VIT-u",
            ScheduleSpec::VitExponential => "VIT-exp",
            ScheduleSpec::ConstantRate { .. } => "constant-rate",
            ScheduleSpec::AdaptivePadding { reactive: false } => "adaptive",
            ScheduleSpec::AdaptivePadding { reactive: true } => "adaptive-reactive",
        }
    }
}

/// On-the-wire packet-size model: how the defence pads or varies the
/// size of every emitted packet (payload and dummy alike — remark 3's
/// "all packets look identical" constraint applies per defence).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PayloadModel {
    /// Every packet is exactly the scenario's base packet size
    /// (the historical behaviour; no size law installed, zero draws).
    Fixed,
    /// Every packet padded up to a fixed MTU — deterministic, so
    /// bit-exactness is preserved while the byte rate shifts.
    MtuPadded {
        /// Wire size of every packet, bytes.
        mtu: u32,
    },
    /// Sizes uniform over `lo..=hi` whole bytes (stochastic).
    Uniform {
        /// Smallest wire size, bytes (≥ 1).
        lo: u32,
        /// Largest wire size, bytes (≥ `lo`).
        hi: u32,
    },
    /// The canonical empirical packet-size mix
    /// `{64 B: 0.5, 550 B: 0.3, 1500 B: 0.2}` (stochastic).
    Sampled,
}

impl PayloadModel {
    /// Materialize the wire-size law against the scenario's base packet
    /// size. `None` means "no law": every packet is exactly `base`
    /// bytes and the emit path makes zero size draws.
    pub fn size_law(&self, base: u32) -> Result<Option<Box<dyn ContinuousDist>>, StatsError> {
        match *self {
            PayloadModel::Fixed => {
                let _ = base;
                Ok(None)
            }
            PayloadModel::MtuPadded { mtu } => {
                if mtu == 0 {
                    return Err(StatsError::NonPositive {
                        what: "payload model MTU",
                        value: 0.0,
                    });
                }
                Ok(Some(Box::new(Deterministic::new(f64::from(mtu))?)))
            }
            PayloadModel::Uniform { lo, hi } => {
                if lo == 0 || hi < lo {
                    return Err(StatsError::NonPositive {
                        what: "payload model uniform size range",
                        value: f64::from(hi) - f64::from(lo),
                    });
                }
                // Half-open [lo, hi+1) floored at the emit site yields
                // whole bytes uniform over lo..=hi.
                Ok(Some(Box::new(Uniform::new(
                    f64::from(lo),
                    f64::from(hi) + 1.0,
                )?)))
            }
            PayloadModel::Sampled => Ok(Some(Box::new(Categorical::new(&[
                (64.0, 0.5),
                (550.0, 0.3),
                (1500.0, 0.2),
            ])?))),
        }
    }

    /// Mean wire size in bytes under this model (with base size `base`).
    pub fn mean_bytes(&self, base: u32) -> f64 {
        match *self {
            PayloadModel::Fixed => f64::from(base),
            PayloadModel::MtuPadded { mtu } => f64::from(mtu),
            PayloadModel::Uniform { lo, hi } => (f64::from(lo) + f64::from(hi)) / 2.0,
            PayloadModel::Sampled => 64.0 * 0.5 + 550.0 * 0.3 + 1500.0 * 0.2,
        }
    }

    /// Whether sizes are drawn from the RNG (breaks bit-exact cohort
    /// equivalence; distributional contracts still hold).
    pub fn is_stochastic(&self) -> bool {
        matches!(self, PayloadModel::Uniform { .. } | PayloadModel::Sampled)
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            PayloadModel::Fixed => "fixed",
            PayloadModel::MtuPadded { .. } => "mtu-padded",
            PayloadModel::Uniform { .. } => "uniform",
            PayloadModel::Sampled => "sampled",
        }
    }
}

/// Cross-traffic configuration for one hop of the unprotected path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopSpec {
    /// Target utilization of the hop's shared egress link contributed by
    /// cross traffic (0 disables cross traffic).
    pub utilization: f64,
    /// Bursty (Pareto inter-arrival) rather than Poisson cross traffic
    /// (packet-level hops only).
    pub bursty: bool,
    /// Model the hop as fluid background load (M/M/1 stationary wait
    /// injection) instead of simulating individual cross packets. Exact
    /// for padding probes far slower than the queue's relaxation time;
    /// used for the long campus/WAN chains.
    pub background: bool,
}

impl HopSpec {
    /// A quiet hop (no cross traffic).
    pub fn quiet() -> Self {
        Self {
            utilization: 0.0,
            bursty: false,
            background: false,
        }
    }

    /// A packet-level Poisson-loaded hop at the given utilization.
    pub fn poisson(utilization: f64) -> Self {
        Self {
            utilization,
            bursty: false,
            background: false,
        }
    }

    /// A packet-level bursty hop at the given utilization.
    pub fn bursty(utilization: f64) -> Self {
        Self {
            utilization,
            bursty: true,
            background: false,
        }
    }

    /// A fluid background-load hop at the given utilization.
    pub fn background(utilization: f64) -> Self {
        Self {
            utilization,
            bursty: false,
            background: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkpad_stats::rng::MasterSeed;

    #[test]
    fn cbr_interval_is_constant() {
        let law = PayloadSpec::Cbr { rate: 10.0 }.interval_law().unwrap();
        let mut rng = MasterSeed::new(1).stream(0);
        for _ in 0..5 {
            assert_eq!(law.sample(&mut rng), 0.1);
        }
        assert_eq!(PayloadSpec::Cbr { rate: 10.0 }.rate(), 10.0);
    }

    #[test]
    fn poisson_interval_has_right_mean() {
        let law = PayloadSpec::Poisson { rate: 40.0 }.interval_law().unwrap();
        assert!((law.mean() - 0.025).abs() < 1e-12);
    }

    #[test]
    fn bad_rates_error() {
        assert!(PayloadSpec::Cbr { rate: 0.0 }.interval_law().is_err());
        assert!(PayloadSpec::Cbr { rate: -3.0 }.interval_law().is_err());
        assert!(PayloadSpec::Poisson { rate: 0.0 }.interval_law().is_err());
    }

    #[test]
    fn schedule_specs_materialize() {
        let tau = 0.010;
        assert_eq!(ScheduleSpec::Cit.to_schedule(tau).unwrap().sigma_t(), 0.0);
        let v = ScheduleSpec::VitTruncatedNormal { sigma_t: 1e-3 }
            .to_schedule(tau)
            .unwrap();
        assert!((v.sigma_t() - 1e-3).abs() < 1e-9);
        assert!(ScheduleSpec::VitUniform { sigma_t: 2e-3 }
            .to_schedule(tau)
            .is_ok());
        assert!(ScheduleSpec::VitExponential.to_schedule(tau).is_ok());
    }

    #[test]
    fn sigma_t_reporting_matches_spec() {
        assert_eq!(ScheduleSpec::Cit.sigma_t(0.01), 0.0);
        assert_eq!(
            ScheduleSpec::VitTruncatedNormal { sigma_t: 5e-4 }.sigma_t(0.01),
            5e-4
        );
        assert_eq!(ScheduleSpec::VitExponential.sigma_t(0.01), 0.01);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(ScheduleSpec::Cit.name(), "CIT");
        assert_eq!(
            ScheduleSpec::VitTruncatedNormal { sigma_t: 1e-3 }.name(),
            "VIT-tn"
        );
        assert_eq!(
            ScheduleSpec::ConstantRate { rate: 125.0 }.name(),
            "constant-rate"
        );
        assert_eq!(
            ScheduleSpec::AdaptivePadding { reactive: false }.name(),
            "adaptive"
        );
        assert_eq!(
            ScheduleSpec::AdaptivePadding { reactive: true }.name(),
            "adaptive-reactive"
        );
    }

    #[test]
    fn constant_rate_spec_materializes_a_comb() {
        let s = ScheduleSpec::ConstantRate { rate: 125.0 };
        let sched = s.to_schedule(0.010).unwrap();
        assert_eq!(sched.sigma_t(), 0.0);
        assert!((sched.mean_interval_secs() - 0.008).abs() < 1e-12);
        assert!((s.mean_interval(0.010) - 0.008).abs() < 1e-12);
        assert!(s.cohort_support().is_ok());
        assert!(ScheduleSpec::ConstantRate { rate: 0.0 }
            .to_schedule(0.010)
            .is_err());
    }

    #[test]
    fn adaptive_spec_materializes_the_machine() {
        let s = ScheduleSpec::AdaptivePadding { reactive: false };
        let sched = s.to_schedule(0.010).unwrap();
        assert!(sched.sigma_t() > 0.0);
        let mean = sched.mean_interval_secs();
        assert!((s.mean_interval(0.010) - mean).abs() < 1e-12);
        assert!(s.cohort_support().is_ok());
        // Reactive machines have no stochastic-cohort support.
        assert!(ScheduleSpec::AdaptivePadding { reactive: true }
            .cohort_support()
            .is_err());
    }

    #[test]
    fn payload_models_materialize_and_report_means() {
        assert!(PayloadModel::Fixed.size_law(500).unwrap().is_none());
        assert_eq!(PayloadModel::Fixed.mean_bytes(500), 500.0);
        assert!(!PayloadModel::Fixed.is_stochastic());

        let mtu = PayloadModel::MtuPadded { mtu: 1500 };
        let law = mtu.size_law(500).unwrap().unwrap();
        let mut rng = MasterSeed::new(3).stream(0);
        assert_eq!(law.sample(&mut rng), 1500.0);
        assert_eq!(mtu.mean_bytes(500), 1500.0);
        assert!(!mtu.is_stochastic());

        let uni = PayloadModel::Uniform { lo: 300, hi: 900 };
        let law = uni.size_law(500).unwrap().unwrap();
        for _ in 0..200 {
            let v = law.sample(&mut rng).floor();
            assert!((300.0..=900.0).contains(&v));
        }
        assert_eq!(uni.mean_bytes(500), 600.0);
        assert!(uni.is_stochastic());

        let mix = PayloadModel::Sampled;
        let law = mix.size_law(500).unwrap().unwrap();
        for _ in 0..200 {
            let v = law.sample(&mut rng);
            assert!(v == 64.0 || v == 550.0 || v == 1500.0);
        }
        assert!((mix.mean_bytes(500) - 497.0).abs() < 1e-9);
        assert_eq!(mix.name(), "sampled");
    }

    #[test]
    fn invalid_payload_models_error() {
        assert!(PayloadModel::MtuPadded { mtu: 0 }.size_law(500).is_err());
        assert!(PayloadModel::Uniform { lo: 0, hi: 10 }
            .size_law(500)
            .is_err());
        assert!(PayloadModel::Uniform { lo: 900, hi: 300 }
            .size_law(500)
            .is_err());
    }

    #[test]
    fn hop_constructors() {
        assert_eq!(HopSpec::quiet().utilization, 0.0);
        assert!(!HopSpec::poisson(0.3).bursty);
        assert!(HopSpec::bursty(0.3).bursty);
    }
}

//! The gateway disturbance model δ_gw — *why CIT padding leaks*.
//!
//! Paper §4.1.2: δ_gw "is caused by a number of factors, which may impact
//! the accuracy of the timer's interrupt: (1) the context switching from
//! other running processes … may take a random time. (2) a timer
//! interrupt may be temporarily blocked due to other activities. For
//! example, if a payload packet … is arriving at the network interface
//! card of the gateway, the network interface card would generate an
//! interrupt request, which can block all the processes including the
//! (scheduled) timer interrupt. Thus, the timer's interrupts may be subtly
//! but randomly delayed by incoming payload packets."
//!
//! We model exactly that structure:
//!
//! * a **baseline** zero-mean normal jitter (context switching, scheduler
//!   noise) with σ_base, present on every tick;
//! * an **interrupt-blocking** delay: each payload arrival during the
//!   current timer period adds an independent `Exp(µ_blk)` delay to the
//!   tick.
//!
//! Because a higher payload rate means more arrivals per period, the
//! variance of the total tick delay *grows with the payload rate* — this
//! is what makes `σ_gw,h > σ_gw,l` (eq. 13/15) and `r > 1` (eq. 16), and
//! it emerges organically from the mechanism rather than being painted on.
//!
//! [`GatewayJitterModel::variance_for_arrival_prob`] gives the closed-form
//! per-tick delay variance, which the analytical crate uses to predict `r`
//! for a configuration before simulating it.

use linkpad_stats::dist::{ContinuousDist, Exponential};
use linkpad_stats::normal::Normal;
use linkpad_stats::StatsError;
use rand_core::RngCore;

/// Parameters of the gateway timer-disturbance model. They are private,
/// so every model holds values [`GatewayJitterModel::new`] accepts, and
/// a tick scales unit-law draws by them with nothing left to validate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatewayJitterModel {
    base_sigma: f64,
    blocking_mean: f64,
}

impl GatewayJitterModel {
    /// Create a model; both parameters must be non-negative and finite,
    /// and at least one must be positive (a perfectly jitter-free gateway
    /// is not a physical configuration and would break KDE training).
    pub fn new(base_sigma: f64, blocking_mean: f64) -> Result<Self, StatsError> {
        for (what, v) in [("base_sigma", base_sigma), ("blocking_mean", blocking_mean)] {
            if !v.is_finite() {
                return Err(StatsError::NonFinite { what, value: v });
            }
            if v < 0.0 {
                return Err(StatsError::NonPositive { what, value: v });
            }
        }
        if base_sigma == 0.0 && blocking_mean == 0.0 {
            return Err(StatsError::NonPositive {
                what: "total gateway jitter",
                value: 0.0,
            });
        }
        Ok(Self {
            base_sigma,
            blocking_mean,
        })
    }

    /// The calibrated defaults (see `crate::calibration`)
    /// (σ_base = 6 µs, µ_blk = 6 µs) — these land the simulated PIAT
    /// distributions in the regimes of the paper's Fig. 4(a).
    pub fn calibrated() -> Self {
        Self {
            base_sigma: 6e-6,
            blocking_mean: 6e-6,
        }
    }

    /// Baseline OS jitter standard deviation, seconds (σ_base).
    pub fn base_sigma(&self) -> f64 {
        self.base_sigma
    }

    /// Mean of the per-payload-arrival interrupt-blocking delay, seconds
    /// (µ_blk).
    pub fn blocking_mean(&self) -> f64 {
        self.blocking_mean
    }

    /// Sample the tick delay given how many payload packets arrived at
    /// the NIC during the current timer period.
    ///
    /// Returned value may be negative (baseline jitter is zero-mean);
    /// the gateway adds it to a constant interrupt-pipeline offset that
    /// keeps physical send times causal.
    pub fn sample_tick_delay(&self, payload_arrivals: u32, rng: &mut dyn RngCore) -> f64 {
        // Scaled standard draws: σ·N(0, 1) and µ·Exp(1) are, bit for
        // bit, what `Normal::new(0.0, σ)` and `Exponential::new(µ)` draw.
        let mut delay = if self.base_sigma > 0.0 {
            self.base_sigma * Normal::standard().sample(rng)
        } else {
            0.0
        };
        if self.blocking_mean > 0.0 {
            for _ in 0..payload_arrivals {
                delay += self.blocking_mean * Exponential::standard().sample(rng);
            }
        }
        delay
    }

    /// Closed-form variance of the per-tick delay when the number of
    /// payload arrivals per period is Bernoulli/Binomial-like with mean
    /// `p` arrivals per period (`p = payload_rate × τ`, the regime of all
    /// the paper's experiments where payload is slower than the padding
    /// clock).
    ///
    /// `Var(δ) = σ_base² + p·(2µ_blk²) − (p·µ_blk)²` for `p ≤ 1`
    /// (Bernoulli thinning), extended continuously with compound-Poisson
    /// `Var = σ_base² + p·2µ_blk²` for `p > 1`.
    pub fn variance_for_arrival_prob(&self, p: f64) -> f64 {
        let p = p.max(0.0);
        let m = self.blocking_mean;
        let base = self.base_sigma * self.base_sigma;
        if p <= 1.0 {
            base + p * 2.0 * m * m - (p * m) * (p * m)
        } else {
            base + p * 2.0 * m * m
        }
    }

    /// Convenience: variance at a payload rate (packets/s) for a timer
    /// period `tau` seconds: `p = rate·τ`.
    pub fn variance_at_rate(&self, payload_rate: f64, tau: f64) -> f64 {
        self.variance_for_arrival_prob(payload_rate * tau)
    }

    /// The constant "interrupt pipeline" offset added to every tick so
    /// that sampled delays (which may be negative) remain causal:
    /// 6 σ_base covers the baseline normal's left tail.
    pub fn pipeline_offset(&self) -> f64 {
        6.0 * self.base_sigma
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkpad_stats::moments::RunningMoments;
    use linkpad_stats::rng::MasterSeed;

    #[test]
    fn construction_validates() {
        assert!(GatewayJitterModel::new(-1e-6, 1e-6).is_err());
        assert!(GatewayJitterModel::new(1e-6, -1e-6).is_err());
        assert!(GatewayJitterModel::new(f64::NAN, 1e-6).is_err());
        assert!(GatewayJitterModel::new(0.0, 0.0).is_err());
        assert!(GatewayJitterModel::new(0.0, 1e-6).is_ok());
        assert!(GatewayJitterModel::new(1e-6, 0.0).is_ok());
    }

    #[test]
    fn tick_draws_equal_the_parameterised_samplers_bit_for_bit() {
        let m = GatewayJitterModel::calibrated();
        assert_eq!((m.base_sigma(), m.blocking_mean()), (6e-6, 6e-6));
        let base = Normal::new(0.0, 6e-6).unwrap();
        let blocking = Exponential::new(6e-6).unwrap();
        let mut rng = MasterSeed::new(5).stream(0);
        let mut reference = rng.clone();
        for arrivals in (0..4).cycle().take(20_000) {
            let mut want = base.sample(&mut reference);
            for _ in 0..arrivals {
                want += blocking.sample(&mut reference);
            }
            let got = m.sample_tick_delay(arrivals, &mut rng);
            assert_eq!(got.to_bits(), want.to_bits(), "{arrivals} arrivals");
        }
    }

    #[test]
    fn higher_payload_rate_means_higher_delay_variance() {
        // The core leak mechanism: empirical variance grows with arrivals.
        let m = GatewayJitterModel::calibrated();
        let mut rng = MasterSeed::new(1).stream(0);
        let mut var_for = |arrivals: u32| {
            let mut acc = RunningMoments::new();
            for _ in 0..200_000 {
                acc.push(m.sample_tick_delay(arrivals, &mut rng));
            }
            acc.variance().unwrap()
        };
        let v0 = var_for(0);
        let v1 = var_for(1);
        let v2 = var_for(2);
        assert!(v1 > v0 * 1.5, "v0={v0:e}, v1={v1:e}");
        assert!(v2 > v1, "v1={v1:e}, v2={v2:e}");
    }

    #[test]
    fn empirical_variance_matches_closed_form() {
        let m = GatewayJitterModel::calibrated();
        let mut rng = MasterSeed::new(2).stream(0);
        // Bernoulli arrivals with p = 0.4 (the paper's high rate on a
        // 10 ms timer): mix 40% one-arrival ticks, 60% zero-arrival ticks.
        let mut acc = RunningMoments::new();
        for i in 0..500_000u32 {
            let arrivals = u32::from(i % 5 < 2); // 2 of 5 ticks
            acc.push(m.sample_tick_delay(arrivals, &mut rng));
        }
        let want = m.variance_for_arrival_prob(0.4);
        let got = acc.variance().unwrap();
        assert!(
            ((got - want) / want).abs() < 0.03,
            "got {got:e}, want {want:e}"
        );
    }

    #[test]
    fn calibrated_defaults_produce_papers_r_regime() {
        // r = Var(δ_h)/Var(δ_l) with p_l = 0.1, p_h = 0.4 (10/40 pps on
        // 10 ms): should land in the paper's observed 1.3–1.5 band.
        let m = GatewayJitterModel::calibrated();
        let r = m.variance_at_rate(40.0, 0.010) / m.variance_at_rate(10.0, 0.010);
        assert!(r > 1.25 && r < 1.6, "r = {r}");
    }

    #[test]
    fn variance_formula_is_monotone_in_p() {
        let m = GatewayJitterModel::calibrated();
        let mut prev = 0.0;
        for i in 0..=20 {
            let p = i as f64 * 0.1;
            let v = m.variance_for_arrival_prob(p);
            assert!(v >= prev, "variance must not decrease at p={p}");
            prev = v;
        }
    }

    #[test]
    fn zero_arrivals_is_pure_baseline() {
        let m = GatewayJitterModel::new(5e-6, 7e-6).unwrap();
        assert!((m.variance_for_arrival_prob(0.0) - 25e-12).abs() < 1e-18);
        let mut rng = MasterSeed::new(3).stream(0);
        let mut acc = RunningMoments::new();
        for _ in 0..100_000 {
            acc.push(m.sample_tick_delay(0, &mut rng));
        }
        assert!(acc.mean().unwrap().abs() < 1e-7); // zero-mean
    }

    #[test]
    fn pipeline_offset_clears_negative_tail() {
        let m = GatewayJitterModel::calibrated();
        let mut rng = MasterSeed::new(4).stream(0);
        let off = m.pipeline_offset();
        let mut worst = f64::INFINITY;
        for _ in 0..1_000_000 {
            worst = worst.min(m.sample_tick_delay(0, &mut rng) + off);
        }
        assert!(worst >= 0.0, "offset insufficient: {worst:e}");
    }
}

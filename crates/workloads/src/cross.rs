//! Cross-traffic models: packet-size mixes, utilization targeting, and
//! diurnal (hour-of-day) utilization profiles.
//!
//! The paper's Fig. 6 sweeps the *shared-link utilization* produced by a
//! cross-traffic workstation; Fig. 8 observes detection rate across a
//! full day on a campus network (2003-03-24) and on the Ohio→Texas
//! Internet path (2003-03-26), where the only thing that changes hour to
//! hour is how much crossover traffic the route carries. These helpers
//! construct cross sources that hit a target utilization and modulate it
//! by hour of day.

use linkpad_stats::dist::{Categorical, ContinuousDist, Exponential, Pareto};
use linkpad_stats::StatsError;

/// The packet-size mixture of cross traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeMix {
    /// Internet-like trimodal mix: 40% 64 B (ACKs), 35% 550 B, 25% 1500 B.
    InternetTrimodal,
}

impl SizeMix {
    /// Materialize the size distribution (bytes).
    pub fn law(&self) -> Result<Categorical, StatsError> {
        Categorical::new(&[(64.0, 0.40), (550.0, 0.35), (1500.0, 0.25)])
    }

    /// Mean packet size in bytes.
    pub fn mean_bytes(&self) -> f64 {
        64.0 * 0.40 + 550.0 * 0.35 + 1500.0 * 0.25
    }
}

/// Cross-traffic packet rate (packets/s) that loads a link of
/// `link_bps` to `utilization` with packets of `mean_size_bytes`.
pub fn cross_rate_for_utilization(
    utilization: f64,
    link_bps: f64,
    mean_size_bytes: f64,
) -> Result<f64, StatsError> {
    if !(0.0..1.0).contains(&utilization) {
        return Err(StatsError::InvalidProbability {
            what: "target utilization",
            value: utilization,
        });
    }
    if link_bps.is_nan() || link_bps <= 0.0 || mean_size_bytes.is_nan() || mean_size_bytes <= 0.0 {
        return Err(StatsError::NonPositive {
            what: "link_bps / mean_size_bytes",
            value: link_bps.min(mean_size_bytes),
        });
    }
    Ok(utilization * link_bps / (8.0 * mean_size_bytes))
}

/// Inter-arrival law for a cross source at `rate` packets/s.
///
/// `bursty = false` → Poisson (exponential gaps). `bursty = true` →
/// Pareto gaps with tail index 2.1 — just above the infinite-variance
/// threshold, so the law keeps finite moments while being far more
/// clumped than Poisson (CV² = 1/(α(α−2)) ≈ 4.8 vs 1) — scaled to the
/// same mean rate.
pub fn cross_interval_law(rate: f64, bursty: bool) -> Result<Box<dyn ContinuousDist>, StatsError> {
    if bursty {
        let alpha = 2.1;
        // Pareto mean = α·x_m/(α−1) = 1/rate  ⇒  x_m = (α−1)/(α·rate)
        let x_m = (alpha - 1.0) / (alpha * rate);
        Ok(Box::new(Pareto::new(x_m, alpha)?))
    } else {
        Ok(Box::new(Exponential::with_rate(rate)?))
    }
}

/// Hour-of-day utilization profile: `u(h) = base + amp·bump(h)` where
/// `bump` peaks mid-afternoon and bottoms out around `trough_hour`.
///
/// The paper's observation (Fig. 8b): the adversary does best "during
/// periods of relatively low network activity (such as at 2:00 AM)".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalProfile {
    /// Utilization at the nightly trough.
    pub base: f64,
    /// Additional utilization at the afternoon peak.
    pub amplitude: f64,
    /// Hour (0–24) of minimum load.
    pub trough_hour: f64,
}

impl DiurnalProfile {
    /// Create a profile. `base ≥ 0`, `base + amplitude < 1`.
    pub fn new(base: f64, amplitude: f64, trough_hour: f64) -> Result<Self, StatsError> {
        if !(0.0..1.0).contains(&base) || base + amplitude >= 1.0 || amplitude < 0.0 {
            return Err(StatsError::InvalidProbability {
                what: "diurnal profile utilization",
                value: base + amplitude,
            });
        }
        Ok(Self {
            base,
            amplitude,
            trough_hour: trough_hour.rem_euclid(24.0),
        })
    }

    /// The campus preset: light load, ρ ∈ [0.03, 0.18]. A medium-size
    /// enterprise network where "the crossover traffic has limited
    /// influence on the padded traffic's PIAT" (paper §5.3 obs. 1).
    pub fn campus() -> Self {
        Self {
            base: 0.03,
            amplitude: 0.15,
            trough_hour: 3.0,
        }
    }

    /// The WAN preset: heavy load, ρ ∈ [0.25, 0.60]. A 15-router Internet
    /// path where PIAT "is seriously distorted with a relatively large
    /// σ_net" (paper §5.3 obs. 2).
    pub fn wan() -> Self {
        Self {
            base: 0.25,
            amplitude: 0.35,
            trough_hour: 3.0,
        }
    }

    /// Utilization at hour `h` (fractional, wraps mod 24).
    ///
    /// Shape: raised cosine with minimum at `trough_hour` — smooth,
    /// periodic, and monotone from trough to peak in each half-day.
    pub fn utilization_at_hour(&self, h: f64) -> f64 {
        let phase = (h - self.trough_hour).rem_euclid(24.0) / 24.0 * std::f64::consts::TAU;
        self.base + self.amplitude * 0.5 * (1.0 - phase.cos())
    }

    /// Utilizations sampled at each whole hour 0..24.
    pub fn hourly(&self) -> Vec<f64> {
        (0..24)
            .map(|h| self.utilization_at_hour(h as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkpad_stats::rng::MasterSeed;

    #[test]
    fn size_mix_means() {
        assert!((SizeMix::InternetTrimodal.mean_bytes() - 593.1).abs() < 0.2);
        let law = SizeMix::InternetTrimodal.law().unwrap();
        assert!((law.mean() - SizeMix::InternetTrimodal.mean_bytes()).abs() < 1e-9);
    }

    #[test]
    fn utilization_to_rate_round_trips() {
        // ρ=0.4 on 100 Mb/s with 500 B packets → 10_000 pps.
        let rate = cross_rate_for_utilization(0.4, 100e6, 500.0).unwrap();
        assert!((rate - 10_000.0).abs() < 1e-9);
        // Offered load back: rate·8·size/bw = ρ
        assert!((rate * 8.0 * 500.0 / 100e6 - 0.4).abs() < 1e-12);
    }

    #[test]
    fn utilization_bounds_are_enforced() {
        assert!(cross_rate_for_utilization(1.0, 1e6, 500.0).is_err());
        assert!(cross_rate_for_utilization(-0.1, 1e6, 500.0).is_err());
        assert!(cross_rate_for_utilization(0.5, 0.0, 500.0).is_err());
        assert!(cross_rate_for_utilization(0.0, 1e6, 500.0).is_ok());
    }

    #[test]
    fn interval_laws_have_matching_rates() {
        let mut rng = MasterSeed::new(9).stream(0);
        for bursty in [false, true] {
            let law = cross_interval_law(1000.0, bursty).unwrap();
            assert!((law.mean() - 1e-3).abs() < 1e-12, "bursty={bursty}");
            let mut acc = 0.0;
            for _ in 0..50_000 {
                acc += law.sample(&mut rng);
            }
            let emp = acc / 50_000.0;
            assert!((emp - 1e-3).abs() < 1e-4, "bursty={bursty}: {emp}");
        }
    }

    #[test]
    fn bursty_law_is_more_variable() {
        let poisson = cross_interval_law(100.0, false).unwrap();
        let pareto = cross_interval_law(100.0, true).unwrap();
        assert!(pareto.variance() > poisson.variance());
    }

    #[test]
    fn diurnal_profile_trough_and_peak() {
        let p = DiurnalProfile::wan();
        let at_trough = p.utilization_at_hour(3.0);
        let at_peak = p.utilization_at_hour(15.0);
        assert!((at_trough - p.base).abs() < 1e-12);
        assert!((at_peak - (p.base + p.amplitude)).abs() < 1e-12);
        // Monotone from trough to peak.
        let mut prev = at_trough;
        for h in 4..=15 {
            let u = p.utilization_at_hour(h as f64);
            assert!(u >= prev - 1e-12);
            prev = u;
        }
    }

    #[test]
    fn diurnal_profile_wraps_midnight() {
        let p = DiurnalProfile::campus();
        assert!((p.utilization_at_hour(27.0) - p.utilization_at_hour(3.0)).abs() < 1e-12);
        assert!((p.utilization_at_hour(-21.0) - p.utilization_at_hour(3.0)).abs() < 1e-12);
    }

    #[test]
    fn hourly_has_24_entries_below_one() {
        for p in [DiurnalProfile::campus(), DiurnalProfile::wan()] {
            let hours = p.hourly();
            assert_eq!(hours.len(), 24);
            assert!(hours.iter().all(|&u| (0.0..1.0).contains(&u)));
        }
    }

    #[test]
    fn profile_validation() {
        assert!(DiurnalProfile::new(0.5, 0.6, 3.0).is_err()); // would exceed 1
        assert!(DiurnalProfile::new(-0.1, 0.2, 3.0).is_err());
        assert!(DiurnalProfile::new(0.2, 0.3, 26.0).is_ok()); // hour wraps
    }
}

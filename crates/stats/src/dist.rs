//! Distribution toolbox: the interval laws a VIT padding timer can use and
//! the traffic models the simulated network needs.
//!
//! The paper's VIT padding draws the timer interval from a distribution
//! with mean τ and standard deviation σ_T (eq. 9); Figures 5a/5b sweep
//! σ_T. A real timer interval must be positive, so the canonical VIT law
//! here is the [`TruncatedNormal`]. [`Uniform`] and [`Exponential`] exist
//! both as alternative VIT laws (an ablation in the bench suite) and as
//! cross-traffic inter-arrival models; [`Pareto`] and [`LogNormal`] model
//! bursty cross traffic; [`Mixture`]/[`Categorical`] model packet-size
//! mixes.

use crate::error::{ensure_finite, ensure_positive, StatsError};
use crate::normal::{standard_normal_sample, unit_f64, Normal};
use crate::special::std_normal_cdf;
use crate::Result;
use rand_core::RngCore;

/// A continuous distribution that can be sampled and report its first two
/// moments. Object-safe so schedules can hold `Box<dyn ContinuousDist>`.
pub trait ContinuousDist: Send + Sync + std::fmt::Debug {
    /// Draw one sample.
    fn sample(&self, rng: &mut dyn RngCore) -> f64;
    /// Distribution mean.
    fn mean(&self) -> f64;
    /// Distribution variance.
    fn variance(&self) -> f64;
    /// Standard deviation (derived).
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

impl ContinuousDist for Normal {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        Normal::sample(self, rng)
    }
    fn mean(&self) -> f64 {
        Normal::mean(self)
    }
    fn variance(&self) -> f64 {
        Normal::variance(self)
    }
}

/// A point mass: always returns `value`. This is the CIT "distribution"
/// (σ_T = 0) and also handy for deterministic packet sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deterministic {
    value: f64,
}

impl Deterministic {
    /// Point mass at `value` (must be finite).
    pub fn new(value: f64) -> Result<Self> {
        ensure_finite("deterministic value", value)?;
        Ok(Self { value })
    }
}

impl ContinuousDist for Deterministic {
    fn sample(&self, _rng: &mut dyn RngCore) -> f64 {
        self.value
    }
    fn mean(&self) -> f64 {
        self.value
    }
    fn variance(&self) -> f64 {
        0.0
    }
}

/// Uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Uniform on `[lo, hi)`; requires `lo < hi`, both finite.
    pub fn new(lo: f64, hi: f64) -> Result<Self> {
        ensure_finite("uniform lo", lo)?;
        ensure_finite("uniform hi", hi)?;
        if lo >= hi {
            return Err(StatsError::EmptyInterval {
                what: "uniform support",
                lo,
                hi,
            });
        }
        Ok(Self { lo, hi })
    }

    /// The uniform VIT law with mean τ and standard deviation σ:
    /// `U[τ − σ√3, τ + σ√3)`. Fails if the lower end would be ≤ 0
    /// (a timer interval must stay positive).
    pub fn with_mean_sigma(tau: f64, sigma: f64) -> Result<Self> {
        ensure_positive("uniform mean", tau)?;
        ensure_positive("uniform sigma", sigma)?;
        let half = sigma * 3.0f64.sqrt();
        if tau - half <= 0.0 {
            return Err(StatsError::EmptyInterval {
                what: "uniform VIT law (interval would go non-positive)",
                lo: tau - half,
                hi: tau + half,
            });
        }
        Self::new(tau - half, tau + half)
    }
}

impl ContinuousDist for Uniform {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.lo + (self.hi - self.lo) * unit_f64(rng)
    }
    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
    fn variance(&self) -> f64 {
        let w = self.hi - self.lo;
        w * w / 12.0
    }
}

/// Exponential distribution with the given mean (= 1/rate).
///
/// Used for Poisson cross-traffic inter-arrivals and as the
/// interrupt-blocking delay law in the gateway jitter model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Exponential with mean `mean > 0`.
    pub fn new(mean: f64) -> Result<Self> {
        ensure_positive("exponential mean", mean)?;
        Ok(Self { mean })
    }

    /// The unit-mean exponential `Exp(1)`.
    pub fn standard() -> Self {
        Self { mean: 1.0 }
    }

    /// Exponential with rate `rate > 0` events per unit time.
    pub fn with_rate(rate: f64) -> Result<Self> {
        ensure_positive("exponential rate", rate)?;
        Ok(Self { mean: 1.0 / rate })
    }
}

impl ContinuousDist for Exponential {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        // Inverse CDF; 1−U avoids ln(0).
        -self.mean * (1.0 - unit_f64(rng)).ln()
    }
    fn mean(&self) -> f64 {
        self.mean
    }
    fn variance(&self) -> f64 {
        self.mean * self.mean
    }
}

/// Normal distribution truncated to `[lo, ∞)` — the canonical VIT interval
/// law: `T ~ N(τ, σ_T²)` conditioned on `T ≥ lo` so the timer never fires
/// in the past.
///
/// Sampling is by rejection against the parent normal, which is efficient
/// whenever the truncation removes a modest tail (the regime of every
/// experiment in the paper: τ = 10 ms, σ_T ≤ a few ms). Constructing a law
/// whose parent probability of acceptance is below 1 % is rejected as a
/// configuration error rather than looping forever.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedNormal {
    parent: Normal,
    lo: f64,
    /// Acceptance probability P(parent ≥ lo), cached for moments.
    accept: f64,
}

impl TruncatedNormal {
    /// `N(mu, sigma²)` truncated to `[lo, ∞)`.
    pub fn new(mu: f64, sigma: f64, lo: f64) -> Result<Self> {
        let parent = Normal::new(mu, sigma)?;
        ensure_finite("truncation bound", lo)?;
        let accept = 1.0 - parent.cdf(lo);
        if accept < 0.01 {
            return Err(StatsError::NonPositive {
                what: "truncated-normal acceptance probability (lower the bound or sigma)",
                value: accept,
            });
        }
        Ok(Self { parent, lo, accept })
    }

    /// The standard VIT law of the paper's experiments: mean τ, deviation
    /// σ_T, truncated at a small positive floor (default 1 % of τ).
    pub fn vit_law(tau: f64, sigma_t: f64) -> Result<Self> {
        ensure_positive("VIT tau", tau)?;
        ensure_positive("VIT sigma_t", sigma_t)?;
        Self::new(tau, sigma_t, 0.01 * tau)
    }

    /// The truncation lower bound.
    pub fn lower_bound(&self) -> f64 {
        self.lo
    }

    /// The untruncated parent law.
    pub fn parent(&self) -> Normal {
        self.parent
    }
}

impl ContinuousDist for TruncatedNormal {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        loop {
            let x = self.parent.mean() + self.parent.sigma() * standard_normal_sample(rng);
            if x >= self.lo {
                return x;
            }
        }
    }

    fn mean(&self) -> f64 {
        // E[X | X ≥ lo] = µ + σ·φ(α)/(1−Φ(α)), α = (lo−µ)/σ
        let a = (self.lo - self.parent.mean()) / self.parent.sigma();
        let lambda = crate::special::std_normal_pdf(a) / self.accept;
        self.parent.mean() + self.parent.sigma() * lambda
    }

    fn variance(&self) -> f64 {
        let a = (self.lo - self.parent.mean()) / self.parent.sigma();
        let lambda = crate::special::std_normal_pdf(a) / self.accept;
        let delta = lambda * (lambda - a);
        self.parent.variance() * (1.0 - delta)
    }
}

/// Log-normal distribution: `exp(N(mu_log, sigma_log²))`.
///
/// Heavy-ish-tailed cross-traffic service model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    log_normal: Normal,
}

impl LogNormal {
    /// From the underlying normal parameters.
    pub fn new(mu_log: f64, sigma_log: f64) -> Result<Self> {
        Ok(Self {
            log_normal: Normal::new(mu_log, sigma_log)?,
        })
    }

    /// Parameterized by the *target* mean and standard deviation of the
    /// log-normal itself (solves for the underlying normal parameters).
    pub fn with_mean_sigma(mean: f64, sigma: f64) -> Result<Self> {
        ensure_positive("lognormal mean", mean)?;
        ensure_positive("lognormal sigma", sigma)?;
        let cv2 = (sigma / mean) * (sigma / mean);
        let sigma_log = (1.0 + cv2).ln().sqrt();
        let mu_log = mean.ln() - 0.5 * sigma_log * sigma_log;
        Self::new(mu_log, sigma_log)
    }
}

impl ContinuousDist for LogNormal {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.log_normal.sample(rng).exp()
    }
    fn mean(&self) -> f64 {
        (self.log_normal.mean() + 0.5 * self.log_normal.variance()).exp()
    }
    fn variance(&self) -> f64 {
        let s2 = self.log_normal.variance();
        ((s2).exp_m1()) * (2.0 * self.log_normal.mean() + s2).exp()
    }
}

/// Pareto (type I) distribution with scale `x_m > 0` and shape `alpha > 0`.
///
/// Models bursty cross traffic. Note the variance is infinite for
/// `alpha ≤ 2`; [`ContinuousDist::variance`] reports `f64::INFINITY` there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    scale: f64,
    shape: f64,
}

impl Pareto {
    /// Pareto with scale (minimum) `x_m` and tail index `alpha`.
    pub fn new(scale: f64, shape: f64) -> Result<Self> {
        ensure_positive("pareto scale", scale)?;
        ensure_positive("pareto shape", shape)?;
        Ok(Self { scale, shape })
    }
}

impl ContinuousDist for Pareto {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.scale * (1.0 - unit_f64(rng)).powf(-1.0 / self.shape)
    }
    fn mean(&self) -> f64 {
        if self.shape <= 1.0 {
            f64::INFINITY
        } else {
            self.shape * self.scale / (self.shape - 1.0)
        }
    }
    fn variance(&self) -> f64 {
        if self.shape <= 2.0 {
            f64::INFINITY
        } else {
            let a = self.shape;
            self.scale * self.scale * a / ((a - 1.0) * (a - 1.0) * (a - 2.0))
        }
    }
}

/// Discrete distribution over arbitrary `f64` support points with given
/// weights. Used for packet-size mixes like {64 B, 550 B, 1500 B}.
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    values: Vec<f64>,
    /// Cumulative normalized weights; last entry is exactly 1.0.
    cumulative: Vec<f64>,
    mean: f64,
    variance: f64,
}

impl Categorical {
    /// Build from `(value, weight)` pairs. Weights must be non-negative
    /// with a positive sum.
    pub fn new(pairs: &[(f64, f64)]) -> Result<Self> {
        if pairs.is_empty() {
            return Err(StatsError::InsufficientData {
                what: "categorical",
                needed: 1,
                got: 0,
            });
        }
        let mut total = 0.0;
        for &(v, w) in pairs {
            ensure_finite("categorical value", v)?;
            ensure_finite("categorical weight", w)?;
            if w < 0.0 {
                return Err(StatsError::BadWeights);
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(StatsError::BadWeights);
        }
        let mut cumulative = Vec::with_capacity(pairs.len());
        let mut values = Vec::with_capacity(pairs.len());
        let mut acc = 0.0;
        let mut mean = 0.0;
        for &(v, w) in pairs {
            acc += w / total;
            cumulative.push(acc);
            values.push(v);
            mean += v * w / total;
        }
        *cumulative.last_mut().expect("nonempty") = 1.0;
        let mut variance = 0.0;
        for &(v, w) in pairs {
            variance += (v - mean) * (v - mean) * w / total;
        }
        Ok(Self {
            values,
            cumulative,
            mean,
            variance,
        })
    }

    /// The support points.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl ContinuousDist for Categorical {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let u = unit_f64(rng);
        // Linear scan: supports are tiny (packet-size mixes of 2–5 points).
        for (i, &c) in self.cumulative.iter().enumerate() {
            if u < c {
                return self.values[i];
            }
        }
        *self.values.last().expect("nonempty")
    }
    fn mean(&self) -> f64 {
        self.mean
    }
    fn variance(&self) -> f64 {
        self.variance
    }
}

/// Finite mixture of continuous distributions with given weights.
#[derive(Debug)]
pub struct Mixture {
    components: Vec<Box<dyn ContinuousDist>>,
    cumulative: Vec<f64>,
    weights: Vec<f64>,
}

impl Mixture {
    /// Build from `(component, weight)` pairs; weights must be
    /// non-negative with a positive sum.
    pub fn new(parts: Vec<(Box<dyn ContinuousDist>, f64)>) -> Result<Self> {
        if parts.is_empty() {
            return Err(StatsError::InsufficientData {
                what: "mixture",
                needed: 1,
                got: 0,
            });
        }
        let total: f64 = parts.iter().map(|(_, w)| *w).sum();
        if total <= 0.0 || parts.iter().any(|(_, w)| *w < 0.0 || !w.is_finite()) {
            return Err(StatsError::BadWeights);
        }
        let mut components = Vec::with_capacity(parts.len());
        let mut cumulative = Vec::with_capacity(parts.len());
        let mut weights = Vec::with_capacity(parts.len());
        let mut acc = 0.0;
        for (c, w) in parts {
            acc += w / total;
            cumulative.push(acc);
            weights.push(w / total);
            components.push(c);
        }
        *cumulative.last_mut().expect("nonempty") = 1.0;
        Ok(Self {
            components,
            cumulative,
            weights,
        })
    }
}

impl ContinuousDist for Mixture {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let u = unit_f64(rng);
        let idx = self
            .cumulative
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.components.len() - 1);
        self.components[idx].sample(rng)
    }

    fn mean(&self) -> f64 {
        self.components
            .iter()
            .zip(&self.weights)
            .map(|(c, w)| w * c.mean())
            .sum()
    }

    fn variance(&self) -> f64 {
        // Law of total variance.
        let m = self.mean();
        self.components
            .iter()
            .zip(&self.weights)
            .map(|(c, w)| w * (c.variance() + (c.mean() - m) * (c.mean() - m)))
            .sum()
    }
}

/// Sample-based estimate of how far a law's empirical moments sit from its
/// reported moments — a test helper exported for reuse in other crates'
/// tests.
pub fn empirical_moments<D: ContinuousDist + ?Sized, R: RngCore>(
    dist: &D,
    rng: &mut R,
    n: usize,
) -> (f64, f64) {
    let mut mean = 0.0;
    let mut m2 = 0.0;
    for i in 0..n {
        let x = dist.sample(rng);
        let d = x - mean;
        mean += d / (i + 1) as f64;
        m2 += d * (x - mean);
    }
    (mean, m2 / (n.max(2) - 1) as f64)
}

/// Helper: the CDF of the truncated normal (used in tests and by the
/// analytic crate when validating VIT configurations).
pub fn truncated_normal_cdf(tn: &TruncatedNormal, x: f64) -> f64 {
    let parent = tn.parent();
    if x < tn.lower_bound() {
        return 0.0;
    }
    let a = std_normal_cdf((tn.lower_bound() - parent.mean()) / parent.sigma());
    let fx = std_normal_cdf((x - parent.mean()) / parent.sigma());
    ((fx - a) / (1.0 - a)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::MasterSeed;

    fn rng() -> crate::rng::Xoshiro256StarStar {
        MasterSeed::new(2024).stream(0)
    }

    #[test]
    fn deterministic_is_constant() {
        let d = Deterministic::new(0.01).unwrap();
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(d.sample(&mut r), 0.01);
        }
        assert_eq!(d.mean(), 0.01);
        assert_eq!(d.variance(), 0.0);
        assert!(Deterministic::new(f64::NAN).is_err());
    }

    #[test]
    fn uniform_moments_and_support() {
        let u = Uniform::new(2.0, 6.0).unwrap();
        assert_eq!(u.mean(), 4.0);
        assert!((u.variance() - 16.0 / 12.0).abs() < 1e-15);
        let mut r = rng();
        for _ in 0..1000 {
            let x = u.sample(&mut r);
            assert!((2.0..6.0).contains(&x));
        }
        assert!(Uniform::new(3.0, 3.0).is_err());
        assert!(Uniform::new(5.0, 1.0).is_err());
    }

    #[test]
    fn uniform_vit_law_has_requested_moments() {
        let tau = 10e-3;
        let sigma = 1e-3;
        let u = Uniform::with_mean_sigma(tau, sigma).unwrap();
        assert!((u.mean() - tau).abs() < 1e-12);
        assert!((u.std_dev() - sigma).abs() < 1e-9);
        // σ too large → support would cross zero → error
        assert!(Uniform::with_mean_sigma(10e-3, 10e-3).is_err());
    }

    #[test]
    fn exponential_moments() {
        let e = Exponential::new(0.5).unwrap();
        assert_eq!(e.mean(), 0.5);
        assert_eq!(e.variance(), 0.25);
        let e2 = Exponential::with_rate(4.0).unwrap();
        assert!((e2.mean() - 0.25).abs() < 1e-15);
        let mut r = rng();
        let (m, v) = empirical_moments(&e, &mut r, 100_000);
        assert!((m - 0.5).abs() < 0.01, "mean {m}");
        assert!((v - 0.25).abs() < 0.02, "var {v}");
    }

    #[test]
    fn exponential_samples_are_positive() {
        let e = Exponential::new(1.0).unwrap();
        let mut r = rng();
        assert!((0..10_000).all(|_| e.sample(&mut r) >= 0.0));
    }

    #[test]
    fn truncated_normal_respects_bound() {
        let tn = TruncatedNormal::new(10.0, 3.0, 8.0).unwrap();
        let mut r = rng();
        for _ in 0..5_000 {
            assert!(tn.sample(&mut r) >= 8.0);
        }
    }

    #[test]
    fn truncated_normal_moments_match_closed_form() {
        let tn = TruncatedNormal::new(1.0, 1.0, 0.0).unwrap();
        // Known: for µ=1,σ=1,lo=0 → α=−1, λ=φ(1)/Φ(1)≈0.287600
        let lambda = crate::special::std_normal_pdf(1.0) / crate::special::std_normal_cdf(1.0);
        assert!((tn.mean() - (1.0 + lambda)).abs() < 1e-12);
        let mut r = rng();
        let (m, v) = empirical_moments(&tn, &mut r, 200_000);
        assert!((m - tn.mean()).abs() < 0.01, "mean {m} vs {}", tn.mean());
        assert!(
            (v - tn.variance()).abs() < 0.01,
            "var {v} vs {}",
            tn.variance()
        );
    }

    #[test]
    fn vit_law_mild_truncation_keeps_moments() {
        // σ_T = 1ms on τ = 10ms: truncation negligible, moments ≈ parent.
        let tn = TruncatedNormal::vit_law(10e-3, 1e-3).unwrap();
        assert!((tn.mean() - 10e-3).abs() < 1e-6);
        assert!((tn.std_dev() - 1e-3).abs() < 1e-6);
    }

    #[test]
    fn vit_law_rejects_hopeless_truncation() {
        // σ_T enormous relative to τ: acceptance < 1% never happens here
        // (acceptance stays ~50%+), so instead test the raw constructor.
        assert!(TruncatedNormal::new(0.0, 1.0, 3.0).is_err()); // accept ≈ 0.13%
    }

    #[test]
    fn lognormal_target_moments() {
        let ln = LogNormal::with_mean_sigma(2.0, 0.5).unwrap();
        assert!((ln.mean() - 2.0).abs() < 1e-12);
        assert!((ln.variance() - 0.25).abs() < 1e-12);
        let mut r = rng();
        let (m, v) = empirical_moments(&ln, &mut r, 200_000);
        assert!((m - 2.0).abs() < 0.02);
        assert!((v - 0.25).abs() < 0.03);
    }

    #[test]
    fn pareto_tail_and_moments() {
        let p = Pareto::new(1.0, 3.0).unwrap();
        assert!((p.mean() - 1.5).abs() < 1e-12);
        assert!((p.variance() - 0.75).abs() < 1e-12);
        let heavy = Pareto::new(1.0, 1.5).unwrap();
        assert!(heavy.variance().is_infinite());
        let very_heavy = Pareto::new(1.0, 0.9).unwrap();
        assert!(very_heavy.mean().is_infinite());
        let mut r = rng();
        for _ in 0..1000 {
            assert!(p.sample(&mut r) >= 1.0);
        }
    }

    #[test]
    fn categorical_packet_mix() {
        let mix = Categorical::new(&[(64.0, 0.5), (550.0, 0.3), (1500.0, 0.2)]).unwrap();
        let want_mean = 64.0 * 0.5 + 550.0 * 0.3 + 1500.0 * 0.2;
        assert!((mix.mean() - want_mean).abs() < 1e-12);
        let mut r = rng();
        let mut counts = [0usize; 3];
        let n = 100_000;
        for _ in 0..n {
            let s = mix.sample(&mut r);
            match s as u32 {
                64 => counts[0] += 1,
                550 => counts[1] += 1,
                1500 => counts[2] += 1,
                other => panic!("unexpected sample {other}"),
            }
        }
        assert!((counts[0] as f64 / n as f64 - 0.5).abs() < 0.01);
        assert!((counts[1] as f64 / n as f64 - 0.3).abs() < 0.01);
        assert!((counts[2] as f64 / n as f64 - 0.2).abs() < 0.01);
    }

    #[test]
    fn categorical_rejects_bad_weights() {
        assert!(Categorical::new(&[]).is_err());
        assert!(Categorical::new(&[(1.0, -0.5)]).is_err());
        assert!(Categorical::new(&[(1.0, 0.0), (2.0, 0.0)]).is_err());
    }

    #[test]
    fn mixture_total_variance_law() {
        let a = Box::new(Normal::new(0.0, 1.0).unwrap());
        let b = Box::new(Normal::new(10.0, 2.0).unwrap());
        let mix = Mixture::new(vec![
            (a as Box<dyn ContinuousDist>, 1.0),
            (b as Box<dyn ContinuousDist>, 3.0),
        ])
        .unwrap();
        // mean = 0.25·0 + 0.75·10 = 7.5
        assert!((mix.mean() - 7.5).abs() < 1e-12);
        // var = 0.25·(1+56.25) + 0.75·(4+6.25) = 14.3125 + 7.6875 = 22.0
        assert!((mix.variance() - 22.0).abs() < 1e-12);
        let mut r = rng();
        let (m, v) = empirical_moments(&mix, &mut r, 200_000);
        assert!((m - 7.5).abs() < 0.05);
        assert!((v - 22.0).abs() < 0.5);
    }

    #[test]
    fn mixture_rejects_empty_or_negative() {
        assert!(Mixture::new(vec![]).is_err());
        let a = Box::new(Normal::new(0.0, 1.0).unwrap());
        assert!(Mixture::new(vec![(a as Box<dyn ContinuousDist>, -1.0)]).is_err());
    }

    #[test]
    fn truncated_normal_cdf_is_valid() {
        let tn = TruncatedNormal::new(10.0, 2.0, 7.0).unwrap();
        assert_eq!(truncated_normal_cdf(&tn, 6.0), 0.0);
        assert!((truncated_normal_cdf(&tn, 100.0) - 1.0).abs() < 1e-12);
        let mid = truncated_normal_cdf(&tn, 10.0);
        assert!(mid > 0.0 && mid < 1.0);
        // Monotone
        assert!(truncated_normal_cdf(&tn, 9.0) < truncated_normal_cdf(&tn, 11.0));
    }
}

//! # linkpad
//!
//! A complete Rust implementation of the link-padding traffic-analysis
//! countermeasure system of **Fu, Graham, Bettati, Zhao and Xuan,
//! "Analytical and Empirical Analysis of Countermeasures to Traffic
//! Analysis Attacks" (ICPP 2003)** — the padding gateways (CIT and VIT),
//! the statistical adversary, the closed-form detection-rate theory, and
//! the simulated networks the paper's evaluation ran on.
//!
//! This crate is a facade: each subsystem lives in its own crate and is
//! re-exported here under a short module name.
//!
//! ```
//! use linkpad::prelude::*;
//!
//! // Build the paper's laboratory experiment: CIT padding, 40 pps
//! // payload, adversary tapping right at the sender gateway.
//! let piats_high = piats_for(
//!     &ScenarioBuilder::lab(1).with_payload_rate(40.0),
//!     TapPosition::SenderEgress,
//!     4_000,
//!     50,
//! )
//! .unwrap();
//! let piats_low = piats_for(
//!     &ScenarioBuilder::lab(2).with_payload_rate(10.0),
//!     TapPosition::SenderEgress,
//!     4_000,
//!     50,
//! )
//! .unwrap();
//!
//! // Attack with the sample-variance feature at n = 500.
//! let study = DetectionStudy { sample_size: 500, train_samples: 5, test_samples: 3 };
//! let report = study.run(&SampleVariance, &[piats_low, piats_high]).unwrap();
//! assert!(report.detection_rate() >= 0.5);
//! ```
//!
//! See `DESIGN.md` (workspace root) for the system inventory and the
//! per-figure experiment index, and the linkbench benchmark
//! (`linkbench/`, declared in `BENCHMARK.json`) for performance.

#![forbid(unsafe_code)]

/// Statistics substrate (special functions, distributions, KDE, RNG).
pub use linkpad_stats as stats;

/// Discrete-event network simulator (routers, taps, observers).
pub use linkpad_sim as sim;

/// The padding countermeasure (schedules, gateways, jitter model).
pub use linkpad_core as core;

/// Workload generators and lab/campus/WAN scenarios.
pub use linkpad_workloads as workloads;

/// The statistical adversary (features, KDE-Bayes, detection pipeline).
pub use linkpad_adversary as adversary;

/// Closed-form theory: Theorems 1–3, planning, design guidelines.
pub use linkpad_analytic as analytic;

/// Real-time in-process testbed (real threads and timers).
pub use linkpad_testbed as testbed;

/// The names almost every program wants.
pub mod prelude {
    pub use linkpad_adversary::classifier::KdeBayes;
    pub use linkpad_adversary::feature::{
        Feature, MedianAbsDev, SampleEntropy, SampleMean, SampleVariance,
    };
    pub use linkpad_adversary::pipeline::{DetectionReport, DetectionStudy};
    pub use linkpad_analytic::guidelines::{DesignGuideline, DesignInput};
    pub use linkpad_analytic::planning::{required_sample_size, FeatureKind};
    pub use linkpad_analytic::ratio::VarianceComponents;
    pub use linkpad_analytic::theorems::{
        detection_rate_entropy, detection_rate_mean, detection_rate_variance,
    };
    pub use linkpad_core::calibration::CalibratedDefaults;
    pub use linkpad_core::gateway::TimerDiscipline;
    pub use linkpad_core::jitter::GatewayJitterModel;
    pub use linkpad_core::schedule::PaddingSchedule;
    pub use linkpad_sim::cohort::{CohortJitter, FlowCohort};
    pub use linkpad_sim::observer::{ObserverHandle, WindowStats, WindowedObserver};
    pub use linkpad_sim::parallel::{parallel_map, parallel_map_init};
    pub use linkpad_sim::time::{SimDuration, SimTime};
    pub use linkpad_stats::rng::MasterSeed;
    pub use linkpad_testbed::live::{run_live, LiveConfig};
    pub use linkpad_workloads::aggregate::PhaseSpec;
    pub use linkpad_workloads::cross::DiurnalProfile;
    pub use linkpad_workloads::scenario::{
        piats_for, AggregateHandles, BuiltScenario, ScenarioBuilder, TapPosition,
    };
    pub use linkpad_workloads::shard::{ShardedAggregate, ShardedRun};
    pub use linkpad_workloads::spec::{HopSpec, PayloadSpec, ScheduleSpec};
}

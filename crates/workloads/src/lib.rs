//! # linkpad-workloads
//!
//! Traffic workloads and ready-made experiment scenarios for the linkpad
//! reproduction of Fu et al. (ICPP 2003):
//!
//! * [`spec`] — cloneable specifications for payload traffic, padding
//!   schedules and per-hop cross traffic, so sweeps can describe hundreds
//!   of configurations cheaply and materialize them per run.
//! * [`cross`] — cross-traffic models: packet-size mixes, the
//!   utilization→rate helper, and diurnal (hour-of-day) utilization
//!   profiles for the campus and WAN experiments of Fig. 8.
//! * [`switching`] — a payload source that switches between the low and
//!   high rate over time (the hidden state the adversary estimates).
//! * [`scenario`] — the experiment topologies as builders:
//!   **lab** (GW1 → ESR-5000-style router with cross traffic → GW2,
//!   Fig. 3), **campus** (3-hop chain, Fig. 7a), **wan** (15-hop
//!   chain, Ohio→Texas, Fig. 7b) and **aggregate** (N gateway pairs on
//!   one trunk), each returning a runnable simulation plus tap/gateway
//!   handles, a PIAT collector, and a seed-reset fast path for sweeps.
//! * [`aggregate`] — the many-gateway trunk topology: per-flow padded
//!   sender gateways feeding a shared trunk link and a windowed trunk
//!   observer folding the aggregate, which passes only the target flow
//!   on to its receiver gateway. Cohort mode
//!   ([`ScenarioBuilder::with_cohorts`](scenario::ScenarioBuilder::with_cohorts))
//!   swaps the non-target senders for `FlowCohort` superposition
//!   generators the trunk draws on demand;
//!   [`PhaseSpec`](aggregate::PhaseSpec) lays out the padding-clock
//!   start phases (the desynchronized-clock knob).
//! * [`shard`] — sharded aggregate execution: split one trunk
//!   scenario's flow population over worker sub-sims and merge the
//!   per-shard window series into one trunk view (counts/bytes
//!   superpose exactly) — with cohorts, the 10⁶-flow path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod background;
pub mod cross;
pub mod scenario;
pub mod shard;
pub mod spec;
pub mod switching;

pub use aggregate::{AggregateSpec, PhaseSpec, SwitchingSpec};
pub use background::BackgroundNoiseHop;
pub use cross::{cross_rate_for_utilization, DiurnalProfile, SizeMix};
pub use scenario::{AggregateHandles, BuiltScenario, ScenarioBuilder, TapPosition};
pub use shard::{ShardReport, ShardedAggregate, ShardedRun};
pub use spec::{HopSpec, PayloadSpec, ScheduleSpec};
pub use switching::{RateLog, SwitchingSource};

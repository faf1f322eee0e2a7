//! # linkpad-core
//!
//! The link-padding countermeasure of Fu et al. (ICPP 2003) — the paper's
//! primary subject — as a reusable library:
//!
//! * [`schedule`] — padding timer schedules: **CIT** (constant interval
//!   timer, the classic approach) and **VIT** (variable interval timer,
//!   the paper's proposed defence), with pluggable interval laws.
//! * [`jitter`] — the gateway disturbance model `δ_gw` (paper eq. 11):
//!   baseline OS timer jitter plus *payload-correlated* interrupt-blocking
//!   delay. This is the mechanism the paper identifies as the reason CIT
//!   padding leaks: "the timer's interrupts may be subtly but randomly
//!   delayed by incoming payload packets", so `σ_gw,h > σ_gw,l`.
//! * [`clock`] — the padding clock every sender gateway runs (δ_gw,
//!   wire size, next interval per tick), and [`clock::GatewayEmitter`]:
//!   a sender gateway plus its payload source as an emitter an
//!   aggregate's trunk pulls on demand, with no engine event.
//! * [`gateway`] — the sender gateway GW1 (payload queue + padding timer +
//!   dummy filling, §3.2) and receiver gateway GW2 (dummy stripping) as
//!   `linkpad-sim` nodes, with QoS instrumentation.
//! * [`overhead`] — bandwidth-overhead and payload-delay accounting (the
//!   QoS coupling the paper's NetCamo discussion raises).
//! * [`wire`] — a fixed-size encrypted-frame encoding used by the
//!   real-time testbed (`linkpad-testbed`) to ship packets over real
//!   channels.
//! * [`calibration`] — the documented default constants that place the
//!   simulated system in the paper's measured regimes (10 ms timer,
//!   µs-scale gateway jitter, 10/40 pps payload rates).
//!
//! The threat-model invariant is enforced structurally: padded packets
//! all have the same size, and the adversary-facing APIs observe nothing
//! but timestamps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod clock;
pub mod gateway;
pub mod jitter;
pub mod overhead;
pub mod schedule;
pub mod wire;

pub use calibration::CalibratedDefaults;
pub use clock::{GatewayEmitter, PaddingClock};
pub use gateway::{GatewayHandle, ReceiverGateway, ReceiverHandle, SenderGateway, TimerDiscipline};
pub use jitter::GatewayJitterModel;
pub use overhead::OverheadReport;
pub use schedule::{AdaptiveCohortSchedule, AdaptivePadding, LinkSchedule, PaddingSchedule};

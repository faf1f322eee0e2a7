//! # linkpad-sim
//!
//! A discrete-event network simulator — the substrate standing in for the
//! physical testbeds of Fu et al. (ICPP 2003): the laboratory LAN with its
//! Marconi ESR-5000 router (Fig. 3), the Texas A&M campus network and the
//! Ohio→Texas Internet path (Fig. 7).
//!
//! The simulator is deliberately small and sharply focused on what the
//! paper's experiments need:
//!
//! * **Nodes** ([`node::Node`]) exchange fixed-size encrypted
//!   [`packet::Packet`]s; the engine ([`engine::Sim`]) dispatches packet
//!   deliveries and timer fires in global timestamp order with FIFO
//!   tie-breaking.
//! * **Routers** ([`router::Router`]) are FIFO output-queued store-and-
//!   forwards with finite egress bandwidth and propagation delay;
//!   queueing behind cross traffic is exactly the paper's `δ_net`
//!   disturbance (eq. 10) and drives the Fig. 6 / Fig. 8 results. Each
//!   arrival computes its departure, so a hop costs one event, and a lab
//!   router serves its cross traffic without any.
//! * **Trunks** ([`trunk::Trunk`]) are an aggregate's shared link: the
//!   same egress, serving the aggregate's non-target senders as
//!   [`trunk::Emitter`]s without events,
//!   deciding every arrival at an optional fault gate, and folding its
//!   far-end observer in place, so its packets in flight are not events
//!   either.
//! * **Taps** ([`tap::Tap`]) are passive timestamp recorders — the
//!   "Agilent J6841A network analyzer" the paper's adversary uses. A
//!   tap with no next hop is the capture-only endpoint of a path.
//! * **Windowed observers** ([`observer::WindowedObserver`]) are the
//!   aggregate-link counterpart: they fold arrivals online into
//!   fixed-width window statistics (count, byte rate, PIAT moments) in
//!   `O(windows)` memory, for trunks where storing every timestamp is
//!   untenable. As a node, an observer is a capture-only endpoint.
//! * **Fault injection** ([`fault::LossyGate`], [`fault::FaultPlan`])
//!   drops trunk arrivals deterministically — i.i.d. or bursty loss
//!   laws plus scheduled outages — so countermeasure/adversary
//!   trade-offs can be measured under imperfect links and partial
//!   observation.
//! * **Flow cohorts** ([`cohort::FlowCohort`]) generate K padded
//!   flows' combined arrival process from one next-fire heap of member
//!   runs, an emitter the trunk draws on demand, with no event at all —
//!   what takes aggregate scenarios from ~10⁴ to 10⁶ concurrent flows.
//! * **Sources** ([`source::DistSource`]) emit traffic with pluggable
//!   inter-arrival and packet-size laws from `linkpad-stats`.
//! * **Parallel sweeps** ([`parallel::parallel_map`]) fan independent
//!   simulations out over scoped threads; every simulation owns a
//!   deterministic RNG substream, so results are bit-identical regardless
//!   of thread count.
//!
//! Determinism is a hard guarantee: `(MasterSeed, topology, duration)`
//! fully determines every event. The engine is single-threaded per
//! simulation (events are causally ordered); parallelism happens *across*
//! simulations, which is where all the throughput in a detection-rate
//! sweep lives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod cohort;
pub mod engine;
pub mod equeue;
pub mod fault;
pub mod hooks;
pub mod node;
pub mod observer;
pub mod packet;
pub mod parallel;
pub mod router;
pub mod source;
pub mod tap;
pub mod time;
pub mod trunk;

pub use attr::{AttributionReport, AttributionRow, AttributionSampler};
pub use cohort::{CohortJitter, FlowCohort, LawSchedule, MemberSchedule};
pub use engine::{Context, RunStats, Sim, SimBuilder};
pub use equeue::EventQueue;
pub use fault::{FaultGateHandle, FaultPlan, LossModel, LossyGate, OutageSchedule};
pub use hooks::{Dispatch, LoopHooks};
pub use node::{Node, NodeId};
pub use observer::{ObserverHandle, WindowStats, WindowedObserver};
pub use packet::{FlowId, Packet, PacketKind};
pub use parallel::{parallel_map, parallel_map_init_catching, ItemPanic};
pub use router::Router;
pub use source::DistSource;
pub use tap::{Tap, TapHandle};
pub use time::{SimDuration, SimTime};
pub use trunk::{Emitter, EmitterHandle, Trunk};

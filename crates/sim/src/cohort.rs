//! Flow cohorts: K padded flows superposed in one node.
//!
//! The aggregate scenario family models every padded flow as its own
//! sender gateway and payload source — faithful, but two boxed nodes
//! and one armed timer per flow, which walls the family at ~10⁴ flows.
//! What a padding gateway puts on the wire is only its emission instants and
//! wire sizes: flow k with start phase φₖ fires its j-th tick at
//! `φₖ + T₁ + … + Tⱼ`, each transmission shifted by an independent
//! per-tick disturbance δ that does not feed back into the clock, and
//! nothing else about the flow (payload content, queue state) is
//! visible. CIT is the σ_T = 0 member of that timer family (`Tᵢ = τ`, so
//! the instants are the exact comb `φₖ + j·τ`); VIT laws and adaptive
//! padding draw their intervals.
//!
//! [`FlowCohort`] simulates the superposition of K such clocks in one
//! node, driven by a [`MemberSchedule`] (an interval *law* shared iid
//! across members, or per-member machines like adaptive padding). It
//! keeps a small in-node binary heap of **runs** `(time, first_member,
//! run_len)`: the contiguous members `first_member..first_member +
//! run_len` all fire next at `time`. The engine sees **one pending timer
//! event per cohort** — the heap minimum — so a K = 1024 cohort costs
//! the event store the same as one gateway, and a million flows fit in
//! ~10³ nodes. Each popped member emits one packet, drawing jitter δ,
//! then wire size, then its next interval, in that order (the
//! `SenderGateway` order). A popped run stays one entry while its
//! members draw the first member's next interval; the members after the
//! first mismatch go back as singletons. A synchronized CIT cohort is
//! therefore one entry for its whole run, costing one heap pop per
//! instant; desynchronized phases cost one `O(log K)` pop per emission.
//! Measured on a 2-vCPU host against a dedicated fixed-period path for
//! CIT, that cost stayed inside run-to-run noise (+3 % median wall time
//! on the benchmark's uniform-phase `cohort_defenses` workload, −1 % on
//! a synchronized 10⁵-flow run), so there is no such fast path.
//!
//! Determinism: runs are disjoint contiguous member ranges popped in
//! `(time, first_member)` order, so members fire in `(time, member)`
//! order and every draw comes off the cohort node's single RNG stream
//! in that order; runs replay bit-identically under `reset(seed)`. With
//! a `Deterministic` law, no jitter and no size law the cohort makes
//! **zero RNG draws**, and its emission times are bit-exact nominal
//! instants — the regime the exactness tests compare against real
//! `SenderGateway`s. What one RNG stream does *not* preserve is the
//! gateway fan-in's *stream interleaving*: K real gateways draw from K
//! independent streams, so with any draw on the emission path the
//! equivalence is distributional (window count/byte moments), not
//! bit-exact — see `defense_equivalence.rs` and `DESIGN.md` ("cohort
//! superposition"), which also lists what this node deliberately
//! refuses to model: the `Relative` timer discipline (δ feeds back into
//! the period) and reactive defences (the clock reacts to per-member
//! payload).
//!
//! The per-tick disturbance is reproduced by [`CohortJitter`], mirroring
//! `GatewayJitterModel` (that type lives upstream in `linkpad-core`,
//! which depends on this crate): a zero-mean baseline normal plus an
//! interrupt-blocking exponential triggered with the per-tick payload
//! arrival probability `p = rate·τ`, behind the same 6σ causality
//! offset.

use crate::engine::Context;
use crate::node::{Node, NodeId};
use crate::packet::{FlowId, PacketKind};
use crate::time::{SimDuration, SimTime};
use linkpad_stats::dist::{ContinuousDist, Exponential};
use linkpad_stats::normal::Normal;
use linkpad_stats::rng::Xoshiro256StarStar;
use linkpad_stats::StatsError;
use rand_core::RngCore;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// Conventional wire flow id for cohort-generated traffic. Cohort
/// members are indistinguishable on the wire (constant size, encrypted),
/// so they share one id; aggregate scenarios end it at the trunk
/// instrument that records it instead of fanning out per-flow branches.
pub const COHORT_FLOW: FlowId = FlowId(u32::MAX);

const TICK: u64 = 0;

/// Per-member interval source of a cohort: `member` is the within-cohort
/// index (position in the sorted phase vector). Called once per member
/// (in member order) at start to seed the heap, then once per emission
/// in the deterministic `(time, member)` pop order.
pub trait MemberSchedule: std::fmt::Debug {
    /// Draw member `member`'s next inter-emission interval, seconds.
    /// Must be positive (the cohort floors to 1 ns defensively).
    fn next_interval_secs(&mut self, member: u32, rng: &mut dyn RngCore) -> f64;

    /// Return any machine state to its initial value (the next
    /// `on_start` re-seeds the heap from a fresh RNG stream).
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

#[derive(Debug, Default)]
struct CohortStats {
    emitted: u64,
}

/// Read handle for cohort instrumentation (single-threaded shared state,
/// like the gateway handles).
#[derive(Debug, Clone)]
pub struct CohortHandle {
    stats: Rc<RefCell<CohortStats>>,
    flows: u32,
}

impl CohortHandle {
    /// Packets emitted so far (over all member flows).
    pub fn emitted(&self) -> u64 {
        self.stats.borrow().emitted
    }

    /// Number of member flows this cohort superposes.
    pub fn flows(&self) -> u32 {
        self.flows
    }
}

/// A node emitting the superposed arrival process of K padded flows
/// from one next-fire heap of member runs (see the module docs).
pub struct FlowCohort {
    next: NodeId,
    flow: FlowId,
    packet_size: u32,
    /// Wire-size law for variable-payload defences (`None` → every
    /// packet is exactly `packet_size`, zero RNG draws).
    size_law: Option<Box<dyn ContinuousDist>>,
    jitter: Option<JitterSamplers>,
    sched: Box<dyn MemberSchedule>,
    /// Member `m`'s clock start offset (sorted ascending; the member
    /// index is the position in this vector).
    phases: Vec<SimDuration>,
    /// `(next nominal fire time, first member, run length)` —
    /// `Reverse` turns the std max-heap into a min-heap popping in
    /// `(time, first member)` order.
    heap: BinaryHeap<Reverse<(SimTime, u32, u32)>>,
    stats: Rc<RefCell<CohortStats>>,
    label: String,
}

impl FlowCohort {
    /// A cohort of `phases.len()` flows sending every emission to
    /// `next`, their clocks driven by `schedule`. Member `m` is the m-th
    /// entry of the sorted phase vector; its first emission lands at
    /// `phase_m + T₁(m)` where `T₁` is the member's first interval draw,
    /// matching a `SenderGateway` built `with_start_phase(phase_m)`,
    /// whose first tick fires at `start_phase + T₁`. An empty cohort
    /// arms no timer.
    pub fn new(
        next: NodeId,
        phases: &[SimDuration],
        packet_size: u32,
        schedule: Box<dyn MemberSchedule>,
    ) -> (CohortHandle, Self) {
        let mut phases = phases.to_vec();
        phases.sort_unstable();
        let stats = Rc::new(RefCell::new(CohortStats::default()));
        (
            CohortHandle {
                stats: Rc::clone(&stats),
                flows: phases.len() as u32,
            },
            Self {
                next,
                flow: COHORT_FLOW,
                packet_size,
                size_law: None,
                jitter: None,
                sched: schedule,
                heap: BinaryHeap::with_capacity(phases.len()),
                phases,
                stats,
                label: "cohort".to_string(),
            },
        )
    }

    /// Emit under a specific wire flow id (default [`COHORT_FLOW`]).
    pub fn with_flow(mut self, flow: FlowId) -> Self {
        self.flow = flow;
        self
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

    /// Builder-style label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Install a wire-size law for variable-payload defences: each
    /// emission samples its size (floored to whole bytes, min 1).
    /// Deterministic laws make zero RNG draws, preserving bit-exactness.
    pub fn with_packet_size_law(mut self, law: Box<dyn ContinuousDist>) -> Self {
        self.size_law = Some(law);
        self
    }

    /// Member `member`'s next interval, floored to a nonzero duration so
    /// the re-armed timer always advances sim time (no same-instant
    /// livelock).
    #[inline]
    fn next_interval(&mut self, member: u32, rng: &mut Xoshiro256StarStar) -> SimDuration {
        let d = SimDuration::from_secs_f64(self.sched.next_interval_secs(member, rng));
        SimDuration::from_nanos(d.as_nanos().max(1))
    }

    /// Emit one member's packet: jitter δ, then wire size.
    #[inline]
    fn emit(&self, ctx: &mut Context<'_>) {
        let delay = self.jitter.as_ref().map(|j| j.sample_send_delay(ctx.rng));
        let size = match &self.size_law {
            Some(law) => law.sample(ctx.rng).floor().max(1.0) as u32,
            None => self.packet_size,
        };
        let pkt = ctx.spawn_packet(self.flow, PacketKind::Dummy, size);
        match delay {
            Some(d) => ctx.send_after(SimDuration::from_secs_f64(d), self.next, pkt),
            None => ctx.send_now(self.next, pkt),
        }
    }

    /// Arm the one engine timer at the heap minimum (none when empty).
    fn arm(&self, ctx: &mut Context<'_>) {
        if let Some(&Reverse((t, _, _))) = self.heap.peek() {
            ctx.schedule_timer(t.saturating_since(ctx.now()), TICK);
        }
    }
}

impl Node for FlowCohort {
    fn on_packet(&mut self, _packet: crate::packet::Packet, _ctx: &mut Context<'_>) {
        debug_assert!(false, "cohorts generate traffic; nothing routes to them");
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // Seed every member's first fire time in member order (one
        // interval draw each), merging consecutive equal times into runs.
        self.heap.clear();
        let mut run: Option<(SimTime, u32, u32)> = None;
        for m in 0..self.phases.len() as u32 {
            let t = SimTime::ZERO + self.phases[m as usize] + self.next_interval(m, ctx.rng);
            match &mut run {
                Some((at, _, len)) if *at == t => *len += 1,
                _ => {
                    if let Some(done) = run.replace((t, m, 1)) {
                        self.heap.push(Reverse(done));
                    }
                }
            }
        }
        if let Some(done) = run {
            self.heap.push(Reverse(done));
        }
        self.arm(ctx);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_>) {
        debug_assert_eq!(tag, TICK);
        let now = ctx.now();
        let mut emitted = 0u64;
        while let Some(&Reverse((t, first, len))) = self.heap.peek() {
            if t > now {
                break;
            }
            self.heap.pop();
            // The run keeps its first `kept` members while they draw the
            // first member's interval; later members go back alone.
            let (mut step, mut kept) = (SimDuration::ZERO, 0);
            for m in first..first + len {
                self.emit(ctx);
                let d = self.next_interval(m, ctx.rng);
                if kept == m - first && (kept == 0 || d == step) {
                    step = d;
                    kept += 1;
                } else {
                    self.heap.push(Reverse((t + d, m, 1)));
                }
            }
            self.heap.push(Reverse((t + step, first, kept)));
            emitted += u64::from(len);
        }
        self.stats.borrow_mut().emitted += emitted;
        self.arm(ctx);
    }

    fn reset(&mut self) {
        self.heap.clear();
        self.sched.reset();
        *self.stats.borrow_mut() = CohortStats::default();
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimBuilder;
    use crate::observer::WindowedObserver;
    use crate::tap::Tap;
    use linkpad_stats::dist::{Categorical, Deterministic};
    use linkpad_stats::rng::MasterSeed;
    use std::cell::Cell;

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

    #[test]
    fn comb_times_are_exact_nominal_instants() {
        let mut b = SimBuilder::new(MasterSeed::new(1));
        let (tap, node) = Tap::new(None, None);
        let tap_id = b.add_node(Box::new(node));
        let (handle, cohort) = FlowCohort::new(tap_id, &[ms(0.0), ms(2.0), ms(5.0)], 500, cit());
        b.add_node(Box::new(cohort));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(0.0255));
        // Flows at phases {0, 2, 5} ms: emissions at 10, 12, 15, 20, 22,
        // 25 ms — exactly, to the nanosecond (no jitter → no RNG).
        let nanos: Vec<u64> = tap.timestamps().iter().map(|t| t.as_nanos()).collect();
        assert_eq!(
            nanos,
            vec![10_000_000, 12_000_000, 15_000_000, 20_000_000, 22_000_000, 25_000_000]
        );
        assert_eq!(handle.emitted(), 6);
        assert_eq!(handle.flows(), 3);
    }

    /// Forwards to a cohort and records its largest heap size after
    /// every handler call.
    struct HeapWatch {
        cohort: FlowCohort,
        max_entries: Rc<Cell<usize>>,
    }

    impl Node for HeapWatch {
        fn on_packet(&mut self, packet: crate::packet::Packet, ctx: &mut Context<'_>) {
            self.cohort.on_packet(packet, ctx);
        }

        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.cohort.on_start(ctx);
            self.max_entries
                .set(self.max_entries.get().max(self.cohort.heap.len()));
        }

        fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_>) {
            self.cohort.on_timer(tag, ctx);
            self.max_entries
                .set(self.max_entries.get().max(self.cohort.heap.len()));
        }
    }

    #[test]
    fn synchronized_phases_collapse_into_bursts() {
        let mut b = SimBuilder::new(MasterSeed::new(2));
        let (tap, node) = Tap::new(None, None);
        let tap_id = b.add_node(Box::new(node));
        let (handle, cohort) = FlowCohort::new(tap_id, &[SimDuration::ZERO; 64], 500, cit());
        let max_entries = Rc::new(Cell::new(0));
        b.add_node(Box::new(HeapWatch {
            cohort,
            max_entries: Rc::clone(&max_entries),
        }));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(0.05));
        // 5 periods × 64 flows, all at exact multiples of τ, from one
        // heap entry for the whole run.
        assert_eq!(max_entries.get(), 1, "64 coincident members, one run");
        assert_eq!(handle.emitted(), 5 * 64);
        assert_eq!(tap.count(), 5 * 64);
        tap.with_timestamps(|ts| {
            assert!(ts.iter().all(|t| t.as_nanos() % TAU.as_nanos() == 0));
        });
    }

    #[test]
    fn window_counts_match_flows_times_windows_over_tau() {
        let mut b = SimBuilder::new(MasterSeed::new(3));
        let (obs, node) = WindowedObserver::new(ms(100.0));
        let obs_id = b.add_node(Box::new(node));
        let phases: Vec<SimDuration> = (0..40).map(|k| ms(0.25 * k as f64)).collect();
        let (_, cohort) = FlowCohort::new(obs_id, &phases, 500, cit());
        b.add_node(Box::new(cohort));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(1.0));
        // Full windows hold flows × W/τ = 40 × 10 arrivals.
        let counts = obs.counts();
        assert!(counts.len() >= 9);
        for &c in &counts[1..8] {
            assert_eq!(c, 400.0, "{counts:?}");
        }
    }

    #[test]
    fn jitter_shifts_sends_without_changing_counts() {
        let run = |jitter: Option<CohortJitter>| {
            let mut b = SimBuilder::new(MasterSeed::new(4));
            let (tap, node) = Tap::new(None, None);
            let tap_id = b.add_node(Box::new(node));
            let (_, mut cohort) = FlowCohort::new(tap_id, &[ms(0.0), ms(4.0)], 500, cit());
            if let Some(j) = jitter {
                cohort = cohort.with_jitter(j).unwrap();
            }
            b.add_node(Box::new(cohort));
            let mut sim = b.build().unwrap();
            // Stop mid-period so a µs jitter shift cannot push the last
            // emission past the run bound.
            sim.run_until(SimTime::from_secs_f64(0.9995));
            tap.timestamps()
        };
        let exact = run(None);
        let jittered = run(Some(CohortJitter {
            base_sigma: 6e-6,
            blocking_mean: 6e-6,
            arrival_prob: 0.1,
        }));
        assert_eq!(exact.len(), jittered.len(), "jitter never drops a tick");
        for (e, j) in exact.iter().zip(&jittered) {
            let shift = j.saturating_since(*e).as_secs_f64();
            assert!(
                (0.0..100e-6).contains(&shift),
                "µs-scale causal shift, got {shift}"
            );
        }
    }

    #[test]
    fn reset_replays_bit_identically() {
        let mut b = SimBuilder::new(MasterSeed::new(5));
        let (tap, node) = Tap::new(None, None);
        let tap_id = b.add_node(Box::new(node));
        let (handle, cohort) = FlowCohort::new(tap_id, &[ms(1.0), ms(7.0)], 500, cit());
        let jitter = CohortJitter {
            base_sigma: 6e-6,
            blocking_mean: 6e-6,
            arrival_prob: 0.4,
        };
        b.add_node(Box::new(cohort.with_jitter(jitter).unwrap()));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(0.5));
        let first = tap.timestamps();
        assert!(handle.emitted() > 0);
        sim.reset(MasterSeed::new(5));
        assert_eq!(handle.emitted(), 0, "reset clears instrumentation");
        sim.run_until(SimTime::from_secs_f64(0.5));
        assert_eq!(tap.timestamps(), first);
    }

    #[test]
    fn invalid_jitter_is_a_typed_error() {
        let mut b = SimBuilder::new(MasterSeed::new(6));
        let id = b.reserve();
        let jitter = |base_sigma, arrival_prob| {
            FlowCohort::new(id, &[ms(1.0)], 500, cit())
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
        for (phases, sched) in [
            (spread, law(Exponential::new(0.010).unwrap())),
            (vec![SimDuration::ZERO; 16], law(two_point())),
        ] {
            let mut b = SimBuilder::new(MasterSeed::new(12));
            let (tap, node) = Tap::new(None, None);
            let tap_id = b.add_node(Box::new(node));
            let (handle, cohort) = FlowCohort::new(tap_id, &phases, 500, sched);
            b.add_node(Box::new(cohort));
            let mut sim = b.build().unwrap();
            sim.run_until(SimTime::from_secs_f64(0.5));
            let first = tap.timestamps();
            assert!(handle.emitted() > 0);
            sim.reset(MasterSeed::new(12));
            assert_eq!(handle.emitted(), 0);
            sim.run_until(SimTime::from_secs_f64(0.5));
            assert_eq!(tap.timestamps(), first);
        }
    }

    #[test]
    fn stochastic_heap_rate_matches_the_law_mean() {
        // 32 members with exponential interval law of mean τ emit at
        // ~32/τ packets per second in steady state.
        let mut b = SimBuilder::new(MasterSeed::new(13));
        let (tap, node) = Tap::new(None, None);
        let tap_id = b.add_node(Box::new(node));
        let phases: Vec<SimDuration> = (0..32).map(|k| ms(0.25 * k as f64)).collect();
        let (_, cohort) =
            FlowCohort::new(tap_id, &phases, 500, law(Exponential::new(0.010).unwrap()));
        b.add_node(Box::new(cohort));
        let mut sim = b.build().unwrap();
        let secs = 20.0;
        sim.run_until(SimTime::from_secs_f64(secs));
        let expected = 32.0 * secs / 0.010;
        let got = tap.count() as f64;
        assert!(
            (got - expected).abs() / expected < 0.03,
            "got {got}, expected ~{expected}"
        );
    }

    #[test]
    fn size_law_draws_variable_wire_sizes() {
        let mut b = SimBuilder::new(MasterSeed::new(14));
        let (obs, node) = WindowedObserver::new(ms(100.0));
        let obs_id = b.add_node(Box::new(node));
        let (_, cohort) = FlowCohort::new(obs_id, &[ms(0.0), ms(3.0)], 500, cit());
        let law = Box::new(linkpad_stats::dist::Uniform::new(300.0, 901.0).unwrap());
        b.add_node(Box::new(cohort.with_packet_size_law(law)));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(2.0));
        let series = obs.window_series();
        let (count, bytes) = series
            .iter()
            .fold((0u64, 0u64), |(c, by), w| (c + w.count, by + w.bytes));
        assert!(count > 100);
        let mean = bytes as f64 / count as f64;
        // U[300, 901) floored to whole bytes has mean ≈ 600.
        assert!((mean - 600.0).abs() < 25.0, "mean wire size {mean}");
    }
}

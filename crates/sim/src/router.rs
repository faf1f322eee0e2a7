//! FIFO output-queued router.
//!
//! The router is the physical origin of the paper's `δ_net` disturbance
//! (eq. 10): the padded flow shares the router's egress link with cross
//! traffic, so padded packets are delayed by the *residual service time
//! and queue backlog* left by cross-traffic packets. As the shared-link
//! utilization grows, the variance of that delay grows, `r → 1`, and the
//! detection rate falls — the mechanism behind Fig. 6 and Fig. 8.
//!
//! Model: single egress with service rate `bits_per_sec`; all arrivals
//! (any input) join one FIFO queue with an unbounded buffer; fixed egress
//! propagation delay. A FIFO work-conserving queue knows each packet's
//! departure the moment it arrives, so a hop costs one event: the arrival
//! advances `busy_until` by the packet's transmit time and sends the
//! packet on to arrive at `busy_until + propagation`. Packets waiting for
//! the wire sit in the event store, not in a node-local queue.
//!
//! A router may also serve open-loop traffic of its own, which occupies
//! the egress and goes nowhere. Because that traffic is open-loop, the
//! backlog a packet meets depends only on the arrivals before it, so the
//! router draws them lazily: when a packet arrives at `now`, it first
//! serves, in arrival order, every arrival of its own at or before
//! `now`, then the packet. An arrival of its own at exactly `now` is
//! served before the arriving packet. Such traffic costs no events at
//! all. It comes in two kinds, and a router serves one or the other:
//!
//! * *cross traffic* ([`Router::with_cross_traffic`]), a lab hop's
//!   renewal process of arrivals, already in arrival order;
//! * *cohort traffic* ([`Router::with_cohort`]), an aggregate trunk's
//!   [`FlowCohort`]s. Their fires come in `(emission instant, cohort,
//!   member)` order, each fire's arrival is shifted by its jitter δ ≥ 0,
//!   and the shifted arrivals wait in a small heap keyed by `(arrival
//!   instant, draw sequence)` until the router serves them: every
//!   arrival at or before the next fire instant is final. The router
//!   also serves cohort arrivals at or before the horizon when a run
//!   segment ends ([`Node::on_horizon`]), so a trunk that no engine
//!   packet reaches still carries its cohorts.
//!
//! A trunk's fault gate ([`Router::with_gate`]) decides every arrival's
//! fate, its own traffic's and engine-delivered packets alike, in
//! service order before it joins the queue.
//!
//! An aggregate's trunk is an *observed* router ([`Router::observed`]):
//! it owns the [`WindowedObserver`] at the far end of its egress and
//! folds each packet's far-end arrival there itself, so no packet waits
//! in the event store to be recorded. An arrival's far-end instant
//! `busy_until + propagation` is known when the packet reaches the
//! router, and FIFO service with a constant propagation delay makes
//! those instants arrive in time order. The router keeps the instants
//! and sizes not yet due in a FIFO, and folds every one at or before
//! `now` when a packet arrives, or at or before the horizon when a run
//! segment ends. The observer therefore folds the per-event wiring's
//! arrivals in the same order, and its handle reads the same series
//! after every run segment.
//!
//! **Information barrier:** the observer records what a passive wire
//! tap sees, arrival instants and on-the-wire sizes, never packet kinds
//! or flow ids (packets are "perfectly encrypted" in the threat model).
//! The observed router reads one flow id, the padded flow's
//! ([`FlowId::PADDED`](crate::packet::FlowId::PADDED), an aggregate's
//! target), and only to decide whether a packet goes on: every other
//! flow ends at the trunk, because nothing behind an aggregate's trunk
//! reads it.

use crate::cohort::FlowCohort;
use crate::engine::Context;
use crate::fault::LossyGate;
use crate::node::{Node, NodeId};
use crate::observer::WindowedObserver;
use crate::packet::Packet;
use crate::time::{SimDuration, SimTime};
use linkpad_stats::dist::ContinuousDist;
use linkpad_stats::rng::Xoshiro256StarStar;
use linkpad_stats::StatsError;
use rand_core::RngCore;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Transmit time of `size_bytes` on an egress of `bits_per_sec`, in the
/// router's integer nanoseconds.
fn transmit_time(size_bytes: u32, bits_per_sec: f64) -> SimDuration {
    SimDuration::from_secs_f64(f64::from(size_bytes) * 8.0 / bits_per_sec)
}

/// The egress link: FIFO service at a fixed rate, then a fixed
/// propagation delay to the far end.
#[derive(Debug)]
struct Wire {
    bits_per_sec: f64,
    propagation: SimDuration,
    /// When the egress finishes the last packet accepted so far.
    busy_until: SimTime,
}

impl Wire {
    /// Queue a packet of `size_bytes` arriving at `at` behind every
    /// packet accepted so far; returns the instant it reaches the far
    /// end.
    #[inline]
    fn accept(&mut self, at: SimTime, size_bytes: u32) -> SimTime {
        self.busy_until = self.busy_until.max(at) + transmit_time(size_bytes, self.bits_per_sec);
        self.busy_until + self.propagation
    }
}

/// An open-loop cross-traffic process served on a router's egress.
#[derive(Debug)]
struct CrossTraffic {
    /// Inter-arrival law (seconds).
    interval: Box<dyn ContinuousDist>,
    /// Packet-size law (bytes, rounded and clamped to at least 1).
    size: Box<dyn ContinuousDist>,
    /// When the next cross packet arrives; `SimTime::MAX` until
    /// `on_start` draws the first gap.
    next_at: SimTime,
}

/// The cohorts a router serves, drawn on demand (see the module doc).
#[derive(Debug, Default)]
struct CohortFeed {
    cohorts: Vec<FlowCohort>,
    /// `(next fire instant, cohort index)` of every started, non-empty
    /// cohort: the merge that fires cohorts in `(instant, cohort)` order.
    fires: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// Fired arrivals not yet served, `(instant, draw sequence, size)`.
    arrivals: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Arrivals drawn since start: the next one's draw sequence.
    drawn: u64,
}

impl CohortFeed {
    /// Start every cohort on a stream of its own, seeded by one draw of
    /// `rng` per cohort in cohort order. The feed is as built: fresh, or
    /// reset since its last run.
    fn start(&mut self, rng: &mut Xoshiro256StarStar) {
        for (i, cohort) in self.cohorts.iter_mut().enumerate() {
            cohort.start(Xoshiro256StarStar::from_u64(rng.next_u64()));
            if let Some(t) = cohort.next_fire() {
                self.fires.push(Reverse((t, i as u32)));
            }
        }
    }

    /// The next cohort arrival at or before `bound` in service order,
    /// firing cohorts until no later fire can precede it.
    #[inline]
    fn next_through(&mut self, bound: SimTime) -> Option<(SimTime, u32)> {
        loop {
            let next_fire = self.fires.peek().map(|f| f.0 .0);
            if let Some(&Reverse((at, _, size))) = self.arrivals.peek() {
                // A later fire arrives at or after its fire instant, and
                // ties go by draw sequence, so this arrival is next.
                if at <= bound && next_fire.is_none_or(|f| at <= f) {
                    self.arrivals.pop();
                    return Some((at, size));
                }
            }
            if next_fire.is_none_or(|f| f > bound) {
                return None;
            }
            self.fire_next();
        }
    }

    /// Fire the cohort that fires next, queueing its arrivals.
    fn fire_next(&mut self) {
        let Some(mut next) = self.fires.peek_mut() else {
            return;
        };
        let cohort = &mut self.cohorts[next.0 .1 as usize];
        let (arrivals, drawn) = (&mut self.arrivals, &mut self.drawn);
        cohort.fire(|at, size| {
            arrivals.push(Reverse((at, *drawn, size)));
            *drawn += 1;
        });
        // A started member always fires again.
        if let Some(t) = cohort.next_fire() {
            next.0 .0 = t;
        }
    }

    fn reset(&mut self) {
        for cohort in &mut self.cohorts {
            cohort.reset();
        }
        self.fires.clear();
        self.arrivals.clear();
        self.drawn = 0;
    }
}

/// Where the egress leads.
#[derive(Debug)]
enum Egress {
    /// Every packet goes on to the next hop.
    Forward(NodeId),
    /// An observer watches the far end (see the module doc).
    Observed(FarEnd),
}

/// The observed far end of a trunk's egress.
#[derive(Debug)]
struct FarEnd {
    observer: WindowedObserver,
    /// Far-end arrivals not yet folded, `(instant, size)`, in time order.
    pending: VecDeque<(SimTime, u32)>,
    /// Where the padded flow goes on; `None` forwards nothing.
    target: Option<NodeId>,
}

impl Egress {
    /// Note a packet of `size_bytes` that reached the egress at `at` and
    /// reaches the far end at `far`: an observed far end folds what is
    /// due by `at` and keeps the new arrival until it is due.
    #[inline]
    fn record(&mut self, at: SimTime, far: SimTime, size_bytes: u32) {
        if let Egress::Observed(far_end) = self {
            far_end.observer.fold_through(&mut far_end.pending, at);
            far_end.pending.push_back((far, size_bytes));
        }
    }
}

/// A store-and-forward router with one egress.
#[derive(Debug)]
pub struct Router {
    wire: Wire,
    egress: Egress,
    /// Cross traffic served on the egress, drawn lazily.
    cross: Option<CrossTraffic>,
    /// Cohort traffic served on the egress, drawn on demand.
    cohorts: CohortFeed,
    /// Decides every arrival's fate before it joins the queue.
    gate: Option<LossyGate>,
    label: String,
}

impl Router {
    /// A router forwarding to `next` over an egress of `bits_per_sec`,
    /// with the given propagation delay to the next hop.
    ///
    /// # Panics
    /// Panics on a non-positive bandwidth (topology constant).
    pub fn new(next: NodeId, bits_per_sec: f64, propagation: SimDuration) -> Self {
        Self::with_egress(Egress::Forward(next), bits_per_sec, propagation)
    }

    /// An observed trunk router (see the module doc): `observer` records
    /// every packet's arrival at the far end of the egress, packets of
    /// the padded flow go on to `target` at that instant, and every
    /// other packet ends there. With no `target` nothing goes on.
    ///
    /// # Panics
    /// Panics on a non-positive bandwidth (topology constant).
    pub fn observed(
        observer: WindowedObserver,
        target: Option<NodeId>,
        bits_per_sec: f64,
        propagation: SimDuration,
    ) -> Self {
        let far_end = FarEnd {
            observer,
            pending: VecDeque::new(),
            target,
        };
        Self::with_egress(Egress::Observed(far_end), bits_per_sec, propagation)
    }

    fn with_egress(egress: Egress, bits_per_sec: f64, propagation: SimDuration) -> Self {
        assert!(
            bits_per_sec.is_finite() && bits_per_sec > 0.0,
            "router bandwidth must be positive, got {bits_per_sec}"
        );
        Self {
            wire: Wire {
                bits_per_sec,
                propagation,
                busy_until: SimTime::ZERO,
            },
            egress,
            cross: None,
            cohorts: CohortFeed::default(),
            gate: None,
            label: "router".to_string(),
        }
    }

    /// Builder-style cross traffic: an open-loop renewal process with
    /// gaps from `interval` (seconds) and sizes from `size` (bytes,
    /// rounded and clamped to at least 1), served on the egress and then
    /// dropped. The arrivals draw from the router's own RNG stream.
    ///
    /// Rejects an interval law whose mean is not finite and positive:
    /// serving arrivals that never advance the clock would never end.
    pub fn with_cross_traffic(
        mut self,
        interval: Box<dyn ContinuousDist>,
        size: Box<dyn ContinuousDist>,
    ) -> Result<Self, StatsError> {
        let mean = interval.mean();
        if !mean.is_finite() {
            return Err(StatsError::NonFinite {
                what: "cross-traffic mean interval",
                value: mean,
            });
        }
        if mean <= 0.0 {
            return Err(StatsError::NonPositive {
                what: "cross-traffic mean interval",
                value: mean,
            });
        }
        self.cross = Some(CrossTraffic {
            interval,
            size,
            next_at: SimTime::MAX,
        });
        Ok(self)
    }

    /// Builder-style cohort traffic: `cohort`'s emissions are served on
    /// the egress, recorded at an observed far end, and end there. At
    /// start the router hands each cohort, in the order they were added,
    /// a stream seeded by one draw of its own stream (after the gate's).
    pub fn with_cohort(mut self, cohort: FlowCohort) -> Self {
        self.cohorts.cohorts.push(cohort);
        self
    }

    /// Builder-style fault gate: every arrival, cohort traffic included,
    /// meets `gate` before the queue, and only survivors are served. At
    /// start the gate's RNG takes the first draw of the router's stream.
    pub fn with_gate(mut self, gate: LossyGate) -> Self {
        self.gate = Some(gate);
        self
    }

    /// Builder-style label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Serve every cohort arrival at or before `bound`, in order.
    #[inline]
    fn serve_cohorts(&mut self, bound: SimTime) {
        let Self {
            wire,
            egress,
            cohorts,
            gate,
            ..
        } = self;
        while let Some((at, size)) = cohorts.next_through(bound) {
            if gate.as_mut().is_none_or(|g| g.passes(at)) {
                let far = wire.accept(at, size);
                egress.record(at, far, size);
            }
        }
    }
}

impl Node for Router {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        let now = ctx.now();
        // Serve the cross arrivals at or before `now` first, in arrival
        // order, drawing in `DistSource`'s order: size, then next gap.
        if let Some(cross) = &mut self.cross {
            while cross.next_at <= now {
                let size = cross.size.sample(ctx.rng).round().max(1.0) as u32;
                self.wire.accept(cross.next_at, size);
                cross.next_at +=
                    SimDuration::from_secs_f64(cross.interval.sample(ctx.rng).max(0.0));
            }
        }
        self.serve_cohorts(now);
        if let Some(gate) = &mut self.gate {
            if !gate.passes(now) {
                return;
            }
        }
        let arrival = self.wire.accept(now, packet.size_bytes);
        self.egress.record(now, arrival, packet.size_bytes);
        let next = match &self.egress {
            Egress::Forward(next) => Some(*next),
            Egress::Observed(far_end) => far_end.target.filter(|_| packet.is_padded_flow()),
        };
        if let Some(next) = next {
            ctx.send_after(arrival - now, next, packet);
        }
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if let Some(cross) = &mut self.cross {
            let gap = cross.interval.sample(ctx.rng).max(0.0);
            cross.next_at = ctx.now() + SimDuration::from_secs_f64(gap);
        }
        if let Some(gate) = &mut self.gate {
            gate.start(ctx.rng.next_u64());
        }
        self.cohorts.start(ctx.rng);
    }

    fn reset(&mut self) {
        self.wire.busy_until = SimTime::ZERO;
        if let Some(cross) = &mut self.cross {
            cross.next_at = SimTime::MAX;
        }
        self.cohorts.reset();
        if let Some(gate) = &mut self.gate {
            gate.reset();
        }
        if let Egress::Observed(far_end) = &mut self.egress {
            far_end.pending.clear();
            far_end.observer.reset();
        }
    }

    fn on_horizon(&mut self, horizon: SimTime) {
        self.serve_cohorts(horizon);
        if let Egress::Observed(far_end) = &mut self.egress {
            far_end.observer.fold_through(&mut far_end.pending, horizon);
        }
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cohort::{CohortJitter, LawSchedule};
    use crate::engine::{Sim, SimBuilder};
    use crate::fault::{FaultGateHandle, LossModel, OutageSchedule};
    use crate::observer::{ObserverHandle, WindowStats};
    use crate::packet::{FlowId, PacketKind};
    use crate::tap::{Tap, TapHandle};
    use linkpad_stats::dist::{Categorical, Deterministic, Exponential, Pareto};
    use linkpad_stats::rng::{MasterSeed, Xoshiro256StarStar};
    use std::cell::{Cell, RefCell};
    use std::collections::VecDeque;
    use std::rc::Rc;

    /// Sends one packet of `flow` and `size` bytes into `dst` at each
    /// listed instant.
    struct Sender {
        dst: NodeId,
        flow: FlowId,
        size: u32,
        at_ns: Vec<u64>,
    }
    impl Node for Sender {
        fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for &t in &self.at_ns {
                let pkt = ctx.spawn_packet(self.flow, PacketKind::Payload, self.size);
                ctx.send_after(SimDuration::from_nanos(t), self.dst, pkt);
            }
        }
    }

    /// Arrival times at the sink, in nanoseconds.
    fn arrival_ns(handle: &TapHandle) -> Vec<u64> {
        handle.timestamps().iter().map(|t| t.as_nanos()).collect()
    }

    /// Terminal node logging each arrival's instant and flow, for tests
    /// that split a sink's arrivals by flow (a [`Tap`] records instants
    /// only).
    #[derive(Clone, Default)]
    struct FlowLog(Rc<RefCell<Vec<(SimTime, FlowId)>>>);
    impl FlowLog {
        /// Arrival instants of `flow`, in order.
        fn of(&self, flow: FlowId) -> Vec<SimTime> {
            let log = self.0.borrow();
            log.iter().filter(|a| a.1 == flow).map(|a| a.0).collect()
        }
        fn count(&self) -> usize {
            self.0.borrow().len()
        }
    }
    impl Node for FlowLog {
        fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
            self.0.borrow_mut().push((ctx.now(), packet.flow));
        }
        fn reset(&mut self) {
            self.0.borrow_mut().clear();
        }
    }

    #[test]
    fn fifo_service_spaces_departures() {
        let mut b = SimBuilder::new(MasterSeed::new(1));
        let (handle, sink) = Tap::new(None, None);
        let sink_id = b.add_node(Box::new(sink));
        // 100 Mb/s: 500 B → 40 µs service.
        let router = Router::new(sink_id, 100e6, SimDuration::ZERO);
        assert_eq!(router.label(), "router");
        let router = router.with_label("esr-5000");
        assert_eq!(router.label(), "esr-5000");
        let r = b.add_node(Box::new(router));
        b.add_node(Box::new(Sender {
            dst: r,
            flow: FlowId::PADDED,
            size: 500,
            at_ns: vec![0; 3],
        }));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(arrival_ns(&handle), vec![40_000, 80_000, 120_000]);
        // One event per hop: three sends and three deliveries.
        assert_eq!(sim.events_processed(), 6);
    }

    #[test]
    fn propagation_adds_constant_delay() {
        let mut b = SimBuilder::new(MasterSeed::new(2));
        let (handle, sink) = Tap::new(None, None);
        let sink_id = b.add_node(Box::new(sink));
        let prop = SimDuration::from_millis_f64(5.0);
        let r = b.add_node(Box::new(Router::new(sink_id, 100e6, prop)));
        b.add_node(Box::new(Sender {
            dst: r,
            flow: FlowId::PADDED,
            size: 1000,
            at_ns: vec![0; 2],
        }));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(1.0));
        // 80 µs serialization each, then 5 ms on the wire.
        assert_eq!(arrival_ns(&handle), vec![5_080_000, 5_160_000]);
    }

    #[test]
    fn idle_router_transmits_immediately() {
        let mut b = SimBuilder::new(MasterSeed::new(3));
        let (handle, sink) = Tap::new(None, None);
        let sink_id = b.add_node(Box::new(sink));
        let r = b.add_node(Box::new(Router::new(sink_id, 1e9, SimDuration::ZERO)));
        b.add_node(Box::new(Sender {
            dst: r,
            flow: FlowId::PADDED,
            size: 125,
            at_ns: vec![1_000_000, 2_000_000],
        }));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(1.0));
        // 125 B at 1 Gb/s = 1 µs serialization; the wire idles between.
        assert_eq!(arrival_ns(&handle), vec![1_001_000, 2_001_000]);
    }

    #[test]
    fn reset_forgets_the_backlog() {
        let mut b = SimBuilder::new(MasterSeed::new(4));
        let (handle, sink) = Tap::new(None, None);
        let sink_id = b.add_node(Box::new(sink));
        let r = b.add_node(Box::new(Router::new(sink_id, 100e6, SimDuration::ZERO)));
        b.add_node(Box::new(Sender {
            dst: r,
            flow: FlowId::PADDED,
            size: 500,
            at_ns: vec![0; 3],
        }));
        let mut sim = b.build().unwrap();
        // Stop mid-backlog: the router has committed the wire to 120 µs.
        sim.run_until(SimTime::from_nanos(50_000));
        sim.reset(MasterSeed::new(4));
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(arrival_ns(&handle), vec![40_000, 80_000, 120_000]);
    }

    #[test]
    fn cross_traffic_perturbs_padded_flow_timing() {
        // A padded CBR flow shares the router with a bursty cross flow;
        // padded inter-arrival variance at the sink must exceed the
        // no-cross-traffic case. This is δ_net in miniature.
        fn piat_variance(with_cross: bool) -> f64 {
            let mut b = SimBuilder::new(MasterSeed::new(42));
            let (handle, sink) = Tap::on_padded_flow(None);
            let sink_id = b.add_node(Box::new(sink));
            let r = b.add_node(Box::new(Router::new(sink_id, 10e6, SimDuration::ZERO)));

            /// CBR source, 1 kHz, 500 B, padded flow.
            struct Cbr {
                dst: NodeId,
            }
            impl Node for Cbr {
                fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
                fn on_start(&mut self, ctx: &mut Context<'_>) {
                    ctx.schedule_timer(SimDuration::from_millis_f64(1.0), 0);
                }
                fn on_timer(&mut self, _t: u64, ctx: &mut Context<'_>) {
                    let pkt = ctx.spawn_packet(FlowId::PADDED, PacketKind::Dummy, 500);
                    ctx.send_now(self.dst, pkt);
                    ctx.schedule_timer(SimDuration::from_millis_f64(1.0), 0);
                }
            }
            /// Poisson-ish cross source using the node RNG.
            struct Cross {
                dst: NodeId,
            }
            impl Node for Cross {
                fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
                fn on_start(&mut self, ctx: &mut Context<'_>) {
                    ctx.schedule_timer(SimDuration::from_micros_f64(700.0), 0);
                }
                fn on_timer(&mut self, _t: u64, ctx: &mut Context<'_>) {
                    let pkt = ctx.spawn_packet(FlowId::CROSS, PacketKind::Cross, 1500);
                    ctx.send_now(self.dst, pkt);
                    let u = ctx.rng.next_f64();
                    let gap = -700.0 * (1.0 - u).ln();
                    ctx.schedule_timer(SimDuration::from_micros_f64(gap.max(1.0)), 0);
                }
            }
            b.add_node(Box::new(Cbr { dst: r }));
            if with_cross {
                b.add_node(Box::new(Cross { dst: r }));
            }
            let mut sim = b.build().unwrap();
            sim.run_until(SimTime::from_secs_f64(20.0));
            let times = handle.timestamps();
            let piats: Vec<f64> = times
                .windows(2)
                .map(|w| (w[1].saturating_since(w[0])).as_secs_f64())
                .collect();
            linkpad_stats::moments::sample_variance(&piats).unwrap()
        }
        let quiet = piat_variance(false);
        let noisy = piat_variance(true);
        assert!(
            noisy > quiet * 10.0,
            "cross traffic must inflate PIAT variance: quiet={quiet:e}, noisy={noisy:e}"
        );
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn bad_bandwidth_panics() {
        let _ = Router::new(NodeId(0), -1.0, SimDuration::ZERO);
    }

    #[test]
    fn cross_traffic_needs_a_finite_positive_mean_gap() {
        let router = || Router::new(NodeId(0), 1e9, SimDuration::ZERO);
        let size = || -> Box<dyn ContinuousDist> { Box::new(Deterministic::new(500.0).unwrap()) };
        let zero = Box::new(Deterministic::new(0.0).unwrap());
        assert!(matches!(
            router().with_cross_traffic(zero, size()),
            Err(StatsError::NonPositive { .. })
        ));
        // Tail index 1: the Pareto mean diverges.
        let heavy = Box::new(Pareto::new(1e-6, 1.0).unwrap());
        assert!(matches!(
            router().with_cross_traffic(heavy, size()),
            Err(StatsError::NonFinite { .. })
        ));
        let poisson = Box::new(Exponential::with_rate(1e3).unwrap());
        assert!(router().with_cross_traffic(poisson, size()).is_ok());
    }

    // ------------------------------------------------ reference model --

    /// Tie cases the reference model saw, so the equivalence test cannot
    /// pass on traffic that never exercises them.
    #[derive(Debug, Default)]
    struct Ties {
        /// Arrivals at the same instant as the previous arrival.
        same_instant: Cell<u64>,
        /// Arrivals at the instant the packet in service completes,
        /// dispatched before its completion timer.
        before_departure: Cell<u64>,
        /// Arrivals at an instant whose completion timer already fired.
        after_departure: Cell<u64>,
        /// Completion timers fired: packets routed.
        routed: Cell<u64>,
    }

    fn bump(c: &Cell<u64>) {
        c.set(c.get() + 1);
    }

    /// The two-event FIFO router, kept as the reference model for
    /// [`Router`]: an arrival starts service or joins a node-local
    /// FIFO, and a service-completion timer forwards the packet in
    /// service and starts the next one. Two events per hop.
    struct ServiceTimerRouter {
        next: NodeId,
        bits_per_sec: f64,
        propagation: SimDuration,
        queue: VecDeque<Packet>,
        /// The packet on the wire and the instant it completes.
        in_service: Option<(Packet, SimTime)>,
        last_arrival: Option<SimTime>,
        last_departure: Option<SimTime>,
        ties: Rc<Ties>,
    }

    impl ServiceTimerRouter {
        fn start_service(&mut self, packet: Packet, ctx: &mut Context<'_>) {
            let tx = SimDuration::from_secs_f64(packet.tx_time_secs(self.bits_per_sec));
            self.in_service = Some((packet, ctx.now() + tx));
            ctx.schedule_timer(tx, 0);
        }
    }

    impl Node for ServiceTimerRouter {
        fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
            let now = ctx.now();
            if self.last_arrival == Some(now) {
                bump(&self.ties.same_instant);
            }
            if matches!(self.in_service, Some((_, done)) if done == now) {
                bump(&self.ties.before_departure);
            }
            if self.last_departure == Some(now) {
                bump(&self.ties.after_departure);
            }
            self.last_arrival = Some(now);
            if self.in_service.is_none() {
                self.start_service(packet, ctx);
            } else {
                self.queue.push_back(packet);
            }
        }

        fn on_timer(&mut self, _tag: u64, ctx: &mut Context<'_>) {
            let (packet, _) = self.in_service.take().expect("a packet in service");
            bump(&self.ties.routed);
            self.last_departure = Some(ctx.now());
            ctx.send_after(self.propagation, self.next, packet);
            if let Some(next) = self.queue.pop_front() {
                self.start_service(next, ctx);
            }
        }
    }

    /// Emits `count` packets of one flow, drawing each packet's size
    /// and its gap to the next from the given lists. The packet is
    /// scheduled one gap ahead (`send_after`), so at a shared instant its
    /// delivery can sort before or after a router's completion timer.
    struct GridSource {
        dst: NodeId,
        flow: FlowId,
        sizes: &'static [u32],
        gaps_us: &'static [u64],
        count: u32,
        sent: u32,
    }

    fn pick<T: Copy>(ctx: &mut Context<'_>, from: &[T]) -> T {
        from[(ctx.rng.next_f64() * from.len() as f64) as usize]
    }

    impl GridSource {
        fn emit(&mut self, ctx: &mut Context<'_>) {
            if self.sent == self.count {
                return;
            }
            self.sent += 1;
            let size = pick(ctx, self.sizes);
            let gap = SimDuration::from_nanos(1_000 * pick(ctx, self.gaps_us));
            let pkt = ctx.spawn_packet(self.flow, PacketKind::Payload, size);
            ctx.send_after(gap, self.dst, pkt);
            ctx.schedule_timer(gap, 0);
        }
    }

    impl Node for GridSource {
        fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.emit(ctx);
        }
        fn on_timer(&mut self, _tag: u64, ctx: &mut Context<'_>) {
            self.emit(ctx);
        }
        fn reset(&mut self) {
            self.sent = 0;
        }
    }

    /// A padded CBR flow and a cross flow through one 8 Mb/s egress, run
    /// until every packet has drained. Every gap is a whole number of
    /// microseconds and a byte takes 1 µs on the wire, so arrivals and
    /// departures share one grid and tie exactly.
    fn run_grid(reference: Option<Rc<Ties>>) -> (Sim, FlowLog) {
        const BPS: f64 = 8e6;
        let prop = SimDuration::from_nanos(3_000);
        let mut b = SimBuilder::new(MasterSeed::new(15));
        let handle = FlowLog::default();
        let sink_id = b.add_node(Box::new(handle.clone()));
        let router = match reference {
            Some(ties) => b.add_node(Box::new(ServiceTimerRouter {
                next: sink_id,
                bits_per_sec: BPS,
                propagation: prop,
                queue: VecDeque::new(),
                in_service: None,
                last_arrival: None,
                last_departure: None,
                ties,
            })),
            None => b.add_node(Box::new(Router::new(sink_id, BPS, prop))),
        };
        b.add_node(Box::new(GridSource {
            dst: router,
            flow: FlowId::PADDED,
            sizes: &[500],
            gaps_us: &[2_000],
            count: 1_000,
            sent: 0,
        }));
        b.add_node(Box::new(GridSource {
            dst: router,
            flow: FlowId::CROSS,
            sizes: &[64, 550, 1500],
            gaps_us: &[0, 100, 550, 1_000, 1_500, 2_000, 2_500, 4_000],
            count: 1_400,
            sent: 0,
        }));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::MAX);
        assert_eq!(sim.pending_events(), 0, "every packet drained");
        (sim, handle)
    }

    #[test]
    fn departures_at_arrival_match_the_service_timer_reference() {
        let ties = Rc::new(Ties::default());
        let (reference, ref_sink) = run_grid(Some(Rc::clone(&ties)));
        let (sim, sink) = run_grid(None);

        for flow in [FlowId::PADDED, FlowId::CROSS] {
            assert_eq!(
                sink.of(flow),
                ref_sink.of(flow),
                "{flow:?}: sink arrivals differ from the reference model"
            );
        }
        let routed = ties.routed.get();
        assert_eq!(routed, 2_400);
        assert_eq!(sink.count() as u64, routed);
        assert_eq!(
            reference.events_processed() - sim.events_processed(),
            routed,
            "one completion timer per routed packet is the only difference"
        );
        // The traffic must exercise every tie the FIFO order rests on.
        for (what, n) in [
            ("same-instant arrivals", ties.same_instant.get()),
            (
                "arrivals before a same-instant completion",
                ties.before_departure.get(),
            ),
            (
                "arrivals after a same-instant completion",
                ties.after_departure.get(),
            ),
        ] {
            assert!(n > 0, "the traffic produced no {what}");
        }
    }

    // --------------------------------------------- lazy cross traffic --

    /// Cross-traffic gaps of the grid runs, in microseconds: whole
    /// microseconds and never zero, so a cross packet scheduled one gap
    /// ahead is always scheduled before the instant it arrives.
    const CROSS_GAPS_US: [f64; 6] = [100.0, 550.0, 1_000.0, 1_500.0, 2_500.0, 4_000.0];
    /// Padded packets of the grid runs, one every 2 ms.
    const PADDED: u64 = 1_000;
    const PADDED_PERIOD_NS: u64 = 2_000_000;

    fn grid_gaps() -> Box<dyn ContinuousDist> {
        let pairs: Vec<(f64, f64)> = CROSS_GAPS_US.iter().map(|&us| (us * 1e-6, 1.0)).collect();
        Box::new(Categorical::new(&pairs).unwrap())
    }

    fn grid_sizes() -> Box<dyn ContinuousDist> {
        Box::new(Categorical::new(&[(64.0, 1.0), (550.0, 1.0), (1500.0, 1.0)]).unwrap())
    }

    /// Sends `remaining` 500 B padded packets, one per `period`, each
    /// from a timer at the instant it arrives.
    struct Metronome {
        dst: NodeId,
        period: SimDuration,
        remaining: u64,
    }

    impl Node for Metronome {
        fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.schedule_timer(self.period, 0);
        }
        fn on_timer(&mut self, _tag: u64, ctx: &mut Context<'_>) {
            let pkt = ctx.spawn_packet(FlowId::PADDED, PacketKind::Dummy, 500);
            ctx.send_now(self.dst, pkt);
            self.remaining -= 1;
            if self.remaining > 0 {
                ctx.schedule_timer(self.period, 0);
            }
        }
    }

    /// The per-packet wiring of [`Router::with_cross_traffic`]: replays
    /// the lazy router's draws, in its order, from a clone of its RNG
    /// stream, and schedules each cross packet one gap ahead. A cross
    /// delivery is therefore always scheduled before a padded packet
    /// sent at the instant it arrives, and a plain router serves it
    /// first: the lazy router's tie rule.
    struct EagerCross {
        dst: NodeId,
        rng: Xoshiro256StarStar,
        interval: Box<dyn ContinuousDist>,
        size: Box<dyn ContinuousDist>,
        /// No cross packet arrives after this instant.
        until: SimTime,
        /// Arrival instants of the cross packets sent, in order.
        sent: Rc<RefCell<Vec<SimTime>>>,
    }

    impl EagerCross {
        fn emit(&mut self, ctx: &mut Context<'_>) {
            let gap = SimDuration::from_secs_f64(self.interval.sample(&mut self.rng).max(0.0));
            if ctx.now() + gap > self.until {
                return;
            }
            let size = self.size.sample(&mut self.rng).round().max(1.0) as u32;
            let pkt = ctx.spawn_packet(FlowId::CROSS, PacketKind::Cross, size);
            ctx.send_after(gap, self.dst, pkt);
            ctx.schedule_timer(gap, 0);
            self.sent.borrow_mut().push(ctx.now() + gap);
        }
    }

    impl Node for EagerCross {
        fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.emit(ctx);
        }
        fn on_timer(&mut self, _tag: u64, ctx: &mut Context<'_>) {
            self.emit(ctx);
        }
    }

    /// A padded metronome and grid cross traffic through one 8 Mb/s
    /// egress, run until every packet has drained: on the lazy router
    /// when `eager` is `None`, else on a plain router fed by an
    /// [`EagerCross`] that logs into `eager`. A byte takes 1 µs on the
    /// wire and every gap is whole microseconds, so cross and padded
    /// arrivals tie exactly.
    fn run_cross_grid(eager: Option<Rc<RefCell<Vec<SimTime>>>>) -> (Sim, FlowLog) {
        const SEED: u64 = 16;
        const BPS: f64 = 8e6;
        let mut b = SimBuilder::new(MasterSeed::new(SEED));
        let handle = FlowLog::default();
        let sink_id = b.add_node(Box::new(handle.clone()));
        let router = Router::new(sink_id, BPS, SimDuration::from_nanos(3_000));
        let router_id = match eager {
            Some(_) => b.add_node(Box::new(router)),
            None => b.add_node(Box::new(
                router
                    .with_cross_traffic(grid_gaps(), grid_sizes())
                    .unwrap(),
            )),
        };
        b.add_node(Box::new(Metronome {
            dst: router_id,
            period: SimDuration::from_nanos(PADDED_PERIOD_NS),
            remaining: PADDED,
        }));
        if let Some(sent) = eager {
            b.add_node(Box::new(EagerCross {
                dst: router_id,
                rng: MasterSeed::new(SEED).stream(router_id.index() as u64),
                interval: grid_gaps(),
                size: grid_sizes(),
                until: SimTime::from_nanos(PADDED * PADDED_PERIOD_NS),
                sent,
            }));
        }
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::MAX);
        assert_eq!(sim.pending_events(), 0, "every packet drained");
        (sim, handle)
    }

    #[test]
    fn lazy_cross_traffic_matches_an_eager_source_on_the_same_draws() {
        let sent = Rc::new(RefCell::new(Vec::new()));
        let (reference, ref_sink) = run_cross_grid(Some(Rc::clone(&sent)));
        let (lazy, sink) = run_cross_grid(None);

        let padded = sink.of(FlowId::PADDED);
        assert_eq!(padded.len() as u64, PADDED);
        assert_eq!(
            padded,
            ref_sink.of(FlowId::PADDED),
            "padded departures differ from the eager wiring"
        );
        assert_eq!(sink.count() as u64, PADDED, "cross traffic goes nowhere");

        // A tie is a cross arrival at a padded instant. Each flow leaves
        // in FIFO order, so the eager wiring's j-th cross departure is
        // its j-th cross arrival, and likewise for the padded flow.
        let sent = sent.borrow();
        let cross_out = ref_sink.of(FlowId::CROSS);
        assert_eq!(cross_out.len(), sent.len());
        let mut ties = 0;
        for (j, t) in sent.iter().enumerate() {
            let ns = t.as_nanos();
            if ns % PADDED_PERIOD_NS == 0 {
                let k = (ns / PADDED_PERIOD_NS - 1) as usize;
                assert!(
                    cross_out[j] < padded[k],
                    "tie at {ns} ns served padded-first"
                );
                ties += 1;
            }
        }
        assert!(ties > 0, "the traffic produced no cross/padded ties");
        // Each cross packet cost the eager wiring a source timer, a
        // router delivery and a sink delivery, and the lazy router none.
        assert_eq!(
            reference.events_processed() - lazy.events_processed(),
            3 * sent.len() as u64
        );
    }

    // ---------------------------------------------- observed far end --

    /// The per-event far end of an observed router: delivers every
    /// packet to a capture-only observer and the padded flow on to
    /// `target`, counting the packets it carried.
    struct FarEndSplit {
        observer: NodeId,
        target: NodeId,
        carried: Rc<Cell<u64>>,
    }

    impl Node for FarEndSplit {
        fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
            bump(&self.carried);
            ctx.send_now(self.observer, packet);
            if packet.is_padded_flow() {
                ctx.send_now(self.target, packet);
            }
        }
        fn reset(&mut self) {
            self.carried.set(0);
        }
    }

    const FAR_SEED: u64 = 17;
    const FAR_WINDOW_NS: u64 = 20_000_000;

    struct FarEndRun {
        sim: Sim,
        observer: ObserverHandle,
        sink: FlowLog,
        /// Packets the reference's split carried (`None`: observed).
        carried: Option<Rc<Cell<u64>>>,
    }

    /// Three flows through one 8 Mb/s egress with 3 ms of propagation,
    /// watched at the far end by an observer with 20 ms windows and
    /// measurement gaps: on an observed router when `observed`, else on
    /// a plain router in the same node slot feeding a [`FarEndSplit`]
    /// appended after the sources. A byte takes 1 µs on the wire and
    /// every gap is whole microseconds; the zero gaps send same-instant
    /// bursts.
    fn far_end_run(observed: bool) -> FarEndRun {
        const BPS: f64 = 8e6;
        let propagation = SimDuration::from_nanos(3_000_000);
        let gaps = OutageSchedule::new(
            SimDuration::from_millis_f64(70.0),
            SimDuration::from_millis_f64(9.0),
        );
        let (observer, node) = WindowedObserver::new(SimDuration::from_nanos(FAR_WINDOW_NS));
        let node = node.with_gaps(gaps);
        let mut b = SimBuilder::new(MasterSeed::new(FAR_SEED));
        let sink = FlowLog::default();
        let sink_id = b.add_node(Box::new(sink.clone()));
        let router = b.reserve();
        let flows: [(FlowId, &'static [u32], &'static [u64], u32); 3] = [
            (FlowId::PADDED, &[500], &[4_000], 600),
            (
                FlowId(3),
                &[64, 550, 1500],
                &[0, 0, 100, 550, 1_000, 2_500, 4_000, 6_000],
                1_500,
            ),
            (FlowId(7), &[40, 1500], &[0, 700, 3_000, 5_000], 1_000),
        ];
        for (flow, sizes, gaps_us, count) in flows {
            b.add_node(Box::new(GridSource {
                dst: router,
                flow,
                sizes,
                gaps_us,
                count,
                sent: 0,
            }));
        }
        let carried = if observed {
            let trunk = Router::observed(node, Some(sink_id), BPS, propagation);
            b.install(router, Box::new(trunk));
            None
        } else {
            let observer_id = b.add_node(Box::new(node));
            let carried = Rc::new(Cell::new(0));
            let split = b.add_node(Box::new(FarEndSplit {
                observer: observer_id,
                target: sink_id,
                carried: Rc::clone(&carried),
            }));
            b.install(router, Box::new(Router::new(split, BPS, propagation)));
            Some(carried)
        };
        FarEndRun {
            sim: b.build().unwrap(),
            observer,
            sink,
            carried,
        }
    }

    /// A window series as raw bits: counts, bytes, coverage and the PIAT
    /// moments, extremes included.
    fn series_bits(windows: &[WindowStats]) -> Vec<u64> {
        let opt = |x: Option<f64>| x.map_or(u64::MAX, f64::to_bits);
        windows
            .iter()
            .flat_map(|w| {
                [
                    w.count,
                    w.bytes,
                    w.coverage.to_bits(),
                    w.piats.count(),
                    opt(w.piats.mean()),
                    opt(w.piats.variance()),
                    w.piats.min().to_bits(),
                    w.piats.max().to_bits(),
                ]
            })
            .collect()
    }

    /// Everything both runs record is equal, and the reference spent
    /// exactly two dispatches more per packet its split carried (into
    /// the split, then into the observer).
    fn assert_far_end_equal(observed: &FarEndRun, reference: &FarEndRun, at: &str) {
        assert_eq!(
            series_bits(&observed.observer.window_series()),
            series_bits(&reference.observer.window_series()),
            "{at}: window series differ"
        );
        assert_eq!(
            observed.observer.arrivals(),
            reference.observer.arrivals(),
            "{at}"
        );
        assert_eq!(
            *observed.sink.0.borrow(),
            *reference.sink.0.borrow(),
            "{at}: padded deliveries differ"
        );
        let carried = reference.carried.as_ref().unwrap().get();
        assert_eq!(
            reference.sim.events_processed() - observed.sim.events_processed(),
            2 * carried,
            "{at}"
        );
    }

    #[test]
    fn observed_router_equals_a_plain_router_feeding_an_observer() {
        let mut observed = far_end_run(true);
        let mut reference = far_end_run(false);
        let ns = |secs: f64| SimTime::from_secs_f64(secs);
        // Unforwarded packets in propagation: the reference holds them as
        // events, the observed router as pending records.
        let in_flight = |observed: &FarEndRun, reference: &FarEndRun| {
            reference.sim.pending_events() > observed.sim.pending_events()
        };
        // 0.7001 ms slices, off the microsecond grid: many bounds fall
        // between a far-end arrival and the next packet to reach the
        // router, where only the horizon folds it.
        let mut cut_in_flight = 0;
        for k in 1..=1_000 {
            let bound = SimTime::from_nanos(k * 700_100);
            observed.sim.run_until(bound);
            reference.sim.run_until(bound);
            cut_in_flight += u32::from(in_flight(&observed, &reference));
            assert_far_end_equal(&observed, &reference, &format!("slice to {bound:?}"));
        }
        assert!(
            cut_in_flight > 100,
            "{cut_in_flight} slices cut a packet in flight"
        );

        // A reset with packets in flight: nothing pending survives it.
        assert!(in_flight(&observed, &reference), "before the reset");
        for run in [&mut observed, &mut reference] {
            run.sim.reset(MasterSeed::new(FAR_SEED));
        }
        let bound = ns(0.6000005);
        observed.sim.run_until(bound);
        reference.sim.run_until(bound);
        assert!(in_flight(&observed, &reference), "after the reset");
        assert_far_end_equal(&observed, &reference, "after the reset");

        // A watchdog stop: the observed router has folded every arrival
        // before the stop instant, so the windows the clock fully crossed
        // equal the reference run to 1 ns before it.
        observed
            .sim
            .set_watchdog(Some(observed.sim.events_processed() + 777), None);
        let bound = ns(1.5000005);
        observed.sim.run_until(bound);
        assert!(observed.sim.watchdog_tripped());
        let stop = observed.sim.now();
        assert!(stop < bound);
        reference
            .sim
            .run_until(SimTime::from_nanos(stop.as_nanos() - 1));
        let complete = (stop.as_nanos() / FAR_WINDOW_NS) as usize;
        let kept = |run: &FarEndRun| {
            let mut windows = run.observer.window_series();
            assert!(windows.len() >= complete, "a quiet window before the stop");
            windows.truncate(complete);
            series_bits(&windows)
        };
        assert!(complete > 0);
        assert_eq!(kept(&observed), kept(&reference), "watchdog stop");
        // Re-armed, the stopped run resumes exactly.
        observed.sim.set_watchdog(None, None);
        observed.sim.run_until(bound);
        reference.sim.run_until(bound);
        assert_far_end_equal(&observed, &reference, "after the watchdog stop");

        observed.sim.run_until(SimTime::MAX);
        reference.sim.run_until(SimTime::MAX);
        assert_eq!(observed.sim.pending_events(), 0, "every packet drained");
        assert_far_end_equal(&observed, &reference, "drained");

        // The traffic met every case the fold rests on.
        let sink = observed.sink.0.borrow();
        assert_eq!(sink.len(), 600, "the padded flow alone goes on");
        assert!(sink.iter().all(|&(_, flow)| flow == FlowId::PADDED));
        let carried = reference.carried.as_ref().unwrap().get();
        assert_eq!(carried, 600 + 1_500 + 1_000);
        assert!(observed.observer.coverages().iter().any(|&c| c < 1.0));
        assert!(
            observed.observer.arrivals() < carried,
            "gaps blinded the observer"
        );
    }

    // --------------------------------------------- lazy cohort traffic --

    const COHORT_SEED: u64 = 18;
    const COHORT_WINDOW_NS: u64 = 20_000_000;
    const COHORT_PROPAGATION_NS: u64 = 3_000_000;
    /// The target's period, and the grid its packets and the untimed
    /// cohorts' fires share.
    const TARGET_PERIOD_NS: u64 = 2_000_000;
    /// No run below goes past this instant, so the eager feeders schedule
    /// every arrival up to it.
    const COHORT_UNTIL: SimTime = SimTime::from_nanos(1_000_000_000);

    /// The cohorts both runs carry, all on a 10 ms clock unless noted:
    /// three synchronized members, and five at phases spread over the
    /// period on the target's grid, both with sizes drawn from {64, 550,
    /// 1500} B and no jitter, so same-instant arrivals of different sizes
    /// tie at the trunk, with each other and with the target; and three
    /// members with exponential intervals of mean 10 ms and jitter, whose
    /// arrivals land later than other cohorts' later fires.
    fn trunk_cohorts() -> Vec<FlowCohort> {
        let ms = SimDuration::from_millis_f64;
        let cit = || {
            Box::new(LawSchedule::new(Box::new(
                Deterministic::new(0.010).unwrap(),
            )))
        };
        let sizes = || -> Box<dyn ContinuousDist> {
            Box::new(Categorical::new(&[(64.0, 1.0), (550.0, 1.0), (1500.0, 1.0)]).unwrap())
        };
        let synchronized = FlowCohort::new(&[SimDuration::ZERO; 3], 500, cit())
            .1
            .with_packet_size_law(sizes());
        let spread = [0.0, 2.0, 4.6, 7.2, 9.0].map(ms);
        let spread = FlowCohort::new(&spread, 500, cit())
            .1
            .with_packet_size_law(sizes());
        let exponential = Box::new(LawSchedule::new(Box::new(Exponential::new(0.010).unwrap())));
        let jittered = FlowCohort::new(&[ms(1.0), ms(3.3), ms(7.7)], 500, exponential)
            .1
            .with_jitter(CohortJitter {
                base_sigma: 20e-6,
                blocking_mean: 50e-6,
                arrival_prob: 0.3,
            })
            .unwrap();
        vec![synchronized, spread, jittered]
    }

    /// A padded 500 B packet every [`TARGET_PERIOD_NS`], each sent from
    /// a timer at the instant it reaches the trunk.
    struct Target {
        trunk: NodeId,
    }

    impl Node for Target {
        fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.schedule_timer(SimDuration::from_nanos(TARGET_PERIOD_NS), 0);
        }
        fn on_timer(&mut self, _tag: u64, ctx: &mut Context<'_>) {
            let pkt = ctx.spawn_packet(FlowId::PADDED, PacketKind::Dummy, 500);
            ctx.send_now(self.trunk, pkt);
            ctx.schedule_timer(SimDuration::from_nanos(TARGET_PERIOD_NS), 0);
        }
    }

    /// `(fire, arrival, size)` of every packet the eager feeders sent.
    type Sent = Rc<RefCell<Vec<(SimTime, SimTime, u32)>>>;

    /// One cohort as engine events: at start it fires the cohort on the
    /// stream the lazy trunk would hand it, through [`COHORT_UNTIL`], and
    /// schedules every arrival as a delivery to the trunk, ahead of its
    /// instant. Same-instant deliveries therefore pop in feeder order,
    /// then fire order, and before any packet sent at that instant: the
    /// lazy trunk's tie rules.
    struct EagerCohort {
        trunk: NodeId,
        cohort: FlowCohort,
        rng: Xoshiro256StarStar,
        sent: Sent,
    }

    impl Node for EagerCohort {
        fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.cohort.start(self.rng.clone());
            let trunk = self.trunk;
            let mut sent = self.sent.borrow_mut();
            while let Some(fire) = self.cohort.next_fire().filter(|&t| t <= COHORT_UNTIL) {
                self.cohort.fire(|at, size| {
                    if at <= COHORT_UNTIL {
                        let pkt = ctx.spawn_packet(FlowId::CROSS, PacketKind::Dummy, size);
                        ctx.send_after(at - ctx.now(), trunk, pkt);
                        sent.push((fire, at, size));
                    }
                });
            }
        }
        fn reset(&mut self) {
            self.cohort.reset();
            self.sent.borrow_mut().clear();
        }
    }

    struct CohortRun {
        sim: Sim,
        observer: ObserverHandle,
        gate: FaultGateHandle,
        sink: FlowLog,
        /// What the eager feeders sent (`None`: the lazy trunk).
        sent: Option<Sent>,
    }

    /// The target and [`trunk_cohorts`] through one 16 Mb/s observed
    /// trunk with a Gilbert–Elliott gate, 3 ms of propagation and an
    /// observer with 20 ms windows and measurement gaps: the trunk serves
    /// the cohorts itself when `lazy`, else [`EagerCohort`] feeders
    /// appended after the target deliver them. Two bytes take 1 µs on the
    /// wire, so every transmit time is whole nanoseconds.
    fn cohort_run(lazy: bool) -> CohortRun {
        let gaps = OutageSchedule::new(
            SimDuration::from_millis_f64(70.0),
            SimDuration::from_millis_f64(9.0),
        );
        let (observer, node) = WindowedObserver::new(SimDuration::from_nanos(COHORT_WINDOW_NS));
        let loss = LossModel::GilbertElliott {
            p_good_to_bad: 0.02,
            p_bad_to_good: 0.3,
            loss_good: 0.01,
            loss_bad: 0.5,
        };
        let (gate, lossy) = LossyGate::new(Some(loss), None, 9).unwrap();
        let mut b = SimBuilder::new(MasterSeed::new(COHORT_SEED));
        let sink = FlowLog::default();
        let sink_id = b.add_node(Box::new(sink.clone()));
        let trunk_id = b.reserve();
        b.add_node(Box::new(Target { trunk: trunk_id }));
        let propagation = SimDuration::from_nanos(COHORT_PROPAGATION_NS);
        let mut trunk = Router::observed(node.with_gaps(gaps), Some(sink_id), 16e6, propagation)
            .with_gate(lossy);
        let sent = if lazy {
            for cohort in trunk_cohorts() {
                trunk = trunk.with_cohort(cohort);
            }
            None
        } else {
            // The lazy trunk's cohort streams: one draw each of its own
            // stream, after the gate's.
            let mut stream = MasterSeed::new(COHORT_SEED).stream(trunk_id.index() as u64);
            stream.next_u64();
            let sent = Sent::default();
            for cohort in trunk_cohorts() {
                b.add_node(Box::new(EagerCohort {
                    trunk: trunk_id,
                    cohort,
                    rng: Xoshiro256StarStar::from_u64(stream.next_u64()),
                    sent: Rc::clone(&sent),
                }));
            }
            Some(sent)
        };
        b.install(trunk_id, Box::new(trunk));
        CohortRun {
            sim: b.build().unwrap(),
            observer,
            gate,
            sink,
            sent,
        }
    }

    /// Everything both runs record is equal, and the eager run spent
    /// exactly one dispatch more per cohort packet it delivered.
    fn assert_cohort_runs_equal(lazy: &CohortRun, eager: &CohortRun, at: &str) {
        assert_eq!(
            series_bits(&lazy.observer.window_series()),
            series_bits(&eager.observer.window_series()),
            "{at}: window series differ"
        );
        assert_eq!(lazy.observer.arrivals(), eager.observer.arrivals(), "{at}");
        assert_eq!(
            (lazy.gate.passed(), lazy.gate.dropped()),
            (eager.gate.passed(), eager.gate.dropped()),
            "{at}: gate decisions differ"
        );
        assert_eq!(
            *lazy.sink.0.borrow(),
            *eager.sink.0.borrow(),
            "{at}: target deliveries differ"
        );
        let now = eager.sim.now();
        let sent = eager.sent.as_ref().unwrap().borrow();
        let delivered = sent.iter().filter(|s| s.1 <= now).count() as u64;
        assert_eq!(
            eager.sim.events_processed() - lazy.sim.events_processed(),
            delivered,
            "{at}"
        );
    }

    #[test]
    fn a_trunk_serving_cohorts_lazily_equals_eager_feeders_into_a_plain_trunk() {
        let mut lazy = cohort_run(true);
        let mut eager = cohort_run(false);
        let propagation = SimDuration::from_nanos(COHORT_PROPAGATION_NS);
        // 0.7001 ms slices, off every grid: bounds fall between a jittered
        // fire and its arrival, and while served packets are in flight.
        let (mut cut_in_flight, mut cut_in_jitter) = (0, 0);
        for k in 1..=1_000 {
            let bound = SimTime::from_nanos(k * 700_100);
            lazy.sim.run_until(bound);
            eager.sim.run_until(bound);
            assert_cohort_runs_equal(&lazy, &eager, &format!("slice to {bound:?}"));
            let sent = eager.sent.as_ref().unwrap().borrow();
            let cut = |f: &dyn Fn(&(SimTime, SimTime, u32)) -> bool| u32::from(sent.iter().any(f));
            cut_in_flight += cut(&|s| s.1 <= bound && s.1 + propagation > bound);
            cut_in_jitter += cut(&|s| s.0 <= bound && s.1 > bound);
        }
        assert!(
            cut_in_flight > 500,
            "{cut_in_flight} slices cut a packet in flight"
        );
        assert!(
            cut_in_jitter > 10,
            "{cut_in_jitter} slices cut a fire from its arrival"
        );

        // The traffic met every tie the service order rests on.
        {
            let sent = eager.sent.as_ref().unwrap().borrow();
            let mut by_arrival: Vec<(SimTime, u32)> = sent.iter().map(|s| (s.1, s.2)).collect();
            by_arrival.sort_unstable();
            let mixed_ties = by_arrival
                .windows(2)
                .filter(|w| w[0].0 == w[1].0 && w[0].1 != w[1].1)
                .count();
            assert!(mixed_ties > 100, "{mixed_ties} ties of different sizes");
            let target_ties = sent
                .iter()
                .filter(|s| s.1.as_nanos() % TARGET_PERIOD_NS == 0 && s.1 > SimTime::ZERO)
                .count();
            assert!(
                target_ties > 100,
                "{target_ties} cohort arrivals tie the target"
            );
            assert!(sent.iter().any(|s| s.1 > s.0), "jitter shifted arrivals");
        }
        assert!(lazy.gate.dropped() > 0, "the gate dropped packets");
        assert!(lazy.observer.coverages().iter().any(|&c| c < 1.0));

        // A reset mid-run: nothing drawn or in flight survives it.
        for run in [&mut lazy, &mut eager] {
            run.sim.reset(MasterSeed::new(COHORT_SEED));
        }
        let bound = SimTime::from_nanos(600_000_500);
        lazy.sim.run_until(bound);
        eager.sim.run_until(bound);
        assert_cohort_runs_equal(&lazy, &eager, "after the reset");

        // A watchdog stop: the lazy trunk has served every cohort arrival
        // before the stop instant, so the windows the clock fully crossed
        // equal the eager run to 1 ns before it.
        lazy.sim
            .set_watchdog(Some(lazy.sim.events_processed() + 77), None);
        let bound = SimTime::from_nanos(950_000_500);
        lazy.sim.run_until(bound);
        assert!(lazy.sim.watchdog_tripped());
        let stop = lazy.sim.now();
        assert!(stop < bound);
        eager
            .sim
            .run_until(SimTime::from_nanos(stop.as_nanos() - 1));
        let complete = (stop.as_nanos() / COHORT_WINDOW_NS) as usize;
        assert!(complete > 30);
        let kept = |run: &CohortRun| {
            let mut windows = run.observer.window_series();
            windows.truncate(complete);
            series_bits(&windows)
        };
        assert_eq!(kept(&lazy), kept(&eager), "watchdog stop");
        // Re-armed, the stopped run resumes exactly.
        lazy.sim.set_watchdog(None, None);
        lazy.sim.run_until(bound);
        eager.sim.run_until(bound);
        assert_cohort_runs_equal(&lazy, &eager, "after the watchdog stop");
        assert!(lazy.sink.count() > 400, "the target went on");
    }
}

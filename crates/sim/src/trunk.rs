//! An aggregate's shared trunk: one FIFO egress carrying many padded
//! flows, watched at its far end.
//!
//! A [`Trunk`] is the [`Router`](crate::router::Router)'s egress (FIFO
//! service at a fixed rate, an unbounded buffer, a fixed propagation
//! delay, each departure known on arrival) with the parts an aggregate
//! needs and a lab hop does not: the flow cohorts it serves, the fault
//! gate and the observed far end. Every arrival, engine-delivered or
//! drawn from a cohort, takes one step: the gate decides its fate, a
//! survivor joins the egress queue, and the far end folds it.
//!
//! * **Cohort traffic** ([`Trunk::with_cohort`]): the trunk owns the
//!   aggregate's [`FlowCohort`]s and draws their emissions on demand, so
//!   no cohort packet is an event. Cohort traffic is open-loop, so the
//!   backlog a packet meets depends only on the arrivals before it: when
//!   a packet arrives at `now`, the trunk first serves every cohort
//!   arrival at or before `now`, then the packet, and a cohort arrival at
//!   exactly `now` is served first. Fires come in `(emission instant,
//!   cohort, member)` order, each fire's arrival is shifted by its
//!   jitter δ ≥ 0, and the shifted arrivals wait in a small heap keyed
//!   by `(arrival instant, draw sequence)` until the trunk serves them:
//!   every arrival at or before the next fire instant is final. The trunk
//!   also serves cohort arrivals at or before the horizon when a run
//!   segment ends ([`Node::on_horizon`]), so a trunk that no engine
//!   packet reaches still carries its cohorts.
//! * **The gate** ([`Trunk::with_gate`]) decides every arrival's fate,
//!   cohort traffic and engine-delivered packets alike, in service order
//!   before it joins the queue.
//! * **The far end** ([`Trunk::new`]): the trunk owns the
//!   [`WindowedObserver`] at the far end of its egress and folds each
//!   packet's far-end arrival there itself, so no packet waits in the
//!   event store to be recorded. An arrival's far-end instant
//!   `busy_until + propagation` is known when the packet reaches the
//!   trunk, and FIFO service with a constant propagation delay makes
//!   those instants arrive in time order. The trunk keeps the instants
//!   and sizes not yet due in a FIFO, and folds every one at or before
//!   `now` when a packet arrives, or at or before the horizon when a run
//!   segment ends. The observer therefore folds the per-event wiring's
//!   arrivals in the same order, and its handle reads the same series
//!   after every run segment.
//!
//! **Information barrier:** the observer records what a passive wire
//! tap sees, arrival instants and on-the-wire sizes, never packet kinds
//! or flow ids (packets are "perfectly encrypted" in the threat model).
//! The trunk reads one flow id, the padded flow's
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
use crate::router::Wire;
use crate::time::{SimDuration, SimTime};
use linkpad_stats::rng::Xoshiro256StarStar;
use rand_core::RngCore;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// The cohorts a trunk serves, drawn on demand (see the module doc).
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

/// An aggregate's shared trunk (see the module doc). Its label is
/// `trunk`.
#[derive(Debug)]
pub struct Trunk {
    wire: Wire,
    /// The observer at the far end of the egress.
    observer: WindowedObserver,
    /// Far-end arrivals not yet folded, `(instant, size)`, in time order.
    pending: VecDeque<(SimTime, u32)>,
    /// Where the padded flow goes on; `None` forwards nothing.
    target: Option<NodeId>,
    /// Cohort traffic served on the egress, drawn on demand.
    cohorts: CohortFeed,
    /// Decides every arrival's fate before it joins the queue.
    gate: Option<LossyGate>,
}

impl Trunk {
    /// A trunk with an egress of `bits_per_sec` and the given
    /// propagation delay to its far end, where `observer` records every
    /// packet's arrival. Packets of the padded flow go on to `target` at
    /// that instant, and every other packet ends there. With no `target`
    /// nothing goes on.
    ///
    /// # Panics
    /// Panics on a non-positive bandwidth (topology constant).
    pub fn new(
        observer: WindowedObserver,
        target: Option<NodeId>,
        bits_per_sec: f64,
        propagation: SimDuration,
    ) -> Self {
        Self {
            wire: Wire::new(bits_per_sec, propagation),
            observer,
            pending: VecDeque::new(),
            target,
            cohorts: CohortFeed::default(),
            gate: None,
        }
    }

    /// Builder-style cohort traffic: `cohort`'s emissions are served on
    /// the egress, recorded at the far end, and end there. At start the
    /// trunk hands each cohort, in the order they were added, a stream
    /// seeded by one draw of its own stream (after the gate's).
    pub fn with_cohort(mut self, cohort: FlowCohort) -> Self {
        self.cohorts.cohorts.push(cohort);
        self
    }

    /// Builder-style fault gate: every arrival, cohort traffic included,
    /// meets `gate` before the queue, and only survivors are served. At
    /// start the gate's RNG takes the first draw of the trunk's stream.
    pub fn with_gate(mut self, gate: LossyGate) -> Self {
        self.gate = Some(gate);
        self
    }

    /// Serve an arrival of `size_bytes` at `at`: the gate decides its
    /// fate, a survivor joins the queue, and the far end folds what is
    /// due by `at` and keeps the survivor until it is due. Returns the
    /// survivor's far-end instant.
    ///
    /// Always inlined: the cohort loop runs it millions of times per
    /// second, and left to the inliner it stayed a call there.
    #[inline(always)]
    fn serve(&mut self, at: SimTime, size_bytes: u32) -> Option<SimTime> {
        if self.gate.as_mut().is_some_and(|g| !g.passes(at)) {
            return None;
        }
        let far = self.wire.accept(at, size_bytes);
        self.observer.fold_through(&mut self.pending, at);
        self.pending.push_back((far, size_bytes));
        Some(far)
    }

    /// Serve every cohort arrival at or before `bound`, in order. Never
    /// inlined: its two callers share one copy of the loop, into which
    /// the feed's `next_through` and `fire_next` inline.
    #[inline(never)]
    fn serve_cohorts(&mut self, bound: SimTime) {
        while let Some((at, size)) = self.cohorts.next_through(bound) {
            self.serve(at, size);
        }
    }
}

impl Node for Trunk {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        let now = ctx.now();
        self.serve_cohorts(now);
        let Some(far) = self.serve(now, packet.size_bytes) else {
            return;
        };
        if let Some(target) = self.target.filter(|_| packet.is_padded_flow()) {
            ctx.send_after(far - now, target, packet);
        }
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if let Some(gate) = &mut self.gate {
            gate.start(ctx.rng.next_u64());
        }
        self.cohorts.start(ctx.rng);
    }

    fn reset(&mut self) {
        self.wire.reset();
        self.cohorts.reset();
        if let Some(gate) = &mut self.gate {
            gate.reset();
        }
        self.pending.clear();
        self.observer.reset();
    }

    fn on_horizon(&mut self, horizon: SimTime) {
        self.serve_cohorts(horizon);
        self.observer.fold_through(&mut self.pending, horizon);
    }

    fn label(&self) -> &str {
        "trunk"
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
    use crate::router::tests::{bump, FlowLog, GridSource};
    use crate::router::Router;
    use linkpad_stats::dist::{Categorical, ContinuousDist, Deterministic, Exponential};
    use linkpad_stats::rng::MasterSeed;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    #[test]
    fn a_trunk_is_labelled_trunk() {
        let (_, observer) = WindowedObserver::new(SimDuration::from_millis_f64(1.0));
        let trunk = Trunk::new(observer, None, 1e9, SimDuration::ZERO);
        assert_eq!(trunk.label(), "trunk");
    }

    // ---------------------------------------------- observed far end --

    /// The per-event far end of a trunk: delivers every
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
    /// measurement gaps: on a [`Trunk`] when `observed`, else on a plain
    /// [`Router`] in the same node slot feeding a [`FarEndSplit`]
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
        let slot = b.reserve();
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
                dst: slot,
                flow,
                sizes,
                gaps_us,
                count,
                sent: 0,
            }));
        }
        let carried = if observed {
            let trunk = Trunk::new(node, Some(sink_id), BPS, propagation);
            b.install(slot, Box::new(trunk));
            None
        } else {
            let observer_id = b.add_node(Box::new(node));
            let carried = Rc::new(Cell::new(0));
            let split = b.add_node(Box::new(FarEndSplit {
                observer: observer_id,
                target: sink_id,
                carried: Rc::clone(&carried),
            }));
            b.install(slot, Box::new(Router::new(split, BPS, propagation)));
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
        // events, the trunk as pending records.
        let in_flight = |observed: &FarEndRun, reference: &FarEndRun| {
            reference.sim.pending_events() > observed.sim.pending_events()
        };
        // 0.7001 ms slices, off the microsecond grid: many bounds fall
        // between a far-end arrival and the next packet to reach the
        // trunk, where only the horizon folds it.
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

        // A watchdog stop: the trunk has folded every arrival
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

    /// The target and [`trunk_cohorts`] through one 16 Mb/s trunk with a Gilbert–Elliott gate, 3 ms of propagation and an
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
        let mut trunk =
            Trunk::new(node.with_gaps(gaps), Some(sink_id), 16e6, propagation).with_gate(lossy);
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

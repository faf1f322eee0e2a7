//! An aggregate's shared trunk: one FIFO egress carrying many padded
//! flows, watched at its far end.
//!
//! A [`Trunk`] is the [`Router`](crate::router::Router)'s egress (FIFO
//! service at a fixed rate, an unbounded buffer, a fixed propagation
//! delay, each departure known on arrival) with the parts an aggregate
//! needs and a lab hop does not: the emitters it serves, the fault gate
//! and the observed far end. Every arrival, engine-delivered or drawn
//! from an emitter, takes one step: the gate decides its fate, a
//! survivor joins the egress queue, and the far end folds it.
//!
//! * **Emitter traffic** ([`Trunk::with_emitters`]): the trunk owns the
//!   aggregate's non-target senders as [`Emitter`]s (per-flow gateways
//!   or [`FlowCohort`]s) and draws their emissions on demand, so none of
//!   their packets is an event. Emitter traffic is open-loop, so the
//!   backlog a packet meets depends only on the arrivals before it: when
//!   a packet arrives at `now`, the trunk first serves every emitter
//!   arrival at or before `now`, then the packet, and an emitter arrival
//!   at exactly `now` is served first. The trunk keeps its emitters'
//!   next fire instants as runs of emitters that fire together, so a
//!   synchronized population costs one heap operation per instant. It
//!   fires every emitter due at the next fire instant at once, in
//!   `(emitter, member)` order, and each arrival is its fire instant
//!   shifted by its jitter δ ≥ 0. The trunk sorts that batch once by
//!   `(arrival instant, draw order)` and merges it behind the arrivals
//!   not yet served, which were drawn earlier and so go first on a tie.
//!   Arrivals are therefore served in `(arrival instant, fire instant,
//!   emitter, member)` order, and every arrival at or before the next
//!   fire instant is final. The trunk also serves emitter arrivals at or
//!   before the horizon when a run segment ends ([`Node::on_horizon`]),
//!   so a trunk that no engine packet reaches still carries its
//!   emitters.
//! * **The gate** ([`Trunk::with_gate`]) decides every arrival's fate,
//!   emitter traffic and engine-delivered packets alike, in service order
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
use crate::runs::Runs;
use crate::time::{SimDuration, SimTime};
use linkpad_stats::rng::Xoshiro256StarStar;
use rand_core::RngCore;
use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;

/// An open-loop traffic generator a [`Trunk`] pulls on demand: its
/// emission instants and sizes are a function of its own streams, and
/// nothing downstream feeds back. Each emission's arrival at the trunk
/// is its fire instant shifted by a delay δ ≥ 0.
pub trait Emitter {
    /// Start from time zero, drawing from `rng` from now on. The
    /// emitter is as built: fresh, or reset since its last run.
    fn start(&mut self, rng: Xoshiro256StarStar);

    /// When the emitter fires next, or `None` for an empty or unstarted
    /// one.
    fn next_fire(&self) -> Option<SimTime>;

    /// Fire everything due at [`Emitter::next_fire`], handing `emit`
    /// each emission's arrival instant (never before the fire instant)
    /// and wire size, in draw order. The next fire comes strictly later.
    fn fire(&mut self, emit: impl FnMut(SimTime, u32));

    /// Return to the as-built state: nothing scheduled, counters reset.
    /// [`Emitter::start`] must follow before it fires again.
    fn reset(&mut self);
}

/// Read handle for an emitter's instrumentation: the packets it emitted
/// and the flows it carries (single-threaded shared state, like the
/// gateway handles). The emitter keeps a clone and counts into it.
#[derive(Debug, Clone)]
pub struct EmitterHandle {
    emitted: Rc<Cell<u64>>,
    flows: u32,
}

impl EmitterHandle {
    /// A zeroed handle for an emitter of `flows` flows.
    pub fn new(flows: u32) -> Self {
        Self {
            emitted: Rc::new(Cell::new(0)),
            flows,
        }
    }

    /// Packets emitted so far (over all member flows).
    pub fn emitted(&self) -> u64 {
        self.emitted.get()
    }

    /// Number of flows the emitter carries.
    pub fn flows(&self) -> u32 {
        self.flows
    }

    /// Count `n` more emissions (the emitter's side of the handle).
    #[inline]
    pub fn add(&self, n: u64) {
        self.emitted.set(self.emitted.get() + n);
    }

    /// Zero the count (on the emitter's reset).
    pub fn clear(&self) {
        self.emitted.set(0);
    }
}

/// The emitters a trunk serves, drawn on demand (see the module doc).
#[derive(Debug)]
struct Feed<E> {
    emitters: Vec<E>,
    /// When each started emitter fires next, as runs of emitters.
    fires: Runs,
    /// Fired arrivals `(instant, size)` in service order, from `served`
    /// on not yet served.
    arrivals: Vec<(SimTime, u32)>,
    served: usize,
    /// One fire instant's arrivals `(instant, draw index, size)` while
    /// they are sorted; empty otherwise.
    batch: Vec<(SimTime, u32, u32)>,
}

impl<E: Emitter> Feed<E> {
    fn new() -> Self {
        Self {
            emitters: Vec::new(),
            fires: Runs::default(),
            arrivals: Vec::new(),
            served: 0,
            batch: Vec::new(),
        }
    }

    /// Start every emitter on a stream of its own, seeded by one draw of
    /// `rng` per emitter in emitter order. The feed is as built: fresh,
    /// or reset since its last run.
    fn start(&mut self, rng: &mut Xoshiro256StarStar) {
        for emitter in &mut self.emitters {
            emitter.start(Xoshiro256StarStar::from_u64(rng.next_u64()));
        }
        self.fires
            .start(self.emitters.iter().map(Emitter::next_fire));
    }

    /// The next emitter arrival at or before `bound` in service order,
    /// firing emitters until no later fire can precede it.
    #[inline]
    fn next_through(&mut self, bound: SimTime) -> Option<(SimTime, u32)> {
        loop {
            let next_fire = self.fires.next_fire();
            if let Some(&(at, size)) = self.arrivals.get(self.served) {
                // A later fire arrives at or after its fire instant, and
                // goes behind this arrival on a tie, so this one is next.
                if at <= bound && next_fire.is_none_or(|f| at <= f) {
                    self.served += 1;
                    return Some((at, size));
                }
            }
            if next_fire.is_none_or(|f| f > bound) {
                return None;
            }
            self.fire_next();
        }
    }

    /// Fire every emitter due at the next fire instant, and queue the
    /// batch of their arrivals in service order.
    #[inline]
    fn fire_next(&mut self) {
        let Self {
            emitters,
            fires,
            arrivals,
            served,
            batch,
        } = self;
        fires.fire(|_, e| {
            let emitter = &mut emitters[e as usize];
            emitter.fire(|at, size| {
                let drawn = batch.len() as u32;
                batch.push((at, drawn, size));
            });
            emitter.next_fire()
        });
        // The draw index makes every key distinct, so the unstable sort
        // keeps draw order on ties and needs no scratch buffer.
        batch.sort_unstable();
        // Drop the served arrivals only when the batch would not fit
        // beside them: under uniform phases a fire instant adds one
        // arrival behind dozens unserved, which must not move each time.
        if arrivals.len() + batch.len() > arrivals.capacity() {
            arrivals.drain(..*served);
            *served = 0;
        }
        // Merge from the back: an unserved arrival goes behind a batch
        // arrival only if it is strictly later, since it was drawn first.
        let mut unserved = arrivals.len();
        arrivals.resize(unserved + batch.len(), (SimTime::ZERO, 0));
        let mut end = arrivals.len();
        for &(at, _, size) in batch.iter().rev() {
            while unserved > *served && arrivals[unserved - 1].0 > at {
                unserved -= 1;
                end -= 1;
                arrivals[end] = arrivals[unserved];
            }
            end -= 1;
            arrivals[end] = (at, size);
        }
        batch.clear();
    }

    fn reset(&mut self) {
        for emitter in &mut self.emitters {
            emitter.reset();
        }
        self.fires.clear();
        self.arrivals.clear();
        self.served = 0;
    }
}

/// An aggregate's shared trunk (see the module doc), serving emitters
/// of type `E`. Its label is `trunk`.
#[derive(Debug)]
pub struct Trunk<E = FlowCohort> {
    wire: Wire,
    /// The observer at the far end of the egress.
    observer: WindowedObserver,
    /// Far-end arrivals not yet folded, `(instant, size)`, in time order.
    pending: VecDeque<(SimTime, u32)>,
    /// Where the padded flow goes on; `None` forwards nothing.
    target: Option<NodeId>,
    /// Emitter traffic served on the egress, drawn on demand.
    feed: Feed<E>,
    /// Decides every arrival's fate before it joins the queue.
    gate: Option<LossyGate>,
}

impl<E: Emitter> Trunk<E> {
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
            feed: Feed::new(),
            gate: None,
        }
    }

    /// Builder-style emitter traffic: the `emitters`' emissions are
    /// served on the egress, recorded at the far end, and end there. At
    /// start the trunk hands each emitter, in the order they were added,
    /// a stream seeded by one draw of its own stream (after the gate's).
    pub fn with_emitters(mut self, emitters: impl IntoIterator<Item = E>) -> Self {
        self.feed.emitters.extend(emitters);
        self
    }

    /// Builder-style fault gate: every arrival, emitter traffic included,
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
    /// Always inlined: the emitter loop runs it millions of times per
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

    /// Serve every emitter arrival at or before `bound`, in order. Never
    /// inlined: its two callers share one copy of the loop, into which
    /// the feed's `next_through` and `fire_next` inline, and with them
    /// the emitters' `fire`.
    #[inline(never)]
    fn serve_emitters(&mut self, bound: SimTime) {
        while let Some((at, size)) = self.feed.next_through(bound) {
            self.serve(at, size);
        }
    }
}

impl<E: Emitter> Node for Trunk<E> {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        let now = ctx.now();
        self.serve_emitters(now);
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
        self.feed.start(ctx.rng);
    }

    fn reset(&mut self) {
        self.wire.reset();
        self.feed.reset();
        if let Some(gate) = &mut self.gate {
            gate.reset();
        }
        self.pending.clear();
        self.observer.reset();
    }

    fn on_horizon(&mut self, horizon: SimTime) {
        self.serve_emitters(horizon);
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
        let trunk: Trunk = Trunk::new(observer, None, 1e9, SimDuration::ZERO);
        assert_eq!(trunk.label(), "trunk");
    }

    // ------------------------------------------ the feed's service order --

    /// An emitter that fires a fixed script, `(fire, arrivals)` in ns,
    /// and then stops.
    #[derive(Debug)]
    struct Scripted {
        fires: Vec<(u64, Vec<(u64, u32)>)>,
        next: Option<usize>,
    }

    impl Emitter for Scripted {
        fn start(&mut self, _rng: Xoshiro256StarStar) {
            self.next = Some(0);
        }
        fn next_fire(&self) -> Option<SimTime> {
            let fire = self.next.and_then(|i| self.fires.get(i))?;
            Some(SimTime::from_nanos(fire.0))
        }
        fn fire(&mut self, mut emit: impl FnMut(SimTime, u32)) {
            let Some(i) = self.next.filter(|&i| i < self.fires.len()) else {
                return;
            };
            for &(at, size) in &self.fires[i].1 {
                emit(SimTime::from_nanos(at), size);
            }
            self.next = Some(i + 1);
        }
        fn reset(&mut self) {
            self.next = None;
        }
    }

    /// Emitter `e` fires at each `(fire, arrivals)` of `scripts[e]`.
    /// Every draw gets a size of its own, so a served size names its
    /// draw. Returns the emitters and `(arrival, size)` of every draw
    /// sorted by `(arrival, fire, emitter, emit order)`.
    #[allow(clippy::type_complexity)]
    fn scripted(scripts: &[&[(u64, &[u64])]]) -> (Vec<Scripted>, Vec<(SimTime, u32)>) {
        let (mut emitters, mut draws) = (Vec::new(), Vec::new());
        for (e, script) in scripts.iter().enumerate() {
            let fires = script
                .iter()
                .map(|&(fire, arrivals)| {
                    let arrivals = arrivals.iter().enumerate().map(|(k, &at)| {
                        let size = draws.len() as u32 + 1;
                        draws.push(((at, fire, e, k), size));
                        (at, size)
                    });
                    (fire, arrivals.collect())
                })
                .collect();
            emitters.push(Scripted { fires, next: None });
        }
        draws.sort_unstable();
        let order = draws
            .into_iter()
            .map(|((at, ..), size)| (SimTime::from_nanos(at), size))
            .collect();
        (emitters, order)
    }

    #[test]
    fn the_feed_serves_arrivals_by_instant_then_draw_order() {
        let (emitters, reference) = scripted(&[
            // 0: its 25 is unserved when 1's later fire ties it; its 70
            // is overtaken by 3's batch and tied by it.
            &[(10, &[25]), (40, &[70])],
            // 1: ties inside one batch, with 2 and with itself.
            &[(20, &[25]), (30, &[32, 30])],
            // 2: an arrival exactly at 4's fire instant.
            &[(30, &[30, 32]), (60, &[80])],
            &[(50, &[55, 70, 60])],
            // 4: fires at 80, then ties the shed 6 and the run 9–10.
            &[(80, &[80]), (120, &[120])],
            // 5–8: one run at 100 that splits: 5 and 8 fire next at
            // 110 (8 shed alone), 6 at 120, and 7 leaves.
            &[(100, &[100]), (110, &[110])],
            &[(100, &[100, 101]), (120, &[120])],
            &[(100, &[100])],
            &[(100, &[101]), (110, &[110, 111])],
            // 9–10: one run at 120 from the start.
            &[(120, &[121, 120])],
            &[(120, &[120])],
            // 11: never fires.
            &[],
        ]);
        let mut feed = Feed {
            emitters,
            ..Feed::new()
        };
        let mut rng = Xoshiro256StarStar::from_u64(1);
        for pass in ["fresh", "after a reset"] {
            feed.start(&mut rng);
            let mut served = Vec::new();
            for bound in (0..=130).map(SimTime::from_nanos).chain([SimTime::MAX]) {
                while let Some(arrival) = feed.next_through(bound) {
                    assert!(arrival.0 <= bound, "{pass}: served past {bound:?}");
                    served.push(arrival);
                }
                // Exactly the arrivals at or before the bound are served.
                let due = reference.iter().filter(|a| a.0 <= bound).count();
                assert_eq!(served[..], reference[..due], "{pass}: through {bound:?}");
            }
            assert_eq!(
                feed.fires.next_fire(),
                None,
                "{pass}: every emitter stopped"
            );
            assert_eq!(feed.next_through(SimTime::MAX), None, "{pass}");
            feed.reset();
        }
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
            let trunk: Trunk = Trunk::new(node, Some(sink_id), BPS, propagation);
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
            trunk = trunk.with_emitters(trunk_cohorts());
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

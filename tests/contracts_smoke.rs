//! Fast smoke of the simulator's equivalence contracts, compared
//! bit-for-bit. The member crates' suites sweep each contract over every
//! scenario family and defense; this file keeps one small case of each in
//! the facade suite, and every case routes its traffic through a
//! [`Router`] or a [`Trunk`]:
//!
//! 1. `reset(s)` ≡ a fresh build, on the lab at 45 % cross traffic;
//! 2. routers that draw their cross traffic lazily ≡ the per-packet
//!    wiring on the same draws: a plain router fed by an eager source
//!    that replays the router's RNG stream;
//! 3. a one-shard `ShardedAggregate` ≡ the unsharded sim;
//! 4. a `FlowCohort` ≡ K gateways, for synchronized CIT;
//! 5. an aggregate's trunk, serving its cohorts on demand and folding
//!    its observer in place ≡ the per-event wiring: every cohort packet
//!    an engine delivery to a plain trunk router feeding a capture-only
//!    observer.

use linkpad::core::gateway::{ReceiverGateway, SenderGateway};
use linkpad::prelude::*;
use linkpad::sim::cohort::LawSchedule;
use linkpad::sim::engine::{Context, Sim, SimBuilder};
use linkpad::sim::node::{Node, NodeId};
use linkpad::sim::packet::{FlowId, Packet, PacketKind};
use linkpad::sim::router::Router;
use linkpad::sim::source::DistSource;
use linkpad::sim::tap::{Tap, TapHandle};
use linkpad::sim::trunk::{Emitter, Trunk};
use linkpad::stats::dist::{ContinuousDist, Deterministic};
use linkpad::stats::rng::Xoshiro256StarStar;
use linkpad::workloads::cross::{
    cross_interval_law, cross_rate_for_utilization, trimodal_mean_bytes, trimodal_size_law,
};
use linkpad::workloads::spec::PayloadModel;
use rand_core::RngCore;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// A window series as raw bits: counts, bytes, coverage and the PIAT
/// moments, so the comparisons leave no floating-point slack.
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

#[test]
fn lab_reset_under_cross_traffic_equals_a_fresh_build() {
    let builder = ScenarioBuilder::lab(45)
        .with_payload_rate(10.0)
        .with_uniform_utilization(0.45);
    let piat_bits = |s: &mut BuiltScenario| -> Vec<u64> {
        s.collect_piats(TapPosition::ReceiverIngress, 300, 8)
            .expect("collection succeeds")
            .into_iter()
            .map(f64::to_bits)
            .collect()
    };
    let want = piat_bits(&mut builder.build().expect("fresh build"));

    // Dirty the router's backlog and every other node under another seed
    // before resetting: reset must erase all of it.
    let mut reused = builder.clone().with_seed(46).build().expect("build");
    reused.run_for_secs(0.73);
    reused.reset(45);
    assert_eq!(piat_bits(&mut reused), want, "reset diverged from rebuild");
}

/// Dispatches a reference lab spends on per-packet cross traffic.
type Tally = Rc<Cell<u64>>;

fn bump(tally: &Tally, by: u64) {
    tally.set(tally.get() + by);
}

/// The per-packet wiring of one hop's `Router::with_cross_traffic`:
/// replays the router's draws, in its order (first gap, then size and
/// next gap per arrival), from a clone of its RNG stream, and schedules
/// each cross packet one gap ahead. A cross delivery is therefore
/// scheduled before any padded packet that reaches the router at the
/// same instant, so the plain router serves it first, as the lazy one
/// does.
struct EagerCross {
    router: NodeId,
    rng: Xoshiro256StarStar,
    interval: Box<dyn ContinuousDist>,
    size: Box<dyn ContinuousDist>,
    /// No cross packet arrives after this instant.
    until: SimTime,
    dispatches: Tally,
}

impl EagerCross {
    fn emit(&mut self, ctx: &mut Context<'_>) {
        let gap = SimDuration::from_secs_f64(self.interval.sample(&mut self.rng).max(0.0));
        if ctx.now() + gap > self.until {
            return;
        }
        let size = self.size.sample(&mut self.rng).round().max(1.0) as u32;
        let packet = ctx.spawn_packet(FlowId::CROSS, PacketKind::Cross, size);
        ctx.send_after(gap, self.router, packet);
        ctx.schedule_timer(gap, 0);
        // The router delivery and the timer both fall within the run.
        bump(&self.dispatches, 2);
    }
}

impl Node for EagerCross {
    fn on_packet(&mut self, _packet: Packet, _ctx: &mut Context<'_>) {}
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.emit(ctx);
    }
    fn on_timer(&mut self, _tag: u64, ctx: &mut Context<'_>) {
        self.emit(ctx);
    }
}

/// A reference hop router's next hop: passes the padded flow on and
/// drops the cross traffic the router forwards.
struct DropCross {
    padded_next: NodeId,
    dispatches: Tally,
}

impl Node for DropCross {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        bump(&self.dispatches, 1);
        if packet.is_padded_flow() {
            ctx.send_now(self.padded_next, packet);
        }
    }
}

/// `ScenarioBuilder::lab(seed).with_payload_rate(rate).with_hops(hops)`
/// with per-packet cross traffic: the lab builder's nodes, order and
/// labels (node `i` draws RNG stream `i`), with calibrated defaults,
/// 0.5 ms hop propagation and trimodal cross sizes. Each hop's router
/// is a plain [`Router`] at the lab's node index, reserved and installed
/// later, forwarding to a [`DropCross`]; an [`EagerCross`] holding a
/// clone of the router's stream feeds it. Both are appended after the
/// lab's nodes. Returns the sim, its receiver tap and the tally of
/// their dispatches.
fn eager_lab(seed: u64, rate: f64, hops: &[HopSpec], until: SimTime) -> (Sim, TapHandle, Tally) {
    let d = CalibratedDefaults::paper();
    let propagation = SimDuration::from_secs_f64(0.5e-3);
    let dispatches = Tally::default();
    let mut b = SimBuilder::new(MasterSeed::new(seed));
    let subnet_b = b.add_node(Box::new(Tap::new(None, None).1.with_label("subnet-b")));
    let gw2 = b.add_node(Box::new(ReceiverGateway::new(Some(subnet_b)).1));
    let (receiver_tap, rtap) = Tap::on_padded_flow(Some(gw2));
    let mut next = b.add_node(Box::new(rtap.with_label("tap@gw2")));
    // (hop, its router's reserved id, the router's padded next hop)
    let mut routers = Vec::new();
    for (i, hop) in hops.iter().enumerate().rev() {
        let router = b.reserve();
        routers.push((i, hop, router, next));
        next = router;
    }
    let stap = Tap::on_padded_flow(Some(next)).1.with_label("tap@gw1");
    let stap = b.add_node(Box::new(stap));
    let schedule = ScheduleSpec::Cit.to_schedule(d.tau).expect("cit");
    let (_, gw1) = SenderGateway::new(stap, schedule, d.jitter, d.packet_size);
    let gw1 = b.add_node(Box::new(gw1.with_discipline(d.discipline)));
    b.add_node(Box::new(DistSource::new(
        gw1,
        FlowId::PADDED,
        PacketKind::Payload,
        PayloadSpec::Cbr { rate }.interval_law().expect("cbr"),
        Box::new(Deterministic::new(d.packet_size as f64).expect("size")),
    )));
    for (i, hop, router, padded_next) in routers {
        let drop = b.add_node(Box::new(DropCross {
            padded_next,
            dispatches: Rc::clone(&dispatches),
        }));
        let cross_rate =
            cross_rate_for_utilization(hop.utilization, d.link_bps, trimodal_mean_bytes())
                .expect("valid utilization");
        b.add_node(Box::new(EagerCross {
            router,
            rng: MasterSeed::new(seed).stream(router.index() as u64),
            interval: cross_interval_law(cross_rate, hop.bursty).expect("valid rate"),
            size: Box::new(trimodal_size_law().expect("valid mix")),
            until,
            dispatches: Rc::clone(&dispatches),
        }));
        let plain = Router::new(drop, d.link_bps, propagation).with_label(format!("router-{i}"));
        b.install(router, Box::new(plain));
    }
    (b.build().expect("builds"), receiver_tap, dispatches)
}

#[test]
fn lazy_cross_traffic_equals_eager_sources_on_the_same_draws() {
    let until = SimTime::from_secs_f64(2.0);
    for (what, hops) in [
        ("one Poisson hop", vec![HopSpec::poisson(0.45)]),
        ("two Poisson hops", vec![HopSpec::poisson(0.3); 2]),
        ("one bursty hop", vec![HopSpec::bursty(0.45)]),
    ] {
        let mut built = ScenarioBuilder::lab(47)
            .with_payload_rate(10.0)
            .with_hops(hops.clone())
            .build()
            .expect("builds");
        let (mut reference, reference_tap, wiring) = eager_lab(47, 10.0, &hops, until);
        assert_eq!(
            reference.node_count(),
            built.sim.node_count() + 2 * hops.len(),
            "{what}"
        );
        built.sim.run_until(until);
        reference.run_until(until);

        let piat_bits = |tap: &TapHandle| -> Vec<u64> {
            tap.piats_secs().into_iter().map(f64::to_bits).collect()
        };
        assert!(reference_tap.count() > 150, "{what}");
        assert_eq!(
            piat_bits(&built.receiver_tap),
            piat_bits(&reference_tap),
            "{what}: receiver PIATs differ from the per-packet wiring"
        );
        // The lazy lab is the reference minus its wiring: each cross
        // packet's timer, router delivery and drop, and each padded
        // packet's pass through a drop node.
        assert!(wiring.get() > 100_000, "{what}");
        assert_eq!(
            reference.events_processed() - built.sim.events_processed(),
            wiring.get(),
            "{what}"
        );
    }
}

#[test]
fn one_shard_run_equals_the_unsharded_sim() {
    // Ten synchronized flows burst 5 kB into a 10 Mb/s trunk every τ, so
    // the trunk queues on every tick.
    let secs = 1.5;
    let builder = ScenarioBuilder::aggregate(61, 10)
        .with_payload_rate(10.0)
        .with_trunk(10e6, 1e-3)
        .with_trunk_observer(0.1)
        .with_shards(1);
    let mut single = builder.build().expect("builds");
    single.run_for_secs(secs);
    let obs = single
        .aggregate
        .as_ref()
        .and_then(|a| a.trunk_observer.clone())
        .expect("observer-mode trunk");
    let run = ShardedAggregate::new(builder)
        .expect("valid sharding")
        .run_for_secs(secs)
        .expect("runs");
    assert!(obs.arrivals() > 1_000);
    assert_eq!(run.arrivals(), obs.arrivals());
    assert_eq!(
        series_bits(&run.windows),
        series_bits(&obs.window_series()),
        "one-shard windows are the unsharded observer's"
    );
}

#[test]
fn synchronized_cohort_equals_gateways_through_a_router() {
    const TAU: f64 = 0.010;
    const FLOWS: usize = 8;
    // Every flow ticks at phase 0: each period lands eight 500 B packets
    // on an 8 Mb/s trunk at one instant, which drains them in 4 ms.
    let run = |use_cohort: bool| {
        let mut b = SimBuilder::new(MasterSeed::new(5));
        let (obs, node) = WindowedObserver::new(SimDuration::from_millis_f64(50.0));
        let trunk = Trunk::new(node, None, 8e6, SimDuration::from_millis_f64(1.0));
        let cit = || PaddingSchedule::cit(TAU).expect("cit");
        if use_cohort {
            let law = Box::new(LawSchedule::new(cit().into_law()));
            let (_, cohort) = FlowCohort::new(&[SimDuration::ZERO; FLOWS], 500, law);
            b.add_node(Box::new(trunk.with_emitter(cohort)));
        } else {
            let trunk = b.add_node(Box::new(trunk));
            for k in 0..FLOWS {
                // Zero baseline σ and no payload: no RNG draws, so every
                // tick sits at its nominal instant.
                let jitter = GatewayJitterModel::new(0.0, 6e-6).expect("valid model");
                let (_, gw) = SenderGateway::new(trunk, cit(), jitter, 500);
                b.add_node(Box::new(gw.with_flow(FlowId(k as u32))));
            }
        }
        let mut sim = b.build().expect("builds");
        sim.run_until(SimTime::from_secs_f64(2.0));
        obs
    };
    let gateways = run(false);
    let cohort = run(true);
    assert!(gateways.arrivals() > 1_500);
    assert_eq!(cohort.arrivals(), gateways.arrivals());
    assert_eq!(
        series_bits(&cohort.window_series()),
        series_bits(&gateways.window_series()),
        "cohort and gateways must load the trunk identically"
    );
}

/// Every run of the trunk test below ends by this instant: 2 140 slices
/// of 0.7001 ms.
const TRUNK_SLICES: u64 = 2_140;
const TRUNK_SLICE_NS: u64 = 700_100;

/// Arrival instants and sizes of the cohort packets the eager feeders
/// delivered.
type Sent = Rc<RefCell<Vec<(SimTime, u32)>>>;

/// A cohort the aggregate's trunk serves on demand, as engine events: at
/// start it fires the cohort on the stream the trunk hands it, through
/// the last slice, and schedules each arrival as a delivery to the
/// trunk, ahead of its instant. Same-instant deliveries therefore pop in
/// cohort order, then fire order, and before any packet sent at that
/// instant, which is the lazy trunk's service order.
struct EagerCohort {
    trunk: NodeId,
    cohort: FlowCohort,
    rng: Xoshiro256StarStar,
    sent: Sent,
}

impl Node for EagerCohort {
    fn on_packet(&mut self, _packet: Packet, _ctx: &mut Context<'_>) {}
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.cohort.start(self.rng.clone());
        let until = SimTime::from_nanos(TRUNK_SLICES * TRUNK_SLICE_NS);
        let trunk = self.trunk;
        let mut sent = self.sent.borrow_mut();
        while self.cohort.next_fire().is_some_and(|t| t <= until) {
            self.cohort.fire(|at, size| {
                if at <= until {
                    let packet = ctx.spawn_packet(FlowId::CROSS, PacketKind::Dummy, size);
                    ctx.send_after(at - ctx.now(), trunk, packet);
                    sent.push((at, size));
                }
            });
        }
    }
}

/// The cohort-mode aggregate `builder` builds (a 10 Mb/s trunk with
/// 1 ms of propagation, 100 ms windows) with the per-event trunk: the
/// builder's nodes, order and labels (node `i` draws RNG stream `i`),
/// a plain [`Router`] in the trunk's slot, and after the last node one
/// [`EagerCohort`] per cohort, seeded as the trunk seeds it (draw `g`
/// of the trunk's own stream), then the capture-only observer the trunk
/// feeds. Nothing goes on past the observer, so the target's receive
/// side stays idle.
fn per_event_trunk(builder: &ScenarioBuilder) -> (Sim, ObserverHandle, Sent) {
    let spec = builder.aggregate_spec().expect("aggregate");
    let (flows, k) = (spec.flows, spec.cohort_size.expect("cohort mode"));
    let d = builder.defaults;
    let period = builder.schedule().mean_interval(d.tau);
    let size_law = || {
        builder
            .payload_model()
            .size_law(d.packet_size)
            .expect("size law")
    };
    let mut b = SimBuilder::new(MasterSeed::new(builder.seed()));
    let subnet_b = b.add_node(Box::new(Tap::new(None, None).1.with_label("subnet-b")));
    let gw2 = b.add_node(Box::new(ReceiverGateway::new(Some(subnet_b)).1));
    b.add_node(Box::new(
        Tap::on_padded_flow(Some(gw2)).1.with_label("tap@gw2"),
    ));
    let trunk = b.reserve();
    let stap = Tap::on_padded_flow(Some(trunk)).1.with_label("tap@gw1");
    let stap = b.add_node(Box::new(stap));
    let schedule = builder.schedule().to_schedule(d.tau).expect("schedule");
    let (_, gw1) = SenderGateway::new(stap, schedule, d.jitter, d.packet_size);
    let mut gw1 = gw1
        .with_discipline(builder.discipline())
        .with_flow(FlowId::PADDED)
        .with_start_phase(SimDuration::from_secs_f64(
            spec.phases.phase_secs(0, 0, flows, period),
        ))
        .with_label("gw1-0");
    if let Some(law) = size_law() {
        gw1 = gw1.with_packet_size_law(law);
    }
    let gw1 = b.add_node(Box::new(gw1));
    b.add_node(Box::new(DistSource::new(
        gw1,
        FlowId::PADDED,
        PacketKind::Payload,
        builder.payload().interval_law().expect("payload law"),
        Box::new(Deterministic::new(d.packet_size as f64).expect("size")),
    )));
    let jitter = CohortJitter {
        base_sigma: d.jitter.base_sigma(),
        blocking_mean: d.jitter.blocking_mean(),
        arrival_prob: builder.payload().rate() * d.tau,
    };
    // Flow f ≥ 1 is member f − 1 of cohort (f − 1) / k.
    let mut trunk_stream = MasterSeed::new(builder.seed()).stream(trunk.index() as u64);
    let sent = Sent::default();
    let members: Vec<usize> = (1..flows).collect();
    for group in members.chunks(k) {
        let sched = builder
            .schedule()
            .member_schedule(d.tau, group.len() as u32)
            .expect("member schedule");
        let phases: Vec<SimDuration> = group
            .iter()
            .map(|&f| SimDuration::from_secs_f64(spec.phases.phase_secs(f, (f - 1) % k, k, period)))
            .collect();
        let (_, cohort) = FlowCohort::new(&phases, d.packet_size, sched);
        let mut cohort = cohort.with_jitter(jitter).expect("jitter");
        if let Some(law) = size_law() {
            cohort = cohort.with_packet_size_law(law);
        }
        b.add_node(Box::new(EagerCohort {
            trunk,
            cohort,
            rng: Xoshiro256StarStar::from_u64(trunk_stream.next_u64()),
            sent: Rc::clone(&sent),
        }));
    }
    let (observer, node) = WindowedObserver::new(SimDuration::from_millis_f64(100.0));
    let observer_id = b.add_node(Box::new(node));
    let propagation = SimDuration::from_secs_f64(1e-3);
    let plain = Router::new(observer_id, 10e6, propagation).with_label("trunk");
    b.install(trunk, Box::new(plain));
    (b.build().expect("builds"), observer, sent)
}

#[test]
fn a_trunk_folding_its_observer_equals_a_plain_trunk_feeding_one() {
    // Nine flows put 4.5 kB on a 10 Mb/s trunk every τ: the trunk drains
    // each synchronized burst over 3.6 ms, then 1 ms of propagation.
    const FLOWS: usize = 9;
    const K: usize = 4;
    let base = ScenarioBuilder::aggregate(63, FLOWS)
        .with_payload_rate(10.0)
        .with_trunk(10e6, 1e-3)
        .with_trunk_observer(0.1)
        .with_cohorts(K);
    // Without baseline jitter most emissions leave at their tick, so
    // synchronized packets of different sizes tie at the trunk, with
    // each other and with the target.
    let mut still = CalibratedDefaults::paper();
    still.jitter = GatewayJitterModel::new(0.0, still.jitter.blocking_mean()).expect("valid model");
    let variable = PayloadModel::Uniform { lo: 300, hi: 900 };
    for (what, builder) in [
        ("synchronized", base.clone()),
        (
            "uniform phases, variable sizes",
            base.clone()
                .with_phases(PhaseSpec::Uniform { seed: 3 })
                .with_payload_model(variable),
        ),
        (
            "synchronized, variable sizes, no baseline jitter",
            base.clone()
                .with_defaults(still)
                .with_payload_model(variable),
        ),
    ] {
        let mut built = builder.build().expect("builds");
        let (mut reference, reference_obs, sent) = per_event_trunk(&builder);
        // Two cohort feeders and the observer.
        assert_eq!(reference.node_count(), built.sim.node_count() + 3, "{what}");
        let got = built
            .aggregate
            .as_ref()
            .and_then(|a| a.trunk_observer.clone())
            .expect("trunk observer");
        // 0.7001 ms slices sweep the bounds across every phase of the
        // tick cycle: mid-burst, mid-propagation, and between a far-end
        // arrival and the next packet to reach the trunk.
        let mut cut_in_flight = 0;
        for k in 1..=TRUNK_SLICES {
            let until = SimTime::from_nanos(k * TRUNK_SLICE_NS);
            let secs = until.as_secs_f64();
            built.sim.run_until(until);
            reference.run_until(until);
            let delivered = sent.borrow().iter().filter(|s| s.0 <= until).count();
            let undelivered = sent.borrow().len() - delivered;
            // Beyond its undelivered cohort packets, only the reference
            // holds packets in propagation as events.
            if reference.pending_events() - undelivered > built.sim.pending_events() {
                cut_in_flight += 1;
            }
            assert_eq!(
                series_bits(&got.window_series()),
                series_bits(&reference_obs.window_series()),
                "{what}, {secs} s: trunk window series differ"
            );
            // The reference dispatched each cohort packet's delivery to
            // the trunk and each trunk arrival's delivery to the
            // observer; the lazy trunk instead carried the target on
            // through tap@gw2 and GW2 (payload also into subnet-b).
            let receive_side = 2 * built.receiver_tap.count() + built.payload_sink.count();
            assert_eq!(
                reference.events_processed() + receive_side as u64,
                built.sim.events_processed() + got.arrivals() + delivered as u64,
                "{what}, {secs} s"
            );
        }
        assert!(
            cut_in_flight > 214,
            "{what}: {cut_in_flight} slices cut a packet in flight"
        );
        assert!(got.arrivals() > 1_000, "{what}");
        assert!(built.receiver_tap.count() > 100, "{what}");
        if what.contains("no baseline jitter") {
            let mut arrivals = sent.borrow().clone();
            arrivals.sort_unstable();
            let mixed = arrivals
                .windows(2)
                .filter(|w| w[0].0 == w[1].0 && w[0].1 != w[1].1)
                .count();
            assert!(mixed > 100, "{mixed} ties of different sizes");
            let target = built.sender_tap.timestamps();
            let with_target = arrivals
                .iter()
                .filter(|s| target.binary_search(&s.0).is_ok())
                .count();
            assert!(
                with_target > 100,
                "{with_target} cohort arrivals tie the target"
            );
        }
    }
}

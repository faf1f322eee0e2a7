//! An aggregate's [`Trunk`](linkpad_sim::trunk::Trunk) serves its
//! emitters on demand, folds every packet's far-end arrival into its
//! observer in place and forwards only the target flow. This test keeps
//! the per-event wiring as the reference model — every emitter packet an
//! engine delivery to a plain trunk router, which delivers every packet
//! to a capture-only observer and to a demux that passes the target on
//! and absorbs the rest — and checks in both aggregate modes (per-flow
//! gateway emitters and cohorts), under synchronized and uniform clock
//! phases, after each of 2 140 run slices whose bounds sweep the tick
//! cycle (many of them while packets are in propagation), that the
//! trunk view and the target flow's receive side are bit-identical to
//! it, at exactly the dispatches the reference's extra events add.

use linkpad_core::clock::{GatewayEmitter, PaddingClock};
use linkpad_core::gateway::{ReceiverGateway, SenderGateway};
use linkpad_sim::cohort::{CohortJitter, FlowCohort};
use linkpad_sim::engine::{Context, Sim, SimBuilder};
use linkpad_sim::node::{Node, NodeId};
use linkpad_sim::observer::{ObserverHandle, WindowStats, WindowedObserver};
use linkpad_sim::packet::{FlowId, Packet, PacketKind};
use linkpad_sim::router::Router;
use linkpad_sim::source::DistSource;
use linkpad_sim::tap::{Tap, TapHandle};
use linkpad_sim::time::{SimDuration, SimTime};
use linkpad_sim::trunk::Emitter;
use linkpad_stats::dist::Deterministic;
use linkpad_stats::rng::{MasterSeed, Xoshiro256StarStar};
use linkpad_workloads::{PhaseSpec, ScenarioBuilder};
use rand_core::RngCore;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

const SEED: u64 = 83;
const FLOWS: usize = 9;
const COHORT: usize = 3;
/// A 10 Mb/s trunk, so the flows' packets queue behind each other.
const TRUNK_BPS: f64 = 10e6;
const TRUNK_PROPAGATION: f64 = 1e-3;
const WINDOW: f64 = 0.1;
/// 0.7001 ms run slices sweep the bounds across every phase of the
/// 10 ms tick cycle, so they fall while packets are in propagation and
/// between a far-end arrival and the next packet to reach the trunk.
const SLICES: u64 = 2_140;
const SLICE_NS: u64 = 700_100;
/// The reference's emitter traffic on the wire.
const EMITTER_FLOW: FlowId = FlowId(u32::MAX);

fn builder(cohorts: bool, phases: PhaseSpec) -> ScenarioBuilder {
    let b = ScenarioBuilder::aggregate(SEED, FLOWS)
        .with_payload_rate(10.0)
        .with_trunk(TRUNK_BPS, TRUNK_PROPAGATION)
        .with_phases(phases)
        .with_trunk_observer(WINDOW);
    if cohorts {
        b.with_cohorts(COHORT)
    } else {
        b
    }
}

/// The far end of the per-event trunk: sends each packet to the
/// capture-only observer, then on to the demux.
struct FanOut {
    observer: NodeId,
    next: NodeId,
    packets: Rc<Cell<u64>>,
}

impl Node for FanOut {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        self.packets.set(self.packets.get() + 1);
        ctx.send_now(self.observer, packet);
        ctx.send_now(self.next, packet);
    }
}

/// An emitter the builder's trunk serves on demand, as engine events:
/// at start it fires the emitter on the stream the trunk hands it,
/// through the last slice, and schedules each arrival as a delivery to
/// the trunk, ahead of its instant. Same-instant deliveries therefore
/// pop in emitter order, then fire order, and before any packet sent at
/// that instant: the lazy trunk's service order.
struct Eager<E> {
    trunk: NodeId,
    emitter: E,
    rng: Xoshiro256StarStar,
    /// Arrival instants of the deliveries scheduled.
    sent: Rc<RefCell<Vec<SimTime>>>,
}

impl<E: Emitter> Node for Eager<E> {
    fn on_packet(&mut self, _packet: Packet, _ctx: &mut Context<'_>) {}
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.emitter.start(self.rng.clone());
        let until = SimTime::from_nanos(SLICES * SLICE_NS);
        let trunk = self.trunk;
        let mut sent = self.sent.borrow_mut();
        while self.emitter.next_fire().is_some_and(|t| t <= until) {
            self.emitter.fire(|at, size| {
                if at <= until {
                    let packet = ctx.spawn_packet(EMITTER_FLOW, PacketKind::Dummy, size);
                    ctx.send_after(at - ctx.now(), trunk, packet);
                    sent.push(at);
                }
            });
        }
    }
}

/// Append a feeder for `emitter`, on the stream the builder's trunk
/// hands it: seeded by the next draw of the trunk's own stream.
fn feeder<E: Emitter + 'static>(
    b: &mut SimBuilder,
    trunk: NodeId,
    emitter: E,
    trunk_stream: &mut Xoshiro256StarStar,
    sent: &Rc<RefCell<Vec<SimTime>>>,
) {
    b.add_node(Box::new(Eager {
        trunk,
        emitter,
        rng: Xoshiro256StarStar::from_u64(trunk_stream.next_u64()),
        sent: Rc::clone(sent),
    }));
}

/// The reference demux: passes the target flow on to `target` and
/// absorbs emitter traffic.
struct Demux {
    target: NodeId,
}

impl Node for Demux {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        if packet.flow != EMITTER_FLOW {
            ctx.send_now(self.target, packet);
        }
    }
}

struct Reference {
    sim: Sim,
    observer: ObserverHandle,
    receiver_tap: TapHandle,
    payload_sink: TapHandle,
    /// Packets the fan-out carried: every trunk arrival.
    fanned: Rc<Cell<u64>>,
    /// Arrival instants of the emitter packets delivered to the trunk.
    sent: Rc<RefCell<Vec<SimTime>>>,
}

/// `builder(cohorts, phases).build()` with the per-event wiring: the aggregate
/// builder's node list, order and labels (node `i` draws RNG stream
/// `i`), with a plain router in the trunk's slot delivering to a
/// fan-out, and the emitter feeders, demux, fan-out and observer
/// appended after the builder's last node so that no builder node
/// changes stream. Emitter `g`'s feeder draws from the stream the
/// builder's trunk hands it: seeded by draw `g` of the trunk's own
/// stream.
fn reference(cohorts: bool, phases: PhaseSpec) -> Reference {
    let builder = builder(cohorts, phases);
    let d = builder.defaults;
    let tau = d.tau;
    let period = builder.schedule().mean_interval(tau);
    let mut b = SimBuilder::new(MasterSeed::new(SEED));
    let (payload_sink, subnet_b) = Tap::new(None, None);
    let subnet_b = b.add_node(Box::new(subnet_b.with_label("subnet-b")));
    let gw2 = b.add_node(Box::new(ReceiverGateway::new(Some(subnet_b)).1));
    let (receiver_tap, rtap) = Tap::on_padded_flow(Some(gw2));
    let rtap = b.add_node(Box::new(rtap.with_label("tap@gw2")));
    // Installed last: the trunk delivers to the appended fan-out.
    let trunk = b.reserve();

    let stap = b.add_node(Box::new(
        Tap::on_padded_flow(Some(trunk)).1.with_label("tap@gw1"),
    ));
    // The target: its gateway and payload source.
    let schedule = builder.schedule().to_schedule(tau).expect("schedule");
    let (_, gw1) = SenderGateway::new(stap, schedule, d.jitter, d.packet_size);
    let phase = phases.phase_secs(0, 0, FLOWS, period);
    let gw1 = gw1
        .with_discipline(builder.discipline())
        .with_start_phase(SimDuration::from_secs_f64(phase))
        .with_label("gw1-0");
    let gw1 = b.add_node(Box::new(gw1));
    b.add_node(Box::new(DistSource::new(
        gw1,
        FlowId::PADDED,
        PacketKind::Payload,
        builder.payload().interval_law().expect("payload law"),
        Box::new(Deterministic::new(d.packet_size as f64).expect("size")),
    )));

    let sent = Rc::new(RefCell::new(Vec::new()));
    let mut trunk_stream = MasterSeed::new(SEED).stream(trunk.index() as u64);
    if cohorts {
        let jitter = CohortJitter {
            base_sigma: d.jitter.base_sigma(),
            blocking_mean: d.jitter.blocking_mean(),
            arrival_prob: builder.payload().rate() * tau,
        };
        // Flow f ≥ 1 is member f − 1 of cohort (f − 1) / K.
        let members: Vec<usize> = (1..FLOWS).collect();
        for flows in members.chunks(COHORT) {
            let members: Vec<SimDuration> = flows
                .iter()
                .map(|&f| {
                    let secs = phases.phase_secs(f, (f - 1) % COHORT, COHORT, period);
                    SimDuration::from_secs_f64(secs)
                })
                .collect();
            let sched = builder
                .schedule()
                .member_schedule(tau, members.len() as u32)
                .expect("member schedule");
            let (_, cohort) = FlowCohort::new(&members, d.packet_size, sched);
            let cohort = cohort.with_jitter(jitter).expect("jitter");
            feeder(&mut b, trunk, cohort, &mut trunk_stream, &sent);
        }
    } else {
        for f in 1..FLOWS {
            let phase = phases.phase_secs(f, f, FLOWS, period);
            let schedule = builder.schedule().to_schedule(tau).expect("schedule");
            let clock = PaddingClock::new(schedule, d.jitter, d.packet_size)
                .with_discipline(builder.discipline())
                .with_start_phase(SimDuration::from_secs_f64(phase));
            let law = builder.payload().interval_law().expect("payload law");
            let (_, emitter) = GatewayEmitter::new(clock, law);
            feeder(&mut b, trunk, emitter, &mut trunk_stream, &sent);
        }
    }

    // The reference's extra hops.
    let demux = b.add_node(Box::new(Demux { target: rtap }));
    let (observer, node) = WindowedObserver::new(SimDuration::from_secs_f64(WINDOW));
    let observer_id = b.add_node(Box::new(node));
    let fanned = Rc::new(Cell::new(0));
    let fan_out = b.add_node(Box::new(FanOut {
        observer: observer_id,
        next: demux,
        packets: Rc::clone(&fanned),
    }));
    let propagation = SimDuration::from_secs_f64(TRUNK_PROPAGATION);
    b.install(
        trunk,
        Box::new(Router::new(fan_out, TRUNK_BPS, propagation).with_label("trunk")),
    );
    Reference {
        sim: b.build().expect("builds"),
        observer,
        receiver_tap,
        payload_sink,
        fanned,
        sent,
    }
}

/// A window series as raw bits, so the comparison leaves no
/// floating-point slack.
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
fn a_trunk_folding_its_observer_equals_the_per_event_wiring() {
    // Synchronized phases make every emitter fire at one instant, so the
    // trunk fires them as one run; uniform phases fire them one by one.
    let layouts = [
        ("synchronized", PhaseSpec::Synchronized),
        ("uniform", PhaseSpec::Uniform { seed: 5 }),
    ];
    for ((layout, phases), cohorts) in layouts.into_iter().flat_map(|l| [(l, false), (l, true)]) {
        let mode = if cohorts { "cohort" } else { "per-flow" };
        let mode = format!("{layout} {mode}");
        let mut built = builder(cohorts, phases).build().expect("builds");
        let mut reference = reference(cohorts, phases);
        // Emitter feeders, demux, fan-out and observer.
        let feeders = if cohorts {
            (FLOWS - 1).div_ceil(COHORT)
        } else {
            FLOWS - 1
        };
        let extra = feeders + 3;
        assert_eq!(
            reference.sim.node_count(),
            built.sim.node_count() + extra,
            "{mode}: node lists differ"
        );
        let agg = built.aggregate.as_ref().expect("aggregate handles");
        let got = agg.trunk_observer.clone().expect("trunk observer");
        let mut cut_in_flight = 0;
        for k in 1..=SLICES {
            let until = SimTime::from_nanos(k * SLICE_NS);
            let secs = until.as_secs_f64();
            built.sim.run_until(until);
            reference.sim.run_until(until);
            // Emitter packets the reference has yet to deliver.
            let sent = reference.sent.borrow();
            let delivered = sent.iter().filter(|&&at| at <= until).count();
            let undelivered = sent.len() - delivered;
            // Beyond those, only the reference holds non-target packets
            // in propagation as events.
            if reference.sim.pending_events() - undelivered > built.sim.pending_events() {
                cut_in_flight += 1;
            }
            assert_eq!(
                series_bits(&got.window_series()),
                series_bits(&reference.observer.window_series()),
                "{mode} at {secs} s: trunk window series differ"
            );
            assert_eq!(
                built.receiver_tap.timestamps(),
                reference.receiver_tap.timestamps(),
                "{mode} at {secs} s: tap@gw2 differs"
            );
            assert_eq!(
                built.payload_sink.timestamps(),
                reference.payload_sink.timestamps(),
                "{mode} at {secs} s: subnet-b differs"
            );
            // Every trunk arrival reached the fan-out. The reference
            // dispatched each three times more (into the fan-out, then
            // into the observer and the demux), and each emitter packet
            // once more (into the trunk).
            let fanned = reference.fanned.get();
            assert_eq!(fanned, got.arrivals(), "{mode} at {secs} s");
            assert_eq!(
                reference.sim.events_processed() - built.sim.events_processed(),
                3 * fanned + delivered as u64,
                "{mode} at {secs} s"
            );
        }
        assert!(
            cut_in_flight > SLICES / 10,
            "{mode}: {cut_in_flight} slices cut a packet in flight"
        );
        assert!(reference.receiver_tap.count() > 100, "{mode}");
        assert!(reference.payload_sink.count() > 5, "{mode}");
        assert!(reference.fanned.get() > 1_000, "{mode}");
        // Every emitter flow kept ticking: 100 pps over 1.5 s each.
        let emitted = reference.sent.borrow().len();
        assert!(emitted > 100 * (FLOWS - 1), "{mode}: {emitted} emissions");
    }
}

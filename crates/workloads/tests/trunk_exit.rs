//! The trunk observer ends every flow but the target's once it has
//! recorded it. This test keeps the wiring that carried those flows on —
//! the observer forwarding every flow to a demux that routes each
//! per-flow packet to its own receiver and absorbs cohort packets — as
//! the reference model, and checks in both aggregate modes that the
//! trunk view and the target flow's receive side are bit-identical to
//! it, at exactly the dispatches the reference's extra hops add.

use linkpad_core::gateway::{ReceiverGateway, SenderGateway};
use linkpad_sim::cohort::{CohortJitter, FlowCohort, COHORT_FLOW};
use linkpad_sim::engine::{Context, Sim, SimBuilder};
use linkpad_sim::node::{Node, NodeId};
use linkpad_sim::observer::{ObserverHandle, WindowStats, WindowedObserver};
use linkpad_sim::packet::{FlowId, Packet, PacketKind};
use linkpad_sim::router::Router;
use linkpad_sim::source::DistSource;
use linkpad_sim::tap::{Tap, TapHandle};
use linkpad_sim::time::{SimDuration, SimTime};
use linkpad_stats::dist::Deterministic;
use linkpad_stats::rng::MasterSeed;
use linkpad_workloads::{PhaseSpec, ScenarioBuilder};
use std::cell::Cell;
use std::rc::Rc;

const SEED: u64 = 83;
const FLOWS: usize = 9;
const COHORT: usize = 3;
const PHASES: PhaseSpec = PhaseSpec::Uniform { seed: 5 };
/// A 10 Mb/s trunk, so the flows' packets queue behind each other.
const TRUNK_BPS: f64 = 10e6;
const TRUNK_PROPAGATION: f64 = 1e-3;
const WINDOW: f64 = 0.1;

fn builder(cohorts: bool) -> ScenarioBuilder {
    let b = ScenarioBuilder::aggregate(SEED, FLOWS)
        .with_payload_rate(10.0)
        .with_trunk(TRUNK_BPS, TRUNK_PROPAGATION)
        .with_phases(PHASES)
        .with_trunk_observer(WINDOW);
    if cohorts {
        b.with_cohorts(COHORT)
    } else {
        b
    }
}

/// Stands in for an observer that forwards every flow: sends each
/// packet to the capture-only observer, then on to the demux.
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

/// The reference demux: routes flow `i` to `nexts[i]` and absorbs
/// cohort traffic.
struct Demux {
    nexts: Vec<NodeId>,
}

impl Node for Demux {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        if packet.flow != COHORT_FLOW {
            ctx.send_now(self.nexts[packet.flow.0 as usize], packet);
        }
    }
}

struct Reference {
    sim: Sim,
    observer: ObserverHandle,
    receiver_tap: TapHandle,
    payload_sink: TapHandle,
    /// One capture-only receiver per non-target flow (per-flow mode).
    receivers: Vec<TapHandle>,
    /// Packets the fan-out carried: every trunk arrival.
    fanned: Rc<Cell<u64>>,
}

/// `builder(cohorts).build()` with the demux wiring: the aggregate
/// builder's node list, order and labels (node `i` draws RNG stream
/// `i`), the trunk delivering to a fan-out, and the fan-out, demux and
/// non-target receivers appended after the builder's last node so that
/// no builder node changes stream.
fn reference(cohorts: bool) -> Reference {
    let builder = builder(cohorts);
    let d = builder.defaults;
    let tau = d.tau;
    let period = builder.schedule().mean_interval(tau);
    let mut b = SimBuilder::new(MasterSeed::new(SEED));
    let (payload_sink, subnet_b) = Tap::new(None, None);
    let subnet_b = b.add_node(Box::new(subnet_b.with_label("subnet-b")));
    let gw2 = b.add_node(Box::new(ReceiverGateway::new(Some(subnet_b)).1));
    let (receiver_tap, rtap) = Tap::on_padded_flow(Some(gw2));
    let rtap = b.add_node(Box::new(rtap.with_label("tap@gw2")));
    let (observer, node) = WindowedObserver::new(SimDuration::from_secs_f64(WINDOW), None);
    let observer_id = b.add_node(Box::new(node.with_label("observer@trunk")));
    // Installed last: the trunk delivers to the appended fan-out.
    let trunk = b.reserve();

    let stap = b.add_node(Box::new(
        Tap::on_padded_flow(Some(trunk)).1.with_label("tap@gw1"),
    ));
    let sender = |next: NodeId, flow: usize, phase: f64| {
        let schedule = builder.schedule().to_schedule(tau).expect("schedule");
        let (_, gw1) = SenderGateway::new(next, schedule, d.jitter, d.packet_size);
        gw1.with_discipline(builder.discipline())
            .with_flow(FlowId(flow as u32))
            .with_start_phase(SimDuration::from_secs_f64(phase))
            .with_label(format!("gw1-{flow}"))
    };
    let payload = |gw1: NodeId, flow: usize| {
        DistSource::new(
            gw1,
            FlowId(flow as u32),
            PacketKind::Payload,
            builder.payload().interval_law().expect("payload law"),
            Box::new(Deterministic::new(d.packet_size as f64).expect("size")),
        )
    };
    let gw1 = b.add_node(Box::new(sender(
        stap,
        0,
        PHASES.phase_secs(0, 0, FLOWS, period),
    )));
    b.add_node(Box::new(payload(gw1, 0)));

    if cohorts {
        let jitter = CohortJitter {
            base_sigma: d.jitter.base_sigma,
            blocking_mean: d.jitter.blocking_mean,
            arrival_prob: builder.payload().rate() * tau,
        };
        // Flow f ≥ 1 is member f − 1 of cohort (f − 1) / K.
        let members: Vec<usize> = (1..FLOWS).collect();
        for (g, flows) in members.chunks(COHORT).enumerate() {
            let phases: Vec<SimDuration> = flows
                .iter()
                .map(|&f| {
                    let secs = PHASES.phase_secs(f, (f - 1) % COHORT, COHORT, period);
                    SimDuration::from_secs_f64(secs)
                })
                .collect();
            let sched = builder
                .schedule()
                .member_schedule(tau, phases.len() as u32)
                .expect("member schedule");
            let (_, cohort) = FlowCohort::new(trunk, &phases, d.packet_size, sched);
            let cohort = cohort.with_jitter(jitter).expect("jitter");
            b.add_node(Box::new(cohort.with_label(format!("cohort-{g}"))));
        }
    } else {
        for f in 1..FLOWS {
            let phase = PHASES.phase_secs(f, f, FLOWS, period);
            let gw1 = b.add_node(Box::new(sender(trunk, f, phase)));
            b.add_node(Box::new(payload(gw1, f)));
        }
    }

    // The reference's extra hops.
    let mut nexts = vec![rtap];
    let mut receivers = Vec::new();
    if !cohorts {
        for f in 1..FLOWS {
            let (handle, rx) = Tap::new(None, None);
            nexts.push(b.add_node(Box::new(rx.with_label(format!("gw2-{f}")))));
            receivers.push(handle);
        }
    }
    let demux = b.add_node(Box::new(Demux { nexts }));
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
        receivers,
        fanned,
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
fn an_observer_ending_non_target_flows_equals_the_demux_wiring() {
    let until = SimTime::from_secs_f64(1.5);
    for cohorts in [false, true] {
        let mode = if cohorts { "cohort" } else { "per-flow" };
        let mut built = builder(cohorts).build().expect("builds");
        let mut reference = reference(cohorts);
        // Fan-out, demux and the non-target receivers.
        let extra = 2 + reference.receivers.len();
        assert_eq!(
            reference.sim.node_count(),
            built.sim.node_count() + extra,
            "{mode}: node lists differ"
        );
        built.sim.run_until(until);
        reference.sim.run_until(until);

        let agg = built.aggregate.as_ref().expect("aggregate handles");
        let got = agg.trunk_observer.as_ref().expect("trunk observer");
        assert_eq!(
            series_bits(&got.window_series()),
            series_bits(&reference.observer.window_series()),
            "{mode}: trunk window series differ"
        );
        assert!(reference.receiver_tap.count() > 100, "{mode}");
        assert_eq!(
            built.receiver_tap.timestamps(),
            reference.receiver_tap.timestamps(),
            "{mode}: tap@gw2 differs"
        );
        assert!(reference.payload_sink.count() > 5, "{mode}");
        assert_eq!(
            built.payload_sink.timestamps(),
            reference.payload_sink.timestamps(),
            "{mode}: subnet-b differs"
        );

        // Every trunk arrival reached the fan-out; each non-target flow
        // reached its own receiver.
        let fanned = reference.fanned.get();
        assert!(fanned > 1_000, "{mode}: {fanned} trunk arrivals");
        assert_eq!(fanned, got.arrivals(), "{mode}");
        for (i, rx) in reference.receivers.iter().enumerate() {
            assert!(rx.count() > 100, "{mode}: receiver {} starved", i + 1);
        }
        let received: u64 = reference.receivers.iter().map(|r| r.count() as u64).sum();
        // The reference dispatched each trunk arrival twice more (into
        // the fan-out, then into the demux next to the observer), and
        // each non-target per-flow packet once more (into its receiver).
        assert_eq!(
            reference.sim.events_processed() - built.sim.events_processed(),
            2 * fanned + received,
            "{mode}"
        );
    }
}

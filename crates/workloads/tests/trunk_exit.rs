//! In cohort mode the trunk instrument ends cohort traffic once it has
//! recorded it. These tests keep the wiring that carried that traffic
//! on — the instrument forwarding every flow to a demux that absorbs
//! cohort packets — as the reference model, and check in both
//! instrument modes that the aggregate's trunk view and the target
//! flow's receive side are bit-identical to it, at exactly one dispatch
//! fewer per cohort arrival.

use linkpad_core::gateway::{ReceiverGateway, SenderGateway};
use linkpad_sim::cohort::{CohortJitter, FlowCohort, COHORT_FLOW};
use linkpad_sim::engine::{Context, Sim, SimBuilder};
use linkpad_sim::node::{Node, NodeId};
use linkpad_sim::observer::{ObserverHandle, WindowStats, WindowedObserver};
use linkpad_sim::packet::{FlowId, Packet, PacketKind};
use linkpad_sim::router::Router;
use linkpad_sim::sink::Sink;
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
/// A 10 Mb/s trunk, so the cohorts' packets queue behind each other.
const TRUNK_BPS: f64 = 10e6;
const TRUNK_PROPAGATION: f64 = 1e-3;
const WINDOW: f64 = 0.1;

fn builder(observed: bool) -> ScenarioBuilder {
    let b = ScenarioBuilder::aggregate(SEED, FLOWS)
        .with_payload_rate(10.0)
        .with_trunk(TRUNK_BPS, TRUNK_PROPAGATION)
        .with_cohorts(COHORT)
        .with_phases(PHASES);
    if observed {
        b.with_trunk_observer(WINDOW)
    } else {
        b
    }
}

/// The reference demux: forwards the target flow to its receiver tap and
/// absorbs cohort traffic, counting it.
struct AbsorbingDemux {
    target: NodeId,
    absorbed: Rc<Cell<u64>>,
}

impl Node for AbsorbingDemux {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        if packet.flow == COHORT_FLOW {
            self.absorbed.set(self.absorbed.get() + 1);
        } else {
            assert_eq!(packet.flow, FlowId(0), "only the target has a receiver");
            ctx.send_now(self.target, packet);
        }
    }
}

/// The reference's trunk instrument.
enum Instrument {
    Observer(ObserverHandle),
    Tap(TapHandle),
}

struct Reference {
    sim: Sim,
    instrument: Instrument,
    receiver_tap: TapHandle,
    /// Cohort packets the demux absorbed.
    absorbed: Rc<Cell<u64>>,
}

/// `builder(observed).build()` with the instrument forwarding every flow
/// to an [`AbsorbingDemux`]: the aggregate builder's cohort-mode node
/// list, order and labels (node `i` draws RNG stream `i`).
fn absorbing_aggregate(observed: bool) -> Reference {
    let builder = builder(observed);
    let d = builder.defaults;
    let tau = d.tau;
    let period = builder.schedule().mean_interval(tau);
    let absorbed = Rc::new(Cell::new(0));
    let mut b = SimBuilder::new(MasterSeed::new(SEED));
    let subnet_b = b.add_node(Box::new(Sink::new().1.with_label("subnet-b")));
    let gw2 = b.add_node(Box::new(ReceiverGateway::new(Some(subnet_b)).1));
    let (receiver_tap, rtap) = Tap::on_padded_flow(Some(gw2));
    let rtap = b.add_node(Box::new(rtap.with_label("tap@gw2")));
    let demux = b.add_node(Box::new(AbsorbingDemux {
        target: rtap,
        absorbed: Rc::clone(&absorbed),
    }));
    let (instrument, instrument_id) = if observed {
        let (obs, node) = WindowedObserver::new(SimDuration::from_secs_f64(WINDOW), Some(demux));
        let id = b.add_node(Box::new(node.with_label("observer@trunk")));
        (Instrument::Observer(obs), id)
    } else {
        let (tap, node) = Tap::new(None, Some(demux));
        let id = b.add_node(Box::new(
            node.with_capacity(FLOWS * 64).with_label("tap@trunk"),
        ));
        (Instrument::Tap(tap), id)
    };
    let propagation = SimDuration::from_secs_f64(TRUNK_PROPAGATION);
    let trunk = Router::new(instrument_id, TRUNK_BPS, propagation).with_label("trunk");
    let trunk = b.add_node(Box::new(trunk));

    let stap = b.add_node(Box::new(
        Tap::on_padded_flow(Some(trunk)).1.with_label("tap@gw1"),
    ));
    let schedule = builder.schedule().to_schedule(tau).expect("schedule");
    let (_, gw1) = SenderGateway::new(stap, schedule, d.jitter, d.packet_size);
    let phase = PHASES.phase_secs(0, 0, FLOWS, period);
    let gw1 = gw1
        .with_discipline(builder.discipline())
        .with_flow(FlowId(0))
        .with_start_phase(SimDuration::from_secs_f64(phase))
        .with_label("gw1-0");
    let gw1 = b.add_node(Box::new(gw1));
    b.add_node(Box::new(DistSource::new(
        gw1,
        FlowId(0),
        PacketKind::Payload,
        builder.payload().interval_law().expect("payload law"),
        Box::new(Deterministic::new(d.packet_size as f64).expect("size")),
    )));

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
    Reference {
        sim: b.build().expect("builds"),
        instrument,
        receiver_tap,
        absorbed,
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
fn an_instrument_ending_cohort_traffic_equals_an_absorbing_demux() {
    let until = SimTime::from_secs_f64(1.5);
    for observed in [true, false] {
        let mode = if observed { "observer" } else { "tap" };
        let mut built = builder(observed).build().expect("builds");
        let mut reference = absorbing_aggregate(observed);
        assert_eq!(built.sim.node_count(), reference.sim.node_count(), "{mode}");
        built.sim.run_until(until);
        reference.sim.run_until(until);

        let agg = built.aggregate.as_ref().expect("aggregate handles");
        match &reference.instrument {
            Instrument::Observer(want) => {
                let got = agg.trunk_observer.as_ref().expect("observer mode");
                assert_eq!(
                    series_bits(&got.window_series()),
                    series_bits(&want.window_series()),
                    "trunk window series differ"
                );
            }
            Instrument::Tap(want) => {
                let got = agg.trunk_tap.as_ref().expect("tap mode");
                assert_eq!(got.timestamps(), want.timestamps(), "trunk captures differ");
                assert_eq!(got.kind_counts(), want.kind_counts());
            }
        }
        assert!(reference.receiver_tap.count() > 100, "{mode}");
        assert_eq!(
            built.receiver_tap.timestamps(),
            reference.receiver_tap.timestamps(),
            "{mode}: the target's receive side differs"
        );
        // The reference dispatched each cohort arrival once more: into
        // the absorbing demux.
        let absorbed = reference.absorbed.get();
        assert!(absorbed > 1_000, "{mode}: {absorbed} cohort arrivals");
        assert_eq!(
            reference.sim.events_processed() - built.sim.events_processed(),
            absorbed,
            "{mode}"
        );
    }
}

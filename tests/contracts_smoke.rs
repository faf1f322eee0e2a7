//! Fast smoke of the simulator's equivalence contracts, compared
//! bit-for-bit. The member crates' suites sweep each contract over every
//! scenario family and defense; this file keeps one small case of each in
//! the facade suite, and every case routes its traffic through a
//! [`Router`]:
//!
//! 1. `reset(s)` ≡ a fresh build, on the lab at 45 % cross traffic;
//! 2. routers that end cross traffic at their egress ≡ the wiring that
//!    carried it on to Subnet D's sink;
//! 3. a one-shard `ShardedAggregate` ≡ the unsharded sim;
//! 4. a `FlowCohort` ≡ K gateways, for synchronized CIT.

use linkpad::core::gateway::{ReceiverGateway, SenderGateway};
use linkpad::prelude::*;
use linkpad::sim::cohort::LawSchedule;
use linkpad::sim::engine::{Context, Sim, SimBuilder};
use linkpad::sim::node::{Node, NodeId};
use linkpad::sim::packet::{FlowId, Packet, PacketKind};
use linkpad::sim::router::Router;
use linkpad::sim::sink::Sink;
use linkpad::sim::source::DistSource;
use linkpad::sim::tap::{Tap, TapHandle};
use linkpad::stats::dist::Deterministic;
use linkpad::workloads::cross::{cross_interval_law, cross_rate_for_utilization, SizeMix};
use std::cell::Cell;
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

/// The reference model for a lab hop: the router forwards every flow to
/// this two-way splitter, which sends the padded flow on and cross
/// traffic to Subnet D's sink.
struct Splitter {
    padded_next: NodeId,
    cross_next: NodeId,
    /// Cross packets the hop's router serviced.
    cross: Rc<Cell<u64>>,
}

impl Node for Splitter {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        if packet.is_padded_flow() {
            ctx.send_now(self.padded_next, packet);
        } else {
            self.cross.set(self.cross.get() + 1);
            ctx.send_now(self.cross_next, packet);
        }
    }
}

/// `ScenarioBuilder::lab(seed).with_payload_rate(rate).with_hops(hops)`
/// with every hop wired through a [`Splitter`]: the lab builder's node
/// list, order and labels (node `i` draws RNG stream `i`), calibrated
/// defaults, 0.5 ms hop propagation and trimodal cross sizes. Returns
/// the sim, its receiver tap and the splitters' cross count.
fn splitter_lab(seed: u64, rate: f64, hops: &[HopSpec]) -> (Sim, TapHandle, Rc<Cell<u64>>) {
    let d = CalibratedDefaults::paper();
    let mix = SizeMix::InternetTrimodal;
    let propagation = SimDuration::from_secs_f64(0.5e-3);
    let cross = Rc::new(Cell::new(0));
    let mut b = SimBuilder::new(MasterSeed::new(seed));
    let subnet_b = b.add_node(Box::new(Sink::new().1.with_label("subnet-b")));
    let gw2 = b.add_node(Box::new(ReceiverGateway::new(Some(subnet_b)).1));
    let (receiver_tap, rtap) = Tap::on_padded_flow(Some(gw2));
    let mut next = b.add_node(Box::new(rtap.with_label("tap@gw2")));
    for (i, hop) in hops.iter().enumerate().rev() {
        let subnet_d = b.add_node(Box::new(Sink::new().1.with_label("subnet-d")));
        let splitter = b.add_node(Box::new(Splitter {
            padded_next: next,
            cross_next: subnet_d,
            cross: Rc::clone(&cross),
        }));
        let router = Router::new(splitter, d.link_bps, propagation);
        let router = b.add_node(Box::new(router.with_label(format!("router-{i}"))));
        let rate = cross_rate_for_utilization(hop.utilization, d.link_bps, mix.mean_bytes())
            .expect("valid utilization");
        b.add_node(Box::new(
            DistSource::new(
                router,
                FlowId::CROSS,
                PacketKind::Cross,
                cross_interval_law(rate, hop.bursty).expect("valid rate"),
                Box::new(mix.law().expect("valid mix")),
            )
            .with_label(format!("cross-{i}")),
        ));
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
    (b.build().expect("builds"), receiver_tap, cross)
}

#[test]
fn routers_ending_cross_traffic_equal_the_splitter_wiring() {
    let until = SimTime::from_secs_f64(2.0);
    for hops in [vec![HopSpec::poisson(0.45)], vec![HopSpec::poisson(0.3); 2]] {
        let what = format!("{} hop(s)", hops.len());
        let mut built = ScenarioBuilder::lab(47)
            .with_payload_rate(10.0)
            .with_hops(hops.clone())
            .build()
            .expect("builds");
        let (mut reference, reference_tap, cross) = splitter_lab(47, 10.0, &hops);
        assert_eq!(built.sim.node_count(), reference.node_count(), "{what}");
        built.sim.run_until(until);
        reference.run_until(until);

        let piat_bits = |tap: &TapHandle| -> Vec<u64> {
            tap.piats_secs().into_iter().map(f64::to_bits).collect()
        };
        assert!(reference_tap.count() > 150, "{what}");
        assert_eq!(
            piat_bits(&built.receiver_tap),
            piat_bits(&reference_tap),
            "{what}: receiver PIATs differ from the splitter wiring"
        );
        // Each serviced cross packet cost the reference two more
        // dispatches: the splitter and Subnet D's sink.
        assert!(cross.get() > 1_000, "{what}");
        assert_eq!(
            reference.events_processed() - built.sim.events_processed(),
            2 * cross.get(),
            "{what}"
        );
    }
}

#[test]
fn one_shard_run_equals_the_unsharded_sim() {
    // Ten synchronized flows burst 5 kB into a 10 Mb/s trunk every τ, so
    // the trunk router queues on every tick.
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
    // on an 8 Mb/s router at one instant, which drains them in 4 ms.
    let run = |use_cohort: bool| {
        let mut b = SimBuilder::new(MasterSeed::new(5));
        let (obs, node) = WindowedObserver::new(SimDuration::from_millis_f64(50.0), None);
        let obs_id = b.add_node(Box::new(node));
        let router = b.add_node(Box::new(Router::new(
            obs_id,
            8e6,
            SimDuration::from_millis_f64(1.0),
        )));
        let cit = || PaddingSchedule::cit(TAU).expect("cit");
        if use_cohort {
            let law = Box::new(LawSchedule::new(cit().into_law()));
            let (_, cohort) = FlowCohort::new(router, &[SimDuration::ZERO; FLOWS], 500, law);
            b.add_node(Box::new(cohort));
        } else {
            for k in 0..FLOWS {
                // Zero baseline σ and no payload: no RNG draws, so every
                // tick sits at its nominal instant.
                let jitter = GatewayJitterModel::new(0.0, 6e-6).expect("valid model");
                let (_, gw) = SenderGateway::new(router, cit(), jitter, 500);
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
        "cohort and gateways must load the router identically"
    );
}

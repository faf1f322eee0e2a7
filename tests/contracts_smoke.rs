//! Fast smoke of the simulator's equivalence contracts, compared
//! bit-for-bit. The member crates' suites sweep each contract over every
//! scenario family and defense; this file keeps one small case of each in
//! the facade suite, and every case routes its traffic through a
//! [`Router`]:
//!
//! 1. `reset(s)` ≡ a fresh build, on the lab at 45 % cross traffic;
//! 2. a one-shard `ShardedAggregate` ≡ the unsharded sim;
//! 3. a `FlowCohort` ≡ K gateways, for synchronized CIT.

use linkpad::core::gateway::SenderGateway;
use linkpad::prelude::*;
use linkpad::sim::cohort::LawSchedule;
use linkpad::sim::engine::SimBuilder;
use linkpad::sim::packet::FlowId;
use linkpad::sim::router::Router;

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

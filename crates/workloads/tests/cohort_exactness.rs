//! Cohort-vs-gateways exactness: a [`FlowCohort`] must emit **the same
//! trunk arrivals** a K-gateway fan-in would.
//!
//! The deterministic regime makes the comparison exact: with zero
//! baseline jitter and no payload traffic, a CIT `SenderGateway` makes
//! no RNG draws on its tick path (the `Deterministic` interval law is
//! sample-free and the blocking term needs payload arrivals), so its
//! emissions are bit-exact nominal instants `phase + j·τ` — and so are
//! an unjittered cohort's. Any discrepancy in the run merging, interval
//! arithmetic, or first-tick convention shows up as a nanosecond
//! mismatch here.
//!
//! A second test keeps the comparison honest under jitter: with the
//! calibrated disturbance on both sides, the superposed streams must
//! agree in arrival counts and window statistics (distribution-level
//! agreement; the RNG streams differ by construction).
//!
//! The arrival tests drive the cohort directly as a generator; the
//! observer test serves it from a trunk, as the aggregate does, and
//! routes the gateways through an identical trunk.

use linkpad_core::gateway::SenderGateway;
use linkpad_core::jitter::GatewayJitterModel;
use linkpad_core::schedule::PaddingSchedule;
use linkpad_sim::cohort::{CohortJitter, FlowCohort, LawSchedule, MemberSchedule};
use linkpad_sim::engine::SimBuilder;
use linkpad_sim::observer::WindowedObserver;
use linkpad_sim::packet::FlowId;
use linkpad_sim::tap::Tap;
use linkpad_sim::time::{SimDuration, SimTime};
use linkpad_sim::trunk::{Emitter, Trunk};
use linkpad_stats::rng::MasterSeed;

const TAU: f64 = 0.010;

/// The CIT member schedule a cohort runs at period τ.
fn cit() -> Box<dyn MemberSchedule> {
    let law = PaddingSchedule::cit(TAU).expect("cit").into_law();
    Box::new(LawSchedule::new(law))
}

/// K real sender gateways at the given phases, no payload sources,
/// feeding one capture-only tap. Returns arrival timestamps in nanos.
fn gateway_fanin_arrivals(phases_ns: &[u64], jitter: GatewayJitterModel, secs: f64) -> Vec<u64> {
    let mut b = SimBuilder::new(MasterSeed::new(1));
    let (tap, node) = Tap::new(None, None);
    let tap_id = b.add_node(Box::new(node));
    for (k, &phase) in phases_ns.iter().enumerate() {
        let (_, gw) =
            SenderGateway::new(tap_id, PaddingSchedule::cit(TAU).expect("cit"), jitter, 500);
        b.add_node(Box::new(
            gw.with_flow(FlowId(k as u32))
                .with_start_phase(SimDuration::from_nanos(phase)),
        ));
    }
    let mut sim = b.build().expect("fan-in builds");
    sim.run_until(SimTime::from_secs_f64(secs));
    let mut ns: Vec<u64> = tap.timestamps().iter().map(|t| t.as_nanos()).collect();
    // Same-instant deliveries from distinct gateways interleave by event
    // seq; the arrival *process* is the sorted multiset.
    ns.sort_unstable();
    ns
}

/// One cohort superposing the same phases, driven as a generator: its
/// arrivals up to `secs`, in nanoseconds.
fn cohort_arrivals(phases_ns: &[u64], jitter: Option<CohortJitter>, secs: f64) -> Vec<u64> {
    let phases: Vec<SimDuration> = phases_ns
        .iter()
        .map(|&p| SimDuration::from_nanos(p))
        .collect();
    let (_, mut cohort) = FlowCohort::new(&phases, 500, cit());
    if let Some(j) = jitter {
        cohort = cohort.with_jitter(j).expect("valid jitter");
    }
    cohort.start(MasterSeed::new(1).stream(0));
    let until = SimTime::from_secs_f64(secs);
    let mut ns = Vec::new();
    while cohort.next_fire().is_some_and(|t| t <= until) {
        cohort.fire(|at, _| {
            if at <= until {
                ns.push(at.as_nanos());
            }
        });
    }
    ns.sort_unstable();
    ns
}

#[test]
fn deterministic_cohort_matches_gateway_fanin_bit_exactly() {
    // Mixed phases including duplicates (a synchronized sub-group) and
    // an off-grid value; 2.5 s ≈ 250 periods × 5 flows.
    let phases = [0u64, 0, 2_000_000, 5_000_000, 7_300_000];
    let from_gateways = gateway_fanin_arrivals(
        &phases,
        // Zero baseline σ → no draws, zero pipeline offset: emissions at
        // exact nominal instants (blocking never triggers: no payload).
        GatewayJitterModel::new(0.0, 6e-6).expect("valid model"),
        2.5,
    );
    let from_cohort = cohort_arrivals(&phases, None, 2.5);
    assert!(!from_gateways.is_empty());
    assert_eq!(
        from_cohort, from_gateways,
        "cohort superposition must reproduce the K-gateway arrival process \
         to the nanosecond"
    );
    // Sanity on the shape: first arrivals at τ (the two phase-0 flows),
    // then 5 per period.
    assert_eq!(from_gateways[0], 10_000_000);
    assert_eq!(from_gateways[1], 10_000_000);
    assert!(from_gateways.len() >= 5 * 248);
}

#[test]
fn jittered_cohort_matches_gateway_fanin_in_distribution() {
    let phases: Vec<u64> = (0..16).map(|k| k * 600_000).collect();
    let jitter = GatewayJitterModel::calibrated();
    let from_gateways = gateway_fanin_arrivals(&phases, jitter, 4.0);
    let from_cohort = cohort_arrivals(
        &phases,
        Some(CohortJitter {
            base_sigma: jitter.base_sigma(),
            blocking_mean: jitter.blocking_mean(),
            arrival_prob: 0.0, // no payload on either side
        }),
        4.0,
    );
    // Ticks never vanish: both sides emit one packet per flow per period
    // (the last period's packets may straddle the run bound ±K).
    assert!(
        from_gateways.len().abs_diff(from_cohort.len()) <= phases.len(),
        "{} vs {}",
        from_gateways.len(),
        from_cohort.len()
    );
    // Window counts agree exactly away from the boundary: µs jitter
    // cannot move an arrival across 100 ms windows.
    let window_counts = |ns: &[u64]| {
        let mut counts = vec![0u64; 40];
        for &t in ns {
            let w = (t / 100_000_000) as usize;
            if w < counts.len() {
                counts[w] += 1;
            }
        }
        counts
    };
    let gw_counts = window_counts(&from_gateways);
    let co_counts = window_counts(&from_cohort);
    assert_eq!(gw_counts[..39], co_counts[..39]);
}

#[test]
fn observer_view_of_cohort_matches_gateway_fanin() {
    // End-to-end through a trunk's windowed observer: the instrument the
    // aggregate adversary actually reads.
    let phases = [0u64, 1_000_000, 4_000_000, 9_999_999];
    let run = |use_cohort: bool| {
        let mut b = SimBuilder::new(MasterSeed::new(3));
        let (obs, node) = WindowedObserver::new(SimDuration::from_millis_f64(50.0));
        let trunk = Trunk::new(node, None, 100e6, SimDuration::ZERO);
        if use_cohort {
            let sd: Vec<SimDuration> = phases.iter().map(|&p| SimDuration::from_nanos(p)).collect();
            let (_, cohort) = FlowCohort::new(&sd, 500, cit());
            b.add_node(Box::new(trunk.with_emitters([cohort])));
        } else {
            let trunk_id = b.add_node(Box::new(trunk));
            for (k, &phase) in phases.iter().enumerate() {
                let (_, gw) = SenderGateway::new(
                    trunk_id,
                    PaddingSchedule::cit(TAU).expect("cit"),
                    GatewayJitterModel::new(0.0, 6e-6).expect("valid"),
                    500,
                );
                b.add_node(Box::new(
                    gw.with_flow(FlowId(k as u32))
                        .with_start_phase(SimDuration::from_nanos(phase)),
                ));
            }
        }
        let mut sim = b.build().expect("builds");
        sim.run_until(SimTime::from_secs_f64(3.0));
        obs
    };
    let gw_obs = run(false);
    let co_obs = run(true);
    assert_eq!(co_obs.arrivals(), gw_obs.arrivals());
    assert_eq!(co_obs.counts(), gw_obs.counts());
    // Same nominal instants → same inter-arrival populations per window.
    assert_eq!(
        co_obs.window_series(),
        gw_obs.window_series(),
        "full window statistics agree bit-for-bit in the deterministic regime"
    );
}

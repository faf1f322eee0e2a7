//! Reset-vs-fresh determinism: the scenario-reset fast path must be
//! **bit-identical** to rebuilding.
//!
//! `BuiltScenario::reset(seed)` exists so sweeps can reuse a topology
//! across replications; its whole value rests on the contract that a
//! reset scenario replays exactly what a fresh `build()` at the same
//! seed would produce. These property tests drive that contract over
//! randomized seeds for the lab, campus and aggregate families, on both
//! tap positions, comparing PIAT traces at full bit precision
//! (`f64::to_bits`) — any drifted RNG stream, stale node state, or
//! leftover event-store entry shows up as a bit difference.

use linkpad_sim::fault::{FaultPlan, LossModel, OutageSchedule};
use linkpad_sim::time::SimDuration;
use linkpad_workloads::scenario::{BuiltScenario, ScenarioBuilder, TapPosition};
use linkpad_workloads::spec::{PayloadModel, ScheduleSpec};
use proptest::prelude::*;

/// The faulted-aggregate configuration: bursty Gilbert–Elliott trunk
/// loss, scheduled trunk outages and observer gaps, all at modest
/// levels so PIAT collection still completes.
fn fault_plan() -> FaultPlan {
    FaultPlan::new(5)
        .with_trunk_loss(LossModel::GilbertElliott {
            p_good_to_bad: 0.02,
            p_bad_to_good: 0.3,
            loss_good: 0.01,
            loss_bad: 0.3,
        })
        .with_trunk_outage(
            OutageSchedule::new(
                SimDuration::from_secs_f64(1.0),
                SimDuration::from_secs_f64(0.08),
            )
            .with_phase(SimDuration::from_secs_f64(0.3)),
        )
        .with_observer_gaps(OutageSchedule::new(
            SimDuration::from_secs_f64(0.7),
            SimDuration::from_secs_f64(0.21),
        ))
}

/// Collect a PIAT trace as raw bits (exact comparison, no epsilons).
fn trace_bits(s: &mut BuiltScenario, at: TapPosition, count: usize) -> Vec<u64> {
    s.collect_piats(at, count, 8)
        .expect("collection succeeds")
        .into_iter()
        .map(f64::to_bits)
        .collect()
}

/// The three scenario families under test, smallest faithful shapes.
fn families(seed: u64) -> Vec<(&'static str, ScenarioBuilder)> {
    vec![
        ("lab", ScenarioBuilder::lab(seed).with_payload_rate(10.0)),
        (
            "campus",
            ScenarioBuilder::campus(seed, 0.2).with_payload_rate(10.0),
        ),
        (
            "aggregate",
            ScenarioBuilder::aggregate(seed, 6).with_payload_rate(10.0),
        ),
        (
            // Streaming trunk observer + rate-switching target: the
            // aggregate-adversary configuration, exercising the
            // observer's and switching source's reset hooks.
            "aggregate-observer",
            ScenarioBuilder::aggregate(seed, 5)
                .with_payload_rate(10.0)
                .with_trunk_observer(0.05)
                .with_switching_target([10.0, 40.0], 0.4),
        ),
        (
            // Cohort mode: non-target flows as FlowCohort superposition
            // nodes (desynchronized phases), exercising the cohort's
            // reset hook — the shard workers' reset-reuse fast path
            // rests on it.
            "aggregate-cohorts",
            ScenarioBuilder::aggregate(seed, 9)
                .with_payload_rate(10.0)
                .with_trunk_observer(0.05)
                .with_cohorts(3)
                .with_phases(linkpad_workloads::aggregate::PhaseSpec::Uniform { seed: 7 }),
        ),
        (
            // Constant-rate link padding in cohort mode: a
            // `Deterministic` interval law at the schedule's own period
            // (8 ms, not τ), desynchronized phases.
            "aggregate-constant-rate-cohorts",
            ScenarioBuilder::aggregate(seed, 9)
                .with_payload_rate(10.0)
                .with_trunk_observer(0.05)
                .with_cohorts(3)
                .with_schedule(ScheduleSpec::ConstantRate { rate: 125.0 })
                .with_phases(linkpad_workloads::aggregate::PhaseSpec::Uniform { seed: 13 }),
        ),
        (
            // Adaptive padding in cohort mode: per-member Idle/Burst
            // state machines behind the cohort's next-fire heap — the
            // reset hook must rewind every machine and the heap.
            "aggregate-adaptive-cohorts",
            ScenarioBuilder::aggregate(seed, 9)
                .with_payload_rate(10.0)
                .with_trunk_observer(0.05)
                .with_cohorts(3)
                .with_schedule(ScheduleSpec::AdaptivePadding { reactive: false })
                .with_phases(linkpad_workloads::aggregate::PhaseSpec::Uniform { seed: 17 }),
        ),
        (
            // Variable payload sizes: per-emission size draws on the
            // gateway and cohort paths must replay under reset.
            "aggregate-variable-payload-cohorts",
            ScenarioBuilder::aggregate(seed, 9)
                .with_payload_rate(10.0)
                .with_trunk_observer(0.05)
                .with_cohorts(3)
                .with_payload_model(PayloadModel::Sampled)
                .with_phases(linkpad_workloads::aggregate::PhaseSpec::Uniform { seed: 19 }),
        ),
        (
            // Fault injection: the lossy trunk gate's RNG and
            // Gilbert–Elliott chain state, the outage schedule and the
            // observer's gap handling must all replay under reset —
            // the faulted sweep's fast path rests on it.
            "aggregate-faulted",
            ScenarioBuilder::aggregate(seed, 5)
                .with_payload_rate(10.0)
                .with_trunk_observer(0.05)
                .with_faults(fault_plan()),
        ),
    ]
}

/// Fresh build at `seed` vs: a scenario built at `other`, dirtied by a
/// run, then reset to `seed`. Must match bit-for-bit at both taps.
fn assert_reset_matches_fresh(seed: u64, other: u64, count: usize) {
    for (name, builder) in families(seed) {
        for at in [TapPosition::SenderEgress, TapPosition::ReceiverIngress] {
            let mut fresh = builder.build().expect("fresh build");
            let want = trace_bits(&mut fresh, at, count);

            // Build under a *different* seed and dirty every node and the
            // event store before resetting — reset must erase all of it.
            let mut reused = builder.clone().with_seed(other).build().expect("build");
            reused.run_for_secs(1.3);
            reused.reset(seed);
            let got = trace_bits(&mut reused, at, count);
            assert_eq!(
                got, want,
                "{name}/{at:?}: reset trace diverged from fresh build"
            );

            // Resetting again replays again (idempotent reuse).
            reused.reset(seed);
            let again = trace_bits(&mut reused, at, count);
            assert_eq!(again, want, "{name}/{at:?}: second reset diverged");
        }
    }
}

proptest! {
    // Each case builds every family × 2 taps × 3 runs; keep the case
    // count modest so the suite stays in CI budget.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn reset_is_bit_identical_to_fresh_build(seed in 1u64..u64::MAX / 2, salt in 1u64..1000) {
        assert_reset_matches_fresh(seed, seed.wrapping_add(salt), 120);
    }

    #[test]
    fn different_seeds_diverge_after_reset(seed in 1u64..u64::MAX / 2) {
        // The converse guard: reset really reseeds (a reset that ignored
        // the seed would pass the identity test whenever other == seed).
        let builder = ScenarioBuilder::lab(seed).with_payload_rate(10.0);
        let mut s = builder.build().expect("build");
        let a = trace_bits(&mut s, TapPosition::SenderEgress, 200);
        s.reset(seed.wrapping_add(1));
        let b = trace_bits(&mut s, TapPosition::SenderEgress, 200);
        prop_assert!(a != b, "different seeds must give different jitter traces");
    }
}

#[test]
fn reset_after_partial_collection_still_matches() {
    // A mid-collection reset (tap partially filled, events in flight at
    // every tier of the queue) is the sweep loop's actual usage pattern.
    for (name, builder) in families(42) {
        let mut fresh = builder.build().expect("fresh");
        let want = trace_bits(&mut fresh, TapPosition::ReceiverIngress, 150);

        let mut reused = builder.build().expect("build");
        let _ = trace_bits(&mut reused, TapPosition::ReceiverIngress, 37);
        reused.run_for_secs(0.01); // stop mid-flight
        reused.reset(42);
        let got = trace_bits(&mut reused, TapPosition::ReceiverIngress, 150);
        assert_eq!(got, want, "{name}: mid-collection reset diverged");
    }
}

#[test]
fn reset_clears_instrumentation_handles() {
    let builder = ScenarioBuilder::aggregate(7, 4).with_payload_rate(20.0);
    let mut s = builder.build().expect("build");
    s.run_for_secs(2.0);
    let agg = s.aggregate.as_ref().expect("aggregate handles");
    let trunk_observer = agg.trunk_observer.clone().expect("trunk observer");
    assert!(s.gateway.ticks() > 0);
    assert!(trunk_observer.arrivals() > 0);
    assert!(s.payload_sink.count() > 0);
    s.reset(7);
    let agg = s.aggregate.as_ref().expect("aggregate handles");
    assert_eq!(s.gateway.ticks(), 0, "gateway stats survive reset");
    assert_eq!(s.receiver.payload_delivered(), 0);
    assert_eq!(
        trunk_observer.arrivals(),
        0,
        "trunk observer survives reset"
    );
    assert_eq!(s.sender_tap.count(), 0);
    assert_eq!(s.receiver_tap.count(), 0);
    assert_eq!(s.payload_sink.count(), 0);
    assert_eq!(s.receiver.dummies_stripped(), 0);
    for gw in &agg.gateways {
        assert_eq!(gw.ticks(), 0);
    }
}

/// The streaming observer's window series as raw bits: counts, byte
/// rates and PIAT moments, all at full `f64` precision (`NaN`s included
/// — empty windows must be empty in *exactly* the same places).
fn observer_series_bits(s: &mut BuiltScenario, secs: f64) -> Vec<u64> {
    s.run_for_secs(secs);
    let obs = s
        .aggregate
        .as_ref()
        .expect("aggregate handles")
        .trunk_observer
        .clone()
        .expect("observer-mode trunk");
    let mut bits: Vec<u64> = obs.counts().iter().map(|c| c.to_bits()).collect();
    bits.extend(obs.byte_rates().iter().map(|x| x.to_bits()));
    bits.extend(obs.piat_means().iter().map(|x| x.to_bits()));
    bits.extend(obs.piat_variances().iter().map(|x| x.to_bits()));
    bits.extend(obs.coverages().iter().map(|x| x.to_bits()));
    bits
}

#[test]
fn observer_window_series_is_bit_identical_across_reset() {
    let builder = ScenarioBuilder::aggregate(23, 5)
        .with_payload_rate(10.0)
        .with_trunk_observer(0.05)
        .with_switching_target([10.0, 40.0], 0.4);

    let mut fresh = builder.build().expect("fresh build");
    let want = observer_series_bits(&mut fresh, 2.0);
    assert!(want.len() > 40, "observer captured a real series");

    // Build under a different seed, dirty it mid-window, then reset.
    let mut reused = builder.clone().with_seed(77).build().expect("build");
    reused.run_for_secs(1.234);
    reused.reset(23);
    {
        let agg = reused.aggregate.as_ref().expect("aggregate handles");
        let obs = agg.trunk_observer.clone().expect("observer-mode trunk");
        assert_eq!(obs.windows(), 0, "reset empties the window series");
        assert_eq!(obs.arrivals(), 0);
        let log = agg.target_rate_log.clone().expect("switching target");
        assert!(log.entries().is_empty(), "reset clears the rate log");
    }
    let got = observer_series_bits(&mut reused, 2.0);
    assert_eq!(got, want, "observer series diverged from fresh build");

    // And the ground-truth log replays identically too.
    let log = |s: &BuiltScenario| {
        s.aggregate
            .as_ref()
            .unwrap()
            .target_rate_log
            .clone()
            .unwrap()
            .entries()
    };
    assert_eq!(log(&fresh), log(&reused));
}

#[test]
fn faulted_drop_pattern_and_gap_mask_replay_across_reset() {
    // Same seed ⇒ bit-identical drop pattern (per-cause gate counters)
    // and gap mask (per-window coverage fractions); a reset scenario
    // replays both exactly as a fresh build would.
    let builder = ScenarioBuilder::aggregate(29, 6)
        .with_payload_rate(10.0)
        .with_trunk_observer(0.05)
        .with_faults(fault_plan());

    let gate_of = |s: &BuiltScenario| {
        s.aggregate
            .as_ref()
            .expect("aggregate handles")
            .fault_gate
            .clone()
            .expect("trunk faults configured")
    };
    let mut fresh = builder.build().expect("fresh build");
    let want = observer_series_bits(&mut fresh, 2.0);
    let g = gate_of(&fresh);
    let want_drops = (g.dropped_loss(), g.dropped_outage(), g.passed());
    assert!(g.dropped_loss() > 0, "loss model fired");
    assert!(g.dropped_outage() > 0, "outage fired");

    // Dirty a different-seed build mid-outage-cycle, then reset.
    let mut reused = builder.clone().with_seed(101).build().expect("build");
    reused.run_for_secs(0.9);
    assert!(gate_of(&reused).offered() > 0);
    reused.reset(29);
    let g = gate_of(&reused);
    assert_eq!(
        (g.dropped_loss(), g.dropped_outage(), g.passed()),
        (0, 0, 0),
        "reset clears the gate counters"
    );
    let got = observer_series_bits(&mut reused, 2.0);
    assert_eq!(got, want, "faulted series (incl. gap mask) diverged");
    assert_eq!(
        (g.dropped_loss(), g.dropped_outage(), g.passed()),
        want_drops,
        "drop pattern diverged from fresh build"
    );

    // A different fault seed under the same run seed re-randomizes the
    // realization without touching the traffic processes.
    let mut other_plan = builder
        .clone()
        .with_faults(fault_plan().with_trunk_loss(LossModel::Bernoulli { p: 0.1 }));
    other_plan = other_plan.with_seed(29);
    let mut other = other_plan.build().expect("build");
    let _ = observer_series_bits(&mut other, 2.0);
    let go = gate_of(&other);
    assert_ne!(go.dropped_loss(), want_drops.0, "loss law change must show");
}

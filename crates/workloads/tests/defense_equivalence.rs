//! Defense diversity differential harness: every defense family the
//! workloads layer speaks — CIT, constant-rate, adaptive padding,
//! variable payloads — must satisfy the same four equivalence
//! contracts the original CIT-only cohort machinery was built on:
//!
//! 1. **cohort ≡ K gateways** — a `FlowCohort` of K members emits the
//!    same trunk arrival process K real `SenderGateway`s would:
//!    bit-exactly in deterministic regimes (CIT, constant-rate,
//!    MTU-padded payloads — zero RNG draws on the emission path), and
//!    distributionally (window count/byte means and variances) in
//!    stochastic ones (adaptive padding, sampled payload sizes), where
//!    one cohort RNG stream stands in for K per-gateway streams.
//! 2. **reset(seed) ≡ rebuild** — the sweep fast path replays the full
//!    observer window series bit-for-bit for every defense.
//! 3. **S=1 sharded ≡ unsharded** — the sharded harness at one shard
//!    is the plain sim, windows and arrival totals included.
//! 4. **traced ≡ untraced** — causal tracing never perturbs results.
//!
//! Plus the negative paths: defenses without stochastic-cohort support
//! are rejected with a typed error at build time, never a run-path
//! panic.

use linkpad_core::gateway::SenderGateway;
use linkpad_core::jitter::GatewayJitterModel;
use linkpad_sim::cohort::FlowCohort;
use linkpad_sim::engine::SimBuilder;
use linkpad_sim::observer::{ObserverHandle, WindowedObserver};
use linkpad_sim::packet::FlowId;
use linkpad_sim::time::{SimDuration, SimTime};
use linkpad_sim::trunk::Trunk;
use linkpad_stats::moments::{sample_mean, sample_variance};
use linkpad_stats::rng::MasterSeed;
use linkpad_workloads::aggregate::PhaseSpec;
use linkpad_workloads::scenario::{BuiltScenario, ScenarioBuilder, ScenarioError};
use linkpad_workloads::shard::ShardedAggregate;
use linkpad_workloads::spec::{PayloadModel, ScheduleSpec};

const TAU: f64 = 0.010;
const PKT: u32 = 500;

/// The four defense families under test: (label, schedule, payload).
fn defenses() -> Vec<(&'static str, ScheduleSpec, PayloadModel)> {
    vec![
        ("cit", ScheduleSpec::Cit, PayloadModel::Fixed),
        (
            "constant-rate",
            ScheduleSpec::ConstantRate { rate: 125.0 },
            PayloadModel::Fixed,
        ),
        (
            "adaptive",
            ScheduleSpec::AdaptivePadding { reactive: false },
            PayloadModel::Fixed,
        ),
        (
            "variable-payload",
            ScheduleSpec::Cit,
            PayloadModel::Uniform { lo: 300, hi: 900 },
        ),
    ]
}

/// Run K senders of one defense through a 100 Mb/s observed trunk with
/// no propagation delay:
/// either K real zero-jitter gateways delivering to it, or one cohort
/// superposing the same phases that the trunk serves itself (the same
/// construction `build_aggregate` uses). Returns the trunk's observer
/// after `secs` of simulated time.
fn observer_run(
    spec: ScheduleSpec,
    payload: PayloadModel,
    phases_ns: &[u64],
    use_cohort: bool,
    seed: u64,
    secs: f64,
) -> ObserverHandle {
    let mut b = SimBuilder::new(MasterSeed::new(seed));
    let (obs, node) = WindowedObserver::new(SimDuration::from_millis_f64(100.0));
    let trunk = Trunk::new(node, None, 100e6, SimDuration::ZERO);
    if use_cohort {
        let sd: Vec<SimDuration> = phases_ns
            .iter()
            .map(|&p| SimDuration::from_nanos(p))
            .collect();
        let sched = spec
            .member_schedule(TAU, phases_ns.len() as u32)
            .expect("schedule");
        let (_, mut cohort) = FlowCohort::new(&sd, PKT, sched);
        if let Some(law) = payload.size_law(PKT).expect("size law") {
            cohort = cohort.with_packet_size_law(law);
        }
        b.add_node(Box::new(trunk.with_emitter(cohort)));
    } else {
        let trunk_id = b.add_node(Box::new(trunk));
        for (k, &phase) in phases_ns.iter().enumerate() {
            let (_, gw) = SenderGateway::new(
                trunk_id,
                spec.to_schedule(TAU).expect("schedule"),
                // Zero baseline σ → no tick-δ draws, zero pipeline
                // offset (blocking needs payload arrivals; none here).
                GatewayJitterModel::new(0.0, 6e-6).expect("valid model"),
                PKT,
            );
            let mut gw = gw
                .with_flow(FlowId(k as u32))
                .with_start_phase(SimDuration::from_nanos(phase));
            if let Some(law) = payload.size_law(PKT).expect("size law") {
                gw = gw.with_packet_size_law(law);
            }
            b.add_node(Box::new(gw));
        }
    }
    let mut sim = b.build().expect("builds");
    sim.run_until(SimTime::from_secs_f64(secs));
    obs
}

// ---------------------------------------------------------------- (1) --

#[test]
fn deterministic_defenses_cohort_equals_gateways_bit_exactly() {
    // Mixed phases with a synchronized pair and off-grid values, all
    // below the shortest emission period in the matrix (8 ms at
    // 125 pps). Zero RNG draws on either side → nanosecond equality of
    // the full window series, byte channel included.
    let phases = [0u64, 0, 1_700_000, 4_000_000, 7_300_000];
    for (name, spec, payload) in [
        ("cit", ScheduleSpec::Cit, PayloadModel::Fixed),
        (
            "constant-rate",
            ScheduleSpec::ConstantRate { rate: 125.0 },
            PayloadModel::Fixed,
        ),
        (
            "mtu-padded",
            ScheduleSpec::Cit,
            PayloadModel::MtuPadded { mtu: 1500 },
        ),
    ] {
        let gw = observer_run(spec, payload, &phases, false, 1, 3.0);
        let co = observer_run(spec, payload, &phases, true, 1, 3.0);
        assert!(gw.arrivals() > 0, "{name}: gateways emitted");
        assert_eq!(co.arrivals(), gw.arrivals(), "{name}: arrival totals");
        assert_eq!(
            co.window_series(),
            gw.window_series(),
            "{name}: cohort window series (counts, bytes, PIAT moments) \
             must equal the K-gateway fan-in bit-for-bit"
        );
        // The defense actually changes the wire process: emission totals
        // follow the schedule's period and the payload model's sizes.
        let expect = phases.len() as f64 * 3.0 / spec.mean_interval(TAU);
        assert!(
            (gw.arrivals() as f64 - expect).abs() <= phases.len() as f64,
            "{name}: {} arrivals vs expected {expect}",
            gw.arrivals()
        );
    }
}

#[test]
fn stochastic_defenses_cohort_matches_gateways_in_distribution() {
    // One cohort RNG stream stands in for K gateway streams, so the
    // contract is distributional: window count and byte-rate means and
    // variances agree. 16 members × 20 s × 100 ms windows.
    let phases: Vec<u64> = (0..16).map(|k| k * 450_000).collect();
    for (name, spec, payload) in [
        (
            "adaptive",
            ScheduleSpec::AdaptivePadding { reactive: false },
            PayloadModel::Fixed,
        ),
        (
            "variable-payload",
            ScheduleSpec::Cit,
            PayloadModel::Uniform { lo: 300, hi: 900 },
        ),
        ("sampled-payload", ScheduleSpec::Cit, PayloadModel::Sampled),
    ] {
        let gw = observer_run(spec, payload, &phases, false, 5, 20.0);
        let co = observer_run(spec, payload, &phases, true, 5, 20.0);
        let stats = |o: &ObserverHandle| {
            let counts = o.counts();
            let bytes = o.byte_rates();
            // Drop the boot-transient first window (first emissions land
            // at phase + T₁) and the trailing partial window.
            let n = counts.len().saturating_sub(1);
            (
                sample_mean(&counts[1..n]).unwrap(),
                sample_variance(&counts[1..n]).unwrap(),
                sample_mean(&bytes[1..n]).unwrap(),
                sample_variance(&bytes[1..n]).unwrap(),
            )
        };
        let (gm, gv, gbm, gbv) = stats(&gw);
        let (cm, cv, cbm, cbv) = stats(&co);
        assert!(
            (cm - gm).abs() / gm < 0.05,
            "{name}: count means {cm} vs {gm}"
        );
        assert!(
            (cbm - gbm).abs() / gbm < 0.05,
            "{name}: byte-rate means {cbm} vs {gbm}"
        );
        // Variances carry wider estimator noise; same order of
        // magnitude is the honest contract at this sample size. The
        // timing-deterministic (σ_T = 0) variable-payload families have
        // zero count variance on both sides — assert that exactly.
        if spec.sigma_t(TAU) == 0.0 {
            assert_eq!(gv, 0.0, "{name}: gateway counts are a comb");
            assert_eq!(cv, 0.0, "{name}: cohort counts are a comb");
        } else {
            assert!(
                cv / gv > 0.5 && cv / gv < 2.0,
                "{name}: count variances {cv} vs {gv}"
            );
        }
        assert!(
            cbv / gbv > 0.5 && cbv / gbv < 2.0,
            "{name}: byte-rate variances {cbv} vs {gbv}"
        );
    }
}

// ---------------------------------------------------------------- (2) --

/// The aggregate-with-cohorts scenario for one defense, streaming
/// observer on the trunk, desynchronized phases (the stochastic-cohort
/// stress case from the issue).
fn cohort_builder(seed: u64, spec: ScheduleSpec, payload: PayloadModel) -> ScenarioBuilder {
    ScenarioBuilder::aggregate(seed, 10)
        .with_payload_rate(10.0)
        .with_trunk_observer(0.1)
        .with_cohorts(4)
        .with_phases(PhaseSpec::Uniform { seed: 11 })
        .with_schedule(spec)
        .with_payload_model(payload)
}

/// The trunk observer's full window series at raw bit precision.
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
    bits
}

#[test]
fn reset_equals_rebuild_for_every_defense() {
    for (name, spec, payload) in defenses() {
        let builder = cohort_builder(51, spec, payload);
        let mut fresh = builder.build().expect("fresh build");
        let want = observer_series_bits(&mut fresh, 2.0);
        assert!(want.len() > 40, "{name}: real series");

        // Build under a different seed, dirty it mid-run, reset back:
        // per-member heap state, adaptive machines, size-law draws and
        // observer windows must all replay bit-for-bit.
        let mut reused = builder.clone().with_seed(99).build().expect("build");
        reused.run_for_secs(1.13);
        reused.reset(51);
        let got = observer_series_bits(&mut reused, 2.0);
        assert_eq!(got, want, "{name}: reset diverged from rebuild");
    }
}

// ---------------------------------------------------------------- (3) --

#[test]
fn one_shard_sharded_run_equals_the_unsharded_sim_for_every_defense() {
    let secs = 2.0;
    for (name, spec, payload) in defenses() {
        let builder = cohort_builder(61, spec, payload).with_shards(1);
        let mut single = builder.clone().build().expect("builds");
        single.run_for_secs(secs);
        let obs = single
            .aggregate
            .as_ref()
            .expect("aggregate handles")
            .trunk_observer
            .clone()
            .expect("observer-mode trunk");
        let run = ShardedAggregate::new(builder)
            .expect("valid sharding")
            .run_for_secs(secs)
            .expect("runs");
        assert_eq!(run.arrivals(), obs.arrivals(), "{name}: arrival totals");
        assert_eq!(
            run.windows,
            obs.window_series(),
            "{name}: one-shard windows are the unsharded observer's"
        );
    }
}

// ---------------------------------------------------------------- (4) --

#[test]
fn tracing_never_perturbs_results_for_any_defense() {
    for (name, spec, payload) in defenses() {
        let builder = cohort_builder(71, spec, payload).with_shards(1);
        let traced = ShardedAggregate::new(builder.clone())
            .expect("valid")
            .with_tracing();
        let run_t = traced.run_for_secs(1.5).expect("runs");
        let trace = run_t.shards[0].trace.as_ref().expect("tracing enabled");
        assert!(!trace.records.is_empty(), "{name}: trace captured");

        let plain = ShardedAggregate::new(builder)
            .expect("valid")
            .run_for_secs(1.5)
            .expect("runs");
        assert!(plain.shards[0].trace.is_none());
        assert_eq!(run_t.windows, plain.windows, "{name}: windows perturbed");
        assert_eq!(
            (run_t.arrivals(), run_t.pending_peak()),
            (plain.arrivals(), plain.pending_peak()),
            "{name}: totals perturbed"
        );
        assert_eq!(run_t.events(), plain.events(), "{name}: events perturbed");
    }
}

// -------------------------------------------------------- negatives --

#[test]
fn cohorts_reject_defenses_without_stochastic_cohort_support() {
    let err = ScenarioBuilder::aggregate(1, 8)
        .with_cohorts(4)
        .with_schedule(ScheduleSpec::AdaptivePadding { reactive: true })
        .build()
        .err()
        .expect("cohorts with a reactive machine must fail to build");
    match err {
        ScenarioError::CohortUnsupported { schedule, reason } => {
            assert_eq!(schedule, "adaptive-reactive");
            assert!(
                reason.contains("client traffic"),
                "reason names the model gap: {reason}"
            );
        }
        other => panic!("expected CohortUnsupported, got: {other}"),
    }
}

#[test]
fn unsupported_cohort_defenses_still_run_per_flow() {
    // The same reactive machine is fine without cohorts — the gate is
    // about the superposition model, not the defense itself.
    let mut s = ScenarioBuilder::aggregate(1, 3)
        .with_payload_rate(10.0)
        .with_schedule(ScheduleSpec::AdaptivePadding { reactive: true })
        .build()
        .expect("per-flow reactive adaptive builds");
    s.run_for_secs(1.0);
    assert!(s.gateway.ticks() > 0, "the machine actually emits");
}

#[test]
fn invalid_payload_models_are_typed_errors_not_panics() {
    for model in [
        PayloadModel::Uniform { lo: 0, hi: 500 },
        PayloadModel::Uniform { lo: 900, hi: 300 },
        PayloadModel::MtuPadded { mtu: 0 },
    ] {
        let err = ScenarioBuilder::lab(1)
            .with_payload_model(model)
            .build()
            .err()
            .expect("invalid payload model must fail to build");
        assert!(
            matches!(err, ScenarioError::Stats(_)),
            "typed stats error, got: {err}"
        );
    }
}

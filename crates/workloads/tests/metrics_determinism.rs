//! Telemetry determinism: metric snapshots and engine profiles are a
//! pure function of `(spec, seed)`.
//!
//! Three contracts, all compared at full bit precision (snapshots and
//! profiles carry only integers):
//!
//! * **reset ≡ fresh** — the snapshot (and engine profile) of a
//!   `reset(seed)`-then-run scenario is bit-identical to a fresh
//!   `build()` at the same seed.
//! * **sharded ≡ unsharded** — the merged counter subset of an N-shard
//!   run equals the unsharded single sim's, for every N, because the
//!   counters are exactly the superposable trunk quantities
//!   (`window_metrics` keeps distributions out of the per-shard
//!   snapshots).
//! * **manifests tell the truth** — a watchdog-truncated run's manifest
//!   carries `interrupted: true` plus the truncation point, and the
//!   harness event log records the truncation and any retries.
//! * **traces replay and never perturb** — the causal trace is bit-
//!   identical under `reset(seed)` vs a fresh build, a one-shard
//!   sharded run's trace equals the unsharded sim's, and a traced run's
//!   simulated results are byte-identical to an untraced run's.

use linkpad_obs::json::Json;
use linkpad_obs::{EventLog, HarnessEvent};
use linkpad_workloads::scenario::ScenarioBuilder;
use linkpad_workloads::shard::{window_metrics, ShardedAggregate};
use linkpad_workloads::spec::PayloadModel;

fn observer_builder(seed: u64, flows: usize, shards: usize) -> ScenarioBuilder {
    ScenarioBuilder::aggregate(seed, flows)
        .with_payload_rate(10.0)
        .with_trunk_observer(0.1)
        .with_cohorts(4)
        .with_shards(shards)
}

/// Run an unsharded scenario and snapshot its trunk view.
fn single_metrics(builder: &ScenarioBuilder, secs: f64) -> linkpad_obs::Snapshot {
    let mut s = builder.clone().build().expect("builds");
    s.run_for_secs(secs);
    let obs = s
        .aggregate
        .as_ref()
        .expect("aggregate family")
        .trunk_observer
        .clone()
        .expect("observer configured");
    window_metrics(&obs.window_series(), obs.arrivals(), s.sim.pending_events())
}

#[test]
fn reset_and_fresh_builds_produce_bit_identical_snapshots_and_profiles() {
    let builder = observer_builder(91, 10, 1);
    let mut fresh = builder.clone().build().expect("builds");
    fresh.sim.enable_profiling();
    fresh.run_for_secs(1.5);
    let obs = |s: &linkpad_workloads::scenario::BuiltScenario| {
        let o = s
            .aggregate
            .as_ref()
            .expect("aggregate family")
            .trunk_observer
            .clone()
            .expect("observer configured");
        window_metrics(&o.window_series(), o.arrivals(), s.sim.pending_events())
    };
    let fresh_metrics = obs(&fresh);
    let fresh_profile = fresh.sim.profile_report().expect("profiling enabled");
    assert!(fresh_metrics.counter("trunk.arrivals").unwrap() > 0);

    // Pollute the scenario with a different-seed run, then reset back:
    // both the metric snapshot and the engine profile must replay
    // bit-for-bit. (The trunk *counters* may coincide across seeds —
    // CIT padding making the output rate seed-independent is the
    // countermeasure working — so the teeth of this test are the
    // replay equalities, not a cross-seed inequality.)
    fresh.reset(12345);
    fresh.run_for_secs(1.5);
    fresh.reset(91);
    fresh.run_for_secs(1.5);
    assert_eq!(obs(&fresh), fresh_metrics, "reset must replay the snapshot");
    assert_eq!(
        fresh.sim.profile_report().expect("still enabled"),
        fresh_profile,
        "reset must replay the engine profile"
    );
}

#[test]
fn sharded_merged_counters_equal_the_unsharded_run_bit_for_bit() {
    let secs = 2.05; // end mid-window
    let single = single_metrics(&observer_builder(92, 13, 1), secs);
    let single_counters = single.counters();
    assert!(!single_counters.is_empty());
    for shards in [1usize, 2, 3, 5] {
        let sharded = ShardedAggregate::new(observer_builder(92, 13, shards)).expect("valid");
        let run = sharded.run_for_secs(secs).expect("runs");
        let merged = run.merged_metrics();
        assert_eq!(
            merged.counters(),
            single_counters,
            "{shards} shards: merged counters must superpose exactly"
        );
        // The per-shard snapshots really are the source: their pairwise
        // merge equals the run-level merge's counter subset.
        let mut by_hand = linkpad_obs::Snapshot::empty();
        for s in &run.shards {
            by_hand.merge(&s.metrics);
        }
        assert_eq!(by_hand.counters(), single_counters, "{shards} shards");
    }
}

#[test]
fn variable_payload_sharded_merge_byte_counts_are_bit_identical() {
    let secs = 2.05; // end mid-window
    let builder = |shards: usize, model: PayloadModel| {
        observer_builder(89, 13, shards).with_payload_model(model)
    };

    // Deterministic variable payloads (MTU padding): every emission is
    // 1500 B on the wire, so the merged byte counter must superpose
    // exactly for every shard count — the bytes channel inherits the
    // count channel's superposition contract bit-for-bit.
    let mtu = PayloadModel::MtuPadded { mtu: 1500 };
    let single = single_metrics(&builder(1, mtu), secs);
    let want_bytes = single.counter("trunk.window_bytes").expect("bytes counter");
    let want_count = single.counter("trunk.window_count").expect("count counter");
    assert_eq!(
        want_bytes,
        want_count * 1500,
        "MTU padding pads every packet"
    );
    assert_ne!(want_bytes, want_count * 500, "sizes differ from the base");
    for shards in [1usize, 2, 3, 5] {
        let run = ShardedAggregate::new(builder(shards, mtu))
            .expect("valid")
            .run_for_secs(secs)
            .expect("runs");
        assert_eq!(
            run.merged_metrics().counters(),
            single.counters(),
            "{shards} shards: merged byte counters must superpose exactly"
        );
    }

    // Stochastic sizes: shard workers own distinct RNG streams, so the
    // cross-shard contract is S=1 bit-exactness against the unsharded
    // sim (per-window counts *and* bytes) plus thread-schedule
    // invariance at S>1 — not cross-S equality.
    let sampled = PayloadModel::Sampled;
    let mut unsharded = builder(1, sampled).build().expect("builds");
    unsharded.run_for_secs(secs);
    let obs = unsharded
        .aggregate
        .as_ref()
        .expect("aggregate family")
        .trunk_observer
        .clone()
        .expect("observer configured");
    let run1 = ShardedAggregate::new(builder(1, sampled))
        .expect("valid")
        .run_for_secs(secs)
        .expect("runs");
    assert_eq!(
        run1.windows,
        obs.window_series(),
        "S=1 sampled-payload windows (incl. bytes) are the unsharded sim's"
    );
    let a = ShardedAggregate::new(builder(3, sampled))
        .expect("valid")
        .run_for_secs_with_threads(secs, 1)
        .expect("runs");
    let b = ShardedAggregate::new(builder(3, sampled))
        .expect("valid")
        .run_for_secs_with_threads(secs, 4)
        .expect("runs");
    assert_eq!(a.windows, b.windows, "sampled-payload thread invariance");
    assert_eq!(a.merged_metrics(), b.merged_metrics());
}

#[test]
fn profiled_sharded_runs_are_deterministic_and_carry_reports() {
    let sharded = ShardedAggregate::new(observer_builder(93, 10, 3))
        .expect("valid")
        .with_profiling();
    let a = sharded.run_for_secs_with_threads(1.5, 1).expect("runs");
    let b = sharded.run_for_secs_with_threads(1.5, 4).expect("runs");
    for (ra, rb) in a.shards.iter().zip(&b.shards) {
        let pa = ra.profile.as_ref().expect("profiling enabled");
        let pb = rb.profile.as_ref().expect("profiling enabled");
        assert_eq!(pa, pb, "shard {} profile is schedule-independent", ra.shard);
        assert_eq!(pa.events(), ra.events, "profile counts every event");
        assert!(pa.store.push_near + pa.store.push_rung + pa.store.push_far > 0);
    }
    // Profiling must not perturb the simulated results.
    let plain = ShardedAggregate::new(observer_builder(93, 10, 3))
        .expect("valid")
        .run_for_secs_with_threads(1.5, 2)
        .expect("runs");
    assert_eq!(a.windows, plain.windows);
    assert_eq!(a.merged_metrics(), plain.merged_metrics());
}

#[test]
fn reset_and_fresh_builds_produce_bit_identical_traces() {
    let builder = observer_builder(97, 10, 1);
    let mut s = builder.clone().build().expect("builds");
    s.sim.enable_tracing();
    s.run_for_secs(1.5);
    let fresh = s.sim.trace_report().expect("tracing enabled");
    assert!(!fresh.records.is_empty());
    assert!(fresh.dispatched > 0);

    // Pollute with a different-seed run, then reset back: the trace —
    // records, provenance links, decimation stride — must replay
    // bit-for-bit, exactly like the metric snapshot and the profile.
    s.reset(24680);
    s.run_for_secs(1.5);
    s.reset(97);
    s.run_for_secs(1.5);
    assert_eq!(
        s.sim.trace_report().expect("still enabled"),
        fresh,
        "reset must replay the trace"
    );
}

#[test]
fn one_shard_traces_equal_the_unsharded_sim_and_never_perturb_results() {
    // Shard 0 runs under the builder's own seed, so the S = 1 sharded
    // trace must be the unsharded sim's trace bit-for-bit — provenance
    // links included.
    let secs = 1.55;
    let builder = observer_builder(98, 10, 1);
    let mut single = builder.clone().build().expect("builds");
    single.sim.enable_tracing();
    single.run_for_secs(secs);
    let single_trace = single.sim.trace_report().expect("tracing enabled");
    assert!(!single_trace.records.is_empty());

    let sharded = ShardedAggregate::new(builder.clone())
        .expect("valid")
        .with_tracing();
    let run = sharded.run_for_secs(secs).expect("runs");
    let shard_trace = run.shards[0].trace.as_ref().expect("tracing enabled");
    assert_eq!(
        shard_trace, &single_trace,
        "one-shard trace is the single sim's trace"
    );

    // Tracing must not perturb the simulated results: windows, merged
    // metrics, and event totals match an untraced run byte-for-byte.
    let plain = ShardedAggregate::new(builder)
        .expect("valid")
        .run_for_secs(secs)
        .expect("runs");
    assert!(plain.shards[0].trace.is_none());
    assert_eq!(run.windows, plain.windows);
    assert_eq!(run.merged_metrics(), plain.merged_metrics());
    assert_eq!(run.events(), plain.events());
}

#[test]
fn truncated_runs_announce_themselves_in_manifest_and_event_log() {
    let builder = observer_builder(94, 12, 3);
    let full = ShardedAggregate::new(builder.clone())
        .expect("valid")
        .run_for_secs_with_threads(2.0, 1)
        .expect("runs");
    assert!(!full.interrupted());
    let budget = full.events() / full.shards.len() as u64 / 4;
    let bounded = ShardedAggregate::new(builder)
        .expect("valid")
        .with_profiling()
        .with_watchdog(Some(budget), None);
    let mut log = EventLog::new();
    let run = bounded.run_for_secs_logged(2.0, 1, &mut log).expect("runs");
    assert!(run.interrupted());

    // The manifest carries the explicit interrupted flag and cut point.
    let manifest = bounded.manifest("metrics_determinism", &run);
    assert!(manifest.interrupted);
    let t = manifest.truncation.expect("truncation recorded");
    assert_eq!(t.complete_windows, run.windows.len());
    assert!(t.sim_nanos > 0, "trip point is a real sim time");
    let json = manifest.to_json();
    assert!(json.contains("\"interrupted\": true"));
    assert!(json.contains("\"schema\": \"linkpad-run-manifest-v1\""));

    // Both artifacts are well-formed JSON, per-shard profiles included,
    // and the parsed manifest says what the typed one does.
    let doc = Json::parse(&json).expect("manifest parses");
    assert_eq!(doc.get("interrupted"), Some(&Json::Bool(true)));
    let complete = doc
        .get("truncation")
        .and_then(|t| t.get("complete_windows"))
        .and_then(Json::as_f64);
    assert_eq!(complete, Some(run.windows.len() as f64));
    let Some(Json::Arr(shards)) = doc.get("shards") else {
        panic!("shards is an array")
    };
    assert!(shards.iter().all(|s| s.get("profile").is_some()));
    for line in log.to_jsonl().lines() {
        Json::parse(line).unwrap_or_else(|e| panic!("event line {line:?}: {e}"));
    }

    // The event log records the truncation prominently.
    let kinds: Vec<&str> = log.iter().map(|(_, e)| e.kind()).collect();
    assert!(kinds.contains(&"run_start"));
    assert!(kinds.contains(&"watchdog_truncation"));
    assert!(kinds.contains(&"run_finished"));
    let truncations: Vec<_> = log
        .iter()
        .filter_map(|(_, e)| match e {
            HarnessEvent::WatchdogTruncation {
                complete_windows,
                sim_nanos,
                ..
            } => Some((*complete_windows, *sim_nanos)),
            _ => None,
        })
        .collect();
    assert_eq!(truncations.len(), 1);
    assert_eq!(truncations[0].0, run.windows.len());
    assert_eq!(truncations[0].1, t.sim_nanos);
}

#[test]
fn retried_shards_appear_in_the_event_log_and_logged_runs_match_unlogged() {
    let clean = ShardedAggregate::new(observer_builder(95, 12, 3)).expect("valid");
    let baseline = clean.run_for_secs_with_threads(1.5, 2).expect("runs");
    let mut faulty = ShardedAggregate::new(observer_builder(95, 12, 3)).expect("valid");
    faulty.inject_panic_once(1);
    let mut log = EventLog::new();
    let run = faulty
        .run_for_secs_logged(1.5, 2, &mut log)
        .expect("retry succeeds");
    assert_eq!(run.windows, baseline.windows, "logging changes nothing");
    assert_eq!(run.merged_metrics(), baseline.merged_metrics());
    let kinds: Vec<&str> = log.iter().map(|(_, e)| e.kind()).collect();
    assert!(kinds.contains(&"shard_panicked"));
    assert!(kinds.contains(&"shard_retried"));
    let jsonl = log.to_jsonl();
    assert!(jsonl.contains("\"kind\":\"shard_panicked\""));
    assert!(jsonl.contains("injected shard fault"));
}

#[test]
fn complete_run_manifest_has_no_truncation_and_real_totals() {
    let sharded = ShardedAggregate::new(observer_builder(96, 8, 2)).expect("valid");
    let run = sharded.run_for_secs(1.5).expect("runs");
    let manifest = sharded.manifest("metrics_determinism", &run);
    assert!(!manifest.interrupted);
    assert!(manifest.truncation.is_none());
    assert_eq!(manifest.events, run.events());
    assert_eq!(manifest.arrivals, run.arrivals());
    assert_eq!(manifest.windows, run.windows.len());
    assert_eq!(manifest.shards.len(), 2);
    assert!(manifest.spec_digest.starts_with("fnv1a:"));
    assert_eq!(
        manifest.metrics.counter("trunk.arrivals"),
        Some(run.arrivals())
    );
    // Manifests are deterministic apart from wall time.
    let run2 = sharded.run_for_secs(1.5).expect("runs");
    let mut m2 = sharded.manifest("metrics_determinism", &run2);
    m2.wall_secs = manifest.wall_secs;
    assert_eq!(m2, manifest);
}

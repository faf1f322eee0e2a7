//! Telemetry determinism: run records, engine profiles and causal
//! traces are a pure function of `(spec, seed)`, and the run manifest
//! says what the record does.
//!
//! The contracts, all compared at full bit precision (the compared
//! values are integers):
//!
//! * **reset ≡ fresh** — the trunk record (per-window counts and bytes,
//!   arrivals, pending events, events dispatched) and the engine
//!   profile of a `reset(seed)`-then-run scenario are bit-identical to
//!   a fresh `build()` at the same seed.
//! * **sharded ≡ unsharded** — the merged per-window counts and bytes
//!   and the summed arrivals of an N-shard run equal the unsharded
//!   single sim's, for every N: they are exactly the superposable trunk
//!   quantities.
//! * **instruments never perturb** — profiled, traced and logged runs
//!   record exactly what plain runs do.
//! * **manifests tell the truth** — the rendered manifest parses, its
//!   totals are the run record's, and a watchdog-truncated run's
//!   manifest carries `"interrupted": true` plus the truncation point;
//!   the harness event log records the truncation and any retries.
//! * **traces replay** — the causal trace is bit-identical under
//!   `reset(seed)` vs a fresh build, and a one-shard sharded run's trace
//!   equals the unsharded sim's.

use linkpad_obs::json::Json;
use linkpad_obs::{EventLog, HarnessEvent};
use linkpad_workloads::scenario::{BuiltScenario, ScenarioBuilder};
use linkpad_workloads::shard::{ShardedAggregate, ShardedRun};
use linkpad_workloads::spec::PayloadModel;

fn observer_builder(seed: u64, flows: usize, shards: usize) -> ScenarioBuilder {
    ScenarioBuilder::aggregate(seed, flows)
        .with_payload_rate(10.0)
        .with_trunk_observer(0.1)
        .with_cohorts(4)
        .with_shards(shards)
}

/// The numbers a run's telemetry summarises.
#[derive(Debug, PartialEq)]
struct Record {
    counts: Vec<u64>,
    bytes: Vec<u64>,
    arrivals: u64,
    pending: usize,
    events: u64,
}

impl Record {
    /// The merged trunk view of a sharded run; `pending` is the peak.
    fn of_run(run: &ShardedRun) -> Self {
        Self {
            counts: run.windows.iter().map(|w| w.count).collect(),
            bytes: run.windows.iter().map(|w| w.bytes).collect(),
            arrivals: run.arrivals(),
            pending: run.pending_peak(),
            events: run.events(),
        }
    }

    /// The trunk view of an unsharded scenario; `pending` is the level
    /// at the end of the run.
    fn of_sim(s: &BuiltScenario) -> Self {
        let obs = s
            .aggregate
            .as_ref()
            .expect("aggregate family")
            .trunk_observer
            .clone()
            .expect("observer configured");
        let windows = obs.window_series();
        Self {
            counts: windows.iter().map(|w| w.count).collect(),
            bytes: windows.iter().map(|w| w.bytes).collect(),
            arrivals: obs.arrivals(),
            pending: s.sim.pending_events(),
            events: s.sim.events_processed(),
        }
    }

    /// The exactly superposable part: what every shard count must
    /// reproduce.
    fn superposable(&self) -> (&[u64], &[u64], u64) {
        (&self.counts, &self.bytes, self.arrivals)
    }
}

/// Run an unsharded scenario and read its trunk record.
fn single_record(builder: &ScenarioBuilder, secs: f64) -> Record {
    let mut s = builder.clone().build().expect("builds");
    s.run_for_secs(secs);
    Record::of_sim(&s)
}

/// A numeric manifest field.
fn field(doc: &Json, key: &str) -> f64 {
    doc.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("manifest field {key} is a number"))
}

#[test]
fn reset_and_fresh_builds_produce_bit_identical_records_and_profiles() {
    let builder = observer_builder(91, 10, 1);
    let mut fresh = builder.clone().build().expect("builds");
    fresh.sim.enable_profiling();
    fresh.run_for_secs(1.5);
    let fresh_record = Record::of_sim(&fresh);
    let fresh_profile = fresh.sim.profile_report().expect("profiling enabled");
    assert!(fresh_record.arrivals > 0);

    // Pollute the scenario with a different-seed run, then reset back:
    // both the trunk record and the engine profile must replay
    // bit-for-bit. (The trunk counts may coincide across seeds — CIT
    // padding making the output rate seed-independent is the
    // countermeasure working — so the teeth of this test are the
    // replay equalities, not a cross-seed inequality.)
    fresh.reset(12345);
    fresh.run_for_secs(1.5);
    fresh.reset(91);
    fresh.run_for_secs(1.5);
    assert_eq!(
        Record::of_sim(&fresh),
        fresh_record,
        "reset must replay the record"
    );
    assert_eq!(
        fresh.sim.profile_report().expect("still enabled"),
        fresh_profile,
        "reset must replay the engine profile"
    );
}

#[test]
fn sharded_merged_windows_equal_the_unsharded_run_bit_for_bit() {
    let secs = 2.05; // end mid-window
    let single = single_record(&observer_builder(92, 13, 1), secs);
    assert!(!single.counts.is_empty());
    for shards in [1usize, 2, 3, 5] {
        let sharded = ShardedAggregate::new(observer_builder(92, 13, shards)).expect("valid");
        let run = sharded.run_for_secs(secs).expect("runs");
        assert_eq!(
            Record::of_run(&run).superposable(),
            single.superposable(),
            "{shards} shards: merged counts, bytes and arrivals must superpose exactly"
        );
    }
}

#[test]
fn variable_payload_sharded_merge_byte_counts_are_bit_identical() {
    let secs = 2.05; // end mid-window
    let builder = |shards: usize, model: PayloadModel| {
        observer_builder(89, 13, shards).with_payload_model(model)
    };

    // Deterministic variable payloads (MTU padding): every emission is
    // 1500 B on the wire, so the merged bytes must superpose exactly
    // for every shard count — the bytes channel inherits the count
    // channel's superposition contract bit-for-bit.
    let mtu = PayloadModel::MtuPadded { mtu: 1500 };
    let single = single_record(&builder(1, mtu), secs);
    let want_count: u64 = single.counts.iter().sum();
    let want_bytes: u64 = single.bytes.iter().sum();
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
            Record::of_run(&run).superposable(),
            single.superposable(),
            "{shards} shards: merged bytes must superpose exactly"
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
    assert_eq!(Record::of_run(&a), Record::of_run(&b));
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
        // Cohort traffic is no event: only the target shard's event
        // store sees pushes.
        let pushes = pa.store.push_near + pa.store.push_rung + pa.store.push_far;
        assert_eq!(
            pushes > 0,
            ra.shard == 0,
            "shard {} pushes {pushes}",
            ra.shard
        );
    }
    // Profiling must not perturb the simulated results.
    let plain = ShardedAggregate::new(observer_builder(93, 10, 3))
        .expect("valid")
        .run_for_secs_with_threads(1.5, 2)
        .expect("runs");
    assert_eq!(a.windows, plain.windows);
    assert_eq!(Record::of_run(&a), Record::of_run(&plain));
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
    // bit-for-bit, exactly like the trunk record and the profile.
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

    // Tracing must not perturb the simulated results: windows, the
    // record's totals and event counts match an untraced run
    // byte-for-byte.
    let plain = ShardedAggregate::new(builder)
        .expect("valid")
        .run_for_secs(secs)
        .expect("runs");
    assert!(plain.shards[0].trace.is_none());
    assert_eq!(run.windows, plain.windows);
    assert_eq!(Record::of_run(&run), Record::of_run(&plain));
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

    // The manifest carries the explicit interrupted flag and cut point,
    // and both artifacts are well-formed JSON, per-shard profiles
    // included.
    let doc = Json::parse(&bounded.manifest("metrics_determinism", &run)).expect("parses");
    assert_eq!(
        doc.get("schema"),
        Some(&Json::Str("linkpad-run-manifest-v2".into()))
    );
    assert_eq!(doc.get("interrupted"), Some(&Json::Bool(true)));
    let truncation = doc.get("truncation").expect("truncation recorded");
    assert_eq!(
        field(truncation, "complete_windows"),
        run.windows.len() as f64
    );
    let sim_nanos = field(truncation, "sim_nanos");
    assert!(sim_nanos > 0.0, "trip point is a real sim time");
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
    assert_eq!(truncations[0].1 as f64, sim_nanos);
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
    assert_eq!(Record::of_run(&run), Record::of_run(&baseline));
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
    let text = sharded.manifest("metrics_determinism", &run);
    let doc = Json::parse(&text).expect("parses");
    assert_eq!(
        doc.get("schema"),
        Some(&Json::Str("linkpad-run-manifest-v2".into()))
    );
    assert_eq!(doc.get("interrupted"), Some(&Json::Bool(false)));
    assert_eq!(doc.get("truncation"), Some(&Json::Null));
    assert_eq!(field(&doc, "seed"), 96.0);
    assert_eq!(field(&doc, "events"), run.events() as f64);
    assert_eq!(field(&doc, "arrivals"), run.arrivals() as f64);
    assert_eq!(field(&doc, "windows"), run.windows.len() as f64);
    assert_eq!(field(&doc, "peak_pending"), run.pending_peak() as f64);
    let bytes: u64 = run.windows.iter().map(|w| w.bytes).sum();
    assert_eq!(field(&doc, "window_bytes"), bytes as f64);
    let counts = doc.get("window_counts").expect("count distribution");
    let count_sum: u64 = run.windows.iter().map(|w| w.count).sum();
    assert_eq!(field(counts, "sum"), count_sum as f64);
    assert_eq!(field(counts, "count"), run.windows.len() as f64);
    let Some(Json::Str(digest)) = doc.get("spec_digest") else {
        panic!("spec_digest is a string")
    };
    assert!(digest.starts_with("fnv1a:"));

    // One entry per shard, each the shard report's numbers.
    let Some(Json::Arr(shards)) = doc.get("shards") else {
        panic!("shards is an array")
    };
    assert_eq!(shards.len(), run.shards.len());
    for (entry, report) in shards.iter().zip(&run.shards) {
        assert_eq!(field(entry, "shard"), report.shard as f64);
        assert_eq!(field(entry, "flow_start"), report.flow_range.0 as f64);
        assert_eq!(field(entry, "flow_count"), report.flow_range.1 as f64);
        assert_eq!(field(entry, "events"), report.events as f64);
        assert_eq!(field(entry, "arrivals"), report.arrivals as f64);
        assert_eq!(field(entry, "windows"), report.windows.len() as f64);
        assert_eq!(field(entry, "pending_peak"), report.pending_peak as f64);
        assert_eq!(entry.get("interrupted"), Some(&Json::Bool(false)));
        assert_eq!(entry.get("profile").is_some(), report.profile.is_some());
    }

    // Manifests are deterministic apart from wall time.
    let without_wall = |text: &str| match Json::parse(text).expect("parses") {
        Json::Obj(fields) => fields
            .into_iter()
            .filter(|(k, _)| k != "wall_secs")
            .collect::<Vec<_>>(),
        other => panic!("manifest is an object, got {other:?}"),
    };
    let run2 = sharded.run_for_secs(1.5).expect("runs");
    assert_eq!(
        without_wall(&sharded.manifest("metrics_determinism", &run2)),
        without_wall(&text)
    );
}

#[test]
fn spec_digest_names_the_spec_not_the_seed() {
    let digest = |seed: u64, flows: usize| {
        let sharded = ShardedAggregate::new(observer_builder(seed, flows, 2)).expect("valid");
        let run = sharded.run_for_secs(0.3).expect("runs");
        let doc = Json::parse(&sharded.manifest("metrics_determinism", &run)).expect("parses");
        assert_eq!(field(&doc, "seed"), seed as f64);
        doc.get("spec_digest").cloned().expect("digest recorded")
    };
    assert_eq!(digest(1, 8), digest(2, 8), "one spec, two seeds");
    assert_ne!(digest(1, 8), digest(1, 9), "8 vs 9 flows");
}

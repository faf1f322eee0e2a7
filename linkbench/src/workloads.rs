//! The benchmark's three workloads and the checks on their outputs.
//!
//! Each workload turns a seed into one *answer* — the number a
//! researcher runs the workspace for — through the public functions of
//! the layers it exercises. Every answer under one seed repeats the same
//! simulated work, so its digest and deterministic counts must repeat
//! exactly; [`Bench::answer`] reports every output check as an
//! operation that passed or failed instead of aborting.
//!
//! * `lab_cross` — the Fig. 6 point: CIT padding, payload classes 10 vs
//!   40 pkt/s, packet-level Poisson cross traffic at 45 % lab-router
//!   utilization, tap at GW2 ingress, sample size n = 800, the mean,
//!   variance and entropy features into KDE-Bayes. Replications run
//!   through `BuiltScenario::reset` + `collect_piats` on two workers.
//!   Chosen because it is the slowest end-to-end path (~2 400 events per
//!   PIAT) with a tiny pending set: dispatch-bound, cache-resident store.
//! * `gateway_trunk` — `ScenarioBuilder::aggregate`: 10⁴ real gateway
//!   pairs on a 100 ms trunk, a 200 ms-window trunk observer and both
//!   flow-count channels, one event loop on one thread; the first answer
//!   builds the topology and later ones reset it. Chosen because ~130 k
//!   pending events put the store far beyond cache, with no parallelism
//!   to hide a slower loop.
//! * `cohort_defenses` — the `perf::defense_grid` defenses, each as
//!   1024-flow cohorts over two shards on two threads, 20τ observer
//!   windows and both flow-count channels. Chosen because it reaches the
//!   trunk, observer and demux differently (cohort comb and heap paths,
//!   bursty arrivals) and puts the shard fan-out on the critical path.

use crate::spans::{EngineProbe, Layer, Probe};
use linkpad_adversary::aggregate::{estimate_flow_count, estimate_flow_count_from_bytes};
use linkpad_adversary::classifier::KdeBayes;
use linkpad_adversary::feature::{Feature, SampleEntropy, SampleMean, SampleVariance};
use linkpad_adversary::pipeline::{evaluate, features_from_piats_counted};
use linkpad_bench::perf::{defense_grid, provisioned_trunk_bps};
use linkpad_obs::{EventLog, HarnessEvent, ProfileReport};
use linkpad_sim::observer::merge_window_series;
use linkpad_sim::parallel::parallel_map_init_catching;
use linkpad_sim::{
    AttributionReport, AttributionRow, AttributionSampler, SimDuration, WindowStats,
};
use linkpad_stats::rng::splitmix64_mix;
use linkpad_workloads::aggregate::PhaseSpec;
use linkpad_workloads::scenario::{BuiltScenario, ScenarioBuilder, TapPosition};
use linkpad_workloads::shard::ShardedAggregate;
use std::collections::BTreeMap;

/// Worker threads of the parallel workloads.
pub const THREADS: usize = 2;

/// Attribution samples every this-many-th dispatch.
pub const ATTRIBUTION_EVERY: u64 = 64;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Lab topology with packet-level cross traffic (Fig. 6).
    LabCross,
    /// 10⁴ gateway pairs on one observed trunk.
    GatewayTrunk,
    /// The defense grid as sharded cohorts.
    CohortDefenses,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::LabCross,
        Workload::GatewayTrunk,
        Workload::CohortDefenses,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LabCross => "lab_cross",
            Workload::GatewayTrunk => "gateway_trunk",
            Workload::CohortDefenses => "cohort_defenses",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads one answer uses.
    pub fn threads(self) -> usize {
        match self {
            Workload::GatewayTrunk => 1,
            Workload::LabCross | Workload::CohortDefenses => THREADS,
        }
    }
}

/// Size knobs. [`Scale::full`] is what the benchmark measures;
/// [`Scale::tiny`] is what its test runs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `lab_cross`: PIATs per feature sample (n).
    pub sample_size: usize,
    /// `lab_cross`: replications per payload class.
    pub reps_per_class: usize,
    /// `lab_cross`: feature samples each replication collects.
    pub samples_per_rep: usize,
    /// `gateway_trunk`: gateway pairs.
    pub trunk_flows: usize,
    /// `gateway_trunk`: steady-state windows fed to the estimators.
    pub trunk_windows: usize,
    /// `cohort_defenses`: flows per defense.
    pub cohort_flows: usize,
    /// `cohort_defenses`: steady-state windows fed to the estimators.
    pub cohort_windows: usize,
}

impl Scale {
    /// The measured scale.
    pub fn full() -> Self {
        Self {
            sample_size: 800,
            reps_per_class: 4,
            samples_per_rep: 4,
            trunk_flows: 10_000,
            trunk_windows: 9,
            cohort_flows: 20_000,
            cohort_windows: 4,
        }
    }

    /// A scale that runs in well under a second per workload.
    pub fn tiny() -> Self {
        Self {
            sample_size: 100,
            reps_per_class: 2,
            samples_per_rep: 4,
            trunk_flows: 200,
            trunk_windows: 3,
            cohort_flows: 3_000,
            cohort_windows: 3,
        }
    }
}

// ---- Workload constants -------------------------------------------------

/// `lab_cross` payload classes, pkt/s.
const LAB_RATES: [f64; 2] = [10.0, 40.0];
/// `lab_cross` cross-traffic utilization of the lab router.
const LAB_UTILIZATION: f64 = 0.45;
/// `lab_cross` boot-transient PIATs discarded per replication.
const LAB_WARMUP: usize = 64;
/// `lab_cross` tap: in front of GW2.
const LAB_TAP: TapPosition = TapPosition::ReceiverIngress;
/// Largest relative deviation of a replication's mean PIAT from τ.
const MEAN_PIAT_TOLERANCE: f64 = 0.01;

/// `gateway_trunk` trunk capacity, bits/s.
const TRUNK_BPS: f64 = 10e9;
/// `gateway_trunk` trunk propagation, seconds.
const TRUNK_PROPAGATION: f64 = 0.1;
/// `gateway_trunk` observer window, seconds.
const TRUNK_WINDOW: f64 = 0.2;
/// `gateway_trunk` run slice, seconds.
const TRUNK_SLICE: f64 = 0.25;

/// `cohort_defenses` flows per cohort node.
const COHORT_SIZE: usize = 1024;
/// `cohort_defenses` shards per defense.
pub const COHORT_SHARDS: usize = 2;
/// `cohort_defenses` observer window over τ.
const COHORT_WINDOW_OVER_TAU: f64 = 20.0;
/// `cohort_defenses` trunk propagation, seconds.
const COHORT_PROPAGATION: f64 = 5e-3;
/// Slices a shard run is split into (as `ShardedAggregate` does).
const SHARD_SLICES: usize = 8;

/// Boot-transient windows skipped before the estimators.
const SKIP_WINDOWS: usize = 2;
/// Flow-count gate of both channels (the `fig_defense_matrix` gate).
const FLOW_COUNT_GATE: f64 = 0.10;

/// A seed for one part of an answer, derived from the workload seed.
fn derive(seed: u64, salt: u64) -> u64 {
    splitmix64_mix(seed ^ splitmix64_mix(salt.wrapping_add(0x6C69_6E6B)))
}

// ---- Answer ----------------------------------------------------------------

/// Engine profile counters summed over the sims of one answer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Timer events dispatched.
    pub timer_events: u64,
    /// Delivery events dispatched.
    pub deliver_events: u64,
    /// Same-instant delivery batches.
    pub deliver_batches: u64,
    /// Pushes routed to the near heap.
    pub push_near: u64,
    /// Pushes routed to a calendar rung.
    pub push_rung: u64,
    /// Pushes spilled to the far tier.
    pub push_far: u64,
    /// Rung-to-near refills.
    pub refills: u64,
    /// Ladder re-bases.
    pub rebases: u64,
    /// Largest sampled pending population of any sim.
    pub depth_peak: u64,
}

impl EngineCounters {
    fn add(&mut self, p: &ProfileReport) {
        self.timer_events += p.timer_events;
        self.deliver_events += p.deliver_events;
        self.deliver_batches += p.deliver_batches;
        self.push_near += p.store.push_near;
        self.push_rung += p.store.push_rung;
        self.push_far += p.store.push_far;
        self.refills += p.store.refills;
        self.rebases += p.store.rebases;
        self.depth_peak = self.depth_peak.max(p.depth_peak);
    }
}

/// Sum attribution rows by node type.
fn merge_attribution(into: &mut Option<AttributionReport>, from: &AttributionReport) {
    let report = into.get_or_insert_with(|| AttributionReport {
        rows: Vec::new(),
        sample_every: from.sample_every,
        dispatches_seen: 0,
    });
    report.dispatches_seen += from.dispatches_seen;
    let mut rows: BTreeMap<String, AttributionRow> = report
        .rows
        .drain(..)
        .map(|r| (r.label.clone(), r))
        .collect();
    for r in &from.rows {
        let row = rows
            .entry(r.label.clone())
            .or_insert_with(|| AttributionRow {
                label: r.label.clone(),
                samples: 0,
                store_ns: 0,
                context_ns: 0,
                dispatch_ns: 0,
            });
        row.samples += r.samples;
        row.store_ns += r.store_ns;
        row.context_ns += r.context_ns;
        row.dispatch_ns += r.dispatch_ns;
    }
    report.rows = rows.into_values().collect();
}

/// One answer's outputs, deterministic counts and check results.
#[derive(Debug, Clone, Default)]
pub struct Answer {
    /// FNV-1a digest of the simulated output (PIAT streams or merged
    /// window series).
    pub digest: u64,
    /// Events dispatched across every sim of the answer.
    pub events: u64,
    /// PIATs delivered to the classifier, or trunk arrivals folded into
    /// windows.
    pub observations: u64,
    /// Operations attempted: replications, detections, shard runs and
    /// trunk runs.
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// Largest pending population seen between run slices.
    pub pending_peak: u64,
    /// Engine profile, when the probe asked for one.
    pub profile: Option<EngineCounters>,
    /// Per-node-type attribution, when the probe asked for one.
    pub attribution: Option<AttributionReport>,
    /// Detection rate of the mean, variance and entropy features.
    pub detect_rates: [f64; 3],
    /// PIATs collected but not used by the feature samples.
    pub dropped_piats: u64,
    /// Largest count-channel flow-count error, percent.
    pub count_err_pct: f64,
    /// Largest byte-channel flow-count error, percent.
    pub byte_err_pct: f64,
    /// Events per shard, one list per sharded run.
    pub shard_events: Vec<Vec<u64>>,
    /// Shard retries the coordinator logged.
    pub retries: u64,
}

impl Answer {
    /// Failed operations.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Record one operation and the problems its checks found.
    fn op(&mut self, what: impl FnOnce() -> String, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failures
                .push(format!("{}: {}", what(), problems.join("; ")));
        }
    }
}

/// The simulated output, serialised for its FNV-1a digest.
#[derive(Default)]
struct Digest(Vec<u8>);

impl Digest {
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        linkpad_obs::fnv1a(&self.0)
    }

    fn windows(&mut self, windows: &[WindowStats]) {
        self.u64(windows.len() as u64);
        for w in windows {
            self.u64(w.count);
            self.u64(w.bytes);
            self.u64(w.piats.count());
            self.u64(w.piats.mean().unwrap_or(0.0).to_bits());
            self.u64(w.coverage.to_bits());
        }
    }
}

/// Both flow-count channels over the steady-state windows; returns the
/// two relative errors, percent, and the problems found.
fn flow_count_check(
    windows: &[WindowStats],
    measured: usize,
    flows: usize,
    window: f64,
    window_over_interval: f64,
    mean_bytes: f64,
) -> (f64, f64, Vec<String>) {
    let mut problems = Vec::new();
    let span = SKIP_WINDOWS..SKIP_WINDOWS + measured;
    // Runs end inside the window after the measured ones; an arrival at
    // exactly the end instant may open one more.
    let expected = span.end + 1;
    if !(expected..=expected + 1).contains(&windows.len()) {
        problems.push(format!(
            "{} merged windows, expected {expected} or {}",
            windows.len(),
            expected + 1
        ));
        return (f64::NAN, f64::NAN, problems);
    }
    let counts: Vec<f64> = windows[span.clone()]
        .iter()
        .map(|w| w.count as f64)
        .collect();
    let rates: Vec<f64> = windows[span]
        .iter()
        .map(|w| w.bytes as f64 / window)
        .collect();
    let mut err =
        |channel: &str, est: linkpad_stats::Result<linkpad_adversary::FlowCountEstimate>| match est
        {
            Ok(e) => {
                let rel = e.relative_error(flows);
                if rel.is_nan() || rel > FLOW_COUNT_GATE {
                    problems.push(format!(
                        "{channel} channel reads {:.0} flows of {flows}",
                        e.n_hat
                    ));
                }
                rel * 100.0
            }
            Err(e) => {
                problems.push(format!("{channel} channel: {e}"));
                f64::NAN
            }
        };
    let count_err = err("count", estimate_flow_count(&counts, window_over_interval));
    let byte_err = err(
        "byte",
        estimate_flow_count_from_bytes(&rates, window, mean_bytes, window_over_interval),
    );
    (count_err, byte_err, problems)
}

// ---- The benchmark -----------------------------------------------------------

/// One workload at one scale.
pub struct Bench {
    workload: Workload,
    scale: Scale,
    /// `gateway_trunk`: the topology the first answer builds and later
    /// answers reset, so they measure the warm event loop.
    trunk: Option<BuiltScenario>,
}

impl Bench {
    /// A workload at a scale.
    pub fn new(workload: Workload, scale: Scale) -> Self {
        Self {
            workload,
            scale,
            trunk: None,
        }
    }

    /// Build, serially, every topology an answer builds, and drop them:
    /// the set-up cost paid before the first event. Answers build (or
    /// reset) their own topologies, so this measures the build without
    /// changing them.
    pub fn setup(&self, probe: Probe) -> Result<(), String> {
        let build = |b: ScenarioBuilder, root| {
            probe
                .span("build", Layer::Scenario, root, |_| b.build())
                .map(drop)
                .map_err(|e| format!("{} build: {e}", self.workload.name()))
        };
        probe.span("setup", Layer::Bench, 0, |root| match self.workload {
            Workload::LabCross => LAB_RATES
                .into_iter()
                .try_for_each(|rate| build(lab_builder(rate), root)),
            Workload::GatewayTrunk => build(trunk_builder(&self.scale), root),
            Workload::CohortDefenses => {
                for (i, (_, spec, payload)) in defense_grid().into_iter().enumerate() {
                    let sharded =
                        ShardedAggregate::new(cohort_builder(&self.scale, 0, i, spec, payload))
                            .map_err(|e| format!("cohort config: {e}"))?;
                    for s in 0..sharded.shards() {
                        build(sharded.shard_builder(s), root)?;
                    }
                }
                Ok(())
            }
        })
    }

    /// Compute one answer under `seed`.
    pub fn answer(&mut self, seed: u64, probe: Probe) -> Answer {
        probe.span("answer", Layer::Bench, 0, |root| match self.workload {
            Workload::LabCross => lab_answer(&self.scale, seed, probe, root),
            Workload::GatewayTrunk => trunk_answer(&self.scale, &mut self.trunk, seed, probe, root),
            Workload::CohortDefenses => cohort_answer(&self.scale, seed, probe, root),
        })
    }
}

// ---- lab_cross -------------------------------------------------------------------

fn lab_builder(rate: f64) -> ScenarioBuilder {
    ScenarioBuilder::lab(0)
        .with_payload_rate(rate)
        .with_uniform_utilization(LAB_UTILIZATION)
}

/// One replication's output.
struct Replication {
    piats: Vec<f64>,
    events: u64,
    pending: u64,
    profile: Option<ProfileReport>,
    attribution: Option<AttributionReport>,
}

/// `BuiltScenario::collect_piats` with the engine's attributed loop in
/// place of `run_for`: the same run slices and stall rule, so the run
/// dispatches exactly the events the plain collection does.
fn collect_piats_attributed(
    s: &mut BuiltScenario,
    tau: f64,
    count: usize,
    warmup: usize,
    sampler: &mut AttributionSampler,
) -> Result<Vec<f64>, String> {
    let tap = s.tap(LAB_TAP).clone();
    let needed = warmup + count + 1;
    tap.reserve(needed.saturating_sub(tap.count()));
    let mut idle_rounds = 0;
    while tap.count() < needed {
        let before = tap.count();
        let span = ((needed - before) as f64 * tau * 1.25).max(tau * 16.0);
        let until = s.sim.now() + SimDuration::from_secs_f64(span);
        s.sim.run_until_attributed(until, sampler);
        if tap.count() == before {
            idle_rounds += 1;
            if idle_rounds >= 3 {
                return Err(format!("tap stalled at {before} of {needed} packets"));
            }
        } else {
            idle_rounds = 0;
        }
    }
    let mut out = Vec::with_capacity(count);
    tap.piats_window_into(warmup, count, &mut out);
    Ok(out)
}

fn replicate(
    slot: &mut [Option<BuiltScenario>; 2],
    class: usize,
    seed: u64,
    count: usize,
    probe: Probe,
    parent: u64,
) -> Result<Replication, String> {
    let builder = lab_builder(LAB_RATES[class]);
    if slot[class].is_none() {
        let built = probe.span("build", Layer::Scenario, parent, |_| builder.build());
        slot[class] = Some(built.map_err(|e| format!("build: {e}"))?);
    }
    let s = slot[class].as_mut().expect("slot filled above");
    probe.span("reset", Layer::Scenario, parent, |_| s.reset(seed));
    let mut attribution = None;
    let piats = probe.span("collect_piats", Layer::Engine, parent, |_| {
        match probe.engine {
            EngineProbe::Plain | EngineProbe::SerialShards => s
                .collect_piats(LAB_TAP, count, LAB_WARMUP)
                .map_err(|e| e.to_string()),
            EngineProbe::Profile => {
                s.sim.enable_profiling();
                let out = s.collect_piats(LAB_TAP, count, LAB_WARMUP);
                out.map_err(|e| e.to_string())
            }
            EngineProbe::Attribute => {
                let mut sampler = AttributionSampler::new(ATTRIBUTION_EVERY);
                let out = collect_piats_attributed(
                    s,
                    builder.defaults.tau,
                    count,
                    LAB_WARMUP,
                    &mut sampler,
                );
                attribution = Some(sampler.report());
                out
            }
        }
    })?;
    let profile = s.sim.profile_report();
    s.sim.disable_profiling();
    Ok(Replication {
        piats,
        events: s.sim.events_processed(),
        pending: s.sim.pending_events() as u64,
        profile,
        attribution,
    })
}

/// The checks on one replication's PIAT stream.
fn piat_problems(piats: &[f64], count: usize, tau: f64) -> Vec<String> {
    let mut problems = Vec::new();
    if piats.len() != count {
        problems.push(format!("{} PIATs, expected {count}", piats.len()));
    }
    if let Some(bad) = piats.iter().find(|x| !(x.is_finite() && **x > 0.0)) {
        problems.push(format!("PIAT {bad} is not finite and positive"));
    }
    if !piats.is_empty() {
        let mean = piats.iter().sum::<f64>() / piats.len() as f64;
        // A non-finite mean is already reported above.
        if (mean - tau).abs() > MEAN_PIAT_TOLERANCE * tau {
            problems.push(format!("mean PIAT {mean:e} s is not τ = {tau} s"));
        }
    }
    problems
}

fn lab_answer(scale: &Scale, seed: u64, probe: Probe, root: u64) -> Answer {
    let mut answer = Answer::default();
    let count = scale.samples_per_rep * scale.sample_size;
    let tau = lab_builder(LAB_RATES[0]).defaults.tau;
    let jobs: Vec<(usize, u64)> = (0..LAB_RATES.len())
        .flat_map(|class| {
            (0..scale.reps_per_class).map(move |k| (class, derive(seed, (class * 1000 + k) as u64)))
        })
        .collect();
    let results = probe.span("parallel_map", Layer::Parallel, root, |fanout| {
        parallel_map_init_catching(
            jobs.clone(),
            THREADS,
            || [None, None],
            |slot, (class, rep_seed)| {
                probe.span("replication", Layer::Parallel, fanout, |rep| {
                    replicate(slot, class, rep_seed, count, probe, rep)
                })
            },
        )
    });

    let mut digest = Digest::default();
    let mut streams: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for ((class, rep_seed), result) in jobs.into_iter().zip(results) {
        let what = || format!("replication class={class} seed={rep_seed:#x}");
        let rep = match result {
            Ok(Ok(rep)) => rep,
            Ok(Err(e)) => {
                answer.op(what, vec![e]);
                continue;
            }
            Err(panic) => {
                answer.op(what, vec![format!("panicked: {}", panic.message)]);
                continue;
            }
        };
        answer.op(what, piat_problems(&rep.piats, count, tau));
        answer.events += rep.events;
        answer.pending_peak = answer.pending_peak.max(rep.pending);
        if let Some(p) = &rep.profile {
            answer
                .profile
                .get_or_insert_with(EngineCounters::default)
                .add(p);
        }
        if let Some(a) = &rep.attribution {
            merge_attribution(&mut answer.attribution, a);
        }
        for &x in &rep.piats {
            digest.u64(x.to_bits());
        }
        answer.observations += rep.piats.len() as u64;
        streams[class].extend_from_slice(&rep.piats);
    }
    answer.digest = digest.finish();

    let problems = detect(scale, &streams, probe, root, &mut answer);
    answer.op(|| "detection".into(), problems);
    answer
}

/// Features, KDE-Bayes training and evaluation for the three features:
/// the first half of each class's samples trains, the second half tests.
fn detect(
    scale: &Scale,
    streams: &[Vec<f64>; 2],
    probe: Probe,
    root: u64,
    answer: &mut Answer,
) -> Vec<String> {
    let samples = scale.reps_per_class * scale.samples_per_rep;
    let train = samples / 2;
    if streams
        .iter()
        .any(|s| s.len() != samples * scale.sample_size)
    {
        return vec!["a class stream is incomplete".into()];
    }
    let entropy = SampleEntropy::calibrated();
    let features: [&dyn Feature; 3] = [&SampleMean, &SampleVariance, &entropy];
    let mut problems = Vec::new();
    for (i, feature) in features.into_iter().enumerate() {
        let per_class = probe.span("features_from_piats", Layer::Adversary, root, |_| {
            streams
                .iter()
                .map(|s| features_from_piats_counted(feature, s, scale.sample_size))
                .collect::<Result<Vec<_>, _>>()
        });
        let per_class = match per_class {
            Ok(p) => p,
            Err(e) => {
                problems.push(format!("{} features: {e}", feature.name()));
                continue;
            }
        };
        let (mut train_set, mut test_set) = (Vec::new(), Vec::new());
        for (feats, dropped) in per_class {
            answer.dropped_piats += dropped as u64;
            train_set.push(feats[..train].to_vec());
            test_set.push(feats[train..].to_vec());
        }
        let classifier = probe.span("KdeBayes::train", Layer::Adversary, root, |_| {
            KdeBayes::train(&train_set)
        });
        let classifier = match classifier {
            Ok(c) => c,
            Err(e) => {
                problems.push(format!("{} KDE-Bayes: {e}", feature.name()));
                continue;
            }
        };
        let report = probe.span("evaluate", Layer::Adversary, root, |_| {
            evaluate(&classifier, &test_set)
        });
        let expected = (2 * (samples - train)) as u64;
        if report.total != expected {
            problems.push(format!(
                "{} classified {} samples, expected {expected}",
                feature.name(),
                report.total
            ));
        }
        answer.detect_rates[i] = report.detection_rate();
    }
    problems
}

// ---- gateway_trunk ------------------------------------------------------------

fn trunk_builder(scale: &Scale) -> ScenarioBuilder {
    ScenarioBuilder::aggregate(0, scale.trunk_flows)
        .with_trunk(TRUNK_BPS, TRUNK_PROPAGATION)
        .with_trunk_observer(TRUNK_WINDOW)
}

fn trunk_answer(
    scale: &Scale,
    slot: &mut Option<BuiltScenario>,
    seed: u64,
    probe: Probe,
    root: u64,
) -> Answer {
    let mut answer = Answer::default();
    let builder = trunk_builder(scale);
    if slot.is_none() {
        match probe.span("build", Layer::Scenario, root, |_| builder.build()) {
            Ok(built) => *slot = Some(built),
            Err(e) => {
                answer.op(|| "trunk run".into(), vec![format!("build: {e}")]);
                return answer;
            }
        }
    }
    let s = slot.as_mut().expect("slot filled above");
    let seed = derive(seed, 1);
    probe.span("reset", Layer::Scenario, root, |_| s.reset(seed));
    let sim_secs = TRUNK_WINDOW * (SKIP_WINDOWS + scale.trunk_windows) as f64 + TRUNK_WINDOW / 4.0;
    let slices = (sim_secs / TRUNK_SLICE).ceil() as usize;
    let mut sampler = AttributionSampler::new(ATTRIBUTION_EVERY);
    if probe.engine == EngineProbe::Profile {
        s.sim.enable_profiling();
    }
    for _ in 0..slices {
        probe.span("run_for", Layer::Engine, root, |_| {
            let span = SimDuration::from_secs_f64(sim_secs / slices as f64);
            if probe.engine == EngineProbe::Attribute {
                let until = s.sim.now() + span;
                s.sim.run_until_attributed(until, &mut sampler);
            } else {
                s.sim.run_for(span);
            }
        });
        answer.pending_peak = answer.pending_peak.max(s.sim.pending_events() as u64);
    }
    if let Some(p) = s.sim.profile_report() {
        answer
            .profile
            .get_or_insert_with(EngineCounters::default)
            .add(&p);
    }
    s.sim.disable_profiling();
    if probe.engine == EngineProbe::Attribute {
        answer.attribution = Some(sampler.report());
    }
    answer.events = s.sim.events_processed();

    let Some(observer) = s.aggregate.as_ref().and_then(|a| a.trunk_observer.clone()) else {
        answer.op(|| "trunk run".into(), vec!["no trunk observer".into()]);
        return answer;
    };
    let windows = observer.window_series();
    let mut digest = Digest::default();
    digest.windows(&windows);
    answer.digest = digest.finish();
    answer.observations = observer.arrivals();
    let tau = builder.defaults.tau;
    let mean_bytes = builder
        .payload_model()
        .mean_bytes(builder.defaults.packet_size);
    let (count_err, byte_err, mut problems) =
        probe.span("estimate_flow_count", Layer::Adversary, root, |_| {
            flow_count_check(
                &windows,
                scale.trunk_windows,
                scale.trunk_flows,
                TRUNK_WINDOW,
                TRUNK_WINDOW / tau,
                mean_bytes,
            )
        });
    if answer.observations == 0 {
        problems.push("the observer folded no arrivals".into());
    }
    answer.count_err_pct = count_err;
    answer.byte_err_pct = byte_err;
    answer.op(|| format!("trunk run seed={seed:#x}"), problems);
    answer
}

// ---- cohort_defenses --------------------------------------------------------------

fn cohort_builder(
    scale: &Scale,
    seed: u64,
    defense: usize,
    spec: linkpad_workloads::spec::ScheduleSpec,
    payload: linkpad_workloads::spec::PayloadModel,
) -> ScenarioBuilder {
    let flows = scale.cohort_flows;
    let tau = ScenarioBuilder::aggregate(0, 1).defaults.tau;
    ScenarioBuilder::aggregate(derive(seed, 100 + defense as u64), flows)
        .with_payload_rate(10.0)
        .with_trunk(provisioned_trunk_bps(flows), COHORT_PROPAGATION)
        .with_trunk_observer(COHORT_WINDOW_OVER_TAU * tau)
        .with_cohorts(COHORT_SIZE)
        .with_shards(COHORT_SHARDS)
        .with_phases(PhaseSpec::Uniform {
            seed: derive(seed, 41),
        })
        .with_schedule(spec)
        .with_payload_model(payload)
}

/// Per-shard output of a sharded run.
struct ShardOut {
    windows: Vec<WindowStats>,
    arrivals: u64,
    events: u64,
    pending: u64,
    interrupted: bool,
}

/// Each shard built with `shard_builder(s).build()` and run serially,
/// in the slices `ShardedAggregate` uses, so the shards dispatch the
/// events the sharded run does. With an attribution sink the runs go
/// through the engine's attributed loop.
fn shards_serial(
    sharded: &ShardedAggregate,
    sim_secs: f64,
    probe: Probe,
    parent: u64,
    mut attribution: Option<&mut Option<AttributionReport>>,
) -> Result<Vec<ShardOut>, String> {
    let mut out = Vec::new();
    for s in 0..sharded.shards() {
        let built = probe.span("shard_builder.build", Layer::Scenario, parent, |_| {
            sharded.shard_builder(s).build()
        });
        let mut scenario = built.map_err(|e| format!("shard {s} build: {e}"))?;
        let mut sampler = AttributionSampler::new(ATTRIBUTION_EVERY);
        let mut pending = 0;
        probe.span("shard_run", Layer::Engine, parent, |_| {
            let slice = SimDuration::from_secs_f64(sim_secs / SHARD_SLICES as f64);
            for _ in 0..SHARD_SLICES {
                if attribution.is_some() {
                    let until = scenario.sim.now() + slice;
                    scenario.sim.run_until_attributed(until, &mut sampler);
                } else {
                    scenario.sim.run_for(slice);
                }
                pending = pending.max(scenario.sim.pending_events() as u64);
            }
        });
        if let Some(a) = attribution.as_deref_mut() {
            merge_attribution(a, &sampler.report());
        }
        let observer = scenario
            .aggregate
            .as_ref()
            .and_then(|a| a.trunk_observer.clone())
            .ok_or_else(|| format!("shard {s} has no trunk observer"))?;
        out.push(ShardOut {
            windows: observer.window_series(),
            arrivals: observer.arrivals(),
            events: scenario.sim.events_processed(),
            pending,
            interrupted: scenario.sim.watchdog_tripped(),
        });
    }
    Ok(out)
}

fn cohort_answer(scale: &Scale, seed: u64, probe: Probe, root: u64) -> Answer {
    let mut answer = Answer::default();
    let mut digest = Digest::default();
    let defaults = ScenarioBuilder::aggregate(0, 1).defaults;
    let (tau, pkt) = (defaults.tau, defaults.packet_size);
    let window = COHORT_WINDOW_OVER_TAU * tau;
    let sim_secs = window * (SKIP_WINDOWS + scale.cohort_windows + 1) as f64;
    for (i, (name, spec, payload)) in defense_grid().into_iter().enumerate() {
        let run_what = || format!("{name} trunk run");
        let sharded = match ShardedAggregate::new(cohort_builder(scale, seed, i, spec, payload)) {
            Ok(s) => s,
            Err(e) => {
                answer.op(run_what, vec![e.to_string()]);
                continue;
            }
        };
        let shards = match probe.engine {
            EngineProbe::Attribute | EngineProbe::SerialShards => {
                let sink =
                    (probe.engine == EngineProbe::Attribute).then_some(&mut answer.attribution);
                shards_serial(&sharded, sim_secs, probe, root, sink).map(|shards| {
                    let mut merged = Vec::new();
                    for s in &shards {
                        merge_window_series(&mut merged, &s.windows);
                    }
                    (merged, shards)
                })
            }
            EngineProbe::Plain | EngineProbe::Profile => {
                let sharded = if probe.engine == EngineProbe::Profile {
                    sharded.with_profiling()
                } else {
                    sharded
                };
                let mut log = EventLog::new();
                let run = probe.span("run_for_secs_with_threads", Layer::Shard, root, |_| {
                    if probe.is_traced() {
                        sharded.run_for_secs_logged(sim_secs, THREADS, &mut log)
                    } else {
                        sharded.run_for_secs_with_threads(sim_secs, THREADS)
                    }
                });
                answer.retries += log
                    .iter()
                    .filter(|(_, e)| matches!(e, HarnessEvent::ShardRetried { .. }))
                    .count() as u64;
                run.map_err(|e| e.to_string()).map(|run| {
                    for r in &run.shards {
                        if let Some(p) = &r.profile {
                            answer
                                .profile
                                .get_or_insert_with(EngineCounters::default)
                                .add(p);
                        }
                    }
                    let shards = run
                        .shards
                        .iter()
                        .map(|r| ShardOut {
                            windows: Vec::new(),
                            arrivals: r.arrivals,
                            events: r.events,
                            pending: r.pending_peak as u64,
                            interrupted: r.interrupted,
                        })
                        .collect();
                    (run.windows, shards)
                })
            }
        };
        let (windows, shards) = match shards {
            Ok(x) => x,
            Err(e) => {
                answer.op(run_what, vec![e]);
                continue;
            }
        };
        for (s, out) in shards.iter().enumerate() {
            let problems = if out.interrupted {
                vec!["interrupted".to_string()]
            } else {
                Vec::new()
            };
            answer.op(|| format!("{name} shard {s}"), problems);
            answer.events += out.events;
            answer.observations += out.arrivals;
            answer.pending_peak = answer.pending_peak.max(out.pending);
        }
        answer
            .shard_events
            .push(shards.iter().map(|s| s.events).collect());
        digest.windows(&windows);
        let interval = spec.mean_interval(tau);
        let (count_err, byte_err, problems) =
            probe.span("estimate_flow_count", Layer::Adversary, root, |_| {
                flow_count_check(
                    &windows,
                    scale.cohort_windows,
                    scale.cohort_flows,
                    window,
                    window / interval,
                    payload.mean_bytes(pkt),
                )
            });
        answer.count_err_pct = answer.count_err_pct.max(count_err);
        answer.byte_err_pct = answer.byte_err_pct.max(byte_err);
        answer.op(run_what, problems);
    }
    answer.digest = digest.finish();
    answer
}

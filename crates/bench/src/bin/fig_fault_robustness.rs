//! **Fault robustness** — aggregate-adversary accuracy under injected
//! faults, and harness fault tolerance under injected crashes.
//!
//! Two claims, one per table:
//!
//! 1. **Graceful degradation of estimation (in-sim faults).** The
//!    10⁴-flow cohort aggregate runs under a seeded [`FaultPlan`]:
//!    i.i.d. and bursty (Gilbert–Elliott) trunk loss, scheduled trunk
//!    outages, and periodic observer measurement gaps. The naive rate
//!    law fed the raw gapped counts reads low by the unobserved
//!    fraction (~29 % at 5 % loss + 25 % observer outage — the
//!    collapse); the gap-aware estimator keys on the window coverage
//!    mask, skips blind windows and rescales partial ones, and stays
//!    **within ±15 %** (gate) — its residual error is the *real*
//!    trunk loss, which no observer-side correction can recover.
//!    A trunk *outage* row separates the two fault kinds: when the
//!    link itself is down, coverage stays 1.0 and both estimators
//!    undercount by the traffic the outage removed — that is signal,
//!    not a measurement fault. (Synchronized CIT arrives in τ-grid
//!    bursts, so a periodic outage quantizes to whole bursts: 8 %
//!    downtime swallows 10 % of grid points here.)
//!
//! 2. **Harness fault tolerance (layer 2).** A sharded run of the same
//!    faulted configuration with an injected worker panic must retry
//!    the crashed shard once and produce a merged window series
//!    **bit-identical** to an undisturbed run (gate); a run under a
//!    deliberately small event-budget watchdog must end early with a
//!    truncated series that is a bit-identical *prefix* of the
//!    unbounded run's (gate).
//!
//! Scale via `LINKPAD_SCALE` (`quick` for CI smoke: the two gated
//! fault rows over 2 shards; `paper` default: all fault rows over 4
//! shards). Run:
//! `cargo run --release -p linkpad-bench --bin fig_fault_robustness`
//!
//! Observability flags (see DESIGN.md §Observability):
//! * `--report <path>` — write the machine-readable run manifest of the
//!   watchdog-bounded harness run: the one whose `interrupted: true`
//!   flag and truncation record prove a partial result can never pose
//!   as a complete one. Also enables engine profiling on that run.
//! * `--events <path>` — write the harness lifecycle event log (fault
//!   plan activations, the injected panic and its retry, the watchdog
//!   truncation, observer gap windows) for every sharded run here, as
//!   JSONL.
//!
//! [`FaultPlan`]: linkpad_sim::fault::FaultPlan

use linkpad_adversary::aggregate::{estimate_flow_count, estimate_flow_count_gap_aware};
use linkpad_bench::args::RunArgs;
use linkpad_bench::perf::provisioned_trunk_bps;
use linkpad_bench::runner::Budget;
use linkpad_bench::table::Table;
use linkpad_obs::json::Json;
use linkpad_obs::EventLog;
use linkpad_sim::fault::{FaultPlan, LossModel, OutageSchedule};
use linkpad_sim::observer::WindowStats;
use linkpad_sim::time::SimDuration;
use linkpad_workloads::scenario::ScenarioBuilder;
use linkpad_workloads::shard::ShardedAggregate;

/// Flows in the estimation-accuracy table (the ISSUE gate's N).
const FLOWS: usize = 10_000;
/// Flows per cohort.
const COHORT: usize = 1_024;
/// Observer window = 20τ: integer W/τ, the rate law's exact regime.
const WINDOW_OVER_TAU: f64 = 20.0;
/// Steady-state windows skipped (gateway phase-in) / measured.
const SKIP: usize = 2;
const MEASURED: usize = 8;
/// Coverage below this is a blind window: skip, don't rescale.
const MIN_COVERAGE: f64 = 0.4;

fn secs(x: f64) -> SimDuration {
    SimDuration::from_secs_f64(x)
}

/// The ISSUE's loss axis: 5 % i.i.d. Bernoulli trunk loss.
fn iid_loss() -> LossModel {
    LossModel::Bernoulli { p: 0.05 }
}

/// Bursty loss at the same 5 % mean: π_bad = 0.01/0.21 ≈ 0.048,
/// mean = 0.03·(1−π) + 0.45·π = 0.05, mean burst ≈ 5 packets.
fn bursty_loss() -> LossModel {
    LossModel::GilbertElliott {
        p_good_to_bad: 0.01,
        p_bad_to_good: 0.2,
        loss_good: 0.03,
        loss_bad: 0.45,
    }
}

/// Observer outage: blind for one whole window out of every four
/// (25 % downtime, aligned to the window grid so the mask is crisp:
/// every fourth window has coverage 0.0, the rest 1.0).
fn observer_outage(window: f64) -> OutageSchedule {
    OutageSchedule::new(secs(4.0 * window), secs(window))
}

/// Trunk outage: the *link* down 8 % of the time, twice per window
/// (period W/2 = 10τ). Synchronized CIT traffic arrives in bursts on
/// the τ grid, so the outage doesn't thin the stream by its down
/// fraction — it swallows whole bursts. An 8 ms outage per 100 ms
/// period covers 1 of the 10 grid points → ~10 % drop, a quantization
/// the table records honestly (`drop_pct` vs the 8 % schedule).
fn trunk_outage(window: f64) -> OutageSchedule {
    OutageSchedule::new(secs(window / 2.0), secs(0.08 * window / 2.0))
}

fn builder(seed: u64, flows: usize, window: f64, plan: Option<FaultPlan>) -> ScenarioBuilder {
    let b = ScenarioBuilder::aggregate(seed, flows)
        .with_payload_rate(10.0)
        .with_trunk(provisioned_trunk_bps(flows), 5e-3)
        .with_trunk_observer(window)
        .with_cohorts(COHORT);
    match plan {
        Some(p) => b.with_faults(p),
        None => b,
    }
}

/// Every bit of a merged window series that the adversary can see:
/// counts, bytes, pooled PIAT moments and the coverage mask.
fn series_bits(windows: &[WindowStats]) -> Vec<u64> {
    let mut bits = Vec::with_capacity(windows.len() * 6);
    for w in windows {
        bits.push(w.count);
        bits.push(w.bytes);
        bits.push(w.coverage.to_bits());
        bits.push(w.piats.count());
        bits.push(w.piats.mean().unwrap_or(f64::NAN).to_bits());
        bits.push(w.piats.variance().unwrap_or(f64::NAN).to_bits());
    }
    bits
}

fn main() {
    let args = RunArgs::from_env("fig_fault_robustness", false);
    let observing = args.observing();
    let mut log = EventLog::new();

    let quick = Budget::from_env() == Budget::from_scale(Some("quick"));
    let shards = if quick { 2 } else { 4 };
    let tau = ScenarioBuilder::aggregate(1, 1).defaults.tau;
    let window = WINDOW_OVER_TAU * tau;
    let sim_secs = window * (SKIP + MEASURED + 1) as f64;

    // ---- Part 1: estimation accuracy under in-sim faults -----------------
    // (label, fault plan, paper-scale-only)
    let configs: Vec<(&str, Option<FaultPlan>, bool)> = vec![
        ("fault-free", None, false),
        (
            "iid loss 5%",
            Some(FaultPlan::new(9).with_trunk_loss(iid_loss())),
            true,
        ),
        (
            "bursty loss (GE, mean 5%)",
            Some(FaultPlan::new(9).with_trunk_loss(bursty_loss())),
            true,
        ),
        (
            "trunk outage (8% down)",
            Some(FaultPlan::new(9).with_trunk_outage(trunk_outage(window))),
            true,
        ),
        (
            "iid loss 5% + observer outage 25%",
            Some(
                FaultPlan::new(9)
                    .with_trunk_loss(iid_loss())
                    .with_observer_gaps(observer_outage(window)),
            ),
            false,
        ),
    ];
    let mut table = Table::new(
        format!(
            "Fault robustness: flow-count estimation at N = {FLOWS} under injected \
             faults, W = {:.0} ms = {WINDOW_OVER_TAU}τ, {MEASURED} measured windows \
             (naive = raw gapped counts; gap-aware = coverage-masked + rescaled)",
            window * 1e3
        ),
        &[
            "fault",
            "drop_pct",
            "mean_coverage",
            "used",
            "skipped",
            "naive_n_hat",
            "naive_err_pct",
            "gap_aware_n_hat",
            "gap_aware_err_pct",
        ],
    );
    for (label, plan, paper_only) in configs {
        if quick && paper_only {
            continue;
        }
        let mut s = builder(4242, FLOWS, window, plan)
            .build()
            .expect("faulted aggregate scenario builds");
        s.run_for_secs(sim_secs);
        let handles = s.aggregate.as_ref().expect("aggregate handles");
        let obs = handles.trunk_observer.clone().expect("observer-mode trunk");
        let drop_pct = handles
            .fault_gate
            .as_ref()
            .map_or(0.0, |g| g.drop_fraction() * 100.0);
        let counts = obs.counts();
        let coverages = obs.coverages();
        assert!(
            counts.len() > SKIP + MEASURED,
            "{label}: run too short: {} windows",
            counts.len()
        );
        let span = SKIP..SKIP + MEASURED;
        let naive = estimate_flow_count(&counts[span.clone()], WINDOW_OVER_TAU)
            .expect("naive estimator over steady-state windows");
        let aware = estimate_flow_count_gap_aware(
            &counts[span.clone()],
            &coverages[span],
            WINDOW_OVER_TAU,
            MIN_COVERAGE,
        )
        .expect("gap-aware estimator over steady-state windows");
        let naive_err = naive.relative_error(FLOWS) * 100.0;
        let aware_err = aware.estimate.relative_error(FLOWS) * 100.0;
        eprintln!(
            "{label}: drop {drop_pct:.2}%, naive {:.0} ({naive_err:.1}%), \
             gap-aware {:.0} ({aware_err:.1}%) over {} used / {} skipped",
            naive.n_hat, aware.estimate.n_hat, aware.used, aware.skipped,
        );
        table.row(vec![
            label.to_string(),
            format!("{drop_pct:.2}"),
            format!("{:.2}", aware.mean_coverage),
            aware.used.to_string(),
            aware.skipped.to_string(),
            format!("{:.0}", naive.n_hat),
            format!("{naive_err:.1}"),
            format!("{:.0}", aware.estimate.n_hat),
            format!("{aware_err:.1}"),
        ]);

        // Gates.
        assert!(
            aware_err <= 15.0,
            "{label}: gap-aware estimate off by {aware_err:.1}% (gate: 15%)"
        );
        match label {
            "fault-free" => {
                assert!(naive_err <= 10.0, "fault-free naive err {naive_err:.1}%");
                assert_eq!(aware.skipped, 0, "full coverage skips nothing");
            }
            "iid loss 5% + observer outage 25%" => {
                assert!(
                    naive_err > 15.0,
                    "naive must collapse under observer gaps: {naive_err:.1}%"
                );
                assert!(aware.skipped >= 1, "blind windows must be masked out");
            }
            _ => {}
        }
        if label.contains("loss") {
            assert!(
                (drop_pct - 5.0).abs() < 1.5,
                "{label}: trunk drop fraction {drop_pct:.2}% (configured mean 5%)"
            );
        }
    }
    table.print();
    table.save_csv("fig_fault_robustness").unwrap();
    println!(
        "✓ gap-aware flow count within ±15% at N = {FLOWS} under 5% trunk loss \
         + 25% observer outage (naive reads ~29% low)"
    );

    // ---- Part 2: harness fault tolerance ---------------------------------
    // The faulted configuration again, sharded: worker crashes and
    // wall/event budgets must not change a single recorded bit.
    let h_flows = 4_096;
    let h_window = window;
    let h_secs = h_window * (SKIP + 4 + 1) as f64;
    let h_builder = || {
        ScenarioBuilder::aggregate(7171, h_flows)
            .with_payload_rate(10.0)
            .with_trunk(provisioned_trunk_bps(h_flows), 5e-3)
            .with_trunk_observer(h_window)
            .with_cohorts(512)
            .with_shards(shards)
            .with_faults(
                FaultPlan::new(9)
                    .with_trunk_loss(iid_loss())
                    .with_observer_gaps(observer_outage(h_window)),
            )
    };
    let mut harness_table = Table::new(
        format!(
            "Harness fault tolerance: {h_flows} faulted flows over {shards} shards \
             (clean run = no injected harness fault)"
        ),
        &["harness_fault", "windows", "events", "outcome"],
    );

    let clean_agg = ShardedAggregate::new(h_builder()).expect("sharded configuration valid");
    let clean = if observing {
        clean_agg.run_for_secs_logged(h_secs, shards, &mut log)
    } else {
        clean_agg.run_for_secs(h_secs)
    }
    .expect("clean sharded run");
    assert!(
        clean.windows.iter().any(|w| w.coverage < 1.0),
        "observer gaps must survive the shard merge"
    );
    harness_table.row(vec![
        "none (clean)".to_string(),
        clean.windows.len().to_string(),
        clean.events().to_string(),
        "baseline".to_string(),
    ]);

    // An injected worker panic: caught, shard retried once, merge
    // bit-identical to the undisturbed run.
    let mut crashed = ShardedAggregate::new(h_builder()).expect("sharded configuration valid");
    crashed.inject_panic_once(1);
    let retried = if observing {
        crashed.run_for_secs_logged(h_secs, shards, &mut log)
    } else {
        crashed.run_for_secs(h_secs)
    }
    .expect("retried sharded run");
    assert_eq!(
        series_bits(&retried.windows),
        series_bits(&clean.windows),
        "retried merge must be bit-identical to the clean run"
    );
    assert!(!retried.interrupted());
    harness_table.row(vec![
        "worker panic (shard 1)".to_string(),
        retried.windows.len().to_string(),
        retried.events().to_string(),
        "retried; merge bit-identical".to_string(),
    ]);

    // A deliberately small per-shard event budget: a quarter of the
    // target shard's run. Cohort service is not an event, so only the
    // target shard dispatches; the watchdog ends it early and the
    // merged series is a bit-identical *prefix* of the unbounded run's.
    let budget = clean.shards[0].events / 4;
    let mut bounded_agg = ShardedAggregate::new(h_builder())
        .expect("sharded configuration valid")
        .with_watchdog(Some(budget), None);
    if args.report.is_some() {
        bounded_agg = bounded_agg.with_profiling();
    }
    let bounded = if observing {
        bounded_agg.run_for_secs_logged(h_secs, shards, &mut log)
    } else {
        bounded_agg.run_for_secs(h_secs)
    }
    .expect("watchdog-bounded sharded run");
    assert!(bounded.interrupted(), "the budget must trip the watchdog");
    eprintln!(
        "*** TRUNCATED RUN (deliberate): the {budget}-event/shard watchdog stopped the \
         bounded run — only {} complete windows survive; its manifest records \
         interrupted + the truncation point ***",
        bounded.windows.len()
    );
    assert!(
        !bounded.windows.is_empty() && bounded.windows.len() < clean.windows.len(),
        "interrupted run keeps some but fewer windows ({} vs {})",
        bounded.windows.len(),
        clean.windows.len()
    );
    assert_eq!(
        series_bits(&bounded.windows),
        series_bits(&clean.windows[..bounded.windows.len()]),
        "partial series must be a bit-identical prefix of the full run"
    );
    harness_table.row(vec![
        format!("watchdog ({budget} events/shard)"),
        bounded.windows.len().to_string(),
        bounded.events().to_string(),
        format!(
            "interrupted; {}-window prefix bit-identical",
            bounded.windows.len()
        ),
    ]);

    if let Some(path) = &args.report {
        let manifest = bounded_agg.manifest("fig_fault_robustness", &bounded);
        let doc = Json::parse(&manifest).expect("the manifest is valid JSON");
        assert_eq!(
            doc.get("interrupted"),
            Some(&Json::Bool(true)),
            "the bounded manifest must say so"
        );
        std::fs::write(path, manifest).expect("write run manifest");
        println!("wrote run manifest (truncated run) to {}", path.display());
    }
    if let Some(path) = &args.events {
        log.write_jsonl(path).expect("write harness event log");
        println!("wrote harness event log to {}", path.display());
    }
    harness_table.print();
    harness_table
        .save_csv("fig_fault_robustness_harness")
        .unwrap();
    println!(
        "✓ injected worker panic retried with a bit-identical merge; watchdog \
         interruption yields a bit-identical prefix"
    );
    println!(
        "Reading: observer gaps are recoverable — the coverage mask says exactly \
         which windows to distrust, and rescaling the rest makes the rate law exact \
         in expectation. Trunk loss and link outages are not: they remove real \
         traffic, so the estimator's residual error equals the drop fraction. The \
         harness layer keeps both stories honest at scale — crashes replay \
         deterministically and budget trips truncate to complete windows instead of \
         corrupting the series."
    );
}

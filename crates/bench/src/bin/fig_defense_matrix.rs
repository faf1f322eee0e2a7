//! **Defense matrix** — the defense × adversary grid: every first-class
//! padding defense run through the sharded cohort aggregate at
//! N = 10⁴ flows, read by both adversary channels.
//!
//! Rows are defenses (CIT, constant-rate link padding, non-reactive
//! adaptive padding, CIT with variable payload sizes); columns are the
//! adversary's two window channels:
//!
//! 1. **Count channel** — the rate-law flow-count estimate fed the
//!    merged window counts, with `window_over_interval` computed from
//!    the *defense's* mean emission interval (`W/τ` only for the timer
//!    families; `W·rate` for constant-rate, `W/E[T]` for the adaptive
//!    machine's stationary mean). Gate: **±10 %** for every defense —
//!    in particular for ≥ 2 non-CIT defenses, the ISSUE's acceptance
//!    bar.
//! 2. **Byte channel** — the same estimate from window byte rates and
//!    the defense's mean wire size. Until this PR the byte series had
//!    no consumer at all; this column is the dead feature lit up.
//!    Gate: ±10 % for every defense.
//!
//! The `overhead` column prices each defense: trunk bandwidth relative
//! to the CIT/fixed-500-byte baseline (`(E[bytes]/E[T]) / (500/τ)`).
//!
//! A second table injects **observer measurement gaps** (blind one
//! window in four) and compares the naive byte-channel estimate
//! against the coverage-masked gap-aware one for the non-CIT timer
//! defenses: the naive read collapses by the unobserved fraction
//! (gate: > 15 % low), the gap-aware read stays within ±10 % (gate) —
//! the regression test for the mask plumbing on the byte channel.
//!
//! Scale via `LINKPAD_SCALE` (`quick` for CI smoke: 2 shards, 6
//! measured windows; `paper` default: 4 shards, 12 measured windows).
//! Run: `cargo run --release -p linkpad-bench --bin fig_defense_matrix`
//!
//! Observability flags (see DESIGN.md §Observability):
//! * `--report <path>` — write the machine-readable run manifest of the
//!   adaptive-padding run (the stochastic-cohort execution path this
//!   figure exists to validate). Also enables engine profiling.
//! * `--events <path>` — write the harness lifecycle event log for
//!   every sharded run in this binary, as JSONL.

use linkpad_adversary::aggregate::{
    estimate_flow_count, estimate_flow_count_from_bytes, estimate_flow_count_from_bytes_gap_aware,
};
use linkpad_bench::perf::{defense_grid, provisioned_trunk_bps};
use linkpad_bench::runner::Budget;
use linkpad_bench::table::Table;
use linkpad_obs::EventLog;
use linkpad_sim::fault::{FaultPlan, OutageSchedule};
use linkpad_sim::time::SimDuration;
use linkpad_workloads::aggregate::PhaseSpec;
use linkpad_workloads::scenario::ScenarioBuilder;
use linkpad_workloads::shard::{ShardedAggregate, ShardedRun};
use linkpad_workloads::spec::{PayloadModel, ScheduleSpec};
use std::path::PathBuf;

/// The ISSUE gate's N.
const FLOWS: usize = 10_000;
/// Flows per cohort.
const COHORT: usize = 1_024;
/// Observer window = 20τ: integer W/interval for CIT (20) and for
/// constant-rate at 125 pps (25), the rate law's exact regimes.
const WINDOW_OVER_TAU: f64 = 20.0;
/// Steady-state windows skipped (gateway phase-in).
const SKIP: usize = 2;
/// Coverage below this is a blind window: skip, don't rescale.
const MIN_COVERAGE: f64 = 0.4;

fn sharded_builder(
    seed: u64,
    flows: usize,
    shards: usize,
    window: f64,
    spec: ScheduleSpec,
    payload: PayloadModel,
) -> ScenarioBuilder {
    ScenarioBuilder::aggregate(seed, flows)
        .with_payload_rate(10.0)
        .with_trunk(provisioned_trunk_bps(flows), 5e-3)
        .with_trunk_observer(window)
        .with_cohorts(COHORT)
        .with_shards(shards)
        .with_phases(PhaseSpec::Uniform { seed: 41 })
        .with_schedule(spec)
        .with_payload_model(payload)
}

/// Window byte rates (bytes/s over the *full* window — low under
/// observer gaps; that is the naive read) and the coverage mask.
fn byte_series(run: &ShardedRun, window: f64) -> (Vec<f64>, Vec<f64>) {
    let rates = run
        .windows
        .iter()
        .map(|w| w.bytes as f64 / window)
        .collect();
    let coverages = run.windows.iter().map(|w| w.coverage).collect();
    (rates, coverages)
}

fn main() {
    let mut report_path: Option<PathBuf> = None;
    let mut events_path: Option<PathBuf> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--report" | "--events" => match argv.next() {
                Some(p) if arg == "--report" => report_path = Some(PathBuf::from(p)),
                Some(p) => events_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("fig_defense_matrix: {arg} needs a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("fig_defense_matrix: unknown argument {other:?}");
                eprintln!("usage: fig_defense_matrix [--report <path>] [--events <path>]");
                std::process::exit(2);
            }
        }
    }
    let observing = report_path.is_some() || events_path.is_some();
    let mut log = EventLog::new();

    let quick = Budget::from_env() == Budget::from_scale(Some("quick"));
    let (shards, measured) = if quick { (2, 6) } else { (4, 12) };
    let defaults = ScenarioBuilder::aggregate(1, 1).defaults;
    let tau = defaults.tau;
    let pkt = defaults.packet_size;
    let window = WINDOW_OVER_TAU * tau;
    let sim_secs = window * (SKIP + measured + 1) as f64;
    let baseline_bps = pkt as f64 / tau;

    // ---- Part 1: the defense × adversary-channel matrix ------------------
    let mut table = Table::new(
        format!(
            "Defense matrix: flow-count estimation at N = {FLOWS} over {shards} shards, \
             {COHORT}-flow cohorts, uniform phases, W = {:.0} ms = {WINDOW_OVER_TAU}τ, \
             {measured} measured windows (overhead = trunk bandwidth vs CIT/fixed)",
            window * 1e3
        ),
        &[
            "defense",
            "interval_ms",
            "mean_bytes",
            "overhead",
            "n_hat_counts",
            "count_err_pct",
            "n_hat_bytes",
            "byte_err_pct",
            "events",
            "wall_secs",
        ],
    );
    let mut manifest = None;
    let mut non_cit_within_gate = 0usize;
    for (i, (label, spec, payload)) in defense_grid().into_iter().enumerate() {
        let interval = spec.mean_interval(tau);
        let mean_bytes = payload.mean_bytes(pkt);
        let window_over_interval = window / interval;
        let overhead = (mean_bytes / interval) / baseline_bps;
        let mut sharded = ShardedAggregate::new(sharded_builder(
            2311 + i as u64,
            FLOWS,
            shards,
            window,
            spec,
            payload,
        ))
        .expect("sharded configuration valid");
        if report_path.is_some() && label == "adaptive" {
            sharded = sharded.with_profiling();
        }
        let run = if observing {
            sharded.run_for_secs_logged(sim_secs, shards, &mut log)
        } else {
            sharded.run_for_secs(sim_secs)
        }
        .expect("sharded run completes");
        assert!(!run.interrupted(), "{label}: unbudgeted run must complete");
        let span = SKIP..SKIP + measured;
        let counts = run.counts();
        assert!(
            counts.len() > span.end,
            "{label}: run too short: {} windows",
            counts.len()
        );
        let count_est = estimate_flow_count(&counts[span.clone()], window_over_interval)
            .expect("count-channel estimator over steady-state windows");
        let (byte_rates, _) = byte_series(&run, window);
        let byte_est = estimate_flow_count_from_bytes(
            &byte_rates[span],
            window,
            mean_bytes,
            window_over_interval,
        )
        .expect("byte-channel estimator over steady-state windows");
        let count_err = count_est.relative_error(FLOWS) * 100.0;
        let byte_err = byte_est.relative_error(FLOWS) * 100.0;
        eprintln!(
            "{label}: E[T] = {:.2} ms, counts {:.0} ({count_err:.2}%), \
             bytes {:.0} ({byte_err:.2}%), {} events",
            interval * 1e3,
            count_est.n_hat,
            byte_est.n_hat,
            run.events(),
        );
        table.row(vec![
            label.to_string(),
            format!("{:.2}", interval * 1e3),
            format!("{mean_bytes:.0}"),
            format!("{overhead:.2}"),
            format!("{:.0}", count_est.n_hat),
            format!("{count_err:.2}"),
            format!("{:.0}", byte_est.n_hat),
            format!("{byte_err:.2}"),
            run.events().to_string(),
            format!("{:.2}", run.wall_secs),
        ]);
        if label == "adaptive" {
            manifest = Some(sharded.manifest("fig_defense_matrix", &run));
        }

        // Gates: both channels within ±10 % for every defense.
        assert!(
            count_est.relative_error(FLOWS) <= 0.10,
            "{label}: count-channel estimate off by {count_err:.1}% (gate: 10%)"
        );
        assert!(
            byte_est.relative_error(FLOWS) <= 0.10,
            "{label}: byte-channel estimate off by {byte_err:.1}% (gate: 10%)"
        );
        if label != "cit" {
            non_cit_within_gate += 1;
        }
    }
    assert!(
        non_cit_within_gate >= 2,
        "ISSUE gate: ≥2 non-CIT defenses within ±10% (got {non_cit_within_gate})"
    );
    table.print();
    table.save_csv("fig_defense_matrix").unwrap();
    println!(
        "✓ flow count within ±10% on both channels for all {non_cit_within_gate} non-CIT \
         defenses at N = {FLOWS} ({shards} shards)"
    );

    // ---- Part 2: observer gaps on the byte channel -----------------------
    // Blind one window in four (25 % downtime, window-aligned so the
    // mask is crisp). The naive byte read divides by the full window
    // and collapses; the gap-aware read masks blind windows out and
    // rescales partial ones.
    let g_flows = 4_096;
    // One spare window over Part 1's budget: a trailing observer gap
    // can leave the final window unclosed.
    let g_secs = window * (SKIP + measured + 2) as f64;
    let gaps = OutageSchedule::new(
        SimDuration::from_secs_f64(4.0 * window),
        SimDuration::from_secs_f64(window),
    );
    let mut gap_table = Table::new(
        format!(
            "Observer gaps on the byte channel: N = {g_flows}, blind 1 window in 4 \
             (naive = bytes over the full window; gap-aware = coverage-masked + rescaled)"
        ),
        &[
            "defense",
            "mean_coverage",
            "used",
            "skipped",
            "naive_n_hat",
            "naive_err_pct",
            "gap_aware_n_hat",
            "gap_aware_err_pct",
        ],
    );
    for (i, (label, spec, payload)) in defense_grid().into_iter().enumerate() {
        if label == "cit" || label == "cit_var_payload" {
            continue; // the gap story is per-defense-clock; two non-CIT rows carry it
        }
        let interval = spec.mean_interval(tau);
        let mean_bytes = payload.mean_bytes(pkt);
        let window_over_interval = window / interval;
        let builder = sharded_builder(4177 + i as u64, g_flows, shards, window, spec, payload)
            .with_cohorts(512)
            .with_faults(FaultPlan::new(9).with_observer_gaps(gaps));
        let sharded = ShardedAggregate::new(builder).expect("sharded configuration valid");
        let run = if observing {
            sharded.run_for_secs_logged(g_secs, shards, &mut log)
        } else {
            sharded.run_for_secs(g_secs)
        }
        .expect("gapped sharded run completes");
        let span = SKIP..SKIP + measured;
        let (byte_rates, coverages) = byte_series(&run, window);
        assert!(
            byte_rates.len() > span.end,
            "{label}: gapped run too short: {} windows",
            byte_rates.len()
        );
        let naive = estimate_flow_count_from_bytes(
            &byte_rates[span.clone()],
            window,
            mean_bytes,
            window_over_interval,
        )
        .expect("naive byte-channel estimator");
        let aware = estimate_flow_count_from_bytes_gap_aware(
            &byte_rates[span.clone()],
            &coverages[span],
            window,
            mean_bytes,
            window_over_interval,
            MIN_COVERAGE,
        )
        .expect("gap-aware byte-channel estimator");
        let naive_err = naive.relative_error(g_flows) * 100.0;
        let aware_err = aware.estimate.relative_error(g_flows) * 100.0;
        eprintln!(
            "{label}: naive {:.0} ({naive_err:.1}%), gap-aware {:.0} ({aware_err:.1}%) \
             over {} used / {} skipped",
            naive.n_hat, aware.estimate.n_hat, aware.used, aware.skipped,
        );
        gap_table.row(vec![
            label.to_string(),
            format!("{:.2}", aware.mean_coverage),
            aware.used.to_string(),
            aware.skipped.to_string(),
            format!("{:.0}", naive.n_hat),
            format!("{naive_err:.1}"),
            format!("{:.0}", aware.estimate.n_hat),
            format!("{aware_err:.1}"),
        ]);

        // Gates: the naive read must collapse, the masked one must not.
        assert!(
            naive_err > 15.0,
            "{label}: naive byte read must collapse under 25% observer gaps: {naive_err:.1}%"
        );
        assert!(
            aware.estimate.relative_error(g_flows) <= 0.10,
            "{label}: gap-aware byte estimate off by {aware_err:.1}% (gate: 10%)"
        );
        assert!(aware.skipped >= 1, "{label}: blind windows must be masked");
    }
    gap_table.print();
    gap_table.save_csv("fig_defense_matrix_gaps").unwrap();

    if let (Some(path), Some(manifest)) = (&report_path, &manifest) {
        std::fs::write(path, manifest).expect("write run manifest");
        println!("wrote run manifest to {}", path.display());
    }
    if let Some(path) = &events_path {
        log.write_jsonl(path).expect("write harness event log");
    }
    println!(
        "✓ naive byte read collapses under observer gaps; coverage-masked read \
         within ±10% for every non-CIT timer defense"
    );
    println!(
        "Reading: none of these defenses hides N from a trunk tap — the rate law \
         only needs the defense's mean emission interval and mean wire size, both \
         public parameters. What they price differently is bandwidth: constant-rate \
         at 125 pps costs 1.25×, adaptive padding ~1.13× with a burst/gap texture, \
         and payload padding moves cost into bytes while leaving timing untouched. \
         Hiding N requires breaking the per-flow stationarity the estimate keys on, \
         not reshaping it."
    );
}

//! **Million-flow scale** — flow-count estimation against a sharded
//! cohort aggregate at N ∈ {10⁴, 10⁵, 10⁶} concurrent CIT-padded flows.
//!
//! The aggregate-link analyses this family serves (throughput
//! fingerprinting, statistical disclosure) operate against populations
//! of thousands to millions of flows; PR 3's honest N-scaling curves
//! stopped at 10⁴ because every flow was a boxed gateway pair in one
//! event loop. This experiment runs the cohort + shard execution path —
//! non-target flows as `FlowCohort`s the trunk draws on demand, the population
//! split over worker sub-sims, per-shard trunk window series merged by
//! summing `WindowStats` — and asserts the **rate-law flow-count
//! estimate stays within ±10 %** at every N (gate), with event-count,
//! trunk-arrival, wall-clock and peak process-memory columns recording
//! what the scale costs (the event and arrival counts are deterministic;
//! the wall clock of a sub-second run is one noisy reading). The trunks
//! serve their cohorts without events, so the arrivals are the work.
//!
//! A second table re-runs the 10⁴-flow point with **independent uniform
//! clock phases** (the desynchronized-clock countermeasure from the
//! ROADMAP) at a fractional window: the rate law holds, while the
//! variance law's reading collapses from ~N² (synchronized grid) to ~N
//! — the adversary's variance diagnostic is what desynchronization
//! buys away.
//!
//! Scale via `LINKPAD_SCALE` (`quick` for CI smoke: N = 10⁴ over 2
//! shards; `paper` default: the full ladder over 4 shards).
//! Run: `cargo run --release -p linkpad-bench --bin fig_million_flows`
//!
//! Observability flags (see DESIGN.md §Observability):
//! * `--report <path>` — write the machine-readable run manifest of the
//!   largest-N run (schema `linkpad-run-manifest-v2`: totals, window
//!   byte total and count distribution, per-shard breakdown with engine
//!   profiles, explicit `interrupted`/truncation record). Also enables
//!   engine profiling.
//! * `--events <path>` — write the harness lifecycle event log (run
//!   start/finish, shard completion/retry, watchdog truncations,
//!   observer gaps) for every sharded run in this binary, as JSONL.

use linkpad_adversary::aggregate::estimate_flow_count;
use linkpad_bench::args::RunArgs;
use linkpad_bench::perf::provisioned_trunk_bps;
use linkpad_bench::runner::Budget;
use linkpad_bench::table::Table;
use linkpad_obs::EventLog;
use linkpad_workloads::aggregate::PhaseSpec;
use linkpad_workloads::scenario::ScenarioBuilder;
use linkpad_workloads::shard::ShardedAggregate;

/// Flows per cohort: 10⁶ flows ≈ 10³ cohorts per run.
const COHORT: usize = 1_024;
/// Observer window = 20τ: integer W/τ, the rate law's exact regime.
const WINDOW_OVER_TAU: f64 = 20.0;
/// Steady-state windows skipped (gateway phase-in) / measured.
const SKIP: usize = 2;
const MEASURED: usize = 5;

/// Peak resident-set high-water of this process, MB (Linux `VmHWM`;
/// 0 where unavailable). Monotone over the process lifetime, so each
/// row reads "peak so far" — the largest N dominates.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn sharded_builder(seed: u64, flows: usize, shards: usize, window: f64) -> ScenarioBuilder {
    ScenarioBuilder::aggregate(seed, flows)
        .with_payload_rate(10.0)
        .with_trunk(provisioned_trunk_bps(flows), 5e-3)
        .with_trunk_observer(window)
        .with_cohorts(COHORT)
        .with_shards(shards)
}

fn main() {
    let args = RunArgs::from_env("fig_million_flows", false);
    let observing = args.observing();
    let mut log = EventLog::new();

    let quick = Budget::from_env() == Budget::from_scale(Some("quick"));
    let (ns, shards): (&[usize], usize) = if quick {
        (&[10_000], 2)
    } else {
        (&[10_000, 100_000, 1_000_000], 4)
    };
    let tau = ScenarioBuilder::aggregate(1, 1).defaults.tau;
    let window = WINDOW_OVER_TAU * tau;

    // ---- Part 1: flow-count gate vs N -----------------------------------
    let mut table = Table::new(
        format!(
            "Million-flow aggregate: flow-count estimation over {shards} shards, \
             {COHORT}-flow cohorts, W = {:.0} ms = {WINDOW_OVER_TAU}τ \
             (peak_rss is the process high-water so far)",
            window * 1e3
        ),
        &[
            "flows",
            "n_hat",
            "err_pct",
            "events",
            "arrivals",
            "wall_secs",
            "peak_rss_mb",
        ],
    );
    let mut manifest = None;
    for &n in ns {
        let sim_secs = window * (SKIP + MEASURED + 1) as f64;
        let mut sharded = ShardedAggregate::new(sharded_builder(977 + n as u64, n, shards, window))
            .expect("sharded configuration valid");
        if args.report.is_some() {
            sharded = sharded.with_profiling();
        }
        let run = if observing {
            sharded.run_for_secs_logged(sim_secs, shards, &mut log)
        } else {
            sharded.run_for_secs(sim_secs)
        }
        .expect("sharded run completes");
        if run.interrupted() {
            eprintln!(
                "*** TRUNCATED RUN: the watchdog stopped N = {n} early — only {} complete \
                 windows survive; every number below is partial (see the run manifest's \
                 truncation record) ***",
                run.windows.len()
            );
        }
        // The manifest records the largest-N run — the headline scale
        // point this figure exists for.
        manifest = Some(sharded.manifest("fig_million_flows", &run));
        let counts = run.counts();
        assert!(
            counts.len() > SKIP + MEASURED,
            "run too short: {} windows",
            counts.len()
        );
        let est = estimate_flow_count(&counts[SKIP..SKIP + MEASURED], WINDOW_OVER_TAU)
            .expect("estimator over steady-state windows");
        let err_pct = est.relative_error(n) * 100.0;
        eprintln!(
            "N = {n}: n_hat = {:.1} ({err_pct:.3}%), {} events, {} trunk arrivals, \
             {:.1} s wall",
            est.n_hat,
            run.events(),
            run.arrivals(),
            run.wall_secs,
        );
        table.row(vec![
            n.to_string(),
            format!("{:.1}", est.n_hat),
            format!("{err_pct:.3}"),
            run.events().to_string(),
            run.arrivals().to_string(),
            format!("{:.2}", run.wall_secs),
            format!("{:.0}", peak_rss_mb()),
        ]);
        assert!(
            est.relative_error(n) <= 0.10,
            "flow-count estimate off by {err_pct:.1}% at N = {n} (gate: 10%)"
        );
    }
    table.print();
    table.save_csv("fig_million_flows").unwrap();
    println!(
        "✓ flow-count estimate within ±10% at N ∈ {{{}}} ({shards} shards)",
        ns.iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );

    // ---- Part 2: synchronized vs desynchronized clocks ------------------
    // Fractional window (f(1−f) ≈ 0.23) so the variance law carries
    // signal; N = 10⁴ so both regimes run in seconds.
    let n = 10_000usize;
    let wot = 10.37;
    let w_frac = wot * tau;
    let (skip, measured) = (4usize, 220usize);
    let mut sync_table = Table::new(
        format!(
            "Clock phases vs the variance law (N = {n}, W = {wot}τ): synchronized \
             clocks read ~N², independent phases read ~N"
        ),
        &["phases", "n_hat_rate", "n_hat_var", "sqrt_n_hat_var"],
    );
    for (label, phases) in [
        ("synchronized", PhaseSpec::Synchronized),
        ("uniform", PhaseSpec::Uniform { seed: 41 }),
    ] {
        let sharded =
            ShardedAggregate::new(sharded_builder(1933, n, shards, w_frac).with_phases(phases))
                .expect("sharded configuration valid");
        let secs = w_frac * (skip + measured + 1) as f64;
        let run = if observing {
            sharded.run_for_secs_logged(secs, shards, &mut log)
        } else {
            sharded.run_for_secs(secs)
        }
        .expect("sharded run completes");
        let counts = run.counts();
        let est = estimate_flow_count(&counts[skip..skip + measured], wot)
            .expect("estimator over steady-state windows");
        let nv = est.n_hat_var.expect("fractional window carries signal");
        sync_table.row(vec![
            label.to_string(),
            format!("{:.1}", est.n_hat),
            format!("{nv:.0}"),
            format!("{:.1}", est.n_hat_var_synchronized().unwrap()),
        ]);
        assert!(
            est.relative_error(n) <= 0.10,
            "rate law must hold under {label} phases: n_hat {:.1}",
            est.n_hat
        );
        if label == "uniform" {
            // Independent phases: the variance law reads ~N directly —
            // an order of magnitude below the synchronized N² reading.
            assert!(
                nv < (n * n) as f64 / 10.0,
                "desynchronized variance reading should collapse below N²: {nv:.0}"
            );
        } else {
            assert!(
                nv > (n * n) as f64 / 10.0,
                "synchronized variance reading should approach N²: {nv:.0}"
            );
        }
    }
    if let (Some(path), Some(manifest)) = (&args.report, &manifest) {
        std::fs::write(path, manifest).expect("write run manifest");
        println!("wrote run manifest to {}", path.display());
    }
    if let Some(path) = &args.events {
        log.write_jsonl(path).expect("write harness event log");
        println!("wrote harness event log to {}", path.display());
    }
    sync_table.print();
    sync_table.save_csv("fig_million_flows_phases").unwrap();
    println!(
        "Reading: under one shared τ grid every flow's Bernoulli window offset is \
         perfectly correlated, so the independent-phase variance estimator overshoots \
         to ~N² — the synchronization diagnostic. Desynchronizing the padding clocks \
         (uniform per-flow phases) removes exactly that signal while the rate law, \
         which only needs the mean, is untouched."
    );
}

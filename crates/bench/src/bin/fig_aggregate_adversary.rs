//! **Aggregate-link adversary** — the extension experiment the paper
//! never ran: an observer on a shared trunk carrying N padded flows,
//! working from streaming window statistics only.
//!
//! Three questions, answered end to end against the simulator:
//!
//! 1. **Flow count.** CIT padding turns every flow into a ~1/τ comb, so
//!    aggregate window counts expose N through the rate law
//!    `N̂ = mean(count)·τ/W` (exact for integer `W/τ`), with a
//!    variance-law cross-check at fractional `W/τ`. Gate: ±10 % for
//!    N ∈ {10, 100, 1000}.
//! 2. **Target rate class.** Flow 0 switches between the paper's low
//!    and high payload rates; the adversary classifies dwell segments
//!    from per-window PIAT variance via the KDE-Bayes machinery, and
//!    the detection rate (with Wilson CI) is swept over N and window
//!    width. N = 1 is the per-flow regime (solid detection); at N > 1
//!    the workspace's synchronized padding clocks keep the target's
//!    jitter partially visible in the per-tick burst-gap statistics, so
//!    the decay toward chance is much slower than independent phases
//!    would give.
//! 3. **Signature lock.** Pearson correlation of the window-variance
//!    series against a ±1 square wave at the true switching period vs a
//!    wrong period (phase-swept): the cheap "is anyone switching?"
//!    detector.
//!
//! Scale via `LINKPAD_SCALE` (`quick` for CI smoke, `paper` default).
//! Run: `cargo run --release -p linkpad-bench --bin fig_aggregate_adversary`
//!
//! Observability flags (see DESIGN.md §Observability):
//! * `--report <path>` — write the machine-readable run manifest of the
//!   largest-N flow-count run (schema `linkpad-run-manifest-v2`). Also
//!   enables engine profiling for part 1.
//! * `--events <path>` — write the harness lifecycle event log of the
//!   part-1 runs as JSONL (schema header + run/shard records).
//! * `--trace <path>` — write the Chrome trace-event JSON (Perfetto /
//!   `chrome://tracing` loadable) of the largest-N flow-count run's
//!   event loop. Also enables causal tracing for part 1.
//!
//! Part 1 runs through the one-shard [`ShardedAggregate`] path — bit-
//! identical to the plain single sim (see `linkpad_workloads::shard`) —
//! so the manifest/event-log/trace plumbing is the same one the sharded
//! figures use.

use linkpad_adversary::aggregate::{best_phase, estimate_flow_count};
use linkpad_adversary::feature::SampleMean;
use linkpad_adversary::pipeline::DetectionStudy;
use linkpad_bench::args::RunArgs;
use linkpad_bench::runner::Budget;
use linkpad_bench::table::{fmt_rate, Table};
use linkpad_obs::EventLog;
use linkpad_sim::time::SimTime;
use linkpad_workloads::scenario::ScenarioBuilder;
use linkpad_workloads::shard::ShardedAggregate;

/// Low/high payload rates of the switching target (the paper's ω pair).
const RATES: [f64; 2] = [10.0, 40.0];
/// Dwell at each rate, seconds.
const DWELL: f64 = 5.0;

fn main() {
    let args = RunArgs::from_env("fig_aggregate_adversary", true);
    let observing = args.observing();
    let mut log = EventLog::new();

    let budget = Budget::from_env();
    let tau = ScenarioBuilder::aggregate(1, 1).defaults.tau;

    // ---- Part 1: flow-count estimation ---------------------------------
    let window = 20.0 * tau; // integer W/τ → rate law is essentially exact
    let mut est_table = Table::new(
        format!(
            "Aggregate adversary (1): flow-count estimation, W = {:.0} ms = 20τ",
            window * 1e3
        ),
        &["flows", "windows", "mean_count", "n_hat", "err_pct"],
    );
    let mut manifest = None;
    let mut trace = None;
    for &n in &[10usize, 100, 1000] {
        let (skip, measured) = (5usize, 25usize);
        let b = ScenarioBuilder::aggregate(41 + n as u64, n)
            .with_payload_rate(RATES[0])
            .with_trunk_observer(window)
            .with_shards(1);
        // One shard reproduces the plain single sim bit-for-bit while
        // carrying the manifest/profile/trace plumbing.
        let mut sharded = ShardedAggregate::new(b).expect("one-shard configuration valid");
        if args.report.is_some() {
            sharded = sharded.with_profiling();
        }
        if args.trace.is_some() {
            sharded = sharded.with_tracing();
        }
        let sim_secs = window * (skip + measured + 1) as f64;
        let run = if observing {
            sharded.run_for_secs_logged(sim_secs, 1, &mut log)
        } else {
            sharded.run_for_secs(sim_secs)
        }
        .expect("one-shard run completes");
        // The manifest and trace record the largest-N run — the headline
        // scale point of the flow-count gate.
        manifest = Some(sharded.manifest("fig_aggregate_adversary", &run));
        trace = run.shards[0].trace.clone();
        let counts = run.counts();
        let est = estimate_flow_count(&counts[skip..skip + measured], window / tau)
            .expect("estimator over steady-state windows");
        let err_pct = est.relative_error(n) * 100.0;
        est_table.row(vec![
            n.to_string(),
            est.windows.to_string(),
            format!("{:.2}", est.mean_count),
            format!("{:.2}", est.n_hat),
            format!("{err_pct:.2}"),
        ]);
        assert!(
            est.relative_error(n) <= 0.10,
            "flow-count estimate off by {err_pct:.1}% at N = {n} (gate: 10%)"
        );
        eprintln!(
            "flow-count: N = {n} → n_hat = {:.2} ({err_pct:.2}%)",
            est.n_hat
        );
    }
    est_table.print();
    est_table.save_csv("fig_aggregate_flow_count").unwrap();
    println!("✓ flow-count estimate within ±10% for N ∈ {{10, 100, 1000}}");
    if let (Some(path), Some(manifest)) = (&args.report, &manifest) {
        std::fs::write(path, manifest).expect("write run manifest");
        println!("wrote run manifest to {}", path.display());
    }
    if let Some(path) = &args.events {
        log.write_jsonl(path).expect("write harness event log");
        println!("wrote harness event log to {}", path.display());
    }
    if let Some(path) = &args.trace {
        let report = trace.as_ref().expect("tracing was enabled for part 1");
        std::fs::write(path, report.chrome_trace_json()).expect("write chrome trace");
        println!(
            "wrote Perfetto-loadable trace ({} records, stride {}) to {}",
            report.records.len(),
            report.stride,
            path.display()
        );
    }

    // Variance-law cross-check at a fractional window (f(1−f) ≈ 0.23):
    // slower to converge, but independent of the rate law's τ scaling.
    {
        let n = 100usize;
        let wot = 10.37;
        let w_frac = wot * tau;
        let (skip, measured) = (8usize, 400usize);
        let b = ScenarioBuilder::aggregate(97, n)
            .with_payload_rate(RATES[0])
            .with_trunk_observer(w_frac);
        let mut s = b.build().expect("fractional-window scenario builds");
        s.run_for_secs(w_frac * (skip + measured + 1) as f64);
        let obs = s
            .aggregate
            .as_ref()
            .unwrap()
            .trunk_observer
            .clone()
            .unwrap();
        let counts = obs.counts();
        let est = estimate_flow_count(&counts[skip..skip + measured], wot).unwrap();
        let nv = est
            .n_hat_var
            .expect("fractional window carries variance signal");
        let sync = est.n_hat_var_synchronized().unwrap();
        println!(
            "variance-law cross-check (W = {wot}τ, N = {n}): independent-phase reading \
             {nv:.0} ≈ N², synchronized reading √· = {sync:.1} ≈ N (rate law: {:.2}) — \
             the gateways tick on one τ grid, and the variance law exposes that \
             synchronization to the adversary.",
            est.n_hat
        );
    }

    // ---- Part 2: target rate-class detection vs (N, W) -----------------
    let group = 6; // windows per classified sample
    let study = |g: usize| DetectionStudy {
        sample_size: g,
        train_samples: budget.train,
        test_samples: budget.test,
    };
    let needed = study(group).piats_needed();
    let mut det_table = Table::new(
        format!(
            "Aggregate adversary (2): target rate detection ({}pps vs {}pps under CIT, \
             dwell {DWELL}s, {} train / {} test samples of {group} windows)",
            RATES[0], RATES[1], budget.train, budget.test
        ),
        &[
            "flows",
            "window_ms",
            "detection_rate",
            "wilson_lo",
            "wilson_hi",
            "dropped",
        ],
    );
    let mut variance_series: Vec<(usize, Vec<f64>)> = Vec::new();
    for &n in &[1usize, 2, 4] {
        for &w in &[0.1, 0.2] {
            let per_seg = (DWELL / w) as usize - 2;
            let segs_per_class = needed.div_ceil(per_seg) + 1;
            let sim_secs = DWELL + segs_per_class as f64 * 2.0 * DWELL;
            let b = ScenarioBuilder::aggregate(300 + n as u64, n)
                .with_trunk_observer(w)
                .with_switching_target(RATES, DWELL);
            let mut s = b.build().expect("switching scenario builds");
            s.run_for_secs(sim_secs);
            let agg = s.aggregate.as_ref().unwrap();
            let obs = agg.trunk_observer.clone().unwrap();
            let log = agg.target_rate_log.clone().unwrap();
            let vars = obs.piat_variances();

            // Split window-variance values by ground-truth rate segment,
            // skipping the first dwell (boot transient) and any window
            // within W of a switch boundary.
            let mut streams = [Vec::new(), Vec::new()];
            for (i, &v) in vars.iter().enumerate().skip((DWELL / w) as usize) {
                let mid = (i as f64 + 0.5) * w;
                let phase = mid % DWELL;
                if phase < w || phase > DWELL - w || !v.is_finite() {
                    continue;
                }
                match log.rate_at(SimTime::from_secs_f64(mid)) {
                    Some(r) if r == RATES[0] => streams[0].push(v),
                    Some(r) if r == RATES[1] => streams[1].push(v),
                    _ => {}
                }
            }
            // Hand the full streams to the study (it slices to its
            // budget internally): the over-collected tail then shows up
            // in the report's `dropped_piats` instead of vanishing.
            for s in &streams {
                assert!(
                    s.len() >= needed,
                    "undersized stream: {} < {needed}",
                    s.len()
                );
            }
            let report = study(group)
                .run(&SampleMean, &streams)
                .expect("window-feature detection study");
            let (lo, hi) = report.wilson_interval(0.05);
            eprintln!(
                "detect: N = {n}, W = {w}s → {:.3} [{lo:.3}, {hi:.3}]",
                report.detection_rate()
            );
            det_table.row(vec![
                n.to_string(),
                format!("{:.0}", w * 1e3),
                fmt_rate(report.detection_rate()),
                fmt_rate(lo),
                fmt_rate(hi),
                report.dropped_piats.to_string(),
            ]);
            if w == 0.2 {
                variance_series.push((n, vars));
            }
        }
    }
    det_table.print();
    det_table.save_csv("fig_aggregate_detection").unwrap();
    println!(
        "Reading: N = 1 is the per-flow regime seen through windows. Because the gateways \
         share one τ grid, trunk arrivals come in per-tick bursts and the burst-gap order \
         statistics keep the target's jitter partially visible at N > 1 — aggregation \
         under synchronized padding clocks dilutes the signature far more slowly than \
         independent phases would."
    );

    // ---- Part 3: switching-signature correlation -----------------------
    let mut sig_table = Table::new(
        "Aggregate adversary (3): square-wave signature lock on the window-variance series \
         (W = 200 ms)",
        &["flows", "true_period_r", "wrong_period_r"],
    );
    for (n, vars) in &variance_series {
        let period = 2.0 * DWELL / 0.2;
        let (_, r_true) = best_phase(vars, period, 20).expect("phase scan");
        let (_, r_wrong) = best_phase(vars, period * 0.77, 20).expect("phase scan");
        sig_table.row(vec![
            n.to_string(),
            format!("{r_true:.3}"),
            format!("{r_wrong:.3}"),
        ]);
    }
    sig_table.print();
    sig_table.save_csv("fig_aggregate_signature").unwrap();
}

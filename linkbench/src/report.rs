//! Metrics: the end-to-end set of an untraced run, the per-layer set of
//! a traced run, and the JSON result line.

use crate::spans::{self_time_by_layer, Layer, Span};
use crate::workloads::{Answer, Workload, ATTRIBUTION_EVERY};
use std::collections::BTreeMap;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    linkpad_stats::quantiles::median(xs).unwrap_or(0.0)
}

/// The highest percentile of `xs` with at least ten samples beyond it,
/// as `(value, percentile)`. With ten samples or fewer no percentile
/// qualifies; the maximum is returned at percentile 100.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => (0.0, 0.0),
        1..=10 => (sorted[n - 1], 100.0),
        _ => (sorted[n - 11], 100.0 * (n - 10) as f64 / n as f64),
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // `+ 0.0` turns the -0.0 of an empty sum into 0.0.
            let value = if m.value.is_finite() {
                m.value + 0.0
            } else {
                0.0
            };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// End-to-end metrics of an untraced run: per-answer wall times,
/// set-up times and the answers themselves.
pub fn end_to_end(
    walls: &[f64],
    setups: &[f64],
    answers: &[Answer],
    attempted: u64,
    failed: u64,
) -> Vec<Metric> {
    let obs_rates: Vec<f64> = answers
        .iter()
        .zip(walls)
        .map(|(a, w)| a.observations as f64 / w)
        .collect();
    vec![
        metric("wall_s", median(walls), "s"),
        metric("setup_s", median(setups), "s"),
        metric("observations_per_s", median(&obs_rates), "1/s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        // The share of operations that passed rather than failed: a
        // benchmark metric must never read 0.
        metric(
            "ok_frac",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "frac",
        ),
    ]
}

/// Node types the attribution rows fold into (labels with their numeric
/// instance suffix already stripped by the sampler).
pub const NODE_TYPES: [&str; 10] = [
    "router",
    "cross",
    "demux",
    "subnet-d",
    "gw1",
    "gw2",
    "trunk",
    "trunk-demux",
    "observer",
    "cohort",
];

/// The report type of an attribution label: one of [`NODE_TYPES`] or
/// `other` (taps, payload sources, the payload sink).
pub fn node_type(label: &str) -> &'static str {
    let label = if label == "observer@trunk" {
        "observer"
    } else {
        label
    };
    NODE_TYPES
        .into_iter()
        .find(|t| *t == label)
        .unwrap_or("other")
}

/// The node type each workload's attribution is expected to rank first.
pub fn expected_top_node(workload: Workload) -> &'static str {
    match workload {
        Workload::LabCross => "router",
        Workload::GatewayTrunk | Workload::CohortDefenses => "trunk",
    }
}

/// Everything a traced run produced.
pub struct TracedRun<'a> {
    /// The workload.
    pub workload: Workload,
    /// Every span of the run.
    pub spans: &'a [Span],
    /// The untraced reference answer.
    pub reference: &'a Answer,
    /// Wall seconds of the untraced answers.
    pub untraced_walls: &'a [f64],
    /// Run ids of the spanned answers with the plain engine.
    pub spanned_runs: &'a [u32],
    /// The answer with the engine profile.
    pub profiled: &'a Answer,
    /// The answer with the engine attribution.
    pub attributed: &'a Answer,
    /// Run id of the answer whose shards ran serially (sharded
    /// workloads only).
    pub serial_run: Option<u32>,
    /// Shard retries logged over the spanned answers.
    pub retries: u64,
}

impl TracedRun<'_> {
    /// Per spanned answer, the summed duration of spans accepted by `f`;
    /// the median over answers.
    fn median_per_answer(&self, f: impl Fn(&Span) -> bool) -> f64 {
        let per: Vec<f64> = self
            .spanned_runs
            .iter()
            .map(|&r| {
                self.spans
                    .iter()
                    .filter(|s| s.run == r && f(s))
                    .map(Span::secs)
                    .sum()
            })
            .collect();
        median(&per)
    }

    /// Durations of the spans called `name` in the runs `in_run` accepts.
    fn durations(&self, name: &str, in_run: impl Fn(u32) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && in_run(s.run))
            .map(Span::secs)
            .collect()
    }

    fn spanned(&self, run: u32) -> bool {
        self.spanned_runs.contains(&run)
    }

    /// The per-layer metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        let threads = self.workload.threads() as f64;
        let walls = self.durations("answer", |r| self.spanned(r));
        let wall = median(&walls);
        let serial_run = self.serial_run.unwrap_or(0);
        let shard_builds = self.durations("shard_builder.build", |r| r == serial_run);
        let shard_runs = self.durations("shard_run", |r| r == serial_run);
        let per_shard: Vec<f64> = shard_builds
            .iter()
            .zip(&shard_runs)
            .map(|(b, r)| b + r)
            .collect();
        let fanout = self.median_per_answer(|s| s.name == "run_for_secs_with_threads");
        let reference = self.reference;

        // scenario: every build and reset of the run, set-up included.
        let mut builds = self.durations("build", |_| true);
        builds.extend(self.durations("shard_builder.build", |_| true));
        out.push(metric("scenario.build_s", median(&builds), "s"));
        out.push(metric(
            "scenario.reset_s",
            median(&self.durations("reset", |_| true)),
            "s",
        ));

        // parallel: the unit operations and how full they keep the pool.
        // Cohort shard runs are only visible from outside in the serial
        // answer; their busy share is taken against the sharded fan-out
        // of the spanned answers.
        let (ops, pool_s) = match self.workload {
            Workload::LabCross => (
                self.durations("replication", |r| self.spanned(r)),
                walls.iter().sum::<f64>(),
            ),
            Workload::GatewayTrunk => (walls.clone(), walls.iter().sum::<f64>()),
            Workload::CohortDefenses => (per_shard.clone(), fanout),
        };
        let (tail_s, tail_pct) = tail(&ops);
        out.push(metric("parallel.rep_count", ops.len() as f64, "count"));
        out.push(metric("parallel.rep_p50_s", median(&ops), "s"));
        out.push(metric("parallel.rep_tail_s", tail_s, "s"));
        out.push(metric("parallel.rep_tail_pct", tail_pct, "%"));
        out.push(metric(
            "parallel.busy_frac",
            ops.iter().sum::<f64>() / (threads * pool_s),
            "frac",
        ));

        // engine: the sharded fan-out hides its event loops, so sharded
        // workloads take the engine time of the serial answer.
        let run_s = match self.serial_run {
            Some(_) => shard_runs.iter().sum(),
            None => self.median_per_answer(|s| s.layer == Layer::Engine),
        };
        let events = reference.events as f64;
        let profile = self.profiled.profile.unwrap_or_default();
        let profiled_events = (profile.timer_events + profile.deliver_events).max(1) as f64;
        let attribution =
            self.attributed
                .attribution
                .clone()
                .unwrap_or_else(|| linkpad_sim::AttributionReport {
                    rows: Vec::new(),
                    sample_every: ATTRIBUTION_EVERY,
                    dispatches_seen: 0,
                });
        let total_ns = attribution.total_ns().max(1) as f64;
        let phase = |f: fn(&linkpad_sim::AttributionRow) -> u64| {
            attribution.rows.iter().map(f).sum::<u64>() as f64 / total_ns
        };
        out.push(metric("engine.run_s", run_s, "s"));
        out.push(metric("engine.events", events, "count"));
        out.push(metric(
            "engine.events_per_obs",
            events / reference.observations.max(1) as f64,
            "count",
        ));
        out.push(metric(
            "engine.ns_per_event",
            run_s * 1e9 / events.max(1.0),
            "ns",
        ));
        out.push(metric(
            "engine.pending_peak",
            profile.depth_peak.max(reference.pending_peak) as f64,
            "count",
        ));
        out.push(metric(
            "engine.batch_mean",
            profile.deliver_events as f64 / profile.deliver_batches.max(1) as f64,
            "count",
        ));
        out.push(metric(
            "engine.context_frac",
            phase(|r| r.context_ns),
            "frac",
        ));

        // equeue
        out.push(metric("equeue.store_frac", phase(|r| r.store_ns), "frac"));
        for (name, v) in [
            ("equeue.push_near_per_event", profile.push_near),
            ("equeue.push_rung_per_event", profile.push_rung),
            ("equeue.push_far_per_event", profile.push_far),
        ] {
            out.push(metric(name, v as f64 / profiled_events, "count"));
        }
        out.push(metric("equeue.refills", profile.refills as f64, "count"));
        out.push(metric("equeue.rebases", profile.rebases as f64, "count"));

        // node handlers, folded by type
        let mut by_type: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for r in &attribution.rows {
            let e = by_type.entry(node_type(&r.label)).or_default();
            e.0 += r.total_ns();
            e.1 += r.samples;
        }
        for t in NODE_TYPES.into_iter().chain(["other"]) {
            let (ns, samples) = by_type.get(t).copied().unwrap_or_default();
            out.push(metric(
                format!("node.{t}.frac"),
                ns as f64 / total_ns,
                "frac",
            ));
            if t != "other" {
                out.push(metric(
                    format!("node.{t}.dispatches"),
                    (samples * attribution.sample_every) as f64,
                    "count",
                ));
            }
        }

        // shard: the residual is the fan-out's wall time beyond the
        // critical path of the serial shard work (the slowest shard of each
        // defense): coordination, merge, and the slowdown shards suffer
        // from running side by side.
        let critical: f64 = per_shard
            .chunks(crate::workloads::COHORT_SHARDS)
            .map(|c| c.iter().copied().fold(0.0, f64::max))
            .sum();
        let imbalance = reference
            .shard_events
            .iter()
            .map(|e| {
                let mean = e.iter().sum::<u64>() as f64 / e.len().max(1) as f64;
                e.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0)
            })
            .fold(0.0, f64::max);
        out.push(metric("shard.fanout_s", fanout, "s"));
        out.push(metric("shard.build_s", shard_builds.iter().sum(), "s"));
        out.push(metric("shard.run_s", shard_runs.iter().sum(), "s"));
        out.push(metric("shard.event_imbalance", imbalance, "ratio"));
        out.push(metric(
            "shard.coord_residual_s",
            if fanout > 0.0 { fanout - critical } else { 0.0 },
            "s",
        ));
        out.push(metric("shard.retries", self.retries as f64, "count"));

        // adversary
        out.push(metric(
            "adversary.features_s",
            self.median_per_answer(|s| s.name == "features_from_piats"),
            "s",
        ));
        out.push(metric(
            "adversary.kde_s",
            self.median_per_answer(|s| s.name == "KdeBayes::train" || s.name == "evaluate"),
            "s",
        ));
        out.push(metric(
            "adversary.estimator_s",
            self.median_per_answer(|s| s.name == "estimate_flow_count"),
            "s",
        ));
        for (i, f) in ["mean", "variance", "entropy"].into_iter().enumerate() {
            out.push(metric(
                format!("adversary.detect_rate.{f}"),
                reference.detect_rates[i],
                "frac",
            ));
        }
        out.push(metric(
            "adversary.count_err_pct",
            reference.count_err_pct,
            "%",
        ));
        out.push(metric(
            "adversary.byte_err_pct",
            reference.byte_err_pct,
            "%",
        ));
        out.push(metric(
            "adversary.dropped_piats",
            reference.dropped_piats as f64,
            "count",
        ));

        // trace: overhead and what the spans leave unexplained
        out.push(metric(
            "trace.overhead_frac",
            wall / median(self.untraced_walls) - 1.0,
            "frac",
        ));
        let spanned: Vec<Span> = self
            .spans
            .iter()
            .filter(|s| self.spanned_runs.contains(&s.run))
            .cloned()
            .collect();
        let self_times = self_time_by_layer(&spanned);
        let total_self: f64 = self_times.values().sum();
        out.push(metric(
            "trace.unexplained_frac",
            self_times[&Layer::Bench] / walls.iter().sum::<f64>().max(f64::MIN_POSITIVE),
            "frac",
        ));
        for layer in Layer::ALL.into_iter().filter(|l| *l != Layer::Bench) {
            out.push(metric(
                format!("layer.{}.self_frac", layer.name()),
                self_times[&layer] / total_self.max(f64::MIN_POSITIVE),
                "frac",
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let (v, pct) = tail(&xs);
        assert_eq!(v, 30.0);
        assert_eq!(pct, 75.0);
        assert_eq!(tail(&[3.0, 1.0]), (3.0, 100.0));
    }

    #[test]
    fn node_labels_fold_into_report_types() {
        assert_eq!(node_type("observer@trunk"), "observer");
        assert_eq!(node_type("trunk-demux"), "trunk-demux");
        assert_eq!(node_type("tap@gw2"), "other");
        assert_eq!(node_type("gw1"), "gw1");
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_json(true, 3, 0, &[metric("wall_s", 1.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}

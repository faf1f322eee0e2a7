//! Perf baseline: measures raw engine throughput (events/sec) against a
//! `BinaryHeap` reference event loop — on the classic timer microbench
//! *and* on the aggregate-trunk workload — plus the aggregate-observer
//! scenario (streaming trunk observer, the O(windows) aggregate
//! observation path), the sharded million-flow cohort aggregate
//! (flow cohorts + per-shard sub-sims, merged trunk windows),
//! the armed lossless trunk fault gate's cost, the cost of enabled
//! engine self-profiling and causal tracing (disabled instruments are
//! free by construction: an uninstrumented run is the `()` instance of
//! the one event loop), the defense matrix
//! (every first-class padding defense through the sharded cohort path,
//! with both flow-count channels' deterministic accuracy readings),
//! plus an engine-profile context section extended with a sampled
//! wall-time attribution per node type, scenario-reset setup cost and a
//! representative sweep wall-clock, and writes `BENCH_10.json` at the
//! workspace root so later PRs have a recorded trajectory
//! (`bench_compare` diffs consecutive baselines in CI).
//!
//! Run from anywhere in the workspace:
//! `cargo run --release -p linkpad-bench --bin perf_baseline`

use linkpad_bench::perf::{
    aggregate_observer_events_per_sec, aggregate_scenario_events_per_sec,
    aggregate_trunk_attribution, aggregate_trunk_events_per_sec, aggregate_trunk_profile,
    defense_matrix_measurement, fault_hook_overhead, heap_reference_aggregate_events_per_sec,
    heap_reference_events_per_sec, reset_vs_rebuild, sharded_aggregate_measurement,
    sim_events_per_sec, sweep_wall_clock_secs, telemetry_overhead_aggregate,
    telemetry_overhead_event_loop, tracing_overhead_aggregate, tracing_overhead_event_loop,
    TelemetryMeasurement,
};
use std::io::Write;

/// Sequence number of the baseline this binary writes.
const BASELINE: u32 = 10;

fn main() {
    // Sized so the run takes a few seconds in release mode; override with
    // `perf_baseline <events> [<pending> ...]`.
    let mut args = std::env::args().skip(1);
    let events: u64 = args
        .next()
        .map(|a| a.parse().expect("events is a number"))
        .unwrap_or(4_000_000);
    let shapes: Vec<usize> = {
        let rest: Vec<usize> = args
            .map(|a| a.parse().expect("pending is a number"))
            .collect();
        if rest.is_empty() {
            // Dispatch-bound (small pending set, the per-sim regime) and
            // store-bound (large pending set, the scaling regime).
            vec![4_096, 262_144]
        } else {
            rest
        }
    };

    // Burn a few seconds of CPU before the first measurement: an idle
    // container's first heavy load reads 20-30% low (frequency ramp,
    // cold caches), which would poison cross-baseline comparisons.
    eprintln!("warming up...");
    let warm_start = std::time::Instant::now();
    while warm_start.elapsed().as_secs_f64() < 3.0 {
        let _ = sim_events_per_sec(1_000_000, 4_096);
    }

    let mut shape_entries = Vec::new();
    for pending in shapes {
        eprintln!("measuring engine vs heap reference ({events} events, {pending} pending)...");
        // Five paired runs; each *recorded* metric independently takes
        // the top of its own noise band (engine/heap throughput carry
        // 20-30% dips from cold starts and hypervisor-level neighbor
        // load, the paired ratio ±8% run-to-run noise). Every baseline
        // therefore estimates the same quantity — per-metric best over
        // 5 — so the regression gate compares like with like; the
        // recorded speedup is the best *paired* ratio, not engine/heap
        // of the recorded throughputs.
        let (mut engine, mut heap, mut speedup) = (0.0f64, 0.0f64, 0.0f64);
        for _ in 0..5 {
            let e = sim_events_per_sec(events, pending);
            let h = heap_reference_events_per_sec(events, pending);
            engine = engine.max(e);
            heap = heap.max(h);
            speedup = speedup.max(e / h);
        }
        eprintln!(
            "  pending {pending}: engine {engine:.0} ev/s, reference {heap:.0} ev/s, {speedup:.2}x"
        );
        shape_entries.push(format!(
            "    {{ \"pending\": {pending}, \"engine_events_per_sec\": {engine:.0}, \
\"heap_reference_events_per_sec\": {heap:.0}, \"speedup_vs_heap\": {speedup:.2} }}"
        ));
    }

    // Aggregate trunk: the store-bound regime as a scenario-shaped
    // workload (10k gateway flows, ×10 long-haul trunk → ~110k pending).
    let flows = 10_000;
    eprintln!("measuring aggregate trunk ({events} events, {flows} flows)...");
    let trunk_best = |f: &dyn Fn() -> linkpad_bench::perf::TrunkMeasurement| {
        let (a, b) = (f(), f());
        if a.events_per_sec >= b.events_per_sec {
            a
        } else {
            b
        }
    };
    // Same per-metric protocol as the event-loop shapes: engine and
    // heap each record their own best, and the speedup is the best
    // *paired* ratio — never engine-best / heap-best, which would mix
    // two runs' noise bands.
    let (trunk_engine, trunk_heap, trunk_speedup) = {
        let (mut engine, mut heap, mut speedup) = (
            aggregate_trunk_events_per_sec(events, flows),
            heap_reference_aggregate_events_per_sec(events, flows),
            0.0f64,
        );
        speedup = speedup.max(engine.events_per_sec / heap.events_per_sec);
        let (e, h) = (
            aggregate_trunk_events_per_sec(events, flows),
            heap_reference_aggregate_events_per_sec(events, flows),
        );
        speedup = speedup.max(e.events_per_sec / h.events_per_sec);
        if e.events_per_sec > engine.events_per_sec {
            engine = e;
        }
        if h.events_per_sec > heap.events_per_sec {
            heap = h;
        }
        (engine, heap, speedup)
    };
    eprintln!(
        "  {} pending: engine {:.0} ev/s, reference {:.0} ev/s ({} pending), {trunk_speedup:.2}x",
        trunk_engine.pending,
        trunk_engine.events_per_sec,
        trunk_heap.events_per_sec,
        trunk_heap.pending,
    );
    eprintln!("measuring full aggregate scenario ({flows} gateway pairs)...");
    let scenario = trunk_best(&|| aggregate_scenario_events_per_sec(flows, 1.0));
    eprintln!(
        "  scenario: {:.0} ev/s at {} pending",
        scenario.events_per_sec, scenario.pending
    );

    // Aggregate observer: the same 10⁴-flow scenario with the streaming
    // windowed observer on the trunk instead of the store-everything
    // tap — the aggregate-adversary observation path. windows/arrivals
    // documents the O(windows) memory contract.
    const OBSERVER_WINDOW_MS: f64 = 200.0;
    eprintln!(
        "measuring aggregate observer ({flows} gateway pairs, {OBSERVER_WINDOW_MS} ms windows)..."
    );
    let observer = {
        let (a, b) = (
            aggregate_observer_events_per_sec(flows, 1.0, OBSERVER_WINDOW_MS * 1e-3),
            aggregate_observer_events_per_sec(flows, 1.0, OBSERVER_WINDOW_MS * 1e-3),
        );
        if a.events_per_sec >= b.events_per_sec {
            a
        } else {
            b
        }
    };
    eprintln!(
        "  observer: {:.0} ev/s at {} pending; {} arrivals folded into {} windows",
        observer.events_per_sec, observer.pending, observer.arrivals, observer.windows
    );

    // Million flows: the sharded cohort path — 10⁶ CIT flows in
    // 1024-flow cohorts over 4 worker sub-sims, merged trunk windows.
    const MF_FLOWS: usize = 1_000_000;
    const MF_COHORT: usize = 1_024;
    const MF_SHARDS: usize = 4;
    const MF_SIM_SECS: f64 = 0.45;
    eprintln!(
        "measuring sharded million-flow aggregate ({MF_FLOWS} flows, \
         {MF_COHORT}-cohorts, {MF_SHARDS} shards, {MF_SIM_SECS} sim-s)..."
    );
    let million = sharded_aggregate_measurement(MF_FLOWS, MF_COHORT, MF_SHARDS, 0.2, MF_SIM_SECS);
    eprintln!(
        "  million_flows: {:.0} ev/s over {} shards ({:.1} s wall), peak pending {}, \
         {} arrivals in {} merged windows",
        million.events_per_sec,
        MF_SHARDS,
        million.wall_clock_secs,
        million.peak_pending,
        million.arrivals,
        million.merged_windows,
    );

    // Defense matrix: every first-class padding defense (CIT,
    // constant-rate, adaptive, CIT + variable payloads) through the
    // sharded cohort path at 10⁴ flows. Throughput and wall-clock are
    // the gated perf trajectory per defense; the two flow-count error
    // readings are deterministic given the recorded seeds, so a change
    // in them is an accuracy regression, not noise.
    const DM_FLOWS: usize = 10_000;
    const DM_COHORT: usize = 1_024;
    const DM_SHARDS: usize = 4;
    const DM_MEASURED: usize = 6;
    eprintln!(
        "measuring defense matrix ({DM_FLOWS} flows per defense, {DM_SHARDS} shards, \
         {DM_MEASURED} measured windows)..."
    );
    let dm = defense_matrix_measurement(DM_FLOWS, DM_COHORT, DM_SHARDS, DM_MEASURED);
    for d in &dm {
        eprintln!(
            "  {}: {:.0} ev/s ({:.2} s wall), count err {:.2}%, byte err {:.2}%, \
             overhead {:.2}x",
            d.name,
            d.events_per_sec,
            d.wall_clock_secs,
            d.count_err_pct,
            d.byte_err_pct,
            d.overhead_factor,
        );
        assert!(
            d.count_err_pct <= 10.0 && d.byte_err_pct <= 10.0,
            "{}: flow-count channels must hold ±10% in the recorded baseline",
            d.name
        );
    }
    let dm_rows_json: Vec<String> = dm
        .iter()
        .map(|d| {
            format!(
                "      \"{}\": {{ \"mean_interval_ms\": {:.3}, \"mean_wire_bytes\": {:.0}, \
\"overhead_factor\": {:.3}, \"count_err_pct\": {:.2}, \"byte_err_pct\": {:.2}, \
\"events_per_sec\": {:.0}, \"wall_clock_secs\": {:.3} }}",
                d.name,
                d.mean_interval_secs * 1e3,
                d.mean_wire_bytes,
                d.overhead_factor,
                d.count_err_pct,
                d.byte_err_pct,
                d.events_per_sec,
                d.wall_clock_secs,
            )
        })
        .collect();

    // Fault-hook cost: the same 10⁴-flow scenario behind an armed
    // lossless gate (the worst-case hook path), per-config best-of-5.
    // Context for faulted runs, never gated: a fault-free plan inserts
    // no gate node at all, which the aggregate builder's tests check
    // structurally.
    eprintln!("measuring trunk fault-hook overhead ({flows} gateway pairs)...");
    let hook = {
        let mut best = fault_hook_overhead(flows, 1.0);
        for _ in 0..4 {
            let m = fault_hook_overhead(flows, 1.0);
            best.plain_events_per_sec = best.plain_events_per_sec.max(m.plain_events_per_sec);
            best.gated_zero_loss_events_per_sec = best
                .gated_zero_loss_events_per_sec
                .max(m.gated_zero_loss_events_per_sec);
        }
        best
    };
    let hook_armed_pct = hook.armed_overhead_pct();
    eprintln!(
        "  plain {:.0} ev/s; armed lossless gate {:.0} ev/s ({hook_armed_pct:+.1}%)",
        hook.plain_events_per_sec, hook.gated_zero_loss_events_per_sec,
    );

    // Instrument cost: plain vs enabled profiling and tracing on both
    // recorded workload regimes, per-config best-of-5 for the same
    // non-stationary-noise reason as the hook block. Recorded as
    // ungated context; there is no disabled state to gate, since a sim
    // without armed instruments runs the `()` instance of the one event
    // loop, which holds no instrument code.
    let best_of_5 = |measure: &dyn Fn() -> TelemetryMeasurement| {
        let mut best = measure();
        for _ in 0..4 {
            best.fold_best(&measure());
        }
        best
    };
    let mut instruments = Vec::new();
    for (name, on_loop, on_trunk) in [
        (
            "telemetry",
            telemetry_overhead_event_loop as fn(u64, usize) -> TelemetryMeasurement,
            telemetry_overhead_aggregate as fn(usize, f64) -> TelemetryMeasurement,
        ),
        (
            "tracing",
            tracing_overhead_event_loop,
            tracing_overhead_aggregate,
        ),
    ] {
        eprintln!("measuring {name} cost (event loop at 4096 pending; aggregate trunk)...");
        let on_loop = best_of_5(&|| on_loop(events, 4_096));
        let on_trunk = best_of_5(&|| on_trunk(flows, 1.0));
        for (shape, m) in [("event loop", on_loop), ("aggregate trunk", on_trunk)] {
            eprintln!(
                "  {shape}: plain {:.0} ev/s; enabled {:.0} ev/s ({:+.2}%)",
                m.plain_events_per_sec,
                m.enabled_events_per_sec,
                m.enabled_overhead_pct(),
            );
        }
        instruments.push(format!(
            "  \"{name}\": {{\n    \"event_loop_pending\": 4096,\n    \"event_loop_plain_events_per_sec\": {:.0},\n    \"event_loop_enabled_events_per_sec\": {:.0},\n    \"event_loop_enabled_overhead_pct\": {:.2},\n    \"aggregate_trunk_flows\": {flows},\n    \"aggregate_trunk_plain_events_per_sec\": {:.0},\n    \"aggregate_trunk_enabled_events_per_sec\": {:.0},\n    \"aggregate_trunk_enabled_overhead_pct\": {:.2}\n  }},\n",
            on_loop.plain_events_per_sec,
            on_loop.enabled_events_per_sec,
            on_loop.enabled_overhead_pct(),
            on_trunk.plain_events_per_sec,
            on_trunk.enabled_events_per_sec,
            on_trunk.enabled_overhead_pct(),
        ));
    }

    // Engine-profile context: one profiled aggregate-trunk run's
    // headline numbers — the evidence base for the per-event dispatch
    // bound (ROADMAP open item 4). Counts, not timings: bench_compare
    // reads them as context, not gated metrics.
    eprintln!("profiling aggregate trunk engine ({flows} flows, context section)...");
    let profile = aggregate_trunk_profile(flows, 1.0);
    eprintln!(
        "  {} events: {} timers + {} deliveries in {} batches \
         (mean {:.2}, p99 {}); depth peak {} over {} rungs",
        profile.events(),
        profile.timer_events,
        profile.deliver_events,
        profile.deliver_batches,
        profile.mean_batch(),
        profile.batch_sizes.quantile(0.99),
        profile.depth_peak,
        profile.rung_peak.len(),
    );

    // Wall-time attribution: where each dispatch's nanoseconds go
    // (store vs Context build vs node handler), per node label — the
    // other half of the dispatch-bound evidence. Sampled (every 64th
    // dispatch) so the measurement doesn't drown what it measures.
    // Context only: wall-clock, container-dependent, never gated.
    const ATTR_SAMPLE_EVERY: u64 = 64;
    eprintln!("attributing aggregate trunk dispatch time ({flows} flows, context section)...");
    let attr = aggregate_trunk_attribution(flows, 1.0, ATTR_SAMPLE_EVERY);
    let attr_total = attr.total_ns().max(1) as f64;
    let (attr_store, attr_context, attr_dispatch) = attr.rows.iter().fold((0, 0, 0), |acc, r| {
        (
            acc.0 + r.store_ns,
            acc.1 + r.context_ns,
            acc.2 + r.dispatch_ns,
        )
    });
    eprintln!(
        "  {} of {} dispatches sampled: store {:.1}%, context {:.1}%, dispatch {:.1}% over {} node types",
        attr.samples(),
        attr.dispatches_seen,
        attr_store as f64 / attr_total * 100.0,
        attr_context as f64 / attr_total * 100.0,
        attr_dispatch as f64 / attr_total * 100.0,
        attr.rows.len(),
    );
    let attr_rows_json: Vec<String> = attr
        .rows
        .iter()
        .map(|r| {
            format!(
                "      \"{}\": {{ \"samples\": {}, \"store_ns\": {}, \"context_ns\": {}, \
\"dispatch_ns\": {} }}",
                linkpad_obs::json::escape(&r.label),
                r.samples,
                r.store_ns,
                r.context_ns,
                r.dispatch_ns,
            )
        })
        .collect();

    eprintln!("measuring scenario reset vs rebuild (lab sweep unit)...");
    // Same per-metric best-of protocol as every other recorded number:
    // these are sub-µs per-replication costs over 200 reps, the noisiest
    // timings in the file (±20-30 % run to run from allocator and cache
    // state), so a single draw would whipsaw the regression gate.
    let reset = {
        let mut best = reset_vs_rebuild(200, 400);
        for _ in 0..4 {
            let m = reset_vs_rebuild(200, 400);
            best.build_us = best.build_us.min(m.build_us);
            best.reset_us = best.reset_us.min(m.reset_us);
            best.sweep_rebuild_secs = best.sweep_rebuild_secs.min(m.sweep_rebuild_secs);
            best.sweep_reset_secs = best.sweep_reset_secs.min(m.sweep_reset_secs);
        }
        best
    };
    eprintln!(
        "  build {:.1} µs vs reset {:.2} µs per replication ({:.1}x); sweep {:.3} s → {:.3} s",
        reset.build_us,
        reset.reset_us,
        reset.setup_speedup(),
        reset.sweep_rebuild_secs,
        reset.sweep_reset_secs,
    );

    eprintln!("measuring lab-scenario sweep wall-clock (40k PIATs x 2 classes)...");
    // The sweep unit is only ~30 ms, so relative noise is the worst of
    // any recorded metric: warm the scenario path, then take min-of-5.
    let _ = sweep_wall_clock_secs(4_000);
    let sweep = (0..5)
        .map(|_| sweep_wall_clock_secs(40_000))
        .fold(f64::INFINITY, f64::min);
    eprintln!("  sweep: {sweep:.3} s");

    let json = format!(
        "{{\n  \"schema\": \"linkpad-bench-baseline-v10\",\n  \"microbench_events\": {events},\n  \"event_loop\": [\n{}\n  ],\n  \"aggregate_trunk\": {{\n    \"flows\": {flows},\n    \"pending\": {},\n    \"engine_events_per_sec\": {:.0},\n    \"heap_reference_events_per_sec\": {:.0},\n    \"speedup_vs_heap\": {trunk_speedup:.2},\n    \"scenario_pending\": {},\n    \"scenario_events_per_sec\": {:.0}\n  }},\n  \"aggregate_observer\": {{\n    \"flows\": {flows},\n    \"window_ms\": {OBSERVER_WINDOW_MS},\n    \"pending\": {},\n    \"windows\": {},\n    \"arrivals\": {},\n    \"scenario_events_per_sec\": {:.0}\n  }},\n  \"million_flows\": {{\n    \"flows\": {MF_FLOWS},\n    \"cohort_size\": {MF_COHORT},\n    \"shards\": {MF_SHARDS},\n    \"simulated_seconds\": {MF_SIM_SECS},\n    \"arrivals\": {},\n    \"merged_windows\": {},\n    \"peak_pending\": {},\n    \"events_per_sec\": {:.0},\n    \"per_shard_events_per_sec\": {:.0},\n    \"wall_clock_secs\": {:.3}\n  }},\n  \"defense_matrix\": {{\n    \"flows\": {DM_FLOWS},\n    \"cohort_size\": {DM_COHORT},\n    \"shards\": {DM_SHARDS},\n    \"measured_windows\": {DM_MEASURED},\n    \"rows\": {{\n{}\n    }}\n  }},\n  \"fault_robustness\": {{\n    \"flows\": {flows},\n    \"plain_events_per_sec\": {:.0},\n    \"gated_zero_loss_events_per_sec\": {:.0},\n    \"armed_hook_overhead_pct\": {hook_armed_pct:.2}\n  }},\n{}  \"engine_profile\": {{\n    \"workload\": \"aggregate_trunk\",\n    \"flows\": {flows},\n    \"timer_events\": {},\n    \"deliver_events\": {},\n    \"deliver_batches\": {},\n    \"mean_batch\": {:.3},\n    \"batch_p99\": {},\n    \"batch_max\": {},\n    \"depth_peak\": {},\n    \"depth_samples\": {},\n    \"depth_sample_stride\": {},\n    \"rungs_occupied\": {},\n    \"store_push_near\": {},\n    \"store_push_rung\": {},\n    \"store_push_far\": {},\n    \"store_refills\": {},\n    \"store_rebases\": {},\n    \"attribution\": {{\n      \"sample_every\": {ATTR_SAMPLE_EVERY},\n      \"dispatches_seen\": {},\n      \"samples\": {},\n      \"rows\": {{\n{}\n      }}\n    }}\n  }},\n  \"scenario_reset\": {{\n    \"replication_build_us\": {:.2},\n    \"replication_reset_us\": {:.2},\n    \"setup_speedup_vs_rebuild\": {:.1},\n    \"sweep_rebuild_wall_secs\": {:.3},\n    \"sweep_reset_wall_secs\": {:.3}\n  }},\n  \"sweep_piats_per_class\": 40000,\n  \"sweep_wall_clock_secs\": {sweep:.3}\n}}\n",
        shape_entries.join(",\n"),
        trunk_engine.pending,
        trunk_engine.events_per_sec,
        trunk_heap.events_per_sec,
        scenario.pending,
        scenario.events_per_sec,
        observer.pending,
        observer.windows,
        observer.arrivals,
        observer.events_per_sec,
        million.arrivals,
        million.merged_windows,
        million.peak_pending,
        million.events_per_sec,
        million.per_shard_events_per_sec,
        million.wall_clock_secs,
        dm_rows_json.join(",\n"),
        hook.plain_events_per_sec,
        hook.gated_zero_loss_events_per_sec,
        instruments.concat(),
        profile.timer_events,
        profile.deliver_events,
        profile.deliver_batches,
        profile.mean_batch(),
        profile.batch_sizes.quantile(0.99),
        profile.batch_sizes.max(),
        profile.depth_peak,
        profile.depth.len(),
        profile.depth_sample_stride,
        profile.rung_peak.iter().filter(|&&v| v > 0).count(),
        profile.store.push_near,
        profile.store.push_rung,
        profile.store.push_far,
        profile.store.refills,
        profile.store.rebases,
        attr.dispatches_seen,
        attr.samples(),
        attr_rows_json.join(",\n"),
        reset.build_us,
        reset.reset_us,
        reset.setup_speedup(),
        reset.sweep_rebuild_secs,
        reset.sweep_reset_secs,
    );

    // CARGO_MANIFEST_DIR = crates/bench → workspace root is two up.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let path = root.join(format!("BENCH_{BASELINE}.json"));
    let mut f = std::fs::File::create(&path).expect("create baseline file");
    f.write_all(json.as_bytes()).expect("write baseline file");
    println!("{json}");
    println!("wrote {}", path.display());
}

//! Engine-throughput microbenches shared by the criterion bench
//! (`benches/crit_kernels.rs`) and the `perf_baseline` binary.
//!
//! Workload: `pending` concurrent self-re-arming timers with co-prime
//! periods; every fire also sends one packet to a sink. That is the
//! gateway-tick shape every scenario in this workspace reduces to, and it
//! keeps `pending × 2` events resident in the event store — the regime
//! where the store's asymptotics dominate.
//!
//! Two implementations run the identical workload:
//!
//! * [`sim_events_per_sec`] — the real `linkpad-sim` engine (calendar
//!   queue + slab arena).
//! * [`heap_reference_events_per_sec`] — a faithful replica of the
//!   pre-rewrite engine: `BinaryHeap<HeapEntry>` with the packet payload
//!   inline in the heap nodes and the same `(time, seq)` FIFO ordering,
//!   driving the same boxed-trait-object dispatch.

use linkpad_sim::engine::{Context, Sim, SimBuilder};
use linkpad_sim::node::{Node, NodeId};
use linkpad_sim::packet::{FlowId, Packet, PacketKind};
use linkpad_sim::time::{SimDuration, SimTime};
use linkpad_stats::rng::MasterSeed;
use linkpad_workloads::scenario::{piats_for, ScenarioBuilder, TapPosition};
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Spread of bench timer periods (ns): co-prime-ish steps over ~1 decade
/// so event times interleave instead of phase-locking.
fn period_ns(i: usize) -> u64 {
    10_000 + 7919 * (i as u64 % 13)
}

struct BenchTicker {
    sink: NodeId,
    period: SimDuration,
    remaining: u64,
}

impl Node for BenchTicker {
    fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.schedule_timer(self.period, 0);
    }
    fn on_timer(&mut self, _tag: u64, ctx: &mut Context<'_>) {
        let pkt = ctx.spawn_packet(FlowId::PADDED, PacketKind::Dummy, 500);
        ctx.send_after(SimDuration::from_nanos(500), self.sink, pkt);
        self.remaining -= 1;
        if self.remaining > 0 {
            ctx.schedule_timer(self.period, 0);
        }
    }
}

struct NullSink {
    received: u64,
}

impl Node for NullSink {
    fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {
        self.received += 1;
    }
}

/// Total events the timer workload generates for the given shape.
fn workload_events(events: u64, pending: usize) -> (u64, u64) {
    let fires = (events / (2 * pending as u64)).max(1);
    (fires, fires * pending as u64 * 2)
}

/// Run the timer workload on the real engine; returns events/sec.
pub fn sim_events_per_sec(events: u64, pending: usize) -> f64 {
    sim_events_per_sec_with(events, pending, |_| {})
}

/// [`sim_events_per_sec`] with a pre-run engine configurator — how the
/// instrument-cost rows time the identical workload with profiling or
/// tracing enabled.
fn sim_events_per_sec_with(events: u64, pending: usize, configure: impl FnOnce(&mut Sim)) -> f64 {
    let (fires, total) = workload_events(events, pending);
    let mut b = SimBuilder::new(MasterSeed::new(1));
    let sink = b.add_node(Box::new(NullSink { received: 0 }));
    for i in 0..pending {
        b.add_node(Box::new(BenchTicker {
            sink,
            period: SimDuration::from_nanos(period_ns(i)),
            remaining: fires,
        }));
    }
    let mut sim = b.build().expect("bench sim builds");
    configure(&mut sim);
    let start = Instant::now();
    let stats = sim.run_until(SimTime::MAX);
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(stats.events, total, "engine processed the whole workload");
    total as f64 / elapsed
}

// ---- The pre-rewrite reference engine ---------------------------------

enum RefEventKind {
    Deliver(Packet),
    // The tag payload mirrors the old engine's entry layout (it sized
    // the enum); the reference workload never reads it.
    Timer(#[allow(dead_code)] u64),
}

struct HeapEntry {
    time: SimTime,
    seq: u64,
    target: usize,
    kind: RefEventKind,
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}

/// Node interface of the reference engine (boxed dyn dispatch, like the
/// real one).
trait RefNode {
    fn on_timer(&mut self, ctx: &mut RefCtx<'_>);
    fn on_packet(&mut self, pkt: Packet, ctx: &mut RefCtx<'_>);
}

struct RefCtx<'a> {
    now: SimTime,
    self_id: usize,
    heap: &'a mut BinaryHeap<HeapEntry>,
    seq: &'a mut u64,
    next_packet_id: &'a mut u64,
}

impl RefCtx<'_> {
    fn schedule_timer(&mut self, delay: SimDuration) {
        let seq = *self.seq;
        *self.seq += 1;
        self.heap.push(HeapEntry {
            time: self.now + delay,
            seq,
            target: self.self_id,
            kind: RefEventKind::Timer(0),
        });
    }
    fn send_after(&mut self, delay: SimDuration, dst: usize, pkt: Packet) {
        let seq = *self.seq;
        *self.seq += 1;
        self.heap.push(HeapEntry {
            time: self.now + delay,
            seq,
            target: dst,
            kind: RefEventKind::Deliver(pkt),
        });
    }
    fn spawn_packet(&mut self) -> Packet {
        let id = *self.next_packet_id;
        *self.next_packet_id += 1;
        Packet::new(id, FlowId::PADDED, PacketKind::Dummy, 500, self.now)
    }
}

struct RefTicker {
    sink: usize,
    period: SimDuration,
    remaining: u64,
}

impl RefNode for RefTicker {
    fn on_timer(&mut self, ctx: &mut RefCtx<'_>) {
        let pkt = ctx.spawn_packet();
        ctx.send_after(SimDuration::from_nanos(500), self.sink, pkt);
        self.remaining -= 1;
        if self.remaining > 0 {
            ctx.schedule_timer(self.period);
        }
    }
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut RefCtx<'_>) {}
}

struct RefSink {
    received: u64,
}

impl RefNode for RefSink {
    fn on_timer(&mut self, _ctx: &mut RefCtx<'_>) {}
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut RefCtx<'_>) {
        self.received += 1;
    }
}

/// Run the identical timer workload on the `BinaryHeap` reference
/// engine; returns events/sec.
pub fn heap_reference_events_per_sec(events: u64, pending: usize) -> f64 {
    let (fires, total) = workload_events(events, pending);
    let mut nodes: Vec<Box<dyn RefNode>> = Vec::with_capacity(pending + 1);
    nodes.push(Box::new(RefSink { received: 0 }));
    let mut heap = BinaryHeap::new();
    let mut seq = 0u64;
    let mut next_packet_id = 0u64;
    for i in 0..pending {
        nodes.push(Box::new(RefTicker {
            sink: 0,
            period: SimDuration::from_nanos(period_ns(i)),
            remaining: fires,
        }));
        // on_start equivalent: arm the first tick.
        heap.push(HeapEntry {
            time: SimTime::ZERO + SimDuration::from_nanos(period_ns(i)),
            seq,
            target: i + 1,
            kind: RefEventKind::Timer(0),
        });
        seq += 1;
    }

    let start = Instant::now();
    let mut processed = 0u64;
    while let Some(entry) = heap.pop() {
        let mut ctx = RefCtx {
            now: entry.time,
            self_id: entry.target,
            heap: &mut heap,
            seq: &mut seq,
            next_packet_id: &mut next_packet_id,
        };
        // Mirror the old engine: one boxed virtual call per event.
        let node = &mut nodes[entry.target];
        match entry.kind {
            RefEventKind::Timer(_) => node.on_timer(&mut ctx),
            RefEventKind::Deliver(pkt) => node.on_packet(pkt, &mut ctx),
        }
        processed += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(processed, total, "reference processed the whole workload");
    total as f64 / elapsed
}

/// Wall-clock seconds for a representative two-class lab collection of
/// `piats_per_class` PIATs (the unit of work every detection point
/// repeats hundreds of times).
pub fn sweep_wall_clock_secs(piats_per_class: usize) -> f64 {
    let start = Instant::now();
    for (seed, rate) in [(101u64, 10.0), (102u64, 40.0)] {
        let b = ScenarioBuilder::lab(seed).with_payload_rate(rate);
        let piats = piats_for(&b, TapPosition::SenderEgress, piats_per_class, 64)
            .expect("baseline collection succeeds");
        assert_eq!(piats.len(), piats_per_class);
    }
    start.elapsed().as_secs_f64()
}

// ---- Aggregate trunk workload -----------------------------------------
//
// The store-bound regime as a *scenario-shaped* workload instead of a
// bag of independent timers: `flows` gateway tickers (period ~τ, jittered
// co-prime so ticks interleave) each send every fire into one shared
// trunk relay, which forwards after a long-haul `propagation`. At steady
// state the pending set holds one armed timer per flow **plus**
// `propagation/τ` in-flight trunk packets per flow — `flows × 11` with
// the default ×10 propagation — which is exactly the shape
// `ScenarioBuilder::aggregate` produces, minus per-event gateway work,
// so the engine-vs-heap ratio isolates the event store.

/// Ticker period for aggregate flow `i` (ns): ~1 ms ± a co-prime spread.
fn trunk_period_ns(i: usize) -> u64 {
    1_000_000 + 7919 * (i as u64 % 13)
}

/// Trunk propagation delay as a multiple of the base period.
const TRUNK_PROPAGATION_TICKS: u64 = 10;

/// Fan-in relay: forwards every packet after a fixed propagation delay
/// (the trunk's in-flight population is the store-bound pending mass).
struct TrunkRelay {
    next: NodeId,
    propagation: SimDuration,
}

impl Node for TrunkRelay {
    fn on_packet(&mut self, p: Packet, ctx: &mut Context<'_>) {
        ctx.send_after(self.propagation, self.next, p);
    }
}

/// Result of one aggregate-trunk measurement.
#[derive(Debug, Clone, Copy)]
pub struct TrunkMeasurement {
    /// Events per wall-clock second over the timed (steady-state) span.
    pub events_per_sec: f64,
    /// Concurrent pending events observed at steady state, just before
    /// the timed span.
    pub pending: usize,
}

/// Total fires per ticker so the workload generates ~`events` events
/// (timer + trunk delivery + sink delivery per fire).
fn trunk_fires(events: u64, flows: usize) -> u64 {
    (events / (3 * flows as u64)).max(TRUNK_PROPAGATION_TICKS * 4)
}

/// Run the aggregate-trunk workload on the real engine.
pub fn aggregate_trunk_events_per_sec(events: u64, flows: usize) -> TrunkMeasurement {
    let fires = trunk_fires(events, flows);
    let mut b = SimBuilder::new(MasterSeed::new(1));
    let sink = b.add_node(Box::new(NullSink { received: 0 }));
    let trunk = b.add_node(Box::new(TrunkRelay {
        next: sink,
        propagation: SimDuration::from_nanos(1_000_000 * TRUNK_PROPAGATION_TICKS),
    }));
    for i in 0..flows {
        b.add_node(Box::new(BenchTicker {
            sink: trunk,
            period: SimDuration::from_nanos(trunk_period_ns(i)),
            remaining: fires,
        }));
    }
    let mut sim = b.build().expect("trunk sim builds");
    // Warm up past the propagation horizon so the in-flight population
    // is at steady state, then time the rest of the drain.
    let warmup = SimDuration::from_nanos(1_000_000 * TRUNK_PROPAGATION_TICKS * 2);
    let warm = sim.run_for(warmup);
    let pending = sim.pending_events();
    let start = Instant::now();
    let stats = sim.run_until(SimTime::MAX);
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(
        warm.events + stats.events,
        fires * flows as u64 * 3,
        "engine processed the whole trunk workload"
    );
    TrunkMeasurement {
        events_per_sec: stats.events as f64 / elapsed,
        pending,
    }
}

/// Relay node for the heap-reference engine.
struct RefTrunkRelay {
    next: usize,
    propagation: SimDuration,
}

impl RefNode for RefTrunkRelay {
    fn on_timer(&mut self, _ctx: &mut RefCtx<'_>) {}
    fn on_packet(&mut self, pkt: Packet, ctx: &mut RefCtx<'_>) {
        ctx.send_after(self.propagation, self.next, pkt);
    }
}

/// Run the identical aggregate-trunk workload on the `BinaryHeap`
/// reference engine.
pub fn heap_reference_aggregate_events_per_sec(events: u64, flows: usize) -> TrunkMeasurement {
    let fires = trunk_fires(events, flows);
    let propagation = SimDuration::from_nanos(1_000_000 * TRUNK_PROPAGATION_TICKS);
    let mut nodes: Vec<Box<dyn RefNode>> = Vec::with_capacity(flows + 2);
    nodes.push(Box::new(RefSink { received: 0 }));
    nodes.push(Box::new(RefTrunkRelay {
        next: 0,
        propagation,
    }));
    let mut heap = BinaryHeap::new();
    let mut seq = 0u64;
    let mut next_packet_id = 0u64;
    for i in 0..flows {
        nodes.push(Box::new(RefTicker {
            sink: 1, // the trunk relay
            period: SimDuration::from_nanos(trunk_period_ns(i)),
            remaining: fires,
        }));
        heap.push(HeapEntry {
            time: SimTime::ZERO + SimDuration::from_nanos(trunk_period_ns(i)),
            seq,
            target: i + 2,
            kind: RefEventKind::Timer(0),
        });
        seq += 1;
    }

    let total = fires * flows as u64 * 3;
    let warmup_until = SimTime::ZERO + propagation + propagation;
    let mut warm_events = 0u64;
    let mut pending = heap.len();
    let mut timed_events = 0u64;
    let mut timing = false;
    let mut start = Instant::now();
    while let Some(entry) = heap.pop() {
        if !timing && entry.time > warmup_until {
            pending = heap.len() + 1; // the entry just popped is pending work
            timing = true;
            start = Instant::now();
        }
        let mut ctx = RefCtx {
            now: entry.time,
            self_id: entry.target,
            heap: &mut heap,
            seq: &mut seq,
            next_packet_id: &mut next_packet_id,
        };
        let node = &mut nodes[entry.target];
        match entry.kind {
            RefEventKind::Timer(_) => node.on_timer(&mut ctx),
            RefEventKind::Deliver(pkt) => node.on_packet(pkt, &mut ctx),
        }
        if timing {
            timed_events += 1;
        } else {
            warm_events += 1;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(
        warm_events + timed_events,
        total,
        "reference processed the whole trunk workload"
    );
    TrunkMeasurement {
        events_per_sec: timed_events as f64 / elapsed,
        pending,
    }
}

/// Events/sec and steady-state pending count of the **real** aggregate
/// scenario (`ScenarioBuilder::aggregate`): full gateways, sources,
/// taps and demux, on a long-haul trunk. Slower per event than the
/// synthetic shape (gateway RNG + instrumentation ride on every tick);
/// recorded alongside it so the baseline shows both numbers.
pub fn aggregate_scenario_events_per_sec(flows: usize, sim_secs: f64) -> TrunkMeasurement {
    let b = ScenarioBuilder::aggregate(1, flows).with_trunk(10e9, 0.1);
    scenario_throughput(b, sim_secs)
}

/// Warm a built aggregate scenario past the trunk horizon, then time
/// `sim_secs` of steady-state simulation.
fn scenario_throughput(b: ScenarioBuilder, sim_secs: f64) -> TrunkMeasurement {
    scenario_throughput_with(b, sim_secs, |_| {})
}

/// [`scenario_throughput`] with an engine configurator applied after
/// the warm-up, immediately before the timed span.
fn scenario_throughput_with(
    b: ScenarioBuilder,
    sim_secs: f64,
    configure: impl FnOnce(&mut Sim),
) -> TrunkMeasurement {
    let mut s = b.build().expect("aggregate scenario builds");
    // Warm past the 100 ms trunk so the in-flight population is steady.
    s.run_for_secs(0.25);
    let pending = s.sim.pending_events();
    let before = s.sim.events_processed();
    configure(&mut s.sim);
    let start = Instant::now();
    s.run_for_secs(sim_secs);
    let elapsed = start.elapsed().as_secs_f64();
    TrunkMeasurement {
        events_per_sec: (s.sim.events_processed() - before) as f64 / elapsed,
        pending,
    }
}

// ---- Telemetry overhead -----------------------------------------------

/// Paired measurement of what an engine instrument (self-profiling or
/// causal tracing) costs one workload, run back to back: **plain** (no
/// instrument) and **enabled** (the instrument on for the whole timed
/// span). There is no "disabled" state to measure: a sim without armed
/// instruments runs the `()` instance of the engine's one event loop,
/// which holds no instrument code, so disabling is free by construction.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryMeasurement {
    /// Events/sec with the instrument never enabled.
    pub plain_events_per_sec: f64,
    /// Events/sec with the instrument enabled throughout.
    pub enabled_events_per_sec: f64,
}

impl TelemetryMeasurement {
    /// Throughput cost of the enabled instrument vs plain, percent.
    pub fn enabled_overhead_pct(&self) -> f64 {
        (self.plain_events_per_sec / self.enabled_events_per_sec - 1.0) * 100.0
    }

    /// Fold another round in, per-config best (the measurement protocol
    /// every recorded baseline metric uses — see `perf_baseline`).
    pub fn fold_best(&mut self, other: &TelemetryMeasurement) {
        self.plain_events_per_sec = self.plain_events_per_sec.max(other.plain_events_per_sec);
        self.enabled_events_per_sec = self
            .enabled_events_per_sec
            .max(other.enabled_events_per_sec);
    }
}

/// Instrument cost on the timer microbench (the `event_loop` shape):
/// one plain / enabled round, back to back.
fn instrument_overhead_event_loop(
    events: u64,
    pending: usize,
    enable: fn(&mut Sim),
) -> TelemetryMeasurement {
    TelemetryMeasurement {
        plain_events_per_sec: sim_events_per_sec_with(events, pending, |_| {}),
        enabled_events_per_sec: sim_events_per_sec_with(events, pending, enable),
    }
}

/// Instrument cost on the real aggregate scenario (the
/// `aggregate_trunk` shape): one plain / enabled round, back to back.
fn instrument_overhead_aggregate(
    flows: usize,
    sim_secs: f64,
    enable: fn(&mut Sim),
) -> TelemetryMeasurement {
    let base = || ScenarioBuilder::aggregate(1, flows).with_trunk(10e9, 0.1);
    TelemetryMeasurement {
        plain_events_per_sec: scenario_throughput_with(base(), sim_secs, |_| {}).events_per_sec,
        enabled_events_per_sec: scenario_throughput_with(base(), sim_secs, enable).events_per_sec,
    }
}

/// Engine self-profiling cost on the timer microbench.
pub fn telemetry_overhead_event_loop(events: u64, pending: usize) -> TelemetryMeasurement {
    instrument_overhead_event_loop(events, pending, Sim::enable_profiling)
}

/// Engine self-profiling cost on the real aggregate scenario.
pub fn telemetry_overhead_aggregate(flows: usize, sim_secs: f64) -> TelemetryMeasurement {
    instrument_overhead_aggregate(flows, sim_secs, Sim::enable_profiling)
}

/// Causal-trace cost on the timer microbench.
pub fn tracing_overhead_event_loop(events: u64, pending: usize) -> TelemetryMeasurement {
    instrument_overhead_event_loop(events, pending, Sim::enable_tracing)
}

/// Causal-trace cost on the real aggregate scenario.
pub fn tracing_overhead_aggregate(flows: usize, sim_secs: f64) -> TelemetryMeasurement {
    instrument_overhead_aggregate(flows, sim_secs, Sim::enable_tracing)
}

/// An engine profile of the aggregate-trunk workload: build the real
/// scenario, warm it, profile `sim_secs` of steady state. The evidence
/// record behind the dispatch bound — batch sizes, depth series, store
/// op mix — embedded in the baseline's context section.
pub fn aggregate_trunk_profile(flows: usize, sim_secs: f64) -> linkpad_obs::ProfileReport {
    let b = ScenarioBuilder::aggregate(1, flows).with_trunk(10e9, 0.1);
    let mut s = b.build().expect("aggregate scenario builds");
    s.run_for_secs(0.25);
    s.sim.enable_profiling();
    s.run_for_secs(sim_secs);
    s.sim
        .profile_report()
        .expect("profiling was enabled for the span")
}

/// A sampled wall-time attribution of the aggregate-trunk workload:
/// where each dispatch's nanoseconds go (store pop + batch collection
/// vs `Context` build vs the node handler), per node label. Runs the
/// same warmed scenario as [`aggregate_trunk_profile`] with an
/// attribution sampler hooked onto the event loop, sampling every
/// `sample_every`-th dispatch. Recorded as context in the baseline's
/// `engine_profile` section — evidence for the dispatch bound, never a
/// gated number (it is wall-clock and container-dependent).
pub fn aggregate_trunk_attribution(
    flows: usize,
    sim_secs: f64,
    sample_every: u64,
) -> linkpad_sim::AttributionReport {
    let b = ScenarioBuilder::aggregate(1, flows).with_trunk(10e9, 0.1);
    let mut s = b.build().expect("aggregate scenario builds");
    s.run_for_secs(0.25);
    let mut sampler = linkpad_sim::AttributionSampler::new(sample_every);
    let until = s.sim.now() + SimDuration::from_secs_f64(sim_secs);
    s.sim.run_until_attributed(until, &mut sampler);
    sampler.report()
}

// ---- Fault-hook overhead ----------------------------------------------

/// Paired measurement of what the trunk fault hook costs the real
/// aggregate scenario, in three configurations run back to back (so
/// the ratios share one noise environment).
#[derive(Debug, Clone, Copy)]
pub struct FaultHookMeasurement {
    /// No `FaultPlan` configured at all — the pre-fault-subsystem path.
    pub plain_events_per_sec: f64,
    /// A `FaultPlan` configured but with no trunk axis: the build-time
    /// hook decides **not** to insert a gate, so this must match
    /// `plain` to measurement noise — the "loss hook is free when
    /// fault-free" contract.
    pub faultfree_plan_events_per_sec: f64,
    /// An **armed but lossless** gate (Bernoulli p = 0) on the trunk:
    /// every trunk packet takes the full hook path (RNG draw + outage
    /// check + one extra dispatch). The honest worst-case hook cost.
    pub gated_zero_loss_events_per_sec: f64,
}

impl FaultHookMeasurement {
    /// Throughput cost of the *fault-free* configured plan vs no plan,
    /// percent (positive = slower). Zero by construction up to noise.
    pub fn faultfree_overhead_pct(&self) -> f64 {
        (self.plain_events_per_sec / self.faultfree_plan_events_per_sec - 1.0) * 100.0
    }

    /// Throughput cost of the armed lossless gate vs no plan, percent.
    pub fn armed_overhead_pct(&self) -> f64 {
        (self.plain_events_per_sec / self.gated_zero_loss_events_per_sec - 1.0) * 100.0
    }
}

/// Measure the fault hook's throughput cost on the `flows`-pair
/// aggregate scenario (`sim_secs` of steady state per configuration).
pub fn fault_hook_overhead(flows: usize, sim_secs: f64) -> FaultHookMeasurement {
    use linkpad_sim::fault::{FaultPlan, LossModel};
    let base = || ScenarioBuilder::aggregate(1, flows).with_trunk(10e9, 0.1);
    let plain = scenario_throughput(base(), sim_secs);
    let faultfree = scenario_throughput(base().with_faults(FaultPlan::new(1)), sim_secs);
    let gated = scenario_throughput(
        base().with_faults(FaultPlan::new(1).with_trunk_loss(LossModel::Bernoulli { p: 0.0 })),
        sim_secs,
    );
    FaultHookMeasurement {
        plain_events_per_sec: plain.events_per_sec,
        faultfree_plan_events_per_sec: faultfree.events_per_sec,
        gated_zero_loss_events_per_sec: gated.events_per_sec,
    }
}

/// Result of one aggregate-observer measurement: the full aggregate
/// scenario with the streaming [`WindowedObserver`] on the trunk in
/// place of the store-everything tap.
///
/// [`WindowedObserver`]: linkpad_sim::observer::WindowedObserver
#[derive(Debug, Clone, Copy)]
pub struct ObserverMeasurement {
    /// Events per wall-clock second over the timed span.
    pub events_per_sec: f64,
    /// Concurrent pending events at steady state, before the timed span.
    pub pending: usize,
    /// Windows materialized by the observer over the whole run — the
    /// observer's entire memory footprint is proportional to this.
    pub windows: usize,
    /// Trunk arrivals folded into those windows. `arrivals / windows` is
    /// how many per-packet captures a trunk tap would have stored per
    /// window the observer actually keeps.
    pub arrivals: u64,
}

/// Events/sec and observer footprint of the **real** aggregate scenario
/// running with the streaming trunk observer (`window_secs`-wide
/// windows) instead of the trunk tap: the aggregate-adversary
/// observation path at scale. Comparable to
/// [`aggregate_scenario_events_per_sec`] — same topology, different
/// trunk instrument — while the windows/arrivals ratio documents the
/// O(windows)-vs-O(arrivals) memory contract.
pub fn aggregate_observer_events_per_sec(
    flows: usize,
    sim_secs: f64,
    window_secs: f64,
) -> ObserverMeasurement {
    let b = ScenarioBuilder::aggregate(1, flows)
        .with_trunk(10e9, 0.1)
        .with_trunk_observer(window_secs);
    let mut s = b.build().expect("aggregate observer scenario builds");
    // Warm past the 100 ms trunk so the in-flight population is steady.
    s.run_for_secs(0.25);
    let pending = s.sim.pending_events();
    let before = s.sim.events_processed();
    let start = Instant::now();
    s.run_for_secs(sim_secs);
    let elapsed = start.elapsed().as_secs_f64();
    let obs = s
        .aggregate
        .as_ref()
        .expect("aggregate handles")
        .trunk_observer
        .clone()
        .expect("observer-mode trunk");
    ObserverMeasurement {
        events_per_sec: (s.sim.events_processed() - before) as f64 / elapsed,
        pending,
        windows: obs.windows(),
        arrivals: obs.arrivals(),
    }
}

// ---- Sharded million-flow aggregate -----------------------------------

/// Result of one sharded cohort-aggregate measurement — the 10⁶-flow
/// execution path: non-target flows as `FlowCohort`s, the population
/// split over worker sub-sims, per-shard window series merged into one
/// trunk view.
#[derive(Debug, Clone, Copy)]
pub struct ShardedMeasurement {
    /// Events per wall-clock second, summed across all shard event loops
    /// over the whole fan-out (including merge).
    pub events_per_sec: f64,
    /// The same throughput divided by the shard count — a context ratio
    /// tied to this container's worker pool, not a gated engine number.
    pub per_shard_events_per_sec: f64,
    /// Wall-clock seconds for the whole sharded run.
    pub wall_clock_secs: f64,
    /// Largest pending-event population sampled in any shard (the
    /// per-worker memory high-water proxy).
    pub peak_pending: usize,
    /// Trunk arrivals folded across all shards.
    pub arrivals: u64,
    /// Windows in the merged trunk series.
    pub merged_windows: usize,
}

/// Trunk capacity for a cohort-scale aggregate of `flows` CIT flows:
/// ~2.5× the offered load (each τ = 10 ms flow offers 400 kb/s of
/// 500-byte packets), floored at the family's 10 Gb/s default — which
/// saturates above ~2.5×10⁴ flows. One policy shared by the recorded
/// baseline and the `fig_million_flows` experiment so both always
/// measure identically provisioned trunks.
pub fn provisioned_trunk_bps(flows: usize) -> f64 {
    (flows as f64 * 1e6).max(10e9)
}

/// Run the sharded cohort aggregate: `flows` CIT flows in cohorts of
/// `cohort_size`, split over `shards` sub-sims, observed in
/// `window_secs` windows for `sim_secs` of simulated time. The trunk
/// is provisioned by [`provisioned_trunk_bps`].
pub fn sharded_aggregate_measurement(
    flows: usize,
    cohort_size: usize,
    shards: usize,
    window_secs: f64,
    sim_secs: f64,
) -> ShardedMeasurement {
    let trunk_bps = provisioned_trunk_bps(flows);
    let builder = linkpad_workloads::scenario::ScenarioBuilder::aggregate(1, flows)
        .with_trunk(trunk_bps, 5e-3)
        .with_trunk_observer(window_secs)
        .with_cohorts(cohort_size)
        .with_shards(shards);
    let sharded =
        linkpad_workloads::shard::ShardedAggregate::new(builder).expect("sharded config valid");
    let run = sharded
        .run_for_secs(sim_secs)
        .expect("sharded run succeeds");
    ShardedMeasurement {
        events_per_sec: run.events_per_sec(),
        per_shard_events_per_sec: run.events_per_sec() / shards as f64,
        wall_clock_secs: run.wall_secs,
        peak_pending: run.pending_peak(),
        arrivals: run.arrivals(),
        merged_windows: run.windows.len(),
    }
}

// ---- Defense matrix ---------------------------------------------------

/// The canonical defense grid: every padding schedule the cohort path
/// supports, plus the variable-payload axis on a CIT clock. One policy
/// shared by the recorded baseline and the `fig_defense_matrix`
/// experiment so both always measure the same configurations.
pub fn defense_grid() -> Vec<(
    &'static str,
    linkpad_workloads::spec::ScheduleSpec,
    linkpad_workloads::spec::PayloadModel,
)> {
    use linkpad_workloads::spec::{PayloadModel, ScheduleSpec};
    vec![
        ("cit", ScheduleSpec::Cit, PayloadModel::Fixed),
        (
            "constant_rate",
            ScheduleSpec::ConstantRate { rate: 125.0 },
            PayloadModel::Fixed,
        ),
        (
            "adaptive",
            ScheduleSpec::AdaptivePadding { reactive: false },
            PayloadModel::Fixed,
        ),
        (
            "cit_var_payload",
            ScheduleSpec::Cit,
            PayloadModel::Uniform { lo: 300, hi: 900 },
        ),
    ]
}

/// One defense row of the `defense_matrix` baseline section: the
/// sharded cohort aggregate run under one schedule/payload pair, read
/// by both adversary channels.
#[derive(Debug, Clone, Copy)]
pub struct DefenseMeasurement {
    /// Grid key (also the JSON object key in the baseline).
    pub name: &'static str,
    /// The defense's mean emission interval E\[T\], seconds.
    pub mean_interval_secs: f64,
    /// Mean wire bytes per emission.
    pub mean_wire_bytes: f64,
    /// Trunk bandwidth relative to the CIT/fixed-payload baseline.
    pub overhead_factor: f64,
    /// Count-channel flow-count estimate error, percent (deterministic
    /// given the seed — a gated accuracy metric, not a noise band).
    pub count_err_pct: f64,
    /// Byte-channel flow-count estimate error, percent.
    pub byte_err_pct: f64,
    /// Events per wall-clock second, summed across shard event loops.
    pub events_per_sec: f64,
    /// Wall-clock seconds for the whole sharded run.
    pub wall_clock_secs: f64,
}

/// Run the whole [`defense_grid`] through the sharded cohort aggregate:
/// `flows` flows per defense, uniform clock phases, `measured`
/// steady-state windows fed to both flow-count channels. The trunk is
/// provisioned by [`provisioned_trunk_bps`]; the observer window is
/// 20τ (the rate law's exact regime for the deterministic schedules).
pub fn defense_matrix_measurement(
    flows: usize,
    cohort_size: usize,
    shards: usize,
    measured: usize,
) -> Vec<DefenseMeasurement> {
    use linkpad_adversary::aggregate::{estimate_flow_count, estimate_flow_count_from_bytes};
    const SKIP: usize = 2;
    let defaults = linkpad_workloads::scenario::ScenarioBuilder::aggregate(1, 1).defaults;
    let (tau, pkt) = (defaults.tau, defaults.packet_size);
    let window = 20.0 * tau;
    let sim_secs = window * (SKIP + measured + 1) as f64;
    let baseline_bps = pkt as f64 / tau;
    defense_grid()
        .into_iter()
        .enumerate()
        .map(|(i, (name, spec, payload))| {
            let interval = spec.mean_interval(tau);
            let mean_bytes = payload.mean_bytes(pkt);
            let window_over_interval = window / interval;
            let builder =
                linkpad_workloads::scenario::ScenarioBuilder::aggregate(2311 + i as u64, flows)
                    .with_payload_rate(10.0)
                    .with_trunk(provisioned_trunk_bps(flows), 5e-3)
                    .with_trunk_observer(window)
                    .with_cohorts(cohort_size)
                    .with_shards(shards)
                    .with_phases(linkpad_workloads::aggregate::PhaseSpec::Uniform { seed: 41 })
                    .with_schedule(spec)
                    .with_payload_model(payload);
            let sharded = linkpad_workloads::shard::ShardedAggregate::new(builder)
                .expect("defense-matrix config valid");
            let run = sharded
                .run_for_secs(sim_secs)
                .expect("defense-matrix run succeeds");
            let span = SKIP..SKIP + measured;
            let count_est = estimate_flow_count(&run.counts()[span.clone()], window_over_interval)
                .expect("count-channel estimator");
            let byte_rates: Vec<f64> = run.windows[span]
                .iter()
                .map(|w| w.bytes as f64 / window)
                .collect();
            let byte_est = estimate_flow_count_from_bytes(
                &byte_rates,
                window,
                mean_bytes,
                window_over_interval,
            )
            .expect("byte-channel estimator");
            DefenseMeasurement {
                name,
                mean_interval_secs: interval,
                mean_wire_bytes: mean_bytes,
                overhead_factor: (mean_bytes / interval) / baseline_bps,
                count_err_pct: count_est.relative_error(flows) * 100.0,
                byte_err_pct: byte_est.relative_error(flows) * 100.0,
                events_per_sec: run.events_per_sec(),
                wall_clock_secs: run.wall_secs,
            }
        })
        .collect()
}

// ---- Scenario reset vs rebuild ----------------------------------------

/// Timing of per-replication setup: rebuilding the lab topology from its
/// builder vs resetting a built one (`BuiltScenario::reset`).
#[derive(Debug, Clone, Copy)]
pub struct ResetMeasurement {
    /// Mean cost of `builder.build()` per replication, microseconds.
    pub build_us: f64,
    /// Mean cost of `scenario.reset(seed)` per replication, microseconds.
    pub reset_us: f64,
    /// Wall clock for a many-replication lab sweep unit that rebuilds
    /// per replication, seconds.
    pub sweep_rebuild_secs: f64,
    /// The same sweep unit reusing one topology via reset, seconds.
    pub sweep_reset_secs: f64,
}

impl ResetMeasurement {
    /// How many times cheaper reset is than rebuild, per replication.
    pub fn setup_speedup(&self) -> f64 {
        self.build_us / self.reset_us
    }
}

/// Measure scenario-reset vs rebuild on the lab sweep unit:
/// `reps` short replications of `piats_per_rep` PIATs each.
pub fn reset_vs_rebuild(reps: usize, piats_per_rep: usize) -> ResetMeasurement {
    let builder = ScenarioBuilder::lab(7).with_payload_rate(10.0);

    // Isolated setup cost: build N times vs reset N times.
    let start = Instant::now();
    let mut node_count = 0;
    for k in 0..reps {
        let s = builder
            .clone()
            .with_seed(1000 + k as u64)
            .build()
            .expect("lab builds");
        node_count = node_count.max(s.sim.node_count());
    }
    let build_us = start.elapsed().as_secs_f64() * 1e6 / reps as f64;

    let mut s = builder.build().expect("lab builds");
    let start = Instant::now();
    for k in 0..reps {
        s.reset(1000 + k as u64);
    }
    let reset_us = start.elapsed().as_secs_f64() * 1e6 / reps as f64;
    assert_eq!(s.sim.node_count(), node_count, "reset keeps the topology");

    // End-to-end sweep unit: rebuild-per-replication vs reset-per-
    // replication, identical seeds, identical collected sample counts.
    let at = TapPosition::SenderEgress;
    let start = Instant::now();
    let mut collected_rebuild = 0usize;
    for k in 0..reps {
        let b = builder.clone().with_seed(2000 + k as u64);
        collected_rebuild += piats_for(&b, at, piats_per_rep, 16)
            .expect("rebuild sweep collects")
            .len();
    }
    let sweep_rebuild_secs = start.elapsed().as_secs_f64();

    let mut s = builder.build().expect("lab builds");
    let start = Instant::now();
    let mut collected_reset = 0usize;
    for k in 0..reps {
        collected_reset += s
            .collect_piats_reseeded(2000 + k as u64, at, piats_per_rep, 16)
            .expect("reset sweep collects")
            .len();
    }
    let sweep_reset_secs = start.elapsed().as_secs_f64();
    assert_eq!(collected_rebuild, collected_reset);

    ResetMeasurement {
        build_us,
        reset_us,
        sweep_rebuild_secs,
        sweep_reset_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_engines_complete_the_same_workload() {
        // Tiny shape: correctness only, not timing.
        let eps_new = sim_events_per_sec(2_000, 16);
        let eps_ref = heap_reference_events_per_sec(2_000, 16);
        assert!(eps_new > 0.0 && eps_ref > 0.0);
    }

    #[test]
    fn workload_accounting_is_exact() {
        let (fires, total) = workload_events(1000, 10);
        assert_eq!(fires, 50);
        assert_eq!(total, 1000);
        // Degenerate: at least one fire each.
        let (fires, total) = workload_events(1, 8);
        assert_eq!(fires, 1);
        assert_eq!(total, 16);
    }

    #[test]
    fn trunk_workload_completes_on_both_engines() {
        // Tiny shape: correctness only. Both engines must drain the whole
        // workload and observe an in-flight trunk population (pending >
        // one timer per flow at steady state).
        let a = aggregate_trunk_events_per_sec(30_000, 8);
        let b = heap_reference_aggregate_events_per_sec(30_000, 8);
        assert!(a.events_per_sec > 0.0 && b.events_per_sec > 0.0);
        assert!(a.pending > 8, "engine pending {}", a.pending);
        assert!(b.pending > 8, "reference pending {}", b.pending);
    }

    #[test]
    fn aggregate_scenario_measurement_reports_pending() {
        let m = aggregate_scenario_events_per_sec(16, 0.2);
        assert!(m.events_per_sec > 0.0);
        // 16 flows × (2 timers + ~10 in-flight on the 100 ms trunk).
        assert!(m.pending > 16 * 3, "pending {}", m.pending);
    }

    #[test]
    fn aggregate_observer_measurement_is_o_windows() {
        let m = aggregate_observer_events_per_sec(16, 0.4, 0.05);
        assert!(m.events_per_sec > 0.0);
        assert!(m.pending > 16 * 3, "pending {}", m.pending);
        // 0.65 s observed in 50 ms windows → ~13 windows; arrivals are
        // 16 flows × ~100 pps × 0.65 s ≈ 10³ — two orders more than the
        // windows that store them.
        assert!(m.windows <= 16, "windows {}", m.windows);
        assert!(
            m.arrivals > 40 * m.windows as u64,
            "arrivals {} windows {}",
            m.arrivals,
            m.windows
        );
    }

    #[test]
    fn sharded_measurement_reports_the_whole_population() {
        // Tiny shape: 64 flows in 16-cohorts over 2 shards, 0.5 s.
        let m = sharded_aggregate_measurement(64, 16, 2, 0.05, 0.5);
        assert!(m.events_per_sec > 0.0 && m.wall_clock_secs > 0.0);
        assert!(m.per_shard_events_per_sec <= m.events_per_sec);
        // 64 flows × 100 pps × ~0.5 s, minus the first-period ramp.
        assert!(m.arrivals >= 3000, "arrivals {}", m.arrivals);
        assert!(m.merged_windows >= 9, "windows {}", m.merged_windows);
        assert!(m.peak_pending > 0);
    }

    #[test]
    fn instrument_measurements_run_both_configurations() {
        // Tiny shapes: correctness only, not timing — both states of
        // both instruments must complete the workload.
        for m in [
            telemetry_overhead_event_loop(2_000, 16),
            tracing_overhead_event_loop(2_000, 16),
            telemetry_overhead_aggregate(16, 0.2),
            tracing_overhead_aggregate(16, 0.2),
        ] {
            assert!(m.plain_events_per_sec > 0.0);
            assert!(m.enabled_events_per_sec > 0.0);
            assert!(m.enabled_overhead_pct().is_finite());
        }
    }

    #[test]
    fn attribution_covers_the_scenario_node_types() {
        let report = aggregate_trunk_attribution(16, 0.2, 64);
        assert!(report.dispatches_seen > 0);
        assert!(report.samples() > 0);
        assert_eq!(report.sample_every, 64);
        // The aggregate scenario dispatches at least gateways and
        // trunk-side nodes; each sampled row accumulated wall time.
        assert!(report.rows.len() >= 2, "rows {:?}", report.rows.len());
        assert!(report.total_ns() > 0);
    }

    #[test]
    fn fault_hook_measurement_runs_all_three_configurations() {
        // Tiny shape: correctness only, not timing — all three paths
        // must build and produce positive throughput.
        let m = fault_hook_overhead(16, 0.2);
        assert!(m.plain_events_per_sec > 0.0);
        assert!(m.faultfree_plan_events_per_sec > 0.0);
        assert!(m.gated_zero_loss_events_per_sec > 0.0);
        assert!(m.faultfree_overhead_pct().is_finite());
        assert!(m.armed_overhead_pct().is_finite());
    }

    #[test]
    fn reset_measurement_is_sane() {
        let m = reset_vs_rebuild(5, 64);
        assert!(m.build_us > 0.0 && m.reset_us > 0.0);
        assert!(m.setup_speedup() > 0.0);
        assert!(m.sweep_rebuild_secs > 0.0 && m.sweep_reset_secs > 0.0);
    }
}

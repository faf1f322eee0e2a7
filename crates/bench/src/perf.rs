//! The engine-throughput microbench behind the criterion bench
//! (`benches/crit_kernels.rs`), and the experiment policies linkbench and
//! the fig bins share.
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
//!
//! The policies, [`provisioned_trunk_bps`] and [`defense_grid`], are one
//! definition each so every caller measures the same configurations.

use linkpad_sim::engine::{Context, SimBuilder};
use linkpad_sim::node::{Node, NodeId};
use linkpad_sim::packet::{FlowId, Packet, PacketKind};
use linkpad_sim::time::{SimDuration, SimTime};
use linkpad_stats::rng::MasterSeed;
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

// ---- Shared experiment policies ---------------------------------------

/// Trunk capacity for a cohort-scale aggregate of `flows` CIT flows:
/// ~2.5× the offered load (each τ = 10 ms flow offers 400 kb/s of
/// 500-byte packets), floored at the family's 10 Gb/s default — which
/// saturates above ~2.5×10⁴ flows. One policy shared by linkbench and
/// the fig bins so all of them measure identically provisioned trunks.
pub fn provisioned_trunk_bps(flows: usize) -> f64 {
    (flows as f64 * 1e6).max(10e9)
}

/// The canonical defense grid: every padding schedule the cohort path
/// supports, plus the variable-payload axis on a CIT clock. One policy
/// shared by linkbench's `cohort_defenses` workload and the
/// `fig_defense_matrix` experiment so both always measure the same
/// configurations.
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
}

//! Determinism guards for the engine.
//!
//! 1. A property test that the event store pops events in exactly the
//!    `(time, seq)` order a reference model produces, under randomized
//!    interleaved push/pop schedules.
//! 2. Replay tests: the same `MasterSeed` yields a bit-identical capture
//!    trace across two runs, and different seeds diverge.

use linkpad_sim::engine::SimBuilder;
use linkpad_sim::equeue::{EventKind, EventQueue};
use linkpad_sim::packet::{FlowId, PacketKind};
use linkpad_sim::source::DistSource;
use linkpad_sim::tap::Tap;
use linkpad_sim::time::{SimDuration, SimTime};
use linkpad_stats::dist::Exponential;
use linkpad_stats::rng::{MasterSeed, Xoshiro256StarStar};
use rand_core::RngCore;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Drive the event store and a `BinaryHeap` reference model through an
/// identical randomized schedule; their pop sequences must be identical.
fn check_against_model(seed: u64, ops: usize, time_spread: u64, burst: u64) {
    let mut rng = Xoshiro256StarStar::from_u64(seed);
    let mut queue = EventQueue::new();
    let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut now = 0u64;
    let mut popped = Vec::new();
    let mut expected = Vec::new();

    for _ in 0..ops {
        let action = rng.next_u64() % 100;
        if action < 55 || model.is_empty() {
            // Push a batch of events at or after `now`. Occasional
            // same-timestamp bursts exercise FIFO tie-breaking.
            let n = 1 + rng.next_u64() % burst;
            let base = now + rng.next_u64() % time_spread;
            for _ in 0..n {
                let t = if rng.next_u64().is_multiple_of(4) {
                    base // deliberate timestamp collision
                } else {
                    now + rng.next_u64() % time_spread
                };
                let target = (rng.next_u64() % 7) as usize;
                let kind = if rng.next_u64().is_multiple_of(2) {
                    EventKind::Timer(seq)
                } else {
                    EventKind::Deliver(linkpad_sim::packet::Packet::new(
                        seq,
                        FlowId::PADDED,
                        PacketKind::Dummy,
                        500,
                        SimTime::from_nanos(t),
                    ))
                };
                queue.push(SimTime::from_nanos(t), seq, target, kind);
                model.push(Reverse((t, seq)));
                seq += 1;
            }
        } else {
            let Reverse(want) = model.pop().expect("model non-empty");
            let got = queue.pop().expect("queue matches model occupancy");
            now = want.0; // simulation time advances to the popped event
            expected.push(want);
            popped.push((got.time.as_nanos(), got.seq));
        }
    }
    // Drain both completely.
    while let Some(Reverse(want)) = model.pop() {
        let got = queue.pop().expect("queue matches model occupancy");
        expected.push(want);
        popped.push((got.time.as_nanos(), got.seq));
    }
    assert!(queue.pop().is_none(), "queue must drain with the model");
    assert_eq!(popped, expected, "pop order diverged (seed {seed})");
}

#[test]
fn event_queue_matches_heap_model_across_schedules() {
    // Many seeds × several workload shapes: narrow/wide time spreads and
    // small/large same-instant bursts.
    for seed in 0..24u64 {
        check_against_model(seed, 2_000, 1_000, 4);
        check_against_model(seed, 2_000, 50_000_000, 8);
        check_against_model(seed, 800, 10, 32);
    }
}

#[test]
fn event_queue_model_agreement_at_scale() {
    // One deep run with a large resident set.
    check_against_model(99, 60_000, 5_000_000, 16);
}

/// Build a jittered source → tap → sink sim and capture its trace.
fn capture_trace(seed: u64, secs: f64) -> Vec<u64> {
    let mut b = SimBuilder::new(MasterSeed::new(seed));
    let (_sink_handle, sink) = Tap::new(None, None);
    let sink_id = b.add_node(Box::new(sink));
    let (tap_handle, tap) = Tap::new(None, Some(sink_id));
    let tap_id = b.add_node(Box::new(tap));
    // Exponential inter-arrivals drive the per-node RNG stream, so any
    // engine-level reordering would desynchronize draws and show up in
    // the timestamps.
    b.add_node(Box::new(DistSource::new(
        tap_id,
        FlowId::PADDED,
        PacketKind::Payload,
        Box::new(Exponential::new(0.001).unwrap()),
        Box::new(Exponential::new(500.0).unwrap()),
    )));
    let mut sim = b.build().unwrap();
    sim.run_until(SimTime::from_secs_f64(secs));
    // Interleave a resumed segment to cover run_until boundaries.
    sim.run_for(SimDuration::from_secs_f64(secs));
    tap_handle.with_timestamps(|ts| ts.iter().map(|t| t.as_nanos()).collect())
}

#[test]
fn same_master_seed_replays_bit_identical_traces() {
    let a = capture_trace(0xDEAD_BEEF, 2.0);
    let b = capture_trace(0xDEAD_BEEF, 2.0);
    assert!(a.len() > 1_000, "trace long enough to be meaningful");
    assert_eq!(a, b, "identical MasterSeed must replay bit-for-bit");
}

#[test]
fn different_master_seeds_diverge() {
    let a = capture_trace(1, 1.0);
    let b = capture_trace(2, 1.0);
    assert_ne!(a, b);
}

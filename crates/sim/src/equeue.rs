//! The engine's event store: a ladder/calendar queue over a slab arena.
//!
//! A discrete-event sweep pushes and pops one event per packet hop, so
//! this structure is the single hottest data structure in the workspace.
//! The previous engine used `BinaryHeap<HeapEntry>`: every operation paid
//! `O(log n)` sift comparisons over the *whole* pending set and moved
//! 64-byte entries (the `Packet` payload rode inside the heap nodes)
//! through the heap array.
//!
//! This queue is a three-tier time ladder over compact 32-byte keys
//! (`(time, seq)` order, target/kind metadata, and a timer tag or packet
//! slot inline):
//!
//! * **near** — the currently active time window, a *small* binary heap
//!   sized around [`TARGET_BATCH`] events. It lives in L1 cache, so its
//!   `O(log B)` operations touch a dozen hot bytes per level.
//! * **rungs** — [`N_BUCKETS`] consecutive windows of width `width` ns
//!   after the near window (the calendar/timing-wheel tier). Insertion
//!   is an index computation plus a `Vec::push` — no comparisons.
//! * **far** — everything beyond the rung span, completely unsorted:
//!   insertion is a bare `Vec::push`.
//!
//! When `near` drains, the next non-empty rung is heapified into it
//! (`O(B)`). When all rungs are drained, one sequential sweep of `far`
//! re-bases the ladder at the minimum pending time and scatters the next
//! `N_BUCKETS × width` of events into fresh rungs; `width` is
//! re-estimated from the observed event density so a rung holds roughly
//! [`TARGET_BATCH`] events. A far event is therefore rescanned about
//! once per `N_BUCKETS` batches, so per-event ordering cost stays flat
//! as the pending set grows — instead of the global `O(log n)` the old
//! heap paid on every single push and pop.
//!
//! Timer events live entirely inside their key; delivery payloads live
//! in a **slab arena** (`slots` + an intrusive free list). The ordering
//! tiers therefore move only small keys, packets are written exactly
//! once, and no per-event allocation happens after the arena and rungs
//! warm up.
//!
//! **Determinism.** Pop order is exactly ascending `(time, seq)` — the
//! same total order the old heap produced. `seq` values are unique (the
//! engine's scheduling counter), so keys never compare equal and FIFO
//! tie-breaking at equal timestamps is preserved bit-for-bit. The
//! property tests in `tests/determinism.rs` pin this against a
//! `BinaryHeap` reference model.

use crate::packet::Packet;
use crate::time::SimTime;
use std::collections::BinaryHeap;

/// What an event does when it fires.
#[derive(Debug)]
pub enum EventKind {
    /// Deliver a packet to the target node.
    Deliver(Packet),
    /// Fire a timer on the target node with the given tag.
    Timer(u64),
}

/// A scheduled event, as returned by [`EventQueue::pop`].
#[derive(Debug)]
pub struct Event {
    /// When the event fires.
    pub time: SimTime,
    /// Global scheduling sequence number (FIFO tie-break at equal times).
    pub seq: u64,
    /// Index of the node the event targets.
    pub target: usize,
    /// The action.
    pub kind: EventKind,
}

/// Self-contained sort key; what the ladder tiers hold.
///
/// Timer events live *entirely* in the key (`payload` = tag), so the
/// majority of events never touch the slab at all; deliveries keep their
/// `Packet` in the arena and carry its slot index in `payload`.
///
/// `Ord` is **reversed** (greater = earlier) so `BinaryHeap<Key>`, a
/// max-heap, pops the earliest `(time, seq)` first.
#[derive(Debug, Clone, Copy)]
struct Key {
    time: u64,
    seq: u64,
    /// Bit 31: timer flag; bits 0..31: target node index.
    meta: u32,
    /// Timer tag, or slab slot of the `Packet`.
    payload: u64,
}

const TIMER_FLAG: u32 = 1 << 31;

impl Key {
    #[inline]
    fn order(&self) -> (u64, u64) {
        (self.time, self.seq)
    }

    #[inline]
    fn target(&self) -> usize {
        (self.meta & !TIMER_FLAG) as usize
    }

    #[inline]
    fn is_timer(&self) -> bool {
        self.meta & TIMER_FLAG != 0
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.order() == other.order()
    }
}
impl Eq for Key {}
impl Ord for Key {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.order().cmp(&self.order())
    }
}
impl PartialOrd for Key {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Arena slot: a delivery's packet, or a link in the free list.
#[derive(Debug)]
enum Slot {
    Full(Packet),
    /// Free; holds the next free slot index (`u32::MAX` = end of list).
    Free(u32),
}

/// Rungs and the near window adapt toward this many events each: large
/// enough to amortize tier moves, small enough that the near heap stays
/// in L1 cache.
const TARGET_BATCH: usize = 512;

/// Rungs per ladder cycle. A `far` event is rescanned roughly once per
/// `N_BUCKETS` refills, bounding the re-sweep cost per event.
const N_BUCKETS: usize = 64;

/// Initial rung width in nanoseconds (~1 ms, the order of the paper's
/// timer periods); every re-base re-estimates it from the observed
/// event density.
const INITIAL_WIDTH: u64 = 1 << 20;

/// Ladder/calendar event queue with slab-arena storage.
///
/// Pops events in ascending `(time, seq)` order, identically to a
/// min-heap over the same keys.
#[derive(Debug)]
pub struct EventQueue {
    slots: Vec<Slot>,
    /// Head of the intrusive free list (`u32::MAX` = empty).
    free_head: u32,
    /// Min-heap (via reversed `Ord`) over the active window:
    /// events with `time <= horizon`.
    near: BinaryHeap<Key>,
    /// The calendar tier: rung `i` holds events in
    /// `[base + i*width, base + (i+1)*width)`, unsorted.
    rungs: Vec<Vec<Key>>,
    /// Events at or beyond `span_end`, unsorted.
    far: Vec<Key>,
    /// Inclusive upper time bound of the near window.
    horizon: u64,
    /// Start time of the current ladder cycle.
    base: u64,
    /// Index of the rung the near window was loaded from.
    cursor: usize,
    /// Rung width (ns) of the current cycle.
    width: u64,
    /// Inclusive upper time bound of the rung span; below `base` when no
    /// cycle is active.
    span_last: u64,
    len: usize,
    diag: Diag,
}

/// Cheap internal op counters (a few `u64` increments on cold paths),
/// exposed for perf diagnosis and regression hunting.
#[derive(Debug, Clone, Copy, Default)]
pub struct Diag {
    /// Pushes routed to the near heap.
    pub push_near: u64,
    /// Pushes routed to a calendar rung.
    pub push_rung: u64,
    /// Pushes routed to the far tier.
    pub push_far: u64,
    /// Rung-to-near refills.
    pub refills: u64,
    /// Ladder re-bases (full `far` sweeps).
    pub rebases: u64,
    /// Total keys examined by re-base sweeps.
    pub rebase_scanned: u64,
    /// Total keys moved into rungs by re-bases.
    pub rebase_moved: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with `cap` slab slots pre-allocated.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            slots: Vec::with_capacity(cap),
            free_head: u32::MAX,
            near: BinaryHeap::with_capacity(TARGET_BATCH * 2),
            rungs: (0..N_BUCKETS).map(|_| Vec::new()).collect(),
            far: Vec::with_capacity(cap),
            horizon: 0,
            base: 0,
            cursor: N_BUCKETS,
            width: INITIAL_WIDTH,
            span_last: 0,
            len: 0,
            diag: Diag::default(),
        }
    }

    /// Internal op counters since construction.
    pub fn diag(&self) -> Diag {
        self.diag
    }

    /// Snapshot of tier occupancy and window geometry:
    /// `(width, horizon, span_last, near_len, rung_len, far_len)`.
    pub fn tier_state(&self) -> (u64, u64, u64, usize, usize, usize) {
        (
            self.width,
            self.horizon,
            self.span_last,
            self.near.len(),
            self.rungs.iter().map(Vec::len).sum(),
            self.far.len(),
        )
    }

    /// Per-rung occupancy of the calendar tier, lowest rung first —
    /// the per-rung view behind engine-profile depth samples (the
    /// summed total is in [`EventQueue::tier_state`]).
    pub fn rung_lens(&self) -> Vec<usize> {
        self.rungs.iter().map(Vec::len).collect()
    }

    /// Drop every pending event and reset the ladder geometry, keeping
    /// every allocation — the slab's packet slots, the near heap's
    /// buffer, the rung vectors and the far tier are all reused by the
    /// next simulation run. This is the scenario-reset fast path: a
    /// cleared queue schedules its first post-reset events without a
    /// single new allocation. Diagnostic counters are cumulative and
    /// survive the clear.
    pub fn clear(&mut self) {
        // `Vec::clear` keeps capacity; freed `Packet` slots are reused
        // across runs exactly like they are reused across hops.
        self.slots.clear();
        self.free_head = u32::MAX;
        self.near.clear();
        for rung in &mut self.rungs {
            rung.clear();
        }
        self.far.clear();
        self.horizon = 0;
        self.base = 0;
        self.cursor = N_BUCKETS;
        self.width = INITIAL_WIDTH;
        self.span_last = 0;
        self.len = 0;
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule an event. `seq` values must be unique and increase with
    /// scheduling order (the engine's global counter guarantees both).
    pub fn push(&mut self, time: SimTime, seq: u64, target: usize, kind: EventKind) {
        // Hard assert (not debug): an index at or above TIMER_FLAG would
        // silently decode as a timer for the wrong node in release too.
        assert!(target < TIMER_FLAG as usize, "node index fits 31 bits");
        let meta = target as u32;
        let (meta, payload) = match kind {
            EventKind::Timer(tag) => (meta | TIMER_FLAG, tag),
            EventKind::Deliver(pkt) => (meta, self.alloc(pkt) as u64),
        };
        let key = Key {
            time: time.as_nanos(),
            seq,
            meta,
            payload,
        };
        self.len += 1;
        if key.time <= self.horizon {
            // Active window: O(log B) push into the small L1 heap.
            self.diag.push_near += 1;
            self.near.push(key);
        } else if key.time <= self.span_last {
            // Calendar tier: O(1) indexed append. `time > horizon`
            // guarantees the rung is at or after the cursor. The `min`
            // only binds when the span saturated at `u64::MAX`.
            let idx = (((key.time - self.base) / self.width) as usize).min(N_BUCKETS - 1);
            debug_assert!(idx >= self.cursor);
            self.diag.push_rung += 1;
            self.rungs[idx].push(key);
        } else {
            // Beyond the ladder: O(1) append, rescanned at re-base.
            self.diag.push_far += 1;
            self.far.push(key);
        }
    }

    /// Key of the next event to fire, without removing it.
    pub fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        if self.near.is_empty() {
            self.refill();
        }
        self.near
            .peek()
            .map(|k| (SimTime::from_nanos(k.time), k.seq))
    }

    /// Remove and return the earliest event (ties broken by `seq`), but
    /// only if it fires at or before `until` — the engine's fused
    /// peek-and-pop for bounded runs (one window check instead of two).
    pub fn pop_at_or_before(&mut self, until: SimTime) -> Option<Event> {
        if self.near.is_empty() {
            self.refill();
        }
        if self.near.peek()?.time > until.as_nanos() {
            return None;
        }
        self.pop_unchecked()
    }

    /// Remove and return the earliest event (ties broken by `seq`).
    pub fn pop(&mut self) -> Option<Event> {
        if self.near.is_empty() {
            self.refill();
        }
        self.pop_unchecked()
    }

    #[inline]
    fn pop_unchecked(&mut self) -> Option<Event> {
        let key = self.near.pop()?;
        self.len -= 1;
        let kind = if key.is_timer() {
            EventKind::Timer(key.payload)
        } else {
            EventKind::Deliver(self.dealloc(key.payload as u32))
        };
        Some(Event {
            time: SimTime::from_nanos(key.time),
            seq: key.seq,
            target: key.target(),
            kind,
        })
    }

    /// Pop the next event only if it is a `Deliver` at exactly `time`
    /// targeting `target` — the engine's same-instant batching probe —
    /// returning its sequence number and packet. Never refills:
    /// batching across a window boundary is legal but not worth the
    /// sweep.
    pub fn pop_deliver_if(&mut self, time: SimTime, target: usize) -> Option<(u64, Packet)> {
        let key = *self.near.peek()?;
        if key.time != time.as_nanos() || key.is_timer() || key.target() != target {
            return None;
        }
        self.near.pop();
        self.len -= 1;
        Some((key.seq, self.dealloc(key.payload as u32)))
    }

    fn alloc(&mut self, pkt: Packet) -> u32 {
        if self.free_head != u32::MAX {
            let idx = self.free_head;
            match std::mem::replace(&mut self.slots[idx as usize], Slot::Full(pkt)) {
                Slot::Free(next) => self.free_head = next,
                Slot::Full(_) => unreachable!("free list points at a full slot"),
            }
            idx
        } else {
            let idx = u32::try_from(self.slots.len()).expect("slab fits u32 indices");
            self.slots.push(Slot::Full(pkt));
            idx
        }
    }

    fn dealloc(&mut self, slot: u32) -> Packet {
        let taken = std::mem::replace(&mut self.slots[slot as usize], Slot::Free(self.free_head));
        self.free_head = slot;
        match taken {
            Slot::Full(pkt) => pkt,
            Slot::Free(_) => unreachable!("popped key points at a free slot"),
        }
    }

    /// Load the next non-empty rung into `near`, re-basing the ladder
    /// from `far` when the cycle is exhausted.
    fn refill(&mut self) {
        debug_assert!(self.near.is_empty());
        loop {
            while self.cursor < N_BUCKETS {
                let i = self.cursor;
                // The near window now covers this rung whether or not it
                // held events — later pushes inside it go to `near`.
                self.horizon = if i + 1 == N_BUCKETS {
                    self.span_last
                } else {
                    self.base
                        .saturating_add(self.width.saturating_mul(i as u64 + 1))
                        .saturating_sub(1)
                };
                if self.rungs[i].is_empty() {
                    self.cursor += 1;
                    continue;
                }
                // Reuse the near heap's buffer; O(B) heapify. A rung may
                // exceed TARGET_BATCH when events cluster at one instant
                // (no width can subdivide equal timestamps); the heap
                // absorbs that at O(log len) — still bounded by the rung's
                // time width, never the whole pending set.

                let mut buf = std::mem::take(&mut self.near).into_vec();
                buf.clear();
                buf.append(&mut self.rungs[i]);
                self.near = BinaryHeap::from(buf);
                self.cursor += 1;
                self.diag.refills += 1;
                return;
            }
            if self.far.is_empty() {
                return;
            }
            self.rebase();
        }
    }

    /// Start a new ladder cycle at the minimum pending `far` time.
    fn rebase(&mut self) {
        debug_assert!(self.cursor >= N_BUCKETS && self.near.is_empty());
        let (mut tmin, mut tmax) = (u64::MAX, 0u64);
        for k in &self.far {
            tmin = tmin.min(k.time);
            tmax = tmax.max(k.time);
        }
        // Width so a rung holds ~TARGET_BATCH events at the observed
        // density, assuming roughly even spread. Clustered regions make
        // individual rungs (and thus the near heap) larger; that costs
        // O(log cluster), never a global re-sort.
        self.width = if tmax > tmin {
            ((tmax - tmin) / (self.far.len() as u64 / TARGET_BATCH as u64 + 1)).max(1)
        } else {
            1
        };
        self.base = tmin;
        self.span_last = tmin
            .saturating_add(self.width.saturating_mul(N_BUCKETS as u64))
            .saturating_sub(1);
        self.cursor = 0;
        // `horizon` stays behind `base` until the first rung is loaded.
        self.horizon = tmin.saturating_sub(1);

        let mut moved = 0usize;
        let mut i = 0;
        while i < self.far.len() {
            let t = self.far[i].time;
            if t <= self.span_last {
                let idx = (((t - self.base) / self.width) as usize).min(N_BUCKETS - 1);
                self.rungs[idx].push(self.far.swap_remove(i));
                moved += 1;
            } else {
                i += 1;
            }
        }
        debug_assert!(moved > 0, "tmin is inside the rung span by construction");
        self.diag.rebases += 1;
        self.diag.rebase_scanned += (self.far.len() + moved) as u64;
        self.diag.rebase_moved += moved as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, PacketKind};

    fn timer_at(q: &mut EventQueue, t: u64, seq: u64, target: usize, tag: u64) {
        q.push(SimTime::from_nanos(t), seq, target, EventKind::Timer(tag));
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        timer_at(&mut q, 500, 0, 0, 10);
        timer_at(&mut q, 500, 1, 0, 11);
        timer_at(&mut q, 100, 2, 0, 12);
        timer_at(&mut q, 500, 3, 0, 13);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![2, 0, 1, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        timer_at(&mut q, 10, 0, 0, 0);
        timer_at(&mut q, 30, 1, 0, 0);
        assert_eq!(q.pop().unwrap().time.as_nanos(), 10);
        // Push into the active window after a refill happened.
        timer_at(&mut q, 20, 2, 0, 0);
        assert_eq!(q.pop().unwrap().time.as_nanos(), 20);
        assert_eq!(q.pop().unwrap().time.as_nanos(), 30);
        assert!(q.pop().is_none());
    }

    #[test]
    fn slab_reuses_slots() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            timer_at(&mut q, round, round, 0, 0);
            assert_eq!(q.pop().unwrap().seq, round);
        }
        // One live event at a time → the arena never grew past the first
        // few slots.
        assert!(q.slots.len() <= 2, "slab grew to {}", q.slots.len());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        timer_at(&mut q, 42, 7, 3, 0);
        timer_at(&mut q, 41, 8, 3, 0);
        let (t, seq) = q.peek_key().unwrap();
        let e = q.pop().unwrap();
        assert_eq!((t, seq), (e.time, e.seq));
        assert_eq!(e.time.as_nanos(), 41);
    }

    #[test]
    fn deliver_batch_probe_matches_only_same_time_and_target() {
        let mut q = EventQueue::new();
        let pkt = |id| Packet::new(id, FlowId::PADDED, PacketKind::Dummy, 1, SimTime::ZERO);
        q.push(SimTime::from_nanos(5), 0, 1, EventKind::Deliver(pkt(0)));
        q.push(SimTime::from_nanos(5), 1, 1, EventKind::Deliver(pkt(1)));
        q.push(SimTime::from_nanos(5), 2, 2, EventKind::Deliver(pkt(2)));
        q.push(SimTime::from_nanos(5), 3, 1, EventKind::Timer(0));

        let first = q.pop().unwrap();
        assert!(matches!(first.kind, EventKind::Deliver(p) if p.id == 0));
        // Same time + target + kind → batched.
        assert_eq!(
            q.pop_deliver_if(first.time, 1).map(|(seq, p)| (seq, p.id)),
            Some((1, 1))
        );
        // Next is a Deliver for a *different* target.
        assert!(q.pop_deliver_if(first.time, 1).is_none());
        assert_eq!(q.pop().unwrap().target, 2);
        // Then a Timer for target 1 — not batchable.
        assert!(q.pop_deliver_if(first.time, 1).is_none());
        assert!(matches!(q.pop().unwrap().kind, EventKind::Timer(0)));
    }

    #[test]
    fn clear_reuses_allocations_and_restores_order() {
        let mut q = EventQueue::new();
        let pkt = |id| Packet::new(id, FlowId::PADDED, PacketKind::Dummy, 1, SimTime::ZERO);
        // Populate every tier: near (after a pop), rungs, far.
        for seq in 0..4096u64 {
            let t = seq * 777_777; // spans several ladder windows
            if seq.is_multiple_of(3) {
                q.push(SimTime::from_nanos(t), seq, 0, EventKind::Deliver(pkt(seq)));
            } else {
                timer_at(&mut q, t, seq, 0, 0);
            }
        }
        q.pop().unwrap();
        let slab_cap = q.slots.capacity();
        let far_cap = q.far.capacity();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
        assert_eq!(q.slots.capacity(), slab_cap, "slab allocation retained");
        assert_eq!(q.far.capacity(), far_cap, "far allocation retained");
        // A cleared queue must order a fresh schedule exactly like a new
        // one — including times earlier than anything the first run saw.
        timer_at(&mut q, 500, 0, 0, 10);
        q.push(SimTime::from_nanos(100), 1, 0, EventKind::Deliver(pkt(99)));
        timer_at(&mut q, 500, 2, 0, 11);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![1, 0, 2]);
        assert!(q.slots.len() <= slab_cap, "packet slots reused, not grown");
    }

    #[test]
    fn wide_time_spread_still_orders() {
        // Times spanning ns to hours stress the adaptive width and
        // multiple re-base cycles.
        let mut q = EventQueue::new();
        let times: Vec<u64> = (0..2000u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) % 3_600_000_000_000)
            .collect();
        for (seq, &t) in times.iter().enumerate() {
            timer_at(&mut q, t, seq as u64, 0, 0);
        }
        let mut sorted: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(s, &t)| (t, s as u64))
            .collect();
        sorted.sort();
        let popped: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time.as_nanos(), e.seq))
            .collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn pushes_into_rungs_and_far_during_drain_stay_ordered() {
        // Steady-state shape: while draining, re-arm events one period
        // ahead (hits near, rung, and far tiers depending on phase).
        let mut q = EventQueue::new();
        let mut seq = 0u64;
        for i in 0..256u64 {
            timer_at(&mut q, 1_000 + i * 977, seq, 0, 0);
            seq += 1;
        }
        let mut last = (0u64, 0u64);
        let mut popped = 0usize;
        let total = 4096;
        while popped < total {
            let e = q.pop().unwrap();
            let key = (e.time.as_nanos(), e.seq);
            assert!(key > last, "out of order: {key:?} after {last:?}");
            last = key;
            popped += 1;
            if popped + q.len() < total {
                // Re-arm far ahead, stressing tier routing.
                timer_at(
                    &mut q,
                    e.time.as_nanos() + 1 + (e.seq % 3) * 500_000,
                    seq,
                    0,
                    0,
                );
                seq += 1;
            }
        }
    }
}

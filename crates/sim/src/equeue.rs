//! The engine's event store: one binary heap of pending events.
//!
//! Events pop in ascending `(time, seq)` order. `seq` values are unique
//! (the engine's scheduling counter), so two events never compare equal
//! and events scheduled for the same instant pop in the order they were
//! scheduled: FIFO tie-breaking, which is what makes a run bit-for-bit
//! deterministic. The property tests in `tests/determinism.rs` pin this
//! against a reference model.
//!
//! The store stays small in every scenario: a lab hop serves its cross
//! traffic in place, and an aggregate's trunk pulls its non-target
//! flows from emitters (see [`crate::trunk`]), so what waits here is the
//! target's path, a handful of timers and packets in flight.

use crate::packet::Packet;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
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

impl Event {
    #[inline]
    fn order(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.order() == other.order()
    }
}
impl Eq for Event {}

/// Reversed, so the std max-heap pops the earliest `(time, seq)` first.
impl Ord for Event {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.order().cmp(&self.order())
    }
}
impl PartialOrd for Event {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The pending events of one simulation, popped in ascending
/// `(time, seq)` order.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty queue with room for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(cap),
        }
    }

    /// Drop every pending event, keeping the allocation for the next run
    /// (the scenario-reset fast path).
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule an event. `seq` values must be unique and increase with
    /// scheduling order (the engine's global counter guarantees both).
    #[inline]
    pub fn push(&mut self, time: SimTime, seq: u64, target: usize, kind: EventKind) {
        self.heap.push(Event {
            time,
            seq,
            target,
            kind,
        });
    }

    /// Remove and return the earliest event, but only if it fires at or
    /// before `until`.
    #[inline]
    pub fn pop_at_or_before(&mut self, until: SimTime) -> Option<Event> {
        let top = self.heap.peek_mut()?;
        if top.time > until {
            return None;
        }
        Some(PeekMut::pop(top))
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn bounded_pop_takes_only_due_events() {
        let mut q = EventQueue::new();
        timer_at(&mut q, 42, 7, 3, 0);
        timer_at(&mut q, 41, 8, 3, 0);
        assert!(q.pop_at_or_before(SimTime::from_nanos(40)).is_none());
        assert_eq!(q.len(), 2);
        let e = q.pop_at_or_before(SimTime::from_nanos(41)).unwrap();
        assert_eq!((e.time.as_nanos(), e.seq), (41, 8));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn clear_keeps_the_allocation_and_restores_order() {
        let mut q = EventQueue::new();
        for seq in 0..4096u64 {
            timer_at(&mut q, seq * 777_777, seq, 0, 0);
        }
        let cap = q.heap.capacity();
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        assert_eq!(q.heap.capacity(), cap, "allocation retained");
        timer_at(&mut q, 500, 0, 0, 10);
        timer_at(&mut q, 100, 1, 0, 11);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![1, 0]);
    }
}

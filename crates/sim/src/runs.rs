//! A population's fire schedule as runs of members.
//!
//! Members `0..n` of a population (a cohort's flows, a trunk's emitters)
//! each fire at instants of their own. [`Runs`] keeps them as **runs**
//! `(instant, first, len)`: the contiguous members `first..first + len`
//! all fire next at `instant`. The runs wait in a binary heap keyed by
//! `(instant, first)`. [`Runs::fire`] fires every member due at the next
//! instant, run by run, and each fired member reports its next instant:
//! a run keeps its first members while they fire next together, the
//! other members go back as runs of their own (consecutive members that
//! fire next together as one), and a member with no next instant leaves
//! the schedule. A synchronized population is therefore one entry and
//! one heap operation per instant; desynchronized members cost one
//! `O(log n)` operation per fire.
//!
//! Order: runs are disjoint member ranges popped in `(instant, first)`
//! order, and a member always fires next strictly after the instant it
//! fired at, so members fire in `(instant, member)` order however the
//! population splits into runs.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// A population's next fire instants as runs of members (see the module
/// doc).
#[derive(Debug, Default)]
pub(crate) struct Runs {
    /// Every scheduled run.
    heap: BinaryHeap<Run>,
    /// Runs a firing run sheds, in member order: pushed once the run's
    /// own entry is back in place.
    shed: Vec<Run>,
}

/// `(instant, first member, run length)`; `Reverse` turns the std
/// max-heap into a min-heap.
type Run = Reverse<(SimTime, u32, u32)>;

impl Runs {
    /// Schedule the population afresh: member `m` fires first at the
    /// `m`-th instant of `first`, or never on `None`.
    pub(crate) fn start(&mut self, first: impl IntoIterator<Item = Option<SimTime>>) {
        let mut runs = std::mem::take(&mut self.heap).into_vec();
        runs.clear();
        for (m, at) in first.into_iter().enumerate() {
            if let Some(at) = at {
                join(&mut runs, at, m as u32);
            }
        }
        self.heap = runs.into();
    }

    /// When the next member fires, or `None` for an empty schedule.
    #[inline]
    pub(crate) fn next_fire(&self) -> Option<SimTime> {
        self.heap.peek().map(|r| r.0 .0)
    }

    /// Fire every member due at [`Runs::next_fire`], in member order:
    /// `fire(instant, member)` fires one and returns its next instant,
    /// strictly later, or `None` if the member leaves the schedule.
    #[inline]
    pub(crate) fn fire(&mut self, mut fire: impl FnMut(SimTime, u32) -> Option<SimTime>) {
        let Some(now) = self.next_fire() else {
            return;
        };
        let Self { heap, shed } = self;
        loop {
            let Some(mut top) = heap.peek_mut() else {
                break;
            };
            let Reverse((at, first, len)) = *top;
            if at > now {
                break;
            }
            // The run keeps its first `kept` members while they fire
            // next at `step`; later members go back on their own.
            let (mut step, mut kept) = (at, 0);
            for m in first..first + len {
                match fire(at, m) {
                    Some(next) if kept == m - first && (kept == 0 || next == step) => {
                        step = next;
                        kept += 1;
                    }
                    Some(next) => join(shed, next, m),
                    None => {}
                }
            }
            if kept > 0 {
                *top = Reverse((step, first, kept));
                drop(top);
            } else {
                PeekMut::pop(top);
            }
            heap.extend(shed.drain(..));
        }
    }

    /// Unschedule every member.
    pub(crate) fn clear(&mut self) {
        self.heap.clear();
    }

    /// The runs scheduled.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Append member `m`, next firing at `at`, to `runs`: it joins the last
/// run if that run ends just before `m` and fires at `at`.
#[inline]
fn join(runs: &mut Vec<Run>, at: SimTime, m: u32) {
    match runs.last_mut() {
        Some(Reverse((t, first, len))) if *t == at && *first + *len == m => *len += 1,
        _ => runs.push(Reverse((at, m, 1))),
    }
}

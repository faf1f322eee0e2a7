//! Loop hooks: the instrumentation points of the engine's one event
//! loop.
//!
//! [`Sim`] runs every event through a single generic loop core,
//! parameterised by a [`LoopHooks`] implementation. Every instrument —
//! the watchdog, the engine profile, the causal trace, node-type
//! wall-time attribution ([`crate::attr`]), or a caller's own hook — is
//! an ordinary implementation, and they compose: a pair of hooks is a
//! hook (members run in order), and `&mut H` lends one.
//!
//! The plain loop is the `()` instance: every method defaults to an
//! empty body that monomorphisation deletes, so an uninstrumented run
//! compiles to a loop with no hook code in it: zero cost when off is a
//! property of the type.
//!
//! Hooks observe; they cannot schedule. [`Dispatch`] hands them the
//! dispatched event's coordinates and the pending-event count, so a
//! hooked run dispatches exactly the events of a plain run.
//!
//! [`Sim`]: crate::engine::Sim

use crate::node::{Node, NodeId};
use crate::time::SimTime;
use linkpad_obs::trace::{TraceEventKind, TraceRecorder as CausalTrace};
use linkpad_obs::EngineProfile;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Per-dispatch instrumentation points of the event loop. Every method
/// defaults to a no-op. One loop iteration calls, in order:
///
/// 1. [`should_stop`](LoopHooks::should_stop) — `true` ends the run
///    before the next event;
/// 2. [`before_pop`](LoopHooks::before_pop) — the store is about to be
///    asked for the next due event (also called for the final probe
///    that finds none);
/// 3. [`after_pop`](LoopHooks::after_pop) — the store's part of the
///    dispatch is done (the event is popped);
/// 4. [`before_handler`](LoopHooks::before_handler) — the handler's
///    [`Context`](crate::engine::Context) is built;
/// 5. [`after_handler`](LoopHooks::after_handler) — the node handler
///    returned.
pub trait LoopHooks {
    /// Checked at the top of every iteration with the sim's total
    /// dispatched-event count; `true` ends the run there, leaving the
    /// clock at the last dispatched event instead of the run's bound.
    fn should_stop(&mut self, events: u64) -> bool {
        let _ = events;
        false
    }

    /// The store is about to be asked for the next due event.
    fn before_pop(&mut self) {}

    /// The event is popped.
    fn after_pop(&mut self) {}

    /// The handler's context is built; the node handler runs next.
    fn before_handler(&mut self) {}

    /// The node handler returned.
    fn after_handler(&mut self, dispatch: &Dispatch<'_>) {
        let _ = dispatch;
    }
}

/// One finished dispatch, as [`LoopHooks::after_handler`] sees it.
pub struct Dispatch<'a> {
    /// Sequence number of the dispatched event.
    pub seq: u64,
    /// Simulated time of the dispatch.
    pub time: SimTime,
    /// The node that handled it.
    pub target: NodeId,
    /// A timer firing (`true`) or a delivery.
    pub is_timer: bool,
    /// Sequence numbers of the events the handler scheduled. The
    /// engine's sequence counter is global and monotone, so a handler's
    /// children are exactly the range it advanced the counter over.
    pub children: Range<u64>,
    /// Events pending in the store after the handler ran.
    pub pending: usize,
    pub(crate) nodes: &'a [Box<dyn Node>],
}

impl Dispatch<'_> {
    /// The node that handled the event.
    pub fn node(&self) -> &dyn Node {
        &*self.nodes[self.target.index()]
    }
}

impl LoopHooks for () {}

impl<H: LoopHooks + ?Sized> LoopHooks for &mut H {
    fn should_stop(&mut self, events: u64) -> bool {
        (**self).should_stop(events)
    }
    fn before_pop(&mut self) {
        (**self).before_pop();
    }
    fn after_pop(&mut self) {
        (**self).after_pop();
    }
    fn before_handler(&mut self) {
        (**self).before_handler();
    }
    fn after_handler(&mut self, dispatch: &Dispatch<'_>) {
        (**self).after_handler(dispatch);
    }
}

/// Both members, first then second, at every point; the run stops when
/// either asks. Nest pairs to compose more.
impl<A: LoopHooks, B: LoopHooks> LoopHooks for (A, B) {
    fn should_stop(&mut self, events: u64) -> bool {
        self.0.should_stop(events) || self.1.should_stop(events)
    }
    fn before_pop(&mut self) {
        self.0.before_pop();
        self.1.before_pop();
    }
    fn after_pop(&mut self) {
        self.0.after_pop();
        self.1.after_pop();
    }
    fn before_handler(&mut self) {
        self.0.before_handler();
        self.1.before_handler();
    }
    fn after_handler(&mut self, dispatch: &Dispatch<'_>) {
        self.0.after_handler(dispatch);
        self.1.after_handler(dispatch);
    }
}

/// Run budget enforced inside the event loop (see
/// [`Sim::set_watchdog`](crate::engine::Sim::set_watchdog)).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Watchdog {
    max_events: Option<u64>,
    max_wall: Option<Duration>,
    deadline: Option<Instant>,
    /// Loop iterations since arming; the wall clock is read on every
    /// 1024th, keeping `Instant::now` off the per-event path.
    checks: u64,
    /// Sticky: a tripped budget stops every later run at once.
    pub(crate) tripped: bool,
}

impl Watchdog {
    pub(crate) fn new(max_events: Option<u64>, max_wall: Option<Duration>) -> Self {
        Self {
            max_events,
            max_wall,
            deadline: max_wall.map(|d| Instant::now() + d),
            checks: 0,
            tripped: false,
        }
    }

    /// Re-arm after a sim reset: the budget is configuration, the trip
    /// is runtime state, and the wall-clock deadline restarts.
    pub(crate) fn rearm(&mut self) {
        *self = Self::new(self.max_events, self.max_wall);
    }
}

impl LoopHooks for Watchdog {
    fn should_stop(&mut self, events: u64) -> bool {
        if !self.tripped {
            self.checks += 1;
            let events_over = self.max_events.is_some_and(|m| events >= m);
            let wall_over =
                self.checks & 1023 == 0 && self.deadline.is_some_and(|d| Instant::now() >= d);
            self.tripped = events_over || wall_over;
        }
        self.tripped
    }
}

/// Folds each dispatch into the profile, sampling pending depth when due.
impl LoopHooks for EngineProfile {
    fn after_handler(&mut self, d: &Dispatch<'_>) {
        if self.record_dispatch(d.is_timer) {
            self.sample_depth(d.time.as_nanos(), d.pending as u64);
        }
    }
}

/// Records each dispatch with its provenance: every event the handler
/// scheduled is born with the dispatched event as its parent.
impl LoopHooks for CausalTrace {
    fn after_handler(&mut self, d: &Dispatch<'_>) {
        let kind = if d.is_timer {
            TraceEventKind::Timer
        } else {
            TraceEventKind::Deliver
        };
        self.dispatched(d.seq, d.time.as_nanos(), d.target.index() as u32, kind);
        for child in d.children.clone() {
            self.birth(child, d.seq);
        }
    }
}

/// The instruments a [`Sim`](crate::engine::Sim) carries itself. Every
/// run attaches them while any is armed; while none is, a run pays one
/// routing branch and nothing per event.
#[derive(Default)]
pub(crate) struct Instruments {
    pub(crate) watchdog: Option<Watchdog>,
    pub(crate) profile: Option<Box<EngineProfile>>,
    pub(crate) trace: Option<Box<CausalTrace>>,
}

impl Instruments {
    pub(crate) fn armed(&self) -> bool {
        self.watchdog.is_some() || self.profile.is_some() || self.trace.is_some()
    }
}

impl LoopHooks for Instruments {
    fn should_stop(&mut self, events: u64) -> bool {
        self.watchdog
            .as_mut()
            .is_some_and(|w| w.should_stop(events))
    }
    fn after_handler(&mut self, d: &Dispatch<'_>) {
        if let Some(p) = &mut self.profile {
            p.after_handler(d);
        }
        if let Some(t) = &mut self.trace {
            t.after_handler(d);
        }
    }
}

/// Ends a run once the sim's total dispatched events reach a bound
/// ([`Sim::step`](crate::engine::Sim::step) stops after one dispatch).
pub(crate) struct StopAt(pub(crate) u64);

impl LoopHooks for StopAt {
    fn should_stop(&mut self, events: u64) -> bool {
        events >= self.0
    }
}

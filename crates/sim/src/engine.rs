//! The discrete-event engine: event store, dispatch loop, and the
//! [`Context`] handed to nodes.
//!
//! Events are processed in `(timestamp, sequence)` order; the sequence
//! number is a global monotone counter, so simultaneous events fire in
//! the order they were scheduled (FIFO tie-breaking). That rule is what
//! makes simulations bit-for-bit deterministic.
//!
//! The event store is one binary heap ([`crate::equeue`]). It stays
//! small: open-loop traffic that many flows put on a shared link is
//! drawn where it is served, by the lab router and the aggregate trunk,
//! and never waits in the store. Every popped event is one dispatch: a
//! delivery goes to [`Node::on_packet`], a timer to [`Node::on_timer`].
//!
//! There is one event loop, generic over the [`LoopHooks`] attached to
//! it. A plain run is its `()` instance; the watchdog, the engine
//! profile, the causal trace and wall-time attribution are hook
//! implementations composed onto the same loop (see [`crate::hooks`]).

use crate::equeue::{Event, EventKind, EventQueue};
use crate::hooks::{Dispatch, Instruments, LoopHooks, StopAt, Watchdog};
use crate::node::{Node, NodeId};
use crate::packet::{FlowId, Packet, PacketKind};
use crate::time::{SimDuration, SimTime};
use linkpad_obs::trace::TraceRecorder as CausalTrace;
use linkpad_obs::{EngineProfile, ProfileReport, StoreCounters, TraceReport};
use linkpad_stats::rng::{MasterSeed, Xoshiro256StarStar};

/// The store counters after `seq` scheduled events: every event takes
/// one sequence number and one push (the profile subtracts an
/// enable-time base so reports are span deltas).
fn store_counters(seq: u64) -> StoreCounters {
    StoreCounters {
        push_near: seq,
        ..StoreCounters::default()
    }
}

/// Error from [`SimBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A reserved node slot was never installed.
    MissingNode(usize),
    /// The simulation has no nodes at all.
    Empty,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::MissingNode(i) => write!(f, "reserved node slot {i} was never installed"),
            BuildError::Empty => write!(f, "simulation has no nodes"),
        }
    }
}
impl std::error::Error for BuildError {}

/// Builds a [`Sim`]: allocate node ids, wire nodes together, build.
///
/// Two construction styles are supported:
/// * downstream-first: `let sink = b.add_node(...); let router = b.add_node(Box::new(Router::new(sink, ...)));`
/// * reserve-then-install, for wiring cycles or forward references:
///   `let id = b.reserve(); ...; b.install(id, node);`
pub struct SimBuilder {
    seed: MasterSeed,
    nodes: Vec<Option<Box<dyn Node>>>,
}

impl SimBuilder {
    /// Start building with the master seed that will drive every RNG
    /// stream in the simulation.
    pub fn new(seed: MasterSeed) -> Self {
        Self {
            seed,
            nodes: Vec::new(),
        }
    }

    /// Add a node, returning its id.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        self.nodes.push(Some(node));
        NodeId(self.nodes.len() - 1)
    }

    /// Reserve an id to be installed later (forward wiring).
    pub fn reserve(&mut self) -> NodeId {
        self.nodes.push(None);
        NodeId(self.nodes.len() - 1)
    }

    /// Install a node into a reserved slot.
    ///
    /// # Panics
    /// Panics if the slot is already occupied (a wiring bug worth failing
    /// loudly on at build time).
    pub fn install(&mut self, id: NodeId, node: Box<dyn Node>) {
        let slot = &mut self.nodes[id.0];
        assert!(slot.is_none(), "node slot {} installed twice", id.0);
        *slot = Some(node);
    }

    /// Finish building. Every node receives an independent RNG substream
    /// derived from `(seed, node index)`.
    pub fn build(self) -> Result<Sim, BuildError> {
        if self.nodes.is_empty() {
            return Err(BuildError::Empty);
        }
        let mut nodes = Vec::with_capacity(self.nodes.len());
        for (i, slot) in self.nodes.into_iter().enumerate() {
            match slot {
                Some(n) => nodes.push(n),
                None => return Err(BuildError::MissingNode(i)),
            }
        }
        let rngs = (0..nodes.len())
            .map(|i| self.seed.stream(i as u64))
            .collect();
        // Pre-size the event arena: a handful of in-flight events per
        // node is typical; the arena grows on demand beyond that.
        let cap = nodes.len() * 8;
        Ok(Sim {
            core: Core {
                nodes,
                rngs,
                queue: EventQueue::with_capacity(cap),
                now: SimTime::ZERO,
                seq: 0,
                next_packet_id: 0,
                started: false,
                events_processed: 0,
            },
            instruments: Instruments::default(),
        })
    }
}

/// Statistics from a run segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Events dispatched during the segment.
    pub events: u64,
    /// Simulation clock at the end of the segment.
    pub ended_at_nanos: u64,
}

/// A single discrete-event simulation instance.
pub struct Sim {
    core: Core,
    /// Watchdog, profile and trace: attached to every run while armed.
    /// Kept apart from the loop state so a run can borrow both.
    instruments: Instruments,
}

/// The event loop's state: everything a dispatch touches.
struct Core {
    nodes: Vec<Box<dyn Node>>,
    rngs: Vec<Xoshiro256StarStar>,
    queue: EventQueue,
    now: SimTime,
    seq: u64,
    next_packet_id: u64,
    started: bool,
    events_processed: u64,
}

impl Sim {
    /// Current simulation clock.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.core.nodes.len()
    }

    /// Number of events currently pending in the event store.
    pub fn pending_events(&self) -> usize {
        self.core.queue.len()
    }

    /// Rewind the simulation to its as-built state under a (possibly
    /// new) master seed, reusing the whole topology: nodes keep their
    /// wiring and configuration but drop all runtime state
    /// ([`Node::reset`]), the event store is cleared with every
    /// allocation retained ([`EventQueue::clear`]), and each node's RNG
    /// stream is re-derived from `(seed, node index)` exactly as
    /// [`SimBuilder::build`] did.
    ///
    /// Contract: `sim.reset(s)` followed by a run is bit-identical to a
    /// fresh build with master seed `s` followed by the same run. This
    /// is the scenario-reset fast path — sweeps re-run a topology
    /// hundreds of times with per-replication seeds without paying the
    /// build cost (node boxing, arena growth, buffer warm-up) each time.
    /// Armed instruments stay armed and restart with the run: the
    /// watchdog re-arms, and a profile or trace re-zeros, so a
    /// reset-then-run report is bit-identical to a fresh-build one.
    pub fn reset(&mut self, seed: MasterSeed) {
        let core = &mut self.core;
        core.queue.clear();
        for (i, rng) in core.rngs.iter_mut().enumerate() {
            *rng = seed.stream(i as u64);
        }
        for node in &mut core.nodes {
            node.reset();
        }
        core.now = SimTime::ZERO;
        core.seq = 0;
        core.next_packet_id = 0;
        core.started = false;
        core.events_processed = 0;
        let inst = &mut self.instruments;
        if let Some(wd) = &mut inst.watchdog {
            wd.rearm();
        }
        if let Some(p) = &mut inst.profile {
            p.reset(store_counters(core.seq));
        }
        if let Some(t) = &mut inst.trace {
            t.reset();
        }
    }

    /// Enable engine self-profiling: the timer/delivery event mix, a
    /// sim-time-stamped pending-depth series, and event-store pushes
    /// over the profiled span. Profiles are a pure function of
    /// `(spec, seed)` — bit-identical across reruns and resets.
    /// Enabling on an already profiled sim restarts the profile from
    /// now.
    pub fn enable_profiling(&mut self) {
        let base = store_counters(self.core.seq);
        match &mut self.instruments.profile {
            Some(p) => p.reset(base),
            None => self.instruments.profile = Some(Box::new(EngineProfile::new(base))),
        }
    }

    /// Drop the engine profile (if any).
    pub fn disable_profiling(&mut self) {
        self.instruments.profile = None;
    }

    /// Snapshot the engine profile accumulated since
    /// [`Sim::enable_profiling`] (or the last [`Sim::reset`]), or
    /// `None` when profiling is disabled.
    pub fn profile_report(&self) -> Option<ProfileReport> {
        self.instruments
            .profile
            .as_ref()
            .map(|p| p.report(store_counters(self.core.seq)))
    }

    /// Enable causal tracing: every dispatch records `(seq, parent seq,
    /// sim time, node, kind)` into a bounded decimating ring, where the
    /// **parent** is the event whose handler scheduled this one. Traces
    /// are a pure function of `(spec, seed)`, like profiles. Enabling on
    /// an already traced sim restarts the trace from now; events
    /// scheduled before tracing was enabled are roots.
    pub fn enable_tracing(&mut self) {
        match &mut self.instruments.trace {
            Some(t) => t.reset(),
            None => {
                let labels = self
                    .core
                    .nodes
                    .iter()
                    .map(|n| n.label().to_string())
                    .collect::<Vec<_>>();
                self.instruments.trace = Some(Box::new(CausalTrace::new(labels)));
            }
        }
    }

    /// Snapshot the causal trace accumulated since
    /// [`Sim::enable_tracing`] (or the last [`Sim::reset`]), or `None`
    /// when tracing is disabled.
    pub fn trace_report(&self) -> Option<TraceReport> {
        self.instruments.trace.as_ref().map(|t| t.report())
    }

    /// Builder-style [`Sim::enable_tracing`], for construction chains.
    #[must_use]
    pub fn with_tracing(mut self) -> Self {
        self.enable_tracing();
        self
    }

    /// Arm a run budget: the event loop ends a run early — leaving a
    /// partial but internally consistent state — once `max_events`
    /// total events have been dispatched or `max_wall` wall-clock time
    /// has elapsed (measured from arming; checked every 1024 loop
    /// iterations to keep `Instant::now` off the per-event path). A
    /// tripped run sets [`Sim::watchdog_tripped`] and subsequent runs
    /// are no-ops until the budget is re-armed or the sim is
    /// [`Sim::reset`]. This is the harness's defense against runaway
    /// shard sims hanging a CI job: the caller gets back everything
    /// simulated up to the trip point and can mark the tail windows
    /// invalid instead of blocking forever.
    pub fn set_watchdog(&mut self, max_events: Option<u64>, max_wall: Option<std::time::Duration>) {
        self.instruments.watchdog = Some(Watchdog::new(max_events, max_wall));
    }

    /// Did a watchdog budget end a run early? (Sticky until the next
    /// [`Sim::reset`] or [`Sim::set_watchdog`].)
    pub fn watchdog_tripped(&self) -> bool {
        self.instruments.watchdog.is_some_and(|w| w.tripped)
    }

    /// Run until the clock reaches `until` (events at exactly `until` are
    /// processed) or the event store drains, whichever comes first. An
    /// armed watchdog budget ([`Sim::set_watchdog`]) may end the run
    /// early. Either way every node then hears [`Node::on_horizon`].
    pub fn run_until(&mut self, until: SimTime) -> RunStats {
        // An uninstrumented sim — every benchmark and the overwhelmingly
        // common case — runs the `()` instance of the loop, which holds
        // no hook code at all; the instrumented instance is outlined so
        // it never perturbs this function's codegen.
        if self.instruments.armed() {
            return self.run_until_instrumented(until);
        }
        self.core.run_loop(until, &mut ())
    }

    #[cold]
    #[inline(never)]
    fn run_until_instrumented(&mut self, until: SimTime) -> RunStats {
        self.run_until_with(until, &mut ())
    }

    /// [`Sim::run_until`] with `hooks` attached to every dispatch, ahead
    /// of the sim's own armed instruments (watchdog, profile, trace),
    /// which run on the same loop. Hooks only observe, so the run
    /// dispatches exactly the events a plain run would — unless a hook
    /// (or the watchdog) stops it early, leaving the clock at its last
    /// event.
    pub fn run_until_with<H: LoopHooks>(&mut self, until: SimTime, hooks: &mut H) -> RunStats {
        self.core
            .run_loop(until, &mut (hooks, &mut self.instruments))
    }

    /// [`Sim::run_until`] with per-node-type wall-time attribution: the
    /// sampler splits each sampled dispatch into event-store work (the
    /// pop), [`Context`] build and the node handler, and credits the
    /// phase times to the target node's type. The sampler is
    /// write-only, so the simulated results are bit-identical to a plain
    /// run; an armed watchdog, profile or trace applies as on any run.
    pub fn run_until_attributed(
        &mut self,
        until: SimTime,
        sampler: &mut crate::attr::AttributionSampler,
    ) -> RunStats {
        self.run_until_with(until, sampler)
    }

    /// Run for a span from the current clock.
    pub fn run_for(&mut self, span: SimDuration) -> RunStats {
        let until = self.core.now + span;
        self.run_until(until)
    }

    /// Process the next event — one timer firing or one delivery —
    /// through the same loop and instruments as [`Sim::run_until`].
    /// Returns `false` when nothing was dispatched: the event store is
    /// empty (or a tripped watchdog holds the sim).
    pub fn step(&mut self) -> bool {
        let one = self.core.events_processed + 1;
        self.run_until_with(SimTime::MAX, &mut StopAt(one)).events > 0
    }
}

impl Core {
    /// The one event loop. `()` hooks compile to the bare loop.
    #[inline(always)]
    fn run_loop<H: LoopHooks>(&mut self, until: SimTime, hooks: &mut H) -> RunStats {
        self.ensure_started();
        let mut events = 0u64;
        let stopped = loop {
            if hooks.should_stop(self.events_processed + events) {
                break true;
            }
            hooks.before_pop();
            let Some(entry) = self.queue.pop_at_or_before(until) else {
                break false;
            };
            self.now = entry.time;
            self.dispatch(entry, hooks);
            events += 1;
        };
        // Advance the clock to the bound even if the store drained early,
        // so consecutive run_until calls observe monotone time. A stopped
        // run keeps the clock at its last event — the simulated-up-to
        // point callers truncate partial results at.
        if !stopped && self.now < until && until != SimTime::MAX {
            self.now = until;
        }
        // Every event at or before the horizon has been dispatched: the
        // bound, or for a stopped run the instant before its last event
        // (same-instant events may remain).
        let horizon = if stopped {
            self.now.as_nanos().checked_sub(1).map(SimTime::from_nanos)
        } else {
            Some(until)
        };
        if let Some(horizon) = horizon {
            for node in &mut self.nodes {
                node.on_horizon(horizon);
            }
        }
        self.events_processed += events;
        RunStats {
            events,
            ended_at_nanos: self.now.as_nanos(),
        }
    }

    /// Dispatch one popped event to its node. Inlined into the loop:
    /// handing the popped event to an out-of-line call costs a 64-byte
    /// copy per dispatch.
    #[inline(always)]
    fn dispatch<H: LoopHooks>(&mut self, entry: Event, hooks: &mut H) {
        let target = entry.target;
        debug_assert!(target < self.nodes.len(), "event for unknown node");
        let is_timer = matches!(entry.kind, EventKind::Timer(_));
        hooks.after_pop();
        let first_child = self.seq;
        let (node, mut ctx) = self.split_at(target);
        hooks.before_handler();
        match entry.kind {
            EventKind::Timer(tag) => node.on_timer(tag, &mut ctx),
            EventKind::Deliver(pkt) => node.on_packet(pkt, &mut ctx),
        }
        hooks.after_handler(&Dispatch {
            seq: entry.seq,
            time: entry.time,
            target: NodeId(target),
            is_timer,
            children: first_child..self.seq,
            pending: self.queue.len(),
            nodes: &self.nodes,
        });
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            let (node, mut ctx) = self.split_at(i);
            node.on_start(&mut ctx);
        }
    }

    /// Split borrows: the node at `index` and a context over the rest of
    /// the engine state (queue, clock, counters, that node's RNG).
    fn split_at(&mut self, index: usize) -> (&mut Box<dyn Node>, Context<'_>) {
        let node = &mut self.nodes[index];
        let ctx = Context {
            now: self.now,
            self_id: NodeId(index),
            rng: &mut self.rngs[index],
            queue: &mut self.queue,
            seq: &mut self.seq,
            next_packet_id: &mut self.next_packet_id,
        };
        (node, ctx)
    }
}

/// The engine facilities a node may use while handling an event.
pub struct Context<'a> {
    now: SimTime,
    self_id: NodeId,
    /// The node's private RNG stream.
    pub rng: &'a mut Xoshiro256StarStar,
    queue: &'a mut EventQueue,
    seq: &'a mut u64,
    next_packet_id: &'a mut u64,
}

impl Context<'_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node handling this event.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// Deliver `packet` to `dst` after `delay`.
    pub fn send_after(&mut self, delay: SimDuration, dst: NodeId, packet: Packet) {
        let time = self.now + delay;
        let seq = *self.seq;
        *self.seq += 1;
        self.queue
            .push(time, seq, dst.0, EventKind::Deliver(packet));
    }

    /// Deliver `packet` to `dst` at the current timestamp (ordered after
    /// everything already scheduled for this instant).
    pub fn send_now(&mut self, dst: NodeId, packet: Packet) {
        self.send_after(SimDuration::ZERO, dst, packet);
    }

    /// Arm a timer on the *calling* node: `on_timer(tag)` fires after
    /// `delay`.
    pub fn schedule_timer(&mut self, delay: SimDuration, tag: u64) {
        let time = self.now + delay;
        let seq = *self.seq;
        *self.seq += 1;
        self.queue
            .push(time, seq, self.self_id.0, EventKind::Timer(tag));
    }

    /// Mint a new packet originating here and now, with a globally unique
    /// id.
    pub fn spawn_packet(&mut self, flow: FlowId, kind: PacketKind, size_bytes: u32) -> Packet {
        let id = *self.next_packet_id;
        *self.next_packet_id += 1;
        Packet::new(id, flow, kind, size_bytes, self.now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    type Log = Rc<RefCell<Vec<(u64, String)>>>;

    /// Records every (time, note) it sees into a shared log.
    struct Recorder {
        log: Log,
    }
    impl Node for Recorder {
        fn on_packet(&mut self, p: Packet, ctx: &mut Context<'_>) {
            self.log
                .borrow_mut()
                .push((ctx.now().as_nanos(), format!("pkt {}", p.id)));
        }
        fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_>) {
            self.log
                .borrow_mut()
                .push((ctx.now().as_nanos(), format!("timer {tag}")));
        }
        fn reset(&mut self) {
            self.log.borrow_mut().clear();
        }
    }

    /// Emits `count` packets to `dst` every `period` nanoseconds.
    struct Ticker {
        dst: NodeId,
        period: u64,
        count: u64,
        emitted: u64,
    }
    impl Node for Ticker {
        fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.schedule_timer(SimDuration::from_nanos(self.period), 0);
        }
        fn on_timer(&mut self, _tag: u64, ctx: &mut Context<'_>) {
            let pkt = ctx.spawn_packet(FlowId::PADDED, PacketKind::Dummy, 500);
            ctx.send_now(self.dst, pkt);
            self.emitted += 1;
            if self.emitted < self.count {
                ctx.schedule_timer(SimDuration::from_nanos(self.period), 0);
            }
        }
        fn reset(&mut self) {
            self.emitted = 0;
        }
    }

    /// Sends three deliveries to `dst` for the same instant (10 ns) and
    /// a straggler after them (20 ns), all from `on_start`.
    struct TripleSend {
        dst: NodeId,
    }
    impl Node for TripleSend {
        fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for _ in 0..3 {
                let p = ctx.spawn_packet(FlowId::PADDED, PacketKind::Dummy, 1);
                ctx.send_after(SimDuration::from_nanos(10), self.dst, p);
            }
            let p = ctx.spawn_packet(FlowId::PADDED, PacketKind::Dummy, 1);
            ctx.send_after(SimDuration::from_nanos(20), self.dst, p);
        }
    }

    /// A recorder fed by a [`TripleSend`].
    fn burst() -> (Log, Sim) {
        let mut b = SimBuilder::new(MasterSeed::new(9));
        let (log, rec) = logger();
        let dst = b.add_node(rec);
        b.add_node(Box::new(TripleSend { dst }));
        (log, b.build().unwrap())
    }

    fn logger() -> (Log, Box<Recorder>) {
        let log = Rc::new(RefCell::new(Vec::new()));
        (log.clone(), Box::new(Recorder { log }))
    }

    #[test]
    fn build_errors() {
        let b = SimBuilder::new(MasterSeed::new(1));
        assert!(matches!(b.build(), Err(BuildError::Empty)));
        let mut b = SimBuilder::new(MasterSeed::new(1));
        let _hole = b.reserve();
        assert!(matches!(b.build(), Err(BuildError::MissingNode(0))));
    }

    #[test]
    #[should_panic(expected = "installed twice")]
    fn double_install_panics() {
        let mut b = SimBuilder::new(MasterSeed::new(1));
        let (_, rec) = logger();
        let id = b.reserve();
        b.install(id, rec);
        let (_, rec2) = logger();
        b.install(id, rec2);
    }

    #[test]
    fn ticker_emits_on_schedule() {
        let mut b = SimBuilder::new(MasterSeed::new(2));
        let (log, rec) = logger();
        let dst = b.add_node(rec);
        b.add_node(Box::new(Ticker {
            dst,
            period: 1000,
            count: 5,
            emitted: 0,
        }));
        let mut sim = b.build().unwrap();
        let stats = sim.run_until(SimTime::from_nanos(10_000));
        // 5 timer fires + 5 deliveries
        assert_eq!(stats.events, 10);
        let log = log.borrow();
        let times: Vec<u64> = log.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![1000, 2000, 3000, 4000, 5000]);
    }

    #[test]
    fn events_fire_in_time_then_fifo_order() {
        let mut b = SimBuilder::new(MasterSeed::new(3));
        let (log, rec) = logger();
        let dst = b.add_node(rec);

        /// Schedules three deliveries at the same instant plus one earlier.
        struct Burst {
            dst: NodeId,
        }
        impl Node for Burst {
            fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let a = ctx.spawn_packet(FlowId::PADDED, PacketKind::Dummy, 1);
                let b_ = ctx.spawn_packet(FlowId::PADDED, PacketKind::Dummy, 1);
                let c = ctx.spawn_packet(FlowId::PADDED, PacketKind::Dummy, 1);
                let d = ctx.spawn_packet(FlowId::PADDED, PacketKind::Dummy, 1);
                ctx.send_after(SimDuration::from_nanos(500), self.dst, a); // id 0
                ctx.send_after(SimDuration::from_nanos(500), self.dst, b_); // id 1
                ctx.send_after(SimDuration::from_nanos(100), self.dst, c); // id 2, earlier
                ctx.send_after(SimDuration::from_nanos(500), self.dst, d); // id 3
            }
        }
        b.add_node(Box::new(Burst { dst }));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_nanos(1_000));
        let log = log.borrow();
        let order: Vec<String> = log.iter().map(|(_, s)| s.clone()).collect();
        assert_eq!(order, vec!["pkt 2", "pkt 0", "pkt 1", "pkt 3"]);
    }

    #[test]
    fn run_until_respects_bound_and_resumes() {
        let mut b = SimBuilder::new(MasterSeed::new(4));
        let (log, rec) = logger();
        let dst = b.add_node(rec);
        b.add_node(Box::new(Ticker {
            dst,
            period: 1000,
            count: 10,
            emitted: 0,
        }));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_nanos(3_000));
        assert_eq!(log.borrow().len(), 3);
        assert_eq!(sim.now(), SimTime::from_nanos(3_000));
        sim.run_until(SimTime::from_nanos(10_000));
        assert_eq!(log.borrow().len(), 10);
    }

    #[test]
    fn run_for_advances_relative_to_now() {
        let mut b = SimBuilder::new(MasterSeed::new(5));
        let (log, rec) = logger();
        let dst = b.add_node(rec);
        b.add_node(Box::new(Ticker {
            dst,
            period: 1000,
            count: 100,
            emitted: 0,
        }));
        let mut sim = b.build().unwrap();
        sim.run_for(SimDuration::from_nanos(2_500));
        sim.run_for(SimDuration::from_nanos(2_500));
        assert_eq!(log.borrow().len(), 5); // events at 1..5 µs
        assert_eq!(sim.now(), SimTime::from_nanos(5_000));
    }

    #[test]
    fn step_processes_one_event() {
        let mut b = SimBuilder::new(MasterSeed::new(6));
        let (log, rec) = logger();
        let dst = b.add_node(rec);
        b.add_node(Box::new(Ticker {
            dst,
            period: 10,
            count: 2,
            emitted: 0,
        }));
        let mut sim = b.build().unwrap();
        assert!(sim.step()); // timer 1
        assert!(sim.step()); // delivery 1
        assert_eq!(log.borrow().len(), 1);
        assert!(sim.step());
        assert!(sim.step());
        assert!(!sim.step(), "event store must drain");
        assert_eq!(sim.events_processed(), 4);
    }

    #[test]
    fn step_dispatches_one_of_a_same_instant_burst() {
        let (log, mut sim) = burst();
        assert!(sim.step());
        assert_eq!(*log.borrow(), vec![(10, "pkt 0".to_string())]);
        assert_eq!(sim.events_processed(), 1);
        assert_eq!(sim.pending_events(), 3, "the burst's other two wait");
        while sim.step() {}
        assert_eq!(sim.events_processed(), 4);
    }

    #[test]
    fn watchdog_event_budget_stops_inside_a_same_instant_burst() {
        let (log, mut sim) = burst();
        sim.set_watchdog(Some(2), None);
        let stats = sim.run_until(SimTime::from_nanos(100));
        assert!(sim.watchdog_tripped());
        assert_eq!(stats.events, 2, "exactly the budget");
        assert_eq!(log.borrow().len(), 2);
        assert_eq!(sim.now(), SimTime::from_nanos(10));
        assert_eq!(sim.pending_events(), 2);
    }

    #[test]
    fn watchdog_event_budget_ends_the_run_early_and_is_sticky() {
        let build = || {
            let mut b = SimBuilder::new(MasterSeed::new(8));
            let (log, rec) = logger();
            let dst = b.add_node(rec);
            b.add_node(Box::new(Ticker {
                dst,
                period: 1000,
                count: 100,
                emitted: 0,
            }));
            (log, b.build().unwrap())
        };
        let (log, mut sim) = build();
        sim.set_watchdog(Some(20), None);
        let stats = sim.run_until(SimTime::from_nanos(1_000_000));
        assert!(sim.watchdog_tripped());
        assert!(stats.events >= 20 && stats.events < 200, "{}", stats.events);
        // The clock stays at the last event, not the bound.
        assert!(sim.now() < SimTime::from_nanos(1_000_000));
        let partial = log.borrow().len();
        assert!(partial > 0 && partial < 100, "partial but non-empty");
        // Sticky: further runs make no progress until re-armed.
        let again = sim.run_until(SimTime::from_nanos(1_000_000));
        assert_eq!(again.events, 0);
        assert_eq!(log.borrow().len(), partial);
        // The partial prefix is bit-identical to an unbudgeted run's.
        let (full_log, mut full) = build();
        full.run_until(SimTime::from_nanos(1_000_000));
        assert_eq!(log.borrow()[..], full_log.borrow()[..partial]);
        // Re-arming (or reset) clears the trip and the run completes.
        sim.set_watchdog(None, None);
        sim.run_until(SimTime::from_nanos(1_000_000));
        assert_eq!(log.borrow().len(), 100);
    }

    #[test]
    fn watchdog_reset_rearms_and_replays_identically() {
        let mut b = SimBuilder::new(MasterSeed::new(9));
        let (log, rec) = logger();
        let dst = b.add_node(rec);
        b.add_node(Box::new(Ticker {
            dst,
            period: 500,
            count: 50,
            emitted: 0,
        }));
        let mut sim = b.build().unwrap();
        sim.set_watchdog(Some(10), None);
        sim.run_until(SimTime::from_nanos(100_000));
        assert!(sim.watchdog_tripped());
        sim.reset(MasterSeed::new(9));
        assert!(!sim.watchdog_tripped(), "reset re-arms the watchdog");
        log.borrow_mut().clear();
        sim.run_until(SimTime::from_nanos(100_000));
        assert!(sim.watchdog_tripped(), "budget applies again after reset");
        assert!(!log.borrow().is_empty());
    }

    #[test]
    fn zero_wall_budget_trips_without_hanging() {
        let mut b = SimBuilder::new(MasterSeed::new(10));
        let (log, rec) = logger();
        let dst = b.add_node(rec);
        b.add_node(Box::new(Ticker {
            dst,
            period: 10,
            count: 100_000,
            emitted: 0,
        }));
        let mut sim = b.build().unwrap();
        sim.set_watchdog(None, Some(std::time::Duration::ZERO));
        sim.run_until(SimTime::MAX);
        assert!(sim.watchdog_tripped());
        // The wall check runs every 1024 events, so at most a couple of
        // thousand events slip through before the trip.
        assert!(log.borrow().len() < 100_000);
    }

    #[test]
    fn packet_ids_are_unique_across_nodes() {
        let mut b = SimBuilder::new(MasterSeed::new(7));
        let (log, rec) = logger();
        let dst = b.add_node(rec);
        for _ in 0..3 {
            b.add_node(Box::new(Ticker {
                dst,
                period: 100,
                count: 5,
                emitted: 0,
            }));
        }
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_nanos(10_000));
        let log = log.borrow();
        let mut ids: Vec<&String> = log.iter().map(|(_, s)| s).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate packet id observed");
        assert_eq!(before, 15);
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        fn run(seed: u64) -> Vec<(u64, String)> {
            let mut b = SimBuilder::new(MasterSeed::new(seed));
            let (log, rec) = logger();
            let dst = b.add_node(rec);
            b.add_node(Box::new(Ticker {
                dst,
                period: 777,
                count: 50,
                emitted: 0,
            }));
            let mut sim = b.build().unwrap();
            sim.run_until(SimTime::from_nanos(100_000));
            let out = log.borrow().clone();
            out
        }
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn reset_replays_bit_identically() {
        let mut b = SimBuilder::new(MasterSeed::new(77));
        let (log, rec) = logger();
        let dst = b.add_node(rec);
        b.add_node(Box::new(Ticker {
            dst,
            period: 777,
            count: 40,
            emitted: 0,
        }));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_nanos(100_000));
        let first = log.borrow().clone();
        assert!(!first.is_empty());
        assert!(sim.events_processed() > 0);

        sim.reset(MasterSeed::new(77));
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.events_processed(), 0);
        assert_eq!(sim.pending_events(), 0);
        assert!(log.borrow().is_empty(), "Recorder::reset cleared the log");
        sim.run_until(SimTime::from_nanos(100_000));
        assert_eq!(*log.borrow(), first, "reset run must replay exactly");

        // A reset mid-run (partially drained store) also rewinds cleanly.
        sim.reset(MasterSeed::new(77));
        sim.run_until(SimTime::from_nanos(3_000));
        sim.reset(MasterSeed::new(77));
        sim.run_until(SimTime::from_nanos(100_000));
        assert_eq!(*log.borrow(), first);
    }

    #[test]
    fn profiled_run_matches_plain_run_and_profiles_replay_bit_identically() {
        let build = || {
            let mut b = SimBuilder::new(MasterSeed::new(21));
            let (log, rec) = logger();
            let dst = b.add_node(rec);
            b.add_node(Box::new(Ticker {
                dst,
                period: 700,
                count: 400,
                emitted: 0,
            }));
            (log, b.build().unwrap())
        };
        // Plain run as the behavior reference.
        let (plain_log, mut plain) = build();
        let plain_stats = plain.run_until(SimTime::from_nanos(1_000_000));
        assert!(plain.profile_report().is_none());

        // Profiled run: identical node-visible behavior, full profile.
        let (prof_log, mut prof) = build();
        prof.enable_profiling();
        let prof_stats = prof.run_until(SimTime::from_nanos(1_000_000));
        assert_eq!(prof_stats, plain_stats);
        assert_eq!(*prof_log.borrow(), *plain_log.borrow());
        let report = prof.profile_report().expect("profiling enabled");
        assert_eq!(report.events(), prof_stats.events);
        assert_eq!(report.timer_events, 400);
        assert_eq!(report.deliver_events, 400);
        // Every event scheduled in the span is one push into the heap.
        let s = report.store;
        assert!(s.push_near >= report.events());
        assert_eq!(s.push_rung + s.push_far + s.refills + s.rebases, 0);

        // Reset-and-rerun produces a bit-identical profile.
        prof.reset(MasterSeed::new(21));
        prof.run_until(SimTime::from_nanos(1_000_000));
        let replay = prof.profile_report().expect("profiling survives reset");
        assert_eq!(replay, report);

        // ...and so does a fresh build with profiling enabled.
        let (_, mut fresh) = build();
        fresh.enable_profiling();
        fresh.run_until(SimTime::from_nanos(1_000_000));
        assert_eq!(fresh.profile_report().expect("enabled"), report);

        // Disabling drops the profile and returns to the plain loop.
        fresh.disable_profiling();
        assert!(fresh.profile_report().is_none());
    }

    #[test]
    fn traced_run_matches_plain_run_and_traces_replay_bit_identically() {
        let build = || {
            let mut b = SimBuilder::new(MasterSeed::new(31));
            let (log, rec) = logger();
            let dst = b.add_node(rec);
            b.add_node(Box::new(Ticker {
                dst,
                period: 700,
                count: 400,
                emitted: 0,
            }));
            (log, b.build().unwrap())
        };
        // Plain run as the behavior reference.
        let (plain_log, mut plain) = build();
        let plain_stats = plain.run_until(SimTime::from_nanos(1_000_000));
        assert!(plain.trace_report().is_none());

        // Traced run: identical node-visible behavior, full trace.
        let (traced_log, mut traced) = build();
        traced.enable_tracing();
        let traced_stats = traced.run_until(SimTime::from_nanos(1_000_000));
        assert_eq!(
            traced_stats, plain_stats,
            "tracing must not perturb the run"
        );
        assert_eq!(*traced_log.borrow(), *plain_log.borrow());
        let report = traced.trace_report().expect("tracing enabled");
        assert_eq!(report.stride, 1, "800 dispatches fit the ring uncut");
        assert_eq!(report.dispatched, report.records.len() as u64);
        assert_eq!(report.node_labels.len(), 2);

        // Provenance is exact: the one root is the on_start timer;
        // every delivery's parent is a recorded timer at the same
        // instant (the ticker sends with send_now); every re-armed
        // timer's parent is the previous timer.
        use std::collections::BTreeMap;
        let by_seq: BTreeMap<u64, &linkpad_obs::TraceRecord> =
            report.records.iter().map(|r| (r.seq, r)).collect();
        let mut roots = 0;
        for r in &report.records {
            if r.parent == linkpad_obs::NO_PARENT {
                roots += 1;
                assert_eq!(r.kind, linkpad_obs::TraceEventKind::Timer);
                continue;
            }
            let parent = by_seq[&r.parent];
            assert_eq!(parent.kind, linkpad_obs::TraceEventKind::Timer);
            match r.kind {
                linkpad_obs::TraceEventKind::Deliver => {
                    assert_eq!(parent.sim_nanos, r.sim_nanos, "send_now child")
                }
                linkpad_obs::TraceEventKind::Timer => {
                    assert_eq!(parent.sim_nanos + 700, r.sim_nanos, "re-armed timer")
                }
            }
        }
        assert_eq!(roots, 1, "exactly one on_start root");

        // Reset-and-rerun produces a bit-identical trace.
        traced.reset(MasterSeed::new(31));
        traced.run_until(SimTime::from_nanos(1_000_000));
        assert_eq!(traced.trace_report().expect("survives reset"), report);

        // ...and so does a fresh build with tracing enabled.
        let (_, mut fresh) = build();
        fresh.enable_tracing();
        fresh.run_until(SimTime::from_nanos(1_000_000));
        assert_eq!(fresh.trace_report().expect("enabled"), report);
    }

    #[test]
    fn tracing_records_every_same_instant_delivery_with_its_own_parent() {
        // The burst goes through a tap that forwards each packet to the
        // recorder at once: every delivery is one record, and each
        // forwarded packet's parent is the delivery that sent it.
        let mut b = SimBuilder::new(MasterSeed::new(32));
        let (log, rec) = logger();
        let sink = b.add_node(rec);
        let (_, tap) = crate::tap::Tap::new(None, Some(sink));
        let dst = b.add_node(Box::new(tap));
        b.add_node(Box::new(TripleSend { dst }));
        let mut sim = b.build().unwrap().with_tracing();
        let stats = sim.run_until(SimTime::from_nanos(100));
        assert_eq!(stats.events, 8);
        assert_eq!(log.borrow().len(), 4);
        let report = sim.trace_report().expect("enabled");
        assert_eq!(report.dispatched, 8);
        let records: Vec<(u64, u64, u32)> = report
            .records
            .iter()
            .map(|r| (r.seq, r.parent, r.node))
            .collect();
        let root = linkpad_obs::NO_PARENT;
        assert_eq!(
            records,
            vec![
                (0, root, 1),
                (1, root, 1),
                (2, root, 1),
                (4, 0, 0),
                (5, 1, 0),
                (6, 2, 0),
                (3, root, 1),
                (7, 3, 0),
            ],
            "seq order within each instant, one parent per forward"
        );
    }

    #[test]
    fn step_records_into_the_trace() {
        let mut b = SimBuilder::new(MasterSeed::new(35));
        let (_, rec) = logger();
        let dst = b.add_node(rec);
        b.add_node(Box::new(Ticker {
            dst,
            period: 10,
            count: 3,
            emitted: 0,
        }));
        let mut sim = b.build().unwrap();
        sim.enable_tracing();
        while sim.step() {}
        let trace = sim.trace_report().expect("enabled");
        assert_eq!(trace.dispatched, sim.events_processed());
        // Stepped deliveries still know their scheduling timer.
        let deliver_parents: Vec<u64> = trace
            .records
            .iter()
            .filter(|r| r.kind == linkpad_obs::TraceEventKind::Deliver)
            .map(|r| r.parent)
            .collect();
        assert_eq!(deliver_parents.len(), 3);
        assert!(deliver_parents.iter().all(|&p| p != linkpad_obs::NO_PARENT));
    }

    #[test]
    fn attributed_run_matches_plain_run() {
        let build = || {
            let mut b = SimBuilder::new(MasterSeed::new(36));
            let (log, rec) = logger();
            let dst = b.add_node(rec);
            b.add_node(Box::new(Ticker {
                dst,
                period: 700,
                count: 200,
                emitted: 0,
            }));
            (log, b.build().unwrap())
        };
        let (plain_log, mut plain) = build();
        let plain_stats = plain.run_until(SimTime::from_nanos(1_000_000));
        let (attr_log, mut attr) = build();
        let mut sampler = crate::attr::AttributionSampler::new(4);
        let attr_stats = attr.run_until_attributed(SimTime::from_nanos(1_000_000), &mut sampler);
        assert_eq!(attr_stats, plain_stats, "sampler must not perturb the run");
        assert_eq!(*attr_log.borrow(), *plain_log.borrow());
        let report = sampler.report();
        assert_eq!(
            report.dispatches_seen,
            400 + 1,
            "400 dispatches + final probe"
        );
        // One in four on average: 100 expected, about 5 standard
        // deviations of slack either way.
        let samples = report.samples();
        assert!((75..=125).contains(&samples), "{samples} samples");
        // Both node labels appear (default label for both test nodes).
        assert!(!report.rows.is_empty());
        assert_eq!(
            report.rows.iter().map(|r| r.samples).sum::<u64>(),
            report.samples()
        );
    }

    #[test]
    fn instruments_compose_on_any_run() {
        let mut b = SimBuilder::new(MasterSeed::new(37));
        let (_, rec) = logger();
        let dst = b.add_node(rec);
        b.add_node(Box::new(Ticker {
            dst,
            period: 100,
            count: 1000,
            emitted: 0,
        }));
        let mut sim = b.build().unwrap();
        // Watchdog, profile and trace together on a plain run...
        sim.enable_profiling();
        sim.enable_tracing();
        sim.set_watchdog(Some(50), None);
        let stats = sim.run_until(SimTime::MAX);
        assert!(sim.watchdog_tripped());
        assert_eq!(stats.events, 50, "one event per dispatch, stopped at 50");
        let profile = sim.profile_report().expect("profile recorded");
        assert_eq!(profile.events(), stats.events);
        let trace = sim.trace_report().expect("trace recorded");
        assert_eq!(trace.dispatched, stats.events, "one record per event");
        assert_eq!(trace.records.len() as u64, stats.events);

        // ...and with an attribution sampler on top: the same run, the
        // same reports, bounded by the same watchdog.
        sim.reset(MasterSeed::new(37));
        let mut sampler = crate::attr::AttributionSampler::new(1);
        assert_eq!(sim.run_until_attributed(SimTime::MAX, &mut sampler), stats);
        assert!(
            sim.watchdog_tripped(),
            "the watchdog bounds attributed runs"
        );
        assert_eq!(sim.profile_report(), Some(profile));
        assert_eq!(sim.trace_report(), Some(trace));
        // One sample per dispatch, and no dangling probe: the watchdog
        // stops the loop before the next pop.
        let report = sampler.report();
        assert_eq!(report.samples(), stats.events);
        assert_eq!(report.dispatches_seen, stats.events);
    }

    #[test]
    fn custom_hooks_observe_every_dispatch_and_can_stop_the_run() {
        /// Counts what the loop shows it; optionally stops the run.
        struct Audit {
            stop_at: u64,
            pops: u64,
            events: u64,
            children: u64,
        }
        impl LoopHooks for Audit {
            fn should_stop(&mut self, events: u64) -> bool {
                events >= self.stop_at
            }
            fn before_pop(&mut self) {
                self.pops += 1;
            }
            fn after_handler(&mut self, d: &Dispatch<'_>) {
                assert_eq!(d.node().label(), "node");
                self.events += 1;
                self.children += d.children.end - d.children.start;
            }
        }
        let audit = |stop_at| Audit {
            stop_at,
            pops: 0,
            events: 0,
            children: 0,
        };
        let build = || {
            let mut b = SimBuilder::new(MasterSeed::new(38));
            let (log, rec) = logger();
            let dst = b.add_node(rec);
            b.add_node(Box::new(Ticker {
                dst,
                period: 700,
                count: 200,
                emitted: 0,
            }));
            (log, b.build().unwrap())
        };
        let bound = SimTime::from_nanos(1_000_000);
        let (plain_log, mut plain) = build();
        let plain_stats = plain.run_until(bound);

        let (hooked_log, mut hooked) = build();
        let mut seen = audit(u64::MAX);
        assert_eq!(hooked.run_until_with(bound, &mut seen), plain_stats);
        assert_eq!(*hooked_log.borrow(), *plain_log.borrow());
        assert_eq!(seen.events, plain_stats.events);
        assert_eq!(seen.pops, plain_stats.events + 1, "plus the final probe");
        // Every event but the on_start root was scheduled by a handler.
        assert_eq!(seen.children, plain_stats.events - 1);

        // A stopping hook leaves the clock at the last event, and the
        // run resumes exactly where it stopped.
        let (stopped_log, mut stopped) = build();
        let stats = stopped.run_until_with(bound, &mut audit(10));
        assert_eq!(stats.events, 10);
        assert_eq!(stopped.now(), SimTime::from_nanos(3_500), "5th delivery");
        stopped.run_until(bound);
        assert_eq!(*stopped_log.borrow(), *plain_log.borrow());
        assert_eq!(stopped.events_processed(), plain_stats.events);
    }

    #[test]
    fn every_node_hears_the_horizon_after_each_run_segment() {
        /// Logs the horizons it hears.
        struct Horizons(Rc<RefCell<Vec<u64>>>);
        impl Node for Horizons {
            fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
            fn on_horizon(&mut self, horizon: SimTime) {
                self.0.borrow_mut().push(horizon.as_nanos());
            }
        }
        let heard = Rc::new(RefCell::new(Vec::new()));
        let mut b = SimBuilder::new(MasterSeed::new(39));
        let dst = b.add_node(Box::new(Horizons(Rc::clone(&heard))));
        b.add_node(Box::new(Ticker {
            dst,
            period: 1000,
            count: 10,
            emitted: 0,
        }));
        let mut sim = b.build().unwrap();
        // A run to its bound hears the bound, even past the last event.
        sim.run_until(SimTime::from_nanos(2_500));
        // A stopped run hears the instant before its last event (the
        // timer at 4 µs; its delivery is still pending).
        sim.run_until_with(SimTime::from_nanos(10_000), &mut StopAt(7));
        assert_eq!(sim.now(), SimTime::from_nanos(4_000));
        // A step is a stopped run too.
        assert!(sim.step());
        // A watchdog stop, and the sticky no-op run after it.
        sim.set_watchdog(Some(10), None);
        sim.run_until(SimTime::from_nanos(10_000));
        assert_eq!(sim.now(), SimTime::from_nanos(5_000));
        sim.run_until(SimTime::from_nanos(10_000));
        // A drained run to the end of time hears `SimTime::MAX`.
        sim.set_watchdog(None, None);
        sim.run_until(SimTime::MAX);
        assert_eq!(
            *heard.borrow(),
            vec![2_500, 3_999, 3_999, 4_999, 4_999, u64::MAX]
        );
    }

    #[test]
    fn step_records_into_the_profile() {
        let mut b = SimBuilder::new(MasterSeed::new(23));
        let (_, rec) = logger();
        let dst = b.add_node(rec);
        b.add_node(Box::new(Ticker {
            dst,
            period: 10,
            count: 3,
            emitted: 0,
        }));
        let mut sim = b.build().unwrap();
        sim.enable_profiling();
        while sim.step() {}
        let report = sim.profile_report().expect("enabled");
        assert_eq!(report.events(), sim.events_processed());
        assert_eq!(report.timer_events, 3);
        assert_eq!(report.deliver_events, 3);
    }

    #[test]
    fn node_count_reported() {
        let mut b = SimBuilder::new(MasterSeed::new(8));
        let (_, rec) = logger();
        b.add_node(rec);
        let sim = b.build().unwrap();
        assert_eq!(sim.node_count(), 1);
    }

    #[test]
    fn same_instant_deliveries_are_dispatched_one_by_one() {
        /// Logs each dispatch's sequence number.
        struct Seqs(Vec<u64>);
        impl LoopHooks for Seqs {
            fn after_handler(&mut self, d: &Dispatch<'_>) {
                self.0.push(d.seq);
            }
        }
        let (log, mut sim) = burst();
        let mut seqs = Seqs(Vec::new());
        let stats = sim.run_until_with(SimTime::from_nanos(100), &mut seqs);
        assert_eq!(stats.events, 4);
        assert_eq!(seqs.0, vec![0, 1, 2, 3], "one dispatch per delivery");
        let want: Vec<(u64, String)> = [(10, 0), (10, 1), (10, 2), (20, 3)]
            .map(|(t, id)| (t, format!("pkt {id}")))
            .into();
        assert_eq!(*log.borrow(), want, "one on_packet call each, in seq order");
    }
}

//! FIFO output-queued router.
//!
//! The router is the physical origin of the paper's `δ_net` disturbance
//! (eq. 10): the padded flow shares the router's egress link with cross
//! traffic, so padded packets are delayed by the *residual service time
//! and queue backlog* left by cross-traffic packets. As the shared-link
//! utilization grows, the variance of that delay grows, `r → 1`, and the
//! detection rate falls — the mechanism behind Fig. 6 and Fig. 8.
//!
//! Model: single egress with service rate `bits_per_sec`; all arrivals
//! (any input) join one FIFO queue with an unbounded buffer; fixed egress
//! propagation delay. A FIFO work-conserving queue knows each packet's
//! departure the moment it arrives, so a hop costs one event: the arrival
//! advances `busy_until` by the packet's transmit time and sends the
//! packet on to arrive at `busy_until + propagation`. Packets waiting for
//! the wire sit in the event store, not in a node-local queue.
//!
//! A lab hop may also serve open-loop cross traffic of its own
//! ([`Router::with_cross_traffic`]), a renewal process of arrivals that
//! occupies the egress and goes nowhere. Because that traffic is
//! open-loop, the backlog a packet meets depends only on the arrivals
//! before it, so the router draws them lazily: when a packet arrives at
//! `now`, it first serves, in arrival order, every cross arrival at or
//! before `now`, then the packet. A cross arrival at exactly `now` is
//! served before the arriving packet. Cross traffic costs no events at
//! all.
//!
//! An aggregate's shared link is not a router but a
//! [`Trunk`](crate::trunk::Trunk): the same egress, with the cohorts,
//! the fault gate and the observed far end an aggregate needs.

use crate::engine::Context;
use crate::node::{Node, NodeId};
use crate::packet::Packet;
use crate::time::{SimDuration, SimTime};
use linkpad_stats::dist::ContinuousDist;
use linkpad_stats::StatsError;

/// Transmit time of `size_bytes` on an egress of `bits_per_sec`, in the
/// router's integer nanoseconds.
fn transmit_time(size_bytes: u32, bits_per_sec: f64) -> SimDuration {
    SimDuration::from_secs_f64(f64::from(size_bytes) * 8.0 / bits_per_sec)
}

/// The egress link: FIFO service at a fixed rate, then a fixed
/// propagation delay to the far end.
#[derive(Debug)]
pub(crate) struct Wire {
    bits_per_sec: f64,
    propagation: SimDuration,
    /// When the egress finishes the last packet accepted so far.
    busy_until: SimTime,
}

impl Wire {
    /// An idle egress of `bits_per_sec` with the given propagation delay.
    ///
    /// # Panics
    /// Panics on a non-positive bandwidth (topology constant).
    pub(crate) fn new(bits_per_sec: f64, propagation: SimDuration) -> Self {
        assert!(
            bits_per_sec.is_finite() && bits_per_sec > 0.0,
            "router bandwidth must be positive, got {bits_per_sec}"
        );
        Self {
            bits_per_sec,
            propagation,
            busy_until: SimTime::ZERO,
        }
    }

    /// Queue a packet of `size_bytes` arriving at `at` behind every
    /// packet accepted so far; returns the instant it reaches the far
    /// end.
    #[inline]
    pub(crate) fn accept(&mut self, at: SimTime, size_bytes: u32) -> SimTime {
        self.busy_until = self.busy_until.max(at) + transmit_time(size_bytes, self.bits_per_sec);
        self.busy_until + self.propagation
    }

    /// Forget the backlog.
    pub(crate) fn reset(&mut self) {
        self.busy_until = SimTime::ZERO;
    }
}

/// An open-loop cross-traffic process served on a router's egress.
#[derive(Debug)]
struct CrossTraffic {
    /// Inter-arrival law (seconds).
    interval: Box<dyn ContinuousDist>,
    /// Packet-size law (bytes, rounded and clamped to at least 1).
    size: Box<dyn ContinuousDist>,
    /// When the next cross packet arrives; `SimTime::MAX` until
    /// `on_start` draws the first gap.
    next_at: SimTime,
}

/// A store-and-forward router with one egress.
#[derive(Debug)]
pub struct Router {
    wire: Wire,
    next: NodeId,
    /// Cross traffic served on the egress, drawn lazily.
    cross: Option<CrossTraffic>,
    label: String,
}

impl Router {
    /// A router forwarding to `next` over an egress of `bits_per_sec`,
    /// with the given propagation delay to the next hop.
    ///
    /// # Panics
    /// Panics on a non-positive bandwidth (topology constant).
    pub fn new(next: NodeId, bits_per_sec: f64, propagation: SimDuration) -> Self {
        Self {
            wire: Wire::new(bits_per_sec, propagation),
            next,
            cross: None,
            label: "router".to_string(),
        }
    }

    /// Builder-style cross traffic: an open-loop renewal process with
    /// gaps from `interval` (seconds) and sizes from `size` (bytes,
    /// rounded and clamped to at least 1), served on the egress and then
    /// dropped. The arrivals draw from the router's own RNG stream.
    ///
    /// Rejects an interval law whose mean is not finite and positive:
    /// serving arrivals that never advance the clock would never end.
    pub fn with_cross_traffic(
        mut self,
        interval: Box<dyn ContinuousDist>,
        size: Box<dyn ContinuousDist>,
    ) -> Result<Self, StatsError> {
        let mean = interval.mean();
        if !mean.is_finite() {
            return Err(StatsError::NonFinite {
                what: "cross-traffic mean interval",
                value: mean,
            });
        }
        if mean <= 0.0 {
            return Err(StatsError::NonPositive {
                what: "cross-traffic mean interval",
                value: mean,
            });
        }
        self.cross = Some(CrossTraffic {
            interval,
            size,
            next_at: SimTime::MAX,
        });
        Ok(self)
    }

    /// Builder-style label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

impl Node for Router {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        let now = ctx.now();
        // Serve the cross arrivals at or before `now` first, in arrival
        // order, drawing in `DistSource`'s order: size, then next gap.
        if let Some(cross) = &mut self.cross {
            while cross.next_at <= now {
                let size = cross.size.sample(ctx.rng).round().max(1.0) as u32;
                self.wire.accept(cross.next_at, size);
                cross.next_at +=
                    SimDuration::from_secs_f64(cross.interval.sample(ctx.rng).max(0.0));
            }
        }
        let arrival = self.wire.accept(now, packet.size_bytes);
        ctx.send_after(arrival - now, self.next, packet);
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if let Some(cross) = &mut self.cross {
            let gap = cross.interval.sample(ctx.rng).max(0.0);
            cross.next_at = ctx.now() + SimDuration::from_secs_f64(gap);
        }
    }

    fn reset(&mut self) {
        self.wire.reset();
        if let Some(cross) = &mut self.cross {
            cross.next_at = SimTime::MAX;
        }
    }

    fn label(&self) -> &str {
        &self.label
    }
}

/// Test nodes the router's and the trunk's tests share.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::{Sim, SimBuilder};
    use crate::packet::{FlowId, PacketKind};
    use crate::tap::{Tap, TapHandle};
    use linkpad_stats::dist::{Categorical, Deterministic, Exponential, Pareto};
    use linkpad_stats::rng::{MasterSeed, Xoshiro256StarStar};
    use std::cell::{Cell, RefCell};
    use std::collections::VecDeque;
    use std::rc::Rc;

    /// Sends one packet of `flow` and `size` bytes into `dst` at each
    /// listed instant.
    struct Sender {
        dst: NodeId,
        flow: FlowId,
        size: u32,
        at_ns: Vec<u64>,
    }
    impl Node for Sender {
        fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            for &t in &self.at_ns {
                let pkt = ctx.spawn_packet(self.flow, PacketKind::Payload, self.size);
                ctx.send_after(SimDuration::from_nanos(t), self.dst, pkt);
            }
        }
    }

    /// Arrival times at the sink, in nanoseconds.
    fn arrival_ns(handle: &TapHandle) -> Vec<u64> {
        handle.timestamps().iter().map(|t| t.as_nanos()).collect()
    }

    /// Terminal node logging each arrival's instant and flow, for tests
    /// that split a sink's arrivals by flow (a [`Tap`] records instants
    /// only).
    #[derive(Clone, Default)]
    pub(crate) struct FlowLog(pub(crate) Rc<RefCell<Vec<(SimTime, FlowId)>>>);
    impl FlowLog {
        /// Arrival instants of `flow`, in order.
        fn of(&self, flow: FlowId) -> Vec<SimTime> {
            let log = self.0.borrow();
            log.iter().filter(|a| a.1 == flow).map(|a| a.0).collect()
        }
        pub(crate) fn count(&self) -> usize {
            self.0.borrow().len()
        }
    }
    impl Node for FlowLog {
        fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
            self.0.borrow_mut().push((ctx.now(), packet.flow));
        }
        fn reset(&mut self) {
            self.0.borrow_mut().clear();
        }
    }

    #[test]
    fn fifo_service_spaces_departures() {
        let mut b = SimBuilder::new(MasterSeed::new(1));
        let (handle, sink) = Tap::new(None, None);
        let sink_id = b.add_node(Box::new(sink));
        // 100 Mb/s: 500 B → 40 µs service.
        let router = Router::new(sink_id, 100e6, SimDuration::ZERO);
        assert_eq!(router.label(), "router");
        let router = router.with_label("esr-5000");
        assert_eq!(router.label(), "esr-5000");
        let r = b.add_node(Box::new(router));
        b.add_node(Box::new(Sender {
            dst: r,
            flow: FlowId::PADDED,
            size: 500,
            at_ns: vec![0; 3],
        }));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(arrival_ns(&handle), vec![40_000, 80_000, 120_000]);
        // One event per hop: three sends and three deliveries.
        assert_eq!(sim.events_processed(), 6);
    }

    #[test]
    fn propagation_adds_constant_delay() {
        let mut b = SimBuilder::new(MasterSeed::new(2));
        let (handle, sink) = Tap::new(None, None);
        let sink_id = b.add_node(Box::new(sink));
        let prop = SimDuration::from_millis_f64(5.0);
        let r = b.add_node(Box::new(Router::new(sink_id, 100e6, prop)));
        b.add_node(Box::new(Sender {
            dst: r,
            flow: FlowId::PADDED,
            size: 1000,
            at_ns: vec![0; 2],
        }));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(1.0));
        // 80 µs serialization each, then 5 ms on the wire.
        assert_eq!(arrival_ns(&handle), vec![5_080_000, 5_160_000]);
    }

    #[test]
    fn idle_router_transmits_immediately() {
        let mut b = SimBuilder::new(MasterSeed::new(3));
        let (handle, sink) = Tap::new(None, None);
        let sink_id = b.add_node(Box::new(sink));
        let r = b.add_node(Box::new(Router::new(sink_id, 1e9, SimDuration::ZERO)));
        b.add_node(Box::new(Sender {
            dst: r,
            flow: FlowId::PADDED,
            size: 125,
            at_ns: vec![1_000_000, 2_000_000],
        }));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(1.0));
        // 125 B at 1 Gb/s = 1 µs serialization; the wire idles between.
        assert_eq!(arrival_ns(&handle), vec![1_001_000, 2_001_000]);
    }

    #[test]
    fn reset_forgets_the_backlog() {
        let mut b = SimBuilder::new(MasterSeed::new(4));
        let (handle, sink) = Tap::new(None, None);
        let sink_id = b.add_node(Box::new(sink));
        let r = b.add_node(Box::new(Router::new(sink_id, 100e6, SimDuration::ZERO)));
        b.add_node(Box::new(Sender {
            dst: r,
            flow: FlowId::PADDED,
            size: 500,
            at_ns: vec![0; 3],
        }));
        let mut sim = b.build().unwrap();
        // Stop mid-backlog: the router has committed the wire to 120 µs.
        sim.run_until(SimTime::from_nanos(50_000));
        sim.reset(MasterSeed::new(4));
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(arrival_ns(&handle), vec![40_000, 80_000, 120_000]);
    }

    #[test]
    fn cross_traffic_perturbs_padded_flow_timing() {
        // A padded CBR flow shares the router with a bursty cross flow;
        // padded inter-arrival variance at the sink must exceed the
        // no-cross-traffic case. This is δ_net in miniature.
        fn piat_variance(with_cross: bool) -> f64 {
            let mut b = SimBuilder::new(MasterSeed::new(42));
            let (handle, sink) = Tap::on_padded_flow(None);
            let sink_id = b.add_node(Box::new(sink));
            let r = b.add_node(Box::new(Router::new(sink_id, 10e6, SimDuration::ZERO)));

            /// CBR source, 1 kHz, 500 B, padded flow.
            struct Cbr {
                dst: NodeId,
            }
            impl Node for Cbr {
                fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
                fn on_start(&mut self, ctx: &mut Context<'_>) {
                    ctx.schedule_timer(SimDuration::from_millis_f64(1.0), 0);
                }
                fn on_timer(&mut self, _t: u64, ctx: &mut Context<'_>) {
                    let pkt = ctx.spawn_packet(FlowId::PADDED, PacketKind::Dummy, 500);
                    ctx.send_now(self.dst, pkt);
                    ctx.schedule_timer(SimDuration::from_millis_f64(1.0), 0);
                }
            }
            /// Poisson-ish cross source using the node RNG.
            struct Cross {
                dst: NodeId,
            }
            impl Node for Cross {
                fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
                fn on_start(&mut self, ctx: &mut Context<'_>) {
                    ctx.schedule_timer(SimDuration::from_micros_f64(700.0), 0);
                }
                fn on_timer(&mut self, _t: u64, ctx: &mut Context<'_>) {
                    let pkt = ctx.spawn_packet(FlowId::CROSS, PacketKind::Cross, 1500);
                    ctx.send_now(self.dst, pkt);
                    let u = ctx.rng.next_f64();
                    let gap = -700.0 * (1.0 - u).ln();
                    ctx.schedule_timer(SimDuration::from_micros_f64(gap.max(1.0)), 0);
                }
            }
            b.add_node(Box::new(Cbr { dst: r }));
            if with_cross {
                b.add_node(Box::new(Cross { dst: r }));
            }
            let mut sim = b.build().unwrap();
            sim.run_until(SimTime::from_secs_f64(20.0));
            let times = handle.timestamps();
            let piats: Vec<f64> = times
                .windows(2)
                .map(|w| (w[1].saturating_since(w[0])).as_secs_f64())
                .collect();
            linkpad_stats::moments::sample_variance(&piats).unwrap()
        }
        let quiet = piat_variance(false);
        let noisy = piat_variance(true);
        assert!(
            noisy > quiet * 10.0,
            "cross traffic must inflate PIAT variance: quiet={quiet:e}, noisy={noisy:e}"
        );
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn bad_bandwidth_panics() {
        let _ = Router::new(NodeId(0), -1.0, SimDuration::ZERO);
    }

    #[test]
    fn cross_traffic_needs_a_finite_positive_mean_gap() {
        let router = || Router::new(NodeId(0), 1e9, SimDuration::ZERO);
        let size = || -> Box<dyn ContinuousDist> { Box::new(Deterministic::new(500.0).unwrap()) };
        let zero = Box::new(Deterministic::new(0.0).unwrap());
        assert!(matches!(
            router().with_cross_traffic(zero, size()),
            Err(StatsError::NonPositive { .. })
        ));
        // Tail index 1: the Pareto mean diverges.
        let heavy = Box::new(Pareto::new(1e-6, 1.0).unwrap());
        assert!(matches!(
            router().with_cross_traffic(heavy, size()),
            Err(StatsError::NonFinite { .. })
        ));
        let poisson = Box::new(Exponential::with_rate(1e3).unwrap());
        assert!(router().with_cross_traffic(poisson, size()).is_ok());
    }

    // ------------------------------------------------ reference model --

    /// Tie cases the reference model saw, so the equivalence test cannot
    /// pass on traffic that never exercises them.
    #[derive(Debug, Default)]
    struct Ties {
        /// Arrivals at the same instant as the previous arrival.
        same_instant: Cell<u64>,
        /// Arrivals at the instant the packet in service completes,
        /// dispatched before its completion timer.
        before_departure: Cell<u64>,
        /// Arrivals at an instant whose completion timer already fired.
        after_departure: Cell<u64>,
        /// Completion timers fired: packets routed.
        routed: Cell<u64>,
    }

    pub(crate) fn bump(c: &Cell<u64>) {
        c.set(c.get() + 1);
    }

    /// The two-event FIFO router, kept as the reference model for
    /// [`Router`]: an arrival starts service or joins a node-local
    /// FIFO, and a service-completion timer forwards the packet in
    /// service and starts the next one. Two events per hop.
    struct ServiceTimerRouter {
        next: NodeId,
        bits_per_sec: f64,
        propagation: SimDuration,
        queue: VecDeque<Packet>,
        /// The packet on the wire and the instant it completes.
        in_service: Option<(Packet, SimTime)>,
        last_arrival: Option<SimTime>,
        last_departure: Option<SimTime>,
        ties: Rc<Ties>,
    }

    impl ServiceTimerRouter {
        fn start_service(&mut self, packet: Packet, ctx: &mut Context<'_>) {
            let tx = SimDuration::from_secs_f64(packet.tx_time_secs(self.bits_per_sec));
            self.in_service = Some((packet, ctx.now() + tx));
            ctx.schedule_timer(tx, 0);
        }
    }

    impl Node for ServiceTimerRouter {
        fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
            let now = ctx.now();
            if self.last_arrival == Some(now) {
                bump(&self.ties.same_instant);
            }
            if matches!(self.in_service, Some((_, done)) if done == now) {
                bump(&self.ties.before_departure);
            }
            if self.last_departure == Some(now) {
                bump(&self.ties.after_departure);
            }
            self.last_arrival = Some(now);
            if self.in_service.is_none() {
                self.start_service(packet, ctx);
            } else {
                self.queue.push_back(packet);
            }
        }

        fn on_timer(&mut self, _tag: u64, ctx: &mut Context<'_>) {
            let (packet, _) = self.in_service.take().expect("a packet in service");
            bump(&self.ties.routed);
            self.last_departure = Some(ctx.now());
            ctx.send_after(self.propagation, self.next, packet);
            if let Some(next) = self.queue.pop_front() {
                self.start_service(next, ctx);
            }
        }
    }

    /// Emits `count` packets of one flow, drawing each packet's size
    /// and its gap to the next from the given lists. The packet is
    /// scheduled one gap ahead (`send_after`), so at a shared instant its
    /// delivery can sort before or after a router's completion timer.
    pub(crate) struct GridSource {
        pub(crate) dst: NodeId,
        pub(crate) flow: FlowId,
        pub(crate) sizes: &'static [u32],
        pub(crate) gaps_us: &'static [u64],
        pub(crate) count: u32,
        pub(crate) sent: u32,
    }

    fn pick<T: Copy>(ctx: &mut Context<'_>, from: &[T]) -> T {
        from[(ctx.rng.next_f64() * from.len() as f64) as usize]
    }

    impl GridSource {
        fn emit(&mut self, ctx: &mut Context<'_>) {
            if self.sent == self.count {
                return;
            }
            self.sent += 1;
            let size = pick(ctx, self.sizes);
            let gap = SimDuration::from_nanos(1_000 * pick(ctx, self.gaps_us));
            let pkt = ctx.spawn_packet(self.flow, PacketKind::Payload, size);
            ctx.send_after(gap, self.dst, pkt);
            ctx.schedule_timer(gap, 0);
        }
    }

    impl Node for GridSource {
        fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.emit(ctx);
        }
        fn on_timer(&mut self, _tag: u64, ctx: &mut Context<'_>) {
            self.emit(ctx);
        }
        fn reset(&mut self) {
            self.sent = 0;
        }
    }

    /// A padded CBR flow and a cross flow through one 8 Mb/s egress, run
    /// until every packet has drained. Every gap is a whole number of
    /// microseconds and a byte takes 1 µs on the wire, so arrivals and
    /// departures share one grid and tie exactly.
    fn run_grid(reference: Option<Rc<Ties>>) -> (Sim, FlowLog) {
        const BPS: f64 = 8e6;
        let prop = SimDuration::from_nanos(3_000);
        let mut b = SimBuilder::new(MasterSeed::new(15));
        let handle = FlowLog::default();
        let sink_id = b.add_node(Box::new(handle.clone()));
        let router = match reference {
            Some(ties) => b.add_node(Box::new(ServiceTimerRouter {
                next: sink_id,
                bits_per_sec: BPS,
                propagation: prop,
                queue: VecDeque::new(),
                in_service: None,
                last_arrival: None,
                last_departure: None,
                ties,
            })),
            None => b.add_node(Box::new(Router::new(sink_id, BPS, prop))),
        };
        b.add_node(Box::new(GridSource {
            dst: router,
            flow: FlowId::PADDED,
            sizes: &[500],
            gaps_us: &[2_000],
            count: 1_000,
            sent: 0,
        }));
        b.add_node(Box::new(GridSource {
            dst: router,
            flow: FlowId::CROSS,
            sizes: &[64, 550, 1500],
            gaps_us: &[0, 100, 550, 1_000, 1_500, 2_000, 2_500, 4_000],
            count: 1_400,
            sent: 0,
        }));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::MAX);
        assert_eq!(sim.pending_events(), 0, "every packet drained");
        (sim, handle)
    }

    #[test]
    fn departures_at_arrival_match_the_service_timer_reference() {
        let ties = Rc::new(Ties::default());
        let (reference, ref_sink) = run_grid(Some(Rc::clone(&ties)));
        let (sim, sink) = run_grid(None);

        for flow in [FlowId::PADDED, FlowId::CROSS] {
            assert_eq!(
                sink.of(flow),
                ref_sink.of(flow),
                "{flow:?}: sink arrivals differ from the reference model"
            );
        }
        let routed = ties.routed.get();
        assert_eq!(routed, 2_400);
        assert_eq!(sink.count() as u64, routed);
        assert_eq!(
            reference.events_processed() - sim.events_processed(),
            routed,
            "one completion timer per routed packet is the only difference"
        );
        // The traffic must exercise every tie the FIFO order rests on.
        for (what, n) in [
            ("same-instant arrivals", ties.same_instant.get()),
            (
                "arrivals before a same-instant completion",
                ties.before_departure.get(),
            ),
            (
                "arrivals after a same-instant completion",
                ties.after_departure.get(),
            ),
        ] {
            assert!(n > 0, "the traffic produced no {what}");
        }
    }

    // --------------------------------------------- lazy cross traffic --

    /// Cross-traffic gaps of the grid runs, in microseconds: whole
    /// microseconds and never zero, so a cross packet scheduled one gap
    /// ahead is always scheduled before the instant it arrives.
    const CROSS_GAPS_US: [f64; 6] = [100.0, 550.0, 1_000.0, 1_500.0, 2_500.0, 4_000.0];
    /// Padded packets of the grid runs, one every 2 ms.
    const PADDED: u64 = 1_000;
    const PADDED_PERIOD_NS: u64 = 2_000_000;

    fn grid_gaps() -> Box<dyn ContinuousDist> {
        let pairs: Vec<(f64, f64)> = CROSS_GAPS_US.iter().map(|&us| (us * 1e-6, 1.0)).collect();
        Box::new(Categorical::new(&pairs).unwrap())
    }

    fn grid_sizes() -> Box<dyn ContinuousDist> {
        Box::new(Categorical::new(&[(64.0, 1.0), (550.0, 1.0), (1500.0, 1.0)]).unwrap())
    }

    /// Sends `remaining` 500 B padded packets, one per `period`, each
    /// from a timer at the instant it arrives.
    struct Metronome {
        dst: NodeId,
        period: SimDuration,
        remaining: u64,
    }

    impl Node for Metronome {
        fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.schedule_timer(self.period, 0);
        }
        fn on_timer(&mut self, _tag: u64, ctx: &mut Context<'_>) {
            let pkt = ctx.spawn_packet(FlowId::PADDED, PacketKind::Dummy, 500);
            ctx.send_now(self.dst, pkt);
            self.remaining -= 1;
            if self.remaining > 0 {
                ctx.schedule_timer(self.period, 0);
            }
        }
    }

    /// The per-packet wiring of [`Router::with_cross_traffic`]: replays
    /// the lazy router's draws, in its order, from a clone of its RNG
    /// stream, and schedules each cross packet one gap ahead. A cross
    /// delivery is therefore always scheduled before a padded packet
    /// sent at the instant it arrives, and a plain router serves it
    /// first: the lazy router's tie rule.
    struct EagerCross {
        dst: NodeId,
        rng: Xoshiro256StarStar,
        interval: Box<dyn ContinuousDist>,
        size: Box<dyn ContinuousDist>,
        /// No cross packet arrives after this instant.
        until: SimTime,
        /// Arrival instants of the cross packets sent, in order.
        sent: Rc<RefCell<Vec<SimTime>>>,
    }

    impl EagerCross {
        fn emit(&mut self, ctx: &mut Context<'_>) {
            let gap = SimDuration::from_secs_f64(self.interval.sample(&mut self.rng).max(0.0));
            if ctx.now() + gap > self.until {
                return;
            }
            let size = self.size.sample(&mut self.rng).round().max(1.0) as u32;
            let pkt = ctx.spawn_packet(FlowId::CROSS, PacketKind::Cross, size);
            ctx.send_after(gap, self.dst, pkt);
            ctx.schedule_timer(gap, 0);
            self.sent.borrow_mut().push(ctx.now() + gap);
        }
    }

    impl Node for EagerCross {
        fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.emit(ctx);
        }
        fn on_timer(&mut self, _tag: u64, ctx: &mut Context<'_>) {
            self.emit(ctx);
        }
    }

    /// A padded metronome and grid cross traffic through one 8 Mb/s
    /// egress, run until every packet has drained: on the lazy router
    /// when `eager` is `None`, else on a plain router fed by an
    /// [`EagerCross`] that logs into `eager`. A byte takes 1 µs on the
    /// wire and every gap is whole microseconds, so cross and padded
    /// arrivals tie exactly.
    fn run_cross_grid(eager: Option<Rc<RefCell<Vec<SimTime>>>>) -> (Sim, FlowLog) {
        const SEED: u64 = 16;
        const BPS: f64 = 8e6;
        let mut b = SimBuilder::new(MasterSeed::new(SEED));
        let handle = FlowLog::default();
        let sink_id = b.add_node(Box::new(handle.clone()));
        let router = Router::new(sink_id, BPS, SimDuration::from_nanos(3_000));
        let router_id = match eager {
            Some(_) => b.add_node(Box::new(router)),
            None => b.add_node(Box::new(
                router
                    .with_cross_traffic(grid_gaps(), grid_sizes())
                    .unwrap(),
            )),
        };
        b.add_node(Box::new(Metronome {
            dst: router_id,
            period: SimDuration::from_nanos(PADDED_PERIOD_NS),
            remaining: PADDED,
        }));
        if let Some(sent) = eager {
            b.add_node(Box::new(EagerCross {
                dst: router_id,
                rng: MasterSeed::new(SEED).stream(router_id.index() as u64),
                interval: grid_gaps(),
                size: grid_sizes(),
                until: SimTime::from_nanos(PADDED * PADDED_PERIOD_NS),
                sent,
            }));
        }
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::MAX);
        assert_eq!(sim.pending_events(), 0, "every packet drained");
        (sim, handle)
    }

    #[test]
    fn lazy_cross_traffic_matches_an_eager_source_on_the_same_draws() {
        let sent = Rc::new(RefCell::new(Vec::new()));
        let (reference, ref_sink) = run_cross_grid(Some(Rc::clone(&sent)));
        let (lazy, sink) = run_cross_grid(None);

        let padded = sink.of(FlowId::PADDED);
        assert_eq!(padded.len() as u64, PADDED);
        assert_eq!(
            padded,
            ref_sink.of(FlowId::PADDED),
            "padded departures differ from the eager wiring"
        );
        assert_eq!(sink.count() as u64, PADDED, "cross traffic goes nowhere");

        // A tie is a cross arrival at a padded instant. Each flow leaves
        // in FIFO order, so the eager wiring's j-th cross departure is
        // its j-th cross arrival, and likewise for the padded flow.
        let sent = sent.borrow();
        let cross_out = ref_sink.of(FlowId::CROSS);
        assert_eq!(cross_out.len(), sent.len());
        let mut ties = 0;
        for (j, t) in sent.iter().enumerate() {
            let ns = t.as_nanos();
            if ns % PADDED_PERIOD_NS == 0 {
                let k = (ns / PADDED_PERIOD_NS - 1) as usize;
                assert!(
                    cross_out[j] < padded[k],
                    "tie at {ns} ns served padded-first"
                );
                ties += 1;
            }
        }
        assert!(ties > 0, "the traffic produced no cross/padded ties");
        // Each cross packet cost the eager wiring a source timer, a
        // router delivery and a sink delivery, and the lazy router none.
        assert_eq!(
            reference.events_processed() - lazy.events_processed(),
            3 * sent.len() as u64
        );
    }
}

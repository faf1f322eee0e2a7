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
//! A router may also end one *exit flow* at its egress
//! ([`Router::with_exit_flow`]): such a packet occupies the wire like any
//! other and is then dropped instead of sent on. The lab ends cross
//! traffic this way, since nothing downstream of its hop reads it.

use crate::engine::Context;
use crate::node::{Node, NodeId};
use crate::packet::{FlowId, Packet};
use crate::time::{SimDuration, SimTime};

/// A store-and-forward router with one egress.
#[derive(Debug)]
pub struct Router {
    next: NodeId,
    bits_per_sec: f64,
    propagation: SimDuration,
    /// When the egress finishes the last packet accepted so far.
    busy_until: SimTime,
    /// Packets of this flow end at the egress instead of reaching `next`.
    exit: Option<FlowId>,
    label: String,
}

impl Router {
    /// A router forwarding to `next` over an egress of `bits_per_sec`,
    /// with the given propagation delay to the next hop.
    ///
    /// # Panics
    /// Panics on a non-positive bandwidth (topology constant).
    pub fn new(next: NodeId, bits_per_sec: f64, propagation: SimDuration) -> Self {
        assert!(
            bits_per_sec.is_finite() && bits_per_sec > 0.0,
            "router bandwidth must be positive, got {bits_per_sec}"
        );
        Self {
            next,
            bits_per_sec,
            propagation,
            busy_until: SimTime::ZERO,
            exit: None,
            label: "router".to_string(),
        }
    }

    /// Builder-style exit flow: packets of `flow` still occupy the
    /// egress for their transmit time, and are then dropped instead of
    /// sent to the next hop.
    pub fn with_exit_flow(mut self, flow: FlowId) -> Self {
        self.exit = Some(flow);
        self
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
        let tx = SimDuration::from_secs_f64(packet.tx_time_secs(self.bits_per_sec));
        self.busy_until = self.busy_until.max(now) + tx;
        if self.exit == Some(packet.flow) {
            return;
        }
        ctx.send_after(
            (self.busy_until + self.propagation) - now,
            self.next,
            packet,
        );
    }

    fn reset(&mut self) {
        self.busy_until = SimTime::ZERO;
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Sim, SimBuilder};
    use crate::packet::{FlowId, PacketKind};
    use crate::sink::{Sink, SinkHandle};
    use linkpad_stats::rng::MasterSeed;
    use std::cell::Cell;
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
    fn arrival_ns(handle: &SinkHandle) -> Vec<u64> {
        handle
            .arrival_times()
            .iter()
            .map(|t| t.as_nanos())
            .collect()
    }

    #[test]
    fn fifo_service_spaces_departures() {
        let mut b = SimBuilder::new(MasterSeed::new(1));
        let (handle, sink) = Sink::new();
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
        let (handle, sink) = Sink::new();
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
        let (handle, sink) = Sink::new();
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
        let (handle, sink) = Sink::new();
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
    fn exit_flow_holds_the_wire_then_ends() {
        let mut b = SimBuilder::new(MasterSeed::new(5));
        let (handle, sink) = Sink::new();
        let sink_id = b.add_node(Box::new(sink));
        let router = Router::new(sink_id, 100e6, SimDuration::ZERO).with_exit_flow(FlowId::CROSS);
        let r = b.add_node(Box::new(router));
        for flow in [FlowId::CROSS, FlowId::PADDED] {
            b.add_node(Box::new(Sender {
                dst: r,
                flow,
                size: 500,
                at_ns: vec![0],
            }));
        }
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(1.0));
        // The padded packet waits out the cross packet's 40 µs on the
        // wire, and only it reaches the sink.
        assert_eq!(arrival_ns(&handle), vec![80_000]);
        assert_eq!(handle.arrival_times_for_flow(FlowId::CROSS), vec![]);
        // Two sends into the router, one delivery out of it.
        assert_eq!(sim.events_processed(), 3);
    }

    #[test]
    fn cross_traffic_perturbs_padded_flow_timing() {
        // A padded CBR flow shares the router with a bursty cross flow;
        // padded inter-arrival variance at the sink must exceed the
        // no-cross-traffic case. This is δ_net in miniature.
        fn piat_variance(with_cross: bool) -> f64 {
            let mut b = SimBuilder::new(MasterSeed::new(42));
            let (handle, sink) = Sink::new();
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
            let times = handle.arrival_times_for_flow(FlowId::PADDED);
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

    fn bump(c: &Cell<u64>) {
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

    /// Emits `remaining` packets of one flow, drawing each packet's size
    /// and its gap to the next from the given lists. The packet is
    /// scheduled one gap ahead (`send_after`), so at a shared instant its
    /// delivery can sort before or after a router's completion timer.
    struct GridSource {
        dst: NodeId,
        flow: FlowId,
        sizes: &'static [u32],
        gaps_us: &'static [u64],
        remaining: u32,
    }

    fn pick<T: Copy>(ctx: &mut Context<'_>, from: &[T]) -> T {
        from[(ctx.rng.next_f64() * from.len() as f64) as usize]
    }

    impl GridSource {
        fn emit(&mut self, ctx: &mut Context<'_>) {
            if self.remaining == 0 {
                return;
            }
            self.remaining -= 1;
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
    }

    /// A padded CBR flow and a cross flow through one 8 Mb/s egress, run
    /// until every packet has drained. Every gap is a whole number of
    /// microseconds and a byte takes 1 µs on the wire, so arrivals and
    /// departures share one grid and tie exactly.
    fn run_grid(reference: Option<Rc<Ties>>) -> (Sim, SinkHandle) {
        const BPS: f64 = 8e6;
        let prop = SimDuration::from_nanos(3_000);
        let mut b = SimBuilder::new(MasterSeed::new(15));
        let (handle, sink) = Sink::new();
        let sink_id = b.add_node(Box::new(sink));
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
            remaining: 1_000,
        }));
        b.add_node(Box::new(GridSource {
            dst: router,
            flow: FlowId::CROSS,
            sizes: &[64, 550, 1500],
            gaps_us: &[0, 100, 550, 1_000, 1_500, 2_000, 2_500, 4_000],
            remaining: 1_400,
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
                sink.arrival_times_for_flow(flow),
                ref_sink.arrival_times_for_flow(flow),
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
}

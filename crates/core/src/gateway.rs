//! The security gateways GW1 (sender) and GW2 (receiver).
//!
//! Paper §3.2: *"(a) On GW1, incoming payload packets from the sender are
//! placed in a queue. (b) An interrupt-driven timer is set up on GW1.
//! When the timer times out, the interrupt processing routine checks if
//! there is a payload packet in the queue: (1) If there are payload
//! packets, one is removed from the queue and transmitted to GW2;
//! (2) Otherwise, a dummy packet is transmitted to GW2."*
//!
//! [`SenderGateway`] implements that algorithm on top of a
//! [`LinkSchedule`] — a stateless [`PaddingSchedule`](crate::schedule::PaddingSchedule) law (CIT/VIT/
//! constant-rate) or the stateful adaptive-padding machine — and a
//! [`GatewayJitterModel`] (δ_gw). The timer can run in two disciplines:
//!
//! * [`TimerDiscipline::Absolute`] — a periodic interrupt: tick *i* fires
//!   at the nominal instant `Σ T_j`; jitter shifts only the transmission.
//!   PIAT mean is exactly τ for every payload rate (the paper's empirical
//!   observation that the two PIAT distributions share a mean), and PIAT
//!   variance is `σ_T² + 2·Var(δ)`.
//! * [`TimerDiscipline::Relative`] — the timer re-arms after each send,
//!   so blocking delays accumulate into the period and the *mean* PIAT
//!   grows with the payload rate. This is a deliberately flawed variant
//!   kept for the ablation bench: it demonstrates why implementation
//!   details below the model can re-open a side channel the model says is
//!   closed (sample mean becomes a working feature).
//!
//! [`ReceiverGateway`] strips dummies and delivers payload to the
//! protected subnet, completing the end-to-end QoS measurement.

use crate::jitter::GatewayJitterModel;
use crate::schedule::LinkSchedule;
use linkpad_sim::engine::Context;
use linkpad_sim::node::{Node, NodeId};
use linkpad_sim::packet::{FlowId, Packet, PacketKind};
use linkpad_sim::time::{SimDuration, SimTime};
use linkpad_stats::dist::ContinuousDist;
use linkpad_stats::moments::RunningMoments;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Timer re-arming policy of the sender gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerDiscipline {
    /// Periodic interrupt at nominal instants (TimeSys-style RT timer).
    Absolute,
    /// Re-arm relative to the previous (jittered) send — flawed, ablation.
    Relative,
}

const TICK: u64 = 0;

#[derive(Debug, Default)]
struct GatewayStats {
    ticks: u64,
    payload_sent: u64,
    dummy_sent: u64,
    payload_dropped: u64,
    max_queue_len: usize,
    queue_wait: RunningMoments,
    tick_delay: RunningMoments,
}

/// Read handle for sender-gateway instrumentation. Simulations are
/// single-threaded, so stats are shared over `Rc<RefCell<_>>` — plain
/// owned state, no lock or atomic on the per-tick/per-packet path.
#[derive(Debug, Clone)]
pub struct GatewayHandle {
    stats: Rc<RefCell<GatewayStats>>,
}

impl GatewayHandle {
    /// Timer ticks fired so far.
    pub fn ticks(&self) -> u64 {
        self.stats.borrow().ticks
    }
    /// Payload packets transmitted.
    pub fn payload_sent(&self) -> u64 {
        self.stats.borrow().payload_sent
    }
    /// Dummy packets transmitted.
    pub fn dummy_sent(&self) -> u64 {
        self.stats.borrow().dummy_sent
    }
    /// Payload packets dropped at a full gateway queue.
    pub fn payload_dropped(&self) -> u64 {
        self.stats.borrow().payload_dropped
    }
    /// Largest queue backlog observed.
    pub fn max_queue_len(&self) -> usize {
        self.stats.borrow().max_queue_len
    }
    /// Moments of payload queueing delay inside the gateway (seconds) —
    /// the QoS cost of padding.
    pub fn queue_wait_moments(&self) -> RunningMoments {
        self.stats.borrow().queue_wait
    }
    /// Moments of the per-tick disturbance δ_gw actually applied
    /// (seconds) — an oracle view used by calibration tests, *not*
    /// available to the adversary.
    pub fn tick_delay_moments(&self) -> RunningMoments {
        self.stats.borrow().tick_delay
    }
}

/// The sender gateway GW1.
pub struct SenderGateway {
    schedule: LinkSchedule,
    jitter: GatewayJitterModel,
    discipline: TimerDiscipline,
    next: NodeId,
    /// Flow identity of the padded stream this gateway emits. Defaults
    /// to [`FlowId::PADDED`]; aggregate scenarios give each non-target
    /// gateway its own flow, which the trunk observer ends once
    /// recorded.
    flow: FlowId,
    /// Constant on-the-wire size of every padded packet (threat model
    /// remark 3: all packets look identical).
    packet_size: u32,
    /// Wire-size law for variable-payload defences: when set, each
    /// emission samples its on-the-wire size (floored to whole bytes,
    /// min 1) instead of using the constant `packet_size`. Deterministic
    /// laws (fixed, MTU-padded) make zero RNG draws.
    size_law: Option<Box<dyn ContinuousDist>>,
    /// Clock start offset: the first timer interval is measured from
    /// `start_phase` instead of simulation time zero, so the tick grid
    /// sits at `start_phase + Σ Tⱼ`. Desynchronized gateway deployments
    /// (ROADMAP: staggered padding clocks) differ only in this phase.
    start_phase: SimDuration,
    /// Optional bound on the payload queue (failure injection / memory
    /// safety in long runs). `None` = unbounded.
    queue_capacity: Option<usize>,
    queue: VecDeque<Packet>,
    arrivals_since_tick: u32,
    stats: Rc<RefCell<GatewayStats>>,
    label: String,
}

impl SenderGateway {
    /// Build GW1 sending padded traffic to `next`. Accepts a
    /// [`PaddingSchedule`](crate::schedule::PaddingSchedule) law or a
    /// full [`LinkSchedule`] (e.g. an adaptive-padding machine) via
    /// `Into`.
    pub fn new(
        next: NodeId,
        schedule: impl Into<LinkSchedule>,
        jitter: GatewayJitterModel,
        packet_size: u32,
    ) -> (GatewayHandle, Self) {
        let stats = Rc::new(RefCell::new(GatewayStats::default()));
        (
            GatewayHandle {
                stats: Rc::clone(&stats),
            },
            Self {
                schedule: schedule.into(),
                jitter,
                discipline: TimerDiscipline::Absolute,
                next,
                flow: FlowId::PADDED,
                packet_size,
                size_law: None,
                start_phase: SimDuration::ZERO,
                queue_capacity: None,
                queue: VecDeque::new(),
                arrivals_since_tick: 0,
                stats,
                label: "gw1".to_string(),
            },
        )
    }

    /// Select the timer discipline (default [`TimerDiscipline::Absolute`]).
    pub fn with_discipline(mut self, discipline: TimerDiscipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// Emit the padded stream under a specific flow id (default
    /// [`FlowId::PADDED`]) — used by aggregate many-gateway scenarios.
    pub fn with_flow(mut self, flow: FlowId) -> Self {
        self.flow = flow;
        self
    }

    /// Start the padding clock at an offset: every tick's nominal
    /// instant shifts by exactly `phase` (first tick at `phase + T₁`
    /// instead of `T₁`). The desynchronized-clock knob — aggregate
    /// scenarios give each gateway its own phase so padding clocks stop
    /// sharing one τ grid. Default [`SimDuration::ZERO`] (the historical
    /// synchronized behavior).
    pub fn with_start_phase(mut self, phase: SimDuration) -> Self {
        self.start_phase = phase;
        self
    }

    /// Bound the payload queue; arrivals beyond it are dropped (counted).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity);
        self
    }

    /// Builder-style label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// The configured schedule.
    pub fn schedule(&self) -> &LinkSchedule {
        &self.schedule
    }

    /// Install a wire-size law for variable-payload defences (default:
    /// every packet is exactly `packet_size`).
    pub fn with_packet_size_law(mut self, law: Box<dyn ContinuousDist>) -> Self {
        self.size_law = Some(law);
        self
    }

    /// Wire size of the next emission (a draw under a size law, else
    /// the constant configured size).
    #[inline]
    fn sample_size(
        size_law: &Option<Box<dyn ContinuousDist>>,
        packet_size: u32,
        ctx: &mut Context<'_>,
    ) -> u32 {
        match size_law {
            Some(law) => law.sample(ctx.rng).floor().max(1.0) as u32,
            None => packet_size,
        }
    }

    fn emit(&mut self, ctx: &mut Context<'_>) {
        let mut st = self.stats.borrow_mut();
        st.ticks += 1;

        // δ_gw for this tick: driven by payload arrivals during the
        // period just ended (NIC interrupts blocking the timer interrupt).
        let delay = self
            .jitter
            .sample_tick_delay(self.arrivals_since_tick, ctx.rng);
        self.arrivals_since_tick = 0;
        st.tick_delay.push(delay);

        // Fixed pipeline offset keeps the (possibly negative) zero-mean
        // jitter causal; being constant, it shifts every timestamp equally
        // and is invisible in inter-arrival times.
        let send_delay = (self.jitter.pipeline_offset() + delay).max(0.0);

        // Per-emission draw order: tick δ (above), wire size, next
        // interval (below) — documented so determinism tests can reason
        // about the RNG stream.
        let size = Self::sample_size(&self.size_law, self.packet_size, ctx);
        let out = if let Some(payload) = self.queue.pop_front() {
            st.payload_sent += 1;
            st.queue_wait
                .push(ctx.now().saturating_since(payload.enqueued).as_secs_f64());
            let mut p = ctx.spawn_packet(self.flow, PacketKind::Payload, size);
            // Preserve when the payload entered the gateway so the far
            // sink can measure end-to-end padding delay.
            p.enqueued = payload.enqueued;
            p
        } else {
            st.dummy_sent += 1;
            ctx.spawn_packet(self.flow, PacketKind::Dummy, size)
        };
        drop(st);

        ctx.send_after(SimDuration::from_secs_f64(send_delay), self.next, out);

        // Arm the next tick.
        let interval = self.schedule.next_interval_secs(ctx.rng);
        let rearm = match self.discipline {
            TimerDiscipline::Absolute => interval,
            TimerDiscipline::Relative => interval + send_delay,
        };
        ctx.schedule_timer(SimDuration::from_secs_f64(rearm), TICK);
    }
}

impl Node for SenderGateway {
    fn on_packet(&mut self, mut packet: Packet, ctx: &mut Context<'_>) {
        // A payload packet from the protected subnet enters the queue.
        self.arrivals_since_tick = self.arrivals_since_tick.saturating_add(1);
        // Reactive adaptive padding opens a fresh burst on client
        // traffic (no-op for laws and non-reactive machines).
        self.schedule.notify_client_arrival();
        packet.enqueued = ctx.now();
        let mut st = self.stats.borrow_mut();
        if self.queue_capacity.is_none_or(|cap| self.queue.len() < cap) {
            self.queue.push_back(packet);
            st.max_queue_len = st.max_queue_len.max(self.queue.len());
        } else {
            st.payload_dropped += 1;
        }
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let first = self.schedule.next_interval_secs(ctx.rng);
        ctx.schedule_timer(
            self.start_phase
                .saturating_add(SimDuration::from_secs_f64(first)),
            TICK,
        );
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_>) {
        debug_assert_eq!(tag, TICK);
        self.emit(ctx);
    }

    fn reset(&mut self) {
        self.queue.clear();
        self.arrivals_since_tick = 0;
        self.schedule.reset();
        *self.stats.borrow_mut() = GatewayStats::default();
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[derive(Debug, Default)]
struct ReceiverStats {
    payload_delivered: u64,
    dummies_stripped: u64,
    unexpected: u64,
    end_to_end_delay: RunningMoments,
    last_delivery: Option<SimTime>,
}

/// Read handle for receiver-gateway instrumentation (single-threaded
/// shared state, like [`GatewayHandle`]).
#[derive(Debug, Clone)]
pub struct ReceiverHandle {
    stats: Rc<RefCell<ReceiverStats>>,
}

impl ReceiverHandle {
    /// Payload packets delivered into the protected subnet.
    pub fn payload_delivered(&self) -> u64 {
        self.stats.borrow().payload_delivered
    }
    /// Dummy packets identified and removed.
    pub fn dummies_stripped(&self) -> u64 {
        self.stats.borrow().dummies_stripped
    }
    /// Packets that were neither padded payload nor dummies (should be 0
    /// in a correct topology).
    pub fn unexpected(&self) -> u64 {
        self.stats.borrow().unexpected
    }
    /// End-to-end payload delay moments (enqueue at GW1 → delivery by
    /// GW2), seconds.
    pub fn end_to_end_delay_moments(&self) -> RunningMoments {
        self.stats.borrow().end_to_end_delay
    }
}

/// The receiver gateway GW2: strips padding, delivers payload. It
/// terminates the padded flow ([`FlowId::PADDED`]); any other packet is
/// counted as unexpected.
pub struct ReceiverGateway {
    /// Where decrypted payload goes (`None` = terminate here).
    inner: Option<NodeId>,
    stats: Rc<RefCell<ReceiverStats>>,
    label: String,
}

impl ReceiverGateway {
    /// Build GW2, forwarding payload to `inner` (e.g. the subnet-B sink).
    pub fn new(inner: Option<NodeId>) -> (ReceiverHandle, Self) {
        let stats = Rc::new(RefCell::new(ReceiverStats::default()));
        (
            ReceiverHandle {
                stats: Rc::clone(&stats),
            },
            Self {
                inner,
                stats,
                label: "gw2".to_string(),
            },
        )
    }

    /// Builder-style label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

impl Node for ReceiverGateway {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        let mut st = self.stats.borrow_mut();
        match packet.kind {
            PacketKind::Payload if packet.is_padded_flow() => {
                st.payload_delivered += 1;
                st.end_to_end_delay
                    .push(ctx.now().saturating_since(packet.enqueued).as_secs_f64());
                st.last_delivery = Some(ctx.now());
                drop(st);
                if let Some(inner) = self.inner {
                    ctx.send_now(inner, packet);
                }
            }
            PacketKind::Dummy if packet.is_padded_flow() => {
                st.dummies_stripped += 1;
            }
            _ => {
                st.unexpected += 1;
            }
        }
    }

    fn reset(&mut self) {
        *self.stats.borrow_mut() = ReceiverStats::default();
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::PaddingSchedule;
    use linkpad_sim::engine::SimBuilder;
    use linkpad_sim::observer::WindowedObserver;
    use linkpad_sim::source::DistSource;
    use linkpad_sim::tap::{Tap, TapHandle};
    use linkpad_stats::dist::Deterministic;
    use linkpad_stats::moments::{sample_mean, sample_variance};
    use linkpad_stats::rng::MasterSeed;

    /// Build source(rate pps) → GW1(schedule) → tap → GW2 → sink and run.
    fn run_padded(
        seed: u64,
        rate_pps: f64,
        schedule: PaddingSchedule,
        discipline: TimerDiscipline,
        secs: f64,
    ) -> (TapHandle, GatewayHandle, ReceiverHandle) {
        let mut b = SimBuilder::new(MasterSeed::new(seed));
        let (_sink_handle, sink) = Tap::new(None, None);
        let sink_id = b.add_node(Box::new(sink));
        let (rx_handle, rx) = ReceiverGateway::new(Some(sink_id));
        let rx_id = b.add_node(Box::new(rx));
        let (tap_handle, tap) = Tap::on_padded_flow(Some(rx_id));
        let tap_id = b.add_node(Box::new(tap));
        let (gw_handle, gw) =
            SenderGateway::new(tap_id, schedule, GatewayJitterModel::calibrated(), 500);
        let gw_id = b.add_node(Box::new(gw.with_discipline(discipline)));
        b.add_node(Box::new(DistSource::new(
            gw_id,
            FlowId::PADDED,
            PacketKind::Payload,
            Box::new(Deterministic::new(1.0 / rate_pps).unwrap()),
            Box::new(Deterministic::new(500.0).unwrap()),
        )));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(secs));
        (tap_handle, gw_handle, rx_handle)
    }

    #[test]
    fn cit_emits_one_packet_per_tick() {
        let (tap, gw, _rx) = run_padded(
            1,
            10.0,
            PaddingSchedule::cit(0.010).unwrap(),
            TimerDiscipline::Absolute,
            10.0,
        );
        // 10 s / 10 ms = 1000 ticks (first at t=10ms).
        assert_eq!(gw.ticks(), 1000);
        // The final tick's packet may still be inside the µs-scale send
        // pipeline when the run ends.
        let seen = tap.count() as u64;
        assert!(
            gw.ticks() - seen <= 1,
            "tap saw {seen} of {} ticks",
            gw.ticks()
        );
    }

    #[test]
    fn padding_mix_matches_rates() {
        let (tap, gw, rx) = run_padded(
            2,
            10.0,
            PaddingSchedule::cit(0.010).unwrap(),
            TimerDiscipline::Absolute,
            20.0,
        );
        // 10 pps payload on a 100 pps padding clock: ~10% payload.
        let payload = gw.payload_sent() as f64;
        let dummy = gw.dummy_sent() as f64;
        assert!((payload / (payload + dummy) - 0.1).abs() < 0.01);
        // Receiver strips all dummies, delivers all payload (one packet
        // may still be in flight at the simulation boundary).
        assert!(gw.payload_sent() - rx.payload_delivered() <= 1);
        assert!(gw.dummy_sent() - rx.dummies_stripped() <= 1);
        assert_eq!(rx.unexpected(), 0);
        let (p, d) = tap.kind_counts();
        assert!(gw.payload_sent() - p <= 1);
        assert!(gw.dummy_sent() - d <= 1);
        assert_eq!(p + d, tap.count() as u64);
    }

    #[test]
    fn absolute_discipline_keeps_piat_mean_at_tau_for_both_rates() {
        // The paper's empirical fact (Fig. 4a): both rate classes share
        // the same PIAT mean. This is what kills the sample-mean feature.
        let mut means = Vec::new();
        for (seed, rate) in [(3u64, 10.0), (4u64, 40.0)] {
            let (tap, _, _) = run_padded(
                seed,
                rate,
                PaddingSchedule::cit(0.010).unwrap(),
                TimerDiscipline::Absolute,
                60.0,
            );
            means.push(sample_mean(&tap.piats_secs()).unwrap());
        }
        for m in &means {
            assert!((m - 0.010).abs() < 2e-7, "mean = {m}");
        }
        assert!((means[0] - means[1]).abs() < 2e-7);
    }

    #[test]
    fn piat_variance_grows_with_payload_rate() {
        // σ_gw,h > σ_gw,l — the CIT leak (r > 1).
        let var_at = |seed, rate| {
            let (tap, _, _) = run_padded(
                seed,
                rate,
                PaddingSchedule::cit(0.010).unwrap(),
                TimerDiscipline::Absolute,
                120.0,
            );
            sample_variance(&tap.piats_secs()).unwrap()
        };
        let v_low = var_at(5, 10.0);
        let v_high = var_at(6, 40.0);
        let r = v_high / v_low;
        assert!(r > 1.15, "r = {r}, expected the paper's r > 1 regime");
        assert!(r < 2.0, "r = {r}, calibration drifted far above the paper");
    }

    #[test]
    fn relative_discipline_leaks_the_mean() {
        // Ablation: with a re-arming timer, blocking delays accumulate
        // into the period, so the PIAT mean moves with the payload rate.
        let mean_at = |seed, rate| {
            let (tap, _, _) = run_padded(
                seed,
                rate,
                PaddingSchedule::cit(0.010).unwrap(),
                TimerDiscipline::Relative,
                120.0,
            );
            sample_mean(&tap.piats_secs()).unwrap()
        };
        let m_low = mean_at(7, 10.0);
        let m_high = mean_at(8, 40.0);
        // Expected gap ≈ (0.4 − 0.1)·µ_blk = 1.8 µs on τ = 10 ms.
        assert!(
            m_high - m_low > 0.5e-6,
            "relative timer should leak mean: low {m_low}, high {m_high}"
        );
    }

    #[test]
    fn vit_piat_variance_is_dominated_by_sigma_t() {
        let sigma_t = 1e-3;
        let (tap, _, _) = run_padded(
            9,
            40.0,
            PaddingSchedule::vit_truncated_normal(0.010, sigma_t).unwrap(),
            TimerDiscipline::Absolute,
            120.0,
        );
        let v = sample_variance(&tap.piats_secs()).unwrap();
        // PIAT variance = σ_T² + 2·Var(δ_gw) ≈ σ_T² (σ_gw is µs-scale).
        assert!(
            (v - sigma_t * sigma_t).abs() / (sigma_t * sigma_t) < 0.1,
            "v = {v:e}, σ_T² = {:e}",
            sigma_t * sigma_t
        );
    }

    #[test]
    fn payload_queue_wait_is_bounded_when_stable() {
        // Payload slower than the padding clock: every payload leaves
        // within a few periods.
        let (_, gw, rx) = run_padded(
            10,
            40.0,
            PaddingSchedule::cit(0.010).unwrap(),
            TimerDiscipline::Absolute,
            30.0,
        );
        let wait = gw.queue_wait_moments();
        assert!(wait.count() > 0);
        assert!(
            wait.max() <= 0.050,
            "payload waited {}s — queue not draining",
            wait.max()
        );
        let e2e = rx.end_to_end_delay_moments();
        assert!(e2e.max() <= 0.060);
    }

    #[test]
    fn bounded_queue_drops_overload() {
        // Payload faster than the padding clock (200 pps vs 100 pps):
        // a bounded queue must shed load and count it.
        let mut b = SimBuilder::new(MasterSeed::new(11));
        let (_rx_handle, rx) = ReceiverGateway::new(None);
        let rx_id = b.add_node(Box::new(rx));
        let (gw_handle, gw) = SenderGateway::new(
            rx_id,
            PaddingSchedule::cit(0.010).unwrap(),
            GatewayJitterModel::calibrated(),
            500,
        );
        let gw_id = b.add_node(Box::new(gw.with_queue_capacity(16)));
        b.add_node(Box::new(DistSource::new(
            gw_id,
            FlowId::PADDED,
            PacketKind::Payload,
            Box::new(Deterministic::new(0.005).unwrap()),
            Box::new(Deterministic::new(500.0).unwrap()),
        )));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(10.0));
        assert!(gw_handle.payload_dropped() > 0);
        assert!(gw_handle.max_queue_len() <= 16);
        // Every tick still emits exactly one packet.
        assert_eq!(
            gw_handle.payload_sent() + gw_handle.dummy_sent(),
            gw_handle.ticks()
        );
    }

    #[test]
    fn receiver_counts_unexpected_traffic() {
        let mut b = SimBuilder::new(MasterSeed::new(12));
        let (rx_handle, rx) = ReceiverGateway::new(None);
        let rx_id = b.add_node(Box::new(rx.with_label("gw2-test")));
        b.add_node(Box::new(DistSource::new(
            rx_id,
            FlowId::CROSS,
            PacketKind::Cross,
            Box::new(Deterministic::new(0.01).unwrap()),
            Box::new(Deterministic::new(100.0).unwrap()),
        )));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(0.1));
        assert_eq!(rx_handle.unexpected(), 10);
        assert_eq!(rx_handle.payload_delivered(), 0);
    }

    #[test]
    fn all_padded_packets_share_one_size() {
        // Threat-model remark 3: constant packet size. Verify through a
        // capture-only observer, which totals wire sizes per window.
        let mut b = SimBuilder::new(MasterSeed::new(13));
        let (sink_handle, sink) = WindowedObserver::new(SimDuration::from_secs_f64(1.0));
        let sink_id = b.add_node(Box::new(sink));
        let (gw_handle, gw) = SenderGateway::new(
            sink_id,
            PaddingSchedule::cit(0.010).unwrap(),
            GatewayJitterModel::calibrated(),
            500,
        );
        let gw_id = b.add_node(Box::new(gw));
        b.add_node(Box::new(DistSource::new(
            gw_id,
            FlowId::PADDED,
            PacketKind::Payload,
            Box::new(Deterministic::new(0.02).unwrap()),
            Box::new(Deterministic::new(123.0).unwrap()), // odd ingress size
        )));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(5.0));
        // Every packet at the sink has exactly the fixed padded size, and
        // at most one tick's packet can be missing (in flight at the end).
        let bytes: u64 = sink_handle.with_windows(|ws| ws.iter().map(|w| w.bytes).sum());
        assert_eq!(bytes, sink_handle.arrivals() * 500);
        let ticks = gw_handle.payload_sent() + gw_handle.dummy_sent();
        assert!(ticks - sink_handle.arrivals() <= 1);
    }

    #[test]
    fn start_phase_shifts_every_emission_exactly() {
        // Zero-base-sigma jitter and no payload → no RNG draws on the
        // tick path, so emission times are exact nominal instants and
        // the phase shift must appear bit-for-bit on every timestamp.
        let run = |phase_ns: u64| {
            let mut b = SimBuilder::new(MasterSeed::new(21));
            let (tap_handle, tap) = Tap::new(None, None);
            let tap_id = b.add_node(Box::new(tap));
            let (_, gw) = SenderGateway::new(
                tap_id,
                PaddingSchedule::cit(0.010).unwrap(),
                GatewayJitterModel::new(0.0, 6e-6).unwrap(),
                500,
            );
            b.add_node(Box::new(
                gw.with_start_phase(SimDuration::from_nanos(phase_ns)),
            ));
            let mut sim = b.build().unwrap();
            sim.run_until(SimTime::from_secs_f64(0.5));
            tap_handle.timestamps()
        };
        let base = run(0);
        let shifted = run(3_000_000); // 3 ms offset
        assert_eq!(base[0].as_nanos(), 10_000_000, "first tick at τ");
        assert_eq!(shifted[0].as_nanos(), 13_000_000, "first tick at φ + τ");
        // The run bound clips one shifted tick (at 503 ms); every pair
        // that exists must differ by exactly the phase.
        assert_eq!(base.len(), 50);
        assert_eq!(shifted.len(), 49);
        for (b_t, s_t) in base.iter().zip(&shifted) {
            assert_eq!(
                s_t.as_nanos(),
                b_t.as_nanos() + 3_000_000,
                "offset shifts the whole grid exactly"
            );
        }
    }

    #[test]
    fn tick_delay_moments_reflect_jitter_model() {
        let (_, gw, _) = run_padded(
            14,
            40.0,
            PaddingSchedule::cit(0.010).unwrap(),
            TimerDiscipline::Absolute,
            60.0,
        );
        let observed = gw.tick_delay_moments();
        let model = GatewayJitterModel::calibrated();
        let want = model.variance_at_rate(40.0, 0.010);
        let got = observed.variance().unwrap();
        assert!(
            ((got - want) / want).abs() < 0.25,
            "tick-delay variance {got:e} vs model {want:e}"
        );
    }
}

//! Distribution-driven traffic source.
//!
//! [`DistSource`] emits packets whose inter-arrival times and sizes come
//! from pluggable `linkpad-stats` distributions. This covers CBR payload
//! (deterministic intervals), Poisson cross traffic (exponential
//! intervals, categorical sizes), and bursty variants (Pareto intervals).
//! Richer behaviours (rate switching, diurnal modulation) live in
//! `linkpad-workloads` as their own nodes.

use crate::engine::Context;
use crate::node::{Node, NodeId};
use crate::packet::{FlowId, PacketKind};
use crate::time::SimDuration;
use linkpad_stats::dist::ContinuousDist;

/// A source emitting packets toward `dst`.
pub struct DistSource {
    dst: NodeId,
    flow: FlowId,
    kind: PacketKind,
    interval: Box<dyn ContinuousDist>,
    size: Box<dyn ContinuousDist>,
    /// Delay before the first emission.
    initial_delay: SimDuration,
    /// Stop after this many packets (`None` = unbounded).
    limit: Option<u64>,
    emitted: u64,
    label: String,
}

impl DistSource {
    /// New source: inter-arrival times from `interval` (seconds), sizes
    /// from `size` (bytes, rounded and clamped to at least 1).
    pub fn new(
        dst: NodeId,
        flow: FlowId,
        kind: PacketKind,
        interval: Box<dyn ContinuousDist>,
        size: Box<dyn ContinuousDist>,
    ) -> Self {
        Self {
            dst,
            flow,
            kind,
            interval,
            size,
            initial_delay: SimDuration::ZERO,
            limit: None,
            emitted: 0,
            label: "source".to_string(),
        }
    }

    /// Delay the first emission.
    pub fn with_initial_delay(mut self, delay: SimDuration) -> Self {
        self.initial_delay = delay;
        self
    }

    /// Stop after `n` packets.
    pub fn with_limit(mut self, n: u64) -> Self {
        self.limit = Some(n);
        self
    }

    /// Builder-style label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    fn arm_next(&mut self, ctx: &mut Context<'_>) {
        let gap = self.interval.sample(ctx.rng).max(0.0);
        ctx.schedule_timer(SimDuration::from_secs_f64(gap), 0);
    }
}

impl Node for DistSource {
    fn on_packet(&mut self, _packet: crate::packet::Packet, _ctx: &mut Context<'_>) {
        // Sources ignore inbound traffic.
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if self.limit == Some(0) {
            return;
        }
        let first =
            self.initial_delay + SimDuration::from_secs_f64(self.interval.sample(ctx.rng).max(0.0));
        ctx.schedule_timer(first, 0);
    }

    fn on_timer(&mut self, _tag: u64, ctx: &mut Context<'_>) {
        let size = self.size.sample(ctx.rng).round().max(1.0) as u32;
        let pkt = ctx.spawn_packet(self.flow, self.kind, size);
        ctx.send_now(self.dst, pkt);
        self.emitted += 1;
        if self.limit.is_none_or(|n| self.emitted < n) {
            self.arm_next(ctx);
        }
    }

    fn reset(&mut self) {
        self.emitted = 0;
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimBuilder;
    use crate::observer::WindowedObserver;
    use crate::tap::Tap;
    use crate::time::SimTime;
    use linkpad_stats::dist::{Deterministic, Exponential};
    use linkpad_stats::rng::MasterSeed;

    #[test]
    fn cbr_source_emits_at_fixed_rate() {
        let mut b = SimBuilder::new(MasterSeed::new(1));
        let (handle, sink) = Tap::new(None, None);
        let sink_id = b.add_node(Box::new(sink));
        b.add_node(Box::new(DistSource::new(
            sink_id,
            FlowId::PADDED,
            PacketKind::Payload,
            Box::new(Deterministic::new(0.1).unwrap()),
            Box::new(Deterministic::new(500.0).unwrap()),
        )));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(1.05));
        assert_eq!(handle.count(), 10);
        let times = handle.timestamps();
        for (i, t) in times.iter().enumerate() {
            assert_eq!(t.as_nanos(), (i as u64 + 1) * 100_000_000);
        }
    }

    #[test]
    fn poisson_source_rate_is_right_on_average() {
        let mut b = SimBuilder::new(MasterSeed::new(2));
        let (handle, sink) = Tap::new(None, None);
        let sink_id = b.add_node(Box::new(sink));
        b.add_node(Box::new(DistSource::new(
            sink_id,
            FlowId::CROSS,
            PacketKind::Cross,
            Box::new(Exponential::with_rate(200.0).unwrap()),
            Box::new(Deterministic::new(1500.0).unwrap()),
        )));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(50.0));
        let rate = handle.count() as f64 / 50.0;
        assert!((rate - 200.0).abs() < 10.0, "rate = {rate}");
    }

    #[test]
    fn limit_stops_emission() {
        let mut b = SimBuilder::new(MasterSeed::new(3));
        let (handle, sink) = Tap::new(None, None);
        let sink_id = b.add_node(Box::new(sink));
        b.add_node(Box::new(
            DistSource::new(
                sink_id,
                FlowId::PADDED,
                PacketKind::Payload,
                Box::new(Deterministic::new(0.001).unwrap()),
                Box::new(Deterministic::new(64.0).unwrap()),
            )
            .with_limit(7),
        ));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(10.0));
        assert_eq!(handle.count(), 7);
    }

    #[test]
    fn zero_limit_emits_nothing() {
        let mut b = SimBuilder::new(MasterSeed::new(4));
        let (handle, sink) = Tap::new(None, None);
        let sink_id = b.add_node(Box::new(sink));
        b.add_node(Box::new(
            DistSource::new(
                sink_id,
                FlowId::PADDED,
                PacketKind::Payload,
                Box::new(Deterministic::new(0.001).unwrap()),
                Box::new(Deterministic::new(64.0).unwrap()),
            )
            .with_limit(0),
        ));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(handle.count(), 0);
    }

    #[test]
    fn initial_delay_shifts_first_packet() {
        let mut b = SimBuilder::new(MasterSeed::new(5));
        let (handle, sink) = Tap::new(None, None);
        let sink_id = b.add_node(Box::new(sink));
        b.add_node(Box::new(
            DistSource::new(
                sink_id,
                FlowId::PADDED,
                PacketKind::Payload,
                Box::new(Deterministic::new(0.010).unwrap()),
                Box::new(Deterministic::new(64.0).unwrap()),
            )
            .with_initial_delay(SimDuration::from_secs_f64(0.5))
            .with_label("delayed"),
        ));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(1.0));
        let first = handle.timestamps()[0];
        assert_eq!(first.as_nanos(), 510_000_000);
    }

    #[test]
    fn sizes_are_clamped_to_at_least_one_byte() {
        let mut b = SimBuilder::new(MasterSeed::new(6));
        // A capture-only observer: one window holds the byte total.
        let (handle, sink) = WindowedObserver::new(SimDuration::from_secs_f64(1.0), None);
        let sink_id = b.add_node(Box::new(sink));
        b.add_node(Box::new(
            DistSource::new(
                sink_id,
                FlowId::PADDED,
                PacketKind::Payload,
                Box::new(Deterministic::new(0.01).unwrap()),
                Box::new(Deterministic::new(-5.0).unwrap()), // degenerate size law
            )
            .with_limit(3),
        ));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(handle.arrivals(), 3);
        let bytes: u64 = handle.with_windows(|ws| ws.iter().map(|w| w.bytes).sum());
        assert_eq!(bytes, 3); // clamped to 1 byte each
    }
}

//! A payload source that switches between rates over time.
//!
//! The paper's premise: "the rate of payload traffic from the sender may
//! be one of those m rates at a given time" — the adversary's job is to
//! detect *which*. [`SwitchingSource`] produces that hidden state:
//! it alternates between CBR rates on a fixed dwell schedule, and records
//! the ground-truth switch times so examples can score an adversary
//! against reality.

use linkpad_sim::engine::Context;
use linkpad_sim::node::{Node, NodeId};
use linkpad_sim::packet::{FlowId, PacketKind};
use linkpad_sim::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

const EMIT: u64 = 0;
const SWITCH: u64 = 1;

/// Ground-truth log of rate intervals.
#[derive(Debug, Clone)]
pub struct RateLog {
    inner: Rc<RefCell<Vec<(SimTime, f64)>>>,
}

impl RateLog {
    /// `(switch time, rate-from-then-on)` entries, in order.
    pub fn entries(&self) -> Vec<(SimTime, f64)> {
        self.inner.borrow().clone()
    }

    /// The rate in force at time `t` (`None` before the first entry).
    pub fn rate_at(&self, t: SimTime) -> Option<f64> {
        let entries = self.inner.borrow();
        entries
            .iter()
            .rev()
            .find(|&&(start, _)| start <= t)
            .map(|&(_, r)| r)
    }
}

/// CBR payload source alternating between two rates.
pub struct SwitchingSource {
    dst: NodeId,
    rates: [f64; 2],
    dwell: SimDuration,
    active: usize,
    packet_size: u32,
    log: Rc<RefCell<Vec<(SimTime, f64)>>>,
}

impl SwitchingSource {
    /// Alternate between `rates[0]` and `rates[1]` every `dwell`,
    /// starting with `rates[0]`.
    ///
    /// # Panics
    /// Panics if either rate is non-positive (configuration constant).
    pub fn new(
        dst: NodeId,
        rates: [f64; 2],
        dwell: SimDuration,
        packet_size: u32,
    ) -> (RateLog, Self) {
        assert!(
            rates.iter().all(|r| r.is_finite() && *r > 0.0),
            "switching rates must be positive"
        );
        let log = Rc::new(RefCell::new(Vec::new()));
        (
            RateLog {
                inner: Rc::clone(&log),
            },
            Self {
                dst,
                rates,
                dwell,
                active: 0,
                packet_size,
                log,
            },
        )
    }

    fn interval(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / self.rates[self.active])
    }
}

impl Node for SwitchingSource {
    fn on_packet(&mut self, _p: linkpad_sim::packet::Packet, _ctx: &mut Context<'_>) {}

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.log
            .borrow_mut()
            .push((ctx.now(), self.rates[self.active]));
        ctx.schedule_timer(self.interval(), EMIT);
        ctx.schedule_timer(self.dwell, SWITCH);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_>) {
        match tag {
            EMIT => {
                let pkt = ctx.spawn_packet(FlowId::PADDED, PacketKind::Payload, self.packet_size);
                ctx.send_now(self.dst, pkt);
                ctx.schedule_timer(self.interval(), EMIT);
            }
            SWITCH => {
                self.active = 1 - self.active;
                self.log
                    .borrow_mut()
                    .push((ctx.now(), self.rates[self.active]));
                ctx.schedule_timer(self.dwell, SWITCH);
            }
            other => debug_assert!(false, "unknown timer tag {other}"),
        }
    }

    fn reset(&mut self) {
        self.active = 0;
        self.log.borrow_mut().clear();
    }

    fn label(&self) -> &str {
        "switching-source"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkpad_sim::engine::SimBuilder;
    use linkpad_sim::tap::Tap;
    use linkpad_stats::rng::MasterSeed;

    #[test]
    fn switches_rates_on_schedule() {
        let mut b = SimBuilder::new(MasterSeed::new(1));
        let (sink_handle, sink) = Tap::new(None, None);
        let sink_id = b.add_node(Box::new(sink));
        let (log, src) =
            SwitchingSource::new(sink_id, [10.0, 40.0], SimDuration::from_secs_f64(5.0), 500);
        b.add_node(Box::new(src));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(10.0));
        // ~50 packets in the low phase + ~200 in the high phase.
        let total = sink_handle.count();
        assert!((200..=260).contains(&total), "total = {total}");
        let entries = log.entries();
        assert_eq!(entries.len(), 3); // start, 5s, 10s
        assert_eq!(entries[0].1, 10.0);
        assert_eq!(entries[1].1, 40.0);
        assert_eq!(entries[2].1, 10.0);
    }

    #[test]
    fn rate_at_reports_ground_truth() {
        let mut b = SimBuilder::new(MasterSeed::new(2));
        let (_h, sink) = Tap::new(None, None);
        let sink_id = b.add_node(Box::new(sink));
        let (log, src) =
            SwitchingSource::new(sink_id, [10.0, 40.0], SimDuration::from_secs_f64(2.0), 500);
        b.add_node(Box::new(src));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(7.0));
        assert_eq!(log.rate_at(SimTime::from_secs_f64(1.0)), Some(10.0));
        assert_eq!(log.rate_at(SimTime::from_secs_f64(3.0)), Some(40.0));
        assert_eq!(log.rate_at(SimTime::from_secs_f64(5.5)), Some(10.0));
    }

    #[test]
    #[should_panic(expected = "rates must be positive")]
    fn zero_rate_panics() {
        let mut b = SimBuilder::new(MasterSeed::new(3));
        let (_h, sink) = Tap::new(None, None);
        let sink_id = b.add_node(Box::new(sink));
        let _ = SwitchingSource::new(sink_id, [0.0, 40.0], SimDuration::from_secs_f64(1.0), 500);
    }
}

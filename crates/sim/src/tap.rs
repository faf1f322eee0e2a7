//! Passive link tap — the adversary's measurement instrument.
//!
//! The paper's adversary "uses some means to tap the network between
//! gateways GW1 and GW2" and records packet timing with a hardware
//! network analyzer (§5). [`Tap`] is that instrument: it records the
//! arrival timestamp of every packet matching its flow filter and
//! forwards the packet unchanged (zero delay — a passive optical splitter,
//! in effect).
//!
//! **Information barrier:** the adversary-facing accessor
//! [`TapHandle::timestamps`] exposes *timestamps only*. Packet kinds
//! (payload vs dummy) are recorded separately behind the
//! instrumentation-only [`TapHandle::kind_counts`] accessor, which tests
//! and overhead accounting may use but the `linkpad-adversary` crate never
//! touches — packets are "perfectly encrypted" in the threat model.
//!
//! A tap with no next hop is a **capture-only endpoint**: it records
//! what reaches the end of a path (a subnet behind the receiver
//! gateway, a test's terminal node) and forwards nothing.
//!
//! **Memory model:** a tap stores every matching arrival, so its memory
//! is `O(arrivals)` — one `SimTime` per capture. That is the right
//! trade for per-flow captures, whose PIATs the detection pipeline
//! consumes raw; [`TapHandle::reserve`] pre-sizes a predictable
//! capture. An aggregate trunk is watched by a
//! [`WindowedObserver`](crate::observer::WindowedObserver) instead,
//! whose memory is `O(windows)` — independent of the arrival count.

use crate::engine::Context;
use crate::node::{Node, NodeId};
use crate::packet::{FlowId, Packet, PacketKind};
use crate::time::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Debug, Default)]
struct TapState {
    timestamps: Vec<SimTime>,
    payload: u64,
    dummy: u64,
}

impl TapState {
    /// Drop everything captured, keeping the timestamp buffer's
    /// capacity. Shared by [`TapHandle::clear`] and the node's
    /// scenario-reset hook so the two can never drift apart.
    fn clear(&mut self) {
        self.timestamps.clear();
        self.payload = 0;
        self.dummy = 0;
    }
}

/// Shared handle for reading what a [`Tap`] captured, usable after the
/// simulation has run (the engine owns the tap node itself). Simulations
/// are single-threaded, so the handle shares state over `Rc<RefCell<_>>`
/// — no atomics or locks on the per-packet path.
#[derive(Debug, Clone)]
pub struct TapHandle {
    state: Rc<RefCell<TapState>>,
}

impl TapHandle {
    /// Arrival timestamps of matching packets, in capture order.
    ///
    /// This is the adversary's *entire* view of the system.
    pub fn timestamps(&self) -> Vec<SimTime> {
        self.state.borrow().timestamps.clone()
    }

    /// Run `f` over the captured timestamps without cloning them.
    pub fn with_timestamps<R>(&self, f: impl FnOnce(&[SimTime]) -> R) -> R {
        f(&self.state.borrow().timestamps)
    }

    /// Pre-reserve capture capacity for an expected number of packets —
    /// lets long collections avoid re-allocation mid-run.
    pub fn reserve(&self, additional: usize) {
        self.state.borrow_mut().timestamps.reserve(additional);
    }

    /// Packet inter-arrival times in seconds (consecutive differences of
    /// [`TapHandle::timestamps`]).
    pub fn piats_secs(&self) -> Vec<f64> {
        let st = self.state.borrow();
        st.timestamps
            .windows(2)
            .map(|w| w[1].saturating_since(w[0]).as_secs_f64())
            .collect()
    }

    /// Append `count` PIATs (seconds) into `out`, computed from the
    /// captured timestamps starting after `warmup` packets. The reusable
    /// output buffer lets sweep loops collect millions of samples without
    /// per-sample allocation.
    ///
    /// Returns `false` (appending nothing) if fewer than
    /// `warmup + count + 1` packets have been captured.
    pub fn piats_window_into(&self, warmup: usize, count: usize, out: &mut Vec<f64>) -> bool {
        let st = self.state.borrow();
        let needed = warmup + count + 1;
        if st.timestamps.len() < needed {
            return false;
        }
        out.reserve(count);
        out.extend(
            st.timestamps[warmup..needed]
                .windows(2)
                .map(|w| w[1].saturating_since(w[0]).as_secs_f64()),
        );
        true
    }

    /// Number of captured packets.
    pub fn count(&self) -> usize {
        self.state.borrow().timestamps.len()
    }

    /// Instrumentation only: (payload, dummy) counts of the captured
    /// packets. Not part of the adversary's view — used by overhead
    /// accounting and tests.
    pub fn kind_counts(&self) -> (u64, u64) {
        let st = self.state.borrow();
        (st.payload, st.dummy)
    }

    /// Drop everything captured so far (e.g. to discard a warm-up phase).
    pub fn clear(&self) {
        self.state.borrow_mut().clear();
    }
}

/// The tap node.
#[derive(Debug)]
pub struct Tap {
    state: Rc<RefCell<TapState>>,
    /// Only packets of this flow are recorded (`None` records everything).
    filter: Option<FlowId>,
    /// Downstream node (`None` = capture-only endpoint).
    next: Option<NodeId>,
    label: String,
}

impl Tap {
    /// A tap that records packets of `filter` (or all packets when
    /// `None`) and forwards everything to `next` (`None`: a
    /// capture-only endpoint).
    pub fn new(filter: Option<FlowId>, next: Option<NodeId>) -> (TapHandle, Self) {
        let state = Rc::new(RefCell::new(TapState::default()));
        (
            TapHandle {
                state: Rc::clone(&state),
            },
            Self {
                state,
                filter,
                next,
                label: "tap".to_string(),
            },
        )
    }

    /// Convenience: tap on the padded flow, forwarding to `next`.
    pub fn on_padded_flow(next: Option<NodeId>) -> (TapHandle, Self) {
        Self::new(Some(FlowId::PADDED), next)
    }

    /// Builder-style label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

impl Node for Tap {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        if self.filter.is_none_or(|f| packet.flow == f) {
            let mut st = self.state.borrow_mut();
            st.timestamps.push(ctx.now());
            match packet.kind {
                PacketKind::Payload => st.payload += 1,
                PacketKind::Dummy => st.dummy += 1,
                PacketKind::Cross => {}
            }
        }
        if let Some(next) = self.next {
            ctx.send_now(next, packet);
        }
    }

    fn reset(&mut self) {
        self.state.borrow_mut().clear();
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimBuilder;
    use crate::time::SimDuration;
    use linkpad_stats::rng::MasterSeed;

    /// Emits alternating padded/cross packets every 1 ms.
    struct Mixer {
        dst: NodeId,
        sent: u32,
        total: u32,
    }
    impl Node for Mixer {
        fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.schedule_timer(SimDuration::from_millis_f64(1.0), 0);
        }
        fn on_timer(&mut self, _t: u64, ctx: &mut Context<'_>) {
            let (flow, kind) = if self.sent.is_multiple_of(2) {
                (FlowId::PADDED, PacketKind::Dummy)
            } else {
                (FlowId::CROSS, PacketKind::Cross)
            };
            let pkt = ctx.spawn_packet(flow, kind, 500);
            ctx.send_now(self.dst, pkt);
            self.sent += 1;
            if self.sent < self.total {
                ctx.schedule_timer(SimDuration::from_millis_f64(1.0), 0);
            }
        }
    }

    #[test]
    fn filtered_tap_records_only_matching_flow() {
        let mut b = SimBuilder::new(MasterSeed::new(1));
        let (sink_handle, sink) = Tap::new(None, None);
        let sink_id = b.add_node(Box::new(sink));
        let (tap_handle, tap) = Tap::on_padded_flow(Some(sink_id));
        let tap_id = b.add_node(Box::new(tap));
        b.add_node(Box::new(Mixer {
            dst: tap_id,
            sent: 0,
            total: 10,
        }));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(tap_handle.count(), 5);
        // ...but everything is forwarded:
        assert_eq!(sink_handle.count(), 10);
        assert_eq!(tap_handle.kind_counts(), (0, 5));
    }

    #[test]
    fn unfiltered_tap_records_everything() {
        let mut b = SimBuilder::new(MasterSeed::new(2));
        let (tap_handle, tap) = Tap::new(None, None);
        let tap_id = b.add_node(Box::new(tap.with_label("analyzer")));
        b.add_node(Box::new(Mixer {
            dst: tap_id,
            sent: 0,
            total: 6,
        }));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(tap_handle.count(), 6);
    }

    #[test]
    fn piats_are_consecutive_differences() {
        let mut b = SimBuilder::new(MasterSeed::new(3));
        let (tap_handle, tap) = Tap::new(None, None);
        let tap_id = b.add_node(Box::new(tap));
        b.add_node(Box::new(Mixer {
            dst: tap_id,
            sent: 0,
            total: 4,
        }));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(1.0));
        let piats = tap_handle.piats_secs();
        assert_eq!(piats.len(), 3);
        for p in piats {
            assert!((p - 1e-3).abs() < 1e-12);
        }
    }

    #[test]
    fn clear_discards_warmup() {
        let mut b = SimBuilder::new(MasterSeed::new(4));
        let (tap_handle, tap) = Tap::new(None, None);
        let tap_id = b.add_node(Box::new(tap));
        b.add_node(Box::new(Mixer {
            dst: tap_id,
            sent: 0,
            total: 8,
        }));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(0.0045));
        assert_eq!(tap_handle.count(), 4);
        tap_handle.clear();
        assert_eq!(tap_handle.count(), 0);
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(tap_handle.count(), 4);
        // Two padded dummies and two cross packets since the clear.
        assert_eq!(tap_handle.kind_counts(), (0, 2));
    }

    #[test]
    fn capture_only_tap_does_not_forward() {
        let mut b = SimBuilder::new(MasterSeed::new(5));
        let (sink_handle, sink) = Tap::new(None, None);
        let _sink_id = b.add_node(Box::new(sink));
        let (tap_handle, tap) = Tap::new(None, None); // no next
        let tap_id = b.add_node(Box::new(tap));
        b.add_node(Box::new(Mixer {
            dst: tap_id,
            sent: 0,
            total: 3,
        }));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(tap_handle.count(), 3);
        assert_eq!(sink_handle.count(), 0);
    }
}

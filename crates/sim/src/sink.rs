//! Terminal sink: absorbs packets and records arrival statistics.

use crate::engine::Context;
use crate::node::Node;
use crate::packet::{FlowId, Packet, PacketKind};
use crate::time::SimTime;
use linkpad_stats::moments::RunningMoments;
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Debug, Default)]
struct SinkState {
    arrivals: Vec<(SimTime, FlowId, PacketKind)>,
    /// End-to-end latency moments (arrival − enqueued), per call site QoS.
    latency: RunningMoments,
    bytes: u64,
}

/// Shared read handle for a [`Sink`].
#[derive(Debug, Clone)]
pub struct SinkHandle {
    state: Rc<RefCell<SinkState>>,
}

impl SinkHandle {
    /// Number of packets absorbed.
    pub fn count(&self) -> usize {
        self.state.borrow().arrivals.len()
    }

    /// Total bytes absorbed.
    pub fn bytes(&self) -> u64 {
        self.state.borrow().bytes
    }

    /// Arrival times of all packets.
    pub fn arrival_times(&self) -> Vec<SimTime> {
        self.state
            .borrow()
            .arrivals
            .iter()
            .map(|&(t, _, _)| t)
            .collect()
    }

    /// Arrival times restricted to a flow.
    pub fn arrival_times_for_flow(&self, flow: FlowId) -> Vec<SimTime> {
        self.state
            .borrow()
            .arrivals
            .iter()
            .filter(|&&(_, f, _)| f == flow)
            .map(|&(t, _, _)| t)
            .collect()
    }

    /// Count of packets of a given kind (instrumentation).
    pub fn count_kind(&self, kind: PacketKind) -> usize {
        self.state
            .borrow()
            .arrivals
            .iter()
            .filter(|&&(_, _, k)| k == kind)
            .count()
    }

    /// End-to-end latency moments (arrival time − `Packet::enqueued`).
    pub fn latency_moments(&self) -> RunningMoments {
        self.state.borrow().latency
    }
}

/// A node that terminates traffic.
#[derive(Debug)]
pub struct Sink {
    state: Rc<RefCell<SinkState>>,
    label: String,
}

impl Sink {
    /// Create a sink and its read handle.
    pub fn new() -> (SinkHandle, Self) {
        let state = Rc::new(RefCell::new(SinkState::default()));
        (
            SinkHandle {
                state: Rc::clone(&state),
            },
            Self {
                state,
                label: "sink".to_string(),
            },
        )
    }

    /// Builder-style label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

impl Node for Sink {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        let mut st = self.state.borrow_mut();
        st.bytes += packet.size_bytes as u64;
        st.latency
            .push(ctx.now().saturating_since(packet.enqueued).as_secs_f64());
        st.arrivals.push((ctx.now(), packet.flow, packet.kind));
    }

    fn reset(&mut self) {
        let mut st = self.state.borrow_mut();
        st.arrivals.clear();
        st.latency = RunningMoments::new();
        st.bytes = 0;
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimBuilder;
    use crate::node::NodeId;
    use crate::time::SimDuration;
    use linkpad_stats::rng::MasterSeed;

    struct Pusher {
        dst: NodeId,
    }
    impl Node for Pusher {
        fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let mut a = ctx.spawn_packet(FlowId::PADDED, PacketKind::Payload, 100);
            a.enqueued = SimTime::ZERO;
            ctx.send_after(SimDuration::from_millis_f64(2.0), self.dst, a);
            let b = ctx.spawn_packet(FlowId::CROSS, PacketKind::Cross, 900);
            ctx.send_after(SimDuration::from_millis_f64(5.0), self.dst, b);
        }
    }

    #[test]
    fn sink_counts_bytes_flows_and_latency() {
        let mut b = SimBuilder::new(MasterSeed::new(1));
        let (handle, sink) = Sink::new();
        let sink_id = b.add_node(Box::new(sink.with_label("receiver")));
        b.add_node(Box::new(Pusher { dst: sink_id }));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(handle.count(), 2);
        assert_eq!(handle.bytes(), 1000);
        assert_eq!(handle.arrival_times_for_flow(FlowId::PADDED).len(), 1);
        assert_eq!(handle.count_kind(PacketKind::Cross), 1);
        let lat = handle.latency_moments();
        assert_eq!(lat.count(), 2);
        // First packet enqueued at 0, arrives at 2ms.
        assert!((lat.min() - 2e-3).abs() < 1e-12);
        assert!((lat.max() - 5e-3).abs() < 1e-12);
    }
}

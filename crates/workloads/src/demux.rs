//! Flow demultiplexer: after a shared egress link, padded traffic
//! continues toward GW2 (Fig. 3: the ESR-5000's outgoing link fans out
//! to Subnet B's gateway and to Subnet D's cross-traffic receiver). Cross
//! traffic never reaches it — each hop's router ends that flow at its
//! egress ([`Router::with_exit_flow`]) — so the demux forwards the padded
//! flow and drops anything else.
//!
//! [`Router::with_exit_flow`]: linkpad_sim::router::Router::with_exit_flow

use linkpad_sim::engine::Context;
use linkpad_sim::node::{Node, NodeId};
use linkpad_sim::packet::Packet;

/// Forwards the padded flow to `padded_next` and drops everything else.
#[derive(Debug)]
pub struct FlowDemux {
    padded_next: NodeId,
}

impl FlowDemux {
    /// A demux forwarding the padded flow to `padded_next`.
    pub fn new(padded_next: NodeId) -> Self {
        Self { padded_next }
    }
}

impl Node for FlowDemux {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        if packet.is_padded_flow() {
            ctx.send_now(self.padded_next, packet);
        }
    }

    /// Stateless: the next hop is wiring.
    fn reset(&mut self) {}

    fn label(&self) -> &str {
        "demux"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkpad_sim::engine::SimBuilder;
    use linkpad_sim::packet::{FlowId, PacketKind};
    use linkpad_sim::sink::Sink;
    use linkpad_sim::source::DistSource;
    use linkpad_sim::time::SimTime;
    use linkpad_stats::dist::Deterministic;
    use linkpad_stats::rng::MasterSeed;

    #[test]
    fn demux_forwards_the_padded_flow_and_drops_the_rest() {
        let mut b = SimBuilder::new(MasterSeed::new(1));
        let (padded_handle, padded_sink) = Sink::new();
        let padded_id = b.add_node(Box::new(padded_sink));
        let demux = b.add_node(Box::new(FlowDemux::new(padded_id)));
        for (flow, kind, period) in [
            (FlowId::PADDED, PacketKind::Dummy, 0.010),
            (FlowId::CROSS, PacketKind::Cross, 0.004),
        ] {
            b.add_node(Box::new(DistSource::new(
                demux,
                flow,
                kind,
                Box::new(Deterministic::new(period).unwrap()),
                Box::new(Deterministic::new(500.0).unwrap()),
            )));
        }
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(padded_handle.count(), 100);
        assert_eq!(padded_handle.count_kind(PacketKind::Cross), 0);
        // A padded packet costs its source timer, the demux and the sink;
        // a cross packet ends at the demux, sent nowhere.
        assert_eq!(sim.events_processed(), 3 * 100 + 2 * 250);
    }
}

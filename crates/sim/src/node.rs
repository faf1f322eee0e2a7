//! The `Node` trait: anything that lives in the simulated network.

use crate::engine::Context;
use crate::packet::Packet;
use crate::time::SimTime;

/// Index of a node inside one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The raw index (stable for the lifetime of the simulation).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// A network element: gateway, router, tap, source or sink.
///
/// Nodes are single-threaded state machines driven by the engine. They
/// react to packet deliveries and to their own timers; they never block
/// and never see wall-clock time. There is deliberately no `Send` bound:
/// a simulation lives and dies on one thread (parallel sweeps construct
/// each simulation inside its worker), which lets instrumentation handles
/// use plain `Rc<RefCell<_>>` state instead of atomics and locks on the
/// per-packet hot path.
pub trait Node {
    /// A packet has arrived at this node.
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>);

    /// A batch of packets has arrived at this node at the same instant
    /// (the engine coalesces consecutive same-timestamp deliveries to
    /// amortize virtual dispatch). The default forwards to
    /// [`Node::on_packet`] in order; high-throughput nodes may override
    /// to process the burst in one pass. Implementations must consume
    /// (drain) the vector — the engine reuses the buffer.
    fn on_packets(&mut self, packets: &mut Vec<Packet>, ctx: &mut Context<'_>) {
        for packet in packets.drain(..) {
            self.on_packet(packet, ctx);
        }
    }

    /// A timer previously scheduled by this node (via
    /// [`Context::schedule_timer`]) has fired. `tag` echoes the value
    /// given at scheduling so a node can multiplex timers.
    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_>) {
        let _ = (tag, ctx);
    }

    /// Called once when the simulation starts, before any event fires.
    /// Sources typically arm their first timer here.
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let _ = ctx;
    }

    /// Restore the node to its as-built state so the simulation can be
    /// re-run without reconstructing the topology (the scenario-reset
    /// fast path; see `Sim::reset`).
    ///
    /// Contract: after `reset()` the node must behave **bit-identically**
    /// to a freshly constructed copy of itself — clear queues, counters,
    /// instrumentation state (including state shared with handles via
    /// `Rc<RefCell<_>>`), and any time-dependent fields. Wiring
    /// (downstream `NodeId`s) and configuration (schedules, rates,
    /// labels) are construction-time constants and stay untouched.
    /// Implementations should retain allocated capacity (e.g.
    /// `Vec::clear`, not `Vec::new`) so resets stay allocation-free.
    ///
    /// The default is a no-op, which is correct only for stateless nodes.
    fn reset(&mut self) {}

    /// A run segment has ended: every event at or before `horizon` has
    /// been dispatched, and none after it. The engine calls this on
    /// every node after each `run_until` segment, with the segment's
    /// bound, or with 1 ns before the stop instant when a hook or the
    /// watchdog stopped the run (events at that instant may remain).
    ///
    /// A node that settles work later than the events which used to do
    /// it completes that work through `horizon` here, so what its
    /// handles read after a segment is what the per-event wiring would
    /// have recorded. The [`Trunk`](crate::trunk::Trunk) serves its
    /// cohort traffic through `horizon`, drawing from the streams its
    /// cohorts own, and folds its far-end arrivals. There is no
    /// [`Context`]: the hook cannot schedule, send or draw from the
    /// node's engine stream. The default is a no-op.
    fn on_horizon(&mut self, horizon: SimTime) {
        let _ = horizon;
    }

    /// Human-readable label for diagnostics.
    fn label(&self) -> &str {
        "node"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Inert;
    impl Node for Inert {
        fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
    }

    #[test]
    fn default_methods_are_noops() {
        // Compile-and-run check that the default label and hooks exist.
        let n = Inert;
        assert_eq!(n.label(), "node");
    }

    #[test]
    fn node_id_index_round_trip() {
        let id = NodeId(7);
        assert_eq!(id.index(), 7);
    }
}

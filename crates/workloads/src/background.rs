//! Fluid background-load hops: M/M/1-style queueing noise without
//! per-packet cross-traffic simulation.
//!
//! The WAN experiment (Fig. 8b) spans 15 routers whose cross traffic at
//! realistic backbone rates would cost billions of simulator events per
//! detection point. For padded packets spaced τ = 10 ms apart, however,
//! the router queue relaxes in tens of microseconds — thousands of times
//! faster than the probing rate — so consecutive padded packets see
//! *independent* stationary queue states. That makes the exact hybrid
//! substitution valid: delay each padded packet by an independent draw
//! from the hop's stationary waiting-time distribution instead of
//! simulating every cross packet.
//!
//! We use the M/M/1 waiting law, which has a closed form:
//! `W = 0` with probability `1 − ρ`, else `Exp(E[S]/(1 − ρ))`. The lab
//! bench (`fig6`) keeps full packet-level cross traffic and doubles as
//! the validation that this substitution reproduces the same
//! detection-rate behaviour (`ablations` bench, background-vs-packet).
//! The lab's router serves that traffic lazily but exactly: it draws
//! every cross arrival and runs the FIFO recursion over each one
//! ([`Router::with_cross_traffic`]), it just does so when a padded
//! packet arrives instead of one event per cross packet.
//!
//! [`Router::with_cross_traffic`]: linkpad_sim::router::Router::with_cross_traffic

use linkpad_sim::engine::Context;
use linkpad_sim::node::{Node, NodeId};
use linkpad_sim::packet::Packet;
use linkpad_sim::time::{SimDuration, SimTime};
use linkpad_stats::StatsError;

/// A hop that injects stationary M/M/1 queueing delay.
#[derive(Debug)]
pub struct BackgroundNoiseHop {
    next: NodeId,
    utilization: f64,
    /// Mean of the conditional (busy) waiting time: `E[S]/(1 − ρ)`.
    busy_wait_mean: f64,
    /// Fixed propagation to the next hop.
    propagation: SimDuration,
    /// FIFO guard: a queue cannot reorder, so neither may its model.
    last_departure: SimTime,
    label: String,
}

impl BackgroundNoiseHop {
    /// A background hop on a link of `link_bps` loaded to `utilization`
    /// by cross traffic with mean packet size `mean_size_bytes`.
    pub fn new(
        next: NodeId,
        link_bps: f64,
        utilization: f64,
        mean_size_bytes: f64,
        propagation: SimDuration,
    ) -> Result<Self, StatsError> {
        if !(0.0..1.0).contains(&utilization) {
            return Err(StatsError::InvalidProbability {
                what: "background hop utilization",
                value: utilization,
            });
        }
        if link_bps.is_nan()
            || link_bps <= 0.0
            || mean_size_bytes.is_nan()
            || mean_size_bytes <= 0.0
        {
            return Err(StatsError::NonPositive {
                what: "background hop link/mean size",
                value: link_bps.min(mean_size_bytes),
            });
        }
        let mean_service = 8.0 * mean_size_bytes / link_bps;
        Ok(Self {
            next,
            utilization,
            busy_wait_mean: mean_service / (1.0 - utilization),
            propagation,
            last_departure: SimTime::ZERO,
            label: "bg-hop".to_string(),
        })
    }

    /// Builder-style label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Closed-form variance of the injected wait (per packet):
    /// `Var(W) = 2ρ·m² − (ρ·m)²` with `m = E[S]/(1−ρ)`.
    pub fn wait_variance(&self) -> f64 {
        let m = self.busy_wait_mean;
        let rho = self.utilization;
        2.0 * rho * m * m - (rho * m) * (rho * m)
    }
}

impl Node for BackgroundNoiseHop {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        let wait = if ctx.rng.next_f64() < self.utilization {
            let u = ctx.rng.next_f64();
            -self.busy_wait_mean * (1.0 - u).ln()
        } else {
            0.0
        };
        let mut departure = ctx.now() + SimDuration::from_secs_f64(wait);
        // FIFO: never overtake the previous packet.
        if departure < self.last_departure {
            departure = self.last_departure;
        }
        self.last_departure = departure;
        let delay = departure.saturating_since(ctx.now()) + self.propagation;
        ctx.send_after(delay, self.next, packet);
    }

    fn reset(&mut self) {
        self.last_departure = SimTime::ZERO;
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkpad_sim::engine::SimBuilder;
    use linkpad_sim::packet::{FlowId, PacketKind};
    use linkpad_sim::source::DistSource;
    use linkpad_sim::tap::Tap;
    use linkpad_stats::dist::Deterministic;
    use linkpad_stats::moments::sample_variance;
    use linkpad_stats::rng::MasterSeed;

    fn run_piat_variance(utilization: f64, seed: u64) -> f64 {
        let mut b = SimBuilder::new(MasterSeed::new(seed));
        let (handle, sink) = Tap::new(None, None);
        let sink_id = b.add_node(Box::new(sink));
        let hop =
            BackgroundNoiseHop::new(sink_id, 400e6, utilization, 593.0, SimDuration::ZERO).unwrap();
        let hop_id = b.add_node(Box::new(hop));
        b.add_node(Box::new(DistSource::new(
            hop_id,
            FlowId::PADDED,
            PacketKind::Dummy,
            Box::new(Deterministic::new(0.010).unwrap()),
            Box::new(Deterministic::new(500.0).unwrap()),
        )));
        let mut sim = b.build().unwrap();
        sim.run_until(linkpad_sim::time::SimTime::from_secs_f64(200.0));
        let times = handle.timestamps();
        let piats: Vec<f64> = times
            .windows(2)
            .map(|w| w[1].saturating_since(w[0]).as_secs_f64())
            .collect();
        sample_variance(&piats).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(
            BackgroundNoiseHop::new(NodeId_test(), 400e6, 1.0, 593.0, SimDuration::ZERO).is_err()
        );
        assert!(
            BackgroundNoiseHop::new(NodeId_test(), 400e6, -0.1, 593.0, SimDuration::ZERO).is_err()
        );
        assert!(
            BackgroundNoiseHop::new(NodeId_test(), 0.0, 0.5, 593.0, SimDuration::ZERO).is_err()
        );
        assert!(
            BackgroundNoiseHop::new(NodeId_test(), 400e6, 0.0, 593.0, SimDuration::ZERO).is_ok()
        );
    }

    // Test helper: any node id works for construction-only tests.
    #[allow(non_snake_case)]
    fn NodeId_test() -> NodeId {
        // Build a throwaway sim to mint a valid id.
        let mut b = SimBuilder::new(MasterSeed::new(0));
        let (_h, sink) = Tap::new(None, None);
        b.add_node(Box::new(sink))
    }

    #[test]
    fn zero_utilization_is_transparent() {
        let v = run_piat_variance(0.0, 1);
        assert!(v < 1e-18, "no noise expected, got {v:e}");
    }

    #[test]
    fn piat_variance_matches_closed_form() {
        // PIAT variance = 2·Var(W) for iid waits.
        let hop =
            BackgroundNoiseHop::new(NodeId_test(), 400e6, 0.4, 593.0, SimDuration::ZERO).unwrap();
        let want = 2.0 * hop.wait_variance();
        let got = run_piat_variance(0.4, 2);
        assert!(
            ((got - want) / want).abs() < 0.15,
            "got {got:e}, want {want:e}"
        );
    }

    #[test]
    fn variance_grows_with_utilization() {
        let v1 = run_piat_variance(0.1, 3);
        let v2 = run_piat_variance(0.3, 4);
        let v3 = run_piat_variance(0.5, 5);
        assert!(v2 > v1);
        assert!(v3 > v2);
    }

    #[test]
    fn fifo_is_preserved() {
        // Saturating hop with big waits: packets must still arrive in
        // send order (checked via sink arrival times being sorted —
        // timestamps are recorded in arrival order by construction, so
        // instead verify count: every packet arrives exactly once).
        let mut b = SimBuilder::new(MasterSeed::new(6));
        let (handle, sink) = Tap::new(None, None);
        let sink_id = b.add_node(Box::new(sink));
        let hop = BackgroundNoiseHop::new(sink_id, 1e6, 0.9, 1500.0, SimDuration::ZERO).unwrap();
        let hop_id = b.add_node(Box::new(hop.with_label("hot")));
        b.add_node(Box::new(DistSource::new(
            hop_id,
            FlowId::PADDED,
            PacketKind::Dummy,
            Box::new(Deterministic::new(0.001).unwrap()),
            Box::new(Deterministic::new(500.0).unwrap()),
        )));
        let mut sim = b.build().unwrap();
        sim.run_until(linkpad_sim::time::SimTime::from_secs_f64(10.0));
        let times = handle.timestamps();
        assert!(times.len() > 5000);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }
}

//! Padding overhead and QoS accounting.
//!
//! Link padding buys secrecy with bandwidth and latency: the padded link
//! always carries `1/τ` packets per second regardless of how little
//! payload there is, and payload waits for the next timer slot. The
//! paper's §2 (NetCamo) and §6 flag this coupling; [`OverheadReport`]
//! quantifies it for a finished run so design-guideline code (in
//! `linkpad-analytic`) can trade detection rate against cost.

use crate::gateway::{GatewayHandle, ReceiverHandle};

/// Cost summary of a padding run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadReport {
    /// Packets transmitted on the padded link.
    pub packets_sent: u64,
    /// Payload packets among them.
    pub payload_packets: u64,
    /// Dummy packets among them.
    pub dummy_packets: u64,
    /// Fraction of transmissions that were dummies (0..1).
    pub dummy_fraction: f64,
    /// Bandwidth expansion: bytes sent per payload byte (≥ 1; ∞ when no
    /// payload moved at all).
    pub bandwidth_expansion: f64,
    /// Mean payload queueing delay inside GW1, seconds.
    pub mean_queue_delay: f64,
    /// Worst payload queueing delay inside GW1, seconds.
    pub max_queue_delay: f64,
    /// Mean end-to-end payload delay (GW1 enqueue → GW2 delivery), if a
    /// receiver handle was provided.
    pub mean_end_to_end_delay: Option<f64>,
    /// Payload packets dropped at a bounded gateway queue.
    pub payload_dropped: u64,
}

impl OverheadReport {
    /// Build a report from gateway (and optionally receiver) handles
    /// after a run.
    pub fn from_handles(gw: &GatewayHandle, rx: Option<&ReceiverHandle>) -> Self {
        let payload = gw.payload_sent();
        let dummy = gw.dummy_sent();
        let total = payload + dummy;
        let wait = gw.queue_wait_moments();
        let dummy_fraction = if total > 0 {
            dummy as f64 / total as f64
        } else {
            0.0
        };
        let bandwidth_expansion = if payload > 0 {
            total as f64 / payload as f64
        } else if total > 0 {
            f64::INFINITY
        } else {
            1.0
        };
        OverheadReport {
            packets_sent: total,
            payload_packets: payload,
            dummy_packets: dummy,
            dummy_fraction,
            bandwidth_expansion,
            mean_queue_delay: wait.mean().unwrap_or(0.0),
            max_queue_delay: if wait.count() > 0 { wait.max() } else { 0.0 },
            mean_end_to_end_delay: rx.and_then(|r| r.end_to_end_delay_moments().mean()),
            payload_dropped: gw.payload_dropped(),
        }
    }

    /// Predicted steady-state dummy fraction for a payload rate `omega`
    /// (pps) on a padding clock of mean period `tau` (s): `1 − ω·τ`,
    /// clamped to `[0, 1]`. Useful before running anything.
    pub fn predicted_dummy_fraction(omega_pps: f64, tau: f64) -> f64 {
        (1.0 - omega_pps * tau).clamp(0.0, 1.0)
    }

    /// Predicted worst-case queueing delay for CBR payload under a CIT
    /// clock when stable (ω·τ < 1): one full period (the packet just
    /// missed a tick).
    pub fn predicted_max_queue_delay(tau: f64) -> f64 {
        tau
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gateway::SenderGateway;
    use crate::jitter::GatewayJitterModel;
    use crate::schedule::PaddingSchedule;
    use linkpad_sim::engine::SimBuilder;
    use linkpad_sim::packet::{FlowId, PacketKind};
    use linkpad_sim::source::DistSource;
    use linkpad_sim::tap::Tap;
    use linkpad_sim::time::SimTime;
    use linkpad_stats::dist::Deterministic;
    use linkpad_stats::rng::MasterSeed;

    fn run(rate_pps: f64, secs: f64) -> OverheadReport {
        let mut b = SimBuilder::new(MasterSeed::new(5));
        let (_h, sink) = Tap::new(None, None);
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
            Box::new(Deterministic::new(1.0 / rate_pps).unwrap()),
            Box::new(Deterministic::new(500.0).unwrap()),
        )));
        let mut sim = b.build().unwrap();
        sim.run_until(SimTime::from_secs_f64(secs));
        OverheadReport::from_handles(&gw_handle, None)
    }

    #[test]
    fn low_rate_pays_high_overhead() {
        let r = run(10.0, 30.0);
        assert!(
            (r.dummy_fraction - 0.9).abs() < 0.02,
            "{}",
            r.dummy_fraction
        );
        assert!((r.bandwidth_expansion - 10.0).abs() < 1.0);
        assert_eq!(r.packets_sent, r.payload_packets + r.dummy_packets);
        assert_eq!(r.payload_dropped, 0);
    }

    #[test]
    fn high_rate_pays_less_overhead() {
        let r = run(40.0, 30.0);
        assert!((r.dummy_fraction - 0.6).abs() < 0.02);
        assert!((r.bandwidth_expansion - 2.5).abs() < 0.2);
    }

    #[test]
    fn queue_delay_within_predicted_bound() {
        let r = run(40.0, 30.0);
        // CBR payload under a stable CIT clock waits at most ~τ (plus
        // µs-scale jitter).
        assert!(r.max_queue_delay <= OverheadReport::predicted_max_queue_delay(0.010) + 1e-3);
        assert!(r.mean_queue_delay > 0.0);
    }

    #[test]
    fn predictions_match_closed_form() {
        assert!((OverheadReport::predicted_dummy_fraction(10.0, 0.010) - 0.9).abs() < 1e-12);
        assert!((OverheadReport::predicted_dummy_fraction(40.0, 0.010) - 0.6).abs() < 1e-12);
        assert_eq!(OverheadReport::predicted_dummy_fraction(200.0, 0.010), 0.0);
        assert_eq!(OverheadReport::predicted_dummy_fraction(0.0, 0.010), 1.0);
    }

    #[test]
    fn empty_run_is_well_defined() {
        // A gateway that never ticked: no division by zero.
        let mut b = SimBuilder::new(MasterSeed::new(6));
        let (_h, sink) = Tap::new(None, None);
        let sink_id = b.add_node(Box::new(sink));
        let (gw_handle, _gw) = SenderGateway::new(
            sink_id,
            PaddingSchedule::cit(0.010).unwrap(),
            GatewayJitterModel::calibrated(),
            500,
        );
        let r = OverheadReport::from_handles(&gw_handle, None);
        assert_eq!(r.packets_sent, 0);
        assert_eq!(r.dummy_fraction, 0.0);
        assert_eq!(r.bandwidth_expansion, 1.0);
        assert_eq!(r.mean_queue_delay, 0.0);
        assert_eq!(r.max_queue_delay, 0.0);
        assert!(r.mean_end_to_end_delay.is_none());
    }
}

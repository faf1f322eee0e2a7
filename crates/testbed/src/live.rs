//! The live padded link: three real threads and two channel wires.
//!
//! ```text
//! [payload generator] --ch--> [gateway: timer + queue + dummy fill]
//!                                   --wire--> [receiver: tap + strip]
//! ```
//!
//! The gateway thread runs an *absolute* timer schedule (tick *i* at
//! `start + Σ Tⱼ`), exactly like `linkpad_core::gateway` in the
//! simulator, but the per-tick disturbance is whatever the host OS
//! scheduler inflicts instead of a model. The receiver timestamps each
//! frame on arrival (the analyzer position of the paper) and strips
//! dummies.

use crate::timer::sleep_until;
use crossbeam_channel::{bounded, unbounded, RecvTimeoutError};
use linkpad_core::schedule::PaddingSchedule;
use linkpad_core::wire;
use linkpad_sim::packet::{FlowId, Packet, PacketKind};
use linkpad_sim::time::SimTime;
use linkpad_stats::rng::MasterSeed;
use linkpad_stats::StatsError;
use std::time::{Duration, Instant};

/// Configuration of a live run.
#[derive(Debug, Clone, Copy)]
pub struct LiveConfig {
    /// Mean timer period τ, seconds.
    pub tau: f64,
    /// VIT σ_T in seconds; 0 = CIT.
    pub sigma_t: f64,
    /// CBR payload rate, packets/second (0 = no payload, pure padding).
    pub payload_rate: f64,
    /// Fixed padded frame size in bytes.
    pub packet_size: u32,
    /// Number of padded packets to emit.
    pub count: usize,
    /// RNG seed (drives the VIT interval draws).
    pub seed: u64,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self {
            tau: 0.010,
            sigma_t: 0.0,
            payload_rate: 10.0,
            packet_size: 500,
            count: 500,
            seed: 7,
        }
    }
}

/// What a live run produced.
#[derive(Debug, Clone)]
pub struct LiveRunReport {
    /// Receiver-side PIATs, seconds (length = frames − 1).
    pub piats: Vec<f64>,
    /// The gateway's scheduled send deadlines, one per frame, as offsets
    /// from the start of the run: the designed timer law, free of host
    /// jitter.
    pub deadlines: Vec<Duration>,
    /// Payload frames decoded at the receiver.
    pub payload_received: u64,
    /// Dummy frames stripped at the receiver.
    pub dummies_stripped: u64,
    /// Frames that failed to decode (should be 0).
    pub decode_errors: u64,
    /// Wall-clock duration of the capture.
    pub elapsed: Duration,
}

impl LiveRunReport {
    /// Total frames captured.
    pub fn frames(&self) -> u64 {
        self.payload_received + self.dummies_stripped
    }
}

/// Run the live padded link to completion.
///
/// Spawns generator/gateway/receiver threads, waits for `count` frames,
/// and joins everything before returning. Runtime ≈ `count × tau`.
pub fn run_live(config: LiveConfig) -> Result<LiveRunReport, StatsError> {
    if !config.tau.is_finite() || config.tau <= 0.0 {
        return Err(StatsError::NonPositive {
            what: "live tau",
            value: config.tau,
        });
    }
    if config.count == 0 {
        return Err(StatsError::InsufficientData {
            what: "live packet count",
            needed: 1,
            got: 0,
        });
    }
    let schedule = if config.sigma_t > 0.0 {
        PaddingSchedule::vit_truncated_normal(config.tau, config.sigma_t)?
    } else {
        PaddingSchedule::cit(config.tau)?
    };

    // Payload channel: generator → gateway. Bounded so a runaway
    // generator cannot balloon memory; the gateway drains one per tick.
    let (payload_tx, payload_rx) = bounded::<Instant>(1024);
    // Wire: gateway → receiver.
    let (wire_tx, wire_rx) = unbounded::<bytes::Bytes>();

    let start = Instant::now();
    let gen_deadline_count = if config.payload_rate > 0.0 {
        (config.count as f64 * config.tau * config.payload_rate).ceil() as usize
    } else {
        0
    };

    std::thread::scope(|scope| {
        // Payload generator: CBR on an absolute schedule.
        if config.payload_rate > 0.0 {
            let payload_tx = payload_tx.clone();
            let rate = config.payload_rate;
            scope.spawn(move || {
                let gap = Duration::from_secs_f64(1.0 / rate);
                for i in 1..=gen_deadline_count {
                    sleep_until(start + gap * i as u32);
                    // The gateway may already have finished; stop quietly.
                    if payload_tx.send(Instant::now()).is_err() {
                        break;
                    }
                }
            });
        }
        drop(payload_tx);

        // Gateway: the §3.2 algorithm on a real timer.
        let gw = scope.spawn(move || {
            let mut rng = MasterSeed::new(config.seed).stream(0);
            let mut next_deadline =
                start + Duration::from_secs_f64(schedule.next_interval_secs(&mut rng));
            let mut deadlines = Vec::with_capacity(config.count);
            for i in 0..config.count {
                sleep_until(next_deadline);
                deadlines.push(next_deadline - start);
                let kind = if payload_rx.try_recv().is_ok() {
                    PacketKind::Payload
                } else {
                    PacketKind::Dummy
                };
                let pkt = Packet::new(
                    i as u64,
                    FlowId::PADDED,
                    kind,
                    config.packet_size,
                    SimTime::from_nanos(start.elapsed().as_nanos() as u64),
                );
                let frame = wire::encode(&pkt);
                if wire_tx.send(frame).is_err() {
                    break;
                }
                next_deadline += Duration::from_secs_f64(schedule.next_interval_secs(&mut rng));
            }
            drop(wire_tx);
            deadlines
        });

        // Receiver + analyzer tap: timestamp on arrival, decode, strip.
        let rx = scope.spawn(move || {
            let mut stamps: Vec<Instant> = Vec::with_capacity(config.count);
            let mut payload = 0u64;
            let mut dummies = 0u64;
            let mut errors = 0u64;
            loop {
                match wire_rx.recv_timeout(Duration::from_secs(30)) {
                    Ok(frame) => {
                        stamps.push(Instant::now());
                        match wire::decode(&frame) {
                            Ok(pkt) => match pkt.kind {
                                PacketKind::Payload => payload += 1,
                                PacketKind::Dummy => dummies += 1,
                                PacketKind::Cross => errors += 1,
                            },
                            Err(_) => errors += 1,
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                    Err(RecvTimeoutError::Timeout) => break,
                }
            }
            (stamps, payload, dummies, errors)
        });

        let deadlines = gw.join().expect("gateway thread panicked");
        let (stamps, payload, dummies, errors) = rx.join().expect("receiver thread panicked");
        let piats = stamps
            .windows(2)
            .map(|w| w[1].duration_since(w[0]).as_secs_f64())
            .collect();
        Ok(LiveRunReport {
            piats,
            deadlines,
            payload_received: payload,
            dummies_stripped: dummies,
            decode_errors: errors,
            elapsed: start.elapsed(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkpad_stats::moments::{sample_mean, sample_variance};

    // Live tests use a fast 2 ms timer so each stays under a second of
    // wall clock. Assertions are loose: CI schedulers are noisy.

    #[test]
    fn cit_run_produces_expected_frame_count_and_mix() {
        let report = run_live(LiveConfig {
            tau: 0.002,
            sigma_t: 0.0,
            payload_rate: 100.0, // 1 payload per 5 ticks
            count: 250,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(report.frames(), 250);
        assert_eq!(report.decode_errors, 0);
        assert_eq!(report.piats.len(), 249);
        // ~20% payload.
        let frac = report.payload_received as f64 / report.frames() as f64;
        assert!((frac - 0.2).abs() < 0.1, "payload fraction {frac}");
    }

    #[test]
    fn cit_piat_mean_tracks_tau() {
        let report = run_live(LiveConfig {
            tau: 0.002,
            sigma_t: 0.0,
            payload_rate: 0.0,
            count: 300,
            ..Default::default()
        })
        .unwrap();
        let mean = sample_mean(&report.piats).unwrap();
        assert!(
            (mean - 0.002).abs() / 0.002 < 0.2,
            "mean PIAT {mean} vs τ=0.002"
        );
    }

    #[test]
    fn vit_piats_are_much_more_variable_than_cit() {
        let sigma_t = 0.001;
        // Ten alternating pairs of 50-frame captures, 500 frames per
        // arm, so that a change in host load hits both arms alike.
        let (mut cit, mut vit) = (Vec::new(), Vec::new());
        for seed in 0..10 {
            for (sigma_t, arm) in [(0.0, &mut cit), (sigma_t, &mut vit)] {
                arm.push(
                    run_live(LiveConfig {
                        tau: 0.002,
                        sigma_t,
                        payload_rate: 0.0,
                        count: 50,
                        seed,
                        ..Default::default()
                    })
                    .unwrap(),
                );
            }
        }
        let gap_variance = |arm: &[LiveRunReport]| {
            let gaps: Vec<f64> = arm
                .iter()
                .flat_map(|r| r.deadlines.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()))
                .collect();
            sample_variance(&gaps).unwrap()
        };
        let piat_variance = |arm: &[LiveRunReport]| {
            let piats: Vec<f64> = arm.iter().flat_map(|r| r.piats.iter().copied()).collect();
            sample_variance(&piats).unwrap()
        };
        // The designed law, exactly: CIT deadlines sit τ apart, and VIT's
        // seeded deadline gaps carry σ_T².
        let tau = Duration::from_secs_f64(0.002);
        for r in &cit {
            assert!(r.deadlines.windows(2).all(|w| w[1] - w[0] == tau));
        }
        let (d_cit, d_vit) = (gap_variance(&cit), gap_variance(&vit));
        assert!(d_vit > 4.0 * d_cit, "VIT deadline gaps {d_vit:e}");
        assert!(d_vit > 0.25 * sigma_t.powi(2), "d_vit {d_vit:e}");
        // The realized timing: σ_T = 1 ms should dominate OS jitter even
        // on noisy CI hosts (loaded single-core containers show ~300+ µs
        // of ambient jitter, i.e. ambient variance above 1e-7).
        let (v_cit, v_vit) = (piat_variance(&cit), piat_variance(&vit));
        assert!(
            v_vit > 4.0 * v_cit,
            "VIT variance {v_vit:e} vs CIT {v_cit:e}"
        );
        // And is in the right ballpark of σ_T².
        assert!(v_vit > 0.25 * sigma_t.powi(2), "v_vit {v_vit:e}");
    }

    #[test]
    fn invalid_configs_error() {
        assert!(run_live(LiveConfig {
            tau: 0.0,
            ..Default::default()
        })
        .is_err());
        assert!(run_live(LiveConfig {
            count: 0,
            ..Default::default()
        })
        .is_err());
    }
}

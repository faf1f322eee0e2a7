//! Real-time testbed smoke tests (loose tolerances: CI clocks are noisy).

use linkpad::prelude::*;
use linkpad::stats::moments::{sample_mean, sample_variance};
use linkpad::testbed::LiveRunReport;

#[test]
fn live_cit_round_trip() {
    let report = run_live(LiveConfig {
        tau: 0.002,
        sigma_t: 0.0,
        payload_rate: 50.0,
        packet_size: 500,
        count: 200,
        seed: 1,
    })
    .unwrap();
    assert_eq!(report.frames(), 200);
    assert_eq!(report.decode_errors, 0);
    assert!(report.payload_received > 0);
    assert!(report.dummies_stripped > 0);
    let mean = sample_mean(&report.piats).unwrap();
    assert!(
        (mean - 0.002).abs() / 0.002 < 0.25,
        "live mean PIAT {mean} far from τ"
    );
}

#[test]
fn live_vit_intervals_follow_the_designed_law() {
    // The designed law is checked exactly on the gateway's seeded
    // deadlines. The realized timing is checked against CIT captures
    // interleaved with the VIT ones, ten alternating pairs of 50 frames
    // (500 frames per arm), so a change in host load hits both arms
    // alike (CI boxes can be saturated, inflating OS noise by orders of
    // magnitude). The designed VIT variance must show up *on top of* that
    // baseline; no absolute upper bound is assertable on a shared
    // machine. σ_T is set well above the worst ambient jitter observed
    // on loaded single-core containers (~350 µs) so the designed
    // component dominates the noise floor.
    let tau = 0.002;
    let sigma_t = 1e-3;
    let (mut cit, mut vit) = (Vec::new(), Vec::new());
    for seed in 1..=10 {
        for (sigma_t, arm) in [(0.0, &mut cit), (sigma_t, &mut vit)] {
            arm.push(
                run_live(LiveConfig {
                    tau,
                    sigma_t,
                    payload_rate: 0.0,
                    packet_size: 500,
                    count: 50,
                    seed,
                })
                .unwrap(),
            );
        }
    }
    // Trimmed variance: a single multi-millisecond scheduler stall in a
    // 250-packet arm (routine while the test harness still compiles
    // sibling crates) adds ~4e-7 to a plain variance estimate — the same
    // order as the effect under test. Dropping the extreme 2% of values
    // on each side removes stall artifacts while keeping most of the
    // designed truncated-normal spread.
    let trimmed_variance = |mut xs: Vec<f64>| {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let trim = xs.len() / 50;
        sample_variance(&xs[trim..xs.len() - trim]).unwrap()
    };
    let gaps = |arm: &[LiveRunReport]| -> Vec<f64> {
        arm.iter()
            .flat_map(|r| r.deadlines.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()))
            .collect()
    };
    let piats = |arm: &[LiveRunReport]| -> Vec<f64> {
        arm.iter().flat_map(|r| r.piats.iter().copied()).collect()
    };
    let designed = sigma_t * sigma_t;
    let assert_vit_adds_sigma_t_sq = |what: &str, cit_var: f64, vit_var: f64| {
        assert!(
            vit_var > 0.3 * designed,
            "{what}: VIT variance {vit_var:e} lost the designed component {designed:.1e}"
        );
        assert!(
            vit_var > cit_var + 0.25 * designed,
            "{what}: VIT must add ≥ ~σ_T² over the CIT baseline: cit {cit_var:e}, vit {vit_var:e}"
        );
    };
    let tau_ns = std::time::Duration::from_secs_f64(tau);
    assert!(cit
        .iter()
        .all(|r| r.deadlines.windows(2).all(|w| w[1] - w[0] == tau_ns)));
    assert_vit_adds_sigma_t_sq(
        "deadlines",
        sample_variance(&gaps(&cit)).unwrap(),
        sample_variance(&gaps(&vit)).unwrap(),
    );
    assert_vit_adds_sigma_t_sq(
        "live PIATs",
        trimmed_variance(piats(&cit)),
        trimmed_variance(piats(&vit)),
    );
}

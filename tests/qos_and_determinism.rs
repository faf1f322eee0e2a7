//! QoS guarantees, overhead accounting, determinism, and the
//! threat-model information barrier, exercised across crates.

use linkpad::core::overhead::OverheadReport;
use linkpad::prelude::*;

#[test]
fn padding_preserves_payload_delivery_and_bounds_delay() {
    let b = ScenarioBuilder::lab(51).with_payload_rate(40.0);
    let mut s = b.build().unwrap();
    s.run_for_secs(30.0);
    // All payload delivered (minus in-flight at the boundary).
    let delivered = s.receiver.payload_delivered();
    assert!(
        (1195..=1200).contains(&delivered),
        "delivered = {delivered}"
    );
    assert_eq!(s.receiver.unexpected(), 0);
    // Padding delay bound: a stable CIT queue holds payload at most ~τ.
    let e2e = s.receiver.end_to_end_delay_moments();
    assert!(
        e2e.max() < 0.025,
        "end-to-end payload delay {}s exceeds the CIT bound",
        e2e.max()
    );
    // Overhead is exactly the rate deficit: 40 pps payload on a 100 pps
    // clock → 60% dummies.
    let report = OverheadReport::from_handles(&s.gateway, Some(&s.receiver));
    assert!((report.dummy_fraction - 0.6).abs() < 0.02);
    assert!(report.payload_dropped == 0);
}

#[test]
fn same_seed_same_capture_different_seed_different_capture() {
    let piats = |seed: u64| {
        piats_for(
            &ScenarioBuilder::lab(seed).with_payload_rate(40.0),
            TapPosition::SenderEgress,
            2_000,
            10,
        )
        .unwrap()
    };
    let a = piats(42);
    let b = piats(42);
    let c = piats(43);
    assert_eq!(a, b, "same seed must be bit-identical");
    assert_ne!(a, c, "different seeds must differ");
}

#[test]
fn determinism_holds_through_the_full_attack() {
    use linkpad::adversary::pipeline::DetectionStudy;
    let run_once = || {
        let study = DetectionStudy {
            sample_size: 400,
            train_samples: 20,
            test_samples: 15,
        };
        let low = ScenarioBuilder::lab(61).with_payload_rate(10.0);
        let high = ScenarioBuilder::lab(62).with_payload_rate(40.0);
        let pl = piats_for(&low, TapPosition::SenderEgress, study.piats_needed(), 64).unwrap();
        let ph = piats_for(&high, TapPosition::SenderEgress, study.piats_needed(), 64).unwrap();
        study
            .run(&SampleVariance, &[pl, ph])
            .unwrap()
            .detection_rate()
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn adversary_sees_only_timestamps() {
    // The tap's adversary-facing API yields timestamps; kind counts are a
    // separate instrumentation channel. This is a compile-time-ish
    // property, but assert the runtime shape too: PIATs carry no side
    // information (all values are plain positive seconds).
    let piats = piats_for(
        &ScenarioBuilder::lab(63).with_payload_rate(40.0),
        TapPosition::SenderEgress,
        1_000,
        10,
    )
    .unwrap();
    assert!(piats.iter().all(|&x| x.is_finite() && x > 0.0));
}

#[test]
fn parallel_sweep_equals_sequential_run() {
    use linkpad::sim::parallel::parallel_map_with_threads;
    let configs: Vec<u64> = (0..8).collect();
    let job = |seed: u64| {
        piats_for(
            &ScenarioBuilder::lab(seed).with_payload_rate(10.0),
            TapPosition::SenderEgress,
            500,
            10,
        )
        .unwrap()
        .iter()
        .sum::<f64>()
    };
    let par = parallel_map_with_threads(configs.clone(), 4, job);
    let seq: Vec<f64> = configs.into_iter().map(job).collect();
    assert_eq!(par, seq, "thread count must not affect results");
}

#[test]
fn switching_source_ground_truth_is_queryable() {
    use linkpad::sim::engine::SimBuilder;
    use linkpad::sim::tap::Tap;
    use linkpad::workloads::switching::SwitchingSource;
    let mut b = SimBuilder::new(MasterSeed::new(77));
    let (_h, sink) = Tap::new(None, None);
    let sink_id = b.add_node(Box::new(sink));
    let (log, src) =
        SwitchingSource::new(sink_id, [10.0, 40.0], SimDuration::from_secs_f64(3.0), 500);
    b.add_node(Box::new(src));
    let mut sim = b.build().unwrap();
    sim.run_until(SimTime::from_secs_f64(10.0));
    assert_eq!(log.rate_at(SimTime::from_secs_f64(1.0)), Some(10.0));
    assert_eq!(log.rate_at(SimTime::from_secs_f64(4.0)), Some(40.0));
    assert_eq!(log.entries().len(), 4); // 0s, 3s, 6s, 9s
}

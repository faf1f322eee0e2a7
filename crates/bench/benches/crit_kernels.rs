//! Criterion microbenches for the hot kernels: DES event dispatch,
//! gateway ticks, feature extraction, KDE training/classification, and
//! the parallel sweep scaffolding.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use linkpad_adversary::classifier::KdeBayes;
use linkpad_adversary::feature::{Feature, SampleEntropy, SampleVariance};
use linkpad_bench::perf::sim_events_per_sec;
use linkpad_stats::kde::GaussianKde;
use linkpad_stats::moments::RunningMoments;
use linkpad_stats::normal::Normal;
use linkpad_stats::rng::MasterSeed;
use linkpad_workloads::scenario::{piats_for, ScenarioBuilder, TapPosition};
use std::hint::black_box;

fn synthetic_piats(count: usize, sigma: f64, seed: u64) -> Vec<f64> {
    let d = Normal::new(0.010, sigma).unwrap();
    let mut rng = MasterSeed::new(seed).stream(0);
    (0..count).map(|_| d.sample(&mut rng)).collect()
}

fn bench_event_loop(c: &mut Criterion) {
    // Timer+delivery dispatch at a small pending population (every
    // scenario's regime) and a large one (a store-bound stress shape).
    for pending in [4_096usize, 262_144] {
        c.bench_function(&format!("engine/event_loop_{pending}_pending"), |b| {
            b.iter(|| black_box(sim_events_per_sec(400_000, pending)))
        });
    }
}

fn bench_simulator(c: &mut Criterion) {
    c.bench_function("sim/lab_10k_piats_cit", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let builder = ScenarioBuilder::lab(seed).with_payload_rate(40.0);
            let piats = piats_for(&builder, TapPosition::SenderEgress, 10_000, 16).unwrap();
            black_box(piats.len())
        })
    });
    c.bench_function("sim/lab_2k_piats_with_cross_traffic", |b| {
        let mut seed = 100u64;
        b.iter(|| {
            seed += 1;
            let builder = ScenarioBuilder::lab(seed)
                .with_payload_rate(40.0)
                .with_uniform_utilization(0.3);
            let piats = piats_for(&builder, TapPosition::ReceiverIngress, 2_000, 16).unwrap();
            black_box(piats.len())
        })
    });
}

fn bench_features(c: &mut Criterion) {
    let piats = synthetic_piats(2000, 7e-6, 1);
    c.bench_function("feature/variance_n2000", |b| {
        b.iter(|| black_box(SampleVariance.compute(&piats).unwrap()))
    });
    let entropy = SampleEntropy::calibrated();
    c.bench_function("feature/entropy_n2000", |b| {
        b.iter(|| black_box(entropy.compute(&piats).unwrap()))
    });
    c.bench_function("feature/welford_n2000", |b| {
        b.iter(|| black_box(RunningMoments::from_slice(&piats).variance().unwrap()))
    });
}

fn bench_kde(c: &mut Criterion) {
    let train = synthetic_piats(500, 7e-6, 2);
    c.bench_function("kde/fit_500", |b| {
        b.iter_batched(
            || train.clone(),
            |data| black_box(GaussianKde::fit(&data).unwrap()),
            BatchSize::SmallInput,
        )
    });
    let kde = GaussianKde::fit(&train).unwrap();
    c.bench_function("kde/pdf_eval", |b| b.iter(|| black_box(kde.pdf(0.0100001))));
    let f_low = synthetic_piats(300, 6e-6, 3);
    let f_high = synthetic_piats(300, 8e-6, 4);
    let classifier = KdeBayes::train(&[f_low, f_high]).unwrap();
    c.bench_function("classifier/classify", |b| {
        b.iter(|| black_box(classifier.classify(0.0100002)))
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_event_loop, bench_simulator, bench_features, bench_kde
}
criterion_main!(kernels);

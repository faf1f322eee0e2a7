//! Every workload at a tiny scale: two answers under one seed repeat
//! their digest and deterministic counts exactly, an answer under
//! another seed simulates something else, and every output check passes.

use linkbench::spans::{EngineProbe, Probe, Tracer};
use linkbench::workloads::{Answer, Bench, Scale, Workload};

fn bench(workload: Workload) -> Bench {
    let bench = Bench::new(workload, Scale::tiny());
    bench.setup(Probe::plain()).expect("tiny set-up builds");
    bench
}

/// One answer, with every operation attempted and passing.
fn answer(bench: &mut Bench, workload: Workload, seed: u64, probe: Probe) -> Answer {
    let a = bench.answer(seed, probe);
    assert!(a.attempted > 0, "{workload:?}: no operation attempted");
    assert!(a.failures.is_empty(), "{workload:?}: {:?}", a.failures);
    a
}

fn counts(a: &Answer) -> (u64, u64, u64) {
    (a.digest, a.events, a.observations)
}

#[test]
fn same_seed_repeats_and_another_seed_differs() {
    for w in Workload::ALL {
        // The second answer reuses whatever the first one built.
        let mut b = bench(w);
        let first = answer(&mut b, w, 7, Probe::plain());
        let again = answer(&mut b, w, 7, Probe::plain());
        let other = answer(&mut bench(w), w, 8, Probe::plain());
        assert_eq!(
            counts(&first),
            counts(&again),
            "{w:?}: seed 7 did not repeat"
        );
        assert_ne!(first.digest, other.digest, "{w:?}: seeds 7 and 8 agree");
        assert!(
            first.events > 0 && first.observations > 0,
            "{w:?}: {first:?}"
        );
    }
}

#[test]
fn instrumented_answers_simulate_what_plain_ones_do() {
    let tracer = Tracer::new();
    for w in Workload::ALL {
        let mut b = bench(w);
        let plain = answer(&mut b, w, 11, Probe::plain());
        for (run, engine) in [
            EngineProbe::Plain,
            EngineProbe::Profile,
            EngineProbe::Attribute,
            EngineProbe::SerialShards,
        ]
        .into_iter()
        .enumerate()
        {
            let probe = Probe::traced(&tracer, run as u32 + 1, engine);
            let traced = answer(&mut b, w, 11, probe);
            assert_eq!(counts(&plain), counts(&traced), "{w:?} under {engine:?}");
            match engine {
                EngineProbe::Profile => assert!(traced.profile.is_some(), "{w:?}"),
                EngineProbe::Attribute => assert!(traced.attribution.is_some(), "{w:?}"),
                EngineProbe::Plain | EngineProbe::SerialShards => {}
            }
        }
    }
    assert!(!tracer.spans().is_empty());
}

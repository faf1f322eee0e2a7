//! Command-line entry point: run one workload for a fixed time and print its
//! metrics. See the crate docs for the arguments.

use linkbench::report::{self, Metric, TracedRun};
use linkbench::spans::{EngineProbe, Probe, Tracer};
use linkbench::workloads::{Answer, Bench, Scale, Workload};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Times the set-up is repeated before each answer. `setup_s` is the
/// median over the whole run: spreading the repeats over the run exposes
/// them to the same machine load the answers see.
const SETUP_REPEATS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| bad("expected whole seconds"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Run set-up `SETUP_REPEATS` times; the seconds of each.
fn setup(bench: &Bench, probe: Probe) -> Result<Vec<f64>, String> {
    (0..SETUP_REPEATS)
        .map(|_| {
            let t = Instant::now();
            bench.setup(probe)?;
            Ok(t.elapsed().as_secs_f64())
        })
        .collect()
}

/// Answers must repeat: every answer under one seed redoes the same
/// simulated work. A mismatch is one more failed operation.
fn repeat_check(reference: &Answer, answer: &Answer, what: &str) -> Option<String> {
    let same = (answer.digest, answer.events, answer.observations)
        == (reference.digest, reference.events, reference.observations);
    (!same).then(|| {
        format!(
            "{what} does not repeat the reference answer: digest {:016x} vs {:016x}, \
             events {} vs {}, observations {} vs {}",
            answer.digest,
            reference.digest,
            answer.events,
            reference.events,
            answer.observations,
            reference.observations
        )
    })
}

/// Totals over answers plus extra failures.
fn tally(answers: &[&Answer], extra: &[String]) -> (u64, u64) {
    let attempted = answers.iter().map(|a| a.attempted).sum::<u64>() + extra.len() as u64;
    let failed = answers.iter().map(|a| a.failed()).sum::<u64>() + extra.len() as u64;
    for line in answers.iter().flat_map(|a| &a.failures).chain(extra) {
        eprintln!("linkbench: failed: {line}");
    }
    (attempted, failed)
}

fn print_counts(args: &Args, a: &Answer, answers: usize) {
    println!(
        "workload={} seed={} threads={} answers={answers} digest=fnv1a:{:016x} events={} \
         observations={} pending_peak={} peak_rss_mb={:.1}",
        args.workload.name(),
        args.seed,
        args.workload.threads(),
        a.digest,
        a.events,
        a.observations,
        a.pending_peak,
        report::peak_rss_mb()
    );
}

fn untraced(args: &Args, deadline: Duration) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let mut bench = Bench::new(args.workload, Scale::full());
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut answers = Vec::new();
    let mut walls = Vec::new();
    while answers.is_empty() || start.elapsed() < deadline {
        setups.extend(setup(&bench, Probe::plain())?);
        let t = Instant::now();
        let answer = bench.answer(args.seed, Probe::plain());
        walls.push(t.elapsed().as_secs_f64());
        answers.push(answer);
    }
    let extra: Vec<String> = answers[1..]
        .iter()
        .enumerate()
        .filter_map(|(i, a)| repeat_check(&answers[0], a, &format!("answer {}", i + 1)))
        .collect();
    print_counts(args, &answers[0], answers.len());
    let (wall_tail, pct) = report::tail(&walls);
    let listed: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    println!(
        "wall_s p50={:.4} p{pct:.0}={wall_tail:.4} n={} [{}]",
        report::median(&walls),
        walls.len(),
        listed.join(" ")
    );
    let refs: Vec<&Answer> = answers.iter().collect();
    let (attempted, failed) = tally(&refs, &extra);
    let metrics = report::end_to_end(&walls, &setups, &answers, attempted, failed);
    Ok((failed == 0, attempted, failed, metrics))
}

fn traced(args: &Args, deadline: Duration) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let tracer = Tracer::new();
    let mut bench = Bench::new(args.workload, Scale::full());
    setup(&bench, Probe::traced(&tracer, 0, EngineProbe::Plain))?;
    let start = Instant::now();
    let mut next_run = 1u32;
    let mut run = |engine: Option<EngineProbe>| {
        let id = next_run;
        next_run += 1;
        let probe = match engine {
            Some(e) => Probe::traced(&tracer, id, e),
            None => Probe::plain(),
        };
        let t = Instant::now();
        let answer = bench.answer(args.seed, probe);
        (id, t.elapsed().as_secs_f64(), answer)
    };
    let (_, wall, reference) = run(None);
    let mut untraced_walls = vec![wall];
    let mut others = Vec::new();
    let mut spanned_runs = Vec::new();
    let mut spanned = Vec::new();
    let (id, _, first) = run(Some(EngineProbe::Plain));
    spanned_runs.push(id);
    spanned.push(first);
    let (_, _, profiled) = run(Some(EngineProbe::Profile));
    let (_, _, attributed) = run(Some(EngineProbe::Attribute));
    let serial =
        (args.workload == Workload::CohortDefenses).then(|| run(Some(EngineProbe::SerialShards)));
    while start.elapsed() < deadline {
        let (_, wall, plain) = run(None);
        untraced_walls.push(wall);
        others.push(plain);
        let (id, _, answer) = run(Some(EngineProbe::Plain));
        spanned_runs.push(id);
        spanned.push(answer);
    }

    // Tracing must not change what is simulated.
    let mut extra = Vec::new();
    for (what, a) in [
        ("profiled answer", &profiled),
        ("attributed answer", &attributed),
    ]
    .into_iter()
    .chain(serial.iter().map(|(_, _, a)| ("serial answer", a)))
    .chain(spanned.iter().map(|a| ("spanned answer", a)))
    .chain(others.iter().map(|a| ("untraced answer", a)))
    {
        extra.extend(repeat_check(&reference, a, what));
    }
    print_counts(args, &reference, 1 + others.len());

    let spans = tracer.spans();
    let retries = spanned.iter().map(|a| a.retries).sum();
    let traced_run = TracedRun {
        workload: args.workload,
        spans: &spans,
        reference: &reference,
        untraced_walls: &untraced_walls,
        spanned_runs: &spanned_runs,
        profiled: &profiled,
        attributed: &attributed,
        serial_run: serial.as_ref().map(|(id, _, _)| *id),
        retries,
    };
    let metrics = traced_run.metrics();
    print_breakdown(args.workload, &metrics);
    write_spans(args, &tracer);

    let mut all: Vec<&Answer> = vec![&reference, &profiled, &attributed];
    all.extend(serial.iter().map(|(_, _, a)| a));
    all.extend(spanned.iter());
    all.extend(others.iter());
    let (attempted, failed) = tally(&all, &extra);
    Ok((failed == 0, attempted, failed, metrics))
}

/// Human-readable layer and node breakdown of a traced run.
fn print_breakdown(workload: Workload, metrics: &[Metric]) {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    println!(
        "layer self time (share of thread time): unexplained {:.1}% of wall",
        get("trace.unexplained_frac") * 100.0
    );
    for m in metrics.iter().filter(|m| m.name.starts_with("layer.")) {
        println!("  {:<32} {:>6.1}%", m.name, m.value * 100.0);
    }
    let mut nodes: Vec<&Metric> = metrics
        .iter()
        .filter(|m| m.name.starts_with("node.") && m.name.ends_with(".frac"))
        .collect();
    nodes.sort_by(|a, b| b.value.total_cmp(&a.value));
    println!(
        "node types (share of sampled dispatch time; store {:.1}%, context {:.1}%):",
        get("equeue.store_frac") * 100.0,
        get("engine.context_frac") * 100.0
    );
    for m in nodes.iter().filter(|m| m.value > 0.0) {
        println!("  {:<32} {:>6.1}%", m.name, m.value * 100.0);
    }
    let top = nodes
        .first()
        .map(|m| m.name.trim_start_matches("node.").trim_end_matches(".frac"))
        .unwrap_or("none");
    let expected = report::expected_top_node(workload);
    if top == expected {
        println!("dominant node type: {top} (as expected)");
    } else {
        println!("dominant node type: {top} (expected {expected}: mismatch)");
    }
}

/// Write the spans next to the benchmark's sources.
fn write_spans(args: &Args, tracer: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl())) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("linkbench: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("linkbench: {e}");
            eprintln!(
                "usage: linkbench --workload <lab_cross|gateway_trunk|cohort_defenses> \
                 --seed <n> --seconds <s> [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    let deadline = Duration::from_secs(args.seconds);
    let outcome = if args.trace {
        traced(&args, deadline)
    } else {
        untraced(&args, deadline)
    };
    match outcome {
        Ok((correct, attempted, failed, metrics)) => {
            println!(
                "{}",
                report::result_json(correct, attempted, failed, &metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("linkbench: {e}");
            ExitCode::FAILURE
        }
    }
}

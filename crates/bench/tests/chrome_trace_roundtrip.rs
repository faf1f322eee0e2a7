//! The exported Chrome trace-event JSON must stay inside the subset of
//! JSON the workspace's own mini parser (`linkpad_obs::json::Json`)
//! understands — the same discipline every run manifest follows.
//! Perfetto / `chrome://tracing` are strictly more permissive, so
//! round-tripping through the strict parser is the cheap local proof
//! the export is well-formed.

use linkpad_obs::json::Json;
use linkpad_sim::engine::{Context, SimBuilder};
use linkpad_sim::node::{Node, NodeId};
use linkpad_sim::packet::{FlowId, Packet, PacketKind};
use linkpad_sim::time::{SimDuration, SimTime};
use linkpad_stats::rng::MasterSeed;

struct Ticker {
    sink: NodeId,
    remaining: u64,
}

impl Node for Ticker {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.schedule_timer(SimDuration::from_nanos(700), 0);
    }
    fn on_timer(&mut self, _tag: u64, ctx: &mut Context<'_>) {
        let pkt = ctx.spawn_packet(FlowId::PADDED, PacketKind::Dummy, 500);
        ctx.send_after(SimDuration::from_nanos(300), self.sink, pkt);
        self.remaining -= 1;
        if self.remaining > 0 {
            ctx.schedule_timer(SimDuration::from_nanos(700), 0);
        }
    }
    fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
    fn label(&self) -> &str {
        "ticker"
    }
}

struct Sink;

impl Node for Sink {
    fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
    fn label(&self) -> &str {
        "sink"
    }
}

fn traced_report() -> linkpad_obs::TraceReport {
    let mut b = SimBuilder::new(MasterSeed::new(5));
    let sink = b.add_node(Box::new(Sink));
    b.add_node(Box::new(Ticker {
        sink,
        remaining: 50,
    }));
    let mut sim = b.build().expect("sim builds").with_tracing();
    sim.run_until(SimTime::ZERO + SimDuration::from_nanos(100_000));
    sim.trace_report().expect("tracing was enabled")
}

#[test]
fn chrome_trace_json_round_trips_through_the_mini_parser() {
    let report = traced_report();
    assert!(!report.records.is_empty());
    let text = report.chrome_trace_json();
    let json = Json::parse(&text).expect("chrome trace parses with the strict mini parser");

    assert_eq!(
        json.get("displayTimeUnit"),
        Some(&Json::Str("ms".to_string()))
    );
    let Some(Json::Arr(events)) = json.get("traceEvents") else {
        panic!("traceEvents is an array")
    };
    // One thread_name metadata event per node track + one instant event
    // per recorded trace record.
    let metadata: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph") == Some(&Json::Str("M".to_string())))
        .collect();
    let instants: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph") == Some(&Json::Str("i".to_string())))
        .collect();
    assert_eq!(metadata.len(), report.node_labels.len());
    assert_eq!(instants.len(), report.records.len());
    assert_eq!(events.len(), metadata.len() + instants.len());

    // Every instant event carries the provenance args the exporter
    // promises: seq always, parent only for non-root events.
    let mut with_parent = 0usize;
    for e in &instants {
        let args = e.get("args").expect("instant has args");
        assert!(args.get("seq").and_then(Json::as_f64).is_some());
        assert!(args.get("batch").and_then(Json::as_f64).is_some());
        assert!(e.get("tid").and_then(Json::as_f64).is_some());
        assert!(e.get("ts").is_some());
        if args.get("parent").is_some() {
            with_parent += 1;
        }
    }
    // The ticker chain guarantees non-root records (every delivery and
    // every re-armed timer has a recorded parent at stride 1).
    assert!(with_parent > 0, "provenance survived the export");
    assert!(with_parent < instants.len(), "the first timer is a root");
}

#[test]
fn collapsed_stacks_are_flamegraph_shaped() {
    let report = traced_report();
    let folded = report.collapsed_stacks();
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("frames <space> weight");
        assert!(weight.parse::<u64>().is_ok(), "weight is a count: {line}");
        assert!(
            stack
                .split(';')
                .all(|f| f.contains(':') || f == "[deep]" || f == "[truncated]"),
            "frames are label:kind or a fold marker: {line}"
        );
    }
}

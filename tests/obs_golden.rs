//! Golden tests for the exported telemetry formats.
//!
//! These pin the *external contracts* of the observability layer: the
//! Chrome `trace_event` document must stay loadable by `chrome://tracing`
//! / Perfetto (valid JSON, required fields, monotonic per-lane
//! timestamps), and the JSONL stream's per-event key sets must not drift
//! — downstream tooling greps and parses these files.

use std::collections::BTreeSet;

use jacob_mudge_vm::experiments::telemetry;
use jacob_mudge_vm::experiments::{ExecConfig, Reporter};
use jacob_mudge_vm::obs::json::{self, Value};
use jacob_mudge_vm::trace::presets;

fn tiny_telemetry(want_events: bool, want_chrome: bool) -> telemetry::Telemetry {
    let cfg = telemetry::Config::paper_systems(
        presets::gcc_spec(),
        ExecConfig { warmup: 3_000, measure: 25_000, jobs: 1 },
    );
    telemetry::run(&cfg, want_events, want_chrome, &Reporter::silent())
}

fn keys(v: &Value) -> BTreeSet<String> {
    v.as_object().unwrap().iter().map(|(k, _)| k.clone()).collect()
}

fn set(names: &[&str]) -> BTreeSet<String> {
    names.iter().map(|s| s.to_string()).collect()
}

#[test]
fn chrome_trace_is_valid_json_with_monotonic_lane_timestamps() {
    let t = tiny_telemetry(false, true);
    let text = String::from_utf8(t.chrome_trace.unwrap()).unwrap();
    let doc = json::parse(&text).expect("document must parse as JSON");
    assert_eq!(doc.get("displayTimeUnit").unwrap().as_str(), Some("ms"));
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    assert!(!events.is_empty());

    let mut last_ts: std::collections::BTreeMap<u64, u64> = Default::default();
    let mut spans = 0;
    for ev in events {
        let ph = ev.get("ph").and_then(Value::as_str).expect("every event has ph");
        assert!(ev.get("pid").is_some(), "every event has pid");
        let tid = ev.get("tid").unwrap().as_u64().unwrap();
        match ph {
            "M" => {
                // Metadata: lane names, no timestamp.
                assert_eq!(ev.get("name").unwrap().as_str(), Some("thread_name"));
            }
            "X" => {
                spans += 1;
                let ts = ev.get("ts").unwrap().as_u64().unwrap();
                assert!(ev.get("dur").unwrap().as_u64().unwrap() > 0);
                assert!(ev.get("name").unwrap().as_str().is_some());
                let last = last_ts.entry(tid).or_insert(0);
                assert!(ts >= *last, "span timestamps regress on lane {tid}");
                *last = ts;
            }
            "i" => {
                let ts = ev.get("ts").unwrap().as_u64().unwrap();
                assert_eq!(ev.get("s").unwrap().as_str(), Some("t"), "instant scope");
                let last = last_ts.entry(tid).or_insert(0);
                assert!(ts >= *last, "instant timestamps regress on lane {tid}");
                *last = ts;
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    // One summary span per paper system on the spans lane.
    assert_eq!(spans, 6, "one X span per paper system");
}

#[test]
fn jsonl_schema_key_sets_are_stable() {
    let t = tiny_telemetry(true, false);
    let text = String::from_utf8(t.events_jsonl.unwrap()).unwrap();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for line in text.lines() {
        let v = json::parse(line).expect("each line is one JSON object");
        let ev = v.get("ev").unwrap().as_str().unwrap().to_owned();
        let got = keys(&v);
        let want = match ev.as_str() {
            "run_start" => set(&["t", "ev", "system"]),
            "run_summary" => set(&["t", "ev", "system", "snapshot"]),
            "tlb_miss" => set(&["t", "ev", "class", "level", "vpn", "asid"]),
            "walk_complete" => set(&["t", "ev", "level", "cycles", "memrefs"]),
            "cache_miss" => set(&["t", "ev", "class", "filled_from"]),
            "tlb_eviction" => set(&["t", "ev", "class", "victim"]),
            "interrupt" => set(&["t", "ev", "level"]),
            "context_switch_flush" => set(&["t", "ev", "entries_lost"]),
            "handler_eviction" => set(&["t", "ev", "cache"]),
            other => panic!("unknown event name {other:?} in JSONL stream"),
        };
        assert_eq!(got, want, "key set drift for {ev}");
        seen.insert(ev);
    }
    // The paper systems between them must exercise the core event kinds.
    for must in ["run_start", "run_summary", "tlb_miss", "walk_complete", "cache_miss"] {
        assert!(seen.contains(must), "stream never emitted {must}");
    }
}

#[test]
fn jsonl_timestamps_are_monotonic_within_each_system() {
    let t = tiny_telemetry(true, false);
    let text = String::from_utf8(t.events_jsonl.unwrap()).unwrap();
    let mut last = 0u64;
    for line in text.lines() {
        let v = json::parse(line).unwrap();
        let ts = v.get("t").unwrap().as_u64().unwrap();
        let ev = v.get("ev").unwrap().as_str().unwrap();
        if ev == "run_start" {
            last = 0; // each system's stream restarts at instruction 0
            continue;
        }
        assert!(ts >= last, "timestamp regression at {line}");
        last = ts;
    }
}

#[test]
fn run_summary_snapshot_round_trips_through_the_schema() {
    let t = tiny_telemetry(true, false);
    let text = String::from_utf8(t.events_jsonl.unwrap()).unwrap();
    let mut summaries = 0;
    for line in text.lines() {
        let v = json::parse(line).unwrap();
        if v.get("ev").unwrap().as_str() != Some("run_summary") {
            continue;
        }
        summaries += 1;
        let snap = v.get("snapshot").unwrap();
        let counters = snap.get("counters").expect("snapshot carries counters");
        assert!(counters.get("tlb_misses").is_some());
        let wc = snap.get("walk_cycles").expect("snapshot carries walk_cycles histogram");
        for k in ["count", "mean", "p50", "p90", "p99", "max"] {
            assert!(wc.get(k).is_some(), "walk_cycles summary missing {k}");
        }
    }
    assert_eq!(summaries, 6, "one run_summary per paper system");
}

//! The instrumented telemetry pass: re-runs systems with a full
//! observability stack attached — [`StatsSink`] histograms, optional
//! JSONL event streams, optional Chrome `trace_event` output — and
//! renders the per-system walk-latency summary table.
//!
//! The pass warms caches and TLBs with the zero-cost [`vm_obs::NopSink`]
//! and attaches the instrumented sink only for the measurement phase, so
//! exported event streams reconcile exactly with the reported counters.

use std::time::Instant;

use vm_core::{SimConfig, SimReport, SystemKind};
use vm_explore::ExecConfig;
use vm_obs::json::Value;
use vm_obs::{summary_line, ChromeTraceSink, JsonlSink, ObsSnapshot, Sink, StatsSink, Tee};
use vm_trace::WorkloadSpec;

use crate::TextTable;
use vm_obs::Reporter;

/// Shifts every event's timestamp by a fixed base, so several sequential
/// runs can share one Chrome-trace timeline without overlapping.
struct Shift<S> {
    base: u64,
    inner: S,
}

impl<S: Sink> Sink for Shift<S> {
    const ENABLED: bool = S::ENABLED;

    fn emit(&mut self, now: u64, ev: &vm_obs::Event) {
        self.inner.emit(self.base + now, ev);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// What to instrument: a list of labelled system configurations run
/// against one workload.
#[derive(Debug, Clone)]
pub struct Config {
    /// The systems to run, in order.
    pub configs: Vec<SimConfig>,
    /// The workload model every system replays.
    pub workload: WorkloadSpec,
    /// Workload generator seed.
    pub seed: u64,
    /// Run lengths (`jobs` is not read: cells run one at a time).
    pub exec: ExecConfig,
}

impl Config {
    /// The paper's six systems (Table 1) against `workload`.
    pub fn paper_systems(workload: WorkloadSpec, exec: ExecConfig) -> Config {
        Config {
            configs: SystemKind::PAPER.into_iter().map(SimConfig::paper_default).collect(),
            workload,
            seed: 1,
            exec,
        }
    }

    /// A single custom configuration (the `repro run` subcommand).
    pub fn single(
        config: SimConfig,
        workload: WorkloadSpec,
        seed: u64,
        exec: ExecConfig,
    ) -> Config {
        Config { configs: vec![config], workload, seed, exec }
    }
}

/// One instrumented system run.
#[derive(Debug, Clone)]
pub struct SystemRun {
    /// The full simulation report (with `report.obs` populated).
    pub report: SimReport,
    /// The observability snapshot (also on `report.obs`; duplicated here
    /// for convenience).
    pub snapshot: ObsSnapshot,
}

/// Everything the telemetry pass produced.
#[derive(Debug)]
pub struct Telemetry {
    /// Per-system runs, in configuration order.
    pub runs: Vec<SystemRun>,
    /// The JSONL event stream, when requested: `run_start` marker,
    /// events, and a `run_summary` line per system.
    pub events_jsonl: Option<Vec<u8>>,
    /// The Chrome `trace_event` document, when requested: one span per
    /// system plus instants on per-event-kind lanes, on a shared
    /// timeline (1 user instruction = 1 µs).
    pub chrome_trace: Option<Vec<u8>>,
}

/// Gap inserted between systems on the shared Chrome timeline.
const TIMELINE_GAP: u64 = 1_000;

/// Runs the telemetry pass. `want_events` / `want_chrome` select which
/// export streams to materialize; histograms are always computed.
///
/// # Panics
///
/// Panics if a configuration or the workload fails to build (both come
/// from validated presets or CLI-checked values).
pub fn run(cfg: &Config, want_events: bool, want_chrome: bool, reporter: &Reporter) -> Telemetry {
    let mut runs = Vec::with_capacity(cfg.configs.len());
    let mut jsonl_buf: Vec<u8> = Vec::new();
    let mut chrome = want_chrome.then(|| ChromeTraceSink::new(Vec::new()));
    let mut base = 0u64;

    for config in &cfg.configs {
        let started = Instant::now();
        let mut system =
            config.build().unwrap_or_else(|e| panic!("telemetry {}: {e}", config.system));
        let mut trace =
            cfg.workload.build(cfg.seed).unwrap_or_else(|e| panic!("telemetry workload: {e}"));
        // Warm up at full speed, un-instrumented.
        system.run(&mut trace, cfg.exec.warmup);

        // Attach the full stack for the measurement phase. Disabled
        // streams still type-check as sinks but skip all I/O.
        if want_events {
            let marker = Value::obj([
                ("t", 0u64.into()),
                ("ev", "run_start".into()),
                ("system", config.system.label().into()),
            ]);
            jsonl_buf.extend_from_slice(marker.to_string().as_bytes());
            jsonl_buf.push(b'\n');
        }
        let jsonl = want_events.then(|| JsonlSink::new(&mut jsonl_buf));
        let sink = Tee(StatsSink::default(), Tee(jsonl, Shift { base, inner: chrome.as_mut() }));
        let mut system = system.with_sink(sink);
        system.reset_counters();
        system.run(&mut trace, cfg.exec.measure);
        let report = system.report();
        let Tee(stats, Tee(jsonl, _)) = system.into_sink();

        let snapshot = stats.snapshot().expect("StatsSink always snapshots");
        if let Some(jsonl) = jsonl {
            if let Err(e) = jsonl.finish() {
                reporter.progress(format!("telemetry: JSONL write failed: {e}"));
            }
            jsonl_buf.extend_from_slice(
                summary_line(config.system.label(), report.counts.user_instrs, &snapshot)
                    .to_string()
                    .as_bytes(),
            );
            jsonl_buf.push(b'\n');
        }
        if let Some(chrome) = chrome.as_mut() {
            chrome.span(
                config.system.label(),
                base,
                base + report.counts.user_instrs,
                [
                    ("instrs", report.counts.user_instrs.into()),
                    ("tlb_misses", snapshot.total_tlb_misses().into()),
                    ("walks", snapshot.counters.walks[0].into()),
                ],
            );
        }
        base += report.counts.user_instrs + TIMELINE_GAP;
        reporter.detail(format!(
            "  [telemetry] {} done in {:.2}s ({} events captured)",
            config.system.label(),
            started.elapsed().as_secs_f64(),
            snapshot.total_tlb_misses(),
        ));
        runs.push(SystemRun { report, snapshot });
    }

    Telemetry {
        runs,
        events_jsonl: want_events.then_some(jsonl_buf),
        chrome_trace: chrome.map(|c| c.finish().expect("Vec<u8> writes cannot fail")),
    }
}

impl Telemetry {
    /// The per-system histogram summary table: walk latency (p50 / p90 /
    /// max cycles), handler footprint (mean memory references per walk),
    /// and inter-miss distance (median instructions between TLB misses).
    pub fn render_summary(&self) -> String {
        let mut t = TextTable::new([
            "system",
            "tlb-misses",
            "walks",
            "walk-cyc p50",
            "p90",
            "max",
            "memrefs mean",
            "inter-miss p50",
        ]);
        for run in &self.runs {
            let s = &run.snapshot;
            let wc = s.walk_cycles.summary();
            let im = s.inter_miss.summary();
            t.row([
                run.report.system.clone(),
                s.total_tlb_misses().to_string(),
                wc.count.to_string(),
                wc.p50.to_string(),
                wc.p90.to_string(),
                wc.max.to_string(),
                format!("{:.2}", s.walk_memrefs.mean()),
                im.p50.to_string(),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm_obs::json;
    use vm_trace::presets;

    fn tiny() -> Config {
        let mut cfg = Config::paper_systems(
            presets::ijpeg_spec(),
            ExecConfig { warmup: 2_000, measure: 20_000, jobs: 1 },
        );
        cfg.configs.truncate(2); // ULTRIX + MACH keep the test fast
        cfg
    }

    #[test]
    fn stats_only_pass_populates_snapshots() {
        let t = run(&tiny(), false, false, &Reporter::silent());
        assert_eq!(t.runs.len(), 2);
        assert!(t.events_jsonl.is_none());
        assert!(t.chrome_trace.is_none());
        for r in &t.runs {
            assert_eq!(r.report.counts.user_instrs, 20_000);
            assert_eq!(r.report.obs.as_ref(), Some(&r.snapshot));
            // ULTRIX/MACH software-walk: every user walk is histogrammed.
            assert_eq!(r.snapshot.walk_cycles.count(), r.snapshot.counters.walks[0]);
        }
        let table = t.render_summary();
        assert!(table.contains("ULTRIX"), "{table}");
        assert!(table.contains("walk-cyc p50"), "{table}");
    }

    #[test]
    fn jsonl_stream_has_markers_events_and_summaries() {
        let t = run(&tiny(), true, false, &Reporter::silent());
        let text = String::from_utf8(t.events_jsonl.unwrap()).unwrap();
        let mut starts = 0;
        let mut summaries = 0;
        let mut events = 0;
        for line in text.lines() {
            let v = json::parse(line).expect("every line is one JSON object");
            assert!(v.get("t").is_some() && v.get("ev").is_some(), "stable schema: {line}");
            match v.get("ev").unwrap().as_str().unwrap() {
                "run_start" => starts += 1,
                "run_summary" => summaries += 1,
                _ => events += 1,
            }
        }
        assert_eq!(starts, 2);
        assert_eq!(summaries, 2);
        assert!(events > 0, "instrumented runs must emit events");
    }

    #[test]
    fn chrome_trace_parses_with_one_span_per_system() {
        let t = run(&tiny(), false, true, &Reporter::silent());
        let text = String::from_utf8(t.chrome_trace.unwrap()).unwrap();
        let doc = json::parse(&text).expect("chrome trace must be valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let spans: Vec<_> =
            events.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")).collect();
        assert_eq!(spans.len(), 2);
        // The second system's span starts after the first one ends.
        let end0 = spans[0].get("ts").unwrap().as_u64().unwrap()
            + spans[0].get("dur").unwrap().as_u64().unwrap();
        assert!(spans[1].get("ts").unwrap().as_u64().unwrap() >= end0);
    }
}

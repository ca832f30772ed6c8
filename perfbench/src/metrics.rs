//! The metric tables (kept equal to `BENCHMARK.json` by a test) and the
//! result line.

use std::fmt::Write as _;

/// One declared metric: name, unit, and which direction is better.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// End-to-end metrics, printed with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s", "lower"),
    ("sim_minstr_per_s", "Minstr/s", "higher"),
    ("points_per_s", "points/s", "higher"),
    ("jobs_per_s", "jobs/s", "higher"),
    ("job_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_ratio", "ratio", "higher"),
];

/// Per-layer metrics, printed by the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    ("trace.synth_mrec_per_s.gcc", "Mrec/s", "higher"),
    ("trace.synth_mrec_per_s.vortex", "Mrec/s", "higher"),
    ("trace.synth_mrec_per_s.ijpeg", "Mrec/s", "higher"),
    ("core.minstr_per_s.BASE", "Minstr/s", "higher"),
    ("core.minstr_per_s.ULTRIX", "Minstr/s", "higher"),
    ("core.minstr_per_s.MACH", "Minstr/s", "higher"),
    ("core.minstr_per_s.INTEL", "Minstr/s", "higher"),
    ("core.minstr_per_s.PA-RISC", "Minstr/s", "higher"),
    ("core.minstr_per_s.NOTLB", "Minstr/s", "higher"),
    ("explore.point_minstr_per_s", "Minstr/s", "higher"),
    ("explore.unattributed_share", "ratio", "lower"),
    ("explore.min_sweep_ms", "ms", "lower"),
    ("tlb.ns_per_op", "ns", "lower"),
    ("tlb.lookups", "count", "lower"),
    ("tlb.misses", "count", "lower"),
    ("cache.ns_per_access", "ns", "lower"),
    ("cache.l1_misses", "count", "lower"),
    ("cache.l2_misses", "count", "lower"),
    ("ptable.ns_per_refill.ultrix", "ns", "lower"),
    ("ptable.ns_per_refill.mach", "ns", "lower"),
    ("ptable.ns_per_refill.intel", "ns", "lower"),
    ("ptable.ns_per_refill.pa-risc", "ns", "lower"),
    ("ptable.ns_per_refill.notlb", "ns", "lower"),
    ("ptable.walks", "count", "lower"),
    ("ptable.pte_loads", "count", "lower"),
    ("obs.stats_sink_ratio", "ratio", "lower"),
    ("serve.health_rtt_us", "us", "lower"),
    ("serve.connect_ms", "ms", "lower"),
    ("serve.job_overhead_ms", "ms", "lower"),
    ("serve.parse_request_ms", "ms", "lower"),
    ("serve.ingest.chunk_ms", "ms", "lower"),
    ("serve.ingest.commit_ms", "ms", "lower"),
    ("trace.library_load_mrec_per_s", "Mrec/s", "higher"),
    ("fleet.overhead_ms_per_point", "ms", "lower"),
    ("fleet.efficiency", "ratio", "higher"),
    ("fleet.dispatches", "count", "lower"),
    ("fleet.useful_dispatch_ratio", "ratio", "higher"),
    ("fleet.evictions", "count", "lower"),
    ("tracing.overhead_pct", "%", "lower"),
    ("spans.unattributed_share", "ratio", "lower"),
];

/// Measured values, in the order they were pushed.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(&'static str, f64)>);

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _, _)| *n == name)
        .map(|(_, u, _)| *u)
        .unwrap_or_else(|| panic!("metric `{name}` is not declared"))
}

impl Metrics {
    /// Records `value` for the declared metric `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        self.0.push((name, value));
    }

    /// Appends every metric of `other`.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// `(name, value, unit)` in push order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.0.iter().map(|&(n, v)| (n, v, unit_of(n)))
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Checks that exactly the metrics of `table` were recorded, once
    /// each, with finite values.
    pub fn check_names(&self, table: &[MetricDef]) -> Result<(), String> {
        let mut got: Vec<&str> = self.0.iter().map(|(n, _)| *n).collect();
        let mut want: Vec<&str> = table.iter().map(|(n, _, _)| *n).collect();
        got.sort_unstable();
        want.sort_unstable();
        if got != want {
            return Err(format!("metrics printed {got:?} but the table declares {want:?}"));
        }
        match self.0.iter().find(|(_, v)| !v.is_finite()) {
            Some((n, v)) => Err(format!("metric `{n}` measured no finite value ({v})")),
            None => Ok(()),
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm_obs::json::{self, Value};

    fn declared(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_owned();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn table(t: &[MetricDef]) -> Vec<(String, String, String)> {
        t.iter().map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string())).collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = json::parse(text).expect("BENCHMARK.json parses");
        assert_eq!(declared(&doc, "end_to_end"), table(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), table(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut m = Metrics::default();
        for (i, (name, _, _)) in END_TO_END.iter().enumerate() {
            m.push(name, 0.5 + i as f64);
        }
        m.check_names(END_TO_END).unwrap();
        let line = json::parse(&m.to_json(true, 10, 0)).expect("result line is JSON");
        assert_eq!(line.get("attempted").and_then(Value::as_u64), Some(10));
        let metrics = line.get("metrics").unwrap();
        for (name, unit, _) in END_TO_END {
            let entry = metrics.get(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(*unit));
            assert!(entry.get("value").and_then(Value::as_f64).is_some());
        }
        let mut short = Metrics::default();
        short.push("setup_s", 1.0);
        assert!(short.check_names(END_TO_END).is_err());
    }
}

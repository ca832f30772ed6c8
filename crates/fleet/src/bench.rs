//! The fleet scaling curve behind `BENCH_serve.json`.
//!
//! Boots N in-process daemons, runs one fixed small grid through the
//! full coordinator (shard, dispatch, merge — hedging off so the cost
//! measured is the steady-state pipeline, not straggler roulette), and
//! reports points/second. The committed 1/2/4-backend curve makes
//! scale-out regressions a number: if adding backends stops helping,
//! the dispatch loop got serial somewhere.

use vm_explore::{Axis, ExecConfig};
use vm_obs::json::Value;
use vm_obs::{NopSink, Reporter};
use vm_serve::{Client, ServeConfig, Server};

use crate::backend::Backend;
use crate::coordinator::{run_fleet, FleetOptions};
use crate::plan::fleet_plan;

/// One measured fleet throughput point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetBenchPoint {
    /// Backends the fleet ran.
    pub backends: usize,
    /// Sweep points pushed through the coordinator.
    pub points: usize,
    /// Wall time for the whole run, milliseconds.
    pub wall_ms: u64,
    /// Points completed per second.
    pub points_per_sec: f64,
}

impl FleetBenchPoint {
    /// Renders one row of the committed `fleet` array.
    pub fn to_value(&self) -> Value {
        Value::obj([
            ("backends", (self.backends as u64).into()),
            ("points", (self.points as u64).into()),
            ("wall_ms", self.wall_ms.into()),
            ("points_per_sec", ((self.points_per_sec * 100.0).round() / 100.0).into()),
        ])
    }
}

/// The fixed bench grid: ULTRIX × four TLB sizes × four L1 sizes at the
/// serve-bench run lengths (16 points of 1.25M instructions: the same
/// ~20M instructions as one serve-bench row, so a row measures
/// simulation rather than per-point dispatch cost).
fn bench_grid() -> (Vec<String>, Vec<Axis>, ExecConfig) {
    let spec = "[mmu]\nkind = \"software-tlb\"\ntable = \"two-tier\"\n".to_owned();
    let axes = vec![
        Axis::parse("tlb.entries=16,32,64,128").expect("static axis"),
        Axis::parse("cache.l1=8K,16K,32K,64K").expect("static axis"),
    ];
    (vec![spec], axes, ExecConfig { warmup: 250_000, measure: 1_000_000, jobs: 1 })
}

/// Runs the bench grid through a fleet of `backends` in-process
/// daemons and measures end-to-end points/second.
///
/// # Errors
///
/// Returns a message when a daemon fails to start or the fleet run
/// fails outright (point failures would also be a bench failure — the
/// grid is known-good).
pub fn fleet_throughput(backends: usize) -> Result<FleetBenchPoint, String> {
    let (specs, axes, exec) = bench_grid();
    let fplan = fleet_plan(&specs, &axes)?;
    let points = fplan.plan.points.len();

    let mut servers = Vec::new();
    for _ in 0..backends {
        let config = ServeConfig {
            workers: 1,
            // The coordinator keeps one job in flight per backend; the
            // queue only needs headroom, and degrade must never fire
            // (a clamp would change results).
            queue_cap: 8,
            degrade_depth: 9,
            ..ServeConfig::default()
        };
        let server = Server::start(config).map_err(|e| format!("cannot start daemon: {e}"))?;
        let addr = server.local_addr().map_err(|e| format!("no local addr: {e}"))?;
        let handle = std::thread::spawn(move || server.serve());
        servers.push((addr, handle));
    }
    let fleet: Vec<Backend> = servers
        .iter()
        .enumerate()
        .map(|(id, (addr, _))| Backend::from_addr(id, addr.to_string()))
        .collect();

    let opts = FleetOptions {
        hedge_after: None,
        poll: std::time::Duration::from_millis(2),
        ..FleetOptions::default()
    };
    let started = std::time::Instant::now();
    let run = run_fleet(
        &fplan,
        &exec,
        fleet,
        &opts,
        &Reporter::silent(),
        &mut NopSink,
        None,
        crate::coordinator::FleetSession::default(),
    );
    let wall = started.elapsed();

    for (addr, handle) in servers {
        if let Ok(mut client) = Client::connect(addr) {
            let _ = client.request(&Value::obj([("req", "drain".into())]));
        }
        let _ = handle.join();
    }
    let outcome = run?;
    if !outcome.merged.failures.is_empty() {
        return Err(format!("bench grid had {} point failure(s)", outcome.merged.failures.len()));
    }
    let wall_ms = wall.as_millis().max(1) as u64;
    let points_per_sec = points as f64 / wall.as_secs_f64().max(1e-9);
    Ok(FleetBenchPoint { backends, points, wall_ms, points_per_sec })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_rows_render_the_committed_shape() {
        let p = FleetBenchPoint { backends: 2, points: 8, wall_ms: 120, points_per_sec: 66.666_7 };
        let v = p.to_value();
        assert_eq!(v.get("backends").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get("points").and_then(Value::as_u64), Some(8));
        assert_eq!(v.get("wall_ms").and_then(Value::as_u64), Some(120));
        assert_eq!(v.get("points_per_sec").and_then(Value::as_f64), Some(66.67));
    }

    #[test]
    fn the_bench_grid_is_stable() {
        let (specs, axes, exec) = bench_grid();
        let fplan = fleet_plan(&specs, &axes).unwrap();
        assert_eq!(fplan.plan.points.len(), 16, "the committed curve assumes 16 points");
        assert_eq!((exec.warmup, exec.measure), (250_000, 1_000_000));
    }
}

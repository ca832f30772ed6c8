//! The `serve-bench` throughput harness behind `BENCH_serve.json`.
//!
//! Boots an in-process daemon, pushes a batch of sweep jobs through the
//! full wire protocol (submit → poll → result → drain), and reports
//! jobs/second. The committed baseline pins the two interesting worker
//! counts (1 and 4) so a scheduling or admission regression shows up as
//! a number, not a vibe. Each job simulates enough instructions that a
//! default batch is over a second of simulation: the rows measure work,
//! not the daemon's fixed per-job cost.

use vm_obs::json::Value;

use crate::client::Client;
use crate::server::{ServeConfig, Server};

/// One measured throughput point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchPoint {
    /// Worker threads the daemon ran.
    pub workers: usize,
    /// Jobs pushed through.
    pub jobs: usize,
    /// Sweep points per job.
    pub points_per_job: usize,
    /// Simulated instructions per point, warm-up plus measured.
    pub instrs_per_point: u64,
    /// Wall time for the whole batch, milliseconds.
    pub wall_ms: u64,
    /// Jobs completed per second.
    pub jobs_per_sec: f64,
}

/// Warm-up and measured instructions per bench point: 1.25M, so the
/// default 8-job batch (16 points) is about a second of simulation on
/// one core.
const BENCH_LENGTHS: (u64, u64) = (250_000, 1_000_000);

/// The bench sweep: ULTRIX × two TLB sizes at the given run lengths.
fn bench_submit((warmup, measure): (u64, u64)) -> Value {
    Value::obj([
        ("req", "submit".into()),
        ("spec", "[mmu]\nkind = \"software-tlb\"\ntable = \"two-tier\"\n".into()),
        ("sweep", Value::Arr(vec!["tlb.entries=32,64".into()])),
        ("warmup", warmup.into()),
        ("measure", measure.into()),
    ])
}

/// Pushes `jobs` bench sweeps through a fresh daemon with `workers`
/// worker threads and measures end-to-end jobs/second.
///
/// # Errors
///
/// Returns a message when the daemon fails to start or the protocol
/// round-trips fail.
pub fn throughput(workers: usize, jobs: usize) -> Result<BenchPoint, String> {
    batch_throughput(workers, jobs, BENCH_LENGTHS)
}

fn batch_throughput(
    workers: usize,
    jobs: usize,
    lengths: (u64, u64),
) -> Result<BenchPoint, String> {
    let config = ServeConfig {
        workers,
        // Benchmarks measure throughput, not shedding: size the queue to
        // the batch and park the degrade watermark above it.
        queue_cap: jobs.max(1),
        degrade_depth: jobs.max(1) + 1,
        ..ServeConfig::default()
    };
    let server = Server::start(config).map_err(|e| format!("cannot start daemon: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("no local addr: {e}"))?;
    let serve = std::thread::spawn(move || server.serve());

    let run = || -> Result<(u64, f64), String> {
        let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let started = std::time::Instant::now();
        let mut ids = Vec::with_capacity(jobs);
        for _ in 0..jobs {
            let resp = client.request(&bench_submit(lengths))?;
            match resp.get("job").and_then(Value::as_u64) {
                Some(id) => ids.push(id),
                None => return Err(format!("submit rejected: {resp}")),
            }
        }
        for id in ids {
            loop {
                let resp =
                    client.request(&Value::obj([("req", "status".into()), ("job", id.into())]))?;
                match resp.get("state").and_then(Value::as_str) {
                    Some("done") => break,
                    Some("failed") | Some("cancelled") => {
                        return Err(format!("job {id} did not complete: {resp}"))
                    }
                    _ => std::thread::sleep(std::time::Duration::from_millis(2)),
                }
            }
        }
        let wall = started.elapsed();
        let wall_ms = wall.as_millis().max(1) as u64;
        let jobs_per_sec = jobs as f64 / wall.as_secs_f64().max(1e-9);
        client.request(&Value::obj([("req", "drain".into())]))?;
        Ok((wall_ms, jobs_per_sec))
    };
    let measured = run();
    let _ = serve.join();
    let (wall_ms, jobs_per_sec) = measured?;
    Ok(BenchPoint {
        workers,
        jobs,
        points_per_job: 2,
        instrs_per_point: lengths.0 + lengths.1,
        wall_ms,
        jobs_per_sec,
    })
}

/// Renders the committed `BENCH_serve.json` body: the single-daemon
/// throughput rows plus a fleet scaling curve. The fleet rows are
/// passed pre-rendered (`vm-fleet` sits above this crate and owns
/// their shape); schema `2` added the `fleet` array, schema `3` grew
/// the jobs to a measurable size and added `instrs_per_point`.
pub fn bench_json(points: &[BenchPoint], fleet: &[Value]) -> Value {
    Value::obj([
        ("schema", "vm-serve-bench/3".into()),
        (
            "results",
            Value::Arr(
                points
                    .iter()
                    .map(|p| {
                        Value::obj([
                            ("workers", (p.workers as u64).into()),
                            ("jobs", (p.jobs as u64).into()),
                            ("points_per_job", (p.points_per_job as u64).into()),
                            ("instrs_per_point", p.instrs_per_point.into()),
                            ("wall_ms", p.wall_ms.into()),
                            ("jobs_per_sec", ((p.jobs_per_sec * 100.0).round() / 100.0).into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("fleet", Value::Arr(fleet.to_vec())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_schema_is_stable() {
        let p = BenchPoint {
            workers: 1,
            jobs: 4,
            points_per_job: 2,
            instrs_per_point: 1_250_000,
            wall_ms: 250,
            jobs_per_sec: 16.004,
        };
        let fleet_row = Value::obj([("backends", 2u64.into()), ("points", 8u64.into())]);
        let v = bench_json(&[p], &[fleet_row]);
        assert_eq!(v.get("schema").and_then(Value::as_str), Some("vm-serve-bench/3"));
        let row = &v.get("results").unwrap().as_array().unwrap()[0];
        assert_eq!(row.get("workers").and_then(Value::as_u64), Some(1));
        assert_eq!(row.get("instrs_per_point").and_then(Value::as_u64), Some(1_250_000));
        assert_eq!(row.get("jobs_per_sec").and_then(Value::as_f64), Some(16.0));
        let fleet = v.get("fleet").unwrap().as_array().unwrap();
        assert_eq!(fleet.len(), 1);
        assert_eq!(fleet[0].get("backends").and_then(Value::as_u64), Some(2));
    }

    #[test]
    fn throughput_round_trips_a_small_batch() {
        // Debug-build tests run a small batch; the committed rows use
        // BENCH_LENGTHS through the same path.
        let p = batch_throughput(2, 3, (2_000, 10_000)).unwrap();
        assert_eq!((p.workers, p.jobs, p.instrs_per_point), (2, 3, 12_000));
        assert!(p.jobs_per_sec > 0.0);
    }
}

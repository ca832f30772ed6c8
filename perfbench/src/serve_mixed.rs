//! `serve-mixed`: a closed loop of small jobs and trace uploads against
//! one in-process `vm_serve` daemon with two worker threads.
//!
//! Connection 1 submits small two-point sweep jobs back to back and
//! waits for each result. Connection 2 uploads a fresh binary trace of
//! tens of KB in one chunk (`upload-begin`/`-chunk`/`-commit`), then
//! submits and waits for a `trace:NAME` job that replays it. The
//! simulator does little work here, so protocol, executor and ingest
//! fixed costs set the numbers.

use std::time::Instant;

use vm_core::SimReport;
use vm_explore::{result_from_value, Axis, ExecConfig, PointResult, SweepPlan, SystemSpec};
use vm_obs::json::Value;
use vm_serve::{hex64, Client};
use vm_trace::wire::{b64_encode, fnv1a, Fnv1a};
use vm_trace::InstrRecord;
use vm_types::SplitMix64;

use crate::check::{check_all, check_same, in_process, Expected};
use crate::daemon::{code, connect_healthy, fresh_state_dir, Daemon, POLL};
use crate::paper_grid::{PAPER_SPECS, WORKLOADS};
use crate::spans::{SpanCtx, Tracer};
use crate::stats::digest_result;
use crate::Phase;

/// Run lengths of a synthetic job's points (~50k instructions each).
pub const JOB_EXEC: ExecConfig = ExecConfig { warmup: 10_000, measure: 40_000, jobs: 1 };
/// Records in each uploaded trace (~40 KB encoded).
pub const REPLAY_RECORDS: usize = 3_000;
/// Run lengths of a replay job: the whole uploaded trace.
pub const REPLAY_EXEC: ExecConfig = ExecConfig { warmup: 1_000, measure: 2_000, jobs: 1 };
/// Distinct traces generated per run; later uploads reuse them under
/// fresh names.
const TRACE_POOL: usize = 48;
/// Set-ups timed per run; the median is reported.
const SETUP_REPS: usize = 7;
/// Shapes and replay traces whose results form the digest.
const DIGEST_REPLAYS: usize = 8;

/// A spec's text with the run's trace seed appended.
pub fn seeded_spec(text: &str, trace_seed: u64) -> String {
    format!("{text}\n[workload]\nseed = {trace_seed}\n")
}

/// One synthetic job shape: a paper spec, one workload, two L1 sizes.
pub struct Shape {
    /// Spec text sent with the job.
    pub spec: String,
    /// Sweep axes sent with the job.
    pub sweep: Vec<String>,
    /// The plan the daemon expands it to.
    pub plan: SweepPlan,
}

impl Shape {
    fn new(spec: String, sweep: Vec<String>) -> Result<Shape, String> {
        let base = SystemSpec::parse(&spec).map_err(|e| e.to_string())?;
        let axes = sweep.iter().map(|a| Axis::parse(a)).collect::<Result<Vec<_>, _>>()?;
        let plan = SweepPlan::expand(&base, &axes)?;
        Ok(Shape { spec, sweep, plan })
    }

    /// The `submit` request for this shape at `exec` scale.
    pub fn submit(&self, exec: &ExecConfig) -> Value {
        Value::obj([
            ("req", "submit".into()),
            ("spec", self.spec.clone().into()),
            ("sweep", Value::Arr(self.sweep.iter().map(|s| s.clone().into()).collect())),
            ("warmup", exec.warmup.into()),
            ("measure", exec.measure.into()),
        ])
    }
}

/// The 18 synthetic job shapes for `trace_seed`.
pub fn shapes(trace_seed: u64) -> Result<Vec<Shape>, String> {
    let mut out = Vec::new();
    for text in PAPER_SPECS {
        for w in WORKLOADS {
            out.push(Shape::new(
                seeded_spec(text, trace_seed),
                vec![format!("workload.name={w}"), "cache.l1=8K,16K".to_owned()],
            )?);
        }
    }
    Ok(out)
}

/// One trace of the upload pool, with its reference report.
pub struct PoolTrace {
    /// The encoded binary trace.
    pub bytes: Vec<u8>,
    /// Which paper spec its replay job runs.
    pub spec: usize,
    report: SimReport,
}

/// The `k`-th upload's pool trace, library name and replay shape.
pub fn replay_shape(k: usize, pool: &[PoolTrace], trace_seed: u64) -> Result<Shape, String> {
    let t = &pool[k % pool.len()];
    Shape::new(
        seeded_spec(PAPER_SPECS[t.spec], trace_seed),
        vec![format!("workload.name=trace:{}", upload_name(k))],
    )
}

/// The library name of the `k`-th upload.
pub fn upload_name(k: usize) -> String {
    format!("bench-{k}")
}

/// Builds the upload pool: fresh records from the paper presets, encoded
/// in the binary trace format, decoded again, and simulated directly.
pub fn trace_pool(trace_seed: u64, size: usize) -> Result<Vec<PoolTrace>, String> {
    let mut rng = SplitMix64::new(trace_seed ^ 0x7570_6c6f_6164);
    (0..size)
        .map(|i| {
            let preset = vm_trace::presets::by_name(WORKLOADS[i % WORKLOADS.len()])
                .expect("paper presets exist");
            let trace = preset.build(rng.next_u64() >> 16).map_err(|e| e.to_string())?;
            let mut bytes = Vec::new();
            vm_trace::write_trace(&mut bytes, trace.take(REPLAY_RECORDS))
                .map_err(|e| e.to_string())?;
            let decoded: Vec<InstrRecord> = vm_trace::read_trace(&bytes[..])
                .and_then(|r| r.collect::<Result<Vec<_>, _>>())
                .map_err(|e| format!("pool trace {i} does not decode: {e}"))?;
            let spec = i % PAPER_SPECS.len();
            let config = SystemSpec::parse(PAPER_SPECS[spec])
                .map_err(|e| e.to_string())?
                .validate()
                .map_err(|e| e.msg)?;
            let report =
                vm_core::simulate(&config, decoded, REPLAY_EXEC.warmup, REPLAY_EXEC.measure)
                    .map_err(|e| e.to_string())?;
            Ok(PoolTrace { bytes, spec, report })
        })
        .collect()
}

/// The `upload-chunk` request line carrying all of `bytes` as chunk 0.
pub fn chunk_line(upload: u64, bytes: &[u8]) -> String {
    Value::obj([
        ("req", "upload-chunk".into()),
        ("upload", upload.into()),
        ("seq", 0u64.into()),
        ("fnv", hex64(fnv1a(bytes)).into()),
        ("data", b64_encode(bytes).into()),
    ])
    .to_string()
}

/// Round-trip times of an upload's chunk and commit, in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct UploadTimes {
    /// `upload-chunk` round trip.
    pub chunk_ms: f64,
    /// `upload-commit` round trip.
    pub commit_ms: f64,
}

/// Uploads `bytes` as library trace `name` in one chunk.
pub fn upload(
    client: &mut Client,
    name: &str,
    bytes: &[u8],
    tracer: &Tracer,
    parent: SpanCtx,
    id: u64,
) -> Result<UploadTimes, String> {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let begin = tracer.span(parent, "serve.upload_begin", id, |_| {
        client.request(&Value::obj([
            ("req", "upload-begin".into()),
            ("name", name.into()),
            ("bytes", (bytes.len() as u64).into()),
            ("fnv", hex64(fnv1a(bytes)).into()),
        ]))
    })?;
    if code(&begin) != 200 {
        return Err(format!("upload-begin of `{name}` refused: {begin}"));
    }
    let upload = begin.get("upload").and_then(Value::as_u64).ok_or("upload-begin gave no id")?;
    let t1 = Instant::now();
    let chunk = tracer.span(parent, "serve.upload_chunk", id, |_| {
        client.request_line(&chunk_line(upload, bytes))
    })?;
    let chunk_ms = ms(t1);
    if code(&chunk) != 200 {
        return Err(format!("upload-chunk of `{name}` refused: {chunk}"));
    }
    let t2 = Instant::now();
    let commit = tracer.span(parent, "serve.upload_commit", id, |_| {
        client.request(&Value::obj([("req", "upload-commit".into()), ("upload", upload.into())]))
    })?;
    let commit_ms = ms(t2);
    if code(&commit) != 200 {
        return Err(format!("upload-commit of `{name}` refused: {commit}"));
    }
    Ok(UploadTimes { chunk_ms, commit_ms })
}

/// Submits `request` and polls until the job's results are in. Returns
/// the results (in point order); a shed, degraded, failed or partial
/// job is an error.
pub fn run_job(
    client: &mut Client,
    request: &Value,
    tracer: &Tracer,
    parent: SpanCtx,
    id: u64,
) -> Result<Vec<PointResult>, String> {
    let submit = tracer.span(parent, "serve.submit", id, |_| client.request(request))?;
    if code(&submit) != 200 {
        return Err(format!("submit refused: {submit}"));
    }
    if submit.get("degraded") == Some(&Value::Bool(true)) {
        return Err("job was degraded to quick scale".to_owned());
    }
    let job = submit.get("job").and_then(Value::as_u64).ok_or("submit gave no job id")?;
    let poll = Value::obj([("req", "result".into()), ("job", job.into())]);
    // The await span's self time is the client's wait between polls.
    tracer.span(parent, "serve.await", id, |wait| loop {
        let resp = tracer.span(wait, "serve.result", id, |_| client.request(&poll))?;
        match code(&resp) {
            202 => std::thread::sleep(POLL),
            200 => {
                let failures = resp.get("failures").and_then(Value::as_array).map_or(0, <[_]>::len);
                if failures > 0 {
                    return Err(format!("job {job} had {failures} failed point(s): {resp}"));
                }
                return resp
                    .get("results")
                    .and_then(Value::as_array)
                    .ok_or_else(|| format!("job {job} result has no `results`"))?
                    .iter()
                    .map(result_from_value)
                    .collect();
            }
            _ => return Err(format!("job {job} did not complete: {resp}")),
        }
    })
}

/// The workload, ready to run.
pub struct ServeMixed {
    trace_seed: u64,
    daemon: Daemon,
    clients: Option<[Client; 2]>,
    shapes: Vec<Shape>,
    shape_refs: Vec<Vec<PointResult>>,
    pool: Vec<PoolTrace>,
    /// Uploads so far: library names are never reused within a daemon.
    uploads: usize,
}

impl ServeMixed {
    /// Sets the daemon up [`SETUP_REPS`] times (state directory, start,
    /// two connections, health checks), keeping the last one, then
    /// computes the references outside all timing: each job shape by an
    /// in-process sweep, each pool trace by direct simulation.
    pub fn prepare(trace_seed: u64) -> Result<(ServeMixed, Vec<f64>), String> {
        let mut setup = Vec::new();
        let mut kept = None;
        for _ in 0..SETUP_REPS {
            drop(kept.take());
            let t0 = Instant::now();
            let daemon = Daemon::start(2, Some(fresh_state_dir("serve-mixed")?))?;
            let clients = [connect_healthy(daemon.addr)?, connect_healthy(daemon.addr)?];
            let shapes = shapes(trace_seed)?;
            setup.push(t0.elapsed().as_secs_f64());
            kept = Some((daemon, clients, shapes));
        }
        let (daemon, clients, shapes) = kept.expect("SETUP_REPS > 0");
        let shape_refs =
            shapes.iter().map(|s| in_process(&s.plan, &JOB_EXEC)).collect::<Result<Vec<_>, _>>()?;
        let pool = trace_pool(trace_seed, TRACE_POOL)?;
        Ok((
            ServeMixed {
                trace_seed,
                daemon,
                clients: Some(clients),
                shapes,
                shape_refs,
                pool,
                uploads: 0,
            },
            setup,
        ))
    }

    /// Runs both connections until `seconds` have passed; neither starts
    /// a new job after that.
    pub fn run(&mut self, seconds: f64, tracer: &Tracer) -> Phase {
        let start = Instant::now();
        let deadline = start + std::time::Duration::from_secs_f64(seconds);
        let [mut c1, mut c2] = self.clients.take().expect("clients are returned after each run");
        let this = &*self;
        let (sweeps, replays) = std::thread::scope(|s| {
            let a = s.spawn(|| this.sweep_loop(&mut c1, deadline, tracer));
            let b = s.spawn(|| this.replay_loop(&mut c2, deadline, tracer, this.uploads));
            (
                a.join().expect("sweep connection panicked"),
                b.join().expect("upload connection panicked"),
            )
        });
        self.clients = Some([c1, c2]);
        let wall_s = start.elapsed().as_secs_f64();
        let (mut phase, sweep_digest) = sweeps;
        let (replay_phase, replay_digest, uploads) = replays;
        self.uploads = uploads;
        phase.merge(replay_phase);
        phase.wall_s = wall_s;
        phase.digest = sweep_digest.zip(replay_digest).map(|(a, b)| {
            let mut h = Fnv1a::new();
            h.update(&a.to_le_bytes());
            h.update(&b.to_le_bytes());
            h.digest()
        });
        phase
    }

    /// Connection 1: synthetic sweep jobs, shapes in rotation. The digest
    /// covers the first job of every shape (`None` if a shape never ran).
    fn sweep_loop(
        &self,
        client: &mut Client,
        deadline: Instant,
        tracer: &Tracer,
    ) -> (Phase, Option<u64>) {
        let mut phase = Phase::default();
        let mut first: Vec<Option<Vec<PointResult>>> = vec![None; self.shapes.len()];
        tracer.span(SpanCtx::ROOT, "bench.loop", 0, |lp| {
            let mut k = 0usize;
            while Instant::now() < deadline {
                let shape = k % self.shapes.len();
                let id = 2 * k as u64;
                k += 1;
                phase.attempted += 1;
                let t0 = Instant::now();
                let got = tracer.span(lp, "bench.job", id, |jc| {
                    run_job(client, &self.shapes[shape].submit(&JOB_EXEC), tracer, jc, id)
                });
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let checked = got.and_then(|results| {
                    tracer.span(lp, "bench.check", id, |_| {
                        check_all(&results, &self.shape_refs[shape], check_same)?;
                        Ok(results)
                    })
                });
                match checked {
                    Ok(results) => {
                        phase.job_ms.push(ms);
                        phase.points += results.len() as u64;
                        phase.instrs += results.len() as u64 * (JOB_EXEC.warmup + JOB_EXEC.measure);
                        first[shape].get_or_insert(results);
                    }
                    Err(e) => {
                        phase.failed += 1;
                        phase.errors.push(e);
                    }
                }
            }
        });
        let digest = first.iter().all(Option::is_some).then(|| {
            let mut h = Fnv1a::new();
            first.iter().flatten().flatten().for_each(|r| digest_result(&mut h, r));
            h.digest()
        });
        (phase, digest)
    }

    /// Connection 2: upload a trace, then replay it as a job. Returns the
    /// phase, the digest of its first [`DIGEST_REPLAYS`] replays (`None`
    /// if fewer ran), and the next upload number.
    fn replay_loop(
        &self,
        client: &mut Client,
        deadline: Instant,
        tracer: &Tracer,
        first: usize,
    ) -> (Phase, Option<u64>, usize) {
        let mut phase = Phase::default();
        let mut h = Fnv1a::new();
        let mut digested = 0;
        let mut k = first;
        tracer.span(SpanCtx::ROOT, "bench.loop", 1, |lp| {
            while Instant::now() < deadline {
                let id = 2 * k as u64 + 1;
                let outcome = tracer
                    .span(lp, "bench.job", id, |jc| self.replay_once(client, k, tracer, jc, id));
                k += 1;
                phase.attempted += 2;
                match outcome {
                    Ok((upload_ms, job_ms, results)) => {
                        phase.upload_ms.push(upload_ms);
                        phase.job_ms.push(job_ms);
                        phase.points += results.len() as u64;
                        phase.instrs += REPLAY_RECORDS as u64 * results.len() as u64;
                        if digested < DIGEST_REPLAYS {
                            results.iter().for_each(|r| digest_result(&mut h, r));
                            digested += 1;
                        }
                    }
                    Err((failed, e)) => {
                        phase.failed += failed;
                        phase.errors.push(e);
                    }
                }
            }
        });
        (phase, (digested == DIGEST_REPLAYS).then(|| h.digest()), k)
    }

    /// Upload `k` and its replay job: (upload ms, job ms, results), or
    /// the failed-operation count and why.
    #[allow(clippy::type_complexity)]
    fn replay_once(
        &self,
        client: &mut Client,
        k: usize,
        tracer: &Tracer,
        parent: SpanCtx,
        id: u64,
    ) -> Result<(f64, f64, Vec<PointResult>), (u64, String)> {
        let trace = &self.pool[k % self.pool.len()];
        let name = upload_name(k);
        let t0 = Instant::now();
        upload(client, &name, &trace.bytes, tracer, parent, id).map_err(|e| (2, e))?;
        let upload_ms = t0.elapsed().as_secs_f64() * 1e3;
        let shape = replay_shape(k, &self.pool, self.trace_seed).map_err(|e| (1, e))?;
        let expected: Vec<Expected> = shape
            .plan
            .points
            .iter()
            .map(|p| Expected::from_report(p, &REPLAY_EXEC, &trace.report))
            .collect();
        let t1 = Instant::now();
        let results =
            run_job(client, &shape.submit(&REPLAY_EXEC), tracer, parent, id).map_err(|e| (1, e))?;
        let job_ms = t1.elapsed().as_secs_f64() * 1e3;
        tracer
            .span(parent, "bench.check", id, |_| check_all(&results, &expected, |r, e| e.check(r)))
            .map_err(|e| (1, e))?;
        Ok((upload_ms, job_ms, results))
    }

    /// Drains the daemon and removes its state.
    pub fn finish(self) -> Result<(), String> {
        drop(self.clients);
        self.daemon.stop()
    }
}

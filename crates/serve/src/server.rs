//! The daemon: listener, admission control, worker pool, graceful drain.
//!
//! Structure: one blocking accept loop (a drain wakes it with a loopback
//! connect, then it sees the drain flag),
//! detached connection threads speaking the
//! [`crate::proto`] line protocol, and a fixed pool of worker threads
//! draining a bounded job queue. All mutable state lives under a single
//! mutex (queue + job registry + id counter), so admission checks and
//! queue pushes are atomic and lock ordering is trivial.
//!
//! Robustness invariants:
//!
//! * **Admission control** — the queue is bounded; a submission past the
//!   cap (or while draining) is rejected with an explicit `503` +
//!   `"shed":true`, never silently dropped or unboundedly buffered.
//! * **Degraded fidelity** — past the degrade watermark, new jobs are
//!   clamped to quick run lengths; the clamp is recorded in the job, in
//!   the submit response, and in the persisted state file (so a resumed
//!   job reruns at the *same* fidelity, keeping bit-identity).
//! * **Isolation** — each job runs under `catch_unwind` on top of the
//!   per-point isolation `run_sweep_hardened` already provides; a
//!   connection handler panic answers `500` and the daemon lives on.
//!   With `worker_processes > 0`, points execute in supervised worker
//!   subprocesses (`vm-supervise`), so even a SIGSEGV, `abort()`, or
//!   OOM kill costs the affected job a `500` — never the daemon.
//! * **Drain** — a `drain` request and [`Server::drain_handle`] (which
//!   the binary's SIGTERM/SIGINT handling calls) take the same path: stop admitting, cancel running sweeps
//!   cooperatively (the in-flight point finishes and is journaled),
//!   join workers, flush telemetry, and report a summary. Queued and
//!   interrupted jobs are re-queued from the state directory on restart
//!   (`resume`), and their merged results are bit-identical to an
//!   uninterrupted run.

use std::collections::{BTreeMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use vm_explore::{run_header, run_sweep_hardened, seeded_from_journal, HardenPolicy, PointResult};
use vm_harden::{
    classify_panic, quiet_panics, ChaosPlan, FailureKind, Journal, JournalWriter, RetryPolicy,
    SimError, SyncWrite,
};
use vm_obs::json::Value;
use vm_obs::{Event, JsonlSink, LogHist, NopSink, Reporter, Sink};
use vm_supervise::{PoolConfig, WorkerCommand, WorkerPool};

use crate::ingest::{ConnQuota, Ingest, IngestSettings};
use crate::job::{JobOutcome, JobSpec, JobState};
use crate::watch::{self, SubNext, WatchHub};

use crate::proto::{
    self, ok_response, parse_request, ProtoError, Request, Scale, SubmitRequest, PROTO_VERSION,
};

/// Tuning and policy for one daemon instance.
#[derive(Debug)]
pub struct ServeConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// Worker threads running jobs (clamped to at least 1).
    pub workers: usize,
    /// Maximum queued (not yet running) jobs; submissions past this shed.
    pub queue_cap: usize,
    /// Queue depth at or past which new jobs degrade to quick scale.
    pub degrade_depth: usize,
    /// State directory for job specs and journals; `None` disables
    /// persistence (and therefore restart/resume).
    pub state_dir: Option<PathBuf>,
    /// Reload persisted jobs from `state_dir` at startup.
    pub resume: bool,
    /// Per-connection read/write timeout.
    pub io_timeout: Duration,
    /// Largest accepted request line, in bytes; longer requests answer
    /// `413` and the connection closes.
    pub max_request_bytes: usize,
    /// Worker *subprocesses* for point execution (`0` = in-process).
    /// With processes, a point that SIGSEGVs or aborts costs that job a
    /// `500`, never the daemon: the supervisor restarts the worker and
    /// the crash-loop breaker fails the job instead of wedging it.
    pub worker_processes: usize,
    /// Command line for worker subprocesses; `None` re-invokes the
    /// current executable with the hidden `worker` argument.
    pub worker_command: Option<WorkerCommand>,
    /// Fault injection applied to every job's sweep (chaos testing).
    pub chaos: ChaosPlan,
    /// Path for the vm-obs JSONL event stream (appended).
    pub events: Option<PathBuf>,
    /// Ignored: the daemon never reads this flag, and setting it drains
    /// nothing. Drain through [`Server::drain_handle`] or a `drain`
    /// request. Kept only so existing struct literals still compile.
    #[deprecated(note = "ignored; drain through `Server::drain_handle` or a `drain` request")]
    pub shutdown: Option<&'static AtomicBool>,
    /// Progress-checkpoint interval in retired instructions for running
    /// jobs (the `watch` stream's `progress` frame cadence). The
    /// schedule rides the simulation's instruction clock, so watching a
    /// job cannot perturb its results.
    pub checkpoint_interval: u64,
    /// Bound on each `watch` subscriber's frame queue; a subscriber
    /// that falls further behind is dropped with a `lagged` frame.
    pub watch_buffer: usize,
    /// Trace-ingestion quotas, watermarks, and the partial-upload TTL.
    /// Uploads also require `state_dir` (staging must be durable).
    pub ingest: IngestSettings,
}

#[allow(deprecated)] // sets the ignored `shutdown` field
impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_cap: 8,
            degrade_depth: 4,
            state_dir: None,
            resume: false,
            io_timeout: Duration::from_secs(10),
            max_request_bytes: 1 << 20,
            worker_processes: 0,
            worker_command: None,
            chaos: ChaosPlan::default(),
            events: None,
            shutdown: None,
            checkpoint_interval: 100_000,
            watch_buffer: crate::watch::DEFAULT_WATCH_BUFFER,
            ingest: IngestSettings::default(),
        }
    }
}

/// Lifetime counters and distributions — the `stats` response body.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Jobs that passed admission.
    pub admitted: u64,
    /// Submissions shed (queue full or draining).
    pub shed: u64,
    /// Jobs admitted at degraded fidelity.
    pub degraded: u64,
    /// Jobs that finished running.
    pub done: u64,
    /// Jobs that died at the job level.
    pub failed_jobs: u64,
    /// Jobs cancelled (by request or drain).
    pub cancelled: u64,
    /// Queue depth observed at each admission and shed decision.
    pub queue_depth: LogHist,
    /// Job wall time, milliseconds, admission to completion.
    pub latency_ms: LogHist,
}

impl ServeStats {
    /// Serializes for the `stats` response.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("admitted", self.admitted.into()),
            ("shed", self.shed.into()),
            ("degraded", self.degraded.into()),
            ("done", self.done.into()),
            ("failed_jobs", self.failed_jobs.into()),
            ("cancelled", self.cancelled.into()),
            ("queue_depth", self.queue_depth.to_json()),
            ("latency_ms", self.latency_ms.to_json()),
        ])
    }
}

/// What a drained daemon did over its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// Jobs admitted.
    pub admitted: u64,
    /// Submissions shed.
    pub shed: u64,
    /// Jobs finished.
    pub done: u64,
    /// Jobs failed at the job level.
    pub failed_jobs: u64,
    /// Jobs cancelled (request or drain).
    pub cancelled: u64,
    /// Jobs still queued at exit (resumable from the state directory).
    pub pending: u64,
}

/// One admitted job and its live bookkeeping.
#[derive(Debug)]
struct Job {
    spec: JobSpec,
    state: JobState,
    /// Cooperative cancel flag, shared with the running sweep.
    cancel: Arc<AtomicBool>,
    total_points: usize,
    /// Points finished so far (journal lines observed), for status.
    done_points: Arc<AtomicU64>,
    outcome: Option<JobOutcome>,
    /// Job-level failure detail, when `state == Failed`.
    error: Option<String>,
    wall_ms: Option<u64>,
}

/// Finished (done, failed or cancelled) jobs the registry keeps
/// answering `status` and `result` for. Past this many, the oldest
/// finished job is dropped and its id answers `404` "expired"; queued
/// and running jobs are never dropped. Without the bound, a long-lived
/// daemon's memory grows with every job it has ever run.
const RETAINED_FINISHED_JOBS: usize = 256;

/// All mutable registry state, under one lock.
struct State {
    queue: VecDeque<u64>,
    jobs: BTreeMap<u64, Job>,
    /// Finished job ids, oldest first, at most
    /// [`RETAINED_FINISHED_JOBS`] of them.
    finished: VecDeque<u64>,
    next_id: u64,
}

impl State {
    fn new() -> State {
        State {
            queue: VecDeque::new(),
            jobs: BTreeMap::new(),
            finished: VecDeque::new(),
            next_id: 1,
        }
    }

    /// Records that `id` reached a terminal state and drops the oldest
    /// finished jobs past the retention bound.
    fn retire(&mut self, id: u64) {
        self.finished.push_back(id);
        while self.finished.len() > RETAINED_FINISHED_JOBS {
            if let Some(old) = self.finished.pop_front() {
                self.jobs.remove(&old);
            }
        }
    }

    /// Looks a job up; an id that was issued but is gone expired.
    fn job(&self, id: u64) -> Result<&Job, ProtoError> {
        self.jobs.get(&id).ok_or_else(|| unknown_job(id, self.next_id))
    }

    fn job_mut(&mut self, id: u64) -> Result<&mut Job, ProtoError> {
        let next_id = self.next_id;
        self.jobs.get_mut(&id).ok_or_else(|| unknown_job(id, next_id))
    }
}

/// The `404` for an id not in the registry: expired if it was issued.
fn unknown_job(id: u64, next_id: u64) -> ProtoError {
    if (1..next_id).contains(&id) {
        ProtoError::new(
            404,
            format!("job {id} expired (only the newest {RETAINED_FINISHED_JOBS} finished jobs are kept)"),
        )
    } else {
        ProtoError::new(404, format!("no job {id}"))
    }
}

struct Shared {
    config: ServeConfig,
    state: Mutex<State>,
    wake: Condvar,
    draining: AtomicBool,
    /// Where a loopback connect reaches the listener: the drain uses it
    /// to wake the blocked accept loop.
    listen_addr: SocketAddr,
    sink: Mutex<Option<JsonlSink<File>>>,
    stats: Mutex<ServeStats>,
    /// Supervised worker-process pool, when `worker_processes > 0`.
    /// Shared across jobs: workers are reused, and the crash-loop
    /// breaker state spans job boundaries.
    pool: Option<Arc<WorkerPool>>,
    /// Fan-out for `watch` subscribers.
    hub: WatchHub,
    /// Trace ingestion (staging, quotas, the committed library), when
    /// a state directory exists to stage into.
    ingest: Option<Ingest>,
    /// Daemon start instant: the `t` (milliseconds) of lifecycle events
    /// and watch frames.
    started: Instant,
}

impl Shared {
    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_stats(&self) -> MutexGuard<'_, ServeStats> {
        self.stats.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Milliseconds since the daemon started — the `t` of lifecycle
    /// events and watch frames (monotonic within one daemon lifetime,
    /// so `serve-stats` can derive admission→done latencies).
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Appends one lifecycle event to the JSONL stream (when configured).
    fn emit(&self, ev: Event) {
        let mut guard = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        let now = self.now_ms();
        if let Some(sink) = guard.as_mut() {
            sink.emit(now, &ev);
        }
    }

    fn job_file(&self, id: u64) -> Option<PathBuf> {
        self.config.state_dir.as_ref().map(|d| d.join(format!("job-{id:06}.json")))
    }

    fn journal_file(&self, id: u64) -> Option<PathBuf> {
        self.config.state_dir.as_ref().map(|d| d.join(format!("job-{id:06}.journal")))
    }

    fn cancel_marker(&self, id: u64) -> Option<PathBuf> {
        self.config.state_dir.as_ref().map(|d| d.join(format!("job-{id:06}.cancel")))
    }
}

/// A bound daemon, ready to [`Server::serve`].
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener, opens the event stream, and (with
    /// `config.resume`) reloads persisted jobs from the state directory.
    ///
    /// # Errors
    ///
    /// Propagates bind, state-directory, and event-file failures.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let mut listen_addr = listener.local_addr()?;
        if listen_addr.ip().is_unspecified() {
            let loopback: IpAddr = match listen_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            };
            listen_addr.set_ip(loopback);
        }
        if let Some(dir) = &config.state_dir {
            std::fs::create_dir_all(dir)?;
        }
        let sink = match &config.events {
            Some(path) => {
                let file = OpenOptions::new().create(true).append(true).open(path)?;
                Some(JsonlSink::new(file))
            }
            None => None,
        };
        let resume = config.resume;
        let ingest = match &config.state_dir {
            Some(dir) => Some(Ingest::open(dir, config.ingest.clone())?),
            None => None,
        };
        let pool = match config.worker_processes {
            0 => None,
            n => {
                let mut command = match &config.worker_command {
                    Some(command) => command.clone(),
                    None => WorkerCommand::current_exe(&["worker"])?,
                };
                if let Some(ingest) = &ingest {
                    // Workers resolve `trace:NAME` workloads from the
                    // same library commits land in; the request line
                    // carries the path too, this is the fallback.
                    command.envs.push((
                        vm_trace::TRACE_LIBRARY_ENV.to_owned(),
                        ingest.library_dir().display().to_string(),
                    ));
                }
                let mut pool = PoolConfig::new(command);
                pool.workers = n;
                Some(Arc::new(WorkerPool::new(pool)))
            }
        };
        let shared = Arc::new(Shared {
            config,
            state: Mutex::new(State::new()),
            wake: Condvar::new(),
            draining: AtomicBool::new(false),
            listen_addr,
            sink: Mutex::new(sink),
            stats: Mutex::new(ServeStats::default()),
            pool,
            hub: WatchHub::new(),
            ingest,
            started: Instant::now(),
        });
        if resume {
            resume_jobs(&shared)?;
        }
        if let Some(ingest) = &shared.ingest {
            // Sweep orphaned partials left by previous lifetimes.
            ingest.gc(&|ev| shared.emit(ev));
        }
        Ok(Server { listener, shared })
    }

    /// The bound socket address (read it before [`Server::serve`] when
    /// binding to an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the underlying socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that drains this daemon from another thread, exactly as
    /// a `drain` request does; the one way to stop it from outside the
    /// wire protocol. The binary's SIGTERM/SIGINT handling uses it.
    pub fn drain_handle(&self) -> DrainHandle {
        DrainHandle { shared: Arc::clone(&self.shared) }
    }

    /// Runs the accept loop until drained (by a `drain` request or a
    /// [`DrainHandle`]), then joins workers, flushes telemetry,
    /// and returns the lifetime summary.
    ///
    /// # Errors
    ///
    /// Propagates listener setup failures; per-connection and per-job
    /// failures never surface here.
    pub fn serve(self) -> io::Result<ServeSummary> {
        let Server { listener, shared } = self;
        let stop = || shared.draining.load(Ordering::Relaxed);
        let workers: Vec<_> = (0..shared.config.workers.max(1))
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        while !stop() {
            match listener.accept() {
                // The drain's wake-up connect, or a client racing it.
                Ok(_) if stop() => break,
                Ok((stream, _peer)) => {
                    let shared = Arc::clone(&shared);
                    // Detached: a slow or stuck client costs one thread
                    // bounded by the I/O timeout, never the accept loop.
                    let _ = std::thread::Builder::new()
                        .name("serve-conn".to_owned())
                        .spawn(move || handle_connection(&shared, stream));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Transient accept failure (EMFILE, ECONNABORTED...):
                    // back off but keep the listener alive.
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
        initiate_drain(&shared);
        drop(listener);
        for handle in workers {
            let _ = handle.join();
        }
        if let Some(pool) = &shared.pool {
            // Reap worker subprocesses before reporting: a drained daemon
            // must not leave orphans behind.
            pool.shutdown();
            for ev in pool.take_events() {
                shared.emit(ev);
            }
        }
        if let Some(sink) = shared.sink.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = sink.finish();
        }
        // End every watch stream: subscribers see Closed (after any
        // queued frames, including the drain frame) and disconnect.
        shared.hub.close();
        let pending = shared.lock_state().queue.len() as u64;
        let stats = shared.lock_stats();
        Ok(ServeSummary {
            admitted: stats.admitted,
            shed: stats.shed,
            done: stats.done,
            failed_jobs: stats.failed_jobs,
            cancelled: stats.cancelled,
            pending,
        })
    }
}

/// Drains a running daemon from outside its request path (see
/// [`Server::drain_handle`]).
pub struct DrainHandle {
    shared: Arc<Shared>,
}

impl DrainHandle {
    /// Starts the drain, as a `drain` request would; idempotent.
    pub fn drain(&self) {
        initiate_drain(&self.shared);
    }
}

/// Flips the daemon into draining mode exactly once: stop admitting,
/// cancel running sweeps cooperatively, wake idle workers and the
/// blocked accept loop.
fn initiate_drain(shared: &Shared) {
    if shared.draining.swap(true, Ordering::SeqCst) {
        return;
    }
    let pending = {
        let mut st = shared.lock_state();
        let mut pending = st.queue.len() as u64;
        for job in st.jobs.values_mut() {
            if job.state == JobState::Running {
                job.cancel.store(true, Ordering::Relaxed);
                pending += 1;
            }
        }
        pending
    };
    shared.emit(Event::DrainStarted { pending });
    shared.hub.publish(None, &watch::drain_frame(shared.now_ms(), pending));
    shared.wake.notify_all();
    // The accept loop blocks in `accept`; a throwaway connect returns
    // it to its drain check. Refused once the listener is gone.
    let _ = TcpStream::connect_timeout(&shared.listen_addr, Duration::from_secs(1));
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    // Expected unwinds (chaos, deadlines) are caught and classified;
    // keep the hook from spraying a backtrace banner per isolated fault.
    let _quiet = quiet_panics();
    loop {
        let id = {
            let mut st = shared.lock_state();
            loop {
                if shared.draining.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(id) = st.queue.pop_front() {
                    break id;
                }
                let (guard, _) = shared
                    .wake
                    .wait_timeout(st, Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
            }
        };
        run_job(shared, id);
    }
}

/// Runs one job end to end: state transitions, journal, isolation,
/// terminal event, and stats.
fn run_job(shared: &Arc<Shared>, id: u64) {
    let (spec, cancel, done_points) = {
        let mut st = shared.lock_state();
        let Some(job) = st.jobs.get_mut(&id) else { return };
        if job.state != JobState::Queued {
            return; // cancelled while queued
        }
        job.state = JobState::Running;
        (job.spec.clone(), Arc::clone(&job.cancel), Arc::clone(&job.done_points))
    };
    let started = Instant::now();
    let ran = catch_unwind(AssertUnwindSafe(|| execute_job(shared, &spec, &cancel, &done_points)));
    let wall_ms = started.elapsed().as_millis() as u64;
    if let Some(pool) = &shared.pool {
        // Supervision events (spawns, crashes, breaker trips) join the
        // daemon's lifecycle stream under its sequence counter.
        for ev in pool.take_events() {
            shared.emit(ev);
        }
    }

    let (state, points, failed) = {
        let mut st = shared.lock_state();
        let job = st.jobs.get_mut(&id).expect("running job stays registered");
        let state = match ran {
            Ok(Ok(outcome)) => {
                let was_cancelled = cancel.load(Ordering::Relaxed)
                    && outcome.failures.iter().any(|e| e.kind == FailureKind::Cancelled);
                // A crashed worker process (SIGSEGV, abort, OOM kill —
                // breaker-tripped after restarts) fails the *job*: the
                // client gets a 500, the daemon keeps serving.
                let crash = outcome
                    .failures
                    .iter()
                    .find(|e| e.kind == FailureKind::Crash)
                    .map(|e| format!("point `{}`: {}", e.label, e.detail));
                let state = if was_cancelled {
                    JobState::Cancelled
                } else if let Some(detail) = crash {
                    job.error = Some(detail);
                    JobState::Failed
                } else {
                    JobState::Done
                };
                job.done_points.store(outcome.results.len() as u64, Ordering::Relaxed);
                job.outcome = Some(outcome);
                state
            }
            Ok(Err(detail)) => {
                job.error = Some(detail);
                JobState::Failed
            }
            Err(payload) => {
                let (_, detail) = classify_panic(payload);
                job.error = Some(format!("job panicked outside point isolation: {detail}"));
                JobState::Failed
            }
        };
        job.state = state;
        job.wall_ms = Some(wall_ms);
        let (points, failed) = match &job.outcome {
            Some(out) => (out.results.len() as u64, out.failures.len() as u64),
            None => (0, spec_points(&job.spec) as u64),
        };
        st.retire(id);
        (state, points, failed)
    };
    shared.emit(Event::JobDone { job: id, points, failed, wall_ms });
    // Terminal frame last, after the state transition is visible: a
    // watcher that acts on `done` can immediately fetch the result.
    shared.hub.publish(
        Some(id),
        &watch::done_frame(shared.now_ms(), id, state.label(), points, failed, wall_ms),
    );
    let mut stats = shared.lock_stats();
    stats.latency_ms.record(wall_ms.max(1));
    match state {
        JobState::Done => stats.done += 1,
        JobState::Cancelled => stats.cancelled += 1,
        _ => stats.failed_jobs += 1,
    }
}

/// Point count for a job whose outcome is unavailable (best effort).
fn spec_points(spec: &JobSpec) -> usize {
    spec.plan().map(|p| p.points.len()).unwrap_or(0)
}

/// Bridges executor progress callbacks onto the daemon: checkpoints
/// and point completions become watch frames, and supervised-pool
/// lifecycle events reach the event stream *live* (mid-job) instead of
/// only at job teardown.
struct JobObserver {
    shared: Arc<Shared>,
    job: u64,
    degraded: bool,
    points: u64,
    done_points: Arc<AtomicU64>,
    /// The furthest overall progress a frame has carried.
    published: AtomicU64,
}

impl vm_explore::SweepObserver for JobObserver {
    fn checkpoint(&self, cp: &vm_explore::PointCheckpoint) {
        let done = self.done_points.load(Ordering::Relaxed);
        // Lane-mates checkpoint the same stream position in turn; a
        // frame that would not advance the job's progress is dropped,
        // so progress on the stream never stalls or regresses.
        let overall = watch::overall_progress(cp, done, self.points);
        if self.published.fetch_max(overall, Ordering::Relaxed) >= overall {
            return;
        }
        let queue_depth = self.shared.lock_state().queue.len() as u64;
        let frame = watch::progress_frame(
            self.shared.now_ms(),
            self.job,
            cp,
            done,
            self.points,
            queue_depth,
            self.degraded,
        );
        self.shared.hub.publish(Some(self.job), &frame);
    }

    fn point_finished(&self, index: usize, ok: bool) {
        let frame = watch::point_frame(
            self.shared.now_ms(),
            self.job,
            index as u64,
            ok,
            self.done_points.load(Ordering::Relaxed),
            self.points,
        );
        self.shared.hub.publish(Some(self.job), &frame);
    }

    fn pool_event(&self, ev: &Event) {
        // Into the JSONL event stream immediately (previously these
        // buffered until the job finished)...
        self.shared.emit(*ev);
        // ...and to every subscriber: with concurrent jobs a worker
        // event cannot be attributed to one job, so it is daemon-scoped.
        self.shared.hub.publish(None, &watch::worker_frame(self.shared.now_ms(), ev));
    }
}

/// The fallible body of a job: plan, seed from any existing journal,
/// run the hardened sweep, finish the journal.
fn execute_job(
    shared: &Arc<Shared>,
    spec: &JobSpec,
    cancel: &Arc<AtomicBool>,
    done_points: &Arc<AtomicU64>,
) -> Result<JobOutcome, String> {
    let plan = spec.plan()?;
    let exec = spec.exec();
    let (seeded, fresh) = match shared.journal_file(spec.id) {
        Some(path) if path.exists() => {
            let journal = Journal::load(&path)?;
            let seeded = seeded_from_journal(&journal, &plan, &exec)?;
            (seeded, journal.header.is_none())
        }
        _ => (BTreeMap::new(), true),
    };
    done_points.store(seeded.len() as u64, Ordering::Relaxed);

    let counting = CountingWrite::new(open_journal_target(shared, spec.id)?, done_points);
    let mut writer = JournalWriter::boxed(counting);
    if fresh {
        writer.header(&run_header(&plan, &exec));
    }
    let journal = Mutex::new(writer);

    let policy = HardenPolicy {
        retry: RetryPolicy {
            retries: spec.retries,
            backoff_base_ms: 0,
            backoff_cap_ms: 0,
            jitter_seed: None,
        },
        point_budget: spec.point_budget,
        chaos: shared.config.chaos.clone(),
        cancel: Some(Arc::clone(cancel)),
        // `trace:NAME` workloads resolve against the ingestion library
        // (the directory committed uploads land in).
        trace_library: shared.ingest.as_ref().map(Ingest::library_dir),
        process: shared.pool.clone(),
        // Always-on: publishing to a hub with no subscribers is a few
        // mutex grabs per checkpoint, and the snapshot schedule rides
        // the instruction clock, so results are identical either way.
        progress: Some(vm_explore::ProgressConfig::new(
            shared.config.checkpoint_interval,
            Arc::new(JobObserver {
                shared: Arc::clone(shared),
                job: spec.id,
                degraded: spec.degraded,
                points: plan.points.len() as u64,
                done_points: Arc::clone(done_points),
                published: AtomicU64::new(0),
            }),
        )),
    };
    let outcome = run_sweep_hardened(
        &plan,
        &exec,
        &policy,
        seeded,
        &Reporter::silent(),
        &mut NopSink,
        Some(&journal),
    );
    // A broken journal must not fail the job (results are still valid);
    // it only costs resume coverage, and the writer already went inert.
    let _ = journal.into_inner().unwrap_or_else(|e| e.into_inner()).finish();
    let resumed = outcome.resumed;
    let (results, failures) = outcome.into_parts();
    Ok(JobOutcome { results, failures, resumed })
}

fn open_journal_target(shared: &Shared, id: u64) -> Result<Box<dyn SyncWrite + Send>, String> {
    match shared.journal_file(id) {
        Some(path) => {
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| format!("cannot open journal {}: {e}", path.display()))?;
            Ok(Box::new(file))
        }
        None => Ok(Box::new(NullSync)),
    }
}

/// A sync-writer that discards everything (journaling without a state
/// directory still drives live progress counting).
#[derive(Debug, Default)]
struct NullSync;

impl Write for NullSync {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl SyncWrite for NullSync {}

/// Counts journaled point lines as they stream past, so `status` can
/// report live progress without touching the sweep executor.
struct CountingWrite {
    inner: Box<dyn SyncWrite + Send>,
    done: Arc<AtomicU64>,
}

impl CountingWrite {
    fn new(inner: Box<dyn SyncWrite + Send>, done: &Arc<AtomicU64>) -> CountingWrite {
        CountingWrite { inner, done: Arc::clone(done) }
    }
}

impl Write for CountingWrite {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        // The journal writer appends exactly one line per call; count
        // point entries (not the run header) toward progress.
        if buf.starts_with(b"{\"j\":\"point\"") {
            self.done.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl SyncWrite for CountingWrite {
    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }
}

// ---------------------------------------------------------------------------
// Resume
// ---------------------------------------------------------------------------

/// Reloads persisted jobs: finished jobs become queryable again,
/// cancelled jobs stay cancelled, everything else re-queues (seeding
/// from its journal at run time, so completed points never re-simulate).
fn resume_jobs(shared: &Arc<Shared>) -> io::Result<()> {
    let Some(dir) = shared.config.state_dir.clone() else { return Ok(()) };
    let mut ids = Vec::new();
    for entry in std::fs::read_dir(&dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(id) = name.strip_prefix("job-").and_then(|s| s.strip_suffix(".json")) {
            if let Ok(id) = id.parse::<u64>() {
                ids.push(id);
            }
        }
    }
    ids.sort_unstable();
    let mut st = shared.lock_state();
    for id in ids {
        let path = dir.join(format!("job-{id:06}.json"));
        let job = match load_persisted_job(shared, &path, id) {
            Ok(job) => job,
            Err(detail) => Job {
                spec: JobSpec {
                    id,
                    tag: None,
                    spec_toml: String::new(),
                    sweep: Vec::new(),
                    warmup: 0,
                    measure: 0,
                    degraded: false,
                    point_budget: None,
                    retries: 0,
                },
                state: JobState::Failed,
                cancel: Arc::new(AtomicBool::new(false)),
                total_points: 0,
                done_points: Arc::new(AtomicU64::new(0)),
                outcome: None,
                error: Some(detail),
                wall_ms: None,
            },
        };
        let queued = job.state == JobState::Queued;
        st.next_id = st.next_id.max(id + 1);
        st.jobs.insert(id, job);
        if queued {
            st.queue.push_back(id);
        } else {
            st.retire(id);
        }
    }
    Ok(())
}

/// Rebuilds one job from its state files and classifies it.
fn load_persisted_job(shared: &Shared, path: &Path, id: u64) -> Result<Job, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read job file {}: {e}", path.display()))?;
    let value = vm_obs::json::parse(text.trim())
        .map_err(|e| format!("corrupt job file {}: {e}", path.display()))?;
    let spec = JobSpec::from_json(&value)?;
    if spec.id != id {
        return Err(format!("job file {} claims id {}", path.display(), spec.id));
    }
    let plan = spec.plan()?;
    let exec = spec.exec();
    let total = plan.points.len();

    let seeded = match shared.journal_file(id) {
        Some(journal_path) if journal_path.exists() => {
            let journal = Journal::load(&journal_path)?;
            if journal.header.is_none() {
                BTreeMap::new()
            } else {
                seeded_from_journal(&journal, &plan, &exec)?
            }
        }
        _ => BTreeMap::new(),
    };
    let cancelled = shared.cancel_marker(id).is_some_and(|m| m.exists());
    let seeded_count = seeded.len() as u64;

    let (state, outcome) = if seeded.len() == total {
        // Every point is journaled as done: the job finished, even if
        // the daemon died before answering `result`.
        let results: Vec<PointResult> = seeded.into_values().collect();
        let n = results.len();
        (JobState::Done, Some(JobOutcome { results, failures: Vec::new(), resumed: n }))
    } else if cancelled {
        let results: Vec<PointResult> = seeded.values().cloned().collect();
        let n = results.len();
        let failures = plan
            .points
            .iter()
            .filter(|p| !seeded.contains_key(&p.index))
            .map(|p| {
                let mut e = SimError::new(p.label.clone(), FailureKind::Cancelled, "job cancelled");
                e.settings = p.settings.clone();
                e
            })
            .collect();
        (JobState::Cancelled, Some(JobOutcome { results, failures, resumed: n }))
    } else {
        (JobState::Queued, None)
    };

    let done = outcome.as_ref().map(|o| o.results.len() as u64).unwrap_or(seeded_count);
    Ok(Job {
        spec,
        state,
        cancel: Arc::new(AtomicBool::new(false)),
        total_points: total,
        done_points: Arc::new(AtomicU64::new(done)),
        outcome,
        error: None,
        wall_ms: None,
    })
}

// ---------------------------------------------------------------------------
// Connections and request dispatch
// ---------------------------------------------------------------------------

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let mut stream = stream;
    let _ = stream.set_read_timeout(Some(shared.config.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.io_timeout));
    let _ = stream.set_nodelay(true);
    let max = shared.config.max_request_bytes;
    let mut carry: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    // Per-connection upload accounting: one client cannot stage more
    // than its quota no matter how many uploads it opens.
    let mut conn = ConnQuota::default();
    // `carry[..scanned]` is known to hold no newline, so each byte is
    // scanned once however many reads a long line takes to arrive.
    let mut scanned = 0;
    loop {
        while let Some(pos) = carry[scanned..].iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = carry.drain(..=scanned + pos).collect();
            scanned = 0;
            let text = String::from_utf8_lossy(&line);
            let text = text.trim();
            if text.is_empty() {
                continue;
            }
            match parse_request(text) {
                // `watch` upgrades the connection to a one-way frame
                // stream and consumes it; everything else stays
                // request/response.
                Ok(Request::Watch { job }) => {
                    watch_stream(shared, &mut stream, job);
                    return;
                }
                // `drain` is acked before the flag flips: the accept loop
                // exits (and with it, eventually, the process) the
                // instant `draining` is set, so a response written
                // afterwards races the daemon's death and the requester
                // can read EOF instead of its ack. The connection stays
                // open — a drain summary or a late (shed) request may
                // still follow on it.
                Ok(Request::Drain) => {
                    let pending = shared.lock_state().queue.len() as u64;
                    let resp =
                        ok_response([("draining", Value::Bool(true)), ("pending", pending.into())]);
                    let acked = write_line(&mut stream, &resp).is_ok();
                    initiate_drain(shared);
                    if !acked {
                        return;
                    }
                }
                parsed => {
                    let response = respond(shared, &mut conn, parsed);
                    if write_line(&mut stream, &response).is_err() {
                        return;
                    }
                }
            }
        }
        scanned = carry.len();
        if carry.len() > max {
            let e = ProtoError::new(413, format!("request exceeds {max} bytes"));
            let _ = write_line(&mut stream, &proto::error_response(&e));
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => carry.extend_from_slice(&chunk[..n]),
            // Timeout or reset: drop the connection, never the daemon.
            Err(_) => return,
        }
    }
}

fn write_line(stream: &mut TcpStream, v: &Value) -> io::Result<()> {
    stream.write_all(format!("{v}\n").as_bytes())
}

/// Dispatches one parsed request line. A handler panic answers `500`;
/// the connection (and daemon) live on.
fn respond(
    shared: &Arc<Shared>,
    conn: &mut ConnQuota,
    parsed: Result<Request, ProtoError>,
) -> Value {
    let handled =
        catch_unwind(AssertUnwindSafe(|| parsed.and_then(|req| dispatch(shared, conn, req))));
    match handled {
        Ok(Ok(v)) => v,
        Ok(Err(e)) => proto::error_response(&e),
        Err(_) => proto::error_response(&ProtoError::new(500, "internal error handling request")),
    }
}

fn dispatch(shared: &Arc<Shared>, conn: &mut ConnQuota, req: Request) -> Result<Value, ProtoError> {
    match req {
        Request::Submit(submit) => handle_submit(shared, submit),
        Request::UploadBegin { name, bytes, fnv } => {
            handle_upload_begin(shared, conn, &name, bytes, fnv)
        }
        Request::UploadChunk { upload, seq, fnv, data } => {
            ingest_of(shared)?.chunk(upload, seq, fnv, &data, &|ev| shared.emit(ev))
        }
        Request::UploadCommit { upload } => {
            ingest_of(shared)?.commit(upload, &|ev| shared.emit(ev))
        }
        Request::UploadAbort { upload } => ingest_of(shared)?.abort(upload, &|ev| shared.emit(ev)),
        Request::UploadStatus { upload, name } => {
            ingest_of(shared)?.status(upload, name.as_deref())
        }
        Request::Status { job } => handle_status(shared, job),
        Request::Result { job } => handle_result(shared, job),
        Request::Cancel { job } => handle_cancel(shared, job),
        Request::Health => Ok(handle_health(shared)),
        Request::Stats => Ok(handle_stats(shared)),
        // Normally intercepted in `handle_connection` so the ack is on
        // the wire before the accept loop is released; kept functional
        // here as a safety net for any future dispatch path.
        Request::Drain => {
            initiate_drain(shared);
            let st = shared.lock_state();
            Ok(ok_response([
                ("draining", Value::Bool(true)),
                ("pending", (st.queue.len() as u64).into()),
            ]))
        }
        // Intercepted in handle_connection before dispatch; kept
        // exhaustive so a future refactor cannot silently drop it.
        Request::Watch { .. } => Err(ProtoError::new(
            400,
            "watch upgrades its connection to a stream and cannot be dispatched here".to_owned(),
        )),
    }
}

/// Serves one `watch` subscription: ack, then frames until the job
/// finishes (single-job watch), the subscriber lags out, the hub
/// closes, or the client disconnects.
fn watch_stream(shared: &Arc<Shared>, stream: &mut TcpStream, job: Option<u64>) {
    // Validate before subscribing so an unknown id is a 404, not a
    // stream that never speaks.
    if let Some(id) = job {
        if let Err(e) = shared.lock_state().job(id).map(|_| ()) {
            let _ = write_line(stream, &proto::error_response(&e));
            return;
        }
    }
    // Subscribe *before* the terminal check: a job finishing between
    // the two is caught either by the check or by its queued `done`
    // frame — never missed.
    let sub = shared.hub.subscribe(job, shared.config.watch_buffer);
    let ack = ok_response([
        (
            "watching",
            match job {
                Some(id) => id.into(),
                None => "*".into(),
            },
        ),
        ("proto", PROTO_VERSION.into()),
    ]);
    if write_line(stream, &ack).is_err() {
        shared.hub.unsubscribe(&sub);
        return;
    }
    if let Some(id) = job {
        let synthetic = {
            let st = shared.lock_state();
            st.jobs.get(&id).filter(|j| j.state.is_terminal()).map(|j| {
                let (points, failed) = match &j.outcome {
                    Some(out) => (out.results.len() as u64, out.failures.len() as u64),
                    None => (0, 0),
                };
                watch::done_frame(
                    shared.now_ms(),
                    id,
                    j.state.label(),
                    points,
                    failed,
                    j.wall_ms.unwrap_or(0),
                )
            })
        };
        if let Some(frame) = synthetic {
            // Already terminal: one done frame and the stream ends.
            let _ = write_line(stream, &frame);
            shared.hub.unsubscribe(&sub);
            return;
        }
    }
    let mut idle = Duration::ZERO;
    let poll = Duration::from_millis(200);
    let keepalive = Duration::from_secs(5);
    loop {
        match sub.next(poll) {
            SubNext::Frame(frame) => {
                idle = Duration::ZERO;
                let terminal = job.is_some()
                    && frame.get("frame").and_then(Value::as_str) == Some("done")
                    && frame.get("job").and_then(Value::as_u64) == job;
                if write_line(stream, &frame).is_err() || terminal {
                    break;
                }
            }
            SubNext::Lagged => {
                // The explicit last word on a dropped stream.
                let _ = write_line(stream, &watch::lagged_frame(shared.now_ms()));
                break;
            }
            SubNext::Closed => break,
            SubNext::Idle => {
                idle += poll;
                if idle >= keepalive {
                    idle = Duration::ZERO;
                    if write_line(stream, &watch::tick_frame(shared.now_ms())).is_err() {
                        break; // dead peer detected by the failed write
                    }
                }
            }
        }
    }
    shared.hub.unsubscribe(&sub);
}

/// Uploads need durable staging: without a state directory they are
/// refused outright (a clear 400, not silent in-memory staging that a
/// restart would vaporize).
fn ingest_of(shared: &Shared) -> Result<&Ingest, ProtoError> {
    shared.ingest.as_ref().ok_or_else(|| {
        ProtoError::new(400, "trace upload needs a state directory (start with --state-dir)")
    })
}

/// Admission for `upload-begin`: drain and queue pressure are checked
/// here (they are daemon state, not ingestion state); everything else
/// lives in [`Ingest::begin`].
fn handle_upload_begin(
    shared: &Arc<Shared>,
    conn: &mut ConnQuota,
    name: &str,
    bytes: u64,
    fnv: u64,
) -> Result<Value, ProtoError> {
    let ingest = ingest_of(shared)?;
    let emit = |ev: Event| shared.emit(ev);
    ingest.gc(&emit);
    if shared.draining.load(Ordering::Relaxed) {
        emit(Event::UploadRejected { upload: 0, code: 503 });
        return Err(ProtoError::new(503, "daemon is draining"));
    }
    let queue_full = shared.lock_state().queue.len() >= shared.config.queue_cap;
    ingest.begin(conn, name, bytes, fnv, queue_full, &emit)
}

/// Records a shed decision (event + counters) and builds its 503.
fn shed(shared: &Shared, depth: usize, why: String) -> ProtoError {
    shared.emit(Event::JobShed { queue_depth: depth as u64 });
    let mut stats = shared.lock_stats();
    stats.shed += 1;
    stats.queue_depth.record(depth as u64);
    ProtoError::new(503, why)
}

fn handle_submit(shared: &Arc<Shared>, req: SubmitRequest) -> Result<Value, ProtoError> {
    if shared.draining.load(Ordering::Relaxed) {
        let depth = shared.lock_state().queue.len();
        return Err(shed(shared, depth, "daemon is draining".to_owned()));
    }
    // Resolve requested run lengths before taking any lock.
    let (mut warmup, mut measure) = req.scale.lengths();
    if let Some(w) = req.warmup {
        warmup = w;
    }
    if let Some(m) = req.measure {
        measure = m;
    }
    // Validate the plan outside the lock too: a malformed spec must cost
    // this request alone (and a panic in parsing answers 500 upstream).
    let probe = JobSpec {
        id: 0,
        tag: None,
        spec_toml: req.spec.clone(),
        sweep: req.sweep.clone(),
        warmup,
        measure,
        degraded: false,
        point_budget: req.point_budget,
        retries: req.retries.unwrap_or(0),
    };
    let total_points = probe.plan().map_err(|e| ProtoError::new(400, e))?.points.len();

    let (id, depth, degraded) = {
        let mut st = shared.lock_state();
        if shared.draining.load(Ordering::Relaxed) {
            let depth = st.queue.len();
            drop(st);
            return Err(shed(shared, depth, "daemon is draining".to_owned()));
        }
        if st.queue.len() >= shared.config.queue_cap {
            let depth = st.queue.len();
            drop(st);
            return Err(shed(shared, depth, format!("queue full ({depth} queued)")));
        }
        // Degraded fidelity: past the watermark, clamp new jobs to quick
        // scale. Recorded in the job (and its state file) so a resumed
        // job reruns at the same lengths — bit-identity survives drains.
        let (quick_w, quick_m) = Scale::Quick.lengths();
        let (eff_w, eff_m) = if st.queue.len() >= shared.config.degrade_depth {
            (warmup.min(quick_w), measure.min(quick_m))
        } else {
            (warmup, measure)
        };
        let degraded = (eff_w, eff_m) != (warmup, measure);
        let id = st.next_id;
        st.next_id += 1;
        let spec = JobSpec {
            id,
            tag: req.tag.clone(),
            spec_toml: req.spec,
            sweep: req.sweep,
            warmup: eff_w,
            measure: eff_m,
            degraded,
            point_budget: req.point_budget,
            retries: req.retries.unwrap_or(0),
        };
        if let Some(path) = shared.job_file(id) {
            // Persist before acknowledging: an admitted job must survive
            // a kill, or "202 accepted" would be a lie.
            std::fs::write(&path, format!("{}\n", spec.to_json()))
                .map_err(|e| ProtoError::new(500, format!("cannot persist job state: {e}")))?;
        }
        st.jobs.insert(
            id,
            Job {
                spec,
                state: JobState::Queued,
                cancel: Arc::new(AtomicBool::new(false)),
                total_points,
                done_points: Arc::new(AtomicU64::new(0)),
                outcome: None,
                error: None,
                wall_ms: None,
            },
        );
        st.queue.push_back(id);
        let depth = st.queue.len();
        shared.wake.notify_one();
        (id, depth, degraded)
    };
    shared.emit(Event::JobAdmitted { job: id, queue_depth: depth as u64, degraded });
    shared.hub.publish(
        Some(id),
        &watch::admitted_frame(shared.now_ms(), id, total_points as u64, depth as u64, degraded),
    );
    {
        let mut stats = shared.lock_stats();
        stats.admitted += 1;
        if degraded {
            stats.degraded += 1;
        }
        stats.queue_depth.record(depth as u64);
    }
    Ok(ok_response([
        ("job", id.into()),
        ("points", (total_points as u64).into()),
        ("degraded", Value::Bool(degraded)),
        ("queue_depth", (depth as u64).into()),
    ]))
}

fn handle_status(shared: &Shared, id: u64) -> Result<Value, ProtoError> {
    let st = shared.lock_state();
    let job = st.job(id)?;
    let failed = job.outcome.as_ref().map(|o| o.failures.len() as u64);
    Ok(ok_response([
        ("job", id.into()),
        ("state", job.state.label().into()),
        ("tag", job.spec.tag.clone().map_or(Value::Null, Value::Str)),
        ("points", (job.total_points as u64).into()),
        ("done", job.done_points.load(Ordering::Relaxed).into()),
        ("failed", failed.map_or(Value::Null, Value::from)),
        ("degraded", Value::Bool(job.spec.degraded)),
        ("error", job.error.clone().map_or(Value::Null, Value::Str)),
    ]))
}

fn handle_result(shared: &Shared, id: u64) -> Result<Value, ProtoError> {
    let st = shared.lock_state();
    let job = st.job(id)?;
    if !job.state.is_terminal() {
        return Err(ProtoError::new(
            202,
            format!(
                "job {id} not finished ({}, {}/{} points)",
                job.state.label(),
                job.done_points.load(Ordering::Relaxed),
                job.total_points
            ),
        ));
    }
    if job.state == JobState::Failed {
        // Job-level death (crashed worker, panic outside isolation,
        // broken plan at resume) is a server error, not a result.
        let detail = job.error.clone().unwrap_or_else(|| "job failed".to_owned());
        return Err(ProtoError::new(500, format!("job {id} failed: {detail}")));
    }
    let (results, failures) = job
        .outcome
        .as_ref()
        .map(JobOutcome::to_json)
        .unwrap_or((Value::Arr(Vec::new()), Value::Arr(Vec::new())));
    Ok(ok_response([
        ("job", id.into()),
        ("state", job.state.label().into()),
        ("degraded", Value::Bool(job.spec.degraded)),
        ("resumed", job.outcome.as_ref().map_or(0u64, |o| o.resumed as u64).into()),
        ("error", job.error.clone().map_or(Value::Null, Value::Str)),
        ("results", results),
        ("failures", failures),
    ]))
}

fn handle_cancel(shared: &Shared, id: u64) -> Result<Value, ProtoError> {
    let prior = {
        let mut st = shared.lock_state();
        let job = st.job_mut(id)?;
        let prior = job.state;
        match prior {
            JobState::Queued => {
                job.state = JobState::Cancelled;
                job.outcome = Some(JobOutcome::default());
            }
            JobState::Running => {
                // Cooperative: the in-flight point finishes and is
                // journaled; the rest drain as `cancelled` failures and
                // the state flips when the sweep returns.
                job.cancel.store(true, Ordering::Relaxed);
            }
            _ => {}
        }
        if prior == JobState::Queued {
            st.queue.retain(|&q| q != id);
            st.retire(id);
        }
        prior
    };
    if matches!(prior, JobState::Queued | JobState::Running) {
        // The marker is what distinguishes "cancelled on purpose" from
        // "interrupted by a drain" at resume time.
        if let Some(marker) = shared.cancel_marker(id) {
            let _ = std::fs::write(marker, b"");
        }
    }
    if prior == JobState::Queued {
        shared.lock_stats().cancelled += 1;
        // A queued job cancels synchronously (no run_job will publish
        // for it): its watchers get their terminal frame here.
        shared.hub.publish(
            Some(id),
            &watch::done_frame(shared.now_ms(), id, JobState::Cancelled.label(), 0, 0, 0),
        );
    }
    let state = if prior == JobState::Queued { JobState::Cancelled } else { prior };
    Ok(ok_response([("job", id.into()), ("state", state.label().into())]))
}

fn handle_health(shared: &Shared) -> Value {
    let st = shared.lock_state();
    let running = st.jobs.values().filter(|j| j.state == JobState::Running).count() as u64;
    let state = if shared.draining.load(Ordering::Relaxed) { "draining" } else { "serving" };
    ok_response([
        ("state", state.into()),
        ("proto", PROTO_VERSION.into()),
        ("jobs", (st.jobs.len() as u64).into()),
        ("queued", (st.queue.len() as u64).into()),
        ("running", running.into()),
        ("workers", (shared.config.workers.max(1) as u64).into()),
        ("worker_processes", (shared.config.worker_processes as u64).into()),
    ])
}

fn handle_stats(shared: &Shared) -> Value {
    let queued = shared.lock_state().queue.len() as u64;
    let stats = shared.lock_stats();
    let mut v = stats.to_json();
    if let Value::Obj(pairs) = &mut v {
        pairs.insert(0, ("queued".to_owned(), queued.into()));
        pairs.insert(0, ("code".to_owned(), 200u64.into()));
        pairs.insert(0, ("ok".to_owned(), Value::Bool(true)));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    fn req(kind: &'static str, job: u64) -> Value {
        Value::obj([("req", kind.into()), ("job", job.into())])
    }

    fn code(v: &Value) -> u64 {
        v.get("code").and_then(Value::as_u64).unwrap()
    }

    #[test]
    fn finished_jobs_past_the_cap_expire_oldest_first() {
        let server = Server::start(ServeConfig { workers: 1, ..ServeConfig::default() }).unwrap();
        let addr = server.local_addr().unwrap();
        let serve = std::thread::spawn(move || server.serve());
        let mut c = Client::connect(addr).unwrap();
        let submit = Value::obj([
            ("req", "submit".into()),
            ("spec", "[mmu]\nkind = \"software-tlb\"\ntable = \"two-tier\"\n".into()),
            ("warmup", 100u64.into()),
            ("measure", 400u64.into()),
        ]);
        let total = RETAINED_FINISHED_JOBS as u64 + 10;
        let mut last = 0;
        for _ in 0..total {
            let resp = c.request(&submit).unwrap();
            last = resp.get("job").and_then(Value::as_u64).expect("admitted");
            while code(&c.request(&req("result", last)).unwrap()) == 202 {
                std::thread::yield_now();
            }
        }
        assert_eq!(last, total);

        let health = c.request(&Value::obj([("req", "health".into())])).unwrap();
        let held = health.get("jobs").and_then(Value::as_u64).unwrap();
        assert_eq!(held, RETAINED_FINISHED_JOBS as u64, "registry must stay bounded");

        // The newest finished jobs are still served in full...
        for id in [last, last + 1 - RETAINED_FINISHED_JOBS as u64] {
            let result = c.request(&req("result", id)).unwrap();
            assert_eq!(code(&result), 200, "{result}");
            assert_eq!(result.get("results").and_then(Value::as_array).map(<[_]>::len), Some(1));
        }
        // ...the oldest expired, and unknown ids stay unknown.
        for kind in ["status", "result", "cancel"] {
            let gone = c.request(&req(kind, 1)).unwrap();
            assert_eq!(code(&gone), 404);
            assert!(gone.to_string().contains("expired"), "{gone}");
        }
        let unknown = c.request(&req("status", total + 100)).unwrap();
        assert_eq!(code(&unknown), 404);
        assert!(!unknown.to_string().contains("expired"), "{unknown}");

        c.request(&Value::obj([("req", "drain".into())])).unwrap();
        serve.join().unwrap().unwrap();
    }

    #[test]
    fn a_request_line_near_the_size_cap_is_answered_and_framing_resumes() {
        let server = Server::start(ServeConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.drain_handle();
        let serve = std::thread::spawn(move || server.serve());
        let mut c = Client::connect(addr).unwrap();
        // ~1 MiB arrives over some 256 reads of 4 KiB.
        let pad = "x".repeat(ServeConfig::default().max_request_bytes - 64);
        let big = format!("{{\"req\":\"health\",\"pad\":\"{pad}\"}}");
        let resp = c.request_line(&big).unwrap();
        assert_eq!(code(&resp), 200, "{resp}");
        // The next line on the same connection is framed from its start.
        let resp = c.request(&Value::obj([("req", "stats".into())])).unwrap();
        assert_eq!(code(&resp), 200, "{resp}");
        assert!(resp.get("queued").is_some(), "{resp}");
        handle.drain();
        serve.join().unwrap().unwrap();
    }

    #[test]
    fn a_drain_handle_wakes_the_blocked_accept_loop() {
        let server = Server::start(ServeConfig::default()).unwrap();
        let handle = server.drain_handle();
        let serve = std::thread::spawn(move || server.serve());
        handle.drain();
        let summary = serve.join().unwrap().unwrap();
        assert_eq!(summary.pending, 0);
    }
}

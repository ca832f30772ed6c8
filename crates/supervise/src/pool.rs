//! The supervised worker pool.
//!
//! A [`WorkerPool`] owns N sandboxed worker processes and the whole of
//! their lifecycle. Callers see one blocking method —
//! [`execute`](WorkerPool::execute): lease a worker, send one request
//! line, get one reply line back. Everything that can go wrong in
//! between is the supervisor's problem:
//!
//! * **Liveness**: a worker that stops producing output (heartbeats
//!   included) past the heartbeat deadline is presumed wedged, killed,
//!   and restarted.
//! * **Resource ceilings**: a worker past its RSS ceiling is killed
//!   before it endangers the host; a request past its wall-clock
//!   ceiling is abandoned as a timeout (re-running deterministic work
//!   would only time out again).
//! * **Kill-and-restart**: crashes (abort, SIGSEGV, SIGKILL, OOM kill,
//!   hung heartbeat, RSS kill) respawn the worker with the capped
//!   exponential, jittered backoff of [`vm_harden::RetryPolicy`] and
//!   re-send the request — a fresh process may well succeed where one
//!   poisoned by an earlier point would not.
//! * **Crash-loop breaker**: more than `max_failures` crashes inside
//!   the breaker window means the *request* is the poison; the breaker
//!   trips, the request fails with [`PoolError::CrashLoop`] (mapped to
//!   `FailureKind::Crash` upstream), and the pool moves on.
//! * **Orphan reaping**: dropping the pool closes every worker's stdin
//!   (workers exit on EOF by protocol) and kills whatever remains, so a
//!   dying supervisor leaves no orphans behind.

use std::fmt;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use vm_harden::{Breaker, BreakerPolicy, RetryPolicy};
use vm_obs::Event;

use crate::proc::{describe_exit, WorkerCommand, WorkerProcess};
use crate::worker::HEARTBEAT_PREFIX;

/// Supervisor poll granularity: how often liveness, wall, and RSS are
/// re-checked while waiting for a reply.
const TICK: Duration = Duration::from_millis(25);

/// Per-worker resource ceilings and the liveness deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// A worker producing no output (heartbeats included) for this long
    /// is presumed wedged and killed.
    pub heartbeat: Duration,
    /// Wall-clock ceiling per request; exceeding it abandons the
    /// request as a timeout (no restart — deterministic work would only
    /// time out again).
    pub wall: Option<Duration>,
    /// Resident-set ceiling per worker; exceeding it kills the worker
    /// (restartable — a fresh process starts small).
    pub rss_bytes: Option<u64>,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits { heartbeat: Duration::from_secs(10), wall: None, rss_bytes: None }
    }
}

/// Everything a pool needs to run.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolConfig {
    /// How workers are launched.
    pub command: WorkerCommand,
    /// Worker processes (= concurrent requests served).
    pub workers: usize,
    /// Ceilings and the liveness deadline.
    pub limits: Limits,
    /// Backoff between kill and restart (`retries` is ignored; the
    /// breaker owns give-up policy).
    pub restart_backoff: RetryPolicy,
    /// When the crash-loop breaker gives up on a request: more than
    /// `max_failures` crashes inside `window`.
    pub breaker: BreakerPolicy,
}

impl PoolConfig {
    /// A single-worker pool with default limits, backoff, and breaker.
    pub fn new(command: WorkerCommand) -> PoolConfig {
        PoolConfig {
            command,
            workers: 1,
            limits: Limits::default(),
            restart_backoff: RetryPolicy::new(0),
            breaker: BreakerPolicy::default(),
        }
    }
}

/// Why [`WorkerPool::execute`] gave up on a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// The request crashed its worker more than `max_failures` times
    /// inside the breaker window — the request itself is the poison.
    CrashLoop {
        /// Restarts consumed before the breaker opened.
        restarts: u32,
        /// The last crash's description (exit status + stderr tail).
        detail: String,
    },
    /// The request exceeded the pool's per-request wall-clock ceiling.
    WallLimit {
        /// The configured ceiling.
        limit: Duration,
        /// What was known when the request was abandoned.
        detail: String,
    },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::CrashLoop { restarts, detail } => {
                write!(f, "crash-loop breaker tripped after {restarts} restart(s): {detail}")
            }
            PoolError::WallLimit { limit, detail } => {
                write!(f, "exceeded the {}ms wall-clock ceiling: {detail}", limit.as_millis())
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// Pool lifetime counters, for reports and assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Workers spawned (initial spawns, not restarts).
    pub spawned: u64,
    /// Worker crashes observed (any cause).
    pub crashed: u64,
    /// Restarts performed after crashes.
    pub restarted: u64,
    /// Crash-loop breaker trips.
    pub tripped: u64,
}

#[derive(Default)]
struct PoolState {
    events: Vec<Event>,
    stats: PoolStats,
}

/// A supervised pool of worker processes. See the module docs.
pub struct WorkerPool {
    config: PoolConfig,
    slots: Vec<Mutex<Option<WorkerProcess>>>,
    free: Mutex<Vec<usize>>,
    available: Condvar,
    state: Mutex<PoolState>,
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.config.workers)
            .field("command", &self.config.command.program)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Builds a pool. Workers spawn lazily, on first use of each slot.
    pub fn new(config: PoolConfig) -> WorkerPool {
        let workers = config.workers.max(1);
        WorkerPool {
            config,
            slots: (0..workers).map(|_| Mutex::new(None)).collect(),
            free: Mutex::new((0..workers).rev().collect()),
            available: Condvar::new(),
            state: Mutex::new(PoolState::default()),
        }
    }

    /// Runs one request to completion on a leased worker: sends `request`
    /// as a single line, supervises the worker until a non-heartbeat
    /// reply line arrives, and returns it. Crashes restart the worker
    /// and re-send the request until the breaker trips. `tag` names the
    /// request in events (the sweep-point index, by convention).
    ///
    /// Blocks while all workers are leased to other callers.
    ///
    /// # Errors
    ///
    /// [`PoolError::CrashLoop`] when the breaker tripped,
    /// [`PoolError::WallLimit`] when the request out-lived its ceiling.
    pub fn execute(&self, tag: u64, request: &str) -> Result<String, PoolError> {
        let slot = self.lease();
        let result = self.run_on_slot(slot, tag, request);
        self.release(slot);
        result
    }

    /// Drains buffered supervision events (spawns, crashes, restarts,
    /// breaker trips) in emission order.
    pub fn take_events(&self) -> Vec<Event> {
        std::mem::take(&mut self.state.lock().unwrap_or_else(|e| e.into_inner()).events)
    }

    /// Lifetime counters so far.
    pub fn stats(&self) -> PoolStats {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).stats
    }

    /// Gracefully retires every idle worker: closes stdin (the protocol
    /// EOF), waits briefly for voluntary exit, kills stragglers. Also
    /// run by `Drop`.
    pub fn shutdown(&self) {
        for slot in &self.slots {
            let worker = slot.lock().unwrap_or_else(|e| e.into_inner()).take();
            if let Some(mut w) = worker {
                w.close_stdin();
                w.reap_graceful(Duration::from_millis(500), Duration::from_millis(10));
            }
        }
    }

    fn lease(&self) -> usize {
        let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(slot) = free.pop() {
                return slot;
            }
            free = self.available.wait(free).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn release(&self, slot: usize) {
        self.free.lock().unwrap_or_else(|e| e.into_inner()).push(slot);
        self.available.notify_one();
    }

    fn emit(&self, event: Event, bump: impl FnOnce(&mut PoolStats)) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.events.push(event);
        bump(&mut state.stats);
    }

    fn run_on_slot(&self, slot: usize, tag: u64, request: &str) -> Result<String, PoolError> {
        let mut worker = self.slots[slot].lock().unwrap_or_else(|e| e.into_inner());
        let worker_id = slot as u64;
        let limits = self.config.limits;
        let mut restarts: u32 = 0;
        let mut breaker = Breaker::new(self.config.breaker);
        loop {
            // Ensure the slot holds a live worker.
            if worker.is_none() {
                match WorkerProcess::spawn(&self.config.command) {
                    Ok(w) => {
                        let pid = u64::from(w.pid);
                        if restarts == 0 {
                            self.emit(Event::WorkerSpawned { worker: worker_id, pid }, |s| {
                                s.spawned += 1;
                            });
                        } else {
                            self.emit(
                                Event::WorkerRestarted { worker: worker_id, pid, restarts },
                                |s| s.restarted += 1,
                            );
                        }
                        *worker = Some(w);
                    }
                    Err(e) => {
                        // A failed spawn is a crash that never drew
                        // breath; the breaker bounds it like any other.
                        match self.note_crash(
                            &mut restarts,
                            &mut breaker,
                            worker_id,
                            tag,
                            format!("spawn failed: {e}"),
                        ) {
                            Ok(()) => continue,
                            Err(err) => return Err(err),
                        }
                    }
                }
            }
            let w = worker.as_mut().expect("slot was just filled");

            if w.send(request).is_err() {
                let detail = Self::post_mortem(worker.take().expect("held above"));
                match self.note_crash(&mut restarts, &mut breaker, worker_id, tag, detail) {
                    Ok(()) => continue,
                    Err(err) => return Err(err),
                }
            }

            let started = Instant::now();
            let mut last_output = Instant::now();
            let crash_detail = loop {
                let w = worker.as_mut().expect("worker held while waiting");
                match w.recv_timeout(TICK) {
                    Ok(line) if line.starts_with(HEARTBEAT_PREFIX) => {
                        last_output = Instant::now();
                    }
                    Ok(line) => return Ok(line),
                    Err(RecvTimeoutError::Disconnected) => {
                        break Self::post_mortem(worker.take().expect("held above"));
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        if let Some(status) = w.exited() {
                            let mut detail = describe_exit(status);
                            let tail = w.stderr_tail();
                            if !tail.is_empty() {
                                detail = format!("{detail}; stderr: {tail}");
                            }
                            worker.take().expect("held above").reap();
                            break detail;
                        }
                        if let Some(wall) = limits.wall {
                            if started.elapsed() > wall {
                                worker.take().expect("held above").reap();
                                return Err(PoolError::WallLimit {
                                    limit: wall,
                                    detail: format!(
                                        "request {tag} still running after {}ms",
                                        started.elapsed().as_millis()
                                    ),
                                });
                            }
                        }
                        if let Some(cap) = limits.rss_bytes {
                            if let Some(rss) = w.rss_bytes() {
                                if rss > cap {
                                    worker.take().expect("held above").reap();
                                    break format!(
                                        "resident set {rss} bytes exceeded the {cap}-byte ceiling"
                                    );
                                }
                            }
                        }
                        if last_output.elapsed() > limits.heartbeat {
                            let tail = worker.as_ref().map(|w| w.stderr_tail()).unwrap_or_default();
                            worker.take().expect("held above").reap();
                            let mut detail = format!(
                                "no heartbeat for {}ms (deadline {}ms)",
                                last_output.elapsed().as_millis(),
                                limits.heartbeat.as_millis()
                            );
                            if !tail.is_empty() {
                                detail = format!("{detail}; stderr: {tail}");
                            }
                            break detail;
                        }
                    }
                }
            };
            match self.note_crash(&mut restarts, &mut breaker, worker_id, tag, crash_detail) {
                Ok(()) => continue,
                Err(err) => return Err(err),
            }
        }
    }

    /// Records one crash: emits the event, advances the breaker window,
    /// and either sleeps the restart backoff (Ok — caller retries) or
    /// trips the breaker (Err).
    fn note_crash(
        &self,
        restarts: &mut u32,
        breaker: &mut Breaker,
        worker_id: u64,
        tag: u64,
        detail: String,
    ) -> Result<(), PoolError> {
        self.emit(
            Event::WorkerCrashed { worker: worker_id, point: tag, restarts: *restarts },
            |s| {
                s.crashed += 1;
            },
        );
        if breaker.record(Instant::now()) {
            self.emit(
                Event::BreakerTripped { worker: worker_id, point: tag, restarts: *restarts },
                |s| s.tripped += 1,
            );
            return Err(PoolError::CrashLoop { restarts: *restarts, detail });
        }
        *restarts += 1;
        std::thread::sleep(self.config.restart_backoff.backoff_jittered(*restarts, worker_id));
        Ok(())
    }

    /// The crash description for a worker that died or stopped talking.
    fn post_mortem(mut w: WorkerProcess) -> String {
        // Give a just-killed process a moment to be reportable.
        let deadline = Instant::now() + Duration::from_secs(2);
        let status = loop {
            if let Some(s) = w.exited() {
                break Some(s);
            }
            if Instant::now() >= deadline {
                break None;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let mut detail = match status {
            Some(s) => describe_exit(s),
            None => "stdout closed but the process is still running".to_owned(),
        };
        let tail = w.stderr_tail();
        if !tail.is_empty() {
            detail = format!("{detail}; stderr: {tail}");
        }
        w.reap();
        detail
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sh_pool(script: &str) -> PoolConfig {
        let mut cfg = PoolConfig::new(WorkerCommand::new("/bin/sh", &["-c", script]));
        cfg.restart_backoff = RetryPolicy::NONE; // fast tests
        cfg
    }

    fn event_names(pool: &WorkerPool) -> Vec<&'static str> {
        pool.take_events().iter().map(Event::name).collect()
    }

    #[test]
    fn a_healthy_worker_serves_many_requests_from_one_spawn() {
        let pool = WorkerPool::new(sh_pool("while read l; do echo \"ok:$l\"; done"));
        for i in 0..3 {
            assert_eq!(pool.execute(i, &format!("r{i}")).unwrap(), format!("ok:r{i}"));
        }
        assert_eq!(pool.stats(), PoolStats { spawned: 1, ..PoolStats::default() });
        assert_eq!(event_names(&pool), ["worker_spawned"]);
    }

    #[test]
    fn heartbeats_keep_a_slow_worker_alive_and_are_filtered() {
        let mut cfg = sh_pool(
            "while read l; do \
               echo '{\"j\":\"hb\"}'; sleep 0.1; echo '{\"j\":\"hb\"}'; sleep 0.1; \
               echo \"done:$l\"; \
             done",
        );
        cfg.limits.heartbeat = Duration::from_millis(150); // < total, > gap
        let pool = WorkerPool::new(cfg);
        assert_eq!(pool.execute(0, "x").unwrap(), "done:x");
        assert_eq!(pool.stats().crashed, 0);
    }

    #[test]
    fn a_crashed_worker_is_restarted_and_the_request_resent() {
        // Dies on the first request (marker file absent), serves after.
        let marker =
            std::env::temp_dir().join(format!("vm-supervise-restart-{}", std::process::id()));
        let _ = std::fs::remove_file(&marker);
        let script = format!(
            "while read l; do \
               if [ ! -e {m} ]; then touch {m}; echo dying >&2; kill -9 $$; fi; \
               echo \"ok:$l\"; \
             done",
            m = marker.display()
        );
        let pool = WorkerPool::new(sh_pool(&script));
        assert_eq!(pool.execute(7, "req").unwrap(), "ok:req");
        let stats = pool.stats();
        assert_eq!((stats.spawned, stats.crashed, stats.restarted, stats.tripped), (1, 1, 1, 0));
        assert_eq!(event_names(&pool), ["worker_spawned", "worker_crashed", "worker_restarted"]);
        let _ = std::fs::remove_file(&marker);
    }

    #[test]
    fn a_crash_loop_trips_the_breaker_with_the_exit_in_the_detail() {
        let mut cfg = sh_pool("read l; exit 42");
        cfg.breaker.max_failures = 2;
        let pool = WorkerPool::new(cfg);
        let err = pool.execute(3, "req").unwrap_err();
        let PoolError::CrashLoop { restarts, detail } = &err else {
            panic!("expected CrashLoop, got {err:?}");
        };
        assert_eq!(*restarts, 2);
        assert!(detail.contains("exited with status 42"), "{detail}");
        let stats = pool.stats();
        assert_eq!((stats.crashed, stats.restarted, stats.tripped), (3, 2, 1));
        assert_eq!(
            event_names(&pool),
            [
                "worker_spawned",
                "worker_crashed",
                "worker_restarted",
                "worker_crashed",
                "worker_restarted",
                "worker_crashed",
                "breaker_tripped"
            ]
        );
        // The pool is healthy again for the next request.
        let err = pool.execute(4, "req").unwrap_err();
        assert!(matches!(err, PoolError::CrashLoop { .. }));
    }

    #[test]
    fn a_wedged_worker_misses_its_heartbeat_deadline() {
        let mut cfg = sh_pool("read l; sleep 60");
        cfg.limits.heartbeat = Duration::from_millis(120);
        cfg.breaker.max_failures = 1;
        let pool = WorkerPool::new(cfg);
        let err = pool.execute(0, "req").unwrap_err();
        let PoolError::CrashLoop { detail, .. } = &err else {
            panic!("expected CrashLoop, got {err:?}");
        };
        assert!(detail.contains("no heartbeat"), "{detail}");
    }

    #[test]
    fn the_wall_clock_ceiling_abandons_without_restarting() {
        let mut cfg = sh_pool(
            "while read l; do while true; do echo '{\"j\":\"hb\"}'; sleep 0.05; done; done",
        );
        cfg.limits.wall = Some(Duration::from_millis(200));
        let pool = WorkerPool::new(cfg);
        let err = pool.execute(9, "req").unwrap_err();
        assert!(matches!(err, PoolError::WallLimit { .. }), "{err:?}");
        assert_eq!(pool.stats().restarted, 0, "wall overruns must not restart");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn the_rss_ceiling_kills_a_hog() {
        // `sh` itself is tiny; any live process busts a 1-byte ceiling.
        let mut cfg = sh_pool(
            "while read l; do while true; do echo '{\"j\":\"hb\"}'; sleep 0.05; done; done",
        );
        cfg.limits.rss_bytes = Some(1);
        cfg.breaker.max_failures = 1;
        let pool = WorkerPool::new(cfg);
        let err = pool.execute(0, "req").unwrap_err();
        let PoolError::CrashLoop { detail, .. } = &err else {
            panic!("expected CrashLoop, got {err:?}");
        };
        assert!(detail.contains("resident set"), "{detail}");
    }

    #[test]
    fn leases_block_until_a_worker_frees_up() {
        let mut cfg = sh_pool("while read l; do sleep 0.1; echo \"ok:$l\"; done");
        cfg.workers = 2;
        let pool = Arc::new(WorkerPool::new(cfg));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || pool.execute(i, &format!("r{i}")).unwrap())
            })
            .collect();
        let mut replies: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        replies.sort();
        assert_eq!(replies, ["ok:r0", "ok:r1", "ok:r2", "ok:r3"]);
        assert_eq!(pool.stats().spawned, 2);
    }
}

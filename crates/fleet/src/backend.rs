//! One fleet slot: a serve daemon we spawned or were pointed at.
//!
//! Backends come in two flavors that the coordinator treats
//! identically: *spawned* (`--spawn N` forks `repro serve --port 0`
//! children and scrapes the bound address off their first stdout line)
//! and *remote* (`--backend host:port`). Either way a backend is just
//! an address the NDJSON protocol answers on; the only difference is
//! that spawned children are drained and reaped at shutdown.
//!
//! Eviction uses the worker pool's crash-loop breaker, [`Breaker`]: a
//! backend that accumulates more than `max_failures` transport or job
//! failures inside a sliding `window` is removed from rotation and its
//! in-flight points return to the pending pool. The default budget is
//! the pool's too (3 failures / 60 s), so one mental model covers both
//! layers.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use vm_harden::Breaker;
/// When to evict a backend: the fleet's name for the shared
/// [`BreakerPolicy`](vm_harden::BreakerPolicy), whose default (the
/// fourth failure inside a minute) is also the worker pool's crash-loop
/// budget.
pub use vm_harden::BreakerPolicy as EvictPolicy;
use vm_harden::{with_retry_salted, FailureKind, RetryPolicy, SimError};
use vm_obs::json::Value;
use vm_serve::Client;

/// The address line every daemon prints first on stdout.
const LISTENING_PREFIX: &str = "vm-serve listening on ";

/// How a backend's teardown went: whether the daemon acknowledged the
/// `drain` verb, whether it exited cleanly inside the deadline, and
/// whether we had to fall back to `kill`. Address (non-spawned)
/// backends report `spawned: false` and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShutdownOutcome {
    /// Whether this backend was a spawned child we had to reap.
    pub spawned: bool,
    /// Whether the daemon acknowledged the `drain` request.
    pub drained: bool,
    /// The child's exit status: `Some(true)` for exit 0, `Some(false)`
    /// for a nonzero/ signalled exit, `None` when it had to be killed.
    pub exit_ok: Option<bool>,
    /// Whether the deadline lapsed and the child was killed.
    pub killed: bool,
}

impl ShutdownOutcome {
    /// One-line human summary for the coordinator's teardown report.
    pub fn label(&self) -> &'static str {
        if !self.spawned {
            return "remote, left running";
        }
        match (self.drained, self.exit_ok, self.killed) {
            (true, Some(true), _) => "drained, exit 0",
            (false, Some(true), _) => "exit 0 (drain refused)",
            (_, Some(false), _) => "nonzero exit",
            _ => "killed after drain deadline",
        }
    }
}

/// One backend daemon the coordinator dispatches to.
///
/// The spawned child handle lives behind a [`Mutex`] so a backend can be
/// shared across driver threads (`Arc<Backend>`) while still supporting
/// `shutdown(&self)` from whichever thread tears the fleet down.
#[derive(Debug)]
pub struct Backend {
    /// The backend's fleet slot (index into the fleet, event `backend`).
    pub id: usize,
    /// The daemon's `host:port` address.
    pub addr: String,
    // The stdout handle is held open so a spawned child never takes
    // SIGPIPE on a stray stdout write after we scraped the address line.
    child: Mutex<Option<(Child, ChildStdout)>>,
}

impl Backend {
    /// A backend at an operator-supplied address (nothing to reap).
    pub fn from_addr(id: usize, addr: impl Into<String>) -> Backend {
        Backend { id, addr: addr.into(), child: Mutex::new(None) }
    }

    /// Spawns `exe serve --port 0 <extra args>` and scrapes the bound
    /// address off the child's first stdout line.
    ///
    /// # Errors
    ///
    /// Returns a message when the child cannot be started or its first
    /// stdout line is not the listening banner.
    pub fn spawn(id: usize, exe: &Path, extra: &[String]) -> Result<Backend, String> {
        let mut child = Command::new(exe)
            .arg("serve")
            .args(["--port", "0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn backend {id} ({}): {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("backend {id}: cannot read address line: {e}"))?;
        let Some(addr) = line.trim().strip_prefix(LISTENING_PREFIX) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("backend {id}: unexpected first line {:?}", line.trim()));
        };
        Ok(Backend {
            id,
            addr: addr.to_owned(),
            child: Mutex::new(Some((child, reader.into_inner()))),
        })
    }

    /// The spawned child's pid, when this backend is a local child.
    pub fn pid(&self) -> Option<u32> {
        self.child.lock().expect("child lock").as_ref().map(|(c, _)| c.id())
    }

    /// One health round-trip: connect, `{"req":"health"}`, expect `ok`.
    ///
    /// # Errors
    ///
    /// Returns a transient [`SimError`] naming the failing step, so the
    /// probe composes with [`with_retry_salted`].
    pub fn probe(&self) -> Result<(), SimError> {
        let fail = |detail: String| SimError::new(self.addr.clone(), FailureKind::Io, detail);
        let mut client = Client::connect(&*self.addr).map_err(|e| fail(format!("connect: {e}")))?;
        let resp = client
            .request(&Value::obj([("req", "health".into())]))
            .map_err(|e| fail(format!("health: {e}")))?;
        match resp.get("ok") {
            Some(Value::Bool(true)) => Ok(()),
            _ => Err(fail(format!("health refused: {resp}"))),
        }
    }

    /// Probes the backend until it answers, with the policy's jittered
    /// backoff (salted by the backend id so a cold fleet spreads its
    /// probes). Returns the attempts consumed.
    ///
    /// # Errors
    ///
    /// Returns the final probe error once the retries are exhausted.
    pub fn health_check(&self, retry: &RetryPolicy) -> Result<u32, SimError> {
        let (out, attempts) = with_retry_salted(retry, self.id as u64, |_| self.probe());
        out.map(|()| attempts)
    }

    /// Drains and reaps a spawned child (no-op for address backends)
    /// with the default 2 s deadline. See
    /// [`shutdown_within`](Backend::shutdown_within).
    pub fn shutdown(&self) -> ShutdownOutcome {
        self.shutdown_within(Duration::from_secs(2))
    }

    /// Graceful teardown with a reconciled summary: send `drain` first
    /// so the daemon finishes its journals and exits 0 on its own, wait
    /// up to `deadline`, and only then fall back to `kill`. Idempotent —
    /// a second call (including the `Drop` fallback) is a no-op
    /// reporting `spawned: false`.
    pub fn shutdown_within(&self, deadline: Duration) -> ShutdownOutcome {
        let taken = self.child.lock().expect("child lock").take();
        let Some((mut child, _stdout)) = taken else { return ShutdownOutcome::default() };
        let mut out = ShutdownOutcome { spawned: true, ..ShutdownOutcome::default() };
        // Ask nicely first: drain finishes journals and exits cleanly.
        if let Ok(mut client) = Client::connect(&*self.addr) {
            if let Ok(resp) = client.request(&Value::obj([("req", "drain".into())])) {
                out.drained = matches!(resp.get("ok"), Some(Value::Bool(true)));
            }
        }
        let until = Instant::now() + deadline;
        loop {
            match child.try_wait() {
                Ok(Some(status)) => {
                    out.exit_ok = Some(status.success());
                    return out;
                }
                Ok(None) if Instant::now() < until => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                _ => {
                    out.killed = true;
                    let _ = child.kill();
                    let _ = child.wait();
                    return out;
                }
            }
        }
    }
}

impl Drop for Backend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_trips_past_the_budget_inside_the_window() {
        let mut b = Breaker::new(EvictPolicy { max_failures: 3, window: Duration::from_secs(60) });
        let t0 = Instant::now();
        assert!(!b.record(t0));
        assert!(!b.record(t0));
        assert!(!b.record(t0));
        assert!(b.record(t0), "fourth failure inside the window trips");
        assert_eq!(b.failures(), 4);
    }

    #[test]
    fn old_failures_age_out_of_the_window() {
        let mut b = Breaker::new(EvictPolicy { max_failures: 1, window: Duration::from_secs(60) });
        let t0 = Instant::now();
        assert!(!b.record(t0));
        // Two minutes later the first failure no longer counts.
        let late = t0 + Duration::from_secs(120);
        assert!(!b.record(late));
        assert_eq!(b.failures(), 1);
        assert!(b.record(late), "second failure inside the fresh window trips");
    }

    #[test]
    fn probing_a_dead_address_fails_transiently() {
        // Bind-then-drop guarantees a port nothing listens on.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let b = Backend::from_addr(0, format!("127.0.0.1:{port}"));
        let err = b.probe().unwrap_err();
        assert_eq!(err.kind, FailureKind::Io, "refused connections must be retryable");
        assert!(b.pid().is_none());
        let quick = RetryPolicy { retries: 1, backoff_base_ms: 0, ..RetryPolicy::new(1) };
        assert!(b.health_check(&quick).is_err());
        // Nothing to reap for an address backend; shutdown is a no-op.
        let out = b.shutdown();
        assert!(!out.spawned);
        assert_eq!(out.label(), "remote, left running");
    }

    #[test]
    fn shutdown_outcome_labels_reconcile_every_path() {
        let clean =
            ShutdownOutcome { spawned: true, drained: true, exit_ok: Some(true), killed: false };
        assert_eq!(clean.label(), "drained, exit 0");
        let refused = ShutdownOutcome { drained: false, ..clean };
        assert_eq!(refused.label(), "exit 0 (drain refused)");
        let dirty = ShutdownOutcome { exit_ok: Some(false), ..clean };
        assert_eq!(dirty.label(), "nonzero exit");
        let hung = ShutdownOutcome { spawned: true, killed: true, ..ShutdownOutcome::default() };
        assert_eq!(hung.label(), "killed after drain deadline");
    }
}

//! In-process `vm_serve` daemons and the client calls the workloads make.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::thread::JoinHandle;
use std::time::Duration;

use vm_obs::json::Value;
use vm_serve::{Client, ServeConfig, ServeSummary, Server};

/// Where runs keep daemon state, relative to the working directory.
pub const STATE_ROOT: &str = ".perfbench";

/// A daemon serving on its own thread until drained.
pub struct Daemon {
    /// The bound address.
    pub addr: SocketAddr,
    handle: Option<JoinHandle<std::io::Result<ServeSummary>>>,
    state_dir: Option<PathBuf>,
}

static NEVER: AtomicBool = AtomicBool::new(false);

/// A fresh, empty state directory under [`STATE_ROOT`] named `tag`.
pub fn fresh_state_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = Path::new(STATE_ROOT).join(format!("{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)
            .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

impl Daemon {
    /// Starts a daemon with `workers` executor threads whose queue never
    /// sheds or degrades at the benchmark's load (at most two jobs in
    /// flight), persisting to `state_dir` when given.
    pub fn start(workers: usize, state_dir: Option<PathBuf>) -> Result<Daemon, String> {
        let config = ServeConfig {
            workers,
            queue_cap: 8,
            degrade_depth: 8,
            state_dir: state_dir.clone(),
            shutdown: Some(&NEVER),
            ..ServeConfig::default()
        };
        let server = Server::start(config).map_err(|e| format!("cannot start daemon: {e}"))?;
        let addr = server.local_addr().map_err(|e| format!("daemon has no address: {e}"))?;
        let handle = std::thread::spawn(move || server.serve());
        Ok(Daemon { addr, handle: Some(handle), state_dir })
    }

    /// The daemon's trace library directory.
    pub fn library(&self) -> Option<PathBuf> {
        self.state_dir.as_ref().map(|d| d.join("traces"))
    }

    /// Drains the daemon, waits for its thread, and removes its state.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(handle) = self.handle.take() else { return Ok(()) };
        let mut client = Client::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        client.request(&Value::obj([("req", "drain".into())]))?;
        let summary = handle.join().map_err(|_| "daemon thread panicked".to_owned())?;
        summary.map_err(|e| format!("daemon failed: {e}"))?;
        if let Some(dir) = self.state_dir.take() {
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// A connected client that has answered a health check.
pub fn connect_healthy(addr: SocketAddr) -> Result<Client, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let health = client.request(&Value::obj([("req", "health".into())]))?;
    if code(&health) != 200 {
        return Err(format!("daemon at {addr} is unhealthy: {health}"));
    }
    Ok(client)
}

/// A response's status code (0 when absent).
pub fn code(v: &Value) -> u64 {
    v.get("code").and_then(Value::as_u64).unwrap_or(0)
}

/// Poll interval while a job runs.
pub const POLL: Duration = Duration::from_millis(1);

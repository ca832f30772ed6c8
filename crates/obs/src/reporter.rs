//! Verbosity-aware progress and result reporting.
//!
//! The convention throughout the experiment drivers and the sweep
//! executors:
//!
//! * **stdout** carries results — tables, claims, CSV — and nothing
//!   else, so output stays pipeable and diffable.
//! * **stderr** carries progress — headings, heartbeats, wall-clock
//!   timings, file-written notices — gated by [`Verbosity`].
//!
//! The reporter lives in `vm-obs` (rather than the experiment crate) so
//! every layer that runs long work — the experiment runner, the
//! `vm-explore` sweep executor — can report progress through one
//! mechanism instead of ad-hoc stderr prints.

use std::fmt::Display;
use std::io::Write;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Process-wide verbosity, consulted by [`Reporter::global`]. Defaults to
/// [`Verbosity::Quiet`] so library callers (and tests) stay silent unless
/// a binary opts in.
static GLOBAL_VERBOSITY: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide verbosity used by [`Reporter::global`] — called
/// once by the `repro` binary after parsing `--verbosity`.
pub fn set_global_verbosity(v: Verbosity) {
    GLOBAL_VERBOSITY.store(v as u8, Ordering::Relaxed);
}

/// Orders whole stderr lines across threads. Every progress path formats
/// its complete line (with the trailing newline) *before* taking this
/// lock, then issues a single `write_all`, so concurrent sweep workers
/// and the heartbeat thread can never interleave torn fragments.
static STDERR_LINE: Mutex<()> = Mutex::new(());

/// Writes one complete line to stderr atomically with respect to every
/// other reporter in the process.
fn stderr_line(msg: impl Display) {
    let mut line = msg.to_string();
    line.push('\n');
    let _order = STDERR_LINE.lock().unwrap_or_else(|e| e.into_inner());
    let _ = std::io::stderr().lock().write_all(line.as_bytes());
}

/// How chatty progress reporting should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Verbosity {
    /// Results only: nothing on stderr except errors.
    Quiet,
    /// Per-experiment headings, timings, and heartbeats (the default).
    #[default]
    Normal,
    /// Everything, including per-job completion lines.
    Verbose,
}

impl Verbosity {
    /// Parses `0`/`1`/`2` or `quiet`/`normal`/`verbose`.
    pub fn parse(s: &str) -> Option<Verbosity> {
        match s {
            "0" | "quiet" | "q" => Some(Verbosity::Quiet),
            "1" | "normal" | "n" => Some(Verbosity::Normal),
            "2" | "verbose" | "v" => Some(Verbosity::Verbose),
            _ => None,
        }
    }
}

/// Routes experiment output to the right stream at the right verbosity.
///
/// Shared by reference across runner worker threads; all methods take
/// `&self`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reporter {
    verbosity: Verbosity,
}

impl Reporter {
    /// A reporter at the given verbosity.
    pub fn new(verbosity: Verbosity) -> Reporter {
        Reporter { verbosity }
    }

    /// A reporter that never writes to stderr (used by library callers
    /// that want the legacy silent behaviour).
    pub fn silent() -> Reporter {
        Reporter { verbosity: Verbosity::Quiet }
    }

    /// A reporter at the process-wide verbosity (see
    /// [`set_global_verbosity`]); quiet unless a binary opted in.
    pub fn global() -> Reporter {
        Reporter {
            verbosity: match GLOBAL_VERBOSITY.load(Ordering::Relaxed) {
                0 => Verbosity::Quiet,
                1 => Verbosity::Normal,
                _ => Verbosity::Verbose,
            },
        }
    }

    /// The configured verbosity.
    pub fn verbosity(&self) -> Verbosity {
        self.verbosity
    }

    /// A result line: stdout, always.
    pub fn result(&self, msg: impl Display) {
        println!("{msg}");
    }

    /// A progress line: stderr, at Normal verbosity and above. Lines are
    /// written whole — concurrent workers never produce torn output.
    pub fn progress(&self, msg: impl Display) {
        if self.verbosity >= Verbosity::Normal {
            stderr_line(msg);
        }
    }

    /// A detail line (per-job completions): stderr, at Verbose only.
    /// Lines are written whole, like [`Reporter::progress`].
    pub fn detail(&self, msg: impl Display) {
        if self.verbosity >= Verbosity::Verbose {
            stderr_line(msg);
        }
    }

    /// A heartbeat line: stderr, at Normal and above. Kept distinct from
    /// [`Reporter::detail`] so long sweeps stay visible by default. The
    /// heartbeat thread shares the line-ordered writer with the sweep
    /// workers, so a heartbeat can never land mid-progress-line.
    pub fn heartbeat(&self, msg: impl Display) {
        if self.verbosity >= Verbosity::Normal {
            stderr_line(msg);
        }
    }
}

/// The periodic progress beat of a sweep executor: one thread runs
/// [`Heartbeat::run`] while workers compute, and the executor calls
/// [`Heartbeat::finish`] once they are done.
///
/// The beat thread waits on a condition variable with a deadline, so
/// `finish` wakes it at once: a sweep shorter than one period costs no
/// waiting at all, where a fixed-step sleep would make every sweep last
/// at least one step.
#[derive(Debug, Default)]
pub struct Heartbeat {
    finished: Mutex<bool>,
    wake: Condvar,
}

impl Heartbeat {
    /// A heartbeat that has not finished.
    pub fn new() -> Heartbeat {
        Heartbeat::default()
    }

    /// Calls `beat` every `period` (the first call one period after the
    /// start, each later one a full period after the previous beat
    /// returned, so a stalled thread never fires a burst of catch-up
    /// beats) until [`Heartbeat::finish`], then returns promptly.
    pub fn run(&self, period: Duration, mut beat: impl FnMut()) {
        let mut next = Instant::now() + period;
        let mut finished = self.finished.lock().unwrap_or_else(|e| e.into_inner());
        while !*finished {
            let now = Instant::now();
            if now >= next {
                drop(finished);
                beat();
                next = Instant::now() + period;
                finished = self.finished.lock().unwrap_or_else(|e| e.into_inner());
                continue;
            }
            finished =
                self.wake.wait_timeout(finished, next - now).unwrap_or_else(|e| e.into_inner()).0;
        }
    }

    /// Ends [`Heartbeat::run`]; idempotent.
    pub fn finish(&self) {
        *self.finished.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbosity_parses_names_and_digits() {
        assert_eq!(Verbosity::parse("0"), Some(Verbosity::Quiet));
        assert_eq!(Verbosity::parse("quiet"), Some(Verbosity::Quiet));
        assert_eq!(Verbosity::parse("1"), Some(Verbosity::Normal));
        assert_eq!(Verbosity::parse("verbose"), Some(Verbosity::Verbose));
        assert_eq!(Verbosity::parse("3"), None);
    }

    #[test]
    fn verbosity_orders_quiet_below_verbose() {
        assert!(Verbosity::Quiet < Verbosity::Normal);
        assert!(Verbosity::Normal < Verbosity::Verbose);
        assert_eq!(Verbosity::default(), Verbosity::Normal);
    }

    #[test]
    fn silent_reporter_is_quiet() {
        assert_eq!(Reporter::silent().verbosity(), Verbosity::Quiet);
    }

    #[test]
    fn heartbeat_finish_wakes_the_beat_thread_at_once() {
        let hb = Heartbeat::new();
        let started = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| hb.run(Duration::from_secs(60), || panic!("no beat before finish")));
            hb.finish();
        });
        assert!(started.elapsed() < Duration::from_secs(5), "{:?}", started.elapsed());
    }

    #[test]
    fn heartbeat_beats_are_a_full_period_apart() {
        // Waits for beats rather than sleeping a fixed time, so a loaded
        // machine slows the test down but cannot fail it.
        let period = Duration::from_millis(20);
        let hb = Heartbeat::new();
        let (tx, rx) = std::sync::mpsc::channel();
        let started = Instant::now();
        let mut beats = Vec::new();
        std::thread::scope(|s| {
            s.spawn(|| {
                hb.run(period, || {
                    let _ = tx.send(Instant::now());
                    // A slow beat must not make the next one come early.
                    std::thread::sleep(period / 2);
                })
            });
            for _ in 0..3 {
                beats.push(rx.recv_timeout(Duration::from_secs(30)).expect("a beat"));
            }
            hb.finish();
        });
        assert!(beats[0] - started >= period, "first beat {:?} after start", beats[0] - started);
        for pair in beats.windows(2) {
            let gap = pair[1] - pair[0];
            assert!(gap >= period + period / 2, "beats {gap:?} apart at a {period:?} period");
        }
    }

    #[test]
    fn concurrent_reporters_do_not_deadlock() {
        // Quiet reporters skip the write but the point is that many
        // threads hammering the reporting paths terminate cleanly.
        let threads: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let r = Reporter::new(Verbosity::Quiet);
                    for j in 0..100 {
                        r.progress(format_args!("t{i} line {j}"));
                        r.heartbeat(format_args!("t{i} beat {j}"));
                        r.detail(format_args!("t{i} detail {j}"));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }
}

//! `vm-obs` — zero-cost event tracing, histograms, and run telemetry for
//! the Jacob & Mudge (ASPLOS 1998) reproduction.
//!
//! The simulator in `vm-core` is generic over a [`Sink`]. The default,
//! [`NopSink`], has `ENABLED = false`: every instrumentation site is
//! guarded by `if S::ENABLED { … }`, a compile-time-constant branch the
//! optimizer deletes, so the un-instrumented simulator is exactly as fast
//! as before the observability layer existed. Attaching a real sink
//! monomorphizes a second copy of the simulator that emits typed
//! [`Event`]s — TLB misses, completed walks, handler cache evictions,
//! context-switch flushes, interrupts — timestamped by user instructions
//! retired.
//!
//! What you can do with the events:
//!
//! * [`StatsSink`] aggregates them into an [`ObsSnapshot`]: log-scaled
//!   [`LogHist`] histograms of walk latency, inter-miss instruction
//!   distance, and per-walk memory footprint, plus labeled counters.
//!   Snapshots merge, so experiment drivers can combine runs per system.
//! * [`JsonlSink`] streams them as JSON Lines for ad-hoc analysis.
//! * [`ChromeTraceSink`] writes Chrome `trace_event` JSON that loads in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//! * [`RecordingSink`] keeps them in memory for tests; the reconciliation
//!   suite cross-checks event counts against the simulator's own
//!   counters.
//!
//! Combinators: [`Tee`] fans out to two sinks, [`SharedSink`] lets a
//! driver keep a handle on a sink the simulator owns. The crate also
//! exposes the minimal [`json`] module the exporters are built on (the
//! workspace builds offline, with no third-party crates).
//!
//! ```
//! use vm_obs::{Event, Sink, StatsSink};
//! use vm_types::HandlerLevel;
//!
//! let mut stats = StatsSink::new();
//! stats.emit(100, &Event::WalkComplete {
//!     level: HandlerLevel::User,
//!     cycles: 42,
//!     memrefs: 3,
//! });
//! let snap = stats.snapshot().unwrap();
//! assert_eq!(snap.walk_cycles.count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod json;
pub mod reporter;
pub mod sink;
pub mod snapshot;
pub mod stats;

pub use event::{CacheId, Event, EvictReason};
pub use export::{summary_line, ChromeTraceSink, JsonlSink};
pub use reporter::{set_global_verbosity, Heartbeat, Reporter, Verbosity};
pub use sink::{NopSink, RecordingSink, SharedSink, Sink, Tee};
pub use snapshot::{SnapshotCheckpoint, SnapshotSink};
pub use stats::{HistSummary, LogHist, ObsCounters, ObsSnapshot, StatsSink};

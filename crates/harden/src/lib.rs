//! vm-harden: fault isolation, retries, deadlines, chaos, and journals
//! for long sweep runs.
//!
//! Parameter sweeps multiply every per-point failure mode by hundreds of
//! points: one corrupt imported trace, one pathological configuration,
//! or one flaky filesystem read should cost *one point*, not the run.
//! This crate supplies the machinery hardened executors are built from:
//!
//! * [`error`] — the structured failure taxonomy ([`SimError`],
//!   [`FailureKind`]) and the per-point [`PointOutcome`], plus
//!   panic-payload classification so `catch_unwind` produces precise
//!   diagnoses instead of "a thread panicked".
//! * [`retry`] — [`RetryPolicy`] with capped exponential backoff,
//!   applied only to transient (I/O) failures.
//! * [`breaker`] — the sliding-window [`Breaker`] behind the worker
//!   pool's crash-loop give-up and the fleet's backend eviction.
//! * [`deadline`] — [`DeadlineSink`], a walk-cycle budget in simulated
//!   time that degrades runaway points to a `TimedOut` outcome.
//! * [`guard`] — [`check_record`] record validation and
//!   [`quiet_panics`] hook suppression for executors that expect
//!   unwinds.
//! * [`chaos`] — deterministic fault injection ([`ChaosPlan`]) so tests
//!   and CI can prove all of the above actually fires.
//! * [`journal`] — the durable append-only run journal
//!   ([`JournalWriter`], [`Journal`]) behind checkpoint/resume.
//!
//! Everything here is deterministic by construction: no clocks or OS
//! randomness feed any result (backoff sleeps are wall-clock but only
//! delay work, never change it), so a sweep under chaos, under resume,
//! or at any `--jobs` count merges to bit-identical reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod chaos;
pub mod deadline;
pub mod error;
pub mod guard;
pub mod journal;
pub mod retry;

pub use breaker::{Breaker, BreakerPolicy};
pub use chaos::{ChaosPlan, ChaosTrace, Fault};
pub use deadline::{DeadlineExceeded, DeadlineSink};
pub use error::{classify_panic, FailureKind, PointOutcome, SimError};
pub use guard::{check_record, quiet_panics, CorruptRecord, QuietPanicGuard};
pub use journal::{
    fingerprint, DynJournalWriter, Journal, JournalEntry, JournalWriter, RunHeader, SharedBuf,
    SyncWrite, JOURNAL_VERSION,
};
pub use retry::{with_retry, with_retry_salted, RetryPolicy};

//! Trace validation and panic-output suppression.
//!
//! [`check_record`] validates a record against the invariants the
//! simulator assumes. Hardened executors run it over every record before
//! any simulator sees it and report the first violation as a
//! [`CorruptRecord`], classified [`crate::FailureKind::CorruptTrace`] —
//! the point fails with a precise diagnosis instead of the simulator
//! producing garbage (or dying somewhere deep in the cache model).
//!
//! [`quiet_panics`] suppresses the default panic hook's stderr banner
//! for the current thread while a guard is alive. Hardened executors
//! *expect* unwinds (injected faults, deadline sentinels) and report
//! them as structured outcomes; the default hook would spray one
//! backtrace banner per isolated failure over the progress output.

use std::cell::Cell;
use std::fmt;
use std::sync::Once;

use vm_trace::InstrRecord;
use vm_types::{AddressSpace, USER_SPACE_BYTES};

/// The diagnosis for an invalid trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptRecord {
    /// Zero-based offset of the bad record in the stream.
    pub at: u64,
    /// Which invariant it violated.
    pub why: &'static str,
}

impl fmt::Display for CorruptRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corrupt trace record at offset {}: {}", self.at, self.why)
    }
}

/// Validates one record against the simulator's input invariants.
///
/// # Errors
///
/// Returns the violated invariant for unaligned or out-of-range fetch
/// addresses and out-of-range data references.
pub fn check_record(rec: &InstrRecord) -> Result<(), &'static str> {
    if rec.pc.space() != AddressSpace::User {
        return Err("fetch outside user space");
    }
    if !rec.pc.offset().is_multiple_of(4) {
        return Err("unaligned fetch address");
    }
    if rec.pc.offset() >= USER_SPACE_BYTES {
        return Err("fetch beyond the 2 GB user space");
    }
    if let Some(d) = rec.data {
        if d.addr.space() == AddressSpace::User && d.addr.offset() >= USER_SPACE_BYTES {
            return Err("data reference beyond the 2 GB user space");
        }
    }
    Ok(())
}

thread_local! {
    /// Whether the current thread's panics should skip the default hook.
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Installs the wrapping hook exactly once, process-wide.
static INSTALL_HOOK: Once = Once::new();

/// Restores the thread's previous suppression state on drop.
#[derive(Debug)]
pub struct QuietPanicGuard {
    previous: bool,
}

impl Drop for QuietPanicGuard {
    fn drop(&mut self) {
        QUIET.with(|q| q.set(self.previous));
    }
}

/// Suppresses panic-hook output on the *current thread* until the
/// returned guard is dropped. Other threads keep the normal hook
/// behaviour; nesting is safe. The panics themselves still unwind and
/// must be caught (or they abort the thread as usual, just silently).
pub fn quiet_panics() -> QuietPanicGuard {
    INSTALL_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                previous(info);
            }
        }));
    });
    QuietPanicGuard { previous: QUIET.with(|q| q.replace(true)) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm_types::MAddr;

    fn ok_rec() -> InstrRecord {
        InstrRecord::load(MAddr::user(0x400), MAddr::user(0x8000))
    }

    #[test]
    fn invariant_checks_cover_each_field() {
        assert!(check_record(&ok_rec()).is_ok());
        let unaligned = InstrRecord::plain(MAddr::user(0x401));
        assert_eq!(check_record(&unaligned), Err("unaligned fetch address"));
        let far = InstrRecord::plain(MAddr::user(USER_SPACE_BYTES + 4));
        assert!(check_record(&far).unwrap_err().contains("2 GB"));
        let kernel_fetch = InstrRecord::plain(MAddr::kernel(0x400));
        assert_eq!(check_record(&kernel_fetch), Err("fetch outside user space"));
        let bad_data = InstrRecord::load(MAddr::user(0x400), MAddr::user(USER_SPACE_BYTES + 8));
        assert!(check_record(&bad_data).unwrap_err().contains("data reference"));
    }

    #[test]
    fn corrupt_record_names_offset_and_invariant() {
        let c = CorruptRecord { at: 1, why: "unaligned fetch address" };
        assert_eq!(c.to_string(), "corrupt trace record at offset 1: unaligned fetch address");
    }

    #[test]
    fn quiet_guard_restores_state_and_nests() {
        assert!(!QUIET.with(Cell::get));
        {
            let _a = quiet_panics();
            assert!(QUIET.with(Cell::get));
            {
                let _b = quiet_panics();
                assert!(QUIET.with(Cell::get));
            }
            assert!(QUIET.with(Cell::get));
        }
        assert!(!QUIET.with(Cell::get));
    }
}

//! Deterministic fault injection for sweep executors.
//!
//! A resilience mechanism that has never seen a fault is a guess. The
//! chaos harness injects nine fault classes into *chosen* sweep points
//! so tests and CI can prove the isolation, retry, deadline, and journal
//! machinery actually work:
//!
//! * [`Fault::Panic`] — the point's trace source panics mid-stream.
//! * [`Fault::Io`] — the point's first build attempts fail with a
//!   transient I/O error (succeeds once retries kick in).
//! * [`Fault::Corrupt`] — a trace record is corrupted in flight (an
//!   unaligned fetch address), for [`crate::check_record`] to catch.
//! * [`Fault::Runaway`] — from the trigger record on, every data
//!   reference touches a fresh page, detonating a TLB-miss storm that
//!   blows any sane walk-cycle budget (pair with a deadline).
//! * [`Fault::Abort`] — the point calls `abort()` mid-stream. **Kills
//!   the process, not the thread**: no `catch_unwind` survives it, so it
//!   requires `--isolation process` (a supervised worker dies in the
//!   point's place).
//! * [`Fault::Oom`] — from the trigger record on, the point leaks and
//!   touches memory until something kills it (the supervisor's RSS
//!   ceiling, ideally). Also process-killing; requires
//!   `--isolation process`.
//! * [`Fault::Stall`] — the stream freezes for a beat at the trigger
//!   record, then continues unchanged. Results stay bit-identical;
//!   wall-clock machinery (I/O timeouts, heartbeats, upload clients)
//!   gets exercised.
//! * [`Fault::Truncate`] — the stream ends early at the trigger record,
//!   as a torn file or a cut connection would end it. The records that
//!   do arrive are genuine; everything after is simply missing.
//! * [`Fault::Lie`] — the point simulates honestly, then the executor
//!   deterministically perturbs the finished payload *before* signing
//!   its attestation: a Byzantine backend whose results are well-formed,
//!   signed, and wrong. Exercises divergence detection, audits, and
//!   quarantine (docs/robustness.md, Result integrity).
//!
//! `Stall` and `Truncate` double as the ingestion chaos hooks: the
//! `repro upload` client applies the same plan at chunk granularity
//! (stall before a chunk, cut a chunk short, corrupt a chunk body) to
//! prove the server's checksums and resume contract hold under exactly
//! these faults.
//!
//! Everything is seeded [`SplitMix64`]: which record triggers, how many
//! I/O attempts fail — the same plan replays identically, with no clock
//! or OS randomness anywhere.

use std::collections::BTreeMap;

use vm_trace::{DataRef, InstrRecord};
use vm_types::{MAddr, SplitMix64, PAGE_SIZE, USER_SPACE_BYTES};

/// One injectable fault class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// Panic inside the point's trace iteration.
    Panic,
    /// Transient I/O failures while building the point's workload.
    Io,
    /// A corrupt trace record (unaligned fetch) mid-stream.
    Corrupt,
    /// A TLB-thrash storm that exceeds any walk-cycle budget.
    Runaway,
    /// `abort()` mid-stream — process-killing, not unwinding. Only
    /// survivable under `--isolation process`.
    Abort,
    /// Leak-and-touch memory until killed (by the supervisor's RSS
    /// ceiling). Process-killing; only survivable under
    /// `--isolation process`.
    Oom,
    /// Freeze the stream briefly at the trigger record, then continue.
    /// Perturbs wall-clock only — results stay bit-identical.
    Stall,
    /// End the stream early at the trigger record, as truncated input
    /// would.
    Truncate,
    /// Lie about the result: the point simulates honestly, then its
    /// measured payload is deterministically perturbed *after*
    /// simulation but *before* attestation signing — the lie goes out
    /// with a valid signature, exactly as a Byzantine backend would
    /// send it. Only divergence detection or an audit can catch it;
    /// the stream and the process are untouched.
    Lie,
}

impl Fault {
    /// Every fault class.
    pub const ALL: [Fault; 9] = [
        Fault::Panic,
        Fault::Io,
        Fault::Corrupt,
        Fault::Runaway,
        Fault::Abort,
        Fault::Oom,
        Fault::Stall,
        Fault::Truncate,
        Fault::Lie,
    ];

    /// Stable CLI/journal label.
    pub fn label(self) -> &'static str {
        match self {
            Fault::Panic => "panic",
            Fault::Io => "io",
            Fault::Corrupt => "corrupt",
            Fault::Runaway => "runaway",
            Fault::Abort => "abort",
            Fault::Oom => "oom",
            Fault::Stall => "stall",
            Fault::Truncate => "truncate",
            Fault::Lie => "lie",
        }
    }

    /// Whether the fault kills the whole process rather than unwinding
    /// the point's thread — i.e. whether surviving it needs
    /// `--isolation process`.
    pub fn is_process_killing(self) -> bool {
        matches!(self, Fault::Abort | Fault::Oom)
    }

    /// Parses a [`Fault::label`] back.
    pub fn from_label(s: &str) -> Option<Fault> {
        Fault::ALL.into_iter().find(|f| f.label() == s)
    }
}

/// Which fault (if any) hits which sweep-point index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Seeds the per-point streams deciding trigger offsets and I/O
    /// failure counts.
    pub seed: u64,
    targets: BTreeMap<usize, Fault>,
}

impl ChaosPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> ChaosPlan {
        ChaosPlan { seed, targets: BTreeMap::new() }
    }

    /// Parses the CLI grammar `fault@index[,fault@index...]`, e.g.
    /// `panic@2,io@5,runaway@7`.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown fault names, bad indices, or a
    /// duplicated index.
    pub fn parse(s: &str, seed: u64) -> Result<ChaosPlan, String> {
        let mut plan = ChaosPlan::new(seed);
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let Some((fault, index)) = part.split_once('@') else {
                return Err(format!("chaos fault `{part}` must be `fault@index` (e.g. panic@2)"));
            };
            let fault = Fault::from_label(fault.trim()).ok_or_else(|| {
                format!(
                    "unknown chaos fault `{fault}` \
                     (panic|io|corrupt|runaway|abort|oom|stall|truncate|lie)"
                )
            })?;
            let index: usize =
                index.trim().parse().map_err(|e| format!("bad chaos index `{index}`: {e}"))?;
            if plan.targets.insert(index, fault).is_some() {
                return Err(format!("chaos point {index} given twice"));
            }
        }
        Ok(plan)
    }

    /// Validates a chaos spec against the isolation level it will run
    /// under, *before* any point runs: a process-killing fault
    /// ([`Fault::is_process_killing`]) outside process isolation would
    /// take the whole daemon or sweep down with the point, so the
    /// combination is refused up front. The diagnostic names the
    /// offending part by its 1-based position and column in the spec.
    ///
    /// # Errors
    ///
    /// A positioned message for the first process-killing fault when
    /// `process_isolated` is false. Parts that do not parse are ignored
    /// here — [`ChaosPlan::parse`] owns grammar errors.
    pub fn check_isolation(spec: &str, process_isolated: bool) -> Result<(), String> {
        if process_isolated {
            return Ok(());
        }
        let mut col = 1usize;
        for (i, raw) in spec.split(',').enumerate() {
            let part = raw.trim();
            if let Some((fault, _)) = part.split_once('@') {
                if let Some(f) = Fault::from_label(fault.trim()) {
                    if f.is_process_killing() {
                        return Err(format!(
                            "chaos spec part {} (column {}): `{}` kills the whole process, \
                             not just the point — run it under process isolation \
                             (explore: --isolation process; serve: --workers N)",
                            i + 1,
                            col + (raw.len() - raw.trim_start().len()),
                            part,
                        ));
                    }
                }
            }
            col += raw.len() + 1;
        }
        Ok(())
    }

    /// Adds a fault at a point index (replacing any previous one).
    pub fn inject(&mut self, index: usize, fault: Fault) -> &mut ChaosPlan {
        self.targets.insert(index, fault);
        self
    }

    /// The fault targeting `index`, if any.
    pub fn fault_for(&self, index: usize) -> Option<Fault> {
        self.targets.get(&index).copied()
    }

    /// Number of targeted points.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether no point is targeted.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Iterates `(index, fault)` pairs in index order.
    pub fn targets(&self) -> impl Iterator<Item = (usize, Fault)> + '_ {
        self.targets.iter().map(|(&i, &f)| (i, f))
    }

    /// Renders the plan back into the [`ChaosPlan::parse`] grammar
    /// (`fault@index,...`, index order) — the wire form sent to
    /// supervised workers. `parse(render(), seed)` round-trips exactly.
    pub fn render(&self) -> String {
        let parts: Vec<String> =
            self.targets().map(|(i, f)| format!("{}@{i}", f.label())).collect();
        parts.join(",")
    }

    /// The point's private chaos stream (seed mixed with its index).
    fn stream(&self, index: usize) -> SplitMix64 {
        SplitMix64::new(self.seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// How many build attempts fail for an [`Fault::Io`] point: 1 or 2,
    /// deterministically — so `--retries 2` always recovers the point
    /// and `--retries 0` always fails it.
    pub fn io_failures(&self, index: usize) -> u32 {
        1 + (self.stream(index).next_u64() % 2) as u32
    }

    /// The record offset at which the point's in-stream fault triggers:
    /// deterministic, somewhere in `[horizon/8, horizon/2)` so it can
    /// land in warm-up or measurement.
    pub fn trigger_record(&self, index: usize, horizon: u64) -> u64 {
        let lo = horizon / 8;
        let span = (horizon / 2).saturating_sub(lo).max(1);
        lo + self.stream(index).split().next_u64() % span
    }

    /// Wraps a point's trace in its injected fault, if the fault acts on
    /// the stream ([`Fault::Io`] acts at build time, [`Fault::Lie`] on
    /// the finished result payload; both leave the stream alone).
    pub fn wrap<I>(&self, index: usize, horizon: u64, inner: I) -> ChaosTrace<I>
    where
        I: Iterator<Item = InstrRecord>,
    {
        let armed = match self.fault_for(index) {
            Some(Fault::Io | Fault::Lie) | None => None,
            Some(f) => Some((f, self.trigger_record(index, horizon))),
        };
        ChaosTrace { inner, armed, seen: 0, hog: Vec::new() }
    }
}

/// How long a [`Fault::Stall`] freezes the stream (once): long enough
/// to trip tight I/O timeouts and heartbeat windows in tests, short
/// enough not to slow a suite noticeably.
const STALL_DURATION: std::time::Duration = std::time::Duration::from_millis(50);

/// How much each [`Fault::Oom`] step leaks and touches (16 MiB): big
/// enough to blow a supervisor RSS ceiling within a few records, small
/// enough that the ceiling (not the host OOM killer) decides.
const OOM_STEP_BYTES: usize = 16 << 20;

/// The absolute self-destruct cap for [`Fault::Oom`] (1 GiB): if nothing
/// has killed the process by then (no supervisor, generous ceiling), the
/// fault finishes the job itself with `abort()` rather than endangering
/// the host.
const OOM_CAP_BYTES: usize = 1 << 30;

/// A trace iterator with one armed in-stream fault.
#[derive(Debug)]
pub struct ChaosTrace<I> {
    inner: I,
    /// The fault and the record offset it triggers at; disarmed once
    /// fired (except [`Fault::Runaway`] and [`Fault::Oom`], which keep
    /// escalating).
    armed: Option<(Fault, u64)>,
    seen: u64,
    /// [`Fault::Oom`]'s leak: touched allocations that are never freed.
    hog: Vec<Vec<u8>>,
}

impl<I: Iterator<Item = InstrRecord>> Iterator for ChaosTrace<I> {
    type Item = InstrRecord;

    fn next(&mut self) -> Option<InstrRecord> {
        let mut rec = self.inner.next()?;
        let at = self.seen;
        self.seen += 1;
        if let Some((fault, trigger)) = self.armed {
            if at >= trigger {
                match fault {
                    Fault::Truncate => return None,
                    Fault::Stall => {
                        self.armed = None;
                        std::thread::sleep(STALL_DURATION);
                    }
                    Fault::Panic => {
                        panic!("chaos: injected panic at trace record {at}")
                    }
                    Fault::Corrupt => {
                        // An unaligned fetch address, as a bit-flipped
                        // import would produce; check_record reports it.
                        self.armed = None;
                        rec.pc = MAddr::user(rec.pc.offset() | 1);
                    }
                    Fault::Runaway => {
                        // Every reference a fresh page: a thrash storm no
                        // TLB can absorb, so walk cycles explode.
                        let page = (at.wrapping_mul(PAGE_SIZE)) % USER_SPACE_BYTES;
                        rec.data = Some(DataRef::load(MAddr::user(page)));
                    }
                    Fault::Abort => {
                        eprintln!("chaos: injected abort at trace record {at}");
                        std::process::abort();
                    }
                    Fault::Oom => {
                        // Leak-and-touch until killed: every byte written
                        // so the pages land in RSS, not just in VSZ.
                        if self.hog.len() * OOM_STEP_BYTES >= OOM_CAP_BYTES {
                            eprintln!("chaos: oom fault hit its {OOM_CAP_BYTES}-byte cap unkilled");
                            std::process::abort();
                        }
                        self.hog.push(vec![0xAA; OOM_STEP_BYTES]);
                    }
                    Fault::Io => unreachable!("io faults act at build time"),
                    Fault::Lie => unreachable!("lie faults act on the result payload"),
                }
            }
        }
        Some(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::{check_record, quiet_panics};

    fn straight_line(n: u64) -> impl Iterator<Item = InstrRecord> {
        (0..n).map(|i| InstrRecord::plain(MAddr::user(i * 4)))
    }

    #[test]
    fn grammar_parses_and_rejects() {
        let plan =
            ChaosPlan::parse("panic@2, io@5 ,corrupt@7,runaway@11,abort@13,oom@17", 42).unwrap();
        assert_eq!(plan.len(), 6);
        assert_eq!(plan.fault_for(5), Some(Fault::Io));
        assert_eq!(plan.fault_for(13), Some(Fault::Abort));
        assert_eq!(plan.fault_for(17), Some(Fault::Oom));
        assert_eq!(plan.fault_for(3), None);
        assert!(ChaosPlan::parse("panic", 0).is_err());
        assert!(ChaosPlan::parse("fire@2", 0).is_err());
        assert!(ChaosPlan::parse("panic@x", 0).is_err());
        assert!(ChaosPlan::parse("panic@1,io@1", 0).is_err());
        assert!(ChaosPlan::parse("", 0).unwrap().is_empty());
    }

    #[test]
    fn render_round_trips_and_labels_are_stable() {
        let text = "panic@2,io@5,corrupt@7,runaway@11,abort@13,oom@17,stall@19,truncate@23,lie@29";
        let plan = ChaosPlan::parse(text, 9).unwrap();
        assert_eq!(plan.render(), text, "index order, canonical labels");
        assert_eq!(ChaosPlan::parse(&plan.render(), 9).unwrap(), plan);
        assert_eq!(ChaosPlan::new(1).render(), "");
        for fault in Fault::ALL {
            assert_eq!(Fault::from_label(fault.label()), Some(fault));
            assert_eq!(
                fault.is_process_killing(),
                matches!(fault, Fault::Abort | Fault::Oom),
                "{fault:?}"
            );
        }
    }

    #[test]
    fn process_killing_faults_pass_records_through_before_the_trigger() {
        // Collecting *past* the trigger would abort the test runner, so
        // only the safe prefix is observable in-process.
        for fault in [Fault::Abort, Fault::Oom] {
            let mut plan = ChaosPlan::new(42);
            plan.inject(0, fault);
            let trigger = plan.trigger_record(0, 100) as usize;
            let out: Vec<_> = plan.wrap(0, 100, straight_line(100)).take(trigger).collect();
            assert_eq!(out, straight_line(trigger as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn streams_are_deterministic_per_seed_and_index() {
        let a = ChaosPlan::new(7);
        let b = ChaosPlan::new(7);
        let c = ChaosPlan::new(8);
        assert_eq!(a.trigger_record(3, 12_000), b.trigger_record(3, 12_000));
        assert_eq!(a.io_failures(5), b.io_failures(5));
        // Different seeds or indices shift the streams (overwhelmingly).
        assert!(
            a.trigger_record(3, 12_000) != c.trigger_record(3, 12_000)
                || a.trigger_record(4, 12_000) != c.trigger_record(4, 12_000)
        );
        let t = a.trigger_record(3, 12_000);
        assert!((1_500..6_000).contains(&t), "{t}");
        assert!((1..=2).contains(&a.io_failures(9)));
    }

    #[test]
    fn truncate_fault_ends_the_stream_at_the_trigger() {
        let plan = ChaosPlan::parse("truncate@0", 42).unwrap();
        let trigger = plan.trigger_record(0, 100);
        let out: Vec<_> = plan.wrap(0, 100, straight_line(100)).collect();
        assert_eq!(out, straight_line(trigger).collect::<Vec<_>>());
    }

    #[test]
    fn stall_fault_delays_but_never_alters_records() {
        let plan = ChaosPlan::parse("stall@0", 42).unwrap();
        let start = std::time::Instant::now();
        let out: Vec<_> = plan.wrap(0, 100, straight_line(100)).collect();
        assert_eq!(out, straight_line(100).collect::<Vec<_>>(), "bit-identical records");
        assert!(start.elapsed() >= STALL_DURATION, "the stall actually happened");
    }

    #[test]
    fn process_killing_faults_without_isolation_are_refused_with_position() {
        let err = ChaosPlan::check_isolation("panic@1, abort@5,oom@9", false).unwrap_err();
        assert!(err.contains("part 2"), "{err}");
        assert!(err.contains("column 10"), "{err}");
        assert!(err.contains("`abort@5`"), "{err}");
        assert!(err.contains("--isolation process"), "{err}");
        assert!(ChaosPlan::check_isolation("panic@1, abort@5,oom@9", true).is_ok());
        assert!(ChaosPlan::check_isolation("panic@1,stall@2,truncate@3", false).is_ok());
        assert!(ChaosPlan::check_isolation("", false).is_ok());
    }

    #[test]
    fn untargeted_points_pass_through_unchanged() {
        let plan = ChaosPlan::parse("panic@1", 42).unwrap();
        let out: Vec<_> = plan.wrap(0, 100, straight_line(100)).collect();
        assert_eq!(out, straight_line(100).collect::<Vec<_>>());
    }

    #[test]
    fn lie_fault_leaves_the_stream_untouched() {
        // The lie acts on the finished payload (in the executor), never
        // on the trace: a lying backend's simulation is honest work.
        let plan = ChaosPlan::parse("lie@0", 42).unwrap();
        let out: Vec<_> = plan.wrap(0, 100, straight_line(100)).collect();
        assert_eq!(out, straight_line(100).collect::<Vec<_>>());
        assert!(!Fault::Lie.is_process_killing());
    }

    #[test]
    fn panic_fault_fires_at_the_trigger_record() {
        let _quiet = quiet_panics();
        let plan = ChaosPlan::parse("panic@0", 42).unwrap();
        let trigger = plan.trigger_record(0, 100);
        let payload = std::panic::catch_unwind(|| {
            plan.wrap(0, 100, straight_line(100)).count();
        })
        .unwrap_err();
        let msg = payload.downcast::<String>().unwrap();
        assert_eq!(*msg, format!("chaos: injected panic at trace record {trigger}"));
    }

    #[test]
    fn corrupt_fault_breaks_exactly_one_record() {
        let plan = ChaosPlan::parse("corrupt@0", 42).unwrap();
        let trigger = plan.trigger_record(0, 100) as usize;
        let out: Vec<_> = plan.wrap(0, 100, straight_line(100)).collect();
        assert_eq!(out.len(), 100);
        let bad: Vec<usize> = out
            .iter()
            .enumerate()
            .filter(|(_, r)| check_record(r).is_err())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(bad, [trigger]);
    }

    #[test]
    fn runaway_fault_thrashes_every_record_from_the_trigger() {
        let plan = ChaosPlan::parse("runaway@0", 42).unwrap();
        let trigger = plan.trigger_record(0, 64) as usize;
        let out: Vec<_> = plan.wrap(0, 64, straight_line(64)).collect();
        let mut pages = std::collections::BTreeSet::new();
        for rec in &out[trigger..] {
            let d = rec.data.expect("runaway records carry data refs");
            assert!(check_record(rec).is_ok());
            pages.insert(d.addr.offset() / PAGE_SIZE);
        }
        assert_eq!(pages.len(), out.len() - trigger, "each record touches a fresh page");
        assert!(out[..trigger].iter().all(|r| r.data.is_none()));
    }
}

//! The durable run journal: append-only JSONL, fsync'd in batches.
//!
//! A journal makes a multi-hour sweep killable: every finished point
//! (completed *or* failed) is appended as one self-contained JSON line,
//! and a batched `fsync` bounds how much work a crash can lose. Resume
//! reads the journal back, keeps the completed points' results, and
//! re-runs only what is failed or missing — merged output is
//! bit-identical to an uninterrupted run because every point's result
//! depends on its spec alone.
//!
//! Format (one JSON object per line):
//!
//! ```text
//! {"j":"run","version":1,"points":24,"fingerprint":"a1b2...","warmup":200000,"measure":500000}
//! {"j":"point","index":3,"label":"ULTRIX tlb.entries=64","status":"done","attempts":1,"payload":{...}}
//! {"j":"point","index":5,"label":"...","status":"failed","attempts":3,"kind":"io","detail":"..."}
//! ```
//!
//! The `payload` object is opaque to this module (the sweep layer stores
//! bit-exact point results in it); `fingerprint` ties a journal to the
//! exact plan (point labels and run lengths) that produced it, so a
//! resume against a different sweep is rejected instead of silently
//! merging apples into oranges.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use vm_obs::json::{self, Value};
use vm_trace::wire::Fnv1a;

use crate::error::{FailureKind, PointOutcome, SimError};

/// Journal format version (bumped on incompatible schema changes).
pub const JOURNAL_VERSION: u64 = 1;

/// Default number of entries between `fsync` batches.
pub const DEFAULT_SYNC_BATCH: usize = 8;

/// A writer that can force bytes to stable storage.
///
/// `Vec<u8>`-backed writers (tests, dry runs) sync trivially; files call
/// `File::sync_data`.
pub trait SyncWrite: Write {
    /// Forces previously written bytes to stable storage.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O failure.
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl SyncWrite for Vec<u8> {}

impl SyncWrite for File {
    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }
}

impl SyncWrite for Box<dyn SyncWrite + Send> {
    fn sync(&mut self) -> io::Result<()> {
        (**self).sync()
    }
}

/// A clonable in-memory journal target whose contents outlive the
/// writer — the test double for a journal file.
#[derive(Debug, Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// An empty shared buffer.
    pub fn new() -> SharedBuf {
        SharedBuf::default()
    }

    /// A copy of everything written so far.
    pub fn contents(&self) -> Vec<u8> {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The contents as UTF-8 text.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.contents()).into_owned()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl SyncWrite for SharedBuf {}

/// Identifies the run a journal belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunHeader {
    /// [`JOURNAL_VERSION`] at write time.
    pub version: u64,
    /// Total points the plan contains (runnable ones).
    pub points: u64,
    /// [`fingerprint`] over the plan's point labels and run lengths.
    pub fingerprint: u64,
    /// Warm-up instructions per point.
    pub warmup: u64,
    /// Measured instructions per point.
    pub measure: u64,
}

impl RunHeader {
    fn to_value(self) -> Value {
        Value::obj([
            ("j", "run".into()),
            ("version", self.version.into()),
            ("points", self.points.into()),
            ("fingerprint", format!("{:016x}", self.fingerprint).into()),
            ("warmup", self.warmup.into()),
            ("measure", self.measure.into()),
        ])
    }

    fn from_value(v: &Value) -> Result<RunHeader, String> {
        let need_u64 = |k: &str| {
            v.get(k).and_then(Value::as_u64).ok_or_else(|| format!("run header missing `{k}`"))
        };
        let fingerprint = v
            .get("fingerprint")
            .and_then(Value::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("run header missing `fingerprint`")?;
        Ok(RunHeader {
            version: need_u64("version")?,
            points: need_u64("points")?,
            fingerprint,
            warmup: need_u64("warmup")?,
            measure: need_u64("measure")?,
        })
    }
}

/// Hashes a plan identity (point labels, run lengths) into the header
/// fingerprint: an FNV-1a fold, stable across platforms and runs.
pub fn fingerprint<'a>(labels: impl Iterator<Item = &'a str>, warmup: u64, measure: u64) -> u64 {
    let mut h = Fnv1a::new();
    for label in labels {
        h.update(label.as_bytes());
        h.update(&[0xff]); // label separator
    }
    h.update(&warmup.to_le_bytes());
    h.update(&measure.to_le_bytes());
    h.digest()
}

/// One journaled point: status plus either a payload (done) or an error
/// (failed / timeout).
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// The point's index in sweep order.
    pub index: u64,
    /// The point's label.
    pub label: String,
    /// `done` / `failed` / `timeout` (see
    /// [`PointOutcome::status_label`]).
    pub status: String,
    /// Attempts consumed.
    pub attempts: u32,
    /// Failure kind label, for non-`done` entries.
    pub kind: Option<FailureKind>,
    /// Failure detail, for non-`done` entries.
    pub detail: Option<String>,
    /// Opaque result payload, for `done` entries.
    pub payload: Option<Value>,
}

impl JournalEntry {
    /// Builds the entry for one point outcome. `payload` must be
    /// provided for completed outcomes (it is what resume restores).
    pub fn from_outcome<T>(
        index: u64,
        label: &str,
        outcome: &PointOutcome<T>,
        attempts: u32,
        payload: impl FnOnce(&T) -> Value,
    ) -> JournalEntry {
        let (kind, detail, payload) = match outcome {
            PointOutcome::Completed(t) => (None, None, Some(payload(t))),
            PointOutcome::Failed(e) | PointOutcome::TimedOut(e) => {
                (Some(e.kind), Some(e.detail.clone()), None)
            }
        };
        JournalEntry {
            index,
            label: label.to_owned(),
            status: outcome.status_label().to_owned(),
            attempts,
            kind,
            detail,
            payload,
        }
    }

    /// Whether this entry records a completed point with its payload.
    pub fn is_done(&self) -> bool {
        self.status == "done" && self.payload.is_some()
    }

    /// Reconstructs the failure this entry recorded, when it is not a
    /// `done` entry.
    pub fn to_error(&self) -> Option<SimError> {
        if self.is_done() {
            return None;
        }
        let mut e = SimError::new(
            self.label.clone(),
            self.kind.unwrap_or(FailureKind::Panic),
            self.detail.clone().unwrap_or_else(|| "unrecorded failure".to_owned()),
        );
        e.attempts = self.attempts;
        Some(e)
    }

    /// Renders the entry as its single journal line (no trailing
    /// newline) — also the supervised-worker reply wire form.
    pub fn to_line(&self) -> String {
        self.to_value().to_string()
    }

    /// Parses one `point` line (the exact form [`to_line`](Self::to_line)
    /// emits).
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON, a non-`point` entry, or a
    /// missing field.
    pub fn parse_line(line: &str) -> Result<JournalEntry, String> {
        let v = json::parse(line.trim()).map_err(|e| e.to_string())?;
        match v.get("j").and_then(Value::as_str) {
            Some("point") => JournalEntry::from_value(&v),
            other => Err(format!("not a point entry (j = {other:?})")),
        }
    }

    fn to_value(&self) -> Value {
        let mut pairs: Vec<(String, Value)> = vec![
            ("j".to_owned(), "point".into()),
            ("index".to_owned(), self.index.into()),
            ("label".to_owned(), self.label.clone().into()),
            ("status".to_owned(), self.status.clone().into()),
            ("attempts".to_owned(), self.attempts.into()),
        ];
        if let Some(kind) = self.kind {
            pairs.push(("kind".to_owned(), kind.label().into()));
        }
        if let Some(detail) = &self.detail {
            pairs.push(("detail".to_owned(), detail.clone().into()));
        }
        if let Some(payload) = &self.payload {
            pairs.push(("payload".to_owned(), payload.clone()));
        }
        Value::Obj(pairs)
    }

    fn from_value(v: &Value) -> Result<JournalEntry, String> {
        let index = v.get("index").and_then(Value::as_u64).ok_or("point entry missing `index`")?;
        let text = |k: &str| v.get(k).and_then(Value::as_str).map(str::to_owned);
        let label = text("label").ok_or("point entry missing `label`")?;
        let status = text("status").ok_or("point entry missing `status`")?;
        let attempts =
            v.get("attempts").and_then(Value::as_u64).ok_or("point entry missing `attempts`")?;
        let kind = match v.get("kind").and_then(Value::as_str) {
            Some(s) => {
                Some(FailureKind::from_label(s).ok_or_else(|| format!("unknown kind `{s}`"))?)
            }
            None => None,
        };
        Ok(JournalEntry {
            index,
            label,
            status,
            attempts: attempts as u32,
            kind,
            detail: text("detail"),
            payload: v.get("payload").cloned(),
        })
    }
}

/// Appends journal lines, flushing and syncing every `batch` entries.
///
/// Dropping the writer flushes and syncs any pending tail (errors
/// ignored — `Drop` has nowhere to report them), so an abandoned writer
/// loses at most the one line a kill tears mid-`write`, which
/// [`Journal::parse`] already tolerates. Call [`finish`](JournalWriter::finish)
/// to observe flush errors.
#[derive(Debug)]
pub struct JournalWriter<W: SyncWrite> {
    /// `None` only after `finish` hands the target back.
    out: Option<W>,
    batch: usize,
    pending: usize,
    entries: u64,
    /// The first write error, after which the writer goes inert (a
    /// broken journal must not take the sweep down with it).
    error: Option<io::Error>,
}

/// A journal writer over any boxed sync-writer — what executors accept,
/// so callers can journal to a file, a [`SharedBuf`], or nothing.
pub type DynJournalWriter = JournalWriter<Box<dyn SyncWrite + Send>>;

impl JournalWriter<Box<dyn SyncWrite + Send>> {
    /// A journal writer over a boxed target with the default sync batch.
    pub fn boxed<W: SyncWrite + Send + 'static>(out: W) -> DynJournalWriter {
        JournalWriter::new(Box::new(out), DEFAULT_SYNC_BATCH)
    }

    /// Opens (creating or appending) a journal file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying open failure.
    pub fn open_path(path: &Path) -> io::Result<DynJournalWriter> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JournalWriter::boxed(file))
    }
}

impl<W: SyncWrite> JournalWriter<W> {
    /// Wraps `out`, syncing every `batch` entries (0 syncs every entry).
    pub fn new(out: W, batch: usize) -> JournalWriter<W> {
        JournalWriter { out: Some(out), batch: batch.max(1), pending: 0, entries: 0, error: None }
    }

    /// Entries appended so far (header lines included).
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// The first write error, if the journal broke.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    fn append(&mut self, v: &Value) {
        if self.error.is_some() {
            return;
        }
        let Some(out) = self.out.as_mut() else { return };
        let mut line = v.to_string();
        line.push('\n');
        let entries = &mut self.entries;
        let pending = &mut self.pending;
        let batch = self.batch;
        let r = out.write_all(line.as_bytes()).and_then(|()| {
            *entries += 1;
            *pending += 1;
            if *pending >= batch {
                *pending = 0;
                out.flush()?;
                out.sync()?;
            }
            Ok(())
        });
        if let Err(e) = r {
            self.error = Some(e);
        }
    }

    /// Appends the run header line.
    pub fn header(&mut self, header: &RunHeader) {
        self.append(&header.to_value());
    }

    /// Appends one point entry.
    pub fn record(&mut self, entry: &JournalEntry) {
        self.append(&entry.to_value());
    }

    /// Appends an arbitrary JSON line — for journal dialects (like the
    /// vm-fleet coordinator journal) that interleave their own record
    /// kinds with standard header/point lines. [`Journal::parse`] rejects
    /// unknown `"j"` kinds, so such dialects bring their own reader.
    pub fn note(&mut self, v: &Value) {
        self.append(v);
    }

    /// Flushes, syncs, and returns the target (or the first error).
    ///
    /// # Errors
    ///
    /// Returns the first write/sync failure observed over the writer's
    /// lifetime.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let mut out = self.out.take().expect("finish is the only taker");
        out.flush()?;
        out.sync()?;
        Ok(out)
    }
}

impl<W: SyncWrite> Drop for JournalWriter<W> {
    fn drop(&mut self) {
        // Push the batched tail to stable storage on every exit path —
        // a SIGKILL between entries then loses at most one torn final
        // line, which the parser tolerates by design.
        if self.error.is_none() {
            if let Some(out) = self.out.as_mut() {
                let _ = out.flush().and_then(|()| out.sync());
            }
        }
    }
}

/// At most this many characters of a corrupt line appear in the parse
/// diagnostic — enough to recognize the damage, short enough that a
/// megabyte of binary garbage doesn't become the error message.
const SNIPPET_CHARS: usize = 48;

/// The leading slice of a corrupt line shown in parse diagnostics.
fn snippet(line: &str) -> String {
    if line.chars().count() <= SNIPPET_CHARS {
        line.to_owned()
    } else {
        let mut s: String = line.chars().take(SNIPPET_CHARS).collect();
        s.push('…');
        s
    }
}

/// A parsed journal: the most recent header and every point entry in
/// file order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Journal {
    /// The run header, when the journal has one.
    pub header: Option<RunHeader>,
    /// Point entries in append order (an index may repeat; later lines
    /// supersede earlier ones).
    pub entries: Vec<JournalEntry>,
}

impl Journal {
    /// Parses journal text (one JSON object per line).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line. A trailing
    /// partial line (the tell-tale of a crash mid-append) is ignored —
    /// that is exactly the case journals exist to survive.
    pub fn parse(text: &str) -> Result<Journal, String> {
        let mut journal = Journal::default();
        let lines: Vec<&str> = text.lines().collect();
        for (i, raw) in lines.iter().enumerate() {
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            let v = match json::parse(line) {
                Ok(v) => v,
                // A torn final line is a crash artifact, not corruption.
                Err(_) if i + 1 == lines.len() => continue,
                // Mid-file garbage is corruption; locate it precisely
                // (line, byte offset, a snippet) so an operator can find
                // and hand-repair the damaged line.
                Err(e) => {
                    // `lines()` yields subslices of `text`, so pointer
                    // distance is the line's exact byte offset.
                    let offset = raw.as_ptr() as usize - text.as_ptr() as usize;
                    return Err(format!(
                        "journal line {} (byte offset {offset}): {e} in `{}`",
                        i + 1,
                        snippet(line)
                    ));
                }
            };
            match v.get("j").and_then(Value::as_str) {
                Some("run") => {
                    journal.header = Some(
                        RunHeader::from_value(&v).map_err(|e| format!("line {}: {e}", i + 1))?,
                    )
                }
                Some("point") => journal.entries.push(
                    JournalEntry::from_value(&v).map_err(|e| format!("line {}: {e}", i + 1))?,
                ),
                other => {
                    return Err(format!("journal line {}: unknown entry type {other:?}", i + 1))
                }
            }
        }
        Ok(journal)
    }

    /// Loads and parses a journal file.
    ///
    /// # Errors
    ///
    /// Returns a message for unreadable files or malformed lines.
    pub fn load(path: &Path) -> Result<Journal, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
        Journal::parse(&text)
    }

    /// The latest entry per point index (append order wins).
    pub fn latest(&self) -> std::collections::BTreeMap<u64, &JournalEntry> {
        let mut latest = std::collections::BTreeMap::new();
        for e in &self.entries {
            latest.insert(e.index, e);
        }
        latest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FailureKind;

    fn done_entry(index: u64) -> JournalEntry {
        let outcome: PointOutcome<u64> = PointOutcome::Completed(index * 10);
        JournalEntry::from_outcome(index, &format!("p{index}"), &outcome, 1, |t| {
            Value::obj([("v", (*t).into())])
        })
    }

    fn failed_entry(index: u64) -> JournalEntry {
        let outcome: PointOutcome<u64> =
            PointOutcome::Failed(SimError::new(format!("p{index}"), FailureKind::Io, "flaky"));
        JournalEntry::from_outcome(index, &format!("p{index}"), &outcome, 3, |_| Value::Null)
    }

    fn header() -> RunHeader {
        RunHeader {
            version: JOURNAL_VERSION,
            points: 4,
            fingerprint: fingerprint(["a", "b"].into_iter(), 100, 200),
            warmup: 100,
            measure: 200,
        }
    }

    #[test]
    fn round_trips_header_and_entries() {
        let mut w = JournalWriter::new(Vec::new(), 2);
        w.header(&header());
        w.record(&done_entry(0));
        w.record(&failed_entry(1));
        w.record(&done_entry(2));
        let buf = w.finish().unwrap();
        let j = Journal::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(j.header, Some(header()));
        assert_eq!(j.entries, vec![done_entry(0), failed_entry(1), done_entry(2)]);
        assert!(j.entries[0].is_done());
        assert!(j.entries[0].to_error().is_none());
        let e = j.entries[1].to_error().unwrap();
        assert_eq!((e.kind, e.attempts), (FailureKind::Io, 3));
    }

    #[test]
    fn torn_final_line_is_ignored_but_mid_file_garbage_is_not() {
        let mut w = JournalWriter::new(Vec::new(), 1);
        w.header(&header());
        w.record(&done_entry(0));
        let mut text = String::from_utf8(w.finish().unwrap()).unwrap();
        text.push_str("{\"j\":\"point\",\"index\":1,\"lab"); // torn append
        let j = Journal::parse(&text).unwrap();
        assert_eq!(j.entries.len(), 1);
        let mid = text.replace("{\"j\":\"point\",\"index\":0", "garbage{") + "{\"j\":\"point\"}\n";
        // The diagnostic locates the damage for hand repair: 1-based
        // line number, exact byte offset, and a snippet of the line.
        let err = Journal::parse(&mid).unwrap_err();
        let offset = mid.find("garbage{").unwrap();
        assert!(err.starts_with(&format!("journal line 2 (byte offset {offset}):")), "{err}");
        assert!(err.contains("`garbage{"), "snippet names the offending line: {err}");
    }

    #[test]
    fn corruption_snippet_is_truncated_and_utf8_safe() {
        let long = format!("xyzzy{}\n{{\"j\":\"run\"}}\n", "é".repeat(100));
        let err = Journal::parse(&long).unwrap_err();
        assert!(err.starts_with("journal line 1 (byte offset 0):"), "{err}");
        assert!(err.contains("xyzzy"), "{err}");
        assert!(err.ends_with("…`"), "long lines are elided: {err}");
    }

    #[test]
    fn latest_entry_wins_per_index() {
        let mut w = JournalWriter::new(Vec::new(), 1);
        w.record(&failed_entry(1));
        w.record(&done_entry(1));
        let buf = w.finish().unwrap();
        let j = Journal::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let latest = j.latest();
        assert_eq!(latest.len(), 1);
        assert!(latest[&1].is_done());
    }

    #[test]
    fn fingerprint_is_sensitive_to_labels_and_scale() {
        let base = fingerprint(["a", "b"].into_iter(), 1, 2);
        assert_eq!(base, fingerprint(["a", "b"].into_iter(), 1, 2));
        assert_ne!(base, fingerprint(["a", "c"].into_iter(), 1, 2));
        assert_ne!(base, fingerprint(["ab"].into_iter(), 1, 2));
        assert_ne!(base, fingerprint(["a", "b"].into_iter(), 1, 3));
    }

    #[test]
    fn shared_buf_survives_the_writer() {
        let buf = SharedBuf::new();
        let mut w = JournalWriter::boxed(buf.clone());
        w.header(&header());
        w.record(&done_entry(0));
        drop(w); // even without finish(), batched lines may be pending...
        let j = Journal::parse(&buf.text()).unwrap();
        // ...but the header batch of 8 was not reached, so writes landed
        // on append (SharedBuf has no buffering of its own).
        assert_eq!(j.entries.len(), 1);
        assert!(j.header.is_some());
    }

    #[test]
    fn drop_flushes_and_syncs_the_batched_tail() {
        /// A target that only reveals bytes once flushed — so the test
        /// fails unless `Drop` actually flushes.
        struct Buffered {
            inner: SharedBuf,
            pending: Vec<u8>,
            synced: Arc<Mutex<u32>>,
        }
        impl Write for Buffered {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.pending.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                self.inner.write_all(&self.pending)?;
                self.pending.clear();
                Ok(())
            }
        }
        impl SyncWrite for Buffered {
            fn sync(&mut self) -> io::Result<()> {
                *self.synced.lock().unwrap() += 1;
                Ok(())
            }
        }
        let out = SharedBuf::new();
        let synced = Arc::new(Mutex::new(0u32));
        {
            let mut w = JournalWriter::new(
                Buffered { inner: out.clone(), pending: Vec::new(), synced: Arc::clone(&synced) },
                100, // far above the entry count: nothing flushes mid-run
            );
            w.header(&header());
            w.record(&done_entry(0));
            w.record(&failed_entry(1));
            assert_eq!(out.contents().len(), 0, "tail still buffered before drop");
        }
        let j = Journal::parse(&out.text()).unwrap();
        assert!(j.header.is_some());
        assert_eq!(j.entries.len(), 2);
        assert_eq!(*synced.lock().unwrap(), 1, "drop syncs exactly once");
    }

    #[test]
    fn writer_goes_inert_after_an_error() {
        struct Failing(u32);
        impl Write for Failing {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0 += 1;
                if self.0 > 1 {
                    Err(io::Error::other("disk full"))
                } else {
                    Ok(buf.len())
                }
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        impl SyncWrite for Failing {}
        let mut w = JournalWriter::new(Failing(0), 100);
        w.header(&header());
        w.record(&done_entry(0));
        w.record(&done_entry(1));
        assert!(w.error().is_some());
        assert_eq!(w.entries(), 1);
        assert!(w.finish().is_err());
    }
}

//! In-memory spans around the benchmark's calls into each layer.
//!
//! The benchmark records spans from its own code only: each one wraps a
//! call into a crate's public API (a sweep, a protocol round trip, a
//! fleet run). Spans carry a name, start, end, their parent, and a
//! shared id per job or point, are kept in memory while the workload
//! runs, and are written out at the end as Chrome-trace JSON. With the
//! tracer disabled a span is a branch and a direct call.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    id: u64,
    parent: Option<usize>,
    tid: u32,
    start_ns: u64,
    end_ns: u64,
}

/// The handle a span passes to its body, for opening child spans.
#[derive(Debug, Clone, Copy)]
pub struct SpanCtx {
    index: Option<usize>,
}

impl SpanCtx {
    /// The context of a span with no parent.
    pub const ROOT: SpanCtx = SpanCtx { index: None };
}

/// Records spans when enabled; otherwise runs bodies untouched.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Per-span-name totals: calls, wall and self time in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration.
    pub total_ms: f64,
    /// Summed duration minus the time child spans cover.
    pub self_ms: f64,
}

fn thread_tid() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local! {
        static TID: Cell<u32> = const { Cell::new(0) };
    }
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs bodies.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span store poisoned by a panicking benchmark thread")
    }

    /// Runs `body` inside a span named `name` under `parent`, tagged
    /// with the job or point `id` it belongs to.
    pub fn span<T>(
        &self,
        parent: SpanCtx,
        name: &'static str,
        id: u64,
        body: impl FnOnce(SpanCtx) -> T,
    ) -> T {
        if !self.enabled {
            return body(SpanCtx::ROOT);
        }
        let tid = thread_tid();
        let index = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                id,
                parent: parent.index,
                tid,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        let out = body(SpanCtx { index: Some(index) });
        let end = self.now_ns();
        self.lock()[index].end_ns = end;
        out
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Per-name call counts, total and self time. A span's self time is
    /// its duration minus the part covered by its direct children.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let spans = self.lock();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, child) in spans.iter().zip(&child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ms += dur as f64 / 1e6;
            t.self_ms += dur.saturating_sub(*child) as f64 / 1e6;
        }
        out
    }

    /// Renders every span as a Chrome-trace (`chrome://tracing`,
    /// Perfetto) JSON document of complete (`"ph":"X"`) events.
    pub fn chrome_trace(&self) -> String {
        let spans = self.lock();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{},\"parent\":{},\"id\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                i,
                parent,
                s.id,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span(SpanCtx::ROOT, "a", 1, |c| t.span(c, "b", 1, |_| 7));
        assert_eq!(v, 7);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span(SpanCtx::ROOT, "outer", 1, |c| {
            std::thread::sleep(std::time::Duration::from_millis(4));
            t.span(c, "inner", 1, |_| std::thread::sleep(std::time::Duration::from_millis(8)));
        });
        let totals = t.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!((outer.total_ms - outer.self_ms - inner.total_ms).abs() < 1e-6);
        assert!(outer.self_ms >= 3.5 && inner.self_ms >= 7.5);
        let doc = t.chrome_trace();
        let parsed = vm_obs::json::parse(&doc).expect("chrome trace is valid JSON");
        let events = parsed.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("args").and_then(|a| a.get("parent")).and_then(|p| p.as_u64()),
            Some(0)
        );
    }
}

//! The `watch` fan-out: bounded, non-blocking frame delivery to live
//! subscribers.
//!
//! A [`WatchHub`] lives on the daemon's shared state. Producers (the
//! job runners, admission, drain) [`publish`](WatchHub::publish) JSON
//! frames; each connected `watch` client holds a [`WatchSub`] with a
//! bounded queue. Delivery never blocks the job path: a subscriber that
//! falls more than its buffer behind is marked **lagged** — its queue
//! is dropped and its stream ends with an explicit `{"frame":"lagged"}`
//! line, so slowness costs the slow client its subscription, never the
//! daemon its throughput.
//!
//! Frame schemas are builder functions here ([`progress_frame`] and
//! friends) so the golden tests can pin the key sets — the frames are
//! the wire contract `repro watch --json` exposes to tooling (see
//! `docs/live.md`).

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use vm_explore::PointCheckpoint;
use vm_obs::json::Value;
use vm_obs::Event;

/// Default bound on a subscriber's frame queue.
pub const DEFAULT_WATCH_BUFFER: usize = 256;

/// What [`WatchSub::next`] yielded.
#[derive(Debug, Clone, PartialEq)]
pub enum SubNext {
    /// The next frame in order.
    Frame(Value),
    /// The subscriber fell behind and was dropped; no further frames.
    Lagged,
    /// Nothing arrived within the timeout; the subscription is live.
    Idle,
    /// The hub shut down; no further frames.
    Closed,
}

#[derive(Debug, Default)]
struct SubState {
    queue: VecDeque<Value>,
    lagged: bool,
    closed: bool,
}

/// One subscriber's bounded frame queue.
#[derive(Debug)]
pub struct WatchSub {
    /// `Some(job)` = frames for that job plus daemon-scoped frames;
    /// `None` = everything.
    filter: Option<u64>,
    cap: usize,
    state: Mutex<SubState>,
    ready: Condvar,
}

impl WatchSub {
    fn lock(&self) -> MutexGuard<'_, SubState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks up to `timeout` for the next queued frame.
    pub fn next(&self, timeout: Duration) -> SubNext {
        let mut st = self.lock();
        if st.queue.is_empty() && !st.lagged && !st.closed {
            let (guard, _) =
                self.ready.wait_timeout(st, timeout).unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
        if let Some(frame) = st.queue.pop_front() {
            return SubNext::Frame(frame);
        }
        if st.lagged {
            return SubNext::Lagged;
        }
        if st.closed {
            return SubNext::Closed;
        }
        SubNext::Idle
    }

    /// True once the subscriber has been dropped for lagging.
    pub fn is_lagged(&self) -> bool {
        self.lock().lagged
    }

    fn offer(&self, frame: &Value) {
        let mut st = self.lock();
        if st.lagged || st.closed {
            return;
        }
        if st.queue.len() >= self.cap {
            // Never block the publisher: the slow subscriber loses its
            // stream, with an explicit lagged marker as the last word.
            st.queue.clear();
            st.lagged = true;
        } else {
            st.queue.push_back(frame.clone());
        }
        drop(st);
        self.ready.notify_all();
    }

    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

/// Fans published frames out to every live subscriber.
#[derive(Debug, Default)]
pub struct WatchHub {
    subs: Mutex<Vec<Arc<WatchSub>>>,
    closed: Mutex<bool>,
}

impl WatchHub {
    /// A hub with no subscribers.
    pub fn new() -> WatchHub {
        WatchHub::default()
    }

    fn lock_subs(&self) -> MutexGuard<'_, Vec<Arc<WatchSub>>> {
        self.subs.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers a subscriber. `filter = Some(job)` narrows delivery to
    /// that job's frames plus daemon-scoped frames; `cap` bounds the
    /// queue (clamped to ≥ 1). Subscribing to a closed hub yields a
    /// subscription that immediately reports [`SubNext::Closed`].
    pub fn subscribe(&self, filter: Option<u64>, cap: usize) -> Arc<WatchSub> {
        let sub = Arc::new(WatchSub {
            filter,
            cap: cap.max(1),
            state: Mutex::new(SubState::default()),
            ready: Condvar::new(),
        });
        if *self.closed.lock().unwrap_or_else(|e| e.into_inner()) {
            sub.close();
        } else {
            self.lock_subs().push(sub.clone());
        }
        sub
    }

    /// Removes a subscriber (idempotent).
    pub fn unsubscribe(&self, sub: &Arc<WatchSub>) {
        self.lock_subs().retain(|s| !Arc::ptr_eq(s, sub));
    }

    /// Live subscribers (lagged ones are culled lazily on publish).
    pub fn subscribers(&self) -> usize {
        self.lock_subs().len()
    }

    /// Delivers `frame` to every subscriber it matches: `job = Some(id)`
    /// reaches subscribers of that job and of `*`; `job = None` marks a
    /// daemon-scoped frame and reaches everyone. Never blocks on a slow
    /// subscriber.
    pub fn publish(&self, job: Option<u64>, frame: &Value) {
        let mut subs = self.lock_subs();
        for sub in subs.iter() {
            let matches = match (job, sub.filter) {
                (_, None) | (None, _) => true,
                (Some(j), Some(f)) => j == f,
            };
            if matches {
                sub.offer(frame);
            }
        }
        subs.retain(|s| !s.is_lagged());
    }

    /// Closes every subscription; subsequent publishes are dropped.
    pub fn close(&self) {
        *self.closed.lock().unwrap_or_else(|e| e.into_inner()) = true;
        for sub in self.lock_subs().drain(..) {
            sub.close();
        }
    }
}

/// A job's overall progress in instructions at checkpoint `cp`:
/// completed points are worth a full horizon each, the live point its
/// checkpointed count.
pub fn overall_progress(cp: &PointCheckpoint, done: u64, points: u64) -> u64 {
    done.min(points) * cp.instrs_total + cp.instrs.min(cp.instrs_total)
}

/// A `progress` frame: a checkpoint from inside a simulating point,
/// with job-level completion context folded in.
pub fn progress_frame(
    t: u64,
    job: u64,
    cp: &PointCheckpoint,
    done: u64,
    points: u64,
    queue_depth: u64,
    degraded: bool,
) -> Value {
    let total = (points.max(1) * cp.instrs_total.max(1)) as f64;
    let percent = (overall_progress(cp, done, points) as f64 / total * 100.0).min(100.0);
    Value::obj([
        ("frame", "progress".into()),
        ("t", t.into()),
        ("job", job.into()),
        ("point", (cp.index as u64).into()),
        ("label", cp.label.as_str().into()),
        ("workload", cp.workload.as_str().into()),
        ("seq", cp.seq.into()),
        ("instrs", cp.instrs.into()),
        ("instrs_total", cp.instrs_total.into()),
        ("done", done.into()),
        ("points", points.into()),
        ("percent", percent.into()),
        ("vmcpi", cp.vmcpi.into()),
        ("mcpi", cp.mcpi.into()),
        ("tlb_misses", cp.tlb_misses.into()),
        ("walks", cp.walks.into()),
        ("queue_depth", queue_depth.into()),
        ("degraded", degraded.into()),
    ])
}

/// A `point_done` frame: one sweep point finished (or failed).
pub fn point_frame(t: u64, job: u64, point: u64, ok: bool, done: u64, points: u64) -> Value {
    Value::obj([
        ("frame", "point_done".into()),
        ("t", t.into()),
        ("job", job.into()),
        ("point", point.into()),
        ("ok", ok.into()),
        ("done", done.into()),
        ("points", points.into()),
    ])
}

/// A `worker` frame: one supervised-pool lifecycle event (the event's
/// own payload keys ride along under its `kind`). Daemon-scoped — with
/// concurrent jobs a worker event cannot be attributed to one job, so
/// it is delivered to every subscriber rather than misattributed.
pub fn worker_frame(t: u64, ev: &Event) -> Value {
    let mut pairs: Vec<(String, Value)> = vec![
        ("frame".to_owned(), "worker".into()),
        ("t".to_owned(), t.into()),
        ("kind".to_owned(), ev.name().into()),
    ];
    if let Value::Obj(fields) = ev.to_json(t) {
        pairs.extend(fields.into_iter().filter(|(k, _)| k != "t" && k != "ev"));
    }
    Value::Obj(pairs)
}

/// An `admitted` frame: a job entered the queue.
pub fn admitted_frame(t: u64, job: u64, points: u64, queue_depth: u64, degraded: bool) -> Value {
    Value::obj([
        ("frame", "admitted".into()),
        ("t", t.into()),
        ("job", job.into()),
        ("points", points.into()),
        ("queue_depth", queue_depth.into()),
        ("degraded", degraded.into()),
    ])
}

/// A `done` frame: a job reached a terminal state. Always the last
/// job-scoped frame a subscriber of that job receives.
pub fn done_frame(t: u64, job: u64, state: &str, points: u64, failed: u64, wall_ms: u64) -> Value {
    Value::obj([
        ("frame", "done".into()),
        ("t", t.into()),
        ("job", job.into()),
        ("state", state.into()),
        ("points", points.into()),
        ("failed", failed.into()),
        ("wall_ms", wall_ms.into()),
    ])
}

/// A `lagged` frame: the subscriber fell behind and was dropped. Always
/// the last frame on a lagged stream.
pub fn lagged_frame(t: u64) -> Value {
    Value::obj([("frame", "lagged".into()), ("t", t.into())])
}

/// A `drain` frame: the daemon began a graceful drain.
pub fn drain_frame(t: u64, pending: u64) -> Value {
    Value::obj([("frame", "drain".into()), ("t", t.into()), ("pending", pending.into())])
}

/// A `tick` frame: idle keepalive so clients (and the server, via the
/// failed write) can tell a quiet stream from a dead peer.
pub fn tick_frame(t: u64) -> Value {
    Value::obj([("frame", "tick".into()), ("t", t.into())])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(n: u64) -> Value {
        Value::obj([("frame", "tick".into()), ("t", n.into())])
    }

    #[test]
    fn publish_respects_job_filters() {
        let hub = WatchHub::new();
        let all = hub.subscribe(None, 8);
        let one = hub.subscribe(Some(1), 8);
        let other = hub.subscribe(Some(2), 8);
        hub.publish(Some(1), &frame(10)); // job 1 only
        hub.publish(None, &frame(20)); // daemon-scoped: everyone
        assert_eq!(all.next(Duration::ZERO), SubNext::Frame(frame(10)));
        assert_eq!(all.next(Duration::ZERO), SubNext::Frame(frame(20)));
        assert_eq!(one.next(Duration::ZERO), SubNext::Frame(frame(10)));
        assert_eq!(one.next(Duration::ZERO), SubNext::Frame(frame(20)));
        assert_eq!(other.next(Duration::ZERO), SubNext::Frame(frame(20)));
        assert_eq!(other.next(Duration::ZERO), SubNext::Idle);
    }

    #[test]
    fn slow_subscribers_lag_out_without_blocking() {
        let hub = WatchHub::new();
        let slow = hub.subscribe(None, 2);
        for i in 0..5 {
            hub.publish(None, &frame(i)); // third publish overflows cap 2
        }
        assert_eq!(slow.next(Duration::ZERO), SubNext::Lagged);
        assert_eq!(hub.subscribers(), 0, "lagged subscriber culled");
        // Publishing to no one is fine; the lagged sub stays lagged.
        hub.publish(None, &frame(9));
        assert_eq!(slow.next(Duration::ZERO), SubNext::Lagged);
    }

    #[test]
    fn close_wakes_subscribers_and_rejects_new_ones() {
        let hub = WatchHub::new();
        let sub = hub.subscribe(None, 8);
        hub.publish(None, &frame(1));
        hub.close();
        // Queued frames drain first, then the close is visible.
        assert_eq!(sub.next(Duration::ZERO), SubNext::Frame(frame(1)));
        assert_eq!(sub.next(Duration::ZERO), SubNext::Closed);
        let late = hub.subscribe(None, 8);
        assert_eq!(late.next(Duration::ZERO), SubNext::Closed);
    }

    #[test]
    fn unsubscribe_is_idempotent() {
        let hub = WatchHub::new();
        let sub = hub.subscribe(Some(3), 8);
        assert_eq!(hub.subscribers(), 1);
        hub.unsubscribe(&sub);
        hub.unsubscribe(&sub);
        assert_eq!(hub.subscribers(), 0);
    }

    #[test]
    fn progress_percent_is_overall_job_completion() {
        let cp = PointCheckpoint {
            index: 2,
            label: "SYS tlb.entries=64".to_owned(),
            workload: "gcc".to_owned(),
            seq: 4,
            instrs: 500,
            instrs_total: 1_000,
            vmcpi: 0.25,
            mcpi: 0.5,
            tlb_misses: 12,
            walks: 12,
        };
        // 2 of 4 points done, current point half way: 62.5 %.
        let v = progress_frame(7, 1, &cp, 2, 4, 0, false);
        assert!((v.get("percent").unwrap().as_f64().unwrap() - 62.5).abs() < 1e-9);
        assert_eq!(v.get("frame").unwrap().as_str(), Some("progress"));
        // Completion context never pushes percent past 100.
        let v = progress_frame(7, 1, &cp, 9, 4, 0, false);
        assert!(v.get("percent").unwrap().as_f64().unwrap() <= 100.0);
    }

    #[test]
    fn worker_frames_carry_the_event_payload() {
        let v = worker_frame(5, &Event::WorkerCrashed { worker: 1, point: 3, restarts: 2 });
        assert_eq!(v.get("frame").unwrap().as_str(), Some("worker"));
        assert_eq!(v.get("kind").unwrap().as_str(), Some("worker_crashed"));
        assert_eq!(v.get("worker").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("point").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("t").unwrap().as_u64(), Some(5));
        assert!(v.get("ev").is_none(), "raw event name key must not leak");
    }
}

//! The parallel, fault-isolated sweep executor.
//!
//! The unit of work is a **lane**: pending points that replay one record
//! stream (same workload and trace seed, or same library trace). One
//! worker synthesizes or loads the stream once and steps every member's
//! simulator over it chunk by chunk, so a sweep over system axes pays
//! for each trace once. Chaos targets, process-isolated points and
//! retries run as width-1 lanes through the same runner.
//!
//! Lanes are distributed round-robin over per-worker deques; a worker
//! that drains its own queue **steals** from the back of the fullest
//! other queue (victim scan order is randomized per worker with a
//! deterministic [`SplitMix64`] stream, so contention patterns vary but
//! runs are reproducible). Every random stream a *result* depends on —
//! the workload generator and the TLB replacement RNG — is seeded from
//! the point's spec alone, never from worker identity, and outcomes are
//! merged in point order; the same sweep therefore produces bit-identical
//! results at any `--jobs` count.
//!
//! [`run_sweep_hardened`] is the full executor: each point's share of
//! every chunk runs inside `catch_unwind` so one panicking point becomes a
//! [`PointOutcome::Failed`] data point instead of a dead run, transient
//! I/O failures are retried under a [`RetryPolicy`], a walk-cycle
//! [`HardenPolicy::point_budget`] degrades runaway points to
//! [`PointOutcome::TimedOut`], finished points stream into an optional
//! run journal for crash-safe resume, and a [`ChaosPlan`] can inject
//! faults to prove all of it works. [`run_sweep`] is the strict facade:
//! same machinery, but any failure is a panic (for callers that treat
//! the plan as pre-validated). [`run_reports`] runs bare points (the
//! paper figures' grids) on the same lanes and pool and returns their raw
//! reports.
//!
//! Progress goes through the `vm-obs` [`Reporter`] (a heartbeat line
//! roughly every two seconds, per-point completions at Verbose), and the
//! sweep's lifecycle is emitted into any [`Sink`]: an optional
//! [`Event::RunResumed`], [`Event::SweepStarted`], then — in point
//! order, after the order-independent merge, so event streams are
//! deterministic at any worker count — [`Event::PointRetried`] per
//! retry and one [`Event::SweepPointDone`] or [`Event::PointFailed`]
//! per point.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vm_core::cost::CostModel;
use vm_core::{MemorySystem, SimConfig, SimReport};
use vm_harden::{
    check_record, classify_panic, quiet_panics, with_retry_salted, ChaosPlan, CorruptRecord,
    DeadlineSink, DynJournalWriter, FailureKind, Fault, JournalEntry, PointOutcome, RetryPolicy,
    SimError,
};
use vm_obs::{Event, Heartbeat, NopSink, Reporter, Sink, SnapshotCheckpoint, SnapshotSink, Tee};
use vm_supervise::WorkerPool;
use vm_types::SplitMix64;

use crate::journal::result_to_value;
use crate::progress::{PointCheckpoint, ProgressConfig};
use crate::sweep::{PlannedPoint, SweepPlan};

/// Run lengths for one sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Instructions executed before counters are reset.
    pub warmup: u64,
    /// Instructions measured.
    pub measure: u64,
    /// Worker threads (clamped to at least 1, at most the point count).
    pub jobs: usize,
}

impl ExecConfig {
    /// The default experiment scale.
    ///
    /// The paper ran ≤200 M instructions per point; cache/TLB behaviour
    /// stabilizes far earlier for the megabyte-scale working sets
    /// simulated here, so the default measures 2 M instructions after a
    /// 1 M warm-up.
    pub const DEFAULT: ExecConfig = ExecConfig { warmup: 1_000_000, measure: 2_000_000, jobs: 1 };
    /// Fast smoke-test scale.
    pub const QUICK: ExecConfig = ExecConfig { warmup: 200_000, measure: 500_000, jobs: 1 };
    /// High-fidelity scale for final numbers.
    pub const FULL: ExecConfig = ExecConfig { warmup: 2_000_000, measure: 8_000_000, jobs: 1 };
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig::DEFAULT
    }
}

/// Fault-handling knobs for a hardened sweep.
#[derive(Debug, Clone, Default)]
pub struct HardenPolicy {
    /// Retry policy for transient (I/O) point failures.
    pub retry: RetryPolicy,
    /// Walk-cycle budget per point; exceeding it degrades the point to
    /// [`PointOutcome::TimedOut`]. `None` = unlimited.
    pub point_budget: Option<u64>,
    /// Fault-injection plan (empty = no chaos).
    pub chaos: ChaosPlan,
    /// Cooperative cancellation flag, checked between lanes. Once set,
    /// points that have not started become [`FailureKind::Cancelled`]
    /// failures (never journaled, so a resume re-runs them); points
    /// already simulating (the running lanes) finish and are journaled
    /// normally.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Process-level isolation: when set, every point executes inside a
    /// sandboxed worker process leased from this supervised pool instead
    /// of in-process under `catch_unwind`. The worker runs the *same*
    /// measurement path (chaos, retries, budgets included) and replies
    /// with the bit-exact journal codec, so merged results are identical
    /// to in-process runs at any `--jobs` count — but a point that
    /// aborts, segfaults, or is OOM-killed costs one worker, not the
    /// sweep ([`FailureKind::Crash`] once the crash-loop breaker trips).
    pub process: Option<Arc<WorkerPool>>,
    /// Live progress reporting: when set, in-process points run with a
    /// [`SnapshotSink`] attached and fire
    /// [`SweepObserver::checkpoint`](crate::progress::SweepObserver::checkpoint)
    /// every `interval` retired instructions; every point (including
    /// process-isolated ones, which checkpoint only at point
    /// granularity) fires `point_finished`, and supervised-pool
    /// lifecycle events are drained to `pool_event` as points complete
    /// instead of only at sweep teardown. Observers are observers:
    /// results stay bit-identical with or without one attached.
    pub progress: Option<ProgressConfig>,
    /// Where `trace:NAME` workloads are loaded from. `None` falls back
    /// to the `VM_TRACE_LIBRARY` environment variable; a point that
    /// names a library trace with neither set fails as
    /// [`FailureKind::Ingest`]. The serve daemon sets this to
    /// `<state-dir>/traces` so uploaded traces resolve identically
    /// in-process and across the worker wire.
    pub trace_library: Option<std::path::PathBuf>,
}

/// One measured sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// Position in sweep order.
    pub index: usize,
    /// The point's label (`NAME key=value ...`).
    pub label: String,
    /// The `(axis key, value)` pairs that distinguish this point.
    pub settings: Vec<(String, String)>,
    /// The composed system's paper-style label.
    pub system: String,
    /// The workload preset measured.
    pub workload: String,
    /// VM overhead CPI (Table 3 components).
    pub vmcpi: f64,
    /// Precise-interrupt CPI at the spec's interrupt cost.
    pub interrupt_cpi: f64,
    /// Baseline cache overhead CPI (Table 2 components).
    pub mcpi: f64,
    /// `vmcpi + interrupt_cpi` — the quantity the Pareto frontier and
    /// sensitivity passes minimize.
    pub vm_total: f64,
    /// The TLB area proxy (see [`tlb_area_bytes`]).
    pub tlb_area_bytes: u64,
    /// Combined I+D TLB miss ratio, when the system has TLBs.
    pub tlb_miss_ratio: Option<f64>,
    /// User instructions measured.
    pub user_instrs: u64,
    /// Lineage-context fingerprint: canonical spec TOML, label, trace
    /// seed, and exec scale, hashed where the simulation ran (see
    /// [`crate::attest`]).
    pub ctx: u64,
    /// Attestation over `ctx` plus every payload bit (index excluded);
    /// re-verified at every trust boundary downstream.
    pub att: u64,
}

/// The per-point outcome a hardened sweep produces.
pub type SweepPointOutcome = PointOutcome<PointResult>;

/// Everything a hardened sweep produced: one outcome per planned point
/// (in point order), attempt counts, and how many points came from a
/// journal instead of being simulated.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One outcome per point, in point order.
    pub outcomes: Vec<SweepPointOutcome>,
    /// Attempts consumed per point (1 = first try; journaled points
    /// keep 1).
    pub attempts: Vec<u32>,
    /// Points restored from a resume journal rather than simulated.
    pub resumed: usize,
}

impl SweepOutcome {
    /// The completed results, in point order.
    pub fn results(&self) -> impl Iterator<Item = &PointResult> {
        self.outcomes.iter().filter_map(PointOutcome::completed)
    }

    /// The failures (including timeouts), in point order.
    pub fn failures(&self) -> impl Iterator<Item = &SimError> {
        self.outcomes.iter().filter_map(PointOutcome::error)
    }

    /// How many points did not complete.
    pub fn failed_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_failure()).count()
    }

    /// Whether every point completed.
    pub fn is_clean(&self) -> bool {
        self.failed_count() == 0
    }

    /// Splits into completed results and failures, both in point order.
    pub fn into_parts(self) -> (Vec<PointResult>, Vec<SimError>) {
        let mut results = Vec::new();
        let mut failures = Vec::new();
        for outcome in self.outcomes {
            match outcome {
                PointOutcome::Completed(r) => results.push(r),
                PointOutcome::Failed(e) | PointOutcome::TimedOut(e) => failures.push(e),
            }
        }
        (results, failures)
    }
}

/// A die-area proxy for the translation hardware: split I/D TLBs at 16
/// bytes per fully-associative entry (~50 tag+data bits plus CAM
/// overhead). The absolute scale is arbitrary; the Pareto frontier only
/// consumes the ordering. TLB-less systems cost 0.
pub fn tlb_area_bytes(config: &SimConfig) -> u64 {
    if config.system.uses_tlb() {
        2 * config.tlb_entries as u64 * 16
    } else {
        0
    }
}

/// Runs every point of `plan`, returning results in point order.
///
/// The strict facade over [`run_sweep_hardened`]: no retries, no budget,
/// no chaos, no journal — and any point failure panics.
///
/// `sink` receives the sweep lifecycle events ([`Event::SweepStarted`]
/// up front, one [`Event::SweepPointDone`] per point, emitted after the
/// order-independent merge so event streams are deterministic too); pass
/// [`vm_obs::NopSink`] when nothing listens.
///
/// # Panics
///
/// Panics if a point's workload fails to build or the simulation rejects
/// a config — both are validated during planning, so a failure here is a
/// programming error.
pub fn run_sweep<S: Sink>(
    plan: &SweepPlan,
    exec: &ExecConfig,
    reporter: &Reporter,
    sink: &mut S,
) -> Vec<PointResult> {
    let outcome = run_sweep_hardened(
        plan,
        exec,
        &HardenPolicy::default(),
        BTreeMap::new(),
        reporter,
        sink,
        None,
    );
    outcome
        .outcomes
        .into_iter()
        .map(|o| match o {
            PointOutcome::Completed(r) => r,
            PointOutcome::Failed(e) | PointOutcome::TimedOut(e) => panic!("{e}"),
        })
        .collect()
}

/// Simulates `points` on the sweep's lanes and worker pool, returning
/// each point's report in slice order.
///
/// This is the bare path under [`run_sweep`]: nothing is retried,
/// budgeted, chaos-wrapped, sealed or journaled. A point's simulator is
/// built from its `config` as given, so it may carry settings no spec
/// key reaches; of its `spec` only the workload and trace seed are read,
/// and they pick its lane. `label` and `settings` name the point in
/// progress lines and errors; `index` is not read.
///
/// A point that fails (a config the simulator rejects, a workload that
/// is not a preset, a panic) fails alone; the others still run.
pub fn run_reports(
    points: &[PlannedPoint],
    exec: &ExecConfig,
    reporter: &Reporter,
) -> Vec<Result<SimReport, SimError>> {
    let policy = HardenPolicy::default();
    let all: Vec<usize> = (0..points.len()).collect();
    let slots: Vec<Mutex<Option<Result<SimReport, SimError>>>> =
        points.iter().map(|_| Mutex::new(None)).collect();
    let lanes = plan_lanes(points, &all, exec.jobs.max(1), &policy);
    let progress = LaneProgress::new(reporter, "sweep", points.len(), exec);
    drive_lanes(&lanes, exec.jobs, &progress, |lane| {
        let t0 = Instant::now();
        let members: Vec<&PlannedPoint> = lane.iter().map(|&ix| &points[ix]).collect();
        for (&ix, report) in lane.iter().zip(step_lane(&members, exec, &policy, |_| NopSink)) {
            let status = if report.is_ok() { "done" } else { "FAILED" };
            progress.finished(&points[ix].label, status, t0);
            *lock_slot(&slots[ix]) = Some(report);
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap_or_else(|e| e.into_inner()).expect("every point ran"))
        .collect()
}

/// Runs `plan` with per-point fault isolation, returning one
/// [`SweepPointOutcome`] per point in point order.
///
/// * Points whose index appears in `seeded` (results restored from a
///   resume journal) are not re-simulated; they are merged back in
///   place, bit-identical to an uninterrupted run, and counted in
///   [`SweepOutcome::resumed`].
/// * Each simulated point runs under `catch_unwind` with the panic hook
///   quieted: a panic, corrupt trace record, or blown walk-cycle budget
///   becomes that point's [`PointOutcome`], never the run's death.
/// * Transient ([`FailureKind::Io`]) failures retry under
///   `policy.retry` with capped exponential backoff.
/// * Every finished point (completed or failed) is appended to
///   `journal` when one is given, so a killed run can resume.
pub fn run_sweep_hardened<S: Sink>(
    plan: &SweepPlan,
    exec: &ExecConfig,
    policy: &HardenPolicy,
    seeded: BTreeMap<usize, PointResult>,
    reporter: &Reporter,
    sink: &mut S,
    journal: Option<&Mutex<DynJournalWriter>>,
) -> SweepOutcome {
    let points = &plan.points;
    let total = points.len();
    let resumed = seeded.keys().filter(|&&ix| ix < total).count();
    if S::ENABLED {
        if resumed > 0 {
            sink.emit(
                0,
                &Event::RunResumed {
                    completed: resumed as u64,
                    remaining: (total - resumed) as u64,
                },
            );
        }
        sink.emit(
            0,
            &Event::SweepStarted {
                points: total as u64,
                axes: points.first().map(|p| p.settings.len() as u32).unwrap_or(0),
                jobs: exec.jobs.max(1) as u32,
            },
        );
    }

    let slots: Vec<Mutex<Option<(SweepPointOutcome, u32)>>> =
        (0..total).map(|_| Mutex::new(None)).collect();
    let mut pending: Vec<usize> = Vec::with_capacity(total - resumed);
    for (ix, slot) in slots.iter().enumerate() {
        match seeded.get(&ix) {
            Some(r) => *lock_slot(slot) = Some((PointOutcome::Completed(r.clone()), 1)),
            None => pending.push(ix),
        }
    }

    if !pending.is_empty() {
        run_pending(points, &pending, exec, policy, reporter, journal, &slots, S::ENABLED);
    }

    let mut outcomes = Vec::with_capacity(total);
    let mut attempts = Vec::with_capacity(total);
    for slot in slots {
        let (outcome, tries) =
            slot.into_inner().unwrap_or_else(|e| e.into_inner()).expect("every point ran");
        outcomes.push(outcome);
        attempts.push(tries);
    }

    if S::ENABLED {
        let mut now = 0;
        for (ix, outcome) in outcomes.iter().enumerate() {
            for retry in 2..=attempts[ix] {
                sink.emit(now, &Event::PointRetried { index: ix as u64, attempt: retry });
            }
            match outcome {
                PointOutcome::Completed(r) => {
                    now += r.user_instrs;
                    sink.emit(
                        now,
                        &Event::SweepPointDone {
                            index: ix as u64,
                            instrs: r.user_instrs,
                            vm_total_micro: (r.vm_total * 1e6).round() as u64,
                        },
                    );
                }
                PointOutcome::Failed(_) | PointOutcome::TimedOut(_) => {
                    sink.emit(
                        now,
                        &Event::PointFailed {
                            index: ix as u64,
                            attempts: attempts[ix],
                            timed_out: matches!(outcome, PointOutcome::TimedOut(_)),
                        },
                    );
                }
            }
        }
        // Supervision telemetry (spawns, crashes, restarts, breaker
        // trips) trails the per-point events; the pool buffers them
        // because they happen on worker threads, off the sink.
        if let Some(pool) = &policy.process {
            for ev in pool.take_events() {
                sink.emit(now, &ev);
            }
        }
    } else if let Some(pool) = &policy.process {
        // A sink-less sweep must not accumulate events forever on a pool
        // that outlives it: drain, and hand any leftovers (events raced
        // in after the last per-point drain) to the observer instead of
        // discarding them.
        let leftovers = pool.take_events();
        if let Some(progress) = &policy.progress {
            for ev in &leftovers {
                progress.observer.pool_event(ev);
            }
        }
    }
    SweepOutcome { outcomes, attempts, resumed }
}

/// Locks a result slot, tolerating poisoning (a worker that panicked
/// between store and unlock must not cascade).
fn lock_slot<T>(slot: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    slot.lock().unwrap_or_else(|e| e.into_inner())
}

/// Records per lane chunk: ≈96 KB of 24-byte records, small enough to
/// stay cache-resident while every member of a lane steps over it.
const LANE_CHUNK: usize = 4096;

/// The widest lane: bounds how many simulators one worker holds at once.
const MAX_LANE_WIDTH: usize = 8;

/// Groups the `pending` points into lanes: sets of points that replay
/// one record stream, the same `(workload, trace_seed)` or the same
/// `trace:NAME`, so one worker synthesizes or loads it once for all of
/// them.
///
/// Each stream group is split into `ceil(2·jobs / groups)` near-equal
/// lanes (one lane per group at `jobs = 1`), at most
/// [`MAX_LANE_WIDTH`] wide, so every worker still has a lane to steal.
/// Points with a chaos fault, and every point under process isolation,
/// run as width-1 lanes. Lanes come back in order of their first point.
fn plan_lanes(
    points: &[PlannedPoint],
    pending: &[usize],
    jobs: usize,
    policy: &HardenPolicy,
) -> Vec<Vec<usize>> {
    let mut lanes: Vec<Vec<usize>> = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of: BTreeMap<(&str, u64), usize> = BTreeMap::new();
    for &ix in pending {
        let point = &points[ix];
        if policy.process.is_some() || policy.chaos.fault_for(point.index).is_some() {
            lanes.push(vec![ix]);
            continue;
        }
        let name = point.spec.workload_name();
        // A library trace replays the same records whatever the seed.
        let seed = if vm_trace::trace_workload(name).is_some() { 0 } else { point.spec.trace_seed };
        let g = *group_of.entry((name, seed)).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(ix);
    }
    let per_group = if jobs == 1 { 1 } else { (2 * jobs).div_ceil(groups.len().max(1)) };
    for group in groups {
        let n = group.len();
        let k = per_group.max(n.div_ceil(MAX_LANE_WIDTH)).min(n);
        let mut rest = group.as_slice();
        for i in 0..k {
            let (lane, tail) = rest.split_at(n / k + usize::from(i < n % k));
            lanes.push(lane.to_vec());
            rest = tail;
        }
    }
    lanes.sort_unstable_by_key(|lane| lane[0]);
    lanes
}

/// Simulates the `pending` points of `plan` over the lane pool,
/// storing `(outcome, attempts)` into `slots`.
#[allow(clippy::too_many_arguments)]
fn run_pending(
    points: &[PlannedPoint],
    pending: &[usize],
    exec: &ExecConfig,
    policy: &HardenPolicy,
    reporter: &Reporter,
    journal: Option<&Mutex<DynJournalWriter>>,
    slots: &[Mutex<Option<(SweepPointOutcome, u32)>>],
    sink_enabled: bool,
) {
    let lanes = plan_lanes(points, pending, exec.jobs.max(1), policy);
    let progress = LaneProgress::new(reporter, "explore", pending.len(), exec);
    drive_lanes(&lanes, exec.jobs, &progress, |lane| {
        if policy.cancel.as_ref().is_some_and(|c| c.load(Ordering::Relaxed)) {
            // Drain without simulating or journaling: the missing
            // journal entry is what makes a resume re-run the point.
            for &ix in lane {
                let e = point_error(
                    &points[ix],
                    FailureKind::Cancelled,
                    "sweep cancelled before this point ran",
                );
                *lock_slot(&slots[ix]) = Some((PointOutcome::Failed(e), 1));
                if let Some(progress) = &policy.progress {
                    progress.observer.point_finished(ix, false);
                }
            }
            return;
        }
        let t0 = Instant::now();
        let members: Vec<&PlannedPoint> = lane.iter().map(|&ix| &points[ix]).collect();
        let outcomes = measure_lane(&members, exec, policy);
        for (&ix, (outcome, tries)) in lane.iter().zip(outcomes) {
            let point = &points[ix];
            if let Some(journal) = journal {
                let entry = JournalEntry::from_outcome(
                    ix as u64,
                    &point.label,
                    &outcome,
                    tries,
                    result_to_value,
                );
                lock_slot(journal).record(&entry);
            }
            progress.finished(&point.label, outcome.status_label(), t0);
            let ok = matches!(outcome, PointOutcome::Completed(_));
            *lock_slot(&slots[ix]) = Some((outcome, tries));
            if let Some(progress) = &policy.progress {
                progress.observer.point_finished(ix, ok);
                // Deliver supervision telemetry (crashes, restarts,
                // breaker trips) live, per point, rather than only at
                // sweep teardown. When a recording sink is attached it
                // keeps its deterministic teardown drain instead.
                if !sink_enabled {
                    if let Some(pool) = &policy.process {
                        for ev in pool.take_events() {
                            progress.observer.pool_event(&ev);
                        }
                    }
                }
            }
        }
    });
}

/// Points finished and instructions simulated by a lane pool, for its
/// per-point lines (Verbose) and its heartbeat.
struct LaneProgress<'a> {
    reporter: &'a Reporter,
    /// Names the pool in every line (`[explore]`, `[sweep]`).
    tag: &'a str,
    /// Points the pool will finish.
    points: usize,
    /// Instructions one point simulates.
    per_point: u64,
    done: AtomicUsize,
    consumed: AtomicU64,
}

impl<'a> LaneProgress<'a> {
    fn new(reporter: &'a Reporter, tag: &'a str, points: usize, exec: &ExecConfig) -> Self {
        LaneProgress {
            reporter,
            tag,
            points,
            per_point: exec.warmup + exec.measure,
            done: AtomicUsize::new(0),
            consumed: AtomicU64::new(0),
        }
    }

    /// Counts one finished point of a lane that started at `t0`.
    fn finished(&self, label: &str, status: &str, t0: Instant) {
        self.consumed.fetch_add(self.per_point, Ordering::Relaxed);
        let k = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        self.reporter.detail(format!(
            "  [{}] {k}/{} `{label}` {status} in {:.2}s",
            self.tag,
            self.points,
            t0.elapsed().as_secs_f64()
        ));
    }

    /// One heartbeat line for a pool that started at `started`.
    fn beat(&self, started: Instant) {
        let instrs = self.consumed.load(Ordering::Relaxed);
        let planned = self.per_point * self.points as u64;
        self.reporter.heartbeat(format!(
            "  [{}] {}/{} points ({:.0}% of planned instrs) at {:.1}M instrs/s",
            self.tag,
            self.done.load(Ordering::Relaxed),
            self.points,
            100.0 * instrs as f64 / planned.max(1) as f64,
            instrs as f64 / started.elapsed().as_secs_f64().max(1e-9) / 1e6,
        ));
    }
}

/// Runs `run` once per lane on up to `jobs` workers (never more than
/// there are lanes), with a heartbeat line from `progress` roughly
/// every two seconds; silent for short runs.
///
/// Lanes are dealt round-robin into per-worker deques; a worker that
/// drains its own steals from the back of the fullest other deque.
/// Workers quiet the panic hook, since `run` catches and classifies
/// the unwinds it expects. A panic that escapes `run` is an
/// infrastructure bug and is resumed here once every worker has
/// stopped.
fn drive_lanes(
    lanes: &[Vec<usize>],
    jobs: usize,
    progress: &LaneProgress<'_>,
    run: impl Fn(&[usize]) + Sync,
) {
    if lanes.is_empty() {
        return;
    }
    let jobs = jobs.clamp(1, lanes.len());
    let queues: Vec<Mutex<VecDeque<usize>>> =
        (0..jobs).map(|w| Mutex::new((w..lanes.len()).step_by(jobs).collect())).collect();
    let heartbeat = Heartbeat::new();
    let started = Instant::now();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|w| {
                let (queues, run) = (&queues, &run);
                scope.spawn(move || {
                    let _quiet = quiet_panics();
                    // Deterministic per-worker stream; only steers which
                    // victim is probed first, never anything a result
                    // depends on.
                    let mut rng = SplitMix64::new(steal_seed(w));
                    while let Some(lane_ix) = next_lane(w, queues, &mut rng) {
                        run(&lanes[lane_ix]);
                    }
                })
            })
            .collect();
        scope.spawn(|| heartbeat.run(Duration::from_secs(2), || progress.beat(started)));
        let worker_panic = workers.into_iter().find_map(|h| h.join().err());
        heartbeat.finish();
        if let Some(payload) = worker_panic {
            std::panic::resume_unwind(payload);
        }
    });
}

/// Mixes a worker id into a seed for its steal stream.
fn steal_seed(w: usize) -> u64 {
    0x5eed_ba5e_0000_0000 ^ w as u64
}

/// Pops the worker's own queue, or steals from the back of the fullest
/// other queue (first probe randomized by the worker's stream).
fn next_lane(w: usize, queues: &[Mutex<VecDeque<usize>>], rng: &mut SplitMix64) -> Option<usize> {
    if let Some(ix) = lock_slot(&queues[w]).pop_front() {
        return Some(ix);
    }
    let n = queues.len();
    let start = (rng.next_u64() as usize) % n;
    // Two passes: find the fullest victim, then fall back to any victim
    // (a queue may drain between the scan and the steal).
    let mut best: Option<(usize, usize)> = None;
    for off in 0..n {
        let v = (start + off) % n;
        if v == w {
            continue;
        }
        let len = lock_slot(&queues[v]).len();
        if len > best.map(|(_, l)| l).unwrap_or(0) {
            best = Some((v, len));
        }
    }
    if let Some((v, _)) = best {
        if let Some(ix) = lock_slot(&queues[v]).pop_back() {
            return Some(ix);
        }
    }
    for off in 0..n {
        let v = (start + off) % n;
        if v == w {
            continue;
        }
        if let Some(ix) = lock_slot(&queues[v]).pop_back() {
            return Some(ix);
        }
    }
    None
}

/// A [`SimError`] carrying the point's label and axis settings.
pub(crate) fn point_error(
    point: &PlannedPoint,
    kind: FailureKind,
    detail: impl Into<String>,
) -> SimError {
    let mut e = SimError::new(point.label.clone(), kind, detail);
    e.settings = point.settings.clone();
    e
}

/// Measures one point with full isolation: a width-1 lane. With
/// [`HardenPolicy::process`] set the point crosses into a supervised
/// worker process (which runs this same function, sans pool). Returns
/// the outcome and the attempts consumed.
pub(crate) fn measure_point_isolated(
    point: &PlannedPoint,
    exec: &ExecConfig,
    policy: &HardenPolicy,
) -> (SweepPointOutcome, u32) {
    measure_lane(&[point], exec, policy).pop().expect("a width-1 lane has one outcome")
}

/// Measures every member of a lane, returning `(outcome, attempts)` per
/// member in lane order. The first attempt of a wider lane is one shared
/// pass over the stream ([`run_lane`]); a width-1 lane's first attempt
/// may instead be an injected I/O failure. Transient failures retry
/// under `policy.retry`, each retry a width-1 lane of its own.
fn measure_lane(
    lane: &[&PlannedPoint],
    exec: &ExecConfig,
    policy: &HardenPolicy,
) -> Vec<(SweepPointOutcome, u32)> {
    if let Some(pool) = &policy.process {
        return lane
            .iter()
            .map(|point| crate::process::measure_point_process(pool, point, exec, policy))
            .collect();
    }
    let firsts = match lane {
        [point] => vec![attempt_alone(point, exec, policy, 1)],
        _ => run_lane(lane, exec, policy),
    };
    lane.iter()
        .zip(firsts)
        .map(|(point, first)| {
            let mut first = Some(first);
            let (result, attempts) =
                with_retry_salted(&policy.retry, point.index as u64, |attempt| {
                    first.take().unwrap_or_else(|| attempt_alone(point, exec, policy, attempt))
                });
            match result {
                Ok(r) => (PointOutcome::Completed(r), attempts),
                Err(e) if e.kind == FailureKind::Timeout => (PointOutcome::TimedOut(e), attempts),
                Err(e) => (PointOutcome::Failed(e), attempts),
            }
        })
        .collect()
}

/// One attempt at a point on its own: the I/O failure its chaos fault
/// injects on early attempts, else a width-1 [`run_lane`].
fn attempt_alone(
    point: &PlannedPoint,
    exec: &ExecConfig,
    policy: &HardenPolicy,
    attempt: u32,
) -> Result<PointResult, SimError> {
    if policy.chaos.fault_for(point.index) == Some(Fault::Io) {
        let failures = policy.chaos.io_failures(point.index);
        if attempt <= failures {
            return Err(point_error(
                point,
                FailureKind::Io,
                format!("chaos: injected I/O failure ({attempt} of {failures})"),
            ));
        }
    }
    run_lane(std::slice::from_ref(&point), exec, policy).pop().expect("one member")
}

/// A lane's record source: a synthetic preset or a replayed library
/// trace. A library trace is fully decoded and validated *before* this
/// enum exists, so decode failures surface as structured
/// [`FailureKind::Ingest`] errors, never mid-simulation.
enum LaneTrace {
    Synth(Box<vm_trace::SyntheticTrace>),
    Replay(std::vec::IntoIter<vm_trace::InstrRecord>),
}

impl Iterator for LaneTrace {
    type Item = vm_trace::InstrRecord;

    fn next(&mut self) -> Option<vm_trace::InstrRecord> {
        match self {
            LaneTrace::Synth(t) => t.next(),
            LaneTrace::Replay(t) => t.next(),
        }
    }
}

/// Resolves a point's workload into a record source; a failure is
/// `(kind, detail)`, for every member of the lane to carry.
fn lane_trace(
    point: &PlannedPoint,
    policy: &HardenPolicy,
) -> Result<LaneTrace, (FailureKind, String)> {
    let name = point.spec.workload_name();
    if let Some(trace_name) = vm_trace::trace_workload(name) {
        let library = policy
            .trace_library
            .clone()
            .map(vm_trace::TraceLibrary::new)
            .or_else(vm_trace::TraceLibrary::from_env)
            .ok_or_else(|| (FailureKind::Ingest, vm_trace::LibraryError::NoLibrary.to_string()))?;
        let records = library.load(trace_name).map_err(|e| (FailureKind::Ingest, e.to_string()))?;
        Ok(LaneTrace::Replay(records.into_iter()))
    } else {
        let workload = vm_trace::presets::by_name(name).ok_or_else(|| {
            (FailureKind::Workload, "workload vanished after validation".to_owned())
        })?;
        let trace = workload
            .build(point.spec.trace_seed)
            .map_err(|e| (FailureKind::Workload, e.to_string()))?;
        Ok(LaneTrace::Synth(Box::new(trace)))
    }
}

/// One pass of a lane: every member's first attempt, in lane order,
/// as a sealed result row. Picks the members' event sink from the
/// policy (none, a walk-cycle deadline, live snapshots, or both); sinks
/// are observers, so the measured results are bit-identical under each.
fn run_lane(
    lane: &[&PlannedPoint],
    exec: &ExecConfig,
    policy: &HardenPolicy,
) -> Vec<Result<PointResult, SimError>> {
    let horizon = exec.warmup + exec.measure;
    let reports = match (&policy.progress, policy.point_budget) {
        (None, None) => step_lane(lane, exec, policy, |_| NopSink),
        (None, Some(budget)) => step_lane(lane, exec, policy, |_| DeadlineSink::new(budget)),
        (Some(progress), None) => {
            step_lane(lane, exec, policy, |point| snapshot_sink(progress, point, horizon))
        }
        (Some(progress), Some(budget)) => step_lane(lane, exec, policy, |point| {
            Tee(DeadlineSink::new(budget), snapshot_sink(progress, point, horizon))
        }),
    };
    lane.iter()
        .zip(reports)
        .map(|(point, report)| report.map(|report| finish_point(point, report, policy, exec)))
        .collect()
}

/// A sink firing the sweep observer's checkpoints for `point`.
fn snapshot_sink<'a>(
    progress: &'a ProgressConfig,
    point: &'a PlannedPoint,
    horizon: u64,
) -> SnapshotSink<impl FnMut(&SnapshotCheckpoint<'_>) + 'a> {
    let cost = CostModel::paper(point.spec.interrupt_cycles);
    let observer = &progress.observer;
    SnapshotSink::new(progress.interval, move |cp: &SnapshotCheckpoint<'_>| {
        observer.checkpoint(&PointCheckpoint::from_snapshot(point, cp, horizon, &cost));
    })
}

/// The lane runner. Resolves the stream once, reads it in
/// [`LANE_CHUNK`]-record chunks, validates each chunk once with
/// [`check_record`], then steps every live member's [`MemorySystem`]
/// over it (resetting counters at the warm-up boundary). Each
/// `(member, chunk)` step runs under `catch_unwind`, so a panic or a
/// blown deadline fails only that member. A fault in the stream itself
/// (a panicking source, a corrupt record) fails the members still live
/// once the records before it have been stepped, exactly where a
/// per-point run would have failed. Returns each member's report in
/// lane order.
fn step_lane<'p, S: Sink>(
    lane: &[&'p PlannedPoint],
    exec: &ExecConfig,
    policy: &HardenPolicy,
    make_sink: impl Fn(&'p PlannedPoint) -> S,
) -> Vec<Result<SimReport, SimError>> {
    debug_assert!(
        lane.len() == 1 || lane.iter().all(|p| policy.chaos.fault_for(p.index).is_none()),
        "chaos points run as width-1 lanes"
    );
    let horizon = exec.warmup + exec.measure;
    let trace = match lane_trace(lane[0], policy) {
        Ok(resolved) => resolved,
        Err((kind, detail)) => {
            return lane.iter().map(|p| Err(point_error(p, kind, detail.clone()))).collect();
        }
    };
    let mut trace = policy.chaos.wrap(lane[0].index, horizon, trace);
    let mut failed: Vec<Option<SimError>> = vec![None; lane.len()];
    let mut systems: Vec<Option<MemorySystem<S>>> = lane
        .iter()
        .zip(&mut failed)
        .map(|(point, failed)| {
            match catch_unwind(AssertUnwindSafe(|| point.config.build())) {
                Ok(Ok(system)) => return Some(system.with_sink(make_sink(point))),
                Ok(Err(e)) => *failed = Some(point_error(point, FailureKind::Build, e.to_string())),
                Err(payload) => *failed = Some(panic_error(point, payload)),
            }
            None
        })
        .collect();

    let mut chunk = Vec::with_capacity(LANE_CHUNK.min(horizon as usize));
    let mut pos = 0u64;
    let mut warmed = false;
    while pos < horizon && systems.iter().any(Option::is_some) {
        let want = (horizon - pos).min(LANE_CHUNK as u64) as usize;
        chunk.clear();
        // A panicking source keeps the records it yielded first.
        let mut fault = catch_unwind(AssertUnwindSafe(|| chunk.extend(trace.by_ref().take(want))))
            .err()
            .map(classify_panic);
        let ended = fault.is_none() && chunk.len() < want;
        if let Some(bad) = chunk.iter().position(|r| check_record(r).is_err()) {
            let why = check_record(&chunk[bad]).expect_err("found above");
            let corrupt = CorruptRecord { at: pos + bad as u64, why };
            fault = Some((FailureKind::CorruptTrace, corrupt.to_string()));
            chunk.truncate(bad);
        }
        let boundary = (!warmed && exec.warmup - pos <= chunk.len() as u64)
            .then(|| (exec.warmup - pos) as usize);
        for (point, (slot, failed)) in lane.iter().zip(systems.iter_mut().zip(&mut failed)) {
            let Some(system) = slot else { continue };
            let stepped = catch_unwind(AssertUnwindSafe(|| {
                let (warm, measured) = chunk.split_at(boundary.unwrap_or(chunk.len()));
                system.step_slice(warm);
                if boundary.is_some() {
                    system.reset_counters();
                }
                system.step_slice(measured);
            }));
            if let Err(payload) = stepped {
                *failed = Some(panic_error(point, payload));
                *slot = None;
            }
        }
        pos += chunk.len() as u64;
        warmed |= boundary.is_some();
        if let Some((kind, detail)) = fault {
            for (point, (slot, failed)) in lane.iter().zip(systems.iter_mut().zip(&mut failed)) {
                if slot.take().is_some() {
                    *failed = Some(point_error(point, kind, detail.clone()));
                }
            }
        }
        if ended {
            break;
        }
    }

    systems
        .into_iter()
        .zip(failed)
        .map(|(system, failed)| match (system, failed) {
            (Some(mut system), _) => {
                // A stream shorter than the warm-up still ends it.
                if !warmed {
                    system.reset_counters();
                }
                Ok(system.report())
            }
            (None, failed) => Err(failed.expect("a member without a system has failed")),
        })
        .collect()
}

/// A [`SimError`] for a member whose simulation unwound.
fn panic_error(point: &PlannedPoint, payload: Box<dyn std::any::Any + Send>) -> SimError {
    let (kind, detail) = classify_panic(payload);
    point_error(point, kind, detail)
}

/// Derives, (maybe) perturbs and seals a finished member's result row.
fn finish_point(
    point: &PlannedPoint,
    report: SimReport,
    policy: &HardenPolicy,
    exec: &ExecConfig,
) -> PointResult {
    let mut result = result_row(point, report);
    if policy.chaos.fault_for(point.index) == Some(Fault::Lie) {
        // The Byzantine chaos fault: an honest simulation, then one ulp
        // of corruption — applied BEFORE signing, so the lie leaves here
        // with a perfectly valid attestation. Only divergence detection
        // or an audit against another backend can catch it.
        result.vmcpi = f64::from_bits(result.vmcpi.to_bits() ^ 1);
        result.vm_total = result.vmcpi + result.interrupt_cpi;
    }
    crate::attest::seal(&mut result, crate::attest::context_for(point, exec));
    result
}

/// Derives a result row from a point's finished simulation.
fn result_row(point: &PlannedPoint, report: SimReport) -> PointResult {
    let cost = CostModel::paper(point.spec.interrupt_cycles);
    let vmcpi = report.vmcpi(&cost).total();
    let interrupt_cpi = report.interrupt_cpi(&cost);
    let tlb_miss_ratio =
        (report.itlb.is_some() || report.dtlb.is_some()).then(|| report.tlb_miss_ratio());
    PointResult {
        index: point.index,
        label: point.label.clone(),
        settings: point.settings.clone(),
        system: point.config.system.label().to_owned(),
        workload: point.spec.workload_name().to_owned(),
        vmcpi,
        interrupt_cpi,
        mcpi: report.mcpi(&cost).total(),
        vm_total: vmcpi + interrupt_cpi,
        tlb_area_bytes: tlb_area_bytes(&point.config),
        tlb_miss_ratio,
        user_instrs: report.counts.user_instrs,
        // Unsigned until the caller seals it (after any lie chaos).
        ctx: 0,
        att: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SystemSpec;
    use crate::sweep::Axis;
    use vm_core::SystemKind;
    use vm_obs::{NopSink, RecordingSink};

    fn tiny_exec(jobs: usize) -> ExecConfig {
        ExecConfig { warmup: 2_000, measure: 10_000, jobs }
    }

    fn tiny_plan() -> SweepPlan {
        let base = SystemSpec::for_kind(SystemKind::Ultrix);
        let axes = [
            Axis::parse("tlb.entries=32,64").unwrap(),
            Axis::parse("mmu.table=two-tier,hashed").unwrap(),
        ];
        SweepPlan::expand(&base, &axes).unwrap()
    }

    #[test]
    fn results_come_back_in_point_order() {
        let plan = tiny_plan();
        let out = run_sweep(&plan, &tiny_exec(2), &Reporter::silent(), &mut NopSink);
        assert_eq!(out.len(), 4);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.user_instrs, 10_000);
            assert!(r.vm_total >= 0.0);
        }
    }

    #[test]
    fn job_count_does_not_change_results() {
        let plan = tiny_plan();
        let one = run_sweep(&plan, &tiny_exec(1), &Reporter::silent(), &mut NopSink);
        let many = run_sweep(&plan, &tiny_exec(4), &Reporter::silent(), &mut NopSink);
        assert_eq!(one, many);
    }

    #[test]
    fn sweep_events_are_emitted_in_order() {
        let plan = tiny_plan();
        let mut sink = RecordingSink::new();
        let out = run_sweep(&plan, &tiny_exec(2), &Reporter::silent(), &mut sink);
        let events = &sink.events;
        assert!(matches!(events[0].1, Event::SweepStarted { points: 4, axes: 2, jobs: 2 }));
        let indices: Vec<u64> = events[1..]
            .iter()
            .map(|(_, e)| match e {
                Event::SweepPointDone { index, .. } => *index,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(indices, [0, 1, 2, 3]);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn attached_observer_does_not_perturb_results_and_sees_progress() {
        use crate::progress::SweepObserver;
        use std::sync::Mutex as StdMutex;

        #[derive(Default)]
        struct Spy {
            checkpoints: StdMutex<Vec<(usize, u64, u64)>>,
            finished: StdMutex<Vec<(usize, bool)>>,
        }
        impl SweepObserver for Spy {
            fn checkpoint(&self, cp: &PointCheckpoint) {
                assert!(cp.instrs <= cp.instrs_total);
                assert!(cp.vmcpi >= 0.0 && cp.mcpi >= 0.0);
                self.checkpoints.lock().unwrap().push((cp.index, cp.seq, cp.instrs));
            }
            fn point_finished(&self, index: usize, ok: bool) {
                self.finished.lock().unwrap().push((index, ok));
            }
        }

        let plan = tiny_plan();
        let plain = run_sweep_hardened(
            &plan,
            &tiny_exec(2),
            &HardenPolicy::default(),
            BTreeMap::new(),
            &Reporter::silent(),
            &mut NopSink,
            None,
        );
        let spy = Arc::new(Spy::default());
        let policy = HardenPolicy {
            progress: Some(ProgressConfig::new(1_000, spy.clone())),
            ..HardenPolicy::default()
        };
        let watched = run_sweep_hardened(
            &plan,
            &tiny_exec(2),
            &policy,
            BTreeMap::new(),
            &Reporter::silent(),
            &mut NopSink,
            None,
        );
        // The observer is an observer: results are bit-identical.
        assert_eq!(plain.outcomes, watched.outcomes);

        let mut finished = spy.finished.lock().unwrap().clone();
        finished.sort_unstable();
        assert_eq!(finished, vec![(0, true), (1, true), (2, true), (3, true)]);
        let checkpoints = spy.checkpoints.lock().unwrap().clone();
        assert!(!checkpoints.is_empty(), "no checkpoints fired");
        for ix in 0..4 {
            let per_point: Vec<_> = checkpoints.iter().filter(|c| c.0 == ix).collect();
            assert!(per_point.len() >= 3, "point {ix} fired {} checkpoints", per_point.len());
            // seq and cumulative instrs are strictly increasing within
            // a point.
            for pair in per_point.windows(2) {
                assert!(pair[1].1 > pair[0].1);
                assert!(pair[1].2 > pair[0].2);
            }
        }
    }

    #[test]
    fn scales_are_ordered() {
        let scales = [ExecConfig::QUICK, ExecConfig::DEFAULT, ExecConfig::FULL];
        assert!(scales.windows(2).all(|w| w[0].measure < w[1].measure));
        assert_eq!(ExecConfig::default(), ExecConfig::DEFAULT);
    }

    #[test]
    fn area_proxy_is_zero_without_tlbs() {
        let with = SystemSpec::for_kind(SystemKind::Intel).validate().unwrap();
        let without = SystemSpec::for_kind(SystemKind::NoTlb).validate().unwrap();
        assert_eq!(tlb_area_bytes(&with), 2 * 128 * 16);
        assert_eq!(tlb_area_bytes(&without), 0);
    }

    #[test]
    fn short_sweeps_cost_their_work_not_a_heartbeat_step() {
        // A sweep returns when its workers do. A heartbeat thread that
        // sleeps in fixed 100 ms steps would make twenty one-point
        // sweeps of ~1k instructions take at least 2 s.
        let plan = SweepPlan::expand(&SystemSpec::for_kind(SystemKind::Ultrix), &[]).unwrap();
        assert_eq!(plan.points.len(), 1);
        let exec = ExecConfig { warmup: 200, measure: 800, jobs: 1 };
        let started = Instant::now();
        for _ in 0..20 {
            let out = run_sweep_hardened(
                &plan,
                &exec,
                &HardenPolicy::default(),
                BTreeMap::new(),
                &Reporter::silent(),
                &mut NopSink,
                None,
            );
            assert_eq!(out.failed_count(), 0);
        }
        let wall = started.elapsed();
        assert!(wall < Duration::from_secs(1), "20 one-point sweeps took {wall:?}");
    }

    #[test]
    fn injected_panic_isolates_to_one_failed_point() {
        let plan = tiny_plan();
        let policy = HardenPolicy {
            chaos: ChaosPlan::parse("panic@1", 42).unwrap(),
            ..HardenPolicy::default()
        };
        let out = run_sweep_hardened(
            &plan,
            &tiny_exec(2),
            &policy,
            BTreeMap::new(),
            &Reporter::silent(),
            &mut NopSink,
            None,
        );
        assert_eq!(out.failed_count(), 1);
        let e = out.outcomes[1].error().expect("point 1 failed");
        assert_eq!(e.kind, FailureKind::Panic);
        assert!(e.detail.contains("injected panic"), "{e}");
        // The survivors match a clean run bit-for-bit.
        let clean = run_sweep(&plan, &tiny_exec(1), &Reporter::silent(), &mut NopSink);
        for ix in [0usize, 2, 3] {
            assert_eq!(out.outcomes[ix].completed(), Some(&clean[ix]));
        }
    }

    #[test]
    fn corrupt_fault_is_classified_not_fatal() {
        let plan = tiny_plan();
        let policy = HardenPolicy {
            chaos: ChaosPlan::parse("corrupt@2", 7).unwrap(),
            ..HardenPolicy::default()
        };
        let out = run_sweep_hardened(
            &plan,
            &tiny_exec(1),
            &policy,
            BTreeMap::new(),
            &Reporter::silent(),
            &mut NopSink,
            None,
        );
        let e = out.outcomes[2].error().expect("point 2 failed");
        assert_eq!(e.kind, FailureKind::CorruptTrace);
        let at = policy.chaos.trigger_record(2, 12_000);
        assert!(e.detail.starts_with(&format!("corrupt trace record at offset {at}:")), "{e}");
    }

    #[test]
    fn runaway_fault_times_out_under_a_budget() {
        let plan = tiny_plan();
        let policy = HardenPolicy {
            point_budget: Some(150_000),
            chaos: ChaosPlan::parse("runaway@0", 11).unwrap(),
            ..HardenPolicy::default()
        };
        let out = run_sweep_hardened(
            &plan,
            &tiny_exec(1),
            &policy,
            BTreeMap::new(),
            &Reporter::silent(),
            &mut NopSink,
            None,
        );
        assert!(matches!(out.outcomes[0], PointOutcome::TimedOut(_)));
        assert_eq!(out.outcomes[0].error().unwrap().kind, FailureKind::Timeout);
        // Healthy points live comfortably inside the same budget.
        assert!(out.outcomes[1].completed().is_some());
    }

    #[test]
    fn cancelled_sweeps_drain_without_simulating() {
        let plan = tiny_plan();
        let policy = HardenPolicy {
            cancel: Some(Arc::new(AtomicBool::new(true))), // cancelled up front
            ..HardenPolicy::default()
        };
        let out = run_sweep_hardened(
            &plan,
            &tiny_exec(2),
            &policy,
            BTreeMap::new(),
            &Reporter::silent(),
            &mut NopSink,
            None,
        );
        assert_eq!(out.failed_count(), 4);
        for o in &out.outcomes {
            assert_eq!(o.error().unwrap().kind, FailureKind::Cancelled);
        }
        // Seeded points stay merged even under cancellation.
        let clean = run_sweep(&plan, &tiny_exec(1), &Reporter::silent(), &mut NopSink);
        let seeded: BTreeMap<usize, PointResult> = [(1, clean[1].clone())].into();
        let out = run_sweep_hardened(
            &plan,
            &tiny_exec(2),
            &policy,
            seeded,
            &Reporter::silent(),
            &mut NopSink,
            None,
        );
        assert_eq!(out.failed_count(), 3);
        assert_eq!(out.outcomes[1].completed(), Some(&clean[1]));
    }

    #[test]
    fn io_faults_recover_with_retries_and_fail_without() {
        let plan = tiny_plan();
        let chaos = ChaosPlan::parse("io@3", 5).unwrap();
        let with_retries = HardenPolicy {
            retry: RetryPolicy {
                retries: 2,
                backoff_base_ms: 0,
                backoff_cap_ms: 0,
                jitter_seed: None,
            },
            chaos: chaos.clone(),
            ..HardenPolicy::default()
        };
        let out = run_sweep_hardened(
            &plan,
            &tiny_exec(1),
            &with_retries,
            BTreeMap::new(),
            &Reporter::silent(),
            &mut NopSink,
            None,
        );
        assert!(out.is_clean());
        assert_eq!(out.attempts[3], chaos.io_failures(3) + 1);

        let no_retries = HardenPolicy { chaos, ..HardenPolicy::default() };
        let out = run_sweep_hardened(
            &plan,
            &tiny_exec(1),
            &no_retries,
            BTreeMap::new(),
            &Reporter::silent(),
            &mut NopSink,
            None,
        );
        assert_eq!(out.outcomes[3].error().unwrap().kind, FailureKind::Io);
    }

    #[test]
    fn seeded_points_are_not_resimulated_and_merge_identically() {
        let plan = tiny_plan();
        let clean = run_sweep(&plan, &tiny_exec(1), &Reporter::silent(), &mut NopSink);
        let seeded: BTreeMap<usize, PointResult> =
            [(0, clean[0].clone()), (2, clean[2].clone())].into();
        let mut sink = RecordingSink::new();
        let out = run_sweep_hardened(
            &plan,
            &tiny_exec(2),
            &HardenPolicy::default(),
            seeded,
            &Reporter::silent(),
            &mut sink,
            None,
        );
        assert_eq!(out.resumed, 2);
        let merged: Vec<&PointResult> = out.results().collect();
        assert_eq!(merged.len(), 4);
        for (r, c) in merged.iter().zip(&clean) {
            assert_eq!(*r, c);
        }
        assert!(matches!(sink.events[0].1, Event::RunResumed { completed: 2, remaining: 2 }));
        assert!(matches!(sink.events[1].1, Event::SweepStarted { .. }));
    }

    #[test]
    fn failure_events_are_deterministic() {
        let plan = tiny_plan();
        let policy = HardenPolicy {
            chaos: ChaosPlan::parse("panic@1", 42).unwrap(),
            ..HardenPolicy::default()
        };
        let mut sink = RecordingSink::new();
        run_sweep_hardened(
            &plan,
            &tiny_exec(2),
            &policy,
            BTreeMap::new(),
            &Reporter::silent(),
            &mut sink,
            None,
        );
        let names: Vec<&str> = sink.events.iter().map(|(_, e)| e.name()).collect();
        assert_eq!(
            names,
            [
                "sweep_started",
                "sweep_point_done",
                "point_failed",
                "sweep_point_done",
                "sweep_point_done"
            ]
        );
    }

    #[test]
    fn trace_workloads_replay_from_the_library_or_fail_as_ingest() {
        let dir = std::env::temp_dir().join(format!("vm-exec-lib-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let records: Vec<vm_trace::InstrRecord> =
            vm_trace::presets::by_name("gcc").unwrap().build(3).unwrap().take(12_000).collect();
        let staged = dir.join("staged");
        vm_trace::write_trace(std::fs::File::create(&staged).unwrap(), records.iter().copied())
            .unwrap();
        vm_trace::TraceLibrary::new(&dir).install("captured", &staged).unwrap();

        let mut base = SystemSpec::for_kind(SystemKind::Ultrix);
        base.workload = Some("trace:captured".to_owned());
        let axes: [Axis; 0] = [];
        let plan = SweepPlan::expand(&base, &axes).unwrap();
        let exec = tiny_exec(1);

        // No library configured (explicit or env): a structured ingest
        // failure — not a panic, not a workload error.
        let (outcome, _) = measure_point_isolated(&plan.points[0], &exec, &HardenPolicy::default());
        assert_eq!(outcome.error().expect("no library").kind, FailureKind::Ingest);

        let policy = HardenPolicy { trace_library: Some(dir.clone()), ..HardenPolicy::default() };
        let (first, _) = measure_point_isolated(&plan.points[0], &exec, &policy);
        let first = first.completed().expect("replay completes").clone();
        assert_eq!(first.workload, "trace:captured");
        // Replay is deterministic: a second run is bit-identical.
        let (again, _) = measure_point_isolated(&plan.points[0], &exec, &policy);
        assert_eq!(again.completed().unwrap().vm_total.to_bits(), first.vm_total.to_bits());

        // A missing trace is also an ingest failure, naming the trace.
        let mut missing = base.clone();
        missing.workload = Some("trace:nope".to_owned());
        let plan = SweepPlan::expand(&missing, &axes).unwrap();
        let (outcome, _) = measure_point_isolated(&plan.points[0], &exec, &policy);
        let e = outcome.error().expect("missing trace fails");
        assert_eq!(e.kind, FailureKind::Ingest);
        assert!(e.detail.contains("`nope`"), "{e}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Six systems × two workloads: two stream groups of six.
    fn grid_plan() -> SweepPlan {
        let base = SystemSpec::for_kind(SystemKind::Ultrix);
        let axes = [
            Axis::parse("workload.name=gcc,ijpeg").unwrap(),
            Axis::parse("tlb.entries=32,64,128").unwrap(),
            Axis::parse("mmu.table=two-tier,hashed").unwrap(),
        ];
        SweepPlan::expand(&base, &axes).unwrap()
    }

    /// A warm-up that ends mid-chunk and a horizon spanning several.
    const LANE_EXEC: ExecConfig = ExecConfig { warmup: 5_000, measure: 9_000, jobs: 1 };

    /// What a point must report: a direct `simulate` over a fresh trace.
    fn direct(
        point: &PlannedPoint,
        exec: &ExecConfig,
        records: impl IntoIterator<Item = vm_trace::InstrRecord>,
    ) -> PointResult {
        let report = vm_core::simulate(&point.config, records, exec.warmup, exec.measure).unwrap();
        finish_point(point, report, &HardenPolicy::default(), exec)
    }

    fn direct_preset(point: &PlannedPoint, exec: &ExecConfig) -> PointResult {
        let preset = vm_trace::presets::by_name(point.spec.workload_name()).unwrap();
        direct(point, exec, preset.build(point.spec.trace_seed).unwrap())
    }

    fn hardened(plan: &SweepPlan, exec: &ExecConfig, policy: &HardenPolicy) -> SweepOutcome {
        run_sweep_hardened(
            plan,
            exec,
            policy,
            BTreeMap::new(),
            &Reporter::silent(),
            &mut NopSink,
            None,
        )
    }

    #[test]
    fn lanes_group_by_stream_and_size_to_the_worker_count() {
        let plan = grid_plan();
        let pending: Vec<usize> = (0..plan.points.len()).collect();
        let policy = HardenPolicy::default();
        let widths = |jobs| -> Vec<usize> {
            plan_lanes(&plan.points, &pending, jobs, &policy).iter().map(Vec::len).collect()
        };
        // ceil(2·jobs / groups) lanes per group of six.
        assert_eq!(widths(1), [6, 6]);
        assert_eq!(widths(2), [3, 3, 3, 3]);
        assert_eq!(widths(3), [2, 2, 2, 2, 2, 2]);
        for lane in plan_lanes(&plan.points, &pending, 2, &policy) {
            let first = &plan.points[lane[0]].spec;
            for &ix in &lane {
                assert_eq!(plan.points[ix].spec.workload_name(), first.workload_name());
            }
        }
        // One group of twenty caps at eight wide, near-equal.
        let wide = SweepPlan::expand(
            &SystemSpec::for_kind(SystemKind::Ultrix),
            &[
                Axis::parse("tlb.entries=16,32,64,128,256").unwrap(),
                Axis::parse("cache.l1=8K,16K,32K,64K").unwrap(),
            ],
        )
        .unwrap();
        let all: Vec<usize> = (0..20).collect();
        let lanes = plan_lanes(&wide.points, &all, 1, &policy);
        assert_eq!(lanes.iter().map(Vec::len).collect::<Vec<_>>(), [7, 7, 6]);
        // Chaos targets and process-isolated points run alone.
        let chaotic = HardenPolicy {
            chaos: ChaosPlan::parse("stall@1,lie@7", 3).unwrap(),
            ..HardenPolicy::default()
        };
        let lanes = plan_lanes(&plan.points, &pending, 1, &chaotic);
        assert!(lanes.contains(&vec![1]) && lanes.contains(&vec![7]), "{lanes:?}");
        assert_eq!(lanes.iter().map(Vec::len).sum::<usize>(), 12);
    }

    #[test]
    fn lane_results_equal_direct_simulation_of_a_fresh_trace() {
        let plan = grid_plan();
        for jobs in [1, 2, 3] {
            let exec = ExecConfig { jobs, ..LANE_EXEC };
            let out = run_sweep(&plan, &exec, &Reporter::silent(), &mut NopSink);
            for (point, got) in plan.points.iter().zip(&out) {
                assert_eq!(got, &direct_preset(point, &exec), "jobs={jobs} `{}`", point.label);
            }
        }
    }

    #[test]
    fn in_stream_faults_fail_only_their_point() {
        let plan = grid_plan();
        let clean = run_sweep(&plan, &LANE_EXEC, &Reporter::silent(), &mut NopSink);
        let cases = [
            ("panic@2", None, FailureKind::Panic),
            ("corrupt@2", None, FailureKind::CorruptTrace),
            ("runaway@2", Some(150_000), FailureKind::Timeout),
        ];
        for (spec, point_budget, kind) in cases {
            for jobs in [1, 2] {
                let policy = HardenPolicy {
                    point_budget,
                    chaos: ChaosPlan::parse(spec, 5).unwrap(),
                    ..HardenPolicy::default()
                };
                let out = hardened(&plan, &ExecConfig { jobs, ..LANE_EXEC }, &policy);
                assert_eq!(out.failed_count(), 1, "{spec} jobs={jobs}");
                assert_eq!(out.outcomes[2].error().unwrap().kind, kind, "{spec}");
                for (ix, want) in clean.iter().enumerate().filter(|&(ix, _)| ix != 2) {
                    assert_eq!(out.outcomes[ix].completed(), Some(want), "{spec} point {ix}");
                }
            }
        }
    }

    /// Panics on its first event when armed.
    struct Tripwire(bool);

    impl Sink for Tripwire {
        fn emit(&mut self, _now: u64, _ev: &Event) {
            assert!(!self.0, "tripwire");
        }
    }

    #[test]
    fn a_member_that_unwinds_fails_alone_inside_a_shared_lane() {
        let _quiet = quiet_panics();
        let plan = grid_plan();
        let lane: Vec<&PlannedPoint> = plan.points[..6].iter().collect();
        let policy = HardenPolicy::default();
        let out = step_lane(&lane, &LANE_EXEC, &policy, |p| Tripwire(p.index == 4));
        for (point, got) in lane.iter().zip(&out) {
            match got {
                Err(e) => {
                    assert_eq!(point.index, 4);
                    assert_eq!(e.kind, FailureKind::Panic);
                    assert!(e.detail.contains("tripwire"), "{e}");
                }
                Ok(report) => assert_eq!(
                    finish_point(point, report.clone(), &policy, &LANE_EXEC),
                    direct_preset(point, &LANE_EXEC)
                ),
            }
        }
        assert_eq!(out.iter().filter(|r| r.is_err()).count(), 1);

        // A walk-cycle budget between the lane's cheapest and dearest
        // member times out only the members that overspend it.
        let spent: Vec<u64> = lane
            .iter()
            .map(|p| {
                let trace = vm_trace::presets::by_name("gcc").unwrap().build(1).unwrap();
                let (_, sink) = vm_core::simulate_with_sink(
                    &p.config,
                    trace,
                    LANE_EXEC.warmup,
                    LANE_EXEC.measure,
                    DeadlineSink::new(u64::MAX),
                )
                .unwrap();
                sink.spent()
            })
            .collect();
        let budget = (spent.iter().min().unwrap() + spent.iter().max().unwrap()) / 2;
        let policy = HardenPolicy { point_budget: Some(budget), ..HardenPolicy::default() };
        let out = run_lane(&lane, &LANE_EXEC, &policy);
        for ((point, got), spent) in lane.iter().zip(&out).zip(&spent) {
            if *spent > budget {
                assert_eq!(got.as_ref().unwrap_err().kind, FailureKind::Timeout);
            } else {
                assert_eq!(got.as_ref().unwrap(), &direct_preset(point, &LANE_EXEC));
            }
        }
        assert!(out.iter().any(Result::is_ok) && out.iter().any(Result::is_err));
    }

    #[test]
    fn bare_reports_build_each_point_from_its_own_config() {
        // Knobs no spec key reaches still reach the simulator, and a
        // point the simulator rejects fails alone.
        let mut points = grid_plan().points;
        points[1].config.flush_tlb_every = Some(3_000);
        points[2].config.tlb_protected = Some(0);
        points[7].config.l1_line = 3;
        let direct = |point: &PlannedPoint| {
            let trace = vm_trace::presets::by_name(point.spec.workload_name())
                .unwrap()
                .build(point.spec.trace_seed)
                .unwrap();
            vm_core::simulate(&point.config, trace, LANE_EXEC.warmup, LANE_EXEC.measure)
        };
        for jobs in [1, 2] {
            let exec = ExecConfig { jobs, ..LANE_EXEC };
            let out = run_reports(&points, &exec, &Reporter::silent());
            assert_eq!(out.len(), points.len());
            for (point, got) in points.iter().zip(&out) {
                match direct(point) {
                    Ok(want) => assert_eq!(got.as_ref().unwrap().to_json(), want.to_json()),
                    Err(_) => assert_eq!(got.as_ref().unwrap_err().kind, FailureKind::Build),
                }
            }
            assert_eq!(out.iter().filter(|r| r.is_err()).count(), 1, "jobs={jobs}");
        }
        assert!(run_reports(&[], &LANE_EXEC, &Reporter::silent()).is_empty());
    }

    #[test]
    fn journal_lines_match_at_one_and_two_jobs() {
        use vm_harden::{JournalWriter, SharedBuf};
        let plan = grid_plan();
        let policy = HardenPolicy {
            chaos: ChaosPlan::parse("panic@3", 9).unwrap(),
            ..HardenPolicy::default()
        };
        let journal_at = |jobs| {
            let exec = ExecConfig { jobs, ..LANE_EXEC };
            let buf = SharedBuf::new();
            let mut w = JournalWriter::boxed(buf.clone());
            w.header(&crate::journal::run_header(&plan, &exec));
            let journal = Mutex::new(w);
            run_sweep_hardened(
                &plan,
                &exec,
                &policy,
                BTreeMap::new(),
                &Reporter::silent(),
                &mut NopSink,
                Some(&journal),
            );
            journal.into_inner().unwrap().finish().unwrap();
            // Entries land in completion order, which differs between
            // worker counts; each line's bytes may not.
            let mut lines: Vec<String> = buf.text().lines().map(str::to_owned).collect();
            lines[1..].sort_unstable();
            lines
        };
        let one = journal_at(1);
        assert_eq!(one.len(), 1 + plan.points.len());
        assert_eq!(one, journal_at(2));
    }

    #[test]
    fn a_trace_lane_replays_the_library_records() {
        let dir = std::env::temp_dir().join(format!("vm-exec-lane-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let records: Vec<vm_trace::InstrRecord> =
            vm_trace::presets::by_name("vortex").unwrap().build(8).unwrap().take(12_000).collect();
        let staged = dir.join("staged");
        vm_trace::write_trace(std::fs::File::create(&staged).unwrap(), records.iter().copied())
            .unwrap();
        vm_trace::TraceLibrary::new(&dir).install("lane", &staged).unwrap();

        let mut base = SystemSpec::for_kind(SystemKind::Ultrix);
        base.workload = Some("trace:lane".to_owned());
        let axes = [
            Axis::parse("tlb.entries=32,128").unwrap(),
            Axis::parse("mmu.table=two-tier,hashed").unwrap(),
            Axis::parse("workload.seed=1,2").unwrap(),
        ];
        let plan = SweepPlan::expand(&base, &axes).unwrap();
        let policy = HardenPolicy { trace_library: Some(dir.clone()), ..HardenPolicy::default() };
        // The seed does not change a replay: all eight points share one
        // lane at one job. Horizons inside, past, and short of the
        // trace's end.
        assert_eq!(plan_lanes(&plan.points, &[0, 1, 2, 3, 4, 5, 6, 7], 1, &policy).len(), 1);
        for (warmup, measure) in [(2_000, 10_000), (2_000, 20_000), (15_000, 5_000)] {
            let exec = ExecConfig { warmup, measure, jobs: 2 };
            let out = hardened(&plan, &exec, &policy);
            for (point, got) in plan.points.iter().zip(&out.outcomes) {
                let want = direct(point, &exec, records.iter().copied());
                assert_eq!(got.completed(), Some(&want), "{warmup}+{measure} `{}`", point.label);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

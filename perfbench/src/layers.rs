//! Per-layer probes for the traced run, timed from outside around each
//! crate's public calls, plus the span report.
//!
//! Every traced run prints every per-layer metric. Each layer is probed
//! with the inputs of the workload that exercises it, generated from the
//! run's seed: trace, core, TLB, cache, page-table, obs and explore
//! probes use paper-grid's streams (a 1M-record prefix of each paper
//! workload), serve probes use serve-mixed's job shape and upload
//! traces, and fleet probes use fleet-grid's grid and fleet.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use vm_cache::{Associativity, Cache, CacheConfig, CacheHierarchy};
use vm_core::{simulate_with_sink, SimConfig};
use vm_explore::{ExecConfig, SweepPlan, SystemSpec};
use vm_obs::{NopSink, StatsSink};
use vm_ptable::mock::{RecordingContext, WalkEvent};
use vm_ptable::{
    DisjunctWalker, HashedConfig, HashedWalker, MachWalker, TlbRefill, UltrixWalker, X86Walker,
};
use vm_tlb::{Tlb, TlbConfig};
use vm_trace::{InstrRecord, TraceLibrary};
use vm_types::{AccessKind, Vpn};

use crate::check::{check_all, check_same, in_process};
use crate::daemon::{connect_healthy, fresh_state_dir, Daemon, STATE_ROOT};
use crate::fleet_grid::{self, Fleet, BACKENDS};
use crate::metrics::Metrics;
use crate::paper_grid::{self, PAPER_SPECS, WORKLOADS};
use crate::serve_mixed::{self, JOB_EXEC};
use crate::spans::{SpanCtx, Tracer};
use crate::stats::median;
use crate::Workload;

/// Records per paper workload fed to the trace, core, TLB, cache and
/// page-table probes.
const PROBE_RECORDS: usize = 1_000_000;
/// Most TLB misses replayed through each walker.
const MAX_REFILLS: usize = 200_000;
/// Repetitions of the short probes; medians are reported.
const REPS: usize = 11;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Writes the tracer's spans as Chrome-trace JSON under the state root.
pub fn write_chrome_trace(tracer: &Tracer, w: Workload, seed: u64) -> Result<PathBuf, String> {
    std::fs::create_dir_all(STATE_ROOT).map_err(|e| format!("cannot create {STATE_ROOT}: {e}"))?;
    let path = PathBuf::from(STATE_ROOT).join(format!("trace-{}-seed{seed}.json", w.name()));
    std::fs::write(&path, tracer.chrome_trace())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Prints per-span self times and the tracing overhead; returns the
/// span-derived per-layer metrics.
pub fn span_report(tracer: &Tracer, plain: &Metrics, traced: &Metrics) -> Metrics {
    let totals = tracer.totals();
    eprintln!("perfbench: span self time (traced phase)");
    eprintln!("  {:<28} {:>8} {:>12} {:>12}", "span", "count", "total_ms", "self_ms");
    for (name, t) in &totals {
        eprintln!("  {name:<28} {:>8} {:>12.3} {:>12.3}", t.count, t.total_ms, t.self_ms);
    }
    // The loop spans' self time is wall time no layer call covers.
    let lp = totals.get("bench.loop").copied().unwrap_or_default();
    let unattributed = lp.self_ms / lp.total_ms.max(1e-9);
    eprintln!("  unattributed remainder: {:.3} ms ({:.4} of loop wall)", lp.self_ms, unattributed);
    for ((name, p, unit), (_, t, _)) in plain.iter().zip(traced.iter()) {
        println!(
            "tracing overhead {name} = {:+.6} {unit} (traced {t:.6} - untraced {p:.6})",
            t - p
        );
    }
    let (p, t) = (plain.get("points_per_s"), traced.get("points_per_s"));
    let overhead = match (p, t) {
        (Some(p), Some(t)) if p > 0.0 => (p - t) / p * 100.0,
        _ => f64::NAN,
    };
    let mut m = Metrics::default();
    m.push("tracing.overhead_pct", overhead);
    m.push("spans.unattributed_share", unattributed);
    m
}

/// Runs every layer probe for `trace_seed`.
pub fn probe_all(trace_seed: u64) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let sim = probe_simulator(trace_seed, &mut m)?;
    probe_explore(trace_seed, &sim, &mut m)?;
    probe_serve(trace_seed, &mut m)?;
    probe_fleet(trace_seed, &mut m)?;
    Ok(m)
}

/// Host seconds the simulator probes measured, per workload and system.
struct SimTimes {
    synth_s: BTreeMap<&'static str, f64>,
    core_s: BTreeMap<(&'static str, &'static str), f64>,
}

fn paper_configs() -> Result<Vec<SimConfig>, String> {
    PAPER_SPECS
        .iter()
        .map(|t| SystemSpec::parse(t).map_err(|e| e.to_string())?.validate().map_err(|e| e.msg))
        .collect()
}

fn preset_records(w: &str, trace_seed: u64) -> Result<Vec<InstrRecord>, String> {
    let preset = vm_trace::presets::by_name(w).ok_or_else(|| format!("no preset `{w}`"))?;
    Ok(preset.build(trace_seed).map_err(|e| e.to_string())?.take(PROBE_RECORDS).collect())
}

/// Trace synthesis, the core loop per paper system, TLB, cache, page
/// table walkers and the stats sink, over each paper workload in turn.
fn probe_simulator(trace_seed: u64, m: &mut Metrics) -> Result<SimTimes, String> {
    let configs = paper_configs()?;
    let n = PROBE_RECORDS as f64;
    let mut times = SimTimes { synth_s: BTreeMap::new(), core_s: BTreeMap::new() };
    let mut core_total: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut tlb_lookups, mut tlb_misses, mut l1_misses, mut l2_misses) = (0u64, 0u64, 0u64, 0u64);
    let (mut tlb_s, mut tlb_ops, mut cache_s, mut cache_ops) = (0.0, 0u64, 0.0, 0u64);
    let mut misses: Vec<(Vpn, AccessKind)> = Vec::new();
    for w in WORKLOADS {
        let preset = vm_trace::presets::by_name(w).ok_or_else(|| format!("no preset `{w}`"))?;
        let synth: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                let trace = preset.build(trace_seed).expect("preset builds");
                let sum = trace.take(PROBE_RECORDS).fold(0u64, |a, r| a ^ r.pc.raw());
                black_box(sum);
                secs(t0)
            })
            .collect();
        let synth_s = median(&synth);
        times.synth_s.insert(w, synth_s);
        m.push(
            match w {
                "gcc" => "trace.synth_mrec_per_s.gcc",
                "vortex" => "trace.synth_mrec_per_s.vortex",
                _ => "trace.synth_mrec_per_s.ijpeg",
            },
            n / synth_s / 1e6,
        );

        let records = preset_records(w, trace_seed)?;
        for config in &configs {
            let label = config.system.label();
            let mut system = config.build().map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            let ran = system.run(records.iter().copied(), PROBE_RECORDS as u64);
            let t = secs(t0);
            black_box(ran);
            times.core_s.insert((w, label), t);
            *core_total.entry(label).or_default() += t;
            let report = system.report();
            if label == "ULTRIX" {
                for c in report.itlb.iter().chain(report.dtlb.iter()) {
                    tlb_lookups += c.lookups;
                    tlb_misses += c.misses();
                }
            }
            if label == "BASE" {
                l1_misses += report.counts.l1i_misses + report.counts.l1d_misses;
                l2_misses += report.counts.l2i_misses + report.counts.l2d_misses;
            }
        }

        let (t, ops) = tlb_probe(&records, trace_seed, &mut misses)?;
        tlb_s += t;
        tlb_ops += ops;
        let (t, ops) = cache_probe(&records)?;
        cache_s += t;
        cache_ops += ops;

        if w == "gcc" {
            m.push("obs.stats_sink_ratio", stats_sink_ratio(&configs[1], &records)?);
        }
    }
    for config in &configs {
        let label = config.system.label();
        let name = match label {
            "BASE" => "core.minstr_per_s.BASE",
            "ULTRIX" => "core.minstr_per_s.ULTRIX",
            "MACH" => "core.minstr_per_s.MACH",
            "INTEL" => "core.minstr_per_s.INTEL",
            "PA-RISC" => "core.minstr_per_s.PA-RISC",
            "NOTLB" => "core.minstr_per_s.NOTLB",
            other => return Err(format!("unexpected paper system `{other}`")),
        };
        m.push(name, WORKLOADS.len() as f64 * n / core_total[label] / 1e6);
    }
    m.push("tlb.ns_per_op", tlb_s * 1e9 / tlb_ops.max(1) as f64);
    m.push("tlb.lookups", tlb_lookups as f64);
    m.push("tlb.misses", tlb_misses as f64);
    m.push("cache.ns_per_access", cache_s * 1e9 / cache_ops.max(1) as f64);
    m.push("cache.l1_misses", l1_misses as f64);
    m.push("cache.l2_misses", l2_misses as f64);
    probe_walkers(&misses, m);
    Ok(times)
}

/// `Tlb::lookup`, plus `insert_user` on a miss, over the I and D page
/// streams with the MIPS geometry. Collects the missed pages (up to
/// [`MAX_REFILLS`]) for the walker probe.
fn tlb_probe(
    records: &[InstrRecord],
    seed: u64,
    misses: &mut Vec<(Vpn, AccessKind)>,
) -> Result<(f64, u64), String> {
    let config = TlbConfig::paper_mips().map_err(|e| e.to_string())?;
    let mut itlb = Tlb::new(config, seed ^ 1);
    let mut dtlb = Tlb::new(config, seed ^ 2);
    let mut ops = 0u64;
    let t0 = Instant::now();
    for r in records {
        ops += 1;
        let vpn = r.pc.vpn();
        if !itlb.lookup(vpn) {
            itlb.insert_user(vpn);
            if misses.len() < MAX_REFILLS {
                misses.push((vpn, AccessKind::Fetch));
            }
        }
        if let Some(d) = r.data {
            ops += 1;
            let vpn = d.addr.vpn();
            if !dtlb.lookup(vpn) {
                dtlb.insert_user(vpn);
                if misses.len() < MAX_REFILLS {
                    misses.push((vpn, d.kind));
                }
            }
        }
    }
    Ok((secs(t0), ops))
}

/// `CacheHierarchy::access` over the I and D address streams with the
/// paper's default geometry (16 KB / 64 B L1, 1 MB / 128 B L2, direct
/// mapped).
fn cache_probe(records: &[InstrRecord]) -> Result<(f64, u64), String> {
    let l1 = CacheConfig::set_associative(16 << 10, 64, Associativity::DirectMapped)
        .map_err(|e| e.to_string())?;
    let l2 = CacheConfig::set_associative(1 << 20, 128, Associativity::DirectMapped)
        .map_err(|e| e.to_string())?;
    let mut icache = CacheHierarchy::new(Cache::new(l1), Cache::new(l2));
    let mut dcache = CacheHierarchy::new(Cache::new(l1), Cache::new(l2));
    let mut ops = 0u64;
    let t0 = Instant::now();
    for r in records {
        ops += 1;
        black_box(icache.access(r.pc));
        if let Some(d) = r.data {
            ops += 1;
            black_box(dcache.access(d.addr));
        }
    }
    Ok((secs(t0), ops))
}

/// `TlbRefill::refill` on a recording context for every missed page,
/// per paper walker. The context's event log is counted and cleared
/// between timed batches.
fn probe_walkers(misses: &[(Vpn, AccessKind)], m: &mut Metrics) {
    let walkers: [(&'static str, Box<dyn TlbRefill>); 5] = [
        ("ptable.ns_per_refill.ultrix", Box::new(UltrixWalker::new())),
        ("ptable.ns_per_refill.mach", Box::new(MachWalker::new())),
        ("ptable.ns_per_refill.intel", Box::new(X86Walker::new())),
        (
            "ptable.ns_per_refill.pa-risc",
            Box::new(HashedWalker::new(HashedConfig::scaled(16 << 20))),
        ),
        ("ptable.ns_per_refill.notlb", Box::new(DisjunctWalker::new())),
    ];
    for (name, mut walker) in walkers {
        let mut ctx = RecordingContext::new();
        let (mut t, mut pte_loads) = (0.0, 0u64);
        for batch in misses.chunks(4096) {
            let t0 = Instant::now();
            for &(vpn, kind) in batch {
                walker.refill(&mut ctx, vpn, kind);
            }
            t += secs(t0);
            pte_loads +=
                ctx.events.iter().filter(|e| matches!(e, WalkEvent::PteLoad { .. })).count() as u64;
            ctx.events.clear();
        }
        m.push(name, t * 1e9 / misses.len().max(1) as f64);
        if name == "ptable.ns_per_refill.ultrix" {
            m.push("ptable.walks", misses.len() as f64);
            m.push("ptable.pte_loads", pte_loads as f64);
        }
    }
}

/// One ULTRIX point with the stats sink attached ÷ the same point with
/// the no-op sink (medians of three).
fn stats_sink_ratio(config: &SimConfig, records: &[InstrRecord]) -> Result<f64, String> {
    let warmup = PROBE_RECORDS as u64 / 3;
    let measure = PROBE_RECORDS as u64 - warmup;
    let (mut with, mut without) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let t0 = Instant::now();
        let (r, _) =
            simulate_with_sink(config, records.iter().copied(), warmup, measure, StatsSink::new())
                .map_err(|e| e.to_string())?;
        with.push(secs(t0));
        black_box(r);
        let t0 = Instant::now();
        let (r, _) = simulate_with_sink(config, records.iter().copied(), warmup, measure, NopSink)
            .map_err(|e| e.to_string())?;
        without.push(secs(t0));
        black_box(r);
    }
    Ok(median(&with) / median(&without))
}

fn sweep_wall(plan: &SweepPlan, exec: &ExecConfig) -> Result<f64, String> {
    let t0 = Instant::now();
    in_process(plan, exec)?;
    Ok(secs(t0))
}

/// The hardened point path at one worker over the paper grid at probe
/// scale, its share not explained by synthesis plus the core loop, and
/// the floor of a one-point sweep of a serve job's size.
fn probe_explore(trace_seed: u64, sim: &SimTimes, m: &mut Metrics) -> Result<(), String> {
    let warmup = PROBE_RECORDS as u64 / 3;
    let exec = ExecConfig { warmup, measure: PROBE_RECORDS as u64 - warmup, jobs: 1 };
    let plan = paper_grid::plan(trace_seed)?;
    let wall = sweep_wall(&plan, &exec)?;
    let mut explained = 0.0;
    for p in &plan.points {
        let w = WORKLOADS
            .iter()
            .find(|w| **w == p.spec.workload_name())
            .ok_or("grid point with a non-paper workload")?;
        explained += sim.synth_s[w] + sim.core_s[&(*w, p.config.system.label())];
    }
    m.push(
        "explore.point_minstr_per_s",
        plan.points.len() as f64 * PROBE_RECORDS as f64 / wall / 1e6,
    );
    m.push("explore.unattributed_share", 1.0 - explained / wall);

    let one = &serve_mixed::shapes(trace_seed)?[3];
    let single = SweepPlan { points: one.plan.points[..1].to_vec(), skipped: Vec::new() };
    let walls = (0..REPS).map(|_| sweep_wall(&single, &JOB_EXEC)).collect::<Result<Vec<_>, _>>()?;
    m.push("explore.min_sweep_ms", median(&walls) * 1e3);
    Ok(())
}

/// Protocol round trips, job overhead over in-process, request parsing,
/// and ingest, against a fresh two-worker daemon.
fn probe_serve(trace_seed: u64, m: &mut Metrics) -> Result<(), String> {
    let daemon = Daemon::start(2, Some(fresh_state_dir("probe")?))?;
    let mut client = connect_healthy(daemon.addr)?;
    let health = vm_obs::json::Value::obj([("req", "health".into())]);
    let mut rtt = Vec::new();
    for _ in 0..200 {
        let t0 = Instant::now();
        client.request(&health)?;
        rtt.push(secs(t0) * 1e6);
    }
    m.push("serve.health_rtt_us", median(&rtt));
    let mut connect = Vec::new();
    for _ in 0..REPS {
        let t0 = Instant::now();
        connect_healthy(daemon.addr)?;
        connect.push(secs(t0) * 1e3);
    }
    m.push("serve.connect_ms", median(&connect));

    let shape = &serve_mixed::shapes(trace_seed)?[3];
    let reference = in_process(&shape.plan, &JOB_EXEC)?;
    let off = Tracer::new(false);
    let (mut served, mut local) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t0 = Instant::now();
        let results =
            serve_mixed::run_job(&mut client, &shape.submit(&JOB_EXEC), &off, SpanCtx::ROOT, 0)?;
        served.push(secs(t0) * 1e3);
        check_all(&results, &reference, check_same)?;
        local.push(sweep_wall(&shape.plan, &JOB_EXEC)? * 1e3);
    }
    m.push("serve.job_overhead_ms", median(&served) - median(&local));

    let pool = serve_mixed::trace_pool(trace_seed, 1)?;
    let line = serve_mixed::chunk_line(1, &pool[0].bytes);
    let mut parse = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        let req = vm_serve::parse_request(&line).map_err(|e| e.message)?;
        parse.push(secs(t0) * 1e3);
        black_box(req);
    }
    m.push("serve.parse_request_ms", median(&parse));

    let (mut chunk, mut commit) = (Vec::new(), Vec::new());
    for k in 0..REPS {
        let t = serve_mixed::upload(
            &mut client,
            &format!("probe-{k}"),
            &pool[0].bytes,
            &off,
            SpanCtx::ROOT,
            0,
        )?;
        chunk.push(t.chunk_ms);
        commit.push(t.commit_ms);
    }
    m.push("serve.ingest.chunk_ms", median(&chunk));
    m.push("serve.ingest.commit_ms", median(&commit));

    let library = TraceLibrary::new(daemon.library().ok_or("probe daemon has no state dir")?);
    let mut load = Vec::new();
    for _ in 0..REPS {
        let t0 = Instant::now();
        let records = library.load("probe-0").map_err(|e| e.to_string())?;
        load.push(records.len() as f64 / secs(t0) / 1e6);
    }
    m.push("trace.library_load_mrec_per_s", median(&load));
    drop(client);
    daemon.stop()
}

/// Fleet overhead per point and scaling efficiency against in-process
/// sweeps of the same plan, and the coordinator's dispatch counts.
fn probe_fleet(trace_seed: u64, m: &mut Metrics) -> Result<(), String> {
    let fplan = fleet_grid::plan(trace_seed)?;
    let points = fplan.plan.points.len() as f64;
    let reference = in_process(&fplan.plan, &ExecConfig { jobs: BACKENDS, ..fleet_grid::EXEC })?;
    let fleet = Fleet::start()?;
    let (mut fleet_walls, mut last) = (Vec::new(), None);
    for _ in 0..2 {
        let t0 = Instant::now();
        let outcome = fleet.run(&fplan, &fleet_grid::EXEC)?;
        fleet_walls.push(secs(t0));
        check_all(&outcome.merged.results, &reference, check_same)?;
        last = Some(outcome);
    }
    fleet.stop()?;
    let outcome = last.expect("two fleet runs");
    let timed = |jobs: usize| sweep_wall(&fplan.plan, &ExecConfig { jobs, ..fleet_grid::EXEC });
    let parallel = median(&[timed(BACKENDS)?, timed(BACKENDS)?]);
    let serial = median(&[timed(1)?, timed(1)?]);
    let fleet_wall = median(&fleet_walls);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    m.push("fleet.overhead_ms_per_point", (fleet_wall - parallel) * 1e3 / points);
    m.push(
        "fleet.efficiency",
        (points / fleet_wall) / (BACKENDS.min(cores) as f64 * points / serial),
    );
    m.push("fleet.dispatches", outcome.dispatched as f64);
    m.push("fleet.useful_dispatch_ratio", points / outcome.dispatched.max(1) as f64);
    m.push("fleet.evictions", outcome.evicted.len() as f64);
    Ok(())
}

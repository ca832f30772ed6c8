//! `paper-grid`: the paper's own evaluation shape, in-process.
//!
//! The six paper specs × gcc, vortex and ijpeg at the default scale
//! (1M warm-up + 2M measured instructions), 18 points through
//! `vm_explore::run_sweep_hardened` with two worker threads. Every point
//! of one run shares the run's trace seed, so each (workload, seed)
//! stream is synthesized six times per sweep.

use std::collections::BTreeMap;
use std::time::Instant;

use vm_explore::{run_sweep_hardened, Axis, ExecConfig, HardenPolicy, SweepPlan, SystemSpec};
use vm_obs::{NopSink, Reporter};
use vm_trace::wire::Fnv1a;

use crate::check::Expected;
use crate::spans::{SpanCtx, Tracer};
use crate::stats::digest_result;
use crate::Phase;

/// The six paper systems, as shipped in `specs/`.
pub const PAPER_SPECS: [&str; 6] = [
    include_str!("../../specs/base.toml"),
    include_str!("../../specs/ultrix.toml"),
    include_str!("../../specs/mach.toml"),
    include_str!("../../specs/intel.toml"),
    include_str!("../../specs/pa-risc.toml"),
    include_str!("../../specs/notlb.toml"),
];

/// The paper's three benchmark workloads.
pub const WORKLOADS: [&str; 3] = ["gcc", "vortex", "ijpeg"];

/// Expands `specs` × `axes` into one plan with contiguous point indices,
/// every point running the workload generator seeded with `trace_seed`.
pub fn expand_grid(specs: &[&str], axes: &[Axis], trace_seed: u64) -> Result<SweepPlan, String> {
    let mut plan = SweepPlan::default();
    for text in specs {
        let mut base = SystemSpec::parse(text).map_err(|e| e.to_string())?;
        base.set("workload.seed", &trace_seed.to_string())?;
        let part = SweepPlan::expand(&base, axes)?;
        if let Some(skip) = part.skipped.first() {
            return Err(format!("grid point `{}` is invalid: {}", skip.label, skip.reason));
        }
        for mut p in part.points {
            p.index = plan.points.len();
            plan.points.push(p);
        }
    }
    Ok(plan)
}

/// The 18-point paper grid for `trace_seed`.
pub fn plan(trace_seed: u64) -> Result<SweepPlan, String> {
    let axis = Axis::parse(&format!("workload.name={}", WORKLOADS.join(",")))?;
    expand_grid(&PAPER_SPECS, &[axis], trace_seed)
}

/// The workload, ready to run: its plan and per-point references.
pub struct PaperGrid {
    plan: SweepPlan,
    exec: ExecConfig,
    expected: Vec<Expected>,
}

impl PaperGrid {
    /// Builds the grid at `exec` scale, computes the references by direct
    /// simulation (two threads, outside all timing), then times the
    /// set-up (plan expansion). Returns the workload and its set-up time
    /// samples in seconds.
    pub fn prepare(trace_seed: u64, exec: ExecConfig) -> Result<(PaperGrid, Vec<f64>), String> {
        let plan = plan(trace_seed)?;
        let expected = references(&plan, &exec)?;
        // Expansion takes well under a millisecond, so it is timed many
        // times, after the references have brought the host to the state
        // the timed phase runs in.
        let mut setup = Vec::with_capacity(SETUP_REPS);
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            let again = self::plan(trace_seed)?;
            setup.push(t0.elapsed().as_secs_f64());
            std::hint::black_box(again);
        }
        Ok((PaperGrid { plan, exec, expected }, setup))
    }

    /// Runs whole sweeps back to back until `seconds` of sweep wall time
    /// have passed (at least one sweep). Each sweep is one job.
    pub fn run(&self, seconds: f64, tracer: &Tracer) -> Phase {
        let mut phase = Phase::default();
        let mut digest = None;
        tracer.span(SpanCtx::ROOT, "bench.loop", 0, |lp| {
            let mut job = 0u64;
            while phase.job_ms.is_empty() || phase.wall_s < seconds {
                job += 1;
                tracer.span(lp, "bench.job", job, |jc| {
                    let t0 = Instant::now();
                    let outcome = tracer.span(jc, "explore.run_sweep_hardened", job, |_| {
                        run_sweep_hardened(
                            &self.plan,
                            &self.exec,
                            &HardenPolicy::default(),
                            BTreeMap::new(),
                            &Reporter::silent(),
                            &mut NopSink,
                            None,
                        )
                    });
                    let wall = t0.elapsed().as_secs_f64();
                    phase.wall_s += wall;
                    phase.job_ms.push(wall * 1e3);
                    tracer.span(jc, "bench.check", job, |_| {
                        let total = outcome.outcomes.len() as u64;
                        let (results, failures) = outcome.into_parts();
                        phase.attempted += total;
                        phase.failed += failures.len() as u64;
                        for f in &failures {
                            phase.errors.push(format!("point failed: {f}"));
                        }
                        for (r, e) in results.iter().zip(&self.expected) {
                            match e.check(r) {
                                Ok(()) => {
                                    phase.points += 1;
                                    phase.instrs += self.exec.warmup + self.exec.measure;
                                }
                                Err(msg) => {
                                    phase.failed += 1;
                                    phase.errors.push(msg);
                                }
                            }
                        }
                        if results.len() != self.expected.len() && failures.is_empty() {
                            phase.errors.push("sweep returned too few results".to_owned());
                        }
                        if digest.is_none() {
                            let mut h = Fnv1a::new();
                            results.iter().for_each(|r| digest_result(&mut h, r));
                            digest = Some(h.digest());
                        }
                    });
                });
            }
        });
        phase.digest = digest;
        phase
    }
}

/// Set-ups timed per run; the median is reported.
const SETUP_REPS: usize = 31;

/// Direct-simulation references for every point, on two threads.
pub fn references(plan: &SweepPlan, exec: &ExecConfig) -> Result<Vec<Expected>, String> {
    let points = &plan.points;
    let half = points.len().div_ceil(2);
    std::thread::scope(|s| {
        let workers: Vec<_> = points
            .chunks(half.max(1))
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|p| Expected::simulate_preset(p, exec))
                        .collect::<Result<Vec<_>, _>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(points.len());
        for w in workers {
            out.extend(w.join().expect("reference thread panicked")?);
        }
        Ok(out)
    })
}

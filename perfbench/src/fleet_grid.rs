//! `fleet-grid`: one sweep grid sharded over two in-process daemons by
//! `vm_fleet::run_fleet`, hedging off.
//!
//! ULTRIX × four TLB sizes × four L1 sizes at quick scale: 16 points,
//! each its own single-point job, so per-point compute and per-point
//! dispatch, poll and merge overhead are of similar size.

use std::time::{Duration, Instant};

use vm_explore::{Axis, ExecConfig, PointResult};
use vm_fleet::{
    fleet_plan, run_fleet, Backend, FleetOptions, FleetOutcome, FleetPlan, FleetSession,
};
use vm_obs::{NopSink, Reporter};
use vm_trace::wire::Fnv1a;

use crate::check::{check_all, check_same, in_process};
use crate::daemon::{connect_healthy, Daemon};
use crate::serve_mixed::seeded_spec;
use crate::spans::{SpanCtx, Tracer};
use crate::stats::digest_result;
use crate::Phase;

/// Daemons in the fleet (one worker each).
pub const BACKENDS: usize = 2;
/// Run lengths of every grid point.
pub const EXEC: ExecConfig = ExecConfig::QUICK;
/// Set-ups timed per run; the median is reported.
const SETUP_REPS: usize = 5;

/// The grid's fleet plan for `trace_seed`.
pub fn plan(trace_seed: u64) -> Result<FleetPlan, String> {
    let spec = seeded_spec(crate::paper_grid::PAPER_SPECS[1], trace_seed);
    let axes = [Axis::parse("tlb.entries=32,64,128,256")?, Axis::parse("cache.l1=8K,16K,32K,64K")?];
    fleet_plan(&[spec], &axes)
}

/// Coordinator options: hedging off, so the cost measured is the
/// steady-state pipeline.
pub fn options() -> FleetOptions {
    FleetOptions { hedge_after: None, poll: Duration::from_millis(2), ..FleetOptions::default() }
}

/// The fleet's daemons, started and health-checked.
pub struct Fleet {
    daemons: Vec<Daemon>,
}

impl Fleet {
    /// Starts [`BACKENDS`] single-worker daemons and health-checks each.
    pub fn start() -> Result<Fleet, String> {
        let daemons =
            (0..BACKENDS).map(|_| Daemon::start(1, None)).collect::<Result<Vec<_>, _>>()?;
        for d in &daemons {
            connect_healthy(d.addr)?;
        }
        Ok(Fleet { daemons })
    }

    /// One coordinator run of `fplan` over the fleet.
    pub fn run(&self, fplan: &FleetPlan, exec: &ExecConfig) -> Result<FleetOutcome, String> {
        let backends = self
            .daemons
            .iter()
            .enumerate()
            .map(|(id, d)| Backend::from_addr(id, d.addr.to_string()))
            .collect();
        run_fleet(
            fplan,
            exec,
            backends,
            &options(),
            &Reporter::silent(),
            &mut NopSink,
            None,
            FleetSession::default(),
        )
    }

    /// Drains every daemon.
    pub fn stop(self) -> Result<(), String> {
        self.daemons.into_iter().try_for_each(Daemon::stop)
    }
}

/// The workload, ready to run.
pub struct FleetGrid {
    fleet: Fleet,
    fplan: FleetPlan,
    reference: Vec<PointResult>,
}

impl FleetGrid {
    /// Sets the fleet up [`SETUP_REPS`] times (daemons, health checks,
    /// plan expansion), keeping the last, then computes the reference by
    /// an in-process sweep outside all timing.
    pub fn prepare(trace_seed: u64) -> Result<(FleetGrid, Vec<f64>), String> {
        let mut setup = Vec::new();
        let mut kept = None;
        for _ in 0..SETUP_REPS {
            if let Some((fleet, _)) = kept.take() {
                Fleet::stop(fleet)?;
            }
            let t0 = Instant::now();
            let fleet = Fleet::start()?;
            let fplan = plan(trace_seed)?;
            setup.push(t0.elapsed().as_secs_f64());
            kept = Some((fleet, fplan));
        }
        let (fleet, fplan) = kept.expect("SETUP_REPS > 0");
        let reference = in_process(&fplan.plan, &ExecConfig { jobs: BACKENDS, ..EXEC })?;
        Ok((FleetGrid { fleet, fplan, reference }, setup))
    }

    /// Runs the grid through the fleet back to back until `seconds` of
    /// coordinator wall time have passed (at least one run). Each
    /// coordinator run is one job.
    pub fn run(&self, seconds: f64, tracer: &Tracer) -> Phase {
        let mut phase = Phase::default();
        let mut digest = None;
        tracer.span(SpanCtx::ROOT, "bench.loop", 0, |lp| {
            let mut job = 0u64;
            while phase.job_ms.is_empty() || phase.wall_s < seconds {
                job += 1;
                tracer.span(lp, "bench.job", job, |jc| {
                    let t0 = Instant::now();
                    let run = tracer
                        .span(jc, "fleet.run_fleet", job, |_| self.fleet.run(&self.fplan, &EXEC));
                    let wall = t0.elapsed().as_secs_f64();
                    phase.wall_s += wall;
                    phase.job_ms.push(wall * 1e3);
                    let total = self.fplan.plan.points.len() as u64;
                    phase.attempted += total;
                    let checked = run.and_then(|outcome| {
                        tracer.span(jc, "bench.check", job, |_| {
                            if let Some(f) = outcome.merged.failures.first() {
                                return Err(format!(
                                    "{} point(s) failed, first: {f}",
                                    outcome.merged.failures.len()
                                ));
                            }
                            check_all(&outcome.merged.results, &self.reference, check_same)?;
                            Ok(outcome)
                        })
                    });
                    match checked {
                        Ok(outcome) => {
                            phase.points += total;
                            phase.instrs += total * (EXEC.warmup + EXEC.measure);
                            if digest.is_none() {
                                let mut h = Fnv1a::new();
                                outcome
                                    .merged
                                    .results
                                    .iter()
                                    .for_each(|r| digest_result(&mut h, r));
                                digest = Some(h.digest());
                            }
                        }
                        Err(e) => {
                            phase.failed += total;
                            phase.errors.push(e);
                        }
                    }
                });
            }
        });
        phase.digest = digest;
        phase
    }

    /// Drains the fleet.
    pub fn finish(self) -> Result<(), String> {
        self.fleet.stop()
    }
}

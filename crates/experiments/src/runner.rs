//! The experiment drivers' job list, run on `vm-explore`'s sweep lanes.
//!
//! [`run_jobs`] maps each [`Job`] onto a point for
//! [`vm_explore::run_reports`]: jobs that replay one workload and trace
//! seed share a lane, so each trace is synthesized once per lane, and
//! each simulator is built from the job's own [`SimConfig`], so knobs
//! no spec key reaches (`flush_tlb_every`, `tlb_protected`) still apply.
//! Progress comes from the sweep's heartbeat.

use vm_core::{SimConfig, SimReport};
use vm_explore::{run_reports, ExecConfig, PlannedPoint, SystemSpec};
use vm_obs::Reporter;
use vm_trace::{presets, WorkloadSpec};

/// One simulation to run: a system configuration against a workload.
#[derive(Debug, Clone)]
pub struct Job {
    /// Free-form label carried into the outcome.
    pub label: String,
    /// The system and geometry to simulate.
    pub config: SimConfig,
    /// The workload: an unmodified preset (see [`run_jobs`]).
    pub workload: WorkloadSpec,
    /// Seed for the workload generator.
    pub trace_seed: u64,
}

impl Job {
    /// Creates a job with the default trace seed.
    pub fn new(label: impl Into<String>, config: SimConfig, workload: WorkloadSpec) -> Job {
        Job { label: label.into(), config, workload, trace_seed: 1 }
    }
}

/// A completed job.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The job that produced this outcome.
    pub job: Job,
    /// The measured report.
    pub report: SimReport,
}

/// Runs `jobs` at `exec`'s run lengths on up to `exec.jobs` worker
/// threads, returning outcomes in job order. Results are bit-identical
/// at any worker count, and identical to a direct
/// [`vm_core::simulate`] of each job.
///
/// # Panics
///
/// Jobs are built from validated presets, so a failure is a programming
/// error in the experiment definition, not an input error:
///
/// * before anything runs, if a job's workload is not an unmodified
///   preset (lanes resolve workloads by preset name, so a modified spec
///   would silently simulate the preset instead);
/// * after every job has run, with the error of the lowest-index job
///   that failed. A failure does not stop the other jobs.
pub fn run_jobs(jobs: Vec<Job>, exec: &ExecConfig) -> Vec<Outcome> {
    let points: Vec<PlannedPoint> =
        jobs.iter().enumerate().map(|(ix, job)| point(ix, job)).collect();
    let reports = run_reports(&points, exec, &Reporter::global());
    jobs.into_iter()
        .zip(reports)
        .map(|(job, report)| match report {
            Ok(report) => Outcome { job, report },
            Err(e) => panic!("{e}"),
        })
        .collect()
}

/// The lane point for `job`: its spec names only the workload and seed.
fn point(index: usize, job: &Job) -> PlannedPoint {
    let name = &job.workload.name;
    assert!(
        presets::by_name(name).as_ref() == Some(&job.workload),
        "job `{}`: workload `{name}` is not an unmodified preset",
        job.label
    );
    let mut spec = SystemSpec::for_kind(job.config.system);
    spec.workload = Some(name.clone());
    spec.trace_seed = job.trace_seed;
    PlannedPoint { index, label: job.label.clone(), settings: Vec::new(), spec, config: job.config }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm_core::{simulate, SystemKind};

    const TINY: ExecConfig = ExecConfig { warmup: 2_000, measure: 10_000, jobs: 1 };

    fn tiny_job(label: &str, system: SystemKind) -> Job {
        Job::new(label, SimConfig::paper_default(system), presets::ijpeg_spec())
    }

    /// Jobs over two streams, with knobs no spec key reaches.
    fn mixed_jobs() -> Vec<Job> {
        let mut jobs = vec![
            tiny_job("a", SystemKind::Base),
            tiny_job("b", SystemKind::Intel),
            tiny_job("c", SystemKind::Ultrix),
            tiny_job("d", SystemKind::PaRisc),
        ];
        jobs[2].config.flush_tlb_every = Some(3_000);
        jobs[3].config.tlb_protected = Some(0);
        let mut other =
            Job::new("e", SimConfig::paper_default(SystemKind::Mach), presets::gcc_spec());
        other.trace_seed = 7;
        jobs.push(other);
        jobs
    }

    #[test]
    fn preserves_job_order_and_labels() {
        let out = run_jobs(mixed_jobs(), &ExecConfig { jobs: 3, ..TINY });
        let labels: Vec<&str> = out.iter().map(|o| o.job.label.as_str()).collect();
        assert_eq!(labels, ["a", "b", "c", "d", "e"]);
        let systems: Vec<&str> = out.iter().map(|o| o.report.system.as_str()).collect();
        assert_eq!(systems, ["BASE", "INTEL", "ULTRIX", "PA-RISC", "MACH"]);
        assert_eq!(out[4].job.trace_seed, 7);
    }

    #[test]
    fn results_match_direct_simulation_at_one_and_four_jobs() {
        let jobs = mixed_jobs();
        let direct: Vec<String> = jobs
            .iter()
            .map(|j| {
                let trace = j.workload.build(j.trace_seed).unwrap();
                simulate(&j.config, trace, TINY.warmup, TINY.measure).unwrap().to_json().to_string()
            })
            .collect();
        for threads in [1, 4] {
            let out = run_jobs(jobs.clone(), &ExecConfig { jobs: threads, ..TINY });
            let got: Vec<String> = out.iter().map(|o| o.report.to_json().to_string()).collect();
            assert_eq!(got, direct, "jobs={threads}");
        }
    }

    #[test]
    fn empty_job_list_is_fine() {
        assert!(run_jobs(Vec::new(), &ExecConfig { jobs: 4, ..TINY }).is_empty());
    }

    #[test]
    #[should_panic(expected = "job `broken`: workload `ijpeg` is not an unmodified preset")]
    fn a_modified_workload_panics_naming_its_job() {
        let mut bad = tiny_job("broken", SystemKind::Intel);
        bad.workload.code.functions = 0; // degenerate spec: build() rejects it
        run_jobs(vec![tiny_job("ok", SystemKind::Base), bad], &ExecConfig { jobs: 2, ..TINY });
    }

    #[test]
    #[should_panic(expected = "point `first-bad`")]
    fn the_lowest_index_failure_is_the_panic() {
        let mut jobs = vec![tiny_job("ok", SystemKind::Base)];
        for label in ["first-bad", "second-bad"] {
            let mut bad = tiny_job(label, SystemKind::Ultrix);
            bad.config.l1_line = 3; // not a power of two: build() rejects it
            jobs.push(bad);
        }
        run_jobs(jobs, &ExecConfig { jobs: 2, ..TINY });
    }

    #[test]
    fn short_runs_cost_their_work_not_a_heartbeat_step() {
        // run_jobs returns when its workers do. A heartbeat thread that
        // sleeps in fixed 100 ms steps would make twenty one-job runs of
        // ~1k instructions take at least 2 s.
        let exec = ExecConfig { warmup: 200, measure: 800, jobs: 1 };
        let started = std::time::Instant::now();
        for _ in 0..20 {
            assert_eq!(run_jobs(vec![tiny_job("tiny", SystemKind::Ultrix)], &exec).len(), 1);
        }
        let wall = started.elapsed();
        assert!(wall < std::time::Duration::from_secs(1), "20 one-job runs took {wall:?}");
    }
}

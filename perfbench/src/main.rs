//! The repository benchmark: three workloads, end-to-end metrics with
//! tracing off, per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-grid|serve-mixed|fleet-grid --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` for
//! what each metric means and which layer should move it.

mod check;
mod daemon;
mod fleet_grid;
mod layers;
mod metrics;
mod paper_grid;
mod serve_mixed;
mod spans;
mod stats;

use std::process::ExitCode;

use vm_explore::ExecConfig;
use vm_types::SplitMix64;

use crate::metrics::Metrics;
use crate::spans::Tracer;
use crate::stats::{median, peak_rss_mb, tail_percentile};

/// What one timed phase of a workload did.
#[derive(Debug, Default)]
pub struct Phase {
    /// Timed wall time, seconds.
    pub wall_s: f64,
    /// Points completed and verified.
    pub points: u64,
    /// Simulated instructions (warm-up + measured) of those points.
    pub instrs: u64,
    /// Per-job latency, milliseconds.
    pub job_ms: Vec<f64>,
    /// Per-upload begin→commit latency, milliseconds.
    pub upload_ms: Vec<f64>,
    /// Operations attempted (points, jobs or uploads).
    pub attempted: u64,
    /// Operations failed: refused, shed, degraded, failed or wrong.
    pub failed: u64,
    /// Why anything failed.
    pub errors: Vec<String>,
    /// FNV-1a over the bits of a fixed subset of the results, once the
    /// whole subset has run.
    pub digest: Option<u64>,
}

impl Phase {
    /// Adds `other`'s counts and samples (wall time excluded).
    pub fn merge(&mut self, other: Phase) {
        self.points += other.points;
        self.instrs += other.instrs;
        self.job_ms.extend(other.job_ms);
        self.upload_ms.extend(other.upload_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }

    /// The end-to-end metrics of this phase, given its set-up samples.
    pub fn end_to_end(&self, setup_s: &[f64]) -> Result<Metrics, String> {
        let wall = self.wall_s.max(1e-9);
        let mut m = Metrics::default();
        m.push("setup_s", median(setup_s));
        m.push("sim_minstr_per_s", self.instrs as f64 / wall / 1e6);
        m.push("points_per_s", self.points as f64 / wall);
        m.push("jobs_per_s", self.job_ms.len() as f64 / wall);
        m.push("job_p50_ms", if self.job_ms.is_empty() { f64::NAN } else { median(&self.job_ms) });
        m.push("peak_rss_mb", peak_rss_mb()?);
        m.push("ok_ratio", 1.0 - self.failed as f64 / self.attempted.max(1) as f64);
        Ok(m)
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Six paper systems × three workloads, in-process sweep.
    PaperGrid,
    /// Closed-loop small jobs and trace uploads against one daemon.
    ServeMixed,
    /// A 16-point grid sharded over two daemons.
    FleetGrid,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::PaperGrid, Workload::ServeMixed, Workload::FleetGrid];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::ServeMixed => "serve-mixed",
            Workload::FleetGrid => "fleet-grid",
        }
    }
}

/// A prepared workload of any kind.
enum Prepared {
    Paper(paper_grid::PaperGrid),
    Serve(Box<serve_mixed::ServeMixed>),
    Fleet(fleet_grid::FleetGrid),
}

impl Prepared {
    fn new(w: Workload, trace_seed: u64) -> Result<(Prepared, Vec<f64>), String> {
        Ok(match w {
            Workload::PaperGrid => {
                let exec = ExecConfig { jobs: 2, ..ExecConfig::DEFAULT };
                let (p, s) = paper_grid::PaperGrid::prepare(trace_seed, exec)?;
                (Prepared::Paper(p), s)
            }
            Workload::ServeMixed => {
                let (p, s) = serve_mixed::ServeMixed::prepare(trace_seed)?;
                (Prepared::Serve(Box::new(p)), s)
            }
            Workload::FleetGrid => {
                let (p, s) = fleet_grid::FleetGrid::prepare(trace_seed)?;
                (Prepared::Fleet(p), s)
            }
        })
    }

    fn run(&mut self, seconds: f64, tracer: &Tracer) -> Phase {
        match self {
            Prepared::Paper(p) => p.run(seconds, tracer),
            Prepared::Serve(p) => p.run(seconds, tracer),
            Prepared::Fleet(p) => p.run(seconds, tracer),
        }
    }

    fn finish(self) -> Result<(), String> {
        match self {
            Prepared::Paper(_) => Ok(()),
            Prepared::Serve(p) => p.finish(),
            Prepared::Fleet(p) => p.finish(),
        }
    }
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload paper-grid|serve-mixed|fleet-grid --seed N \
                     --seconds S --trace 0|1";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The workload generator seed for a benchmark seed. Every input a run
/// generates descends from it; the program receives only those inputs.
pub fn trace_seed(seed: u64) -> u64 {
    SplitMix64::new(seed).next_u64() >> 16
}

/// Prints the human-readable figures of a phase to standard output,
/// including the ones only some workloads have.
fn report_phase(w: Workload, label: &str, phase: &Phase, e2e: &Metrics) {
    for (name, value, unit) in e2e.iter() {
        println!("{label} {name} = {value:.6} {unit}");
    }
    println!("{label} jobs = {} (n for job_p50_ms)", phase.job_ms.len());
    match tail_percentile(&phase.job_ms, 0.9) {
        Some(p90) => println!("{label} job_p90_ms = {p90:.6} ms (n = {})", phase.job_ms.len()),
        None => println!("{label} job_p90_ms = n/a (needs 100 jobs, have {})", phase.job_ms.len()),
    }
    if w == Workload::ServeMixed {
        match phase.upload_ms.is_empty() {
            false => println!(
                "{label} upload_p50_ms = {:.6} ms (n = {})",
                median(&phase.upload_ms),
                phase.upload_ms.len()
            ),
            true => println!("{label} upload_p50_ms = n/a (no uploads completed)"),
        }
    }
    println!(
        "{label} fail_ratio = {:.6} ({} of {} operations)",
        phase.failed as f64 / phase.attempted.max(1) as f64,
        phase.failed,
        phase.attempted
    );
    match phase.digest {
        Some(d) => println!("{label} results_digest = {d:016x}"),
        None => {
            println!("{label} results_digest = n/a (run too short for the digest's result set)")
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let seed = trace_seed(args.seed);
    eprintln!(
        "perfbench: {} seed {} (trace seed {seed}), {}s, trace {}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace
    );
    let (mut prepared, setup) = Prepared::new(w, seed)?;
    let mut errors = Vec::new();
    let (attempted, failed, metrics);
    if !args.trace {
        let phase = prepared.run(args.seconds, &Tracer::new(false));
        let e2e = phase.end_to_end(&setup)?;
        report_phase(w, w.name(), &phase, &e2e);
        attempted = phase.attempted;
        failed = phase.failed;
        errors.extend(phase.errors);
        prepared.finish()?;
        metrics = e2e;
    } else {
        let half = args.seconds / 2.0;
        let plain = prepared.run(half, &Tracer::new(false));
        let tracer = Tracer::new(true);
        let traced = prepared.run(half, &tracer);
        prepared.finish()?;
        let plain_e2e = plain.end_to_end(&setup)?;
        let traced_e2e = traced.end_to_end(&setup)?;
        report_phase(w, "untraced", &plain, &plain_e2e);
        report_phase(w, "traced", &traced, &traced_e2e);
        let trace_path = layers::write_chrome_trace(&tracer, w, args.seed)?;
        eprintln!("perfbench: {} spans written to {}", tracer.len(), trace_path.display());
        let mut m = layers::span_report(&tracer, &plain_e2e, &traced_e2e);
        let probes = layers::probe_all(seed)?;
        m.extend(probes);
        attempted = plain.attempted + traced.attempted;
        failed = plain.failed + traced.failed;
        errors.extend(plain.errors);
        errors.extend(traced.errors);
        metrics = m;
    }
    for e in &errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    let expected = if args.trace { metrics::PER_LAYER } else { metrics::END_TO_END };
    metrics.check_names(expected)?;
    let correct = errors.is_empty();
    println!("{}", metrics.to_json(correct, attempted.max(1), failed));
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet_grid::FleetGrid;
    use crate::paper_grid::PaperGrid;
    use crate::serve_mixed::ServeMixed;

    /// One sweep of the paper grid at a small scale: (digest, points,
    /// attempted, simulated instructions).
    fn paper(seed: u64) -> (u64, u64, u64, u64) {
        let exec = ExecConfig { warmup: 2_000, measure: 8_000, jobs: 2 };
        let (grid, setup) = PaperGrid::prepare(trace_seed(seed), exec).unwrap();
        assert!(!setup.is_empty());
        let phase = grid.run(1e-9, &Tracer::new(false));
        assert!(phase.errors.is_empty(), "{:?}", phase.errors);
        assert_eq!(phase.job_ms.len(), 1, "a zero-length run still runs one sweep");
        (phase.digest.expect("one sweep ran"), phase.points, phase.attempted, phase.instrs)
    }

    #[test]
    fn paper_grid_digest_and_counts_follow_the_seed() {
        let a = paper(7);
        assert_eq!(a, paper(7));
        assert_eq!((a.1, a.2), (18, 18));
        assert_ne!(a.0, paper(8).0);
    }

    fn fleet(seed: u64) -> (u64, u64, u64) {
        let (grid, _) = FleetGrid::prepare(trace_seed(seed)).unwrap();
        let phase = grid.run(1e-9, &Tracer::new(false));
        grid.finish().unwrap();
        assert!(phase.errors.is_empty(), "{:?}", phase.errors);
        (phase.digest.expect("one fleet run ran"), phase.points, phase.attempted)
    }

    #[test]
    fn fleet_grid_digest_and_counts_follow_the_seed() {
        let a = fleet(7);
        assert_eq!(a, fleet(7));
        assert_eq!((a.1, a.2), (16, 16));
        assert_ne!(a.0, fleet(8).0);
    }

    fn serve(seed: u64) -> u64 {
        let (mut mixed, _) = ServeMixed::prepare(trace_seed(seed)).unwrap();
        // Long enough for every job shape and the digest's replays.
        let phase = mixed.run(8.0, &Tracer::new(false));
        mixed.finish().unwrap();
        assert!(phase.errors.is_empty(), "{:?}", phase.errors);
        assert_eq!(phase.failed, 0);
        phase.digest.expect("the run covers the digest's result set")
    }

    #[test]
    fn serve_mixed_digest_follows_the_seed() {
        let a = serve(7);
        assert_eq!(a, serve(7));
        assert_ne!(a, serve(8));
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let ok =
            parse_args(&argv("--workload fleet-grid --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!((ok.workload, ok.seed, ok.trace), (Workload::FleetGrid, 3, true));
        assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload paper-grid --seed 3 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload paper-grid --seed 3 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload paper-grid --seconds 1 --trace 0")).is_err());
    }
}

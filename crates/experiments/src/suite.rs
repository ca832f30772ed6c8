//! The benchmark-suite overview: every workload model against every
//! system, replicated over multiple trace seeds.
//!
//! The paper reports three benchmarks in depth "due to space
//! constraints" but simulated the SPEC '95 integer suite. This
//! experiment plays that role for the six synthetic models (the paper's
//! trio plus li, compress and perl), and doubles as the reproduction's
//! *stability check*: each (workload, system) cell is measured at
//! several workload seeds and reported as mean ± max deviation, so
//! seed-sensitivity is visible rather than hidden in a single draw.

use vm_core::cost::CostModel;
use vm_core::{SimConfig, SystemKind};
use vm_explore::ExecConfig;
use vm_trace::WorkloadSpec;

use crate::claim::Claim;
use crate::runner::{run_jobs, Job};
use crate::table::TextTable;

/// Parameter space for the suite sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workloads to measure.
    pub workloads: Vec<WorkloadSpec>,
    /// Systems to measure.
    pub systems: Vec<SystemKind>,
    /// Trace seeds to replicate over.
    pub seeds: Vec<u64>,
    /// Run lengths and worker threads.
    pub exec: ExecConfig,
}

impl Config {
    /// All six workload models on the five VM systems, three seeds.
    pub fn default_suite(workloads: Vec<WorkloadSpec>) -> Config {
        Config {
            workloads,
            systems: SystemKind::VM_SYSTEMS.to_vec(),
            seeds: vec![42, 1, 7],
            exec: ExecConfig::DEFAULT,
        }
    }
}

/// One aggregated cell: a (workload, system) pair over all seeds.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Workload name.
    pub workload: String,
    /// Simulated system.
    pub system: SystemKind,
    /// Mean VM total (VMCPI + interrupt CPI @50) over seeds.
    pub vm_total_mean: f64,
    /// Largest absolute deviation from the mean over seeds.
    pub vm_total_spread: f64,
    /// Mean MCPI over seeds.
    pub mcpi_mean: f64,
    /// Per-seed VM totals, in seed order.
    pub per_seed: Vec<f64>,
}

/// The measured suite.
#[derive(Debug, Clone)]
pub struct Result {
    /// The seeds used.
    pub seeds: Vec<u64>,
    /// All cells.
    pub cells: Vec<Cell>,
}

/// Runs the suite.
///
/// # Panics
///
/// Panics if `config.seeds` is empty (there would be nothing to
/// aggregate).
pub fn run(config: &Config) -> Result {
    assert!(!config.seeds.is_empty(), "suite needs at least one seed");
    let mut jobs = Vec::new();
    for workload in &config.workloads {
        for &system in &config.systems {
            for &seed in &config.seeds {
                let mut job = Job::new(
                    format!("{system}/{}/{seed}", workload.name),
                    SimConfig::paper_default(system),
                    workload.clone(),
                );
                job.trace_seed = seed;
                jobs.push(job);
            }
        }
    }
    let outcomes = run_jobs(jobs, &config.exec);
    let cost = CostModel::default();
    let mut cells = Vec::new();
    // Jobs are emitted seeds-innermost, so consecutive `seeds.len()`-sized
    // chunks are exactly one (workload, system) cell; the debug assert
    // below guards the invariant against job-construction reordering.
    let per_cell = config.seeds.len();
    for chunk in outcomes.chunks(per_cell) {
        debug_assert!(
            chunk.iter().all(|o| o.job.config.system == chunk[0].job.config.system
                && o.job.workload.name == chunk[0].job.workload.name),
            "suite chunking no longer matches job construction order"
        );
        let per_seed: Vec<f64> = chunk
            .iter()
            .map(|o| o.report.vmcpi(&cost).total() + o.report.interrupt_cpi(&cost))
            .collect();
        let mean = per_seed.iter().sum::<f64>() / per_seed.len() as f64;
        let spread = per_seed.iter().map(|v| (v - mean).abs()).fold(0.0, f64::max);
        let mcpi_mean =
            chunk.iter().map(|o| o.report.mcpi(&cost).total()).sum::<f64>() / per_cell as f64;
        cells.push(Cell {
            workload: chunk[0].job.workload.name.clone(),
            system: chunk[0].job.config.system,
            vm_total_mean: mean,
            vm_total_spread: spread,
            mcpi_mean,
            per_seed,
        });
    }
    Result { seeds: config.seeds.clone(), cells }
}

impl Result {
    /// Renders the suite matrix.
    pub fn render(&self) -> String {
        let mut t =
            TextTable::new(["workload", "system", "VM total (mean)", "± spread", "MCPI (mean)"]);
        for c in &self.cells {
            t.row([
                c.workload.clone(),
                c.system.label().to_owned(),
                format!("{:.5}", c.vm_total_mean),
                format!("{:.5}", c.vm_total_spread),
                format!("{:.4}", c.mcpi_mean),
            ]);
        }
        format!("suite over seeds {:?}\n{}", self.seeds, t.render())
    }

    /// CSV of all cells with per-seed values.
    pub fn to_csv(&self) -> String {
        let mut headers = vec![
            "workload".to_owned(),
            "system".to_owned(),
            "vm_total_mean".to_owned(),
            "spread".to_owned(),
            "mcpi_mean".to_owned(),
        ];
        headers.extend(self.seeds.iter().map(|s| format!("seed_{s}")));
        let mut t = TextTable::new(headers);
        for c in &self.cells {
            let mut row = vec![
                c.workload.clone(),
                c.system.label().to_owned(),
                format!("{:.6}", c.vm_total_mean),
                format!("{:.6}", c.vm_total_spread),
                format!("{:.6}", c.mcpi_mean),
            ];
            row.extend(c.per_seed.iter().map(|v| format!("{v:.6}")));
            t.row(row);
        }
        t.to_csv()
    }

    /// Suite-level claims: stability across seeds and the persistence of
    /// the paper's orderings beyond its three reported benchmarks.
    pub fn claims(&self) -> Vec<Claim> {
        let mut claims = Vec::new();
        // Stability: relative spread stays small for non-trivial cells of
        // the TLB-based systems. NOTLB is excluded deliberately: its
        // overhead rides entirely on L2 cache behaviour, so it *is*
        // seed-sensitive — the very hypersensitivity Figure 6 reports.
        let meaningful: Vec<&Cell> =
            self.cells.iter().filter(|c| c.vm_total_mean > 1e-3 && c.system.uses_tlb()).collect();
        if !meaningful.is_empty() && self.seeds.len() > 1 {
            let worst =
                meaningful.iter().map(|c| c.vm_total_spread / c.vm_total_mean).fold(0.0, f64::max);
            claims.push(Claim::new(
                "TLB-based results are stable across workload seeds (max relative spread < 40%)",
                worst < 0.40,
                format!("worst relative spread {:.1}%", 100.0 * worst),
            ));
        }
        // INTEL's win generalizes beyond the paper's three benchmarks.
        let mut workloads: Vec<&str> = self.cells.iter().map(|c| c.workload.as_str()).collect();
        workloads.dedup();
        let mut intel_wins = 0;
        let mut contests = 0;
        for w in &workloads {
            let of = |s: SystemKind| {
                self.cells
                    .iter()
                    .find(|c| c.workload == *w && c.system == s)
                    .map(|c| c.vm_total_mean)
            };
            if let (Some(intel), Some(ultrix), Some(mach)) =
                (of(SystemKind::Intel), of(SystemKind::Ultrix), of(SystemKind::Mach))
            {
                contests += 1;
                if intel <= ultrix && intel <= mach {
                    intel_wins += 1;
                }
            }
        }
        if contests > 0 {
            claims.push(Claim::new(
                "the hardware-managed TLB keeps its advantage across the wider suite",
                intel_wins == contests,
                format!("INTEL cheapest-or-tied in {intel_wins}/{contests} workloads"),
            ));
        }
        claims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm_trace::presets;

    fn tiny() -> Config {
        Config {
            workloads: vec![presets::ijpeg_spec()],
            systems: vec![SystemKind::Ultrix, SystemKind::Intel],
            seeds: vec![1, 2],
            exec: ExecConfig { warmup: 10_000, measure: 40_000, jobs: 1 },
        }
    }

    #[test]
    fn aggregates_per_seed_runs() {
        let r = run(&tiny());
        assert_eq!(r.cells.len(), 2);
        for c in &r.cells {
            assert_eq!(c.per_seed.len(), 2);
            let mean = c.per_seed.iter().sum::<f64>() / 2.0;
            assert!((c.vm_total_mean - mean).abs() < 1e-12);
            assert!(c.vm_total_spread >= 0.0);
        }
    }

    #[test]
    fn render_and_csv_are_complete() {
        let r = run(&tiny());
        assert!(r.render().contains("± spread"));
        let csv = r.to_csv();
        assert!(csv.lines().next().unwrap().contains("seed_1"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn claims_cover_stability() {
        let r = run(&tiny());
        // ijpeg cells may be ~0, so stability claim may be absent; the
        // call must simply not panic and produce well-formed claims.
        for c in r.claims() {
            assert!(!c.statement.is_empty());
        }
    }
}

//! Figure 11 (reconstructed): sensitivity to TLB size.
//!
//! The abstract reports that "systems are fairly sensitive to TLB size".
//! This sweep varies the (split) TLB entry count from 16 to 512 around
//! the paper's 128-entry operating point and measures VMCPI plus TLB
//! miss rates for the TLB-based systems.

use vm_core::cost::CostModel;
use vm_core::{SimConfig, SystemKind};
use vm_explore::ExecConfig;
use vm_trace::WorkloadSpec;

use crate::claim::Claim;
use crate::runner::{run_jobs, Job};
use crate::table::TextTable;

/// Parameter space for the TLB-size sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workloads to sweep.
    pub workloads: Vec<WorkloadSpec>,
    /// Systems (must be TLB-based).
    pub systems: Vec<SystemKind>,
    /// TLB entry counts to sweep.
    pub entries: Vec<usize>,
    /// Run lengths and worker threads.
    pub exec: ExecConfig,
}

impl Config {
    /// The default sweep: 16–512 entries around the paper's 128.
    pub fn paper(workloads: Vec<WorkloadSpec>) -> Config {
        Config {
            workloads,
            systems: vec![
                SystemKind::Ultrix,
                SystemKind::Mach,
                SystemKind::Intel,
                SystemKind::PaRisc,
            ],
            entries: vec![16, 32, 64, 128, 256, 512],
            exec: ExecConfig::DEFAULT,
        }
    }
}

/// One measured point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Workload name.
    pub workload: String,
    /// Simulated system.
    pub system: SystemKind,
    /// Entries per (split) TLB.
    pub entries: usize,
    /// Measured VMCPI.
    pub vmcpi: f64,
    /// Combined I+D TLB miss ratio.
    pub tlb_miss_ratio: f64,
}

/// The measured sweep.
#[derive(Debug, Clone)]
pub struct Result {
    /// All points.
    pub points: Vec<Point>,
}

/// Runs the sweep.
pub fn run(config: &Config) -> Result {
    let mut jobs = Vec::new();
    for workload in &config.workloads {
        for &system in &config.systems {
            for &entries in &config.entries {
                let mut sim = SimConfig::paper_default(system);
                sim.tlb_entries = entries;
                jobs.push(Job::new(
                    format!("{system}/{}/{entries}", workload.name),
                    sim,
                    workload.clone(),
                ));
            }
        }
    }
    let outcomes = run_jobs(jobs, &config.exec);
    let cost = CostModel::default();
    let points = outcomes
        .iter()
        .map(|o| Point {
            workload: o.job.workload.name.clone(),
            system: o.job.config.system,
            entries: o.job.config.tlb_entries,
            vmcpi: o.report.vmcpi(&cost).total(),
            tlb_miss_ratio: o.report.tlb_miss_ratio(),
        })
        .collect();
    Result { points }
}

impl Result {
    /// Renders one row per (workload, system) with VMCPI per TLB size.
    pub fn render(&self) -> String {
        let mut entries: Vec<usize> = self.points.iter().map(|p| p.entries).collect();
        entries.sort_unstable();
        entries.dedup();
        let mut headers = vec!["workload".to_owned(), "system".to_owned()];
        headers.extend(entries.iter().map(|e| format!("VMCPI@{e}")));
        let mut t = TextTable::new(headers);
        let mut keys: Vec<(String, SystemKind)> =
            self.points.iter().map(|p| (p.workload.clone(), p.system)).collect();
        keys.dedup();
        for (workload, system) in keys {
            let mut row = vec![workload.clone(), system.label().to_owned()];
            for &e in &entries {
                let v = self
                    .points
                    .iter()
                    .find(|p| p.workload == workload && p.system == system && p.entries == e)
                    .map(|p| format!("{:.5}", p.vmcpi))
                    .unwrap_or_default();
                row.push(v);
            }
            t.row(row);
        }
        t.render()
    }

    /// CSV of all points.
    pub fn to_csv(&self) -> String {
        let mut t = TextTable::new(["workload", "system", "entries", "vmcpi", "tlb_miss_ratio"]);
        for p in &self.points {
            t.row([
                p.workload.clone(),
                p.system.label().to_owned(),
                p.entries.to_string(),
                format!("{:.6}", p.vmcpi),
                format!("{:.6}", p.tlb_miss_ratio),
            ]);
        }
        t.to_csv()
    }

    /// Checks the TLB-size findings.
    pub fn claims(&self) -> Vec<Claim> {
        let mut claims = Vec::new();
        // VMCPI is monotone non-increasing in TLB size (within noise) and
        // sensitive: quartering the TLB from 128 to 32 should raise VMCPI
        // substantially for the page-thrashing workloads.
        let mut keys: Vec<(String, SystemKind)> =
            self.points.iter().map(|p| (p.workload.clone(), p.system)).collect();
        keys.dedup();
        let mut sensitive = 0;
        let mut total = 0;
        let mut monotone_violations = 0;
        for (w, s) in &keys {
            let of = |e: usize| {
                self.points
                    .iter()
                    .find(|p| &p.workload == w && p.system == *s && p.entries == e)
                    .map(|p| p.vmcpi)
            };
            if let (Some(small), Some(med)) = (of(32), of(128)) {
                total += 1;
                if small > 1.5 * med {
                    sensitive += 1;
                }
            }
            let mut series_points: Vec<&Point> =
                self.points.iter().filter(|p| &p.workload == w && p.system == *s).collect();
            series_points.sort_by_key(|p| p.entries);
            let series: Vec<f64> = series_points.iter().map(|p| p.vmcpi).collect();
            monotone_violations += series.windows(2).filter(|win| win[1] > win[0] * 1.15).count();
        }
        if total > 0 {
            claims.push(Claim::new(
                "systems are fairly sensitive to TLB size (quartering 128 -> 32 entries raises VMCPI by >1.5x)",
                sensitive * 2 >= total,
                format!("{sensitive}/{total} (workload, system) pairs show the blow-up"),
            ));
        }
        claims.push(Claim::new(
            "VMCPI decreases (within noise) as the TLB grows",
            monotone_violations == 0,
            format!("{monotone_violations} >15% monotonicity violations"),
        ));
        claims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm_trace::presets;

    fn tiny() -> Config {
        Config {
            workloads: vec![presets::gcc_spec()],
            systems: vec![SystemKind::Ultrix],
            entries: vec![16, 128],
            exec: ExecConfig { warmup: 20_000, measure: 100_000, jobs: 1 },
        }
    }

    #[test]
    fn sweeps_the_grid() {
        let r = run(&tiny());
        assert_eq!(r.points.len(), 2);
        assert!(r.points.iter().all(|p| p.tlb_miss_ratio >= 0.0));
    }

    #[test]
    fn tiny_tlbs_miss_more() {
        let r = run(&tiny());
        let small = r.points.iter().find(|p| p.entries == 16).unwrap();
        let large = r.points.iter().find(|p| p.entries == 128).unwrap();
        assert!(
            small.tlb_miss_ratio > large.tlb_miss_ratio,
            "16-entry TLB must miss more than 128-entry ({} vs {})",
            small.tlb_miss_ratio,
            large.tlb_miss_ratio
        );
        assert!(small.vmcpi > large.vmcpi);
    }

    #[test]
    fn render_has_a_column_per_size() {
        let r = run(&tiny());
        let text = r.render();
        assert!(text.contains("VMCPI@16"));
        assert!(text.contains("VMCPI@128"));
    }
}

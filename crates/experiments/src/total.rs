//! Figure 13 (reconstructed): total virtual-memory overhead.
//!
//! The abstract's headline numbers: the traditional VMCPI-only view puts
//! VM overhead at 5–10% of run time; adding the cache misses the VM
//! system inflicts on the application makes it 10–20%; adding interrupt
//! handling makes it 10–30%. This experiment computes all three views
//! against the BASE (no-VM) simulation of the same trace.

use vm_core::cost::CostModel;
use vm_core::{paper, SimConfig, SystemKind};
use vm_explore::ExecConfig;
use vm_trace::WorkloadSpec;

use crate::claim::Claim;
use crate::runner::{run_jobs, Job};
use crate::table::TextTable;

/// Parameter space for the total-overhead experiment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workloads to measure.
    pub workloads: Vec<WorkloadSpec>,
    /// VM systems to measure (BASE is added automatically).
    pub systems: Vec<SystemKind>,
    /// Interrupt costs for the third view.
    pub interrupt_costs: Vec<u64>,
    /// Run lengths and worker threads.
    pub exec: ExecConfig,
}

impl Config {
    /// The paper's space.
    pub fn paper(workloads: Vec<WorkloadSpec>) -> Config {
        Config {
            workloads,
            systems: SystemKind::VM_SYSTEMS.to_vec(),
            interrupt_costs: paper::INTERRUPT_COSTS.to_vec(),
            exec: ExecConfig::DEFAULT,
        }
    }
}

/// One measured row: the three views of a system's VM overhead.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Simulated system.
    pub system: SystemKind,
    /// Baseline CPI (1 + MCPI_BASE) the overheads are relative to.
    pub base_cpi: f64,
    /// View 1 — the traditional measure: VMCPI / base CPI.
    pub direct_pct: f64,
    /// View 2 — plus inflicted cache misses.
    pub with_inflicted_pct: f64,
    /// View 3 — plus interrupt cost, per swept cost (sweep order).
    pub with_interrupts_pct: Vec<f64>,
}

/// The measured experiment.
#[derive(Debug, Clone)]
pub struct Result {
    /// The swept interrupt costs.
    pub costs: Vec<u64>,
    /// All rows.
    pub rows: Vec<Row>,
}

/// Runs the experiment.
pub fn run(config: &Config) -> Result {
    let mut jobs = Vec::new();
    for workload in &config.workloads {
        jobs.push(Job::new(
            format!("BASE/{}", workload.name),
            SimConfig::paper_default(SystemKind::Base),
            workload.clone(),
        ));
        for &system in &config.systems {
            jobs.push(Job::new(
                format!("{system}/{}", workload.name),
                SimConfig::paper_default(system),
                workload.clone(),
            ));
        }
    }
    let outcomes = run_jobs(jobs, &config.exec);
    let cost = CostModel::default();
    let mut rows = Vec::new();
    let mut base_cpi = 1.0;
    for o in &outcomes {
        if o.job.config.system == SystemKind::Base {
            base_cpi = 1.0 + o.report.mcpi(&cost).total();
            continue;
        }
        let vmcpi = o.report.vmcpi(&cost).total();
        let inflicted = (1.0 + o.report.mcpi(&cost).total()) - base_cpi;
        let ints: Vec<f64> = config
            .interrupt_costs
            .iter()
            .map(|&c| {
                let icpi = o.report.interrupt_cpi(&CostModel::paper(c));
                100.0 * (vmcpi + inflicted + icpi) / base_cpi
            })
            .collect();
        rows.push(Row {
            workload: o.job.workload.name.clone(),
            system: o.job.config.system,
            base_cpi,
            direct_pct: 100.0 * vmcpi / base_cpi,
            with_inflicted_pct: 100.0 * (vmcpi + inflicted) / base_cpi,
            with_interrupts_pct: ints,
        });
    }
    Result { costs: config.interrupt_costs.clone(), rows }
}

impl Result {
    /// Renders the three views per row.
    pub fn render(&self) -> String {
        let mut headers = vec![
            "workload".to_owned(),
            "system".to_owned(),
            "base CPI".to_owned(),
            "direct%".to_owned(),
            "+inflicted%".to_owned(),
        ];
        headers.extend(self.costs.iter().map(|c| format!("+ints@{c}%")));
        let mut t = TextTable::new(headers);
        for r in &self.rows {
            let mut row = vec![
                r.workload.clone(),
                r.system.label().to_owned(),
                format!("{:.3}", r.base_cpi),
                format!("{:.1}", r.direct_pct),
                format!("{:.1}", r.with_inflicted_pct),
            ];
            row.extend(r.with_interrupts_pct.iter().map(|v| format!("{v:.1}")));
            t.row(row);
        }
        t.render()
    }

    /// CSV of all rows.
    pub fn to_csv(&self) -> String {
        let mut headers = vec![
            "workload".to_owned(),
            "system".to_owned(),
            "base_cpi".to_owned(),
            "direct_pct".to_owned(),
            "with_inflicted_pct".to_owned(),
        ];
        headers.extend(self.costs.iter().map(|c| format!("with_ints_{c}_pct")));
        let mut t = TextTable::new(headers);
        for r in &self.rows {
            let mut row = vec![
                r.workload.clone(),
                r.system.label().to_owned(),
                format!("{:.4}", r.base_cpi),
                format!("{:.3}", r.direct_pct),
                format!("{:.3}", r.with_inflicted_pct),
            ];
            row.extend(r.with_interrupts_pct.iter().map(|v| format!("{v:.3}")));
            t.row(row);
        }
        t.to_csv()
    }

    /// Checks the abstract's headline totals, on the VM-stressing
    /// workloads (the paper's gcc and vortex; ijpeg is the
    /// counterexample and is checked separately).
    pub fn claims(&self) -> Vec<Claim> {
        let mut claims = Vec::new();
        let stressed: Vec<&Row> = self
            .rows
            .iter()
            .filter(|r| r.workload != "ijpeg" && r.system != SystemKind::NoTlb)
            .collect();
        if !stressed.is_empty() {
            let mean = |f: &dyn Fn(&Row) -> f64| {
                stressed.iter().map(|r| f(r)).sum::<f64>() / stressed.len() as f64
            };
            let direct = mean(&|r: &Row| r.direct_pct);
            let inflicted = mean(&|r: &Row| r.with_inflicted_pct);
            claims.push(Claim::new(
                "including inflicted cache misses materially inflates the perceived VM overhead (paper: roughly 2x; see EXPERIMENTS.md)",
                inflicted > 1.25 * direct,
                format!("mean direct {direct:.1}% -> with inflicted {inflicted:.1}%"),
            ));
            let vortex: Vec<&&Row> = stressed.iter().filter(|r| r.workload == "vortex").collect();
            if !vortex.is_empty() {
                let vd = vortex.iter().map(|r| r.direct_pct).sum::<f64>() / vortex.len() as f64;
                let vi =
                    vortex.iter().map(|r| r.with_inflicted_pct).sum::<f64>() / vortex.len() as f64;
                claims.push(Claim::new(
                    "on the poor-locality workload (vortex) the inflation approaches the paper's 'roughly twice'",
                    vi > 1.45 * vd,
                    format!("vortex direct {vd:.1}% -> with inflicted {vi:.1}%"),
                ));
            }
            if let Some(hi) = self.costs.iter().position(|&c| c == 200) {
                let with_ints = mean(&|r: &Row| r.with_interrupts_pct[hi]);
                claims.push(Claim::new(
                    "with expensive interrupts the total is roughly three times the traditional view",
                    with_ints > 2.0 * direct,
                    format!("mean with 200-cycle interrupts {with_ints:.1}% vs direct {direct:.1}%"),
                ));
            }
        }
        let ijpeg: Vec<&Row> = self
            .rows
            .iter()
            .filter(|r| r.workload == "ijpeg" && r.system != SystemKind::NoTlb)
            .collect();
        if !ijpeg.is_empty() {
            let max = ijpeg.iter().map(|r| r.with_inflicted_pct).fold(0.0, f64::max);
            claims.push(Claim::new(
                "ijpeg is the counterexample: its total VM overhead stays small",
                max < 8.0,
                format!("max ijpeg overhead (with inflicted) {max:.1}%"),
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
            workloads: vec![presets::gcc_spec()],
            systems: vec![SystemKind::Ultrix],
            interrupt_costs: vec![10, 200],
            exec: ExecConfig { warmup: 20_000, measure: 100_000, jobs: 1 },
        }
    }

    #[test]
    fn views_are_ordered() {
        let r = run(&tiny());
        assert_eq!(r.rows.len(), 1);
        let row = &r.rows[0];
        assert!(row.direct_pct > 0.0);
        assert!(row.with_interrupts_pct[1] > row.with_interrupts_pct[0]);
        assert!(row.with_interrupts_pct[0] >= row.with_inflicted_pct);
    }

    #[test]
    fn base_cpi_exceeds_one() {
        let r = run(&tiny());
        assert!(r.rows[0].base_cpi > 1.0);
    }

    #[test]
    fn render_and_csv() {
        let r = run(&tiny());
        assert!(r.render().contains("+ints@200%"));
        assert_eq!(r.to_csv().lines().count(), 2);
    }
}

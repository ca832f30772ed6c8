//! Figure 10 (reconstructed): the cost of precise interrupts.
//!
//! Table 1 sweeps the interrupt cost over 10, 50 and 200 cycles — the
//! range from a short pipeline flush to a deep out-of-order machine's
//! reorder-buffer drain. The paper's abstract concludes that "interrupts
//! already account for a large portion of memory-management overhead and
//! can become a significant factor as processors execute more concurrent
//! instructions". Because the simulator records interrupt *counts*, one
//! simulation per (system, workload) prices all three costs.

use vm_core::cost::CostModel;
use vm_core::{paper, SimConfig, SystemKind};
use vm_explore::ExecConfig;
use vm_trace::WorkloadSpec;

use crate::claim::Claim;
use crate::runner::{run_jobs, Job, Outcome};
use crate::table::TextTable;

/// Parameter space for the interrupt-cost experiment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workloads to measure.
    pub workloads: Vec<WorkloadSpec>,
    /// Systems to measure.
    pub systems: Vec<SystemKind>,
    /// Interrupt costs to price (Table 1: 10/50/200).
    pub interrupt_costs: Vec<u64>,
    /// Run lengths and worker threads.
    pub exec: ExecConfig,
}

impl Config {
    /// The paper's space: all three benchmarks, the five VM systems, the
    /// three Table 1 interrupt costs, at the default cache geometry.
    pub fn paper(workloads: Vec<WorkloadSpec>) -> Config {
        Config {
            workloads,
            systems: SystemKind::VM_SYSTEMS.to_vec(),
            interrupt_costs: paper::INTERRUPT_COSTS.to_vec(),
            exec: ExecConfig::DEFAULT,
        }
    }
}

/// One measured row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Simulated system.
    pub system: SystemKind,
    /// VMCPI excluding interrupts.
    pub vmcpi: f64,
    /// Interrupts per 1000 user instructions.
    pub interrupts_per_kilo_instr: f64,
    /// Interrupt CPI at each swept cost, in sweep order.
    pub interrupt_cpi: Vec<f64>,
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
        for &system in &config.systems {
            jobs.push(Job::new(
                format!("{system}/{}", workload.name),
                SimConfig::paper_default(system),
                workload.clone(),
            ));
        }
    }
    let outcomes = run_jobs(jobs, &config.exec);
    let rows = outcomes
        .iter()
        .map(|o: &Outcome| {
            let base = CostModel::default();
            Row {
                workload: o.job.workload.name.clone(),
                system: o.job.config.system,
                vmcpi: o.report.vmcpi(&base).total(),
                interrupts_per_kilo_instr: o.report.interrupts_per_kilo_instr(),
                interrupt_cpi: config
                    .interrupt_costs
                    .iter()
                    .map(|&c| o.report.interrupt_cpi(&CostModel::paper(c)))
                    .collect(),
            }
        })
        .collect();
    Result { costs: config.interrupt_costs.clone(), rows }
}

impl Result {
    /// Renders the table: VMCPI and interrupt CPI at each cost, plus the
    /// interrupt share of total VM overhead.
    pub fn render(&self) -> String {
        let mut headers = vec![
            "workload".to_owned(),
            "system".to_owned(),
            "VMCPI".to_owned(),
            "ints/1k".to_owned(),
        ];
        for &c in &self.costs {
            headers.push(format!("int CPI@{c}"));
        }
        for &c in &self.costs {
            headers.push(format!("int share@{c}"));
        }
        let mut t = TextTable::new(headers);
        for r in &self.rows {
            let mut row = vec![
                r.workload.clone(),
                r.system.label().to_owned(),
                format!("{:.5}", r.vmcpi),
                format!("{:.3}", r.interrupts_per_kilo_instr),
            ];
            for v in &r.interrupt_cpi {
                row.push(format!("{v:.5}"));
            }
            for v in &r.interrupt_cpi {
                row.push(format!("{:.0}%", 100.0 * v / (v + r.vmcpi).max(1e-12)));
            }
            t.row(row);
        }
        t.render()
    }

    /// CSV of all rows.
    pub fn to_csv(&self) -> String {
        let mut headers = vec![
            "workload".to_owned(),
            "system".to_owned(),
            "vmcpi".to_owned(),
            "ints_per_kilo".to_owned(),
        ];
        for &c in &self.costs {
            headers.push(format!("int_cpi_{c}"));
        }
        let mut t = TextTable::new(headers);
        for r in &self.rows {
            let mut row = vec![
                r.workload.clone(),
                r.system.label().to_owned(),
                format!("{:.6}", r.vmcpi),
                format!("{:.4}", r.interrupts_per_kilo_instr),
            ];
            row.extend(r.interrupt_cpi.iter().map(|v| format!("{v:.6}")));
            t.row(row);
        }
        t.to_csv()
    }

    /// Checks the paper's interrupt findings.
    pub fn claims(&self) -> Vec<Claim> {
        let mut claims = Vec::new();
        let intel: Vec<&Row> = self.rows.iter().filter(|r| r.system == SystemKind::Intel).collect();
        if !intel.is_empty() {
            claims.push(Claim::new(
                "the hardware-managed TLB (INTEL) avoids the interrupt mechanism entirely",
                intel.iter().all(|r| r.interrupts_per_kilo_instr == 0.0),
                format!(
                    "INTEL interrupts/1k instr: {:?}",
                    intel.iter().map(|r| r.interrupts_per_kilo_instr).collect::<Vec<_>>()
                ),
            ));
        }
        // At 200 cycles, interrupts dominate software schemes' overhead.
        let idx_hi = self.costs.iter().position(|&c| c == 200);
        if let Some(i) = idx_hi {
            let sw: Vec<&Row> = self
                .rows
                .iter()
                .filter(|r| {
                    matches!(r.system, SystemKind::Ultrix | SystemKind::Mach | SystemKind::PaRisc)
                        && r.vmcpi > 1e-4
                })
                .collect();
            if !sw.is_empty() {
                let dominant = sw.iter().filter(|r| r.interrupt_cpi[i] > 0.5 * r.vmcpi).count();
                claims.push(Claim::new(
                    "at a 200-cycle interrupt cost, interrupt overhead rivals or exceeds half the software schemes' walking cost",
                    dominant * 2 >= sw.len(),
                    format!("{dominant}/{} software rows have int CPI > 0.5 x VMCPI", sw.len()),
                ));
            }
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
            systems: vec![SystemKind::Ultrix, SystemKind::Intel],
            exec: ExecConfig { warmup: 10_000, measure: 60_000, jobs: 1 },
            ..Config::paper(vec![])
        }
    }

    #[test]
    fn one_row_per_system_per_workload() {
        let r = run(&tiny());
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].interrupt_cpi.len(), 3);
    }

    #[test]
    fn interrupt_cpi_scales_linearly_with_cost() {
        let r = run(&tiny());
        let ultrix = r.rows.iter().find(|x| x.system == SystemKind::Ultrix).unwrap();
        let (c10, c50, c200) =
            (ultrix.interrupt_cpi[0], ultrix.interrupt_cpi[1], ultrix.interrupt_cpi[2]);
        assert!(c10 > 0.0);
        assert!((c50 / c10 - 5.0).abs() < 1e-9);
        assert!((c200 / c10 - 20.0).abs() < 1e-9);
    }

    #[test]
    fn intel_claim_holds() {
        let r = run(&tiny());
        let c = r.claims();
        assert!(c.iter().any(|c| c.statement.contains("INTEL") && c.holds));
    }

    #[test]
    fn render_and_csv_are_consistent() {
        let r = run(&tiny());
        assert!(r.render().contains("int CPI@200"));
        assert_eq!(r.to_csv().lines().count(), r.rows.len() + 1);
    }
}

//! Figures 8 and 9: VMCPI component break-downs at the best-performing
//! line sizes (64/128-byte L1/L2 lines).
//!
//! The paper shows, for each VM system, stacked bars of the eleven
//! Table 3 components against L1 cache size, with one bar per L2 size.
//! Figure 8 is gcc; Figure 9 is vortex.

use vm_core::cost::CostModel;
use vm_core::{paper, SimConfig, SystemKind, VmcpiBreakdown};
use vm_explore::ExecConfig;
use vm_trace::WorkloadSpec;

use crate::claim::Claim;
use crate::runner::{run_jobs, Job};
use crate::table::{size_label, TextTable};

/// Parameter space for a Figure 8/9 breakdown sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload (gcc for Figure 8, vortex for Figure 9).
    pub workload: WorkloadSpec,
    /// Systems to break down.
    pub systems: Vec<SystemKind>,
    /// L1 sizes per side.
    pub l1_sizes: Vec<u64>,
    /// L2 sizes per side.
    pub l2_sizes: Vec<u64>,
    /// Run lengths and worker threads.
    pub exec: ExecConfig,
}

impl Config {
    /// The paper's breakdown space: 64/128-byte lines fixed, all L1 and
    /// L2 sizes, all five VM systems.
    pub fn paper(workload: WorkloadSpec) -> Config {
        Config {
            workload,
            systems: SystemKind::VM_SYSTEMS.to_vec(),
            l1_sizes: paper::L1_SIZES.to_vec(),
            l2_sizes: paper::L2_SIZES.to_vec(),
            exec: ExecConfig::DEFAULT,
        }
    }

    /// A reduced space for smoke tests.
    pub fn quick(workload: WorkloadSpec) -> Config {
        Config {
            l1_sizes: vec![4 << 10, 32 << 10, 128 << 10],
            l2_sizes: vec![1 << 20],
            exec: ExecConfig::QUICK,
            ..Config::paper(workload)
        }
    }
}

/// One stacked bar: the component breakdown at a cache configuration.
#[derive(Debug, Clone)]
pub struct Bar {
    /// Simulated system.
    pub system: SystemKind,
    /// L1 size per side.
    pub l1: u64,
    /// L2 size per side.
    pub l2: u64,
    /// The Table 3 component values.
    pub breakdown: VmcpiBreakdown,
    /// Interrupts per 1000 user instructions (reported alongside,
    /// since the figures exclude interrupt cost).
    pub interrupts_per_kilo_instr: f64,
}

/// The measured figure.
#[derive(Debug, Clone)]
pub struct Result {
    /// Workload name.
    pub workload: String,
    /// All bars.
    pub bars: Vec<Bar>,
}

/// Runs the breakdown sweep.
pub fn run(config: &Config) -> Result {
    let mut jobs = Vec::new();
    for &system in &config.systems {
        for &l2 in &config.l2_sizes {
            for &l1 in &config.l1_sizes {
                let mut sim = SimConfig::paper_default(system);
                sim.l1_bytes = l1;
                sim.l1_line = 64;
                sim.l2_bytes = l2;
                sim.l2_line = 128;
                jobs.push(Job::new(
                    format!("{system}/{}/{}", size_label(l1), size_label(l2)),
                    sim,
                    config.workload.clone(),
                ));
            }
        }
    }
    let outcomes = run_jobs(jobs, &config.exec);
    let cost = CostModel::default();
    let bars = outcomes
        .iter()
        .map(|o| Bar {
            system: o.job.config.system,
            l1: o.job.config.l1_bytes,
            l2: o.job.config.l2_bytes,
            breakdown: o.report.vmcpi(&cost),
            interrupts_per_kilo_instr: o.report.interrupts_per_kilo_instr(),
        })
        .collect();
    Result { workload: config.workload.name.clone(), bars }
}

impl Result {
    /// Renders one table per system: rows are the Table 3 components,
    /// columns are (L1, L2) pairs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut systems: Vec<SystemKind> = self.bars.iter().map(|b| b.system).collect();
        systems.dedup();
        for &system in &systems {
            let bars: Vec<&Bar> = self.bars.iter().filter(|b| b.system == system).collect();
            out.push_str(&format!(
                "\n{} — {} (64/128-byte L1/L2 lines): VMCPI components\n",
                system, self.workload
            ));
            let mut headers = vec!["component".to_owned()];
            headers.extend(
                bars.iter().map(|b| format!("{}/{}", size_label(b.l1), size_label(2 * b.l2))),
            );
            let mut table = TextTable::new(headers);
            for i in 0..11 {
                let name = bars[0].breakdown.components()[i].0;
                let mut row = vec![name.to_owned()];
                row.extend(bars.iter().map(|b| format!("{:.5}", b.breakdown.components()[i].1)));
                table.row(row);
            }
            let mut total = vec!["TOTAL".to_owned()];
            total.extend(bars.iter().map(|b| format!("{:.5}", b.breakdown.total())));
            table.row(total);
            let mut ints = vec!["(interrupts/1k instr)".to_owned()];
            ints.extend(bars.iter().map(|b| format!("{:.3}", b.interrupts_per_kilo_instr)));
            table.row(ints);
            out.push_str(&table.render());
        }
        out
    }

    /// CSV of all components of all bars.
    pub fn to_csv(&self) -> String {
        let mut t = TextTable::new(["workload", "system", "l1", "l2", "component", "cpi"]);
        for b in &self.bars {
            for (name, value) in b.breakdown.components() {
                t.row([
                    self.workload.clone(),
                    b.system.label().to_owned(),
                    b.l1.to_string(),
                    b.l2.to_string(),
                    name.to_owned(),
                    format!("{value:.6}"),
                ]);
            }
        }
        t.to_csv()
    }

    fn bars_of(&self, system: SystemKind) -> Vec<&Bar> {
        self.bars.iter().filter(|b| b.system == system).collect()
    }

    /// Checks the paper's Section 4.2 observations.
    pub fn claims(&self) -> Vec<Claim> {
        let mut claims = Vec::new();
        let have = |s: SystemKind| self.bars.iter().any(|b| b.system == s);

        // INTEL: no interrupts, no handler I-cache traffic, but visible
        // root-level (page-directory) components.
        if have(SystemKind::Intel) {
            let bars = self.bars_of(SystemKind::Intel);
            let no_int = bars.iter().all(|b| b.interrupts_per_kilo_instr == 0.0);
            let no_icache = bars
                .iter()
                .all(|b| b.breakdown.handler_l2 == 0.0 && b.breakdown.handler_mem == 0.0);
            claims.push(Claim::new(
                "INTEL takes no interrupts and its walker never touches the I-caches",
                no_int && no_icache,
                format!("interrupts=0: {no_int}, handler I-fetch components=0: {no_icache}"),
            ));
            let rpte_visible = bars.iter().any(|b| {
                b.breakdown.rpte_l2 + b.breakdown.rpte_mem > 0.2 * b.breakdown.total() / 11.0
            });
            claims.push(Claim::new(
                "INTEL shows a noticeable root-level PTE component (the directory is walked on every miss)",
                rpte_visible,
                format!(
                    "max rpte share {:.3}",
                    bars.iter()
                        .map(|b| (b.breakdown.rpte_l2 + b.breakdown.rpte_mem)
                            / b.breakdown.total().max(1e-12))
                        .fold(0.0, f64::max)
                ),
            ));
        }

        // uhandler constant over cache organization for TLB schemes,
        // decreasing with L2 size for NOTLB.
        for system in [SystemKind::Ultrix, SystemKind::PaRisc] {
            if !have(system) {
                continue;
            }
            let bars = self.bars_of(system);
            let uh: Vec<f64> = bars.iter().map(|b| b.breakdown.uhandler).collect();
            let (min, max) = (
                uh.iter().cloned().fold(f64::MAX, f64::min),
                uh.iter().cloned().fold(0.0, f64::max),
            );
            claims.push(Claim::new(
                format!(
                    "{system}: uhandler cost is constant across cache organizations (TLB-driven)"
                ),
                max < 1.5 * min.max(1e-12),
                format!("uhandler range {min:.5}..{max:.5}"),
            ));
        }
        if have(SystemKind::NoTlb) {
            let bars = self.bars_of(SystemKind::NoTlb);
            let mut l2s: Vec<u64> = bars.iter().map(|b| b.l2).collect();
            l2s.sort_unstable();
            l2s.dedup();
            if l2s.len() >= 2 {
                let mean_uh = |l2: u64| {
                    let v: Vec<f64> =
                        bars.iter().filter(|b| b.l2 == l2).map(|b| b.breakdown.uhandler).collect();
                    v.iter().sum::<f64>() / v.len() as f64
                };
                let small = mean_uh(l2s[0]);
                let large = mean_uh(*l2s.last().unwrap());
                claims.push(Claim::new(
                    "NOTLB: uhandler cost decreases with L2 size (handlers run on L2 misses)",
                    large < small,
                    format!(
                        "uhandler at {}: {small:.5}, at {}: {large:.5}",
                        size_label(l2s[0]),
                        size_label(*l2s.last().unwrap())
                    ),
                ));
            }
        }

        // MACH vs ULTRIX: the difference is confined to the kernel/root
        // components (the administrative activity).
        if have(SystemKind::Mach) && have(SystemKind::Ultrix) {
            let m: f64 = self
                .bars_of(SystemKind::Mach)
                .iter()
                .map(|b| {
                    b.breakdown.khandler
                        + b.breakdown.kpte_l2
                        + b.breakdown.kpte_mem
                        + b.breakdown.rhandler
                        + b.breakdown.rpte_l2
                        + b.breakdown.rpte_mem
                })
                .sum();
            let mu: f64 = self
                .bars_of(SystemKind::Mach)
                .iter()
                .map(|b| b.breakdown.uhandler + b.breakdown.upte_l2 + b.breakdown.upte_mem)
                .sum();
            let uu: f64 = self
                .bars_of(SystemKind::Ultrix)
                .iter()
                .map(|b| b.breakdown.uhandler + b.breakdown.upte_l2 + b.breakdown.upte_mem)
                .sum();
            claims.push(Claim::new(
                "MACH and ULTRIX match on user-level components; MACH adds kernel/root overhead",
                (mu - uu).abs() / uu.max(1e-12) < 0.25 && m > 0.0,
                format!("user-level sums: MACH {mu:.4} vs ULTRIX {uu:.4}; MACH k+r extra {m:.4}"),
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
            systems: vec![SystemKind::Ultrix, SystemKind::Intel],
            l1_sizes: vec![8 << 10],
            l2_sizes: vec![512 << 10],
            exec: ExecConfig { warmup: 5_000, measure: 30_000, jobs: 1 },
            ..Config::paper(presets::gcc_spec())
        }
    }

    #[test]
    fn produces_a_bar_per_config() {
        let r = run(&tiny());
        assert_eq!(r.bars.len(), 2);
    }

    #[test]
    fn render_lists_all_components() {
        let r = run(&tiny());
        let text = r.render();
        for name in ["uhandler", "upte-MEM", "rpte-L2", "handler-MEM", "TOTAL"] {
            assert!(text.contains(name), "missing {name}");
        }
    }

    #[test]
    fn intel_claims_hold_even_on_tiny_runs() {
        let r = run(&tiny());
        let claims = r.claims();
        let intel_claim = claims
            .iter()
            .find(|c| c.statement.contains("INTEL takes no interrupts"))
            .expect("claim present");
        assert!(intel_claim.holds, "{intel_claim}");
    }

    #[test]
    fn csv_is_component_granular() {
        let r = run(&tiny());
        assert_eq!(r.to_csv().lines().count(), r.bars.len() * 11 + 1);
    }
}

//! Figures 6 and 7: VMCPI as a function of L1/L2 cache size and line
//! size, per VM organization.
//!
//! The paper plots, for each of the five VM systems, VMCPI against L1
//! cache size (1–128 KB per side) with one curve per L1/L2 line-size
//! pair, in three panels for 1, 2 and 4 MB total L2. Figure 6 is gcc;
//! Figure 7 is vortex (run this module with the vortex workload).

use vm_core::cost::CostModel;
use vm_core::{paper, SimConfig, SystemKind};
use vm_explore::ExecConfig;
use vm_trace::WorkloadSpec;

use crate::chart::{AsciiChart, Series};
use crate::claim::Claim;
use crate::runner::{run_jobs, Job, Outcome};
use crate::table::{size_label, TextTable};

/// Parameter space for a Figure 6/7 sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload (gcc for Figure 6, vortex for Figure 7).
    pub workload: WorkloadSpec,
    /// Systems to sweep (default: the five VM systems).
    pub systems: Vec<SystemKind>,
    /// L1 sizes per side.
    pub l1_sizes: Vec<u64>,
    /// `(l1_line, l2_line)` pairs — the paper's curves.
    pub line_pairs: Vec<(u64, u64)>,
    /// L2 sizes per side.
    pub l2_sizes: Vec<u64>,
    /// Run lengths and worker threads.
    pub exec: ExecConfig,
}

impl Config {
    /// The paper's sweep for the given workload: all eight L1 sizes,
    /// four representative line pairs, all three L2 sizes.
    pub fn paper(workload: WorkloadSpec) -> Config {
        Config {
            workload,
            systems: SystemKind::VM_SYSTEMS.to_vec(),
            l1_sizes: paper::L1_SIZES.to_vec(),
            line_pairs: vec![(16, 32), (32, 64), (64, 128), (128, 128)],
            l2_sizes: paper::L2_SIZES.to_vec(),
            exec: ExecConfig::DEFAULT,
        }
    }

    /// A reduced sweep for smoke tests: four L1 sizes, two line pairs,
    /// two L2 sizes.
    pub fn quick(workload: WorkloadSpec) -> Config {
        Config {
            l1_sizes: vec![4 << 10, 16 << 10, 64 << 10, 128 << 10],
            line_pairs: vec![(32, 64), (64, 128)],
            l2_sizes: vec![512 << 10, 2 << 20],
            exec: ExecConfig::QUICK,
            ..Config::paper(workload)
        }
    }
}

/// One measured point of the figure.
#[derive(Debug, Clone)]
pub struct Point {
    /// Simulated system.
    pub system: SystemKind,
    /// L1 size per side.
    pub l1: u64,
    /// L1 line size.
    pub l1_line: u64,
    /// L2 size per side.
    pub l2: u64,
    /// L2 line size.
    pub l2_line: u64,
    /// Measured VMCPI (interrupt cost excluded, as in the figures).
    pub vmcpi: f64,
}

/// The full figure: points over the swept space.
#[derive(Debug, Clone)]
pub struct Result {
    /// Workload name.
    pub workload: String,
    /// All measured points.
    pub points: Vec<Point>,
}

/// Runs the sweep.
pub fn run(config: &Config) -> Result {
    let mut jobs = Vec::new();
    for &system in &config.systems {
        for &l2 in &config.l2_sizes {
            for &(l1_line, l2_line) in &config.line_pairs {
                for &l1 in &config.l1_sizes {
                    let mut sim = SimConfig::paper_default(system);
                    sim.l1_bytes = l1;
                    sim.l1_line = l1_line;
                    sim.l2_bytes = l2;
                    sim.l2_line = l2_line;
                    jobs.push(Job::new(
                        format!("{system}/{}/{}", size_label(l1), size_label(l2)),
                        sim,
                        config.workload.clone(),
                    ));
                }
            }
        }
    }
    let outcomes = run_jobs(jobs, &config.exec);
    let cost = CostModel::default();
    let points = outcomes
        .iter()
        .map(|o: &Outcome| Point {
            system: o.job.config.system,
            l1: o.job.config.l1_bytes,
            l1_line: o.job.config.l1_line,
            l2: o.job.config.l2_bytes,
            l2_line: o.job.config.l2_line,
            vmcpi: o.report.vmcpi(&cost).total(),
        })
        .collect();
    Result { workload: config.workload.name.clone(), points }
}

impl Result {
    /// Renders one table per (system, L2 size): rows are line pairs,
    /// columns are L1 sizes — the figure's curves as numbers.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut systems: Vec<SystemKind> = self.points.iter().map(|p| p.system).collect();
        systems.dedup();
        let mut l2s: Vec<u64> = self.points.iter().map(|p| p.l2).collect();
        l2s.sort_unstable();
        l2s.dedup();
        let mut l1s: Vec<u64> = self.points.iter().map(|p| p.l1).collect();
        l1s.sort_unstable();
        l1s.dedup();
        let mut pairs: Vec<(u64, u64)> =
            self.points.iter().map(|p| (p.l1_line, p.l2_line)).collect();
        pairs.sort_unstable();
        pairs.dedup();

        for &system in &systems {
            for &l2 in &l2s {
                out.push_str(&format!(
                    "\n{} — {} ({} total L2, split I/D): VMCPI\n",
                    system,
                    self.workload,
                    size_label(2 * l2)
                ));
                let mut headers = vec!["lines L1/L2".to_owned()];
                headers.extend(l1s.iter().map(|&s| format!("L1={}", size_label(s))));
                let mut table = TextTable::new(headers);
                for &(a, b) in &pairs {
                    let mut row = vec![format!("{a}/{b}")];
                    for &l1 in &l1s {
                        let v = self
                            .points
                            .iter()
                            .find(|p| {
                                p.system == system
                                    && p.l2 == l2
                                    && p.l1 == l1
                                    && (p.l1_line, p.l2_line) == (a, b)
                            })
                            .map(|p| format!("{:.5}", p.vmcpi))
                            .unwrap_or_default();
                        row.push(v);
                    }
                    table.row(row);
                }
                out.push_str(&table.render());
                // The same panel as an ASCII chart, one curve per line pair.
                let series: Vec<Series> = pairs
                    .iter()
                    .map(|&(a, b)| Series {
                        name: format!("{a}/{b}"),
                        values: l1s
                            .iter()
                            .map(|&l1| {
                                self.points
                                    .iter()
                                    .find(|p| {
                                        p.system == system
                                            && p.l2 == l2
                                            && p.l1 == l1
                                            && (p.l1_line, p.l2_line) == (a, b)
                                    })
                                    .map(|p| p.vmcpi)
                                    .unwrap_or(f64::NAN)
                            })
                            .collect(),
                    })
                    .collect();
                let labels: Vec<String> = l1s.iter().map(|&s| size_label(s)).collect();
                out.push_str(&AsciiChart::new(labels, series, 56, 10).render());
            }
        }
        out
    }

    /// CSV of all points.
    pub fn to_csv(&self) -> String {
        let mut t =
            TextTable::new(["workload", "system", "l1", "l1_line", "l2", "l2_line", "vmcpi"]);
        for p in &self.points {
            t.row([
                self.workload.clone(),
                p.system.label().to_owned(),
                p.l1.to_string(),
                p.l1_line.to_string(),
                p.l2.to_string(),
                p.l2_line.to_string(),
                format!("{:.6}", p.vmcpi),
            ]);
        }
        t.to_csv()
    }

    fn mean_vmcpi(&self, system: SystemKind) -> f64 {
        let vs: Vec<f64> =
            self.points.iter().filter(|p| p.system == system).map(|p| p.vmcpi).collect();
        vs.iter().sum::<f64>() / vs.len().max(1) as f64
    }

    /// Sensitivity of a system to the cache organization: max/min VMCPI
    /// over the swept space.
    fn sensitivity(&self, system: SystemKind) -> f64 {
        let vs: Vec<f64> =
            self.points.iter().filter(|p| p.system == system).map(|p| p.vmcpi).collect();
        let max = vs.iter().cloned().fold(f64::MIN, f64::max);
        let min = vs.iter().cloned().fold(f64::MAX, f64::min);
        if min > 0.0 {
            max / min
        } else {
            f64::INFINITY
        }
    }

    /// Checks the paper's Section 4.1 findings against this sweep.
    pub fn claims(&self) -> Vec<Claim> {
        let mut claims = Vec::new();
        let have = |s: SystemKind| self.points.iter().any(|p| p.system == s);

        if have(SystemKind::Ultrix) && have(SystemKind::Mach) {
            let (u, m) = (self.mean_vmcpi(SystemKind::Ultrix), self.mean_vmcpi(SystemKind::Mach));
            claims.push(Claim::new(
                "ULTRIX and MACH have surprisingly similar overheads despite MACH's costly root level",
                (m - u).abs() / u.max(1e-12) < 0.35 && m >= u * 0.9,
                format!("mean VMCPI: ULTRIX {u:.4}, MACH {m:.4}"),
            ));
        }
        if have(SystemKind::NoTlb) && have(SystemKind::Ultrix) {
            let (n, u) =
                (self.sensitivity(SystemKind::NoTlb), self.sensitivity(SystemKind::Ultrix));
            claims.push(Claim::new(
                "NOTLB is much more sensitive to cache organization than TLB-based schemes",
                n > 1.5 * u,
                format!("max/min VMCPI over sweep: NOTLB {n:.1}x, ULTRIX {u:.1}x"),
            ));
        }
        if have(SystemKind::NoTlb) {
            // "does about as well as the other schemes, once the L2 cache is
            // large enough (2MB+ total) and L2 linesize >= 64 bytes"
            let best_cfg: Vec<&Point> = self
                .points
                .iter()
                .filter(|p| {
                    p.system == SystemKind::NoTlb && 2 * p.l2 >= (2 << 20) && p.l2_line >= 64
                })
                .collect();
            let others_best: f64 = SystemKind::VM_SYSTEMS
                .iter()
                .filter(|&&s| s != SystemKind::NoTlb && have(s))
                .map(|&s| self.mean_vmcpi(s))
                .fold(f64::MAX, f64::min);
            if !best_cfg.is_empty() {
                let notlb_best =
                    best_cfg.iter().map(|p| p.vmcpi).sum::<f64>() / best_cfg.len() as f64;
                claims.push(Claim::new(
                    "with a large L2 and >=64-byte L2 lines, NOTLB is competitive (within ~4x of the best TLB scheme)",
                    notlb_best < 4.0 * others_best,
                    format!("NOTLB large-L2 mean {notlb_best:.4} vs best TLB-scheme mean {others_best:.4}"),
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

    fn tiny_config() -> Config {
        Config {
            l1_sizes: vec![4 << 10, 64 << 10],
            line_pairs: vec![(32, 64)],
            l2_sizes: vec![512 << 10],
            exec: ExecConfig { warmup: 5_000, measure: 20_000, jobs: 1 },
            systems: vec![SystemKind::Ultrix, SystemKind::NoTlb],
            ..Config::paper(presets::ijpeg_spec())
        }
    }

    #[test]
    fn sweep_produces_full_grid() {
        let r = run(&tiny_config());
        assert_eq!(r.points.len(), 2 * 2); // 2 systems x 2 L1 sizes
        assert!(r.points.iter().all(|p| p.vmcpi >= 0.0));
    }

    #[test]
    fn render_mentions_each_system_and_size() {
        let r = run(&tiny_config());
        let text = r.render();
        assert!(text.contains("ULTRIX"));
        assert!(text.contains("NOTLB"));
        assert!(text.contains("L1=4K"));
        assert!(text.contains("L1=64K"));
        assert!(text.contains("1M total L2"));
    }

    #[test]
    fn csv_has_a_line_per_point_plus_header() {
        let r = run(&tiny_config());
        assert_eq!(r.to_csv().lines().count(), r.points.len() + 1);
    }

    #[test]
    fn quick_config_is_smaller_than_paper() {
        let q = Config::quick(presets::gcc_spec());
        let p = Config::paper(presets::gcc_spec());
        assert!(q.l1_sizes.len() < p.l1_sizes.len());
        assert!(q.exec.measure < p.exec.measure);
    }
}

//! The Section 4.2 interpolations and other design ablations.
//!
//! After presenting the five systems, the paper invites the reader to
//! "interpolate for the costs of other VM organizations, such as an
//! inverted page table with a hardware-managed TLB [PowerPC, PA-7200], a
//! MIPS-style page table with a hardware-managed TLB, or a system with
//! no TLB but a hardware-walked page table". These ablations build those
//! systems instead of interpolating, and additionally vary the design
//! knobs the paper held fixed (cache associativity, TLB replacement).

use vm_cache::Associativity;
use vm_core::cost::CostModel;
use vm_core::{SimConfig, SystemKind};
use vm_explore::ExecConfig;
use vm_tlb::Replacement;
use vm_trace::WorkloadSpec;

use crate::claim::Claim;
use crate::runner::{run_jobs, Job, Outcome};
use crate::table::TextTable;

/// Which ablation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ablation {
    /// `abl-hybrid`: hardware-managed TLB over the hashed/inverted table
    /// (PowerPC / PA-7200) against its software parent and INTEL.
    Hybrid,
    /// `abl-walkmode`: the same MIPS-style table walked by software
    /// vs. by a hardware state machine, next to INTEL's top-down walk.
    WalkMode,
    /// `abl-assoc`: cache associativity (the paper fixed direct-mapped
    /// "to avoid obscuring performance differences").
    Associativity,
    /// `abl-tlb`: TLB replacement policy and the protected partition
    /// (the paper fixed random replacement and 16 protected slots).
    TlbPolicy,
    /// `abl-ctx`: context-switch pressure — flush the TLBs every N
    /// instructions, the multiprogramming effect the paper's
    /// single-process traces exclude.
    ContextSwitch,
    /// `abl-unified`: split vs unified L2 at equal total capacity — the
    /// comparison Table 1 sets aside ("unified caches, while giving
    /// better performance, would add too many variables").
    UnifiedL2,
}

impl Ablation {
    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Ablation::Hybrid => "abl-hybrid",
            Ablation::WalkMode => "abl-walkmode",
            Ablation::Associativity => "abl-assoc",
            Ablation::TlbPolicy => "abl-tlb",
            Ablation::ContextSwitch => "abl-ctx",
            Ablation::UnifiedL2 => "abl-unified",
        }
    }

    /// One-line description for `--help` (via the experiment registry).
    pub fn describe(self) -> &'static str {
        match self {
            Ablation::Hybrid => "hardware TLB over the hashed/inverted table (PowerPC, PA-7200)",
            Ablation::WalkMode => "MIPS-style table walked by software vs a hardware state machine",
            Ablation::Associativity => "cache associativity (the paper fixed direct-mapped)",
            Ablation::TlbPolicy => "TLB replacement policy and the protected partition",
            Ablation::ContextSwitch => {
                "context-switch pressure: flush the TLBs every N instructions"
            }
            Ablation::UnifiedL2 => "split vs unified L2 at equal total capacity",
        }
    }

    /// All ablations.
    pub const ALL: [Ablation; 6] = [
        Ablation::Hybrid,
        Ablation::WalkMode,
        Ablation::Associativity,
        Ablation::TlbPolicy,
        Ablation::ContextSwitch,
        Ablation::UnifiedL2,
    ];
}

/// Configuration for an ablation run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which ablation.
    pub ablation: Ablation,
    /// Workloads to measure.
    pub workloads: Vec<WorkloadSpec>,
    /// Run lengths and worker threads.
    pub exec: ExecConfig,
}

impl Config {
    /// Default configuration for an ablation.
    pub fn new(ablation: Ablation, workloads: Vec<WorkloadSpec>) -> Config {
        Config { ablation, workloads, exec: ExecConfig::DEFAULT }
    }
}

/// One measured variant.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Variant label (system or knob setting).
    pub variant: String,
    /// VMCPI excluding interrupts.
    pub vmcpi: f64,
    /// Interrupt CPI at the default 50-cycle cost.
    pub interrupt_cpi: f64,
    /// MCPI (user references).
    pub mcpi: f64,
    /// Mean PTE loads per user-level walk (0 when no walks ran).
    pub pte_loads_per_walk: f64,
}

/// The measured ablation.
#[derive(Debug, Clone)]
pub struct Result {
    /// Which ablation ran.
    pub ablation: Ablation,
    /// All rows.
    pub rows: Vec<Row>,
}

fn job(label: &str, config: SimConfig, workload: &WorkloadSpec) -> Job {
    Job::new(label, config, workload.clone())
}

/// Runs the chosen ablation.
pub fn run(config: &Config) -> Result {
    let mut jobs = Vec::new();
    for w in &config.workloads {
        match config.ablation {
            Ablation::Hybrid => {
                for system in [
                    SystemKind::InvertedHat,
                    SystemKind::PaRisc,
                    SystemKind::Hybrid,
                    SystemKind::Intel,
                ] {
                    jobs.push(job(system.label(), SimConfig::paper_default(system), w));
                }
            }
            Ablation::WalkMode => {
                for system in [
                    SystemKind::Ultrix,
                    SystemKind::UltrixHw,
                    SystemKind::Intel,
                    SystemKind::NoTlb,
                    SystemKind::NoTlbHw,
                ] {
                    jobs.push(job(system.label(), SimConfig::paper_default(system), w));
                }
            }
            Ablation::Associativity => {
                for (label, assoc) in [
                    ("direct-mapped", Associativity::DirectMapped),
                    ("2-way", Associativity::Ways(2)),
                    ("4-way", Associativity::Ways(4)),
                ] {
                    let mut sim = SimConfig::paper_default(SystemKind::Ultrix);
                    sim.associativity = assoc;
                    jobs.push(job(label, sim, w));
                }
            }
            Ablation::TlbPolicy => {
                for (label, policy) in [
                    ("random", Replacement::Random),
                    ("LRU", Replacement::Lru),
                    ("FIFO", Replacement::Fifo),
                ] {
                    let mut sim = SimConfig::paper_default(SystemKind::Ultrix);
                    sim.tlb_replacement = policy;
                    jobs.push(job(label, sim, w));
                }
                // The partition ablation: give ULTRIX no protected slots,
                // so root-level PTEs fight user entries for residency.
                let mut sim = SimConfig::paper_default(SystemKind::Ultrix);
                sim.tlb_protected = Some(0);
                jobs.push(job("unpartitioned", sim, w));
            }
            Ablation::UnifiedL2 => {
                for system in [SystemKind::Ultrix, SystemKind::NoTlb] {
                    for (suffix, unified) in [("split", false), ("unified", true)] {
                        let mut sim = SimConfig::paper_default(system);
                        sim.unified_l2 = unified;
                        jobs.push(job(&format!("{}-{suffix}", system.label()), sim, w));
                    }
                }
            }
            Ablation::ContextSwitch => {
                for (label, every) in [
                    ("no-switches", None),
                    ("every-1M", Some(1_000_000)),
                    ("every-100k", Some(100_000)),
                    ("every-10k", Some(10_000)),
                ] {
                    let mut sim = SimConfig::paper_default(SystemKind::Ultrix);
                    sim.flush_tlb_every = every;
                    jobs.push(job(label, sim, w));
                }
            }
        }
    }
    let outcomes = run_jobs(jobs, &config.exec);
    let cost = CostModel::default();
    let rows = outcomes
        .iter()
        .map(|o: &Outcome| Row {
            workload: o.job.workload.name.clone(),
            variant: o.job.label.clone(),
            vmcpi: o.report.vmcpi(&cost).total(),
            interrupt_cpi: o.report.interrupt_cpi(&cost),
            mcpi: o.report.mcpi(&cost).total(),
            pte_loads_per_walk: {
                let walks = o.report.counts.handler_invocations[0];
                if walks == 0 {
                    0.0
                } else {
                    o.report.counts.pte_loads.iter().sum::<u64>() as f64 / walks as f64
                }
            },
        })
        .collect();
    Result { ablation: config.ablation, rows }
}

impl Result {
    /// Renders the comparison table.
    pub fn render(&self) -> String {
        let mut t =
            TextTable::new(["workload", "variant", "VMCPI", "int CPI@50", "VM total", "MCPI"]);
        for r in &self.rows {
            t.row([
                r.workload.clone(),
                r.variant.clone(),
                format!("{:.5}", r.vmcpi),
                format!("{:.5}", r.interrupt_cpi),
                format!("{:.5}", r.vmcpi + r.interrupt_cpi),
                format!("{:.4}", r.mcpi),
            ]);
        }
        format!("{}\n{}", self.ablation.name(), t.render())
    }

    /// CSV of all rows.
    pub fn to_csv(&self) -> String {
        let mut t = TextTable::new(["workload", "variant", "vmcpi", "interrupt_cpi", "mcpi"]);
        for r in &self.rows {
            t.row([
                r.workload.clone(),
                r.variant.clone(),
                format!("{:.6}", r.vmcpi),
                format!("{:.6}", r.interrupt_cpi),
                format!("{:.6}", r.mcpi),
            ]);
        }
        t.to_csv()
    }

    fn mean_total(&self, variant: &str) -> Option<f64> {
        crate::claim::mean_of(
            self.rows.iter().filter(|r| r.variant == variant).map(|r| r.vmcpi + r.interrupt_cpi),
        )
    }

    /// Checks the expectation attached to each ablation.
    pub fn claims(&self) -> Vec<Claim> {
        let mut claims = Vec::new();
        match self.ablation {
            Ablation::Hybrid => {
                if let (Some(hybrid), Some(parisc)) =
                    (self.mean_total("HYBRID"), self.mean_total("PA-RISC"))
                {
                    claims.push(Claim::new(
                        "the hardware-walked inverted table (PowerPC/PA-7200 style) beats its software-walked parent",
                        hybrid < parisc,
                        format!("VM total: HYBRID {hybrid:.5} vs PA-RISC {parisc:.5}"),
                    ));
                }
                // Figure 4's claim is about the lookup *algorithm*: the
                // hashed table "eliminat[es] one memory reference". The
                // cache-weighted totals can still favour the classical
                // table (its 1:1 sizing halves the table's cache
                // footprint) — both facts are reported.
                let loads_of = |variant: &str| {
                    crate::claim::mean_of(
                        self.rows
                            .iter()
                            .filter(|r| r.variant == variant)
                            .map(|r| r.pte_loads_per_walk),
                    )
                };
                if let (Some(classical), Some(hashed)) = (loads_of("INV-HAT"), loads_of("PA-RISC"))
                {
                    claims.push(Claim::new(
                        "the hashed table eliminates roughly one memory reference per walk vs the classical+HAT design",
                        classical > hashed + 0.7,
                        format!("PTE loads per walk: classical+HAT {classical:.2} vs hashed {hashed:.2}"),
                    ));
                }
            }
            Ablation::WalkMode => {
                if let (Some(hw), Some(sw)) =
                    (self.mean_total("ULTRIX-HW"), self.mean_total("ULTRIX"))
                {
                    claims.push(Claim::new(
                        "hardware-walking the MIPS-style table removes the interrupt and I-cache costs",
                        hw < sw,
                        format!("VM total: ULTRIX-HW {hw:.5} vs ULTRIX {sw:.5}"),
                    ));
                }
                if let (Some(hw), Some(sw)) =
                    (self.mean_total("NOTLB-HW"), self.mean_total("NOTLB"))
                {
                    claims.push(Claim::new(
                        "a SPUR-like hardware walker rescues the TLB-less design from its interrupt costs",
                        hw < 0.7 * sw,
                        format!("VM total: NOTLB-HW {hw:.5} vs NOTLB {sw:.5}"),
                    ));
                }
            }
            Ablation::Associativity => {
                let dm: Vec<f64> = self
                    .rows
                    .iter()
                    .filter(|r| r.variant == "direct-mapped")
                    .map(|r| r.mcpi)
                    .collect();
                let w4: Vec<f64> =
                    self.rows.iter().filter(|r| r.variant == "4-way").map(|r| r.mcpi).collect();
                if !dm.is_empty() && !w4.is_empty() {
                    let (dm, w4) = (
                        dm.iter().sum::<f64>() / dm.len() as f64,
                        w4.iter().sum::<f64>() / w4.len() as f64,
                    );
                    claims.push(Claim::new(
                        "set associativity improves cache behaviour (the paper's reason for fixing DM was clarity, not performance)",
                        w4 < dm,
                        format!("MCPI: direct-mapped {dm:.4} vs 4-way {w4:.4}"),
                    ));
                }
            }
            Ablation::TlbPolicy => {
                if let (Some(rand), Some(lru)) = (self.mean_total("random"), self.mean_total("LRU"))
                {
                    claims.push(Claim::new(
                        "TLB replacement policy is a second-order effect (random within 2x of LRU)",
                        rand < 2.0 * lru && lru < 2.0 * rand,
                        format!("VM total: random {rand:.5} vs LRU {lru:.5}"),
                    ));
                }
                if let (Some(part), Some(flat)) =
                    (self.mean_total("random"), self.mean_total("unpartitioned"))
                {
                    claims.push(Claim::new(
                        "removing the protected partition does not help (root PTEs must fight user traffic)",
                        flat > 0.9 * part,
                        format!("VM total: partitioned {part:.5} vs unpartitioned {flat:.5}"),
                    ));
                }
            }
            Ablation::UnifiedL2 => {
                for sys in ["ULTRIX", "NOTLB"] {
                    if let (Some(split), Some(unified)) = (
                        self.mean_total(&format!("{sys}-split")),
                        self.mean_total(&format!("{sys}-unified")),
                    ) {
                        claims.push(Claim::new(
                            format!("{sys}: a unified L2 of equal total capacity performs at least comparably (Table 1's set-aside)"),
                            unified < 1.25 * split,
                            format!("VM total: split {split:.5} vs unified {unified:.5}"),
                        ));
                    }
                }
            }
            Ablation::ContextSwitch => {
                if let (Some(none), Some(hot)) =
                    (self.mean_total("no-switches"), self.mean_total("every-10k"))
                {
                    claims.push(Claim::new(
                        "frequent context switches multiply software-managed-TLB overhead",
                        hot > 1.5 * none,
                        format!("VM total: no switches {none:.5} vs every 10k instrs {hot:.5}"),
                    ));
                }
            }
        }
        claims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm_trace::presets;

    fn tiny(ablation: Ablation) -> Config {
        Config {
            ablation,
            workloads: vec![presets::gcc_spec()],
            exec: ExecConfig { warmup: 20_000, measure: 80_000, jobs: 1 },
        }
    }

    #[test]
    fn hybrid_ablation_runs_four_variants() {
        let r = run(&tiny(Ablation::Hybrid));
        let variants: Vec<&str> = r.rows.iter().map(|x| x.variant.as_str()).collect();
        assert_eq!(variants, ["INV-HAT", "PA-RISC", "HYBRID", "INTEL"]);
        // The hybrid never interrupts; the software tables do.
        let hybrid = r.rows.iter().find(|x| x.variant == "HYBRID").unwrap();
        assert_eq!(hybrid.interrupt_cpi, 0.0);
        let classical = r.rows.iter().find(|x| x.variant == "INV-HAT").unwrap();
        assert!(classical.interrupt_cpi > 0.0);
    }

    #[test]
    fn walkmode_hw_beats_sw() {
        let r = run(&tiny(Ablation::WalkMode));
        let claims = r.claims();
        assert!(!claims.is_empty());
        assert!(claims[0].holds, "{}", claims[0]);
    }

    #[test]
    fn assoc_ablation_uses_all_three_geometries() {
        let r = run(&tiny(Ablation::Associativity));
        assert_eq!(r.rows.len(), 3);
        assert!(r.render().contains("4-way"));
    }

    #[test]
    fn tlb_policy_rows_have_distinct_labels() {
        let r = run(&tiny(Ablation::TlbPolicy));
        let mut v: Vec<&str> = r.rows.iter().map(|x| x.variant.as_str()).collect();
        v.dedup();
        assert_eq!(v, ["random", "LRU", "FIFO", "unpartitioned"]);
    }

    #[test]
    fn context_switch_ablation_escalates_with_switch_rate() {
        let r = run(&tiny(Ablation::ContextSwitch));
        assert_eq!(r.rows.len(), 4);
        let none = r.rows.iter().find(|x| x.variant == "no-switches").unwrap();
        let hot = r.rows.iter().find(|x| x.variant == "every-10k").unwrap();
        assert!(
            hot.vmcpi > none.vmcpi,
            "flushing TLBs every 10k instructions must raise VMCPI ({} vs {})",
            hot.vmcpi,
            none.vmcpi
        );
    }

    #[test]
    fn walkmode_includes_the_spur_variant() {
        let r = run(&tiny(Ablation::WalkMode));
        let variants: Vec<&str> = r.rows.iter().map(|x| x.variant.as_str()).collect();
        assert!(variants.contains(&"NOTLB-HW"));
        let spur = r.rows.iter().find(|x| x.variant == "NOTLB-HW").unwrap();
        assert_eq!(spur.interrupt_cpi, 0.0, "the SPUR-like walker never interrupts");
    }

    #[test]
    fn names_round_trip() {
        for a in Ablation::ALL {
            assert!(a.name().starts_with("abl-"));
        }
    }
}

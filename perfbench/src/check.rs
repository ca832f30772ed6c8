//! Correctness checks: every result the program returns is verified
//! against its attestation and against a reference computed once per
//! invocation, outside all timing, by a different path.

use std::collections::BTreeMap;

use vm_core::cost::CostModel;
use vm_core::{simulate, SimReport};
use vm_explore::{
    context_for, run_sweep_hardened, verify_in_context, verify_sealed, ExecConfig, HardenPolicy,
    PlannedPoint, PointResult, SweepPlan,
};
use vm_obs::{NopSink, Reporter};
use vm_trace::InstrRecord;

/// What a point must report, derived from a direct `vm_core::simulate`
/// of its configuration and trace rather than through the sweep
/// executor.
#[derive(Debug, Clone)]
pub struct Expected {
    label: String,
    ctx: u64,
    vmcpi: f64,
    interrupt_cpi: f64,
    mcpi: f64,
    vm_total: f64,
    tlb_miss_ratio: Option<f64>,
    user_instrs: u64,
}

impl Expected {
    /// Prices `report` for `point` the way the paper's cost model does.
    pub fn from_report(point: &PlannedPoint, exec: &ExecConfig, report: &SimReport) -> Expected {
        let cost = CostModel::paper(point.spec.interrupt_cycles);
        let vmcpi = report.vmcpi(&cost).total();
        let interrupt_cpi = report.interrupt_cpi(&cost);
        let has_tlb = report.itlb.is_some() || report.dtlb.is_some();
        Expected {
            label: point.label.clone(),
            ctx: context_for(point, exec),
            vmcpi,
            interrupt_cpi,
            mcpi: report.mcpi(&cost).total(),
            vm_total: vmcpi + interrupt_cpi,
            tlb_miss_ratio: has_tlb.then(|| report.tlb_miss_ratio()),
            user_instrs: report.counts.user_instrs,
        }
    }

    /// Simulates `point` directly over `records`.
    pub fn simulate(
        point: &PlannedPoint,
        exec: &ExecConfig,
        records: impl IntoIterator<Item = InstrRecord>,
    ) -> Result<Expected, String> {
        let report = simulate(&point.config, records, exec.warmup, exec.measure)
            .map_err(|e| format!("reference simulation of `{}` failed: {e}", point.label))?;
        Ok(Expected::from_report(point, exec, &report))
    }

    /// Simulates `point` directly over its synthetic workload preset.
    pub fn simulate_preset(point: &PlannedPoint, exec: &ExecConfig) -> Result<Expected, String> {
        let name = point.spec.workload_name();
        let preset = vm_trace::presets::by_name(name)
            .ok_or_else(|| format!("`{}` names no workload preset", point.label))?;
        let trace = preset.build(point.spec.trace_seed).map_err(|e| e.to_string())?;
        Expected::simulate(point, exec, trace)
    }

    /// Checks a returned result: sealed in this point's context, and
    /// every simulated statistic bit-identical to the reference.
    pub fn check(&self, r: &PointResult) -> Result<(), String> {
        verify_in_context(r, self.ctx).map_err(|e| format!("`{}`: {e}", self.label))?;
        let bits = |x: f64| x.to_bits();
        let same = r.label == self.label
            && bits(r.vmcpi) == bits(self.vmcpi)
            && bits(r.interrupt_cpi) == bits(self.interrupt_cpi)
            && bits(r.mcpi) == bits(self.mcpi)
            && bits(r.vm_total) == bits(self.vm_total)
            && r.tlb_miss_ratio.map(bits) == self.tlb_miss_ratio.map(bits)
            && r.user_instrs == self.user_instrs;
        if same {
            Ok(())
        } else {
            Err(format!(
                "`{}`: result differs from direct simulation (vmcpi {} vs {}, mcpi {} vs {}, \
                 instrs {} vs {})",
                self.label, r.vmcpi, self.vmcpi, r.mcpi, self.mcpi, r.user_instrs, self.user_instrs
            ))
        }
    }
}

/// Runs `plan` in-process under the default hardening policy: the
/// reference path for daemon and fleet results, and the in-process
/// baseline of the layer probes. Any point failure is an error.
pub fn in_process(plan: &SweepPlan, exec: &ExecConfig) -> Result<Vec<PointResult>, String> {
    let out = run_sweep_hardened(
        plan,
        exec,
        &HardenPolicy::default(),
        BTreeMap::new(),
        &Reporter::silent(),
        &mut NopSink,
        None,
    );
    let (results, failures) = out.into_parts();
    match failures.first() {
        Some(f) => Err(format!("in-process sweep failed: {f}")),
        None => Ok(results),
    }
}

/// Checks a returned result against a reference result computed by an
/// in-process sweep: sealed, and equal in every field.
pub fn check_same(r: &PointResult, reference: &PointResult) -> Result<(), String> {
    verify_sealed(r).map_err(|e| format!("`{}`: {e}", r.label))?;
    if r == reference {
        Ok(())
    } else {
        Err(format!(
            "`{}`: result differs from the in-process reference (vmcpi {} vs {}, att {:016x} vs \
             {:016x})",
            r.label, r.vmcpi, reference.vmcpi, r.att, reference.att
        ))
    }
}

/// Checks a whole returned result set against per-point references, in
/// point order.
pub fn check_all<R>(
    results: &[PointResult],
    references: &[R],
    check: impl Fn(&PointResult, &R) -> Result<(), String>,
) -> Result<(), String> {
    if results.len() != references.len() {
        return Err(format!(
            "{} result(s) returned for {} point(s)",
            results.len(),
            references.len()
        ));
    }
    results.iter().zip(references).try_for_each(|(r, e)| check(r, e))
}

//! The simulator's numbers, pinned bit-for-bit across versions.
//!
//! `GOLDEN_sim.json` holds, for the six paper specs (`specs/*.toml`) ×
//! gcc, vortex and ijpeg at a small fixed scale, every raw event count
//! plus the I/D TLB and cache counters of a direct `vm_core::simulate`,
//! and the attestation (`att`) each point gets through the sweep
//! executor. Its `coverage` list pins, the same way and at the same
//! scale, ULTRIX points that grid never reaches: the CI sweep's 6-point
//! `tlb.entries` × `mmu.table` grid, LRU and FIFO TLB replacement, 2-
//! and 4-way caches, and a unified L2. A determinism test inside one
//! binary cannot see an optimization that changes a number the same way
//! in both runs; this file can, because it was written by an earlier
//! build.
//!
//! After a change that is *meant* to move the numbers, regenerate it
//! with `cargo test --test sim_golden -- --ignored` and review the diff.
//! That also rewrites the figure golden, `GOLDEN_figures.json` (see
//! `tests/common/figures.rs`).

#[path = "common/figures.rs"]
mod figures;

use vm_core::simulate;
use vm_explore::{run_sweep, Axis, ExecConfig, SweepPlan, SystemSpec};
use vm_obs::{NopSink, Reporter};

/// The six paper systems, as shipped.
const PAPER_SPECS: [&str; 6] = [
    include_str!("../specs/base.toml"),
    include_str!("../specs/ultrix.toml"),
    include_str!("../specs/mach.toml"),
    include_str!("../specs/intel.toml"),
    include_str!("../specs/pa-risc.toml"),
    include_str!("../specs/notlb.toml"),
];

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/GOLDEN_sim.json");

const TRACE_SEED: u64 = 1;

/// Small enough for a debug build, large enough that every system
/// walks, refills, evicts and (MACH) nests.
const EXEC: ExecConfig = ExecConfig { warmup: 50_000, measure: 250_000, jobs: 2 };

/// The 18-point grid with contiguous indices.
fn paper_grid() -> SweepPlan {
    let axis = Axis::parse("workload.name=gcc,vortex,ijpeg").unwrap();
    let mut plan = SweepPlan::default();
    for text in PAPER_SPECS {
        let mut base = SystemSpec::parse(text).unwrap();
        base.set("workload.seed", &TRACE_SEED.to_string()).unwrap();
        for mut p in SweepPlan::expand(&base, std::slice::from_ref(&axis)).unwrap().points {
            p.index = plan.points.len();
            plan.points.push(p);
        }
    }
    plan
}

/// ULTRIX points off the paper grid, one sweep per axis group, with
/// contiguous indices.
fn coverage_grid() -> SweepPlan {
    let groups: [&[&str]; 4] = [
        &["tlb.entries=32,64,128", "mmu.table=two-tier,hashed"],
        &["tlb.replacement=lru,fifo"],
        &["cache.assoc=2-way,4-way"],
        &["cache.unified=true"],
    ];
    let mut base = SystemSpec::parse(PAPER_SPECS[1]).unwrap();
    base.set("workload.seed", &TRACE_SEED.to_string()).unwrap();
    let mut plan = SweepPlan::default();
    for group in groups {
        let axes: Vec<Axis> = group.iter().map(|a| Axis::parse(a).unwrap()).collect();
        for mut p in SweepPlan::expand(&base, &axes).unwrap().points {
            p.index = plan.points.len();
            plan.points.push(p);
        }
    }
    plan
}

/// Appends one line per point of `plan`: its label, its `att` through
/// the sweep executor, and the report of a direct simulate. Lines are
/// comma-separated, the last one bare.
fn render_points(plan: &SweepPlan, out: &mut String) {
    let swept = run_sweep(plan, &EXEC, &Reporter::silent(), &mut NopSink);
    for (i, (point, result)) in plan.points.iter().zip(&swept).enumerate() {
        let workload = point.spec.workload_name();
        let trace = vm_trace::presets::by_name(workload).unwrap().build(TRACE_SEED).unwrap();
        let report = simulate(&point.config, trace, EXEC.warmup, EXEC.measure).unwrap();
        let sep = if i + 1 == plan.points.len() { "" } else { "," };
        out.push_str(&format!(
            "{{\"label\":\"{}\",\"att\":\"{:016x}\",\"report\":{}}}{sep}\n",
            point.label,
            result.att,
            report.to_json()
        ));
    }
}

/// Renders the golden document from this build: one point per line so
/// a drift diffs to the point that moved.
fn render() -> String {
    let plan = paper_grid();
    assert_eq!(plan.points.len(), 18);
    let coverage = coverage_grid();
    assert_eq!(coverage.points.len(), 11);
    let mut out = String::from("{\"schema\":\"vm-sim-golden/1\",");
    out.push_str(&format!(
        "\"trace_seed\":{TRACE_SEED},\"warmup\":{},\"measure\":{},\"points\":[\n",
        EXEC.warmup, EXEC.measure
    ));
    render_points(&plan, &mut out);
    out.push_str("],\"coverage\":[\n");
    render_points(&coverage, &mut out);
    out.push_str("]}\n");
    out
}

#[test]
fn simulator_numbers_match_the_committed_golden() {
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("GOLDEN_sim.json is committed");
    let now = render();
    for (n, (want, got)) in golden.lines().zip(now.lines()).enumerate() {
        assert_eq!(got, want, "GOLDEN_sim.json line {} drifted", n + 1);
    }
    assert_eq!(golden.lines().count(), now.lines().count(), "GOLDEN_sim.json line count drifted");
}

#[test]
#[ignore = "rewrites GOLDEN_sim.json and GOLDEN_figures.json; run only for an intended change"]
fn regenerate_golden() {
    std::fs::write(GOLDEN_PATH, render()).unwrap();
    std::fs::write(figures::PATH, figures::render()).unwrap();
}

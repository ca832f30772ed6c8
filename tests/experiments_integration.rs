//! Integration tests over the experiment drivers: every figure/table
//! module runs end-to-end at a reduced scale and its structural output
//! stays well-formed. (The full-scale claim checks live in the `repro`
//! binary and EXPERIMENTS.md; `tests/paper_shapes.rs` pins the headline
//! orderings.) Each run's CSV is also compared with its copy in
//! `GOLDEN_figures.json` (see `tests/common/figures.rs`).

#[path = "common/figures.rs"]
mod figures;

use figures::{assert_pinned, TINY};
use vm_core::SystemKind;
use vm_experiments::{
    ablations, fig6, fig8, interrupts, mcpi, multiprog, suite, tables, tlbsize, total,
};
use vm_trace::presets;

#[test]
fn tables_render_consistently() {
    let all = tables::render_all();
    for needle in ["Table 1", "Table 2", "Table 3", "Table 4", "500 instrs", "7 cycles"] {
        assert!(all.contains(needle), "missing {needle}");
    }
}

#[test]
fn fig6_end_to_end() {
    let cfg = figures::fig6();
    let r = fig6::run(&cfg);
    assert_eq!(r.points.len(), cfg.systems.len() * 2);
    let rendered = r.render();
    for system in SystemKind::VM_SYSTEMS {
        assert!(rendered.contains(system.label()), "missing {system}");
    }
    // Charts are embedded: axis and legend markers present.
    assert!(rendered.contains("+----"));
    assert!(rendered.contains("* 64/128"));
    assert_eq!(r.to_csv().lines().count(), r.points.len() + 1);
    assert_pinned("fig6", &r.to_csv());
}

#[test]
fn fig8_end_to_end() {
    let r = fig8::run(&figures::fig8());
    assert_eq!(r.bars.len(), 3);
    let claims = r.claims();
    assert!(
        claims.iter().any(|c| c.statement.contains("INTEL takes no interrupts") && c.holds),
        "{claims:?}"
    );
    assert_pinned("fig8", &r.to_csv());
}

#[test]
fn fig10_through_fig13_end_to_end() {
    let r10 = interrupts::run(&figures::fig10());
    assert!(r10.claims().iter().any(|c| c.holds));
    assert_pinned("fig10", &r10.to_csv());

    let r11 = tlbsize::run(&figures::fig11());
    assert_eq!(r11.points.len(), 2);
    assert!(r11.points[0].vmcpi > r11.points[1].vmcpi, "32-entry TLB must cost more");
    assert_pinned("fig11", &r11.to_csv());

    let r12 = mcpi::run(&figures::fig12());
    assert_eq!(r12.rows.len(), 1);
    assert!(r12.rows[0].inflicted() > 0.0, "handlers must pollute the caches");
    assert_pinned("fig12", &r12.to_csv());

    let r13 = total::run(&figures::fig13());
    assert!(r13.rows[0].with_inflicted_pct >= r13.rows[0].direct_pct);
    assert!(r13.rows[0].with_interrupts_pct[2] > r13.rows[0].with_interrupts_pct[0]);
    assert_pinned("fig13", &r13.to_csv());
}

#[test]
fn every_ablation_runs_and_renders() {
    for ablation in ablations::Ablation::ALL {
        let r = ablations::run(&figures::ablation(ablation));
        assert!(!r.rows.is_empty(), "{}", ablation.name());
        assert!(r.render().contains(ablation.name()));
        assert!(r.to_csv().lines().count() > 1);
        assert_pinned(ablation.name(), &r.to_csv());
    }
}

#[test]
fn suite_aggregates_multiple_workloads() {
    let r = suite::run(&figures::suite());
    assert_eq!(r.cells.len(), 4);
    assert!(r.render().contains("compress"));
    assert_pinned("suite", &r.to_csv());
}

#[test]
fn multiprogramming_experiment_shows_the_flush_cost() {
    let mut cfg =
        multiprog::Config::default_mix(vec![presets::ijpeg_spec(), presets::compress_spec()]);
    cfg.quanta = vec![5_000];
    cfg.systems = vec![SystemKind::Ultrix];
    cfg.exec = TINY;
    let r = multiprog::run(&cfg);
    assert_eq!(r.rows.len(), 2);
    let tagged = r.rows.iter().find(|x| x.flushes == 0).unwrap();
    let untagged = r.rows.iter().find(|x| x.flushes > 0).unwrap();
    assert!(untagged.vm_total > tagged.vm_total);
}

//! One benchmark group per paper table/figure: each bench runs the
//! corresponding experiment driver end-to-end at micro scale, so every
//! artefact of the evaluation has an executable, timed regeneration path.

use std::hint::black_box;
use vm_bench::{Runner, BENCH_SCALE};
use vm_core::SystemKind;
use vm_experiments::{ablations, fig6, fig8, interrupts, mcpi, tables, tlbsize, total};
use vm_trace::presets;

fn bench_tables(r: &mut Runner) {
    r.group("tables");
    r.bench("tables_1_to_4", 0, || black_box(tables::render_all()));
}

fn bench_fig6_fig7(r: &mut Runner) {
    r.group("fig6_fig7_vmcpi_vs_cache_org");
    for (name, spec) in [("fig6_gcc", presets::gcc_spec()), ("fig7_vortex", presets::vortex_spec())]
    {
        let mut cfg = fig6::Config::quick(spec);
        cfg.l1_sizes = vec![4 << 10, 64 << 10];
        cfg.line_pairs = vec![(64, 128)];
        cfg.l2_sizes = vec![512 << 10];
        cfg.exec = BENCH_SCALE;
        r.bench(name, 0, || black_box(fig6::run(&cfg)));
    }
}

fn bench_fig8_fig9(r: &mut Runner) {
    r.group("fig8_fig9_breakdowns");
    for (name, spec) in [("fig8_gcc", presets::gcc_spec()), ("fig9_vortex", presets::vortex_spec())]
    {
        let mut cfg = fig8::Config::quick(spec);
        cfg.l1_sizes = vec![16 << 10];
        cfg.exec = BENCH_SCALE;
        r.bench(name, 0, || black_box(fig8::run(&cfg)));
    }
}

fn bench_fig10(r: &mut Runner) {
    r.group("fig10_interrupt_costs");
    let mut cfg = interrupts::Config::paper(vec![presets::gcc_spec()]);
    cfg.systems = vec![SystemKind::Ultrix, SystemKind::Intel];
    cfg.exec = BENCH_SCALE;
    r.bench("fig10_gcc", 0, || black_box(interrupts::run(&cfg)));
}

fn bench_fig11(r: &mut Runner) {
    r.group("fig11_tlb_size");
    let mut cfg = tlbsize::Config::paper(vec![presets::gcc_spec()]);
    cfg.systems = vec![SystemKind::Ultrix];
    cfg.entries = vec![32, 128];
    cfg.exec = BENCH_SCALE;
    r.bench("fig11_gcc_ultrix", 0, || black_box(tlbsize::run(&cfg)));
}

fn bench_fig12(r: &mut Runner) {
    r.group("fig12_inflicted_mcpi");
    let mut cfg = mcpi::Config::paper(vec![presets::gcc_spec()]);
    cfg.systems = vec![SystemKind::Ultrix, SystemKind::Intel];
    cfg.exec = BENCH_SCALE;
    r.bench("fig12_gcc", 0, || black_box(mcpi::run(&cfg)));
}

fn bench_fig13(r: &mut Runner) {
    r.group("fig13_total_overhead");
    let mut cfg = total::Config::paper(vec![presets::gcc_spec()]);
    cfg.systems = vec![SystemKind::Ultrix, SystemKind::Intel];
    cfg.exec = BENCH_SCALE;
    r.bench("fig13_gcc", 0, || black_box(total::run(&cfg)));
}

fn bench_ablations(r: &mut Runner) {
    r.group("ablations");
    for ablation in ablations::Ablation::ALL {
        let mut cfg = ablations::Config::new(ablation, vec![presets::gcc_spec()]);
        cfg.exec = BENCH_SCALE;
        r.bench(ablation.name(), 0, || black_box(ablations::run(&cfg)));
    }
}

fn main() {
    let mut r = Runner::from_args();
    bench_tables(&mut r);
    bench_fig6_fig7(&mut r);
    bench_fig8_fig9(&mut r);
    bench_fig10(&mut r);
    bench_fig11(&mut r);
    bench_fig12(&mut r);
    bench_fig13(&mut r);
    bench_ablations(&mut r);
    r.finish();
}

//! The figure golden: the CSVs of the reduced-scale figure, suite and
//! ablation runs in `tests/experiments_integration.rs`, pinned in
//! `GOLDEN_figures.json`, one CSV row per line.
//!
//! Each integration test compares the CSV of the run it already makes,
//! so the pin costs no extra simulation. After a change that is *meant*
//! to move the numbers, regenerate the file with
//! `cargo test --test sim_golden -- --ignored` and review the diff.

#![allow(dead_code)]

use vm_core::SystemKind;
use vm_experiments::ablations::Ablation;
use vm_experiments::ExecConfig;
use vm_experiments::{ablations, fig6, fig8, interrupts, mcpi, suite, tlbsize, total};
use vm_obs::json::{self, Value};
use vm_trace::presets;

pub const PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/GOLDEN_figures.json");

/// The integration tests' run lengths.
pub const TINY: ExecConfig = ExecConfig { warmup: 30_000, measure: 120_000, jobs: 1 };

pub fn fig6() -> fig6::Config {
    let mut cfg = fig6::Config::quick(presets::gcc_spec());
    cfg.l1_sizes = vec![4 << 10, 32 << 10];
    cfg.line_pairs = vec![(64, 128)];
    cfg.l2_sizes = vec![512 << 10];
    cfg.exec = TINY;
    cfg
}

pub fn fig8() -> fig8::Config {
    let mut cfg = fig8::Config::quick(presets::vortex_spec());
    cfg.l1_sizes = vec![16 << 10];
    cfg.systems = vec![SystemKind::Ultrix, SystemKind::Intel, SystemKind::NoTlb];
    cfg.exec = TINY;
    cfg
}

pub fn fig10() -> interrupts::Config {
    let mut cfg = interrupts::Config::paper(vec![presets::gcc_spec()]);
    cfg.systems = vec![SystemKind::Ultrix, SystemKind::Intel];
    cfg.exec = TINY;
    cfg
}

pub fn fig11() -> tlbsize::Config {
    let mut cfg = tlbsize::Config::paper(vec![presets::gcc_spec()]);
    cfg.systems = vec![SystemKind::Ultrix];
    cfg.entries = vec![32, 128];
    cfg.exec = TINY;
    cfg
}

pub fn fig12() -> mcpi::Config {
    let mut cfg = mcpi::Config::paper(vec![presets::gcc_spec()]);
    cfg.systems = vec![SystemKind::Ultrix];
    cfg.exec = TINY;
    cfg
}

pub fn fig13() -> total::Config {
    let mut cfg = total::Config::paper(vec![presets::gcc_spec()]);
    cfg.systems = vec![SystemKind::Ultrix];
    cfg.exec = TINY;
    cfg
}

pub fn suite() -> suite::Config {
    let mut cfg =
        suite::Config::default_suite(vec![presets::compress_spec(), presets::ijpeg_spec()]);
    cfg.systems = vec![SystemKind::Ultrix, SystemKind::Intel];
    cfg.seeds = vec![1, 2];
    cfg.exec = TINY;
    cfg
}

pub fn ablation(ablation: Ablation) -> ablations::Config {
    let mut cfg = ablations::Config::new(ablation, vec![presets::gcc_spec()]);
    cfg.exec = TINY;
    cfg
}

/// Every pinned CSV by name, in file order.
fn csvs() -> Vec<(String, String)> {
    let mut out = vec![
        ("fig6".to_owned(), fig6::run(&fig6()).to_csv()),
        ("fig8".to_owned(), fig8::run(&fig8()).to_csv()),
        ("fig10".to_owned(), interrupts::run(&fig10()).to_csv()),
        ("fig11".to_owned(), tlbsize::run(&fig11()).to_csv()),
        ("fig12".to_owned(), mcpi::run(&fig12()).to_csv()),
        ("fig13".to_owned(), total::run(&fig13()).to_csv()),
        ("suite".to_owned(), suite::run(&suite()).to_csv()),
    ];
    for a in Ablation::ALL {
        out.push((a.name().to_owned(), ablations::run(&ablation(a)).to_csv()));
    }
    out
}

/// Renders the golden document from this build.
pub fn render() -> String {
    let mut out = String::from("{\"schema\":\"vm-figures-golden/1\",\"figures\":{\n");
    let figures = csvs();
    for (i, (name, csv)) in figures.iter().enumerate() {
        out.push_str(&format!("\"{name}\":[\n"));
        let rows: Vec<&str> = csv.lines().collect();
        for (j, row) in rows.iter().enumerate() {
            json::write_escaped(&mut out, row);
            out.push_str(if j + 1 == rows.len() { "\n" } else { ",\n" });
        }
        out.push_str(if i + 1 == figures.len() { "]\n" } else { "],\n" });
    }
    out.push_str("}}\n");
    out
}

/// Asserts that `csv` matches the copy of figure `name` in
/// `GOLDEN_figures.json`, row by row.
pub fn assert_pinned(name: &str, csv: &str) {
    let text = std::fs::read_to_string(PATH).expect("GOLDEN_figures.json is committed");
    let doc = json::parse(&text).expect("GOLDEN_figures.json parses");
    let want: Vec<&str> = doc
        .get("figures")
        .and_then(|f| f.get(name))
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("GOLDEN_figures.json pins no `{name}`"))
        .iter()
        .map(|row| row.as_str().expect("rows are strings"))
        .collect();
    let got: Vec<&str> = csv.lines().collect();
    for (n, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "`{name}` row {n} drifted from GOLDEN_figures.json");
    }
    assert_eq!(got.len(), want.len(), "`{name}` row count drifted from GOLDEN_figures.json");
}

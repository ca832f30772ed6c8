//! Benchmark support for the Jacob & Mudge (ASPLOS 1998) reproduction.
//!
//! The benches live in `benches/` and are plain `harness = false`
//! binaries driven by the minimal timing harness in this crate (the
//! workspace builds offline, with no third-party benchmark framework):
//!
//! * `figures` — one group per paper table/figure, running the
//!   corresponding `vm-experiments` driver at a micro scale. These keep
//!   the *regeneration machinery* honest and measured; the full-scale
//!   numbers come from the `repro` binary (`cargo run -p vm-experiments
//!   --bin repro --release`).
//! * `components` — microbenchmarks of the substrates (cache access, TLB
//!   lookup/insert, each organization's walk, trace generation) and the
//!   end-to-end simulator throughput per system.
//!
//! Each benchmark calibrates an iteration count to a target wall-clock
//! budget, then reports the best-of-N-samples time per iteration (best,
//! not mean, to suppress scheduler noise). Pass a substring as the first
//! CLI argument to run only matching benchmarks, e.g.
//! `cargo bench --bench components -- tlb`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use vm_experiments::ExecConfig;

/// The micro scale used by the figure benches: small enough that a full
/// `cargo bench` stays in minutes on one core, large enough to exercise
/// warm steady-state behaviour.
pub const BENCH_SCALE: ExecConfig = ExecConfig { warmup: 20_000, measure: 60_000, jobs: 1 };

/// Instructions per iteration for the simulator-throughput benches.
pub const SIM_INSTRS: u64 = 50_000;

/// Wall-clock budget per measurement sample.
const SAMPLE_BUDGET: Duration = Duration::from_millis(120);

/// Measurement samples taken per benchmark (the best is reported).
const SAMPLES: u32 = 5;

/// A named group of benchmarks sharing a CLI filter.
pub struct Runner {
    filter: Option<String>,
    group: String,
    ran: usize,
}

impl Runner {
    /// Build a runner, taking an optional name filter from `argv[1]`.
    /// Cargo passes `--bench` through to `harness = false` binaries;
    /// flag-like arguments are ignored.
    pub fn from_args() -> Self {
        let filter = std::env::args().nth(1).filter(|a| !a.starts_with('-'));
        Runner { filter, group: String::new(), ran: 0 }
    }

    /// Start a new named group (printed as a heading).
    pub fn group(&mut self, name: &str) {
        self.group = name.to_string();
    }

    /// Time `f`, printing nanoseconds per iteration and, when `elements`
    /// is non-zero, a derived elements-per-second throughput.
    pub fn bench<R>(&mut self, name: &str, elements: u64, mut f: impl FnMut() -> R) {
        let full =
            if self.group.is_empty() { name.to_string() } else { format!("{}/{name}", self.group) };
        if let Some(needle) = &self.filter {
            if !full.contains(needle.as_str()) {
                return;
            }
        }
        self.ran += 1;

        // Calibrate: grow the iteration count until one batch fills a
        // meaningful fraction of the sample budget.
        let mut iters: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            let elapsed = t.elapsed();
            if elapsed >= SAMPLE_BUDGET / 4 || iters >= 1 << 30 {
                break;
            }
            iters = if elapsed.is_zero() {
                iters * 16
            } else {
                // Aim directly for the budget, with headroom for noise.
                let scale = SAMPLE_BUDGET.as_nanos() as f64 / elapsed.as_nanos() as f64;
                (iters as f64 * scale.min(16.0)).ceil() as u64
            };
        }

        let mut best = Duration::MAX;
        for _ in 0..SAMPLES {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            best = best.min(t.elapsed());
        }

        let ns_per_iter = best.as_nanos() as f64 / iters as f64;
        if elements > 0 {
            let per_sec = elements as f64 * 1e9 / ns_per_iter;
            println!(
                "{full:<44} {:>14} ns/iter {:>14} elem/s",
                format_sig(ns_per_iter),
                format_sig(per_sec)
            );
        } else {
            println!("{full:<44} {:>14} ns/iter", format_sig(ns_per_iter));
        }
    }

    /// Print a footer; call once after all benchmarks.
    pub fn finish(self) {
        if self.ran == 0 {
            match self.filter {
                Some(f) => println!("no benchmarks matched filter {f:?}"),
                None => println!("no benchmarks registered"),
            }
        }
    }
}

/// Render a positive number with thousands separators and no more than
/// one decimal, e.g. `12_345.6`.
fn format_sig(x: f64) -> String {
    let scaled = (x * 10.0).round() / 10.0;
    let whole = scaled.trunc() as u64;
    let frac = ((scaled - scaled.trunc()) * 10.0).round() as u64;
    let mut out = String::new();
    let digits = whole.to_string();
    for (i, ch) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push('_');
        }
        out.push(ch);
    }
    if frac > 0 {
        out.push('.');
        out.push_str(&frac.to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_groups_thousands() {
        assert_eq!(format_sig(1234567.0), "1_234_567");
        assert_eq!(format_sig(12.34), "12.3");
        assert_eq!(format_sig(0.96), "1");
        assert_eq!(format_sig(999.0), "999");
    }

    #[test]
    fn filtered_runner_skips_everything_else() {
        let mut r = Runner { filter: Some("match-me".into()), group: String::new(), ran: 0 };
        r.bench("other", 0, || 1u64);
        assert_eq!(r.ran, 0);
        r.group("group");
        r.bench("match-me", 0, || 1u64);
        assert_eq!(r.ran, 1);
    }
}

//! Sample statistics, the results digest, and peak memory.

use vm_explore::PointResult;
use vm_trace::wire::Fnv1a;

/// The median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples a tail percentile needs strictly beyond it before it is
/// reported.
pub const TAIL_SAMPLES: usize = 10;

/// The nearest-rank `q`-quantile of `xs`, reported only when at least
/// [`TAIL_SAMPLES`] samples lie beyond it (`None` otherwise): with fewer,
/// one slow sample moves the figure.
pub fn tail_percentile(xs: &[f64], q: f64) -> Option<f64> {
    let n = xs.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n == 0 || n - rank.min(n) < TAIL_SAMPLES {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Folds the simulated statistics of `r` into `h`: every result field a
/// simulation computes, as exact bits, so equal digests mean identical
/// simulated statistics.
pub fn digest_result(h: &mut Fnv1a, r: &PointResult) {
    h.update(r.label.as_bytes());
    h.update(r.workload.as_bytes());
    for x in [r.vmcpi, r.interrupt_cpi, r.mcpi, r.vm_total] {
        h.update(&x.to_bits().to_le_bytes());
    }
    let miss = r.tlb_miss_ratio.map_or(u64::MAX, f64::to_bits);
    h.update(&miss.to_le_bytes());
    h.update(&r.user_instrs.to_le_bytes());
    h.update(&r.tlb_area_bytes.to_le_bytes());
}

/// Peak resident memory of this process so far (`VmHWM`), in MB
/// (2^20 bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&xs[..99], 0.9), None, "only 9 samples beyond p90");
        assert_eq!(tail_percentile(&xs[..20], 0.5), Some(10.0));
        assert_eq!(tail_percentile(&xs[..19], 0.5), None);
        assert_eq!(tail_percentile(&xs, 0.99), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}

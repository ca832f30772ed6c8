//! Result attestation: lineage fingerprints for sweep-point payloads.
//!
//! A fleet that merges results from many processes and machines has a
//! fault class no retry or journal can see: a payload that is
//! well-formed and **wrong** — a stale binary, a flipped DRAM bit after
//! simulation, a lying backend. Every [`PointResult`] therefore carries
//! two FNV-1a fingerprints, computed *where the simulation ran* and
//! re-verified at every trust boundary (worker reply decode, serve
//! `result` response, fleet fan-in, journal resume, final merge):
//!
//! * **`ctx`** — the *context* fingerprint: canonical spec TOML, point
//!   label, trace seed, and exec scale (warmup/measure). Two results
//!   with different `ctx` answer different questions; a resume whose
//!   journaled `ctx` disagrees with the plan's expectation was written
//!   by a different spec, seed, or scale (the stale-binary restart).
//!   Uploaded `trace:NAME` workloads are named by the spec TOML; their
//!   *content* integrity is pinned separately by the ingest
//!   fingerprint at upload commit (docs/serving.md).
//! * **`att`** — the *attestation*: FNV-1a over `ctx` plus every
//!   payload bit (label, settings, system, workload, the raw `f64` bit
//!   patterns, areas, instruction counts). Any post-signing mutation of
//!   the payload breaks `att`; `att` deliberately excludes the point
//!   *index*, because the fleet restamps a backend's local index 0 to
//!   the global sweep index on fan-in.
//!
//! The fingerprints are not cryptographic — FNV-1a defends against
//! corruption and version skew, not an adversary forging hashes. The
//! adversarial case (a backend that lies *before* signing, so the lie
//! carries a valid attestation) is handled above this layer by
//! divergence detection and audit sampling (docs/robustness.md).

use vm_trace::wire::Fnv1a;

use crate::exec::{ExecConfig, PointResult};
use crate::sweep::PlannedPoint;

/// An incremental FNV-1a hasher with explicit field separators, so
/// adjacent fields cannot alias (`"ab","c"` vs `"a","bc"`).
#[derive(Debug, Clone)]
struct Fnv(Fnv1a);

impl Fnv {
    fn new() -> Fnv {
        Fnv(Fnv1a::new())
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv {
        self.0.update(bytes);
        self
    }

    fn str(&mut self, s: &str) -> &mut Fnv {
        self.bytes(s.as_bytes()).sep()
    }

    fn u64(&mut self, v: u64) -> &mut Fnv {
        self.bytes(&v.to_be_bytes()).sep()
    }

    fn sep(&mut self) -> &mut Fnv {
        self.bytes(&[0xff])
    }

    fn finish(&self) -> u64 {
        self.0.digest()
    }
}

/// The context fingerprint for a point about to run: canonical spec
/// TOML, label, trace seed, and exec scale. Computed identically by the
/// coordinator (from its plan) and the backend (from the re-expanded
/// pinned grid), so a match proves both sides agree on *what question*
/// the payload answers.
pub fn point_context(
    spec_toml: &str,
    label: &str,
    trace_seed: u64,
    warmup: u64,
    measure: u64,
) -> u64 {
    let mut h = Fnv::new();
    h.str(spec_toml).str(label).u64(trace_seed).u64(warmup).u64(measure);
    h.finish()
}

/// [`point_context`] for a planned point at an exec scale — the form
/// every executor and trust boundary actually calls.
pub fn context_for(point: &PlannedPoint, exec: &ExecConfig) -> u64 {
    point_context(
        &point.spec.to_toml(),
        &point.label,
        point.spec.trace_seed,
        exec.warmup,
        exec.measure,
    )
}

/// FNV-1a over every payload bit of a result, index excluded (the fleet
/// restamps indices on fan-in) and `ctx`/`att` themselves excluded.
fn payload_bits(r: &PointResult) -> u64 {
    let mut h = Fnv::new();
    h.str(&r.label);
    for (k, v) in &r.settings {
        h.bytes(k.as_bytes()).sep().bytes(v.as_bytes()).sep();
    }
    h.sep();
    h.str(&r.system).str(&r.workload);
    h.u64(r.vmcpi.to_bits());
    h.u64(r.interrupt_cpi.to_bits());
    h.u64(r.mcpi.to_bits());
    h.u64(r.vm_total.to_bits());
    h.u64(r.tlb_area_bytes);
    match r.tlb_miss_ratio {
        None => h.bytes(&[0]).sep(),
        Some(m) => h.bytes(&[1]).u64(m.to_bits()),
    };
    h.u64(r.user_instrs);
    h.finish()
}

/// The attestation a sealed result must carry for its context.
fn attestation(ctx: u64, r: &PointResult) -> u64 {
    let mut h = Fnv::new();
    h.u64(ctx).u64(payload_bits(r));
    h.finish()
}

/// Signs a result in place: stamps its context fingerprint and the
/// attestation over (context, payload bits). Called exactly once, at
/// the site that ran the simulation — everything downstream verifies.
pub fn seal(r: &mut PointResult, ctx: u64) {
    r.ctx = ctx;
    r.att = attestation(ctx, r);
}

/// Verifies a result against its *own* carried context: the payload
/// bits must reproduce `att`. Catches any post-signing mutation, even
/// without access to the plan that defined the point.
///
/// # Errors
///
/// Returns a message with both hex fingerprints on mismatch.
pub fn verify_sealed(r: &PointResult) -> Result<(), String> {
    let expect = attestation(r.ctx, r);
    if r.att != expect {
        return Err(format!(
            "attestation mismatch: payload carries att {:016x} but its bits hash to {expect:016x}",
            r.att
        ));
    }
    Ok(())
}

/// Verifies a result where the verifier knows which context it *must*
/// have come from (plan in hand): the carried `ctx` must equal the
/// expectation and the payload must reproduce `att`. Catches stale
/// binaries and cross-run mixups as well as post-signing mutation.
///
/// # Errors
///
/// Returns a message naming the failing check (context vs attestation).
pub fn verify_in_context(r: &PointResult, expect_ctx: u64) -> Result<(), String> {
    if r.ctx != expect_ctx {
        return Err(format!(
            "context mismatch: payload was signed for context {:016x} but this plan expects \
             {expect_ctx:016x} (different spec, seed, or scale)",
            r.ctx
        ));
    }
    verify_sealed(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SystemSpec;
    use crate::sweep::SweepPlan;
    use vm_core::SystemKind;

    fn sealed_sample() -> PointResult {
        let mut r = PointResult {
            index: 3,
            label: "ULTRIX tlb.entries=64".to_owned(),
            settings: vec![("tlb.entries".to_owned(), "64".to_owned())],
            system: "ULTRIX".to_owned(),
            workload: "gcc".to_owned(),
            vmcpi: 0.1 + 0.2,
            interrupt_cpi: 0.037,
            mcpi: 1.625,
            vm_total: 0.1 + 0.2 + 0.037,
            tlb_area_bytes: 2048,
            tlb_miss_ratio: Some(0.001953125),
            user_instrs: 500_000,
            ctx: 0,
            att: 0,
        };
        seal(&mut r, 0x1234_5678_9abc_def0);
        r
    }

    #[test]
    fn sealed_results_verify_and_any_payload_bit_flip_is_caught() {
        let good = sealed_sample();
        assert_eq!(verify_sealed(&good), Ok(()));
        assert_eq!(verify_in_context(&good, good.ctx), Ok(()));

        // One ulp on one field — the smallest possible lie.
        let mut lied = good.clone();
        lied.vmcpi = f64::from_bits(lied.vmcpi.to_bits() ^ 1);
        assert!(verify_sealed(&lied).unwrap_err().contains("attestation mismatch"));

        // Settings with identical concatenated bytes but a shifted
        // key/value split must not alias to the same attestation.
        let mut a = good.clone();
        a.settings = vec![("tlb.entries=6".to_owned(), "4".to_owned())];
        let mut b = good.clone();
        b.settings = vec![("tlb.entries".to_owned(), "=64".to_owned())];
        seal(&mut a, good.ctx);
        seal(&mut b, good.ctx);
        assert_ne!(a.att, b.att, "separators prevent field aliasing");

        // None vs Some(0.0) for the optional ratio are distinct.
        let mut none = good.clone();
        none.tlb_miss_ratio = None;
        let mut zero = good.clone();
        zero.tlb_miss_ratio = Some(0.0);
        seal(&mut none, good.ctx);
        seal(&mut zero, good.ctx);
        assert_ne!(none.att, zero.att);
    }

    #[test]
    fn index_is_excluded_so_fan_in_restamping_keeps_the_signature() {
        let mut restamped = sealed_sample();
        restamped.index = 0;
        assert_eq!(verify_sealed(&restamped), Ok(()));
    }

    #[test]
    fn context_mismatch_names_both_fingerprints() {
        let good = sealed_sample();
        let err = verify_in_context(&good, good.ctx ^ 1).unwrap_err();
        assert!(err.contains("context mismatch"), "{err}");
        assert!(err.contains(&format!("{:016x}", good.ctx)), "{err}");
        assert!(err.contains(&format!("{:016x}", good.ctx ^ 1)), "{err}");
    }

    #[test]
    fn context_tracks_spec_label_seed_and_scale() {
        let base = point_context("[mmu]\n", "L", 1, 100, 200);
        assert_eq!(base, point_context("[mmu]\n", "L", 1, 100, 200));
        assert_ne!(base, point_context("[mmu] \n", "L", 1, 100, 200));
        assert_ne!(base, point_context("[mmu]\n", "M", 1, 100, 200));
        assert_ne!(base, point_context("[mmu]\n", "L", 2, 100, 200));
        assert_ne!(base, point_context("[mmu]\n", "L", 1, 101, 200));
        assert_ne!(base, point_context("[mmu]\n", "L", 1, 100, 201));
    }

    #[test]
    fn coordinator_and_backend_derive_the_same_context() {
        // The fleet contract: the coordinator computes the context from
        // its merged plan; the backend re-expands the pinned single-point
        // grid from the shipped spec text. Both must land on one value.
        let spec = SystemSpec::for_kind(SystemKind::Ultrix);
        let text = spec.to_toml();
        let reparsed = SystemSpec::parse(&text).unwrap();
        let plan = SweepPlan::expand(&reparsed, &[]).unwrap();
        let exec = ExecConfig::QUICK;
        let a = context_for(&plan.points[0], &exec);
        let b = point_context(
            &plan.points[0].spec.to_toml(),
            &plan.points[0].label,
            plan.points[0].spec.trace_seed,
            exec.warmup,
            exec.measure,
        );
        assert_eq!(a, b);
    }
}

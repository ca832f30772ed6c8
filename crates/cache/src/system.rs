//! The full cache complement of a simulated machine: split L1s over
//! either split or unified L2s.
//!
//! Table 1 fixes split L2s ("set associative or unified caches, while
//! giving better performance, would add too many variables for us to
//! interpret behavior") — the unified variant exists here precisely to
//! run that set-aside comparison as an ablation.

use vm_types::{MAddr, MissClass};

use crate::hierarchy::HierarchyCounters;
use crate::single::{Cache, CacheCounters};

/// Eviction report from an observed access: whether the fill at each
/// level displaced a valid line. Produced by the `*_observed` access
/// variants for the observability layer; a level that was not probed (or
/// hit) reports `false`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FillInfo {
    /// The L1 fill displaced a valid line.
    pub l1_evicted: bool,
    /// The L2 fill displaced a valid line.
    pub l2_evicted: bool,
}

impl FillInfo {
    /// Accumulates another access's evictions (used for spanning loads).
    fn merge(&mut self, other: FillInfo) {
        self.l1_evicted |= other.l1_evicted;
        self.l2_evicted |= other.l2_evicted;
    }
}

/// The second-level organization.
#[derive(Debug, Clone)]
enum L2 {
    /// Separate instruction and data L2s (the paper's configuration).
    Split {
        /// L2 instruction cache.
        i: Cache,
        /// L2 data cache.
        d: Cache,
    },
    /// One L2 shared by instruction and data traffic.
    Unified(Cache),
}

/// Counters for a [`CacheSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSystemCounters {
    /// L1 instruction cache counters.
    pub l1i: CacheCounters,
    /// L1 data cache counters.
    pub l1d: CacheCounters,
    /// L2 instruction-side counters (for a unified L2 this is the shared
    /// cache, identical to `l2d`).
    pub l2i: CacheCounters,
    /// L2 data-side counters (see `l2i`).
    pub l2d: CacheCounters,
    /// Whether the L2 is unified.
    pub unified: bool,
}

impl CacheSystemCounters {
    /// The instruction side viewed as a two-level hierarchy.
    pub fn instruction_side(&self) -> HierarchyCounters {
        HierarchyCounters { l1: self.l1i, l2: self.l2i }
    }

    /// The data side viewed as a two-level hierarchy.
    pub fn data_side(&self) -> HierarchyCounters {
        HierarchyCounters { l1: self.l1d, l2: self.l2d }
    }
}

/// Split L1 I/D caches over a split or unified L2 — everything one
/// simulated machine's memory side needs.
///
/// ```
/// use vm_cache::{Cache, CacheConfig, CacheSystem};
/// use vm_types::{MAddr, MissClass};
///
/// # fn main() -> Result<(), vm_cache::CacheGeometryError> {
/// let l1 = CacheConfig::direct_mapped(16 << 10, 64)?;
/// let l2 = CacheConfig::direct_mapped(2 << 20, 128)?;
/// let mut caches = CacheSystem::unified(Cache::new(l1), Cache::new(l1), Cache::new(l2));
///
/// let a = MAddr::user(0x4000);
/// assert_eq!(caches.data(a), MissClass::Memory);
/// // In a unified L2, a fetch of the same line hits at the L2 level.
/// assert_eq!(caches.fetch(a), MissClass::L2Hit);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CacheSystem {
    l1i: Cache,
    l1d: Cache,
    l2: L2,
}

impl CacheSystem {
    /// The paper's organization: split caches at both levels.
    pub fn split(l1i: Cache, l1d: Cache, l2i: Cache, l2d: Cache) -> CacheSystem {
        CacheSystem { l1i, l1d, l2: L2::Split { i: l2i, d: l2d } }
    }

    /// Split L1s over one shared L2 (the ablation variant).
    pub fn unified(l1i: Cache, l1d: Cache, l2: Cache) -> CacheSystem {
        CacheSystem { l1i, l1d, l2: L2::Unified(l2) }
    }

    /// Whether the L2 is unified.
    pub fn is_unified(&self) -> bool {
        matches!(self.l2, L2::Unified(_))
    }

    #[inline]
    fn l2_for_fetch(&mut self) -> &mut Cache {
        match &mut self.l2 {
            L2::Split { i, .. } => i,
            L2::Unified(u) => u,
        }
    }

    #[inline]
    fn l2_for_data(&mut self) -> &mut Cache {
        match &mut self.l2 {
            L2::Split { d, .. } => d,
            L2::Unified(u) => u,
        }
    }

    /// An instruction fetch: L1I, then the (split or unified) L2.
    #[inline]
    pub fn fetch(&mut self, addr: MAddr) -> MissClass {
        if self.l1i.access(addr) {
            MissClass::L1Hit
        } else if self.l2_for_fetch().access(addr) {
            MissClass::L2Hit
        } else {
            MissClass::Memory
        }
    }

    /// As [`CacheSystem::fetch`], additionally reporting which levels'
    /// fills displaced valid lines. Identical side effects to `fetch`.
    pub fn fetch_observed(&mut self, addr: MAddr) -> (MissClass, FillInfo) {
        let mut fill = FillInfo::default();
        let (l1_hit, l1_evicted) = self.l1i.access_observed(addr);
        fill.l1_evicted = l1_evicted;
        if l1_hit {
            return (MissClass::L1Hit, fill);
        }
        let (l2_hit, l2_evicted) = self.l2_for_fetch().access_observed(addr);
        fill.l2_evicted = l2_evicted;
        if l2_hit {
            (MissClass::L2Hit, fill)
        } else {
            (MissClass::Memory, fill)
        }
    }

    /// A data reference: L1D, then the (split or unified) L2.
    #[inline]
    pub fn data(&mut self, addr: MAddr) -> MissClass {
        if self.l1d.access(addr) {
            MissClass::L1Hit
        } else if self.l2_for_data().access(addr) {
            MissClass::L2Hit
        } else {
            MissClass::Memory
        }
    }

    /// As [`CacheSystem::data`], additionally reporting which levels'
    /// fills displaced valid lines. Identical side effects to `data`.
    pub fn data_observed(&mut self, addr: MAddr) -> (MissClass, FillInfo) {
        let mut fill = FillInfo::default();
        let (l1_hit, l1_evicted) = self.l1d.access_observed(addr);
        fill.l1_evicted = l1_evicted;
        if l1_hit {
            return (MissClass::L1Hit, fill);
        }
        let (l2_hit, l2_evicted) = self.l2_for_data().access_observed(addr);
        fill.l2_evicted = l2_evicted;
        if l2_hit {
            (MissClass::L2Hit, fill)
        } else {
            (MissClass::Memory, fill)
        }
    }

    /// A `bytes`-wide data reference that may straddle lines; the worst
    /// covered line's class is returned (blocking caches serialize the
    /// fills).
    pub fn data_span(&mut self, addr: MAddr, bytes: u64) -> MissClass {
        let bytes = bytes.max(1);
        let shift = self.l1d.config().line_shift().min(match &self.l2 {
            L2::Split { d, .. } => d.config().line_shift(),
            L2::Unified(u) => u.config().line_shift(),
        });
        let step = 1u64 << shift;
        let first = addr.raw() >> shift;
        let last = (addr.raw() + bytes - 1) >> shift;
        let line_base = addr.offset() & !(step - 1);
        let mut worst = MissClass::L1Hit;
        for i in 0..=(last - first) {
            let probe = if i == 0 { addr } else { addr.with_offset(line_base + i * step) };
            worst = worst.max(self.data(probe));
        }
        worst
    }

    /// As [`CacheSystem::data_span`], additionally reporting whether any
    /// covered line's fill displaced a valid line at each level.
    /// Identical side effects to `data_span`.
    pub fn data_span_observed(&mut self, addr: MAddr, bytes: u64) -> (MissClass, FillInfo) {
        let bytes = bytes.max(1);
        let shift = self.l1d.config().line_shift().min(match &self.l2 {
            L2::Split { d, .. } => d.config().line_shift(),
            L2::Unified(u) => u.config().line_shift(),
        });
        let step = 1u64 << shift;
        let first = addr.raw() >> shift;
        let last = (addr.raw() + bytes - 1) >> shift;
        let line_base = addr.offset() & !(step - 1);
        let mut worst = MissClass::L1Hit;
        let mut fill = FillInfo::default();
        for i in 0..=(last - first) {
            let probe = if i == 0 { addr } else { addr.with_offset(line_base + i * step) };
            let (class, f) = self.data_observed(probe);
            worst = worst.max(class);
            fill.merge(f);
        }
        (worst, fill)
    }

    /// All counters.
    pub fn counters(&self) -> CacheSystemCounters {
        let (l2i, l2d, unified) = match &self.l2 {
            L2::Split { i, d } => (i.counters(), d.counters(), false),
            L2::Unified(u) => (u.counters(), u.counters(), true),
        };
        CacheSystemCounters {
            l1i: self.l1i.counters(),
            l1d: self.l1d.counters(),
            l2i,
            l2d,
            unified,
        }
    }

    /// Resets counters, keeping contents.
    pub fn reset_counters(&mut self) {
        self.l1i.reset_counters();
        self.l1d.reset_counters();
        match &mut self.l2 {
            L2::Split { i, d } => {
                i.reset_counters();
                d.reset_counters();
            }
            L2::Unified(u) => u.reset_counters(),
        }
    }

    /// Invalidates every level.
    pub fn flush(&mut self) {
        self.l1i.flush();
        self.l1d.flush();
        match &mut self.l2 {
            L2::Split { i, d } => {
                i.flush();
                d.flush();
            }
            L2::Unified(u) => u.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;

    fn cache(size: u64, line: u64) -> Cache {
        Cache::new(CacheConfig::direct_mapped(size, line).unwrap())
    }

    fn split_sys() -> CacheSystem {
        CacheSystem::split(
            cache(1 << 10, 32),
            cache(1 << 10, 32),
            cache(1 << 14, 64),
            cache(1 << 14, 64),
        )
    }

    fn unified_sys() -> CacheSystem {
        CacheSystem::unified(cache(1 << 10, 32), cache(1 << 10, 32), cache(1 << 15, 64))
    }

    #[test]
    fn split_sides_do_not_share_the_l2() {
        let mut s = split_sys();
        assert!(!s.is_unified());
        let a = MAddr::user(0x4000);
        assert_eq!(s.data(a), MissClass::Memory);
        // Fetch of the same address must also go to memory: separate L2s.
        assert_eq!(s.fetch(a), MissClass::Memory);
    }

    #[test]
    fn unified_l2_shares_lines_between_sides() {
        let mut s = unified_sys();
        assert!(s.is_unified());
        let a = MAddr::user(0x4000);
        assert_eq!(s.data(a), MissClass::Memory);
        assert_eq!(s.fetch(a), MissClass::L2Hit);
        // ...and counters on both L2 views are the same object.
        let k = s.counters();
        assert!(k.unified);
        assert_eq!(k.l2i, k.l2d);
        assert_eq!(k.l2i.accesses, 2);
    }

    #[test]
    fn unified_l2_sides_contend() {
        // Fill the unified L2 with data lines, then show a conflicting
        // fetch evicts one (same index, different tag).
        let mut s =
            CacheSystem::unified(cache(1 << 10, 32), cache(1 << 10, 32), cache(1 << 12, 32));
        let d = MAddr::user(0x0);
        let i = MAddr::user(1 << 12); // same L2 index as d
        s.data(d);
        s.fetch(i); // evicts d's line in the unified L2
                    // Evict d from its tiny L1 too, then re-access: memory, not L2.
        for n in 1..64u64 {
            s.data(MAddr::user(n << 10));
        }
        assert_eq!(s.data(d), MissClass::Memory);
    }

    #[test]
    fn counters_partition_by_side_at_l1() {
        let mut s = split_sys();
        s.fetch(MAddr::user(0));
        s.fetch(MAddr::user(0));
        s.data(MAddr::user(0x100));
        let k = s.counters();
        assert_eq!(k.l1i.accesses, 2);
        assert_eq!(k.l1i.hits, 1);
        assert_eq!(k.l1d.accesses, 1);
        assert_eq!(k.instruction_side().l1.accesses, 2);
        assert_eq!(k.data_side().l1.accesses, 1);
    }

    #[test]
    fn span_touches_all_lines() {
        let mut s = split_sys();
        assert_eq!(s.data_span(MAddr::user(0x48), 16), MissClass::Memory);
        assert_eq!(s.data(MAddr::user(0x40)), MissClass::L1Hit);
        assert_eq!(s.data(MAddr::user(0x50)), MissClass::L1Hit);
    }

    #[test]
    fn observed_variants_match_plain_access() {
        let mut plain = split_sys();
        let mut observed = split_sys();
        for n in 0..256u64 {
            let a = MAddr::user((n * 97) % 0x3000);
            assert_eq!(plain.fetch(a), observed.fetch_observed(a).0);
            assert_eq!(plain.data(a), observed.data_observed(a).0);
        }
        assert_eq!(plain.counters(), observed.counters());
    }

    #[test]
    fn observed_span_reports_evictions() {
        // 1 KB direct-mapped L1s (32 lines of 32 B): stride by 1 KB to
        // force conflicts, then check the span variant flags the victim.
        let mut s = split_sys();
        let (_, cold) = s.data_span_observed(MAddr::user(0x48), 16);
        assert!(!cold.l1_evicted && !cold.l2_evicted, "cold fills evict nothing");
        let (_, conflict) = s.data_span_observed(MAddr::user(0x48 + 1024), 16);
        assert!(conflict.l1_evicted, "same-index refill must displace the line");
    }

    #[test]
    fn flush_and_reset() {
        let mut s = unified_sys();
        let a = MAddr::user(0x40);
        s.data(a);
        s.reset_counters();
        assert_eq!(s.counters().l1d.accesses, 0);
        assert_eq!(s.data(a), MissClass::L1Hit); // contents kept
        s.flush();
        assert_eq!(s.data(a), MissClass::Memory);
    }
}

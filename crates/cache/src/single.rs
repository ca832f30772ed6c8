//! A single cache level.

use vm_types::MAddr;

use crate::config::CacheConfig;

/// Sentinel tag for an empty (never filled) way.
const EMPTY: u64 = u64::MAX;

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Total probe count.
    pub accesses: u64,
    /// Probes that found their line resident.
    pub hits: u64,
}

impl CacheCounters {
    /// Probes that missed.
    #[inline]
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Miss ratio in `[0, 1]`; zero when no accesses were made.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }
}

/// One level of a virtually-addressed, blocking, write-allocate,
/// write-through cache.
///
/// Because the simulated caches are write-through, there is no dirty
/// state: a probe either hits or [fills](Cache::access) the line over
/// whatever the replacement policy evicts. Stores behave identically to
/// loads (write-allocate), so the model exposes a single access method.
///
/// Ways within a set are kept in recency order (most recent first), which
/// makes direct-mapped behaviour a trivial special case and gives LRU for
/// the set-associative ablation.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `ways[set * ways_per_set + way]` holds the line tag, MRU first.
    ways: Vec<u64>,
    ways_per_set: usize,
    set_mask: u64,
    line_shift: u32,
    counters: CacheCounters,
}

impl Cache {
    /// Creates a cold cache with the given geometry.
    pub fn new(config: CacheConfig) -> Cache {
        let ways_per_set = config.associativity().ways() as usize;
        let sets = config.sets();
        Cache {
            config,
            ways: vec![EMPTY; (sets as usize) * ways_per_set],
            ways_per_set,
            set_mask: sets - 1,
            line_shift: config.line_shift(),
            counters: CacheCounters::default(),
        }
    }

    /// The geometry this cache was built with.
    #[inline]
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated hit/miss counters.
    #[inline]
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Resets the counters without disturbing cache contents. Used to
    /// separate warm-up from measurement.
    pub fn reset_counters(&mut self) {
        self.counters = CacheCounters::default();
    }

    /// Invalidates every line (and leaves counters untouched).
    pub fn flush(&mut self) {
        self.ways.fill(EMPTY);
    }

    /// The line-granular tag of an address (line number across the tagged
    /// 64-bit model address, so distinct address spaces never alias).
    #[inline]
    fn line_of(&self, addr: MAddr) -> u64 {
        addr.raw() >> self.line_shift
    }

    /// Probes for `addr` **without** updating contents or counters.
    pub fn peek(&self, addr: MAddr) -> bool {
        let line = self.line_of(addr);
        let set = (line & self.set_mask) as usize;
        let base = set * self.ways_per_set;
        self.ways[base..base + self.ways_per_set].contains(&line)
    }

    /// Probes for `addr`, filling the line on a miss (write-allocate) and
    /// promoting it to most-recently-used. Returns `true` on a hit.
    #[inline]
    pub fn access(&mut self, addr: MAddr) -> bool {
        self.access_observed(addr).0
    }

    /// As [`Cache::access`], additionally reporting whether the fill
    /// displaced a *valid* line (`(hit, evicted)`); a fill into a
    /// never-used frame is not an eviction. Identical side effects to
    /// `access` — the extra bool exists for the observability layer.
    #[inline]
    pub fn access_observed(&mut self, addr: MAddr) -> (bool, bool) {
        let line = self.line_of(addr);
        let set = (line & self.set_mask) as usize;
        self.counters.accesses += 1;
        if self.ways_per_set == 1 {
            // Direct-mapped (every paper machine): one compare, one store.
            let way = &mut self.ways[set];
            if *way == line {
                self.counters.hits += 1;
                return (true, false);
            }
            let evicted = *way != EMPTY;
            *way = line;
            return (false, evicted);
        }
        let base = set * self.ways_per_set;
        let ways = &mut self.ways[base..base + self.ways_per_set];

        match ways.iter().position(|&t| t == line) {
            Some(0) => {
                self.counters.hits += 1;
                (true, false)
            }
            Some(pos) => {
                // Promote to MRU.
                ways[..=pos].rotate_right(1);
                self.counters.hits += 1;
                (true, false)
            }
            None => {
                // Evict LRU (the last way) and install at MRU.
                let evicted = ways[self.ways_per_set - 1] != EMPTY;
                ways.rotate_right(1);
                ways[0] = line;
                (false, evicted)
            }
        }
    }

    /// Accesses every line covered by `[addr, addr + bytes)` and returns
    /// `true` only if *all* of them hit. `bytes == 0` is treated as 1.
    ///
    /// The simulator uses this for the PA-RISC organization's 16-byte PTEs,
    /// which span two lines when the line size is 16 bytes and the entry is
    /// in the collision-resolution table at an unaligned slot.
    pub fn access_span(&mut self, addr: MAddr, bytes: u64) -> bool {
        let bytes = bytes.max(1);
        let first = addr.raw() >> self.line_shift;
        let last = (addr.raw() + bytes - 1) >> self.line_shift;
        let line_base = addr.offset() & !((1u64 << self.line_shift) - 1);
        let mut all_hit = true;
        for line in first..=last {
            let within = (line - first) << self.line_shift;
            let probe = if line == first { addr } else { addr.with_offset(line_base + within) };
            all_hit &= self.access(probe);
        }
        all_hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Associativity;

    fn dm(size: u64, line: u64) -> Cache {
        Cache::new(CacheConfig::direct_mapped(size, line).unwrap())
    }

    #[test]
    fn cold_cache_misses_then_hits() {
        let mut c = dm(1024, 32);
        let a = MAddr::user(0x40);
        assert!(!c.access(a));
        assert!(c.access(a));
        assert_eq!(c.counters().accesses, 2);
        assert_eq!(c.counters().hits, 1);
        assert_eq!(c.counters().misses(), 1);
    }

    #[test]
    fn same_line_hits_different_line_misses() {
        let mut c = dm(1024, 32);
        assert!(!c.access(MAddr::user(0x40)));
        assert!(c.access(MAddr::user(0x5f))); // same 32-B line
        assert!(!c.access(MAddr::user(0x60))); // next line
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = dm(1024, 32); // 32 lines
        let a = MAddr::user(0x0);
        let b = MAddr::user(1024); // same index, different tag
        assert!(!c.access(a));
        assert!(!c.access(b)); // evicts a
        assert!(!c.access(a)); // a was evicted
    }

    #[test]
    fn different_spaces_contend_but_do_not_alias() {
        let mut c = dm(1024, 32);
        let u = MAddr::user(0x100);
        let p = MAddr::physical(0x100);
        assert!(!c.access(u));
        assert!(!c.access(p)); // same index -> evicts u (direct-mapped)
        assert!(!c.access(u)); // must re-miss: no false hit across spaces
    }

    #[test]
    fn two_way_set_keeps_both_conflicting_lines() {
        let cfg = CacheConfig::set_associative(1024, 32, Associativity::Ways(2)).unwrap();
        let mut c = Cache::new(cfg);
        let a = MAddr::user(0x0);
        let b = MAddr::user(1024); // with 16 sets these share a set
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(c.access(a));
        assert!(c.access(b));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let cfg = CacheConfig::set_associative(64, 16, Associativity::Ways(2)).unwrap();
        let mut c = Cache::new(cfg); // 2 sets x 2 ways
                                     // Three lines mapping to set 0 (line numbers even).
        let a = MAddr::user(0x00);
        let b = MAddr::user(0x40);
        let d = MAddr::user(0x80);
        c.access(a);
        c.access(b);
        c.access(a); // a is MRU, b is LRU
        assert!(!c.access(d)); // evicts b
        assert!(c.access(a));
        assert!(!c.access(b));
    }

    #[test]
    fn peek_does_not_disturb_state_or_counters() {
        let mut c = dm(1024, 32);
        let a = MAddr::user(0x40);
        assert!(!c.peek(a));
        assert_eq!(c.counters().accesses, 0);
        c.access(a);
        assert!(c.peek(a));
        assert_eq!(c.counters().accesses, 1);
    }

    #[test]
    fn flush_invalidates_contents() {
        let mut c = dm(1024, 32);
        let a = MAddr::user(0x40);
        c.access(a);
        c.flush();
        assert!(!c.access(a));
    }

    #[test]
    fn reset_counters_keeps_contents() {
        let mut c = dm(1024, 32);
        let a = MAddr::user(0x40);
        c.access(a);
        c.reset_counters();
        assert_eq!(c.counters().accesses, 0);
        assert!(c.access(a)); // still resident
    }

    #[test]
    fn span_crossing_line_boundary_touches_both_lines() {
        let mut c = dm(1024, 16);
        // 16-byte access starting 8 bytes into a line covers two lines.
        assert!(!c.access_span(MAddr::user(0x48), 16));
        assert!(c.peek(MAddr::user(0x40)));
        assert!(c.peek(MAddr::user(0x50)));
        assert!(c.access_span(MAddr::user(0x48), 16));
    }

    #[test]
    fn span_within_line_is_single_access() {
        let mut c = dm(1024, 64);
        assert!(!c.access_span(MAddr::user(0x40), 16));
        assert_eq!(c.counters().accesses, 1);
    }

    #[test]
    fn observed_access_reports_evictions() {
        let mut c = dm(1024, 32); // 32 lines
        let a = MAddr::user(0x0);
        let b = MAddr::user(1024); // same index, different tag
        assert_eq!(c.access_observed(a), (false, false)); // cold fill
        assert_eq!(c.access_observed(a), (true, false)); // hit
        assert_eq!(c.access_observed(b), (false, true)); // displaces a
        assert_eq!(c.access_observed(a), (false, true)); // displaces b
    }

    #[test]
    fn miss_ratio_is_sane() {
        let mut c = dm(1024, 32);
        assert_eq!(c.counters().miss_ratio(), 0.0);
        c.access(MAddr::user(0));
        c.access(MAddr::user(0));
        assert!((c.counters().miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_respected_full_working_set_hits() {
        // Touch exactly as many distinct lines as the cache holds; with a
        // direct-mapped cache and stride = line size they all co-reside.
        let mut c = dm(1024, 32);
        for i in 0..32u64 {
            assert!(!c.access(MAddr::user(i * 32)));
        }
        for i in 0..32u64 {
            assert!(c.access(MAddr::user(i * 32)));
        }
    }
}

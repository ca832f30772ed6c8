//! Differential tests of the TLB and cache models against naive
//! reference models.
//!
//! The real [`Tlb`] finds entries through an open-addressed index and a
//! last-hit filter; the real [`Cache`] keeps each set in recency order
//! and takes a fast path when it is direct-mapped. The models here do
//! neither: the TLB is a linear scan over its slots and each cache set
//! is an LRU list. Driven by seeded [`SplitMix64`] streams, every
//! operation's result, every displaced entry and every counter must
//! match step for step.

use jacob_mudge_vm::cache::{Associativity, Cache, CacheConfig};
use jacob_mudge_vm::tlb::{Replacement, Tlb, TlbConfig, TlbCounters};
use jacob_mudge_vm::types::{AddressSpace, MAddr, SplitMix64, Vpn};

/// A TLB as a plain slot array searched front to back, drawing victims
/// from the same [`SplitMix64`] sequence as the real one.
struct ScanTlb {
    config: TlbConfig,
    /// `(page, stamp)`; the stamp is the last use (LRU) or insertion (FIFO).
    slots: Vec<(Option<Vpn>, u64)>,
    rng: SplitMix64,
    tick: u64,
    counters: TlbCounters,
}

impl ScanTlb {
    fn new(config: TlbConfig, seed: u64) -> ScanTlb {
        ScanTlb {
            config,
            slots: vec![(None, 0); config.entries()],
            rng: SplitMix64::new(seed),
            tick: 0,
            counters: TlbCounters::default(),
        }
    }

    fn find(&self, vpn: Vpn) -> Option<usize> {
        self.slots.iter().position(|s| s.0 == Some(vpn))
    }

    fn occupancy(&self) -> usize {
        self.slots.iter().filter(|s| s.0.is_some()).count()
    }

    fn lookup(&mut self, vpn: Vpn) -> bool {
        self.counters.lookups += 1;
        let Some(i) = self.find(vpn) else { return false };
        self.counters.hits += 1;
        if self.config.replacement() == Replacement::Lru {
            self.tick += 1;
            self.slots[i].1 = self.tick;
        }
        true
    }

    fn insert(&mut self, vpn: Vpn, protected: bool) -> Option<Vpn> {
        let p = self.config.protected_slots();
        let (lo, hi) = match (protected, p) {
            (false, _) => (p, self.config.entries()),
            (true, 0) => (0, self.config.entries()),
            (true, _) => (0, p),
        };
        self.counters.insertions += 1;
        self.tick += 1;
        if let Some(i) = self.find(vpn) {
            if (lo..hi).contains(&i) {
                self.slots[i].1 = self.tick;
                return None;
            }
            self.slots[i].0 = None;
        }
        let victim = match (lo..hi).find(|&i| self.slots[i].0.is_none()) {
            Some(free) => free,
            None => {
                self.counters.evictions += 1;
                match self.config.replacement() {
                    Replacement::Random => lo + self.rng.next_below((hi - lo) as u64) as usize,
                    Replacement::Lru | Replacement::Fifo => {
                        let mut oldest = lo;
                        for i in lo..hi {
                            if self.slots[i].1 < self.slots[oldest].1 {
                                oldest = i;
                            }
                        }
                        oldest
                    }
                }
            }
        };
        std::mem::replace(&mut self.slots[victim], (Some(vpn), self.tick)).0
    }

    fn flush(&mut self) {
        self.slots.iter_mut().for_each(|s| s.0 = None);
    }
}

/// A page from a universe of `universe` numbers spread over the user
/// space of two processes and the kernel space, so equal indices in
/// different spaces must never alias.
fn page(r: u64, universe: u64) -> Vpn {
    let i = r % universe;
    match i % 4 {
        0 => Vpn::new(AddressSpace::Kernel, i),
        1 => MAddr::user_in(3, i << 12).vpn(),
        _ => Vpn::new(AddressSpace::User, i),
    }
}

#[test]
fn tlb_matches_a_linear_scan_model() {
    let mut rng = SplitMix64::new(0x71b0_ac1e);
    for replacement in [Replacement::Random, Replacement::Lru, Replacement::Fifo] {
        let edges = [1usize, 2, 3, 4, 5, 8, 16, 17, 127, 128, 129, 511, 512];
        let random = (0..12).map(|_| 1 + rng.next_below(512) as usize).collect::<Vec<_>>();
        for (case, &entries) in edges.iter().chain(&random).enumerate() {
            let protected = match rng.next_below(3) {
                0 => 0,
                1 => entries / 8,
                _ => rng.next_below(entries as u64) as usize,
            };
            let config = TlbConfig::new(entries, protected, replacement).unwrap();
            let seed = rng.next_u64();
            let mut real = Tlb::new(config, seed);
            let mut model = ScanTlb::new(config, seed);
            // A universe a little larger than the TLB, and enough steps
            // to fill it several times, so hits, evictions and
            // partition migrations are all frequent.
            let universe = 2 + entries as u64 * 3 / 2;
            for step in 0..200 + 8 * entries {
                let r = rng.next_u64();
                let v = page(r >> 8, universe);
                let ctx = format!("{replacement} entries {entries} case {case} step {step}");
                match r % 32 {
                    0..=13 => assert_eq!(real.lookup(v), model.lookup(v), "{ctx}"),
                    14..=22 => assert_eq!(real.insert_user(v), model.insert(v, false), "{ctx}"),
                    23..=26 => {
                        assert_eq!(real.insert_protected(v), model.insert(v, true), "{ctx}")
                    }
                    27..=29 => assert_eq!(real.contains(v), model.find(v).is_some(), "{ctx}"),
                    30 => {
                        real.flush();
                        model.flush();
                    }
                    _ => {
                        real.reset_counters();
                        model.counters = TlbCounters::default();
                    }
                }
                assert_eq!(real.counters(), model.counters, "{ctx}");
                assert_eq!(real.occupancy(), model.occupancy(), "{ctx}");
            }
            for i in 0..universe {
                let v = page(i, universe);
                assert_eq!(real.contains(v), model.find(v).is_some(), "{replacement} {entries}");
            }
        }
    }
}

/// A cache as one LRU list of line numbers per set, least recent first.
struct ListCache {
    sets: Vec<Vec<u64>>,
    ways: usize,
    line_bytes: u64,
    accesses: u64,
    hits: u64,
}

impl ListCache {
    fn new(config: CacheConfig) -> ListCache {
        ListCache {
            sets: vec![Vec::new(); config.sets() as usize],
            ways: config.associativity().ways() as usize,
            line_bytes: config.line_bytes(),
            accesses: 0,
            hits: 0,
        }
    }

    fn set_of(&mut self, addr: MAddr) -> (u64, &mut Vec<u64>) {
        let line = addr.raw() / self.line_bytes;
        let set = (line % self.sets.len() as u64) as usize;
        (line, &mut self.sets[set])
    }

    fn peek(&mut self, addr: MAddr) -> bool {
        let (line, set) = self.set_of(addr);
        set.contains(&line)
    }

    /// `(hit, evicted)`, as [`Cache::access_observed`] reports them.
    fn access(&mut self, addr: MAddr) -> (bool, bool) {
        self.accesses += 1;
        let ways = self.ways;
        let (line, set) = self.set_of(addr);
        if let Some(i) = set.iter().position(|&l| l == line) {
            set.remove(i);
            set.push(line);
            self.hits += 1;
            return (true, false);
        }
        let evicted = set.len() == ways;
        if evicted {
            set.remove(0);
        }
        set.push(line);
        (false, evicted)
    }
}

#[test]
fn cache_matches_a_per_set_lru_list_model() {
    let mut rng = SplitMix64::new(0xcac4e);
    for ways in [1u32, 2, 4, 8] {
        for case in 0..16 {
            let line_bytes = 16 << rng.next_below(3);
            let sets = 1 << rng.next_below(7);
            let size = line_bytes * sets * u64::from(ways);
            let assoc =
                if ways == 1 { Associativity::DirectMapped } else { Associativity::Ways(ways) };
            let config = CacheConfig::set_associative(size, line_bytes, assoc).unwrap();
            let mut real = Cache::new(config);
            let mut model = ListCache::new(config);
            // Offsets over a few times the capacity, in three spaces, so
            // conflicts are common and equal offsets must not alias.
            let span = 4 * size;
            for step in 0..4000 {
                let r = rng.next_u64();
                let offset = (r >> 8) % span;
                let addr = match (r >> 4) % 4 {
                    0 => MAddr::kernel(offset),
                    1 => MAddr::physical(offset),
                    _ => MAddr::user(offset),
                };
                let ctx = format!("{ways}-way case {case} step {step} {addr:?}");
                match r % 64 {
                    0 => {
                        real.flush();
                        model.sets.iter_mut().for_each(Vec::clear);
                    }
                    1 => {
                        real.reset_counters();
                        (model.accesses, model.hits) = (0, 0);
                    }
                    2..=9 => assert_eq!(real.peek(addr), model.peek(addr), "{ctx}"),
                    _ => assert_eq!(real.access_observed(addr), model.access(addr), "{ctx}"),
                }
                let c = real.counters();
                assert_eq!((c.accesses, c.hits), (model.accesses, model.hits), "{ctx}");
            }
        }
    }
}

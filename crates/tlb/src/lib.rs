//! Translation lookaside buffer models for the Jacob & Mudge
//! (ASPLOS 1998) reproduction.
//!
//! Table 1 of the paper fixes the TLB organization: split 128-entry
//! instruction and data TLBs, **fully associative with random
//! replacement** ("similar to MIPS"). The MIPS-flavoured simulations
//! (ULTRIX, MACH) additionally *partition* each TLB, reserving the 16
//! lower slots as **protected** entries that hold kernel-level PTEs — the
//! mappings of the user page table itself — so that a burst of user misses
//! cannot evict the very entries needed to service them. The INTEL and
//! PA-RISC simulations leave all 128 slots available to user entries.
//!
//! [`Tlb`] implements exactly that: a fully-associative array with an
//! optional protected partition and pluggable replacement
//! ([`Replacement::Random`] as in the paper, plus LRU/FIFO for the
//! replacement-policy ablation).
//!
//! # Example
//!
//! ```
//! use vm_tlb::{Replacement, Tlb, TlbConfig};
//! use vm_types::{AddressSpace, MAddr, Vpn};
//!
//! # fn main() -> Result<(), vm_tlb::TlbConfigError> {
//! let mut tlb = Tlb::new(TlbConfig::paper_mips()?, 42);
//! let page = MAddr::user(0x4000).vpn();
//! assert!(!tlb.lookup(page));          // cold miss
//! tlb.insert_user(page);
//! assert!(tlb.lookup(page));           // now mapped
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

use vm_types::{SplitMix64, Vpn};

/// Replacement policy for a fully-associative [`Tlb`] partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Replacement {
    /// Uniform random choice among the partition's slots — the paper's
    /// policy ("fully associative with random replacement", Table 1).
    Random,
    /// Evict the least-recently *used* entry (ablation).
    Lru,
    /// Evict the oldest *inserted* entry (ablation).
    Fifo,
}

impl Replacement {
    /// Resolves a policy name (case-insensitive: `random`, `lru`,
    /// `fifo`) — the spellings system spec files use.
    pub fn parse(s: &str) -> Option<Replacement> {
        [Replacement::Random, Replacement::Lru, Replacement::Fifo]
            .into_iter()
            .find(|r| r.to_string().eq_ignore_ascii_case(s))
    }
}

impl fmt::Display for Replacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Replacement::Random => "random",
            Replacement::Lru => "LRU",
            Replacement::Fifo => "FIFO",
        };
        f.write_str(name)
    }
}

/// Validated TLB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TlbConfig {
    entries: usize,
    protected_slots: usize,
    replacement: Replacement,
}

impl TlbConfig {
    /// A TLB with `entries` slots, of which the `protected_slots` lowest
    /// are reserved for kernel-level (protected) insertions.
    ///
    /// # Errors
    ///
    /// Returns [`TlbConfigError`] if `entries` is zero or the protected
    /// partition does not leave at least one user slot.
    pub fn new(
        entries: usize,
        protected_slots: usize,
        replacement: Replacement,
    ) -> Result<TlbConfig, TlbConfigError> {
        if entries == 0 {
            return Err(TlbConfigError {
                entries,
                protected_slots,
                what: "TLB must have at least one entry",
            });
        }
        if protected_slots >= entries {
            return Err(TlbConfigError {
                entries,
                protected_slots,
                what: "protected partition must leave at least one user slot",
            });
        }
        Ok(TlbConfig { entries, protected_slots, replacement })
    }

    /// The MIPS-flavoured configuration of the ULTRIX/MACH simulations:
    /// 128 entries, 16 protected lower slots, random replacement.
    ///
    /// # Errors
    ///
    /// Never fails in practice; kept fallible for API uniformity.
    pub fn paper_mips() -> Result<TlbConfig, TlbConfigError> {
        TlbConfig::new(128, 16, Replacement::Random)
    }

    /// The unpartitioned configuration of the INTEL/PA-RISC simulations:
    /// 128 entries, no protected slots, random replacement.
    ///
    /// # Errors
    ///
    /// Never fails in practice; kept fallible for API uniformity.
    pub fn paper_flat() -> Result<TlbConfig, TlbConfigError> {
        TlbConfig::new(128, 0, Replacement::Random)
    }

    /// Total slot count.
    #[inline]
    pub fn entries(self) -> usize {
        self.entries
    }

    /// Slots reserved for protected (kernel-level) entries.
    #[inline]
    pub fn protected_slots(self) -> usize {
        self.protected_slots
    }

    /// Slots available to user-level entries.
    #[inline]
    pub fn user_slots(self) -> usize {
        self.entries - self.protected_slots
    }

    /// The replacement policy.
    #[inline]
    pub fn replacement(self) -> Replacement {
        self.replacement
    }
}

/// Error returned for a degenerate TLB geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TlbConfigError {
    entries: usize,
    protected_slots: usize,
    what: &'static str,
}

impl fmt::Display for TlbConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid TLB geometry ({} entries, {} protected): {}",
            self.entries, self.protected_slots, self.what
        )
    }
}

impl Error for TlbConfigError {}

/// Lookup / insertion counters for one TLB.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbCounters {
    /// Translations attempted.
    pub lookups: u64,
    /// Translations satisfied by a resident entry.
    pub hits: u64,
    /// Entries installed (user + protected).
    pub insertions: u64,
    /// Valid entries displaced to make room.
    pub evictions: u64,
}

impl TlbCounters {
    /// Lookups that missed.
    #[inline]
    pub fn misses(&self) -> u64 {
        self.lookups - self.hits
    }

    /// Miss ratio in `[0, 1]`; zero when idle.
    pub fn miss_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.misses() as f64 / self.lookups as f64
        }
    }
}

/// The key no [`Vpn`] can take: page numbers are at most 52 bits wide
/// (a 64-bit tagged address shifted right by the page offset).
const NO_KEY: u64 = u64::MAX;

/// An open-addressed `Vpn -> slot` map owned by a [`Tlb`].
///
/// Linear probing over a power-of-two table at least twice the TLB's
/// entry count, so it is never more than half full and a probe always
/// reaches an empty bucket. Deletion shifts the rest of the probe run
/// back (no tombstones), so a lookup never scans past a run that a
/// deleted key used to extend.
#[derive(Debug, Clone)]
struct SlotIndex {
    keys: Vec<u64>,
    slots: Vec<usize>,
    /// `64 - log2(capacity)`: the multiplicative hash keeps the top bits.
    shift: u32,
    len: usize,
}

impl SlotIndex {
    fn new(entries: usize) -> SlotIndex {
        let capacity = (2 * entries).next_power_of_two();
        SlotIndex {
            keys: vec![NO_KEY; capacity],
            slots: vec![0; capacity],
            shift: 64 - capacity.trailing_zeros(),
            len: 0,
        }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.keys.len() - 1
    }

    /// Fibonacci hashing: the top bits of `key × 2^64/φ`.
    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// The bucket holding `key`, or the empty bucket that ends its run.
    #[inline]
    fn bucket(&self, key: u64) -> usize {
        let mask = self.mask();
        let mut i = self.home(key);
        while self.keys[i] != key && self.keys[i] != NO_KEY {
            i = (i + 1) & mask;
        }
        i
    }

    #[inline]
    fn get(&self, vpn: Vpn) -> Option<usize> {
        let i = self.bucket(vpn.raw());
        (self.keys[i] != NO_KEY).then(|| self.slots[i])
    }

    /// Maps `vpn` to `slot`, replacing any previous mapping.
    fn insert(&mut self, vpn: Vpn, slot: usize) {
        let key = vpn.raw();
        assert_ne!(key, NO_KEY, "a page number collides with the empty-bucket key");
        let i = self.bucket(key);
        if self.keys[i] == NO_KEY {
            self.keys[i] = key;
            self.len += 1;
        }
        self.slots[i] = slot;
    }

    /// Unmaps `vpn` if mapped.
    fn remove(&mut self, vpn: Vpn) {
        let mask = self.mask();
        let mut hole = self.bucket(vpn.raw());
        if self.keys[hole] == NO_KEY {
            return;
        }
        self.len -= 1;
        // Backward-shift deletion: pull each later key of the run into
        // the hole unless the hole lies before its home bucket.
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let key = self.keys[j];
            if key == NO_KEY {
                break;
            }
            let home = self.home(key);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.keys[hole] = key;
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.keys[hole] = NO_KEY;
    }

    fn clear(&mut self) {
        self.keys.fill(NO_KEY);
        self.len = 0;
    }
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    vpn: Option<Vpn>,
    /// Recency stamp (LRU) or insertion stamp (FIFO); unused for Random.
    stamp: u64,
}

/// A fully-associative TLB with an optional protected partition.
///
/// Entries map a [`Vpn`] to "present" — the paper's simulator needs no
/// translation *result*, only hit/miss behaviour, because the caches are
/// virtually addressed. (The PA-RISC page table stores PFNs, but that
/// lives in [`vm-ptable`](https://docs.rs/vm-ptable), not here.)
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    slots: Vec<Slot>,
    index: SlotIndex,
    /// The slot of the last hit, probed before `index`. The slot itself
    /// is the truth: an entry evicted, flushed or migrated since then
    /// no longer matches, so the filter never needs invalidating.
    last: usize,
    rng: SplitMix64,
    tick: u64,
    counters: TlbCounters,
}

impl Tlb {
    /// Creates an empty TLB. `seed` drives random replacement; the same
    /// seed reproduces the same eviction sequence.
    pub fn new(config: TlbConfig, seed: u64) -> Tlb {
        Tlb {
            config,
            slots: vec![Slot { vpn: None, stamp: 0 }; config.entries()],
            index: SlotIndex::new(config.entries()),
            last: 0,
            rng: SplitMix64::new(seed),
            tick: 0,
            counters: TlbCounters::default(),
        }
    }

    /// The geometry this TLB was built with.
    #[inline]
    pub fn config(&self) -> TlbConfig {
        self.config
    }

    /// Accumulated counters.
    #[inline]
    pub fn counters(&self) -> TlbCounters {
        self.counters
    }

    /// Number of currently valid entries.
    pub fn occupancy(&self) -> usize {
        self.index.len
    }

    /// Resets counters, keeping contents (for warm-up separation).
    pub fn reset_counters(&mut self) {
        self.counters = TlbCounters::default();
    }

    /// Invalidates all entries.
    pub fn flush(&mut self) {
        for slot in &mut self.slots {
            slot.vpn = None;
        }
        self.index.clear();
    }

    /// Translates `vpn`, updating counters and (for LRU) recency.
    /// Returns `true` on a hit.
    #[inline]
    pub fn lookup(&mut self, vpn: Vpn) -> bool {
        self.counters.lookups += 1;
        let slot = if self.slots[self.last].vpn == Some(vpn) {
            self.last
        } else if let Some(slot) = self.index.get(vpn) {
            self.last = slot;
            slot
        } else {
            return false;
        };
        self.counters.hits += 1;
        if self.config.replacement() == Replacement::Lru {
            self.tick += 1;
            self.slots[slot].stamp = self.tick;
        }
        true
    }

    /// Checks residency without counting or touching recency.
    pub fn contains(&self, vpn: Vpn) -> bool {
        self.index.get(vpn).is_some()
    }

    /// Installs a user-level entry in the user partition. Returns the
    /// valid entry displaced to make room, if any.
    pub fn insert_user(&mut self, vpn: Vpn) -> Option<Vpn> {
        let lo = self.config.protected_slots();
        let hi = self.config.entries();
        self.insert_in(vpn, lo, hi)
    }

    /// Installs a protected (kernel-level) entry. Returns the valid entry
    /// displaced to make room, if any.
    ///
    /// With a partitioned configuration this uses the reserved lower
    /// slots, mirroring the ULTRIX/MACH simulations; with no protected
    /// partition it falls back to the whole array.
    pub fn insert_protected(&mut self, vpn: Vpn) -> Option<Vpn> {
        let hi = if self.config.protected_slots() > 0 {
            self.config.protected_slots()
        } else {
            self.config.entries()
        };
        self.insert_in(vpn, 0, hi)
    }

    fn insert_in(&mut self, vpn: Vpn, lo: usize, hi: usize) -> Option<Vpn> {
        self.counters.insertions += 1;
        self.tick += 1;
        if let Some(slot) = self.index.get(vpn) {
            if (lo..hi).contains(&slot) {
                // Refresh an already-resident entry in place.
                self.slots[slot].stamp = self.tick;
                return None;
            }
            // Resident in the other partition: migrate, so a promotion to
            // the protected partition actually protects (and vice versa).
            self.slots[slot].vpn = None;
            self.index.remove(vpn);
        }
        // Prefer an invalid slot in the partition.
        let victim = match self.slots[lo..hi].iter().position(|s| s.vpn.is_none()) {
            Some(free) => lo + free,
            None => {
                self.counters.evictions += 1;
                match self.config.replacement() {
                    Replacement::Random => lo + self.rng.next_below((hi - lo) as u64) as usize,
                    Replacement::Lru | Replacement::Fifo => {
                        let (victim, _) = self.slots[lo..hi]
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, s)| s.stamp)
                            .expect("partition is non-empty");
                        lo + victim
                    }
                }
            }
        };
        let displaced = self.slots[victim].vpn.take();
        if let Some(old) = displaced {
            self.index.remove(old);
        }
        self.slots[victim] = Slot { vpn: Some(vpn), stamp: self.tick };
        self.index.insert(vpn, victim);
        displaced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm_types::AddressSpace;

    fn vpn(i: u64) -> Vpn {
        Vpn::new(AddressSpace::User, i)
    }

    fn kvpn(i: u64) -> Vpn {
        Vpn::new(AddressSpace::Kernel, i)
    }

    fn tiny(entries: usize, protected: usize, repl: Replacement) -> Tlb {
        Tlb::new(TlbConfig::new(entries, protected, repl).unwrap(), 1)
    }

    #[test]
    fn paper_configs_are_valid() {
        let mips = TlbConfig::paper_mips().unwrap();
        assert_eq!(mips.entries(), 128);
        assert_eq!(mips.protected_slots(), 16);
        assert_eq!(mips.user_slots(), 112);
        let flat = TlbConfig::paper_flat().unwrap();
        assert_eq!(flat.user_slots(), 128);
        assert_eq!(flat.replacement(), Replacement::Random);
    }

    #[test]
    fn degenerate_geometries_rejected() {
        assert!(TlbConfig::new(0, 0, Replacement::Random).is_err());
        assert!(TlbConfig::new(16, 16, Replacement::Random).is_err());
        let err = TlbConfig::new(16, 20, Replacement::Random).unwrap_err();
        assert!(err.to_string().contains("user slot"));
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let mut t = tiny(4, 0, Replacement::Random);
        assert!(!t.lookup(vpn(7)));
        t.insert_user(vpn(7));
        assert!(t.lookup(vpn(7)));
        let c = t.counters();
        assert_eq!(c.lookups, 2);
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.insertions, 1);
        assert_eq!(c.evictions, 0);
    }

    #[test]
    fn capacity_eviction_occurs() {
        let mut t = tiny(4, 0, Replacement::Random);
        for i in 0..4 {
            assert_eq!(t.insert_user(vpn(i)), None, "cold fills displace nothing");
        }
        let victim = t.insert_user(vpn(4));
        assert!(victim.is_some(), "a full partition must report its victim");
        assert!(!t.contains(victim.unwrap()));
        assert_eq!(t.occupancy(), 4);
        assert_eq!(t.counters().evictions, 1);
        // Exactly one of the first five pages is gone.
        let resident = (0..5).filter(|&i| t.contains(vpn(i))).count();
        assert_eq!(resident, 4);
    }

    #[test]
    fn reinserting_resident_entry_does_not_evict() {
        let mut t = tiny(2, 0, Replacement::Random);
        t.insert_user(vpn(1));
        t.insert_user(vpn(2));
        t.insert_user(vpn(1)); // refresh
        assert!(t.contains(vpn(1)));
        assert!(t.contains(vpn(2)));
        assert_eq!(t.counters().evictions, 0);
    }

    #[test]
    fn protected_partition_shields_kernel_entries() {
        // 4 user slots + 2 protected. Thrash the user partition hard;
        // protected entries must survive.
        let mut t = tiny(6, 2, Replacement::Random);
        t.insert_protected(kvpn(100));
        t.insert_protected(kvpn(101));
        for i in 0..1000 {
            t.insert_user(vpn(i));
        }
        assert!(t.contains(kvpn(100)));
        assert!(t.contains(kvpn(101)));
        assert_eq!(t.occupancy(), 6);
    }

    #[test]
    fn user_entries_never_occupy_protected_slots() {
        let mut t = tiny(6, 2, Replacement::Random);
        for i in 0..1000 {
            t.insert_user(vpn(i));
        }
        // Only the 4 user slots can be valid.
        assert_eq!(t.occupancy(), 4);
    }

    #[test]
    fn promotion_migrates_between_partitions() {
        // A VPN first installed as a user entry and later promoted to
        // protected must end up in the protected partition (and survive
        // user thrash thereafter).
        let mut t = tiny(6, 2, Replacement::Random);
        t.insert_user(kvpn(42));
        t.insert_protected(kvpn(42));
        for i in 0..1000 {
            t.insert_user(vpn(i));
        }
        assert!(t.contains(kvpn(42)), "promoted entry must be protected");
        // And demotion works symmetrically.
        let mut t = tiny(6, 2, Replacement::Random);
        t.insert_protected(kvpn(7));
        t.insert_user(kvpn(7));
        t.insert_protected(kvpn(1));
        t.insert_protected(kvpn(2));
        t.insert_protected(kvpn(3)); // fills/evicts within protected only
                                     // kvpn(7) now lives in the user partition; the protected churn
                                     // cannot have touched it.
        assert!(t.contains(kvpn(7)));
    }

    #[test]
    fn protected_insert_without_partition_uses_whole_array() {
        let mut t = tiny(4, 0, Replacement::Random);
        t.insert_protected(kvpn(5));
        assert!(t.contains(kvpn(5)));
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn protected_partition_evicts_within_itself() {
        let mut t = tiny(6, 2, Replacement::Random);
        t.insert_protected(kvpn(1));
        t.insert_protected(kvpn(2));
        t.insert_protected(kvpn(3)); // must evict kvpn(1) or kvpn(2)
        let survivors = (1..=3).filter(|&i| t.contains(kvpn(i))).count();
        assert_eq!(survivors, 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut t = tiny(2, 0, Replacement::Lru);
        t.insert_user(vpn(1));
        t.insert_user(vpn(2));
        assert!(t.lookup(vpn(1))); // 1 is now MRU
        t.insert_user(vpn(3)); // evicts 2
        assert!(t.contains(vpn(1)));
        assert!(!t.contains(vpn(2)));
        assert!(t.contains(vpn(3)));
    }

    #[test]
    fn fifo_ignores_lookups() {
        let mut t = tiny(2, 0, Replacement::Fifo);
        t.insert_user(vpn(1));
        t.insert_user(vpn(2));
        assert!(t.lookup(vpn(1))); // does not refresh under FIFO
        t.insert_user(vpn(3)); // evicts 1 (oldest insertion)
        assert!(!t.contains(vpn(1)));
        assert!(t.contains(vpn(2)));
        assert!(t.contains(vpn(3)));
    }

    #[test]
    fn random_replacement_is_seed_deterministic() {
        let cfg = TlbConfig::new(8, 0, Replacement::Random).unwrap();
        let mut a = Tlb::new(cfg, 7);
        let mut b = Tlb::new(cfg, 7);
        for i in 0..100 {
            a.insert_user(vpn(i));
            b.insert_user(vpn(i));
        }
        for i in 0..100 {
            assert_eq!(a.contains(vpn(i)), b.contains(vpn(i)));
        }
    }

    #[test]
    fn flush_empties_everything() {
        let mut t = tiny(4, 2, Replacement::Random);
        t.insert_user(vpn(1));
        t.insert_protected(kvpn(2));
        t.flush();
        assert_eq!(t.occupancy(), 0);
        assert!(!t.contains(vpn(1)));
        assert!(!t.contains(kvpn(2)));
    }

    #[test]
    fn reset_counters_keeps_contents() {
        let mut t = tiny(4, 0, Replacement::Random);
        t.insert_user(vpn(1));
        t.lookup(vpn(1));
        t.reset_counters();
        assert_eq!(t.counters().lookups, 0);
        assert!(t.contains(vpn(1)));
    }

    #[test]
    fn miss_ratio_is_sane() {
        let mut t = tiny(4, 0, Replacement::Random);
        assert_eq!(t.counters().miss_ratio(), 0.0);
        t.lookup(vpn(1));
        t.insert_user(vpn(1));
        t.lookup(vpn(1));
        assert!((t.counters().miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_spaces_do_not_alias() {
        let mut t = tiny(8, 0, Replacement::Random);
        t.insert_user(vpn(3));
        assert!(!t.contains(kvpn(3)));
    }

    #[test]
    fn last_hit_filter_misses_an_evicted_entry() {
        let mut t = tiny(1, 0, Replacement::Fifo);
        t.insert_user(vpn(1));
        assert!(t.lookup(vpn(1)));
        assert_eq!(t.insert_user(vpn(2)), Some(vpn(1)), "the filtered slot is reused");
        assert!(!t.lookup(vpn(1)));
        assert!(t.lookup(vpn(2)));
        assert_eq!(t.counters().hits, 2);
    }

    #[test]
    fn last_hit_filter_misses_after_a_flush() {
        let mut t = tiny(4, 0, Replacement::Random);
        t.insert_user(vpn(1));
        assert!(t.lookup(vpn(1)));
        t.flush();
        assert!(!t.lookup(vpn(1)));
        assert_eq!(t.counters().misses(), 1);
    }

    #[test]
    fn last_hit_filter_follows_a_migration() {
        // 2 protected + 2 user slots.
        let mut t = tiny(4, 2, Replacement::Fifo);
        t.insert_user(kvpn(9));
        assert!(t.lookup(kvpn(9)), "filter now points into the user partition");
        t.insert_protected(kvpn(9));
        assert!(t.lookup(kvpn(9)), "still resident, now protected");
        // Reuse the user slot it left; the filter must not alias it.
        t.insert_user(vpn(1));
        t.insert_user(vpn(2));
        assert!(t.lookup(vpn(1)) && t.lookup(vpn(2)) && t.lookup(kvpn(9)));
        // Demote again and evict it from the user partition.
        t.insert_user(kvpn(9));
        assert!(t.lookup(kvpn(9)));
        while t.contains(kvpn(9)) {
            t.insert_user(vpn(100 + t.counters().insertions));
        }
        assert!(!t.lookup(kvpn(9)));
    }
}

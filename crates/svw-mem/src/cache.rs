//! A set-associative cache model with true-LRU replacement.

use svw_isa::Addr;

/// Geometry and latency of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Access latency in cycles on a hit.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// The paper's L1 caches: 32 KB, 2-way, 2-cycle access, 64-byte lines.
    pub fn paper_l1() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            assoc: 2,
            line_bytes: 64,
            hit_latency: 2,
        }
    }

    /// The paper's L2 cache: 2 MB, 8-way, 15-cycle access, 128-byte lines.
    pub fn paper_l2() -> Self {
        CacheConfig {
            size_bytes: 2 * 1024 * 1024,
            assoc: 8,
            line_bytes: 128,
            hit_latency: 15,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.assoc * self.line_bytes)
    }

    fn validate(&self) {
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(self.assoc >= 1, "associativity must be at least 1");
        assert!(
            self.size_bytes.is_multiple_of(self.assoc * self.line_bytes),
            "capacity must be a whole number of sets"
        );
        assert!(
            self.sets().is_power_of_two(),
            "set count must be a power of two"
        );
    }
}

/// Hit/miss statistics for one cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// Read misses.
    pub read_misses: u64,
    /// Write misses.
    pub write_misses: u64,
    /// Lines evicted while dirty (writeback traffic).
    pub dirty_evictions: u64,
}

#[derive(Clone, Debug)]
struct Line {
    tag: Addr,
    valid: bool,
    dirty: bool,
    /// Larger = more recently used.
    lru: u64,
}

/// A set-associative, write-allocate, writeback cache with true-LRU replacement.
///
/// Only tags are modelled (data lives in the functional [`crate::CommittedMemory`]);
/// the cache exists to produce hit/miss latencies and occupancy statistics for the
/// timing model.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// `log2(line_bytes)`: an address's line number is `addr >> line_shift`.
    line_shift: u32,
    /// `sets - 1`: a line's set is `line & set_mask`.
    set_mask: usize,
    /// `log2(line_bytes * sets)`: an address's tag is `addr >> tag_shift`.
    tag_shift: u32,
    sets: Vec<Vec<Line>>,
    stats: CacheStats,
    tick: u64,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`CacheConfig`]).
    pub fn new(config: CacheConfig) -> Self {
        let mut cache = Cache {
            config,
            line_shift: 0,
            set_mask: 0,
            tag_shift: 0,
            sets: Vec::new(),
            stats: CacheStats::default(),
            tick: 0,
        };
        cache.reset(config);
        cache
    }

    /// Restores the empty (all-invalid) state for `config` — observationally identical
    /// to [`Cache::new`] — reusing the existing set/way storage where the geometry
    /// allows, so a recycled simulation arena does not reallocate cache tag arrays.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`CacheConfig`]).
    pub fn reset(&mut self, config: CacheConfig) {
        config.validate();
        let line = Line {
            tag: 0,
            valid: false,
            dirty: false,
            lru: 0,
        };
        self.sets.resize(config.sets(), Vec::new());
        for set in &mut self.sets {
            set.clear();
            set.resize(config.assoc, line.clone());
        }
        self.config = config;
        // `validate` checked that the line size and the set count are powers of two,
        // so the divides of the set and tag arithmetic are shifts.
        self.line_shift = config.line_bytes.trailing_zeros();
        self.set_mask = config.sets() - 1;
        self.tag_shift = self.line_shift + config.sets().trailing_zeros();
        self.stats = CacheStats::default();
        self.tick = 0;
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    #[inline]
    fn set_index(&self, addr: Addr) -> usize {
        (addr >> self.line_shift) as usize & self.set_mask
    }

    #[inline]
    fn tag_of(&self, addr: Addr) -> Addr {
        addr >> self.tag_shift
    }

    /// Probes the cache without modifying replacement or statistics state.
    pub fn probe(&self, addr: Addr) -> bool {
        let tag = self.tag_of(addr);
        self.sets[self.set_index(addr)]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Performs an access. Returns `true` on a hit, `false` on a miss (in which case
    /// the line is allocated, possibly evicting the LRU way).
    pub fn access(&mut self, addr: Addr, is_write: bool) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let tag = self.tag_of(addr);
        let set_idx = self.set_index(addr);
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        let set = &mut self.sets[set_idx];
        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = tick;
            line.dirty |= is_write;
            return true;
        }
        // Miss: allocate into the LRU way.
        if is_write {
            self.stats.write_misses += 1;
        } else {
            self.stats.read_misses += 1;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
            .expect("cache set has at least one way");
        if victim.valid && victim.dirty {
            self.stats.dirty_evictions += 1;
        }
        victim.valid = true;
        victim.dirty = is_write;
        victim.tag = tag;
        victim.lru = tick;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cache() -> Cache {
        // 2 sets x 2 ways x 64-byte lines = 256 bytes.
        Cache::new(CacheConfig {
            size_bytes: 256,
            assoc: 2,
            line_bytes: 64,
            hit_latency: 2,
        })
    }

    #[test]
    fn paper_geometries_are_consistent() {
        assert_eq!(CacheConfig::paper_l1().sets(), 256);
        assert_eq!(CacheConfig::paper_l2().sets(), 2048);
        let _ = Cache::new(CacheConfig::paper_l1());
        let _ = Cache::new(CacheConfig::paper_l2());
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny_cache();
        assert!(!c.access(0x1000, false));
        assert!(c.access(0x1000, false));
        assert!(c.access(0x1038, false)); // same 64-byte line
        assert_eq!(c.stats().read_misses, 1);
        assert_eq!(c.stats().reads, 3);
    }

    #[test]
    fn lru_replacement_evicts_least_recent() {
        let mut c = tiny_cache();
        // Three lines mapping to set 0 (line addresses 0, 2, 4 with 2 sets).
        let a = 0x000;
        let b = 0x080;
        let d = 0x100;
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a is now MRU
        c.access(d, false); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn write_allocate_and_dirty_eviction() {
        let mut c = tiny_cache();
        c.access(0x000, true); // write miss, allocates dirty
        c.access(0x080, false);
        c.access(0x100, false); // evicts 0x000 (dirty)
        c.access(0x180, false); // evicts 0x080 (clean)
        assert_eq!(c.stats().dirty_evictions, 1);
        assert_eq!(c.stats().write_misses, 1);
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut c = tiny_cache();
        c.access(0x000, false);
        let before = *c.stats();
        assert!(c.probe(0x000));
        assert!(!c.probe(0x080));
        assert_eq!(*c.stats(), before);
    }

    #[test]
    fn miss_rate_computation() {
        let mut c = tiny_cache();
        c.access(0x000, false);
        c.access(0x000, false);
        c.access(0x000, false);
        c.access(0x000, false);
        // A miss rate of 1/4: one cold miss in four reads.
        assert_eq!((c.stats().read_misses, c.stats().reads), (1, 4));
    }

    /// Arena-reuse contract: after heavy use, `reset` must restore a state
    /// observationally identical to `new` — for the same geometry and across a
    /// geometry change.
    #[test]
    fn reset_matches_new() {
        let mut c = tiny_cache();
        for i in 0..100 {
            c.access(i * 0x40, i % 3 == 0);
        }
        c.reset(*tiny_cache().config());
        assert_eq!(format!("{c:?}"), format!("{:?}", tiny_cache()));

        c.reset(CacheConfig::paper_l1());
        assert_eq!(
            format!("{c:?}"),
            format!("{:?}", Cache::new(CacheConfig::paper_l1()))
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The precomputed shifts select the same set and tag as the divides they
        /// replace, over random power-of-two geometries and addresses.
        #[test]
        fn shifted_set_and_tag_equal_the_divide_formulas(
            line_log in 0u32..9,
            sets_log in 0u32..13,
            assoc in 1usize..9,
            addr in 0u64..u64::MAX
        ) {
            let (line_bytes, sets) = (1usize << line_log, 1usize << sets_log);
            let c = Cache::new(CacheConfig {
                size_bytes: line_bytes * sets * assoc,
                assoc,
                line_bytes,
                hit_latency: 1,
            });
            let line = addr / line_bytes as u64;
            proptest::prop_assert_eq!(c.set_index(addr), (line % sets as u64) as usize);
            proptest::prop_assert_eq!(c.tag_of(addr), line / sets as u64);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 3 * 1024,
            assoc: 3,
            line_bytes: 48,
            hit_latency: 1,
        });
    }
}

//! The store sequence Bloom filter (SSBF).
//!
//! The SSBF is a small, tagless, direct-mapped table indexed by low-order address bits;
//! each entry holds the SSN of the last retired store to write to any address that maps
//! to it. It is "Bloom" in the sense of the paper: aliasing can only make the filter
//! more conservative (extra re-executions), never less.
//!
//! Figure 8 of the paper sweeps several organisations; all are supported here:
//! simple tables of 128/512/2048 entries, a double-filter configuration (a load
//! re-executes only if *both* filters report a conflict), 4-byte instead of 8-byte
//! conflict granularity, and an infinite (exact) table used as the aliasing-free
//! reference. The paper also stamps every word of a line that another thread
//! invalidates (the NLQ_SM case); this single-threaded model has no coherence
//! traffic, so it has no such update.

use std::collections::HashMap;

use svw_isa::{Addr, IntKeyMap};

use crate::Ssn;

/// Which physical organisation the SSBF uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SsbfOrganization {
    /// A single direct-mapped table of `entries` entries.
    Simple,
    /// Two tables of `entries` entries each; the second is indexed by the next group
    /// of address bits and a load re-executes only if both tables report a conflict.
    DoubleBloom,
    /// An exact, unbounded map (no aliasing). The paper's "Infinite" reference point.
    Infinite,
}

/// Configuration of a store sequence Bloom filter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SsbfConfig {
    /// Number of entries per table (ignored for [`SsbfOrganization::Infinite`]).
    pub entries: usize,
    /// Conflict-tracking granularity in bytes (8 in the paper's default, 4 in the
    /// "4-byte" configuration).
    pub granularity: u64,
    /// Physical organisation.
    pub organization: SsbfOrganization,
}

impl SsbfConfig {
    /// The paper's default: 512 entries × 16-bit SSNs = 1 KB, 8-byte granularity.
    pub fn paper_default() -> Self {
        SsbfConfig {
            entries: 512,
            granularity: 8,
            organization: SsbfOrganization::Simple,
        }
    }

    /// Figure 8 "128": a 128-entry simple table.
    pub fn small_128() -> Self {
        SsbfConfig {
            entries: 128,
            ..Self::paper_default()
        }
    }

    /// Figure 8 "2048": a 2048-entry simple table.
    pub fn large_2048() -> Self {
        SsbfConfig {
            entries: 2048,
            ..Self::paper_default()
        }
    }

    /// Figure 8 "Bloom": two 512-entry tables indexed by different address bits.
    pub fn double_bloom() -> Self {
        SsbfConfig {
            organization: SsbfOrganization::DoubleBloom,
            ..Self::paper_default()
        }
    }

    /// Figure 8 "4-byte": 512 entries at 4-byte granularity.
    pub fn word_granularity() -> Self {
        SsbfConfig {
            granularity: 4,
            ..Self::paper_default()
        }
    }

    /// Figure 8 "Infinite": exact conflict tracking at 4-byte granularity.
    pub fn infinite() -> Self {
        SsbfConfig {
            entries: 0,
            granularity: 4,
            organization: SsbfOrganization::Infinite,
        }
    }

    /// Storage cost in bytes assuming `ssn_bits`-wide entries (the paper's headline
    /// "1KB buffer" is 512 × 16 bits). Returns `None` for the infinite organisation.
    pub fn storage_bytes(&self, ssn_bits: u32) -> Option<usize> {
        match self.organization {
            SsbfOrganization::Infinite => None,
            SsbfOrganization::Simple => Some(self.entries * ssn_bits as usize / 8),
            SsbfOrganization::DoubleBloom => Some(2 * self.entries * ssn_bits as usize / 8),
        }
    }

    fn validate(&self) {
        match self.organization {
            SsbfOrganization::Infinite => {}
            _ => {
                assert!(
                    self.entries.is_power_of_two() && self.entries >= 2,
                    "SSBF entry count must be a power of two >= 2"
                );
            }
        }
        assert!(
            self.granularity == 4 || self.granularity == 8,
            "SSBF granularity must be 4 or 8 bytes"
        );
    }
}

impl Default for SsbfConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The store sequence Bloom filter.
///
/// The tables are flat arrays of *raw* SSN lanes (one `u64` per entry) rather than
/// `Vec<Ssn>`: the hot paths — max-merge on update, max/min reduction on probe, and
/// `fill(0)` on flash clear — then compile to straight-line loops over contiguous
/// `u64`s that the backend can autovectorize.
#[derive(Clone, Debug)]
pub struct Ssbf {
    config: SsbfConfig,
    table: Vec<u64>,
    table2: Vec<u64>,
    exact: IntKeyMap<Addr, Ssn>,
    /// `entries - 1`, precomputed so the index masks are register operands.
    mask: u64,
    /// `entries.trailing_zeros()`, the second filter's index shift.
    shift2: u32,
}

impl Ssbf {
    /// Creates an empty SSBF (every entry holds `Ssn::ZERO`, i.e. "never written").
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (non-power-of-two entry count, granularity
    /// other than 4 or 8 bytes, or a bank count that does not divide the entry count).
    pub fn new(config: SsbfConfig) -> Self {
        let mut ssbf = Ssbf {
            config,
            table: Vec::new(),
            table2: Vec::new(),
            exact: HashMap::default(),
            mask: 0,
            shift2: 0,
        };
        ssbf.reset(config);
        ssbf
    }

    /// Restores the empty state for `config` — observationally identical to
    /// [`Ssbf::new`] — reusing the table storage where the organisation allows.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`Ssbf::new`]).
    pub fn reset(&mut self, config: SsbfConfig) {
        config.validate();
        let n = match config.organization {
            SsbfOrganization::Infinite => 0,
            _ => config.entries,
        };
        let n2 = if config.organization == SsbfOrganization::DoubleBloom {
            config.entries
        } else {
            0
        };
        self.table.clear();
        self.table.resize(n, 0);
        self.table2.clear();
        self.table2.resize(n2, 0);
        self.exact.clear();
        self.mask = (config.entries as u64).wrapping_sub(1);
        self.shift2 = if config.entries > 0 {
            config.entries.trailing_zeros()
        } else {
            0
        };
        self.config = config;
    }

    /// The configuration this filter was built with.
    pub fn config(&self) -> &SsbfConfig {
        &self.config
    }

    /// The inclusive `(first, last)` granule span touched by an access of `bytes`
    /// bytes at `addr`. Computed as plain scalars (not an iterator borrowing `self`)
    /// so the write paths can walk the span while holding `&mut self` without
    /// collecting into a heap allocation first.
    #[inline]
    fn granule_span(&self, addr: Addr, bytes: u64) -> (Addr, Addr) {
        let gran = self.config.granularity;
        (addr / gran, (addr + bytes.max(1) - 1) / gran)
    }

    /// Stamps every granule of the span with `ssn` (max-merge). All hash lanes of a
    /// granule — both tables of the double-Bloom organisation — are computed in the
    /// same pass over the flat lane arrays.
    fn write_span(&mut self, first: Addr, last: Addr, ssn: Ssn) {
        let raw = ssn.raw();
        match self.config.organization {
            SsbfOrganization::Infinite => {
                for g in first..=last {
                    let e = self.exact.entry(g).or_insert(Ssn::ZERO);
                    *e = (*e).max(ssn);
                }
            }
            SsbfOrganization::Simple => {
                for g in first..=last {
                    let i = (g & self.mask) as usize;
                    self.table[i] = self.table[i].max(raw);
                }
            }
            SsbfOrganization::DoubleBloom => {
                for g in first..=last {
                    let i = (g & self.mask) as usize;
                    self.table[i] = self.table[i].max(raw);
                    let j = ((g >> self.shift2) & self.mask) as usize;
                    self.table2[j] = self.table2[j].max(raw);
                }
            }
        }
    }

    /// Records that the store with sequence number `ssn` wrote `bytes` bytes at `addr`
    /// (the store's pass through the SVW stage, i.e. `SSBF[st.addr] = st.SSN`).
    ///
    /// Entries only ever increase; an older (wrong-path or replayed) store can never
    /// lower an entry, which is what makes speculative SSBF updates safe.
    pub fn update_store(&mut self, addr: Addr, bytes: u64, ssn: Ssn) {
        let (first, last) = self.granule_span(addr, bytes);
        self.write_span(first, last, ssn);
    }

    /// Returns the SSN of the youngest retired store that (possibly, due to aliasing)
    /// conflicts with an access of `bytes` bytes at `addr`. Both hash lanes of a
    /// double-Bloom granule are read in the same pass.
    pub fn last_conflicting_ssn(&self, addr: Addr, bytes: u64) -> Ssn {
        let (first, last) = self.granule_span(addr, bytes);
        let mut worst = 0u64;
        match self.config.organization {
            SsbfOrganization::Infinite => {
                for g in first..=last {
                    worst = worst.max(self.exact.get(&g).copied().unwrap_or(Ssn::ZERO).raw());
                }
            }
            SsbfOrganization::Simple => {
                for g in first..=last {
                    worst = worst.max(self.table[(g & self.mask) as usize]);
                }
            }
            SsbfOrganization::DoubleBloom => {
                // A conflict is reported only if *both* filters report one, so the
                // effective conflicting SSN of a granule is the minimum of its two
                // entries (and the access conflicts with the max across granules).
                for g in first..=last {
                    let a = self.table[(g & self.mask) as usize];
                    let b = self.table2[((g >> self.shift2) & self.mask) as usize];
                    worst = worst.max(a.min(b));
                }
            }
        }
        Ssn::new(worst)
    }

    /// The re-execution filter test: `SSBF[ld.addr] > ld.SVW`.
    ///
    /// Returns `true` if the load must re-execute (a store it is vulnerable to may have
    /// written a conflicting address), `false` if re-execution can be skipped.
    pub fn must_reexecute(&self, addr: Addr, bytes: u64, load_svw: Ssn) -> bool {
        self.last_conflicting_ssn(addr, bytes) > load_svw
    }

    /// Flash-clears the filter (the SSN wrap-around policy).
    pub fn flash_clear(&mut self) {
        self.table.fill(0);
        self.table2.fill(0);
        self.exact.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ssn(n: u64) -> Ssn {
        Ssn::new(n)
    }

    #[test]
    fn empty_filter_never_demands_reexecution() {
        let f = Ssbf::new(SsbfConfig::paper_default());
        assert!(!f.must_reexecute(0x1234_5678, 8, Ssn::ZERO));
        assert_eq!(f.last_conflicting_ssn(0x1000, 8), Ssn::ZERO);
    }

    #[test]
    fn store_then_vulnerable_load_conflicts() {
        let mut f = Ssbf::new(SsbfConfig::paper_default());
        f.update_store(0x1000, 8, ssn(66));
        // Load vulnerable to everything younger than 62: conflicts.
        assert!(f.must_reexecute(0x1000, 8, ssn(62)));
        // Load not vulnerable to 66 or older: no conflict (the paper's Figure 4b case).
        assert!(!f.must_reexecute(0x1000, 8, ssn(66)));
    }

    #[test]
    fn unrelated_address_does_not_conflict() {
        let mut f = Ssbf::new(SsbfConfig::paper_default());
        f.update_store(0x1000, 8, ssn(66));
        // 0x1000 and 0x1008 are different 8-byte granules and (for a 512-entry table)
        // different entries.
        assert!(!f.must_reexecute(0x1008, 8, Ssn::ZERO));
    }

    #[test]
    fn aliasing_is_conservative_only() {
        // Two addresses that alias in a 128-entry, 8-byte-granularity table:
        // granule = addr/8, index = granule % 128, so addresses 0x0 and 0x0 + 128*8
        // collide.
        let mut f = Ssbf::new(SsbfConfig::small_128());
        f.update_store(0x0, 8, ssn(10));
        assert!(f.must_reexecute(128 * 8, 8, ssn(5))); // false positive, allowed
        let mut exact = Ssbf::new(SsbfConfig::infinite());
        exact.update_store(0x0, 8, ssn(10));
        assert!(!exact.must_reexecute(128 * 8, 8, ssn(5))); // exact filter knows better
    }

    #[test]
    fn entries_only_increase() {
        let mut f = Ssbf::new(SsbfConfig::paper_default());
        f.update_store(0x2000, 8, ssn(50));
        f.update_store(0x2000, 8, ssn(40)); // older (e.g. speculative/wrong path) store
        assert_eq!(f.last_conflicting_ssn(0x2000, 8), ssn(50));
    }

    #[test]
    fn sub_quad_writes_cause_false_sharing_at_8_byte_granularity() {
        // Paper §4.1: "the SSBF tracks SSNs at an 8-byte granularity and so is
        // vulnerable to false sharing due to non-overlapping sub-quad writes."
        let mut f8 = Ssbf::new(SsbfConfig::paper_default());
        f8.update_store(0x3000, 4, ssn(7));
        assert!(f8.must_reexecute(0x3004, 4, Ssn::ZERO)); // false sharing

        let mut f4 = Ssbf::new(SsbfConfig::word_granularity());
        f4.update_store(0x3000, 4, ssn(7));
        assert!(!f4.must_reexecute(0x3004, 4, Ssn::ZERO)); // resolved at 4-byte grain
    }

    #[test]
    fn access_spanning_granules_checks_both() {
        let mut f = Ssbf::new(SsbfConfig::word_granularity());
        f.update_store(0x4004, 4, ssn(9));
        // An 8-byte access at 0x4000 covers granules 0x4000 and 0x4004.
        assert!(f.must_reexecute(0x4000, 8, Ssn::ZERO));
    }

    #[test]
    fn double_bloom_requires_both_filters_to_conflict() {
        let cfg = SsbfConfig::double_bloom();
        let mut f = Ssbf::new(cfg);
        // Address A.
        let a: Addr = 0x1000;
        f.update_store(a, 8, ssn(30));
        // An address that aliases with A in filter 1 (same low 9 granule bits) but not
        // in filter 2 (different next 9 bits): granule(a) + 512 differs in bits 9..18.
        let b: Addr = a + 512 * 8;
        assert!(f.must_reexecute(a, 8, ssn(10)));
        assert!(
            !f.must_reexecute(b, 8, ssn(10)),
            "double-Bloom should filter the single-filter alias"
        );
        // A simple filter of the same size would have reported a (false) conflict.
        let mut simple = Ssbf::new(SsbfConfig::paper_default());
        simple.update_store(a, 8, ssn(30));
        assert!(simple.must_reexecute(b, 8, ssn(10)));
    }

    #[test]
    fn flash_clear_resets_everything() {
        let mut f = Ssbf::new(SsbfConfig::double_bloom());
        f.update_store(0x6000, 8, ssn(12));
        f.flash_clear();
        assert!(!f.must_reexecute(0x6000, 8, Ssn::ZERO));

        let mut e = Ssbf::new(SsbfConfig::infinite());
        e.update_store(0x6000, 8, ssn(12));
        e.flash_clear();
        assert!(!e.must_reexecute(0x6000, 8, Ssn::ZERO));
    }

    #[test]
    fn storage_cost_matches_paper_headline() {
        // "The cost of a typical SVW implementation is a 1KB buffer" = 512 x 16 bits.
        assert_eq!(SsbfConfig::paper_default().storage_bytes(16), Some(1024));
        assert_eq!(SsbfConfig::small_128().storage_bytes(16), Some(256));
        assert_eq!(SsbfConfig::double_bloom().storage_bytes(16), Some(2048));
        assert_eq!(SsbfConfig::infinite().storage_bytes(16), None);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn invalid_entry_count_panics() {
        let _ = Ssbf::new(SsbfConfig {
            entries: 100,
            ..SsbfConfig::paper_default()
        });
    }

    #[test]
    #[should_panic(expected = "granularity")]
    fn invalid_granularity_panics() {
        let _ = Ssbf::new(SsbfConfig {
            granularity: 16,
            ..SsbfConfig::paper_default()
        });
    }
}

//! The integration table (IT).

use svw_core::Ssn;
use svw_isa::{InstSeq, MemWidth, Value};

/// How an elimination candidate's value was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RleKind {
    /// Load reuse: the entry was created by an older load with the same signature.
    LoadReuse,
    /// Speculative memory bypassing: the entry was created by an older store; the
    /// eliminated load takes the store's data register.
    MemoryBypass,
}

/// The "operation signature" that identifies a redundant memory operation: same base
/// physical register, same displacement, same access width.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ItSignature {
    /// Physical register holding the base address.
    pub base_preg: u32,
    /// Signed displacement.
    pub offset: i64,
    /// Access width.
    pub width: MemWidth,
}

/// One integration-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ItEntry {
    /// The signature this entry matches.
    pub signature: ItSignature,
    /// The value the producing instruction bound (the value an eliminated load will
    /// appear to have loaded).
    pub value: Value,
    /// `SSN_rename` at the time the entry was created — the older boundary of the
    /// vulnerability window of any load that integrates this entry.
    pub ssn: Ssn,
    /// Dynamic sequence number of the producing instruction.
    pub producer_seq: InstSeq,
    /// Whether the producer was a load (reuse) or a store (bypassing).
    pub kind: RleKind,
    /// Whether the producing instruction was squashed after creating this entry
    /// (squash reuse). SVW filtering must be disabled for such eliminations.
    pub from_squashed: bool,
}

/// Integration-table geometry and policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ItConfig {
    /// Total entries.
    pub entries: usize,
    /// Associativity.
    pub assoc: usize,
    /// If `false`, entries created by squashed instructions are discarded on a flush
    /// (the paper's `SVW−SQU` configuration). If `true` (default), they survive and
    /// enable squash reuse.
    pub squash_reuse: bool,
}

impl ItConfig {
    /// The paper's RLE configuration: a 512-entry, 2-way set-associative IT with
    /// squash reuse enabled.
    pub fn paper_default() -> Self {
        ItConfig {
            entries: 512,
            assoc: 2,
            squash_reuse: true,
        }
    }

    /// The paper's `SVW−SQU` variant: squash reuse disabled.
    pub fn no_squash_reuse() -> Self {
        ItConfig {
            squash_reuse: false,
            ..Self::paper_default()
        }
    }

    fn sets(&self) -> usize {
        self.entries / self.assoc
    }

    fn validate(&self) {
        assert!(self.assoc >= 1, "IT associativity must be at least 1");
        assert!(
            self.entries.is_multiple_of(self.assoc) && self.sets().is_power_of_two(),
            "IT set count must be a power of two"
        );
    }
}

impl Default for ItConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    entry: Option<ItEntry>,
    lru: u64,
}

/// The integration table: a small set-associative table of [`ItEntry`] keyed by
/// [`ItSignature`].
#[derive(Clone, Debug)]
pub struct IntegrationTable {
    config: ItConfig,
    slots: Vec<Slot>,
    tick: u64,
}

impl IntegrationTable {
    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`ItConfig`]).
    pub fn new(config: ItConfig) -> Self {
        let mut it = IntegrationTable {
            config,
            slots: Vec::new(),
            tick: 0,
        };
        it.reset(config);
        it
    }

    /// Restores the empty state for `config` — observationally identical to
    /// [`IntegrationTable::new`] — retaining the slot storage where sizes allow.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`ItConfig`]).
    pub fn reset(&mut self, config: ItConfig) {
        config.validate();
        self.slots.clear();
        self.slots.resize(
            config.entries,
            Slot {
                entry: None,
                lru: 0,
            },
        );
        self.tick = 0;
        self.config = config;
    }

    /// The configured geometry/policy.
    pub fn config(&self) -> &ItConfig {
        &self.config
    }

    #[inline]
    fn set_of(&self, sig: &ItSignature) -> usize {
        // Mix the base register and offset so different offsets off the same base
        // spread across sets.
        let h = (sig.base_preg as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (sig.offset as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ (sig.width.bytes() << 56);
        (h as usize) & (self.config.sets() - 1)
    }

    fn set_slots(&mut self, set: usize) -> &mut [Slot] {
        let assoc = self.config.assoc;
        &mut self.slots[set * assoc..(set + 1) * assoc]
    }

    /// Looks up an elimination candidate. On a hit the load is eliminated and the
    /// returned entry describes the value it integrates and the SVW boundary it
    /// inherits. The hit becomes the most recently used entry of its set.
    pub fn lookup(&mut self, sig: &ItSignature) -> Option<ItEntry> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(sig);
        let found = self
            .set_slots(set)
            .iter_mut()
            .find(|s| matches!(&s.entry, Some(e) if e.signature == *sig));
        if let Some(slot) = found {
            slot.lru = tick;
            slot.entry
        } else {
            None
        }
    }

    /// Probes for a signature without touching replacement state.
    pub fn probe(&self, sig: &ItSignature) -> Option<&ItEntry> {
        let set = self.set_of(sig);
        let assoc = self.config.assoc;
        self.slots[set * assoc..(set + 1) * assoc]
            .iter()
            .filter_map(|s| s.entry.as_ref())
            .find(|e| e.signature == *sig)
    }

    /// Inserts (or replaces) the entry created by a non-redundant load or a store.
    pub fn insert(&mut self, entry: ItEntry) {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(&entry.signature);
        let slots = self.set_slots(set);
        // Same signature already present: overwrite in place.
        if let Some(slot) = slots
            .iter_mut()
            .find(|s| matches!(&s.entry, Some(e) if e.signature == entry.signature))
        {
            slot.entry = Some(entry);
            slot.lru = tick;
            return;
        }
        // Otherwise fill an invalid way or evict the LRU way.
        let victim = slots
            .iter_mut()
            .min_by_key(|s| if s.entry.is_some() { s.lru } else { 0 })
            .expect("IT set has at least one way");
        victim.entry = Some(entry);
        victim.lru = tick;
    }

    /// Invalidates every entry whose base physical register is `preg` — called when
    /// the register is freed/re-allocated so a recycled register can never cause a
    /// false signature match.
    pub fn invalidate_base_preg(&mut self, preg: u32) {
        for s in &mut self.slots {
            if matches!(&s.entry, Some(e) if e.signature.base_preg == preg) {
                s.entry = None;
            }
        }
    }

    /// Handles a pipeline flush at `survivor` (`None` means a full flush): entries
    /// created by squashed producers either become squash-reuse entries (if the
    /// configuration allows squash reuse) or are discarded.
    pub fn flush_after(&mut self, survivor: Option<InstSeq>) {
        for s in &mut self.slots {
            let squashed = match (&s.entry, survivor) {
                (Some(e), Some(seq)) => e.producer_seq > seq,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if squashed {
                if self.config.squash_reuse {
                    if let Some(e) = &mut s.entry {
                        e.from_squashed = true;
                    }
                } else {
                    s.entry = None;
                }
            }
        }
    }

    /// Flash-clears the table (required by the SSN wrap-around drain when RLE is
    /// active, because entry SSNs become incomparable across the wrap).
    pub fn flash_clear(&mut self) {
        for s in &mut self.slots {
            s.entry = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(preg: u32, offset: i64) -> ItSignature {
        ItSignature {
            base_preg: preg,
            offset,
            width: MemWidth::W8,
        }
    }

    fn entry(
        preg: u32,
        offset: i64,
        value: Value,
        ssn: u64,
        seq: InstSeq,
        kind: RleKind,
    ) -> ItEntry {
        ItEntry {
            signature: sig(preg, offset),
            value,
            ssn: Ssn::new(ssn),
            producer_seq: seq,
            kind,
            from_squashed: false,
        }
    }

    #[test]
    fn miss_then_hit_after_insert() {
        let mut it = IntegrationTable::new(ItConfig::paper_default());
        assert_eq!(it.lookup(&sig(7, 16)), None);
        it.insert(entry(7, 16, 0xAB, 10, 100, RleKind::LoadReuse));
        let hit = it.lookup(&sig(7, 16)).expect("entry should hit");
        assert_eq!(hit.value, 0xAB);
        assert_eq!(hit.ssn, Ssn::new(10));
        assert_eq!(hit.kind, RleKind::LoadReuse);
    }

    #[test]
    fn different_offset_or_preg_does_not_match() {
        let mut it = IntegrationTable::new(ItConfig::paper_default());
        it.insert(entry(7, 16, 1, 1, 1, RleKind::LoadReuse));
        assert_eq!(it.lookup(&sig(7, 24)), None);
        assert_eq!(it.lookup(&sig(8, 16)), None);
        let narrow = ItSignature {
            base_preg: 7,
            offset: 16,
            width: MemWidth::W4,
        };
        assert_eq!(it.lookup(&narrow), None);
    }

    #[test]
    fn store_entries_are_memory_bypassing() {
        let mut it = IntegrationTable::new(ItConfig::paper_default());
        it.insert(entry(3, 0, 0xCD, 5, 50, RleKind::MemoryBypass));
        let hit = it.lookup(&sig(3, 0)).unwrap();
        assert_eq!(hit.kind, RleKind::MemoryBypass);
    }

    #[test]
    fn reinsertion_overwrites_in_place() {
        let mut it = IntegrationTable::new(ItConfig::paper_default());
        it.insert(entry(7, 16, 1, 1, 1, RleKind::LoadReuse));
        it.insert(entry(7, 16, 2, 9, 2, RleKind::LoadReuse));
        let hit = it.lookup(&sig(7, 16)).unwrap();
        assert_eq!(hit.value, 2);
        assert_eq!(hit.ssn, Ssn::new(9));
    }

    #[test]
    fn preg_invalidation_removes_matching_entries() {
        let mut it = IntegrationTable::new(ItConfig::paper_default());
        it.insert(entry(7, 16, 1, 1, 1, RleKind::LoadReuse));
        it.insert(entry(8, 16, 2, 2, 2, RleKind::LoadReuse));
        it.invalidate_base_preg(7);
        assert_eq!(it.lookup(&sig(7, 16)), None);
        assert!(it.lookup(&sig(8, 16)).is_some());
    }

    #[test]
    fn flush_marks_squash_reuse_when_enabled() {
        let mut it = IntegrationTable::new(ItConfig::paper_default());
        it.insert(entry(7, 16, 1, 1, 100, RleKind::LoadReuse));
        it.insert(entry(8, 16, 2, 2, 200, RleKind::LoadReuse));
        it.flush_after(Some(150));
        assert!(!it.probe(&sig(7, 16)).unwrap().from_squashed);
        assert!(it.probe(&sig(8, 16)).unwrap().from_squashed);
        assert!(it.lookup(&sig(8, 16)).unwrap().from_squashed);
    }

    #[test]
    fn flush_discards_squashed_entries_when_disabled() {
        let mut it = IntegrationTable::new(ItConfig::no_squash_reuse());
        it.insert(entry(7, 16, 1, 1, 100, RleKind::LoadReuse));
        it.insert(entry(8, 16, 2, 2, 200, RleKind::LoadReuse));
        it.flush_after(Some(150));
        assert!(it.probe(&sig(7, 16)).is_some());
        assert!(it.probe(&sig(8, 16)).is_none());
        it.flush_after(None);
        assert!(it.probe(&sig(7, 16)).is_none());
    }

    #[test]
    fn lru_eviction_within_a_set() {
        // A 2-entry, 2-way table has a single set: three distinct signatures must evict
        // the least recently used one.
        let mut it = IntegrationTable::new(ItConfig {
            entries: 2,
            assoc: 2,
            squash_reuse: true,
        });
        it.insert(entry(1, 0, 10, 1, 1, RleKind::LoadReuse));
        it.insert(entry(2, 0, 20, 2, 2, RleKind::LoadReuse));
        let _ = it.lookup(&sig(1, 0)); // touch entry 1 → entry 2 becomes LRU
        it.insert(entry(3, 0, 30, 3, 3, RleKind::LoadReuse));
        assert!(it.probe(&sig(1, 0)).is_some());
        assert!(it.probe(&sig(2, 0)).is_none());
        assert!(it.probe(&sig(3, 0)).is_some());
    }

    #[test]
    fn reset_matches_new() {
        let cfg = ItConfig::paper_default();
        let mut it = IntegrationTable::new(cfg);
        for i in 0..100u32 {
            it.insert(ItEntry {
                signature: ItSignature {
                    base_preg: i,
                    offset: i as i64 * 8,
                    width: MemWidth::W8,
                },
                value: u64::from(i),
                ssn: Ssn::new(u64::from(i)),
                producer_seq: u64::from(i),
                kind: RleKind::LoadReuse,
                from_squashed: false,
            });
        }
        it.reset(cfg);
        assert_eq!(
            format!("{it:?}"),
            format!("{:?}", IntegrationTable::new(cfg))
        );
    }

    #[test]
    fn flash_clear_empties_the_table() {
        let mut it = IntegrationTable::new(ItConfig::paper_default());
        it.insert(entry(7, 16, 1, 1, 1, RleKind::LoadReuse));
        it.flash_clear();
        assert_eq!(it.lookup(&sig(7, 16)), None);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = IntegrationTable::new(ItConfig {
            entries: 6,
            assoc: 2,
            squash_reuse: true,
        });
    }
}

//! The best-effort forwarding buffer that fronts each data-cache bank in the
//! speculative-SQ design.
//!
//! "A small, 8-entry unordered forwarding buffer that fronts each cache bank handles
//! simple forwarding cases (i.e., unambiguous ones which execute in order anyway).
//! Loads that execute incorrectly in this structure are subsequently steered to the
//! FSQ."
//!
//! The buffer holds the most recent stores (by execution order) to addresses mapping
//! to its bank. It is *best effort*: it may return a stale value (the real youngest
//! older store may not have executed yet, or may have been displaced), and it never
//! guarantees age ordering — mistakes are caught by load re-execution, which then
//! trains the FSQ steering predictor.

use std::collections::VecDeque;

use svw_core::Ssn;
use svw_isa::{Addr, InstSeq, MemWidth, Pc, Value};

#[derive(Clone, Copy, Debug)]
struct BufferedStore {
    seq: InstSeq,
    pc: Pc,
    ssn: Ssn,
    addr: Addr,
    width: MemWidth,
    value: Value,
}

/// A set of per-bank, fixed-capacity, unordered forwarding buffers.
#[derive(Clone, Debug)]
pub struct ForwardingBuffer {
    /// The bank count minus one (the count is a power of two).
    bank_mask: usize,
    entries_per_bank: usize,
    /// `log2` of the interleave granularity: an address's bank is its
    /// `addr >> interleave_shift` line number, masked.
    interleave_shift: u32,
    buffers: Vec<VecDeque<BufferedStore>>,
    /// Per bank, a counter bumped whenever that bank's buffer may change (a
    /// recorded store or a flush). A lookup's outcome stays valid while its bank's
    /// version is unchanged.
    versions: Vec<u64>,
    hits: u64,
    lookups: u64,
}

impl ForwardingBuffer {
    /// The paper's geometry: 8 entries in front of each of the 2 cache banks.
    pub fn paper_default() -> Self {
        Self::new(2, 8, 64)
    }

    /// Creates `banks` buffers of `entries_per_bank` entries each, with banks selected
    /// by address interleaving at `interleave_bytes` granularity.
    ///
    /// # Panics
    ///
    /// Panics if `banks` or `interleave_bytes` is not a power of two, or
    /// `entries_per_bank` is zero.
    pub fn new(banks: usize, entries_per_bank: usize, interleave_bytes: u64) -> Self {
        let mut fb = ForwardingBuffer {
            bank_mask: 0,
            entries_per_bank,
            interleave_shift: 0,
            buffers: Vec::new(),
            versions: Vec::new(),
            hits: 0,
            lookups: 0,
        };
        fb.reset(banks, entries_per_bank, interleave_bytes);
        fb
    }

    /// Restores the empty state for the given geometry — observationally identical to
    /// [`ForwardingBuffer::new`] — retaining the per-bank buffer storage.
    ///
    /// # Panics
    ///
    /// Panics if `banks` or `interleave_bytes` is not a power of two, or
    /// `entries_per_bank` is zero.
    pub fn reset(&mut self, banks: usize, entries_per_bank: usize, interleave_bytes: u64) {
        assert!(banks.is_power_of_two(), "bank count must be a power of two");
        assert!(entries_per_bank > 0, "buffer must have at least one entry");
        assert!(
            interleave_bytes.is_power_of_two(),
            "interleave granularity must be a power of two"
        );
        self.buffers.resize(banks, VecDeque::new());
        for buf in &mut self.buffers {
            buf.clear();
        }
        self.versions.clear();
        self.versions.resize(banks, 0);
        self.bank_mask = banks - 1;
        self.entries_per_bank = entries_per_bank;
        self.interleave_shift = interleave_bytes.trailing_zeros();
        self.hits = 0;
        self.lookups = 0;
    }

    #[inline]
    fn bank_of(&self, addr: Addr) -> usize {
        (addr >> self.interleave_shift) as usize & self.bank_mask
    }

    /// The version of the buffer that serves `addr`. It changes whenever that
    /// buffer's contents may have changed, so a [`ForwardingBuffer::find`] outcome for
    /// `addr` holds for as long as the version is unchanged.
    #[inline]
    pub fn version(&self, addr: Addr) -> u64 {
        self.versions[self.bank_of(addr)]
    }

    /// Records an executed store (displacing the oldest buffered store of its bank if
    /// the buffer is full). `ssn` is the store's sequence number; loads that take a
    /// value from this entry are vulnerable to every younger store, so the SSN travels
    /// with the value for window bounding.
    pub fn record_store(
        &mut self,
        seq: InstSeq,
        pc: Pc,
        ssn: Ssn,
        addr: Addr,
        width: MemWidth,
        value: Value,
    ) {
        let bank = self.bank_of(addr);
        self.versions[bank] += 1;
        let buf = &mut self.buffers[bank];
        if buf.len() == self.entries_per_bank {
            buf.pop_front();
        }
        buf.push_back(BufferedStore {
            seq,
            pc,
            ssn,
            addr,
            width,
            value,
        });
    }

    /// Best-effort search on behalf of a load: returns the sequence number, PC, SSN,
    /// and value of the most recently *buffered* older store that fully covers the
    /// load, if any. This may not be the architecturally correct forwarding source —
    /// the entry may even belong to an already-retired store whose value younger
    /// retired stores have overwritten — so consumers must bound the load's
    /// vulnerability window by the returned SSN. Side-effect free; a probe the
    /// machine makes is [`ForwardingBuffer::lookup`], which also counts it.
    pub fn find(
        &self,
        load_seq: InstSeq,
        addr: Addr,
        width: MemWidth,
    ) -> Option<(InstSeq, Pc, Ssn, Value)> {
        self.buffers[self.bank_of(addr)]
            .iter()
            .rev()
            .find(|s| {
                s.seq < load_seq
                    && s.addr <= addr
                    && addr + width.bytes() <= s.addr + s.width.bytes()
            })
            .map(|s| {
                let shift = (addr - s.addr) * 8;
                (s.seq, s.pc, s.ssn, (s.value >> shift) & width.mask())
            })
    }

    /// A counted probe: [`ForwardingBuffer::find`] plus one lookup, and one hit if
    /// it found a covering store.
    pub fn lookup(
        &mut self,
        load_seq: InstSeq,
        addr: Addr,
        width: MemWidth,
    ) -> Option<(InstSeq, Pc, Ssn, Value)> {
        let found = self.find(load_seq, addr, width);
        self.count_lookup(found.is_some());
        found
    }

    /// Counts a probe whose outcome the caller already holds: one lookup, and one
    /// hit if `hit`. The outcome must come from a search at the current
    /// [`ForwardingBuffer::version`] of the probed address.
    pub fn count_lookup(&mut self, hit: bool) {
        self.lookups += 1;
        self.hits += u64::from(hit);
    }

    /// Discards buffered stores younger than `survivor` after a flush.
    pub fn flush_after(&mut self, survivor: Option<InstSeq>) {
        self.versions.iter_mut().for_each(|v| *v += 1);
        for buf in &mut self.buffers {
            match survivor {
                None => buf.clear(),
                Some(s) => buf.retain(|e| e.seq <= s),
            }
        }
    }

    /// Number of lookups that found a covering entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_in_order_forwarding_works() {
        let mut fb = ForwardingBuffer::paper_default();
        fb.record_store(1, 0x100, Ssn::new(1), 0x1000, MemWidth::W8, 0xAB);
        assert_eq!(
            fb.lookup(2, 0x1000, MemWidth::W8),
            Some((1, 0x100, Ssn::new(1), 0xAB))
        );
        assert_eq!(fb.hits(), 1);
    }

    #[test]
    fn younger_stores_are_not_forwarded() {
        let mut fb = ForwardingBuffer::paper_default();
        fb.record_store(5, 0x100, Ssn::new(1), 0x1000, MemWidth::W8, 0xAB);
        assert_eq!(fb.lookup(2, 0x1000, MemWidth::W8), None);
    }

    #[test]
    fn capacity_displacement_loses_old_stores() {
        let mut fb = ForwardingBuffer::new(1, 2, 64);
        fb.record_store(1, 0x100, Ssn::new(1), 0x1000, MemWidth::W8, 1);
        fb.record_store(2, 0x104, Ssn::new(2), 0x2000, MemWidth::W8, 2);
        fb.record_store(3, 0x108, Ssn::new(3), 0x3000, MemWidth::W8, 3);
        // Store 1 was displaced: the load no longer sees it (best-effort behaviour).
        assert_eq!(fb.lookup(9, 0x1000, MemWidth::W8), None);
        assert!(fb.lookup(9, 0x3000, MemWidth::W8).is_some());
    }

    #[test]
    fn best_effort_can_return_stale_value() {
        // A younger store to the same address executed *before* an older one (out of
        // order): the buffer returns the most recently buffered covering store, which
        // is not necessarily the architecturally correct source.
        let mut fb = ForwardingBuffer::paper_default();
        fb.record_store(10, 0x100, Ssn::new(10), 0x1000, MemWidth::W8, 0xAAAA);
        fb.record_store(4, 0x108, Ssn::new(4), 0x1000, MemWidth::W8, 0xBBBB);
        // Load at seq 12: correct source is store 10, but the buffer returns store 4's
        // value because it was buffered more recently. The returned SSN lets the
        // consumer mark the load vulnerable to store 10.
        let (seq, _, ssn, _) = fb.lookup(12, 0x1000, MemWidth::W8).unwrap();
        assert_eq!(seq, 4);
        assert_eq!(ssn, Ssn::new(4));
    }

    #[test]
    fn subword_extraction() {
        let mut fb = ForwardingBuffer::paper_default();
        fb.record_store(
            1,
            0x100,
            Ssn::new(1),
            0x2000,
            MemWidth::W8,
            0x1111_2222_3333_4444,
        );
        assert_eq!(
            fb.lookup(2, 0x2004, MemWidth::W4),
            Some((1, 0x100, Ssn::new(1), 0x1111_2222))
        );
    }

    #[test]
    fn flush_discards_young_entries() {
        let mut fb = ForwardingBuffer::paper_default();
        fb.record_store(1, 0x100, Ssn::new(1), 0x1000, MemWidth::W8, 1);
        fb.record_store(5, 0x104, Ssn::new(2), 0x1040, MemWidth::W8, 2);
        fb.flush_after(Some(3));
        assert!(fb.lookup(9, 0x1000, MemWidth::W8).is_some());
        assert_eq!(fb.lookup(9, 0x1040, MemWidth::W8), None);
        fb.flush_after(None);
        assert_eq!(fb.lookup(9, 0x1000, MemWidth::W8), None);
    }

    #[test]
    fn find_is_pure_and_lookup_counts_it() {
        let mut fb = ForwardingBuffer::paper_default();
        fb.record_store(1, 0x100, Ssn::new(1), 0x1000, MemWidth::W8, 0xAB);
        let found = fb.find(2, 0x1000, MemWidth::W8);
        assert_eq!(found, Some((1, 0x100, Ssn::new(1), 0xAB)));
        assert_eq!((fb.lookups(), fb.hits()), (0, 0), "find counts nothing");
        assert_eq!(fb.lookup(2, 0x1000, MemWidth::W8), found);
        assert_eq!(fb.lookup(2, 0x2000, MemWidth::W8), None);
        assert_eq!((fb.lookups(), fb.hits()), (2, 1));
        fb.count_lookup(true);
        fb.count_lookup(false);
        assert_eq!((fb.lookups(), fb.hits()), (4, 2));
    }

    /// A bank's version moves whenever its buffer may change, and only then: a
    /// store recorded into the other bank leaves it, a flush moves every bank.
    #[test]
    fn version_changes_exactly_when_the_bank_may_change() {
        let mut fb = ForwardingBuffer::paper_default();
        let (a, b) = (0x1000, 0x1040); // adjacent lines: different banks
        let (va, vb) = (fb.version(a), fb.version(b));
        let _ = fb.lookup(9, a, MemWidth::W8);
        assert_eq!(fb.version(a), va, "a lookup changes nothing");
        fb.record_store(1, 0x100, Ssn::new(1), b, MemWidth::W8, 1);
        assert_eq!(fb.version(a), va, "a store into the other bank");
        assert_ne!(fb.version(b), vb);
        let vb = fb.version(b);
        fb.flush_after(Some(5));
        assert_ne!(fb.version(a), va);
        assert_ne!(fb.version(b), vb);
    }

    #[test]
    #[should_panic(expected = "interleave granularity must be a power of two")]
    fn interleave_that_is_not_a_power_of_two_panics() {
        let _ = ForwardingBuffer::new(2, 8, 96);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The shift selects the same bank as the divide it replaces.
        #[test]
        fn shifted_bank_equals_the_divide_formula(
            banks_log in 0u32..4,
            interleave_log in 0u32..9,
            addr in 0u64..u64::MAX
        ) {
            let (banks, interleave) = (1usize << banks_log, 1u64 << interleave_log);
            let fb = ForwardingBuffer::new(banks, 8, interleave);
            proptest::prop_assert_eq!(
                fb.bank_of(addr),
                ((addr / interleave) % banks as u64) as usize
            );
        }
    }
}

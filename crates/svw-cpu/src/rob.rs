//! A dense, sequence-indexed ring buffer for the reorder buffer.
//!
//! Dynamic instructions carry dense sequence numbers (one per trace entry), so the
//! ROB at any instant holds exactly the contiguous range `[head, head + len)`. That
//! makes position *computable*: entry `seq` lives at ring slot `seq mod slots`. The
//! old `VecDeque` + `rob_index` implementation verified this with a per-access
//! equality check and fell back to an O(n) scan "for safety"; here the density
//! invariant is enforced at `push_back` and with a `debug_assert` at every indexed
//! access, and no scan path exists.
//!
//! The slot table has `slots = capacity.next_power_of_two()` entries, so the modulo
//! is a mask: `seq & (slots - 1)`. At most `capacity` consecutive sequence numbers
//! are in flight, and those never share a slot. Side tables indexed by slot (the
//! pipeline's ready bitmap and consumer lists) are sized by [`RobRing::table_size`].
//!
//! The ring owns its slot storage across [`RobRing::reset`] calls, so a recycled
//! simulation arena re-runs with zero ROB allocations: slots written by a previous
//! cell are simply overwritten as the new cell's instructions dispatch.

use svw_isa::InstSeq;

/// Implemented by entry types that carry their own dense sequence number.
pub(crate) trait HasSeq {
    /// The entry's dynamic sequence number.
    fn seq(&self) -> InstSeq;
}

/// A bounded ring buffer over entries with dense sequence numbers, indexable by
/// sequence number in O(1) with no fallback scan.
#[derive(Clone, Debug)]
pub(crate) struct RobRing<T> {
    /// Slot storage. Grows monotonically (and contiguously) up to the table size
    /// during the first fill, then slots are reused by overwrite forever after.
    slots: Vec<T>,
    /// Maximum number of in-flight entries.
    capacity: usize,
    /// Table size minus one: the table size is the next power of two at or above
    /// `capacity`.
    mask: usize,
    /// Sequence number of the front (oldest) entry. Meaningful only when `len > 0`.
    head: InstSeq,
    /// Ring slot of the front entry.
    head_slot: usize,
    len: usize,
}

impl<T: HasSeq> RobRing<T> {
    /// Creates an empty ring for up to `capacity` in-flight entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "ROB capacity must be non-zero");
        RobRing {
            slots: Vec::with_capacity(capacity.next_power_of_two()),
            capacity,
            mask: capacity.next_power_of_two() - 1,
            head: 0,
            head_slot: 0,
            len: 0,
        }
    }

    /// Restores the empty state for `capacity`, retaining slot storage when the
    /// table size is unchanged (slots left over from a previous run are dead weight
    /// that the next run's `push_back`s overwrite in place).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn reset(&mut self, capacity: usize) {
        assert!(capacity > 0, "ROB capacity must be non-zero");
        if capacity.next_power_of_two() != self.table_size() {
            // The seq→slot mapping changes shape: drop the stale entries (the
            // allocation itself is retained by `Vec::clear`).
            self.slots.clear();
            self.mask = capacity.next_power_of_two() - 1;
        }
        self.capacity = capacity;
        self.head = 0;
        self.head_slot = 0;
        self.len = 0;
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// Size of the slot table: the next power of two at or above the capacity.
    #[inline]
    pub fn table_size(&self) -> usize {
        self.mask + 1
    }

    /// The ring slot that holds (or would hold) entry `seq`. Density makes this
    /// `seq mod slots` for every in-flight entry, so side tables indexed by slot
    /// stay valid for an entry's whole lifetime without any bookkeeping.
    #[inline]
    pub fn slot(&self, seq: InstSeq) -> usize {
        seq as usize & self.mask
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Ring slot of the entry at age-order position `idx` (0 = front).
    #[inline]
    fn pos(&self, idx: usize) -> usize {
        (self.head_slot + idx) & self.mask
    }

    /// The oldest entry, if any.
    pub fn front(&self) -> Option<&T> {
        (self.len > 0).then(|| &self.slots[self.head_slot])
    }

    /// Mutable access to the oldest entry, if any.
    pub fn front_mut(&mut self) -> Option<&mut T> {
        (self.len > 0).then(|| &mut self.slots[self.head_slot])
    }

    /// The youngest entry, if any.
    pub fn back(&self) -> Option<&T> {
        (self.len > 0).then(|| &self.slots[self.pos(self.len - 1)])
    }

    /// Sequence number one past the youngest entry (equals the front's sequence
    /// number when the ring is empty is *not* guaranteed — check `len` first).
    pub fn end_seq(&self) -> InstSeq {
        self.head + self.len as u64
    }

    /// Direct O(1) access by sequence number. Returns `None` when `seq` is outside
    /// `[head, head + len)` — i.e. already committed or squashed.
    #[inline]
    pub fn get(&self, seq: InstSeq) -> Option<&T> {
        if self.len == 0 || seq < self.head {
            return None;
        }
        let idx = (seq - self.head) as usize;
        if idx >= self.len {
            return None;
        }
        let e = &self.slots[self.pos(idx)];
        debug_assert_eq!(
            e.seq(),
            seq,
            "dense-sequence invariant violated: slot holds a different entry"
        );
        Some(e)
    }

    /// Mutable direct O(1) access by sequence number.
    #[inline]
    pub fn get_mut(&mut self, seq: InstSeq) -> Option<&mut T> {
        if self.len == 0 || seq < self.head {
            return None;
        }
        let idx = (seq - self.head) as usize;
        if idx >= self.len {
            return None;
        }
        let pos = self.pos(idx);
        let e = &mut self.slots[pos];
        debug_assert_eq!(
            e.seq(),
            seq,
            "dense-sequence invariant violated: slot holds a different entry"
        );
        Some(e)
    }

    /// Appends the next entry in program order.
    ///
    /// # Panics
    ///
    /// Panics if the ring is full, or if the entry would land past the filled slot
    /// storage: slots fill in order from slot 0, so the first entry a fresh ring
    /// takes must map to slot 0. `debug_assert`s that the entry's sequence number
    /// is exactly one past the current back (density).
    pub fn push_back(&mut self, entry: T) {
        assert!(self.len < self.capacity, "ROB overflow");
        let seq = entry.seq();
        if self.len == 0 {
            self.head = seq;
            self.head_slot = self.slot(seq);
        } else {
            debug_assert_eq!(
                seq,
                self.end_seq(),
                "ROB entries must be pushed with dense sequence numbers"
            );
        }
        let pos = self.pos(self.len);
        debug_assert_eq!(pos, self.slot(seq), "entries live at slot seq mod slots");
        match pos.cmp(&self.slots.len()) {
            std::cmp::Ordering::Less => self.slots[pos] = entry,
            std::cmp::Ordering::Equal => self.slots.push(entry),
            std::cmp::Ordering::Greater => panic!(
                "ROB density invariant: slots fill in order from slot 0, but seq {seq} \
                 maps to slot {pos} with {} slot(s) filled",
                self.slots.len()
            ),
        }
        self.len += 1;
    }

    /// Retires the oldest entry (its slot contents are left in place and overwritten
    /// on a future wrap).
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    pub fn pop_front(&mut self) {
        assert!(self.len > 0, "popping from an empty ROB");
        self.head += 1;
        self.head_slot = self.pos(1);
        self.len -= 1;
    }

    /// Squashes the youngest entry (its slot contents are left in place).
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    pub fn pop_back(&mut self) {
        assert!(self.len > 0, "squashing from an empty ROB");
        self.len -= 1;
    }

    /// Iterates the in-flight entries from oldest to youngest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let wrap = self.len.saturating_sub(self.table_size() - self.head_slot);
        let first_end = (self.head_slot + self.len).min(self.slots.len());
        self.slots[self.head_slot..first_end]
            .iter()
            .chain(self.slots[..wrap].iter())
    }

    /// Mutably iterates the in-flight entries from oldest to youngest.
    #[cfg(test)]
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        let wrap = self.len.saturating_sub(self.table_size() - self.head_slot);
        let first_end = (self.head_slot + self.len).min(self.slots.len());
        let (lo, hi) = self.slots.split_at_mut(self.head_slot);
        hi[..first_end - self.head_slot]
            .iter_mut()
            .chain(lo[..wrap].iter_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct E {
        seq: InstSeq,
        payload: u64,
    }

    impl HasSeq for E {
        fn seq(&self) -> InstSeq {
            self.seq
        }
    }

    fn e(seq: InstSeq) -> E {
        E {
            seq,
            payload: seq.wrapping_mul(0x9E37_79B9),
        }
    }

    /// Direct seq indexing must never miss while the ring wraps many times and
    /// suffers interleaved squashes — the scenarios the old `rob_index` fallback
    /// scan existed to paper over. Capacities that are not a power of two leave
    /// slots of the table unused, so they are covered too.
    #[test]
    fn direct_indexing_survives_wraparound_and_squash() {
        for cap in [1usize, 3, 8, 96, 200] {
            let mut rob: RobRing<E> = RobRing::with_capacity(cap);
            let mut next = 0u64; // next seq to push (dense)
            let mut committed = 0u64; // committed watermark == expected head

            // Drive the ring through several full wraps with a mixed retire/squash
            // schedule derived from the step counter.
            for step in 0..1_000 + 20 * cap as u64 {
                match step % 7 {
                    // Mostly push until full.
                    0..=3 => {
                        if rob.len() < cap {
                            rob.push_back(e(next));
                            next += 1;
                        }
                    }
                    // Retire from the front.
                    4 => {
                        if !rob.is_empty() {
                            assert_eq!(rob.front().unwrap().seq, committed);
                            rob.pop_front();
                            committed += 1;
                        }
                    }
                    // Squash a variable-length tail, then refetch (same seqs
                    // re-pushed).
                    5 => {
                        let squash = (step % 3) as usize;
                        for _ in 0..squash.min(rob.len()) {
                            rob.pop_back();
                            next -= 1;
                        }
                    }
                    _ => {
                        if !rob.is_empty() {
                            rob.pop_front();
                            committed += 1;
                        }
                    }
                }
                // Every in-flight seq must be directly indexable with the right
                // entry; everything outside the window must report absent.
                let head = committed;
                for seq in head..next {
                    let got = rob.get(seq).expect("in-flight seq must index directly");
                    assert_eq!(*got, e(seq), "cap {cap}: wrong entry at seq {seq}");
                }
                assert!(rob.get(head.wrapping_sub(1)).is_none() || head == 0);
                assert!(rob.get(next).is_none());
                assert_eq!(rob.len() as u64, next - head);
                let seqs: Vec<u64> = rob.iter().map(|x| x.seq).collect();
                assert_eq!(seqs, (head..next).collect::<Vec<_>>(), "cap {cap}");
            }
            assert!(
                next > 2 * rob.table_size() as u64,
                "cap {cap}: the ring wrapped several times"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The masks index exactly as the modulo of the table size: `slot` is
        /// `seq mod slots` and `pos` is `(head_slot + idx) mod slots`, with the
        /// table the next power of two at or above the capacity.
        #[test]
        fn masked_slot_and_pos_equal_the_modulo_formulas(
            cap_pick in 0usize..5,
            start in 0u64..1_000_000_000_000,
            idx in 0usize..512
        ) {
            let cap = [1usize, 3, 96, 200, 512][cap_pick];
            let idx = idx % cap;
            let mut rob: RobRing<E> = RobRing::with_capacity(cap);
            let slots = rob.table_size();
            proptest::prop_assert!(slots.is_power_of_two() && slots >= cap && slots < 2 * cap);
            proptest::prop_assert_eq!(rob.slot(start), (start % slots as u64) as usize);
            // Slot storage fills from slot 0 (sequence numbers start at 0); after
            // one lap, a reset ring may restart anywhere.
            for seq in 0..slots as u64 {
                rob.push_back(e(seq));
                rob.pop_front();
            }
            rob.reset(cap);
            // Entries pushed from `start` live at the slot the formulas give.
            for seq in start..start + cap as u64 {
                rob.push_back(e(seq));
            }
            proptest::prop_assert_eq!(rob.pos(idx), (rob.slot(start) + idx) % slots);
            proptest::prop_assert_eq!(rob.pos(idx), rob.slot(start + idx as u64));
            proptest::prop_assert_eq!(rob.get(start + idx as u64), Some(&e(start + idx as u64)));
        }
    }

    #[test]
    fn iteration_is_age_ordered_across_the_wrap_seam() {
        let mut rob: RobRing<E> = RobRing::with_capacity(4);
        for s in 0..4 {
            rob.push_back(e(s));
        }
        rob.pop_front();
        rob.pop_front();
        rob.push_back(e(4));
        rob.push_back(e(5)); // wraps into slots 0..2
        let seqs: Vec<u64> = rob.iter().map(|x| x.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4, 5]);
        for (i, x) in rob.iter_mut().enumerate() {
            x.payload = i as u64;
        }
        let payloads: Vec<u64> = rob.iter().map(|x| x.payload).collect();
        assert_eq!(payloads, vec![0, 1, 2, 3]);
    }

    #[test]
    fn reset_retains_storage_and_restarts_cleanly() {
        let mut rob: RobRing<E> = RobRing::with_capacity(4);
        for s in 0..4 {
            rob.push_back(e(s));
        }
        rob.reset(4);
        assert!(rob.is_empty());
        assert!(rob.get(0).is_none());
        // A fresh cell's seqs restart at 0 and overwrite the stale slots.
        for s in 0..4 {
            rob.push_back(e(s));
        }
        assert_eq!(rob.get(3).unwrap().seq, 3);
        // Shrinking the capacity drops stale slots but stays usable.
        rob.reset(2);
        rob.push_back(e(0));
        rob.push_back(e(1));
        assert_eq!(rob.len(), 2);
        assert_eq!(rob.back().unwrap().seq, 1);
    }

    /// A fresh ring fills its slot storage from slot 0, so a first sequence
    /// number that maps elsewhere is a named error, not an out-of-bounds index.
    #[test]
    #[should_panic(expected = "ROB density invariant")]
    fn fresh_ring_starting_past_slot_zero_panics() {
        let mut rob: RobRing<E> = RobRing::with_capacity(4);
        rob.push_back(e(5));
    }

    #[test]
    #[should_panic(expected = "ROB overflow")]
    fn overflow_panics() {
        let mut rob: RobRing<E> = RobRing::with_capacity(2);
        rob.push_back(e(0));
        rob.push_back(e(1));
        rob.push_back(e(2));
    }
}

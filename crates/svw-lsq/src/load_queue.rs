//! An age-ordered queue of in-flight loads with (optional) associative ordering search.

use std::collections::VecDeque;

use svw_isa::{Addr, InstSeq, MemWidth, Value};

/// One in-flight load: what the ordering search reads. A load's marking and
/// vulnerability window live with the pipeline's per-instruction state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadEntry {
    /// Dynamic sequence number.
    pub seq: InstSeq,
    /// Effective address, once the load has executed and been resolved here
    /// (eliminated loads keep `None`).
    pub addr: Option<Addr>,
    /// Access width.
    pub width: Option<MemWidth>,
    /// The value the load obtained when it executed (possibly wrong — that is the
    /// point of re-execution).
    pub value: Option<Value>,
}

impl LoadEntry {
    fn overlaps(&self, addr: Addr, width: MemWidth) -> bool {
        match (self.addr, self.width) {
            (Some(a), Some(w)) => {
                let (l0, l1) = (a, a + w.bytes());
                let (s0, s1) = (addr, addr + width.bytes());
                l0 < s1 && s0 < l1
            }
            _ => false,
        }
    }
}

/// An age-ordered load queue.
///
/// The conventional unit uses [`LoadQueue::search_violations`] (the associative port
/// that stores use to find prematurely issued younger loads), and resolves each
/// executed load for it. The NLQ and SSQ remove that port; the structure then only
/// bounds the number of in-flight loads, and nothing needs resolving.
#[derive(Clone, Debug)]
pub struct LoadQueue {
    capacity: usize,
    entries: VecDeque<LoadEntry>,
}

impl LoadQueue {
    /// Creates an empty queue with space for `capacity` loads.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "load queue capacity must be non-zero");
        LoadQueue {
            capacity,
            entries: VecDeque::with_capacity(capacity),
        }
    }

    /// Restores the empty state for `capacity` — observationally identical to
    /// [`LoadQueue::new`] — retaining the entry storage.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn reset(&mut self, capacity: usize) {
        assert!(capacity > 0, "load queue capacity must be non-zero");
        self.capacity = capacity;
        self.entries.clear();
    }

    /// Maximum number of in-flight loads.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no loads are in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `true` if another load can be allocated.
    pub fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Allocates a load at the tail (rename order).
    ///
    /// # Panics
    ///
    /// Panics if the queue is full or allocation is out of program order.
    pub fn allocate(&mut self, seq: InstSeq) {
        assert!(self.has_space(), "load queue overflow");
        if let Some(tail) = self.entries.back() {
            assert!(seq > tail.seq, "loads must be allocated in program order");
        }
        self.entries.push_back(LoadEntry {
            seq,
            addr: None,
            width: None,
            value: None,
        });
    }

    /// Index of the entry with sequence number `seq`, located by binary search
    /// (entries are age-ordered and sequence numbers increase with age order).
    #[inline]
    fn index_of(&self, seq: InstSeq) -> Option<usize> {
        let i = self.entries.partition_point(|e| e.seq < seq);
        (i < self.entries.len() && self.entries[i].seq == seq).then_some(i)
    }

    /// Shared access to the entry for `seq`.
    pub fn get(&self, seq: InstSeq) -> Option<&LoadEntry> {
        self.index_of(seq).map(|i| &self.entries[i])
    }

    /// Records the executed address/value of a load.
    ///
    /// # Panics
    ///
    /// Panics if the load is not in the queue.
    pub fn resolve(&mut self, seq: InstSeq, addr: Addr, width: MemWidth, value: Value) {
        let i = self
            .index_of(seq)
            .expect("resolving a load that is not in the load queue");
        let e = &mut self.entries[i];
        e.addr = Some(addr);
        e.width = Some(width);
        e.value = Some(value);
    }

    /// The conventional LQ's associative ordering search: a store that has just
    /// resolved its address looks for *younger* loads that already executed and read an
    /// overlapping address. Returns the oldest such load (the flush point). If
    /// `ignore_silent_value` is `Some(v)`, loads whose obtained value equals `v` are
    /// skipped (the "ignore ordering violations from silent stores" refinement).
    pub fn search_violations(
        &self,
        store_seq: InstSeq,
        addr: Addr,
        width: MemWidth,
        ignore_silent_value: Option<Value>,
    ) -> Option<InstSeq> {
        // Only loads younger than the store can violate; binary-search the
        // age-ordered queue once instead of filtering older entries one by one.
        let younger = self.entries.partition_point(|e| e.seq <= store_seq);
        self.entries
            .range(younger..)
            .filter(|e| e.overlaps(addr, width))
            .filter(|e| match (ignore_silent_value, e.value) {
                (Some(v), Some(got)) => got != v,
                _ => true,
            })
            .map(|e| e.seq)
            .min()
    }

    /// Removes the oldest load at commit.
    ///
    /// # Panics
    ///
    /// Panics if the queue is empty or the oldest load is not `seq`.
    pub fn pop_commit(&mut self, seq: InstSeq) -> LoadEntry {
        let front = self
            .entries
            .pop_front()
            .expect("committing from an empty load queue");
        assert_eq!(front.seq, seq, "loads must commit in program order");
        front
    }

    /// Discards every load younger than `survivor` (or all loads if `None`).
    pub fn flush_after(&mut self, survivor: Option<InstSeq>) {
        match survivor {
            None => self.entries.clear(),
            Some(s) => {
                while matches!(self.entries.back(), Some(e) if e.seq > s) {
                    self.entries.pop_back();
                }
            }
        }
    }

    /// Iterates over in-flight loads from oldest to youngest.
    pub fn iter(&self) -> impl Iterator<Item = &LoadEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lq() -> LoadQueue {
        LoadQueue::new(8)
    }

    #[test]
    fn allocate_resolve_commit() {
        let mut q = lq();
        q.allocate(2);
        q.resolve(2, 0x1000, MemWidth::W8, 7);
        assert_eq!(q.get(2).unwrap().value, Some(7));
        let e = q.pop_commit(2);
        assert_eq!(e.addr, Some(0x1000));
        assert!(q.is_empty());
    }

    #[test]
    fn violation_search_finds_oldest_younger_overlapping_load() {
        let mut q = lq();
        q.allocate(4);
        q.allocate(6);
        q.allocate(8);
        q.resolve(4, 0x2000, MemWidth::W8, 1);
        q.resolve(6, 0x2000, MemWidth::W8, 1);
        q.resolve(8, 0x3000, MemWidth::W8, 1);
        // Store at seq 5 to 0x2000: load 6 violated (load 4 is older, load 8 unrelated).
        assert_eq!(q.search_violations(5, 0x2000, MemWidth::W8, None), Some(6));
        // Store at seq 3: load 4 is the oldest violator.
        assert_eq!(q.search_violations(3, 0x2000, MemWidth::W8, None), Some(4));
        // Unrelated address: no violation.
        assert_eq!(q.search_violations(3, 0x4000, MemWidth::W8, None), None);
    }

    #[test]
    fn silent_store_value_suppresses_violation() {
        let mut q = lq();
        q.allocate(4);
        q.resolve(4, 0x2000, MemWidth::W8, 42);
        // The store writes the same value the load already obtained: no flush needed.
        assert_eq!(q.search_violations(3, 0x2000, MemWidth::W8, Some(42)), None);
        // A different value is a real violation.
        assert_eq!(
            q.search_violations(3, 0x2000, MemWidth::W8, Some(43)),
            Some(4)
        );
    }

    #[test]
    fn unexecuted_loads_never_match() {
        let mut q = lq();
        q.allocate(4);
        assert_eq!(q.search_violations(3, 0x2000, MemWidth::W8, None), None);
    }

    #[test]
    fn flush_discards_younger_loads() {
        let mut q = lq();
        q.allocate(2);
        q.allocate(4);
        q.allocate(6);
        q.flush_after(Some(4));
        assert_eq!(q.len(), 2);
        q.flush_after(None);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut q = LoadQueue::new(1);
        q.allocate(1);
        q.allocate(2);
    }

    #[test]
    fn reset_matches_new() {
        let mut q = lq();
        q.allocate(2);
        q.resolve(2, 0x1000, MemWidth::W8, 7);
        let _ = q.search_violations(1, 0x1000, MemWidth::W8, None);
        q.reset(8);
        assert_eq!(format!("{q:?}"), format!("{:?}", lq()));
    }
}

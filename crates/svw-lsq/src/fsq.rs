//! The forwarding store queue (FSQ) of the speculative-SQ design.
//!
//! "A small, low-bandwidth forwarding SQ (FSQ) implements forwarding. The FSQ requires
//! fewer associative ports than a conventional SQ because only loads that read values
//! from older stores access it. It requires fewer entries because only stores that
//! forward values to loads are allocated entries in it."
//!
//! Stores predicted as forwarders by the steering predictor allocate entries here (if
//! space is available — allocation is best-effort and speculative); loads predicted as
//! forwardees search it. Re-execution checks that the steering was right.

use svw_core::Ssn;
use svw_isa::{Addr, InstSeq, MemWidth, Pc};

use crate::{ForwardResult, StoreQueue};

/// The forwarding store queue: a small associative store queue with best-effort
/// allocation.
#[derive(Clone, Debug)]
pub struct Fsq {
    queue: StoreQueue,
}

impl Fsq {
    /// The paper's FSQ size: 16 entries, single associative port.
    pub const PAPER_ENTRIES: usize = 16;

    /// Creates an empty FSQ with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Fsq {
            queue: StoreQueue::new(capacity),
        }
    }

    /// Restores the empty state for `capacity` — observationally identical to
    /// [`Fsq::new`] — retaining the entry storage.
    pub fn reset(&mut self, capacity: usize) {
        self.queue.reset(capacity);
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` if the FSQ holds no stores.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Attempts to allocate an entry for a steered store. Returns `true` on success;
    /// on failure (FSQ full) the store simply does not enter and any loads that needed
    /// it will mis-forward and be caught by re-execution.
    pub fn try_allocate(&mut self, seq: InstSeq, pc: Pc, ssn: Ssn) -> bool {
        if self.queue.has_space() {
            self.queue.allocate(seq, pc, ssn);
            true
        } else {
            false
        }
    }

    /// Records the address/data of a previously allocated store (no-op if the store
    /// was rejected at allocation).
    pub fn resolve(&mut self, seq: InstSeq, addr: Addr, width: MemWidth, value: u64) {
        if self.queue.get(seq).is_some() {
            self.queue.resolve(seq, addr, width, value);
        }
    }

    /// Searches the FSQ on behalf of a steered load.
    pub fn search(&self, load_seq: InstSeq, addr: Addr, width: MemWidth) -> ForwardResult {
        self.queue.search_forward(load_seq, addr, width)
    }

    /// Removes the store with sequence number `seq` when it commits (no-op if it was
    /// never allocated).
    pub fn release(&mut self, seq: InstSeq) {
        if self.queue.front().map(|e| e.seq) == Some(seq) {
            let _ = self.queue.pop_commit(seq);
        }
    }

    /// Discards stores younger than `survivor` after a flush.
    pub fn flush_after(&mut self, survivor: Option<InstSeq>) {
        let _ = self.queue.flush_after(survivor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_best_effort() {
        let mut fsq = Fsq::new(2);
        assert!(fsq.try_allocate(1, 0x100, Ssn::new(1)));
        assert!(fsq.try_allocate(3, 0x108, Ssn::new(2)));
        assert!(!fsq.try_allocate(5, 0x110, Ssn::new(3)));
        assert_eq!(fsq.len(), 2);
    }

    #[test]
    fn forwarding_through_fsq() {
        let mut fsq = Fsq::new(Fsq::PAPER_ENTRIES);
        fsq.try_allocate(1, 0x100, Ssn::new(1));
        fsq.resolve(1, 0x9000, MemWidth::W8, 0x77);
        match fsq.search(2, 0x9000, MemWidth::W8) {
            ForwardResult::Forward { value, seq, .. } => {
                assert_eq!(value, 0x77);
                assert_eq!(seq, 1);
            }
            other => panic!("expected forwarding, got {other:?}"),
        }
    }

    #[test]
    fn resolve_and_release_of_rejected_store_are_noops() {
        let mut fsq = Fsq::new(1);
        fsq.try_allocate(1, 0x100, Ssn::new(1));
        assert!(!fsq.try_allocate(3, 0x108, Ssn::new(2)));
        fsq.resolve(3, 0xA000, MemWidth::W8, 1); // rejected: ignored
        fsq.release(3); // rejected: ignored
        assert_eq!(fsq.len(), 1);
        fsq.release(1);
        assert!(fsq.is_empty());
    }

    #[test]
    fn flush_discards_young_entries() {
        let mut fsq = Fsq::new(4);
        fsq.try_allocate(1, 0, Ssn::new(1));
        fsq.try_allocate(3, 0, Ssn::new(2));
        fsq.flush_after(Some(1));
        assert_eq!(fsq.len(), 1);
        fsq.flush_after(None);
        assert!(fsq.is_empty());
    }
}

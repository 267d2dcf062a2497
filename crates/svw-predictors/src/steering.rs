//! The FSQ steering predictor of the speculative-SQ design.
//!
//! "FSQ steering uses a simple predictor, a single bit per instruction in the
//! instruction cache. Initially, all bits are clear and no loads/stores access/enter
//! the FSQ. When re-execution detects a missed forwarding instance, the participating
//! load and store are tagged for future FSQ access/entry."

use std::collections::HashSet;
use std::hash::BuildHasherDefault;

use svw_isa::{IntKeyHasher, Pc};

/// A per-static-instruction steering bit, modelled as a set of tagged PCs (the paper
/// stores the bit in the instruction cache, so capacity is effectively the I-cache's
/// reach; we model it as unbounded, which is equivalent for our footprint). The set
/// is consulted once per dispatched load/store under SSQ, so it uses the fast
/// deterministic integer hasher.
#[derive(Clone, Debug, Default)]
pub struct SteeringPredictor {
    tagged: HashSet<Pc, BuildHasherDefault<IntKeyHasher>>,
}

impl SteeringPredictor {
    /// Creates a predictor with all bits clear.
    pub fn new() -> Self {
        Self::default()
    }

    /// Restores the all-bits-clear state, retaining the tag set's capacity.
    pub fn reset(&mut self) {
        self.tagged.clear();
    }

    /// Returns `true` if the static instruction at `pc` should use the FSQ
    /// (loads: search it; stores: allocate an entry in it).
    pub fn uses_fsq(&self, pc: Pc) -> bool {
        self.tagged.contains(&pc)
    }

    /// Tags the instruction at `pc` for FSQ use (training on a missed forwarding
    /// instance detected by re-execution).
    pub fn mark(&mut self, pc: Pc) {
        self.tagged.insert(pc);
    }

    /// Number of distinct static instructions tagged so far.
    pub fn tagged_count(&self) -> usize {
        self.tagged.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initially_nothing_uses_the_fsq() {
        let p = SteeringPredictor::new();
        assert!(!p.uses_fsq(0x1234));
        assert_eq!(p.tagged_count(), 0);
    }

    #[test]
    fn marking_is_sticky_and_idempotent() {
        let mut p = SteeringPredictor::new();
        p.mark(0x1000);
        p.mark(0x1000);
        p.mark(0x2000);
        assert!(p.uses_fsq(0x1000));
        assert!(p.uses_fsq(0x2000));
        assert!(!p.uses_fsq(0x3000));
        assert_eq!(p.tagged_count(), 2);
    }
}

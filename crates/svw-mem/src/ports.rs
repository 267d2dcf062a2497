//! Per-cycle cache-port budgeting.
//!
//! The paper's load-execution bandwidth comes from a 2-way interleaved data cache (two
//! loads per cycle, one per bank), while store retirement and load re-execution share a
//! *single* read/write port — the contention SVW exists to relieve. These two tiny
//! budget trackers model exactly that.

use svw_isa::Addr;

/// A set of address-interleaved, single-access-per-cycle cache banks (the load
/// execution ports).
#[derive(Clone, Debug)]
pub struct BankedPorts {
    /// `log2` of the interleave granularity: an address's bank is its
    /// `addr >> interleave_shift` line number, masked.
    interleave_shift: u32,
    /// The bank count minus one (the count is a power of two).
    bank_mask: usize,
    /// Cycle number each bank was last used in.
    last_used: Vec<u64>,
}

impl BankedPorts {
    /// Creates `banks` banks interleaved at `line_bytes` granularity.
    ///
    /// # Panics
    ///
    /// Panics if `banks` or `line_bytes` is not a power of two.
    pub fn new(banks: usize, line_bytes: u64) -> Self {
        let mut ports = BankedPorts {
            interleave_shift: 0,
            bank_mask: 0,
            last_used: Vec::new(),
        };
        ports.reset(banks, line_bytes);
        ports
    }

    /// Restores the all-banks-idle state for the given geometry, reusing the per-bank
    /// bookkeeping storage.
    ///
    /// # Panics
    ///
    /// Panics if `banks` or `line_bytes` is not a power of two.
    pub fn reset(&mut self, banks: usize, line_bytes: u64) {
        assert!(banks.is_power_of_two(), "bank count must be a power of two");
        assert!(
            line_bytes.is_power_of_two(),
            "interleave granularity must be a power of two"
        );
        self.interleave_shift = line_bytes.trailing_zeros();
        self.bank_mask = banks - 1;
        self.last_used.clear();
        self.last_used.resize(banks, u64::MAX);
    }

    /// The bank an address maps to.
    #[inline]
    pub fn bank_of(&self, addr: Addr) -> usize {
        (addr >> self.interleave_shift) as usize & self.bank_mask
    }

    /// Whether the bank for `addr` is still free during `cycle`. Side-effect free.
    #[inline]
    pub fn is_free(&self, addr: Addr, cycle: u64) -> bool {
        self.last_used[self.bank_of(addr)] != cycle
    }

    /// Attempts to use the bank for `addr` during `cycle`. Returns `true` (and marks
    /// the bank busy for that cycle) if it was free.
    pub fn try_use(&mut self, addr: Addr, cycle: u64) -> bool {
        let b = self.bank_of(addr);
        if self.last_used[b] == cycle {
            false
        } else {
            self.last_used[b] = cycle;
            true
        }
    }
}

/// A single structural resource usable by at most one requester per cycle, with the
/// caller responsible for offering it to requesters in priority order (the simulator
/// offers store commit first, then load re-execution, as the paper specifies).
#[derive(Clone, Copy, Debug, Default)]
pub struct SharedPort {
    last_used: Option<u64>,
}

impl SharedPort {
    /// Creates an idle port.
    pub fn new() -> Self {
        Self::default()
    }

    /// Restores the idle state.
    pub fn reset(&mut self) {
        *self = SharedPort::default();
    }

    /// Returns `true` if the port is free during `cycle`.
    pub fn is_free(&self, cycle: u64) -> bool {
        self.last_used != Some(cycle)
    }

    /// Attempts to acquire the port for `cycle`. Returns `true` on success.
    pub fn try_acquire(&mut self, cycle: u64) -> bool {
        if self.is_free(cycle) {
            self.last_used = Some(cycle);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banked_ports_allow_one_access_per_bank_per_cycle() {
        let mut p = BankedPorts::new(2, 64);
        // 0x000 and 0x040 are adjacent lines → different banks.
        assert_ne!(p.bank_of(0x000), p.bank_of(0x040));
        assert!(p.try_use(0x000, 1));
        assert!(p.try_use(0x040, 1));
        // Same bank again in the same cycle: rejected, and `is_free` agrees
        // without taking anything.
        assert!(!p.is_free(0x080, 1));
        assert!(!p.try_use(0x080, 1));
        assert!(p.is_free(0x080, 2));
        assert!(p.is_free(0x080, 2), "is_free takes nothing");
        // Next cycle it frees up.
        assert!(p.try_use(0x080, 2));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The shift selects the same bank as the divide it replaces.
        #[test]
        fn shifted_bank_equals_the_divide_formula(
            banks_log in 0u32..4,
            line_log in 0u32..9,
            addr in 0u64..u64::MAX
        ) {
            let (banks, line_bytes) = (1usize << banks_log, 1u64 << line_log);
            let p = BankedPorts::new(banks, line_bytes);
            proptest::prop_assert_eq!(
                p.bank_of(addr),
                ((addr / line_bytes) % banks as u64) as usize
            );
        }
    }

    #[test]
    fn shared_port_single_use_per_cycle() {
        let mut p = SharedPort::new();
        assert!(p.is_free(5));
        assert!(p.try_acquire(5));
        assert!(!p.is_free(5));
        assert!(!p.try_acquire(5));
        assert!(p.try_acquire(6));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_bank_count_panics() {
        let _ = BankedPorts::new(3, 64);
    }

    #[test]
    #[should_panic(expected = "interleave granularity must be a power of two")]
    fn interleave_that_is_not_a_power_of_two_panics() {
        let _ = BankedPorts::new(2, 48);
    }
}

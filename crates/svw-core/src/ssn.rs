//! Store sequence numbers and the global SSN clock.

use std::fmt;

/// A store sequence number.
///
/// Internally the simulator carries SSNs as unbounded 64-bit logical values — this is
/// sound because the paper's wrap-around policy (drain the pipeline and flash-clear the
/// SSBF whenever `SSN_rename` wraps) guarantees that no comparison ever straddles a
/// wrap point, so finite-width comparisons and unbounded comparisons always agree. The
/// *cost* of finite widths (the periodic drains) is modelled by [`SsnClock`] /
/// [`SsnWidth`], and the equivalence is checked by property tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ssn(u64);

impl Ssn {
    /// The SSN "zero": conceptually, a store that retired before the program began.
    /// A load whose window is `Ssn::ZERO` is vulnerable to every store.
    pub const ZERO: Ssn = Ssn(0);

    /// Creates an SSN from a raw logical value.
    #[inline]
    pub fn new(raw: u64) -> Self {
        Ssn(raw)
    }

    /// The raw logical value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The next SSN.
    #[inline]
    pub fn next(self) -> Ssn {
        Ssn(self.0 + 1)
    }

    /// The SSN `n` positions later.
    #[inline]
    pub fn offset(self, n: u64) -> Ssn {
        Ssn(self.0 + n)
    }

    /// The value of this SSN as it would appear in a finite-width register.
    #[inline]
    pub fn truncated(self, width: SsnWidth) -> u64 {
        match width {
            SsnWidth::Infinite => self.0,
            SsnWidth::Bits(b) => self.0 & ((1u64 << b) - 1),
        }
    }
}

impl fmt::Display for Ssn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ssn:{}", self.0)
    }
}

/// The implemented width of store sequence numbers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SsnWidth {
    /// Unbounded SSNs (the paper's idealised comparison point — no wrap drains).
    Infinite,
    /// `bits`-wide SSNs; `SSN_rename` wrapping to zero forces a pipeline drain and an
    /// SSBF (and IT) flash-clear.
    Bits(u32),
}

impl SsnWidth {
    /// The paper's default implementation: 16-bit SSNs (64K-store wrap interval).
    pub const PAPER_DEFAULT: SsnWidth = SsnWidth::Bits(16);

    /// Number of stores between wrap-around events, if finite.
    pub fn wrap_period(self) -> Option<u64> {
        match self {
            SsnWidth::Infinite => None,
            SsnWidth::Bits(b) => {
                assert!((2..64).contains(&b), "SSN width must be in [2, 63]");
                Some(1u64 << b)
            }
        }
    }
}

/// The global SSN clock: tracks `SSN_retire` and `SSN_rename` and assigns SSNs to
/// stores as they are renamed.
///
/// `SSN_rename - SSN_retire` always equals the number of in-flight (renamed but not yet
/// retired) stores, mirroring the paper's `SSN_RENAME = SSN_RETIRE + SQ.OCCUPANCY`.
#[derive(Clone, Debug)]
pub struct SsnClock {
    width: SsnWidth,
    retire: Ssn,
    rename: Ssn,
    /// The `rename` value at which the most recent wrap drain was acknowledged, so
    /// that the same boundary is not drained for twice.
    wrap_handled_at: Option<u64>,
}

impl SsnClock {
    /// Creates a clock with the given SSN width. Both pointers start at zero
    /// (no stores renamed or retired yet).
    pub fn new(width: SsnWidth) -> Self {
        // Validate the width eagerly.
        let _ = width.wrap_period();
        SsnClock {
            width,
            retire: Ssn::ZERO,
            rename: Ssn::ZERO,
            wrap_handled_at: None,
        }
    }

    /// The SSN of the last retired store (`SSN_retire`).
    #[inline]
    pub fn retire(&self) -> Ssn {
        self.retire
    }

    /// The SSN of the youngest renamed store (`SSN_rename`).
    #[inline]
    pub fn rename(&self) -> Ssn {
        self.rename
    }

    /// The configured SSN width.
    #[inline]
    pub fn width(&self) -> SsnWidth {
        self.width
    }

    /// Number of in-flight (renamed, unretired) stores.
    #[inline]
    pub fn in_flight_stores(&self) -> u64 {
        self.rename.raw() - self.retire.raw()
    }

    /// Returns `true` if renaming one more store would cross a wrap boundary, i.e. the
    /// front end must stall, the pipeline must drain, and the SSBF must be
    /// flash-cleared before that store may rename.
    pub fn wrap_imminent(&self) -> bool {
        match self.width.wrap_period() {
            None => false,
            Some(p) => {
                (self.rename.raw() + 1).is_multiple_of(p)
                    && self.wrap_handled_at != Some(self.rename.raw())
            }
        }
    }

    /// Records that the wrap-around drain completed. May only be called while no
    /// stores are in flight.
    ///
    /// # Panics
    ///
    /// Panics if stores are still in flight.
    pub fn acknowledge_wrap_drain(&mut self) {
        assert_eq!(
            self.in_flight_stores(),
            0,
            "wrap-around drain requires an empty store window"
        );
        self.wrap_handled_at = Some(self.rename.raw());
    }

    /// Assigns the next SSN to a store being renamed.
    pub fn assign_store(&mut self) -> Ssn {
        self.rename = self.rename.next();
        self.rename
    }

    /// Retires the store with SSN `ssn`. Stores retire in program (and therefore SSN)
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `ssn` is not the next SSN to retire or is younger than `SSN_rename`.
    pub fn retire_store(&mut self, ssn: Ssn) {
        assert_eq!(
            ssn,
            self.retire.next(),
            "stores must retire in SSN order (expected {}, got {})",
            self.retire.next(),
            ssn
        );
        assert!(
            ssn <= self.rename,
            "cannot retire a store that was never renamed"
        );
        self.retire = ssn;
    }

    /// Rolls `SSN_rename` back after a pipeline flush. `surviving` is the SSN of the
    /// youngest store that survives the flush, or `None` if no in-flight stores
    /// survive (in which case `SSN_rename` returns to `SSN_retire`).
    ///
    /// # Panics
    ///
    /// Panics if `surviving` is older than `SSN_retire` or younger than `SSN_rename`.
    pub fn flush_to(&mut self, surviving: Option<Ssn>) {
        let target = surviving.unwrap_or(self.retire);
        assert!(
            target >= self.retire && target <= self.rename,
            "flush target {target} outside [{}, {}]",
            self.retire,
            self.rename
        );
        self.rename = target;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssn_ordering_and_offsets() {
        let a = Ssn::new(10);
        assert!(a < a.next());
        assert_eq!(a.offset(5), Ssn::new(15));
        assert_eq!(Ssn::ZERO.raw(), 0);
    }

    #[test]
    fn truncation() {
        let s = Ssn::new(0x1_0005);
        assert_eq!(s.truncated(SsnWidth::Bits(16)), 5);
        assert_eq!(s.truncated(SsnWidth::Infinite), 0x1_0005);
    }

    #[test]
    fn clock_assign_and_retire_in_order() {
        let mut c = SsnClock::new(SsnWidth::PAPER_DEFAULT);
        let s1 = c.assign_store();
        let s2 = c.assign_store();
        assert_eq!(s1, Ssn::new(1));
        assert_eq!(s2, Ssn::new(2));
        assert_eq!(c.in_flight_stores(), 2);
        c.retire_store(s1);
        assert_eq!(c.retire(), s1);
        assert_eq!(c.in_flight_stores(), 1);
        c.retire_store(s2);
        assert_eq!(c.in_flight_stores(), 0);
    }

    #[test]
    #[should_panic(expected = "retire in SSN order")]
    fn out_of_order_retire_panics() {
        let mut c = SsnClock::new(SsnWidth::Infinite);
        let _s1 = c.assign_store();
        let s2 = c.assign_store();
        c.retire_store(s2);
    }

    #[test]
    fn flush_rolls_rename_back() {
        let mut c = SsnClock::new(SsnWidth::Infinite);
        let s1 = c.assign_store();
        let _s2 = c.assign_store();
        let _s3 = c.assign_store();
        c.flush_to(Some(s1));
        assert_eq!(c.rename(), s1);
        assert_eq!(c.in_flight_stores(), 1);
        c.retire_store(s1);
        c.flush_to(None);
        assert_eq!(c.rename(), c.retire());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn flush_to_retired_store_panics() {
        let mut c = SsnClock::new(SsnWidth::Infinite);
        let s1 = c.assign_store();
        let s2 = c.assign_store();
        c.retire_store(s1);
        c.retire_store(s2);
        c.flush_to(Some(s1));
    }

    #[test]
    fn wrap_detection_small_width() {
        let mut c = SsnClock::new(SsnWidth::Bits(2)); // wrap period 4
        assert!(!c.wrap_imminent());
        let s1 = c.assign_store(); // 1
        let s2 = c.assign_store(); // 2
        c.retire_store(s1);
        c.retire_store(s2);
        let mut fired = false;
        for _ in 0..8 {
            if c.wrap_imminent() {
                fired = true;
                c.acknowledge_wrap_drain();
            }
            let s = c.assign_store();
            c.retire_store(s);
        }
        assert!(fired);
    }

    #[test]
    fn infinite_width_never_wraps() {
        let mut c = SsnClock::new(SsnWidth::Infinite);
        for _ in 0..1000 {
            assert!(!c.wrap_imminent());
            let s = c.assign_store();
            c.retire_store(s);
        }
    }

    #[test]
    #[should_panic(expected = "empty store window")]
    fn wrap_drain_with_inflight_stores_panics() {
        let mut c = SsnClock::new(SsnWidth::Bits(4));
        let _ = c.assign_store();
        c.acknowledge_wrap_drain();
    }

    #[test]
    fn paper_default_is_16_bits() {
        assert_eq!(SsnWidth::PAPER_DEFAULT.wrap_period(), Some(65536));
    }
}

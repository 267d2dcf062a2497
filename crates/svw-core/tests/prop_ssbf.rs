//! Property-based tests for the SVW core invariants.
//!
//! The single most important property of the whole mechanism — the reason SVW is safe —
//! is that the SSBF can only err on the side of *extra* re-executions: for any sequence
//! of store updates and any load lookup, if an exact (infinite, 4-byte-granularity)
//! conflict tracker says the load must re-execute, every finite SSBF organisation must
//! say so too.

use proptest::prelude::*;

use svw_core::{Ssbf, SsbfConfig, Ssn, SsnClock, SsnWidth, VulnWindow};

/// A compact random "event" alphabet for driving the filter.
#[derive(Clone, Debug)]
enum Event {
    /// A store of `bytes` at `addr` (the SSN is assigned in order).
    Store { addr: u64, bytes: u64 },
    /// A load probe of `bytes` at `addr` with a window boundary chosen among the SSNs
    /// seen so far (as an index that is clamped).
    Probe {
        addr: u64,
        bytes: u64,
        window_idx: u64,
    },
    /// A cache-line invalidation covering the 64-byte line of `addr`.
    Invalidate { addr: u64 },
}

fn addr_strategy() -> impl Strategy<Value = u64> {
    // A small-ish address space with 4-byte alignment so aliasing actually happens in
    // 128-entry tables.
    (0u64..16 * 1024).prop_map(|a| a * 4)
}

fn event_strategy() -> impl Strategy<Value = Event> {
    prop_oneof![
        4 => (addr_strategy(), prop_oneof![Just(4u64), Just(8u64)])
            .prop_map(|(addr, bytes)| Event::Store { addr: addr & !(bytes - 1), bytes }),
        4 => (addr_strategy(), prop_oneof![Just(4u64), Just(8u64)], 0u64..1000)
            .prop_map(|(addr, bytes, window_idx)| Event::Probe {
                addr: addr & !(bytes - 1),
                bytes,
                window_idx
            }),
        1 => addr_strategy().prop_map(|addr| Event::Invalidate { addr }),
    ]
}

fn all_finite_configs() -> Vec<SsbfConfig> {
    vec![
        SsbfConfig::paper_default(),
        SsbfConfig::small_128(),
        SsbfConfig::large_2048(),
        SsbfConfig::double_bloom(),
        SsbfConfig::word_granularity(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// No SSBF organisation ever produces a false negative relative to exact conflict
    /// tracking (the "Bloom filter" property the paper relies on for correctness).
    #[test]
    fn ssbf_never_misses_a_conflict(events in proptest::collection::vec(event_strategy(), 1..200)) {
        let mut exact = Ssbf::new(SsbfConfig::infinite());
        let mut filters: Vec<Ssbf> = all_finite_configs().into_iter().map(Ssbf::new).collect();
        let mut next_ssn = 0u64;

        for ev in &events {
            match *ev {
                Event::Store { addr, bytes } => {
                    next_ssn += 1;
                    let ssn = Ssn::new(next_ssn);
                    exact.update_store(addr, bytes, ssn);
                    for f in &mut filters {
                        f.update_store(addr, bytes, ssn);
                    }
                }
                Event::Invalidate { addr } => {
                    let ssn = Ssn::new(next_ssn + 1);
                    exact.update_invalidation(addr, 64, ssn);
                    for f in &mut filters {
                        f.update_invalidation(addr, 64, ssn);
                    }
                }
                Event::Probe { addr, bytes, window_idx } => {
                    let window = Ssn::new(window_idx.min(next_ssn));
                    let exact_says = exact.must_reexecute(addr, bytes, window);
                    for f in &filters {
                        let approx_says = f.must_reexecute(addr, bytes, window);
                        prop_assert!(
                            approx_says || !exact_says,
                            "organisation {:?} missed a conflict at {:#x} (window {:?})",
                            f.config().organization, addr, window
                        );
                    }
                }
            }
        }
    }

    /// The larger the table, the fewer (or equal) conflicts it reports: 2048-entry and
    /// infinite tables never report a conflict that the 128-entry table filters out.
    #[test]
    fn bigger_tables_are_no_more_conservative(events in proptest::collection::vec(event_strategy(), 1..150)) {
        let mut small = Ssbf::new(SsbfConfig::small_128());
        let mut large = Ssbf::new(SsbfConfig::large_2048());
        let mut next_ssn = 0u64;
        for ev in &events {
            match *ev {
                Event::Store { addr, bytes } => {
                    next_ssn += 1;
                    small.update_store(addr, bytes, Ssn::new(next_ssn));
                    large.update_store(addr, bytes, Ssn::new(next_ssn));
                }
                Event::Invalidate { .. } => {}
                Event::Probe { addr, bytes, window_idx } => {
                    let window = Ssn::new(window_idx.min(next_ssn));
                    // The 8-byte granule index of the large table is a refinement of the
                    // small table's (same hash, more bits kept), so large ⊆ small.
                    prop_assert!(
                        small.must_reexecute(addr, bytes, window)
                            || !large.must_reexecute(addr, bytes, window)
                    );
                }
            }
        }
    }

    /// Windows: shrink is monotone (never increases vulnerability) and compose is the
    /// lattice meet (commutative, associative, identity = fully vulnerable).
    #[test]
    fn window_algebra(a in 0u64..1000, b in 0u64..1000, c in 0u64..1000) {
        let wa = VulnWindow::at_dispatch(Ssn::new(a));
        let wb = VulnWindow::at_dispatch(Ssn::new(b));
        let wc = VulnWindow::at_dispatch(Ssn::new(c));
        // shrink monotone
        prop_assert!(wa.shrink_to(Ssn::new(b)).boundary() >= wa.boundary());
        // compose commutative + associative
        prop_assert_eq!(wa.compose(wb), wb.compose(wa));
        prop_assert_eq!(wa.compose(wb).compose(wc), wa.compose(wb.compose(wc)));
        // identity
        prop_assert_eq!(wa.compose(VulnWindow::FULLY_VULNERABLE), VulnWindow::FULLY_VULNERABLE);
        // vulnerable_to agrees with boundary comparison
        prop_assert_eq!(wa.vulnerable_to(Ssn::new(b)), b > a);
    }

    /// Finite-width SSN comparisons agree with unbounded comparisons as long as the two
    /// values are within one wrap period of each other — which the drain policy
    /// guarantees (no load window and conflicting store SSN ever straddle a wrap).
    #[test]
    fn finite_width_comparison_agrees_within_a_period(base in 0u64..1_000_000, delta in 0u64..65_535) {
        let width = SsnWidth::Bits(16);
        let older = Ssn::new(base);
        let newer = Ssn::new(base + delta);
        // Unbounded comparison.
        let unbounded = newer > older;
        // Finite comparison using modular distance (what hardware would compute after
        // the drain policy has ensured |distance| < period).
        let period = width.wrap_period().unwrap();
        let dist = (newer.truncated(width) + period - older.truncated(width)) % period;
        let finite = dist != 0;
        prop_assert_eq!(unbounded, finite || delta == 0);
    }

    /// The SSN clock never lets the in-flight store count go negative and always keeps
    /// `SSN_rename >= SSN_retire` under random rename/retire/flush interleavings.
    #[test]
    fn ssn_clock_invariants(ops in proptest::collection::vec(0u8..3, 1..300)) {
        let mut clock = SsnClock::new(SsnWidth::Infinite);
        let mut inflight: Vec<Ssn> = Vec::new();
        for op in ops {
            match op {
                0 => {
                    inflight.push(clock.assign_store());
                }
                1 => {
                    if !inflight.is_empty() {
                        let s = inflight.remove(0);
                        clock.retire_store(s);
                    }
                }
                _ => {
                    // flush the younger half of the in-flight stores
                    let keep = inflight.len() / 2;
                    inflight.truncate(keep);
                    clock.flush_to(inflight.last().copied());
                }
            }
            prop_assert!(clock.rename() >= clock.retire());
            prop_assert_eq!(clock.in_flight_stores() as usize, inflight.len());
        }
    }
}

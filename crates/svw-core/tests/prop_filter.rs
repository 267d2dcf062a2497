//! Property-based tests for the [`SvwFilter`] state machine itself (the SSBF
//! algebra lives in `prop_ssbf.rs`): window bounds are monotone in retirement,
//! and `reset` is observationally identical to a freshly constructed filter no
//! matter what history preceded it — the contract the runner's arena-recycling
//! (and therefore cross-cell result isolation) depends on.

use proptest::prelude::*;

use svw_core::{SsnWidth, SvwConfig, SvwFilter, VulnWindow};

/// One random step of filter driving. The alphabet covers every mutating entry
/// point the CPU model uses: SSN assignment, SSBF store updates,
/// in-order retirement, flushes, wrap drains, and marked-load probes.
#[derive(Clone, Debug)]
enum Op {
    /// Rename a store, push its SSBF update, leave it in flight.
    Store { addr: u64, bytes: u64 },
    /// Retire the oldest in-flight store.
    RetireOldest,
    /// Probe a marked load against the current dispatch window.
    Probe { addr: u64, bytes: u64 },
    /// Flush the younger half of the in-flight stores.
    Flush,
}

fn addr_strategy() -> impl Strategy<Value = u64> {
    (0u64..4096).prop_map(|a| a * 8)
}

fn bytes_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![Just(4u64), Just(8u64)]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (addr_strategy(), bytes_strategy())
            .prop_map(|(addr, bytes)| Op::Store { addr, bytes }),
        3 => Just(Op::RetireOldest),
        3 => (addr_strategy(), bytes_strategy())
            .prop_map(|(addr, bytes)| Op::Probe { addr, bytes }),
        1 => Just(Op::Flush),
    ]
}

/// Drives `svw` through `ops`, keeping the in-flight bookkeeping the pipeline
/// would keep (stores retire oldest-first; a wrap drain retires everything
/// first, as the real drain does). Returns the probe outcomes so two replays
/// can be compared decision-by-decision, not just by final state.
fn drive(svw: &mut SvwFilter, ops: &[Op]) -> Vec<bool> {
    let mut inflight: Vec<svw_core::Ssn> = Vec::new();
    let mut outcomes = Vec::new();
    for op in ops {
        match *op {
            Op::Store { addr, bytes } => {
                if svw.wrap_drain_needed() {
                    for s in inflight.drain(..) {
                        svw.store_retired(s);
                    }
                    svw.on_wrap_drain();
                }
                let s = svw.assign_store_ssn();
                svw.store_svw_stage(addr, bytes, s);
                inflight.push(s);
            }
            Op::RetireOldest => {
                if !inflight.is_empty() {
                    svw.store_retired(inflight.remove(0));
                }
            }
            Op::Probe { addr, bytes } => {
                let w = svw.load_dispatch_window();
                outcomes.push(svw.filter_marked_load(addr, bytes, w));
            }
            Op::Flush => {
                let keep = inflight.len() / 2;
                inflight.truncate(keep);
                svw.flush(inflight.last().copied());
            }
        }
    }
    for s in inflight {
        svw.store_retired(s);
    }
    outcomes
}

fn configs() -> Vec<SvwConfig> {
    vec![
        SvwConfig::paper_default(),
        SvwConfig::paper_no_forward_update(),
        // A narrow SSN width so wrap drains actually fire inside short sequences.
        SvwConfig {
            ssn_width: SsnWidth::Bits(6),
            ..SvwConfig::paper_default()
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `reset` erases history: whatever sequence of stores, probes, flushes,
    /// invalidations, and wrap drains ran before it, a reset filter replays a
    /// second sequence with decisions, statistics, and final state identical
    /// to a brand-new filter — for the same config and across config changes.
    #[test]
    fn reset_is_observationally_fresh_after_any_history(
        history in proptest::collection::vec(op_strategy(), 0..120),
        replay in proptest::collection::vec(op_strategy(), 0..120),
        cfg_a in 0usize..3,
        cfg_b in 0usize..3,
    ) {
        let (cfg_a, cfg_b) = (configs()[cfg_a], configs()[cfg_b]);
        let mut recycled = SvwFilter::new(cfg_a);
        drive(&mut recycled, &history);
        recycled.reset(cfg_b);

        let mut fresh = SvwFilter::new(cfg_b);
        let recycled_outcomes = drive(&mut recycled, &replay);
        let fresh_outcomes = drive(&mut fresh, &replay);

        prop_assert_eq!(recycled_outcomes, fresh_outcomes);
        prop_assert_eq!(format!("{recycled:?}"), format!("{fresh:?}"));
    }

    /// The dispatch window is monotone in retirement: as stores retire, newly
    /// dispatched loads are vulnerable to no more (boundary never moves
    /// backwards), and the boundary never passes `SSN_rename`.
    #[test]
    fn dispatch_window_is_monotone_in_retirement(
        ops in proptest::collection::vec(op_strategy(), 1..150),
    ) {
        let mut svw = SvwFilter::new(SvwConfig::paper_default());
        let mut inflight: Vec<svw_core::Ssn> = Vec::new();
        let mut last_boundary = svw.load_dispatch_window().boundary();
        for op in &ops {
            match *op {
                Op::Store { addr, bytes } => {
                    let s = svw.assign_store_ssn();
                    svw.store_svw_stage(addr, bytes, s);
                    inflight.push(s);
                }
                Op::RetireOldest => {
                    if !inflight.is_empty() {
                        svw.store_retired(inflight.remove(0));
                    }
                }
                // Flushes roll back *rename*, never retire, so the boundary
                // still may not regress; probes are window-neutral.
                Op::Flush => {
                    let keep = inflight.len() / 2;
                    inflight.truncate(keep);
                    svw.flush(inflight.last().copied());
                }
                Op::Probe { .. } => {}
            }
            let boundary = svw.load_dispatch_window().boundary();
            prop_assert!(boundary >= last_boundary, "retirement moved the window backwards");
            prop_assert!(boundary <= svw.ssn_rename(), "retired past rename");
            last_boundary = boundary;
        }
    }

    /// A dispatch window composed with itself is itself, and composing two
    /// loads' windows is never less conservative than either input — the
    /// property RLE relies on when it merges windows across eliminated loads.
    #[test]
    fn composed_windows_are_at_least_as_conservative(a in 0u64..5000, b in 0u64..5000) {
        let wa = VulnWindow::at_dispatch(svw_core::Ssn::new(a));
        let wb = VulnWindow::at_dispatch(svw_core::Ssn::new(b));
        prop_assert_eq!(wa.compose(wa), wa);
        let c = wa.compose(wb);
        prop_assert!(c.boundary() <= wa.boundary());
        prop_assert!(c.boundary() <= wb.boundary());
    }
}

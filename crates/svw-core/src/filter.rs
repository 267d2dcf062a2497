//! The bundled SVW mechanism as the out-of-order core sees it.

use svw_isa::Addr;

use crate::{Ssbf, SsbfConfig, Ssn, SsnClock, SsnWidth, SvwStats, VulnWindow};

/// Whether a load's window is updated ("shrunk") when it forwards from an in-flight
/// store. The paper evaluates both: `SVW−UPD` and `SVW+UPD`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SvwUpdatePolicy {
    /// Do not update the window on store-to-load forwarding (the paper's `SVW−UPD`).
    NoForwardUpdate,
    /// Update the window to the forwarding store's SSN (the paper's `SVW+UPD`).
    UpdateOnForward,
}

/// Configuration of the full SVW mechanism.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SvwConfig {
    /// Store sequence number width (finite widths pay periodic wrap-around drains).
    pub ssn_width: SsnWidth,
    /// SSBF organisation.
    pub ssbf: SsbfConfig,
    /// Forwarding-update policy.
    pub update_policy: SvwUpdatePolicy,
    /// If `true`, stores may update the SSBF speculatively (before all older loads have
    /// retired). This avoids elongating the load-to-younger-store serialization at the
    /// cost of a few superfluous re-executions after flushes (§3.6 of the paper).
    pub speculative_ssbf_updates: bool,
}

impl SvwConfig {
    /// The paper's baseline SVW configuration: 16-bit SSNs, 512-entry (1 KB) SSBF,
    /// window updates on store-to-load forwarding, speculative SSBF updates.
    pub fn paper_default() -> Self {
        SvwConfig {
            ssn_width: SsnWidth::PAPER_DEFAULT,
            ssbf: SsbfConfig::paper_default(),
            update_policy: SvwUpdatePolicy::UpdateOnForward,
            speculative_ssbf_updates: true,
        }
    }

    /// The paper's `SVW−UPD` configuration (no window update on forwarding).
    pub fn paper_no_forward_update() -> Self {
        SvwConfig {
            update_policy: SvwUpdatePolicy::NoForwardUpdate,
            ..Self::paper_default()
        }
    }
}

impl Default for SvwConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The complete Store Vulnerability Window mechanism: SSN clock + SSBF + policies,
/// exposing exactly the operations the processor model needs.
#[derive(Clone, Debug)]
pub struct SvwFilter {
    config: SvwConfig,
    clock: SsnClock,
    ssbf: Ssbf,
    stats: SvwStats,
}

impl SvwFilter {
    /// Creates the mechanism from a configuration.
    pub fn new(config: SvwConfig) -> Self {
        SvwFilter {
            config,
            clock: SsnClock::new(config.ssn_width),
            ssbf: Ssbf::new(config.ssbf),
            stats: SvwStats::default(),
        }
    }

    /// Restores the mechanism to its initial state for `config` — observationally
    /// identical to [`SvwFilter::new`] — reusing the SSBF's table storage where the
    /// organisation allows.
    pub fn reset(&mut self, config: SvwConfig) {
        self.clock = SsnClock::new(config.ssn_width);
        self.ssbf.reset(config.ssbf);
        self.stats = SvwStats::default();
        self.config = config;
    }

    /// The configuration in use.
    pub fn config(&self) -> &SvwConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SvwStats {
        &self.stats
    }

    /// Mutable access to the statistics (the CPU model also records marked/filtered
    /// counts here so they end up in one place).
    pub fn stats_mut(&mut self) -> &mut SvwStats {
        &mut self.stats
    }

    /// `SSN_retire`.
    pub fn ssn_retire(&self) -> Ssn {
        self.clock.retire()
    }

    /// `SSN_rename`.
    pub fn ssn_rename(&self) -> Ssn {
        self.clock.rename()
    }

    /// Whether the forwarding-update (`+UPD`) optimization is enabled.
    pub fn updates_on_forward(&self) -> bool {
        self.config.update_policy == SvwUpdatePolicy::UpdateOnForward
    }

    /// Whether stores update the SSBF speculatively (see [`SvwConfig`]).
    pub fn speculative_ssbf_updates(&self) -> bool {
        self.config.speculative_ssbf_updates
    }

    /// Returns `true` if renaming one more store requires the wrap-around drain first.
    pub fn wrap_drain_needed(&self) -> bool {
        self.clock.wrap_imminent()
    }

    /// Performs the wrap-around actions once the pipeline has drained: flash-clears the
    /// SSBF (the caller is responsible for also flash-clearing the integration table if
    /// RLE is active) and acknowledges the drain.
    ///
    /// # Panics
    ///
    /// Panics if stores are still in flight (the pipeline has not drained).
    pub fn on_wrap_drain(&mut self) {
        self.clock.acknowledge_wrap_drain();
        self.ssbf.flash_clear();
    }

    /// Assigns an SSN to a store at rename.
    pub fn assign_store_ssn(&mut self) -> Ssn {
        self.clock.assign_store()
    }

    /// Establishes the dispatch-time vulnerability window of a load
    /// (`ld.SVW = SSN_retire`).
    pub fn load_dispatch_window(&self) -> VulnWindow {
        VulnWindow::at_dispatch(self.clock.retire())
    }

    /// Shrinks `window` because the load forwarded from the in-flight store with
    /// sequence number `store_ssn` — if and only if the `+UPD` policy is enabled.
    #[must_use]
    pub fn forward_update(&self, window: VulnWindow, store_ssn: Ssn) -> VulnWindow {
        if self.updates_on_forward() {
            window.shrink_to(store_ssn)
        } else {
            window
        }
    }

    /// A store passes the SVW stage of the re-execution pipeline:
    /// `SSBF[st.addr] = st.SSN`.
    pub fn store_svw_stage(&mut self, addr: Addr, bytes: u64, ssn: Ssn) {
        self.stats.ssbf_store_updates += 1;
        self.ssbf.update_store(addr, bytes, ssn);
    }

    /// A coherence invalidation updates every word of the invalidated line with
    /// `SSN_rename + 1` so that every in-flight load is (conservatively) vulnerable.
    pub fn invalidation_svw_stage(&mut self, line_addr: Addr, line_bytes: u64) {
        self.stats.ssbf_invalidation_updates += 1;
        let ssn = self.clock.rename().next();
        self.ssbf.update_invalidation(line_addr, line_bytes, ssn);
    }

    /// A store retires (writes the data cache); advances `SSN_retire`.
    pub fn store_retired(&mut self, ssn: Ssn) {
        self.clock.retire_store(ssn);
    }

    /// Rolls `SSN_rename` back after a flush. `surviving` is the SSN of the youngest
    /// in-flight store that survives, or `None` if none survive.
    pub fn flush(&mut self, surviving: Option<Ssn>) {
        self.clock.flush_to(surviving);
    }

    /// The SVW-stage filter test for a marked load: returns `true` if the load must
    /// re-execute (access the data cache), `false` if it can be declared verified
    /// immediately. Also records the outcome in the statistics.
    pub fn filter_marked_load(&mut self, addr: Addr, bytes: u64, window: VulnWindow) -> bool {
        self.stats.marked_loads += 1;
        let reexec = self.ssbf.must_reexecute(addr, bytes, window.boundary());
        if reexec {
            self.stats.reexecuted_loads += 1;
        } else {
            self.stats.filtered_loads += 1;
        }
        reexec
    }

    /// Raw filter test without statistics side-effects (`SSBF[addr] > window`).
    pub fn must_reexecute(&self, addr: Addr, bytes: u64, window: VulnWindow) -> bool {
        self.ssbf.must_reexecute(addr, bytes, window.boundary())
    }

    /// Direct access to the SSBF, mainly for configuration sweeps and tests.
    pub fn ssbf(&self) -> &Ssbf {
        &self.ssbf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_working_example() {
        // Reproduces the paper's Figure 4(a)/(b) working example.
        let mut svw = SvwFilter::new(SvwConfig::paper_default());
        // Stores 1..=62 have already retired.
        for _ in 0..62 {
            let s = svw.assign_store_ssn();
            svw.store_svw_stage(0xdead_0000 + s.raw() * 8, 8, s);
            svw.store_retired(s);
        }
        assert_eq!(svw.ssn_retire(), Ssn::new(62));

        // The load dispatches: SVW = 62.
        let mut window = svw.load_dispatch_window();
        assert_eq!(window.boundary(), Ssn::new(62));

        // Stores 63..=67 are renamed (in flight).
        let ssns: Vec<Ssn> = (0..5).map(|_| svw.assign_store_ssn()).collect();
        assert_eq!(svw.ssn_rename(), Ssn::new(67));

        // The load forwards from store 65 (address A): window shrinks to 65.
        window = svw.forward_update(window, ssns[2]);
        assert_eq!(window.boundary(), Ssn::new(65));

        // Case (a): store 66 also writes A and retires before the load's SVW stage.
        let mut case_a = svw.clone();
        let addr_a = 0xA000;
        for &s in &ssns[0..4] {
            // stores 63..=66 retire; 66 writes A, others elsewhere
            let addr = if s == Ssn::new(66) {
                addr_a
            } else {
                0xB000 + s.raw() * 8
            };
            case_a.store_svw_stage(addr, 8, s);
            case_a.store_retired(s);
        }
        assert!(
            case_a.filter_marked_load(addr_a, 8, window),
            "vulnerable collision must re-execute"
        );

        // Case (b): the colliding store is 64, which the load is NOT vulnerable to.
        let mut case_b = svw;
        for &s in &ssns[0..4] {
            let addr = if s == Ssn::new(64) {
                addr_a
            } else {
                0xB000 + s.raw() * 8
            };
            case_b.store_svw_stage(addr, 8, s);
            case_b.store_retired(s);
        }
        assert!(
            !case_b.filter_marked_load(addr_a, 8, window),
            "invulnerable collision is filtered"
        );

        assert_eq!(case_b.stats().marked_loads, 1);
        assert_eq!(case_b.stats().filtered_loads, 1);
    }

    /// Arena-reuse contract: `reset` restores a state observationally identical to
    /// `new`, for the same and for a different SVW configuration.
    #[test]
    fn reset_matches_new() {
        let mut svw = SvwFilter::new(SvwConfig::paper_default());
        for _ in 0..100 {
            let s = svw.assign_store_ssn();
            svw.store_svw_stage(0x1000 + s.raw() * 8, 8, s);
            svw.store_retired(s);
        }
        let _ = svw.filter_marked_load(0x1000, 8, VulnWindow::at_dispatch(Ssn::ZERO));
        svw.reset(SvwConfig::paper_default());
        assert_eq!(
            format!("{svw:?}"),
            format!("{:?}", SvwFilter::new(SvwConfig::paper_default()))
        );
        let other = SvwConfig::paper_no_forward_update();
        svw.reset(other);
        assert_eq!(format!("{svw:?}"), format!("{:?}", SvwFilter::new(other)));
    }

    #[test]
    fn forward_update_respects_policy() {
        let plus = SvwFilter::new(SvwConfig::paper_default());
        let minus = SvwFilter::new(SvwConfig::paper_no_forward_update());
        let w = VulnWindow::at_dispatch(Ssn::new(10));
        assert_eq!(
            plus.forward_update(w, Ssn::new(20)).boundary(),
            Ssn::new(20)
        );
        assert_eq!(
            minus.forward_update(w, Ssn::new(20)).boundary(),
            Ssn::new(10)
        );
    }

    #[test]
    fn wrap_drain_clears_ssbf() {
        let mut svw = SvwFilter::new(SvwConfig {
            ssn_width: SsnWidth::Bits(4), // wrap every 16 stores
            ..SvwConfig::paper_default()
        });
        let mut drained = 0;
        for _ in 0..40 {
            if svw.wrap_drain_needed() {
                svw.on_wrap_drain();
                drained += 1;
            }
            let s = svw.assign_store_ssn();
            svw.store_svw_stage(0x1000, 8, s);
            svw.store_retired(s);
        }
        assert!(drained >= 2);
        // After the most recent activity the SSBF still reflects post-clear stores.
        let w = VulnWindow::at_dispatch(Ssn::ZERO);
        assert!(svw.must_reexecute(0x1000, 8, w));
    }

    #[test]
    fn invalidation_marks_all_inflight_loads_vulnerable() {
        let mut svw = SvwFilter::new(SvwConfig::paper_default());
        let s = svw.assign_store_ssn();
        // A load dispatched *after* that store retired would have window == 1 and be
        // invulnerable to anything in the SSBF…
        svw.store_svw_stage(0x9000, 8, s);
        svw.store_retired(s);
        let w = svw.load_dispatch_window();
        assert!(!svw.must_reexecute(0x7000, 8, w));
        // …but an invalidation of its line is stamped with SSN_rename + 1, which is
        // inside every in-flight load's window.
        svw.invalidation_svw_stage(0x7000, 64);
        assert!(svw.must_reexecute(0x7000, 8, w));
    }

    #[test]
    fn filter_statistics_accumulate() {
        let mut svw = SvwFilter::new(SvwConfig::paper_default());
        let s = svw.assign_store_ssn();
        svw.store_svw_stage(0x1000, 8, s);
        svw.store_retired(s);
        let w = VulnWindow::at_dispatch(Ssn::ZERO);
        assert!(svw.filter_marked_load(0x1000, 8, w));
        // 0x1010 maps to a different SSBF entry than 0x1000, so it is filtered.
        assert!(!svw.filter_marked_load(0x1010, 8, w));
        let st = svw.stats();
        assert_eq!(st.marked_loads, 2);
        assert_eq!(st.reexecuted_loads, 1);
        assert_eq!(st.filtered_loads, 1);
        assert_eq!(st.ssbf_store_updates, 1);
    }

    #[test]
    fn flush_rolls_back_rename_pointer() {
        let mut svw = SvwFilter::new(SvwConfig::paper_default());
        let s1 = svw.assign_store_ssn();
        let _s2 = svw.assign_store_ssn();
        let _s3 = svw.assign_store_ssn();
        svw.flush(Some(s1));
        assert_eq!(svw.ssn_rename(), s1);
        svw.flush(None);
        assert_eq!(svw.ssn_rename(), svw.ssn_retire());
    }
}

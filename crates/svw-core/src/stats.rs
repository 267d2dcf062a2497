//! Counters describing the behaviour of an [`crate::SvwFilter`] over a run.

/// Filter-outcome counters, kept where the SVW stage and the SSBF do their work.
///
/// The load counts are of dynamic load instances that reached the SVW stage, not
/// of retired loads: an instance that a later flush squashes is counted, and so is
/// its re-fetched successor. `ssbf_store_updates` likewise counts the SSBF
/// updates of stores that a flush later squashed. That is the population the SSBF's
/// traffic is made of. Counts of *retired* loads are in `svw_cpu::CpuStats`
/// (`loads_marked`, `loads_filtered`, `loads_reexecuted`). The simulator
/// increments these counters, the experiment harness reads them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SvwStats {
    /// Loads that some active load optimization marked for (potential) re-execution.
    pub marked_loads: u64,
    /// Marked loads the SVW filter allowed to skip re-execution.
    pub filtered_loads: u64,
    /// Marked loads that actually re-executed (accessed the data cache).
    pub reexecuted_loads: u64,
    /// Re-executed loads whose value mismatched (true mis-speculations → flush).
    pub reexec_mismatches: u64,
    /// Pipeline drains forced by SSN wrap-around.
    pub wrap_drains: u64,
    /// SSBF updates performed by retiring (or speculatively by pre-retirement) stores.
    pub ssbf_store_updates: u64,
    /// SSBF updates performed by coherence invalidations.
    pub ssbf_invalidation_updates: u64,
}

impl SvwStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fraction of marked loads that the filter eliminated from the re-execution
    /// stream. Returns 0 when nothing was marked.
    pub fn filter_rate(&self) -> f64 {
        if self.marked_loads == 0 {
            0.0
        } else {
            self.filtered_loads as f64 / self.marked_loads as f64
        }
    }

    /// Accumulates another set of counters into this one.
    pub fn merge(&mut self, other: &SvwStats) {
        self.marked_loads += other.marked_loads;
        self.filtered_loads += other.filtered_loads;
        self.reexecuted_loads += other.reexecuted_loads;
        self.reexec_mismatches += other.reexec_mismatches;
        self.wrap_drains += other.wrap_drains;
        self.ssbf_store_updates += other.ssbf_store_updates;
        self.ssbf_invalidation_updates += other.ssbf_invalidation_updates;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_rate_handles_zero_marked() {
        assert_eq!(SvwStats::new().filter_rate(), 0.0);
    }

    #[test]
    fn filter_rate_and_merge() {
        let mut a = SvwStats {
            marked_loads: 100,
            filtered_loads: 85,
            reexecuted_loads: 15,
            ..SvwStats::default()
        };
        assert!((a.filter_rate() - 0.85).abs() < 1e-12);
        let b = SvwStats {
            marked_loads: 100,
            filtered_loads: 95,
            reexecuted_loads: 5,
            reexec_mismatches: 1,
            ..SvwStats::default()
        };
        a.merge(&b);
        assert_eq!(a.marked_loads, 200);
        assert_eq!(a.filtered_loads, 180);
        assert_eq!(a.reexecuted_loads, 20);
        assert_eq!(a.reexec_mismatches, 1);
        assert!((a.filter_rate() - 0.9).abs() < 1e-12);
    }
}

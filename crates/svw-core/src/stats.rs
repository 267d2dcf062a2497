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
    /// SSBF updates performed by retiring (or speculatively by pre-retirement) stores.
    pub ssbf_store_updates: u64,
    /// SSBF updates performed by coherence invalidations.
    pub ssbf_invalidation_updates: u64,
}

//! The two-level on-chip memory hierarchy.

use svw_isa::Addr;

use crate::{Cache, CacheConfig, CacheStats};

/// Whether a data access reads or writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Data read (load execution or load re-execution).
    DataRead,
    /// Data write (store retirement).
    DataWrite,
}

/// Configuration of the full hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Main-memory latency in cycles (the paper uses 150).
    pub memory_latency: u64,
}

impl HierarchyConfig {
    /// The paper's data-side memory system: 32 KB/2-way/2-cycle L1D, 2 MB/8-way/15-cycle
    /// L2, 150-cycle memory.
    pub fn paper_default() -> Self {
        HierarchyConfig {
            l1d: CacheConfig::paper_l1(),
            l2: CacheConfig::paper_l2(),
            memory_latency: 150,
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Aggregated per-level statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct HierarchyStats {
    /// L1 data cache statistics.
    pub l1d: CacheStats,
    /// Unified L2 statistics.
    pub l2: CacheStats,
    /// Accesses that went all the way to memory.
    pub memory_accesses: u64,
}

/// The L1D/L2/memory hierarchy. An access returns the total latency the requester
/// observes; inclusion is maintained loosely (L2 is probed/allocated on L1 misses).
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    config: HierarchyConfig,
    l1d: Cache,
    l2: Cache,
    memory_accesses: u64,
}

impl MemoryHierarchy {
    /// Creates an empty hierarchy.
    pub fn new(config: HierarchyConfig) -> Self {
        MemoryHierarchy {
            config,
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            memory_accesses: 0,
        }
    }

    /// Restores the empty (all-cold) state for `config` — observationally identical to
    /// [`MemoryHierarchy::new`] — reusing the per-level tag storage where geometries
    /// allow.
    pub fn reset(&mut self, config: HierarchyConfig) {
        self.l1d.reset(config.l1d);
        self.l2.reset(config.l2);
        self.memory_accesses = 0;
        self.config = config;
    }

    /// The configured latencies/geometries.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Performs an access and returns its total latency in cycles.
    pub fn access(&mut self, kind: AccessKind, addr: Addr) -> u64 {
        let is_write = kind == AccessKind::DataWrite;
        let l1_latency = self.config.l1d.hit_latency;
        if self.l1d.access(addr, is_write) {
            return l1_latency;
        }
        if self.l2.access(addr, is_write) {
            return l1_latency + self.config.l2.hit_latency;
        }
        self.memory_accesses += 1;
        l1_latency + self.config.l2.hit_latency + self.config.memory_latency
    }

    /// Latency of a data access that is known to hit in the L1 (used for the best-case
    /// load latency in configuration descriptions).
    pub fn l1d_hit_latency(&self) -> u64 {
        self.config.l1d.hit_latency
    }

    /// Applies a coherence invalidation to the data-side caches.
    pub fn invalidate_line(&mut self, addr: Addr) {
        self.l1d.invalidate(addr);
        self.l2.invalidate(addr);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1d: *self.l1d.stats(),
            l2: *self.l2.stats(),
            memory_accesses: self.memory_accesses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_composition() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::paper_default());
        // Cold access: L1 miss + L2 miss + memory.
        assert_eq!(h.access(AccessKind::DataRead, 0x1000), 2 + 15 + 150);
        // Now everything is warm.
        assert_eq!(h.access(AccessKind::DataRead, 0x1000), 2);
        // Evict nothing; a nearby line misses L1 but may hit L2 only if in the same
        // 128-byte L2 line.
        assert_eq!(h.access(AccessKind::DataRead, 0x1040), 2 + 15);
        assert_eq!(h.stats().memory_accesses, 1);
    }

    #[test]
    fn writes_allocate() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::paper_default());
        let _ = h.access(AccessKind::DataWrite, 0x2000);
        assert_eq!(h.access(AccessKind::DataRead, 0x2000), 2);
        assert_eq!(h.stats().l1d.write_misses, 1);
    }

    #[test]
    fn invalidation_forces_refetch() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::paper_default());
        let _ = h.access(AccessKind::DataRead, 0x3000);
        h.invalidate_line(0x3000);
        assert_eq!(h.access(AccessKind::DataRead, 0x3000), 2 + 15 + 150);
    }

    #[test]
    fn reset_matches_new() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::paper_default());
        for i in 0..200 {
            let _ = h.access(AccessKind::DataRead, i * 8);
            let _ = h.access(AccessKind::DataWrite, 0x40_0000 + i * 4);
        }
        h.reset(HierarchyConfig::paper_default());
        assert_eq!(
            format!("{h:?}"),
            format!(
                "{:?}",
                MemoryHierarchy::new(HierarchyConfig::paper_default())
            )
        );
    }

    #[test]
    fn l1d_hit_latency_matches_config() {
        let h = MemoryHierarchy::new(HierarchyConfig::paper_default());
        assert_eq!(h.l1d_hit_latency(), 2);
    }
}

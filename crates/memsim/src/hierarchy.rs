//! A three-level (L1/L2/LLC) cache hierarchy composite.
//!
//! The hierarchy is *inclusive*: a fill installs the line at every level.
//! Only presence is modelled (no coherence, no writebacks) — sufficient for
//! the miss-rate and MPKI characterization of Figure 6 and for deciding
//! which accesses reach DRAM in the timing models.

use crate::cache::{AccessKind, CacheConfig, CacheStats, SetAssociativeCache};

/// Which level of the memory hierarchy serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemoryLevel {
    /// Level-1 data cache hit.
    L1,
    /// Level-2 cache hit.
    L2,
    /// Last-level cache hit.
    Llc,
    /// Missed everywhere; serviced by DRAM.
    Memory,
}

impl MemoryLevel {
    /// Returns `true` when the access had to go to DRAM.
    pub fn is_memory(self) -> bool {
        self == MemoryLevel::Memory
    }
}

/// Geometry and latency of the three cache levels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyConfig {
    /// L1 data cache.
    pub l1: CacheConfig,
    /// L2 cache.
    pub l2: CacheConfig,
    /// Shared last-level cache.
    pub llc: CacheConfig,
}

impl HierarchyConfig {
    /// A Broadwell-Xeon-E5-2680v4-like hierarchy: 32 KiB / 8-way L1,
    /// 256 KiB / 8-way L2 and a 35 MiB / 20-way shared LLC.
    pub fn broadwell_like() -> Self {
        HierarchyConfig {
            l1: CacheConfig::new(32 * 1024, 8, 1.6),
            l2: CacheConfig::new(256 * 1024, 8, 5.0),
            llc: CacheConfig::new(35 * 1024 * 1024, 20, 18.0),
        }
    }

    /// A small hierarchy for fast unit tests (4 KiB / 16 KiB / 64 KiB).
    pub fn tiny_for_tests() -> Self {
        HierarchyConfig {
            l1: CacheConfig::new(4 * 1024, 4, 1.0),
            l2: CacheConfig::new(16 * 1024, 4, 3.0),
            llc: CacheConfig::new(64 * 1024, 8, 10.0),
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig::broadwell_like()
    }
}

/// Per-level statistics snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1 statistics.
    pub l1: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
    /// LLC statistics.
    pub llc: CacheStats,
}

impl HierarchyStats {
    /// LLC miss rate (the quantity plotted in Figure 6(a)).
    pub fn llc_miss_rate(&self) -> f64 {
        self.llc.miss_rate()
    }

    /// LLC misses per thousand instructions (Figure 6(b)).
    pub fn llc_mpki(&self, instructions: u64) -> f64 {
        self.llc.mpki(instructions)
    }

    /// Number of accesses that reached DRAM.
    pub fn memory_accesses(&self) -> u64 {
        self.llc.misses
    }
}

/// A three-level inclusive cache hierarchy.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: SetAssociativeCache,
    l2: SetAssociativeCache,
    llc: SetAssociativeCache,
    config: HierarchyConfig,
}

impl CacheHierarchy {
    /// Creates an empty hierarchy.
    pub fn new(config: &HierarchyConfig) -> Self {
        CacheHierarchy {
            l1: SetAssociativeCache::new(config.l1),
            l2: SetAssociativeCache::new(config.l2),
            llc: SetAssociativeCache::new(config.llc),
            config: *config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Performs a read access; returns the level that serviced it and
    /// installs the line in every level above the hit point.
    pub fn access_read(&mut self, addr: u64) -> MemoryLevel {
        self.access(addr, AccessKind::Read)
    }

    /// Performs an access of the given kind.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> MemoryLevel {
        if self.l1.access(addr, kind) {
            return MemoryLevel::L1;
        }
        if self.l2.access(addr, kind) {
            // Fill upward.
            self.l1.install(addr);
            return MemoryLevel::L2;
        }
        if self.llc.access(addr, kind) {
            self.l2.install(addr);
            self.l1.install(addr);
            return MemoryLevel::Llc;
        }
        // Miss everywhere: fill all levels.
        self.l1.install(addr);
        self.l2.install(addr);
        // (the LLC access above already installed the line there)
        MemoryLevel::Memory
    }

    /// Probes whether the line is present in the LLC without touching stats.
    pub fn probe_llc(&self, addr: u64) -> bool {
        self.llc.probe(addr)
    }

    /// Pre-loads a line into every level without counting an access
    /// (used to model warmed-up weights resident in cache).
    pub fn install_all_levels(&mut self, addr: u64) {
        self.l1.install(addr);
        self.l2.install(addr);
        self.llc.install(addr);
    }

    /// Aggregate hit latency (in nanoseconds) incurred by an access serviced
    /// at `level`, i.e. the sum of the lookup latencies along the traversal
    /// path (DRAM time is *not* included; the caller adds it from the DRAM
    /// model).
    pub fn traversal_latency_ns(&self, level: MemoryLevel) -> f64 {
        let c = &self.config;
        match level {
            MemoryLevel::L1 => c.l1.latency_ns,
            MemoryLevel::L2 => c.l1.latency_ns + c.l2.latency_ns,
            MemoryLevel::Llc => c.l1.latency_ns + c.l2.latency_ns + c.llc.latency_ns,
            MemoryLevel::Memory => c.l1.latency_ns + c.l2.latency_ns + c.llc.latency_ns,
        }
    }

    /// Statistics of all three levels.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1: *self.l1.stats(),
            l2: *self.l2.stats(),
            llc: *self.llc.stats(),
        }
    }

    /// Resets statistics at every level (contents preserved).
    pub fn reset_stats(&mut self) {
        self.l1.reset_stats();
        self.l2.reset_stats();
        self.llc.reset_stats();
    }

    /// Flushes contents and statistics at every level.
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.llc.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CACHE_LINE_BYTES;

    #[test]
    fn first_touch_misses_everywhere_then_hits_l1() {
        let mut h = CacheHierarchy::new(&HierarchyConfig::tiny_for_tests());
        assert_eq!(h.access_read(0x4000), MemoryLevel::Memory);
        assert_eq!(h.access_read(0x4000), MemoryLevel::L1);
        let s = h.stats();
        assert_eq!(s.l1.accesses, 2);
        assert_eq!(s.llc.accesses, 1);
        assert_eq!(s.llc.misses, 1);
    }

    #[test]
    fn l1_eviction_falls_back_to_l2_or_llc() {
        let cfg = HierarchyConfig::tiny_for_tests();
        let mut h = CacheHierarchy::new(&cfg);
        // Touch a working set bigger than L1 (4 KiB = 64 lines) but smaller
        // than LLC, twice. The second pass must not go to memory.
        let lines: Vec<u64> = (0..128u64).map(|i| i * CACHE_LINE_BYTES).collect();
        for &l in &lines {
            h.access_read(l);
        }
        h.reset_stats();
        let mut memory_hits = 0;
        for &l in &lines {
            if h.access_read(l) == MemoryLevel::Memory {
                memory_hits += 1;
            }
        }
        assert_eq!(memory_hits, 0);
        assert!(h.stats().l1.misses > 0, "L1 is too small to hold the set");
    }

    #[test]
    fn llc_miss_rate_tracks_working_set() {
        let cfg = HierarchyConfig::tiny_for_tests();
        // Working set 4x the LLC: repeated sweeps keep missing.
        let mut h = CacheHierarchy::new(&cfg);
        let lines: Vec<u64> = (0..(64 * 1024 / CACHE_LINE_BYTES) * 4)
            .map(|i| i * CACHE_LINE_BYTES)
            .collect();
        for _ in 0..2 {
            for &l in &lines {
                h.access_read(l);
            }
        }
        assert!(h.stats().llc_miss_rate() > 0.95);

        // Working set well inside the LLC: second pass entirely hits.
        let mut h2 = CacheHierarchy::new(&cfg);
        let small: Vec<u64> = (0..100u64).map(|i| i * CACHE_LINE_BYTES).collect();
        for &l in &small {
            h2.access_read(l);
        }
        h2.reset_stats();
        for &l in &small {
            assert_ne!(h2.access_read(l), MemoryLevel::Memory);
        }
        assert_eq!(h2.stats().memory_accesses(), 0);
    }

    #[test]
    fn traversal_latency_monotonic() {
        let h = CacheHierarchy::new(&HierarchyConfig::broadwell_like());
        let l1 = h.traversal_latency_ns(MemoryLevel::L1);
        let l2 = h.traversal_latency_ns(MemoryLevel::L2);
        let llc = h.traversal_latency_ns(MemoryLevel::Llc);
        let mem = h.traversal_latency_ns(MemoryLevel::Memory);
        assert!(l1 < l2 && l2 < llc && llc <= mem);
    }

    #[test]
    fn install_all_levels_prewarms() {
        let mut h = CacheHierarchy::new(&HierarchyConfig::tiny_for_tests());
        h.install_all_levels(0x8000);
        assert_eq!(h.access_read(0x8000), MemoryLevel::L1);
        assert!(h.probe_llc(0x8000));
    }

    #[test]
    fn mpki_is_scaled_by_instructions() {
        let mut h = CacheHierarchy::new(&HierarchyConfig::tiny_for_tests());
        for i in 0..1000u64 {
            h.access_read(i * 1024 * 1024); // all distinct lines, all miss
        }
        let stats = h.stats();
        assert!((stats.llc_mpki(1_000_000) - 1.0).abs() < 1e-9);
        assert!((stats.llc_mpki(100_000) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn flush_resets_everything() {
        let mut h = CacheHierarchy::new(&HierarchyConfig::tiny_for_tests());
        h.access_read(0);
        h.flush();
        assert_eq!(h.stats().l1.accesses, 0);
        assert_eq!(h.access_read(0), MemoryLevel::Memory);
    }

    #[test]
    fn broadwell_llc_capacity_is_35mib() {
        let cfg = HierarchyConfig::broadwell_like();
        assert_eq!(cfg.llc.size_bytes, 35 * 1024 * 1024);
        assert_eq!(cfg.llc.ways, 20);
        // Geometry must be internally consistent (construction would panic
        // otherwise).
        assert!(cfg.llc.num_sets() > 0);
    }

    #[test]
    fn memory_level_ordering_and_predicate() {
        assert!(MemoryLevel::L1 < MemoryLevel::Memory);
        assert!(MemoryLevel::Memory.is_memory());
        assert!(!MemoryLevel::Llc.is_memory());
    }
}

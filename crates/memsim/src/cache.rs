//! A single level of set-associative cache with LRU replacement.

use crate::{line_address, CACHE_LINE_BYTES};

/// Whether an access reads or writes (writes allocate, like real write-back
/// write-allocate caches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AccessKind {
    /// Demand load.
    #[default]
    Read,
    /// Store (write-allocate).
    Write,
}

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Access latency contribution of this level in nanoseconds (used by
    /// the timing models; hit/miss accounting ignores it).
    pub latency_ns: f64,
}

impl CacheConfig {
    /// Creates a config after sanity-checking the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not an exact multiple of `ways *
    /// CACHE_LINE_BYTES`, or if either is zero.
    pub fn new(size_bytes: u64, ways: usize, latency_ns: f64) -> Self {
        assert!(
            size_bytes > 0 && ways > 0,
            "cache geometry must be non-zero"
        );
        assert_eq!(
            size_bytes % (ways as u64 * CACHE_LINE_BYTES),
            0,
            "capacity must divide evenly into sets"
        );
        CacheConfig {
            size_bytes,
            ways,
            latency_ns,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.ways as u64 * CACHE_LINE_BYTES)
    }
}

/// Hit/miss statistics of one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses (reads + writes).
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
    /// Lines evicted to make room for fills.
    pub evictions: u64,
}

impl CacheStats {
    /// Miss rate in `[0, 1]`; zero when there were no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Misses per thousand instructions given an instruction count.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.misses as f64 * 1000.0 / instructions as f64
        }
    }

    /// Accumulates another stats block into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u64,
    valid: bool,
    last_used: u64,
}

/// A set-associative cache with true-LRU replacement.
///
/// The cache tracks presence only (no data, no dirty bits): that is all the
/// characterization experiments need, and it keeps multi-GB-footprint
/// simulations cheap.
#[derive(Debug, Clone)]
pub struct SetAssociativeCache {
    config: CacheConfig,
    sets: Vec<Vec<Way>>,
    stats: CacheStats,
    tick: u64,
}

impl SetAssociativeCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets() as usize;
        SetAssociativeCache {
            config,
            sets: vec![vec![Way::default(); config.ways]; num_sets],
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the statistics (contents are preserved), e.g. after a warm-up
    /// phase.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Invalidates every line and clears statistics.
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            for way in set.iter_mut() {
                way.valid = false;
            }
        }
        self.reset_stats();
    }

    fn set_index(&self, line: u64) -> usize {
        ((line / CACHE_LINE_BYTES) % self.config.num_sets()) as usize
    }

    /// Returns `true` if the line containing `addr` is currently cached,
    /// without disturbing LRU state or statistics.
    pub fn probe(&self, addr: u64) -> bool {
        let line = line_address(addr);
        let set = &self.sets[self.set_index(line)];
        set.iter().any(|w| w.valid && w.tag == line)
    }

    /// Performs an access; returns `true` on hit. A miss fills the line,
    /// evicting the LRU way if the set is full.
    pub fn access(&mut self, addr: u64, _kind: AccessKind) -> bool {
        let line = line_address(addr);
        let set_idx = self.set_index(line);
        self.tick += 1;
        let tick = self.tick;
        self.stats.accesses += 1;

        let set = &mut self.sets[set_idx];
        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == line) {
            way.last_used = tick;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;

        // Fill: prefer an invalid way, otherwise evict LRU.
        if let Some(way) = set.iter_mut().find(|w| !w.valid) {
            *way = Way {
                tag: line,
                valid: true,
                last_used: tick,
            };
        } else {
            let victim = set
                .iter_mut()
                .min_by_key(|w| w.last_used)
                .expect("sets always have at least one way");
            *victim = Way {
                tag: line,
                valid: true,
                last_used: tick,
            };
            self.stats.evictions += 1;
        }
        false
    }

    /// Inserts a line without counting an access (used to model fills from
    /// lower levels or warm-up pre-loads).
    pub fn install(&mut self, addr: u64) {
        let line = line_address(addr);
        let set_idx = self.set_index(line);
        self.tick += 1;
        let tick = self.tick;
        let set = &mut self.sets[set_idx];
        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == line) {
            way.last_used = tick;
            return;
        }
        if let Some(way) = set.iter_mut().find(|w| !w.valid) {
            *way = Way {
                tag: line,
                valid: true,
                last_used: tick,
            };
        } else {
            let victim = set
                .iter_mut()
                .min_by_key(|w| w.last_used)
                .expect("non-empty set");
            *victim = Way {
                tag: line,
                valid: true,
                last_used: tick,
            };
            self.stats.evictions += 1;
        }
    }

    /// Number of currently valid lines (for occupancy assertions in tests).
    pub fn occupancy(&self) -> usize {
        self.sets
            .iter()
            .map(|s| s.iter().filter(|w| w.valid).count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cache(ways: usize, sets: u64) -> SetAssociativeCache {
        SetAssociativeCache::new(CacheConfig::new(
            sets * ways as u64 * CACHE_LINE_BYTES,
            ways,
            1.0,
        ))
    }

    #[test]
    fn config_geometry() {
        let c = CacheConfig::new(32 * 1024, 8, 1.2);
        assert_eq!(c.num_sets(), 64);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn config_rejects_uneven_geometry() {
        CacheConfig::new(1000, 3, 1.0);
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny_cache(4, 16);
        assert!(!c.access(0x100, AccessKind::Read));
        assert!(c.access(0x100, AccessKind::Read));
        assert!(c.access(0x13F, AccessKind::Read), "same line hits");
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // 1 set, 2 ways: addresses A, B, C map to the same set.
        let mut c = tiny_cache(2, 1);
        let a = 0u64;
        let b = 64u64;
        let x = 128u64;
        c.access(a, AccessKind::Read);
        c.access(b, AccessKind::Read);
        // Touch A so B becomes LRU.
        c.access(a, AccessKind::Read);
        // X evicts B.
        c.access(x, AccessKind::Read);
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(x));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = tiny_cache(4, 4); // 16 lines capacity
        let lines: Vec<u64> = (0..64u64).map(|i| i * CACHE_LINE_BYTES).collect();
        // Two passes over a 64-line working set: every access misses because
        // LRU evicts lines before reuse.
        for _ in 0..2 {
            for &l in &lines {
                c.access(l, AccessKind::Read);
            }
        }
        assert_eq!(c.stats().hits, 0);
        assert!((c.stats().miss_rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn working_set_smaller_than_cache_hits_after_warmup() {
        let mut c = tiny_cache(8, 8); // 64 lines
        let lines: Vec<u64> = (0..32u64).map(|i| i * CACHE_LINE_BYTES).collect();
        for &l in &lines {
            c.access(l, AccessKind::Read);
        }
        c.reset_stats();
        for _ in 0..4 {
            for &l in &lines {
                c.access(l, AccessKind::Read);
            }
        }
        assert_eq!(c.stats().misses, 0);
        assert_eq!(c.stats().miss_rate(), 0.0);
    }

    #[test]
    fn probe_does_not_affect_stats() {
        let mut c = tiny_cache(2, 2);
        c.access(0, AccessKind::Read);
        let before = *c.stats();
        assert!(c.probe(0));
        assert!(!c.probe(1 << 20));
        assert_eq!(*c.stats(), before);
    }

    #[test]
    fn install_fills_without_counting_access() {
        let mut c = tiny_cache(2, 2);
        c.install(0x40);
        assert_eq!(c.stats().accesses, 0);
        assert!(c.access(0x40, AccessKind::Read));
    }

    #[test]
    fn flush_clears_contents_and_stats() {
        let mut c = tiny_cache(2, 2);
        c.access(0, AccessKind::Read);
        c.flush();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.stats().accesses, 0);
        assert!(!c.access(0, AccessKind::Read));
    }

    #[test]
    fn stats_helpers() {
        let s = CacheStats {
            accesses: 1000,
            hits: 600,
            misses: 400,
            evictions: 10,
        };
        assert!((s.miss_rate() - 0.4).abs() < 1e-9);
        assert!((s.mpki(10_000) - 40.0).abs() < 1e-9);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
        assert_eq!(CacheStats::default().mpki(0), 0.0);
        let mut merged = s;
        merged.merge(&s);
        assert_eq!(merged.accesses, 2000);
        assert_eq!(merged.evictions, 20);
    }

    #[test]
    fn writes_allocate_like_reads() {
        let mut c = tiny_cache(2, 2);
        assert!(!c.access(0x80, AccessKind::Write));
        assert!(c.access(0x80, AccessKind::Read));
    }

    #[test]
    fn occupancy_caps_at_capacity() {
        let mut c = tiny_cache(4, 4);
        for i in 0..1000u64 {
            c.access(i * CACHE_LINE_BYTES, AccessKind::Read);
        }
        assert_eq!(c.occupancy(), 16);
    }
}

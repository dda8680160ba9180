//! The two-level memory hierarchy of the paper's evaluation: split L1
//! instruction/data caches, a unified 4-way 256 kB L2, and an infinite
//! main memory (Table 4).

use crate::addr::Addr;
use crate::model::{AccessKind, CacheModel};
use crate::replacement::PolicyKind;
use crate::set_assoc::SetAssociativeCache;

/// Latency parameters of the hierarchy, in cycles (paper Table 4).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LatencyConfig {
    /// Base L1 hit latency.
    pub l1_hit: u64,
    /// L2 hit latency, charged on every L1 miss that hits in L2.
    pub l2_hit: u64,
    /// Main-memory access latency, charged on every L2 miss.
    pub memory: u64,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        // Table 4: L1 one-cycle, L2 6-cycle hit, 100-cycle main memory.
        LatencyConfig {
            l1_hit: 1,
            l2_hit: 6,
            memory: 100,
        }
    }
}

/// A split-L1, unified-L2 memory hierarchy.
///
/// The hierarchy is non-inclusive: L1 fills allocate in L2 on the way in
/// (the L2 services the L1 miss), and dirty L1 victims are written back
/// into the L2; dirty L2 victims disappear into the infinite memory.
///
/// # Examples
///
/// ```
/// use cache_sim::{AccessKind, DirectMappedCache, MemoryHierarchy};
///
/// let l1i = DirectMappedCache::new(16 * 1024, 32)?;
/// let l1d = DirectMappedCache::new(16 * 1024, 32)?;
/// let mut h = MemoryHierarchy::new(Box::new(l1i), Box::new(l1d));
/// let cold = h.data_access(0x1000u64.into(), AccessKind::Read);
/// assert_eq!(cold, 1 + 6 + 100);      // L1 miss, L2 miss, memory
/// let warm = h.data_access(0x1000u64.into(), AccessKind::Read);
/// assert_eq!(warm, 1);                // L1 hit
/// # Ok::<(), cache_sim::GeometryError>(())
/// ```
pub struct MemoryHierarchy {
    l1i: Box<dyn CacheModel>,
    l1d: Box<dyn CacheModel>,
    l2: SetAssociativeCache,
    latency: LatencyConfig,
    l2_accesses: u64,
    memory_accesses: u64,
}

impl MemoryHierarchy {
    /// Builds the paper's hierarchy around the given L1 caches: unified
    /// 256 kB, 128-byte-line, 4-way LRU L2 and default latencies.
    pub fn new(l1i: Box<dyn CacheModel>, l1d: Box<dyn CacheModel>) -> Self {
        let l2 = SetAssociativeCache::new(256 * 1024, 128, 4, PolicyKind::Lru, 0)
            .expect("paper L2 geometry is valid");
        Self::with_l2(l1i, l1d, l2, LatencyConfig::default())
    }

    /// Builds a hierarchy with an explicit L2 and latency configuration.
    pub fn with_l2(
        l1i: Box<dyn CacheModel>,
        l1d: Box<dyn CacheModel>,
        l2: SetAssociativeCache,
        latency: LatencyConfig,
    ) -> Self {
        MemoryHierarchy {
            l1i,
            l1d,
            l2,
            latency,
            l2_accesses: 0,
            memory_accesses: 0,
        }
    }

    /// Services an instruction fetch; returns its latency in cycles.
    pub fn fetch(&mut self, pc: Addr) -> u64 {
        let r = self.l1i.access(pc, AccessKind::InstrFetch);
        let mut cycles = self.latency.l1_hit + u64::from(r.extra_latency);
        if !r.hit {
            cycles += self.refill(pc, AccessKind::Read);
        }
        if let Some(ev) = r.evicted {
            self.writeback(ev);
        }
        cycles
    }

    /// Services a data access; returns its latency in cycles.
    pub fn data_access(&mut self, addr: Addr, kind: AccessKind) -> u64 {
        debug_assert!(
            !matches!(kind, AccessKind::InstrFetch),
            "use fetch() for instructions"
        );
        let r = self.l1d.access(addr, kind);
        let mut cycles = self.latency.l1_hit + u64::from(r.extra_latency);
        if !r.hit {
            // The L2 sees the refill as a read regardless of the L1 kind;
            // the store's dirtiness lives in the L1 block.
            cycles += self.refill(addr, AccessKind::Read);
        }
        if let Some(ev) = r.evicted {
            self.writeback(ev);
        }
        cycles
    }

    /// Charges an L2 lookup (plus memory on an L2 miss) for an L1 refill.
    fn refill(&mut self, addr: Addr, kind: AccessKind) -> u64 {
        self.l2_accesses += 1;
        let r = self.l2.access(addr, kind);
        // L2 victims fall into the infinite memory; dirty ones cost a
        // memory write that we count but do not put on the load's path
        // (write buffers hide it), matching common simulator practice.
        if let Some(ev) = r.evicted {
            if ev.dirty {
                self.memory_accesses += 1;
            }
        }
        if r.hit {
            self.latency.l2_hit
        } else {
            self.memory_accesses += 1;
            self.latency.l2_hit + self.latency.memory
        }
    }

    /// Absorbs a dirty L1 victim into the L2 (off the critical path).
    fn writeback(&mut self, ev: crate::model::Eviction) {
        if ev.dirty {
            self.l2_accesses += 1;
            let r = self.l2.access(ev.block, AccessKind::Write);
            if let Some(l2ev) = r.evicted {
                if l2ev.dirty {
                    self.memory_accesses += 1;
                }
            }
            if !r.hit {
                self.memory_accesses += 1;
            }
        }
    }

    /// The L1 instruction cache.
    pub fn l1i(&self) -> &dyn CacheModel {
        self.l1i.as_ref()
    }

    /// The L1 data cache.
    pub fn l1d(&self) -> &dyn CacheModel {
        self.l1d.as_ref()
    }

    /// The unified L2.
    pub fn l2(&self) -> &SetAssociativeCache {
        &self.l2
    }

    /// Total L2 lookups (refills + write-backs).
    pub fn l2_accesses(&self) -> u64 {
        self.l2_accesses
    }

    /// Total main-memory accesses (L2 misses + dirty L2 victims).
    pub fn memory_accesses(&self) -> u64 {
        self.memory_accesses
    }

    /// The latency configuration.
    pub fn latency(&self) -> LatencyConfig {
        self.latency
    }

    /// Clears statistics on every level, keeping contents (used to drop
    /// the warm-up prefix of a run).
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.l2_accesses = 0;
        self.memory_accesses = 0;
    }
}

impl std::fmt::Debug for MemoryHierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryHierarchy")
            .field("l1i", &self.l1i.geometry())
            .field("l1d", &self.l1d.geometry())
            .field("l2", &self.l2.geometry())
            .field("latency", &self.latency)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::DirectMappedCache;

    fn hierarchy() -> MemoryHierarchy {
        let l1i = DirectMappedCache::new(1024, 32).unwrap();
        let l1d = DirectMappedCache::new(1024, 32).unwrap();
        MemoryHierarchy::new(Box::new(l1i), Box::new(l1d))
    }

    #[test]
    fn latency_tiers() {
        let mut h = hierarchy();
        // Cold: L1 miss + L2 miss.
        assert_eq!(
            h.data_access(Addr::new(0x100), AccessKind::Read),
            1 + 6 + 100
        );
        // L1 hit.
        assert_eq!(h.data_access(Addr::new(0x100), AccessKind::Read), 1);
        // Conflict out of L1 (1 kB apart), but L2 holds the 128 B block.
        h.data_access(Addr::new(0x100 + 1024), AccessKind::Read);
        let l2_hit = h.data_access(Addr::new(0x100), AccessKind::Read);
        assert_eq!(l2_hit, 1 + 6);
    }

    #[test]
    fn fetch_and_data_use_separate_l1s() {
        let mut h = hierarchy();
        h.fetch(Addr::new(0x200));
        assert_eq!(h.l1i().stats().total().accesses(), 1);
        assert_eq!(h.l1d().stats().total().accesses(), 0);
        h.data_access(Addr::new(0x200), AccessKind::Read);
        assert_eq!(h.l1d().stats().total().accesses(), 1);
    }

    #[test]
    fn l1_writeback_lands_in_l2() {
        let mut h = hierarchy();
        h.data_access(Addr::new(0x0), AccessKind::Write);
        let l2_before = h.l2_accesses();
        // Evict the dirty block from L1 (1 kB conflict).
        h.data_access(Addr::new(1024), AccessKind::Read);
        assert!(
            h.l2_accesses() > l2_before,
            "refill plus write-back must touch L2"
        );
        assert_eq!(h.l1d().stats().writebacks(), 1);
        // The written-back block now hits in L2.
        assert_eq!(h.data_access(Addr::new(0x0), AccessKind::Read), 1 + 6);
    }

    #[test]
    fn memory_access_counter_tracks_l2_misses() {
        let mut h = hierarchy();
        h.data_access(Addr::new(0), AccessKind::Read);
        h.data_access(Addr::new(1 << 20), AccessKind::Read);
        assert_eq!(h.memory_accesses(), 2);
        h.data_access(Addr::new(0), AccessKind::Read); // L1 conflict, L2 hit
        assert_eq!(h.memory_accesses(), 2);
    }

    #[test]
    fn reset_stats_clears_counters_everywhere() {
        let mut h = hierarchy();
        h.data_access(Addr::new(0), AccessKind::Read);
        h.fetch(Addr::new(0x40));
        h.reset_stats();
        assert_eq!(h.l2_accesses(), 0);
        assert_eq!(h.memory_accesses(), 0);
        assert_eq!(h.l1i().stats().total().accesses(), 0);
        assert_eq!(h.l1d().stats().total().accesses(), 0);
        assert_eq!(h.l2().stats().total().accesses(), 0);
        // Contents survive: the block is still in L1.
        assert_eq!(h.data_access(Addr::new(0), AccessKind::Read), 1);
    }

    #[test]
    fn default_latencies_match_table4() {
        let lat = LatencyConfig::default();
        assert_eq!(lat.l1_hit, 1);
        assert_eq!(lat.l2_hit, 6);
        assert_eq!(lat.memory, 100);
    }

    #[test]
    fn paper_l2_shape() {
        let h = hierarchy();
        let g = h.l2().geometry();
        assert_eq!(g.size_bytes(), 256 * 1024);
        assert_eq!(g.line_bytes(), 128);
        assert_eq!(g.assoc(), 4);
    }
}

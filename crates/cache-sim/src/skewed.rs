//! The 2-way skewed-associative cache (Seznec), a related-work baseline
//! from Section 7.1 of the paper.
//!
//! Each way is indexed by a *different* hash of the address, built by
//! XORing the conventional index with a slice of the tag. Conflicts in one
//! way are usually not conflicts in the other, which gives a 2-way skewed
//! cache the miss rate of roughly a conventional 4-way cache.

use crate::addr::Addr;
use crate::geometry::{CacheGeometry, GeometryError};
use crate::model::{AccessKind, AccessResult, CacheModel, Eviction};
use crate::packed;
use crate::stats::{BatchTally, CacheStats, SetUsage, Tally};

/// A 2-way skewed-associative, write-back, write-allocate cache.
///
/// Victim selection follows Seznec's enhanced scheme: each line carries a
/// coarse access timestamp and the older of the two candidate lines is
/// replaced (true LRU across ways is ill-defined in a skewed cache
/// because the ways index different sets).
///
/// Storage is the packed tag-array layout shared with the direct-mapped
/// and set-associative models: one word per line holding tag, dirty and
/// valid bits. A line's block address is recoverable from its way, set
/// and tag because the skewing functions are XOR-invertible. Both access
/// paths run through one shared, always-inlined step, so per-access and
/// [`CacheModel::access_batch`] are bit-identical — statistics and
/// timestamps alike.
///
/// # Examples
///
/// ```
/// use cache_sim::{AccessKind, CacheModel, SkewedAssociativeCache};
///
/// let mut c = SkewedAssociativeCache::new(16 * 1024, 32)?;
/// c.access(0x0u64.into(), AccessKind::Read);
/// assert!(c.access(0x1fu64.into(), AccessKind::Read).hit);
/// # Ok::<(), cache_sim::GeometryError>(())
/// ```
#[derive(Debug)]
pub struct SkewedAssociativeCache {
    ways: Ways,
    stats: CacheStats,
}

/// Everything but the statistics, so a single access counts into those
/// in place while its step borrows this.
#[derive(Debug, PartialEq)]
struct Ways {
    geom: CacheGeometry,
    sets_per_way: usize,
    // Packed `tag | dirty | valid` words and access stamps, per way.
    words: [Vec<u64>; 2],
    stamps: [Vec<u64>; 2],
    clock: u64,
    usage: SetUsage,
}

impl SkewedAssociativeCache {
    /// Creates a 2-way skewed cache of `size_bytes` with `line_bytes`
    /// blocks.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] for invalid shapes (the cache must hold
    /// at least two lines).
    pub fn new(size_bytes: usize, line_bytes: usize) -> Result<Self, GeometryError> {
        let geom = CacheGeometry::new(size_bytes, line_bytes, 2)?;
        if geom.index_bits() == 0 {
            // The skewing functions need at least one index bit per way.
            return Err(GeometryError::AssocLargerThanLines {
                assoc: 2,
                lines: geom.lines(),
            });
        }
        assert!(
            geom.tag_bits() <= packed::MAX_TAG_BITS,
            "tag width {} exceeds the packed-line limit",
            geom.tag_bits()
        );
        let sets_per_way = geom.sets();
        Ok(SkewedAssociativeCache {
            ways: Ways {
                geom,
                sets_per_way,
                words: [
                    vec![packed::EMPTY; sets_per_way],
                    vec![packed::EMPTY; sets_per_way],
                ],
                stamps: [vec![0; sets_per_way], vec![0; sets_per_way]],
                clock: 0,
                usage: SetUsage::new(sets_per_way),
            },
            stats: CacheStats::new(),
        })
    }
}

impl Ways {
    /// The way-specific tag mix: the identity for way 0, a one-bit rotate
    /// within the index width for way 1.
    #[inline(always)]
    fn mix(tag: u64, way: usize, idx_bits: u32) -> u64 {
        match way {
            0 => tag,
            _ => (tag >> 1) ^ (tag << (idx_bits - 1)),
        }
    }

    /// The skewing function for `way`: index XOR a way-specific mix of the
    /// tag bits. The hot step inlines this computation; the tests pin it.
    #[cfg(test)]
    fn index(&self, addr: Addr, way: usize) -> usize {
        let idx_bits = self.geom.index_bits();
        let idx = addr.bits(self.geom.offset_bits(), idx_bits);
        let tag = self.geom.tag(addr);
        let mask = (self.sets_per_way - 1) as u64;
        ((idx ^ Self::mix(tag, way, idx_bits)) & mask) as usize
    }

    /// Reconstructs the block address of the line at `(way, set)` from
    /// its stored tag by inverting the skew: `index = set XOR mix(tag)`.
    fn block_addr(&self, way: usize, set: usize, tag: u64) -> Addr {
        let idx_bits = self.geom.index_bits();
        let mask = (self.sets_per_way - 1) as u64;
        let idx = (set as u64 ^ Self::mix(tag, way, idx_bits)) & mask;
        Addr::new(((tag << idx_bits) | idx) << self.geom.offset_bits())
    }

    /// One access. Shared verbatim by both paths, so their statistics,
    /// usage counters and contents agree by construction.
    #[inline(always)]
    fn step<T: Tally>(&mut self, tally: &mut T, addr: Addr, kind: AccessKind) -> AccessResult {
        let idx_bits = self.geom.index_bits();
        let mask = (self.sets_per_way - 1) as u64;
        let idx = addr.bits(self.geom.offset_bits(), idx_bits);
        let tag = self.geom.tag(addr);
        let s0 = ((idx ^ tag) & mask) as usize;
        let s1 = ((idx ^ Self::mix(tag, 1, idx_bits)) & mask) as usize;
        self.clock += 1;
        // Way 0 is probed first, matching the original lookup order.
        let w0 = self.words[0][s0];
        let w1 = self.words[1][s1];
        let (hit_way, hit_set) = if packed::matches(w0, tag) {
            (0usize, s0)
        } else if packed::matches(w1, tag) {
            (1usize, s1)
        } else {
            (2usize, 0)
        };
        if hit_way < 2 {
            tally.record(kind, true);
            self.usage.record(hit_set, true);
            self.stamps[hit_way][hit_set] = self.clock;
            if kind.is_write() {
                let w = self.words[hit_way][hit_set];
                self.words[hit_way][hit_set] = packed::set_dirty(w);
            }
            return AccessResult::hit();
        }
        tally.record(kind, false);
        // Prefer an invalid slot in either way; otherwise replace the
        // older of the two candidate lines.
        let way = if !packed::is_valid(w0) {
            0
        } else if !packed::is_valid(w1) {
            1
        } else if self.stamps[0][s0] <= self.stamps[1][s1] {
            0
        } else {
            1
        };
        let s = if way == 0 { s0 } else { s1 };
        self.usage.record(s, false);
        let old = if way == 0 { w0 } else { w1 };
        let evicted = if packed::is_valid(old) {
            let ev = Eviction {
                block: self.block_addr(way, s, packed::tag(old)),
                dirty: packed::is_dirty(old),
            };
            tally.record_writeback_if(ev.dirty);
            Some(ev)
        } else {
            None
        };
        self.words[way][s] = packed::fill(tag, kind.is_write());
        self.stamps[way][s] = self.clock;
        AccessResult::miss(evicted)
    }
}

impl CacheModel for SkewedAssociativeCache {
    fn access(&mut self, addr: Addr, kind: AccessKind) -> AccessResult {
        self.ways.step(&mut self.stats, addr, kind)
    }

    fn access_batch(&mut self, accesses: &[(Addr, AccessKind)]) {
        let mut tally = BatchTally::new();
        for &(addr, kind) in accesses {
            self.ways.step(&mut tally, addr, kind);
        }
        tally.flush(&mut self.stats);
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
        self.ways.usage.reset();
    }

    fn geometry(&self) -> CacheGeometry {
        self.ways.geom
    }

    fn set_usage(&self) -> &SetUsage {
        &self.ways.usage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::DirectMappedCache;

    fn tiny() -> SkewedAssociativeCache {
        SkewedAssociativeCache::new(512, 32).unwrap()
    }

    #[test]
    fn basic_hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(Addr::new(0x100), AccessKind::Read).hit);
        assert!(c.access(Addr::new(0x11f), AccessKind::Read).hit);
    }

    #[test]
    fn skewing_disperses_dm_conflicts() {
        // Blocks spaced by the way size collide in every set of a DM cache
        // but hash to different sets in at least one skewed way.
        let mut skew = tiny();
        let mut dm = DirectMappedCache::new(512, 32).unwrap();
        for _ in 0..100 {
            for k in 0..4u64 {
                let a = Addr::new(k * 512);
                skew.access(a, AccessKind::Read);
                dm.access(a, AccessKind::Read);
            }
        }
        assert!(
            skew.stats().total().misses() < dm.stats().total().misses(),
            "skewed {} vs dm {}",
            skew.stats().total().misses(),
            dm.stats().total().misses()
        );
    }

    #[test]
    fn both_ways_are_used() {
        let mut c = tiny();
        for k in 0..64u64 {
            c.access(Addr::new(k * 32), AccessKind::Read);
        }
        let used = |way: &[u64]| way.iter().filter(|w| packed::is_valid(**w)).count();
        assert!(used(&c.ways.words[0]) > 0 && used(&c.ways.words[1]) > 0);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        // Saturate the cache with writes, then stream reads over fresh
        // blocks; some dirty block must eventually be pushed out.
        for k in 0..16u64 {
            c.access(Addr::new(k * 32), AccessKind::Write);
        }
        for k in 100..164u64 {
            c.access(Addr::new(k * 32), AccessKind::Read);
        }
        assert!(c.stats().writebacks() > 0);
    }

    #[test]
    fn evicted_blocks_reconstruct_their_address() {
        // Force a resident block out with conflicting fills and check the
        // eviction names the original block base (the skew inversion).
        let mut c = tiny();
        c.access(Addr::new(0x100), AccessKind::Read);
        let mut seen = Vec::new();
        for k in 1..64u64 {
            if let Some(ev) = c
                .access(Addr::new(k * 512 + 0x100), AccessKind::Read)
                .evicted
            {
                seen.push(ev.block.raw());
            }
        }
        assert!(
            seen.contains(&0x100),
            "block 0x100 must eventually be evicted under its own address, saw {seen:x?}"
        );
    }

    #[test]
    fn indices_stay_in_range() {
        let c = tiny();
        let mut x = 1u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            for w in 0..2 {
                assert!(c.ways.index(Addr::new(x), w) < c.ways.sets_per_way);
            }
        }
    }

    #[test]
    fn ways_use_different_hashes() {
        let c = tiny();
        let differs = (0..256u64)
            .map(|k| Addr::new(k * 256))
            .filter(|&a| c.ways.index(a, 0) != c.ways.index(a, 1))
            .count();
        assert!(differs > 0, "the two skewing functions must not coincide");
    }

    #[test]
    fn rejects_single_set_geometry() {
        assert!(SkewedAssociativeCache::new(64, 32).is_err());
    }

    /// Fuzz-subsystem hook: demand-fill sanity — never a hit on a block
    /// the cache has not seen, and at least one miss per distinct block
    /// (the compulsory bound). `harness::fuzz` checks the same invariants
    /// on random configurations.
    #[test]
    fn is_demand_fill() {
        use std::collections::HashSet;
        let mut c = SkewedAssociativeCache::new(512, 32).unwrap();
        let mut seen = HashSet::new();
        let mut x = 0x0F1E_2D3Cu64;
        for i in 0..4000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = ((x >> 16) % 128) * 32;
            let hit = c.access(Addr::new(addr), AccessKind::Read).hit;
            assert!(
                !hit || seen.contains(&addr),
                "access {i}: hit on unseen {addr:#x}"
            );
            seen.insert(addr);
        }
        assert!(c.stats().total().misses() >= seen.len() as u64);
    }

    fn fuzz_accesses(records: usize, seed: u64) -> Vec<(Addr, AccessKind)> {
        let mut x = seed ^ 0x0F1E_2D3Cu64;
        (0..records)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let kind = if x & 4 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                (Addr::new(((x >> 16) % 256) * 32), kind)
            })
            .collect()
    }

    #[test]
    fn access_batch_is_bit_identical_to_the_loop() {
        let mut looped = SkewedAssociativeCache::new(1024, 32).unwrap();
        let mut batched = SkewedAssociativeCache::new(1024, 32).unwrap();
        let accesses = fuzz_accesses(6_000, 5);
        for &(addr, kind) in &accesses {
            looped.access(addr, kind);
        }
        batched.access_batch(&accesses);
        assert_eq!(looped.stats(), batched.stats());
        assert_eq!(looped.ways, batched.ways, "everything but the statistics");
    }
}

//! The conventional direct-mapped cache — the paper's baseline.

use crate::addr::Addr;
use crate::geometry::{CacheGeometry, GeometryError};
use crate::model::{AccessKind, AccessResult, CacheModel};
use crate::packed;
use crate::set_assoc::StepOutcome;
use crate::simd;
use crate::stats::{BatchTally, CacheStats, SetUsage, Tally};

/// A direct-mapped, write-back, write-allocate cache.
///
/// This is the baseline of every experiment in the paper: a 16 kB,
/// 32-byte-line instance for both L1 caches.
///
/// # Examples
///
/// ```
/// use cache_sim::{AccessKind, CacheModel, DirectMappedCache};
///
/// let mut dm = DirectMappedCache::new(16 * 1024, 32)?;
/// let miss = dm.access(0x1000u64.into(), AccessKind::Read);
/// assert!(!miss.hit);
/// let hit = dm.access(0x1004u64.into(), AccessKind::Read);
/// assert!(hit.hit);
/// # Ok::<(), cache_sim::GeometryError>(())
/// ```
#[derive(Debug)]
pub struct DirectMappedCache {
    geom: CacheGeometry,
    /// One [`packed`] `tag|dirty|valid` word per set.
    lines: Vec<u64>,
    stats: CacheStats,
    usage: SetUsage,
}

impl DirectMappedCache {
    /// Creates a direct-mapped cache of `size_bytes` with `line_bytes`
    /// blocks.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] for invalid shapes.
    pub fn new(size_bytes: usize, line_bytes: usize) -> Result<Self, GeometryError> {
        Self::from_geometry(CacheGeometry::new(size_bytes, line_bytes, 1)?)
    }

    /// Creates a direct-mapped cache from an explicit geometry.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError::AssocLargerThanLines`] if the geometry is
    /// not direct-mapped.
    pub fn from_geometry(geom: CacheGeometry) -> Result<Self, GeometryError> {
        if geom.assoc() != 1 {
            return Err(GeometryError::AssocLargerThanLines {
                assoc: geom.assoc(),
                lines: 1,
            });
        }
        assert!(
            geom.tag_bits() <= packed::MAX_TAG_BITS,
            "tag field of {geom} does not fit a packed line word"
        );
        let sets = geom.sets();
        Ok(DirectMappedCache {
            geom,
            lines: vec![packed::EMPTY; sets],
            stats: CacheStats::new(),
            usage: SetUsage::new(sets),
        })
    }

    /// Returns `true` if the block containing `addr` is resident, without
    /// touching statistics or replacement state.
    pub fn probe(&self, addr: Addr) -> bool {
        let set = self.geom.set_index(addr);
        packed::matches(self.lines[set], self.geom.tag(addr))
    }
}

/// One access against the destructured line array, on an address already
/// split into `(set, tag)`. Shared by [`DirectMappedCache::access`] and
/// the batched kernel (which decodes a lane group ahead), so the two
/// paths agree by construction — statistics and contents alike. The
/// counts land in `tally`: a batch's register tally, or the cache's own
/// statistics for a single access.
#[inline(always)]
fn step<T: Tally>(
    lines: &mut [u64],
    usage: &mut SetUsage,
    tally: &mut T,
    set: usize,
    tag: u64,
    kind: AccessKind,
) -> StepOutcome {
    let word = lines[set];
    let hit = packed::matches(word, tag);
    tally.record(kind, hit);
    usage.record(set, hit);
    if hit {
        if kind.is_write() {
            lines[set] = packed::set_dirty(word);
        }
        return StepOutcome {
            hit,
            set,
            evicted: None,
        };
    }
    // Miss: evict the resident block (if any) and fill.
    let dirty = packed::is_dirty(word);
    tally.record_writeback_if(dirty);
    lines[set] = packed::fill(tag, kind.is_write());
    StepOutcome {
        hit,
        set,
        evicted: packed::is_valid(word).then(|| (packed::tag(word), dirty)),
    }
}

impl CacheModel for DirectMappedCache {
    fn access(&mut self, addr: Addr, kind: AccessKind) -> AccessResult {
        let out = step(
            &mut self.lines,
            &mut self.usage,
            &mut self.stats,
            self.geom.set_index(addr),
            self.geom.tag(addr),
            kind,
        );
        out.result(&self.geom)
    }

    fn access_batch(&mut self, accesses: &[(Addr, AccessKind)]) {
        // The address decode (set/tag split) is the pure, state-
        // independent half of an access, so it runs a whole lane group
        // ahead of the serial `step`s: eight addresses are split
        // through the portable `simd::shr_and` per iteration, then
        // resolved in order against the line array, with statistics
        // tallied in registers and flushed once.
        let split = self.geom.split();
        let lines = &mut self.lines[..];
        let usage = &mut self.usage;
        let mut tally = BatchTally::new();
        let mut raw = [0u64; simd::LANES];
        let mut sets = [0u64; simd::LANES];
        let mut tags = [0u64; simd::LANES];
        for group in accesses.chunks(simd::LANES) {
            let n = group.len();
            for (i, &(addr, _)) in group.iter().enumerate() {
                raw[i] = addr.raw();
            }
            simd::shr_and(
                &raw[..n],
                split.index_shift,
                split.index_mask,
                &mut sets[..n],
            );
            simd::shr_and(&raw[..n], split.tag_shift, split.tag_mask, &mut tags[..n]);
            for (i, &(_, kind)) in group.iter().enumerate() {
                step(lines, usage, &mut tally, sets[i] as usize, tags[i], kind);
            }
        }
        tally.flush(&mut self.stats);
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
        self.usage.reset();
    }

    fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    fn set_usage(&self) -> Option<&SetUsage> {
        Some(&self.usage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DirectMappedCache {
        // 8 sets of 32-byte lines, like the paper's Figure 1 example.
        DirectMappedCache::new(256, 32).unwrap()
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(Addr::new(0x40), AccessKind::Read).hit);
        assert!(
            c.access(Addr::new(0x5f), AccessKind::Read).hit,
            "same line must hit"
        );
        assert_eq!(c.stats().total().misses(), 1);
        assert_eq!(c.stats().total().hits(), 1);
    }

    #[test]
    fn conflicting_lines_thrash() {
        // Paper Section 2.2: the sequence 0,1,8,9,0,1,8,9 (line granules)
        // never hits in a direct-mapped cache with 8 sets.
        let mut c = tiny();
        let line = 32u64;
        for _ in 0..2 {
            for block in [0u64, 1, 8, 9] {
                let r = c.access(Addr::new(block * line), AccessKind::Read);
                assert!(!r.hit);
            }
        }
        assert_eq!(c.stats().total().misses(), 8);
        assert_eq!(c.stats().total().hits(), 0);
    }

    #[test]
    fn eviction_reports_dirty_block() {
        let mut c = tiny();
        c.access(Addr::new(0x0), AccessKind::Write);
        // Block 8 maps to the same set 0 (8 * 32 = 256 = cache size).
        let r = c.access(Addr::new(256), AccessKind::Read);
        let ev = r.evicted.expect("conflict must evict");
        assert_eq!(ev.block, Addr::new(0));
        assert!(ev.dirty);
        assert_eq!(c.stats().writebacks(), 1);
    }

    #[test]
    fn clean_eviction_is_not_a_writeback() {
        let mut c = tiny();
        c.access(Addr::new(0x0), AccessKind::Read);
        let r = c.access(Addr::new(256), AccessKind::Read);
        assert!(!r.evicted.unwrap().dirty);
        assert_eq!(c.stats().writebacks(), 0);
    }

    #[test]
    fn write_hit_dirties_block() {
        let mut c = tiny();
        c.access(Addr::new(0x0), AccessKind::Read);
        c.access(Addr::new(0x4), AccessKind::Write);
        let r = c.access(Addr::new(256), AccessKind::Read);
        assert!(r.evicted.unwrap().dirty);
    }

    #[test]
    fn probe_does_not_disturb_stats() {
        let mut c = tiny();
        c.access(Addr::new(0x40), AccessKind::Read);
        assert!(c.probe(Addr::new(0x44)));
        assert!(!c.probe(Addr::new(0x80)));
        assert_eq!(c.stats().total().accesses(), 1);
    }

    #[test]
    fn usage_tracks_sets() {
        let mut c = tiny();
        c.access(Addr::new(0x20), AccessKind::Read); // set 1
        c.access(Addr::new(0x20), AccessKind::Read);
        let u = c.set_usage().unwrap();
        assert_eq!(u.misses(1), 1);
        assert_eq!(u.hits(1), 1);
        assert_eq!(u.accesses(0), 0);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = tiny();
        c.access(Addr::new(0x40), AccessKind::Read);
        c.reset_stats();
        assert_eq!(c.stats().total().accesses(), 0);
        assert!(
            c.access(Addr::new(0x40), AccessKind::Read).hit,
            "contents must survive reset"
        );
    }

    #[test]
    fn from_geometry_rejects_set_associative_shapes() {
        let g = CacheGeometry::new(1024, 32, 2).unwrap();
        assert!(DirectMappedCache::from_geometry(g).is_err());
    }

    #[test]
    fn access_batch_is_bit_identical_to_the_loop() {
        let mut looped = DirectMappedCache::new(1024, 32).unwrap();
        let mut batched = DirectMappedCache::new(1024, 32).unwrap();
        let mut x = 0x1357_9BDFu64;
        let accesses: Vec<(Addr, AccessKind)> = (0..5_000)
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
            .collect();
        for &(addr, kind) in &accesses {
            looped.access(addr, kind);
        }
        batched.access_batch(&accesses);
        assert_eq!(looped.stats(), batched.stats());
        assert_eq!(looped.usage, batched.usage);
        assert_eq!(looped.lines, batched.lines, "contents must match too");
    }

    /// Differential hook: the fuzzer's reference model (`crate::oracle`)
    /// must agree with this cache access-by-access; `harness::fuzz`
    /// explores random geometries, this pins one conflict-heavy stream.
    #[test]
    fn matches_reference_oracle() {
        use crate::oracle::OracleCache;
        let mut model = DirectMappedCache::new(1024, 32).unwrap();
        let mut oracle = OracleCache::new(1024, 32, 1, crate::PolicyKind::Lru, 0, 32);
        let mut x = 0x2468_ACE0u64;
        for i in 0..4000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = ((x >> 16) % 256) * 32;
            let kind = if x & 4 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let got = model.access(Addr::new(addr), kind);
            let want = oracle.access(Addr::new(addr), kind);
            assert_eq!(want.diff(&got), None, "access {i} at {addr:#x}");
        }
        assert_eq!(oracle.misses(), model.stats().total().misses());
        assert_eq!(oracle.writebacks(), model.stats().writebacks());
    }
}

//! The column-associative cache (Agarwal & Pudar), a related-work
//! baseline from Section 7.1 of the paper.
//!
//! A direct-mapped array with two hashing functions: the normal index
//! `h1`, and a rehash index `h2` obtained by flipping the most significant
//! index bit. Each line carries a *rehash bit* marking blocks that live in
//! their alternate location. First-time hits cost one cycle; rehash hits
//! cost an extra cycle and swap the two blocks so the MRU block sits in
//! its primary slot.

use crate::addr::Addr;
use crate::geometry::{CacheGeometry, GeometryError};
use crate::model::{AccessKind, AccessResult, CacheModel, Eviction};
use crate::packed;
use crate::stats::{BatchTally, CacheStats, SetUsage, Tally};

/// A column-associative cache.
///
/// Both access paths — per-access and [`CacheModel::access_batch`] — run
/// through one shared, always-inlined step covering the primary probe,
/// the rehash probe, and the swap/displace bookkeeping, so they are
/// bit-identical: statistics, set usage and contents alike. The batched
/// path tallies stats in registers.
///
/// # Examples
///
/// ```
/// use cache_sim::{AccessKind, CacheModel, ColumnAssociativeCache};
///
/// let mut c = ColumnAssociativeCache::new(16 * 1024, 32)?;
/// c.access(0x0u64.into(), AccessKind::Read);
/// c.access(0x4000u64.into(), AccessKind::Read); // conflict -> rehash slot
/// assert!(c.access(0x0u64.into(), AccessKind::Read).hit);
/// # Ok::<(), cache_sim::GeometryError>(())
/// ```
#[derive(Debug)]
pub struct ColumnAssociativeCache {
    slots: Slots,
    stats: CacheStats,
}

/// Everything but the statistics, so a single access counts into those
/// in place while its step borrows this.
#[derive(Debug, PartialEq)]
struct Slots {
    geom: CacheGeometry,
    // One [`packed`] word per slot whose tag field is the full block id
    // (tag | index), so a block can sit in either of its two slots
    // without ambiguity.
    words: Vec<u64>,
    rehash: Vec<bool>,
    usage: SetUsage,
}

impl ColumnAssociativeCache {
    /// Creates a column-associative cache of `size_bytes` with
    /// `line_bytes` blocks.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] for invalid shapes, including a cache
    /// with a single set (the rehash function needs at least one index
    /// bit).
    pub fn new(size_bytes: usize, line_bytes: usize) -> Result<Self, GeometryError> {
        let geom = CacheGeometry::new(size_bytes, line_bytes, 1)?;
        if geom.index_bits() == 0 {
            return Err(GeometryError::AssocLargerThanLines { assoc: 1, lines: 1 });
        }
        assert!(
            geom.block_id_bits() <= packed::MAX_TAG_BITS,
            "block id of {geom} does not fit a packed line word"
        );
        let sets = geom.sets();
        Ok(ColumnAssociativeCache {
            slots: Slots {
                geom,
                words: vec![packed::EMPTY; sets],
                rehash: vec![false; sets],
                usage: SetUsage::new(sets),
            },
            stats: CacheStats::new(),
        })
    }
}

impl Slots {
    fn block_addr(&self, id: u64) -> Addr {
        Addr::new(id << self.geom.offset_bits())
    }

    /// Primary index: the conventional one, the block id's index bits.
    fn h1(&self, id: u64) -> usize {
        id as usize & (self.geom.sets() - 1)
    }

    /// Rehash index: primary with the MSB of the index flipped.
    fn h2(&self, id: u64) -> usize {
        self.h1(id) ^ (self.geom.sets() >> 1)
    }

    fn evict<T: Tally>(&mut self, tally: &mut T, slot: usize) -> Option<Eviction> {
        let word = self.words[slot];
        if !packed::is_valid(word) {
            return None;
        }
        let ev = Eviction {
            block: self.block_addr(packed::tag(word)),
            dirty: packed::is_dirty(word),
        };
        tally.record_writeback_if(ev.dirty);
        self.words[slot] = packed::EMPTY;
        Some(ev)
    }

    fn fill(&mut self, slot: usize, word: u64, rehashed: bool) {
        self.words[slot] = word;
        self.rehash[slot] = rehashed;
    }

    /// One access. Shared verbatim by both paths, so their statistics,
    /// usage counters and contents agree by construction.
    #[inline(always)]
    fn step<T: Tally>(&mut self, tally: &mut T, addr: Addr, kind: AccessKind) -> AccessResult {
        let id = self.geom.block_id(addr);
        let i1 = self.h1(id);
        let i2 = self.h2(id);
        let w1 = self.words[i1];

        // First probe: the primary location.
        if packed::matches(w1, id) {
            tally.record(kind, true);
            self.usage.record(i1, true);
            if kind.is_write() {
                self.words[i1] = packed::set_dirty(w1);
            }
            return AccessResult::hit();
        }

        // The primary slot holds some other address's *rehashed* block:
        // per the column-associative algorithm, do not probe further —
        // claim the primary slot immediately (the rehashed occupant loses).
        if packed::is_valid(w1) && self.rehash[i1] {
            tally.record(kind, false);
            self.usage.record(i1, false);
            let ev = self.evict(tally, i1);
            self.fill(i1, packed::fill(id, kind.is_write()), false);
            return AccessResult::miss(ev);
        }

        // Second probe: the rehash location.
        if packed::matches(self.words[i2], id) {
            tally.record(kind, true);
            self.usage.record(i2, true);
            // Swap so the MRU block sits in its primary slot.
            self.words.swap(i1, i2);
            self.rehash[i1] = false;
            self.rehash[i2] = packed::is_valid(w1);
            if kind.is_write() {
                self.words[i1] = packed::set_dirty(self.words[i1]);
            }
            return AccessResult::slow_hit(1);
        }

        // Full miss: the old primary resident moves to the rehash slot
        // (evicting its occupant), and the new block takes the primary.
        tally.record(kind, false);
        self.usage.record(i1, false);
        let ev = self.evict(tally, i2);
        if packed::is_valid(w1) {
            self.fill(i2, w1, true);
        }
        self.fill(i1, packed::fill(id, kind.is_write()), false);
        AccessResult::miss(ev)
    }
}

impl CacheModel for ColumnAssociativeCache {
    fn access(&mut self, addr: Addr, kind: AccessKind) -> AccessResult {
        self.slots.step(&mut self.stats, addr, kind)
    }

    fn access_batch(&mut self, accesses: &[(Addr, AccessKind)]) {
        let mut tally = BatchTally::new();
        for &(addr, kind) in accesses {
            self.slots.step(&mut tally, addr, kind);
        }
        tally.flush(&mut self.stats);
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
        self.slots.usage.reset();
    }

    fn geometry(&self) -> CacheGeometry {
        self.slots.geom
    }

    fn set_usage(&self) -> &SetUsage {
        &self.slots.usage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ColumnAssociativeCache {
        ColumnAssociativeCache::new(256, 32).unwrap()
    }

    #[test]
    fn absorbs_pairwise_conflicts() {
        // Blocks 0 and 8 collide in set 0 of a plain DM cache; the column-
        // associative cache keeps 0 in set 0 and 8 in the rehash set 4.
        let mut c = tiny();
        assert!(!c.access(Addr::new(0), AccessKind::Read).hit);
        assert!(!c.access(Addr::new(256), AccessKind::Read).hit);
        let r0 = c.access(Addr::new(0), AccessKind::Read);
        assert!(r0.hit);
        let r8 = c.access(Addr::new(256), AccessKind::Read);
        assert!(r8.hit);
        assert_eq!(r8.extra_latency, 1, "8 was found in its rehash slot");
    }

    #[test]
    fn rehash_hit_costs_an_extra_cycle_and_swaps() {
        let mut c = tiny();
        c.access(Addr::new(0), AccessKind::Read);
        c.access(Addr::new(256), AccessKind::Read); // 0 rehashes to set 4
        let r = c.access(Addr::new(0), AccessKind::Read);
        assert!(r.hit);
        assert_eq!(r.extra_latency, 1);
        // After the swap, 0 is primary again: next access is a fast hit.
        let r2 = c.access(Addr::new(0), AccessKind::Read);
        assert_eq!(r2.extra_latency, 0);
    }

    #[test]
    fn rehashed_occupant_loses_primary_slot() {
        let mut c = tiny();
        // Block 0 (set 0), then block 8 (same set) -> 0 rehashed to set 4.
        c.access(Addr::new(0), AccessKind::Read);
        c.access(Addr::new(256), AccessKind::Read);
        // A block whose *primary* set is 4 must displace the rehashed 0
        // without probing further.
        let r = c.access(Addr::new(4 * 32), AccessKind::Read);
        assert!(!r.hit);
        assert!(c.access(Addr::new(4 * 32), AccessKind::Read).hit);
        // 0 is gone now.
        assert!(!c.access(Addr::new(0), AccessKind::Read).hit);
    }

    #[test]
    fn dirty_blocks_write_back_on_rehash_eviction() {
        let mut c = tiny();
        c.access(Addr::new(0), AccessKind::Write);
        c.access(Addr::new(256), AccessKind::Read); // dirty 0 -> set 4
        c.access(Addr::new(512), AccessKind::Read); // 256 -> set 4, evicts 0
        assert_eq!(c.stats().writebacks(), 1);
    }

    #[test]
    fn beats_direct_mapped_on_two_way_conflicts() {
        use crate::direct::DirectMappedCache;
        let mut col = tiny();
        let mut dm = DirectMappedCache::new(256, 32).unwrap();
        for _ in 0..50 {
            for block in [0u64, 8, 1, 9] {
                let a = Addr::new(block * 32);
                col.access(a, AccessKind::Read);
                dm.access(a, AccessKind::Read);
            }
        }
        assert!(col.stats().total().misses() < dm.stats().total().misses());
    }

    #[test]
    fn rejects_single_set_geometry() {
        assert!(ColumnAssociativeCache::new(32, 32).is_err());
    }

    /// Fuzz-subsystem hook: demand-fill sanity — never a hit on a block
    /// the cache has not seen, and at least one miss per distinct block
    /// (the compulsory bound). `harness::fuzz` checks the same invariants
    /// on random configurations.
    #[test]
    fn is_demand_fill() {
        use std::collections::HashSet;
        let mut c = ColumnAssociativeCache::new(512, 32).unwrap();
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
        let mut looped = ColumnAssociativeCache::new(1024, 32).unwrap();
        let mut batched = ColumnAssociativeCache::new(1024, 32).unwrap();
        let accesses = fuzz_accesses(6_000, 4);
        for &(addr, kind) in &accesses {
            looped.access(addr, kind);
        }
        batched.access_batch(&accesses);
        assert_eq!(looped.stats(), batched.stats());
        assert_eq!(looped.slots, batched.slots, "everything but the statistics");
    }
}

//! A direct-mapped cache backed by a small fully-associative victim
//! buffer (Jouppi), the paper's main prior-art comparator (Section 6.6).

use crate::addr::Addr;
use crate::cam;
use crate::geometry::{field_mask, CacheGeometry, GeometryError, TagIndexSplit};
use crate::model::{
    AccessKind, AccessResult, CacheModel, Eviction, LaneAccess, LaneBatch, LaneModel,
};
use crate::packed;
use crate::replacement::{PolicyKind, Replacement};
use crate::simd::{self, Lanes};
use crate::stats::{BatchTally, CacheStats, SetUsage, Tally};

/// Direct-mapped cache plus an `N`-entry fully-associative victim buffer.
///
/// Semantics follow Jouppi's victim cache: every block evicted from the
/// main array is demoted into the buffer; a main-array miss that hits in
/// the buffer swaps the two blocks and counts as a (one-cycle-slower) hit.
/// The paper evaluates a 16-entry buffer and charges the extra cycle when
/// the buffer is probed sequentially after the main array.
///
/// Both the main array and the buffer live in packed `u64` SoA arrays
/// (`tag|dirty|valid` words, with LRU [`Replacement`] over the buffer
/// slots), and [`CacheModel::access_batch`] replays through a kernel
/// monomorphized on the buffer width and the lane backend, so the
/// 16-entry FA search runs as one [`crate::simd`] compare-mask probe per
/// lane group — the same CAM primitive the B-Cache kernel uses. The per-access and
/// batched paths share one step function and are bit-identical.
///
/// # Examples
///
/// ```
/// use cache_sim::{AccessKind, CacheModel, VictimCache};
///
/// let mut vc = VictimCache::new(16 * 1024, 32, 16)?;
/// vc.access(0x0u64.into(), AccessKind::Read);       // miss
/// vc.access(0x4000u64.into(), AccessKind::Read);    // conflict: 0x0 demoted
/// let swap = vc.access(0x0u64.into(), AccessKind::Read);
/// assert!(swap.hit);                                // recovered from buffer
/// assert_eq!(swap.extra_latency, 1);
/// # Ok::<(), cache_sim::GeometryError>(())
/// ```
#[derive(Debug)]
pub struct VictimCache {
    geom: CacheGeometry,
    // Packed main array, one word per set (the cache is direct-mapped).
    lines: Vec<u64>,
    // The FA buffer: packed words whose tag field is the block id
    // (`addr >> offset_bits`), plus exact LRU over its slots (one set).
    buf_words: Vec<u64>,
    buf_lru: Replacement,
    stats: CacheStats,
    usage: SetUsage,
}

impl VictimCache {
    /// Creates a direct-mapped cache of `size_bytes`/`line_bytes` with an
    /// `entries`-block victim buffer (LRU).
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] for invalid shapes.
    pub fn new(
        size_bytes: usize,
        line_bytes: usize,
        entries: usize,
    ) -> Result<Self, GeometryError> {
        let geom = CacheGeometry::new(size_bytes, line_bytes, 1)?;
        // The buffer keeps the shape rules of its former incarnation as
        // a fully-associative SetAssociativeCache: entries must form a
        // valid (power-of-two) single-set geometry.
        CacheGeometry::new(entries * line_bytes, line_bytes, entries)?;
        assert!(
            geom.block_id_bits() <= packed::MAX_TAG_BITS,
            "block id of {geom} does not fit a packed line word"
        );
        let sets = geom.sets();
        Ok(VictimCache {
            geom,
            lines: vec![packed::EMPTY; sets],
            buf_words: vec![packed::EMPTY; entries],
            buf_lru: Replacement::new(PolicyKind::Lru, 1, entries, 0),
            stats: CacheStats::new(),
            usage: SetUsage::new(sets),
        })
    }

    /// Mask selecting the block-id field (`addr >> offset_bits` within
    /// the geometry's address width, as [`CacheGeometry::block_id`]).
    fn id_mask(&self) -> u64 {
        field_mask(self.geom.block_id_bits())
    }
}

/// Inserts a freshly demoted block `id` into the buffer with exact
/// FA-LRU semantics: one stamp minimum picks the first never-filled
/// slot, else the LRU one (slots are never emptied, so "never filled"
/// is "invalid"). Returns the displaced `(block id, dirty)`, if any.
///
/// The caller only ever demotes the main array's old resident, which
/// cannot also live in the buffer (a block is in exactly one of the
/// two structures), so no merge scan is needed.
#[inline(always)]
fn buf_insert<L: Lanes, const N: usize>(
    lanes: L,
    words: &mut [u64],
    lru: &mut Replacement,
    id: u64,
    dirty: bool,
) -> Option<(u64, bool)> {
    debug_assert!(
        cam::find_match::<L, N>(lanes, words, id).is_none(),
        "main array and victim buffer must stay exclusive"
    );
    let slot = lru.fill_way_on(lanes, 0, words);
    let out = words[slot];
    words[slot] = packed::fill(id, dirty);
    lru.touch(0, slot);
    packed::is_valid(out).then(|| (packed::tag(out), packed::is_dirty(out)))
}

/// One access against the destructured cache state. Shared verbatim by
/// the per-access and batched paths, so their statistics, set-usage
/// counters and contents agree by construction. The counts land in
/// `tally`: the cache's statistics for one access, a register tally for
/// a batch.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn step<L: Lanes, T: Tally, const N: usize>(
    lanes: L,
    split: &TagIndexSplit,
    index_bits: u32,
    offset_bits: u32,
    id_mask: u64,
    lines: &mut [u64],
    buf_words: &mut [u64],
    buf_lru: &mut Replacement,
    usage: &mut SetUsage,
    tally: &mut T,
    addr: Addr,
    kind: AccessKind,
) -> AccessResult {
    let set = split.set_index(addr);
    let tag = split.tag(addr);
    let word = lines[set];
    if packed::matches(word, tag) {
        tally.record(kind, true);
        usage.record(set, true);
        if kind.is_write() {
            lines[set] = packed::set_dirty(word);
        }
        return AccessResult::hit();
    }
    // Main-array miss: probe the buffer with the fused CAM search.
    let id = (addr.raw() >> offset_bits) & id_mask;
    if let Some(i) = cam::find_match::<L, N>(lanes, buf_words, id) {
        // Swap: promoted block enters the main array, the resident
        // block is demoted straight into the promoted block's slot.
        tally.record(kind, true);
        usage.record(set, true);
        debug_assert!(
            packed::is_valid(word),
            "a buffered block's set is resident in the main array"
        );
        let promoted_dirty = packed::is_dirty(buf_words[i]);
        let old_id = (packed::tag(word) << index_bits) | set as u64;
        buf_words[i] = packed::fill(old_id, packed::is_dirty(word));
        buf_lru.touch(0, i);
        lines[set] = packed::fill(tag, promoted_dirty || kind.is_write());
        return AccessResult::slow_hit(1);
    }
    // Full miss: fill the main array, demote the old resident.
    tally.record(kind, false);
    usage.record(set, false);
    let mut evicted = None;
    if packed::is_valid(word) {
        let old_id = (packed::tag(word) << index_bits) | set as u64;
        if let Some((out_id, out_dirty)) =
            buf_insert::<L, N>(lanes, buf_words, buf_lru, old_id, packed::is_dirty(word))
        {
            tally.record_writeback_if(out_dirty);
            evicted = Some(Eviction {
                block: Addr::new(out_id << offset_bits),
                dirty: out_dirty,
            });
        }
    }
    lines[set] = packed::fill(tag, kind.is_write());
    AccessResult::miss(evicted)
}

impl LaneModel for VictimCache {
    #[inline(always)]
    fn access_on<L: Lanes>(&mut self, lanes: L, addr: Addr, kind: AccessKind) -> AccessResult {
        let split = self.geom.split();
        let index_bits = self.geom.index_bits();
        let offset_bits = self.geom.offset_bits();
        let id_mask = self.id_mask();
        macro_rules! kernel {
            ($n:literal) => {
                step::<L, _, $n>(
                    lanes,
                    &split,
                    index_bits,
                    offset_bits,
                    id_mask,
                    &mut self.lines,
                    &mut self.buf_words,
                    &mut self.buf_lru,
                    &mut self.usage,
                    &mut self.stats,
                    addr,
                    kind,
                )
            };
        }
        crate::const_width!(self.buf_words.len(), kernel)
    }

    #[inline(always)]
    fn access_batch_on<L: Lanes>(&mut self, lanes: L, accesses: &[(Addr, AccessKind)]) {
        // Monomorphized replay: state is hoisted into locals once, the
        // buffer scan unrolls for the common widths, and statistics are
        // tallied in registers. `access` runs the same `step`, so the
        // batch equals the `access` loop by construction.
        let split = self.geom.split();
        let index_bits = self.geom.index_bits();
        let offset_bits = self.geom.offset_bits();
        let id_mask = self.id_mask();
        let mut tally = BatchTally::new();
        macro_rules! kernel {
            ($n:literal) => {
                for &(addr, kind) in accesses {
                    step::<L, _, $n>(
                        lanes,
                        &split,
                        index_bits,
                        offset_bits,
                        id_mask,
                        &mut self.lines,
                        &mut self.buf_words,
                        &mut self.buf_lru,
                        &mut self.usage,
                        &mut tally,
                        addr,
                        kind,
                    );
                }
            };
        }
        crate::const_width!(self.buf_words.len(), kernel);
        tally.flush(&mut self.stats);
    }
}

impl CacheModel for VictimCache {
    fn access(&mut self, addr: Addr, kind: AccessKind) -> AccessResult {
        simd::dispatch(LaneAccess(self, addr, kind))
    }

    fn access_batch(&mut self, accesses: &[(Addr, AccessKind)]) {
        simd::dispatch(LaneBatch(self, accesses))
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

    fn set_usage(&self) -> &SetUsage {
        &self.usage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 8-set main array, 2-entry buffer.
    fn tiny() -> VictimCache {
        VictimCache::new(256, 32, 2).unwrap()
    }

    #[test]
    fn buffer_recovers_conflict_victims() {
        let mut c = tiny();
        // Blocks 0 and 8 collide in set 0 of the 8-set main array.
        assert!(!c.access(Addr::new(0), AccessKind::Read).hit);
        assert!(!c.access(Addr::new(256), AccessKind::Read).hit);
        // 0 was demoted to the buffer: this is a swap hit.
        let r = c.access(Addr::new(0), AccessKind::Read);
        assert!(r.hit);
        assert_eq!(r.extra_latency, 1);
        // And 256 is now in the buffer.
        assert!(c.access(Addr::new(256), AccessKind::Read).hit);
    }

    #[test]
    fn two_entry_buffer_absorbs_the_paper_thrash_sequence() {
        // 0,1,8,9 on an 8-set DM cache: blocks 0/8 and 1/9 collide. A
        // 2-entry buffer turns the steady state into all hits.
        let mut c = tiny();
        let line = 32u64;
        for block in [0u64, 1, 8, 9] {
            assert!(!c.access(Addr::new(block * line), AccessKind::Read).hit);
        }
        for _ in 0..4 {
            for block in [0u64, 1, 8, 9] {
                assert!(c.access(Addr::new(block * line), AccessKind::Read).hit);
            }
        }
        assert_eq!(c.stats().total().misses(), 4);
    }

    #[test]
    fn buffer_overflow_evicts_oldest_victim() {
        let mut c = tiny();
        // Four conflicting blocks in set 0; buffer holds only two victims.
        for tag in 0..4u64 {
            c.access(Addr::new(tag * 256), AccessKind::Read);
        }
        // Main: tag 3. Buffer: tags 1, 2 (tag 0 was pushed out).
        assert!(
            !c.access(Addr::new(0), AccessKind::Read).hit,
            "oldest victim must be gone"
        );
        assert!(c.access(Addr::new(2 * 256), AccessKind::Read).hit);
    }

    #[test]
    fn dirtiness_survives_demotion_and_promotion() {
        let mut c = tiny();
        c.access(Addr::new(0), AccessKind::Write);
        c.access(Addr::new(256), AccessKind::Read); // dirty 0 demoted
        c.access(Addr::new(0), AccessKind::Read); // swap back (still dirty)
        c.access(Addr::new(512), AccessKind::Read); // 0 demoted again
                                                    // Push two more victims through so dirty block 0 leaves the buffer.
        c.access(Addr::new(768), AccessKind::Read);
        let r = c.access(Addr::new(1024), AccessKind::Read);
        let ev = r.evicted.expect("buffer overflow must surface an eviction");
        assert_eq!(ev.block, Addr::new(0));
        assert!(ev.dirty, "dirtiness must follow the block through swaps");
    }

    #[test]
    fn miss_rate_never_worse_than_plain_dm_on_conflict_traffic() {
        use crate::direct::DirectMappedCache;
        let mut vc = VictimCache::new(256, 32, 4).unwrap();
        let mut dm = DirectMappedCache::new(256, 32).unwrap();
        let mut x = 7u64;
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = Addr::new((x >> 16) % 2048);
            vc.access(addr, AccessKind::Read);
            dm.access(addr, AccessKind::Read);
        }
        assert!(vc.stats().total().misses() <= dm.stats().total().misses());
    }

    /// Fuzz-subsystem hook: the main array mirrors a plain DM cache, so
    /// a DM hit is always a victim-cache hit, and the cache is
    /// demand-fill (it never hits a block it has not seen).
    #[test]
    fn dominates_direct_mapped_and_is_demand_fill() {
        use std::collections::HashSet;
        let mut vc = VictimCache::new(512, 32, 4).unwrap();
        let mut dm = crate::DirectMappedCache::new(512, 32).unwrap();
        let mut seen = HashSet::new();
        let mut x = 0x0F1E_2D3Cu64;
        for i in 0..4000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = ((x >> 16) % 128) * 32;
            let hit = vc.access(Addr::new(addr), AccessKind::Read).hit;
            let dm_hit = dm.access(Addr::new(addr), AccessKind::Read).hit;
            assert!(
                !hit || seen.contains(&addr),
                "access {i}: hit on unseen {addr:#x}"
            );
            assert!(!dm_hit || hit, "access {i}: lost a DM hit at {addr:#x}");
            seen.insert(addr);
        }
        assert!(vc.stats().total().misses() >= seen.len() as u64);
    }

    fn fuzz_accesses(records: usize, seed: u64) -> Vec<(Addr, AccessKind)> {
        let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
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
                (Addr::new(((x >> 16) % 1024) * 32), kind)
            })
            .collect()
    }

    #[test]
    fn access_batch_is_bit_identical_to_the_loop() {
        // Every width here is monomorphized; the runtime-width probe is
        // pinned against them by the `find_match` tests in `cam`.
        for entries in [1usize, 2, 4, 16] {
            let mut looped = VictimCache::new(512, 32, entries).unwrap();
            let mut batched = VictimCache::new(512, 32, entries).unwrap();
            let accesses = fuzz_accesses(8_000, entries as u64);
            for &(addr, kind) in &accesses {
                looped.access(addr, kind);
            }
            batched.access_batch(&accesses);
            assert_eq!(looped.stats(), batched.stats(), "victim{entries}");
            assert_eq!(looped.usage, batched.usage, "victim{entries} usage");
            assert_eq!(looped.lines, batched.lines, "victim{entries} main array");
            assert_eq!(
                looped.buf_words, batched.buf_words,
                "victim{entries} buffer"
            );
            assert_eq!(looped.buf_lru, batched.buf_lru, "victim{entries} LRU");
        }
    }

    /// Victim16 leaves the same statistics, set usage, main-array and
    /// buffer words and buffer LRU stamps on every lane backend, per
    /// access and batched.
    #[test]
    fn every_lane_backend_replays_identically() {
        let avx2_checked = crate::lane_backends::check(
            "victim16",
            || VictimCache::new(16 * 1024, 32, 16).unwrap(),
            |c| {
                (
                    c.stats.clone(),
                    c.usage.clone(),
                    c.lines.clone(),
                    c.buf_words.clone(),
                    format!("{:?}", c.buf_lru),
                )
            },
        );
        crate::lane_backends::report(avx2_checked);
    }
}

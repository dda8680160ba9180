//! The adaptive group-associative cache (AGAC, Peir et al.), a
//! related-work baseline from Section 7.1 of the paper.
//!
//! A direct-mapped cache that fills "cache holes" — frames whose resident
//! line has not been referenced recently — with lines displaced from
//! their home frame. An *out-of-position directory* (a small
//! fully-associative table) locates relocated lines; hitting one costs
//! two extra cycles (the paper: "the AGAC needs three cycles to access
//! those relocated cache lines", versus one cycle for every B-Cache hit).

use crate::addr::Addr;
use crate::geometry::{CacheGeometry, GeometryError};
use crate::model::{AccessKind, AccessResult, CacheModel, Eviction};
use crate::stats::{BatchTally, CacheStats, SetUsage, Tally};

/// The adaptive group-associative cache.
///
/// Both access paths run through one shared, always-inlined step, so
/// per-access and [`CacheModel::access_batch`] are bit-identical —
/// statistics and directory state alike.
///
/// # Examples
///
/// ```
/// use cache_sim::{AccessKind, AgacCache, CacheModel};
///
/// let mut agac = AgacCache::new(16 * 1024, 32, 64)?;
/// agac.access(0x0u64.into(), AccessKind::Read);
/// assert!(agac.access(0x10u64.into(), AccessKind::Read).hit);
/// # Ok::<(), cache_sim::GeometryError>(())
/// ```
#[derive(Debug)]
pub struct AgacCache {
    frames: Frames,
    stats: CacheStats,
}

/// Everything but the statistics, so a single access counts into those
/// in place while its step borrows this.
#[derive(Debug, PartialEq)]
struct Frames {
    geom: CacheGeometry,
    // Per frame: resident block id (addr >> offset), validity, dirtiness,
    // and a reference bit that decays periodically. The reference bits
    // live in a bitmap so hole scans run a word at a time; bits past
    // `frames` in the last word stay permanently set so the scan never
    // reports a frame that does not exist.
    blocks: Vec<u64>,
    valid: Vec<bool>,
    dirty: Vec<bool>,
    referenced: Vec<u64>,
    ref_tail_mask: u64,
    // Out-of-position directory: (block id, frame) pairs, FIFO-replaced.
    // The counting filter over-approximates the directory's id set (256
    // buckets keyed by low id bits) so the common case — an id nowhere in
    // the directory — skips the linear probe and the retain sweeps.
    out_dir: Vec<(u64, usize)>,
    out_filter: Vec<u32>,
    out_capacity: usize,
    out_next: usize,
    // Reference bits are cleared every `decay_period` accesses.
    decay_period: u64,
    accesses_since_decay: u64,
    hole_scan: usize,
    usage: SetUsage,
    relocated_hits: u64,
}

impl AgacCache {
    /// Creates an AGAC of `size_bytes`/`line_bytes` with an
    /// `out_entries`-entry out-of-position directory.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] for invalid shapes.
    pub fn new(
        size_bytes: usize,
        line_bytes: usize,
        out_entries: usize,
    ) -> Result<Self, GeometryError> {
        let geom = CacheGeometry::new(size_bytes, line_bytes, 1)?;
        let frames = geom.sets();
        let ref_words = frames.div_ceil(64);
        let ref_tail_mask = if frames % 64 == 0 {
            0
        } else {
            !0u64 << (frames % 64)
        };
        let mut referenced = vec![0u64; ref_words];
        referenced[ref_words - 1] |= ref_tail_mask;
        Ok(AgacCache {
            frames: Frames {
                geom,
                blocks: vec![0; frames],
                valid: vec![false; frames],
                dirty: vec![false; frames],
                referenced,
                ref_tail_mask,
                out_dir: Vec::with_capacity(out_entries),
                out_filter: vec![0; 256],
                out_capacity: out_entries.max(1),
                out_next: 0,
                decay_period: (frames as u64) * 4,
                accesses_since_decay: 0,
                hole_scan: 0,
                usage: SetUsage::new(frames),
                relocated_hits: 0,
            },
            stats: CacheStats::new(),
        })
    }

    /// Hits served from relocated (out-of-position) lines.
    pub fn relocated_hits(&self) -> u64 {
        self.frames.relocated_hits
    }
}

impl Frames {
    fn block_id(&self, addr: Addr) -> u64 {
        addr.raw() >> self.geom.offset_bits()
    }

    fn block_addr(&self, id: u64) -> Addr {
        Addr::new(id << self.geom.offset_bits())
    }

    fn home_frame(&self, id: u64) -> usize {
        (id as usize) & (self.geom.sets() - 1)
    }

    #[inline(always)]
    fn is_referenced(&self, frame: usize) -> bool {
        self.referenced[frame >> 6] & (1u64 << (frame & 63)) != 0
    }

    #[inline(always)]
    fn set_referenced(&mut self, frame: usize) {
        self.referenced[frame >> 6] |= 1u64 << (frame & 63);
    }

    #[inline(always)]
    fn filter_bucket(id: u64) -> usize {
        id as usize & 0xFF
    }

    fn decay_tick(&mut self) {
        self.accesses_since_decay += 1;
        if self.accesses_since_decay >= self.decay_period {
            self.accesses_since_decay = 0;
            self.referenced.fill(0);
            let last = self.referenced.len() - 1;
            self.referenced[last] |= self.ref_tail_mask;
        }
    }

    /// First unreferenced frame in `[lo, hi)`, skipping `exclude`, found a
    /// bitmap word at a time.
    fn scan_holes(&self, lo: usize, hi: usize, exclude: usize) -> Option<usize> {
        let mut f = lo;
        while f < hi {
            let w = f >> 6;
            let mut bits = !self.referenced[w] & (!0u64 << (f & 63));
            let word_end = (w + 1) << 6;
            if hi < word_end {
                bits &= (1u64 << (hi & 63)) - 1;
            }
            if exclude >> 6 == w {
                bits &= !(1u64 << (exclude & 63));
            }
            if bits != 0 {
                return Some((w << 6) + bits.trailing_zeros() as usize);
            }
            f = word_end.min(hi);
        }
        None
    }

    /// Finds a hole: a valid-or-empty frame whose line is not recently
    /// referenced and which is not the excluded frame. Scans round-robin
    /// so holes spread across the cache; the cursor only moves when a
    /// hole is found, exactly like the one-frame-at-a-time scan it
    /// replaces.
    fn find_hole(&mut self, exclude: usize) -> Option<usize> {
        let frames = self.geom.sets();
        let found = self
            .scan_holes(self.hole_scan, frames, exclude)
            .or_else(|| self.scan_holes(0, self.hole_scan, exclude));
        if let Some(f) = found {
            self.hole_scan = (f + 1) % frames;
        }
        found
    }

    fn evict_frame<T: Tally>(&mut self, tally: &mut T, frame: usize) -> Option<Eviction> {
        if !self.valid[frame] {
            return None;
        }
        let id = self.blocks[frame];
        // Drop any out-of-position mapping for the evicted line.
        if self.out_filter[Self::filter_bucket(id)] > 0 {
            let before = self.out_dir.len();
            self.out_dir.retain(|&(b, f)| !(b == id && f == frame));
            self.out_filter[Self::filter_bucket(id)] -= (before - self.out_dir.len()) as u32;
        }
        let ev = Eviction {
            block: self.block_addr(id),
            dirty: self.dirty[frame],
        };
        tally.record_writeback_if(ev.dirty);
        self.valid[frame] = false;
        Some(ev)
    }

    fn install(&mut self, frame: usize, id: u64, dirty: bool) {
        self.blocks[frame] = id;
        self.valid[frame] = true;
        self.dirty[frame] = dirty;
        self.set_referenced(frame);
    }

    fn record_out_of_position(&mut self, id: u64, frame: usize) {
        self.out_filter[Self::filter_bucket(id)] += 1;
        if self.out_dir.len() < self.out_capacity {
            self.out_dir.push((id, frame));
        } else {
            self.out_next %= self.out_capacity;
            let (old, _) = self.out_dir[self.out_next];
            self.out_filter[Self::filter_bucket(old)] -= 1;
            self.out_dir[self.out_next] = (id, frame);
            self.out_next += 1;
        }
    }

    /// One access. Shared verbatim by both paths, so their statistics,
    /// directory state and contents agree by construction.
    #[inline(always)]
    fn step<T: Tally>(&mut self, tally: &mut T, addr: Addr, kind: AccessKind) -> AccessResult {
        self.decay_tick();
        let id = self.block_id(addr);
        let home = self.home_frame(id);

        // In-position hit: one cycle.
        if self.valid[home] && self.blocks[home] == id {
            tally.record(kind, true);
            self.usage.record(home, true);
            self.set_referenced(home);
            if kind.is_write() {
                self.dirty[home] = true;
            }
            return AccessResult::hit();
        }

        // Out-of-position hit: the directory names the hole frame. The
        // filter rules out most ids without touching the directory.
        if self.out_filter[Self::filter_bucket(id)] > 0 {
            if let Some(pos) = self
                .out_dir
                .iter()
                .position(|&(b, f)| b == id && self.valid[f] && self.blocks[f] == id)
            {
                let (_, frame) = self.out_dir[pos];
                tally.record(kind, true);
                self.usage.record(frame, true);
                self.relocated_hits += 1;
                self.set_referenced(frame);
                if kind.is_write() {
                    self.dirty[frame] = true;
                }
                return AccessResult::slow_hit(2);
            }
        }

        // Miss. The incoming line takes its home frame; a recently used
        // resident is relocated into a hole instead of dying.
        tally.record(kind, false);
        self.usage.record(home, false);
        let mut evicted = None;
        if self.valid[home] {
            if self.is_referenced(home) {
                if let Some(hole) = self.find_hole(home) {
                    let displaced_ev = self.evict_frame(tally, hole);
                    let moved_id = self.blocks[home];
                    let moved_dirty = self.dirty[home];
                    // Remove a stale out-dir entry for the moved line (it
                    // may itself have been out of position) and re-record.
                    if self.out_filter[Self::filter_bucket(moved_id)] > 0 {
                        let before = self.out_dir.len();
                        self.out_dir.retain(|&(b, _)| b != moved_id);
                        self.out_filter[Self::filter_bucket(moved_id)] -=
                            (before - self.out_dir.len()) as u32;
                    }
                    self.install(hole, moved_id, moved_dirty);
                    if self.home_frame(moved_id) != hole {
                        self.record_out_of_position(moved_id, hole);
                    }
                    self.valid[home] = false;
                    evicted = displaced_ev;
                } else {
                    evicted = self.evict_frame(tally, home);
                }
            } else {
                evicted = self.evict_frame(tally, home);
            }
        }
        self.install(home, id, kind.is_write());
        AccessResult::miss(evicted)
    }
}

impl CacheModel for AgacCache {
    fn access(&mut self, addr: Addr, kind: AccessKind) -> AccessResult {
        self.frames.step(&mut self.stats, addr, kind)
    }

    fn access_batch(&mut self, accesses: &[(Addr, AccessKind)]) {
        let mut tally = BatchTally::new();
        for &(addr, kind) in accesses {
            self.frames.step(&mut tally, addr, kind);
        }
        tally.flush(&mut self.stats);
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
        self.frames.usage.reset();
        self.frames.relocated_hits = 0;
    }

    fn geometry(&self) -> CacheGeometry {
        self.frames.geom
    }

    fn set_usage(&self) -> Option<&SetUsage> {
        Some(&self.frames.usage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::DirectMappedCache;

    fn tiny() -> AgacCache {
        AgacCache::new(256, 32, 4).unwrap()
    }

    #[test]
    fn in_position_hits_are_fast() {
        let mut c = tiny();
        c.access(Addr::new(0x40), AccessKind::Read);
        let r = c.access(Addr::new(0x40), AccessKind::Read);
        assert!(r.hit);
        assert_eq!(r.extra_latency, 0);
    }

    #[test]
    fn relocated_lines_hit_slowly() {
        let mut c = tiny();
        // Make block 0 recently used, then displace it with block 8
        // (same home frame): it should relocate into a hole.
        c.access(Addr::new(0), AccessKind::Read);
        c.access(Addr::new(0), AccessKind::Read);
        c.access(Addr::new(256), AccessKind::Read);
        let r = c.access(Addr::new(0), AccessKind::Read);
        assert!(r.hit, "recently used line must survive in a hole");
        assert_eq!(
            r.extra_latency, 2,
            "out-of-position hits take 3 cycles total"
        );
        assert_eq!(c.relocated_hits(), 1);
    }

    #[test]
    fn unreferenced_residents_die_in_place() {
        let mut c = tiny();
        c.access(Addr::new(0), AccessKind::Read);
        // Decay all reference bits.
        for i in 0..c.frames.decay_period {
            c.access(Addr::new(0x20 + (i % 2) * 0x20), AccessKind::Read);
        }
        // Block 0's ref bit is now clear: a conflicting fill evicts it.
        c.access(Addr::new(256), AccessKind::Read);
        assert!(!c.access(Addr::new(0), AccessKind::Read).hit);
    }

    #[test]
    fn beats_direct_mapped_on_pairwise_conflicts() {
        let mut agac = AgacCache::new(256, 32, 8).unwrap();
        let mut dm = DirectMappedCache::new(256, 32).unwrap();
        for _ in 0..100 {
            for block in [0u64, 8, 1, 9] {
                let a = Addr::new(block * 32);
                agac.access(a, AccessKind::Read);
                dm.access(a, AccessKind::Read);
            }
        }
        assert!(
            agac.stats().total().misses() < dm.stats().total().misses() / 2,
            "AGAC {} vs DM {}",
            agac.stats().total().misses(),
            dm.stats().total().misses()
        );
    }

    #[test]
    fn dirty_relocated_lines_write_back_once_evicted() {
        let mut c = tiny();
        c.access(Addr::new(0), AccessKind::Write);
        c.access(Addr::new(0), AccessKind::Read);
        c.access(Addr::new(256), AccessKind::Read); // 0 relocates, dirty
                                                    // Flood every frame so the dirty relocated line eventually dies.
        for k in 0..64u64 {
            c.access(Addr::new(0x2000 + k * 32), AccessKind::Read);
        }
        assert!(c.stats().writebacks() >= 1);
    }

    #[test]
    fn out_directory_capacity_is_bounded() {
        let mut c = AgacCache::new(256, 32, 2).unwrap();
        for k in 0..32u64 {
            c.access(Addr::new(k * 256), AccessKind::Read);
            c.access(Addr::new(k * 256), AccessKind::Read);
        }
        assert!(c.frames.out_dir.len() <= 2);
    }

    /// Fuzz-subsystem hook: demand-fill sanity — never a hit on a block
    /// the cache has not seen, and at least one miss per distinct block
    /// (the compulsory bound). `harness::fuzz` checks the same invariants
    /// on random configurations.
    #[test]
    fn is_demand_fill() {
        use std::collections::HashSet;
        let mut c = AgacCache::new(512, 32, 4).unwrap();
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
        let mut looped = AgacCache::new(1024, 32, 8).unwrap();
        let mut batched = AgacCache::new(1024, 32, 8).unwrap();
        let accesses = fuzz_accesses(6_000, 13);
        for &(addr, kind) in &accesses {
            looped.access(addr, kind);
        }
        batched.access_batch(&accesses);
        assert_eq!(looped.stats(), batched.stats());
        assert_eq!(
            looped.frames, batched.frames,
            "everything but the statistics"
        );
    }
}

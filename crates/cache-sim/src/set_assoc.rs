//! Conventional set-associative caches (2-way … fully associative).

use crate::addr::Addr;
use crate::cam;
use crate::geometry::TagIndexSplit;
use crate::geometry::{CacheGeometry, GeometryError};
use crate::model::{
    AccessKind, AccessResult, CacheModel, Eviction, LaneAccess, LaneBatch, LaneModel,
};
use crate::packed;
use crate::replacement::{PolicyKind, Replacement};
use crate::simd::{self, Lanes};
use crate::stats::{BatchTally, CacheStats, SetUsage, Tally};

/// A set-associative, write-back, write-allocate cache with LRU or
/// random replacement.
///
/// The paper compares the B-Cache against 2-, 4-, 8- and 32-way instances
/// of this model (all LRU), and the unified L2 is a 4-way instance.
///
/// Both access paths run through one shared step function, so
/// per-access and batched replay are bit-identical — statistics
/// and replacement state alike.
///
/// # Examples
///
/// ```
/// use cache_sim::{AccessKind, CacheModel, PolicyKind, SetAssociativeCache};
///
/// let mut l2 = SetAssociativeCache::new(256 * 1024, 128, 4, PolicyKind::Lru, 0)?;
/// assert!(!l2.access(0x8000u64.into(), AccessKind::Read).hit);
/// assert!(l2.access(0x8000u64.into(), AccessKind::Read).hit);
/// # Ok::<(), cache_sim::GeometryError>(())
/// ```
#[derive(Debug)]
pub struct SetAssociativeCache {
    geom: CacheGeometry,
    // One packed tag|dirty|valid word per line, way-major within each
    // set: slot = set * assoc + way.
    lines: Vec<u64>,
    policy: Replacement,
    stats: CacheStats,
    usage: SetUsage,
}

impl SetAssociativeCache {
    /// Creates a cache of `size_bytes` with `line_bytes` blocks and `assoc`
    /// ways per set.
    ///
    /// `seed` feeds the random replacement policy; LRU ignores it.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] for invalid shapes.
    pub fn new(
        size_bytes: usize,
        line_bytes: usize,
        assoc: usize,
        policy: PolicyKind,
        seed: u64,
    ) -> Result<Self, GeometryError> {
        Self::from_geometry(
            CacheGeometry::new(size_bytes, line_bytes, assoc)?,
            policy,
            seed,
        )
    }

    /// Creates a cache from an explicit geometry.
    ///
    /// # Errors
    ///
    /// Never fails for a valid geometry; the `Result` mirrors
    /// [`SetAssociativeCache::new`].
    pub fn from_geometry(
        geom: CacheGeometry,
        policy: PolicyKind,
        seed: u64,
    ) -> Result<Self, GeometryError> {
        assert!(
            geom.tag_bits() <= packed::MAX_TAG_BITS,
            "tag field of {geom} does not fit a packed line word"
        );
        let sets = geom.sets();
        let ways = geom.assoc();
        Ok(SetAssociativeCache {
            geom,
            lines: vec![packed::EMPTY; sets * ways],
            policy: Replacement::new(policy, sets, ways, seed),
            stats: CacheStats::new(),
            usage: SetUsage::new(sets),
        })
    }

    /// Creates a fully-associative cache with `lines` blocks.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] for invalid shapes.
    pub fn fully_associative(
        lines: usize,
        line_bytes: usize,
        policy: PolicyKind,
        seed: u64,
    ) -> Result<Self, GeometryError> {
        Self::new(lines * line_bytes, line_bytes, lines, policy, seed)
    }

    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.geom.assoc() + way
    }

    /// Looks up the way holding `addr`'s block, if resident.
    fn find_way(&self, set: usize, tag: u64) -> Option<usize> {
        let base = self.slot(set, 0);
        self.lines[base..base + self.geom.assoc()]
            .iter()
            .position(|&w| packed::matches(w, tag))
    }

    /// Returns `true` if the block containing `addr` is resident, without
    /// touching statistics or replacement state.
    pub fn probe(&self, addr: Addr) -> bool {
        self.find_way(self.geom.set_index(addr), self.geom.tag(addr))
            .is_some()
    }

    /// Destructures the cache for the shared step on `lanes`: [`Parts`]
    /// borrows the line array, set usage and replacement state
    /// disjointly, and the statistics come back on their own, so a batch
    /// can count in a tally before it lands there.
    fn parts<L: Lanes>(&mut self, lanes: L) -> (Parts<'_, L>, &mut CacheStats) {
        let parts = Parts {
            lanes,
            split: self.geom.split(),
            assoc: self.geom.assoc(),
            lines: &mut self.lines,
            policy: &mut self.policy,
            usage: &mut self.usage,
        };
        (parts, &mut self.stats)
    }
}

/// What [`Parts::step_one`] did, in kernel-friendly form: the evicted
/// block is reported as a raw `(tag, dirty)` pair so hot loops that do
/// not need the reconstructed address pay nothing for it.
pub(crate) struct StepOutcome {
    pub(crate) hit: bool,
    pub(crate) set: usize,
    pub(crate) evicted: Option<(u64, bool)>,
}

impl StepOutcome {
    /// The [`AccessResult`] of a plain one-cycle cache, rebuilding the
    /// evicted block's address from its stored tag and set.
    pub(crate) fn result(&self, geom: &CacheGeometry) -> AccessResult {
        if self.hit {
            AccessResult::hit()
        } else {
            AccessResult::miss(self.evicted.map(|(tag, dirty)| Eviction {
                block: geom.reconstruct(tag, self.set),
                dirty,
            }))
        }
    }
}

/// A set-associative array destructured by
/// [`SetAssociativeCache::parts`], with the lane backend its probes run
/// on.
struct Parts<'a, L> {
    lanes: L,
    split: TagIndexSplit,
    assoc: usize,
    lines: &'a mut [u64],
    policy: &'a mut Replacement,
    usage: &'a mut SetUsage,
}

impl<L: Lanes> Parts<'_, L> {
    /// One access. Shared by the per-access path and the batched
    /// kernel, so both are bit-identical by construction — statistics
    /// and replacement state alike.
    ///
    /// Generic over the associativity: `A > 0` monomorphizes the tag
    /// probe into the fused CAM probe — a compare-mask over whole lane
    /// groups on the backend `L` (`A` must equal `assoc`) — while
    /// `A == 0` falls back to a runtime-width probe with identical
    /// first-match semantics. A miss asks the replacement state for the
    /// way to fill ([`Replacement::fill_way_on`]): one stamp minimum,
    /// and a draw if the policy is random and the set full. The counts
    /// land in `tally`.
    #[inline(always)]
    fn step_one<T: Tally, const A: usize>(
        &mut self,
        tally: &mut T,
        addr: Addr,
        kind: AccessKind,
    ) -> StepOutcome {
        let assoc = self.assoc;
        debug_assert!(A == 0 || A == assoc, "const width must match the geometry");
        let set = self.split.set_index(addr);
        let tag = self.split.tag(addr);
        let base = set * assoc;
        let ways = &mut self.lines[base..base + assoc];
        if let Some(way) = cam::find_match::<L, A>(self.lanes, ways, tag) {
            tally.record(kind, true);
            self.usage.record(set, true);
            self.policy.touch(set, way);
            if kind.is_write() {
                ways[way] = packed::set_dirty(ways[way]);
            }
            return StepOutcome {
                hit: true,
                set,
                evicted: None,
            };
        }
        tally.record(kind, false);
        self.usage.record(set, false);
        let way = self.policy.fill_way_on(self.lanes, set, ways);
        debug_assert!(way < assoc, "policy returned out-of-range way");
        let word = ways[way];
        let evicted = packed::is_valid(word).then(|| {
            let dirty = packed::is_dirty(word);
            tally.record_writeback_if(dirty);
            (packed::tag(word), dirty)
        });
        ways[way] = packed::fill(tag, kind.is_write());
        self.policy.touch(set, way);
        StepOutcome {
            hit: false,
            set,
            evicted,
        }
    }

    /// [`step_one`](Self::step_one) over a whole batch, counting in a
    /// register tally that lands in `stats` once.
    #[inline(always)]
    fn replay<const A: usize>(&mut self, stats: &mut CacheStats, accesses: &[(Addr, AccessKind)]) {
        let mut tally = BatchTally::new();
        for &(addr, kind) in accesses {
            self.step_one::<_, A>(&mut tally, addr, kind);
        }
        tally.flush(stats);
    }
}

impl LaneModel for SetAssociativeCache {
    // Both paths run `step_one` at the cache's const width (anything but
    // the common associativities takes the runtime-width probe), so the
    // batch equals the `access` loop by construction. One access counts
    // in the statistics directly.

    #[inline(always)]
    fn access_on<L: Lanes>(&mut self, lanes: L, addr: Addr, kind: AccessKind) -> AccessResult {
        let geom = self.geom;
        let (mut parts, stats) = self.parts(lanes);
        macro_rules! kernel {
            ($a:literal) => {
                parts.step_one::<_, $a>(stats, addr, kind)
            };
        }
        crate::const_width!(geom.assoc(), kernel).result(&geom)
    }

    #[inline(always)]
    fn access_batch_on<L: Lanes>(&mut self, lanes: L, accesses: &[(Addr, AccessKind)]) {
        let assoc = self.geom.assoc();
        let (mut parts, stats) = self.parts(lanes);
        macro_rules! kernel {
            ($a:literal) => {
                parts.replay::<$a>(stats, accesses)
            };
        }
        crate::const_width!(assoc, kernel)
    }
}

impl CacheModel for SetAssociativeCache {
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
    use crate::direct::DirectMappedCache;

    fn tiny(assoc: usize) -> SetAssociativeCache {
        SetAssociativeCache::new(256, 32, assoc, PolicyKind::Lru, 0).unwrap()
    }

    #[test]
    fn two_way_absorbs_the_paper_thrash_sequence() {
        // Paper Section 2.2: 0,1,8,9 repeated hits in a 2-way cache after
        // the four warm-up misses.
        let mut c = tiny(2);
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
    fn lru_eviction_order() {
        let mut c = tiny(2); // 4 sets
        let line = 32u64;
        let set0 = |tag: u64| Addr::new(tag * 4 * line); // tags in set 0
        c.access(set0(0), AccessKind::Read);
        c.access(set0(1), AccessKind::Read);
        c.access(set0(0), AccessKind::Read); // 1 is now LRU
        let r = c.access(set0(2), AccessKind::Read);
        assert_eq!(r.evicted.unwrap().block, set0(1));
        assert!(c.probe(set0(0)));
        assert!(!c.probe(set0(1)));
    }

    #[test]
    fn assoc_one_matches_direct_mapped() {
        let mut sa = tiny(1);
        let mut dm = DirectMappedCache::new(256, 32).unwrap();
        // Pseudo-random but deterministic probe sequence.
        let mut x = 0x12345678u64;
        for _ in 0..2000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = Addr::new(x % 4096);
            let kind = if x & 1 == 0 {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            let a = sa.access(addr, kind);
            let b = dm.access(addr, kind);
            assert_eq!(a.hit, b.hit, "divergence at {addr}");
            assert_eq!(a.evicted, b.evicted);
        }
        assert_eq!(sa.stats(), dm.stats());
    }

    #[test]
    fn fully_associative_uses_single_set() {
        let c = SetAssociativeCache::fully_associative(16, 32, PolicyKind::Lru, 0).unwrap();
        assert_eq!(c.geometry().sets(), 1);
        assert_eq!(c.geometry().assoc(), 16);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny(2);
        let set0 = |tag: u64| Addr::new(tag * 128);
        c.access(set0(0), AccessKind::Write);
        c.access(set0(1), AccessKind::Read);
        let r = c.access(set0(2), AccessKind::Read);
        let ev = r.evicted.unwrap();
        assert_eq!(ev.block, set0(0));
        assert!(ev.dirty);
        assert_eq!(c.stats().writebacks(), 1);
    }

    #[test]
    fn random_policy_stays_within_bounds() {
        let mut c = SetAssociativeCache::new(256, 32, 4, PolicyKind::Random, 9).unwrap();
        for i in 0..4000u64 {
            c.access(Addr::new(i * 64), AccessKind::Read);
        }
        // 2 sets * 4 ways = 8 lines; all still addressable without panic.
        assert!(c.stats().total().accesses() == 4000);
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
                (Addr::new(((x >> 16) % 512) * 32), kind)
            })
            .collect()
    }

    #[test]
    fn access_batch_is_bit_identical_to_the_loop() {
        for policy in [PolicyKind::Lru, PolicyKind::Random] {
            let mut looped = SetAssociativeCache::new(2048, 32, 4, policy, 99).unwrap();
            let mut batched = SetAssociativeCache::new(2048, 32, 4, policy, 99).unwrap();
            let accesses = fuzz_accesses(5_000, 0);
            for &(addr, kind) in &accesses {
                looped.access(addr, kind);
            }
            batched.access_batch(&accesses);
            assert_eq!(looped.stats(), batched.stats(), "{policy:?}");
            assert_eq!(looped.usage, batched.usage, "{policy:?}");
            assert_eq!(looped.lines, batched.lines, "{policy:?} contents");
            assert_eq!(looped.policy, batched.policy, "{policy:?} replacement");
        }
    }

    /// The paper's set-associative kernels (2-, 4-, 8- and 32-way L1s,
    /// the 256 kB 4-way L2) and a random 4-way array leave the same
    /// statistics, set usage, lines and replacement state on every lane
    /// backend, per access and batched.
    #[test]
    fn every_lane_backend_replays_identically() {
        let shapes = [
            (16 * 1024, 32, 2, PolicyKind::Lru),
            (16 * 1024, 32, 4, PolicyKind::Lru),
            (16 * 1024, 32, 8, PolicyKind::Lru),
            (16 * 1024, 32, 32, PolicyKind::Lru),
            (256 * 1024, 128, 4, PolicyKind::Lru),
            (16 * 1024, 32, 4, PolicyKind::Random),
        ];
        let mut avx2_checked = false;
        for (size, line, ways, policy) in shapes {
            avx2_checked = crate::lane_backends::check(
                &format!("{size} B {ways}-way {policy}"),
                || SetAssociativeCache::new(size, line, ways, policy, 5).unwrap(),
                |c| {
                    let policy = format!("{:?}", c.policy);
                    (c.stats.clone(), c.usage.clone(), c.lines.clone(), policy)
                },
            );
        }
        crate::lane_backends::report(avx2_checked);
    }

    /// Differential hook: every replacement policy must track the
    /// reference oracle (`crate::oracle`) access-by-access.
    #[test]
    fn matches_reference_oracle_for_every_policy() {
        use crate::oracle::OracleCache;
        for policy in [PolicyKind::Lru, PolicyKind::Random] {
            let mut model = SetAssociativeCache::new(2048, 32, 4, policy, 99).unwrap();
            let mut oracle = OracleCache::new(2048, 32, 4, policy, 99, 32);
            let mut x = 0x1357_9BDFu64;
            for i in 0..4000u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let addr = ((x >> 16) % 512) * 32;
                let kind = if x & 4 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let got = model.access(Addr::new(addr), kind);
                let want = oracle.access(Addr::new(addr), kind);
                assert_eq!(want.diff(&got), None, "{policy:?} access {i} at {addr:#x}");
            }
        }
    }
}

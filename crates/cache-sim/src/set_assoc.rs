//! Conventional set-associative caches (2-way … fully associative).

use crate::addr::Addr;
use crate::cam;
use crate::geometry::TagIndexSplit;
use crate::geometry::{CacheGeometry, GeometryError};
use crate::model::{AccessKind, AccessResult, CacheModel, Eviction};
use crate::packed;
use crate::replacement::{make_policy, Lru, PolicyKind, ReplacementPolicy};
use crate::stats::{BatchTally, CacheStats, SetUsage};

/// A set-associative, write-back, write-allocate cache with a pluggable
/// replacement policy.
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
    policy: Box<dyn ReplacementPolicy>,
    stats: CacheStats,
    usage: SetUsage,
}

impl SetAssociativeCache {
    /// Creates a cache of `size_bytes` with `line_bytes` blocks and `assoc`
    /// ways per set.
    ///
    /// `seed` feeds the random replacement policy; other policies ignore
    /// it.
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
            policy: make_policy(policy, sets, ways, seed),
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

    /// Destructures the cache for the shared step: [`Parts`] borrows
    /// the line array and counters disjointly, and the policy comes
    /// back on its own so callers can devirtualize it.
    fn parts(&mut self) -> (Parts<'_>, &mut dyn ReplacementPolicy) {
        let parts = Parts {
            split: self.geom.split(),
            assoc: self.geom.assoc(),
            lines: &mut self.lines,
            usage: &mut self.usage,
            stats: &mut self.stats,
            tally: BatchTally::new(),
        };
        (parts, self.policy.as_mut())
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
/// [`SetAssociativeCache::parts`], with the register tally its steps
/// land their counts in until [`finish`](Self::finish).
struct Parts<'a> {
    split: TagIndexSplit,
    assoc: usize,
    lines: &'a mut [u64],
    usage: &'a mut SetUsage,
    stats: &'a mut CacheStats,
    tally: BatchTally,
}

impl Parts<'_> {
    /// One access. Shared by the per-access path and the batched
    /// kernel, so both are bit-identical by construction — statistics
    /// and replacement state alike.
    ///
    /// Generic over the replacement policy so callers can pass either a
    /// concrete [`Lru`] (updates inlined, no virtual dispatch) or the
    /// `dyn` policy, and over the associativity: `A > 0` monomorphizes
    /// the tag probe into the fused CAM probe — a [`crate::simd`]
    /// compare-mask over whole lane groups, AVX2 when the CPU reports
    /// it, portable otherwise (`A` must equal `assoc`) — while `A == 0`
    /// falls back to a runtime-width probe with identical first-match
    /// semantics. A miss asks the policy for the way to fill
    /// ([`ReplacementPolicy::fill_way`]), so it scans the set once more
    /// at most.
    #[inline(always)]
    fn step_one<P: ReplacementPolicy + ?Sized, const A: usize>(
        &mut self,
        policy: &mut P,
        addr: Addr,
        kind: AccessKind,
    ) -> StepOutcome {
        let assoc = self.assoc;
        debug_assert!(A == 0 || A == assoc, "const width must match the geometry");
        let set = self.split.set_index(addr);
        let tag = self.split.tag(addr);
        let base = set * assoc;
        let ways = &mut self.lines[base..base + assoc];
        if let Some(way) = cam::find_match::<A>(ways, tag) {
            self.tally.record(kind, true);
            self.usage.record(set, true);
            policy.on_access(set, way);
            if kind.is_write() {
                ways[way] = packed::set_dirty(ways[way]);
            }
            return StepOutcome {
                hit: true,
                set,
                evicted: None,
            };
        }
        self.tally.record(kind, false);
        self.usage.record(set, false);
        // The policy picks the first invalid way or the victim in one
        // call (for LRU, one stamp minimum).
        let way = policy.fill_way(set, ways);
        debug_assert!(way < assoc, "policy returned out-of-range way");
        let word = ways[way];
        let evicted = packed::is_valid(word).then(|| {
            let dirty = packed::is_dirty(word);
            self.tally.record_writeback_if(dirty);
            (packed::tag(word), dirty)
        });
        ways[way] = packed::fill(tag, kind.is_write());
        policy.on_fill(set, way);
        StepOutcome {
            hit: false,
            set,
            evicted,
        }
    }

    /// [`step_one`](Self::step_one) over a whole batch, monomorphized
    /// for the common associativities (anything else takes the
    /// runtime-width fallback).
    #[inline(always)]
    fn replay<P: ReplacementPolicy + ?Sized>(
        &mut self,
        policy: &mut P,
        accesses: &[(Addr, AccessKind)],
    ) {
        macro_rules! kernel {
            ($a:literal) => {
                for &(addr, kind) in accesses {
                    self.step_one::<P, $a>(policy, addr, kind);
                }
            };
        }
        match self.assoc {
            1 => kernel!(1),
            2 => kernel!(2),
            4 => kernel!(4),
            8 => kernel!(8),
            16 => kernel!(16),
            32 => kernel!(32),
            _ => kernel!(0),
        }
    }

    /// Lands the tally in the cache's statistics.
    fn finish(self) {
        self.tally.flush(self.stats);
    }
}

impl CacheModel for SetAssociativeCache {
    fn access(&mut self, addr: Addr, kind: AccessKind) -> AccessResult {
        let geom = self.geom;
        let (mut parts, policy) = self.parts();
        let out = parts.step_one::<_, 0>(policy, addr, kind);
        parts.finish();
        out.result(&geom)
    }

    fn access_batch(&mut self, accesses: &[(Addr, AccessKind)]) {
        // LRU — the paper's default — runs the kernel with its stamp
        // updates inlined; other policies take the same kernel through
        // dynamic dispatch. Both paths call `step_one`, so the batch
        // equals the `access` loop by construction.
        let (mut parts, policy) = self.parts();
        if let Some(lru) = policy.as_any_mut().downcast_mut::<Lru>() {
            parts.replay(lru, accesses);
        } else {
            parts.replay(policy, accesses);
        }
        parts.finish();
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
        for policy in [
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Random,
            PolicyKind::TreePlru,
        ] {
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
        }
    }

    /// Differential hook: every replacement policy must track the
    /// reference oracle (`crate::oracle`) access-by-access.
    #[test]
    fn matches_reference_oracle_for_every_policy() {
        use crate::oracle::OracleCache;
        for policy in [
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Random,
            PolicyKind::TreePlru,
        ] {
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

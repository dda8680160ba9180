//! Conventional set-associative caches (2-way … fully associative).

use telemetry::{Event, MissKind, NullObserver, Observer};

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
/// per-access and batched replay are bit-identical — statistics,
/// replacement state, and [`Observer`] events alike. The wrapper models
/// (way-halting, PAM, difference-bit) wrap their own bookkeeping around
/// the same step over this cache's destructured state.
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
pub struct SetAssociativeCache<O: Observer = NullObserver> {
    geom: CacheGeometry,
    // One packed tag|dirty|valid word per line, way-major within each
    // set: slot = set * assoc + way.
    lines: Vec<u64>,
    policy: Box<dyn ReplacementPolicy>,
    stats: CacheStats,
    usage: SetUsage,
    observer: O,
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
        Self::with_observer(size_bytes, line_bytes, assoc, policy, seed, NullObserver)
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
        Self::from_geometry_with_observer(geom, policy, seed, NullObserver)
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
}

impl<O: Observer> SetAssociativeCache<O> {
    /// Like [`SetAssociativeCache::new`], but wiring `observer` into
    /// both access paths. With the default [`NullObserver`] every
    /// emission site compiles out.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] for invalid shapes.
    pub fn with_observer(
        size_bytes: usize,
        line_bytes: usize,
        assoc: usize,
        policy: PolicyKind,
        seed: u64,
        observer: O,
    ) -> Result<Self, GeometryError> {
        Self::from_geometry_with_observer(
            CacheGeometry::new(size_bytes, line_bytes, assoc)?,
            policy,
            seed,
            observer,
        )
    }

    /// Like [`SetAssociativeCache::from_geometry`], with an observer.
    ///
    /// # Errors
    ///
    /// Never fails for a valid geometry; the `Result` mirrors
    /// [`SetAssociativeCache::new`].
    pub fn from_geometry_with_observer(
        geom: CacheGeometry,
        policy: PolicyKind,
        seed: u64,
        observer: O,
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
            observer,
        })
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Mutable access to the attached observer.
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
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

    /// The replacement policy in use.
    pub fn policy_kind(&self) -> PolicyKind {
        self.policy.kind()
    }

    /// Removes the block containing `addr` (if resident) and returns it.
    ///
    /// Used by wrappers to migrate blocks between arrays. Does not touch
    /// hit/miss statistics.
    pub fn extract(&mut self, addr: Addr) -> Option<Eviction> {
        let set = self.geom.set_index(addr);
        let tag = self.geom.tag(addr);
        let way = self.find_way(set, tag)?;
        let s = self.slot(set, way);
        let dirty = packed::is_dirty(self.lines[s]);
        self.lines[s] = packed::EMPTY;
        Some(Eviction {
            block: self.geom.reconstruct(tag, set),
            dirty,
        })
    }

    /// Inserts a block without counting an access, evicting if necessary.
    ///
    /// Returns the displaced block, if any. Wrappers use this for
    /// swap/demote traffic that the paper does not count as references.
    pub fn insert(&mut self, addr: Addr, dirty: bool) -> Option<Eviction> {
        let set = self.geom.set_index(addr);
        let tag = self.geom.tag(addr);
        if let Some(way) = self.find_way(set, tag) {
            // Already resident: refresh recency and merge dirtiness.
            let s = self.slot(set, way);
            if dirty {
                self.lines[s] = packed::set_dirty(self.lines[s]);
            }
            self.policy.on_access(set, way);
            return None;
        }
        let (way, evicted) = self.choose_fill_slot(set);
        let s = self.slot(set, way);
        self.lines[s] = packed::fill(tag, dirty);
        self.policy.on_fill(set, way);
        evicted
    }

    fn choose_fill_slot(&mut self, set: usize) -> (usize, Option<Eviction>) {
        if let Some(way) =
            (0..self.geom.assoc()).find(|&w| !packed::is_valid(self.lines[self.slot(set, w)]))
        {
            return (way, None);
        }
        let way = self.policy.victim(set);
        debug_assert!(way < self.geom.assoc(), "policy returned out-of-range way");
        let s = self.slot(set, way);
        let word = self.lines[s];
        let block = self.geom.reconstruct(packed::tag(word), set);
        let dirty = packed::is_dirty(word);
        if dirty {
            self.stats.record_writeback();
        }
        (way, Some(Eviction { block, dirty }))
    }

    /// The packed line words of `set`, in way order (the difference-bit
    /// decoder reads these outside an access).
    pub(crate) fn set_words(&self, set: usize) -> &[u64] {
        let assoc = self.geom.assoc();
        &self.lines[set * assoc..(set + 1) * assoc]
    }

    /// Destructures the cache for the shared step: [`Parts`] borrows
    /// the line array, counters and observer disjointly, so wrapper
    /// models keep their own state mutable alongside, and the policy
    /// comes back on its own so callers can devirtualize it.
    pub(crate) fn parts(&mut self) -> (Parts<'_, O>, &mut dyn ReplacementPolicy) {
        let parts = Parts {
            split: self.geom.split(),
            assoc: self.geom.assoc(),
            lines: &mut self.lines,
            usage: &mut self.usage,
            observer: &mut self.observer,
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
pub(crate) struct Parts<'a, O> {
    pub(crate) split: TagIndexSplit,
    pub(crate) assoc: usize,
    pub(crate) lines: &'a mut [u64],
    usage: &'a mut SetUsage,
    observer: &'a mut O,
    stats: &'a mut CacheStats,
    tally: BatchTally,
}

impl<O: Observer> Parts<'_, O> {
    /// The packed line words of `set`, in way order.
    #[inline(always)]
    pub(crate) fn set_words(&self, set: usize) -> &[u64] {
        &self.lines[set * self.assoc..(set + 1) * self.assoc]
    }

    /// One access. Shared by the per-access path, the batched kernel,
    /// and the wrapper models' steps, so every path is bit-identical by
    /// construction — statistics, replacement state, and [`Observer`]
    /// events alike.
    ///
    /// Generic over the replacement policy so callers can pass either a
    /// concrete [`Lru`] (updates inlined, no virtual dispatch) or the
    /// `dyn` policy, and over the associativity: `A > 0` monomorphizes
    /// the way scans into the fused CAM probe — a [`crate::simd`]
    /// compare-mask over whole lane groups, AVX2 when the CPU reports
    /// it, portable otherwise (`A` must equal `assoc`) — while `A == 0`
    /// falls back to runtime-width scans with identical first-match
    /// semantics.
    #[inline(always)]
    pub(crate) fn step_one<P: ReplacementPolicy + ?Sized, const A: usize>(
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
            if O::ENABLED {
                self.observer.event(Event::SetTouch {
                    set: set as u64,
                    hit: true,
                });
            }
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
        if O::ENABLED {
            self.observer.event(Event::Miss {
                kind: MissKind::Tag,
            });
        }
        let (way, evicted) = match cam::find_invalid::<A>(ways) {
            Some(w) => (w, None),
            None => {
                let w = policy.victim(set);
                debug_assert!(w < assoc, "policy returned out-of-range way");
                let word = ways[w];
                let dirty = packed::is_dirty(word);
                self.tally.record_writeback_if(dirty);
                if O::ENABLED && dirty {
                    self.observer.event(Event::Writeback { set: set as u64 });
                }
                (w, Some((packed::tag(word), dirty)))
            }
        };
        if O::ENABLED {
            self.observer.event(Event::SetTouch {
                set: set as u64,
                hit: false,
            });
        }
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
    pub(crate) fn finish(self) {
        self.tally.flush(self.stats);
    }
}

impl<O: Observer> CacheModel for SetAssociativeCache<O> {
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
        // equals the `access` loop by construction, events included.
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

    fn label(&self) -> String {
        format!("{}k{}way", self.geom.size_bytes() / 1024, self.geom.assoc())
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
    fn extract_removes_block_silently() {
        let mut c = tiny(2);
        c.access(Addr::new(0x40), AccessKind::Write);
        let accesses_before = c.stats().total().accesses();
        let ev = c.extract(Addr::new(0x40)).unwrap();
        assert_eq!(ev.block, Addr::new(0x40));
        assert!(ev.dirty);
        assert!(!c.probe(Addr::new(0x40)));
        assert_eq!(c.stats().total().accesses(), accesses_before);
        assert!(c.extract(Addr::new(0x40)).is_none());
    }

    #[test]
    fn insert_fills_and_displaces() {
        let mut c = tiny(2);
        assert!(c.insert(Addr::new(0x000), false).is_none());
        assert!(c.insert(Addr::new(0x100), true).is_none());
        // Third block in set 0 displaces the LRU (0x000).
        let ev = c.insert(Addr::new(0x200), false).unwrap();
        assert_eq!(ev.block, Addr::new(0x000));
        assert!(!ev.dirty);
        // Re-inserting a resident block merges dirtiness instead.
        assert!(c.insert(Addr::new(0x100), false).is_none());
        let ev2 = c.extract(Addr::new(0x100)).unwrap();
        assert!(ev2.dirty, "dirtiness must be sticky across insert");
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

    #[test]
    fn label_shows_ways() {
        assert_eq!(
            SetAssociativeCache::new(16 * 1024, 32, 8, PolicyKind::Lru, 0)
                .unwrap()
                .label(),
            "16k8way"
        );
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

    #[test]
    fn observer_sees_identical_events_from_loop_and_batch() {
        use telemetry::EventRing;
        let accesses = fuzz_accesses(5_000, 31);
        let mut looped = SetAssociativeCache::with_observer(
            2048,
            32,
            4,
            PolicyKind::Lru,
            0,
            EventRing::new(64 * 1024),
        )
        .unwrap();
        let mut batched = SetAssociativeCache::with_observer(
            2048,
            32,
            4,
            PolicyKind::Lru,
            0,
            EventRing::new(64 * 1024),
        )
        .unwrap();
        for &(addr, kind) in &accesses {
            looped.access(addr, kind);
        }
        batched.access_batch(&accesses);
        let a: Vec<_> = looped.observer().iter().map(|(_, e)| *e).collect();
        let b: Vec<_> = batched.observer().iter().map(|(_, e)| *e).collect();
        assert!(!a.is_empty(), "the fuzz stream must generate events");
        assert_eq!(a, b, "per-access and batched event sequences diverge");
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

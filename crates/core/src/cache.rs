//! The Balanced Cache functional model.

use cache_sim::replacement::Replacement;
use cache_sim::simd::{self, Lanes};
use cache_sim::{
    packed, AccessKind, AccessResult, Addr, BatchTally, CacheGeometry, CacheModel, CacheStats,
    Eviction, LaneAccess, LaneBatch, LaneModel, PdStats, SetUsage, Tally,
};
use telemetry::{Event, MissKind, NullObserver, Observer};

use crate::decoder::ProgrammableDecoder;
use crate::params::{BCacheParams, IndexLayout, PdHitPolicy};

/// The Balanced Cache (B-Cache): a direct-mapped cache whose index is
/// lengthened by `log2(MF) + log2(BAS) - log2(BAS) = log2(MF)` tag bits
/// and decoded partly by programmable CAM decoders.
///
/// Behaviour on an access (paper Section 2.3):
///
/// 1. the NPI selects a group of `BAS` candidate sets; the PDs of the
///    group compare their stored PI against the address's PI;
/// 2. **PD hit + tag hit** → a one-cycle cache hit (only one set ever
///    activates, as in a plain direct-mapped cache);
/// 3. **PD hit + tag miss** → a miss whose victim is *forced* to the
///    matching set (evicting any other set would break unique decoding);
/// 4. **PD miss** → a predetermined miss (no tag/data read); the victim
///    is chosen among the `BAS` candidates by the replacement policy and
///    its PD entry is reprogrammed with the new PI.
///
/// # Examples
///
/// ```
/// use bcache_core::{BCacheParams, BalancedCache};
/// use cache_sim::{AccessKind, CacheGeometry, CacheModel};
///
/// let geom = CacheGeometry::new(16 * 1024, 32, 1)?;
/// let mut bc = BalancedCache::new(BCacheParams::paper_default(geom)?);
/// bc.access(0x0u64.into(), AccessKind::Read);
/// assert!(bc.access(0x1fu64.into(), AccessKind::Read).hit);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct BalancedCache<O: Observer = NullObserver> {
    params: BCacheParams,
    layout: IndexLayout,
    pd: ProgrammableDecoder,
    // Per (group, way): one [`packed`] word holding the full block
    // identifier (addr >> offset_bits) in the tag field plus the
    // dirty/valid flags.
    lines: Vec<u64>,
    policy: Replacement,
    stats: CacheStats,
    usage: SetUsage,
    pd_stats: PdStats,
    observer: O,
}

impl BalancedCache {
    /// Creates a cold B-Cache.
    pub fn new(params: BCacheParams) -> Self {
        Self::with_observer(params, NullObserver)
    }
}

impl<O: Observer> BalancedCache<O> {
    /// Creates a cold B-Cache that emits [`Event`]s to `observer`.
    pub fn with_observer(params: BCacheParams, observer: O) -> Self {
        let layout = params.layout();
        let groups = layout.groups();
        let bas = params.bas();
        let g = params.geometry();
        assert!(
            g.addr_bits() - g.offset_bits() <= packed::MAX_TAG_BITS,
            "block id of {g} does not fit a packed line word"
        );
        BalancedCache {
            params,
            layout,
            pd: ProgrammableDecoder::new(&layout, bas),
            lines: vec![packed::EMPTY; groups * bas],
            policy: Replacement::new(params.policy(), groups, bas, params.seed()),
            stats: CacheStats::new(),
            usage: SetUsage::new(groups * bas),
            pd_stats: PdStats::default(),
            observer,
        }
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// The attached observer, mutably.
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// The configuration.
    pub fn params(&self) -> &BCacheParams {
        &self.params
    }

    /// The derived index layout.
    pub fn layout(&self) -> &IndexLayout {
        &self.layout
    }

    /// Programmable-decoder statistics.
    pub fn pd_stats(&self) -> PdStats {
        self.pd_stats
    }

    /// The decoder state (read-only; used by tests and diagnostics).
    pub fn decoder(&self) -> &ProgrammableDecoder {
        &self.pd
    }

    fn block_id(&self, addr: Addr) -> u64 {
        addr.raw() >> self.params.geometry().offset_bits()
    }

    fn block_addr(&self, id: u64) -> Addr {
        Addr::new(id << self.params.geometry().offset_bits())
    }

    fn slot(&self, group: usize, way: usize) -> usize {
        group * self.params.bas() + way
    }

    /// Returns `true` if the block containing `addr` is resident, without
    /// touching statistics or replacement state.
    pub fn probe(&self, addr: Addr) -> bool {
        let group = self.layout.npi(addr);
        let pi = self.layout.pi(addr);
        self.pd.probe_any(group, pi).0.is_some_and(|way| {
            packed::matches(self.lines[self.slot(group, way)], self.block_id(addr))
        })
    }

    /// Destructures the cache for the shared step on `lanes`; the
    /// counters come back on their own, so a batch can count in tallies
    /// before it lands in them.
    fn parts<L: Lanes>(&mut self, lanes: L) -> (Parts<'_, O, L>, &mut CacheStats, &mut PdStats) {
        let parts = Parts {
            lanes,
            layout: &self.layout,
            offset_bits: self.params.geometry().offset_bits(),
            pd_hit_policy: self.params.pd_hit_policy(),
            pd: &mut self.pd,
            lines: &mut self.lines,
            policy: &mut self.policy,
            usage: &mut self.usage,
            observer: &mut self.observer,
        };
        (parts, &mut self.stats, &mut self.pd_stats)
    }

    /// Checks every internal invariant; linear in the cache size.
    ///
    /// * unique decoding within every group;
    /// * a valid PD entry if and only if a valid block, and the stored
    ///   block's PI/NPI fields agree with its slot.
    pub fn invariants_hold(&self) -> bool {
        if !self.pd.invariant_holds() {
            return false;
        }
        (0..self.layout.groups()).all(|g| {
            (0..self.params.bas()).all(|w| {
                let word = self.lines[self.slot(g, w)];
                match (self.pd.entry(g, w), packed::is_valid(word)) {
                    (None, false) => true,
                    (Some(pi), true) => {
                        let block = self.block_addr(packed::tag(word));
                        self.layout.npi(block) == g && self.layout.pi(block) == pi
                    }
                    _ => false,
                }
            })
        })
    }
}

/// What [`Parts::step`] did: whether the access hit and, on a miss, the
/// block the fill displaced as a raw `(block id, dirty)` pair, so the
/// batched loop pays nothing for rebuilding its address.
struct StepOutcome {
    hit: bool,
    evicted: Option<(u64, bool)>,
}

/// A B-Cache destructured by [`BalancedCache::parts`]: disjoint borrows
/// of the decoders, line array, replacement state, set usage and
/// observer, with the lane backend its probes run on.
struct Parts<'a, O, L> {
    lanes: L,
    layout: &'a IndexLayout,
    offset_bits: u32,
    pd_hit_policy: PdHitPolicy,
    pd: &'a mut ProgrammableDecoder,
    lines: &'a mut [u64],
    policy: &'a mut Replacement,
    usage: &'a mut SetUsage,
    observer: &'a mut O,
}

impl<O: Observer, L: Lanes> Parts<'_, O, L> {
    /// Tallies the eviction of the line `word` from physical set `set`,
    /// if it holds a block, and reports it as a raw `(block id, dirty)`
    /// pair.
    #[inline(always)]
    fn evict<T: Tally>(&mut self, tally: &mut T, word: u64, set: usize) -> Option<(u64, bool)> {
        if !packed::is_valid(word) {
            return None;
        }
        let dirty = packed::is_dirty(word);
        tally.record_writeback_if(dirty);
        if O::ENABLED && dirty {
            self.observer.event(Event::Writeback { set: set as u64 });
        }
        Some((packed::tag(word), dirty))
    }

    /// One access (paper Section 2.3): probe the group's PD CAM, compare
    /// the matching way's tag, and on a miss take the forced or the
    /// policy-chosen victim. Shared by [`BalancedCache::access`] and the
    /// batched kernel, so both agree by construction — statistics, PD
    /// state and [`Observer`] events alike.
    ///
    /// Generic over the CAM width: `BAS > 0` unrolls the fused
    /// [`ProgrammableDecoder::probe`] into straight-line compares (`BAS`
    /// must equal the decoder's width), `BAS == 0` takes its
    /// runtime-width probe. The counts land in `tally` and `pd_tally`.
    #[inline(always)]
    fn step<T: Tally, const BAS: usize>(
        &mut self,
        (tally, pd_tally): (&mut T, &mut PdStats),
        addr: Addr,
        kind: AccessKind,
    ) -> StepOutcome {
        let bas = if BAS == 0 { self.pd.bas() } else { BAS };
        let layout = self.layout;
        let offset_bits = self.offset_bits;
        let groups = layout.groups();
        let group = layout.npi(addr);
        let pi = layout.pi(addr);
        let id = addr.raw() >> offset_bits;
        let block = |id: u64| Addr::new(id << offset_bits);
        // Physical set numbers are cluster-major, mirroring the paper's
        // Figure 2 (cluster `way` spans all groups).
        let physical = |way: usize| way * groups + group;
        let (matched, cold) = self.pd.probe::<L, BAS>(self.lanes, group, pi);
        let (way, evicted) = match matched {
            Some(way) => {
                let set = physical(way);
                let s = group * bas + way;
                let word = self.lines[s];
                debug_assert!(packed::is_valid(word), "PD entry valid but block invalid");
                debug_assert_eq!(
                    layout.pi(block(packed::tag(word))),
                    pi,
                    "PD match disagrees with the resident block's PI"
                );
                debug_assert_eq!(
                    layout.npi(block(packed::tag(word))),
                    group,
                    "resident block belongs to a different NPI group"
                );
                let hit = packed::matches(word, id);
                tally.record(kind, hit);
                self.usage.record(set, hit);
                if hit {
                    // PD hit + tag hit: a plain one-cycle hit.
                    if O::ENABLED {
                        self.observer.event(Event::SetTouch {
                            set: set as u64,
                            hit,
                        });
                    }
                    self.policy.touch(group, way);
                    if kind.is_write() {
                        self.lines[s] = packed::set_dirty(word);
                    }
                    return StepOutcome { hit, evicted: None };
                }
                // PD hit + tag miss: the victim is forced to this set;
                // choosing any other would leave two identical PIs in
                // the group (paper Section 2.3, address-25 case).
                pd_tally.misses_with_pd_hit += 1;
                if O::ENABLED {
                    self.observer.event(Event::Miss {
                        kind: MissKind::PdForced,
                    });
                }
                let forced = self.evict(tally, word, set);
                if O::ENABLED {
                    self.observer.event(Event::SetTouch {
                        set: set as u64,
                        hit,
                    });
                }
                match self.pd_hit_policy {
                    // The PD entry already holds this PI.
                    PdHitPolicy::ForcedVictim => (way, forced),
                    PdHitPolicy::EvictBoth => {
                        // Ablation: let the policy pick anyway. If it
                        // picks another way, the matching way is lost
                        // as well (unique decoding) — the cost the paper
                        // avoids. Only the policy victim's eviction
                        // propagates; the collateral one is counted in
                        // the stats.
                        let victim = self.policy.victim_on(self.lanes, group);
                        let evicted = if victim == way {
                            forced
                        } else {
                            self.lines[s] = packed::EMPTY;
                            self.pd.invalidate(group, way);
                            let word = self.lines[group * bas + victim];
                            self.evict(tally, word, physical(victim))
                        };
                        if O::ENABLED {
                            self.observer.event(Event::PdReprogram {
                                subarray: group as u64,
                                pi_old: self.pd.entry(group, victim),
                                pi_new: pi,
                            });
                        }
                        self.pd.program(group, victim, pi);
                        (victim, evicted)
                    }
                }
            }
            None => {
                // PD miss: the miss is predetermined before any tag/data
                // read. The victim comes from the replacement policy,
                // fully exploiting the BAS candidate sets.
                tally.record(kind, false);
                pd_tally.misses_with_pd_miss += 1;
                let way = match cold {
                    Some(w) => w,
                    None => self.policy.victim_on(self.lanes, group),
                };
                let set = physical(way);
                self.usage.record(set, false);
                if O::ENABLED {
                    self.observer.event(Event::Miss {
                        kind: MissKind::Predetermined,
                    });
                }
                let word = self.lines[group * bas + way];
                let evicted = self.evict(tally, word, set);
                if O::ENABLED {
                    self.observer.event(Event::BasVictim {
                        candidates: bas as u32,
                        chosen: way as u32,
                    });
                    self.observer.event(Event::PdReprogram {
                        subarray: group as u64,
                        pi_old: self.pd.entry(group, way),
                        pi_new: pi,
                    });
                    self.observer.event(Event::SetTouch {
                        set: set as u64,
                        hit: false,
                    });
                }
                self.pd.program(group, way, pi);
                (way, evicted)
            }
        };
        // Every fill happens after the PD entry is in place, so the
        // filled block must decode back to exactly this slot.
        debug_assert_eq!(
            layout.npi(block(id)),
            group,
            "filled block belongs to a different NPI group"
        );
        debug_assert_eq!(
            self.pd.entry(group, way),
            Some(layout.pi(block(id))),
            "filled block is not decodable by its PD entry"
        );
        self.lines[group * bas + way] = packed::fill(id, kind.is_write());
        self.policy.touch(group, way);
        StepOutcome {
            hit: false,
            evicted,
        }
    }

    /// [`step`](Self::step) over a whole batch, counting in
    /// register tallies that land in the cache's statistics once.
    #[inline(always)]
    fn replay<const BAS: usize>(
        &mut self,
        (stats, pd_stats): (&mut CacheStats, &mut PdStats),
        accesses: &[(Addr, AccessKind)],
    ) {
        let mut tally = BatchTally::new();
        let mut pd_tally = PdStats::default();
        for &(addr, kind) in accesses {
            self.step::<_, BAS>((&mut tally, &mut pd_tally), addr, kind);
        }
        tally.flush(stats);
        pd_stats.misses_with_pd_hit += pd_tally.misses_with_pd_hit;
        pd_stats.misses_with_pd_miss += pd_tally.misses_with_pd_miss;
    }
}

impl<O: Observer> LaneModel for BalancedCache<O> {
    // Both paths run `step` at the decoder's const width (a BAS outside
    // the paper's powers of two takes the runtime-width probe). One
    // access counts in the statistics directly.

    #[inline(always)]
    fn access_on<L: Lanes>(&mut self, lanes: L, addr: Addr, kind: AccessKind) -> AccessResult {
        let bas = self.pd.bas();
        let (mut parts, stats, pd_stats) = self.parts(lanes);
        let counts = (stats, pd_stats);
        macro_rules! kernel {
            ($w:literal) => {
                parts.step::<_, $w>(counts, addr, kind)
            };
        }
        let out = cache_sim::const_width!(bas, kernel);
        if out.hit {
            AccessResult::hit()
        } else {
            AccessResult::miss(out.evicted.map(|(id, dirty)| Eviction {
                block: self.block_addr(id),
                dirty,
            }))
        }
    }

    #[inline(always)]
    fn access_batch_on<L: Lanes>(&mut self, lanes: L, accesses: &[(Addr, AccessKind)]) {
        let bas = self.pd.bas();
        let (mut parts, stats, pd_stats) = self.parts(lanes);
        let counts = (stats, pd_stats);
        macro_rules! kernel {
            ($w:literal) => {
                parts.replay::<$w>(counts, accesses)
            };
        }
        cache_sim::const_width!(bas, kernel)
    }
}

impl<O: Observer> CacheModel for BalancedCache<O> {
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
        self.pd_stats = PdStats::default();
    }

    fn geometry(&self) -> CacheGeometry {
        self.params.geometry()
    }

    fn set_usage(&self) -> &SetUsage {
        &self.usage
    }

    fn decoder_stats(&self) -> Option<PdStats> {
        Some(self.pd_stats)
    }
}

impl<O: Observer> std::fmt::Debug for BalancedCache<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BalancedCache")
            .field("params", &self.params)
            .field("pd_stats", &self.pd_stats)
            .field("stats", &self.stats)
            .field("observer", &self.observer)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{DirectMappedCache, PolicyKind, SetAssociativeCache};

    fn geom_16k() -> CacheGeometry {
        CacheGeometry::new(16 * 1024, 32, 1).unwrap()
    }

    fn paper_bcache() -> BalancedCache {
        BalancedCache::new(BCacheParams::paper_default(geom_16k()).unwrap())
    }

    /// The Figure 1(c) worked example: 8 sets, addresses 0,1,8,9 (block
    /// granularity) behave like a 2-way cache once warm.
    fn figure1_bcache() -> BalancedCache {
        let g = CacheGeometry::with_addr_bits(256, 32, 1, 13).unwrap();
        BalancedCache::new(BCacheParams::new(g, 2, 2, PolicyKind::Lru).unwrap())
    }

    #[test]
    fn figure1_sequence_hits_like_two_way() {
        let mut bc = figure1_bcache();
        let line = 32u64;
        for block in [0u64, 1, 8, 9] {
            assert!(!bc.access(Addr::new(block * line), AccessKind::Read).hit);
        }
        for _ in 0..4 {
            for block in [0u64, 1, 8, 9] {
                assert!(bc.access(Addr::new(block * line), AccessKind::Read).hit);
            }
        }
        assert_eq!(
            bc.stats().total().misses(),
            4,
            "only the warm-up misses remain"
        );
        assert!(bc.invariants_hold());
    }

    #[test]
    fn same_sequence_thrashes_direct_mapped() {
        let mut dm = DirectMappedCache::new(256, 32).unwrap();
        for _ in 0..5 {
            for block in [0u64, 1, 8, 9] {
                assert!(!dm.access(Addr::new(block * 32), AccessKind::Read).hit);
            }
        }
    }

    #[test]
    fn pd_hit_forces_victim() {
        // Figure 1(c)'s address-25 case: an address whose PI matches a
        // programmed entry must replace exactly that set's block.
        let mut bc = figure1_bcache();
        for block in [0u64, 1, 8, 9] {
            bc.access(Addr::new(block * 32), AccessKind::Read);
        }
        // Address block 25 = 0b11001: NPI = 01, PI = 10 — same PI as
        // block 9 (0b01001 -> PI bits (3,4) = 01? see layout); compute
        // directly instead of hard-coding.
        let victim_block = 9u64;
        let l = *bc.layout();
        let candidate = (0..64u64)
            .map(|b| Addr::new(b * 32))
            .find(|&a| {
                let v = Addr::new(victim_block * 32);
                l.npi(a) == l.npi(v) && l.pi(a) == l.pi(v) && bc.block_id(a) != bc.block_id(v)
            })
            .expect("a conflicting address exists");
        let r = bc.access(candidate, AccessKind::Read);
        assert!(!r.hit);
        assert_eq!(r.evicted.unwrap().block, Addr::new(victim_block * 32));
        assert_eq!(bc.pd_stats().misses_with_pd_hit, 1);
        assert!(bc.invariants_hold());
    }

    #[test]
    fn pd_miss_uses_replacement_policy() {
        let mut bc = figure1_bcache();
        for block in [0u64, 1, 8, 9] {
            bc.access(Addr::new(block * 32), AccessKind::Read);
        }
        // Find an address with a fresh PI in group 1: PD miss; the LRU
        // candidate in the group must be evicted.
        let l = *bc.layout();
        let g1_resident = Addr::new(32);
        let fresh = (0..512u64)
            .map(|b| Addr::new(b * 32))
            .find(|&a| {
                l.npi(a) == l.npi(g1_resident) && bc.pd.probe_any(l.npi(a), l.pi(a)).0.is_none()
            })
            .expect("a PD-missing address exists");
        let r = bc.access(fresh, AccessKind::Read);
        assert!(!r.hit);
        assert_eq!(bc.pd_stats().misses_with_pd_miss, 5); // 4 cold + this
                                                          // LRU in group of NPI(1): block 1 was touched before block 9.
        assert_eq!(r.evicted.unwrap().block, Addr::new(32));
        assert!(bc.invariants_hold());
    }

    #[test]
    fn mf1_bas1_equals_direct_mapped() {
        let params = BCacheParams::new(geom_16k(), 1, 1, PolicyKind::Lru).unwrap();
        let mut bc = BalancedCache::new(params);
        let mut dm = DirectMappedCache::new(16 * 1024, 32).unwrap();
        let mut x = 0xABCD_1234u64;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = Addr::new((x >> 16) & 0xF_FFFF);
            let kind = if x & 3 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let a = bc.access(addr, kind);
            let b = dm.access(addr, kind);
            assert_eq!(a.hit, b.hit, "divergence at {addr}");
        }
        assert_eq!(bc.stats().total().misses(), dm.stats().total().misses());
        assert!(bc.invariants_hold());
    }

    #[test]
    fn full_pi_equals_set_associative() {
        // When the PI covers the entire tag, a PD hit implies a tag hit,
        // so the replacement policy always chooses the victim: the
        // B-Cache *is* a BAS-way set-associative cache indexed by NPI.
        let g = CacheGeometry::with_addr_bits(1024, 32, 1, 16).unwrap();
        // tag_bits = 16 - 5 - 5 = 6; MF = 2^6 consumes the whole tag.
        let params = BCacheParams::new(g, 1 << 6, 4, PolicyKind::Lru).unwrap();
        let mut bc = BalancedCache::new(params);
        let sa_geom = CacheGeometry::with_addr_bits(1024, 32, 4, 16).unwrap();
        let mut sa = SetAssociativeCache::from_geometry(sa_geom, PolicyKind::Lru, 0).unwrap();
        let mut x = 99u64;
        for _ in 0..30_000 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let addr = Addr::new((x >> 20) & 0xFFFF);
            let kind = if x & 7 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let a = bc.access(addr, kind);
            let b = sa.access(addr, kind);
            assert_eq!(a.hit, b.hit, "divergence at {addr}");
        }
        assert_eq!(bc.stats().total().misses(), sa.stats().total().misses());
        assert_eq!(
            bc.pd_stats().misses_with_pd_hit,
            0,
            "full-PI PD hits imply tag hits"
        );
        assert!(bc.invariants_hold());
    }

    #[test]
    fn paper_bcache_beats_dm_on_conflict_heavy_traffic() {
        let mut bc = paper_bcache();
        let mut dm = DirectMappedCache::new(16 * 1024, 32).unwrap();
        // Four arrays spaced by the cache size: guaranteed DM conflicts.
        for _ in 0..200 {
            for k in 0..4u64 {
                for blk in 0..16u64 {
                    let a = Addr::new(k * 16 * 1024 + blk * 32);
                    bc.access(a, AccessKind::Read);
                    dm.access(a, AccessKind::Read);
                }
            }
        }
        let bm = bc.stats().total().misses();
        let dmm = dm.stats().total().misses();
        assert!(bm * 10 < dmm, "B-Cache {bm} misses vs DM {dmm}");
        assert!(bc.invariants_hold());
    }

    #[test]
    fn write_dirtiness_round_trips() {
        let mut bc = paper_bcache();
        bc.access(Addr::new(0x40), AccessKind::Write);
        // Evict it via BAS conflicting fills with the same PI and NPI:
        // the same block address plus multiples of 2^(5+9+3)=2^17 shares
        // PI and NPI, forcing PD-hit evictions.
        let r = bc.access(Addr::new(0x40 + (1 << 17)), AccessKind::Read);
        let ev = r.evicted.expect("PD-hit miss must evict the forced victim");
        assert_eq!(ev.block, Addr::new(0x40));
        assert!(ev.dirty);
        assert_eq!(bc.stats().writebacks(), 1);
        assert_eq!(bc.pd_stats().misses_with_pd_hit, 1);
    }

    #[test]
    fn usage_covers_physical_sets() {
        let mut bc = paper_bcache();
        for blk in 0..2048u64 {
            bc.access(Addr::new(blk * 32), AccessKind::Read);
        }
        let usage = bc.set_usage();
        assert_eq!(usage.sets(), 512);
        let total: u64 = (0..512).map(|s| usage.accesses(s)).sum();
        assert_eq!(total, 2048);
    }

    #[test]
    fn reset_stats_preserves_contents() {
        let mut bc = paper_bcache();
        bc.access(Addr::new(0x1000), AccessKind::Read);
        bc.reset_stats();
        assert_eq!(bc.stats().total().accesses(), 0);
        assert_eq!(bc.pd_stats(), PdStats::default());
        assert!(bc.access(Addr::new(0x1000), AccessKind::Read).hit);
    }

    #[test]
    fn evict_both_ablation_is_worse_and_keeps_invariants() {
        use crate::params::PdHitPolicy;
        // Far-spaced conflicts (same PI) stress the PD-hit path.
        let run = |policy: PdHitPolicy| {
            let params = BCacheParams::paper_default(geom_16k())
                .unwrap()
                .with_pd_hit_policy(policy);
            let mut bc = BalancedCache::new(params);
            let mut misses = 0u64;
            for _round in 0..100u64 {
                // Seven resident blocks with distinct PIs fill group 0…
                for k in 1..8u64 {
                    if !bc.access(Addr::new(k << 14), AccessKind::Read).hit {
                        misses += 1;
                    }
                }
                // …plus a pair sharing PI 0 (spaced 2^19) that thrashes
                // the eighth way. Under ForcedVictim the pair only hurts
                // itself; under EvictBoth its misses collaterally evict
                // the LRU resident block as well.
                for base in [0u64, 1 << 19] {
                    if !bc.access(Addr::new(base), AccessKind::Read).hit {
                        misses += 1;
                    }
                }
            }
            assert!(bc.invariants_hold(), "{policy:?}");
            misses
        };
        let forced = run(PdHitPolicy::ForcedVictim);
        let both = run(PdHitPolicy::EvictBoth);
        assert!(
            both > forced + 50,
            "evicting two blocks per PD-hit miss must hurt: forced {forced} vs both {both}"
        );
    }

    #[test]
    fn high_tag_bits_unlock_far_conflicts() {
        use crate::params::PiTagBits;
        // Two streams spaced 2^30 share the LOW tag bits (PD-hit thrash
        // under the paper's layout) but differ in the HIGH ones.
        let run = |bits: PiTagBits| {
            let params = BCacheParams::paper_default(geom_16k())
                .unwrap()
                .with_pi_tag_bits(bits);
            let mut bc = BalancedCache::new(params);
            let mut misses = 0u64;
            for round in 0..200u64 {
                for base in [0u64, 1 << 30] {
                    if !bc
                        .access(Addr::new(base + (round % 4) * 32), AccessKind::Read)
                        .hit
                    {
                        misses += 1;
                    }
                }
            }
            assert!(bc.invariants_hold());
            misses
        };
        let low = run(PiTagBits::Low);
        let high = run(PiTagBits::High);
        assert!(
            high < low / 4,
            "high tag bits should fix 2^28-spaced conflicts: {high} vs {low}"
        );
    }

    #[test]
    fn probe_is_side_effect_free() {
        let mut bc = paper_bcache();
        bc.access(Addr::new(0x2000), AccessKind::Read);
        assert!(bc.probe(Addr::new(0x2010)));
        assert!(!bc.probe(Addr::new(0x8000)));
        assert_eq!(bc.stats().total().accesses(), 1);
    }

    #[test]
    fn access_batch_is_bit_identical_to_the_loop() {
        for (mf, bas, policy) in [
            (8usize, 8usize, PolicyKind::Lru),
            (4, 4, PolicyKind::Random),
            (2, 8, PolicyKind::Lru),
            (8, 2, PolicyKind::Random),
        ] {
            let params = BCacheParams::new(geom_16k(), mf, bas, policy)
                .unwrap()
                .with_seed(7);
            let mut looped = BalancedCache::new(params);
            let mut batched = BalancedCache::new(params);
            let mut x = 0x6A09_E667u64;
            let accesses: Vec<(Addr, AccessKind)> = (0..8_000)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let kind = if x & 4 == 0 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    (Addr::new((x >> 16) & 0xF_FFFF), kind)
                })
                .collect();
            for &(addr, kind) in &accesses {
                looped.access(addr, kind);
            }
            batched.access_batch(&accesses);
            assert_eq!(
                looped.stats(),
                batched.stats(),
                "MF{mf} BAS{bas} {policy:?}"
            );
            assert_eq!(looped.pd_stats(), batched.pd_stats(), "MF{mf} BAS{bas}");
            assert_eq!(looped.usage, batched.usage, "MF{mf} BAS{bas}");
            assert_eq!(looped.lines, batched.lines, "MF{mf} BAS{bas} contents");
            assert_eq!(looped.pd, batched.pd, "MF{mf} BAS{bas} decoders");
            assert!(batched.invariants_hold());
        }
    }

    #[test]
    fn observer_sees_identical_events_from_loop_and_batch() {
        use telemetry::EventRing;
        for (mf, bas) in [(8usize, 8usize), (4, 4), (8, 2)] {
            let params = BCacheParams::new(geom_16k(), mf, bas, PolicyKind::Lru)
                .unwrap()
                .with_seed(3);
            let mut looped = BalancedCache::with_observer(params, EventRing::new(256 * 1024));
            let mut batched = BalancedCache::with_observer(params, EventRing::new(256 * 1024));
            let mut x = 0xB7E1_5162u64;
            let accesses: Vec<(Addr, AccessKind)> = (0..6_000)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let kind = if x & 4 == 0 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    (Addr::new((x >> 16) & 0xF_FFFF), kind)
                })
                .collect();
            for &(addr, kind) in &accesses {
                looped.access(addr, kind);
            }
            batched.access_batch(&accesses);
            assert_eq!(looped.stats(), batched.stats(), "MF{mf} BAS{bas}");
            let a: Vec<_> = looped.observer().iter().collect();
            let b: Vec<_> = batched.observer().iter().collect();
            assert_eq!(a, b, "MF{mf} BAS{bas} event sequences must be identical");
            assert_eq!(looped.observer().dropped(), 0, "ring sized for the run");
        }
    }

    #[test]
    fn observer_event_counts_agree_with_pd_stats() {
        use telemetry::EventCounts;
        let params = BCacheParams::paper_default(geom_16k()).unwrap();
        let mut bc = BalancedCache::with_observer(params, EventCounts::new());
        let mut x = 0xC90F_DAA2u64;
        for _ in 0..30_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            bc.access(Addr::new((x >> 16) & 0xF_FFFF), AccessKind::Read);
        }
        let counts = *bc.observer();
        let pd = bc.pd_stats();
        assert_eq!(counts.pd_forced_misses, pd.misses_with_pd_hit);
        assert_eq!(counts.predetermined_misses, pd.misses_with_pd_miss);
        assert_eq!(counts.total_misses(), bc.stats().total().misses());
        // Every predetermined miss selects a BAS victim and reprograms
        // exactly one PD entry.
        assert_eq!(counts.bas_victims, pd.misses_with_pd_miss);
        assert_eq!(counts.pd_reprograms, pd.misses_with_pd_miss);
        assert_eq!(counts.set_hits, bc.stats().total().hits());
        assert_eq!(counts.set_misses, bc.stats().total().misses());
        assert!(bc.invariants_hold());
    }

    /// Differential hook against the symbolic-PD oracle in
    /// `cache_sim::oracle`: the oracle recomputes the BAS candidate set
    /// from first principles per access, so any drift in PD programming,
    /// forced-victim handling or policy routing shows up immediately.
    /// `harness::fuzz` runs the same comparison on random configurations.
    #[test]
    fn matches_symbolic_pd_oracle() {
        use cache_sim::oracle::BCacheOracle;
        for (mf, mf_bits, bas, policy) in [
            (4usize, 2u32, 4usize, PolicyKind::Lru),
            (8, 3, 2, PolicyKind::Random),
            (2, 1, 8, PolicyKind::Lru),
        ] {
            let geom = CacheGeometry::with_addr_bits(1024, 32, 1, 16).unwrap();
            let params = BCacheParams::new(geom, mf, bas, policy)
                .unwrap()
                .with_seed(11);
            let layout = params.layout();
            let mut model = BalancedCache::new(params);
            let mut oracle = BCacheOracle::new(
                32,
                16,
                layout.npi_bits(),
                layout.pi_bits(),
                mf_bits,
                false,
                (policy, 11),
            );
            let mut x = 0x5A5A_1234u64;
            for i in 0..6000u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let addr = ((x >> 16) % 2048) * 32;
                let kind = if x & 4 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let got = model.access(Addr::new(addr), kind);
                let want = oracle.access(Addr::new(addr), kind);
                assert_eq!(
                    want.diff(&got),
                    None,
                    "MF{mf} BAS{bas} {policy:?} access {i} at {addr:#x}"
                );
            }
            assert_eq!(oracle.pd_hit_misses(), model.pd_stats().misses_with_pd_hit);
            assert_eq!(
                oracle.pd_miss_misses(),
                model.pd_stats().misses_with_pd_miss
            );
            assert!(model.invariants_hold());
        }
    }

    /// The data side of `profile`'s first records: 6,000 accesses at
    /// most, enough to fill, evict and reprogram every configuration.
    fn data_side(profile: &trace_gen::BenchmarkProfile) -> Vec<(Addr, AccessKind)> {
        let records = trace_gen::Trace::new(profile, 1).take_buffer(24_000);
        let accesses = records.iter().filter_map(|r| match r.op {
            trace_gen::Op::Load(a) => Some((Addr::new(a), AccessKind::Read)),
            trace_gen::Op::Store(a) => Some((Addr::new(a), AccessKind::Write)),
            _ => None,
        });
        accesses.take(6_000).collect()
    }

    /// Replays `stream` on `lanes`, one access per frame or in batches
    /// of uneven length; returns the per-access results (empty when
    /// batched).
    fn replay_on<L: Lanes>(
        lanes: L,
        bc: &mut BalancedCache,
        stream: &[(Addr, AccessKind)],
        batched: bool,
    ) -> Vec<AccessResult> {
        if batched {
            for batch in stream.chunks(993) {
                lanes.run(LaneBatch(bc, batch));
            }
            return Vec::new();
        }
        let one = |&(addr, kind): &(Addr, AccessKind)| lanes.run(LaneAccess(&mut *bc, addr, kind));
        stream.iter().map(one).collect()
    }

    /// Every B-Cache point of Figure 3 and Table 5 (MF 2–512 × BAS
    /// 4/8/16, LRU) and the random-replacement design point, under both
    /// PD-hit policies, leaves the same statistics, set usage, PD
    /// counters, lines, PD entries and replacement state on every lane
    /// backend, per access and batched, over a uniform stream, the
    /// birthday adversary and a SPEC data side.
    #[test]
    fn every_lane_backend_replays_identically() {
        use cache_sim::simd::Portable;
        use trace_gen::{profiles, synthetic};
        let streams = [
            ("uniform64k", data_side(&synthetic::uniform64k())),
            ("birthday32", data_side(&synthetic::birthday(32))),
            ("mcf", data_side(&profiles::by_name("mcf").unwrap())),
        ];
        let state = |bc: &mut BalancedCache| {
            let policy = format!("{:?}", bc.policy);
            let counts = (bc.stats.clone(), bc.usage.clone(), bc.pd_stats);
            (counts, bc.lines.clone(), bc.pd.clone(), policy)
        };
        let mut avx2_checked = false;
        let lru_points = (1..=9).flat_map(|k| [4usize, 8, 16].map(|bas| (1usize << k, bas)));
        let points = lru_points
            .map(|(mf, bas)| (mf, bas, PolicyKind::Lru))
            .chain([(8, 8, PolicyKind::Random)]);
        for (mf, bas, policy) in points {
            for pd_hit in [PdHitPolicy::ForcedVictim, PdHitPolicy::EvictBoth] {
                let params = BCacheParams::new(geom_16k(), mf, bas, policy)
                    .unwrap()
                    .with_pd_hit_policy(pd_hit);
                for (name, stream) in &streams {
                    let at = format!("MF{mf} BAS{bas} {policy} {pd_hit:?} {name}");
                    let mut reference = BalancedCache::new(params);
                    let results = replay_on(Portable, &mut reference, stream, false);
                    let want = state(&mut reference);
                    let mut batched = BalancedCache::new(params);
                    replay_on(Portable, &mut batched, stream, true);
                    assert_eq!(state(&mut batched), want, "{at}: portable batch");
                    #[cfg(target_arch = "x86_64")]
                    if let Some(lanes) = cache_sim::simd::Avx2::new() {
                        let mut bc = BalancedCache::new(params);
                        let got = replay_on(lanes, &mut bc, stream, false);
                        assert_eq!(got, results, "{at}: AVX2 per-access results");
                        assert_eq!(state(&mut bc), want, "{at}: AVX2 access");
                        let mut bc = BalancedCache::new(params);
                        replay_on(lanes, &mut bc, stream, true);
                        assert_eq!(state(&mut bc), want, "{at}: AVX2 batch");
                        avx2_checked = true;
                    }
                }
            }
        }
        if avx2_checked {
            println!("checked the portable and avx2 backends");
        } else {
            println!("this CPU lacks the AVX2 frame's features: checked the portable path only");
        }
    }
}

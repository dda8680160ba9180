//! One table of every simulated cache model.
//!
//! A [`ModelSpec`] names a cache family together with its full
//! geometry, and is the one place a model is constructed. From its
//! variant list the module derives everything the harness needs to
//! build a model and to check it:
//!
//! * [`ModelSpec::build`]: the model as the trait object every
//!   experiment replays ([`CacheConfig::build`](crate::CacheConfig::build)
//!   maps each paper configuration to a spec);
//! * the reference the model is differentially checked against:
//!   [`OracleCache`] for the direct-mapped and set-associative caches,
//!   [`BCacheOracle`] for the B-Cache, [`VictimOracle`] for the victim
//!   cache, and the model's own per-access loop for the column, skewed
//!   and AGAC caches, which have no independent oracle;
//! * [`ModelSpec::differential`]: the one differential check, per access
//!   or batched, shared by the fuzzer's table rows and the
//!   batch-equivalence suite;
//! * [`ModelSpec::draw`]: random small and degenerate geometries of the
//!   chosen families, for the fuzzer and the property tests.

use std::ops::{Deref, DerefMut};

use bcache_core::{BCacheParams, BalancedCache, ParamError, PiTagBits};
use cache_sim::{
    AccessKind, Addr, AgacCache, BCacheOracle, CacheGeometry, CacheModel, CacheStats,
    ColumnAssociativeCache, DirectMappedCache, GeometryError, OracleCache, OracleOutcome,
    PolicyKind, SetAssociativeCache, SetUsage, SkewedAssociativeCache, VictimCache, VictimOracle,
    DEFAULT_ADDR_BITS,
};

/// A cache family: a [`ModelSpec`] variant without its geometry.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// [`ModelSpec::DirectMapped`].
    DirectMapped,
    /// [`ModelSpec::SetAssoc`].
    SetAssoc,
    /// [`ModelSpec::BCache`].
    BCache,
    /// [`ModelSpec::Victim`].
    Victim,
    /// [`ModelSpec::Column`].
    Column,
    /// [`ModelSpec::Skewed`].
    Skewed,
    /// [`ModelSpec::Agac`].
    Agac,
}

impl Family {
    /// Every family, in [`ModelSpec`] variant order.
    pub const ALL: &'static [Family] = &[
        Family::DirectMapped,
        Family::SetAssoc,
        Family::BCache,
        Family::Victim,
        Family::Column,
        Family::Skewed,
        Family::Agac,
    ];
}

/// One simulated cache: its family and full geometry. `size` is the
/// capacity and `line` the block size, both in bytes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ModelSpec {
    /// The baseline direct-mapped cache.
    DirectMapped {
        /// Capacity in bytes.
        size: usize,
        /// Line size in bytes.
        line: usize,
    },
    /// A conventional set-associative cache.
    SetAssoc {
        /// Capacity in bytes.
        size: usize,
        /// Line size in bytes.
        line: usize,
        /// Ways per set.
        ways: usize,
        /// Replacement policy.
        policy: PolicyKind,
        /// Seed of the random policies.
        seed: u64,
    },
    /// The B-Cache on a direct-mapped geometry.
    BCache {
        /// Capacity in bytes.
        size: usize,
        /// Line size in bytes.
        line: usize,
        /// Memory address mapping factor.
        mf: usize,
        /// B-Cache associativity.
        bas: usize,
        /// Replacement policy.
        policy: PolicyKind,
        /// Seed of the random policies.
        seed: u64,
        /// Which tag bits feed the programmable index.
        pi_tag_bits: PiTagBits,
        /// Address width the geometry decodes.
        addr_bits: u32,
    },
    /// Direct-mapped plus a victim buffer.
    Victim {
        /// Capacity in bytes.
        size: usize,
        /// Line size in bytes.
        line: usize,
        /// Victim-buffer entries (a power of two).
        entries: usize,
    },
    /// Column-associative cache.
    Column {
        /// Capacity in bytes.
        size: usize,
        /// Line size in bytes.
        line: usize,
    },
    /// 2-way skewed-associative cache.
    Skewed {
        /// Capacity in bytes.
        size: usize,
        /// Line size in bytes.
        line: usize,
    },
    /// Adaptive group-associative cache.
    Agac {
        /// Capacity in bytes.
        size: usize,
        /// Line size in bytes.
        line: usize,
        /// Out-of-position directory entries.
        entries: usize,
    },
}

/// How [`ModelSpec::differential`] drives the model under test.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Drive {
    /// One `access` at a time, each result diffed against the oracle's.
    PerAccess,
    /// `access_batch` over consecutive chunks of this many accesses.
    Batched(usize),
}

/// A built model. The B-Cache stays concrete because its decoder
/// invariants and index layout are not part of [`CacheModel`].
pub(crate) enum Built {
    Model(Box<dyn CacheModel>),
    BCache(Box<BalancedCache>),
}

fn boxed<M: CacheModel + 'static>(model: M) -> Built {
    Built::Model(Box::new(model))
}

impl Deref for Built {
    type Target = dyn CacheModel;

    fn deref(&self) -> &Self::Target {
        match self {
            Built::Model(m) => m.as_ref(),
            Built::BCache(b) => b.as_ref(),
        }
    }
}

impl DerefMut for Built {
    fn deref_mut(&mut self) -> &mut Self::Target {
        match self {
            Built::Model(m) => m.as_mut(),
            Built::BCache(b) => b.as_mut(),
        }
    }
}

impl Built {
    /// Final hits, misses and writebacks, then the PD-hit and PD-miss
    /// miss counts (zero off the B-Cache).
    fn counters(&self) -> [u64; 5] {
        let pd = self.decoder_stats().unwrap_or_default();
        let total = self.stats().total();
        [
            total.hits(),
            total.misses(),
            self.stats().writebacks(),
            pd.misses_with_pd_hit,
            pd.misses_with_pd_miss,
        ]
    }
}

/// What a model is differentially checked against.
enum Reference {
    Oracle(OracleCache),
    BCacheOracle(BCacheOracle),
    Victim(VictimOracle),
    /// No independent oracle: the model's own per-access loop.
    OwnLoop,
}

impl Reference {
    fn access(&mut self, addr: Addr, kind: AccessKind) -> Option<OracleOutcome> {
        match self {
            Reference::Oracle(o) => Some(o.access(addr, kind)),
            Reference::BCacheOracle(o) => Some(o.access(addr, kind)),
            Reference::Victim(o) => Some(o.access(addr, kind)),
            Reference::OwnLoop => None,
        }
    }

    /// The oracle's side of [`Built::counters`].
    fn counters(&self) -> Option<[u64; 5]> {
        match self {
            Reference::Oracle(o) => Some([o.hits(), o.misses(), o.writebacks(), 0, 0]),
            Reference::Victim(o) => Some([o.hits(), o.misses(), o.writebacks(), 0, 0]),
            Reference::BCacheOracle(o) => Some([
                o.hits(),
                o.misses(),
                o.writebacks(),
                o.pd_hit_misses(),
                o.pd_miss_misses(),
            ]),
            Reference::OwnLoop => None,
        }
    }
}

/// Maps a B-Cache parameter rejection onto the geometry error it is.
fn param_error(e: ParamError, geom: CacheGeometry) -> GeometryError {
    match e {
        ParamError::NotPowerOfTwo { what, value } => GeometryError::NotPowerOfTwo { what, value },
        ParamError::BasTooLarge { bas, sets } => GeometryError::AssocLargerThanLines {
            assoc: bas,
            lines: sets,
        },
        // The programmable index spans offset + index + log2(MF) bits.
        ParamError::MfTooLarge { mf, .. } => GeometryError::AddrTooNarrow {
            addr_bits: geom.addr_bits(),
            needed: geom.offset_bits() + geom.index_bits() + mf.trailing_zeros(),
        },
        ParamError::NotDirectMapped { .. } => {
            unreachable!("the B-Cache base geometry is built direct-mapped")
        }
    }
}

const POLICIES: [PolicyKind; 2] = [PolicyKind::Lru, PolicyKind::Random];

impl ModelSpec {
    /// A B-Cache at `(mf, bas)` as the paper configures it: 32-byte
    /// lines, the low tag bits as PI, 32-bit addresses.
    pub fn bcache(size: usize, mf: usize, bas: usize, policy: PolicyKind, seed: u64) -> ModelSpec {
        ModelSpec::BCache {
            size,
            line: 32,
            mf,
            bas,
            policy,
            seed,
            pi_tag_bits: PiTagBits::Low,
            addr_bits: DEFAULT_ADDR_BITS,
        }
    }

    /// An LRU set-associative cache of 32-byte lines.
    pub fn lru(size: usize, ways: usize) -> ModelSpec {
        ModelSpec::SetAssoc {
            size,
            line: 32,
            ways,
            policy: PolicyKind::Lru,
            seed: 0,
        }
    }

    /// The spec's family.
    pub(crate) fn family(&self) -> Family {
        match self {
            ModelSpec::DirectMapped { .. } => Family::DirectMapped,
            ModelSpec::SetAssoc { .. } => Family::SetAssoc,
            ModelSpec::BCache { .. } => Family::BCache,
            ModelSpec::Victim { .. } => Family::Victim,
            ModelSpec::Column { .. } => Family::Column,
            ModelSpec::Skewed { .. } => Family::Skewed,
            ModelSpec::Agac { .. } => Family::Agac,
        }
    }

    /// Capacity and line size in bytes.
    pub(crate) fn size_line(&self) -> (usize, usize) {
        match *self {
            ModelSpec::DirectMapped { size, line }
            | ModelSpec::SetAssoc { size, line, .. }
            | ModelSpec::BCache { size, line, .. }
            | ModelSpec::Victim { size, line, .. }
            | ModelSpec::Column { size, line }
            | ModelSpec::Skewed { size, line }
            | ModelSpec::Agac { size, line, .. } => (size, line),
        }
    }

    /// Builds the model.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] if the shape is invalid for the
    /// family, e.g. a BAS larger than the set count.
    pub fn build(&self) -> Result<Box<dyn CacheModel>, GeometryError> {
        Ok(match self.construct()? {
            Built::Model(m) => m,
            Built::BCache(b) => b,
        })
    }

    /// Builds a B-Cache spec as the concrete [`BalancedCache`], for the
    /// callers that need its index layout.
    ///
    /// # Errors
    ///
    /// As [`ModelSpec::build`].
    ///
    /// # Panics
    ///
    /// Panics if the spec is not a [`ModelSpec::BCache`].
    pub(crate) fn build_bcache(&self) -> Result<BalancedCache, GeometryError> {
        match self.construct()? {
            Built::BCache(b) => Ok(*b),
            Built::Model(_) => panic!("{self:?} is not a B-Cache"),
        }
    }

    /// The one constructor table.
    fn construct(&self) -> Result<Built, GeometryError> {
        match *self {
            ModelSpec::DirectMapped { size, line } => DirectMappedCache::new(size, line).map(boxed),
            ModelSpec::SetAssoc {
                size,
                line,
                ways,
                policy,
                seed,
            } => SetAssociativeCache::new(size, line, ways, policy, seed).map(boxed),
            ModelSpec::BCache {
                size,
                line,
                mf,
                bas,
                policy,
                seed,
                pi_tag_bits,
                addr_bits,
            } => {
                let geom = CacheGeometry::with_addr_bits(size, line, 1, addr_bits)?;
                let params = BCacheParams::new(geom, mf, bas, policy)
                    .map_err(|e| param_error(e, geom))?
                    .with_seed(seed)
                    .with_pi_tag_bits(pi_tag_bits);
                Ok(Built::BCache(Box::new(BalancedCache::new(params))))
            }
            ModelSpec::Victim {
                size,
                line,
                entries,
            } => VictimCache::new(size, line, entries).map(boxed),
            ModelSpec::Column { size, line } => ColumnAssociativeCache::new(size, line).map(boxed),
            ModelSpec::Skewed { size, line } => SkewedAssociativeCache::new(size, line).map(boxed),
            ModelSpec::Agac {
                size,
                line,
                entries,
            } => AgacCache::new(size, line, entries).map(boxed),
        }
    }

    /// The reference the model is checked against.
    fn reference(&self) -> Reference {
        let nway = match *self {
            ModelSpec::DirectMapped { .. } => Some((1, PolicyKind::Lru, 0)),
            ModelSpec::SetAssoc {
                ways, policy, seed, ..
            } => Some((ways, policy, seed)),
            _ => None,
        };
        let (size, line) = self.size_line();
        if let Some((ways, policy, seed)) = nway {
            let oracle = OracleCache::new(size, line, ways, policy, seed, DEFAULT_ADDR_BITS);
            return Reference::Oracle(oracle);
        }
        if let ModelSpec::Victim { entries, .. } = *self {
            return Reference::Victim(VictimOracle::new(size, line, entries, DEFAULT_ADDR_BITS));
        }
        let ModelSpec::BCache {
            mf,
            bas,
            policy,
            seed,
            pi_tag_bits,
            addr_bits,
            ..
        } = *self
        else {
            return Reference::OwnLoop;
        };
        // NPI = OI - log2(BAS), PI = log2(BAS) + log2(MF) (paper Section 3.1).
        let (bas_bits, mf_bits) = (bas.trailing_zeros(), mf.trailing_zeros());
        let npi_bits = (size / line).trailing_zeros().saturating_sub(bas_bits);
        Reference::BCacheOracle(BCacheOracle::new(
            line as u64,
            addr_bits,
            npi_bits,
            bas_bits + mf_bits,
            mf_bits,
            pi_tag_bits == PiTagBits::High,
            (policy, seed),
        ))
    }

    /// Whether the spec has an independent oracle, so it can be driven
    /// [`Drive::PerAccess`]. The column, skewed and AGAC caches have
    /// none: they are checked batched against their own per-access loop.
    pub fn has_oracle(&self) -> bool {
        !matches!(
            self.family(),
            Family::Column | Family::Skewed | Family::Agac
        )
    }

    /// Replays `accesses` through the model, driven as `drive`, and
    /// through its reference. A spec without an oracle driven per access
    /// fails at once: there would be nothing to check it against.
    /// Returns the index of the access at which they first disagree and
    /// what disagreed, or `None` if they agree.
    ///
    /// Per access, every [`AccessResult`](cache_sim::AccessResult) must
    /// equal the oracle's. Batched, the model's `stats()` and
    /// `set_usage()` must equal its own per-access loop's. Either way the
    /// final hit, miss and writeback counters, plus the B-Cache's PD
    /// counters, must equal the oracle's, and the B-Cache's decoder
    /// invariants must hold.
    pub fn differential(
        &self,
        drive: Drive,
        accesses: &[(Addr, AccessKind)],
    ) -> Option<(usize, String)> {
        let fail = |i: usize, what: String| Some((i, format!("{self:?}: {what}")));
        if drive == Drive::PerAccess && !self.has_oracle() {
            return fail(0, "has no oracle to check per access against".into());
        }
        let mut model = match self.construct() {
            Ok(model) => model,
            Err(e) => return fail(0, format!("does not build: {e}")),
        };
        let mut reference = self.reference();
        let last = accesses.len().saturating_sub(1);
        match drive {
            Drive::PerAccess => {
                for (i, &(addr, kind)) in accesses.iter().enumerate() {
                    let got = model.access(addr, kind);
                    if let Some(d) = reference.access(addr, kind).and_then(|w| w.diff(&got)) {
                        return fail(i, format!("at {addr}: {d}"));
                    }
                }
            }
            Drive::Batched(chunk) => {
                // Builds whenever `model` did: the same spec.
                let mut scalar = self.construct().ok()?;
                for slice in accesses.chunks(chunk.max(1)) {
                    model.access_batch(slice);
                }
                for &(addr, kind) in accesses {
                    scalar.access(addr, kind);
                    reference.access(addr, kind);
                }
                let batched = (model.stats(), model.set_usage());
                let per_access = (scalar.stats(), scalar.set_usage());
                if batched != per_access {
                    let what = batch_divergence(batched, per_access);
                    return fail(last, format!("batched in {chunk}-chunks, {what}"));
                }
            }
        }
        if let Some(want) = reference.counters() {
            let got = model.counters();
            if got != want {
                return fail(
                    last,
                    format!(
                        "(hits, misses, writebacks, PD-hit misses, PD-miss misses) \
                         {got:?} vs oracle {want:?}"
                    ),
                );
            }
        }
        match &model {
            Built::BCache(b) if !b.invariants_hold() => fail(last, "invariants violated".into()),
            _ => None,
        }
    }

    /// Draws a small or degenerate geometry of one of `families`: 1 to
    /// 64 sets of 16- to 64-byte lines, so one-set, one-way,
    /// cache-equals-line and BAS-equals-sets shapes all come up. B-Caches
    /// decode 16-bit addresses so MF can consume the whole tag.
    ///
    /// # Panics
    ///
    /// Panics if `families` is empty.
    pub fn draw(rng: &mut CaseRng, families: &[Family]) -> ModelSpec {
        let family = rng.pick(families);
        let line = 16usize << rng.below(3);
        let sets = 1usize << rng.below(7);
        let policy = rng.pick(&POLICIES);
        let seed = rng.next_u64();
        match family {
            Family::DirectMapped => ModelSpec::DirectMapped {
                size: sets * line,
                line,
            },
            Family::SetAssoc => {
                let ways = 1 << rng.below(5);
                ModelSpec::SetAssoc {
                    size: sets * ways * line,
                    line,
                    ways,
                    policy,
                    seed,
                }
            }
            Family::BCache => {
                let addr_bits = 16;
                let tag_bits = addr_bits - (sets * line).trailing_zeros();
                ModelSpec::BCache {
                    size: sets * line,
                    line,
                    mf: 1 << rng.below(u64::from(tag_bits.min(3)) + 1),
                    bas: (1 << rng.below(7)).min(sets),
                    policy,
                    seed,
                    pi_tag_bits: rng.pick(&[PiTagBits::Low, PiTagBits::High]),
                    addr_bits,
                }
            }
            Family::Victim => ModelSpec::Victim {
                size: sets * line,
                line,
                entries: 1 << rng.below(5),
            },
            // The rehash needs one index bit.
            Family::Column => ModelSpec::Column {
                size: sets.max(2) * line,
                line,
            },
            // Each skewing function needs one index bit per way.
            Family::Skewed => ModelSpec::Skewed {
                size: sets.max(4) * line,
                line,
            },
            // Any directory size, powers of two or not.
            Family::Agac => ModelSpec::Agac {
                size: sets * line,
                line,
                entries: 1 + rng.below(32) as usize,
            },
        }
    }
}

/// Says what differs between a batched run's statistics and set usage
/// and its per-access loop's: both full [`CacheStats`] when they differ
/// (the read/write/fetch split and the writebacks, not only the total),
/// else the first set whose usage differs.
fn batch_divergence(
    (stats, usage): (&CacheStats, &SetUsage),
    (loop_stats, loop_usage): (&CacheStats, &SetUsage),
) -> String {
    if stats != loop_stats {
        return format!("stats {stats:?} vs per-access {loop_stats:?}");
    }
    let counts = |u: &SetUsage, set| (u.hits(set), u.misses(set));
    let sets = usage.sets().min(loop_usage.sets());
    if let Some(set) = (0..sets).find(|&s| counts(usage, s) != counts(loop_usage, s)) {
        return format!(
            "set {set} (hits, misses) {:?} vs per-access {:?}",
            counts(usage, set),
            counts(loop_usage, set)
        );
    }
    format!("set usage {usage:?} vs per-access {loop_usage:?}")
}

/// Deterministic per-case randomness (SplitMix64, like the shims).
#[derive(Clone, Debug)]
pub struct CaseRng(u64);

impl CaseRng {
    /// The stream of case `case` under base seed `seed`.
    pub fn new(seed: u64, case: u64) -> Self {
        let mut r = CaseRng(seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64(); // decorrelate adjacent cases
        r
    }

    /// The next 64 random bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n`.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        (((self.next_u64() as u128) * (n as u128)) >> 64) as u64
    }

    /// A uniform pick from `xs`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    pub(crate) fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheConfig;
    use std::collections::HashSet;

    #[test]
    fn the_all_families_row_draws_every_family_and_each_draw_builds() {
        // Seven families build every paper configuration; dropping one
        // from the table must fail here, not silently shrink the fuzz
        // coverage.
        assert_eq!(Family::ALL.len(), 7);
        let mut seen = HashSet::new();
        for case in 0..300 {
            let spec = ModelSpec::draw(&mut CaseRng::new(7, case), Family::ALL);
            assert!(spec.build().is_ok(), "{spec:?} does not build");
            seen.insert(spec.family());
        }
        assert_eq!(seen, Family::ALL.iter().copied().collect());
        for &family in Family::ALL {
            for case in 0..200 {
                let spec = ModelSpec::draw(&mut CaseRng::new(case, 0), &[family]);
                assert_eq!(spec.family(), family);
                assert!(spec.build().is_ok(), "{spec:?} does not build");
                let own_loop = matches!(spec.reference(), Reference::OwnLoop);
                assert_eq!(spec.has_oracle(), !own_loop, "{spec:?}");
            }
        }
    }

    #[test]
    fn a_batch_divergence_names_what_differed() {
        let (mut a, mut b) = (CacheStats::new(), CacheStats::new());
        a.record(AccessKind::Read, false);
        b.record(AccessKind::Write, false);
        assert_eq!(a.total(), b.total());
        let (mut u, mut v) = (SetUsage::new(4), SetUsage::new(4));
        let what = batch_divergence((&a, &u), (&b, &u));
        assert!(what.contains(&format!("{a:?}")), "{what}");
        assert!(what.contains(&format!("{b:?}")), "{what}");

        u.record(2, true);
        v.record(2, false);
        assert_eq!(
            batch_divergence((&a, &u), (&a, &v)),
            "set 2 (hits, misses) (1, 0) vs per-access (0, 1)"
        );
    }

    #[test]
    fn a_boxed_model_reports_decoder_stats_only_for_the_b_cache() {
        // Called on the box itself: a `Box<dyn CacheModel>` that did not
        // forward the accessor would report `None` for the B-Cache.
        let bcache = ModelSpec::bcache(1024, 8, 8, PolicyKind::Lru, 0)
            .build()
            .unwrap();
        assert!(<Box<dyn CacheModel> as CacheModel>::decoder_stats(&bcache).is_some());
        let lru = ModelSpec::lru(1024, 2).build().unwrap();
        assert!(<Box<dyn CacheModel> as CacheModel>::decoder_stats(&lru).is_none());
    }

    /// Each paper configuration built by calling its model's
    /// constructor directly: the reference the spec table must match.
    fn direct_build(c: CacheConfig, size: usize, seed: u64) -> Box<dyn CacheModel> {
        let lru = PolicyKind::Lru;
        match c {
            CacheConfig::DirectMapped => Box::new(DirectMappedCache::new(size, 32).unwrap()),
            CacheConfig::SetAssoc(n) => {
                Box::new(SetAssociativeCache::new(size, 32, n, lru, 0).unwrap())
            }
            CacheConfig::Victim(n) => Box::new(VictimCache::new(size, 32, n).unwrap()),
            CacheConfig::BCache { mf, bas } => {
                let geom = CacheGeometry::new(size, 32, 1).unwrap();
                let params = BCacheParams::new(geom, mf, bas, lru).unwrap();
                Box::new(BalancedCache::new(params.with_seed(seed)))
            }
            CacheConfig::ColumnAssoc => Box::new(ColumnAssociativeCache::new(size, 32).unwrap()),
            CacheConfig::SkewedAssoc => Box::new(SkewedAssociativeCache::new(size, 32).unwrap()),
            CacheConfig::Agac => Box::new(AgacCache::new(size, 32, 64).unwrap()),
        }
    }

    #[test]
    fn every_paper_config_builds_through_the_spec_as_before() {
        let mut configs: Vec<CacheConfig> = crate::bench::model_set()
            .into_iter()
            .map(|(_, c)| c)
            .collect();
        configs.extend(CacheConfig::figure4_set());
        configs.extend(CacheConfig::figure8_set());
        configs.extend(CacheConfig::figure12_set());
        configs.extend(CacheConfig::related_set().into_iter().map(|(_, c)| c));
        let stream = crate::bench::access_stream(4000, 3);
        for size in [8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024] {
            for &c in &configs {
                let mut got = c.build(size, 5).unwrap();
                let mut want = direct_build(c, size, 5);
                let what = format!("{} at {size}", c.label());
                assert_eq!(got.geometry(), want.geometry(), "{what}");
                got.access_batch(&stream);
                want.access_batch(&stream);
                assert_eq!(got.stats(), want.stats(), "{what}");
                got.access(Addr::new(0x1234), AccessKind::Read);
                assert!(
                    got.access(Addr::new(0x1234), AccessKind::Read).hit,
                    "{what}"
                );
            }
        }
    }
}

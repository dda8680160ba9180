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
//!   [`OracleCache`] for the direct-mapped and set-associative caches and
//!   the four n-way-LRU wrappers (HAC, PAM, difference-bit, way-halting),
//!   [`BCacheOracle`] for the B-Cache, [`VictimOracle`] for the victim
//!   cache, and the model's own per-access loop for the column, skewed
//!   and AGAC caches, which have no independent oracle;
//! * [`ModelSpec::differential`]: the one differential check, per access
//!   or batched, shared by the fuzzer's table rows and the
//!   batch-equivalence suite;
//! * `ModelSpec::rust`: the Rust source of the model and reference
//!   constructors, for the fuzzer's shrunk repros;
//! * [`ModelSpec::draw`]: random small and degenerate geometries of the
//!   chosen families, for the fuzzer and the property tests.

use std::ops::{Deref, DerefMut};

use bcache_core::{BCacheParams, BalancedCache, ParamError, PiTagBits};
use cache_sim::{
    AccessKind, Addr, AgacCache, BCacheOracle, CacheGeometry, CacheModel, ColumnAssociativeCache,
    DifferenceBitCache, DirectMappedCache, GeometryError, HighlyAssociativeCache, OracleCache,
    OracleOutcome, PartialMatchCache, PolicyKind, SetAssociativeCache, SkewedAssociativeCache,
    VictimCache, VictimOracle, WayHaltingCache, DEFAULT_ADDR_BITS,
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
    /// [`ModelSpec::Hac`].
    Hac,
    /// [`ModelSpec::Pam`].
    Pam,
    /// [`ModelSpec::DiffBit`].
    DiffBit,
    /// [`ModelSpec::WayHalting`].
    WayHalting,
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
        Family::Hac,
        Family::Pam,
        Family::DiffBit,
        Family::WayHalting,
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
    /// Highly-associative CAM-tag cache.
    Hac {
        /// Capacity in bytes.
        size: usize,
        /// Line size in bytes.
        line: usize,
        /// Bytes per fully-associative subarray.
        subarray_bytes: usize,
    },
    /// Partial-address-matching 2-way cache.
    Pam {
        /// Capacity in bytes.
        size: usize,
        /// Line size in bytes.
        line: usize,
        /// Partial-tag bits.
        pad_bits: u32,
    },
    /// Difference-bit 2-way cache.
    DiffBit {
        /// Capacity in bytes.
        size: usize,
        /// Line size in bytes.
        line: usize,
    },
    /// Way-halting cache.
    WayHalting {
        /// Capacity in bytes.
        size: usize,
        /// Line size in bytes.
        line: usize,
        /// Ways per set.
        ways: usize,
        /// Halt-tag bits per way.
        pad_bits: u32,
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

/// A built model. The B-Cache stays concrete because its PD counters and
/// decoder invariants are not part of [`CacheModel`].
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
        let (pd_hit, pd_miss) = match self {
            Built::BCache(b) => (
                b.pd_stats().misses_with_pd_hit,
                b.pd_stats().misses_with_pd_miss,
            ),
            Built::Model(_) => (0, 0),
        };
        let total = self.stats().total();
        [
            total.hits(),
            total.misses(),
            self.stats().writebacks(),
            pd_hit,
            pd_miss,
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

const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Lru,
    PolicyKind::Fifo,
    PolicyKind::Random,
    PolicyKind::TreePlru,
];

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
            ModelSpec::Hac { .. } => Family::Hac,
            ModelSpec::Pam { .. } => Family::Pam,
            ModelSpec::DiffBit { .. } => Family::DiffBit,
            ModelSpec::WayHalting { .. } => Family::WayHalting,
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
            | ModelSpec::Agac { size, line, .. }
            | ModelSpec::Hac { size, line, .. }
            | ModelSpec::Pam { size, line, .. }
            | ModelSpec::DiffBit { size, line }
            | ModelSpec::WayHalting { size, line, .. } => (size, line),
        }
    }

    /// Builds the model.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] if the shape is invalid for the
    /// family, e.g. a BAS larger than the set count.
    pub fn build(&self) -> Result<Box<dyn CacheModel>, GeometryError> {
        Ok(match self.construct().0? {
            Built::Model(m) => m,
            Built::BCache(b) => b,
        })
    }

    /// Builds a B-Cache spec as the concrete [`BalancedCache`], whose PD
    /// counters the trait object hides.
    ///
    /// # Errors
    ///
    /// As [`ModelSpec::build`].
    ///
    /// # Panics
    ///
    /// Panics if the spec is not a [`ModelSpec::BCache`].
    pub(crate) fn build_bcache(&self) -> Result<BalancedCache, GeometryError> {
        match self.instantiate()? {
            Built::BCache(b) => Ok(*b),
            Built::Model(m) => panic!("{} is not a B-Cache", m.label()),
        }
    }

    pub(crate) fn instantiate(&self) -> Result<Built, GeometryError> {
        self.construct().0
    }

    /// The Rust source of the model's constructor and, for the
    /// oracle-checked families, of its oracle's.
    pub(crate) fn rust(&self) -> (String, Option<String>) {
        (self.construct().1, self.reference().1)
    }

    /// The one constructor table: each arm builds the model and spells
    /// the same call as Rust source.
    fn construct(&self) -> (Result<Built, GeometryError>, String) {
        match *self {
            ModelSpec::DirectMapped { size, line } => (
                DirectMappedCache::new(size, line).map(boxed),
                format!("cache_sim::DirectMappedCache::new({size}, {line}).unwrap()"),
            ),
            ModelSpec::SetAssoc {
                size,
                line,
                ways,
                policy,
                seed,
            } => (
                SetAssociativeCache::new(size, line, ways, policy, seed).map(boxed),
                format!(
                    "cache_sim::SetAssociativeCache::new({size}, {line}, {ways}, \
                     cache_sim::PolicyKind::{policy:?}, {seed}).unwrap()"
                ),
            ),
            ModelSpec::BCache {
                size,
                line,
                mf,
                bas,
                policy,
                seed,
                pi_tag_bits,
                addr_bits,
            } => (
                CacheGeometry::with_addr_bits(size, line, 1, addr_bits).and_then(|geom| {
                    let params = BCacheParams::new(geom, mf, bas, policy)
                        .map_err(|e| param_error(e, geom))?
                        .with_seed(seed)
                        .with_pi_tag_bits(pi_tag_bits);
                    Ok(Built::BCache(Box::new(BalancedCache::new(params))))
                }),
                format!(
                    "bcache_core::BalancedCache::new(bcache_core::BCacheParams::new(\
                     cache_sim::CacheGeometry::with_addr_bits({size}, {line}, 1, {addr_bits}).unwrap(), \
                     {mf}, {bas}, cache_sim::PolicyKind::{policy:?}).unwrap()\
                     .with_seed({seed}).with_pi_tag_bits(bcache_core::PiTagBits::{pi_tag_bits:?}))"
                ),
            ),
            ModelSpec::Victim {
                size,
                line,
                entries,
            } => (
                VictimCache::new(size, line, entries).map(boxed),
                format!("cache_sim::VictimCache::new({size}, {line}, {entries}).unwrap()"),
            ),
            ModelSpec::Column { size, line } => (
                ColumnAssociativeCache::new(size, line).map(boxed),
                format!("cache_sim::ColumnAssociativeCache::new({size}, {line}).unwrap()"),
            ),
            ModelSpec::Skewed { size, line } => (
                SkewedAssociativeCache::new(size, line).map(boxed),
                format!("cache_sim::SkewedAssociativeCache::new({size}, {line}).unwrap()"),
            ),
            ModelSpec::Agac {
                size,
                line,
                entries,
            } => (
                AgacCache::new(size, line, entries).map(boxed),
                format!("cache_sim::AgacCache::new({size}, {line}, {entries}).unwrap()"),
            ),
            ModelSpec::Hac {
                size,
                line,
                subarray_bytes,
            } => (
                HighlyAssociativeCache::new(size, line, subarray_bytes).map(boxed),
                format!(
                    "cache_sim::HighlyAssociativeCache::new({size}, {line}, {subarray_bytes}).unwrap()"
                ),
            ),
            ModelSpec::Pam {
                size,
                line,
                pad_bits,
            } => (
                PartialMatchCache::new(size, line, pad_bits).map(boxed),
                format!("cache_sim::PartialMatchCache::new({size}, {line}, {pad_bits}).unwrap()"),
            ),
            ModelSpec::DiffBit { size, line } => (
                DifferenceBitCache::new(size, line).map(boxed),
                format!("cache_sim::DifferenceBitCache::new({size}, {line}).unwrap()"),
            ),
            ModelSpec::WayHalting {
                size,
                line,
                ways,
                pad_bits,
            } => (
                WayHaltingCache::new(size, line, ways, pad_bits).map(boxed),
                format!(
                    "cache_sim::WayHaltingCache::new({size}, {line}, {ways}, {pad_bits}).unwrap()"
                ),
            ),
        }
    }

    /// The reference the model is checked against, and its constructor
    /// as Rust source. The direct-mapped and set-associative caches and
    /// the four wrappers are contractually n-way arrays (the wrappers LRU,
    /// seed 0): they may add latency or energy metadata but never change
    /// hits, misses or evictions.
    fn reference(&self) -> (Reference, Option<String>) {
        let nway = match *self {
            ModelSpec::DirectMapped { .. } => Some((1, PolicyKind::Lru, 0)),
            ModelSpec::SetAssoc {
                ways, policy, seed, ..
            } => Some((ways, policy, seed)),
            ModelSpec::Hac {
                line,
                subarray_bytes,
                ..
            } => Some((subarray_bytes / line, PolicyKind::Lru, 0)),
            ModelSpec::Pam { .. } | ModelSpec::DiffBit { .. } => Some((2, PolicyKind::Lru, 0)),
            ModelSpec::WayHalting { ways, .. } => Some((ways, PolicyKind::Lru, 0)),
            _ => None,
        };
        let (size, line) = self.size_line();
        if let Some((ways, policy, seed)) = nway {
            let oracle = OracleCache::new(size, line, ways, policy, seed, DEFAULT_ADDR_BITS);
            let src = format!(
                "cache_sim::OracleCache::new({size}, {line}, {ways}, \
                 cache_sim::PolicyKind::{policy:?}, {seed}, {DEFAULT_ADDR_BITS})"
            );
            return (Reference::Oracle(oracle), Some(src));
        }
        if let ModelSpec::Victim { entries, .. } = *self {
            let oracle = VictimOracle::new(size, line, entries, DEFAULT_ADDR_BITS);
            let src = format!(
                "cache_sim::VictimOracle::new({size}, {line}, {entries}, {DEFAULT_ADDR_BITS})"
            );
            return (Reference::Victim(oracle), Some(src));
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
            return (Reference::OwnLoop, None);
        };
        // NPI = OI - log2(BAS), PI = log2(BAS) + log2(MF) (paper Section 3.1).
        let (bas_bits, mf_bits) = (bas.trailing_zeros(), mf.trailing_zeros());
        let npi_bits = (size / line).trailing_zeros().saturating_sub(bas_bits);
        let pi_bits = bas_bits + mf_bits;
        let high = pi_tag_bits == PiTagBits::High;
        let oracle = BCacheOracle::new(
            line as u64,
            addr_bits,
            npi_bits,
            pi_bits,
            mf_bits,
            high,
            (policy, seed),
        );
        let src = format!(
            "cache_sim::BCacheOracle::new({line}, {addr_bits}, {npi_bits}, {pi_bits}, {mf_bits}, \
             {high}, (cache_sim::PolicyKind::{policy:?}, {seed}))"
        );
        (Reference::BCacheOracle(oracle), Some(src))
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
    /// fails at once: there would be nothing to check it against. Returns the index of the access at which
    /// they first disagree and what disagreed, or `None` if they agree.
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
        let mut model = match self.instantiate() {
            Ok(model) => model,
            Err(e) => return fail(0, format!("does not build: {e}")),
        };
        let mut reference = self.reference().0;
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
                let mut scalar = self.instantiate().ok()?;
                for slice in accesses.chunks(chunk.max(1)) {
                    model.access_batch(slice);
                }
                for &(addr, kind) in accesses {
                    scalar.access(addr, kind);
                    reference.access(addr, kind);
                }
                if (model.stats(), model.set_usage()) != (scalar.stats(), scalar.set_usage()) {
                    return fail(
                        last,
                        format!(
                            "batched in {chunk}-chunks, stats or set usage diverge from the \
                             per-access loop ({:?} vs {:?})",
                            model.stats().total(),
                            scalar.stats().total()
                        ),
                    );
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
        let pad_bits = 1 + rng.below(5) as u32;
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
            Family::Hac => {
                let subarray_lines = 1 << rng.below(6);
                ModelSpec::Hac {
                    size: sets * subarray_lines * line,
                    line,
                    subarray_bytes: subarray_lines * line,
                }
            }
            Family::Pam => ModelSpec::Pam {
                size: sets * 2 * line,
                line,
                pad_bits,
            },
            Family::DiffBit => ModelSpec::DiffBit {
                size: sets * 2 * line,
                line,
            },
            Family::WayHalting => {
                let ways = 1 << rng.below(4);
                ModelSpec::WayHalting {
                    size: sets * ways * line,
                    line,
                    ways,
                    pad_bits,
                }
            }
        }
    }
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
        // The paper compares eleven families; dropping one from the
        // table must fail here, not silently shrink the fuzz coverage.
        assert_eq!(Family::ALL.len(), 11);
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
                let own_loop = matches!(spec.reference().0, Reference::OwnLoop);
                assert_eq!(spec.has_oracle(), !own_loop, "{spec:?}");
            }
        }
    }

    /// Each paper configuration built by calling its model's
    /// constructor directly: the reference the spec table must match.
    fn direct_build(c: CacheConfig, size: usize, seed: u64) -> Box<dyn CacheModel> {
        let lru = PolicyKind::Lru;
        match c {
            CacheConfig::DirectMapped => Box::new(DirectMappedCache::new(size, 32).unwrap()),
            CacheConfig::SetAssoc(n) => {
                Box::new(SetAssociativeCache::new(size, 32, n, lru, seed).unwrap())
            }
            CacheConfig::Victim(n) => Box::new(VictimCache::new(size, 32, n).unwrap()),
            CacheConfig::BCache { mf, bas } => {
                let geom = CacheGeometry::new(size, 32, 1).unwrap();
                let params = BCacheParams::new(geom, mf, bas, lru).unwrap();
                Box::new(BalancedCache::new(params.with_seed(seed)))
            }
            CacheConfig::ColumnAssoc => Box::new(ColumnAssociativeCache::new(size, 32).unwrap()),
            CacheConfig::SkewedAssoc => Box::new(SkewedAssociativeCache::new(size, 32).unwrap()),
            CacheConfig::Hac => Box::new(HighlyAssociativeCache::new(size, 32, 1024).unwrap()),
            CacheConfig::WayHalting => Box::new(WayHaltingCache::new(size, 32, 4, 4).unwrap()),
            CacheConfig::Agac => Box::new(AgacCache::new(size, 32, 64).unwrap()),
            CacheConfig::Pam => Box::new(PartialMatchCache::new(size, 32, 5).unwrap()),
            CacheConfig::DiffBit => Box::new(DifferenceBitCache::new(size, 32).unwrap()),
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
        configs.extend(CacheConfig::related_set());
        let stream = crate::bench::access_stream(4000, 3);
        for size in [8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024] {
            for &c in &configs {
                let mut got = c.build(size, 5).unwrap();
                let mut want = direct_build(c, size, 5);
                let what = format!("{} at {size}", c.label());
                assert_eq!(got.label(), want.label(), "{what}");
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

//! Slow-but-obviously-correct reference simulators ("oracles") for
//! differential testing.
//!
//! Every production model in this crate earns its speed with packed
//! arrays, bit-sliced address fields and incremental bookkeeping — all
//! places where an off-by-one silently shifts every figure of the
//! reproduction. The oracles here recompute everything the expensive
//! way on every access:
//!
//! * [`OracleCache`] models any (capacity, block, associativity,
//!   replacement) organization as an explicit tag map. Address fields
//!   come from plain integer division/modulo, never bit slicing; LRU
//!   victims are found by scanning exact per-line timestamps.
//! * [`BCacheOracle`] models the Balanced Cache with the programmable-
//!   decoder contents tracked symbolically — each resident line carries
//!   its programmed PI — and the BAS candidate set recomputed from
//!   first principles (arithmetic on the block number) on every access.
//! * [`VictimOracle`] models Jouppi's victim cache as a direct-mapped
//!   map of resident blocks plus a demotion-ordered queue of buffered
//!   ones, with no packed words, lane probes or LRU stamps.
//!
//! For [`PolicyKind::Random`] an oracle draws its victims from its own
//! generator, seeded as the model's: `gen_range(0..ways)` whenever a
//! full set (or, in the B-Cache, a group with no cold way) needs one.
//! It shares no replacement code with the models, and everything else —
//! residency, way assignment, dirtiness, eviction reporting, statistics
//! — is recomputed independently, so the oracle catches any bookkeeping
//! bug, including a draw at the wrong moment (the two streams
//! desynchronize and the divergence surfaces).
//!
//! The `bcache-repro fuzz` subcommand (crate `harness`) drives every
//! registered model against these oracles on randomized configurations
//! and adversarial address streams; each model file also keeps a pinned
//! oracle-equivalence test next to its implementation.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::addr::Addr;
use crate::model::{AccessKind, AccessResult, Eviction};
use crate::replacement::PolicyKind;

/// What the oracle says one access must do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OracleOutcome {
    /// Whether the access hits.
    pub hit: bool,
    /// The block evicted by a miss, if any.
    pub evicted: Option<Eviction>,
}

impl OracleOutcome {
    /// Compares against a production model's [`AccessResult`], returning
    /// a human-readable description of the first disagreement.
    pub fn diff(&self, got: &AccessResult) -> Option<String> {
        if self.hit != got.hit {
            return Some(format!("hit: oracle {} vs model {}", self.hit, got.hit));
        }
        if self.evicted != got.evicted {
            return Some(format!(
                "evicted: oracle {:?} vs model {:?}",
                self.evicted, got.evicted
            ));
        }
        None
    }
}

/// An oracle's victim generator: seeded as the model's for random
/// replacement, none for LRU.
fn random(kind: PolicyKind, seed: u64) -> Option<StdRng> {
    match kind {
        PolicyKind::Lru => None,
        PolicyKind::Random => Some(StdRng::seed_from_u64(seed)),
    }
}

#[derive(Clone, Debug)]
struct OracleLine {
    block: u64,
    dirty: bool,
    last_use: u64,
}

/// An explicit tag-map reference cache: any (capacity, block size,
/// associativity, replacement) organization, write-back/write-allocate,
/// with exact LRU bookkeeping via per-line timestamps.
///
/// # Examples
///
/// ```
/// use cache_sim::{AccessKind, Addr, CacheModel, DirectMappedCache};
/// use cache_sim::oracle::OracleCache;
/// use cache_sim::PolicyKind;
///
/// let mut dm = DirectMappedCache::new(256, 32)?;
/// let mut oracle = OracleCache::new(256, 32, 1, PolicyKind::Lru, 0, 32);
/// for addr in [0u64, 256, 0, 32] {
///     let got = dm.access(Addr::new(addr), AccessKind::Read);
///     let want = oracle.access(Addr::new(addr), AccessKind::Read);
///     assert_eq!(want.diff(&got), None);
/// }
/// # Ok::<(), cache_sim::GeometryError>(())
/// ```
#[derive(Debug)]
pub struct OracleCache {
    sets: u64,
    assoc: usize,
    line_bytes: u64,
    addr_mask: u64,
    // slot = set * assoc + way; `None` is an invalid way.
    lines: Vec<Option<OracleLine>>,
    // Random's victim draws (see module docs); `None` is LRU.
    random: Option<StdRng>,
    clock: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl OracleCache {
    /// Creates a cold oracle. `addr_bits` bounds the address space the
    /// production models decode (bits above it are ignored, matching
    /// [`crate::CacheGeometry`]'s tag extraction).
    ///
    /// # Panics
    ///
    /// Panics if the shape is degenerate (zero line size, associativity
    /// larger than the line count, capacity not divisible into sets).
    pub fn new(
        size_bytes: usize,
        line_bytes: usize,
        assoc: usize,
        kind: PolicyKind,
        seed: u64,
        addr_bits: u32,
    ) -> Self {
        assert!(line_bytes > 0 && assoc > 0 && size_bytes >= line_bytes * assoc);
        let total_lines = size_bytes / line_bytes;
        assert_eq!(total_lines % assoc, 0, "lines must divide into sets");
        let sets = (total_lines / assoc) as u64;
        OracleCache {
            sets,
            assoc,
            line_bytes: line_bytes as u64,
            addr_mask: if addr_bits >= 64 {
                u64::MAX
            } else {
                (1u64 << addr_bits) - 1
            },
            lines: (0..total_lines).map(|_| None).collect(),
            random: random(kind, seed),
            clock: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// Hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty evictions recorded so far.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    fn choose_victim(&mut self, set: usize) -> usize {
        let base = set * self.assoc;
        match self.random.as_mut() {
            Some(rng) => rng.gen_range(0..self.assoc),
            // Exact recency from the per-line timestamps.
            None => (0..self.assoc)
                .min_by_key(|&w| self.lines[base + w].as_ref().map_or(0, |l| l.last_use))
                .expect("nonzero associativity"),
        }
    }

    /// Runs one access and returns what must happen.
    pub fn access(&mut self, addr: Addr, kind: AccessKind) -> OracleOutcome {
        let block = (addr.raw() & self.addr_mask) / self.line_bytes;
        let set = (block % self.sets) as usize;
        let base = set * self.assoc;
        self.clock += 1;

        if let Some(way) = (0..self.assoc).find(|&w| {
            self.lines[base + w]
                .as_ref()
                .is_some_and(|l| l.block == block)
        }) {
            let line = self.lines[base + way].as_mut().expect("resident line");
            line.last_use = self.clock;
            if kind.is_write() {
                line.dirty = true;
            }
            self.hits += 1;
            return OracleOutcome {
                hit: true,
                evicted: None,
            };
        }

        self.misses += 1;
        // Fill the first invalid way; evict only when the set is full.
        let (way, evicted) = match (0..self.assoc).find(|&w| self.lines[base + w].is_none()) {
            Some(w) => (w, None),
            None => {
                let w = self.choose_victim(set);
                let old = self.lines[base + w].take().expect("victim was resident");
                if old.dirty {
                    self.writebacks += 1;
                }
                (
                    w,
                    Some(Eviction {
                        block: Addr::new(old.block * self.line_bytes),
                        dirty: old.dirty,
                    }),
                )
            }
        };
        self.lines[base + way] = Some(OracleLine {
            block,
            dirty: kind.is_write(),
            last_use: self.clock,
        });
        OracleOutcome {
            hit: false,
            evicted,
        }
    }
}

#[derive(Clone, Debug)]
struct BEntry {
    /// The PI symbolically programmed into this way's decoder entry.
    pi: u64,
    block: u64,
    dirty: bool,
    last_use: u64,
}

/// A reference Balanced Cache that tracks programmable-decoder contents
/// symbolically and recomputes the BAS candidate set from first
/// principles — integer arithmetic on the block number — on every
/// access.
///
/// Models the paper's design (`ForcedVictim` PD-hit handling): a PD hit
/// with a tag miss *must* evict the matching way; a PD miss fills a
/// cold way or the replacement victim and reprograms its entry.
///
/// The field widths are passed in directly so the oracle shares no
/// layout code with `bcache-core`:
///
/// * `npi_bits` — non-programmable index width (`groups = 2^npi_bits`);
/// * `pi_bits` — programmable index width (`BAS = 2^(pi_bits - mf_bits)`);
/// * `mf_bits` — `log2` of the mapping factor (tag bits consumed);
/// * `high_tag_pi` — `true` mirrors `PiTagBits::High` (the PI's tag
///   part comes from the top of the address instead of adjacent bits).
#[derive(Debug)]
pub struct BCacheOracle {
    line_bytes: u64,
    addr_bits: u32,
    npi_bits: u32,
    pi_bits: u32,
    mf_bits: u32,
    high_tag_pi: bool,
    bas: usize,
    // slot = group * bas + way; `None` is a cold decoder entry (which by
    // the unique-decoding invariant is exactly an invalid block).
    entries: Vec<Option<BEntry>>,
    // Random's victim draws; `None` is LRU.
    random: Option<StdRng>,
    clock: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
    pd_hit_misses: u64,
    pd_miss_misses: u64,
}

impl BCacheOracle {
    /// Creates a cold B-Cache oracle. See the type docs for the field
    /// meanings; `policy` is the replacement policy and the seed of its
    /// random draws.
    ///
    /// # Panics
    ///
    /// Panics if `mf_bits > pi_bits` (the BAS would be fractional) or
    /// the widths exceed the address size.
    pub fn new(
        line_bytes: u64,
        addr_bits: u32,
        npi_bits: u32,
        pi_bits: u32,
        mf_bits: u32,
        high_tag_pi: bool,
        (kind, seed): (PolicyKind, u64),
    ) -> Self {
        assert!(line_bytes.is_power_of_two() && line_bytes > 0);
        assert!(mf_bits <= pi_bits, "MF cannot exceed the PI width");
        let offset_bits = line_bytes.trailing_zeros();
        assert!(offset_bits + npi_bits + pi_bits <= addr_bits + mf_bits);
        let groups = 1usize << npi_bits;
        let bas = 1usize << (pi_bits - mf_bits);
        BCacheOracle {
            line_bytes,
            addr_bits,
            npi_bits,
            pi_bits,
            mf_bits,
            high_tag_pi,
            bas,
            entries: (0..groups * bas).map(|_| None).collect(),
            random: random(kind, seed),
            clock: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
            pd_hit_misses: 0,
            pd_miss_misses: 0,
        }
    }

    /// Hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty evictions recorded so far.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Misses on which the symbolic PD matched (forced victim).
    pub fn pd_hit_misses(&self) -> u64 {
        self.pd_hit_misses
    }

    /// Misses on which the symbolic PD also missed (policy victim).
    pub fn pd_miss_misses(&self) -> u64 {
        self.pd_miss_misses
    }

    /// Number of NPI groups.
    pub fn groups(&self) -> usize {
        1 << self.npi_bits
    }

    /// Decomposes an address into (group, pi, block) from first
    /// principles: plain shifts-as-division on the block number rather
    /// than the production [`crate::addr::Addr::bits`] extraction.
    fn fields(&self, addr: Addr) -> (usize, u64, u64) {
        let masked = if self.addr_bits >= 64 {
            addr.raw()
        } else {
            addr.raw() & ((1u64 << self.addr_bits) - 1)
        };
        let block = masked / self.line_bytes;
        let groups = 1u64 << self.npi_bits;
        let group = (block % groups) as usize;
        let above_npi = block / groups;
        let pi = if self.high_tag_pi {
            // Index part next to the NPI, tag part from the address top.
            let bas_bits = self.pi_bits - self.mf_bits;
            let index_part = above_npi % (1u64 << bas_bits);
            let tag_part = if self.mf_bits == 0 {
                0
            } else {
                (masked >> (self.addr_bits - self.mf_bits)) % (1u64 << self.mf_bits)
            };
            (tag_part << bas_bits) | index_part
        } else if self.pi_bits == 0 {
            0
        } else {
            above_npi % (1u64 << self.pi_bits)
        };
        (group, pi, block)
    }

    /// Recomputes the BAS candidate set for `pi` in `group` and asserts
    /// the unique-decoding invariant on the symbolic PD contents.
    fn matching_way(&self, group: usize, pi: u64) -> Option<usize> {
        let base = group * self.bas;
        let matches: Vec<usize> = (0..self.bas)
            .filter(|&w| self.entries[base + w].as_ref().is_some_and(|e| e.pi == pi))
            .collect();
        assert!(
            matches.len() <= 1,
            "oracle PD lost unique decoding in group {group}: ways {matches:?} share PI {pi:#x}"
        );
        matches.first().copied()
    }

    fn choose_victim(&mut self, group: usize) -> usize {
        let base = group * self.bas;
        match self.random.as_mut() {
            Some(rng) => rng.gen_range(0..self.bas),
            None => (0..self.bas)
                .min_by_key(|&w| self.entries[base + w].as_ref().map_or(0, |e| e.last_use))
                .expect("nonzero BAS"),
        }
    }

    fn evict(&mut self, group: usize, way: usize) -> Option<Eviction> {
        let old = self.entries[group * self.bas + way].take()?;
        if old.dirty {
            self.writebacks += 1;
        }
        Some(Eviction {
            block: Addr::new(old.block * self.line_bytes),
            dirty: old.dirty,
        })
    }

    fn fill(&mut self, group: usize, way: usize, pi: u64, block: u64, dirty: bool) {
        self.entries[group * self.bas + way] = Some(BEntry {
            pi,
            block,
            dirty,
            last_use: self.clock,
        });
    }

    /// Runs one access and returns what must happen.
    pub fn access(&mut self, addr: Addr, kind: AccessKind) -> OracleOutcome {
        let (group, pi, block) = self.fields(addr);
        self.clock += 1;
        match self.matching_way(group, pi) {
            Some(way) => {
                let entry = self.entries[group * self.bas + way]
                    .as_mut()
                    .expect("matching PD entry has a resident block");
                if entry.block == block {
                    // PD hit + tag hit.
                    entry.last_use = self.clock;
                    if kind.is_write() {
                        entry.dirty = true;
                    }
                    self.hits += 1;
                    OracleOutcome {
                        hit: true,
                        evicted: None,
                    }
                } else {
                    // PD hit + tag miss: forced victim — evicting any
                    // other way would leave two identical PIs decoded.
                    self.misses += 1;
                    self.pd_hit_misses += 1;
                    let ev = self.evict(group, way);
                    self.fill(group, way, pi, block, kind.is_write());
                    OracleOutcome {
                        hit: false,
                        evicted: ev,
                    }
                }
            }
            None => {
                // PD miss: predetermined miss; fill a cold way or the
                // replacement victim and reprogram its entry.
                self.misses += 1;
                self.pd_miss_misses += 1;
                let base = group * self.bas;
                let way = match (0..self.bas).find(|&w| self.entries[base + w].is_none()) {
                    Some(w) => w,
                    None => self.choose_victim(group),
                };
                let ev = self.evict(group, way);
                self.fill(group, way, pi, block, kind.is_write());
                OracleOutcome {
                    hit: false,
                    evicted: ev,
                }
            }
        }
    }
}

/// Number of distinct blocks touched by `addrs` — the compulsory-miss
/// lower bound every demand-fill cache must respect.
pub fn distinct_blocks<I: IntoIterator<Item = Addr>>(addrs: I, line_bytes: u64) -> u64 {
    let mut blocks: Vec<u64> = addrs.into_iter().map(|a| a.raw() / line_bytes).collect();
    blocks.sort_unstable();
    blocks.dedup();
    blocks.len() as u64
}

/// A reference victim cache: a direct-mapped main array plus an
/// `entries`-block fully-associative buffer holding blocks the main
/// array evicted, write-back/write-allocate.
///
/// A main-array hit hits. A main-array miss that finds its block in the
/// buffer swaps it with the main array's resident and counts as a hit. A
/// full miss fills the main array and demotes the old resident into the
/// buffer; when that overflows the buffer, its least recently demoted
/// block leaves the cache and is the reported eviction. A buffer hit
/// removes its block, so demotion order is the buffer's LRU order.
///
/// # Examples
///
/// ```
/// use cache_sim::{AccessKind, Addr, CacheModel, VictimCache};
/// use cache_sim::oracle::VictimOracle;
///
/// let mut vc = VictimCache::new(256, 32, 2)?;
/// let mut oracle = VictimOracle::new(256, 32, 2, 32);
/// for addr in [0u64, 256, 512, 0, 768, 256] {
///     let got = vc.access(Addr::new(addr), AccessKind::Write);
///     let want = oracle.access(Addr::new(addr), AccessKind::Write);
///     assert_eq!(want.diff(&got), None);
/// }
/// # Ok::<(), cache_sim::GeometryError>(())
/// ```
#[derive(Debug)]
pub struct VictimOracle {
    sets: u64,
    entries: usize,
    line_bytes: u64,
    addr_mask: u64,
    /// `(block, dirty)` of each main-array set's resident.
    main: Vec<Option<(u64, bool)>>,
    /// `(block, dirty)` of the buffered blocks, least recently demoted
    /// first.
    buffer: VecDeque<(u64, bool)>,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl VictimOracle {
    /// Creates a cold oracle of a `size_bytes` direct-mapped array of
    /// `line_bytes` lines and an `entries`-block buffer, decoding
    /// `addr_bits`-bit addresses.
    ///
    /// # Panics
    ///
    /// Panics if the line size is zero or larger than the array.
    pub fn new(size_bytes: usize, line_bytes: usize, entries: usize, addr_bits: u32) -> Self {
        assert!(line_bytes > 0 && size_bytes >= line_bytes);
        let sets = size_bytes / line_bytes;
        VictimOracle {
            sets: sets as u64,
            entries,
            line_bytes: line_bytes as u64,
            addr_mask: if addr_bits >= 64 {
                u64::MAX
            } else {
                (1u64 << addr_bits) - 1
            },
            main: vec![None; sets],
            buffer: VecDeque::new(),
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// Hits (main array or buffer) recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty evictions recorded so far.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Runs one access and returns what must happen.
    pub fn access(&mut self, addr: Addr, kind: AccessKind) -> OracleOutcome {
        let block = (addr.raw() & self.addr_mask) / self.line_bytes;
        let set = (block % self.sets) as usize;
        let write = kind.is_write();
        if let Some((resident, dirty)) = self.main[set].as_mut() {
            if *resident == block {
                *dirty |= write;
                self.hits += 1;
                return OracleOutcome {
                    hit: true,
                    evicted: None,
                };
            }
        }
        let buffered = self.buffer.iter().position(|&(b, _)| b == block);
        let hit = buffered.is_some();
        let dirty = buffered
            .and_then(|i| self.buffer.remove(i))
            .is_some_and(|(_, dirty)| dirty);
        let demoted = self.main[set].replace((block, dirty || write));
        self.buffer.extend(demoted);
        let mut evicted = None;
        if self.buffer.len() > self.entries {
            let (out, out_dirty) = self.buffer.pop_front().expect("overfull buffer");
            self.writebacks += u64::from(out_dirty);
            evicted = Some(Eviction {
                block: Addr::new(out * self.line_bytes),
                dirty: out_dirty,
            });
        }
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        OracleOutcome { hit, evicted }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::DirectMappedCache;
    use crate::model::CacheModel;
    use crate::set_assoc::SetAssociativeCache;

    fn lcg_stream(seed: u64, len: usize, span: u64) -> Vec<(u64, bool)> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 16) % span, x & 4 == 0)
            })
            .collect()
    }

    fn kind(w: bool) -> AccessKind {
        if w {
            AccessKind::Write
        } else {
            AccessKind::Read
        }
    }

    #[test]
    fn oracle_matches_direct_mapped_exactly() {
        let mut dm = DirectMappedCache::new(512, 32).unwrap();
        let mut oracle = OracleCache::new(512, 32, 1, PolicyKind::Lru, 0, 32);
        for (addr, w) in lcg_stream(1, 4000, 1 << 14) {
            let got = dm.access(Addr::new(addr), kind(w));
            let want = oracle.access(Addr::new(addr), kind(w));
            assert_eq!(want.diff(&got), None, "at {addr:#x}");
        }
        assert_eq!(oracle.misses(), dm.stats().total().misses());
        assert_eq!(oracle.writebacks(), dm.stats().writebacks());
    }

    #[test]
    fn victim_oracle_matches_the_victim_cache_at_every_buffer_width() {
        use crate::victim::VictimCache;
        for entries in [1usize, 2, 4, 8, 16, 32] {
            let mut vc = VictimCache::new(512, 32, entries).unwrap();
            let mut oracle = VictimOracle::new(512, 32, entries, 32);
            for (addr, w) in lcg_stream(entries as u64, 5000, 1 << 13) {
                let got = vc.access(Addr::new(addr), kind(w));
                let want = oracle.access(Addr::new(addr), kind(w));
                assert_eq!(want.diff(&got), None, "{entries} entries at {addr:#x}");
            }
            let t = vc.stats().total();
            assert_eq!(
                (t.hits(), t.misses(), vc.stats().writebacks()),
                (oracle.hits(), oracle.misses(), oracle.writebacks()),
                "{entries} entries"
            );
            assert!(oracle.writebacks() > 0);
        }
    }

    #[test]
    fn oracle_matches_set_assoc_for_every_policy() {
        for (kind_, stream_seed) in [(PolicyKind::Lru, 2), (PolicyKind::Random, 4)] {
            let mut sa = SetAssociativeCache::new(1024, 32, 4, kind_, 77).unwrap();
            let mut oracle = OracleCache::new(1024, 32, 4, kind_, 77, 32);
            for (addr, w) in lcg_stream(stream_seed, 5000, 1 << 13) {
                let got = sa.access(Addr::new(addr), kind(w));
                let want = oracle.access(Addr::new(addr), kind(w));
                assert_eq!(want.diff(&got), None, "{kind_:?} at {addr:#x}");
            }
            assert_eq!(oracle.hits(), sa.stats().total().hits(), "{kind_:?}");
        }
    }

    #[test]
    fn bcache_oracle_degenerates_to_direct_mapped() {
        // MF = 1, BAS = 1: the whole index is the NPI and the oracle must
        // replay direct-mapped behaviour exactly.
        let mut dm = DirectMappedCache::new(512, 32).unwrap();
        let mut oracle = BCacheOracle::new(32, 32, 4, 0, 0, false, (PolicyKind::Lru, 0));
        for (addr, w) in lcg_stream(9, 4000, 1 << 13) {
            let got = dm.access(Addr::new(addr), kind(w));
            let want = oracle.access(Addr::new(addr), kind(w));
            assert_eq!(want.diff(&got), None, "at {addr:#x}");
        }
        assert_eq!(
            oracle.pd_hit_misses() + oracle.pd_miss_misses(),
            oracle.misses()
        );
    }

    #[test]
    fn distinct_blocks_counts_lines_not_bytes() {
        let addrs = [0u64, 4, 31, 32, 64, 64].map(Addr::new);
        assert_eq!(distinct_blocks(addrs, 32), 3);
    }

    #[test]
    fn outcome_diff_reports_field() {
        let want = OracleOutcome {
            hit: true,
            evicted: None,
        };
        assert!(want
            .diff(&AccessResult::miss(None))
            .unwrap()
            .contains("hit"));
        assert_eq!(want.diff(&AccessResult::hit()), None);
    }
}

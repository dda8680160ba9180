//! The difference-bit cache (Juan, Lang & Navarro), a related-work
//! baseline from Section 7.2 of the paper.
//!
//! A 2-way set-associative cache with an access time close to a
//! direct-mapped cache: since the two tags of a set must differ in at
//! least one bit position, a special decoder remembers one such
//! *difference bit* per set and uses the address's value at that
//! position to select the way directly — no full-tag comparison on the
//! way-select path, hence one cycle. The paper's counterpoints: its
//! access path is still slower than the B-Cache's and a 2-way miss rate
//! is the ceiling.

use crate::addr::Addr;
use crate::geometry::{CacheGeometry, GeometryError};
use crate::model::{AccessKind, AccessResult, CacheModel};
use crate::packed;
use crate::replacement::{Lru, PolicyKind, ReplacementPolicy};
use crate::set_assoc::{Parts, SetAssociativeCache, StepOutcome};
use crate::stats::{CacheStats, SetUsage};

/// A 2-way difference-bit cache.
///
/// Functionally (hits/misses) identical to a 2-way LRU cache; this model
/// additionally maintains the per-set difference-bit metadata and counts
/// how often a fill forces it to be recomputed — the bookkeeping the
/// special decoder performs in hardware.
///
/// Both access paths run one step — the decoder bookkeeping around the
/// shared set-associative step — so the batched path is bit-identical
/// to the per-access one.
///
/// # Examples
///
/// ```
/// use cache_sim::{AccessKind, CacheModel, DifferenceBitCache};
///
/// let mut c = DifferenceBitCache::new(16 * 1024, 32)?;
/// c.access(0x0u64.into(), AccessKind::Read);
/// assert!(c.access(0x4u64.into(), AccessKind::Read).hit);
/// # Ok::<(), cache_sim::GeometryError>(())
/// ```
#[derive(Debug)]
pub struct DifferenceBitCache {
    inner: SetAssociativeCache,
    // The difference-bit position per set (valid when both ways full),
    // derived from the two tags the inner array's packed words hold.
    diff_bit: Vec<Option<u32>>,
}

impl DifferenceBitCache {
    /// Creates a 2-way difference-bit cache.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] for invalid shapes.
    pub fn new(size_bytes: usize, line_bytes: usize) -> Result<Self, GeometryError> {
        let inner = SetAssociativeCache::new(size_bytes, line_bytes, 2, PolicyKind::Lru, 0)?;
        let sets = inner.geometry().sets();
        Ok(DifferenceBitCache {
            inner,
            diff_bit: vec![None; sets],
        })
    }

    /// How many fills recomputed a set's difference bit: every miss
    /// fills, and every fill recomputes it.
    pub fn diff_bit_updates(&self) -> u64 {
        self.inner.stats().total().misses()
    }

    /// The way the difference-bit decoder would select for `addr`, when
    /// the set is full (`None` during warm-up).
    pub fn selected_way(&self, addr: Addr) -> Option<usize> {
        let geom = self.inner.geometry();
        let set = geom.set_index(addr);
        let bit = self.diff_bit[set]?;
        Some(routed_way(
            bit,
            self.inner.set_words(set)[0],
            geom.tag(addr),
        ))
    }
}

/// The difference bit of a full set: the lowest position where its two
/// stored tags differ (`None` while a way is still empty).
fn difference_bit(ways: &[u64]) -> Option<u32> {
    let (a, b) = (ways[0], ways[1]);
    if !(packed::is_valid(a) && packed::is_valid(b)) {
        return None;
    }
    debug_assert_ne!(
        packed::tag(a),
        packed::tag(b),
        "two ways of a set can never hold equal tags"
    );
    Some((packed::tag(a) ^ packed::tag(b)).trailing_zeros())
}

/// The way the decoder selects for `tag`: the one whose stored tag
/// agrees with it at the set's difference bit `bit`.
fn routed_way(bit: u32, way0: u64, tag: u64) -> usize {
    usize::from((packed::tag(way0) >> bit) & 1 != (tag >> bit) & 1)
}

/// One difference-bit access: the decoder's invariant check, the shared
/// set-associative step, and on a fill the set's difference bit
/// recomputed from its new pair of tags. Shared by both access paths,
/// so they agree by construction — statistics and decoder state.
#[inline(always)]
fn step<P: ReplacementPolicy + ?Sized>(
    parts: &mut Parts<'_>,
    policy: &mut P,
    diff_bit: &mut [Option<u32>],
    addr: Addr,
    kind: AccessKind,
) -> StepOutcome {
    let set = parts.split.set_index(addr);
    let tag = parts.split.tag(addr);
    // Before mutating: if the block is resident and the set is full,
    // the difference bit must select the way that holds it.
    if let Some(bit) = diff_bit[set] {
        let ways = parts.set_words(set);
        debug_assert!(
            !packed::matches(ways[1 - routed_way(bit, ways[0], tag)], tag),
            "difference bit must never route a hit to the wrong way"
        );
    }
    let out = parts.step_one::<P, 2>(policy, addr, kind);
    if !out.hit {
        diff_bit[set] = difference_bit(parts.set_words(set));
    }
    out
}

impl CacheModel for DifferenceBitCache {
    fn access(&mut self, addr: Addr, kind: AccessKind) -> AccessResult {
        let geom = self.inner.geometry();
        let (mut parts, policy) = self.inner.parts();
        let out = step(&mut parts, policy, &mut self.diff_bit, addr, kind);
        parts.finish();
        out.result(&geom)
    }

    fn access_batch(&mut self, accesses: &[(Addr, AccessKind)]) {
        // Shared-step replay with register-tallied stats and the inner
        // LRU devirtualized.
        let diff_bit = &mut self.diff_bit[..];
        let (mut parts, policy) = self.inner.parts();
        macro_rules! kernel {
            ($policy:expr) => {{
                let p = $policy;
                for &(addr, kind) in accesses {
                    step(&mut parts, p, diff_bit, addr, kind);
                }
            }};
        }
        if let Some(lru) = policy.as_any_mut().downcast_mut::<Lru>() {
            kernel!(lru)
        } else {
            kernel!(policy)
        }
        parts.finish();
    }

    fn stats(&self) -> &CacheStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn geometry(&self) -> CacheGeometry {
        self.inner.geometry()
    }

    fn set_usage(&self) -> Option<&SetUsage> {
        self.inner.set_usage()
    }

    fn label(&self) -> String {
        format!("{}k-diffbit", self.geometry().size_bytes() / 1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DifferenceBitCache {
        DifferenceBitCache::new(256, 32).unwrap()
    }

    #[test]
    fn behaves_like_two_way() {
        let mut db = tiny();
        let mut sa = SetAssociativeCache::new(256, 32, 2, PolicyKind::Lru, 0).unwrap();
        let mut x = 3u64;
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = Addr::new((x >> 15) % 4096);
            assert_eq!(
                db.access(addr, AccessKind::Read).hit,
                sa.access(addr, AccessKind::Read).hit
            );
        }
        assert_eq!(db.stats().total(), sa.stats().total());
    }

    #[test]
    fn difference_bit_selects_the_right_way() {
        let mut c = tiny();
        // 4 sets: tag = addr >> 7. Two blocks in set 0 with tags 1 and 2
        // (differ at bit 0).
        let a = Addr::new(1 << 7);
        let b = Addr::new(2 << 7);
        c.access(a, AccessKind::Read);
        c.access(b, AccessKind::Read);
        let wa = c.selected_way(a).unwrap();
        let wb = c.selected_way(b).unwrap();
        assert_ne!(
            wa, wb,
            "the two resident blocks must route to different ways"
        );
        // The routed accesses hit.
        assert!(c.access(a, AccessKind::Read).hit);
        assert!(c.access(b, AccessKind::Read).hit);
    }

    #[test]
    fn diff_bit_is_a_real_differing_position() {
        let mut c = tiny();
        c.access(Addr::new(5 << 7), AccessKind::Read); // tag 5 = 0b101
        c.access(Addr::new(4 << 7), AccessKind::Read); // tag 4 = 0b100
        assert_eq!(c.diff_bit[0], Some(0), "5 ^ 4 = 1: bit 0 differs");
        // Replace tag 5 (LRU) with tag 6: 6 ^ 4 = 2 -> bit 1.
        c.access(Addr::new(4 << 7), AccessKind::Read);
        c.access(Addr::new(6 << 7), AccessKind::Read);
        assert_eq!(c.diff_bit[0], Some(1));
    }

    #[test]
    fn updates_counted_per_fill() {
        let mut c = tiny();
        c.access(Addr::new(0), AccessKind::Read);
        c.access(Addr::new(1 << 7), AccessKind::Read);
        assert_eq!(c.diff_bit_updates(), 2);
        c.access(Addr::new(0), AccessKind::Read); // hit: no update
        assert_eq!(c.diff_bit_updates(), 2);
        c.reset_stats();
        assert_eq!(c.diff_bit_updates(), 0);
    }

    #[test]
    fn warm_up_has_no_diff_bit() {
        let mut c = tiny();
        assert_eq!(c.selected_way(Addr::new(0)), None);
        c.access(Addr::new(0), AccessKind::Read);
        assert_eq!(c.selected_way(Addr::new(0)), None, "one way still empty");
    }

    #[test]
    fn label_is_descriptive() {
        assert_eq!(
            DifferenceBitCache::new(16 * 1024, 32).unwrap().label(),
            "16k-diffbit"
        );
    }

    fn fuzz_accesses(records: usize, seed: u64) -> Vec<(Addr, AccessKind)> {
        let mut x = seed ^ 0x2468_ACE0u64;
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
        let mut looped = DifferenceBitCache::new(1024, 32).unwrap();
        let mut batched = DifferenceBitCache::new(1024, 32).unwrap();
        let accesses = fuzz_accesses(6_000, 3);
        for &(addr, kind) in &accesses {
            looped.access(addr, kind);
        }
        batched.access_batch(&accesses);
        assert_eq!(looped.stats(), batched.stats());
        assert_eq!(looped.diff_bit, batched.diff_bit, "difference bits");
    }

    /// Differential hook: this cache is contractually an n-way LRU array
    /// (the lookup machinery changes latency/energy, never hits, misses
    /// or evictions), so the reference oracle must track it exactly.
    #[test]
    fn matches_reference_oracle() {
        use crate::oracle::OracleCache;
        let mut model = DifferenceBitCache::new(1024, 32).unwrap();
        let mut oracle = OracleCache::new(1024, 32, 2, crate::PolicyKind::Lru, 0, 32);
        let mut x = 0x2468_ACE0u64;
        for i in 0..4000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = ((x >> 16) % 256) * 32;
            let kind = if x & 4 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let got = model.access(Addr::new(addr), kind);
            let want = oracle.access(Addr::new(addr), kind);
            assert_eq!(want.diff(&got), None, "access {i} at {addr:#x}");
        }
    }
}

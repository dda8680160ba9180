//! Partial address matching (PAM), a related-work baseline from
//! Section 7.2 of the paper.
//!
//! A 2-way set-associative cache whose tag store is split into a fast
//! *partial address directory* (PAD, a few low tag bits) used to predict
//! the hit way, and the full *main directory* (MD) that verifies it.
//! When the PAD prediction is wrong — either a partial-tag alias or a
//! PAD miss on a resident block (impossible here; aliases are the issue)
//! — a second cycle is needed. The B-Cache's counterargument: every
//! B-Cache hit is one cycle, with a miss rate a 2-way cache cannot reach.

use crate::addr::Addr;
use crate::geometry::{CacheGeometry, GeometryError};
use crate::model::{AccessKind, AccessResult, CacheModel};
use crate::packed;
use crate::replacement::{Lru, PolicyKind, ReplacementPolicy};
use crate::set_assoc::{Parts, SetAssociativeCache, StepOutcome};
use crate::stats::{CacheStats, SetUsage};

/// A 2-way cache with PAD-based way prediction.
///
/// Functionally (for hits/misses) identical to a 2-way LRU cache; the
/// added value is the latency model: a hit whose way was mispredicted by
/// the partial-tag comparison costs one extra cycle
/// ([`AccessResult::extra_latency`]).
///
/// Both access paths run one step — the PAD prediction, then the shared
/// set-associative step — so the batched path is bit-identical to the
/// per-access one.
///
/// # Examples
///
/// ```
/// use cache_sim::{AccessKind, CacheModel, PartialMatchCache};
///
/// let mut pam = PartialMatchCache::new(16 * 1024, 32, 5)?;
/// pam.access(0x0u64.into(), AccessKind::Read);
/// assert!(pam.access(0x4u64.into(), AccessKind::Read).hit);
/// # Ok::<(), cache_sim::GeometryError>(())
/// ```
#[derive(Debug)]
pub struct PartialMatchCache {
    // The PAD is the low `pad_bits` of the tags the inner array's
    // packed words already hold.
    inner: SetAssociativeCache,
    pad_bits: u32,
    second_cycle_hits: u64,
}

impl PartialMatchCache {
    /// Creates a 2-way PAM cache with `pad_bits` of partial tag (the
    /// paper's example uses 5).
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] for invalid shapes.
    pub fn new(size_bytes: usize, line_bytes: usize, pad_bits: u32) -> Result<Self, GeometryError> {
        let inner = SetAssociativeCache::new(size_bytes, line_bytes, 2, PolicyKind::Lru, 0)?;
        Ok(PartialMatchCache {
            inner,
            pad_bits,
            second_cycle_hits: 0,
        })
    }

    fn pad_mask(&self) -> u64 {
        (1u64 << self.pad_bits) - 1
    }

    /// Hits that needed the second (corrective) cycle.
    pub fn second_cycle_hits(&self) -> u64 {
        self.second_cycle_hits
    }

    /// Fraction of hits served in the first cycle.
    pub fn first_cycle_hit_fraction(&self) -> f64 {
        let hits = self.inner.stats().total().hits();
        if hits == 0 {
            1.0
        } else {
            1.0 - self.second_cycle_hits as f64 / hits as f64
        }
    }
}

/// One PAM access: the PAD prediction over the set's packed words —
/// the first way whose low `pad_mask` tag bits match — then the shared
/// set-associative step. Returns the step's outcome and whether a hit
/// needed the corrective second cycle (the predicted way was a
/// partial-tag alias, not the block's way). Shared by both access paths,
/// so they agree by construction — statistics and prediction counters.
#[inline(always)]
fn step<P: ReplacementPolicy + ?Sized>(
    parts: &mut Parts<'_>,
    policy: &mut P,
    pad_mask: u64,
    addr: Addr,
    kind: AccessKind,
) -> (StepOutcome, bool) {
    let tag = parts.split.tag(addr);
    let ways = parts.set_words(parts.split.set_index(addr));
    let predicted = ways
        .iter()
        .position(|&w| packed::is_valid(w) && (packed::tag(w) ^ tag) & pad_mask == 0);
    let actual = ways.iter().position(|&w| packed::matches(w, tag));
    let out = parts.step_one::<P, 2>(policy, addr, kind);
    let second_cycle = out.hit && predicted != actual;
    (out, second_cycle)
}

impl CacheModel for PartialMatchCache {
    fn access(&mut self, addr: Addr, kind: AccessKind) -> AccessResult {
        let geom = self.inner.geometry();
        let pad_mask = self.pad_mask();
        let (mut parts, policy) = self.inner.parts();
        let (out, second_cycle) = step(&mut parts, policy, pad_mask, addr, kind);
        parts.finish();
        self.second_cycle_hits += second_cycle as u64;
        let mut result = out.result(&geom);
        result.extra_latency = second_cycle as u32;
        result
    }

    fn access_batch(&mut self, accesses: &[(Addr, AccessKind)]) {
        // Shared-step replay with register-tallied stats and the inner
        // LRU devirtualized.
        let pad_mask = self.pad_mask();
        let mut second_cycle = 0u64;
        let (mut parts, policy) = self.inner.parts();
        macro_rules! kernel {
            ($policy:expr) => {{
                let p = $policy;
                for &(addr, kind) in accesses {
                    second_cycle += step(&mut parts, p, pad_mask, addr, kind).1 as u64;
                }
            }};
        }
        if let Some(lru) = policy.as_any_mut().downcast_mut::<Lru>() {
            kernel!(lru)
        } else {
            kernel!(policy)
        }
        parts.finish();
        self.second_cycle_hits += second_cycle;
    }

    fn stats(&self) -> &CacheStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
        self.second_cycle_hits = 0;
    }

    fn geometry(&self) -> CacheGeometry {
        self.inner.geometry()
    }

    fn set_usage(&self) -> Option<&SetUsage> {
        self.inner.set_usage()
    }

    fn label(&self) -> String {
        format!(
            "{}k-pam{}",
            self.geometry().size_bytes() / 1024,
            self.pad_bits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_assoc::SetAssociativeCache;

    fn tiny() -> PartialMatchCache {
        PartialMatchCache::new(256, 32, 3).unwrap()
    }

    #[test]
    fn hit_miss_behaviour_equals_two_way() {
        let mut pam = tiny();
        let mut sa = SetAssociativeCache::new(256, 32, 2, PolicyKind::Lru, 0).unwrap();
        let mut x = 5u64;
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = Addr::new((x >> 13) % 4096);
            let a = pam.access(addr, AccessKind::Read);
            let b = sa.access(addr, AccessKind::Read);
            assert_eq!(a.hit, b.hit, "at {addr}");
        }
        assert_eq!(pam.stats().total(), sa.stats().total());
    }

    #[test]
    fn correct_predictions_are_single_cycle() {
        let mut pam = tiny();
        pam.access(Addr::new(0x40), AccessKind::Read);
        let r = pam.access(Addr::new(0x40), AccessKind::Read);
        assert!(r.hit);
        assert_eq!(r.extra_latency, 0);
        assert_eq!(pam.second_cycle_hits(), 0);
    }

    #[test]
    fn partial_tag_aliases_cost_a_second_cycle() {
        // Two blocks in the same set whose tags agree in the low 3 bits:
        // tags t and t + 8 (with 3 PAD bits).
        let mut pam = tiny();
        // 4 sets: tag = addr >> 7. Set 1: addr = 0x20.
        let a = Addr::new(0x20); // tag 0
        let b = Addr::new(0x20 + (8 << 7)); // tag 8: same low 3 bits as 0
        pam.access(a, AccessKind::Read);
        pam.access(b, AccessKind::Read);
        // Accessing `b` predicts way 0 (block a's partial tag matches
        // first) but the block lives in way 1: second-cycle hit.
        let r = pam.access(b, AccessKind::Read);
        assert!(r.hit);
        assert_eq!(r.extra_latency, 1);
        assert!(pam.second_cycle_hits() >= 1);
    }

    #[test]
    fn distinct_partial_tags_predict_perfectly() {
        let mut pam = tiny();
        let a = Addr::new(0x20); // tag 0
        let b = Addr::new(0x20 + (1 << 7)); // tag 1: differs in PAD bits
        pam.access(a, AccessKind::Read);
        pam.access(b, AccessKind::Read);
        assert_eq!(pam.access(a, AccessKind::Read).extra_latency, 0);
        assert_eq!(pam.access(b, AccessKind::Read).extra_latency, 0);
        assert!((pam.first_cycle_hit_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_prediction_counters() {
        let mut pam = tiny();
        pam.access(Addr::new(0x20), AccessKind::Read);
        pam.access(Addr::new(0x20 + (8 << 7)), AccessKind::Read);
        pam.access(Addr::new(0x20 + (8 << 7)), AccessKind::Read);
        pam.reset_stats();
        assert_eq!(pam.second_cycle_hits(), 0);
        assert_eq!(pam.stats().total().accesses(), 0);
    }

    #[test]
    fn label_mentions_pad_width() {
        assert_eq!(
            PartialMatchCache::new(16 * 1024, 32, 5).unwrap().label(),
            "16k-pam5"
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
        let mut looped = PartialMatchCache::new(1024, 32, 3).unwrap();
        let mut batched = PartialMatchCache::new(1024, 32, 3).unwrap();
        let accesses = fuzz_accesses(6_000, 2);
        for &(addr, kind) in &accesses {
            looped.access(addr, kind);
        }
        batched.access_batch(&accesses);
        assert_eq!(looped.stats(), batched.stats());
        assert_eq!(
            looped.second_cycle_hits, batched.second_cycle_hits,
            "second-cycle hit counters"
        );
    }

    /// Differential hook: this cache is contractually an n-way LRU array
    /// (the lookup machinery changes latency/energy, never hits, misses
    /// or evictions), so the reference oracle must track it exactly.
    #[test]
    fn matches_reference_oracle() {
        use crate::oracle::OracleCache;
        let mut model = PartialMatchCache::new(1024, 32, 3).unwrap();
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

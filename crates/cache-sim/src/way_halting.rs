//! The way-halting cache (Zhang et al.), mentioned in Section 6.8 of the
//! B-Cache paper alongside the skewed-associative cache.
//!
//! A set-associative cache that stores the low few tag bits of every way
//! in a small fully-parallel "halt tag" array searched concurrently with
//! decoding: ways whose halt tag mismatches are *halted* — their data and
//! full-tag arrays are never enabled — saving energy without touching the
//! miss rate or adding cycles. Like the B-Cache's PD, the halt tags need
//! address bits before translation completes, which is why the paper
//! discusses the two designs together.

use telemetry::{NullObserver, Observer};

use crate::addr::Addr;
use crate::geometry::{CacheGeometry, GeometryError};
use crate::model::{AccessKind, AccessResult, CacheModel};
use crate::packed;
use crate::replacement::{Lru, PolicyKind, ReplacementPolicy};
use crate::set_assoc::{Parts, SetAssociativeCache, StepOutcome};
use crate::stats::{CacheStats, SetUsage};

/// A set-associative cache with way halting.
///
/// Functionally identical to the wrapped LRU cache; the added value is
/// the energy-relevant statistic: how many way accesses the halt tags
/// suppressed ([`WayHaltingCache::halted_fraction`]).
///
/// Both access paths run one step — the halt-tag scan, then the shared
/// set-associative step — so the batched path is bit-identical to the
/// per-access one: statistics, halt counters, and [`Observer`] events
/// alike.
///
/// # Examples
///
/// ```
/// use cache_sim::{AccessKind, CacheModel, WayHaltingCache};
///
/// let mut c = WayHaltingCache::new(16 * 1024, 32, 4, 4)?;
/// c.access(0x0u64.into(), AccessKind::Read);
/// assert!(c.access(0x4u64.into(), AccessKind::Read).hit);
/// telemetry::tele_info!("halted {:.0}% of way lookups", c.halted_fraction() * 100.0);
/// # Ok::<(), cache_sim::GeometryError>(())
/// ```
#[derive(Debug)]
pub struct WayHaltingCache<O: Observer = NullObserver> {
    inner: SetAssociativeCache<O>,
    halt_bits: u32,
    ways_halted: u64,
}

impl WayHaltingCache {
    /// Creates a way-halting cache with `halt_bits` of halt tag per way
    /// (the original design uses 4).
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] for invalid shapes.
    pub fn new(
        size_bytes: usize,
        line_bytes: usize,
        assoc: usize,
        halt_bits: u32,
    ) -> Result<Self, GeometryError> {
        Self::with_observer(size_bytes, line_bytes, assoc, halt_bits, NullObserver)
    }
}

impl<O: Observer> WayHaltingCache<O> {
    /// Like [`WayHaltingCache::new`], with an observer wired into both
    /// access paths.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] for invalid shapes.
    pub fn with_observer(
        size_bytes: usize,
        line_bytes: usize,
        assoc: usize,
        halt_bits: u32,
        observer: O,
    ) -> Result<Self, GeometryError> {
        let inner = SetAssociativeCache::with_observer(
            size_bytes,
            line_bytes,
            assoc,
            PolicyKind::Lru,
            0,
            observer,
        )?;
        Ok(WayHaltingCache {
            inner,
            halt_bits,
            ways_halted: 0,
        })
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        self.inner.observer()
    }

    /// Mutable access to the attached observer.
    pub fn observer_mut(&mut self) -> &mut O {
        self.inner.observer_mut()
    }

    /// Fraction of way lookups suppressed by the halt tags; the original
    /// paper reports 50–90% of ways halted on average.
    pub fn halted_fraction(&self) -> f64 {
        // Every access examines every way of its set.
        let examined = self.inner.stats().total().accesses() * self.geometry().assoc() as u64;
        if examined == 0 {
            0.0
        } else {
            self.ways_halted as f64 / examined as f64
        }
    }

    fn halt_mask(&self) -> u64 {
        (1u64 << self.halt_bits) - 1
    }

    /// Ways whose full lookup was suppressed.
    pub fn ways_halted(&self) -> u64 {
        self.ways_halted
    }
}

/// One way-halting access: the halt-tag scan over the set's packed
/// words, then the shared set-associative step. The halt decision needs
/// exactly what the packed tag array already holds: a way halts when it
/// is empty or its stored tag's low bits mismatch the incoming
/// address's. Shared by both access paths, so they agree by
/// construction — statistics, halt counters and [`Observer`] events.
#[inline(always)]
fn step<P: ReplacementPolicy + ?Sized, O: Observer, const A: usize>(
    parts: &mut Parts<'_, O>,
    policy: &mut P,
    halt_mask: u64,
    halted: &mut u64,
    addr: Addr,
    kind: AccessKind,
) -> StepOutcome {
    let set = parts.split.set_index(addr);
    let tag = parts.split.tag(addr);
    for &w in parts.set_words(set) {
        *halted += (!packed::is_valid(w) || (packed::tag(w) ^ tag) & halt_mask != 0) as u64;
    }
    parts.step_one::<P, A>(policy, addr, kind)
}

impl<O: Observer> CacheModel for WayHaltingCache<O> {
    fn access(&mut self, addr: Addr, kind: AccessKind) -> AccessResult {
        let geom = self.inner.geometry();
        let halt_mask = self.halt_mask();
        let (mut parts, policy) = self.inner.parts();
        let out = step::<_, _, 0>(
            &mut parts,
            policy,
            halt_mask,
            &mut self.ways_halted,
            addr,
            kind,
        );
        parts.finish();
        out.result(&geom)
    }

    fn access_batch(&mut self, accesses: &[(Addr, AccessKind)]) {
        // Shared-step replay with register-tallied stats, the inner LRU
        // devirtualized, and the way scans monomorphized for the common
        // associativities.
        let halt_mask = self.halt_mask();
        let mut halted = 0u64;
        let (mut parts, policy) = self.inner.parts();
        macro_rules! kernel {
            ($policy:expr, $a:literal) => {{
                let p = $policy;
                for &(addr, kind) in accesses {
                    step::<_, _, $a>(&mut parts, p, halt_mask, &mut halted, addr, kind);
                }
            }};
        }
        if let Some(lru) = policy.as_any_mut().downcast_mut::<Lru>() {
            match parts.assoc {
                2 => kernel!(lru, 2),
                4 => kernel!(lru, 4),
                8 => kernel!(lru, 8),
                _ => kernel!(lru, 0),
            }
        } else {
            kernel!(policy, 0)
        }
        parts.finish();
        self.ways_halted += halted;
    }

    fn stats(&self) -> &CacheStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
        self.ways_halted = 0;
    }

    fn geometry(&self) -> CacheGeometry {
        self.inner.geometry()
    }

    fn set_usage(&self) -> Option<&SetUsage> {
        self.inner.set_usage()
    }

    fn label(&self) -> String {
        format!(
            "{}k{}way-halt{}",
            self.geometry().size_bytes() / 1024,
            self.geometry().assoc(),
            self.halt_bits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> WayHaltingCache {
        WayHaltingCache::new(512, 32, 4, 4).unwrap()
    }

    #[test]
    fn miss_rate_equals_plain_set_associative() {
        let mut wh = tiny();
        let mut sa = SetAssociativeCache::new(512, 32, 4, PolicyKind::Lru, 0).unwrap();
        let mut x = 11u64;
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = Addr::new((x >> 14) % 8192);
            assert_eq!(
                wh.access(addr, AccessKind::Read).hit,
                sa.access(addr, AccessKind::Read).hit
            );
        }
        assert_eq!(wh.stats().total(), sa.stats().total());
    }

    #[test]
    fn distinct_halt_tags_halt_most_ways() {
        let mut c = tiny();
        // Four blocks in set 0 with distinct low-4 tag bits.
        for tag in 0..4u64 {
            c.access(Addr::new(tag << 7), AccessKind::Read);
        }
        c.reset_stats();
        // Re-access each: the three other ways halt every time.
        for tag in 0..4u64 {
            assert!(c.access(Addr::new(tag << 7), AccessKind::Read).hit);
        }
        assert!(
            (c.halted_fraction() - 0.75).abs() < 1e-12,
            "{}",
            c.halted_fraction()
        );
    }

    #[test]
    fn aliased_halt_tags_cannot_halt() {
        let mut c = tiny();
        // Two blocks whose tags agree in the low 4 bits (tag 0 and 16).
        c.access(Addr::new(0), AccessKind::Read);
        c.access(Addr::new(16 << 7), AccessKind::Read);
        c.reset_stats();
        c.access(Addr::new(0), AccessKind::Read);
        // Of the 4 ways examined: the alias way cannot halt, two empty
        // ways halt -> 2 of 4.
        assert!(
            (c.halted_fraction() - 0.5).abs() < 1e-12,
            "{}",
            c.halted_fraction()
        );
    }

    #[test]
    fn reset_clears_halt_counters() {
        let mut c = tiny();
        c.access(Addr::new(0), AccessKind::Read);
        c.reset_stats();
        assert_eq!(c.ways_halted(), 0);
        assert_eq!(c.halted_fraction(), 0.0);
    }

    #[test]
    fn label_mentions_halting() {
        assert_eq!(
            WayHaltingCache::new(16 * 1024, 32, 4, 4).unwrap().label(),
            "16k4way-halt4"
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
                (Addr::new(((x >> 16) % 512) * 32), kind)
            })
            .collect()
    }

    #[test]
    fn access_batch_is_bit_identical_to_the_loop() {
        let mut looped = WayHaltingCache::new(2048, 32, 4, 4).unwrap();
        let mut batched = WayHaltingCache::new(2048, 32, 4, 4).unwrap();
        let accesses = fuzz_accesses(6_000, 1);
        for &(addr, kind) in &accesses {
            looped.access(addr, kind);
        }
        batched.access_batch(&accesses);
        assert_eq!(looped.stats(), batched.stats());
        assert_eq!(looped.ways_halted, batched.ways_halted, "halt counters");
    }

    #[test]
    fn observer_sees_identical_events_from_loop_and_batch() {
        use telemetry::EventRing;
        let accesses = fuzz_accesses(5_000, 13);
        let mut looped =
            WayHaltingCache::with_observer(2048, 32, 4, 4, EventRing::new(64 * 1024)).unwrap();
        let mut batched =
            WayHaltingCache::with_observer(2048, 32, 4, 4, EventRing::new(64 * 1024)).unwrap();
        for &(addr, kind) in &accesses {
            looped.access(addr, kind);
        }
        batched.access_batch(&accesses);
        let a: Vec<_> = looped.observer().iter().map(|(_, e)| *e).collect();
        let b: Vec<_> = batched.observer().iter().map(|(_, e)| *e).collect();
        assert!(!a.is_empty(), "the fuzz stream must generate events");
        assert_eq!(a, b, "per-access and batched event sequences diverge");
    }

    /// Differential hook: this cache is contractually an n-way LRU array
    /// (the lookup machinery changes latency/energy, never hits, misses
    /// or evictions), so the reference oracle must track it exactly.
    #[test]
    fn matches_reference_oracle() {
        use crate::oracle::OracleCache;
        let mut model = WayHaltingCache::new(2048, 32, 4, 4).unwrap();
        let mut oracle = OracleCache::new(2048, 32, 4, crate::PolicyKind::Lru, 0, 32);
        let mut x = 0x2468_ACE0u64;
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
            assert_eq!(want.diff(&got), None, "access {i} at {addr:#x}");
        }
    }
}

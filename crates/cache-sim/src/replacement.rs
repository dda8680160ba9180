//! Replacement policies.
//!
//! Policies are stateful per `(set, way)` grids. The same machinery serves
//! conventional set-associative caches and the B-Cache, whose "sets" are
//! the NPI groups of `BAS` candidate ways each (paper Section 3.3).

use std::any::Any;
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::packed;

/// Which replacement policy to instantiate.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum PolicyKind {
    /// Least-recently-used, the paper's default for every figure.
    #[default]
    Lru,
    /// First-in-first-out (fill order).
    Fifo,
    /// Uniform random victim, the paper's low-cost alternative.
    Random,
    /// Tree pseudo-LRU (requires power-of-two associativity).
    TreePlru,
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Fifo => "FIFO",
            PolicyKind::Random => "random",
            PolicyKind::TreePlru => "tree-PLRU",
        })
    }
}

/// Per-set replacement state over a fixed `(sets, assoc)` grid.
///
/// Callers must route events consistently: [`on_access`] on every hit,
/// [`on_fill`] on every fill, and [`victim`] only when all ways of the set
/// hold valid blocks (invalid ways should be filled first), or
/// [`fill_way`] to make both choices in one call.
///
/// [`on_access`]: ReplacementPolicy::on_access
/// [`on_fill`]: ReplacementPolicy::on_fill
/// [`victim`]: ReplacementPolicy::victim
/// [`fill_way`]: ReplacementPolicy::fill_way
pub trait ReplacementPolicy: fmt::Debug {
    /// Notes a hit on `(set, way)`.
    fn on_access(&mut self, set: usize, way: usize);

    /// Notes a fill into `(set, way)`.
    fn on_fill(&mut self, set: usize, way: usize);

    /// Chooses the way to evict from a full `set`.
    fn victim(&mut self, set: usize) -> usize;

    /// Chooses the way a miss in `set` fills, given the set's packed
    /// line words: the first invalid way, else the [`victim`]. The
    /// array must never invalidate a line it has filled.
    ///
    /// [`victim`]: ReplacementPolicy::victim
    #[inline]
    fn fill_way(&mut self, set: usize, lines: &[u64]) -> usize {
        match crate::simd::first_match(lines, packed::VALID_MASK, 0) {
            Some(way) => way,
            None => self.victim(set),
        }
    }

    /// The policy's kind.
    fn kind(&self) -> PolicyKind;

    /// The concrete policy as [`Any`], so batch kernels can specialize
    /// on a known type (inlining its updates) instead of paying a
    /// virtual call per access.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Creates a boxed policy for a `(sets, assoc)` grid.
///
/// `seed` only matters for [`PolicyKind::Random`], which must be
/// deterministic for reproducible experiments.
///
/// # Panics
///
/// Panics if `sets` or `assoc` is zero, or if `TreePlru` is requested with
/// a non-power-of-two associativity.
pub fn make_policy(
    kind: PolicyKind,
    sets: usize,
    assoc: usize,
    seed: u64,
) -> Box<dyn ReplacementPolicy> {
    assert!(sets > 0 && assoc > 0, "policy grid must be non-empty");
    match kind {
        PolicyKind::Lru => Box::new(Lru::new(sets, assoc)),
        PolicyKind::Fifo => Box::new(Fifo::new(sets, assoc)),
        PolicyKind::Random => Box::new(RandomPolicy::new(sets, assoc, seed)),
        PolicyKind::TreePlru => Box::new(TreePlru::new(sets, assoc)),
    }
}

/// True LRU via monotonic access stamps.
///
/// Each stamp is `clock << shift | way`, with `shift` the bit length of
/// `assoc - 1`, and a never-touched way's stamp is its bare index. One
/// unsigned minimum over a set's stamps therefore names its own way:
/// the lowest never-touched way if there is one, else the least
/// recently used — the first minimum over plain per-way stamps.
#[derive(Debug, PartialEq, Eq)]
pub struct Lru {
    assoc: usize,
    // `1 << shift`. The clock is kept shifted and advances by one tick
    // per touch, so a touch adds and ORs where a shift by a runtime
    // count would cost more.
    tick: u64,
    stamps: Vec<u64>,
    clock: u64,
}

impl Lru {
    /// Creates LRU state for a `(sets, assoc)` grid.
    pub fn new(sets: usize, assoc: usize) -> Self {
        Lru {
            assoc,
            tick: assoc.next_power_of_two() as u64,
            stamps: (0..sets).flat_map(|_| 0..assoc as u64).collect(),
            clock: 0,
        }
    }

    #[inline]
    fn touch(&mut self, set: usize, way: usize) {
        self.clock += self.tick;
        self.stamps[set * self.assoc + way] = self.clock | way as u64;
    }
}

impl ReplacementPolicy for Lru {
    #[inline]
    fn on_access(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    #[inline]
    fn victim(&mut self, set: usize) -> usize {
        let base = set * self.assoc;
        // One lane-sliced min (four stamps per compare with AVX2); the
        // minimum stamp's low bits are its way.
        let min = crate::simd::min_word(&self.stamps[base..base + self.assoc]);
        (min & (self.tick - 1)) as usize
    }

    /// The [`victim`](ReplacementPolicy::victim) alone: in an array
    /// that never invalidates a line, "never touched" is "invalid", so
    /// the one minimum is already the first invalid way when there is
    /// one.
    #[inline]
    fn fill_way(&mut self, set: usize, lines: &[u64]) -> usize {
        let way = self.victim(set);
        debug_assert_eq!(
            lines
                .iter()
                .position(|&w| !packed::is_valid(w))
                .unwrap_or(way),
            way,
            "an LRU array invalidated a line it had filled"
        );
        way
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Lru
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// FIFO: the way filled longest ago is evicted; hits do not refresh.
#[derive(Debug)]
pub struct Fifo {
    assoc: usize,
    fill_stamps: Vec<u64>,
    clock: u64,
}

impl Fifo {
    /// Creates FIFO state for a `(sets, assoc)` grid.
    pub fn new(sets: usize, assoc: usize) -> Self {
        Fifo {
            assoc,
            fill_stamps: vec![0; sets * assoc],
            clock: 0,
        }
    }
}

impl ReplacementPolicy for Fifo {
    fn on_access(&mut self, _set: usize, _way: usize) {}

    fn on_fill(&mut self, set: usize, way: usize) {
        self.clock += 1;
        self.fill_stamps[set * self.assoc + way] = self.clock;
    }

    fn victim(&mut self, set: usize) -> usize {
        let base = set * self.assoc;
        let slice = &self.fill_stamps[base..base + self.assoc];
        slice
            .iter()
            .enumerate()
            .min_by_key(|&(_, stamp)| *stamp)
            .map(|(way, _)| way)
            .expect("associativity is nonzero")
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Fifo
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Uniform random victim selection with a seeded generator.
pub struct RandomPolicy {
    assoc: usize,
    rng: StdRng,
}

impl RandomPolicy {
    /// Creates random-replacement state; `sets` is accepted for interface
    /// symmetry but unused.
    pub fn new(_sets: usize, assoc: usize, seed: u64) -> Self {
        RandomPolicy {
            assoc,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl fmt::Debug for RandomPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RandomPolicy")
            .field("assoc", &self.assoc)
            .finish()
    }
}

impl ReplacementPolicy for RandomPolicy {
    fn on_access(&mut self, _set: usize, _way: usize) {}

    fn on_fill(&mut self, _set: usize, _way: usize) {}

    fn victim(&mut self, _set: usize) -> usize {
        self.rng.gen_range(0..self.assoc)
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::Random
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Tree pseudo-LRU over a power-of-two associativity.
///
/// Each set keeps `assoc - 1` direction bits arranged as an implicit
/// binary tree; an access flips the bits along its path to point away from
/// the touched way, and the victim walk follows the bits.
#[derive(Debug)]
pub struct TreePlru {
    assoc: usize,
    // assoc - 1 bits per set, flattened. bits[0] is the root.
    bits: Vec<bool>,
}

impl TreePlru {
    /// Creates tree-PLRU state.
    ///
    /// # Panics
    ///
    /// Panics if `assoc` is not a power of two.
    pub fn new(sets: usize, assoc: usize) -> Self {
        assert!(
            assoc.is_power_of_two(),
            "tree-PLRU requires power-of-two associativity"
        );
        TreePlru {
            assoc,
            bits: vec![false; sets * (assoc.max(2) - 1)],
        }
    }

    fn touch(&mut self, set: usize, way: usize) {
        if self.assoc == 1 {
            return;
        }
        let base = set * (self.assoc - 1);
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.assoc;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let go_right = way >= mid;
            // Point the bit at the *other* half so the victim walk avoids
            // the recently used way.
            self.bits[base + node] = !go_right;
            if go_right {
                node = 2 * node + 2;
                lo = mid;
            } else {
                node = 2 * node + 1;
                hi = mid;
            }
        }
    }
}

impl ReplacementPolicy for TreePlru {
    fn on_access(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    fn victim(&mut self, set: usize) -> usize {
        if self.assoc == 1 {
            return 0;
        }
        let base = set * (self.assoc - 1);
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.assoc;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.bits[base + node] {
                node = 2 * node + 2;
                lo = mid;
            } else {
                node = 2 * node + 1;
                hi = mid;
            }
        }
        lo
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::TreePlru
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut p = Lru::new(1, 4);
        for way in 0..4 {
            p.on_fill(0, way);
        }
        p.on_access(0, 0); // order now: 1 oldest, then 2, 3, 0
        assert_eq!(p.victim(0), 1);
        p.on_access(0, 1);
        assert_eq!(p.victim(0), 2);
    }

    #[test]
    fn lru_sets_are_independent() {
        let mut p = Lru::new(2, 2);
        p.on_fill(0, 0);
        p.on_fill(1, 1);
        p.on_fill(0, 1);
        p.on_fill(1, 0);
        assert_eq!(p.victim(0), 0);
        assert_eq!(p.victim(1), 1);
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut p = Fifo::new(1, 3);
        p.on_fill(0, 0);
        p.on_fill(0, 1);
        p.on_fill(0, 2);
        p.on_access(0, 0); // must not refresh way 0
        assert_eq!(p.victim(0), 0);
        p.on_fill(0, 0);
        assert_eq!(p.victim(0), 1);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_range() {
        let mut a = RandomPolicy::new(1, 8, 42);
        let mut b = RandomPolicy::new(1, 8, 42);
        for _ in 0..100 {
            let va = a.victim(0);
            assert_eq!(va, b.victim(0));
            assert!(va < 8);
        }
    }

    #[test]
    fn random_different_seeds_diverge() {
        let mut a = RandomPolicy::new(1, 8, 1);
        let mut b = RandomPolicy::new(1, 8, 2);
        let same = (0..64).filter(|_| a.victim(0) == b.victim(0)).count();
        assert!(
            same < 64,
            "different seeds should not produce identical streams"
        );
    }

    #[test]
    fn tree_plru_never_evicts_most_recent() {
        let mut p = TreePlru::new(1, 8);
        for way in 0..8 {
            p.on_fill(0, way);
        }
        for way in 0..8 {
            p.on_access(0, way);
            assert_ne!(p.victim(0), way, "PLRU must not pick the just-touched way");
        }
    }

    #[test]
    fn tree_plru_matches_lru_for_two_ways() {
        // For assoc=2 tree-PLRU is exact LRU.
        let mut plru = TreePlru::new(1, 2);
        let mut lru = Lru::new(1, 2);
        let pattern = [0usize, 1, 0, 0, 1, 1, 0, 1, 1, 0];
        for &w in &pattern {
            plru.on_access(0, w);
            lru.on_access(0, w);
            assert_eq!(plru.victim(0), lru.victim(0));
        }
    }

    #[test]
    fn tree_plru_handles_assoc_one() {
        let mut p = TreePlru::new(4, 1);
        p.on_fill(3, 0);
        assert_eq!(p.victim(3), 0);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn tree_plru_rejects_odd_assoc() {
        TreePlru::new(1, 3);
    }

    #[test]
    fn make_policy_dispatches() {
        for kind in [
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Random,
            PolicyKind::TreePlru,
        ] {
            let p = make_policy(kind, 4, 4, 7);
            assert_eq!(p.kind(), kind);
        }
    }

    #[test]
    fn policy_kind_display() {
        assert_eq!(PolicyKind::Lru.to_string(), "LRU");
        assert_eq!(PolicyKind::Random.to_string(), "random");
    }

    #[test]
    fn single_way_victim_is_always_zero_for_every_policy() {
        for kind in [
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Random,
            PolicyKind::TreePlru,
        ] {
            let mut p = make_policy(kind, 4, 1, 9);
            for set in 0..4 {
                p.on_fill(set, 0);
                p.on_access(set, 0);
                for _ in 0..8 {
                    assert_eq!(p.victim(set), 0, "{kind:?} set {set}");
                }
            }
        }
    }

    #[test]
    fn lru_cold_set_victim_is_way_zero() {
        // No way touched: every stamp is its bare way index, way 0 lowest.
        let mut p = Lru::new(2, 4);
        assert_eq!(p.victim(0), 0);
        assert_eq!(p.victim(1), 0);
    }

    /// The encoded stamps pick exactly the first minimum over plain
    /// per-way stamps (0 = never touched), kept here as the reference,
    /// for every width 1..=64 and one fully-associative width above 64.
    /// Random hits, random fills and victim fills leave some ways of
    /// every set never touched for most of the run.
    #[test]
    fn encoded_lru_victim_is_the_first_minimum_of_plain_stamps() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut below = move |n: usize| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % n as u64) as usize
        };
        let sets = 3;
        for assoc in (1..=64).chain([200]) {
            let mut lru = Lru::new(sets, assoc);
            let mut plain = vec![0u64; sets * assoc];
            for clock in 1..=(4 * assoc as u64) {
                let set = below(sets);
                // Set 0 only ever touches its lower half at random.
                let reach = if set == 0 { assoc.div_ceil(2) } else { assoc };
                let way = match below(3) {
                    0 => lru.victim(set),
                    _ => below(reach),
                };
                plain[set * assoc + way] = clock;
                if below(2) == 0 {
                    lru.on_access(set, way);
                } else {
                    lru.on_fill(set, way);
                }
                for s in 0..sets {
                    let stamps = &plain[s * assoc..(s + 1) * assoc];
                    let want = (0..assoc).min_by_key(|&w| stamps[w]).unwrap();
                    assert_eq!(lru.victim(s), want, "assoc {assoc} set {s} {stamps:?}");
                }
            }
        }
    }

    #[test]
    fn lru_repeated_touch_is_idempotent() {
        let mut p = Lru::new(1, 4);
        for way in 0..4 {
            p.on_fill(0, way);
        }
        for _ in 0..5 {
            p.on_access(0, 2); // hammering one way must not reorder the rest
        }
        assert_eq!(p.victim(0), 0);
        p.on_access(0, 0);
        assert_eq!(p.victim(0), 1);
    }

    #[test]
    fn lru_eviction_order_under_cyclic_wraparound() {
        let mut p = Lru::new(1, 4);
        for way in 0..4 {
            p.on_fill(0, way);
        }
        // A cyclic sweep: after touching way i, the victim is i+1 (mod 4),
        // for as long as the sweep runs (clock stamps never wrap in u64).
        for round in 0..3 {
            for way in 0..4 {
                p.on_access(0, way);
                assert_eq!(p.victim(0), (way + 1) % 4, "round {round} way {way}");
            }
        }
    }

    #[test]
    fn fifo_eviction_order_wraps_in_fill_order() {
        let mut p = Fifo::new(1, 3);
        for way in 0..3 {
            p.on_fill(0, way);
        }
        // Refilling the victim each time walks the ways in fill order and
        // wraps around indefinitely.
        for expect in [0usize, 1, 2, 0, 1, 2, 0] {
            let v = p.victim(0);
            assert_eq!(v, expect);
            p.on_fill(0, v);
        }
    }

    #[test]
    fn tree_plru_victim_fill_cycle_covers_every_way() {
        // With the victim refilled each time (the miss path), tree-PLRU
        // walks a fixed permutation of the ways: 0, 2, 1, 3 for assoc 4.
        let mut p = TreePlru::new(1, 4);
        for way in 0..4 {
            p.on_fill(0, way);
        }
        let mut victims = Vec::new();
        for _ in 0..8 {
            let v = p.victim(0);
            victims.push(v);
            p.on_fill(0, v);
        }
        assert_eq!(victims, [0, 2, 1, 3, 0, 2, 1, 3]);
    }

    #[test]
    fn random_covers_every_way_eventually() {
        let mut p = RandomPolicy::new(1, 4, 3);
        let mut seen = [false; 4];
        for _ in 0..256 {
            seen[p.victim(0)] = true;
        }
        assert_eq!(seen, [true; 4], "random victims must cover all ways");
    }
}

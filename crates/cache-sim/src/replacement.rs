//! Replacement: the victim choice among a set's candidate ways.
//!
//! The paper runs two policies: LRU, in every figure, and random, the
//! low-cost alternative of Section 3.3. One [`Replacement`] serves
//! conventional set-associative caches, the victim buffer and the
//! B-Cache, whose "sets" are the NPI groups of `BAS` candidate ways each.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::packed;
use crate::simd::Lanes;

/// Which replacement policy to instantiate.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum PolicyKind {
    /// Least-recently-used, the paper's default for every figure.
    #[default]
    Lru,
    /// Uniform random victim, the paper's low-cost alternative.
    Random,
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Random => "random",
        })
    }
}

/// Replacement state over a fixed `(sets, assoc)` grid: exact LRU
/// stamps, plus a seeded generator when the policy is random.
///
/// Stamps are written on every hit and fill, whatever the policy. Each
/// stamp is `clock << shift | way`, with `shift` the bit length of
/// `assoc - 1`, and a never-touched way's stamp is its bare index. One
/// unsigned minimum over a set's stamps therefore names its own way:
/// the lowest never-touched way if there is one, else the least
/// recently used — the first minimum over plain per-way stamps.
///
/// Callers [`touch`](Self::touch) a way on every hit and fill, and ask
/// for a miss's way with [`fill_way_on`](Self::fill_way_on) (first free
/// way, else the victim) or [`victim_on`](Self::victim_on) (the victim
/// alone, when the caller knows its free ways itself).
#[derive(Debug, PartialEq, Eq)]
pub struct Replacement {
    assoc: usize,
    // `1 << shift`. The clock is kept shifted and advances by one tick
    // per touch, so a touch adds and ORs where a shift by a runtime
    // count would cost more.
    tick: u64,
    stamps: Vec<u64>,
    clock: u64,
    // The random policy's victim draws; `None` is LRU.
    random: Option<StdRng>,
}

impl Replacement {
    /// Creates `kind` replacement state for a `(sets, assoc)` grid.
    ///
    /// `seed` only matters for [`PolicyKind::Random`], which must be
    /// deterministic for reproducible experiments.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `assoc` is zero.
    pub fn new(kind: PolicyKind, sets: usize, assoc: usize, seed: u64) -> Self {
        assert!(sets > 0 && assoc > 0, "policy grid must be non-empty");
        Replacement {
            assoc,
            tick: assoc.next_power_of_two() as u64,
            stamps: (0..sets).flat_map(|_| 0..assoc as u64).collect(),
            clock: 0,
            random: match kind {
                PolicyKind::Lru => None,
                PolicyKind::Random => Some(StdRng::seed_from_u64(seed)),
            },
        }
    }

    /// Notes a hit on, or a fill into, `(set, way)`.
    #[inline(always)]
    pub fn touch(&mut self, set: usize, way: usize) {
        self.clock += self.tick;
        self.stamps[set * self.assoc + way] = self.clock | way as u64;
    }

    /// The set's minimum stamp, in one lane-sliced min on `lanes` (four
    /// stamps per compare with AVX2).
    #[inline(always)]
    fn min_stamp<L: Lanes>(&self, lanes: L, set: usize) -> u64 {
        let base = set * self.assoc;
        lanes.min_word(&self.stamps[base..base + self.assoc])
    }

    /// The way a set's minimum stamp names: its low bits.
    #[inline(always)]
    fn way_of(&self, min: u64) -> usize {
        (min & (self.tick - 1)) as usize
    }

    /// Chooses the way to evict from `set`: a uniform draw if the policy
    /// is random, else the least recently used way (the lowest
    /// never-touched way, if any).
    #[inline(always)]
    pub fn victim_on<L: Lanes>(&mut self, lanes: L, set: usize) -> usize {
        match &mut self.random {
            Some(rng) => rng.gen_range(0..self.assoc),
            None => self.way_of(self.min_stamp(lanes, set)),
        }
    }

    /// Chooses the way a miss in `set` fills, given the set's packed
    /// line words: the first invalid way, else the
    /// [`victim_on`](Self::victim_on). The array must never invalidate
    /// a line it has filled: then "never touched" is "invalid", so the
    /// one stamp minimum already names the first invalid way when there
    /// is one, and only a full set draws.
    #[inline(always)]
    pub fn fill_way_on<L: Lanes>(&mut self, lanes: L, set: usize, lines: &[u64]) -> usize {
        let min = self.min_stamp(lanes, set);
        let way = match &mut self.random {
            Some(rng) if min >= self.tick => rng.gen_range(0..self.assoc),
            _ => self.way_of(min),
        };
        debug_assert_eq!(
            lines
                .iter()
                .position(|&w| !packed::is_valid(w))
                .unwrap_or(way),
            way,
            "an array invalidated a line it had filled"
        );
        way
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::Portable;

    fn lru(sets: usize, assoc: usize) -> Replacement {
        Replacement::new(PolicyKind::Lru, sets, assoc, 0)
    }

    fn random(assoc: usize, seed: u64) -> Replacement {
        Replacement::new(PolicyKind::Random, 1, assoc, seed)
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut p = lru(1, 4);
        for way in 0..4 {
            p.touch(0, way);
        }
        p.touch(0, 0); // order now: 1 oldest, then 2, 3, 0
        assert_eq!(p.victim_on(Portable, 0), 1);
        p.touch(0, 1);
        assert_eq!(p.victim_on(Portable, 0), 2);
    }

    #[test]
    fn lru_sets_are_independent() {
        let mut p = lru(2, 2);
        p.touch(0, 0);
        p.touch(1, 1);
        p.touch(0, 1);
        p.touch(1, 0);
        assert_eq!(p.victim_on(Portable, 0), 0);
        assert_eq!(p.victim_on(Portable, 1), 1);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_range() {
        let mut a = random(8, 42);
        let mut b = random(8, 42);
        for _ in 0..100 {
            let va = a.victim_on(Portable, 0);
            assert_eq!(va, b.victim_on(Portable, 0));
            assert!(va < 8);
        }
    }

    #[test]
    fn random_different_seeds_diverge() {
        let mut a = random(8, 1);
        let mut b = random(8, 2);
        let same = (0..64)
            .filter(|_| a.victim_on(Portable, 0) == b.victim_on(Portable, 0))
            .count();
        assert!(
            same < 64,
            "different seeds should not produce identical streams"
        );
    }

    /// A random set fills its free ways in order without a draw; once
    /// full, each fill is one `gen_range(0..assoc)` of the seeded
    /// generator, whatever the stamps say.
    #[test]
    fn random_fills_free_ways_first_then_draws() {
        let mut p = random(4, 11);
        let mut want = StdRng::seed_from_u64(11);
        let mut lines = [packed::EMPTY; 4];
        for way in 0..4 {
            assert_eq!(p.fill_way_on(Portable, 0, &lines), way);
            lines[way] = packed::fill(way as u64, false);
            p.touch(0, way);
        }
        for _ in 0..64 {
            let way = p.fill_way_on(Portable, 0, &lines);
            assert_eq!(way, want.gen_range(0..4));
            p.touch(0, way);
        }
    }

    #[test]
    fn policy_kind_display() {
        assert_eq!(PolicyKind::Lru.to_string(), "LRU");
        assert_eq!(PolicyKind::Random.to_string(), "random");
    }

    #[test]
    fn single_way_victim_is_always_zero_for_every_policy() {
        for kind in [PolicyKind::Lru, PolicyKind::Random] {
            let mut p = Replacement::new(kind, 4, 1, 9);
            for set in 0..4 {
                p.touch(set, 0);
                p.touch(set, 0);
                for _ in 0..8 {
                    assert_eq!(p.victim_on(Portable, set), 0, "{kind:?} set {set}");
                }
            }
        }
    }

    #[test]
    fn lru_cold_set_victim_is_way_zero() {
        // No way touched: every stamp is its bare way index, way 0 lowest.
        let mut p = lru(2, 4);
        assert_eq!(p.victim_on(Portable, 0), 0);
        assert_eq!(p.victim_on(Portable, 1), 0);
    }

    /// The encoded stamps pick exactly the first minimum over plain
    /// per-way stamps (0 = never touched), kept here as the reference,
    /// for every width 1..=64 and one fully-associative width above 64.
    /// Random touches and victim touches leave some ways of every set
    /// never touched for most of the run.
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
            let mut p = lru(sets, assoc);
            let mut plain = vec![0u64; sets * assoc];
            for clock in 1..=(4 * assoc as u64) {
                let set = below(sets);
                // Set 0 only ever touches its lower half at random.
                let reach = if set == 0 { assoc.div_ceil(2) } else { assoc };
                let way = match below(3) {
                    0 => p.victim_on(Portable, set),
                    _ => below(reach),
                };
                plain[set * assoc + way] = clock;
                p.touch(set, way);
                for s in 0..sets {
                    let stamps = &plain[s * assoc..(s + 1) * assoc];
                    let want = (0..assoc).min_by_key(|&w| stamps[w]).unwrap();
                    let got = p.victim_on(Portable, s);
                    assert_eq!(got, want, "assoc {assoc} set {s} {stamps:?}");
                }
            }
        }
    }

    #[test]
    fn lru_repeated_touch_is_idempotent() {
        let mut p = lru(1, 4);
        for way in 0..4 {
            p.touch(0, way);
        }
        for _ in 0..5 {
            p.touch(0, 2); // hammering one way must not reorder the rest
        }
        assert_eq!(p.victim_on(Portable, 0), 0);
        p.touch(0, 0);
        assert_eq!(p.victim_on(Portable, 0), 1);
    }

    #[test]
    fn lru_eviction_order_under_cyclic_wraparound() {
        let mut p = lru(1, 4);
        for way in 0..4 {
            p.touch(0, way);
        }
        // A cyclic sweep: after touching way i, the victim is i+1 (mod 4),
        // for as long as the sweep runs (clock stamps never wrap in u64).
        for round in 0..3 {
            for way in 0..4 {
                p.touch(0, way);
                let want = (way + 1) % 4;
                assert_eq!(p.victim_on(Portable, 0), want, "round {round} way {way}");
            }
        }
    }

    #[test]
    fn random_covers_every_way_eventually() {
        let mut p = random(4, 3);
        let mut seen = [false; 4];
        for _ in 0..256 {
            seen[p.victim_on(Portable, 0)] = true;
        }
        assert_eq!(seen, [true; 4], "random victims must cover all ways");
    }
}

//! The programmable decoder (PD): small CAM arrays that match the
//! programmable index of an address against per-set entries programmed on
//! the fly during refills (paper Sections 2.3 and 5).
//!
//! The functional model here is a per-group array of `BAS` optional PI
//! values. Physically each entry is a `PI`-bit CAM word; the hardware
//! organization (how the entries split across subarrays, Table 1/2) is
//! described by [`crate::organization`].

use cache_sim::simd::{self, Lanes, Portable};

use crate::params::IndexLayout;

/// Sentinel marking a cold (invalid) CAM entry. A real PI is at most
/// `pi_bits < 64` wide, so all-ones can never collide with one.
const INVALID: u64 = u64::MAX;

/// The functional state of all programmable decoders of a B-Cache.
///
/// Maintains the *unique-decoding invariant*: within one NPI group, no two
/// valid entries hold the same PI. The B-Cache is a direct-mapped cache,
/// so at most one word line may activate per access (paper Figure 1(c):
/// "The two PIs must be different to maintain unique address decoding").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgrammableDecoder {
    bas: usize,
    /// `groups x bas`, flattened; [`INVALID`] marks a cold entry, so a
    /// lookup is a bare `u64` compare over the group's slice.
    entries: Vec<u64>,
}

impl ProgrammableDecoder {
    /// Creates cold decoders for `layout` with `bas` ways per group.
    pub fn new(layout: &IndexLayout, bas: usize) -> Self {
        // The lookup paths accumulate per-way match bits in a `u64`.
        assert!(bas <= 64, "BAS above 64 is not supported");
        ProgrammableDecoder {
            bas,
            entries: vec![INVALID; layout.groups() * bas],
        }
    }

    /// Number of candidate ways per group.
    pub fn bas(&self) -> usize {
        self.bas
    }

    /// Number of NPI groups.
    pub fn groups(&self) -> usize {
        self.entries.len() / self.bas
    }

    /// Returns the PI stored at `(group, way)`, or `None` if cold.
    pub fn entry(&self, group: usize, way: usize) -> Option<u64> {
        let e = self.entries[group * self.bas + way];
        (e != INVALID).then_some(e)
    }

    /// One fused CAM probe: the way matching `pi` and the first cold
    /// way of `group`, from a single pass over the entries.
    ///
    /// `BAS` must equal [`bas`](Self::bas), or be 0 for a runtime-width
    /// probe with the same result. Monomorphizing on it gives the
    /// [`Lanes::dual_eq_masks`] lane compare a compile-time width — one
    /// entry load feeds both the PI match and the cold-sentinel compare,
    /// four entries per vector on the AVX2 backend (the unrolled loop
    /// on the portable one) — the software analogue of the CAM's
    /// parallel match lines. The B-Cache's step calls it at the
    /// configuration's width on the replay's backend.
    #[inline(always)]
    pub fn probe<L: Lanes, const BAS: usize>(
        &self,
        lanes: L,
        group: usize,
        pi: u64,
    ) -> (Option<usize>, Option<usize>) {
        debug_assert!(
            BAS == 0 || BAS == self.bas,
            "probe width must match the decoder"
        );
        debug_assert_ne!(pi, INVALID, "PI collides with the cold sentinel");
        let bas = if BAS == 0 { self.bas } else { BAS };
        let entries = &self.entries[group * bas..(group + 1) * bas];
        let (matched, cold) = if BAS == 0 {
            lanes.dual_eq_masks(entries, pi, INVALID)
        } else {
            let entries: &[u64; BAS] = entries.try_into().expect("slice length is BAS");
            lanes.dual_eq_masks(entries, pi, INVALID)
        };
        debug_assert!(
            matched.count_ones() <= 1,
            "unique-decoding invariant violated in group {group}"
        );
        (simd::first_set_lane(matched), simd::first_set_lane(cold))
    }

    /// [`probe`](Self::probe) at the runtime `BAS` on the portable
    /// backend: for lookups outside a replay (every backend returns the
    /// same ways).
    pub fn probe_any(&self, group: usize, pi: u64) -> (Option<usize>, Option<usize>) {
        self.probe::<_, 0>(Portable, group, pi)
    }

    /// Programs `(group, way)` with `pi` during a refill.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if another way of the group already holds
    /// `pi` — the caller must only program on a PD miss (or reprogram the
    /// matching way itself).
    #[inline]
    pub fn program(&mut self, group: usize, way: usize, pi: u64) {
        debug_assert_ne!(pi, INVALID, "PI collides with the cold sentinel");
        let base = group * self.bas;
        debug_assert!(
            self.entries[base..base + self.bas]
                .iter()
                .enumerate()
                .all(|(w, &e)| w == way || e != pi),
            "programming a duplicate PI into group {group}"
        );
        self.entries[base + way] = pi;
    }

    /// Invalidates the entry at `(group, way)` (used by the evict-both
    /// ablation, where a PD-hit miss steals a different way and the
    /// matching entry must be dropped to preserve unique decoding).
    pub fn invalidate(&mut self, group: usize, way: usize) {
        self.entries[group * self.bas + way] = INVALID;
    }

    /// Checks the unique-decoding invariant for every group.
    ///
    /// Allocation-free pairwise scan — `BAS` is small (≤ 32 in every
    /// paper configuration), so `O(BAS²)` per group beats sorting a
    /// temporary. Intended for tests and `debug_assert!`s.
    pub fn invariant_holds(&self) -> bool {
        self.entries.chunks_exact(self.bas).all(|group| {
            group
                .iter()
                .enumerate()
                .all(|(i, &a)| a == INVALID || group[..i].iter().all(|&b| b != a))
        })
    }

    /// Fraction of entries still cold; 1.0 right after construction.
    pub fn cold_fraction(&self) -> f64 {
        if self.entries.is_empty() {
            return 1.0;
        }
        // Portable popcount tally over the whole table (any length, not
        // mask-bound); only tests call this.
        simd::count_matching(&self.entries, !0, INVALID) as f64 / self.entries.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BCacheParams;
    use cache_sim::{CacheGeometry, PolicyKind};

    fn layout() -> IndexLayout {
        let g = CacheGeometry::new(16 * 1024, 32, 1).unwrap();
        BCacheParams::new(g, 8, 8, PolicyKind::Lru)
            .unwrap()
            .layout()
    }

    #[test]
    fn starts_cold() {
        let pd = ProgrammableDecoder::new(&layout(), 8);
        assert_eq!(pd.groups(), 64);
        assert_eq!(pd.bas(), 8);
        assert_eq!(pd.cold_fraction(), 1.0);
        assert_eq!(pd.probe_any(0, 0).0, None);
        assert_eq!(pd.probe_any(0, 0).1, Some(0));
    }

    #[test]
    fn program_then_lookup() {
        let mut pd = ProgrammableDecoder::new(&layout(), 8);
        pd.program(3, 5, 0b10_1101);
        assert_eq!(pd.probe_any(3, 0b10_1101).0, Some(5));
        assert_eq!(pd.probe_any(3, 0b10_1100).0, None);
        assert_eq!(pd.probe_any(2, 0b10_1101).0, None, "groups are independent");
        assert_eq!(pd.entry(3, 5), Some(0b10_1101));
    }

    #[test]
    fn cold_way_skips_programmed_entries() {
        let mut pd = ProgrammableDecoder::new(&layout(), 4);
        pd.program(0, 0, 1);
        pd.program(0, 1, 2);
        assert_eq!(pd.probe_any(0, 0).1, Some(2));
        pd.program(0, 2, 3);
        pd.program(0, 3, 4);
        assert_eq!(pd.probe_any(0, 0).1, None);
    }

    #[test]
    fn reprogramming_a_way_is_allowed() {
        let mut pd = ProgrammableDecoder::new(&layout(), 4);
        pd.program(1, 0, 7);
        pd.program(1, 0, 9); // same way, new PI: fine
        assert_eq!(pd.probe_any(1, 7).0, None);
        assert_eq!(pd.probe_any(1, 9).0, Some(0));
        assert!(pd.invariant_holds());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate PI")]
    fn duplicate_pi_panics_in_debug() {
        let mut pd = ProgrammableDecoder::new(&layout(), 4);
        pd.program(0, 0, 5);
        pd.program(0, 1, 5);
    }

    #[test]
    fn invariant_detects_duplicates() {
        let mut pd = ProgrammableDecoder::new(&layout(), 4);
        pd.program(0, 0, 5);
        pd.program(0, 1, 6);
        assert!(pd.invariant_holds());
        // Forge a duplicate directly.
        pd.entries[1] = 5;
        assert!(!pd.invariant_holds());
    }

    #[test]
    fn cold_fraction_decreases() {
        let mut pd = ProgrammableDecoder::new(&layout(), 8);
        let total = (pd.groups() * pd.bas()) as f64;
        pd.program(0, 0, 1);
        pd.program(5, 3, 2);
        assert!((pd.cold_fraction() - (total - 2.0) / total).abs() < 1e-12);
    }
}

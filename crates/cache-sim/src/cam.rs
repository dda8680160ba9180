//! Monomorphized CAM-search primitives over packed line words.
//!
//! The B-Cache kernel's fused programmable-decoder probe showed the
//! pattern: a fully-associative search over a const-width array of
//! packed `u64` words compiles to straight-line, branch-free compares.
//! This module generalizes that trick so every model with a CAM-style
//! structure — the victim buffer's 16-entry FA search, AGAC's
//! out-of-position directory, the set-associative way scans — shares one
//! implementation, now built on the [`crate::simd`] lane operations:
//! each probe is a compare-mask (AVX2 when the CPU reports it, portable
//! otherwise) followed by a `trailing_zeros` priority encode.
//!
//! Each helper takes a const generic width `N`; `N == 0` selects a
//! runtime-width fallback with identical semantics (first match /
//! first invalid / first minimum), so callers dispatch on the common
//! power-of-two widths and fall back for exotic shapes. With `N > 0`
//! the slice length is known to the compiler, so the portable body
//! unrolls the lane loop like a hand-written kernel.

use crate::packed;
use crate::simd;

/// Reborrows the slice with its length visible to the compiler when a
/// const width is given (the `N == 0` fallback passes it through).
#[inline(always)]
fn fixed<const N: usize>(words: &[u64]) -> &[u64] {
    if N == 0 {
        return words;
    }
    debug_assert_eq!(
        words.len(),
        N,
        "const-width CAM called on a mismatched slice"
    );
    let arr: &[u64; N] = words[..N].try_into().expect("length checked above");
    arr
}

/// Index of the first word whose packed tag matches `tag`, if any.
///
/// With `N > 0` the scan unrolls into a branchless match-mask followed
/// by a single `trailing_zeros`; `N == 0` degrades to a runtime-width
/// scan with the same first-match semantics.
#[inline(always)]
pub(crate) fn find_match<const N: usize>(words: &[u64], tag: u64) -> Option<usize> {
    simd::first_match(
        fixed::<N>(words),
        packed::MATCH_MASK,
        packed::search_key(tag),
    )
}

/// Index of the first invalid (empty) word, if any.
#[inline(always)]
pub(crate) fn find_invalid<const N: usize>(words: &[u64]) -> Option<usize> {
    simd::first_match(fixed::<N>(words), packed::VALID_MASK, 0)
}

/// Index of the minimum stamp (ties break to the lowest index), i.e.
/// exactly the victim [`crate::replacement::Lru`] would choose.
#[inline(always)]
pub(crate) fn min_stamp<const N: usize>(stamps: &[u64]) -> usize {
    simd::min_index(fixed::<N>(stamps))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_and_runtime_widths_agree() {
        let words = [
            packed::fill(7, false),
            packed::EMPTY,
            packed::fill(7, true),
            packed::fill(9, false),
        ];
        assert_eq!(find_match::<4>(&words, 7), Some(0));
        assert_eq!(find_match::<0>(&words, 7), Some(0));
        assert_eq!(find_match::<4>(&words, 9), Some(3));
        assert_eq!(find_match::<0>(&words, 9), Some(3));
        assert_eq!(find_match::<4>(&words, 11), None);
        assert_eq!(find_match::<0>(&words, 11), None);
        assert_eq!(find_invalid::<4>(&words), Some(1));
        assert_eq!(find_invalid::<0>(&words), Some(1));
        let full = [packed::fill(1, false); 4];
        assert_eq!(find_invalid::<4>(&full), None);
        assert_eq!(find_invalid::<0>(&full), None);
    }

    #[test]
    fn min_stamp_breaks_ties_like_lru() {
        // Lru::victim uses the first minimum.
        assert_eq!(min_stamp::<4>(&[5, 2, 2, 9]), 1);
        assert_eq!(min_stamp::<0>(&[5, 2, 2, 9]), 1);
        assert_eq!(min_stamp::<1>(&[3]), 0);
        assert_eq!(min_stamp::<0>(&[3]), 0);
        assert_eq!(min_stamp::<4>(&[0, 0, 0, 0]), 0);
    }

    /// Deterministic probe fixtures for one width: packed words with
    /// repeated tags, interleaved invalid slots, and stamp arrays with
    /// planted ties.
    fn fixture(n: usize, seed: u64) -> (Vec<u64>, Vec<u64>) {
        let mut x = seed ^ 0xA076_1D64_78BD_642F;
        let mut step = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        let words = (0..n)
            .map(|_| {
                let r = step();
                if r % 5 == 0 {
                    packed::EMPTY
                } else {
                    packed::fill(r % 6, r % 3 == 0)
                }
            })
            .collect();
        let stamps = (0..n).map(|_| step() % 4).collect();
        (words, stamps)
    }

    /// The runtime fallback (`N == 0`) pinned against the const-width
    /// path for every width 1–33 — covering each lane-group shape, the
    /// scalar tails, and the non-power-of-two widths only the fallback
    /// branch of `dispatch_assoc!`/`dispatch_entries!` ever sees.
    #[test]
    fn runtime_fallback_matches_every_const_width_1_to_33() {
        macro_rules! pin_width {
            ($($n:literal),+ $(,)?) => {$(
                for seed in 0..8u64 {
                    let (words, stamps) = fixture($n, seed * 131 + $n);
                    for tag in 0..7u64 {
                        assert_eq!(
                            find_match::<$n>(&words, tag),
                            find_match::<0>(&words, tag),
                            "find_match width {} tag {tag} seed {seed}", $n
                        );
                    }
                    assert_eq!(
                        find_invalid::<$n>(&words),
                        find_invalid::<0>(&words),
                        "find_invalid width {} seed {seed}", $n
                    );
                    assert_eq!(
                        min_stamp::<$n>(&stamps),
                        min_stamp::<0>(&stamps),
                        "min_stamp width {} seed {seed}", $n
                    );
                }
            )+};
        }
        pin_width!(
            1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24,
            25, 26, 27, 28, 29, 30, 31, 32, 33,
        );
    }

    /// The fallback's semantics stated directly: first match, first
    /// invalid, first minimum — independent of any const-width path.
    #[test]
    fn runtime_fallback_first_semantics() {
        for n in 1..=33usize {
            let (words, stamps) = fixture(n, n as u64 * 31);
            for tag in 0..7u64 {
                assert_eq!(
                    find_match::<0>(&words, tag),
                    words.iter().position(|&w| packed::matches(w, tag)),
                    "width {n} tag {tag}"
                );
            }
            assert_eq!(
                find_invalid::<0>(&words),
                words.iter().position(|&w| !packed::is_valid(w)),
                "width {n}"
            );
            let want = stamps
                .iter()
                .enumerate()
                .min_by_key(|&(_, s)| *s)
                .map(|(i, _)| i)
                .unwrap();
            assert_eq!(min_stamp::<0>(&stamps), want, "width {n}: {stamps:?}");
        }
    }
}

//! Monomorphized CAM search over packed line words.
//!
//! The B-Cache kernel's fused programmable-decoder probe showed the
//! pattern: a fully-associative search over a const-width array of
//! packed `u64` words compiles to straight-line, branch-free compares.
//! This module generalizes that trick so the victim buffer's 16-entry
//! FA search and the set-associative way scans share one tag probe,
//! built on the [`crate::simd`] lane operations: a compare-mask on the
//! kernel's lane backend followed by a `trailing_zeros` priority
//! encode. Choosing a way to fill is the replacement state's job (one
//! stamp minimum in [`crate::replacement::Replacement`]), not a second
//! scan here.
//!
//! [`find_match`] takes a const generic width `N`; `N == 0` selects a
//! runtime-width fallback with identical first-match semantics, so
//! callers dispatch on the common power-of-two widths with
//! [`const_width!`](crate::const_width) and fall back for exotic
//! shapes. With `N > 0` the slice length is known to the compiler, so
//! the probe body unrolls the lane loop like a hand-written kernel.

use crate::packed;
use crate::simd::Lanes;

/// Expands to a `match` running `$kernel!(N)` with the const width `N`
/// equal to `$width` for the widths worth monomorphizing (powers of two
/// up to 32: the paper's widest CAM, and Table 5's widest BAS); any
/// other width runs `$kernel!(0)`, the runtime-width probe. Shared by
/// the set-associative, victim-buffer and B-Cache kernels.
#[macro_export]
macro_rules! const_width {
    ($width:expr, $kernel:ident) => {
        match $width {
            1 => $kernel!(1),
            2 => $kernel!(2),
            4 => $kernel!(4),
            8 => $kernel!(8),
            16 => $kernel!(16),
            32 => $kernel!(32),
            _ => $kernel!(0),
        }
    };
}

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
pub(crate) fn find_match<L: Lanes, const N: usize>(
    lanes: L,
    words: &[u64],
    tag: u64,
) -> Option<usize> {
    lanes.first_match(
        fixed::<N>(words),
        packed::MATCH_MASK,
        packed::search_key(tag),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::Portable;

    /// [`find_match`] on the portable backend, checked against the
    /// AVX2 one when the CPU has it.
    fn find_match<const N: usize>(words: &[u64], tag: u64) -> Option<usize> {
        let got = super::find_match::<_, N>(Portable, words, tag);
        #[cfg(target_arch = "x86_64")]
        if let Some(lanes) = crate::simd::Avx2::new() {
            let avx2 = super::find_match::<_, N>(lanes, words, tag);
            assert_eq!(avx2, got, "backends disagree at width {}", words.len());
        }
        got
    }

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
    }

    /// Deterministic probe fixtures for one width: packed words with
    /// repeated tags and interleaved invalid slots.
    fn fixture(n: usize, seed: u64) -> Vec<u64> {
        let mut x = seed ^ 0xA076_1D64_78BD_642F;
        let mut step = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        (0..n)
            .map(|_| {
                let r = step();
                if r % 5 == 0 {
                    packed::EMPTY
                } else {
                    packed::fill(r % 6, r % 3 == 0)
                }
            })
            .collect()
    }

    /// The runtime fallback (`N == 0`) pinned against the const-width
    /// path for every width 1–33 — covering each lane-group shape, the
    /// scalar tails, and the non-power-of-two widths only the kernels'
    /// runtime-width fallback ever sees.
    #[test]
    fn runtime_fallback_matches_every_const_width_1_to_33() {
        macro_rules! pin_width {
            ($($n:literal),+ $(,)?) => {$(
                for seed in 0..8u64 {
                    let words = fixture($n, seed * 131 + $n);
                    for tag in 0..7u64 {
                        assert_eq!(
                            find_match::<$n>(&words, tag),
                            find_match::<0>(&words, tag),
                            "find_match width {} tag {tag} seed {seed}", $n
                        );
                    }
                }
            )+};
        }
        pin_width!(
            1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24,
            25, 26, 27, 28, 29, 30, 31, 32, 33,
        );
    }

    /// The fallback's semantics stated directly: the first match,
    /// independent of any const-width path.
    #[test]
    fn runtime_fallback_first_semantics() {
        for n in 1..=33usize {
            let words = fixture(n, n as u64 * 31);
            for tag in 0..7u64 {
                assert_eq!(
                    find_match::<0>(&words, tag),
                    words.iter().position(|&w| packed::matches(w, tag)),
                    "width {n} tag {tag}"
                );
            }
        }
    }
}

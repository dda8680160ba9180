//! Lane operations for the batched replay kernels.
//!
//! Every hot probe in the simulator is a data-parallel sweep over a
//! small `u64` array: the packed tag compare of the set-associative
//! arrays, the CAM probes of the crate's `cam` module (the victim buffer,
//! AGAC's directory, the HAC subarrays), the B-Cache's
//! programmable-decoder entry match in `bcache-core`, and the LRU
//! stamp scan. This module factors those sweeps into a handful of
//! *lane operations* — first-match, dual compare-mask, first-set-lane,
//! popcount tally, min-index, and a shift-and-mask used for address
//! field decode.
//!
//! The three per-access probes — [`first_match`], [`dual_eq_masks`] and
//! [`min_index`] — have an **AVX2** body (`core::arch::x86_64`, four
//! 64-bit lanes per vector) next to the portable one. They pick it from
//! the platform alone: x86-64 and `is_x86_feature_detected!("avx2")`
//! (std caches the answer), with no override. Measured on traced
//! `replay-hit`, the portable bodies cost the 8-way, B-Cache and HAC
//! kernels 17–46% more per access (EXPERIMENTS.md, "Lane operations").
//! Every other operation is a single portable pure-`u64` loop:
//! straight-line and branch-free, the shape LLVM unrolls and
//! auto-vectorizes on any target.
//!
//! Both bodies of a probe return the same first-match, first-cold and
//! first-minimum index, bit for bit; the tests below check each body
//! against a plain iterator.

/// Lanes the batched kernels consume per iteration (the u64×8 group:
/// two AVX2 vectors, or one unrolled portable block).
pub const LANES: usize = 8;

/// Whether the AVX2 bodies may run on this CPU.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn has_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// One pass, two needles: returns the lane masks of
/// `(words[i] == needle_a, words[i] == needle_b)`.
///
/// The programmable decoder's fused probe: one load per entry feeds
/// both the PI match and the cold-entry (sentinel) compare.
#[inline(always)]
pub fn dual_eq_masks(words: &[u64], needle_a: u64, needle_b: u64) -> (u64, u64) {
    debug_assert!(words.len() <= 64, "lane mask wider than u64");
    // Below one vector the scalar compares win (see `first_match`).
    #[cfg(target_arch = "x86_64")]
    if words.len() >= 4 && has_avx2() {
        // SAFETY: the CPU reports AVX2.
        return unsafe { avx2::dual_eq_masks(words, needle_a, needle_b) };
    }
    portable::dual_eq_masks(words, needle_a, needle_b)
}

/// The first set lane of a compare mask, i.e. the CAM's priority
/// encoder.
#[inline(always)]
pub fn first_set_lane(mask: u64) -> Option<usize> {
    (mask != 0).then(|| mask.trailing_zeros() as usize)
}

/// Index of the first word with `(word & and_mask) == needle`, over a
/// slice of any length (chunked compare-mask with an early out).
///
/// The compare behind the tag and CAM probes: packed tag-match is
/// `and_mask = !2` (dirty bit ignored) against the `tag<<2|1` search
/// key, and first-invalid is `and_mask = 1` against 0.
#[inline(always)]
pub fn first_match(words: &[u64], and_mask: u64, needle: u64) -> Option<usize> {
    // Tiny widths (direct-mapped, 2-way) go straight to the scalar
    // compare: a vector setup costs more than the probe itself.
    if words.len() < 4 {
        return words.iter().position(|&w| (w & and_mask) == needle);
    }
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: the CPU reports AVX2.
        return unsafe { avx2::first_match(words, and_mask, needle) };
    }
    portable::first_match(words, and_mask, needle)
}

/// How many words satisfy `(word & and_mask) == needle` (popcount
/// tally over the compares); any slice length.
#[inline(always)]
pub fn count_matching(words: &[u64], and_mask: u64, needle: u64) -> usize {
    let mut n = 0usize;
    for &w in words {
        n += ((w & and_mask) == needle) as usize;
    }
    n
}

/// Index of the first minimum of `stamps` — exactly the victim LRU's
/// `min_by_key` picks (ties break to the lowest index). Returns 0 for
/// an empty slice.
#[inline(always)]
pub fn min_index(stamps: &[u64]) -> usize {
    // Below one vector the serial compare chain wins.
    if stamps.len() < 4 {
        let mut best = 0;
        for (i, &s) in stamps.iter().enumerate().skip(1) {
            if s < stamps[best] {
                best = i;
            }
        }
        return best;
    }
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: the CPU reports AVX2.
        return unsafe { avx2::min_index(stamps) };
    }
    portable::min_index(stamps)
}

/// Field decode: `out[i] = (src[i] >> shift) & mask`.
///
/// The pure (state-independent) half of an access — splitting a lane
/// group of addresses into set indices or tags — which the batched
/// kernels hoist out of the serial hit/miss resolution loop.
#[inline(always)]
pub fn shr_and(src: &[u64], shift: u32, mask: u64, out: &mut [u64]) {
    assert_eq!(src.len(), out.len(), "shr_and needs equal slices");
    debug_assert!(shift < 64, "shift must stay in range");
    for i in 0..src.len() {
        out[i] = (src[i] >> shift) & mask;
    }
}

// ---------------------------------------------------------------------
// Portable bodies of the three probes: bit-sliced loops with no data-
// dependent branches, the shape LLVM auto-vectorizes on any target.

mod portable {
    use super::LANES;

    /// Bit `i` of the result is set iff `(words[i] & and_mask) == needle`,
    /// over at most [`LANES`] words.
    #[inline(always)]
    fn masked_eq_mask(words: &[u64], and_mask: u64, needle: u64) -> u64 {
        let mut m = 0u64;
        for (i, &w) in words.iter().enumerate() {
            m |= (((w & and_mask) == needle) as u64) << i;
        }
        m
    }

    #[inline(always)]
    pub fn dual_eq_masks(words: &[u64], needle_a: u64, needle_b: u64) -> (u64, u64) {
        let (mut a, mut b) = (0u64, 0u64);
        for (i, &w) in words.iter().enumerate() {
            a |= ((w == needle_a) as u64) << i;
            b |= ((w == needle_b) as u64) << i;
        }
        (a, b)
    }

    #[inline(always)]
    pub fn first_match(words: &[u64], and_mask: u64, needle: u64) -> Option<usize> {
        // Lane groups of LANES with a per-group early out: the group
        // body is branch-free, the exit test is one compare per group.
        let mut base = 0;
        let mut chunks = words.chunks_exact(LANES);
        for c in &mut chunks {
            let m = masked_eq_mask(c, and_mask, needle);
            if m != 0 {
                return Some(base + m.trailing_zeros() as usize);
            }
            base += LANES;
        }
        let m = masked_eq_mask(chunks.remainder(), and_mask, needle);
        (m != 0).then(|| base + m.trailing_zeros() as usize)
    }

    #[inline(always)]
    pub fn min_index(stamps: &[u64]) -> usize {
        // Two passes: a lane-sliced running minimum (vectorizable),
        // then the priority encoder over lanes equal to the global
        // minimum — which is exactly "first index of the minimum".
        let mut vmin = [u64::MAX; LANES];
        let mut chunks = stamps.chunks_exact(LANES);
        for c in &mut chunks {
            for i in 0..LANES {
                // Branch-free blend: all-ones where the new stamp is lower.
                let lt = 0u64.wrapping_sub((c[i] < vmin[i]) as u64);
                vmin[i] = (c[i] & lt) | (vmin[i] & !lt);
            }
        }
        let mut m = u64::MAX;
        for &s in vmin.iter().chain(chunks.remainder()) {
            if s < m {
                m = s;
            }
        }
        first_match(stamps, !0, m).expect("the minimum is present")
    }
}

// ---------------------------------------------------------------------
// AVX2 bodies of the three probes: four u64 lanes per __m256i vector,
// scalar tails. Each requires the avx2 target feature, which the
// callers above check with `is_x86_feature_detected!`.

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// Compare-mask of one vector: bit i of the nibble is lane i's
    /// `(w & and_mask) == needle`.
    #[inline(always)]
    unsafe fn cmp_nibble(v: __m256i, and_mask: __m256i, needle: __m256i) -> u64 {
        let eq = _mm256_cmpeq_epi64(_mm256_and_si256(v, and_mask), needle);
        _mm256_movemask_pd(_mm256_castsi256_pd(eq)) as u64 & 0xF
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn dual_eq_masks(words: &[u64], needle_a: u64, needle_b: u64) -> (u64, u64) {
        let all = _mm256_set1_epi64x(-1);
        let na = _mm256_set1_epi64x(needle_a as i64);
        let nb = _mm256_set1_epi64x(needle_b as i64);
        let (mut a, mut b) = (0u64, 0u64);
        let mut lane = 0;
        let mut chunks = words.chunks_exact(4);
        for c in &mut chunks {
            let v = _mm256_loadu_si256(c.as_ptr() as *const __m256i);
            a |= cmp_nibble(v, all, na) << lane;
            b |= cmp_nibble(v, all, nb) << lane;
            lane += 4;
        }
        for (i, &w) in chunks.remainder().iter().enumerate() {
            a |= ((w == needle_a) as u64) << (lane + i);
            b |= ((w == needle_b) as u64) << (lane + i);
        }
        (a, b)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn first_match(words: &[u64], and_mask: u64, needle: u64) -> Option<usize> {
        let am = _mm256_set1_epi64x(and_mask as i64);
        let nd = _mm256_set1_epi64x(needle as i64);
        let mut base = 0;
        let mut chunks = words.chunks_exact(4);
        for c in &mut chunks {
            let v = _mm256_loadu_si256(c.as_ptr() as *const __m256i);
            let m = cmp_nibble(v, am, nd);
            if m != 0 {
                return Some(base + m.trailing_zeros() as usize);
            }
            base += 4;
        }
        chunks
            .remainder()
            .iter()
            .position(|&w| (w & and_mask) == needle)
            .map(|i| base + i)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn min_index(stamps: &[u64]) -> usize {
        // AVX2 has no unsigned 64-bit min, so compare in the sign-
        // biased domain (x ^ 1<<63 makes unsigned order signed) and
        // blend, then resolve the first lane equal to the global min.
        let bias = _mm256_set1_epi64x(i64::MIN);
        let mut vmin = _mm256_set1_epi64x(-1);
        let mut chunks = stamps.chunks_exact(4);
        for c in &mut chunks {
            let v = _mm256_loadu_si256(c.as_ptr() as *const __m256i);
            let gt = _mm256_cmpgt_epi64(_mm256_xor_si256(vmin, bias), _mm256_xor_si256(v, bias));
            vmin = _mm256_blendv_epi8(vmin, v, gt);
        }
        let lanes = [
            _mm256_extract_epi64::<0>(vmin) as u64,
            _mm256_extract_epi64::<1>(vmin) as u64,
            _mm256_extract_epi64::<2>(vmin) as u64,
            _mm256_extract_epi64::<3>(vmin) as u64,
        ];
        let mut m = u64::MAX;
        for &s in lanes.iter().chain(chunks.remainder()) {
            if s < m {
                m = s;
            }
        }
        first_match(stamps, !0, m).expect("the minimum is present")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64, matching the shims' generator.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed;
        move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// The bodies of the three probes this CPU can run — portable
    /// always, AVX2 when the CPU reports it — plus the dispatched entry
    /// points with their small-width shortcuts.
    struct Body {
        name: &'static str,
        first_match: fn(&[u64], u64, u64) -> Option<usize>,
        dual_eq_masks: fn(&[u64], u64, u64) -> (u64, u64),
        min_index: fn(&[u64]) -> usize,
    }

    fn bodies() -> Vec<Body> {
        let mut out = vec![
            Body {
                name: "portable",
                first_match: portable::first_match,
                dual_eq_masks: portable::dual_eq_masks,
                min_index: portable::min_index,
            },
            Body {
                name: "dispatched",
                first_match,
                dual_eq_masks,
                min_index,
            },
        ];
        #[cfg(target_arch = "x86_64")]
        if has_avx2() {
            // SAFETY (each closure): the CPU reports AVX2.
            out.push(Body {
                name: "avx2",
                first_match: |w, m, n| unsafe { avx2::first_match(w, m, n) },
                dual_eq_masks: |w, a, b| unsafe { avx2::dual_eq_masks(w, a, b) },
                min_index: |s| unsafe { avx2::min_index(s) },
            });
        }
        out
    }

    /// Every body of every probe against a plain iterator, over every
    /// length 0..=64 (vector bodies and every tail), with clustered
    /// values (frequent hits and ties) and full-range ones, and needles
    /// that are present, absent or `u64::MAX`.
    #[test]
    fn each_probe_body_matches_a_plain_iterator() {
        let bodies = bodies();
        for len in 0..=64usize {
            for seed in 0..4u64 {
                let mut next = rng(seed * 977 + len as u64);
                let clustered: Vec<u64> = (0..len).map(|_| next() % 8).collect();
                let full: Vec<u64> = (0..len).map(|_| next()).collect();
                for words in [&clustered, &full] {
                    let present = words.last().copied().unwrap_or(3);
                    for needle in [present, 3, 9, u64::MAX] {
                        for and_mask in [!0u64, !2, 1] {
                            let want = words.iter().position(|&w| (w & and_mask) == needle);
                            for b in &bodies {
                                let got = (b.first_match)(words, and_mask, needle);
                                assert_eq!(got, want, "{} first_match len {len}", b.name);
                            }
                        }
                        let mask_of = |n: u64| -> u64 {
                            let hits = words.iter().enumerate().filter(|&(_, &w)| w == n);
                            hits.map(|(i, _)| 1u64 << i).sum()
                        };
                        let want = (mask_of(needle), mask_of(u64::MAX));
                        for b in &bodies {
                            let got = (b.dual_eq_masks)(words, needle, u64::MAX);
                            assert_eq!(got, want, "{} dual_eq_masks len {len}", b.name);
                        }
                    }
                    if let Some((want, _)) = words.iter().enumerate().min_by_key(|&(_, s)| *s) {
                        for b in &bodies {
                            let got = (b.min_index)(words);
                            assert_eq!(got, want, "{} min_index len {len} {words:?}", b.name);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn min_index_breaks_ties_to_the_lowest_lane() {
        for b in bodies() {
            let min_index = b.min_index;
            assert_eq!(min_index(&[5, 2, 2, 9]), 1, "{}", b.name);
            assert_eq!(min_index(&[0; 32]), 0, "{}", b.name);
            // The tie at a lane-group boundary: lanes 3 and 4 equal.
            let mut s = vec![9u64; 11];
            s[3] = 1;
            s[4] = 1;
            assert_eq!(min_index(&s), 3, "{}", b.name);
            // Minimum only in the scalar tail.
            let mut t = vec![7u64; 9];
            t[8] = 0;
            assert_eq!(min_index(&t), 8, "{}", b.name);
        }
        assert_eq!(min_index(&[3]), 0);
        assert_eq!(min_index(&[]), 0);
    }

    #[test]
    fn portable_ops_follow_their_scalar_laws() {
        let mut next = rng(7);
        for len in 0..=64usize {
            let words: Vec<u64> = (0..len).map(|_| next() % 8).collect();
            let off: Vec<u64> = (0..len).map(|_| next()).collect();
            let want = words.iter().filter(|&&w| w & !2 == 1).count();
            assert_eq!(count_matching(&words, !2, 1), want, "len {len}");
            let mut out = vec![0u64; len];
            for shift in [0u32, 5, 31, 63] {
                shr_and(&off, shift, 0x3FF, &mut out);
                for i in 0..len {
                    assert_eq!(out[i], (off[i] >> shift) & 0x3FF);
                }
            }
        }
    }

    #[test]
    fn first_set_lane_is_a_priority_encoder() {
        assert_eq!(first_set_lane(0), None);
        assert_eq!(first_set_lane(0b1000), Some(3));
        assert_eq!(first_set_lane(u64::MAX), Some(0));
    }
}

//! Lane operations for the replay kernels, and the backend they run on.
//!
//! Every hot probe in the simulator is a data-parallel sweep over a
//! small `u64` array: the packed tag compare of the set-associative
//! arrays (32 ways wide for the HAC configuration), the CAM probe of the
//! crate's `cam` module (the victim buffer), the B-Cache's
//! programmable-decoder entry match in `bcache-core`, and the LRU stamp
//! scan. This module factors those sweeps into a handful of *lane
//! operations* — first-match, dual compare-mask, first-set-lane and
//! one-pass minimum.
//!
//! The three per-access probes — [`Lanes::first_match`],
//! [`Lanes::dual_eq_masks`] and [`Lanes::min_word`] — belong to a *lane
//! backend*: [`Portable`] everywhere and, on x86-64, [`Avx2`]
//! (`core::arch::x86_64`, four 64-bit lanes per vector). A backend is a
//! zero-sized type, and the kernels that probe take it as a type
//! parameter ([`LaneKernel`]), so each kernel is compiled once per
//! backend. [`dispatch`] picks the backend once per replay — one
//! `access_batch` or one `access` — from a CPU check made once per
//! process (AVX2, BMI1, BMI2, LZCNT, POPCNT; no override), and runs the
//! kernel inside a `#[target_feature]` frame, where every probe inlines:
//! no probe checks the CPU or calls out of the kernel. Measured in
//! process CPU time, that took the B-Cache's batched hit path from 9.0
//! to 5.8 ns per access (EXPERIMENTS.md, "Lane operations").
//! The one other operation, [`first_set_lane`], is a portable
//! priority encoder over a compare mask.
//!
//! Both backends return the same first-match index, masks and minimum,
//! bit for bit; the tests below check each body against a plain
//! iterator, and each probing model's tests replay streams on both.

/// Words per lane group of the portable probes (the u64×8 group: two
/// AVX2 vectors, or one unrolled portable block).
pub const LANES: usize = 8;

/// A lane backend: one body for each of the three per-access probes.
///
/// A backend is a zero-sized token passed by value, so every kernel that
/// takes one is monomorphized for it and its probes inline into the
/// kernel. [`dispatch`] picks the backend; [`run`](Self::run) enters the
/// backend's frame.
///
/// Every backend returns the same first match, masks and minimum, bit
/// for bit: the probe rule belongs to the operation, not the backend.
pub trait Lanes: Copy {
    /// Runs `kernel` on this backend, inside a function compiled for
    /// the backend's target features, so the kernel's probes inline.
    fn run<K: LaneKernel>(self, kernel: K) -> K::Output;

    /// Index of the first word with `(word & and_mask) == needle`, over
    /// a slice of any length (chunked compare-mask with an early out).
    ///
    /// The compare behind the tag and CAM probes: packed tag-match is
    /// `and_mask = !2` (dirty bit ignored) against the `tag<<2|1` search
    /// key.
    fn first_match(self, words: &[u64], and_mask: u64, needle: u64) -> Option<usize>;

    /// One pass, two needles: returns the lane masks of
    /// `(words[i] == needle_a, words[i] == needle_b)`, over at most 64
    /// words.
    ///
    /// The programmable decoder's fused probe: one load per entry feeds
    /// both the PI match and the cold-entry (sentinel) compare.
    fn dual_eq_masks(self, words: &[u64], needle_a: u64, needle_b: u64) -> (u64, u64);

    /// The unsigned minimum of `words`, in one pass (`u64::MAX` for an
    /// empty slice).
    ///
    /// The LRU victim scan: [`crate::replacement::Replacement`] stores
    /// each stamp as `clock << shift | way`, so the minimum word carries its
    /// own way in the low bits and no second, first-equal pass is
    /// needed.
    fn min_word(self, words: &[u64]) -> u64;
}

/// A kernel generic over the lane backend: what [`dispatch`] and
/// [`Lanes::run`] run.
pub trait LaneKernel {
    /// What the kernel returns.
    type Output;

    /// Runs the kernel with its probes on `lanes`.
    fn run<L: Lanes>(self, lanes: L) -> Self::Output;
}

/// Runs `kernel` on the backend this CPU supports: [`Avx2`] when the
/// CPU has every feature of its frame, [`Portable`] otherwise.
///
/// The CPU is checked once per process; a call costs one load and one
/// call into the frame, so a replay enters here once, not once per
/// probe.
#[inline]
pub fn dispatch<K: LaneKernel>(kernel: K) -> K::Output {
    #[cfg(target_arch = "x86_64")]
    match Avx2::new() {
        Some(lanes) => lanes.run(kernel),
        None => portable_fallback(kernel),
    }
    #[cfg(not(target_arch = "x86_64"))]
    Portable.run(kernel)
}

/// [`dispatch`]'s portable arm on x86-64, out of line and cold: an
/// x86-64 CPU without the AVX2 frame's features is rare, so the portable
/// copy of each kernel is kept off the hot code's pages.
#[cfg(target_arch = "x86_64")]
#[cold]
#[inline(never)]
fn portable_fallback<K: LaneKernel>(kernel: K) -> K::Output {
    Portable.run(kernel)
}

/// The portable backend: bit-sliced loops with no data-dependent
/// branches, the shape LLVM unrolls and auto-vectorizes on any target.
#[derive(Copy, Clone, Debug, Default)]
pub struct Portable;

impl Lanes for Portable {
    #[inline(always)]
    fn run<K: LaneKernel>(self, kernel: K) -> K::Output {
        kernel.run(self)
    }

    #[inline(always)]
    fn first_match(self, words: &[u64], and_mask: u64, needle: u64) -> Option<usize> {
        // Tiny widths (direct-mapped, 2-way) go straight to the scalar
        // compare: a lane group costs more than the probe itself.
        if words.len() < 4 {
            return words.iter().position(|&w| (w & and_mask) == needle);
        }
        portable::first_match(words, and_mask, needle)
    }

    #[inline(always)]
    fn dual_eq_masks(self, words: &[u64], needle_a: u64, needle_b: u64) -> (u64, u64) {
        debug_assert!(words.len() <= 64, "lane mask wider than u64");
        portable::dual_eq_masks(words, needle_a, needle_b)
    }

    #[inline(always)]
    fn min_word(self, words: &[u64]) -> u64 {
        if words.len() < 4 {
            return min_below_a_vector(words);
        }
        portable::min_word(words)
    }
}

/// [`Lanes::min_word`] below one vector (the 1- and 2-way LRU stamps):
/// the serial compare chain, spelled out per length so that no backend
/// compiles it into a vector loop with a runtime trip count.
#[inline(always)]
fn min_below_a_vector(words: &[u64]) -> u64 {
    match *words {
        [] => u64::MAX,
        [a] => a,
        [a, b] => a.min(b),
        [a, b, c] => a.min(b).min(c),
        _ => unreachable!("only called below one vector"),
    }
}

/// The AVX2 backend (`core::arch::x86_64`, four 64-bit lanes per
/// vector), with the portable backend's scalar shortcuts below one
/// vector.
///
/// A value exists only on a CPU with every feature of the frame
/// [`run`](Lanes::run) enters (AVX2, BMI1, BMI2, LZCNT, POPCNT): get it
/// from [`Avx2::new`].
#[cfg(target_arch = "x86_64")]
#[derive(Copy, Clone, Debug)]
pub struct Avx2(());

#[cfg(target_arch = "x86_64")]
impl Avx2 {
    /// The backend, if this CPU has every feature of its frame.
    #[inline]
    pub fn new() -> Option<Self> {
        frame_features().then_some(Avx2(()))
    }
}

/// Whether this CPU has every target feature [`Avx2`]'s frame enables.
/// The only feature check in the workspace; made once per process.
#[cfg(target_arch = "x86_64")]
#[inline]
fn frame_features() -> bool {
    static DETECTED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *DETECTED.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("bmi1")
            && std::arch::is_x86_feature_detected!("bmi2")
            && std::arch::is_x86_feature_detected!("lzcnt")
            && std::arch::is_x86_feature_detected!("popcnt")
    })
}

/// The frame of [`Avx2`]: the kernel, its probes inlined, compiled for
/// the backend's features.
///
/// # Safety
///
/// The CPU must have every enabled feature; an [`Avx2`] value proves it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,bmi1,bmi2,lzcnt,popcnt")]
unsafe fn avx2_frame<K: LaneKernel>(kernel: K, lanes: Avx2) -> K::Output {
    kernel.run(lanes)
}

#[cfg(target_arch = "x86_64")]
impl Lanes for Avx2 {
    #[inline(always)]
    fn run<K: LaneKernel>(self, kernel: K) -> K::Output {
        // SAFETY: an `Avx2` value exists only if the CPU has every
        // feature of the frame.
        unsafe { avx2_frame(kernel, self) }
    }

    #[inline(always)]
    fn first_match(self, words: &[u64], and_mask: u64, needle: u64) -> Option<usize> {
        if words.len() < 4 {
            return words.iter().position(|&w| (w & and_mask) == needle);
        }
        // SAFETY: an `Avx2` value exists only if the CPU has AVX2.
        unsafe { avx2::first_match(words, and_mask, needle) }
    }

    #[inline(always)]
    fn dual_eq_masks(self, words: &[u64], needle_a: u64, needle_b: u64) -> (u64, u64) {
        debug_assert!(words.len() <= 64, "lane mask wider than u64");
        // Below one vector the scalar compares win (see `first_match`).
        if words.len() < 4 {
            return portable::dual_eq_masks(words, needle_a, needle_b);
        }
        // SAFETY: an `Avx2` value exists only if the CPU has AVX2.
        unsafe { avx2::dual_eq_masks(words, needle_a, needle_b) }
    }

    #[inline(always)]
    fn min_word(self, words: &[u64]) -> u64 {
        if words.len() < 4 {
            return min_below_a_vector(words);
        }
        // SAFETY: an `Avx2` value exists only if the CPU has AVX2.
        unsafe { avx2::min_word(words) }
    }
}

/// The first set lane of a compare mask, i.e. the CAM's priority
/// encoder.
#[inline(always)]
pub fn first_set_lane(mask: u64) -> Option<usize> {
    (mask != 0).then(|| mask.trailing_zeros() as usize)
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
    pub fn min_word(words: &[u64]) -> u64 {
        // A lane-sliced running minimum (vectorizable), then the fold
        // of its lanes and the tail.
        let mut vmin = [u64::MAX; LANES];
        let mut chunks = words.chunks_exact(LANES);
        for c in &mut chunks {
            for i in 0..LANES {
                vmin[i] = vmin[i].min(c[i]);
            }
        }
        let tail = chunks.remainder();
        vmin.iter().chain(tail).fold(u64::MAX, |m, &w| m.min(w))
    }
}

// ---------------------------------------------------------------------
// AVX2 bodies of the three probes: four u64 lanes per __m256i vector,
// scalar tails. Each requires a CPU with AVX2, which an `Avx2` value
// proves. They carry no `#[target_feature]` of their own, so they
// always inline, and their intrinsics compile to AVX2 instructions
// inside `avx2_frame`; called anywhere else, each intrinsic stays a
// call (correct, but slow).

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

    #[inline(always)]
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

    #[inline(always)]
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

    #[inline(always)]
    pub unsafe fn min_word(words: &[u64]) -> u64 {
        // AVX2 has no unsigned 64-bit min, so the running minimum lives
        // in the sign-biased domain (x ^ 1<<63 makes unsigned order
        // signed): one bias, one compare and one blend per vector.
        let bias = _mm256_set1_epi64x(i64::MIN);
        let mut vmin = _mm256_set1_epi64x(i64::MAX);
        let mut chunks = words.chunks_exact(4);
        for c in &mut chunks {
            let v = _mm256_xor_si256(_mm256_loadu_si256(c.as_ptr() as *const __m256i), bias);
            vmin = _mm256_blendv_epi8(vmin, v, _mm256_cmpgt_epi64(vmin, v));
        }
        let vmin = _mm256_xor_si256(vmin, bias);
        let lanes = [
            _mm256_extract_epi64::<0>(vmin) as u64,
            _mm256_extract_epi64::<1>(vmin) as u64,
            _mm256_extract_epi64::<2>(vmin) as u64,
            _mm256_extract_epi64::<3>(vmin) as u64,
        ];
        // Two plain folds: a `Chain` fold would stay a call in the frame.
        let min = lanes.iter().fold(u64::MAX, |m, &w| m.min(w));
        chunks.remainder().iter().fold(min, |m, &w| m.min(w))
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
    /// always, AVX2 when the CPU has the frame's features — each bare
    /// and as its backend's method, with the small-width shortcuts.
    struct Body {
        name: &'static str,
        first_match: fn(&[u64], u64, u64) -> Option<usize>,
        dual_eq_masks: fn(&[u64], u64, u64) -> (u64, u64),
        min_word: fn(&[u64]) -> u64,
    }

    fn bodies() -> Vec<Body> {
        let mut out = vec![
            Body {
                name: "portable body",
                first_match: portable::first_match,
                dual_eq_masks: portable::dual_eq_masks,
                min_word: portable::min_word,
            },
            Body {
                name: "Portable",
                first_match: |w, m, n| Portable.first_match(w, m, n),
                dual_eq_masks: |w, a, b| Portable.dual_eq_masks(w, a, b),
                min_word: |s| Portable.min_word(s),
            },
        ];
        #[cfg(target_arch = "x86_64")]
        if Avx2::new().is_some() {
            // SAFETY (each closure): the CPU reports AVX2.
            out.push(Body {
                name: "avx2 body",
                first_match: |w, m, n| unsafe { avx2::first_match(w, m, n) },
                dual_eq_masks: |w, a, b| unsafe { avx2::dual_eq_masks(w, a, b) },
                min_word: |s| unsafe { avx2::min_word(s) },
            });
            out.push(Body {
                name: "Avx2",
                first_match: |w, m, n| Avx2::new().unwrap().first_match(w, m, n),
                dual_eq_masks: |w, a, b| Avx2::new().unwrap().dual_eq_masks(w, a, b),
                min_word: |s| Avx2::new().unwrap().min_word(s),
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
                    let want = words.iter().copied().min().unwrap_or(u64::MAX);
                    for b in &bodies {
                        let got = (b.min_word)(words);
                        assert_eq!(got, want, "{} min_word len {len} {words:?}", b.name);
                    }
                }
            }
        }
    }

    #[test]
    fn min_word_finds_the_minimum_at_lane_boundaries_and_ties() {
        for b in bodies() {
            let min_word = b.min_word;
            assert_eq!(min_word(&[5, 2, 2, 9]), 2, "{}", b.name);
            assert_eq!(min_word(&[0; 32]), 0, "{}", b.name);
            // The minimum on either side of a lane-group boundary.
            for lane in [3, 4, 7, 8] {
                let mut s = vec![9u64; 11];
                s[lane] = 1;
                assert_eq!(min_word(&s), 1, "{} lane {lane}", b.name);
            }
            // Minimum only in the scalar tail.
            let mut t = vec![7u64; 9];
            t[8] = 0;
            assert_eq!(min_word(&t), 0, "{}", b.name);
            // Unsigned order across the sign bit the AVX2 body biases.
            let signed = [u64::MAX, 1 << 63, (1 << 63) - 1, 1 << 63];
            assert_eq!(min_word(&signed), (1 << 63) - 1, "{}", b.name);
        }
    }

    #[test]
    fn first_set_lane_is_a_priority_encoder() {
        assert_eq!(first_set_lane(0), None);
        assert_eq!(first_set_lane(0b1000), Some(3));
        assert_eq!(first_set_lane(u64::MAX), Some(0));
    }
}

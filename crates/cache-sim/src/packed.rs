//! Packed per-line metadata: `tag << 2 | dirty << 1 | valid` in one
//! `u64`.
//!
//! The hot replay paths keep each line's tag, valid and dirty state in a
//! single `Vec<u64>` word instead of three parallel arrays, so a lookup
//! is one load and one compare. An empty (invalid) line is the all-zero
//! word, which makes `vec![0; lines]` a cold cache. All seven model
//! families share the layout: the direct-mapped, set-associative and
//! skewed arrays store a tag; the victim buffer, the column-associative
//! and AGAC caches here and the B-Cache in `bcache-core` store a block
//! id (tag and index bits together) in the tag field.

/// An empty (invalid, clean) line.
pub const EMPTY: u64 = 0;

/// Widest tag (or block id) the packed word can hold alongside the two
/// flag bits.
pub const MAX_TAG_BITS: u32 = 62;

/// Packs a just-filled valid line.
#[inline(always)]
pub const fn fill(tag: u64, dirty: bool) -> u64 {
    (tag << 2) | ((dirty as u64) << 1) | 1
}

/// Whether the line is valid.
#[inline(always)]
pub const fn is_valid(word: u64) -> bool {
    word & 1 != 0
}

/// Whether the line is dirty.
#[inline(always)]
pub const fn is_dirty(word: u64) -> bool {
    word & 2 != 0
}

/// The stored tag.
#[inline(always)]
pub const fn tag(word: u64) -> u64 {
    word >> 2
}

/// Whether the line is valid *and* holds `tag` — the one-compare hit
/// test (the dirty bit is masked out).
#[inline(always)]
pub const fn matches(word: u64, tag: u64) -> bool {
    word & MATCH_MASK == search_key(tag)
}

/// The AND-mask of the [`matches()`] compare: everything but the dirty
/// bit. Paired with [`search_key`] it turns the hit test into the
/// generic `(word & mask) == key` form the SIMD lane compares consume.
pub const MATCH_MASK: u64 = !2;

/// The search key [`matches()`] compares against: `tag` shifted into
/// place with the valid bit set.
#[inline(always)]
pub const fn search_key(tag: u64) -> u64 {
    (tag << 2) | 1
}

/// The line with its dirty bit set.
#[inline(always)]
pub const fn set_dirty(word: u64) -> u64 {
    word | 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_flag_tests() {
        let w = fill(0x3FF, false);
        assert!(is_valid(w) && !is_dirty(w));
        assert_eq!(tag(w), 0x3FF);
        assert!(matches(w, 0x3FF));
        assert!(!matches(w, 0x3FE));
        let d = set_dirty(w);
        assert!(is_dirty(d) && matches(d, 0x3FF), "dirty cannot unmatch");
        assert_eq!(tag(d), 0x3FF);
    }

    #[test]
    fn empty_never_matches() {
        assert!(!is_valid(EMPTY) && !is_dirty(EMPTY));
        assert!(!matches(EMPTY, 0), "even tag 0 needs the valid bit");
        let max = fill((1 << MAX_TAG_BITS) - 1, true);
        assert_eq!(tag(max), (1 << MAX_TAG_BITS) - 1);
    }
}

//! Cache geometry: capacity, line size, associativity and the derived
//! address bit-fields.
//!
//! A [`CacheGeometry`] fixes how an address is split into
//! `tag | index | offset` for a conventional cache. Every model keeps one,
//! and the B-Cache derives its lengthened programmable index from it.

use std::fmt;

use crate::addr::{log2_exact, Addr};

/// Errors produced while constructing a [`CacheGeometry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeometryError {
    /// A size parameter was zero or not a power of two.
    NotPowerOfTwo {
        /// Which parameter was invalid.
        what: &'static str,
        /// The offending value.
        value: usize,
    },
    /// The line size exceeds the capacity.
    LineLargerThanCache {
        /// Line size in bytes.
        line: usize,
        /// Cache size in bytes.
        size: usize,
    },
    /// Associativity exceeds the number of lines.
    AssocLargerThanLines {
        /// Requested associativity.
        assoc: usize,
        /// Available lines.
        lines: usize,
    },
    /// The address width cannot hold offset + index bits.
    AddrTooNarrow {
        /// Requested address width.
        addr_bits: u32,
        /// Bits needed by offset + index.
        needed: u32,
    },
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::NotPowerOfTwo { what, value } => {
                write!(f, "{what} must be a nonzero power of two, got {value}")
            }
            GeometryError::LineLargerThanCache { line, size } => {
                write!(f, "line size {line} exceeds cache size {size}")
            }
            GeometryError::AssocLargerThanLines { assoc, lines } => {
                write!(f, "associativity {assoc} exceeds line count {lines}")
            }
            GeometryError::AddrTooNarrow { addr_bits, needed } => {
                write!(
                    f,
                    "address width {addr_bits} cannot hold {needed} offset+index bits"
                )
            }
        }
    }
}

impl std::error::Error for GeometryError {}

/// The shape of a cache: capacity, line size, associativity and address
/// width.
///
/// All sizes are powers of two. `assoc == 1` is a direct-mapped cache;
/// `assoc == lines()` is fully associative.
///
/// # Examples
///
/// ```
/// use cache_sim::CacheGeometry;
///
/// // The paper's baseline: 16 kB direct-mapped, 32-byte lines.
/// let g = CacheGeometry::new(16 * 1024, 32, 1)?;
/// assert_eq!(g.sets(), 512);
/// assert_eq!(g.offset_bits(), 5);
/// assert_eq!(g.index_bits(), 9);
/// assert_eq!(g.tag_bits(), 18);
/// # Ok::<(), cache_sim::GeometryError>(())
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct CacheGeometry {
    size_bytes: usize,
    line_bytes: usize,
    assoc: usize,
    addr_bits: u32,
    // Field widths, fixed at construction so the per-access accessors
    // below cost shifts, not divisions.
    offset_bits: u32,
    index_bits: u32,
}

/// Default simulated physical address width, matching the paper.
pub const DEFAULT_ADDR_BITS: u32 = 32;

impl CacheGeometry {
    /// Creates a geometry with the default 32-bit address width.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] if any size is zero or not a power of
    /// two, if the line exceeds the capacity, or if the associativity
    /// exceeds the number of lines.
    pub fn new(size_bytes: usize, line_bytes: usize, assoc: usize) -> Result<Self, GeometryError> {
        Self::with_addr_bits(size_bytes, line_bytes, assoc, DEFAULT_ADDR_BITS)
    }

    /// Creates a geometry with an explicit address width.
    ///
    /// Narrow widths are useful in tests where the tag space must be small
    /// (for instance to drive the B-Cache's mapping factor to its maximum).
    ///
    /// # Errors
    ///
    /// See [`CacheGeometry::new`]; additionally fails if `addr_bits` cannot
    /// hold the offset and index fields or exceeds 64.
    pub fn with_addr_bits(
        size_bytes: usize,
        line_bytes: usize,
        assoc: usize,
        addr_bits: u32,
    ) -> Result<Self, GeometryError> {
        for (what, value) in [
            ("cache size", size_bytes),
            ("line size", line_bytes),
            ("associativity", assoc),
        ] {
            if value == 0 || !value.is_power_of_two() {
                return Err(GeometryError::NotPowerOfTwo { what, value });
            }
        }
        if line_bytes > size_bytes {
            return Err(GeometryError::LineLargerThanCache {
                line: line_bytes,
                size: size_bytes,
            });
        }
        let lines = size_bytes / line_bytes;
        if assoc > lines {
            return Err(GeometryError::AssocLargerThanLines { assoc, lines });
        }
        let geom = CacheGeometry {
            size_bytes,
            line_bytes,
            assoc,
            addr_bits,
            offset_bits: log2_exact(line_bytes as u64),
            index_bits: log2_exact((lines / assoc) as u64),
        };
        let needed = geom.offset_bits + geom.index_bits;
        if addr_bits > 64 || addr_bits < needed {
            return Err(GeometryError::AddrTooNarrow { addr_bits, needed });
        }
        Ok(geom)
    }

    /// Total capacity in bytes.
    pub const fn size_bytes(&self) -> usize {
        self.size_bytes
    }

    /// Cache line (block) size in bytes.
    pub const fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    /// Number of ways per set.
    pub const fn assoc(&self) -> usize {
        self.assoc
    }

    /// Simulated address width in bits.
    pub const fn addr_bits(&self) -> u32 {
        self.addr_bits
    }

    /// Total number of cache lines.
    pub const fn lines(&self) -> usize {
        self.sets() * self.assoc
    }

    /// Number of sets (`lines / assoc`).
    pub const fn sets(&self) -> usize {
        1 << self.index_bits
    }

    /// Width of the block-offset field.
    pub const fn offset_bits(&self) -> u32 {
        self.offset_bits
    }

    /// Width of the set-index field.
    pub const fn index_bits(&self) -> u32 {
        self.index_bits
    }

    /// Width of the tag field (`addr_bits - index - offset`).
    pub const fn tag_bits(&self) -> u32 {
        self.block_id_bits() - self.index_bits()
    }

    /// Width of the block id (`addr_bits - offset`: tag and index).
    pub const fn block_id_bits(&self) -> u32 {
        self.addr_bits - self.offset_bits()
    }

    /// Extracts the block id of `addr`: its tag and index fields
    /// together, so addresses that differ only above `addr_bits` name
    /// the same block.
    #[inline]
    pub fn block_id(&self, addr: Addr) -> u64 {
        (addr.raw() >> self.offset_bits) & field_mask(self.block_id_bits())
    }

    /// Extracts the set index of `addr`.
    #[inline]
    pub fn set_index(&self, addr: Addr) -> usize {
        addr.bits(self.offset_bits(), self.index_bits()) as usize
    }

    /// Extracts the tag of `addr`.
    #[inline]
    pub fn tag(&self, addr: Addr) -> u64 {
        addr.bits(self.offset_bits() + self.index_bits(), self.tag_bits())
    }

    /// Precomputes the `tag | index | offset` field split as shift/mask
    /// pairs, for hot loops that should not rebuild the field masks of
    /// [`set_index`](Self::set_index) / [`tag`](Self::tag) per access.
    pub const fn split(&self) -> TagIndexSplit {
        TagIndexSplit {
            index_shift: self.offset_bits(),
            index_mask: field_mask(self.index_bits()),
            tag_shift: self.offset_bits() + self.index_bits(),
            tag_mask: field_mask(self.tag_bits()),
        }
    }

    /// Rounds `addr` down to its cache-block base.
    pub fn block_base(&self, addr: Addr) -> Addr {
        addr.align_down(self.line_bytes as u64)
    }

    /// Reconstructs the block base address from a `(tag, set)` pair.
    ///
    /// This is the inverse of [`tag`](Self::tag) /
    /// [`set_index`](Self::set_index) and is used to name evicted blocks.
    pub fn reconstruct(&self, tag: u64, set: usize) -> Addr {
        debug_assert!(set < self.sets());
        let idx = (set as u64) << self.offset_bits();
        let tag = tag << (self.offset_bits() + self.index_bits());
        Addr::new(tag | idx)
    }

    /// Returns a copy of this geometry with a different associativity.
    ///
    /// # Errors
    ///
    /// Same as [`CacheGeometry::new`].
    pub fn with_assoc(&self, assoc: usize) -> Result<Self, GeometryError> {
        Self::with_addr_bits(self.size_bytes, self.line_bytes, assoc, self.addr_bits)
    }
}

/// A right-aligned bit mask of `width` bits (0 ≤ width ≤ 64).
pub(crate) const fn field_mask(width: u32) -> u64 {
    if width == 0 {
        0
    } else {
        u64::MAX >> (64 - width)
    }
}

/// The `tag | index | offset` split of a [`CacheGeometry`] as
/// precomputed shift/mask pairs (see [`CacheGeometry::split`]).
///
/// Extraction through this struct is bit-identical to the geometry's
/// own accessors; it exists so batched replay loops read two plain
/// fields per access instead of re-deriving field widths.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TagIndexSplit {
    /// Right-shift bringing the index field to bit 0.
    pub index_shift: u32,
    /// Mask of the shifted index field.
    pub index_mask: u64,
    /// Right-shift bringing the tag field to bit 0.
    pub tag_shift: u32,
    /// Mask of the shifted tag field.
    pub tag_mask: u64,
}

impl TagIndexSplit {
    /// Extracts the set index of `addr` (equals
    /// [`CacheGeometry::set_index`]).
    #[inline(always)]
    pub fn set_index(&self, addr: Addr) -> usize {
        ((addr.raw() >> self.index_shift) & self.index_mask) as usize
    }

    /// Extracts the tag of `addr` (equals [`CacheGeometry::tag`]).
    #[inline(always)]
    pub fn tag(&self, addr: Addr) -> u64 {
        (addr.raw() >> self.tag_shift) & self.tag_mask
    }
}

impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let size = self.size_bytes;
        if size.is_multiple_of(1024) {
            write!(
                f,
                "{}kB/{}B/{}-way",
                size / 1024,
                self.line_bytes,
                self.assoc
            )
        } else {
            write!(f, "{}B/{}B/{}-way", size, self.line_bytes, self.assoc)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> CacheGeometry {
        CacheGeometry::new(16 * 1024, 32, 1).unwrap()
    }

    #[test]
    fn paper_baseline_fields() {
        let g = baseline();
        assert_eq!(g.lines(), 512);
        assert_eq!(g.sets(), 512);
        assert_eq!(g.offset_bits(), 5);
        assert_eq!(g.index_bits(), 9);
        assert_eq!(g.tag_bits(), 18);
    }

    #[test]
    fn eight_way_fields() {
        let g = CacheGeometry::new(16 * 1024, 32, 8).unwrap();
        assert_eq!(g.sets(), 64);
        assert_eq!(g.index_bits(), 6);
        assert_eq!(g.tag_bits(), 21);
    }

    #[test]
    fn fully_associative_has_no_index() {
        let g = CacheGeometry::new(512, 32, 16).unwrap();
        assert_eq!(g.sets(), 1);
        assert_eq!(g.index_bits(), 0);
        assert_eq!(g.tag_bits(), 27);
    }

    #[test]
    fn tag_index_round_trip() {
        let g = CacheGeometry::new(16 * 1024, 32, 2).unwrap();
        let addr = Addr::new(0xDEAD_BEE0);
        let tag = g.tag(addr);
        let set = g.set_index(addr);
        assert_eq!(g.reconstruct(tag, set), g.block_base(addr));
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert!(matches!(
            CacheGeometry::new(3000, 32, 1),
            Err(GeometryError::NotPowerOfTwo {
                what: "cache size",
                ..
            })
        ));
        assert!(matches!(
            CacheGeometry::new(4096, 33, 1),
            Err(GeometryError::NotPowerOfTwo {
                what: "line size",
                ..
            })
        ));
        assert!(matches!(
            CacheGeometry::new(4096, 32, 3),
            Err(GeometryError::NotPowerOfTwo {
                what: "associativity",
                ..
            })
        ));
        assert!(matches!(
            CacheGeometry::new(4096, 32, 0),
            Err(GeometryError::NotPowerOfTwo {
                what: "associativity",
                ..
            })
        ));
    }

    #[test]
    fn rejects_impossible_shapes() {
        assert!(matches!(
            CacheGeometry::new(32, 64, 1),
            Err(GeometryError::LineLargerThanCache { .. })
        ));
        assert!(matches!(
            CacheGeometry::new(1024, 32, 64),
            Err(GeometryError::AssocLargerThanLines { .. })
        ));
        assert!(matches!(
            CacheGeometry::with_addr_bits(16 * 1024, 32, 1, 10),
            Err(GeometryError::AddrTooNarrow { .. })
        ));
    }

    #[test]
    fn with_assoc_preserves_other_fields() {
        let g = baseline().with_assoc(8).unwrap();
        assert_eq!(g.size_bytes(), 16 * 1024);
        assert_eq!(g.assoc(), 8);
        assert_eq!(g.addr_bits(), 32);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(baseline().to_string(), "16kB/32B/1-way");
        let small = CacheGeometry::new(256, 32, 2).unwrap();
        assert_eq!(small.to_string(), "256B/32B/2-way");
    }

    #[test]
    fn narrow_address_width_is_supported() {
        let g = CacheGeometry::with_addr_bits(256, 32, 1, 16).unwrap();
        assert_eq!(g.tag_bits(), 16 - 5 - 3);
    }

    #[test]
    fn split_matches_the_field_accessors() {
        for g in [
            baseline(),
            CacheGeometry::new(16 * 1024, 32, 8).unwrap(),
            CacheGeometry::new(512, 32, 16).unwrap(), // index_bits == 0
            CacheGeometry::with_addr_bits(256, 32, 1, 16).unwrap(),
        ] {
            let split = g.split();
            for raw in [0u64, 0x1040, 0xDEAD_BEE0, 0xFFFF_FFFF, 0x1_0000_0000] {
                let addr = Addr::new(raw);
                assert_eq!(split.set_index(addr), g.set_index(addr), "{g} {raw:#x}");
                assert_eq!(split.tag(addr), g.tag(addr), "{g} {raw:#x}");
            }
        }
    }
}

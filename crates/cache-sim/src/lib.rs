//! # cache-sim — cache models and memory-hierarchy substrate
//!
//! This crate is the simulation substrate of the [B-Cache reproduction]
//! (ISCA 2006, *Balanced Cache: Reducing Conflict Misses of Direct-Mapped
//! Caches through Programmable Decoders*). It provides:
//!
//! * the [`CacheModel`] trait and access types shared by every cache;
//! * the paper's baseline and comparison caches: [`DirectMappedCache`],
//!   [`SetAssociativeCache`] (2-way … 32-way, LRU or random),
//!   [`VictimCache`] (Jouppi), [`ColumnAssociativeCache`],
//!   [`SkewedAssociativeCache`] and [`AgacCache`];
//! * the Table 4 [`MemoryHierarchy`] (split L1, unified 4-way 256 kB L2,
//!   infinite memory);
//! * statistics, including the per-set usage counters behind the paper's
//!   Table 7 balance analysis.
//!
//! The B-Cache itself lives in the `bcache-core` crate, implemented
//! against the traits defined here.
//!
//! ## Quick start
//!
//! ```
//! use cache_sim::{AccessKind, CacheModel, DirectMappedCache, SetAssociativeCache, PolicyKind};
//!
//! // The paper's worst case: perfectly conflicting blocks.
//! let mut dm = DirectMappedCache::new(256, 32)?;
//! let mut two_way = SetAssociativeCache::new(256, 32, 2, PolicyKind::Lru, 0)?;
//! for _ in 0..4 {
//!     for block in [0u64, 1, 8, 9] {
//!         let addr = (block * 32).into();
//!         dm.access(addr, AccessKind::Read);
//!         two_way.access(addr, AccessKind::Read);
//!     }
//! }
//! assert_eq!(dm.stats().total().hits(), 0);        // thrashes forever
//! assert_eq!(two_way.stats().total().misses(), 4); // only cold misses
//! # Ok::<(), cache_sim::GeometryError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod agac;
mod cam;
pub mod column;
pub mod direct;
pub mod geometry;
pub mod hierarchy;
#[cfg(test)]
mod lane_backends;
pub mod model;
pub mod oracle;
pub mod packed;
pub mod replacement;
pub mod set_assoc;
pub mod simd;
pub mod skewed;
pub mod stats;
pub mod victim;

pub use addr::Addr;
pub use agac::AgacCache;
pub use column::ColumnAssociativeCache;
pub use direct::DirectMappedCache;
pub use geometry::{CacheGeometry, GeometryError, TagIndexSplit, DEFAULT_ADDR_BITS};
pub use hierarchy::{LatencyConfig, MemoryHierarchy};
pub use model::{AccessKind, AccessResult, CacheModel, Eviction, LaneAccess, LaneBatch, LaneModel};
pub use oracle::{BCacheOracle, OracleCache, OracleOutcome, VictimOracle};
pub use replacement::{make_policy, LanePolicy, Lru, PolicyKind, ReplacementPolicy};
pub use set_assoc::SetAssociativeCache;
pub use skewed::SkewedAssociativeCache;
pub use stats::{BalanceReport, BatchTally, CacheStats, Counter, PdStats, SetUsage, Tally};
pub use victim::VictimCache;

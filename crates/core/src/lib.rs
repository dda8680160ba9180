//! # bcache-core — the Balanced Cache
//!
//! Reproduction of the cache proposed in *Balanced Cache: Reducing
//! Conflict Misses of Direct-Mapped Caches through Programmable Decoders*
//! (Chuanjun Zhang, ISCA 2006).
//!
//! The B-Cache keeps the one-cycle access of a direct-mapped cache but
//! approaches the miss rate of an 8-way set-associative cache by:
//!
//! 1. **lengthening the index** by `log2(MF)` bits, so only `1/MF` of the
//!    address space maps to the cache sets at a time (fewer accesses land
//!    on heavily used sets);
//! 2. **decoding part of the index with programmable CAM decoders** (PDs)
//!    that are reprogrammed on the fly during refills;
//! 3. **adding a replacement policy**: when the PD misses, the victim is
//!    chosen among `BAS` candidate sets, steering refills toward
//!    underutilized sets.
//!
//! See [`BalancedCache`] for the functional model, [`BCacheParams`] /
//! [`IndexLayout`] for the design space, [`ProgrammableDecoder`] for the
//! CAM state, and [`organization`] for the physical decoder shapes used
//! by the timing/energy/area models.
//!
//! ## Quick start
//!
//! ```
//! use bcache_core::{BCacheParams, BalancedCache};
//! use cache_sim::{AccessKind, CacheGeometry, CacheModel};
//!
//! // The paper's L1: 16 kB direct-mapped base, MF = 8, BAS = 8, LRU.
//! let geom = CacheGeometry::new(16 * 1024, 32, 1)?;
//! let mut bc = BalancedCache::new(BCacheParams::paper_default(geom)?);
//!
//! // Eight blocks that would thrash a direct-mapped cache all fit.
//! for round in 0..2 {
//!     for k in 0..8u64 {
//!         let hit = bc.access((k * 16 * 1024).into(), AccessKind::Read).hit;
//!         assert_eq!(hit, round > 0);
//!     }
//! }
//! telemetry::tele_info!("PD hit rate on misses: {:.2}", bc.pd_stats().pd_hit_rate_on_miss());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod decoder;
pub mod organization;
pub mod params;

pub use cache::BalancedCache;
pub use cache_sim::PdStats;
pub use decoder::ProgrammableDecoder;
pub use organization::{ArrayOrganization, BCacheOrganization};
pub use params::{BCacheParams, IndexLayout, ParamError, PdHitPolicy, PiTagBits};

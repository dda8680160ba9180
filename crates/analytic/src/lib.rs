//! # analytic — closed-form miss-rate models (the analytical oracle)
//!
//! The simulator and the symbolic differential oracle (PR 2) are two
//! *implementations* that could share a bug. This crate is a third,
//! independent check built from mathematics instead of simulation:
//! closed-form **expected miss rates** under the independent reference
//! model (IRM), following the analytical cache-utilization treatment of
//! Majumdar & Radhakrishnan (cond-mat/0001090) and the birthday-paradox
//! collision analysis of Eijkhout et al. (1909.12195).
//!
//! The pieces:
//!
//! * [`dist::BlockDist`] — a normalized IRM distribution over block
//!   addresses, produced by `trace-gen`'s distribution introspection;
//! * [`model`] — a unified *groups / classes / capacity* framework whose
//!   exact steady-state hit rate is computed with King's LRU stack
//!   formula; builders cover direct-mapped, set-associative and B-Cache
//!   geometries;
//! * [`birthday`] — expected set-collision counts for random and
//!   adversarial block placements;
//! * [`tolerance`] — the statistically justified tolerance band used by
//!   the convergence property tests and the `bcache oracle` subcommand.
//!
//! ## Quick start
//!
//! ```
//! use analytic::{conventional_model, BlockDist};
//! use cache_sim::CacheGeometry;
//!
//! // Two blocks competing for one direct-mapped set: the classic
//! // ping-pong. Expected hit rate = sum of squared probabilities = 1/2.
//! let geom = CacheGeometry::new(16 * 1024, 32, 1)?;
//! let dist = BlockDist::uniform([0x1000_0000, 0x1000_0000 + (1 << 19)])?;
//! let model = conventional_model(&geom, &dist);
//! let miss = model.expected_miss_rate()?;
//! assert!((miss - 0.5).abs() < 1e-12);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod birthday;
pub mod dist;
pub mod model;
pub mod tolerance;

pub use dist::BlockDist;
pub use model::{bcache_model, conventional_model, AnalyticError, IrmModel};
pub use tolerance::convergence_tolerance;

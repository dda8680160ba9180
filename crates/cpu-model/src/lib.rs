//! # cpu-model — the Table 4 out-of-order processor
//!
//! A 4-issue, 16-entry-window, out-of-order timing model in the spirit of
//! SimpleScalar's `sim-outorder` configuration used by the B-Cache paper
//! (Table 4). The model consumes `trace-gen` instruction streams, drives
//! a `cache-sim` [`cache_sim::MemoryHierarchy`], and reports IPC — the
//! metric behind the paper's Figure 8 (performance) and Figure 9
//! (energy, through cycle counts).
//!
//! The core is timestamp-driven rather than cycle-stepped: every dynamic
//! instruction receives fetch / dispatch / issue / complete / retire
//! times under bandwidth, window, dependence, cache-latency and
//! branch-redirect constraints. See [`Cpu::run`].
//!
//! ## Quick start
//!
//! ```
//! use cache_sim::{DirectMappedCache, MemoryHierarchy};
//! use cpu_model::{Cpu, CpuConfig};
//! use trace_gen::{profiles, Trace};
//!
//! let hierarchy = MemoryHierarchy::new(
//!     Box::new(DirectMappedCache::new(16 * 1024, 32)?),
//!     Box::new(DirectMappedCache::new(16 * 1024, 32)?),
//! );
//! let mut cpu = Cpu::new(CpuConfig::default(), hierarchy);
//! let report = cpu.run(Trace::new(&profiles::by_name("equake").unwrap(), 1).take(50_000));
//! telemetry::tele_info!("IPC = {:.3}", report.ipc());
//! # Ok::<(), cache_sim::GeometryError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bandwidth;
pub mod config;
pub mod cpu;

pub use bandwidth::BandwidthLimiter;
pub use config::{table4_rows, CpuConfig};
pub use cpu::{Cpu, CpuReport};

//! # harness — experiment drivers for every table and figure
//!
//! Each module regenerates one artifact of the paper's evaluation, and
//! the `bcache-repro` binary exposes them as subcommands:
//!
//! | Artifact | Module | Subcommand |
//! |---|---|---|
//! | Fig. 3 (wupwise MF sweep) | [`fig3`] | `fig3` |
//! | Fig. 4 (D$ reductions) | [`missrate`] | `fig4` |
//! | Fig. 5 (I$ reductions) | [`missrate`] | `fig5` |
//! | Fig. 8 (IPC) | [`perf`] | `fig8` |
//! | Fig. 9 (energy) | [`perf`] | `fig9` |
//! | Fig. 12 (8/32 kB) | [`missrate`] | `fig12` |
//! | Tab. 1–4 | [`tables`] | `tab1`…`tab4` |
//! | Tab. 5/6 (design space) | [`design_space`] | `tab5`, `tab6` |
//! | Tab. 7 (balance) | [`balance`] | `tab7` |
//! | §7.1 related work | [`missrate::related_work`] | `related` |
//! | Telemetry replay report | [`runcmd`] | `run` |
//! | Set-pressure report | [`statscmd`] | `stats` |
//! | Analytical oracle sweep | [`oraclecmd`] | `oracle` |
//! | Time-resolved profiling + trace export | [`profilecmd`] | `profile` |
//! | Multi-tenant simulation server | [`serve`] | `serve`, `loadgen` |
//!
//! The flags each subcommand accepts, and the usage text generated from
//! them, live in one table in [`cli`].
//!
//! Experiments default to 2 M trace records with a 10% warm-up prefix
//! (statistics are reset after warm-up, standing in for the paper's
//! 2 B-instruction fast-forward); `--records` rescales.
//!
//! ## Parallel execution
//!
//! Every driver shards its (benchmark × side × config) cross-product
//! into jobs and runs them on the [`parallel::Engine`] — a std-only
//! scoped-thread pool. `--jobs N` picks the worker count (default:
//! available parallelism); the output is **bit-identical for every
//! `N`** because job seeds are derived from the job identity
//! ([`parallel::job_seed`]), jobs are pure, and aggregation is
//! positional. The engine's [`parallel::TraceCache`] memoizes each
//! benchmark's per-side access stream ([`run::SideTrace`]) so the side
//! filtering runs once and every config job is pure model work; raw
//! record buffers are memoized separately for the callers that need
//! them (the CPU model, the golden-stats tests), and released after
//! their last declared use.
//! `crates/harness/tests/determinism.rs` and `tests/golden_stats.rs`
//! enforce both properties.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod balance;
pub mod bench;
pub mod checkpoint;
pub mod cli;
pub mod config;
pub mod design_space;
pub mod extensions;
pub mod fig3;
pub mod fuzz;
pub mod kernels_exp;
pub mod missrate;
pub mod models;
pub mod oraclecmd;
pub mod parallel;
pub mod perf;
pub mod profilecmd;
pub mod report;
pub mod run;
pub mod runcmd;
pub mod sensitivity;
pub mod serve;
pub mod statscmd;
pub mod tables;
pub mod telemetry_io;

pub use checkpoint::{Checkpoint, CheckpointMeta, CheckpointValue};
pub use config::CacheConfig;
pub use parallel::{default_parallelism, job_seed, Engine, TraceCache};
pub use run::{run_bcache_pd_stats, run_miss_rates, RunLength, Side};

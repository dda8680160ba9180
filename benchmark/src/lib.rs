//! # bcache-bench — the repository's end-to-end and per-layer benchmark
//!
//! `bcache-bench run` measures what a user of the B-Cache reproduction
//! waits for, on five workloads that stress different layers, checks
//! every simulated output for correctness, and prints each metric by
//! name and unit. `run --trace 1` repeats a workload
//! with spans around the calls into each layer and reports the
//! per-layer costs, the tracing overhead, and a Perfetto trace.
//! `compare` turns two sets of runs into per-metric verdicts; `bless`
//! re-pins the golden digests. See `README.md` beside this crate for
//! the workload rationale, the metric table and the layer → end-to-end
//! map. It supersedes `bcache-repro bench` and the root `BENCH_*.json`
//! files.
//!
//! Modules:
//! - [`clock`]: the process CPU clock every host-time metric reads.
//! - [`stats`]: nearest-rank quantiles, median/IQR, the slow decile,
//!   the tail percentile.
//! - [`layers`]: the per-layer calls every workload is built from —
//!   trace generation, side extraction, the kernel fleet, the CPU model.
//! - [`sim`]: the four simulator workloads (`paper-sweep`, `cpu-timing`,
//!   `replay-miss`, `replay-hit`).
//! - [`serve_open`]: the open-loop `serve-open` workload.
//! - [`golden`]: output digests and the pinned golden file.
//! - [`report`]: metric derivation, report files, and `compare`.
//! - [`trace`]: the benchmark's own span log.
//! - [`json`]: the JSON reader for reports, `BENCHMARK.json` and traces.
//! - [`cli`]: argument parsing and the per-workload child processes.

#![warn(missing_docs)]

pub mod cli;
pub mod clock;
pub mod golden;
pub mod json;
pub mod layers;
pub mod report;
pub mod serve_open;
pub mod sim;
pub mod stats;
pub mod trace;

/// One benchmark workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Figures 4 and 5 at the paper's length on a two-worker engine.
    PaperSweep,
    /// Figures 8 and 9: the full CPU model over every benchmark.
    CpuTiming,
    /// The 11-model fleet over miss-heavy data traces.
    ReplayMiss,
    /// The 11-model fleet over hit-heavy instruction traces.
    ReplayHit,
    /// An in-process server under open-loop load.
    ServeOpen,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 5] = [
        Workload::PaperSweep,
        Workload::CpuTiming,
        Workload::ReplayMiss,
        Workload::ReplayHit,
        Workload::ServeOpen,
    ];

    /// The workload's command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper-sweep",
            Workload::CpuTiming => "cpu-timing",
            Workload::ReplayMiss => "replay-miss",
            Workload::ReplayHit => "replay-hit",
            Workload::ServeOpen => "serve-open",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload {name:?} (known: {})", known.join(", "))
            })
    }
}

/// Input size of a run: the benchmark's sizes, or a seconds-long
/// version of every workload for tests.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark's bounds were measured at.
    Full,
    /// Tiny inputs exercising every code path (tests and CI).
    Smoke,
}

impl Scale {
    /// The scale's command-line and golden-file name.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    /// Parses a scale name.
    pub fn parse(name: &str) -> Result<Scale, String> {
        match name {
            "full" => Ok(Scale::Full),
            "smoke" => Ok(Scale::Smoke),
            other => Err(format!("unknown scale {other:?} (full or smoke)")),
        }
    }
}

/// Which direction of a metric is an improvement.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// `"higher"` or `"lower"`, as in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric of the benchmark: name, unit, direction, and — for
/// end-to-end metrics — the share of the parent's median by which it may
/// worsen before a change counts as a regression.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

fn spec(name: &str, unit: &'static str, better: Better, bound: Option<f64>) -> MetricSpec {
    MetricSpec {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, reported on every workload by an untraced
/// run. `BENCHMARK.json` mirrors this table (a test keeps them equal).
///
/// Host time is process CPU time ([`clock`]); each throughput is the
/// slow decile of its per-rep rates ([`stats::slow_decile`]) and
/// `setup_s` the median of the run's set-ups. One bound per metric must
/// cover the ten-seed spread of every workload that reports it, on
/// shared hosts whose contended speed itself wanders by several percent
/// from minute to minute, so host-time metrics get the widest bound the
/// benchmark format allows (25%); `compare` reports a metric whose runs
/// spread wider as unresolved. Peak memory does not drift and keeps a
/// 10% bound. See `README.md`.
pub fn end_to_end_metrics() -> Vec<MetricSpec> {
    use Better::*;
    vec![
        spec("sim_maccess_per_cpu_s", "MA/cpu-s", Higher, Some(0.25)),
        spec("sim_minst_per_cpu_s", "MI/cpu-s", Higher, Some(0.25)),
        spec("jobs_per_cpu_s", "1/cpu-s", Higher, Some(0.25)),
        spec("setup_s", "s", Lower, Some(0.25)),
        spec("peak_rss_mb", "MiB", Lower, Some(0.1)),
    ]
}

/// The per-layer metrics, reported on every workload by a traced run:
/// the layers each workload exercises are measured on its own calls,
/// the rest by a probe over the same workload's inputs.
pub fn per_layer_metrics() -> Vec<MetricSpec> {
    use Better::*;
    let mut v = vec![
        spec("trace_gen.ns_per_record", "ns", Lower, None),
        spec("trace_gen.records", "count", Lower, None),
        spec("extract.ns_per_record", "ns", Lower, None),
        spec("extract.accesses_per_record", "ratio", Higher, None),
    ];
    for (model, _) in harness::bench::model_set() {
        v.push(spec(
            &format!("kernel.{model}.ns_per_access"),
            "ns",
            Lower,
            None,
        ));
        v.push(spec(
            &format!("kernel.{model}.miss_ratio"),
            "ratio",
            Lower,
            None,
        ));
        v.push(spec(
            &format!("kernel.{model}.writebacks_per_access"),
            "ratio",
            Lower,
            None,
        ));
    }
    v.push(spec(
        &format!("kernel.{}.pd_reprograms_per_access", layers::BCACHE_MODEL),
        "ratio",
        Lower,
        None,
    ));
    v.extend([
        spec("cpu.ns_per_inst", "ns", Lower, None),
        spec("cpu.hierarchy_ns_per_access", "ns", Lower, None),
        spec("cpu.cycles_per_inst", "ratio", Lower, None),
        spec("cpu.l2_accesses_per_inst", "ratio", Lower, None),
        spec("trace.overhead_pct", "%", Lower, None),
    ]);
    v
}

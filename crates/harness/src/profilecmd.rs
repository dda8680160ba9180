//! The `bcache-repro profile` subcommand: time-resolved profiling of
//! one model on one benchmark, with trace export. Its flags are listed
//! in [`crate::cli`].
//!
//! The subcommand replays the benchmark's side stream through the
//! selected model in window-sized batches on the unobserved
//! batched-kernel fast path, deriving one [`WindowRow`] per window
//! from stats deltas — miss rate, PD churn, writebacks, and a per-set
//! occupancy heat row. Three artifacts come out of one run:
//!
//! * `PREFIX.jsonl` / `PREFIX.csv` — the windowed time series. Pure
//!   functions of the access stream: byte-identical for any `--jobs N`.
//! * `PREFIX.trace.json` — the run's hierarchical spans (engine queue
//!   wait and execution per job, plus the profiling phases) in
//!   Chrome Trace Event format; loads directly in `ui.perfetto.dev`
//!   or `chrome://tracing`. Wall-clock data, **not** deterministic.
//! * a phase-attribution report on stdout: the wall-time fraction
//!   spent generating the trace, replaying the kernel, measuring
//!   overhead, and reporting, plus the measured overhead of the
//!   windowed replay versus an unwindowed replay of the
//!   direct-mapped batched kernel (`--smoke` asserts it stays
//!   under [`OVERHEAD_LIMIT`]).
//!
//! Unlike `run`/`stats`, the profile deliberately skips the warm-up
//! statistics reset: the time series is the instrument for looking
//! *at* the cold-start transient, so the replay starts cold and every
//! window from the first access is on the grid.

use std::time::Instant;

use cache_sim::{AccessKind, Addr, CacheModel};
use telemetry::{chrome_trace_json, Recorder, SpanLog, SpanTimer, WindowRow, WindowSeries};
use trace_gen::{profiles, synthetic, BenchmarkProfile};

use crate::bench;
use crate::cli;
use crate::config::{self, CacheConfig, L1_BYTES};
use crate::parallel::{default_parallelism, job_seed, Engine};
use crate::run::{RunLength, Side, SideTrace};
use crate::telemetry_io::record_model;

/// Default window size in accesses.
pub const DEFAULT_WINDOW: u64 = 4096;

/// Record count `--smoke` shortens to when `--records` is absent.
pub const SMOKE_RECORDS: u64 = 200_000;

/// The overhead bound `--smoke` enforces: the windowed replay may cost
/// at most this fraction more than the plain batched replay.
pub const OVERHEAD_LIMIT: f64 = 0.05;

/// Timed passes per overhead measurement; the minimum is kept (noise
/// only ever adds time).
const OVERHEAD_PASSES: usize = 5;

/// Options of the `profile` subcommand.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileOptions {
    /// Model name (canonicalized; see [`resolve_model`]).
    pub model: String,
    /// Benchmark name — a SPEC profile or a synthetic family.
    pub benchmark: String,
    /// Which reference stream feeds the cache (default data).
    pub side: Side,
    /// Trace length / warm-up / seed.
    pub len: RunLength,
    /// Worker threads.
    pub jobs: usize,
    /// Window size in accesses.
    pub window: u64,
    /// Output path prefix (`PREFIX.jsonl`, `PREFIX.csv`,
    /// `PREFIX.trace.json`).
    pub out: String,
    /// Reduced-length run that additionally enforces the overhead
    /// bound (CI).
    pub smoke: bool,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            model: "bcache-mf8-bas8".into(),
            benchmark: "mcf".into(),
            side: Side::Data,
            len: RunLength::default(),
            jobs: default_parallelism(),
            window: DEFAULT_WINDOW,
            out: "profile".into(),
            smoke: false,
        }
    }
}

/// Resolves a model name or alias through [`config::MODELS`] to its
/// bench name and configuration.
///
/// # Errors
///
/// Returns a message listing every accepted name when `name` matches
/// none.
pub fn resolve_model(name: &str) -> Result<(&'static str, CacheConfig), String> {
    let &(bench, _, _, config) = config::named(name).ok_or_else(|| {
        let known: Vec<&str> = config::names().collect();
        format!("unknown model: {name} (known: {})", known.join(", "))
    })?;
    Ok((bench, config))
}

/// Resolves a benchmark name: the SPEC profiles first, then the
/// synthetic families (`uniform64k`, `zipf8`, `birthday8/16/32/64`).
///
/// # Errors
///
/// Returns a message when neither family knows the name.
pub fn resolve_benchmark(name: &str) -> Result<BenchmarkProfile, String> {
    profiles::by_name(name)
        .or_else(|| synthetic::by_name(name))
        .ok_or_else(|| format!("unknown benchmark: {name} (SPEC profile or synthetic family)"))
}

impl ProfileOptions {
    /// Parses the option tail after `profile`.
    pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<ProfileOptions, String> {
        let a = cli::parse(cli::PROFILE_FLAGS, args)?;
        let d = ProfileOptions::default();
        let model = match a.text(&cli::MODEL) {
            Some(name) => resolve_model(&name)?.0.to_string(),
            None => d.model,
        };
        let benchmark = a.text(&cli::BENCHMARK).unwrap_or(d.benchmark);
        resolve_benchmark(&benchmark)?;
        let smoke = a.has(&cli::SMOKE);
        Ok(ProfileOptions {
            model,
            benchmark,
            side: a.side().unwrap_or(d.side),
            len: a.run_length(if smoke { SMOKE_RECORDS } else { d.len.records })?,
            jobs: a.jobs(),
            window: a.int(&cli::WINDOW).unwrap_or(d.window),
            out: a.text(&cli::OUT).unwrap_or(d.out),
            smoke,
        })
    }

    /// Builds the experiment engine these options describe.
    pub fn engine(&self) -> Engine {
        Engine::new(self.jobs)
    }
}

/// Everything a `profile` invocation produces; the binary decides what
/// to print and where to write the artifacts.
#[derive(Clone, Debug)]
pub struct ProfileOutcome {
    /// Human-readable report (summary, phase attribution, overhead).
    pub report: String,
    /// Merged telemetry (deterministic counters/histograms + timing).
    pub metrics: Recorder,
    /// The windowed time series as JSON Lines (deterministic).
    pub series_jsonl: String,
    /// The windowed time series as CSV (deterministic).
    pub series_csv: String,
    /// The hierarchical spans as Chrome Trace Event JSON (wall-clock).
    pub trace_json: String,
    /// Measured windowed-replay overhead versus the plain batched
    /// replay, as a fraction (0.03 = 3% slower).
    pub overhead: f64,
    /// Whether the `--smoke` overhead bound held (always `true` when
    /// `--smoke` was not requested).
    pub smoke_ok: bool,
}

/// Replays `accesses` into `model` in `window`-sized batches, deriving
/// one [`WindowRow`] per chunk from stats deltas — the batched kernel
/// itself runs unobserved. `pd_snapshot` reports the model's running
/// `(PD-forced, predetermined)` miss totals (`(0, 0)` for conventional
/// models).
pub fn replay_windowed<M: CacheModel + ?Sized>(
    model: &mut M,
    accesses: &[(Addr, AccessKind)],
    window: u64,
    mut pd_snapshot: impl FnMut(&M) -> (u64, u64),
) -> WindowSeries {
    let sets = model
        .set_usage()
        .map(|u| u.sets())
        .unwrap_or_else(|| model.geometry().sets());
    let mut series = WindowSeries::new(window, sets as u64);
    // Heat columns cover contiguous set ranges, so the per-window scan
    // sums each range as a slice (auto-vectorized) instead of mapping
    // sets one by one: the delta of a bucket's access sum equals the
    // sum of its per-set deltas (counters are monotonic).
    let bucket_ranges: Vec<(usize, usize, usize)> = {
        let table = series.bucket_table();
        let mut ranges = Vec::new();
        let mut start = 0usize;
        while start < sets {
            let bucket = table[start];
            let mut end = start;
            while end < sets && table[end] == bucket {
                end += 1;
            }
            ranges.push((bucket as usize, start, end));
            start = end;
        }
        ranges
    };
    let mut prev_heat = [0u64; telemetry::HEAT_COLUMNS];
    let (mut prev_accesses, mut prev_hits, mut prev_writebacks) = (0u64, 0u64, 0u64);
    let (mut prev_forced, mut prev_predet) = pd_snapshot(model);
    let chunk_len = usize::try_from(window).unwrap_or(usize::MAX).max(1);
    for (chunk_index, chunk) in accesses.chunks(chunk_len).enumerate() {
        model.access_batch(chunk);
        let total = model.stats().total();
        let writebacks = model.stats().writebacks();
        let (forced, predet) = pd_snapshot(model);
        let mut row = WindowRow::zero(chunk_index as u64);
        row.accesses = total.accesses() - prev_accesses;
        row.hits = total.hits() - prev_hits;
        row.misses = row.accesses - row.hits;
        row.writebacks = writebacks - prev_writebacks;
        row.pd_forced_misses = forced - prev_forced;
        row.predetermined_misses = predet - prev_predet;
        // A B-Cache reprograms the PD (and consults the BAS) on exactly
        // the predetermined misses; every other miss is a plain tag
        // miss.
        row.pd_reprograms = row.predetermined_misses;
        row.bas_victims = row.predetermined_misses;
        row.tag_misses = row
            .misses
            .saturating_sub(row.pd_forced_misses + row.predetermined_misses);
        if let Some(usage) = model.set_usage() {
            let (hits, misses) = (usage.hit_counts(), usage.miss_counts());
            for &(bucket, start, end) in &bucket_ranges {
                let now =
                    hits[start..end].iter().sum::<u64>() + misses[start..end].iter().sum::<u64>();
                row.heat[bucket] = now - prev_heat[bucket];
                prev_heat[bucket] = now;
            }
        }
        (prev_accesses, prev_hits, prev_writebacks) = (total.accesses(), total.hits(), writebacks);
        (prev_forced, prev_predet) = (forced, predet);
        series.push_row(row);
    }
    series
}

/// Builds the profiled model and runs the windowed replay, returning
/// the series plus a recorder fragment with the model's aggregate
/// counters/histograms. Shared with the serve subsystem's profile
/// jobs, which stream the same rows over the wire.
pub(crate) fn profile_replay(
    config: CacheConfig,
    model_name: &str,
    seed: u64,
    trace: &SideTrace,
    window: u64,
) -> (WindowSeries, Recorder, f64) {
    let mut frag = Recorder::new();
    let t = SpanTimer::start("phase.replay");
    let mut model = config
        .build(L1_BYTES, seed)
        .expect("profile model builds at 16 kB");
    let series = replay_windowed(model.as_mut(), trace.accesses(), window, |m| {
        let pd = m.decoder_stats().unwrap_or_default();
        (pd.misses_with_pd_hit, pd.misses_with_pd_miss)
    });
    record_model(&mut frag, model_name, model.as_ref());
    if let Some(pd) = model.decoder_stats() {
        frag.counter("profile.pd_reprograms", pd.misses_with_pd_miss);
        frag.counter("profile.pd_forced_misses", pd.misses_with_pd_hit);
    }
    let miss_rate = model.stats().miss_rate();
    t.stop(&mut frag);
    frag.counter("profile.windows", series.completed());
    frag.counter("profile.windows_dropped", series.dropped());
    frag.counter("profile.accesses", series.total_accesses());
    (series, frag, miss_rate)
}

/// Accesses of the dedicated overhead-measurement stream. Benchmark
/// side traces are often short enough (tens of microseconds per pass)
/// that timer noise swamps a few-percent delta; a fixed 1 M-access
/// stream keeps each pass in the milliseconds where the bound is
/// actually measurable.
const OVERHEAD_RECORDS: u64 = 1_000_000;

/// Measures the windowed-replay overhead on the direct-mapped batched
/// kernel: the minimum of [`OVERHEAD_PASSES`] plain unwindowed passes
/// versus the same minimum of windowed passes over the bench module's
/// deterministic LCG stream, as a fraction.
fn measure_overhead(window: u64) -> f64 {
    let accesses = bench::access_stream(OVERHEAD_RECORDS, bench::DEFAULT_SEED);
    let mut best_plain = f64::INFINITY;
    let mut best_windowed = f64::INFINITY;
    for _ in 0..OVERHEAD_PASSES {
        let mut dm = CacheConfig::DirectMapped
            .build(L1_BYTES, 0)
            .expect("direct-mapped builds at 16 kB");
        let start = Instant::now();
        dm.access_batch(&accesses);
        best_plain = best_plain.min(start.elapsed().as_secs_f64());
        std::hint::black_box(dm.stats().total().misses());

        let mut dm = CacheConfig::DirectMapped
            .build(L1_BYTES, 0)
            .expect("direct-mapped builds at 16 kB");
        let start = Instant::now();
        let series = replay_windowed(&mut *dm, &accesses, window, |_| (0, 0));
        best_windowed = best_windowed.min(start.elapsed().as_secs_f64());
        std::hint::black_box(series.completed());
    }
    if best_plain <= 0.0 {
        0.0
    } else {
        best_windowed / best_plain - 1.0
    }
}

/// Total seconds of one named timing span in `rec` (0 when absent).
fn span_secs(rec: &Recorder, name: &str) -> f64 {
    rec.timing(name)
        .map(|s| s.total_nanos as f64 / 1e9)
        .unwrap_or(0.0)
}

/// Runs the subcommand: cached trace generation, one engine job for
/// the windowed replay (so the engine's queue/exec spans land in the
/// trace export), the overhead measurement, and the report.
///
/// # Panics
///
/// Panics if `opts.model` or `opts.benchmark` resolves to nothing (the
/// parser validates both, so only direct library misuse can trip
/// this).
pub fn profile_cmd(opts: &ProfileOptions) -> ProfileOutcome {
    let (model_name, config) = resolve_model(&opts.model).expect("validated model name");
    let profile = resolve_benchmark(&opts.benchmark).expect("validated benchmark name");
    let engine = opts.engine();
    let len = opts.len;
    let side = opts.side;
    let window = opts.window;
    let mut phases = SpanLog::new();

    // Trace generation + side extraction (cached; spans land in the
    // engine's timing recorder).
    let trace_start = Instant::now();
    let trace = engine.side_trace(&profile, len, side);
    phases.push(None, "profile.trace", 0, trace_start, Instant::now());

    // The windowed replay runs as one engine job: the series is a pure
    // function of the access stream, so any `--jobs N` produces the
    // same bytes, and the engine's per-job spans are exercised.
    let replay_start = Instant::now();
    let seed = job_seed(len.seed, &opts.benchmark, side);
    let job_trace = trace.clone();
    let job_model = model_name;
    let mut results = engine.run(vec![move || {
        profile_replay(config, job_model, seed, &job_trace, window)
    }]);
    let (series, frag, miss_rate) = results.pop().expect("one profiling job");
    phases.push(None, "profile.replay", 0, replay_start, Instant::now());

    let overhead_start = Instant::now();
    let mut metrics = Recorder::new();
    let t = SpanTimer::start("phase.overhead");
    let overhead = measure_overhead(window);
    t.stop(&mut metrics);
    phases.push(None, "profile.overhead", 0, overhead_start, Instant::now());

    metrics.merge(&frag);
    metrics.merge(&engine.timing_snapshot());

    let report_start = Instant::now();
    let t = SpanTimer::start("phase.report");
    let smoke_ok = !opts.smoke || overhead < OVERHEAD_LIMIT;

    let mut report = format!(
        "profile: {} on {} ({} side), {} records (cold start), seed {}, window {}\n\n",
        model_name,
        opts.benchmark,
        match side {
            Side::Data => "data",
            Side::Instruction => "instruction",
        },
        len.records,
        len.seed,
        window,
    );
    report.push_str(&format!(
        "accesses: {}  miss rate: {:.4}%  windows: {} ({} dropped)\n",
        series.total_accesses(),
        miss_rate * 100.0,
        series.completed(),
        series.dropped(),
    ));
    let pd_reprograms = metrics.counter_value("profile.pd_reprograms");
    let pd_forced = metrics.counter_value("profile.pd_forced_misses");
    if pd_reprograms + pd_forced > 0 {
        report.push_str(&format!(
            "PD reprograms: {pd_reprograms}  PD-forced misses: {pd_forced}\n"
        ));
    }

    // Phase attribution: wall-time fractions of the instrumented
    // phases (trace generation + extraction, kernel replay, overhead
    // measurement).
    let attributed = [
        ("trace-gen", span_secs(&metrics, "phase.trace_gen")),
        ("trace-extract", span_secs(&metrics, "phase.trace_extract")),
        ("kernel-replay", span_secs(&metrics, "phase.replay")),
        ("overhead-measure", span_secs(&metrics, "phase.overhead")),
    ];
    let total: f64 = attributed.iter().map(|(_, s)| s).sum();
    report.push_str("\nphase attribution (wall time):\n");
    for (name, secs) in attributed {
        let pct = if total > 0.0 {
            secs / total * 100.0
        } else {
            0.0
        };
        report.push_str(&format!(
            "  {name:<18} {:>9.3} ms  {pct:>5.1}%\n",
            secs * 1e3
        ));
    }

    report.push_str(&format!(
        "\nwindowed-replay overhead vs plain batched replay (dm, min of {OVERHEAD_PASSES}): \
         {:+.2}%\n",
        overhead * 100.0
    ));
    if opts.smoke {
        if smoke_ok {
            report.push_str(&format!(
                "SMOKE OK: overhead within the {:.0}% bound\n",
                OVERHEAD_LIMIT * 100.0
            ));
        } else {
            report.push_str(&format!(
                "SMOKE FAIL: overhead {:.2}% exceeds the {:.0}% bound\n",
                overhead * 100.0,
                OVERHEAD_LIMIT * 100.0
            ));
        }
    }
    t.stop(&mut metrics);
    phases.push(None, "profile.report", 0, report_start, Instant::now());

    // Export: the profiling phases plus the engine's hierarchical spans
    // on one timeline.
    phases.merge(&engine.span_snapshot());
    let mut thread_names: Vec<(u64, String)> = vec![(0, "engine".into())];
    for tid in 1..=(opts.jobs as u64) {
        thread_names.push((tid, format!("worker-{tid}")));
    }
    let trace_json = chrome_trace_json(
        &phases,
        &format!("bcache-repro profile {} {}", model_name, opts.benchmark),
        &thread_names,
    );

    ProfileOutcome {
        report,
        metrics,
        series_jsonl: series.to_jsonl(),
        series_csv: series.to_csv(),
        trace_json,
        overhead,
        smoke_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(records: u64) -> ProfileOptions {
        ProfileOptions {
            len: RunLength::with_records(records),
            window: 1024,
            ..ProfileOptions::default()
        }
    }

    #[test]
    fn options_parse_aliases_and_reject_garbage() {
        let o = ProfileOptions::parse(&[
            "--model",
            "b-cache",
            "--benchmark",
            "gzip",
            "--side",
            "i",
            "--records",
            "9000",
            "--seed",
            "4",
            "--jobs",
            "2",
            "--window",
            "512",
            "--out",
            "/tmp/p",
        ])
        .unwrap();
        assert_eq!(o.model, "bcache-mf8-bas8");
        assert_eq!(o.benchmark, "gzip");
        assert_eq!(o.side, Side::Instruction);
        assert_eq!(o.len.records, 9_000);
        assert_eq!(o.len.seed, 4);
        assert_eq!(o.jobs, 2);
        assert_eq!(o.window, 512);
        assert_eq!(o.out, "/tmp/p");
        assert_eq!(
            ProfileOptions::parse(&["--model", "dm"]).unwrap().model,
            "direct-mapped"
        );
        // Synthetic benchmarks resolve through the fallback.
        let o = ProfileOptions::parse(&["--benchmark", "birthday16"]).unwrap();
        assert_eq!(o.benchmark, "birthday16");
        assert!(ProfileOptions::parse(&["--model", "nonesuch"]).is_err());
        assert!(ProfileOptions::parse(&["--benchmark", "nonesuch"]).is_err());
        assert!(ProfileOptions::parse(&["--window", "0"]).is_err());
        assert!(ProfileOptions::parse(&["--frobnicate"]).is_err());
        // --smoke shortens the run unless --records was explicit.
        let s = ProfileOptions::parse(&["--smoke"]).unwrap();
        assert_eq!(s.len.records, SMOKE_RECORDS);
        let s = ProfileOptions::parse(&["--smoke", "--records", "50000"]).unwrap();
        assert_eq!(s.len.records, 50_000);
    }

    #[test]
    fn profile_emits_series_trace_and_report() {
        let mut opts = quick(40_000);
        opts.jobs = 2;
        let out = profile_cmd(&opts);
        assert!(out.report.contains("bcache-mf8-bas8"), "{}", out.report);
        assert!(out.report.contains("phase attribution"), "{}", out.report);
        assert!(out.report.contains("overhead"), "{}", out.report);
        // The series header declares the requested grid.
        let header = out.series_jsonl.lines().next().unwrap();
        assert!(header.contains("\"window\": 1024"), "{header}");
        assert!(out.series_jsonl.lines().count() > 2);
        assert!(out.series_csv.starts_with("window,accesses"));
        // PD activity lands both in the metrics and in the rows.
        assert!(out.metrics.counter_value("profile.pd_reprograms") > 0);
        assert!(out.series_jsonl.contains("\"pd_reprograms\": "));
        // Trace JSON has the Chrome envelope, the engine's job spans,
        // and the profiling phases.
        assert!(out.trace_json.starts_with("{\"displayTimeUnit\""));
        assert!(out.trace_json.contains("\"engine.run\""));
        assert!(out.trace_json.contains("\"job0.wait\""));
        assert!(out.trace_json.contains("\"exec\""));
        assert!(out.trace_json.contains("\"profile.replay\""));
        assert!(out.smoke_ok, "no bound enforced without --smoke");
    }

    #[test]
    fn windowed_rows_sum_to_the_aggregate_counters() {
        let opts = quick(30_000);
        let profile = resolve_benchmark(&opts.benchmark).unwrap();
        let engine = opts.engine();
        let trace = engine.side_trace(&profile, opts.len, opts.side);
        let seed = job_seed(opts.len.seed, &opts.benchmark, opts.side);
        let (series, frag, _) = profile_replay(
            CacheConfig::BCache { mf: 8, bas: 8 },
            "m",
            seed,
            &trace,
            512,
        );
        let misses: u64 = series.rows().map(|r| r.misses).sum();
        let accesses: u64 = series.rows().map(|r| r.accesses).sum();
        let reprograms: u64 = series.rows().map(|r| r.pd_reprograms).sum();
        assert_eq!(accesses, frag.counter_value("m.accesses"));
        assert_eq!(misses, frag.counter_value("m.misses"));
        assert_eq!(reprograms, frag.counter_value("profile.pd_reprograms"));
        // Every B-Cache miss is PD-forced or predetermined.
        assert!(series.rows().all(|r| r.tag_misses == 0));
        // The heat rows account for every access.
        let heat: u64 = series.rows().map(|r| r.heat.iter().sum::<u64>()).sum();
        assert_eq!(heat, accesses);
    }

    #[test]
    fn series_bytes_are_jobs_invariant() {
        let base = quick(20_000);
        let mut golden: Option<(String, String, String)> = None;
        for jobs in [1usize, 2, 8] {
            let mut opts = base.clone();
            opts.jobs = jobs;
            let out = profile_cmd(&opts);
            let bundle = (out.series_jsonl, out.series_csv, out.metrics.to_json(false));
            match &golden {
                None => golden = Some(bundle),
                Some(g) => assert_eq!(g, &bundle, "--jobs {jobs} changed the series"),
            }
        }
    }
}

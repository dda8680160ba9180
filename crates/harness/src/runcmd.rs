//! The `bcache-repro run` subcommand: replay one benchmark through the
//! reference model set with full telemetry — per-phase wall-time spans
//! (trace generation, warm-up, replay, report), per-model counters and
//! set-pressure histograms, and an optional typed-event trace of the
//! B-Cache replay. Its flags are listed in [`crate::cli`].
//!
//! The metrics split follows the [`Recorder`] contract: counters and
//! histograms are pure functions of the (deterministic) simulation and
//! merge positionally across the engine's jobs, so they are
//! byte-identical for any `--jobs N`; wall-clock spans go to the
//! separate `timing` section.

use cache_sim::CacheModel;
use telemetry::{EventRing, Recorder, SpanTimer};
use trace_gen::profiles;

use crate::cli;
use crate::config::{self, CacheConfig, L1_BYTES};
use crate::parallel::{default_parallelism, job_seed, Engine};
use crate::run::{replay_bcache_observed, RunLength, Side, SideTrace};
use crate::telemetry_io::record_model;

/// Default capacity of the `--trace-events` ring (`--event-ring-cap`
/// overrides it): enough to keep the miss activity of a default-length
/// replay's tail while bounding memory.
pub const EVENT_RING_CAPACITY: usize = 1 << 16;

/// Options of the `run` subcommand.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunCmdOptions {
    /// Benchmark profile name (default `mcf`, the paper's conflict-miss
    /// workhorse).
    pub benchmark: String,
    /// Which reference stream feeds the caches (default data).
    pub side: Side,
    /// Trace length and warm-up.
    pub len: RunLength,
    /// Worker threads.
    pub jobs: usize,
    /// Capacity of the `--trace-events` ring
    /// (`--event-ring-cap`, default [`EVENT_RING_CAPACITY`]).
    pub event_ring_cap: usize,
}

impl Default for RunCmdOptions {
    fn default() -> Self {
        RunCmdOptions {
            benchmark: "mcf".into(),
            side: Side::Data,
            len: RunLength::default(),
            jobs: default_parallelism(),
            event_ring_cap: EVENT_RING_CAPACITY,
        }
    }
}

impl RunCmdOptions {
    /// Parses the option tail after `run`.
    pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<RunCmdOptions, String> {
        let a = cli::parse(cli::RUN_FLAGS, args)?;
        let d = RunCmdOptions::default();
        let benchmark = a.text(&cli::BENCH).unwrap_or(d.benchmark);
        if profiles::by_name(&benchmark).is_none() {
            return Err(format!("unknown benchmark: {benchmark}"));
        }
        Ok(RunCmdOptions {
            benchmark,
            side: a.side().unwrap_or(d.side),
            len: a.run_length(d.len.records)?,
            jobs: a.jobs(),
            event_ring_cap: a.count(&cli::EVENT_RING_CAP).unwrap_or(d.event_ring_cap),
        })
    }

    /// Builds the experiment engine these options describe.
    pub fn engine(&self) -> Engine {
        Engine::new(self.jobs)
    }
}

/// Everything a `run` invocation produces; the binary decides which
/// parts to print or write.
#[derive(Clone, Debug)]
pub struct RunCmdOutcome {
    /// Human-readable report.
    pub report: String,
    /// Merged telemetry (deterministic counters/histograms + timing).
    pub metrics: Recorder,
    /// The B-Cache event trace, when `--trace-events` asked for one.
    pub events: Option<EventRing>,
}

/// The models a `run` replays, in report order, under their short
/// [`config::MODELS`] names (which key the report rows and metrics).
fn run_model_set() -> Vec<(&'static str, CacheConfig)> {
    ["dm", "8way", "victim16", "bcache"]
        .into_iter()
        .map(|name| (name, config::named(name).expect("run models are named").3))
        .collect()
}

/// Replays the side trace into `model` with warm-up and replay
/// separately timed into `rec` — observably identical to
/// [`SideTrace::replay`], which the batch-equivalence suite pins.
pub(crate) fn replay_timed(trace: &SideTrace, model: &mut dyn CacheModel, rec: &mut Recorder) {
    match trace.reset_at() {
        Some(r) => {
            let t = SpanTimer::start("phase.warmup");
            model.access_batch(&trace.accesses()[..r]);
            model.reset_stats();
            t.stop(rec);
            let t = SpanTimer::start("phase.replay");
            model.access_batch(&trace.accesses()[r..]);
            t.stop(rec);
        }
        None => {
            let t = SpanTimer::start("phase.replay");
            model.access_batch(trace.accesses());
            t.stop(rec);
        }
    }
}

/// Runs the subcommand: one engine job per model, fragments merged in
/// input order. `want_events` additionally replays the B-Cache point
/// with an [`EventRing`] observer (outside the timed jobs).
///
/// # Panics
///
/// Panics if `opts.benchmark` names no profile (the parser validates
/// it, so only direct library misuse can trip this).
pub fn run_cmd(opts: &RunCmdOptions, want_events: bool) -> RunCmdOutcome {
    let profile = profiles::by_name(&opts.benchmark).expect("validated benchmark name");
    let engine = opts.engine();
    let len = opts.len;
    let side = opts.side;

    let jobs: Vec<_> = run_model_set()
        .into_iter()
        .map(|(name, config)| {
            let profile = profile.clone();
            let engine = &engine;
            let benchmark = opts.benchmark.clone();
            move || {
                // The first job in generates the trace (its span lands
                // in the engine's timing recorder); the rest share it.
                let trace = engine.side_trace(&profile, len, side);
                let seed = job_seed(len.seed, &benchmark, side);
                let mut frag = Recorder::new();
                let mut model = config
                    .build(L1_BYTES, seed)
                    .expect("run model set builds at 16 kB");
                replay_timed(&trace, model.as_mut(), &mut frag);
                record_model(&mut frag, name, model.as_ref());
                if let Some(pd) = model.decoder_stats() {
                    frag.counter("bcache.pd_reprograms", pd.misses_with_pd_miss);
                    frag.counter("bcache.pd_forced_misses", pd.misses_with_pd_hit);
                }
                let miss_rate = model.stats().miss_rate();
                (name, miss_rate, frag)
            }
        })
        .collect();

    let mut metrics = Recorder::new();
    let mut rows = Vec::new();
    for (name, miss_rate, frag) in engine.run(jobs) {
        metrics.merge(&frag);
        rows.push((name, miss_rate));
    }

    // The event trace comes from a dedicated observed replay of the
    // cached stream — instrumentation the timed jobs never pay.
    let events = want_events.then(|| {
        let trace = engine.side_trace(&profile, len, side);
        let bc = replay_bcache_observed(&trace, 8, 8, L1_BYTES, opts.event_ring_cap);
        bc.observer().clone()
    });
    metrics.merge(&engine.timing_snapshot());

    let t = SpanTimer::start("phase.report");
    let pd_reprograms = metrics.counter_value("bcache.pd_reprograms");
    let pd_forced = metrics.counter_value("bcache.pd_forced_misses");
    let mut report = format!(
        "run: {} {} side, {} records (warmup {}), seed {}\n\n",
        opts.benchmark,
        match side {
            Side::Data => "data",
            Side::Instruction => "instruction",
        },
        len.records,
        len.warmup,
        len.seed
    );
    report.push_str("model      miss_rate\n");
    for (name, miss_rate) in &rows {
        report.push_str(&format!("{name:<10} {:>8.4}%\n", miss_rate * 100.0));
    }
    report.push_str(&format!(
        "\nB-Cache PD reprograms: {pd_reprograms} (one per predetermined miss), \
         PD-forced misses: {pd_forced}\n"
    ));
    for prefix in ["dm", "bcache"] {
        if let Some(h) = metrics.histogram(&format!("{prefix}.set_accesses")) {
            report.push_str(&format!(
                "\nper-set access histogram ({prefix}), {} sets ({}):\n{}",
                h.count(),
                h.summary(),
                h.render_ascii(40)
            ));
        }
    }
    if let Some(ring) = &events {
        if ring.dropped() > 0 {
            report.push_str(&format!(
                "\nWARNING: the event ring dropped {} of {} events (oldest first); \
                 raise --event-ring-cap (currently {}) to keep more\n",
                ring.dropped(),
                ring.pushed(),
                opts.event_ring_cap
            ));
        }
    }
    t.stop(&mut metrics);
    RunCmdOutcome {
        report,
        metrics,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(records: u64) -> RunCmdOptions {
        RunCmdOptions {
            len: RunLength::with_records(records),
            ..RunCmdOptions::default()
        }
    }

    #[test]
    fn options_parse_and_reject() {
        let o = RunCmdOptions::parse(&[
            "--bench",
            "gzip",
            "--side",
            "i",
            "--records",
            "5000",
            "--seed",
            "9",
            "--jobs",
            "2",
        ])
        .unwrap();
        assert_eq!(o.benchmark, "gzip");
        assert_eq!(o.side, Side::Instruction);
        assert_eq!(o.len.records, 5_000);
        assert_eq!(o.len.warmup, 500);
        assert_eq!(o.len.seed, 9);
        assert_eq!(o.jobs, 2);
        assert!(RunCmdOptions::parse(&["--bench", "nonesuch"]).is_err());
        assert!(RunCmdOptions::parse(&["--side", "x"]).is_err());
        assert!(RunCmdOptions::parse(&["--records", "0"]).is_err());
        assert!(RunCmdOptions::parse(&["--frobnicate"]).is_err());
        let d = RunCmdOptions::parse::<&str>(&[]).unwrap();
        assert_eq!(d.benchmark, "mcf");
        assert_eq!(d.side, Side::Data);
        assert_eq!(d.event_ring_cap, EVENT_RING_CAPACITY);
        let o = RunCmdOptions::parse(&["--event-ring-cap", "128"]).unwrap();
        assert_eq!(o.event_ring_cap, 128);
        assert!(RunCmdOptions::parse(&["--event-ring-cap", "0"]).is_err());
        assert!(RunCmdOptions::parse(&["--event-ring-cap"]).is_err());
    }

    #[test]
    fn small_event_ring_reports_drops() {
        let mut opts = quick(30_000);
        opts.event_ring_cap = 64;
        let out = run_cmd(&opts, true);
        let ring = out.events.as_ref().expect("events were requested");
        assert!(ring.dropped() > 0, "64 events cannot hold a 30k replay");
        assert_eq!(ring.len(), 64);
        assert!(
            out.report.contains("raise --event-ring-cap (currently 64)"),
            "{}",
            out.report
        );
        // A roomy ring drops nothing and stays silent.
        let out = run_cmd(&quick(30_000), true);
        if out.events.as_ref().unwrap().dropped() == 0 {
            assert!(!out.report.contains("WARNING: the event ring dropped"));
        }
    }

    #[test]
    fn run_cmd_produces_metrics_report_and_optional_events() {
        let mut opts = quick(30_000);
        opts.jobs = 2;
        let out = run_cmd(&opts, true);
        assert!(out.report.contains("bcache"), "{}", out.report);
        assert!(out.report.contains("per-set access histogram"));
        assert!(
            out.report.contains("p95≤"),
            "histogram lines carry quantile summaries: {}",
            out.report
        );
        // Required metric keys (the CI telemetry smoke asserts these on
        // the written JSON).
        let json = out.metrics.to_json(false);
        for key in [
            "dm.accesses",
            "dm.misses",
            "bcache.accesses",
            "bcache.pd_reprograms",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key}");
        }
        assert!(out.metrics.histogram("dm.set_accesses").is_some());
        assert!(out.metrics.timing("phase.replay").is_some());
        assert!(out.metrics.timing("phase.warmup").is_some());
        assert!(out.metrics.timing("phase.report").is_some());
        assert!(out.metrics.timing("phase.trace_extract").is_some());
        let ring = out.events.expect("events were requested");
        assert!(ring.pushed() > 0);
        // Without events, none are produced and PD counters still land.
        let out2 = run_cmd(&opts, false);
        assert!(out2.events.is_none());
        assert_eq!(
            out2.metrics.counter_value("bcache.pd_reprograms"),
            out.metrics.counter_value("bcache.pd_reprograms")
        );
        assert!(out.metrics.counter_value("bcache.pd_reprograms") > 0);
    }

    #[test]
    fn deterministic_section_is_jobs_invariant() {
        let base = quick(20_000);
        let mut golden: Option<String> = None;
        for jobs in [1usize, 2, 8] {
            let mut opts = base.clone();
            opts.jobs = jobs;
            let out = run_cmd(&opts, false);
            let json = out.metrics.to_json(false);
            match &golden {
                None => golden = Some(json),
                Some(g) => assert_eq!(g, &json, "--jobs {jobs} changed the metrics"),
            }
        }
    }
}

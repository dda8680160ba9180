//! `bcache-repro`: regenerate any table or figure of the B-Cache paper.
//!
//! ```text
//! bcache-repro <experiment> [--records N] [--seed S] [--jobs N] [--csv]
//!
//! experiments:
//!   fig3 fig4 fig5 fig8 fig9 fig12
//!   tab1 tab2 tab3 tab4 tab5 tab6 tab7
//!   related   (Section 7.1 comparison)
//!   hac drowsy vp   (Sections 6.7 / 6.4 / 6.8 extension analyses)
//!   kernels   (VM-executed program kernels cross-check)
//!   sweep     (victim-size sweep, cold start, L2 B-Cache extension)
//!   all       (everything, in paper order)
//!
//! bcache-repro run [--bench NAME] [--side i|d] [--records N] [--seed S]
//!                  [--jobs N]
//!   telemetry replay report of one benchmark across the reference
//!   model set: per-phase wall times, per-model counters, set-pressure
//!   histograms, B-Cache PD activity
//!
//! bcache-repro stats [--records N] [--seed S] [--jobs N]
//!   set-pressure report over the eight golden benchmarks: per-set
//!   usage histograms (DM vs B-Cache MF8-BAS8) and PD churn rates
//!
//! bcache-repro fuzz [--iters N] [--seed S] [--jobs N] [--scenario NAME]
//!   differential property-fuzz of every cache model against its oracle;
//!   exits non-zero and prints a shrunk repro on any divergence;
//!   --scenario restricts the run to one scenario by name or index
//!
//! bcache-repro oracle [--seed S] [--jobs N] [--smoke] [--csv]
//!   analytical miss-rate oracle: sweeps the synthetic IRM families
//!   (uniform64k, zipf8, the adversarial birthday64) over the
//!   direct-mapped, 4-way and MF8-BAS8 models at 16 kB and checks the
//!   simulated miss rate against the closed-form expectation within a
//!   statistically justified band; exits non-zero if any cell drifts.
//!   --smoke runs one short sweep point with a widened band
//!
//! bcache-repro bench [--records N] [--seed S] [--out PATH]
//!                    [--baseline PATH] [--smoke] [--per-access]
//!   simulator micro-benchmarks at a pinned record count, written as
//!   BENCH_repro.json rows ({model, maccesses_per_sec, records, seed,
//!   git_rev, backend, lanes}); --smoke shortens the run and fails if
//!   direct-mapped throughput drops >20% versus the committed
//!   BENCH_baseline.json
//!
//! bcache-repro profile [--model NAME] [--benchmark NAME] [--side i|d]
//!                      [--records N] [--seed S] [--jobs N] [--window N]
//!                      [--out PREFIX] [--smoke]
//!   time-resolved profiling of one model on one benchmark: a windowed
//!   time series (PREFIX.jsonl + PREFIX.csv; miss rate, PD churn,
//!   writebacks, per-set heat per window), a Chrome Trace Event /
//!   Perfetto span export of the run (PREFIX.trace.json), and a phase
//!   attribution + observer-overhead report; --smoke shortens the run
//!   and fails if the windowed replay costs >5% over the plain batched
//!   replay
//!
//! bcache-repro serve [--addr HOST:PORT] [--workers N] [--queue-cap N]
//!                    [--outbuf-cap N] [--checkpoint PATH] [--resume PATH]
//!                    [--retries N] [--smoke] [--fuzz-frames]
//!   persistent multi-tenant simulation server: replay/sweep/profile
//!   jobs as line-delimited JSON over TCP, per-tenant fair scheduling
//!   with bounded queues (explicit busy rejects), incremental row
//!   streaming with bounded outbound buffers, panic isolation per job,
//!   and checkpointed sweeps that survive server restarts; --smoke and
//!   --fuzz-frames run the self-contained CI batteries
//!
//! bcache-repro loadgen [--addr HOST:PORT] [--connections N] [--requests N]
//!                      [--records N] [--seed S] [--out PATH]
//!   saturation client: N connections x a deterministic mix of job
//!   types against a serve instance (or an in-process one without
//!   --addr), reporting jobs/s and latency percentiles; --out writes a
//!   bench-schema JSON row (model serve-loadgen)
//! ```
//!
//! `run`, `stats`, `fig3`, `bench`, `fuzz` and `oracle` additionally accept
//! `--metrics <path>` (merged counters/histograms/timings as JSON) and —
//! where an event source exists (`run`, `fig3`) — `--trace-events
//! <path>` (typed B-Cache events as JSON Lines).
//!
//! `--jobs N` sets the experiment engine's worker-thread count (default:
//! available parallelism). Output is bit-identical for every `N`.
//! Diagnostics honor `BCACHE_LOG` (`off`/`error`/`warn`/`info`/`debug`,
//! default `info`).
//!
//! ## Fault tolerance
//!
//! Every experiment engine isolates job panics, retries failed jobs
//! with deterministic backoff, and timeout-flags hung jobs:
//!
//! * `--retries N` — extra attempts per job (default 2, so 3 total)
//! * `--backoff-ms MS` — base retry delay, doubling per attempt
//! * `--job-timeout-ms MS` — per-job watchdog budget (default 60 000)
//! * `--inject-fault job=K,mode=panic|hang|corrupt[,times=N]` —
//!   deterministic fault injection (repeatable; job ordinals count
//!   submissions)
//! * `--checkpoint PATH` — persist completed sweep results (JSONL),
//!   resuming from PATH if it already matches this run
//! * `--resume PATH` — resume a sweep; the checkpoint must exist and
//!   match the run's experiment/records/warmup/seed
//!
//! Checkpointing covers the sweep experiments (`fig3`, `fig4`, `fig5`,
//! `fig12`, `related`, `all`). Because retried jobs are pure, a
//! recovered or resumed run is byte-identical to an uninterrupted one;
//! failures are tallied as `engine.*` metrics and a degraded-run
//! summary in the `run`/`stats` reports.

use std::env;
use std::io::{self, Write};
use std::process::ExitCode;

use harness::config::RunOptions;
use harness::telemetry_io::{self, TelemetryFlags};
use harness::{
    balance, bench, design_space, extensions, fig3, fuzz, kernels_exp, missrate, perf, profilecmd,
    run, runcmd, sensitivity, statscmd, tables,
};
use telemetry::{tele_error, tele_info, tele_warn, EventRing, Recorder};

/// `print!` for the report stream. A reader that closes the pipe early
/// (`bcache-repro all | head -1`) has all the output it wants, so a
/// broken pipe ends the process with exit code 0 instead of a panic.
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

fn write_stdout(args: std::fmt::Arguments<'_>) {
    if let Err(e) = io::stdout().write_fmt(args) {
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

fn usage() -> ExitCode {
    tele_error!(
        "usage: bcache-repro <experiment> [--records N] [--seed S] [--jobs N] [--csv]\n\
         experiments: fig3 fig4 fig5 fig8 fig9 fig12 tab1 tab2 tab3 tab4 tab5 tab6 tab7 related hac drowsy vp kernels sweep all\n\
         \x20      bcache-repro run [--bench NAME] [--side i|d] [--records N] [--seed S] [--jobs N]\n\
         \x20      bcache-repro stats [--records N] [--seed S] [--jobs N]\n\
         \x20      bcache-repro fuzz [--iters N] [--seed S] [--jobs N] [--scenario NAME]\n\
         \x20      bcache-repro oracle [--seed S] [--jobs N] [--smoke] [--csv]\n\
         \x20      bcache-repro bench [--records N] [--seed S] [--out PATH] [--baseline PATH] [--smoke] [--per-access]\n\
         \x20      bcache-repro profile [--model NAME] [--benchmark NAME] [--side i|d] [--records N] [--seed S]\n\
         \x20                           [--jobs N] [--window N] [--out PREFIX] [--smoke]\n\
         \x20      bcache-repro serve [--addr HOST:PORT] [--workers N] [--queue-cap N] [--outbuf-cap N]\n\
         \x20                         [--checkpoint PATH] [--resume PATH] [--retries N] [--smoke] [--fuzz-frames]\n\
         \x20      bcache-repro loadgen [--addr HOST:PORT] [--connections N] [--requests N] [--records N]\n\
         \x20                           [--seed S] [--out PATH]\n\
         telemetry: run/stats/fig3/bench/fuzz/oracle/profile take --metrics PATH; run/fig3 take --trace-events PATH\n\
         robustness: experiments/run/stats take [--retries N] [--backoff-ms MS] [--job-timeout-ms MS]\n\
         \x20          [--inject-fault job=K,mode=panic|hang|corrupt[,times=N]];\n\
         \x20          sweeps (fig3 fig4 fig5 fig12 related all) take [--checkpoint PATH] [--resume PATH]"
    );
    ExitCode::from(2)
}

/// Writes the merged recorder (timing included — the file documents one
/// concrete invocation) and reports the outcome.
fn write_metrics_file(path: &str, rec: &Recorder) -> bool {
    match telemetry_io::write_metrics(path, rec, true) {
        Ok(()) => {
            tele_info!("wrote metrics to {path}");
            true
        }
        Err(e) => {
            tele_error!("cannot write {path}: {e}");
            false
        }
    }
}

fn write_events_file(path: &str, ring: &EventRing) -> bool {
    match telemetry_io::write_events(path, ring) {
        Ok(()) => {
            tele_info!(
                "wrote {} events to {path} ({} dropped by the ring)",
                ring.len(),
                ring.dropped()
            );
            true
        }
        Err(e) => {
            tele_error!("cannot write {path}: {e}");
            false
        }
    }
}

/// Runs `body` under `catch_unwind`, turning a permanent job failure
/// (the engine re-raises the first one after exhausting retries) into a
/// clean non-zero exit instead of an unwinding crash. When a checkpoint
/// is attached the completed jobs were already flushed, so the error
/// carries a resume hint.
fn guarded<T>(
    engine: Option<&harness::parallel::Engine>,
    body: impl FnOnce() -> T,
) -> Result<T, ExitCode> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
        Ok(v) => Ok(v),
        Err(payload) => {
            tele_error!(
                "experiment failed: {}",
                harness::parallel::panic_message(payload.as_ref())
            );
            if engine.is_some_and(|e| e.has_checkpoint()) {
                tele_error!(
                    "completed jobs are checkpointed; re-run with --resume <path> to \
                     replay only the remainder"
                );
            }
            Err(ExitCode::FAILURE)
        }
    }
}

/// Logs a warning if the engine degraded (failures that retries
/// absorbed) — the figures have no report section for it, so the
/// summary goes to the diagnostics stream.
fn warn_if_degraded(engine: &harness::parallel::Engine) {
    if engine.degraded() {
        let summary = telemetry_io::degraded_summary(&engine.failure_snapshot());
        tele_warn!("{}", summary.trim());
    }
}

fn run_bench(args: &[String], tele: &TelemetryFlags) -> ExitCode {
    if tele.trace_events.is_some() {
        tele_warn!("--trace-events is not supported by bench; ignoring");
    }
    let opts = match bench::BenchOptions::parse(args) {
        Ok(opts) => opts,
        Err(msg) => {
            tele_error!("{msg}");
            return usage();
        }
    };
    let mut rec = Recorder::new();
    let rows = match bench::run_recorded(&opts, &mut rec) {
        Ok(rows) => rows,
        Err(msg) => {
            tele_error!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    out!("{}", bench::render_table(&rows));
    if let Err(e) = std::fs::write(&opts.out, bench::render_json(&rows)) {
        tele_error!("cannot write {}: {e}", opts.out);
        return ExitCode::FAILURE;
    }
    tele_info!("wrote {}", opts.out);
    if let Some(path) = &tele.metrics {
        if !write_metrics_file(path, &rec) {
            return ExitCode::FAILURE;
        }
    }
    if opts.smoke {
        let baseline = match std::fs::read_to_string(&opts.baseline) {
            Ok(text) => text,
            Err(e) => {
                tele_error!("cannot read baseline {}: {e}", opts.baseline);
                return ExitCode::FAILURE;
            }
        };
        match bench::check_against_baseline(&rows, &baseline) {
            Ok(verdict) => out!("{verdict}\n"),
            Err(e) => {
                tele_error!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let Some(experiment) = args.first().cloned() else {
        return usage();
    };
    let mut tail: Vec<String> = args[1..].to_vec();
    let tele = match TelemetryFlags::extract(&mut tail) {
        Ok(tele) => tele,
        Err(msg) => {
            tele_error!("{msg}");
            return usage();
        }
    };

    if experiment == "run" {
        let opts = match runcmd::RunCmdOptions::parse(&tail) {
            Ok(opts) => opts,
            Err(msg) => {
                tele_error!("{msg}");
                return usage();
            }
        };
        if opts.setup.wants_checkpoint() {
            tele_warn!("--checkpoint/--resume apply to the sweep experiments; ignoring for run");
        }
        let out = match guarded(None, || runcmd::run_cmd(&opts, tele.trace_events.is_some())) {
            Ok(out) => out,
            Err(code) => return code,
        };
        out!("{}", out.report);
        if let Some(path) = &tele.metrics {
            if !write_metrics_file(path, &out.metrics) {
                return ExitCode::FAILURE;
            }
        }
        if let (Some(path), Some(ring)) = (&tele.trace_events, &out.events) {
            if !write_events_file(path, ring) {
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }
    if experiment == "stats" {
        if tele.trace_events.is_some() {
            tele_warn!("--trace-events is not supported by stats; ignoring");
        }
        let opts = match RunOptions::parse(&tail) {
            Ok(opts) => opts,
            Err(msg) => {
                tele_error!("{msg}");
                return usage();
            }
        };
        if opts.setup.wants_checkpoint() {
            tele_warn!("--checkpoint/--resume apply to the sweep experiments; ignoring for stats");
        }
        let out = match guarded(None, || statscmd::stats_cmd(&opts)) {
            Ok(out) => out,
            Err(code) => return code,
        };
        out!("{}", out.report);
        if let Some(path) = &tele.metrics {
            if !write_metrics_file(path, &out.metrics) {
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }
    if experiment == "fuzz" {
        if tele.trace_events.is_some() {
            tele_warn!("--trace-events is not supported by fuzz; ignoring");
        }
        let opts = match fuzz::FuzzOptions::parse(&tail) {
            Ok(opts) => opts,
            Err(msg) => {
                tele_error!("{msg}");
                return usage();
            }
        };
        let report = fuzz::run(&opts);
        out!("{}", report.render());
        if let Some(path) = &tele.metrics {
            let mut rec = Recorder::new();
            rec.counter("fuzz.cases", report.iters);
            rec.counter("fuzz.divergences", report.divergences.len() as u64);
            if !write_metrics_file(path, &rec) {
                return ExitCode::FAILURE;
            }
        }
        return if report.divergences.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if experiment == "oracle" {
        if tele.trace_events.is_some() {
            tele_warn!("--trace-events is not supported by oracle; ignoring");
        }
        let opts = match harness::oraclecmd::OracleOptions::parse(&tail) {
            Ok(opts) => opts,
            Err(msg) => {
                tele_error!("{msg}");
                return usage();
            }
        };
        let report = match guarded(None, || harness::oraclecmd::oracle_report(&opts)) {
            Ok(report) => report,
            Err(code) => return code,
        };
        out!(
            "{}",
            if opts.csv {
                report.render_csv()
            } else {
                report.render()
            }
        );
        if let Some(path) = &tele.metrics {
            let mut rec = Recorder::new();
            rec.counter("oracle.cells", report.cells.len() as u64);
            rec.counter("oracle.failures", report.failures() as u64);
            if !write_metrics_file(path, &rec) {
                return ExitCode::FAILURE;
            }
        }
        return if report.failures() == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if experiment == "bench" {
        return run_bench(&tail, &tele);
    }
    if experiment == "profile" {
        if tele.trace_events.is_some() {
            tele_warn!("--trace-events is not supported by profile (it writes PREFIX.trace.json); ignoring");
        }
        let opts = match profilecmd::ProfileOptions::parse(&tail) {
            Ok(opts) => opts,
            Err(msg) => {
                tele_error!("{msg}");
                return usage();
            }
        };
        if opts.setup.wants_checkpoint() {
            tele_warn!(
                "--checkpoint/--resume apply to the sweep experiments; ignoring for profile"
            );
        }
        let out = match guarded(None, || profilecmd::profile_cmd(&opts)) {
            Ok(out) => out,
            Err(code) => return code,
        };
        out!("{}", out.report);
        for (suffix, content) in [
            (".jsonl", &out.series_jsonl),
            (".csv", &out.series_csv),
            (".trace.json", &out.trace_json),
        ] {
            let path = format!("{}{suffix}", opts.out);
            if let Err(e) = std::fs::write(&path, content) {
                tele_error!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            tele_info!("wrote {path}");
        }
        if let Some(path) = &tele.metrics {
            if !write_metrics_file(path, &out.metrics) {
                return ExitCode::FAILURE;
            }
        }
        return if out.smoke_ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if experiment == "serve" {
        if tele.any() {
            tele_warn!("--metrics/--trace-events are not supported by serve; ignoring");
        }
        let opts = match harness::serve::ServeOptions::parse(&tail) {
            Ok(opts) => opts,
            Err(msg) => {
                tele_error!("{msg}");
                return usage();
            }
        };
        return match harness::serve::serve_cmd(opts) {
            Ok(report) => {
                out!("{report}");
                ExitCode::SUCCESS
            }
            Err(msg) => {
                tele_error!("{msg}");
                ExitCode::FAILURE
            }
        };
    }
    if experiment == "loadgen" {
        if tele.any() {
            tele_warn!("--metrics/--trace-events are not supported by loadgen; ignoring");
        }
        let opts = match harness::serve::LoadgenOptions::parse(&tail) {
            Ok(opts) => opts,
            Err(msg) => {
                tele_error!("{msg}");
                return usage();
            }
        };
        return match harness::serve::run_loadgen(&opts) {
            Ok(report) => {
                out!("{}", report.render(&opts));
                if let Some(path) = &opts.out {
                    if let Err(e) = std::fs::write(path, report.to_bench_json(&opts)) {
                        tele_error!("cannot write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    tele_info!("wrote {path}");
                }
                ExitCode::SUCCESS
            }
            Err(msg) => {
                tele_error!("{msg}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match RunOptions::parse(&tail) {
        Ok(opts) => opts,
        Err(msg) => {
            tele_error!("{msg}");
            return usage();
        }
    };
    let (len, csv) = (opts.len, opts.csv);
    let engine = opts.engine();
    if tele.any() && experiment != "fig3" {
        tele_warn!(
            "--metrics/--trace-events apply to run, stats, fig3, bench and fuzz; \
             ignoring for {experiment}"
        );
    }

    // Checkpointing needs jobs with stable identities, which the sweep
    // experiments provide (`run_checkpointed` scopes).
    const CHECKPOINTABLE: &[&str] = &["fig3", "fig4", "fig5", "fig12", "related", "all"];
    if opts.setup.wants_checkpoint() {
        if CHECKPOINTABLE.contains(&experiment.as_str()) {
            match opts.setup.attach_checkpoint(&engine, &experiment, len) {
                Ok(_) => tele_info!("checkpointing {experiment}"),
                Err(msg) => {
                    tele_error!("{msg}");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            tele_warn!(
                "--checkpoint/--resume apply to {}; ignoring for {experiment}",
                CHECKPOINTABLE.join("/")
            );
        }
    }

    let dispatch = || {
        match experiment.as_str() {
            "fig3" => {
                if tele.any() {
                    let mut rec = Recorder::new();
                    let (_, text) = fig3::figure3_recorded(&engine, len, &mut rec);
                    out!("{text}");
                    rec.merge(&engine.timing_snapshot());
                    rec.merge(&engine.failure_snapshot());
                    if let Some(path) = &tele.metrics {
                        if !write_metrics_file(path, &rec) {
                            return ExitCode::FAILURE;
                        }
                    }
                    if let Some(path) = &tele.trace_events {
                        // The event trace documents the sweep's headline
                        // point: wupwise data side at MF = 8, BAS = 8.
                        let profile = trace_gen::profiles::by_name("wupwise")
                            .expect("wupwise profile exists");
                        let trace = engine.side_trace(&profile, len, run::Side::Data);
                        let bc = run::replay_bcache_observed(
                            &trace,
                            8,
                            8,
                            16 * 1024,
                            runcmd::EVENT_RING_CAPACITY,
                        );
                        if !write_events_file(path, bc.observer()) {
                            return ExitCode::FAILURE;
                        }
                    }
                } else {
                    out!("{}", fig3::figure3_with(&engine, len).1);
                }
            }
            "fig4" => {
                let (fp, int) = missrate::figure4_with(&engine, len);
                if csv {
                    out!("{}{}", fp.render_csv(), int.render_csv());
                } else {
                    out!("{}\n{}", fp.render(), int.render());
                }
            }
            "fig5" => {
                let fig = missrate::figure5_with(&engine, len);
                out!("{}", if csv { fig.render_csv() } else { fig.render() });
            }
            "fig8" => out!(
                "{}",
                perf::render_figure8(&perf::run_perf_with(&engine, len))
            ),
            "fig9" => out!(
                "{}",
                perf::render_figure9(&perf::run_perf_with(&engine, len))
            ),
            "fig12" => {
                for fig in missrate::figure12_with(&engine, len) {
                    if csv {
                        out!("{}", fig.render_csv());
                    } else {
                        out!("{}\n", fig.render());
                    }
                }
            }
            "tab1" => out!("{}", tables::render_table1()),
            "tab2" => out!("{}", tables::render_table2()),
            "tab3" => out!("{}", tables::render_table3()),
            "tab4" => out!("{}", tables::render_table4()),
            "tab5" | "tab6" => {
                let grid = design_space::design_space_grid_with(&engine, len);
                out!("{}", design_space::render_tables_5_and_6(&grid));
            }
            "tab7" => match balance::table7_with(&engine, len) {
                Ok(rows) => out!("{}", balance::render_table7(&rows)),
                Err(msg) => {
                    tele_error!("{msg}");
                    return ExitCode::FAILURE;
                }
            },
            "related" => {
                let fig = missrate::related_work_with(&engine, len);
                out!("{}", if csv { fig.render_csv() } else { fig.render() });
            }
            "sweep" => {
                let points = sensitivity::victim_sweep_with(&engine, len, &[2, 4, 8, 16, 32, 64]);
                out!("{}", sensitivity::render_victim_sweep(&points));
                let windows = sensitivity::cold_start("equake", 20_000, 8, len);
                out!(
                    "{}",
                    sensitivity::render_cold_start("equake", &windows, 20_000)
                );
                out!(
                    "{}",
                    sensitivity::render_l2_bcache(&sensitivity::l2_bcache_with(&engine, len))
                );
            }
            "kernels" => {
                out!(
                    "{}",
                    kernels_exp::render_kernels(&kernels_exp::run_kernels_with(
                        &engine,
                        len.records
                    ))
                )
            }
            "hac" => out!("{}", extensions::render_hac_comparison()),
            "drowsy" => match extensions::drowsy_analysis(len) {
                Ok(rows) => out!("{}", extensions::render_drowsy(&rows)),
                Err(msg) => {
                    tele_error!("{msg}");
                    return ExitCode::FAILURE;
                }
            },
            "vp" => out!("{}", extensions::render_vp_analysis()),
            "all" => {
                out!("{}", tables::render_table4());
                let (fp, int) = missrate::figure4_with(&engine, len);
                out!("{}\n{}", fp.render(), int.render());
                out!("{}", missrate::figure5_with(&engine, len).render());
                out!("{}", fig3::figure3_with(&engine, len).1);
                out!("{}", tables::render_table1());
                out!("{}", tables::render_table2());
                out!("{}", tables::render_table3());
                let rows = perf::run_perf_with(&engine, len);
                out!("{}", perf::render_figure8(&rows));
                out!("{}", perf::render_figure9(&rows));
                let grid = design_space::design_space_grid_with(&engine, len);
                out!("{}", design_space::render_tables_5_and_6(&grid));
                match balance::table7_with(&engine, len) {
                    Ok(rows) => out!("{}", balance::render_table7(&rows)),
                    Err(msg) => {
                        tele_error!("{msg}");
                        return ExitCode::FAILURE;
                    }
                }
                for fig in missrate::figure12_with(&engine, len) {
                    out!("{}\n", fig.render());
                }
                out!("{}", missrate::related_work_with(&engine, len).render());
                out!("{}", extensions::render_hac_comparison());
                match extensions::drowsy_analysis(len) {
                    Ok(rows) => out!("{}", extensions::render_drowsy(&rows)),
                    Err(msg) => {
                        tele_error!("{msg}");
                        return ExitCode::FAILURE;
                    }
                }
                out!("{}", extensions::render_vp_analysis());
                out!(
                    "{}",
                    kernels_exp::render_kernels(&kernels_exp::run_kernels_with(
                        &engine,
                        len.records
                    ))
                );
            }
            _ => return usage(),
        }
        ExitCode::SUCCESS
    };
    // A job that exhausts its retries propagates out of the engine;
    // turn that into a clean failure exit (with the checkpoint already
    // flushed and a resume hint) instead of an unwinding crash.
    match guarded(Some(&engine), dispatch) {
        Ok(code) => {
            warn_if_degraded(&engine);
            // Compacts the checkpoint's append log to one line per job.
            engine.checkpoint_flush();
            code
        }
        Err(code) => code,
    }
}

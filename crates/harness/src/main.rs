//! `bcache-repro`: regenerate any table or figure of the B-Cache paper,
//! and drive the telemetry, fuzzing, oracle, benchmark, profiling and
//! server subcommands.
//!
//! Run it without arguments for the usage. The usage is generated from
//! the flag table in `harness::cli`, which lists every subcommand, the
//! flags each accepts, and one help line per flag. A flag a subcommand
//! accepts but does not act on draws a warning and is ignored.
//!
//! `--jobs N` sets the experiment engine's worker-thread count (default:
//! available parallelism). Every table and figure runs on that one
//! engine, `all` included, so every experiment honours it; output is
//! bit-identical for every `N`.
//! Diagnostics honor `BCACHE_LOG` (`off`/`error`/`warn`/`info`/`debug`,
//! default `info`).
//!
//! ## Checkpoints
//!
//! The experiment engine runs each job once under `catch_unwind`: a job
//! that panics ends the run with that panic's message and a non-zero
//! exit. The sweep experiments (`fig3`, `fig4`, `fig5`, `fig12`,
//! `related`, `all`) can persist completed jobs (`--checkpoint`) and
//! resume from them (`--resume`). Jobs are pure, so a resumed run is
//! byte-identical to an uninterrupted one.

use std::cell::OnceCell;
use std::env;
use std::io::{self, Write};
use std::process::ExitCode;

use harness::config::{RunOptions, L1_BYTES};
use harness::oraclecmd::{self, OracleOptions};
use harness::parallel::Engine;
use harness::run::RunLength;
use harness::serve::{LoadgenOptions, ServeOptions};
use harness::telemetry_io::{self, TelemetryFlags};
use harness::{
    balance, bench, cli, design_space, extensions, fig3, fuzz, kernels_exp, missrate, perf,
    profilecmd, run, runcmd, sensitivity, statscmd, tables,
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

/// Runs `body` under `catch_unwind`, turning a job panic (the engine
/// re-raises the first one) into a clean non-zero exit instead of an
/// unwinding crash. When a checkpoint is attached the completed jobs
/// were already flushed, so the error carries a resume hint.
fn guarded<T>(engine: Option<&Engine>, body: impl FnOnce() -> T) -> Result<T, ExitCode> {
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

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(msg) => {
            tele_error!("{msg}");
            tele_error!(
                "{}",
                cli::usage(args.first().map(String::as_str)).trim_end()
            );
            ExitCode::from(2)
        }
    }
}

/// Runs one command line. `Err` is a usage error, which exits with
/// status 2 after the usage text. The command's table row checks every
/// flag and sorts out the ones it ignores; the subcommand's options
/// parser then reads the same flags into its fields.
fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let (name, tail) = args.split_first().ok_or("missing command")?;
    let cmd = cli::command(name).ok_or_else(|| format!("unknown command: {name}"))?;
    let (given, ignored) = cmd.parse(tail)?;
    for flag in ignored {
        tele_warn!("{flag} is not supported by {name}; ignoring");
    }
    let tele = given.telemetry();
    Ok(match name.as_str() {
        "run" => run(&runcmd::RunCmdOptions::parse(tail)?, &tele),
        "stats" => stats(&RunOptions::parse(tail)?, &tele),
        "fuzz" => fuzz_cmd(&fuzz::FuzzOptions::parse(tail)?, &tele),
        "oracle" => oracle(&OracleOptions::parse(tail)?, &tele),
        "bench" => run_bench(&bench::BenchOptions::parse(tail)?, &tele),
        "profile" => profile(&profilecmd::ProfileOptions::parse(tail)?, &tele),
        "serve" => serve(ServeOptions::parse(tail)?),
        "loadgen" => loadgen(&LoadgenOptions::parse(tail)?),
        experiment => {
            let checkpoint = given.setup().wants_checkpoint();
            run_experiment(experiment, &RunOptions::parse(tail)?, checkpoint, &tele)
        }
    })
}

fn run(opts: &runcmd::RunCmdOptions, tele: &TelemetryFlags) -> ExitCode {
    let out = match guarded(None, || runcmd::run_cmd(opts, tele.trace_events.is_some())) {
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
    ExitCode::SUCCESS
}

fn stats(opts: &RunOptions, tele: &TelemetryFlags) -> ExitCode {
    let out = match guarded(None, || statscmd::stats_cmd(opts)) {
        Ok(out) => out,
        Err(code) => return code,
    };
    out!("{}", out.report);
    if let Some(path) = &tele.metrics {
        if !write_metrics_file(path, &out.metrics) {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn fuzz_cmd(opts: &fuzz::FuzzOptions, tele: &TelemetryFlags) -> ExitCode {
    let report = fuzz::run(opts);
    out!("{}", report.render());
    if let Some(path) = &tele.metrics {
        let mut rec = Recorder::new();
        rec.counter("fuzz.cases", report.iters);
        rec.counter("fuzz.divergences", report.divergences.len() as u64);
        if !write_metrics_file(path, &rec) {
            return ExitCode::FAILURE;
        }
    }
    if report.divergences.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn oracle(opts: &OracleOptions, tele: &TelemetryFlags) -> ExitCode {
    let report = match guarded(None, || oraclecmd::oracle_report(opts)) {
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
    if report.failures() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_bench(opts: &bench::BenchOptions, tele: &TelemetryFlags) -> ExitCode {
    let mut rec = Recorder::new();
    let rows = match bench::run_recorded(opts, &mut rec) {
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

fn profile(opts: &profilecmd::ProfileOptions, tele: &TelemetryFlags) -> ExitCode {
    let out = match guarded(None, || profilecmd::profile_cmd(opts)) {
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
    if out.smoke_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn serve(opts: ServeOptions) -> ExitCode {
    match harness::serve::serve_cmd(opts) {
        Ok(report) => {
            out!("{report}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            tele_error!("{msg}");
            ExitCode::FAILURE
        }
    }
}

fn loadgen(opts: &LoadgenOptions) -> ExitCode {
    match harness::serve::run_loadgen(opts) {
        Ok(report) => {
            out!("{}", report.render(opts));
            if let Some(path) = &opts.out {
                if let Err(e) = std::fs::write(path, report.to_bench_json(opts)) {
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
    }
}

/// The experiments `all` prints, in order.
const ALL: &[&str] = &[
    "tab4", "fig4", "fig5", "fig3", "tab1", "tab2", "tab3", "fig8", "fig9", "tab5", "tab7",
    "fig12", "related", "hac", "drowsy", "vp", "kernels",
];

/// Runs one table/figure experiment, or each of [`ALL`] for `all`.
/// `checkpoint` says whether the experiment honours the
/// `--checkpoint`/`--resume` in `opts`.
fn run_experiment(
    experiment: &str,
    opts: &RunOptions,
    checkpoint: bool,
    tele: &TelemetryFlags,
) -> ExitCode {
    let engine = opts.engine();
    if checkpoint {
        match opts.setup.attach_checkpoint(&engine, experiment, opts.len) {
            Ok(_) => tele_info!("checkpointing {experiment}"),
            Err(msg) => {
                tele_error!("{msg}");
                return ExitCode::FAILURE;
            }
        }
    }

    let drive = || {
        if experiment == "fig3" && tele.any() {
            return figure3_observed(&engine, opts.len, tele);
        }
        // `all` renders each experiment as its own command renders it
        // without `--csv`.
        let (names, csv) = if experiment == "all" {
            (ALL, false)
        } else {
            (std::slice::from_ref(&experiment), opts.csv)
        };
        let experiments = Experiments {
            engine: &engine,
            len: opts.len,
            csv,
            perf: OnceCell::new(),
            table7: OnceCell::new(),
        };
        for name in names {
            experiments.render(name);
        }
        ExitCode::SUCCESS
    };
    // A job panic propagates out of the engine; turn that into a clean
    // failure exit (with the checkpoint already flushed and a resume
    // hint) instead of an unwinding crash.
    match guarded(Some(&engine), drive) {
        Ok(code) => {
            // Compacts the checkpoint's append log to one line per job.
            engine.checkpoint_flush();
            code
        }
        Err(code) => code,
    }
}

/// The table and figure drivers on one command's engine. Rows that two
/// experiments render are computed once: fig8 and fig9 share the perf
/// rows, and drowsy reads Table 7's rows.
struct Experiments<'a> {
    engine: &'a Engine,
    len: RunLength,
    csv: bool,
    perf: OnceCell<Vec<perf::PerfRow>>,
    table7: OnceCell<Vec<balance::BalanceRow>>,
}

impl Experiments<'_> {
    fn perf(&self) -> &[perf::PerfRow] {
        self.perf
            .get_or_init(|| perf::run_perf_with(self.engine, self.len))
    }

    fn table7(&self) -> &[balance::BalanceRow] {
        self.table7
            .get_or_init(|| balance::table7_with(self.engine, self.len))
    }

    /// Prints experiment `name`.
    fn render(&self, name: &str) {
        let (engine, len, csv) = (self.engine, self.len, self.csv);
        match name {
            "fig3" => out!("{}", fig3::figure3_with(engine, len).1),
            "fig4" => {
                let (fp, int) = missrate::figure4_with(engine, len);
                if csv {
                    out!("{}{}", fp.render_csv(), int.render_csv());
                } else {
                    out!("{}\n{}", fp.render(), int.render());
                }
            }
            "fig5" => {
                let fig = missrate::figure5_with(engine, len);
                out!("{}", if csv { fig.render_csv() } else { fig.render() });
            }
            "fig8" => out!("{}", perf::render_figure8(self.perf())),
            "fig9" => out!("{}", perf::render_figure9(self.perf())),
            "fig12" => {
                for fig in missrate::figure12_with(engine, len) {
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
                let grid = design_space::design_space_grid_with(engine, len);
                out!("{}", design_space::render_tables_5_and_6(&grid));
            }
            "tab7" => out!("{}", balance::render_table7(self.table7())),
            "related" => {
                let fig = missrate::related_work_with(engine, len);
                out!("{}", if csv { fig.render_csv() } else { fig.render() });
            }
            "sweep" => {
                let points = sensitivity::victim_sweep_with(engine, len, &[2, 4, 8, 16, 32, 64]);
                out!("{}", sensitivity::render_victim_sweep(&points));
                let windows = sensitivity::cold_start("equake", 20_000, 8, len);
                out!(
                    "{}",
                    sensitivity::render_cold_start("equake", &windows, 20_000)
                );
                out!(
                    "{}",
                    sensitivity::render_l2_bcache(&sensitivity::l2_bcache_with(engine, len))
                );
            }
            "kernels" => out!(
                "{}",
                kernels_exp::render_kernels(&kernels_exp::run_kernels_with(engine, len.records))
            ),
            "hac" => out!("{}", extensions::render_hac_comparison()),
            "drowsy" => out!(
                "{}",
                extensions::render_drowsy(&extensions::drowsy_analysis(self.table7()))
            ),
            "vp" => out!("{}", extensions::render_vp_analysis()),
            other => unreachable!("{other} is in the command table but has no driver"),
        }
    }
}

/// `fig3` with `--metrics` and/or `--trace-events`: the figure, plus
/// its point counters and engine timing in the metrics file and the
/// event trace of its headline point.
fn figure3_observed(engine: &Engine, len: RunLength, tele: &TelemetryFlags) -> ExitCode {
    let mut rec = Recorder::new();
    let (_, text) = fig3::figure3_recorded(engine, len, &mut rec);
    out!("{text}");
    rec.merge(&engine.timing_snapshot());
    let hits = engine.checkpoint_hits();
    if hits > 0 {
        rec.counter("engine.checkpoint_hits", hits);
    }
    if let Some(path) = &tele.metrics {
        if !write_metrics_file(path, &rec) {
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &tele.trace_events {
        // The event trace documents the sweep's headline point: wupwise
        // data side at MF = 8, BAS = 8.
        let profile = trace_gen::profiles::by_name("wupwise").expect("wupwise profile exists");
        let trace = engine.side_trace(&profile, len, run::Side::Data);
        let bc = run::replay_bcache_observed(&trace, 8, 8, L1_BYTES, runcmd::EVENT_RING_CAPACITY);
        if !write_events_file(path, bc.observer()) {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

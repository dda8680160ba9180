//! The `bcache-repro` flag table: every flag's name, value kind and
//! help text, the flags each subcommand accepts, and the usage text
//! generated from both.
//!
//! Each `*Options::parse` reads its command's flags through this
//! module's parser, so which flags take a value is decided here and
//! nowhere else: a value-taking flag always consumes the next token
//! (`--out --metrics` writes a file named `--metrics`). Adding a flag
//! means adding one row to the `flags!` table, listing it in a
//! command's group, and reading it into the field it sets.

use crate::config::{validate_len, EngineSetup};
use crate::parallel::default_parallelism;
use crate::run::{RunLength, Side};
use crate::telemetry_io::TelemetryFlags;

/// What a flag's value must look like.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    /// No value: the flag's presence is the setting.
    Switch,
    /// An unsigned integer.
    Int,
    /// An unsigned integer of at least 1.
    NonZero,
    /// Free text, shown in the usage as the given placeholder.
    Text(&'static str),
    /// A reference stream: `i`/`instruction` or `d`/`data`.
    Side,
}

/// One row of the flag table.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct Flag {
    /// The flag as typed, e.g. `--records`.
    pub(crate) name: &'static str,
    /// What its value must look like.
    pub(crate) kind: Kind,
    /// One-line help text for the generated usage.
    pub(crate) help: &'static str,
}

/// Declares one `pub(crate) const` [`Flag`] per row:
/// `IDENT "--name" Kind::..., "help";`.
macro_rules! flags {
    ($($id:ident $name:literal $kind:expr, $help:literal;)*) => {
        $(pub(crate) const $id: Flag = Flag { name: $name, kind: $kind, help: $help };)*
    };
}

flags! {
    RECORDS        "--records"        Kind::NonZero,           "trace records (bench: accesses per timed pass; loadgen: records per job)";
    WARMUP         "--warmup"         Kind::Int,               "records replayed before the statistics reset (default: a tenth of --records)";
    SEED           "--seed"           Kind::Int,               "base seed; job seeds derive from it";
    JOBS           "--jobs"           Kind::NonZero,           "worker threads (default: available parallelism); output is identical for every value";
    CSV            "--csv"            Kind::Switch,            "emit CSV instead of text tables";
    SIDE           "--side"           Kind::Side,              "reference stream: instruction or data (default data)";
    CHECKPOINT     "--checkpoint"     Kind::Text("PATH"),      "persist completed sweep jobs (JSONL), resuming if PATH already matches this run";
    RESUME         "--resume"         Kind::Text("PATH"),      "resume a sweep; the checkpoint must exist and match records/warmup/seed";
    METRICS        "--metrics"        Kind::Text("PATH"),      "write merged counters, histograms and timings as JSON";
    TRACE_EVENTS   "--trace-events"   Kind::Text("PATH"),      "write typed B-Cache events as JSON Lines";
    BENCH          "--bench"          Kind::Text("NAME"),      "SPEC profile (default mcf)";
    EVENT_RING_CAP "--event-ring-cap" Kind::NonZero,           "events the --trace-events ring keeps (default 65536)";
    ITERS          "--iters"          Kind::NonZero,           "fuzz cases to run (default 2000)";
    SCENARIO       "--scenario"       Kind::Text("NAME"),      "pin every fuzz case to one scenario, by name or index";
    SMOKE          "--smoke"          Kind::Switch,            "shortened CI run that enforces the command's pass/fail gate";
    OUT            "--out"            Kind::Text("PATH"),      "output file (profile: path prefix of the three artifacts)";
    BASELINE       "--baseline"       Kind::Text("PATH"),      "committed throughput rows the --smoke gate compares against";
    MODEL          "--model"          Kind::Text("NAME"),      "cache model: a bench model name or dm, 8way, bcache (default bcache-mf8-bas8)";
    BENCHMARK      "--benchmark"      Kind::Text("NAME"),      "SPEC profile or synthetic family (default mcf)";
    WINDOW         "--window"         Kind::NonZero,           "window size in accesses";
    ADDR           "--addr"           Kind::Text("HOST:PORT"), "serve: bind address; loadgen: server to load (default: an in-process one)";
    WORKERS        "--workers"        Kind::NonZero,           "threads executing jobs";
    QUEUE_CAP      "--queue-cap"      Kind::NonZero,           "per-tenant queue bound; a submit past it gets a busy frame";
    OUTBUF_CAP     "--outbuf-cap"     Kind::NonZero,           "per-session outbound row buffer bound (oldest dropped)";
    CONNECTIONS    "--connections"    Kind::NonZero,           "concurrent client connections";
    REQUESTS       "--requests"       Kind::NonZero,           "jobs per connection";
}

/// Run length: read by [`Args::run_length`].
const LENGTH: &[Flag] = &[RECORDS, WARMUP, SEED];
/// Checkpoint paths: read by [`Args::setup`].
const CHECKPOINTS: &[Flag] = &[CHECKPOINT, RESUME];
/// Telemetry outputs: read by [`Args::telemetry`].
const TELEMETRY: &[Flag] = &[METRICS, TRACE_EVENTS];

/// Flags of `stats` and of every table/figure experiment.
pub(crate) const EXPERIMENT_FLAGS: &[&[Flag]] = &[LENGTH, &[JOBS, CSV], CHECKPOINTS, TELEMETRY];
/// Flags of `run`.
pub(crate) const RUN_FLAGS: &[&[Flag]] =
    &[&[BENCH, SIDE], LENGTH, &[JOBS, EVENT_RING_CAP], TELEMETRY];
/// Flags of `fuzz`.
pub(crate) const FUZZ_FLAGS: &[&[Flag]] = &[&[ITERS, SEED, JOBS, SCENARIO], TELEMETRY];
/// Flags of `oracle`.
pub(crate) const ORACLE_FLAGS: &[&[Flag]] = &[&[SEED, JOBS, SMOKE, CSV], TELEMETRY];
/// Flags of `bench`.
pub(crate) const BENCH_FLAGS: &[&[Flag]] = &[&[RECORDS, SEED, OUT, BASELINE, SMOKE], TELEMETRY];
/// Flags of `profile`.
pub(crate) const PROFILE_FLAGS: &[&[Flag]] = &[
    &[MODEL, BENCHMARK, SIDE],
    LENGTH,
    &[JOBS, WINDOW, OUT, SMOKE],
    TELEMETRY,
];
/// Flags of `serve`.
pub(crate) const SERVE_FLAGS: &[&[Flag]] = &[
    &[ADDR, WORKERS, QUEUE_CAP, OUTBUF_CAP, SMOKE],
    CHECKPOINTS,
    TELEMETRY,
];
/// Flags of `loadgen`.
pub(crate) const LOADGEN_FLAGS: &[&[Flag]] = &[
    &[ADDR, CONNECTIONS, REQUESTS, RECORDS, SEED, OUT],
    TELEMETRY,
];

/// One subcommand (or a set of experiments sharing one flag set).
#[derive(Debug)]
pub struct Command {
    /// The names that select it.
    pub(crate) names: &'static [&'static str],
    /// What it does, for the usage text.
    pub(crate) about: &'static str,
    /// Every flag it accepts.
    pub(crate) flags: &'static [&'static [Flag]],
    /// Accepted flags it does not act on: each given one draws a
    /// warning and is otherwise ignored.
    pub(crate) ignored: &'static [Flag],
}

/// Every `bcache-repro` subcommand, in usage order.
pub(crate) const COMMANDS: &[Command] = &[
    Command {
        names: &["fig3"],
        about: "Figure 3: the wupwise MF sweep; --trace-events records its MF8-BAS8 point",
        flags: EXPERIMENT_FLAGS,
        ignored: &[CSV],
    },
    Command {
        names: &["fig4", "fig5", "fig12", "related"],
        about: "Figures 4, 5 and 12 and the Section 7.1 related-work comparison",
        flags: EXPERIMENT_FLAGS,
        ignored: &[METRICS, TRACE_EVENTS],
    },
    Command {
        names: &["all"],
        about: "every table and figure, in paper order",
        flags: EXPERIMENT_FLAGS,
        ignored: &[CSV, METRICS, TRACE_EVENTS],
    },
    // Checkpoints need jobs with stable identities, which only the sweep
    // experiments (fig3 fig4 fig5 fig12 related all) give their jobs.
    Command {
        names: &[
            "fig8", "fig9", "tab1", "tab2", "tab3", "tab4", "tab5", "tab6", "tab7", "hac",
            "drowsy", "vp", "kernels", "sweep",
        ],
        about: "Figures 8/9, Tables 1-7, the Sections 6.7/6.4/6.8 extension analyses \
                (hac drowsy vp), the VM-executed kernels cross-check, and the \
                victim-size / cold-start / L2 B-Cache sweep",
        flags: EXPERIMENT_FLAGS,
        ignored: &[CSV, METRICS, TRACE_EVENTS, CHECKPOINT, RESUME],
    },
    Command {
        names: &["stats"],
        about: "set-pressure report over the eight golden benchmarks: per-set usage \
                histograms (DM vs B-Cache MF8-BAS8) and PD churn rates",
        flags: EXPERIMENT_FLAGS,
        ignored: &[CSV, TRACE_EVENTS, CHECKPOINT, RESUME],
    },
    Command {
        names: &["run"],
        about: "telemetry replay of one benchmark across the reference models: phase \
                wall times, per-model counters, set-pressure histograms, PD activity",
        flags: RUN_FLAGS,
        ignored: &[],
    },
    Command {
        names: &["fuzz"],
        about: "differential property-fuzz of every cache model against its oracle; \
                exits non-zero with a shrunk repro on any divergence",
        flags: FUZZ_FLAGS,
        ignored: &[TRACE_EVENTS],
    },
    Command {
        names: &["oracle"],
        about: "simulated vs closed-form miss rates on the synthetic IRM families; \
                exits non-zero if any cell leaves its band",
        flags: ORACLE_FLAGS,
        ignored: &[TRACE_EVENTS],
    },
    Command {
        names: &["bench"],
        about: "simulator throughput rows (BENCH_repro.json); --smoke fails if a model \
                drops below half its --baseline row",
        flags: BENCH_FLAGS,
        ignored: &[TRACE_EVENTS],
    },
    Command {
        names: &["profile"],
        about: "windowed time series (PREFIX.jsonl, PREFIX.csv), Perfetto spans \
                (PREFIX.trace.json) and phase attribution of one model on one \
                benchmark; --smoke fails if windowing costs >5%",
        flags: PROFILE_FLAGS,
        ignored: &[TRACE_EVENTS],
    },
    Command {
        names: &["serve"],
        about: "multi-tenant simulation server (line-delimited JSON over TCP); \
                --smoke runs the CI battery",
        flags: SERVE_FLAGS,
        ignored: &[METRICS, TRACE_EVENTS],
    },
    Command {
        names: &["loadgen"],
        about: "saturation client for serve: jobs/s and latency percentiles",
        flags: LOADGEN_FLAGS,
        ignored: &[METRICS, TRACE_EVENTS],
    },
];

/// The command named `name`, if any.
pub fn command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.names.contains(&name))
}

impl Command {
    /// Every flag this command accepts, in table order.
    pub(crate) fn all_flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|g| g.iter())
    }

    /// Parses `args` against this command's flags. Flags the command
    /// ignores are dropped from the result and returned by name, for
    /// the caller to warn about.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending flag for an unknown flag,
    /// a missing value, or a value of the wrong kind.
    pub fn parse<S: AsRef<str>>(&self, args: &[S]) -> Result<(Args, Vec<&'static str>), String> {
        let mut args = parse(self.flags, args)?;
        let mut ignored = Vec::new();
        for flag in self.ignored {
            if args.has(flag) {
                ignored.push(flag.name);
                args.given.retain(|(name, _)| *name != flag.name);
            }
        }
        Ok((args, ignored))
    }

    fn ignores(&self, flag: &Flag) -> bool {
        self.ignored.iter().any(|f| f.name == flag.name)
    }

    fn usage(&self) -> String {
        let synopsis = self
            .all_flags()
            .filter(|f| !self.ignores(f))
            .map(|f| match f.kind {
                Kind::Switch => format!("[{}]", f.name),
                kind => format!("[{} {}]", f.name, placeholder(kind)),
            });
        let mut text = fill(
            "bcache-repro",
            std::iter::once(self.names.join("|")).chain(synopsis),
        );
        text.push_str(&fill(
            "   ",
            self.about.split_whitespace().map(String::from),
        ));
        if !self.ignored.is_empty() {
            let names = self.ignored.iter().map(|f| f.name.to_string());
            text.push_str(&fill("    ignored with a warning:", names));
        }
        text
    }
}

/// Fills `words` into lines of at most 78 columns: the first line
/// starts with `first`, the rest are indented by four spaces.
fn fill(first: &str, words: impl IntoIterator<Item = String>) -> String {
    let mut text = String::new();
    let mut line = first.to_string();
    for word in words {
        if line.len() + 1 + word.len() > 78 && !line.trim().is_empty() {
            text.push_str(&line);
            text.push('\n');
            line = "   ".into();
        }
        line.push(' ');
        line.push_str(&word);
    }
    text + &line + "\n"
}

fn placeholder(kind: Kind) -> &'static str {
    match kind {
        Kind::Switch => "",
        Kind::Int | Kind::NonZero => "N",
        Kind::Text(name) => name,
        Kind::Side => "i|d",
    }
}

/// The usage text: the synopsis of `command` (of every command when
/// `command` names none), then the help line of each flag it lists.
pub fn usage(command: Option<&str>) -> String {
    let commands: Vec<&Command> = match command.and_then(self::command) {
        Some(cmd) => vec![cmd],
        None => COMMANDS.iter().collect(),
    };
    let mut text = String::from("usage: bcache-repro <command> [flags]\n\n");
    let mut flags: Vec<&Flag> = Vec::new();
    for cmd in &commands {
        text.push_str(&cmd.usage());
        for flag in cmd.all_flags() {
            if !flags.iter().any(|f| f.name == flag.name) {
                flags.push(flag);
            }
        }
    }
    text.push_str("\nflags:\n");
    for flag in flags {
        let head = format!("{} {}", flag.name, placeholder(flag.kind));
        text.push_str(&format!("  {head:<22} {}\n", flag.help));
    }
    text
}

/// A parsed flag value.
#[derive(Clone, Debug)]
enum Value {
    Switch,
    Int(u64),
    Text(String),
    Side(Side),
}

fn parse_value(flag: &Flag, raw: Option<&str>) -> Result<Value, String> {
    let name = flag.name;
    let int = || {
        raw.and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| format!("{name} needs an integer argument"))
    };
    Ok(match flag.kind {
        Kind::Switch => Value::Switch,
        Kind::Int => Value::Int(int()?),
        Kind::NonZero => match int()? {
            0 => return Err(format!("{name} must be at least 1")),
            v => Value::Int(v),
        },
        Kind::Text(placeholder) => Value::Text(
            raw.ok_or_else(|| format!("{name} needs a {placeholder} argument"))?
                .to_string(),
        ),
        Kind::Side => Value::Side(match raw {
            Some("i") | Some("instruction") => Side::Instruction,
            Some("d") | Some("data") => Side::Data,
            _ => return Err(format!("{name} needs 'i' or 'd'")),
        }),
    })
}

/// The flags given on one command line, with checked values. A flag
/// given twice keeps its last value.
#[derive(Clone, Debug)]
pub struct Args {
    given: Vec<(&'static str, Value)>,
}

/// Parses `args` against the flags in `groups`: each value-taking flag
/// consumes the next token whatever it looks like. Errors as
/// [`Command::parse`].
pub(crate) fn parse<S: AsRef<str>>(groups: &[&'static [Flag]], args: &[S]) -> Result<Args, String> {
    let mut given = Vec::new();
    let mut tokens = args.iter().map(AsRef::as_ref);
    while let Some(token) = tokens.next() {
        let flag = groups
            .iter()
            .flat_map(|g| g.iter())
            .find(|f| f.name == token)
            .ok_or_else(|| format!("unknown option: {token}"))?;
        let raw = match flag.kind {
            Kind::Switch => None,
            _ => tokens.next(),
        };
        given.push((flag.name, parse_value(flag, raw)?));
    }
    Ok(Args { given })
}

impl Args {
    fn last(&self, flag: &Flag) -> Option<&Value> {
        self.given
            .iter()
            .rev()
            .find(|(name, _)| *name == flag.name)
            .map(|(_, v)| v)
    }

    /// Whether `flag` was given.
    pub(crate) fn has(&self, flag: &Flag) -> bool {
        self.last(flag).is_some()
    }

    /// The value of an integer flag.
    pub(crate) fn int(&self, flag: &Flag) -> Option<u64> {
        match self.last(flag) {
            Some(Value::Int(v)) => Some(*v),
            _ => None,
        }
    }

    /// The value of an integer flag as a count, saturating where
    /// `usize` is narrower than `u64`.
    pub(crate) fn count(&self, flag: &Flag) -> Option<usize> {
        self.int(flag)
            .map(|v| usize::try_from(v).unwrap_or(usize::MAX))
    }

    /// The value of a text flag.
    pub(crate) fn text(&self, flag: &Flag) -> Option<String> {
        match self.last(flag) {
            Some(Value::Text(s)) => Some(s.clone()),
            _ => None,
        }
    }

    /// `--side`, if given.
    pub(crate) fn side(&self) -> Option<Side> {
        match self.last(&SIDE) {
            Some(Value::Side(side)) => Some(*side),
            _ => None,
        }
    }

    /// `--jobs`, defaulting to the available parallelism.
    pub(crate) fn jobs(&self) -> usize {
        self.count(&JOBS).unwrap_or_else(default_parallelism)
    }

    /// `--records` (default `default_records`), `--seed` and
    /// `--warmup` (default a tenth of the records) as a checked run
    /// length.
    ///
    /// # Errors
    ///
    /// As [`validate_len`].
    pub(crate) fn run_length(&self, default_records: u64) -> Result<RunLength, String> {
        let mut len = RunLength::with_records(self.int(&RECORDS).unwrap_or(default_records));
        if let Some(seed) = self.int(&SEED) {
            len.seed = seed;
        }
        if let Some(warmup) = self.int(&WARMUP) {
            len.warmup = warmup;
        }
        validate_len(len)?;
        Ok(len)
    }

    /// The checkpoint flags.
    pub fn setup(&self) -> EngineSetup {
        EngineSetup {
            checkpoint: self.text(&CHECKPOINT),
            resume: self.text(&RESUME),
        }
    }

    /// The telemetry output flags.
    pub fn telemetry(&self) -> TelemetryFlags {
        TelemetryFlags {
            metrics: self.text(&METRICS),
            trace_events: self.text(&TRACE_EVENTS),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_checks_its_value() {
        for cmd in COMMANDS {
            for flag in cmd.all_flags() {
                let name = flag.name;
                let fails = |args: &[&str]| {
                    let err = cmd.parse(args).expect_err(&format!("{args:?} parses"));
                    assert!(err.contains(name), "{args:?}: {err}");
                };
                match flag.kind {
                    Kind::Switch => {
                        let (a, ignored) = cmd.parse(&[name]).unwrap();
                        assert!(a.has(flag) != ignored.contains(&name), "{name}");
                    }
                    Kind::Int | Kind::NonZero => {
                        fails(&[name]);
                        fails(&[name, "many"]);
                        fails(&[name, "-1"]);
                        fails(&[name, "--metrics"]);
                        if flag.kind == Kind::NonZero {
                            fails(&[name, "0"]);
                        } else {
                            cmd.parse(&[name, "0"]).unwrap();
                        }
                    }
                    Kind::Side => {
                        fails(&[name]);
                        fails(&[name, "x"]);
                        fails(&[name, "--metrics"]);
                        for side in ["i", "instruction", "d", "data"] {
                            cmd.parse(&[name, side]).unwrap();
                        }
                    }
                    Kind::Text(_) => {
                        fails(&[name]);
                        // The value is `--metrics`, not a telemetry flag.
                        let (a, ignored) = cmd.parse(&[name, "--metrics"]).unwrap();
                        assert_eq!(a.given.len() + ignored.len(), 1, "{name}: {a:?}");
                        if ignored.is_empty() {
                            assert_eq!(a.text(flag).as_deref(), Some("--metrics"));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn each_flag_name_has_one_row() {
        let mut rows: Vec<&Flag> = Vec::new();
        for flag in COMMANDS.iter().flat_map(Command::all_flags) {
            match rows.iter().find(|f| f.name == flag.name) {
                Some(row) => assert_eq!(*row, flag),
                None => rows.push(flag),
            }
        }
        for cmd in COMMANDS {
            for flag in cmd.ignored {
                assert!(cmd.all_flags().any(|f| f == flag), "{}", flag.name);
            }
        }
    }

    #[test]
    fn usage_lists_every_row() {
        let all = usage(None);
        for cmd in COMMANDS {
            let own = usage(Some(cmd.names[0]));
            for text in [&all, &own] {
                for name in cmd.names {
                    assert!(text.contains(name), "{name}");
                }
                for flag in cmd.all_flags() {
                    assert!(text.contains(flag.name), "{}", flag.name);
                    assert!(text.contains(flag.help), "{}", flag.help);
                }
            }
        }
        assert_eq!(usage(Some("nonesuch")), all);
    }

    #[test]
    fn options_parsers_accept_every_row() {
        type Parser = fn(&[&str]) -> Result<(), String>;
        let parsers: [(&str, Parser); 9] = [
            ("stats", |a| crate::config::RunOptions::parse(a).map(drop)),
            ("run", |a| crate::runcmd::RunCmdOptions::parse(a).map(drop)),
            ("fuzz", |a| crate::fuzz::FuzzOptions::parse(a).map(drop)),
            ("oracle", |a| {
                crate::oraclecmd::OracleOptions::parse(a).map(drop)
            }),
            ("bench", |a| crate::bench::BenchOptions::parse(a).map(drop)),
            ("profile", |a| {
                crate::profilecmd::ProfileOptions::parse(a).map(drop)
            }),
            ("serve", |a| crate::serve::ServeOptions::parse(a).map(drop)),
            ("loadgen", |a| {
                crate::serve::LoadgenOptions::parse(a).map(drop)
            }),
            ("all", |a| crate::config::RunOptions::parse(a).map(drop)),
        ];
        for (name, parse) in parsers {
            let cmd = command(name).unwrap();
            for flag in cmd.all_flags() {
                let value = match flag.kind {
                    Kind::Switch => None,
                    Kind::Int | Kind::NonZero => Some("3"),
                    Kind::Side => Some("i"),
                    Kind::Text(_) => Some(match flag.name {
                        "--bench" | "--benchmark" => "gzip",
                        "--model" => "dm",
                        "--scenario" => "0",
                        _ => "x",
                    }),
                };
                let args: Vec<&str> = std::iter::once(flag.name).chain(value).collect();
                parse(&args).unwrap_or_else(|e| panic!("{name} {args:?}: {e}"));
            }
        }
    }

    #[test]
    fn ignored_flags_are_reported_and_dropped() {
        let stats = command("stats").unwrap();
        let (a, ignored) = stats
            .parse(&["--csv", "--trace-events", "e.jsonl", "--metrics", "m.json"])
            .unwrap();
        assert_eq!(ignored, ["--csv", "--trace-events"]);
        assert_eq!(a.telemetry().metrics.as_deref(), Some("m.json"));
        assert!(a.telemetry().trace_events.is_none());
        assert!(!a.has(&CSV));
        let (a, ignored) = command("fig8")
            .unwrap()
            .parse(&["--checkpoint", "c"])
            .unwrap();
        assert_eq!(ignored, ["--checkpoint"]);
        assert!(!a.setup().wants_checkpoint());
        let (a, ignored) = command("fig4").unwrap().parse(&["--resume", "c"]).unwrap();
        assert!(ignored.is_empty());
        assert!(a.setup().wants_checkpoint());
    }

    // The tests below replace the ones of the old telemetry-flag scan
    // (`TelemetryFlags::extract`), which ran before every subcommand
    // parser and had to know every value-taking flag.

    #[test]
    fn telemetry_flags_parse_among_the_command_flags() {
        let a = parse(
            RUN_FLAGS,
            &[
                "--records",
                "500",
                "--metrics",
                "m.json",
                "--jobs",
                "2",
                "--trace-events",
                "e.jsonl",
            ],
        )
        .unwrap();
        let t = a.telemetry();
        assert_eq!(t.metrics.as_deref(), Some("m.json"));
        assert_eq!(t.trace_events.as_deref(), Some("e.jsonl"));
        assert!(t.any());
        assert_eq!(a.int(&RECORDS), Some(500));
        assert_eq!(a.jobs(), 2);
        let a = parse(RUN_FLAGS, &["--records", "500"]).unwrap();
        assert!(!a.telemetry().any());
        assert_eq!(a.int(&RECORDS), Some(500));
        assert!(parse(RUN_FLAGS, &["--metrics"]).is_err());
        assert!(parse(RUN_FLAGS, &["--records", "5", "--trace-events"]).is_err());
    }

    #[test]
    fn double_dash_is_rejected() {
        // No subcommand takes positional arguments, so `--` is an
        // unknown option and nothing after it takes effect.
        for args in [
            &["--records", "500", "--", "--metrics", "m.json"][..],
            &["--metrics", "m.json", "--", "--trace-events", "e.jsonl"],
        ] {
            let err = parse(RUN_FLAGS, args).unwrap_err();
            assert_eq!(err, "unknown option: --");
        }
    }

    #[test]
    fn values_that_look_like_flags_stay_values() {
        let a = parse(
            PROFILE_FLAGS,
            &[
                "--model",
                "--metrics",
                "--benchmark",
                "--trace-events",
                "--window",
                "4096",
            ],
        )
        .unwrap();
        assert!(!a.telemetry().any());
        assert_eq!(a.text(&MODEL).as_deref(), Some("--metrics"));
        assert_eq!(a.text(&BENCHMARK).as_deref(), Some("--trace-events"));
        assert_eq!(a.int(&WINDOW), Some(4096));
        let err = parse(RUN_FLAGS, &["--event-ring-cap", "--metrics"]).unwrap_err();
        assert!(err.contains("--event-ring-cap"), "{err}");

        let a = parse(PROFILE_FLAGS, &["--out", "--metrics", "--jobs", "2"]).unwrap();
        assert!(!a.telemetry().any());
        assert_eq!(a.text(&OUT).as_deref(), Some("--metrics"));
        assert_eq!(a.jobs(), 2);
        let a = parse(
            SERVE_FLAGS,
            &[
                "--addr",
                "--trace-events",
                "--checkpoint",
                "--metrics",
                "--metrics",
                "m.json",
            ],
        )
        .unwrap();
        assert_eq!(a.telemetry().metrics.as_deref(), Some("m.json"));
        assert!(a.telemetry().trace_events.is_none());
        assert_eq!(a.text(&ADDR).as_deref(), Some("--trace-events"));
        assert_eq!(a.text(&CHECKPOINT).as_deref(), Some("--metrics"));

        let a = parse(
            ORACLE_FLAGS,
            &["--smoke", "--metrics", "m.json", "--csv", "--seed", "7"],
        )
        .unwrap();
        assert_eq!(a.telemetry().metrics.as_deref(), Some("m.json"));
        assert!(a.has(&SMOKE) && a.has(&CSV));
        assert_eq!(a.int(&SEED), Some(7));
        let a = parse(FUZZ_FLAGS, &["--scenario", "--metrics", "--iters", "50"]).unwrap();
        assert!(!a.telemetry().any());
        assert_eq!(a.text(&SCENARIO).as_deref(), Some("--metrics"));
        assert_eq!(a.int(&ITERS), Some(50));
    }

    #[test]
    fn repeated_flags_keep_the_last_value() {
        let a = parse(
            EXPERIMENT_FLAGS,
            &[
                "--seed",
                "9",
                "--records",
                "100",
                "--seed",
                "4",
                "--checkpoint",
                "a",
                "--checkpoint",
                "b",
            ],
        )
        .unwrap();
        let len = a.run_length(7).unwrap();
        assert_eq!((len.records, len.warmup, len.seed), (100, 10, 4));
        assert_eq!(a.setup().checkpoint.as_deref(), Some("b"));
    }
}

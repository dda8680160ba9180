//! Simulator micro-benchmarks behind the `bcache-repro bench`
//! subcommand: raw model throughput at a pinned record count, written to
//! `BENCH_repro.json`, regenerated when a change targets kernel speed.
//!
//! The measured stream is a deterministic LCG address pattern (hits and
//! conflicts, one store per four references) replayed through each
//! model's [`CacheModel::access_batch`] hot path — the same path
//! [`SideTrace`](crate::run::SideTrace) replay uses. Each row records
//! mega-accesses per second:
//!
//! ```json
//! {"model": "direct-mapped", "maccesses_per_sec": 123.456,
//!  "records": 1000000, "seed": 42, "git_rev": "abc1234"}
//! ```
//!
//! `BENCH_baseline.json` (committed) holds the pre-optimization numbers;
//! `bench --smoke` re-measures at a reduced record count and fails if
//! any model's throughput drops below the regression threshold relative
//! to that file, which is what CI runs.

use std::fmt::Write as _;
use std::time::Instant;

use cache_sim::{AccessKind, Addr, CacheModel};

use crate::cli;
use crate::config::{self, CacheConfig};

/// Record count of a full `bench` run.
pub const DEFAULT_RECORDS: u64 = 1_000_000;

/// Record count of a `bench --smoke` run (CI).
pub const SMOKE_RECORDS: u64 = 200_000;

/// Default stream seed.
pub const DEFAULT_SEED: u64 = 42;

/// The `--smoke` regression floor for one model: half its committed
/// baseline throughput.
///
/// The CI box is a single noisy vCPU where back-to-back runs of an
/// unchanged binary swing by up to ±2× (see ROADMAP), so any tighter
/// floor flakes and any per-row hand-tuned constant silently encodes
/// one lucky measurement. Every row uses this one rule; a genuine
/// regression has to eat the entire documented noise band to slip
/// through, and the full `bench` history in BENCH_repro.json catches
/// slower drift.
pub fn smoke_floor(baseline_maccesses: f64) -> f64 {
    baseline_maccesses / 2.0
}

/// The benchmarked models: the whole fleet, one row per model, so
/// `BENCH_repro.json` tracks every batched kernel: the rows of
/// [`config::MODELS`], under their names.
pub fn model_set() -> Vec<(&'static str, CacheConfig)> {
    config::MODELS
        .iter()
        .map(|&(name, _, _, config)| (name, config))
        .collect()
}

/// Options of the `bench` subcommand.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchOptions {
    /// Accesses per timed pass (pinned so runs are comparable).
    pub records: u64,
    /// Address-stream seed.
    pub seed: u64,
    /// Output file.
    pub out: String,
    /// Committed baseline file for the `--smoke` regression gate.
    pub baseline: String,
    /// Reduced-length run that enforces the baseline gate (CI).
    pub smoke: bool,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            records: DEFAULT_RECORDS,
            seed: DEFAULT_SEED,
            out: "BENCH_repro.json".into(),
            baseline: "BENCH_baseline.json".into(),
            smoke: false,
        }
    }
}

impl BenchOptions {
    /// Parses the option tail after `bench`. Unknown or malformed
    /// options return an error naming the offender.
    pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<BenchOptions, String> {
        let a = cli::parse(cli::BENCH_FLAGS, args)?;
        let d = BenchOptions::default();
        let smoke = a.has(&cli::SMOKE);
        let records = if smoke { SMOKE_RECORDS } else { d.records };
        Ok(BenchOptions {
            records: a.int(&cli::RECORDS).unwrap_or(records),
            seed: a.int(&cli::SEED).unwrap_or(d.seed),
            out: a.text(&cli::OUT).unwrap_or(d.out),
            baseline: a.text(&cli::BASELINE).unwrap_or(d.baseline),
            smoke,
        })
    }
}

/// One model's measured throughput.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRow {
    /// Model name (`model_set` key).
    pub model: String,
    /// Mega-accesses per second, best of three timed passes.
    pub maccesses_per_sec: f64,
    /// Accesses per timed pass.
    pub records: u64,
    /// Address-stream seed.
    pub seed: u64,
    /// `git rev-parse --short HEAD` at measurement time.
    pub git_rev: String,
}

/// The deterministic benchmark stream: LCG addresses over a 1 MB
/// footprint (the Criterion `simulator` bench's pattern) with one store
/// per four references.
pub fn access_stream(records: u64, seed: u64) -> Vec<(Addr, AccessKind)> {
    let mut x = seed ^ 0x1234_5678;
    (0..records)
        .map(|i| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = Addr::new((x >> 16) % (1 << 20));
            let kind = if i % 4 == 3 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            (addr, kind)
        })
        .collect()
}

/// Best-of-three wall-clock throughput of one model over `accesses`, in
/// mega-accesses per second. One untimed warm pass populates the cache
/// so every timed pass sees the same steady state.
fn measure(model: &mut Box<dyn CacheModel>, accesses: &[(Addr, AccessKind)]) -> f64 {
    model.access_batch(accesses);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        model.access_batch(accesses);
        best = best.min(start.elapsed().as_secs_f64());
    }
    std::hint::black_box(model.stats().total().accesses());
    accesses.len() as f64 / best / 1e6
}

/// Runs the micro-benchmarks and returns one row per model.
///
/// # Errors
///
/// Returns a message when a benchmark cache configuration cannot be
/// constructed (a build defect in the fixed 16 kB model set).
pub fn run(opts: &BenchOptions) -> Result<Vec<BenchRow>, String> {
    run_recorded(opts, &mut telemetry::Recorder::new())
}

/// Extra row measuring the engine's dispatch overhead: the same stream
/// sharded into four direct-mapped jobs on an
/// [`Engine`](crate::parallel::Engine), so the cost of threads,
/// `catch_unwind` and result slots is a tracked number rather than a
/// hope.
pub const ENGINE_ROW: &str = "dm-engine-4shard";

/// Best-of-three throughput of [`ENGINE_ROW`]: four chunks of the
/// stream, each replayed through its own direct-mapped model inside an
/// engine job (the shards are independent caches — this measures
/// dispatch, not cache behavior).
fn measure_engine_dispatch(accesses: &[(Addr, AccessKind)], seed: u64) -> Result<f64, String> {
    let engine = crate::parallel::Engine::new(4);
    let chunk = accesses.len().div_ceil(4).max(1);
    let pass = |engine: &crate::parallel::Engine| -> Result<(), String> {
        let jobs: Vec<_> = accesses
            .chunks(chunk)
            .map(|shard| {
                move || -> Result<u64, String> {
                    let mut dm = CacheConfig::DirectMapped
                        .build(16 * 1024, seed)
                        .map_err(|e| format!("bench direct-mapped config at 16 kB: {e}"))?;
                    dm.access_batch(shard);
                    Ok(std::hint::black_box(dm.stats().total().misses()))
                }
            })
            .collect();
        for shard in engine.run(jobs) {
            std::hint::black_box(shard?);
        }
        Ok(())
    };
    pass(&engine)?;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        pass(&engine)?;
        best = best.min(start.elapsed().as_secs_f64());
    }
    Ok(accesses.len() as f64 / best / 1e6)
}

/// [`run`] with per-phase telemetry: stream-generation and per-model
/// measurement wall-time spans land in `rec`'s `timing` section, and
/// the run shape (records, model count) in its counters. The timed
/// passes themselves are untouched — the spans wrap them from outside.
pub fn run_recorded(
    opts: &BenchOptions,
    rec: &mut telemetry::Recorder,
) -> Result<Vec<BenchRow>, String> {
    let accesses = rec.time("phase.stream_gen", || {
        access_stream(opts.records, opts.seed)
    });
    let git_rev = git_rev();
    rec.counter("bench.records", opts.records);
    let mut rows: Vec<BenchRow> = Vec::new();
    for (name, config) in model_set() {
        let mut model = config
            .build(16 * 1024, opts.seed)
            .map_err(|e| format!("bench model {name} at 16 kB: {e}"))?;
        let maccesses_per_sec = rec.time(&format!("phase.measure.{name}"), || {
            measure(&mut model, &accesses)
        });
        rows.push(BenchRow {
            model: name.to_string(),
            maccesses_per_sec,
            records: opts.records,
            seed: opts.seed,
            git_rev: git_rev.clone(),
        });
    }
    let engine_dispatch = rec.time(&format!("phase.measure.{ENGINE_ROW}"), || {
        measure_engine_dispatch(&accesses, opts.seed)
    })?;
    rows.push(BenchRow {
        model: ENGINE_ROW.to_string(),
        maccesses_per_sec: engine_dispatch,
        records: opts.records,
        seed: opts.seed,
        git_rev,
    });
    rec.counter("bench.models", rows.len() as u64);
    Ok(rows)
}

/// The short git revision of `HEAD`, suffixed `-dirty` when tracked
/// files differ from it (the measured code is not that commit's), or
/// `"unknown"` outside a work tree.
pub fn git_rev() -> String {
    // `--exclude=*` matches no tag, so the name is always the hash.
    std::process::Command::new("git")
        .args([
            "describe",
            "--always",
            "--dirty",
            "--abbrev=7",
            "--exclude=*",
        ])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Renders rows as the `BENCH_*.json` array (the format
/// [`parse_rows`] reads back).
pub fn render_json(rows: &[BenchRow]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        writeln!(
            out,
            "  {{\"model\": \"{}\", \"maccesses_per_sec\": {:.3}, \"records\": {}, \"seed\": {}, \"git_rev\": \"{}\"}}{comma}",
            r.model, r.maccesses_per_sec, r.records, r.seed, r.git_rev
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("]\n");
    out
}

/// Parses a `BENCH_*.json` file written by [`render_json`].
///
/// This is a minimal reader for exactly that subset of JSON (an array
/// of flat objects whose strings contain no escapes), not a general
/// parser — the workspace is offline and carries no serde.
pub fn parse_rows(text: &str) -> Result<Vec<BenchRow>, String> {
    let body = text.trim();
    if !body.starts_with('[') || !body.ends_with(']') {
        return Err("expected a top-level JSON array".into());
    }
    let mut rows = Vec::new();
    let mut rest = &body[1..body.len() - 1];
    while let Some(start) = rest.find('{') {
        let end = rest[start..].find('}').ok_or("unterminated row object")? + start;
        rows.push(parse_row(&rest[start + 1..end])?);
        rest = &rest[end + 1..];
    }
    Ok(rows)
}

/// Parses one row's `"key": value` pairs (fields may appear in any
/// order; all five are required).
fn parse_row(fields: &str) -> Result<BenchRow, String> {
    let mut model = None;
    let mut maccesses = None;
    let mut records = None;
    let mut seed = None;
    let mut git_rev = None;
    for field in fields.split(',') {
        let (key, value) = field
            .split_once(':')
            .ok_or_else(|| format!("malformed field: {field:?}"))?;
        let key = key.trim().trim_matches('"');
        let value = value.trim();
        match key {
            "model" => model = Some(value.trim_matches('"').to_string()),
            "git_rev" => git_rev = Some(value.trim_matches('"').to_string()),
            "maccesses_per_sec" => {
                maccesses = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad number for maccesses_per_sec: {value:?}"))?,
                )
            }
            "records" => {
                records = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad number for records: {value:?}"))?,
                )
            }
            "seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad number for seed: {value:?}"))?,
                )
            }
            other => return Err(format!("unknown field: {other:?}")),
        }
    }
    Ok(BenchRow {
        model: model.ok_or("row is missing \"model\"")?,
        maccesses_per_sec: maccesses.ok_or("row is missing \"maccesses_per_sec\"")?,
        records: records.ok_or("row is missing \"records\"")?,
        seed: seed.ok_or("row is missing \"seed\"")?,
        git_rev: git_rev.ok_or("row is missing \"git_rev\"")?,
    })
}

/// The `--smoke` regression gate: every model present in both this run
/// and the committed baseline must stay above its [`smoke_floor`]
/// (half the baseline — the 1-vCPU ±2× noise band). Models the
/// baseline has never measured pass (they gain a baseline row on the
/// next refresh). Returns a human-readable per-model verdict on
/// success.
pub fn check_against_baseline(rows: &[BenchRow], baseline_text: &str) -> Result<String, String> {
    let baseline = parse_rows(baseline_text)?;
    if !rows.iter().any(|r| r.model == "direct-mapped") {
        return Err("this run has no direct-mapped row".into());
    }
    if !baseline.iter().any(|r| r.model == "direct-mapped") {
        return Err("the baseline file has no direct-mapped row".into());
    }
    let mut verdict = String::new();
    let mut failures = String::new();
    let mut gated = 0usize;
    for r in rows {
        let Some(then) = baseline
            .iter()
            .find(|b| b.model == r.model)
            .map(|b| b.maccesses_per_sec)
        else {
            continue; // new model: no baseline to regress against yet
        };
        gated += 1;
        let now = r.maccesses_per_sec;
        if now < smoke_floor(then) {
            let _ = writeln!(
                failures,
                "{} throughput regressed: {now:.1} MAcc/s vs baseline {then:.1} (floor {:.1})",
                r.model,
                smoke_floor(then)
            );
        } else {
            let _ = writeln!(
                verdict,
                "{} throughput {now:.1} MAcc/s vs committed baseline {then:.1} ({:+.1}%)",
                r.model,
                (now / then - 1.0) * 100.0
            );
        }
    }
    if !failures.is_empty() {
        return Err(failures.trim_end().to_string());
    }
    if gated == 0 {
        return Err("no model appears in both this run and the baseline file".into());
    }
    Ok(verdict.trim_end().to_string())
}

/// Renders the human-readable result table printed alongside the JSON.
pub fn render_table(rows: &[BenchRow]) -> String {
    let mut out = String::from("model              MAccesses/s\n");
    for r in rows {
        writeln!(out, "{:<18} {:>11.1}", r.model, r.maccesses_per_sec)
            .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows() -> Vec<BenchRow> {
        vec![
            BenchRow {
                model: "direct-mapped".into(),
                maccesses_per_sec: 120.5,
                records: 1_000_000,
                seed: 42,
                git_rev: "abc1234".into(),
            },
            BenchRow {
                model: "bcache-mf8-bas8".into(),
                maccesses_per_sec: 80.25,
                records: 1_000_000,
                seed: 42,
                git_rev: "abc1234".into(),
            },
        ]
    }

    #[test]
    fn json_round_trips_through_the_mini_parser() {
        let rows = sample_rows();
        let parsed = parse_rows(&render_json(&rows)).unwrap();
        assert_eq!(parsed.len(), rows.len());
        for (p, r) in parsed.iter().zip(&rows) {
            assert_eq!(p.model, r.model);
            assert_eq!(p.records, r.records);
            assert_eq!(p.seed, r.seed);
            assert_eq!(p.git_rev, r.git_rev);
            assert!((p.maccesses_per_sec - r.maccesses_per_sec).abs() < 1e-3);
        }
    }

    #[test]
    fn schema_requires_all_five_fields() {
        assert!(parse_rows("[\n  {\"model\": \"dm\", \"records\": 5}\n]").is_err());
        assert!(parse_rows("not json").is_err());
        assert!(parse_rows("[]").unwrap().is_empty());
        let err = parse_rows("[{\"model\": \"dm\", \"maccesses_per_sec\": \"fast\"}]");
        assert!(err.is_err());
    }

    #[test]
    fn committed_bench_files_satisfy_the_schema() {
        // Both artifacts live at the repo root; every row must carry the
        // full five-field schema and a sane throughput.
        for name in ["BENCH_baseline.json", "BENCH_repro.json"] {
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../..").to_string() + "/" + name;
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue; // not yet generated in this checkout
            };
            let rows = parse_rows(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!rows.is_empty(), "{name} has no rows");
            assert!(
                rows.iter().any(|r| r.model == "direct-mapped"),
                "{name} lacks the direct-mapped gate row"
            );
            for r in &rows {
                assert!(r.maccesses_per_sec > 0.0, "{name}: {} throughput", r.model);
                assert!(
                    r.records > 0 && !r.git_rev.is_empty(),
                    "{name}: {}",
                    r.model
                );
            }
        }
    }

    #[test]
    fn options_parse_and_reject() {
        let o =
            BenchOptions::parse(&["--records", "5000", "--seed", "9", "--out", "x.json"]).unwrap();
        assert_eq!(o.records, 5_000);
        assert_eq!(o.seed, 9);
        assert_eq!(o.out, "x.json");
        assert!(!o.smoke);
        let o = BenchOptions::parse(&["--smoke"]).unwrap();
        assert_eq!(o.records, SMOKE_RECORDS);
        assert!(o.smoke);
        let o = BenchOptions::parse(&["--smoke", "--records", "77"]).unwrap();
        assert_eq!(o.records, 77, "--records overrides the smoke default");
        assert!(BenchOptions::parse(&["--records", "0"]).is_err());
        assert!(BenchOptions::parse(&["--frobnicate"]).is_err());
        assert!(BenchOptions::parse(&["--out"]).is_err());
    }

    #[test]
    fn stream_is_deterministic_and_mixed() {
        let a = access_stream(10_000, 42);
        assert_eq!(a, access_stream(10_000, 42));
        assert_ne!(a, access_stream(10_000, 43));
        let writes = a.iter().filter(|(_, k)| k.is_write()).count();
        assert_eq!(writes, 2_500, "one store per four references");
        assert!(a.iter().all(|(addr, _)| addr.raw() < (1 << 20)));
    }

    #[test]
    fn run_produces_a_row_per_model_with_positive_throughput() {
        let opts = BenchOptions {
            records: 2_000,
            ..BenchOptions::default()
        };
        let rows = run(&opts).unwrap();
        assert_eq!(rows.len(), model_set().len() + 1, "models + engine row");
        for r in &rows {
            assert!(r.maccesses_per_sec > 0.0, "{}", r.model);
            assert_eq!(r.records, 2_000);
        }
        assert!(rows.iter().any(|r| r.model == ENGINE_ROW));
        assert!(render_table(&rows).contains("direct-mapped"));
    }

    #[test]
    fn recorded_run_captures_phase_spans() {
        let opts = BenchOptions {
            records: 1_000,
            ..BenchOptions::default()
        };
        let mut rec = telemetry::Recorder::new();
        let rows = run_recorded(&opts, &mut rec).unwrap();
        assert_eq!(rows.len(), model_set().len() + 1);
        assert_eq!(rec.counter_value("bench.models"), rows.len() as u64);
        assert_eq!(rec.counter_value("bench.records"), 1_000);
        assert_eq!(rec.timing("phase.stream_gen").unwrap().count, 1);
        assert_eq!(rec.timing("phase.measure.direct-mapped").unwrap().count, 1);
        assert_eq!(
            rec.timing(&format!("phase.measure.{ENGINE_ROW}"))
                .unwrap()
                .count,
            1
        );
    }

    #[test]
    fn smoke_floor_is_half_the_baseline() {
        // One rule for every row: the documented 1-vCPU ±2× noise band.
        assert_eq!(smoke_floor(120.5), 60.25);
        assert_eq!(smoke_floor(1.0), 0.5);
        assert_eq!(smoke_floor(0.0), 0.0);
    }

    #[test]
    fn baseline_gate_passes_and_fails_correctly() {
        let rows = sample_rows();
        let baseline = render_json(&sample_rows());
        assert!(check_against_baseline(&rows, &baseline).is_ok());
        let mut slow = sample_rows();
        slow[0].maccesses_per_sec = 120.5 * 0.4;
        let err = check_against_baseline(&slow, &baseline).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
        assert!(err.contains("floor"), "{err}");
        // Sitting exactly on the floor passes: the gate is strict-less.
        let mut edge = sample_rows();
        edge[0].maccesses_per_sec = smoke_floor(120.5);
        assert!(check_against_baseline(&edge, &baseline).is_ok());
        // A dip inside the noise band stays green.
        let mut dip = sample_rows();
        dip[0].maccesses_per_sec = 120.5 * 0.6;
        assert!(check_against_baseline(&dip, &baseline).is_ok());
    }

    #[test]
    fn baseline_gate_covers_every_model() {
        // A regression in any model fails the gate, not just direct-mapped.
        let baseline = render_json(&sample_rows());
        let mut slow = sample_rows();
        slow[1].maccesses_per_sec = 80.25 * 0.4;
        let err = check_against_baseline(&slow, &baseline).unwrap_err();
        assert!(err.contains("bcache-mf8-bas8"), "{err}");
        assert!(err.contains("regressed"), "{err}");
        // Models absent from the baseline pass (no number to regress from).
        let mut extra = sample_rows();
        extra.push(BenchRow {
            model: "brand-new".into(),
            maccesses_per_sec: 0.001,
            records: 1_000_000,
            seed: 42,
            git_rev: "abc1234".into(),
        });
        let ok = check_against_baseline(&extra, &baseline).unwrap();
        assert!(!ok.contains("brand-new"), "{ok}");
        assert!(ok.contains("direct-mapped"), "{ok}");
        // But both sides still need the direct-mapped anchor row.
        let headless: Vec<BenchRow> = sample_rows().into_iter().skip(1).collect();
        assert!(check_against_baseline(&headless, &baseline).is_err());
    }
}

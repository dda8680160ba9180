//! The `bcache-bench` command line.
//!
//! ```text
//! bcache-bench run [--workload W] [--seed S] [--seconds N] [--trace 0|1]
//!                  [--scale full|smoke] [--out DIR]
//! bcache-bench compare A B
//! bcache-bench bless
//! ```
//!
//! `run` without `--workload` runs every workload, each in a child
//! process of its own so `peak_rss_mb` covers one workload. A single
//! workload writes `<out>/<workload>-s<seed>[-traced].json` (and, when
//! traced, `<out>/<workload>-s<seed>.trace.json` for ui.perfetto.dev),
//! prints its report, and ends its output with the one-line result.

use std::path::{Path, PathBuf};
use std::process::Command;

use telemetry::chrome_trace_json;

use crate::golden::{self, Entry, PINNED_SEEDS};
use crate::report::{compare, Report};
use crate::sim::{self, Ctx};
use crate::trace::{Tracer, MAIN_TID};
use crate::{serve_open, Scale, Workload};

/// Seconds of measurement when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 15.0;

/// Where reports go when `--out` is not given.
pub const DEFAULT_OUT: &str = "target/bench";

const USAGE: &str = "usage: bcache-bench run [--workload W] [--seed S] [--seconds N] \
                     [--trace 0|1] [--scale full|smoke] [--out DIR]\n       \
                     bcache-bench compare A B   (each a report file or a directory of them)\n       \
                     bcache-bench bless";

/// Runs the command; returns the process exit code.
pub fn main(args: Vec<String>) -> i32 {
    let result = match args.first().map(String::as_str) {
        Some("run") => run_cmd(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        Some("bless") => bless_cmd(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bcache-bench: {e}");
            2
        }
    }
}

/// Options of `run`.
#[derive(Clone, Debug, PartialEq)]
struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    out: PathBuf,
}

fn value(args: &[String], i: usize) -> Result<&str, String> {
    args.get(i + 1)
        .map(String::as_str)
        .ok_or_else(|| format!("{} needs a value", args[i]))
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        scale: Scale::Full,
        out: PathBuf::from(DEFAULT_OUT),
    };
    let mut i = 0;
    while i < args.len() {
        let v = value(args, i)?;
        match args[i].as_str() {
            "--workload" => a.workload = Some(Workload::parse(v)?),
            "--seed" => {
                a.seed = v
                    .parse()
                    .map_err(|_| format!("--seed wants an integer, got {v:?}"))?
            }
            "--seconds" => {
                a.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("--seconds wants a number in (0, 3600], got {v:?}"))?
            }
            "--trace" => {
                a.trace = match v {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {v:?}")),
                }
            }
            "--scale" => a.scale = Scale::parse(v)?,
            "--out" => a.out = PathBuf::from(v),
            other => return Err(format!("unknown option {other:?}\n{USAGE}")),
        }
        i += 2;
    }
    Ok(a)
}

fn run_cmd(args: &[String]) -> Result<i32, String> {
    let a = parse_run(args)?;
    match a.workload {
        Some(w) => run_one(w, &a),
        None => run_all(&a),
    }
}

fn report_path(a: &RunArgs, w: Workload) -> PathBuf {
    let traced = if a.trace { "-traced" } else { "" };
    a.out.join(format!("{}-s{}{traced}.json", w.name(), a.seed))
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_one(w: Workload, a: &RunArgs) -> Result<i32, String> {
    let pinned = golden::load(&golden::default_dir())?;
    let ctx = Ctx {
        workload: w,
        seed: a.seed,
        seconds: a.seconds,
        scale: a.scale,
        golden: golden::lookup(&pinned, w, a.scale, a.seed),
    };
    let tracer = a.trace.then(Tracer::new);
    let outcome = match w {
        Workload::ServeOpen => serve_open::run(&ctx, tracer.as_ref()),
        _ => sim::run(&ctx, tracer.as_ref()),
    }?;
    let report = Report::new(w.name(), a.seed, a.scale.name(), a.trace, outcome);
    write(&report_path(a, w), &report.to_json())?;
    if let Some(t) = &tracer {
        let mut lanes = vec![
            (MAIN_TID, "bcache-bench".to_string()),
            (0, "engine run + watchdog".to_string()),
        ];
        lanes.extend((1..=sim::ENGINE_WORKERS as u64).map(|k| (k, format!("engine worker {k}"))));
        let json = chrome_trace_json(&t.snapshot(), &format!("bcache-bench {}", w.name()), &lanes);
        write(
            &a.out.join(format!("{}-s{}.trace.json", w.name(), a.seed)),
            &json,
        )?;
    }
    print!("{}", report.render());
    println!("{}", report.result_line());
    Ok(if report.correct { 0 } else { 1 })
}

/// Runs every workload in a child process of its own and sums up.
fn run_all(a: &RunArgs) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut code = 0;
    let mut reports = Vec::new();
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(["run", "--workload", w.name()])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .args(["--scale", a.scale.name()])
            .arg("--out")
            .arg(&a.out)
            .status()
            .map_err(|e| format!("cannot run the {} child: {e}", w.name()))?;
        if !status.success() {
            code = 1;
            eprintln!("bcache-bench: {} exited with {status}", w.name());
            continue;
        }
        let path = report_path(a, w);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        reports.push(Report::from_json(&text)?);
    }
    let metrics: Vec<String> = reports
        .iter()
        .flat_map(|r| {
            r.headline().iter().map(move |v| {
                format!(
                    "\"{}.{}\": {{\"value\": {}, \"unit\": {}}}",
                    r.workload,
                    v.name,
                    crate::json::number(v.value),
                    crate::json::string(&v.unit)
                )
            })
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        code == 0 && reports.iter().all(|r| r.correct),
        reports.iter().map(|r| r.attempted).sum::<u64>(),
        reports.iter().map(|r| r.failed).sum::<u64>(),
        metrics.join(", ")
    );
    Ok(code)
}

/// Reads the reports of `path`: one file, or every `.json` report in a
/// directory (Perfetto traces skipped).
fn load_reports(path: &Path) -> Result<Vec<Report>, String> {
    let files: Vec<PathBuf> = if path.is_dir() {
        let mut f: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                name.ends_with(".json") && !name.ends_with(".trace.json")
            })
            .collect();
        f.sort();
        f
    } else {
        vec![path.to_path_buf()]
    };
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            Report::from_json(&text).map_err(|e| format!("{}: {e}", f.display()))
        })
        .collect()
}

fn compare_cmd(args: &[String]) -> Result<i32, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let (ra, rb) = (load_reports(Path::new(a))?, load_reports(Path::new(b))?);
    if ra.is_empty() || rb.is_empty() {
        return Err("each side of compare needs at least one report".into());
    }
    let (table, regressed) = compare(&ra, &rb);
    print!("{table}");
    Ok(if regressed { 1 } else { 0 })
}

/// Re-pins the golden digests: every simulator workload, at both scales,
/// for the pinned seeds.
fn bless_cmd(args: &[String]) -> Result<i32, String> {
    if !args.is_empty() {
        return Err(USAGE.to_string());
    }
    let mut entries = Vec::new();
    for scale in [Scale::Full, Scale::Smoke] {
        for seed in PINNED_SEEDS {
            for w in Workload::ALL
                .into_iter()
                .filter(|w| *w != Workload::ServeOpen)
            {
                let ctx = Ctx {
                    workload: w,
                    seed,
                    seconds: 0.0,
                    scale,
                    golden: None,
                };
                let digest = sim::digest(&ctx)?;
                println!("{} {} {seed} {digest:016x}", w.name(), scale.name());
                entries.push(Entry {
                    workload: w.name().to_string(),
                    scale: scale.name().to_string(),
                    seed,
                    digest,
                });
            }
        }
    }
    entries.sort_by(|a, b| (&a.workload, &a.scale, a.seed).cmp(&(&b.workload, &b.scale, b.seed)));
    golden::store(&golden::default_dir(), &entries)?;
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn run_options_parse_and_reject() {
        let a = parse_run(&args(
            "--workload replay-hit --seed 7 --seconds 2.5 --trace 1 --scale smoke --out o",
        ))
        .unwrap();
        assert_eq!(a.workload, Some(Workload::ReplayHit));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, true));
        assert_eq!(a.scale, Scale::Smoke);
        assert_eq!(a.out, PathBuf::from("o"));
        let d = parse_run(&[]).unwrap();
        assert_eq!((d.workload, d.seed, d.trace), (None, 1, false));
        assert_eq!(d.seconds, DEFAULT_SECONDS);
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds nan",
            "--trace 2",
            "--scale huge",
            "--seed",
            "--frob 1",
            "--traced",
        ] {
            assert!(parse_run(&args(bad)).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn unknown_commands_exit_2() {
        assert_eq!(main(args("frobnicate")), 2);
        assert_eq!(main(Vec::new()), 2);
        assert_eq!(main(args("compare onlyone")), 2);
    }
}

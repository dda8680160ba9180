//! Smoke test of the benchmark: every workload at `--scale smoke`,
//! untraced and traced, against the metric table of `BENCHMARK.json`.
//!
//! Run with `cargo test --release --offline --manifest-path benchmark/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;

use bcache_benchmark::json::Json;
use bcache_benchmark::sim::{self, Ctx};
use bcache_benchmark::{end_to_end_metrics, golden, per_layer_metrics, Scale, Workload};

const BIN: &str = env!("CARGO_BIN_EXE_bcache-bench");

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// Runs one smoke-scale workload; returns the exit code and the parsed
/// last line of standard output.
fn run(workload: &str, trace: bool, out: &Path) -> (i32, Json) {
    let output = Command::new(BIN)
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "0.3",
        ])
        .args(["--scale", "smoke", "--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let line = Json::parse(last).unwrap_or_else(|e| {
        panic!(
            "{workload}: last line is not JSON ({e}):\n{stdout}\n{}",
            String::from_utf8_lossy(&output.stderr)
        )
    });
    (output.status.code().unwrap_or(-1), line)
}

/// Every `(name, unit)` pair of a `BENCHMARK.json` metric list.
fn listed(bench: &Json, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

/// Checks that a Perfetto trace parses, has the required fields on every
/// complete event, and that every span lies inside its parent.
fn check_perfetto(path: &Path) {
    let text = std::fs::read_to_string(path).expect("traced run writes a Perfetto trace");
    let trace = Json::parse(&text).expect("the trace is valid JSON");
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    let spans: Vec<(u64, Option<u64>, f64, f64)> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .map(|e| {
            for field in ["pid", "tid", "ts", "dur", "name"] {
                assert!(
                    e.get(field).is_some(),
                    "{}: event lacks {field}",
                    path.display()
                );
            }
            let args = e.get("args").expect("span args");
            let num = |v: &Json, k: &str| v.get(k).and_then(Json::as_f64).expect("number");
            (
                args.get("id").and_then(Json::as_u64).expect("span id"),
                args.get("parent").and_then(Json::as_u64),
                num(e, "ts"),
                num(e, "ts") + num(e, "dur"),
            )
        })
        .collect();
    assert!(!spans.is_empty(), "{}: no spans", path.display());
    let mut with_parent = 0;
    for (id, parent, start, end) in &spans {
        let Some(p) = parent else { continue };
        with_parent += 1;
        let (_, _, ps, pe) = spans
            .iter()
            .find(|s| s.0 == *p)
            .unwrap_or_else(|| panic!("span {id} names a missing parent {p}"));
        // Timestamps carry nanoseconds as three decimals of µs.
        assert!(
            *start >= ps - 0.002 && *end <= pe + 0.002,
            "{}: span {id} [{start}, {end}] escapes parent {p} [{ps}, {pe}]",
            path.display()
        );
    }
    assert!(with_parent > 0, "{}: no nested spans", path.display());
}

#[test]
fn benchmark_json_matches_the_runner() {
    let bench = benchmark_json();
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            let why = w.get("why").and_then(Json::as_str).expect("why");
            assert!(!why.is_empty() && !why.contains('\n') && why.len() <= 200);
            w.get("name").and_then(Json::as_str).expect("name")
        })
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    for (key, specs) in [
        ("end_to_end", end_to_end_metrics()),
        ("per_layer", per_layer_metrics()),
    ] {
        let list = bench
            .get(key)
            .and_then(Json::as_array)
            .expect("metric list");
        assert_eq!(list.len(), specs.len(), "{key}");
        for (m, spec) in list.iter().zip(&specs) {
            let s = |k| m.get(k).and_then(Json::as_str);
            assert_eq!(s("name"), Some(spec.name.as_str()), "{key}");
            assert_eq!(s("unit"), Some(spec.unit), "{}", spec.name);
            assert_eq!(s("better"), Some(spec.better.name()), "{}", spec.name);
            assert_eq!(
                m.get("bound").and_then(Json::as_f64),
                spec.bound,
                "{}",
                spec.name
            );
        }
    }
    assert_eq!(
        bench.get("run_seconds").and_then(Json::as_f64),
        Some(bcache_benchmark::cli::DEFAULT_SECONDS)
    );
}

#[test]
fn every_workload_emits_every_listed_metric_and_a_valid_trace() {
    let bench = benchmark_json();
    let out = scratch("every-workload");
    for w in Workload::ALL {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let (code, line) = run(w.name(), trace, &out);
            assert_eq!(code, 0, "{} trace={trace}", w.name());
            let keys: Vec<&str> = line
                .as_object()
                .expect("result object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
            assert!(line.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
            let metrics = line.get("metrics").expect("metrics");
            let wanted = listed(&bench, key);
            assert_eq!(metrics.as_object().map(<[_]>::len), Some(wanted.len()));
            for (name, unit) in wanted {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{} does not emit {name}", w.name()));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                let v = m.get("value").and_then(Json::as_f64);
                assert!(v.is_some_and(f64::is_finite), "{} {name}: {v:?}", w.name());
            }
        }
        check_perfetto(&out.join(format!("{}-s1.trace.json", w.name())));
    }
}

#[test]
fn a_corrupted_golden_digest_fails_the_run() {
    let pinned = golden::load(&golden::default_dir()).expect("golden digests are committed");
    let ctx = |golden| Ctx {
        workload: Workload::ReplayHit,
        seed: 1,
        seconds: 0.3,
        scale: Scale::Smoke,
        golden,
    };
    let good = golden::lookup(&pinned, Workload::ReplayHit, Scale::Smoke, 1)
        .expect("replay-hit smoke seed 1 is pinned");

    let bad = sim::run(&ctx(Some(good ^ 1)), None).expect("the workload runs");
    assert!(
        bad.problems.iter().any(|p| p.contains("pinned golden")),
        "{:?}",
        bad.problems
    );
    assert!(bad.failed > 0, "a digest mismatch fails every job");

    // The pinned digest itself passes.
    let ok = sim::run(&ctx(Some(good)), None).expect("the workload runs");
    assert!(ok.problems.is_empty(), "{:?}", ok.problems);
    assert_eq!(ok.failed, 0);
}

//! Integration tests for the engine's robustness layer: a sweep with
//! injected panic/hang/corrupt faults must recover via retries and
//! produce **byte-identical** merged statistics to a fault-free
//! single-worker run, and a checkpointed sweep that is killed mid-way
//! must resume byte-identically from the persisted shards.

use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;

use harness::checkpoint::{Checkpoint, CheckpointMeta};
use harness::config::RunOptions;
use harness::fig3;
use harness::parallel::{Engine, FaultMode, FaultPlan, FaultSpec, RunPolicy};
use harness::run::RunLength;
use harness::statscmd::stats_cmd;

/// Drops the failure-accounting lines (`engine.*` counters, present
/// only on the faulted run by design) and the trailing commas that
/// separate JSON entries, leaving exactly the deterministic simulation
/// statistics for byte comparison.
fn normalize(json: &str) -> String {
    json.lines()
        .filter(|l| !l.trim_start().starts_with("\"engine."))
        .map(|l| l.strip_suffix(',').unwrap_or(l))
        .collect::<Vec<_>>()
        .join("\n")
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bcache-ft-{tag}-{}.jsonl", std::process::id()))
}

/// The ISSUE's golden acceptance test: one panicking, one hanging, and
/// one corrupt-result job injected into an 8-worker stats sweep. All
/// three recover via retry, and the merged deterministic metrics and
/// report body are byte-identical to a fault-free `--jobs 1` run.
#[test]
fn faulted_parallel_sweep_matches_clean_single_worker_run() {
    let clean_opts = RunOptions {
        len: RunLength::with_records(12_000),
        jobs: 1,
        ..RunOptions::default()
    };
    let clean = stats_cmd(&clean_opts);

    // Built through the CLI parser so the flag plumbing is exercised
    // end-to-end. The timeout bounds the injected hang; real jobs at
    // this length finish orders of magnitude faster.
    let faulted_opts = RunOptions::parse(&[
        "--records",
        "12000",
        "--jobs",
        "8",
        "--backoff-ms",
        "1",
        "--job-timeout-ms",
        "500",
        "--inject-fault",
        "job=2,mode=panic",
        "--inject-fault",
        "job=5,mode=hang",
        "--inject-fault",
        "job=6,mode=corrupt",
    ])
    .unwrap();
    assert_eq!(faulted_opts.len, clean_opts.len);
    let faulted = stats_cmd(&faulted_opts);

    // Byte-identical deterministic statistics despite three failures.
    assert_eq!(
        normalize(&clean.metrics.to_json(false)),
        normalize(&faulted.metrics.to_json(false)),
        "fault recovery changed the merged statistics"
    );

    // The report body is identical; the faulted run appends only the
    // degraded-run notice.
    assert!(
        faulted.report.starts_with(&clean.report),
        "faulted report body diverged from the clean one"
    );
    assert!(
        faulted.report.contains("DEGRADED RUN"),
        "{}",
        faulted.report
    );
    assert!(!clean.report.contains("DEGRADED RUN"));

    // Failure accounting: each injected fault seen once, all recovered.
    let c = |k: &str| faulted.metrics.counter_value(k);
    assert_eq!(c("engine.job_failures"), 3);
    assert_eq!(c("engine.job_panics"), 1);
    assert_eq!(c("engine.job_timeouts"), 1);
    assert_eq!(c("engine.job_corrupt_results"), 1);
    assert_eq!(c("engine.job_retries"), 3);
    assert_eq!(c("engine.jobs_recovered"), 3);
    assert_eq!(c("engine.jobs_failed_permanently"), 0);
    // And the clean run carries none of it.
    assert_eq!(clean.metrics.counter_value("engine.job_failures"), 0);
}

/// Kill-and-resume equivalence: a checkpointed Figure 3 sweep dies on a
/// permanently failing job, persisting the finished shards; resuming
/// from the checkpoint replays only the remainder and renders the exact
/// bytes of an uninterrupted run.
#[test]
fn checkpoint_kill_resume_is_byte_identical() {
    let len = RunLength::with_records(30_000);
    let path = tmp_path("kill-resume");
    let _ = fs::remove_file(&path);

    let clean_engine = Engine::new(4);
    let (clean_points, clean_text) = fig3::figure3_with(&clean_engine, len);

    // The doomed run: job ordinal 5 (MF64) fails every attempt with no
    // retries, so the sweep aborts after the earlier shards complete.
    let dying = Engine::new(4)
        .with_policy(RunPolicy {
            max_attempts: 1,
            backoff_ms: 1,
            timeout_ms: 60_000,
        })
        .with_faults(FaultPlan::new(vec![FaultSpec {
            job: 5,
            mode: FaultMode::Panic,
            times: 99,
        }]));
    dying.attach_checkpoint(Checkpoint::create(&path, CheckpointMeta::new("fig3", len)).unwrap());
    let crashed = panic::catch_unwind(AssertUnwindSafe(|| fig3::figure3_with(&dying, len)));
    assert!(crashed.is_err(), "permanent failure must surface");
    assert_eq!(
        dying
            .failure_snapshot()
            .counter_value("engine.jobs_failed_permanently"),
        1
    );

    // The flushed checkpoint holds the shards that finished first.
    let saved = Checkpoint::resume(&path, CheckpointMeta::new("fig3", len)).unwrap();
    assert!(!saved.is_empty(), "no completed shards were persisted");
    assert!(saved.len() < 9, "the failed shard must not be persisted");

    // Resume on a fresh engine: cached shards load, the rest re-run,
    // and the output is byte-identical to the uninterrupted run.
    let resumed = Engine::new(4);
    resumed.attach_checkpoint(saved);
    let (points, text) = fig3::figure3_with(&resumed, len);
    assert_eq!(text, clean_text, "resumed sweep diverged");
    assert_eq!(points, clean_points);
    let hits = resumed
        .failure_snapshot()
        .counter_value("engine.checkpoint_hits");
    assert!((1..9).contains(&hits), "checkpoint hits: {hits}");

    let _ = fs::remove_file(&path);
}

/// A checkpoint written for one sweep shape refuses to feed another —
/// the engine-attachment path surfaces the mismatch instead of serving
/// stale numbers.
#[test]
fn resume_with_mismatched_run_shape_is_rejected() {
    let len = RunLength::with_records(30_000);
    let path = tmp_path("mismatch");
    let _ = fs::remove_file(&path);
    let mut ckpt = Checkpoint::create(&path, CheckpointMeta::new("fig3", len)).unwrap();
    ckpt.put("fig3/wupwise/mf2", "0000000000000000").unwrap();

    let other = RunLength::with_records(60_000);
    let err = Checkpoint::resume(&path, CheckpointMeta::new("fig3", other)).unwrap_err();
    assert!(err.contains("records 30000"), "err: {err}");

    let _ = fs::remove_file(&path);
}

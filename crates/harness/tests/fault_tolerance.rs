//! Integration tests for checkpoint/resume: a checkpointed sweep whose
//! log was cut mid-append, as a kill would leave it, must resume
//! byte-identically from the entries that survived.

use std::fs;
use std::path::PathBuf;

use harness::checkpoint::{Checkpoint, CheckpointMeta};
use harness::fig3;
use harness::parallel::Engine;
use harness::run::RunLength;

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bcache-ft-{tag}-{}.jsonl", std::process::id()))
}

/// Keeps the header, the first `entries` entry lines, and half of the
/// next line of a checkpoint log — what a kill in the middle of that
/// line's append leaves on disk.
fn cut_log(text: &str, entries: usize) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let next = lines[1 + entries];
    let mut cut = lines[..1 + entries].join("\n");
    cut.push('\n');
    cut.push_str(&next[..next.len() / 2]);
    cut
}

/// Kill-and-resume equivalence: a Figure 3 sweep checkpoints every
/// shard; with its log cut to four entries and a torn fifth, resuming
/// replays only the remainder and renders the exact bytes of an
/// uninterrupted run.
#[test]
fn checkpoint_kill_resume_is_byte_identical() {
    let len = RunLength::with_records(30_000);
    let meta = || CheckpointMeta::new("fig3", len);
    let path = tmp_path("kill-resume");
    let _ = fs::remove_file(&path);

    let clean = Engine::new(4);
    clean.attach_checkpoint(Checkpoint::create(&path, meta()).unwrap());
    let (clean_points, clean_text) = fig3::figure3_with(&clean, len);
    drop(clean);
    let log = fs::read_to_string(&path).unwrap();
    assert_eq!(log.lines().count(), 1 + 9, "a header and nine shards");
    fs::write(&path, cut_log(&log, 4)).unwrap();

    // The torn fifth line is dropped; the four whole entries load.
    let saved = Checkpoint::resume(&path, meta()).unwrap();
    assert_eq!(saved.len(), 4);

    // Resume on a fresh engine: cached shards load, the rest re-run,
    // and the output is byte-identical to the uninterrupted run.
    let resumed = Engine::new(4);
    resumed.attach_checkpoint(saved);
    let (points, text) = fig3::figure3_with(&resumed, len);
    assert_eq!(text, clean_text, "resumed sweep diverged");
    assert_eq!(points, clean_points);
    assert_eq!(resumed.checkpoint_hits(), 4);

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

//! `bcache-repro` under a reader that stops early
//! (`bcache-repro all | head -1`): a closed stdout pipe ends the run
//! with exit code 0, not a "Broken pipe" panic, and a closed stderr
//! pipe drops the log lines the same way.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

fn spawn(args: &[&str]) -> std::process::Child {
    Command::new(env!("CARGO_BIN_EXE_bcache-repro"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("bcache-repro starts")
}

fn assert_clean_exit(out: &Output) {
    assert!(
        out.status.success(),
        "exit status {:?}, stderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn stdout_closed_before_the_first_write_exits_zero() {
    let mut child = spawn(&["tab4"]);
    // The reader is gone before the report is written, so the very
    // first write fails with EPIPE.
    drop(child.stdout.take());
    assert_clean_exit(&child.wait_with_output().unwrap());
}

#[test]
fn reader_that_takes_one_line_exits_zero() {
    let mut child = spawn(&["all", "--records", "2000", "--jobs", "2"]);
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.starts_with("Table 4"), "first line: {first:?}");
    assert_clean_exit(&child.wait_with_output().unwrap());
}

#[test]
fn stderr_closed_before_the_log_lines_exits_zero() {
    let metrics = std::env::temp_dir().join(format!("bcache-pipe-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&metrics);
    let mut child = spawn(&[
        "fig3",
        "--records",
        "3000",
        "--jobs",
        "1",
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    // The stderr reader is gone before anything is logged, so the
    // closing "wrote metrics" line fails with EPIPE.
    drop(child.stderr.take());
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "exit status {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("Figure 3:"), "stdout:\n{stdout}");
    // The whole figure: title, header, rule and one row per MF up to 512.
    assert_eq!(stdout.lines().count(), 12, "stdout:\n{stdout}");
    assert!(
        stdout
            .lines()
            .last()
            .unwrap()
            .trim_start()
            .starts_with("MF512"),
        "stdout:\n{stdout}"
    );
    assert!(std::fs::metadata(&metrics).unwrap().len() > 0);
    std::fs::remove_file(&metrics).unwrap();
}

//! `bcache-repro` under a reader that stops early
//! (`bcache-repro all | head -1`): a closed stdout pipe ends the run
//! with exit code 0, not a "Broken pipe" panic.

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

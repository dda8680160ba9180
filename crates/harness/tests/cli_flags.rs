//! `bcache-repro` flags that used to be accepted and then do nothing:
//! `--csv` on a command without CSV output now warns, and
//! `fuzz --iters 0` is a usage error instead of a vacuous pass.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bcache-repro"))
        .args(args)
        .env_remove("BCACHE_LOG")
        .output()
        .expect("bcache-repro runs")
}

#[test]
fn csv_on_a_command_without_csv_output_warns_and_is_ignored() {
    for args in [
        &["tab4"][..],
        &["stats", "--records", "2000", "--jobs", "1"],
    ] {
        let plain = run(args);
        let with_csv = run(&[args, &["--csv"]].concat());
        assert!(with_csv.status.success(), "{args:?}: {with_csv:?}");
        assert_eq!(plain.stdout, with_csv.stdout, "{args:?}");
        let stderr = String::from_utf8_lossy(&with_csv.stderr);
        assert!(
            stderr.contains("--csv is not supported by") && stderr.contains("ignoring"),
            "{args:?} --csv: stderr {stderr:?}"
        );
    }
}

#[test]
fn fuzz_with_zero_iterations_is_a_usage_error() {
    let out = run(&["fuzz", "--iters", "0"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "no cases may be reported");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--iters"), "stderr: {stderr}");
}

//! Bounded in-process run of the differential fuzzer (the CI smoke job
//! runs the `bcache-repro fuzz` binary with the same parameters).

use harness::fuzz::{resolve_scenario, run, FuzzOptions};

/// The CI smoke configuration: 2000 cases, seed 7. Every registered
/// model must agree with its oracle on every generated stream.
#[test]
fn ci_smoke_configuration_is_clean() {
    let report = run(&FuzzOptions {
        iters: 2000,
        seed: 7,
        jobs: 4,
        scenario: None,
    });
    assert!(report.divergences.is_empty(), "{}", report.render());
}

/// The report is bit-identical for every worker count (sharding is
/// positional and case seeds derive from `(seed, case)` alone).
#[test]
fn report_is_job_count_invariant() {
    let base = FuzzOptions {
        iters: 180,
        seed: 21,
        jobs: 1,
        scenario: None,
    };
    let one = run(&base);
    let many = run(&FuzzOptions { jobs: 8, ..base });
    assert_eq!(one.render(), many.render());
}

/// The `--scenario` filter composes with job-count invariance: a run
/// pinned to the birthday adversary is clean and identical for any
/// worker count.
#[test]
fn pinned_scenario_is_clean_and_job_count_invariant() {
    let base = FuzzOptions {
        iters: 120,
        seed: 11,
        jobs: 1,
        scenario: Some(resolve_scenario("birthday_adversarial").unwrap()),
    };
    let one = run(&base);
    assert!(one.divergences.is_empty(), "{}", one.render());
    let many = run(&FuzzOptions { jobs: 8, ..base });
    assert_eq!(one.render(), many.render());
}

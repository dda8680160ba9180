//! The parallel engine's headline guarantee: experiment output is
//! **byte-identical** at `--jobs 1`, `--jobs 2`, and `--jobs 8`.
//!
//! Every comparison below goes through rendered strings or `assert_eq`
//! on the result structs (f64 bit equality via `PartialEq`) — no
//! tolerances anywhere. A run at width 1 executes inline on the caller
//! thread; widths 2 and 8 interleave on worker threads, so agreement
//! means scheduling cannot leak into the numbers.

use harness::parallel::Engine;
use harness::run::RunLength;
use harness::{balance, design_space, fig3, missrate, perf, sensitivity};

const WIDTHS: [usize; 3] = [1, 2, 8];

fn len() -> RunLength {
    RunLength::with_records(30_000)
}

fn engines() -> Vec<Engine> {
    WIDTHS.iter().map(|&w| Engine::new(w)).collect()
}

#[test]
fn figure4_is_identical_at_every_width() {
    let runs: Vec<_> = engines()
        .iter()
        .map(|e| missrate::figure4_with(e, len()))
        .collect();
    for (fp, int) in &runs[1..] {
        assert_eq!(fp.rows, runs[0].0.rows);
        assert_eq!(int.rows, runs[0].1.rows);
        assert_eq!(fp.render(), runs[0].0.render());
        assert_eq!(int.render_csv(), runs[0].1.render_csv());
    }
}

#[test]
fn figure5_is_identical_at_every_width() {
    let runs: Vec<_> = engines()
        .iter()
        .map(|e| missrate::figure5_with(e, len()))
        .collect();
    for fig in &runs[1..] {
        assert_eq!(fig.rows, runs[0].rows);
        assert_eq!(fig.render(), runs[0].render());
    }
}

#[test]
fn figure3_sweep_is_identical_at_every_width() {
    let runs: Vec<_> = engines()
        .iter()
        .map(|e| fig3::figure3_for_with(e, "wupwise", len()))
        .collect();
    for points in &runs[1..] {
        assert_eq!(*points, runs[0]);
    }
}

#[test]
fn design_space_grid_is_identical_at_every_width() {
    let runs: Vec<_> = engines()
        .iter()
        .map(|e| design_space::design_space_grid_with(e, len()))
        .collect();
    for grid in &runs[1..] {
        assert_eq!(*grid, runs[0]);
        assert_eq!(
            design_space::render_tables_5_and_6(grid),
            design_space::render_tables_5_and_6(&runs[0])
        );
    }
}

#[test]
fn perf_rows_are_identical_at_every_width() {
    let runs: Vec<_> = engines()
        .iter()
        .map(|e| perf::run_perf_with(e, len()))
        .collect();
    for rows in &runs[1..] {
        assert_eq!(*rows, runs[0]);
        assert_eq!(perf::render_figure8(rows), perf::render_figure8(&runs[0]));
        assert_eq!(perf::render_figure9(rows), perf::render_figure9(&runs[0]));
    }
}

#[test]
fn sensitivity_studies_are_identical_at_every_width() {
    let entries = [2usize, 8, 32];
    let sweeps: Vec<_> = engines()
        .iter()
        .map(|e| sensitivity::victim_sweep_with(e, len(), &entries))
        .collect();
    let l2s: Vec<_> = engines()
        .iter()
        .map(|e| sensitivity::l2_bcache_with(e, len()))
        .collect();
    for s in &sweeps[1..] {
        assert_eq!(*s, sweeps[0]);
    }
    for l2 in &l2s[1..] {
        assert_eq!(*l2, l2s[0]);
        assert_eq!(
            sensitivity::render_l2_bcache(l2),
            sensitivity::render_l2_bcache(&l2s[0])
        );
    }
}

#[test]
fn table7_is_identical_at_every_width() {
    let runs: Vec<_> = engines()
        .iter()
        .map(|e| balance::table7_with(e, len()))
        .collect();
    for rows in &runs[1..] {
        assert_eq!(*rows, runs[0]);
        assert_eq!(
            balance::render_table7(rows),
            balance::render_table7(&runs[0])
        );
    }
}

#[test]
fn serial_streaming_path_agrees_with_the_engine_path() {
    // `run_miss_rates` streams the trace and replays all models in one
    // pass; the engine replays cached records one config at a time.
    // Both must produce the same figure.
    use harness::config::CacheConfig;
    use harness::run::{run_miss_rates, Side};
    use trace_gen::profiles;

    let engine = Engine::new(4);
    let fig = missrate::figure5_with(&engine, len());
    let configs = CacheConfig::figure4_set();
    for row in &fig.rows {
        let p = profiles::by_name(&row.benchmark).unwrap();
        let serial = run_miss_rates(&p, &configs, 16 * 1024, Side::Instruction, len());
        assert_eq!(*row, serial, "{}", row.benchmark);
    }
}

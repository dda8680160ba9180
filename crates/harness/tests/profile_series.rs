//! Determinism and equivalence guarantees of the time-resolved
//! profiling subsystem (`bcache-repro profile`).
//!
//! Three contracts:
//!
//! 1. **Jobs invariance** — the windowed series (JSONL and CSV) is
//!    byte-identical for `--jobs 1/2/8`; only the wall-clock trace
//!    differs between runs.
//! 2. **Window edges** — a window longer than the trace yields one
//!    partial row, a window of 1 yields one row per access, and a
//!    non-dividing window leaves a short final row; every shape
//!    conserves the access total.
//! 3. **Producer equivalence** — the stats-delta chunked replay (the
//!    `profile` hot path) and the event-driven [`WindowSeries`]
//!    observer produce identical rows for the B-Cache.

use cache_sim::{CacheModel, PolicyKind};
use harness::profilecmd::{profile_cmd, replay_windowed, ProfileOptions};
use harness::run::{RunLength, Side};
use harness::{CacheConfig, Engine};
use telemetry::WindowSeries;
use trace_gen::profiles;

const SIZE_BYTES: usize = 16 * 1024;

fn short() -> RunLength {
    RunLength::with_records(30_000)
}

fn opts(jobs: usize) -> ProfileOptions {
    ProfileOptions {
        len: short(),
        jobs,
        window: 1024,
        ..ProfileOptions::default()
    }
}

#[test]
fn series_bytes_survive_jobs_changes() {
    let golden = profile_cmd(&opts(1));
    for jobs in [2usize, 8] {
        let out = profile_cmd(&opts(jobs));
        assert_eq!(
            golden.series_jsonl, out.series_jsonl,
            "--jobs {jobs} changed the JSONL series"
        );
        assert_eq!(
            golden.series_csv, out.series_csv,
            "--jobs {jobs} changed the CSV series"
        );
    }
}

/// The mcf data-side accesses at the shared short length.
fn mcf_accesses() -> Vec<(cache_sim::Addr, cache_sim::AccessKind)> {
    let profile = profiles::by_name("mcf").expect("mcf exists");
    let engine = Engine::new(1);
    let trace = engine.side_trace(&profile, short(), Side::Data);
    trace.accesses().to_vec()
}

#[test]
fn window_edges_conserve_the_access_total() {
    let accesses = mcf_accesses();
    let n = accesses.len() as u64;
    assert!(n > 2, "trace long enough to split");

    // Window longer than the whole trace: one partial row.
    let mut dm = CacheConfig::DirectMapped.build(SIZE_BYTES, 0).unwrap();
    let series = replay_windowed(&mut *dm, &accesses, n + 10_000, |_| (0, 0));
    let rows: Vec<_> = series.rows().collect();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].accesses, n);

    // Window of one: a row per access, each carrying exactly it.
    let mut dm = CacheConfig::DirectMapped.build(SIZE_BYTES, 0).unwrap();
    let series = replay_windowed(&mut *dm, &accesses[..500], 1, |_| (0, 0));
    let rows: Vec<_> = series.rows().collect();
    assert_eq!(rows.len(), 500);
    assert!(rows.iter().all(|r| r.accesses == 1));

    // A window that does not divide the trace: full rows plus a short
    // final one, and the per-row sums still reconstruct the aggregate.
    let window = 777u64;
    let mut dm = CacheConfig::DirectMapped.build(SIZE_BYTES, 0).unwrap();
    let series = replay_windowed(&mut *dm, &accesses, window, |_| (0, 0));
    let rows: Vec<_> = series.rows().collect();
    assert_eq!(rows.len(), n.div_ceil(window) as usize);
    let last = rows.last().unwrap();
    assert_eq!(last.accesses, n % window, "final row is the remainder");
    assert!(rows[..rows.len() - 1].iter().all(|r| r.accesses == window));
    let total = dm.stats().total();
    assert_eq!(rows.iter().map(|r| r.accesses).sum::<u64>(), n);
    assert_eq!(rows.iter().map(|r| r.misses).sum::<u64>(), total.misses());
    assert_eq!(
        rows.iter().map(|r| r.writebacks).sum::<u64>(),
        dm.stats().writebacks()
    );
    for r in &rows {
        assert_eq!(
            r.heat.iter().sum::<u64>(),
            r.accesses,
            "window {}: every access lands in one heat column",
            r.index
        );
    }
}

#[test]
fn observer_series_matches_the_stats_delta_series() {
    // The event-driven producer (WindowSeries as an Observer, fed by
    // the kernel's event stream) and the stats-delta producer (the
    // `profile` hot path) must agree row for row — this pins the
    // Writeback/PdReprogram/BasVictim event positions to the counters.
    let accesses = mcf_accesses();
    let window = 1024u64;
    let geom = cache_sim::CacheGeometry::new(SIZE_BYTES, 32, 1).unwrap();
    let params = bcache_core::BCacheParams::new(geom, 8, 8, PolicyKind::Lru)
        .unwrap()
        .with_seed(7);

    let mut observed = bcache_core::BalancedCache::with_observer(
        params,
        WindowSeries::new(window, geom.sets() as u64),
    );
    observed.access_batch(&accesses);
    observed.observer_mut().finish();

    let mut plain = bcache_core::BalancedCache::new(params);
    let delta_series = replay_windowed(&mut plain, &accesses, window, |m| {
        let pd = m.pd_stats();
        (pd.misses_with_pd_hit, pd.misses_with_pd_miss)
    });

    assert_eq!(
        observed.observer().to_jsonl(),
        delta_series.to_jsonl(),
        "event-driven and stats-delta series disagree"
    );
    assert_eq!(observed.observer().to_csv(), delta_series.to_csv());
}

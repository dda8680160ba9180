//! Record lifetime in the Figure 8/9 sweep: `perf::run_perf_with`
//! declares each benchmark's record uses, so once the sweep returns the
//! engine's trace cache holds no records — at every `--jobs` width, and
//! with the same rows `determinism.rs` pins across widths.

use harness::config::CacheConfig;
use harness::parallel::Engine;
use harness::perf;
use harness::run::RunLength;
use trace_gen::profiles;

fn len() -> RunLength {
    RunLength::with_records(30_000)
}

#[test]
fn perf_sweep_releases_every_record_buffer_at_every_width() {
    let runs: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&w| {
            let engine = Engine::new(w);
            let rows = perf::run_perf_with(&engine, len());
            assert!(
                engine.traces().is_empty(),
                "--jobs {w}: {} record buffers still cached",
                engine.traces().len()
            );
            rows
        })
        .collect();
    for rows in &runs[1..] {
        assert_eq!(*rows, runs[0]);
    }
    // Released or not, the records a job replays are the generator's:
    // the sweep agrees with uncached standalone runs.
    let mut configs = vec![CacheConfig::DirectMapped];
    configs.extend(CacheConfig::figure8_set());
    for name in ["gzip", "equake", "mcf"] {
        let p = profiles::by_name(name).unwrap();
        let row = runs[0].iter().find(|r| r.benchmark == name).unwrap();
        let standalone: Vec<_> = configs
            .iter()
            .map(|c| perf::run_config(&p, c, len()))
            .collect();
        assert_eq!(row.outcomes, standalone, "{name}");
    }
}

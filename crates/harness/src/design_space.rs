//! Tables 5 and 6: the MF × BAS × PD-length design space (Section 6.3).
//!
//! For a fixed PD length `log2(MF) + log2(BAS)`, two designs compete:
//! more clusters (high BAS, design A) or stronger address thinning (high
//! MF, design B). The paper's finding: below a 6-bit PD, design B wins
//! because its lower PD hit rate lets the replacement policy act; at 6
//! bits both rates are low and the extra clusters win — hence the chosen
//! MF = 8, BAS = 8.

use trace_gen::profiles;

use crate::config::{CacheConfig, L1_BYTES};
use crate::parallel::Engine;
use crate::report::{pct, TextTable};
use crate::run::{mean, replay_bcache_pd_on, replay_config_on, RunLength, Side};

/// One grid cell of Tables 5 and 6.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct DesignPoint {
    /// Mapping factor.
    pub mf: usize,
    /// B-Cache associativity.
    pub bas: usize,
    /// PD length in bits (`log2(MF) + log2(BAS)`).
    pub pd_bits: u32,
    /// Average D$ miss-rate reduction over the suite.
    pub avg_reduction: f64,
    /// Average PD hit rate during misses over the suite.
    pub avg_pd_hit_rate: f64,
}

/// Runs the MF × BAS grid on the caller's [`Engine`]: MF in
/// {2, 4, 8, 16}, BAS in {4, 8}, averaged over all 26 benchmarks' data
/// caches.
///
/// The baseline is replayed once per benchmark and reused by every grid
/// cell (the serial version recomputed it per cell — 8× the same
/// direct-mapped run); both stages shard per benchmark.
pub fn design_space_grid_with(engine: &Engine, len: RunLength) -> Vec<DesignPoint> {
    let benchmarks = profiles::all();
    let base_jobs: Vec<_> = benchmarks
        .iter()
        .map(|p| {
            move || {
                let trace = engine.side_trace(p, len, Side::Data);
                replay_config_on(
                    p.name,
                    &trace,
                    &CacheConfig::DirectMapped,
                    L1_BYTES,
                    Side::Data,
                    len,
                )
            }
        })
        .collect();
    let baselines = engine.run(base_jobs);

    let cells: Vec<(usize, usize)> = [4usize, 8]
        .iter()
        .flat_map(|&bas| [2usize, 4, 8, 16].map(|mf| (mf, bas)))
        .collect();
    let jobs: Vec<_> = cells
        .iter()
        .flat_map(|&(mf, bas)| {
            benchmarks.iter().map(move |p| {
                move || {
                    let trace = engine.side_trace(p, len, Side::Data);
                    replay_bcache_pd_on(&trace, mf, bas, L1_BYTES)
                }
            })
        })
        .collect();
    let outcomes = engine.run(jobs);

    cells
        .iter()
        .zip(outcomes.chunks(benchmarks.len()))
        .map(|(&(mf, bas), chunk)| {
            let per_bench: Vec<(f64, f64)> = chunk
                .iter()
                .zip(&baselines)
                .map(|(o, &base)| {
                    let reduction = if base == 0.0 {
                        0.0
                    } else {
                        1.0 - o.miss_rate / base
                    };
                    (reduction, o.pd_hit_rate_on_miss)
                })
                .collect();
            DesignPoint {
                mf,
                bas,
                pd_bits: (mf as f64).log2() as u32 + (bas as f64).log2() as u32,
                avg_reduction: mean(&per_bench, |o| o.0),
                avg_pd_hit_rate: mean(&per_bench, |o| o.1),
            }
        })
        .collect()
}

/// Renders Table 5 (miss-rate reductions) and Table 6 (PD hit rates)
/// from a grid.
pub fn render_tables_5_and_6(points: &[DesignPoint]) -> String {
    let mfs = [2usize, 4, 8, 16];
    let mut t5 = TextTable::new(vec!["", "MF=2", "MF=4", "MF=8", "MF=16", "PD bits"]);
    let mut t6 = TextTable::new(vec!["", "MF=2", "MF=4", "MF=8", "MF=16"]);
    for bas in [4usize, 8] {
        let row: Vec<&DesignPoint> = mfs
            .iter()
            .map(|mf| {
                points
                    .iter()
                    .find(|p| p.mf == *mf && p.bas == bas)
                    .expect("grid point")
            })
            .collect();
        let mut cells5 = vec![format!("BAS = {bas}")];
        cells5.extend(row.iter().map(|p| pct(p.avg_reduction)));
        cells5.push(
            row.iter()
                .map(|p| p.pd_bits.to_string())
                .collect::<Vec<_>>()
                .join("/"),
        );
        t5.row(cells5);
        let mut cells6 = vec![format!("BAS = {bas}")];
        cells6.extend(row.iter().map(|p| pct(p.avg_pd_hit_rate)));
        t6.row(cells6);
    }
    format!(
        "Table 5: average D$ miss-rate reduction vs baseline at varied MF, BAS\n{}\n\
         Table 6: average PD hit rate during cache misses at varied MF, BAS\n{}",
        t5.render(),
        t6.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Vec<DesignPoint> {
        // Small but non-trivial run; reuse across assertions.
        let engine = Engine::new(crate::parallel::default_parallelism());
        design_space_grid_with(&engine, RunLength::with_records(60_000))
    }

    #[test]
    fn pd_hit_rate_falls_as_mf_grows() {
        // Table 6's monotone trend: a larger MF thins the address mapping
        // and the PD hits less often during misses.
        let points = grid();
        for bas in [4usize, 8] {
            let series: Vec<f64> = [2usize, 4, 8, 16]
                .iter()
                .map(|mf| {
                    points
                        .iter()
                        .find(|p| p.mf == *mf && p.bas == bas)
                        .unwrap()
                        .avg_pd_hit_rate
                })
                .collect();
            for w in series.windows(2) {
                assert!(
                    w[1] <= w[0] + 0.03,
                    "PD hit rate should fall with MF: {series:?}"
                );
            }
        }
    }

    #[test]
    fn reduction_grows_with_mf() {
        let points = grid();
        for bas in [4usize, 8] {
            let r = |mf: usize| {
                points
                    .iter()
                    .find(|p| p.mf == mf && p.bas == bas)
                    .unwrap()
                    .avg_reduction
            };
            assert!(r(8) > r(2), "BAS={bas}");
        }
    }

    #[test]
    fn six_bit_pd_favors_more_clusters() {
        // Section 6.3: at PD = 6 bits, design A (MF=8, BAS=8) beats
        // design B (MF=16, BAS=4).
        let points = grid();
        let a = points.iter().find(|p| p.mf == 8 && p.bas == 8).unwrap();
        let b = points.iter().find(|p| p.mf == 16 && p.bas == 4).unwrap();
        assert_eq!(a.pd_bits, 6);
        assert_eq!(b.pd_bits, 6);
        assert!(
            a.avg_reduction > b.avg_reduction,
            "design A {} vs design B {}",
            a.avg_reduction,
            b.avg_reduction
        );
    }

    #[test]
    fn rendering_contains_both_tables() {
        let s = render_tables_5_and_6(&grid());
        assert!(s.contains("Table 5") && s.contains("Table 6"));
        assert!(s.contains("BAS = 4") && s.contains("BAS = 8"));
    }
}

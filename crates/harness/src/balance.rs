//! Table 7: the balance evaluation (Section 6.4) — frequent-hit sets,
//! frequent-miss sets and less-accessed sets, baseline versus B-Cache.

use cache_sim::BalanceReport;
use trace_gen::profiles;

use crate::config::CacheConfig;
use crate::parallel::Engine;
use crate::report::{pct, TextTable};
use crate::run::{RunLength, Side, SideTrace};

/// Balance statistics of one benchmark: baseline row and B-Cache row.
#[derive(Clone, Debug, PartialEq)]
pub struct BalanceRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Baseline direct-mapped balance classification.
    pub baseline: BalanceReport,
    /// B-Cache (MF=8, BAS=8) balance classification.
    pub bcache: BalanceReport,
}

/// Runs the Table 7 analysis over the data caches of all 26 benchmarks
/// on the caller's [`Engine`]: one job per benchmark over the shared
/// cached traces.
///
/// # Errors
///
/// Returns a message when the fixed Table 7 cache configuration cannot
/// be constructed (a build/configuration defect, not a data error). It
/// surfaces as `Err` instead of a worker panic so the CLI can report it
/// cleanly.
pub fn table7_with(engine: &Engine, len: RunLength) -> Result<Vec<BalanceRow>, String> {
    let benchmarks = profiles::all();
    let jobs: Vec<_> = benchmarks
        .iter()
        .map(|p| move || balance_on(p.name, &engine.side_trace(p, len, Side::Data)))
        .collect();
    engine.run(jobs).into_iter().collect()
}

fn balance_on(benchmark: &str, trace: &SideTrace) -> Result<BalanceRow, String> {
    let build = |config: CacheConfig| {
        config
            .build(16 * 1024, 0)
            .map_err(|e| format!("table 7 {} model (16 kB): {e}", config.label()))
    };
    let mut dm = build(CacheConfig::DirectMapped)?;
    let mut bc = build(CacheConfig::BCache { mf: 8, bas: 8 })?;
    trace.replay_into(&mut [dm.as_mut(), bc.as_mut()]);
    Ok(BalanceRow {
        benchmark: benchmark.to_string(),
        baseline: dm
            .set_usage()
            .ok_or("table 7 baseline reports no set usage")?
            .balance(),
        bcache: bc
            .set_usage()
            .ok_or("table 7 B-Cache reports no set usage")?
            .balance(),
    })
}

/// Averages the six balance statistics over rows.
pub fn average(rows: &[BalanceRow], pick: impl Fn(&BalanceRow) -> BalanceReport) -> BalanceReport {
    let n = rows.len().max(1) as f64;
    let mut sum = BalanceReport::default();
    for r in rows {
        let b = pick(r);
        sum.frequent_hit_sets += b.frequent_hit_sets;
        sum.hits_in_frequent_hit_sets += b.hits_in_frequent_hit_sets;
        sum.frequent_miss_sets += b.frequent_miss_sets;
        sum.misses_in_frequent_miss_sets += b.misses_in_frequent_miss_sets;
        sum.less_accessed_sets += b.less_accessed_sets;
        sum.accesses_in_less_accessed_sets += b.accesses_in_less_accessed_sets;
    }
    BalanceReport {
        frequent_hit_sets: sum.frequent_hit_sets / n,
        hits_in_frequent_hit_sets: sum.hits_in_frequent_hit_sets / n,
        frequent_miss_sets: sum.frequent_miss_sets / n,
        misses_in_frequent_miss_sets: sum.misses_in_frequent_miss_sets / n,
        less_accessed_sets: sum.less_accessed_sets / n,
        accesses_in_less_accessed_sets: sum.accesses_in_less_accessed_sets / n,
    }
}

/// Renders Table 7.
pub fn render_table7(rows: &[BalanceRow]) -> String {
    let mut t = TextTable::new(vec![
        "benchmark",
        "",
        "fhs",
        "ch",
        "fms",
        "cm",
        "las",
        "tca",
    ]);
    let mut add = |name: &str, which: &str, b: &BalanceReport| {
        t.row(vec![
            name.to_string(),
            which.to_string(),
            pct(b.frequent_hit_sets),
            pct(b.hits_in_frequent_hit_sets),
            pct(b.frequent_miss_sets),
            pct(b.misses_in_frequent_miss_sets),
            pct(b.less_accessed_sets),
            pct(b.accesses_in_less_accessed_sets),
        ]);
    };
    for r in rows {
        add(&r.benchmark, "dm", &r.baseline);
        add("", "bc", &r.bcache);
    }
    add("Ave", "dm", &average(rows, |r| r.baseline));
    add("", "bc", &average(rows, |r| r.bcache));
    format!(
        "Table 7: data-cache memory access behaviour (fhs: frequent-hit sets; ch: hits therein;\n\
         fms: frequent-miss sets; cm: misses therein; las: less-accessed sets; tca: accesses therein)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_gen::{Trace, TraceRecord};

    fn balance_for(profile: &trace_gen::BenchmarkProfile, len: RunLength) -> BalanceRow {
        let records: Vec<TraceRecord> = Trace::new(profile, len.seed)
            .take(len.records as usize)
            .collect();
        balance_on(
            profile.name,
            &SideTrace::extract(records, Side::Data, len.warmup),
        )
        .unwrap()
    }

    #[test]
    fn bcache_balances_the_conflict_heavy_benchmarks() {
        let p = profiles::by_name("equake").unwrap();
        let r = balance_for(&p, RunLength::with_records(120_000));
        // Section 6.4's three trends:
        // misses concentrate less in frequent-miss sets…
        assert!(
            r.bcache.misses_in_frequent_miss_sets < r.baseline.misses_in_frequent_miss_sets,
            "dm {} vs bc {}",
            r.baseline.misses_in_frequent_miss_sets,
            r.bcache.misses_in_frequent_miss_sets
        );
        // …and hits spread across more sets.
        assert!(r.bcache.hits_in_frequent_hit_sets <= r.baseline.hits_in_frequent_hit_sets + 0.05);
    }

    #[test]
    fn capacity_benchmarks_have_no_frequent_miss_sets() {
        // Table 7's observation for art/lucas/swim/mcf: misses fall
        // evenly on all sets.
        for name in ["art", "swim"] {
            let p = profiles::by_name(name).unwrap();
            let r = balance_for(&p, RunLength::with_records(100_000));
            assert!(
                r.baseline.misses_in_frequent_miss_sets < 0.2,
                "{name}: {:?}",
                r.baseline
            );
        }
    }

    #[test]
    fn render_includes_averages() {
        let p = profiles::by_name("gzip").unwrap();
        let rows = vec![balance_for(&p, RunLength::with_records(50_000))];
        let s = render_table7(&rows);
        assert!(s.contains("Ave"));
        assert!(s.contains("gzip"));
    }

    #[test]
    fn average_is_componentwise_mean() {
        let a = BalanceReport {
            frequent_hit_sets: 0.2,
            hits_in_frequent_hit_sets: 0.4,
            frequent_miss_sets: 0.1,
            misses_in_frequent_miss_sets: 0.3,
            less_accessed_sets: 0.5,
            accesses_in_less_accessed_sets: 0.2,
        };
        let b = BalanceReport::default();
        let rows = vec![
            BalanceRow {
                benchmark: "x".into(),
                baseline: a,
                bcache: b,
            },
            BalanceRow {
                benchmark: "y".into(),
                baseline: b,
                bcache: a,
            },
        ];
        let avg = average(&rows, |r| r.baseline);
        assert!((avg.frequent_hit_sets - 0.1).abs() < 1e-12);
        assert!((avg.less_accessed_sets - 0.25).abs() < 1e-12);
    }
}

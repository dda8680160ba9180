//! Miss-rate reduction experiments: Figures 4, 5 and 12.
//!
//! Each figure shards its (benchmark × config) cross-product into jobs
//! on the caller's [`Engine`], so several figures share one trace cache.
//! Output is identical for any worker count.

use trace_gen::{profiles, BenchmarkProfile, Suite};

use crate::config::CacheConfig;
use crate::parallel::Engine;
use crate::report::{pct, pct2, TextTable};
use crate::run::{mean, replay_config_on, BenchmarkMissRates, ConfigOutcome, RunLength, Side};

/// Results of one miss-rate-reduction figure: one row per benchmark plus
/// configuration labels.
#[derive(Clone, Debug)]
pub struct MissRateFigure {
    /// Figure title.
    pub title: String,
    /// Configuration labels, in column order.
    pub labels: Vec<String>,
    /// Per-benchmark results.
    pub rows: Vec<BenchmarkMissRates>,
}

impl MissRateFigure {
    /// Mean reduction for configuration column `i` (the "Ave" bar).
    pub fn average_reduction(&self, i: usize) -> f64 {
        mean(&self.rows, |r| r.reduction(i))
    }

    /// Index of a configuration by label.
    pub fn column(&self, label: &str) -> Option<usize> {
        self.labels.iter().position(|l| l == label)
    }

    /// Builds the reduction table shared by text and CSV rendering.
    fn table(&self) -> TextTable {
        let mut header = vec!["benchmark".to_string(), "dm-miss".to_string()];
        header.extend(self.labels.clone());
        let mut t = TextTable::new(header);
        for r in &self.rows {
            let mut cells = vec![r.benchmark.clone(), pct2(r.baseline_miss_rate)];
            cells.extend((0..self.labels.len()).map(|i| pct(r.reduction(i))));
            t.row(cells);
        }
        let mut ave = vec!["Ave".to_string(), String::new()];
        ave.extend((0..self.labels.len()).map(|i| pct(self.average_reduction(i))));
        t.row(ave);
        t
    }

    /// Renders the figure as a text table of reductions.
    pub fn render(&self) -> String {
        format!("{}\n{}", self.title, self.table().render())
    }

    /// Renders the figure as CSV (for plotting pipelines).
    pub fn render_csv(&self) -> String {
        self.table().render_csv()
    }
}

fn run_figure(
    engine: &Engine,
    scope: &str,
    title: String,
    benchmarks: &[BenchmarkProfile],
    configs: &[CacheConfig],
    (size_bytes, side): (usize, Side),
    len: RunLength,
) -> MissRateFigure {
    // One job per (benchmark, column); column 0 is the baseline. The
    // engine returns miss rates in submission order, so rows rebuild
    // canonically however the jobs interleaved. Each job carries a
    // checkpoint identity (`scope/benchmark/label`) so interrupted
    // sweeps resume from the finished cells.
    let mut cols = Vec::with_capacity(configs.len() + 1);
    cols.push(CacheConfig::DirectMapped);
    cols.extend_from_slice(configs);
    type Job<'a> = Box<dyn Fn() -> f64 + Send + Sync + 'a>;
    let jobs: Vec<(String, Job<'_>)> = benchmarks
        .iter()
        .flat_map(|p| {
            cols.iter().map(move |&c| {
                let key = format!("{}/{}", p.name, c.label());
                let job: Job<'_> = Box::new(move || {
                    let trace = engine.side_trace(p, len, side);
                    replay_config_on(p.name, &trace, &c, size_bytes, side, len)
                });
                (key, job)
            })
        })
        .collect();
    let rates = engine.run_checkpointed(scope, jobs);
    let rows = benchmarks
        .iter()
        .zip(rates.chunks(cols.len()))
        .map(|(p, chunk)| BenchmarkMissRates {
            benchmark: p.name.to_string(),
            baseline_miss_rate: chunk[0],
            outcomes: configs
                .iter()
                .zip(&chunk[1..])
                .map(|(c, &miss_rate)| ConfigOutcome {
                    label: c.label(),
                    miss_rate,
                })
                .collect(),
        })
        .collect();
    MissRateFigure {
        title,
        labels: configs.iter().map(CacheConfig::label).collect(),
        rows,
    }
}

/// Figure 4: data-cache miss-rate reductions at 16 kB over the nine
/// comparison configurations, grouped CFP2K then CINT2K like the paper.
pub fn figure4_with(engine: &Engine, len: RunLength) -> (MissRateFigure, MissRateFigure) {
    let configs = CacheConfig::figure4_set();
    let fp = run_figure(
        engine,
        "fig4/cfp",
        "Figure 4 (top): D$ miss-rate reductions, SPEC CFP2K, 16 kB".into(),
        &profiles::cfp(),
        &configs,
        (16 * 1024, Side::Data),
        len,
    );
    let int = run_figure(
        engine,
        "fig4/cint",
        "Figure 4 (bottom): D$ miss-rate reductions, SPEC CINT2K, 16 kB".into(),
        &profiles::cint(),
        &configs,
        (16 * 1024, Side::Data),
        len,
    );
    (fp, int)
}

/// Figure 5: instruction-cache miss-rate reductions at 16 kB on the
/// fifteen reported benchmarks.
pub fn figure5_with(engine: &Engine, len: RunLength) -> MissRateFigure {
    run_figure(
        engine,
        "fig5",
        "Figure 5: I$ miss-rate reductions, reported benchmarks, 16 kB".into(),
        &profiles::icache_reported(),
        &CacheConfig::figure4_set(),
        (16 * 1024, Side::Instruction),
        len,
    )
}

/// Figure 12: miss-rate reductions at 8 kB and 32 kB over the twelve
/// configurations (suite averages, as the paper plots aggregate bars).
pub fn figure12_with(engine: &Engine, len: RunLength) -> Vec<MissRateFigure> {
    let configs = CacheConfig::figure12_set();
    let mut figures = Vec::new();
    for size in [32 * 1024usize, 8 * 1024] {
        let kb = size / 1024;
        figures.push(run_figure(
            engine,
            &format!("fig12/{kb}kb/d"),
            format!("Figure 12: D$ miss-rate reductions, {kb} kB"),
            &profiles::all(),
            &configs,
            (size, Side::Data),
            len,
        ));
        figures.push(run_figure(
            engine,
            &format!("fig12/{kb}kb/i"),
            format!("Figure 12: I$ miss-rate reductions, {kb} kB"),
            &profiles::icache_reported(),
            &configs,
            (size, Side::Instruction),
            len,
        ));
    }
    figures
}

/// Related-work comparison (Section 7.1): the B-Cache against the
/// column-associative and skewed-associative caches and the HAC.
pub fn related_work_with(engine: &Engine, len: RunLength) -> MissRateFigure {
    run_figure(
        engine,
        "related",
        "Section 7.1: related-work D$ comparison, 16 kB".into(),
        &profiles::all(),
        &CacheConfig::related_set(),
        (16 * 1024, Side::Data),
        len,
    )
}

/// The suite split used when summarizing Figure 4 ("CINT2K"/"CFP2K").
pub fn suite_of(benchmark: &str) -> Option<Suite> {
    profiles::by_name(benchmark).map(|p| p.suite)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::default_parallelism;

    fn quick() -> RunLength {
        RunLength::with_records(100_000)
    }

    fn engine() -> Engine {
        Engine::new(default_parallelism())
    }

    #[test]
    fn figure4_has_all_benchmarks_and_configs() {
        let (fp, int) = figure4_with(&engine(), quick());
        assert_eq!(fp.rows.len(), 14);
        assert_eq!(int.rows.len(), 12);
        assert_eq!(fp.labels.len(), 9);
        assert!(fp.render().contains("Ave"));
    }

    #[test]
    fn figure4_average_orderings_match_the_paper() {
        let (fp, int) = figure4_with(&engine(), quick());
        for fig in [&fp, &int] {
            let red = |l: &str| fig.average_reduction(fig.column(l).unwrap());
            // Associativity staircase.
            assert!(red("4way") > red("2way"), "{}", fig.title);
            assert!(red("8way") > red("4way"), "{}", fig.title);
            // MF staircase with diminishing returns.
            assert!(red("MF4-BAS8") > red("MF2-BAS8"), "{}", fig.title);
            assert!(red("MF8-BAS8") > red("MF4-BAS8"), "{}", fig.title);
            assert!(
                red("MF16-BAS8") - red("MF8-BAS8") < 0.06,
                "MF16 should add little: {}",
                fig.title
            );
            // The paper's design point beats the victim buffer on average.
            assert!(red("MF8-BAS8") > red("victim16"), "{}", fig.title);
        }
    }

    #[test]
    fn figure5_reports_fifteen_benchmarks() {
        let fig = figure5_with(&engine(), quick());
        assert_eq!(fig.rows.len(), 15);
        let red = |l: &str| fig.average_reduction(fig.column(l).unwrap());
        assert!(
            red("MF8-BAS8") > red("victim16") + 0.3,
            "I$ B-Cache crushes the victim buffer"
        );
    }

    #[test]
    fn suite_lookup() {
        assert_eq!(suite_of("gcc"), Some(Suite::Int));
        assert_eq!(suite_of("swim"), Some(Suite::Fp));
        assert_eq!(suite_of("nonesuch"), None);
    }
}

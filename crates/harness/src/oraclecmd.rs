//! The `oracle` subcommand: closed-form expected-miss-rate predictions
//! (`crates/analytic`) cross-checked against the simulator
//! (`bcache-repro oracle [--seed S] [--jobs N] [--smoke] [--csv]`).
//!
//! The analytic models are exact under the independent reference model,
//! and the [`synthetic`] trace families are built
//! purely from memoryless `Hot` streams, so the simulated miss rate of
//! every (model, distribution) cell must converge to the closed form as
//! the trace grows. The subcommand sweeps record counts over the full
//! grid — direct-mapped, 4-way and the paper-default B-Cache at 16 kB
//! against the `uniform64k`, `zipf8` and `birthday64` families — and
//! reports the deviation of each cell against the statistically
//! justified band of [`analytic::convergence_tolerance`].
//!
//! A second, independent cross-check rides along: the `birthday64`
//! adversary has a closed-form miss rate from the birthday model
//! ([`analytic::birthday`]) that must agree with the King-formula
//! prediction — `1 − min(capacity, k)/k` with capacity 1 for both the
//! direct-mapped baseline *and* the B-Cache, whose programmable decoder
//! the adversary defeats by construction.
//!
//! Simulation jobs are sharded over the [`Engine`] worker pool and
//! aggregated positionally, so the report is bit-identical for every
//! `--jobs` value. `--smoke` shrinks the sweep to one short point and
//! widens the band (CI-friendly); any cell outside its band makes the
//! subcommand exit non-zero.

use std::fmt::Write as _;

use analytic::{
    bcache_model, birthday, conventional_model, convergence_tolerance, AnalyticError, BlockDist,
};
use bcache_core::BCacheParams;
use cache_sim::{CacheGeometry, PolicyKind};
use trace_gen::synthetic;

use crate::cli;
use crate::config::{CacheConfig, L1_BYTES};
use crate::parallel::{default_parallelism, job_seed, Engine};
use crate::run::{RunLength, Side};

const LINE: usize = 32;

/// The model points of the oracle grid: the baseline, a conventional
/// 4-way, and the paper-default B-Cache.
pub fn oracle_configs() -> Vec<CacheConfig> {
    vec![
        CacheConfig::DirectMapped,
        CacheConfig::SetAssoc(4),
        CacheConfig::BCache { mf: 8, bas: 8 },
    ]
}

/// The trace families of the oracle grid (all IRM-exact).
pub fn oracle_distributions() -> Vec<&'static str> {
    vec!["uniform64k", "zipf8", "birthday64"]
}

/// Options of the `oracle` subcommand.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct OracleOptions {
    /// Base trace seed (job seeds derive from it).
    pub seed: u64,
    /// Worker threads (output is identical for every value).
    pub jobs: usize,
    /// One short sweep point with a widened band (CI smoke).
    pub smoke: bool,
    /// Emit CSV instead of the text table.
    pub csv: bool,
}

impl Default for OracleOptions {
    fn default() -> Self {
        OracleOptions {
            seed: 1,
            jobs: default_parallelism(),
            smoke: false,
            csv: false,
        }
    }
}

impl OracleOptions {
    /// Parses the option tail after `oracle`.
    pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<OracleOptions, String> {
        let a = cli::parse(cli::ORACLE_FLAGS, args)?;
        Ok(OracleOptions {
            seed: a.int(&cli::SEED).unwrap_or(OracleOptions::default().seed),
            jobs: a.jobs(),
            smoke: a.has(&cli::SMOKE),
            csv: a.has(&cli::CSV),
        })
    }

    /// Record counts swept, smallest first.
    pub fn sweep(&self) -> Vec<u64> {
        if self.smoke {
            vec![30_000]
        } else {
            vec![50_000, 200_000, 800_000]
        }
    }

    /// Band-widening factor: the smoke sweep runs at a record count
    /// where the warm-up transient still matters, so its band is wider.
    pub fn slack(&self) -> f64 {
        if self.smoke {
            3.0
        } else {
            1.0
        }
    }
}

/// One (model, distribution, records) cell of the sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct OracleCell {
    /// Configuration label (`baseline`, `4way`, `MF8-BAS8`).
    pub model: String,
    /// Trace-family name.
    pub dist: &'static str,
    /// Trace records generated.
    pub records: u64,
    /// Post-warm-up data accesses actually measured.
    pub accesses: u64,
    /// Simulated post-warm-up miss rate.
    pub simulated: f64,
    /// Closed-form expected miss rate.
    pub analytic: f64,
    /// Accepted deviation band (slack included).
    pub tolerance: f64,
    /// Whether `|simulated − analytic| ≤ tolerance`.
    pub pass: bool,
}

impl OracleCell {
    /// Absolute simulated-vs-analytic deviation.
    pub fn deviation(&self) -> f64 {
        (self.simulated - self.analytic).abs()
    }
}

/// The outcome of an oracle sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct OracleReport {
    /// Base seed of the sweep.
    pub seed: u64,
    /// Every cell, in (records, distribution, model) order.
    pub cells: Vec<OracleCell>,
}

impl OracleReport {
    /// Number of cells outside their tolerance band.
    pub fn failures(&self) -> usize {
        self.cells.iter().filter(|c| !c.pass).count()
    }

    /// Renders the text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "analytical oracle: {} cell(s) at 16kB/32B, seed {} \
             (band: |simulated - analytic| <= tolerance)",
            self.cells.len(),
            self.seed
        )
        .unwrap();
        writeln!(
            out,
            "{:<10} {:<12} {:>8} {:>9} {:>10} {:>10} {:>10} {:>10}  verdict",
            "model",
            "dist",
            "records",
            "accesses",
            "simulated",
            "analytic",
            "deviation",
            "tolerance"
        )
        .unwrap();
        for c in &self.cells {
            writeln!(
                out,
                "{:<10} {:<12} {:>8} {:>9} {:>10.6} {:>10.6} {:>10.6} {:>10.6}  {}",
                c.model,
                c.dist,
                c.records,
                c.accesses,
                c.simulated,
                c.analytic,
                c.deviation(),
                c.tolerance,
                if c.pass { "ok" } else { "FAIL" }
            )
            .unwrap();
        }
        writeln!(
            out,
            "oracle: {} cell(s), {} failure(s)",
            self.cells.len(),
            self.failures()
        )
        .unwrap();
        out
    }

    /// Renders the sweep as CSV.
    pub fn render_csv(&self) -> String {
        let mut out = String::from(
            "model,dist,records,accesses,simulated,analytic,deviation,tolerance,pass\n",
        );
        for c in &self.cells {
            writeln!(
                out,
                "{},{},{},{},{:.9},{:.9},{:.9},{:.9},{}",
                c.model,
                c.dist,
                c.records,
                c.accesses,
                c.simulated,
                c.analytic,
                c.deviation(),
                c.tolerance,
                c.pass
            )
            .unwrap();
        }
        out
    }
}

/// Closed-form expected miss rate of `config` (at [`L1_BYTES`]) over
/// the named synthetic family, plus the model's resident-state count
/// (the mixing-scale term of the tolerance band).
///
/// # Errors
///
/// [`AnalyticError`] when the family is not IRM, the configuration has
/// no closed form, or the King recursion would exceed its work cap.
///
/// # Panics
///
/// Panics if `dist` is not a [`synthetic`] family name.
pub fn analytic_miss(config: &CacheConfig, dist: &str) -> Result<(f64, u64), AnalyticError> {
    let profile =
        synthetic::by_name(dist).unwrap_or_else(|| panic!("unknown synthetic family {dist}"));
    let blocks =
        profile
            .block_distribution(LINE as u64)
            .ok_or(AnalyticError::UnsupportedConfig {
                what: "non-IRM trace family",
            })?;
    let blocks = BlockDist::new(blocks)?;
    let spec = match *config {
        CacheConfig::DirectMapped => {
            conventional_model(&CacheGeometry::new(L1_BYTES, LINE, 1).unwrap(), &blocks)
        }
        CacheConfig::SetAssoc(n) => {
            conventional_model(&CacheGeometry::new(L1_BYTES, LINE, n).unwrap(), &blocks)
        }
        CacheConfig::BCache { mf, bas } => {
            let geom = CacheGeometry::new(L1_BYTES, LINE, 1).unwrap();
            bcache_model(
                &BCacheParams::new(geom, mf, bas, PolicyKind::Lru).unwrap(),
                &blocks,
            )?
        }
        _ => {
            return Err(AnalyticError::UnsupportedConfig {
                what: "configuration outside the closed form",
            })
        }
    };
    Ok((spec.expected_miss_rate()?, spec.resident_states()))
}

/// The closed-form miss rate the birthday model assigns to the aligned
/// `birthday64` adversary under `config` — an independent cross-check
/// of [`analytic_miss`] (both the direct-mapped baseline and the
/// B-Cache collapse to one resident block for the aligned family).
pub fn birthday_expected_miss(config: &CacheConfig) -> Option<f64> {
    let capacity: u64 = match *config {
        // All 64 blocks share one set / one PI class.
        CacheConfig::DirectMapped | CacheConfig::BCache { .. } => 1,
        CacheConfig::SetAssoc(n) => n as u64,
        _ => return None,
    };
    Some(birthday::aligned_adversary_miss_rate(capacity, 64))
}

/// Runs the sweep on `engine`. Cells are ordered (records, dist,
/// model); jobs are sharded but aggregated positionally, so the result
/// is identical for every worker count.
pub fn oracle_report_with(engine: &Engine, opts: &OracleOptions) -> OracleReport {
    let configs = oracle_configs();
    let mut meta = Vec::new();
    let mut jobs: Vec<Box<dyn Fn() -> (u64, u64) + Send + Sync>> = Vec::new();
    for records in opts.sweep() {
        let mut len = RunLength::with_records(records);
        len.seed = opts.seed;
        for dist in oracle_distributions() {
            let profile = synthetic::by_name(dist).expect("oracle family exists");
            let trace = engine.side_trace(&profile, len, Side::Data);
            for config in &configs {
                let (analytic, states) =
                    analytic_miss(config, dist).expect("oracle grid cells have closed forms");
                meta.push((config.label(), dist, records, analytic, states));
                let trace = trace.clone();
                let config = *config;
                let name = profile.name;
                jobs.push(Box::new(move || {
                    let seed = job_seed(len.seed, name, Side::Data);
                    let mut model = config.build(L1_BYTES, seed).expect("config must build");
                    trace.replay(model.as_mut());
                    let total = model.stats().total();
                    (total.accesses(), total.misses())
                }));
            }
        }
    }
    let results = engine.run(jobs);
    let cells = meta
        .into_iter()
        .zip(results)
        .map(
            |((model, dist, records, analytic, states), (accesses, misses))| {
                let simulated = misses as f64 / accesses.max(1) as f64;
                let tolerance =
                    convergence_tolerance(analytic, accesses.max(1), states) * opts.slack();
                OracleCell {
                    model,
                    dist,
                    records,
                    accesses,
                    simulated,
                    analytic,
                    tolerance,
                    pass: (simulated - analytic).abs() <= tolerance,
                }
            },
        )
        .collect();
    OracleReport {
        seed: opts.seed,
        cells,
    }
}

/// [`oracle_report_with`] on a fresh engine with `opts.jobs` workers.
pub fn oracle_report(opts: &OracleOptions) -> OracleReport {
    oracle_report_with(&Engine::new(opts.jobs), opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse_and_reject() {
        let o = OracleOptions::parse(&["--seed", "9", "--jobs", "2", "--smoke", "--csv"]).unwrap();
        assert_eq!((o.seed, o.jobs, o.smoke, o.csv), (9, 2, true, true));
        assert!(OracleOptions::parse(&["--seed"]).is_err());
        assert!(OracleOptions::parse(&["--jobs", "0"]).is_err());
        assert!(OracleOptions::parse(&["--records", "5"]).is_err());
        assert!(o.sweep().len() == 1 && o.slack() > 1.0);
        let full = OracleOptions::default();
        assert!(full.sweep().len() > 1 && full.slack() == 1.0);
    }

    #[test]
    fn every_grid_cell_has_a_closed_form() {
        for config in oracle_configs() {
            for dist in oracle_distributions() {
                let (miss, states) = analytic_miss(&config, dist)
                    .unwrap_or_else(|e| panic!("{} x {dist}: {e}", config.label()));
                assert!((0.0..=1.0).contains(&miss), "{} x {dist}", config.label());
                assert!(states > 0, "{} x {dist}", config.label());
            }
        }
    }

    #[test]
    fn king_formula_agrees_with_the_birthday_model() {
        // Two independent closed forms for the aligned adversary.
        for config in oracle_configs() {
            let (king, _) = analytic_miss(&config, "birthday64").unwrap();
            let birthday = birthday_expected_miss(&config).unwrap();
            assert!(
                (king - birthday).abs() < 1e-9,
                "{}: king {king} vs birthday {birthday}",
                config.label()
            );
        }
    }

    #[test]
    fn analytic_exposes_the_papers_contrast_on_zipf8() {
        // The zipf8 footprint fits the B-Cache exactly (zero steady-state
        // misses) while the direct-mapped baseline keeps conflicting —
        // the paper's headline, stated analytically.
        let (dm, _) = analytic_miss(&CacheConfig::DirectMapped, "zipf8").unwrap();
        let (bc, _) = analytic_miss(&CacheConfig::BCache { mf: 8, bas: 8 }, "zipf8").unwrap();
        assert!(bc.abs() < 1e-12, "B-Cache holds the whole footprint: {bc}");
        assert!(dm > 0.3, "the baseline must conflict: {dm}");
    }

    #[test]
    fn smoke_report_is_clean_and_job_count_invariant() {
        let opts = OracleOptions {
            smoke: true,
            jobs: 2,
            ..OracleOptions::default()
        };
        let a = oracle_report(&opts);
        assert_eq!(a.failures(), 0, "{}", a.render());
        assert_eq!(a.cells.len(), 9);
        let b = oracle_report(&OracleOptions { jobs: 5, ..opts });
        assert_eq!(a.render(), b.render(), "job count must not matter");
        assert!(a.render_csv().lines().count() == 10);
    }
}

//! Whole-processor experiments: Figure 8 (IPC improvement) and Figure 9
//! (normalized memory energy), which share the same simulation runs.

use bcache_core::BCacheParams;
use cache_sim::{CacheGeometry, MemoryHierarchy};
use cpu_model::{Cpu, CpuConfig};
use power_model::{
    bcache_access_pj, block_refill_pj, conventional_access_pj, evaluate, victim_access_pj,
    EventEnergies, RunCounts,
};
use trace_gen::{profiles, Trace};

use crate::config::{CacheConfig, L1_BYTES};
use crate::parallel::{job_seed, Engine};
use crate::report::{pct, TextTable};
use crate::run::{mean, RunLength, Side};

/// One configuration's simulation outcome on one benchmark.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfOutcome {
    /// Configuration label.
    pub label: String,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Event counts for the energy model.
    pub counts: RunCounts,
    /// Per-access L1 energy of this configuration (pJ).
    pub l1_access_pj: f64,
}

/// All configurations' outcomes on one benchmark (baseline first).
#[derive(Clone, Debug, PartialEq)]
pub struct PerfRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Baseline plus comparison outcomes.
    pub outcomes: Vec<PerfOutcome>,
}

impl PerfRow {
    /// IPC improvement of configuration `i` (0 = baseline) vs baseline.
    pub fn ipc_improvement(&self, i: usize) -> f64 {
        self.outcomes[i].ipc / self.outcomes[0].ipc - 1.0
    }

    /// Normalized total memory energy per configuration (baseline = 1.0).
    pub fn normalized_energy(&self) -> Vec<f64> {
        let geom = CacheGeometry::new(L1_BYTES, 32, 1).expect("valid geometry");
        let l2_geom = CacheGeometry::new(256 * 1024, 128, 4).expect("valid geometry");
        let l2_pj = conventional_access_pj(&l2_geom).total_pj();
        let offchip_pj = 100.0 * conventional_access_pj(&geom).total_pj();
        let refill_pj = block_refill_pj(&geom);
        let runs: Vec<(RunCounts, EventEnergies)> = self
            .outcomes
            .iter()
            .map(|o| {
                (
                    o.counts,
                    EventEnergies {
                        l1_access_pj: o.l1_access_pj,
                        l2_access_pj: l2_pj,
                        l1_refill_pj: refill_pj,
                        offchip_pj,
                    },
                )
            })
            .collect();
        evaluate(&runs).into_iter().map(|r| r.normalized).collect()
    }
}

/// Per-access L1 energy for a configuration (pJ).
fn l1_energy_pj(config: &CacheConfig, l1_miss_rate: f64) -> f64 {
    let geom = |assoc: usize| CacheGeometry::new(L1_BYTES, 32, assoc).expect("valid geometry");
    match *config {
        CacheConfig::DirectMapped => conventional_access_pj(&geom(1)).total_pj(),
        CacheConfig::SetAssoc(n) => conventional_access_pj(&geom(n)).total_pj(),
        CacheConfig::Victim(entries) => {
            // Buffer probes happen on main-array misses; the overall miss
            // rate is a close lower bound for the probe rate.
            victim_access_pj(&geom(1), entries, l1_miss_rate).total_pj()
        }
        CacheConfig::BCache { mf, bas } => {
            let params = BCacheParams::new(geom(1), mf, bas, cache_sim::PolicyKind::Lru)
                .expect("valid B-Cache point");
            bcache_access_pj(&params).total_pj()
        }
        // Related-work configs: approximate with a same-sized 2-way.
        // Column-associative and AGAC keep single-way data accesses but
        // pay extra probes. The HAC, way-halting, PAM and difference-bit
        // configurations are `SetAssoc(n)`, priced as a conventional
        // n-way read: what their lookup tricks save is not priced.
        CacheConfig::ColumnAssoc | CacheConfig::SkewedAssoc | CacheConfig::Agac => {
            conventional_access_pj(&geom(2)).total_pj()
        }
    }
}

/// Runs one benchmark under one L1 configuration through the full CPU +
/// hierarchy and extracts the outcome.
pub fn run_config(
    profile: &trace_gen::BenchmarkProfile,
    config: &CacheConfig,
    len: RunLength,
) -> PerfOutcome {
    let records = Trace::new(profile, len.seed).take_buffer(len.records as usize);
    run_config_on(profile, config, &records, len)
}

/// [`run_config`] over a pre-generated record buffer (the engine path;
/// the records must come from `Trace::new(profile, len.seed)`).
fn run_config_on(
    profile: &trace_gen::BenchmarkProfile,
    config: &CacheConfig,
    records: &trace_gen::TraceBuffer,
    len: RunLength,
) -> PerfOutcome {
    // Both L1s get job-derived seeds (one per side), like every other
    // driver; no paper configuration's model reads them (see
    // `CacheConfig::spec`).
    let l1i = config
        .build(
            L1_BYTES,
            job_seed(len.seed, profile.name, Side::Instruction),
        )
        .expect("config must build");
    let l1d = config
        .build(L1_BYTES, job_seed(len.seed, profile.name, Side::Data))
        .expect("config must build");
    let hierarchy = MemoryHierarchy::new(l1i, l1d);
    let mut cpu = Cpu::new(CpuConfig::default(), hierarchy);
    let report = cpu.run(records.iter());

    let h = cpu.hierarchy();
    let l1i_stats = h.l1i().stats().total();
    let l1d_stats = h.l1d().stats().total();
    let counts = RunCounts {
        l1_accesses: l1i_stats.accesses() + l1d_stats.accesses(),
        l1_misses: l1i_stats.misses() + l1d_stats.misses(),
        l2_accesses: h.l2_accesses(),
        l2_misses: h.memory_accesses(),
        cycles: report.cycles,
    };
    let miss_rate = if counts.l1_accesses == 0 {
        0.0
    } else {
        counts.l1_misses as f64 / counts.l1_accesses as f64
    };
    PerfOutcome {
        label: config.label(),
        ipc: report.ipc(),
        counts,
        l1_access_pj: l1_energy_pj(config, miss_rate),
    }
}

/// Runs Figures 8/9's simulations: all 26 benchmarks, baseline plus the
/// five comparison configurations, on the caller's [`Engine`]. One job
/// per (benchmark, configuration), all replaying the benchmark's cached
/// trace through the full CPU model. Each benchmark's records are
/// declared for its `configs.len()` jobs, so the cache releases them
/// once the last of those jobs has fetched them.
pub fn run_perf_with(engine: &Engine, len: RunLength) -> Vec<PerfRow> {
    let mut configs = vec![CacheConfig::DirectMapped];
    configs.extend(CacheConfig::figure8_set());
    let benchmarks = profiles::all();
    for p in &benchmarks {
        engine.traces().expect_uses(p, len, configs.len());
    }
    let jobs: Vec<_> = benchmarks
        .iter()
        .flat_map(|p| {
            configs.iter().map(move |c| {
                move || {
                    let records = engine.trace(p, len);
                    run_config_on(p, c, &records, len)
                }
            })
        })
        .collect();
    let outcomes = engine.run(jobs);
    benchmarks
        .iter()
        .zip(outcomes.chunks(configs.len()))
        .map(|(p, chunk)| PerfRow {
            benchmark: p.name.to_string(),
            outcomes: chunk.to_vec(),
        })
        .collect()
}

/// Renders Figure 8 (IPC improvement over baseline) from perf rows.
pub fn render_figure8(rows: &[PerfRow]) -> String {
    let labels: Vec<String> = rows[0]
        .outcomes
        .iter()
        .skip(1)
        .map(|o| o.label.clone())
        .collect();
    let mut header = vec!["benchmark".to_string(), "base-IPC".to_string()];
    header.extend(labels.iter().cloned());
    let mut t = TextTable::new(header);
    for r in rows {
        let mut cells = vec![r.benchmark.clone(), format!("{:.3}", r.outcomes[0].ipc)];
        cells.extend((1..r.outcomes.len()).map(|i| pct(r.ipc_improvement(i))));
        t.row(cells);
    }
    let mut ave = vec!["Ave".to_string(), String::new()];
    ave.extend((1..rows[0].outcomes.len()).map(|i| pct(mean(rows, |r| r.ipc_improvement(i)))));
    t.row(ave);
    format!(
        "Figure 8: IPC improvement over the 16 kB direct-mapped baseline\n{}",
        t.render()
    )
}

/// Renders Figure 9 (normalized memory energy) from perf rows.
pub fn render_figure9(rows: &[PerfRow]) -> String {
    let labels: Vec<String> = rows[0].outcomes.iter().map(|o| o.label.clone()).collect();
    let mut header = vec!["benchmark".to_string()];
    header.extend(labels.iter().skip(1).cloned());
    let mut t = TextTable::new(header);
    let mut sums = vec![0.0; rows[0].outcomes.len()];
    for r in rows {
        let norm = r.normalized_energy();
        let mut cells = vec![r.benchmark.clone()];
        cells.extend(norm.iter().skip(1).map(|x| format!("{x:.3}")));
        t.row(cells);
        for (s, x) in sums.iter_mut().zip(&norm) {
            *s += x;
        }
    }
    let n = rows.len() as f64;
    let mut ave = vec!["Ave".to_string()];
    ave.extend(sums.iter().skip(1).map(|s| format!("{:.3}", s / n)));
    t.row(ave);
    format!(
        "Figure 9: total memory energy normalized to the baseline (lower is better)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RunLength {
        RunLength::with_records(60_000)
    }

    #[test]
    fn bcache_improves_equake_ipc() {
        let p = profiles::by_name("equake").unwrap();
        let base = run_config(&p, &CacheConfig::DirectMapped, quick());
        let bc = run_config(&p, &CacheConfig::BCache { mf: 8, bas: 8 }, quick());
        assert!(
            bc.ipc > base.ipc * 1.03,
            "equake should gain clearly: {} vs {}",
            bc.ipc,
            base.ipc
        );
    }

    #[test]
    fn capacity_bound_mcf_is_insensitive() {
        let p = profiles::by_name("mcf").unwrap();
        let base = run_config(&p, &CacheConfig::DirectMapped, quick());
        let w8 = run_config(&p, &CacheConfig::SetAssoc(8), quick());
        let rel = (w8.ipc / base.ipc - 1.0).abs();
        assert!(rel < 0.05, "mcf IPC should barely move: {rel}");
    }

    #[test]
    fn energy_normalization_baseline_is_one() {
        let p = profiles::by_name("gzip").unwrap();
        let row = PerfRow {
            benchmark: "gzip".into(),
            outcomes: vec![
                run_config(&p, &CacheConfig::DirectMapped, quick()),
                run_config(&p, &CacheConfig::SetAssoc(8), quick()),
            ],
        };
        let norm = row.normalized_energy();
        assert!((norm[0] - 1.0).abs() < 1e-9);
        assert!(norm[1] > norm[0], "8-way burns more energy per access");
    }

    #[test]
    fn perf_outcome_counts_are_consistent() {
        let p = profiles::by_name("vpr").unwrap();
        let o = run_config(&p, &CacheConfig::DirectMapped, quick());
        assert!(o.counts.l1_accesses > 0);
        assert!(o.counts.l1_misses <= o.counts.l1_accesses);
        assert!(o.counts.cycles > 0);
        assert!(o.ipc > 0.0 && o.ipc <= 4.0);
    }

    #[test]
    fn render_contains_average_row() {
        let p = profiles::by_name("art").unwrap();
        let rows = vec![PerfRow {
            benchmark: "art".into(),
            outcomes: vec![
                run_config(&p, &CacheConfig::DirectMapped, quick()),
                run_config(&p, &CacheConfig::BCache { mf: 8, bas: 8 }, quick()),
            ],
        }];
        assert!(render_figure8(&rows).contains("Ave"));
        assert!(render_figure9(&rows).contains("Ave"));
    }
}

//! Program-derived validation: replay the VM kernel suite (real
//! algorithms executed by `trace-gen`'s register machine) against the
//! paper's cache configurations.
//!
//! The statistical SPEC2K profiles drive the headline figures; this
//! experiment cross-checks the same orderings on traces that come from
//! actual program semantics — in particular `conflict_copy`, the
//! programmatic version of the paper's Figure 1 thrash example.

use cache_sim::CacheModel;
use trace_gen::kernels::{run_kernel, suite};

use crate::config::{CacheConfig, L1_BYTES};
use crate::parallel::Engine;
use crate::report::{pct, pct2, TextTable};
use crate::run::{replay_models, Side};

/// One kernel's miss rates across configurations.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelResult {
    /// Kernel name.
    pub kernel: String,
    /// Dynamic instructions executed.
    pub instructions: u64,
    /// Baseline (direct-mapped) D$ miss rate.
    pub baseline_miss_rate: f64,
    /// `(label, miss rate)` per comparison configuration.
    pub outcomes: Vec<(String, f64)>,
}

impl KernelResult {
    /// Miss-rate reduction of configuration `i` versus the baseline.
    pub fn reduction(&self, i: usize) -> f64 {
        if self.baseline_miss_rate == 0.0 {
            0.0
        } else {
            1.0 - self.outcomes[i].1 / self.baseline_miss_rate
        }
    }
}

/// The configurations compared by the kernel experiment.
pub fn kernel_configs() -> Vec<CacheConfig> {
    vec![
        CacheConfig::SetAssoc(2),
        CacheConfig::SetAssoc(4),
        CacheConfig::SetAssoc(8),
        CacheConfig::Victim(16),
        CacheConfig::BCache { mf: 8, bas: 8 },
    ]
}

/// Runs every kernel in the suite against the baseline plus
/// [`kernel_configs`], feeding the data side of the trace, on the
/// caller's [`Engine`]: one job per kernel (each job executes the
/// kernel's VM program, then replays its trace into every configuration
/// in one pass).
pub fn run_kernels_with(engine: &Engine, fuel: u64) -> Vec<KernelResult> {
    let kernels = suite();
    let jobs: Vec<_> = kernels
        .iter()
        .map(|k| move || run_one_kernel(k, fuel))
        .collect();
    engine.run(jobs)
}

fn run_one_kernel(k: &trace_gen::kernels::Kernel, fuel: u64) -> KernelResult {
    let configs = kernel_configs();
    let (m, trace) = run_kernel(k, fuel);
    debug_assert!(m.halted() || m.executed() == fuel);
    // Column 0 is the baseline; no warm-up, the kernels start cold.
    let mut models: Vec<Box<dyn CacheModel>> = std::iter::once(&CacheConfig::DirectMapped)
        .chain(&configs)
        .map(|c| c.build(L1_BYTES, 1).unwrap())
        .collect();
    let mut all: Vec<&mut dyn CacheModel> = models
        .iter_mut()
        .map(|m| m.as_mut() as &mut dyn CacheModel)
        .collect();
    replay_models(trace, &mut all, Side::Data, 0);
    KernelResult {
        kernel: k.name.to_string(),
        instructions: m.executed(),
        baseline_miss_rate: models[0].stats().miss_rate(),
        outcomes: configs
            .iter()
            .zip(&models[1..])
            .map(|(c, m)| (c.label(), m.stats().miss_rate()))
            .collect(),
    }
}

/// Renders the kernel-suite table.
pub fn render_kernels(results: &[KernelResult]) -> String {
    let mut header = vec![
        "kernel".to_string(),
        "instrs".to_string(),
        "dm-miss".to_string(),
    ];
    header.extend(results[0].outcomes.iter().map(|(l, _)| l.clone()));
    let mut t = TextTable::new(header);
    for r in results {
        let mut cells = vec![
            r.kernel.clone(),
            r.instructions.to_string(),
            pct2(r.baseline_miss_rate),
        ];
        cells.extend((0..r.outcomes.len()).map(|i| pct(r.reduction(i))));
        t.row(cells);
    }
    format!(
        "Kernel suite (VM-executed programs): D$ miss-rate reductions vs direct-mapped, 16 kB\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new(crate::parallel::default_parallelism())
    }

    #[test]
    fn conflict_copy_reproduces_figure1_on_a_real_program() {
        let results = run_kernels_with(&engine(), 3_000_000);
        let cc = results
            .iter()
            .find(|r| r.kernel == "conflict_copy")
            .expect("kernel exists");
        assert!(
            cc.baseline_miss_rate > 0.15,
            "DM must thrash: {}",
            cc.baseline_miss_rate
        );
        let col = |label: &str| {
            cc.outcomes
                .iter()
                .position(|(l, _)| l == label)
                .expect("config present")
        };
        // Six conflicting arrays: 8-way and the B-Cache absorb them;
        // 2-way and 4-way cannot.
        assert!(cc.reduction(col("8way")) > 0.8, "{:?}", cc);
        assert!(cc.reduction(col("MF8-BAS8")) > 0.8, "{:?}", cc);
        assert!(cc.reduction(col("MF8-BAS8")) > cc.reduction(col("4way")));
    }

    #[test]
    fn list_walk_is_capacity_bound() {
        let results = run_kernels_with(&engine(), 3_000_000);
        let lw = results.iter().find(|r| r.kernel == "list_walk").unwrap();
        // 4096 shuffled 16-byte nodes = 64 kB of pointer chasing: no
        // associativity saves it.
        for (i, (label, _)) in lw.outcomes.iter().enumerate() {
            assert!(lw.reduction(i) < 0.35, "{label}: {}", lw.reduction(i));
        }
    }

    #[test]
    fn render_lists_every_kernel() {
        let results = run_kernels_with(&engine(), 500_000);
        let s = render_kernels(&results);
        for name in [
            "matmul",
            "list_walk",
            "stride_sum",
            "histogram",
            "conflict_copy",
        ] {
            assert!(s.contains(name), "{s}");
        }
    }
}

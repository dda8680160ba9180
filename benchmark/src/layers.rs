//! The calls into the simulator's layers that the workloads are built
//! from, each timed (and spanned when a run is traced) from the outside:
//!
//! - **trace-gen**: [`generate`] (`Trace::new` + `take_buffer`);
//! - **extraction**: [`extract`] (`SideTrace::extract`);
//! - **kernels**: [`replay_fleet`] (`SideTrace::replay` of the 11-model
//!   fleet, B-Cache built concretely so its PD counters are readable);
//! - **cpu-model**: [`cpu_probe`] (`Cpu::run`, with the L1 part timed
//!   by replaying the same L1I/L1D streams through per-access `access`).
//!
//! [`probe`] runs all of them over a workload's own inputs, which is how
//! a traced run reports a layer the workload itself does not exercise.

use std::sync::Arc;
use std::time::Duration;

use bcache_core::{BCacheParams, BalancedCache};
use cache_sim::{CacheGeometry, CacheModel, MemoryHierarchy, PolicyKind};
use cpu_model::{Cpu, CpuConfig};
use harness::bench::model_set;
use harness::run::SideTrace;
use harness::{job_seed, CacheConfig, RunLength, Side};
use telemetry::SpanId;
use trace_gen::{BenchmarkProfile, Trace, TraceBuffer};

use crate::trace::{timed, Tracer};

/// L1 capacity every workload simulates (the paper's 16 kB point).
pub const L1_BYTES: usize = 16 * 1024;

/// Fleet key of the paper's B-Cache design point.
pub const BCACHE_MODEL: &str = "bcache-mf8-bas8";

/// One input trace of a workload: a benchmark, the side its caches see,
/// and the run length (whose seed is derived from the `--seed`).
#[derive(Clone, Debug)]
pub struct Input {
    /// Benchmark profile.
    pub profile: BenchmarkProfile,
    /// Instruction or data side.
    pub side: Side,
    /// Records, warm-up and trace seed.
    pub len: RunLength,
}

impl Input {
    /// `benchmark-I` / `benchmark-D`, as in the paper's figures.
    pub fn label(&self) -> String {
        let side = match self.side {
            Side::Instruction => 'I',
            Side::Data => 'D',
        };
        format!("{}-{side}", self.profile.name)
    }

    /// The per-job model seed the harness derives for this input.
    pub fn model_seed(&self) -> u64 {
        job_seed(self.len.seed, self.profile.name, self.side)
    }
}

/// An input whose side stream has been extracted.
#[derive(Clone, Debug)]
pub struct Extracted {
    /// The input it came from.
    pub input: Input,
    /// The extracted access stream.
    pub trace: Arc<SideTrace>,
}

/// Work and time of the trace-gen and extraction layers.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct GenTally {
    /// Records generated.
    pub records: u64,
    /// Accesses the extraction produced from them.
    pub accesses: u64,
    /// Time in `Trace::new` + `take_buffer`.
    pub gen: Duration,
    /// Time in `SideTrace::extract`.
    pub extract: Duration,
}

/// Generates the records of `input` (trace-gen layer).
pub fn generate(
    input: &Input,
    tracer: Option<&Tracer>,
    parent: Option<SpanId>,
    tally: &mut GenTally,
) -> TraceBuffer {
    let records = harness::run::record_count(input.len.records);
    let (buf, took) = timed(
        tracer,
        parent,
        || format!("trace_gen {}", input.profile.name),
        |_| Trace::new(&input.profile, input.len.seed).take_buffer(records),
    );
    tally.records += buf.len() as u64;
    tally.gen += took;
    buf
}

/// Extracts the side stream of `input` from its records (extraction
/// layer).
pub fn extract(
    input: &Input,
    records: &TraceBuffer,
    tracer: Option<&Tracer>,
    parent: Option<SpanId>,
    tally: &mut GenTally,
) -> SideTrace {
    let (trace, took) = timed(
        tracer,
        parent,
        || format!("extract {}", input.label()),
        |_| SideTrace::extract(records.iter(), input.side, input.len.warmup),
    );
    tally.accesses += trace.accesses().len() as u64;
    tally.extract += took;
    trace
}

/// Generates and extracts every input, one at a time so at most one
/// record buffer is alive.
pub fn build(
    inputs: &[Input],
    tracer: Option<&Tracer>,
    parent: Option<SpanId>,
    tally: &mut GenTally,
) -> Vec<Extracted> {
    inputs
        .iter()
        .map(|input| {
            let records = generate(input, tracer, parent, tally);
            let trace = extract(input, &records, tracer, parent, tally);
            Extracted {
                input: input.clone(),
                trace: Arc::new(trace),
            }
        })
        .collect()
}

/// A fleet model, with the B-Cache kept concrete for its PD counters.
enum FleetModel {
    Plain(Box<dyn CacheModel>),
    BCache(Box<BalancedCache>),
}

impl FleetModel {
    fn build(config: CacheConfig, seed: u64) -> FleetModel {
        match config {
            // Built exactly as `CacheConfig::build` builds it.
            CacheConfig::BCache { mf, bas } => {
                let geom = CacheGeometry::new(L1_BYTES, 32, 1).expect("16 kB DM geometry is valid");
                let params = BCacheParams::new(geom, mf, bas, PolicyKind::Lru)
                    .expect("the fleet's B-Cache point is valid at 16 kB")
                    .with_seed(seed);
                FleetModel::BCache(Box::new(BalancedCache::new(params)))
            }
            other => FleetModel::Plain(
                other
                    .build(L1_BYTES, seed)
                    .expect("every fleet model builds at 16 kB"),
            ),
        }
    }

    fn model(&mut self) -> &mut dyn CacheModel {
        match self {
            FleetModel::Plain(m) => m.as_mut(),
            FleetModel::BCache(b) => b.as_mut(),
        }
    }

    fn counts(&self) -> Counts {
        let (stats, pd_reprograms) = match self {
            FleetModel::Plain(m) => (m.stats(), 0),
            FleetModel::BCache(b) => (b.stats(), b.pd_stats().misses_with_pd_miss),
        };
        let total = stats.total();
        Counts {
            accesses: total.accesses(),
            misses: total.misses(),
            writebacks: stats.writebacks(),
            pd_reprograms,
        }
    }
}

/// The exact post-warm-up outcome of one (input, model) replay.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Counts {
    /// Post-warm-up accesses.
    pub accesses: u64,
    /// Post-warm-up misses.
    pub misses: u64,
    /// Post-warm-up write-backs.
    pub writebacks: u64,
    /// Post-warm-up PD reprograms (B-Cache only, else 0).
    pub pd_reprograms: u64,
}

/// One timed kernel replay.
#[derive(Clone, Debug)]
pub struct KernelRun {
    /// Fleet key of the model.
    pub model: &'static str,
    /// Index of the input in the replayed slice.
    pub input: usize,
    /// Accesses fed, warm-up prefix included.
    pub fed: u64,
    /// Post-warm-up counters.
    pub counts: Counts,
    /// Host time of the replay.
    pub took: Duration,
}

/// Replays every input through every fleet model with the batched
/// kernels (`SideTrace::replay`), one model at a time.
pub fn replay_fleet(
    inputs: &[Extracted],
    tracer: Option<&Tracer>,
    parent: Option<SpanId>,
) -> Vec<KernelRun> {
    let mut runs = Vec::with_capacity(inputs.len() * model_set().len());
    for (i, x) in inputs.iter().enumerate() {
        for (name, config) in model_set() {
            let mut m = FleetModel::build(config, x.input.model_seed());
            let ((), took) = timed(
                tracer,
                parent,
                || format!("kernel {name} {}", x.input.label()),
                |_| x.trace.replay(m.model()),
            );
            runs.push(KernelRun {
                model: name,
                input: i,
                fed: x.trace.accesses().len() as u64,
                counts: m.counts(),
                took,
            });
        }
    }
    runs
}

/// The same replay through the per-access `access` path instead of the
/// batched kernels: an independent path whose counters must agree
/// exactly with [`replay_fleet`]'s.
pub fn replay_per_access(x: &Extracted, config: CacheConfig) -> Counts {
    let mut m = FleetModel::build(config, x.input.model_seed());
    let accesses = x.trace.accesses();
    let reset = x.trace.reset_at();
    for (i, &(addr, kind)) in accesses.iter().enumerate() {
        if reset == Some(i) {
            m.model().reset_stats();
        }
        m.model().access(addr, kind);
    }
    if reset == Some(accesses.len()) {
        m.model().reset_stats();
    }
    m.counts()
}

/// Work and time of the cpu-model layer on one record buffer.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct CpuTally {
    /// Simulated instructions (records).
    pub instructions: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// L2 accesses the hierarchy made.
    pub l2_accesses: u64,
    /// Host time of `Cpu::run`.
    pub cpu: Duration,
    /// L1 accesses replayed per access for the hierarchy share.
    pub l1_accesses: u64,
    /// Host time of that per-access L1 replay.
    pub l1: Duration,
}

/// Runs the CPU model over `records` with direct-mapped L1s, then
/// replays the same L1I and L1D streams through per-access `access` on
/// fresh L1s, which is the hierarchy's share of `Cpu::run`.
pub fn cpu_probe(
    profile: &BenchmarkProfile,
    records: &TraceBuffer,
    len: RunLength,
    tracer: Option<&Tracer>,
    parent: Option<SpanId>,
    tally: &mut CpuTally,
) {
    let l1 = |side| {
        CacheConfig::DirectMapped
            .build(L1_BYTES, job_seed(len.seed, profile.name, side))
            .expect("16 kB DM builds")
    };
    let mut cpu = Cpu::new(
        CpuConfig::default(),
        MemoryHierarchy::new(l1(Side::Instruction), l1(Side::Data)),
    );
    let (report, took) = timed(
        tracer,
        parent,
        || format!("cpu_run {}", profile.name),
        |_| cpu.run(records.iter()),
    );
    tally.instructions += report.instructions;
    tally.cycles += report.cycles;
    tally.l2_accesses += cpu.hierarchy().l2_accesses();
    tally.cpu += took;

    // Warm-up past the end: no statistics reset, every access kept.
    for side in [Side::Instruction, Side::Data] {
        let stream = SideTrace::extract(records.iter(), side, u64::MAX);
        let mut cache = l1(side);
        let ((), took) = timed(
            tracer,
            parent,
            || format!("hierarchy_l1 {}", profile.name),
            |_| {
                for &(addr, kind) in stream.accesses() {
                    std::hint::black_box(cache.access(addr, kind));
                }
            },
        );
        tally.l1_accesses += stream.accesses().len() as u64;
        tally.l1 += took;
    }
}

/// Everything a traced run reports per layer.
#[derive(Clone, Debug, Default)]
pub struct LayerTally {
    /// Trace generation and extraction.
    pub gen: GenTally,
    /// Kernel replays.
    pub kernels: Vec<KernelRun>,
    /// The CPU model.
    pub cpu: CpuTally,
}

impl LayerTally {
    /// The per-layer metric values, named as in
    /// [`crate::per_layer_metrics`] (tracing overhead aside).
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
        let g = &self.gen;
        let mut v = vec![
            (
                "trace_gen.ns_per_record".to_string(),
                per(g.gen.as_nanos() as f64, g.records),
            ),
            ("trace_gen.records".to_string(), g.records as f64),
            (
                "extract.ns_per_record".to_string(),
                per(g.extract.as_nanos() as f64, g.records),
            ),
            (
                "extract.accesses_per_record".to_string(),
                per(g.accesses as f64, g.records),
            ),
        ];
        for (model, _) in model_set() {
            let runs = self.kernels.iter().filter(|r| r.model == model);
            let (mut ns, mut fed, mut acc, mut miss, mut wb, mut pd) = (0f64, 0, 0, 0, 0, 0);
            for r in runs {
                ns += r.took.as_nanos() as f64;
                fed += r.fed;
                acc += r.counts.accesses;
                miss += r.counts.misses;
                wb += r.counts.writebacks;
                pd += r.counts.pd_reprograms;
            }
            v.push((format!("kernel.{model}.ns_per_access"), per(ns, fed)));
            v.push((format!("kernel.{model}.miss_ratio"), per(miss as f64, acc)));
            v.push((
                format!("kernel.{model}.writebacks_per_access"),
                per(wb as f64, acc),
            ));
            if model == BCACHE_MODEL {
                v.push((
                    format!("kernel.{model}.pd_reprograms_per_access"),
                    per(pd as f64, acc),
                ));
            }
        }
        let c = &self.cpu;
        v.extend([
            (
                "cpu.ns_per_inst".to_string(),
                per(c.cpu.as_nanos() as f64, c.instructions),
            ),
            (
                "cpu.hierarchy_ns_per_access".to_string(),
                per(c.l1.as_nanos() as f64, c.l1_accesses),
            ),
            (
                "cpu.cycles_per_inst".to_string(),
                per(c.cycles as f64, c.instructions),
            ),
            (
                "cpu.l2_accesses_per_inst".to_string(),
                per(c.l2_accesses as f64, c.instructions),
            ),
        ]);
        v
    }
}

/// Probes every layer over `inputs`: trace-gen, extraction and the
/// kernel fleet on all of them, the CPU model on the first.
pub fn probe(inputs: &[Input], tracer: Option<&Tracer>, parent: Option<SpanId>) -> LayerTally {
    let mut tally = LayerTally::default();
    let mut extracted = Vec::with_capacity(inputs.len());
    for (n, input) in inputs.iter().enumerate() {
        let records = generate(input, tracer, parent, &mut tally.gen);
        let trace = extract(input, &records, tracer, parent, &mut tally.gen);
        if n == 0 {
            cpu_probe(
                &input.profile,
                &records,
                input.len,
                tracer,
                parent,
                &mut tally.cpu,
            );
        }
        extracted.push(Extracted {
            input: input.clone(),
            trace: Arc::new(trace),
        });
    }
    tally.kernels = replay_fleet(&extracted, tracer, parent);
    tally
}

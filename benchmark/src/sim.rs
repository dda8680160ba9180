//! The four simulator workloads and the loop they share.
//!
//! Each workload sets up, runs one untimed warm-up rep whose outputs are
//! checked, repeats timed reps until the run's seconds are spent, and
//! then sets up [`SETUP_REPS`] − 1 more times (the median of all
//! set-ups is `setup_s`). The replay workloads set up their traces; the
//! engine workloads generate theirs inside every rep, as a user's run
//! does, and set up only the reference outputs they are checked against.
//! Inputs are sized so a rep takes a fraction of a second: a run then
//! holds dozens of reps, enough for its slow decile to stay on one host
//! speed.
//!
//! Outputs are checked three ways: every rep's digest must equal the
//! warm-up rep's, the warm-up rep must equal the pinned golden digest
//! when the seed has one, and part of it is recomputed through an
//! independent simulation path on every seed (the streaming replay for
//! the figures, `perf::run_config` for the CPU model, the per-access
//! path for the batched kernels).

use std::sync::Mutex;
use std::time::{Duration, Instant};

use harness::bench::model_set;
use harness::missrate::{figure4_with, figure5_with, MissRateFigure};
use harness::perf::{run_config, run_perf_with, PerfOutcome, PerfRow};
use harness::run::{run_miss_rates, BenchmarkMissRates};
use harness::{CacheConfig, Engine, RunLength, Side};
use telemetry::{SpanId, SpanLog};
use trace_gen::{profiles, BenchmarkProfile};

use crate::clock::on_cpu;
use crate::golden::Digest;
use crate::layers::{self, Extracted, GenTally, Input, KernelRun, LayerTally, L1_BYTES};
use crate::report::{peak_rss_mb, Outcome, Rep, Value};
use crate::trace::{timed, Tracer};
use crate::{Scale, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 10;

/// Timed reps a run makes at least, whatever its seconds.
pub const MIN_REPS: usize = 3;

/// Worker threads of the engine workloads: the vCPUs of the machine the
/// sizes were chosen on.
pub const ENGINE_WORKERS: usize = 2;

/// What a workload run is asked to do.
#[derive(Copy, Clone, Debug)]
pub struct Ctx {
    /// The workload.
    pub workload: Workload,
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Seconds of timed measurement.
    pub seconds: f64,
    /// Input sizes.
    pub scale: Scale,
    /// The pinned digest of this workload, scale and seed, if any.
    pub golden: Option<u64>,
}

/// A simulator workload, as the shared loop drives it.
trait Sim: Sized {
    /// What a rep outputs, for the independent-path check.
    type Output;

    /// Builds the inputs or reference outputs (timed as set-up).
    fn setup(ctx: &Ctx, tracer: Option<&Tracer>) -> Result<Self, String>;

    /// One repetition.
    fn rep(
        &self,
        tracer: Option<&Tracer>,
        parent: Option<SpanId>,
    ) -> Result<(Rep, Self::Output), String>;

    /// Recomputes part of `out` through an independent path; returns
    /// the mismatches.
    fn cross_check(&self, ctx: &Ctx, out: &Self::Output) -> Vec<String>;

    /// The per-layer tallies of a traced run, plus the metrics of the
    /// layers only this workload exercises.
    fn layers(&self, ctx: &Ctx, tracer: &Tracer) -> (LayerTally, Vec<Value>);
}

/// Runs the simulator workload `ctx.workload`.
pub fn run(ctx: &Ctx, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    match ctx.workload {
        Workload::PaperSweep => drive::<PaperSweep>(ctx, tracer),
        Workload::CpuTiming => drive::<CpuTiming>(ctx, tracer),
        Workload::ReplayMiss | Workload::ReplayHit => drive::<Replay>(ctx, tracer),
        Workload::ServeOpen => Err("serve-open is not a simulator workload".into()),
    }
}

/// The digest of one rep of `ctx.workload` after a single set-up (what
/// `bless` pins).
pub fn digest(ctx: &Ctx) -> Result<u64, String> {
    fn one<S: Sim>(ctx: &Ctx) -> Result<u64, String> {
        Ok(S::setup(ctx, None)?.rep(None, None)?.0.digest)
    }
    match ctx.workload {
        Workload::PaperSweep => one::<PaperSweep>(ctx),
        Workload::CpuTiming => one::<CpuTiming>(ctx),
        Workload::ReplayMiss | Workload::ReplayHit => one::<Replay>(ctx),
        Workload::ServeOpen => Err("serve-open has no digest".into()),
    }
}

/// Repeats `rep` until `budget` of wall-clock time is spent, and at
/// least [`MIN_REPS`] times.
fn repeat<T>(
    budget: Duration,
    mut rep: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed() < budget {
        reps.push(rep()?);
    }
    Ok(reps)
}

/// Times `setup` in process CPU time until `setup_s` holds
/// [`SETUP_REPS`] samples. Runs once the measured state is gone: set-ups
/// made earlier would leave their memory in the heap the reps and
/// `peak_rss_mb` see.
pub(crate) fn more_setups(
    setup_s: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    while setup_s.len() < SETUP_REPS {
        let (done, cpu) = on_cpu(&mut setup)?;
        done?;
        setup_s.push(cpu.as_secs_f64());
    }
    Ok(())
}

fn drive<S: Sim>(ctx: &Ctx, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let (sim, first) = on_cpu(|| S::setup(ctx, tracer))?;
    let sim = sim?;
    let mut setup_s = vec![first.as_secs_f64()];
    let (warm, out) = sim.rep(None, None)?;
    // The memory one run of the workload's calls needs. Later reps only
    // add what the allocator keeps of freed engines, which varies from
    // run to run with how the two workers interleaved.
    let peak_rss_mb = peak_rss_mb()?;

    let budget = Duration::from_secs_f64(if tracer.is_some() {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    });
    let reps = repeat(budget, || Ok(sim.rep(None, None)?.0))?;
    let traced_reps = match tracer {
        Some(t) => repeat(budget, || {
            Ok(
                timed(Some(t), None, || "rep".into(), |id| sim.rep(Some(t), id))
                    .0?
                    .0,
            )
        })?,
        None => Vec::new(),
    };

    let mut problems = sim.cross_check(ctx, &out);
    if let Some(g) = ctx.golden {
        if g != warm.digest {
            problems.push(format!(
                "output digest {:016x} differs from the pinned golden {g:016x}",
                warm.digest
            ));
        }
    }
    let reference_ok = problems.is_empty();
    let all: Vec<&Rep> = std::iter::once(&warm)
        .chain(&reps)
        .chain(&traced_reps)
        .collect();
    let drifted = all.iter().filter(|r| r.digest != warm.digest).count();
    if drifted > 0 {
        problems.push(format!(
            "{drifted} reps produced different outputs than the warm-up rep"
        ));
    }
    let attempted = all.iter().map(|r| r.jobs).sum();
    let failed = all
        .iter()
        .filter(|r| !reference_ok || r.digest != warm.digest)
        .map(|r| r.jobs)
        .sum();
    let (layers, details) = match tracer {
        Some(t) => {
            let (l, d) = sim.layers(ctx, t);
            (Some(l), d)
        }
        None => (None, Vec::new()),
    };
    drop(sim);
    more_setups(&mut setup_s, || S::setup(ctx, None).map(drop))?;

    Ok(Outcome {
        setup_s,
        reps,
        traced_reps,
        peak_rss_mb,
        attempted,
        failed,
        problems,
        layers,
        details,
    })
}

/// Picks an element of `items` from the seed (the cross-checked and
/// probed inputs vary with the seed).
fn pick<T: Clone>(items: &[T], seed: u64, salt: u64) -> T {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    items[(z ^ (z >> 29)) as usize % items.len()].clone()
}

/// Engine-layer tallies of traced reps, read from each rep's engine.
#[derive(Debug, Default)]
struct EngineTally {
    waits_ms: Vec<f64>,
    execs_ms: Vec<f64>,
    fills: u64,
    wall: Duration,
}

impl EngineTally {
    fn add(&mut self, engine: &Engine, spans: &SpanLog, wall: Duration) {
        for s in spans.spans() {
            let ms = s.dur_ns as f64 / 1e6;
            if s.name == "exec" {
                self.execs_ms.push(ms);
            } else if s.name.ends_with(".wait") {
                self.waits_ms.push(ms);
            }
        }
        let timing = engine.timing_snapshot();
        self.fills += ["phase.trace_gen", "phase.trace_extract"]
            .iter()
            .filter_map(|n| timing.timing(n))
            .map(|s| s.count)
            .sum::<u64>();
        self.wall += wall;
    }

    fn values(&self) -> Vec<Value> {
        let exec_total: f64 = self.execs_ms.iter().sum();
        let wall_ms = self.wall.as_secs_f64() * 1e3 * ENGINE_WORKERS as f64;
        vec![
            Value::median("engine.queue_wait_ms", "ms", &self.waits_ms),
            Value::median("engine.exec_ms", "ms", &self.execs_ms),
            Value::single("engine.busy_frac", "ratio", exec_total / wall_ms.max(1e-9)),
            Value::single("engine.jobs", "count", self.execs_ms.len() as f64),
            Value::single("engine.trace_fills", "count", self.fills as f64),
        ]
    }
}

/// Runs `f` on a fresh engine, timing it as one rep, so every rep pays
/// for the trace generation and extraction it needs, as a user's run
/// does. Returns `f`'s output, the engine (whose trace cache `f`
/// filled), the CPU time and the jobs' exec latencies from the engine's
/// spans; when traced, merges those spans into the benchmark's trace.
fn engine_rep<T>(
    tracer: Option<&Tracer>,
    tally: &Mutex<EngineTally>,
    f: impl FnOnce(&Engine) -> T,
) -> Result<(T, Engine, Duration, Vec<f64>), String> {
    let engine = Engine::new(ENGINE_WORKERS);
    let start = Instant::now();
    let (out, cpu) = on_cpu(|| f(&engine))?;
    let wall = start.elapsed();
    let spans = engine.span_snapshot();
    let jobs_ms = spans
        .spans()
        .iter()
        .filter(|s| s.name == "exec")
        .map(|s| s.dur_ns as f64 / 1e6)
        .collect();
    if let Some(t) = tracer {
        t.merge(&spans);
        tally
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .add(&engine, &spans, wall);
    }
    Ok((out, engine, cpu, jobs_ms))
}

/// The engine tallies of a traced run.
fn engine_values(tally: &Mutex<EngineTally>) -> Vec<Value> {
    tally.lock().unwrap_or_else(|e| e.into_inner()).values()
}

/// Figures 4 and 5, each rep on a fresh two-worker engine.
struct PaperSweep {
    len: RunLength,
    inputs: Vec<Input>,
    /// The inputs cross-checked on this seed, with their rows through
    /// the streaming path.
    reference: Vec<(Input, BenchmarkMissRates)>,
    tally: Mutex<EngineTally>,
}

fn paper_inputs(len: RunLength) -> Vec<Input> {
    let data = profiles::cfp().into_iter().chain(profiles::cint());
    data.map(|profile| Input {
        profile,
        side: Side::Data,
        len,
    })
    .chain(
        profiles::icache_reported()
            .into_iter()
            .map(|profile| Input {
                profile,
                side: Side::Instruction,
                len,
            }),
    )
    .collect()
}

fn of_side(inputs: &[Input], side: Side) -> Vec<Input> {
    inputs.iter().filter(|i| i.side == side).cloned().collect()
}

impl Sim for PaperSweep {
    type Output = Vec<(Side, MissRateFigure)>;

    fn setup(ctx: &Ctx, tracer: Option<&Tracer>) -> Result<Self, String> {
        let records = match ctx.scale {
            Scale::Full => 200_000,
            Scale::Smoke => 40_000,
        };
        let len = RunLength {
            seed: ctx.seed,
            ..RunLength::with_records(records)
        };
        let inputs = paper_inputs(len);
        // One data-side and one instruction-side benchmark through the
        // streaming path: a fresh trace replayed into all ten models at
        // once, per access.
        let checked = [
            pick(&of_side(&inputs, Side::Data), ctx.seed, 1),
            pick(&of_side(&inputs, Side::Instruction), ctx.seed, 2),
        ];
        let (reference, _) = timed(
            tracer,
            None,
            || "setup: streaming reference rows".into(),
            |_| {
                let configs = CacheConfig::figure4_set();
                checked
                    .into_iter()
                    .map(|i| {
                        let row = run_miss_rates(&i.profile, &configs, L1_BYTES, i.side, len);
                        (i, row)
                    })
                    .collect()
            },
        );
        Ok(PaperSweep {
            len,
            inputs,
            reference,
            tally: Mutex::default(),
        })
    }

    fn rep(
        &self,
        tracer: Option<&Tracer>,
        parent: Option<SpanId>,
    ) -> Result<(Rep, Self::Output), String> {
        let (figs, engine, cpu, job_ms) = engine_rep(tracer, &self.tally, |engine| {
            let ((fp, int), _) = timed(
                tracer,
                parent,
                || "missrate::figure4_with".into(),
                |_| figure4_with(engine, self.len),
            );
            let (f5, _) = timed(
                tracer,
                parent,
                || "missrate::figure5_with".into(),
                |_| figure5_with(engine, self.len),
            );
            vec![(Side::Data, fp), (Side::Data, int), (Side::Instruction, f5)]
        })?;
        let mut d = Digest::new();
        let mut accesses = 0;
        let mut jobs = 0;
        for (side, fig) in &figs {
            d.text(&fig.title);
            for row in &fig.rows {
                // The figures filled this rep's trace cache: reading the
                // access count back is a cache hit.
                let n = self
                    .inputs
                    .iter()
                    .find(|i| i.side == *side && i.profile.name == row.benchmark)
                    .map_or(0, |i| {
                        engine
                            .side_trace(&i.profile, i.len, i.side)
                            .accesses()
                            .len() as u64
                    });
                let cells = 1 + row.outcomes.len() as u64;
                accesses += n * cells;
                jobs += cells;
                d.text(&row.benchmark).float(row.baseline_miss_rate);
                for o in &row.outcomes {
                    d.text(&o.label).float(o.miss_rate);
                }
            }
        }
        let rep = Rep {
            cpu,
            accesses,
            records: jobs * self.len.records,
            jobs,
            job_ms,
            digest: d.finish(),
        };
        Ok((rep, figs))
    }

    fn cross_check(&self, _ctx: &Ctx, out: &Self::Output) -> Vec<String> {
        self.reference
            .iter()
            .filter(|(input, want)| {
                let got = out
                    .iter()
                    .filter(|(side, _)| *side == input.side)
                    .flat_map(|(_, f)| &f.rows)
                    .find(|r| r.benchmark == input.profile.name);
                got != Some(want)
            })
            .map(|(input, _)| {
                format!(
                    "{}: engine sweep differs from the streaming replay",
                    input.label()
                )
            })
            .collect()
    }

    fn layers(&self, ctx: &Ctx, tracer: &Tracer) -> (LayerTally, Vec<Value>) {
        let probe_inputs = [
            pick(&of_side(&self.inputs, Side::Data), ctx.seed, 3),
            pick(&of_side(&self.inputs, Side::Instruction), ctx.seed, 4),
        ];
        let (tally, _) = timed(
            Some(tracer),
            None,
            || "layer probe".into(),
            |id| layers::probe(&probe_inputs, Some(tracer), id),
        );
        (tally, engine_values(&self.tally))
    }
}

/// Figures 8 and 9: every benchmark × the baseline and five
/// configurations through `Cpu::run` and the memory hierarchy, each rep
/// on a fresh two-worker engine.
struct CpuTiming {
    len: RunLength,
    /// The benchmark cross-checked on this seed, with its outcomes from
    /// standalone runs outside the engine.
    reference: (BenchmarkProfile, Vec<(CacheConfig, PerfOutcome)>),
    tally: Mutex<EngineTally>,
}

impl Sim for CpuTiming {
    type Output = Vec<PerfRow>;

    fn setup(ctx: &Ctx, tracer: Option<&Tracer>) -> Result<Self, String> {
        let records = match ctx.scale {
            Scale::Full => 100_000,
            Scale::Smoke => 30_000,
        };
        let len = RunLength {
            seed: ctx.seed,
            ..RunLength::with_records(records)
        };
        // One benchmark re-simulated outside the engine, on a trace it
        // generates itself.
        let profile: BenchmarkProfile = pick(&profiles::all(), ctx.seed, 5);
        let (outcomes, _) = timed(
            tracer,
            None,
            || "setup: standalone reference runs".into(),
            |_| {
                let mut configs = vec![CacheConfig::DirectMapped];
                configs.extend(CacheConfig::figure8_set());
                configs
                    .into_iter()
                    .map(|c| {
                        let o = run_config(&profile, &c, len);
                        (c, o)
                    })
                    .collect()
            },
        );
        Ok(CpuTiming {
            len,
            reference: (profile, outcomes),
            tally: Mutex::default(),
        })
    }

    fn rep(
        &self,
        tracer: Option<&Tracer>,
        parent: Option<SpanId>,
    ) -> Result<(Rep, Self::Output), String> {
        let (rows, _, cpu, job_ms) = engine_rep(tracer, &self.tally, |engine| {
            timed(
                tracer,
                parent,
                || "perf::run_perf_with".into(),
                |_| run_perf_with(engine, self.len),
            )
            .0
        })?;
        let mut d = Digest::new();
        let (mut accesses, mut jobs) = (0, 0);
        for row in &rows {
            d.text(&row.benchmark);
            for o in &row.outcomes {
                let c = &o.counts;
                d.text(&o.label)
                    .word(c.cycles)
                    .word(c.l1_accesses)
                    .word(c.l1_misses)
                    .word(c.l2_accesses)
                    .word(c.l2_misses)
                    .float(o.ipc)
                    .float(o.l1_access_pj);
                accesses += c.l1_accesses;
                jobs += 1;
            }
        }
        let rep = Rep {
            cpu,
            accesses,
            records: jobs * self.len.records,
            jobs,
            job_ms,
            digest: d.finish(),
        };
        Ok((rep, rows))
    }

    fn cross_check(&self, _ctx: &Ctx, out: &Self::Output) -> Vec<String> {
        let (profile, want) = &self.reference;
        let Some(row) = out.iter().find(|r| r.benchmark == profile.name) else {
            return vec![format!("{}: no row in the CPU sweep", profile.name)];
        };
        want.iter()
            .zip(&row.outcomes)
            .filter(|((_, w), o)| w != *o)
            .map(|((c, _), _)| {
                format!(
                    "{} {}: engine CPU run differs from a standalone run",
                    profile.name,
                    c.label()
                )
            })
            .collect()
    }

    fn layers(&self, ctx: &Ctx, tracer: &Tracer) -> (LayerTally, Vec<Value>) {
        let input = Input {
            profile: pick(&profiles::all(), ctx.seed, 6),
            side: Side::Data,
            len: self.len,
        };
        let (tally, _) = timed(
            Some(tracer),
            None,
            || "layer probe".into(),
            |id| layers::probe(&[input], Some(tracer), id),
        );
        (tally, engine_values(&self.tally))
    }
}

/// The fleet over pre-extracted traces (`replay-miss`, `replay-hit`).
struct Replay {
    inputs: Vec<Extracted>,
    gen: GenTally,
    traced_runs: Mutex<Vec<KernelRun>>,
}

/// The inputs of a replay workload.
fn replay_inputs(ctx: &Ctx) -> Vec<Input> {
    let (names, side, full): (&[&str], Side, u64) = match ctx.workload {
        Workload::ReplayMiss => (&["mcf", "equake"], Side::Data, 1_000_000),
        _ => (
            &["gcc", "crafty", "vortex", "eon"],
            Side::Instruction,
            2_000_000,
        ),
    };
    let records = match ctx.scale {
        Scale::Full => full,
        Scale::Smoke => 60_000,
    };
    names
        .iter()
        .map(|n| Input {
            profile: profiles::by_name(n).expect("replay benchmarks are SPEC profiles"),
            side,
            len: RunLength {
                seed: ctx.seed,
                ..RunLength::with_records(records)
            },
        })
        .collect()
}

impl Sim for Replay {
    type Output = Vec<KernelRun>;

    fn setup(ctx: &Ctx, tracer: Option<&Tracer>) -> Result<Self, String> {
        let inputs = replay_inputs(ctx);
        let mut gen = GenTally::default();
        let (inputs, _) = timed(
            tracer,
            None,
            || "setup: trace_gen + extract".into(),
            |id| layers::build(&inputs, tracer, id, &mut gen),
        );
        Ok(Replay {
            inputs,
            gen,
            traced_runs: Mutex::default(),
        })
    }

    fn rep(
        &self,
        tracer: Option<&Tracer>,
        parent: Option<SpanId>,
    ) -> Result<(Rep, Self::Output), String> {
        let (runs, cpu) = on_cpu(|| layers::replay_fleet(&self.inputs, tracer, parent))?;
        let mut d = Digest::new();
        for r in &runs {
            let c = r.counts;
            d.text(r.model)
                .word(r.input as u64)
                .word(c.accesses)
                .word(c.misses)
                .word(c.writebacks)
                .word(c.pd_reprograms);
        }
        let rep = Rep {
            cpu,
            accesses: runs.iter().map(|r| r.fed).sum(),
            records: runs
                .iter()
                .map(|r| self.inputs[r.input].input.len.records)
                .sum(),
            jobs: runs.len() as u64,
            job_ms: runs.iter().map(|r| r.took.as_secs_f64() * 1e3).collect(),
            digest: d.finish(),
        };
        if tracer.is_some() {
            self.traced_runs
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend(runs.iter().cloned());
        }
        Ok((rep, runs))
    }

    fn cross_check(&self, ctx: &Ctx, out: &Self::Output) -> Vec<String> {
        // Every fleet model on one input through the per-access path.
        let idx = pick(&(0..self.inputs.len()).collect::<Vec<_>>(), ctx.seed, 7);
        let x = &self.inputs[idx];
        model_set()
            .into_iter()
            .filter_map(|(name, config)| {
                let got = out.iter().find(|r| r.input == idx && r.model == name)?;
                let want = layers::replay_per_access(x, config);
                (got.counts != want).then(|| {
                    format!(
                        "{} {name}: batched kernel {:?} differs from per-access {:?}",
                        x.input.label(),
                        got.counts,
                        want
                    )
                })
            })
            .collect()
    }

    fn layers(&self, _ctx: &Ctx, tracer: &Tracer) -> (LayerTally, Vec<Value>) {
        let mut tally = LayerTally {
            gen: self.gen,
            kernels: self
                .traced_runs
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone(),
            ..LayerTally::default()
        };
        // The CPU model over a 1M-record prefix of the first input.
        let mut input = self.inputs[0].input.clone();
        input.len.records = input.len.records.min(1_000_000);
        timed(
            Some(tracer),
            None,
            || "layer probe".into(),
            |id| {
                let records = layers::generate(&input, Some(tracer), id, &mut GenTally::default());
                layers::cpu_probe(
                    &input.profile,
                    &records,
                    input.len,
                    Some(tracer),
                    id,
                    &mut tally.cpu,
                );
            },
        );
        (tally, Vec::new())
    }
}

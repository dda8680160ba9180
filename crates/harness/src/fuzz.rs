//! Deterministic property-fuzzing of every cache model against its
//! oracle (`bcache-repro fuzz --iters N --seed S [--jobs N]`).
//!
//! Each case index (0..iters) deterministically derives a scenario, a
//! configuration and an adversarial address stream from `(seed, case)`,
//! so any failure replays exactly with the same flags. Cases are
//! sharded over the [`Engine`] worker pool;
//! results are aggregated positionally, so the report is bit-identical
//! for every `--jobs` value.
//!
//! Case `c` runs scenario `c % SCENARIOS.len()` of the [`SCENARIOS`]
//! table. Seven rows are differential: each is a `(name, families,
//! drive)` triple that draws a small or degenerate [`ModelSpec`] of one
//! of its families ([`ModelSpec::draw`]) and runs the one check,
//! [`ModelSpec::differential`], against the spec's reference —
//! [`OracleCache`](cache_sim::OracleCache) for the direct-mapped and
//! set-associative caches,
//! [`BCacheOracle`](cache_sim::BCacheOracle) for the B-Cache,
//! [`VictimOracle`](cache_sim::VictimOracle) for the victim cache, and
//! the model's own per-access loop for the column, skewed and AGAC
//! caches. The drive is either per access (every `AccessResult`
//! diffed) or batched through [`CacheModel::access_batch`] at a drawn chunk size
//! (final counters, PD counters and set usage compared):
//!
//! | row | families | drive |
//! |---|---|---|
//! | `dm_vs_oracle` | direct-mapped | per access |
//! | `set_assoc_vs_oracle` | set-associative, LRU and random | per access |
//! | `bcache_vs_oracle` | B-Cache, random MF/BAS/policy/PI tag bits | per access |
//! | `batch_equivalence` | all seven | batched, chunks up to 512 |
//! | `batched_vs_oracle` | direct-mapped, set-associative, victim | batched, chunks up to 64 |
//! | `simd_vs_oracle` | B-Cache (the heaviest user of the `cache_sim::simd` lanes) | batched, chunks up to 64 |
//! | `victim_vs_oracle` | victim cache, 1- to 16-entry buffers | per access |
//!
//! The other six rows are bespoke properties:
//!
//! * `degenerate_equals_dm`: `SetAssoc(ways=1)` and `BCache(MF=1,
//!   BAS=1)` equal a direct-mapped cache, access by access;
//! * `full_pi_equals_set_assoc`: a full-PI B-Cache equals a BAS-way
//!   set-associative cache under LRU or random replacement;
//! * `lru_ways_inclusion`: at a fixed set count, a hit in `w` LRU ways
//!   implies a hit in `2w` ways on every access;
//! * `fa_lru_stack`: a hit in a fully-associative LRU cache of `L` lines
//!   implies a hit with `2L` lines on every access;
//! * `demand_fill_sanity`: the victim, column, skewed and AGAC caches
//!   never hit a never-seen block, count every access, and the victim
//!   cache never loses a hit of the bare direct-mapped array;
//! * `birthday_adversarial`: blocks spaced `2^19` apart share the set
//!   index *and* the NPI/PI fields of the 16 kB paper-default B-Cache,
//!   so both it and the direct-mapped baseline hit exactly when the
//!   block repeats back-to-back — the pathwise form of the analytic
//!   `1 − min(capacity, k)/k` miss rate (see `analytic::birthday`).
//!
//! `--scenario NAME|INDEX` restricts a run to one row, e.g. for a
//! targeted CI smoke.
//!
//! On divergence the trace is shrunk to a minimal repro — the failing
//! prefix is bisected into chunks whose removal is retried at widening
//! strides (ddmin-style) — and emitted as a `#[test]` whose header names
//! the `fuzz` command that replays the case and whose body runs the
//! case's own check over the shrunk trace through [`check_case`]. Pasted
//! into `crates/harness/tests/`, it fails until the model is fixed.

use std::collections::HashSet;
use std::fmt::Write as _;

use cache_sim::{AccessKind, AccessResult, Addr, CacheModel, PolicyKind};

use crate::cli;
use crate::config::L1_BYTES;
use crate::models::{CaseRng, Drive, Family, ModelSpec};
use crate::parallel::{default_parallelism, Engine};

/// One access of a fuzz trace: `(address, is_write)`.
pub type FuzzRecord = (u64, bool);

/// One row of [`SCENARIOS`].
#[derive(Copy, Clone, Debug)]
pub struct Scenario {
    /// The name `--scenario` accepts and divergences report.
    pub name: &'static str,
    run: Run,
}

#[derive(Copy, Clone, Debug)]
enum Run {
    /// Draw a spec of these families and check it against its reference,
    /// driven so; a batched row draws its chunk size from 1 up to the
    /// given one.
    Differential(&'static [Family], Drive),
    /// A bespoke property.
    Property(fn(&mut CaseRng) -> Case),
}

const fn differential(name: &'static str, families: &'static [Family], drive: Drive) -> Scenario {
    Scenario {
        name,
        run: Run::Differential(families, drive),
    }
}

const fn property(name: &'static str, f: fn(&mut CaseRng) -> Case) -> Scenario {
    Scenario {
        name,
        run: Run::Property(f),
    }
}

const ORACLE_BATCHED: &[Family] = &[Family::DirectMapped, Family::SetAssoc, Family::Victim];

/// The scenario table, in dispatch order: case `c` runs row
/// `c % SCENARIOS.len()` unless `--scenario` pins one.
pub const SCENARIOS: &[Scenario] = &[
    differential("dm_vs_oracle", &[Family::DirectMapped], Drive::PerAccess),
    differential("set_assoc_vs_oracle", &[Family::SetAssoc], Drive::PerAccess),
    differential("bcache_vs_oracle", &[Family::BCache], Drive::PerAccess),
    property("degenerate_equals_dm", degenerate_equals_dm),
    property("full_pi_equals_set_assoc", full_pi_equals_set_assoc),
    property("lru_ways_inclusion", lru_ways_inclusion),
    property("fa_lru_stack", fa_lru_stack),
    property("demand_fill_sanity", demand_fill_sanity),
    differential("batch_equivalence", Family::ALL, Drive::Batched(512)),
    differential("batched_vs_oracle", ORACLE_BATCHED, Drive::Batched(64)),
    property("birthday_adversarial", birthday_adversarial),
    differential("simd_vs_oracle", &[Family::BCache], Drive::Batched(64)),
    differential("victim_vs_oracle", &[Family::Victim], Drive::PerAccess),
];

/// Resolves a `--scenario` argument: a name from [`SCENARIOS`] or a
/// numeric index into it.
pub fn resolve_scenario(arg: &str) -> Result<usize, String> {
    if let Some(i) = SCENARIOS.iter().position(|s| s.name == arg) {
        return Ok(i);
    }
    if let Ok(i) = arg.parse::<usize>() {
        if i < SCENARIOS.len() {
            return Ok(i);
        }
    }
    let names: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
    Err(format!(
        "unknown scenario {arg}; expected an index below {} or one of: {}",
        SCENARIOS.len(),
        names.join(", ")
    ))
}

/// Options of the `fuzz` subcommand.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FuzzOptions {
    /// Number of cases to run.
    pub iters: u64,
    /// Base seed; every case derives its own stream from `(seed, case)`.
    pub seed: u64,
    /// Worker threads (output is identical for every value).
    pub jobs: usize,
    /// Pin every case to one scenario (index into [`SCENARIOS`]).
    pub scenario: Option<usize>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            iters: 2000,
            seed: 1,
            jobs: default_parallelism(),
            scenario: None,
        }
    }
}

impl FuzzOptions {
    /// Parses the option tail after `fuzz`.
    pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<FuzzOptions, String> {
        let a = cli::parse(cli::FUZZ_FLAGS, args)?;
        let d = FuzzOptions::default();
        Ok(FuzzOptions {
            iters: a.int(&cli::ITERS).unwrap_or(d.iters),
            seed: a.int(&cli::SEED).unwrap_or(d.seed),
            jobs: a.jobs(),
            scenario: a
                .text(&cli::SCENARIO)
                .map(|name| resolve_scenario(&name))
                .transpose()?,
        })
    }
}

/// A confirmed model/oracle disagreement, with its shrunk repro.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The case index (replay with the same `--seed` to reproduce).
    pub case: u64,
    /// Scenario name.
    pub scenario: &'static str,
    /// What disagreed, at which access of the shrunk trace.
    pub detail: String,
    /// Length of the shrunk trace.
    pub shrunk_len: usize,
    /// A `#[test]` that replays the shrunk trace through [`check_case`]
    /// and fails while the divergence stands.
    pub repro: String,
}

/// The outcome of a fuzz run.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Cases executed.
    pub iters: u64,
    /// Base seed.
    pub seed: u64,
    /// Every divergence found, in case order.
    pub divergences: Vec<Divergence>,
}

impl FuzzReport {
    /// Renders the report (summary line plus one block per divergence).
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "fuzz: {} cases, seed {}: {} divergence(s)",
            self.iters,
            self.seed,
            self.divergences.len()
        )
        .unwrap();
        for d in &self.divergences {
            writeln!(
                out,
                "\ncase {} [{}]: {} (shrunk to {} record(s))\n{}",
                d.case, d.scenario, d.detail, d.shrunk_len, d.repro
            )
            .unwrap();
        }
        out
    }
}

/// Runs the fuzzer: `iters` cases sharded over the engine's workers.
pub fn run(opts: &FuzzOptions) -> FuzzReport {
    let engine = Engine::new(opts.jobs);
    let seed = opts.seed;
    // More chunks than workers for load balance; results stay positional.
    let chunks = (opts.jobs * 4).max(1) as u64;
    let chunk = opts.iters.div_ceil(chunks).max(1);
    let ranges: Vec<(u64, u64)> = (0..opts.iters)
        .step_by(chunk as usize)
        .map(|lo| (lo, (lo + chunk).min(opts.iters)))
        .collect();
    let scenario = opts.scenario;
    let jobs: Vec<_> = ranges
        .into_iter()
        .map(|(lo, hi)| {
            move || {
                (lo..hi)
                    .filter_map(|case| run_case_in(seed, case, scenario))
                    .collect::<Vec<_>>()
            }
        })
        .collect();
    let divergences = engine.run(jobs).into_iter().flatten().collect();
    FuzzReport {
        iters: opts.iters,
        seed,
        divergences,
    }
}

/// Generates an adversarial address stream: a mix of uniform traffic,
/// power-of-two strides and hot-set conflict loops, all within
/// `[0, addr_span)` at `line`-byte granularity.
fn gen_trace(rng: &mut CaseRng, line: u64, conflict_span: u64, addr_span: u64) -> Vec<FuzzRecord> {
    let len = 64 + rng.below(256) as usize;
    let blocks = (addr_span / line).max(2);
    let pattern = rng.below(4);
    let mut out = Vec::with_capacity(len);
    let stride = 1 + rng.below(8);
    let hot = rng.below(conflict_span.max(1)).max(1);
    for i in 0..len {
        let block = match pattern {
            // Uniform within a small region: frequent reuse.
            0 => rng.below(conflict_span.max(2)),
            // Strided sweep wrapping the region.
            1 => (i as u64 * stride) % blocks,
            // Hot-set loop: the same `hot` stride revisited, the classic
            // conflict-miss generator (paper Section 2.2).
            2 => (rng.below(8) * hot) % blocks,
            // Mixed: conflict traffic with uniform noise.
            _ => {
                if rng.below(4) == 0 {
                    rng.below(blocks)
                } else {
                    (rng.below(8) * hot) % blocks
                }
            }
        };
        out.push((block * line, rng.below(4) == 0));
    }
    out
}

fn kind(is_write: bool) -> AccessKind {
    if is_write {
        AccessKind::Write
    } else {
        AccessKind::Read
    }
}

fn accesses(trace: &[FuzzRecord]) -> Vec<(Addr, AccessKind)> {
    trace
        .iter()
        .map(|&(a, w)| (Addr::new(a), kind(w)))
        .collect()
}

// ---------------------------------------------------------------------
// Shrinking: bisect the failing prefix into chunks, retry removal at
// widening strides, and re-truncate to the first failing access.

type Check = dyn Fn(&[FuzzRecord]) -> Option<(usize, String)>;

/// One generated case: its trace and the check the trace must pass.
struct Case {
    trace: Vec<FuzzRecord>,
    check: Box<Check>,
}

fn shrink(trace: &mut Vec<FuzzRecord>, check: &Check) {
    if let Some((idx, _)) = check(trace) {
        trace.truncate(idx + 1);
    }
    let mut size = (trace.len() / 2).max(1);
    loop {
        let mut start = 0;
        while start < trace.len() && trace.len() > 1 {
            let end = (start + size).min(trace.len());
            let mut cand = Vec::with_capacity(trace.len() - (end - start));
            cand.extend_from_slice(&trace[..start]);
            cand.extend_from_slice(&trace[end..]);
            if !cand.is_empty() && check(&cand).is_some() {
                *trace = cand;
            } else {
                start += size;
            }
        }
        if size == 1 {
            break;
        }
        size /= 2;
    }
    if let Some((idx, _)) = check(trace) {
        trace.truncate(idx + 1);
    }
}

fn render_trace(trace: &[FuzzRecord]) -> String {
    let mut s = String::from("&[");
    for (i, (addr, w)) in trace.iter().enumerate() {
        s.push_str(if i % 4 == 0 { "\n        " } else { " " });
        write!(s, "({addr:#x}, {w}),").unwrap();
    }
    s.push_str("\n    ]");
    s
}

/// The one repro renderer: a test whose header names the command that
/// replays the case (`--iters case+1` so the run reaches it), followed
/// by what diverged, and whose body runs the case's own check.
fn render_repro(
    scenario: &str,
    case: u64,
    seed: u64,
    detail: &str,
    trace: &[FuzzRecord],
) -> String {
    format!(
        "// Shrunk repro: `bcache-repro fuzz --seed {seed} --iters {} --scenario {scenario}` (case {case}).\n\
         // {detail}\n\
         #[test]\n\
         fn fuzz_repro_{scenario}_{case}() {{\n\
         \x20   let trace: &[(u64, bool)] = {};\n\
         \x20   assert_eq!(\n\
         \x20       harness::fuzz::check_case({seed}, {case}, \"{scenario}\", trace),\n\
         \x20       None\n\
         \x20   );\n\
         }}",
        case + 1,
        render_trace(trace),
    )
}

fn diverge(scenario: &'static str, case: u64, seed: u64, c: Case) -> Option<Divergence> {
    (c.check)(&c.trace)?;
    let mut shrunk = c.trace.clone();
    shrink(&mut shrunk, &c.check);
    let (_, detail) = (c.check)(&shrunk).expect("shrinking preserves failure");
    Some(Divergence {
        case,
        scenario,
        shrunk_len: shrunk.len(),
        repro: render_repro(scenario, case, seed, &detail, &shrunk),
        detail,
    })
}

// ---------------------------------------------------------------------
// Scenarios.

/// Case `case` of `row`, drawn from `(seed, case)` alone.
fn draw_case(seed: u64, case: u64, row: Scenario) -> Case {
    let mut rng = CaseRng::new(seed, case);
    match row.run {
        Run::Differential(families, drive) => differential_case(&mut rng, families, drive),
        Run::Property(f) => f(&mut rng),
    }
}

fn run_case_in(seed: u64, case: u64, scenario: Option<usize>) -> Option<Divergence> {
    let row = SCENARIOS[scenario.unwrap_or((case % SCENARIOS.len() as u64) as usize)];
    diverge(row.name, case, seed, draw_case(seed, case, row))
}

/// Runs the check of case `case` of row `scenario` under base seed
/// `seed` over `trace`: the models and the property are rebuilt from
/// `(seed, case)` exactly as the fuzz run drew them, and only the trace
/// is the caller's. Returns the index of the first failing access and
/// what failed, or `None` if the trace passes. A repro printed by
/// [`run`] calls this with its shrunk trace.
///
/// # Panics
///
/// Panics if `scenario` names no row of [`SCENARIOS`].
pub fn check_case(
    seed: u64,
    case: u64,
    scenario: &str,
    trace: &[FuzzRecord],
) -> Option<(usize, String)> {
    let row = resolve_scenario(scenario).unwrap_or_else(|e| panic!("{e}"));
    (draw_case(seed, case, SCENARIOS[row]).check)(trace)
}

/// A differential row's case: a drawn spec, a drawn chunk size for the
/// batched path, and a conflict-heavy trace. A B-Cache's trace spans its
/// whole address space, so the high tag bits a `PiTagBits::High` decoder
/// indexes by vary; every other model's spans 32 times its capacity, so
/// even the largest drawn shapes evict.
fn differential_case(rng: &mut CaseRng, families: &[Family], drive: Drive) -> Case {
    let spec = ModelSpec::draw(rng, families);
    let drive = match drive {
        Drive::Batched(max) => Drive::Batched(1 + rng.below(max as u64) as usize),
        Drive::PerAccess => Drive::PerAccess,
    };
    let (size, line) = spec.size_line();
    let addr_span = match spec {
        ModelSpec::BCache { addr_bits, .. } => 1 << addr_bits,
        _ => 32 * size as u64,
    };
    let trace = gen_trace(rng, line as u64, 2 * (size / line) as u64, addr_span);
    Case {
        check: Box::new(move |t| spec.differential(drive, &accesses(t))),
        trace,
    }
}

/// A case's left and right models.
type Pair = (Box<dyn CacheModel>, Box<dyn CacheModel>);

/// Builds both specs, or reports which failed to build.
fn build_pair(left: &ModelSpec, right: &ModelSpec) -> Result<Pair, (usize, String)> {
    match (left.build(), right.build()) {
        (Ok(l), Ok(r)) => Ok((l, r)),
        (Err(e), _) | (_, Err(e)) => Err((0, format!("{left:?} / {right:?} do not build: {e}"))),
    }
}

/// A case replaying `trace` through `left` and `right` in lockstep,
/// failing at the first access where `broken` holds, then at the last
/// access if `finally` reports a problem with the replayed `left`.
fn pair_case(
    trace: Vec<FuzzRecord>,
    left: ModelSpec,
    right: ModelSpec,
    broken: fn(&AccessResult, &AccessResult) -> bool,
    relation: &'static str,
    finally: Option<fn(&dyn CacheModel) -> Option<String>>,
) -> Case {
    let check = move |t: &[FuzzRecord]| -> Option<(usize, String)> {
        let (mut l, mut r) = match build_pair(&left, &right) {
            Ok(pair) => pair,
            Err(e) => return Some(e),
        };
        for (i, (addr, kind)) in accesses(t).into_iter().enumerate() {
            let (a, b) = (l.access(addr, kind), r.access(addr, kind));
            if broken(&a, &b) {
                return Some((
                    i,
                    format!(
                        "{left:?} {relation} {right:?}, broken at {addr}: hit {} vs {}",
                        a.hit, b.hit
                    ),
                ));
            }
        }
        finally
            .and_then(|f| f(l.as_ref()))
            .map(|what| (t.len().saturating_sub(1), format!("{left:?}: {what}")))
    };
    Case {
        trace,
        check: Box::new(check),
    }
}

fn degenerate_equals_dm(rng: &mut CaseRng) -> Case {
    let line = 32usize;
    let sets = rng.pick(&[8usize, 16, 32]);
    let size = sets * line;
    let left = if rng.below(2) == 1 {
        ModelSpec::bcache(size, 1, 1, PolicyKind::Lru, 0)
    } else {
        ModelSpec::lru(size, 1)
    };
    let trace = gen_trace(rng, line as u64, 2 * sets as u64, 32 * size as u64);
    pair_case(
        trace,
        left,
        ModelSpec::DirectMapped { size, line },
        |a, b| a.hit != b.hit || a.evicted != b.evicted,
        "must equal",
        None,
    )
}

fn lru_ways_inclusion(rng: &mut CaseRng) -> Case {
    let line = 32usize;
    let sets = rng.pick(&[4usize, 8, 16]);
    let ways = rng.pick(&[1usize, 2, 4]);
    let trace = gen_trace(rng, line as u64, 4 * sets as u64, 1 << 16);
    pair_case(
        trace,
        ModelSpec::lru(sets * ways * line, ways),
        ModelSpec::lru(sets * 2 * ways * line, 2 * ways),
        |a, b| a.hit && !b.hit,
        "hits must be included in",
        None,
    )
}

fn fa_lru_stack(rng: &mut CaseRng) -> Case {
    let line = 32usize;
    let lines = rng.pick(&[4usize, 8, 16]);
    let trace = gen_trace(rng, line as u64, 4 * lines as u64, 1 << 16);
    pair_case(
        trace,
        ModelSpec::lru(lines * line, lines),
        ModelSpec::lru(2 * lines * line, 2 * lines),
        |a, b| a.hit && !b.hit,
        "hits must be included in",
        None,
    )
}

fn full_pi_equals_set_assoc(rng: &mut CaseRng) -> Case {
    // 1 kB, 16-bit addresses: tag is 6 bits, MF = 2^6 consumes it all, so
    // a PD hit implies a tag hit and the B-Cache is a BAS-way cache.
    let line = 32usize;
    let size = 1024usize;
    let addr_bits = 16u32;
    let bas = rng.pick(&[2usize, 4, 8]);
    let policy = rng.pick(&[PolicyKind::Lru, PolicyKind::Random]);
    let trace = gen_trace(rng, line as u64, 64, 1 << addr_bits);
    let left = ModelSpec::BCache {
        size,
        line,
        mf: 1 << 6,
        bas,
        policy,
        seed: 0,
        pi_tag_bits: bcache_core::PiTagBits::Low,
        addr_bits,
    };
    let right = ModelSpec::SetAssoc {
        size,
        line,
        ways: bas,
        policy,
        seed: 0,
    };
    pair_case(
        trace,
        left,
        right,
        |a, b| a.hit != b.hit,
        "must equal",
        Some(|l| {
            l.decoder_stats()
                .is_some_and(|pd| pd.misses_with_pd_hit != 0)
                .then(|| "full-PI PD hit cannot be a tag miss".into())
        }),
    )
}

fn demand_fill_sanity(rng: &mut CaseRng) -> Case {
    let spec = ModelSpec::draw(
        rng,
        &[Family::Victim, Family::Column, Family::Skewed, Family::Agac],
    );
    let (size, line) = spec.size_line();
    let trace = gen_trace(rng, line as u64, 2 * (size / line) as u64, 64 * size as u64);
    let dm_spec = ModelSpec::DirectMapped { size, line };
    let is_victim = spec.family() == Family::Victim;
    let check = move |t: &[FuzzRecord]| -> Option<(usize, String)> {
        let (mut model, mut dm) = match build_pair(&spec, &dm_spec) {
            Ok(pair) => pair,
            Err(e) => return Some(e),
        };
        let mut seen: HashSet<u64> = HashSet::new();
        let mut hits = 0u64;
        for (i, (addr, kind)) in accesses(t).into_iter().enumerate() {
            let block = addr.raw() / line as u64;
            let r = model.access(addr, kind);
            let dm_hit = dm.access(addr, kind).hit;
            if r.hit && !seen.contains(&block) {
                return Some((i, format!("{spec:?} hit a never-seen block at {addr}")));
            }
            // The victim cache's main array mirrors a plain DM array, so
            // its hits are a superset of the DM hits on every access.
            if is_victim && dm_hit && !r.hit {
                return Some((i, format!("{spec:?} lost a DM hit at {addr}")));
            }
            seen.insert(block);
            hits += u64::from(r.hit);
        }
        let total = model.stats().total();
        if total.accesses() != t.len() as u64 || total.hits() != hits {
            return Some((
                t.len() - 1,
                format!(
                    "{spec:?} miscounted: {} accesses / {} hits vs replayed {} / {}",
                    total.accesses(),
                    total.hits(),
                    t.len(),
                    hits
                ),
            ));
        }
        (total.misses() < seen.len() as u64).then(|| {
            (
                t.len() - 1,
                format!(
                    "{spec:?} beat the compulsory bound: {} misses < {} distinct blocks",
                    total.misses(),
                    seen.len()
                ),
            )
        })
    };
    Case {
        trace,
        check: Box::new(check),
    }
}

fn birthday_adversarial(rng: &mut CaseRng) -> Case {
    // The aligned birthday adversary at the paper's 16 kB baseline:
    // k blocks spaced 2^19 apart agree on the direct-mapped index bits
    // [5, 14) *and* the MF8/BAS8 NPI [5, 11) / PI [11, 17) fields, so
    // both caches collapse to a single resident block. The exact
    // pathwise oracle is then "hit iff the block repeats back-to-back",
    // whose expectation over a uniform draw is the closed-form
    // 1 − 1/k of `analytic::birthday::aligned_adversary_miss_rate`.
    let line = 32usize;
    let k = rng.pick(&[8u64, 16, 32, 64]);
    let base = Addr::new(0x1000_0000);
    let spacing = 1u64 << 19;
    let len = 128 + rng.below(256) as usize;
    let trace: Vec<FuzzRecord> = (0..len)
        .map(|_| (base.raw() + rng.below(k) * spacing, rng.below(4) == 0))
        .collect();
    let left = ModelSpec::bcache(L1_BYTES, 8, 8, PolicyKind::Lru, 0);
    let right = ModelSpec::DirectMapped {
        size: L1_BYTES,
        line,
    };
    let check = move |t: &[FuzzRecord]| -> Option<(usize, String)> {
        let (mut bc, mut dm) = match (left.build_bcache(), right.build()) {
            (Ok(bc), Ok(dm)) => (bc, dm),
            (Err(e), _) | (_, Err(e)) => return Some((0, format!("does not build: {e}"))),
        };
        let (geom, layout) = (dm.geometry(), *bc.layout());
        let fields = |a: Addr| (geom.set_index(a), layout.npi(a), layout.pi(a));
        let shared = fields(base);
        let mut last = None;
        let mut expected_misses = 0u64;
        for (i, (a, kind)) in accesses(t).into_iter().enumerate() {
            if fields(a) != shared {
                return Some((i, format!("adversary block {a} left the shared set")));
            }
            let block = a.raw() / line as u64;
            let expect_hit = last == Some(block);
            expected_misses += u64::from(!expect_hit);
            last = Some(block);
            if dm.access(a, kind).hit != expect_hit {
                return Some((i, format!("DM must hit iff the block repeats, at {a}")));
            }
            if bc.access(a, kind).hit != expect_hit {
                return Some((
                    i,
                    format!("the adversary defeats the PD: B-Cache must behave DM at {a}"),
                ));
            }
        }
        ((dm.stats().total().misses(), bc.stats().total().misses())
            != (expected_misses, expected_misses))
            .then(|| {
                (
                    t.len() - 1,
                    format!(
                        "adversary miss totals must equal the closed-form count {expected_misses}"
                    ),
                )
            })
    };
    Case {
        trace,
        check: Box::new(check),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse_and_reject() {
        let o = FuzzOptions::parse(&["--iters", "50", "--seed", "9", "--jobs", "2"]).unwrap();
        assert_eq!((o.iters, o.seed, o.jobs), (50, 9, 2));
        assert!(FuzzOptions::parse(&["--iters"]).is_err());
        assert!(FuzzOptions::parse(&["--jobs", "0"]).is_err());
        assert!(FuzzOptions::parse(&["--records", "5"]).is_err());
    }

    #[test]
    fn scenario_filter_parses_names_and_indices() {
        let birthday = resolve_scenario("birthday_adversarial").unwrap();
        assert_eq!(SCENARIOS[birthday].name, "birthday_adversarial");
        let o = FuzzOptions::parse(&["--scenario", "birthday_adversarial"]).unwrap();
        assert_eq!(o.scenario, Some(birthday));
        let o = FuzzOptions::parse(&["--scenario", &birthday.to_string()]).unwrap();
        assert_eq!(o.scenario, Some(birthday));
        let o = FuzzOptions::parse(&["--scenario", "0"]).unwrap();
        assert_eq!(o.scenario, Some(0));
        assert!(FuzzOptions::parse(&["--scenario", "nope"]).is_err());
        assert!(FuzzOptions::parse(&["--scenario", "99"]).is_err());
        assert!(FuzzOptions::parse(&["--scenario"]).is_err());
    }

    #[test]
    fn scenario_names_keep_their_dispatch_order() {
        let names: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "dm_vs_oracle",
                "set_assoc_vs_oracle",
                "bcache_vs_oracle",
                "degenerate_equals_dm",
                "full_pi_equals_set_assoc",
                "lru_ways_inclusion",
                "fa_lru_stack",
                "demand_fill_sanity",
                "batch_equivalence",
                "batched_vs_oracle",
                "birthday_adversarial",
                "simd_vs_oracle",
                "victim_vs_oracle",
            ]
        );
    }

    #[test]
    fn repro_header_names_a_command_that_replays_the_case() {
        let case = 2345;
        let planted = Case {
            trace: vec![(0x40, false); 8],
            check: Box::new(|t| Some((t.len() - 1, "planted".into()))),
        };
        let d = diverge("victim_vs_oracle", case, 7, planted).unwrap();
        let header = d.repro.lines().next().unwrap();
        let arg = |flag: &str| {
            let mut words = header.split(['`', ' ']).skip_while(|w| *w != flag);
            words.nth(1).unwrap().to_string()
        };
        assert!(resolve_scenario(&arg("--scenario")).is_ok(), "{header}");
        assert_eq!(arg("--scenario"), d.scenario);
        assert!(arg("--iters").parse::<u64>().unwrap() > case, "{header}");
        assert_eq!(arg("--seed"), "7");
        let header_case = header.rsplit_once("(case ").unwrap().1;
        let header_case = header_case.trim_end_matches(").");
        assert_eq!(header_case.parse::<u64>(), Ok(case), "{header}");
        assert_eq!(d.repro.lines().nth(1), Some("// planted"));
        let call = format!(
            "harness::fuzz::check_case({}, {header_case}, \"{}\", trace),",
            arg("--seed"),
            arg("--scenario"),
        );
        assert!(d.repro.contains(&call), "{}", d.repro);
    }

    #[test]
    fn check_case_runs_the_rows_own_check() {
        // Every birthday-adversary block shares the set of 0x1000_0000; the
        // next block over does not. Only the row's own check sees that: both
        // caches miss on it, so a hit comparison would pass.
        let base = 0x1000_0000;
        let inside = [(base, false), (base, true), (base + (3 << 19), false)];
        assert_eq!(check_case(7, 11, "birthday_adversarial", &inside), None);
        let mut outside = inside.to_vec();
        outside.push((base + 32, false));
        let (at, what) = check_case(7, 11, "birthday_adversarial", &outside).unwrap();
        assert_eq!(at, 3);
        assert!(what.contains("left the shared set"), "{what}");
    }

    #[test]
    fn pinned_scenarios_are_clean() {
        for (name, iters, seed) in [
            ("birthday_adversarial", 40, 7),
            ("simd_vs_oracle", 60, 13),
            ("batched_vs_oracle", 60, 11),
        ] {
            let report = run(&FuzzOptions {
                iters,
                seed,
                jobs: 2,
                scenario: Some(resolve_scenario(name).unwrap()),
            });
            assert!(report.divergences.is_empty(), "{}", report.render());
        }
    }

    #[test]
    fn small_run_is_clean_and_deterministic() {
        let opts = FuzzOptions {
            iters: 45,
            seed: 3,
            jobs: 2,
            scenario: None,
        };
        let a = run(&opts);
        assert!(a.divergences.is_empty(), "{}", a.render());
        let b = run(&FuzzOptions { jobs: 5, ..opts });
        assert_eq!(a.render(), b.render(), "job count must not matter");
    }

    #[test]
    fn shrink_minimizes_a_planted_failure() {
        // Predicate: fails iff the trace still contains address 0x700
        // after an earlier 0x300 — minimal repro is exactly 2 records.
        let check = |t: &[FuzzRecord]| -> Option<(usize, String)> {
            let mut seen_300 = false;
            for (i, &(a, _)) in t.iter().enumerate() {
                if a == 0x300 {
                    seen_300 = true;
                } else if a == 0x700 && seen_300 {
                    return Some((i, "planted".into()));
                }
            }
            None
        };
        // Background traffic in a disjoint range so it cannot trip the
        // predicate by itself.
        let mut trace: Vec<FuzzRecord> = (0..200u64).map(|i| (0x10000 + i * 0x20, false)).collect();
        trace.insert(50, (0x300, false));
        trace.insert(150, (0x700, true));
        assert!(check(&trace).is_some());
        shrink(&mut trace, &check);
        assert_eq!(trace, vec![(0x300, false), (0x700, true)]);
    }

    #[test]
    fn report_renders_summary() {
        let r = FuzzReport {
            iters: 10,
            seed: 4,
            divergences: vec![],
        };
        assert!(r.render().contains("10 cases, seed 4: 0 divergence"));
    }
}

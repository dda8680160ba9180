//! Deterministic property-fuzzing of every cache model against its
//! oracle (`bcache-repro fuzz --iters N --seed S [--jobs N]`).
//!
//! Each case index (0..iters) deterministically derives a scenario, a
//! configuration and an adversarial address stream from `(seed, case)`,
//! so any failure replays exactly with the same flags. Cases are
//! sharded over the [`Engine`](crate::parallel::Engine) worker pool;
//! results are aggregated positionally, so the report is bit-identical
//! for every `--jobs` value.
//!
//! Scenarios (round-robin over the case index):
//!
//! 1. direct-mapped vs [`OracleCache`];
//! 2. set-associative (every policy) vs [`OracleCache`];
//! 3. B-Cache (random MF/BAS/policy/PI-tag-bits) vs [`BCacheOracle`],
//!    including PD counters and the unique-decoding invariant;
//! 4. the set-associative wrappers (HAC, PAM, difference-bit,
//!    way-halting) vs [`OracleCache`] — their hit/miss/evict behaviour
//!    is contractually that of an n-way LRU cache;
//! 5. metamorphic: `SetAssoc(ways=1)` ≡ DM and `BCache(MF=1, BAS=1)`
//!    ≡ DM, access by access;
//! 6. metamorphic: a full-PI B-Cache ≡ a BAS-way set-associative cache;
//! 7. LRU inclusion: at a fixed set count, a hit in `w` ways implies a
//!    hit in `2w` ways on every access;
//! 8. fully-associative LRU stack property: a hit with `L` lines
//!    implies a hit with `2L` lines on every access;
//! 9. demand-fill sanity for the bespoke models (victim, column,
//!    skewed, AGAC): no hit on a never-seen block (the compulsory-miss
//!    bound), exact access accounting, and — for the victim cache —
//!    per-access dominance over the bare direct-mapped array;
//! 10. batch equivalence: for a randomly drawn model (any of the ten),
//!     replaying the trace through [`CacheModel::access_batch`] yields
//!     exactly the stats of the per-access loop — guarding the
//!     monomorphized fast paths of the DM, set-associative and B-Cache
//!     kernels and the default fallback of everything else;
//! 11. batched vs oracle: an oracle-equivalent model (direct-mapped,
//!     set-associative at a random const-dispatched width and policy,
//!     or one of the n-way-LRU wrappers) is driven purely through
//!     [`CacheModel::access_batch`] at a random chunk size and its
//!     final hit/miss/writeback counters must equal the per-access
//!     [`OracleCache`] — the differential form of the proptest suite in
//!     `tests/proptest_differential.rs`;
//! 12. the birthday adversary: blocks spaced `2^19` apart share the set
//!     index *and* the NPI/PI fields of the 16 kB paper-default
//!     B-Cache, so the programmable decoder is defeated and both the
//!     direct-mapped baseline and the B-Cache must hit exactly when the
//!     block repeats back-to-back — the pathwise form of the analytic
//!     `1 − min(capacity, k)/k` miss rate (see `analytic::birthday`);
//! 13. simd vs oracle: a B-Cache at random geometry (MF/BAS/policy) is
//!     driven purely through [`CacheModel::access_batch`] at a random
//!     chunk size — the lane operations (`cache_sim::simd`) on their
//!     hottest path — and its hit/miss/writeback/PD counters must equal
//!     the per-access [`BCacheOracle`]. The probes run whichever body
//!     the platform selects (AVX2 where the CPU has it); the portable
//!     bodies are checked op by op in `cache_sim::simd`'s unit tests.
//!
//! `--scenario NAME|INDEX` (see [`SCENARIOS`]) restricts a run to one
//! scenario, e.g. for a targeted CI smoke.
//!
//! On divergence the trace is shrunk to a minimal repro — the failing
//! prefix is bisected into chunks whose removal is retried at widening
//! strides (ddmin-style) — and emitted as a re-runnable Rust test
//! snippet.

use std::collections::HashSet;
use std::fmt::Write as _;

use bcache_core::{BCacheParams, BalancedCache, PiTagBits};
use cache_sim::oracle::{distinct_blocks, BCacheOracle, OracleCache};
use cache_sim::{
    AccessKind, Addr, AgacCache, CacheGeometry, CacheModel, ColumnAssociativeCache,
    DifferenceBitCache, DirectMappedCache, HighlyAssociativeCache, PartialMatchCache, PolicyKind,
    SetAssociativeCache, SkewedAssociativeCache, VictimCache, WayHaltingCache,
};

use crate::cli;
use crate::parallel::{default_parallelism, Engine};

/// One access of a fuzz trace: `(address, is_write)`.
pub type FuzzRecord = (u64, bool);

/// Scenario names, in dispatch order: case `c` runs scenario
/// `c % SCENARIOS.len()` unless `--scenario` pins one.
pub const SCENARIOS: &[&str] = &[
    "dm_vs_oracle",
    "set_assoc_vs_oracle",
    "bcache_vs_oracle",
    "wrapper_vs_oracle",
    "degenerate_equals_dm",
    "full_pi_equals_set_assoc",
    "lru_ways_inclusion",
    "fa_lru_stack",
    "demand_fill_sanity",
    "batch_equivalence",
    "batched_vs_oracle",
    "birthday_adversarial",
    "simd_vs_oracle",
];

/// Resolves a `--scenario` argument: a name from [`SCENARIOS`] or a
/// numeric index into it.
pub fn resolve_scenario(arg: &str) -> Result<usize, String> {
    if let Some(i) = SCENARIOS.iter().position(|s| *s == arg) {
        return Ok(i);
    }
    if let Ok(i) = arg.parse::<usize>() {
        if i < SCENARIOS.len() {
            return Ok(i);
        }
    }
    Err(format!(
        "unknown scenario {arg}; expected an index below {} or one of: {}",
        SCENARIOS.len(),
        SCENARIOS.join(", ")
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
    /// A re-runnable Rust test snippet reproducing the divergence.
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
    // Fail-fast: a panic in a fuzz case is a finding, not a transient
    // fault — retrying would just rediscover it.
    let engine = Engine::new(opts.jobs).with_policy(crate::parallel::RunPolicy::fail_fast());
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

// ---------------------------------------------------------------------
// Deterministic per-case randomness (SplitMix64, like the shims).

struct CaseRng(u64);

impl CaseRng {
    fn new(seed: u64, case: u64) -> Self {
        let mut r = CaseRng(seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next(); // decorrelate adjacent cases
        r
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        (((self.next() as u128) * (n as u128)) >> 64) as u64
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
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

// ---------------------------------------------------------------------
// Shrinking: bisect the failing prefix into chunks, retry removal at
// widening strides, and re-truncate to the first failing access.

type Check = dyn Fn(&[FuzzRecord]) -> Option<(usize, String)>;

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
        if i % 4 == 0 {
            s.push_str("\n        ");
        }
        write!(s, "({addr:#x}, {w}), ").unwrap();
    }
    s.push_str("\n    ]");
    s
}

fn render_repro(
    scenario: &'static str,
    case: u64,
    seed: u64,
    setup: &str,
    body: &str,
    trace: &[FuzzRecord],
) -> String {
    format!(
        "// Shrunk repro: `bcache-repro fuzz --seed {seed}` case {case}, scenario {scenario}.\n\
         #[test]\n\
         fn fuzz_repro_{scenario}_{case}() {{\n\
         {setup}\
         \x20   let trace: &[(u64, bool)] = {};\n\
         \x20   for &(addr, is_write) in trace {{\n\
         \x20       let kind = if is_write {{ cache_sim::AccessKind::Write }} else {{ cache_sim::AccessKind::Read }};\n\
         {body}\
         \x20   }}\n\
         }}",
        render_trace(trace)
    )
}

fn diverge(
    scenario: &'static str,
    case: u64,
    seed: u64,
    trace: Vec<FuzzRecord>,
    check: &Check,
    setup: String,
    body: &str,
) -> Option<Divergence> {
    let (_, _) = check(&trace)?;
    let mut shrunk = trace;
    shrink(&mut shrunk, check);
    let (_, detail) = check(&shrunk).expect("shrinking preserves failure");
    Some(Divergence {
        case,
        scenario,
        detail,
        shrunk_len: shrunk.len(),
        repro: render_repro(scenario, case, seed, &setup, body, &shrunk),
    })
}

// ---------------------------------------------------------------------
// Scenarios.

const ORACLE_BODY: &str = "        let got = model.access(cache_sim::Addr::new(addr), kind);\n\
     \x20       let want = oracle.access(cache_sim::Addr::new(addr), kind);\n\
     \x20       assert_eq!(want.diff(&got), None, \"divergence at {addr:#x}\");\n";

const PAIR_BODY: &str = "        let a = left.access(cache_sim::Addr::new(addr), kind);\n\
     \x20       let b = right.access(cache_sim::Addr::new(addr), kind);\n\
     \x20       assert_eq!(a.hit, b.hit, \"divergence at {addr:#x}\");\n";

fn run_case_in(seed: u64, case: u64, scenario: Option<usize>) -> Option<Divergence> {
    let mut rng = CaseRng::new(seed, case);
    let which = scenario.unwrap_or((case % SCENARIOS.len() as u64) as usize);
    match which {
        0 => dm_vs_oracle(seed, case, &mut rng),
        1 => set_assoc_vs_oracle(seed, case, &mut rng),
        2 => bcache_vs_oracle(seed, case, &mut rng),
        3 => wrapper_vs_oracle(seed, case, &mut rng),
        4 => degenerate_equivalences(seed, case, &mut rng),
        5 => full_pi_equivalence(seed, case, &mut rng),
        6 => lru_ways_inclusion(seed, case, &mut rng),
        7 => fa_lru_stack(seed, case, &mut rng),
        8 => demand_fill_sanity(seed, case, &mut rng),
        9 => batch_equivalence(seed, case, &mut rng),
        10 => batched_vs_oracle(seed, case, &mut rng),
        11 => birthday_adversarial(seed, case, &mut rng),
        _ => simd_vs_oracle(seed, case, &mut rng),
    }
}

fn dm_vs_oracle(seed: u64, case: u64, rng: &mut CaseRng) -> Option<Divergence> {
    let size = 256usize << rng.below(4);
    let line = 16u64 << rng.below(3);
    let sets = (size as u64) / line;
    let trace = gen_trace(rng, line, 2 * sets, 16 * size as u64);
    let check = move |t: &[FuzzRecord]| -> Option<(usize, String)> {
        let mut model = DirectMappedCache::new(size, line as usize).unwrap();
        let mut oracle = OracleCache::new(size, line as usize, 1, PolicyKind::Lru, 0, 32);
        for (i, &(addr, w)) in t.iter().enumerate() {
            let got = model.access(Addr::new(addr), kind(w));
            let want = oracle.access(Addr::new(addr), kind(w));
            if let Some(d) = want.diff(&got) {
                return Some((i, format!("dm[{size}B/{line}B] at {addr:#x}: {d}")));
            }
        }
        if oracle.misses() != model.stats().total().misses()
            || oracle.writebacks() != model.stats().writebacks()
        {
            return Some((t.len() - 1, "dm stats drifted from oracle".into()));
        }
        None
    };
    let setup = format!(
        "    let mut model = cache_sim::DirectMappedCache::new({size}, {line}).unwrap();\n\
         \x20   let mut oracle = cache_sim::oracle::OracleCache::new({size}, {line}, 1, cache_sim::PolicyKind::Lru, 0, 32);\n"
    );
    diverge(
        "dm_vs_oracle",
        case,
        seed,
        trace,
        &check,
        setup,
        ORACLE_BODY,
    )
}

fn set_assoc_vs_oracle(seed: u64, case: u64, rng: &mut CaseRng) -> Option<Divergence> {
    let assoc = rng.pick(&[1usize, 2, 4, 8]);
    let sets = rng.pick(&[2usize, 4, 8, 16]);
    let line = 32usize;
    let size = sets * assoc * line;
    let policy = rng.pick(&[
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::Random,
        PolicyKind::TreePlru,
    ]);
    let pseed = rng.next();
    let trace = gen_trace(rng, line as u64, 3 * sets as u64, 32 * size as u64);
    let check = move |t: &[FuzzRecord]| -> Option<(usize, String)> {
        let mut model = SetAssociativeCache::new(size, line, assoc, policy, pseed).unwrap();
        let mut oracle = OracleCache::new(size, line, assoc, policy, pseed, 32);
        for (i, &(addr, w)) in t.iter().enumerate() {
            let got = model.access(Addr::new(addr), kind(w));
            let want = oracle.access(Addr::new(addr), kind(w));
            if let Some(d) = want.diff(&got) {
                return Some((
                    i,
                    format!("set_assoc[{size}B {assoc}-way {policy:?}] at {addr:#x}: {d}"),
                ));
            }
        }
        (oracle.hits() != model.stats().total().hits())
            .then(|| (t.len() - 1, "set_assoc stats drifted from oracle".into()))
    };
    let setup = format!(
        "    let mut model = cache_sim::SetAssociativeCache::new({size}, {line}, {assoc}, cache_sim::PolicyKind::{policy:?}, {pseed}).unwrap();\n\
         \x20   let mut oracle = cache_sim::oracle::OracleCache::new({size}, {line}, {assoc}, cache_sim::PolicyKind::{policy:?}, {pseed}, 32);\n"
    );
    diverge(
        "set_assoc_vs_oracle",
        case,
        seed,
        trace,
        &check,
        setup,
        ORACLE_BODY,
    )
}

fn bcache_vs_oracle(seed: u64, case: u64, rng: &mut CaseRng) -> Option<Divergence> {
    let line = 32usize;
    let size = rng.pick(&[256usize, 512, 1024, 2048]);
    let sets = size / line;
    let addr_bits = 16u32;
    let geom = CacheGeometry::with_addr_bits(size, line, 1, addr_bits).unwrap();
    let index_bits = geom.index_bits();
    let tag_bits = addr_bits - 5 - index_bits;
    let bas = rng.pick(&[1usize, 2, 4, 8]).min(sets);
    let mf_bits = rng.below((tag_bits + 1).min(4) as u64) as u32;
    let mf = 1usize << mf_bits;
    let policy = rng.pick(&[
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::Random,
        PolicyKind::TreePlru,
    ]);
    let high = rng.below(2) == 1;
    let pseed = rng.next();
    let trace = gen_trace(rng, line as u64, 2 * sets as u64, 1 << addr_bits);
    let check = move |t: &[FuzzRecord]| -> Option<(usize, String)> {
        let geom = CacheGeometry::with_addr_bits(size, line, 1, addr_bits).unwrap();
        let params = BCacheParams::new(geom, mf, bas, policy)
            .unwrap()
            .with_seed(pseed)
            .with_pi_tag_bits(if high {
                PiTagBits::High
            } else {
                PiTagBits::Low
            });
        let layout = params.layout();
        let mut model = BalancedCache::new(params);
        let mut oracle = BCacheOracle::new(
            line as u64,
            addr_bits,
            layout.npi_bits(),
            layout.pi_bits(),
            mf_bits,
            high,
            (policy, pseed),
        );
        for (i, &(addr, w)) in t.iter().enumerate() {
            let got = model.access(Addr::new(addr), kind(w));
            let want = oracle.access(Addr::new(addr), kind(w));
            if let Some(d) = want.diff(&got) {
                return Some((
                    i,
                    format!(
                        "bcache[{size}B MF{mf} BAS{bas} {policy:?} high={high}] at {addr:#x}: {d}"
                    ),
                ));
            }
        }
        let pd = model.pd_stats();
        if (oracle.pd_hit_misses(), oracle.pd_miss_misses())
            != (pd.misses_with_pd_hit, pd.misses_with_pd_miss)
        {
            return Some((
                t.len() - 1,
                format!(
                    "bcache PD counters drifted: oracle ({}, {}) vs model ({}, {})",
                    oracle.pd_hit_misses(),
                    oracle.pd_miss_misses(),
                    pd.misses_with_pd_hit,
                    pd.misses_with_pd_miss
                ),
            ));
        }
        (!model.invariants_hold()).then(|| (t.len() - 1, "bcache invariants violated".into()))
    };
    let bas_bits = (bas as u64).trailing_zeros();
    let npi_bits = index_bits - bas_bits;
    let pi_bits = bas_bits + mf_bits;
    let tag_sel = if high { "High" } else { "Low" };
    let setup = format!(
        "    let geom = cache_sim::CacheGeometry::with_addr_bits({size}, {line}, 1, {addr_bits}).unwrap();\n\
         \x20   let params = bcache_core::BCacheParams::new(geom, {mf}, {bas}, cache_sim::PolicyKind::{policy:?}).unwrap()\n\
         \x20       .with_seed({pseed}).with_pi_tag_bits(bcache_core::PiTagBits::{tag_sel});\n\
         \x20   let mut model = bcache_core::BalancedCache::new(params);\n\
         \x20   let mut oracle = cache_sim::oracle::BCacheOracle::new({line}, {addr_bits}, {npi_bits}, {pi_bits}, {mf_bits}, {high}, (cache_sim::PolicyKind::{policy:?}, {pseed}));\n"
    );
    diverge(
        "bcache_vs_oracle",
        case,
        seed,
        trace,
        &check,
        setup,
        ORACLE_BODY,
    )
}

fn wrapper_vs_oracle(seed: u64, case: u64, rng: &mut CaseRng) -> Option<Divergence> {
    let line = 32usize;
    let sets = rng.pick(&[4usize, 8, 16]);
    let which = rng.below(4);
    let assoc = match which {
        0 => rng.pick(&[2usize, 4, 8]), // HAC subarrays
        1 | 2 => 2,                     // PAM / difference-bit are 2-way
        _ => rng.pick(&[2usize, 4]),    // way-halting
    };
    let size = sets * assoc * line;
    let pad_bits = 1 + rng.below(5) as u32;
    let trace = gen_trace(rng, line as u64, 3 * sets as u64, 32 * size as u64);
    let (name, setup_model): (&'static str, String) = match which {
        0 => (
            "hac_vs_oracle",
            format!(
                "    let mut model = cache_sim::HighlyAssociativeCache::new({size}, {line}, {}).unwrap();\n",
                assoc * line
            ),
        ),
        1 => (
            "pam_vs_oracle",
            format!(
                "    let mut model = cache_sim::PartialMatchCache::new({size}, {line}, {pad_bits}).unwrap();\n"
            ),
        ),
        2 => (
            "diffbit_vs_oracle",
            format!(
                "    let mut model = cache_sim::DifferenceBitCache::new({size}, {line}).unwrap();\n"
            ),
        ),
        _ => (
            "way_halting_vs_oracle",
            format!(
                "    let mut model = cache_sim::WayHaltingCache::new({size}, {line}, {assoc}, {pad_bits}).unwrap();\n"
            ),
        ),
    };
    let check = move |t: &[FuzzRecord]| -> Option<(usize, String)> {
        let mut model: Box<dyn CacheModel> = match which {
            0 => Box::new(HighlyAssociativeCache::new(size, line, assoc * line).unwrap()),
            1 => Box::new(PartialMatchCache::new(size, line, pad_bits).unwrap()),
            2 => Box::new(DifferenceBitCache::new(size, line).unwrap()),
            _ => Box::new(WayHaltingCache::new(size, line, assoc, pad_bits).unwrap()),
        };
        // All four wrap an n-way LRU array (seed 0): the wrapper may add
        // latency metadata but never change hits, misses or evictions.
        let mut oracle = OracleCache::new(size, line, assoc, PolicyKind::Lru, 0, 32);
        for (i, &(addr, w)) in t.iter().enumerate() {
            let got = model.access(Addr::new(addr), kind(w));
            let want = oracle.access(Addr::new(addr), kind(w));
            if let Some(d) = want.diff(&got) {
                return Some((i, format!("{}[{size}B] at {addr:#x}: {d}", model.label())));
            }
        }
        None
    };
    let setup = format!(
        "{setup_model}\
         \x20   let mut oracle = cache_sim::oracle::OracleCache::new({size}, {line}, {assoc}, cache_sim::PolicyKind::Lru, 0, 32);\n"
    );
    diverge(name, case, seed, trace, &check, setup, ORACLE_BODY)
}

fn degenerate_equivalences(seed: u64, case: u64, rng: &mut CaseRng) -> Option<Divergence> {
    let line = 32usize;
    let sets = rng.pick(&[8usize, 16, 32]);
    let size = sets * line;
    let use_bcache = rng.below(2) == 1;
    let trace = gen_trace(rng, line as u64, 2 * sets as u64, 32 * size as u64);
    let check = move |t: &[FuzzRecord]| -> Option<(usize, String)> {
        let mut right = DirectMappedCache::new(size, line).unwrap();
        let mut left: Box<dyn CacheModel> = if use_bcache {
            let geom = CacheGeometry::new(size, line, 1).unwrap();
            let params = BCacheParams::new(geom, 1, 1, PolicyKind::Lru).unwrap();
            Box::new(BalancedCache::new(params))
        } else {
            Box::new(SetAssociativeCache::new(size, line, 1, PolicyKind::Lru, 0).unwrap())
        };
        for (i, &(addr, w)) in t.iter().enumerate() {
            let a = left.access(Addr::new(addr), kind(w));
            let b = right.access(Addr::new(addr), kind(w));
            if a.hit != b.hit || a.evicted != b.evicted {
                return Some((
                    i,
                    format!(
                        "{} must equal DM at {addr:#x}: hit {} vs {}",
                        left.label(),
                        a.hit,
                        b.hit
                    ),
                ));
            }
        }
        None
    };
    let left_setup = if use_bcache {
        format!(
            "    let geom = cache_sim::CacheGeometry::new({size}, {line}, 1).unwrap();\n\
             \x20   let mut left = bcache_core::BalancedCache::new(bcache_core::BCacheParams::new(geom, 1, 1, cache_sim::PolicyKind::Lru).unwrap());\n"
        )
    } else {
        format!(
            "    let mut left = cache_sim::SetAssociativeCache::new({size}, {line}, 1, cache_sim::PolicyKind::Lru, 0).unwrap();\n"
        )
    };
    let setup = format!(
        "{left_setup}\
         \x20   let mut right = cache_sim::DirectMappedCache::new({size}, {line}).unwrap();\n"
    );
    diverge(
        "degenerate_equals_dm",
        case,
        seed,
        trace,
        &check,
        setup,
        PAIR_BODY,
    )
}

fn full_pi_equivalence(seed: u64, case: u64, rng: &mut CaseRng) -> Option<Divergence> {
    // 1 kB, 16-bit addresses: tag is 6 bits, MF = 2^6 consumes it all, so
    // a PD hit implies a tag hit and the B-Cache is a BAS-way LRU cache.
    let line = 32usize;
    let size = 1024usize;
    let addr_bits = 16u32;
    let bas = rng.pick(&[2usize, 4, 8]);
    let policy = rng.pick(&[PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::TreePlru]);
    let trace = gen_trace(rng, line as u64, 64, 1 << addr_bits);
    let check = move |t: &[FuzzRecord]| -> Option<(usize, String)> {
        let geom = CacheGeometry::with_addr_bits(size, line, 1, addr_bits).unwrap();
        let params = BCacheParams::new(geom, 1 << 6, bas, policy).unwrap();
        let mut left = BalancedCache::new(params);
        let sa_geom = CacheGeometry::with_addr_bits(size, line, bas, addr_bits).unwrap();
        let mut right = SetAssociativeCache::from_geometry(sa_geom, policy, 0).unwrap();
        for (i, &(addr, w)) in t.iter().enumerate() {
            let a = left.access(Addr::new(addr), kind(w));
            let b = right.access(Addr::new(addr), kind(w));
            if a.hit != b.hit {
                return Some((
                    i,
                    format!("full-PI BAS{bas} {policy:?} must equal set-assoc at {addr:#x}"),
                ));
            }
        }
        if left.pd_stats().misses_with_pd_hit != 0 {
            return Some((t.len() - 1, "full-PI PD hit cannot be a tag miss".into()));
        }
        None
    };
    let setup = format!(
        "    let geom = cache_sim::CacheGeometry::with_addr_bits({size}, {line}, 1, {addr_bits}).unwrap();\n\
         \x20   let mut left = bcache_core::BalancedCache::new(bcache_core::BCacheParams::new(geom, 64, {bas}, cache_sim::PolicyKind::{policy:?}).unwrap());\n\
         \x20   let sa = cache_sim::CacheGeometry::with_addr_bits({size}, {line}, {bas}, {addr_bits}).unwrap();\n\
         \x20   let mut right = cache_sim::SetAssociativeCache::from_geometry(sa, cache_sim::PolicyKind::{policy:?}, 0).unwrap();\n"
    );
    diverge(
        "full_pi_equals_set_assoc",
        case,
        seed,
        trace,
        &check,
        setup,
        PAIR_BODY,
    )
}

fn lru_ways_inclusion(seed: u64, case: u64, rng: &mut CaseRng) -> Option<Divergence> {
    let line = 32usize;
    let sets = rng.pick(&[4usize, 8, 16]);
    let ways = rng.pick(&[1usize, 2, 4]);
    let trace = gen_trace(rng, line as u64, 4 * sets as u64, 1 << 16);
    let check = move |t: &[FuzzRecord]| -> Option<(usize, String)> {
        let mut small =
            SetAssociativeCache::new(sets * ways * line, line, ways, PolicyKind::Lru, 0).unwrap();
        let mut big =
            SetAssociativeCache::new(sets * 2 * ways * line, line, 2 * ways, PolicyKind::Lru, 0)
                .unwrap();
        for (i, &(addr, w)) in t.iter().enumerate() {
            let a = small.access(Addr::new(addr), kind(w));
            let b = big.access(Addr::new(addr), kind(w));
            if a.hit && !b.hit {
                return Some((
                    i,
                    format!(
                        "LRU inclusion broken at {addr:#x}: {ways}-way hit, {}-way miss",
                        2 * ways
                    ),
                ));
            }
        }
        None
    };
    let setup = format!(
        "    let mut left = cache_sim::SetAssociativeCache::new({}, {line}, {ways}, cache_sim::PolicyKind::Lru, 0).unwrap();\n\
         \x20   let mut right = cache_sim::SetAssociativeCache::new({}, {line}, {}, cache_sim::PolicyKind::Lru, 0).unwrap();\n",
        sets * ways * line,
        sets * 2 * ways * line,
        2 * ways
    );
    diverge(
        "lru_ways_inclusion",
        case,
        seed,
        trace,
        &check,
        setup,
        PAIR_BODY,
    )
}

fn fa_lru_stack(seed: u64, case: u64, rng: &mut CaseRng) -> Option<Divergence> {
    let line = 32usize;
    let lines = rng.pick(&[4usize, 8, 16]);
    let trace = gen_trace(rng, line as u64, 4 * lines as u64, 1 << 16);
    let check = move |t: &[FuzzRecord]| -> Option<(usize, String)> {
        let mut small =
            SetAssociativeCache::fully_associative(lines, line, PolicyKind::Lru, 0).unwrap();
        let mut big =
            SetAssociativeCache::fully_associative(2 * lines, line, PolicyKind::Lru, 0).unwrap();
        for (i, &(addr, w)) in t.iter().enumerate() {
            let a = small.access(Addr::new(addr), kind(w));
            let b = big.access(Addr::new(addr), kind(w));
            if a.hit && !b.hit {
                return Some((
                    i,
                    format!(
                        "FA-LRU stack property broken at {addr:#x} ({lines} vs {} lines)",
                        2 * lines
                    ),
                ));
            }
        }
        None
    };
    let setup = format!(
        "    let mut left = cache_sim::SetAssociativeCache::fully_associative({lines}, {line}, cache_sim::PolicyKind::Lru, 0).unwrap();\n\
         \x20   let mut right = cache_sim::SetAssociativeCache::fully_associative({}, {line}, cache_sim::PolicyKind::Lru, 0).unwrap();\n",
        2 * lines
    );
    diverge("fa_lru_stack", case, seed, trace, &check, setup, PAIR_BODY)
}

fn demand_fill_sanity(seed: u64, case: u64, rng: &mut CaseRng) -> Option<Divergence> {
    let line = 32usize;
    let sets = rng.pick(&[8usize, 16]);
    let size = sets * line;
    let which = rng.below(4);
    let entries = rng.pick(&[2usize, 4, 8]);
    let trace = gen_trace(rng, line as u64, 2 * sets as u64, 64 * size as u64);
    let (name, model_setup): (&'static str, String) = match which {
        0 => (
            "victim_sanity",
            format!("    let mut model = cache_sim::VictimCache::new({size}, {line}, {entries}).unwrap();\n"),
        ),
        1 => (
            "column_sanity",
            format!("    let mut model = cache_sim::ColumnAssociativeCache::new({size}, {line}).unwrap();\n"),
        ),
        2 => (
            "skewed_sanity",
            format!("    let mut model = cache_sim::SkewedAssociativeCache::new({size}, {line}).unwrap();\n"),
        ),
        _ => (
            "agac_sanity",
            format!("    let mut model = cache_sim::AgacCache::new({size}, {line}, {entries}).unwrap();\n"),
        ),
    };
    let check = move |t: &[FuzzRecord]| -> Option<(usize, String)> {
        let mut model: Box<dyn CacheModel> = match which {
            0 => Box::new(VictimCache::new(size, line, entries).unwrap()),
            1 => Box::new(ColumnAssociativeCache::new(size, line).unwrap()),
            2 => Box::new(SkewedAssociativeCache::new(size, line).unwrap()),
            _ => Box::new(AgacCache::new(size, line, entries).unwrap()),
        };
        let mut dm = DirectMappedCache::new(size, line).unwrap();
        let mut seen: HashSet<u64> = HashSet::new();
        let mut hits = 0u64;
        for (i, &(addr, w)) in t.iter().enumerate() {
            let block = addr / line as u64;
            let r = model.access(Addr::new(addr), kind(w));
            let dm_hit = dm.access(Addr::new(addr), kind(w)).hit;
            if r.hit && !seen.contains(&block) {
                return Some((
                    i,
                    format!("{} hit a never-seen block at {addr:#x}", model.label()),
                ));
            }
            // The victim cache's main array mirrors a plain DM array, so
            // its hits are a superset of the DM hits on every access.
            if which == 0 && dm_hit && !r.hit {
                return Some((i, format!("victim cache lost a DM hit at {addr:#x}")));
            }
            seen.insert(block);
            if r.hit {
                hits += 1;
            }
        }
        let total = model.stats().total();
        if total.accesses() != t.len() as u64 || total.hits() != hits {
            return Some((
                t.len() - 1,
                format!(
                    "{} miscounted: {} accesses / {} hits vs replayed {} / {}",
                    model.label(),
                    total.accesses(),
                    total.hits(),
                    t.len(),
                    hits
                ),
            ));
        }
        let compulsory = distinct_blocks(t.iter().map(|&(a, _)| Addr::new(a)), line as u64);
        (total.misses() < compulsory).then(|| {
            (
                t.len() - 1,
                format!(
                    "{} beat the compulsory bound: {} misses < {} distinct blocks",
                    model.label(),
                    total.misses(),
                    compulsory
                ),
            )
        })
    };
    let body = "        let _ = model.access(cache_sim::Addr::new(addr), kind);\n\
         \x20       // Replay and re-check the demand-fill invariants (see harness::fuzz).\n";
    diverge(name, case, seed, trace, &check, model_setup, body)
}

fn batch_equivalence(seed: u64, case: u64, rng: &mut CaseRng) -> Option<Divergence> {
    let line = 32usize;
    let sets = rng.pick(&[8usize, 16, 32]);
    let size = sets * line;
    let which = rng.below(10);
    let assoc = rng.pick(&[2usize, 4, 8]);
    let policy = rng.pick(&[
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::Random,
        PolicyKind::TreePlru,
    ]);
    let pseed = rng.next();
    let entries = rng.pick(&[2usize, 4, 8]);
    let mf = rng.pick(&[1usize, 2, 4, 8]);
    let bas = rng.pick(&[1usize, 2, 4, 8]).min(sets);
    let pad_bits = 1 + rng.below(5) as u32;
    let trace = gen_trace(rng, line as u64, 2 * sets as u64, 32 * size as u64);
    let build = move || -> Box<dyn CacheModel> {
        match which {
            0 => Box::new(DirectMappedCache::new(size, line).unwrap()),
            1 => Box::new(
                SetAssociativeCache::new(size * assoc, line, assoc, policy, pseed).unwrap(),
            ),
            2 => {
                let geom = CacheGeometry::new(size, line, 1).unwrap();
                let params = BCacheParams::new(geom, mf, bas, policy)
                    .unwrap()
                    .with_seed(pseed);
                Box::new(BalancedCache::new(params))
            }
            3 => Box::new(VictimCache::new(size, line, entries).unwrap()),
            4 => Box::new(ColumnAssociativeCache::new(size, line).unwrap()),
            5 => Box::new(SkewedAssociativeCache::new(size, line).unwrap()),
            6 => Box::new(AgacCache::new(size, line, entries).unwrap()),
            7 => Box::new(HighlyAssociativeCache::new(size * assoc, line, assoc * line).unwrap()),
            8 => Box::new(PartialMatchCache::new(size * 2, line, pad_bits).unwrap()),
            _ => Box::new(WayHaltingCache::new(size * assoc, line, assoc, pad_bits).unwrap()),
        }
    };
    let check = move |t: &[FuzzRecord]| -> Option<(usize, String)> {
        let mut scalar = build();
        let mut batched = build();
        let accesses: Vec<(Addr, AccessKind)> =
            t.iter().map(|&(a, w)| (Addr::new(a), kind(w))).collect();
        batched.access_batch(&accesses);
        for &(addr, w) in t {
            scalar.access(Addr::new(addr), kind(w));
        }
        (scalar.stats() != batched.stats()).then(|| {
            (
                t.len() - 1,
                format!(
                    "{}: batched stats diverge from the per-access loop ({:?} vs {:?})",
                    scalar.label(),
                    batched.stats().total(),
                    scalar.stats().total()
                ),
            )
        })
    };
    let model_setup: String = match which {
        0 => format!("    let mut model = cache_sim::DirectMappedCache::new({size}, {line}).unwrap();\n"),
        1 => format!(
            "    let mut model = cache_sim::SetAssociativeCache::new({}, {line}, {assoc}, cache_sim::PolicyKind::{policy:?}, {pseed}).unwrap();\n",
            size * assoc
        ),
        2 => format!(
            "    let geom = cache_sim::CacheGeometry::new({size}, {line}, 1).unwrap();\n\
             \x20   let mut model = bcache_core::BalancedCache::new(bcache_core::BCacheParams::new(geom, {mf}, {bas}, cache_sim::PolicyKind::{policy:?}).unwrap().with_seed({pseed}));\n"
        ),
        3 => format!("    let mut model = cache_sim::VictimCache::new({size}, {line}, {entries}).unwrap();\n"),
        4 => format!("    let mut model = cache_sim::ColumnAssociativeCache::new({size}, {line}).unwrap();\n"),
        5 => format!("    let mut model = cache_sim::SkewedAssociativeCache::new({size}, {line}).unwrap();\n"),
        6 => format!("    let mut model = cache_sim::AgacCache::new({size}, {line}, {entries}).unwrap();\n"),
        7 => format!(
            "    let mut model = cache_sim::HighlyAssociativeCache::new({}, {line}, {}).unwrap();\n",
            size * assoc,
            assoc * line
        ),
        8 => format!(
            "    let mut model = cache_sim::PartialMatchCache::new({}, {line}, {pad_bits}).unwrap();\n",
            size * 2
        ),
        _ => format!(
            "    let mut model = cache_sim::WayHaltingCache::new({}, {line}, {assoc}, {pad_bits}).unwrap();\n",
            size * assoc
        ),
    };
    let body = "        let _ = model.access(cache_sim::Addr::new(addr), kind);\n\
         \x20       // Replay this trace through `access_batch` on an identical model\n\
         \x20       // and compare `stats()` (see harness::fuzz, batch_equivalence).\n";
    diverge(
        "batch_equivalence",
        case,
        seed,
        trace,
        &check,
        model_setup,
        body,
    )
}

fn batched_vs_oracle(seed: u64, case: u64, rng: &mut CaseRng) -> Option<Divergence> {
    let line = 32usize;
    let sets = rng.pick(&[4usize, 8, 16]);
    let which = rng.below(6);
    let assoc = match which {
        0 => 1,                                // direct-mapped
        1 => rng.pick(&[1usize, 2, 4, 8, 16]), // const-dispatched widths
        2 => rng.pick(&[2usize, 4, 8]),        // HAC subarrays
        3 | 4 => 2,                            // PAM / difference-bit
        _ => rng.pick(&[2usize, 4]),           // way-halting
    };
    let size = sets * assoc * line;
    let policy = if which == 1 {
        rng.pick(&[
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Random,
            PolicyKind::TreePlru,
        ])
    } else {
        PolicyKind::Lru
    };
    let pseed = if which == 1 { rng.next() } else { 0 };
    let pad_bits = 1 + rng.below(5) as u32;
    let chunk = 1 + rng.below(64) as usize;
    let trace = gen_trace(rng, line as u64, 3 * sets as u64, 32 * size as u64);
    let (name, model_setup): (&'static str, String) = match which {
        0 => (
            "batched_dm_vs_oracle",
            format!("    let mut model = cache_sim::DirectMappedCache::new({size}, {line}).unwrap();\n"),
        ),
        1 => (
            "batched_set_assoc_vs_oracle",
            format!(
                "    let mut model = cache_sim::SetAssociativeCache::new({size}, {line}, {assoc}, cache_sim::PolicyKind::{policy:?}, {pseed}).unwrap();\n"
            ),
        ),
        2 => (
            "batched_hac_vs_oracle",
            format!(
                "    let mut model = cache_sim::HighlyAssociativeCache::new({size}, {line}, {}).unwrap();\n",
                assoc * line
            ),
        ),
        3 => (
            "batched_pam_vs_oracle",
            format!(
                "    let mut model = cache_sim::PartialMatchCache::new({size}, {line}, {pad_bits}).unwrap();\n"
            ),
        ),
        4 => (
            "batched_diffbit_vs_oracle",
            format!(
                "    let mut model = cache_sim::DifferenceBitCache::new({size}, {line}).unwrap();\n"
            ),
        ),
        _ => (
            "batched_way_halting_vs_oracle",
            format!(
                "    let mut model = cache_sim::WayHaltingCache::new({size}, {line}, {assoc}, {pad_bits}).unwrap();\n"
            ),
        ),
    };
    let check = move |t: &[FuzzRecord]| -> Option<(usize, String)> {
        let mut model: Box<dyn CacheModel> = match which {
            0 => Box::new(DirectMappedCache::new(size, line).unwrap()),
            1 => Box::new(SetAssociativeCache::new(size, line, assoc, policy, pseed).unwrap()),
            2 => Box::new(HighlyAssociativeCache::new(size, line, assoc * line).unwrap()),
            3 => Box::new(PartialMatchCache::new(size, line, pad_bits).unwrap()),
            4 => Box::new(DifferenceBitCache::new(size, line).unwrap()),
            _ => Box::new(WayHaltingCache::new(size, line, assoc, pad_bits).unwrap()),
        };
        let mut oracle = OracleCache::new(size, line, assoc, policy, pseed, 32);
        let accesses: Vec<(Addr, AccessKind)> =
            t.iter().map(|&(a, w)| (Addr::new(a), kind(w))).collect();
        for slice in accesses.chunks(chunk) {
            model.access_batch(slice);
        }
        for &(addr, w) in t {
            oracle.access(Addr::new(addr), kind(w));
        }
        let total = model.stats().total();
        let got = (total.hits(), total.misses(), model.stats().writebacks());
        let want = (oracle.hits(), oracle.misses(), oracle.writebacks());
        (got != want).then(|| {
            (
                t.len() - 1,
                format!(
                    "{} batched in {chunk}-chunks: (hits, misses, writebacks) {got:?} vs oracle {want:?}",
                    model.label()
                ),
            )
        })
    };
    let body = format!(
        "        let _ = model.access(cache_sim::Addr::new(addr), kind);\n\
         \x20       // Replay this trace through `access_batch` in {chunk}-sized chunks on an\n\
         \x20       // identical model and compare final counters to the oracle (see\n\
         \x20       // harness::fuzz, batched_vs_oracle).\n"
    );
    diverge(name, case, seed, trace, &check, model_setup, &body)
}

fn birthday_adversarial(seed: u64, case: u64, rng: &mut CaseRng) -> Option<Divergence> {
    // The aligned birthday adversary at the paper's 16 kB baseline:
    // k blocks spaced 2^19 apart agree on the direct-mapped index bits
    // [5, 14) *and* the MF8/BAS8 NPI [5, 11) / PI [11, 17) fields, so
    // both caches collapse to a single resident block. The exact
    // pathwise oracle is then "hit iff the block repeats back-to-back",
    // whose expectation over a uniform draw is the closed-form
    // 1 − 1/k of `analytic::birthday::aligned_adversary_miss_rate`.
    let size = 16 * 1024usize;
    let line = 32usize;
    let k = rng.pick(&[8u64, 16, 32, 64]);
    let base = 0x1000_0000u64;
    let spacing = 1u64 << 19;
    let len = 128 + rng.below(256) as usize;
    let trace: Vec<FuzzRecord> = (0..len)
        .map(|_| (base + rng.below(k) * spacing, rng.below(4) == 0))
        .collect();
    let check = move |t: &[FuzzRecord]| -> Option<(usize, String)> {
        let geom = CacheGeometry::new(size, line, 1).unwrap();
        let params = BCacheParams::new(geom, 8, 8, PolicyKind::Lru).unwrap();
        let layout = params.layout();
        let mut dm = DirectMappedCache::new(size, line).unwrap();
        let mut bc = BalancedCache::new(params);
        let mut last = None;
        let mut expected_misses = 0u64;
        for (i, &(addr, w)) in t.iter().enumerate() {
            let a = Addr::new(addr);
            if (geom.set_index(a), layout.npi(a), layout.pi(a))
                != (
                    geom.set_index(Addr::new(base)),
                    layout.npi(Addr::new(base)),
                    layout.pi(Addr::new(base)),
                )
            {
                return Some((i, format!("adversary block {addr:#x} left the shared set")));
            }
            let block = addr / line as u64;
            let expect_hit = last == Some(block);
            expected_misses += u64::from(!expect_hit);
            last = Some(block);
            let d = dm.access(a, kind(w));
            let b = bc.access(a, kind(w));
            if d.hit != expect_hit {
                return Some((
                    i,
                    format!("DM must hit iff the block repeats, at {addr:#x}"),
                ));
            }
            if b.hit != expect_hit {
                return Some((
                    i,
                    format!("the adversary defeats the PD: B-Cache must behave DM at {addr:#x}"),
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
    let setup = format!(
        "    let mut right = cache_sim::DirectMappedCache::new({size}, {line}).unwrap();\n\
         \x20   let geom = cache_sim::CacheGeometry::new({size}, {line}, 1).unwrap();\n\
         \x20   let mut left = bcache_core::BalancedCache::new(bcache_core::BCacheParams::new(geom, 8, 8, cache_sim::PolicyKind::Lru).unwrap());\n"
    );
    diverge(
        "birthday_adversarial",
        case,
        seed,
        trace,
        &check,
        setup,
        PAIR_BODY,
    )
}

fn simd_vs_oracle(seed: u64, case: u64, rng: &mut CaseRng) -> Option<Divergence> {
    // The batched B-Cache kernel is the heaviest consumer of the
    // `cache_sim::simd` lane ops (PD probes, tag compares, victim
    // scans); driving it purely through `access_batch` at a random
    // chunk size against the per-access oracle is the differential
    // check for the whole lane layer, on the bodies this CPU selects.
    let line = 32usize;
    let size = rng.pick(&[256usize, 512, 1024, 2048]);
    let sets = size / line;
    let addr_bits = 16u32;
    let geom = CacheGeometry::with_addr_bits(size, line, 1, addr_bits).unwrap();
    let index_bits = geom.index_bits();
    let tag_bits = addr_bits - 5 - index_bits;
    let bas = rng.pick(&[1usize, 2, 4, 8]).min(sets);
    let mf_bits = rng.below((tag_bits + 1).min(4) as u64) as u32;
    let mf = 1usize << mf_bits;
    let policy = rng.pick(&[
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::Random,
        PolicyKind::TreePlru,
    ]);
    let pseed = rng.next();
    let chunk = 1 + rng.below(64) as usize;
    let trace = gen_trace(rng, line as u64, 2 * sets as u64, 1 << addr_bits);
    let check = move |t: &[FuzzRecord]| -> Option<(usize, String)> {
        let geom = CacheGeometry::with_addr_bits(size, line, 1, addr_bits).unwrap();
        let params = BCacheParams::new(geom, mf, bas, policy)
            .unwrap()
            .with_seed(pseed);
        let layout = params.layout();
        let mut model = BalancedCache::new(params);
        let mut oracle = BCacheOracle::new(
            line as u64,
            addr_bits,
            layout.npi_bits(),
            layout.pi_bits(),
            mf_bits,
            false,
            (policy, pseed),
        );
        let accesses: Vec<(Addr, AccessKind)> =
            t.iter().map(|&(a, w)| (Addr::new(a), kind(w))).collect();
        for slice in accesses.chunks(chunk) {
            model.access_batch(slice);
        }
        for &(addr, w) in t {
            oracle.access(Addr::new(addr), kind(w));
        }
        let total = model.stats().total();
        let pd = model.pd_stats();
        let got = (
            total.hits(),
            total.misses(),
            model.stats().writebacks(),
            pd.misses_with_pd_hit,
            pd.misses_with_pd_miss,
        );
        let want = (
            oracle.hits(),
            oracle.misses(),
            oracle.writebacks(),
            oracle.pd_hit_misses(),
            oracle.pd_miss_misses(),
        );
        if got != want {
            return Some((
                t.len() - 1,
                format!(
                    "simd bcache[{size}B MF{mf} BAS{bas} {policy:?}] batched in \
                     {chunk}-chunks: (h, m, wb, pdh, pdm) {got:?} vs oracle {want:?}"
                ),
            ));
        }
        (!model.invariants_hold()).then(|| (t.len() - 1, "bcache invariants violated".into()))
    };
    let setup = format!(
        "    let geom = cache_sim::CacheGeometry::with_addr_bits({size}, {line}, 1, {addr_bits}).unwrap();\n\
         \x20   let mut model = bcache_core::BalancedCache::new(bcache_core::BCacheParams::new(geom, {mf}, {bas}, cache_sim::PolicyKind::{policy:?}).unwrap().with_seed({pseed}));\n"
    );
    let body = format!(
        "        let _ = model.access(cache_sim::Addr::new(addr), kind);\n\
         \x20       // Replay this trace through `access_batch` in {chunk}-sized chunks on an\n\
         \x20       // identical model and compare final counters (incl. PD) to the\n\
         \x20       // per-access BCacheOracle (see harness::fuzz, simd_vs_oracle).\n"
    );
    diverge("simd_vs_oracle", case, seed, trace, &check, setup, &body)
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
        let o = FuzzOptions::parse(&["--scenario", "birthday_adversarial"]).unwrap();
        assert_eq!(o.scenario, Some(11));
        let o = FuzzOptions::parse(&["--scenario", "simd_vs_oracle"]).unwrap();
        assert_eq!(o.scenario, Some(SCENARIOS.len() - 1));
        let o = FuzzOptions::parse(&["--scenario", "0"]).unwrap();
        assert_eq!(o.scenario, Some(0));
        assert!(FuzzOptions::parse(&["--scenario", "nope"]).is_err());
        assert!(FuzzOptions::parse(&["--scenario", "99"]).is_err());
        assert!(FuzzOptions::parse(&["--scenario"]).is_err());
    }

    #[test]
    fn pinned_birthday_scenario_is_clean() {
        let opts = FuzzOptions {
            iters: 40,
            seed: 7,
            jobs: 2,
            scenario: Some(resolve_scenario("birthday_adversarial").unwrap()),
        };
        let report = run(&opts);
        assert!(report.divergences.is_empty(), "{}", report.render());
    }

    #[test]
    fn pinned_simd_oracle_scenario_is_clean() {
        let opts = FuzzOptions {
            iters: 60,
            seed: 13,
            jobs: 2,
            scenario: Some(resolve_scenario("simd_vs_oracle").unwrap()),
        };
        let report = run(&opts);
        assert!(report.divergences.is_empty(), "{}", report.render());
    }

    #[test]
    fn pinned_batched_oracle_scenario_is_clean() {
        let opts = FuzzOptions {
            iters: 60,
            seed: 11,
            jobs: 2,
            scenario: Some(resolve_scenario("batched_vs_oracle").unwrap()),
        };
        let report = run(&opts);
        assert!(report.divergences.is_empty(), "{}", report.render());
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

//! Golden-stats regression suite: pins the exact post-warm-up counters
//! of eight representative profiles at a small fixed [`RunLength`], so a
//! model change that shifts any number fails loudly instead of silently.
//!
//! `mcf` is capacity-bound, `gzip` is cache-friendly, `equake` is the
//! conflict-heavy headline case; `ammp`, `art`, `gcc`, `parser` and
//! `vpr` spread the coverage across the remaining Figure 4/5 behaviour
//! classes so figure drift is caught per-benchmark. When a cell moves,
//! the failing test prints every row of its table regenerated from the
//! current models, in the table's own syntax. If the change was
//! deliberate, paste those rows over the table's in the same commit and
//! say why in the commit message.

use harness::config::CacheConfig;
use harness::parallel::{job_seed, TraceCache};
use harness::run::{replay, replay_config_counts, ExactCounts, RunLength, Side, SideTrace};
use trace_gen::profiles;

fn len() -> RunLength {
    RunLength {
        records: 50_000,
        warmup: 5_000,
        seed: 1,
    }
}

fn counts(traces: &TraceCache, benchmark: &str, config: CacheConfig, side: Side) -> ExactCounts {
    let p = profiles::by_name(benchmark).expect("known benchmark");
    let records = traces.get(&p, len());
    replay_config_counts(benchmark, &records, &config, 16 * 1024, side, len())
}

/// Exact PD counters (misses with a PD hit, misses with a PD miss) of
/// the paper design point (MF=8, BAS=8) on the data side.
fn pd_counts(traces: &TraceCache, benchmark: &str) -> (u64, u64) {
    let p = profiles::by_name(benchmark).expect("known benchmark");
    let records = traces.get(&p, len());
    let mut bc = BC.build(16 * 1024, 0).expect("the design point builds");
    replay(records.iter(), bc.as_mut(), Side::Data, len().warmup);
    let pd = bc.decoder_stats().expect("a B-Cache has decoders");
    (pd.misses_with_pd_hit, pd.misses_with_pd_miss)
}

/// `n` as the tables write it: `_` between groups of three digits.
fn lit(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push('_');
        }
        out.push(c);
    }
    out
}

/// One `GOLDEN` row, as the table spells it.
fn golden_row(benchmark: &str, config: CacheConfig, side: Side, c: ExactCounts) -> String {
    let name = NAMES
        .iter()
        .find(|n| n.0 == config)
        .expect("every pinned config has a name")
        .1;
    format!(
        "    (\"{benchmark}\", {name}, Side::{side:?}, {}, {}),\n",
        lit(c.accesses),
        lit(c.misses)
    )
}

/// One `GOLDEN_PD` row, as the table spells it.
fn pd_row(benchmark: &str, (pd_hits, pd_misses): (u64, u64)) -> String {
    format!(
        "    (\"{benchmark}\", {}, {}),\n",
        lit(pd_hits),
        lit(pd_misses)
    )
}

/// Declares each pinned config as a const named as the tables spell it,
/// plus `NAMES`, which spells it back for regenerated rows.
macro_rules! configs {
    ($($name:ident = $config:expr;)*) => {
        $(const $name: CacheConfig = $config;)*
        const NAMES: &[(CacheConfig, &str)] = &[$(($name, stringify!($name))),*];
    };
}

configs! {
    DM = CacheConfig::DirectMapped;
    W8 = CacheConfig::SetAssoc(8);
    BC = CacheConfig::BCache { mf: 8, bas: 8 };
    // The remaining paper configurations, pinned on the data side only:
    // their instruction-side rows are near-duplicates of the core configs'
    // and add bulk without discriminating power. HAC, WH4 and DFB run the
    // 32-, 4- and 2-way LRU set-associative kernel.
    V16 = CacheConfig::Victim(16);
    CA = CacheConfig::ColumnAssoc;
    SK2 = CacheConfig::SkewedAssoc;
    HAC = CacheConfig::Hac;
    WH4 = CacheConfig::WayHalting;
    AGC = CacheConfig::Agac;
    PAM = CacheConfig::Pam;
    DFB = CacheConfig::DiffBit;
}

/// `(benchmark, config, side, accesses, misses)` — every pinned cell.
/// Values measured at the fixed [`len`] above; they are exact, not
/// tolerances.
const GOLDEN: &[(&str, CacheConfig, Side, u64, u64)] = &[
    // mcf: capacity-bound — associativity barely dents the D$ misses.
    ("mcf", DM, Side::Data, 17_975, 13_592),
    ("mcf", W8, Side::Data, 17_975, 13_315),
    ("mcf", BC, Side::Data, 17_975, 13_347),
    ("mcf", V16, Side::Data, 17_975, 13_526),
    ("mcf", CA, Side::Data, 17_975, 13_461),
    ("mcf", SK2, Side::Data, 17_975, 13_437),
    ("mcf", HAC, Side::Data, 17_975, 13_348),
    ("mcf", WH4, Side::Data, 17_975, 13_282),
    ("mcf", AGC, Side::Data, 17_975, 13_690),
    ("mcf", PAM, Side::Data, 17_975, 13_398),
    ("mcf", DFB, Side::Data, 17_975, 13_398),
    ("mcf", DM, Side::Instruction, 5_625, 0),
    ("mcf", W8, Side::Instruction, 5_625, 0),
    ("mcf", BC, Side::Instruction, 5_625, 0),
    // gzip: cache-friendly — low miss counts everywhere.
    ("gzip", DM, Side::Data, 15_459, 2_738),
    ("gzip", W8, Side::Data, 15_459, 1_375),
    ("gzip", BC, Side::Data, 15_459, 1_464),
    ("gzip", V16, Side::Data, 15_459, 2_119),
    ("gzip", CA, Side::Data, 15_459, 1_451),
    ("gzip", SK2, Side::Data, 15_459, 1_599),
    ("gzip", HAC, Side::Data, 15_459, 1_375),
    ("gzip", WH4, Side::Data, 15_459, 1_375),
    ("gzip", AGC, Side::Data, 15_459, 1_984),
    ("gzip", PAM, Side::Data, 15_459, 1_473),
    ("gzip", DFB, Side::Data, 15_459, 1_473),
    ("gzip", DM, Side::Instruction, 5_625, 0),
    ("gzip", W8, Side::Instruction, 5_625, 0),
    ("gzip", BC, Side::Instruction, 5_625, 0),
    // equake: conflict-heavy — the B-Cache removes ~95% of D$ misses.
    ("equake", DM, Side::Data, 16_753, 7_515),
    ("equake", W8, Side::Data, 16_753, 244),
    ("equake", BC, Side::Data, 16_753, 349),
    ("equake", V16, Side::Data, 16_753, 5_175),
    ("equake", CA, Side::Data, 16_753, 5_555),
    ("equake", SK2, Side::Data, 16_753, 3_999),
    ("equake", HAC, Side::Data, 16_753, 244),
    ("equake", WH4, Side::Data, 16_753, 3_579),
    ("equake", AGC, Side::Data, 16_753, 749),
    ("equake", PAM, Side::Data, 16_753, 5_560),
    ("equake", DFB, Side::Data, 16_753, 5_560),
    ("equake", DM, Side::Instruction, 5_625, 448),
    ("equake", W8, Side::Instruction, 5_625, 128),
    ("equake", BC, Side::Instruction, 5_625, 128),
    // ammp: mixed — associativity halves the D$ misses, B-Cache tracks.
    ("ammp", DM, Side::Data, 16_537, 6_655),
    ("ammp", W8, Side::Data, 16_537, 3_555),
    ("ammp", BC, Side::Data, 16_537, 3_699),
    ("ammp", V16, Side::Data, 16_537, 5_958),
    ("ammp", CA, Side::Data, 16_537, 6_222),
    ("ammp", SK2, Side::Data, 16_537, 6_126),
    ("ammp", HAC, Side::Data, 16_537, 3_389),
    ("ammp", WH4, Side::Data, 16_537, 5_644),
    ("ammp", AGC, Side::Data, 16_537, 5_619),
    ("ammp", PAM, Side::Data, 16_537, 5_971),
    ("ammp", DFB, Side::Data, 16_537, 5_971),
    ("ammp", DM, Side::Instruction, 5_625, 96),
    ("ammp", W8, Side::Instruction, 5_625, 32),
    ("ammp", BC, Side::Instruction, 5_625, 32),
    // art: capacity-bound streaming — the B-Cache matches 8-way exactly.
    ("art", DM, Side::Data, 16_823, 3_431),
    ("art", W8, Side::Data, 16_823, 3_023),
    ("art", BC, Side::Data, 16_823, 3_023),
    ("art", V16, Side::Data, 16_823, 3_321),
    ("art", CA, Side::Data, 16_823, 3_024),
    ("art", SK2, Side::Data, 16_823, 3_102),
    ("art", HAC, Side::Data, 16_823, 3_023),
    ("art", WH4, Side::Data, 16_823, 3_023),
    ("art", AGC, Side::Data, 16_823, 3_260),
    ("art", PAM, Side::Data, 16_823, 3_025),
    ("art", DFB, Side::Data, 16_823, 3_025),
    ("art", DM, Side::Instruction, 5_625, 0),
    ("art", W8, Side::Instruction, 5_625, 0),
    ("art", BC, Side::Instruction, 5_625, 0),
    // gcc: the only profile with substantial I$ conflict misses.
    ("gcc", DM, Side::Data, 15_443, 5_894),
    ("gcc", W8, Side::Data, 15_443, 2_129),
    ("gcc", BC, Side::Data, 15_443, 2_306),
    ("gcc", V16, Side::Data, 15_443, 4_698),
    ("gcc", CA, Side::Data, 15_443, 4_542),
    ("gcc", SK2, Side::Data, 15_443, 4_552),
    ("gcc", HAC, Side::Data, 15_443, 2_065),
    ("gcc", WH4, Side::Data, 15_443, 4_031),
    ("gcc", AGC, Side::Data, 15_443, 3_854),
    ("gcc", PAM, Side::Data, 15_443, 4_358),
    ("gcc", DFB, Side::Data, 15_443, 4_358),
    ("gcc", DM, Side::Instruction, 5_625, 640),
    ("gcc", W8, Side::Instruction, 5_625, 192),
    ("gcc", BC, Side::Instruction, 5_625, 192),
    // parser: conflict-prone D$, I$ conflicts fully removed by 8-way.
    ("parser", DM, Side::Data, 15_303, 5_304),
    ("parser", W8, Side::Data, 15_303, 2_220),
    ("parser", BC, Side::Data, 15_303, 2_347),
    ("parser", V16, Side::Data, 15_303, 4_158),
    ("parser", CA, Side::Data, 15_303, 3_935),
    ("parser", SK2, Side::Data, 15_303, 3_534),
    ("parser", HAC, Side::Data, 15_303, 2_203),
    ("parser", WH4, Side::Data, 15_303, 2_648),
    ("parser", AGC, Side::Data, 15_303, 3_728),
    ("parser", PAM, Side::Data, 15_303, 3_737),
    ("parser", DFB, Side::Data, 15_303, 3_737),
    ("parser", DM, Side::Instruction, 5_625, 223),
    ("parser", W8, Side::Instruction, 5_625, 0),
    ("parser", BC, Side::Instruction, 5_625, 0),
    // vpr: conflict-heavy — 8-way removes ~70% of D$ misses.
    ("vpr", DM, Side::Data, 15_421, 3_343),
    ("vpr", W8, Side::Data, 15_421, 1_027),
    ("vpr", BC, Side::Data, 15_421, 1_231),
    ("vpr", V16, Side::Data, 15_421, 2_567),
    ("vpr", CA, Side::Data, 15_421, 3_168),
    ("vpr", SK2, Side::Data, 15_421, 2_296),
    ("vpr", HAC, Side::Data, 15_421, 1_024),
    ("vpr", WH4, Side::Data, 15_421, 1_305),
    ("vpr", AGC, Side::Data, 15_421, 1_609),
    ("vpr", PAM, Side::Data, 15_421, 2_968),
    ("vpr", DFB, Side::Data, 15_421, 2_968),
    ("vpr", DM, Side::Instruction, 5_625, 0),
    ("vpr", W8, Side::Instruction, 5_625, 0),
    ("vpr", BC, Side::Instruction, 5_625, 0),
];

/// `(benchmark, misses_with_pd_hit, misses_with_pd_miss)` at MF=8/BAS=8.
const GOLDEN_PD: &[(&str, u64, u64)] = &[
    ("mcf", 1_650, 11_697),
    ("gzip", 150, 1_314),
    ("equake", 176, 173),
    ("ammp", 544, 3_155),
    ("art", 0, 3_023),
    ("gcc", 407, 1_899),
    ("parser", 253, 2_094),
    ("vpr", 417, 814),
];

#[test]
fn miss_counts_match_the_golden_table() {
    let traces = TraceCache::new();
    let (mut moved, mut rows) = (Vec::new(), String::new());
    for &(benchmark, config, side, accesses, misses) in GOLDEN {
        let got = counts(&traces, benchmark, config, side);
        if got != (ExactCounts { accesses, misses }) {
            moved.push(format!("{benchmark} {config:?} {side:?}"));
        }
        rows += &golden_row(benchmark, config, side, got);
    }
    assert!(
        moved.is_empty(),
        "pinned cells moved: {moved:?}\nregenerated GOLDEN rows:\n{rows}"
    );
}

#[test]
fn pd_hit_stats_match_the_golden_table() {
    let traces = TraceCache::new();
    let (mut moved, mut rows) = (Vec::new(), String::new());
    for &(benchmark, pd_hits, pd_misses) in GOLDEN_PD {
        let got = pd_counts(&traces, benchmark);
        if got != (pd_hits, pd_misses) {
            moved.push(benchmark);
        }
        rows += &pd_row(benchmark, got);
    }
    assert!(
        moved.is_empty(),
        "PD counters moved: {moved:?}\nregenerated GOLDEN_PD rows:\n{rows}"
    );
}

#[test]
fn regenerated_rows_are_the_tables_own_lines() {
    // What a failing comparison prints must paste back verbatim: every
    // pinned row, regenerated from its own values, is a line of this file.
    let source = include_str!("golden_stats.rs");
    for &(benchmark, config, side, accesses, misses) in GOLDEN {
        let row = golden_row(benchmark, config, side, ExactCounts { accesses, misses });
        assert!(source.contains(&row), "{row}");
    }
    for &(benchmark, pd_hits, pd_misses) in GOLDEN_PD {
        let row = pd_row(benchmark, (pd_hits, pd_misses));
        assert!(source.contains(&row), "{row}");
    }
}

#[test]
fn batched_replay_reproduces_the_golden_table() {
    // The same pinned cells, but driven through [`SideTrace`] and hence
    // [`cache_sim::CacheModel::access_batch`] — the monomorphized batch
    // kernels used by the sharded experiment engine. The streaming
    // per-access test above and this one must agree on every cell, so a
    // batch-path optimization that shifts any counter fails here while
    // the scalar path still passes (and vice versa).
    let traces = TraceCache::new();
    for &(benchmark, config, side, accesses, misses) in GOLDEN {
        let p = profiles::by_name(benchmark).expect("known benchmark");
        let records = traces.get(&p, len());
        let seed = job_seed(len().seed, benchmark, side);
        let mut model = config.build(16 * 1024, seed).expect("config must build");
        let batched = SideTrace::extract(records.iter(), side, len().warmup);
        batched.replay(model.as_mut());
        let total = model.stats().total();
        assert_eq!(
            (total.accesses(), total.misses()),
            (accesses, misses),
            "{benchmark} {config:?} {side:?}: the batched path moved a pinned cell"
        );
    }
}

#[test]
fn golden_cells_are_internally_consistent() {
    // Within one (benchmark, side) the access count is config-invariant
    // (every model sees the same stream), and misses never exceed
    // accesses.
    for &(benchmark, _, side, accesses, misses) in GOLDEN {
        assert!(misses <= accesses, "{benchmark} {side:?}");
        let same: Vec<u64> = GOLDEN
            .iter()
            .filter(|g| g.0 == benchmark && g.2 == side)
            .map(|g| g.3)
            .collect();
        assert!(same.iter().all(|&a| a == accesses), "{benchmark} {side:?}");
    }
    // PAM and difference-bit are both contractually 2-way LRU caches
    // (their tricks change lookup energy, not placement), so their
    // pinned miss counts must be identical cell for cell.
    for &(benchmark, config, side, _, misses) in GOLDEN {
        if config == PAM {
            let dfb = GOLDEN
                .iter()
                .find(|g| g.0 == benchmark && g.1 == DFB && g.2 == side)
                .unwrap()
                .4;
            assert_eq!(misses, dfb, "{benchmark}: PAM and diff-bit diverged");
        }
    }
    // The PD splits sum to no more than the B-Cache's total misses.
    for &(benchmark, pd_hits, pd_misses) in GOLDEN_PD {
        let bc_misses = GOLDEN
            .iter()
            .find(|g| g.0 == benchmark && g.1 == BC && g.2 == Side::Data)
            .unwrap()
            .4;
        assert_eq!(pd_hits + pd_misses, bc_misses, "{benchmark}");
    }
}

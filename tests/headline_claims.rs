//! End-to-end checks of the paper's headline claims, exercised through
//! the same harness code that regenerates the tables and figures.
//!
//! Absolute numbers are not expected to match the paper (the substrate
//! is synthetic); these tests pin down the *shape*: who wins, in which
//! order, and where the crossovers sit.

use bcache_core::{BCacheParams, BalancedCache, PdHitPolicy, PiTagBits};
use cache_sim::{AccessKind, Addr, CacheGeometry, CacheModel, PolicyKind};
use harness::config::CacheConfig;
use harness::run::{run_miss_rates, RunLength, Side};
use harness::{default_parallelism, fig3, missrate, perf, Engine};
use trace_gen::{profiles, Op, Trace};

fn len() -> RunLength {
    RunLength::with_records(150_000)
}

fn engine() -> Engine {
    Engine::new(default_parallelism())
}

/// Abstract of the paper: large average miss-rate reductions for both
/// caches, with the instruction side gaining more than the data side.
#[test]
fn average_reductions_are_large_and_icache_gains_more() {
    let (fp, int) = missrate::figure4_with(&engine(), len());
    let fig5 = missrate::figure5_with(&engine(), len());
    let d_ave = (fp.average_reduction(fp.column("MF8-BAS8").unwrap())
        + int.average_reduction(int.column("MF8-BAS8").unwrap()))
        / 2.0;
    let i_ave = fig5.average_reduction(fig5.column("MF8-BAS8").unwrap());
    assert!(
        d_ave > 0.25,
        "D$ average reduction {d_ave:.3} (paper: 37.8%)"
    );
    assert!(
        i_ave > 0.45,
        "I$ average reduction {i_ave:.3} (paper: 64.5%)"
    );
    assert!(i_ave > d_ave, "the I$ gains more than the D$ in the paper");
}

/// Section 4.3.3: the B-Cache's upper bound is the same-BAS-way cache,
/// and at MF = 8 it performs at least as well as a 4-way cache.
#[test]
fn bcache_sits_between_4way_and_8way() {
    let (fp, int) = missrate::figure4_with(&engine(), len());
    for fig in [&fp, &int] {
        let red = |l: &str| fig.average_reduction(fig.column(l).unwrap());
        assert!(
            red("MF8-BAS8") >= red("4way") - 0.03,
            "{}: B-Cache {:.3} should be at least 4-way {:.3}",
            fig.title,
            red("MF8-BAS8"),
            red("4way")
        );
        assert!(
            red("MF8-BAS8") <= red("8way") + 0.03,
            "{}: B-Cache {:.3} bounded by 8-way {:.3}",
            fig.title,
            red("MF8-BAS8"),
            red("8way")
        );
    }
}

/// Section 4.3.2: pushing MF from 8 to 16 buys almost nothing (the paper
/// measures +1.7% / +1.0% / +0.4%).
#[test]
fn mf16_adds_little_over_mf8() {
    let (fp, int) = missrate::figure4_with(&engine(), len());
    for fig in [&fp, &int] {
        let red = |l: &str| fig.average_reduction(fig.column(l).unwrap());
        let delta = red("MF16-BAS8") - red("MF8-BAS8");
        assert!(
            (-0.01..0.06).contains(&delta),
            "{}: MF8->MF16 delta {delta:.3}",
            fig.title
        );
    }
}

/// Section 6.6: only `wupwise` loses to the 16-entry victim buffer on
/// the data side.
#[test]
fn victim_buffer_beats_bcache_only_on_wupwise() {
    let (fp, int) = missrate::figure4_with(&engine(), len());
    for fig in [&fp, &int] {
        let vi = fig.column("victim16").unwrap();
        let bi = fig.column("MF8-BAS8").unwrap();
        for row in &fig.rows {
            let victim = 1.0 - row.outcomes[vi].miss_rate / row.baseline_miss_rate.max(1e-12);
            let bcache = 1.0 - row.outcomes[bi].miss_rate / row.baseline_miss_rate.max(1e-12);
            if row.benchmark == "wupwise" {
                assert!(
                    victim > bcache,
                    "wupwise: victim {victim:.3} vs B-Cache {bcache:.3}"
                );
            } else {
                assert!(
                    bcache > victim - 0.05,
                    "{}: victim {victim:.3} should not beat B-Cache {bcache:.3}",
                    row.benchmark
                );
            }
        }
    }
}

/// Figure 3: wupwise's PD hit rate during misses stays high until MF=32
/// and collapses at MF=64, taking the miss rate down with it.
#[test]
fn fig3_pd_collapse_at_mf64() {
    let points = fig3::figure3_for_with(&engine(), "wupwise", len());
    let at = |mf: usize| points.iter().find(|p| p.mf == mf).unwrap();
    assert!(at(32).pd_hit_rate > 0.5);
    assert!(at(64).pd_hit_rate < 0.2);
    assert!(at(64).miss_rate < at(32).miss_rate * 0.6);
}

/// Table 7: capacity-bound benchmarks have no frequent-miss sets, so
/// balancing cannot help them (their reductions are small in Figure 4).
#[test]
fn capacity_benchmarks_gain_little() {
    let (fp, int) = missrate::figure4_with(&engine(), len());
    let col = fp.column("MF8-BAS8").unwrap();
    for fig in [&fp, &int] {
        for row in &fig.rows {
            if ["art", "lucas", "swim", "mcf"].contains(&row.benchmark.as_str()) {
                let red = 1.0 - row.outcomes[col].miss_rate / row.baseline_miss_rate.max(1e-12);
                assert!(
                    red < 0.2,
                    "{}: reduction {red:.3} should be small",
                    row.benchmark
                );
            }
        }
    }
}

/// Figure 8's headline: the B-Cache improves IPC on the conflict-heavy
/// benchmark the paper highlights (equake, +27.1% there) and never
/// regresses the capacity-bound ones meaningfully.
#[test]
fn ipc_improves_on_equake_and_not_worse_on_mcf() {
    let l = RunLength::with_records(120_000);
    let equake = profiles::by_name("equake").unwrap();
    let base = perf::run_config(&equake, &CacheConfig::DirectMapped, l);
    let bc = perf::run_config(&equake, &CacheConfig::BCache { mf: 8, bas: 8 }, l);
    assert!(
        bc.ipc > base.ipc * 1.05,
        "equake: {} vs {}",
        bc.ipc,
        base.ipc
    );

    let mcf = profiles::by_name("mcf").unwrap();
    let base = perf::run_config(&mcf, &CacheConfig::DirectMapped, l);
    let bc = perf::run_config(&mcf, &CacheConfig::BCache { mf: 8, bas: 8 }, l);
    assert!(
        bc.ipc > base.ipc * 0.97,
        "mcf must not regress: {} vs {}",
        bc.ipc,
        base.ipc
    );
}

/// Figure 9's headline: per-benchmark normalized energy of the B-Cache
/// beats the 8-way cache (which pays ~3x per access) on a hit-dominated
/// benchmark.
#[test]
fn bcache_energy_beats_8way() {
    let l = RunLength::with_records(120_000);
    let profile = profiles::by_name("gzip").unwrap();
    let row = perf::PerfRow {
        benchmark: "gzip".into(),
        outcomes: vec![
            perf::run_config(&profile, &CacheConfig::DirectMapped, l),
            perf::run_config(&profile, &CacheConfig::SetAssoc(8), l),
            perf::run_config(&profile, &CacheConfig::BCache { mf: 8, bas: 8 }, l),
        ],
    };
    let norm = row.normalized_energy();
    assert!(
        norm[2] < norm[1],
        "B-Cache {:.3} vs 8-way {:.3}",
        norm[2],
        norm[1]
    );
}

/// Figure 12: the B-Cache's MF=8/BAS=8 design point holds up at 8 kB and
/// 32 kB as well (the paper: "similar miss rate reductions").
#[test]
fn design_point_works_at_8k_and_32k() {
    let profile = profiles::by_name("equake").unwrap();
    for size in [8 * 1024usize, 32 * 1024] {
        let r = run_miss_rates(
            &profile,
            &[
                CacheConfig::BCache { mf: 8, bas: 8 },
                CacheConfig::SetAssoc(8),
            ],
            size,
            Side::Data,
            len(),
        );
        let bc = r.reduction(0);
        let w8 = r.reduction(1);
        assert!(bc > 0.5, "equake at {size}: B-Cache reduction {bc:.3}");
        assert!(bc <= w8 + 0.05, "bounded by 8-way at {size}");
    }
}

/// Section 7.1: the B-Cache beats the column-associative cache (a 2-way
/// equivalent) and matches or beats the skewed-associative cache
/// (a 4-way equivalent) on average.
#[test]
fn related_work_ordering() {
    let fig = missrate::related_work_with(&engine(), len());
    let red = |l: &str| fig.average_reduction(fig.column(l).unwrap());
    assert!(red("MF8-BAS8") > red("column"), "vs column-associative");
    assert!(
        red("MF8-BAS8") > red("skew2") - 0.05,
        "vs skewed-associative"
    );
    assert!(
        red("column") > 0.0 && red("skew2") > 0.0,
        "related work beats the baseline too"
    );
    // The HAC (fully programmable decoder) bounds everything from above.
    assert!(
        red("hac32") >= red("MF8-BAS8") - 0.03,
        "HAC is the B-Cache's limit case"
    );
}

/// The data accesses of the first 200k records of `benchmark` (seed 1)
/// — the stream the design-choice ablations below replay.
fn ablation_accesses(benchmark: &str) -> Vec<(Addr, AccessKind)> {
    let profile = profiles::by_name(benchmark).unwrap();
    Trace::new(&profile, 1)
        .take(200_000)
        .filter_map(|r| {
            let kind = if matches!(r.op, Op::Store(_)) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            r.op.data_addr().map(|a| (Addr::new(a), kind))
        })
        .collect()
}

/// Data-side miss rate of one B-Cache variant over
/// [`ablation_accesses`] (no warm-up reset).
fn ablation_miss_rate(benchmark: &str, params: BCacheParams) -> f64 {
    let mut bc = BalancedCache::new(params);
    for (addr, kind) in ablation_accesses(benchmark) {
        bc.access(addr, kind);
    }
    bc.stats().miss_rate()
}

/// The 16 kB, 32 B-line paper geometry the ablations replay.
fn ablation_geometry() -> CacheGeometry {
    CacheGeometry::new(16 * 1024, 32, 1).unwrap()
}

/// Section 3.3: LRU replacement in the B-Cache beats random
/// (equake D$: 1.99% vs 2.71%).
#[test]
fn ablation_lru_beats_random_replacement() {
    let lru = BCacheParams::new(ablation_geometry(), 8, 8, PolicyKind::Lru).unwrap();
    let random = BCacheParams::new(ablation_geometry(), 8, 8, PolicyKind::Random)
        .unwrap()
        .with_seed(7);
    let (lru, random) = (
        ablation_miss_rate("equake", lru),
        ablation_miss_rate("equake", random),
    );
    assert!(lru < random, "equake: LRU {lru:.5} vs random {random:.5}");
}

/// `(hits, misses, writebacks)` of `cache` after replaying `accesses`
/// one `access` at a time, and after one `access_batch` on a twin.
fn loop_and_batch_counts<C: CacheModel>(
    mut make: impl FnMut() -> C,
    accesses: &[(Addr, AccessKind)],
) -> [(u64, u64, u64); 2] {
    let counts = |c: &C| {
        let s = c.stats();
        (s.total().hits(), s.total().misses(), s.writebacks())
    };
    let mut looped = make();
    for &(addr, kind) in accesses {
        looped.access(addr, kind);
    }
    let mut batched = make();
    batched.access_batch(accesses);
    [counts(&looped), counts(&batched)]
}

/// Random replacement's exact counts, per access and batched: a 4 kB
/// 4-way set-associative cache (seed 5) over a fixed LCG stream, and
/// the random MF8-BAS8 B-Cache of the LRU-vs-random ablation (equake
/// D$, seed 7: the 2.708% of EXPERIMENTS.md). The ablation above only
/// orders the two policies; these pin random's victim draws exactly.
#[test]
fn random_replacement_counts_are_pinned() {
    let mut x = 0x5EED_0005u64;
    let stream: Vec<(Addr, AccessKind)> = (0..20_000)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let kind = if (x >> 61) == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            (Addr::new(((x >> 20) % 512) * 32), kind)
        })
        .collect();
    let set_assoc = loop_and_batch_counts(
        || cache_sim::SetAssociativeCache::new(4096, 32, 4, PolicyKind::Random, 5).unwrap(),
        &stream,
    );
    assert_eq!(set_assoc, [(4_937, 15_063, 2_383); 2], "random 4-way");
    let params = BCacheParams::new(ablation_geometry(), 8, 8, PolicyKind::Random)
        .unwrap()
        .with_seed(7);
    let bcache = loop_and_batch_counts(|| BalancedCache::new(params), &ablation_accesses("equake"));
    assert_eq!(
        bcache,
        [(71_770, 1_998, 1_127); 2],
        "random MF8-BAS8 on equake"
    );
}

/// Section 2.3: on a PD hit with a tag miss, evicting the forced victim
/// beats the evict-both alternative the paper rejects (wupwise D$:
/// 20.91% vs 23.15%).
#[test]
fn ablation_forced_victim_beats_evict_both() {
    let forced = BCacheParams::paper_default(ablation_geometry()).unwrap();
    let both = forced.with_pd_hit_policy(PdHitPolicy::EvictBoth);
    let (forced, both) = (
        ablation_miss_rate("wupwise", forced),
        ablation_miss_rate("wupwise", both),
    );
    assert!(
        forced < both,
        "wupwise: forced victim {forced:.5} vs evict-both {both:.5}"
    );
}

/// The indexing question the paper leaves open: PI bits from the low
/// tag bits (the paper's choice) beat the high ones on facerec's
/// near-spaced conflicts (D$: 19.48% vs 28.71%).
#[test]
fn ablation_low_pi_bits_beat_high_on_facerec() {
    let low = BCacheParams::paper_default(ablation_geometry()).unwrap();
    let high = low.with_pi_tag_bits(PiTagBits::High);
    let (low, high) = (
        ablation_miss_rate("facerec", low),
        ablation_miss_rate("facerec", high),
    );
    assert!(
        low < high,
        "facerec: low PI bits {low:.5} vs high {high:.5}"
    );
}

/// Section 6.3: at an equal 6-bit PD, design A (MF8/BAS8) beats
/// design B (MF16/BAS4) (twolf D$: 9.27% vs 23.44%).
#[test]
fn ablation_design_a_beats_design_b() {
    let a = BCacheParams::new(ablation_geometry(), 8, 8, PolicyKind::Lru).unwrap();
    let b = BCacheParams::new(ablation_geometry(), 16, 4, PolicyKind::Lru).unwrap();
    let (a, b) = (
        ablation_miss_rate("twolf", a),
        ablation_miss_rate("twolf", b),
    );
    assert!(a < b, "twolf: design A {a:.5} vs design B {b:.5}");
}

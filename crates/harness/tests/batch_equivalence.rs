//! Batch equivalence: the batched access kernels must be observably
//! free. Every check here is [`ModelSpec::differential`] over a list of
//! specs: driven through [`CacheModel::access_batch`], a model's
//! `stats()` and `set_usage()` must equal its own per-access loop's, and
//! its final hit/miss/writeback counters — plus the B-Cache's PD
//! counters and decoder invariants — must equal its oracle's
//! (`OracleCache` for the direct-mapped and set-associative caches,
//! `BCacheOracle` for the B-Cache, `VictimOracle` for
//! the victim cache; the column, skewed and AGAC caches have only their
//! own loop). The rows:
//!
//! * fixed 100k-access streams, in one batch and in chunks, over the
//!   paper geometries and every const-dispatched CAM width
//!   ([`model_specs`]), over the birthday adversaries, and over the
//!   degenerate geometries ([`degenerate_specs`]);
//! * properties over random traces × chunk sizes on small geometries
//!   ([`small_specs`]) and on drawn ones ([`ModelSpec::draw`]), plus
//!   the lane-boundary batch lengths.
//!
//! The B-Cache is the one model that takes an observer, so the
//! event-order test and the event-count test at the end are typed on
//! it rather than on a spec's trait object: batched and per access,
//! its event sequences must be equal, and its `Writeback`, `Miss` and
//! `SetTouch` events must add up to its writebacks, misses and
//! accesses. A divergence here means an optimization changed
//! simulation semantics, which no speedup justifies.

use bcache_core::{BCacheParams, BalancedCache, PdHitPolicy, PiTagBits};
use cache_sim::{AccessKind, Addr, CacheGeometry, CacheModel, PolicyKind};
use harness::models::{CaseRng, Drive, Family, ModelSpec};
use proptest::prelude::*;

const RECORDS: usize = 100_000;

/// Generates a deterministic 100k-access fuzz stream mixing uniform
/// traffic, power-of-two strides and hot-set conflict loops (the same
/// ingredients as `harness::fuzz::gen_trace`, scaled up).
fn stream(seed: u64) -> Vec<(Addr, AccessKind)> {
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x
    };
    let line = 32u64;
    let blocks = 1u64 << 14;
    (0..RECORDS)
        .map(|i| {
            let r = next();
            let block = match (r >> 60) % 4 {
                0 => (r >> 16) % 64,                   // hot uniform region
                1 => (i as u64 * 5) % blocks,          // strided sweep
                2 => (((r >> 16) % 8) * 512) % blocks, // conflict loop
                _ => (r >> 16) % blocks,               // uniform noise
            };
            let kind = if (r >> 8) % 4 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            (Addr::new(block * line), kind)
        })
        .collect()
}

/// Generates a birthday-adversarial stream: `k` blocks spaced `2^19`
/// apart, drawn uniformly. At the paper's 16 kB baseline the spacing
/// aligns the set index *and* the B-Cache NPI/PI fields, so every
/// model collapses to (at most) its associativity over one set — the
/// worst case for the batched kernels' hit fast paths, where every
/// lane of a compare group carries the same index bits.
fn birthday_stream(k: u64, seed: u64) -> Vec<(Addr, AccessKind)> {
    let base = 0x1000_0000u64;
    let spacing = 1u64 << 19;
    let mut x = seed ^ 0xD1B5_4A32_D192_ED03;
    (0..20_000)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let kind = if (x >> 8).is_multiple_of(4) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            (Addr::new(base + ((x >> 16) % k) * spacing), kind)
        })
        .collect()
}

/// The 1 kB MF8/BAS8 B-Cache on 16-bit addresses, where the PI fields
/// span the whole tag.
const BCACHE_16BIT: ModelSpec = ModelSpec::BCache {
    size: 1024,
    line: 32,
    mf: 8,
    bas: 8,
    policy: PolicyKind::Lru,
    seed: 0,
    pi_tag_bits: PiTagBits::Low,
    addr_bits: 16,
};

/// The benchmarked fleet at the paper's 16 kB working geometry, a
/// random-policy set-assoc cache and a second AGAC width, then
/// every const-dispatched CAM width: victim buffers at each
/// monomorphized power-of-two width (its geometry rejects other
/// counts), AGAC directories from 1 to 32 including non-powers of two
/// (the `cam` runtime fallback), and set-assoc LRU at every width its
/// scans monomorphize, both at eight sets and at a fixed 2 kB. The raw
/// cam-vs-const pinning at widths 1..=33 lives in `cache_sim::cam`'s
/// unit tests; these rows drive the same widths through whole models.
fn model_specs() -> Vec<ModelSpec> {
    let (size, line) = (16 * 1024, 32);
    let mut specs: Vec<ModelSpec> = harness::bench::model_set()
        .into_iter()
        .map(|(_, config)| config.spec(size, 0))
        .collect();
    specs.extend([
        ModelSpec::SetAssoc {
            size,
            line,
            ways: 4,
            policy: PolicyKind::Random,
            seed: 0xBEEF,
        },
        ModelSpec::Agac {
            size,
            line,
            entries: 8,
        },
    ]);
    let size = 1024;
    specs.extend([1, 2, 4, 8, 16, 32].map(|entries| ModelSpec::Victim {
        size,
        line,
        entries,
    }));
    specs.extend(
        [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 25, 31, 32].map(|entries| ModelSpec::Agac {
            size,
            line,
            entries,
        }),
    );
    specs.extend([1, 2, 4, 8, 16, 32].map(|ways| ModelSpec::lru(ways * 256, ways)));
    specs.extend([1, 2, 4, 8, 16, 32].map(|ways| ModelSpec::lru(2048, ways)));
    specs
}

/// Every model at its most degenerate legal geometries: one set, one
/// way, and cache-size == line-size. These shapes put every
/// "first/last element" branch of the batched kernels on the hot path —
/// a single frame, a single index bit, BAS equal to the whole set count
/// — where an off-by-one hides from the 16 kB rows above.
fn degenerate_specs() -> Vec<ModelSpec> {
    let line = 32;
    vec![
        ModelSpec::DirectMapped { size: 32, line },
        ModelSpec::lru(32, 1),
        // One set, fully associative.
        ModelSpec::lru(256, 8),
        ModelSpec::SetAssoc {
            size: 1024,
            line,
            ways: 1,
            policy: PolicyKind::Random,
            seed: 0xBEEF,
        },
        // One frame.
        ModelSpec::bcache(32, 8, 1, PolicyKind::Lru, 0),
        // BAS == sets: one pseudo-set.
        ModelSpec::bcache(1024, 2, 32, PolicyKind::Lru, 0),
        ModelSpec::Victim {
            size: 32,
            line,
            entries: 1,
        },
        ModelSpec::Column { size: 64, line },
        // One index bit per way.
        ModelSpec::Skewed { size: 128, line },
        ModelSpec::Agac {
            size: 32,
            line,
            entries: 1,
        },
        // One set of 2 and of 4 ways.
        ModelSpec::lru(64, 2),
        ModelSpec::lru(128, 4),
    ]
}

/// Small geometries where random 300-access traces conflict often:
/// the benchmarked fleet at 1 kB, set-assoc LRU at every
/// const-dispatched width (8 sets), 4-way random replacement (the
/// dynamic-dispatch branch) and the 16-bit B-Cache.
fn small_specs(seed: u64) -> Vec<ModelSpec> {
    let mut specs: Vec<ModelSpec> = harness::bench::model_set()
        .into_iter()
        .map(|(_, config)| config.spec(1024, seed))
        .collect();
    specs.extend([1, 2, 4, 8, 16, 32].map(|ways| ModelSpec::lru(ways * 256, ways)));
    specs.push(ModelSpec::SetAssoc {
        size: 1024,
        line: 32,
        ways: 4,
        policy: PolicyKind::Random,
        seed,
    });
    specs.push(BCACHE_16BIT);
    specs
}

/// Checks every spec at every chunk size (`usize::MAX`: one batch).
fn assert_batched_matches(specs: &[ModelSpec], accesses: &[(Addr, AccessKind)], chunks: &[usize]) {
    for spec in specs {
        for &chunk in chunks {
            assert_eq!(spec.differential(Drive::Batched(chunk), accesses), None);
        }
    }
}

#[test]
fn access_batch_matches_the_per_access_loop_on_every_model() {
    assert_batched_matches(&model_specs(), &stream(42), &[usize::MAX]);
}

#[test]
fn chunked_batches_match_the_per_access_loop() {
    // Tally flushing must compose across access_batch calls.
    assert_batched_matches(&model_specs(), &stream(7), &[4097]);
}

#[test]
fn access_batch_matches_the_per_access_loop_on_birthday_adversaries() {
    // birthday8..birthday64: the entire stream lands in one set (and,
    // for the B-Cache, one NPI group), so the batched kernels spend the
    // whole run in their conflict/eviction paths rather than the
    // spread-out traffic of `stream`.
    for k in [8u64, 16, 32, 64] {
        assert_batched_matches(
            &model_specs(),
            &birthday_stream(k, 0xB1DA + k),
            &[usize::MAX],
        );
    }
}

#[test]
fn access_batch_matches_the_per_access_loop_on_degenerate_geometries() {
    assert_batched_matches(&degenerate_specs(), &stream(1234), &[usize::MAX]);
    // Chunk at 1 so every batch boundary coincides with an access — the
    // degenerate shapes' tally-flush paths get no amortization to hide
    // behind.
    assert_batched_matches(&degenerate_specs(), &stream(55)[..5_000], &[1]);
}

#[test]
fn batched_bcache_on_16_bit_addresses_matches_the_oracle() {
    // The 16-bit geometry decodes only addresses below 2^16.
    let accesses: Vec<(Addr, AccessKind)> = stream(99)
        .into_iter()
        .map(|(a, k)| (Addr::new(a.raw() % (1 << 16)), k))
        .collect();
    assert_batched_matches(&[BCACHE_16BIT], &accesses, &[1024]);
}

/// Block numbers in a bounded region plus a write flag: conflicts are
/// frequent at the small geometries above, and 2048 32-byte blocks stay
/// inside the 16-bit B-Cache's address space.
fn trace_strategy(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(u64, bool)>> {
    prop::collection::vec((0u64..2048, any::<bool>()), len)
}

fn accesses(trace: &[(u64, bool)]) -> Vec<(Addr, AccessKind)> {
    let kind = |w| {
        if w {
            AccessKind::Write
        } else {
            AccessKind::Read
        }
    };
    trace
        .iter()
        .map(|&(block, w)| (Addr::new(block * 32), kind(w)))
        .collect()
}

proptest! {
    /// Every small spec, driven through `access_batch` at an arbitrary
    /// chunk size, matches its per-access loop and its oracle.
    #[test]
    fn batched_small_specs_match_their_reference(
        trace in trace_strategy(1..300),
        chunk in 1usize..64,
        seed in any::<u64>(),
    ) {
        let accesses = accesses(&trace);
        for spec in small_specs(seed) {
            prop_assert_eq!(spec.differential(Drive::Batched(chunk), &accesses), None);
        }
    }

    /// A drawn small or degenerate spec of any family matches its
    /// reference batched and, if it has an oracle, access by access.
    #[test]
    fn drawn_specs_match_their_reference(
        trace in trace_strategy(1..300),
        chunk in 1usize..64,
        seed in any::<u64>(),
    ) {
        let accesses = accesses(&trace);
        let spec = ModelSpec::draw(&mut CaseRng::new(seed, 0), Family::ALL);
        prop_assert_eq!(spec.differential(Drive::Batched(chunk), &accesses), None);
        if spec.has_oracle() {
            prop_assert_eq!(spec.differential(Drive::PerAccess, &accesses), None);
        }
    }

    /// Every small spec handles every lane-boundary batch length: one
    /// access, one short of a lane group, exactly one group, one past
    /// it, and a multi-group run with a ragged tail (1, L−1, L, L+1,
    /// 3·L+2 for L = [`cache_sim::simd::LANES`]), plus the empty batch.
    /// These are precisely where the lane-group kernels switch between
    /// full-group and tail handling.
    #[test]
    fn access_batch_matches_at_lane_boundary_lengths(
        trace in trace_strategy((3 * cache_sim::simd::LANES + 2)..(3 * cache_sim::simd::LANES + 3)),
    ) {
        let accesses = accesses(&trace);
        let lane = cache_sim::simd::LANES;
        for spec in small_specs(0) {
            let mut empty = spec.build().unwrap();
            empty.access_batch(&[]);
            prop_assert_eq!(empty.stats(), spec.build().unwrap().stats());
            for chunk in [1, lane - 1, lane, lane + 1, 3 * lane + 2] {
                prop_assert_eq!(spec.differential(Drive::Batched(chunk), &accesses), None);
            }
        }
    }
}

/// A B-Cache of `size` bytes and 32-byte lines at MF8 with `bas` ways
/// of BAS.
fn bcache_params(size: usize, bas: usize) -> BCacheParams {
    let geom = CacheGeometry::new(size, 32, 1).unwrap();
    BCacheParams::new(geom, 8, bas, PolicyKind::Lru).unwrap()
}

/// Runs one B-Cache built from `params` through the per-access loop and
/// another through one `access_batch` call, then asserts their rings
/// recorded the same event sequence (and that the stream produced
/// events at all, all of them retained by the ring).
fn assert_event_streams_match(name: &str, accesses: &[(Addr, AccessKind)], params: BCacheParams) {
    use telemetry::EventRing;
    let ring = || EventRing::new(1 << 17);
    let mut scalar = BalancedCache::with_observer(params, ring());
    let mut batched = BalancedCache::with_observer(params, ring());
    for &(addr, kind) in accesses {
        scalar.access(addr, kind);
    }
    batched.access_batch(accesses);
    let a: Vec<_> = scalar.observer().iter().map(|(_, e)| *e).collect();
    let b: Vec<_> = batched.observer().iter().map(|(_, e)| *e).collect();
    assert!(!a.is_empty(), "{name}: the stream must generate events");
    assert_eq!(
        scalar.observer().dropped(),
        0,
        "{name}: the ring must hold the whole stream"
    );
    assert_eq!(
        a, b,
        "{name}: batched event order diverges from the per-access loop"
    );
}

#[test]
fn batched_bcache_event_order_matches_per_access() {
    // 20k accesses keep every stream inside the ring so the comparison
    // covers the whole run, not just the tail.
    let take = |seed| -> Vec<_> { stream(seed).into_iter().take(20_000).collect() };
    assert_event_streams_match("B-Cache MF8/BAS8", &take(2024), bcache_params(16 * 1024, 8));
    assert_event_streams_match("B-Cache, one frame", &take(31337), bcache_params(32, 1));
}

/// Under each PD-hit policy, drives one MF8/BAS8 B-Cache access by
/// access and another through one `access_batch` call, and asserts that
/// each copy's
/// [`telemetry::EventCounts`] agree with its own counters: one
/// `Writeback` per counted writeback, one `Miss` per miss and one
/// `SetTouch` per access.
#[test]
fn bcache_event_counts_match_stats_under_both_pd_hit_policies() {
    use telemetry::EventCounts;
    let accesses = stream(4242);
    for (name, policy) in [
        ("forced victim", PdHitPolicy::ForcedVictim),
        ("evict both", PdHitPolicy::EvictBoth),
    ] {
        let params = bcache_params(16 * 1024, 8).with_pd_hit_policy(policy);
        let mut scalar = BalancedCache::with_observer(params, EventCounts::new());
        for &(addr, kind) in &accesses {
            scalar.access(addr, kind);
        }
        let mut batched = BalancedCache::with_observer(params, EventCounts::new());
        batched.access_batch(&accesses);
        for (drive, counts, stats) in [
            ("per-access", *scalar.observer(), scalar.stats()),
            ("batched", *batched.observer(), batched.stats()),
        ] {
            let total = stats.total();
            assert!(stats.writebacks() > 0, "{name} {drive}: no writebacks");
            assert_eq!(
                counts.writebacks,
                stats.writebacks(),
                "{name} {drive}: Writeback events vs counted writebacks"
            );
            assert_eq!(
                counts.total_misses(),
                total.misses(),
                "{name} {drive}: Miss events vs misses"
            );
            assert_eq!(
                counts.set_hits + counts.set_misses,
                total.accesses(),
                "{name} {drive}: SetTouch events vs accesses"
            );
        }
    }
}

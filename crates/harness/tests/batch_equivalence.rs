//! Throughput-neutrality suite: the batched access kernels must be
//! observably free — [`CacheModel::access_batch`] over a long fuzz
//! stream produces byte-identical statistics to the per-access loop on
//! every model, and the monomorphized B-Cache fast path still matches
//! [`BCacheOracle`] exactly. A divergence here means an optimization
//! changed simulation semantics, which no speedup justifies.

use bcache_core::{BCacheParams, BalancedCache};
use cache_sim::oracle::BCacheOracle;
use cache_sim::{
    AccessKind, Addr, AgacCache, CacheGeometry, CacheModel, ColumnAssociativeCache,
    DifferenceBitCache, DirectMappedCache, HighlyAssociativeCache, PartialMatchCache, PolicyKind,
    SetAssociativeCache, SkewedAssociativeCache, VictimCache, WayHaltingCache,
};

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

type Builder = Box<dyn Fn() -> Box<dyn CacheModel>>;

/// Two identical instances of one model, under a label.
type Pair<L> = (L, Box<dyn CacheModel>, Box<dyn CacheModel>);

/// Two identical instances of every model in the repo at the paper's
/// 16 kB working geometry, then of every const-dispatched CAM width:
/// victim buffers at each monomorphized power-of-two width (its
/// geometry rejects other counts), AGAC directories from 1 to 32
/// including non-powers of two (the `cam` runtime fallback), and
/// set-assoc LRU / HAC subarrays at every width their scans
/// monomorphize. The raw cam-vs-const pinning at widths 1..=33 lives in
/// `cache_sim::cam`'s unit tests; these rows drive the same widths
/// through whole models.
fn model_pairs() -> Vec<Pair<String>> {
    let mut build: Vec<(String, Builder)> = vec![
        (
            "direct-mapped".into(),
            Box::new(|| Box::new(DirectMappedCache::new(16 * 1024, 32).unwrap())),
        ),
        (
            "8-way-lru".into(),
            Box::new(|| {
                Box::new(SetAssociativeCache::new(16 * 1024, 32, 8, PolicyKind::Lru, 0).unwrap())
            }),
        ),
        (
            "4-way-random".into(),
            Box::new(|| {
                Box::new(
                    SetAssociativeCache::new(16 * 1024, 32, 4, PolicyKind::Random, 0xBEEF).unwrap(),
                )
            }),
        ),
        (
            "bcache-mf8-bas8".into(),
            Box::new(|| {
                let geom = CacheGeometry::new(16 * 1024, 32, 1).unwrap();
                let params = BCacheParams::new(geom, 8, 8, PolicyKind::Lru).unwrap();
                Box::new(BalancedCache::new(params))
            }),
        ),
        (
            "victim16".into(),
            Box::new(|| Box::new(VictimCache::new(16 * 1024, 32, 16).unwrap())),
        ),
        (
            "column-assoc".into(),
            Box::new(|| Box::new(ColumnAssociativeCache::new(16 * 1024, 32).unwrap())),
        ),
        (
            "skewed-2way".into(),
            Box::new(|| Box::new(SkewedAssociativeCache::new(16 * 1024, 32).unwrap())),
        ),
        (
            "agac8".into(),
            Box::new(|| Box::new(AgacCache::new(16 * 1024, 32, 8).unwrap())),
        ),
        (
            "hac32".into(),
            Box::new(|| Box::new(HighlyAssociativeCache::new(16 * 1024, 32, 1024).unwrap())),
        ),
        (
            "pam4".into(),
            Box::new(|| Box::new(PartialMatchCache::new(16 * 1024, 32, 4).unwrap())),
        ),
        (
            "diff-bit".into(),
            Box::new(|| Box::new(DifferenceBitCache::new(16 * 1024, 32).unwrap())),
        ),
        (
            "way-halting4".into(),
            Box::new(|| Box::new(WayHaltingCache::new(16 * 1024, 32, 4, 4).unwrap())),
        ),
    ];
    for entries in [1usize, 2, 4, 8, 16, 32] {
        build.push((
            format!("1k victim{entries}"),
            Box::new(move || Box::new(VictimCache::new(1024, 32, entries).unwrap())),
        ));
    }
    for entries in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 25, 31, 32] {
        build.push((
            format!("1k agac{entries}"),
            Box::new(move || Box::new(AgacCache::new(1024, 32, entries).unwrap())),
        ));
    }
    for assoc in [1usize, 2, 4, 8, 16, 32] {
        build.push((
            format!("8-set lru{assoc}way"),
            Box::new(move || {
                Box::new(
                    SetAssociativeCache::new(assoc * 256, 32, assoc, PolicyKind::Lru, 0).unwrap(),
                )
            }),
        ));
    }
    for lines_per_sub in [1usize, 2, 4, 8, 16, 32] {
        build.push((
            format!("2k hac-sub{lines_per_sub}"),
            Box::new(move || {
                Box::new(HighlyAssociativeCache::new(2048, 32, lines_per_sub * 32).unwrap())
            }),
        ));
    }
    build
        .into_iter()
        .map(|(name, b)| (name, b(), b()))
        .collect()
}

/// Two identical instances of every model at its most degenerate legal
/// geometries: one set, one way, and cache-size == line-size. These
/// shapes put every "first/last element" branch of the batched kernels
/// on the hot path — a single frame, a single index bit, BAS equal to
/// the whole set count — where an off-by-one hides from the 16 kB
/// suite above.
fn degenerate_pairs() -> Vec<Pair<&'static str>> {
    let build: Vec<(&'static str, Builder)> = vec![
        (
            "DM, cache == line",
            Box::new(|| Box::new(DirectMappedCache::new(32, 32).unwrap())),
        ),
        (
            "1-way set-assoc, cache == line",
            Box::new(|| Box::new(SetAssociativeCache::new(32, 32, 1, PolicyKind::Lru, 0).unwrap())),
        ),
        (
            "1-set fully-associative",
            Box::new(|| {
                Box::new(SetAssociativeCache::new(256, 32, 8, PolicyKind::Lru, 0).unwrap())
            }),
        ),
        (
            "1-way set-assoc, random policy",
            Box::new(|| {
                Box::new(SetAssociativeCache::new(1024, 32, 1, PolicyKind::Random, 0xBEEF).unwrap())
            }),
        ),
        (
            "B-Cache, cache == line (one frame)",
            Box::new(|| {
                let geom = CacheGeometry::new(32, 32, 1).unwrap();
                let params = BCacheParams::new(geom, 8, 1, PolicyKind::Lru).unwrap();
                Box::new(BalancedCache::new(params))
            }),
        ),
        (
            "B-Cache, BAS == sets (one pseudo-set)",
            Box::new(|| {
                let geom = CacheGeometry::new(1024, 32, 1).unwrap();
                let params = BCacheParams::new(geom, 2, 32, PolicyKind::Lru).unwrap();
                Box::new(BalancedCache::new(params))
            }),
        ),
        (
            "victim, cache == line, 1-entry buffer",
            Box::new(|| Box::new(VictimCache::new(32, 32, 1).unwrap())),
        ),
        (
            "column-associative, two lines",
            Box::new(|| Box::new(ColumnAssociativeCache::new(64, 32).unwrap())),
        ),
        (
            "skewed, one index bit per way",
            Box::new(|| Box::new(SkewedAssociativeCache::new(128, 32).unwrap())),
        ),
        (
            "AGAC, cache == line, 1-entry directory",
            Box::new(|| Box::new(AgacCache::new(32, 32, 1).unwrap())),
        ),
        (
            "HAC, one single-line subarray",
            Box::new(|| Box::new(HighlyAssociativeCache::new(32, 32, 32).unwrap())),
        ),
        (
            "HAC, 1-set (subarray == cache)",
            Box::new(|| Box::new(HighlyAssociativeCache::new(256, 32, 256).unwrap())),
        ),
        (
            "PAM, 1-set 2-way",
            Box::new(|| Box::new(PartialMatchCache::new(64, 32, 5).unwrap())),
        ),
        (
            "difference-bit, 1-set 2-way",
            Box::new(|| Box::new(DifferenceBitCache::new(64, 32).unwrap())),
        ),
        (
            "way-halting, 1-way cache == line",
            Box::new(|| Box::new(WayHaltingCache::new(32, 32, 1, 4).unwrap())),
        ),
        (
            "way-halting, 1-set",
            Box::new(|| Box::new(WayHaltingCache::new(128, 32, 4, 4).unwrap())),
        ),
    ];
    build.iter().map(|(name, b)| (*name, b(), b())).collect()
}

#[test]
fn access_batch_matches_the_per_access_loop_on_every_model() {
    let accesses = stream(42);
    for (name, mut scalar, mut batched) in model_pairs() {
        for &(addr, kind) in &accesses {
            scalar.access(addr, kind);
        }
        batched.access_batch(&accesses);
        assert_eq!(
            scalar.stats(),
            batched.stats(),
            "{name}: batched stats diverge from the per-access loop"
        );
        assert_eq!(
            scalar.set_usage(),
            batched.set_usage(),
            "{name}: batched set-usage counters diverge"
        );
    }
}

#[test]
fn access_batch_matches_the_per_access_loop_on_birthday_adversaries() {
    // birthday8..birthday64: the entire stream lands in one set (and,
    // for the B-Cache, one NPI group), so the batched kernels spend the
    // whole run in their conflict/eviction paths rather than the
    // spread-out traffic of `stream`.
    for k in [8u64, 16, 32, 64] {
        let accesses = birthday_stream(k, 0xB1DA + k);
        for (name, mut scalar, mut batched) in model_pairs() {
            for &(addr, kind) in &accesses {
                scalar.access(addr, kind);
            }
            batched.access_batch(&accesses);
            assert_eq!(
                scalar.stats(),
                batched.stats(),
                "{name} on birthday{k}: batched stats diverge from the per-access loop"
            );
            assert_eq!(
                scalar.set_usage(),
                batched.set_usage(),
                "{name} on birthday{k}: batched set-usage counters diverge"
            );
        }
    }
}

#[test]
fn chunked_batches_match_one_big_batch() {
    // Tally flushing must compose across access_batch calls: many small
    // batches and one big batch are the same sequence of accesses.
    let accesses = stream(7);
    for (name, mut whole, mut chunked) in model_pairs() {
        whole.access_batch(&accesses);
        for chunk in accesses.chunks(4097) {
            chunked.access_batch(chunk);
        }
        assert_eq!(
            whole.stats(),
            chunked.stats(),
            "{name}: chunked batches diverge from a single batch"
        );
    }
}

#[test]
fn access_batch_matches_the_per_access_loop_on_degenerate_geometries() {
    let accesses = stream(1234);
    for (name, mut scalar, mut batched) in degenerate_pairs() {
        for &(addr, kind) in &accesses {
            scalar.access(addr, kind);
        }
        batched.access_batch(&accesses);
        assert_eq!(
            scalar.stats(),
            batched.stats(),
            "{name} ({}): batched stats diverge from the per-access loop",
            scalar.label()
        );
        assert_eq!(
            scalar.set_usage(),
            batched.set_usage(),
            "{name} ({}): batched set-usage counters diverge",
            scalar.label()
        );
    }
}

#[test]
fn chunked_batches_match_one_big_batch_on_degenerate_geometries() {
    // Chunk at 1 so every batch boundary coincides with an access —
    // the degenerate shapes' tally-flush paths get no amortization to
    // hide behind.
    let accesses: Vec<(Addr, AccessKind)> = stream(55).into_iter().take(5_000).collect();
    for (name, mut whole, mut chunked) in degenerate_pairs() {
        whole.access_batch(&accesses);
        for chunk in accesses.chunks(1) {
            chunked.access_batch(chunk);
        }
        assert_eq!(
            whole.stats(),
            chunked.stats(),
            "{name} ({}): single-access batches diverge from one big batch",
            whole.label()
        );
    }
}

/// Runs `scalar` through the per-access loop and `batched` through one
/// `access_batch` call, then asserts their observers recorded the same
/// event sequence (and that the stream produced events at all).
macro_rules! assert_event_streams_match {
    ($name:expr, $accesses:expr, $scalar:expr, $batched:expr) => {{
        let mut scalar = $scalar;
        let mut batched = $batched;
        for &(addr, kind) in $accesses.iter() {
            scalar.access(addr, kind);
        }
        batched.access_batch(&$accesses);
        let a: Vec<_> = scalar.observer().iter().map(|(_, e)| e.clone()).collect();
        let b: Vec<_> = batched.observer().iter().map(|(_, e)| e.clone()).collect();
        assert!(!a.is_empty(), "{}: the stream must generate events", $name);
        assert_eq!(
            a, b,
            "{}: batched event order diverges from the per-access loop",
            $name
        );
    }};
}

#[test]
fn batched_event_order_matches_per_access_on_every_model() {
    use telemetry::EventRing;
    // 20k accesses keep every stream inside the ring so the comparison
    // covers the whole run, not just the tail.
    let accesses: Vec<(Addr, AccessKind)> = stream(2024).into_iter().take(20_000).collect();
    let ring = || EventRing::new(1 << 17);
    assert_event_streams_match!(
        "direct-mapped",
        accesses,
        DirectMappedCache::with_observer(16 * 1024, 32, ring()).unwrap(),
        DirectMappedCache::with_observer(16 * 1024, 32, ring()).unwrap()
    );
    let sa = || {
        SetAssociativeCache::with_observer(16 * 1024, 32, 8, PolicyKind::Lru, 0, ring()).unwrap()
    };
    assert_event_streams_match!("8-way LRU", accesses, sa(), sa());
    let sr = || {
        SetAssociativeCache::with_observer(16 * 1024, 32, 4, PolicyKind::Random, 0xBEEF, ring())
            .unwrap()
    };
    assert_event_streams_match!("4-way random", accesses, sr(), sr());
    let bc = || {
        let geom = CacheGeometry::new(16 * 1024, 32, 1).unwrap();
        let params = BCacheParams::new(geom, 8, 8, PolicyKind::Lru).unwrap();
        BalancedCache::with_observer(params, ring())
    };
    assert_event_streams_match!("B-Cache MF8/BAS8", accesses, bc(), bc());
    assert_event_streams_match!(
        "victim16",
        accesses,
        VictimCache::with_observer(16 * 1024, 32, 16, ring()).unwrap(),
        VictimCache::with_observer(16 * 1024, 32, 16, ring()).unwrap()
    );
    assert_event_streams_match!(
        "column-associative",
        accesses,
        ColumnAssociativeCache::with_observer(16 * 1024, 32, ring()).unwrap(),
        ColumnAssociativeCache::with_observer(16 * 1024, 32, ring()).unwrap()
    );
    assert_event_streams_match!(
        "skewed",
        accesses,
        SkewedAssociativeCache::with_observer(16 * 1024, 32, ring()).unwrap(),
        SkewedAssociativeCache::with_observer(16 * 1024, 32, ring()).unwrap()
    );
    assert_event_streams_match!(
        "AGAC",
        accesses,
        AgacCache::with_observer(16 * 1024, 32, 8, ring()).unwrap(),
        AgacCache::with_observer(16 * 1024, 32, 8, ring()).unwrap()
    );
    assert_event_streams_match!(
        "HAC",
        accesses,
        HighlyAssociativeCache::with_observer(16 * 1024, 32, 1024, ring()).unwrap(),
        HighlyAssociativeCache::with_observer(16 * 1024, 32, 1024, ring()).unwrap()
    );
    assert_event_streams_match!(
        "PAM",
        accesses,
        PartialMatchCache::with_observer(16 * 1024, 32, 4, ring()).unwrap(),
        PartialMatchCache::with_observer(16 * 1024, 32, 4, ring()).unwrap()
    );
    assert_event_streams_match!(
        "difference-bit",
        accesses,
        DifferenceBitCache::with_observer(16 * 1024, 32, ring()).unwrap(),
        DifferenceBitCache::with_observer(16 * 1024, 32, ring()).unwrap()
    );
    assert_event_streams_match!(
        "way-halting",
        accesses,
        WayHaltingCache::with_observer(16 * 1024, 32, 4, 4, ring()).unwrap(),
        WayHaltingCache::with_observer(16 * 1024, 32, 4, 4, ring()).unwrap()
    );
}

#[test]
fn batched_event_order_matches_per_access_on_degenerate_geometries() {
    use telemetry::EventRing;
    let accesses: Vec<(Addr, AccessKind)> = stream(31337).into_iter().take(20_000).collect();
    let ring = || EventRing::new(1 << 17);
    assert_event_streams_match!(
        "DM, cache == line",
        accesses,
        DirectMappedCache::with_observer(32, 32, ring()).unwrap(),
        DirectMappedCache::with_observer(32, 32, ring()).unwrap()
    );
    let fa = || SetAssociativeCache::with_observer(256, 32, 8, PolicyKind::Lru, 0, ring()).unwrap();
    assert_event_streams_match!("1-set fully-associative", accesses, fa(), fa());
    let bc1 = || {
        let geom = CacheGeometry::new(32, 32, 1).unwrap();
        let params = BCacheParams::new(geom, 8, 1, PolicyKind::Lru).unwrap();
        BalancedCache::with_observer(params, ring())
    };
    assert_event_streams_match!("B-Cache, one frame", accesses, bc1(), bc1());
    assert_event_streams_match!(
        "victim, 1-entry buffer",
        accesses,
        VictimCache::with_observer(32, 32, 1, ring()).unwrap(),
        VictimCache::with_observer(32, 32, 1, ring()).unwrap()
    );
    assert_event_streams_match!(
        "column, two lines",
        accesses,
        ColumnAssociativeCache::with_observer(64, 32, ring()).unwrap(),
        ColumnAssociativeCache::with_observer(64, 32, ring()).unwrap()
    );
    assert_event_streams_match!(
        "skewed, one index bit",
        accesses,
        SkewedAssociativeCache::with_observer(128, 32, ring()).unwrap(),
        SkewedAssociativeCache::with_observer(128, 32, ring()).unwrap()
    );
    assert_event_streams_match!(
        "AGAC, 1-entry directory",
        accesses,
        AgacCache::with_observer(32, 32, 1, ring()).unwrap(),
        AgacCache::with_observer(32, 32, 1, ring()).unwrap()
    );
    assert_event_streams_match!(
        "HAC, 1-set",
        accesses,
        HighlyAssociativeCache::with_observer(256, 32, 256, ring()).unwrap(),
        HighlyAssociativeCache::with_observer(256, 32, 256, ring()).unwrap()
    );
    assert_event_streams_match!(
        "PAM, 1-set 2-way",
        accesses,
        PartialMatchCache::with_observer(64, 32, 5, ring()).unwrap(),
        PartialMatchCache::with_observer(64, 32, 5, ring()).unwrap()
    );
    assert_event_streams_match!(
        "difference-bit, 1-set 2-way",
        accesses,
        DifferenceBitCache::with_observer(64, 32, ring()).unwrap(),
        DifferenceBitCache::with_observer(64, 32, ring()).unwrap()
    );
    assert_event_streams_match!(
        "way-halting, 1-set",
        accesses,
        WayHaltingCache::with_observer(128, 32, 4, 4, ring()).unwrap(),
        WayHaltingCache::with_observer(128, 32, 4, 4, ring()).unwrap()
    );
}

#[test]
fn batched_bcache_still_matches_the_oracle() {
    // The monomorphized B-Cache kernel against the independent oracle:
    // same geometry as the fuzz scenarios (1 kB, 16-bit addresses,
    // MF=8, BAS=8), but driven through access_batch.
    let line = 32usize;
    let size = 1024usize;
    let addr_bits = 16u32;
    let geom = CacheGeometry::with_addr_bits(size, line, 1, addr_bits).unwrap();
    let params = BCacheParams::new(geom, 8, 8, PolicyKind::Lru).unwrap();
    let layout = params.layout();
    let mut model = BalancedCache::new(params);
    let mut oracle = BCacheOracle::new(
        line as u64,
        addr_bits,
        layout.npi_bits(),
        layout.pi_bits(),
        3, // MF = 8 = 2^3
        false,
        (PolicyKind::Lru, 0),
    );
    let accesses: Vec<(Addr, AccessKind)> = stream(99)
        .into_iter()
        .map(|(a, k)| (Addr::new(a.raw() % (1 << addr_bits)), k))
        .collect();
    for chunk in accesses.chunks(1024) {
        model.access_batch(chunk);
    }
    for &(addr, kind) in &accesses {
        oracle.access(addr, kind);
    }
    let total = model.stats().total();
    assert_eq!(total.hits(), oracle.hits(), "hits drifted from the oracle");
    assert_eq!(
        total.misses(),
        oracle.misses(),
        "misses drifted from the oracle"
    );
    assert_eq!(
        model.stats().writebacks(),
        oracle.writebacks(),
        "writebacks drifted from the oracle"
    );
    let pd = model.pd_stats();
    assert_eq!(
        (pd.misses_with_pd_hit, pd.misses_with_pd_miss),
        (oracle.pd_hit_misses(), oracle.pd_miss_misses()),
        "PD counters drifted from the oracle"
    );
    assert!(model.invariants_hold(), "B-Cache invariants violated");
}

//! Property-based differential tests for the batched kernels: every
//! monomorphized `access_batch` path is driven on random traces, chopped
//! at random chunk boundaries, against an independent reference — the
//! [`OracleCache`] for the models that are contractually n-way LRU
//! arrays, the per-access loop for the bespoke models. Failures shrink
//! to minimal traces; confirmed survivors graduate into
//! `bcache-repro fuzz` scenarios (see `harness::fuzz::SCENARIOS`).

use bcache_core::{BCacheParams, BalancedCache};
use cache_sim::oracle::{BCacheOracle, OracleCache};
use cache_sim::simd;
use cache_sim::{
    AccessKind, Addr, AgacCache, CacheGeometry, CacheModel, ColumnAssociativeCache,
    DifferenceBitCache, DirectMappedCache, HighlyAssociativeCache, PartialMatchCache, PolicyKind,
    SetAssociativeCache, SkewedAssociativeCache, VictimCache, WayHaltingCache,
};
use proptest::prelude::*;

/// Block numbers in a bounded region plus a write flag: conflicts are
/// frequent at the small test geometries below.
fn trace_strategy(max_len: usize) -> impl Strategy<Value = Vec<(u64, bool)>> {
    prop::collection::vec((0u64..4096, any::<bool>()), 1..max_len)
}

fn accesses(trace: &[(u64, bool)]) -> Vec<(Addr, AccessKind)> {
    trace
        .iter()
        .map(|&(block, w)| {
            let kind = if w {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            (Addr::new(block * 32), kind)
        })
        .collect()
}

/// Replays `accesses` through the oracle and returns its final counters.
fn oracle_counters(oracle: &mut OracleCache, accesses: &[(Addr, AccessKind)]) -> (u64, u64, u64) {
    for &(addr, kind) in accesses {
        oracle.access(addr, kind);
    }
    (oracle.hits(), oracle.misses(), oracle.writebacks())
}

/// Drives `model` through `access_batch` in `chunk`-sized slices and
/// compares its final counters to the oracle's.
fn assert_batched_matches_oracle(
    name: &str,
    model: &mut dyn CacheModel,
    oracle: &mut OracleCache,
    accesses: &[(Addr, AccessKind)],
    chunk: usize,
) {
    for slice in accesses.chunks(chunk.max(1)) {
        model.access_batch(slice);
    }
    let want = oracle_counters(oracle, accesses);
    let total = model.stats().total();
    let got = (total.hits(), total.misses(), model.stats().writebacks());
    prop_assert_eq!(
        got,
        want,
        "{} (chunk {}): batched (hits, misses, writebacks) diverge from the oracle",
        name,
        chunk
    );
}

proptest! {
    /// The const-width set-associative kernels (every dispatched
    /// associativity, including the runtime fallback) match the oracle
    /// when driven through `access_batch` at arbitrary chunk sizes.
    #[test]
    fn batched_set_assoc_matches_oracle_at_every_const_width(
        trace in trace_strategy(300),
        chunk in 1usize..64,
    ) {
        let accesses = accesses(&trace);
        for assoc in [1usize, 2, 4, 8, 16, 32] {
            let size = 8 * assoc * 32; // 8 sets throughout
            let mut model =
                SetAssociativeCache::new(size, 32, assoc, PolicyKind::Lru, 0).unwrap();
            let mut oracle = OracleCache::new(size, 32, assoc, PolicyKind::Lru, 0, 32);
            assert_batched_matches_oracle(
                &format!("{assoc}-way LRU"),
                &mut model,
                &mut oracle,
                &accesses,
                chunk,
            );
        }
    }

    /// The dynamic-dispatch (non-LRU) branch of the batched kernel
    /// matches the oracle for every replacement policy.
    #[test]
    fn batched_set_assoc_matches_oracle_for_every_policy(
        trace in trace_strategy(300),
        chunk in 1usize..64,
        policy_idx in 0usize..4,
        seed in any::<u64>(),
    ) {
        let policy = [
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Random,
            PolicyKind::TreePlru,
        ][policy_idx];
        let accesses = accesses(&trace);
        let mut model = SetAssociativeCache::new(1024, 32, 4, policy, seed).unwrap();
        let mut oracle = OracleCache::new(1024, 32, 4, policy, seed, 32);
        assert_batched_matches_oracle(
            &format!("4-way {policy:?}"),
            &mut model,
            &mut oracle,
            &accesses,
            chunk,
        );
    }

    /// The wrapper models' batched kernels (HAC, PAM, difference-bit,
    /// way-halting) are contractually n-way LRU caches: their fused
    /// fast paths must not change hit/miss/writeback behaviour.
    #[test]
    fn batched_wrappers_match_oracle(
        trace in trace_strategy(300),
        chunk in 1usize..64,
    ) {
        let accesses = accesses(&trace);

        let mut hac = HighlyAssociativeCache::new(4096, 32, 1024).unwrap();
        let mut oracle = OracleCache::new(4096, 32, 32, PolicyKind::Lru, 0, 32);
        assert_batched_matches_oracle("HAC/32-way", &mut hac, &mut oracle, &accesses, chunk);

        let mut halting = WayHaltingCache::new(1024, 32, 4, 4).unwrap();
        let mut oracle = OracleCache::new(1024, 32, 4, PolicyKind::Lru, 0, 32);
        assert_batched_matches_oracle(
            "way-halting/4-way",
            &mut halting,
            &mut oracle,
            &accesses,
            chunk,
        );

        let mut pam = PartialMatchCache::new(1024, 32, 5).unwrap();
        let mut oracle = OracleCache::new(1024, 32, 2, PolicyKind::Lru, 0, 32);
        assert_batched_matches_oracle("PAM/2-way", &mut pam, &mut oracle, &accesses, chunk);

        let mut diff = DifferenceBitCache::new(1024, 32).unwrap();
        let mut oracle = OracleCache::new(1024, 32, 2, PolicyKind::Lru, 0, 32);
        assert_batched_matches_oracle(
            "difference-bit/2-way",
            &mut diff,
            &mut oracle,
            &accesses,
            chunk,
        );
    }

    /// The direct-mapped batched kernel is the oracle's 1-way case.
    #[test]
    fn batched_direct_mapped_matches_oracle(
        trace in trace_strategy(300),
        chunk in 1usize..64,
    ) {
        let accesses = accesses(&trace);
        let mut model = DirectMappedCache::new(1024, 32).unwrap();
        let mut oracle = OracleCache::new(1024, 32, 1, PolicyKind::Lru, 0, 32);
        assert_batched_matches_oracle("direct-mapped", &mut model, &mut oracle, &accesses, chunk);
    }

    /// The bespoke models (victim, column-associative, skewed, AGAC)
    /// have no independent oracle; their batched kernels are checked
    /// against their own per-access loop, stats and set-usage byte for
    /// byte, under random chunking.
    #[test]
    fn batched_bespoke_models_match_their_per_access_loop(
        trace in trace_strategy(300),
        chunk in 1usize..64,
    ) {
        let accesses = accesses(&trace);
        let builders: Vec<Box<dyn Fn() -> Box<dyn CacheModel>>> = vec![
            Box::new(|| Box::new(VictimCache::new(512, 32, 4).unwrap())),
            Box::new(|| Box::new(ColumnAssociativeCache::new(512, 32).unwrap())),
            Box::new(|| Box::new(SkewedAssociativeCache::new(512, 32).unwrap())),
            Box::new(|| Box::new(AgacCache::new(512, 32, 4).unwrap())),
        ];
        for build in &builders {
            let mut scalar = build();
            let mut batched = build();
            for &(addr, kind) in &accesses {
                scalar.access(addr, kind);
            }
            for slice in accesses.chunks(chunk.max(1)) {
                batched.access_batch(slice);
            }
            prop_assert_eq!(
                scalar.stats(),
                batched.stats(),
                "{} (chunk {}): batched stats diverge from the per-access loop",
                scalar.label(),
                chunk
            );
            prop_assert_eq!(
                scalar.set_usage(),
                batched.set_usage(),
                "{} (chunk {}): batched set-usage diverges",
                scalar.label(),
                chunk
            );
        }
    }

    /// Every model handles every lane-boundary batch length: empty,
    /// one access, one short of a lane group, exactly one group, one
    /// past it, and a multi-group run with a ragged tail (0, 1, L−1, L,
    /// L+1, 3·L+2 for L = [`simd::LANES`]). These are precisely the
    /// prefixes where the lane-group kernels switch between full-group
    /// and tail handling.
    #[test]
    fn access_batch_matches_scalar_at_lane_boundary_lengths(
        trace in prop::collection::vec(
            (0u64..4096, any::<bool>()),
            (3 * simd::LANES + 2)..(3 * simd::LANES + 3),
        ),
    ) {
        let full = accesses(&trace);
        let lane = simd::LANES;
        let builders: Vec<Box<dyn Fn() -> Box<dyn CacheModel>>> = vec![
            Box::new(|| Box::new(DirectMappedCache::new(1024, 32).unwrap())),
            Box::new(|| {
                Box::new(SetAssociativeCache::new(1024, 32, 4, PolicyKind::Lru, 0).unwrap())
            }),
            Box::new(|| {
                let geom = CacheGeometry::with_addr_bits(1024, 32, 1, 16).unwrap();
                let params = BCacheParams::new(geom, 8, 8, PolicyKind::Lru).unwrap();
                Box::new(BalancedCache::new(params))
            }),
            Box::new(|| Box::new(VictimCache::new(512, 32, 4).unwrap())),
            Box::new(|| Box::new(ColumnAssociativeCache::new(512, 32).unwrap())),
            Box::new(|| Box::new(SkewedAssociativeCache::new(512, 32).unwrap())),
            Box::new(|| Box::new(AgacCache::new(512, 32, 4).unwrap())),
            Box::new(|| Box::new(HighlyAssociativeCache::new(1024, 32, 256).unwrap())),
            Box::new(|| Box::new(PartialMatchCache::new(1024, 32, 5).unwrap())),
            Box::new(|| Box::new(DifferenceBitCache::new(1024, 32).unwrap())),
            Box::new(|| Box::new(WayHaltingCache::new(1024, 32, 4, 4).unwrap())),
        ];
        for len in [0, 1, lane - 1, lane, lane + 1, 3 * lane + 2] {
            let prefix = &full[..len];
            for build in &builders {
                let mut scalar = build();
                let mut batched = build();
                for &(addr, kind) in prefix {
                    scalar.access(addr, kind);
                }
                batched.access_batch(prefix);
                prop_assert_eq!(
                    scalar.stats(),
                    batched.stats(),
                    "{} at batch length {}: batched stats diverge",
                    scalar.label(),
                    len
                );
            }
        }
    }

    /// The monomorphized B-Cache kernel matches its oracle — including
    /// the programmable-decoder counters — under random chunking.
    #[test]
    fn batched_bcache_matches_oracle(
        trace in trace_strategy(300),
        chunk in 1usize..64,
    ) {
        let line = 32usize;
        let addr_bits = 16u32;
        let geom = CacheGeometry::with_addr_bits(1024, line, 1, addr_bits).unwrap();
        let params = BCacheParams::new(geom, 8, 8, PolicyKind::Lru).unwrap();
        let layout = params.layout();
        let mut model = BalancedCache::new(params);
        let mut oracle = BCacheOracle::new(
            line as u64,
            addr_bits,
            layout.npi_bits(),
            layout.pi_bits(),
            3,
            false,
            (PolicyKind::Lru, 0),
        );
        let accesses: Vec<(Addr, AccessKind)> = accesses(&trace)
            .into_iter()
            .map(|(a, k)| (Addr::new(a.raw() % (1 << addr_bits)), k))
            .collect();
        for slice in accesses.chunks(chunk.max(1)) {
            model.access_batch(slice);
        }
        for &(addr, kind) in &accesses {
            oracle.access(addr, kind);
        }
        let total = model.stats().total();
        prop_assert_eq!(total.hits(), oracle.hits());
        prop_assert_eq!(total.misses(), oracle.misses());
        prop_assert_eq!(model.stats().writebacks(), oracle.writebacks());
        let pd = model.pd_stats();
        prop_assert_eq!(
            (pd.misses_with_pd_hit, pd.misses_with_pd_miss),
            (oracle.pd_hit_misses(), oracle.pd_miss_misses()),
            "PD counters drifted under batching"
        );
        prop_assert!(model.invariants_hold());
    }
}

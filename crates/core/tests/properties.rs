//! Property-based tests for the Balanced Cache.

use bcache_core::{BCacheParams, BalancedCache};
use cache_sim::{
    AccessKind, Addr, CacheGeometry, CacheModel, DirectMappedCache, PolicyKind, SetAssociativeCache,
};
use proptest::prelude::*;

fn kind(is_write: bool) -> AccessKind {
    if is_write {
        AccessKind::Write
    } else {
        AccessKind::Read
    }
}

/// Traces over a small block universe so the PD machinery is exercised
/// hard (conflicts, reprogramming, forced victims).
fn trace_strategy(blocks: u64, max_len: usize) -> impl Strategy<Value = Vec<(u64, bool)>> {
    prop::collection::vec((0..blocks, any::<bool>()), 1..max_len)
}

/// A small B-Cache design space to sample from.
fn params_strategy() -> impl Strategy<Value = BCacheParams> {
    (0u32..4, 0u32..4, prop::bool::ANY).prop_map(|(mf_log, bas_log, lru)| {
        let geom = CacheGeometry::with_addr_bits(1024, 32, 1, 20).unwrap();
        let policy = if lru {
            PolicyKind::Lru
        } else {
            PolicyKind::Random
        };
        BCacheParams::new(geom, 1 << mf_log, 1 << bas_log, policy)
            .unwrap()
            .with_seed(7)
    })
}

proptest! {
    /// Every internal invariant holds after any access sequence, for any
    /// (MF, BAS, policy) combination.
    #[test]
    fn invariants_hold_for_any_trace(
        params in params_strategy(),
        trace in trace_strategy(4096, 300),
    ) {
        let mut bc = BalancedCache::new(params);
        for &(block, w) in &trace {
            bc.access(Addr::new(block * 32), kind(w));
            // An access that just completed must be resident.
            prop_assert!(bc.probe(Addr::new(block * 32)));
        }
        prop_assert!(bc.invariants_hold());
    }

    /// MF = 1, BAS = 1 is exactly the baseline direct-mapped cache.
    #[test]
    fn degenerate_bcache_equals_direct_mapped(trace in trace_strategy(4096, 400)) {
        let geom = CacheGeometry::with_addr_bits(1024, 32, 1, 20).unwrap();
        let params = BCacheParams::new(geom, 1, 1, PolicyKind::Lru).unwrap();
        let mut bc = BalancedCache::new(params);
        let mut dm = DirectMappedCache::from_geometry(geom).unwrap();
        for &(block, w) in &trace {
            let addr = Addr::new(block * 32);
            let a = bc.access(addr, kind(w));
            let b = dm.access(addr, kind(w));
            prop_assert_eq!(a.hit, b.hit);
            prop_assert_eq!(a.evicted, b.evicted);
        }
    }

    /// With the PI covering the whole tag, the B-Cache is exactly a
    /// BAS-way set-associative cache indexed by the NPI.
    #[test]
    fn maximal_mf_equals_set_associative(trace in trace_strategy(2048, 400)) {
        // 16-bit addresses, 1 kB cache: tag is 6 bits; MF = 2^6.
        let geom = CacheGeometry::with_addr_bits(1024, 32, 1, 16).unwrap();
        let params = BCacheParams::new(geom, 1 << 6, 8, PolicyKind::Lru).unwrap();
        let mut bc = BalancedCache::new(params);
        let sa_geom = CacheGeometry::with_addr_bits(1024, 32, 8, 16).unwrap();
        let mut sa = SetAssociativeCache::from_geometry(sa_geom, PolicyKind::Lru, 0).unwrap();
        for &(block, w) in &trace {
            let addr = Addr::new(block * 32);
            prop_assert_eq!(bc.access(addr, kind(w)).hit, sa.access(addr, kind(w)).hit);
        }
        prop_assert_eq!(
            bc.pd_stats().misses_with_pd_hit, 0,
            "a full-tag PD hit implies a tag hit"
        );
    }

    /// The B-Cache's misses lie between the 8-way cache (lower bound in
    /// practice for BAS=8 LRU) and the direct-mapped baseline is NOT a
    /// theorem; what *is* guaranteed is bookkeeping consistency, checked
    /// here: misses split exactly into PD-hit and PD-miss misses.
    #[test]
    fn pd_stats_partition_the_misses(
        params in params_strategy(),
        trace in trace_strategy(4096, 300),
    ) {
        let mut bc = BalancedCache::new(params);
        for &(block, w) in &trace {
            bc.access(Addr::new(block * 32), kind(w));
        }
        let pd = bc.pd_stats();
        prop_assert_eq!(
            pd.misses_with_pd_hit + pd.misses_with_pd_miss,
            bc.stats().total().misses()
        );
    }

    /// Per-set usage sums to the aggregate statistics.
    #[test]
    fn usage_sums_match(params in params_strategy(), trace in trace_strategy(4096, 300)) {
        let mut bc = BalancedCache::new(params);
        for &(block, w) in &trace {
            bc.access(Addr::new(block * 32), kind(w));
        }
        let usage = bc.set_usage();
        let hits: u64 = (0..usage.sets()).map(|s| usage.hits(s)).sum();
        let misses: u64 = (0..usage.sets()).map(|s| usage.misses(s)).sum();
        prop_assert_eq!(hits, bc.stats().total().hits());
        prop_assert_eq!(misses, bc.stats().total().misses());
    }

    /// Capacity is never exceeded and evictions always name resident
    /// blocks: replaying the trace against a shadow set of resident
    /// blocks stays consistent.
    #[test]
    fn shadow_residency_model(params in params_strategy(), trace in trace_strategy(4096, 300)) {
        use std::collections::HashSet;
        let mut bc = BalancedCache::new(params);
        let mut resident: HashSet<u64> = HashSet::new();
        let lines = params.geometry().lines();
        for &(block, w) in &trace {
            let addr = Addr::new(block * 32);
            let r = bc.access(addr, kind(w));
            prop_assert_eq!(r.hit, resident.contains(&block), "block {}", block);
            if let Some(ev) = r.evicted {
                let evicted_block = ev.block.raw() / 32;
                prop_assert!(resident.remove(&evicted_block), "evicted non-resident block");
            }
            resident.insert(block);
            prop_assert!(resident.len() <= lines);
        }
    }

    /// Write-backs appear only when dirty blocks are displaced.
    #[test]
    fn read_only_traces_have_no_writebacks(
        params in params_strategy(),
        blocks in prop::collection::vec(0u64..4096, 1..300),
    ) {
        let mut bc = BalancedCache::new(params);
        for &block in &blocks {
            let r = bc.access(Addr::new(block * 32), AccessKind::Read);
            if let Some(ev) = r.evicted {
                prop_assert!(!ev.dirty);
            }
        }
        prop_assert_eq!(bc.stats().writebacks(), 0);
    }
}

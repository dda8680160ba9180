//! Property-based tests for the cache substrate.

use cache_sim::{
    AccessKind, Addr, AgacCache, CacheModel, ColumnAssociativeCache, DirectMappedCache, PolicyKind,
    SetAssociativeCache, VictimCache,
};
use proptest::prelude::*;

/// A compact trace description: block numbers within a bounded region plus
/// a read/write flag, so conflicts are frequent.
fn trace_strategy(max_len: usize) -> impl Strategy<Value = Vec<(u64, bool)>> {
    prop::collection::vec((0u64..512, any::<bool>()), 1..max_len)
}

fn kind(is_write: bool) -> AccessKind {
    if is_write {
        AccessKind::Write
    } else {
        AccessKind::Read
    }
}

proptest! {
    /// A 1-way set-associative cache is exactly a direct-mapped cache.
    #[test]
    fn set_assoc_one_way_equals_direct_mapped(trace in trace_strategy(400)) {
        let mut sa = SetAssociativeCache::new(1024, 32, 1, PolicyKind::Lru, 0).unwrap();
        let mut dm = DirectMappedCache::new(1024, 32).unwrap();
        for &(block, w) in &trace {
            let addr = Addr::new(block * 32);
            let a = sa.access(addr, kind(w));
            let b = dm.access(addr, kind(w));
            prop_assert_eq!(a.hit, b.hit);
            prop_assert_eq!(a.evicted, b.evicted);
        }
    }

    /// LRU is a stack algorithm per set: with the number of sets held
    /// constant, misses never increase with associativity.
    #[test]
    fn lru_miss_count_monotone_in_associativity(trace in trace_strategy(400)) {
        // 32 sets throughout; capacity grows with associativity, which is
        // exactly the inclusion property LRU guarantees per set.
        let mut misses = Vec::new();
        for assoc in [1usize, 2, 4, 8] {
            let mut c = SetAssociativeCache::new(32 * 32 * assoc, 32, assoc, PolicyKind::Lru, 0).unwrap();
            for &(block, w) in &trace {
                c.access(Addr::new(block * 32), kind(w));
            }
            misses.push(c.stats().total().misses());
        }
        for pair in misses.windows(2) {
            prop_assert!(pair[1] <= pair[0], "misses {:?} not monotone", misses);
        }
    }

    /// A victim cache never has more misses than the same direct-mapped
    /// cache alone on the same trace... is not true in general, but the
    /// total resident blocks never exceed capacity, and hits stay hits:
    /// here we check the weaker, always-true invariant that every access
    /// is counted exactly once and the hit flag matches a reference
    /// model of "block present in main or buffer".
    #[test]
    fn victim_cache_matches_reference_presence(trace in trace_strategy(300)) {
        let mut vc = VictimCache::new(512, 32, 4).unwrap();
        // Reference: main array map set->block plus a 4-deep LRU list.
        let mut main: Vec<Option<u64>> = vec![None; 16];
        let mut buf: Vec<u64> = Vec::new(); // most recent at the back
        for &(block, w) in &trace {
            let addr = Addr::new(block * 32);
            let set = (block % 16) as usize;
            let expected_hit = main[set] == Some(block) || buf.contains(&block);
            let r = vc.access(addr, kind(w));
            prop_assert_eq!(r.hit, expected_hit, "block {} set {}", block, set);
            // Update the reference model.
            if main[set] == Some(block) {
                // fast hit: nothing moves
            } else if let Some(pos) = buf.iter().position(|&b| b == block) {
                // swap hit
                buf.remove(pos);
                if let Some(old) = main[set] {
                    buf.push(old);
                }
                main[set] = Some(block);
            } else {
                // miss: demote old resident
                if let Some(old) = main[set] {
                    if buf.len() == 4 {
                        buf.remove(0);
                    }
                    buf.push(old);
                }
                main[set] = Some(block);
            }
        }
    }

    /// Statistics identities: hits + misses == accesses, and per-set usage
    /// sums to the aggregate counters.
    #[test]
    fn stats_identities(trace in trace_strategy(300)) {
        let mut c = SetAssociativeCache::new(1024, 32, 4, PolicyKind::Lru, 0).unwrap();
        for &(block, w) in &trace {
            c.access(Addr::new(block * 32), kind(w));
        }
        let total = c.stats().total();
        prop_assert_eq!(total.accesses(), trace.len() as u64);
        let usage = c.set_usage();
        let hits: u64 = (0..usage.sets()).map(|s| usage.hits(s)).sum();
        let misses: u64 = (0..usage.sets()).map(|s| usage.misses(s)).sum();
        prop_assert_eq!(hits, total.hits());
        prop_assert_eq!(misses, total.misses());
    }

    /// Fully-associative LRU obeys the stack property over buffer sizes.
    #[test]
    fn fully_associative_lru_stack_property(trace in trace_strategy(300)) {
        let mut misses = Vec::new();
        for lines in [4usize, 8, 16] {
            let mut c = SetAssociativeCache::fully_associative(lines, 32, PolicyKind::Lru, 0).unwrap();
            for &(block, w) in &trace {
                c.access(Addr::new(block * 32), kind(w));
            }
            misses.push(c.stats().total().misses());
        }
        prop_assert!(misses[1] <= misses[0] && misses[2] <= misses[1]);
    }

    /// Write-backs only happen for blocks that were actually written.
    #[test]
    fn no_writebacks_on_read_only_traces(trace in prop::collection::vec(0u64..512, 1..300)) {
        let mut c = SetAssociativeCache::new(512, 32, 2, PolicyKind::Lru, 0).unwrap();
        for &block in &trace {
            let r = c.access(Addr::new(block * 32), AccessKind::Read);
            if let Some(ev) = r.evicted {
                prop_assert!(!ev.dirty);
            }
        }
        prop_assert_eq!(c.stats().writebacks(), 0);
    }

    /// Evicted blocks are always distinct from the incoming block and
    /// block-aligned.
    #[test]
    fn evictions_are_aligned_and_foreign(trace in trace_strategy(300)) {
        let mut c = SetAssociativeCache::new(512, 32, 2, PolicyKind::Lru, 0).unwrap();
        for &(block, w) in &trace {
            let addr = Addr::new(block * 32);
            let r = c.access(addr, kind(w));
            if let Some(ev) = r.evicted {
                prop_assert!(ev.block.is_aligned(32));
                prop_assert_ne!(ev.block, addr.align_down(32));
            }
        }
    }
}

/// The direct-mapped, column-associative and AGAC caches key a line on
/// the address's low 32 bits (the default address width), so `x` and
/// `x + 2^32` are one block: the second access is a fast hit.
#[test]
fn bits_above_the_address_width_name_the_same_block() {
    let models: [(&str, Box<dyn CacheModel>); 3] = [
        (
            "direct-mapped",
            Box::new(DirectMappedCache::new(1024, 32).unwrap()),
        ),
        (
            "column",
            Box::new(ColumnAssociativeCache::new(1024, 32).unwrap()),
        ),
        ("agac", Box::new(AgacCache::new(1024, 32, 8).unwrap())),
    ];
    for (name, mut model) in models {
        let x = 0x1234_5660u64;
        model.access(Addr::new(x), AccessKind::Write);
        let r = model.access(Addr::new(x + (1 << 32)), AccessKind::Read);
        assert!(r.hit, "{name}: x + 2^32 missed");
        assert_eq!(r.extra_latency, 0, "{name}: x + 2^32 hit slowly");
    }
}

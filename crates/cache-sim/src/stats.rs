//! Access statistics: aggregate hit/miss counters, per-set usage counters,
//! the B-Cache's programmable-decoder counters, and the set-balance
//! classification used by Table 7 of the paper.

use std::fmt;

use crate::model::AccessKind;

/// Aggregate hit/miss counters for one cache.
///
/// Counters are split by access kind so instruction and data behaviour can
/// be reported separately when a cache is shared (the unified L2).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    reads: Counter,
    writes: Counter,
    fetches: Counter,
    /// Dirty blocks pushed out (write-backs to the next level).
    writebacks: u64,
}

/// A single hit/miss counter pair.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Counter {
    hits: u64,
    misses: u64,
}

impl Counter {
    /// Number of hits recorded.
    pub const fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of misses recorded.
    pub const fn misses(&self) -> u64 {
        self.misses
    }

    /// Total accesses recorded.
    pub const fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss rate in `[0, 1]`; `0` when no accesses were recorded.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }

    fn record(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }

    fn merge(&mut self, other: &Counter) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

impl CacheStats {
    /// Creates an empty statistics block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one access of the given kind.
    pub fn record(&mut self, kind: AccessKind, hit: bool) {
        match kind {
            AccessKind::Read => self.reads.record(hit),
            AccessKind::Write => self.writes.record(hit),
            AccessKind::InstrFetch => self.fetches.record(hit),
        }
    }

    /// Records a dirty eviction (write-back).
    pub fn record_writeback(&mut self) {
        self.writebacks += 1;
    }

    /// Adds `hits` hits and `misses` misses of `kind` in one call.
    ///
    /// This is the flush half of the batched replay paths: they tally a
    /// batch in locals and land the sums here, which is arithmetically
    /// identical to calling [`record`](Self::record) per access.
    pub fn record_bulk(&mut self, kind: AccessKind, hits: u64, misses: u64) {
        let c = match kind {
            AccessKind::Read => &mut self.reads,
            AccessKind::Write => &mut self.writes,
            AccessKind::InstrFetch => &mut self.fetches,
        };
        c.hits += hits;
        c.misses += misses;
    }

    /// Adds `n` write-backs in one call (the bulk counterpart of
    /// [`record_writeback`](Self::record_writeback)).
    pub fn record_writebacks(&mut self, n: u64) {
        self.writebacks += n;
    }

    /// Counter for data reads.
    pub const fn reads(&self) -> &Counter {
        &self.reads
    }

    /// Counter for data writes.
    pub const fn writes(&self) -> &Counter {
        &self.writes
    }

    /// Counter for instruction fetches.
    pub const fn fetches(&self) -> &Counter {
        &self.fetches
    }

    /// Number of write-backs to the next level.
    pub const fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Sum over all access kinds.
    pub fn total(&self) -> Counter {
        let mut c = self.reads;
        c.merge(&self.writes);
        c.merge(&self.fetches);
        c
    }

    /// Overall miss rate across every access kind.
    pub fn miss_rate(&self) -> f64 {
        self.total().miss_rate()
    }

    /// Clears every counter.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.total();
        write!(
            f,
            "{} accesses, {} hits, {} misses ({:.4}% miss rate), {} writebacks",
            t.accesses(),
            t.hits(),
            t.misses(),
            t.miss_rate() * 100.0,
            self.writebacks
        )
    }
}

/// Per-kind hit/miss/write-back tallies for one batch of accesses.
///
/// Batched replay loops ([`CacheModel::access_batch`]) accumulate here
/// — plain stack words the optimizer keeps in registers — and land the
/// sums in a [`CacheStats`] with one [`flush`](Self::flush), which is
/// arithmetically identical to recording each access on its own.
///
/// [`CacheModel::access_batch`]: crate::CacheModel::access_batch
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchTally {
    // `[hits, misses]` per access kind, in `kind_slot` order. Kept as
    // pairs so the per-access paths, which flush right after a single
    // record, read back the whole pair that record wrote instead of
    // straddling two narrower stores.
    counts: [[u64; 2]; 3],
    writebacks: u64,
}

impl BatchTally {
    /// An empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    const fn kind_slot(kind: AccessKind) -> usize {
        match kind {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
            AccessKind::InstrFetch => 2,
        }
    }

    /// Tallies one access of `kind`.
    #[inline(always)]
    pub fn record(&mut self, kind: AccessKind, hit: bool) {
        let [hits, misses] = &mut self.counts[Self::kind_slot(kind)];
        *hits += hit as u64;
        *misses += !hit as u64;
    }

    /// Tallies one dirty eviction.
    #[inline(always)]
    pub fn record_writeback(&mut self) {
        self.writebacks += 1;
    }

    /// Tallies a dirty eviction when `dirty` holds.
    ///
    /// Branchless on purpose: whether a victim is dirty is close to a
    /// coin flip on write-mixed streams, so a conditional here would be
    /// the least predictable branch of a replay kernel.
    #[inline(always)]
    pub fn record_writeback_if(&mut self, dirty: bool) {
        self.writebacks += dirty as u64;
    }

    /// Lands the tallies in `stats`.
    pub fn flush(self, stats: &mut CacheStats) {
        let kinds = [AccessKind::Read, AccessKind::Write, AccessKind::InstrFetch];
        for (kind, [hits, misses]) in kinds.into_iter().zip(self.counts) {
            stats.record_bulk(kind, hits, misses);
        }
        stats.record_writebacks(self.writebacks);
    }
}

/// Statistics specific to the B-Cache's programmable decoders (PDs),
/// reported through [`CacheModel::decoder_stats`].
///
/// The key quantity is the **PD hit rate during cache misses** (paper
/// Figure 3, Table 6): a PD hit on a miss forces the victim (no
/// replacement choice), so a *low* rate lets the replacement policy
/// balance the sets.
///
/// [`CacheModel::decoder_stats`]: crate::CacheModel::decoder_stats
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PdStats {
    /// Cache misses on which the PD matched (victim forced).
    pub misses_with_pd_hit: u64,
    /// Cache misses on which the PD also missed (victim chosen by the
    /// replacement policy; tag/data arrays were never read).
    pub misses_with_pd_miss: u64,
}

impl PdStats {
    /// PD hit rate during cache misses, in `[0, 1]`.
    pub fn pd_hit_rate_on_miss(&self) -> f64 {
        let total = self.misses_with_pd_hit + self.misses_with_pd_miss;
        if total == 0 {
            0.0
        } else {
            self.misses_with_pd_hit as f64 / total as f64
        }
    }
}

/// Per-set access counters, the raw material of the paper's Table 7.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SetUsage {
    hits: Vec<u64>,
    misses: Vec<u64>,
}

impl SetUsage {
    /// Creates counters for `sets` cache sets.
    pub fn new(sets: usize) -> Self {
        SetUsage {
            hits: vec![0; sets],
            misses: vec![0; sets],
        }
    }

    /// Number of sets tracked.
    pub fn sets(&self) -> usize {
        self.hits.len()
    }

    /// Records an access to `set`.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    #[inline]
    pub fn record(&mut self, set: usize, hit: bool) {
        if hit {
            self.hits[set] += 1;
        } else {
            self.misses[set] += 1;
        }
    }

    /// Hits observed by `set`.
    pub fn hits(&self, set: usize) -> u64 {
        self.hits[set]
    }

    /// Misses observed by `set`.
    pub fn misses(&self, set: usize) -> u64 {
        self.misses[set]
    }

    /// Total accesses observed by `set`.
    pub fn accesses(&self, set: usize) -> u64 {
        self.hits[set] + self.misses[set]
    }

    /// Per-set hit counts as a slice (index = set). The windowed
    /// profiler scans every set once per window; the slice pair lets
    /// that loop run without per-element bounds checks.
    pub fn hit_counts(&self) -> &[u64] {
        &self.hits
    }

    /// Per-set miss counts as a slice (index = set).
    pub fn miss_counts(&self) -> &[u64] {
        &self.misses
    }

    /// Clears every counter, keeping the set count.
    pub fn reset(&mut self) {
        self.hits.fill(0);
        self.misses.fill(0);
    }

    /// Computes the paper's balance classification (Section 6.4).
    pub fn balance(&self) -> BalanceReport {
        BalanceReport::from_usage(self)
    }
}

/// The Section 6.4 / Table 7 balance classification.
///
/// * a set is a **frequent-hit set** when its hits are more than twice the
///   per-set average;
/// * a set is a **frequent-miss set** when its misses are more than twice
///   the per-set average;
/// * a set is a **less-accessed set** when its total accesses are below
///   half the per-set average.
///
/// All fields are fractions in `[0, 1]`.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct BalanceReport {
    /// Fraction of sets classified as frequent-hit sets (`fhs`).
    pub frequent_hit_sets: f64,
    /// Fraction of all hits landing in frequent-hit sets (`ch`).
    pub hits_in_frequent_hit_sets: f64,
    /// Fraction of sets classified as frequent-miss sets (`fms`).
    pub frequent_miss_sets: f64,
    /// Fraction of all misses landing in frequent-miss sets (`cm`).
    pub misses_in_frequent_miss_sets: f64,
    /// Fraction of sets classified as less-accessed sets (`las`).
    pub less_accessed_sets: f64,
    /// Fraction of all accesses landing in less-accessed sets (`tca`).
    pub accesses_in_less_accessed_sets: f64,
}

impl BalanceReport {
    /// Builds a report from raw per-set counters.
    pub fn from_usage(usage: &SetUsage) -> Self {
        let sets = usage.sets();
        if sets == 0 {
            return Self::default();
        }
        let total_hits: u64 = usage.hits.iter().sum();
        let total_misses: u64 = usage.misses.iter().sum();
        let total_accesses = total_hits + total_misses;
        let avg_hits = total_hits as f64 / sets as f64;
        let avg_misses = total_misses as f64 / sets as f64;
        let avg_accesses = total_accesses as f64 / sets as f64;

        let mut fhs = 0usize;
        let mut fhs_hits = 0u64;
        let mut fms = 0usize;
        let mut fms_misses = 0u64;
        let mut las = 0usize;
        let mut las_accesses = 0u64;
        for s in 0..sets {
            let h = usage.hits[s];
            let m = usage.misses[s];
            if total_hits > 0 && (h as f64) > 2.0 * avg_hits {
                fhs += 1;
                fhs_hits += h;
            }
            if total_misses > 0 && (m as f64) > 2.0 * avg_misses {
                fms += 1;
                fms_misses += m;
            }
            if ((h + m) as f64) < avg_accesses / 2.0 {
                las += 1;
                las_accesses += h + m;
            }
        }

        let frac = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        BalanceReport {
            frequent_hit_sets: fhs as f64 / sets as f64,
            hits_in_frequent_hit_sets: frac(fhs_hits, total_hits),
            frequent_miss_sets: fms as f64 / sets as f64,
            misses_in_frequent_miss_sets: frac(fms_misses, total_misses),
            less_accessed_sets: las as f64 / sets as f64,
            accesses_in_less_accessed_sets: frac(las_accesses, total_accesses),
        }
    }
}

impl fmt::Display for BalanceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fhs {:.1}% (ch {:.1}%), fms {:.1}% (cm {:.1}%), las {:.1}% (tca {:.1}%)",
            self.frequent_hit_sets * 100.0,
            self.hits_in_frequent_hit_sets * 100.0,
            self.frequent_miss_sets * 100.0,
            self.misses_in_frequent_miss_sets * 100.0,
            self.less_accessed_sets * 100.0,
            self.accesses_in_less_accessed_sets * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_split_by_kind() {
        let mut s = CacheStats::new();
        s.record(AccessKind::Read, true);
        s.record(AccessKind::Read, false);
        s.record(AccessKind::Write, false);
        s.record(AccessKind::InstrFetch, true);
        assert_eq!(s.reads().hits(), 1);
        assert_eq!(s.reads().misses(), 1);
        assert_eq!(s.writes().misses(), 1);
        assert_eq!(s.fetches().hits(), 1);
        assert_eq!(s.total().accesses(), 4);
        assert_eq!(s.total().misses(), 2);
        assert!((s.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_have_zero_miss_rate() {
        assert_eq!(CacheStats::new().miss_rate(), 0.0);
    }

    #[test]
    fn batch_tally_flush_equals_per_access_recording() {
        let mut per_access = CacheStats::new();
        let mut tally = BatchTally::new();
        let pattern = [
            (AccessKind::Read, true),
            (AccessKind::Read, false),
            (AccessKind::Write, true),
            (AccessKind::Write, false),
            (AccessKind::InstrFetch, false),
        ];
        for &(kind, hit) in &pattern {
            per_access.record(kind, hit);
            tally.record(kind, hit);
            if !hit {
                per_access.record_writeback();
                tally.record_writeback();
            }
        }
        let mut batched = CacheStats::new();
        tally.flush(&mut batched);
        assert_eq!(per_access, batched);
    }

    #[test]
    fn bulk_recording_equals_per_access_recording() {
        let mut per_access = CacheStats::new();
        for _ in 0..3 {
            per_access.record(AccessKind::Read, true);
        }
        per_access.record(AccessKind::Read, false);
        per_access.record(AccessKind::Write, false);
        per_access.record(AccessKind::InstrFetch, true);
        per_access.record_writeback();
        per_access.record_writeback();

        let mut bulk = CacheStats::new();
        bulk.record_bulk(AccessKind::Read, 3, 1);
        bulk.record_bulk(AccessKind::Write, 0, 1);
        bulk.record_bulk(AccessKind::InstrFetch, 1, 0);
        bulk.record_writebacks(2);
        assert_eq!(per_access, bulk);
    }

    #[test]
    fn writebacks_accumulate_and_reset() {
        let mut s = CacheStats::new();
        s.record_writeback();
        s.record_writeback();
        assert_eq!(s.writebacks(), 2);
        s.reset();
        assert_eq!(s.writebacks(), 0);
        assert_eq!(s.total().accesses(), 0);
    }

    #[test]
    fn pd_hit_rate_definition() {
        let s = PdStats {
            misses_with_pd_hit: 3,
            misses_with_pd_miss: 1,
        };
        assert!((s.pd_hit_rate_on_miss() - 0.75).abs() < 1e-12);
        assert_eq!(PdStats::default().pd_hit_rate_on_miss(), 0.0);
    }

    #[test]
    fn set_usage_records_per_set() {
        let mut u = SetUsage::new(4);
        u.record(0, true);
        u.record(0, false);
        u.record(3, false);
        assert_eq!(u.hits(0), 1);
        assert_eq!(u.misses(0), 1);
        assert_eq!(u.accesses(0), 2);
        assert_eq!(u.accesses(3), 1);
        assert_eq!(u.accesses(1), 0);
        u.reset();
        assert_eq!(u.accesses(0), 0);
        assert_eq!(u.sets(), 4);
    }

    #[test]
    fn balance_flags_skewed_usage() {
        // 8 sets; set 0 gets nearly all hits, set 1 all misses, rest idle.
        let mut u = SetUsage::new(8);
        for _ in 0..80 {
            u.record(0, true);
        }
        for _ in 0..40 {
            u.record(1, false);
        }
        u.record(2, true);
        let b = u.balance();
        // Set 0 holds 80/81 hits and is well over 2x the average (~10).
        assert!((b.frequent_hit_sets - 1.0 / 8.0).abs() < 1e-12);
        assert!(b.hits_in_frequent_hit_sets > 0.95);
        assert!((b.frequent_miss_sets - 1.0 / 8.0).abs() < 1e-12);
        assert!((b.misses_in_frequent_miss_sets - 1.0).abs() < 1e-12);
        // Sets 2..8 each see <= 1 access versus an average of ~15.
        assert!(b.less_accessed_sets >= 6.0 / 8.0);
    }

    #[test]
    fn balance_of_uniform_usage_has_no_outliers() {
        let mut u = SetUsage::new(16);
        for s in 0..16 {
            for _ in 0..10 {
                u.record(s, true);
            }
            u.record(s, false);
        }
        let b = u.balance();
        assert_eq!(b.frequent_hit_sets, 0.0);
        assert_eq!(b.frequent_miss_sets, 0.0);
        assert_eq!(b.less_accessed_sets, 0.0);
    }

    #[test]
    fn balance_of_empty_usage_is_default() {
        assert_eq!(SetUsage::new(0).balance(), BalanceReport::default());
        let b = SetUsage::new(4).balance();
        assert_eq!(b.frequent_hit_sets, 0.0);
        assert_eq!(b.accesses_in_less_accessed_sets, 0.0);
    }

    #[test]
    fn display_formats_are_nonempty() {
        let s = CacheStats::new();
        assert!(!s.to_string().is_empty());
        let b = BalanceReport::default();
        assert!(!b.to_string().is_empty());
    }
}

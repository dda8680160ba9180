//! The [`CacheModel`] trait implemented by every cache in this workspace,
//! together with the access request/response types.

use crate::addr::Addr;
use crate::geometry::CacheGeometry;
use crate::simd::{LaneKernel, Lanes};
use crate::stats::{CacheStats, PdStats, SetUsage};

/// What kind of memory reference an access is.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A data load.
    Read,
    /// A data store (write-allocate: misses fill the block, then dirty it).
    Write,
    /// An instruction fetch.
    InstrFetch,
}

impl AccessKind {
    /// Whether this access dirties the block it touches.
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// A block pushed out of a cache by a fill.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Eviction {
    /// Block-aligned base address of the evicted block.
    pub block: Addr,
    /// Whether the block was dirty and must be written back.
    pub dirty: bool,
}

/// The outcome of one cache access.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the reference hit in this cache (victim-buffer hits count).
    pub hit: bool,
    /// Extra cycles beyond the cache's base hit latency.
    ///
    /// Zero for every hit in a direct-mapped cache or a B-Cache; one for a
    /// swap hit in a victim buffer or a rehash hit in a column-associative
    /// cache. Only meaningful when `hit` is `true`.
    pub extra_latency: u32,
    /// Block evicted to make room for the fill, if any.
    pub evicted: Option<Eviction>,
}

impl AccessResult {
    /// A plain single-cycle hit.
    pub const fn hit() -> Self {
        AccessResult {
            hit: true,
            extra_latency: 0,
            evicted: None,
        }
    }

    /// A hit that costs `extra` additional cycles.
    pub const fn slow_hit(extra: u32) -> Self {
        AccessResult {
            hit: true,
            extra_latency: extra,
            evicted: None,
        }
    }

    /// A miss, optionally evicting a block.
    pub const fn miss(evicted: Option<Eviction>) -> Self {
        AccessResult {
            hit: false,
            extra_latency: 0,
            evicted,
        }
    }
}

/// A cache that can service block-granular accesses.
///
/// Implementations are *functional* models: they track which blocks are
/// resident and dirty, maintain replacement state, and count statistics.
/// They do not store data bytes. All of them use write-back,
/// write-allocate semantics, matching the paper's SimpleScalar setup.
///
/// Counters only some models keep are reported through accessors that
/// default to `None`: [`set_usage`](Self::set_usage) and the B-Cache's
/// [`decoder_stats`](Self::decoder_stats). A caller therefore reads
/// every model, boxed or not, through this trait alone.
pub trait CacheModel {
    /// Services one access and updates internal state and statistics.
    fn access(&mut self, addr: Addr, kind: AccessKind) -> AccessResult;

    /// Aggregate statistics since the last [`reset_stats`](Self::reset_stats).
    fn stats(&self) -> &CacheStats;

    /// Clears statistics without disturbing cache contents.
    ///
    /// Used by the harness to discard the warm-up prefix of a run, the
    /// stand-in for the paper's fast-forward phase.
    fn reset_stats(&mut self);

    /// The nominal geometry (capacity / line / associativity).
    fn geometry(&self) -> CacheGeometry;

    /// Per-set usage counters, when the model tracks them.
    fn set_usage(&self) -> Option<&SetUsage> {
        None
    }

    /// Programmable-decoder counters, when the model has decoders (the
    /// B-Cache does; every other model reports `None`). They reset with
    /// [`reset_stats`](Self::reset_stats).
    fn decoder_stats(&self) -> Option<PdStats> {
        None
    }

    /// Services a batch of accesses, updating state and statistics
    /// exactly as the equivalent [`access`](Self::access) loop would.
    ///
    /// The default implementation *is* that loop. Every model in this
    /// crate and the B-Cache override it with a monomorphized loop over
    /// the one inlined step function their `access` also calls, with
    /// statistics tallied in registers and flushed once per batch, so
    /// the two paths agree by construction — statistics, set usage,
    /// replacement state and contents (and, for the B-Cache, its typed
    /// events). An override
    /// must keep that shape; `harness`'s batch-equivalence suite
    /// checks the result against the loop and the oracles.
    fn access_batch(&mut self, accesses: &[(Addr, AccessKind)]) {
        for &(addr, kind) in accesses {
            self.access(addr, kind);
        }
    }
}

/// Convenience: `Box<dyn CacheModel>` forwards to the inner model.
impl CacheModel for Box<dyn CacheModel> {
    fn access(&mut self, addr: Addr, kind: AccessKind) -> AccessResult {
        (**self).access(addr, kind)
    }

    fn stats(&self) -> &CacheStats {
        (**self).stats()
    }

    fn reset_stats(&mut self) {
        (**self).reset_stats()
    }

    fn geometry(&self) -> CacheGeometry {
        (**self).geometry()
    }

    fn set_usage(&self) -> Option<&SetUsage> {
        (**self).set_usage()
    }

    fn decoder_stats(&self) -> Option<PdStats> {
        (**self).decoder_stats()
    }

    fn access_batch(&mut self, accesses: &[(Addr, AccessKind)]) {
        (**self).access_batch(accesses)
    }
}

/// A cache whose probing access paths are generic over the lane
/// backend ([`Lanes`]).
///
/// Its [`CacheModel::access`] and [`CacheModel::access_batch`] each
/// enter [`crate::simd::dispatch`] once, with [`LaneAccess`] or
/// [`LaneBatch`]: the backend is chosen once per call, and every probe
/// of the call runs inlined in the backend's frame.
pub trait LaneModel {
    /// [`CacheModel::access`] with its probes on `lanes`.
    fn access_on<L: Lanes>(&mut self, lanes: L, addr: Addr, kind: AccessKind) -> AccessResult;

    /// [`CacheModel::access_batch`] with its probes on `lanes`.
    fn access_batch_on<L: Lanes>(&mut self, lanes: L, accesses: &[(Addr, AccessKind)]);
}

/// One [`LaneModel::access_on`] call as a [`LaneKernel`].
#[derive(Debug)]
pub struct LaneAccess<'a, M>(pub &'a mut M, pub Addr, pub AccessKind);

impl<M: LaneModel> LaneKernel for LaneAccess<'_, M> {
    type Output = AccessResult;

    #[inline(always)]
    fn run<L: Lanes>(self, lanes: L) -> AccessResult {
        self.0.access_on(lanes, self.1, self.2)
    }
}

/// One [`LaneModel::access_batch_on`] call as a [`LaneKernel`].
#[derive(Debug)]
pub struct LaneBatch<'a, M>(pub &'a mut M, pub &'a [(Addr, AccessKind)]);

impl<M: LaneModel> LaneKernel for LaneBatch<'_, M> {
    type Output = ();

    #[inline(always)]
    fn run<L: Lanes>(self, lanes: L) {
        self.0.access_batch_on(lanes, self.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_kind_write_detection() {
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
        assert!(!AccessKind::InstrFetch.is_write());
    }

    #[test]
    fn result_constructors() {
        assert!(AccessResult::hit().hit);
        assert_eq!(AccessResult::hit().extra_latency, 0);
        assert_eq!(AccessResult::slow_hit(2).extra_latency, 2);
        let ev = Eviction {
            block: Addr::new(0x40),
            dirty: true,
        };
        let r = AccessResult::miss(Some(ev));
        assert!(!r.hit);
        assert_eq!(r.evicted, Some(ev));
    }
}

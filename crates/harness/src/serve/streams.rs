//! The server's one trace cache: every worker reads side streams
//! through it, and it keeps a stream only from its second request on.
//!
//! A request first looks in the retained streams. A stream that is not
//! retained and whose key has no mark is extracted straight from the
//! generator, and the key is marked; nothing keeps that stream, so it
//! is freed when its job drops it. A marked key goes through
//! [`TraceCache::side`], which retains the stream. A seed a client
//! sends once therefore costs one extraction and no memory after its
//! job, while a hot key is held once for all workers.
//!
//! The marks are a direct-mapped table of key fingerprints — the
//! paper's trade-off applied to the server. Two keys sharing a slot
//! overwrite each other's mark, which only delays retention by one
//! request, just as a conflict in a direct-mapped cache costs only a
//! miss. A stream's bytes never depend on which path built it.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use trace_gen::BenchmarkProfile;

use crate::parallel::TraceCache;
use crate::run::{RunLength, Side, SideTrace};

/// Mark slots (32 KiB of fingerprints). With 32 hot keys the chance
/// that any two share a slot is about 11% (the birthday bound), and
/// such a collision costs one extra extraction.
const MARK_SLOTS: usize = 4096;

/// How [`StreamCache::side`] requests were served, plus the streams
/// retained right now.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct StreamCounts {
    /// Requests that extracted a stream and let it go.
    pub fresh: u64,
    /// Requests that ran a retaining extraction.
    pub fills: u64,
    /// Requests served from a retained stream.
    pub hits: u64,
    /// Distinct streams retained.
    pub retained: u64,
}

/// The shared, reuse-gated side-stream cache of one server.
#[derive(Debug)]
pub struct StreamCache {
    traces: TraceCache,
    marks: Box<[AtomicU64]>,
    fresh: AtomicU64,
    fills: AtomicU64,
    hits: AtomicU64,
}

impl Default for StreamCache {
    fn default() -> Self {
        StreamCache {
            traces: TraceCache::new(),
            marks: (0..MARK_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            fresh: AtomicU64::new(0),
            fills: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }
}

impl StreamCache {
    /// An empty cache with no marks.
    pub fn new() -> Self {
        Self::default()
    }

    /// The `side` stream of `profile` at `len`, retained from the
    /// key's second request on.
    pub fn side(&self, profile: &BenchmarkProfile, len: RunLength, side: Side) -> Arc<SideTrace> {
        if let Some(trace) = self.traces.cached_side(profile, len, side) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return trace;
        }
        let fp = fingerprint(profile, len, side);
        // One swap both reads and sets the mark, so of two requests
        // racing on an unmarked key exactly one sees it unmarked.
        // The mark publishes no other data, hence `Relaxed`.
        if self.marks[fp as usize % MARK_SLOTS].swap(fp, Ordering::Relaxed) != fp {
            self.fresh.fetch_add(1, Ordering::Relaxed);
            return Arc::new(SideTrace::generate(profile, len, side));
        }
        let (trace, extracted) = self.traces.side_extracted(profile, len, side);
        // A request that waited on another's extraction is a hit.
        let counter = if extracted { &self.fills } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        trace
    }

    /// The counts so far.
    pub fn counts(&self) -> StreamCounts {
        StreamCounts {
            fresh: self.fresh.load(Ordering::Relaxed),
            fills: self.fills.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            retained: self.traces.side_len() as u64,
        }
    }
}

/// A 64-bit fingerprint of a stream key. Never 0, the empty-slot value.
///
/// `DefaultHasher::new` is SipHash with fixed keys, unlike a map's
/// randomly keyed `RandomState`, so retention repeats from run to run.
/// A client that crafts colliding keys gains nothing from that: a
/// collision only delays a stream's retention, and no request costs
/// more than one extraction.
fn fingerprint(profile: &BenchmarkProfile, len: RunLength, side: Side) -> u64 {
    let mut h = DefaultHasher::new();
    (
        profile.name,
        len.records,
        len.warmup,
        len.seed,
        side == Side::Data,
    )
        .hash(&mut h);
    h.finish().max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use trace_gen::profiles;

    fn len(seed: u64) -> RunLength {
        RunLength {
            records: 2_000,
            warmup: 500,
            seed,
        }
    }

    /// `(fresh, fills, hits, retained)`.
    fn counts(cache: &StreamCache) -> (u64, u64, u64, u64) {
        let c = cache.counts();
        (c.fresh, c.fills, c.hits, c.retained)
    }

    #[test]
    fn the_first_request_is_not_retained_and_the_second_is() {
        let cache = StreamCache::new();
        let p = profiles::by_name("gzip").unwrap();
        let a = cache.side(&p, len(1), Side::Data);
        assert_eq!(counts(&cache), (1, 0, 0, 0), "a first sighting is not kept");
        let b = cache.side(&p, len(1), Side::Data);
        assert_eq!(counts(&cache), (1, 1, 0, 1), "the second request retains");
        let c = cache.side(&p, len(1), Side::Data);
        assert_eq!(counts(&cache), (1, 1, 1, 1));
        assert!(Arc::ptr_eq(&b, &c), "the retained stream is served");
        assert_eq!(*a, *b, "both paths build the same bytes");
        assert_eq!(*a, SideTrace::generate(&p, len(1), Side::Data));
        // The other side of the same records is a key of its own.
        cache.side(&p, len(1), Side::Instruction);
        assert_eq!(counts(&cache), (2, 1, 1, 1));
    }

    #[test]
    fn a_retained_stream_survives_its_mark_being_overwritten() {
        let cache = StreamCache::new();
        let p = profiles::by_name("gzip").unwrap();
        let slot = |l: RunLength| fingerprint(&p, l, Side::Data) as usize % MARK_SLOTS;
        cache.side(&p, len(1), Side::Data);
        let kept = cache.side(&p, len(1), Side::Data);
        // A different key in the same slot overwrites the mark.
        let rival = (2..).map(len).find(|&l| slot(l) == slot(len(1))).unwrap();
        cache.side(&p, rival, Side::Data);
        assert_eq!(counts(&cache), (2, 1, 0, 1));
        let again = cache.side(&p, len(1), Side::Data);
        assert_eq!(
            counts(&cache),
            (2, 1, 1, 1),
            "the retained set is consulted before the marks"
        );
        assert!(Arc::ptr_eq(&kept, &again));
        // The rival's own mark stands: its second request retains.
        cache.side(&p, rival, Side::Data);
        assert_eq!(counts(&cache), (2, 2, 1, 2));
    }

    #[test]
    fn racing_first_requests_get_identical_streams_and_retain_once() {
        const THREADS: usize = 2;
        const REQUESTS: usize = 3;
        let cache = StreamCache::new();
        let p = profiles::by_name("mcf").unwrap();
        let start = Barrier::new(THREADS);
        let streams: Vec<Arc<SideTrace>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (0..REQUESTS)
                            .map(|_| cache.side(&p, len(7), Side::Data))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let expected = SideTrace::generate(&p, len(7), Side::Data);
        assert!(streams.iter().all(|t| **t == expected));
        let hits = (THREADS * REQUESTS - 2) as u64;
        assert_eq!(counts(&cache), (1, 1, hits, 1));
    }

    #[test]
    fn fingerprints_are_fixed_and_tell_every_field_apart() {
        let p = profiles::by_name("gzip").unwrap();
        let base = fingerprint(&p, len(1), Side::Data);
        assert_eq!(base, fingerprint(&p, len(1), Side::Data));
        let mut others = vec![
            fingerprint(&p, len(2), Side::Data),
            fingerprint(&p, len(1), Side::Instruction),
            fingerprint(&profiles::by_name("mcf").unwrap(), len(1), Side::Data),
        ];
        for l in [
            RunLength {
                records: 2_001,
                ..len(1)
            },
            RunLength {
                warmup: 501,
                ..len(1)
            },
        ] {
            others.push(fingerprint(&p, l, Side::Data));
        }
        assert!(others.iter().all(|&f| f != base && f != 0));
    }
}

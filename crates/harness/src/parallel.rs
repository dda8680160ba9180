//! The parallel experiment engine: a scoped-thread job pool and a shared
//! trace cache.
//!
//! Every figure and table of the reproduction is a cross-product of
//! (benchmark profile × reference side × cache configuration). The
//! [`Engine`] shards that cross-product into independent jobs, runs
//! them on a pool of scoped worker threads (std-only: no external
//! crates), and hands results back **in input order**, so aggregation
//! is canonical and the output is bit-identical regardless of thread
//! count or scheduling.
//!
//! Two properties make the engine deterministic:
//!
//! 1. **Jobs are pure.** A job reads its inputs (profile, config, run
//!    length) and a shared immutable trace; it never touches mutable
//!    shared state, and no paper configuration's model draws a random
//!    number (see [`CacheConfig::spec`](crate::config::CacheConfig::spec)).
//! 2. **Aggregation is positional.** [`Engine::run`] returns results
//!    in the order jobs were submitted, however they interleaved.
//!
//! The drivers still hand each model a seed derived from the job's
//! identity ([`job_seed`]), which no paper configuration reads; it is
//! kept because the benchmark crate builds its models with it.
//!
//! Each job runs once. Since a job is a deterministic simulation, one
//! that panics would panic again on any rerun, so a panic is a finding:
//!
//! * every job body runs under `catch_unwind`, and every shared mutex
//!   is accessed through a poison-recovering guard, so the *first*
//!   panic's own payload is the one that surfaces;
//! * completed results can be persisted through an attached
//!   [`Checkpoint`] ([`Engine::run_checkpointed`]); the checkpoint is
//!   flushed before a panic propagates, so the sweep resumes
//!   byte-identically via `--resume`.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, LockResult, Mutex, MutexGuard, OnceLock};
use std::thread;
use std::time::Instant;

use telemetry::{tele_warn, Recorder, SpanId, SpanLog};
use trace_gen::{BenchmarkProfile, Trace, TraceBuffer};

use crate::checkpoint::{Checkpoint, CheckpointValue};
use crate::run::{record_count, RunLength, Side, SideTrace};

/// Locks a mutex, recovering from poisoning.
///
/// Every engine and server mutex only guards data that stays
/// consistent across a panic (memoization maps, result slots written
/// in one assignment, append-only recorders, the server's job queues,
/// outboxes and checkpoint store), so a poisoned lock is safe to enter. Using
/// this instead of `.expect("… lock")` means a panicking job surfaces
/// *its own* message rather than cascading "lock poisoned" panics
/// through every other worker.
pub(crate) fn recover<T>(result: LockResult<MutexGuard<'_, T>>) -> MutexGuard<'_, T> {
    result.unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Extracts a human-readable message from a panic payload (the `&str`
/// or `String` carried by `panic!`), used when reporting job failures.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Derives the deterministic seed of one experiment job from the sweep
/// seed and the job's identity.
///
/// The derivation is a pure function — FNV-1a over the benchmark name
/// and side tag folded with the base seed, finalized with a SplitMix64
/// mix — so the same job always receives the same seed while distinct
/// jobs in a sweep receive distinct, decorrelated seeds. Nothing about
/// thread count or scheduling order can influence it.
pub fn job_seed(base: u64, benchmark: &str, side: Side) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for b in benchmark.bytes() {
        eat(b);
    }
    // A separator byte keeps "abc"+I from colliding with "ab"+<c-ish>.
    eat(0xFF);
    eat(match side {
        Side::Instruction => 0x49, // 'I'
        Side::Data => 0x44,        // 'D'
    });
    // Fold in the base seed and finalize (SplitMix64 mixer) so that
    // consecutive base seeds still produce decorrelated outputs.
    let mut z = h ^ base.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Memoized trace generation, keyed by `(profile name, records, seed)`,
/// plus memoized per-side access streams keyed additionally by
/// `(warmup, side)`.
///
/// The first job that needs a trace synthesizes it (other requesters
/// block on the same entry rather than duplicating the work); later
/// jobs replay the shared, immutable buffer. The same applies to the
/// extracted [`SideTrace`] streams: the per-side filtering and
/// instruction-block collapse run once per `(profile, len, side)`, so
/// every config job of a sweep is pure model work.
///
/// Record buffers are compact [`TraceBuffer`] columns (about 4
/// bytes/record), so a full-length (2M-record) trace is ~8 MB. A sweep
/// that knows how many jobs will read a trace declares it with
/// [`TraceCache::expect_uses`]; each [`TraceCache::get`] counts one use
/// down, and the last one drops the cache's reference, so a 26-benchmark
/// sweep holds only the traces its in-flight jobs still read. An entry
/// with no declared count (or a request after the count ran out, which
/// regenerates the same bytes) stays cached until the cache is dropped.
/// Side streams are always kept: sweeps read them back long after
/// extraction.
///
/// All lock accesses recover from poisoning: if a generation panics,
/// its `OnceLock` cell stays uninitialized (the next request generates
/// again) and concurrent readers keep working instead of cascading the
/// panic.
#[derive(Debug, Default)]
pub struct TraceCache {
    entries: Mutex<HashMap<TraceKey, RecordEntry>>,
    sides: SideMap,
    // Wall-clock spans of trace generation and side extraction. Timing
    // is inherently non-deterministic (and whether an extraction reads
    // cached records or streams from the generator depends on
    // scheduling), so this feeds ONLY the recorder's `timing` section —
    // never the deterministic counters/histograms.
    timing: Mutex<Recorder>,
}

/// `(profile name, records, seed)`: the identity of one generated trace.
type TraceKey = (&'static str, u64, u64);

/// A side stream's trace key plus `(warmup, is the data side)`.
type SideKey = (TraceKey, u64, bool);

type SideMap = Mutex<HashMap<SideKey, Arc<OnceLock<Arc<SideTrace>>>>>;

/// One cached record buffer and the number of declared requests still
/// to come (`None`: kept until the cache is dropped).
#[derive(Debug, Default)]
struct RecordEntry {
    cell: Arc<OnceLock<Arc<TraceBuffer>>>,
    uses_left: Option<usize>,
}

impl TraceCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares that `uses` more [`Self::get`] calls will request the
    /// trace of `profile` at `len`; the call that uses up the count
    /// drops the cached buffer (callers still holding its `Arc` keep
    /// reading it). Declarations add up, so overlapping sweeps on one
    /// cache each account for their own requests.
    pub fn expect_uses(&self, profile: &BenchmarkProfile, len: RunLength, uses: usize) {
        if uses == 0 {
            return;
        }
        let mut entries = recover(self.entries.lock());
        let entry = entries.entry(trace_key(profile, len)).or_default();
        entry.uses_left = Some(entry.uses_left.unwrap_or(0) + uses);
    }

    /// Returns the trace of `profile` at `len`, generating it on first
    /// use, and counts down a declared use (see [`Self::expect_uses`]).
    pub fn get(&self, profile: &BenchmarkProfile, len: RunLength) -> Arc<TraceBuffer> {
        let key = trace_key(profile, len);
        let cell = {
            let mut entries = recover(self.entries.lock());
            let entry = entries.entry(key).or_default();
            let cell = entry.cell.clone();
            match entry.uses_left {
                Some(1) => drop(entries.remove(&key)),
                Some(n) => entry.uses_left = Some(n - 1),
                None => {}
            }
            cell
        };
        // Generation happens outside the map lock; concurrent callers
        // of the same key block on the OnceLock, not on the whole map.
        cell.get_or_init(|| {
            let start = Instant::now();
            let buf =
                Arc::new(Trace::new(profile, len.seed).take_buffer(record_count(len.records)));
            recover(self.timing.lock()).record_span("phase.trace_gen", start.elapsed());
            buf
        })
        .clone()
    }

    /// Returns the extracted `side` access stream of `profile` at
    /// `len`, extracting it on first use. Keyed additionally by
    /// `len.warmup` because the warm-up reset position is baked into
    /// the stream.
    ///
    /// If the raw records are already cached (a [`Self::get`] caller
    /// wanted them) the extraction reads them, without counting a use;
    /// otherwise it streams straight from the generator without
    /// materializing the record buffer — miss-rate sweeps only ever
    /// need the (much smaller) access streams.
    pub fn side(&self, profile: &BenchmarkProfile, len: RunLength, side: Side) -> Arc<SideTrace> {
        self.side_extracted(profile, len, side).0
    }

    /// [`Self::side`], also telling whether this call ran the
    /// extraction (`false`: the stream was already cached, or another
    /// caller extracted it while this one waited).
    pub(crate) fn side_extracted(
        &self,
        profile: &BenchmarkProfile,
        len: RunLength,
        side: Side,
    ) -> (Arc<SideTrace>, bool) {
        let key = trace_key(profile, len);
        let cell = recover(self.sides.lock())
            .entry(side_key(profile, len, side))
            .or_default()
            .clone();
        let mut extracted = false;
        let trace = cell
            .get_or_init(|| {
                extracted = true;
                let start = Instant::now();
                let cached_records = recover(self.entries.lock())
                    .get(&key)
                    .and_then(|e| e.cell.get().cloned());
                let trace = match cached_records {
                    Some(records) => SideTrace::extract(records.iter(), side, len.warmup),
                    None => SideTrace::generate(profile, len, side),
                };
                recover(self.timing.lock()).record_span("phase.trace_extract", start.elapsed());
                Arc::new(trace)
            })
            .clone();
        (trace, extracted)
    }

    /// The cached `side` stream of `profile` at `len`, if one was
    /// extracted; never extracts.
    pub(crate) fn cached_side(
        &self,
        profile: &BenchmarkProfile,
        len: RunLength,
        side: Side,
    ) -> Option<Arc<SideTrace>> {
        recover(self.sides.lock())
            .get(&side_key(profile, len, side))
            .and_then(|cell| cell.get().cloned())
    }

    /// Number of distinct side streams currently cached.
    pub(crate) fn side_len(&self) -> usize {
        recover(self.sides.lock())
            .values()
            .filter(|cell| cell.get().is_some())
            .count()
    }

    /// A snapshot of the accumulated trace-generation/extraction span
    /// timings (see the `timing` field note: wall-clock only).
    pub fn timing_snapshot(&self) -> Recorder {
        recover(self.timing.lock()).clone()
    }

    /// Number of distinct record buffers currently cached.
    pub fn len(&self) -> usize {
        recover(self.entries.lock())
            .values()
            .filter(|e| e.cell.get().is_some())
            .count()
    }

    /// Whether no record buffer is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn trace_key(profile: &BenchmarkProfile, len: RunLength) -> TraceKey {
    (profile.name, len.records, len.seed)
}

fn side_key(profile: &BenchmarkProfile, len: RunLength, side: Side) -> SideKey {
    (trace_key(profile, len), len.warmup, side == Side::Data)
}

/// Shared state of one [`Engine::run`] invocation.
struct RunState<'a, T, F> {
    jobs: &'a [F],
    /// When the run started, which is when every job was queued.
    start: Instant,
    /// Index of the next job to claim: the queue is this counter, since
    /// every job is queued once, at the start of the run.
    next: AtomicUsize,
    /// Positional result slots.
    slots: Vec<Mutex<Option<T>>>,
    /// The first job panic's payload; set once, stops the pool.
    fatal: Mutex<Option<Box<dyn Any + Send>>>,
}

/// The parallel experiment engine: a worker pool plus a [`TraceCache`].
#[derive(Debug)]
pub struct Engine {
    jobs: usize,
    traces: TraceCache,
    /// Jobs [`Engine::run_checkpointed`] answered from the checkpoint.
    checkpoint_hits: AtomicU64,
    /// Optional checkpoint store for [`Engine::run_checkpointed`].
    checkpoint: Mutex<Option<Checkpoint>>,
    /// Hierarchical wall-clock spans of every `run` (queue wait and
    /// execution per job) — the Chrome-trace substrate. Wall-clock,
    /// hence excluded from golden comparisons.
    spans: Mutex<SpanLog>,
}

impl Engine {
    /// Creates an engine running at most `jobs` worker threads
    /// (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        Engine {
            jobs: jobs.max(1),
            traces: TraceCache::new(),
            checkpoint_hits: AtomicU64::new(0),
            checkpoint: Mutex::new(None),
            spans: Mutex::new(SpanLog::new()),
        }
    }

    /// The worker-thread budget.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The shared trace cache.
    pub fn traces(&self) -> &TraceCache {
        &self.traces
    }

    /// A snapshot of the engine's wall-clock phase timings (trace
    /// generation and side extraction). These merge into a recorder's
    /// non-deterministic `timing` section only.
    pub fn timing_snapshot(&self) -> Recorder {
        self.traces.timing_snapshot()
    }

    /// How many jobs [`Engine::run_checkpointed`] has answered from the
    /// attached checkpoint instead of running them.
    pub fn checkpoint_hits(&self) -> u64 {
        self.checkpoint_hits.load(Ordering::Relaxed)
    }

    /// A snapshot of the hierarchical engine spans recorded so far:
    /// one `engine.run` root per [`Engine::run`] batch, with a
    /// `job{i}.wait` queue-wait span and an `exec` span per job.
    /// Wall-clock data — feed it to [`telemetry::chrome_trace_json`],
    /// never to golden comparisons.
    pub fn span_snapshot(&self) -> SpanLog {
        recover(self.spans.lock()).clone()
    }

    /// Attaches a checkpoint store; subsequent
    /// [`Engine::run_checkpointed`] calls read and persist through it.
    pub fn attach_checkpoint(&self, checkpoint: Checkpoint) {
        *recover(self.checkpoint.lock()) = Some(checkpoint);
    }

    /// Whether a checkpoint store is attached.
    pub fn has_checkpoint(&self) -> bool {
        recover(self.checkpoint.lock()).is_some()
    }

    /// Compacts the attached checkpoint (if any) on disk, logging — not
    /// raising — write errors, so a flush on the failure path cannot
    /// mask the original error.
    pub fn checkpoint_flush(&self) {
        if let Some(ckpt) = recover(self.checkpoint.lock()).as_mut() {
            if let Err(e) = ckpt.flush() {
                tele_warn!(
                    "engine: cannot flush checkpoint {}: {e}",
                    ckpt.path().display()
                );
            }
        }
    }

    /// Convenience: the trace of `profile` at `len` from the shared
    /// cache.
    pub fn trace(&self, profile: &BenchmarkProfile, len: RunLength) -> Arc<TraceBuffer> {
        self.traces.get(profile, len)
    }

    /// Convenience: the extracted `side` stream of `profile` at `len`
    /// from the shared cache.
    pub fn side_trace(
        &self,
        profile: &BenchmarkProfile,
        len: RunLength,
        side: Side,
    ) -> Arc<SideTrace> {
        self.traces.side(profile, len, side)
    }

    /// Runs every job once and returns their results **in input
    /// order**.
    ///
    /// Jobs are pulled from a shared queue by `min(self.jobs, #jobs)`
    /// worker threads; with a budget of 1 the same loop runs inline on
    /// the caller thread. Either way the result vector is positionally
    /// identical, which is what makes experiment output independent of
    /// `--jobs`.
    ///
    /// # Panics
    ///
    /// Each job runs under `catch_unwind`. If one panics, no further
    /// job starts, the attached checkpoint (if any) is flushed, and the
    /// **first** panic's own payload is re-raised.
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: Fn() -> T + Send + Sync,
    {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let run_start = Instant::now();
        let state = RunState {
            jobs: &jobs,
            start: run_start,
            next: AtomicUsize::new(0),
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            fatal: Mutex::new(None),
        };

        let root = recover(self.spans.lock()).reserve();
        let workers = self.jobs.min(n);
        if workers == 1 {
            self.worker_loop(&state, root, 1);
        } else {
            let state = &state;
            thread::scope(|s| {
                for w in 0..workers {
                    let tid = w as u64 + 1;
                    s.spawn(move || self.worker_loop(state, root, tid));
                }
            });
        }
        recover(self.spans.lock()).record(root, None, "engine.run", 0, run_start, Instant::now());

        if let Some(payload) = recover(state.fatal.lock()).take() {
            // Persist whatever completed before surfacing the failure,
            // so a --resume run can skip the finished jobs.
            self.checkpoint_flush();
            panic::resume_unwind(payload);
        }
        state
            .slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .expect("every job stores its result")
            })
            .collect()
    }

    /// [`Engine::run`] with per-job checkpoint identities.
    ///
    /// With no checkpoint attached this is exactly `run`. With one,
    /// each job is addressed as `scope/key`: already-persisted results
    /// are decoded and returned without re-running the job (counted by
    /// [`Engine::checkpoint_hits`]), and fresh results are persisted as
    /// they complete — so killing a sweep and re-running it with
    /// `--resume` replays only the remainder, byte-identically.
    pub fn run_checkpointed<T, F>(&self, scope: &str, jobs: Vec<(String, F)>) -> Vec<T>
    where
        T: Send + Sync + Clone + CheckpointValue,
        F: Fn() -> T + Send + Sync,
    {
        if !self.has_checkpoint() {
            return self.run(jobs.into_iter().map(|(_, f)| f).collect());
        }
        type Job<'a, T> = Box<dyn Fn() -> T + Send + Sync + 'a>;
        let wrapped: Vec<Job<'_, T>> = jobs
            .into_iter()
            .map(|(key, f)| {
                let full = format!("{scope}/{key}");
                let cached: Option<T> = recover(self.checkpoint.lock())
                    .as_ref()
                    .and_then(|c| c.get(&full))
                    .and_then(|encoded| T::decode(&encoded));
                match cached {
                    Some(v) => {
                        self.checkpoint_hits.fetch_add(1, Ordering::Relaxed);
                        Box::new(move || v.clone()) as Job<'_, T>
                    }
                    None => Box::new(move || {
                        let v = f();
                        self.checkpoint_store(&full, &v.encode());
                        v
                    }),
                }
            })
            .collect();
        self.run(wrapped)
    }

    /// Persists one completed job result through the attached
    /// checkpoint. Write errors degrade to warnings — a broken disk
    /// must not fail a sweep that is otherwise succeeding.
    fn checkpoint_store(&self, key: &str, encoded: &str) {
        if let Some(ckpt) = recover(self.checkpoint.lock()).as_mut() {
            if let Err(e) = ckpt.put(key, encoded) {
                tele_warn!("engine: cannot persist checkpoint entry {key}: {e}");
            }
        }
    }

    /// The worker loop: claim the next job, run it under
    /// `catch_unwind`, store its result or record the run's first
    /// panic; exit when the queue is empty or a job has panicked. Each
    /// job is recorded as a `job{i}.wait` span (queued since the run
    /// started) and an `exec` span, both children of `root`.
    fn worker_loop<T, F>(&self, state: &RunState<'_, T, F>, root: SpanId, tid: u64)
    where
        F: Fn() -> T,
    {
        while recover(state.fatal.lock()).is_none() {
            let i = state.next.fetch_add(1, Ordering::Relaxed);
            let Some(job) = state.jobs.get(i) else {
                break;
            };
            let popped = Instant::now();
            let result = panic::catch_unwind(AssertUnwindSafe(job));
            {
                let mut spans = recover(self.spans.lock());
                spans.push(Some(root), format!("job{i}.wait"), tid, state.start, popped);
                spans.push(Some(root), "exec", tid, popped, Instant::now());
            }
            match result {
                Ok(value) => *recover(state.slots[i].lock()) = Some(value),
                Err(payload) => {
                    recover(state.fatal.lock()).get_or_insert(payload);
                }
            }
        }
    }
}

/// The machine's available parallelism (the `--jobs` default).
pub fn default_parallelism() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_gen::profiles;

    #[test]
    fn results_come_back_in_input_order_at_any_width() {
        let inputs: Vec<u64> = (0..64).collect();
        for width in [1usize, 2, 3, 8, 64, 200] {
            let engine = Engine::new(width);
            let jobs: Vec<_> = inputs
                .iter()
                .map(|&i| {
                    move || {
                        // Uneven work so completion order scrambles.
                        let mut acc = i;
                        for _ in 0..(i % 7) * 1000 {
                            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                        }
                        let _ = acc;
                        i * 10
                    }
                })
                .collect();
            let out = engine.run(jobs);
            assert_eq!(
                out,
                inputs.iter().map(|i| i * 10).collect::<Vec<_>>(),
                "width {width}"
            );
        }
    }

    #[test]
    fn zero_jobs_and_empty_queues_are_fine() {
        let engine = Engine::new(0); // clamps to 1
        assert_eq!(engine.jobs(), 1);
        let out: Vec<u32> = engine.run(Vec::<fn() -> u32>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn recover_enters_a_poisoned_mutex() {
        let poisoned: &'static Mutex<u32> = Box::leak(Box::new(Mutex::new(7)));
        let _ = thread::spawn(move || {
            let _guard = poisoned.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(poisoned.lock().is_err(), "mutex must actually be poisoned");
        assert_eq!(*recover(poisoned.lock()), 7);
        *recover(poisoned.lock()) = 8;
        assert_eq!(*recover(poisoned.lock()), 8);
    }

    #[test]
    fn a_threaded_run_spawns_one_thread_per_worker() {
        use std::collections::HashSet;
        use std::sync::Barrier;
        for (width, n) in [(4usize, 4usize), (8, 3), (2, 9)] {
            let workers = width.min(n);
            let engine = Engine::new(width);
            // Every worker must be running at once for the barrier to
            // open, so the jobs see exactly `workers` distinct threads,
            // none of them the caller's.
            let barrier = Barrier::new(workers);
            let ids: Vec<_> = engine.run(
                (0..n)
                    .map(|i| {
                        let barrier = &barrier;
                        move || {
                            if i < workers {
                                barrier.wait();
                            }
                            thread::current().id()
                        }
                    })
                    .collect(),
            );
            let distinct: HashSet<_> = ids.iter().collect();
            assert_eq!(distinct.len(), workers, "width {width}, {n} jobs");
            assert!(!distinct.contains(&thread::current().id()));
            let spans = engine.span_snapshot();
            let tids: HashSet<_> = spans
                .spans()
                .iter()
                .filter(|s| s.name == "exec")
                .map(|s| s.tid)
                .collect();
            assert_eq!(tids, (1..=workers as u64).collect(), "width {width}");
        }
    }

    #[test]
    fn a_panicking_job_runs_once_and_surfaces_its_own_message() {
        for width in [1usize, 4] {
            let engine = Engine::new(width);
            let calls: Vec<AtomicUsize> = (0..6).map(|_| AtomicUsize::new(0)).collect();
            let jobs: Vec<_> = (0..6u64)
                .map(|i| {
                    let calls = &calls;
                    move || {
                        calls[i as usize].fetch_add(1, Ordering::SeqCst);
                        if i == 2 {
                            panic!("job 2 is irreparably broken");
                        }
                        i
                    }
                })
                .collect();
            let err = panic::catch_unwind(AssertUnwindSafe(|| engine.run(jobs)))
                .expect_err("the panic must propagate");
            assert_eq!(
                panic_message(err.as_ref()),
                "job 2 is irreparably broken",
                "width {width}"
            );
            assert_eq!(calls[2].load(Ordering::SeqCst), 1, "width {width}");
            assert!(calls.iter().all(|c| c.load(Ordering::SeqCst) <= 1));
        }
    }

    #[test]
    fn a_checkpointed_run_keeps_every_finished_job_when_one_panics() {
        use crate::checkpoint::CheckpointMeta;
        let path =
            std::env::temp_dir().join(format!("bcache-engine-panic-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let len = RunLength::with_records(1_000);
        let meta = || CheckpointMeta::new("panic-test", len);
        let engine = Engine::new(3);
        engine.attach_checkpoint(Checkpoint::create(&path, meta()).unwrap());
        let calls: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        let jobs: Vec<_> = (0..8u64)
            .map(|i| {
                let calls = &calls;
                (format!("k{i}"), move || {
                    calls[i as usize].fetch_add(1, Ordering::SeqCst);
                    if i == 4 {
                        panic!("shard 4 hit a real bug");
                    }
                    i * 3
                })
            })
            .collect();
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            engine.run_checkpointed::<u64, _>("sweep", jobs)
        }))
        .expect_err("the panic must propagate");
        assert_eq!(panic_message(err.as_ref()), "shard 4 hit a real bug");
        assert_eq!(calls[4].load(Ordering::SeqCst), 1, "no rerun");

        // The flushed checkpoint holds exactly the jobs that finished.
        let saved = Checkpoint::resume(&path, meta()).unwrap();
        for (i, c) in calls.iter().enumerate() {
            let finished = i != 4 && c.load(Ordering::SeqCst) == 1;
            let stored = saved.get(&format!("sweep/k{i}"));
            assert_eq!(stored.is_some(), finished, "job {i}");
            if let Some(v) = stored {
                assert_eq!(u64::decode(&v), Some(i as u64 * 3));
            }
        }
        // Jobs 0..4 were claimed before job 4, and a claimed job runs to
        // the end.
        assert!(saved.len() >= 4, "{} jobs saved", saved.len());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn job_seeds_are_stable_and_distinct_across_a_sweep() {
        use std::collections::HashSet;
        let benchmarks: Vec<String> = profiles::all().iter().map(|p| p.name.to_string()).collect();
        assert_eq!(benchmarks.len(), 26);
        let mut seen = HashSet::new();
        for side in [Side::Instruction, Side::Data] {
            for b in &benchmarks {
                let s = job_seed(1, b, side);
                // Same job, same seed — always.
                assert_eq!(s, job_seed(1, b, side));
                // No two jobs of the sweep share a seed.
                assert!(seen.insert(s), "seed collision for {b}/{side:?}");
            }
        }
        // The base seed takes part in the derivation.
        assert_ne!(
            job_seed(1, "gzip", Side::Data),
            job_seed(2, "gzip", Side::Data)
        );
    }

    #[test]
    fn trace_cache_returns_the_same_buffer_and_counts_entries() {
        let cache = TraceCache::new();
        let p = profiles::by_name("gzip").unwrap();
        let len = RunLength::with_records(1_000);
        let a = cache.get(&p, len);
        let b = cache.get(&p, len);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        assert_eq!(a.len(), 1_000);
        assert_eq!(cache.len(), 1);
        // A different run length is a different entry.
        let c = cache.get(&p, RunLength::with_records(2_000));
        assert_eq!(c.len(), 2_000);
        assert_eq!(cache.len(), 2);
        assert!(TraceCache::new().is_empty());
    }

    #[test]
    fn side_streams_are_cached_and_match_fresh_extraction() {
        use crate::run::SideTrace;
        let cache = TraceCache::new();
        let p = profiles::by_name("gzip").unwrap();
        let len = RunLength::with_records(3_000);
        let a = cache.side(&p, len, Side::Data);
        let b = cache.side(&p, len, Side::Data);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        // Extraction streams from the generator: it does not force the
        // raw records into memory.
        assert_eq!(cache.len(), 0);
        let records = cache.get(&p, len);
        let fresh = SideTrace::extract(records.iter(), Side::Data, len.warmup);
        assert_eq!(*a, fresh);
        // The other side is a distinct entry with a distinct stream.
        let i = cache.side(&p, len, Side::Instruction);
        assert_ne!(*i, *a);
        let c = TraceCache::new().side(&p, len, Side::Data);
        assert!(!Arc::ptr_eq(&a, &c), "a fresh cache extracts again");
        assert_eq!(*a, *c);
    }

    #[test]
    fn declared_uses_release_the_records_after_the_last_get() {
        let cache = TraceCache::new();
        let p = profiles::by_name("gzip").unwrap();
        let len = RunLength::with_records(3_000);
        cache.expect_uses(&p, len, 3);
        assert!(cache.is_empty(), "a declaration alone generates nothing");
        let first = cache.get(&p, len);
        let second = cache.get(&p, len);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.len(), 1);
        let last = cache.get(&p, len);
        assert!(Arc::ptr_eq(&first, &last));
        assert!(cache.is_empty(), "the last declared use drops the entry");
        // Arcs taken before the release still read the full buffer.
        let fresh = Trace::new(&p, len.seed).take_buffer(record_count(len.records));
        assert_eq!(*first, fresh);
        // One request too many regenerates the same records and keeps
        // them with no count.
        let again = cache.get(&p, len);
        assert!(!Arc::ptr_eq(&first, &again));
        assert_eq!(*again, fresh);
        for _ in 0..5 {
            assert!(Arc::ptr_eq(&again, &cache.get(&p, len)));
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache
                .timing_snapshot()
                .timing("phase.trace_gen")
                .unwrap()
                .count,
            2
        );
    }

    #[test]
    fn undeclared_entries_survive_any_number_of_gets() {
        let cache = TraceCache::new();
        let p = profiles::by_name("mcf").unwrap();
        let len = RunLength::with_records(1_000);
        let first = cache.get(&p, len);
        for _ in 0..100 {
            assert!(Arc::ptr_eq(&first, &cache.get(&p, len)));
        }
        assert_eq!(cache.len(), 1);
        // A declaration for another run length leaves this entry alone.
        let other = RunLength::with_records(2_000);
        cache.expect_uses(&p, other, 1);
        cache.get(&p, other);
        assert_eq!(cache.len(), 1);
        assert!(Arc::ptr_eq(&first, &cache.get(&p, len)));
    }

    #[test]
    fn declarations_add_up_and_side_reads_do_not_count() {
        let cache = TraceCache::new();
        let p = profiles::by_name("equake").unwrap();
        let len = RunLength::with_records(2_000);
        cache.expect_uses(&p, len, 1);
        cache.expect_uses(&p, len, 1);
        cache.expect_uses(&p, len, 0);
        let records = cache.get(&p, len);
        // Extraction reads the cached records without using them up.
        cache.side(&p, len, Side::Data);
        assert_eq!(cache.len(), 1);
        assert!(Arc::ptr_eq(&records, &cache.get(&p, len)));
        assert!(cache.is_empty());
    }

    #[test]
    fn timing_snapshot_records_generation_spans() {
        let cache = TraceCache::new();
        let p = profiles::by_name("gzip").unwrap();
        let len = RunLength::with_records(1_000);
        assert!(cache.timing_snapshot().is_empty());
        cache.get(&p, len);
        cache.get(&p, len); // cache hit: no second generation span
        let t = cache.timing_snapshot();
        assert_eq!(t.timing("phase.trace_gen").unwrap().count, 1);
        cache.side(&p, len, Side::Data);
        cache.side(&p, len, Side::Data);
        let t = cache.timing_snapshot();
        assert_eq!(t.timing("phase.trace_extract").unwrap().count, 1);
    }

    #[test]
    fn cached_trace_equals_fresh_generation() {
        let cache = TraceCache::new();
        let p = profiles::by_name("equake").unwrap();
        let len = RunLength::with_records(5_000);
        let cached = cache.get(&p, len);
        let fresh: Vec<trace_gen::TraceRecord> = Trace::new(&p, len.seed)
            .take(record_count(len.records))
            .collect();
        assert!(cached.iter().eq(fresh.iter().copied()));
    }

    #[test]
    fn pool_runs_jobs_that_share_the_trace_cache() {
        let engine = Engine::new(4);
        let p = profiles::by_name("mcf").unwrap();
        let len = RunLength::with_records(2_000);
        let jobs: Vec<_> = (0..8)
            .map(|_| {
                let engine = &engine;
                let p = p.clone();
                move || engine.trace(&p, len).len()
            })
            .collect();
        let out = engine.run(jobs);
        assert!(out.iter().all(|&n| n == 2_000));
        assert_eq!(engine.traces().len(), 1, "all jobs share one cached trace");
    }
}

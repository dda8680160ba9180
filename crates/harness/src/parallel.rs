//! The parallel experiment engine: a supervised scoped-thread job pool,
//! a shared trace cache, and deterministic per-job seed derivation.
//!
//! Every figure and table of the reproduction is a cross-product of
//! (benchmark profile × reference side × cache configuration). The
//! [`Engine`] shards that cross-product into independent jobs, runs
//! them on a pool of scoped worker threads (std-only: no external
//! crates), and hands results back **in input order**, so aggregation
//! is canonical and the output is bit-identical regardless of thread
//! count or scheduling.
//!
//! Three properties make the engine deterministic:
//!
//! 1. **Jobs are pure.** A job reads its inputs (profile, config, run
//!    length) and a shared immutable trace; it never touches mutable
//!    shared state. Purity is also what makes jobs safely *re-runnable*
//!    after a failure.
//! 2. **Seeds are derived, not drawn.** Each job's model seed comes
//!    from [`job_seed`]`(RunLength.seed, benchmark, side)` — a pure
//!    hash of the job's identity — never from a shared RNG or from
//!    scheduling order.
//! 3. **Aggregation is positional.** [`Engine::run`] returns results
//!    in the order jobs were submitted, however they interleaved.
//!
//! On top of the pool sits a **robustness layer**:
//!
//! * every job body runs under `catch_unwind`, so one panicking shard
//!   cannot poison the pool — and every shared mutex is accessed
//!   through a poison-recovering guard, so the *first* failure's
//!   message is the one that surfaces;
//! * failed attempts are retried with deterministic exponential
//!   backoff, bounded by [`RunPolicy::max_attempts`];
//! * a watchdog thread flags jobs that exceed
//!   [`RunPolicy::timeout_ms`] and requests cooperative cancellation
//!   (std threads cannot be killed; genuinely runaway jobs are logged);
//! * a deterministic [`FaultPlan`] (`--inject-fault`) can make chosen
//!   jobs panic, hang, or return corrupt results — the test harness for
//!   all of the above;
//! * completed results can be persisted through an attached
//!   [`Checkpoint`]
//!   ([`Engine::run_checkpointed`]), so an interrupted sweep resumes
//!   byte-identically via `--resume`.
//!
//! Failure accounting lands in a dedicated [`Recorder`] section (every
//! key is prefixed `engine.`) and as typed
//! [`Event::JobFailure`](telemetry::Event) records, so a degraded run
//! is visible in `run`/`stats` reports without perturbing the
//! deterministic simulation counters of a fault-free run.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, LockResult, Mutex, MutexGuard, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use telemetry::{tele_info, tele_warn, Event, EventRing, FailureKind, Recorder, SpanId, SpanLog};
use trace_gen::{BenchmarkProfile, Trace, TraceBuffer};

use crate::checkpoint::{Checkpoint, CheckpointValue};
use crate::run::{record_count, RunLength, Side, SideTrace};

/// Capacity of the engine's failure-event ring: far above any plausible
/// retry volume, still bounded.
const FAULT_EVENT_CAPACITY: usize = 1024;

/// Locks a mutex, recovering from poisoning.
///
/// Every engine mutex only guards data that stays consistent across a
/// panic (memoization maps, result slots written in one assignment,
/// append-only recorders), so a poisoned lock is safe to enter. Using
/// this instead of `.expect("… lock")` means a panicking job surfaces
/// *its own* message rather than cascading "lock poisoned" panics
/// through every other worker.
fn recover<T>(result: LockResult<MutexGuard<'_, T>>) -> MutexGuard<'_, T> {
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
/// with no declared count (or a request after the count ran out, such as
/// a retried job, which regenerates the same bytes) stays cached until
/// the cache is dropped. Side streams are always kept: sweeps read them
/// back long after extraction.
///
/// All lock accesses recover from poisoning: if a generation panics,
/// its `OnceLock` cell stays uninitialized (retryable) and concurrent
/// readers keep working instead of cascading the panic.
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

/// Retry/backoff/timeout policy of [`Engine::run`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RunPolicy {
    /// Total attempts per job (first try + retries), minimum 1.
    /// `--retries N` maps to `N + 1`.
    pub max_attempts: u32,
    /// Base backoff before retry `k` (1-based): `backoff_ms << (k-1)`
    /// milliseconds, shift capped at 6. Deterministic by construction —
    /// the delay schedule depends only on the attempt number.
    pub backoff_ms: u64,
    /// Per-job wall-clock budget enforced by the watchdog. Injected
    /// hangs honor it cooperatively; a genuinely runaway job can only
    /// be flagged (std threads are not cancellable).
    pub timeout_ms: u64,
}

impl Default for RunPolicy {
    fn default() -> Self {
        RunPolicy {
            max_attempts: 3,
            backoff_ms: 25,
            timeout_ms: 60_000,
        }
    }
}

impl RunPolicy {
    /// A policy with no retries — the fuzz driver uses it because a
    /// panic in a fuzz case is a finding, not a transient fault.
    pub fn fail_fast() -> Self {
        RunPolicy {
            max_attempts: 1,
            ..RunPolicy::default()
        }
    }

    /// The backoff delay before retry attempt `attempt` (1-based).
    fn backoff(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(6);
        Duration::from_millis(self.backoff_ms.saturating_mul(1 << shift))
    }
}

/// How an injected fault manifests.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultMode {
    /// The job attempt fails as if its body panicked.
    Panic,
    /// The job attempt blocks until cancelled by the watchdog or the
    /// per-job timeout elapses, then fails as a timeout.
    Hang,
    /// The job attempt runs to completion but its result is discarded
    /// as corrupt.
    Corrupt,
}

/// One deterministic fault injection: job ordinal `job` fails with
/// `mode` on its first `times` attempts (so the default `times = 1`
/// fails once and recovers on retry).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Global job ordinal to hit (submission order across the engine's
    /// lifetime — independent of `--jobs`).
    pub job: u64,
    /// How the attempt fails.
    pub mode: FaultMode,
    /// Number of leading attempts to fail.
    pub times: u32,
}

impl FaultSpec {
    /// Parses a `--inject-fault` spec:
    /// `job=K,mode=panic|hang|corrupt[,times=N]`.
    pub fn parse(spec: &str) -> Result<FaultSpec, String> {
        let mut job = None;
        let mut mode = None;
        let mut times = 1u32;
        for clause in spec.split(',') {
            let (key, value) = clause.split_once('=').ok_or_else(|| {
                format!("--inject-fault: malformed clause {clause:?} (want key=value)")
            })?;
            match key.trim() {
                "job" => {
                    job = Some(value.trim().parse::<u64>().map_err(|_| {
                        format!("--inject-fault: job wants an integer, got {value:?}")
                    })?)
                }
                "mode" => {
                    mode = Some(match value.trim() {
                        "panic" => FaultMode::Panic,
                        "hang" => FaultMode::Hang,
                        "corrupt" => FaultMode::Corrupt,
                        other => {
                            return Err(format!(
                                "--inject-fault: unknown mode {other:?} (panic|hang|corrupt)"
                            ))
                        }
                    })
                }
                "times" => {
                    times = value.trim().parse().map_err(|_| {
                        format!("--inject-fault: times wants an integer, got {value:?}")
                    })?
                }
                other => return Err(format!("--inject-fault: unknown key {other:?}")),
            }
        }
        Ok(FaultSpec {
            job: job.ok_or("--inject-fault needs job=K")?,
            mode: mode.ok_or("--inject-fault needs mode=panic|hang|corrupt")?,
            times,
        })
    }
}

/// The set of injected faults an engine consults before each attempt.
/// Empty by default; pure — whether `(ordinal, attempt)` is faulted can
/// never depend on scheduling.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan injecting `specs`.
    pub fn new(specs: Vec<FaultSpec>) -> Self {
        FaultPlan { specs }
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The fault (if any) for attempt `attempt` of job `ordinal`.
    fn fault_for(&self, ordinal: u64, attempt: u32) -> Option<FaultMode> {
        self.specs
            .iter()
            .find(|s| s.job == ordinal && attempt < s.times)
            .map(|s| s.mode)
    }
}

/// One failed job attempt, as the supervisor recorded it.
struct JobError {
    kind: FailureKind,
    message: String,
    /// The original panic payload, when the failure was a real panic —
    /// re-raised verbatim if the job fails permanently so callers see
    /// the first failure's message.
    payload: Option<Box<dyn Any + Send>>,
}

/// Shared state of one [`Engine::run`] invocation.
struct RunState<'a, T, F> {
    jobs: &'a [F],
    /// Global ordinal of job index 0 in this batch.
    base: u64,
    /// Pending `(job index, attempt, enqueue instant)` work items; the
    /// instant feeds the queue-wait span.
    queue: Mutex<VecDeque<(usize, u32, Instant)>>,
    /// Positional result slots.
    slots: Vec<Mutex<Option<T>>>,
    /// Jobs not yet finished (successfully or permanently).
    remaining: AtomicUsize,
    /// First permanent failure; set once, stops the pool.
    fatal: Mutex<Option<JobError>>,
    /// Per-job cooperative cancellation tokens (watchdog → job).
    cancel: Vec<AtomicBool>,
    /// Per-job start instants of the attempt in flight (for the
    /// watchdog), `None` when the job is not running.
    started: Vec<Mutex<Option<Instant>>>,
}

/// The parallel experiment engine: a supervised worker pool plus a
/// [`TraceCache`].
#[derive(Debug)]
pub struct Engine {
    jobs: usize,
    traces: TraceCache,
    policy: RunPolicy,
    faults: FaultPlan,
    /// Jobs ever submitted — the source of global job ordinals, which
    /// is what fault specs and checkpoint keys address.
    submitted: AtomicU64,
    /// Failure accounting (`engine.*` counters). Empty on a fault-free
    /// run, so merging it cannot perturb golden metrics.
    failures: Mutex<Recorder>,
    /// Typed failure events (bounded ring).
    fault_events: Mutex<EventRing>,
    /// Optional checkpoint store for [`Engine::run_checkpointed`].
    checkpoint: Mutex<Option<Checkpoint>>,
    /// Hierarchical wall-clock spans of every `run` (queue wait,
    /// backoff, execution, watchdog) — the Chrome-trace substrate.
    /// Wall-clock, hence excluded from golden comparisons.
    spans: Mutex<SpanLog>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::with_default_parallelism()
    }
}

impl Engine {
    /// Creates an engine running at most `jobs` worker threads
    /// (clamped to at least 1) under the default [`RunPolicy`].
    pub fn new(jobs: usize) -> Self {
        Engine {
            jobs: jobs.max(1),
            traces: TraceCache::new(),
            policy: RunPolicy::default(),
            faults: FaultPlan::default(),
            submitted: AtomicU64::new(0),
            failures: Mutex::new(Recorder::new()),
            fault_events: Mutex::new(EventRing::new(FAULT_EVENT_CAPACITY)),
            checkpoint: Mutex::new(None),
            spans: Mutex::new(SpanLog::new()),
        }
    }

    /// Creates an engine sized to the machine
    /// ([`std::thread::available_parallelism`]).
    pub fn with_default_parallelism() -> Self {
        Engine::new(default_parallelism())
    }

    /// Replaces the retry/backoff/timeout policy.
    pub fn with_policy(mut self, policy: RunPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The worker-thread budget.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The active retry/backoff/timeout policy.
    pub fn policy(&self) -> RunPolicy {
        self.policy
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

    /// A snapshot of the failure accounting: `engine.job_failures`,
    /// `engine.job_retries`, `engine.job_panics`,
    /// `engine.job_timeouts`, `engine.job_corrupt_results`,
    /// `engine.jobs_recovered`, `engine.jobs_failed_permanently`, and
    /// `engine.checkpoint_hits`. Empty for a clean run.
    pub fn failure_snapshot(&self) -> Recorder {
        recover(self.failures.lock()).clone()
    }

    /// A snapshot of the typed failure events.
    pub fn fault_events_snapshot(&self) -> EventRing {
        recover(self.fault_events.lock()).clone()
    }

    /// A snapshot of the hierarchical engine spans recorded so far:
    /// one `engine.run` root per [`Engine::run`] batch, with per-job
    /// queue-wait, attempt, backoff, and execution children, plus a
    /// watchdog span on threaded runs. Wall-clock data — feed it to
    /// [`telemetry::chrome_trace_json`], never to golden comparisons.
    pub fn span_snapshot(&self) -> SpanLog {
        recover(self.spans.lock()).clone()
    }

    /// Whether any job attempt has failed on this engine.
    pub fn degraded(&self) -> bool {
        self.failure_snapshot().counter_value("engine.job_failures") > 0
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

    /// Runs every job and returns their results **in input order**.
    ///
    /// Jobs are pulled from a shared queue by `min(self.jobs, #jobs)`
    /// supervised workers; with a budget of 1 the same supervised loop
    /// runs inline on the caller thread. Either way the result vector
    /// is positionally identical, which is what makes experiment output
    /// independent of `--jobs`.
    ///
    /// Each attempt runs under `catch_unwind`; a failed attempt
    /// (panic, timeout, injected fault) is retried with deterministic
    /// backoff up to [`RunPolicy::max_attempts`]. Jobs must therefore
    /// be `Fn` (re-callable) and pure — retrying a pure job is
    /// observationally identical to it having succeeded the first time,
    /// so `--jobs N` and fault injection can never change a number.
    ///
    /// # Panics
    ///
    /// If a job exhausts its attempts, the attached checkpoint (if
    /// any) is flushed and the **first** permanent failure is re-raised
    /// — the original panic payload when there is one.
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: Fn() -> T + Send + Sync,
    {
        let n = jobs.len();
        let base = self.submitted.fetch_add(n as u64, Ordering::Relaxed);
        if n == 0 {
            return Vec::new();
        }
        let run_start = Instant::now();
        let state = RunState {
            jobs: &jobs,
            base,
            queue: Mutex::new((0..n).map(|i| (i, 0, run_start)).collect()),
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            remaining: AtomicUsize::new(n),
            fatal: Mutex::new(None),
            cancel: (0..n).map(|_| AtomicBool::new(false)).collect(),
            started: (0..n).map(|_| Mutex::new(None)).collect(),
        };

        let root = recover(self.spans.lock()).reserve();
        let workers = self.jobs.min(n);
        if workers <= 1 {
            // Inline supervised path: same loop, no threads. Injected
            // hangs still time out (they watch their own deadline), so
            // no watchdog is needed.
            self.worker_loop(&state, root, 1);
        } else {
            let state = &state;
            thread::scope(|s| {
                for w in 0..workers {
                    let tid = w as u64 + 1;
                    s.spawn(move || self.worker_loop(state, root, tid));
                }
                s.spawn(move || self.watchdog(state, root));
            });
        }
        recover(self.spans.lock()).record(root, None, "engine.run", 0, run_start, Instant::now());

        if let Some(err) = recover(state.fatal.lock()).take() {
            // Persist whatever completed before surfacing the failure,
            // so a --resume run can skip the finished jobs.
            self.checkpoint_flush();
            match err.payload {
                Some(payload) => panic::resume_unwind(payload),
                None => panic!("{}", err.message),
            }
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
    /// are decoded and returned without re-running the job (counted as
    /// `engine.checkpoint_hits`), and fresh results are persisted as
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
                        recover(self.failures.lock()).counter("engine.checkpoint_hits", 1);
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

    /// The supervised worker loop: pop, back off on retries, execute
    /// under `catch_unwind`, account failures, requeue or go fatal.
    /// Every attempt is recorded as a `job{i}.a{attempt}` span (child
    /// of `root`) with `backoff`/`exec` children, preceded by a
    /// `job{i}.wait` span covering the time spent queued.
    fn worker_loop<T, F>(&self, state: &RunState<'_, T, F>, root: SpanId, tid: u64)
    where
        T: Send,
        F: Fn() -> T + Send + Sync,
    {
        let max_attempts = self.policy.max_attempts.max(1);
        loop {
            if recover(state.fatal.lock()).is_some() {
                break;
            }
            let next = recover(state.queue.lock()).pop_front();
            let Some((i, attempt, queued)) = next else {
                if state.remaining.load(Ordering::Acquire) == 0 {
                    break;
                }
                // Jobs are in flight elsewhere and may requeue; yield.
                thread::sleep(Duration::from_millis(1));
                continue;
            };
            let popped = Instant::now();
            let umbrella = {
                let mut spans = recover(self.spans.lock());
                spans.push(Some(root), format!("job{i}.wait"), tid, queued, popped);
                spans.reserve()
            };
            if attempt > 0 {
                let backoff_start = Instant::now();
                thread::sleep(self.policy.backoff(attempt));
                recover(self.spans.lock()).push(
                    Some(umbrella),
                    "backoff",
                    tid,
                    backoff_start,
                    Instant::now(),
                );
            }
            let ordinal = state.base + i as u64;
            state.cancel[i].store(false, Ordering::Release);
            let exec_start = Instant::now();
            *recover(state.started[i].lock()) = Some(exec_start);
            let result = self.execute_one(&state.jobs[i], ordinal, attempt, &state.cancel[i]);
            *recover(state.started[i].lock()) = None;
            {
                let end = Instant::now();
                let mut spans = recover(self.spans.lock());
                spans.push(Some(umbrella), "exec", tid, exec_start, end);
                spans.record(
                    umbrella,
                    Some(root),
                    format!("job{i}.a{attempt}"),
                    tid,
                    popped,
                    end,
                );
            }
            match result {
                Ok(value) => {
                    *recover(state.slots[i].lock()) = Some(value);
                    if attempt > 0 {
                        recover(self.failures.lock()).counter("engine.jobs_recovered", 1);
                        tele_info!("engine: job {ordinal} recovered on attempt {}", attempt + 1);
                    }
                    state.remaining.fetch_sub(1, Ordering::AcqRel);
                }
                Err(err) => {
                    let will_retry = attempt + 1 < max_attempts;
                    self.note_failure(ordinal, attempt, &err, will_retry);
                    if will_retry {
                        recover(state.queue.lock()).push_back((i, attempt + 1, Instant::now()));
                    } else {
                        let mut fatal = recover(state.fatal.lock());
                        if fatal.is_none() {
                            *fatal = Some(err);
                        }
                        drop(fatal);
                        state.remaining.fetch_sub(1, Ordering::AcqRel);
                    }
                }
            }
        }
    }

    /// Runs one attempt of one job, consulting the fault plan first.
    fn execute_one<T, F>(
        &self,
        job: &F,
        ordinal: u64,
        attempt: u32,
        cancel: &AtomicBool,
    ) -> Result<T, JobError>
    where
        F: Fn() -> T,
    {
        match self.faults.fault_for(ordinal, attempt) {
            Some(FaultMode::Panic) => Err(JobError {
                kind: FailureKind::Panic,
                message: format!("injected panic (job {ordinal}, attempt {attempt})"),
                payload: None,
            }),
            Some(FaultMode::Hang) => {
                // Cooperative hang: honors the watchdog's cancel token
                // and its own deadline, whichever fires first — so the
                // inline (single-worker) path times out too.
                let start = Instant::now();
                let timeout = Duration::from_millis(self.policy.timeout_ms);
                while !cancel.load(Ordering::Acquire) && start.elapsed() < timeout {
                    thread::sleep(Duration::from_millis(1));
                }
                Err(JobError {
                    kind: FailureKind::Timeout,
                    message: format!(
                        "job {ordinal} timed out after {} ms (attempt {attempt})",
                        self.policy.timeout_ms
                    ),
                    payload: None,
                })
            }
            Some(FaultMode::Corrupt) => {
                // Run the real job so the fault costs what a genuine
                // corrupt result would, then reject its output.
                let _ = panic::catch_unwind(AssertUnwindSafe(job));
                Err(JobError {
                    kind: FailureKind::Corrupt,
                    message: format!("injected corrupt result (job {ordinal}, attempt {attempt})"),
                    payload: None,
                })
            }
            None => panic::catch_unwind(AssertUnwindSafe(job)).map_err(|payload| {
                let message = panic_message(payload.as_ref());
                JobError {
                    kind: FailureKind::Panic,
                    message: format!("job {ordinal} panicked (attempt {attempt}): {message}"),
                    payload: Some(payload),
                }
            }),
        }
    }

    /// Accounts one failed attempt: counters, typed event, log line.
    fn note_failure(&self, ordinal: u64, attempt: u32, err: &JobError, will_retry: bool) {
        {
            let mut failures = recover(self.failures.lock());
            failures.counter("engine.job_failures", 1);
            failures.counter(
                match err.kind {
                    FailureKind::Panic => "engine.job_panics",
                    FailureKind::Timeout => "engine.job_timeouts",
                    FailureKind::Corrupt => "engine.job_corrupt_results",
                },
                1,
            );
            if will_retry {
                failures.counter("engine.job_retries", 1);
            } else {
                failures.counter("engine.jobs_failed_permanently", 1);
            }
        }
        recover(self.fault_events.lock()).push(Event::JobFailure {
            job: ordinal,
            attempt,
            kind: err.kind,
        });
        if will_retry {
            tele_warn!(
                "engine: job {ordinal} failed (attempt {}): {}; retrying",
                attempt + 1,
                err.message
            );
        } else {
            tele_warn!(
                "engine: job {ordinal} failed permanently after {} attempt(s): {}",
                attempt + 1,
                err.message
            );
        }
    }

    /// The timeout watchdog: flags overdue jobs and requests their
    /// cooperative cancellation. Runs alongside the workers and exits
    /// with them.
    fn watchdog<T, F>(&self, state: &RunState<'_, T, F>, root: SpanId) {
        let timeout = Duration::from_millis(self.policy.timeout_ms);
        let watchdog_start = Instant::now();
        while state.remaining.load(Ordering::Acquire) > 0 && recover(state.fatal.lock()).is_none() {
            for i in 0..state.started.len() {
                let overdue =
                    recover(state.started[i].lock()).is_some_and(|t| t.elapsed() >= timeout);
                if overdue && !state.cancel[i].swap(true, Ordering::AcqRel) {
                    tele_warn!(
                        "engine: job {} exceeded {} ms; requesting cancellation",
                        state.base + i as u64,
                        self.policy.timeout_ms
                    );
                }
            }
            thread::sleep(Duration::from_millis(5));
        }
        recover(self.spans.lock()).push(Some(root), "watchdog", 0, watchdog_start, Instant::now());
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

    /// A fast policy for tests: millisecond backoff, short timeout.
    fn quick_policy() -> RunPolicy {
        RunPolicy {
            max_attempts: 3,
            backoff_ms: 1,
            timeout_ms: 100,
        }
    }

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
    fn panicking_job_is_retried_and_recovers() {
        use std::sync::atomic::AtomicU32;
        for width in [1usize, 4] {
            let engine = Engine::new(width).with_policy(quick_policy());
            let boom = AtomicU32::new(0);
            let jobs: Vec<Box<dyn Fn() -> u64 + Send + Sync + '_>> = (0..8u64)
                .map(|i| {
                    let boom = &boom;
                    Box::new(move || {
                        if i == 3 && boom.fetch_add(1, Ordering::SeqCst) == 0 {
                            panic!("transient failure in job 3");
                        }
                        i * 2
                    }) as Box<dyn Fn() -> u64 + Send + Sync + '_>
                })
                .collect();
            let out = engine.run(jobs);
            assert_eq!(out, (0..8u64).map(|i| i * 2).collect::<Vec<_>>());
            let f = engine.failure_snapshot();
            assert_eq!(f.counter_value("engine.job_failures"), 1, "width {width}");
            assert_eq!(f.counter_value("engine.job_panics"), 1);
            assert_eq!(f.counter_value("engine.job_retries"), 1);
            assert_eq!(f.counter_value("engine.jobs_recovered"), 1);
            assert_eq!(f.counter_value("engine.jobs_failed_permanently"), 0);
            assert!(engine.degraded());
            let events = engine.fault_events_snapshot();
            assert_eq!(events.pushed(), 1);
            assert!(events.to_jsonl().contains("\"kind\": \"panic\""));
        }
    }

    #[test]
    fn permanent_failure_surfaces_the_first_panic_message() {
        let engine = Engine::new(4).with_policy(quick_policy());
        let jobs: Vec<Box<dyn Fn() -> u64 + Send + Sync>> = (0..6u64)
            .map(|i| {
                Box::new(move || {
                    if i == 2 {
                        panic!("job 2 is irreparably broken");
                    }
                    i
                }) as Box<dyn Fn() -> u64 + Send + Sync>
            })
            .collect();
        let err = panic::catch_unwind(AssertUnwindSafe(|| engine.run(jobs)))
            .expect_err("the permanent failure must propagate");
        assert!(
            panic_message(err.as_ref()).contains("job 2 is irreparably broken"),
            "the ORIGINAL message must survive, got: {}",
            panic_message(err.as_ref())
        );
        let f = engine.failure_snapshot();
        assert_eq!(f.counter_value("engine.jobs_failed_permanently"), 1);
        assert_eq!(f.counter_value("engine.job_failures"), 3, "3 attempts");
    }

    #[test]
    fn injected_hang_is_timeout_killed_and_recovers() {
        for width in [1usize, 4] {
            let engine = Engine::new(width)
                .with_policy(RunPolicy {
                    max_attempts: 2,
                    backoff_ms: 1,
                    timeout_ms: 40,
                })
                .with_faults(FaultPlan::new(vec![FaultSpec {
                    job: 2,
                    mode: FaultMode::Hang,
                    times: 1,
                }]));
            let start = Instant::now();
            let out = engine.run((0..5u64).map(|i| move || i + 100).collect::<Vec<_>>());
            assert_eq!(out, vec![100, 101, 102, 103, 104], "width {width}");
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "hang must be bounded by the timeout"
            );
            let f = engine.failure_snapshot();
            assert_eq!(f.counter_value("engine.job_timeouts"), 1, "width {width}");
            assert_eq!(f.counter_value("engine.jobs_recovered"), 1);
        }
    }

    #[test]
    fn injected_corrupt_result_is_rejected_and_retried() {
        let engine = Engine::new(2)
            .with_policy(quick_policy())
            .with_faults(FaultPlan::new(vec![FaultSpec {
                job: 1,
                mode: FaultMode::Corrupt,
                times: 1,
            }]));
        let out = engine.run((0..4u64).map(|i| move || i).collect::<Vec<_>>());
        assert_eq!(out, vec![0, 1, 2, 3]);
        let f = engine.failure_snapshot();
        assert_eq!(f.counter_value("engine.job_corrupt_results"), 1);
        assert_eq!(f.counter_value("engine.jobs_recovered"), 1);
    }

    #[test]
    fn fault_ordinals_are_global_across_batches() {
        // The second batch's first job has ordinal 3, not 0.
        let engine = Engine::new(2)
            .with_policy(quick_policy())
            .with_faults(FaultPlan::new(vec![FaultSpec {
                job: 3,
                mode: FaultMode::Panic,
                times: 1,
            }]));
        assert_eq!(engine.run(vec![|| 1u32, || 2, || 3]), vec![1, 2, 3]);
        assert!(!engine.degraded(), "batch one is ordinals 0..3, unfaulted");
        assert_eq!(engine.run(vec![|| 4u32, || 5]), vec![4, 5]);
        assert_eq!(
            engine.failure_snapshot().counter_value("engine.job_panics"),
            1,
            "ordinal 3 is batch two's first job"
        );
    }

    #[test]
    fn fault_spec_parsing() {
        assert_eq!(
            FaultSpec::parse("job=3,mode=panic").unwrap(),
            FaultSpec {
                job: 3,
                mode: FaultMode::Panic,
                times: 1
            }
        );
        assert_eq!(
            FaultSpec::parse("job=0,mode=hang,times=2").unwrap(),
            FaultSpec {
                job: 0,
                mode: FaultMode::Hang,
                times: 2
            }
        );
        assert_eq!(
            FaultSpec::parse("mode=corrupt,job=9").unwrap().mode,
            FaultMode::Corrupt
        );
        for bad in [
            "job=1",
            "mode=panic",
            "job=x,mode=panic",
            "job=1,mode=explode",
            "job=1,mode=panic,times=lots",
            "job=1,frequency=2,mode=panic",
            "nonsense",
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "{bad:?} must be rejected");
        }
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

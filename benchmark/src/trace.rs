//! The benchmark's own span log: spans around the calls it makes into
//! each layer, kept in memory and written as a Perfetto trace when a
//! traced run ends.
//!
//! An untraced run passes `None` everywhere and only reads the clock, so
//! the end-to-end numbers carry no tracing cost.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use telemetry::{SpanId, SpanLog};

/// Logical thread (Perfetto lane) of the benchmark's main thread, clear
/// of the lanes the engine numbers its workers and watchdog with.
pub const MAIN_TID: u64 = 100;

/// An in-memory span log shared by the benchmark's threads.
#[derive(Debug, Default)]
pub struct Tracer {
    log: Mutex<SpanLog>,
}

impl Tracer {
    /// An empty log whose zero point is now.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    fn log(&self) -> std::sync::MutexGuard<'_, SpanLog> {
        self.log.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records an already timed interval under `parent`.
    pub fn record(
        &self,
        parent: Option<SpanId>,
        name: &str,
        tid: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.log().push(parent, name, tid, start, end)
    }

    /// Merges a span log recorded by the program itself (the engine's
    /// job spans) into this one.
    pub fn merge(&self, other: &SpanLog) {
        self.log().merge(other);
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> SpanLog {
        self.log().clone()
    }
}

/// Runs `f`, timing it; when `tracer` is set, records the call as span
/// `name()` under `parent` and hands `f` the span's id so nested calls
/// can hang below it.
pub fn timed<T>(
    tracer: Option<&Tracer>,
    parent: Option<SpanId>,
    name: impl FnOnce() -> String,
    f: impl FnOnce(Option<SpanId>) -> T,
) -> (T, Duration) {
    let id = tracer.map(|t| t.log().reserve());
    let start = Instant::now();
    let value = f(id);
    let end = Instant::now();
    if let (Some(t), Some(id)) = (tracer, id) {
        t.log().record(id, parent, name(), MAIN_TID, start, end);
    }
    (value, end - start)
}

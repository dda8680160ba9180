//! Command-line plumbing for the telemetry subsystem: the shared
//! `--metrics <path>` / `--trace-events <path>` destinations (parsed by
//! [`crate::cli`]), metric-file writers, and [`record_model`], which
//! lands one model's aggregates (and its per-set usage histogram) in a
//! recorder for `run`, `stats` and `profile`.

use std::io;

use telemetry::{EventRing, Recorder};

/// The telemetry output destinations requested on the command line.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetryFlags {
    /// `--metrics <path>`: write the merged [`Recorder`] as JSON.
    pub metrics: Option<String>,
    /// `--trace-events <path>`: write an [`EventRing`] as JSON Lines.
    pub trace_events: Option<String>,
}

impl TelemetryFlags {
    /// Whether any telemetry output was requested.
    pub fn any(&self) -> bool {
        self.metrics.is_some() || self.trace_events.is_some()
    }
}

/// Writes `rec` to `path` as JSON. `include_timing` controls whether
/// the wall-clock `timing` section (non-deterministic by nature) is
/// part of the file; the determinism golden test writes without it.
pub fn write_metrics(path: &str, rec: &Recorder, include_timing: bool) -> io::Result<()> {
    std::fs::write(path, rec.to_json(include_timing))
}

/// Writes `ring` to `path` as JSON Lines (header line with
/// capacity/pushed/dropped, then one event object per line).
pub fn write_events(path: &str, ring: &EventRing) -> io::Result<()> {
    std::fs::write(path, ring.to_jsonl())
}

/// Records one model's post-replay aggregates into `rec` under
/// `prefix`: access/miss/writeback counters plus the log2 histogram of
/// per-set access counts — the set-pressure distribution behind the
/// paper's balance argument (Table 7): a direct-mapped cache shows a
/// wide spread (hot sets many buckets above cold ones), a balanced
/// cache concentrates every set into a few adjacent buckets.
pub fn record_model(rec: &mut Recorder, prefix: &str, model: &dyn cache_sim::CacheModel) {
    let total = model.stats().total();
    rec.counter(&format!("{prefix}.accesses"), total.accesses());
    rec.counter(&format!("{prefix}.misses"), total.misses());
    rec.counter(&format!("{prefix}.writebacks"), model.stats().writebacks());
    let usage = model.set_usage();
    for set in 0..usage.sets() {
        rec.observe(&format!("{prefix}.set_accesses"), usage.accesses(set));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_model_writes_counters_and_histogram() {
        use cache_sim::{AccessKind, Addr, CacheModel, DirectMappedCache};
        use telemetry::Histogram;
        let mut dm = DirectMappedCache::new(256, 32).unwrap();
        dm.access(Addr::new(0), AccessKind::Write);
        for _ in 0..9 {
            dm.access(Addr::new(0), AccessKind::Read); // set 0: 10 accesses
        }
        dm.access(Addr::new(32), AccessKind::Read); // set 1: 1 access
        let mut rec = Recorder::new();
        record_model(&mut rec, "dm", &dm);
        assert_eq!(rec.counter_value("dm.accesses"), 11);
        assert_eq!(rec.counter_value("dm.misses"), 2);
        let h = rec.histogram("dm.set_accesses").unwrap();
        assert_eq!(h.count(), 8, "one sample per set");
        assert_eq!(h.bucket(Histogram::bucket_index(10)), 1);
        assert_eq!(h.bucket(1), 1); // the single-access set
        assert_eq!(h.bucket(0), 6); // six untouched sets
    }
}

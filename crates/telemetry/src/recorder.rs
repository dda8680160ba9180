//! The per-shard [`Recorder`]: counters, log2 [`Histogram`]s, and
//! monotonic span timers, with a deterministic merge and JSON rendering.
//!
//! Determinism contract: counters and histograms are pure functions of
//! the recorded values, stored and rendered in `BTreeMap` (name) order,
//! so merging the per-shard recorders of a parallel run **in input
//! order** yields byte-identical JSON for any worker count. Span
//! timings are wall-clock and therefore non-deterministic; they live in
//! a separate `timing` section that [`Recorder::to_json`] can exclude.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Number of log2 buckets: one for zero plus one per bit of a `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A `u64` histogram with log2 buckets.
///
/// Bucket 0 holds exactly the value `0`; bucket `k >= 1` holds the
/// values in `[2^(k-1), 2^k - 1]` (bucket 64 therefore ends at
/// [`u64::MAX`]). The bucket index of `v` is the position of its
/// highest set bit plus one — `64 - v.leading_zeros()`.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The log2 bucket index of `v` (see the type docs for the ranges).
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// The inclusive `[lo, hi]` value range of bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= HISTOGRAM_BUCKETS`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < HISTOGRAM_BUCKETS, "bucket {i} out of range");
        match i {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            _ => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Human-readable label of bucket `i` (`"0"`, `"1"`, `"2-3"`, …).
    pub fn bucket_label(i: usize) -> String {
        let (lo, hi) = Self::bucket_bounds(i);
        if lo == hi {
            format!("{lo}")
        } else {
            format!("{lo}-{hi}")
        }
    }

    /// Records one observation of `v`.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Observations landing in bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Whether no value has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Adds every observation of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`, clamped) from the log2
    /// buckets: the upper bound of the bucket holding the rank-`⌈q·n⌉`
    /// observation. An upper bound — not an interpolation — so the
    /// estimate is deterministic and never understates the tail.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.nonzero_buckets() {
            seen += c;
            if seen >= rank {
                return Self::bucket_bounds(i).1;
            }
        }
        Self::bucket_bounds(HISTOGRAM_BUCKETS - 1).1
    }

    /// One-line p50/p95/p99 summary (log2-bucket upper bounds), e.g.
    /// `"n=512 p50≤32 p95≤255 p99≤511"`. Empty histograms summarize as
    /// `"n=0"`.
    pub fn summary(&self) -> String {
        if self.count == 0 {
            return "n=0".to_string();
        }
        format!(
            "n={} p50≤{} p95≤{} p99≤{}",
            self.count,
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
        )
    }

    /// The non-empty buckets as `(index, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Renders the histogram as an ASCII bar chart, one non-empty
    /// bucket per line, bars scaled to `width` characters.
    pub fn render_ascii(&self, width: usize) -> String {
        let max = self.buckets.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return "    (empty)\n".to_string();
        }
        let mut out = String::new();
        let label_width = self
            .nonzero_buckets()
            .map(|(i, _)| Self::bucket_label(i).len())
            .max()
            .unwrap_or(1);
        for (i, c) in self.nonzero_buckets() {
            let bar = (c as u128 * width as u128 / max as u128) as usize;
            writeln!(
                out,
                "    {:>label_width$} | {:>8} {}",
                Self::bucket_label(i),
                c,
                "#".repeat(bar.max(1)),
            )
            .expect("writing to a String cannot fail");
        }
        out
    }

    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"count\": {}, \"sum\": {}, \"buckets\": {{",
            self.count, self.sum
        );
        for (n, (i, c)) in self.nonzero_buckets().enumerate() {
            if n > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {c}", Self::bucket_label(i));
        }
        out.push_str("}}");
        out
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("nonzero", &self.nonzero_buckets().collect::<Vec<_>>())
            .finish()
    }
}

/// Accumulated wall-clock time of one named span.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Number of completed spans.
    pub count: u64,
    /// Total elapsed nanoseconds across all completed spans.
    pub total_nanos: u128,
}

/// A started monotonic span timer; stop it into a [`Recorder`].
///
/// ```
/// use telemetry::{Recorder, SpanTimer};
/// let mut rec = Recorder::new();
/// let t = SpanTimer::start("phase.replay");
/// // ... work ...
/// t.stop(&mut rec);
/// assert_eq!(rec.timing("phase.replay").unwrap().count, 1);
/// ```
#[derive(Debug)]
pub struct SpanTimer {
    name: String,
    start: Instant,
}

impl SpanTimer {
    /// Starts timing a span called `name`.
    pub fn start(name: impl Into<String>) -> Self {
        SpanTimer {
            name: name.into(),
            start: Instant::now(),
        }
    }

    /// Stops the span and records its elapsed time into `rec`.
    pub fn stop(self, rec: &mut Recorder) {
        let elapsed = self.start.elapsed();
        rec.record_span(&self.name, elapsed);
    }
}

/// A per-shard telemetry recorder.
///
/// Counters and histograms are the deterministic section; span timings
/// are wall-clock and kept apart. See the module docs for the merge
/// contract.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Recorder {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    timings: BTreeMap<String, SpanStats>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter called `name`.
    pub fn counter(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Records `v` into the histogram called `name`.
    pub fn observe(&mut self, name: &str, v: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(v);
    }

    /// Records a completed span of `elapsed` under `name`.
    pub fn record_span(&mut self, name: &str, elapsed: Duration) {
        let s = self.timings.entry(name.to_string()).or_default();
        s.count += 1;
        s.total_nanos += elapsed.as_nanos();
    }

    /// Times `f` as a span called `name` and returns its result.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.record_span(name, start.elapsed());
        r
    }

    /// The value of counter `name`, or 0 if never touched.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The histogram called `name`, if any value was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// The accumulated span stats of `name`, if the span ever completed.
    pub fn timing(&self, name: &str) -> Option<&SpanStats> {
        self.timings.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Whether nothing has been recorded at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.timings.is_empty()
    }

    /// Merges every record of `other` into `self`.
    ///
    /// Merging per-shard recorders in input order is commutative for
    /// the deterministic section (all operations are additions), so the
    /// merged output is independent of how work was scheduled.
    pub fn merge(&mut self, other: &Recorder) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
        for (k, s) in &other.timings {
            let e = self.timings.entry(k.clone()).or_default();
            e.count += s.count;
            e.total_nanos += s.total_nanos;
        }
    }

    /// Renders the recorder as a JSON object.
    ///
    /// The `counters` and `histograms` sections are deterministic
    /// (byte-identical across `--jobs N` when shards are merged in
    /// input order). The `timing` section holds wall-clock span totals
    /// and is only included when `include_timing` is set; golden
    /// comparisons should pass `false`.
    pub fn to_json(&self, include_timing: bool) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (n, (k, v)) in self.counters.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {v}", escape(k));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (n, (k, h)) in self.histograms.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {}", escape(k), h.to_json());
        }
        out.push_str("\n  }");
        if include_timing {
            out.push_str(",\n  \"timing\": {");
            for (n, (k, s)) in self.timings.iter().enumerate() {
                if n > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\n    \"{}\": {{\"count\": {}, \"total_ns\": {}}}",
                    escape(k),
                    s.count,
                    s.total_nanos
                );
            }
            out.push_str("\n  }");
        }
        out.push_str("\n}\n");
        out
    }
}

/// Escapes a string for use inside a JSON string literal.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math_edge_cases() {
        // The satellite-mandated edges: 0, 1, u64::MAX.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        // Power-of-two boundaries: 2^k opens bucket k+1.
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        assert_eq!(Histogram::bucket_index(1 << 63), 64);
        assert_eq!(Histogram::bucket_index((1 << 63) - 1), 63);
        // Bounds are inclusive and contiguous over the whole u64 range.
        assert_eq!(Histogram::bucket_bounds(0), (0, 0));
        assert_eq!(Histogram::bucket_bounds(1), (1, 1));
        assert_eq!(Histogram::bucket_bounds(2), (2, 3));
        assert_eq!(Histogram::bucket_bounds(64), (1 << 63, u64::MAX));
        for i in 1..HISTOGRAM_BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(Histogram::bucket_index(lo), i, "lo of bucket {i}");
            assert_eq!(Histogram::bucket_index(hi), i, "hi of bucket {i}");
            let (_, prev_hi) = Histogram::bucket_bounds(i - 1);
            assert_eq!(lo, prev_hi.wrapping_add(1), "gap before bucket {i}");
        }
    }

    #[test]
    fn histogram_records_and_sums() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 1, 5, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 7 + u64::MAX as u128);
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(1), 2);
        assert_eq!(h.bucket(3), 1); // 5 ∈ [4, 7]
        assert_eq!(h.bucket(64), 1);
        assert_eq!(h.nonzero_buckets().count(), 4);
        assert_eq!(Histogram::bucket_label(2), "2-3");
        assert_eq!(Histogram::bucket_label(0), "0");
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let values_a = [0u64, 3, 9, 1 << 40];
        let values_b = [1u64, 3, u64::MAX, 8];
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in values_a {
            a.record(v);
            both.record(v);
        }
        for v in values_b {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn quantiles_walk_the_log2_buckets() {
        // 90 values of 1 and 10 of 1000: p50 sits in bucket [1,1],
        // p95/p99 in 1000's bucket [512, 1023].
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(1);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        assert_eq!(h.quantile(0.50), 1);
        assert_eq!(h.quantile(0.90), 1);
        assert_eq!(h.quantile(0.95), 1023);
        assert_eq!(h.quantile(0.99), 1023);
        assert_eq!(h.quantile(1.0), 1023);
        // q=0 clamps to the first observation's bucket.
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.summary(), "n=100 p50≤1 p95≤1023 p99≤1023");
        // Edge cases: empty, single value, zero values, the top bucket.
        assert_eq!(Histogram::new().quantile(0.5), 0);
        assert_eq!(Histogram::new().summary(), "n=0");
        let mut one = Histogram::new();
        one.record(7);
        assert_eq!(one.quantile(0.5), 7);
        let mut zeros = Histogram::new();
        zeros.record(0);
        zeros.record(0);
        assert_eq!(zeros.quantile(0.99), 0);
        let mut top = Histogram::new();
        top.record(u64::MAX);
        assert_eq!(top.quantile(0.5), u64::MAX);
    }

    #[test]
    fn ascii_rendering_shows_nonzero_buckets() {
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.record(4);
        }
        h.record(0);
        let art = h.render_ascii(20);
        assert!(art.contains("4-7"), "{art}");
        assert!(art.contains('#'), "{art}");
        assert!(Histogram::new().render_ascii(20).contains("empty"));
    }

    #[test]
    fn recorder_counters_histograms_and_spans() {
        let mut r = Recorder::new();
        r.counter("a", 2);
        r.counter("a", 3);
        r.observe("h", 10);
        r.record_span("s", Duration::from_nanos(500));
        r.record_span("s", Duration::from_nanos(700));
        assert_eq!(r.counter_value("a"), 5);
        assert_eq!(r.counter_value("missing"), 0);
        assert_eq!(r.histogram("h").unwrap().count(), 1);
        let s = r.timing("s").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.total_nanos, 1200);
        let out = r.time("t", || 42);
        assert_eq!(out, 42);
        assert_eq!(r.timing("t").unwrap().count, 1);
    }

    #[test]
    fn merge_order_cannot_change_the_deterministic_section() {
        // Shards recorded in any order merge to the same JSON: the
        // parallel engine's `--jobs N` byte-identity rests on this.
        let mut shards: Vec<Recorder> = (0..4)
            .map(|i| {
                let mut r = Recorder::new();
                r.counter("misses", i * 10);
                r.counter(&format!("shard.{i}"), 1);
                r.observe("usage", i * i);
                r.record_span("replay", Duration::from_nanos(100 + i));
                r
            })
            .collect();
        let mut forward = Recorder::new();
        for s in &shards {
            forward.merge(s);
        }
        shards.reverse();
        let mut backward = Recorder::new();
        for s in &shards {
            backward.merge(s);
        }
        assert_eq!(forward.to_json(false), backward.to_json(false));
        // Even the timing section merges commutatively (sums), though
        // its *values* are wall-clock and differ across real runs.
        assert_eq!(forward.to_json(true), backward.to_json(true));
    }

    #[test]
    fn json_shape_and_timing_exclusion() {
        let mut r = Recorder::new();
        r.counter("c", 1);
        r.observe("h", 3);
        r.record_span("s", Duration::from_micros(1));
        let with = r.to_json(true);
        let without = r.to_json(false);
        assert!(with.contains("\"timing\""));
        assert!(!without.contains("\"timing\""));
        for json in [&with, &without] {
            assert!(json.contains("\"counters\""));
            assert!(json.contains("\"histograms\""));
            assert!(json.contains("\"c\": 1"));
            assert!(json.contains("\"2-3\": 1"));
        }
        assert!(Recorder::new().is_empty());
        assert!(!r.is_empty());
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\ny");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }
}

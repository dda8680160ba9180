//! Windowed time-series recording: counters snapshotted every N
//! accesses into a bounded ring of [`WindowRow`]s.
//!
//! The aggregate counters of PR 4 can only say *how many* PD
//! reprograms a run saw; a [`WindowSeries`] says *when* — miss rate,
//! PD churn, writebacks, and a per-set occupancy heat row, one
//! [`WindowRow`] per `window` accesses. Rows are pure functions of the
//! access stream, so a series built from a deterministic replay is
//! byte-identical for any worker count.
//!
//! Two producers feed a series:
//!
//! * **Stats deltas** — the profiling driver replays a trace in
//!   window-sized batches and pushes one finished row per chunk via
//!   [`WindowSeries::push_row`]. This keeps the batched kernels on the
//!   `NullObserver` fast path (the profile subcommand's measured
//!   overhead bound rests on it).
//! * **Events** — `WindowSeries` implements [`Observer`], deriving the
//!   same rows from the event stream of an instrumented model: every
//!   access emits exactly one [`Event::SetTouch`] (last in its access,
//!   pinned by the batch-equivalence suite), which closes windows on
//!   the access grid. The equivalence of the two producers is itself a
//!   test (`harness/tests/profile_series.rs`).

use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::events::{Event, MissKind, Observer};

/// Columns of the per-window set-occupancy heat row: the set-index
/// space is scaled down to this many buckets.
pub const HEAT_COLUMNS: usize = 16;

/// Default bound on retained rows (completed windows beyond it evict
/// the oldest, with drop accounting).
pub const DEFAULT_ROW_CAPACITY: usize = 1 << 16;

/// One window's worth of simulator activity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowRow {
    /// Zero-based window ordinal on the access grid.
    pub index: u64,
    /// Accesses in this window (`< window` only for the final partial
    /// row).
    pub accesses: u64,
    /// Hits in this window.
    pub hits: u64,
    /// Misses of all kinds.
    pub misses: u64,
    /// Plain tag misses (conventional caches; filled from stats deltas
    /// only, since no observed model emits them).
    pub tag_misses: u64,
    /// PD-forced misses (B-Cache: PD hit, tag miss).
    pub pd_forced_misses: u64,
    /// Predetermined misses (B-Cache: PD miss).
    pub predetermined_misses: u64,
    /// PD reprogram operations (B-Cache churn).
    pub pd_reprograms: u64,
    /// BAS victim selections.
    pub bas_victims: u64,
    /// Dirty blocks written back.
    pub writebacks: u64,
    /// Per-set occupancy heat row: accesses per set-index region, the
    /// set space scaled to [`HEAT_COLUMNS`] buckets.
    pub heat: [u64; HEAT_COLUMNS],
}

impl WindowRow {
    /// An all-zero row at `index`.
    pub fn zero(index: u64) -> Self {
        WindowRow {
            index,
            accesses: 0,
            hits: 0,
            misses: 0,
            tag_misses: 0,
            pd_forced_misses: 0,
            predetermined_misses: 0,
            pd_reprograms: 0,
            bas_victims: 0,
            writebacks: 0,
            heat: [0; HEAT_COLUMNS],
        }
    }

    /// Miss rate of this window in `[0, 1]` (0 when empty).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Renders the row as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"window\": {}, \"accesses\": {}, \"hits\": {}, \"misses\": {}, \
             \"tag_misses\": {}, \"pd_forced_misses\": {}, \"predetermined_misses\": {}, \
             \"pd_reprograms\": {}, \"bas_victims\": {}, \"writebacks\": {}, \"heat\": [",
            self.index,
            self.accesses,
            self.hits,
            self.misses,
            self.tag_misses,
            self.pd_forced_misses,
            self.predetermined_misses,
            self.pd_reprograms,
            self.bas_victims,
            self.writebacks,
        );
        for (i, h) in self.heat.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{h}");
        }
        out.push_str("]}");
        out
    }

    /// Renders the row as one CSV record matching [`csv_header`] (no
    /// trailing newline). Integer-only, so the rendering is
    /// byte-stable.
    pub fn to_csv(&self) -> String {
        let mut out = format!(
            "{},{},{},{},{},{},{},{},{},{}",
            self.index,
            self.accesses,
            self.hits,
            self.misses,
            self.tag_misses,
            self.pd_forced_misses,
            self.predetermined_misses,
            self.pd_reprograms,
            self.bas_victims,
            self.writebacks,
        );
        for h in &self.heat {
            let _ = write!(out, ",{h}");
        }
        out
    }
}

/// The CSV header line matching [`WindowRow::to_csv`] (no trailing
/// newline).
pub fn csv_header() -> String {
    let mut out = String::from(
        "window,accesses,hits,misses,tag_misses,pd_forced_misses,\
         predetermined_misses,pd_reprograms,bas_victims,writebacks",
    );
    for i in 0..HEAT_COLUMNS {
        let _ = write!(out, ",heat{i}");
    }
    out
}

/// `set` scaled out of `sets` into a heat column (clamped).
#[inline]
fn compute_bucket(set: u64, sets: u64) -> usize {
    let scaled = (set as u128 * HEAT_COLUMNS as u128) / sets as u128;
    (scaled as usize).min(HEAT_COLUMNS - 1)
}

/// A bounded ring of [`WindowRow`]s over a fixed access grid.
///
/// See the module docs for the two ways of feeding it. The ring keeps
/// the most recent `capacity` completed rows; older ones are dropped
/// with accounting ([`WindowSeries::dropped`]), mirroring the
/// [`EventRing`](crate::EventRing) contract.
#[derive(Clone, Debug)]
pub struct WindowSeries {
    window: u64,
    sets: u64,
    capacity: usize,
    rows: VecDeque<WindowRow>,
    completed: u64,
    total_accesses: u64,
    current: WindowRow,
    /// Precomputed set → heat-column map (empty when the set space is
    /// too large to tabulate): [`WindowSeries::heat_bucket`] sits on
    /// the per-access hot path, and an index beats the 128-bit scale.
    bucket_of: Vec<u16>,
}

/// Largest set space worth tabulating — caches top out around 2^15
/// sets; anything bigger falls back to computing the scale per call.
const BUCKET_TABLE_LIMIT: u64 = 1 << 16;

impl WindowSeries {
    /// A series snapshotting every `window` accesses (minimum 1), with
    /// set indices scaled out of `sets` (minimum 1) into the heat row,
    /// retaining up to [`DEFAULT_ROW_CAPACITY`] rows.
    pub fn new(window: u64, sets: u64) -> Self {
        Self::with_capacity(window, sets, DEFAULT_ROW_CAPACITY)
    }

    /// [`WindowSeries::new`] with an explicit row-retention bound
    /// (minimum 1).
    pub fn with_capacity(window: u64, sets: u64, capacity: usize) -> Self {
        let sets = sets.max(1);
        let bucket_of = if sets <= BUCKET_TABLE_LIMIT {
            (0..sets)
                .map(|set| compute_bucket(set, sets) as u16)
                .collect()
        } else {
            Vec::new()
        };
        WindowSeries {
            window: window.max(1),
            sets,
            capacity: capacity.max(1),
            rows: VecDeque::new(),
            completed: 0,
            total_accesses: 0,
            current: WindowRow::zero(0),
            bucket_of,
        }
    }

    /// The window size in accesses.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// The set-index space scaled into the heat row.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Maximum number of retained rows.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Completed rows ever produced (retained or dropped).
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Completed rows lost to the retention bound.
    pub fn dropped(&self) -> u64 {
        self.completed - self.rows.len() as u64
    }

    /// Total accesses attributed to the series, including the open
    /// window.
    pub fn total_accesses(&self) -> u64 {
        self.total_accesses
    }

    /// The retained completed rows, oldest first.
    pub fn rows(&self) -> impl Iterator<Item = &WindowRow> {
        self.rows.iter()
    }

    /// Number of retained rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no row has been completed and retained.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The heat-row bucket of `set` (clamped into the declared space).
    #[inline]
    pub fn heat_bucket(&self, set: u64) -> usize {
        match self.bucket_of.get(set as usize) {
            Some(&b) => b as usize,
            None => compute_bucket(set, self.sets),
        }
    }

    /// The full set → heat-column map when tabulated (always, for any
    /// realistic set count); the stats-delta scan indexes it directly.
    pub fn bucket_table(&self) -> &[u16] {
        &self.bucket_of
    }

    /// Appends a completed row produced externally (the stats-delta
    /// path). Rows must arrive in index order on the series' grid.
    pub fn push_row(&mut self, row: WindowRow) {
        self.total_accesses += row.accesses;
        self.commit(row);
        self.current = WindowRow::zero(self.completed);
    }

    fn commit(&mut self, row: WindowRow) {
        if self.rows.len() == self.capacity {
            self.rows.pop_front();
        }
        self.rows.push_back(row);
        self.completed += 1;
    }

    /// Records one access (the event-path primitive): attributes the
    /// touch to the heat row, counts hit/miss, and closes the window
    /// when it fills.
    #[inline]
    pub fn record_access(&mut self, set: u64, hit: bool) {
        let bucket = self.heat_bucket(set);
        self.current.accesses += 1;
        self.current.heat[bucket] += 1;
        if hit {
            self.current.hits += 1;
        }
        self.total_accesses += 1;
        if self.current.accesses == self.window {
            let index = self.current.index;
            let full = std::mem::replace(&mut self.current, WindowRow::zero(index + 1));
            self.commit(full);
        }
    }

    /// Closes the open window if it holds any accesses (the final
    /// partial row of a replay). Further accesses open the next window
    /// on the grid.
    pub fn finish(&mut self) {
        if self.current.accesses > 0 {
            let index = self.current.index;
            let partial = std::mem::replace(&mut self.current, WindowRow::zero(index + 1));
            self.commit(partial);
        }
    }

    /// Renders the series as JSON Lines: a header object recording the
    /// grid and drop accounting, then one row object per retained row.
    pub fn to_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"series\": {{\"window\": {}, \"sets\": {}, \"heat_columns\": {}, \
             \"windows\": {}, \"dropped\": {}, \"accesses\": {}}}}}\n",
            self.window,
            self.sets,
            HEAT_COLUMNS,
            self.completed,
            self.dropped(),
            self.total_accesses,
        );
        for row in self.rows() {
            out.push_str(&row.to_json());
            out.push('\n');
        }
        out
    }

    /// Renders the series as CSV with a header line.
    pub fn to_csv(&self) -> String {
        let mut out = csv_header();
        out.push('\n');
        for row in self.rows() {
            out.push_str(&row.to_csv());
            out.push('\n');
        }
        out
    }
}

impl Observer for WindowSeries {
    #[inline]
    fn event(&mut self, event: Event) {
        match event {
            Event::Miss { kind } => {
                self.current.misses += 1;
                match kind {
                    MissKind::PdForced => self.current.pd_forced_misses += 1,
                    MissKind::Predetermined => self.current.predetermined_misses += 1,
                }
            }
            Event::PdReprogram { .. } => self.current.pd_reprograms += 1,
            Event::BasVictim { .. } => self.current.bas_victims += 1,
            Event::Writeback { .. } => self.current.writebacks += 1,
            // SetTouch is the last event of its access (pinned by the
            // batch-equivalence suite), so closing the window here
            // keeps every miss/reprogram/writeback in its own window.
            Event::SetTouch { set, hit } => self.record_access(set, hit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn touch(series: &mut WindowSeries, set: u64, hit: bool) {
        if !hit {
            series.event(Event::Miss {
                kind: MissKind::Predetermined,
            });
        }
        series.event(Event::SetTouch { set, hit });
    }

    #[test]
    fn windows_close_on_the_access_grid() {
        let mut s = WindowSeries::new(4, 8);
        for i in 0..10u64 {
            touch(&mut s, i % 8, i % 2 == 0);
        }
        assert_eq!(s.completed(), 2);
        assert_eq!(s.total_accesses(), 10);
        s.finish();
        assert_eq!(s.completed(), 3, "partial tail flushed");
        let rows: Vec<&WindowRow> = s.rows().collect();
        assert_eq!(rows[0].accesses, 4);
        assert_eq!(rows[1].accesses, 4);
        assert_eq!(rows[2].accesses, 2, "last partial window");
        assert_eq!(rows[2].index, 2);
        let hits: u64 = rows.iter().map(|r| r.hits).sum();
        let misses: u64 = rows.iter().map(|r| r.misses).sum();
        assert_eq!(hits, 5);
        assert_eq!(misses, 5);
        for r in &rows {
            assert_eq!(r.hits + r.misses, r.accesses);
        }
    }

    #[test]
    fn window_of_one_and_window_larger_than_stream() {
        let mut one = WindowSeries::new(1, 4);
        for i in 0..5u64 {
            touch(&mut one, i % 4, true);
        }
        one.finish();
        assert_eq!(one.completed(), 5, "window=1 means one row per access");
        assert!(one.rows().all(|r| r.accesses == 1));

        let mut big = WindowSeries::new(1_000_000, 4);
        for i in 0..5u64 {
            touch(&mut big, i % 4, false);
        }
        assert_eq!(big.completed(), 0, "window never filled");
        big.finish();
        assert_eq!(big.completed(), 1);
        let row = big.rows().next().unwrap();
        assert_eq!(row.accesses, 5);
        assert_eq!(row.misses, 5);
    }

    #[test]
    fn ring_bound_drops_oldest_rows() {
        let mut s = WindowSeries::with_capacity(1, 2, 3);
        for i in 0..7u64 {
            touch(&mut s, i % 2, true);
        }
        assert_eq!(s.completed(), 7);
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 4);
        let indices: Vec<u64> = s.rows().map(|r| r.index).collect();
        assert_eq!(indices, vec![4, 5, 6], "oldest rows evicted first");
        let jsonl = s.to_jsonl();
        assert!(jsonl.lines().next().unwrap().contains("\"dropped\": 4"));
    }

    #[test]
    fn heat_row_scales_the_set_space() {
        let mut s = WindowSeries::new(64, 512);
        // Sets 0 and 511 land in the first and last heat buckets.
        touch(&mut s, 0, true);
        touch(&mut s, 511, true);
        touch(&mut s, 256, true);
        s.finish();
        let row = s.rows().next().unwrap();
        assert_eq!(row.heat[0], 1);
        assert_eq!(row.heat[HEAT_COLUMNS - 1], 1);
        assert_eq!(row.heat[HEAT_COLUMNS / 2], 1);
        assert_eq!(row.heat.iter().sum::<u64>(), row.accesses);
        // Out-of-declared-range sets clamp into the last bucket.
        let mut tiny = WindowSeries::new(4, 4);
        touch(&mut tiny, 1_000, true);
        tiny.finish();
        assert_eq!(tiny.rows().next().unwrap().heat[HEAT_COLUMNS - 1], 1);
    }

    #[test]
    fn event_derived_columns_tally_by_kind() {
        let mut s = WindowSeries::new(8, 16);
        s.event(Event::Miss {
            kind: MissKind::Predetermined,
        });
        s.event(Event::BasVictim {
            candidates: 8,
            chosen: 1,
        });
        s.event(Event::PdReprogram {
            subarray: 0,
            pi_old: None,
            pi_new: 3,
        });
        s.event(Event::Writeback { set: 5 });
        s.event(Event::SetTouch { set: 5, hit: false });
        s.event(Event::Miss {
            kind: MissKind::PdForced,
        });
        s.event(Event::SetTouch { set: 6, hit: false });
        s.event(Event::SetTouch { set: 7, hit: true });
        s.finish();
        let row = s.rows().next().unwrap();
        assert_eq!(row.accesses, 3);
        assert_eq!(row.hits, 1);
        assert_eq!(row.misses, 2);
        assert_eq!(row.predetermined_misses, 1);
        assert_eq!(row.pd_forced_misses, 1);
        assert_eq!(row.pd_reprograms, 1);
        assert_eq!(row.bas_victims, 1);
        assert_eq!(row.writebacks, 1);
    }

    #[test]
    fn jsonl_and_csv_render_every_row() {
        let mut s = WindowSeries::new(2, 4);
        for i in 0..5u64 {
            touch(&mut s, i % 4, i % 2 == 0);
        }
        s.finish();
        let jsonl = s.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4, "header + 3 rows");
        assert!(lines[0].contains("\"window\": 2"));
        assert!(lines[0].contains("\"windows\": 3"));
        assert!(lines[1].starts_with("{\"window\": 0"));
        assert!(lines[1].contains("\"heat\": ["));
        let csv = s.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("window,accesses,hits"));
        assert!(lines[0].ends_with("heat15"));
        assert_eq!(lines[1].split(',').count(), 10 + HEAT_COLUMNS);
    }

    #[test]
    fn push_row_matches_the_event_path() {
        // The stats-delta producer and the event producer agree.
        let mut ev = WindowSeries::new(3, 4);
        for i in 0..6u64 {
            touch(&mut ev, i % 4, i % 3 != 0);
        }
        ev.finish();
        let mut push = WindowSeries::new(3, 4);
        for row in ev.rows() {
            push.push_row(row.clone());
        }
        assert_eq!(push.completed(), ev.completed());
        assert_eq!(push.to_jsonl(), ev.to_jsonl());
        assert_eq!(push.to_csv(), ev.to_csv());
    }
}

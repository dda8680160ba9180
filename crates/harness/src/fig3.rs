//! Figure 3: `wupwise` data-cache miss rate and PD hit rate versus the
//! mapping factor MF (2 … 512) at BAS = 8, 16 kB.
//!
//! The mechanism on display: `wupwise`'s conflicting arrays are spaced
//! `2^19` bytes apart, so every `MF < 64` leaves their programmable
//! indices identical — the PD hits during the miss, the victim is forced,
//! and the replacement policy never gets to act. Once `log2(MF)` tag bits
//! reach bit 19 the PD hit rate collapses and the miss rate falls with
//! it.

use crate::parallel::Engine;
use crate::report::{pct2, TextTable};
use crate::run::{replay_bcache_pd_on, BCachePdOutcome, RunLength, Side};
use telemetry::{Recorder, SpanTimer};
use trace_gen::profiles;

/// One point of the Figure 3 sweep.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Fig3Point {
    /// The mapping factor.
    pub mf: usize,
    /// D$ miss rate at this MF.
    pub miss_rate: f64,
    /// PD hit rate during cache misses.
    pub pd_hit_rate: f64,
}

/// Runs the Figure 3 sweep for a benchmark (the paper uses `wupwise`)
/// on the caller's [`Engine`]: one job per MF point, all replaying the
/// benchmark's cached trace. Jobs carry checkpoint identities
/// (`fig3/<benchmark>/mf<N>`), so an engine with an attached checkpoint
/// resumes an interrupted sweep from the finished points.
pub fn figure3_for_with(engine: &Engine, benchmark: &str, len: RunLength) -> Vec<Fig3Point> {
    let profile = profiles::by_name(benchmark).expect("known benchmark");
    let mfs = [2usize, 4, 8, 16, 32, 64, 128, 256, 512];
    let jobs: Vec<_> = mfs
        .iter()
        .map(|&mf| {
            let profile = profile.clone();
            (format!("mf{mf}"), move || {
                let trace = engine.side_trace(&profile, len, Side::Data);
                replay_bcache_pd_on(&trace, mf, 8, 16 * 1024)
            })
        })
        .collect();
    mfs.iter()
        .zip(engine.run_checkpointed(&format!("fig3/{benchmark}"), jobs))
        .map(
            |(
                &mf,
                BCachePdOutcome {
                    miss_rate,
                    pd_hit_rate_on_miss,
                },
            )| Fig3Point {
                mf,
                miss_rate,
                pd_hit_rate: pd_hit_rate_on_miss,
            },
        )
        .collect()
}

/// Runs and renders Figure 3 (wupwise) on the caller's [`Engine`].
pub fn figure3_with(engine: &Engine, len: RunLength) -> (Vec<Fig3Point>, String) {
    let points = figure3_for_with(engine, "wupwise", len);
    let mut t = TextTable::new(vec!["MF", "miss_rate", "PD_hit_rate"]);
    for p in &points {
        t.row(vec![
            format!("MF{}", p.mf),
            pct2(p.miss_rate),
            pct2(p.pd_hit_rate),
        ]);
    }
    let rendered = format!(
        "Figure 3: wupwise 16 kB D$ miss rate and PD hit rate during misses vs MF (BAS = 8)\n{}",
        t.render()
    );
    (points, rendered)
}

/// [`figure3_with`] plus telemetry: each MF point's miss rate and PD
/// hit rate land in `rec` as parts-per-million counters — exact integer
/// images of the deterministic f64s the table renders, so the metrics
/// file is byte-identical for any `--jobs N` — and the whole sweep is
/// wrapped in a `phase.replay` wall-time span.
pub fn figure3_recorded(
    engine: &Engine,
    len: RunLength,
    rec: &mut Recorder,
) -> (Vec<Fig3Point>, String) {
    let t = SpanTimer::start("phase.replay");
    let (points, text) = figure3_with(engine, len);
    t.stop(rec);
    for p in &points {
        rec.counter(
            &format!("fig3.mf{}.miss_rate_ppm", p.mf),
            (p.miss_rate * 1e6).round() as u64,
        );
        rec.counter(
            &format!("fig3.mf{}.pd_hit_rate_ppm", p.mf),
            (p.pd_hit_rate * 1e6).round() as u64,
        );
    }
    rec.counter("fig3.points", points.len() as u64);
    (points, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new(crate::parallel::default_parallelism())
    }

    #[test]
    fn wupwise_pd_hit_rate_collapses_at_mf64() {
        let points = figure3_for_with(&engine(), "wupwise", RunLength::with_records(150_000));
        let at = |mf: usize| points.iter().find(|p| p.mf == mf).unwrap();
        // High PD hit rate while the far-spaced arrays share PIs…
        assert!(
            at(8).pd_hit_rate > 0.4,
            "MF8 PD hit rate {}",
            at(8).pd_hit_rate
        );
        // …then a sharp drop between MF = 32 and MF = 64 (paper Fig. 3).
        assert!(
            at(64).pd_hit_rate < at(32).pd_hit_rate - 0.25,
            "expected collapse: MF32 {} vs MF64 {}",
            at(32).pd_hit_rate,
            at(64).pd_hit_rate
        );
        // The miss rate falls alongside the PD hit rate.
        assert!(at(64).miss_rate < at(32).miss_rate * 0.8);
        // And stays low at the extreme points.
        assert!(at(512).miss_rate <= at(64).miss_rate * 1.1);
    }

    #[test]
    fn rendering_contains_all_mf_points() {
        let (points, text) = figure3_with(&engine(), RunLength::with_records(60_000));
        assert_eq!(points.len(), 9);
        for mf in [2, 64, 512] {
            assert!(text.contains(&format!("MF{mf}")), "{text}");
        }
    }

    #[test]
    fn recorded_figure3_metrics_are_exact_point_images() {
        let engine = Engine::new(2);
        let len = RunLength::with_records(40_000);
        let mut rec = Recorder::new();
        let (points, _) = figure3_recorded(&engine, len, &mut rec);
        assert_eq!(rec.counter_value("fig3.points"), points.len() as u64);
        for p in &points {
            assert_eq!(
                rec.counter_value(&format!("fig3.mf{}.miss_rate_ppm", p.mf)),
                (p.miss_rate * 1e6).round() as u64
            );
        }
        assert_eq!(rec.timing("phase.replay").unwrap().count, 1);
    }
}

//! The `bcache-repro stats` subcommand: the set-pressure report.
//!
//! For each golden benchmark (the eight pinned by the golden-stats
//! regression suite) the report compares the 16 kB direct-mapped
//! baseline against the B-Cache MF8-BAS8 point on the data side:
//! per-set access histograms (the paper's Table 7 balance argument made
//! visible — a DM cache spreads sets across many log2 buckets, the
//! B-Cache concentrates them), PD reprogram counts, and the PD churn
//! rate per thousand post-warm-up accesses.
//!
//! One engine job per benchmark; fragments merge in input order, so the
//! deterministic metrics section is byte-identical for any `--jobs N`.

use cache_sim::CacheModel;
use telemetry::{Recorder, SpanTimer};
use trace_gen::profiles;

use crate::config::{CacheConfig, RunOptions, L1_BYTES};
use crate::parallel::job_seed;
use crate::run::Side;
use crate::runcmd::replay_timed;
use crate::telemetry_io::record_model;

/// The benchmarks the report covers — the golden-stats regression set.
pub const GOLDEN_BENCHMARKS: [&str; 8] = [
    "mcf", "gzip", "equake", "ammp", "art", "gcc", "parser", "vpr",
];

/// One benchmark's row of the report.
#[derive(Copy, Clone, Debug)]
struct StatsRow {
    dm_miss_rate: f64,
    bc_miss_rate: f64,
    pd_reprograms: u64,
    accesses: u64,
}

/// What a `stats` invocation produces.
#[derive(Clone, Debug)]
pub struct StatsOutcome {
    /// Human-readable report.
    pub report: String,
    /// Merged telemetry (deterministic counters/histograms + timing).
    pub metrics: Recorder,
}

/// Runs the report: one engine job per golden benchmark (D$ side,
/// 16 kB), DM versus B-Cache MF8-BAS8.
pub fn stats_cmd(opts: &RunOptions) -> StatsOutcome {
    let engine = opts.engine();
    let len = opts.len;
    let side = Side::Data;

    let jobs: Vec<_> = GOLDEN_BENCHMARKS
        .iter()
        .map(|&bench| {
            let engine = &engine;
            move || {
                let profile = profiles::by_name(bench).expect("golden benchmark exists");
                let trace = engine.side_trace(&profile, len, side);
                let seed = job_seed(len.seed, bench, side);
                let mut frag = Recorder::new();

                let mut dm = CacheConfig::DirectMapped
                    .build(L1_BYTES, seed)
                    .expect("baseline builds at 16 kB");
                replay_timed(&trace, dm.as_mut(), &mut frag);
                record_model(&mut frag, &format!("stats.{bench}.dm"), dm.as_ref());

                let mut bc = CacheConfig::BCache { mf: 8, bas: 8 }
                    .build(L1_BYTES, seed)
                    .expect("valid B-Cache point");
                replay_timed(&trace, bc.as_mut(), &mut frag);
                record_model(&mut frag, &format!("stats.{bench}.bcache"), bc.as_ref());
                let pd = bc.decoder_stats().expect("a B-Cache has decoders");
                frag.counter(
                    &format!("stats.{bench}.bcache.pd_reprograms"),
                    pd.misses_with_pd_miss,
                );
                frag.counter(
                    &format!("stats.{bench}.bcache.pd_forced_misses"),
                    pd.misses_with_pd_hit,
                );

                let row = StatsRow {
                    dm_miss_rate: dm.stats().miss_rate(),
                    bc_miss_rate: bc.stats().miss_rate(),
                    pd_reprograms: pd.misses_with_pd_miss,
                    accesses: bc.stats().total().accesses(),
                };
                (row, frag)
            }
        })
        .collect();

    let mut metrics = Recorder::new();
    let mut rows = Vec::new();
    for (bench, (row, frag)) in GOLDEN_BENCHMARKS.iter().zip(engine.run(jobs)) {
        metrics.merge(&frag);
        rows.push((*bench, row));
    }
    metrics.merge(&engine.timing_snapshot());

    let t = SpanTimer::start("phase.report");
    let mut report = format!(
        "stats: 16 kB D$ set pressure, DM vs B-Cache MF8-BAS8 \
         ({} records, warmup {}, seed {})\n\n",
        len.records, len.warmup, len.seed
    );
    report.push_str("benchmark  dm_miss   bc_miss   pd_reprograms  churn/1k_acc\n");
    for (bench, row) in &rows {
        let churn = if row.accesses == 0 {
            0.0
        } else {
            row.pd_reprograms as f64 * 1000.0 / row.accesses as f64
        };
        report.push_str(&format!(
            "{bench:<10} {:>7.3}%  {:>7.3}%  {:>13}  {churn:>12.2}\n",
            row.dm_miss_rate * 100.0,
            row.bc_miss_rate * 100.0,
            row.pd_reprograms,
        ));
    }
    for (bench, _) in &rows {
        report.push_str(&format!("\n{bench}: per-set access histograms\n"));
        for model in ["dm", "bcache"] {
            if let Some(h) = metrics.histogram(&format!("stats.{bench}.{model}.set_accesses")) {
                report.push_str(&format!(
                    "  {model} ({} sets, {}):\n{}",
                    h.count(),
                    h.summary(),
                    indent(&h.render_ascii(36), "    ")
                ));
            }
        }
    }
    t.stop(&mut metrics);
    StatsOutcome { report, metrics }
}

fn indent(text: &str, pad: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        out.push_str(pad);
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunLength;

    #[test]
    fn stats_cover_every_golden_benchmark() {
        let opts = RunOptions {
            len: RunLength::with_records(20_000),
            jobs: 4,
            ..RunOptions::default()
        };
        let out = stats_cmd(&opts);
        for bench in GOLDEN_BENCHMARKS {
            assert!(out.report.contains(bench), "report misses {bench}");
            assert!(
                out.metrics
                    .histogram(&format!("stats.{bench}.dm.set_accesses"))
                    .is_some(),
                "no DM histogram for {bench}"
            );
            assert!(
                out.metrics
                    .histogram(&format!("stats.{bench}.bcache.set_accesses"))
                    .is_some(),
                "no B-Cache histogram for {bench}"
            );
            assert!(
                out.metrics
                    .counter_value(&format!("stats.{bench}.bcache.pd_reprograms"))
                    > 0,
                "{bench} replays long enough to reprogram the PD"
            );
        }
        assert!(out.report.contains("per-set access histograms"));
        assert!(
            out.report.contains("p50≤") && out.report.contains("p95≤"),
            "histogram sections carry quantile summaries: {}",
            out.report
        );
        assert!(out.metrics.timing("phase.replay").is_some());
    }

    #[test]
    fn stats_metrics_are_jobs_invariant() {
        let mut golden: Option<String> = None;
        for jobs in [1usize, 3] {
            let opts = RunOptions {
                len: RunLength::with_records(12_000),
                jobs,
                ..RunOptions::default()
            };
            let json = stats_cmd(&opts).metrics.to_json(false);
            match &golden {
                None => golden = Some(json),
                Some(g) => assert_eq!(g, &json, "--jobs {jobs} changed the metrics"),
            }
        }
    }
}

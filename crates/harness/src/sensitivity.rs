//! Sensitivity studies and extension experiments beyond the paper's
//! figures:
//!
//! * [`victim_sweep_with`] — victim-buffer sizes (Section 6.6 claims more
//!   than 16 entries stops paying);
//! * [`cold_start`] — how fast the B-Cache's programmable decoders warm
//!   up after a flush (context switches reprogram the PDs; the paper's
//!   Figure 1 discusses the cold-start case);
//! * [`l2_bcache_with`] — applying the B-Cache idea at the L2 (an extension:
//!   a direct-mapped 256 kB L2 versus its balanced variant versus the
//!   paper's 4-way L2).

use bcache_core::{BCacheParams, BalancedCache};
use cache_sim::{
    AccessKind, CacheGeometry, CacheModel, PolicyKind, SetAssociativeCache, VictimCache,
};
use trace_gen::{profiles, Trace};

use crate::parallel::Engine;
use crate::report::{pct, pct2, TextTable};
use crate::run::{mean, RunLength, Side, SideStream};

/// Miss-rate reduction of victim buffers of several sizes, averaged over
/// the 26 benchmarks' data caches, on the caller's [`Engine`]: one job
/// per (buffer size, benchmark) pair over the shared cached traces.
pub fn victim_sweep_with(engine: &Engine, len: RunLength, entries: &[usize]) -> Vec<(usize, f64)> {
    let benchmarks = profiles::all();
    let jobs: Vec<_> = entries
        .iter()
        .flat_map(|&n| {
            benchmarks.iter().map(move |p| {
                move || {
                    let trace = engine.side_trace(p, len, Side::Data);
                    let mut dm = CacheGeometry::new(16 * 1024, 32, 1)
                        .map(|g| cache_sim::DirectMappedCache::from_geometry(g).unwrap())
                        .unwrap();
                    let mut vc = VictimCache::new(16 * 1024, 32, n).unwrap();
                    for &(addr, kind) in trace.accesses() {
                        dm.access(addr, kind);
                        vc.access(addr, kind);
                    }
                    let base = dm.stats().miss_rate();
                    if base == 0.0 {
                        0.0
                    } else {
                        1.0 - vc.stats().miss_rate() / base
                    }
                }
            })
        })
        .collect();
    let reductions = engine.run(jobs);
    entries
        .iter()
        .zip(reductions.chunks(benchmarks.len()))
        .map(|(&n, chunk)| (n, mean(chunk, |r| *r)))
        .collect()
}

/// Renders the victim sweep.
pub fn render_victim_sweep(points: &[(usize, f64)]) -> String {
    let mut t = TextTable::new(vec!["entries", "avg D$ reduction"]);
    for (n, r) in points {
        t.row(vec![n.to_string(), pct(*r)]);
    }
    format!(
        "Victim-buffer size sweep. The paper (Section 6.6) caps the buffer at 16\n\
         entries because access time and energy grow with size; on these synthetic\n\
         workloads the conflict volume is larger than SPEC2K's, so miss-rate gains\n\
         continue past 16 — the timing/energy argument for 16 stands regardless.\n{}",
        t.render()
    )
}

/// Post-flush warm-up: miss rate of each window of `window` accesses
/// after every structure (blocks *and* PDs) is flushed, for the baseline
/// and the B-Cache.
///
/// Stays serial on the caller thread: it streams the trace unbounded
/// until the requested windows fill, so it cannot use the fixed-length
/// trace cache, and a single run is cheap.
pub fn cold_start(benchmark: &str, window: u64, windows: usize, len: RunLength) -> Vec<(f64, f64)> {
    let profile = profiles::by_name(benchmark).expect("known benchmark");
    let geom = CacheGeometry::new(16 * 1024, 32, 1).unwrap();
    let mut dm = cache_sim::DirectMappedCache::from_geometry(geom).unwrap();
    let mut bc = BalancedCache::new(BCacheParams::paper_default(geom).unwrap());
    let mut stream = SideStream::new(Side::Data);
    let accesses = Trace::new(&profile, len.seed).filter_map(|rec| stream.access(&rec));
    let mut out = Vec::with_capacity(windows);
    let (mut dm_misses, mut bc_misses) = (0u64, 0u64);
    for (i, (addr, kind)) in (1..).zip(accesses.take(window as usize * windows)) {
        dm_misses += u64::from(!dm.access(addr, kind).hit);
        bc_misses += u64::from(!bc.access(addr, kind).hit);
        if i % window == 0 {
            out.push((
                dm_misses as f64 / window as f64,
                bc_misses as f64 / window as f64,
            ));
            (dm_misses, bc_misses) = (0, 0);
        }
    }
    out
}

/// Renders the cold-start windows.
pub fn render_cold_start(benchmark: &str, windows: &[(f64, f64)], window: u64) -> String {
    let mut t = TextTable::new(vec!["window", "dm miss", "bcache miss"]);
    for (i, (dm, bc)) in windows.iter().enumerate() {
        t.row(vec![
            format!("{}..{}", i as u64 * window, (i as u64 + 1) * window),
            pct2(*dm),
            pct2(*bc),
        ]);
    }
    format!(
        "Cold-start behaviour on {benchmark} (both caches start fully flushed; the\n\
         B-Cache additionally reprograms every PD entry during the first fills)\n{}",
        t.render()
    )
}

/// Applies the B-Cache at the L2: direct-mapped 256 kB L2 vs its
/// MF=8/BAS=8 balanced variant vs the paper's 4-way L2, fed by the L1
/// miss stream of the baseline 16 kB L1. Runs on the caller's
/// [`Engine`]: one job per benchmark (each replays the L1 filter plus
/// all three L2s); the suite aggregate sums per-benchmark counters in
/// canonical order.
pub fn l2_bcache_with(engine: &Engine, len: RunLength) -> Vec<(String, f64)> {
    let l2_geom = CacheGeometry::new(256 * 1024, 128, 1).unwrap();
    let benchmarks = profiles::all();
    let jobs: Vec<_> = benchmarks
        .iter()
        .map(|p| {
            move || {
                let trace = engine.side_trace(p, len, Side::Data);
                let mut l1 = cache_sim::DirectMappedCache::new(16 * 1024, 32).unwrap();
                let mut l2s: Vec<Box<dyn CacheModel>> = vec![
                    Box::new(cache_sim::DirectMappedCache::from_geometry(l2_geom).unwrap()),
                    Box::new(
                        SetAssociativeCache::new(256 * 1024, 128, 4, PolicyKind::Lru, 0).unwrap(),
                    ),
                    Box::new(BalancedCache::new(
                        BCacheParams::new(l2_geom, 8, 8, PolicyKind::Lru).unwrap(),
                    )),
                ];
                for &(addr, kind) in trace.accesses() {
                    if !l1.access(addr, kind).hit {
                        for l2 in l2s.iter_mut() {
                            l2.access(addr, AccessKind::Read);
                        }
                    }
                }
                l2s.iter()
                    .map(|l2| (l2.stats().total().misses(), l2.stats().total().accesses()))
                    .collect::<Vec<(u64, u64)>>()
            }
        })
        .collect();
    let per_benchmark = engine.run(jobs);

    let mut results: Vec<(String, u64, u64)> = vec![
        ("256k-dm".into(), 0, 0),
        ("256k-4way".into(), 0, 0),
        ("256k-bcache".into(), 0, 0),
    ];
    for counters in &per_benchmark {
        for (acc, &(misses, accesses)) in results.iter_mut().zip(counters) {
            acc.1 += misses;
            acc.2 += accesses;
        }
    }
    results
        .into_iter()
        .map(|(label, misses, accesses)| {
            (
                label,
                if accesses == 0 {
                    0.0
                } else {
                    misses as f64 / accesses as f64
                },
            )
        })
        .collect()
}

/// Renders the L2 experiment.
pub fn render_l2_bcache(rows: &[(String, f64)]) -> String {
    let mut t = TextTable::new(vec!["L2 config", "local miss rate"]);
    for (label, mr) in rows {
        t.row(vec![label.clone(), pct2(*mr)]);
    }
    format!(
        "Extension: the B-Cache applied at the L2 (fed by the baseline L1's miss\n\
         stream, suite aggregate)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RunLength {
        RunLength::with_records(80_000)
    }

    fn engine() -> Engine {
        Engine::new(crate::parallel::default_parallelism())
    }

    #[test]
    fn victim_gains_grow_monotonically_with_size() {
        let points = victim_sweep_with(&engine(), quick(), &[4, 16, 64]);
        let at = |n: usize| points.iter().find(|(e, _)| *e == n).unwrap().1;
        assert!(at(16) > at(4), "more entries must help");
        assert!(at(64) >= at(16), "and never hurt");
        // Even a 64-entry buffer stays below the B-Cache's I$-and-D$
        // average; the buffer only sees victims, the B-Cache re-maps them.
        assert!(at(64) < 0.7, "64 entries: {:.3}", at(64));
        assert!(render_victim_sweep(&points).contains("16"));
    }

    #[test]
    fn bcache_warms_up_within_a_few_windows() {
        let windows = cold_start("equake", 10_000, 6, quick());
        assert_eq!(windows.len(), 6);
        let (dm0, bc0) = windows[0];
        let (_, bc_last) = windows[windows.len() - 1];
        // Cold-start misses are comparable (the PD programs during the
        // fills it needed anyway)…
        assert!(bc0 < dm0 + 0.1, "first window: dm {dm0} bc {bc0}");
        // …and the steady state is far better than the first window.
        assert!(bc_last < bc0 * 0.7, "bc {bc0} -> {bc_last}");
        assert!(render_cold_start("equake", &windows, 10_000).contains("equake"));
    }

    #[test]
    fn l2_bcache_sits_between_dm_and_4way() {
        let rows = l2_bcache_with(&engine(), quick());
        let at = |label: &str| rows.iter().find(|(l, _)| l == label).unwrap().1;
        assert!(
            at("256k-bcache") <= at("256k-dm") + 1e-9,
            "balancing helps the L2 too"
        );
        assert!(
            at("256k-bcache") <= at("256k-dm") * 1.01,
            "dm {} vs bcache {}",
            at("256k-dm"),
            at("256k-bcache")
        );
        assert!(render_l2_bcache(&rows).contains("256k-4way"));
    }
}

//! Cross-crate integration: the full pipeline from trace generation
//! through cache models, CPU timing and the power models, plus the
//! harness render paths used by the `bcache-repro` binary.

use bcache_core::{BCacheParams, BalancedCache};
use cache_sim::{AccessKind, Addr, CacheGeometry, DirectMappedCache, MemoryHierarchy};
use cpu_model::{Cpu, CpuConfig};
use harness::run::RunLength;
use harness::{balance, default_parallelism, design_space, fig3, missrate, tables, Engine};
use power_model::{bcache_access_pj, conventional_access_pj, table1_rows, table2};
use trace_gen::{profiles, Trace};

fn quick() -> RunLength {
    RunLength::with_records(60_000)
}

fn engine() -> Engine {
    Engine::new(default_parallelism())
}

#[test]
fn all_26_profiles_run_through_the_full_cpu_pipeline() {
    for profile in profiles::all() {
        let geom = CacheGeometry::new(16 * 1024, 32, 1).unwrap();
        let hierarchy = MemoryHierarchy::new(
            Box::new(BalancedCache::new(
                BCacheParams::paper_default(geom).unwrap(),
            )),
            Box::new(BalancedCache::new(
                BCacheParams::paper_default(geom).unwrap(),
            )),
        );
        let mut cpu = Cpu::new(CpuConfig::default(), hierarchy);
        let report = cpu.run(Trace::new(&profile, 3).take(20_000));
        assert_eq!(report.instructions, 20_000, "{}", profile.name);
        assert!(
            report.ipc() > 0.05 && report.ipc() <= 4.0,
            "{}: IPC {}",
            profile.name,
            report.ipc()
        );
        assert!(
            cpu.hierarchy().l1i().stats().total().accesses() > 0,
            "{}",
            profile.name
        );
        assert!(
            cpu.hierarchy().l1d().stats().total().accesses() > 0,
            "{}",
            profile.name
        );
    }
}

#[test]
fn bcache_as_l1_propagates_writebacks_into_l2() {
    let geom = CacheGeometry::new(1024, 32, 1).unwrap();
    let params = BCacheParams::new(geom, 2, 2, cache_sim::PolicyKind::Lru).unwrap();
    let mut h = MemoryHierarchy::new(
        Box::new(DirectMappedCache::new(1024, 32).unwrap()),
        Box::new(BalancedCache::new(params)),
    );
    // Dirty a block, then evict it via a PD-hit conflict (same PI/NPI).
    h.data_access(Addr::new(0x40), AccessKind::Write);
    // 1 kB cache, MF=2, BAS=2: offset 5, NPI 4 bits, PI 2 bits -> PI+NPI
    // cover bits [5,11); +2^11 shares both fields but differs in tag.
    h.data_access(Addr::new(0x40 + (1 << 11)), AccessKind::Read);
    assert_eq!(h.l1d().stats().writebacks(), 1);
    // The written-back block is now an L2 hit.
    assert_eq!(h.data_access(Addr::new(0x40), AccessKind::Read), 1 + 6);
}

#[test]
fn every_table_renders_nonempty() {
    for text in [
        tables::render_table1(),
        tables::render_table2(),
        tables::render_table3(),
        tables::render_table4(),
    ] {
        assert!(text.lines().count() > 4, "{text}");
    }
    let grid = design_space::design_space_grid_with(&engine(), RunLength::with_records(20_000));
    assert!(design_space::render_tables_5_and_6(&grid).contains("Table 6"));
    let rows = balance::table7_with(&engine(), RunLength::with_records(20_000)).unwrap();
    assert_eq!(rows.len(), 26);
    assert!(balance::render_table7(&rows).contains("wupwise"));
}

#[test]
fn every_figure_renders_nonempty() {
    let (fp, int) = missrate::figure4_with(&engine(), quick());
    assert!(fp.render().contains("equake"));
    assert!(int.render().contains("gcc"));
    assert!(missrate::figure5_with(&engine(), quick())
        .render()
        .contains("crafty"));
    let (points, text) = fig3::figure3_with(&engine(), quick());
    assert_eq!(points.len(), 9);
    assert!(text.contains("wupwise"));
    let figs = missrate::figure12_with(&engine(), RunLength::with_records(20_000));
    assert_eq!(figs.len(), 4, "8k/32k x I$/D$");
}

#[test]
fn power_models_agree_on_the_papers_design_point() {
    let geom = CacheGeometry::new(16 * 1024, 32, 1).unwrap();
    let params = BCacheParams::paper_default(geom).unwrap();
    // Timing: slack everywhere (Table 1).
    assert!(table1_rows().iter().all(|r| r.slack_ns > 0.0));
    // Area: +4.3% (Table 2).
    let (_, _, overhead) = table2(&params);
    assert!((overhead - 0.043).abs() < 0.005);
    // Energy: ~+10% per access, far below 8-way (Table 3).
    let dm = conventional_access_pj(&geom).total_pj();
    let bc = bcache_access_pj(&params).total_pj();
    let w8 = conventional_access_pj(&geom.with_assoc(8).unwrap()).total_pj();
    assert!(bc > dm && bc < dm * 1.15);
    assert!(bc < w8 * 0.5);
}

#[test]
fn deterministic_experiments_across_invocations() {
    let a = missrate::figure5_with(&engine(), quick());
    let b = missrate::figure5_with(&engine(), quick());
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        assert_eq!(ra.baseline_miss_rate, rb.baseline_miss_rate);
        for (oa, ob) in ra.outcomes.iter().zip(&rb.outcomes) {
            assert_eq!(oa.miss_rate, ob.miss_rate, "{}/{}", ra.benchmark, oa.label);
        }
    }
}

#[test]
fn umbrella_crate_reexports_work() {
    // The root crate exposes all member crates for examples and tests.
    let _ = bcache_repro::cache_sim::CacheGeometry::new(1024, 32, 1).unwrap();
    let _ = bcache_repro::trace_gen::profiles::all();
    let _ = bcache_repro::power_model::table1_rows();
}

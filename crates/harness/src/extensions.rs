//! Extension analyses from the paper's discussion sections:
//!
//! * Section 6.7 — improving the highly-associative cache with a partial
//!   programmable decoder ([`render_hac_comparison`]);
//! * Section 6.4 (last paragraph) — compatibility with drowsy/decay
//!   leakage techniques: the B-Cache still leaves enough less-accessed
//!   sets to put to sleep ([`drowsy_analysis`], read off Table 7's rows,
//!   so it simulates nothing of its own);
//! * Section 6.8 — virtually/physically tagged caches: for which page
//!   sizes are the PI's tag bits available before TLB translation?
//!   ([`vp_tag_analysis`]).

use bcache_core::BCacheParams;
use cache_sim::CacheGeometry;
use power_model::compare_hac;

use crate::balance::BalanceRow;
use crate::report::{pct, TextTable};

/// Renders the Section 6.7 HAC-improvement analysis.
pub fn render_hac_comparison() -> String {
    let geom = CacheGeometry::new(16 * 1024, 32, 1).expect("valid geometry");
    let c = compare_hac(&geom, 6);
    let mut t = TextTable::new(vec!["", "full HAC", "B-Cache-style PD"]);
    t.row(vec![
        "CAM width/line".to_string(),
        format!("{} bits", c.full_cam_width),
        format!("{} bits", c.improved_cam_width),
    ]);
    t.row(vec![
        "total CAM bits".to_string(),
        c.full_cam_bits.to_string(),
        c.improved_cam_bits.to_string(),
    ]);
    format!(
        "Section 6.7: improving the HAC with a partial programmable decoder\n{}\n\
         CAM area reduction: {:.1}% ({:.0} SRAM-bit equivalents saved)\n\
         CAM search-energy saving: {:.1} pJ per access\n",
        t.render(),
        c.area_reduction() * 100.0,
        c.area_saving_sram_bits,
        c.energy_saving_pj
    )
}

/// One benchmark's drowsy-compatibility estimate.
#[derive(Clone, Debug, PartialEq)]
pub struct DrowsyRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Fraction of sets sleepable (less-accessed) under the baseline.
    pub baseline_sleepable: f64,
    /// Fraction of sets sleepable under the B-Cache.
    pub bcache_sleepable: f64,
}

/// Leakage fraction retained by a drowsy set (Flautner et al. report
/// ~6-10x leakage reduction; we use 10%).
pub const DROWSY_LEAKAGE_FACTOR: f64 = 0.10;

/// Section 6.4: both caches' less-accessed sets could be put in a drowsy
/// state; the B-Cache balances accesses yet keeps a substantial drowsy
/// candidate pool. Projects the less-accessed-set columns of Table 7's
/// rows ([`crate::balance::table7_with`]).
pub fn drowsy_analysis(rows: &[BalanceRow]) -> Vec<DrowsyRow> {
    rows.iter()
        .map(|r| DrowsyRow {
            benchmark: r.benchmark.clone(),
            baseline_sleepable: r.baseline.less_accessed_sets,
            bcache_sleepable: r.bcache.less_accessed_sets,
        })
        .collect()
}

/// Renders the drowsy-compatibility table.
pub fn render_drowsy(rows: &[DrowsyRow]) -> String {
    let mut t = TextTable::new(vec![
        "benchmark",
        "dm sleepable",
        "bc sleepable",
        "bc leakage",
    ]);
    let mut sum = (0.0, 0.0);
    for r in rows {
        let leak = 1.0 - r.bcache_sleepable * (1.0 - DROWSY_LEAKAGE_FACTOR);
        t.row(vec![
            r.benchmark.clone(),
            pct(r.baseline_sleepable),
            pct(r.bcache_sleepable),
            format!("{:.2}x", leak),
        ]);
        sum.0 += r.baseline_sleepable;
        sum.1 += r.bcache_sleepable;
    }
    let n = rows.len().max(1) as f64;
    t.row(vec![
        "Ave".to_string(),
        pct(sum.0 / n),
        pct(sum.1 / n),
        format!("{:.2}x", 1.0 - (sum.1 / n) * (1.0 - DROWSY_LEAKAGE_FACTOR)),
    ]);
    format!(
        "Section 6.4 extension: drowsy-technique compatibility (D$, 16 kB).\n\
         'sleepable' = less-accessed sets that could sit in a drowsy state;\n\
         'bc leakage' = B-Cache leakage relative to always-awake, at a {:.0}% drowsy factor.\n{}",
        DROWSY_LEAKAGE_FACTOR * 100.0,
        t.render()
    )
}

/// One row of the Section 6.8 analysis.
#[derive(Clone, Debug, PartialEq)]
pub struct VpTagRow {
    /// Page size in bytes.
    pub page_bytes: usize,
    /// Highest PI bit position (exclusive) in the address.
    pub pi_top_bit: u32,
    /// Whether the whole PI lies inside the page offset (untranslated).
    pub pi_untranslated: bool,
}

/// Section 6.8: the PD must see its `log2(MF)` tag bits *before* address
/// translation finishes. With a virtually-indexed, physically-tagged L1
/// that works only if those bits fall within the page offset; otherwise
/// they must be treated as virtual-index bits (the paper's suggestion).
pub fn vp_tag_analysis(geom: &CacheGeometry, mf: usize, bas: usize) -> Vec<VpTagRow> {
    let params =
        BCacheParams::new(*geom, mf, bas, cache_sim::PolicyKind::Lru).expect("valid B-Cache point");
    let layout = params.layout();
    let pi_top_bit = geom.offset_bits() + layout.npi_bits() + layout.pi_bits();
    [4096usize, 8192, 16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024]
        .into_iter()
        .map(|page_bytes| VpTagRow {
            page_bytes,
            pi_top_bit,
            pi_untranslated: pi_top_bit <= page_bytes.trailing_zeros(),
        })
        .collect()
}

/// Renders the V/P-tag analysis for the paper's 16 kB design point.
pub fn render_vp_analysis() -> String {
    let geom = CacheGeometry::new(16 * 1024, 32, 1).expect("valid geometry");
    let rows = vp_tag_analysis(&geom, 8, 8);
    let mut t = TextTable::new(vec!["page size", "PI top bit", "PI untranslated?"]);
    for r in &rows {
        t.row(vec![
            format!("{} kB", r.page_bytes / 1024),
            format!("bit {}", r.pi_top_bit - 1),
            if r.pi_untranslated {
                "yes (physically indexed ok)"
            } else {
                "no (treat as virtual index)"
            }
            .to_string(),
        ]);
    }
    format!(
        "Section 6.8: V/P-tagged caches — can the PD see its tag bits before the TLB?\n\
         (16 kB B-Cache, MF = 8, BAS = 8: the PI spans up to bit {}.)\n{}",
        rows[0].pi_top_bit - 1,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::table7_with;
    use crate::parallel::{default_parallelism, Engine};
    use crate::run::RunLength;

    #[test]
    fn hac_comparison_renders_the_26_bit_cam() {
        let s = render_hac_comparison();
        assert!(s.contains("26 bits"), "{s}");
        assert!(s.contains("6 bits"));
    }

    #[test]
    fn drowsy_pool_shrinks_but_survives_balancing() {
        let engine = Engine::new(default_parallelism());
        let table7 = table7_with(&engine, RunLength::with_records(60_000));
        let rows = drowsy_analysis(&table7);
        assert_eq!(rows.len(), 26);
        let ave_dm: f64 =
            rows.iter().map(|r| r.baseline_sleepable).sum::<f64>() / rows.len() as f64;
        let ave_bc: f64 = rows.iter().map(|r| r.bcache_sleepable).sum::<f64>() / rows.len() as f64;
        // Section 6.4: balancing reduces less-accessed sets (50.2% ->
        // 32.4% in the paper) but a useful pool remains.
        assert!(ave_bc < ave_dm, "balancing must shrink the idle pool");
        assert!(
            ave_bc > 0.05,
            "a drowsy candidate pool must remain: {ave_bc}"
        );
        assert!(render_drowsy(&rows).contains("Ave"));
    }

    #[test]
    fn vp_analysis_flips_at_the_pi_top_bit() {
        let geom = CacheGeometry::new(16 * 1024, 32, 1).unwrap();
        let rows = vp_tag_analysis(&geom, 8, 8);
        // PI spans bits [5+6, 5+6+6) = up to bit 16: pages >= 128 kB (17
        // offset bits) keep it untranslated; common 4-8 kB pages do not.
        assert_eq!(rows[0].pi_top_bit, 17);
        assert!(
            !rows
                .iter()
                .find(|r| r.page_bytes == 4096)
                .unwrap()
                .pi_untranslated
        );
        assert!(
            !rows
                .iter()
                .find(|r| r.page_bytes == 8192)
                .unwrap()
                .pi_untranslated
        );
        assert!(
            rows.iter()
                .find(|r| r.page_bytes == 128 * 1024)
                .unwrap()
                .pi_untranslated
        );
        assert!(render_vp_analysis().contains("bit 16"));
    }
}

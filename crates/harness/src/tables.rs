//! Static model tables: Table 1 (decoder timing), Table 2 (storage),
//! Table 3 (energy per access), Table 4 (processor configuration).

use bcache_core::{BCacheOrganization, BCacheParams};
use cache_sim::{CacheGeometry, PolicyKind};
use cpu_model::table4_rows;
use power_model::{bcache_access_pj, conventional_access_pj, table1_rows, table2, EnergyBreakdown};

use crate::config::L1_BYTES;
use crate::report::TextTable;

fn paper_params() -> BCacheParams {
    let geom = CacheGeometry::new(L1_BYTES, 32, 1).expect("valid geometry");
    BCacheParams::new(geom, 8, 8, PolicyKind::Lru).expect("paper design point")
}

/// Renders Table 1: original versus B-Cache decoder timing per subarray
/// size.
pub fn render_table1() -> String {
    let mut t = TextTable::new(vec![
        "subarray",
        "decoder",
        "composition",
        "orig(ns)",
        "PD(ns)",
        "NPD",
        "NPD(ns)",
        "slack(ns)",
    ]);
    for row in table1_rows() {
        t.row(vec![
            format!("{}B", row.subarray_bytes),
            format!("{}x{}", row.original_bits, 1usize << row.original_bits),
            row.original_composition.clone(),
            format!("{:.3}", row.original_ns),
            format!("{:.3}", row.pd_ns),
            row.npd_composition.clone(),
            format!("{:.3}", row.npd_ns),
            format!("{:+.3}", row.slack_ns),
        ]);
    }
    format!(
        "Table 1: decoder timing, original vs B-Cache (PD = 6-bit CAM, BAS = 8)\n\
         (positive slack = the B-Cache does not lengthen the access time)\n{}",
        t.render()
    )
}

/// Renders Table 2: storage cost of the baseline versus the B-Cache.
pub fn render_table2() -> String {
    let (base, bc, overhead) = table2(&paper_params());
    let org = BCacheOrganization::paper_default(&paper_params());
    let mut t = TextTable::new(vec![
        "", "tag dec", "tag mem", "data dec", "data mem", "total",
    ]);
    t.row(vec![
        "Baseline".to_string(),
        "no mem cell".to_string(),
        format!("{} bits (20b x 512)", base.tag_bits),
        "no mem cell".to_string(),
        format!("{} bits (256b x 512)", base.data_bits),
        format!("{}", base.total()),
    ]);
    t.row(vec![
        "B-Cache".to_string(),
        format!("{} 6x{} CAM", org.tag.pd_count(), org.tag.pd_entries),
        format!("{} bits (17b x 512)", bc.tag_bits),
        format!("{} 6x{} CAM", org.data.pd_count(), org.data.pd_entries),
        format!("{} bits (256b x 512)", bc.data_bits),
        format!("{} (SRAM-equivalent)", bc.total()),
    ]);
    format!(
        "Table 2: storage cost analysis (CAM cell = 1.25 SRAM cells)\n{}\nB-Cache area overhead: {:.2}% (paper: 4.3%)\n",
        t.render(),
        overhead * 100.0
    )
}

/// Computes the Table 3 rows: per-access energy breakdowns.
pub fn table3_breakdowns() -> Vec<(String, EnergyBreakdown)> {
    let geom = |assoc| CacheGeometry::new(L1_BYTES, 32, assoc).expect("valid geometry");
    let mut rows = vec![
        ("Baseline".to_string(), conventional_access_pj(&geom(1))),
        ("B-Cache".to_string(), bcache_access_pj(&paper_params())),
    ];
    for ways in [2usize, 4, 8] {
        rows.push((format!("{ways}-way"), conventional_access_pj(&geom(ways))));
    }
    rows
}

/// Renders Table 3: energy (pJ) per cache access.
pub fn render_table3() -> String {
    let mut t = TextTable::new(vec![
        "config",
        "T-SA",
        "T-Dec",
        "T-BL-WL",
        "D-SA",
        "D-Dec",
        "D-BL-WL",
        "D-others",
        "PD-CAM",
        "Total(pJ)",
    ]);
    let rows = table3_breakdowns();
    let base_total = rows[0].1.total_pj();
    for (name, b) in &rows {
        t.row(vec![
            name.clone(),
            format!("{:.1}", b.t_sa),
            format!("{:.1}", b.t_dec),
            format!("{:.1}", b.t_bl_wl),
            format!("{:.1}", b.d_sa),
            format!("{:.1}", b.d_dec),
            format!("{:.1}", b.d_bl_wl),
            format!("{:.1}", b.d_others),
            format!("{:.1}", b.pd_cam),
            format!("{:.1}", b.total_pj()),
        ]);
    }
    let bc_total = rows[1].1.total_pj();
    format!(
        "Table 3: energy (pJ) per cache access, 16 kB / 32 B lines\n{}\nB-Cache per-access overhead vs baseline: {:+.1}% (paper: +10.5%)\n",
        t.render(),
        (bc_total / base_total - 1.0) * 100.0
    )
}

/// Renders Table 4: the processor configuration.
pub fn render_table4() -> String {
    let mut t = TextTable::new(vec!["parameter", "value"]);
    for (k, v) in table4_rows() {
        t.row(vec![k.to_string(), v]);
    }
    format!(
        "Table 4: baseline and B-Cache processor configuration\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shows_positive_slack_everywhere() {
        let s = render_table1();
        assert!(s.contains("Table 1"));
        assert!(!s.contains("-0."), "no negative slack expected:\n{s}");
        assert!(s.contains("8192B") && s.contains("512B"));
    }

    #[test]
    fn table2_matches_paper_overhead() {
        let s = render_table2();
        assert!(s.contains("4.3"), "{s}");
        assert!(s.contains("64 6x8 CAM"));
        assert!(s.contains("32 6x16 CAM"));
    }

    #[test]
    fn table3_reports_all_configs() {
        let s = render_table3();
        for name in ["Baseline", "B-Cache", "2-way", "4-way", "8-way"] {
            assert!(s.contains(name), "{s}");
        }
    }

    #[test]
    fn table4_mentions_the_window() {
        assert!(render_table4().contains("16 instructions"));
    }
}

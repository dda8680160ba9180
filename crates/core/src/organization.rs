//! Physical organization of the B-Cache decoders (paper Figure 2,
//! Sections 5.1–5.3).
//!
//! Cache memory is partitioned into subarrays; each subarray's original
//! local decoder is replaced by a pair of decoders whose outputs are
//! ANDed into the word-line driver:
//!
//! * a conventional **non-programmable decoder (NPD)** over the local NPI
//!   bits, and
//! * a CAM-based **programmable decoder (PD)**, one per cluster, holding
//!   one `PI`-bit entry per word line of the cluster.
//!
//! For the paper's 16 kB design the data memory has 4 subarrays (each
//! with eight 4×16 NPDs replaced… rather, eight 6×16 PDs and a 4×16 NPD
//! per cluster) and the tag memory has 8 subarrays with 6×8 PDs and 3×8
//! NPDs. This module computes those shapes for any configuration so the
//! timing/energy/area models in `power-model` and the Table 1/2/3
//! harnesses share one source of truth.

use std::fmt;

use cache_sim::addr::log2_exact;

use crate::params::BCacheParams;

/// How one memory (data or tag) of the cache is split into subarrays and
/// decoders.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ArrayOrganization {
    /// Number of identically sized subarrays.
    pub subarrays: usize,
    /// Word lines (cache lines) per subarray.
    pub lines_per_subarray: usize,
    /// Address bits consumed by the global (subarray-select) decoder.
    pub global_bits: u32,
    /// Address bits decoded by each local NPD.
    pub npd_bits: u32,
    /// Outputs of each local NPD (`2^npd_bits`).
    pub npd_outputs: usize,
    /// CAM width of each PD entry (the PI length). Zero for a
    /// conventional cache (no PDs).
    pub pd_width: u32,
    /// PD entries per cluster (`= npd_outputs`).
    pub pd_entries: usize,
    /// PDs (clusters) per subarray.
    pub pds_per_subarray: usize,
}

impl ArrayOrganization {
    /// Organization of a conventional direct-mapped array (no PDs).
    ///
    /// # Panics
    ///
    /// Panics if `subarrays` is zero, not a power of two, or exceeds the
    /// line count.
    pub fn conventional(total_lines: usize, subarrays: usize) -> Self {
        assert!(
            subarrays > 0 && subarrays.is_power_of_two() && subarrays <= total_lines,
            "invalid subarray count {subarrays} for {total_lines} lines"
        );
        let lines_per_subarray = total_lines / subarrays;
        let global_bits = log2_exact(subarrays as u64);
        let npd_bits = log2_exact(lines_per_subarray as u64);
        ArrayOrganization {
            subarrays,
            lines_per_subarray,
            global_bits,
            npd_bits,
            npd_outputs: lines_per_subarray,
            pd_width: 0,
            pd_entries: 0,
            pds_per_subarray: 0,
        }
    }

    /// Organization of a B-Cache array.
    ///
    /// The global decoder keeps its `log2(subarrays)` NPI bits (the least
    /// significant index bits, available without translation); the local
    /// decoder splits into a PD of width `PI` and an NPD over the
    /// remaining local NPI bits (paper Section 5.2).
    ///
    /// # Panics
    ///
    /// Panics if the subarray count is invalid or so large that the local
    /// NPI field would be negative (more subarrays than NPI groups).
    pub fn bcache(params: &BCacheParams, subarrays: usize) -> Self {
        let total_lines = params.geometry().lines();
        assert!(
            subarrays > 0 && subarrays.is_power_of_two() && subarrays <= total_lines,
            "invalid subarray count {subarrays} for {total_lines} lines"
        );
        let layout = params.layout();
        let global_bits = log2_exact(subarrays as u64);
        assert!(
            global_bits <= layout.npi_bits(),
            "global decoder ({global_bits} bits) must fit in the NPI ({} bits)",
            layout.npi_bits()
        );
        let npd_bits = layout.npi_bits() - global_bits;
        let lines_per_subarray = total_lines / subarrays;
        let npd_outputs = 1usize << npd_bits;
        // Each cluster occupies npd_outputs word lines of the subarray.
        let pds_per_subarray = lines_per_subarray / npd_outputs;
        debug_assert_eq!(pds_per_subarray, params.bas());
        ArrayOrganization {
            subarrays,
            lines_per_subarray,
            global_bits,
            npd_bits,
            npd_outputs,
            pd_width: layout.pi_bits(),
            pd_entries: npd_outputs,
            pds_per_subarray,
        }
    }

    /// Total CAM bits across all subarrays of this array.
    pub fn cam_bits(&self) -> usize {
        self.subarrays * self.pds_per_subarray * self.pd_entries * self.pd_width as usize
    }

    /// Total number of PD CAM blocks (`PDs per subarray × subarrays`).
    pub fn pd_count(&self) -> usize {
        self.subarrays * self.pds_per_subarray
    }
}

impl fmt::Display for ArrayOrganization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.pd_width == 0 {
            write!(
                f,
                "{} subarray(s) x {} lines, {}x{} local decoder",
                self.subarrays, self.lines_per_subarray, self.npd_bits, self.npd_outputs
            )
        } else {
            write!(
                f,
                "{} subarray(s) x {} lines, {} PD(s) of {}x{} CAM + {}x{} NPD each",
                self.subarrays,
                self.lines_per_subarray,
                self.pds_per_subarray,
                self.pd_width,
                self.pd_entries,
                self.npd_bits,
                self.npd_outputs
            )
        }
    }
}

/// The full physical organization of a B-Cache: data and tag memories
/// partitioned independently (Section 5.2).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BCacheOrganization {
    /// Data-memory organization.
    pub data: ArrayOrganization,
    /// Tag-memory organization.
    pub tag: ArrayOrganization,
}

/// Default subarray counts for the paper's 16 kB design: data memory in
/// 4 subarrays, tag memory in 8 (Section 3.2, reference \[21\]).
pub const PAPER_DATA_SUBARRAYS: usize = 4;
/// See [`PAPER_DATA_SUBARRAYS`].
pub const PAPER_TAG_SUBARRAYS: usize = 8;

impl BCacheOrganization {
    /// The paper's partitioning: 4 data subarrays, 8 tag subarrays.
    pub fn paper_default(params: &BCacheParams) -> Self {
        BCacheOrganization {
            data: ArrayOrganization::bcache(params, PAPER_DATA_SUBARRAYS),
            tag: ArrayOrganization::bcache(params, PAPER_TAG_SUBARRAYS),
        }
    }

    /// Total CAM bits across data and tag PDs.
    pub fn cam_bits(&self) -> usize {
        self.data.cam_bits() + self.tag.cam_bits()
    }

    /// Extra inverters needed to segment the CAM search bit lines
    /// (paper Figure 6(c) and Section 5.1).
    ///
    /// Each subarray routes one set of `PI` search lines past its PDs,
    /// and segmenting one search line takes nine inverters; the paper
    /// counts `9 x 6 x (8 + 4) = 648` for the 16 kB design and calls it
    /// "a fraction of the total area".
    pub fn search_line_inverters(&self) -> usize {
        9 * self.data.pd_width as usize * (self.data.subarrays + self.tag.subarrays)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{CacheGeometry, PolicyKind};

    fn paper_params() -> BCacheParams {
        let g = CacheGeometry::new(16 * 1024, 32, 1).unwrap();
        BCacheParams::new(g, 8, 8, PolicyKind::Lru).unwrap()
    }

    #[test]
    fn paper_data_organization() {
        // Section 3.2: data memory in 4 subarrays; each gets eight 6x16
        // PDs and 4x16 NPDs.
        let o = ArrayOrganization::bcache(&paper_params(), 4);
        assert_eq!(o.lines_per_subarray, 128);
        assert_eq!(o.global_bits, 2);
        assert_eq!(o.npd_bits, 4);
        assert_eq!(o.npd_outputs, 16);
        assert_eq!(o.pd_width, 6);
        assert_eq!(o.pd_entries, 16);
        assert_eq!(o.pds_per_subarray, 8);
        assert_eq!(o.pd_count(), 32, "thirty-two 6x16 CAMs for data PDs");
        assert_eq!(o.cam_bits(), 32 * 16 * 6);
    }

    #[test]
    fn paper_tag_organization() {
        // Section 5.2: tag memory in 8 subarrays; 6x8 PDs and 3x8 NPDs.
        let o = ArrayOrganization::bcache(&paper_params(), 8);
        assert_eq!(o.lines_per_subarray, 64);
        assert_eq!(o.global_bits, 3);
        assert_eq!(o.npd_bits, 3);
        assert_eq!(o.npd_outputs, 8);
        assert_eq!(o.pd_width, 6);
        assert_eq!(o.pd_entries, 8);
        assert_eq!(o.pds_per_subarray, 8);
        assert_eq!(o.pd_count(), 64, "sixty-four 6x8 CAMs for tag PDs");
        assert_eq!(o.cam_bits(), 64 * 8 * 6);
    }

    #[test]
    fn paper_total_cam_bits_match_table2() {
        // Table 2: 64 6x8 + 32 6x16 CAMs = 3072 + 3072 = 6144 CAM bits.
        let org = BCacheOrganization::paper_default(&paper_params());
        assert_eq!(org.cam_bits(), 6144);
    }

    #[test]
    fn search_line_segmentation_matches_the_paper() {
        // Section 5.1: 9 inverters per search line, 6 lines per subarray,
        // 8 tag + 4 data subarrays = 648 inverters.
        let org = BCacheOrganization::paper_default(&paper_params());
        assert_eq!(org.search_line_inverters(), 648);
    }

    #[test]
    fn conventional_organization() {
        let o = ArrayOrganization::conventional(512, 4);
        assert_eq!(o.lines_per_subarray, 128);
        assert_eq!(o.npd_bits, 7);
        assert_eq!(o.pd_width, 0);
        assert_eq!(o.cam_bits(), 0);
        assert_eq!(o.pd_count(), 0);
    }

    #[test]
    #[should_panic(expected = "invalid subarray count")]
    fn rejects_non_power_of_two_subarrays() {
        ArrayOrganization::conventional(512, 3);
    }

    #[test]
    #[should_panic(expected = "must fit in the NPI")]
    fn rejects_too_many_subarrays_for_npi() {
        // NPI is 6 bits; 128 subarrays would need 7 global bits.
        ArrayOrganization::bcache(&paper_params(), 128);
    }

    #[test]
    fn display_mentions_cam_shape() {
        let o = ArrayOrganization::bcache(&paper_params(), 4);
        let s = o.to_string();
        assert!(s.contains("6x16"), "{s}");
        let c = ArrayOrganization::conventional(512, 4);
        assert!(c.to_string().contains("local decoder"));
    }
}

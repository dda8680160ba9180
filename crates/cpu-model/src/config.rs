//! Processor configuration (paper Table 4).

use std::fmt;

/// Configuration of the out-of-order timing model.
///
/// Defaults reproduce the paper's Table 4: a 4-wide machine with a
/// 16-entry instruction window, four functional units, one-cycle L1s, a
/// 6-cycle 256 kB L2 and 100-cycle main memory.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CpuConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: u32,
    /// Instructions issued to functional units per cycle.
    pub issue_width: u32,
    /// Instructions retired per cycle.
    pub retire_width: u32,
    /// Instruction-window (ROB) entries.
    pub window: usize,
    /// Front-end depth: cycles from fetch to earliest dispatch.
    pub frontend_depth: u64,
    /// Extra cycles to redirect fetch after a mispredicted branch
    /// resolves.
    pub mispredict_penalty: u64,
    /// Latency of long operations (multiplies, FP arithmetic).
    pub long_op_latency: u64,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            fetch_width: 4,
            issue_width: 4,
            retire_width: 4,
            window: 16,
            frontend_depth: 3,
            mispredict_penalty: 3,
            long_op_latency: 4,
        }
    }
}

impl fmt::Display for CpuConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-wide fetch/issue/retire, {}-entry window",
            self.fetch_width, self.window
        )
    }
}

/// Renders the paper's Table 4 processor-configuration rows.
pub fn table4_rows() -> Vec<(&'static str, String)> {
    let c = CpuConfig::default();
    vec![
        (
            "Fetch/Issue/Retire Width",
            format!("{} instructions/cycle, 4 functional units", c.fetch_width),
        ),
        (
            "Instruction Window Size",
            format!("{} instructions", c.window),
        ),
        ("L1 cache", "16kB, 32B linesize, direct mapped".to_string()),
        (
            "L2 Unified Cache",
            "256kB, 128B linesize, 4-way, 6 cycle hit".to_string(),
        ),
        ("Main Memory", "Infinite size, 100 cycle access".to_string()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table4() {
        let c = CpuConfig::default();
        assert_eq!(c.fetch_width, 4);
        assert_eq!(c.issue_width, 4);
        assert_eq!(c.retire_width, 4);
        assert_eq!(c.window, 16);
    }

    #[test]
    fn table4_mentions_the_paper_parameters() {
        let rows = table4_rows();
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().any(|(_, v)| v.contains("16 instructions")));
        assert!(rows.iter().any(|(_, v)| v.contains("100 cycle")));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!CpuConfig::default().to_string().is_empty());
    }
}

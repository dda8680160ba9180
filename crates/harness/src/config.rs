//! The cache configurations compared throughout the paper's evaluation.

use cache_sim::{CacheModel, GeometryError, PolicyKind};

use crate::cli;
use crate::models::ModelSpec;

/// L1 capacity of the paper's headline design point, 16 kB: the size
/// every experiment that does not sweep it simulates.
pub const L1_BYTES: usize = 16 * 1024;

/// A named L1 configuration from the paper's figures.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CacheConfig {
    /// The baseline direct-mapped cache.
    DirectMapped,
    /// A conventional set-associative cache (LRU).
    SetAssoc(usize),
    /// Direct-mapped plus an `N`-entry victim buffer.
    Victim(usize),
    /// The B-Cache at a given `(MF, BAS)` point (LRU).
    BCache {
        /// Memory address mapping factor.
        mf: usize,
        /// B-Cache associativity.
        bas: usize,
    },
    /// Column-associative cache (related work, Section 7.1).
    ColumnAssoc,
    /// 2-way skewed-associative cache (related work, Section 7.1).
    SkewedAssoc,
    /// Highly-associative CAM-tag cache (Section 6.7).
    Hac,
    /// Way-halting 4-way cache (related work, Section 7.2).
    WayHalting,
    /// Adaptive group-associative cache (related work, Section 7.1).
    Agac,
    /// Partial-address-matching 2-way cache (related work, Section 7.2).
    Pam,
    /// Difference-bit 2-way cache (related work, Section 7.2).
    DiffBit,
}

impl CacheConfig {
    /// The nine configurations of Figures 4 and 5, in plotting order.
    pub fn figure4_set() -> Vec<CacheConfig> {
        vec![
            CacheConfig::SetAssoc(2),
            CacheConfig::SetAssoc(4),
            CacheConfig::SetAssoc(8),
            CacheConfig::SetAssoc(32),
            CacheConfig::Victim(16),
            CacheConfig::BCache { mf: 2, bas: 8 },
            CacheConfig::BCache { mf: 4, bas: 8 },
            CacheConfig::BCache { mf: 8, bas: 8 },
            CacheConfig::BCache { mf: 16, bas: 8 },
        ]
    }

    /// The twelve configurations of Figure 12.
    pub fn figure12_set() -> Vec<CacheConfig> {
        let mut v = vec![
            CacheConfig::SetAssoc(2),
            CacheConfig::SetAssoc(4),
            CacheConfig::SetAssoc(8),
            CacheConfig::Victim(16),
        ];
        for bas in [4usize, 8] {
            for mf in [2usize, 4, 8, 16] {
                v.push(CacheConfig::BCache { mf, bas });
            }
        }
        v
    }

    /// The five configurations of Figures 8 and 9 (plus the baseline).
    pub fn figure8_set() -> Vec<CacheConfig> {
        vec![
            CacheConfig::SetAssoc(2),
            CacheConfig::SetAssoc(4),
            CacheConfig::SetAssoc(8),
            CacheConfig::BCache { mf: 8, bas: 8 },
            CacheConfig::Victim(16),
        ]
    }

    /// The nine configurations of the Section 7.1 related-work
    /// comparison.
    pub fn related_set() -> Vec<CacheConfig> {
        vec![
            CacheConfig::ColumnAssoc,
            CacheConfig::SkewedAssoc,
            CacheConfig::Agac,
            CacheConfig::Pam,
            CacheConfig::DiffBit,
            CacheConfig::SetAssoc(2),
            CacheConfig::SetAssoc(4),
            CacheConfig::Hac,
            CacheConfig::BCache { mf: 8, bas: 8 },
        ]
    }

    /// The model spec of the configuration for an L1 of `size_bytes`
    /// with 32-byte lines; `seed` feeds the random policies.
    pub fn spec(&self, size_bytes: usize, seed: u64) -> ModelSpec {
        let (size, line) = (size_bytes, 32);
        match *self {
            CacheConfig::DirectMapped => ModelSpec::DirectMapped { size, line },
            CacheConfig::SetAssoc(ways) => ModelSpec::SetAssoc {
                size,
                line,
                ways,
                policy: PolicyKind::Lru,
                seed,
            },
            CacheConfig::Victim(entries) => ModelSpec::Victim {
                size,
                line,
                entries,
            },
            CacheConfig::BCache { mf, bas } => {
                ModelSpec::bcache(size, mf, bas, PolicyKind::Lru, seed)
            }
            CacheConfig::ColumnAssoc => ModelSpec::Column { size, line },
            CacheConfig::SkewedAssoc => ModelSpec::Skewed { size, line },
            // The HAC (32-way CAM subarrays), way-halting and
            // difference-bit caches hit and miss as LRU n-way arrays;
            // their energy and latency are priced analytically.
            CacheConfig::Hac => ModelSpec::lru(size, 32),
            CacheConfig::WayHalting => ModelSpec::lru(size, 4),
            CacheConfig::Agac => ModelSpec::Agac {
                size,
                line,
                entries: 64,
            },
            CacheConfig::Pam => ModelSpec::Pam {
                size,
                line,
                pad_bits: 5,
            },
            CacheConfig::DiffBit => ModelSpec::lru(size, 2),
        }
    }

    /// Instantiates the configuration for an L1 of `size_bytes` with
    /// 32-byte lines.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] if the shape is invalid (e.g. a BAS
    /// larger than the set count).
    pub fn build(
        &self,
        size_bytes: usize,
        seed: u64,
    ) -> Result<Box<dyn CacheModel>, GeometryError> {
        self.spec(size_bytes, seed).build()
    }

    /// Short label matching the paper's figure legends.
    pub fn label(&self) -> String {
        match *self {
            CacheConfig::DirectMapped => "baseline".into(),
            CacheConfig::SetAssoc(n) => format!("{n}way"),
            CacheConfig::Victim(n) => format!("victim{n}"),
            CacheConfig::BCache { mf, bas } => format!("MF{mf}-BAS{bas}"),
            CacheConfig::ColumnAssoc => "column".into(),
            CacheConfig::SkewedAssoc => "skew2".into(),
            CacheConfig::Hac => "hac32".into(),
            CacheConfig::WayHalting => "halt4".into(),
            CacheConfig::Agac => "agac".into(),
            CacheConfig::Pam => "pam5".into(),
            CacheConfig::DiffBit => "diffbit".into(),
        }
    }
}

/// The checkpoint/resume paths of the sweep experiments and `serve`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineSetup {
    /// `--checkpoint PATH`: persist results there, resuming if the
    /// file already matches this run.
    pub checkpoint: Option<String>,
    /// `--resume PATH`: the checkpoint must exist and match.
    pub resume: Option<String>,
}

impl EngineSetup {
    /// Whether `--checkpoint` or `--resume` was given.
    pub fn wants_checkpoint(&self) -> bool {
        self.checkpoint.is_some() || self.resume.is_some()
    }

    /// Attaches the requested checkpoint (if any) to `engine`, pinned
    /// to `experiment` at run length `len`. Returns whether one was
    /// attached; errors if `--resume` names a missing or mismatched
    /// checkpoint.
    pub fn attach_checkpoint(
        &self,
        engine: &crate::parallel::Engine,
        experiment: &str,
        len: crate::run::RunLength,
    ) -> Result<bool, String> {
        let meta = crate::checkpoint::CheckpointMeta::new(experiment, len);
        let ckpt = if let Some(path) = &self.resume {
            crate::checkpoint::Checkpoint::resume(std::path::Path::new(path), meta)?
        } else if let Some(path) = &self.checkpoint {
            crate::checkpoint::Checkpoint::load_or_create(std::path::Path::new(path), meta)?
        } else {
            return Ok(false);
        };
        engine.attach_checkpoint(ckpt);
        Ok(true)
    }
}

/// Options of `stats` and of the table and figure experiments: run
/// length, `--jobs`, `--csv` and the checkpoint flags (see
/// [`crate::cli`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunOptions {
    /// Trace length / warm-up / seed.
    pub len: crate::run::RunLength,
    /// Emit CSV instead of text tables where supported.
    pub csv: bool,
    /// Worker threads for the experiment engine (default: available
    /// parallelism). Any value produces identical output.
    pub jobs: usize,
    /// Checkpoint/resume paths.
    pub setup: EngineSetup,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            len: crate::run::RunLength::default(),
            csv: false,
            jobs: crate::parallel::default_parallelism(),
            setup: EngineSetup::default(),
        }
    }
}

impl RunOptions {
    /// Parses the option tail of a command line (everything after the
    /// experiment name). Unknown or malformed options return an error
    /// message naming the offender.
    pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<RunOptions, String> {
        let a = cli::parse(cli::EXPERIMENT_FLAGS, args)?;
        Ok(RunOptions {
            len: a.run_length(crate::run::RunLength::default().records)?,
            csv: a.has(&cli::CSV),
            jobs: a.jobs(),
            setup: a.setup(),
        })
    }

    /// Builds the experiment engine these options describe
    /// (checkpoints attach separately — they need the experiment
    /// identity; see [`EngineSetup::attach_checkpoint`]).
    pub fn engine(&self) -> crate::parallel::Engine {
        crate::parallel::Engine::new(self.jobs)
    }
}

/// Rejects run lengths whose measured region is empty: zero records,
/// or a warm-up that consumes the whole trace (statistics reset at the
/// warm-up mark, so `warmup >= records` would report miss rates over
/// zero accesses — NaN — instead of failing).
pub fn validate_len(len: crate::run::RunLength) -> Result<(), String> {
    if len.records == 0 {
        return Err("--records must be positive".into());
    }
    if len.warmup >= len.records {
        return Err(format!(
            "--warmup {} leaves no measured records (--records {}): the warm-up \
             prefix must be shorter than the trace",
            len.warmup, len.records
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_sets_have_the_papers_counts() {
        assert_eq!(CacheConfig::figure4_set().len(), 9);
        assert_eq!(CacheConfig::figure12_set().len(), 12);
        assert_eq!(CacheConfig::figure8_set().len(), 5);
    }

    #[test]
    fn bcache_build_reports_the_parameter_it_rejects() {
        let err = |mf, bas| {
            let e = CacheConfig::BCache { mf, bas }.build(16 * 1024, 0).err();
            e.map(|e| e.to_string()).unwrap_or_default()
        };
        assert_eq!(err(3, 8), "MF must be a nonzero power of two, got 3");
        assert_eq!(err(8, 1024), "associativity 1024 exceeds line count 512");
        // 16 kB of 32-byte lines leaves an 18-bit tag; MF 2^19 needs
        // offset 5 + index 9 + 19 programmable bits.
        assert_eq!(
            err(1 << 19, 8),
            "address width 32 cannot hold 33 offset+index bits"
        );
    }

    #[test]
    fn labels_match_figure_legends() {
        assert_eq!(CacheConfig::SetAssoc(8).label(), "8way");
        assert_eq!(CacheConfig::Victim(16).label(), "victim16");
        assert_eq!(CacheConfig::BCache { mf: 8, bas: 8 }.label(), "MF8-BAS8");
    }

    #[test]
    fn run_options_parse_all_flags() {
        let o = RunOptions::parse(&["--records", "5000", "--seed", "7", "--jobs", "3", "--csv"])
            .unwrap();
        assert_eq!(o.len.records, 5_000);
        assert_eq!(o.len.warmup, 500);
        assert_eq!(o.len.seed, 7);
        assert_eq!(o.jobs, 3);
        assert!(o.csv);
        assert_eq!(o.engine().jobs(), 3);
        // Seed given before --records survives the rescale.
        let o = RunOptions::parse(&["--seed", "9", "--records", "100"]).unwrap();
        assert_eq!(o.len.seed, 9);
    }

    #[test]
    fn run_options_reject_bad_input() {
        assert!(RunOptions::parse(&["--frobnicate"]).is_err());
        assert!(RunOptions::parse(&["--records"]).is_err());
        assert!(RunOptions::parse(&["--records", "many"]).is_err());
        assert!(RunOptions::parse(&["--jobs", "0"]).is_err());
        let d = RunOptions::parse::<&str>(&[]).unwrap();
        assert_eq!(d.len, crate::run::RunLength::default());
        assert!(d.jobs >= 1);
    }

    #[test]
    fn run_options_parse_checkpoint_paths() {
        let o = RunOptions::parse(&["--checkpoint", "/tmp/x.jsonl"]).unwrap();
        assert_eq!(o.setup.checkpoint.as_deref(), Some("/tmp/x.jsonl"));
        assert!(o.setup.wants_checkpoint());
        let o = RunOptions::parse(&["--resume", "/tmp/y.jsonl"]).unwrap();
        assert_eq!(o.setup.resume.as_deref(), Some("/tmp/y.jsonl"));
        assert!(o.setup.wants_checkpoint());
        assert!(!RunOptions::parse::<&str>(&[])
            .unwrap()
            .setup
            .wants_checkpoint());
    }

    #[test]
    fn empty_measured_region_is_a_clean_error() {
        // Warm-up consuming the whole trace used to replay an empty
        // measured region (NaN miss rates); now it is a CLI error.
        let err = RunOptions::parse(&["--records", "1000", "--warmup", "1000"]).unwrap_err();
        assert!(err.contains("warm-up"), "err: {err}");
        assert!(RunOptions::parse(&["--records", "1000", "--warmup", "2000"]).is_err());
        assert!(RunOptions::parse(&["--records", "0"]).is_err());
        let o = RunOptions::parse(&["--records", "1000", "--warmup", "999"]).unwrap();
        assert_eq!(o.len.warmup, 999);
    }
}

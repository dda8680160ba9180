//! Checkpoint/resume for long experiment sweeps.
//!
//! A [`Checkpoint`] is an append-friendly JSONL file holding the
//! results of completed jobs, each keyed by a deterministic identity
//! (`scope/key`, e.g. `fig3/gzip/mf8`) rather than by anything
//! scheduling-dependent. The header pins the run parameters
//! ([`CheckpointMeta`]: experiment name, records, warmup, seed), so a
//! stale checkpoint from a different sweep is rejected instead of
//! silently corrupting results.
//!
//! Values are encoded through [`CheckpointValue`]. Floating-point
//! results round-trip through their **bit pattern** (`f64::to_bits` as
//! hex), never through decimal formatting — that is what makes a
//! resumed sweep byte-identical to an uninterrupted one.
//!
//! Each completed job appends one line and fsyncs it, so a sweep writes
//! O(n) bytes. A crash mid-append can leave a cut-off final line, which
//! [`Checkpoint::resume`] drops (that job simply re-runs). The log is
//! compacted — rewritten with one line per live key through a temp file
//! that is synced before it is renamed over the checkpoint — when it
//! holds more than twice the live entries, and on [`Checkpoint::flush`].
//! A failed append is followed by a rewrite, never by another append.
//!
//! No serde: the format is a fixed two-field object per line, parsed
//! with the same hand-rolled helpers the bench baseline reader uses.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::run::{BCachePdOutcome, RunLength};
use crate::serve::protocol::{json_str_field, json_u64_field};

/// A job result that can be persisted in a checkpoint and restored
/// **bit-exactly**.
pub trait CheckpointValue: Sized {
    /// Encodes the value as a single-line string (no `"`/`\n`).
    fn encode(&self) -> String;
    /// Decodes a value previously produced by [`Self::encode`];
    /// `None` on malformed input (the job then simply re-runs).
    fn decode(encoded: &str) -> Option<Self>;
}

impl CheckpointValue for f64 {
    fn encode(&self) -> String {
        // Bit pattern, not decimal: decimal round-trips are not
        // byte-stable across formatting changes; bits are.
        format!("{:016x}", self.to_bits())
    }

    fn decode(encoded: &str) -> Option<Self> {
        u64::from_str_radix(encoded, 16).ok().map(f64::from_bits)
    }
}

impl CheckpointValue for u64 {
    fn encode(&self) -> String {
        self.to_string()
    }

    fn decode(encoded: &str) -> Option<Self> {
        encoded.parse().ok()
    }
}

impl CheckpointValue for BCachePdOutcome {
    fn encode(&self) -> String {
        format!(
            "{:016x};{:016x}",
            self.miss_rate.to_bits(),
            self.pd_hit_rate_on_miss.to_bits()
        )
    }

    fn decode(encoded: &str) -> Option<Self> {
        let (miss, pd) = encoded.split_once(';')?;
        Some(BCachePdOutcome {
            miss_rate: f64::decode(miss)?,
            pd_hit_rate_on_miss: f64::decode(pd)?,
        })
    }
}

/// The run parameters a checkpoint is valid for. Resuming with
/// mismatched parameters is an error — a checkpoint taken at
/// `--records 2000000` must not feed a `--records 30000` sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Experiment name (`fig3`, `all`, …).
    pub experiment: String,
    /// Trace records per job.
    pub records: u64,
    /// Warm-up records per job.
    pub warmup: u64,
    /// Sweep base seed.
    pub seed: u64,
}

impl CheckpointMeta {
    /// Meta for `experiment` at run length `len`.
    pub fn new(experiment: &str, len: RunLength) -> Self {
        CheckpointMeta {
            experiment: experiment.to_string(),
            records: len.records,
            warmup: len.warmup,
            seed: len.seed,
        }
    }
}

impl fmt::Display for CheckpointMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (records {}, warmup {}, seed {})",
            self.experiment, self.records, self.warmup, self.seed
        )
    }
}

/// A persistent key→value store of completed job results.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    meta: CheckpointMeta,
    entries: BTreeMap<String, String>,
    /// Entry lines in the file, superseded ones included.
    logged: usize,
    /// Append handle on the file, present only while the file ends on a
    /// complete line; without one the next `put` rewrites the file.
    log: Option<File>,
}

impl Checkpoint {
    /// Starts a fresh checkpoint at `path`, overwriting any existing
    /// file, and writes the header immediately.
    pub fn create(path: &Path, meta: CheckpointMeta) -> io::Result<Checkpoint> {
        let mut ckpt = Checkpoint {
            path: path.to_path_buf(),
            meta,
            entries: BTreeMap::new(),
            logged: 0,
            log: None,
        };
        ckpt.flush()?;
        Ok(ckpt)
    }

    /// Loads an existing checkpoint at `path` for resumption. Errors
    /// if the file is missing/unreadable/malformed or its header does
    /// not match `meta`. A final line with no newline is the remains of
    /// an interrupted append: it is dropped and the file compacted.
    pub fn resume(path: &Path, meta: CheckpointMeta) -> Result<Checkpoint, String> {
        let mut text = fs::read_to_string(path)
            .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
        let cut_off = !text.ends_with('\n');
        if cut_off {
            text.truncate(text.rfind('\n').map_or(0, |i| i + 1));
        }
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines
            .next()
            .ok_or_else(|| format!("checkpoint {} is empty", path.display()))?;
        let found = CheckpointMeta {
            experiment: json_str_field(header, "experiment")
                .ok_or_else(|| format!("checkpoint {}: malformed header", path.display()))?,
            records: json_u64_field(header, "records")
                .ok_or_else(|| format!("checkpoint {}: malformed header", path.display()))?,
            warmup: json_u64_field(header, "warmup")
                .ok_or_else(|| format!("checkpoint {}: malformed header", path.display()))?,
            seed: json_u64_field(header, "seed")
                .ok_or_else(|| format!("checkpoint {}: malformed header", path.display()))?,
        };
        if found != meta {
            return Err(format!(
                "checkpoint {} was taken for {found}, but this run is {meta}",
                path.display()
            ));
        }
        let mut entries = BTreeMap::new();
        let mut logged = 0;
        for line in lines {
            let key = json_str_field(line, "key").ok_or_else(|| {
                format!("checkpoint {}: malformed entry {line:?}", path.display())
            })?;
            let value = json_str_field(line, "value").ok_or_else(|| {
                format!("checkpoint {}: malformed entry {line:?}", path.display())
            })?;
            entries.insert(key, value);
            logged += 1;
        }
        let mut ckpt = Checkpoint {
            path: path.to_path_buf(),
            meta,
            entries,
            logged,
            log: OpenOptions::new().append(true).open(path).ok(),
        };
        if cut_off || ckpt.needs_compaction() {
            ckpt.flush()
                .map_err(|e| format!("cannot rewrite checkpoint {}: {e}", path.display()))?;
        }
        Ok(ckpt)
    }

    /// Resumes from `path` if a checkpoint with matching `meta` exists
    /// there, otherwise starts fresh. Used by `--checkpoint` (whereas
    /// `--resume` demands the file exist).
    pub fn load_or_create(path: &Path, meta: CheckpointMeta) -> Result<Checkpoint, String> {
        if path.exists() {
            Checkpoint::resume(path, meta)
        } else {
            Checkpoint::create(path, meta)
                .map_err(|e| format!("cannot create checkpoint {}: {e}", path.display()))
        }
    }

    /// The checkpoint file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The run parameters the checkpoint is pinned to.
    pub fn meta(&self) -> &CheckpointMeta {
        &self.meta
    }

    /// The stored encoding of `key`, if the job already completed.
    pub fn get(&self, key: &str) -> Option<String> {
        self.entries.get(key).cloned()
    }

    /// Records the result of one completed job: appends its line and
    /// fsyncs it, so the checkpoint is never more than one job behind
    /// reality. Compacts the file once superseded lines outnumber the
    /// live ones.
    pub fn put(&mut self, key: &str, value: &str) -> io::Result<()> {
        self.entries.insert(key.to_string(), value.to_string());
        let line = entry_line(key, value);
        let appended = self.log.as_mut().is_some_and(|log| {
            log.write_all(line.as_bytes())
                .and_then(|()| log.sync_data())
                .is_ok()
        });
        if appended {
            self.logged += 1;
        }
        // A failed append may have left a partial line, so the file is
        // rewritten rather than appended to again.
        if !appended || self.needs_compaction() {
            self.flush()?;
        }
        Ok(())
    }

    /// Whether the log holds more than twice the live entries.
    fn needs_compaction(&self) -> bool {
        self.logged > 2 * self.entries.len()
    }

    /// Atomically and durably rewrites the checkpoint file with one line
    /// per live entry (temp file, fsync, rename, fsync of the directory).
    pub fn flush(&mut self) -> io::Result<()> {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"checkpoint\": {{\"experiment\": \"{}\", \"records\": {}, \"warmup\": {}, \"seed\": {}}}}}\n",
            self.meta.experiment, self.meta.records, self.meta.warmup, self.meta.seed
        ));
        for (key, value) in &self.entries {
            out.push_str(&entry_line(key, value));
        }
        self.log = None;
        let tmp = self.path.with_extension("tmp");
        let mut file = File::create(&tmp)?;
        file.write_all(out.as_bytes())?;
        // The bytes reach the disk before the rename publishes them, so
        // a power loss leaves the old snapshot or the new one, never an
        // empty file.
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, &self.path)?;
        // The rename is durable once the directory entry is.
        #[cfg(unix)]
        {
            let dir = match self.path.parent() {
                Some(dir) if !dir.as_os_str().is_empty() => dir,
                _ => Path::new("."),
            };
            File::open(dir)?.sync_all()?;
        }
        self.logged = self.entries.len();
        self.log = Some(OpenOptions::new().append(true).open(&self.path)?);
        Ok(())
    }

    /// Number of stored results.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no results are stored yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One entry's log line.
fn entry_line(key: &str, value: &str) -> String {
    format!("{{\"key\": \"{key}\", \"value\": \"{value}\"}}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("bcache-ckpt-{tag}-{}.jsonl", std::process::id()))
    }

    fn meta() -> CheckpointMeta {
        CheckpointMeta::new("fig3", RunLength::with_records(30_000))
    }

    #[test]
    fn values_round_trip_bit_exactly() {
        for bits in [0u64, 1, f64::to_bits(0.123456789), f64::to_bits(f64::NAN)] {
            let v = f64::from_bits(bits);
            let back = f64::decode(&v.encode()).unwrap();
            assert_eq!(back.to_bits(), bits);
        }
        assert_eq!(u64::decode(&u64::MAX.encode()), Some(u64::MAX));
        let outcome = BCachePdOutcome {
            miss_rate: 0.0123,
            pd_hit_rate_on_miss: 0.987,
        };
        let back = BCachePdOutcome::decode(&outcome.encode()).unwrap();
        assert_eq!(back.miss_rate.to_bits(), outcome.miss_rate.to_bits());
        assert_eq!(
            back.pd_hit_rate_on_miss.to_bits(),
            outcome.pd_hit_rate_on_miss.to_bits()
        );
        assert_eq!(f64::decode("not hex"), None);
        assert_eq!(BCachePdOutcome::decode("deadbeef"), None);
    }

    #[test]
    fn non_finite_and_signed_zero_payloads_round_trip_bit_exactly() {
        // The hex encoding must preserve every IEEE-754 special value a
        // miss-rate computation can emit (0/0 on an empty cell, ±inf on
        // a degenerate ratio, a negative zero from a subtraction) —
        // including NaN payload bits and the sign of zero, both of
        // which decimal formatting would destroy.
        let edge_cases = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0001), // signalling-NaN pattern
            f64::from_bits(0xFFF8_DEAD_BEEF_CAFE), // NaN with payload bits
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0, // subnormal
            f64::MAX,
        ];
        for v in edge_cases {
            let encoded = v.encode();
            assert_eq!(encoded.len(), 16, "fixed-width hex for {v:?}");
            let back = f64::decode(&encoded).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "bits drifted for {v:?}");
        }
        assert!(
            (-0.0f64).encode() != 0.0f64.encode(),
            "the sign of zero must be visible in the encoding"
        );
    }

    #[test]
    fn checkpoint_persists_non_finite_values_across_resume() {
        let path = tmp_path("nonfinite");
        let mut ckpt = Checkpoint::create(&path, meta()).unwrap();
        ckpt.put("edge/nan", &f64::NAN.encode()).unwrap();
        ckpt.put("edge/inf", &f64::INFINITY.encode()).unwrap();
        ckpt.put("edge/ninf", &f64::NEG_INFINITY.encode()).unwrap();
        ckpt.put("edge/nzero", &(-0.0f64).encode()).unwrap();
        let loaded = Checkpoint::resume(&path, meta()).unwrap();
        let get = |k: &str| f64::decode(&loaded.get(k).unwrap()).unwrap();
        assert!(get("edge/nan").is_nan());
        assert_eq!(get("edge/inf"), f64::INFINITY);
        assert_eq!(get("edge/ninf"), f64::NEG_INFINITY);
        assert_eq!(get("edge/nzero").to_bits(), (-0.0f64).to_bits());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_survives_a_write_load_cycle() {
        let path = tmp_path("cycle");
        let mut ckpt = Checkpoint::create(&path, meta()).unwrap();
        assert!(ckpt.is_empty());
        ckpt.put("fig3/gzip/mf8", &0.0421f64.encode()).unwrap();
        ckpt.put("fig3/gzip/mf16", &0.0399f64.encode()).unwrap();
        assert_eq!(ckpt.len(), 2);
        assert!(
            !path.with_extension("tmp").exists(),
            "flush renames its temp file away"
        );

        let loaded = Checkpoint::resume(&path, meta()).unwrap();
        assert_eq!(loaded.len(), 2);
        let v = f64::decode(&loaded.get("fig3/gzip/mf8").unwrap()).unwrap();
        assert_eq!(v.to_bits(), 0.0421f64.to_bits());
        assert_eq!(loaded.get("fig3/gzip/mf32"), None);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn puts_append_lines_and_compact_superseded_ones() {
        let path = tmp_path("append");
        let mut ckpt = Checkpoint::create(&path, meta()).unwrap();
        let lines = |p: &Path| fs::read_to_string(p).unwrap().lines().count();
        for (i, key) in ["a", "b", "c"].iter().enumerate() {
            ckpt.put(key, &i.to_string()).unwrap();
            assert_eq!(lines(&path), 2 + i, "header + one line per put");
        }
        // Rewriting one key grows the log until superseded lines
        // outnumber the live ones, then the file is compacted.
        for i in 0..20u64 {
            ckpt.put("a", &i.to_string()).unwrap();
            assert!(
                lines(&path) <= 1 + 2 * ckpt.len(),
                "log never exceeds 2x live"
            );
        }
        assert_eq!(ckpt.len(), 3);
        ckpt.flush().unwrap();
        assert_eq!(lines(&path), 4, "flush leaves one line per live key");
        let loaded = Checkpoint::resume(&path, meta()).unwrap();
        assert_eq!(loaded.get("a").as_deref(), Some("19"));
        assert_eq!(loaded.get("c").as_deref(), Some("2"));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resume_drops_a_cut_off_final_entry() {
        let path = tmp_path("cutoff");
        let mut ckpt = Checkpoint::create(&path, meta()).unwrap();
        ckpt.put("fig3/gzip/mf8", &0.0421f64.encode()).unwrap();
        ckpt.put("fig3/gzip/mf16", &0.0399f64.encode()).unwrap();
        drop(ckpt);
        // A crash mid-append: the last line stops partway through.
        let mut text = fs::read_to_string(&path).unwrap();
        let cut = text.trim_end().len() - 8;
        text.truncate(cut);
        fs::write(&path, &text).unwrap();

        let mut resumed = Checkpoint::resume(&path, meta()).unwrap();
        assert_eq!(resumed.len(), 1);
        assert!(resumed.get("fig3/gzip/mf8").is_some());
        assert_eq!(
            resumed.get("fig3/gzip/mf16"),
            None,
            "the cut-off job re-runs"
        );
        // The next append starts on a clean line.
        resumed.put("fig3/gzip/mf16", &0.0399f64.encode()).unwrap();
        let again = Checkpoint::resume(&path, meta()).unwrap();
        assert_eq!(again.len(), 2);
        let v = f64::decode(&again.get("fig3/gzip/mf16").unwrap()).unwrap();
        assert_eq!(v.to_bits(), 0.0399f64.to_bits());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_failed_append_falls_back_to_a_rewrite() {
        let path = tmp_path("failed-append");
        let mut ckpt = Checkpoint::create(&path, meta()).unwrap();
        ckpt.put("a", "1").unwrap();
        // A read-only handle fails every append, as a full disk would.
        ckpt.log = Some(File::open(&path).unwrap());
        ckpt.put("b", "2").unwrap();
        ckpt.put("c", "3").unwrap();
        let loaded = Checkpoint::resume(&path, meta()).unwrap();
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded.get("b").as_deref(), Some("2"));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn mismatched_meta_is_rejected() {
        let path = tmp_path("mismatch");
        let mut ckpt = Checkpoint::create(&path, meta()).unwrap();
        ckpt.put("k", "0").unwrap();
        let other = CheckpointMeta::new("fig3", RunLength::with_records(40_000));
        let err = Checkpoint::resume(&path, other).unwrap_err();
        assert!(err.contains("records 30000"), "err: {err}");
        let other = CheckpointMeta::new("fig4", RunLength::with_records(30_000));
        assert!(Checkpoint::resume(&path, other).is_err());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resume_demands_an_existing_file_but_load_or_create_does_not() {
        let path = tmp_path("fresh");
        let _ = fs::remove_file(&path);
        assert!(Checkpoint::resume(&path, meta()).is_err());
        let ckpt = Checkpoint::load_or_create(&path, meta()).unwrap();
        assert!(ckpt.is_empty());
        // Second load_or_create resumes the file the first one wrote.
        let again = Checkpoint::load_or_create(&path, meta()).unwrap();
        assert!(again.is_empty());
        let _ = fs::remove_file(&path);
    }
}

//! Output digests and the pinned golden file.
//!
//! Each simulator workload folds its exact outputs — f64 bit patterns,
//! cycle and event counts — into one 64-bit FNV-1a digest per rep.
//! `golden/digests.txt` pins the digest for seed 1 (the default) and
//! seed 2 (held out for claims) at both scales; `bcache-bench bless`
//! rewrites it. A run whose seed has no pinned digest is checked
//! against an independent simulation path instead (see [`crate::sim`]).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::{Scale, Workload};

/// FNV-1a over 64-bit words and strings.
#[derive(Copy, Clone, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// An empty digest.
    pub fn new() -> Digest {
        Digest::default()
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Folds in one word.
    pub fn word(&mut self, w: u64) -> &mut Digest {
        for b in w.to_le_bytes() {
            self.byte(b);
        }
        self
    }

    /// Folds in the exact bits of an f64.
    pub fn float(&mut self, v: f64) -> &mut Digest {
        self.word(v.to_bits())
    }

    /// Folds in a string, length-prefixed so concatenations differ.
    pub fn text(&mut self, s: &str) -> &mut Digest {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.byte(b);
        }
        self
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The seeds `bless` pins: the default and the held-out seed.
pub const PINNED_SEEDS: [u64; 2] = [1, 2];

/// The golden directory of this crate.
pub fn default_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/golden"))
}

fn file(dir: &Path) -> PathBuf {
    dir.join("digests.txt")
}

/// One pinned digest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Entry {
    /// Workload name.
    pub workload: String,
    /// Scale name.
    pub scale: String,
    /// Seed.
    pub seed: u64,
    /// Pinned digest.
    pub digest: u64,
}

/// Reads the golden file of `dir`; a missing file is an empty set.
pub fn load(dir: &Path) -> Result<Vec<Entry>, String> {
    let path = file(dir);
    match std::fs::read_to_string(&path) {
        Ok(text) => parse(&text).map_err(|e| format!("{}: {e}", path.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Parses golden-file text: `workload scale seed hex-digest` lines,
/// `#` comments and blank lines ignored.
pub fn parse(text: &str) -> Result<Vec<Entry>, String> {
    let mut entries = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("line {}: malformed {line:?}", n + 1);
        let f: Vec<&str> = line.split_whitespace().collect();
        let [workload, scale, seed, digest] = f[..] else {
            return Err(bad());
        };
        entries.push(Entry {
            workload: workload.to_string(),
            scale: scale.to_string(),
            seed: seed.parse().map_err(|_| bad())?,
            digest: u64::from_str_radix(digest, 16).map_err(|_| bad())?,
        });
    }
    Ok(entries)
}

/// Renders entries as golden-file text (what [`parse`] reads).
pub fn render(entries: &[Entry]) -> String {
    let mut out = String::from(
        "# bcache-bench golden output digests: workload scale seed digest.\n\
         # Regenerate with `bcache-bench bless`; a change here is a change of\n\
         # simulated results and must be explained.\n",
    );
    for e in entries {
        let _ = writeln!(
            out,
            "{} {} {} {:016x}",
            e.workload, e.scale, e.seed, e.digest
        );
    }
    out
}

/// The pinned digest of `(workload, scale, seed)`, if any.
pub fn lookup(entries: &[Entry], w: Workload, scale: Scale, seed: u64) -> Option<u64> {
    entries
        .iter()
        .find(|e| e.workload == w.name() && e.scale == scale.name() && e.seed == seed)
        .map(|e| e.digest)
}

/// Writes `entries` as the golden file of `dir`.
pub fn store(dir: &Path, entries: &[Entry]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = file(dir);
    std::fs::write(&path, render(entries)).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_inputs() {
        let d = |f: &dyn Fn(&mut Digest)| {
            let mut d = Digest::new();
            f(&mut d);
            d.finish()
        };
        assert_ne!(d(&|d| _ = d.word(1)), d(&|d| _ = d.word(2)));
        assert_ne!(
            d(&|d| _ = d.text("ab").text("c")),
            d(&|d| _ = d.text("a").text("bc"))
        );
        assert_ne!(d(&|d| _ = d.float(0.0)), d(&|d| _ = d.float(-0.0)));
        assert_eq!(d(&|d| _ = d.word(7)), d(&|d| _ = d.word(7)));
    }

    #[test]
    fn golden_text_round_trips() {
        let entries = vec![
            Entry {
                workload: "paper-sweep".into(),
                scale: "full".into(),
                seed: 1,
                digest: 0xdead_beef,
            },
            Entry {
                workload: "replay-hit".into(),
                scale: "smoke".into(),
                seed: 2,
                digest: u64::MAX,
            },
        ];
        let back = parse(&render(&entries)).unwrap();
        assert_eq!(back, entries);
        assert_eq!(
            lookup(&back, Workload::ReplayHit, Scale::Smoke, 2),
            Some(u64::MAX)
        );
        assert_eq!(lookup(&back, Workload::ReplayHit, Scale::Full, 2), None);
        assert!(parse("paper-sweep full x 00\n").is_err());
        assert!(parse("paper-sweep full 1\n").is_err());
        assert_eq!(parse("# only a comment\n\n").unwrap(), Vec::new());
    }
}

//! The trace generator: turns a [`BenchmarkProfile`] into a deterministic
//! stream of [`TraceRecord`]s.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::code::CodeWalker;
use crate::profile::{BenchmarkProfile, ProfileError};
use crate::record::{Op, TraceBuffer, TraceRecord};
use crate::streams::StreamState;

/// An infinite, deterministic instruction trace.
///
/// The same `(profile, seed)` pair always yields the same stream, which
/// makes every experiment in the harness reproducible.
///
/// # Examples
///
/// ```
/// use trace_gen::{profiles, Trace};
///
/// let profile = profiles::by_name("equake").unwrap();
/// let records: Vec<_> = Trace::new(&profile, 1).take(5).collect();
/// assert_eq!(records.len(), 5);
/// // Determinism: a second generator produces the identical prefix.
/// let again: Vec<_> = Trace::new(&profile, 1).take(5).collect();
/// assert_eq!(records, again);
/// ```
#[derive(Clone, Debug)]
pub struct Trace {
    rng: StdRng,
    code: CodeWalker,
    streams: Vec<StreamState>,
    weights: Vec<f64>,
    total_weight: f64,
    mix: crate::profile::InstrMix,
    mispredict_rate: f64,
}

impl Trace {
    /// Creates a generator for `profile` seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if [`BenchmarkProfile::validate`] rejects the profile —
    /// no data streams, non-positive stream weights, empty working
    /// sets, or an invalid mix. Use [`Trace::try_new`] for a clean
    /// error instead.
    pub fn new(profile: &BenchmarkProfile, seed: u64) -> Self {
        match Self::try_new(profile, seed) {
            Ok(trace) => trace,
            Err(ProfileError::NoDataStreams) => {
                panic!("profile must have at least one data stream")
            }
            Err(ProfileError::InvalidMix) => panic!("invalid instruction mix"),
            Err(e @ ProfileError::BadStreamWeight { .. }) => {
                panic!("stream weights must be positive: {e}")
            }
            Err(e) => panic!("invalid profile: {e}"),
        }
    }

    /// Creates a generator for `profile` seeded with `seed`, validating
    /// the profile first.
    ///
    /// # Errors
    ///
    /// The first [`ProfileError`] found by
    /// [`BenchmarkProfile::validate`]. Historically zero-weight streams
    /// and empty working sets were accepted silently (a zero-weight
    /// stream could even be drawn through floating-point residue in the
    /// weighted selection); they are rejected here.
    pub fn try_new(profile: &BenchmarkProfile, seed: u64) -> Result<Self, ProfileError> {
        profile.validate()?;
        let streams: Vec<StreamState> = profile.data.iter().map(|(_, s)| s.instantiate()).collect();
        let weights: Vec<f64> = profile.data.iter().map(|(w, _)| *w).collect();
        let total_weight: f64 = weights.iter().sum();
        Ok(Trace {
            rng: StdRng::seed_from_u64(seed ^ 0xB1A5_CACE),
            code: profile.code.walker(),
            streams,
            weights,
            total_weight,
            mix: profile.mix,
            mispredict_rate: profile.mispredict_rate,
        })
    }

    /// Packs the first `records` records into a [`TraceBuffer`] — the
    /// form the experiment engine caches and replays.
    pub fn take_buffer(self, records: usize) -> TraceBuffer {
        let mut buf = TraceBuffer::with_capacity(records);
        buf.extend(self.take(records));
        buf.shrink_to_fit();
        buf
    }

    fn next_data_addr(&mut self) -> u64 {
        let mut draw = self.rng.gen_range(0.0..self.total_weight);
        let mut idx = self.streams.len() - 1;
        for (i, w) in self.weights.iter().enumerate() {
            if draw < *w {
                idx = i;
                break;
            }
            draw -= w;
        }
        self.streams[idx].next(&mut self.rng)
    }
}

impl Iterator for Trace {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        let pc = self.code.next_pc(&mut self.rng);
        // Loop back-edges are always branches; other instruction classes
        // are sampled from the mix.
        let op = if self.code.took_back_edge() {
            Op::Branch {
                mispredict: self.rng.gen_bool(self.mispredict_rate),
            }
        } else {
            let u: f64 = self.rng.gen();
            let m = self.mix;
            if u < m.load {
                Op::Load(self.next_data_addr())
            } else if u < m.load + m.store {
                Op::Store(self.next_data_addr())
            } else if u < m.load + m.store + m.branch {
                Op::Branch {
                    mispredict: self.rng.gen_bool(self.mispredict_rate),
                }
            } else if u < m.load + m.store + m.branch + m.long {
                Op::Long
            } else {
                Op::Alu
            }
        };
        Some(TraceRecord { pc, op })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::CodeLayout;
    use crate::profile::{InstrMix, Suite};
    use crate::streams::StreamSpec;

    fn toy_profile() -> BenchmarkProfile {
        BenchmarkProfile {
            name: "toy",
            suite: Suite::Int,
            code: CodeLayout::tiny(0x40_0000, 2048),
            data: vec![
                (
                    3.0,
                    StreamSpec::Hot {
                        base: 0x1000_0000,
                        bytes: 8192,
                    },
                ),
                (
                    1.0,
                    StreamSpec::Strided {
                        base: 0x2000_0000,
                        bytes: 1 << 20,
                        stride: 8,
                    },
                ),
            ],
            mix: InstrMix::int(),
            mispredict_rate: 0.05,
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = toy_profile();
        let a: Vec<_> = Trace::new(&p, 9).take(2000).collect();
        let b: Vec<_> = Trace::new(&p, 9).take(2000).collect();
        assert_eq!(a, b);
        let c: Vec<_> = Trace::new(&p, 10).take(2000).collect();
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn take_buffer_matches_the_iterator() {
        let p = toy_profile();
        let buf = Trace::new(&p, 9).take_buffer(2000);
        let via_iter: Vec<_> = Trace::new(&p, 9).take(2000).collect();
        assert_eq!(buf.len(), via_iter.len());
        assert!(buf.iter().eq(via_iter.iter().copied()));
    }

    #[test]
    fn mix_fractions_are_respected() {
        let p = toy_profile();
        let n = 200_000;
        let mut loads = 0;
        let mut stores = 0;
        let mut branches = 0;
        for r in Trace::new(&p, 1).take(n) {
            match r.op {
                Op::Load(_) => loads += 1,
                Op::Store(_) => stores += 1,
                Op::Branch { .. } => branches += 1,
                _ => {}
            }
        }
        let f = |c: usize| c as f64 / n as f64;
        assert!((f(loads) - 0.24).abs() < 0.02, "load fraction {}", f(loads));
        assert!((f(stores) - 0.10).abs() < 0.02);
        // Back-edges add branches on top of the mix fraction.
        assert!(f(branches) >= 0.14, "branch fraction {}", f(branches));
    }

    #[test]
    fn data_addresses_come_from_declared_regions() {
        let p = toy_profile();
        for r in Trace::new(&p, 3).take(50_000) {
            if let Some(a) = r.op.data_addr() {
                let in_hot = (0x1000_0000..0x1000_2000).contains(&a);
                let in_stream = (0x2000_0000..0x2010_0000).contains(&a);
                assert!(in_hot || in_stream, "stray address {a:#x}");
            }
        }
    }

    #[test]
    fn stream_weights_bias_selection() {
        let p = toy_profile();
        let mut hot = 0u64;
        let mut stream = 0u64;
        for r in Trace::new(&p, 4).take(100_000) {
            if let Some(a) = r.op.data_addr() {
                if a < 0x2000_0000 {
                    hot += 1;
                } else {
                    stream += 1;
                }
            }
        }
        let ratio = hot as f64 / stream.max(1) as f64;
        assert!(
            (2.0..4.5).contains(&ratio),
            "expected ~3:1 weighting, got {ratio}"
        );
    }

    #[test]
    fn pcs_stay_in_code_region() {
        let p = toy_profile();
        for r in Trace::new(&p, 5).take(10_000) {
            assert!((0x40_0000..0x40_0800).contains(&r.pc));
            assert_eq!(r.pc % 4, 0);
        }
    }

    #[test]
    fn mispredicted_branches_occur_at_configured_rate() {
        let p = toy_profile();
        let mut branches = 0u64;
        let mut mispredicts = 0u64;
        for r in Trace::new(&p, 6).take(300_000) {
            if let Op::Branch { mispredict } = r.op {
                branches += 1;
                mispredicts += mispredict as u64;
            }
        }
        let rate = mispredicts as f64 / branches as f64;
        assert!((rate - 0.05).abs() < 0.01, "mispredict rate {rate}");
    }

    #[test]
    #[should_panic(expected = "at least one data stream")]
    fn rejects_empty_profiles() {
        let mut p = toy_profile();
        p.data.clear();
        Trace::new(&p, 0);
    }

    #[test]
    fn try_new_reports_clean_errors() {
        use crate::profile::ProfileError;

        let mut p = toy_profile();
        p.data.clear();
        assert_eq!(
            Trace::try_new(&p, 0).err(),
            Some(ProfileError::NoDataStreams)
        );

        let mut p = toy_profile();
        p.data[0].0 = 0.0;
        assert!(matches!(
            Trace::try_new(&p, 0),
            Err(ProfileError::BadStreamWeight { index: 0, .. })
        ));

        let mut p = toy_profile();
        p.data[1].1 = StreamSpec::Strided {
            base: 0x2000_0000,
            bytes: 0,
            stride: 8,
        };
        assert!(matches!(
            Trace::try_new(&p, 0),
            Err(ProfileError::EmptyStream {
                index: 1,
                what: "bytes"
            })
        ));

        assert!(Trace::try_new(&toy_profile(), 0).is_ok());
    }

    #[test]
    #[should_panic(expected = "stream weights must be positive")]
    fn new_panics_on_zero_weight_streams() {
        let mut p = toy_profile();
        p.data[0].0 = 0.0;
        Trace::new(&p, 0);
    }

    #[test]
    fn every_shipped_profile_generates() {
        for p in crate::profiles::all()
            .iter()
            .chain(&crate::synthetic::all())
        {
            assert!(Trace::try_new(p, 1).is_ok(), "{}", p.name);
        }
    }
}

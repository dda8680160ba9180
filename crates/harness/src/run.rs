//! Shared experiment machinery: trace replay over cache models, warm-up
//! handling, deterministic per-job seeding, and result records.
//!
//! Two replay paths exist and are guaranteed to agree bit-for-bit:
//!
//! * the **streaming** path ([`run_miss_rates`]) generates the trace on
//!   the fly and replays every model in one pass — the independent
//!   reference the engine's sweeps are cross-checked against;
//! * the **sharded** path ([`replay_config_on`], [`replay_bcache_pd_on`])
//!   replays one model over a pre-extracted [`SideTrace`] (normally an
//!   [`Engine`](crate::parallel::Engine) trace-cache entry) — used by
//!   the parallel experiment drivers. Extracting the side stream once
//!   and sharing it means a sharded job is pure model work; the engine
//!   path costs no more per core than the streaming path.
//!
//! Both build models with the seed derived by
//! [`job_seed`]`(len.seed, benchmark, side)`
//! and feed the identical access stream, so `--jobs N` can never change
//! a number.

use bcache_core::BalancedCache;
use cache_sim::{AccessKind, Addr, CacheModel};
use trace_gen::{BenchmarkProfile, Op, Trace, TraceBuffer, TraceRecord};

use crate::config::CacheConfig;
use crate::parallel::job_seed;

/// Which reference stream of the trace feeds the caches.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Side {
    /// Instruction fetches (one access per fetched 32-byte block).
    Instruction,
    /// Data loads and stores.
    Data,
}

/// How many trace records to generate and how many to treat as warm-up
/// (statistics reset after the warm-up, mirroring the paper's
/// fast-forward).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RunLength {
    /// Total trace records.
    pub records: u64,
    /// Records before statistics are reset.
    pub warmup: u64,
    /// Trace generator seed.
    pub seed: u64,
}

impl Default for RunLength {
    fn default() -> Self {
        RunLength {
            records: 2_000_000,
            warmup: 200_000,
            seed: 1,
        }
    }
}

impl RunLength {
    /// A scaled copy (used by `--records`-style overrides and quick
    /// tests); warm-up stays at 10%.
    pub fn with_records(records: u64) -> Self {
        RunLength {
            records,
            warmup: records / 10,
            seed: 1,
        }
    }
}

/// Converts a record count to `usize`, failing loudly on targets whose
/// address space cannot hold it instead of silently truncating the
/// trace (which a bare `as usize` cast would do on 32-bit).
pub fn record_count(records: u64) -> usize {
    usize::try_from(records)
        .unwrap_or_else(|_| panic!("record count {records} does not fit in usize on this target"))
}

/// Extracts the access stream of one [`Side`] from raw trace records.
///
/// On the instruction side consecutive fetches from the same 32-byte
/// block collapse into one access (the fetch unit reads whole blocks);
/// the collapse state lives here so streaming and sharded replay agree.
#[derive(Copy, Clone, Debug)]
pub struct SideStream {
    side: Side,
    last_line: u64,
}

impl SideStream {
    /// Creates the extractor for `side`.
    pub fn new(side: Side) -> Self {
        SideStream {
            side,
            last_line: u64::MAX,
        }
    }

    /// The cache access (if any) that `rec` produces on this side.
    pub fn access(&mut self, rec: &TraceRecord) -> Option<(Addr, AccessKind)> {
        match self.side {
            Side::Instruction => {
                let line = rec.pc / 32;
                if line == self.last_line {
                    None
                } else {
                    self.last_line = line;
                    Some((Addr::new(rec.pc), AccessKind::InstrFetch))
                }
            }
            Side::Data => rec.op.data_addr().map(|a| {
                let kind = if matches!(rec.op, Op::Store(_)) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                (Addr::new(a), kind)
            }),
        }
    }
}

/// Replays `records` into every model in `models`, feeding the `side`
/// stream and resetting statistics after `warmup` records (the paper's
/// fast-forward stand-in). Returns the number of accesses fed.
pub fn replay_models(
    records: impl IntoIterator<Item = TraceRecord>,
    models: &mut [&mut dyn CacheModel],
    side: Side,
    warmup: u64,
) -> u64 {
    let mut stream = SideStream::new(side);
    let mut fed = 0u64;
    let mut warmed = false;
    for (i, rec) in records.into_iter().enumerate() {
        if !warmed && (i as u64) >= warmup {
            warmed = true;
            for m in models.iter_mut() {
                m.reset_stats();
            }
        }
        if let Some((addr, kind)) = stream.access(&rec) {
            fed += 1;
            for m in models.iter_mut() {
                m.access(addr, kind);
            }
        }
    }
    fed
}

/// Replays `records` into one model (see [`replay_models`]).
pub fn replay(
    records: impl IntoIterator<Item = TraceRecord>,
    model: &mut dyn CacheModel,
    side: Side,
    warmup: u64,
) -> u64 {
    replay_models(records, &mut [model], side, warmup)
}

/// A pre-extracted access stream of one [`Side`]: the filtering and
/// instruction-block collapse of [`SideStream`] applied once, plus the
/// position of the warm-up statistics reset, so replaying it is pure
/// model work — no re-scan of the raw records per configuration.
///
/// Replaying a `SideTrace` is bit-identical to replaying the records it
/// was extracted from: the reset fires between the same two accesses as
/// [`replay_models`]'s record-index check.
#[derive(Clone, Debug, PartialEq)]
pub struct SideTrace {
    accesses: Vec<(Addr, AccessKind)>,
    reset_at: Option<usize>,
}

impl SideTrace {
    /// Extracts the `side` stream of `records`, remembering where the
    /// `warmup`-records statistics reset lands in access terms. `None`
    /// reset (warm-up past the end of the records) stays `None`.
    pub fn extract(
        records: impl IntoIterator<Item = TraceRecord>,
        side: Side,
        warmup: u64,
    ) -> Self {
        let mut stream = SideStream::new(side);
        let mut accesses = Vec::new();
        let mut reset_at = None;
        for (i, rec) in records.into_iter().enumerate() {
            if reset_at.is_none() && (i as u64) >= warmup {
                reset_at = Some(accesses.len());
            }
            if let Some(a) = stream.access(&rec) {
                accesses.push(a);
            }
        }
        SideTrace { accesses, reset_at }
    }

    /// Extracts the `side` stream of `profile` at `len` straight from
    /// the generator, without materializing the record buffer.
    pub(crate) fn generate(profile: &BenchmarkProfile, len: RunLength, side: Side) -> Self {
        Self::extract(
            Trace::new(profile, len.seed).take(record_count(len.records)),
            side,
            len.warmup,
        )
    }

    /// The extracted accesses, in record order.
    pub fn accesses(&self) -> &[(Addr, AccessKind)] {
        &self.accesses
    }

    /// Position of the warm-up statistics reset within
    /// [`Self::accesses`], if the warm-up landed inside the records the
    /// stream was extracted from.
    pub fn reset_at(&self) -> Option<usize> {
        self.reset_at
    }

    /// Replays the stream into every model, resetting statistics at the
    /// recorded warm-up point (exactly like [`replay_models`]).
    ///
    /// Each model consumes the stream through
    /// [`CacheModel::access_batch`] — the monomorphized fast path where
    /// one exists — split at the warm-up reset. Models are independent,
    /// so running them one after another instead of interleaved is
    /// observably identical.
    pub fn replay_into(&self, models: &mut [&mut dyn CacheModel]) {
        for m in models.iter_mut() {
            match self.reset_at {
                // A reset landing after the last access still fires: the
                // record loop reached the warm-up index even though no
                // access followed (the trailing batch is then empty).
                Some(r) => {
                    m.access_batch(&self.accesses[..r]);
                    m.reset_stats();
                    m.access_batch(&self.accesses[r..]);
                }
                None => m.access_batch(&self.accesses),
            }
        }
    }

    /// [`Self::replay_into`] for a single model.
    pub fn replay(&self, model: &mut dyn CacheModel) {
        self.replay_into(&mut [model]);
    }
}

/// The outcome of replaying one benchmark against one configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct ConfigOutcome {
    /// Configuration label.
    pub label: String,
    /// Post-warm-up miss rate.
    pub miss_rate: f64,
}

/// Miss rates of one benchmark across configurations, baseline first.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchmarkMissRates {
    /// Benchmark name.
    pub benchmark: String,
    /// Baseline (direct-mapped) miss rate.
    pub baseline_miss_rate: f64,
    /// One outcome per non-baseline configuration, in input order.
    pub outcomes: Vec<ConfigOutcome>,
}

impl BenchmarkMissRates {
    /// Relative miss-rate reduction of configuration `i` versus the
    /// baseline, in `[−∞, 1]`.
    pub fn reduction(&self, i: usize) -> f64 {
        if self.baseline_miss_rate == 0.0 {
            0.0
        } else {
            1.0 - self.outcomes[i].miss_rate / self.baseline_miss_rate
        }
    }
}

/// Replays one benchmark against the baseline plus `configs` in a single
/// streaming pass and reports miss rates.
///
/// Models are seeded with the job seed derived from
/// `(len.seed, profile.name, side)`, exactly like the sharded path, so
/// this function and an [`Engine`](crate::parallel::Engine) sweep agree
/// bit-for-bit.
///
/// # Panics
///
/// Panics if a configuration cannot be built at `size_bytes`.
pub fn run_miss_rates(
    profile: &BenchmarkProfile,
    configs: &[CacheConfig],
    size_bytes: usize,
    side: Side,
    len: RunLength,
) -> BenchmarkMissRates {
    let seed = job_seed(len.seed, profile.name, side);
    let mut baseline = CacheConfig::DirectMapped
        .build(size_bytes, seed)
        .expect("baseline geometry is valid");
    let mut models: Vec<Box<dyn CacheModel>> = configs
        .iter()
        .map(|c| c.build(size_bytes, seed).expect("config must build"))
        .collect();

    {
        let mut all: Vec<&mut dyn CacheModel> = Vec::with_capacity(models.len() + 1);
        all.push(baseline.as_mut());
        all.extend(models.iter_mut().map(|m| m.as_mut() as &mut dyn CacheModel));
        let fed = replay_models(
            Trace::new(profile, len.seed).take(record_count(len.records)),
            &mut all,
            side,
            len.warmup,
        );
        debug_assert!(fed > 0, "trace produced no accesses for {side:?}");
    }

    let outcomes = models
        .iter()
        .zip(configs)
        .map(|(m, c)| ConfigOutcome {
            label: c.label(),
            miss_rate: m.stats().miss_rate(),
        })
        .collect();
    BenchmarkMissRates {
        benchmark: profile.name.to_string(),
        baseline_miss_rate: baseline.stats().miss_rate(),
        outcomes,
    }
}

/// One sharded job of a miss-rate sweep: replays a single configuration
/// over a pre-extracted side stream and reports its post-warm-up miss
/// rate.
///
/// `benchmark` is the profile name the trace came from; together with
/// `side` it enters the per-job seed derivation so this path agrees
/// bit-for-bit with [`run_miss_rates`].
///
/// # Panics
///
/// Panics if the configuration cannot be built at `size_bytes`.
pub fn replay_config_on(
    benchmark: &str,
    trace: &SideTrace,
    config: &CacheConfig,
    size_bytes: usize,
    side: Side,
    len: RunLength,
) -> f64 {
    let seed = job_seed(len.seed, benchmark, side);
    let mut model = config.build(size_bytes, seed).expect("config must build");
    trace.replay(model.as_mut());
    model.stats().miss_rate()
}

/// Exact post-warm-up counters of one configuration on one benchmark
/// (used by the golden-stats regression tests, where a float would hide
/// one-miss drifts).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ExactCounts {
    /// Post-warm-up accesses fed to the cache.
    pub accesses: u64,
    /// Post-warm-up misses.
    pub misses: u64,
}

/// Replays one configuration over `records` and reports exact counts.
pub fn replay_config_counts(
    benchmark: &str,
    records: &TraceBuffer,
    config: &CacheConfig,
    size_bytes: usize,
    side: Side,
    len: RunLength,
) -> ExactCounts {
    let seed = job_seed(len.seed, benchmark, side);
    let mut model = config.build(size_bytes, seed).expect("config must build");
    replay(records.iter(), model.as_mut(), side, len.warmup);
    let total = model.stats().total();
    ExactCounts {
        accesses: total.accesses(),
        misses: total.misses(),
    }
}

/// PD statistics of one B-Cache point on one benchmark (used by Fig. 3
/// and Table 6, where the PD hit rate during misses is the headline).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct BCachePdOutcome {
    /// Post-warm-up miss rate.
    pub miss_rate: f64,
    /// PD hit rate during cache misses.
    pub pd_hit_rate_on_miss: f64,
}

/// Replays one B-Cache point over a pre-extracted side stream and
/// reports both the miss rate and the PD hit rate during misses. (No
/// seed parameter: the B-Cache's LRU replacement draws no randomness.)
pub fn replay_bcache_pd_on(
    trace: &SideTrace,
    mf: usize,
    bas: usize,
    size_bytes: usize,
) -> BCachePdOutcome {
    let mut bc = CacheConfig::BCache { mf, bas }
        .build(size_bytes, 0)
        .expect("valid B-Cache point");
    trace.replay(bc.as_mut());
    BCachePdOutcome {
        miss_rate: bc.stats().miss_rate(),
        pd_hit_rate_on_miss: bc
            .decoder_stats()
            .expect("a B-Cache has decoders")
            .pd_hit_rate_on_miss(),
    }
}

/// [`replay_bcache_pd_on`] with a bounded event ring attached: the
/// B-Cache replays the stream while every typed event (PD reprograms,
/// BAS victim choices, misses, set touches) lands in the ring, which is
/// returned together with the cache for `--trace-events` output and
/// usage inspection. The ring only retains the newest `ring_capacity`
/// events (overflow is accounted, not silent), so the post-warm-up tail
/// of a long replay survives.
pub fn replay_bcache_observed(
    trace: &SideTrace,
    mf: usize,
    bas: usize,
    size_bytes: usize,
    ring_capacity: usize,
) -> BalancedCache<telemetry::EventRing> {
    use bcache_core::BCacheParams;
    use cache_sim::{CacheGeometry, PolicyKind};

    let geom = CacheGeometry::new(size_bytes, 32, 1).expect("valid geometry");
    let params = BCacheParams::new(geom, mf, bas, PolicyKind::Lru).expect("valid B-Cache point");
    let mut bc = BalancedCache::with_observer(params, telemetry::EventRing::new(ring_capacity));
    trace.replay(&mut bc);
    bc
}

/// Arithmetic mean of `f` over a slice (used for the "Ave" bars).
pub fn mean<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    if items.is_empty() {
        0.0
    } else {
        items.iter().map(f).sum::<f64>() / items.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_gen::profiles;

    fn quick() -> RunLength {
        RunLength::with_records(120_000)
    }

    #[test]
    fn equake_data_side_reproduces_the_headline_ordering() {
        let p = profiles::by_name("equake").unwrap();
        let configs = [
            CacheConfig::SetAssoc(2),
            CacheConfig::SetAssoc(8),
            CacheConfig::BCache { mf: 8, bas: 8 },
        ];
        let r = run_miss_rates(&p, &configs, 16 * 1024, Side::Data, quick());
        assert!(r.baseline_miss_rate > 0.2, "equake thrashes a DM cache");
        let red2 = r.reduction(0);
        let red8 = r.reduction(1);
        let redb = r.reduction(2);
        assert!(red8 > red2, "8-way {red8} must beat 2-way {red2}");
        assert!(
            redb > 0.5,
            "B-Cache reduction {redb} should be large on equake"
        );
    }

    #[test]
    fn warmup_reset_reduces_cold_miss_noise() {
        let p = profiles::by_name("gzip").unwrap();
        let cold = run_miss_rates(
            &p,
            &[],
            16 * 1024,
            Side::Instruction,
            RunLength {
                records: 50_000,
                warmup: 0,
                seed: 1,
            },
        );
        let warm = run_miss_rates(
            &p,
            &[],
            16 * 1024,
            Side::Instruction,
            RunLength {
                records: 50_000,
                warmup: 25_000,
                seed: 1,
            },
        );
        assert!(warm.baseline_miss_rate <= cold.baseline_miss_rate);
    }

    #[test]
    fn pd_replay_matches_record_replay() {
        // The PD path against a record-level replay of the same B-Cache,
        // the path the golden counters pin.
        let p = profiles::by_name("wupwise").unwrap();
        let len = quick();
        let records = Trace::new(&p, len.seed).take_buffer(len.records as usize);
        let mut bc = CacheConfig::BCache { mf: 8, bas: 8 }
            .build(16 * 1024, 0)
            .unwrap();
        replay(records.iter(), bc.as_mut(), Side::Data, len.warmup);
        let trace = SideTrace::extract(records.iter(), Side::Data, len.warmup);
        let via_pd = replay_bcache_pd_on(&trace, 8, 8, 16 * 1024);
        assert_eq!(via_pd.miss_rate, bc.stats().miss_rate());
        assert_eq!(
            via_pd.pd_hit_rate_on_miss,
            bc.decoder_stats().unwrap().pd_hit_rate_on_miss()
        );
        // wupwise's far conflicts force PD hits on most conflict misses.
        assert!(
            via_pd.pd_hit_rate_on_miss > 0.3,
            "{}",
            via_pd.pd_hit_rate_on_miss
        );
    }

    #[test]
    fn sharded_replay_matches_streaming_replay_exactly() {
        // The parallel drivers replay cached records one config at a
        // time; the streaming path replays every model in one pass.
        // They must agree to the last bit.
        let p = profiles::by_name("vpr").unwrap();
        let len = RunLength::with_records(60_000);
        let configs = [
            CacheConfig::SetAssoc(4),
            CacheConfig::Victim(16),
            CacheConfig::BCache { mf: 8, bas: 8 },
        ];
        for side in [Side::Data, Side::Instruction] {
            let streaming = run_miss_rates(&p, &configs, 16 * 1024, side, len);
            let records = Trace::new(&p, len.seed).take_buffer(len.records as usize);
            let trace = SideTrace::extract(records.iter(), side, len.warmup);
            let base = replay_config_on(
                p.name,
                &trace,
                &CacheConfig::DirectMapped,
                16 * 1024,
                side,
                len,
            );
            assert_eq!(streaming.baseline_miss_rate, base, "{side:?} baseline");
            for (i, c) in configs.iter().enumerate() {
                let mr = replay_config_on(p.name, &trace, c, 16 * 1024, side, len);
                assert_eq!(
                    streaming.outcomes[i].miss_rate,
                    mr,
                    "{side:?} {}",
                    c.label()
                );
            }
        }
    }

    #[test]
    fn observed_bcache_replay_matches_plain_replay() {
        use telemetry::Event;
        let p = profiles::by_name("mcf").unwrap();
        let len = RunLength::with_records(40_000);
        let records = Trace::new(&p, len.seed).take_buffer(len.records as usize);
        let trace = SideTrace::extract(records.iter(), Side::Data, len.warmup);
        let plain = replay_bcache_pd_on(&trace, 8, 8, 16 * 1024);
        let observed = replay_bcache_observed(&trace, 8, 8, 16 * 1024, 4096);
        // Instrumentation must not perturb the simulation.
        assert_eq!(observed.stats().miss_rate(), plain.miss_rate);
        assert_eq!(
            observed.decoder_stats().unwrap().pd_hit_rate_on_miss(),
            plain.pd_hit_rate_on_miss
        );
        let ring = observed.observer();
        assert!(ring.pushed() > 0, "replay must emit events");
        assert!(ring.len() <= 4096);
        // The ring retains the newest events; any overflow is accounted.
        assert_eq!(ring.dropped() + ring.len() as u64, ring.pushed());
        assert!(ring
            .iter()
            .any(|(_, e)| matches!(e, Event::SetTouch { .. })));
    }

    #[test]
    fn exact_counts_are_consistent_with_miss_rates() {
        let p = profiles::by_name("gzip").unwrap();
        let len = RunLength::with_records(40_000);
        let records = Trace::new(&p, len.seed).take_buffer(len.records as usize);
        let c = CacheConfig::DirectMapped;
        let counts = replay_config_counts(p.name, &records, &c, 16 * 1024, Side::Data, len);
        let trace = SideTrace::extract(records.iter(), Side::Data, len.warmup);
        let rate = replay_config_on(p.name, &trace, &c, 16 * 1024, Side::Data, len);
        assert!(counts.accesses > 0 && counts.misses <= counts.accesses);
        assert!((counts.misses as f64 / counts.accesses as f64 - rate).abs() < 1e-15);
    }

    #[test]
    fn side_trace_replay_matches_record_replay() {
        // Extracting once and replaying the access stream must land the
        // warm-up reset between the same two accesses as the
        // record-index check of `replay_models`.
        let p = profiles::by_name("ammp").unwrap();
        let len = RunLength {
            records: 30_000,
            warmup: 7_000,
            seed: 3,
        };
        let records = Trace::new(&p, len.seed).take_buffer(len.records as usize);
        for side in [Side::Data, Side::Instruction] {
            let trace = SideTrace::extract(records.iter(), side, len.warmup);
            let seed = job_seed(len.seed, p.name, side);
            let mut via_records = CacheConfig::SetAssoc(4).build(16 * 1024, seed).unwrap();
            let mut via_trace = CacheConfig::SetAssoc(4).build(16 * 1024, seed).unwrap();
            let fed = replay(records.iter(), via_records.as_mut(), side, len.warmup);
            trace.replay(via_trace.as_mut());
            assert_eq!(trace.accesses().len() as u64, fed, "{side:?}");
            assert_eq!(
                via_records.stats().total().misses(),
                via_trace.stats().total().misses(),
                "{side:?}"
            );
            assert_eq!(
                via_records.stats().total().accesses(),
                via_trace.stats().total().accesses(),
                "{side:?}"
            );
        }
    }

    #[test]
    fn instruction_side_collapses_same_block_fetches() {
        let mut s = SideStream::new(Side::Instruction);
        let rec = |pc: u64| TraceRecord { pc, op: Op::Alu };
        assert!(s.access(&rec(0)).is_some());
        assert!(s.access(&rec(4)).is_none(), "same 32-byte block");
        assert!(s.access(&rec(32)).is_some(), "next block fetches");
        assert!(s.access(&rec(0)).is_some(), "returning re-fetches");
    }

    #[test]
    fn mean_helper() {
        let xs = [1.0f64, 2.0, 3.0];
        assert!((mean(&xs, |x| *x) - 2.0).abs() < 1e-12);
        assert_eq!(mean::<f64>(&[], |x| *x), 0.0);
    }
}

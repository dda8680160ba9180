//! `serve-open`: an in-process `serve::Server` under open-loop load.
//!
//! Independent users submit jobs, so the load is an open loop: jobs are
//! due at exponential inter-arrival times drawn from the seed, sent when
//! due whether or not earlier ones finished, and each is timed from the
//! instant it was due, so a stall also counts against the jobs queued
//! behind it. How late the sender ran is reported beside the
//! latencies. The load comes from one connection driven by a sender
//! thread and a receiver thread; the server runs two workers with a
//! per-tenant queue cap of 16. After an untimed warm-up, the timed
//! seconds are one-second windows that repeat one schedule, each driven
//! and drained before the next; each window is one rep. The extra
//! set-ups are timed after the measured server has stopped.
//!
//! After the load stops, every received `row` frame is checked against
//! the same job recomputed offline (`*_bits` fields for replays and
//! sweeps, the whole row for profiles); a busy reply, an error, or a
//! wrong row counts as a failed job.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use bcache_core::{BCacheParams, BalancedCache};
use cache_sim::{CacheGeometry, PolicyKind};
use harness::profilecmd::{replay_windowed, resolve_benchmark, resolve_model};
use harness::run::{replay_bcache_pd_on, replay_config_on, SideTrace};
use harness::serve::protocol::{self, f64_bits, json_str_field, json_u64_field};
use harness::serve::scheduler::SWEEP_MFS;
use harness::serve::{ServeOptions, Server};
use harness::{job_seed, CacheConfig, RunLength, Side};

use crate::clock::on_cpu;
use crate::layers::{self, GenTally, Input, LayerTally, L1_BYTES};
use crate::report::{peak_rss_mb, Outcome, Rep, Value};
use crate::sim::{more_setups, Ctx, MIN_REPS};
use crate::stats::tail;
use crate::trace::{timed, Tracer, MAIN_TID};
use crate::Scale;

/// Benchmarks the jobs replay (data side). A sweep of any of them costs
/// 3–5 ms of service, so the slowest jobs form one continuous tail; mcf,
/// whose sweep costs twice as much, is left to `replay-miss` because its
/// sweeps alone (2% of jobs) would put the p99 on the edge of a gap.
const BENCHMARKS: [&str; 8] = [
    "ammp", "equake", "gcc", "art", "swim", "vpr", "gzip", "wupwise",
];

/// Models of the `replay` jobs.
const REPLAY_MODELS: [&str; 4] = ["direct-mapped", "bcache-mf8-bas8", "8-way-lru", "victim16"];

/// Model and window of the `profile` jobs.
const PROFILE_MODEL: &str = "bcache-mf8-bas8";
const PROFILE_WINDOW: u64 = 2048;

/// Hot trace seeds per run, shared evenly by the jobs that are not cold.
const HOT_SEEDS: u64 = 4;

/// Jobs in one round of the exact mix ([`Plan::mix`]): per benchmark,
/// two replays per replay model, two profiles and two sweeps.
const ROUND: usize = BENCHMARKS.len() * (2 * REPLAY_MODELS.len() + 4);

/// Server shape: one worker per vCPU of the two-vCPU machine the sizes
/// were chosen on, and the default queue cap.
const WORKERS: usize = 2;
const QUEUE_CAP: usize = 16;
const TENANTS: u64 = 4;

/// In-band pings per second during the measured windows.
const PING_HZ: f64 = 2.0;

/// Latency limit of the informational rate ladder.
const KNEE_LIMIT_MS: f64 = 50.0;

/// Rate multiplier between ladder steps, and the most steps taken.
const KNEE_STEP: f64 = 1.25;
const KNEE_MAX_STEPS: usize = 20;

/// How long to wait for the last jobs after the load stops.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Sizes of one scale. A timed window is one rep: at full scale one
/// [`ROUND`] of jobs, short enough that a run holds a dozen or more.
#[derive(Copy, Clone, Debug)]
struct Sizes {
    records: u64,
    rate: f64,
    warmup: Duration,
    window: Duration,
    knee_step: Duration,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            records: 100_000,
            rate: 100.0,
            warmup: Duration::from_secs(2),
            window: Duration::from_millis(960),
            knee_step: Duration::from_secs(2),
        },
        Scale::Smoke => Sizes {
            records: 10_000,
            rate: 40.0,
            warmup: Duration::from_millis(300),
            window: Duration::from_millis(250),
            knee_step: Duration::from_millis(300),
        },
    }
}

/// What a job runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
enum Kind {
    Replay(&'static str),
    Profile,
    Sweep,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Replay(_) => "replay",
            Kind::Profile => "profile",
            Kind::Sweep => "sweep",
        }
    }
}

/// Which part of the run a job belongs to: the warm-up, one of the timed
/// windows (untraced or traced), or a step of the rate ladder.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
enum Phase {
    Warmup,
    Measured(usize),
    Traced(usize),
    Ladder(usize),
}

/// One job of the plan. Its identity (kind, benchmark, trace seed) is
/// the key of its offline recomputation.
#[derive(Clone, Debug)]
struct Job {
    kind: Kind,
    benchmark: &'static str,
    trace_seed: u64,
    /// Whether the job's trace is one no earlier job used.
    cold: bool,
    tenant: u64,
    phase: Phase,
}

type JobKey = (Kind, &'static str, u64);

impl Job {
    fn key(&self) -> JobKey {
        (self.kind, self.benchmark, self.trace_seed)
    }

    fn frame(&self, n: usize, records: u64) -> String {
        let model = match self.kind {
            Kind::Replay(m) => format!(", \"model\": \"{m}\""),
            Kind::Profile => {
                format!(", \"model\": \"{PROFILE_MODEL}\", \"window\": {PROFILE_WINDOW}")
            }
            Kind::Sweep => String::new(),
        };
        format!(
            "{{\"type\": \"submit\", \"id\": \"j{n}\", \"tenant\": \"t{}\", \"job\": \"{}\", \
             \"benchmark\": \"{}\", \"records\": {records}, \"seed\": {}{model}}}",
            self.tenant,
            self.kind.name(),
            self.benchmark,
            self.trace_seed
        )
    }
}

/// SplitMix64: the job generator's random source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The hot trace seeds of workload seed `seed` (seed 1 → 1..=4).
fn hot_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_sub(1).wrapping_mul(HOT_SEEDS) + 1 + k
}

/// The open-loop schedule: jobs and pings, each at its due offset from
/// the start of the load.
///
/// A window's mix is exact, not sampled ([`Plan::mix`]), so seeds differ
/// in arrival times, order, tenants and traces, not in how much of each
/// kind of work a window holds. The timed windows of a run all repeat
/// one [`Window`], so, like the reps of the batch workloads, they do
/// identical work.
struct Plan {
    rng: Rng,
    seed: u64,
    cold: u64,
    jobs: Vec<Job>,
    sends: Vec<(Duration, Send)>,
    end: Duration,
}

#[derive(Copy, Clone, Debug)]
enum Send {
    Job(usize),
    Ping,
}

impl Plan {
    fn new(seed: u64) -> Plan {
        Plan {
            rng: Rng(seed ^ 0x5e4e_0be7),
            seed,
            cold: 0,
            jobs: Vec::new(),
            sends: Vec::new(),
            end: Duration::ZERO,
        }
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.rng.below(i as u64 + 1) as usize);
        }
    }

    /// `count` jobs in the exact mix, shuffled: rounds of [`ROUND`] jobs
    /// in which every benchmark is replayed twice through each replay
    /// model, profiled twice and swept twice, spread evenly over the hot
    /// trace seeds, with one of its twelve jobs (which one, the seed
    /// picks) on a cold trace. Cold jobs get their trace, and every job
    /// its phase, from the window it goes into.
    fn mix(&mut self, count: usize) -> Vec<Job> {
        let kinds: Vec<Kind> = (REPLAY_MODELS.iter())
            .flat_map(|m| [Kind::Replay(m); 2])
            .chain([Kind::Profile; 2])
            .chain([Kind::Sweep; 2])
            .collect();
        let mut jobs = Vec::with_capacity(count.next_multiple_of(ROUND));
        while jobs.len() < count {
            for benchmark in BENCHMARKS {
                let cold = self.rng.below(kinds.len() as u64) as usize;
                let first_seed = self.rng.below(HOT_SEEDS);
                for (i, &kind) in kinds.iter().enumerate() {
                    jobs.push(Job {
                        kind,
                        benchmark,
                        trace_seed: hot_seed(self.seed, (first_seed + i as u64) % HOT_SEEDS),
                        cold: i == cold,
                        tenant: self.rng.below(TENANTS),
                        phase: Phase::Warmup,
                    });
                }
            }
        }
        self.shuffle(&mut jobs);
        jobs.truncate(count);
        jobs
    }

    /// A trace seed no earlier job used: far above every hot seed.
    fn cold_seed(&mut self) -> u64 {
        self.cold += 1;
        (1 << 40) + (self.seed << 20) + self.cold
    }

    /// Draws the schedule of one window of `length` at `rate` jobs/s.
    ///
    /// Arrivals are a Poisson process conditioned on its count: exactly
    /// `rate × length` jobs at independent uniform times in the window,
    /// so their gaps are exponential but every window of a given length
    /// holds the same number of jobs.
    fn draw(&mut self, rate: f64, length: Duration) -> Window {
        let count = (rate * length.as_secs_f64()).round() as usize;
        let mut due: Vec<Duration> = (0..count)
            .map(|_| length.mul_f64(self.rng.unit()))
            .collect();
        due.sort();
        let jobs = due.into_iter().zip(self.mix(count)).collect();
        Window { length, jobs }
    }

    /// Appends `window` as `phase`, back to back after what is planned
    /// so far: its jobs at their offsets, except that each cold job draws
    /// a fresh trace. Pings go out at [`PING_HZ`] except during warm-up.
    /// Returns the index of the window's first send.
    fn push(&mut self, window: &Window, phase: Phase) -> usize {
        let from = self.sends.len();
        let start = self.end;
        for (t, job) in &window.jobs {
            let mut job = job.clone();
            job.phase = phase;
            if job.cold {
                job.trace_seed = self.cold_seed();
            }
            self.jobs.push(job);
            self.sends
                .push((start + *t, Send::Job(self.jobs.len() - 1)));
        }
        self.end = start + window.length;
        if phase != Phase::Warmup {
            let mut p = start + Duration::from_secs_f64(0.5 / PING_HZ);
            while p < self.end {
                self.sends.push((p, Send::Ping));
                p += Duration::from_secs_f64(1.0 / PING_HZ);
            }
        }
        self.sends[from..].sort_by_key(|(t, _)| *t);
        from
    }
}

/// One window's jobs, each at its due offset from the window's start.
struct Window {
    length: Duration,
    jobs: Vec<(Duration, Job)>,
}

/// How a job ended, as the client saw it.
#[derive(Clone, Debug, PartialEq)]
enum End {
    Done { rows_dropped: u64 },
    Busy,
    Error(String),
}

/// What the client observed, per job of the current plan.
#[derive(Debug, Default)]
struct Observed {
    due: Vec<Option<Instant>>,
    sent: Vec<Option<Instant>>,
    ended: Vec<Option<(Instant, End)>>,
    rows: Vec<Vec<String>>,
    open: usize,
    pings: Vec<Instant>,
    pongs: Vec<Instant>,
}

/// A connected client: one TCP stream, read for its whole life by the
/// receiver thread and written by a sender thread per [`Client::drive`].
struct Client {
    stream: TcpStream,
    obs: Arc<(Mutex<Observed>, Condvar)>,
    receiver: Option<thread::JoinHandle<()>>,
}

fn lock(obs: &Mutex<Observed>) -> std::sync::MutexGuard<'_, Observed> {
    obs.lock().unwrap_or_else(|e| e.into_inner())
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        let obs = Arc::new((Mutex::new(Observed::default()), Condvar::new()));
        let shared = obs.clone();
        let receiver = thread::spawn(move || receive(reader, &shared.0, &shared.1));
        Ok(Client {
            stream,
            obs,
            receiver: Some(receiver),
        })
    }

    /// Sends `plan.sends[from..]` open-loop, starting now, from a sender
    /// thread, and returns once every job sent has ended and every ping
    /// was answered. `from == 0` starts a new plan: what was observed
    /// for the previous one is dropped.
    fn drive(&self, plan: &Plan, from: usize, records: u64) -> Result<(), String> {
        let (obs, ended) = (&self.obs.0, &self.obs.1);
        {
            let mut o = lock(obs);
            if from == 0 {
                *o = Observed::default();
            }
            let n = plan.jobs.len();
            o.due.resize(n, None);
            o.sent.resize(n, None);
            o.ended.resize(n, None);
            o.rows.resize(n, Vec::new());
        }
        let mut writer = self
            .stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        let base = plan.sends.get(from).map_or(Duration::ZERO, |(t, _)| *t);
        let t0 = Instant::now();
        let sent = thread::scope(|s| {
            s.spawn(|| -> Result<(), String> {
                for (due, what) in &plan.sends[from..] {
                    let at = t0 + (*due - base);
                    if let Some(wait) = at.checked_duration_since(Instant::now()) {
                        thread::sleep(wait);
                    }
                    let line = match what {
                        Send::Job(n) => plan.jobs[*n].frame(*n, records),
                        Send::Ping => "{\"type\": \"ping\"}".to_string(),
                    };
                    // Opened (and a ping's clock started) before the
                    // write, so no reply can arrive ahead of its record.
                    let mut o = lock(obs);
                    match what {
                        Send::Job(n) => {
                            o.due[*n] = Some(at);
                            o.open += 1;
                        }
                        Send::Ping => o.pings.push(Instant::now()),
                    }
                    drop(o);
                    writer
                        .write_all(format!("{line}\n").as_bytes())
                        .map_err(|e| format!("send: {e}"))?;
                    if let Send::Job(n) = what {
                        lock(obs).sent[*n] = Some(Instant::now());
                    }
                }
                Ok(())
            })
            .join()
            .expect("the sender thread does not panic")
        });
        sent?;
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        let mut o = lock(obs);
        while (o.open > 0 || o.pongs.len() < o.pings.len()) && Instant::now() < deadline {
            o = ended
                .wait_timeout(o, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        match o.open {
            0 => Ok(()),
            stuck => Err(format!("{stuck} jobs did not end within {DRAIN_TIMEOUT:?}")),
        }
    }

    /// Closes the connection and joins the receiver.
    fn close(mut self) -> Observed {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(r) = self.receiver.take() {
            r.join().expect("the receiver thread does not panic");
        }
        std::mem::take(&mut *lock(&self.obs.0))
    }
}

/// The receiver thread: files every frame under its job until the
/// connection closes.
fn receive(stream: TcpStream, obs: &Mutex<Observed>, ended: &Condvar) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let now = Instant::now();
        let frame = line.trim_end();
        let kind = json_str_field(frame, "type");
        let job = json_str_field(frame, "id")
            .and_then(|id| id.strip_prefix('j').and_then(|n| n.parse::<usize>().ok()));
        let mut o = lock(obs);
        let end = match (kind.as_deref(), job) {
            (Some("pong"), _) => {
                o.pongs.push(now);
                None
            }
            (Some("row"), Some(n)) if n < o.rows.len() => {
                let data = frame
                    .find("\"data\": ")
                    .map(|i| frame[i + 8..frame.len() - 1].to_string())
                    .unwrap_or_default();
                o.rows[n].push(data);
                None
            }
            (Some("done"), Some(n)) => Some((
                n,
                End::Done {
                    rows_dropped: json_u64_field(frame, "rows_dropped").unwrap_or(0),
                },
            )),
            (Some("busy"), Some(n)) => Some((n, End::Busy)),
            (Some("error"), Some(n)) => Some((
                n,
                End::Error(json_str_field(frame, "error").unwrap_or_default()),
            )),
            _ => None,
        };
        if let Some((n, end)) = end {
            if n < o.ended.len() && o.ended[n].is_none() {
                o.ended[n] = Some((now, end));
                o.open = o.open.saturating_sub(1);
            }
        }
        drop(o);
        ended.notify_all();
    }
}

/// A started server plus its client, primed: every hot trace is in both
/// workers' caches.
struct Harnessed {
    server: Server,
    client: Client,
}

fn start_server(ctx: &Ctx, sizes: Sizes) -> Result<Harnessed, String> {
    let server = Server::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        queue_cap: QUEUE_CAP,
        ..ServeOptions::default()
    })?;
    let h = Harnessed {
        client: Client::connect(&server.local_addr().to_string())?,
        server,
    };
    match prime(ctx, sizes, &h.client) {
        Ok(()) => Ok(h),
        Err(e) => {
            h.stop();
            Err(e)
        }
    }
}

/// First pong, then one priming replay per hot benchmark × seed, sent
/// in pairs so each of the two workers generates the trace once.
fn prime(ctx: &Ctx, sizes: Sizes, client: &Client) -> Result<(), String> {
    let mut plan = Plan::new(ctx.seed);
    plan.sends.push((Duration::ZERO, Send::Ping));
    client.drive(&plan, 0, sizes.records)?;
    for benchmark in BENCHMARKS {
        for k in 0..HOT_SEEDS {
            plan.jobs = (0..WORKERS as u64)
                .map(|tenant| Job {
                    kind: Kind::Replay("direct-mapped"),
                    benchmark,
                    trace_seed: hot_seed(ctx.seed, k),
                    cold: false,
                    tenant,
                    phase: Phase::Warmup,
                })
                .collect();
            plan.sends = (0..WORKERS)
                .map(|n| (Duration::ZERO, Send::Job(n)))
                .collect();
            client.drive(&plan, 0, sizes.records)?;
            let o = lock(&client.obs.0);
            if let Some((_, bad)) = o
                .ended
                .iter()
                .flatten()
                .find(|(_, e)| !matches!(e, End::Done { .. }))
            {
                return Err(format!("priming replay of {benchmark} ended with {bad:?}"));
            }
        }
    }
    Ok(())
}

impl Harnessed {
    /// Closes the client, then drains and stops the server; returns what
    /// the client observed last.
    fn stop(self) -> Observed {
        let obs = self.client.close();
        self.server.shutdown();
        obs
    }
}

/// Offline recomputation of every job the run sent.
#[derive(Default)]
struct Oracle {
    traces: HashMap<(&'static str, u64), (Arc<SideTrace>, u64)>,
    expected: HashMap<JobKey, Expected>,
    gen: GenTally,
}

/// The rows a job must stream, and what computing them cost.
struct Expected {
    rows: Vec<RowCheck>,
    accesses: u64,
    service: Duration,
}

enum RowCheck {
    /// Fields that must read exactly these values.
    Fields(Vec<(&'static str, String)>),
    /// The whole `data` object, byte for byte.
    Exact(String),
}

impl RowCheck {
    fn matches(&self, data: &str) -> bool {
        match self {
            RowCheck::Fields(fields) => fields.iter().all(|(k, v)| {
                json_str_field(data, k).as_deref() == Some(v.as_str())
                    || json_u64_field(data, k).map(|n| n.to_string()).as_deref() == Some(v)
            }),
            RowCheck::Exact(want) => data == want,
        }
    }
}

impl Oracle {
    fn len(&self, seed: u64, records: u64) -> RunLength {
        RunLength {
            seed,
            ..RunLength::with_records(records)
        }
    }

    fn trace(
        &mut self,
        benchmark: &'static str,
        seed: u64,
        records: u64,
        tracer: Option<&Tracer>,
    ) -> Arc<SideTrace> {
        let len = self.len(seed, records);
        let gen = &mut self.gen;
        self.traces
            .entry((benchmark, seed))
            .or_insert_with(|| {
                let input = Input {
                    profile: resolve_benchmark(benchmark).expect("serve benchmarks resolve"),
                    side: Side::Data,
                    len,
                };
                let buf = layers::generate(&input, tracer, None, gen);
                let t = layers::extract(&input, &buf, tracer, None, gen);
                let n = buf.len() as u64;
                (Arc::new(t), n)
            })
            .0
            .clone()
    }

    fn expect(&mut self, job: &Job, records: u64, tracer: Option<&Tracer>) -> &Expected {
        let key = job.key();
        if !self.expected.contains_key(&key) {
            let trace = self.trace(job.benchmark, job.trace_seed, records, tracer);
            let len = self.len(job.trace_seed, records);
            let n = trace.accesses().len() as u64;
            let name = || {
                format!(
                    "service {} {} s{}",
                    job.kind.name(),
                    job.benchmark,
                    job.trace_seed
                )
            };
            let (rows, service) = timed(tracer, None, name, |_| compute_rows(job, &trace, len));
            let accesses = if job.kind == Kind::Sweep {
                n * SWEEP_MFS.len() as u64
            } else {
                n
            };
            self.expected.insert(
                key,
                Expected {
                    rows,
                    accesses,
                    service,
                },
            );
        }
        &self.expected[&key]
    }
}

/// The rows the server must stream for `job`, computed through the
/// offline entry points the server's job bodies call.
fn compute_rows(job: &Job, trace: &SideTrace, len: RunLength) -> Vec<RowCheck> {
    let bits = |miss: f64, pd: Option<f64>| {
        let mut f = vec![("miss_rate_bits", f64_bits(miss))];
        if let Some(pd) = pd {
            f.push(("pd_hit_bits", f64_bits(pd)));
        }
        f
    };
    match job.kind {
        Kind::Replay(model) => {
            let (_, config) = resolve_model(model).expect("replay models resolve");
            let fields = match config {
                CacheConfig::BCache { mf, bas } => {
                    let o = replay_bcache_pd_on(trace, mf, bas, L1_BYTES);
                    bits(o.miss_rate, Some(o.pd_hit_rate_on_miss))
                }
                _ => bits(
                    replay_config_on(job.benchmark, trace, &config, L1_BYTES, Side::Data, len),
                    None,
                ),
            };
            vec![RowCheck::Fields(fields)]
        }
        Kind::Sweep => SWEEP_MFS
            .iter()
            .map(|&mf| {
                let o = replay_bcache_pd_on(trace, mf, 8, L1_BYTES);
                let mut f = bits(o.miss_rate, Some(o.pd_hit_rate_on_miss));
                f.push(("mf", mf.to_string()));
                RowCheck::Fields(f)
            })
            .collect(),
        Kind::Profile => {
            let (_, config) = resolve_model(PROFILE_MODEL).expect("profile model resolves");
            let CacheConfig::BCache { mf, bas } = config else {
                unreachable!("the profile model is the B-Cache")
            };
            let geom = CacheGeometry::new(L1_BYTES, 32, 1).expect("16 kB DM geometry is valid");
            let params = BCacheParams::new(geom, mf, bas, PolicyKind::Lru)
                .expect("the profile B-Cache point is valid")
                .with_seed(job_seed(len.seed, job.benchmark, Side::Data));
            let mut bc = BalancedCache::new(params);
            let series = replay_windowed(&mut bc, trace.accesses(), PROFILE_WINDOW, |m| {
                let pd = m.pd_stats();
                (pd.misses_with_pd_hit, pd.misses_with_pd_miss)
            });
            series
                .rows()
                .map(|r| RowCheck::Exact(r.to_json()))
                .collect()
        }
    }
}

/// The client-side record of one job after the run.
struct Seen {
    due: Instant,
    sent: Instant,
    ended: Instant,
    end: End,
}

impl Seen {
    fn of(obs: &Observed, n: usize) -> Option<Seen> {
        let (ended, end) = obs.ended.get(n).cloned().flatten()?;
        Some(Seen {
            due: obs.due.get(n).copied().flatten()?,
            sent: obs.sent.get(n).copied().flatten()?,
            ended,
            end,
        })
    }

    fn latency_ms(&self) -> f64 {
        self.ended.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }

    fn lag_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// Runs the `serve-open` workload.
pub fn run(ctx: &Ctx, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let sizes = sizes(ctx.scale);
    let (h, first) = on_cpu(|| {
        timed(
            tracer,
            None,
            || "setup: Server::start, pong, priming replays".into(),
            |_| start_server(ctx, sizes),
        )
        .0
    })?;
    let h = h?;
    let mut setup_s = vec![first.as_secs_f64()];

    let mut plan = Plan::new(ctx.seed);
    let warmup = plan.draw(sizes.rate, sizes.warmup);
    let window = plan.draw(sizes.rate, sizes.window);
    let budget = Duration::from_secs_f64(if tracer.is_some() {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    });
    // Windows are driven one at a time, each drained before the next, so
    // each has a CPU time of its own: that of the whole process, server
    // and client threads alike. Their number is fixed by the budget, not
    // by the clock, so every run holds the same cold traces.
    let windows = ((budget.as_secs_f64() / sizes.window.as_secs_f64()) as usize).max(MIN_REPS);
    type Load = (f64, Vec<Duration>, Vec<Duration>, Option<f64>);
    let mut load = || -> Result<Load, String> {
        let from = plan.push(&warmup, Phase::Warmup);
        h.client.drive(&plan, from, sizes.records)?;
        let mut window_rep = |phase: Phase| {
            let from = plan.push(&window, phase);
            let (sent, cpu) = on_cpu(|| h.client.drive(&plan, from, sizes.records))?;
            sent.map(|()| cpu)
        };
        let measured = (0..windows)
            .map(|w| window_rep(Phase::Measured(w)))
            .collect::<Result<Vec<_>, _>>()?;
        // Every cold trace stays in a worker's trace cache, so this is
        // read after a fixed amount of load. By now both workers also
        // hold every hot trace; after the warm-up alone, which hot traces
        // each worker held varied from run to run.
        let peak_rss_mb = peak_rss_mb()?;
        if tracer.is_none() {
            return Ok((peak_rss_mb, measured, Vec::new(), None));
        }
        let traced = (0..windows)
            .map(|w| window_rep(Phase::Traced(w)))
            .collect::<Result<Vec<_>, _>>()?;
        let knee = knee_ladder(&h.client, &mut plan, sizes)?;
        Ok((peak_rss_mb, measured, traced, knee))
    };
    let load = load();
    let obs = h.stop();
    let (peak_rss_mb, measured, traced, knee) = load?;
    more_setups(&mut setup_s, || {
        start_server(ctx, sizes).map(Harnessed::stop).map(drop)
    })?;

    // Offline: recompute every job, check its rows, time its service.
    let mut oracle = Oracle::default();
    let mut problems = Vec::new();
    let (mut failed, mut busy, mut rows) = (0u64, 0u64, 0u64);
    // Each window's rep: its jobs' work and latencies.
    let mut windows: HashMap<Phase, Rep> = HashMap::new();
    let (mut lags, mut queue_wait) = (Vec::new(), Vec::new());
    let mut service: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let note = |problems: &mut Vec<String>, p: String| {
        if problems.len() < 8 {
            problems.push(p);
        }
    };
    for (n, job) in plan.jobs.iter().enumerate() {
        let Some(seen) = Seen::of(&obs, n) else {
            failed += 1;
            note(
                &mut problems,
                format!("job j{n} was not sent or did not end"),
            );
            continue;
        };
        match &seen.end {
            End::Done { .. } => {}
            // Past the knee the ladder is refused by design; that ends
            // the ladder but is not a failure of the run.
            End::Busy if matches!(job.phase, Phase::Ladder(_)) => continue,
            End::Busy => {
                busy += 1;
                failed += 1;
                continue;
            }
            End::Error(e) => {
                failed += 1;
                note(&mut problems, format!("job j{n} failed: {e}"));
                continue;
            }
        }
        let want = oracle.expect(job, sizes.records, tracer);
        let got = &obs.rows[n];
        rows += got.len() as u64;
        if want.rows.len() != got.len() || !want.rows.iter().zip(got).all(|(w, g)| w.matches(g)) {
            failed += 1;
            note(
                &mut problems,
                format!("job j{n} {:?} streamed wrong rows", job.key()),
            );
            continue;
        }
        if matches!(job.phase, Phase::Warmup | Phase::Ladder(_)) {
            continue;
        }
        let records = match job.kind {
            Kind::Sweep => sizes.records * SWEEP_MFS.len() as u64,
            _ => sizes.records,
        };
        let rep = windows.entry(job.phase).or_default();
        rep.accesses += want.accesses;
        rep.records += records;
        rep.jobs += 1;
        rep.job_ms.push(seen.latency_ms());
        let service_ms = want.service.as_secs_f64() * 1e3;
        lags.push(seen.lag_ms());
        queue_wait.push((seen.latency_ms() - service_ms).max(0.0));
        service.entry(job.kind.name()).or_default().push(service_ms);
    }
    if failed > 0 {
        problems.push(format!(
            "{failed} of {} jobs failed ({busy} busy)",
            plan.jobs.len()
        ));
    }

    let reps = |cpu: &[Duration], phase: fn(usize) -> Phase| -> Vec<Rep> {
        (cpu.iter().enumerate())
            .map(|(w, &cpu)| Rep {
                cpu,
                ..windows.get(&phase(w)).cloned().unwrap_or_default()
            })
            .collect()
    };
    let mut outcome = Outcome {
        setup_s,
        peak_rss_mb,
        reps: reps(&measured, Phase::Measured),
        attempted: plan.jobs.len() as u64,
        failed,
        problems,
        ..Outcome::default()
    };
    let Some(t) = tracer else {
        return Ok(outcome);
    };
    outcome.traced_reps = reps(&traced, Phase::Traced);
    record_job_spans(t, &plan, &obs);
    let rtt: Vec<f64> = obs
        .pings
        .iter()
        .zip(&obs.pongs)
        .map(|(p, q)| q.saturating_duration_since(*p).as_secs_f64() * 1e6)
        .collect();
    let frames: Vec<String> = (plan.jobs.iter().enumerate())
        .map(|(n, j)| j.frame(n, sizes.records))
        .collect();
    let ((), parse) = timed(
        Some(t),
        None,
        || "protocol::parse_request".into(),
        |_| {
            for f in &frames {
                std::hint::black_box(protocol::parse_request(std::hint::black_box(f)).is_ok());
            }
        },
    );
    let rows_dropped = (obs.ended.iter().flatten())
        .filter_map(|(_, e)| match e {
            End::Done { rows_dropped } => Some(*rows_dropped),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let qw = Value::median("serve.queue_wait_ms_p50", "ms", &queue_wait);
    let mut details = vec![Value::single(
        "serve.parse_us",
        "us",
        parse.as_secs_f64() * 1e6 / frames.len().max(1) as f64,
    )];
    for kind in ["replay", "profile", "sweep"] {
        details.push(Value::median(
            &format!("serve.service_ms.{kind}"),
            "ms",
            service.get(kind).map_or(&[][..], Vec::as_slice),
        ));
    }
    details.extend([
        Value::single(
            "serve.queue_wait_ms_p99",
            "ms",
            tail(&queue_wait).map_or(qw.value, |(_, v)| v),
        ),
        qw,
        Value::median("serve.ping_rtt_us", "us", &rtt),
        Value::single("serve.rows", "count", rows as f64),
        Value::single("serve.rows_dropped", "count", rows_dropped as f64),
        Value::single("serve.busy", "count", busy as f64),
        Value::single(
            "loadgen.send_lag_p99_ms",
            "ms",
            tail(&lags).map_or(0.0, |(_, v)| v),
        ),
        Value::single("serve.knee_rate_jobs_per_s", "1/s", knee.unwrap_or(0.0)),
    ]);
    outcome.details = details;
    outcome.layers = Some(probe_layers(ctx, &oracle, sizes, t));
    Ok(outcome)
}

/// The informational rate ladder of a traced run: ×[`KNEE_STEP`] steps
/// above the workload's rate until the step's tail latency passes
/// [`KNEE_LIMIT_MS`] (a growing backlog shows there first). Returns the
/// highest rate that met the limit, if any did.
fn knee_ladder(client: &Client, plan: &mut Plan, sizes: Sizes) -> Result<Option<f64>, String> {
    let mut knee = None;
    let mut rate = sizes.rate;
    for step in 0..KNEE_MAX_STEPS {
        rate *= KNEE_STEP;
        let first = plan.jobs.len();
        let window = plan.draw(rate, sizes.knee_step);
        let from = plan.push(&window, Phase::Ladder(step));
        client.drive(plan, from, sizes.records)?;
        let o = lock(&client.obs.0);
        let latencies: Vec<f64> = (first..plan.jobs.len())
            .filter_map(|n| Seen::of(&o, n))
            .filter(|s| matches!(s.end, End::Done { .. }))
            .map(|s| s.latency_ms())
            .collect();
        let met = latencies.len() == plan.jobs.len() - first
            && tail(&latencies).is_some_and(|(_, p)| p <= KNEE_LIMIT_MS);
        if !met {
            break;
        }
        knee = Some(rate);
    }
    Ok(knee)
}

/// Per-layer tallies: trace-gen and extraction as the offline check
/// ran them, then the kernel fleet and the CPU model over one hot trace
/// of every benchmark.
fn probe_layers(ctx: &Ctx, oracle: &Oracle, sizes: Sizes, tracer: &Tracer) -> LayerTally {
    let hot: Vec<Input> = BENCHMARKS
        .iter()
        .map(|b| Input {
            profile: resolve_benchmark(b).expect("serve benchmarks resolve"),
            side: Side::Data,
            len: RunLength {
                seed: hot_seed(ctx.seed, 0),
                ..RunLength::with_records(sizes.records)
            },
        })
        .collect();
    let (probe, _) = timed(
        Some(tracer),
        None,
        || "layer probe".into(),
        |id| layers::probe(&hot, Some(tracer), id),
    );
    LayerTally {
        gen: oracle.gen,
        ..probe
    }
}

/// Spans of the traced jobs, from the client's timestamps: due → end,
/// with the sender's lag and the server's share as children. Jobs
/// overlap, so each goes on the first lane free at its due time.
fn record_job_spans(tracer: &Tracer, plan: &Plan, obs: &Observed) {
    let mut lanes: Vec<Instant> = Vec::new();
    for (n, job) in plan.jobs.iter().enumerate() {
        let Some(seen) = Seen::of(obs, n).filter(|_| matches!(job.phase, Phase::Traced(_))) else {
            continue;
        };
        let lane = lanes
            .iter()
            .position(|free| *free <= seen.due)
            .unwrap_or_else(|| {
                lanes.push(seen.due);
                lanes.len() - 1
            });
        lanes[lane] = seen.ended;
        let tid = MAIN_TID + 10 + lane as u64;
        let name = format!("job {} {}", job.kind.name(), job.benchmark);
        let id = tracer.record(None, &name, tid, seen.due, seen.ended);
        let sent = seen.sent.max(seen.due).min(seen.ended);
        tracer.record(Some(id), "client send lag", tid, seen.due, sent);
        tracer.record(
            Some(id),
            "server: queue, service, reply",
            tid,
            sent,
            seen.ended,
        );
    }
}

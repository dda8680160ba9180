//! The `bcache-repro loadgen` client: drives a serve instance at
//! saturation with N connections × a deterministic mix of job types,
//! and reports aggregate jobs/s plus latency percentiles from the
//! shared [`Histogram`].
//!
//! ```text
//! bcache-repro loadgen [--addr HOST:PORT] [--connections N]
//!                      [--requests N] [--records N] [--seed S]
//!                      [--out PATH]
//! ```
//!
//! Without `--addr` the loadgen spawns an in-process server on an
//! ephemeral port (the bench-scenario and CI-smoke shape); with it,
//! any running `bcache-repro serve` can be driven over the network.
//! `--out` writes the result in the bench JSON schema (model
//! `serve-loadgen`, `maccesses_per_sec` carrying jobs/s), so the
//! throughput file sits next to the kernel rows and rides the same
//! baseline tooling.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use telemetry::Histogram;

use super::listener::Server;
use super::protocol::{json_str_field, json_u64_field};
use super::ServeOptions;
use crate::bench;
use crate::cli;

/// Options of the `loadgen` subcommand.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadgenOptions {
    /// Target server; `None` spawns an in-process one.
    pub addr: Option<String>,
    /// Concurrent client connections.
    pub connections: usize,
    /// Jobs per connection.
    pub requests: usize,
    /// Records per job.
    pub records: u64,
    /// Trace seed shared by every job (identical traces keep the
    /// server's per-worker caches warm — the measurement is replay
    /// throughput, not trace generation).
    pub seed: u64,
    /// Write the report as a bench-schema JSON row to this path.
    pub out: Option<String>,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            addr: None,
            connections: 4,
            requests: 8,
            records: 20_000,
            seed: 1,
            out: None,
        }
    }
}

impl LoadgenOptions {
    /// Parses the option tail after `loadgen`.
    pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<LoadgenOptions, String> {
        let a = cli::parse(cli::LOADGEN_FLAGS, args)?;
        let d = LoadgenOptions::default();
        Ok(LoadgenOptions {
            addr: a.text(&cli::ADDR),
            connections: a.count(&cli::CONNECTIONS).unwrap_or(d.connections),
            requests: a.count(&cli::REQUESTS).unwrap_or(d.requests),
            records: a.int(&cli::RECORDS).unwrap_or(d.records),
            seed: a.int(&cli::SEED).unwrap_or(d.seed),
            out: a.text(&cli::OUT),
        })
    }
}

/// What one loadgen run measured.
#[derive(Clone, Debug)]
pub struct LoadgenReport {
    /// Jobs that completed with a `done` frame.
    pub jobs_ok: u64,
    /// Jobs that ended in an `error` frame.
    pub jobs_failed: u64,
    /// Jobs rejected with a `busy` frame.
    pub busy: u64,
    /// Row frames received.
    pub rows: u64,
    /// Wall time of the whole run.
    pub elapsed: Duration,
    /// Per-job latency in microseconds (submit → done/error).
    pub latency_us: Histogram,
}

impl LoadgenReport {
    /// Completed jobs per wall-clock second.
    pub fn jobs_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.jobs_ok as f64 / secs
        }
    }

    /// Renders the human-readable report.
    pub fn render(&self, opts: &LoadgenOptions) -> String {
        format!(
            "loadgen: {} connections x {} requests, {} records/job, seed {}\n\
             jobs: {} ok, {} failed, {} busy-rejected; {} rows streamed\n\
             wall: {:.3} s  throughput: {:.1} jobs/s\n\
             latency us: p50<={} p95<={} p99<={} ({})\n",
            opts.connections,
            opts.requests,
            opts.records,
            opts.seed,
            self.jobs_ok,
            self.jobs_failed,
            self.busy,
            self.rows,
            self.elapsed.as_secs_f64(),
            self.jobs_per_sec(),
            self.latency_us.quantile(0.50),
            self.latency_us.quantile(0.95),
            self.latency_us.quantile(0.99),
            self.latency_us.summary(),
        )
    }

    /// The report as a bench-schema JSON row (model `serve-loadgen`,
    /// `maccesses_per_sec` carrying jobs/s) — the new bench scenario's
    /// file format.
    pub fn to_bench_json(&self, opts: &LoadgenOptions) -> String {
        bench::render_json(&[bench::BenchRow {
            model: "serve-loadgen".into(),
            maccesses_per_sec: self.jobs_per_sec(),
            records: opts.records,
            seed: opts.seed,
            git_rev: bench::git_rev(),
        }])
    }
}

/// A connected protocol client (one TCP stream + buffered reader).
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

/// The terminal frame a job ended with, as seen by a client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobEnd {
    /// `done` frame: `(rows received, cached points reported)`.
    Done {
        /// Row frames received for the job.
        rows: u64,
        /// `cached` count from the done frame.
        cached: u64,
    },
    /// `busy` admission reject.
    Busy,
    /// `error` frame with its message.
    Error(String),
}

impl Client {
    /// Connects to `addr` with a read timeout (no client ever hangs a
    /// test or smoke run forever).
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // One-line request/response frames: Nagle + delayed ACK would
        // add ~40 ms to every exchange.
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| format!("set timeout: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone stream: {e}"))?,
        );
        Ok(Client { stream, reader })
    }

    /// Sends one frame line.
    pub fn send(&mut self, frame: &str) -> Result<(), String> {
        self.stream
            .write_all(frame.as_bytes())
            .and_then(|_| self.stream.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads the next frame line.
    pub fn read_frame(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Submits a job frame and pumps frames until its terminal
    /// `done`/`busy`/`error`. Returns the terminal plus every row
    /// frame received for this id.
    pub fn run_job(&mut self, frame: &str, id: &str) -> Result<(JobEnd, Vec<String>), String> {
        self.send(frame)?;
        let mut rows = Vec::new();
        loop {
            let line = self.read_frame()?;
            if json_str_field(&line, "id").as_deref() != Some(id) {
                continue; // a frame about some other job on this session
            }
            match json_str_field(&line, "type").as_deref() {
                Some("ack") => {}
                Some("row") => rows.push(line),
                Some("busy") => return Ok((JobEnd::Busy, rows)),
                Some("error") => {
                    let msg = json_str_field(&line, "error").unwrap_or_default();
                    return Ok((JobEnd::Error(msg), rows));
                }
                Some("done") => {
                    let cached = json_u64_field(&line, "cached").unwrap_or(0);
                    return Ok((
                        JobEnd::Done {
                            rows: rows.len() as u64,
                            cached,
                        },
                        rows,
                    ));
                }
                _ => {}
            }
        }
    }
}

/// The deterministic job mix: replays across four models, a windowed
/// profile, and an occasional sweep — every job type the server
/// understands, cycling by request ordinal.
fn job_frame(conn: usize, req: usize, opts: &LoadgenOptions) -> (String, String) {
    let id = format!("c{conn}-r{req}");
    let common = format!(
        "\"id\": \"{id}\", \"benchmark\": \"mcf\", \"records\": {}, \"seed\": {}",
        opts.records, opts.seed
    );
    let frame = match req % 6 {
        0 => format!("{{\"type\": \"submit\", {common}, \"job\": \"replay\", \"model\": \"direct-mapped\"}}"),
        1 => format!("{{\"type\": \"submit\", {common}, \"job\": \"replay\", \"model\": \"bcache-mf8-bas8\"}}"),
        2 => format!("{{\"type\": \"submit\", {common}, \"job\": \"replay\", \"model\": \"8-way-lru\"}}"),
        3 => format!("{{\"type\": \"submit\", {common}, \"job\": \"profile\", \"model\": \"bcache-mf8-bas8\", \"window\": 2048}}"),
        4 => format!("{{\"type\": \"submit\", {common}, \"job\": \"replay\", \"model\": \"victim16\"}}"),
        _ => format!("{{\"type\": \"submit\", {common}, \"job\": \"sweep\"}}"),
    };
    (id, frame)
}

/// Runs the load generator. Spawns an in-process server when
/// `opts.addr` is `None`.
///
/// # Errors
///
/// Returns a message when the server cannot start or a connection
/// fails outright; per-job errors are counted, not fatal.
pub fn run_loadgen(opts: &LoadgenOptions) -> Result<LoadgenReport, String> {
    let (server, addr) = match &opts.addr {
        Some(a) => (None, a.clone()),
        None => {
            let sopts = ServeOptions {
                addr: "127.0.0.1:0".into(),
                ..ServeOptions::default()
            };
            let server = Server::start(sopts)?;
            let addr = server.local_addr().to_string();
            (Some(server), addr)
        }
    };

    let totals = Arc::new(Mutex::new((
        Histogram::new(),
        0u64, // ok
        0u64, // failed
        0u64, // busy
        0u64, // rows
    )));
    let start = Instant::now();
    let mut threads = Vec::new();
    for conn in 0..opts.connections {
        let addr = addr.clone();
        let opts = opts.clone();
        let totals = totals.clone();
        threads.push(thread::spawn(move || -> Result<(), String> {
            let mut client = Client::connect(&addr)?;
            let mut hist = Histogram::new();
            let (mut ok, mut failed, mut busy, mut rows) = (0u64, 0u64, 0u64, 0u64);
            for req in 0..opts.requests {
                let (id, frame) = job_frame(conn, req, &opts);
                let t0 = Instant::now();
                match client.run_job(&frame, &id)? {
                    (JobEnd::Done { rows: r, .. }, _) => {
                        hist.record(t0.elapsed().as_micros() as u64);
                        ok += 1;
                        rows += r;
                    }
                    (JobEnd::Busy, _) => {
                        busy += 1;
                        // Give the queue a moment to drain, then move on.
                        thread::sleep(Duration::from_millis(5));
                    }
                    (JobEnd::Error(_), _) => failed += 1,
                }
            }
            let mut t = totals.lock().unwrap_or_else(|e| e.into_inner());
            t.0.merge(&hist);
            t.1 += ok;
            t.2 += failed;
            t.3 += busy;
            t.4 += rows;
            Ok(())
        }));
    }
    let mut first_err = None;
    for t in threads {
        match t.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => first_err = first_err.or(Some(e)),
            Err(_) => first_err = first_err.or(Some("loadgen connection panicked".into())),
        }
    }
    let elapsed = start.elapsed();
    if let Some(server) = server {
        server.shutdown();
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    let t = totals.lock().unwrap_or_else(|e| e.into_inner());
    Ok(LoadgenReport {
        jobs_ok: t.1,
        jobs_failed: t.2,
        busy: t.3,
        rows: t.4,
        elapsed,
        latency_us: t.0.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse_and_validate() {
        let o = LoadgenOptions::parse(&[
            "--addr",
            "127.0.0.1:9",
            "--connections",
            "2",
            "--requests",
            "5",
            "--records",
            "9000",
            "--seed",
            "3",
            "--out",
            "/tmp/lg.json",
        ])
        .unwrap();
        assert_eq!(o.addr.as_deref(), Some("127.0.0.1:9"));
        assert_eq!(o.connections, 2);
        assert_eq!(o.requests, 5);
        assert_eq!(o.records, 9_000);
        assert_eq!(o.seed, 3);
        assert_eq!(o.out.as_deref(), Some("/tmp/lg.json"));
        assert!(LoadgenOptions::parse(&["--connections", "0"]).is_err());
        assert!(LoadgenOptions::parse(&["--requests", "0"]).is_err());
        assert!(LoadgenOptions::parse(&["--records", "0"]).is_err());
        assert!(LoadgenOptions::parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn job_mix_cycles_every_job_type() {
        let opts = LoadgenOptions::default();
        let kinds: Vec<String> = (0..6)
            .map(|r| {
                let (_, frame) = job_frame(0, r, &opts);
                json_str_field(&frame, "job").unwrap()
            })
            .collect();
        assert!(kinds.contains(&"replay".to_string()));
        assert!(kinds.contains(&"profile".to_string()));
        assert!(kinds.contains(&"sweep".to_string()));
    }

    #[test]
    fn bench_json_row_parses_back() {
        let report = LoadgenReport {
            jobs_ok: 10,
            jobs_failed: 0,
            busy: 0,
            rows: 10,
            elapsed: Duration::from_secs(2),
            latency_us: Histogram::new(),
        };
        let opts = LoadgenOptions::default();
        let rows = bench::parse_rows(&report.to_bench_json(&opts)).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].model, "serve-loadgen");
        assert!((rows[0].maccesses_per_sec - 5.0).abs() < 1e-9);
        assert_eq!(rows[0].records, opts.records);
    }
}

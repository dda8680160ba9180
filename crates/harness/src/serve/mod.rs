//! `bcache-repro serve`: a crash-safe multi-tenant simulation server.
//!
//! The server accepts line-delimited JSON frames over TCP and runs
//! trace-replay, design-space sweep, and windowed-profile jobs with
//! the panic isolation and checkpoint format the batch CLI uses, so a
//! served sweep survives job panics *and* whole-server restarts, and
//! its numbers are byte-identical to the offline paths.
//!
//! Layout:
//! - [`protocol`]: wire frames (parse + build) and the hand-rolled
//!   JSON field scanners.
//! - [`session`]: one connection — bounded-line reader, outbound
//!   buffer with EventRing-style drop accounting, writer thread.
//! - [`scheduler`]: per-tenant bounded queues with round-robin
//!   draining and explicit `busy` admission rejects.
//! - `streams`: the one side-stream cache every worker shares,
//!   retaining a stream from its key's second request.
//! - [`listener`]: accept loop, worker pool, checkpoint store,
//!   lifecycle ([`Server::start`] / [`Server::shutdown`]).
//! - [`loadgen`]: the saturation client (`bcache-repro loadgen`).

pub mod listener;
pub mod loadgen;
pub mod protocol;
pub mod scheduler;
pub mod session;
pub(crate) mod streams;

use std::thread;
use std::time::Duration;

pub use listener::{ServeSummary, Server};
pub use loadgen::{run_loadgen, LoadgenOptions};

use crate::cli;
use crate::config::EngineSetup;
use crate::parallel::default_parallelism;
use loadgen::{Client, JobEnd};
use protocol::{Request, MAX_LINE_BYTES};

/// Options of the `serve` subcommand.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Per-tenant queue bound; a submit past it gets a `busy` frame.
    pub queue_cap: usize,
    /// Per-session outbound buffer bound (row frames; oldest dropped).
    pub outbuf_cap: usize,
    /// Run the self-contained smoke battery instead of serving.
    pub smoke: bool,
    /// `--checkpoint`/`--resume`, shared with the sweep experiments.
    pub setup: EngineSetup,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:4680".into(),
            workers: default_parallelism(),
            queue_cap: 16,
            outbuf_cap: 4096,
            smoke: false,
            setup: EngineSetup::default(),
        }
    }
}

impl ServeOptions {
    /// Parses the option tail after `serve`.
    pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<ServeOptions, String> {
        let a = cli::parse(cli::SERVE_FLAGS, args)?;
        let d = ServeOptions::default();
        let addr = a.text(&cli::ADDR).unwrap_or(d.addr);
        if addr.is_empty() {
            return Err("--addr must not be empty".into());
        }
        Ok(ServeOptions {
            addr,
            workers: a.count(&cli::WORKERS).unwrap_or(d.workers),
            queue_cap: a.count(&cli::QUEUE_CAP).unwrap_or(d.queue_cap),
            outbuf_cap: a.count(&cli::OUTBUF_CAP).unwrap_or(d.outbuf_cap),
            smoke: a.has(&cli::SMOKE),
            setup: a.setup(),
        })
    }
}

/// Entry point of the `serve` subcommand. `--smoke` runs the
/// self-contained battery on an in-process server and returns a report;
/// otherwise the server runs in the foreground until killed.
///
/// # Errors
///
/// Returns a message on invalid options, bind failure, or a failed
/// battery assertion.
pub fn serve_cmd(opts: ServeOptions) -> Result<String, String> {
    if opts.smoke {
        return smoke(opts);
    }
    let server = Server::start(opts)?;
    println!("bcache-repro serve: listening on {}", server.local_addr());
    // Foreground mode: serve until the process is killed. Sweep state
    // lives in the checkpoint (if configured), so a kill is safe.
    loop {
        thread::sleep(Duration::from_secs(3600));
    }
}

/// Starts an in-process server on an ephemeral port, overriding
/// whatever `--addr` said (batteries must not collide with a real
/// deployment or need a free well-known port in CI).
fn start_ephemeral(mut opts: ServeOptions) -> Result<(Server, String), String> {
    opts.addr = "127.0.0.1:0".into();
    opts.smoke = false;
    let server = Server::start(opts)?;
    let addr = server.local_addr().to_string();
    Ok((server, addr))
}

/// A replay job whose submit frame asks for an injected panic, and a
/// plain job on the same stream submitted after it.
const PANIC_JOB: &str = "{\"type\": \"submit\", \"id\": \"boom\", \"job\": \"replay\", \
                         \"records\": 10000, \"fault\": \"panic\"}";
const AFTER_PANIC_JOB: &str = "{\"type\": \"submit\", \"id\": \"ok\", \"job\": \"replay\", \
                               \"records\": 10000}";

/// The CI smoke battery: a short loadgen burst, the malformed-frame
/// checks and a panic-injected job, asserting that the panic comes
/// back as an error frame and a later job still completes, clean
/// shutdown, non-zero completed jobs, and one first-sighting extraction
/// per distinct stream the jobs requested.
fn smoke(opts: ServeOptions) -> Result<String, String> {
    let (server, addr) = start_ephemeral(opts)?;

    // A short mixed-job burst through the real client — 6 requests per
    // connection cycles through every job kind (replays, profile,
    // sweep).
    let lg = LoadgenOptions {
        addr: Some(addr.clone()),
        connections: 4,
        requests: 6,
        records: 20_000,
        ..LoadgenOptions::default()
    };
    let report = run_loadgen(&lg)?;

    // Hostile input on a fresh session must produce error frames and
    // leave the session (and server) serving.
    let malformed_errors = run_malformed_battery(&addr)?;

    // A panicking job must come back as a structured error frame, and
    // the server must keep serving normal jobs.
    let mut client = Client::connect(&addr)?;
    let (end, _) = client.run_job(PANIC_JOB, "boom")?;
    if !matches!(end, JobEnd::Error(_)) {
        return Err(format!(
            "smoke: panic-injected job ended as {end:?}, expected error"
        ));
    }
    let (end, _) = client.run_job(AFTER_PANIC_JOB, "ok")?;
    if !matches!(end, JobEnd::Done { .. }) {
        return Err(format!(
            "smoke: post-panic job ended as {end:?}, expected done"
        ));
    }

    // Each distinct stream the jobs asked for is a first sighting once
    // (the panic is injected after the stream is fetched).
    let burst = (0..lg.connections)
        .flat_map(|conn| (0..lg.requests).map(move |req| (conn, req)))
        .map(|(conn, req)| loadgen::job_frame(conn, req, &lg).1);
    let mut streams = Vec::new();
    for frame in burst.chain([PANIC_JOB.into(), AFTER_PANIC_JOB.into()]) {
        if let Ok(Request::Submit(job)) = protocol::parse_request(&frame) {
            let (benchmark, len, side) = job.spec.stream();
            let key = (benchmark.to_string(), len, side);
            if !streams.contains(&key) {
                streams.push(key);
            }
        }
    }

    let summary = server.shutdown();
    if summary.jobs_completed == 0 {
        return Err("smoke: server completed no jobs".into());
    }
    if report.jobs_ok == 0 {
        return Err("smoke: loadgen saw no completed jobs".into());
    }
    if report.jobs_failed > 0 {
        return Err(format!(
            "smoke: {} loadgen jobs failed unexpectedly",
            report.jobs_failed
        ));
    }
    if summary.protocol_errors < malformed_errors {
        return Err(format!(
            "smoke: server counted {} protocol errors, expected at least {malformed_errors}",
            summary.protocol_errors
        ));
    }
    if summary.trace_fresh != streams.len() as u64 {
        return Err(format!(
            "smoke: {} first-sighting trace extractions for {} distinct streams",
            summary.trace_fresh,
            streams.len()
        ));
    }
    Ok(format!(
        "SERVE SMOKE OK: {} jobs completed, {} failed, {} protocol errors handled\n\
         trace cache: {} fresh, {} fills, {} hits, {} streams retained\n{}",
        summary.jobs_completed,
        summary.jobs_failed,
        summary.protocol_errors,
        summary.trace_fresh,
        summary.trace_fills,
        summary.trace_hits,
        summary.streams_retained,
        report.render(&lg)
    ))
}

/// The malformed-frame battery: every hostile input must come back as
/// an `error` frame, and the session must still answer a `ping`
/// afterwards. Returns how many error frames were provoked.
fn run_malformed_battery(addr: &str) -> Result<u64, String> {
    let mut client = Client::connect(addr)?;
    let hostile: Vec<String> = vec![
        // Truncated JSON.
        "{\"type\": \"submit\", \"id\": \"t1\", \"job\"".into(),
        // Unknown frame type.
        "{\"type\": \"warp\"}".into(),
        // Unknown job type.
        "{\"type\": \"submit\", \"id\": \"t2\", \"job\": \"divine\"}".into(),
        // Missing id.
        "{\"type\": \"submit\", \"job\": \"replay\"}".into(),
        // Binary garbage.
        String::from_utf8_lossy(&[0xff, 0xfe, 0x00, 0x41]).into_owned(),
        // Oversized line (bounded reader must discard and recover).
        "x".repeat(MAX_LINE_BYTES * 2),
        // Degenerate run length.
        "{\"type\": \"submit\", \"id\": \"t3\", \"job\": \"replay\", \"records\": 0}".into(),
    ];
    let mut errors = 0u64;
    for frame in &hostile {
        client.send(frame)?;
        let reply = client.read_frame()?;
        match protocol::json_str_field(&reply, "type").as_deref() {
            Some("error") => errors += 1,
            other => {
                return Err(format!(
                    "malformed frame {frame:?} got {other:?} reply, expected error: {reply}"
                ))
            }
        }
    }
    // The session must have survived all of it.
    client.send("{\"type\": \"ping\"}")?;
    let reply = client.read_frame()?;
    if protocol::json_str_field(&reply, "type").as_deref() != Some("pong") {
        return Err(format!("session dead after hostile frames: {reply}"));
    }
    Ok(errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_options_parse_and_reject_degenerate_values() {
        let o = ServeOptions::parse(&[
            "--addr",
            "0.0.0.0:7777",
            "--workers",
            "3",
            "--queue-cap",
            "5",
            "--outbuf-cap",
            "64",
            "--checkpoint",
            "c.jsonl",
        ])
        .unwrap();
        assert_eq!(o.addr, "0.0.0.0:7777");
        assert_eq!(o.workers, 3);
        assert_eq!(o.queue_cap, 5);
        assert_eq!(o.outbuf_cap, 64);
        assert_eq!(o.setup.checkpoint.as_deref(), Some("c.jsonl"));

        assert!(ServeOptions::parse(&["--workers", "0"]).is_err());
        assert!(ServeOptions::parse(&["--queue-cap", "0"]).is_err());
        assert!(ServeOptions::parse(&["--outbuf-cap", "0"]).is_err());
        assert!(ServeOptions::parse(&["--addr", ""]).is_err());
        assert!(ServeOptions::parse(&["--workers"]).is_err());
        assert!(ServeOptions::parse(&["--mystery"]).is_err());
        assert!(ServeOptions::parse(&["--fuzz-frames"]).is_err());
        assert!(ServeOptions::parse(&["--smoke"]).unwrap().smoke);
    }
}

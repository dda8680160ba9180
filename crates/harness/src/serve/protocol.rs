//! The `bcache-repro serve` wire protocol: line-delimited single-line
//! JSON frames over TCP, in the same minimal hand-rolled JSON dialect
//! as the `telemetry_io` JSONL codec and the checkpoint store (flat
//! objects, `"key": value` fields, no nesting beyond one `data`
//! object, no escapes in field *names*).
//!
//! Requests (client → server):
//!
//! ```text
//! {"type": "ping"}
//! {"type": "submit", "id": "j1", "job": "replay", "benchmark": "mcf",
//!  "model": "bcache-mf8-bas8", "records": 50000, "seed": 1, "side": "d"}
//! ```
//!
//! `job` is one of `replay` | `sweep` | `profile`. Optional fields:
//! `tenant` (admission-control queue key; defaults to the connection),
//! `warmup`, `window` (profile only), and `fault` (`"panic"` — a test
//! hook that makes the job panic inside its server worker, so the
//! panic-isolation path can be driven from the wire).
//!
//! Responses (server → client):
//!
//! ```text
//! {"type": "pong"}
//! {"type": "ack", "id": "j1"}
//! {"type": "busy", "id": "j1", "queued": 16, "cap": 16}
//! {"type": "row", "id": "j1", "seq": 0, "data": {…}}
//! {"type": "done", "id": "j1", "rows": 9, "cached": 4, "rows_dropped": 0}
//! {"type": "error", "id": "j1", "error": "…"}
//! ```
//!
//! Every f64 result travels both as a human-readable decimal and as the
//! `{:016x}` image of its IEEE-754 bits (`*_bits`), the same encoding
//! the checkpoint store uses, so clients can assert byte-identity with
//! the offline replay path without parsing floats.

use crate::config::validate_len;
use crate::profilecmd;
use crate::run::{RunLength, Side};

/// Hard cap on one request line, in bytes. A line that exceeds this is
/// discarded up to the next newline and answered with an error frame —
/// it is never buffered whole, so a hostile client cannot balloon the
/// session's memory.
pub const MAX_LINE_BYTES: usize = 8 * 1024;

/// Default records per job when a submit frame omits `records`.
pub const DEFAULT_RECORDS: u64 = 50_000;

/// Default profile window when a submit frame omits `window`.
pub const DEFAULT_WINDOW: u64 = 4096;

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with a `pong` frame.
    Ping,
    /// A job submission; answered with `ack` or `busy`.
    Submit(JobRequest),
}

/// A validated `submit` frame.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRequest {
    /// Client-chosen job id, echoed on every frame about this job.
    pub id: String,
    /// Admission-control queue key; `None` means "this connection".
    pub tenant: Option<String>,
    /// What to run.
    pub spec: JobSpec,
    /// Test hook: `Some("panic")` makes the job panic inside its server
    /// worker.
    pub fault: Option<String>,
}

/// The job body of a `submit` frame.
#[derive(Clone, Debug, PartialEq)]
pub enum JobSpec {
    /// One (model × benchmark) replay; streams a single result row.
    Replay {
        /// Benchmark name (resolved via the profile registry).
        benchmark: String,
        /// Model name (resolved via the model registry).
        model: String,
        /// Trace length.
        len: RunLength,
        /// Instruction or data side.
        side: Side,
    },
    /// The Figure-3-style MF sweep at BAS = 8; streams one row per MF
    /// point and checkpoints each point when the server has a
    /// checkpoint attached.
    Sweep {
        /// Benchmark name.
        benchmark: String,
        /// Trace length.
        len: RunLength,
    },
    /// A windowed profile replay; streams one row per retained window.
    Profile {
        /// Benchmark name.
        benchmark: String,
        /// Model name.
        model: String,
        /// Trace length.
        len: RunLength,
        /// Instruction or data side.
        side: Side,
        /// Accesses per window.
        window: u64,
    },
}

impl JobSpec {
    /// The side stream the job replays: `(benchmark, length, side)`.
    /// A sweep replays the data side.
    pub(crate) fn stream(&self) -> (&str, RunLength, Side) {
        match self {
            JobSpec::Replay {
                benchmark,
                len,
                side,
                ..
            }
            | JobSpec::Profile {
                benchmark,
                len,
                side,
                ..
            } => (benchmark, *len, *side),
            JobSpec::Sweep { benchmark, len } => (benchmark, *len, Side::Data),
        }
    }
}

/// Extracts a string field from a single-line JSON object — a frame,
/// or a checkpoint log line (field names are trusted, values are read
/// to the closing quote, so values must not contain `"`).
pub fn json_str_field(line: &str, name: &str) -> Option<String> {
    let pat = format!("\"{name}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// Extracts an unsigned integer field from a single-line JSON object.
pub fn json_u64_field(line: &str, name: &str) -> Option<u64> {
    let pat = format!("\"{name}\": ");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Escapes a string for embedding in a JSON value: backslash, quote,
/// and control characters. Error messages pass through here so a quote
/// in a panic payload cannot break the frame.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Parses and validates one request line. Every failure is a clean
/// message destined for an `error` frame — this function must never
/// panic on hostile input.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    if line.is_empty() {
        return Err("empty frame".into());
    }
    let kind = json_str_field(line, "type").ok_or("frame has no \"type\" field")?;
    match kind.as_str() {
        "ping" => Ok(Request::Ping),
        "submit" => parse_submit(line).map(Request::Submit),
        other => Err(format!(
            "unknown frame type {other:?} (expected ping or submit)"
        )),
    }
}

fn parse_submit(line: &str) -> Result<JobRequest, String> {
    let id = json_str_field(line, "id").ok_or("submit frame has no \"id\" field")?;
    if id.is_empty() || id.len() > 128 {
        return Err("job id must be 1..=128 characters".into());
    }
    let job = json_str_field(line, "job").ok_or("submit frame has no \"job\" field")?;
    let tenant = json_str_field(line, "tenant");
    let fault = json_str_field(line, "fault");
    if let Some(f) = &fault {
        if f != "panic" {
            return Err(format!("unknown fault {f:?} (only \"panic\" is supported)"));
        }
    }

    let records = json_u64_field(line, "records").unwrap_or(DEFAULT_RECORDS);
    let mut len = RunLength::with_records(records);
    if let Some(w) = json_u64_field(line, "warmup") {
        len.warmup = w;
    }
    if let Some(s) = json_u64_field(line, "seed") {
        len.seed = s;
    }
    validate_len(len)?;

    let benchmark = json_str_field(line, "benchmark").unwrap_or_else(|| "mcf".into());
    profilecmd::resolve_benchmark(&benchmark)?;
    let side = match json_str_field(line, "side").as_deref() {
        None | Some("d") | Some("data") => Side::Data,
        Some("i") | Some("instruction") => Side::Instruction,
        Some(other) => return Err(format!("unknown side {other:?} (expected i or d)")),
    };

    let spec = match job.as_str() {
        "replay" | "profile" => {
            let model = json_str_field(line, "model").unwrap_or_else(|| "bcache-mf8-bas8".into());
            profilecmd::resolve_model(&model)?;
            if job == "replay" {
                JobSpec::Replay {
                    benchmark,
                    model,
                    len,
                    side,
                }
            } else {
                let window = json_u64_field(line, "window").unwrap_or(DEFAULT_WINDOW);
                if window == 0 {
                    return Err("window must be at least 1 access".into());
                }
                JobSpec::Profile {
                    benchmark,
                    model,
                    len,
                    side,
                    window,
                }
            }
        }
        "sweep" => JobSpec::Sweep { benchmark, len },
        other => Err(format!(
            "unknown job type {other:?} (expected replay, sweep, or profile)"
        ))?,
    };
    Ok(JobRequest {
        id,
        tenant,
        spec,
        fault,
    })
}

/// Renders a `pong` frame.
pub fn pong_frame() -> String {
    "{\"type\": \"pong\"}".into()
}

/// Renders an `ack` frame for a submitted job.
pub fn ack_frame(id: &str) -> String {
    format!("{{\"type\": \"ack\", \"id\": \"{}\"}}", json_escape(id))
}

/// Renders a `busy` admission-reject frame: the tenant's queue already
/// holds `queued` of `cap` jobs.
pub fn busy_frame(id: &str, queued: usize, cap: usize) -> String {
    format!(
        "{{\"type\": \"busy\", \"id\": \"{}\", \"queued\": {queued}, \"cap\": {cap}}}",
        json_escape(id)
    )
}

/// Renders a streamed result row. `data` must already be a JSON object.
pub fn row_frame(id: &str, seq: u64, data: &str) -> String {
    format!(
        "{{\"type\": \"row\", \"id\": \"{}\", \"seq\": {seq}, \"data\": {data}}}",
        json_escape(id)
    )
}

/// Renders a job-completion frame. `rows_dropped` is the session's
/// cumulative outbound-buffer drop count (the [`telemetry::EventRing`]
/// accounting convention), not a per-job figure.
pub fn done_frame(id: &str, rows: u64, cached: u64, rows_dropped: u64) -> String {
    format!(
        "{{\"type\": \"done\", \"id\": \"{}\", \"rows\": {rows}, \
         \"cached\": {cached}, \"rows_dropped\": {rows_dropped}}}",
        json_escape(id)
    )
}

/// Renders an error frame. `id` is omitted when the failure happened
/// before a job id could be parsed.
pub fn error_frame(id: Option<&str>, msg: &str) -> String {
    match id {
        Some(id) => format!(
            "{{\"type\": \"error\", \"id\": \"{}\", \"error\": \"{}\"}}",
            json_escape(id),
            json_escape(msg)
        ),
        None => format!(
            "{{\"type\": \"error\", \"error\": \"{}\"}}",
            json_escape(msg)
        ),
    }
}

/// Renders an f64 as the `{:016x}` image of its bits — the checkpoint
/// encoding, used by `*_bits` fields for byte-identity assertions.
pub fn f64_bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_and_submit_parse() {
        assert_eq!(
            parse_request("{\"type\": \"ping\"}").unwrap(),
            Request::Ping
        );
        let r = parse_request(
            "{\"type\": \"submit\", \"id\": \"j1\", \"job\": \"replay\", \
             \"benchmark\": \"mcf\", \"model\": \"dm\", \"records\": 20000, \"seed\": 3}",
        )
        .unwrap();
        let Request::Submit(job) = r else {
            panic!("expected submit")
        };
        assert_eq!(job.id, "j1");
        assert_eq!(
            job.spec,
            JobSpec::Replay {
                benchmark: "mcf".into(),
                model: "dm".into(),
                len: RunLength {
                    records: 20_000,
                    warmup: 2_000,
                    seed: 3
                },
                side: Side::Data,
            }
        );
    }

    #[test]
    fn hostile_frames_are_clean_errors() {
        for bad in [
            "",
            "not json at all",
            "{\"type\": \"submit\"}",                // no id
            "{\"type\": \"launch\", \"id\": \"x\"}", // unknown type
            "{\"type\": \"submit\", \"id\": \"x\", \"job\": \"mine-bitcoin\"}", // unknown job
            "{\"type\": \"submit\", \"id\": \"x\", \"job\": \"replay\", \"model\": \"nope\"}",
            "{\"type\": \"submit\", \"id\": \"x\", \"job\": \"replay\", \"benchmark\": \"nope\"}",
            "{\"type\": \"submit\", \"id\": \"x\", \"job\": \"replay\", \"records\": 0}",
            "{\"type\": \"submit\", \"id\": \"x\", \"job\": \"replay\", \"side\": \"q\"}",
            "{\"type\": \"submit\", \"id\": \"x\", \"job\": \"profile\", \"window\": 0}",
            "{\"type\": \"submit\", \"id\": \"x\", \"job\": \"replay\", \"fault\": \"hang\"}",
            "{\"type\": \"submit\", \"id\": \"x\", \"job\": \"replay\", \
             \"records\": 100, \"warmup\": 100}",
        ] {
            assert!(parse_request(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn submit_defaults_fill_in() {
        let r = parse_request("{\"type\": \"submit\", \"id\": \"d\", \"job\": \"sweep\"}").unwrap();
        let Request::Submit(job) = r else {
            panic!("expected submit")
        };
        assert_eq!(
            job.spec,
            JobSpec::Sweep {
                benchmark: "mcf".into(),
                len: RunLength::with_records(DEFAULT_RECORDS),
            }
        );
        assert!(job.tenant.is_none() && job.fault.is_none());
    }

    #[test]
    fn escaping_survives_quotes_and_newlines() {
        let f = error_frame(Some("a\"b"), "panic:\n\t\"boom\"");
        assert!(!f.contains('\n'), "single-line invariant broken: {f}");
        assert_eq!(json_str_field(&f, "type").as_deref(), Some("error"));
        assert!(f.contains("\\\"boom\\\""), "{f}");
        assert_eq!(json_escape("a\u{1}b"), "a\\u0001b");
    }

    #[test]
    fn frames_round_trip_through_field_scans() {
        let f = done_frame("j9", 9, 4, 0);
        assert_eq!(json_str_field(&f, "type").as_deref(), Some("done"));
        assert_eq!(json_str_field(&f, "id").as_deref(), Some("j9"));
        assert_eq!(json_u64_field(&f, "rows"), Some(9));
        assert_eq!(json_u64_field(&f, "cached"), Some(4));
        let b = busy_frame("j1", 16, 16);
        assert_eq!(json_u64_field(&b, "queued"), Some(16));
        assert_eq!(f64_bits(1.0), "3ff0000000000000");
    }
}

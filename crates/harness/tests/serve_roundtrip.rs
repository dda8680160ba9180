//! End-to-end tests of `bcache-repro serve` on an ephemeral port:
//! byte-identity with the offline replay paths, panic isolation across
//! concurrent sessions, kill-and-restart sweep resume through the
//! checkpoint, the shared trace cache's retention rule, hostile-frame
//! handling, and admission control.

use std::collections::HashMap;
use std::thread;

use harness::config::CacheConfig;
use harness::run::{replay_bcache_pd_on, replay_config_on, RunLength, Side};
use harness::serve::loadgen::{Client, JobEnd};
use harness::serve::protocol::{f64_bits, json_str_field, MAX_LINE_BYTES};
use harness::serve::{ServeOptions, Server};
use harness::{profilecmd, Engine};

/// A short run: every test here replays in debug mode under CI.
fn len() -> RunLength {
    RunLength::with_records(15_000)
}

fn ephemeral(workers: usize) -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers,
        ..ServeOptions::default()
    }
}

fn start(opts: ServeOptions) -> (Server, String) {
    let server = Server::start(opts).expect("server starts on an ephemeral port");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn submit_replay(id: &str, model: &str, records: u64) -> String {
    format!(
        "{{\"type\": \"submit\", \"id\": \"{id}\", \"job\": \"replay\", \
         \"benchmark\": \"mcf\", \"model\": \"{model}\", \"records\": {records}}}"
    )
}

#[test]
fn served_replays_are_byte_identical_to_the_offline_path() {
    let (server, addr) = start(ephemeral(2));
    let mut client = Client::connect(&addr).unwrap();

    // Offline reference, computed exactly the way `run`/`profile` do.
    let engine = Engine::new(1);
    let profile = trace_gen::profiles::by_name("mcf").unwrap();
    let trace = engine.side_trace(&profile, len(), Side::Data);
    let (_, dm_config) = profilecmd::resolve_model("direct-mapped").unwrap();
    let dm_expected = replay_config_on("mcf", &trace, &dm_config, 16 * 1024, Side::Data, len());
    let bc_expected = replay_bcache_pd_on(&trace, 8, 8, 16 * 1024);

    let frame = submit_replay("dm", "direct-mapped", len().records);
    let (end, rows) = client.run_job(&frame, "dm").unwrap();
    assert!(matches!(end, JobEnd::Done { rows: 1, .. }), "{end:?}");
    assert_eq!(
        json_str_field(&rows[0], "miss_rate_bits").unwrap(),
        f64_bits(dm_expected),
        "served direct-mapped replay must be bit-identical to the offline replay"
    );

    let frame = submit_replay("bc", "bcache-mf8-bas8", len().records);
    let (end, rows) = client.run_job(&frame, "bc").unwrap();
    assert!(matches!(end, JobEnd::Done { rows: 1, .. }), "{end:?}");
    assert_eq!(
        json_str_field(&rows[0], "miss_rate_bits").unwrap(),
        f64_bits(bc_expected.miss_rate)
    );
    assert_eq!(
        json_str_field(&rows[0], "pd_hit_bits").unwrap(),
        f64_bits(bc_expected.pd_hit_rate_on_miss)
    );

    let summary = server.shutdown();
    assert_eq!(summary.jobs_completed, 2);
    assert_eq!(summary.jobs_failed, 0);
}

#[test]
fn a_panicking_job_errors_only_its_own_session() {
    let (server, addr) = start(ephemeral(2));

    // Session B runs a normal job concurrently with A's faulting one.
    let addr_b = addr.clone();
    let b = thread::spawn(move || {
        let mut client = Client::connect(&addr_b).unwrap();
        let frame = submit_replay("b-ok", "direct-mapped", len().records);
        client.run_job(&frame, "b-ok").unwrap().0
    });

    let mut client = Client::connect(&addr).unwrap();
    let frame = format!(
        "{{\"type\": \"submit\", \"id\": \"a-boom\", \"job\": \"replay\", \
         \"benchmark\": \"mcf\", \"records\": {}, \"fault\": \"panic\"}}",
        len().records
    );
    let (end, _) = client.run_job(&frame, "a-boom").unwrap();
    match end {
        JobEnd::Error(msg) => assert!(
            msg.contains("injected protocol fault"),
            "error frame carries the panic message: {msg}"
        ),
        other => panic!("fault job ended as {other:?}, expected a structured error"),
    }

    // The unrelated session finished normally…
    assert!(matches!(b.join().unwrap(), JobEnd::Done { .. }));
    // …and the faulting session itself keeps working.
    let frame = submit_replay("a-ok", "direct-mapped", len().records);
    let (end, _) = client.run_job(&frame, "a-ok").unwrap();
    assert!(matches!(end, JobEnd::Done { .. }), "{end:?}");

    let summary = server.shutdown();
    assert_eq!(summary.jobs_completed, 2);
    assert_eq!(summary.jobs_failed, 1);
}

fn sweep_frame(id: &str, fault: bool) -> String {
    let fault = if fault { ", \"fault\": \"panic\"" } else { "" };
    format!(
        "{{\"type\": \"submit\", \"id\": \"{id}\", \"job\": \"sweep\", \
         \"benchmark\": \"mcf\", \"records\": {}{fault}}}",
        len().records
    )
}

/// `(mf -> (miss_rate_bits, cached))` from a sweep's row frames.
fn sweep_rows(rows: &[String]) -> HashMap<u64, (String, bool)> {
    rows.iter()
        .map(|r| {
            let mf = harness::serve::protocol::json_u64_field(r, "mf").unwrap();
            let bits = json_str_field(r, "miss_rate_bits").unwrap();
            let cached = r.contains("\"cached\": true");
            (mf, (bits, cached))
        })
        .collect()
}

#[test]
fn killed_and_restarted_sweep_resumes_byte_identically() {
    let ckpt = std::env::temp_dir().join(format!("serve_restart_{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let path = ckpt.to_str().unwrap().to_string();

    // Reference: the same sweep on a checkpoint-free server.
    let (server, addr) = start(ephemeral(1));
    let mut client = Client::connect(&addr).unwrap();
    let (end, rows) = client.run_job(&sweep_frame("ref", false), "ref").unwrap();
    assert!(
        matches!(end, JobEnd::Done { rows: 9, cached: 0 }),
        "{end:?}"
    );
    let reference = sweep_rows(&rows);
    server.shutdown();

    // Server A: checkpointing, with a fault that kills the sweep at
    // its mid-point. The first four points stream and checkpoint; the
    // job dies as a structured error. Then the server "crashes" (we
    // shut it down — the checkpoint file is flushed per point, so a
    // hard kill would leave the same file).
    let mut opts = ephemeral(1);
    opts.setup.checkpoint = Some(path.clone());
    let (server_a, addr_a) = start(opts);
    let mut client_a = Client::connect(&addr_a).unwrap();
    let (end, rows_a) = client_a.run_job(&sweep_frame("s1", true), "s1").unwrap();
    assert!(matches!(end, JobEnd::Error(_)), "{end:?}");
    assert_eq!(
        rows_a.len(),
        harness::serve::scheduler::SWEEP_FAULT_POINT,
        "the points before the fault streamed before the job died"
    );
    server_a.shutdown();

    // Server B resumes the checkpoint; the resubmitted sweep completes
    // with the first four points served from the checkpoint and every
    // value bit-identical to the clean run.
    let mut opts = ephemeral(1);
    opts.setup.resume = Some(path.clone());
    let (server_b, addr_b) = start(opts);
    let mut client_b = Client::connect(&addr_b).unwrap();
    let (end, rows_b) = client_b.run_job(&sweep_frame("s2", false), "s2").unwrap();
    assert!(
        matches!(end, JobEnd::Done { rows: 9, cached: 4 }),
        "{end:?}"
    );
    let resumed = sweep_rows(&rows_b);
    assert_eq!(resumed.len(), reference.len());
    for (mf, (bits, _)) in &reference {
        let (resumed_bits, cached) = &resumed[mf];
        assert_eq!(
            resumed_bits, bits,
            "MF {mf} after restart must be bit-identical to the clean run"
        );
        let idx = harness::serve::scheduler::SWEEP_MFS
            .iter()
            .position(|&m| m as u64 == *mf)
            .unwrap();
        assert_eq!(
            *cached,
            idx < harness::serve::scheduler::SWEEP_FAULT_POINT,
            "MF {mf}: exactly the pre-fault points come from the checkpoint"
        );
    }
    let summary = server_b.shutdown();
    assert_eq!(
        (summary.trace_fresh, summary.trace_fills, summary.trace_hits),
        (1, 0, 0),
        "the resumed sweep fetched its trace once, for the first uncached point"
    );

    // Server C resumes the now complete checkpoint: every point comes
    // from it, and the sweep never fetches the trace.
    let mut opts = ephemeral(1);
    opts.setup.resume = Some(path.clone());
    let (server_c, addr_c) = start(opts);
    let mut client_c = Client::connect(&addr_c).unwrap();
    let (end, rows_c) = client_c.run_job(&sweep_frame("s3", false), "s3").unwrap();
    assert!(
        matches!(end, JobEnd::Done { rows: 9, cached: 9 }),
        "{end:?}"
    );
    for (mf, (bits, cached)) in sweep_rows(&rows_c) {
        assert_eq!(bits, reference[&mf].0, "MF {mf} from the checkpoint");
        assert!(cached, "MF {mf} must come from the checkpoint");
    }
    let summary = server_c.shutdown();
    assert_eq!(
        (summary.trace_fresh, summary.trace_fills, summary.trace_hits),
        (0, 0, 0),
        "a fully checkpointed sweep must not fetch its trace"
    );
    let _ = std::fs::remove_file(&ckpt);
}

/// The offline result bits of one mcf data-side replay of `model` at
/// trace seed `seed`: `miss_rate_bits`, then `pd_hit_bits` for B-Cache.
fn offline_bits(model: &str, seed: u64) -> Vec<String> {
    let len = RunLength { seed, ..len() };
    let profile = trace_gen::profiles::by_name("mcf").unwrap();
    let trace = Engine::new(1).side_trace(&profile, len, Side::Data);
    match profilecmd::resolve_model(model).unwrap().1 {
        CacheConfig::BCache { mf, bas } => {
            let o = replay_bcache_pd_on(&trace, mf, bas, 16 * 1024);
            vec![f64_bits(o.miss_rate), f64_bits(o.pd_hit_rate_on_miss)]
        }
        config => vec![f64_bits(replay_config_on(
            "mcf",
            &trace,
            &config,
            16 * 1024,
            Side::Data,
            len,
        ))],
    }
}

#[test]
fn the_shared_trace_cache_retains_only_reused_streams() {
    let (server, addr) = start(ephemeral(2));
    // Three hot keys (trace seeds) with four jobs each, then six keys
    // with one job each.
    let models = ["direct-mapped", "bcache-mf8-bas8", "8-way-lru", "victim16"];
    let mut jobs: Vec<(String, &str, u64)> = Vec::new();
    for seed in [101, 102, 103] {
        for (m, model) in models.iter().enumerate() {
            jobs.push((format!("h{seed}-{m}"), model, seed));
        }
    }
    for seed in 201..=206 {
        jobs.push((format!("c{seed}"), models[0], seed));
    }
    // Two connections take alternate jobs, so both workers race on the
    // hot keys' first requests.
    let served: Vec<(String, &str, u64, Vec<String>)> = thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|c| {
                let (jobs, addr) = (&jobs, &addr);
                s.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    jobs.iter()
                        .skip(c)
                        .step_by(2)
                        .map(|(id, model, seed)| {
                            let frame = format!(
                                "{{\"type\": \"submit\", \"id\": \"{id}\", \"job\": \"replay\", \
                                 \"benchmark\": \"mcf\", \"model\": \"{model}\", \
                                 \"records\": {}, \"seed\": {seed}}}",
                                len().records
                            );
                            let (end, rows) = client.run_job(&frame, id).unwrap();
                            assert!(matches!(end, JobEnd::Done { rows: 1, .. }), "{end:?}");
                            let bits = ["miss_rate_bits", "pd_hit_bits"]
                                .iter()
                                .filter_map(|f| json_str_field(&rows[0], f))
                                .collect();
                            (id.clone(), *model, *seed, bits)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(served.len(), jobs.len());
    for (id, model, seed, bits) in &served {
        assert_eq!(
            *bits,
            offline_bits(model, *seed),
            "job {id}: served row must be bit-identical to the offline replay"
        );
    }

    let summary = server.shutdown();
    assert_eq!(summary.jobs_completed, jobs.len() as u64);
    assert_eq!(summary.trace_fresh, 9, "one first sighting per key");
    assert_eq!(
        summary.trace_fills, 3,
        "each hot key is extracted for retention once"
    );
    assert_eq!(summary.trace_hits, 6);
    assert_eq!(summary.streams_retained, 3, "only the reused keys stay");
}

#[test]
fn hostile_frames_get_error_frames_and_the_session_survives() {
    let (server, addr) = start(ephemeral(1));
    let mut client = Client::connect(&addr).unwrap();
    let hostile = [
        "{\"type\": \"submit\", \"id\": \"h1\", \"job\"".to_string(), // truncated
        "not json at all".to_string(),
        "{\"type\": \"submit\", \"id\": \"h2\", \"job\": \"divine\"}".to_string(),
        "{\"type\": \"submit\", \"job\": \"replay\"}".to_string(), // no id
        "{\"type\": \"submit\", \"id\": \"h3\", \"job\": \"replay\", \"records\": 0}".to_string(),
        "y".repeat(MAX_LINE_BYTES * 2), // oversized line
    ];
    for frame in &hostile {
        client.send(frame).unwrap();
        let reply = client.read_frame().unwrap();
        assert_eq!(
            json_str_field(&reply, "type").as_deref(),
            Some("error"),
            "hostile frame must be answered with an error frame: {reply}"
        );
    }
    // The session still speaks the protocol.
    client.send("{\"type\": \"ping\"}").unwrap();
    let reply = client.read_frame().unwrap();
    assert_eq!(json_str_field(&reply, "type").as_deref(), Some("pong"));

    let summary = server.shutdown();
    assert_eq!(summary.protocol_errors, hostile.len() as u64);
    assert_eq!(summary.jobs_completed, 0);
}

#[test]
fn full_queues_reject_with_busy_while_admitted_jobs_complete() {
    let mut opts = ephemeral(1);
    opts.queue_cap = 1;
    let (server, addr) = start(opts);
    let mut client = Client::connect(&addr).unwrap();

    // Fire three sweeps back-to-back at a single worker with a
    // one-slot queue: the first occupies the worker, at most one more
    // fits the queue, so at least one must be rejected busy.
    for id in ["q1", "q2", "q3"] {
        client.send(&sweep_frame(id, false)).unwrap();
    }
    let (mut done, mut busy) = (0u32, 0u32);
    let mut terminals = 0;
    while terminals < 3 {
        let frame = client.read_frame().unwrap();
        match json_str_field(&frame, "type").as_deref() {
            Some("done") => {
                done += 1;
                terminals += 1;
            }
            Some("busy") => {
                busy += 1;
                terminals += 1;
            }
            Some("error") => panic!("unexpected error frame: {frame}"),
            _ => {}
        }
    }
    assert!(busy >= 1, "a full queue must reject with busy");
    assert!(done >= 1, "admitted jobs must still complete");
    assert_eq!(done + busy, 3);

    let summary = server.shutdown();
    assert_eq!(summary.jobs_completed, u64::from(done));
}

//! The TCP listener and server lifecycle: accept loop, per-connection
//! session threads, worker pool, the shared trace cache, and the shared
//! checkpoint store that makes sweeps survive a server kill.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use super::scheduler::{self, Scheduler};
use super::session;
use super::streams::StreamCache;
use super::ServeOptions;
use crate::checkpoint::{Checkpoint, CheckpointMeta};
use crate::run::RunLength;

fn recover<'a, T>(
    r: Result<MutexGuard<'a, T>, std::sync::PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(|e| e.into_inner())
}

/// State shared by the accept loop, every session, and every worker.
pub(crate) struct ServerShared {
    /// The options the server was started with.
    pub opts: ServeOptions,
    /// The admission-controlled job queue.
    pub scheduler: Scheduler,
    /// Side streams for every worker, kept from a key's second request.
    pub streams: StreamCache,
    /// Sweep-point store (`--checkpoint`/`--resume`); `None` when the
    /// server runs without persistence.
    checkpoint: Mutex<Option<Checkpoint>>,
    /// Jobs that finished with a `done` frame.
    pub jobs_completed: AtomicU64,
    /// Jobs that finished with an `error` frame.
    pub jobs_failed: AtomicU64,
    /// Malformed frames answered with an `error` frame.
    pub protocol_errors: AtomicU64,
    /// Currently connected sessions.
    pub active_sessions: AtomicU64,
    /// Accept-loop stop flag.
    pub shutdown: AtomicBool,
    /// Connection ordinal source (default tenant identity).
    pub next_conn: AtomicU64,
}

impl ServerShared {
    /// Reads a checkpointed sweep point.
    pub fn checkpoint_get(&self, key: &str) -> Option<String> {
        recover(self.checkpoint.lock())
            .as_ref()
            .and_then(|ck| ck.get(key))
    }

    /// Persists a sweep point (flushed immediately, like the engine's
    /// checkpoint path). A write failure is reported on stderr but
    /// does not fail the job — the result still streams to the client.
    pub fn checkpoint_put(&self, key: &str, value: &str) {
        if let Some(ck) = recover(self.checkpoint.lock()).as_mut() {
            if let Err(e) = ck.put(key, value) {
                eprintln!("warning: checkpoint write failed for {key}: {e}");
            }
        }
    }

    /// Counts one malformed frame.
    pub fn note_protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// What a server observed over its lifetime, reported at shutdown.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Jobs that completed with a `done` frame.
    pub jobs_completed: u64,
    /// Jobs that ended in an `error` frame.
    pub jobs_failed: u64,
    /// Malformed frames answered with `error` frames.
    pub protocol_errors: u64,
    /// Trace requests that extracted a first-seen stream and let it go.
    pub trace_fresh: u64,
    /// Trace requests that ran the extraction of a retained stream.
    pub trace_fills: u64,
    /// Trace requests served from a retained stream.
    pub trace_hits: u64,
    /// Side streams retained at shutdown.
    pub streams_retained: u64,
}

/// A running `bcache-repro serve` instance: accept thread + worker
/// pool, shut down explicitly via [`Server::shutdown`].
#[derive(Debug)]
pub struct Server {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerShared")
            .field(
                "jobs_completed",
                &self.jobs_completed.load(Ordering::Relaxed),
            )
            .field("jobs_failed", &self.jobs_failed.load(Ordering::Relaxed))
            .field(
                "active_sessions",
                &self.active_sessions.load(Ordering::Relaxed),
            )
            .finish()
    }
}

/// The checkpoint identity every serve checkpoint is pinned to. The
/// per-job run lengths live in the point keys, so the file-level meta
/// is a constant — any serve instance can resume any serve checkpoint.
fn serve_meta() -> CheckpointMeta {
    CheckpointMeta::new(
        "serve",
        RunLength {
            records: 0,
            warmup: 0,
            seed: 0,
        },
    )
}

impl Server {
    /// Binds `opts.addr`, opens the checkpoint (if requested), and
    /// spawns the worker pool plus the accept thread.
    ///
    /// # Errors
    ///
    /// Returns a message when the bind fails or `--resume` names a
    /// missing/mismatched checkpoint.
    pub fn start(opts: ServeOptions) -> Result<Server, String> {
        let listener =
            TcpListener::bind(&opts.addr).map_err(|e| format!("cannot bind {}: {e}", opts.addr))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot poll listener: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("no local address: {e}"))?;
        let checkpoint = if let Some(path) = &opts.setup.resume {
            Some(Checkpoint::resume(Path::new(path), serve_meta())?)
        } else if let Some(path) = &opts.setup.checkpoint {
            Some(Checkpoint::load_or_create(Path::new(path), serve_meta())?)
        } else {
            None
        };
        let shared = Arc::new(ServerShared {
            scheduler: Scheduler::new(opts.queue_cap),
            streams: StreamCache::new(),
            checkpoint: Mutex::new(checkpoint),
            jobs_completed: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            active_sessions: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            next_conn: AtomicU64::new(0),
            opts,
        });
        let workers = (0..shared.opts.workers.max(1))
            .map(|_| {
                let shared = shared.clone();
                thread::spawn(move || scheduler::worker_loop(&shared))
            })
            .collect();
        let accept = {
            let shared = shared.clone();
            thread::spawn(move || accept_loop(listener, shared))
        };
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves `:0` to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Jobs completed so far (live counter).
    pub fn jobs_completed(&self) -> u64 {
        self.shared.jobs_completed.load(Ordering::Relaxed)
    }

    /// Stops accepting, drains the queued jobs, joins the workers, and
    /// waits (bounded) for connected sessions to hang up.
    pub fn shutdown(mut self) -> ServeSummary {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.shared.scheduler.shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.shared.active_sessions.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        let streams = self.shared.streams.counts();
        ServeSummary {
            jobs_completed: self.shared.jobs_completed.load(Ordering::Relaxed),
            jobs_failed: self.shared.jobs_failed.load(Ordering::Relaxed),
            protocol_errors: self.shared.protocol_errors.load(Ordering::Relaxed),
            trace_fresh: streams.fresh,
            trace_fills: streams.fills,
            trace_hits: streams.hits,
            streams_retained: streams.retained,
        }
    }
}

/// Polls for connections until shutdown; each one gets a detached
/// session thread (itself panic-shielded — a session bug must never
/// take the server down).
fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_nodelay(true);
                let conn = shared.next_conn.fetch_add(1, Ordering::SeqCst);
                shared.active_sessions.fetch_add(1, Ordering::SeqCst);
                let shared = shared.clone();
                thread::spawn(move || {
                    let _ = panic::catch_unwind(AssertUnwindSafe(|| {
                        run_session_stream(stream, &shared, conn)
                    }));
                    shared.active_sessions.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn run_session_stream(stream: TcpStream, shared: &Arc<ServerShared>, conn: u64) {
    session::run_session(stream, shared.clone(), conn);
}

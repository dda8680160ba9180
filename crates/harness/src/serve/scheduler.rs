//! Per-tenant fair scheduling and job execution.
//!
//! Admission control is a bounded queue per tenant (`--queue-cap`): a
//! submit that finds the tenant's queue full is rejected with a `busy`
//! frame instead of queueing unboundedly. Workers drain tenants
//! round-robin, so one chatty tenant cannot starve the rest — with
//! `T` active tenants every tenant gets every `T`-th job slot.
//!
//! Each job runs under `catch_unwind`: a job that panics becomes an
//! `error` frame on the owning session only — the worker thread and
//! every other session keep going. A submit frame's `"fault": "panic"`
//! makes its job panic, to test exactly that.
//!
//! Jobs read their side streams from the server's one `StreamCache`
//! (`serve::streams`), so a hot stream is held once however many
//! workers replay it.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};

use super::listener::ServerShared;
use super::protocol::{
    ack_frame, done_frame, error_frame, f64_bits, row_frame, JobRequest, JobSpec,
};
use super::session::Outbox;
use crate::checkpoint::CheckpointValue;
use crate::config::L1_BYTES;
use crate::parallel::{job_seed, panic_message, recover};
use crate::profilecmd::{self, profile_replay};
use crate::run::{replay_bcache_pd_on, RunLength};

/// The MF points of a `sweep` job (the Figure 3 grid, BAS = 8).
pub const SWEEP_MFS: [usize; 9] = [2, 4, 8, 16, 32, 64, 128, 256, 512];

/// Sweep point index at which an injected `fault: "panic"` fires —
/// mid-sweep, so the checkpoint holds the earlier points when the job
/// dies (the restart-resume test drives exactly this).
pub const SWEEP_FAULT_POINT: usize = 4;

/// A queued unit of work: the validated request plus the session's
/// outbox to stream results into.
#[derive(Debug)]
pub struct Job {
    /// The validated submit frame.
    pub request: JobRequest,
    /// Where this job's frames go.
    pub outbox: Arc<Outbox>,
}

struct SchedState {
    queues: Vec<(String, VecDeque<Job>)>,
    cursor: usize,
    shutdown: bool,
}

/// The admission-controlled, tenant-fair job queue.
#[derive(Debug)]
pub struct Scheduler {
    queue_cap: usize,
    state: Mutex<SchedState>,
    ready: Condvar,
}

impl std::fmt::Debug for SchedState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedState")
            .field("tenants", &self.queues.len())
            .field("shutdown", &self.shutdown)
            .finish()
    }
}

impl Scheduler {
    /// A scheduler admitting at most `queue_cap` queued jobs per tenant
    /// (min 1).
    pub fn new(queue_cap: usize) -> Scheduler {
        Scheduler {
            queue_cap: queue_cap.max(1),
            state: Mutex::new(SchedState {
                queues: Vec::new(),
                cursor: 0,
                shutdown: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Admits `job` to `tenant`'s queue, or rejects it when the queue
    /// is full — `Err((queued, cap))` backs the `busy` frame. On
    /// admission the `ack` frame is queued *under the scheduler lock*,
    /// so it always precedes any row a worker streams for the job.
    pub fn submit(&self, tenant: &str, job: Job) -> Result<(), (usize, usize)> {
        let mut s = recover(self.state.lock());
        if s.shutdown {
            return Err((0, self.queue_cap));
        }
        if !s.queues.iter().any(|(t, _)| t == tenant) {
            s.queues.push((tenant.to_string(), VecDeque::new()));
        }
        let q = s
            .queues
            .iter_mut()
            .find(|(t, _)| t == tenant)
            .map(|(_, q)| q)
            .expect("tenant queue just ensured");
        if q.len() >= self.queue_cap {
            return Err((q.len(), self.queue_cap));
        }
        job.outbox.push_control(ack_frame(&job.request.id));
        q.push_back(job);
        drop(s);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next job, scanning tenants round-robin from the
    /// cursor. `None` once shut down.
    pub fn next(&self) -> Option<Job> {
        let mut s = recover(self.state.lock());
        loop {
            // Tenants whose queues drained are retired; they re-appear
            // on their next submit.
            s.queues.retain(|(_, q)| !q.is_empty());
            let n = s.queues.len();
            if n > 0 {
                let idx = s.cursor % n;
                let job = s.queues[idx].1.pop_front().expect("non-empty by retain");
                s.cursor = idx + 1;
                return Some(job);
            }
            if s.shutdown {
                return None;
            }
            s = recover(self.ready.wait(s));
        }
    }

    /// Stops admission and wakes every worker; workers drain the jobs
    /// already queued, then exit.
    pub fn shutdown(&self) {
        recover(self.state.lock()).shutdown = true;
        self.ready.notify_all();
    }
}

/// Worker thread body: drains the scheduler until shutdown.
pub(crate) fn worker_loop(shared: &Arc<ServerShared>) {
    while let Some(job) = shared.scheduler.next() {
        execute_job(shared, job);
    }
}

/// How one finished job reports itself in its `done` frame.
struct JobDone {
    rows: u64,
    cached: u64,
}

/// Runs one job under a panic shield: a panic is caught here and
/// confined to this job's session as an `error` frame.
fn execute_job(shared: &Arc<ServerShared>, job: Job) {
    let id = job.request.id.clone();
    let outbox = job.outbox.clone();
    match panic::catch_unwind(AssertUnwindSafe(|| run_job(shared, &job))) {
        Ok(Ok(done)) => {
            outbox.push_control(done_frame(&id, done.rows, done.cached, outbox.dropped()));
            shared.jobs_completed.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Err(msg)) => {
            outbox.push_control(error_frame(Some(&id), &msg));
            shared.jobs_failed.fetch_add(1, Ordering::Relaxed);
        }
        Err(payload) => {
            let msg = format!("job panicked: {}", panic_message(payload.as_ref()));
            outbox.push_control(error_frame(Some(&id), &msg));
            shared.jobs_failed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn run_job(shared: &Arc<ServerShared>, job: &Job) -> Result<JobDone, String> {
    match &job.request.spec {
        JobSpec::Replay {
            benchmark,
            model,
            len,
            side,
        } => run_replay(shared, job, benchmark, model, *len, *side),
        JobSpec::Sweep { benchmark, len } => run_sweep(shared, job, benchmark, *len),
        JobSpec::Profile {
            benchmark,
            model,
            len,
            side,
            window,
        } => run_profile(shared, job, benchmark, model, *len, *side, *window),
    }
}

/// Panics with the protocol fault message when the submit frame asked
/// for one.
fn maybe_inject(job: &Job, at: &str) {
    if job.request.fault.is_some() {
        panic!("injected protocol fault{at} (job {})", job.request.id);
    }
}

fn run_replay(
    shared: &ServerShared,
    job: &Job,
    benchmark: &str,
    model: &str,
    len: RunLength,
    side: crate::run::Side,
) -> Result<JobDone, String> {
    let profile = profilecmd::resolve_benchmark(benchmark)?;
    let (label, config) = profilecmd::resolve_model(model)?;
    let trace = shared.streams.side(&profile, len, side);
    maybe_inject(job, "");
    let mut model = config
        .build(L1_BYTES, job_seed(len.seed, benchmark, side))
        .expect("served models build at 16 kB");
    trace.replay(model.as_mut());
    let miss_rate = model.stats().miss_rate();
    let mut data = format!(
        "{{\"model\": \"{label}\", \"miss_rate\": {miss_rate:.6}, \"miss_rate_bits\": \"{}\"",
        f64_bits(miss_rate),
    );
    if let Some(pd) = model.decoder_stats() {
        let rate = pd.pd_hit_rate_on_miss();
        data.push_str(&format!(
            ", \"pd_hit_rate_on_miss\": {rate:.6}, \"pd_hit_bits\": \"{}\"",
            f64_bits(rate)
        ));
    }
    data.push('}');
    job.outbox.push_row(row_frame(&job.request.id, 0, &data));
    Ok(JobDone { rows: 1, cached: 0 })
}

fn run_sweep(
    shared: &Arc<ServerShared>,
    job: &Job,
    benchmark: &str,
    len: RunLength,
) -> Result<JobDone, String> {
    let profile = profilecmd::resolve_benchmark(benchmark)?;
    // Fetched on the first point the checkpoint does not hold, so a
    // fully checkpointed sweep builds no trace.
    let mut trace = None;
    let mut done = JobDone { rows: 0, cached: 0 };
    for (idx, &mf) in SWEEP_MFS.iter().enumerate() {
        let key = format!(
            "sweep/{benchmark}/r{}/w{}/s{}/mf{mf}",
            len.records, len.warmup, len.seed
        );
        let cached = shared
            .checkpoint_get(&key)
            .and_then(|v| crate::run::BCachePdOutcome::decode(&v));
        let from_cache = cached.is_some();
        let outcome = match cached {
            Some(v) => {
                done.cached += 1;
                v
            }
            None => {
                if idx == SWEEP_FAULT_POINT {
                    maybe_inject(job, &format!(" at MF{mf}"));
                }
                let trace = trace.get_or_insert_with(|| {
                    shared.streams.side(&profile, len, crate::run::Side::Data)
                });
                let v = replay_bcache_pd_on(trace, mf, 8, L1_BYTES);
                shared.checkpoint_put(&key, &v.encode());
                v
            }
        };
        let data = format!(
            "{{\"mf\": {mf}, \"miss_rate\": {:.6}, \"miss_rate_bits\": \"{}\", \
             \"pd_hit_rate_on_miss\": {:.6}, \"pd_hit_bits\": \"{}\", \"cached\": {from_cache}}}",
            outcome.miss_rate,
            f64_bits(outcome.miss_rate),
            outcome.pd_hit_rate_on_miss,
            f64_bits(outcome.pd_hit_rate_on_miss),
        );
        job.outbox
            .push_row(row_frame(&job.request.id, idx as u64, &data));
        done.rows += 1;
    }
    Ok(done)
}

#[allow(clippy::too_many_arguments)]
fn run_profile(
    shared: &ServerShared,
    job: &Job,
    benchmark: &str,
    model: &str,
    len: RunLength,
    side: crate::run::Side,
    window: u64,
) -> Result<JobDone, String> {
    let profile = profilecmd::resolve_benchmark(benchmark)?;
    let (label, config) = profilecmd::resolve_model(model)?;
    let trace = shared.streams.side(&profile, len, side);
    let seed = job_seed(len.seed, benchmark, side);
    maybe_inject(job, "");
    let (series, _frag, _miss_rate) = profile_replay(config, label, seed, &trace, window);
    let mut rows = 0u64;
    for row in series.rows() {
        job.outbox
            .push_row(row_frame(&job.request.id, row.index, &row.to_json()));
        rows += 1;
    }
    Ok(JobDone { rows, cached: 0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Side;

    fn dummy_job(id: &str, outbox: &Arc<Outbox>) -> Job {
        Job {
            request: JobRequest {
                id: id.into(),
                tenant: None,
                spec: JobSpec::Replay {
                    benchmark: "mcf".into(),
                    model: "direct-mapped".into(),
                    len: RunLength::with_records(1_000),
                    side: Side::Data,
                },
                fault: None,
            },
            outbox: outbox.clone(),
        }
    }

    #[test]
    fn admission_control_rejects_at_queue_cap_deterministically() {
        let s = Scheduler::new(2);
        let ob = Arc::new(Outbox::new(8));
        assert!(s.submit("a", dummy_job("1", &ob)).is_ok());
        assert!(s.submit("a", dummy_job("2", &ob)).is_ok());
        assert_eq!(s.submit("a", dummy_job("3", &ob)), Err((2, 2)));
        // A different tenant has its own bound.
        assert!(s.submit("b", dummy_job("4", &ob)).is_ok());
        // Acks were queued for exactly the admitted jobs.
        ob.close();
        let acks: Vec<String> = std::iter::from_fn(|| ob.pop()).collect();
        assert_eq!(acks, vec![ack_frame("1"), ack_frame("2"), ack_frame("4")]);
    }

    #[test]
    fn tenants_are_drained_round_robin() {
        let s = Scheduler::new(8);
        let ob = Arc::new(Outbox::new(8));
        for id in ["a1", "a2", "a3"] {
            s.submit("a", dummy_job(id, &ob)).unwrap();
        }
        for id in ["b1", "b2"] {
            s.submit("b", dummy_job(id, &ob)).unwrap();
        }
        s.shutdown(); // workers drain what is queued, then next() yields None
        let order: Vec<String> = std::iter::from_fn(|| s.next().map(|j| j.request.id)).collect();
        // Fair interleave, not a-then-b.
        assert_eq!(order, vec!["a1", "b1", "a2", "b2", "a3"]);
    }

    #[test]
    fn shutdown_unblocks_waiting_workers() {
        let s = Arc::new(Scheduler::new(1));
        let s2 = s.clone();
        let t = std::thread::spawn(move || s2.next().map(|j| j.request.id));
        std::thread::sleep(std::time::Duration::from_millis(20));
        s.shutdown();
        assert_eq!(t.join().unwrap(), None);
        // And submits after shutdown are rejected as busy.
        let ob = Arc::new(Outbox::new(2));
        assert!(s.submit("a", dummy_job("x", &ob)).is_err());
    }
}

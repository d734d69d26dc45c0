//! `stgcheck serve`: a long-running batch/daemon front end over the
//! verification core.
//!
//! Two layers live here:
//!
//! * [`Scheduler`] — a bounded-admission worker pool that runs
//!   [`verify_persistent`] jobs with per-job cancellation latches,
//!   coalescing of in-flight duplicate nets, and panic isolation (a
//!   worker panic becomes one [`JobError::Panic`] result, never a dead
//!   worker or a crashed daemon).
//! * [`run_daemon`] — the JSON-lines request loop (stdin/stdout by
//!   default, a unix socket with `--listen`) with load shedding, a
//!   crash-safe request journal ([`crate::journal`]) behind `--journal`,
//!   `--recover` replay, and graceful drain on SIGTERM/EOF.
//!
//! The robustness invariants the fault-injection suite holds this module
//! to: no injected fault (`journal-write`, `journal-read`,
//! `serve-accept`, `serve-parse`, `worker-panic`; armed by the
//! [`crate::FaultPlan`] in [`ServeOptions::persist`]) may produce a
//! wrong verdict, a torn journal record, or a hung drain; admission is
//! bounded ([`ServeOptions::queue_cap`]), so a request flood degrades
//! into explicit `queue_full` rejections instead of unbounded memory.
//! See `docs/serve.md` for the protocol and the operational runbook.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use stgcheck_stg::{parse_g, Implementability, Stg};

use crate::exit::ProcessExit;
use crate::journal::{self, Journal};
use crate::protocol::{json_escape, parse_json, parse_request, Request, VerifyRequest};
use crate::store::cache_key;
use crate::verify::{verify_persistent, Outcome, PersistOptions, VerifyOptions, VerifyRun};

/// Maps a run outcome to the one-shot CLI's exit code, the contract the
/// serve protocol's `exit_code` field mirrors (see [`ProcessExit`]).
pub fn outcome_exit(outcome: &Outcome) -> ProcessExit {
    match outcome {
        Outcome::Completed(report) => match report.verdict {
            Implementability::Gate | Implementability::InputOutput => ProcessExit::Success,
            Implementability::SpeedIndependent | Implementability::NotImplementable => {
                ProcessExit::Violation
            }
        },
        Outcome::Interrupted { .. } => ProcessExit::Interrupted,
        Outcome::Exhausted { .. } => ProcessExit::Exhausted,
    }
}

/// One unit of work for the [`Scheduler`]: a parsed net plus the fully
/// resolved verification and persistence options.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// The net to verify.
    pub stg: Stg,
    /// Verification options (two jobs share a computation only when
    /// these select the same run and their budgets match; see
    /// `coalesce_key`).
    pub options: VerifyOptions,
    /// Cache/checkpoint plumbing. [`PersistOptions::cancel`] is owned by
    /// the scheduler — anything set here is replaced by the job's own
    /// cancellation latch. [`PersistOptions::faults`] also arms the
    /// job's `worker-panic` hook.
    pub persist: PersistOptions,
}

/// Why a job ended without a [`VerifyRun`].
#[derive(Clone, Debug)]
pub enum JobError {
    /// [`verify_persistent`] returned a typed error (maps to exit 1,
    /// like the one-shot CLI).
    Verify(String),
    /// The worker panicked running this job; the pool isolated it to
    /// this one result (maps to exit 5, `internal_error`).
    Panic(String),
}

/// What a completed job delivers to its submitter's callback.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The verification outcome, or why there is none.
    pub run: Result<VerifyRun, JobError>,
    /// Time spent queued before a worker picked the job up (for
    /// coalesced followers: until the shared result was delivered).
    pub queue_wait: Duration,
    /// Wall-clock of the verification itself (zero for coalesced
    /// followers — they did not run).
    pub wall: Duration,
    /// `true` when this result was delivered from another in-flight
    /// job's computation rather than a run of its own.
    pub coalesced: bool,
}

/// Why [`Scheduler::submit`] refused a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shed {
    /// The admission queue is at [`ServeOptions::queue_cap`].
    QueueFull,
    /// The scheduler is draining and admits nothing new.
    Draining,
}

impl Shed {
    /// The protocol's `reason` string for a shed rejection.
    pub fn reason(self) -> &'static str {
        match self {
            Shed::QueueFull => "queue_full",
            Shed::Draining => "draining",
        }
    }
}

type Callback = Box<dyn FnOnce(JobResult) + Send + 'static>;

/// Coalescing key: two jobs share one computation only when they would
/// share a result-store entry ([`cache_key`]: the net content and every
/// option that changes what the run computes) *and* their budgets and
/// `incremental` flags match. The budget must be part of this key
/// (unlike the store key, which deliberately excludes it): a follower
/// with a generous budget must never be answered by a tightly budgeted
/// leader's `exhausted`.
fn coalesce_key(spec: &JobSpec) -> String {
    let key = cache_key(spec.stg.content_hash(), &spec.options);
    format!("{key} {:?} {}", spec.options.budget, spec.persist.incremental)
}

struct Queued {
    job_id: u64,
    spec: JobSpec,
    callback: Callback,
    latch: Arc<AtomicBool>,
    enqueued: Instant,
    key: String,
}

#[derive(Default)]
struct SchedState {
    queue: VecDeque<Queued>,
    /// Followers attached to the queued-or-running leader per key.
    inflight: HashMap<String, Vec<Queued>>,
    /// Live cancellation latches by job id (queued, running, follower).
    latches: HashMap<u64, Arc<AtomicBool>>,
    /// Jobs admitted and not yet delivered (queue + running + followers)
    /// — the quantity the admission cap bounds.
    admitted: usize,
    next_job: u64,
    draining: bool,
    paused: bool,
}

struct Shared {
    state: Mutex<SchedState>,
    work: Condvar,
    cap: usize,
}

/// A fixed worker pool running [`verify_persistent`] jobs with bounded
/// admission, duplicate coalescing, per-job cancellation, and panic
/// isolation. See the module docs for the invariants.
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Scheduler {
    /// Spawns `workers` worker threads (minimum 1) over a queue bounded
    /// at `cap` admitted-but-undelivered jobs.
    pub fn new(workers: usize, cap: usize) -> Scheduler {
        Scheduler::build(workers, cap, false)
    }

    /// Like [`Scheduler::new`], but workers start parked: nothing runs
    /// until [`Scheduler::start`]. Tests use this to build a known queue
    /// shape (duplicates attached, cancellations latched) without racing
    /// the pool.
    pub fn new_paused(workers: usize, cap: usize) -> Scheduler {
        Scheduler::build(workers, cap, true)
    }

    fn build(workers: usize, cap: usize, paused: bool) -> Scheduler {
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedState { paused, ..SchedState::default() }),
            work: Condvar::new(),
            cap: cap.max(1),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("stgcheck-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Scheduler { shared, workers }
    }

    /// Unparks a [`Scheduler::new_paused`] pool.
    pub fn start(&self) {
        self.shared.state.lock().unwrap_or_else(|p| p.into_inner()).paused = false;
        self.shared.work.notify_all();
    }

    /// Whether a [`Scheduler::submit`] right now would be shed, and why.
    /// Only authoritative while the caller is the sole admitter (the
    /// daemon's single admission loop): workers only shrink the load.
    pub fn would_shed(&self) -> Option<Shed> {
        let st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
        if st.draining {
            Some(Shed::Draining)
        } else if st.admitted >= self.shared.cap {
            Some(Shed::QueueFull)
        } else {
            None
        }
    }

    /// Admits a job; `callback` fires exactly once, on a worker thread,
    /// with the job's result. Returns the job id for [`Scheduler::cancel`].
    ///
    /// A job whose net, options and budget select the same run as one
    /// already in flight is *coalesced*: it attaches to that computation
    /// and shares its result (marked [`JobResult::coalesced`]) instead of
    /// running.
    ///
    /// # Errors
    ///
    /// [`Shed`] when the pool is draining or the admission cap is
    /// reached; the callback is dropped unused.
    pub fn submit(&self, spec: JobSpec, callback: Callback) -> Result<u64, Shed> {
        let key = coalesce_key(&spec);
        let mut st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
        if st.draining {
            return Err(Shed::Draining);
        }
        if st.admitted >= self.shared.cap {
            return Err(Shed::QueueFull);
        }
        let job_id = st.next_job;
        st.next_job += 1;
        let latch = Arc::new(AtomicBool::new(false));
        st.latches.insert(job_id, Arc::clone(&latch));
        st.admitted += 1;
        let queued =
            Queued { job_id, spec, callback, latch, enqueued: Instant::now(), key: key.clone() };
        if let Some(followers) = st.inflight.get_mut(&key) {
            followers.push(queued);
        } else {
            st.inflight.insert(key, Vec::new());
            st.queue.push_back(queued);
            self.shared.work.notify_one();
        }
        Ok(job_id)
    }

    /// Flips the cancellation latch of job `job_id`. A running job stops
    /// at its next budget poll with `Outcome::Interrupted`; a queued job
    /// trips immediately when a worker picks it up; a coalesced follower
    /// is answered `Interrupted` without touching the leader it was
    /// attached to. Returns `false` when the job is unknown or already
    /// delivered.
    pub fn cancel(&self, job_id: u64) -> bool {
        let st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
        match st.latches.get(&job_id) {
            Some(latch) => {
                latch.store(true, Ordering::SeqCst);
                true
            }
            None => false,
        }
    }

    /// Trips every live latch — queued, running, and followers. The
    /// SIGTERM drain: in-flight work stops at its next poll (writing its
    /// checkpoint when configured) and every admitted job is still
    /// answered, as `interrupted`.
    pub fn cancel_all(&self) {
        let st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
        for latch in st.latches.values() {
            latch.store(true, Ordering::SeqCst);
        }
    }

    /// Jobs admitted and not yet delivered.
    pub fn load(&self) -> usize {
        self.shared.state.lock().unwrap_or_else(|p| p.into_inner()).admitted
    }

    /// Stops admission, lets the workers finish (or trip on) everything
    /// already admitted, and joins them. Every admitted job's callback
    /// has fired by the time this returns.
    pub fn drain(self) {
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
            st.draining = true;
            st.paused = false;
        }
        self.shared.work.notify_all();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked (non-string payload)".to_string()
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if !st.paused {
                    if let Some(job) = st.queue.pop_front() {
                        break job;
                    }
                    if st.draining {
                        return;
                    }
                }
                st = shared.work.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        };
        run_one(shared, job);
    }
}

fn run_one(shared: &Shared, job: Queued) {
    let Queued { job_id, spec, callback, latch, enqueued, key } = job;
    let started = Instant::now();
    let queue_wait = started.duration_since(enqueued);
    // The catch_unwind boundary is the panic-isolation contract: a panic
    // anywhere in the verification of one job — including the injected
    // `worker-panic` fault — must surface as that job's JobError::Panic,
    // with the worker thread alive and the queue still moving.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if spec.persist.faults.hit("worker-panic") {
            panic!("failpoint worker-panic armed");
        }
        let mut persist = spec.persist.clone();
        persist.cancel = Some(Arc::clone(&latch));
        verify_persistent(&spec.stg, spec.options, &persist)
    }));
    let wall = started.elapsed();
    let run: Result<VerifyRun, JobError> = match outcome {
        Ok(Ok(run)) => Ok(run),
        Ok(Err(e)) => Err(JobError::Verify(e.to_string())),
        Err(payload) => Err(JobError::Panic(panic_message(payload))),
    };

    // A result is shareable with coalesced followers only when it is a
    // real verdict for this configuration: Completed, or Exhausted (the
    // followers carry the identical budget, so exhaustion is their
    // answer too). An Interrupted leader was cancelled — its followers
    // were not, so they are promoted to a fresh computation; errors and
    // panics likewise get a fresh attempt per follower.
    let shareable = matches!(&run, Ok(r) if !matches!(r.outcome, Outcome::Interrupted { .. }));

    let followers = {
        let mut st = shared.state.lock().unwrap_or_else(|p| p.into_inner());
        st.latches.remove(&job_id);
        st.admitted = st.admitted.saturating_sub(1);
        st.inflight.remove(&key).unwrap_or_default()
    };

    callback(JobResult { run: run.clone(), queue_wait, wall, coalesced: false });

    let mut promote = Vec::new();
    for follower in followers {
        if follower.latch.load(Ordering::SeqCst) {
            finish_follower(
                shared,
                follower,
                Ok(VerifyRun {
                    outcome: Outcome::Interrupted { checkpoint: None },
                    cache: crate::store::CacheStatus::Off,
                    fell_back: false,
                    notes: vec!["cancelled while coalesced onto an in-flight duplicate".into()],
                }),
            );
        } else if shareable {
            finish_follower(shared, follower, run.clone());
        } else {
            promote.push(follower);
        }
    }
    if !promote.is_empty() {
        let mut st = shared.state.lock().unwrap_or_else(|p| p.into_inner());
        let leader = promote.remove(0);
        st.inflight.insert(leader.key.clone(), promote);
        // Promoted work was admitted long ago; head-of-queue keeps its
        // latency bounded instead of sending it to the back.
        st.queue.push_front(leader);
        drop(st);
        shared.work.notify_one();
    }
}

fn finish_follower(shared: &Shared, follower: Queued, run: Result<VerifyRun, JobError>) {
    {
        let mut st = shared.state.lock().unwrap_or_else(|p| p.into_inner());
        st.latches.remove(&follower.job_id);
        st.admitted = st.admitted.saturating_sub(1);
    }
    let queue_wait = follower.enqueued.elapsed();
    (follower.callback)(JobResult { run, queue_wait, wall: Duration::ZERO, coalesced: true });
}

// ---------------------------------------------------------------------------
// The JSON-lines daemon.
// ---------------------------------------------------------------------------

/// Configuration for [`run_daemon`] (the `stgcheck serve` subcommand).
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Worker threads (`--workers`, minimum 1).
    pub workers: usize,
    /// Admission bound: queued + running + coalesced jobs
    /// (`--queue-cap`, default 64). Beyond it, requests are answered
    /// `rejected`/`queue_full` — never buffered without bound.
    pub queue_cap: usize,
    /// The persistence template every job starts from: the result
    /// cache shared by all requests (`--cache-dir`, `--cache-max-mb`)
    /// and the daemon's one fault plan (`--failpoints`), which the
    /// journal, the admission path and every job count hits against.
    pub persist: PersistOptions,
    /// Request journal directory (`--journal`); enables `--recover`.
    pub journal_dir: Option<PathBuf>,
    /// Replay accepted-but-unanswered journal records before serving.
    pub recover: bool,
    /// Serve a unix socket instead of stdin/stdout (`--listen`).
    pub listen: Option<PathBuf>,
    /// Default verification options; each request may override.
    pub defaults: VerifyOptions,
    /// External termination latch (the SIGTERM/SIGINT handler's flag):
    /// when it flips, the daemon stops admitting, cancels in-flight
    /// work (checkpointless cooperative stop), answers everything, and
    /// exits 3.
    pub term: Option<Arc<AtomicBool>>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            workers: 2,
            queue_cap: 64,
            persist: PersistOptions::default(),
            journal_dir: None,
            recover: false,
            listen: None,
            defaults: VerifyOptions::default(),
            term: None,
        }
    }
}

/// A per-client response writer. Responses from worker threads and the
/// admission loop interleave whole-line-atomically under the mutex.
type Sink = Arc<Mutex<Box<dyn std::io::Write + Send>>>;

/// Writes one response line; write errors are swallowed like the CLI's
/// `out!` (a vanished client must not kill the daemon).
fn send_line(sink: &Sink, line: &str) {
    let mut w = sink.lock().unwrap_or_else(|p| p.into_inner());
    let _ = writeln!(w, "{line}");
    let _ = w.flush();
}

/// A `status:"ok"` verify response from a job result.
fn render_result(id: &str, result: &JobResult) -> String {
    let mut fields = Vec::new();
    fields.push(format!("\"id\":\"{}\"", json_escape(id)));
    match &result.run {
        Ok(run) => {
            let exit = outcome_exit(&run.outcome);
            fields.push("\"status\":\"ok\"".to_string());
            match &run.outcome {
                Outcome::Completed(report) => {
                    let outcome = if run.fell_back { "fallback" } else { "ok" };
                    fields.push(format!("\"outcome\":\"{outcome}\""));
                    fields.push(format!(
                        "\"verdict\":\"{}\"",
                        json_escape(&report.verdict.to_string())
                    ));
                    // u128 exceeds what a JSON double carries faithfully:
                    // the state count travels as a decimal string.
                    fields.push(format!("\"states\":\"{}\"", report.num_states));
                    fields.push(format!("\"peak_nodes\":{}", report.bdd_peak));
                }
                Outcome::Interrupted { .. } => {
                    fields.push("\"outcome\":\"interrupted\"".to_string());
                }
                Outcome::Exhausted { reason, .. } => {
                    fields.push("\"outcome\":\"exhausted\"".to_string());
                    fields.push(format!("\"reason\":\"{}\"", json_escape(&reason.to_string())));
                }
            }
            fields.push(format!("\"exit_code\":{}", exit.code()));
            fields.push(format!("\"cache\":\"{}\"", run.cache));
            if !run.notes.is_empty() {
                let notes: Vec<String> =
                    run.notes.iter().map(|n| format!("\"{}\"", json_escape(n))).collect();
                fields.push(format!("\"notes\":[{}]", notes.join(",")));
            }
        }
        Err(JobError::Verify(msg)) => {
            fields.push("\"status\":\"error\"".to_string());
            fields.push("\"outcome\":\"verify_error\"".to_string());
            fields.push(format!("\"error\":\"{}\"", json_escape(msg)));
            fields.push(format!("\"exit_code\":{}", ProcessExit::Violation.code()));
        }
        Err(JobError::Panic(msg)) => {
            fields.push("\"status\":\"error\"".to_string());
            fields.push("\"outcome\":\"internal_error\"".to_string());
            fields.push(format!("\"error\":\"{}\"", json_escape(msg)));
            fields.push(format!("\"exit_code\":{}", ProcessExit::Internal.code()));
        }
    }
    if result.coalesced {
        fields.push("\"coalesced\":true".to_string());
    }
    fields.push(format!("\"queue_wait_ms\":{:.3}", result.queue_wait.as_secs_f64() * 1e3));
    fields.push(format!("\"wall_ms\":{:.3}", result.wall.as_secs_f64() * 1e3));
    format!("{{{}}}", fields.join(","))
}

/// A `status:"rejected"` / `status:"error"` response outside the job
/// path (shed, bad request, admission fault, a panic while parsing the
/// net). Its exit code is 2, except 5 for an `internal_error`, the code
/// a worker panic gets.
fn render_refusal(id: Option<&str>, status: &str, reason: &str, detail: &str) -> String {
    let mut fields = Vec::new();
    if let Some(id) = id {
        fields.push(format!("\"id\":\"{}\"", json_escape(id)));
    }
    fields.push(format!("\"status\":\"{}\"", json_escape(status)));
    fields.push(format!("\"reason\":\"{}\"", json_escape(reason)));
    if !detail.is_empty() {
        fields.push(format!("\"error\":\"{}\"", json_escape(detail)));
    }
    let exit = if reason == "internal_error" { ProcessExit::Internal } else { ProcessExit::Usage };
    fields.push(format!("\"exit_code\":{}", exit.code()));
    format!("{{{}}}", fields.join(","))
}

/// Best-effort id extraction from a line that failed request parsing, so
/// even a `bad_request` response correlates when possible.
fn best_effort_id(line: &str) -> Option<String> {
    parse_json(line).ok()?.get("id")?.as_str().map(str::to_string)
}

/// One admission-loop input: a request line plus where to answer it.
struct Incoming {
    line: String,
    sink: Sink,
    /// Journal sequence when this is a `--recover` replay (already
    /// journaled; must not be re-accepted).
    replay_seq: Option<u64>,
}

/// Everything the admission loop threads through per request.
struct Daemon {
    opts: ServeOptions,
    scheduler: Scheduler,
    journal: Option<Arc<Mutex<Journal>>>,
    /// client request id → scheduler job id, while unanswered.
    pending: Arc<Mutex<HashMap<String, u64>>>,
}

impl Daemon {
    fn handle(&self, incoming: Incoming) {
        let Incoming { line, sink, replay_seq } = incoming;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return;
        }
        let request = match parse_request(trimmed, &self.opts.defaults) {
            Ok(req) => req,
            Err(msg) => {
                let id = best_effort_id(trimmed);
                send_line(&sink, &render_refusal(id.as_deref(), "error", "bad_request", &msg));
                return;
            }
        };
        match request {
            Request::Ping { id } => {
                let id_field =
                    id.map(|id| format!("\"id\":\"{}\",", json_escape(&id))).unwrap_or_default();
                send_line(&sink, &format!("{{{id_field}\"status\":\"ok\",\"op\":\"ping\"}}"));
            }
            Request::Cancel { target } => {
                let job =
                    self.pending.lock().unwrap_or_else(|p| p.into_inner()).get(&target).copied();
                let cancelled = job.is_some_and(|job_id| self.scheduler.cancel(job_id));
                send_line(
                    &sink,
                    &format!(
                        "{{\"status\":\"ok\",\"op\":\"cancel\",\"target\":\"{}\",\"cancelled\":{}}}",
                        json_escape(&target),
                        cancelled
                    ),
                );
            }
            Request::Verify(req) => self.admit(req, trimmed, sink, replay_seq),
        }
    }

    fn admit(&self, req: VerifyRequest, line: &str, sink: Sink, replay_seq: Option<u64>) {
        let id = req.id.clone();
        // Injected admission fault: the request is refused loudly — a
        // typed rejection the client can retry on — never half-admitted.
        if self.opts.persist.faults.hit("serve-accept") {
            self.answer_refusal(&id, replay_seq, &sink, "rejected", "serve_accept_fault", "");
            return;
        }
        if let Some(shed) = self.scheduler.would_shed() {
            self.answer_refusal(&id, replay_seq, &sink, "rejected", shed.reason(), "");
            return;
        }
        {
            let pending = self.pending.lock().unwrap_or_else(|p| p.into_inner());
            if pending.contains_key(&id) {
                send_line(
                    &sink,
                    &render_refusal(
                        Some(&id),
                        "error",
                        "bad_request",
                        "duplicate id: a request with this id is still in flight",
                    ),
                );
                return;
            }
        }
        // The parse runs here, on the admission thread, outside the
        // workers' panic isolation: a parser panic — or the injected
        // `serve-parse` fault — costs this one request an
        // `internal_error` refusal, and admission goes on.
        let faults = &self.opts.persist.faults;
        let parsed = catch_unwind(AssertUnwindSafe(|| {
            if faults.hit("serve-parse") {
                panic!("failpoint serve-parse armed");
            }
            load_net(&req)
        }));
        let stg = match parsed {
            Ok(Ok(stg)) => stg,
            Ok(Err(msg)) => {
                self.answer_refusal(&id, replay_seq, &sink, "error", "bad_request", &msg);
                return;
            }
            Err(payload) => {
                let msg = panic_message(payload);
                self.answer_refusal(&id, replay_seq, &sink, "error", "internal_error", &msg);
                return;
            }
        };
        // Journal the accept before running (crash ⇒ `--recover` replays
        // it). A journal fault degrades: the request still runs, it just
        // loses crash protection — and the response says so.
        let mut journal_note = None;
        let seq = match (&self.journal, replay_seq) {
            (_, Some(seq)) => Some(seq),
            (Some(journal), None) => {
                let mut j = journal.lock().unwrap_or_else(|p| p.into_inner());
                match j.record_accept(&id, line) {
                    Ok(seq) => Some(seq),
                    Err(e) => {
                        journal_note = Some(format!("journal accept failed: {e}"));
                        None
                    }
                }
            }
            (None, None) => None,
        };
        let spec = JobSpec { stg, options: req.options, persist: self.opts.persist.clone() };
        let callback = {
            let id = id.clone();
            let sink = Arc::clone(&sink);
            let journal = self.journal.clone();
            let pending = Arc::clone(&self.pending);
            Box::new(move |mut result: JobResult| {
                if let (Ok(run), Some(note)) = (&mut result.run, journal_note) {
                    run.notes.push(note);
                }
                send_line(&sink, &render_result(&id, &result));
                // Answer mark strictly after the response write: a crash
                // between the two replays (at-least-once), never loses.
                if let (Some(journal), Some(seq)) = (&journal, seq) {
                    let j = journal.lock().unwrap_or_else(|p| p.into_inner());
                    if let Err(e) = j.record_answer(seq) {
                        let _ = writeln!(
                            std::io::stderr(),
                            "stgcheck serve: journal answer for `{id}`: {e}"
                        );
                    }
                }
                pending.lock().unwrap_or_else(|p| p.into_inner()).remove(&id);
            }) as Callback
        };
        self.pending.lock().unwrap_or_else(|p| p.into_inner()).insert(id.clone(), u64::MAX);
        match self.scheduler.submit(spec, callback) {
            Ok(job_id) => {
                let mut pending = self.pending.lock().unwrap_or_else(|p| p.into_inner());
                // The callback may already have fired (warm cache, fast
                // net) and removed the entry; only fill a live slot.
                if let Some(slot) = pending.get_mut(&id) {
                    *slot = job_id;
                }
            }
            Err(shed) => {
                self.pending.lock().unwrap_or_else(|p| p.into_inner()).remove(&id);
                self.answer_refusal(&id, replay_seq, &sink, "rejected", shed.reason(), "");
            }
        }
    }

    /// Sends a refusal and — so a refused replay is not replayed forever
    /// — marks its journal record answered.
    fn answer_refusal(
        &self,
        id: &str,
        replay_seq: Option<u64>,
        sink: &Sink,
        status: &str,
        reason: &str,
        detail: &str,
    ) {
        send_line(sink, &render_refusal(Some(id), status, reason, detail));
        if let (Some(journal), Some(seq)) = (&self.journal, replay_seq) {
            let j = journal.lock().unwrap_or_else(|p| p.into_inner());
            let _ = j.record_answer(seq);
        }
    }
}

fn load_net(req: &VerifyRequest) -> Result<Stg, String> {
    let source = match (&req.net, &req.net_path) {
        (Some(text), None) => text.clone(),
        (None, Some(path)) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
        _ => unreachable!("protocol parser enforces exactly one net source"),
    };
    parse_g(&source).map_err(|e| e.to_string())
}

/// How the admission loop ended.
enum DrainCause {
    /// stdin EOF (or, under `--listen`, an external stop): finish all
    /// admitted work normally.
    Eof,
    /// The termination latch flipped (SIGTERM/SIGINT): cancel in-flight
    /// work cooperatively, answer everything as interrupted, exit 3.
    Term,
}

/// Runs the `stgcheck serve` daemon to completion. Returns the process
/// exit: 0 after a clean EOF drain, 3 after a signal drain, 2 on setup
/// errors (bad `--listen` path, unusable journal directory).
pub fn run_daemon(opts: ServeOptions) -> ProcessExit {
    let journal = match &opts.journal_dir {
        None => None,
        Some(dir) => match Journal::open(dir, opts.persist.faults.clone()) {
            Ok(j) => Some(Arc::new(Mutex::new(j))),
            Err(e) => {
                let _ =
                    writeln!(std::io::stderr(), "stgcheck serve: journal {}: {e}", dir.display());
                return ProcessExit::Usage;
            }
        },
    };
    let mut recovery_skipped = false;
    let recovered: Vec<journal::Recovered> = if opts.recover {
        match &opts.journal_dir {
            None => {
                let _ = writeln!(std::io::stderr(), "stgcheck serve: --recover needs --journal");
                return ProcessExit::Usage;
            }
            Some(dir) => {
                let (replay, notes) = journal::unanswered(dir, &opts.persist.faults);
                recovery_skipped = !notes.is_empty();
                for note in notes {
                    let _ = writeln!(std::io::stderr(), "stgcheck serve: recovery: {note}");
                }
                replay
            }
        }
    } else {
        Vec::new()
    };

    let daemon = Daemon {
        scheduler: Scheduler::new(opts.workers, opts.queue_cap),
        journal,
        pending: Arc::new(Mutex::new(HashMap::new())),
        opts,
    };

    let stdout_sink: Sink = Arc::new(Mutex::new(Box::new(std::io::stdout())));

    // Replay journaled-but-unanswered requests before admitting new
    // traffic: their answers go to the current stdout in journal order.
    for rec in recovered {
        daemon.handle(Incoming {
            line: rec.line,
            sink: Arc::clone(&stdout_sink),
            replay_seq: Some(rec.seq),
        });
    }

    let (tx, rx) = mpsc::channel::<Incoming>();
    let stop_readers = Arc::new(AtomicBool::new(false));
    match &daemon.opts.listen {
        None => {
            let sink = Arc::clone(&stdout_sink);
            std::thread::Builder::new()
                .name("stgcheck-stdin".to_string())
                .spawn(move || {
                    let stdin = std::io::stdin();
                    for line in stdin.lock().lines() {
                        let Ok(line) = line else { break };
                        if tx
                            .send(Incoming { line, sink: Arc::clone(&sink), replay_seq: None })
                            .is_err()
                        {
                            break;
                        }
                    }
                    // Dropping `tx` disconnects the channel: EOF drain.
                })
                .expect("spawn stdin reader");
        }
        Some(path) => {
            if let Err(exit) = spawn_unix_listener(path, tx, Arc::clone(&stop_readers)) {
                return exit;
            }
        }
    }

    let term = daemon.opts.term.clone();
    let cause = loop {
        if term.as_ref().is_some_and(|t| t.load(Ordering::SeqCst)) {
            break DrainCause::Term;
        }
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(incoming) => daemon.handle(incoming),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break DrainCause::Eof,
        }
    };
    stop_readers.store(true, Ordering::SeqCst);

    let Daemon { scheduler, journal, opts, .. } = daemon;
    let exit = match cause {
        DrainCause::Eof => {
            scheduler.drain();
            // Everything admitted was answered: the journal has nothing
            // left to replay, so clear it for the next start — unless
            // recovery skipped records it could not read, which must
            // survive for a later (healthier) recovery attempt.
            if let (Some(journal), false) = (&journal, recovery_skipped) {
                let j = journal.lock().unwrap_or_else(|p| p.into_inner());
                if let Err(e) = j.clear() {
                    let _ = writeln!(std::io::stderr(), "stgcheck serve: journal clear: {e}");
                }
            }
            ProcessExit::Success
        }
        DrainCause::Term => {
            scheduler.cancel_all();
            scheduler.drain();
            ProcessExit::Interrupted
        }
    };
    if let Some(path) = &opts.listen {
        let _ = std::fs::remove_file(path);
    }
    exit
}

/// Accepts unix-socket connections, one reader thread per connection,
/// each feeding the admission channel with a per-connection sink.
fn spawn_unix_listener(
    path: &std::path::Path,
    tx: mpsc::Sender<Incoming>,
    stop: Arc<AtomicBool>,
) -> Result<(), ProcessExit> {
    use std::os::unix::net::UnixListener;
    // A stale socket file from a crashed daemon would fail the bind.
    let _ = std::fs::remove_file(path);
    let listener = match UnixListener::bind(path) {
        Ok(l) => l,
        Err(e) => {
            let _ = writeln!(std::io::stderr(), "stgcheck serve: --listen {}: {e}", path.display());
            return Err(ProcessExit::Usage);
        }
    };
    listener.set_nonblocking(true).ok();
    std::thread::Builder::new()
        .name("stgcheck-accept".to_string())
        .spawn(move || loop {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let Ok(writer) = stream.try_clone() else { continue };
                    stream.set_nonblocking(false).ok();
                    stream.set_read_timeout(Some(Duration::from_millis(100))).ok();
                    let sink: Sink = Arc::new(Mutex::new(Box::new(writer)));
                    let tx = tx.clone();
                    let stop = Arc::clone(&stop);
                    std::thread::Builder::new()
                        .name("stgcheck-conn".to_string())
                        .spawn(move || read_connection(stream, sink, tx, stop))
                        .ok();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(_) => return,
            }
        })
        .expect("spawn accept thread");
    Ok(())
}

/// Reads newline-delimited requests from one socket connection until it
/// closes or the daemon stops.
fn read_connection(
    stream: std::os::unix::net::UnixStream,
    sink: Sink,
    tx: mpsc::Sender<Incoming>,
    stop: Arc<AtomicBool>,
) {
    use std::io::Read as _;
    let mut stream = stream;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=pos).collect();
                    let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                    if tx
                        .send(Incoming { line, sink: Arc::clone(&sink), replay_seq: None })
                        .is_err()
                    {
                        return;
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use stgcheck_bdd::FaultPlan;
    use stgcheck_stg::gen;

    fn spec(stg: Stg) -> JobSpec {
        JobSpec { stg, options: VerifyOptions::default(), persist: PersistOptions::default() }
    }

    fn collect(rx: &mpsc::Receiver<(u64, JobResult)>, n: usize) -> Vec<(u64, JobResult)> {
        (0..n).map(|_| rx.recv_timeout(Duration::from_secs(60)).expect("job result")).collect()
    }

    #[test]
    fn pool_runs_jobs_and_coalesces_duplicates() {
        let scheduler = Scheduler::new_paused(2, 16);
        let (tx, rx) = channel();
        let mut ids = Vec::new();
        // Three identical nets: one leader + two coalesced followers.
        for tag in 0..3u64 {
            let tx = tx.clone();
            ids.push(
                scheduler
                    .submit(
                        spec(gen::muller_pipeline(4)),
                        Box::new(move |r| tx.send((tag, r)).unwrap()),
                    )
                    .unwrap(),
            );
        }
        // A distinct net must NOT coalesce.
        let tx2 = tx.clone();
        scheduler
            .submit(spec(gen::muller_pipeline(5)), Box::new(move |r| tx2.send((9, r)).unwrap()))
            .unwrap();
        assert_eq!(scheduler.load(), 4);
        scheduler.start();
        let results = collect(&rx, 4);
        let coalesced: Vec<bool> = {
            let mut by_tag: Vec<(u64, bool)> =
                results.iter().map(|(t, r)| (*t, r.coalesced)).collect();
            by_tag.sort_unstable();
            by_tag.iter().map(|(_, c)| *c).collect()
        };
        // Exactly the two duplicate followers are coalesced.
        assert_eq!(coalesced.iter().filter(|&&c| c).count(), 2);
        assert!(!coalesced[3], "distinct net ran its own computation");
        for (_, r) in &results {
            let run = r.run.as_ref().expect("verify ok");
            let report = run.outcome.report().expect("completed");
            assert_eq!(report.verdict, Implementability::Gate);
        }
        assert_eq!(scheduler.load(), 0);
        scheduler.drain();
    }

    #[test]
    fn budget_is_part_of_the_coalescing_key() {
        // A tightly budgeted run must not answer for a duplicate with a
        // generous budget: different budgets ⇒ different computations.
        let scheduler = Scheduler::new_paused(1, 16);
        let (tx, rx) = channel();
        let mut tight = spec(gen::muller_pipeline(4));
        tight.options.budget.max_steps = 1;
        let generous = spec(gen::muller_pipeline(4));
        let tx1 = tx.clone();
        scheduler.submit(tight, Box::new(move |r| tx1.send((0, r)).unwrap())).unwrap();
        let tx2 = tx.clone();
        scheduler.submit(generous, Box::new(move |r| tx2.send((1, r)).unwrap())).unwrap();
        scheduler.start();
        let mut results = collect(&rx, 2);
        results.sort_by_key(|(tag, _)| *tag);
        let tight_run = results[0].1.run.as_ref().unwrap();
        assert!(
            matches!(tight_run.outcome, Outcome::Exhausted { .. }),
            "1-step budget must exhaust"
        );
        assert!(!results[0].1.coalesced && !results[1].1.coalesced);
        let generous_run = results[1].1.run.as_ref().unwrap();
        assert!(matches!(generous_run.outcome, Outcome::Completed(_)));
        scheduler.drain();
    }

    #[test]
    fn cancellation_interrupts_without_poisoning_duplicates() {
        let scheduler = Scheduler::new_paused(1, 16);
        let (tx, rx) = channel();
        let tx1 = tx.clone();
        let leader = scheduler
            .submit(spec(gen::muller_pipeline(4)), Box::new(move |r| tx1.send((0, r)).unwrap()))
            .unwrap();
        let tx2 = tx.clone();
        scheduler
            .submit(spec(gen::muller_pipeline(4)), Box::new(move |r| tx2.send((1, r)).unwrap()))
            .unwrap();
        // Cancel the queued leader before the pool starts: it must be
        // answered Interrupted, and the duplicate must be *promoted* to
        // a fresh computation — not fed the leader's interruption.
        assert!(scheduler.cancel(leader));
        scheduler.start();
        let mut results = collect(&rx, 2);
        results.sort_by_key(|(tag, _)| *tag);
        assert!(matches!(results[0].1.run.as_ref().unwrap().outcome, Outcome::Interrupted { .. }));
        let follower_run = results[1].1.run.as_ref().unwrap();
        assert!(
            matches!(follower_run.outcome, Outcome::Completed(_)),
            "promoted follower completes despite the leader's cancellation"
        );
        assert!(scheduler.load() == 0);
        assert!(!scheduler.cancel(leader), "delivered jobs are unknown to cancel");
        scheduler.drain();
    }

    #[test]
    fn worker_panic_is_isolated_to_one_internal_error() {
        let scheduler = Scheduler::new_paused(1, 16);
        let (tx, rx) = channel();
        let faults = FaultPlan::parse("worker-panic=1").unwrap();
        for tag in 0..2u64 {
            let tx = tx.clone();
            let mut job = spec(gen::muller_pipeline(3 + tag as usize));
            job.persist.faults = faults.clone();
            scheduler.submit(job, Box::new(move |r| tx.send((tag, r)).unwrap())).unwrap();
        }
        scheduler.start();
        let mut results = collect(&rx, 2);
        results.sort_by_key(|(tag, _)| *tag);
        assert!(
            matches!(results[0].1.run, Err(JobError::Panic(_))),
            "first job eats the injected panic"
        );
        assert!(
            matches!(results[1].1.run.as_ref().unwrap().outcome, Outcome::Completed(_)),
            "the worker survives and the queue keeps moving"
        );
        scheduler.drain();
    }

    #[test]
    fn admission_is_bounded_and_drain_refuses() {
        let scheduler = Scheduler::new_paused(1, 2);
        let (tx, rx) = channel();
        for _ in 0..2 {
            let tx = tx.clone();
            scheduler
                .submit(spec(gen::muller_pipeline(3)), Box::new(move |r| tx.send((0, r)).unwrap()))
                .unwrap();
        }
        assert_eq!(scheduler.would_shed(), Some(Shed::QueueFull));
        let over = scheduler.submit(spec(gen::muller_pipeline(3)), Box::new(|_| {}));
        assert!(matches!(over, Err(Shed::QueueFull)));
        scheduler.start();
        let _ = collect(&rx, 2);
        scheduler.drain();
    }
}

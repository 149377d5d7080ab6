//! The fleet scheduler: many jobs, many workers, locality-aware placement,
//! journaled merges. It is the only coordinator: a one-job sharded run
//! ([`crate::coordinator::run`]) is a fleet started for that job with
//! locality off and no journal, and stopped after it.
//!
//! One drive thread owns all state. Worker connections feed it frames
//! through pump threads; submissions, joins, and stats queries arrive on
//! the same event channel from [`FleetClient`] handles. Per job: a fixed
//! deterministic shard plan, heartbeat death detection, backoff
//! reassignment, and speculative duplicates. The drive thread hands a
//! finished job's rows back to the submitter, whose [`JobReceiver`]
//! replays the canonical-order merge — so every job's moments stay
//! bitwise identical to a single-process run. Fault model:
//!
//! - **Crash**: the connection drops; the pump reports it and every shard
//!   the worker held goes back to pending with exponential backoff.
//! - **Hang**: the connection stays open but heartbeat pongs stop; after
//!   `heartbeat_timeout` without any frame the worker is declared dead and
//!   treated as crashed.
//! - **Straggler**: a shard in flight longer than `speculative_after` is
//!   duplicated onto another worker; the first result wins and duplicates
//!   are dropped by shard id.
//!
//! Deterministic failures (a worker *reports* an error, or returns
//! malformed rows) fail the job: every worker computes the same function,
//! so retrying elsewhere would fail identically. Per-shard events count
//! as `shard.*` obs counters, fleet-only events as `fleet.*`. What the
//! fleet adds across jobs:
//!
//! - **Locality-aware routing**: each worker's warm state (advertised via
//!   [`Frame::InventoryQuery`] at join, then tracked incrementally from
//!   results) is scored against each pending shard — warm moment rows
//!   (weight 4) beat a warm assembled operator (2) beat a tuned-process
//!   signal (1) beat cold — so repeat jobs land where their work already
//!   lives.
//! - **Cross-job balancing ("stealing")**: a warm worker whose queue runs
//!   deeper than an idle worker's by `STEAL_DEPTH` loses the shard to
//!   the idle one. The frozen `(seed, s, r)` RNG contract makes the result
//!   identical wherever it runs, so stealing is free of determinism cost.
//! - **Restartable merges**: accepted rows are journaled (fsync) *before*
//!   they count ([`crate::journal`]); a restarted scheduler pre-fills
//!   shards from the replayed journal and resumes without recomputing.

use crate::error::{FleetError, ShardError};
use crate::job::{MergedMoments, ShardJob};
use crate::journal::{Journal, Replayed};
use crate::transport::{Endpoint, FrameSink};
use crate::wire::{Frame, RowRun, ShardResult};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvError, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pump-thread poll granularity (bounds shutdown latency only).
const PUMP_POLL: Duration = Duration::from_millis(100);
/// Drive-loop event wait (bounds heartbeat/dispatch latency only).
const EVENT_POLL: Duration = Duration::from_millis(20);
/// Queue-depth gap at which an idle worker steals a shard from the warm
/// worker the locality score preferred.
const STEAL_DEPTH: usize = 2;

/// Scheduling knobs. The shard-plan shape (`shards_per_job`) is fixed per
/// policy — independent of the worker count — so a restarted fleet
/// produces the same shard ranges and journal replay aligns exactly.
#[derive(Debug, Clone, Copy)]
pub struct FleetPolicy {
    /// Shards each job is split into (bounded by the job's unit count).
    pub shards_per_job: usize,
    /// How often every live worker is pinged.
    pub heartbeat_interval: Duration,
    /// Silence longer than this declares a worker dead.
    pub heartbeat_timeout: Duration,
    /// In-flight longer than this triggers a speculative duplicate.
    pub speculative_after: Duration,
    /// Dispatch attempts per shard before its job fails.
    pub max_attempts: u32,
    /// First reassignment backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Whether placement scores worker warm state (off = least-loaded,
    /// and no inventory is asked for).
    pub locality: bool,
    /// With locality on, how long placement waits for a freshly joined
    /// worker's inventory before placing without it.
    pub inventory_wait: Duration,
    /// How long the fleet tolerates zero live workers before failing the
    /// jobs that are pending (a joining worker resets the clock).
    pub no_worker_grace: Duration,
    /// Test hook: simulate a coordinator crash (stop without replying or
    /// shutting workers down) after this many results were journaled.
    pub kill_after_results: Option<usize>,
}

impl Default for FleetPolicy {
    fn default() -> Self {
        Self {
            shards_per_job: 4,
            heartbeat_interval: Duration::from_millis(200),
            heartbeat_timeout: Duration::from_secs(3),
            speculative_after: Duration::from_secs(30),
            max_attempts: 8,
            backoff_base: Duration::from_millis(25),
            locality: true,
            inventory_wait: Duration::from_millis(300),
            no_worker_grace: Duration::from_secs(5),
            kill_after_results: None,
        }
    }
}

/// Counters the fleet accumulates; also exported as `fleet.*` obs
/// counters.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FleetStats {
    /// Jobs whose rows all arrived and were handed back for the merge.
    pub jobs_completed: u64,
    /// Jobs that terminally failed.
    pub jobs_failed: u64,
    /// Placements routed to a worker holding warm moment rows.
    pub place_warm_rows: u64,
    /// Placements routed to a worker holding the assembled operator.
    pub place_warm_op: u64,
    /// Placements routed to a tuned (profiled) worker, all else cold.
    pub place_warm_profile: u64,
    /// Placements with no warm state anywhere.
    pub place_cold: u64,
    /// Shards an idle worker took although locality preferred another.
    pub steals: u64,
    /// Bytes appended to the journal by this scheduler.
    pub journal_bytes: u64,
    /// Rows recovered from a previous scheduler's journal.
    pub replayed_rows: u64,
    /// Shards pre-filled (journal replay or duplicate submission).
    pub prefilled_shards: u64,
    /// Workers that joined over the fleet's lifetime.
    pub workers_joined: u64,
    /// Workers declared dead.
    pub workers_dead: u64,
}

impl FleetStats {
    /// One-line JSON rendering for `--stats` output and logs.
    pub fn render_json(&self) -> String {
        let mut s = String::from("{\"kind\":\"fleet-stats\"");
        let mut put = |k: &str, v: u64| {
            let _ = write!(s, ",\"{k}\":{v}");
        };
        put("jobs_completed", self.jobs_completed);
        put("jobs_failed", self.jobs_failed);
        put("place_warm_rows", self.place_warm_rows);
        put("place_warm_op", self.place_warm_op);
        put("place_warm_profile", self.place_warm_profile);
        put("place_cold", self.place_cold);
        put("steals", self.steals);
        put("journal_bytes", self.journal_bytes);
        put("replayed_rows", self.replayed_rows);
        put("prefilled_shards", self.prefilled_shards);
        put("workers_joined", self.workers_joined);
        put("workers_dead", self.workers_dead);
        s.push('}');
        s
    }
}

/// What the drive thread hands back for one submission: the parsed job and
/// its rows in canonical order, ready to merge.
type Outcome = Result<(ShardJob, Vec<Vec<f64>>), FleetError>;

/// Messages from [`Fleet`]/[`FleetClient`] handles to the drive thread.
enum FleetMsg {
    Submit { line: String, reply: Sender<Outcome> },
    Join(Endpoint),
    Stats { reply: Sender<FleetStats> },
    Shutdown,
}

enum Event {
    Frame(usize, Frame),
    /// Worker `i`'s connection ended, and why (a refused frame, a hang-up).
    Closed(usize, ShardError),
    Msg(FleetMsg),
}

/// A running fleet scheduler. Dropping it shuts the drive thread down.
pub struct Fleet {
    tx: Sender<Event>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Fleet {
    /// Starts a scheduler over `endpoints`, replaying `journal_dir` if one
    /// is given (and journaling into it from then on).
    ///
    /// # Errors
    /// [`FleetError::Journal`] when the journal cannot be opened.
    pub fn start(
        endpoints: Vec<Endpoint>,
        policy: FleetPolicy,
        journal_dir: Option<&Path>,
    ) -> Result<Fleet, FleetError> {
        let (journal, replayed) = match journal_dir {
            Some(dir) => {
                let (j, r) = Journal::open(dir)?;
                (Some(j), r)
            }
            None => (None, Replayed::default()),
        };
        let (tx, rx) = mpsc::channel();
        let ev_tx = tx.clone();
        let handle = std::thread::Builder::new()
            .name("kpm-fleet-drive".into())
            .spawn(move || Scheduler::new(policy, journal, replayed, ev_tx).drive(&rx))
            .map_err(|e| FleetError::Journal(e.to_string()))?;
        let fleet = Fleet { tx, handle: Some(handle) };
        for ep in endpoints {
            fleet.join_worker(ep)?;
        }
        Ok(fleet)
    }

    /// A clonable submission handle (usable from any thread).
    pub fn client(&self) -> FleetClient {
        FleetClient { tx: self.tx.clone() }
    }

    /// Adds a worker connection to the running fleet.
    ///
    /// # Errors
    /// [`FleetError::Stopped`] when the scheduler is gone.
    pub fn join_worker(&self, endpoint: Endpoint) -> Result<(), FleetError> {
        self.tx.send(Event::Msg(FleetMsg::Join(endpoint))).map_err(|_| FleetError::Stopped)
    }

    /// Snapshot of the fleet counters.
    ///
    /// # Errors
    /// [`FleetError::Stopped`] when the scheduler is gone.
    pub fn stats(&self) -> Result<FleetStats, FleetError> {
        let (tx, rx) = mpsc::channel();
        self.tx.send(Event::Msg(FleetMsg::Stats { reply: tx })).map_err(|_| FleetError::Stopped)?;
        rx.recv().map_err(|_| FleetError::Stopped)
    }

    /// Stops the scheduler: live workers get a shutdown frame, pending
    /// submissions fail with [`FleetError::Stopped`]. Returns the final
    /// counters when the drive thread is still answering.
    pub fn shutdown(mut self) -> Option<FleetStats> {
        let stats = self.stats().ok();
        self.stop();
        stats
    }

    fn stop(&mut self) {
        let _ = self.tx.send(Event::Msg(FleetMsg::Shutdown));
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Clonable handle that submits jobs to a running [`Fleet`].
#[derive(Clone)]
pub struct FleetClient {
    tx: Sender<Event>,
}

impl FleetClient {
    /// Submits a canonical shard-job line and blocks for the merged
    /// moments.
    ///
    /// # Errors
    /// [`FleetError`] per job (invalid line, worker failure, no workers) or
    /// [`FleetError::Stopped`] when the scheduler died first.
    pub fn submit(&self, line: &str) -> Result<MergedMoments, FleetError> {
        self.submit_async(line)?.recv().map_err(|_| FleetError::Stopped)?
    }

    /// Submits without blocking; the receiver yields the job's outcome.
    /// Concurrent submissions are what multi-job scheduling feeds on.
    ///
    /// # Errors
    /// [`FleetError::Stopped`] when the scheduler is gone.
    pub fn submit_async(&self, line: &str) -> Result<JobReceiver, FleetError> {
        let (tx, rx) = mpsc::channel();
        self.tx
            .send(Event::Msg(FleetMsg::Submit { line: line.to_string(), reply: tx }))
            .map_err(|_| FleetError::Stopped)?;
        Ok(JobReceiver { rx })
    }
}

/// One submission's pending outcome. The drive thread hands back the
/// job's rows; [`JobReceiver::recv`] merges them on the waiting thread,
/// inside a `shard.merge` span, so a merge never stalls scheduling.
pub struct JobReceiver {
    rx: Receiver<Outcome>,
}

impl JobReceiver {
    /// Blocks for the job's merged moments.
    ///
    /// # Errors
    /// [`RecvError`] when the scheduler stopped without answering.
    pub fn recv(&self) -> Result<Result<MergedMoments, FleetError>, RecvError> {
        Ok(self.rx.recv()?.and_then(|(job, rows)| {
            let _span = kpm_obs::span("shard.merge");
            job.merge(&rows).map_err(FleetError::from)
        }))
    }
}

// --- drive-thread state -------------------------------------------------

struct WorkerSt {
    peer: String,
    tx: Arc<dyn FrameSink>,
    alive: bool,
    last_seen: Instant,
    joined_at: Instant,
    /// `(job seq, shard)` pairs dispatched and unanswered.
    inflight: Vec<(u32, u32)>,
    /// Job seqs whose spec line this connection has received.
    announced: HashSet<u32>,
    /// Warm-state model: advertised at join, then updated from results.
    inv_seen: bool,
    inv_ops: HashSet<u64>,
    inv_rows: Vec<RowRun>,
    inv_tuned: bool,
}

struct ShardSt {
    range: Range<usize>,
    rows: Option<Vec<Vec<f64>>>,
    attempts: u32,
    eligible_at: Instant,
    assigned: Vec<usize>,
    dispatched_at: Instant,
    /// The worker of the latest non-speculative dispatch.
    primary: Option<usize>,
}

struct JobSt {
    job: ShardJob,
    line: String,
    /// Content hash of the canonical line — the journal key, stable across
    /// restarts and shared by duplicate submissions.
    hash: u64,
    op_key: u64,
    row_key: u64,
    need: usize,
    prefix: bool,
    shards: Vec<ShardSt>,
    done: usize,
    /// Most of this job's shard copies in flight at once.
    inflight_peak: usize,
    reply: Option<Sender<Outcome>>,
    finished: bool,
}

enum Flow {
    Continue,
    Stop,
    /// `kill_after_results` tripped: vanish like a crash (no replies, no
    /// worker shutdown frames).
    Killed,
}

struct Scheduler {
    policy: FleetPolicy,
    journal: Option<Journal>,
    /// In-memory journal image: job hash → idx → row. Seeded from replay,
    /// extended by every accepted result — pre-fills restarted *and*
    /// duplicate jobs.
    journaled: HashMap<u64, HashMap<u64, Vec<f64>>>,
    recorded_jobs: HashSet<u64>,
    workers: Vec<WorkerSt>,
    jobs: Vec<JobSt>,
    ev_tx: Sender<Event>,
    stats: FleetStats,
    nonce: u64,
    results_journaled: usize,
    all_dead_since: Option<Instant>,
    /// The peer and error of the last connection that ended, named when
    /// jobs fail for want of workers.
    last_loss: Option<String>,
    /// Set when the drive thread exits; pumps then stop polling.
    stopped: Arc<AtomicBool>,
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.stopped.store(true, Ordering::Relaxed);
    }
}

impl Scheduler {
    fn new(
        policy: FleetPolicy,
        journal: Option<Journal>,
        replayed: Replayed,
        ev_tx: Sender<Event>,
    ) -> Self {
        let stats = FleetStats { replayed_rows: replayed.row_count(), ..FleetStats::default() };
        Scheduler {
            policy,
            journal,
            journaled: replayed.rows,
            recorded_jobs: replayed.jobs.keys().copied().collect(),
            workers: Vec::new(),
            jobs: Vec::new(),
            ev_tx,
            stats,
            nonce: 0,
            results_journaled: 0,
            all_dead_since: None,
            last_loss: None,
            stopped: Arc::new(AtomicBool::new(false)),
        }
    }

    fn drive(mut self, events: &Receiver<Event>) {
        let mut last_ping = Instant::now();
        loop {
            let now = Instant::now();
            // Hung-worker detection.
            for i in 0..self.workers.len() {
                if self.workers[i].alive
                    && now.duration_since(self.workers[i].last_seen) > self.policy.heartbeat_timeout
                {
                    self.kill_worker(i, now);
                }
            }
            self.fail_if_workerless(now);
            // Heartbeats.
            if now.duration_since(last_ping) >= self.policy.heartbeat_interval {
                last_ping = now;
                for i in 0..self.workers.len() {
                    if self.workers[i].alive {
                        self.nonce += 1;
                        let ping = Frame::Ping { nonce: self.nonce };
                        if self.workers[i].tx.send(&ping).is_err() {
                            self.kill_worker(i, now);
                        }
                    }
                }
            }
            self.dispatch_pending(now);
            self.dispatch_speculative(now);
            // Drain events.
            match events.recv_timeout(EVENT_POLL) {
                Ok(ev) => {
                    match self.handle(ev) {
                        Flow::Continue => {}
                        Flow::Stop => return self.wind_down(),
                        Flow::Killed => return,
                    }
                    while let Ok(ev) = events.try_recv() {
                        match self.handle(ev) {
                            Flow::Continue => {}
                            Flow::Stop => return self.wind_down(),
                            Flow::Killed => return,
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                // Every handle (Fleet + clients) is gone: nothing can ever
                // submit or join again.
                Err(RecvTimeoutError::Disconnected) => return self.wind_down(),
            }
        }
    }

    fn wind_down(&mut self) {
        for w in self.workers.iter().filter(|w| w.alive) {
            let _ = w.tx.send(&Frame::Shutdown);
        }
        // Dropping `self.workers` closes the endpoints; pumps exit on their
        // dead connections or failed event sends.
    }

    fn handle(&mut self, ev: Event) -> Flow {
        match ev {
            Event::Closed(i, e) => {
                self.last_loss = Some(format!("{}: {e}", self.workers[i].peer));
                self.kill_worker(i, Instant::now());
                Flow::Continue
            }
            Event::Msg(FleetMsg::Shutdown) => Flow::Stop,
            Event::Msg(FleetMsg::Stats { reply }) => {
                let _ = reply.send(self.stats.clone());
                Flow::Continue
            }
            Event::Msg(FleetMsg::Join(ep)) => {
                self.join(ep);
                Flow::Continue
            }
            Event::Msg(FleetMsg::Submit { line, reply }) => {
                self.submit(&line, reply);
                Flow::Continue
            }
            Event::Frame(i, frame) => {
                self.workers[i].last_seen = Instant::now();
                match frame {
                    Frame::Pong { .. } => Flow::Continue,
                    Frame::Inventory(report) => {
                        let w = &mut self.workers[i];
                        w.inv_ops = report.ops.into_iter().collect();
                        w.inv_rows = report.rows;
                        w.inv_tuned = w.inv_tuned || !report.profiles.is_empty();
                        w.inv_seen = true;
                        Flow::Continue
                    }
                    Frame::Result(res) => self.accept_result(i, res),
                    Frame::WorkerError { job, shard, message } => {
                        let seq = job as usize;
                        if seq < self.jobs.len() {
                            self.fail_job(seq, ShardError::Worker { shard, message }.into());
                        }
                        Flow::Continue
                    }
                    _ => Flow::Continue,
                }
            }
        }
    }

    fn join(&mut self, ep: Endpoint) {
        let Endpoint { peer, tx, mut rx } = ep;
        let i = self.workers.len();
        let now = Instant::now();
        self.workers.push(WorkerSt {
            peer,
            tx,
            alive: true,
            last_seen: now,
            joined_at: now,
            inflight: Vec::new(),
            announced: HashSet::new(),
            inv_seen: false,
            inv_ops: HashSet::new(),
            inv_rows: Vec::new(),
            inv_tuned: false,
        });
        self.stats.workers_joined += 1;
        self.all_dead_since = None;
        let evt = self.ev_tx.clone();
        let stopped = Arc::clone(&self.stopped);
        std::thread::Builder::new()
            .name(format!("kpm-fleet-pump-{i}"))
            .spawn(move || loop {
                match rx.recv_timeout(PUMP_POLL) {
                    Ok(Some(frame)) => {
                        if evt.send(Event::Frame(i, frame)).is_err() {
                            break;
                        }
                    }
                    Ok(None) if stopped.load(Ordering::Relaxed) => break,
                    Ok(None) => continue,
                    Err(e) => {
                        let _ = evt.send(Event::Closed(i, e));
                        break;
                    }
                }
            })
            .expect("spawn fleet pump thread");
        // Ask for the warm-state inventory; with locality on, placement
        // holds until it is answered or `inventory_wait` expires.
        if self.policy.locality && self.workers[i].tx.send(&Frame::InventoryQuery).is_err() {
            self.kill_worker(i, now);
        }
    }

    fn submit(&mut self, line: &str, reply: Sender<Outcome>) {
        let job = match ShardJob::parse(line) {
            Ok(j) => j,
            Err(e) => {
                let _ = reply.send(Err(e.into()));
                return;
            }
        };
        let canonical = job.canonical();
        let hash = kpm::tune::fnv1a(canonical.as_bytes());
        let total = job.total_units();
        let num_shards = total.min(self.policy.shards_per_job.max(1)).max(1);
        let now = Instant::now();
        let need = job.moment_len();
        if let (Some(journal), false) = (self.journal.as_mut(), self.recorded_jobs.contains(&hash))
        {
            if let Err(e) = journal.record_job(hash, &canonical) {
                let _ = reply.send(Err(e));
                return;
            }
            self.recorded_jobs.insert(hash);
        }
        let mut shards: Vec<ShardSt> = kpm::shard_plan(total, num_shards)
            .into_iter()
            .map(|range| ShardSt {
                range,
                rows: None,
                attempts: 0,
                eligible_at: now,
                assigned: Vec::new(),
                dispatched_at: now,
                primary: None,
            })
            .collect();
        // Pre-fill from the journal image: rows this hash already has —
        // replayed from a previous scheduler, or journaled moments ago for
        // a duplicate submission.
        let mut done = 0;
        if let Some(rows) = self.journaled.get(&hash) {
            for s in &mut shards {
                let warm: Option<Vec<Vec<f64>>> = s
                    .range
                    .clone()
                    .map(|idx| rows.get(&(idx as u64)).filter(|r| r.len() == need).cloned())
                    .collect();
                if let Some(w) = warm {
                    s.rows = Some(w);
                    done += 1;
                    self.stats.prefilled_shards += 1;
                    kpm_obs::counter_add("fleet.journal.prefilled", 1);
                }
            }
        }
        let seq = self.jobs.len();
        self.jobs.push(JobSt {
            op_key: job.op_key(),
            row_key: job.row_key(),
            prefix: job.prefix_extendable(),
            line: canonical,
            job,
            hash,
            need,
            shards,
            done,
            inflight_peak: 0,
            reply: Some(reply),
            finished: false,
        });
        kpm_obs::counter_add("fleet.jobs.submitted", 1);
        if self.jobs[seq].done == self.jobs[seq].shards.len() {
            self.complete_job(seq);
        }
    }

    /// Hands a job's rows back for the submitter to merge. Accepted rows
    /// were checked against the job's shape, so the merge cannot fail.
    fn complete_job(&mut self, seq: usize) {
        let j = &mut self.jobs[seq];
        j.finished = true;
        let rows: Vec<Vec<f64>> =
            j.shards.iter_mut().flat_map(|s| s.rows.take().expect("all shards done")).collect();
        self.stats.jobs_completed += 1;
        kpm_obs::counter_add("fleet.jobs.completed", 1);
        kpm_obs::counter_add("shard.inflight.peak", j.inflight_peak as u64);
        if let Some(reply) = j.reply.take() {
            let _ = reply.send(Ok((j.job.clone(), rows)));
        }
    }

    fn fail_job(&mut self, seq: usize, err: FleetError) {
        let j = &mut self.jobs[seq];
        if j.finished {
            return;
        }
        j.finished = true;
        self.stats.jobs_failed += 1;
        kpm_obs::counter_add("fleet.jobs.failed", 1);
        if let Some(reply) = j.reply.take() {
            let _ = reply.send(Err(err));
        }
        for w in &mut self.workers {
            w.inflight.retain(|&(job, _)| job as usize != seq);
        }
    }

    fn accept_result(&mut self, i: usize, res: ShardResult) -> Flow {
        let seq = res.job as usize;
        self.workers[i]
            .inflight
            .retain(|&(job, shard)| (job, shard) != (res.job as u32, res.shard));
        let Some(j) = self.jobs.get_mut(seq) else { return Flow::Continue };
        let k = res.shard as usize;
        if j.finished || j.shards.get(k).is_some_and(|s| s.rows.is_some()) {
            return Flow::Continue; // duplicate, speculative loser, or stale
        }
        let peer = &self.workers[i].peer;
        let malformed = match j.shards.get(k) {
            None => Some(format!("worker {peer} answered unknown shard {k}")),
            Some(s)
                if res.rows.len() != s.range.len()
                    || res.rows.iter().any(|r| r.len() != j.need) =>
            {
                Some(format!("worker {peer} returned malformed rows for shard {k}"))
            }
            Some(_) => None,
        };
        if let Some(msg) = malformed {
            self.fail_job(seq, ShardError::Protocol(msg).into());
            return Flow::Continue;
        }
        // Journal before ack: the shard only counts once its rows are
        // durable, which is what makes a coordinator restart resumable.
        let j = &mut self.jobs[seq];
        let start = j.shards[k].range.start as u64;
        if let Some(journal) = self.journal.as_mut() {
            if let Err(e) = journal.record_rows(j.hash, start, &res.rows) {
                self.fail_job(seq, e);
                return Flow::Continue;
            }
            self.stats.journal_bytes = journal.bytes_written();
        }
        let image = self.journaled.entry(j.hash).or_default();
        for (off, row) in res.rows.iter().enumerate() {
            image.insert(start + off as u64, row.clone());
        }
        // Update the worker's warm-state model: it now demonstrably holds
        // this operator and these rows.
        let (op_key, row_key, need) = (j.op_key, j.row_key, j.need);
        let end = j.shards[k].range.end as u64;
        let w = &mut self.workers[i];
        w.inv_ops.insert(op_key);
        w.inv_rows.push(RowRun { key: row_key, start, end, n: need as u32 });
        let j = &mut self.jobs[seq];
        if j.shards[k].primary.is_some_and(|p| p != i) {
            kpm_obs::counter_add("shard.speculative_wins", 1);
        }
        j.shards[k].rows = Some(res.rows);
        j.shards[k].assigned.clear();
        j.done += 1;
        self.results_journaled += 1;
        kpm_obs::counter_add("shard.completed", 1);
        if j.done == j.shards.len() {
            self.complete_job(seq);
        }
        if self.policy.kill_after_results.is_some_and(|k| self.results_journaled >= k) {
            return Flow::Killed;
        }
        Flow::Continue
    }

    fn kill_worker(&mut self, i: usize, now: Instant) {
        if !self.workers[i].alive {
            return;
        }
        self.workers[i].alive = false;
        self.stats.workers_dead += 1;
        kpm_obs::counter_add("shard.workers.dead", 1);
        let lost = std::mem::take(&mut self.workers[i].inflight);
        for (job, shard) in lost {
            let Some(j) = self.jobs.get_mut(job as usize) else { continue };
            let s = &mut j.shards[shard as usize];
            s.assigned.retain(|&w| w != i);
            if s.rows.is_none() && s.assigned.is_empty() {
                let exp = s.attempts.min(10);
                s.eligible_at = now + self.policy.backoff_base * 2u32.saturating_pow(exp);
                kpm_obs::counter_add("shard.reassigned", 1);
            }
        }
    }

    fn fail_if_workerless(&mut self, now: Instant) {
        if self.workers.iter().any(|w| w.alive) {
            self.all_dead_since = None;
            return;
        }
        let pending: Vec<usize> =
            (0..self.jobs.len()).filter(|&s| !self.jobs[s].finished).collect();
        if pending.is_empty() {
            self.all_dead_since = None;
            return;
        }
        let since = *self.all_dead_since.get_or_insert(now);
        if now.duration_since(since) < self.policy.no_worker_grace {
            return; // a worker may still join (or the fleet just started)
        }
        for seq in pending {
            let left = self.jobs[seq].shards.iter().filter(|s| s.rows.is_none()).count();
            let last_loss = self.last_loss.clone();
            self.fail_job(seq, FleetError::NoWorkers { pending: left, last_loss });
        }
        self.all_dead_since = Some(now);
    }

    /// Locality score of placing one shard of `job` on worker `w`:
    /// warm rows (4) + warm operator (2) + tuned process (1).
    fn score(job: &JobSt, w: &WorkerSt, range: &Range<usize>) -> u32 {
        let rows_warm = w.inv_rows.iter().any(|r| {
            r.key == job.row_key
                && (r.n as usize == job.need || (job.prefix && r.n as usize > job.need))
                && r.start < range.end as u64
                && r.end > range.start as u64
        });
        let op_warm = w.inv_ops.contains(&job.op_key);
        u32::from(rows_warm) * 4 + u32::from(op_warm) * 2 + u32::from(w.inv_tuned)
    }

    fn count_placement(&mut self, score: u32) {
        let (field, name) = if score >= 4 {
            (&mut self.stats.place_warm_rows, "fleet.place.warm_rows")
        } else if score >= 2 {
            (&mut self.stats.place_warm_op, "fleet.place.warm_op")
        } else if score >= 1 {
            (&mut self.stats.place_warm_profile, "fleet.place.warm_profile")
        } else {
            (&mut self.stats.place_cold, "fleet.place.cold")
        };
        *field += 1;
        kpm_obs::counter_add(name, 1);
    }

    /// Picks a worker for one shard. With locality off: the least-loaded
    /// live worker. With locality on, nothing is placed while a live
    /// worker's inventory is outstanding and its `inventory_wait` runs —
    /// else a fresh fleet would put its whole first job on whichever
    /// worker answered first. Then the best-scoring warm worker wins,
    /// unless its queue is [`STEAL_DEPTH`] deeper than an idle
    /// lower-scoring worker's — then the idle worker steals the shard.
    fn pick_worker(&mut self, seq: usize, range: &Range<usize>, now: Instant) -> Option<usize> {
        let candidates: Vec<usize> =
            (0..self.workers.len()).filter(|&i| self.workers[i].alive).collect();
        let least = *candidates.iter().min_by_key(|&&i| self.workers[i].inflight.len())?;
        if !self.policy.locality {
            return Some(least);
        }
        let awaiting_inventory = candidates.iter().any(|&i| {
            let w = &self.workers[i];
            !w.inv_seen && now.duration_since(w.joined_at) < self.policy.inventory_wait
        });
        if awaiting_inventory {
            return None;
        }
        let job = &self.jobs[seq];
        let best = *candidates
            .iter()
            .max_by_key(|&&i| {
                (
                    Self::score(job, &self.workers[i], range),
                    std::cmp::Reverse(self.workers[i].inflight.len()),
                )
            })
            .expect("non-empty");
        let best_score = Self::score(job, &self.workers[best], range);
        let least_score = Self::score(job, &self.workers[least], range);
        if best_score > least_score
            && self.workers[best].inflight.len() >= self.workers[least].inflight.len() + STEAL_DEPTH
        {
            // Backlog beats affinity: the idle worker takes the shard.
            self.stats.steals += 1;
            kpm_obs::counter_add("fleet.steals", 1);
            self.count_placement(least_score);
            return Some(least);
        }
        self.count_placement(best_score);
        Some(best)
    }

    fn dispatch_pending(&mut self, now: Instant) {
        for seq in 0..self.jobs.len() {
            if self.jobs[seq].finished {
                continue;
            }
            for k in 0..self.jobs[seq].shards.len() {
                let s = &self.jobs[seq].shards[k];
                if s.rows.is_some() || !s.assigned.is_empty() || s.eligible_at > now {
                    continue;
                }
                if s.attempts >= self.policy.max_attempts {
                    let failed = ShardError::ShardFailed { shard: k as u32, attempts: s.attempts };
                    self.fail_job(seq, failed.into());
                    break;
                }
                let range = self.jobs[seq].shards[k].range.clone();
                if let Some(w) = self.pick_worker(seq, &range, now) {
                    self.dispatch(seq, k, w, now);
                }
            }
        }
    }

    fn dispatch_speculative(&mut self, now: Instant) {
        for seq in 0..self.jobs.len() {
            if self.jobs[seq].finished {
                continue;
            }
            for k in 0..self.jobs[seq].shards.len() {
                let s = &self.jobs[seq].shards[k];
                if s.rows.is_none()
                    && s.assigned.len() == 1
                    && now.duration_since(s.dispatched_at) > self.policy.speculative_after
                {
                    let holder = s.assigned[0];
                    let other = (0..self.workers.len())
                        .filter(|&i| i != holder && self.workers[i].alive)
                        .min_by_key(|&i| self.workers[i].inflight.len());
                    if let Some(w) = other {
                        kpm_obs::counter_add("shard.speculative", 1);
                        self.dispatch(seq, k, w, now);
                    }
                }
            }
        }
    }

    fn dispatch(&mut self, seq: usize, k: usize, w: usize, now: Instant) {
        let j = &mut self.jobs[seq];
        let s = &mut j.shards[k];
        s.attempts += 1;
        s.assigned.push(w);
        if s.assigned.len() == 1 {
            s.primary = Some(w);
        }
        s.dispatched_at = now;
        let inflight = j.shards.iter().map(|s| s.assigned.len()).sum();
        j.inflight_peak = j.inflight_peak.max(inflight);
        self.workers[w].inflight.push((seq as u32, k as u32));
        kpm_obs::counter_add("shard.dispatched", 1);
        // Spec travels once per (worker, job); every shard after that is an
        // O(1) reference.
        if !self.workers[w].announced.contains(&(seq as u32)) {
            let announce =
                Frame::SpecAnnounce { job: seq as u64, spec: self.jobs[seq].line.clone() };
            if self.workers[w].tx.send(&announce).is_err() {
                self.kill_worker(w, now);
                return;
            }
            self.workers[w].announced.insert(seq as u32);
            kpm_obs::counter_add("shard.spec.announced", 1);
        }
        let range = &self.jobs[seq].shards[k].range;
        let request = Frame::RequestRef {
            job: seq as u64,
            shard: k as u32,
            start: range.start as u64,
            end: range.end as u64,
        };
        if self.workers[w].tx.send(&request).is_err() {
            self.kill_worker(w, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::loopback_pair;
    use crate::wire::InventoryReport;
    use crate::worker::{serve_endpoint_with, WorkerFault};

    fn spawn_workers(n: usize) -> Vec<Endpoint> {
        (0..n)
            .map(|i| {
                let (coord, worker) = loopback_pair(&format!("fleet-local-{i}"));
                std::thread::Builder::new()
                    .name(format!("kpm-fleet-local-{i}"))
                    .spawn(move || serve_endpoint_with(worker, None))
                    .expect("spawn local worker");
                coord
            })
            .collect()
    }

    fn fast_policy() -> FleetPolicy {
        FleetPolicy {
            heartbeat_interval: Duration::from_millis(50),
            heartbeat_timeout: Duration::from_millis(600),
            backoff_base: Duration::from_millis(5),
            inventory_wait: Duration::from_millis(100),
            no_worker_grace: Duration::from_millis(1500),
            ..FleetPolicy::default()
        }
    }

    const LINE_A: &str = "dos lattice=chain:48 moments=16 random=3 sets=2 seed=11";
    const LINE_B: &str = "dos lattice=chain:32 moments=12 random=2 sets=2 seed=7";

    fn reference(line: &str) -> Vec<f64> {
        let job = ShardJob::parse(line).unwrap();
        let rows = job.compute_partial(0..job.total_units()).unwrap();
        job.merge(&rows).unwrap().into_stats().unwrap().mean
    }

    /// Serves shards by hand and returns how many it was sent.
    /// `before_inventory` runs before the inventory reply, `on_request`
    /// when a shard request arrives.
    fn hand_rolled_worker(
        mut ep: Endpoint,
        before_inventory: impl FnOnce() + Send + 'static,
        on_request: impl Fn() + Send + 'static,
    ) -> std::thread::JoinHandle<usize> {
        std::thread::spawn(move || {
            let mut before_inventory = Some(before_inventory);
            let mut specs = HashMap::new();
            let mut requests = 0;
            while let Ok(frame) = ep.rx.recv_timeout(Duration::from_secs(30)) {
                match frame {
                    Some(Frame::InventoryQuery) => {
                        if let Some(wait) = before_inventory.take() {
                            wait();
                        }
                        let _ = ep.tx.send(&Frame::Inventory(InventoryReport::default()));
                    }
                    Some(Frame::SpecAnnounce { job, spec }) => {
                        specs.insert(job, ShardJob::parse(&spec).unwrap());
                    }
                    Some(Frame::RequestRef { job, shard, start, end }) => {
                        requests += 1;
                        on_request();
                        let rows = specs[&job].compute_partial(start as usize..end as usize);
                        let reply = ShardResult { job, shard, rows: rows.unwrap() };
                        let _ = ep.tx.send(&Frame::Result(reply));
                    }
                    Some(Frame::Ping { nonce }) => {
                        let _ = ep.tx.send(&Frame::Pong { nonce });
                    }
                    Some(Frame::Shutdown) => break,
                    _ => {}
                }
            }
            requests
        })
    }

    /// A fresh fleet's first job is spread over its workers even while one
    /// inventory reply is outstanding: the withholding worker answers only
    /// once the other worker has been sent a shard. With locality off
    /// placement never waits for inventory; with it on, placement holds
    /// until the reply or `inventory_wait` runs out.
    #[test]
    fn first_job_is_spread_while_an_inventory_reply_is_outstanding() {
        for locality in [false, true] {
            let (sent_tx, sent_rx) = mpsc::channel();
            let (slow, slow_end) = loopback_pair("withholding");
            let (eager, eager_end) = loopback_pair("eager");
            let slow_worker = hand_rolled_worker(
                slow_end,
                move || {
                    let _ = sent_rx.recv_timeout(Duration::from_secs(30));
                },
                || {},
            );
            let eager_worker = hand_rolled_worker(
                eager_end,
                || {},
                move || {
                    let _ = sent_tx.send(());
                },
            );
            let inventory_wait =
                if locality { Duration::from_millis(300) } else { Duration::from_secs(3600) };
            let policy = FleetPolicy { locality, inventory_wait, ..FleetPolicy::default() };
            let fleet = Fleet::start(vec![slow, eager], policy, None).unwrap();
            let merged = fleet.client().submit(LINE_A).unwrap().into_stats().unwrap();
            assert_eq!(merged.mean, reference(LINE_A));
            drop(fleet);
            let slow_shards = slow_worker.join().unwrap();
            let eager_shards = eager_worker.join().unwrap();
            assert!(
                slow_shards > 0 && eager_shards > 0,
                "locality {locality}: {slow_shards} and {eager_shards} shards sent"
            );
        }
    }

    #[test]
    fn concurrent_jobs_merge_bitwise_identically() {
        let fleet = Fleet::start(spawn_workers(3), fast_policy(), None).unwrap();
        let client = fleet.client();
        let rx_a = client.submit_async(LINE_A).unwrap();
        let rx_b = client.submit_async(LINE_B).unwrap();
        let a = rx_a.recv().unwrap().unwrap().into_stats().unwrap();
        let b = rx_b.recv().unwrap().unwrap().into_stats().unwrap();
        assert_eq!(a.mean, reference(LINE_A));
        assert_eq!(b.mean, reference(LINE_B));
        let stats = fleet.shutdown().unwrap();
        assert_eq!(stats.jobs_completed, 2);
        assert_eq!(stats.jobs_failed, 0);
    }

    #[test]
    fn repeat_submission_prefills_from_the_journal_image() {
        let fleet = Fleet::start(spawn_workers(2), fast_policy(), None).unwrap();
        let client = fleet.client();
        let first = client.submit(LINE_A).unwrap().into_stats().unwrap();
        let again = client.submit(LINE_A).unwrap().into_stats().unwrap();
        assert_eq!(first.mean, again.mean);
        assert_eq!(first.mean, reference(LINE_A));
        let stats = fleet.shutdown().unwrap();
        // The duplicate was served whole from journaled rows.
        assert_eq!(stats.prefilled_shards, 4);
    }

    #[test]
    fn invalid_job_fails_without_poisoning_the_fleet() {
        let fleet = Fleet::start(spawn_workers(1), fast_policy(), None).unwrap();
        let client = fleet.client();
        assert!(matches!(client.submit("dos lattice=blob:9"), Err(FleetError::Job(_))));
        let ok = client.submit(LINE_B).unwrap().into_stats().unwrap();
        assert_eq!(ok.mean, reference(LINE_B));
        drop(fleet);
    }

    #[test]
    fn worker_join_mid_run_serves_jobs() {
        let fleet = Fleet::start(Vec::new(), fast_policy(), None).unwrap();
        let client = fleet.client();
        let rx = client.submit_async(LINE_B).unwrap();
        let mut eps = spawn_workers(1);
        fleet.join_worker(eps.remove(0)).unwrap();
        let stats = rx.recv().unwrap().unwrap().into_stats().unwrap();
        assert_eq!(stats.mean, reference(LINE_B));
        drop(fleet);
    }

    #[test]
    fn fleet_without_workers_fails_jobs_after_grace() {
        let policy = FleetPolicy { no_worker_grace: Duration::from_millis(200), ..fast_policy() };
        let fleet = Fleet::start(Vec::new(), policy, None).unwrap();
        match fleet.client().submit(LINE_B) {
            Err(FleetError::NoWorkers { pending, .. }) => assert!(pending > 0),
            other => panic!("expected NoWorkers, got {other:?}"),
        }
        drop(fleet);
    }

    #[test]
    fn dying_worker_does_not_change_the_merged_bytes() {
        let mut endpoints = spawn_workers(2);
        let (coord, worker) = loopback_pair("fleet-dying");
        std::thread::spawn(move || {
            serve_endpoint_with(worker, Some(WorkerFault::DieAfterRequests(1)))
        });
        endpoints.push(coord);
        let fleet = Fleet::start(endpoints, fast_policy(), None).unwrap();
        let merged = fleet.client().submit(LINE_A).unwrap().into_stats().unwrap();
        assert_eq!(merged.mean, reference(LINE_A));
        drop(fleet);
    }

    #[test]
    fn kill_and_restart_resumes_from_the_journal_bitwise() {
        let dir = std::env::temp_dir().join(format!("kpm-fleet-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // First coordinator: crashes (by injection) after two journaled
        // results.
        let policy = FleetPolicy { kill_after_results: Some(2), ..fast_policy() };
        let fleet = Fleet::start(spawn_workers(2), policy, Some(&dir)).unwrap();
        let rx = fleet.client().submit_async(LINE_A).unwrap();
        assert!(rx.recv().is_err(), "the killed coordinator must not answer");
        drop(fleet);
        // Restarted coordinator: replays the journal, computes only what is
        // missing, and the merge is bitwise identical.
        let fleet = Fleet::start(spawn_workers(2), fast_policy(), Some(&dir)).unwrap();
        let merged = fleet.client().submit(LINE_A).unwrap().into_stats().unwrap();
        assert_eq!(merged.mean, reference(LINE_A));
        let stats = fleet.shutdown().unwrap();
        assert!(stats.replayed_rows > 0, "journal must have been replayed");
        assert!(stats.prefilled_shards > 0, "replayed rows must pre-fill shards");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn locality_routes_repeat_jobs_to_warm_workers() {
        // Two workers; the same spec three times with different seeds so
        // rows cannot be reused but the assembled operator can. With
        // locality on, warm-op placements must appear.
        let fleet = Fleet::start(spawn_workers(2), fast_policy(), None).unwrap();
        let client = fleet.client();
        for seed in 1..=3 {
            let line = format!("dos lattice=chain:40 moments=12 random=2 sets=2 seed={seed}");
            client.submit(&line).unwrap();
        }
        let stats = fleet.shutdown().unwrap();
        assert!(
            stats.place_warm_op + stats.place_warm_rows > 0,
            "repeat operators must route warm: {stats:?}"
        );
    }

    #[test]
    fn stats_json_renders_all_counters() {
        let json =
            FleetStats { jobs_completed: 2, steals: 1, ..FleetStats::default() }.render_json();
        assert!(json.contains("\"kind\":\"fleet-stats\""));
        assert!(json.contains("\"jobs_completed\":2"));
        assert!(json.contains("\"steals\":1"));
        assert!(json.contains("\"journal_bytes\":0"));
    }
}

//! The scheduling engine behind the HTTP surface: request admission,
//! single-flight deduplication, the bounded job queue, the
//! content-addressed response cache and the scheduler workers.
//!
//! Admission order is fixed and lock-disciplined (lock order is always
//! jobs → queue, and the cache lock is never held with either):
//! canonical key → store lookup → decode → build graph, platform and
//! scheduler (422 on failure) → peer fill → join an identical
//! in-flight job → enqueue a new one → reject with backpressure. A
//! schedule request's key is written in one pass over its bytes, so a
//! store hit costs that pass and a hash, and builds nothing, not even
//! a value tree. The same canonical
//! request therefore runs the scheduler **at most once** no matter how
//! many clients submit it concurrently, and every one of them receives
//! byte-identical bodies.
//!
//! Three resilience layers wrap job execution:
//!
//! * **Panic isolation** — the scheduler runs under `catch_unwind`, so
//!   a panicking scheduler fails *its own* job with a typed error and
//!   the worker thread lives on.
//! * **Degraded mode** — with a per-request compute budget configured,
//!   a scheduler that exhausts it is answered by the cheap energy-blind
//!   EDF fallback, marked `"degraded": true`, instead of a 500.
//! * **Crash recovery** — with a journal configured, accepted async
//!   jobs are write-ahead logged and replayed on startup (see
//!   [`crate::journal`]), so a killed server finishes what it admitted
//!   and serves byte-identical responses after restart.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use serde::{Deserialize, Value};

use noc_ctg::prelude::TaskGraph;
use noc_eas::prelude::{
    apply_edits, apply_platform_edits, repair_from_traced, AppliedEdits, ComputeBudget,
    EdfScheduler, Edit, Scheduler, SchedulerError, SummarySink, TraceSummary,
};
use noc_platform::prelude::Platform;

use crate::api::{
    DeltaRequest, DeltaResponse, Presentation, ScheduleKey, ScheduleRequest, ScheduleResponse,
    ValidateRequest, ValidateResponse,
};
use crate::cache::JobOutput;
use crate::cluster::{
    Cluster, ClusterConfig, ClusterObs, ClusterStats, RecordEnvelope, RecordSource,
};
use crate::hash::ContentHash;
use crate::journal::{Journal, Record};
use crate::metrics::Metrics;
use crate::obs::{span_us, LogLevel, Recorder, ServiceLog, TraceCtx};
use crate::queue::{JobQueue, PushError};
use crate::spec::PlatformSpec;
use crate::store::{Store, StoreConfig, StoreStats, TieredStore};

/// Finished jobs kept for `GET /v1/jobs/<id>` before the oldest are
/// forgotten (their responses usually survive longer in the cache).
const FINISHED_JOBS_RETAINED: usize = 1024;

/// Lifecycle of one scheduling job.
#[derive(Debug, Clone)]
pub enum JobPhase {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing the scheduler.
    Running,
    /// Finished; the rendered response body and its degraded flag.
    Done(JobOutput),
    /// The scheduler failed; the error message.
    Failed(String),
}

/// The resolved inputs a worker needs; taken (once) by the worker that
/// executes the job.
enum JobWork {
    /// An ordinary `POST /v1/schedule` job.
    Schedule {
        graph: TaskGraph,
        platform: Platform,
        scheduler: Box<dyn Scheduler + Send + Sync>,
        scheduler_name: String,
    },
    /// A `POST /v1/schedule/delta` job: warm-start from the prior
    /// request's cached result (recomputing it on a cache miss) and
    /// repair under the applied edits.
    Delta {
        prior_graph: TaskGraph,
        prior_platform: Box<Platform>,
        prior_scheduler: Box<dyn Scheduler + Send + Sync>,
        prior_scheduler_name: String,
        /// Canonical cache key of the prior request and its content
        /// hash — the warm-start lookup handle.
        prior_key: String,
        prior_hash: ContentHash,
        /// The *edited* platform.
        platform: Box<Platform>,
        applied: AppliedEdits,
    },
}

/// One admitted scheduling job, shared between the submitting
/// connections and the worker executing it.
pub struct Job {
    /// Content-hash id (doubles as the `GET /v1/jobs/<id>` handle).
    id: String,
    /// Canonical request string — the cache key.
    key: String,
    /// Whether this job has an `acc` record in the journal, so its
    /// terminal phase must be journaled too. Set at admission for async
    /// submissions; flips to `true` when an async client joins a job a
    /// sync submission created first.
    journaled: AtomicBool,
    /// Trace context of the submission that admitted this job (the
    /// first one, under coalescing). Worker-side spans — compute,
    /// store write, replication — parent onto it.
    trace: TraceCtx,
    work: Mutex<Option<JobWork>>,
    state: Mutex<JobPhase>,
    finished: Condvar,
    /// Callbacks fired once when the job reaches a terminal phase —
    /// the reactor's alternative to parking a thread in [`Job::wait`].
    watchers: Mutex<Vec<FinishWatcher>>,
}

/// One completion callback registered via [`Job::on_finish`].
type FinishWatcher = Box<dyn FnOnce(&JobPhase) + Send>;

impl Job {
    /// The job's content-hash id.
    #[must_use]
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Current lifecycle phase (a snapshot).
    #[must_use]
    pub fn phase(&self) -> JobPhase {
        self.state.lock().expect("job lock").clone()
    }

    /// Blocks until the job leaves the queue/running phases, returning
    /// the terminal phase.
    #[must_use]
    pub fn wait(&self) -> JobPhase {
        let mut state = self.state.lock().expect("job lock");
        loop {
            match &*state {
                JobPhase::Done(_) | JobPhase::Failed(_) => return state.clone(),
                JobPhase::Queued | JobPhase::Running => {
                    state = self.finished.wait(state).expect("job lock");
                }
            }
        }
    }

    /// Registers a callback to run once the job reaches a terminal
    /// phase, firing immediately (on the calling thread) when it
    /// already has; otherwise it runs on the worker thread that
    /// finishes the job. Keep callbacks cheap and non-blocking — the
    /// reactor uses them to post completions to its event loops.
    pub fn on_finish(&self, callback: impl FnOnce(&JobPhase) + Send + 'static) {
        // Lock order matters: holding the watcher list while reading
        // the phase means `set_phase` (which stores the phase first,
        // then drains watchers) can never slip between our check and
        // our push — a registered callback is always fired.
        let mut watchers = self.watchers.lock().expect("job lock");
        let phase = self.state.lock().expect("job lock").clone();
        match phase {
            JobPhase::Done(_) | JobPhase::Failed(_) => {
                drop(watchers);
                callback(&phase);
            }
            JobPhase::Queued | JobPhase::Running => watchers.push(Box::new(callback)),
        }
    }

    fn set_phase(&self, phase: JobPhase) {
        let terminal = matches!(phase, JobPhase::Done(_) | JobPhase::Failed(_));
        *self.state.lock().expect("job lock") = phase;
        self.finished.notify_all();
        if terminal {
            let drained = std::mem::take(&mut *self.watchers.lock().expect("job lock"));
            if !drained.is_empty() {
                let snapshot = self.state.lock().expect("job lock").clone();
                for watcher in drained {
                    watcher(&snapshot);
                }
            }
        }
    }
}

/// Decodes a `POST /v1/schedule` or `/v1/schedule/delta` body, or
/// returns the [`Submission::BadRequest`] its 400 answer reports.
fn decode_body<T: Deserialize>(body: &str) -> Result<T, Submission> {
    serde_json::from_str(body)
        .map_err(|e| Submission::BadRequest(format!("invalid request body: {e}")))
}

/// Outcome of admitting one `POST /v1/schedule` body.
pub enum Submission {
    /// The body was not valid JSON for a [`ScheduleRequest`] → 400.
    BadRequest(String),
    /// The specs inside the body did not resolve (unknown platform,
    /// scheduler, fault set or malformed graph) → 422.
    BadSpec(String),
    /// Served from the response cache → 200 with `X-Cache: hit`.
    Cached {
        /// Content-hash id of the request.
        id: String,
        /// The cached response body and its degraded flag.
        output: JobOutput,
    },
    /// Served from a peer node's store via the cluster's internal
    /// lookup → 200 with `X-Cache: peer`.
    PeerFilled {
        /// Content-hash id of the request.
        id: String,
        /// The peer's stored response body — byte-identical to what a
        /// local run would have produced.
        output: JobOutput,
    },
    /// Joined an identical job already queued or running →
    /// `X-Cache: join`.
    Joined {
        /// Content-hash id of the request.
        id: String,
        /// The in-flight job to wait on.
        job: Arc<Job>,
    },
    /// Admitted as a new job → `X-Cache: miss`.
    Enqueued {
        /// Content-hash id of the request.
        id: String,
        /// The newly queued job.
        job: Arc<Job>,
    },
    /// The job queue is full → 429 with `Retry-After`.
    Rejected,
    /// The engine is shutting down → 503.
    ShuttingDown,
}

struct JobTable {
    /// Live and recently finished jobs by id.
    map: HashMap<String, Arc<Job>>,
    /// Finished ids in completion order, for bounded retention.
    finished: VecDeque<String>,
}

impl JobTable {
    /// Forgets the oldest finished jobs past the retention bound.
    fn prune(&mut self) {
        while self.finished.len() > FINISHED_JOBS_RETAINED {
            if let Some(old) = self.finished.pop_front() {
                self.map.remove(&old);
            }
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Bounded job-queue capacity; submissions past it get 429.
    pub queue_capacity: usize,
    /// Response-cache capacity in entries; 0 disables caching.
    pub cache_capacity: usize,
    /// Per-request compute budget, wall-clock milliseconds. A scheduler
    /// that exhausts it is answered by the degraded EDF fallback.
    /// `None` (the default) runs schedulers to completion. Wall-clock
    /// budgets make responses timing-dependent — leave this off when
    /// byte determinism across runs matters more than latency bounds.
    pub budget_ms: Option<u64>,
    /// Path of the crash-safe job journal; `None` disables journaling.
    pub journal: Option<String>,
    /// Directory of the persistent schedule store's disk tier; `None`
    /// runs memory-only (the pre-store behaviour). When set, finished
    /// responses are written through to an append-only segment log and
    /// survive restarts, and any disk failure degrades the service
    /// back to memory-only mode instead of failing requests.
    pub store_dir: Option<String>,
    /// Store segment rotation threshold, bytes.
    pub store_segment_bytes: u64,
    /// Multi-node membership; `None` runs single-node (the default).
    /// See [`crate::cluster`] for ownership, peer cache-fill and
    /// replication semantics.
    pub cluster: Option<ClusterConfig>,
    /// Flight-recorder span capacity (see [`crate::obs::Recorder`]);
    /// 0 (the default here) disables request tracing entirely.
    pub flight_recorder_entries: usize,
    /// Requests at or above this wall time snapshot their span tree
    /// into the slow-request ring (`GET /v1/internal/slow`).
    pub slow_ms: u64,
    /// Path of the structured JSONL service event log; `None` keeps
    /// events on stderr.
    pub log_json: Option<String>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            queue_capacity: 64,
            cache_capacity: 1024,
            budget_ms: None,
            journal: None,
            store_dir: None,
            store_segment_bytes: crate::store::DEFAULT_SEGMENT_BYTES,
            cluster: None,
            flight_recorder_entries: 0,
            slow_ms: 250,
            log_json: None,
        }
    }
}

/// The scheduling engine: admission, cache, queue and workers.
pub struct Engine {
    config: EngineConfig,
    queue: JobQueue<Arc<Job>>,
    /// The two-tier response store: memory LRU fronting the optional
    /// persistent disk tier (see [`crate::store`]).
    store: TieredStore,
    jobs: Mutex<JobTable>,
    journal: Option<Journal>,
    /// Cluster membership and peer I/O; `None` in single-node mode.
    cluster: Option<Cluster>,
    /// The service-wide metrics registry.
    pub metrics: Metrics,
    /// The node's flight recorder (request span trees + slow ring).
    pub recorder: Arc<Recorder>,
    /// The structured service event log.
    pub log: Arc<ServiceLog>,
}

impl Engine {
    /// Creates an engine; workers are spawned by the caller with
    /// [`worker_loop`](Engine::worker_loop). When the config names a
    /// journal, its records are replayed first: finished jobs come back
    /// with their exact response bytes and accepted-but-unfinished jobs
    /// are re-enqueued (past the capacity bound — an acknowledged job is
    /// never dropped).
    ///
    /// # Errors
    ///
    /// Propagates journal open/recovery I/O failures.
    pub fn new(config: EngineConfig) -> io::Result<Arc<Self>> {
        let started = Instant::now();
        let (journal, backlog) = match &config.journal {
            Some(path) => {
                let (journal, records) = Journal::open(path)?;
                (Some(journal), records)
            }
            None => (None, Vec::new()),
        };
        let metrics = Metrics::new();
        let node = config
            .cluster
            .as_ref()
            .map_or("local", |c| c.self_addr.as_str())
            .to_owned();
        let log = Arc::new(ServiceLog::open(
            config.log_json.as_deref(),
            &node,
            metrics.log_counters(),
        )?);
        let recorder = Arc::new(Recorder::new(
            &node,
            config.flight_recorder_entries,
            config.slow_ms,
        ));
        let store = match &config.store_dir {
            Some(dir) => {
                let stats = Arc::new(StoreStats::default());
                metrics.set_store_stats(Arc::clone(&stats));
                let disk = match Store::open(
                    StoreConfig {
                        dir: PathBuf::from(dir),
                        segment_max_bytes: config.store_segment_bytes,
                        faults: None,
                    },
                    Arc::clone(&stats),
                ) {
                    Ok(disk) => Some(disk),
                    // A store that cannot open is the same failure
                    // class as one that fails later: serve memory-only
                    // rather than refuse to start.
                    Err(err) => {
                        stats.faults.fetch_add(1, Ordering::Relaxed);
                        stats.degraded.store(1, Ordering::Relaxed);
                        log.event(
                            LogLevel::Error,
                            "store-open-failed",
                            &format!("schedule store failed to open ({err}); serving memory-only"),
                            &[("dir", dir)],
                        );
                        None
                    }
                };
                TieredStore::with_disk(config.cache_capacity, disk)
            }
            None => TieredStore::memory_only(config.cache_capacity),
        };
        store.bind_log(&log);
        let cluster = match &config.cluster {
            Some(cluster_config) => {
                let stats = Arc::new(ClusterStats::default());
                metrics.set_cluster_stats(Arc::clone(&stats));
                let obs = ClusterObs {
                    recorder: Arc::clone(&recorder),
                    log: Arc::clone(&log),
                    stages: metrics.stage_observer(),
                };
                Some(Cluster::start_with_obs(cluster_config.clone(), stats, obs)?)
            }
            None => None,
        };
        let engine = Arc::new(Engine {
            queue: JobQueue::new(config.queue_capacity),
            store,
            jobs: Mutex::new(JobTable {
                map: HashMap::new(),
                finished: VecDeque::new(),
            }),
            journal,
            cluster,
            metrics,
            recorder,
            log,
            config,
        });
        // The anti-entropy sweep pulls records back out of this
        // engine's store; it holds only a weak reference, so the
        // cluster workers can never outlive-and-leak the engine.
        if let Some(cluster) = &engine.cluster {
            let weak = Arc::downgrade(&engine);
            cluster.bind_source(weak as std::sync::Weak<dyn RecordSource>);
        }
        engine.replay(backlog, started);
        Ok(engine)
    }

    /// Applies the journal backlog: one pass folds the records per job
    /// id (keeping first-seen order), then each job is restored to its
    /// recorded terminal phase or, lacking one, re-enqueued to run.
    /// Restored jobs obey the same retention bound as live ones: only
    /// the newest [`FINISHED_JOBS_RETAINED`] in replay order stay
    /// pollable.
    ///
    /// The journal is then compacted to the records it still needs. A
    /// record can be dropped once the response bytes it protects are
    /// durable (and verified readable) in the persistent store;
    /// everything else is kept. The `journal-replay` log event times
    /// the restart from `started` (before the journal opened) through
    /// compaction.
    fn replay(&self, backlog: Vec<Record>, started: Instant) {
        let mut order: Vec<String> = Vec::new();
        let mut accepted: HashMap<String, String> = HashMap::new();
        let mut terminal: HashMap<String, Record> = HashMap::new();
        let total = backlog.len();
        for record in backlog {
            let id = record.id().to_owned();
            if !accepted.contains_key(&id) && !terminal.contains_key(&id) {
                order.push(id.clone());
            }
            match record {
                Record::Accepted { body, .. } => {
                    accepted.insert(id, body);
                }
                done_or_failed => {
                    terminal.insert(id, done_or_failed);
                }
            }
        }
        let mut kept: Vec<Record> = Vec::new();
        let (mut from_store, mut rerun) = (0, 0);
        let mut rerun_job = |id: &str, body: &str| match self.recover(id, body) {
            Ok(()) => rerun += 1,
            Err(reason) => self.restore_finished(id, JobPhase::Failed(reason)),
        };
        let keep_accepted = |kept: &mut Vec<Record>, id: &str| {
            if let Some(body) = accepted.get(id) {
                kept.push(Record::Accepted {
                    id: id.to_owned(),
                    body: body.clone(),
                });
            }
        };
        for id in order {
            match terminal.remove(&id) {
                Some(Record::Done { degraded, body, .. }) => {
                    // The journal records response bytes only; stage
                    // stats do not survive a restart.
                    let output = JobOutput {
                        body: Arc::new(body.clone()),
                        degraded,
                        stats: None,
                    };
                    // Re-derive the cache key from the accepted body so
                    // resubmissions of the same problem hit the store;
                    // the write-through also persists pre-store journal
                    // bodies, which is what lets compaction drop them.
                    let durable = match accepted.get(&id).and_then(|b| journaled_key(b)) {
                        Some(key) => self.store.insert(&key, &output),
                        None => false,
                    };
                    if !durable {
                        keep_accepted(&mut kept, &id);
                        kept.push(Record::Done {
                            id: id.clone(),
                            degraded,
                            body,
                        });
                    }
                    self.restore_finished(&id, JobPhase::Done(output));
                }
                Some(Record::DoneStored { .. }) => {
                    // Both store tiers are addressed by the id's own
                    // content hash; a record counts only if its stored
                    // key hashes back to the id. A disk read re-verifies
                    // the checksum, so a quarantined or degraded store
                    // falls through to a re-run — never to wrong bytes.
                    match self.lookup_record(&id) {
                        Some((_, output)) => {
                            from_store += 1;
                            self.restore_finished(&id, JobPhase::Done(output));
                        }
                        None => match accepted.get(&id) {
                            // Deterministic scheduling owes the same
                            // bytes the store lost: re-run the job.
                            Some(body) => {
                                keep_accepted(&mut kept, &id);
                                rerun_job(&id, body);
                            }
                            None => {
                                self.restore_finished(
                                    &id,
                                    JobPhase::Failed(
                                        "stored response unavailable after restart".to_owned(),
                                    ),
                                );
                            }
                        },
                    }
                }
                Some(Record::Failed { error, .. }) => {
                    kept.push(Record::Failed {
                        id: id.clone(),
                        error: error.clone(),
                    });
                    self.restore_finished(&id, JobPhase::Failed(error));
                }
                Some(Record::Accepted { .. }) => unreachable!("acc records never land in terminal"),
                // Accepted but never finished: the crash interrupted it.
                // Re-admit and re-run; determinism makes the re-run
                // byte-identical to the answer the lost run owed.
                None => {
                    keep_accepted(&mut kept, &id);
                    let body = accepted.get(&id).expect("order only holds seen ids");
                    rerun_job(&id, body);
                }
            }
        }
        self.jobs.lock().expect("jobs lock").prune();
        self.compact_journal(kept, total);
        self.metrics
            .journal_replayed
            .fetch_add(total as u64, Ordering::Relaxed);
        if total > 0 {
            self.log.event(
                LogLevel::Info,
                "journal-replay",
                &format!("replayed {total} journal records after restart"),
                &[
                    ("records", &total.to_string()),
                    (
                        "recovery_ms",
                        &format!("{:.1}", started.elapsed().as_secs_f64() * 1e3),
                    ),
                    ("from_store", &from_store.to_string()),
                    ("rerun", &rerun.to_string()),
                ],
            );
        }
        self.metrics
            .queue_depth
            .store(self.queue.depth() as u64, Ordering::Relaxed);
    }

    /// Rewrites the journal down to `kept` when the store's disk tier
    /// made some records redundant. Skipped without a healthy disk
    /// tier — compaction must never drop bytes the store cannot serve.
    fn compact_journal(&self, kept: Vec<Record>, total: usize) {
        let Some(journal) = &self.journal else { return };
        if kept.len() >= total {
            return;
        }
        let disk_ok = self.store.disk().is_some_and(|d| !d.is_degraded());
        if !disk_ok {
            return;
        }
        match journal.compact(&kept) {
            Ok(()) => {
                self.metrics
                    .journal_compacted
                    .fetch_add((total - kept.len()) as u64, Ordering::Relaxed);
            }
            Err(err) => self.log.event(
                LogLevel::Warn,
                "journal-compact-failed",
                &format!("journal compaction failed: {err}"),
                &[],
            ),
        }
    }

    /// Inserts a journal-recovered job directly in a terminal phase.
    fn restore_finished(&self, id: &str, phase: JobPhase) {
        let job = Arc::new(Job {
            id: id.to_owned(),
            key: String::new(),
            journaled: AtomicBool::new(false),
            trace: TraceCtx::untraced(),
            work: Mutex::new(None),
            state: Mutex::new(phase),
            finished: Condvar::new(),
            watchers: Mutex::new(Vec::new()),
        });
        let mut table = self.jobs.lock().expect("jobs lock");
        table.map.insert(id.to_owned(), job);
        table.finished.push_back(id.to_owned());
    }

    /// Re-admits one accepted-but-unfinished journal record. Unlike
    /// [`submit`](Engine::submit) this bypasses the capacity bound and
    /// never re-journals the acceptance (the original `acc` record is
    /// still on disk).
    fn recover(&self, id: &str, body: &str) -> Result<(), String> {
        let (work, key) = self.resolve_body(body)?;
        let job = Arc::new(Job {
            id: id.to_owned(),
            key,
            journaled: AtomicBool::new(true),
            trace: TraceCtx::untraced(),
            work: Mutex::new(Some(work)),
            state: Mutex::new(JobPhase::Queued),
            finished: Condvar::new(),
            watchers: Mutex::new(Vec::new()),
        });
        let mut table = self.jobs.lock().expect("jobs lock");
        self.queue
            .push_unbounded(Arc::clone(&job))
            .map_err(|_| "queue closed during recovery".to_owned())?;
        table.map.insert(id.to_owned(), job);
        Ok(())
    }

    /// Builds the runnable work of a parsed request: graph, platform
    /// and scheduler.
    fn resolve(&self, request: &ScheduleRequest) -> Result<JobWork, String> {
        let spec = PlatformSpec::parse(&request.platform, request.faults.as_deref())?;
        let graph =
            TaskGraph::from_value(&request.graph).map_err(|e| format!("invalid graph: {e}"))?;
        let platform = spec.build_for(graph.pe_count())?;
        let scheduler_name = request.scheduler_name().to_owned();
        let scheduler = crate::spec::parse_scheduler(&scheduler_name, 1)?;
        Ok(JobWork::Schedule {
            graph,
            platform,
            scheduler,
            scheduler_name,
        })
    }

    /// Builds the runnable work of a parsed delta request: the prior
    /// problem and the edit sequence applied to its graph and platform.
    /// `prior_key` is the prior request's canonical key, `prior_hash`
    /// its content hash.
    fn resolve_delta(
        &self,
        request: &DeltaRequest,
        prior: &ScheduleRequest,
        prior_key: String,
        prior_hash: ContentHash,
    ) -> Result<JobWork, String> {
        let prior_spec = PlatformSpec::parse(&prior.platform, prior.faults.as_deref())?;
        let prior_graph =
            TaskGraph::from_value(&prior.graph).map_err(|e| format!("invalid prior graph: {e}"))?;
        let prior_platform = prior_spec.build_for(prior_graph.pe_count())?;
        let prior_scheduler_name = prior.scheduler_name().to_owned();
        let prior_scheduler = crate::spec::parse_scheduler(&prior_scheduler_name, 1)?;
        let edits =
            Vec::<Edit>::from_value(&request.edits).map_err(|e| format!("invalid edits: {e}"))?;
        let applied =
            apply_edits(&prior_graph, &edits).map_err(|e| format!("inapplicable edits: {e}"))?;
        let platform = apply_platform_edits(&prior_platform, &edits)
            .map_err(|e| format!("inapplicable edits: {e}"))?;
        Ok(JobWork::Delta {
            prior_key,
            prior_hash,
            prior_graph,
            prior_platform: Box::new(prior_platform),
            prior_scheduler,
            prior_scheduler_name,
            platform: Box::new(platform),
            applied,
        })
    }

    /// Resolves a body of either request shape (sniffing the `"prior"`
    /// key that only delta requests carry) into runnable work and its
    /// cache key — the journal recovery path, which must re-admit both
    /// kinds.
    fn resolve_body(&self, body: &str) -> Result<(JobWork, String), String> {
        let value: Value =
            serde_json::from_str(body).map_err(|e| format!("journaled body unparseable: {e}"))?;
        if value.as_object().is_some_and(|o| o.get("prior").is_some()) {
            let request = DeltaRequest::from_value(&value)
                .map_err(|e| format!("journaled body unparseable: {e}"))?;
            let (prior, prior_key, prior_hash, key) = delta_keys(&request)?;
            let work = self.resolve_delta(&request, &prior, prior_key, prior_hash)?;
            Ok((work, key))
        } else {
            let request = ScheduleRequest::from_owned_value(value)
                .map_err(|e| format!("journaled body unparseable: {e}"))?;
            Ok((self.resolve(&request)?, request.canonical_key()))
        }
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Admits one `POST /v1/schedule` body.
    #[must_use]
    pub fn submit(&self, body: &str) -> Submission {
        self.submit_traced(body, &TraceCtx::untraced()).0
    }

    /// [`submit`](Engine::submit) with the request's trace context, so
    /// peer fills and worker-side spans attach to the caller's trace,
    /// also returning the presentation members the body carried.
    /// `body` is kept verbatim for the write-ahead journal.
    #[must_use]
    pub fn submit_traced(&self, body: &str, trace: &TraceCtx) -> (Submission, Presentation) {
        // Key → store lookup → decode → build. The key comes from one
        // pass over the bytes and is hashed once, so a hit builds
        // nothing, not even a value tree. A miss decodes by value and
        // builds every spec *before* peer fill, single-flight and
        // queue, so a request that can never schedule is answered 422
        // and is never peer-filled, coalesced or admitted. A body the
        // pass does not accept is decoded first, and answered 400 as
        // the decode fails.
        let (key, presentation, decoded) = match ScheduleKey::scan(body) {
            Some(scan) => (scan.key, scan.presentation, None),
            None => match decode_body::<ScheduleRequest>(body) {
                Ok(request) => (
                    request.canonical_key(),
                    request.presentation(),
                    Some(request),
                ),
                Err(bad) => return (bad, Presentation::default()),
            },
        };
        let hash = ContentHash::of(&key);
        if let Some(hit) = self.store_hit(hash, &key) {
            return (hit, presentation);
        }
        let request = match decoded.map_or_else(|| decode_body(body), Ok) {
            Ok(request) => request,
            Err(bad) => return (bad, presentation),
        };
        let submission = match self.resolve(&request) {
            Ok(work) => self.admit(body, work, hash, key, presentation.is_async, trace),
            Err(e) => Submission::BadSpec(e),
        };
        (submission, presentation)
    }

    /// Admits one `POST /v1/schedule/delta` body. Delta jobs share the
    /// whole admission pipeline — content-addressed cache, single-flight
    /// coalescing, bounded queue, write-ahead journal — keyed on
    /// `(prior request hash, canonical edits)`.
    #[must_use]
    pub fn submit_delta(&self, body: &str) -> Submission {
        self.submit_delta_traced(body, &TraceCtx::untraced()).0
    }

    /// [`submit_delta`](Engine::submit_delta) with the request's trace
    /// context, also returning its presentation members.
    #[must_use]
    pub fn submit_delta_traced(&self, body: &str, trace: &TraceCtx) -> (Submission, Presentation) {
        // The admission order of `submit_traced`, on the decoded body.
        let request: DeltaRequest = match decode_body(body) {
            Ok(request) => request,
            Err(bad) => return (bad, Presentation::default()),
        };
        let presentation = request.presentation();
        let (prior, prior_key, prior_hash, key) = match delta_keys(&request) {
            Ok(keys) => keys,
            Err(e) => return (Submission::BadSpec(e), presentation),
        };
        let hash = ContentHash::of(&key);
        if let Some(hit) = self.store_hit(hash, &key) {
            return (hit, presentation);
        }
        let submission = match self.resolve_delta(&request, &prior, prior_key, prior_hash) {
            Ok(work) => self.admit(body, work, hash, key, presentation.is_async, trace),
            Err(e) => Submission::BadSpec(e),
        };
        (submission, presentation)
    }

    /// Answers a request whose key the store holds at `hash`. A hit
    /// skips every build: the stored bytes were computed from this
    /// exact key.
    fn store_hit(&self, hash: ContentHash, key: &str) -> Option<Submission> {
        let output = self.store.get_at(hash, key)?;
        self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
        Some(Submission::Cached {
            id: hash.to_string(),
            output,
        })
    }

    /// The admission tail of a store miss whose work has been built:
    /// peer fill → single-flight join → bounded enqueue with
    /// write-ahead journaling → backpressure.
    fn admit(
        &self,
        body: &str,
        work: JobWork,
        hash: ContentHash,
        key: String,
        is_async: bool,
        trace: &TraceCtx,
    ) -> Submission {
        self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
        let id = hash.to_string();

        // Peer cache-fill: before scheduling locally, ask the nodes
        // that own this hash for their stored bytes. A hit is served
        // and cached exactly like a local store hit (disk persistence
        // still follows ownership); any miss or peer failure falls
        // through to local compute — never to an error.
        if let Some(cluster) = &self.cluster {
            let fill_started = Instant::now();
            let filled = cluster.fill(&id, &key, trace);
            self.metrics
                .observe_stage("peer_fill", fill_started.elapsed().as_secs_f64());
            if let Some(output) = filled {
                self.store_output(&id, &key, &output);
                // Read repair: a fill that lands on a node in the
                // owner chain just healed a replication gap.
                if cluster.stores_locally(&id) {
                    cluster.stats().read_repairs.fetch_add(1, Ordering::Relaxed);
                }
                return Submission::PeerFilled { id, output };
            }
        }

        // Single-flight: the jobs-table lock makes the check-then-insert
        // atomic, so concurrent identical submissions all land on one job.
        // It stays held across the queue push (lock order jobs → queue):
        // a job must never be visible in the table unless it is actually
        // queued, or a concurrent identical submission could join a job
        // that admission is about to discard and wait on it forever.
        let mut table = self.jobs.lock().expect("jobs lock");
        if let Some(existing) = table.map.get(&id) {
            match existing.phase() {
                JobPhase::Queued | JobPhase::Running => {
                    let job = Arc::clone(existing);
                    // An async client joining a sync-created job still
                    // expects crash durability: upgrade the job to
                    // journaled and write-ahead its acceptance now.
                    if self.journal.is_some()
                        && is_async
                        && !job.journaled.swap(true, Ordering::AcqRel)
                    {
                        self.journal_append(&Record::Accepted {
                            id: id.clone(),
                            body: body.to_owned(),
                        });
                    }
                    drop(table);
                    self.metrics.coalesced.fetch_add(1, Ordering::Relaxed);
                    return Submission::Joined { id, job };
                }
                // A finished twin's body is the canonical response for
                // this request: serve it directly. The cache lookup
                // above can legitimately miss it — the worker publishes
                // Done before the submitter's cache check lands, or the
                // entry was already evicted — and re-running instead
                // would break the at-most-once guarantee.
                JobPhase::Done(output) => {
                    drop(table);
                    self.metrics.coalesced.fetch_add(1, Ordering::Relaxed);
                    return Submission::Cached { id, output };
                }
                // A failed twin is forgotten and the request retried.
                JobPhase::Failed(_) => {
                    table.map.remove(&id);
                    table.finished.retain(|f| f != &id);
                }
            }
        }
        let journaled = self.journal.is_some() && is_async;
        let job = Arc::new(Job {
            id: id.clone(),
            key,
            journaled: AtomicBool::new(journaled),
            trace: trace.clone(),
            work: Mutex::new(Some(work)),
            state: Mutex::new(JobPhase::Queued),
            finished: Condvar::new(),
            watchers: Mutex::new(Vec::new()),
        });

        match self.queue.try_push(Arc::clone(&job)) {
            Ok(()) => {
                table.map.insert(id.clone(), Arc::clone(&job));
                // Write-ahead: the acceptance record hits the journal
                // before `Enqueued` returns — i.e. before any 202 can
                // leave the server — so a crash never acknowledges a
                // job the journal does not know about.
                if journaled {
                    self.journal_append(&Record::Accepted {
                        id: id.clone(),
                        body: body.to_owned(),
                    });
                }
                drop(table);
                self.metrics
                    .queue_depth
                    .store(self.queue.depth() as u64, Ordering::Relaxed);
                Submission::Enqueued { id, job }
            }
            Err(err) => {
                drop(table);
                match err {
                    PushError::Full => {
                        self.metrics.queue_rejected.fetch_add(1, Ordering::Relaxed);
                        self.log.event(
                            LogLevel::Warn,
                            "queue-rejected",
                            "admission queue full; submission rejected with 429",
                            &[("id", &id)],
                        );
                        Submission::Rejected
                    }
                    PushError::Closed => Submission::ShuttingDown,
                }
            }
        }
    }

    /// Looks a job up by its content-hash id.
    #[must_use]
    pub fn job(&self, id: &str) -> Option<Arc<Job>> {
        self.jobs.lock().expect("jobs lock").map.get(id).cloned()
    }

    /// Handles one `POST /v1/validate` body synchronously (validation
    /// is cheap — no queueing, no caching).
    ///
    /// # Errors
    ///
    /// `Err((status, message))` with 400 for unparseable bodies and 422
    /// for unresolvable specs; structural schedule violations are a
    /// *successful* validation with `valid: false`.
    pub fn validate(&self, body: &str) -> Result<ValidateResponse, (u16, String)> {
        let request: ValidateRequest =
            serde_json::from_str(body).map_err(|e| (400, format!("invalid request body: {e}")))?;
        let spec = PlatformSpec::parse(&request.platform, request.faults.as_deref())
            .map_err(|e| (422, e))?;
        let graph = TaskGraph::from_value(&request.graph)
            .map_err(|e| (422, format!("invalid graph: {e}")))?;
        let platform = spec.build_for(graph.pe_count()).map_err(|e| (422, e))?;
        let schedule = noc_schedule::Schedule::from_value(&request.schedule)
            .map_err(|e| (422, format!("invalid schedule: {e}")))?;
        Ok(match noc_schedule::validate(&schedule, &graph, &platform) {
            Ok(report) => ValidateResponse::ok(&report),
            Err(e) => ValidateResponse::invalid(e.to_string()),
        })
    }

    /// Runs jobs until the queue is closed and drained. Spawn one
    /// thread per scheduling worker on this.
    pub fn worker_loop(&self) {
        while let Some(job) = self.queue.pop_blocking() {
            self.metrics
                .queue_depth
                .store(self.queue.depth() as u64, Ordering::Relaxed);
            self.run_job(&job);
        }
    }

    fn run_job(&self, job: &Job) {
        let Some(work) = job.work.lock().expect("job lock").take() else {
            return; // already executed (double enqueue cannot happen, but stay safe)
        };
        job.set_phase(JobPhase::Running);
        self.metrics.jobs_inflight.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        // Panic isolation: a panicking scheduler fails *this* job with a
        // typed error; the worker thread survives to run the next one.
        let result = catch_unwind(AssertUnwindSafe(|| self.execute(&work)));
        let elapsed = started.elapsed().as_secs_f64();
        let compute_outcome = match &result {
            Ok(Ok(_)) => "ok",
            Ok(Err(_)) => "failed",
            Err(_) => "panic",
        };
        self.recorder.record(
            &self.recorder.child(&job.trace),
            "compute",
            compute_outcome,
            span_us(started),
        );
        self.metrics.jobs_inflight.fetch_sub(1, Ordering::Relaxed);
        let journaled = job.journaled.load(Ordering::Acquire);
        let phase = match result {
            Ok(Ok(output)) => {
                self.metrics
                    .schedules_executed
                    .fetch_add(1, Ordering::Relaxed);
                if output.degraded {
                    self.metrics.degraded.fetch_add(1, Ordering::Relaxed);
                    self.log.event(
                        LogLevel::Warn,
                        "degraded-schedule",
                        "compute budget expired; served the EDF fallback schedule",
                        &[("id", &job.id)],
                    );
                }
                self.metrics.observe_latency(elapsed);
                let write_started = Instant::now();
                let durable = self.store_output(&job.id, &job.key, &output);
                self.recorder.record(
                    &self.recorder.child(&job.trace),
                    "store_write",
                    if durable { "durable" } else { "memory" },
                    span_us(write_started),
                );
                if let Some(cluster) = &self.cluster {
                    cluster.replicate(&job.id, &job.key, &output, &job.trace);
                }
                if journaled {
                    // With the bytes durable in the store, the journal
                    // records only the completion fact — replay
                    // resolves the body from the store, and compaction
                    // keeps the journal bounded.
                    let record = if durable {
                        Record::DoneStored {
                            id: job.id.clone(),
                            degraded: output.degraded,
                        }
                    } else {
                        Record::Done {
                            id: job.id.clone(),
                            degraded: output.degraded,
                            body: output.body.as_str().to_owned(),
                        }
                    };
                    let append_started = Instant::now();
                    self.journal_append(&record);
                    self.recorder.record(
                        &self.recorder.child(&job.trace),
                        "journal_append",
                        if durable { "done-stored" } else { "done" },
                        span_us(append_started),
                    );
                }
                JobPhase::Done(output)
            }
            Ok(Err(message)) => {
                self.metrics.schedule_errors.fetch_add(1, Ordering::Relaxed);
                if journaled {
                    self.journal_append(&Record::Failed {
                        id: job.id.clone(),
                        error: message.clone(),
                    });
                }
                JobPhase::Failed(message)
            }
            Err(payload) => {
                let message = format!(
                    "scheduler worker panicked: {}",
                    noc_par::WorkerPanic::from_payload(payload).message
                );
                self.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
                self.metrics.schedule_errors.fetch_add(1, Ordering::Relaxed);
                if journaled {
                    self.journal_append(&Record::Failed {
                        id: job.id.clone(),
                        error: message.clone(),
                    });
                }
                JobPhase::Failed(message)
            }
        };
        job.set_phase(phase);
        self.retire(&job.id);
    }

    /// Runs the scheduler under the configured compute budget. A budget
    /// interrupt is answered by the energy-blind EDF fallback — a fast
    /// polynomial schedule marked `"degraded": true` — so an expired
    /// budget degrades quality instead of failing the request.
    ///
    /// Every run is traced into a [`SummarySink`], which folds each
    /// event into the job's [`TraceSummary`] as it arrives and reads
    /// the clock only at stage boundaries. The summary feeds the
    /// `noc_svc_stage_seconds` histograms and the per-job stats block,
    /// while the schedule itself stays byte-identical to an untraced
    /// run: tracing only observes.
    fn execute(&self, work: &JobWork) -> Result<JobOutput, String> {
        match work {
            JobWork::Schedule {
                graph,
                platform,
                scheduler,
                scheduler_name,
            } => self.execute_schedule(graph, platform, scheduler.as_ref(), scheduler_name),
            JobWork::Delta { .. } => self.execute_delta(work),
        }
    }

    fn execute_schedule(
        &self,
        graph: &TaskGraph,
        platform: &Platform,
        scheduler: &(dyn Scheduler + Send + Sync),
        scheduler_name: &str,
    ) -> Result<JobOutput, String> {
        let mut sink = SummarySink::new();
        match scheduler.schedule_traced(graph, platform, &self.budget(), &mut sink) {
            Ok(outcome) => {
                let response = ScheduleResponse::from_outcome(scheduler_name, &outcome);
                Ok(self.render_with_stats(&sink.into_summary(), response.to_json()))
            }
            Err(SchedulerError::Interrupted | SchedulerError::BudgetExhausted(_))
                if self.config.budget_ms.is_some() =>
            {
                edf_fallback(graph, platform, |response| response.to_json())
            }
            Err(e) => Err(e.to_string()),
        }
    }

    /// The configured compute budget for one run.
    fn budget(&self) -> ComputeBudget {
        match self.config.budget_ms {
            None => ComputeBudget::unlimited(),
            Some(ms) => ComputeBudget::wall_clock(Duration::from_millis(ms)),
        }
    }

    /// Runs one delta job: obtain the prior schedule (from the cache
    /// when the prior request's result is there and not degraded,
    /// recomputing it otherwise — both paths yield byte-identical prior
    /// schedules, so the delta answer never depends on cache luck),
    /// then warm-start repair under the edits via
    /// [`repair_from_traced`]. A budget interrupt degrades to EDF on
    /// the *edited* problem, exactly like plain scheduling.
    fn execute_delta(&self, work: &JobWork) -> Result<JobOutput, String> {
        let JobWork::Delta {
            prior_graph,
            prior_platform,
            prior_scheduler,
            prior_scheduler_name,
            prior_key,
            prior_hash,
            platform,
            applied,
        } = work
        else {
            unreachable!("execute_delta is only called on delta work");
        };
        // Warm-start source: the prior request's stored response —
        // memory LRU first, then the persistent disk tier, so priors
        // resolve even after a restart or an LRU eviction. A degraded
        // (EDF-fallback) entry is ignored — warm-starting from it
        // would make the answer depend on *when* the prior ran, so
        // the prior is recomputed in full instead.
        let cached = self
            .store
            .get_at(*prior_hash, prior_key)
            .filter(|output| !output.degraded);
        let prior_schedule = match cached {
            Some(output) => {
                self.metrics
                    .delta_prior_hits
                    .fetch_add(1, Ordering::Relaxed);
                ScheduleResponse::from_value(
                    &serde_json::from_str(output.body.as_str())
                        .map_err(|e| format!("cached prior body unparseable: {e}"))?,
                )
                .map_err(|e| format!("cached prior body unparseable: {e}"))?
                .schedule
            }
            None => {
                let outcome = prior_scheduler
                    .schedule(prior_graph, prior_platform)
                    .map_err(|e| format!("prior schedule failed: {e}"))?;
                // Populate the store so the prior request itself (and
                // the next delta against it) is served without work.
                let response = ScheduleResponse::from_outcome(prior_scheduler_name, &outcome);
                self.store_output(
                    &prior_hash.to_string(),
                    prior_key,
                    &JobOutput::new(Arc::new(response.to_json())),
                );
                outcome.schedule
            }
        };

        let mut sink = SummarySink::new();
        let result = repair_from_traced(
            prior_graph,
            &prior_schedule,
            platform,
            applied,
            &self.budget(),
            &mut sink,
        );
        match result {
            Ok(delta) => {
                if delta.warm_start {
                    self.metrics.delta_warm.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.metrics.delta_fallback.fetch_add(1, Ordering::Relaxed);
                }
                let response = DeltaResponse::from_outcome(&delta);
                Ok(self.render_with_stats(&sink.into_summary(), response.to_json()))
            }
            Err(SchedulerError::Interrupted | SchedulerError::BudgetExhausted(_))
                if self.config.budget_ms.is_some() =>
            {
                self.metrics.delta_fallback.fetch_add(1, Ordering::Relaxed);
                edf_fallback(&applied.graph, platform, |result| {
                    DeltaResponse {
                        warm_start: false,
                        reason: "budget-exhausted".to_owned(),
                        edits: applied.edits.len(),
                        mask_tasks: 0,
                        result,
                    }
                    .to_json()
                })
            }
            Err(e) => Err(e.to_string()),
        }
    }

    /// Renders a finished body with the producing run's stats block
    /// riding alongside (never inside) it, and feeds the per-stage
    /// histograms.
    fn render_with_stats(&self, summary: &TraceSummary, body: String) -> JobOutput {
        for (stage, micros) in &summary.stage_micros {
            #[allow(clippy::cast_precision_loss)]
            self.metrics
                .observe_stage(stage, *micros as f64 / 1_000_000.0);
        }
        let stats = serde_json::to_string(summary).expect("serialization is infallible");
        let mut output = JobOutput::new(Arc::new(body));
        output.stats = Some(Arc::new(stats));
        output
    }

    /// Appends to the journal when one is configured. Append failures
    /// are logged, not fatal: a full disk degrades crash durability,
    /// never availability.
    fn journal_append(&self, record: &Record) {
        if let Some(journal) = &self.journal {
            if let Err(e) = journal.append(record) {
                self.log.event(
                    LogLevel::Error,
                    "journal-append-failed",
                    &format!("journal append failed: {e}"),
                    &[],
                );
            }
        }
    }

    /// Records `id` as finished and prunes the oldest finished jobs
    /// past the retention bound.
    fn retire(&self, id: &str) {
        let mut table = self.jobs.lock().expect("jobs lock");
        table.finished.push_back(id.to_owned());
        table.prune();
    }

    /// Closes the queue: pending submissions fail with
    /// [`Submission::ShuttingDown`], workers drain the backlog and
    /// exit. In cluster mode the replicator drains its backlog and
    /// stops too.
    pub fn shutdown(&self) {
        self.queue.close();
        if let Some(cluster) = &self.cluster {
            cluster.shutdown();
        }
    }

    /// The cluster layer, when this node runs in multi-node mode.
    #[must_use]
    pub fn cluster(&self) -> Option<&Cluster> {
        self.cluster.as_ref()
    }

    /// Stores a finished output at its id's content hash: the memory
    /// tier always, the disk tier only when this node owns or
    /// replicates the hash (every node in single-node mode). Returns
    /// disk durability.
    fn store_output(&self, id: &str, key: &str, output: &JobOutput) -> bool {
        // Every id is a rendered content hash, so this never fails.
        let Some(hash) = ContentHash::parse(id) else {
            return false;
        };
        let write_disk = self
            .cluster
            .as_ref()
            .is_none_or(|cluster| cluster.stores_locally(id));
        self.store.insert_at(hash, key, output, write_disk)
    }

    /// Serves one internal `GET /v1/internal/lookup/<hash>`: resolves
    /// the 32-hex content hash to the stored record, memory tier first,
    /// then disk. Both tiers are addressed by the hash itself, and the
    /// record's key must hash back to it, so a collision can never
    /// leak another request's bytes.
    #[must_use]
    pub fn internal_lookup(&self, hash: &str) -> Option<(String, JobOutput)> {
        let resolved = self.lookup_record(hash)?;
        if let Some(cluster) = &self.cluster {
            cluster
                .stats()
                .lookups_served
                .fetch_add(1, Ordering::Relaxed);
        }
        Some(resolved)
    }

    /// Resolves a 32-hex content hash to its stored record without
    /// touching the peer-lookup counters — shared by the internal
    /// lookup endpoint, the anti-entropy sweep and journal replay.
    fn lookup_record(&self, id: &str) -> Option<(String, JobOutput)> {
        self.store.get_by_id(ContentHash::parse(id)?)
    }

    /// The record ids this node *durably* holds — the body of
    /// `GET /v1/internal/digest`, i.e. what peers may rely on when
    /// deciding whether this node needs a record re-replicated. With
    /// a healthy disk tier that is the disk index (anti-entropy's
    /// convergence target); memory-only nodes report LRU-resident
    /// records instead.
    #[must_use]
    pub fn digest_ids(&self) -> Vec<String> {
        ids_of(match self.store.disk() {
            Some(disk) if !disk.is_degraded() => disk.indexed(),
            _ => self.store.memory_hashes(),
        })
    }

    /// Every id this node can push during anti-entropy: the disk tier
    /// plus memory-resident records — a node may hold bytes it does
    /// not own on disk (e.g. computed during a partition) and must
    /// still be able to push them to their owners.
    fn replicable_ids(&self) -> Vec<String> {
        let mut hashes = self.store.disk().map_or_else(Vec::new, Store::indexed);
        hashes.extend(self.store.memory_hashes());
        ids_of(hashes)
    }

    /// Applies one internal `POST /v1/internal/record/<hash>` body: a
    /// peer's [`RecordEnvelope`] whose canonical key must hash to the
    /// addressed id. The record is persisted like a locally computed
    /// one (ownership-aware), making this node able to serve the
    /// exact bytes after the computing node dies.
    ///
    /// # Errors
    ///
    /// A message describing why the envelope was rejected; the server
    /// answers it as a 400.
    pub fn apply_replica(&self, hash: &str, body: &str) -> Result<(), String> {
        let envelope: RecordEnvelope =
            serde_json::from_str(body).map_err(|e| format!("invalid record envelope: {e}"))?;
        if crate::hash::content_hash(&envelope.key) != hash {
            return Err("envelope key does not hash to the addressed id".to_owned());
        }
        let key = envelope.key.clone();
        let output = envelope.into_output();
        self.store_output(hash, &key, &output);
        if let Some(cluster) = &self.cluster {
            cluster
                .stats()
                .replication_received
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Jobs currently waiting in the queue.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// `true` when a persistent store was configured but its disk tier
    /// is out of service — the condition the server advertises with
    /// the `Store-Degraded: memory-only` response header.
    #[must_use]
    pub fn store_degraded(&self) -> bool {
        self.store.degraded()
    }
}

impl RecordSource for Engine {
    fn held_ids(&self) -> Vec<String> {
        self.replicable_ids()
    }

    fn fetch(&self, id: &str) -> Option<(String, JobOutput)> {
        self.lookup_record(id)
    }
}

/// The answer to a run its compute budget interrupted: the EDF
/// schedule of the same problem, labelled truthfully as `edf` and
/// marked `"degraded": true`, whatever was asked for. `render` wraps
/// that schedule response into the final body. The interrupted run's
/// half-finished trace is dropped, so there is no stats block.
fn edf_fallback(
    graph: &TaskGraph,
    platform: &Platform,
    render: impl FnOnce(ScheduleResponse) -> String,
) -> Result<JobOutput, String> {
    let outcome = EdfScheduler::new()
        .schedule(graph, platform)
        .map_err(|e| format!("degraded EDF fallback failed: {e}"))?;
    let mut response = ScheduleResponse::from_outcome("edf", &outcome);
    response.degraded = true;
    Ok(JobOutput {
        body: Arc::new(render(response)),
        degraded: true,
        stats: None,
    })
}

/// Renders content hashes as sorted, distinct 32-hex ids.
fn ids_of(mut hashes: Vec<ContentHash>) -> Vec<String> {
    hashes.sort_unstable();
    hashes.dedup();
    hashes.iter().map(ContentHash::to_string).collect()
}

/// The keys of a delta request: its parsed prior request, the prior's
/// canonical key and content hash, and the delta's own key.
fn delta_keys(
    request: &DeltaRequest,
) -> Result<(ScheduleRequest, String, ContentHash, String), String> {
    let prior = request.prior_request()?;
    let prior_key = prior.canonical_key();
    let prior_hash = ContentHash::of(&prior_key);
    let key = request.canonical_key_for(&prior_hash.to_string());
    Ok((prior, prior_key, prior_hash, key))
}

/// Re-derives the cache key of a journaled request body (either
/// shape), sniffing the `"prior"` field only delta requests carry.
fn journaled_key(body: &str) -> Option<String> {
    let value: Value = serde_json::from_str(body).ok()?;
    if value.as_object().is_some_and(|o| o.get("prior").is_some()) {
        let request = DeltaRequest::from_value(&value).ok()?;
        let prior = request.prior_request().ok()?;
        Some(request.canonical_key(&prior))
    } else {
        let request = ScheduleRequest::from_value(&value).ok()?;
        Some(request.canonical_key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_json() -> String {
        let platform = crate::spec::parse_platform("mesh:2x2").expect("platform");
        let cfg = noc_ctg::prelude::TgffConfig::category_i(7);
        let mut cfg = cfg;
        cfg.task_count = 8;
        let graph = noc_ctg::prelude::TgffGenerator::new(cfg)
            .generate(&platform)
            .expect("generates");
        serde_json::to_string(&graph).expect("serializes")
    }

    fn request_body(graph: &str) -> String {
        format!(r#"{{"graph":{graph},"platform":"mesh:2x2","scheduler":"edf"}}"#)
    }

    fn engine(config: EngineConfig) -> Arc<Engine> {
        Engine::new(config).expect("engine starts")
    }

    /// Runs the queued backlog inline (tests spawn no worker threads).
    fn drain(engine: &Arc<Engine>) {
        let worker = Arc::clone(engine);
        let handle = std::thread::spawn(move || {
            worker.shutdown();
            worker.worker_loop();
        });
        handle.join().expect("worker exits");
    }

    #[test]
    fn submit_run_cache_round_trip() {
        let engine = engine(EngineConfig::default());
        let body = request_body(&graph_json());

        let Submission::Enqueued { id, job } = engine.submit(&body) else {
            panic!("first submission must enqueue");
        };
        drain(&engine);
        let JobPhase::Done(first) = job.wait() else {
            panic!("job must finish");
        };

        // Second submission: byte-identical body straight from cache.
        let Submission::Cached {
            id: id2,
            output: cached,
        } = engine.submit(&body)
        else {
            panic!("second submission must hit the cache");
        };
        assert_eq!(id, id2);
        assert_eq!(
            *first.body, *cached.body,
            "cache hit must be byte-identical"
        );
        assert!(!cached.degraded);
        assert_eq!(engine.metrics.cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(engine.metrics.schedules_executed.load(Ordering::Relaxed), 1);
        assert!(engine.job(&id).is_some(), "finished job stays pollable");
    }

    #[test]
    fn executed_jobs_carry_stats_and_feed_stage_histograms() {
        let engine = engine(EngineConfig::default());
        let graph = graph_json();
        let body = format!(r#"{{"graph":{graph},"platform":"mesh:2x2","scheduler":"eas"}}"#);
        let Submission::Enqueued { job, .. } = engine.submit(&body) else {
            panic!("submission must enqueue");
        };
        drain(&engine);
        let JobPhase::Done(output) = job.wait() else {
            panic!("job must finish");
        };
        let stats = output.stats.as_ref().expect("executed jobs carry stats");
        assert!(stats.contains("\"stage_micros\""), "stats is the summary");
        assert!(
            !output.body.contains("stage_micros"),
            "stats ride alongside the body, never inside it"
        );
        let text = engine.metrics.render();
        assert!(text.contains("noc_svc_stage_seconds_count{stage=\"level\"}"));
        assert!(text.contains("noc_svc_stage_seconds_count{stage=\"budgeting\"}"));
        assert!(
            text.contains("noc_svc_jobs_inflight 0"),
            "inflight gauge returns to zero after the job"
        );

        // The cache hit reproduces the producing run's stats.
        let Submission::Cached { output: hit, .. } = engine.submit(&body) else {
            panic!("second submission must hit the cache");
        };
        assert_eq!(
            hit.stats.as_deref(),
            output.stats.as_deref(),
            "cached hits serve the producing run's stats"
        );
    }

    #[test]
    fn identical_concurrent_submissions_coalesce() {
        let engine = engine(EngineConfig::default());
        let body = request_body(&graph_json());
        let Submission::Enqueued { job, .. } = engine.submit(&body) else {
            panic!("first submission must enqueue");
        };
        let Submission::Joined { job: joined, .. } = engine.submit(&body) else {
            panic!("identical submission must join, not re-enqueue");
        };
        assert!(Arc::ptr_eq(&job, &joined));
        assert_eq!(engine.metrics.coalesced.load(Ordering::Relaxed), 1);
        assert_eq!(engine.queue_depth(), 1, "one job queued, not two");
    }

    #[test]
    fn full_queue_rejects() {
        let engine = engine(EngineConfig {
            queue_capacity: 1,
            ..EngineConfig::default()
        });
        let graph = graph_json();
        let a = format!(r#"{{"graph":{graph},"platform":"mesh:2x2","scheduler":"edf"}}"#);
        let b = format!(r#"{{"graph":{graph},"platform":"mesh:2x2","scheduler":"dls"}}"#);
        assert!(matches!(engine.submit(&a), Submission::Enqueued { .. }));
        assert!(matches!(engine.submit(&b), Submission::Rejected));
        assert_eq!(engine.metrics.queue_rejected.load(Ordering::Relaxed), 1);
        // A rejected job must never have been visible in the table: an
        // identical resubmission is rejected again (never joined to a
        // ghost that no worker will ever run), and after drain it would
        // re-enqueue.
        assert!(matches!(engine.submit(&b), Submission::Rejected));
        assert_eq!(engine.jobs.lock().expect("jobs lock").map.len(), 1);
    }

    #[test]
    fn bad_bodies_and_specs_classify() {
        let engine = engine(EngineConfig::default());
        assert!(matches!(
            engine.submit("not json"),
            Submission::BadRequest(_)
        ));
        assert!(matches!(
            engine.submit(r#"{"graph":{},"platform":"ring:9x9"}"#),
            Submission::BadSpec(_)
        ));
        let graph = graph_json();
        assert!(matches!(
            engine.submit(&format!(
                r#"{{"graph":{graph},"platform":"mesh:2x2","scheduler":"magic"}}"#
            )),
            Submission::BadSpec(_)
        ));
        assert_eq!(
            engine.metrics.cache_misses.load(Ordering::Relaxed),
            0,
            "rejected submissions never touch the cache"
        );
    }

    #[test]
    fn shutdown_refuses_new_work() {
        let engine = engine(EngineConfig::default());
        engine.shutdown();
        let body = request_body(&graph_json());
        assert!(matches!(engine.submit(&body), Submission::ShuttingDown));
    }

    #[test]
    fn validate_endpoint_classifies() {
        let engine = engine(EngineConfig::default());
        assert_eq!(engine.validate("nope").unwrap_err().0, 400);
        let graph = graph_json();
        let err = engine
            .validate(&format!(
                r#"{{"graph":{graph},"platform":"mesh:2x2","schedule":{{}}}}"#
            ))
            .unwrap_err();
        assert_eq!(err.0, 422);
    }

    #[test]
    fn expired_budget_degrades_to_edf() {
        let engine = engine(EngineConfig {
            budget_ms: Some(0),
            ..EngineConfig::default()
        });
        let graph = graph_json();
        let body = format!(r#"{{"graph":{graph},"platform":"mesh:2x2","scheduler":"eas"}}"#);
        let Submission::Enqueued { job, .. } = engine.submit(&body) else {
            panic!("submission must enqueue");
        };
        drain(&engine);
        let JobPhase::Done(output) = job.wait() else {
            panic!("an expired budget must degrade, never fail");
        };
        assert!(output.degraded);
        assert!(output.body.contains(r#""degraded":true"#));
        assert!(
            output.body.contains(r#""scheduler":"edf""#),
            "the fallback is labelled truthfully"
        );
        assert!(output.stats.is_none(), "an interrupted run has no stats");
        assert_eq!(engine.metrics.degraded.load(Ordering::Relaxed), 1);
        assert_eq!(engine.metrics.schedule_errors.load(Ordering::Relaxed), 0);

        // The cached degraded answer keeps its flag.
        let Submission::Cached { output: hit, .. } = engine.submit(&body) else {
            panic!("second submission must hit the cache");
        };
        assert!(hit.degraded);
        assert_eq!(*hit.body, *output.body);
    }

    #[test]
    fn panicking_scheduler_fails_only_its_own_job() {
        let eng = engine(EngineConfig::default());
        let graph = graph_json();
        let poison =
            format!(r#"{{"graph":{graph},"platform":"mesh:2x2","scheduler":"chaos-panic"}}"#);
        let healthy = request_body(&graph);
        let Submission::Enqueued { job: bad, .. } = eng.submit(&poison) else {
            panic!("poison submission must enqueue");
        };
        let Submission::Enqueued { job: good, .. } = eng.submit(&healthy) else {
            panic!("healthy submission must enqueue");
        };
        // One worker loop runs both jobs back to back: it must survive
        // the first job's panic to finish the second.
        drain(&eng);
        let JobPhase::Failed(msg) = bad.wait() else {
            panic!("poison job must fail, not hang or kill the worker");
        };
        assert!(msg.contains("panicked"), "typed panic error, got `{msg}`");
        assert!(matches!(good.wait(), JobPhase::Done(_)));
        assert_eq!(eng.metrics.worker_panics.load(Ordering::Relaxed), 1);
        assert_eq!(eng.metrics.schedule_errors.load(Ordering::Relaxed), 1);
        assert_eq!(eng.metrics.schedules_executed.load(Ordering::Relaxed), 1);
    }

    fn delta_body(graph: &str, edits: &str) -> String {
        format!(
            r#"{{"prior":{{"graph":{graph},"platform":"mesh:2x2","scheduler":"eas"}},"edits":{edits}}}"#
        )
    }

    #[test]
    fn delta_round_trip_and_cache() {
        let engine = engine(EngineConfig::default());
        let body = delta_body(&graph_json(), r#"[{"SetDeadline":{"task":0}}]"#);
        let Submission::Enqueued { id, job } = engine.submit_delta(&body) else {
            panic!("first delta must enqueue");
        };
        drain(&engine);
        let JobPhase::Done(first) = job.wait() else {
            panic!("delta job must finish");
        };
        assert!(first.body.contains(r#""warm_start""#));
        assert!(first.body.contains(r#""reason""#));
        let Submission::Cached {
            id: id2,
            output: hit,
        } = engine.submit_delta(&body)
        else {
            panic!("second delta must hit the cache");
        };
        assert_eq!(id, id2);
        assert_eq!(*first.body, *hit.body, "delta cache hit is byte-identical");
        assert_eq!(
            engine.metrics.delta_warm.load(Ordering::Relaxed)
                + engine.metrics.delta_fallback.load(Ordering::Relaxed),
            1,
            "exactly one delta decision was made"
        );
    }

    #[test]
    fn delta_bytes_do_not_depend_on_prior_cache_state() {
        let graph = graph_json();
        let prior_body = format!(r#"{{"graph":{graph},"platform":"mesh:2x2","scheduler":"eas"}}"#);
        let delta = delta_body(&graph, r#"[{"SetDeadline":{"task":1}}]"#);

        // Cold engine: the prior is recomputed inside the delta job.
        let cold = engine(EngineConfig::default());
        let Submission::Enqueued { job, .. } = cold.submit_delta(&delta) else {
            panic!("delta must enqueue");
        };
        drain(&cold);
        let JobPhase::Done(cold_out) = job.wait() else {
            panic!("delta job must finish");
        };
        assert_eq!(cold.metrics.delta_prior_hits.load(Ordering::Relaxed), 0);

        // Warm engine: the prior job runs first (FIFO), so its schedule
        // is cached by the time the delta job executes.
        let warm = engine(EngineConfig::default());
        let Submission::Enqueued { job: prior_job, .. } = warm.submit(&prior_body) else {
            panic!("prior must enqueue");
        };
        let Submission::Enqueued { job, .. } = warm.submit_delta(&delta) else {
            panic!("delta must enqueue");
        };
        drain(&warm);
        assert!(matches!(prior_job.wait(), JobPhase::Done(_)));
        let JobPhase::Done(warm_out) = job.wait() else {
            panic!("delta job must finish");
        };
        assert_eq!(warm.metrics.delta_prior_hits.load(Ordering::Relaxed), 1);
        assert_eq!(
            *cold_out.body, *warm_out.body,
            "delta answers must not depend on cache luck"
        );
    }

    /// The degraded delta answer for [`graph_json`] under an 8-edit
    /// storm: EDF on the edited graph, wrapped as a budget-exhausted
    /// fallback.
    const DEGRADED_DELTA_BODY: &str = r#"{"warm_start":false,"reason":"budget-exhausted","edits":8,"mask_tasks":0,"result":{"scheduler":"edf","energy_nj":2816.5652283279246,"computation_nj":2479.4930283279245,"communication_nj":337.0722,"makespan":717,"deadline_misses":0,"tardiness":0,"meets_deadlines":true,"avg_hops":1.3076923076923077,"degraded":true,"schedule":{"tasks":[{"pe":0,"start":0,"finish":55},{"pe":0,"start":55,"finish":119},{"pe":0,"start":119,"finish":280},{"pe":0,"start":280,"finish":439},{"pe":3,"start":329,"finish":604},{"pe":0,"start":439,"finish":494},{"pe":0,"start":494,"finish":567},{"pe":0,"start":567,"finish":717}],"comms":[{"route":[],"start":55,"finish":55},{"route":[],"start":55,"finish":55},{"route":[],"start":55,"finish":55},{"route":[],"start":55,"finish":55},{"route":[],"start":55,"finish":55},{"route":[],"start":55,"finish":55},{"route":[],"start":119,"finish":119},{"route":[],"start":119,"finish":119},{"route":[0,3],"start":119,"finish":262},{"route":[],"start":119,"finish":119},{"route":[],"start":280,"finish":280},{"route":[0,3],"start":280,"finish":329},{"route":[],"start":280,"finish":280},{"route":[],"start":280,"finish":280},{"route":[],"start":439,"finish":439},{"route":[],"start":567,"finish":567}]}}}"#;

    #[test]
    fn expired_budget_degrades_delta_to_edf() {
        let engine = engine(EngineConfig {
            budget_ms: Some(0),
            ..EngineConfig::default()
        });
        // An edit storm (a deadline edit on every task) rejects the warm
        // start, so the full EAS reschedule polls the expired budget.
        let storm: Vec<String> = (0..8)
            .map(|t| format!(r#"{{"SetDeadline":{{"task":{t}}}}}"#))
            .collect();
        let body = delta_body(&graph_json(), &format!("[{}]", storm.join(",")));
        let Submission::Enqueued { job, .. } = engine.submit_delta(&body) else {
            panic!("delta must enqueue");
        };
        drain(&engine);
        let JobPhase::Done(output) = job.wait() else {
            panic!("an expired budget must degrade a delta, never fail it");
        };
        assert!(output.degraded);
        assert!(output.body.starts_with(
            r#"{"warm_start":false,"reason":"budget-exhausted","edits":8,"mask_tasks":0,"result":{"scheduler":"edf","#
        ));
        assert!(output.body.contains(r#""degraded":true"#));
        assert_eq!(*output.body, DEGRADED_DELTA_BODY);
        assert!(output.stats.is_none(), "an interrupted run has no stats");
        assert_eq!(engine.metrics.delta_fallback.load(Ordering::Relaxed), 1);
        assert_eq!(engine.metrics.degraded.load(Ordering::Relaxed), 1);
        assert_eq!(engine.metrics.delta_warm.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn delta_bad_bodies_classify() {
        let engine = engine(EngineConfig::default());
        assert!(matches!(
            engine.submit_delta("not json"),
            Submission::BadRequest(_)
        ));
        let graph = graph_json();
        // An edit addressing a task the prior graph does not have.
        let body = delta_body(&graph, r#"[{"SetDeadline":{"task":999}}]"#);
        assert!(matches!(engine.submit_delta(&body), Submission::BadSpec(_)));
        // A platform edit that cannot be represented.
        let bad_edits = r#"[{"FailPe":{"pe":999}}]"#;
        assert!(matches!(
            engine.submit_delta(&delta_body(&graph, bad_edits)),
            Submission::BadSpec(_)
        ));
    }

    #[test]
    fn delta_journal_replay_is_byte_identical() {
        let path =
            std::env::temp_dir().join(format!("noc-engine-journal-{}-delta", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let journal_cfg = EngineConfig {
            journal: Some(path.to_string_lossy().into_owned()),
            ..EngineConfig::default()
        };
        let graph = graph_json();
        let body = format!(
            r#"{{"prior":{{"graph":{graph},"platform":"mesh:2x2","scheduler":"eas"}},"edits":[{{"SetDeadline":{{"task":0}}}}],"mode":"async"}}"#
        );

        // Reference answer from a journal-free engine.
        let reference = engine(EngineConfig::default());
        let Submission::Enqueued { job, .. } = reference.submit_delta(&body) else {
            panic!("reference delta must enqueue");
        };
        drain(&reference);
        let JobPhase::Done(expected) = job.wait() else {
            panic!("reference delta must finish");
        };

        // "Crash": accept the async delta, never run it.
        let crashed = engine(journal_cfg.clone());
        let Submission::Enqueued { id, .. } = crashed.submit_delta(&body) else {
            panic!("delta must enqueue");
        };
        drop(crashed);

        // Restart: the delta is re-enqueued from the journal and its
        // answer matches the reference byte for byte.
        let restarted = engine(journal_cfg);
        assert_eq!(
            restarted.metrics.journal_replayed.load(Ordering::Relaxed),
            1
        );
        drain(&restarted);
        let JobPhase::Done(done) = restarted.job(&id).expect("job survives restart").wait() else {
            panic!("recovered delta must finish");
        };
        assert_eq!(
            *done.body, *expected.body,
            "delta recovery must be byte-identical"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_replays_unfinished_and_finished_jobs() {
        let path =
            std::env::temp_dir().join(format!("noc-engine-journal-{}-replay", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let journal_cfg = EngineConfig {
            journal: Some(path.to_string_lossy().into_owned()),
            ..EngineConfig::default()
        };
        let graph = graph_json();
        let body_a = format!(
            r#"{{"graph":{graph},"platform":"mesh:2x2","scheduler":"edf","mode":"async"}}"#
        );
        let body_b = format!(
            r#"{{"graph":{graph},"platform":"mesh:2x2","scheduler":"dls","mode":"async"}}"#
        );

        // A reference run with no journal: what the crashed server owed.
        let reference = engine(EngineConfig::default());
        let Submission::Enqueued { job, .. } = reference.submit(&body_a) else {
            panic!("reference submission must enqueue");
        };
        drain(&reference);
        let JobPhase::Done(expected_a) = job.wait() else {
            panic!("reference job must finish");
        };

        // "Crash": accept two async jobs, never run them, drop the engine.
        let crashed = engine(journal_cfg.clone());
        let Submission::Enqueued { id: id_a, .. } = crashed.submit(&body_a) else {
            panic!("submission must enqueue");
        };
        let Submission::Enqueued { id: id_b, .. } = crashed.submit(&body_b) else {
            panic!("submission must enqueue");
        };
        drop(crashed);

        // Restart: both accepted jobs are re-enqueued and re-run, and
        // the answers are byte-identical to the reference.
        let restarted = engine(journal_cfg.clone());
        assert_eq!(
            restarted.metrics.journal_replayed.load(Ordering::Relaxed),
            2
        );
        drain(&restarted);
        let JobPhase::Done(done_a) = restarted.job(&id_a).expect("job survives restart").wait()
        else {
            panic!("recovered job must finish");
        };
        assert_eq!(
            *done_a.body, *expected_a.body,
            "recovery must be byte-identical"
        );
        assert!(matches!(
            restarted.job(&id_b).expect("job survives restart").wait(),
            JobPhase::Done(_)
        ));
        drop(restarted);

        // Second restart: now the journal holds done records, so both
        // jobs are restored with their exact bytes without re-running,
        // and the cache answers resubmissions.
        let warm = engine(journal_cfg);
        assert_eq!(warm.metrics.journal_replayed.load(Ordering::Relaxed), 4);
        assert_eq!(warm.metrics.schedules_executed.load(Ordering::Relaxed), 0);
        let JobPhase::Done(warm_a) = warm.job(&id_a).expect("job restored").phase() else {
            panic!("restored job must be terminal");
        };
        assert_eq!(*warm_a.body, *expected_a.body);
        let Submission::Cached { output, .. } = warm.submit(&body_a) else {
            panic!("restored done record must populate the cache");
        };
        assert_eq!(*output.body, *expected_a.body);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn restored_jobs_obey_the_retention_bound() {
        let path = std::env::temp_dir().join(format!(
            "noc-engine-journal-{}-retention",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let ids: Vec<String> = (0..FINISHED_JOBS_RETAINED + 6)
            .map(|i| crate::hash::content_hash(&format!("job-{i}")))
            .collect();
        let (journal, _) = Journal::open(&path).expect("journal opens");
        for (i, id) in ids.iter().enumerate() {
            let accepted = Record::Accepted {
                id: id.clone(),
                body: "{}".to_owned(),
            };
            let done = Record::Done {
                id: id.clone(),
                degraded: false,
                body: format!("{{\"n\":{i}}}"),
            };
            journal.append(&accepted).expect("appends");
            journal.append(&done).expect("appends");
        }
        drop(journal);

        // Only the newest jobs in replay order stay pollable, exactly as
        // if they had finished live.
        let restarted = engine(EngineConfig {
            journal: Some(path.to_string_lossy().into_owned()),
            ..EngineConfig::default()
        });
        for id in &ids[..6] {
            assert!(restarted.job(id).is_none(), "job {id} outlived the bound");
        }
        for (i, id) in ids.iter().enumerate().skip(6) {
            let JobPhase::Done(output) = restarted.job(id).expect("newest jobs stay").phase()
            else {
                panic!("restored job must be terminal");
            };
            assert_eq!(*output.body, format!("{{\"n\":{i}}}"));
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Fresh per-test store directory under the OS temp dir.
    fn store_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("noc-engine-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn store_cfg(dir: &std::path::Path, journal: Option<&std::path::Path>) -> EngineConfig {
        EngineConfig {
            store_dir: Some(dir.to_string_lossy().into_owned()),
            journal: journal.map(|p| p.to_string_lossy().into_owned()),
            ..EngineConfig::default()
        }
    }

    #[test]
    fn store_backed_restart_serves_bytes_with_zero_recompute() {
        let dir = store_dir("restart");
        let cfg = store_cfg(&dir, None);
        let body = request_body(&graph_json());

        let first = engine(cfg.clone());
        let Submission::Enqueued { job, .. } = first.submit(&body) else {
            panic!("cold submission must enqueue");
        };
        drain(&first);
        let JobPhase::Done(expected) = job.wait() else {
            panic!("cold job must finish");
        };
        drop(first);

        // Restart with an empty memory tier: the disk tier answers.
        let restarted = engine(cfg);
        let Submission::Cached { output, .. } = restarted.submit(&body) else {
            panic!("restart must answer from the persistent store");
        };
        assert_eq!(
            *output.body, *expected.body,
            "store-resolved response must be byte-identical"
        );
        assert_eq!(
            restarted.metrics.schedules_executed.load(Ordering::Relaxed),
            0,
            "a store hit must not recompute"
        );
        assert!(!restarted.store_degraded());
        let text = restarted.metrics.render();
        assert!(text.contains("noc_svc_store_hits_total 1"));
        assert!(text.contains("noc_svc_store_degraded 0"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delta_prior_resolves_from_store_after_restart() {
        let dir = store_dir("delta-prior");
        let cfg = store_cfg(&dir, None);
        let graph = graph_json();
        let prior_body = format!(r#"{{"graph":{graph},"platform":"mesh:2x2","scheduler":"eas"}}"#);

        let first = engine(cfg.clone());
        let Submission::Enqueued { job, .. } = first.submit(&prior_body) else {
            panic!("prior must enqueue");
        };
        drain(&first);
        assert!(matches!(job.wait(), JobPhase::Done(_)));
        drop(first);

        // After restart the prior lives only on disk; the delta's
        // warm start must still resolve it instead of recomputing.
        let restarted = engine(cfg);
        let delta = format!(
            r#"{{"prior":{{"graph":{graph},"platform":"mesh:2x2","scheduler":"eas"}},"edits":[{{"SetDeadline":{{"task":0}}}}]}}"#
        );
        let Submission::Enqueued { job, .. } = restarted.submit_delta(&delta) else {
            panic!("delta must enqueue");
        };
        drain(&restarted);
        assert!(matches!(job.wait(), JobPhase::Done(_)));
        assert_eq!(
            restarted.metrics.delta_prior_hits.load(Ordering::Relaxed),
            1,
            "prior must be served by the disk tier after restart"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_open_failure_degrades_to_memory_only() {
        let dir = store_dir("degraded-open");
        // `store_dir` pointing at a regular file: open must fail, and
        // the engine must keep serving (memory-only) instead of dying.
        std::fs::write(&dir, b"not a directory").expect("writes decoy file");
        let degraded = engine(store_cfg(&dir, None));
        assert!(degraded.store_degraded());
        let body = request_body(&graph_json());
        let Submission::Enqueued { job, .. } = degraded.submit(&body) else {
            panic!("degraded engine must still admit jobs");
        };
        drain(&degraded);
        let JobPhase::Done(output) = job.wait() else {
            panic!("degraded engine must still schedule");
        };
        // Memory tier still serves the bytes it computed.
        let Submission::Cached { output: hit, .. } = degraded.submit(&body) else {
            panic!("memory tier must still answer");
        };
        assert_eq!(*hit.body, *output.body);
        let text = degraded.metrics.render();
        assert!(text.contains("noc_svc_store_degraded 1"));
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn journal_compaction_bounds_size_across_restarts() {
        let dir = store_dir("compact");
        let journal =
            std::env::temp_dir().join(format!("noc-engine-journal-{}-compact", std::process::id()));
        let _ = std::fs::remove_file(&journal);
        let cfg = store_cfg(&dir, Some(&journal));
        let graph = graph_json();
        // Only async admissions are journaled (the 202 is the promise
        // the journal exists to keep).
        let body = format!(
            r#"{{"graph":{graph},"platform":"mesh:2x2","scheduler":"edf","mode":"async"}}"#
        );

        let first = engine(cfg.clone());
        let Submission::Enqueued { job, .. } = first.submit(&body) else {
            panic!("submission must enqueue");
        };
        drain(&first);
        assert!(matches!(job.wait(), JobPhase::Done(_)));
        drop(first);
        let after_fill = std::fs::metadata(&journal).expect("journal exists").len();
        assert!(
            after_fill > 0,
            "journal holds accepted + done-stored records"
        );

        // Restart: the response bytes are durable in the store, so
        // compaction drops the settled records from the journal.
        let restarted = engine(cfg.clone());
        assert!(restarted.metrics.journal_compacted.load(Ordering::Relaxed) >= 2);
        drop(restarted);
        let after_compact = std::fs::metadata(&journal).expect("journal exists").len();
        assert!(
            after_compact < after_fill,
            "compaction must shrink the journal ({after_compact} vs {after_fill})"
        );

        // Further idle restarts keep it at the compacted size: the
        // journal is bounded by live work, not by restart count.
        for _ in 0..3 {
            drop(engine(cfg.clone()));
        }
        let steady = std::fs::metadata(&journal).expect("journal exists").len();
        assert!(
            steady <= after_compact,
            "idle restarts must not grow the journal"
        );
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The string fields of each `journal-replay` event in a JSONL
    /// service log, in order.
    fn replay_events(log: &std::path::Path) -> Vec<HashMap<String, String>> {
        std::fs::read_to_string(log)
            .expect("log exists")
            .lines()
            .map(|line| {
                let value: Value = serde_json::from_str(line).expect("log lines are JSON");
                let fields = value.as_object().expect("log lines are objects").iter();
                fields
                    .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_owned())))
                    .collect::<HashMap<_, _>>()
            })
            .filter(|event| event["event"] == "journal-replay")
            .collect()
    }

    #[test]
    fn done_stored_restart_resolves_jobs_by_id() {
        let dir = store_dir("done-stored");
        let tmp = |name: &str| {
            let path = std::env::temp_dir().join(format!(
                "noc-engine-{}-done-stored.{name}",
                std::process::id()
            ));
            let _ = std::fs::remove_file(&path);
            path
        };
        let (journal, pre_compaction, log) = (tmp("journal"), tmp("orig"), tmp("jsonl"));
        let cfg = EngineConfig {
            log_json: Some(log.to_string_lossy().into_owned()),
            ..store_cfg(&dir, Some(&journal))
        };
        let graph = graph_json();

        // Fill: each async job runs, lands in the store and is journaled
        // as `done-stored`, a record that carries no bytes.
        let fill = engine(cfg.clone());
        let jobs: Vec<(String, Arc<Job>)> = ["edf", "dls", "eas"]
            .iter()
            .map(|scheduler| {
                let body = format!(
                    r#"{{"graph":{graph},"platform":"mesh:2x2","scheduler":"{scheduler}","mode":"async"}}"#
                );
                let Submission::Enqueued { id, job } = fill.submit(&body) else {
                    panic!("async submission must enqueue");
                };
                (id, job)
            })
            .collect();
        drain(&fill);
        let filled: Vec<(String, Arc<String>)> = jobs
            .into_iter()
            .map(|(id, job)| {
                let JobPhase::Done(output) = job.wait() else {
                    panic!("fill job must finish");
                };
                (id, output.body)
            })
            .collect();
        drop(fill);
        std::fs::copy(&journal, &pre_compaction).expect("copies the journal");

        // Restart: every job resolves from the store by its id alone.
        let restarted = engine(cfg.clone());
        for (id, body) in &filled {
            let JobPhase::Done(output) = restarted.job(id).expect("job restored").phase() else {
                panic!("restored job must be terminal");
            };
            assert_eq!(output.body, *body, "restored bytes must match the fill");
        }
        assert_eq!(
            restarted.metrics.schedules_executed.load(Ordering::Relaxed),
            0
        );
        let text = restarted.metrics.render();
        assert!(text.contains(&format!("noc_svc_store_hits_total {}\n", filled.len())));
        drop(restarted);

        // Restart from the journal as it was before compaction, with the
        // store gone: every job re-runs to the same bytes.
        std::fs::remove_dir_all(&dir).expect("deletes the store");
        std::fs::copy(&pre_compaction, &journal).expect("restores the journal");
        let rerun = engine(cfg);
        drain(&rerun);
        for (id, body) in &filled {
            let JobPhase::Done(output) = rerun.job(id).expect("job re-admitted").wait() else {
                panic!("re-run job must finish");
            };
            assert_eq!(output.body, *body, "re-run bytes must match the fill");
        }
        assert_eq!(
            rerun.metrics.schedules_executed.load(Ordering::Relaxed),
            filled.len() as u64
        );
        drop(rerun);

        // The log says how long each restart took and how its jobs came
        // back.
        let events = replay_events(&log);
        assert_eq!(events.len(), 2, "one journal-replay event per restart");
        for (event, from_store, rerun) in [(&events[0], "3", "0"), (&events[1], "0", "3")] {
            assert_eq!(event["records"], "6");
            assert_eq!(event["from_store"], from_store);
            assert_eq!(event["rerun"], rerun);
            let recovery_ms = event["recovery_ms"].parse::<f64>();
            assert!(recovery_ms.is_ok_and(|ms| ms >= 0.0), "{event:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
        for path in [&journal, &pre_compaction, &log] {
            let _ = std::fs::remove_file(path);
        }
    }
}

//! The scheduling engine behind the HTTP surface: request admission,
//! single-flight deduplication, the bounded job queue, the
//! content-addressed response cache and the scheduler workers.
//!
//! Both scheduling endpoints enter through one [`Engine::submit`], told
//! the [`RequestKind`]. Admission order is fixed and lock-disciplined
//! (lock order is always jobs → queue, and the cache lock is never held
//! with either): canonical key → store lookup → decode → build graph,
//! platform and scheduler, and for a delta its prior's with the edits
//! applied (422 on failure) → peer fill → join an identical in-flight
//! job → enqueue a new one → reject with backpressure. A schedule
//! request's key is written in one pass over its bytes, so a store hit
//! costs that pass and a hash, and builds nothing, not even a value
//! tree. The same canonical request therefore runs the scheduler **at
//! most once** no matter how many clients submit it concurrently, and
//! every one of them receives byte-identical bodies. Journal replay
//! re-keys each journaled body with the same keying, so a replayed job
//! keeps the kind that admitted it.
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
//!
//! The engine's files follow its seams: `admission.rs` keys, builds and
//! admits bodies (and answers `POST /v1/validate`); `replay.rs` restores
//! the journal at startup and compacts it; `execute.rs` holds the worker
//! loop and the one budget → EDF fallback → stats shell every job runs
//! in; `records.rs` writes finished records to the store and the
//! journal and serves the reads peers make.

mod admission;
mod execute;
mod records;
mod replay;

use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use noc_ctg::prelude::TaskGraph;
use noc_eas::prelude::{AppliedEdits, Scheduler};
use noc_platform::prelude::Platform;

use crate::cache::JobOutput;
use crate::cluster::{Cluster, ClusterConfig, ClusterObs, ClusterStats, RecordSource};
use crate::hash::ContentHash;
use crate::journal::Journal;
use crate::metrics::Metrics;
use crate::obs::{LogLevel, Recorder, ServiceLog, TraceCtx};
use crate::queue::JobQueue;
use crate::store::{Store, StoreConfig, StoreStats, TieredStore};

pub use admission::RequestKind;

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

/// One built `POST /v1/schedule` problem: a schedule job's work, and
/// the prior a delta job warm-starts from.
struct ScheduleWork {
    graph: TaskGraph,
    platform: Platform,
    scheduler: Box<dyn Scheduler + Send + Sync>,
    scheduler_name: String,
}

/// The resolved inputs a worker needs; taken (once) by the worker that
/// executes the job.
enum JobWork {
    /// An ordinary `POST /v1/schedule` job.
    Schedule(ScheduleWork),
    /// A `POST /v1/schedule/delta` job: warm-start from the prior
    /// request's cached result (recomputing it on a cache miss) and
    /// repair under the applied edits.
    Delta {
        /// The prior request, built as a schedule job is.
        prior: Box<ScheduleWork>,
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
    /// Callbacks fired once when the job reaches a terminal phase: the
    /// one way to await a job.
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

/// Outcome of admitting one `POST /v1/schedule` or
/// `/v1/schedule/delta` body.
pub enum Submission {
    /// The body was not valid JSON for its [`RequestKind`] → 400.
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
                Some(Cluster::start(cluster_config.clone(), stats, obs)?)
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

    /// Looks a job up by its content-hash id.
    #[must_use]
    pub fn job(&self, id: &str) -> Option<Arc<Job>> {
        self.jobs.lock().expect("jobs lock").map.get(id).cloned()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Record;
    use serde::Value;

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

    /// Admits a `POST /v1/schedule` body, untraced.
    fn submit(engine: &Engine, body: &str) -> Submission {
        engine
            .submit(RequestKind::Schedule, body, &TraceCtx::untraced())
            .0
    }

    /// Admits a `POST /v1/schedule/delta` body, untraced.
    fn submit_delta(engine: &Engine, body: &str) -> Submission {
        engine
            .submit(RequestKind::Delta, body, &TraceCtx::untraced())
            .0
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

        let Submission::Enqueued { id, job } = submit(&engine, &body) else {
            panic!("first submission must enqueue");
        };
        drain(&engine);
        let JobPhase::Done(first) = job.phase() else {
            panic!("job must finish");
        };

        // Second submission: byte-identical body straight from cache.
        let Submission::Cached {
            id: id2,
            output: cached,
        } = submit(&engine, &body)
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
        let Submission::Enqueued { job, .. } = submit(&engine, &body) else {
            panic!("submission must enqueue");
        };
        drain(&engine);
        let JobPhase::Done(output) = job.phase() else {
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
        let Submission::Cached { output: hit, .. } = submit(&engine, &body) else {
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
        let Submission::Enqueued { job, .. } = submit(&engine, &body) else {
            panic!("first submission must enqueue");
        };
        let Submission::Joined { job: joined, .. } = submit(&engine, &body) else {
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
        assert!(matches!(submit(&engine, &a), Submission::Enqueued { .. }));
        assert!(matches!(submit(&engine, &b), Submission::Rejected));
        assert_eq!(engine.metrics.queue_rejected.load(Ordering::Relaxed), 1);
        // A rejected job must never have been visible in the table: an
        // identical resubmission is rejected again (never joined to a
        // ghost that no worker will ever run), and after drain it would
        // re-enqueue.
        assert!(matches!(submit(&engine, &b), Submission::Rejected));
        assert_eq!(engine.jobs.lock().expect("jobs lock").map.len(), 1);
    }

    #[test]
    fn bad_bodies_and_specs_classify() {
        let engine = engine(EngineConfig::default());
        assert!(matches!(
            submit(&engine, "not json"),
            Submission::BadRequest(_)
        ));
        assert!(matches!(
            submit(&engine, r#"{"graph":{},"platform":"ring:9x9"}"#),
            Submission::BadSpec(_)
        ));
        let graph = graph_json();
        assert!(matches!(
            submit(
                &engine,
                &format!(r#"{{"graph":{graph},"platform":"mesh:2x2","scheduler":"magic"}}"#)
            ),
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
        assert!(matches!(submit(&engine, &body), Submission::ShuttingDown));
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
        let Submission::Enqueued { job, .. } = submit(&engine, &body) else {
            panic!("submission must enqueue");
        };
        drain(&engine);
        let JobPhase::Done(output) = job.phase() else {
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
        let Submission::Cached { output: hit, .. } = submit(&engine, &body) else {
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
        let Submission::Enqueued { job: bad, .. } = submit(&eng, &poison) else {
            panic!("poison submission must enqueue");
        };
        let Submission::Enqueued { job: good, .. } = submit(&eng, &healthy) else {
            panic!("healthy submission must enqueue");
        };
        // One worker loop runs both jobs back to back: it must survive
        // the first job's panic to finish the second.
        drain(&eng);
        let JobPhase::Failed(msg) = bad.phase() else {
            panic!("poison job must fail, not hang or kill the worker");
        };
        assert!(msg.contains("panicked"), "typed panic error, got `{msg}`");
        assert!(matches!(good.phase(), JobPhase::Done(_)));
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
        let Submission::Enqueued { id, job } = submit_delta(&engine, &body) else {
            panic!("first delta must enqueue");
        };
        drain(&engine);
        let JobPhase::Done(first) = job.phase() else {
            panic!("delta job must finish");
        };
        assert!(first.body.contains(r#""warm_start""#));
        assert!(first.body.contains(r#""reason""#));
        let Submission::Cached {
            id: id2,
            output: hit,
        } = submit_delta(&engine, &body)
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
        let Submission::Enqueued { job, .. } = submit_delta(&cold, &delta) else {
            panic!("delta must enqueue");
        };
        drain(&cold);
        let JobPhase::Done(cold_out) = job.phase() else {
            panic!("delta job must finish");
        };
        assert_eq!(cold.metrics.delta_prior_hits.load(Ordering::Relaxed), 0);

        // Warm engine: the prior job runs first (FIFO), so its schedule
        // is cached by the time the delta job executes.
        let warm = engine(EngineConfig::default());
        let Submission::Enqueued { job: prior_job, .. } = submit(&warm, &prior_body) else {
            panic!("prior must enqueue");
        };
        let Submission::Enqueued { job, .. } = submit_delta(&warm, &delta) else {
            panic!("delta must enqueue");
        };
        drain(&warm);
        assert!(matches!(prior_job.phase(), JobPhase::Done(_)));
        let JobPhase::Done(warm_out) = job.phase() else {
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
        let Submission::Enqueued { job, .. } = submit_delta(&engine, &body) else {
            panic!("delta must enqueue");
        };
        drain(&engine);
        let JobPhase::Done(output) = job.phase() else {
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
            submit_delta(&engine, "not json"),
            Submission::BadRequest(_)
        ));
        let graph = graph_json();
        // An edit addressing a task the prior graph does not have.
        let body = delta_body(&graph, r#"[{"SetDeadline":{"task":999}}]"#);
        assert!(matches!(
            submit_delta(&engine, &body),
            Submission::BadSpec(_)
        ));
        // A platform edit that cannot be represented.
        let bad_edits = r#"[{"FailPe":{"pe":999}}]"#;
        assert!(matches!(
            submit_delta(&engine, &delta_body(&graph, bad_edits)),
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
        let Submission::Enqueued { job, .. } = submit_delta(&reference, &body) else {
            panic!("reference delta must enqueue");
        };
        drain(&reference);
        let JobPhase::Done(expected) = job.phase() else {
            panic!("reference delta must finish");
        };

        // "Crash": accept the async delta, never run it.
        let crashed = engine(journal_cfg.clone());
        let Submission::Enqueued { id, .. } = submit_delta(&crashed, &body) else {
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
        let JobPhase::Done(done) = restarted.job(&id).expect("job survives restart").phase() else {
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
        let Submission::Enqueued { job, .. } = submit(&reference, &body_a) else {
            panic!("reference submission must enqueue");
        };
        drain(&reference);
        let JobPhase::Done(expected_a) = job.phase() else {
            panic!("reference job must finish");
        };

        // "Crash": accept two async jobs, never run them, drop the engine.
        let crashed = engine(journal_cfg.clone());
        let Submission::Enqueued { id: id_a, .. } = submit(&crashed, &body_a) else {
            panic!("submission must enqueue");
        };
        let Submission::Enqueued { id: id_b, .. } = submit(&crashed, &body_b) else {
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
        let JobPhase::Done(done_a) = restarted.job(&id_a).expect("job survives restart").phase()
        else {
            panic!("recovered job must finish");
        };
        assert_eq!(
            *done_a.body, *expected_a.body,
            "recovery must be byte-identical"
        );
        assert!(matches!(
            restarted.job(&id_b).expect("job survives restart").phase(),
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
        let Submission::Cached { output, .. } = submit(&warm, &body_a) else {
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
        let Submission::Enqueued { job, .. } = submit(&first, &body) else {
            panic!("cold submission must enqueue");
        };
        drain(&first);
        let JobPhase::Done(expected) = job.phase() else {
            panic!("cold job must finish");
        };
        drop(first);

        // Restart with an empty memory tier: the disk tier answers.
        let restarted = engine(cfg);
        let Submission::Cached { output, .. } = submit(&restarted, &body) else {
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
        let Submission::Enqueued { job, .. } = submit(&first, &prior_body) else {
            panic!("prior must enqueue");
        };
        drain(&first);
        assert!(matches!(job.phase(), JobPhase::Done(_)));
        drop(first);

        // After restart the prior lives only on disk; the delta's
        // warm start must still resolve it instead of recomputing.
        let restarted = engine(cfg);
        let delta = format!(
            r#"{{"prior":{{"graph":{graph},"platform":"mesh:2x2","scheduler":"eas"}},"edits":[{{"SetDeadline":{{"task":0}}}}]}}"#
        );
        let Submission::Enqueued { job, .. } = submit_delta(&restarted, &delta) else {
            panic!("delta must enqueue");
        };
        drain(&restarted);
        assert!(matches!(job.phase(), JobPhase::Done(_)));
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
        let Submission::Enqueued { job, .. } = submit(&degraded, &body) else {
            panic!("degraded engine must still admit jobs");
        };
        drain(&degraded);
        let JobPhase::Done(output) = job.phase() else {
            panic!("degraded engine must still schedule");
        };
        // Memory tier still serves the bytes it computed.
        let Submission::Cached { output: hit, .. } = submit(&degraded, &body) else {
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
        let Submission::Enqueued { job, .. } = submit(&first, &body) else {
            panic!("submission must enqueue");
        };
        drain(&first);
        assert!(matches!(job.phase(), JobPhase::Done(_)));
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

    /// A `POST /v1/schedule` body that also carries a delta's `prior`
    /// and `edits` members, which the schedule endpoint ignores, and
    /// the delta body those members make.
    fn schedule_body_with_delta_members(graph: &str) -> (String, String) {
        let prior = format!(r#"{{"graph":{graph},"platform":"mesh:2x2","scheduler":"eas"}}"#);
        let edits = r#"[{"SetDeadline":{"task":0}}]"#;
        let schedule = format!(
            r#"{{"graph":{graph},"platform":"mesh:2x2","scheduler":"edf","mode":"async","prior":{prior},"edits":{edits}}}"#
        );
        (schedule, format!(r#"{{"prior":{prior},"edits":{edits}}}"#))
    }

    /// Fresh per-test journal path under the OS temp dir.
    fn journal_path(name: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("noc-engine-journal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn replay_keeps_the_admitted_kind_of_an_unrun_job() {
        let journal = journal_path("kind-unrun");
        let cfg = journal_cfg(&journal);
        let graph = graph_json();
        let (body, _) = schedule_body_with_delta_members(&graph);

        // What the schedule endpoint owes this body: the cold EDF run.
        let reference = engine(EngineConfig::default());
        let Submission::Enqueued { job, .. } = submit(&reference, &body) else {
            panic!("reference submission must enqueue");
        };
        drain(&reference);
        let JobPhase::Done(expected) = job.phase() else {
            panic!("reference job must finish");
        };

        // "Crash" before the job runs, then restart on the journal.
        let crashed = engine(cfg.clone());
        let Submission::Enqueued { id, .. } = submit(&crashed, &body) else {
            panic!("async submission must enqueue");
        };
        drop(crashed);
        let restarted = engine(cfg);
        drain(&restarted);
        let JobPhase::Done(done) = restarted.job(&id).expect("job survives restart").phase() else {
            panic!("recovered job must finish");
        };
        assert_eq!(
            *done.body, *expected.body,
            "a schedule job must replay as a schedule job"
        );
        let _ = std::fs::remove_file(&journal);
    }

    #[test]
    fn replayed_done_record_is_filed_under_its_admitted_kind() {
        let dir = store_dir("kind-done");
        let journal = journal_path("kind-done");
        let graph = graph_json();
        let (body, delta) = schedule_body_with_delta_members(&graph);

        // What the delta endpoint owes the delta body.
        let reference = engine(EngineConfig::default());
        let Submission::Enqueued { job, .. } = submit_delta(&reference, &delta) else {
            panic!("reference delta must enqueue");
        };
        drain(&reference);
        let JobPhase::Done(expected) = job.phase() else {
            panic!("reference delta must finish");
        };

        // Finish the schedule job on a journal-only engine: its journal
        // holds a `done` record with the bytes.
        let journal_only = engine(journal_cfg(&journal));
        let Submission::Enqueued { job, .. } = submit(&journal_only, &body) else {
            panic!("async submission must enqueue");
        };
        drain(&journal_only);
        assert!(matches!(job.phase(), JobPhase::Done(_)));
        drop(journal_only);

        // A store-backed restart files those bytes under the schedule
        // key, so the delta endpoint must not answer them.
        let restarted = engine(store_cfg(&dir, Some(&journal)));
        let Submission::Enqueued { job, .. } = submit_delta(&restarted, &delta) else {
            panic!("the delta was never answered, so it must run");
        };
        drain(&restarted);
        let JobPhase::Done(done) = job.phase() else {
            panic!("delta job must finish");
        };
        assert_eq!(*done.body, *expected.body);
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_fails_a_job_whose_body_keys_to_another_id() {
        let journal = journal_path("kind-neither");
        let id = crate::hash::content_hash("not this body's key");
        let (log, _) = Journal::open(&journal).expect("journal opens");
        let body = request_body(&graph_json());
        log.append(&Record::Accepted {
            id: id.clone(),
            body,
        })
        .expect("appends");
        drop(log);

        // The body is a valid schedule request, but neither kind keys it
        // to the journaled id, so it is handled as an unparseable body.
        let restarted = engine(journal_cfg(&journal));
        drain(&restarted);
        let JobPhase::Failed(reason) = restarted.job(&id).expect("job restored").phase() else {
            panic!("a body that keys to another id must not run");
        };
        assert!(reason.contains("unparseable"), "{reason}");
        assert_eq!(
            restarted.metrics.schedules_executed.load(Ordering::Relaxed),
            0
        );
        let _ = std::fs::remove_file(&journal);
    }

    /// A journal-only engine configuration.
    fn journal_cfg(journal: &std::path::Path) -> EngineConfig {
        EngineConfig {
            journal: Some(journal.to_string_lossy().into_owned()),
            ..EngineConfig::default()
        }
    }

    #[test]
    fn done_records_become_store_hits_after_a_store_backed_restart() {
        let dir = store_dir("done-to-store");
        let journal = journal_path("done-to-store");
        let graph = graph_json();
        let schedule = format!(
            r#"{{"graph":{graph},"platform":"mesh:2x2","scheduler":"edf","mode":"async"}}"#
        );
        let delta = format!(
            r#"{{"prior":{{"graph":{graph},"platform":"mesh:2x2","scheduler":"eas"}},"edits":[{{"SetDeadline":{{"task":0}}}}],"mode":"async"}}"#
        );

        // A journal-only engine journals `acc` and `done` per job.
        let journal_only = engine(journal_cfg(&journal));
        let Submission::Enqueued { job: job_s, .. } = submit(&journal_only, &schedule) else {
            panic!("schedule must enqueue");
        };
        let Submission::Enqueued { job: job_d, .. } = submit_delta(&journal_only, &delta) else {
            panic!("delta must enqueue");
        };
        drain(&journal_only);
        let (JobPhase::Done(done_s), JobPhase::Done(done_d)) = (job_s.phase(), job_d.phase())
        else {
            panic!("both jobs must finish");
        };
        drop(journal_only);

        // A store-backed restart writes both bodies through to the store
        // under their own keys and compacts all four records away.
        let restarted = engine(store_cfg(&dir, Some(&journal)));
        assert_eq!(
            restarted.metrics.journal_compacted.load(Ordering::Relaxed),
            4
        );
        let Submission::Cached { output: hit_s, .. } = submit(&restarted, &schedule) else {
            panic!("the schedule re-post must be a store hit");
        };
        let Submission::Cached { output: hit_d, .. } = submit_delta(&restarted, &delta) else {
            panic!("the delta re-post must be a store hit");
        };
        assert_eq!(*hit_s.body, *done_s.body);
        assert_eq!(*hit_d.body, *done_d.body);
        assert_eq!(
            restarted.metrics.schedules_executed.load(Ordering::Relaxed),
            0
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
                let Submission::Enqueued { id, job } = submit(&fill, &body) else {
                    panic!("async submission must enqueue");
                };
                (id, job)
            })
            .collect();
        drain(&fill);
        let filled: Vec<(String, Arc<String>)> = jobs
            .into_iter()
            .map(|(id, job)| {
                let JobPhase::Done(output) = job.phase() else {
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
            let JobPhase::Done(output) = rerun.job(id).expect("job re-admitted").phase() else {
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

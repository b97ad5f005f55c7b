//! The HTTP server: request routing for the nonblocking reactor
//! ([`crate::net`]) over one `TcpListener`, dispatching to the
//! [`Engine`], with a graceful shutdown that
//! drains admitted jobs before the process exits.
//!
//! Endpoints:
//!
//! | Method | Path             | Purpose                                    |
//! |--------|------------------|--------------------------------------------|
//! | POST   | `/v1/schedule`   | Schedule a CTG; sync or `"mode":"async"`   |
//! | POST   | `/v1/schedule/delta` | Repair a prior schedule after edits    |
//! | POST   | `/v1/validate`   | Structurally check a schedule              |
//! | GET    | `/v1/jobs/<id>`  | Poll an async submission                   |
//! | GET    | `/healthz`       | Liveness                                   |
//! | GET    | `/metrics`       | Prometheus text metrics                    |
//! | GET    | `/v1/internal/lookup/<hash>` | Peer cache-fill (cluster)      |
//! | POST   | `/v1/internal/record/<hash>` | Replica ingest (cluster)       |
//! | GET    | `/v1/internal/digest` | Held record ids (anti-entropy)        |
//! | GET    | `/v1/internal/health` | Failure-detector peer table (cluster) |
//! | GET    | `/v1/internal/trace/<id>` | Flight-recorder spans for a trace |
//! | GET    | `/v1/internal/slow` | The slow-request ring                   |

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::api::error_body;
use crate::cluster::ClusterConfig;
use crate::engine::{Engine, EngineConfig, Job, JobPhase, RequestKind, Submission};
use crate::http::{Request, Response};
use crate::obs::{span_us, TraceCtx};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address, e.g. `127.0.0.1:8533`; port 0 picks a free port.
    pub addr: String,
    /// Reactor event-loop threads; each multiplexes many connections.
    pub http_workers: usize,
    /// Scheduling worker threads; 0 admits jobs but never runs them
    /// (useful to test queue backpressure deterministically).
    pub sched_workers: usize,
    /// Bounded job-queue capacity.
    pub queue_capacity: usize,
    /// Response-cache capacity in entries; 0 disables caching.
    pub cache_capacity: usize,
    /// Largest accepted request body, bytes.
    pub max_body: usize,
    /// Keep-alive idle timeout: a connection with no request in flight
    /// is closed after this long without a new one.
    pub io_timeout: Duration,
    /// Per-request compute budget in wall-clock milliseconds; expired
    /// budgets are answered by the degraded EDF fallback. `None` runs
    /// schedulers to completion.
    pub budget_ms: Option<u64>,
    /// Path of the crash-safe job journal; `None` disables journaling.
    pub journal: Option<String>,
    /// Directory of the persistent schedule store; `None` serves from
    /// the in-memory cache tier only.
    pub store_dir: Option<String>,
    /// Segment-rotation threshold for the persistent store, bytes.
    pub store_segment_bytes: u64,
    /// Peer service addresses for multi-node mode; empty runs
    /// single-node. The list need not include this node.
    pub peers: Vec<String>,
    /// This node's address as peers see it (ring identity). Defaults
    /// to the bound listener address.
    pub self_addr: Option<String>,
    /// Per-operation timeout for cluster internal lookups and
    /// replication deliveries.
    pub peer_timeout: Duration,
    /// First probe backoff after the failure detector marks a peer
    /// down; doubles per failed probe up to 16× this value.
    pub probe_interval: Duration,
    /// Anti-entropy sweep period; zero disables the sweep.
    pub anti_entropy_interval: Duration,
    /// Flight-recorder capacity in spans; 0 disables request tracing
    /// entirely (no `X-Noc-Trace` header, no recording).
    pub flight_recorder_entries: usize,
    /// Requests at or above this wall time (milliseconds) snapshot
    /// their span tree into the slow-request ring.
    pub slow_ms: u64,
    /// Path of the structured JSONL service log; `None` keeps events
    /// on stderr.
    pub log_json: Option<String>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:8533".to_owned(),
            http_workers: 4,
            sched_workers: 2,
            queue_capacity: 64,
            cache_capacity: 1024,
            max_body: 16 * 1024 * 1024,
            io_timeout: Duration::from_secs(30),
            budget_ms: None,
            journal: None,
            store_dir: None,
            store_segment_bytes: crate::store::DEFAULT_SEGMENT_BYTES,
            peers: Vec::new(),
            self_addr: None,
            peer_timeout: Duration::from_secs(1),
            probe_interval: Duration::from_millis(250),
            anti_entropy_interval: Duration::from_secs(2),
            flight_recorder_entries: 4096,
            slow_ms: 250,
            log_json: None,
        }
    }
}

/// A running service instance.
pub struct Server {
    engine: Arc<Engine>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    sched_handles: Vec<JoinHandle<()>>,
    reactor: crate::net::ReactorHandle,
}

impl Server {
    /// Binds the listener and spawns the worker pools.
    ///
    /// # Errors
    ///
    /// Propagates bind/clone failures on the listening socket.
    pub fn start(config: ServiceConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let cluster = if config.peers.is_empty() {
            None
        } else {
            let self_addr = config.self_addr.clone().unwrap_or_else(|| addr.to_string());
            let mut cluster = ClusterConfig::new(self_addr, config.peers.clone());
            cluster.timeout = config.peer_timeout;
            let base_ms = u64::try_from(config.probe_interval.as_millis())
                .unwrap_or(u64::MAX)
                .max(1);
            cluster.detector.probe_base_ms = base_ms;
            cluster.detector.probe_max_ms = base_ms.saturating_mul(16);
            cluster.anti_entropy_interval = config.anti_entropy_interval;
            Some(cluster)
        };
        let engine = Engine::new(EngineConfig {
            queue_capacity: config.queue_capacity,
            cache_capacity: config.cache_capacity,
            budget_ms: config.budget_ms,
            journal: config.journal.clone(),
            store_dir: config.store_dir.clone(),
            store_segment_bytes: config.store_segment_bytes,
            cluster,
            flight_recorder_entries: config.flight_recorder_entries,
            slow_ms: config.slow_ms,
            log_json: config.log_json.clone(),
        })?;
        engine.log.event(
            crate::obs::LogLevel::Info,
            "serve-started",
            &format!("listening on {addr}"),
            &[
                ("addr", &addr.to_string()),
                ("peers", &config.peers.len().to_string()),
            ],
        );
        let stop = Arc::new(AtomicBool::new(false));

        let mut sched_handles = Vec::new();
        for i in 0..config.sched_workers {
            let engine = Arc::clone(&engine);
            sched_handles.push(
                std::thread::Builder::new()
                    .name(format!("svc-sched-{i}"))
                    .spawn(move || {
                        // Defense in depth: `run_job` already isolates
                        // scheduler panics, but if the loop itself ever
                        // unwinds the worker restarts instead of the
                        // pool silently shrinking. A normal return
                        // (queue closed and drained) exits.
                        use std::panic::{catch_unwind, AssertUnwindSafe};
                        loop {
                            if catch_unwind(AssertUnwindSafe(|| engine.worker_loop())).is_ok() {
                                break;
                            }
                            engine.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
                        }
                    })?,
            );
        }

        let reactor = crate::net::spawn(
            Arc::clone(&engine),
            listener,
            Arc::clone(&stop),
            &crate::net::ReactorOptions {
                loops: config.http_workers.max(1),
                max_body: config.max_body,
                idle_timeout: config.io_timeout,
            },
        )?;

        Ok(Server {
            engine,
            addr,
            stop,
            sched_handles,
            reactor,
        })
    }

    /// The bound socket address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine, for inspection (metrics, queue depth).
    #[must_use]
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Graceful shutdown: stop accepting, refuse new submissions, drain
    /// every admitted job, join all workers.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::Release);
        self.engine.shutdown();
        // The reactor drains in-flight responses before exiting; the
        // scheduler workers (joined below) keep feeding completions
        // while it does.
        self.reactor.shutdown();
        for h in self.sched_handles {
            let _ = h.join();
        }
    }

    /// Blocks until every worker exits (i.e. forever, unless another
    /// thread triggers shutdown or the process is signalled).
    pub fn wait(self) {
        self.reactor.wait();
        for h in self.sched_handles {
            let _ = h.join();
        }
    }
}

/// Normalizes a request path to a bounded metrics label.
pub(crate) fn endpoint_label(request: &Request) -> &'static str {
    match request.path.as_str() {
        "/v1/schedule" => "/v1/schedule",
        "/v1/schedule/delta" => "/v1/schedule/delta",
        "/v1/validate" => "/v1/validate",
        "/healthz" => "/healthz",
        "/metrics" => "/metrics",
        p if p.starts_with("/v1/jobs/") => "/v1/jobs",
        "/v1/internal/digest" => "/v1/internal/digest",
        "/v1/internal/health" => "/v1/internal/health",
        "/v1/internal/slow" => "/v1/internal/slow",
        p if p.starts_with("/v1/internal/lookup/") => "/v1/internal/lookup",
        p if p.starts_with("/v1/internal/record/") => "/v1/internal/record",
        p if p.starts_with("/v1/internal/trace/") => "/v1/internal/trace",
        _ => "other",
    }
}

/// A routed request: either an immediately ready response, or a
/// submission parked on a scheduler job whose terminal phase produces
/// the response (via [`complete`]).
///
/// Splitting routing this way lets the reactor park only a response
/// slot on a pending job instead of blocking an event loop on it.
pub(crate) enum Routed {
    /// The response is ready now.
    Ready(Response),
    /// The response awaits a scheduler job's terminal phase.
    Pending(Pending),
}

/// A submission whose response is pending on its job.
pub(crate) struct Pending {
    /// Canonical request hash.
    pub id: String,
    /// The admitted (or joined) job.
    pub job: Arc<Job>,
    /// `X-Cache` label the finished response will carry.
    pub cache_label: &'static str,
    /// Whether the client opted into the stats member.
    pub wants_stats: bool,
    /// Everything needed to finish the request's root span.
    pub finish: TraceFinish,
}

/// The tracing context a pending submission carries to its terminal
/// response: the request's trace, its ingress instant, and the
/// endpoint label that becomes the root span's stage.
#[derive(Clone)]
pub(crate) struct TraceFinish {
    pub trace: TraceCtx,
    pub started: Instant,
    pub endpoint: &'static str,
}

/// Endpoints that read the recorder (or are pure liveness probes):
/// tracing them would let introspection scrapes pollute the rings
/// they serve.
fn untraced_endpoint(endpoint: &str) -> bool {
    matches!(
        endpoint,
        "/healthz" | "/metrics" | "/v1/internal/trace" | "/v1/internal/slow"
    )
}

/// Routes a request to a [`Routed`] outcome without ever blocking on
/// scheduler work.
///
/// This is also the tracing ingress: a [`TraceCtx`] is built from the
/// inbound `X-Noc-Trace`/`X-Noc-Span` headers (or freshly minted),
/// ready responses record their root span here, and pending ones
/// carry the context to [`complete`]. Trace metadata rides in
/// response headers only — bodies stay byte-identical to an untraced
/// run.
pub(crate) fn respond(engine: &Engine, request: &Request) -> Routed {
    let endpoint = endpoint_label(request);
    let trace = if untraced_endpoint(endpoint) {
        TraceCtx::untraced()
    } else {
        engine.recorder.ingress(
            request.header(crate::api::TRACE_HEADER),
            request.header(crate::api::SPAN_HEADER),
        )
    };
    let started = Instant::now();
    let routed = match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/schedule") => submission_route(
            engine,
            request,
            RequestKind::Schedule,
            &trace,
            started,
            endpoint,
        ),
        ("POST", "/v1/schedule/delta") => submission_route(
            engine,
            request,
            RequestKind::Delta,
            &trace,
            started,
            endpoint,
        ),
        _ => Routed::Ready(inline_route(engine, request)),
    };
    match routed {
        Routed::Ready(response) => {
            Routed::Ready(finish_traced(engine, endpoint, &trace, started, response))
        }
        pending => pending,
    }
}

/// Builds the terminal response for a pending submission, inside the
/// job's finish watcher.
pub(crate) fn complete(
    engine: &Engine,
    id: &str,
    phase: &JobPhase,
    cache_label: &str,
    wants_stats: bool,
    finish: &TraceFinish,
) -> Response {
    let resp = with_store_state(engine, finish_response(id, phase, cache_label, wants_stats));
    finish_traced(engine, finish.endpoint, &finish.trace, finish.started, resp)
}

/// Records the request's root span (stage = endpoint label, outcome
/// derived from the response) and stamps the trace id on the
/// response. A no-op passthrough when untraced.
fn finish_traced(
    engine: &Engine,
    endpoint: &'static str,
    trace: &TraceCtx,
    started: Instant,
    resp: Response,
) -> Response {
    if !trace.is_traced() {
        return resp;
    }
    engine
        .recorder
        .finish_root(trace, endpoint, response_outcome(&resp), span_us(started));
    resp.with_header("X-Noc-Trace", &trace.id)
}

/// The root span's outcome: the `X-Cache` serving class when present,
/// otherwise the status class.
fn response_outcome(resp: &Response) -> &'static str {
    if let Some((_, label)) = resp.extra_headers.iter().find(|(k, _)| k == "X-Cache") {
        return match label.as_str() {
            "hit" => "hit",
            "peer" => "peer",
            "join" => "join",
            _ => "miss",
        };
    }
    match resp.status {
        200..=299 => "ok",
        404 => "not-found",
        429 => "rejected",
        300..=499 => "bad-request",
        _ => "error",
    }
}

/// Every endpoint that answers without scheduler work.
fn inline_route(engine: &Engine, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "ok\n".to_owned()),
        ("GET", "/metrics") => Response::text(200, engine.metrics.render()),
        ("POST", "/v1/validate") => match std::str::from_utf8(&request.body) {
            Err(_) => Response::json(400, error_body("request body is not UTF-8")),
            Ok(body) => match engine.validate(body) {
                Ok(resp) => Response::json(200, resp.to_json()),
                Err((status, msg)) => Response::json(status, error_body(&msg)),
            },
        },
        ("GET", path) if path.starts_with("/v1/jobs/") => {
            jobs_route(engine, &path["/v1/jobs/".len()..])
        }
        ("GET", path) if path.starts_with("/v1/internal/lookup/") => {
            internal_lookup_route(engine, &path["/v1/internal/lookup/".len()..])
        }
        ("POST", path) if path.starts_with("/v1/internal/record/") => {
            internal_record_route(engine, &path["/v1/internal/record/".len()..], &request.body)
        }
        ("GET", "/v1/internal/digest") => internal_digest_route(engine),
        ("GET", "/v1/internal/health") => internal_health_route(engine),
        ("GET", path) if path.starts_with("/v1/internal/trace/") => {
            internal_trace_route(engine, &path["/v1/internal/trace/".len()..])
        }
        ("GET", "/v1/internal/slow") => internal_slow_route(engine),
        (_, "/healthz" | "/metrics" | "/v1/schedule" | "/v1/schedule/delta" | "/v1/validate") => {
            Response::json(405, error_body("method not allowed"))
        }
        _ => Response::json(404, error_body("no such endpoint")),
    }
}

fn submission_route(
    engine: &Engine,
    request: &Request,
    kind: RequestKind,
    trace: &TraceCtx,
    started: Instant,
    endpoint: &'static str,
) -> Routed {
    let ready = |resp: Response| Routed::Ready(with_store_state(engine, resp));
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return ready(Response::json(400, error_body("request body is not UTF-8")));
    };
    // One engine call per body; it reads the presentation members on
    // the way. `mode` only matters for fresh/joined jobs; a cached
    // answer is final either way. `stats` selects how the stored
    // output is rendered, never what is stored.
    let (submission, presentation) = engine.submit(kind, body, trace);
    let (wants_async, wants_stats) = (presentation.is_async, presentation.wants_stats);
    // A fresh or joined job: async clients get its id, sync ones wait.
    let pending = |id: String, job: Arc<Job>, cache_label: &'static str| {
        if wants_async {
            return ready(accepted_response(&id));
        }
        Routed::Pending(Pending {
            id,
            job,
            cache_label,
            wants_stats,
            finish: TraceFinish {
                trace: trace.clone(),
                started,
                endpoint,
            },
        })
    };
    match submission {
        Submission::BadRequest(msg) => ready(Response::json(400, error_body(&msg))),
        Submission::BadSpec(msg) => ready(Response::json(422, error_body(&msg))),
        Submission::Cached { id, output } => {
            ready(cached_response(&id, &output, wants_stats, "hit"))
        }
        Submission::PeerFilled { id, output } => {
            ready(cached_response(&id, &output, wants_stats, "peer"))
        }
        Submission::Joined { id, job } => pending(id, job, "join"),
        Submission::Enqueued { id, job } => pending(id, job, "miss"),
        Submission::Rejected => ready(
            Response::json(429, error_body("job queue is full; retry later"))
                .with_header("Retry-After", "1"),
        ),
        Submission::ShuttingDown => {
            ready(Response::json(503, error_body("service is shutting down")))
        }
    }
}

/// 200 response for bytes that already exist — from the local cache
/// tier (`hit`) or fetched from the owning peer (`peer`). The bytes
/// are identical either way; only the label differs.
fn cached_response(
    id: &str,
    output: &crate::cache::JobOutput,
    wants_stats: bool,
    label: &str,
) -> Response {
    let resp = Response::json(200, rendered_body(output, wants_stats))
        .with_header("X-Cache", label)
        .with_header("X-Request-Hash", id);
    with_degraded(resp, output.degraded)
}

/// Serves a peer's cache-fill probe: the stored record for a content
/// hash as a [`crate::cluster::RecordEnvelope`], or 404 when this
/// node holds nothing.
fn internal_lookup_route(engine: &Engine, hash: &str) -> Response {
    match engine.internal_lookup(hash) {
        Some((key, output)) => Response::json(
            200,
            serde_json::to_string(&crate::cluster::RecordEnvelope::from_output(&key, &output))
                .expect("envelope serializes"),
        ),
        None => Response::json(404, error_body("no record for hash")),
    }
}

/// Serves the anti-entropy digest: every record id this node durably
/// holds, for peers deciding what to re-replicate here.
fn internal_digest_route(engine: &Engine) -> Response {
    let node = engine
        .cluster()
        .map_or(String::new(), |c| c.self_addr().to_owned());
    let digest = crate::cluster::Digest {
        node,
        ids: engine.digest_ids(),
    };
    Response::json(
        200,
        serde_json::to_string(&digest).expect("digest serializes"),
    )
}

/// Serves the failure detector's peer table: per-peer state,
/// consecutive failures, probe countdown and retry-queue depth.
fn internal_health_route(engine: &Engine) -> Response {
    let Some(cluster) = engine.cluster() else {
        return Response::json(200, "{\"self\":null,\"peers\":[]}".to_owned());
    };
    let depths = cluster.retry_depths();
    let peers: Vec<String> = cluster
        .health_snapshot()
        .iter()
        .map(|p| {
            format!(
                "{{\"peer\":{},\"state\":\"{}\",\"consecutive_failures\":{},\
                 \"probe_in_ms\":{},\"retry_queue\":{}}}",
                serde_json::to_string(&serde::Value::String(p.peer.clone()))
                    .expect("string serializes"),
                p.state.as_str(),
                p.consecutive_failures,
                p.probe_in_ms,
                depths.get(&p.peer).copied().unwrap_or(0)
            )
        })
        .collect();
    Response::json(
        200,
        format!(
            "{{\"self\":{},\"peers\":[{}]}}",
            serde_json::to_string(&serde::Value::String(cluster.self_addr().to_owned()))
                .expect("string serializes"),
            peers.join(",")
        ),
    )
}

/// Serves this node's flight-recorder spans for one trace id, or 404
/// when the node holds none (expired from the ring, or never seen).
fn internal_trace_route(engine: &Engine, id: &str) -> Response {
    let spans = engine.recorder.trace(id);
    if spans.is_empty() {
        return Response::json(404, error_body("no spans recorded for trace"));
    }
    let dump = crate::obs::TraceDump {
        node: engine.recorder.node().to_owned(),
        spans,
    };
    Response::json(200, serde_json::to_string(&dump).expect("dump serializes"))
}

/// Serves this node's slow-request ring.
fn internal_slow_route(engine: &Engine) -> Response {
    let dump = crate::obs::SlowDump {
        node: engine.recorder.node().to_owned(),
        slow: engine.recorder.slow(),
    };
    Response::json(200, serde_json::to_string(&dump).expect("dump serializes"))
}

/// Ingests a replicated done-record from the hash's owner.
fn internal_record_route(engine: &Engine, hash: &str, body: &[u8]) -> Response {
    let Ok(body) = std::str::from_utf8(body) else {
        return Response::json(400, error_body("request body is not UTF-8"));
    };
    match engine.apply_replica(hash, body) {
        Ok(()) => Response::json(200, "{\"status\":\"stored\"}".to_owned()),
        Err(msg) => Response::json(400, error_body(&msg)),
    }
}

/// 202 body for an async submission (ids are hex — no escaping needed).
fn accepted_response(id: &str) -> Response {
    Response::json(202, format!("{{\"id\":\"{id}\",\"status\":\"queued\"}}"))
        .with_header("X-Request-Hash", id)
}

/// Flags schedule responses served while the persistent store's disk
/// tier is down: responses stay byte-correct, but they are no longer
/// durable across a restart.
fn with_store_state(engine: &Engine, resp: Response) -> Response {
    if engine.store_degraded() {
        resp.with_header("Store-Degraded", "memory-only")
    } else {
        resp
    }
}

/// Marks a degraded (EDF fallback) response so clients can detect the
/// quality downgrade without parsing the body.
fn with_degraded(resp: Response, degraded: bool) -> Response {
    if degraded {
        resp.with_header("Degraded-Mode", "edf-fallback")
    } else {
        resp
    }
}

/// Renders the body a client sees: the stored bytes verbatim, or —
/// only when this request opted in and the producing run left a
/// summary — those bytes with a `"stats"` member spliced in before the
/// closing brace. The stored output (and therefore the cache and every
/// other client's bytes) is never modified.
fn rendered_body(output: &crate::cache::JobOutput, wants_stats: bool) -> String {
    let body = output.body.as_str();
    if wants_stats {
        if let Some(stats) = &output.stats {
            if let Some(head) = body.strip_suffix('}') {
                return format!("{head},\"stats\":{stats}}}");
            }
        }
    }
    body.to_owned()
}

fn finish_response(id: &str, phase: &JobPhase, cache_label: &str, wants_stats: bool) -> Response {
    match phase {
        JobPhase::Done(output) => with_degraded(
            Response::json(200, rendered_body(output, wants_stats))
                .with_header("X-Cache", cache_label)
                .with_header("X-Request-Hash", id),
            output.degraded,
        ),
        JobPhase::Failed(msg) => {
            Response::json(500, error_body(&format!("scheduling failed: {msg}")))
                .with_header("X-Request-Hash", id)
        }
        JobPhase::Queued | JobPhase::Running => {
            Response::json(500, error_body("job did not reach a terminal state"))
        }
    }
}

fn jobs_route(engine: &Engine, id: &str) -> Response {
    let Some(job) = engine.job(id) else {
        return Response::json(404, error_body("no such job"));
    };
    match job.phase() {
        JobPhase::Queued => {
            Response::json(200, format!("{{\"id\":\"{id}\",\"status\":\"queued\"}}"))
        }
        JobPhase::Running => {
            Response::json(200, format!("{{\"id\":\"{id}\",\"status\":\"running\"}}"))
        }
        // Splice the stored body verbatim so the `result` field is
        // byte-identical to the sync answer.
        JobPhase::Done(output) => with_degraded(
            Response::json(
                200,
                format!(
                    "{{\"id\":\"{id}\",\"status\":\"done\",\"result\":{}}}",
                    output.body
                ),
            ),
            output.degraded,
        ),
        JobPhase::Failed(msg) => Response::json(
            200,
            format!(
                "{{\"id\":\"{id}\",\"status\":\"failed\",\"error\":{}}}",
                serde_json::to_string(&serde::Value::String(msg)).expect("serializes")
            ),
        ),
    }
}

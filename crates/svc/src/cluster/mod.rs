//! Multi-node mode: consistent-hash ownership, peer cache-fill,
//! replication with retry, and anti-entropy self-healing.
//!
//! Every node runs the full single-node engine — admission, queue,
//! journal, tiered store — and the cluster layer only changes where
//! *bytes* come from and where they are persisted:
//!
//! - **Ownership.** The [`Ring`] maps each request hash to an owner
//!   node and its successor. Schedules are byte-deterministic, so any
//!   node *can* compute any request; ownership decides which nodes
//!   keep the record on disk.
//! - **Peer cache-fill.** On a local store miss, a node asks the
//!   owner (then the owner's successor) with one internal
//!   `GET /v1/internal/lookup/<hash>` before scheduling locally — a
//!   cross-node cache hierarchy, not a proxy: the fill result is
//!   served and cached like a local hit, and a miss everywhere falls
//!   back to local compute, so a dead peer can never fail a request.
//! - **Failure detection.** A per-peer detector (`cluster/health.rs`)
//!   tracks consecutive failures (Up → Suspect → Down) so fills and
//!   replication skip known-down peers in O(1) instead of burning
//!   the per-operation timeout; Down peers are re-probed on a
//!   bounded exponential backoff and recover on the first success.
//! - **Replication.** When a node finishes a job it enqueues the done
//!   record for asynchronous delivery to the owner and successor
//!   (`POST /v1/internal/record/<hash>`). Deliveries that fail stay
//!   in a bounded per-peer retry queue (drop-*oldest* on overflow —
//!   the newest record is the one most likely to be requested) and
//!   are retried when the detector lets the peer through again.
//! - **Anti-entropy.** A periodic sweep exchanges store digests
//!   (`GET /v1/internal/digest`, the content hashes of the records a
//!   node holds, as 32-hex ids) with each live peer and re-enqueues any record
//!   the peer should hold but does not — so a peer that was down,
//!   partitioned or overflowed converges back to full owner+successor
//!   replication without operator action.
//!
//! Responses stay byte-identical wherever they are answered: the
//! envelope carries the canonical request key and the exact stored
//! body, and receivers verify the key hashes to the id they were
//! given before trusting it.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::cache::JobOutput;
use crate::client::Client;
use crate::metrics::StageObserver;
use crate::obs::{span_us, Recorder, ServiceLog, TraceCtx};

mod health;
mod ring;

use health::Health;
pub use health::{Decision, DetectorConfig, PeerDetector, PeerHealth, PeerState};
pub use ring::{Ring, VNODES};

/// Default per-peer replication backlog bound. Past it the *oldest*
/// queued record is dropped (and counted as overflow) — replication
/// must never grow memory without bound while a peer is down, and the
/// newest record is the one most likely to be requested next.
const REPL_QUEUE_MAX: usize = 4096;

/// Cluster membership and tunables.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// This node's address as it appears in every node's peer list —
    /// the ring identity, which must match what other nodes dial.
    pub self_addr: String,
    /// The full membership, including this node, in any order.
    pub peers: Vec<String>,
    /// Per-operation timeout for internal lookups and replication
    /// deliveries.
    pub timeout: Duration,
    /// Failure-detector thresholds and probe backoff bounds.
    pub detector: DetectorConfig,
    /// Anti-entropy sweep period; `Duration::ZERO` disables the
    /// sweep (retry queues still converge live peers).
    pub anti_entropy_interval: Duration,
    /// Per-peer retry queue bound (default 4096 records).
    pub retry_queue_max: usize,
}

impl ClusterConfig {
    /// A config for `self_addr` within `peers` with the default 1 s
    /// internal timeout, default detector and a 2 s anti-entropy
    /// sweep.
    #[must_use]
    pub fn new(self_addr: impl Into<String>, peers: Vec<String>) -> ClusterConfig {
        ClusterConfig {
            self_addr: self_addr.into(),
            peers,
            timeout: Duration::from_secs(1),
            detector: DetectorConfig::default(),
            anti_entropy_interval: Duration::from_secs(2),
            retry_queue_max: REPL_QUEUE_MAX,
        }
    }

    /// Validates the membership and resolves every ring identity to
    /// its dialable address.
    ///
    /// The ring identity is the peer *string*; two textually distinct
    /// identities that parse to the same socket address (say
    /// `127.0.0.1:9001` and `127.0.0.1:09001`) would silently put one
    /// physical node on the ring twice — each record's "owner chain"
    /// could then be one machine, defeating replication. That
    /// mistake is rejected here instead of shipping a broken ring.
    ///
    /// # Errors
    ///
    /// [`ClusterConfigError`] when a peer does not parse or two
    /// distinct identities share one address.
    pub fn membership(&self) -> Result<HashMap<String, SocketAddr>, ClusterConfigError> {
        let mut peers = self.peers.clone();
        if !peers.contains(&self.self_addr) {
            peers.push(self.self_addr.clone());
        }
        peers.sort();
        peers.dedup();
        let mut addrs: HashMap<String, SocketAddr> = HashMap::new();
        let mut seen: HashMap<SocketAddr, String> = HashMap::new();
        for peer in peers {
            let addr: SocketAddr = peer.parse().map_err(|e: std::net::AddrParseError| {
                ClusterConfigError::BadPeer {
                    peer: peer.clone(),
                    reason: e.to_string(),
                }
            })?;
            if let Some(first) = seen.get(&addr) {
                return Err(ClusterConfigError::DuplicateAddress {
                    first: first.clone(),
                    second: peer,
                    addr,
                });
            }
            seen.insert(addr, peer.clone());
            addrs.insert(peer, addr);
        }
        Ok(addrs)
    }
}

/// Why a [`ClusterConfig`] was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterConfigError {
    /// A peer string does not parse as `host:port`.
    BadPeer {
        /// The offending peer string.
        peer: String,
        /// The parse failure.
        reason: String,
    },
    /// Two distinct ring identities dial the same socket address —
    /// one physical node would occupy two ring positions.
    DuplicateAddress {
        /// The identity kept first (sorted order).
        first: String,
        /// The identity that collided with it.
        second: String,
        /// The address both dial.
        addr: SocketAddr,
    },
}

impl fmt::Display for ClusterConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterConfigError::BadPeer { peer, reason } => {
                write!(f, "peer address `{peer}` does not parse: {reason}")
            }
            ClusterConfigError::DuplicateAddress {
                first,
                second,
                addr,
            } => write!(
                f,
                "peers `{first}` and `{second}` are distinct ring identities \
                 for one address ({addr}); deduplicate the membership"
            ),
        }
    }
}

impl std::error::Error for ClusterConfigError {}

impl From<ClusterConfigError> for io::Error {
    fn from(err: ClusterConfigError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidInput, err.to_string())
    }
}

/// Counters the cluster layer maintains, rendered as the
/// `noc_svc_cluster_*` metrics family.
#[derive(Debug, Default)]
pub struct ClusterStats {
    /// Local misses answered by a peer's stored bytes.
    pub peer_fills: AtomicU64,
    /// Local misses no consulted peer could answer (fell back to
    /// local compute).
    pub peer_fill_misses: AtomicU64,
    /// Internal lookups that failed in transport or returned an
    /// envelope that did not verify.
    pub peer_fill_errors: AtomicU64,
    /// Fill probes skipped in O(1) because the detector held the
    /// peer Down.
    pub peer_fill_skips: AtomicU64,
    /// Internal lookups answered for peers from the local store.
    pub lookups_served: AtomicU64,
    /// Done records delivered to a peer.
    pub replication_sent: AtomicU64,
    /// Done records accepted from a peer.
    pub replication_received: AtomicU64,
    /// Deliveries that failed in transport (the record stays queued
    /// for retry).
    pub replication_delivery_failures: AtomicU64,
    /// Records dropped from a full per-peer retry queue (oldest
    /// first).
    pub replication_overflow: AtomicU64,
    /// Current replication backlog depth across all peers (gauge).
    pub replication_lag: AtomicU64,
    /// Backoff-gated probes sent to Down peers.
    pub probes: AtomicU64,
    /// Down peers that recovered to Up.
    pub peer_recoveries: AtomicU64,
    /// Anti-entropy sweep rounds completed.
    pub anti_entropy_rounds: AtomicU64,
    /// Records re-enqueued because a peer's digest was missing them.
    pub anti_entropy_repairs: AtomicU64,
    /// Peer-filled records persisted locally because this node is in
    /// the owner chain (read repair).
    pub read_repairs: AtomicU64,
    /// Detector availability per peer (1 = Up/Suspect, 0 = Down),
    /// rendered as `noc_svc_cluster_peer_up{peer="..."}`.
    pub peer_up: Mutex<BTreeMap<String, u64>>,
}

/// The wire envelope of one done record: everything a peer needs to
/// serve and persist the response exactly as the computing node did.
#[derive(Debug, Serialize, Deserialize)]
pub struct RecordEnvelope {
    /// Canonical request string — the store key. Receivers verify
    /// `content_hash(key)` matches the id they were addressed with.
    pub key: String,
    /// The exact response body bytes.
    pub body: String,
    /// Whether the body is a degraded (EDF-fallback) answer.
    pub degraded: bool,
    /// The producing run's stats block, if one was traced.
    #[serde(default)]
    pub stats: Option<String>,
}

impl RecordEnvelope {
    /// Builds the envelope for a finished output under `key`.
    #[must_use]
    pub fn from_output(key: &str, output: &JobOutput) -> RecordEnvelope {
        RecordEnvelope {
            key: key.to_owned(),
            body: output.body.as_str().to_owned(),
            degraded: output.degraded,
            stats: output.stats.as_ref().map(|s| s.as_str().to_owned()),
        }
    }

    /// Converts the envelope back into the output it carries.
    #[must_use]
    pub fn into_output(self) -> JobOutput {
        JobOutput {
            body: Arc::new(self.body),
            degraded: self.degraded,
            stats: self.stats.map(Arc::new),
        }
    }
}

/// The body of `GET /v1/internal/digest`: every record id this node
/// holds — its disk index while the disk tier is in service, else its
/// memory tier — as 32-hex content hashes. Peers compare it against
/// their own holdings to find records the node missed.
#[derive(Debug, Serialize, Deserialize)]
pub struct Digest {
    /// The answering node's ring identity.
    pub node: String,
    /// Held record ids, sorted.
    pub ids: Vec<String>,
}

/// What the anti-entropy sweep needs from the engine's record store.
/// Bound after engine construction via [`Cluster::bind_source`]; the
/// sweep holds only a [`Weak`] reference, so it can never keep a
/// shut-down engine alive.
pub trait RecordSource: Send + Sync {
    /// The 32-hex ids of every record this node can re-replicate
    /// (disk tier plus memory-resident records).
    fn held_ids(&self) -> Vec<String>;
    /// Resolves one held id to its canonical key and stored output.
    fn fetch(&self, id: &str) -> Option<(String, JobOutput)>;
}

/// Observability hooks the engine hands the cluster workers: the
/// flight recorder for hop spans, the structured log, and a handle
/// onto the stage-latency histograms. The default is fully disabled
/// (clusters built without an engine, e.g. in unit tests, record
/// nothing).
pub struct ClusterObs {
    /// The node's flight recorder.
    pub recorder: Arc<Recorder>,
    /// The structured service log.
    pub log: Arc<ServiceLog>,
    /// Stage-latency sink for `replication_deliver` / `anti_entropy`.
    pub stages: StageObserver,
}

impl Default for ClusterObs {
    fn default() -> Self {
        ClusterObs {
            recorder: Arc::new(Recorder::disabled()),
            log: ServiceLog::stderr_fallback(),
            stages: StageObserver::disabled(),
        }
    }
}

/// One queued replication delivery to one peer. The serialized
/// envelope is shared across the peer queues it was fanned out to;
/// the originating trace rides along so the delivery span joins the
/// request's tree.
struct ReplEntry {
    hash: String,
    envelope: Arc<String>,
    trace: Arc<str>,
    parent_span: u64,
}

/// The per-peer retry queues shared with the delivery thread.
struct ReplState {
    queues: Mutex<HashMap<String, VecDeque<ReplEntry>>>,
    ready: Condvar,
    stop: AtomicBool,
}

/// State shared between the cluster handle and its worker threads.
struct Shared {
    ring: Ring,
    self_addr: String,
    /// Ring identity → dialable address.
    addrs: HashMap<String, SocketAddr>,
    timeout: Duration,
    retry_queue_max: usize,
    anti_entropy_interval: Duration,
    stats: Arc<ClusterStats>,
    health: Health,
    repl: ReplState,
    source: Mutex<Option<Weak<dyn RecordSource>>>,
    obs: ClusterObs,
}

/// One node's view of the cluster: the ring, the peer dialing table,
/// the failure detector and the background replicator + anti-entropy
/// workers.
pub struct Cluster {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Cluster {
    /// Validates the membership, builds the ring and spawns the
    /// replication and anti-entropy worker threads. Hop spans land in
    /// `obs.recorder`, peer state flips in `obs.log`, and worker-side
    /// stage latencies (`replication_deliver`, `anti_entropy`) in
    /// `obs.stages`.
    ///
    /// # Errors
    ///
    /// Fails when the membership is invalid (see
    /// [`ClusterConfig::membership`]) or a worker cannot spawn.
    pub fn start(
        config: ClusterConfig,
        stats: Arc<ClusterStats>,
        obs: ClusterObs,
    ) -> io::Result<Cluster> {
        let addrs = config.membership()?;
        let identities: Vec<String> = addrs.keys().cloned().collect();
        let peers: Vec<String> = identities
            .iter()
            .filter(|p| **p != config.self_addr)
            .cloned()
            .collect();
        let shared = Arc::new(Shared {
            ring: Ring::new(identities),
            self_addr: config.self_addr,
            addrs,
            timeout: config.timeout,
            retry_queue_max: config.retry_queue_max.max(1),
            anti_entropy_interval: config.anti_entropy_interval,
            health: Health::new(
                config.detector,
                &peers,
                Arc::clone(&stats),
                Arc::clone(&obs.log),
            ),
            stats,
            repl: ReplState {
                queues: Mutex::new(HashMap::new()),
                ready: Condvar::new(),
                stop: AtomicBool::new(false),
            },
            source: Mutex::new(None),
            obs,
        });
        let mut workers = Vec::new();
        {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name("svc-replicator".to_owned())
                    .spawn(move || replicator_loop(&shared))?,
            );
        }
        if !shared.anti_entropy_interval.is_zero() {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name("svc-anti-entropy".to_owned())
                    .spawn(move || anti_entropy_loop(&shared))?,
            );
        }
        Ok(Cluster {
            shared,
            workers: Mutex::new(workers),
        })
    }

    /// This node's ring identity.
    #[must_use]
    pub fn self_addr(&self) -> &str {
        &self.shared.self_addr
    }

    /// The ring (for tests and diagnostics).
    #[must_use]
    pub fn ring(&self) -> &Ring {
        &self.shared.ring
    }

    /// The cluster counters.
    #[must_use]
    pub fn stats(&self) -> &Arc<ClusterStats> {
        &self.shared.stats
    }

    /// Connects the anti-entropy sweep to the record store it
    /// re-replicates from. Called once the engine owning this cluster
    /// is constructed; sweeps before then are no-ops.
    pub fn bind_source(&self, source: Weak<dyn RecordSource>) {
        *self.shared.source.lock().expect("source lock") = Some(source);
    }

    /// The failure detector's view of every peer, sorted by identity.
    #[must_use]
    pub fn health_snapshot(&self) -> Vec<PeerHealth> {
        self.shared.health.snapshot()
    }

    /// Queued replication deliveries per peer.
    #[must_use]
    pub fn retry_depths(&self) -> BTreeMap<String, usize> {
        let queues = self.shared.repl.queues.lock().expect("replication lock");
        queues
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(peer, q)| (peer.clone(), q.len()))
            .collect()
    }

    /// Whether this node persists records for `id` on its disk tier:
    /// true when it is the owner or the owner's successor.
    #[must_use]
    pub fn stores_locally(&self, id: &str) -> bool {
        self.shared
            .ring
            .owner_chain(id, 2)
            .iter()
            .any(|n| *n == self.shared.self_addr)
    }

    /// Peer cache-fill: asks the owner (then the successor) of `id`
    /// for its stored record. Returns the output only when a peer
    /// answered with an envelope whose canonical key matches `key` —
    /// anything else (miss, dead peer, key mismatch) falls back to
    /// local compute by returning `None`. Peers the detector holds
    /// Down are skipped in O(1) unless their probe window elapsed.
    ///
    /// Each lookup attempt records a `peer_fill` span under `trace`
    /// and forwards the trace to the peer in `X-Noc-Trace` /
    /// `X-Noc-Span`, so the peer's serving span joins the same tree.
    #[must_use]
    pub fn fill(&self, id: &str, key: &str, trace: &TraceCtx) -> Option<JobOutput> {
        let shared = &self.shared;
        let chain: Vec<&str> = shared
            .ring
            .owner_chain(id, 2)
            .into_iter()
            .filter(|n| *n != shared.self_addr)
            .collect();
        if chain.is_empty() {
            return None;
        }
        for peer in chain {
            let now = shared.health.now_ms();
            if shared.health.decide(peer, now) == Decision::Skip {
                shared.stats.peer_fill_skips.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let Some(addr) = shared.addrs.get(peer).copied() else {
                continue;
            };
            let mut client = Client::with_timeout(addr, shared.timeout);
            let hop = shared.obs.recorder.child(trace);
            let started = Instant::now();
            let path = format!("/v1/internal/lookup/{id}");
            let result = if hop.is_traced() {
                client.get_with_headers(
                    &path,
                    &[
                        (crate::api::TRACE_HEADER, &hop.id),
                        (crate::api::SPAN_HEADER, &format!("{:x}", hop.span)),
                    ],
                )
            } else {
                client.get(&path)
            };
            let wall_us = span_us(started);
            match result {
                Ok(resp) if resp.status == 200 => {
                    shared.health.success(peer);
                    match serde_json::from_str::<RecordEnvelope>(&resp.body) {
                        Ok(envelope) if envelope.key == key => {
                            shared.stats.peer_fills.fetch_add(1, Ordering::Relaxed);
                            shared
                                .obs
                                .recorder
                                .record(&hop, "peer_fill", "hit", wall_us);
                            return Some(envelope.into_output());
                        }
                        // A non-matching key is a hash collision or a
                        // corrupt peer — never serve those bytes.
                        Ok(_) | Err(_) => {
                            shared
                                .stats
                                .peer_fill_errors
                                .fetch_add(1, Ordering::Relaxed);
                            shared
                                .obs
                                .recorder
                                .record(&hop, "peer_fill", "error", wall_us);
                        }
                    }
                }
                // A 404 is a healthy peer that misses — not a failure.
                Ok(resp) if resp.status == 404 => {
                    shared.health.success(peer);
                    shared
                        .obs
                        .recorder
                        .record(&hop, "peer_fill", "miss", wall_us);
                }
                Ok(_) | Err(_) => {
                    shared.health.failure(peer);
                    shared
                        .stats
                        .peer_fill_errors
                        .fetch_add(1, Ordering::Relaxed);
                    shared
                        .obs
                        .recorder
                        .record(&hop, "peer_fill", "error", wall_us);
                }
            }
        }
        shared
            .stats
            .peer_fill_misses
            .fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Enqueues delivery of a finished record to the owner and
    /// successor of `id` (excluding this node). Never blocks: a full
    /// per-peer queue drops its *oldest* entry (counted as overflow)
    /// to make room. The originating request's `trace` rides with
    /// each queued entry so the eventual delivery span joins its
    /// tree.
    pub fn replicate(&self, id: &str, key: &str, output: &JobOutput, trace: &TraceCtx) {
        let shared = &self.shared;
        if shared.repl.stop.load(Ordering::Acquire) {
            return;
        }
        let targets: Vec<String> = shared
            .ring
            .owner_chain(id, 2)
            .into_iter()
            .filter(|n| *n != shared.self_addr)
            .map(str::to_owned)
            .collect();
        if targets.is_empty() {
            return;
        }
        let envelope = Arc::new(
            serde_json::to_string(&RecordEnvelope::from_output(key, output))
                .expect("envelope serialization is infallible"),
        );
        for peer in targets {
            enqueue(shared, &peer, id, &envelope, trace);
        }
    }

    /// Stops the workers — the replicator makes one last delivery
    /// pass over the backlog — and joins them. Idempotent.
    pub fn shutdown(&self) {
        self.shared.repl.stop.store(true, Ordering::Release);
        self.shared.repl.ready.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().expect("worker lock"));
        for worker in workers {
            let _ = worker.join();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Pushes one entry onto `peer`'s retry queue, dropping the oldest
/// entry past the bound, and wakes the delivery thread.
fn enqueue(shared: &Shared, peer: &str, hash: &str, envelope: &Arc<String>, trace: &TraceCtx) {
    let mut queues = shared.repl.queues.lock().expect("replication lock");
    let queue = queues.entry(peer.to_owned()).or_default();
    if queue.len() >= shared.retry_queue_max {
        queue.pop_front();
        shared
            .stats
            .replication_overflow
            .fetch_add(1, Ordering::Relaxed);
    }
    queue.push_back(ReplEntry {
        hash: hash.to_owned(),
        envelope: Arc::clone(envelope),
        trace: Arc::clone(&trace.id),
        parent_span: trace.span,
    });
    publish_lag(shared, &queues);
    drop(queues);
    shared.repl.ready.notify_one();
}

fn publish_lag(shared: &Shared, queues: &HashMap<String, VecDeque<ReplEntry>>) {
    let lag: usize = queues.values().map(VecDeque::len).sum();
    shared
        .stats
        .replication_lag
        .store(lag as u64, Ordering::Relaxed);
}

/// POSTs one queued record to its peer, recording a
/// `replication_deliver` span under the entry's originating trace
/// and feeding the `replication_deliver` stage histogram.
fn deliver(shared: &Shared, client: &mut Client, entry: &ReplEntry) -> bool {
    let hop = shared
        .obs
        .recorder
        .child_of(&entry.trace, entry.parent_span);
    let started = Instant::now();
    let path = format!("/v1/internal/record/{}", entry.hash);
    let result = if hop.is_traced() {
        client.post_with_headers(
            &path,
            entry.envelope.as_str(),
            &[
                (crate::api::TRACE_HEADER, &hop.id),
                (crate::api::SPAN_HEADER, &format!("{:x}", hop.span)),
            ],
        )
    } else {
        client.post(&path, entry.envelope.as_str())
    };
    let ok = matches!(result, Ok(resp) if resp.status == 200);
    shared
        .obs
        .stages
        .observe("replication_deliver", started.elapsed().as_secs_f64());
    shared.obs.recorder.record(
        &hop,
        "replication_deliver",
        if ok { "sent" } else { "failed" },
        span_us(started),
    );
    ok
}

/// The delivery thread: pops retryable records peer by peer and POSTs
/// them over per-peer keep-alive connections. A failed delivery goes
/// back to the *front* of its queue — order is preserved — and the
/// detector decides when the peer is worth another attempt, so a dead
/// peer costs one backoff-gated probe per window instead of a timeout
/// per record. Exits after one final delivery pass once stopped.
fn replicator_loop(shared: &Shared) {
    let mut clients: HashMap<String, Client> = HashMap::new();
    loop {
        let (peer, entry) = {
            let mut queues = shared.repl.queues.lock().expect("replication lock");
            loop {
                if shared.repl.stop.load(Ordering::Acquire) {
                    let rest = std::mem::take(&mut *queues);
                    drop(queues);
                    drain_on_stop(shared, &mut clients, rest);
                    return;
                }
                let now = shared.health.now_ms();
                let mut backlog: Vec<&String> = queues
                    .iter()
                    .filter(|(_, q)| !q.is_empty())
                    .map(|(peer, _)| peer)
                    .collect();
                backlog.sort();
                let mut wait_ms: Option<u64> = None;
                let mut picked: Option<String> = None;
                for peer in backlog {
                    match shared.health.decide(peer, now) {
                        Decision::Use | Decision::Probe => {
                            picked = Some(peer.clone());
                            break;
                        }
                        Decision::Skip => {
                            let due = shared.health.probe_in_ms(peer, now).max(1);
                            wait_ms = Some(wait_ms.map_or(due, |w| w.min(due)));
                        }
                    }
                }
                if let Some(peer) = picked {
                    if let Some(entry) = queues.get_mut(&peer).and_then(VecDeque::pop_front) {
                        publish_lag(shared, &queues);
                        break (peer, entry);
                    }
                }
                queues = match wait_ms {
                    // No backlog at all: sleep until a push or stop.
                    None => shared.repl.ready.wait(queues).expect("replication lock"),
                    // Backlog exists but every peer is backing off:
                    // sleep until the earliest probe window (capped so
                    // new pushes for live peers are noticed promptly).
                    Some(ms) => {
                        shared
                            .repl
                            .ready
                            .wait_timeout(queues, Duration::from_millis(ms.min(250)))
                            .expect("replication lock")
                            .0
                    }
                };
            }
        };
        let Some(addr) = shared.addrs.get(&peer).copied() else {
            continue;
        };
        let client = clients
            .entry(peer.clone())
            .or_insert_with(|| Client::with_timeout(addr, shared.timeout));
        if deliver(shared, client, &entry) {
            shared
                .stats
                .replication_sent
                .fetch_add(1, Ordering::Relaxed);
            shared.health.success(&peer);
        } else {
            shared
                .stats
                .replication_delivery_failures
                .fetch_add(1, Ordering::Relaxed);
            shared.health.failure(&peer);
            let mut queues = shared.repl.queues.lock().expect("replication lock");
            queues.entry(peer).or_default().push_front(entry);
            publish_lag(shared, &queues);
        }
    }
}

/// The final pass at shutdown: each peer's backlog is attempted in
/// order until its first failure, then the remainder is counted as
/// failed — a clean shutdown never abandons deliverable work, and a
/// dead peer costs one timeout instead of one per record.
fn drain_on_stop(
    shared: &Shared,
    clients: &mut HashMap<String, Client>,
    queues: HashMap<String, VecDeque<ReplEntry>>,
) {
    let mut peers: Vec<(String, VecDeque<ReplEntry>)> = queues.into_iter().collect();
    peers.sort_by(|a, b| a.0.cmp(&b.0));
    for (peer, mut queue) in peers {
        let Some(addr) = shared.addrs.get(&peer).copied() else {
            continue;
        };
        let client = clients
            .entry(peer.clone())
            .or_insert_with(|| Client::with_timeout(addr, shared.timeout));
        while let Some(entry) = queue.pop_front() {
            if deliver(shared, client, &entry) {
                shared
                    .stats
                    .replication_sent
                    .fetch_add(1, Ordering::Relaxed);
            } else {
                let abandoned = 1 + queue.len() as u64;
                shared
                    .stats
                    .replication_delivery_failures
                    .fetch_add(abandoned, Ordering::Relaxed);
                break;
            }
        }
    }
    shared.stats.replication_lag.store(0, Ordering::Relaxed);
}

/// The anti-entropy thread: sleeps the configured interval (waking
/// early on stop), then sweeps every peer.
fn anti_entropy_loop(shared: &Arc<Shared>) {
    loop {
        if sleep_until_stop(shared, shared.anti_entropy_interval) {
            return;
        }
        let source = shared
            .source
            .lock()
            .expect("source lock")
            .clone()
            .and_then(|weak| weak.upgrade());
        if let Some(source) = source {
            sweep(shared, source.as_ref());
        }
    }
}

/// Returns `true` when stop was requested before `period` elapsed.
fn sleep_until_stop(shared: &Shared, period: Duration) -> bool {
    let deadline = Instant::now() + period;
    loop {
        if shared.repl.stop.load(Ordering::Acquire) {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// One anti-entropy round: for every peer that should hold some of
/// our records (it is in their owner chain), fetch its digest and
/// re-enqueue whatever it is missing. Down peers are skipped unless
/// their probe window elapsed — the digest fetch then doubles as the
/// probe.
fn sweep(shared: &Shared, source: &dyn RecordSource) {
    // Each round gets its own freshly minted trace: re-enqueued
    // repairs then show up as `replication_deliver` spans under one
    // `anti_entropy` root per round.
    let round = shared.obs.recorder.mint();
    let round_started = Instant::now();
    let mut repaired = false;
    let held = source.held_ids();
    if !held.is_empty() {
        for peer in shared.ring.nodes() {
            if *peer == shared.self_addr || shared.repl.stop.load(Ordering::Acquire) {
                continue;
            }
            let candidates: Vec<&String> = held
                .iter()
                .filter(|id| shared.ring.owner_chain(id, 2).contains(&peer.as_str()))
                .collect();
            if candidates.is_empty() {
                continue;
            }
            let now = shared.health.now_ms();
            if shared.health.decide(peer, now) == Decision::Skip {
                continue;
            }
            let Some(addr) = shared.addrs.get(peer).copied() else {
                continue;
            };
            let mut client = Client::with_timeout(addr, shared.timeout);
            let digest = match client.get("/v1/internal/digest") {
                Ok(resp) if resp.status == 200 => {
                    match serde_json::from_str::<Digest>(&resp.body) {
                        Ok(digest) => {
                            shared.health.success(peer);
                            digest
                        }
                        Err(_) => {
                            shared.health.failure(peer);
                            continue;
                        }
                    }
                }
                Ok(_) | Err(_) => {
                    shared.health.failure(peer);
                    continue;
                }
            };
            let have: HashSet<&str> = digest.ids.iter().map(String::as_str).collect();
            for id in candidates {
                if have.contains(id.as_str()) {
                    continue;
                }
                let Some((key, output)) = source.fetch(id) else {
                    continue;
                };
                let envelope = Arc::new(
                    serde_json::to_string(&RecordEnvelope::from_output(&key, &output))
                        .expect("envelope serialization is infallible"),
                );
                enqueue(shared, peer, id, &envelope, &round);
                repaired = true;
                shared
                    .stats
                    .anti_entropy_repairs
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    shared
        .stats
        .anti_entropy_rounds
        .fetch_add(1, Ordering::Relaxed);
    shared
        .obs
        .stages
        .observe("anti_entropy", round_started.elapsed().as_secs_f64());
    // Only rounds that actually repaired something keep their trace —
    // an idle cluster must not fill the recorder with empty rounds.
    if repaired {
        shared
            .obs
            .recorder
            .record(&round, "anti_entropy", "repaired", span_us(round_started));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trips_output() {
        let mut output = JobOutput::new(Arc::new("{\"x\":1}".to_owned()));
        output.degraded = true;
        output.stats = Some(Arc::new("{\"stages\":[]}".to_owned()));
        let envelope = RecordEnvelope::from_output("{\"graph\":{}}", &output);
        let json = serde_json::to_string(&envelope).expect("serializes");
        let back: RecordEnvelope = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.key, "{\"graph\":{}}");
        let restored = back.into_output();
        assert_eq!(restored.body.as_str(), output.body.as_str());
        assert!(restored.degraded);
        assert_eq!(
            restored.stats.as_deref().map(String::as_str),
            Some("{\"stages\":[]}")
        );
    }

    #[test]
    fn stores_locally_tracks_the_owner_chain() {
        let peers = vec![
            "127.0.0.1:9101".to_owned(),
            "127.0.0.1:9102".to_owned(),
            "127.0.0.1:9103".to_owned(),
        ];
        let clusters: Vec<Cluster> = peers
            .iter()
            .map(|p| {
                Cluster::start(
                    ClusterConfig::new(p.clone(), peers.clone()),
                    Arc::new(ClusterStats::default()),
                    ClusterObs::default(),
                )
                .expect("cluster starts")
            })
            .collect();
        for i in 0..64 {
            let id = crate::hash::content_hash(&format!("job-{i}"));
            let holders = clusters.iter().filter(|c| c.stores_locally(&id)).count();
            assert_eq!(holders, 2, "exactly owner + successor persist {id}");
        }
    }

    #[test]
    fn duplicate_ring_identities_for_one_address_are_rejected() {
        // `09001` and `9001` parse to the same socket address but are
        // distinct ring identities — the silent double-position bug.
        let config = ClusterConfig::new(
            "127.0.0.1:09001".to_owned(),
            vec!["127.0.0.1:9001".to_owned(), "127.0.0.1:9002".to_owned()],
        );
        let err = config.membership().expect_err("must reject");
        assert!(
            matches!(err, ClusterConfigError::DuplicateAddress { .. }),
            "got {err:?}"
        );
        let err = match Cluster::start(
            config,
            Arc::new(ClusterStats::default()),
            ClusterObs::default(),
        ) {
            Ok(_) => panic!("start must reject too"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);

        // A plain string duplicate is legal — it dedups to one
        // identity, as documented.
        let config = ClusterConfig::new(
            "127.0.0.1:9001".to_owned(),
            vec!["127.0.0.1:9001".to_owned(), "127.0.0.1:9002".to_owned()],
        );
        assert_eq!(config.membership().expect("valid").len(), 2);

        let config = ClusterConfig::new("not-an-addr".to_owned(), vec![]);
        assert!(matches!(
            config.membership().expect_err("must reject"),
            ClusterConfigError::BadPeer { .. }
        ));
    }

    #[test]
    fn replication_to_a_dead_peer_counts_failures_not_hangs() {
        let peers = vec!["127.0.0.1:9111".to_owned(), "127.0.0.1:9112".to_owned()];
        let stats = Arc::new(ClusterStats::default());
        let mut config = ClusterConfig::new(peers[0].clone(), peers.clone());
        config.timeout = Duration::from_millis(200);
        let cluster = Cluster::start(config, Arc::clone(&stats), ClusterObs::default())
            .expect("cluster starts");
        let id = crate::hash::content_hash("{\"k\":1}");
        cluster.replicate(
            &id,
            "{\"k\":1}",
            &JobOutput::new(Arc::new("{}".to_owned())),
            &TraceCtx::untraced(),
        );
        cluster.shutdown();
        assert_eq!(stats.replication_sent.load(Ordering::Relaxed), 0);
        assert!(stats.replication_delivery_failures.load(Ordering::Relaxed) >= 1);
        assert_eq!(stats.replication_lag.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn full_retry_queue_drops_the_oldest_record() {
        let peers = vec!["127.0.0.1:9121".to_owned(), "127.0.0.1:9122".to_owned()];
        let stats = Arc::new(ClusterStats::default());
        let mut config = ClusterConfig::new(peers[0].clone(), peers.clone());
        config.retry_queue_max = 3;
        config.timeout = Duration::from_millis(200);
        let cluster = Cluster::start(config, Arc::clone(&stats), ClusterObs::default())
            .expect("cluster starts");
        // Hold the peer Down with a long backoff so the replicator
        // cannot drain while we fill the queue past its bound.
        for _ in 0..10 {
            cluster.shared.health.failure(&peers[1]);
        }
        let output = JobOutput::new(Arc::new("{}".to_owned()));
        let ids: Vec<String> = (0..5)
            .map(|i| {
                let key = format!("{{\"k\":{i}}}");
                let id = crate::hash::content_hash(&key);
                cluster.replicate(&id, &key, &output, &TraceCtx::untraced());
                id
            })
            .collect();
        {
            let queues = cluster.shared.repl.queues.lock().expect("lock");
            let queue = &queues[&peers[1]];
            let queued: Vec<&str> = queue.iter().map(|e| e.hash.as_str()).collect();
            assert_eq!(
                queued,
                vec![ids[2].as_str(), ids[3].as_str(), ids[4].as_str()],
                "overflow must drop the oldest records, keeping the newest"
            );
        }
        assert_eq!(stats.replication_overflow.load(Ordering::Relaxed), 2);
        assert_eq!(stats.replication_lag.load(Ordering::Relaxed), 3);
        assert_eq!(
            cluster.retry_depths().get(&peers[1]),
            Some(&3usize),
            "retry depth reflects the bounded backlog"
        );
        // Shutdown's final pass attempts the dead peer once and
        // abandons the rest — no hang, lag drains to zero.
        cluster.shutdown();
        assert_eq!(stats.replication_lag.load(Ordering::Relaxed), 0);
    }
}

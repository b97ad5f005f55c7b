//! Admission: the one entry point for `POST /v1/schedule` and
//! `POST /v1/schedule/delta` bodies, and the keying that journal replay
//! shares with it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Value};

use noc_ctg::prelude::TaskGraph;
use noc_eas::prelude::{apply_edits, apply_platform_edits, Edit};

use super::{Engine, Job, JobPhase, JobWork, ScheduleWork, Submission};
use crate::api::{
    DeltaRequest, Presentation, ScheduleKey, ScheduleRequest, ValidateRequest, ValidateResponse,
};
use crate::hash::ContentHash;
use crate::journal::Record;
use crate::obs::{LogLevel, TraceCtx};
use crate::queue::PushError;
use crate::spec::PlatformSpec;

/// The endpoint that admitted a body. It decides how the body is keyed
/// and what it builds, at admission and again at journal replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// `POST /v1/schedule`: a [`ScheduleRequest`].
    Schedule,
    /// `POST /v1/schedule/delta`: a [`DeltaRequest`].
    Delta,
}

impl RequestKind {
    /// Keys `body` the way this kind's endpoint does. A schedule key is
    /// written in one pass over the bytes, so a store hit builds
    /// nothing, not even a value tree; a body the pass does not accept
    /// is decoded instead, and answered 400 as the decode fails. A delta
    /// body is decoded, and its key holds the prior request as the
    /// content hash of the prior's key.
    pub(super) fn key(self, body: &str) -> Result<Keyed, Submission> {
        let (key, presentation, request, delta) = match self {
            RequestKind::Schedule => match ScheduleKey::scan(body) {
                Some(scan) => (scan.key, scan.presentation, None, None),
                None => {
                    let request: ScheduleRequest = decode_body(body)?;
                    let (key, presentation) = (request.canonical_key(), request.presentation());
                    (key, presentation, Some(request), None)
                }
            },
            RequestKind::Delta => {
                let request: DeltaRequest = decode_body(body)?;
                let prior = request.prior_request().map_err(Submission::BadSpec)?;
                let prior_key = prior.canonical_key();
                let prior_hash = ContentHash::of(&prior_key);
                let key = request.canonical_key_for(&prior_hash.to_string());
                let presentation = request.presentation();
                let delta = (request.edits, prior_key, prior_hash);
                (key, presentation, Some(prior), Some(delta))
            }
        };
        Ok(Keyed {
            hash: ContentHash::of(&key),
            key,
            presentation,
            request,
            delta,
        })
    }
}

/// A body keyed the way its endpoint keys it; nothing is built yet.
pub(super) struct Keyed {
    /// The canonical request, which is the store key.
    pub(super) key: String,
    /// The key's content hash, which is the job id.
    pub(super) hash: ContentHash,
    presentation: Presentation,
    /// The schedule request, or a delta's prior request, when keying
    /// decoded it.
    request: Option<ScheduleRequest>,
    /// A delta's edits, its prior's canonical key and that key's hash.
    delta: Option<(Value, String, ContentHash)>,
}

impl Keyed {
    /// Builds the runnable work: graph, platform and scheduler, and for
    /// a delta its prior's, with the edits applied to the prior's graph
    /// and platform. The body is decoded by value first (the graph moves
    /// out of the parsed tree) when keying did not decode it. Returns the
    /// work with the key it runs under.
    pub(super) fn build(self, body: &str) -> Result<(JobWork, String), Submission> {
        let request = match self.request {
            Some(request) => request,
            None => decode_body(body)?,
        };
        let work = match self.delta {
            None => resolve(&request, "graph").map(JobWork::Schedule),
            Some((edits, prior_key, prior_hash)) => {
                resolve(&request, "prior graph").and_then(|prior| {
                    let edits = Vec::<Edit>::from_value(&edits)
                        .map_err(|e| format!("invalid edits: {e}"))?;
                    let inapplicable = |e| format!("inapplicable edits: {e}");
                    let applied = apply_edits(&prior.graph, &edits).map_err(inapplicable)?;
                    let platform =
                        apply_platform_edits(&prior.platform, &edits).map_err(inapplicable)?;
                    Ok(JobWork::Delta {
                        prior: Box::new(prior),
                        prior_key,
                        prior_hash,
                        platform: Box::new(platform),
                        applied,
                    })
                })
            }
        };
        Ok((work.map_err(Submission::BadSpec)?, self.key))
    }
}

/// Builds a schedule request, or a delta's prior: graph, platform and
/// scheduler. A graph that does not build is named `graph_label` in
/// the error.
fn resolve(request: &ScheduleRequest, graph_label: &str) -> Result<ScheduleWork, String> {
    let spec = PlatformSpec::parse(&request.platform, request.faults.as_deref())?;
    let graph =
        TaskGraph::from_value(&request.graph).map_err(|e| format!("invalid {graph_label}: {e}"))?;
    let platform = spec.build_for(graph.pe_count())?;
    let scheduler_name = request.scheduler_name().to_owned();
    let scheduler = crate::spec::parse_scheduler(&scheduler_name, 1)?;
    Ok(ScheduleWork {
        graph,
        platform,
        scheduler,
        scheduler_name,
    })
}

/// Decodes a `POST /v1/schedule` or `/v1/schedule/delta` body, or
/// returns the [`Submission::BadRequest`] its 400 answer reports.
fn decode_body<T: Deserialize>(body: &str) -> Result<T, Submission> {
    serde_json::from_str(body)
        .map_err(|e| Submission::BadRequest(format!("invalid request body: {e}")))
}

impl Engine {
    /// Admits one body of the endpoint `kind` names, under the
    /// request's trace context (peer fills and worker-side spans attach
    /// to it), and returns the presentation members the body carried.
    /// `body` is kept verbatim for the write-ahead journal.
    #[must_use]
    pub fn submit(
        &self,
        kind: RequestKind,
        body: &str,
        trace: &TraceCtx,
    ) -> (Submission, Presentation) {
        // Key → store lookup → decode → build. A miss builds every spec
        // *before* peer fill, single-flight and queue, so a request that
        // can never schedule is answered 422 and is never peer-filled,
        // coalesced or admitted.
        let keyed = match kind.key(body) {
            Ok(keyed) => keyed,
            Err(bad) => return (bad, Presentation::default()),
        };
        let (hash, presentation) = (keyed.hash, keyed.presentation);
        if let Some(hit) = self.store_hit(hash, &keyed.key) {
            return (hit, presentation);
        }
        let submission = match keyed.build(body) {
            Ok((work, key)) => self.admit(body, work, hash, key, presentation.is_async, trace),
            Err(bad) => bad,
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
}

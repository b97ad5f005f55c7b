//! Service metrics, rendered in Prometheus text exposition format.
//!
//! All counters are monotone and cheap (`AtomicU64`); the per-endpoint
//! request table and the scheduling-latency histogram sit behind a
//! mutex taken only on the affected events. Rendering iterates sorted
//! containers so `/metrics` output is deterministic for a given state —
//! the service's byte-stability discipline extends to its
//! observability surface.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::cluster::ClusterStats;
use crate::net::ReactorStats;
use crate::obs::LogCounters;
use crate::store::StoreStats;

/// Upper bounds (seconds) of the scheduling-latency histogram buckets;
/// an implicit `+Inf` bucket completes the set.
const LATENCY_BUCKETS: [f64; 12] = [
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
];

#[derive(Debug, Default)]
struct Histogram {
    /// Cumulative counts per bucket of [`LATENCY_BUCKETS`] (non-Inf).
    buckets: [u64; LATENCY_BUCKETS.len()],
    count: u64,
    sum: f64,
}

fn observe(h: &mut Histogram, seconds: f64) {
    h.count += 1;
    h.sum += seconds;
    for (i, bound) in LATENCY_BUCKETS.iter().enumerate() {
        if seconds <= *bound {
            h.buckets[i] += 1;
        }
    }
}

/// The service-wide metrics registry.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests served, keyed by (normalized endpoint, status code).
    requests: Mutex<BTreeMap<(String, u16), u64>>,
    /// Schedule-cache hits (response served from memory).
    pub cache_hits: AtomicU64,
    /// Schedule-cache misses (a scheduling job ran or was joined).
    pub cache_misses: AtomicU64,
    /// Requests coalesced onto an identical in-flight job
    /// (single-flight; counted in addition to the cache miss).
    pub coalesced: AtomicU64,
    /// Submissions rejected with 429 because the job queue was full.
    pub queue_rejected: AtomicU64,
    /// Scheduling jobs actually executed (cache misses that ran).
    pub schedules_executed: AtomicU64,
    /// Scheduling jobs that failed with a scheduler error.
    pub schedule_errors: AtomicU64,
    /// Jobs answered by the degraded EDF fallback after the compute
    /// budget expired.
    pub degraded: AtomicU64,
    /// Delta jobs answered by a warm start (prior schedule rebased and
    /// repaired).
    pub delta_warm: AtomicU64,
    /// Delta jobs that fell back to a full reschedule (or the degraded
    /// EDF fallback).
    pub delta_fallback: AtomicU64,
    /// Delta jobs whose prior schedule was served from the cache
    /// (misses recompute the prior first).
    pub delta_prior_hits: AtomicU64,
    /// Scheduler panics caught and isolated to their own job.
    pub worker_panics: AtomicU64,
    /// Journal records applied during startup crash recovery.
    pub journal_replayed: AtomicU64,
    /// Journal records dropped by startup compaction (their response
    /// bytes are durable in the schedule store).
    pub journal_compacted: AtomicU64,
    /// Counters of the persistent schedule store, shared with the
    /// store itself; set once when a `--store-dir` is configured. The
    /// whole `noc_svc_store_*` family is omitted from `/metrics` until
    /// then.
    store: OnceLock<Arc<StoreStats>>,
    /// Counters of the cluster layer (peer fill, replication), set
    /// once when `--peers` configures multi-node mode; the
    /// `noc_svc_cluster_*` family is omitted until then.
    cluster: OnceLock<Arc<ClusterStats>>,
    /// Gauges and counters of the nonblocking reactor, set once when
    /// a server starts its event loops; the `noc_svc_reactor_*` family
    /// is omitted for an engine run without a server.
    reactor: OnceLock<Arc<ReactorStats>>,
    /// Current job-queue depth (gauge, maintained by the engine).
    pub queue_depth: AtomicU64,
    /// Jobs currently executing on scheduler workers (gauge). Together
    /// with [`queue_depth`](Metrics::queue_depth) this makes queue
    /// saturation observable *before* 429s fire.
    pub jobs_inflight: AtomicU64,
    latency: Mutex<Histogram>,
    /// Per-stage execution time, keyed by stage name — the scheduling
    /// pipeline stages (`budgeting`, `level`, `comm`, `repair`,
    /// `anneal`, `validate`) fed from the trace spans of every
    /// executed job, plus the distributed serving stages
    /// (`peer_fill`, `replication_deliver`, `anti_entropy`). Shared
    /// with [`StageObserver`] handles held by cluster worker threads.
    stages: Arc<Mutex<BTreeMap<String, Histogram>>>,
    /// Structured service-log events per level, shared with the
    /// [`crate::obs::ServiceLog`]; rendered as
    /// `noc_svc_log_events_total{level}`.
    log_events: Arc<LogCounters>,
}

/// A cheap cloneable handle for recording stage latencies from
/// threads that do not hold the [`Metrics`] registry (the cluster's
/// replicator and anti-entropy workers).
#[derive(Clone, Default)]
pub struct StageObserver {
    stages: Arc<Mutex<BTreeMap<String, Histogram>>>,
}

impl StageObserver {
    /// A handle whose observations go nowhere visible (its map is
    /// never rendered) — the default for clusters built without an
    /// engine.
    #[must_use]
    pub fn disabled() -> StageObserver {
        StageObserver::default()
    }

    /// Records one stage execution time, in seconds.
    pub fn observe(&self, stage: &str, seconds: f64) {
        let mut stages = self.stages.lock().expect("metrics lock");
        let h = stages.entry(stage.to_owned()).or_default();
        observe(h, seconds);
    }
}

impl Metrics {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Counts one served request for `endpoint` with `status`.
    pub fn record_request(&self, endpoint: &str, status: u16) {
        let mut table = self.requests.lock().expect("metrics lock");
        *table.entry((endpoint.to_owned(), status)).or_insert(0) += 1;
    }

    /// Registers the persistent store's counters for rendering. Called
    /// once at engine startup when a store directory is configured;
    /// later calls are ignored.
    pub fn set_store_stats(&self, stats: Arc<StoreStats>) {
        let _ = self.store.set(stats);
    }

    /// Registers the cluster layer's counters for rendering. Called
    /// once at engine startup in multi-node mode; later calls are
    /// ignored.
    pub fn set_cluster_stats(&self, stats: Arc<ClusterStats>) {
        let _ = self.cluster.set(stats);
    }

    /// Registers the reactor's counters for rendering. Called once
    /// when the reactor entry path starts; later calls are ignored.
    pub fn set_reactor_stats(&self, stats: Arc<ReactorStats>) {
        let _ = self.reactor.set(stats);
    }

    /// A cloneable handle onto the stage-latency histograms, for
    /// worker threads that do not hold the registry.
    #[must_use]
    pub fn stage_observer(&self) -> StageObserver {
        StageObserver {
            stages: Arc::clone(&self.stages),
        }
    }

    /// The service-log level counters this registry renders; shared
    /// with the [`crate::obs::ServiceLog`] so logged events surface
    /// as `noc_svc_log_events_total{level}`.
    #[must_use]
    pub fn log_counters(&self) -> Arc<LogCounters> {
        Arc::clone(&self.log_events)
    }

    /// Records one scheduling execution latency, in seconds.
    pub fn observe_latency(&self, seconds: f64) {
        let mut h = self.latency.lock().expect("metrics lock");
        observe(&mut h, seconds);
    }

    /// Records the execution time of one pipeline stage of a job.
    pub fn observe_stage(&self, stage: &str, seconds: f64) {
        let mut stages = self.stages.lock().expect("metrics lock");
        let h = stages.entry(stage.to_owned()).or_default();
        observe(h, seconds);
    }

    /// Renders the registry in Prometheus text exposition format.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();

        out.push_str(&format!(
            "# HELP noc_svc_build_info Build metadata of the running service.\n\
             # TYPE noc_svc_build_info gauge\n\
             noc_svc_build_info{{version=\"{}\",git_hash=\"{}\"}} 1\n",
            env!("CARGO_PKG_VERSION"),
            option_env!("NOC_GIT_HASH").unwrap_or("unknown"),
        ));

        out.push_str(
            "# HELP noc_svc_requests_total HTTP requests served, by endpoint and status.\n\
             # TYPE noc_svc_requests_total counter\n",
        );
        for ((endpoint, status), count) in self.requests.lock().expect("metrics lock").iter() {
            out.push_str(&format!(
                "noc_svc_requests_total{{endpoint=\"{endpoint}\",status=\"{status}\"}} {count}\n"
            ));
        }

        let counter = |out: &mut String, name: &str, help: &str, v: &AtomicU64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {}\n",
                v.load(Ordering::Relaxed)
            ));
        };
        let gauge = |out: &mut String, name: &str, help: &str, v: &AtomicU64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {}\n",
                v.load(Ordering::Relaxed)
            ));
        };
        counter(
            &mut out,
            "noc_svc_cache_hits_total",
            "Schedule-cache hits.",
            &self.cache_hits,
        );
        counter(
            &mut out,
            "noc_svc_cache_misses_total",
            "Schedule-cache misses.",
            &self.cache_misses,
        );
        counter(
            &mut out,
            "noc_svc_requests_coalesced_total",
            "Requests coalesced onto an identical in-flight job.",
            &self.coalesced,
        );
        counter(
            &mut out,
            "noc_svc_queue_rejected_total",
            "Submissions rejected with 429 (queue full).",
            &self.queue_rejected,
        );
        counter(
            &mut out,
            "noc_svc_schedules_executed_total",
            "Scheduling jobs executed.",
            &self.schedules_executed,
        );
        counter(
            &mut out,
            "noc_svc_schedule_errors_total",
            "Scheduling jobs that failed.",
            &self.schedule_errors,
        );
        counter(
            &mut out,
            "noc_svc_degraded_total",
            "Jobs answered by the degraded EDF fallback (budget expired).",
            &self.degraded,
        );
        counter(
            &mut out,
            "noc_svc_delta_warm_total",
            "Delta jobs answered by a warm start.",
            &self.delta_warm,
        );
        counter(
            &mut out,
            "noc_svc_delta_fallback_total",
            "Delta jobs that fell back to a full reschedule.",
            &self.delta_fallback,
        );
        counter(
            &mut out,
            "noc_svc_delta_prior_hits_total",
            "Delta jobs whose prior schedule came from the cache.",
            &self.delta_prior_hits,
        );
        counter(
            &mut out,
            "noc_svc_worker_panics_total",
            "Scheduler panics caught and isolated to their own job.",
            &self.worker_panics,
        );
        counter(
            &mut out,
            "noc_svc_journal_replayed_total",
            "Journal records applied during startup crash recovery.",
            &self.journal_replayed,
        );
        counter(
            &mut out,
            "noc_svc_journal_compacted_total",
            "Journal records dropped by startup compaction (bytes durable in the store).",
            &self.journal_compacted,
        );
        out.push_str(
            "# HELP noc_svc_log_events_total Structured service-log events, by level.\n\
             # TYPE noc_svc_log_events_total counter\n",
        );
        for (level, count) in [
            ("error", &self.log_events.error),
            ("info", &self.log_events.info),
            ("warn", &self.log_events.warn),
        ] {
            out.push_str(&format!(
                "noc_svc_log_events_total{{level=\"{level}\"}} {}\n",
                count.load(Ordering::Relaxed)
            ));
        }
        if let Some(store) = self.store.get() {
            counter(
                &mut out,
                "noc_svc_store_hits_total",
                "Disk-tier store lookups that returned verified bytes.",
                &store.hits,
            );
            counter(
                &mut out,
                "noc_svc_store_misses_total",
                "Disk-tier store lookups that found nothing.",
                &store.misses,
            );
            counter(
                &mut out,
                "noc_svc_store_quarantined_total",
                "Store records dropped because their bytes failed verification.",
                &store.quarantined,
            );
            counter(
                &mut out,
                "noc_svc_store_faults_total",
                "Disk I/O failures observed by the store.",
                &store.faults,
            );
            counter(
                &mut out,
                "noc_svc_store_torn_tails_total",
                "Torn active-segment tails truncated at store open.",
                &store.torn_tails,
            );
            counter(
                &mut out,
                "noc_svc_store_rotations_total",
                "Store segment rotations.",
                &store.rotations,
            );
            gauge(
                &mut out,
                "noc_svc_store_degraded",
                "1 while the disk tier is out of service (memory-only mode).",
                &store.degraded,
            );
            gauge(
                &mut out,
                "noc_svc_store_records",
                "Records currently indexed in the store.",
                &store.records,
            );
            gauge(
                &mut out,
                "noc_svc_store_segments",
                "Store segment files (sealed + active).",
                &store.segments,
            );
        }
        if let Some(cluster) = self.cluster.get() {
            counter(
                &mut out,
                "noc_svc_cluster_peer_fill_total",
                "Local misses answered by a peer's stored bytes.",
                &cluster.peer_fills,
            );
            counter(
                &mut out,
                "noc_svc_cluster_peer_fill_misses_total",
                "Local misses no consulted peer could answer.",
                &cluster.peer_fill_misses,
            );
            counter(
                &mut out,
                "noc_svc_cluster_peer_fill_errors_total",
                "Internal lookups that failed in transport or verification.",
                &cluster.peer_fill_errors,
            );
            counter(
                &mut out,
                "noc_svc_cluster_lookups_served_total",
                "Internal lookups answered for peers from the local store.",
                &cluster.lookups_served,
            );
            counter(
                &mut out,
                "noc_svc_cluster_replication_sent_total",
                "Done records delivered to a peer.",
                &cluster.replication_sent,
            );
            counter(
                &mut out,
                "noc_svc_cluster_replication_received_total",
                "Done records accepted from a peer.",
                &cluster.replication_received,
            );
            counter(
                &mut out,
                "noc_svc_cluster_replication_delivery_failures_total",
                "Replication deliveries that failed in transport (record stays queued).",
                &cluster.replication_delivery_failures,
            );
            counter(
                &mut out,
                "noc_svc_cluster_replication_overflow_total",
                "Records dropped (oldest first) from a full per-peer retry queue.",
                &cluster.replication_overflow,
            );
            gauge(
                &mut out,
                "noc_svc_cluster_replication_lag",
                "Done records queued for replication delivery.",
                &cluster.replication_lag,
            );
            counter(
                &mut out,
                "noc_svc_cluster_peer_fill_skips_total",
                "Fill probes skipped in O(1) because the detector held the peer down.",
                &cluster.peer_fill_skips,
            );
            counter(
                &mut out,
                "noc_svc_cluster_probes_total",
                "Backoff-gated probes sent to down peers.",
                &cluster.probes,
            );
            counter(
                &mut out,
                "noc_svc_cluster_peer_recoveries_total",
                "Down peers that recovered to up.",
                &cluster.peer_recoveries,
            );
            counter(
                &mut out,
                "noc_svc_cluster_anti_entropy_rounds_total",
                "Anti-entropy sweep rounds completed.",
                &cluster.anti_entropy_rounds,
            );
            counter(
                &mut out,
                "noc_svc_cluster_anti_entropy_repairs_total",
                "Records re-enqueued because a peer's digest was missing them.",
                &cluster.anti_entropy_repairs,
            );
            counter(
                &mut out,
                "noc_svc_cluster_read_repair_total",
                "Peer-filled records persisted locally by a node in the owner chain.",
                &cluster.read_repairs,
            );
            let peer_up = cluster.peer_up.lock().expect("peer gauge lock");
            if !peer_up.is_empty() {
                out.push_str(
                    "# HELP noc_svc_cluster_peer_up Failure-detector availability per \
                     peer (1 = up/suspect, 0 = down).\n\
                     # TYPE noc_svc_cluster_peer_up gauge\n",
                );
                for (peer, up) in peer_up.iter() {
                    out.push_str(&format!(
                        "noc_svc_cluster_peer_up{{peer=\"{peer}\"}} {up}\n"
                    ));
                }
            }
        }
        if let Some(reactor) = self.reactor.get() {
            counter(
                &mut out,
                "noc_svc_reactor_accepted_total",
                "Connections accepted by the reactor.",
                &reactor.accepted,
            );
            counter(
                &mut out,
                "noc_svc_reactor_wakeups_total",
                "Readiness wakeups (poll returns) across event loops.",
                &reactor.wakeups,
            );
            counter(
                &mut out,
                "noc_svc_reactor_write_stalls_total",
                "Responses that hit socket backpressure and waited for POLLOUT.",
                &reactor.write_stalls_entered,
            );
            gauge(
                &mut out,
                "noc_svc_reactor_connections",
                "Connections currently open on the reactor.",
                &reactor.connections,
            );
            gauge(
                &mut out,
                "noc_svc_reactor_write_stalled",
                "Connections currently blocked on socket write backpressure.",
                &reactor.write_stalled,
            );
        }
        out.push_str(&format!(
            "# HELP noc_svc_queue_depth Jobs waiting in the bounded queue.\n\
             # TYPE noc_svc_queue_depth gauge\n\
             noc_svc_queue_depth {}\n",
            self.queue_depth.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "# HELP noc_svc_jobs_inflight Jobs currently executing on scheduler workers.\n\
             # TYPE noc_svc_jobs_inflight gauge\n\
             noc_svc_jobs_inflight {}\n",
            self.jobs_inflight.load(Ordering::Relaxed)
        ));

        let stages = self.stages.lock().expect("metrics lock");
        if !stages.is_empty() {
            out.push_str(
                "# HELP noc_svc_stage_seconds Scheduling pipeline stage execution time.\n\
                 # TYPE noc_svc_stage_seconds histogram\n",
            );
            for (stage, h) in stages.iter() {
                for (i, bound) in LATENCY_BUCKETS.iter().enumerate() {
                    out.push_str(&format!(
                        "noc_svc_stage_seconds_bucket{{stage=\"{stage}\",le=\"{bound}\"}} {}\n",
                        h.buckets[i]
                    ));
                }
                out.push_str(&format!(
                    "noc_svc_stage_seconds_bucket{{stage=\"{stage}\",le=\"+Inf\"}} {}\n\
                     noc_svc_stage_seconds_sum{{stage=\"{stage}\"}} {}\n\
                     noc_svc_stage_seconds_count{{stage=\"{stage}\"}} {}\n",
                    h.count, h.sum, h.count
                ));
            }
        }
        drop(stages);

        let h = self.latency.lock().expect("metrics lock");
        out.push_str(
            "# HELP noc_svc_schedule_seconds Scheduling execution latency.\n\
             # TYPE noc_svc_schedule_seconds histogram\n",
        );
        for (i, bound) in LATENCY_BUCKETS.iter().enumerate() {
            out.push_str(&format!(
                "noc_svc_schedule_seconds_bucket{{le=\"{bound}\"}} {}\n",
                h.buckets[i]
            ));
        }
        out.push_str(&format!(
            "noc_svc_schedule_seconds_bucket{{le=\"+Inf\"}} {}\n\
             noc_svc_schedule_seconds_sum {}\n\
             noc_svc_schedule_seconds_count {}\n",
            h.count, h.sum, h.count
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_table_renders_sorted_labels() {
        let m = Metrics::new();
        m.record_request("/v1/schedule", 200);
        m.record_request("/healthz", 200);
        m.record_request("/v1/schedule", 200);
        m.record_request("/v1/schedule", 429);
        let text = m.render();
        let healthz = text.find("endpoint=\"/healthz\"").expect("healthz row");
        let sched = text
            .find("endpoint=\"/v1/schedule\"")
            .expect("schedule row");
        assert!(healthz < sched, "rows render in sorted order");
        assert!(text.contains("noc_svc_requests_total{endpoint=\"/v1/schedule\",status=\"200\"} 2"));
        assert!(text.contains("noc_svc_requests_total{endpoint=\"/v1/schedule\",status=\"429\"} 1"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = Metrics::new();
        m.observe_latency(0.002); // falls into le=0.0025 and everything above
        m.observe_latency(0.2); // le=0.25 and above
        m.observe_latency(100.0); // only +Inf
        let text = m.render();
        assert!(text.contains("noc_svc_schedule_seconds_bucket{le=\"0.001\"} 0"));
        assert!(text.contains("noc_svc_schedule_seconds_bucket{le=\"0.0025\"} 1"));
        assert!(text.contains("noc_svc_schedule_seconds_bucket{le=\"0.25\"} 2"));
        assert!(text.contains("noc_svc_schedule_seconds_bucket{le=\"5\"} 2"));
        assert!(text.contains("noc_svc_schedule_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("noc_svc_schedule_seconds_count 3"));
    }

    #[test]
    fn stage_histograms_render_sorted_by_label() {
        let m = Metrics::new();
        assert!(
            !m.render().contains("noc_svc_stage_seconds"),
            "stage family is omitted until a stage is observed"
        );
        m.observe_stage("level", 0.002);
        m.observe_stage("budgeting", 0.0001);
        m.observe_stage("level", 0.3);
        let text = m.render();
        assert!(text.contains("# TYPE noc_svc_stage_seconds histogram"));
        assert!(text.contains("noc_svc_stage_seconds_bucket{stage=\"budgeting\",le=\"0.001\"} 1"));
        assert!(text.contains("noc_svc_stage_seconds_bucket{stage=\"level\",le=\"0.0025\"} 1"));
        assert!(text.contains("noc_svc_stage_seconds_bucket{stage=\"level\",le=\"+Inf\"} 2"));
        assert!(text.contains("noc_svc_stage_seconds_count{stage=\"level\"} 2"));
        let budgeting = text
            .find("stage=\"budgeting\"")
            .expect("budgeting series present");
        let level = text.find("stage=\"level\"").expect("level series present");
        assert!(budgeting < level, "stage series render in sorted order");
    }

    #[test]
    fn inflight_gauge_renders_its_value() {
        let m = Metrics::new();
        m.jobs_inflight.store(2, Ordering::Relaxed);
        let text = m.render();
        assert!(text.contains("# TYPE noc_svc_jobs_inflight gauge"));
        assert!(text.contains("noc_svc_jobs_inflight 2"));
    }

    #[test]
    fn store_family_renders_only_once_registered() {
        let m = Metrics::new();
        assert!(
            !m.render().contains("noc_svc_store_"),
            "store family is omitted until a store is configured"
        );
        let stats = Arc::new(StoreStats::default());
        stats.hits.fetch_add(3, Ordering::Relaxed);
        stats.quarantined.fetch_add(1, Ordering::Relaxed);
        stats.degraded.store(1, Ordering::Relaxed);
        stats.records.store(42, Ordering::Relaxed);
        m.set_store_stats(stats);
        m.journal_compacted.fetch_add(9, Ordering::Relaxed);
        let text = m.render();
        assert!(text.contains("noc_svc_store_hits_total 3"));
        assert!(text.contains("noc_svc_store_quarantined_total 1"));
        assert!(text.contains("# TYPE noc_svc_store_degraded gauge"));
        assert!(text.contains("noc_svc_store_degraded 1"));
        assert!(text.contains("noc_svc_store_records 42"));
        assert!(text.contains("noc_svc_journal_compacted_total 9"));
    }

    #[test]
    fn cluster_and_reactor_families_render_only_once_registered() {
        let m = Metrics::new();
        let text = m.render();
        assert!(
            !text.contains("noc_svc_cluster_") && !text.contains("noc_svc_reactor_"),
            "cluster/reactor families are omitted until registered"
        );
        let cluster = Arc::new(crate::cluster::ClusterStats::default());
        cluster.peer_fills.fetch_add(4, Ordering::Relaxed);
        cluster.lookups_served.fetch_add(9, Ordering::Relaxed);
        cluster.replication_lag.store(2, Ordering::Relaxed);
        m.set_cluster_stats(cluster);
        let reactor = Arc::new(crate::net::ReactorStats::default());
        reactor.connections.store(10_000, Ordering::Relaxed);
        reactor.accepted.fetch_add(5, Ordering::Relaxed);
        reactor.write_stalls_entered.fetch_add(3, Ordering::Relaxed);
        m.set_reactor_stats(reactor);
        let text = m.render();
        assert!(text.contains("noc_svc_cluster_peer_fill_total 4"));
        assert!(text.contains("noc_svc_cluster_lookups_served_total 9"));
        assert!(text.contains("# TYPE noc_svc_cluster_replication_lag gauge"));
        assert!(text.contains("noc_svc_cluster_replication_lag 2"));
        assert!(text.contains("# TYPE noc_svc_reactor_connections gauge"));
        assert!(text.contains("noc_svc_reactor_connections 10000"));
        assert!(text.contains("noc_svc_reactor_accepted_total 5"));
        assert!(text.contains("noc_svc_reactor_write_stalls_total 3"));
    }

    #[test]
    fn distributed_stages_render_alongside_pipeline_stages() {
        let m = Metrics::new();
        m.observe_stage("level", 0.002);
        let observer = m.stage_observer();
        observer.observe("peer_fill", 0.0008);
        observer.observe("replication_deliver", 0.004);
        observer.observe("anti_entropy", 0.02);
        observer.observe("peer_fill", 0.3);
        let text = m.render();
        assert!(text.contains("noc_svc_stage_seconds_bucket{stage=\"peer_fill\",le=\"0.001\"} 1"));
        assert!(text.contains("noc_svc_stage_seconds_count{stage=\"peer_fill\"} 2"));
        assert!(text.contains(
            "noc_svc_stage_seconds_bucket{stage=\"replication_deliver\",le=\"0.005\"} 1"
        ));
        assert!(
            text.contains("noc_svc_stage_seconds_bucket{stage=\"anti_entropy\",le=\"0.025\"} 1")
        );
        let anti = text
            .find("stage=\"anti_entropy\"")
            .expect("anti_entropy series");
        let peer = text.find("stage=\"peer_fill\"").expect("peer_fill series");
        let repl = text
            .find("stage=\"replication_deliver\"")
            .expect("replication_deliver series");
        assert!(
            anti < peer && peer < repl,
            "distributed stages render sorted with the rest"
        );
    }

    #[test]
    fn log_events_and_build_info_always_render() {
        let m = Metrics::new();
        let text = m.render();
        assert!(text.contains("# TYPE noc_svc_build_info gauge"));
        assert!(text.contains(&format!(
            "noc_svc_build_info{{version=\"{}\",",
            env!("CARGO_PKG_VERSION")
        )));
        assert!(text.contains("noc_svc_log_events_total{level=\"info\"} 0"));
        let counters = m.log_counters();
        counters.warn.fetch_add(2, Ordering::Relaxed);
        counters.error.fetch_add(1, Ordering::Relaxed);
        let text = m.render();
        assert!(text.contains("noc_svc_log_events_total{level=\"warn\"} 2"));
        assert!(text.contains("noc_svc_log_events_total{level=\"error\"} 1"));
    }

    #[test]
    fn counters_render_their_values() {
        let m = Metrics::new();
        m.cache_hits.fetch_add(7, Ordering::Relaxed);
        m.queue_depth.store(3, Ordering::Relaxed);
        m.degraded.fetch_add(2, Ordering::Relaxed);
        m.worker_panics.fetch_add(1, Ordering::Relaxed);
        m.journal_replayed.fetch_add(5, Ordering::Relaxed);
        let text = m.render();
        assert!(text.contains("noc_svc_cache_hits_total 7"));
        assert!(text.contains("noc_svc_queue_depth 3"));
        assert!(text.contains("noc_svc_degraded_total 2"));
        assert!(text.contains("noc_svc_worker_panics_total 1"));
        assert!(text.contains("noc_svc_journal_replayed_total 5"));
    }
}

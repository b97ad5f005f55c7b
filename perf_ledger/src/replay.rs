//! The traced run: replays a deterministic sample of a workload's
//! requests in-process, calling each layer's public functions in the
//! order the service uses them, with a span around every call.
//!
//! Every sample passes through every layer, so each per-layer metric is
//! measured on every workload's own inputs. Which layers a workload's
//! requests actually take in the service is the workload's *path*
//! (see [`crate::workloads`]); only path layers count against the
//! request's end-to-end time when the residual is computed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use noc_ctg::TaskGraph;
use noc_eas::dls::dls_schedule;
use noc_eas::edf::edf_schedule;
use noc_eas::level::level_schedule_threads;
use noc_eas::placer::Placer;
use noc_eas::prelude::{
    BufferSink, CommModel, ComputeBudget, NullSink, ScheduleOutcome, SlackBudgets, TraceSummary,
    WeightFunction,
};
use noc_eas::repair::{search_and_repair_threads, RepairStats};
use noc_platform::Platform;
use noc_schedule::{validate, Schedule, ScheduleStats};
use noc_svc::api::{ScheduleRequest, ScheduleResponse};
use noc_svc::cache::JobOutput;
use noc_svc::http::{parse_request, render_response, Response};
use noc_svc::journal::{Journal, Record};
use noc_svc::store::{Store, StoreConfig, StoreStats, TieredStore};
use serde::Deserialize;

use crate::spans::{layer_ms, residual_ms, Recorder, Span};
use crate::stats::{median, percentile, sorted};

/// One request to replay.
pub struct Sample {
    pub req: usize,
    pub body: String,
    /// The bytes the untraced run received (or, for library use, the
    /// outcome the scheduler returned): the recomposition must match.
    pub expected: Vec<u8>,
    /// The request's untraced end-to-end time.
    pub e2e_ms: f64,
}

/// Per-request counts the layers report.
#[derive(Debug, Clone, Default)]
struct Facts {
    e2e_ms: f64,
    body_bytes: usize,
    trials: u64,
    trial_hits: u64,
    repair: RepairStats,
    events: usize,
}

/// The traced run's raw record.
pub struct Replay {
    pub spans: Vec<Span>,
    facts: BTreeMap<usize, Facts>,
    pub failures: Vec<String>,
    store_open_s: f64,
    journal_open_s: f64,
}

/// Largest request body the service accepts by default.
const MAX_BODY: usize = 16 * 1024 * 1024;

/// Replays `samples` (in order, until `limit_s` seconds have passed)
/// with scheduler thread count `threads`, writing store and journal
/// records under `dir`. The open timings are of the service's own store
/// and journal when `reopen` names them, else of the replay's fresh ones.
pub fn replay(
    samples: &[Sample],
    threads: usize,
    dir: &Path,
    reopen: Option<(PathBuf, PathBuf)>,
    limit_s: f64,
) -> Result<Replay, String> {
    let io = |e: std::io::Error| format!("replay store: {e}");
    let open_store = |at: &Path| {
        let t = Instant::now();
        let store =
            Store::open(StoreConfig::new(at), Arc::new(StoreStats::default())).map_err(io)?;
        Ok::<_, String>((store, t.elapsed().as_secs_f64()))
    };
    let open_journal = |at: &Path| {
        let t = Instant::now();
        let journal = Journal::open(at).map_err(io)?.0;
        Ok::<_, String>((journal, t.elapsed().as_secs_f64()))
    };
    let (disk, mut store_open_s) = open_store(&dir.join("replay-store"))?;
    let (journal, mut journal_open_s) = open_journal(&dir.join("replay-journal.bin"))?;
    let mut ctx = Ctx {
        threads,
        rec: Recorder::new(),
        memory: TieredStore::memory_only(samples.len().max(1)),
        // A zero-entry memory tier: every get goes to the disk tier.
        disk: TieredStore::with_disk(0, Some(disk)),
        journal,
    };
    let started = Instant::now();
    let mut facts = BTreeMap::new();
    let mut failures = Vec::new();
    for s in samples {
        if started.elapsed().as_secs_f64() > limit_s {
            break;
        }
        match ctx.one(s) {
            Ok(f) => {
                facts.insert(s.req, f);
            }
            Err(e) => failures.push(format!("request {}: {e}", s.req)),
        }
    }
    let spans = std::mem::take(&mut ctx.rec.spans);
    drop(ctx);
    if let Some((store_at, journal_at)) = reopen {
        store_open_s = open_store(&store_at)?.1;
        journal_open_s = open_journal(&journal_at)?.1;
    }
    Ok(Replay {
        spans,
        facts,
        failures,
        store_open_s,
        journal_open_s,
    })
}

struct Ctx {
    threads: usize,
    rec: Recorder,
    memory: TieredStore,
    disk: TieredStore,
    journal: Journal,
}

impl Ctx {
    fn one(&mut self, s: &Sample) -> Result<Facts, String> {
        let req = s.req;
        let threads = self.threads;
        let wire = crate::http::request_bytes("POST", "/v1/schedule", s.body.as_bytes());
        let Ctx {
            rec,
            memory,
            disk,
            journal,
            ..
        } = self;
        rec.time(req, "request", |rec| {
            let parsed = rec
                .time(req, "http.parse", |_| parse_request(&wire, MAX_BODY))
                .map_err(|e| format!("http parse: {e:?}"))?
                .ok_or("http parse: incomplete request")?
                .0;
            let request: ScheduleRequest = rec.time(req, "api.decode", |_| {
                serde_json::from_str(std::str::from_utf8(&parsed.body).map_err(|e| e.to_string())?)
                    .map_err(|e| format!("decode: {e}"))
            })?;
            let (platform, graph, scheduler) = rec.time(req, "spec.resolve", |_| {
                let platform = noc_svc::spec::parse_platform_faulted(
                    &request.platform,
                    request.faults.as_deref(),
                )?;
                let graph = TaskGraph::from_value(&request.graph).map_err(|e| e.to_string())?;
                let scheduler = noc_svc::spec::parse_scheduler(request.scheduler_name(), threads)?;
                Ok::<_, String>((platform, graph, scheduler))
            })?;
            let (key, id) = rec.time(req, "hash.key", |_| {
                let key = request.canonical_key();
                let id = noc_svc::hash::content_hash(&key);
                (key, id)
            });

            // Full EAS, stage by stage, exactly as `EasScheduler` runs it.
            let budgets = rec.time(req, "budget", |_| {
                SlackBudgets::compute_with_comm(
                    &graph,
                    WeightFunction::default(),
                    platform.link_bandwidth(),
                )
            });
            let (schedule, (trial_hits, trial_misses)) = rec.time(req, "level", |_| {
                let mut placer = Placer::new(&graph, &platform).map_err(|e| e.to_string())?;
                level_schedule_threads(&mut placer, &budgets, CommModel::Contention, threads);
                let cache = placer.cache_stats();
                Ok::<_, String>((placer.into_schedule(), cache))
            })?;
            let (schedule, repair) = rec.time(req, "repair", |_| {
                search_and_repair_threads(&graph, &platform, schedule, threads)
            });
            let eas = rec.time(req, "validate", |_| {
                outcome(schedule, &graph, &platform, repair)
            })?;
            // The list-scheduling baselines (EDF for EAS requests).
            let name = request.scheduler_name();
            let base = rec.time(req, "baseline", |_| {
                let mut placer = Placer::new(&graph, &platform).map_err(|e| e.to_string())?;
                if name == "dls" {
                    dls_schedule(&mut placer);
                } else {
                    edf_schedule(&mut placer);
                }
                outcome(
                    placer.into_schedule(),
                    &graph,
                    &platform,
                    RepairStats::default(),
                )
            })?;
            let served = match name {
                "eas" => &eas,
                "edf" | "dls" => &base,
                other => return Err(format!("the replay does not recompose `{other}`")),
            };
            let bytes = rec.time(req, "api.encode", |_| {
                ScheduleResponse::from_outcome(name, served).to_json()
            });
            if bytes.as_bytes() != s.expected.as_slice() {
                return Err("fidelity: recomposed response differs from the served bytes".into());
            }

            // The service traces every run into a wall-clock buffer and
            // folds it into a summary; its cost is buffer minus null.
            let unlimited = ComputeBudget::unlimited();
            rec.time(req, "trace.null", |_| {
                scheduler.schedule_traced(&graph, &platform, &unlimited, &mut NullSink)
            })
            .map_err(|e| e.to_string())?;
            let mut sink = BufferSink::with_wall_clock();
            rec.time(req, "trace.buffer", |_| {
                scheduler.schedule_traced(&graph, &platform, &unlimited, &mut sink)
            })
            .map_err(|e| e.to_string())?;
            let summary = rec.time(req, "trace.summary", |_| {
                TraceSummary::from_events(sink.events())
            });

            let output = JobOutput::new(Arc::new(bytes));
            memory.insert(&key, &output);
            let hit = rec.time(req, "store.get", |_| memory.get(&key));
            if hit.is_none() {
                return Err("memory tier lost a fresh record".into());
            }
            if !rec.time(req, "store.put", |_| disk.insert(&key, &output)) {
                return Err("disk tier did not persist the record".into());
            }
            rec.time(req, "journal.append", |_| {
                journal.append(&Record::Accepted {
                    id: id.clone(),
                    body: s.body.clone(),
                })?;
                journal.append(&Record::DoneStored {
                    id: id.clone(),
                    degraded: false,
                })
            })
            .map_err(|e| format!("journal append: {e}"))?;
            match rec.time(req, "store.get_disk", |_| disk.get(&key)) {
                Some(o) if o.body == output.body => {}
                _ => return Err("disk tier returned other bytes".into()),
            }
            rec.time(req, "http.render", |_| {
                let response = Response::json(200, output.body.as_str().to_owned())
                    .with_header("X-Cache", "hit")
                    .with_header("X-Request-Hash", &id);
                render_response(&response, true)
            });
            Ok(Facts {
                e2e_ms: s.e2e_ms,
                body_bytes: s.body.len(),
                trials: trial_hits + trial_misses,
                trial_hits,
                repair: eas.repair,
                events: summary.events,
            })
        })
    }
}

fn outcome(
    schedule: Schedule,
    graph: &TaskGraph,
    platform: &Platform,
    repair: RepairStats,
) -> Result<ScheduleOutcome, String> {
    let report =
        validate(&schedule, graph, platform).map_err(|e| format!("invalid schedule: {e}"))?;
    let stats = ScheduleStats::compute(&schedule, graph, platform);
    Ok(ScheduleOutcome {
        schedule,
        report,
        stats,
        repair,
    })
}

/// The response body the library produces for `body` — the service's
/// resolution and serialization without the service around it.
pub fn library_response(body: &str, threads: usize) -> Result<String, String> {
    let request: ScheduleRequest = serde_json::from_str(body).map_err(|e| e.to_string())?;
    let platform =
        noc_svc::spec::parse_platform_faulted(&request.platform, request.faults.as_deref())?;
    let graph = TaskGraph::from_value(&request.graph).map_err(|e| e.to_string())?;
    let scheduler = noc_svc::spec::parse_scheduler(request.scheduler_name(), threads)?;
    let out = scheduler
        .schedule(&graph, &platform)
        .map_err(|e| e.to_string())?;
    Ok(ScheduleResponse::from_outcome(request.scheduler_name(), &out).to_json())
}

/// Every per-layer metric, in report order, with its unit.
pub const LAYER_METRICS: [(&str, &str); 45] = [
    ("http.parse.p50_ms", "ms"),
    ("api.decode.p50_ms", "ms"),
    ("api.decode.p90_ms", "ms"),
    ("api.decode.ns_per_byte", "ns/B"),
    ("spec.resolve.p50_ms", "ms"),
    ("hash.key.p50_ms", "ms"),
    ("store.get.p50_ms", "ms"),
    ("budget.p50_ms", "ms"),
    ("level.p50_ms", "ms"),
    ("level.p90_ms", "ms"),
    ("level.total_s", "s"),
    ("level.trials_per_job", "count"),
    ("level.trial_cache_hit_ratio", "ratio"),
    ("repair.p50_ms", "ms"),
    ("repair.total_s", "s"),
    ("repair.jobs", "count"),
    ("repair.trials", "count"),
    ("repair.accept_ratio", "ratio"),
    ("repair.us_per_trial", "us"),
    ("validate.p50_ms", "ms"),
    ("baseline.p50_ms", "ms"),
    ("api.encode.p50_ms", "ms"),
    ("trace.overhead.p50_ms", "ms"),
    ("trace.summary.p50_ms", "ms"),
    ("trace.events_per_job", "count"),
    ("store.put.p50_ms", "ms"),
    ("journal.append.p50_ms", "ms"),
    ("store.get_disk.p50_ms", "ms"),
    ("http.render.p50_ms", "ms"),
    ("store.open_s", "s"),
    ("journal.open_s", "s"),
    ("layers.sum_p50_ms", "ms"),
    ("residual.p50_ms", "ms"),
    ("residual.share", "ratio"),
    ("replay.samples", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.schedules_executed", "count"),
    ("engine.coalesced", "count"),
    ("queue.rejected", "count"),
    ("reactor.wakeups_per_request", "count"),
    ("reactor.write_stalls", "count"),
    ("store.disk_hits", "count"),
    ("journal.replayed", "count"),
    ("journal.compacted", "count"),
    ("peak_rss_mb", "MB"),
];

impl Replay {
    /// The replay-derived per-layer metrics. `path` lists the layers the
    /// workload's requests take in the service, each with how many times
    /// one operation takes it.
    pub fn metrics(&self, path: &[(&str, f64)]) -> BTreeMap<&'static str, f64> {
        let mut per_req = layer_ms(&self.spans);
        per_req.retain(|req, _| self.facts.contains_key(req));
        for layers in per_req.values_mut() {
            let buffer = layers.get("trace.buffer").copied().unwrap_or(0.0);
            let null = layers.get("trace.null").copied().unwrap_or(0.0);
            layers.insert("trace.overhead", buffer - null);
        }
        let col = |name: &str| -> Vec<f64> {
            per_req
                .values()
                .map(|l| l.get(name).copied().unwrap_or(0.0))
                .collect()
        };
        let p = |name: &str, q: f64| percentile(&sorted(&col(name)), q);
        let facts: Vec<&Facts> = self.facts.values().collect();
        let n = facts.len().max(1) as f64;
        let sum = |f: &dyn Fn(&Facts) -> f64| facts.iter().map(|x| f(x)).sum::<f64>();
        let trials = sum(&|f| f.trials as f64);
        let repair_trials = sum(&|f| f.repair.trials as f64);
        let accepted = sum(&|f| (f.repair.lts_accepted + f.repair.gtm_accepted) as f64);
        let repair_ms: f64 = per_req
            .iter()
            .filter(|(req, _)| self.facts[req].repair.trials > 0)
            .map(|(_, l)| l.get("repair").copied().unwrap_or(0.0))
            .sum();
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

        let mut m = BTreeMap::new();
        for layer in [
            "http.parse",
            "api.decode",
            "spec.resolve",
            "hash.key",
            "store.get",
            "budget",
            "level",
            "repair",
            "validate",
            "baseline",
            "api.encode",
            "trace.overhead",
            "trace.summary",
            "store.put",
            "journal.append",
            "store.get_disk",
            "http.render",
        ] {
            let name = LAYER_METRICS
                .iter()
                .map(|(k, _)| *k)
                .find(|k| k.strip_suffix(".p50_ms") == Some(layer))
                .expect("every replayed layer reports a p50");
            m.insert(name, p(layer, 50.0));
        }
        m.insert("api.decode.p90_ms", p("api.decode", 90.0));
        m.insert(
            "api.decode.ns_per_byte",
            ratio(
                col("api.decode").iter().sum::<f64>() * 1e6,
                sum(&|f| f.body_bytes as f64),
            ),
        );
        m.insert("level.p90_ms", p("level", 90.0));
        m.insert("level.total_s", col("level").iter().sum::<f64>() / 1000.0);
        m.insert("level.trials_per_job", trials / n);
        m.insert(
            "level.trial_cache_hit_ratio",
            ratio(sum(&|f| f.trial_hits as f64), trials),
        );
        m.insert("repair.total_s", col("repair").iter().sum::<f64>() / 1000.0);
        m.insert(
            "repair.jobs",
            facts.iter().filter(|f| f.repair.trials > 0).count() as f64,
        );
        m.insert("repair.trials", repair_trials);
        m.insert("repair.accept_ratio", ratio(accepted, repair_trials));
        m.insert(
            "repair.us_per_trial",
            ratio(repair_ms * 1000.0, repair_trials),
        );
        m.insert("trace.events_per_job", sum(&|f| f.events as f64) / n);
        m.insert("store.open_s", self.store_open_s);
        m.insert("journal.open_s", self.journal_open_s);

        // Reconciliation: Σ path-layer p50s, and per request what the
        // path layers leave unexplained of the untraced time.
        let layer_sum: f64 = path
            .iter()
            .map(|(layer, times)| times * p(layer, 50.0))
            .sum();
        m.insert("layers.sum_p50_ms", layer_sum);
        let (residuals, shares): (Vec<f64>, Vec<f64>) = per_req
            .iter()
            .map(|(req, layers)| {
                let e2e = self.facts[req].e2e_ms;
                let r = residual_ms(e2e, layers, path);
                (r, ratio(r, e2e))
            })
            .unzip();
        m.insert("residual.p50_ms", percentile(&sorted(&residuals), 50.0));
        m.insert("residual.share", median(&shares));
        m.insert("replay.samples", facts.len() as f64);
        m
    }
}

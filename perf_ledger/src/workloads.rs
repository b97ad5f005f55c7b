//! The four workloads. Each makes its inputs from the seed, measures an
//! untraced phase for the end-to-end metrics, checks the outputs, and —
//! when traced — replays a deterministic sample for the per-layer
//! metrics (see [`crate::replay`]).

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

use noc_ctg::TaskGraph;
use noc_eas::prelude::{EasScheduler, Scheduler};
use noc_svc::api::ScheduleResponse;

use crate::gen::digest;
use crate::gen::{self, Platforms, Problem};
use crate::http::Conn;
use crate::load::{closed_loop, post_expect, Op};
use crate::replay::{library_response, replay, Sample};
use crate::server::{delta, peak_rss_mb, Server};
use crate::spans::Span;
use crate::stats::{median, percentile, sorted, supported};

pub const WORKLOADS: [&str; 4] = ["svc_cold", "svc_hot", "svc_durable", "batch_repair"];

/// Every end-to-end metric, with its unit; every workload reports all.
/// The tail is p95: every phase has at least 200 samples, so it is
/// supported, and on a shared 2-CPU host p99 moves by a quarter from
/// run to run. Peak memory is a per-layer metric instead: the svc_hot
/// server's peak moves by a quarter too, with its allocator's arenas.
pub const E2E_METRICS: [(&str, &str); 4] = [
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("throughput_rps", "ops/s"),
    ("setup_s", "s"),
];

/// Server spawns per svc_cold and svc_hot run; `setup_s` is their
/// median.
const SETUP_REPEATS: usize = 25;
/// svc_durable restarts per run (each from the same crash image).
const RESTARTS: usize = 3;
/// svc_durable requests per second of `--seconds`: a count fixed by the
/// run length, so every restart recovers the same state whatever the
/// fill rate.
const DURABLE_FILL_PER_SECOND: f64 = 300.0;
/// The fewest svc_durable requests: above the default 1024-entry memory
/// tier, so re-reads in fill order always miss it and go to disk.
const DURABLE_MIN_FILL: usize = 2000;
/// Served requests whose bytes are recomputed by the library and
/// compared in every run, traced or not.
const SPOT: usize = 4;
/// The server's default scheduler thread count (0 = every CPU), which
/// the replay uses so its level and repair layers run like the server's.
const SERVER_THREADS: usize = 0;

#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for server logs, stores and journals.
    pub tmp: PathBuf,
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub attempted: usize,
    pub failed: usize,
    /// Latency samples behind `p50_ms` / `p95_ms`.
    pub samples: usize,
    pub e2e: BTreeMap<&'static str, f64>,
    /// Workload-specific end-to-end numbers outside the common set.
    pub extras: BTreeMap<String, f64>,
    /// Per-layer metrics; empty when the run was not traced.
    pub layers: BTreeMap<&'static str, f64>,
    pub checks: Vec<Check>,
    /// The effective service configuration.
    pub config: String,
    pub spans: Vec<Span>,
    /// The first few operation failures, for diagnosis.
    pub errors: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    fn count_ops(&mut self, ops: &[Op]) {
        self.attempted += ops.len();
        for op in ops.iter().filter(|o| o.error.is_some()) {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(format!(
                    "op {}: {}",
                    op.idx,
                    op.error.as_deref().unwrap_or("")
                ));
            }
        }
    }

    fn fail(&mut self, error: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }

    /// p50, p95 and throughput over the successful operations of a
    /// phase; p99 rides along as an extra where the sample supports it.
    /// Percentiles count only whole stratification blocks of `block`
    /// operations, so every class holds its exact share and a
    /// percentile sits at the same depth in its class in every run.
    fn latency(&mut self, ops: &[Op], block: usize) {
        let ok: Vec<&Op> = ops.iter().filter(|o| o.error.is_none()).collect();
        let phase_s = ok.iter().map(|o| o.end_s).fold(0.0, f64::max);
        self.e2e.insert("throughput_rps", ok.len() as f64 / phase_s);
        let whole = (ops.len() / block * block).max(ops.len().min(block));
        let ms = sorted(
            &ok.iter()
                .filter(|o| o.idx < whole)
                .map(|o| o.ms)
                .collect::<Vec<_>>(),
        );
        self.samples = ms.len();
        self.e2e.insert("p50_ms", percentile(&ms, 50.0));
        self.e2e.insert("p95_ms", percentile(&ms, 95.0));
        if supported(ms.len(), 99.0) {
            self.extras.insert("p99_ms".into(), percentile(&ms, 99.0));
        }
    }

    /// Median latency per size class, as `p50_ms.<scheduler><tasks>`.
    fn class_medians(&mut self, ops: &[Op], class_of: impl Fn(usize) -> gen::Class) {
        let mut by: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for o in ops.iter().filter(|o| o.error.is_none()) {
            let c = class_of(o.idx);
            by.entry(format!("p50_ms.{}{}", c.scheduler, c.tasks))
                .or_default()
                .push(o.ms);
        }
        for (name, ms) in by {
            self.extras.insert(name, median(&ms));
        }
    }
}

/// Layers each workload's requests take in the service, with how many
/// times one operation takes each. The replay measures every layer on
/// every workload; only these count against the end-to-end time.
pub fn path(workload: &str) -> Vec<(&'static str, f64)> {
    // One `POST /v1/schedule` through the front end. The server decodes
    // each body twice: once to read `mode`/`stats`, once to admit it.
    const FRONT: [(&str, f64); 6] = [
        ("http.parse", 1.0),
        ("api.decode", 2.0),
        ("spec.resolve", 1.0),
        ("hash.key", 1.0),
        ("store.get", 1.0),
        ("http.render", 1.0),
    ];
    const EAS: [(&str, f64); 4] = [
        ("budget", 1.0),
        ("level", 1.0),
        ("repair", 1.0),
        ("validate", 1.0),
    ];
    // Around every job the service runs: a wall-clock trace buffer,
    // its summary, and the response encoding.
    const JOB: [(&str, f64); 3] = [
        ("api.encode", 1.0),
        ("trace.overhead", 1.0),
        ("trace.summary", 1.0),
    ];
    match workload {
        "svc_cold" => [&FRONT[..], &EAS, &JOB].concat(),
        "svc_hot" => FRONT.to_vec(),
        // An async post plus its sync re-post (the front end twice),
        // one baseline job, one durable store write, and the two
        // journal records one `journal.append` span times.
        "svc_durable" => {
            let twice = FRONT.iter().map(|&(l, n)| (l, 2.0 * n));
            twice
                .chain([
                    ("baseline", 1.0),
                    ("store.put", 1.0),
                    ("journal.append", 1.0),
                ])
                .chain(JOB)
                .collect()
        }
        "batch_repair" => EAS.to_vec(),
        other => panic!("unknown workload {other}"),
    }
}

/// Runs one workload.
pub fn run(workload: &'static str, opts: &Opts) -> Result<RunResult, String> {
    std::fs::create_dir_all(&opts.tmp).map_err(|e| format!("{}: {e}", opts.tmp.display()))?;
    let mut r = RunResult {
        workload,
        seed: opts.seed,
        seconds: opts.seconds,
        ..RunResult::default()
    };
    r.checks.push(pinned_check(workload));
    match workload {
        "svc_cold" => svc_cold(opts, &mut r)?,
        "svc_hot" => svc_hot(opts, &mut r)?,
        "svc_durable" => svc_durable(opts, &mut r)?,
        "batch_repair" => batch_repair(opts, &mut r)?,
        other => return Err(format!("unknown workload `{other}`")),
    }
    Ok(r)
}

/// Regenerates the pinned default-seed inputs, computes their responses
/// with the library, and compares both digests with [`gen::PINNED`].
fn pinned_check(workload: &str) -> Check {
    let inputs = gen::pinned_inputs(workload, gen::DEFAULT_SEED);
    let input = digest(inputs.iter().map(|p| p.body.as_bytes()));
    let outputs: Result<Vec<String>, String> = inputs
        .iter()
        .map(|p| library_response(&p.body, 1))
        .collect();
    let output = outputs.map(|o| digest(o.iter().map(|s| s.as_bytes())));
    let (_, want_in, want_out) = gen::PINNED
        .iter()
        .find(|(w, _, _)| *w == workload)
        .copied()
        .expect("every workload is pinned");
    let ok = input == want_in && output.as_ref().is_ok_and(|&o| o == want_out);
    check(
        "pinned digests",
        ok,
        format!(
            "input {input:#018x} (pinned {want_in:#018x}), output {} (pinned {want_out:#018x})",
            match &output {
                Ok(o) => format!("{o:#018x}"),
                Err(e) => format!("error: {e}"),
            }
        ),
    )
}

/// Spawns the server `SETUP_REPEATS` times, keeping the last; returns
/// it with the median spawn-to-healthy time.
fn boot(extra: &[String], dir: &Path, repeats: usize) -> Result<(Server, f64), String> {
    let mut setups = Vec::new();
    let mut last = None;
    for n in 0..repeats {
        let (server, s) = Server::spawn(extra, &dir.join(format!("server-{n}.log")))
            .map_err(|e| format!("spawning noceas: {e}"))?;
        setups.push(s);
        if let Some(prev) = last.replace(server) {
            prev.kill();
        }
    }
    Ok((last.expect("at least one boot"), median(&setups)))
}

fn config(extra: &[String]) -> String {
    let mut args = vec!["noceas serve --addr 127.0.0.1:<free port>".to_owned()];
    args.extend(extra.iter().cloned());
    format!(
        "{} (every other setting: ServiceConfig::default())",
        args.join(" ")
    )
}

fn scrape(server: &Server) -> Result<HashMap<String, f64>, String> {
    server
        .metrics()
        .map_err(|e| format!("scraping /metrics: {e}"))
}

/// Per-layer counters from `/metrics` over a timed phase of `requests`
/// requests.
fn counters(
    before: &HashMap<String, f64>,
    after: &HashMap<String, f64>,
    requests: usize,
) -> BTreeMap<&'static str, f64> {
    let d = |n: &str| delta(before, after, n);
    let hits = d("noc_svc_cache_hits_total");
    let misses = d("noc_svc_cache_misses_total");
    let mut m = BTreeMap::new();
    m.insert(
        "engine.cache_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    m.insert(
        "engine.schedules_executed",
        d("noc_svc_schedules_executed_total"),
    );
    m.insert("engine.coalesced", d("noc_svc_requests_coalesced_total"));
    m.insert("queue.rejected", d("noc_svc_queue_rejected_total"));
    m.insert(
        "reactor.wakeups_per_request",
        d("noc_svc_reactor_wakeups_total") / requests.max(1) as f64,
    );
    m.insert(
        "reactor.write_stalls",
        d("noc_svc_reactor_write_stalls_total"),
    );
    m.insert("store.disk_hits", d("noc_svc_store_hits_total"));
    m.insert("journal.replayed", 0.0);
    m.insert("journal.compacted", 0.0);
    m
}

/// Recomputes the first served bodies with the library and compares.
fn spot_check(r: &mut RunResult, served: &[(&str, &[u8])]) {
    let mut bad = 0;
    for (body, bytes) in served.iter().take(SPOT) {
        match library_response(body, 1) {
            Ok(expected) if expected.as_bytes() == *bytes => {}
            Ok(_) => {
                bad += 1;
                r.fail("fidelity: served bytes differ from the library's".into());
            }
            Err(e) => {
                bad += 1;
                r.fail(format!("fidelity: library failed: {e}"));
            }
        }
    }
    r.checks.push(check(
        "served bytes equal the library's",
        bad == 0,
        format!(
            "{} of {} spot-checked responses match",
            served.len().min(SPOT) - bad,
            served.len().min(SPOT)
        ),
    ));
}

/// Runs the traced replay and folds its metrics and failures in.
fn traced(
    r: &mut RunResult,
    opts: &Opts,
    samples: &[Sample],
    threads: usize,
    reopen: Option<(PathBuf, PathBuf)>,
    counters: BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let rep = replay(samples, threads, &opts.tmp, reopen, opts.seconds)?;
    for f in &rep.failures {
        r.fail(format!("replay {f}"));
    }
    r.layers = rep.metrics(&path(r.workload));
    r.layers.extend(counters);
    r.layers.insert("peak_rss_mb", r.extras["peak_rss_mb"]);
    r.spans = rep.spans;
    Ok(())
}

/// 1,200 distinct EAS problems, cycled in order: every request runs the
/// full compute path and none hits the cache.
fn svc_cold(opts: &Opts, r: &mut RunResult) -> Result<(), String> {
    let mut platforms = Platforms::default();
    let pool: Vec<Problem> = (0..gen::COLD_POOL)
        .map(|i| gen::cold(&mut platforms, opts.seed, i))
        .collect();
    let (server, setup_s) = boot(&[], &opts.tmp, SETUP_REPEATS)?;
    r.config = config(&[]);
    r.e2e.insert("setup_s", setup_s);
    // Every 4th request is replayed (up to 250); the first are spot-checked.
    let sampled = |i: usize| i.is_multiple_of(4) && i / 4 < 250;
    let before = scrape(&server)?;
    let ops = closed_loop(
        server.addr,
        usize::MAX,
        Some(opts.seconds),
        &|i| i < SPOT || sampled(i),
        &|c, i| post_expect(c, "/v1/schedule", pool[i % pool.len()].body.as_bytes(), 200),
    );
    let after = scrape(&server)?;
    r.extras.insert("peak_rss_mb".into(), server.peak_rss_mb());
    server.kill();
    r.count_ops(&ops);
    r.latency(&ops, gen::block(&gen::COLD));
    r.class_medians(&ops, |i| pool[i % pool.len()].class);
    let c = counters(&before, &after, ops.len());
    r.checks.push(check(
        "cache bypassed",
        c["engine.cache_hit_ratio"] == 0.0 && c["engine.schedules_executed"] >= ops.len() as f64,
        format!(
            "cache hit ratio {}, {} schedules executed for {} requests",
            c["engine.cache_hit_ratio"],
            c["engine.schedules_executed"],
            ops.len()
        ),
    ));
    let served: Vec<(&str, &[u8])> = ops
        .iter()
        .filter_map(|o| Some((pool[o.idx % pool.len()].body.as_str(), o.body.as_deref()?)))
        .collect();
    spot_check(r, &served);
    if opts.trace {
        let samples: Vec<Sample> = ops
            .iter()
            .filter(|o| sampled(o.idx))
            .filter_map(|o| {
                Some(Sample {
                    req: o.idx,
                    body: pool[o.idx % pool.len()].body.clone(),
                    expected: o.body.clone()?,
                    e2e_ms: o.ms,
                })
            })
            .collect();
        traced(r, opts, &samples, SERVER_THREADS, None, c)?;
        let jobs = r.layers["repair.jobs"];
        r.checks.push(check(
            "repair bypassed",
            jobs <= 0.01 * r.layers["replay.samples"],
            format!(
                "{jobs} of {} replayed jobs ran repair (limit 1%)",
                r.layers["replay.samples"]
            ),
        ));
    }
    Ok(())
}

/// 48 problems in four size classes, warmed once, then served from the
/// cache: the scheduler is bypassed entirely.
fn svc_hot(opts: &Opts, r: &mut RunResult) -> Result<(), String> {
    let problems = gen::hot_problems(opts.seed);
    let (server, setup_s) = boot(&[], &opts.tmp, SETUP_REPEATS)?;
    r.config = config(&[]);
    r.e2e.insert("setup_s", setup_s);
    let mut conn = Conn::connect(server.addr).map_err(|e| format!("connecting: {e}"))?;
    let mut reference: Vec<Vec<u8>> = Vec::new();
    for (k, p) in problems.iter().enumerate() {
        r.attempted += 1;
        match post_expect(&mut conn, "/v1/schedule", p.body.as_bytes(), 200) {
            Ok(bytes) => reference.push(bytes),
            Err(e) => return Err(format!("warming problem {k}: {e}")),
        }
    }
    let seed = opts.seed;
    let before = scrape(&server)?;
    let ops = closed_loop(
        server.addr,
        usize::MAX,
        Some(opts.seconds),
        &|_| false,
        &|c, i| {
            let k = gen::hot_pick(seed, i);
            let bytes = post_expect(c, "/v1/schedule", problems[k].body.as_bytes(), 200)?;
            if bytes == reference[k] {
                Ok(bytes)
            } else {
                Err(format!(
                    "determinism: problem {k} answered other bytes than before"
                ))
            }
        },
    );
    let after = scrape(&server)?;
    r.extras.insert("peak_rss_mb".into(), server.peak_rss_mb());
    server.kill();
    r.count_ops(&ops);
    r.latency(&ops, gen::block(&gen::HOT));
    r.class_medians(&ops, |i| {
        gen::HOT[gen::hot_pick(seed, i) / gen::HOT_PER_CLASS]
    });
    let c = counters(&before, &after, ops.len());
    let misses = delta(&before, &after, "noc_svc_cache_misses_total");
    r.checks.push(check(
        "scheduler bypassed",
        misses == 0.0 && c["engine.schedules_executed"] == 0.0,
        format!(
            "{misses} cache misses and {} schedules executed in the timed phase",
            c["engine.schedules_executed"]
        ),
    ));
    let served: Vec<(&str, &[u8])> = problems
        .iter()
        .zip(&reference)
        .step_by(gen::HOT_PER_CLASS)
        .map(|(p, b)| (p.body.as_str(), b.as_slice()))
        .collect();
    spot_check(r, &served);
    if opts.trace {
        // Each problem five times, against its median served time.
        let mut per_problem: Vec<Vec<f64>> = vec![Vec::new(); problems.len()];
        for o in ops.iter().filter(|o| o.error.is_none()) {
            per_problem[gen::hot_pick(seed, o.idx)].push(o.ms);
        }
        let samples: Vec<Sample> = (0..5)
            .flat_map(|round| (0..problems.len()).map(move |k| (round, k)))
            .filter(|&(_, k)| !per_problem[k].is_empty())
            .map(|(round, k)| Sample {
                req: round * problems.len() + k,
                body: problems[k].body.clone(),
                expected: reference[k].clone(),
                e2e_ms: median(&per_problem[k]),
            })
            .collect();
        traced(r, opts, &samples, SERVER_THREADS, None, c)?;
    }
    Ok(())
}

fn copy_state(from: &Path, to: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("copying {} to {}: {e}", from.display(), to.display());
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to.join("store")).map_err(io)?;
    for entry in std::fs::read_dir(from.join("store")).map_err(io)? {
        let entry = entry.map_err(io)?;
        std::fs::copy(entry.path(), to.join("store").join(entry.file_name())).map_err(io)?;
    }
    std::fs::copy(from.join("journal.bin"), to.join("journal.bin")).map_err(io)?;
    Ok(())
}

/// Distinct requests written through the persistent store and the
/// journal, a kill -9, and every body read back from disk.
fn svc_durable(opts: &Opts, r: &mut RunResult) -> Result<(), String> {
    let n = DURABLE_MIN_FILL.max((DURABLE_FILL_PER_SECOND * opts.seconds) as usize);
    let mut platforms = Platforms::default();
    let problems: Vec<Problem> = (0..n)
        .map(|i| gen::durable(&mut platforms, opts.seed, i))
        .collect();
    let asyncs: Vec<String> = problems.iter().map(Problem::async_body).collect();
    let live = opts.tmp.join("live");
    let _ = std::fs::remove_dir_all(&live);
    std::fs::create_dir_all(&live).map_err(|e| e.to_string())?;
    let extra: Vec<String> = vec![
        "--store-dir".into(),
        live.join("store").display().to_string(),
        "--journal".into(),
        live.join("journal.bin").display().to_string(),
    ];
    r.config = config(&extra);

    // Fill: each request as an async (journaled) job, joined by a sync
    // re-post of the same body; timed together as one operation.
    let (server, _) = boot(&extra, &opts.tmp, 1)?;
    let before = scrape(&server)?;
    let fill = closed_loop(server.addr, n, None, &|_| true, &|c, i| {
        post_expect(c, "/v1/schedule", asyncs[i].as_bytes(), 202)?;
        post_expect(c, "/v1/schedule", problems[i].body.as_bytes(), 200)
    });
    let after = scrape(&server)?;
    server.kill();
    r.count_ops(&fill);
    r.latency(&fill, gen::block(&gen::DURABLE));
    let c = counters(&before, &after, 2 * fill.len());

    // Restart from the same crash image each time.
    let image = opts.tmp.join("crash-image");
    copy_state(&live, &image)?;
    let mut setups = Vec::new();
    let mut server = None;
    let mut recovery = HashMap::new();
    for n_restart in 0..RESTARTS {
        if let Some(prev) = server.take() {
            Server::kill(prev);
        }
        copy_state(&image, &live)?;
        let (s, setup) = boot(&extra, &opts.tmp, 1)?;
        setups.push(setup);
        if n_restart == 0 {
            recovery = scrape(&s)?;
        }
        server = Some(s);
    }
    let server = server.expect("at least one restart");
    r.e2e.insert("setup_s", median(&setups));

    // Re-read every body after the restart.
    let before_reread = scrape(&server)?;
    let reread = closed_loop(server.addr, n, None, &|_| false, &|c, i| {
        let bytes = post_expect(c, "/v1/schedule", problems[i].body.as_bytes(), 200)?;
        match fill.get(i).and_then(|o| o.body.as_deref()) {
            Some(filled) if filled == bytes.as_slice() => Ok(bytes),
            _ => Err(format!(
                "durability: request {i} re-read other bytes than the fill"
            )),
        }
    });
    let after_reread = scrape(&server)?;
    r.extras.insert("peak_rss_mb".into(), server.peak_rss_mb());
    server.kill();
    r.count_ops(&reread);
    let reread_ms = sorted(
        &reread
            .iter()
            .filter(|o| o.error.is_none())
            .map(|o| o.ms)
            .collect::<Vec<_>>(),
    );
    r.extras.insert("fill_ops".into(), fill.len() as f64);
    r.extras
        .insert("reread_p50_ms".into(), percentile(&reread_ms, 50.0));
    if supported(reread_ms.len(), 99.0) {
        r.extras
            .insert("reread_p99_ms".into(), percentile(&reread_ms, 99.0));
    }
    let reread_s = reread.iter().map(|o| o.end_s).fold(0.0, f64::max);
    r.extras
        .insert("reread_rps".into(), reread_ms.len() as f64 / reread_s);
    let executed = after_reread
        .get("noc_svc_schedules_executed_total")
        .copied()
        .unwrap_or(0.0);
    let disk_hits = delta(&before_reread, &after_reread, "noc_svc_store_hits_total");
    r.checks.push(check(
        "zero recomputes after restart",
        executed == 0.0,
        format!("{executed} schedules executed since the restart"),
    ));
    r.checks.push(check(
        "re-reads served from disk",
        disk_hits >= n as f64,
        format!("{disk_hits} disk-tier hits for {n} re-reads"),
    ));
    let served: Vec<(&str, &[u8])> = fill
        .iter()
        .filter_map(|o| Some((problems[o.idx].body.as_str(), o.body.as_deref()?)))
        .collect();
    spot_check(r, &served);

    if opts.trace {
        let mut c = c;
        let recovered = |name: &str| recovery.get(name).copied().unwrap_or(0.0);
        c.insert(
            "journal.replayed",
            recovered("noc_svc_journal_replayed_total"),
        );
        c.insert(
            "journal.compacted",
            recovered("noc_svc_journal_compacted_total"),
        );
        c.insert("store.disk_hits", disk_hits);
        let samples: Vec<Sample> = fill
            .iter()
            .filter(|o| o.idx % 10 == 0)
            .filter_map(|o| {
                Some(Sample {
                    req: o.idx,
                    body: problems[o.idx].body.clone(),
                    expected: o.body.clone()?,
                    e2e_ms: o.ms,
                })
            })
            .collect();
        // Reopen timings run on another copy of the crash image: opening
        // repairs torn tails in place.
        let reopen = opts.tmp.join("reopen-image");
        copy_state(&image, &reopen)?;
        traced(
            r,
            opts,
            &samples,
            SERVER_THREADS,
            Some((reopen.join("store"), reopen.join("journal.bin"))),
            c,
        )?;
    }
    Ok(())
}

/// Library use, no service: tight-deadline graphs solved one after
/// another by `EasScheduler::full()` (one thread), most needing LTS/GTM
/// search & repair.
fn batch_repair(opts: &Opts, r: &mut RunResult) -> Result<(), String> {
    let class = gen::REPAIR[0];
    let mut platforms = Platforms::default();
    r.config = format!(
        "EasScheduler::full() (threads 1) on {}, {}-task TGFF graphs, laxity {}",
        class.platform, class.tasks, class.laxity
    );

    // Set-up as a library user pays it: build the platform and the
    // scheduler, and decode a batch of graph files. It is timed once
    // before each block of graphs, so its median spans the whole run
    // rather than one moment of the host.
    let texts: Vec<String> = (0..16)
        .map(|i| {
            serde_json::to_string(&gen::repair(&mut platforms, opts.seed, i).1).expect("serializes")
        })
        .collect();
    let set_up = || {
        let t = Instant::now();
        let platform = gen::platform(class.platform);
        let scheduler = EasScheduler::full();
        let graphs: Vec<TaskGraph> = texts
            .iter()
            .map(|t| serde_json::from_str::<TaskGraph>(t).expect("graph JSON"))
            .collect();
        std::hint::black_box((platform, scheduler, graphs));
        t.elapsed().as_secs_f64()
    };
    let mut setups = Vec::new();

    let platform = gen::platform(class.platform);
    let scheduler = EasScheduler::full();
    let sampled = |i: usize| i.is_multiple_of(2) && i / 2 < 300;
    let mut ops: Vec<Op> = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();
    let mut repaired = 0usize;
    let mut solve_s = 0.0;
    // Graphs are generated in blocks outside the timed solves.
    'run: loop {
        setups.push(set_up());
        let base = ops.len();
        let block: Vec<TaskGraph> = (base..base + 32)
            .map(|i| gen::repair(&mut platforms, opts.seed, i).1)
            .collect();
        for (i, g) in (base..).zip(&block) {
            let t = Instant::now();
            let result = scheduler.schedule(g, &platform);
            let ms = t.elapsed().as_secs_f64() * 1000.0;
            solve_s += ms / 1000.0;
            let mut op = Op {
                idx: i,
                ms,
                end_s: solve_s,
                error: None,
                body: None,
            };
            match result {
                Ok(out) => {
                    repaired += usize::from(out.repair.trials > 0);
                    if sampled(i) || i < SPOT {
                        samples.push(Sample {
                            req: i,
                            body: gen::body(&class, g),
                            expected: ScheduleResponse::from_outcome("eas", &out)
                                .to_json()
                                .into_bytes(),
                            e2e_ms: ms,
                        });
                    }
                }
                Err(e) => op.error = Some(e.to_string()),
            }
            ops.push(op);
            if solve_s >= opts.seconds {
                break 'run;
            }
        }
    }
    r.e2e.insert("setup_s", median(&setups));
    r.count_ops(&ops);
    r.latency(&ops, 1);
    r.extras
        .insert("peak_rss_mb".into(), peak_rss_mb("/proc/self/status"));
    r.checks.push(check(
        "repair exercised",
        repaired * 4 >= ops.len(),
        format!(
            "{repaired} of {} graphs needed search & repair (at least 25%)",
            ops.len()
        ),
    ));
    let served: Vec<(&str, &[u8])> = samples
        .iter()
        .map(|s| (s.body.as_str(), s.expected.as_slice()))
        .collect();
    spot_check(r, &served);
    if opts.trace {
        samples.retain(|s| sampled(s.req));
        let counters = counters(&HashMap::new(), &HashMap::new(), 0);
        traced(r, opts, &samples, 1, None, counters)?;
    }
    Ok(())
}

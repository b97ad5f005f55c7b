//! Load generator and recovery drills for a running `noceas serve`.
//! One mode per run; besides `--timeout-ms` (client read/write
//! timeout, default 60000) each mode reads only its own flags:
//!
//! | mode flag | also reads | writes | CI job |
//! |---|---|---|---|
//! | none (load wave) | `--addr --requests --clients --graphs --seed --stats --idle-conns` | `BENCH_service.json` | smoke-service, smoke-cluster |
//! | `--nodes a,b,…` | `--graphs --seed` | `BENCH_cluster.json` | smoke-cluster, smoke-obs |
//! | `--chaos-net c,d,…` | `--nodes --graphs --seed` | `BENCH_partition.json` | smoke-partition |
//! | `--chaos` | `--addr --jobs --seed --state` | `chaos_state.json` | smoke-chaos |
//! | `--chaos-verify` | `--addr --state` | `BENCH_chaos.json` | smoke-chaos |
//! | `--delta` | `--addr --jobs --seed --state` | `delta_state.json` | smoke-delta |
//! | `--delta-verify` | `--addr --state --expect-store` | `BENCH_delta_svc.json` | smoke-delta |
//! | `--store-fill` | `--addr --jobs --seed --state` | `store_state.json` | smoke-store |
//! | `--store-verify` | `--addr --state` | `BENCH_store_svc.json` | smoke-store |
//!
//! Defaults: `--addr 127.0.0.1:8533`, `--requests 1200`, `--clients
//! 4`, `--graphs 12`, `--seed 1516`, `--jobs 8`, `--idle-conns 0`. A
//! positional argument overrides the artifact path, `--state` the
//! file a fill mode writes and its verify mode reads. A flag the mode
//! does not read exits 2 before any connection opens; a transport
//! error, an unexpected status or a byte divergence exits 1. What each
//! mode checks: `docs/SERVICE.md`, "Load generator".

use std::collections::{HashMap, HashSet};
use std::fmt::Display;
use std::io::{BufRead as _, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use noc_bench::svc::{connect, mix, platform, post_expect, Problem};
use noc_ctg::TaskGraph;
use noc_eas::prelude::{apply_edits, apply_platform_edits, repair_from, AppliedEdits, Edit};
use noc_platform::prelude::Platform;
use noc_svc::api::{DeltaRequest, DeltaResponse, ScheduleResponse};
use noc_svc::client::Client;
use noc_svc::cluster::{Digest, Ring};

/// Schedulers cycled through the load and cluster mixes — the fast
/// baselines, so the load exercises the service rather than the EAS
/// search.
const SCHEDULERS: [&str; 2] = ["edf", "dls"];
const SCHEDULE: &str = "/v1/schedule";
const DELTA: &str = "/v1/schedule/delta";
/// How long a fill mode waits for its server to accept.
const FILL_PATIENCE: Duration = Duration::from_secs(10);

/// One run mode: a row of the table above.
#[derive(Debug)]
struct Mode {
    /// The flag that selects it; empty for the load wave.
    flag: &'static str,
    /// The flags it reads besides its own and `--timeout-ms`.
    reads: &'static [&'static str],
    /// The default artifact path; `None` for the fill modes, which
    /// write only their state file.
    artifact: Option<&'static str>,
    /// The default state file of the fill and verify modes.
    state: Option<&'static str>,
    run: fn(&Args) -> Result<(), String>,
}

const FILL_READS: &[&str] = &["--addr", "--jobs", "--seed", "--state"];
const VERIFY_READS: &[&str] = &["--addr", "--state"];

static MODES: [Mode; 9] = [
    Mode {
        flag: "",
        reads: &[
            "--addr",
            "--requests",
            "--clients",
            "--graphs",
            "--seed",
            "--stats",
            "--idle-conns",
        ],
        artifact: Some("BENCH_service.json"),
        state: None,
        run: run_load,
    },
    Mode {
        flag: "--nodes",
        reads: &["--graphs", "--seed"],
        artifact: Some("BENCH_cluster.json"),
        state: None,
        run: run_cluster,
    },
    Mode {
        flag: "--chaos-net",
        reads: &["--nodes", "--graphs", "--seed"],
        artifact: Some("BENCH_partition.json"),
        state: None,
        run: run_partition,
    },
    Mode {
        flag: "--chaos",
        reads: FILL_READS,
        artifact: None,
        state: Some("chaos_state.json"),
        run: run_chaos,
    },
    Mode {
        flag: "--chaos-verify",
        reads: VERIFY_READS,
        artifact: Some("BENCH_chaos.json"),
        state: Some("chaos_state.json"),
        run: run_chaos_verify,
    },
    Mode {
        flag: "--delta",
        reads: FILL_READS,
        artifact: None,
        state: Some("delta_state.json"),
        run: run_delta,
    },
    Mode {
        flag: "--delta-verify",
        reads: &["--addr", "--state", "--expect-store"],
        artifact: Some("BENCH_delta_svc.json"),
        state: Some("delta_state.json"),
        run: run_delta_verify,
    },
    Mode {
        flag: "--store-fill",
        reads: FILL_READS,
        artifact: None,
        state: Some("store_state.json"),
        run: run_store_fill,
    },
    Mode {
        flag: "--store-verify",
        reads: VERIFY_READS,
        artifact: Some("BENCH_store_svc.json"),
        state: Some("store_state.json"),
        run: run_store_verify,
    },
];

impl Mode {
    fn name(&self) -> &'static str {
        if self.flag.is_empty() {
            "the load wave"
        } else {
            self.flag
        }
    }
}

/// Flags that take a value; the other known flags are switches.
const VALUED: [&str; 11] = [
    "--addr",
    "--requests",
    "--clients",
    "--graphs",
    "--seed",
    "--timeout-ms",
    "--jobs",
    "--state",
    "--nodes",
    "--chaos-net",
    "--idle-conns",
];
const SWITCHES: [&str; 8] = [
    "--stats",
    "--expect-store",
    "--chaos",
    "--chaos-verify",
    "--delta",
    "--delta-verify",
    "--store-fill",
    "--store-verify",
];

/// One parsed command line.
#[derive(Debug)]
struct Args {
    mode: &'static Mode,
    addr: SocketAddr,
    addr_text: String,
    /// `--nodes`: each node's address as the ring names it, parsed.
    nodes: Vec<(String, SocketAddr)>,
    /// `--chaos-net`: one `net_chaos` control address per node.
    controls: Vec<SocketAddr>,
    requests: usize,
    clients: usize,
    graphs: usize,
    seed: u64,
    timeout: Duration,
    stats: bool,
    idle_conns: usize,
    jobs: usize,
    expect_store: bool,
    state: String,
    out: String,
}

/// Parses the command line. The first mode flag picks the mode
/// (`--chaos-net` turns `--nodes` into the partition drill), and any
/// other flag that mode does not read is an error.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut given: Vec<(&str, &str)> = Vec::new();
    let mut out = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let arg = arg.as_str();
        if VALUED.contains(&arg) {
            let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
            given.push((arg, value));
        } else if SWITCHES.contains(&arg) {
            given.push((arg, ""));
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag {arg}"));
        } else {
            out = Some(arg.to_owned());
        }
    }
    let value = |flag: &str| {
        given
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| *v)
    };

    let mut mode = given
        .iter()
        .find_map(|(flag, _)| MODES.iter().find(|m| m.flag == *flag))
        .unwrap_or(&MODES[0]);
    if mode.flag == "--nodes" && value("--chaos-net").is_some() {
        mode = &MODES[2];
    }
    if mode.flag == "--chaos-net" && value("--nodes").is_none() {
        return Err("--chaos-net requires --nodes".to_owned());
    }
    for (flag, _) in &given {
        if *flag != mode.flag && *flag != "--timeout-ms" && !mode.reads.contains(flag) {
            return Err(format!("{} does not read {flag}", mode.name()));
        }
    }
    if let (Some(path), None) = (&out, mode.artifact) {
        return Err(format!("{} writes no artifact (got {path:?})", mode.name()));
    }

    let addr_text = value("--addr").unwrap_or("127.0.0.1:8533").to_owned();
    let addr = addr_text
        .parse()
        .map_err(|_| format!("bad --addr {addr_text:?}"))?;
    let nodes = addr_list("--nodes", value("--nodes"))?;
    if value("--nodes").is_some() && nodes.len() < 2 {
        return Err("--nodes needs at least two comma-separated addresses".to_owned());
    }
    let controls: Vec<SocketAddr> = addr_list("--chaos-net", value("--chaos-net"))?
        .into_iter()
        .map(|(_, addr)| addr)
        .collect();
    if value("--chaos-net").is_some() && controls.len() != nodes.len() {
        return Err(format!(
            "--chaos-net needs one control address per --nodes entry ({} controls for {} nodes)",
            controls.len(),
            nodes.len()
        ));
    }
    Ok(Args {
        mode,
        addr,
        addr_text,
        nodes,
        controls,
        requests: number(value("--requests"), 1200)?,
        clients: number(value("--clients"), 4usize)?.max(1),
        graphs: number(value("--graphs"), 12usize)?.max(1),
        seed: number(value("--seed"), 0x5EC)?,
        timeout: Duration::from_millis(number(value("--timeout-ms"), 60_000u64)?.max(1)),
        stats: value("--stats").is_some(),
        idle_conns: number(value("--idle-conns"), 0)?,
        jobs: number(value("--jobs"), 8usize)?.max(1),
        expect_store: value("--expect-store").is_some(),
        state: value("--state")
            .or(mode.state)
            .unwrap_or_default()
            .to_owned(),
        out: out.or(mode.artifact.map(str::to_owned)).unwrap_or_default(),
    })
}

fn number<T: std::str::FromStr>(value: Option<&str>, default: T) -> Result<T, String> {
    value.map_or(Ok(default), |text| {
        text.parse()
            .map_err(|_| format!("invalid numeric value {text:?}"))
    })
}

/// A comma-separated address list, each address kept with its text:
/// cluster nodes name each other by it.
fn addr_list(flag: &str, text: Option<&str>) -> Result<Vec<(String, SocketAddr)>, String> {
    text.unwrap_or_default()
        .split(',')
        .map(str::trim)
        .filter(|part| !part.is_empty())
        .map(|part| {
            part.parse()
                .map(|addr| (part.to_owned(), addr))
                .map_err(|_| format!("bad {flag} address {part:?}"))
        })
        .collect()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    if let Err(e) = (args.mode.run)(&args) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Failures found so far, each printed as it is found.
#[derive(Default)]
struct Tally {
    errors: usize,
    violations: usize,
}

impl Tally {
    fn error(&mut self, message: impl Display) {
        eprintln!("error: {message}");
        self.errors += 1;
    }

    fn violation(&mut self, message: impl Display) {
        eprintln!("determinism violation: {message}");
        self.violations += 1;
    }

    fn verdict(&self) -> Result<(), String> {
        if self.errors == 0 && self.violations == 0 {
            Ok(())
        } else {
            Err(format!(
                "run failed ({} errors, {} determinism violations)",
                self.errors, self.violations
            ))
        }
    }
}

/// Writes a mode's artifact, then passes when nothing failed.
fn finish<T: Serialize>(path: &str, report: &T, tally: &Tally) -> Result<(), String> {
    noc_bench::write_json(path, report)?;
    println!("Artifact written to {path}");
    tally.verdict()
}

/// The server's `/metrics` text; empty when the scrape fails.
fn metrics(client: &mut Client) -> String {
    client.get("/metrics").map(|r| r.body).unwrap_or_default()
}

/// Extracts a single-value counter from Prometheus text.
fn scrape(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#') && !l[name.len()..].starts_with('{'))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Latency percentile over a sorted sample, in milliseconds.
fn pct_ms(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64) * p).ceil() as usize;
    sorted_us[idx.clamp(1, sorted_us.len()) - 1] as f64 / 1000.0
}

/// Polls `ready` every `every` until it holds or `patience` runs out.
fn wait_until(patience: Duration, every: Duration, mut ready: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + patience;
    loop {
        if ready() {
            return true;
        }
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(every);
    }
}

fn healthy(client: &mut Client) -> Result<(), String> {
    match client.get("/healthz") {
        Ok(resp) if resp.status == 200 => Ok(()),
        Ok(resp) => Err(format!("/healthz answered {}", resp.status)),
        Err(e) => Err(format!("/healthz failed: {e}")),
    }
}

/// What one pipeline stage cost over the load wave: the delta of its
/// `noc_svc_stage_seconds` histogram between the pre- and post-wave
/// `/metrics` scrapes.
#[derive(Debug, Serialize)]
struct StageDelta {
    stage: String,
    executions: u64,
    seconds: f64,
    mean_ms: f64,
}

/// The `BENCH_service.json` artifact.
#[derive(Debug, Serialize)]
struct ServiceBench {
    addr: String,
    requests: usize,
    clients: usize,
    distinct_problems: usize,
    errors: usize,
    /// 429 answers that were retried; excluded from `requests`,
    /// throughput and the latency percentiles.
    retries_429: usize,
    determinism_violations: usize,
    wall_s: f64,
    throughput_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    max_ms: f64,
    cache_hits: u64,
    cache_misses: u64,
    cache_hit_rate: f64,
    schedules_executed: u64,
    requests_coalesced: u64,
    /// TCP connections the workers opened, summed. Equal to the
    /// worker count when keep-alive reuse is perfect (429 retries and
    /// all — a regression here means a connect stampede).
    sockets_opened: u64,
    /// Extra idle keep-alive connections held open through the wave
    /// (`--idle-conns`), and how many of a probed sample still
    /// answered afterwards.
    idle_connections: usize,
    idle_alive_after: usize,
    /// Present only with `--stats`: per-stage scheduling cost over the
    /// wave, from the server's own `noc_svc_stage_seconds` histograms.
    stage_seconds: Option<Vec<StageDelta>>,
}

struct WorkerResult {
    latencies_us: Vec<u64>,
    errors: usize,
    /// 429 backpressure answers that were slept on and retried.
    retries_429: usize,
    /// First response body seen per request-mix index.
    bodies: HashMap<usize, String>,
    /// Determinism violations observed *within* this worker.
    violations: usize,
    /// TCP connections this worker's client opened.
    sockets_opened: u64,
}

/// The load wave: `clients` keep-alive workers share `requests` posts
/// over the fixed-seed mix, and identical mix indices must answer
/// identical bytes across every worker.
fn run_load(args: &Args) -> Result<(), String> {
    // With `--stats` the mix also cycles the full EAS pipeline: it is
    // the instrumented scheduler, so the per-stage histograms this flag
    // exists to measure actually accumulate samples.
    let schedulers: &[&str] = if args.stats {
        &["edf", "dls", "eas"]
    } else {
        &SCHEDULERS
    };
    let (addr, clients, requests, timeout) = (args.addr, args.clients, args.requests, args.timeout);
    println!(
        "== svc_load: {requests} requests, {clients} clients, {} graphs x {} schedulers, \
         seed {:#x} -> {addr} ==",
        args.graphs,
        schedulers.len(),
        args.seed
    );
    let mix = Arc::new(mix(args.seed, args.graphs, 4, schedulers));

    // Warm up the connection path (and fail fast if nothing listens).
    let mut probe = connect(addr, FILL_PATIENCE, timeout)?;
    healthy(&mut probe)?;
    // Pre-wave stage baseline, so a warm server's earlier jobs don't
    // pollute this wave's per-stage deltas.
    let stages_before = if args.stats {
        scrape_stages(&metrics(&mut probe))
    } else {
        HashMap::new()
    };

    // `--idle-conns`: park N extra keep-alive connections on the
    // server for the whole wave. Against the reactor this costs a few
    // poll entries, not threads — the point of the flag is proving
    // that request latency and byte determinism hold while tens of
    // thousands of idle sockets sit open.
    let opening = Instant::now();
    let mut idle_pool = (0..args.idle_conns)
        .map(|k| {
            TcpStream::connect_timeout(&addr, Duration::from_secs(5))
                .map_err(|e| format!("idle connection {k} failed: {e} (raise ulimit -n?)"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if !idle_pool.is_empty() {
        println!(
            "holding {} idle keep-alive connections (opened in {:.2}s)",
            idle_pool.len(),
            opening.elapsed().as_secs_f64()
        );
    }

    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|worker| {
            let mix = Arc::clone(&mix);
            std::thread::spawn(move || run_worker(addr, &mix, worker, clients, requests, timeout))
        })
        .collect();
    let results: Vec<WorkerResult> = handles
        .into_iter()
        .map(|h| h.join().expect("worker thread"))
        .collect();
    let wall_s = started.elapsed().as_secs_f64();

    // Merge: identical mix indices must have answered identical bytes
    // across *all* workers, not just within one.
    let mut tally = Tally::default();
    let mut retries_429 = 0usize;
    let mut sockets_opened = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    let mut reference: HashMap<usize, String> = HashMap::new();
    for r in results {
        tally.errors += r.errors;
        tally.violations += r.violations;
        retries_429 += r.retries_429;
        sockets_opened += r.sockets_opened;
        latencies.extend(r.latencies_us);
        for (idx, body) in r.bodies {
            match reference.get(&idx) {
                None => {
                    reference.insert(idx, body);
                }
                Some(seen) if *seen == body => {}
                Some(_) => tally.violation(format_args!(
                    "mix index {idx} answered divergent bodies across clients"
                )),
            }
        }
    }
    latencies.sort_unstable();
    let done = latencies.len();

    // Cache statistics straight from the server's own metrics.
    let metrics = metrics(&mut probe);
    let cache_hits = scrape(&metrics, "noc_svc_cache_hits_total");
    let cache_misses = scrape(&metrics, "noc_svc_cache_misses_total");
    let stage_seconds = args.stats.then(|| stage_deltas(&stages_before, &metrics));
    // Prove a sample of the idle pool is still live keep-alive state,
    // not half-closed sockets the server forgot.
    let mut idle_alive_after = 0usize;
    if !idle_pool.is_empty() {
        let stride = (idle_pool.len() / 64).max(1);
        let mut probed = 0usize;
        for conn in idle_pool.iter_mut().step_by(stride) {
            probed += 1;
            if idle_probe(conn) {
                idle_alive_after += 1;
            }
        }
        println!("idle pool: {idle_alive_after}/{probed} sampled connections still answer");
        if idle_alive_after < probed {
            let dead = probed - idle_alive_after;
            eprintln!("error: {dead} sampled idle connections died");
            tally.errors += dead;
        }
    }

    let report = ServiceBench {
        addr: args.addr_text.clone(),
        requests: done,
        clients,
        distinct_problems: mix.len(),
        errors: tally.errors,
        retries_429,
        determinism_violations: tally.violations,
        wall_s,
        throughput_rps: if wall_s > 0.0 {
            done as f64 / wall_s
        } else {
            0.0
        },
        p50_ms: pct_ms(&latencies, 0.50),
        p99_ms: pct_ms(&latencies, 0.99),
        max_ms: latencies.last().map_or(0.0, |&v| v as f64 / 1000.0),
        cache_hits,
        cache_misses,
        cache_hit_rate: if cache_hits + cache_misses > 0 {
            cache_hits as f64 / (cache_hits + cache_misses) as f64
        } else {
            0.0
        },
        schedules_executed: scrape(&metrics, "noc_svc_schedules_executed_total"),
        requests_coalesced: scrape(&metrics, "noc_svc_requests_coalesced_total"),
        sockets_opened,
        idle_connections: idle_pool.len(),
        idle_alive_after,
        stage_seconds,
    };
    if args.stats {
        println!(
            "reactor: {} connections open, {} accepted, {} wakeups, {} write stalls",
            scrape(&metrics, "noc_svc_reactor_connections"),
            scrape(&metrics, "noc_svc_reactor_accepted_total"),
            scrape(&metrics, "noc_svc_reactor_wakeups_total"),
            scrape(&metrics, "noc_svc_reactor_write_stalls_total"),
        );
    }
    println!(
        "{done} requests in {wall_s:.2}s ({:.0} rps) | p50 {:.2}ms p99 {:.2}ms | \
         cache hit rate {:.1}% | {retries_429} backpressure retries | \
         {} errors, {} determinism violations",
        report.throughput_rps,
        report.p50_ms,
        report.p99_ms,
        report.cache_hit_rate * 100.0,
        tally.errors,
        tally.violations,
    );
    finish(&args.out, &report, &tally)
}

/// One client worker: sends its strided share of the request sequence
/// over a single keep-alive connection.
fn run_worker(
    addr: SocketAddr,
    mix: &[String],
    worker: usize,
    clients: usize,
    requests: usize,
    timeout: Duration,
) -> WorkerResult {
    let mut result = WorkerResult {
        latencies_us: Vec::new(),
        errors: 0,
        retries_429: 0,
        bodies: HashMap::new(),
        violations: 0,
        sockets_opened: 0,
    };
    let mut client = match connect(addr, FILL_PATIENCE, timeout) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("worker {worker}: {e}");
            result.errors += 1;
            return result;
        }
    };
    let mut n = worker;
    while n < requests {
        let idx = n % mix.len();
        let sent = Instant::now();
        match client.post(SCHEDULE, &mix[idx]) {
            Ok(resp) => {
                if resp.status == 429 {
                    // Honest backpressure: honor the server's
                    // Retry-After (capped — it only ever asks for a
                    // second) and retry the same request on the SAME
                    // keep-alive socket instead of counting an error.
                    // Not a completed request — it contributes neither a
                    // latency sample nor a throughput count.
                    let wait = resp
                        .header("retry-after")
                        .and_then(|v| v.parse::<u64>().ok())
                        .map(Duration::from_secs)
                        .unwrap_or(Duration::from_millis(50))
                        .min(Duration::from_secs(2));
                    result.retries_429 += 1;
                    std::thread::sleep(wait);
                    continue;
                }
                result.latencies_us.push(sent.elapsed().as_micros() as u64);
                if resp.status != 200 {
                    eprintln!(
                        "worker {worker}: request {n} answered {}: {}",
                        resp.status, resp.body
                    );
                    result.errors += 1;
                } else {
                    match result.bodies.get(&idx) {
                        None => {
                            result.bodies.insert(idx, resp.body);
                        }
                        Some(seen) if *seen == resp.body => {}
                        Some(_) => {
                            eprintln!("worker {worker}: determinism violation at mix index {idx}");
                            result.violations += 1;
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("worker {worker}: request {n} failed: {e}");
                result.errors += 1;
            }
        }
        n += clients;
    }
    result.sockets_opened = client.sockets_opened();
    result
}

/// Sends one keep-alive `/healthz` round trip on a raw idle socket.
fn idle_probe(conn: &mut TcpStream) -> bool {
    let _ = conn.set_read_timeout(Some(Duration::from_secs(5)));
    if conn
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: noc-svc\r\nContent-Length: 0\r\n\r\n")
        .is_err()
    {
        return false;
    }
    let mut buf = [0u8; 512];
    match conn.read(&mut buf) {
        Ok(n) if n > 0 => buf[..n].starts_with(b"HTTP/1.1 200"),
        _ => false,
    }
}

/// Extracts the `noc_svc_stage_seconds` histograms from Prometheus
/// text: stage label → (cumulative count, cumulative sum of seconds).
fn scrape_stages(metrics: &str) -> HashMap<String, (u64, f64)> {
    let mut out: HashMap<String, (u64, f64)> = HashMap::new();
    for line in metrics.lines() {
        if let Some(rest) = line.strip_prefix("noc_svc_stage_seconds_count{stage=\"") {
            if let Some((stage, tail)) = rest.split_once("\"}") {
                if let Ok(v) = tail.trim().parse::<u64>() {
                    out.entry(stage.to_owned()).or_insert((0, 0.0)).0 = v;
                }
            }
        } else if let Some(rest) = line.strip_prefix("noc_svc_stage_seconds_sum{stage=\"") {
            if let Some((stage, tail)) = rest.split_once("\"}") {
                if let Ok(v) = tail.trim().parse::<f64>() {
                    out.entry(stage.to_owned()).or_insert((0, 0.0)).1 = v;
                }
            }
        }
    }
    out
}

/// Per-stage cost between two scrapes, stages that ran only, by name.
fn stage_deltas(before: &HashMap<String, (u64, f64)>, after: &str) -> Vec<StageDelta> {
    let mut deltas: Vec<StageDelta> = scrape_stages(after)
        .into_iter()
        .filter_map(|(stage, (count, sum))| {
            let (count0, sum0) = before.get(&stage).copied().unwrap_or((0, 0.0));
            let executions = count.saturating_sub(count0);
            let seconds = (sum - sum0).max(0.0);
            (executions > 0).then(|| StageDelta {
                stage,
                executions,
                seconds,
                mean_ms: seconds * 1000.0 / executions as f64,
            })
        })
        .collect();
    deltas.sort_by(|a, b| a.stage.cmp(&b.stage));
    for d in &deltas {
        println!(
            "stage {:<12} {:>6} executions, {:>9.3}s total, {:>8.3}ms mean",
            d.stage, d.executions, d.seconds, d.mean_ms
        );
    }
    deltas
}

/// One cluster node: the address the ring knows it by, and a client.
struct Node {
    name: String,
    client: Client,
}

fn connect_nodes(args: &Args) -> Result<Vec<Node>, String> {
    args.nodes
        .iter()
        .map(|(name, addr)| {
            let client = connect(*addr, FILL_PATIENCE, args.timeout)?;
            Ok(Node {
                name: name.clone(),
                client,
            })
        })
        .collect()
}

/// Each node's `/metrics` text.
fn cluster_metrics(nodes: &mut [Node]) -> Vec<String> {
    nodes.iter_mut().map(|n| metrics(&mut n.client)).collect()
}

/// A counter summed over the nodes' scrapes.
fn sum(texts: &[String], name: &str) -> u64 {
    texts.iter().map(|text| scrape(text, name)).sum()
}

/// One verify-round answer: how it was served (`X-Cache`), its trace
/// id, and its latency.
struct Sample {
    us: u64,
    class: String,
    trace: Option<String>,
}

/// Posts each `(problem, node)` pair and records the answer as that
/// problem's reference bytes; returns how many answered 200.
fn fill(
    nodes: &mut [Node],
    mix: &[String],
    order: impl Iterator<Item = (usize, usize)>,
    reference: &mut [Option<String>],
    tally: &mut Tally,
) -> usize {
    let mut answered = 0;
    for (idx, n) in order {
        match post_expect(&mut nodes[n].client, SCHEDULE, &mix[idx], 200) {
            Ok(resp) => {
                reference[idx] = Some(resp.body);
                answered += 1;
            }
            Err(e) => tally.error(format_args!(
                "fill: node {} on problem {idx}: {e}",
                nodes[n].name
            )),
        }
    }
    answered
}

/// Posts every filled problem to each node from `first` on and
/// demands the reference bytes; one sample per 200 answer.
fn read_round(
    nodes: &mut [Node],
    first: usize,
    mix: &[String],
    reference: &[Option<String>],
    phase: &str,
    tally: &mut Tally,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    for (idx, body) in mix.iter().enumerate() {
        let Some(expected) = &reference[idx] else {
            continue;
        };
        for node in nodes.iter_mut().skip(first) {
            let sent = Instant::now();
            match post_expect(&mut node.client, SCHEDULE, body, 200) {
                Ok(resp) => {
                    samples.push(Sample {
                        us: sent.elapsed().as_micros() as u64,
                        class: resp.header("x-cache").unwrap_or("miss").to_owned(),
                        trace: resp.header("x-noc-trace").map(str::to_owned),
                    });
                    if resp.body != *expected {
                        tally.violation(format_args!(
                            "node {} diverges on problem {idx} ({phase})",
                            node.name
                        ));
                    }
                }
                Err(e) => tally.error(format_args!(
                    "{phase}: node {} on problem {idx}: {e}",
                    node.name
                )),
            }
        }
    }
    samples
}

/// Sorted latencies of read-round samples.
fn sorted_us<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> Vec<u64> {
    let mut us: Vec<u64> = samples.into_iter().map(|s| s.us).collect();
    us.sort_unstable();
    us
}

/// The `BENCH_cluster.json` artifact.
#[derive(Debug, Serialize)]
struct ClusterBench {
    nodes: Vec<String>,
    /// Distinct problems sprayed in the fill round.
    distinct_problems: usize,
    /// Requests answered across both rounds.
    requests: usize,
    errors: usize,
    determinism_violations: usize,
    /// Cross-node cache fills during the verify round (misses answered
    /// by fetching the owner's bytes instead of recomputing).
    peer_fills: u64,
    /// Peer-fill probes that found nothing and fell back to compute.
    peer_fill_misses: u64,
    /// Schedule computations across the cluster — the fill round's
    /// cost; the verify round must not add recomputes beyond what
    /// peer fill cannot cover.
    schedules_executed: u64,
    /// Internal lookups each node served for its peers.
    lookups_served: u64,
    /// Replication traffic observed (sent/received done-records).
    replication_sent: u64,
    replication_received: u64,
    /// Verify-round request latency percentiles, all nodes pooled —
    /// the number a down peer would inflate if fills burned the
    /// per-operation timeout instead of skipping via the detector.
    verify_p50_ms: f64,
    verify_p99_ms: f64,
    /// Verify-round latency split by how each answer was served
    /// (`X-Cache`: hit / peer / miss), with per-stage span costs from
    /// the nodes' flight recorders.
    hop_attribution: Vec<HopClass>,
    wall_s: f64,
}

/// Traces sampled per serving class for the per-stage span breakdown
/// (each sample costs one `/v1/internal/trace/<id>` scrape per node).
const TRACE_SAMPLES_PER_CLASS: usize = 8;

/// Latency and span attribution for one serving class, keyed by the
/// `X-Cache` answer label: `hit` = local cache, `peer` = cross-node
/// fill, `miss` = local compute, `join` = coalesced onto a twin.
#[derive(Debug, Serialize)]
struct HopClass {
    class: String,
    requests: usize,
    p50_ms: f64,
    p99_ms: f64,
    /// Verify-round traces of this class that some node's slow ring
    /// captured (only populated when the servers run a low `--slow-ms`).
    slow_ring_matched: usize,
    /// Per-stage span cost over a sample of this class's traces,
    /// scraped from every node's flight recorder.
    stages: Vec<StageCost>,
}

/// Aggregated cost of one pipeline stage across sampled spans.
#[derive(Debug, Serialize)]
struct StageCost {
    stage: String,
    spans: usize,
    mean_us: f64,
}

/// Builds the per-class attribution table from the verify round's
/// samples: percentiles per class, slow ring membership, and
/// per-stage span costs for a sampled subset of traces scraped from
/// every node's flight recorder.
fn attribute_hops(nodes: &mut [Node], samples: &[Sample]) -> Vec<HopClass> {
    // Every trace id any node's slow ring holds.
    let mut slow_ids: HashSet<String> = HashSet::new();
    for node in nodes.iter_mut() {
        if let Ok(resp) = node.client.get("/v1/internal/slow") {
            if resp.status == 200 {
                if let Ok(dump) = serde_json::from_str::<noc_svc::obs::SlowDump>(&resp.body) {
                    slow_ids.extend(dump.slow.into_iter().map(|s| s.trace));
                }
            }
        }
    }
    let mut by_class: HashMap<&str, Vec<&Sample>> = HashMap::new();
    for sample in samples {
        by_class.entry(&sample.class).or_default().push(sample);
    }
    let mut classes: Vec<HopClass> = Vec::new();
    for (class, entries) in by_class {
        let lat = sorted_us(entries.iter().copied());
        let traces: Vec<&String> = entries.iter().filter_map(|s| s.trace.as_ref()).collect();
        let slow_ring_matched = traces.iter().filter(|t| slow_ids.contains(**t)).count();
        // Per-stage costs over a bounded sample of this class's
        // traces, each reconstructed across every node's recorder.
        let mut stage_sum: HashMap<String, (usize, u64)> = HashMap::new();
        for id in traces.iter().take(TRACE_SAMPLES_PER_CLASS) {
            for node in nodes.iter_mut() {
                let Ok(resp) = node.client.get(&format!("/v1/internal/trace/{id}")) else {
                    continue;
                };
                if resp.status != 200 {
                    continue;
                }
                let Ok(dump) = serde_json::from_str::<noc_svc::obs::TraceDump>(&resp.body) else {
                    continue;
                };
                for span in dump.spans {
                    let slot = stage_sum.entry(span.stage).or_insert((0, 0));
                    slot.0 += 1;
                    slot.1 += span.wall_us;
                }
            }
        }
        let mut stages: Vec<StageCost> = stage_sum
            .into_iter()
            .map(|(stage, (spans, total_us))| StageCost {
                stage,
                spans,
                mean_us: total_us as f64 / spans as f64,
            })
            .collect();
        stages.sort_by(|a, b| a.stage.cmp(&b.stage));
        classes.push(HopClass {
            class: class.to_owned(),
            requests: entries.len(),
            p50_ms: pct_ms(&lat, 0.50),
            p99_ms: pct_ms(&lat, 0.99),
            slow_ring_matched,
            stages,
        });
    }
    classes.sort_by(|a, b| a.class.cmp(&b.class));
    classes
}

/// Multi-node driver: fill the cluster through round-robin sprayed
/// requests, then demand byte-identical answers for every problem
/// from **every** node, counting peer fills vs. local recomputes.
fn run_cluster(args: &Args) -> Result<(), String> {
    println!(
        "== svc_load --nodes: {} nodes, {} graphs, seed {:#x} ==",
        args.nodes.len(),
        args.graphs,
        args.seed
    );
    let mix = mix(args.seed, args.graphs, 4, &SCHEDULERS);
    let mut nodes = connect_nodes(args)?;
    let computes_before = sum(
        &cluster_metrics(&mut nodes),
        "noc_svc_schedules_executed_total",
    );

    let started = Instant::now();
    let mut tally = Tally::default();
    // Round 1 — fill: each problem goes to one node, round-robin, so
    // ownership and store placement spread across the ring.
    let mut reference: Vec<Option<String>> = vec![None; mix.len()];
    let n = nodes.len();
    let order = (0..mix.len()).map(|idx| (idx, idx % n));
    let filled = fill(&mut nodes, &mix, order, &mut reference, &mut tally);
    let fills_before = sum(
        &cluster_metrics(&mut nodes),
        "noc_svc_cluster_peer_fill_total",
    );

    // Round 2 — verify: every node must answer every problem with the
    // fill round's exact bytes, wherever those bytes have to come
    // from (local cache, the owner's store via peer fill, or a
    // replica).
    let samples = read_round(&mut nodes, 0, &mix, &reference, "verify", &mut tally);
    let wall_s = started.elapsed().as_secs_f64();

    let after = cluster_metrics(&mut nodes);
    let verify_us = sorted_us(&samples);
    let report = ClusterBench {
        nodes: nodes.iter().map(|n| n.name.clone()).collect(),
        distinct_problems: mix.len(),
        requests: filled + samples.len(),
        errors: tally.errors,
        determinism_violations: tally.violations,
        peer_fills: sum(&after, "noc_svc_cluster_peer_fill_total").saturating_sub(fills_before),
        peer_fill_misses: sum(&after, "noc_svc_cluster_peer_fill_misses_total"),
        schedules_executed: sum(&after, "noc_svc_schedules_executed_total")
            .saturating_sub(computes_before),
        lookups_served: sum(&after, "noc_svc_cluster_lookups_served_total"),
        replication_sent: sum(&after, "noc_svc_cluster_replication_sent_total"),
        replication_received: sum(&after, "noc_svc_cluster_replication_received_total"),
        verify_p50_ms: pct_ms(&verify_us, 0.50),
        verify_p99_ms: pct_ms(&verify_us, 0.99),
        hop_attribution: attribute_hops(&mut nodes, &samples),
        wall_s,
    };
    println!(
        "{} requests across {} nodes in {wall_s:.2}s | {} peer fills, {} computes, \
         {} lookups served | {} errors, {} determinism violations",
        report.requests,
        nodes.len(),
        report.peer_fills,
        report.schedules_executed,
        report.lookups_served,
        tally.errors,
        tally.violations,
    );
    for class in &report.hop_attribution {
        println!(
            "  served as {:<4}: {:>4} requests, p50 {:.2}ms p99 {:.2}ms, {} in slow rings, \
             {} stages sampled",
            class.class,
            class.requests,
            class.p50_ms,
            class.p99_ms,
            class.slow_ring_matched,
            class.stages.len(),
        );
    }
    finish(&args.out, &report, &tally)
}

/// The `BENCH_partition.json` artifact — the self-healing gate.
#[derive(Debug, Serialize)]
struct PartitionBench {
    nodes: Vec<String>,
    /// The node whose inbound proxy was denied for the drill.
    partitioned_node: String,
    distinct_problems: usize,
    errors: usize,
    determinism_violations: usize,
    /// Survivor-read latency percentiles *while the owner was
    /// partitioned*. The detector gate: these must sit near the local
    /// compute cost, not near `nodes × per-op timeout`, because after
    /// the first threshold failures the down peer is skipped in O(1).
    partition_p50_ms: f64,
    partition_p99_ms: f64,
    /// Fill attempts skipped because the detector held the peer Down.
    peer_fill_skips: u64,
    /// Probes granted to Down peers, and recoveries observed.
    probes: u64,
    peer_recoveries: u64,
    /// Replication deliveries that failed (and were requeued) plus
    /// retry-queue overflow drops across the drill.
    replication_delivery_failures: u64,
    replication_overflow: u64,
    /// Anti-entropy sweeps run and records they re-enqueued.
    anti_entropy_rounds: u64,
    anti_entropy_repairs: u64,
    /// Seconds from healing the partition to full owner+successor
    /// replication of every record (digest-verified).
    converge_s: f64,
    /// Whether convergence was reached before the deadline.
    fully_replicated: bool,
    /// Schedule computations during the post-heal full re-read —
    /// must be 0: every answer comes from a store hit or a peer fill.
    recomputes_after_heal: u64,
    wall_s: f64,
}

/// Partition drill against a cluster running behind `net_chaos`
/// proxies: fill, partition the first node (deny its inbound proxy),
/// read everything from the survivors (latency-gated), heal, wait for
/// anti-entropy to restore full owner+successor replication, then
/// demand a zero-recompute byte-identical full re-read.
///
/// `--nodes` must list the *proxy* addresses in ring-identity form —
/// the same strings the nodes were configured with as `--peers` — so
/// the locally built [`Ring`] agrees with the cluster's own
/// ownership. Control address i is node i's proxy.
fn run_partition(args: &Args) -> Result<(), String> {
    let names: Vec<String> = args.nodes.iter().map(|(name, _)| name.clone()).collect();
    let controls = &args.controls;
    println!(
        "== svc_load --chaos-net: {} nodes, {} graphs, seed {:#x}, partitioning {} ==",
        names.len(),
        args.graphs,
        args.seed,
        names[0]
    );
    let mix = mix(args.seed, args.graphs, 4, &SCHEDULERS);
    let ring = Ring::new(names.clone());
    let mut nodes = connect_nodes(args)?;
    // Make sure every proxy control answers before touching the
    // cluster, so a misconfigured drill fails before the fill wave.
    for (i, ctrl) in controls.iter().enumerate() {
        chaos_ctl(*ctrl, "status")
            .map_err(|e| format!("proxy control {i} ({ctrl}) unreachable: {e}"))?;
    }

    let started = Instant::now();
    let mut tally = Tally::default();
    let n = nodes.len();
    // Phase 1a — fill *half* the mix while the cluster is healthy, so
    // the partition later hits a settled, replicated baseline.
    let mut reference: Vec<Option<String>> = vec![None; mix.len()];
    let healthy_half = (0..mix.len()).step_by(2).map(|idx| (idx, idx % n));
    fill(&mut nodes, &mix, healthy_half, &mut reference, &mut tally);
    if !wait_until(Duration::from_secs(30), Duration::from_millis(100), || {
        replication_lag(&mut nodes) == 0
    }) {
        tally.error("replication lag did not drain after the healthy fill");
    }
    println!(
        "healthy fill done: {} problems, {} errors",
        mix.len().div_ceil(2),
        tally.errors
    );

    // Phase 1b — partition node 0, then fill the other half through
    // the survivors: every record owned by node 0 now exists only on
    // the survivor side, the debt anti-entropy must later repay.
    chaos_ctl(controls[0], "deny on").map_err(|e| format!("cannot partition {}: {e}", names[0]))?;
    let survivor_half = (1..mix.len())
        .step_by(2)
        .map(|idx| (idx, 1 + idx % (n - 1)));
    fill(&mut nodes, &mix, survivor_half, &mut reference, &mut tally);
    println!("mid-partition fill done: {} errors total", tally.errors);
    let samples = read_round(&mut nodes, 1, &mix, &reference, "mid-partition", &mut tally);
    let partition_us = sorted_us(&samples);
    let partition_p50_ms = pct_ms(&partition_us, 0.50);
    let partition_p99_ms = pct_ms(&partition_us, 0.99);
    println!(
        "partition reads done: p50 {partition_p50_ms:.2}ms p99 {partition_p99_ms:.2}ms, \
         {} errors, {} violations",
        tally.errors, tally.violations
    );

    // Phase 3 — heal and wait for anti-entropy convergence: every
    // record present in the digest of its owner *and* successor, and
    // all retry queues drained.
    chaos_ctl(controls[0], "deny off").map_err(|e| format!("cannot heal {}: {e}", names[0]))?;
    let healed = Instant::now();
    let fully_replicated = wait_until(Duration::from_secs(90), Duration::from_millis(250), || {
        replication_converged(&mut nodes, &ring) && replication_lag(&mut nodes) == 0
    });
    let converge_s = healed.elapsed().as_secs_f64();
    if fully_replicated {
        println!("anti-entropy converged {converge_s:.1}s after heal");
    } else {
        tally.error("cluster did not converge within 90s of healing");
    }

    // Phase 4 — the zero-recompute gate: with replication healed,
    // every node answers every problem byte-identically without a
    // single schedule execution anywhere.
    let executed = "noc_svc_schedules_executed_total";
    let computes_before = sum(&cluster_metrics(&mut nodes), executed);
    read_round(&mut nodes, 0, &mix, &reference, "post-heal", &mut tally);
    let after = cluster_metrics(&mut nodes);
    let recomputes_after_heal = sum(&after, executed).saturating_sub(computes_before);
    if recomputes_after_heal > 0 {
        tally.error(format_args!(
            "{recomputes_after_heal} schedules recomputed on the post-heal re-read \
             (want 0 — replication should already hold every record)"
        ));
    }

    let report = PartitionBench {
        partitioned_node: names[0].clone(),
        nodes: names,
        distinct_problems: mix.len(),
        errors: tally.errors,
        determinism_violations: tally.violations,
        partition_p50_ms,
        partition_p99_ms,
        peer_fill_skips: sum(&after, "noc_svc_cluster_peer_fill_skips_total"),
        probes: sum(&after, "noc_svc_cluster_probes_total"),
        peer_recoveries: sum(&after, "noc_svc_cluster_peer_recoveries_total"),
        replication_delivery_failures: sum(
            &after,
            "noc_svc_cluster_replication_delivery_failures_total",
        ),
        replication_overflow: sum(&after, "noc_svc_cluster_replication_overflow_total"),
        anti_entropy_rounds: sum(&after, "noc_svc_cluster_anti_entropy_rounds_total"),
        anti_entropy_repairs: sum(&after, "noc_svc_cluster_anti_entropy_repairs_total"),
        converge_s,
        fully_replicated,
        recomputes_after_heal,
        wall_s: started.elapsed().as_secs_f64(),
    };
    println!(
        "partition drill: p99 {partition_p99_ms:.2}ms under partition | {} skips, {} probes, \
         {} recoveries | {} anti-entropy repairs | converged in {converge_s:.1}s | \
         {recomputes_after_heal} post-heal recomputes | {} errors, {} violations",
        report.peer_fill_skips,
        report.probes,
        report.peer_recoveries,
        report.anti_entropy_repairs,
        tally.errors,
        tally.violations,
    );
    finish(&args.out, &report, &tally)
}

/// Sends one command line to a `net_chaos` control port and returns
/// its reply, failing on anything but an `ok` answer.
fn chaos_ctl(ctrl: SocketAddr, command: &str) -> Result<String, String> {
    let conn =
        TcpStream::connect_timeout(&ctrl, Duration::from_secs(5)).map_err(|e| e.to_string())?;
    let _ = conn.set_read_timeout(Some(Duration::from_secs(5)));
    let mut writer = conn.try_clone().map_err(|e| e.to_string())?;
    writer
        .write_all(format!("{command}\n").as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| e.to_string())?;
    let mut reply = String::new();
    std::io::BufReader::new(conn)
        .read_line(&mut reply)
        .map_err(|e| e.to_string())?;
    let reply = reply.trim().to_owned();
    if reply.starts_with("ok") {
        Ok(reply)
    } else {
        Err(format!("control answered {reply:?}"))
    }
}

/// The summed replication retry backlog
/// (`noc_svc_cluster_replication_lag`) across the nodes.
fn replication_lag(nodes: &mut [Node]) -> u64 {
    sum(&cluster_metrics(nodes), "noc_svc_cluster_replication_lag")
}

/// Checks full owner+successor replication: every record id reported
/// by *any* node's digest must be present in the digests of both
/// nodes on its ring owner chain.
fn replication_converged(nodes: &mut [Node], ring: &Ring) -> bool {
    let mut digests: HashMap<String, HashSet<String>> = HashMap::new();
    for node in nodes.iter_mut() {
        let digest = match node.client.get("/v1/internal/digest") {
            Ok(resp) if resp.status == 200 => serde_json::from_str::<Digest>(&resp.body).ok(),
            _ => None,
        };
        let Some(digest) = digest else {
            return false;
        };
        digests.insert(node.name.clone(), digest.ids.into_iter().collect());
    }
    digests.values().flatten().all(|id| {
        ring.owner_chain(id, 2)
            .iter()
            .all(|node| digests.get(*node).is_some_and(|ids| ids.contains(id)))
    })
}

/// One request a fill mode recorded for its verify mode.
#[derive(Debug, Serialize, Deserialize)]
struct Job {
    /// The id the server answered with: the async job's id, or a
    /// synchronous answer's `X-Request-Hash`.
    id: String,
    /// The exact request body posted.
    body: String,
    /// The response bytes the job must answer, computed locally or
    /// recorded from a durable answer.
    expected: String,
}

/// The fill → verify handoff file.
#[derive(Debug, Serialize, Deserialize)]
struct State {
    seed: u64,
    jobs: Vec<Job>,
}

/// `body` submitted as an async job.
fn async_body(body: &str) -> String {
    format!("{},\"mode\":\"async\"}}", &body[..body.len() - 1])
}

/// Posts `body` as an async job and returns the id its 202 names.
fn submit(client: &mut Client, path: &str, body: &str) -> Result<String, String> {
    let resp = post_expect(client, path, body, 202)?;
    serde_json::from_str::<serde_json::Value>(&resp.body)
        .ok()
        .and_then(|v| Some(v.as_object()?.get("id")?.as_str()?.to_owned()))
        .ok_or_else(|| format!("202 body has no id: {}", resp.body))
}

/// Writes a fill mode's handoff file; the fill passes when it
/// recorded jobs and found no error.
fn save_state(args: &Args, jobs: Vec<Job>, tally: &Tally) -> Result<(), String> {
    let recorded = jobs.len();
    let state = State {
        seed: args.seed,
        jobs,
    };
    noc_bench::write_json(&args.state, &state)?;
    println!(
        "{recorded} jobs recorded; state -> {}; {} errors",
        args.state, tally.errors
    );
    if recorded == 0 {
        return Err("no job was recorded".to_owned());
    }
    tally.verdict()
}

/// Loads the fill mode's handoff file and connects to the restarted
/// server, giving it time to replay its journal first.
fn resume(args: &Args) -> Result<(State, Client), String> {
    let state: State = std::fs::read_to_string(&args.state)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()))
        .map_err(|e| format!("cannot load {}: {e}", args.state))?;
    let client = connect(args.addr, Duration::from_secs(30), args.timeout)?;
    println!(
        "== svc_load {}: {} jobs from {} -> {} ==",
        args.mode.flag,
        state.jobs.len(),
        args.state,
        args.addr
    );
    Ok((state, client))
}

/// What replaying recorded async jobs on a restarted server showed.
#[derive(Default)]
struct Recovery {
    recovered: usize,
    byte_identical: usize,
    repost_identical: usize,
    journal_replayed: u64,
}

/// Polls every recorded job until the restarted server finishes it
/// and demands the recorded bytes, re-posts its body to `path`
/// expecting them again, and demands that the journal was replayed.
fn verify_jobs(client: &mut Client, jobs: &[Job], path: &str, tally: &mut Tally) -> Recovery {
    let mut recovery = Recovery::default();
    // Generous patience: the restarted server replays the journal and
    // re-runs every unfinished job before the answers converge.
    let deadline = Instant::now() + Duration::from_secs(120);
    for job in jobs {
        let poll = format!("/v1/jobs/{}", job.id);
        let finished = loop {
            match client.get(&poll) {
                Ok(resp)
                    if resp.body.contains("\"status\":\"queued\"")
                        || resp.body.contains("\"status\":\"running\"") =>
                {
                    if Instant::now() > deadline {
                        break Err("still pending at deadline".to_owned());
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
                Ok(resp) if resp.status == 200 => break Ok(resp.body),
                Ok(resp) => break Err(format!("answered {}: {}", resp.status, resp.body)),
                Err(e) => break Err(format!("poll failed: {e}")),
            }
        };
        let want = format!(
            "{{\"id\":\"{}\",\"status\":\"done\",\"result\":{}}}",
            job.id, job.expected
        );
        match finished {
            Ok(body) => {
                recovery.recovered += 1;
                if body == want {
                    recovery.byte_identical += 1;
                } else {
                    tally.error(format_args!(
                        "job {} diverged after recovery:\n  want {want}\n  got  {body}",
                        job.id
                    ));
                }
            }
            Err(e) => tally.error(format_args!("job {} {e}", job.id)),
        }
        // The recovered result must also serve the original request.
        match post_expect(client, path, &job.body, 200) {
            Ok(resp) if resp.body == job.expected => recovery.repost_identical += 1,
            Ok(_) => tally.error(format_args!(
                "re-post of job {} answered divergent bytes",
                job.id
            )),
            Err(e) => tally.error(format_args!("re-post of job {}: {e}", job.id)),
        }
    }
    recovery.journal_replayed = scrape(&metrics(client), "noc_svc_journal_replayed_total");
    if recovery.journal_replayed == 0 {
        tally.error("noc_svc_journal_replayed_total is 0 — the restart never replayed");
    }
    recovery
}

/// The `BENCH_chaos.json` artifact.
#[derive(Debug, Serialize)]
struct ChaosBench {
    addr: String,
    jobs: usize,
    recovered: usize,
    byte_identical: usize,
    repost_identical: usize,
    journal_replayed: u64,
    worker_panics: u64,
    errors: usize,
    wall_s: f64,
}

/// Chaos phase: panic-injection probes, mid-request connection kills,
/// then a wave of journaled async jobs whose expected bytes are
/// computed locally.
fn run_chaos(args: &Args) -> Result<(), String> {
    let mut client = connect(args.addr, FILL_PATIENCE, args.timeout)?;
    println!(
        "== svc_load --chaos: {} async jobs, seed {:#x} -> {} ==",
        args.jobs, args.seed, args.addr
    );
    let mut tally = Tally::default();

    // 1. Panic isolation: a `chaos-panic` request must die alone — a
    //    typed 500 for that request, business as usual for the next.
    for probe in 0..2u64 {
        let problem = Problem::new(args.seed.wrapping_add(0x9A9C).wrapping_add(probe), 8);
        match client.post(SCHEDULE, &problem.body("chaos-panic")) {
            Ok(resp) if resp.status == 500 && resp.body.contains("panic") => {}
            Ok(resp) => tally.error(format_args!(
                "chaos-panic probe {probe} answered {} (want isolated 500): {}",
                resp.status, resp.body
            )),
            Err(e) => tally.error(format_args!(
                "chaos-panic probe {probe} transport failure: {e}"
            )),
        }
        // The same connection must keep working after the panic.
        if let Err(e) = post_expect(&mut client, SCHEDULE, &problem.body("edf"), 200) {
            tally.error(format_args!("post-panic request {e}"));
        }
    }
    println!(
        "panic isolation probes done ({} errors so far)",
        tally.errors
    );

    // 2. Mid-flight kills: open a connection, send a torn request head
    //    that promises a body which never arrives, and hang up.
    for _ in 0..3 {
        if let Ok(mut raw) = TcpStream::connect(args.addr) {
            let torn = "POST /v1/schedule HTTP/1.1\r\nHost: chaos\r\n\
                        Content-Type: application/json\r\nContent-Length: 4096\r\n\r\n{\"graph\":";
            let _ = raw.write_all(torn.as_bytes());
            let _ = raw.flush();
        }
    }
    if let Err(e) = healthy(&mut client) {
        tally.error(format_args!("{e} after torn requests"));
    }

    // 3. Journaled async wave: fresh seeds (disjoint from the normal
    //    load mix, so no finished twin or cache entry can answer 200)
    //    with the expected bytes computed locally — schedules are
    //    byte-deterministic, so the restarted server must reproduce
    //    them exactly.
    let platform = platform();
    let mut jobs = Vec::new();
    for j in 0..args.jobs {
        // The first job is deliberately heavy (annealing a larger
        // graph): against a `--sched-workers 1` server it pins the
        // worker, so the rest of the wave is still accepted-but-
        // unfinished when the harness SIGKILLs — the replay path the
        // gate exists to exercise.
        let scheduler = if j == 0 {
            "anneal"
        } else {
            ["edf", "dls", "eas"][j % 3]
        };
        let tasks = if j == 0 { 96 } else { 12 + (j % 3) * 4 };
        let problem = Problem::new(args.seed.wrapping_add(0xC4A0).wrapping_add(j as u64), tasks);
        let expected = match noc_svc::spec::parse_scheduler(scheduler, 1).and_then(|s| {
            s.schedule(&problem.graph, &platform)
                .map_err(|e| e.to_string())
        }) {
            Ok(outcome) => ScheduleResponse::from_outcome(scheduler, &outcome).to_json(),
            Err(e) => {
                tally.error(format_args!("local {scheduler} schedule for job {j}: {e}"));
                continue;
            }
        };
        let body = async_body(&problem.body(scheduler));
        match submit(&mut client, SCHEDULE, &body) {
            Ok(id) => jobs.push(Job { id, body, expected }),
            Err(e) => tally.error(format_args!("async job {j} {e}")),
        }
    }
    save_state(args, jobs, &tally)
}

/// Verify phase, run against the restarted server: every job recorded
/// by the chaos phase must finish with exactly the locally computed
/// bytes, a re-post of each body must hit the recovered result, and the
/// journal-replay counter must prove the recovery actually happened.
fn run_chaos_verify(args: &Args) -> Result<(), String> {
    let started = Instant::now();
    let (state, mut client) = resume(args)?;
    let mut tally = Tally::default();
    let recovery = verify_jobs(&mut client, &state.jobs, SCHEDULE, &mut tally);
    let report = ChaosBench {
        addr: args.addr_text.clone(),
        jobs: state.jobs.len(),
        recovered: recovery.recovered,
        byte_identical: recovery.byte_identical,
        repost_identical: recovery.repost_identical,
        journal_replayed: recovery.journal_replayed,
        worker_panics: scrape(&metrics(&mut client), "noc_svc_worker_panics_total"),
        errors: tally.errors,
        wall_s: started.elapsed().as_secs_f64(),
    };
    println!(
        "{}/{} jobs recovered, {} byte-identical, {} re-posts identical, \
         {} journal records replayed, {} errors",
        report.recovered,
        report.jobs,
        report.byte_identical,
        report.repost_identical,
        report.journal_replayed,
        tally.errors
    );
    finish(&args.out, &report, &tally)
}

/// The `BENCH_delta_svc.json` artifact.
#[derive(Debug, Serialize)]
struct DeltaSvcBench {
    addr: String,
    jobs: usize,
    recovered: usize,
    byte_identical: usize,
    repost_identical: usize,
    /// Repaired schedules that re-validated against their edited graph
    /// and platform.
    validated: usize,
    journal_replayed: u64,
    delta_warm: u64,
    delta_fallback: u64,
    /// Disk-tier store hits on the restarted server (0 when the server
    /// runs without `--store-dir`).
    store_hits: u64,
    /// 1 while the store is degraded to memory-only serving.
    store_degraded: u64,
    /// 1 when the `--expect-store` fresh-edit prior gate passed.
    prior_from_store: u64,
    errors: usize,
    wall_s: f64,
}

/// `edits` applied to `graph` and to the `mesh:2x2` platform.
fn edited(graph: &TaskGraph, edits: &[Edit]) -> Result<(AppliedEdits, Platform), String> {
    let applied = apply_edits(graph, edits)?;
    let platform = apply_platform_edits(&platform(), &applied.edits)?;
    Ok((applied, platform))
}

/// The bytes the service must answer for `edits` against the EAS
/// schedule of `graph`: schedules are byte-deterministic, so the
/// server must reproduce the local repair exactly.
fn expected_delta(graph: &TaskGraph, edits: &[Edit]) -> Result<String, String> {
    let prior = noc_svc::spec::parse_scheduler("eas", 1)?
        .schedule(graph, &platform())
        .map_err(|e| e.to_string())?;
    let (applied, platform) = edited(graph, edits)?;
    let delta =
        repair_from(graph, &prior.schedule, &platform, &applied).map_err(|e| e.to_string())?;
    Ok(DeltaResponse::from_outcome(&delta).to_json())
}

/// A delta request body: `edits` against the EAS request for `prior`.
fn delta_body(prior_request: &str, edits: &[Edit]) -> String {
    let edits = serde_json::to_string(edits).expect("serializes");
    format!(r#"{{"prior":{prior_request},"edits":{edits}}}"#)
}

/// Builds one deterministic delta request and its expected bytes: an
/// edit sequence against a TGFF graph's EAS schedule — warm-startable
/// for most `j`, a forced `edit-storm` fallback when `j % 4 == 3`
/// (every task edited, so rebasing would preserve nothing).
fn delta_problem(seed: u64, j: u64) -> (String, String) {
    let tasks = 10 + (j as usize % 3) * 4;
    let problem = Problem::new(seed.wrapping_add(0xDE17A).wrapping_add(j), tasks);
    let graph = &problem.graph;
    let n = graph.task_count() as u32;
    let edits: Vec<Edit> = if j % 4 == 3 {
        // Edit storm: one edit per task forces the full-reschedule path.
        (0..n)
            .map(|task| Edit::SetDeadline {
                task,
                deadline: None,
            })
            .collect()
    } else {
        // A small warm-startable mix: drop one deadline, bump one
        // task's costs by ~10%.
        let bumped = graph.task(noc_ctg::prelude::TaskId::new((1 + j as u32) % n));
        vec![
            Edit::SetDeadline {
                task: j as u32 % n,
                deadline: None,
            },
            Edit::SetExecTime {
                task: (1 + j as u32) % n,
                exec_times: bumped
                    .exec_times()
                    .iter()
                    .map(|w| w.ticks() + w.ticks() / 10 + 1)
                    .collect(),
                exec_energies: bumped.exec_energies().iter().map(|e| e.as_nj()).collect(),
            },
        ]
    };
    let expected = expected_delta(graph, &edits).expect("the local repair succeeds");
    (delta_body(&problem.body("eas"), &edits), expected)
}

/// The prior graph and the edits of a recorded delta request body.
fn delta_inputs(body: &str) -> Result<(DeltaRequest, TaskGraph, Vec<Edit>), String> {
    let request: DeltaRequest = serde_json::from_str(body).map_err(|e| e.to_string())?;
    let graph =
        TaskGraph::from_value(&request.prior_request()?.graph).map_err(|e| e.to_string())?;
    let edits = Vec::<Edit>::from_value(&request.edits).map_err(|e| e.to_string())?;
    Ok((request, graph, edits))
}

/// Delta phase: cross-client byte-determinism probes on sync delta
/// requests, then a wave of journaled async delta jobs whose expected
/// bytes are computed locally.
fn run_delta(args: &Args) -> Result<(), String> {
    let mut client_a = connect(args.addr, FILL_PATIENCE, args.timeout)?;
    let mut client_b = connect(args.addr, FILL_PATIENCE, args.timeout)?;
    println!(
        "== svc_load --delta: {} async delta jobs, seed {:#x} -> {} ==",
        args.jobs, args.seed, args.addr
    );
    let mut tally = Tally::default();

    // 1. Cross-client determinism on sync delta answers: two
    //    independent connections must see bytes identical to each other
    //    and to the locally computed answer. Probe 3 covers the forced
    //    edit-storm fallback; the rest warm start.
    for probe in 0..4u64 {
        let (body, expected) = delta_problem(args.seed.wrapping_add(0x5C), probe);
        match (
            post_expect(&mut client_a, DELTA, &body, 200),
            post_expect(&mut client_b, DELTA, &body, 200),
        ) {
            (Ok(a), Ok(b)) => {
                if a.body != expected {
                    tally.error(format_args!(
                        "delta probe {probe} diverged from the local bytes:\n  want {expected}\n  got  {}",
                        a.body
                    ));
                }
                if a.body != b.body {
                    tally.error(format_args!(
                        "delta probe {probe} answered divergent bytes across clients"
                    ));
                }
            }
            (a, b) => {
                for (client, answer) in [("A", a), ("B", b)] {
                    if let Err(e) = answer {
                        tally.error(format_args!("delta probe {probe} client {client} {e}"));
                    }
                }
            }
        }
    }
    println!(
        "cross-client determinism probes done ({} errors so far)",
        tally.errors
    );

    // 2. Journaled async wave, disjoint seeds: accepted-but-maybe-
    //    unfinished when the harness SIGKILLs the server.
    let mut jobs = Vec::new();
    for j in 0..args.jobs {
        let (body, expected) = delta_problem(args.seed.wrapping_add(0xA57C), j as u64);
        let body = async_body(&body);
        match submit(&mut client_a, DELTA, &body) {
            Ok(id) => jobs.push(Job { id, body, expected }),
            Err(e) => tally.error(format_args!("async delta job {j} {e}")),
        }
    }
    save_state(args, jobs, &tally)
}

/// Delta verify phase, run against the restarted server: every recorded
/// delta job must finish with exactly the locally computed bytes, a
/// re-post must reproduce them, every repaired schedule must validate
/// against its edited graph and platform, and the journal-replay
/// counter must prove the recovery happened.
fn run_delta_verify(args: &Args) -> Result<(), String> {
    let started = Instant::now();
    let (state, mut client) = resume(args)?;
    let mut tally = Tally::default();
    let recovery = verify_jobs(&mut client, &state.jobs, DELTA, &mut tally);
    // The repaired schedule must validate against the *edited* graph
    // and platform.
    let mut validated = 0usize;
    for job in &state.jobs {
        let check = || -> Result<(), String> {
            let (_, graph, edits) = delta_inputs(&job.body)?;
            let (applied, platform) = edited(&graph, &edits)?;
            let response: DeltaResponse =
                serde_json::from_str(&job.expected).map_err(|e| e.to_string())?;
            noc_schedule::validate(&response.result.schedule, &applied.graph, &platform)
                .map(drop)
                .map_err(|e| e.to_string())
        };
        match check() {
            Ok(()) => validated += 1,
            Err(e) => tally.error(format_args!(
                "delta job {} failed re-validation: {e}",
                job.id
            )),
        }
    }

    let mut prior_from_store = 0u64;
    if let (true, Some(job)) = (args.expect_store, state.jobs.first()) {
        match store_prior_gate(&mut client, job) {
            Ok(()) => prior_from_store = 1,
            Err(e) => tally.error(format_args!("store-backed prior gate failed: {e}")),
        }
    }

    let metrics = metrics(&mut client);
    let store_hits = scrape(&metrics, "noc_svc_store_hits_total");
    let store_degraded = scrape(&metrics, "noc_svc_store_degraded");
    if args.expect_store {
        if store_hits == 0 {
            tally.error("noc_svc_store_hits_total is 0 — the disk tier never answered");
        }
        if store_degraded != 0 {
            tally.error("the persistent store is degraded to memory-only mode");
        }
    }
    let report = DeltaSvcBench {
        addr: args.addr_text.clone(),
        jobs: state.jobs.len(),
        recovered: recovery.recovered,
        byte_identical: recovery.byte_identical,
        repost_identical: recovery.repost_identical,
        validated,
        journal_replayed: recovery.journal_replayed,
        delta_warm: scrape(&metrics, "noc_svc_delta_warm_total"),
        delta_fallback: scrape(&metrics, "noc_svc_delta_fallback_total"),
        store_hits,
        store_degraded,
        prior_from_store,
        errors: tally.errors,
        wall_s: started.elapsed().as_secs_f64(),
    };
    println!(
        "{}/{} delta jobs recovered, {} byte-identical, {} re-posts identical, \
         {validated} schedules re-validated, {} journal records replayed, {} errors",
        report.recovered,
        report.jobs,
        report.byte_identical,
        report.repost_identical,
        report.journal_replayed,
        tally.errors
    );
    finish(&args.out, &report, &tally)
}

/// With a persistent store behind the server, a *fresh* edit against
/// a recorded prior must warm start from the durable prior — the
/// restarted server never saw the prior request on this run, so only
/// the store can resolve it.
fn store_prior_gate(client: &mut Client, job: &Job) -> Result<(), String> {
    let (request, graph, _) = delta_inputs(&job.body)?;
    let edits = [Edit::SetDeadline {
        task: 0,
        deadline: None,
    }];
    let expected = expected_delta(&graph, &edits)?;
    let prior = serde_json::to_string(&request.prior).map_err(|e| e.to_string())?;
    let prior_hits = |client: &mut Client| {
        client
            .get("/metrics")
            .map(|r| scrape(&r.body, "noc_svc_delta_prior_hits_total"))
            .map_err(|e| e.to_string())
    };
    let before = prior_hits(client)?;
    let resp = post_expect(client, DELTA, &delta_body(&prior, &edits), 200)?;
    if resp.body != expected {
        return Err("fresh-edit delta diverged from the local bytes".to_owned());
    }
    let after = prior_hits(client)?;
    if after <= before {
        return Err(format!(
            "fresh-edit delta did not resolve its prior from the store \
             (delta_prior_hits {before} -> {after})"
        ));
    }
    Ok(())
}

/// The `BENCH_store_svc.json` artifact.
#[derive(Debug, Serialize)]
struct StoreSvcBench {
    addr: String,
    jobs: usize,
    /// Re-posts answered 200 with the recorded bytes.
    byte_identical: usize,
    /// Re-posts served as cache hits (`X-Cache: hit`).
    served_as_hit: usize,
    /// Schedule executions the re-post wave cost (the gate: 0).
    recomputes: u64,
    /// Disk-tier hits the re-post wave produced (the gate: >= jobs).
    store_hits_delta: u64,
    store_quarantined: u64,
    store_torn_tails: u64,
    store_rotations: u64,
    store_segments: u64,
    store_degraded: u64,
    errors: usize,
    wall_s: f64,
}

/// Store fill phase: a synchronous wave whose every answer is durable
/// on disk at 200 time, recorded with its bytes; then a trailing async
/// wave (heavy pin first) so the harness's SIGKILL lands with segment
/// writes and journal entries in flight.
fn run_store_fill(args: &Args) -> Result<(), String> {
    let mut client = connect(args.addr, FILL_PATIENCE, args.timeout)?;
    println!(
        "== svc_load --store-fill: {} sync jobs, seed {:#x} -> {} ==",
        args.jobs, args.seed, args.addr
    );
    let mut tally = Tally::default();
    let mut jobs = Vec::new();
    for j in 0..args.jobs {
        let seed = args.seed.wrapping_add(0x570E).wrapping_add(j as u64);
        let body = Problem::new(seed, 10 + (j % 4) * 3).body(["edf", "dls", "eas"][j % 3]);
        match post_expect(&mut client, SCHEDULE, &body, 200) {
            Ok(resp) => {
                if resp.header("store-degraded").is_some() {
                    tally.error("store degraded to memory-only during the fill");
                }
                let id = resp.header("x-request-hash").unwrap_or_default().to_owned();
                jobs.push(Job {
                    id,
                    body,
                    expected: resp.body,
                });
            }
            Err(e) => tally.error(format_args!("sync job {j} {e}")),
        }
    }
    println!("{} sync responses durable and recorded", jobs.len());

    // Trailing async wave: the heavy anneal job pins a single-worker
    // server, so the rest is accepted-but-unfinished — the SIGKILL
    // lands with journal entries live and store writes still owed.
    for j in 0..4usize {
        let (scheduler, tasks) = if j == 0 { ("anneal", 96) } else { ("edf", 12) };
        let problem = Problem::new(args.seed.wrapping_add(0x57A1).wrapping_add(j as u64), tasks);
        if let Err(e) = submit(&mut client, SCHEDULE, &async_body(&problem.body(scheduler))) {
            tally.error(format_args!("trailing async job {j} {e}"));
        }
    }
    save_state(args, jobs, &tally)
}

/// Store verify phase, run against the restarted server: wait for the
/// replayed backlog to settle, then re-post every recorded body — each
/// must answer the recorded bytes as a cache hit, cost **zero**
/// schedule executions, and raise the disk-tier hit counter by at
/// least one per record.
fn run_store_verify(args: &Args) -> Result<(), String> {
    let started = Instant::now();
    let (state, mut client) = resume(args)?;
    let mut tally = Tally::default();

    // Let the replayed journal backlog drain first: re-run jobs settle,
    // so the executed counter is quiescent before the gated re-posts.
    let drained = wait_until(Duration::from_secs(120), Duration::from_millis(100), || {
        let metrics = metrics(&mut client);
        scrape(&metrics, "noc_svc_queue_depth") == 0
            && scrape(&metrics, "noc_svc_jobs_inflight") == 0
    });
    if !drained {
        tally.error("replayed backlog still busy at deadline");
    }

    let before = metrics(&mut client);
    let mut byte_identical = 0usize;
    let mut served_as_hit = 0usize;
    for job in &state.jobs {
        let id = &job.id;
        match post_expect(&mut client, SCHEDULE, &job.body, 200) {
            Ok(resp) if resp.body == job.expected => {
                byte_identical += 1;
                if resp.header("x-cache") == Some("hit") {
                    served_as_hit += 1;
                } else {
                    tally.error(format_args!(
                        "re-post of {id} was not served as a cache hit"
                    ));
                }
                if resp.header("store-degraded").is_some() {
                    tally.error(format_args!(
                        "re-post of {id} was served degraded (memory-only)"
                    ));
                }
            }
            Ok(_) => tally.error(format_args!(
                "re-post of {id} answered divergent bytes (want the recorded 200)"
            )),
            Err(e) => tally.error(format_args!("re-post of {id} {e}")),
        }
    }

    let after = metrics(&mut client);
    let delta = |name: &str| scrape(&after, name).saturating_sub(scrape(&before, name));
    let recomputes = delta("noc_svc_schedules_executed_total");
    if recomputes != 0 {
        tally.error(format_args!(
            "the re-post wave cost {recomputes} schedule executions (the store must \
             answer them all)"
        ));
    }
    let store_hits_delta = delta("noc_svc_store_hits_total");
    if store_hits_delta < state.jobs.len() as u64 {
        tally.error(format_args!(
            "only {store_hits_delta} disk-tier hits for {} re-posts — responses did \
             not come from the persistent store",
            state.jobs.len()
        ));
    }
    let store_degraded = scrape(&after, "noc_svc_store_degraded");
    if store_degraded != 0 {
        tally.error("the persistent store is degraded to memory-only mode");
    }

    let report = StoreSvcBench {
        addr: args.addr_text.clone(),
        jobs: state.jobs.len(),
        byte_identical,
        served_as_hit,
        recomputes,
        store_hits_delta,
        store_quarantined: scrape(&after, "noc_svc_store_quarantined_total"),
        store_torn_tails: scrape(&after, "noc_svc_store_torn_tails_total"),
        store_rotations: scrape(&after, "noc_svc_store_rotations_total"),
        store_segments: scrape(&after, "noc_svc_store_segments"),
        store_degraded,
        errors: tally.errors,
        wall_s: started.elapsed().as_secs_f64(),
    };
    println!(
        "{byte_identical}/{} re-posts byte-identical ({served_as_hit} as hits), \
         {recomputes} recomputes, {store_hits_delta} disk-tier hits, {} errors",
        report.jobs, tally.errors
    );
    finish(&args.out, &report, &tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse_args(&argv)
    }

    fn rejected(line: &str) -> String {
        parse(line).expect_err("the command line must be rejected")
    }

    const TWO: &str = "127.0.0.1:1,127.0.0.1:2";

    #[test]
    fn chaos_with_cluster_and_load_flags_is_rejected() {
        let line = format!("--chaos --jobs 8 --nodes {TWO} --stats --idle-conns 5");
        assert_eq!(rejected(&line), "--chaos does not read --nodes");
        assert_eq!(
            rejected(&format!("--chaos --nodes {TWO}")),
            "--chaos does not read --nodes"
        );
    }

    #[test]
    fn delta_verify_rejects_nodes() {
        assert_eq!(
            rejected(&format!("--delta-verify --nodes {TWO}")),
            "--delta-verify does not read --nodes"
        );
    }

    #[test]
    fn store_verify_rejects_expect_store_and_requests() {
        assert_eq!(
            rejected("--store-verify --expect-store --requests 5"),
            "--store-verify does not read --expect-store"
        );
        assert_eq!(
            rejected("--store-verify --requests 5"),
            "--store-verify does not read --requests"
        );
    }

    #[test]
    fn two_mode_flags_are_rejected() {
        assert_eq!(rejected("--chaos --delta"), "--chaos does not read --delta");
        assert_eq!(
            rejected(&format!("--store-fill --chaos-net {TWO}")),
            "--store-fill does not read --chaos-net"
        );
    }

    #[test]
    fn cluster_rejects_load_flags() {
        assert_eq!(
            rejected(&format!("--nodes {TWO} --stats")),
            "--nodes does not read --stats"
        );
        assert_eq!(
            rejected(&format!("--nodes {TWO} --addr 127.0.0.1:8533")),
            "--nodes does not read --addr"
        );
    }

    #[test]
    fn load_wave_rejects_recovery_flags() {
        assert_eq!(rejected("--jobs 3"), "the load wave does not read --jobs");
        assert_eq!(
            rejected("--state s.json"),
            "the load wave does not read --state"
        );
    }

    #[test]
    fn fill_modes_write_no_artifact() {
        assert_eq!(
            rejected("--chaos BENCH_chaos.json"),
            "--chaos writes no artifact (got \"BENCH_chaos.json\")"
        );
    }

    #[test]
    fn malformed_addresses_and_values_are_rejected() {
        assert_eq!(
            rejected("--chaos-net 127.0.0.1:1"),
            "--chaos-net requires --nodes"
        );
        assert_eq!(
            rejected(&format!("--nodes {TWO} --chaos-net 127.0.0.1:3")),
            "--chaos-net needs one control address per --nodes entry (1 controls for 2 nodes)"
        );
        assert_eq!(
            rejected("--nodes 127.0.0.1:1"),
            "--nodes needs at least two comma-separated addresses"
        );
        assert_eq!(rejected("--nodes x,y"), "bad --nodes address \"x\"");
        assert_eq!(rejected("--addr nowhere"), "bad --addr \"nowhere\"");
        assert_eq!(rejected("--requests"), "--requests needs a value");
        assert_eq!(
            rejected("--requests many"),
            "invalid numeric value \"many\""
        );
        assert_eq!(rejected("--threads 2"), "unknown flag --threads");
    }

    #[test]
    fn each_mode_has_its_own_default_files() {
        let load = parse("").expect("the load wave");
        assert_eq!(load.mode.flag, "");
        assert_eq!(load.out, "BENCH_service.json");
        assert_eq!((load.requests, load.clients, load.graphs), (1200, 4, 12));
        assert_eq!((load.seed, load.jobs), (1516, 8));
        assert_eq!(load.timeout, Duration::from_secs(60));
        let verify = parse("--delta-verify --timeout-ms 5").expect("delta verify");
        assert_eq!(verify.state, "delta_state.json");
        assert_eq!(verify.out, "BENCH_delta_svc.json");
        let fill = parse("--store-fill --state s.json").expect("store fill");
        assert_eq!(fill.state, "s.json");
        let drill = parse(&format!("--nodes {TWO} --chaos-net {TWO} p.json")).expect("drill");
        assert_eq!(drill.mode.flag, "--chaos-net");
        assert_eq!(drill.out, "p.json");
        assert_eq!(drill.controls.len(), 2);
    }

    /// Every `svc_load` command line in CI must name flags its mode
    /// reads, so a CI edit that passes an ignored flag fails here
    /// rather than in a smoke job.
    #[test]
    fn ci_command_lines_parse() {
        let ci = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../.github/workflows/ci.yml"
        ))
        .expect("the CI workflow is readable");
        let joined = ci.replace("\\\n", " ");
        let mut modes = HashSet::new();
        let mut runs = 0;
        for line in joined.lines() {
            let Some((_, rest)) = line.split_once("target/release/svc_load ") else {
                continue;
            };
            let argv: Vec<String> = rest
                .split_whitespace()
                .map(|token| token.trim_matches('"'))
                .map(|token| {
                    if token.starts_with('$') {
                        "127.0.0.1:1,127.0.0.1:2,127.0.0.1:3".to_owned()
                    } else {
                        token.to_owned()
                    }
                })
                .collect();
            let args = parse_args(&argv).unwrap_or_else(|e| panic!("CI line `{rest}`: {e}"));
            modes.insert(args.mode.flag);
            runs += 1;
        }
        assert_eq!(runs, 13, "svc_load runs found in CI");
        assert_eq!(modes.len(), MODES.len(), "every mode runs in CI: {modes:?}");
    }
}

//! Load generator for the `noceas serve` scheduling service. Fires a
//! fixed-seed request mix at a running server from several concurrent
//! keep-alive clients, checks every answer for byte determinism
//! (identical bodies for identical requests, across clients and across
//! cold/cached/coalesced serving), and writes `BENCH_service.json`
//! with throughput, latency percentiles and cache statistics.
//!
//! Flags: `--addr <host:port>` (default `127.0.0.1:8533`),
//! `--requests <N>` (default 1200), `--clients <N>` (default 4),
//! `--graphs <N>` distinct problems (default 12), `--seed <N>`
//! (default 0x5EC), `--timeout-ms <N>` client read/write timeout
//! (default 60000), `--stats` to scrape the per-stage
//! `noc_svc_stage_seconds` histograms before and after the wave and
//! record the deltas in the artifact. The first positional argument
//! overrides the artifact path. Exits non-zero on any transport error,
//! non-200 answer, or determinism violation.
//!
//! `--idle-conns <N>` additionally parks N idle keep-alive
//! connections on the server for the whole wave (the reactor's 10k+
//! concurrent-connection gate) and fails the run if a post-wave
//! sample of them no longer answers. Raise `ulimit -n` accordingly,
//! and give the server an `--timeout-ms`-scale io timeout so the
//! keep-alive sweep doesn't reap the pool mid-wave.
//!
//! Cluster mode, for the multi-node CI gate:
//!
//! * `--nodes <addr,addr,...>` — sprays the fixed-seed problem mix
//!   round-robin across the listed nodes (fill), then demands every
//!   node answer every problem byte-identically (verify), counting
//!   peer cache-fills vs. local recomputes from each node's
//!   `noc_svc_cluster_*` metrics, and writes `BENCH_cluster.json`,
//!   including per-hop latency attribution: verify-round percentiles
//!   split by `X-Cache` serving class, slow-ring membership, and
//!   per-stage span costs scraped from the nodes' flight recorders.
//! * `--chaos-net <ctrl,ctrl,...>` (with `--nodes`) — partition drill
//!   against nodes listening behind `net_chaos` proxies, one control
//!   address per node: fill, deny the first node's inbound proxy,
//!   read everything from the survivors (latency percentiles prove
//!   the failure detector skips the down peer instead of burning the
//!   per-op timeout), heal, wait for anti-entropy to restore full
//!   owner+successor replication (digest-verified), then gate a
//!   byte-identical full re-read from every node with **zero**
//!   schedule recomputes. Writes `BENCH_partition.json`. The `--nodes`
//!   strings must be the proxy addresses exactly as the nodes name
//!   each other, so the driver's ring matches the cluster's.
//!
//! Chaos modes, for the crash-recovery CI gate:
//!
//! * `--chaos [--jobs N] [--state chaos_state.json]` — attacks a
//!   *journaled* server: posts `chaos-panic` requests (each must fail
//!   with an isolated 500 while the service keeps answering), kills
//!   connections mid-request, then submits N async jobs and records
//!   their ids plus the locally computed expected response bytes in the
//!   state file. The harness SIGKILLs the server afterwards.
//! * `--chaos-verify --state chaos_state.json` — runs against the
//!   *restarted* server: polls every recorded job until the replayed
//!   journal finishes it, byte-compares each response against the
//!   expected bytes, re-posts each body expecting the identical answer,
//!   and writes the `BENCH_chaos.json` artifact.
//!
//! Delta modes, for the warm-start CI gate (`POST /v1/schedule/delta`):
//!
//! * `--delta [--jobs N] [--state delta_state.json]` — computes every
//!   delta answer locally (prior EAS schedule, edits applied, warm-start
//!   repair), checks sync answers from two independent clients are
//!   byte-identical to each other and to the local bytes (covering both
//!   warm-start and forced-fallback edit sequences), then submits N
//!   async journaled delta jobs and records their ids, bodies, expected
//!   bytes, and the graph/edits needed to re-validate. The harness
//!   SIGKILLs the server afterwards.
//! * `--delta-verify --state delta_state.json` — runs against the
//!   *restarted* server: polls every recorded delta job, byte-compares
//!   each response against the expected bytes, re-posts each body
//!   expecting the identical answer, structurally validates every
//!   repaired schedule against its *edited* graph and platform, and
//!   writes the `BENCH_delta_svc.json` artifact. With `--expect-store`
//!   the server must be store-backed: the gate additionally posts a
//!   fresh-edit delta whose prior can only come from the persistent
//!   store, and requires `noc_svc_store_hits_total` > 0,
//!   `noc_svc_delta_prior_hits_total` > 0 and an undegraded store.
//!
//! Store modes, for the persistent-store CI gate (`--store-dir`):
//!
//! * `--store-fill [--jobs N] [--state store_state.json]` — posts N
//!   *synchronous* schedule requests to a store-backed server (each
//!   response is durable on disk by the time the 200 arrives), records
//!   every body with its expected bytes in the state file, then
//!   submits a trailing wave of async jobs (a heavy pin first) so the
//!   harness's SIGKILL lands with segment writes and journal entries
//!   in flight.
//! * `--store-verify --state store_state.json` — runs against the
//!   *restarted* server: waits for the replayed backlog to drain,
//!   re-posts every recorded body and requires a byte-identical 200
//!   served as a cache hit with **zero** schedule recomputes and at
//!   least one disk-tier store hit per record
//!   (`noc_svc_store_hits_total`), requires the store undegraded, and
//!   writes the `BENCH_store_svc.json` artifact.

use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Serialize;

use noc_svc::client::Client;

/// Schedulers cycled through the request mix — the fast baselines, so
/// the load exercises the service rather than the EAS search.
const SCHEDULERS: [&str; 2] = ["edf", "dls"];

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

fn main() {
    let mut out_path: Option<String> = None;
    let mut addr_text = "127.0.0.1:8533".to_owned();
    let mut requests = 1200usize;
    let mut clients = 4usize;
    let mut graphs = 12usize;
    let mut seed = 0x5ECu64;
    let mut timeout_ms = 60_000u64;
    let mut stats = false;
    let mut chaos = false;
    let mut chaos_verify = false;
    let mut delta = false;
    let mut delta_verify = false;
    let mut store_fill = false;
    let mut store_verify = false;
    let mut expect_store = false;
    let mut jobs = 8usize;
    let mut state_path = "chaos_state.json".to_owned();
    let mut nodes_text: Option<String> = None;
    let mut chaos_net_text: Option<String> = None;
    let mut idle_conns = 0usize;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag_value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i)
                .unwrap_or_else(|| {
                    eprintln!("error: {} needs a value", args[*i - 1]);
                    std::process::exit(2);
                })
                .clone()
        };
        match args[i].as_str() {
            "--addr" => addr_text = flag_value(&mut i),
            "--requests" => requests = parse(&flag_value(&mut i)),
            "--clients" => clients = parse::<usize>(&flag_value(&mut i)).max(1),
            "--graphs" => graphs = parse::<usize>(&flag_value(&mut i)).max(1),
            "--seed" => seed = parse(&flag_value(&mut i)),
            "--timeout-ms" => timeout_ms = parse::<u64>(&flag_value(&mut i)).max(1),
            "--jobs" => jobs = parse::<usize>(&flag_value(&mut i)).max(1),
            "--state" => state_path = flag_value(&mut i),
            "--stats" => stats = true,
            "--chaos" => chaos = true,
            "--chaos-verify" => chaos_verify = true,
            "--delta" => delta = true,
            "--delta-verify" => delta_verify = true,
            "--store-fill" => store_fill = true,
            "--store-verify" => store_verify = true,
            "--expect-store" => expect_store = true,
            "--nodes" => nodes_text = Some(flag_value(&mut i)),
            "--chaos-net" => chaos_net_text = Some(flag_value(&mut i)),
            "--idle-conns" => idle_conns = parse(&flag_value(&mut i)),
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown flag {flag}");
                std::process::exit(2);
            }
            path => out_path = Some(path.to_owned()),
        }
        i += 1;
    }
    let addr: SocketAddr = addr_text.parse().unwrap_or_else(|_| {
        eprintln!("error: bad --addr {addr_text:?}");
        std::process::exit(2);
    });
    let timeout = Duration::from_millis(timeout_ms);

    if [
        chaos,
        chaos_verify,
        delta,
        delta_verify,
        store_fill,
        store_verify,
    ]
    .iter()
    .filter(|&&m| m)
    .count()
        > 1
    {
        eprintln!(
            "error: --chaos, --chaos-verify, --delta, --delta-verify, --store-fill and \
             --store-verify are mutually exclusive"
        );
        std::process::exit(2);
    }
    if store_fill || store_verify {
        let state = if state_path == "chaos_state.json" {
            "store_state.json".to_owned()
        } else {
            state_path.clone()
        };
        if store_fill {
            std::process::exit(run_store_fill(addr, seed, jobs, timeout, &state));
        }
        let out = out_path.unwrap_or_else(|| "BENCH_store_svc.json".to_owned());
        std::process::exit(run_store_verify(addr, &addr_text, timeout, &state, &out));
    }
    if delta {
        let state = if state_path == "chaos_state.json" {
            "delta_state.json".to_owned()
        } else {
            state_path.clone()
        };
        std::process::exit(run_delta(addr, seed, jobs, timeout, &state));
    }
    if delta_verify {
        let state = if state_path == "chaos_state.json" {
            "delta_state.json".to_owned()
        } else {
            state_path.clone()
        };
        let out = out_path.unwrap_or_else(|| "BENCH_delta_svc.json".to_owned());
        std::process::exit(run_delta_verify(
            addr,
            &addr_text,
            timeout,
            &state,
            &out,
            expect_store,
        ));
    }
    if let Some(nodes_text) = nodes_text {
        let mut nodes = Vec::new();
        for part in nodes_text
            .split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
        {
            match part.parse::<SocketAddr>() {
                Ok(node) => nodes.push((part.to_owned(), node)),
                Err(_) => {
                    eprintln!("error: bad --nodes address {part:?}");
                    std::process::exit(2);
                }
            }
        }
        if nodes.len() < 2 {
            eprintln!("error: --nodes needs at least two comma-separated addresses");
            std::process::exit(2);
        }
        if let Some(ctrl_text) = chaos_net_text {
            let mut controls = Vec::new();
            for part in ctrl_text
                .split(',')
                .map(str::trim)
                .filter(|p| !p.is_empty())
            {
                match part.parse::<SocketAddr>() {
                    Ok(ctrl) => controls.push(ctrl),
                    Err(_) => {
                        eprintln!("error: bad --chaos-net address {part:?}");
                        std::process::exit(2);
                    }
                }
            }
            if controls.len() != nodes.len() {
                eprintln!(
                    "error: --chaos-net needs one control address per --nodes entry \
                     ({} controls for {} nodes)",
                    controls.len(),
                    nodes.len()
                );
                std::process::exit(2);
            }
            let out = out_path.unwrap_or_else(|| "BENCH_partition.json".to_owned());
            std::process::exit(run_chaos_net(
                &nodes, &controls, seed, graphs, timeout, &out,
            ));
        }
        let out = out_path.unwrap_or_else(|| "BENCH_cluster.json".to_owned());
        std::process::exit(run_cluster(&nodes, seed, graphs, timeout, &out));
    }
    if chaos_net_text.is_some() {
        eprintln!("error: --chaos-net requires --nodes");
        std::process::exit(2);
    }
    if chaos {
        std::process::exit(run_chaos(addr, seed, jobs, timeout, &state_path));
    }
    if chaos_verify {
        let out = out_path.unwrap_or_else(|| "BENCH_chaos.json".to_owned());
        std::process::exit(run_chaos_verify(
            addr,
            &addr_text,
            timeout,
            &state_path,
            &out,
        ));
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_service.json".to_owned());

    // With `--stats` the mix also cycles the full EAS pipeline: it is
    // the instrumented scheduler, so the per-stage histograms this flag
    // exists to measure actually accumulate samples.
    let mut schedulers: Vec<&str> = SCHEDULERS.to_vec();
    if stats {
        schedulers.push("eas");
    }
    println!(
        "== svc_load: {requests} requests, {clients} clients, {graphs} graphs x \
         {} schedulers, seed {seed:#x} -> {addr} ==",
        schedulers.len()
    );

    // A fixed-seed request mix: `graphs` distinct CTGs times the
    // scheduler list. Identical mix indices must answer identical bytes.
    let platform = noc_svc::spec::parse_platform("mesh:2x2").expect("platform parses");
    let mut mix: Vec<String> = Vec::new();
    for g in 0..graphs {
        let mut cfg = noc_ctg::prelude::TgffConfig::category_i(seed.wrapping_add(g as u64));
        cfg.task_count = 10 + (g % 4) * 2;
        let graph = noc_ctg::prelude::TgffGenerator::new(cfg)
            .generate(&platform)
            .expect("graph generates");
        let graph_json = serde_json::to_string(&graph).expect("serializes");
        for scheduler in &schedulers {
            mix.push(format!(
                r#"{{"graph":{graph_json},"platform":"mesh:2x2","scheduler":"{scheduler}"}}"#
            ));
        }
    }
    let mix = Arc::new(mix);

    // Warm up the connection path (and fail fast if nothing listens).
    let mut probe = Client::connect_retry(addr, Duration::from_secs(10)).unwrap_or_else(|e| {
        eprintln!("error: cannot reach {addr}: {e}");
        std::process::exit(1);
    });
    let _ = probe.set_timeout(timeout);
    let health = probe.get("/healthz").unwrap_or_else(|e| {
        eprintln!("error: /healthz failed: {e}");
        std::process::exit(1);
    });
    if health.status != 200 {
        eprintln!("error: /healthz answered {}", health.status);
        std::process::exit(1);
    }
    // Pre-wave stage baseline, so a warm server's earlier jobs don't
    // pollute this wave's per-stage deltas.
    let stages_before = if stats {
        scrape_stages(&probe.get("/metrics").map(|r| r.body).unwrap_or_default())
    } else {
        HashMap::new()
    };

    // `--idle-conns`: park N extra keep-alive connections on the
    // server for the whole wave. Against the reactor this costs a few
    // poll entries, not threads — the point of the flag is proving
    // that request latency and byte determinism hold while tens of
    // thousands of idle sockets sit open.
    let mut idle_pool: Vec<std::net::TcpStream> = Vec::new();
    if idle_conns > 0 {
        let opening = Instant::now();
        for k in 0..idle_conns {
            match std::net::TcpStream::connect_timeout(&addr, Duration::from_secs(5)) {
                Ok(conn) => idle_pool.push(conn),
                Err(e) => {
                    eprintln!("error: idle connection {k} failed: {e} (raise ulimit -n?)");
                    std::process::exit(1);
                }
            }
        }
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
    let mut errors = 0usize;
    let mut retries_429 = 0usize;
    let mut violations = 0usize;
    let mut sockets_opened = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    let mut reference: HashMap<usize, String> = HashMap::new();
    for r in results {
        errors += r.errors;
        retries_429 += r.retries_429;
        violations += r.violations;
        sockets_opened += r.sockets_opened;
        latencies.extend(r.latencies_us);
        for (idx, body) in r.bodies {
            match reference.get(&idx) {
                None => {
                    reference.insert(idx, body);
                }
                Some(seen) if *seen == body => {}
                Some(_) => {
                    eprintln!("determinism violation: mix index {idx} answered divergent bodies across clients");
                    violations += 1;
                }
            }
        }
    }
    latencies.sort_unstable();
    let done = latencies.len();
    let pct = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((done as f64) * p).ceil() as usize;
        latencies[idx.clamp(1, done) - 1] as f64 / 1000.0
    };

    // Cache statistics straight from the server's own metrics.
    let metrics = probe.get("/metrics").map(|r| r.body).unwrap_or_default();
    let cache_hits = scrape(&metrics, "noc_svc_cache_hits_total");
    let cache_misses = scrape(&metrics, "noc_svc_cache_misses_total");
    let stage_seconds = stats.then(|| {
        let after = scrape_stages(&metrics);
        let mut deltas: Vec<StageDelta> = after
            .into_iter()
            .map(|(stage, (count, sum))| {
                let (count0, sum0) = stages_before.get(&stage).copied().unwrap_or((0, 0.0));
                let executions = count.saturating_sub(count0);
                let seconds = (sum - sum0).max(0.0);
                StageDelta {
                    stage,
                    executions,
                    seconds,
                    mean_ms: if executions > 0 {
                        seconds * 1000.0 / executions as f64
                    } else {
                        0.0
                    },
                }
            })
            .filter(|d| d.executions > 0)
            .collect();
        deltas.sort_by(|a, b| a.stage.cmp(&b.stage));
        for d in &deltas {
            println!(
                "stage {:<12} {:>6} executions, {:>9.3}s total, {:>8.3}ms mean",
                d.stage, d.executions, d.seconds, d.mean_ms
            );
        }
        deltas
    });
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
            eprintln!(
                "error: {} sampled idle connections died",
                probed - idle_alive_after
            );
            errors += probed - idle_alive_after;
        }
    }

    let report = ServiceBench {
        addr: addr_text,
        requests: done,
        clients,
        distinct_problems: mix.len(),
        errors,
        retries_429,
        determinism_violations: violations,
        wall_s,
        throughput_rps: if wall_s > 0.0 {
            done as f64 / wall_s
        } else {
            0.0
        },
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
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
    if stats {
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
         {errors} errors, {violations} determinism violations",
        report.throughput_rps,
        report.p50_ms,
        report.p99_ms,
        report.cache_hit_rate * 100.0,
    );

    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&out_path, json) {
                eprintln!("error: cannot write {out_path}: {e}");
                std::process::exit(1);
            }
            println!("Artifact written to {out_path}");
        }
        Err(e) => {
            eprintln!("error: cannot serialize report: {e}");
            std::process::exit(1);
        }
    }
    if errors > 0 || violations > 0 {
        eprintln!("error: load run failed ({errors} errors, {violations} determinism violations)");
        std::process::exit(1);
    }
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
    let mut client = match Client::connect_retry(addr, Duration::from_secs(10)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("worker {worker}: cannot connect: {e}");
            result.errors += 1;
            return result;
        }
    };
    let _ = client.set_timeout(timeout);
    let mut n = worker;
    while n < requests {
        let idx = n % mix.len();
        let sent = Instant::now();
        match client.post("/v1/schedule", &mix[idx]) {
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
fn idle_probe(conn: &mut std::net::TcpStream) -> bool {
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
/// `(class, trace id, latency)` samples: percentiles per class, slow
/// ring membership, and per-stage span costs for a sampled subset of
/// traces scraped from every node's flight recorder.
fn attribute_hops(
    clients: &mut [Client],
    samples: &[(String, Option<String>, u64)],
) -> Vec<HopClass> {
    // Every trace id any node's slow ring holds.
    let mut slow_ids: std::collections::HashSet<String> = std::collections::HashSet::new();
    for c in clients.iter_mut() {
        if let Ok(resp) = c.get("/v1/internal/slow") {
            if resp.status == 200 {
                if let Ok(dump) = serde_json::from_str::<noc_svc::obs::SlowDump>(&resp.body) {
                    slow_ids.extend(dump.slow.into_iter().map(|s| s.trace));
                }
            }
        }
    }
    let mut by_class: HashMap<String, Vec<(Option<String>, u64)>> = HashMap::new();
    for (class, trace, us) in samples {
        by_class
            .entry(class.clone())
            .or_default()
            .push((trace.clone(), *us));
    }
    let mut classes: Vec<HopClass> = Vec::new();
    for (class, entries) in by_class {
        let mut lat: Vec<u64> = entries.iter().map(|(_, us)| *us).collect();
        lat.sort_unstable();
        let slow_ring_matched = entries
            .iter()
            .filter(|(t, _)| t.as_ref().is_some_and(|t| slow_ids.contains(t)))
            .count();
        // Per-stage costs over a bounded sample of this class's
        // traces, each reconstructed across every node's recorder.
        let mut stage_sum: HashMap<String, (usize, u64)> = HashMap::new();
        for (trace, _) in entries
            .iter()
            .filter(|(t, _)| t.is_some())
            .take(TRACE_SAMPLES_PER_CLASS)
        {
            let id = trace.as_ref().expect("filtered");
            for c in clients.iter_mut() {
                let Ok(resp) = c.get(&format!("/v1/internal/trace/{id}")) else {
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
                mean_us: if spans > 0 {
                    total_us as f64 / spans as f64
                } else {
                    0.0
                },
            })
            .collect();
        stages.sort_by(|a, b| a.stage.cmp(&b.stage));
        classes.push(HopClass {
            class,
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

/// The fixed-seed cluster problem mix: `graphs` distinct CTGs times
/// the fast schedulers, identical across fill/verify/partition runs.
fn cluster_mix(seed: u64, graphs: usize) -> Vec<String> {
    let platform = noc_svc::spec::parse_platform("mesh:2x2").expect("platform parses");
    let mut mix: Vec<String> = Vec::new();
    for g in 0..graphs {
        let mut cfg = noc_ctg::prelude::TgffConfig::category_i(seed.wrapping_add(g as u64));
        cfg.task_count = 10 + (g % 4) * 2;
        let graph = noc_ctg::prelude::TgffGenerator::new(cfg)
            .generate(&platform)
            .expect("graph generates");
        let graph_json = serde_json::to_string(&graph).expect("serializes");
        for scheduler in &SCHEDULERS {
            mix.push(format!(
                r#"{{"graph":{graph_json},"platform":"mesh:2x2","scheduler":"{scheduler}"}}"#
            ));
        }
    }
    mix
}

/// Latency percentile over a sorted sample, in milliseconds.
fn pct_ms(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64) * p).ceil() as usize;
    sorted_us[idx.clamp(1, sorted_us.len()) - 1] as f64 / 1000.0
}

/// Multi-node driver: fill the cluster through round-robin sprayed
/// requests, then demand byte-identical answers for every problem
/// from **every** node, counting peer fills vs. local recomputes.
fn run_cluster(
    nodes: &[(String, SocketAddr)],
    seed: u64,
    graphs: usize,
    timeout: Duration,
    out_path: &str,
) -> i32 {
    println!(
        "== svc_load --nodes: {} nodes, {graphs} graphs, seed {seed:#x} ==",
        nodes.len()
    );
    let mix = cluster_mix(seed, graphs);

    let mut clients: Vec<Client> = Vec::new();
    for (name, node) in nodes {
        match Client::connect_retry(*node, Duration::from_secs(10)) {
            Ok(mut c) => {
                let _ = c.set_timeout(timeout);
                clients.push(c);
            }
            Err(e) => {
                eprintln!("error: cannot reach node {name}: {e}");
                return 1;
            }
        }
    }

    let scrape_cluster = |clients: &mut Vec<Client>, name: &str| -> u64 {
        let mut total = 0;
        for c in clients.iter_mut() {
            total += scrape(&c.get("/metrics").map(|r| r.body).unwrap_or_default(), name);
        }
        total
    };
    let computes_before = scrape_cluster(&mut clients, "noc_svc_schedules_executed_total");

    let started = Instant::now();
    let mut errors = 0usize;
    let mut violations = 0usize;
    let mut requests = 0usize;

    // Round 1 — fill: each problem goes to one node, round-robin, so
    // ownership and store placement spread across the ring.
    let mut reference: Vec<Option<String>> = vec![None; mix.len()];
    for (idx, body) in mix.iter().enumerate() {
        let n = idx % clients.len();
        match clients[n].post("/v1/schedule", body) {
            Ok(resp) if resp.status == 200 => {
                requests += 1;
                reference[idx] = Some(resp.body);
            }
            Ok(resp) => {
                eprintln!(
                    "fill: node {} answered {} for problem {idx}: {}",
                    nodes[n].0, resp.status, resp.body
                );
                errors += 1;
            }
            Err(e) => {
                eprintln!("fill: node {} failed on problem {idx}: {e}", nodes[n].0);
                errors += 1;
            }
        }
    }

    let fills_before = scrape_cluster(&mut clients, "noc_svc_cluster_peer_fill_total");

    // Round 2 — verify: every node must answer every problem with the
    // fill round's exact bytes, wherever those bytes have to come
    // from (local cache, the owner's store via peer fill, or a
    // replica).
    let mut verify_us: Vec<u64> = Vec::new();
    let mut verify_samples: Vec<(String, Option<String>, u64)> = Vec::new();
    for (idx, body) in mix.iter().enumerate() {
        let Some(expected) = &reference[idx] else {
            continue;
        };
        for (n, client) in clients.iter_mut().enumerate() {
            let sent = Instant::now();
            match client.post("/v1/schedule", body) {
                Ok(resp) if resp.status == 200 => {
                    let us = sent.elapsed().as_micros() as u64;
                    verify_us.push(us);
                    verify_samples.push((
                        resp.header("x-cache").unwrap_or("miss").to_owned(),
                        resp.header("x-noc-trace").map(str::to_owned),
                        us,
                    ));
                    requests += 1;
                    if resp.body != *expected {
                        eprintln!(
                            "determinism violation: node {} diverges on problem {idx}",
                            nodes[n].0
                        );
                        violations += 1;
                    }
                }
                Ok(resp) => {
                    eprintln!(
                        "verify: node {} answered {} for problem {idx}",
                        nodes[n].0, resp.status
                    );
                    errors += 1;
                }
                Err(e) => {
                    eprintln!("verify: node {} failed on problem {idx}: {e}", nodes[n].0);
                    errors += 1;
                }
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();

    let report = ClusterBench {
        nodes: nodes.iter().map(|(name, _)| name.clone()).collect(),
        distinct_problems: mix.len(),
        requests,
        errors,
        determinism_violations: violations,
        peer_fills: scrape_cluster(&mut clients, "noc_svc_cluster_peer_fill_total")
            .saturating_sub(fills_before),
        peer_fill_misses: scrape_cluster(&mut clients, "noc_svc_cluster_peer_fill_misses_total"),
        schedules_executed: scrape_cluster(&mut clients, "noc_svc_schedules_executed_total")
            .saturating_sub(computes_before),
        lookups_served: scrape_cluster(&mut clients, "noc_svc_cluster_lookups_served_total"),
        replication_sent: scrape_cluster(&mut clients, "noc_svc_cluster_replication_sent_total"),
        replication_received: scrape_cluster(
            &mut clients,
            "noc_svc_cluster_replication_received_total",
        ),
        verify_p50_ms: {
            verify_us.sort_unstable();
            pct_ms(&verify_us, 0.50)
        },
        verify_p99_ms: pct_ms(&verify_us, 0.99),
        hop_attribution: attribute_hops(&mut clients, &verify_samples),
        wall_s,
    };
    println!(
        "{requests} requests across {} nodes in {wall_s:.2}s | {} peer fills, {} computes, \
         {} lookups served | {errors} errors, {violations} determinism violations",
        nodes.len(),
        report.peer_fills,
        report.schedules_executed,
        report.lookups_served,
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
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write(out_path, json) {
                eprintln!("error: cannot write {out_path}: {e}");
                return 1;
            }
            println!("Artifact written to {out_path}");
        }
        Err(e) => {
            eprintln!("error: cannot serialize report: {e}");
            return 1;
        }
    }
    i32::from(errors > 0 || violations > 0)
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
/// `nodes` must list the *proxy* addresses in ring-identity form —
/// the same strings the nodes were configured with as `--peers` — so
/// the locally built [`noc_svc::cluster::Ring`] agrees with the
/// cluster's own ownership. `controls[i]` is node i's proxy control
/// port.
fn run_chaos_net(
    nodes: &[(String, SocketAddr)],
    controls: &[SocketAddr],
    seed: u64,
    graphs: usize,
    timeout: Duration,
    out_path: &str,
) -> i32 {
    println!(
        "== svc_load --chaos-net: {} nodes, {graphs} graphs, seed {seed:#x}, \
         partitioning {} ==",
        nodes.len(),
        nodes[0].0
    );
    let mix = cluster_mix(seed, graphs);
    let ring = noc_svc::cluster::Ring::new(nodes.iter().map(|(name, _)| name.clone()).collect());

    let mut clients: Vec<Client> = Vec::new();
    for (name, node) in nodes {
        match Client::connect_retry(*node, Duration::from_secs(10)) {
            Ok(mut c) => {
                let _ = c.set_timeout(timeout);
                clients.push(c);
            }
            Err(e) => {
                eprintln!("error: cannot reach node {name}: {e}");
                return 1;
            }
        }
    }
    // Make sure every proxy control answers before touching the
    // cluster, so a misconfigured drill fails before the fill wave.
    for (i, ctrl) in controls.iter().enumerate() {
        if let Err(e) = chaos_ctl(*ctrl, "status") {
            eprintln!("error: proxy control {i} ({ctrl}) unreachable: {e}");
            return 1;
        }
    }

    let started = Instant::now();
    let mut errors = 0usize;
    let mut violations = 0usize;

    // Phase 1a — fill *half* the mix while the cluster is healthy, so
    // the partition later hits a settled, replicated baseline.
    let mut reference: Vec<Option<String>> = vec![None; mix.len()];
    let fill = |clients: &mut Vec<Client>,
                reference: &mut Vec<Option<String>>,
                errors: &mut usize,
                idx: usize,
                n: usize| {
        match clients[n].post("/v1/schedule", &mix[idx]) {
            Ok(resp) if resp.status == 200 => reference[idx] = Some(resp.body),
            Ok(resp) => {
                eprintln!(
                    "fill: node {} answered {} for {idx}",
                    nodes[n].0, resp.status
                );
                *errors += 1;
            }
            Err(e) => {
                eprintln!("fill: node {} failed on {idx}: {e}", nodes[n].0);
                *errors += 1;
            }
        }
    };
    for idx in (0..mix.len()).step_by(2) {
        fill(
            &mut clients,
            &mut reference,
            &mut errors,
            idx,
            idx % nodes.len(),
        );
    }
    if !await_replication_drained(&mut clients, Duration::from_secs(30)) {
        eprintln!("error: replication lag did not drain after the healthy fill");
        errors += 1;
    }
    println!(
        "healthy fill done: {} problems, {errors} errors",
        mix.len().div_ceil(2)
    );

    // Phase 1b — partition node 0, then fill the other half through
    // the survivors: every record owned by node 0 now exists only on
    // the survivor side, the debt anti-entropy must later repay.
    if let Err(e) = chaos_ctl(controls[0], "deny on") {
        eprintln!("error: cannot partition {}: {e}", nodes[0].0);
        return 1;
    }
    for idx in (1..mix.len()).step_by(2) {
        let survivor = 1 + idx % (nodes.len() - 1);
        fill(&mut clients, &mut reference, &mut errors, idx, survivor);
    }
    println!("mid-partition fill done: {errors} errors total");
    let mut partition_us: Vec<u64> = Vec::new();
    for (idx, body) in mix.iter().enumerate() {
        let Some(expected) = &reference[idx] else {
            continue;
        };
        for (n, client) in clients.iter_mut().enumerate().skip(1) {
            let sent = Instant::now();
            match client.post("/v1/schedule", body) {
                Ok(resp) if resp.status == 200 => {
                    partition_us.push(sent.elapsed().as_micros() as u64);
                    if resp.body != *expected {
                        eprintln!(
                            "determinism violation: node {} diverges on {idx} mid-partition",
                            nodes[n].0
                        );
                        violations += 1;
                    }
                }
                Ok(resp) => {
                    eprintln!(
                        "partition: node {} answered {} for {idx}",
                        nodes[n].0, resp.status
                    );
                    errors += 1;
                }
                Err(e) => {
                    eprintln!("partition: node {} failed on {idx}: {e}", nodes[n].0);
                    errors += 1;
                }
            }
        }
    }
    partition_us.sort_unstable();
    let partition_p50_ms = pct_ms(&partition_us, 0.50);
    let partition_p99_ms = pct_ms(&partition_us, 0.99);
    println!(
        "partition reads done: p50 {partition_p50_ms:.2}ms p99 {partition_p99_ms:.2}ms, \
         {errors} errors, {violations} violations"
    );

    // Phase 3 — heal and wait for anti-entropy convergence: every
    // record present in the digest of its owner *and* successor, and
    // all retry queues drained.
    if let Err(e) = chaos_ctl(controls[0], "deny off") {
        eprintln!("error: cannot heal {}: {e}", nodes[0].0);
        return 1;
    }
    let healed = Instant::now();
    let deadline = healed + Duration::from_secs(90);
    let mut fully_replicated = false;
    while Instant::now() < deadline {
        if replication_converged(&mut clients, nodes, &ring)
            && await_replication_drained(&mut clients, Duration::from_millis(1))
        {
            fully_replicated = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(250));
    }
    let converge_s = healed.elapsed().as_secs_f64();
    if fully_replicated {
        println!("anti-entropy converged {converge_s:.1}s after heal");
    } else {
        eprintln!("error: cluster did not converge within 90s of healing");
        errors += 1;
    }

    // Phase 4 — the zero-recompute gate: with replication healed,
    // every node answers every problem byte-identically without a
    // single schedule execution anywhere.
    let scrape_cluster = |clients: &mut Vec<Client>, name: &str| -> u64 {
        let mut total = 0;
        for c in clients.iter_mut() {
            total += scrape(&c.get("/metrics").map(|r| r.body).unwrap_or_default(), name);
        }
        total
    };
    let computes_before = scrape_cluster(&mut clients, "noc_svc_schedules_executed_total");
    for (idx, body) in mix.iter().enumerate() {
        let Some(expected) = &reference[idx] else {
            continue;
        };
        for (n, client) in clients.iter_mut().enumerate() {
            match client.post("/v1/schedule", body) {
                Ok(resp) if resp.status == 200 => {
                    if resp.body != *expected {
                        eprintln!(
                            "determinism violation: node {} diverges on {idx} after heal",
                            nodes[n].0
                        );
                        violations += 1;
                    }
                }
                Ok(resp) => {
                    eprintln!(
                        "re-read: node {} answered {} for {idx}",
                        nodes[n].0, resp.status
                    );
                    errors += 1;
                }
                Err(e) => {
                    eprintln!("re-read: node {} failed on {idx}: {e}", nodes[n].0);
                    errors += 1;
                }
            }
        }
    }
    let recomputes_after_heal = scrape_cluster(&mut clients, "noc_svc_schedules_executed_total")
        .saturating_sub(computes_before);
    if recomputes_after_heal > 0 {
        eprintln!(
            "error: {recomputes_after_heal} schedules recomputed on the post-heal re-read \
             (want 0 — replication should already hold every record)"
        );
        errors += 1;
    }

    let report = PartitionBench {
        nodes: nodes.iter().map(|(name, _)| name.clone()).collect(),
        partitioned_node: nodes[0].0.clone(),
        distinct_problems: mix.len(),
        errors,
        determinism_violations: violations,
        partition_p50_ms,
        partition_p99_ms,
        peer_fill_skips: scrape_cluster(&mut clients, "noc_svc_cluster_peer_fill_skips_total"),
        probes: scrape_cluster(&mut clients, "noc_svc_cluster_probes_total"),
        peer_recoveries: scrape_cluster(&mut clients, "noc_svc_cluster_peer_recoveries_total"),
        replication_delivery_failures: scrape_cluster(
            &mut clients,
            "noc_svc_cluster_replication_delivery_failures_total",
        ),
        replication_overflow: scrape_cluster(
            &mut clients,
            "noc_svc_cluster_replication_overflow_total",
        ),
        anti_entropy_rounds: scrape_cluster(
            &mut clients,
            "noc_svc_cluster_anti_entropy_rounds_total",
        ),
        anti_entropy_repairs: scrape_cluster(
            &mut clients,
            "noc_svc_cluster_anti_entropy_repairs_total",
        ),
        converge_s,
        fully_replicated,
        recomputes_after_heal,
        wall_s: started.elapsed().as_secs_f64(),
    };
    println!(
        "partition drill: p99 {partition_p99_ms:.2}ms under partition | {} skips, {} probes, \
         {} recoveries | {} anti-entropy repairs | converged in {converge_s:.1}s | \
         {recomputes_after_heal} post-heal recomputes | {errors} errors, {violations} violations",
        report.peer_fill_skips, report.probes, report.peer_recoveries, report.anti_entropy_repairs,
    );
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write(out_path, json) {
                eprintln!("error: cannot write {out_path}: {e}");
                return 1;
            }
            println!("Artifact written to {out_path}");
        }
        Err(e) => {
            eprintln!("error: cannot serialize report: {e}");
            return 1;
        }
    }
    i32::from(errors > 0 || violations > 0 || !fully_replicated || recomputes_after_heal > 0)
}

/// Sends one command line to a `net_chaos` control port and returns
/// its reply, failing on anything but an `ok` answer.
fn chaos_ctl(ctrl: SocketAddr, command: &str) -> Result<String, String> {
    use std::io::BufRead as _;
    let conn = std::net::TcpStream::connect_timeout(&ctrl, Duration::from_secs(5))
        .map_err(|e| e.to_string())?;
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

/// Polls every node until the summed replication retry backlog
/// (`noc_svc_cluster_replication_lag`) reaches zero.
fn await_replication_drained(clients: &mut [Client], patience: Duration) -> bool {
    let deadline = Instant::now() + patience;
    loop {
        let mut lag = 0u64;
        for c in clients.iter_mut() {
            lag += scrape(
                &c.get("/metrics").map(|r| r.body).unwrap_or_default(),
                "noc_svc_cluster_replication_lag",
            );
        }
        if lag == 0 {
            return true;
        }
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Checks full owner+successor replication: every record id reported
/// by *any* node's digest must be present in the digests of both
/// nodes on its ring owner chain.
fn replication_converged(
    clients: &mut [Client],
    nodes: &[(String, SocketAddr)],
    ring: &noc_svc::cluster::Ring,
) -> bool {
    let mut digests: HashMap<String, std::collections::HashSet<String>> = HashMap::new();
    for (n, client) in clients.iter_mut().enumerate() {
        match client.get("/v1/internal/digest") {
            Ok(resp) if resp.status == 200 => {
                match serde_json::from_str::<noc_svc::cluster::Digest>(&resp.body) {
                    Ok(digest) => {
                        digests.insert(nodes[n].0.clone(), digest.ids.into_iter().collect());
                    }
                    Err(_) => return false,
                }
            }
            _ => return false,
        }
    }
    let all_ids: Vec<String> = digests
        .values()
        .flat_map(|ids| ids.iter().cloned())
        .collect();
    all_ids.iter().all(|id| {
        ring.owner_chain(id, 2)
            .iter()
            .all(|node| digests.get(*node).is_some_and(|ids| ids.contains(id)))
    })
}

/// One async job recorded by the chaos phase for the verify phase.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct ChaosJob {
    /// Job id the server answered with (202 body).
    id: String,
    /// Scheduler the job names.
    scheduler: String,
    /// The exact request body submitted.
    body: String,
    /// Locally computed response bytes the finished job must match.
    expected: String,
}

/// The chaos → verify handoff file.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct ChaosState {
    seed: u64,
    jobs: Vec<ChaosJob>,
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
/// computed locally. Returns the process exit code.
fn run_chaos(addr: SocketAddr, seed: u64, jobs: usize, timeout: Duration, state_path: &str) -> i32 {
    let mut errors = 0usize;
    let mut client = match Client::connect_retry(addr, Duration::from_secs(10)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot reach {addr}: {e}");
            return 1;
        }
    };
    let _ = client.set_timeout(timeout);
    println!("== svc_load --chaos: {jobs} async jobs, seed {seed:#x} -> {addr} ==");

    let platform = noc_svc::spec::parse_platform("mesh:2x2").expect("platform parses");

    // 1. Panic isolation: a `chaos-panic` request must die alone — a
    //    typed 500 for that request, business as usual for the next.
    for probe in 0..2u64 {
        let mut cfg =
            noc_ctg::prelude::TgffConfig::category_i(seed.wrapping_add(0x9A9C).wrapping_add(probe));
        cfg.task_count = 8;
        let graph = noc_ctg::prelude::TgffGenerator::new(cfg)
            .generate(&platform)
            .expect("graph generates");
        let graph_json = serde_json::to_string(&graph).expect("serializes");
        let body =
            format!(r#"{{"graph":{graph_json},"platform":"mesh:2x2","scheduler":"chaos-panic"}}"#);
        match client.post("/v1/schedule", &body) {
            Ok(resp) if resp.status == 500 && resp.body.contains("panic") => {}
            Ok(resp) => {
                eprintln!(
                    "error: chaos-panic probe {probe} answered {} (want isolated 500): {}",
                    resp.status, resp.body
                );
                errors += 1;
            }
            Err(e) => {
                eprintln!("error: chaos-panic probe {probe} transport failure: {e}");
                errors += 1;
            }
        }
        // The same connection must keep working after the panic.
        let healthy =
            format!(r#"{{"graph":{graph_json},"platform":"mesh:2x2","scheduler":"edf"}}"#);
        match client.post("/v1/schedule", &healthy) {
            Ok(resp) if resp.status == 200 => {}
            Ok(resp) => {
                eprintln!("error: post-panic request answered {}", resp.status);
                errors += 1;
            }
            Err(e) => {
                eprintln!("error: post-panic request failed: {e}");
                errors += 1;
            }
        }
    }
    println!("panic isolation probes done ({errors} errors so far)");

    // 2. Mid-flight kills: open a connection, send a torn request head
    //    that promises a body which never arrives, and hang up.
    for _ in 0..3 {
        if let Ok(mut raw) = std::net::TcpStream::connect(addr) {
            let torn = "POST /v1/schedule HTTP/1.1\r\nHost: chaos\r\n\
                        Content-Type: application/json\r\nContent-Length: 4096\r\n\r\n{\"graph\":";
            let _ = raw.write_all(torn.as_bytes());
            let _ = raw.flush();
            drop(raw);
        }
    }
    match client.get("/healthz") {
        Ok(resp) if resp.status == 200 => {}
        Ok(resp) => {
            eprintln!(
                "error: /healthz answered {} after torn requests",
                resp.status
            );
            errors += 1;
        }
        Err(e) => {
            eprintln!("error: /healthz failed after torn requests: {e}");
            errors += 1;
        }
    }

    // 3. Journaled async wave: fresh seeds (disjoint from the normal
    //    load mix, so no finished twin or cache entry can answer 200)
    //    with the expected bytes computed locally — schedules are
    //    byte-deterministic, so the restarted server must reproduce
    //    them exactly.
    let mut state = ChaosState {
        seed,
        jobs: Vec::new(),
    };
    for j in 0..jobs {
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
        let mut cfg = noc_ctg::prelude::TgffConfig::category_i(
            seed.wrapping_add(0xC4A0).wrapping_add(j as u64),
        );
        cfg.task_count = if j == 0 { 96 } else { 12 + (j % 3) * 4 };
        let graph = noc_ctg::prelude::TgffGenerator::new(cfg)
            .generate(&platform)
            .expect("graph generates");
        let graph_json = serde_json::to_string(&graph).expect("serializes");
        let expected = match noc_svc::spec::parse_scheduler(scheduler, 1) {
            Ok(s) => match s.schedule(&graph, &platform) {
                Ok(outcome) => {
                    noc_svc::api::ScheduleResponse::from_outcome(scheduler, &outcome).to_json()
                }
                Err(e) => {
                    eprintln!("error: local {scheduler} schedule for job {j} failed: {e}");
                    errors += 1;
                    continue;
                }
            },
            Err(e) => {
                eprintln!("error: {e}");
                errors += 1;
                continue;
            }
        };
        let body = format!(
            r#"{{"graph":{graph_json},"platform":"mesh:2x2","scheduler":"{scheduler}","mode":"async"}}"#
        );
        match client.post("/v1/schedule", &body) {
            Ok(resp) if resp.status == 202 => {
                let id = serde_json::from_str::<serde_json::Value>(&resp.body)
                    .ok()
                    .and_then(|v| {
                        v.as_object()
                            .and_then(|m| m.get("id"))
                            .and_then(|id| id.as_str().map(str::to_owned))
                    });
                match id {
                    Some(id) => state.jobs.push(ChaosJob {
                        id,
                        scheduler: scheduler.to_owned(),
                        body,
                        expected,
                    }),
                    None => {
                        eprintln!("error: 202 body has no id: {}", resp.body);
                        errors += 1;
                    }
                }
            }
            Ok(resp) => {
                eprintln!(
                    "error: async job {j} answered {} (want 202): {}",
                    resp.status, resp.body
                );
                errors += 1;
            }
            Err(e) => {
                eprintln!("error: async job {j} failed: {e}");
                errors += 1;
            }
        }
    }

    match serde_json::to_string_pretty(&state) {
        Ok(json) => {
            if let Err(e) = std::fs::write(state_path, json) {
                eprintln!("error: cannot write {state_path}: {e}");
                return 1;
            }
        }
        Err(e) => {
            eprintln!("error: cannot serialize state: {e}");
            return 1;
        }
    }
    println!(
        "{} async jobs accepted and journaled; state -> {state_path}; {errors} errors",
        state.jobs.len()
    );
    i32::from(errors > 0 || state.jobs.is_empty())
}

/// Verify phase, run against the restarted server: every job recorded
/// by the chaos phase must finish with exactly the locally computed
/// bytes, a re-post of each body must hit the recovered result, and the
/// journal-replay counter must prove the recovery actually happened.
/// Returns the process exit code.
fn run_chaos_verify(
    addr: SocketAddr,
    addr_text: &str,
    timeout: Duration,
    state_path: &str,
    out_path: &str,
) -> i32 {
    let state: ChaosState = match std::fs::read_to_string(state_path)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()))
    {
        Ok(state) => state,
        Err(e) => {
            eprintln!("error: cannot load {state_path}: {e}");
            return 1;
        }
    };
    let started = Instant::now();
    let mut errors = 0usize;
    let mut recovered = 0usize;
    let mut byte_identical = 0usize;
    let mut repost_identical = 0usize;
    // Generous patience: the restarted server replays the journal and
    // re-runs every unfinished job before the answers converge.
    let mut client = match Client::connect_retry(addr, Duration::from_secs(30)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot reach restarted server {addr}: {e}");
            return 1;
        }
    };
    let _ = client.set_timeout(timeout);
    println!(
        "== svc_load --chaos-verify: {} jobs from {state_path} -> {addr} ==",
        state.jobs.len()
    );

    let deadline = Instant::now() + Duration::from_secs(120);
    for job in &state.jobs {
        let path = format!("/v1/jobs/{}", job.id);
        let outcome = loop {
            match client.get(&path) {
                Ok(resp)
                    if resp.body.contains("\"status\":\"queued\"")
                        || resp.body.contains("\"status\":\"running\"") =>
                {
                    if Instant::now() > deadline {
                        break Err(format!("job {} still pending at deadline", job.id));
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
                Ok(resp) if resp.status == 200 => break Ok(resp.body),
                Ok(resp) => {
                    break Err(format!(
                        "job {} answered {}: {}",
                        job.id, resp.status, resp.body
                    ))
                }
                Err(e) => break Err(format!("job {} poll failed: {e}", job.id)),
            }
        };
        match outcome {
            Ok(body) => {
                recovered += 1;
                let expected = format!(
                    "{{\"id\":\"{}\",\"status\":\"done\",\"result\":{}}}",
                    job.id, job.expected
                );
                if body == expected {
                    byte_identical += 1;
                } else {
                    eprintln!(
                        "error: job {} ({}) diverged after recovery:\n  want {expected}\n  got  {body}",
                        job.id, job.scheduler
                    );
                    errors += 1;
                }
            }
            Err(message) => {
                eprintln!("error: {message}");
                errors += 1;
            }
        }
        // The recovered result must also serve the original request.
        match client.post("/v1/schedule", &job.body) {
            Ok(resp) if resp.status == 200 && resp.body == job.expected => repost_identical += 1,
            Ok(resp) => {
                eprintln!(
                    "error: re-post of job {} answered {} with divergent bytes",
                    job.id, resp.status
                );
                errors += 1;
            }
            Err(e) => {
                eprintln!("error: re-post of job {} failed: {e}", job.id);
                errors += 1;
            }
        }
    }

    let metrics = client.get("/metrics").map(|r| r.body).unwrap_or_default();
    let journal_replayed = scrape(&metrics, "noc_svc_journal_replayed_total");
    if journal_replayed == 0 {
        eprintln!("error: noc_svc_journal_replayed_total is 0 — the restart never replayed");
        errors += 1;
    }
    let report = ChaosBench {
        addr: addr_text.to_owned(),
        jobs: state.jobs.len(),
        recovered,
        byte_identical,
        repost_identical,
        journal_replayed,
        worker_panics: scrape(&metrics, "noc_svc_worker_panics_total"),
        errors,
        wall_s: started.elapsed().as_secs_f64(),
    };
    println!(
        "{recovered}/{} jobs recovered, {byte_identical} byte-identical, \
         {repost_identical} re-posts identical, {journal_replayed} journal records replayed, \
         {errors} errors",
        report.jobs
    );
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write(out_path, json) {
                eprintln!("error: cannot write {out_path}: {e}");
                return 1;
            }
            println!("Artifact written to {out_path}");
        }
        Err(e) => {
            eprintln!("error: cannot serialize report: {e}");
            return 1;
        }
    }
    i32::from(errors > 0)
}

/// One async delta job recorded by the `--delta` phase.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct DeltaJob {
    /// Job id the server answered with (202 body).
    id: String,
    /// The exact delta request body submitted.
    body: String,
    /// Locally computed `DeltaResponse` bytes the job must answer.
    expected: String,
    /// Prior graph JSON, for re-validating the repaired schedule.
    graph_json: String,
    /// Edits JSON, for re-validating the repaired schedule.
    edits_json: String,
}

/// The delta → delta-verify handoff file.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct DeltaState {
    seed: u64,
    jobs: Vec<DeltaJob>,
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

/// Builds one deterministic delta problem: a TGFF graph, its local EAS
/// prior schedule, and an edit sequence — warm-startable for most `j`,
/// a forced `edit-storm` fallback when `j % 4 == 3` (every task edited,
/// so rebasing would preserve nothing).
fn delta_problem(
    platform: &noc_platform::Platform,
    seed: u64,
    j: u64,
) -> (String, String, String, String) {
    use noc_eas::prelude::*;
    let mut cfg =
        noc_ctg::prelude::TgffConfig::category_i(seed.wrapping_add(0xDE17A).wrapping_add(j));
    cfg.task_count = 10 + (j as usize % 3) * 4;
    let graph = noc_ctg::prelude::TgffGenerator::new(cfg)
        .generate(platform)
        .expect("graph generates");
    let graph_json = serde_json::to_string(&graph).expect("serializes");
    let n = graph.task_count();

    let edits: Vec<Edit> = if j % 4 == 3 {
        // Edit storm: one edit per task forces the full-reschedule path.
        (0..n)
            .map(|t| Edit::SetDeadline {
                task: t as u32,
                deadline: None,
            })
            .collect()
    } else {
        // A small warm-startable mix: drop one deadline, bump one
        // task's costs by ~10%.
        let bumped = graph.task(noc_ctg::prelude::TaskId::new((1 + j as u32) % n as u32));
        vec![
            Edit::SetDeadline {
                task: (j as u32) % n as u32,
                deadline: None,
            },
            Edit::SetExecTime {
                task: (1 + j as u32) % n as u32,
                exec_times: bumped
                    .exec_times()
                    .iter()
                    .map(|w| w.ticks() + w.ticks() / 10 + 1)
                    .collect(),
                exec_energies: bumped.exec_energies().iter().map(|e| e.as_nj()).collect(),
            },
        ]
    };
    let edits_json = serde_json::to_string(&edits).expect("serializes");

    // The expected bytes, computed locally: schedules are
    // byte-deterministic, so the server must reproduce them exactly.
    let prior = noc_svc::spec::parse_scheduler("eas", 1)
        .expect("eas parses")
        .schedule(&graph, platform)
        .expect("prior schedules");
    let applied = apply_edits(&graph, &edits).expect("edits apply");
    let edited_platform = apply_platform_edits(platform, &applied.edits).expect("platform applies");
    let delta = repair_from(&graph, &prior.schedule, &edited_platform, &applied).expect("repairs");
    let expected = noc_svc::api::DeltaResponse {
        warm_start: delta.warm_start,
        reason: delta.reason.to_owned(),
        edits: delta.edits,
        mask_tasks: delta.mask_tasks,
        result: noc_svc::api::ScheduleResponse::from_outcome("eas", &delta.outcome),
    }
    .to_json();

    let body = format!(
        r#"{{"prior":{{"graph":{graph_json},"platform":"mesh:2x2","scheduler":"eas"}},"edits":{edits_json}}}"#
    );
    (body, expected, graph_json, edits_json)
}

/// Delta phase: cross-client byte-determinism probes on sync delta
/// requests, then a wave of journaled async delta jobs whose expected
/// bytes are computed locally. Returns the process exit code.
fn run_delta(addr: SocketAddr, seed: u64, jobs: usize, timeout: Duration, state_path: &str) -> i32 {
    let mut errors = 0usize;
    let mut client_a = match Client::connect_retry(addr, Duration::from_secs(10)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot reach {addr}: {e}");
            return 1;
        }
    };
    let mut client_b = match Client::connect_retry(addr, Duration::from_secs(10)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot open second client: {e}");
            return 1;
        }
    };
    let _ = client_a.set_timeout(timeout);
    let _ = client_b.set_timeout(timeout);
    println!("== svc_load --delta: {jobs} async delta jobs, seed {seed:#x} -> {addr} ==");

    let platform = noc_svc::spec::parse_platform("mesh:2x2").expect("platform parses");

    // 1. Cross-client determinism on sync delta answers: two
    //    independent connections must see bytes identical to each other
    //    and to the locally computed answer. Probe 3 covers the forced
    //    edit-storm fallback; the rest warm start.
    for probe in 0..4u64 {
        let (body, expected, _, _) = delta_problem(&platform, seed.wrapping_add(0x5C), probe);
        let a = client_a.post("/v1/schedule/delta", &body);
        let b = client_b.post("/v1/schedule/delta", &body);
        match (a, b) {
            (Ok(ra), Ok(rb)) => {
                if ra.status != 200 || rb.status != 200 {
                    eprintln!(
                        "error: delta probe {probe} answered {}/{} (want 200/200)",
                        ra.status, rb.status
                    );
                    errors += 1;
                } else {
                    if ra.body != expected {
                        eprintln!(
                            "error: delta probe {probe} diverged from the local bytes:\n  want {expected}\n  got  {}",
                            ra.body
                        );
                        errors += 1;
                    }
                    if ra.body != rb.body {
                        eprintln!(
                            "error: delta probe {probe} answered divergent bytes across clients"
                        );
                        errors += 1;
                    }
                }
            }
            (a, b) => {
                if let Err(e) = a {
                    eprintln!("error: delta probe {probe} client A failed: {e}");
                    errors += 1;
                }
                if let Err(e) = b {
                    eprintln!("error: delta probe {probe} client B failed: {e}");
                    errors += 1;
                }
            }
        }
    }
    println!("cross-client determinism probes done ({errors} errors so far)");

    // 2. Journaled async wave, disjoint seeds: accepted-but-maybe-
    //    unfinished when the harness SIGKILLs the server.
    let mut state = DeltaState {
        seed,
        jobs: Vec::new(),
    };
    for j in 0..jobs {
        let (base_body, expected, graph_json, edits_json) =
            delta_problem(&platform, seed.wrapping_add(0xA57C), j as u64);
        let body = format!(
            r#"{}{}"#,
            &base_body[..base_body.len() - 1],
            r#","mode":"async"}"#
        );
        match client_a.post("/v1/schedule/delta", &body) {
            Ok(resp) if resp.status == 202 => {
                let id = serde_json::from_str::<serde_json::Value>(&resp.body)
                    .ok()
                    .and_then(|v| {
                        v.as_object()
                            .and_then(|m| m.get("id"))
                            .and_then(|id| id.as_str().map(str::to_owned))
                    });
                match id {
                    Some(id) => state.jobs.push(DeltaJob {
                        id,
                        body,
                        expected,
                        graph_json,
                        edits_json,
                    }),
                    None => {
                        eprintln!("error: 202 body has no id: {}", resp.body);
                        errors += 1;
                    }
                }
            }
            Ok(resp) => {
                eprintln!(
                    "error: async delta job {j} answered {} (want 202): {}",
                    resp.status, resp.body
                );
                errors += 1;
            }
            Err(e) => {
                eprintln!("error: async delta job {j} failed: {e}");
                errors += 1;
            }
        }
    }

    match serde_json::to_string_pretty(&state) {
        Ok(json) => {
            if let Err(e) = std::fs::write(state_path, json) {
                eprintln!("error: cannot write {state_path}: {e}");
                return 1;
            }
        }
        Err(e) => {
            eprintln!("error: cannot serialize state: {e}");
            return 1;
        }
    }
    println!(
        "{} async delta jobs accepted and journaled; state -> {state_path}; {errors} errors",
        state.jobs.len()
    );
    i32::from(errors > 0 || state.jobs.is_empty())
}

/// Delta verify phase, run against the restarted server: every recorded
/// delta job must finish with exactly the locally computed bytes, a
/// re-post must reproduce them, every repaired schedule must validate
/// against its edited graph and platform, and the journal-replay
/// counter must prove the recovery happened. Returns the exit code.
fn run_delta_verify(
    addr: SocketAddr,
    addr_text: &str,
    timeout: Duration,
    state_path: &str,
    out_path: &str,
    expect_store: bool,
) -> i32 {
    use noc_eas::prelude::{apply_edits, apply_platform_edits, Edit};
    let state: DeltaState = match std::fs::read_to_string(state_path)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()))
    {
        Ok(state) => state,
        Err(e) => {
            eprintln!("error: cannot load {state_path}: {e}");
            return 1;
        }
    };
    let started = Instant::now();
    let mut errors = 0usize;
    let mut recovered = 0usize;
    let mut byte_identical = 0usize;
    let mut repost_identical = 0usize;
    let mut validated = 0usize;
    let mut client = match Client::connect_retry(addr, Duration::from_secs(30)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot reach restarted server {addr}: {e}");
            return 1;
        }
    };
    let _ = client.set_timeout(timeout);
    println!(
        "== svc_load --delta-verify: {} jobs from {state_path} -> {addr} ==",
        state.jobs.len()
    );

    let platform = noc_svc::spec::parse_platform("mesh:2x2").expect("platform parses");
    let deadline = Instant::now() + Duration::from_secs(120);
    for job in &state.jobs {
        let path = format!("/v1/jobs/{}", job.id);
        let outcome = loop {
            match client.get(&path) {
                Ok(resp)
                    if resp.body.contains("\"status\":\"queued\"")
                        || resp.body.contains("\"status\":\"running\"") =>
                {
                    if Instant::now() > deadline {
                        break Err(format!("job {} still pending at deadline", job.id));
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
                Ok(resp) if resp.status == 200 => break Ok(resp.body),
                Ok(resp) => {
                    break Err(format!(
                        "job {} answered {}: {}",
                        job.id, resp.status, resp.body
                    ))
                }
                Err(e) => break Err(format!("job {} poll failed: {e}", job.id)),
            }
        };
        match outcome {
            Ok(body) => {
                recovered += 1;
                let expected = format!(
                    "{{\"id\":\"{}\",\"status\":\"done\",\"result\":{}}}",
                    job.id, job.expected
                );
                if body == expected {
                    byte_identical += 1;
                } else {
                    eprintln!(
                        "error: delta job {} diverged after recovery:\n  want {expected}\n  got  {body}",
                        job.id
                    );
                    errors += 1;
                }
            }
            Err(message) => {
                eprintln!("error: {message}");
                errors += 1;
            }
        }
        // The recovered result must also serve the original request.
        match client.post("/v1/schedule/delta", &job.body) {
            Ok(resp) if resp.status == 200 && resp.body == job.expected => repost_identical += 1,
            Ok(resp) => {
                eprintln!(
                    "error: re-post of delta job {} answered {} with divergent bytes",
                    job.id, resp.status
                );
                errors += 1;
            }
            Err(e) => {
                eprintln!("error: re-post of delta job {} failed: {e}", job.id);
                errors += 1;
            }
        }
        // The repaired schedule must validate against the *edited*
        // graph and platform.
        let check = || -> Result<(), String> {
            let graph: noc_ctg::TaskGraph =
                serde_json::from_str(&job.graph_json).map_err(|e| e.to_string())?;
            let edits: Vec<Edit> =
                serde_json::from_str(&job.edits_json).map_err(|e| e.to_string())?;
            let applied = apply_edits(&graph, &edits)?;
            let edited_platform = apply_platform_edits(&platform, &applied.edits)?;
            let response: noc_svc::api::DeltaResponse =
                serde_json::from_str(&job.expected).map_err(|e| e.to_string())?;
            noc_schedule::validate(&response.result.schedule, &applied.graph, &edited_platform)
                .map(|_| ())
                .map_err(|e| e.to_string())
        };
        match check() {
            Ok(()) => validated += 1,
            Err(e) => {
                eprintln!("error: delta job {} failed re-validation: {e}", job.id);
                errors += 1;
            }
        }
    }

    // With a persistent store behind the server, a *fresh* edit
    // against a recorded prior must warm start from the durable prior
    // — the restarted server never saw the prior request on this run,
    // so only the store can resolve it.
    let mut prior_from_store = 0u64;
    if expect_store {
        if let Some(job) = state.jobs.first() {
            let mut gate = || -> Result<(), String> {
                use noc_eas::prelude::{repair_from, Edit as DeltaEdit};
                let graph: noc_ctg::TaskGraph =
                    serde_json::from_str(&job.graph_json).map_err(|e| e.to_string())?;
                let edits = vec![DeltaEdit::SetDeadline {
                    task: 0,
                    deadline: None,
                }];
                let prior = noc_svc::spec::parse_scheduler("eas", 1)
                    .map_err(|e| e.to_string())?
                    .schedule(&graph, &platform)
                    .map_err(|e| e.to_string())?;
                let applied = apply_edits(&graph, &edits)?;
                let edited_platform = apply_platform_edits(&platform, &applied.edits)?;
                let delta = repair_from(&graph, &prior.schedule, &edited_platform, &applied)
                    .map_err(|e| e.to_string())?;
                let expected = noc_svc::api::DeltaResponse {
                    warm_start: delta.warm_start,
                    reason: delta.reason.to_owned(),
                    edits: delta.edits,
                    mask_tasks: delta.mask_tasks,
                    result: noc_svc::api::ScheduleResponse::from_outcome("eas", &delta.outcome),
                }
                .to_json();
                let edits_json = serde_json::to_string(&edits).map_err(|e| e.to_string())?;
                let body = format!(
                    r#"{{"prior":{{"graph":{},"platform":"mesh:2x2","scheduler":"eas"}},"edits":{edits_json}}}"#,
                    job.graph_json
                );
                let before = client
                    .get("/metrics")
                    .map(|r| scrape(&r.body, "noc_svc_delta_prior_hits_total"))
                    .map_err(|e| e.to_string())?;
                let resp = client
                    .post("/v1/schedule/delta", &body)
                    .map_err(|e| e.to_string())?;
                if resp.status != 200 {
                    return Err(format!("fresh-edit delta answered {}", resp.status));
                }
                if resp.body != expected {
                    return Err("fresh-edit delta diverged from the local bytes".to_owned());
                }
                let after = client
                    .get("/metrics")
                    .map(|r| scrape(&r.body, "noc_svc_delta_prior_hits_total"))
                    .map_err(|e| e.to_string())?;
                if after <= before {
                    return Err(format!(
                        "fresh-edit delta did not resolve its prior from the store \
                         (delta_prior_hits {before} -> {after})"
                    ));
                }
                Ok(())
            };
            match gate() {
                Ok(()) => prior_from_store = 1,
                Err(e) => {
                    eprintln!("error: store-backed prior gate failed: {e}");
                    errors += 1;
                }
            }
        }
    }

    let metrics = client.get("/metrics").map(|r| r.body).unwrap_or_default();
    let journal_replayed = scrape(&metrics, "noc_svc_journal_replayed_total");
    if journal_replayed == 0 {
        eprintln!("error: noc_svc_journal_replayed_total is 0 — the restart never replayed");
        errors += 1;
    }
    let store_hits = scrape(&metrics, "noc_svc_store_hits_total");
    let store_degraded = scrape(&metrics, "noc_svc_store_degraded");
    if expect_store {
        if store_hits == 0 {
            eprintln!("error: noc_svc_store_hits_total is 0 — the disk tier never answered");
            errors += 1;
        }
        if store_degraded != 0 {
            eprintln!("error: the persistent store is degraded to memory-only mode");
            errors += 1;
        }
    }
    let report = DeltaSvcBench {
        addr: addr_text.to_owned(),
        jobs: state.jobs.len(),
        recovered,
        byte_identical,
        repost_identical,
        validated,
        journal_replayed,
        delta_warm: scrape(&metrics, "noc_svc_delta_warm_total"),
        delta_fallback: scrape(&metrics, "noc_svc_delta_fallback_total"),
        store_hits,
        store_degraded,
        prior_from_store,
        errors,
        wall_s: started.elapsed().as_secs_f64(),
    };
    println!(
        "{recovered}/{} delta jobs recovered, {byte_identical} byte-identical, \
         {repost_identical} re-posts identical, {validated} schedules re-validated, \
         {journal_replayed} journal records replayed, {errors} errors",
        report.jobs
    );
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write(out_path, json) {
                eprintln!("error: cannot write {out_path}: {e}");
                return 1;
            }
            println!("Artifact written to {out_path}");
        }
        Err(e) => {
            eprintln!("error: cannot serialize report: {e}");
            return 1;
        }
    }
    i32::from(errors > 0)
}

/// One synchronous request recorded by the `--store-fill` phase: by the
/// time its 200 arrived, the response bytes were durable on disk.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct StoreJob {
    /// The exact request body posted.
    body: String,
    /// The response bytes the server answered (and must answer again).
    expected: String,
}

/// The store-fill → store-verify handoff file.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct StoreState {
    seed: u64,
    jobs: Vec<StoreJob>,
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
/// writes and journal entries in flight. Returns the exit code.
fn run_store_fill(
    addr: SocketAddr,
    seed: u64,
    jobs: usize,
    timeout: Duration,
    state_path: &str,
) -> i32 {
    let mut errors = 0usize;
    let mut client = match Client::connect_retry(addr, Duration::from_secs(10)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot reach {addr}: {e}");
            return 1;
        }
    };
    let _ = client.set_timeout(timeout);
    println!("== svc_load --store-fill: {jobs} sync jobs, seed {seed:#x} -> {addr} ==");

    let platform = noc_svc::spec::parse_platform("mesh:2x2").expect("platform parses");
    let mut state = StoreState {
        seed,
        jobs: Vec::new(),
    };
    for j in 0..jobs {
        let scheduler = ["edf", "dls", "eas"][j % 3];
        let mut cfg = noc_ctg::prelude::TgffConfig::category_i(
            seed.wrapping_add(0x570E).wrapping_add(j as u64),
        );
        cfg.task_count = 10 + (j % 4) * 3;
        let graph = noc_ctg::prelude::TgffGenerator::new(cfg)
            .generate(&platform)
            .expect("graph generates");
        let graph_json = serde_json::to_string(&graph).expect("serializes");
        let body =
            format!(r#"{{"graph":{graph_json},"platform":"mesh:2x2","scheduler":"{scheduler}"}}"#);
        match client.post("/v1/schedule", &body) {
            Ok(resp) if resp.status == 200 => {
                if resp.header("store-degraded").is_some() {
                    eprintln!("error: store degraded to memory-only during the fill");
                    errors += 1;
                }
                state.jobs.push(StoreJob {
                    body,
                    expected: resp.body,
                });
            }
            Ok(resp) => {
                eprintln!(
                    "error: sync job {j} answered {} (want 200): {}",
                    resp.status, resp.body
                );
                errors += 1;
            }
            Err(e) => {
                eprintln!("error: sync job {j} failed: {e}");
                errors += 1;
            }
        }
    }
    println!("{} sync responses durable and recorded", state.jobs.len());

    // Trailing async wave: the heavy anneal job pins a single-worker
    // server, so the rest is accepted-but-unfinished — the SIGKILL
    // lands with journal entries live and store writes still owed.
    for j in 0..4usize {
        let scheduler = if j == 0 { "anneal" } else { "edf" };
        let mut cfg = noc_ctg::prelude::TgffConfig::category_i(
            seed.wrapping_add(0x57A1).wrapping_add(j as u64),
        );
        cfg.task_count = if j == 0 { 96 } else { 12 };
        let graph = noc_ctg::prelude::TgffGenerator::new(cfg)
            .generate(&platform)
            .expect("graph generates");
        let graph_json = serde_json::to_string(&graph).expect("serializes");
        let body = format!(
            r#"{{"graph":{graph_json},"platform":"mesh:2x2","scheduler":"{scheduler}","mode":"async"}}"#
        );
        match client.post("/v1/schedule", &body) {
            Ok(resp) if resp.status == 202 => {}
            Ok(resp) => {
                eprintln!("error: trailing async job {j} answered {}", resp.status);
                errors += 1;
            }
            Err(e) => {
                eprintln!("error: trailing async job {j} failed: {e}");
                errors += 1;
            }
        }
    }

    match serde_json::to_string_pretty(&state) {
        Ok(json) => {
            if let Err(e) = std::fs::write(state_path, json) {
                eprintln!("error: cannot write {state_path}: {e}");
                return 1;
            }
        }
        Err(e) => {
            eprintln!("error: cannot serialize state: {e}");
            return 1;
        }
    }
    println!(
        "{} durable responses recorded; state -> {state_path}; {errors} errors",
        state.jobs.len()
    );
    i32::from(errors > 0 || state.jobs.is_empty())
}

/// Store verify phase, run against the restarted server: wait for the
/// replayed backlog to settle, then re-post every recorded body — each
/// must answer the recorded bytes as a cache hit, cost **zero**
/// schedule executions, and raise the disk-tier hit counter by at
/// least one per record. Returns the exit code.
fn run_store_verify(
    addr: SocketAddr,
    addr_text: &str,
    timeout: Duration,
    state_path: &str,
    out_path: &str,
) -> i32 {
    let state: StoreState = match std::fs::read_to_string(state_path)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()))
    {
        Ok(state) => state,
        Err(e) => {
            eprintln!("error: cannot load {state_path}: {e}");
            return 1;
        }
    };
    let started = Instant::now();
    let mut errors = 0usize;
    let mut client = match Client::connect_retry(addr, Duration::from_secs(30)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot reach restarted server {addr}: {e}");
            return 1;
        }
    };
    let _ = client.set_timeout(timeout);
    println!(
        "== svc_load --store-verify: {} recorded responses from {state_path} -> {addr} ==",
        state.jobs.len()
    );

    // Let the replayed journal backlog drain first: re-run jobs settle,
    // so the executed counter is quiescent before the gated re-posts.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let metrics = client.get("/metrics").map(|r| r.body).unwrap_or_default();
        if scrape(&metrics, "noc_svc_queue_depth") == 0
            && scrape(&metrics, "noc_svc_jobs_inflight") == 0
        {
            break;
        }
        if Instant::now() > deadline {
            eprintln!("error: replayed backlog still busy at deadline");
            errors += 1;
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }

    let before = client.get("/metrics").map(|r| r.body).unwrap_or_default();
    let executed_before = scrape(&before, "noc_svc_schedules_executed_total");
    let hits_before = scrape(&before, "noc_svc_store_hits_total");

    let mut byte_identical = 0usize;
    let mut served_as_hit = 0usize;
    for (j, job) in state.jobs.iter().enumerate() {
        match client.post("/v1/schedule", &job.body) {
            Ok(resp) if resp.status == 200 && resp.body == job.expected => {
                byte_identical += 1;
                if resp.header("x-cache") == Some("hit") {
                    served_as_hit += 1;
                } else {
                    eprintln!("error: re-post {j} was not served as a cache hit");
                    errors += 1;
                }
                if resp.header("store-degraded").is_some() {
                    eprintln!("error: re-post {j} was served degraded (memory-only)");
                    errors += 1;
                }
            }
            Ok(resp) => {
                eprintln!(
                    "error: re-post {j} answered {} with divergent bytes (want the recorded 200)",
                    resp.status
                );
                errors += 1;
            }
            Err(e) => {
                eprintln!("error: re-post {j} failed: {e}");
                errors += 1;
            }
        }
    }

    let after = client.get("/metrics").map(|r| r.body).unwrap_or_default();
    let executed_after = scrape(&after, "noc_svc_schedules_executed_total");
    let recomputes = executed_after.saturating_sub(executed_before);
    if recomputes != 0 {
        eprintln!(
            "error: the re-post wave cost {recomputes} schedule executions (the store must \
             answer them all)"
        );
        errors += 1;
    }
    let store_hits_delta = scrape(&after, "noc_svc_store_hits_total").saturating_sub(hits_before);
    if store_hits_delta < state.jobs.len() as u64 {
        eprintln!(
            "error: only {store_hits_delta} disk-tier hits for {} re-posts — responses did \
             not come from the persistent store",
            state.jobs.len()
        );
        errors += 1;
    }
    let store_degraded = scrape(&after, "noc_svc_store_degraded");
    if store_degraded != 0 {
        eprintln!("error: the persistent store is degraded to memory-only mode");
        errors += 1;
    }

    let report = StoreSvcBench {
        addr: addr_text.to_owned(),
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
        errors,
        wall_s: started.elapsed().as_secs_f64(),
    };
    println!(
        "{byte_identical}/{} re-posts byte-identical ({served_as_hit} as hits), \
         {recomputes} recomputes, {store_hits_delta} disk-tier hits, {errors} errors",
        report.jobs
    );
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write(out_path, json) {
                eprintln!("error: cannot write {out_path}: {e}");
                return 1;
            }
            println!("Artifact written to {out_path}");
        }
        Err(e) => {
            eprintln!("error: cannot serialize report: {e}");
            return 1;
        }
    }
    i32::from(errors > 0 || byte_identical != state.jobs.len())
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

/// Extracts a single-value counter from Prometheus text.
fn scrape(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#') && !l[name.len()..].starts_with('{'))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("error: invalid numeric value {s:?}");
        std::process::exit(2);
    })
}

//! Flight-recorder overhead gate for CI: starts two in-process
//! `noceas serve` instances — one with the flight recorder at its
//! default 4096 entries, one with the recorder disabled — warms both
//! with the same fixed-seed problem mix, then fires alternating
//! cached-hit rounds at each and compares the best round times. The
//! recorder must cost at most the `--gate-pct` budget (CI uses 2), and
//! both servers must answer every problem with byte-identical bodies:
//! trace metadata lives in headers and the recorder only, never in the
//! response body.
//!
//! Writes `BENCH_obs.json` (first positional argument overrides the
//! path) and exits non-zero on a gate violation.

use std::time::{Duration, Instant};

use serde::Serialize;

use noc_bench::svc::{connect, mix, post_expect};
use noc_svc::client::Client;
use noc_svc::{Server, ServiceConfig};

/// Alternating timing rounds per server; the minimum is kept. The
/// minimum of many rounds is robust against scheduler preemption
/// noise, which an average would smear into false gate failures.
const ROUNDS: usize = 7;
/// Cached-hit requests per round.
const REQUESTS_PER_ROUND: usize = 400;
/// Distinct problems in the warmed mix.
const GRAPHS: usize = 3;

#[derive(Debug, Serialize)]
struct Report {
    bench: String,
    rounds: usize,
    requests_per_round: usize,
    distinct_problems: usize,
    /// Best-round throughput with the recorder disabled.
    base_rps: f64,
    /// Best-round throughput with the recorder at 4096 entries.
    traced_rps: f64,
    /// Relative cost of the enabled recorder, percent (negative
    /// values mean measurement noise favored the traced server).
    overhead_pct: f64,
    /// Whether every problem answered byte-identical bodies across
    /// the recorder-on and recorder-off servers.
    byte_identical: bool,
    gate_pct: Option<f64>,
}

fn config(flight_recorder_entries: usize) -> ServiceConfig {
    ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        http_workers: 2,
        sched_workers: 2,
        queue_capacity: 64,
        cache_capacity: 64,
        flight_recorder_entries,
        ..ServiceConfig::default()
    }
}

/// Posts one body that must answer 200 and returns the answer;
/// anything else is fatal.
fn post(client: &mut Client, body: &str, what: std::fmt::Arguments) -> String {
    post_expect(client, "/v1/schedule", body, 200)
        .unwrap_or_else(|e| {
            eprintln!("error: {what}: {e}");
            std::process::exit(1);
        })
        .body
}

/// Warms one server with every problem (the compute round) and
/// returns the reference bodies.
fn warm(client: &mut Client, mix: &[String], label: &str) -> Vec<String> {
    mix.iter()
        .enumerate()
        .map(|(idx, body)| post(client, body, format_args!("{label} warming problem {idx}")))
        .collect()
}

/// One timed round of cached-hit posts cycling the mix. Returns the
/// round's wall time.
fn round(client: &mut Client, mix: &[String], label: &str) -> Duration {
    let started = Instant::now();
    for n in 0..REQUESTS_PER_ROUND {
        post(
            client,
            &mix[n % mix.len()],
            format_args!("{label} mid-round"),
        );
    }
    started.elapsed()
}

fn main() {
    let mut out_path = "BENCH_obs.json".to_owned();
    let mut gate_pct: Option<f64> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--gate-pct" => {
                i += 1;
                let value = args.get(i).unwrap_or_else(|| {
                    eprintln!("error: --gate-pct needs a value");
                    std::process::exit(2);
                });
                gate_pct = Some(value.parse().unwrap_or_else(|_| {
                    eprintln!("error: bad --gate-pct value {value:?}");
                    std::process::exit(2);
                }));
            }
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown flag {flag}");
                std::process::exit(2);
            }
            path => out_path = path.to_owned(),
        }
        i += 1;
    }

    println!(
        "== obs_overhead: recorder 4096 vs 0, {ROUNDS} rounds x {REQUESTS_PER_ROUND} cached \
         posts, gate {} ==",
        gate_pct.map_or("off".to_owned(), |p| format!("{p}%")),
    );

    let traced = Server::start(config(4096)).expect("traced server starts");
    let plain = Server::start(config(0)).expect("plain server starts");
    let mix = mix(0x0B5, GRAPHS, 3, &["edf", "dls"]);

    let patience = Duration::from_secs(10);
    let timeout = Duration::from_secs(60);
    let mut traced_client = connect(traced.addr(), patience, timeout).expect("traced connects");
    let mut plain_client = connect(plain.addr(), patience, timeout).expect("plain connects");

    // Warm both with the full mix, and gate byte identity right here:
    // the recorder must never leak into response bodies.
    let traced_bodies = warm(&mut traced_client, &mix, "traced");
    let plain_bodies = warm(&mut plain_client, &mix, "plain");
    let byte_identical = traced_bodies == plain_bodies;
    if !byte_identical {
        eprintln!("error: recorder-on bodies diverge from recorder-off bodies");
    }

    // Alternate servers within each round so drift (thermal, cache,
    // competing load) hits both equally; keep each server's best.
    let mut traced_best = Duration::MAX;
    let mut plain_best = Duration::MAX;
    for r in 0..ROUNDS {
        let t = round(&mut traced_client, &mix, "traced");
        let p = round(&mut plain_client, &mix, "plain");
        traced_best = traced_best.min(t);
        plain_best = plain_best.min(p);
        println!(
            "round {r}: traced {:.1}ms, plain {:.1}ms",
            t.as_secs_f64() * 1000.0,
            p.as_secs_f64() * 1000.0,
        );
    }
    traced.shutdown();
    plain.shutdown();

    let base_rps = REQUESTS_PER_ROUND as f64 / plain_best.as_secs_f64();
    let traced_rps = REQUESTS_PER_ROUND as f64 / traced_best.as_secs_f64();
    let overhead_pct =
        (traced_best.as_secs_f64() - plain_best.as_secs_f64()) / plain_best.as_secs_f64() * 100.0;
    println!(
        "best rounds: plain {base_rps:.0} rps, traced {traced_rps:.0} rps, \
         recorder overhead {overhead_pct:.2}%"
    );

    let mut failed = !byte_identical;
    if let Some(gate) = gate_pct {
        if overhead_pct > gate {
            eprintln!("error: recorder costs {overhead_pct:.2}% (budget {gate}%)");
            failed = true;
        }
    }

    let report = Report {
        bench: "obs_overhead".to_owned(),
        rounds: ROUNDS,
        requests_per_round: REQUESTS_PER_ROUND,
        distinct_problems: mix.len(),
        base_rps,
        traced_rps,
        overhead_pct,
        byte_identical,
        gate_pct,
    };
    if let Err(e) = noc_bench::write_json(&out_path, &report) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    println!("Artifact written to {out_path}");
    if failed {
        std::process::exit(1);
    }
}

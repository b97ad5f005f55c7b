//! perf_ledger: the end-to-end and per-layer benchmark of the `noceas`
//! scheduling service and the EAS pipeline. See README.md.
//!
//! ```text
//! perf_ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!             [--runs K] [--out DIR]
//! perf_ledger compare PARENT.json CHANGE.json [--bounds BENCHMARK.json]
//! ```
//!
//! With `--workload`, one workload runs and the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`, the default) or the per-layer
//! metrics (`--trace 1`). Without it every workload runs traced and
//! `results.json` plus `spans_<workload>.jsonl` land in `--out`.

mod compare;
mod gen;
mod http;
mod load;
mod replay;
mod server;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use serde::{Map, Serialize, Value};

use crate::workloads::{Opts, RunResult, E2E_METRICS, WORKLOADS};

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    runs: usize,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: perf_ledger [--workload svc_cold|svc_hot|svc_durable|batch_repair] \
[--seed N] [--seconds S] [--trace 0|1] [--runs K] [--out DIR]\n       \
perf_ledger compare PARENT.json CHANGE.json [--bounds BENCHMARK.json]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: gen::DEFAULT_SEED,
        seconds: 10.0,
        trace: None,
        runs: 1,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value `{v}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| w == v)
                        .ok_or_else(|| format!("unknown workload `{v}`"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad(v))?;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                });
            }
            "--runs" => {
                let v = value()?;
                args.runs = v.parse().ok().filter(|&k| k > 0).ok_or_else(|| bad(v))?;
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().map(String::as_str) == Some("compare") {
        compare_main(&argv[1..])
    } else {
        parse_args(&argv).and_then(|a| run_main(&a))
    };
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            std::process::exit(2);
        }
    }
}

fn run_main(args: &Args) -> Result<bool, String> {
    server::noceas().map_err(|e| e.to_string())?;
    let workloads: Vec<&'static str> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.to_vec(),
    };
    let trace = args.trace.unwrap_or(args.workload.is_none());
    let out = args.out.clone().or_else(|| {
        args.workload
            .is_none()
            .then(|| PathBuf::from("target/perf_ledger"))
    });
    let scratch = out
        .clone()
        .unwrap_or_else(|| PathBuf::from("target/perf_ledger"))
        .join(format!("tmp-{}", std::process::id()));
    let mut results = Vec::new();
    for k in 0..args.runs {
        for &workload in &workloads {
            let opts = Opts {
                seed: args.seed + k as u64,
                seconds: args.seconds,
                trace,
                tmp: scratch.join(format!("{workload}-{k}")),
            };
            let run = workloads::run(workload, &opts);
            let _ = std::fs::remove_dir_all(&opts.tmp);
            let run = run?;
            print!("{}", report(&run));
            results.push(run);
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    if args.runs > 1 {
        print!("{}", summary_table(&results));
    }
    if let Some(dir) = &out {
        write_outputs(dir, args, &results)?;
        println!("wrote {}", dir.join("results.json").display());
    }
    let correct = results.iter().all(RunResult::correct);
    if args.workload.is_some() && args.runs == 1 {
        println!("{}", last_line(&results[0], trace));
    }
    Ok(correct)
}

/// The one-line JSON result a single-workload run ends with.
fn last_line(r: &RunResult, trace: bool) -> String {
    let mut metrics = Map::new();
    let mut put = |name: &str, value: f64, unit: &str| {
        let mut m = Map::new();
        m.insert("value", value.to_value());
        m.insert("unit", Value::String(unit.to_owned()));
        metrics.insert(name, Value::Object(m));
    };
    if trace {
        for (name, unit) in replay::LAYER_METRICS {
            put(name, r.layers.get(name).copied().unwrap_or(0.0), unit);
        }
    } else {
        for (name, unit) in E2E_METRICS {
            put(name, r.e2e[name], unit);
        }
    }
    let mut line = Map::new();
    line.insert("correct", Value::Bool(r.correct()));
    line.insert("attempted", (r.attempted as u64).to_value());
    line.insert("failed", (r.failed as u64).to_value());
    line.insert("metrics", Value::Object(metrics));
    serde_json::to_string(&Value::Object(line)).expect("serializes")
}

fn unit_of(name: &str) -> &'static str {
    E2E_METRICS
        .iter()
        .chain(replay::LAYER_METRICS.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The unit of a workload-specific extra, from its name.
fn extra_unit(name: &str) -> &'static str {
    if name.contains("_ms") {
        "ms"
    } else if name.ends_with("_mb") {
        "MB"
    } else if name.ends_with("_rps") {
        "ops/s"
    } else {
        "count"
    }
}

/// The human-readable report of one run.
fn report(r: &RunResult) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== {} seed {} ({} s){} ==",
        r.workload,
        r.seed,
        r.seconds,
        if r.layers.is_empty() { "" } else { ", traced" }
    );
    let _ = writeln!(s, "config: {}", r.config);
    let _ = writeln!(
        s,
        "  {:<28} {:>14}  (highest supported percentile: p{})",
        "samples",
        r.samples,
        stats::highest_supported(r.samples).unwrap_or(0.0)
    );
    for (name, unit) in E2E_METRICS {
        let _ = writeln!(s, "  {name:<28} {:>14.4} {unit}", r.e2e[name]);
    }
    let error_rate = if r.attempted == 0 {
        0.0
    } else {
        r.failed as f64 / r.attempted as f64
    };
    let _ = writeln!(
        s,
        "  {:<28} {:>14.4} ratio  ({} failed of {} attempted)",
        "error_rate", error_rate, r.failed, r.attempted
    );
    for (name, v) in &r.extras {
        let _ = writeln!(s, "  {name:<28} {v:>14.4} {}", extra_unit(name));
    }
    if !r.layers.is_empty() {
        let _ = writeln!(s, "per layer:");
        for (name, unit) in replay::LAYER_METRICS {
            let _ = writeln!(
                s,
                "  {name:<28} {:>14.4} {unit}",
                r.layers.get(name).copied().unwrap_or(0.0)
            );
        }
    }
    let _ = writeln!(s, "checks:");
    for c in &r.checks {
        let _ = writeln!(
            s,
            "  {} {}: {}",
            if c.ok { "ok  " } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    for e in &r.errors {
        let _ = writeln!(s, "  error: {e}");
    }
    let _ = writeln!(s, "  correct: {}", r.correct());
    s
}

/// Median and quartiles of every metric over repeated runs.
fn summarize(results: &[RunResult]) -> BTreeMap<&'static str, BTreeMap<&'static str, Vec<f64>>> {
    let mut by: BTreeMap<&'static str, BTreeMap<&'static str, Vec<f64>>> = BTreeMap::new();
    for r in results {
        let m = by.entry(r.workload).or_default();
        for (k, v) in r.e2e.iter().chain(&r.layers) {
            m.entry(k).or_default().push(*v);
        }
    }
    by
}

fn summary_table(results: &[RunResult]) -> String {
    let mut s = String::from("== summary over runs ==\n");
    for (w, metrics) in summarize(results) {
        for (name, _) in E2E_METRICS {
            let v = &metrics[name];
            let (q1, q3) = stats::quartiles(v);
            let m = stats::median(v);
            let _ = writeln!(
                s,
                "{w:<13} {name:<15} median {m:>12.4}  q1 {q1:>12.4}  q3 {q3:>12.4}  spread {:>6.1}%  (n={})",
                100.0 * stats::spread(v),
                v.len()
            );
        }
    }
    s
}

fn host() -> Value {
    let mut h = Map::new();
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    h.insert("cpus", (cpus as u64).to_value());
    h.insert("profile", Value::String("release".into()));
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned());
    h.insert("rustc", rustc.map_or(Value::Null, Value::String));
    h.insert("os", Value::String(std::env::consts::OS.into()));
    Value::Object(h)
}

fn object<K: AsRef<str>>(m: &BTreeMap<K, f64>) -> Value {
    let mut o = Map::new();
    for (k, v) in m {
        o.insert(k.as_ref(), v.to_value());
    }
    Value::Object(o)
}

fn run_value(r: &RunResult) -> Value {
    let mut o = Map::new();
    o.insert("workload", Value::String(r.workload.into()));
    o.insert("seed", r.seed.to_value());
    o.insert("seconds", r.seconds.to_value());
    o.insert("correct", Value::Bool(r.correct()));
    o.insert("attempted", (r.attempted as u64).to_value());
    o.insert("failed", (r.failed as u64).to_value());
    o.insert("samples", (r.samples as u64).to_value());
    o.insert("config", Value::String(r.config.clone()));
    o.insert("e2e", object(&r.e2e));
    o.insert("extras", object(&r.extras));
    o.insert("layers", object(&r.layers));
    let units: Map = r
        .e2e
        .keys()
        .chain(r.layers.keys())
        .fold(Map::new(), |mut m, k| {
            m.insert(*k, Value::String(unit_of(k).into()));
            m
        });
    o.insert("units", Value::Object(units));
    let checks = r
        .checks
        .iter()
        .map(|c| {
            let mut m = Map::new();
            m.insert("name", Value::String(c.name.into()));
            m.insert("ok", Value::Bool(c.ok));
            m.insert("detail", Value::String(c.detail.clone()));
            Value::Object(m)
        })
        .collect();
    o.insert("checks", Value::Array(checks));
    Value::Object(o)
}

fn write_outputs(dir: &Path, args: &Args, results: &[RunResult]) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    std::fs::create_dir_all(dir).map_err(io)?;
    let mut root = Map::new();
    root.insert("benchmark", Value::String("perf_ledger".into()));
    root.insert("host", host());
    root.insert("seconds", args.seconds.to_value());
    root.insert(
        "runs",
        Value::Array(results.iter().map(run_value).collect()),
    );
    let mut summary = Map::new();
    for (w, metrics) in summarize(results) {
        let mut per = Map::new();
        for (name, v) in metrics {
            let (q1, q3) = stats::quartiles(&v);
            let mut m = Map::new();
            m.insert("median", stats::median(&v).to_value());
            m.insert("q1", q1.to_value());
            m.insert("q3", q3.to_value());
            m.insert("n", (v.len() as u64).to_value());
            per.insert(name, Value::Object(m));
        }
        summary.insert(w, Value::Object(per));
    }
    root.insert("summary", Value::Object(summary));
    let text = serde_json::to_string_pretty(&Value::Object(root)).expect("serializes");
    std::fs::write(dir.join("results.json"), text + "\n").map_err(io)?;

    let mut by_workload: BTreeMap<&str, String> = BTreeMap::new();
    for r in results {
        let lines = by_workload.entry(r.workload).or_default();
        for s in &r.spans {
            let mut m = Map::new();
            m.insert("workload", Value::String(r.workload.into()));
            m.insert("seed", r.seed.to_value());
            m.insert("req", (s.req as u64).to_value());
            m.insert("span", Value::String(s.name.into()));
            m.insert(
                "parent",
                s.parent
                    .map_or(Value::Null, |p| Value::String(r.spans[p].name.into())),
            );
            m.insert("start_us", s.start_us.to_value());
            m.insert("end_us", s.end_us.to_value());
            lines.push_str(&serde_json::to_string(&Value::Object(m)).expect("serializes"));
            lines.push('\n');
        }
    }
    for (w, lines) in by_workload {
        std::fs::write(dir.join(format!("spans_{w}.jsonl")), lines).map_err(io)?;
    }
    Ok(())
}

fn compare_main(argv: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut bounds_path = PathBuf::from("BENCHMARK.json");
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--bounds" {
            bounds_path = PathBuf::from(it.next().ok_or("--bounds needs a path")?);
        } else {
            files.push(a.clone());
        }
    }
    let [parent, change] = files.as_slice() else {
        return Err(USAGE.to_owned());
    };
    let read = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{p}: {e}"))
    };
    let bounds = std::fs::read_to_string(&bounds_path)
        .map_err(|e| format!("{}: {e}", bounds_path.display()))
        .and_then(|text| compare::bounds(&text))?;
    let (table, worse) = compare::compare(&read(parent)?, &read(change)?, &bounds);
    print!("{table}");
    Ok(worse == 0)
}

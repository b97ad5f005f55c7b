//! Serial EAS timing baseline for CI: schedules category-I TGFF graphs
//! of 64, 128 and 256 tasks on `mesh:4x4` with the full EAS pipeline,
//! checks every timed run yields the same outcome, and writes the
//! best-of-three wall-clock times to `BENCH_schedule.json` (first
//! argument overrides the path).
//!
//! EAS evaluates its F(i,k) trials and GTM candidates serially, so no
//! thread count varies here. The artifact records `host_cpus` and the
//! build `profile` beside the times: a time means little without the
//! machine and build that produced it.

use std::time::Instant;

use serde::Serialize;

use noc_bench::platforms;
use noc_ctg::prelude::*;
use noc_eas::prelude::*;

/// Timing runs per graph; the minimum is reported.
const RUNS: usize = 3;

#[derive(Debug, Serialize)]
struct Case {
    graph: String,
    tasks: usize,
    edges: usize,
    serial_s: f64,
    energy_nj: f64,
    deadline_misses: usize,
}

#[derive(Debug, Serialize)]
struct Baseline {
    bench: String,
    host_cpus: usize,
    /// `release` or `debug`: the build the times come from.
    profile: String,
    runs: usize,
    cases: Vec<Case>,
}

/// Best-of-[`RUNS`] wall-clock seconds; panics if two runs disagree.
fn timed_schedule(
    graph: &noc_ctg::TaskGraph,
    platform: &noc_platform::Platform,
) -> (ScheduleOutcome, f64) {
    let scheduler = EasScheduler::full();
    let mut best = f64::INFINITY;
    let mut first: Option<ScheduleOutcome> = None;
    for _ in 0..RUNS {
        let t0 = Instant::now();
        let out = scheduler.schedule(graph, platform).expect("schedules");
        best = best.min(t0.elapsed().as_secs_f64());
        match &first {
            Some(f) => assert_eq!(f, &out, "EAS is not deterministic on {}", graph.name()),
            None => first = Some(out),
        }
    }
    (first.expect("at least one run"), best)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_schedule.json".to_owned());
    let platform = platforms::mesh_4x4();
    let host_cpus = noc_par::available_threads();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "== Serial EAS baseline ({profile} build, host has {host_cpus} hardware threads) ==\n"
    );
    println!(
        "{:<22} {:>6} {:>6} {:>10}",
        "graph", "tasks", "edges", "serial(s)"
    );

    let mut cases = Vec::new();
    for task_count in [64usize, 128, 256] {
        let mut cfg = TgffConfig::category_i(42);
        cfg.task_count = task_count;
        cfg.width = (task_count / 20).max(4);
        let graph = TgffGenerator::new(cfg)
            .generate(&platform)
            .expect("generates");
        let (outcome, serial_s) = timed_schedule(&graph, &platform);
        println!(
            "{:<22} {:>6} {:>6} {:>10.4}",
            graph.name(),
            graph.task_count(),
            graph.edge_count(),
            serial_s,
        );
        cases.push(Case {
            graph: graph.name().to_owned(),
            tasks: graph.task_count(),
            edges: graph.edge_count(),
            serial_s,
            energy_nj: outcome.stats.energy.total().as_nj(),
            deadline_misses: outcome.report.deadline_misses.len(),
        });
    }

    let baseline = Baseline {
        bench: "schedule".to_owned(),
        host_cpus,
        profile: profile.to_owned(),
        runs: RUNS,
        cases,
    };
    if let Err(e) = noc_bench::write_json(&out_path, &baseline) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    println!("\nBaseline written to {out_path}");
}

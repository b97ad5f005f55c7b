//! Warm-start vs from-scratch delta scheduling baseline for CI: edits
//! a scheduled graph, repairs the prior schedule with
//! `noc_eas::delta::repair_from`, reschedules the edited graph from
//! scratch, and writes latency plus quality (energy / tardiness)
//! comparisons across edit sizes to `BENCH_delta.json` (first argument
//! overrides the path).
//!
//! Latency here compares two *serial* runs on the same core, so the
//! warm-vs-scratch ratio is meaningful on any host; `speedup_valid`
//! still records whether the host could demonstrate parallelism, so
//! consumers treat the artifact uniformly with `BENCH_schedule.json`.
//!
//! The CI gate: for single-edit cases the warm-start median must be
//! below half the from-scratch median (the whole point of the delta
//! API); the process exits non-zero otherwise.
//!
//! A final persistent-store phase round-trips a prior schedule through
//! `noc_svc::store::Store` — written, reopened cold, resolved from the
//! segment log — and requires the repair warm-started from the
//! disk-resolved prior to be byte-identical to the RAM-prior repair:
//! the warm-start contract survives a restart.

use std::time::Instant;

use serde::Serialize;

use noc_bench::platforms;
use noc_ctg::prelude::*;
use noc_eas::prelude::*;

/// Timing runs per configuration; the median is reported.
const RUNS: usize = 5;
/// Edit-sequence sizes compared.
const EDIT_SIZES: [usize; 4] = [1, 2, 4, 8];

#[derive(Debug, Serialize)]
struct Case {
    graph: String,
    tasks: usize,
    edits: usize,
    warm_start: bool,
    reason: String,
    mask_tasks: usize,
    warm_median_s: f64,
    scratch_median_s: f64,
    /// `warm_median_s / scratch_median_s`; below 1.0 means the warm
    /// start paid off.
    latency_ratio: f64,
    warm_energy_nj: f64,
    scratch_energy_nj: f64,
    /// `warm_energy_nj / scratch_energy_nj`: the quality envelope. The
    /// warm start trades a little energy for a lot of latency; this
    /// records exactly how much.
    energy_ratio: f64,
    warm_tardiness: u64,
    scratch_tardiness: u64,
    warm_misses: usize,
    scratch_misses: usize,
}

#[derive(Debug, Serialize)]
struct Baseline {
    bench: String,
    host_cpus: usize,
    /// `false` on single-hardware-thread hosts: parallel speedup claims
    /// are unmeasurable there. The warm-vs-scratch latency ratios in
    /// this artifact are serial-vs-serial and remain meaningful.
    speedup_valid: bool,
    cases: Vec<Case>,
    store_prior: StorePrior,
}

/// The persistent-store warm-start phase: a prior resolved from a
/// cold-reopened segment log must repair to the same bytes as the
/// in-memory prior.
#[derive(Debug, Serialize)]
struct StorePrior {
    reopen_s: f64,
    resolve_s: f64,
    byte_identical: bool,
}

/// Writes the prior's response bytes to a fresh store, reopens it cold
/// and repairs from the disk-resolved prior; compares against `want`.
fn store_prior_phase(
    graph: &noc_ctg::TaskGraph,
    platform: &noc_platform::Platform,
    prior: &noc_eas::ScheduleOutcome,
    edits: &[Edit],
    want: &str,
) -> StorePrior {
    use std::sync::Arc;

    use noc_svc::store::{Store, StoreConfig, StoreStats};

    let dir = std::env::temp_dir().join(format!("noc-delta-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let key = "delta-bench-prior";
    let response = noc_svc::api::ScheduleResponse::from_outcome("eas", prior).to_json();
    {
        let store = Store::open(StoreConfig::new(&dir), Arc::new(StoreStats::default()))
            .expect("store opens");
        assert!(
            store.put(key, &noc_svc::cache::JobOutput::new(Arc::new(response))),
            "prior write must land"
        );
    }

    let t0 = Instant::now();
    let store = Store::open(StoreConfig::new(&dir), Arc::new(StoreStats::default()))
        .expect("store reopens");
    let reopen_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let resolved = store.get(key).expect("prior resolves from disk");
    let parsed: noc_svc::api::ScheduleResponse =
        serde_json::from_str(&resolved.body).expect("stored prior parses");
    let applied = apply_edits(graph, edits).expect("edits apply");
    let edited_platform = apply_platform_edits(platform, &applied.edits).expect("platform applies");
    let repaired = repair_from(graph, &parsed.schedule, &edited_platform, &applied)
        .expect("repairs from the disk-resolved prior");
    let resolve_s = t0.elapsed().as_secs_f64();
    let got = noc_svc::api::ScheduleResponse::from_outcome("eas", &repaired.outcome).to_json();
    let _ = std::fs::remove_dir_all(&dir);
    StorePrior {
        reopen_s,
        resolve_s,
        byte_identical: got == want,
    }
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// A deterministic edit sequence of `k` cost changes on distinct,
/// spread-out tasks: each bumps one task's execution times by ~10% and
/// energies by ~5% on every PE, enough to perturb the schedule without
/// invalidating the warm start.
fn edit_sequence(graph: &noc_ctg::TaskGraph, k: usize) -> Vec<Edit> {
    let n = graph.task_count();
    let stride = (n / (k + 1)).max(1);
    (0..k)
        .map(|i| {
            let t = (1 + i * stride) % n;
            let task = graph.task(TaskId::new(t as u32));
            Edit::SetExecTime {
                task: t as u32,
                exec_times: task
                    .exec_times()
                    .iter()
                    .map(|w| w.ticks() + w.ticks() / 10 + 1)
                    .collect(),
                exec_energies: task
                    .exec_energies()
                    .iter()
                    .map(|e| e.as_nj() * 1.05)
                    .collect(),
            }
        })
        .collect()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_delta.json".to_owned());
    let platform = platforms::mesh_4x4();
    let host_cpus = noc_par::available_threads();
    println!("== Delta warm-start baseline (host has {host_cpus} hardware threads) ==\n");
    println!(
        "{:<22} {:>6} {:>6} {:>6} {:>10} {:>10} {:>7} {:>7}",
        "graph", "tasks", "edits", "mask", "warm(s)", "scratch(s)", "ratio", "energy"
    );

    let scheduler = EasScheduler::new(EasConfig::default());
    let mut cases = Vec::new();
    let mut gate_failures = Vec::new();
    for task_count in [64usize, 128] {
        let mut cfg = TgffConfig::category_i(42);
        cfg.task_count = task_count;
        cfg.width = (task_count / 20).max(4);
        let graph = TgffGenerator::new(cfg)
            .generate(&platform)
            .expect("generates");
        let prior = scheduler.schedule(&graph, &platform).expect("schedules");

        for k in EDIT_SIZES {
            let edits = edit_sequence(&graph, k);
            let applied = apply_edits(&graph, &edits).expect("edits apply");
            let edited_platform =
                apply_platform_edits(&platform, &applied.edits).expect("platform applies");

            let mut warm_samples = Vec::new();
            let mut delta = None;
            for _ in 0..RUNS {
                let t0 = Instant::now();
                let out = repair_from(&graph, &prior.schedule, &edited_platform, &applied)
                    .expect("repairs");
                warm_samples.push(t0.elapsed().as_secs_f64());
                delta = Some(out);
            }
            let delta = delta.expect("at least one run");

            let mut scratch_samples = Vec::new();
            let mut scratch = None;
            for _ in 0..RUNS {
                let t0 = Instant::now();
                let out = scheduler
                    .schedule(&applied.graph, &edited_platform)
                    .expect("schedules");
                scratch_samples.push(t0.elapsed().as_secs_f64());
                scratch = Some(out);
            }
            let scratch = scratch.expect("at least one run");

            let warm_median_s = median(warm_samples);
            let scratch_median_s = median(scratch_samples);
            let latency_ratio = warm_median_s / scratch_median_s;
            let warm_energy_nj = delta.outcome.stats.energy.total().as_nj();
            let scratch_energy_nj = scratch.stats.energy.total().as_nj();
            println!(
                "{:<22} {:>6} {:>6} {:>6} {:>10.4} {:>10.4} {:>7.2} {:>7.3}",
                graph.name(),
                graph.task_count(),
                k,
                delta.mask_tasks,
                warm_median_s,
                scratch_median_s,
                latency_ratio,
                warm_energy_nj / scratch_energy_nj,
            );
            if k == 1 && delta.warm_start && latency_ratio >= 0.5 {
                gate_failures.push(format!(
                    "{}: single-edit warm start took {latency_ratio:.2}x of scratch (gate < 0.5)",
                    graph.name()
                ));
            }
            cases.push(Case {
                graph: graph.name().to_owned(),
                tasks: graph.task_count(),
                edits: k,
                warm_start: delta.warm_start,
                reason: delta.reason.to_owned(),
                mask_tasks: delta.mask_tasks,
                warm_median_s,
                scratch_median_s,
                latency_ratio,
                warm_energy_nj,
                scratch_energy_nj,
                energy_ratio: warm_energy_nj / scratch_energy_nj,
                warm_tardiness: delta.outcome.report.total_tardiness().ticks(),
                scratch_tardiness: scratch.report.total_tardiness().ticks(),
                warm_misses: delta.outcome.report.deadline_misses.len(),
                scratch_misses: scratch.report.deadline_misses.len(),
            });
        }
    }

    // Persistent-store phase: the last graph's prior, written to a
    // segment log and resolved after a cold reopen, must repair to the
    // same bytes as the RAM-held prior.
    let mut cfg = TgffConfig::category_i(42);
    cfg.task_count = 64;
    cfg.width = 4;
    let graph = TgffGenerator::new(cfg)
        .generate(&platform)
        .expect("generates");
    let prior = scheduler.schedule(&graph, &platform).expect("schedules");
    let edits = edit_sequence(&graph, 1);
    let applied = apply_edits(&graph, &edits).expect("edits apply");
    let edited_platform =
        apply_platform_edits(&platform, &applied.edits).expect("platform applies");
    let ram_repair =
        repair_from(&graph, &prior.schedule, &edited_platform, &applied).expect("repairs");
    let want = noc_svc::api::ScheduleResponse::from_outcome("eas", &ram_repair.outcome).to_json();
    let store_prior = store_prior_phase(&graph, &platform, &prior, &edits, &want);
    println!(
        "\nstore-resolved prior: reopen {:.4}s, resolve+repair {:.4}s, byte-identical: {}",
        store_prior.reopen_s, store_prior.resolve_s, store_prior.byte_identical
    );
    if !store_prior.byte_identical {
        gate_failures
            .push("disk-resolved prior repaired to different bytes than the RAM prior".to_owned());
    }

    let baseline = Baseline {
        bench: "delta".to_owned(),
        host_cpus,
        speedup_valid: host_cpus > 1,
        cases,
        store_prior,
    };
    if let Err(e) = noc_bench::write_json(&out_path, &baseline) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    println!("\nBaseline written to {out_path}");
    if !gate_failures.is_empty() {
        for failure in &gate_failures {
            eprintln!("gate failure: {failure}");
        }
        std::process::exit(1);
    }
    println!("gate passed: single-edit warm starts beat half the from-scratch latency");
}

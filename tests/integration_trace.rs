//! Trace determinism tests: the JSONL event stream is byte-identical
//! for every worker-thread count, the exporters carry every pipeline
//! stage, and the summary's counters agree with the raw events.

use noc_ctg::prelude::*;
use noc_eas::prelude::*;
use noc_eas::trace::{to_chrome_trace, to_jsonl, EventKind};
use noc_platform::prelude::*;

fn platform() -> Platform {
    Platform::builder()
        .topology(TopologySpec::mesh(4, 4))
        .pe_mix(PeCatalog::date04().cycle_mix())
        .build()
        .expect("mesh builds")
}

fn workload(seed: u64, tasks: usize) -> TaskGraph {
    let mut cfg = TgffConfig::small(seed);
    cfg.task_count = tasks;
    TgffGenerator::new(cfg)
        .generate(&platform())
        .expect("generates")
}

/// Runs a traced anneal — the full EAS pipeline as its warm start, then
/// three restart chains, the one stage `--threads` still fans out — on
/// `threads` workers and returns the JSONL export of its
/// logical-timestamp event stream.
fn jsonl_for(graph: &TaskGraph, platform: &Platform, threads: usize) -> String {
    let scheduler = AnnealScheduler::new(AnnealConfig {
        iterations: 400,
        restarts: 3,
        threads,
        ..AnnealConfig::default()
    });
    let mut sink = BufferSink::new();
    scheduler
        .schedule_traced(graph, platform, &ComputeBudget::unlimited(), &mut sink)
        .expect("schedules");
    to_jsonl(sink.events())
}

#[test]
fn jsonl_streams_are_identical_for_every_thread_count() {
    let platform = platform();
    for seed in [7, 42, 1999] {
        let graph = workload(seed, 24);
        let serial = jsonl_for(&graph, &platform, 1);
        for threads in [2, 4] {
            let parallel = jsonl_for(&graph, &platform, threads);
            assert_eq!(
                serial, parallel,
                "seed {seed}: trace with {threads} threads diverges from serial"
            );
        }
        assert!(
            serial.lines().count() > graph.task_count(),
            "seed {seed}: the trace narrates at least one event per task"
        );
    }
}

#[test]
fn exports_carry_every_pipeline_stage() {
    let platform = platform();
    let graph = workload(3, 20);
    let scheduler = EasScheduler::full();
    let mut sink = BufferSink::new();
    scheduler
        .schedule_traced(&graph, &platform, &ComputeBudget::unlimited(), &mut sink)
        .expect("schedules");

    let chrome = to_chrome_trace(sink.events());
    for span in [
        "budgeting",
        "level",
        "level:0",
        "comm",
        "repair",
        "validate",
    ] {
        assert!(
            chrome.contains(&format!("\"{span}\"")),
            "chrome export must contain the {span} span"
        );
    }
    let jsonl = to_jsonl(sink.events());
    for kind in ["task_budget", "trial", "select", "span_begin", "span_end"] {
        assert!(
            jsonl.contains(&format!("\"type\":\"{kind}\"")),
            "jsonl export must contain {kind} events"
        );
    }
}

#[test]
fn summary_counters_agree_with_the_raw_events() {
    let platform = platform();
    let graph = workload(11, 24);
    let mut sink = BufferSink::new();
    EasScheduler::full()
        .schedule_traced(&graph, &platform, &ComputeBudget::unlimited(), &mut sink)
        .expect("schedules");

    let summary = TraceSummary::from_events(sink.events());
    let count = |pred: &dyn Fn(&EventKind) -> bool| {
        sink.events().iter().filter(|e| pred(&e.kind)).count() as u64
    };
    assert_eq!(
        summary.trials,
        count(&|k| matches!(k, EventKind::Trial { .. }))
    );
    assert_eq!(
        count(&|k| matches!(k, EventKind::Select { .. })),
        graph.task_count() as u64,
        "exactly one placement decision per task"
    );
    assert_eq!(
        summary.comm_transactions,
        count(&|k| matches!(k, EventKind::CommReserve { .. }))
    );
    assert!(
        summary.cache_hits <= summary.trials,
        "cache hits are a subset of trials"
    );
    assert!(
        summary.stage_micros.is_empty(),
        "logical-only traces carry no wall-clock durations"
    );
}

#[test]
fn annealing_runs_trace_the_refinement_chains() {
    let platform = platform();
    let graph = workload(5, 16);
    let scheduler = AnnealScheduler::default();
    let mut sink = BufferSink::new();
    let traced = scheduler
        .schedule_traced(&graph, &platform, &ComputeBudget::unlimited(), &mut sink)
        .expect("schedules");
    let plain = scheduler.schedule(&graph, &platform).expect("schedules");
    assert_eq!(
        traced.schedule, plain.schedule,
        "tracing must not perturb the annealer"
    );
    let chrome = to_chrome_trace(sink.events());
    assert!(chrome.contains("\"anneal\""), "anneal span present");
    assert!(
        sink.events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::AnnealChain { .. })),
        "per-chain events present"
    );
}

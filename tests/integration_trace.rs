//! Trace determinism tests: the JSONL event stream is byte-identical
//! from run to run and pinned for the default annealer, the exporters
//! carry every pipeline stage, the summary's counters agree with the
//! raw events, and a `SummarySink` folds the same summary a buffered
//! trace yields.

use std::time::Instant;

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

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs the default annealer (the configuration `noceas --scheduler
/// anneal` and the service run) traced into a logical-timestamp buffer
/// and returns the JSONL export.
fn default_anneal_jsonl(graph: &TaskGraph, platform: &Platform) -> String {
    let mut sink = BufferSink::new();
    AnnealScheduler::default()
        .schedule_traced(graph, platform, &ComputeBudget::unlimited(), &mut sink)
        .expect("schedules");
    to_jsonl(sink.events())
}

/// Every scheduler runs serially and the annealer as one chain, so no
/// setting can make its trace depend on a thread count: two runs of a
/// default anneal stream the same bytes.
#[test]
fn jsonl_streams_are_identical_for_every_thread_count() {
    let platform = platform();
    for seed in [7, 42, 1999] {
        let graph = workload(seed, 24);
        let first = default_anneal_jsonl(&graph, &platform);
        assert_eq!(
            first,
            default_anneal_jsonl(&graph, &platform),
            "seed {seed}: two runs trace different streams"
        );
        assert!(
            first.lines().count() > graph.task_count(),
            "seed {seed}: the trace narrates at least one event per task"
        );
    }
}

/// The default annealer's trace, byte for byte: a change to its RNG
/// stream, its move order or the event encoding changes this digest.
#[test]
fn default_anneal_trace_matches_its_pinned_digest() {
    let platform = platform();
    let jsonl = default_anneal_jsonl(&workload(7, 24), &platform);
    assert_eq!(fnv1a(jsonl.as_bytes()), 0x13e5_9661_ef84_c252);
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

/// Feeds every event to a [`SummarySink`] and to a wall-clock
/// [`BufferSink`], so both observe one run.
struct Tee {
    fold: SummarySink,
    buffer: BufferSink,
}

impl TraceSink for Tee {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, kind: EventKind) {
        self.fold.record(kind.clone());
        self.buffer.record(kind);
    }
}

/// Traces `run` into a [`Tee`] and checks the fold against the buffer:
/// every counter equals [`TraceSummary::from_events`], `events` counts
/// every recorded event, the stages are the top-level spans in the
/// order the raw stream first closes them, and no stage took longer
/// than the whole run. Returns the folded summary.
fn fold_matches_buffer(what: &str, run: impl FnOnce(&mut Tee)) -> TraceSummary {
    let started = Instant::now();
    let mut tee = Tee {
        fold: SummarySink::new(),
        buffer: BufferSink::with_wall_clock(),
    };
    run(&mut tee);
    let wall_us = u64::try_from(started.elapsed().as_micros()).expect("fits");
    let folded = tee.fold.into_summary();
    let events = tee.buffer.events();

    let masked = |s: &TraceSummary| TraceSummary {
        stage_micros: s.stage_micros.iter().map(|(n, _)| (n.clone(), 0)).collect(),
        ..s.clone()
    };
    assert_eq!(
        masked(&folded),
        masked(&TraceSummary::from_events(events)),
        "{what}: the fold disagrees with the buffered trace"
    );
    assert_eq!(folded.events, events.len(), "{what}: every event counts");
    let mut stages: Vec<&str> = Vec::new();
    for event in events {
        if let EventKind::SpanEnd { name } = &event.kind {
            if !name.contains(':') && !stages.contains(&name.as_str()) {
                stages.push(name);
            }
        }
    }
    let folded_stages: Vec<&str> = folded
        .stage_micros
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    assert_eq!(
        folded_stages, stages,
        "{what}: every stage is timed, in order"
    );
    for (stage, micros) in &folded.stage_micros {
        assert!(
            *micros <= wall_us,
            "{what}: {stage} took {micros} us of a {wall_us} us run"
        );
    }
    folded
}

#[test]
fn summary_sink_folds_what_the_buffer_records() {
    let budget = ComputeBudget::unlimited();
    let mut total = TraceSummary::default();
    let mut stages: Vec<String> = Vec::new();
    for faults in [None, Some("tile:5")] {
        let mut builder = Platform::builder()
            .topology(TopologySpec::mesh(4, 4))
            .pe_mix(PeCatalog::date04().cycle_mix());
        if let Some(spec) = faults {
            builder = builder.faults(FaultSet::parse(spec).expect("fault spec parses"));
        }
        let platform = builder.build().expect("mesh builds");
        // Tight deadlines, so both selection rules and repair fire.
        let mut cfg = TgffConfig::small(17);
        cfg.task_count = 40;
        cfg.deadline_laxity = 0.8;
        let graph = TgffGenerator::new(cfg)
            .generate(&platform)
            .expect("generates");

        let anneal = AnnealScheduler::new(AnnealConfig {
            iterations: 400,
            ..AnnealConfig::default()
        });
        let schedulers: [(&str, &dyn Scheduler); 3] = [
            ("eas", &EasScheduler::full()),
            ("eas-base", &EasScheduler::base()),
            ("anneal", &anneal),
        ];
        let mut runs = Vec::new();
        for (name, scheduler) in schedulers {
            runs.push(fold_matches_buffer(&format!("{name} {faults:?}"), |tee| {
                scheduler
                    .schedule_traced(&graph, &platform, &budget, tee)
                    .expect("schedules");
            }));
        }

        let prior = EasScheduler::full()
            .schedule(&graph, &platform)
            .expect("schedules");
        let warm = vec![Edit::SetDeadline {
            task: 2,
            deadline: None,
        }];
        let storm: Vec<Edit> = (0..graph.task_count())
            .map(|task| Edit::SetDeadline {
                task: u32::try_from(task).expect("fits"),
                deadline: None,
            })
            .collect();
        for (name, edits) in [("warm start", warm), ("edit storm", storm)] {
            let applied = apply_edits(&graph, &edits).expect("edits apply");
            runs.push(fold_matches_buffer(&format!("{name} {faults:?}"), |tee| {
                repair_from_traced(&graph, &prior.schedule, &platform, &applied, &budget, tee)
                    .expect("repairs");
            }));
        }

        for run in runs {
            total.trials += run.trials;
            total.selects_urgency += run.selects_urgency;
            total.selects_regret += run.selects_regret;
            total.comm_transactions += run.comm_transactions;
            total.lts_moves += run.lts_moves;
            total.gtm_moves += run.gtm_moves;
            total.anneal_chains += run.anneal_chains;
            total.delta_warm += run.delta_warm;
            total.delta_fallback += run.delta_fallback;
            for (stage, _) in run.stage_micros {
                if !stages.contains(&stage) {
                    stages.push(stage);
                }
            }
        }
    }
    // The runs reach every counter and every stage the fold times.
    assert!(total.trials > 0 && total.comm_transactions > 0);
    assert!(total.selects_urgency > 0 && total.selects_regret > 0);
    assert!(total.lts_moves + total.gtm_moves > 0, "repair moved tasks");
    assert_eq!(total.anneal_chains, 2);
    assert_eq!((total.delta_warm, total.delta_fallback), (2, 2));
    stages.sort();
    assert_eq!(
        stages,
        ["anneal", "budgeting", "comm", "level", "repair", "validate"]
    );
}

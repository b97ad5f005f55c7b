//! The CLI subcommands, written against the library crates so every
//! command is unit-testable without spawning processes.

use std::fs;

use noc_ctg::prelude::*;
use noc_schedule::prelude::*;
use noc_sim::prelude::*;

use crate::args::Args;
use crate::spec::{parse_platform, parse_platform_faulted, parse_scheduler};

/// Usage text for `noceas help`.
const USAGE: &str = "\
noceas — energy-aware communication and task scheduling for NoCs (DATE'04 EAS)

USAGE:
  noceas generate --platform mesh:4x4 --out graph.json
                  [--seed N] [--tasks N] [--laxity F]
      Generate a TGFF-style random task graph for a platform.

  noceas benchmark --app av-encoder|av-decoder|av-integrated
                   [--clip akiyo|foreman|toybox] --out graph.json
  noceas benchmark --app ofdm-transceiver|packet-pipeline
                   [--load light|nominal|heavy] --out graph.json
      Emit one of the built-in benchmark graphs.

  noceas schedule --graph graph.json --platform mesh:4x4
                  [--scheduler eas|eas-base|edf|dls|anneal]
                  [--faults tile:4,link:1-2] [--budget-ms MS]
                  [--out schedule.json] [--vcd waves.vcd]
                  [--trace trace.json] [--trace-format chrome|jsonl]
                  [--gantt] [--links] [--csv] [--json]
      Schedule a task graph and report energy / deadline statistics.
      --trace records every pipeline decision (budgets, F(i,k) trials,
      PE selections, link reservations, repair moves, anneal chains)
      into FILE: `chrome` (default) writes Chrome trace-event JSON —
      open it in Perfetto or chrome://tracing for per-stage profiling —
      `jsonl` writes one event object per line with logical timestamps
      only, byte-identical on every run. Tracing never changes the
      schedule (see docs/OBSERVABILITY.md).
      --budget-ms bounds the scheduler to a wall-clock compute budget;
      an exhausted budget is a clean typed error (no partial schedule),
      so retry with a larger budget or a cheaper scheduler.
      --json replaces the human-readable summary with the same compact
      JSON body the HTTP service answers (one serialization of a
      schedule, byte-identical across surfaces). The --out and --vcd
      artifacts are still written; --gantt/--links/--csv render into
      the replaced summary and are rejected alongside --json.
      --faults masks permanently failed resources: dead PEs leave the
      candidate lists and routes detour around dead links
      (`tile:<id>`, `link:<a>-<b>` both ways, `link:<a>><b>` one way).

  noceas delta --graph prior_graph.json --schedule prior_schedule.json
               --platform mesh:4x4 --edits edits.json
               [--faults SPEC] [--budget-ms MS]
               [--out schedule.json] [--json] [--explain]
      Repair a previously computed schedule after a set of typed edits
      (tasks added/removed, costs or deadlines changed, edge volumes
      changed, PEs or links failed/restored) instead of rescheduling
      from scratch. --edits is a JSON array of edit objects, e.g.
      [{\"SetDeadline\":{\"task\":3,\"deadline\":900}},{\"FailPe\":{\"pe\":2}}];
      task/PE indices always refer to the *prior* graph and platform.
      The warm start masks only the affected region and re-runs search
      & repair; when the edits invalidate the warm start the command
      falls back to a full reschedule and says so (see docs/DELTA.md).
      --json prints the exact POST /v1/schedule/delta response body;
      --explain narrates why the warm start was or wasn't used.

  noceas validate --graph graph.json --schedule schedule.json --platform mesh:4x4
                  [--faults SPEC] [--json]
      Re-check a schedule against all Def. 3/4, dependency and deadline
      constraints (on the fault-masked platform when --faults is given).
      --json prints the service's validation body; structural
      violations then report {\"valid\":false,...} with exit code 0.

  noceas serve [--addr 127.0.0.1:8533] [--http-workers N]
               [--sched-workers N] [--queue N] [--cache N]
               [--budget-ms MS] [--journal PATH] [--store-dir DIR]
               [--store-segment-bytes N]
               [--peers ADDR,ADDR,...] [--self-addr ADDR]
               [--peer-timeout-ms MS] [--probe-ms MS] [--anti-entropy-ms MS]
               [--flight-recorder-entries N] [--slow-ms MS] [--log-json PATH]
      Run the scheduling service: POST /v1/schedule, POST /v1/validate,
      GET /v1/jobs/<id>, GET /healthz, GET /metrics. --http-workers
      poll(2) event loops multiplex every connection, so tens of
      thousands of idle keep-alive clients cost no extra threads. The
      job queue is bounded at --queue entries (429 + Retry-After past
      it) and responses are cached content-addressed in --cache
      entries.
      --budget-ms bounds each request's scheduler; past the budget the
      service answers the degraded energy-blind EDF fallback, marked
      \"degraded\":true plus a Degraded-Mode header, instead of a 500.
      --journal write-ahead-logs accepted async jobs to PATH; after a
      crash (even kill -9) the restarted server replays the journal,
      re-runs unfinished jobs and answers byte-identically.
      --store-dir persists every response to a checksummed segment log
      in DIR: restarts answer repeat requests byte-identically from
      disk with zero recomputes, corrupt records are quarantined, and
      any disk fault degrades the server to memory-only serving
      (Store-Degraded header + noc_svc_store_degraded metric) instead
      of failing requests. --store-segment-bytes caps a segment before
      rotation (default 8 MiB).
      --peers runs multi-node: requests hash onto a consistent-hash
      ring over the peer list, cache misses probe the owning peer
      before computing locally, done-records replicate to the ring
      successor for failover, and every node answers byte-identically
      (see docs/CLUSTER.md). --self-addr sets this node's ring
      identity when it differs from --addr (e.g. behind NAT). A
      per-peer failure detector marks peers Down after consecutive
      failures so lookups and replication skip them in O(1);
      --peer-timeout-ms bounds each internal peer operation (default
      1000), --probe-ms sets the Down-peer re-probe backoff base
      (default 250, doubling to 16x), and --anti-entropy-ms sets the
      digest-exchange sweep period that re-replicates records a
      recovered peer missed (default 2000; 0 disables the sweep).
      Every request is traced: the response carries an X-Noc-Trace id
      whose per-hop spans land in a bounded per-node flight recorder
      (--flight-recorder-entries spans, default 4096, 0 disables);
      requests at or past --slow-ms (default 250) snapshot their span
      tree into GET /v1/internal/slow. --log-json appends structured
      JSONL service events (admissions rejected, peers flipping
      Up/Down, store degradation, journal replay) to PATH instead of
      stderr. See docs/OBSERVABILITY.md.

  noceas cluster status --nodes ADDR,ADDR,...
      Fan out to every node: ring ownership share, failure-detector
      peer states and replication retry backlog, in one table.

  noceas cluster trace ID --nodes ADDR,ADDR,...
      Collect the flight-recorder spans for trace ID from every node
      and assemble the cross-node span tree (the ID comes from any
      response's X-Noc-Trace header). Fails when the tree is missing
      or has dangling parents.

  noceas cluster slow --nodes ADDR,ADDR,...
      Dump every node's slow-request ring, slowest first.

  noceas simulate --graph graph.json --schedule schedule.json --platform mesh:4x4
                  [--buffers N] [--hop-latency N] [--faults SPEC]
      Replay a schedule on the flit-level wormhole simulator.

  noceas explain --graph graph.json --platform mesh:4x4
                 [--scheduler eas|eas-base|edf|dls|anneal]
                 [--faults SPEC] [--task N]
      Schedule the graph with tracing on and print a per-task narrative
      of every decision: why each task got its PE (urgency vs. energy
      regret), where transfers stalled on link contention, and which
      repair moves recovered deadlines. --task N narrows the story to
      one task index.

  noceas dot --graph graph.json
      Print the task graph in Graphviz DOT syntax.

  noceas info --graph graph.json [--bandwidth BITS_PER_TICK]
      Print shape/load statistics of a task graph (depth, width, CCR).

  noceas import --tgff file.tgff --platform mesh:4x4 --out graph.json
      Import a TGFF-format task graph (see noc_ctg::tgff_parse for the
      accepted subset), deriving per-PE costs from its @PE tables.

  noceas help
      Show this text.
";

/// Runs one parsed command, returning the text to print.
///
/// # Errors
///
/// Every user-facing failure (bad spec, missing file, invalid schedule)
/// is returned as a message; the binary maps it to exit code 1.
pub fn run(args: &Args) -> Result<String, String> {
    // Only `cluster` takes free-standing verbs; everywhere else a
    // stray positional is a mistake worth rejecting loudly.
    if args.command != "cluster" {
        if let Some(stray) = args.positionals.first() {
            return Err(format!("unexpected positional argument `{stray}`"));
        }
    }
    match args.command.as_str() {
        "generate" => generate(args),
        "cluster" => cluster_cmd(args),
        "benchmark" => benchmark(args),
        "schedule" => schedule(args),
        "delta" => delta_cmd(args),
        "validate" => validate_cmd(args),
        "simulate" => simulate(args),
        "explain" => explain_cmd(args),
        "serve" => serve(args),
        "dot" => dot(args),
        "info" => info(args),
        "import" => import(args),
        "help" | "--help" | "-h" => {
            args.accept("help", "", "")?;
            Ok(USAGE.to_owned())
        }
        other => Err(format!("unknown subcommand `{other}`; try `noceas help`")),
    }
}

fn load_graph(path: &str) -> Result<TaskGraph, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn load_schedule(path: &str) -> Result<Schedule, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn save_json<T: serde::Serialize>(path: &str, value: &T) -> Result<(), String> {
    let json = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))
}

fn generate(args: &Args) -> Result<String, String> {
    args.accept("generate", "platform seed tasks laxity out", "")?;
    let platform = parse_platform(args.require("platform")?)?;
    let mut cfg = TgffConfig::category_i(args.get_num("seed", 0u64)?);
    cfg.task_count = args.get_num("tasks", 100usize)?;
    cfg.width = (cfg.task_count / 20).max(2);
    cfg.deadline_laxity = args.get_num("laxity", cfg.deadline_laxity)?;
    let graph = TgffGenerator::new(cfg)
        .generate(&platform)
        .map_err(|e| e.to_string())?;
    let out = args.require("out")?;
    save_json(out, &graph)?;
    Ok(format!(
        "wrote {} ({} tasks, {} arcs, {} PEs)\n",
        out,
        graph.task_count(),
        graph.edge_count(),
        graph.pe_count()
    ))
}

fn benchmark(args: &Args) -> Result<String, String> {
    args.accept("benchmark", "app load clip ratio out", "")?;
    // Extension apps take a --load profile instead of a --clip.
    if let Some(app) = match args.require("app")? {
        "ofdm-transceiver" => Some(noc_ctg::apps::ExtensionApp::OfdmTransceiver),
        "packet-pipeline" => Some(noc_ctg::apps::ExtensionApp::PacketPipeline),
        _ => None,
    } {
        let load = match args.get_or("load", "nominal") {
            "light" => noc_ctg::apps::Load::Light,
            "nominal" => noc_ctg::apps::Load::Nominal,
            "heavy" => noc_ctg::apps::Load::Heavy,
            other => return Err(format!("unknown load `{other}`")),
        };
        let (cols, rows) = app.recommended_mesh();
        let platform = parse_platform(&format!("mesh:{cols}x{rows}"))?;
        let graph = app.build(load, &platform).map_err(|e| e.to_string())?;
        let out = args.require("out")?;
        save_json(out, &graph)?;
        return Ok(format!(
            "wrote {} ({} on {cols}x{rows}, load {load})\n",
            out,
            app.name()
        ));
    }
    let app = match args.require("app")? {
        "av-encoder" => MultimediaApp::AvEncoder,
        "av-decoder" => MultimediaApp::AvDecoder,
        "av-integrated" => MultimediaApp::AvIntegrated,
        other => return Err(format!("unknown app `{other}`")),
    };
    let clip = match args.get_or("clip", "foreman") {
        "akiyo" => Clip::Akiyo,
        "foreman" => Clip::Foreman,
        "toybox" => Clip::Toybox,
        other => return Err(format!("unknown clip `{other}`")),
    };
    let (cols, rows) = app.recommended_mesh();
    let platform = parse_platform(&format!("mesh:{cols}x{rows}"))?;
    let ratio = args.get_num("ratio", 1.0f64)?;
    let graph = app
        .build_with_performance_ratio(clip, &platform, ratio)
        .map_err(|e| e.to_string())?;
    let out = args.require("out")?;
    save_json(out, &graph)?;
    Ok(format!(
        "wrote {} ({} on {cols}x{rows}, clip {clip}, ratio {ratio})\n",
        out,
        app.name()
    ))
}

fn schedule(args: &Args) -> Result<String, String> {
    args.accept(
        "schedule",
        "graph platform scheduler faults budget-ms out vcd trace trace-format",
        "gantt links csv json",
    )?;
    let platform = parse_platform_faulted(args.require("platform")?, args.get("faults"))?;
    let graph = load_graph(args.require("graph")?)?;
    let scheduler = parse_scheduler(args.get_or("scheduler", "eas"), 1)?;
    let trace_format = args.get_or("trace-format", "chrome");
    if !matches!(trace_format, "chrome" | "jsonl") {
        return Err(format!(
            "unknown --trace-format `{trace_format}` (expected chrome or jsonl)"
        ));
    }
    let trace_path = args.get("trace");
    if trace_path.is_none() && args.get("trace-format").is_some() {
        return Err("--trace-format requires --trace FILE".into());
    }
    let budget = match args.get("budget-ms") {
        None => noc_eas::prelude::ComputeBudget::unlimited(),
        Some(text) => {
            let ms: u64 = text
                .parse()
                .map_err(|_| format!("bad --budget-ms `{text}` (milliseconds)"))?;
            noc_eas::prelude::ComputeBudget::wall_clock(std::time::Duration::from_millis(ms))
        }
    };
    let (outcome, trace_file) = match trace_path {
        None => (
            scheduler
                .schedule_traced(&graph, &platform, &budget, &mut noc_eas::trace::NullSink)
                .map_err(|e| e.to_string())?,
            None,
        ),
        Some(path) => {
            // Chrome traces carry wall-clock spans for profiling; JSONL
            // keeps logical timestamps only, so its bytes are
            // deterministic.
            let mut sink = if trace_format == "chrome" {
                noc_eas::trace::BufferSink::with_wall_clock()
            } else {
                noc_eas::trace::BufferSink::new()
            };
            let outcome = scheduler
                .schedule_traced(&graph, &platform, &budget, &mut sink)
                .map_err(|e| e.to_string())?;
            let events = sink.into_events();
            let text = if trace_format == "chrome" {
                noc_eas::trace::to_chrome_trace(&events)
            } else {
                noc_eas::trace::to_jsonl(&events)
            };
            fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            (outcome, Some(path))
        }
    };

    if args.has_flag("json") {
        // --gantt/--links/--csv render into the human-readable summary
        // that --json replaces; refuse the combination instead of
        // silently dropping them.
        for flag in ["gantt", "links", "csv"] {
            if args.has_flag(flag) {
                return Err(format!(
                    "--{flag} renders the human-readable summary and cannot be combined with --json"
                ));
            }
        }
        // The exact body the HTTP service answers: one serialization of
        // a schedule, shared via noc_svc::api. --vcd and --out produce
        // file artifacts, so both still apply.
        let response = noc_svc::api::ScheduleResponse::from_outcome(scheduler.name(), &outcome);
        if let Some(path) = args.get("vcd") {
            fs::write(
                path,
                noc_schedule::vcd::to_vcd(&outcome.schedule, &graph, &platform),
            )
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        if let Some(path) = args.get("out") {
            save_json(path, &outcome.schedule)?;
        }
        return Ok(format!("{}\n", response.to_json()));
    }

    let mut out = String::new();
    if !platform.faults().is_empty() {
        out.push_str(&format!(
            "faults masked: {} ({} tiles, {} links dead)\n",
            platform.faults(),
            platform.faults().failed_tiles().len(),
            platform.faults().failed_links().len(),
        ));
    }
    out.push_str(&format!(
        "{}: {} | deadlines {} ({} misses)\n",
        scheduler.name(),
        outcome.stats,
        if outcome.report.meets_deadlines() {
            "met"
        } else {
            "MISSED"
        },
        outcome.report.deadline_misses.len(),
    ));
    if args.has_flag("gantt") {
        out.push('\n');
        out.push_str(&render_gantt(&outcome.schedule, &graph, &platform, 100));
    }
    if args.has_flag("links") {
        out.push('\n');
        out.push_str(&render_link_occupancy(
            &outcome.schedule,
            &graph,
            &platform,
            10,
        ));
    }
    if args.has_flag("csv") {
        out.push('\n');
        out.push_str(&tasks_to_csv(&outcome.schedule, &graph));
        out.push('\n');
        out.push_str(&comms_to_csv(&outcome.schedule, &graph));
    }
    if let Some(path) = args.get("vcd") {
        fs::write(
            path,
            noc_schedule::vcd::to_vcd(&outcome.schedule, &graph, &platform),
        )
        .map_err(|e| format!("cannot write {path}: {e}"))?;
        out.push_str(&format!("wrote {path}\n"));
    }
    if let Some(path) = args.get("out") {
        save_json(path, &outcome.schedule)?;
        out.push_str(&format!("wrote {path}\n"));
    }
    if let Some(path) = trace_file {
        out.push_str(&format!("wrote {path} ({trace_format})\n"));
    }
    Ok(out)
}

fn explain_cmd(args: &Args) -> Result<String, String> {
    args.accept("explain", "graph platform scheduler faults task", "")?;
    let platform = parse_platform_faulted(args.require("platform")?, args.get("faults"))?;
    let graph = load_graph(args.require("graph")?)?;
    let scheduler = parse_scheduler(args.get_or("scheduler", "eas"), 1)?;
    let task: Option<usize> = match args.get("task") {
        None => None,
        Some(text) => {
            let t: usize = text
                .parse()
                .map_err(|_| format!("bad --task `{text}` (task index)"))?;
            if t >= graph.task_count() {
                return Err(format!(
                    "--task {t} out of range (graph has {} tasks)",
                    graph.task_count()
                ));
            }
            Some(t)
        }
    };
    let mut sink = noc_eas::trace::BufferSink::new();
    let outcome = scheduler
        .schedule_traced(
            &graph,
            &platform,
            &noc_eas::prelude::ComputeBudget::unlimited(),
            &mut sink,
        )
        .map_err(|e| e.to_string())?;
    let mut out = noc_eas::trace::explain(sink.events(), task);
    out.push_str(&format!(
        "result: {}: {} | deadlines {} ({} misses)\n",
        scheduler.name(),
        outcome.stats,
        if outcome.report.meets_deadlines() {
            "met"
        } else {
            "MISSED"
        },
        outcome.report.deadline_misses.len(),
    ));
    Ok(out)
}

fn delta_cmd(args: &Args) -> Result<String, String> {
    use noc_eas::prelude::{apply_edits, apply_platform_edits, repair_from_traced, Edit};
    args.accept(
        "delta",
        "graph schedule platform edits faults budget-ms out",
        "json explain",
    )?;
    let base_platform = parse_platform_faulted(args.require("platform")?, args.get("faults"))?;
    let prior_graph = load_graph(args.require("graph")?)?;
    let prior_schedule = load_schedule(args.require("schedule")?)?;
    let edits_path = args.require("edits")?;
    let edits_text =
        fs::read_to_string(edits_path).map_err(|e| format!("cannot read {edits_path}: {e}"))?;
    let edits: Vec<Edit> =
        serde_json::from_str(&edits_text).map_err(|e| format!("cannot parse {edits_path}: {e}"))?;
    let budget = match args.get("budget-ms") {
        None => noc_eas::prelude::ComputeBudget::unlimited(),
        Some(text) => {
            let ms: u64 = text
                .parse()
                .map_err(|_| format!("bad --budget-ms `{text}` (milliseconds)"))?;
            noc_eas::prelude::ComputeBudget::wall_clock(std::time::Duration::from_millis(ms))
        }
    };
    let applied = apply_edits(&prior_graph, &edits)?;
    let platform = apply_platform_edits(&base_platform, &applied.edits)?;
    let mut sink = noc_eas::trace::BufferSink::new();
    let delta = repair_from_traced(
        &prior_graph,
        &prior_schedule,
        &platform,
        &applied,
        &budget,
        &mut sink,
    )
    .map_err(|e| e.to_string())?;
    let outcome = &delta.outcome;

    if args.has_flag("json") {
        if args.has_flag("explain") {
            return Err(
                "--explain narrates the human-readable summary and cannot be combined with --json"
                    .into(),
            );
        }
        let response = noc_svc::api::DeltaResponse {
            warm_start: delta.warm_start,
            reason: delta.reason.to_owned(),
            edits: delta.edits,
            mask_tasks: delta.mask_tasks,
            result: noc_svc::api::ScheduleResponse::from_outcome("eas", outcome),
        };
        if let Some(path) = args.get("out") {
            save_json(path, &outcome.schedule)?;
        }
        return Ok(format!("{}\n", response.to_json()));
    }

    let mut out = String::new();
    if delta.warm_start {
        out.push_str(&format!(
            "warm start: prior schedule rebased and repaired — {} edits touching {} tasks\n",
            delta.edits, delta.mask_tasks
        ));
    } else {
        out.push_str(&format!(
            "full reschedule: warm start rejected ({}) — {} edits\n",
            delta.reason, delta.edits
        ));
    }
    out.push_str(&format!(
        "eas: {} | deadlines {} ({} misses)\n",
        outcome.stats,
        if outcome.report.meets_deadlines() {
            "met"
        } else {
            "MISSED"
        },
        outcome.report.deadline_misses.len(),
    ));
    if args.has_flag("explain") {
        out.push('\n');
        out.push_str(&noc_eas::trace::explain(sink.events(), None));
    }
    if let Some(path) = args.get("out") {
        save_json(path, &outcome.schedule)?;
        out.push_str(&format!("wrote {path}\n"));
    }
    Ok(out)
}

fn validate_cmd(args: &Args) -> Result<String, String> {
    args.accept("validate", "graph schedule platform faults", "json")?;
    let platform = parse_platform_faulted(args.require("platform")?, args.get("faults"))?;
    let graph = load_graph(args.require("graph")?)?;
    let schedule = load_schedule(args.require("schedule")?)?;
    if args.has_flag("json") {
        // Mirror the service: structural violations are a successful
        // validation answering {"valid":false,...}.
        let response = match validate(&schedule, &graph, &platform) {
            Ok(report) => noc_svc::api::ValidateResponse::ok(&report),
            Err(e) => noc_svc::api::ValidateResponse::invalid(e.to_string()),
        };
        return Ok(format!("{}\n", response.to_json()));
    }
    let report = validate(&schedule, &graph, &platform).map_err(|e| e.to_string())?;
    Ok(format!("schedule is structurally valid: {report}\n"))
}

fn serve(args: &Args) -> Result<String, String> {
    args.accept(
        "serve",
        "addr http-workers sched-workers queue cache budget-ms journal \
         store-dir store-segment-bytes peers self-addr peer-timeout-ms probe-ms \
         anti-entropy-ms flight-recorder-entries slow-ms log-json",
        "",
    )?;
    let peers = match args.get("peers") {
        None => Vec::new(),
        Some(list) => list
            .split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .map(str::to_owned)
            .collect(),
    };
    let config = noc_svc::ServiceConfig {
        addr: args.get_or("addr", "127.0.0.1:8533").to_owned(),
        peers,
        self_addr: args.get("self-addr").map(str::to_owned),
        http_workers: args.get_num("http-workers", 4usize)?,
        sched_workers: args.get_num("sched-workers", 2usize)?,
        queue_capacity: args.get_num("queue", 64usize)?,
        cache_capacity: args.get_num("cache", 1024usize)?,
        budget_ms: match args.get("budget-ms") {
            None => None,
            Some(text) => Some(
                text.parse()
                    .map_err(|_| format!("bad --budget-ms `{text}` (milliseconds)"))?,
            ),
        },
        journal: args.get("journal").map(str::to_owned),
        store_dir: args.get("store-dir").map(str::to_owned),
        store_segment_bytes: args
            .get_num("store-segment-bytes", noc_svc::store::DEFAULT_SEGMENT_BYTES)?,
        peer_timeout: std::time::Duration::from_millis(
            args.get_num("peer-timeout-ms", 1000u64)?.max(1),
        ),
        probe_interval: std::time::Duration::from_millis(args.get_num("probe-ms", 250u64)?.max(1)),
        anti_entropy_interval: std::time::Duration::from_millis(
            args.get_num("anti-entropy-ms", 2000u64)?,
        ),
        flight_recorder_entries: args.get_num("flight-recorder-entries", 4096usize)?,
        slow_ms: args.get_num("slow-ms", 250u64)?,
        log_json: args.get("log-json").map(str::to_owned),
        ..noc_svc::ServiceConfig::default()
    };
    let server = noc_svc::Server::start(config).map_err(|e| e.to_string())?;
    // Announce readiness eagerly: wait() blocks until the process is
    // signalled, so this line must not wait for run() to return.
    println!("noc-svc listening on http://{}", server.addr());
    server.wait();
    Ok(String::new())
}

fn simulate(args: &Args) -> Result<String, String> {
    args.accept(
        "simulate",
        "graph schedule platform faults buffers hop-latency",
        "",
    )?;
    let platform = parse_platform_faulted(args.require("platform")?, args.get("faults"))?;
    let graph = load_graph(args.require("graph")?)?;
    let schedule = load_schedule(args.require("schedule")?)?;
    let config = SimConfig::new(
        platform.link_bandwidth().round() as u64,
        args.get_num("buffers", 2u64)?,
    )
    .with_hop_latency(args.get_num("hop-latency", 0u64)?);
    let trace = ScheduleExecutor::new(&graph, &platform, config)
        .execute(&schedule)
        .map_err(|e| e.to_string())?;
    let worst = trace
        .slippage_vs(&schedule)
        .into_iter()
        .max()
        .unwrap_or(noc_platform::units::Time::ZERO);
    Ok(format!(
        "dynamic makespan {} (static {}), worst slip {} ticks, dynamic misses {}\n",
        trace.makespan,
        schedule.makespan(),
        worst,
        trace.deadline_misses.len()
    ))
}

fn dot(args: &Args) -> Result<String, String> {
    args.accept("dot", "graph", "")?;
    let graph = load_graph(args.require("graph")?)?;
    Ok(noc_ctg::dot::to_dot(&graph))
}

fn import(args: &Args) -> Result<String, String> {
    args.accept("import", "tgff platform out", "")?;
    let platform = parse_platform(args.require("platform")?)?;
    let path = args.require("tgff")?;
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let file = noc_ctg::tgff_parse::TgffFile::parse(&text).map_err(|e| e.to_string())?;
    let graph = file.into_task_graph(&platform).map_err(|e| e.to_string())?;
    let out = args.require("out")?;
    save_json(out, &graph)?;
    Ok(format!(
        "imported {path}: {} tasks, {} arcs -> {out}\n",
        graph.task_count(),
        graph.edge_count()
    ))
}

/// How many synthetic keys `cluster status` hashes onto the ring to
/// estimate each node's ownership share.
const RING_SAMPLE_KEYS: usize = 256;

/// `noceas cluster <status|trace|slow> --nodes a,b,c` — cluster-wide
/// introspection over the service's internal endpoints.
fn cluster_cmd(args: &Args) -> Result<String, String> {
    let verb = args
        .positionals
        .first()
        .map(String::as_str)
        .ok_or("cluster needs a verb: status, trace ID, or slow")?;
    match verb {
        "status" => {
            args.accept("cluster status", "nodes", "")?;
            expect_extra_positionals(args, 1)?;
            cluster_status(&cluster_nodes(args)?)
        }
        "trace" => {
            args.accept("cluster trace", "nodes", "")?;
            let id = args
                .positionals
                .get(1)
                .ok_or("cluster trace needs the trace id (from an X-Noc-Trace header)")?;
            expect_extra_positionals(args, 2)?;
            cluster_trace(&cluster_nodes(args)?, id)
        }
        "slow" => {
            args.accept("cluster slow", "nodes", "")?;
            expect_extra_positionals(args, 1)?;
            cluster_slow(&cluster_nodes(args)?)
        }
        other => Err(format!(
            "unknown cluster verb `{other}` (expected status, trace or slow)"
        )),
    }
}

/// The `--nodes` address list every cluster verb fans out to.
fn cluster_nodes(args: &Args) -> Result<Vec<String>, String> {
    let nodes: Vec<String> = args
        .require("nodes")?
        .split(',')
        .map(str::trim)
        .filter(|n| !n.is_empty())
        .map(str::to_owned)
        .collect();
    if nodes.is_empty() {
        return Err("--nodes lists no addresses".into());
    }
    Ok(nodes)
}

fn expect_extra_positionals(args: &Args, used: usize) -> Result<(), String> {
    match args.positionals.get(used) {
        Some(stray) => Err(format!("unexpected positional argument `{stray}`")),
        None => Ok(()),
    }
}

/// A short-timeout client for one node, or the connect error text.
fn node_client(node: &str) -> Result<noc_svc::client::Client, String> {
    use std::net::ToSocketAddrs;
    let addr = node
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve `{node}`: {e}"))?
        .next()
        .ok_or_else(|| format!("`{node}` resolves to no address"))?;
    Ok(noc_svc::client::Client::with_timeout(
        addr,
        std::time::Duration::from_secs(5),
    ))
}

fn cluster_status(nodes: &[String]) -> Result<String, String> {
    // Ownership share: hash a fixed synthetic key set onto the same
    // consistent-hash ring the service builds from this node list.
    let ring = noc_svc::cluster::Ring::new(nodes.to_vec());
    let mut owned: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for i in 0..RING_SAMPLE_KEYS {
        let hash = noc_svc::hash::content_hash(&format!("ring-sample-{i}"));
        *owned.entry(ring.owner(&hash)).or_default() += 1;
    }
    let mut out = format!("cluster status ({} nodes)\n\n", nodes.len());
    let mut unreachable = 0usize;
    for node in nodes {
        let share = owned.get(node.as_str()).copied().unwrap_or(0);
        out.push_str(&format!(
            "node {node} — ring share {share}/{RING_SAMPLE_KEYS} ({:.1}%)\n",
            share as f64 * 100.0 / RING_SAMPLE_KEYS as f64
        ));
        let body = node_client(node).and_then(|mut c| {
            c.get("/v1/internal/health")
                .map_err(|e| format!("GET /v1/internal/health failed: {e}"))
        });
        match body {
            Err(e) => {
                unreachable += 1;
                out.push_str(&format!("  UNREACHABLE: {e}\n"));
            }
            Ok(resp) if resp.status != 200 => {
                unreachable += 1;
                out.push_str(&format!("  health endpoint answered {}\n", resp.status));
            }
            Ok(resp) => match render_health_table(&resp.body) {
                Ok(table) => out.push_str(&table),
                Err(e) => out.push_str(&format!("  unparseable health body: {e}\n")),
            },
        }
    }
    out.push_str(&format!(
        "\n{}/{} nodes reachable\n",
        nodes.len() - unreachable,
        nodes.len()
    ));
    if unreachable == nodes.len() {
        return Err(format!("no node reachable:\n{out}"));
    }
    Ok(out)
}

/// The value as a non-negative integer, if it is a number.
fn value_u64(v: &serde_json::Value) -> Option<u64> {
    match v {
        serde_json::Value::Number(n) => n.as_u64(),
        _ => None,
    }
}

/// Renders one node's `/v1/internal/health` body (parsed as a generic
/// JSON value — the `self` field name is a Rust keyword, so no derive).
fn render_health_table(body: &str) -> Result<String, String> {
    let value: serde_json::Value = serde_json::from_str(body).map_err(|e| e.to_string())?;
    let obj = value.as_object().ok_or("health body is not an object")?;
    let mut out = String::new();
    if let Some(me) = obj.get("self").and_then(serde_json::Value::as_str) {
        out.push_str(&format!("  ring identity: {me}\n"));
    }
    let peers = obj
        .get("peers")
        .and_then(serde_json::Value::as_array)
        .ok_or("health body has no peers array")?;
    if peers.is_empty() {
        out.push_str("  peers: none (single-node)\n");
    }
    for peer in peers {
        let peer = peer.as_object().ok_or("peer entry is not an object")?;
        let name = peer
            .get("peer")
            .and_then(serde_json::Value::as_str)
            .unwrap_or("?");
        let state = peer
            .get("state")
            .and_then(serde_json::Value::as_str)
            .unwrap_or("?");
        let fails = peer
            .get("consecutive_failures")
            .and_then(value_u64)
            .unwrap_or(0);
        let backlog = peer.get("retry_queue").and_then(value_u64).unwrap_or(0);
        out.push_str(&format!(
            "  peer {name}: {state} ({fails} consecutive failures, replication backlog {backlog})\n"
        ));
    }
    Ok(out)
}

fn cluster_trace(nodes: &[String], id: &str) -> Result<String, String> {
    let mut spans: Vec<noc_svc::obs::SpanWire> = Vec::new();
    let mut answered = 0usize;
    let mut errors: Vec<String> = Vec::new();
    for node in nodes {
        let resp = node_client(node).and_then(|mut c| {
            c.get(&format!("/v1/internal/trace/{id}"))
                .map_err(|e| format!("{node}: {e}"))
        });
        match resp {
            Err(e) => errors.push(e),
            Ok(resp) if resp.status == 404 => answered += 1, // no spans here
            Ok(resp) if resp.status != 200 => {
                errors.push(format!("{node}: trace endpoint answered {}", resp.status));
            }
            Ok(resp) => {
                answered += 1;
                let dump: noc_svc::obs::TraceDump = serde_json::from_str(&resp.body)
                    .map_err(|e| format!("{node}: unparseable trace body: {e}"))?;
                spans.extend(dump.spans);
            }
        }
    }
    if answered == 0 {
        return Err(format!(
            "no node answered for trace {id}: {}",
            errors.join("; ")
        ));
    }
    if spans.is_empty() {
        return Err(format!(
            "no spans recorded for trace {id} on any reachable node \
             (expired from the flight recorder, or the id is wrong)"
        ));
    }
    let contributing: std::collections::BTreeSet<&str> =
        spans.iter().map(|s| s.node.as_str()).collect();
    let mut out = format!(
        "trace {id} — {} spans across {} node{}\n\n",
        spans.len(),
        contributing.len(),
        if contributing.len() == 1 { "" } else { "s" }
    );
    let (tree, dangling) = render_span_tree(&spans);
    out.push_str(&tree);
    for e in &errors {
        out.push_str(&format!("\nwarning: {e}\n"));
    }
    if !dangling.is_empty() {
        return Err(format!(
            "{out}\ntrace {id} is disconnected: {} span(s) reference parents no node \
             recorded (in-flight hops, or ring-evicted spans)",
            dangling.len()
        ));
    }
    Ok(out)
}

/// Renders collected spans as an indented tree (children under their
/// parent, allocation order within a level). Returns the rendering and
/// the spans whose parent id no collected span carries.
fn render_span_tree(spans: &[noc_svc::obs::SpanWire]) -> (String, Vec<u64>) {
    use std::collections::{BTreeMap, HashSet};
    let known: HashSet<u64> = spans.iter().map(|s| s.span).collect();
    // parent span id -> children, ordered by span id (mint order).
    let mut children: BTreeMap<u64, Vec<&noc_svc::obs::SpanWire>> = BTreeMap::new();
    let mut roots: Vec<&noc_svc::obs::SpanWire> = Vec::new();
    let mut dangling: Vec<u64> = Vec::new();
    for span in spans {
        if span.parent_span == 0 {
            roots.push(span);
        } else if known.contains(&span.parent_span) {
            children.entry(span.parent_span).or_default().push(span);
        } else {
            dangling.push(span.span);
            roots.push(span); // still rendered, flagged below
        }
    }
    let mut out = String::new();
    let mut stack: Vec<(&noc_svc::obs::SpanWire, usize)> =
        roots.into_iter().rev().map(|s| (s, 0)).collect();
    while let Some((span, depth)) = stack.pop() {
        let missing_parent = span.parent_span != 0 && !known.contains(&span.parent_span);
        out.push_str(&format!(
            "{}{} {} [{}] {} µs{}\n",
            "  ".repeat(depth),
            span.node,
            span.stage,
            span.outcome,
            span.wall_us,
            if missing_parent {
                " (parent span missing)"
            } else {
                ""
            }
        ));
        if let Some(kids) = children.get(&span.span) {
            for kid in kids.iter().rev() {
                stack.push((kid, depth + 1));
            }
        }
    }
    (out, dangling)
}

fn cluster_slow(nodes: &[String]) -> Result<String, String> {
    let mut entries: Vec<noc_svc::obs::SlowWire> = Vec::new();
    let mut answered = 0usize;
    let mut errors: Vec<String> = Vec::new();
    for node in nodes {
        let resp = node_client(node).and_then(|mut c| {
            c.get("/v1/internal/slow")
                .map_err(|e| format!("{node}: {e}"))
        });
        match resp {
            Err(e) => errors.push(e),
            Ok(resp) if resp.status != 200 => {
                errors.push(format!("{node}: slow endpoint answered {}", resp.status));
            }
            Ok(resp) => {
                answered += 1;
                let dump: noc_svc::obs::SlowDump = serde_json::from_str(&resp.body)
                    .map_err(|e| format!("{node}: unparseable slow body: {e}"))?;
                entries.extend(dump.slow);
            }
        }
    }
    if answered == 0 {
        return Err(format!("no node reachable: {}", errors.join("; ")));
    }
    entries.sort_by_key(|e| std::cmp::Reverse(e.wall_us));
    let mut out = format!(
        "slow requests ({} entries from {answered} node{})\n\n",
        entries.len(),
        if answered == 1 { "" } else { "s" }
    );
    for e in &entries {
        out.push_str(&format!(
            "{} {} [{}] {} µs — trace {} ({} spans)\n",
            e.node,
            e.endpoint,
            e.outcome,
            e.wall_us,
            e.trace,
            e.spans.len()
        ));
    }
    for e in &errors {
        out.push_str(&format!("warning: {e}\n"));
    }
    Ok(out)
}

fn info(args: &Args) -> Result<String, String> {
    args.accept("info", "graph bandwidth", "")?;
    let graph = load_graph(args.require("graph")?)?;
    let bandwidth = args.get_num("bandwidth", 32.0f64)?;
    if bandwidth <= 0.0 {
        return Err("bandwidth must be positive".into());
    }
    let stats = noc_ctg::stats::GraphStats::compute(&graph, bandwidth);
    Ok(format!("{}\n{stats}\n", graph.name()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| (*s).to_owned())).expect("parses")
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("noceas-cli-tests");
        fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn generate_schedule_validate_simulate_round_trip() {
        let graph_path = tmp("g.json");
        let sched_path = tmp("s.json");
        let out = run(&args(&[
            "generate",
            "--platform",
            "mesh:2x2",
            "--tasks",
            "12",
            "--seed",
            "5",
            "--out",
            &graph_path,
        ]))
        .expect("generate");
        assert!(out.contains("12 tasks"));

        let out = run(&args(&[
            "schedule",
            "--graph",
            &graph_path,
            "--platform",
            "mesh:2x2",
            "--out",
            &sched_path,
            "--gantt",
        ]))
        .expect("schedule");
        assert!(out.contains("eas:"));
        assert!(out.contains("PE0"));

        let out = run(&args(&[
            "validate",
            "--graph",
            &graph_path,
            "--schedule",
            &sched_path,
            "--platform",
            "mesh:2x2",
        ]))
        .expect("validate");
        assert!(out.contains("structurally valid"));

        let out = run(&args(&[
            "simulate",
            "--graph",
            &graph_path,
            "--schedule",
            &sched_path,
            "--platform",
            "mesh:2x2",
        ]))
        .expect("simulate");
        assert!(out.contains("dynamic makespan"));
    }

    #[test]
    fn benchmark_and_dot() {
        let graph_path = tmp("enc.json");
        let out = run(&args(&[
            "benchmark",
            "--app",
            "av-encoder",
            "--clip",
            "akiyo",
            "--out",
            &graph_path,
        ]))
        .expect("benchmark");
        assert!(out.contains("av-encoder"));
        let dot = run(&args(&["dot", "--graph", &graph_path])).expect("dot");
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("motion_est"));
    }

    #[test]
    fn schedule_with_edf_and_csv() {
        let graph_path = tmp("g2.json");
        run(&args(&[
            "generate",
            "--platform",
            "mesh:2x2",
            "--tasks",
            "8",
            "--out",
            &graph_path,
        ]))
        .expect("generate");
        let out = run(&args(&[
            "schedule",
            "--graph",
            &graph_path,
            "--platform",
            "mesh:2x2",
            "--scheduler",
            "edf",
            "--csv",
        ]))
        .expect("schedule");
        assert!(out.contains("edf:"));
        assert!(out.contains("task,name,pe,start,finish,deadline"));
    }

    #[test]
    fn faulted_schedule_round_trip() {
        let graph_path = tmp("gf.json");
        let sched_path = tmp("sf.json");
        run(&args(&[
            "generate",
            "--platform",
            "mesh:2x2",
            "--tasks",
            "10",
            "--seed",
            "3",
            "--out",
            &graph_path,
        ]))
        .expect("generate");
        let out = run(&args(&[
            "schedule",
            "--graph",
            &graph_path,
            "--platform",
            "mesh:2x2",
            "--faults",
            "tile:3",
            "--out",
            &sched_path,
        ]))
        .expect("faulted schedule");
        assert!(out.contains("faults masked"));
        assert!(out.contains("1 tiles, 0 links dead"));
        // The produced schedule validates and simulates on the same
        // fault-masked platform.
        let out = run(&args(&[
            "validate",
            "--graph",
            &graph_path,
            "--schedule",
            &sched_path,
            "--platform",
            "mesh:2x2",
            "--faults",
            "tile:3",
        ]))
        .expect("faulted validate");
        assert!(out.contains("structurally valid"));
        let out = run(&args(&[
            "simulate",
            "--graph",
            &graph_path,
            "--schedule",
            &sched_path,
            "--platform",
            "mesh:2x2",
            "--faults",
            "tile:3",
        ]))
        .expect("faulted simulate");
        assert!(out.contains("dynamic makespan"));
        // Malformed fault specs surface a readable error.
        assert!(run(&args(&[
            "schedule",
            "--graph",
            &graph_path,
            "--platform",
            "mesh:2x2",
            "--faults",
            "tile:99",
        ]))
        .is_err());
    }

    #[test]
    fn helpful_errors() {
        assert!(run(&args(&["explode"]))
            .unwrap_err()
            .contains("unknown subcommand"));
        assert!(run(&args(&["schedule"]))
            .unwrap_err()
            .contains("missing required option"));
        assert!(
            run(&args(&["generate", "--platform", "blob:1x1", "--out", "x"]))
                .unwrap_err()
                .contains("unknown topology")
        );
        let missing = run(&args(&[
            "schedule",
            "--graph",
            "/nonexistent.json",
            "--platform",
            "mesh:2x2",
        ]))
        .unwrap_err();
        assert!(missing.contains("cannot read"));
    }

    #[test]
    fn help_text_lists_every_subcommand() {
        let help = run(&args(&["help"])).expect("help");
        for cmd in [
            "generate",
            "benchmark",
            "schedule",
            "delta",
            "validate",
            "simulate",
            "explain",
            "serve",
            "cluster status",
            "cluster trace",
            "cluster slow",
            "dot",
            "info",
        ] {
            assert!(help.contains(cmd), "help must mention {cmd}");
        }
    }

    #[test]
    fn stray_positionals_still_fail_outside_cluster() {
        let err = run(&args(&["schedule", "stray"])).unwrap_err();
        assert!(err.contains("unexpected positional argument `stray`"));
    }

    #[test]
    fn unknown_options_fail_before_any_work() {
        // The graph path does not exist: the typo must be reported
        // before any file is read.
        let err = run(&args(&[
            "schedule",
            "--graph",
            "/nonexistent/g.json",
            "--platform",
            "mesh:2x2",
            "--schedular",
            "edf",
        ]))
        .unwrap_err();
        assert!(
            err.contains("--schedular") && err.contains("noceas schedule"),
            "got {err}"
        );
        // `serve` would block forever once bound, and this port is
        // taken: an error naming the option proves nothing was bound.
        let taken = std::net::TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = taken.local_addr().expect("addr").to_string();
        let err = run(&args(&["serve", "--addr", &addr, "--net", "thread"])).unwrap_err();
        assert!(
            err.contains("unknown option --net for `noceas serve`"),
            "got {err}"
        );
        // Every scheduler runs serially: no command takes a thread
        // count.
        for command in ["schedule", "explain"] {
            let err = run(&args(&[
                command,
                "--graph",
                "/nonexistent/g.json",
                "--platform",
                "mesh:2x2",
                "--threads",
                "2",
            ]))
            .unwrap_err();
            assert!(
                err.contains(&format!("unknown option --threads for `noceas {command}`")),
                "got {err}"
            );
        }
        let err = run(&args(&["serve", "--addr", &addr, "--threads", "2"])).unwrap_err();
        assert!(
            err.contains("unknown option --threads for `noceas serve`"),
            "got {err}"
        );
        let err = run(&args(&[
            "cluster",
            "status",
            "--nodes",
            "127.0.0.1:9",
            "--verbose",
        ]))
        .unwrap_err();
        assert!(err.contains("noceas cluster status"), "got {err}");
    }

    #[test]
    fn cluster_verbs_validate_their_arguments() {
        assert!(run(&args(&["cluster"]))
            .unwrap_err()
            .contains("needs a verb"));
        assert!(run(&args(&["cluster", "status"]))
            .unwrap_err()
            .contains("--nodes"));
        assert!(run(&args(&["cluster", "reboot", "--nodes", "127.0.0.1:1"]))
            .unwrap_err()
            .contains("unknown cluster verb"));
        assert!(run(&args(&["cluster", "trace", "--nodes", "127.0.0.1:1"]))
            .unwrap_err()
            .contains("trace id"));
        assert!(run(&args(&[
            "cluster",
            "status",
            "extra",
            "--nodes",
            "127.0.0.1:1"
        ]))
        .unwrap_err()
        .contains("unexpected positional"));
        // An unreachable node set fails with the connection story, not
        // a panic (port 9 on loopback answers nothing).
        let err = run(&args(&["cluster", "slow", "--nodes", "127.0.0.1:9"])).unwrap_err();
        assert!(err.contains("no node reachable"), "got {err}");
    }

    #[test]
    fn cluster_span_tree_renders_and_flags_dangling_parents() {
        let span = |node: &str, span, parent, stage: &str, outcome: &str| noc_svc::obs::SpanWire {
            trace: "aa".repeat(16),
            node: node.to_owned(),
            span,
            parent_span: parent,
            stage: stage.to_owned(),
            wall_us: 10,
            outcome: outcome.to_owned(),
        };
        let spans = vec![
            span("n1", 1, 0, "/v1/schedule", "peer"),
            span("n1", 2, 1, "peer_fill", "hit"),
            span("n2", 3, 2, "/v1/internal/lookup", "ok"),
        ];
        let (tree, dangling) = render_span_tree(&spans);
        assert!(dangling.is_empty());
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("n1 /v1/schedule"));
        assert!(lines[1].starts_with("  n1 peer_fill"));
        assert!(lines[2].starts_with("    n2 /v1/internal/lookup"));

        let broken = vec![
            span("n1", 1, 0, "/v1/schedule", "miss"),
            span("n2", 5, 99, "/v1/internal/record", "ok"),
        ];
        let (tree, dangling) = render_span_tree(&broken);
        assert_eq!(dangling, vec![5]);
        assert!(tree.contains("(parent span missing)"));
    }

    #[test]
    fn schedule_and_validate_json_emit_the_service_body() {
        let graph_path = tmp("gj.json");
        let sched_path = tmp("sj.json");
        run(&args(&[
            "generate",
            "--platform",
            "mesh:2x2",
            "--tasks",
            "10",
            "--seed",
            "2",
            "--out",
            &graph_path,
        ]))
        .expect("generate");
        let out = run(&args(&[
            "schedule",
            "--graph",
            &graph_path,
            "--platform",
            "mesh:2x2",
            "--json",
            "--out",
            &sched_path,
        ]))
        .expect("schedule");
        let resp: noc_svc::api::ScheduleResponse =
            serde_json::from_str(out.trim()).expect("parses as the service body");
        assert_eq!(resp.scheduler, "eas");
        assert_eq!(
            format!("{}\n", resp.to_json()),
            out,
            "CLI --json is the service serialization, byte for byte"
        );

        let out = run(&args(&[
            "validate",
            "--graph",
            &graph_path,
            "--schedule",
            &sched_path,
            "--platform",
            "mesh:2x2",
            "--json",
        ]))
        .expect("validate");
        let resp: noc_svc::api::ValidateResponse =
            serde_json::from_str(out.trim()).expect("parses as the service body");
        assert!(resp.valid);
        // A schedule checked against the wrong graph is a *successful*
        // validation with valid:false under --json.
        let other_graph = tmp("gj2.json");
        run(&args(&[
            "generate",
            "--platform",
            "mesh:2x2",
            "--tasks",
            "8",
            "--seed",
            "9",
            "--out",
            &other_graph,
        ]))
        .expect("generate");
        let out = run(&args(&[
            "validate",
            "--graph",
            &other_graph,
            "--schedule",
            &sched_path,
            "--platform",
            "mesh:2x2",
            "--json",
        ]))
        .expect("validate --json never errors structurally");
        let resp: noc_svc::api::ValidateResponse =
            serde_json::from_str(out.trim()).expect("parses");
        assert!(!resp.valid);
        assert!(resp.error.is_some());
    }

    #[test]
    fn delta_repairs_and_emits_the_service_body() {
        let graph_path = tmp("dg.json");
        let sched_path = tmp("ds.json");
        let edits_path = tmp("de.json");
        let repaired_path = tmp("dr.json");
        run(&args(&[
            "generate",
            "--platform",
            "mesh:2x2",
            "--tasks",
            "10",
            "--seed",
            "4",
            "--out",
            &graph_path,
        ]))
        .expect("generate");
        run(&args(&[
            "schedule",
            "--graph",
            &graph_path,
            "--platform",
            "mesh:2x2",
            "--json",
            "--out",
            &sched_path,
        ]))
        .expect("schedule");
        fs::write(&edits_path, r#"[{"SetDeadline":{"task":0}}]"#).expect("write edits");

        let out = run(&args(&[
            "delta",
            "--graph",
            &graph_path,
            "--schedule",
            &sched_path,
            "--platform",
            "mesh:2x2",
            "--edits",
            &edits_path,
            "--json",
            "--out",
            &repaired_path,
        ]))
        .expect("delta");
        let resp: noc_svc::api::DeltaResponse =
            serde_json::from_str(out.trim()).expect("parses as the delta body");
        assert!(resp.warm_start, "a deadline tweak must warm start");
        assert_eq!(resp.reason, "warm-start");
        assert_eq!(resp.edits, 1);
        assert_eq!(resp.result.scheduler, "eas");

        let human = run(&args(&[
            "delta",
            "--graph",
            &graph_path,
            "--schedule",
            &sched_path,
            "--platform",
            "mesh:2x2",
            "--edits",
            &edits_path,
            "--explain",
        ]))
        .expect("delta human output");
        assert!(human.contains("warm start"));
        assert!(human.contains("delta:"), "--explain narrates the decision");

        // --json refuses --explain instead of silently dropping it.
        assert!(run(&args(&[
            "delta",
            "--graph",
            &graph_path,
            "--schedule",
            &sched_path,
            "--platform",
            "mesh:2x2",
            "--edits",
            &edits_path,
            "--json",
            "--explain",
        ]))
        .is_err());
    }

    #[test]
    fn schedule_json_keeps_artifacts_and_rejects_summary_flags() {
        let graph_path = tmp("gjf.json");
        run(&args(&[
            "generate",
            "--platform",
            "mesh:2x2",
            "--tasks",
            "8",
            "--seed",
            "3",
            "--out",
            &graph_path,
        ]))
        .expect("generate");

        // --vcd is a file artifact, not summary output: it must still be
        // written when --json replaces the summary.
        let vcd_path = tmp("gjf.vcd");
        let _ = fs::remove_file(&vcd_path);
        run(&args(&[
            "schedule",
            "--graph",
            &graph_path,
            "--platform",
            "mesh:2x2",
            "--json",
            "--vcd",
            &vcd_path,
        ]))
        .expect("schedule --json --vcd");
        let vcd = fs::read_to_string(&vcd_path).expect("vcd artifact written under --json");
        assert!(vcd.contains("$timescale"));

        // Summary renderers cannot combine with --json: error, never a
        // silent drop.
        for flag in ["--gantt", "--links", "--csv"] {
            let err = run(&args(&[
                "schedule",
                "--graph",
                &graph_path,
                "--platform",
                "mesh:2x2",
                "--json",
                flag,
            ]))
            .expect_err("summary flag with --json must be rejected");
            assert!(
                err.contains(flag),
                "error must name the offending flag: {err}"
            );
        }
    }

    #[test]
    fn schedule_budget_exhaustion_is_a_clean_typed_error() {
        let graph_path = tmp("gb.json");
        run(&args(&[
            "generate",
            "--platform",
            "mesh:2x2",
            "--tasks",
            "10",
            "--seed",
            "4",
            "--out",
            &graph_path,
        ]))
        .expect("generate");
        // A zero budget interrupts EAS at its first checkpoint.
        let err = run(&args(&[
            "schedule",
            "--graph",
            &graph_path,
            "--platform",
            "mesh:2x2",
            "--budget-ms",
            "0",
        ]))
        .expect_err("zero budget must interrupt");
        assert!(err.contains("budget"), "typed budget error, got `{err}`");
        // A generous budget changes nothing: same summary as no budget.
        let bounded = run(&args(&[
            "schedule",
            "--graph",
            &graph_path,
            "--platform",
            "mesh:2x2",
            "--budget-ms",
            "600000",
        ]))
        .expect("schedules within budget");
        let unbounded = run(&args(&[
            "schedule",
            "--graph",
            &graph_path,
            "--platform",
            "mesh:2x2",
        ]))
        .expect("schedules");
        assert_eq!(bounded, unbounded, "budgets never change the result");
        // Garbage budgets are rejected up front.
        assert!(run(&args(&[
            "schedule",
            "--graph",
            &graph_path,
            "--platform",
            "mesh:2x2",
            "--budget-ms",
            "soon",
        ]))
        .is_err());
    }

    #[test]
    fn schedule_trace_writes_chrome_and_jsonl_without_changing_the_schedule() {
        let graph_path = tmp("gt.json");
        run(&args(&[
            "generate",
            "--platform",
            "mesh:2x2",
            "--tasks",
            "10",
            "--seed",
            "7",
            "--out",
            &graph_path,
        ]))
        .expect("generate");

        // Chrome (default format): parses, contains the stage spans.
        let chrome_path = tmp("gt-trace.json");
        let sched_traced = tmp("gt-s1.json");
        let out = run(&args(&[
            "schedule",
            "--graph",
            &graph_path,
            "--platform",
            "mesh:2x2",
            "--out",
            &sched_traced,
            "--trace",
            &chrome_path,
        ]))
        .expect("traced schedule");
        assert!(out.contains(&format!("wrote {chrome_path} (chrome)")));
        let text = fs::read_to_string(&chrome_path).unwrap();
        let _chrome: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        for span in ["budgeting", "level:0", "comm", "repair", "validate"] {
            assert!(text.contains(&format!("\"{span}\"")), "missing span {span}");
        }

        // Tracing never changes the schedule artifact.
        let sched_plain = tmp("gt-s2.json");
        run(&args(&[
            "schedule",
            "--graph",
            &graph_path,
            "--platform",
            "mesh:2x2",
            "--out",
            &sched_plain,
        ]))
        .expect("plain schedule");
        assert_eq!(
            fs::read_to_string(&sched_traced).unwrap(),
            fs::read_to_string(&sched_plain).unwrap(),
            "traced and untraced schedules must be byte-identical"
        );

        // JSONL: one valid object per line, no wall-clock stamps.
        let jsonl_path = tmp("gt-trace.jsonl");
        run(&args(&[
            "schedule",
            "--graph",
            &graph_path,
            "--platform",
            "mesh:2x2",
            "--trace",
            &jsonl_path,
            "--trace-format",
            "jsonl",
        ]))
        .expect("jsonl trace");
        let jsonl = fs::read_to_string(&jsonl_path).unwrap();
        assert!(jsonl.lines().count() > 10);
        for line in jsonl.lines() {
            let v: serde_json::Value = serde_json::from_str(line).expect("valid JSONL line");
            let obj = v.as_object().expect("object");
            assert!(obj.get("wall_us").is_none(), "jsonl is logical-time only");
        }

        // Bad combinations are rejected up front.
        assert!(run(&args(&[
            "schedule",
            "--graph",
            &graph_path,
            "--platform",
            "mesh:2x2",
            "--trace",
            &jsonl_path,
            "--trace-format",
            "xml",
        ]))
        .unwrap_err()
        .contains("trace-format"));
        assert!(run(&args(&[
            "schedule",
            "--graph",
            &graph_path,
            "--platform",
            "mesh:2x2",
            "--trace-format",
            "jsonl",
        ]))
        .unwrap_err()
        .contains("--trace"));
    }

    #[test]
    fn explain_narrates_decisions_and_filters_by_task() {
        let graph_path = tmp("ge.json");
        run(&args(&[
            "generate",
            "--platform",
            "mesh:2x2",
            "--tasks",
            "10",
            "--seed",
            "6",
            "--out",
            &graph_path,
        ]))
        .expect("generate");
        let out = run(&args(&[
            "explain",
            "--graph",
            &graph_path,
            "--platform",
            "mesh:2x2",
        ]))
        .expect("explain");
        assert!(out.contains("schedule narrative:"));
        assert!(out.contains("place: t0"));
        assert!(out.contains("result: eas:"));

        let focused = run(&args(&[
            "explain",
            "--graph",
            &graph_path,
            "--platform",
            "mesh:2x2",
            "--task",
            "3",
        ]))
        .expect("explain --task");
        assert!(focused.contains("place: t3"));
        assert!(!focused.contains("place: t0"));

        assert!(run(&args(&[
            "explain",
            "--graph",
            &graph_path,
            "--platform",
            "mesh:2x2",
            "--task",
            "99",
        ]))
        .unwrap_err()
        .contains("out of range"));
    }

    #[test]
    fn info_reports_graph_statistics() {
        let graph_path = tmp("info.json");
        run(&args(&[
            "generate",
            "--platform",
            "mesh:2x2",
            "--tasks",
            "10",
            "--out",
            &graph_path,
        ]))
        .expect("generate");
        let out = run(&args(&["info", "--graph", &graph_path])).expect("info");
        assert!(out.contains("CCR"));
        assert!(out.contains("tasks"));
        assert!(run(&args(&[
            "info",
            "--graph",
            &graph_path,
            "--bandwidth",
            "-3"
        ]))
        .is_err());
    }

    #[test]
    fn import_tgff_round_trip() {
        let tgff_path = tmp("w.tgff");
        fs::write(
            &tgff_path,
            "@TASK_GRAPH 0 {\nTASK a TYPE 0\nTASK b TYPE 0\nARC x FROM a TO b TYPE 0\n}\n\
             @COMMUN_QUANT 0 {\n0 512\n}\n@PE 0 {\n0 100 1.0\n}\n",
        )
        .expect("write tgff");
        let graph_path = tmp("imported.json");
        let out = run(&args(&[
            "import",
            "--tgff",
            &tgff_path,
            "--platform",
            "mesh:2x2",
            "--out",
            &graph_path,
        ]))
        .expect("import");
        assert!(out.contains("2 tasks"));
        let sched = run(&args(&[
            "schedule",
            "--graph",
            &graph_path,
            "--platform",
            "mesh:2x2",
        ]))
        .expect("schedule imported");
        assert!(sched.contains("eas:"));
    }

    #[test]
    fn extension_app_benchmarks_emit() {
        let graph_path = tmp("ofdm.json");
        let out = run(&args(&[
            "benchmark",
            "--app",
            "ofdm-transceiver",
            "--load",
            "heavy",
            "--out",
            &graph_path,
        ]))
        .expect("benchmark");
        assert!(out.contains("ofdm-transceiver"));
        let info = run(&args(&["info", "--graph", &graph_path])).expect("info");
        assert!(info.contains("tasks            22"));
    }
}

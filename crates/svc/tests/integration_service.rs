//! End-to-end loopback tests of the scheduling service: real sockets,
//! real worker pools, the shipped client. Covers the happy path, error
//! classification, queue backpressure, cache byte-identity,
//! single-flight coalescing, the async job flow and graceful shutdown.

mod common;

use std::sync::Arc;
use std::time::Duration;

use noc_ctg::prelude::TaskGraph;
use noc_eas::prelude::{apply_edits, apply_platform_edits, repair_from, Edit};
use noc_svc::api::{DeltaResponse, ScheduleResponse};
use noc_svc::client::Client;
use noc_svc::spec::{parse_platform, parse_scheduler};
use noc_svc::{Server, ServiceConfig};
use serde::Deserialize;

fn config() -> ServiceConfig {
    ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        http_workers: 4,
        sched_workers: 2,
        queue_capacity: 8,
        cache_capacity: 64,
        ..ServiceConfig::default()
    }
}

fn client(server: &Server) -> Client {
    Client::connect_retry(server.addr(), Duration::from_secs(5)).expect("connects")
}

/// A small deterministic task graph, serialized the way `noceas
/// generate --out` writes it.
fn graph_json(seed: u64, tasks: usize) -> String {
    let platform = noc_svc::spec::parse_platform("mesh:2x2").expect("platform");
    let mut cfg = noc_ctg::prelude::TgffConfig::category_i(seed);
    cfg.task_count = tasks;
    let graph = noc_ctg::prelude::TgffGenerator::new(cfg)
        .generate(&platform)
        .expect("generates");
    serde_json::to_string(&graph).expect("serializes")
}

fn schedule_body(graph: &str, scheduler: &str) -> String {
    format!(r#"{{"graph":{graph},"platform":"mesh:2x2","scheduler":"{scheduler}"}}"#)
}

#[test]
fn happy_path_health_metrics_and_schedule() {
    let server = Server::start(config()).expect("starts");
    let mut c = client(&server);

    let health = c.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "ok\n");

    let body = schedule_body(&graph_json(11, 10), "eas");
    let resp = c.post("/v1/schedule", &body).expect("schedules");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert_eq!(resp.header("x-cache"), Some("miss"));
    let parsed: noc_svc::api::ScheduleResponse =
        serde_json::from_str(&resp.body).expect("valid schedule body");
    assert_eq!(parsed.scheduler, "eas");
    assert!(parsed.energy_nj > 0.0);

    // Round-trip the produced schedule through /v1/validate.
    let schedule_json = serde_json::to_string(&parsed.schedule).expect("serializes");
    let validate_body = format!(
        r#"{{"graph":{},"platform":"mesh:2x2","schedule":{schedule_json}}}"#,
        graph_json(11, 10)
    );
    let validated = c.post("/v1/validate", &validate_body).expect("validates");
    assert_eq!(validated.status, 200, "body: {}", validated.body);
    let report: noc_svc::api::ValidateResponse =
        serde_json::from_str(&validated.body).expect("valid body");
    assert!(report.valid, "the service's own schedule must validate");

    let metrics = c.get("/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("noc_svc_schedules_executed_total 1"));
    assert!(metrics
        .body
        .contains("noc_svc_requests_total{endpoint=\"/healthz\",status=\"200\"} 1"));

    server.shutdown();
}

#[test]
fn malformed_and_unroutable_requests_classify() {
    let server = Server::start(config()).expect("starts");
    let mut c = client(&server);

    let resp = c.post("/v1/schedule", "this is not json").expect("answers");
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("error"));

    let resp = c
        .post("/v1/schedule", r#"{"graph":{},"platform":"ring:9x9"}"#)
        .expect("answers");
    assert_eq!(resp.status, 422);

    let resp = c.get("/no/such/path").expect("answers");
    assert_eq!(resp.status, 404);

    let resp = c.post("/healthz", "{}").expect("answers");
    assert_eq!(resp.status, 405);

    let resp = c.get("/v1/jobs/deadbeef").expect("answers");
    assert_eq!(resp.status, 404);

    server.shutdown();
}

/// The exact 400/422 bytes both submission endpoints answer: the body
/// is decoded once, on the HTTP event loop, and the engine admits the
/// decoded request, so these messages must not depend on who decodes.
#[test]
fn submission_error_bodies_are_byte_exact() {
    let server = Server::start(config()).expect("starts");
    let mut c = client(&server);
    let ring = r#"{"graph":{},"platform":"ring:9x9"}"#;
    let not_json = r#"{"error":"invalid request body: unexpected keyword at byte 0"}"#;
    let bad_ring = r#"{"error":"unknown topology `ring`"}"#;
    let cases = [
        ("/v1/schedule", "this is not json".to_owned(), 400, not_json),
        (
            "/v1/schedule",
            r#"{"platform":"mesh:2x2"}"#.to_owned(),
            400,
            r#"{"error":"invalid request body: missing field `graph` in ScheduleRequest"}"#,
        ),
        (
            "/v1/schedule",
            r#"{"graph":{},"platform":7}"#.to_owned(),
            400,
            r#"{"error":"invalid request body: expected string, found number"}"#,
        ),
        ("/v1/schedule", ring.to_owned(), 422, bad_ring),
        (
            "/v1/schedule/delta",
            "this is not json".to_owned(),
            400,
            not_json,
        ),
        (
            "/v1/schedule/delta",
            r#"{"prior":{}}"#.to_owned(),
            400,
            r#"{"error":"invalid request body: missing field `edits` in DeltaRequest"}"#,
        ),
        (
            "/v1/schedule/delta",
            format!(r#"{{"prior":{ring},"edits":[]}}"#),
            422,
            bad_ring,
        ),
    ];
    for (path, body, status, want) in cases {
        let resp = c.post(path, &body).expect("answers");
        assert_eq!(
            (resp.status, resp.body.as_str()),
            (status, want),
            "{path} {body}"
        );
    }

    server.shutdown();
}

#[test]
fn cache_hit_returns_byte_identical_bodies() {
    let server = Server::start(config()).expect("starts");
    let mut c = client(&server);
    let body = schedule_body(&graph_json(3, 12), "edf");

    let first = c.post("/v1/schedule", &body).expect("cold run");
    assert_eq!(first.status, 200);
    assert_eq!(first.header("x-cache"), Some("miss"));

    let second = c.post("/v1/schedule", &body).expect("cached run");
    assert_eq!(second.status, 200);
    assert_eq!(second.header("x-cache"), Some("hit"));
    assert_eq!(first.body, second.body, "cache hit must be byte-identical");
    assert_eq!(
        first.header("x-request-hash"),
        second.header("x-request-hash")
    );

    // Key order in the request body must not matter: same problem, same
    // cache entry, same bytes.
    let reordered = format!(
        r#"{{"scheduler":"edf","platform":"mesh:2x2","graph":{}}}"#,
        graph_json(3, 12)
    );
    let third = c.post("/v1/schedule", &reordered).expect("reordered run");
    assert_eq!(third.header("x-cache"), Some("hit"));
    assert_eq!(first.body, third.body);

    let metrics = c.get("/metrics").expect("metrics");
    assert!(metrics.body.contains("noc_svc_cache_hits_total 2"));
    assert!(metrics.body.contains("noc_svc_schedules_executed_total 1"));

    server.shutdown();
}

#[test]
fn stats_opt_in_adds_a_block_without_touching_cached_bytes() {
    let server = Server::start(config()).expect("starts");
    let mut c = client(&server);
    let graph = graph_json(13, 10);

    // Cold run with stats: the block is present in the answer.
    let with_stats =
        format!(r#"{{"graph":{graph},"platform":"mesh:2x2","scheduler":"eas","stats":true}}"#);
    let first = c.post("/v1/schedule", &with_stats).expect("cold run");
    assert_eq!(first.status, 200, "body: {}", first.body);
    assert_eq!(first.header("x-cache"), Some("miss"));
    assert!(
        first.body.contains(r#""stats":{"#) && first.body.contains("\"stage_micros\""),
        "stats block present when requested: {}",
        first.body
    );

    // The same problem without stats is a cache HIT (key-neutral field)
    // and its bytes carry no stats block.
    let plain = schedule_body(&graph, "eas");
    let second = c.post("/v1/schedule", &plain).expect("plain run");
    assert_eq!(second.header("x-cache"), Some("hit"));
    assert!(
        !second.body.contains("stage_micros"),
        "plain requests see the canonical cached bytes"
    );

    // Asking again with stats also hits the cache and re-attaches the
    // producing run's stats; stripping the block recovers the exact
    // cached bytes.
    let third = c.post("/v1/schedule", &with_stats).expect("cached stats");
    assert_eq!(third.header("x-cache"), Some("hit"));
    assert_eq!(first.body, third.body, "stats answers are stable");
    let head = third
        .body
        .rfind(",\"stats\":{")
        .expect("stats block present");
    let stripped = format!("{}{}", &third.body[..head], "}");
    assert_eq!(stripped, second.body, "body minus stats == cached bytes");

    // One executed request populates the per-stage histograms.
    let metrics = c.get("/metrics").expect("metrics");
    assert!(
        metrics
            .body
            .contains("noc_svc_stage_seconds_count{stage=\"level\"} 1"),
        "stage histograms exposed after one scheduled request:\n{}",
        metrics.body
    );
    assert!(metrics.body.contains("noc_svc_jobs_inflight 0"));

    server.shutdown();
}

#[test]
fn full_queue_answers_429_with_retry_after() {
    let server = Server::start(ServiceConfig {
        sched_workers: 0, // nobody drains: the queue fills deterministically
        queue_capacity: 1,
        ..config()
    })
    .expect("starts");
    let mut c = client(&server);
    let graph = graph_json(5, 8);

    let first =
        format!(r#"{{"graph":{graph},"platform":"mesh:2x2","scheduler":"edf","mode":"async"}}"#);
    let resp = c.post("/v1/schedule", &first).expect("admits");
    assert_eq!(resp.status, 202, "body: {}", resp.body);
    assert!(resp.body.contains("\"status\":\"queued\""));

    // An identical resubmission coalesces (does not consume capacity)...
    let resp = c.post("/v1/schedule", &first).expect("joins");
    assert_eq!(resp.status, 202);

    // ...while a different problem is rejected with backpressure.
    let second =
        format!(r#"{{"graph":{graph},"platform":"mesh:2x2","scheduler":"dls","mode":"async"}}"#);
    let resp = c.post("/v1/schedule", &second).expect("rejects");
    assert_eq!(resp.status, 429);
    assert_eq!(resp.header("retry-after"), Some("1"));

    let metrics = c.get("/metrics").expect("metrics");
    assert!(metrics.body.contains("noc_svc_queue_rejected_total 1"));
    assert!(metrics.body.contains("noc_svc_queue_depth 1"));

    server.shutdown();
}

#[test]
fn concurrent_identical_requests_schedule_once() {
    let server = Server::start(config()).expect("starts");
    let addr = server.addr();
    let body = Arc::new(schedule_body(&graph_json(21, 16), "eas"));

    let handles: Vec<_> = (0..8)
        .map(|_| {
            let body = Arc::clone(&body);
            std::thread::spawn(move || {
                let mut c = Client::connect_retry(addr, Duration::from_secs(5)).expect("connects");
                let resp = c.post("/v1/schedule", &body).expect("schedules");
                (resp.status, resp.body)
            })
        })
        .collect();
    let results: Vec<(u16, String)> = handles
        .into_iter()
        .map(|h| h.join().expect("no panic"))
        .collect();

    let reference = &results[0].1;
    for (status, resp_body) in &results {
        assert_eq!(*status, 200);
        assert_eq!(
            resp_body, reference,
            "every concurrent client gets byte-identical bodies"
        );
    }

    let mut c = client(&server);
    let metrics = c.get("/metrics").expect("metrics");
    assert!(
        metrics.body.contains("noc_svc_schedules_executed_total 1"),
        "identical concurrent requests must run the scheduler exactly once:\n{}",
        metrics.body
    );

    server.shutdown();
}

#[test]
fn async_flow_polls_to_the_same_bytes_as_sync() {
    let server = Server::start(config()).expect("starts");
    let mut c = client(&server);
    let graph = graph_json(8, 10);

    let sync_body = schedule_body(&graph, "dls");
    let sync = c.post("/v1/schedule", &sync_body).expect("sync run");
    assert_eq!(sync.status, 200);

    // Different scheduler → different cache entry → actually exercises
    // the async queue rather than the cache.
    let async_body =
        format!(r#"{{"graph":{graph},"platform":"mesh:2x2","scheduler":"edf","mode":"async"}}"#);
    let accepted = c.post("/v1/schedule", &async_body).expect("accepted");
    assert_eq!(accepted.status, 202, "body: {}", accepted.body);
    let id = accepted
        .header("x-request-hash")
        .expect("hash header")
        .to_owned();

    let mut done_body = None;
    for _ in 0..200 {
        let poll = c.get(&format!("/v1/jobs/{id}")).expect("polls");
        assert_eq!(poll.status, 200);
        if poll.body.contains("\"status\":\"done\"") {
            done_body = Some(poll.body);
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let done_body = done_body.expect("job finishes within 2s");

    // The spliced result must be the byte-exact sync serialization.
    let sync_edf = format!(r#"{{"graph":{graph},"platform":"mesh:2x2","scheduler":"edf"}}"#);
    let direct = c.post("/v1/schedule", &sync_edf).expect("cached now");
    assert_eq!(direct.header("x-cache"), Some("hit"));
    assert_eq!(
        done_body,
        format!(
            r#"{{"id":"{id}","status":"done","result":{}}}"#,
            direct.body
        )
    );

    server.shutdown();
}

#[test]
fn shutdown_drains_admitted_jobs() {
    let server = Server::start(ServiceConfig {
        sched_workers: 1,
        ..config()
    })
    .expect("starts");
    let mut c = client(&server);
    let graph = graph_json(2, 10);
    let body =
        format!(r#"{{"graph":{graph},"platform":"mesh:2x2","scheduler":"edf","mode":"async"}}"#);
    let accepted = c.post("/v1/schedule", &body).expect("admits");
    assert_eq!(accepted.status, 202);

    let engine = Arc::clone(server.engine());
    server.shutdown();
    // After a graceful shutdown the admitted job has been executed, not
    // dropped.
    assert_eq!(
        engine
            .metrics
            .schedules_executed
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    assert_eq!(engine.queue_depth(), 0);
}

/// `threads` in a request body is untrusted input. A count no host
/// could spawn must neither size a thread pool nor change the answer:
/// every scheduler that reads it answers 200 with the bytes the library
/// computes at one thread, and so does a delta whose `eas` prior is not
/// cached, so the service recomputes the prior under the same count.
#[test]
fn untrusted_thread_counts_answer_like_one_thread() {
    let huge = u64::MAX;
    let server = Server::start(config()).expect("starts");
    let mut c = client(&server);
    let platform = parse_platform("mesh:2x2").expect("platform");

    let graph = graph_json(21, 12);
    let parsed: TaskGraph = serde_json::from_str(&graph).expect("graph parses");
    for name in ["eas", "eas-base", "anneal"] {
        let body = format!(
            r#"{{"graph":{graph},"platform":"mesh:2x2","scheduler":"{name}","threads":{huge}}}"#
        );
        let resp = c.post("/v1/schedule", &body).expect("answers");
        assert_eq!(resp.status, 200, "{name}: {}", resp.body);
        let outcome = parse_scheduler(name, 1)
            .expect("parses")
            .schedule(&parsed, &platform)
            .expect("schedules");
        let expect = ScheduleResponse::from_outcome(name, &outcome).to_json();
        assert_eq!(resp.body, expect, "{name}");
    }

    let prior_graph = graph_json(22, 12);
    let edits = r#"[{"SetDeadline":{"task":2,"deadline":null}}]"#;
    let body = format!(
        r#"{{"prior":{},"edits":{edits},"threads":{huge}}}"#,
        schedule_body(&prior_graph, "eas")
    );
    let resp = c.post("/v1/schedule/delta", &body).expect("answers");
    assert_eq!(resp.status, 200, "delta: {}", resp.body);
    let prior_graph: TaskGraph = serde_json::from_str(&prior_graph).expect("graph parses");
    let prior = parse_scheduler("eas", 1)
        .expect("parses")
        .schedule(&prior_graph, &platform)
        .expect("schedules");
    let edits: Vec<Edit> = serde_json::from_str(edits).expect("edits parse");
    let applied = apply_edits(&prior_graph, &edits).expect("edits apply");
    let edited = apply_platform_edits(&platform, &applied.edits).expect("platform edits apply");
    let delta = repair_from(&prior_graph, &prior.schedule, &edited, &applied).expect("repairs");
    let expect = DeltaResponse {
        warm_start: delta.warm_start,
        reason: delta.reason.to_owned(),
        edits: delta.edits,
        mask_tasks: delta.mask_tasks,
        result: ScheduleResponse::from_outcome("eas", &delta.outcome),
    }
    .to_json();
    assert_eq!(resp.body, expect, "delta");

    server.shutdown();
}

/// The platform spec is untrusted input too. Building a platform
/// computes its all-pairs route table, so every submission endpoint
/// must check the spec's size against the graph before building it: a
/// mismatched or oversized platform answers 422 at once, and the event
/// loop that parsed it stays free for the next request.
#[test]
fn mismatched_or_oversized_platforms_answer_422_before_any_build() {
    let server = Server::start(config()).expect("starts");
    let mut c = client(&server);
    let graph = graph_json(31, 8); // targets the 4 PEs of mesh:2x2
    let parsed: TaskGraph = serde_json::from_str(&graph).expect("graph parses");
    let schedule = parse_scheduler("edf", 1)
        .expect("parses")
        .schedule(&parsed, &parse_platform("mesh:2x2").expect("platform"))
        .expect("schedules")
        .schedule;
    let schedule = serde_json::to_string(&schedule).expect("serializes");

    for (spec, tiles) in [
        ("mesh:3x3", 9u64),
        ("mesh:32x32", 1024),
        ("mesh:64x64", 4096),
        ("mesh:65535x65535", 65535 * 65535),
    ] {
        let problem = format!(r#"{{"graph":{graph},"platform":"{spec}","scheduler":"edf"}}"#);
        let want =
            format!(r#"{{"error":"task graph targets 4 PEs but the platform has {tiles}"}}"#);
        for (path, body) in [
            ("/v1/schedule", problem.clone()),
            (
                "/v1/schedule/delta",
                format!(r#"{{"prior":{problem},"edits":[]}}"#),
            ),
            (
                "/v1/validate",
                format!(r#"{{"graph":{graph},"platform":"{spec}","schedule":{schedule}}}"#),
            ),
        ] {
            let started = std::time::Instant::now();
            let resp = c.post(path, &body).expect("answers");
            assert_eq!(
                (resp.status, resp.body.as_str()),
                (422, want.as_str()),
                "{path} {spec}"
            );
            assert!(
                started.elapsed() < Duration::from_secs(1),
                "{path} {spec} took {:?}",
                started.elapsed()
            );
        }
        assert_eq!(c.get("/healthz").expect("healthz").status, 200, "{spec}");
    }

    // A graph that does target every tile of a grid past the cap.
    let big = parse_platform("mesh:17x17").expect("platform");
    let mut cfg = noc_ctg::prelude::TgffConfig::category_i(5);
    cfg.task_count = 4;
    let big_graph = noc_ctg::prelude::TgffGenerator::new(cfg)
        .generate(&big)
        .expect("generates");
    let body = format!(
        r#"{{"graph":{},"platform":"mesh:17x17","scheduler":"edf"}}"#,
        serde_json::to_string(&big_graph).expect("serializes")
    );
    let resp = c.post("/v1/schedule", &body).expect("answers");
    assert_eq!(
        (resp.status, resp.body.as_str()),
        (
            422,
            r#"{"error":"platform has 289 tiles; the service builds at most 256 (16x16)"}"#
        )
    );

    server.shutdown();
}

/// The task graph is untrusted input too: its arcs, cost vectors,
/// adjacency lists and topological order all arrive in the body, and
/// the schedulers and the validator index by them without checks. Every
/// endpoint must refuse a graph the builder would refuse, or one whose
/// `succs`, `preds` or `topo` disagree with its arcs, with a 422, and
/// the one event loop that read it must stay up for the next request.
#[test]
fn malformed_graphs_answer_422_on_every_endpoint() {
    let server = Server::start(ServiceConfig {
        http_workers: 1,
        ..config()
    })
    .expect("starts");
    let mut c = client(&server);
    let graph = common::graph_value("mesh:2x2", 3, 8);
    let parsed = TaskGraph::from_value(&graph).expect("graph parses");
    let schedule = parse_scheduler("edf", 1)
        .expect("parses")
        .schedule(&parsed, &parse_platform("mesh:2x2").expect("platform"))
        .expect("schedules")
        .schedule;
    let schedule = serde_json::to_string(&schedule).expect("serializes");

    for (shape, bad, want) in common::malformed_graphs(&graph) {
        let bad = serde_json::to_string(&bad).expect("serializes");
        let problem = format!(r#"{{"graph":{bad},"platform":"mesh:2x2","scheduler":"edf"}}"#);
        for (path, body, prefix) in [
            (
                "/v1/validate",
                format!(r#"{{"graph":{bad},"platform":"mesh:2x2","schedule":{schedule}}}"#),
                r#"{"error":"invalid graph: "#,
            ),
            (
                "/v1/schedule",
                problem.clone(),
                r#"{"error":"invalid graph: "#,
            ),
            (
                "/v1/schedule/delta",
                format!(r#"{{"prior":{problem},"edits":[]}}"#),
                r#"{"error":"invalid prior graph: "#,
            ),
        ] {
            let resp = c.post(path, &body).expect("answers");
            assert_eq!(resp.status, 422, "{shape} on {path}: {}", resp.body);
            assert!(
                resp.body.starts_with(prefix) && resp.body.contains(want),
                "{shape} on {path}: {}",
                resp.body
            );
        }
        assert_eq!(c.get("/healthz").expect("healthz").status, 200, "{shape}");
    }
    server.shutdown();
}

/// A body nested 10,000 levels deep once overflowed the stack of the
/// event loop that parsed it, which aborted the whole process. The
/// parser now stops at 128 levels: every endpoint answers 400, naming
/// the byte where the 129th level opens, and the one event loop that
/// read the bodies answers `/healthz` afterwards.
#[test]
fn deeply_nested_bodies_answer_400_on_every_endpoint() {
    let server = Server::start(ServiceConfig {
        http_workers: 1,
        ..config()
    })
    .expect("starts");
    let mut c = client(&server);
    let depth = 10_000;
    let arrays = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let objects = format!("{}1{}", r#"{"a":"#.repeat(depth), "}".repeat(depth));
    let record = format!("/v1/internal/record/{}", "0".repeat(32));
    for (path, body, want) in [
        (
            "/v1/schedule",
            format!(r#"{{"graph":{arrays},"platform":"mesh:2x2"}}"#),
            "invalid request body: nesting deeper than 128 levels at byte 136",
        ),
        (
            "/v1/schedule",
            format!(r#"{{"graph":{objects},"platform":"mesh:2x2"}}"#),
            "invalid request body: nesting deeper than 128 levels at byte 644",
        ),
        (
            "/v1/schedule/delta",
            format!(r#"{{"prior":{objects},"edits":[]}}"#),
            "invalid request body: nesting deeper than 128 levels at byte 644",
        ),
        (
            "/v1/validate",
            format!(r#"{{"graph":{objects},"platform":"mesh:2x2","schedule":{{}}}}"#),
            "invalid request body: nesting deeper than 128 levels at byte 644",
        ),
        (
            record.as_str(),
            format!(r#"{{"key":{objects}}}"#),
            "invalid record envelope: nesting deeper than 128 levels at byte 642",
        ),
    ] {
        let resp = c.post(path, &body).expect("answers");
        assert_eq!(
            (resp.status, resp.body.as_str()),
            (400, noc_svc::api::error_body(want).as_str()),
            "{path}"
        );
    }
    assert_eq!(c.get("/healthz").expect("healthz").status, 200);
    server.shutdown();
}

/// A `\u` escape takes exactly four hex digits, in a member name as in
/// a string value: `"\u+065df"` is not the scheduler `edf`.
#[test]
fn signed_unicode_escapes_answer_400() {
    let server = Server::start(config()).expect("starts");
    let mut c = client(&server);
    let graph = graph_json(3, 8);
    for body in [
        format!(r#"{{"graph":{graph},"platform":"mesh:2x2","scheduler":"\u+065df"}}"#),
        format!(r#"{{"graph":{graph},"platform":"mesh:2x2","\u+041":1}}"#),
    ] {
        let resp = c.post("/v1/schedule", &body).expect("answers");
        assert_eq!(
            (resp.status, resp.body.as_str()),
            (
                400,
                noc_svc::api::error_body("invalid request body: bad unicode escape").as_str()
            ),
            "{body}"
        );
    }
    server.shutdown();
}

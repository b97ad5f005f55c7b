//! Golden `"stats"` blocks.
//!
//! A job's stats block summarises the trace of the run that produced
//! it: decision counters plus the wall-clock time of each scheduler
//! stage. Only the stage times depend on the host, so this test masks
//! them and pins everything else — field names and order, every counter,
//! the stage names and their order — for one `/v1/schedule` (eas) job
//! and two `/v1/schedule/delta` jobs (a warm start and an edit-storm
//! fallback). It then checks the `noc_svc_stage_seconds` stage labels
//! and counts those jobs leave on `/metrics`.

use std::time::Duration;

use noc_svc::client::Client;
use noc_svc::{Server, ServiceConfig};
use serde::{Map, Value};

/// A category-II (tight-deadline) TGFF graph, so search & repair fires.
fn graph_json(platform: &str, tasks: usize, seed: u64) -> String {
    let platform = noc_svc::spec::parse_platform(platform).expect("platform");
    let mut cfg = noc_ctg::prelude::TgffConfig::category_ii(seed);
    cfg.task_count = tasks;
    cfg.deadline_laxity = 0.8;
    let graph = noc_ctg::prelude::TgffGenerator::new(cfg)
        .generate(&platform)
        .expect("generates");
    serde_json::to_string(&graph).expect("serializes")
}

/// The stats block of `body` with every `stage_micros` value masked.
fn masked_stats(body: &str) -> String {
    let head = body.rfind(",\"stats\":{").expect("stats block present");
    let block = &body[head + ",\"stats\":".len()..body.len() - 1];
    let stats: Value = serde_json::from_str(block).expect("stats block parses");
    let fields = stats.as_object().expect("stats block is an object");
    let masked: Map = fields
        .iter()
        .map(|(name, value)| {
            if name != "stage_micros" {
                return (name.clone(), value.clone());
            }
            let stages = value.as_object().expect("stage_micros is an object");
            let stages: Map = stages
                .iter()
                .map(|(stage, micros)| {
                    assert!(
                        matches!(micros, Value::Number(n) if n.as_u64().is_some()),
                        "{stage} micros are an integer: {block}"
                    );
                    (stage.clone(), Value::String("*".to_owned()))
                })
                .collect();
            (name.clone(), Value::Object(stages))
        })
        .collect();
    serde_json::to_string(&Value::Object(masked)).expect("serializes")
}

/// Captured before `SummarySink` replaced the service's buffered trace.
const SCHEDULE_STATS: &str = concat!(
    r#"{"events":6528,"trials":5958,"cache_hits":4208,"selects_urgency":59,"#,
    r#""selects_regret":1,"comm_transactions":120,"contention_wait_ticks":7603,"#,
    r#""lts_moves":1,"gtm_moves":78,"anneal_chains":0,"delta_warm":0,"delta_fallback":0,"#,
    r#""budget_steps":19805,"stage_micros":{"budgeting":"*","comm":"*","level":"*","#,
    r#""repair":"*","validate":"*"}}"#,
);
const DELTA_WARM_STATS: &str = concat!(
    r#"{"events":74,"trials":0,"cache_hits":0,"selects_urgency":0,"selects_regret":0,"#,
    r#""comm_transactions":0,"contention_wait_ticks":0,"lts_moves":1,"gtm_moves":67,"#,
    r#""anneal_chains":0,"delta_warm":1,"delta_fallback":0,"budget_steps":8035,"#,
    r#""stage_micros":{"repair":"*","validate":"*"}}"#,
);
const DELTA_STORM_STATS: &str = concat!(
    r#"{"events":3156,"trials":2664,"cache_hits":1608,"selects_urgency":0,"#,
    r#""selects_regret":60,"comm_transactions":120,"contention_wait_ticks":350,"#,
    r#""lts_moves":0,"gtm_moves":0,"anneal_chains":0,"delta_warm":0,"delta_fallback":1,"#,
    r#""budget_steps":60,"stage_micros":{"budgeting":"*","comm":"*","level":"*","#,
    r#""repair":"*","validate":"*"}}"#,
);
const STAGE_COUNTS: &[&str] = &[
    r#"noc_svc_stage_seconds_count{stage="budgeting"} 2"#,
    r#"noc_svc_stage_seconds_count{stage="comm"} 2"#,
    r#"noc_svc_stage_seconds_count{stage="level"} 2"#,
    r#"noc_svc_stage_seconds_count{stage="repair"} 3"#,
    r#"noc_svc_stage_seconds_count{stage="validate"} 3"#,
];

#[test]
fn stats_blocks_and_stage_labels_match_the_golden_capture() {
    let server = Server::start(ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        sched_workers: 1,
        ..ServiceConfig::default()
    })
    .expect("starts");
    let mut c = Client::connect_retry(server.addr(), Duration::from_secs(5)).expect("connects");

    let graph = graph_json("mesh:3x3", 60, 7);
    let problem = format!(r#"{{"graph":{graph},"platform":"mesh:3x3","scheduler":"eas"}}"#);
    let schedule =
        format!(r#"{{"graph":{graph},"platform":"mesh:3x3","scheduler":"eas","stats":true}}"#);
    let resp = c.post("/v1/schedule", &schedule).expect("schedules");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert_eq!(resp.header("x-cache"), Some("miss"));
    let got_schedule = masked_stats(&resp.body);

    let warm = format!(
        r#"{{"prior":{problem},"edits":[{{"SetDeadline":{{"task":3,"deadline":null}}}},{{"FailPe":{{"pe":4}}}}],"stats":true}}"#
    );
    let resp = c.post("/v1/schedule/delta", &warm).expect("warm delta");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert!(resp.body.contains(r#""warm_start":true"#), "{}", resp.body);
    let got_warm = masked_stats(&resp.body);

    let storm: Vec<String> = (0..60)
        .map(|t| format!(r#"{{"SetDeadline":{{"task":{t},"deadline":null}}}}"#))
        .collect();
    let storm = format!(
        r#"{{"prior":{problem},"edits":[{}],"stats":true}}"#,
        storm.join(",")
    );
    let resp = c.post("/v1/schedule/delta", &storm).expect("storm delta");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    assert!(resp.body.contains(r#""warm_start":false"#), "{}", resp.body);
    let got_storm = masked_stats(&resp.body);

    let metrics = c.get("/metrics").expect("metrics");
    let got_counts: Vec<&str> = metrics
        .body
        .lines()
        .filter(|l| l.starts_with("noc_svc_stage_seconds_count{"))
        .collect();
    server.shutdown();

    assert_eq!(got_schedule, SCHEDULE_STATS, "eas schedule stats");
    assert_eq!(got_warm, DELTA_WARM_STATS, "warm-start delta stats");
    assert_eq!(got_storm, DELTA_STORM_STATS, "edit-storm delta stats");
    assert_eq!(
        got_counts, STAGE_COUNTS,
        "noc_svc_stage_seconds stage labels"
    );
}

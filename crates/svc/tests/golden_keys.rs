//! Golden cache keys and job ids.
//!
//! The canonical key addresses every cached, stored, journaled and
//! replicated response, and its content hash is the job id clients
//! poll and peers look up. A renderer change that moves one byte of a
//! key orphans every record written before it. This test pins
//! `(key length, FNV-1a of the key, content hash)` for schedule
//! requests shaped like each svc_hot class, hand-written value trees
//! that reach every branch of the renderer, and delta requests.

use noc_ctg::prelude::{TgffConfig, TgffGenerator};
use noc_svc::api::{DeltaRequest, ScheduleRequest};
use noc_svc::hash::{canonical_string, content_hash, fnv1a64};
use serde::{Map, Number, Value};

/// A TGFF graph like the svc_hot class members, as a JSON value.
fn tgff_graph(platform: &str, tasks: usize, seed: u64) -> Value {
    let platform = noc_svc::spec::parse_platform(platform).expect("platform parses");
    let mut cfg = TgffConfig::category_i(seed);
    cfg.task_count = tasks;
    let graph = TgffGenerator::new(cfg)
        .generate(&platform)
        .expect("TGFF generation succeeds");
    serde_json::from_str(&serde_json::to_string(&graph).expect("serializes")).expect("parses")
}

/// `v` with the key order of every object reversed.
fn reversed(v: &Value) -> Value {
    match v {
        Value::Array(items) => Value::Array(items.iter().map(reversed).collect()),
        Value::Object(m) => {
            let mut entries: Vec<(&String, &Value)> = m.iter().collect();
            entries.reverse();
            Value::Object(
                entries
                    .into_iter()
                    .map(|(k, v)| (k.clone(), reversed(v)))
                    .collect(),
            )
        }
        other => other.clone(),
    }
}

fn text(v: &Value) -> String {
    serde_json::to_string(v).expect("serializes")
}

fn schedule_request(body: &str) -> ScheduleRequest {
    serde_json::from_str(body).expect("schedule request parses")
}

fn float(f: f64) -> Value {
    Value::Number(Number::Float(f))
}

fn object(pairs: &[(&str, Value)]) -> Value {
    Value::Object(
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect::<Map>(),
    )
}

/// Every input with its canonical key, in a fixed order.
fn keys() -> Vec<(&'static str, String)> {
    let edf16 = tgff_graph("mesh:2x2", 16, 1);
    let dls40 = tgff_graph("mesh:3x3", 40, 2);
    let eas100 = tgff_graph("mesh:4x4", 100, 3);
    let eas250 = tgff_graph("mesh:4x4", 250, 4);

    let mut keys = vec![
        (
            "edf16 mesh:2x2",
            schedule_request(&format!(
                r#"{{"graph":{},"platform":"mesh:2x2","scheduler":"edf"}}"#,
                text(&edf16)
            ))
            .canonical_key(),
        ),
        (
            "edf16 mesh:2x2 reordered, mode/threads/stats set",
            schedule_request(&format!(
                r#"{{"stats":true,"threads":7,"mode":"async","scheduler":"edf","platform":"mesh:2x2","graph":{}}}"#,
                text(&reversed(&edf16))
            ))
            .canonical_key(),
        ),
        (
            "dls40 mesh:3x3",
            schedule_request(&format!(
                r#"{{"graph":{},"platform":"mesh:3x3","scheduler":"dls"}}"#,
                text(&dls40)
            ))
            .canonical_key(),
        ),
        (
            "dls40 mesh:3x3 faults",
            schedule_request(&format!(
                r#"{{"faults":"tile:4","graph":{},"platform":"mesh:3x3","scheduler":"dls"}}"#,
                text(&dls40)
            ))
            .canonical_key(),
        ),
        (
            "eas100 mesh:4x4 scheduler defaulted",
            schedule_request(&format!(
                r#"{{"graph":{},"platform":"mesh:4x4"}}"#,
                text(&eas100)
            ))
            .canonical_key(),
        ),
        (
            "eas100 mesh:4x4 scheduler explicit, faults",
            schedule_request(&format!(
                r#"{{"platform":"mesh:4x4","scheduler":"eas","faults":"tile:5,link:0-1","graph":{}}}"#,
                text(&eas100)
            ))
            .canonical_key(),
        ),
        (
            "eas250 mesh:4x4",
            schedule_request(&format!(
                r#"{{"graph":{},"platform":"mesh:4x4","scheduler":"eas"}}"#,
                text(&eas250)
            ))
            .canonical_key(),
        ),
        (
            "eas250 mesh:4x4 reordered, faults, stats off, null scheduler",
            schedule_request(&format!(
                r#"{{"mode":"sync","stats":false,"threads":0,"scheduler":null,"faults":"link:2>3","platform":"mesh:4x4","graph":{}}}"#,
                text(&reversed(&eas250))
            ))
            .canonical_key(),
        ),
    ];

    let nested = object(&[
        (
            "z",
            object(&[
                (
                    "y",
                    Value::Array(vec![object(&[
                        ("b", Value::Number(Number::PosInt(1))),
                        ("a", object(&[("d", Value::Null), ("c", Value::Bool(true))])),
                    ])]),
                ),
                ("x", Value::Bool(false)),
                ("", object(&[])),
            ]),
        ),
        ("a", Value::Array(Vec::new())),
        (
            "B",
            Value::Array(vec![object(&[]), Value::Array(Vec::new())]),
        ),
        ("aa", Value::String(String::new())),
    ]);
    let numbers = Value::Array(vec![
        float(1e300),
        float(-0.0),
        float(0.0),
        float(2.0),
        float(5e-324),
        float(-1.5),
        float(0.1),
        float(1e21),
        float(123_456.789),
        float(f64::MAX),
        float(f64::MIN_POSITIVE),
        float(f64::NAN),
        float(f64::INFINITY),
        Value::Number(Number::PosInt(u64::MAX)),
        Value::Number(Number::PosInt(0)),
        Value::Number(Number::PosInt(10)),
        Value::Number(Number::NegInt(i64::MIN)),
        Value::Number(Number::NegInt(-1)),
    ]);
    let tricky = "q\"b\\s/\n\r\t\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f} é€\u{ffff}\u{10000}😀\u{10ffff}";
    let strings = object(&[
        (tricky, Value::String(tricky.to_owned())),
        ("\"", Value::String("\\".to_owned())),
        ("😀", Value::String("\u{1}\u{1f}".to_owned())),
        ("plain", Value::String("no escapes at all".to_owned())),
    ]);
    keys.push(("nested unsorted objects", canonical_string(&nested)));
    keys.push(("floats and integers", canonical_string(&numbers)));
    keys.push(("escaped strings", canonical_string(&strings)));
    keys.push((
        "scalar",
        canonical_string(&Value::String(tricky.to_owned())),
    ));

    let delta = |body: String| {
        let request: DeltaRequest = serde_json::from_str(&body).expect("delta request parses");
        let prior = request.prior_request().expect("prior parses");
        request.canonical_key(&prior)
    };
    keys.push((
        "delta: one edit on edf16",
        delta(format!(
            r#"{{"prior":{{"graph":{},"platform":"mesh:2x2","scheduler":"edf"}},"edits":[{{"SetDeadline":{{"task":0,"deadline":900}}}}]}}"#,
            text(&edf16)
        )),
    ));
    keys.push((
        "delta: two edits on dls40 with faults, reordered",
        delta(format!(
            r#"{{"threads":3,"stats":true,"edits":[{{"SetExecTime":{{"exec_energies":[1.5,2.0,2.5,3.0,3.5,4.0,4.5,5.0,5.5],"exec_times":[5,6,7,8,9,10,11,12,13],"task":2}}}},{{"FailPe":{{"pe":1}}}}],"prior":{{"scheduler":"dls","platform":"mesh:3x3","graph":{},"faults":"tile:4"}},"mode":"async"}}"#,
            text(&reversed(&dls40))
        )),
    ));
    keys
}

/// `(label, key length, FNV-1a of the key, content hash)`.
const GOLDEN: &[(&str, usize, u64, &str)] = &[
    (
        "edf16 mesh:2x2",
        4068,
        0x731417bbd29e949b,
        "731417bbd29e949b5934d592b81852c6",
    ),
    (
        "edf16 mesh:2x2 reordered, mode/threads/stats set",
        4068,
        0x731417bbd29e949b,
        "731417bbd29e949b5934d592b81852c6",
    ),
    (
        "dls40 mesh:3x3",
        14578,
        0x288bcf1f468fc4ca,
        "288bcf1f468fc4ca92920b169bdc5fb7",
    ),
    (
        "dls40 mesh:3x3 faults",
        14582,
        0xd48480d2cb8a6731,
        "d48480d2cb8a67317083ac1e27b1cfa8",
    ),
    (
        "eas100 mesh:4x4 scheduler defaulted",
        52315,
        0x09705b4be2169610,
        "09705b4be2169610430f4ca50088949b",
    ),
    (
        "eas100 mesh:4x4 scheduler explicit, faults",
        52328,
        0x08e221fa226a1a52,
        "08e221fa226a1a5202927334a31e6f83",
    ),
    (
        "eas250 mesh:4x4",
        132111,
        0x23fdf06792a2f681,
        "23fdf06792a2f681d00d25134566fece",
    ),
    (
        "eas250 mesh:4x4 reordered, faults, stats off, null scheduler",
        132117,
        0xf4a82e340690b6ed,
        "f4a82e340690b6edb8e953ea39a1b8f6",
    ),
    (
        "nested unsorted objects",
        88,
        0x1179ebada331609e,
        "1179ebada331609eca71254be0187c8b",
    ),
    (
        "floats and integers",
        1389,
        0x9337179ffa872265,
        "9337179ffa872265f5d205f7f4295e6e",
    ),
    (
        "escaped strings",
        199,
        0xe908207a67f6567d,
        "e908207a67f6567d8d10bebcbac38686",
    ),
    (
        "scalar",
        68,
        0x3c0a3124e0897534,
        "3c0a3124e089753497f591c675634f15",
    ),
    (
        "delta: one edit on edf16",
        99,
        0x8f673126986c8791,
        "8f673126986c8791bb87256d1c4977ba",
    ),
    (
        "delta: two edits on dls40 with faults, reordered",
        195,
        0xb0e6175260c5ccd6,
        "b0e6175260c5ccd659e4c573bb3969d9",
    ),
];

#[test]
fn keys_and_ids_match_their_golden_values() {
    let got: Vec<(&str, usize, u64, String)> = keys()
        .into_iter()
        .map(|(label, key)| {
            (
                label,
                key.len(),
                fnv1a64(key.as_bytes()),
                content_hash(&key),
            )
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(label, len, fnv, hash)| format!("    ({label:?}, {len}, {fnv:#018x}, {hash:?}),\n"))
        .collect();
    assert_eq!(got.len(), GOLDEN.len(), "computed:\n{table}");
    for (got, want) in got.iter().zip(GOLDEN) {
        assert_eq!(
            (got.0, got.1, got.2, got.3.as_str()),
            *want,
            "computed:\n{table}"
        );
    }
}

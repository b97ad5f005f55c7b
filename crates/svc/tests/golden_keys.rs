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
use noc_svc::api::{DeltaRequest, ScheduleKey, ScheduleRequest};
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

/// `v` printed with whitespace around every token and inside every
/// container.
fn spaced(v: &Value) -> String {
    serde_json::to_string_pretty(v)
        .expect("serializes")
        .replace(':', " :\t")
        .replace(',', "\r\n ,")
}

/// `n` arrays nested around a one-member object, then `n` objects
/// nested around an empty array: deep, but within the parser's bound.
fn nested(n: usize) -> String {
    let mut s = "[".repeat(n);
    s.push_str("{\"b\":1,\"a\":2}");
    s.push_str(&"]".repeat(n));
    for i in 0..n {
        s = format!("{{\"k{}\":{s},\"a\":{i}}}", n - i);
    }
    s
}

/// Valid `POST /v1/schedule` bodies in every odd spelling the decoder
/// accepts, in a fixed order.
fn odd_bodies() -> Vec<(&'static str, String)> {
    let edf16 = tgff_graph("mesh:2x2", 16, 1);
    vec![
        (
            "shuffled members and whitespace",
            format!(
                "\n {{\t\"scheduler\" : \"edf\" ,\r\n \"graph\":  {} , \"platform\" :\"mesh:2x2\"\n}}\n ",
                spaced(&reversed(&edf16))
            ),
        ),
        (
            "repeated members, top-level and inside the graph",
            r#"{"platform":"mesh:9x9","graph":{"a":1},"scheduler":"eas","faults":"tile:1","graph":{"b":[1,2],"b":{"z":0,"y":1,"z":2},"a":"first","c":{"x":1},"a":"last"},"scheduler":"edf","platform":"mesh:2x2","faults":null,"mode":"async","mode":"sync","stats":true,"stats":false}"#
                .to_owned(),
        ),
        (
            "escapes in names, keys and top-level strings",
            r#"{"graph":{"name":"caf\u00e9 \"q\" \\ \/ \b\f\n\r\t\u0001\u001f é\ud83d\ude00","k\"ey":1,"k\\ey":2,"k\/ey":3,"\u00e9":4,"é2":5,"\u0000":6,"\t":7," ":8,"A":9,"\"":10,"\\":11,"]":12,"\u007f":13,"a\u0000b":14,"a":15},"platform":"mesh:2\u0078\u0032","scheduler":"e\u0064f","faults":"tile:\u0031"}"#
                .to_owned(),
        ),
        (
            "raw control characters in strings",
            "{\"graph\":{\"n\u{1}\":\"a\u{1f}b\u{7f}\",\"n\t\":\"\u{0}\"},\"platform\":\"mesh:2x2\"}".to_owned(),
        ),
        (
            "number spellings",
            r#"{"graph":{"a":1.50,"b":1e2,"c":-0,"d":007,"e":-0.0,"f":98765432109876543210,"g":18446744073709551616,"h":18446744073709551615,"i":-9223372036854775808,"j":-9223372036854775809,"k":-12345678901234567890123,"l":1E+2,"m":2.5e-3,"n":0.1,"o":-7,"p":0.0,"q":100.0,"r":1.0e0,"s":-0.5,"t":123456789.125,"u":0.000001,"v":1e-7,"w":12345678901234567.0,"x":5e-324,"y":1.7976931348623157e308,"z":[0,-1,10,00,-00,0.10,1.0000000000000002]},"platform":"mesh:2x2"}"#
                .to_owned(),
        ),
        (
            "null scheduler and faults",
            r#"{"scheduler":null,"faults":null,"graph":[],"platform":"mesh:2x2"}"#.to_owned(),
        ),
        (
            "null graph, empty platform",
            r#"{"graph":null,"platform":""}"#.to_owned(),
        ),
        (
            "unknown members",
            r#"{"graph":{"x":[true,false,null]},"threads":4,"priority":{"deep":[1,{"a":"b"}]},"platform":"mesh:2x2","comment":"\u00e9\n","extra":null,"n":-1.5e10,"":[]}"#
                .to_owned(),
        ),
        (
            "mode and stats present",
            r#"{"mode":"async","stats":true,"graph":{"t":1},"platform":"mesh:2x2","scheduler":"dls"}"#
                .to_owned(),
        ),
        (
            "mode and stats null",
            r#"{"mode":null,"stats":null,"graph":{"t":1},"platform":"mesh:2x2","scheduler":"dls"}"#
                .to_owned(),
        ),
        (
            "mode other than async",
            r#"{"mode":"Async","stats":false,"graph":{"t":1},"platform":"mesh:2x2","scheduler":"dls"}"#
                .to_owned(),
        ),
        (
            "deep nesting within the bound",
            format!(r#"{{"graph":{},"platform":"mesh:2x2"}}"#, nested(60)),
        ),
    ]
}

/// `(label, key length, FNV-1a of the key, content hash, async, stats)`
/// of each odd body.
const ODD_GOLDEN: &[(&str, usize, u64, &str, bool, bool)] = &[
    (
        "shuffled members and whitespace",
        4068,
        0x731417bbd29e949b,
        "731417bbd29e949b5934d592b81852c6",
        false,
        false,
    ),
    (
        "repeated members, top-level and inside the graph",
        106,
        0xaf5e0119cff70996,
        "af5e0119cff70996b6b76db796d5e6db",
        false,
        false,
    ),
    (
        "escapes in names, keys and top-level strings",
        258,
        0x45b8da920afbbb9d,
        "45b8da920afbbb9d9100bc713048cb88",
        false,
        false,
    ),
    (
        "raw control characters in strings",
        102,
        0xb9739908b04591b4,
        "b9739908b04591b4474b1216bf70f8dd",
        false,
        false,
    ),
    (
        "number spellings",
        1094,
        0x747ae1165d96a970,
        "747ae1165d96a970225bbc6242d43a5d",
        false,
        false,
    ),
    (
        "null scheduler and faults",
        66,
        0x23b69340c8a80a71,
        "23b69340c8a80a711bc26f62293ae0d8",
        false,
        false,
    ),
    (
        "null graph, empty platform",
        60,
        0xc9874f30f809fb71,
        "c9874f30f809fb71cfeb90727dc02998",
        false,
        false,
    ),
    (
        "unknown members",
        87,
        0x2931af3081d57247,
        "2931af3081d57247c861cf73a5e83090",
        false,
        false,
    ),
    (
        "mode and stats present",
        71,
        0x3bbd728b29f77d88,
        "3bbd728b29f77d88b14ef29c08eccda7",
        true,
        true,
    ),
    (
        "mode and stats null",
        71,
        0x3bbd728b29f77d88,
        "3bbd728b29f77d88b14ef29c08eccda7",
        false,
        false,
    ),
    (
        "mode other than async",
        71,
        0x3bbd728b29f77d88,
        "3bbd728b29f77d88b14ef29c08eccda7",
        false,
        false,
    ),
    (
        "deep nesting within the bound",
        1078,
        0xb1eb2ef5c133cc79,
        "b1eb2ef5c133cc7980361e482cb704fc",
        false,
        false,
    ),
];

#[test]
fn odd_bodies_keep_their_golden_keys() {
    let got: Vec<(&str, usize, u64, String, bool, bool)> = odd_bodies()
        .into_iter()
        .map(|(label, body)| {
            let request = schedule_request(&body);
            let key = request.canonical_key();
            // The one-pass key the service answers hits with.
            let scan =
                ScheduleKey::scan(&body).unwrap_or_else(|| panic!("the pass rejects {label:?}"));
            assert_eq!(scan.key, key, "{label}");
            assert_eq!(scan.presentation, request.presentation(), "{label}");
            (
                label,
                key.len(),
                fnv1a64(key.as_bytes()),
                content_hash(&key),
                request.is_async(),
                request.wants_stats(),
            )
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(label, len, fnv, hash, is_async, stats)| {
            format!("    ({label:?}, {len}, {fnv:#018x}, {hash:?}, {is_async}, {stats}),\n")
        })
        .collect();
    assert_eq!(got.len(), ODD_GOLDEN.len(), "computed:\n{table}");
    for (got, want) in got.iter().zip(ODD_GOLDEN) {
        assert_eq!(
            (got.0, got.1, got.2, got.3.as_str(), got.4, got.5),
            *want,
            "computed:\n{table}"
        );
    }
}

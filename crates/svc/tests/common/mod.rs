//! Task-graph bodies shared by the service's admission tests: a valid
//! TGFF graph and every malformed shape an untrusted body can send.

use serde::{Map, Number, Value};

/// A deterministic TGFF graph targeting every tile of `platform`, as
/// the JSON value `noceas generate --out` writes.
pub fn graph_value(platform: &str, seed: u64, tasks: usize) -> Value {
    let platform = noc_svc::spec::parse_platform(platform).expect("platform parses");
    let mut cfg = noc_ctg::prelude::TgffConfig::category_i(seed);
    cfg.task_count = tasks;
    let graph = noc_ctg::prelude::TgffGenerator::new(cfg)
        .generate(&platform)
        .expect("generates");
    serde_json::from_str(&serde_json::to_string(&graph).expect("serializes")).expect("parses")
}

fn field<'a>(object: &'a Value, name: &str) -> &'a Value {
    object
        .as_object()
        .and_then(|m| m.get(name))
        .unwrap_or_else(|| panic!("field `{name}`"))
}

fn items(array: &Value) -> Vec<Value> {
    array.as_array().expect("array").to_vec()
}

/// `object` with `name` set to `value`.
fn with(object: &Value, name: &str, value: Value) -> Value {
    let mut m: Map = object.as_object().expect("object").clone();
    m.insert(name, value);
    Value::Object(m)
}

/// An arc `{"src":src,"dst":dst,"volume":64}`.
fn arc(src: u64, dst: u64) -> Value {
    let n = |u| Value::Number(Number::PosInt(u));
    let mut m = Map::new();
    m.insert("src", n(src));
    m.insert("dst", n(dst));
    m.insert("volume", n(64));
    Value::Object(m)
}

/// `graph` with one more arc appended to `edges`.
fn plus_arc(graph: &Value, extra: Value) -> Value {
    let mut edges = items(field(graph, "edges"));
    edges.push(extra);
    with(graph, "edges", Value::Array(edges))
}

/// Every way a body can send a graph the builder would refuse, or one
/// whose `succs`, `preds` or `topo` disagree with its arcs, derived
/// from the valid `graph`: `(shape, malformed graph, substring of the
/// error every endpoint must answer with)`.
pub fn malformed_graphs(graph: &Value) -> Vec<(&'static str, Value, &'static str)> {
    let tasks = items(field(graph, "tasks"));
    let task_count = tasks.len() as u64;
    let first = items(field(graph, "edges")).remove(0);
    let endpoint = |name: &str| match field(&first, name) {
        Value::Number(Number::PosInt(u)) => *u,
        other => panic!("arc endpoint {other:?}"),
    };
    let (src, dst) = (endpoint("src"), endpoint("dst"));
    let empty_lists = Value::Array(vec![Value::Array(Vec::new()); tasks.len()]);

    let emptied: Vec<Value> = tasks
        .iter()
        .map(|t| {
            let t = with(t, "exec_times", Value::Array(Vec::new()));
            with(&t, "exec_energies", Value::Array(Vec::new()))
        })
        .collect();
    let mut short = tasks.clone();
    let mut times = items(field(&short[0], "exec_times"));
    times.pop();
    short[0] = with(&short[0], "exec_times", Value::Array(times));
    let mut no_tasks = graph.clone();
    for name in ["tasks", "edges", "succs", "preds", "topo"] {
        no_tasks = with(&no_tasks, name, Value::Array(Vec::new()));
    }
    let mut reversed = items(field(graph, "topo"));
    reversed.reverse();
    let mut truncated = items(field(graph, "topo"));
    truncated.pop();

    vec![
        (
            "emptied cost vectors",
            with(graph, "tasks", Value::Array(emptied)),
            "has cost vectors of length 0/0",
        ),
        (
            "short cost vector",
            with(graph, "tasks", Value::Array(short)),
            "has cost vectors of length",
        ),
        ("no tasks", no_tasks, "task graph has no tasks"),
        (
            "duplicate arc",
            plus_arc(graph, arc(src, dst)),
            "duplicate dependency arc",
        ),
        (
            "self-loop",
            plus_arc(graph, arc(src, src)),
            "cannot depend on itself",
        ),
        (
            "cycle",
            plus_arc(graph, arc(dst, src)),
            "dependency arcs form a cycle",
        ),
        (
            "dangling arc",
            plus_arc(graph, arc(src, task_count + 90)),
            "out of range",
        ),
        (
            "emptied succs",
            with(graph, "succs", empty_lists.clone()),
            "`succs` does not match",
        ),
        (
            "emptied preds",
            with(graph, "preds", empty_lists),
            "`preds` does not match",
        ),
        (
            "reversed topo",
            with(graph, "topo", Value::Array(reversed)),
            "`topo` is not the topological order",
        ),
        (
            "truncated topo",
            with(graph, "topo", Value::Array(truncated)),
            "`topo` is not the topological order",
        ),
    ]
}

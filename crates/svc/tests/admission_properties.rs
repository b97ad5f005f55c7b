//! Admission bounds: every body a client can send is answered by a
//! status that names its fault, never by a 5xx.
//!
//! The property drives the engine's entry points — `submit` for both
//! request kinds, and `validate` — over platform specs × fault specs ×
//! graph shapes × schedulers × edits, and submits every body twice:
//!
//! * no answer is a 5xx;
//! * a client error answers the same 400 or 422 both times and is never
//!   counted as a cache hit;
//! * a valid body answers the same bytes the second time, and a
//!   scheduling body answers them from the cache.

mod common;

use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use noc_svc::engine::{Job, JobPhase, RequestKind, Submission};
use noc_svc::obs::TraceCtx;
use noc_svc::{Engine, EngineConfig};

/// Platform specs: valid and unknown topologies, dimensions 0, 1, 16,
/// 17 and 65535, and bad routings. The first three fit the 4-PE graph,
/// the next three the 16-PE one.
const SPECS: [&str; 26] = [
    "mesh:2x2",
    "torus:2x2:yx",
    "mesh:2x2:bfs",
    "mesh:4x4",
    "torus:4x4:bfs",
    "mesh:4x4:yx",
    "honeycomb:2x2",
    "mesh:16x1",
    "mesh:1x16",
    "mesh:1x1",
    "mesh:0x4",
    "mesh:4x0",
    "mesh:16x16",
    "mesh:17x16",
    "torus:16x17",
    "mesh:65535x65535",
    "mesh:65535x1",
    "ring:2x2",
    "mesh",
    "mesh:2x2:zz",
    "mesh:2x2:xy:extra",
    "mesh:2x",
    "mesh:ax2",
    "mesh:-1x2",
    "mesh:2x2:",
    "",
];

/// Fault specs: none and valid ones first, then ones naming missing
/// tiles or links, one naming every tile of a 2x2 grid, and a
/// malformed one.
const FAULTS: [Option<&str>; 8] = [
    None,
    Some("tile:3"),
    Some("link:0-1"),
    Some("tile:99"),
    Some("link:0-99"),
    Some("tile:0,tile:1,tile:2,tile:3"),
    Some("link:"),
    Some("bogus"),
];

/// Schedulers, the known ones first.
const SCHEDULERS: [&str; 4] = ["edf", "dls", "eas", "nope"];

/// Delta edit sequences: applicable ones first, then an inapplicable
/// one and one that is not an edit array.
const EDITS: [&str; 5] = [
    "[]",
    r#"[{"SetDeadline":{"task":0,"deadline":900}}]"#,
    r#"[{"FailPe":{"pe":1}}]"#,
    r#"[{"RemoveTask":{"task":99}}]"#,
    r#"{"bogus":1}"#,
];

/// Entries at the head of each list that make a valid request.
const VALID: usize = 3;

/// Graph shapes: valid graphs for 4 and 16 PEs (each a PE-count
/// mismatch against the other's platforms), non-objects, and every
/// malformed shape, as JSON text.
fn graphs() -> &'static [(String, String)] {
    static GRAPHS: OnceLock<Vec<(String, String)>> = OnceLock::new();
    GRAPHS.get_or_init(|| {
        let text = |v: &serde::Value| serde_json::to_string(v).expect("serializes");
        let four = common::graph_value("mesh:2x2", 3, 8);
        let mut graphs = vec![
            ("valid, 4 PEs".to_owned(), text(&four)),
            (
                "valid, 16 PEs".to_owned(),
                text(&common::graph_value("mesh:4x4", 5, 6)),
            ),
            ("array".to_owned(), "[1,2]".to_owned()),
            ("string".to_owned(), r#""graph""#.to_owned()),
            ("null".to_owned(), "null".to_owned()),
        ];
        graphs.extend(
            common::malformed_graphs(&four)
                .into_iter()
                .map(|(shape, bad, _)| (shape.to_owned(), text(&bad))),
        );
        graphs
    })
}

/// A valid schedule for the 4-PE graph on `mesh:2x2`, for `validate`.
fn schedule() -> &'static str {
    static SCHEDULE: OnceLock<String> = OnceLock::new();
    SCHEDULE.get_or_init(|| {
        let graph = serde_json::from_str(&graphs()[0].1).expect("graph parses");
        let platform = noc_svc::spec::parse_platform("mesh:2x2").expect("platform");
        let outcome = noc_svc::spec::parse_scheduler("edf", 1)
            .expect("scheduler")
            .schedule(&graph, &platform)
            .expect("schedules");
        serde_json::to_string(&outcome.schedule).expect("serializes")
    })
}

/// One answer: status, body or error message, and whether the cache
/// served it.
type Answer = (u16, String, bool);

/// The terminal phase of `job`, awaited through its finish callback.
fn terminal(job: &Job) -> JobPhase {
    let (tx, rx) = std::sync::mpsc::channel();
    job.on_finish(move |phase| {
        let _ = tx.send(phase.clone());
    });
    rx.recv().expect("the job finishes")
}

fn answer(submission: Submission) -> Answer {
    let finished = |phase: JobPhase| match phase {
        JobPhase::Done(output) => (200, output.body.to_string(), false),
        JobPhase::Failed(e) => (500, e, false),
        JobPhase::Queued | JobPhase::Running => unreachable!("a finished job is terminal"),
    };
    match submission {
        Submission::BadRequest(e) => (400, e, false),
        Submission::BadSpec(e) => (422, e, false),
        Submission::Cached { output, .. } => (200, output.body.to_string(), true),
        Submission::PeerFilled { output, .. } => (200, output.body.to_string(), false),
        Submission::Joined { job, .. } | Submission::Enqueued { job, .. } => {
            finished(terminal(&job))
        }
        Submission::Rejected => (429, String::new(), false),
        Submission::ShuttingDown => (503, String::new(), false),
    }
}

/// Sends a body twice through `send` and checks the admission bounds;
/// `valid` bodies must answer 200.
fn twice(engine: &Engine, what: &str, cacheable: bool, valid: bool, send: impl Fn() -> Answer) {
    let hits = engine.metrics.cache_hits.load(Ordering::Relaxed);
    let first = send();
    let second = send();
    if valid {
        prop_assert_eq!(first.0, 200, "{}: valid body answered {:?}", what, first);
    }
    prop_assert!(first.0 < 500, "{}: first answer {:?}", what, first);
    prop_assert!(second.0 < 500, "{}: second answer {:?}", what, second);
    if first.0 == 200 {
        prop_assert_eq!(&second.1, &first.1, "{}: second answer's bytes", what);
        if cacheable {
            prop_assert!(second.2, "{}: second answer not from the cache", what);
        }
    } else {
        prop_assert!(matches!(first.0, 400 | 422), "{}: {:?}", what, first);
        prop_assert_eq!(&second, &first, "{}: second answer", what);
        prop_assert_eq!(
            engine.metrics.cache_hits.load(Ordering::Relaxed),
            hits,
            "{}: a client error counted as a hit",
            what
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Half the cases draw every part from the valid heads of the
    /// lists, so the cache assertions run as often as the error ones.
    #[test]
    fn no_body_gets_a_5xx_and_repeats_answer_alike(
        (valid, spec, faults, graph, scheduler, edits) in (
            0..2usize,
            0..SPECS.len(),
            0..FAULTS.len(),
            0..graphs().len(),
            0..SCHEDULERS.len(),
            0..EDITS.len(),
        )
    ) {
        let valid = valid == 1;
        let (spec, faults, graph, scheduler, edits) = if valid {
            let graph = graph % 2;
            (graph * VALID + spec % VALID, faults % VALID, graph, scheduler % VALID, edits % VALID)
        } else {
            (spec, faults, graph, scheduler, edits)
        };
        let engine = Engine::new(EngineConfig {
            ..EngineConfig::default()
        })
        .expect("engine starts");
        let worker = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || engine.worker_loop())
        };

        let (shape, graph) = &graphs()[graph];
        let faults = FAULTS[faults]
            .map(|f| format!(r#","faults":"{f}""#))
            .unwrap_or_default();
        let what = format!("{} on `{}`{faults}", shape, SPECS[spec]);
        let problem = format!(
            r#"{{"graph":{graph},"platform":"{}","scheduler":"{}"{faults}}}"#,
            SPECS[spec], SCHEDULERS[scheduler]
        );
        let delta = format!(r#"{{"prior":{problem},"edits":{}}}"#, EDITS[edits]);
        let validate = format!(
            r#"{{"graph":{graph},"platform":"{}","schedule":{}{faults}}}"#,
            SPECS[spec],
            schedule()
        );

        twice(&engine, &format!("schedule {what}"), true, valid, || {
            answer(engine.submit(RequestKind::Schedule, &problem, &TraceCtx::untraced()).0)
        });
        twice(&engine, &format!("delta {what} {}", EDITS[edits]), true, valid, || {
            answer(engine.submit(RequestKind::Delta, &delta, &TraceCtx::untraced()).0)
        });
        twice(&engine, &format!("validate {what}"), false, false, || {
            match engine.validate(&validate) {
                Ok(report) => (200, report.to_json(), false),
                Err((status, e)) => (status, e, false),
            }
        });
        engine.shutdown();
        worker.join().expect("worker exits");
    }
}

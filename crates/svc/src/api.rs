//! Request and response bodies of the JSON API.
//!
//! These types are the **single serialization of a schedule** in the
//! workspace: the HTTP service, the CLI `--json` output and the
//! `svc_load` load generator all render [`ScheduleResponse`] /
//! [`ValidateResponse`] through [`to_json`](ScheduleResponse::to_json),
//! so a schedule serializes to the same bytes no matter which surface
//! produced it. Determinism matters: the service promises byte-identical
//! bodies whether a request is served cold, from cache, or coalesced
//! onto a concurrent twin.

use serde::{Deserialize, Map, Serialize, Value};

use noc_eas::ScheduleOutcome;
use noc_schedule::{Schedule, ValidationReport};

use crate::hash::{content_hash, Canonical};

/// The request-correlation header: the service echoes the trace id of
/// every request here, accepts a client-supplied hex id (8–64 chars)
/// inbound, and forwards it on every internal hop. Trace metadata
/// lives in headers and the flight recorder only — never in cache
/// keys, stored records, or response bodies.
pub const TRACE_HEADER: &str = "x-noc-trace";

/// The hop-parent header: internal requests carry the caller's span
/// id here so the receiving node's serving span joins the caller's
/// tree (`parent_span` in the assembled trace).
pub const SPAN_HEADER: &str = "x-noc-span";

/// Body of `POST /v1/schedule`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleRequest {
    /// The communication task graph, in the same JSON shape
    /// `noceas generate --out` writes.
    pub graph: Value,
    /// Platform spec, e.g. `"mesh:4x4"` or `"torus:3x3:yx"`.
    pub platform: String,
    /// Scheduler name (`eas`, `eas-base`, `edf`, `dls`, `anneal`,
    /// `map-then-schedule`); defaults to `eas`.
    #[serde(default)]
    pub scheduler: Option<String>,
    /// Optional fault spec, e.g. `"tile:4,link:1-2"`.
    #[serde(default)]
    pub faults: Option<String>,
    /// `"sync"` (default) answers with the schedule; `"async"` answers
    /// `202` with a job id to poll via `GET /v1/jobs/<id>`.
    #[serde(default)]
    pub mode: Option<String>,
    /// `true` asks for a `"stats"` block (per-stage durations and
    /// decision counters) in the response. Presentation-only: excluded
    /// from the cache key, and cached bodies stay byte-identical whether
    /// or not any caller ever asked for stats.
    #[serde(default)]
    pub stats: Option<bool>,
}

impl ScheduleRequest {
    /// Resolved scheduler name.
    #[must_use]
    pub fn scheduler_name(&self) -> &str {
        self.scheduler.as_deref().unwrap_or("eas")
    }

    /// `true` when the client asked for an async submission.
    #[must_use]
    pub fn is_async(&self) -> bool {
        self.mode.as_deref() == Some("async")
    }

    /// `true` when the client asked for the `"stats"` block.
    #[must_use]
    pub fn wants_stats(&self) -> bool {
        self.stats == Some(true)
    }

    /// The canonical cache key: a sorted-key rendering of the
    /// *semantic* request content — graph, platform spec, fault spec and
    /// resolved scheduler name. Insensitive to JSON key order, to
    /// defaulted-vs-explicit `scheduler`, and to the presentation-only
    /// `mode` and `stats` fields.
    #[must_use]
    pub fn canonical_key(&self) -> String {
        // The four members in ascending key order, written in one pass.
        let mut w = Canonical::default();
        w.out.push_str("{\"faults\":");
        match &self.faults {
            Some(f) => w.string(f),
            None => w.out.push_str("null"),
        }
        w.out.push_str(",\"graph\":");
        w.value(&self.graph);
        w.out.push_str(",\"platform\":");
        w.string(&self.platform);
        w.out.push_str(",\"scheduler\":");
        w.string(self.scheduler_name());
        w.out.push('}');
        w.out
    }
}

/// Body of a successful `POST /v1/schedule` answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleResponse {
    /// Scheduler that produced the schedule.
    pub scheduler: String,
    /// Total Eq. 3 energy, nJ.
    pub energy_nj: f64,
    /// Computation part of the energy, nJ.
    pub computation_nj: f64,
    /// Communication part of the energy, nJ.
    pub communication_nj: f64,
    /// Schedule makespan, ticks.
    pub makespan: u64,
    /// Deadline misses in the schedule.
    pub deadline_misses: usize,
    /// Summed tardiness over the misses, ticks.
    pub tardiness: u64,
    /// `deadline_misses == 0`.
    pub meets_deadlines: bool,
    /// Average routers per data packet.
    pub avg_hops: f64,
    /// `true` when the requested scheduler exhausted its compute budget
    /// and this is the degraded energy-blind EDF fallback schedule
    /// (`scheduler` then reads `"edf"`).
    #[serde(default)]
    pub degraded: bool,
    /// The full schedule artifact (same shape `noceas schedule --out`
    /// writes).
    pub schedule: Schedule,
}

impl ScheduleResponse {
    /// Builds the response from a validated scheduling outcome.
    #[must_use]
    pub fn from_outcome(scheduler: &str, outcome: &ScheduleOutcome) -> Self {
        ScheduleResponse {
            scheduler: scheduler.to_owned(),
            energy_nj: outcome.stats.energy.total().as_nj(),
            computation_nj: outcome.stats.energy.computation.as_nj(),
            communication_nj: outcome.stats.energy.communication.as_nj(),
            makespan: outcome.report.makespan.ticks(),
            deadline_misses: outcome.report.deadline_misses.len(),
            tardiness: outcome.report.total_tardiness().ticks(),
            meets_deadlines: outcome.report.meets_deadlines(),
            avg_hops: outcome.stats.avg_hops_per_packet,
            degraded: false,
            schedule: outcome.schedule.clone(),
        }
    }

    /// The one true serialization: compact JSON, stable field order.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("serialization is infallible")
    }
}

/// Body of `POST /v1/schedule/delta`: an edit sequence against a prior
/// schedule request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeltaRequest {
    /// The prior request — the full `POST /v1/schedule` body the edits
    /// apply against. The service warm-starts from its cached result
    /// when available, recomputing it otherwise; either way the answer
    /// bytes are identical.
    pub prior: Value,
    /// The edit sequence: an array of `noc_eas::delta::Edit` values in
    /// their serde shape, e.g.
    /// `[{"SetDeadline":{"task":3,"deadline":900}}]`.
    pub edits: Value,
    /// `"sync"` (default) or `"async"` (poll `GET /v1/jobs/<id>`).
    #[serde(default)]
    pub mode: Option<String>,
    /// `true` asks for the presentation-only `"stats"` block.
    #[serde(default)]
    pub stats: Option<bool>,
}

impl DeltaRequest {
    /// `true` when the client asked for an async submission.
    #[must_use]
    pub fn is_async(&self) -> bool {
        self.mode.as_deref() == Some("async")
    }

    /// `true` when the client asked for the `"stats"` block.
    #[must_use]
    pub fn wants_stats(&self) -> bool {
        self.stats == Some(true)
    }

    /// Parses the embedded prior request.
    ///
    /// # Errors
    ///
    /// A message when `prior` is not a valid schedule-request body.
    pub fn prior_request(&self) -> Result<ScheduleRequest, String> {
        ScheduleRequest::from_value(&self.prior).map_err(|e| format!("invalid prior request: {e}"))
    }

    /// The canonical cache key: `(prior request hash, canonical
    /// edits)`. The prior collapses to its own content hash, so two
    /// delta requests agree exactly when their prior requests hash
    /// alike and their edit sequences canonicalize to the same JSON;
    /// `mode` and `stats` stay excluded. Unlike a schedule
    /// key, this one does not hold the whole problem: two priors whose
    /// 128-bit content hashes collide share delta answers.
    #[must_use]
    pub fn canonical_key(&self, prior: &ScheduleRequest) -> String {
        self.canonical_key_for(&content_hash(&prior.canonical_key()))
    }

    /// [`canonical_key`](Self::canonical_key) given the prior request's
    /// content hash.
    pub(crate) fn canonical_key_for(&self, prior_hash: &str) -> String {
        let mut w = Canonical::default();
        w.out.push_str("{\"delta_of\":");
        w.string(prior_hash);
        w.out.push_str(",\"edits\":");
        w.value(&self.edits);
        w.out.push('}');
        w.out
    }
}

/// Body of a successful `POST /v1/schedule/delta` answer: the
/// warm-start decision wrapped around the ordinary schedule body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeltaResponse {
    /// `true` when the prior schedule was rebased and repaired;
    /// `false` when the service fell back to a full reschedule.
    pub warm_start: bool,
    /// `"warm-start"` or the fallback reason (`"edit-storm"`,
    /// `"no-alive-pe"`, `"retime-deadlock"`, `"budget-exhausted"`).
    pub reason: String,
    /// Number of edits applied.
    pub edits: usize,
    /// Tasks in the affected-region mask.
    pub mask_tasks: usize,
    /// The schedule of the edited problem, in the exact
    /// `POST /v1/schedule` body shape.
    pub result: ScheduleResponse,
}

impl DeltaResponse {
    /// The one true serialization: compact JSON, stable field order.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("serialization is infallible")
    }
}

/// Body of `POST /v1/validate`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidateRequest {
    /// The communication task graph.
    pub graph: Value,
    /// Platform spec, e.g. `"mesh:4x4"`.
    pub platform: String,
    /// The schedule to check (same JSON shape `noceas schedule --out`
    /// writes).
    pub schedule: Value,
    /// Optional fault spec masked into the platform first.
    #[serde(default)]
    pub faults: Option<String>,
}

/// Body of a `POST /v1/validate` answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidateResponse {
    /// `true` when the schedule passed every structural check.
    pub valid: bool,
    /// The violated constraint, when invalid.
    #[serde(default)]
    pub error: Option<String>,
    /// Deadline misses found (0 when invalid — validation stops at the
    /// first structural violation).
    pub deadline_misses: usize,
    /// Summed tardiness over the misses, ticks.
    pub tardiness: u64,
    /// Schedule makespan, ticks (0 when invalid).
    pub makespan: u64,
}

impl ValidateResponse {
    /// A passing report.
    #[must_use]
    pub fn ok(report: &ValidationReport) -> Self {
        ValidateResponse {
            valid: true,
            error: None,
            deadline_misses: report.deadline_misses.len(),
            tardiness: report.total_tardiness().ticks(),
            makespan: report.makespan.ticks(),
        }
    }

    /// A structural failure.
    #[must_use]
    pub fn invalid(error: String) -> Self {
        ValidateResponse {
            valid: false,
            error: Some(error),
            deadline_misses: 0,
            tardiness: 0,
            makespan: 0,
        }
    }

    /// The one true serialization: compact JSON, stable field order.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("serialization is infallible")
    }
}

/// Renders a JSON error body `{"error": "..."}`.
#[must_use]
pub fn error_body(message: &str) -> String {
    let mut m = Map::new();
    m.insert("error", Value::String(message.to_owned()));
    serde_json::to_string(&Value::Object(m)).expect("serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(text: &str) -> ScheduleRequest {
        serde_json::from_str(text).expect("parses")
    }

    #[test]
    fn cache_key_ignores_field_order_and_volatile_fields() {
        let a = request(r#"{"platform":"mesh:2x2","graph":{"x":1,"y":2}}"#);
        let b = request(
            r#"{"graph":{"y":2,"x":1},"platform":"mesh:2x2","scheduler":"eas","mode":"async","threads":8}"#,
        );
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert!(!a.is_async());
        assert!(b.is_async());
    }

    #[test]
    fn cache_key_ignores_the_stats_field() {
        let plain = request(r#"{"platform":"mesh:2x2","graph":{"x":1}}"#);
        let with_stats = request(r#"{"platform":"mesh:2x2","graph":{"x":1},"stats":true}"#);
        assert_eq!(plain.canonical_key(), with_stats.canonical_key());
        assert!(!plain.wants_stats());
        assert!(with_stats.wants_stats());
    }

    #[test]
    fn cache_key_separates_different_problems() {
        let a = request(r#"{"platform":"mesh:2x2","graph":{"x":1}}"#);
        let b = request(r#"{"platform":"mesh:4x4","graph":{"x":1}}"#);
        let c = request(r#"{"platform":"mesh:2x2","graph":{"x":1},"scheduler":"edf"}"#);
        let d = request(r#"{"platform":"mesh:2x2","graph":{"x":1},"faults":"tile:1"}"#);
        let keys = [
            a.canonical_key(),
            b.canonical_key(),
            c.canonical_key(),
            d.canonical_key(),
        ];
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "keys {i} and {j} must differ");
            }
        }
    }

    #[test]
    fn error_body_escapes() {
        assert_eq!(error_body("bad \"x\""), r#"{"error":"bad \"x\""}"#);
    }

    #[test]
    fn validate_response_shapes() {
        let inv = ValidateResponse::invalid("overlap".into());
        assert!(!inv.valid);
        assert!(inv.to_json().contains("\"overlap\""));
        let parsed: ValidateResponse = serde_json::from_str(&inv.to_json()).expect("round-trips");
        assert_eq!(parsed, inv);
    }
}

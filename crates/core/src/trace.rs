//! Structured decision tracing for the EAS pipeline.
//!
//! Every stage of the scheduler — slack budgeting, per-level `F(i,k)`
//! trials, PE selection, the Fig. 3 communication scheduler, LTS/GTM
//! repair and annealing — can emit [`Event`]s into a [`TraceSink`]
//! threaded through [`Scheduler::schedule_traced`]. Tracing is strictly
//! observational: a traced run commits the exact same placements as an
//! untraced one, so schedules stay byte-identical with tracing on or
//! off. Level scheduling emits in `(round, task, PE)` order and
//! annealing chains are emitted in chain order after all finish, so the
//! logical event stream is identical for every `--threads` value.
//!
//! Timestamps come in two flavours: every event carries a logical
//! sequence number (`seq`, assigned by the sink in emission order), and
//! sinks built with [`BufferSink::with_wall_clock`] additionally stamp
//! wall-clock microseconds (`wall_us`). JSONL exports of logical-only
//! traces are therefore deterministic; Chrome exports of wall-clock
//! traces carry real durations for profiling.
//!
//! Exporters: [`to_jsonl`] (one JSON object per line), [`to_chrome_trace`]
//! (Chrome trace-event JSON, loadable in Perfetto / `chrome://tracing`),
//! [`TraceSummary`] (per-stage durations and counters) and [`explain`]
//! (a per-task human-readable decision narrative). When only the summary
//! is wanted, [`SummarySink`] folds events into it as they arrive and
//! keeps none of them.
//!
//! [`Scheduler::schedule_traced`]: crate::scheduler::Scheduler::schedule_traced

use serde::{Map, Serialize, Value};
use std::time::Instant;

/// One traced decision or span boundary.
///
/// The variant fields mirror what the corresponding pipeline stage knew
/// when it made the decision; see each variant's documentation for the
/// exact semantics. Serialized (manually, for a fixed field order) as a
/// flat JSON object with a `"type"` discriminator.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A named region of the pipeline opens. Top-level stages use plain
    /// names (`budgeting`, `level`, `repair`, `anneal`, `validate`);
    /// per-level rounds nest as `level:<round>` and each commit's
    /// communication scheduling as `comm`.
    SpanBegin {
        /// Span name; `:`-separated names are sub-spans.
        name: String,
    },
    /// The most recently opened span with this name closes.
    SpanEnd {
        /// Span name matching the corresponding [`EventKind::SpanBegin`].
        name: String,
    },
    /// Step 1 output for one task: its slack-budgeting weight and
    /// budgeted deadline.
    TaskBudget {
        /// Task index.
        task: usize,
        /// Task name from the graph.
        task_name: String,
        /// The weight `W` used to split path slack.
        weight: f64,
        /// Budgeted deadline in ticks; `None` when unconstrained.
        bd_ticks: Option<u64>,
    },
    /// One `F(i,k)` trial of the level scheduler.
    Trial {
        /// Task index.
        task: usize,
        /// Candidate PE index.
        pe: usize,
        /// Trial start tick.
        start: u64,
        /// `F(i,k)` finish tick.
        finish: u64,
        /// `true` when the epoch-stamped trial cache answered.
        cache_hit: bool,
    },
    /// A task was committed to a PE, with the rationale.
    Select {
        /// Task index.
        task: usize,
        /// Winning PE index.
        pe: usize,
        /// `"urgency"` (Step 2.3) or `"regret"` (Step 2.4).
        rule: &'static str,
        /// Urgency path: how far `min F` overshot the budget, in ticks.
        excess_ticks: Option<u64>,
        /// Regret path: `δE = E2 − E1` in nJ; `None` when only one PE
        /// was budget-feasible (the regret is effectively infinite).
        regret_nj: Option<f64>,
        /// Number of budget-feasible candidate PEs at decision time.
        feasible: usize,
        /// Energy of the chosen placement (execution + incoming comm).
        energy_nj: f64,
        /// Committed start tick.
        start: u64,
        /// Committed finish tick.
        finish: u64,
    },
    /// A committed link-slot reservation from the Fig. 3 communication
    /// scheduler (one per incoming transaction of the committed task).
    CommReserve {
        /// Edge index in the task graph.
        edge: usize,
        /// Producer task index.
        src: usize,
        /// Consumer task index (the task being committed).
        dst: usize,
        /// Transfer start tick.
        start: u64,
        /// Transfer finish tick.
        finish: u64,
        /// Route length in links (0 = same tile, no transfer).
        hops: usize,
        /// Ticks the transfer waited past the producer's finish for a
        /// common free slot on the route (link contention stall).
        wait_ticks: u64,
    },
    /// An accepted local task swap (LTS) in search-and-repair.
    LtsSwap {
        /// The critical task pulled earlier.
        task: usize,
        /// The non-critical task it swapped with.
        with: usize,
        /// Deadline misses after the swap.
        misses: usize,
        /// Total tardiness after the swap, in ticks.
        tardiness_ticks: u64,
        /// Candidate re-timings evaluated so far (accepted + rejected).
        trials: usize,
    },
    /// An accepted global task migration (GTM) in search-and-repair.
    GtmMove {
        /// The migrated critical task.
        task: usize,
        /// Destination PE index.
        to_pe: usize,
        /// Migration energy of the accepted destination, in nJ.
        energy_nj: f64,
        /// Deadline misses after the migration.
        misses: usize,
        /// Total tardiness after the migration, in ticks.
        tardiness_ticks: u64,
        /// Candidate re-timings evaluated so far (accepted + rejected).
        trials: usize,
    },
    /// Summary of one annealing chain (emitted in chain-index order
    /// after all chains finish, so the stream is thread-count
    /// invariant).
    AnnealChain {
        /// Chain index (0-based).
        chain: usize,
        /// The chain's RNG seed.
        seed: u64,
        /// Accepted Metropolis moves.
        accepted: usize,
        /// The chain's best cost, in nJ-equivalents.
        best_cost_nj: f64,
    },
    /// The warm-start-vs-reschedule decision of a delta run
    /// ([`crate::delta::repair_from_traced`]): emitted exactly once per
    /// delta request, before the repair (or fallback) pipeline runs.
    DeltaDecision {
        /// `true` when the prior schedule was rebased and repaired;
        /// `false` when the run fell back to a full reschedule.
        warm_start: bool,
        /// `"warm-start"` or a fallback reason (`"edit-storm"`,
        /// `"no-alive-pe"`, `"retime-deadlock"`).
        reason: &'static str,
        /// Number of edits in the sequence.
        edits: usize,
        /// Tasks in the union mask (affected region).
        mask_tasks: usize,
    },
    /// A compute-budget poll at a stage boundary.
    BudgetPoll {
        /// The stage that just finished.
        stage: &'static str,
        /// Budget steps consumed so far (see
        /// [`crate::limit::ComputeBudget::steps_used`]).
        steps: u64,
    },
}

impl EventKind {
    /// The `"type"` discriminator used in serialized events.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            EventKind::SpanBegin { .. } => "span_begin",
            EventKind::SpanEnd { .. } => "span_end",
            EventKind::TaskBudget { .. } => "task_budget",
            EventKind::Trial { .. } => "trial",
            EventKind::Select { .. } => "select",
            EventKind::CommReserve { .. } => "comm_reserve",
            EventKind::LtsSwap { .. } => "lts_swap",
            EventKind::GtmMove { .. } => "gtm_move",
            EventKind::AnnealChain { .. } => "anneal_chain",
            EventKind::DeltaDecision { .. } => "delta_decision",
            EventKind::BudgetPoll { .. } => "budget_poll",
        }
    }

    /// The event's payload fields as an ordered JSON object (without the
    /// `seq` / `wall_us` / `type` envelope).
    #[must_use]
    pub fn args(&self) -> Map {
        let mut m = Map::new();
        match self {
            EventKind::SpanBegin { name } | EventKind::SpanEnd { name } => {
                m.insert("name", Value::String(name.clone()));
            }
            EventKind::TaskBudget {
                task,
                task_name,
                weight,
                bd_ticks,
            } => {
                m.insert("task", task.to_value());
                m.insert("task_name", Value::String(task_name.clone()));
                m.insert("weight", weight.to_value());
                m.insert("bd_ticks", bd_ticks.map_or(Value::Null, |b| b.to_value()));
            }
            EventKind::Trial {
                task,
                pe,
                start,
                finish,
                cache_hit,
            } => {
                m.insert("task", task.to_value());
                m.insert("pe", pe.to_value());
                m.insert("start", start.to_value());
                m.insert("finish", finish.to_value());
                m.insert("cache_hit", Value::Bool(*cache_hit));
            }
            EventKind::Select {
                task,
                pe,
                rule,
                excess_ticks,
                regret_nj,
                feasible,
                energy_nj,
                start,
                finish,
            } => {
                m.insert("task", task.to_value());
                m.insert("pe", pe.to_value());
                m.insert("rule", Value::String((*rule).to_owned()));
                m.insert(
                    "excess_ticks",
                    excess_ticks.map_or(Value::Null, |e| e.to_value()),
                );
                m.insert("regret_nj", regret_nj.map_or(Value::Null, |r| r.to_value()));
                m.insert("feasible", feasible.to_value());
                m.insert("energy_nj", energy_nj.to_value());
                m.insert("start", start.to_value());
                m.insert("finish", finish.to_value());
            }
            EventKind::CommReserve {
                edge,
                src,
                dst,
                start,
                finish,
                hops,
                wait_ticks,
            } => {
                m.insert("edge", edge.to_value());
                m.insert("src", src.to_value());
                m.insert("dst", dst.to_value());
                m.insert("start", start.to_value());
                m.insert("finish", finish.to_value());
                m.insert("hops", hops.to_value());
                m.insert("wait_ticks", wait_ticks.to_value());
            }
            EventKind::LtsSwap {
                task,
                with,
                misses,
                tardiness_ticks,
                trials,
            } => {
                m.insert("task", task.to_value());
                m.insert("with", with.to_value());
                m.insert("misses", misses.to_value());
                m.insert("tardiness_ticks", tardiness_ticks.to_value());
                m.insert("trials", trials.to_value());
            }
            EventKind::GtmMove {
                task,
                to_pe,
                energy_nj,
                misses,
                tardiness_ticks,
                trials,
            } => {
                m.insert("task", task.to_value());
                m.insert("to_pe", to_pe.to_value());
                m.insert("energy_nj", energy_nj.to_value());
                m.insert("misses", misses.to_value());
                m.insert("tardiness_ticks", tardiness_ticks.to_value());
                m.insert("trials", trials.to_value());
            }
            EventKind::AnnealChain {
                chain,
                seed,
                accepted,
                best_cost_nj,
            } => {
                m.insert("chain", chain.to_value());
                m.insert("seed", seed.to_value());
                m.insert("accepted", accepted.to_value());
                m.insert("best_cost_nj", best_cost_nj.to_value());
            }
            EventKind::DeltaDecision {
                warm_start,
                reason,
                edits,
                mask_tasks,
            } => {
                m.insert("warm_start", Value::Bool(*warm_start));
                m.insert("reason", Value::String((*reason).to_owned()));
                m.insert("edits", edits.to_value());
                m.insert("mask_tasks", mask_tasks.to_value());
            }
            EventKind::BudgetPoll { stage, steps } => {
                m.insert("stage", Value::String((*stage).to_owned()));
                m.insert("steps", steps.to_value());
            }
        }
        m
    }
}

/// A traced event with its timestamps.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Logical timestamp: emission index within the trace, assigned by
    /// the sink. Deterministic for every thread count.
    pub seq: u64,
    /// Wall-clock microseconds since the sink's origin, when the sink
    /// records wall time ([`BufferSink::with_wall_clock`]). Never set on
    /// logical-only sinks, so their exports are deterministic.
    pub wall_us: Option<u64>,
    /// What happened.
    pub kind: EventKind,
}

impl Serialize for Event {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("seq", self.seq.to_value());
        if let Some(w) = self.wall_us {
            m.insert("wall_us", w.to_value());
        }
        m.insert("type", Value::String(self.kind.type_name().to_owned()));
        for (k, v) in self.kind.args().iter() {
            m.insert(k.clone(), v.clone());
        }
        Value::Object(m)
    }
}

/// Destination for trace events.
///
/// The scheduler consults [`enabled`](TraceSink::enabled) once per run
/// and skips all event construction when it returns `false`, so a
/// disabled sink ([`NullSink`]) costs one branch per potential event.
pub trait TraceSink {
    /// Whether events should be constructed and recorded at all.
    fn enabled(&self) -> bool;
    /// Records one event. The sink assigns the logical sequence number
    /// (and wall-clock stamp, if it keeps one).
    fn record(&mut self, kind: EventKind);
}

/// The disabled sink: recording is compiled down to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }
    fn record(&mut self, _kind: EventKind) {}
}

/// An in-memory sink collecting events in emission order.
#[derive(Debug, Default)]
pub struct BufferSink {
    events: Vec<Event>,
    origin: Option<Instant>,
}

impl BufferSink {
    /// A logical-timestamp-only sink: exports are deterministic.
    #[must_use]
    pub fn new() -> Self {
        BufferSink::default()
    }

    /// A sink that additionally stamps wall-clock microseconds on every
    /// event (for Chrome-trace profiling and stage histograms). Wall
    /// stamps make exports nondeterministic; the *logical* stream is
    /// unaffected.
    #[must_use]
    pub fn with_wall_clock() -> Self {
        BufferSink {
            events: Vec::new(),
            origin: Some(Instant::now()),
        }
    }

    /// The recorded events, in emission order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Consumes the sink, returning its events.
    #[must_use]
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }
}

impl TraceSink for BufferSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, kind: EventKind) {
        self.events.push(Event {
            seq: self.events.len() as u64,
            wall_us: self.origin.map(micros_since),
            kind,
        });
    }
}

/// Wall-clock microseconds elapsed since `origin`, saturating.
fn micros_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// A sink that keeps only the [`TraceSummary`] of its trace: each event
/// is folded in as it arrives and then dropped. The clock is read only
/// when a stage span (a name without `:`) opens or closes, not once per
/// event, so a job's thousands of trial events cost no clock reads and
/// no buffer. The summary equals [`TraceSummary::from_events`] over a
/// [`BufferSink::with_wall_clock`] recording of the same run, up to the
/// wall-clock values of [`TraceSummary::stage_micros`].
#[derive(Debug)]
pub struct SummarySink {
    fold: SummaryFold,
    origin: Instant,
}

impl SummarySink {
    /// An empty summary whose stage clock starts now.
    #[must_use]
    pub fn new() -> Self {
        SummarySink {
            fold: SummaryFold::default(),
            origin: Instant::now(),
        }
    }

    /// Consumes the sink, returning its summary.
    #[must_use]
    pub fn into_summary(self) -> TraceSummary {
        self.fold.summary
    }
}

impl Default for SummarySink {
    fn default() -> Self {
        SummarySink::new()
    }
}

impl TraceSink for SummarySink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, kind: EventKind) {
        let origin = self.origin;
        self.fold.observe(&kind, || Some(micros_since(origin)));
    }
}

/// The handle the pipeline threads through its stages: a borrowed sink
/// plus a cached activity flag, so the hot paths pay one branch when
/// tracing is off.
pub struct Tracer<'a> {
    sink: Option<&'a mut dyn TraceSink>,
    active: bool,
}

impl<'a> Tracer<'a> {
    /// A tracer over `sink`; inactive when the sink is disabled.
    pub fn new(sink: &'a mut dyn TraceSink) -> Self {
        let active = sink.enabled();
        Tracer {
            sink: Some(sink),
            active,
        }
    }

    /// The always-off tracer used by the untraced entry points.
    #[must_use]
    pub fn off() -> Self {
        Tracer {
            sink: None,
            active: false,
        }
    }

    /// `true` when events will actually be recorded. Hot call sites
    /// guard event construction with this.
    #[inline]
    #[must_use]
    pub fn on(&self) -> bool {
        self.active
    }

    /// Records `kind` if the tracer is active.
    #[inline]
    pub fn emit(&mut self, kind: EventKind) {
        if self.active {
            if let Some(sink) = self.sink.as_deref_mut() {
                sink.record(kind);
            }
        }
    }

    /// Opens a span named `name`.
    pub fn begin(&mut self, name: &str) {
        if self.active {
            self.emit(EventKind::SpanBegin {
                name: name.to_owned(),
            });
        }
    }

    /// Closes the span named `name`.
    pub fn end(&mut self, name: &str) {
        if self.active {
            self.emit(EventKind::SpanEnd {
                name: name.to_owned(),
            });
        }
    }

    /// Records a budget poll for `stage` (call at stage boundaries).
    pub fn poll(&mut self, stage: &'static str, budget: &crate::limit::ComputeBudget) {
        if self.active {
            self.emit(EventKind::BudgetPoll {
                stage,
                steps: budget.steps_used(),
            });
        }
    }
}

/// Serializes events as JSON Lines (one compact object per line).
///
/// On a logical-only trace ([`BufferSink::new`]) the output is
/// byte-identical for every thread count.
#[must_use]
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&serde_json::to_string(event).expect("infallible"));
        out.push('\n');
    }
    out
}

/// Serializes events as Chrome trace-event JSON (the `traceEvents`
/// array format), loadable in Perfetto and `chrome://tracing`.
///
/// Spans become `B`/`E` duration events; everything else becomes an
/// instant event carrying its fields in `args`. Timestamps use the
/// wall-clock stamp when present, else the logical sequence number.
#[must_use]
pub fn to_chrome_trace(events: &[Event]) -> String {
    let mut trace_events = Vec::with_capacity(events.len());
    for event in events {
        let ts = event.wall_us.unwrap_or(event.seq);
        let (ph, name) = match &event.kind {
            EventKind::SpanBegin { name } => ("B", name.clone()),
            EventKind::SpanEnd { name } => ("E", name.clone()),
            other => ("i", other.type_name().to_owned()),
        };
        let mut m = Map::new();
        m.insert("name", Value::String(name));
        m.insert("cat", Value::String("noc".to_owned()));
        m.insert("ph", Value::String(ph.to_owned()));
        m.insert("ts", ts.to_value());
        m.insert("pid", 1u64.to_value());
        m.insert("tid", 1u64.to_value());
        if ph == "i" {
            m.insert("s", Value::String("t".to_owned()));
            let mut args = event.kind.args();
            args.insert("seq", event.seq.to_value());
            m.insert("args", Value::Object(args));
        }
        trace_events.push(Value::Object(m));
    }
    let mut root = Map::new();
    root.insert("traceEvents", Value::Array(trace_events));
    root.insert("displayTimeUnit", Value::String("ms".to_owned()));
    serde_json::to_string(&Value::Object(root)).expect("infallible")
}

/// Aggregated per-stage durations and decision counters of one trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Total events recorded.
    pub events: usize,
    /// `F(i,k)` trials evaluated.
    pub trials: u64,
    /// Trials answered by the epoch-stamped cache.
    pub cache_hits: u64,
    /// Commits decided by the urgency rule (Step 2.3).
    pub selects_urgency: u64,
    /// Commits decided by the energy-regret rule (Step 2.4).
    pub selects_regret: u64,
    /// Committed communication transactions (including local ones).
    pub comm_transactions: u64,
    /// Total ticks transfers stalled on link contention.
    pub contention_wait_ticks: u64,
    /// Accepted LTS swaps.
    pub lts_moves: u64,
    /// Accepted GTM migrations.
    pub gtm_moves: u64,
    /// Annealing chains run.
    pub anneal_chains: u64,
    /// Delta runs answered by a warm start (rebase + repair).
    pub delta_warm: u64,
    /// Delta runs that fell back to a full reschedule.
    pub delta_fallback: u64,
    /// Budget steps consumed at the last poll.
    pub budget_steps: u64,
    /// Wall-clock microseconds per top-level stage (spans whose name
    /// has no `:`), in the order each stage first closes. Empty on
    /// logical-only traces.
    pub stage_micros: Vec<(String, u64)>,
}

impl TraceSummary {
    /// Computes the summary of an event stream.
    #[must_use]
    pub fn from_events(events: &[Event]) -> Self {
        let mut fold = SummaryFold::default();
        for event in events {
            fold.observe(&event.kind, || event.wall_us);
        }
        fold.summary
    }
}

/// The one fold behind every [`TraceSummary`]: the summary so far plus
/// the stage spans still open. [`TraceSummary::from_events`] feeds it
/// recorded events; [`SummarySink`] feeds it live ones.
#[derive(Debug, Default)]
struct SummaryFold {
    summary: TraceSummary,
    /// Open stage spans: (name, begin wall stamp). Spans nest, so
    /// matching the latest open entry with the same name is exact.
    /// Sub-spans (`level:3`) are not timed and never match a stage
    /// name, so they are not kept.
    open: Vec<(String, Option<u64>)>,
}

impl SummaryFold {
    /// Folds in one event. `stamp` yields the event's wall-clock
    /// micros; it is called only when a stage span opens or closes.
    fn observe(&mut self, kind: &EventKind, stamp: impl FnOnce() -> Option<u64>) {
        let s = &mut self.summary;
        s.events += 1;
        match kind {
            EventKind::SpanBegin { name } => {
                if !name.contains(':') {
                    self.open.push((name.clone(), stamp()));
                }
            }
            EventKind::SpanEnd { name } => {
                if name.contains(':') {
                    return;
                }
                let Some(at) = self.open.iter().rposition(|(n, _)| n == name) else {
                    return;
                };
                let (_, begin) = self.open.remove(at);
                if let (Some(b), Some(e)) = (begin, stamp()) {
                    let micros = e.saturating_sub(b);
                    match s.stage_micros.iter_mut().find(|(n, _)| n == name) {
                        Some(slot) => slot.1 += micros,
                        None => s.stage_micros.push((name.clone(), micros)),
                    }
                }
            }
            EventKind::Trial { cache_hit, .. } => {
                s.trials += 1;
                if *cache_hit {
                    s.cache_hits += 1;
                }
            }
            EventKind::Select { rule, .. } => {
                if *rule == "urgency" {
                    s.selects_urgency += 1;
                } else {
                    s.selects_regret += 1;
                }
            }
            EventKind::CommReserve { wait_ticks, .. } => {
                s.comm_transactions += 1;
                s.contention_wait_ticks += wait_ticks;
            }
            EventKind::LtsSwap { .. } => s.lts_moves += 1,
            EventKind::GtmMove { .. } => s.gtm_moves += 1,
            EventKind::AnnealChain { .. } => s.anneal_chains += 1,
            EventKind::DeltaDecision { warm_start, .. } => {
                if *warm_start {
                    s.delta_warm += 1;
                } else {
                    s.delta_fallback += 1;
                }
            }
            EventKind::BudgetPoll { steps, .. } => s.budget_steps = *steps,
            EventKind::TaskBudget { .. } => {}
        }
    }
}

impl Serialize for TraceSummary {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("events", self.events.to_value());
        m.insert("trials", self.trials.to_value());
        m.insert("cache_hits", self.cache_hits.to_value());
        m.insert("selects_urgency", self.selects_urgency.to_value());
        m.insert("selects_regret", self.selects_regret.to_value());
        m.insert("comm_transactions", self.comm_transactions.to_value());
        m.insert(
            "contention_wait_ticks",
            self.contention_wait_ticks.to_value(),
        );
        m.insert("lts_moves", self.lts_moves.to_value());
        m.insert("gtm_moves", self.gtm_moves.to_value());
        m.insert("anneal_chains", self.anneal_chains.to_value());
        m.insert("delta_warm", self.delta_warm.to_value());
        m.insert("delta_fallback", self.delta_fallback.to_value());
        m.insert("budget_steps", self.budget_steps.to_value());
        let mut stages = Map::new();
        for (name, micros) in &self.stage_micros {
            stages.insert(name.clone(), micros.to_value());
        }
        m.insert("stage_micros", Value::Object(stages));
        Value::Object(m)
    }
}

/// Renders a per-task human-readable decision narrative of a trace.
///
/// `task` filters the narrative to one task index (placement, incoming
/// transfers and repair moves that touch it); `None` narrates the whole
/// run.
#[must_use]
pub fn explain(events: &[Event], task: Option<usize>) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let wants = |t: usize| task.is_none_or(|f| f == t);
    // Task names and budgets from the budgeting stage.
    let mut names: Vec<(usize, String, f64, Option<u64>)> = Vec::new();
    for event in events {
        if let EventKind::TaskBudget {
            task,
            task_name,
            weight,
            bd_ticks,
        } = &event.kind
        {
            names.push((*task, task_name.clone(), *weight, *bd_ticks));
        }
    }
    let name_of = |t: usize| -> String {
        names
            .iter()
            .find(|(i, ..)| *i == t)
            .map_or_else(|| format!("t{t}"), |(_, n, ..)| format!("t{t} \"{n}\""))
    };
    let summary = TraceSummary::from_events(events);
    let _ = writeln!(
        out,
        "schedule narrative: {} trials ({} cache hits), {} commits, \
         {} transactions ({} ticks contention wait), {} LTS + {} GTM moves",
        summary.trials,
        summary.cache_hits,
        summary.selects_urgency + summary.selects_regret,
        summary.comm_transactions,
        summary.contention_wait_ticks,
        summary.lts_moves,
        summary.gtm_moves,
    );
    for (t, n, weight, bd) in &names {
        if !wants(*t) {
            continue;
        }
        let bd = bd.map_or_else(|| "unconstrained".to_owned(), |b| format!("BD {b}"));
        let _ = writeln!(out, "budget: t{t} \"{n}\" weight {weight:.4}, {bd}");
    }
    for event in events {
        match &event.kind {
            EventKind::Select {
                task: t,
                pe,
                rule,
                excess_ticks,
                regret_nj,
                feasible,
                energy_nj,
                start,
                finish,
            } if wants(*t) => {
                let why = if *rule == "urgency" {
                    format!(
                        "urgent: every PE busts its budget, over by {} ticks at best",
                        excess_ticks.unwrap_or(0)
                    )
                } else {
                    match regret_nj {
                        Some(d) => {
                            format!("energy regret dE {d:.3} nJ over {feasible} feasible PEs")
                        }
                        None => "only budget-feasible PE".to_owned(),
                    }
                };
                let _ = writeln!(
                    out,
                    "place: {} -> pe{pe} [{start}, {finish}) — {why}; energy {energy_nj:.3} nJ",
                    name_of(*t)
                );
            }
            EventKind::CommReserve {
                edge,
                src,
                dst,
                start,
                finish,
                hops,
                wait_ticks,
            } if wants(*dst) && *hops > 0 => {
                let stall = if *wait_ticks > 0 {
                    format!(", stalled {wait_ticks} ticks on contention")
                } else {
                    String::new()
                };
                let _ = writeln!(
                    out,
                    "  comm: edge {edge} from {} over {hops} links [{start}, {finish}){stall}",
                    name_of(*src)
                );
            }
            EventKind::LtsSwap {
                task: t,
                with,
                misses,
                tardiness_ticks,
                ..
            } if wants(*t) || wants(*with) => {
                let _ = writeln!(
                    out,
                    "repair: LTS swap {} before {} -> {misses} misses, {tardiness_ticks} ticks tardy",
                    name_of(*t),
                    name_of(*with)
                );
            }
            EventKind::GtmMove {
                task: t,
                to_pe,
                energy_nj,
                misses,
                tardiness_ticks,
                ..
            } if wants(*t) => {
                let _ = writeln!(
                    out,
                    "repair: GTM migrate {} -> pe{to_pe} ({energy_nj:.3} nJ) -> {misses} misses, {tardiness_ticks} ticks tardy",
                    name_of(*t)
                );
            }
            EventKind::AnnealChain {
                chain,
                seed,
                accepted,
                best_cost_nj,
            } => {
                let _ = writeln!(
                    out,
                    "anneal: chain {chain} (seed {seed}) accepted {accepted} moves, best cost {best_cost_nj:.3} nJ"
                );
            }
            EventKind::DeltaDecision {
                warm_start,
                reason,
                edits,
                mask_tasks,
            } => {
                let what = if *warm_start {
                    "warm start: prior schedule rebased and repaired"
                } else {
                    "full reschedule: warm start rejected"
                };
                let _ = writeln!(
                    out,
                    "delta: {what} ({reason}) — {edits} edits touching {mask_tasks} tasks"
                );
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        let mut sink = BufferSink::new();
        sink.record(EventKind::SpanBegin {
            name: "level".to_owned(),
        });
        sink.record(EventKind::Trial {
            task: 0,
            pe: 1,
            start: 0,
            finish: 10,
            cache_hit: false,
        });
        sink.record(EventKind::Trial {
            task: 0,
            pe: 2,
            start: 0,
            finish: 12,
            cache_hit: true,
        });
        sink.record(EventKind::Select {
            task: 0,
            pe: 1,
            rule: "regret",
            excess_ticks: None,
            regret_nj: Some(2.5),
            feasible: 2,
            energy_nj: 4.0,
            start: 0,
            finish: 10,
        });
        sink.record(EventKind::CommReserve {
            edge: 0,
            src: 1,
            dst: 0,
            start: 0,
            finish: 5,
            hops: 2,
            wait_ticks: 3,
        });
        sink.record(EventKind::SpanEnd {
            name: "level".to_owned(),
        });
        sink.into_events()
    }

    #[test]
    fn sink_assigns_monotone_logical_timestamps() {
        let events = sample_events();
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.wall_us, None, "logical sink never stamps wall time");
        }
    }

    #[test]
    fn null_sink_is_disabled_and_tracer_skips_it() {
        assert!(!NullSink.enabled());
        let mut sink = NullSink;
        let mut tracer = Tracer::new(&mut sink);
        assert!(!tracer.on());
        tracer.begin("level");
        tracer.emit(EventKind::SpanEnd {
            name: "level".to_owned(),
        });
        // Nothing to observe: NullSink has no storage. The off() tracer
        // behaves identically.
        assert!(!Tracer::off().on());
    }

    #[test]
    fn wall_clock_sink_stamps_micros() {
        let mut sink = BufferSink::with_wall_clock();
        sink.record(EventKind::SpanBegin {
            name: "x".to_owned(),
        });
        assert!(sink.events()[0].wall_us.is_some());
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let text = to_jsonl(&sample_events());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6);
        for line in lines {
            let v: Value = serde_json::from_str(line).expect("valid JSON");
            let obj = v.as_object().expect("object");
            assert!(obj.get("seq").is_some());
            assert!(obj.get("type").is_some());
        }
    }

    #[test]
    fn chrome_trace_parses_and_pairs_spans() {
        let text = to_chrome_trace(&sample_events());
        let v: Value = serde_json::from_str(&text).expect("valid JSON");
        let events = v
            .as_object()
            .and_then(|o| o.get("traceEvents"))
            .and_then(Value::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), 6);
        let phases: Vec<&str> = events
            .iter()
            .map(|e| {
                e.as_object()
                    .and_then(|o| o.get("ph"))
                    .and_then(Value::as_str)
                    .expect("ph")
            })
            .collect();
        assert_eq!(phases, ["B", "i", "i", "i", "i", "E"]);
    }

    #[test]
    fn summary_counts_decisions() {
        let s = TraceSummary::from_events(&sample_events());
        assert_eq!(s.events, 6);
        assert_eq!(s.trials, 2);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.selects_regret, 1);
        assert_eq!(s.selects_urgency, 0);
        assert_eq!(s.comm_transactions, 1);
        assert_eq!(s.contention_wait_ticks, 3);
        assert!(s.stage_micros.is_empty(), "no wall stamps, no durations");
    }

    #[test]
    fn summary_durations_come_from_wall_stamps() {
        let mk = |seq: u64, wall: u64, kind: EventKind| Event {
            seq,
            wall_us: Some(wall),
            kind,
        };
        let events = vec![
            mk(
                0,
                100,
                EventKind::SpanBegin {
                    name: "level".to_owned(),
                },
            ),
            mk(
                1,
                110,
                EventKind::SpanBegin {
                    name: "level:0".to_owned(),
                },
            ),
            mk(
                2,
                150,
                EventKind::SpanEnd {
                    name: "level:0".to_owned(),
                },
            ),
            mk(
                3,
                400,
                EventKind::SpanEnd {
                    name: "level".to_owned(),
                },
            ),
        ];
        let s = TraceSummary::from_events(&events);
        // Sub-spans (name contains ':') are rolled into their stage.
        assert_eq!(s.stage_micros, vec![("level".to_owned(), 300)]);
    }

    #[test]
    fn explain_narrates_and_filters_by_task() {
        let full = explain(&sample_events(), None);
        assert!(full.contains("place: t0 -> pe1"));
        assert!(full.contains("stalled 3 ticks"));
        let other = explain(&sample_events(), Some(7));
        assert!(!other.contains("place:"));
    }
}

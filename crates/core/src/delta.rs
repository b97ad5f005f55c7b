//! Incremental (delta) scheduling: repair a prior schedule under a
//! typed edit sequence instead of rescheduling from scratch.
//!
//! The paper's search-and-repair machinery (Step 3, Fig. 4) operates on
//! *any* valid (assignment, order) pair — which makes it a natural
//! warm-start engine: when a task graph or platform changes slightly,
//! the prior schedule is rebased onto the edited problem (surviving
//! tasks keep their PE and relative order; added or stranded tasks are
//! inserted cheapest-PE-first, mirroring the GTM destination rule) and
//! LTS/GTM repair fixes whatever the edits broke. The affected region
//! of each edit is captured as a *mask* — the dependency cone whose
//! timing can shift — reported for observability and used to decide
//! when a warm start is no longer worth it.
//!
//! Fallback rules (each reported via [`EventKind::DeltaDecision`] and
//! [`DeltaOutcome::reason`]):
//!
//! * `edit-storm` — the edit sequence is as large as the edited graph
//!   itself (`edits >= task_count`); rebasing would preserve nothing
//!   worth keeping, so schedule from scratch.
//! * `no-alive-pe` — a task must be (re)placed but no PE is alive.
//! * `retime-deadlock` — the rebased order contradicts the edited
//!   dependency graph across PEs; rather than heuristically untangling
//!   it, schedule from scratch.
//!
//! Determinism: rebasing is a pure function of (prior schedule, edits)
//! — candidate destinations are ordered by `(energy, pe index)` exactly
//! like GTM — and the repair that follows is the deterministic serial
//! LTS/GTM search, so `repair_from` output is a pure function of its
//! inputs.

use serde::{Deserialize, Serialize};

use noc_ctg::analysis::GraphAnalysis;
use noc_ctg::task::{Task, TaskId};
use noc_ctg::TaskGraph;
use noc_platform::fault::FaultSet;
use noc_platform::routing::RoutingSpec;
use noc_platform::tile::{PeId, TileId};
use noc_platform::topology::Link;
use noc_platform::units::{Energy, Time, Volume};
use noc_platform::Platform;
use noc_schedule::Schedule;

use crate::limit::ComputeBudget;
use crate::retime::{retime, OrderedAssignment};
use crate::scheduler::{repair_and_validate, EasScheduler, ScheduleOutcome, Scheduler};
use crate::trace::{EventKind, NullSink, TraceSink, Tracer};
use crate::SchedulerError;

/// Warm start accepted: the prior schedule was rebased and repaired.
pub const REASON_WARM_START: &str = "warm-start";
/// Fallback: the edit sequence is as large as the edited graph.
pub const REASON_EDIT_STORM: &str = "edit-storm";
/// Fallback: a task needed (re)placement but no PE is alive.
pub const REASON_NO_ALIVE_PE: &str = "no-alive-pe";
/// Fallback: the rebased per-PE order deadlocks against the edited
/// dependency graph.
pub const REASON_RETIME_DEADLOCK: &str = "retime-deadlock";

/// An edge endpoint for [`Edit::AddTask`]: the *prior-graph* task index
/// on the other side, and the transfer volume (`bits == 0` is a pure
/// control dependency).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeRef {
    /// Prior-graph task index of the existing endpoint.
    pub task: u32,
    /// Transfer volume in bits; `0` makes it a control edge.
    pub bits: u64,
}

/// One typed change against a prior (graph, platform) pair.
///
/// All task/edge references use **prior-graph indices** — the indices
/// the caller's prior schedule talks about — even when earlier edits in
/// the same sequence removed tasks (edits never re-index each other).
/// Tasks added by the sequence are not addressable by later edits.
/// PE and tile references use platform indices; links are edited as
/// *channels* (both directions at once), matching the `link:a-b` fault
/// spec syntax.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Edit {
    /// Add a task with per-PE cost vectors and optional deadline,
    /// wired to existing tasks via `edges_in` (prior task → new) and
    /// `edges_out` (new → prior task).
    AddTask {
        /// Task name in the edited graph.
        name: String,
        /// Per-PE execution times in ticks (must match the PE count).
        exec_times: Vec<u64>,
        /// Per-PE execution energies in nJ (must match the PE count).
        exec_energies: Vec<f64>,
        /// Absolute deadline in ticks; `None` leaves it unconstrained.
        #[serde(default)]
        deadline: Option<u64>,
        /// Incoming dependencies from prior tasks.
        #[serde(default)]
        edges_in: Vec<EdgeRef>,
        /// Outgoing dependencies to prior tasks.
        #[serde(default)]
        edges_out: Vec<EdgeRef>,
    },
    /// Remove a task and every edge incident to it.
    RemoveTask {
        /// Prior-graph task index.
        task: u32,
    },
    /// Replace a task's per-PE cost vectors (times and energies).
    SetExecTime {
        /// Prior-graph task index.
        task: u32,
        /// New per-PE execution times in ticks.
        exec_times: Vec<u64>,
        /// New per-PE execution energies in nJ.
        exec_energies: Vec<f64>,
    },
    /// Change (or clear) a task's deadline.
    SetDeadline {
        /// Prior-graph task index.
        task: u32,
        /// New absolute deadline in ticks; `None` clears it.
        #[serde(default)]
        deadline: Option<u64>,
    },
    /// Change the volume of an existing edge (`0` turns it into a
    /// control edge).
    SetEdgeVolume {
        /// Prior-graph producer task index.
        src: u32,
        /// Prior-graph consumer task index.
        dst: u32,
        /// New volume in bits.
        bits: u64,
    },
    /// Mark a PE's tile failed (its tasks must evacuate).
    FailPe {
        /// PE index.
        pe: u32,
    },
    /// Clear a tile failure previously set on `pe`'s tile.
    RestorePe {
        /// PE index.
        pe: u32,
    },
    /// Fail the channel between two adjacent tiles (both directions).
    FailLink {
        /// One endpoint tile index.
        from: u32,
        /// The other endpoint tile index.
        to: u32,
    },
    /// Restore the channel between two adjacent tiles.
    RestoreLink {
        /// One endpoint tile index.
        from: u32,
        /// The other endpoint tile index.
        to: u32,
    },
}

impl Edit {
    /// `true` when the edit changes the platform rather than the graph.
    #[must_use]
    pub fn is_platform_edit(&self) -> bool {
        matches!(
            self,
            Edit::FailPe { .. }
                | Edit::RestorePe { .. }
                | Edit::FailLink { .. }
                | Edit::RestoreLink { .. }
        )
    }
}

/// The result of applying an edit sequence to a prior graph.
#[derive(Debug, Clone)]
pub struct AppliedEdits {
    /// The edited task graph.
    pub graph: TaskGraph,
    /// `id_map[old.index()]` — the new id of a surviving prior task,
    /// `None` when the sequence removed it.
    pub id_map: Vec<Option<TaskId>>,
    /// New ids of tasks added by the sequence, in edit order (they
    /// follow all surviving prior tasks).
    pub added: Vec<TaskId>,
    /// The edit sequence itself (mask computation re-walks it).
    pub edits: Vec<Edit>,
}

/// Working model of one prior task while edits are applied.
struct TaskDraft {
    name: String,
    exec_times: Vec<Time>,
    exec_energies: Vec<Energy>,
    deadline: Option<Time>,
}

fn cost_vectors(
    exec_times: &[u64],
    exec_energies: &[f64],
    pe_count: usize,
) -> Result<(Vec<Time>, Vec<Energy>), String> {
    if exec_times.len() != pe_count || exec_energies.len() != pe_count {
        return Err(format!(
            "cost vectors must cover {pe_count} PEs (got {} times, {} energies)",
            exec_times.len(),
            exec_energies.len()
        ));
    }
    if let Some(e) = exec_energies.iter().find(|e| !e.is_finite() || **e < 0.0) {
        return Err(format!(
            "execution energies must be finite and >= 0 (got {e})"
        ));
    }
    Ok((
        exec_times.iter().map(|&t| Time::new(t)).collect(),
        exec_energies.iter().map(|&e| Energy::from_nj(e)).collect(),
    ))
}

/// Applies `edits` to `prior`, producing the edited graph plus the
/// old-id → new-id mapping. Edits apply in sequence; all indices refer
/// to the *prior* graph (see [`Edit`]).
///
/// # Errors
///
/// A human-readable message when an edit references a task or edge that
/// does not exist (or was removed by an earlier edit in the sequence),
/// when cost vectors do not match the PE count, or when the edited
/// graph fails structural validation (cycle, duplicate edge, ...).
pub fn apply_edits(prior: &TaskGraph, edits: &[Edit]) -> Result<AppliedEdits, String> {
    let n = prior.task_count();
    let pe_count = prior.pe_count();
    let mut drafts: Vec<Option<TaskDraft>> = prior
        .tasks()
        .iter()
        .map(|t| {
            Some(TaskDraft {
                name: t.name().to_owned(),
                exec_times: t.exec_times().to_vec(),
                exec_energies: t.exec_energies().to_vec(),
                deadline: t.deadline(),
            })
        })
        .collect();
    // Edge volumes by prior (src, dst), kept sorted for determinism.
    let mut edge_volume: std::collections::BTreeMap<(u32, u32), Volume> = prior
        .edges()
        .iter()
        .map(|e| ((e.src.index() as u32, e.dst.index() as u32), e.volume))
        .collect();
    struct AddDraft {
        task: Task,
        edges_in: Vec<(u32, Volume)>,
        edges_out: Vec<(u32, Volume)>,
    }
    let mut adds: Vec<AddDraft> = Vec::new();

    let prior_task = |drafts: &[Option<TaskDraft>], t: u32| -> Result<(), String> {
        if (t as usize) >= n {
            return Err(format!(
                "edit references task {t} but the prior graph has {n} tasks"
            ));
        }
        if drafts[t as usize].is_none() {
            return Err(format!(
                "edit references task {t}, removed earlier in the sequence"
            ));
        }
        Ok(())
    };

    for edit in edits {
        match edit {
            Edit::AddTask {
                name,
                exec_times,
                exec_energies,
                deadline,
                edges_in,
                edges_out,
            } => {
                let (times, energies) = cost_vectors(exec_times, exec_energies, pe_count)?;
                let mut task = Task::new(name.clone(), times, energies);
                if let Some(d) = deadline {
                    task = task.with_deadline(Time::new(*d));
                }
                for r in edges_in.iter().chain(edges_out.iter()) {
                    prior_task(&drafts, r.task)?;
                }
                adds.push(AddDraft {
                    task,
                    edges_in: edges_in
                        .iter()
                        .map(|r| (r.task, Volume::from_bits(r.bits)))
                        .collect(),
                    edges_out: edges_out
                        .iter()
                        .map(|r| (r.task, Volume::from_bits(r.bits)))
                        .collect(),
                });
            }
            Edit::RemoveTask { task } => {
                prior_task(&drafts, *task)?;
                drafts[*task as usize] = None;
                edge_volume.retain(|&(s, d), _| s != *task && d != *task);
                for add in &mut adds {
                    add.edges_in.retain(|&(t, _)| t != *task);
                    add.edges_out.retain(|&(t, _)| t != *task);
                }
            }
            Edit::SetExecTime {
                task,
                exec_times,
                exec_energies,
            } => {
                prior_task(&drafts, *task)?;
                let (times, energies) = cost_vectors(exec_times, exec_energies, pe_count)?;
                let draft = drafts[*task as usize].as_mut().expect("checked");
                draft.exec_times = times;
                draft.exec_energies = energies;
            }
            Edit::SetDeadline { task, deadline } => {
                prior_task(&drafts, *task)?;
                drafts[*task as usize].as_mut().expect("checked").deadline =
                    deadline.map(Time::new);
            }
            Edit::SetEdgeVolume { src, dst, bits } => {
                prior_task(&drafts, *src)?;
                prior_task(&drafts, *dst)?;
                match edge_volume.get_mut(&(*src, *dst)) {
                    Some(v) => *v = Volume::from_bits(*bits),
                    None => {
                        return Err(format!("no edge {src} -> {dst} in the prior graph"));
                    }
                }
            }
            // Platform edits are handled by `apply_platform_edits`.
            Edit::FailPe { .. }
            | Edit::RestorePe { .. }
            | Edit::FailLink { .. }
            | Edit::RestoreLink { .. } => {}
        }
    }

    // Rebuild: surviving prior tasks in ascending prior id, then the
    // added tasks in edit order.
    let mut builder = TaskGraph::builder(prior.name(), pe_count);
    let mut id_map: Vec<Option<TaskId>> = vec![None; n];
    for (old, draft) in drafts.into_iter().enumerate() {
        if let Some(d) = draft {
            let mut task = Task::new(d.name, d.exec_times, d.exec_energies);
            if let Some(dl) = d.deadline {
                task = task.with_deadline(dl);
            }
            id_map[old] = Some(builder.add_task(task));
        }
    }
    let mut added = Vec::with_capacity(adds.len());
    for add in &adds {
        added.push(builder.add_task(add.task.clone()));
    }
    let map = |t: u32, id_map: &[Option<TaskId>]| id_map[t as usize].expect("survivor");
    for (&(s, d), &v) in &edge_volume {
        builder
            .add_edge(map(s, &id_map), map(d, &id_map), v)
            .map_err(|e| e.to_string())?;
    }
    for (i, add) in adds.iter().enumerate() {
        for &(t, v) in &add.edges_in {
            builder
                .add_edge(map(t, &id_map), added[i], v)
                .map_err(|e| e.to_string())?;
        }
        for &(t, v) in &add.edges_out {
            builder
                .add_edge(added[i], map(t, &id_map), v)
                .map_err(|e| e.to_string())?;
        }
    }
    let graph = builder.build().map_err(|e| e.to_string())?;
    Ok(AppliedEdits {
        graph,
        id_map,
        added,
        edits: edits.to_vec(),
    })
}

/// Applies the *platform* edits of a sequence (`FailPe` / `RestorePe` /
/// `FailLink` / `RestoreLink`) to `prior`, rebuilding it with the
/// edited fault set. Graph edits in the sequence are ignored here.
///
/// # Errors
///
/// A message when an edit references a tile outside the platform, or
/// when the platform uses an explicit routing table (tables cannot be
/// rebuilt from their name, so delta edits are limited to the named
/// routing policies).
pub fn apply_platform_edits(prior: &Platform, edits: &[Edit]) -> Result<Platform, String> {
    if !edits.iter().any(Edit::is_platform_edit) {
        return Ok(prior.clone());
    }
    let tiles = prior.tile_count() as u32;
    let check_tile = |t: u32| -> Result<TileId, String> {
        if (t as usize) < prior.tile_count() {
            Ok(TileId::new(t))
        } else {
            Err(format!(
                "edit references tile {t} but the platform has {tiles} tiles"
            ))
        }
    };
    let mut failed_tiles: Vec<TileId> = prior.faults().failed_tiles().to_vec();
    let mut failed_links: Vec<Link> = prior.faults().failed_links().to_vec();
    for edit in edits {
        match edit {
            Edit::FailPe { pe } => {
                let tile = check_tile(*pe)?;
                if !failed_tiles.contains(&tile) {
                    failed_tiles.push(tile);
                }
            }
            Edit::RestorePe { pe } => {
                let tile = check_tile(*pe)?;
                failed_tiles.retain(|&t| t != tile);
            }
            Edit::FailLink { from, to } => {
                let (a, b) = (check_tile(*from)?, check_tile(*to)?);
                for link in [Link::new(a, b), Link::new(b, a)] {
                    if !failed_links.contains(&link) {
                        failed_links.push(link);
                    }
                }
            }
            Edit::RestoreLink { from, to } => {
                let (a, b) = (check_tile(*from)?, check_tile(*to)?);
                failed_links.retain(|&l| l != Link::new(a, b) && l != Link::new(b, a));
            }
            _ => {}
        }
    }
    let routing = match prior.routing_name() {
        "xy" => RoutingSpec::Xy,
        "yx" => RoutingSpec::Yx,
        "shortest-path" => RoutingSpec::ShortestPath,
        other => {
            return Err(format!(
                "platform edits require a named routing policy, not '{other}'"
            ));
        }
    };
    let mut faults = FaultSet::new();
    for tile in failed_tiles {
        faults.fail_tile(tile);
    }
    for link in failed_links {
        faults.fail_link(link);
    }
    Platform::builder()
        .topology(prior.topology().clone())
        .routing(routing)
        .pes(prior.pe_classes().to_vec())
        .energy_model(*prior.energy_model())
        .link_bandwidth(prior.link_bandwidth())
        .faults(faults)
        .build()
        .map_err(|e| e.to_string())
}

impl AppliedEdits {
    /// The *mask* of one edit: the new-graph tasks whose timing the
    /// edit can move, as an ascending task-id list.
    ///
    /// * `AddTask` — the new task and its dependency cone (descendants).
    /// * `RemoveTask` — the removed task's surviving prior successors
    ///   and their cones (their inputs changed).
    /// * `SetExecTime` — the task and its cone.
    /// * `SetDeadline` — the task alone (timing is unchanged; only its
    ///   criticality moves).
    /// * `SetEdgeVolume` — the producer, the consumer and its cone.
    /// * `FailPe` — every surviving task the prior schedule ran on that
    ///   PE, with their cones (they must evacuate).
    /// * `RestorePe` — empty (capacity only grows).
    /// * `FailLink` / `RestoreLink` — every task, conservatively: route
    ///   changes can move any transfer's contention.
    ///
    /// `edit_index` addresses into [`AppliedEdits::edits`]; `prior` and
    /// `prior_schedule` are the graph and schedule the edits were
    /// applied against.
    ///
    /// # Panics
    ///
    /// Panics when `edit_index` is out of range, or when `prior` /
    /// `prior_schedule` do not match the graph the edits were applied
    /// to.
    #[must_use]
    pub fn edit_mask(
        &self,
        edit_index: usize,
        prior: &TaskGraph,
        prior_schedule: &Schedule,
    ) -> Vec<TaskId> {
        let analysis = GraphAnalysis::new(&self.graph);
        self.mask_with(&analysis, edit_index, prior, prior_schedule)
    }

    fn mask_with(
        &self,
        analysis: &GraphAnalysis,
        edit_index: usize,
        prior: &TaskGraph,
        prior_schedule: &Schedule,
    ) -> Vec<TaskId> {
        let edit = &self.edits[edit_index];
        let mut hit = vec![false; self.graph.task_count()];
        let cone = |t: TaskId, hit: &mut Vec<bool>| {
            hit[t.index()] = true;
            for x in self.graph.task_ids() {
                if analysis.is_ancestor(t, x) {
                    hit[x.index()] = true;
                }
            }
        };
        let mapped = |t: u32| self.id_map.get(t as usize).copied().flatten();
        match edit {
            Edit::AddTask { .. } => {
                let nth = self.edits[..edit_index]
                    .iter()
                    .filter(|e| matches!(e, Edit::AddTask { .. }))
                    .count();
                cone(self.added[nth], &mut hit);
            }
            Edit::RemoveTask { task } => {
                // The removed task's prior successors lost an input (and
                // the PE it ran on gained a gap): their cones can move.
                for s in prior.successors(TaskId::new(*task)) {
                    if let Some(new) = mapped(s.index() as u32) {
                        cone(new, &mut hit);
                    }
                }
                let pe = prior_schedule.task(TaskId::new(*task)).pe;
                for (old, new) in self.id_map.iter().enumerate() {
                    if let Some(new) = new {
                        if prior_schedule.task(TaskId::new(old as u32)).pe == pe {
                            cone(*new, &mut hit);
                        }
                    }
                }
            }
            Edit::SetExecTime { task, .. } => {
                if let Some(t) = mapped(*task) {
                    cone(t, &mut hit);
                }
            }
            Edit::SetDeadline { task, .. } => {
                if let Some(t) = mapped(*task) {
                    hit[t.index()] = true;
                }
            }
            Edit::SetEdgeVolume { src, dst, .. } => {
                if let Some(s) = mapped(*src) {
                    hit[s.index()] = true;
                }
                if let Some(d) = mapped(*dst) {
                    cone(d, &mut hit);
                }
            }
            Edit::FailPe { pe } => {
                let pe = PeId::new(*pe);
                for (old, new) in self.id_map.iter().enumerate() {
                    if let Some(new) = new {
                        if prior_schedule.task(TaskId::new(old as u32)).pe == pe {
                            cone(*new, &mut hit);
                        }
                    }
                }
            }
            Edit::RestorePe { .. } => {}
            Edit::FailLink { .. } | Edit::RestoreLink { .. } => {
                hit.iter_mut().for_each(|h| *h = true);
            }
        }
        hit.iter()
            .enumerate()
            .filter(|(_, &h)| h)
            .map(|(i, _)| TaskId::new(i as u32))
            .collect()
    }

    /// The union of every edit's mask (ascending, deduplicated): the
    /// full affected region of the sequence.
    ///
    /// # Panics
    ///
    /// Panics when `prior` / `prior_schedule` do not match the graph
    /// the edits were applied to.
    #[must_use]
    pub fn mask(&self, prior: &TaskGraph, prior_schedule: &Schedule) -> Vec<TaskId> {
        let analysis = GraphAnalysis::new(&self.graph);
        let mut hit = vec![false; self.graph.task_count()];
        for i in 0..self.edits.len() {
            for t in self.mask_with(&analysis, i, prior, prior_schedule) {
                hit[t.index()] = true;
            }
        }
        hit.iter()
            .enumerate()
            .filter(|(_, &h)| h)
            .map(|(i, _)| TaskId::new(i as u32))
            .collect()
    }
}

/// The result of a delta-scheduling run.
#[derive(Debug, Clone)]
pub struct DeltaOutcome {
    /// The repaired (or rescheduled) schedule with its validation
    /// report, statistics and repair counters.
    pub outcome: ScheduleOutcome,
    /// `true` when the prior schedule was warm-started (rebased and
    /// repaired); `false` when the run fell back to a full reschedule.
    pub warm_start: bool,
    /// Why: [`REASON_WARM_START`] or one of the fallback reasons.
    pub reason: &'static str,
    /// Number of edits applied.
    pub edits: usize,
    /// Size of the union mask (affected-region tasks).
    pub mask_tasks: usize,
}

/// Untraced, unbudgeted [`repair_from_traced`].
///
/// # Errors
///
/// See [`repair_from_traced`].
pub fn repair_from(
    prior: &TaskGraph,
    prior_schedule: &Schedule,
    platform: &Platform,
    applied: &AppliedEdits,
) -> Result<DeltaOutcome, SchedulerError> {
    repair_from_traced(
        prior,
        prior_schedule,
        platform,
        applied,
        &ComputeBudget::unlimited(),
        &mut NullSink,
    )
}

/// Repairs `prior_schedule` under `applied` edits on the (possibly
/// edited) `platform`, falling back to a full [`EasScheduler`] run when
/// the warm start is invalid (see the module docs for the rules).
/// Either way a [`EventKind::DeltaDecision`] trace event records the
/// choice, so `explain` can narrate it.
///
/// `prior_schedule` must be a schedule of the graph the edits were
/// applied to; `platform` must be the *edited* platform (see
/// [`apply_platform_edits`]).
///
/// # Errors
///
/// [`SchedulerError`] from the repair or fallback pipeline — budget
/// exhaustion, cancellation, or an invalid result schedule.
///
/// # Panics
///
/// Panics if `prior_schedule` does not cover the prior graph
/// (`id_map` length mismatch).
pub fn repair_from_traced(
    prior: &TaskGraph,
    prior_schedule: &Schedule,
    platform: &Platform,
    applied: &AppliedEdits,
    budget: &ComputeBudget,
    sink: &mut dyn TraceSink,
) -> Result<DeltaOutcome, SchedulerError> {
    assert_eq!(
        prior_schedule.task_count(),
        applied.id_map.len(),
        "prior schedule must cover the prior graph"
    );
    let graph = &applied.graph;
    let mask = applied.mask(prior, prior_schedule);
    let plan = plan_warm_start(prior_schedule, platform, applied);
    let (warm_start, reason) = match &plan {
        Ok(_) => (true, REASON_WARM_START),
        Err(reason) => (false, *reason),
    };
    {
        let mut tracer = Tracer::new(sink);
        tracer.emit(EventKind::DeltaDecision {
            warm_start,
            reason,
            edits: applied.edits.len(),
            mask_tasks: mask.len(),
        });
    }
    let outcome = match plan {
        Ok(rebased) => repair_and_validate(
            graph,
            platform,
            rebased,
            true,
            budget,
            &mut Tracer::new(sink),
        )?,
        Err(_) => EasScheduler::full().schedule_traced(graph, platform, budget, sink)?,
    };
    Ok(DeltaOutcome {
        outcome,
        warm_start,
        reason,
        edits: applied.edits.len(),
        mask_tasks: mask.len(),
    })
}

/// Rebases the prior schedule onto the edited problem: survivors keep
/// their PE and relative order, added tasks are inserted cheapest-PE
/// first before their first descendant, stranded tasks (on failed PEs)
/// evacuate to the cheapest alive PE anchored near their prior start.
fn plan_warm_start(
    prior_schedule: &Schedule,
    platform: &Platform,
    applied: &AppliedEdits,
) -> Result<Schedule, &'static str> {
    let graph = &applied.graph;
    if applied.edits.len() >= graph.task_count() {
        return Err(REASON_EDIT_STORM);
    }
    let analysis = GraphAnalysis::new(graph);
    let n = graph.task_count();
    // Prior start times keyed by new id (added tasks have none).
    let mut prior_start: Vec<Option<Time>> = vec![None; n];
    let mut assignment: Vec<Option<PeId>> = vec![None; n];
    for (old, new) in applied.id_map.iter().enumerate() {
        if let Some(new) = new {
            let placement = prior_schedule.task(TaskId::new(old as u32));
            assignment[new.index()] = Some(placement.pe);
            prior_start[new.index()] = Some(placement.start);
        }
    }
    let mut order: Vec<Vec<TaskId>> = platform
        .pes()
        .map(|pe| {
            prior_schedule
                .tasks_on(pe)
                .into_iter()
                .filter_map(|old| applied.id_map[old.index()])
                .collect()
        })
        .collect();

    let place = |t: TaskId, assignment: &[Option<PeId>]| -> Result<PeId, &'static str> {
        let mut best: Option<(Energy, PeId)> = None;
        for k in platform.alive_pes() {
            let e = attach_energy(graph, platform, assignment, t, k);
            let better = match best {
                None => true,
                Some((be, bk)) => {
                    (e, k.index()).partial_cmp(&(be, bk.index())) == Some(std::cmp::Ordering::Less)
                }
            };
            if better {
                best = Some((e, k));
            }
        }
        best.map(|(_, k)| k).ok_or(REASON_NO_ALIVE_PE)
    };

    // Added tasks, ascending new id: cheapest alive PE, anchored before
    // their first already-queued descendant (so dependencies can order).
    for &a in &applied.added {
        let dst = place(a, &assignment)?;
        assignment[a.index()] = Some(dst);
        let queue = &mut order[dst.index()];
        let anchor = queue
            .iter()
            .position(|&x| analysis.is_ancestor(a, x))
            .unwrap_or(queue.len());
        queue.insert(anchor, a);
    }

    // Stranded survivors (their prior PE is now dead): evacuate
    // ascending new id, anchored near their prior start time.
    let stranded: Vec<TaskId> = graph
        .task_ids()
        .filter(|t| {
            let pe = assignment[t.index()].expect("every task assigned");
            !platform.pe_alive(pe)
        })
        .collect();
    for t in stranded {
        let src = assignment[t.index()].expect("assigned");
        order[src.index()].retain(|&x| x != t);
        assignment[t.index()] = None;
        let dst = place(t, &assignment)?;
        assignment[t.index()] = Some(dst);
        let old_start = prior_start[t.index()].unwrap_or(Time::INFINITY);
        let queue = &mut order[dst.index()];
        let anchor = queue
            .iter()
            .position(|&x| prior_start[x.index()].unwrap_or(Time::INFINITY) > old_start)
            .unwrap_or(queue.len());
        queue.insert(anchor, t);
    }

    let oa = OrderedAssignment {
        assignment: assignment
            .into_iter()
            .map(|p| p.expect("every task assigned"))
            .collect(),
        order,
    };
    retime(graph, platform, &oa).ok_or(REASON_RETIME_DEADLOCK)
}

/// Energy of attaching `t` to PE `k` given the partial assignment:
/// execution energy plus transfer energy of every already-assigned
/// neighbor — the same cost shape as the GTM destination ordering.
fn attach_energy(
    graph: &TaskGraph,
    platform: &Platform,
    assignment: &[Option<PeId>],
    t: TaskId,
    k: PeId,
) -> Energy {
    let mut total = graph.task(t).exec_energy(k);
    for &e in graph.incoming(t) {
        let edge = graph.edge(e);
        if let Some(src) = assignment[edge.src.index()] {
            total += platform.transfer_energy(src.tile(), k.tile(), edge.volume);
        }
    }
    for &e in graph.outgoing(t) {
        let edge = graph.edge(e);
        if let Some(dst) = assignment[edge.dst.index()] {
            total += platform.transfer_energy(k.tile(), dst.tile(), edge.volume);
        }
    }
    total
}

//! Step 3 of EAS: the search-and-repair procedure (Fig. 4).
//!
//! When the energy-first level schedule misses deadlines, two kinds of
//! greedy moves fix it:
//!
//! * **LTS — local task swapping**: reorder a *critical* task (a missed
//!   task or one of its ancestors) before a non-critical task on the
//!   same PE. Energy-neutral by construction (assignments unchanged).
//! * **GTM — global task migration**: move a critical task to another
//!   PE, trying destinations in increasing order of the energy increase
//!   it would cause, accepting the first move that reduces misses.
//!
//! "Reduces the deadline misses" is made precise as a lexicographic
//! decrease of `(miss count, total tardiness)`; since both components
//! are well-founded, the greedy procedure always converges (the paper's
//! convergence remark).

use noc_ctg::analysis::GraphAnalysis;
use noc_ctg::task::TaskId;
use noc_ctg::TaskGraph;
use noc_platform::tile::PeId;
use noc_platform::units::{Energy, Time};
use noc_platform::Platform;
use noc_schedule::Schedule;

use crate::comm::incoming_comm_energy;
use crate::limit::{ComputeBudget, Interrupt};
use crate::retime::{retime, OrderedAssignment};
use crate::trace::{EventKind, Tracer};

/// Counters describing one repair run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairStats {
    /// Accepted local task swaps.
    pub lts_accepted: usize,
    /// Accepted global task migrations.
    pub gtm_accepted: usize,
    /// Candidate re-timings evaluated (accepted + rejected).
    pub trials: usize,
}

/// Upper bound on candidate evaluations per repair run, guarding batch
/// experiments against pathological graphs. Generously above anything
/// the paper-scale benchmarks need.
pub const MAX_REPAIR_TRIALS: usize = 500_000;

type Badness = (usize, Time);

fn badness(schedule: &Schedule, graph: &TaskGraph) -> Badness {
    let misses = schedule.deadline_misses(graph);
    let tardiness: Time = misses.iter().map(|(_, t)| *t).sum();
    (misses.len(), tardiness)
}

/// Critical tasks: every task that misses its deadline plus all their
/// ancestors (the paper notes a critical task "may not necessarily have
/// a specified deadline, but it causes one of its descendant tasks to
/// miss its deadline"). Ascending id.
fn critical_tasks(graph: &TaskGraph, schedule: &Schedule) -> Vec<TaskId> {
    let analysis = GraphAnalysis::new(graph);
    let missed: Vec<TaskId> = schedule
        .deadline_misses(graph)
        .into_iter()
        .map(|(t, _)| t)
        .collect();
    let mut critical = vec![false; graph.task_count()];
    for &m in &missed {
        critical[m.index()] = true;
        for a in analysis.ancestors_of(m) {
            critical[a.index()] = true;
        }
    }
    critical
        .iter()
        .enumerate()
        .filter(|(_, &c)| c)
        .map(|(i, _)| TaskId::new(i as u32))
        .collect()
}

/// Runs search and repair on `schedule`, returning the repaired schedule
/// (or the best-effort result if misses cannot be fully fixed) together
/// with run statistics.
///
/// The input schedule is first *rebased* through [`retime`] so all
/// candidate moves are compared on identical re-timing semantics; if the
/// input already meets every deadline it is returned unchanged.
#[must_use]
pub fn search_and_repair(
    graph: &TaskGraph,
    platform: &Platform,
    schedule: Schedule,
) -> (Schedule, RepairStats) {
    search_and_repair_traced(
        graph,
        platform,
        schedule,
        &ComputeBudget::unlimited(),
        &mut Tracer::off(),
    )
    .expect("unlimited budget never interrupts")
}

/// [`search_and_repair`] under its pre-serial signature: `threads` is
/// ignored, because GTM candidates are always re-timed serially, like
/// the level scheduler's F(i,k) trials. Called only by perf_ledger's
/// replay, outside the workspace; it goes once that replay calls
/// [`search_and_repair`].
#[must_use]
pub fn search_and_repair_threads(
    graph: &TaskGraph,
    platform: &Platform,
    schedule: Schedule,
    threads: usize,
) -> (Schedule, RepairStats) {
    let _ = threads;
    search_and_repair(graph, platform, schedule)
}

/// [`search_and_repair`] with a [`ComputeBudget`] polled before every
/// candidate re-timing, LTS and GTM alike, and every *accepted* move
/// traced — [`EventKind::LtsSwap`] / [`EventKind::GtmMove`] with the
/// post-move badness and trial count — in acceptance order. Rejected
/// candidates are deliberately not traced (there can be hundreds of
/// thousands); the `trials` counter carries their cost.
///
/// All candidate state is local to the call: an interrupt simply drops
/// the partially repaired schedule, so no reservation or ordering
/// change survives it.
///
/// # Errors
///
/// The [`Interrupt`] that fired.
pub fn search_and_repair_traced(
    graph: &TaskGraph,
    platform: &Platform,
    schedule: Schedule,
    budget: &ComputeBudget,
    tracer: &mut Tracer<'_>,
) -> Result<(Schedule, RepairStats), Interrupt> {
    let mut stats = RepairStats::default();
    if badness(&schedule, graph).0 == 0 {
        return Ok((schedule, stats));
    }

    let mut oa = OrderedAssignment::from_schedule(&schedule, platform);
    let mut current = match retime(graph, platform, &oa) {
        Some(s) => s,
        None => return Ok((schedule, stats)), // cannot rebase: keep original
    };
    let mut best = badness(&current, graph);
    if best.0 == 0 {
        return Ok((current, stats));
    }

    loop {
        // --- LTS mode: swap critical tasks earlier on their own PE. ---
        let mut lts_improved = true;
        'lts: while lts_improved && best.0 > 0 && stats.trials < MAX_REPAIR_TRIALS {
            lts_improved = false;
            let crit = critical_tasks(graph, &current);
            let is_crit = {
                let mut v = vec![false; graph.task_count()];
                for &c in &crit {
                    v[c.index()] = true;
                }
                v
            };
            for &t1 in &crit {
                let pe = oa.assignment[t1.index()];
                let pos1 = oa.position(t1);
                // Try to pull t1 before each earlier non-critical task.
                for pos2 in 0..pos1 {
                    let t2 = oa.order[pe.index()][pos2];
                    if is_crit[t2.index()] {
                        continue;
                    }
                    budget.check()?;
                    oa.swap(t1, t2);
                    stats.trials += 1;
                    let candidate = retime(graph, platform, &oa);
                    let improved = candidate.as_ref().is_some_and(|c| badness(c, graph) < best);
                    if improved {
                        current = candidate.expect("checked");
                        best = badness(&current, graph);
                        stats.lts_accepted += 1;
                        if tracer.on() {
                            tracer.emit(EventKind::LtsSwap {
                                task: t1.index(),
                                with: t2.index(),
                                misses: best.0,
                                tardiness_ticks: best.1.ticks(),
                                trials: stats.trials,
                            });
                        }
                        lts_improved = true;
                        continue 'lts; // restart with fresh critical set
                    }
                    oa.swap(t1, t2); // roll back
                    if stats.trials >= MAX_REPAIR_TRIALS {
                        break 'lts;
                    }
                }
            }
        }
        if best.0 == 0 || stats.trials >= MAX_REPAIR_TRIALS {
            break;
        }

        // --- GTM mode: migrate one critical task, cheapest energy first. ---
        let crit = critical_tasks(graph, &current);
        let mut migrated = false;
        'gtm: for &t in &crit {
            let src = oa.assignment[t.index()];
            // Dead PEs are masked out of the candidate destinations, so
            // repair on a faulted platform never re-strands a task.
            let mut destinations: Vec<(Energy, PeId)> = platform
                .alive_pes()
                .filter(|&k| k != src)
                .map(|k| (migration_energy(graph, platform, &current, t, k), k))
                .collect();
            destinations.sort_by(|a, b| {
                (a.0, a.1.index())
                    .partial_cmp(&(b.0, b.1.index()))
                    .expect("finite energies")
            });
            let old_start = current.task(t).start;
            let src_pos = oa.position(t);
            for &(energy, dst) in &destinations {
                budget.check()?;
                if stats.trials >= MAX_REPAIR_TRIALS {
                    break 'gtm;
                }
                // Insert keeping the destination queue sorted by current
                // start times.
                let anchor = oa.order[dst.index()]
                    .iter()
                    .position(|&x| current.task(x).start > old_start)
                    .unwrap_or(oa.order[dst.index()].len());
                oa.migrate(t, dst, anchor);
                stats.trials += 1;
                let improved = retime(graph, platform, &oa)
                    .map(|c| {
                        let b = badness(&c, graph);
                        (c, b)
                    })
                    .filter(|(_, b)| *b < best);
                if let Some((c, b)) = improved {
                    current = c;
                    best = b;
                    stats.gtm_accepted += 1;
                    if tracer.on() {
                        tracer.emit(EventKind::GtmMove {
                            task: t.index(),
                            to_pe: dst.index(),
                            energy_nj: energy.as_nj(),
                            misses: best.0,
                            tardiness_ticks: best.1.ticks(),
                            trials: stats.trials,
                        });
                    }
                    migrated = true;
                    break 'gtm;
                }
                oa.migrate(t, src, src_pos); // roll back
            }
        }
        if !migrated {
            break; // Fig. 4: no critical task helps — give up.
        }
    }

    Ok((current, stats))
}

/// Masked-resource re-repair: adapts a schedule built for a pristine
/// platform to `platform`'s fault set instead of discarding it.
///
/// Tasks assigned to dead PEs are first *evacuated* (ascending task id)
/// to the alive PE with the lowest migration energy (ties: lowest PE
/// id), inserted into the destination queue at the position matching
/// their original start time. The evacuated assignment is re-timed on
/// the faulted platform — whose fault-aware routes already detour
/// around dead links, so the Fig. 3 link tables only ever reserve
/// surviving links — and then handed to [`search_and_repair`], which
/// masks dead PEs out of its GTM candidate list. The combined pass re-runs the paper's Step 3 with
/// failed resources masked, recovering deadlines where slack permits.
///
/// Returns `None` when the evacuated order cannot be re-timed (a
/// cross-PE ordering deadlock); callers should fall back to scheduling
/// from scratch on the faulted platform.
#[must_use]
pub fn repair_with_faults(
    graph: &TaskGraph,
    platform: &Platform,
    schedule: &Schedule,
) -> Option<(Schedule, RepairStats)> {
    let mut oa = OrderedAssignment::from_schedule(schedule, platform);
    let stranded: Vec<TaskId> = graph
        .task_ids()
        .filter(|t| !platform.pe_alive(oa.assignment[t.index()]))
        .collect();
    for t in stranded {
        let old_start = schedule.task(t).start;
        let mut dests: Vec<(Energy, PeId)> = platform
            .alive_pes()
            .map(|k| (migration_energy(graph, platform, schedule, t, k), k))
            .collect();
        dests.sort_by(|a, b| {
            (a.0, a.1.index())
                .partial_cmp(&(b.0, b.1.index()))
                .expect("finite energies")
        });
        let dst = dests.first()?.1;
        let anchor = oa.order[dst.index()]
            .iter()
            .position(|&x| schedule.task(x).start > old_start)
            .unwrap_or(oa.order[dst.index()].len());
        oa.migrate(t, dst, anchor);
    }
    let rebased = retime(graph, platform, &oa)?;
    Some(search_and_repair(graph, platform, rebased))
}

/// The energy of task `t` if migrated to `k` under the current
/// placements: execution energy plus incoming and outgoing transfer
/// energy (all neighbours are placed in a complete schedule).
fn migration_energy(
    graph: &TaskGraph,
    platform: &Platform,
    schedule: &Schedule,
    t: TaskId,
    k: PeId,
) -> Energy {
    let placements: Vec<Option<noc_schedule::TaskPlacement>> = schedule
        .task_placements()
        .iter()
        .copied()
        .map(Some)
        .collect();
    let incoming = incoming_comm_energy(graph, platform, &placements, t, k);
    let outgoing: Energy = graph
        .outgoing(t)
        .iter()
        .map(|&e| {
            let edge = graph.edge(e);
            let consumer = schedule.task(edge.dst).pe.tile();
            platform.transfer_energy(k.tile(), consumer, edge.volume)
        })
        .sum();
    graph.task(t).exec_energy(k) + incoming + outgoing
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_ctg::task::Task;
    use noc_platform::prelude::*;
    use noc_schedule::validate;

    fn platform() -> Platform {
        Platform::builder()
            .topology(TopologySpec::mesh(2, 2))
            .link_bandwidth(32.0)
            .build()
            .unwrap()
    }

    /// Two independent tasks on one PE: `late` has a deadline of 100 but
    /// is queued second. LTS must swap it first.
    #[test]
    fn lts_swaps_critical_task_earlier() {
        let p = platform();
        let mut b = TaskGraph::builder("lts", 4);
        let filler = b.add_task(Task::uniform(
            "filler",
            4,
            Time::new(100),
            Energy::from_nj(1.0),
        ));
        let late = b.add_task(
            Task::uniform("late", 4, Time::new(100), Energy::from_nj(1.0))
                .with_deadline(Time::new(100)),
        );
        let g = b.build().unwrap();
        let oa = OrderedAssignment {
            assignment: vec![PeId::new(0), PeId::new(0)],
            order: vec![vec![filler, late], vec![], vec![], vec![]],
        };
        let bad = retime(&g, &p, &oa).unwrap();
        assert_eq!(bad.deadline_misses(&g).len(), 1);
        let (fixed, stats) = search_and_repair(&g, &p, bad);
        assert!(fixed.deadline_misses(&g).is_empty());
        assert!(stats.lts_accepted >= 1);
        assert_eq!(stats.gtm_accepted, 0, "swap suffices, no migration needed");
        validate(&fixed, &g, &p).expect("valid");
        // LTS is energy-neutral.
        let s = noc_schedule::ScheduleStats::compute(&fixed, &g, &p);
        assert!((s.energy.total().as_nj() - 2.0).abs() < 1e-9);
    }

    /// Two deadline tasks overloading one PE: swapping cannot fix both,
    /// a migration must move one away.
    #[test]
    fn gtm_migrates_when_swapping_cannot_help() {
        let p = platform();
        let mut b = TaskGraph::builder("gtm", 4);
        let t0 = b.add_task(
            Task::uniform("t0", 4, Time::new(100), Energy::from_nj(1.0))
                .with_deadline(Time::new(110)),
        );
        let t1 = b.add_task(
            Task::uniform("t1", 4, Time::new(100), Energy::from_nj(1.0))
                .with_deadline(Time::new(110)),
        );
        let g = b.build().unwrap();
        let oa = OrderedAssignment {
            assignment: vec![PeId::new(0), PeId::new(0)],
            order: vec![vec![t0, t1], vec![], vec![], vec![]],
        };
        let bad = retime(&g, &p, &oa).unwrap();
        assert_eq!(bad.deadline_misses(&g).len(), 1);
        let (fixed, stats) = search_and_repair(&g, &p, bad);
        assert!(fixed.deadline_misses(&g).is_empty());
        assert!(stats.gtm_accepted >= 1);
        validate(&fixed, &g, &p).expect("valid");
        // The two tasks now sit on different PEs.
        assert_ne!(fixed.task(t0).pe, fixed.task(t1).pe);
    }

    #[test]
    fn already_feasible_schedule_is_returned_unchanged() {
        let p = platform();
        let mut b = TaskGraph::builder("ok", 4);
        let t = b.add_task(
            Task::uniform("t", 4, Time::new(10), Energy::from_nj(1.0))
                .with_deadline(Time::new(100)),
        );
        let g = b.build().unwrap();
        let oa = OrderedAssignment {
            assignment: vec![PeId::new(2)],
            order: vec![vec![], vec![], vec![t], vec![]],
        };
        let good = retime(&g, &p, &oa).unwrap();
        let (same, stats) = search_and_repair(&g, &p, good.clone());
        assert_eq!(same, good);
        assert_eq!(stats, RepairStats::default());
    }

    /// An unfixable graph (deadline shorter than any execution time)
    /// terminates gracefully with the misses intact.
    #[test]
    fn impossible_deadline_terminates() {
        let p = platform();
        let mut b = TaskGraph::builder("doom", 4);
        let t = b.add_task(
            Task::uniform("t", 4, Time::new(100), Energy::from_nj(1.0))
                .with_deadline(Time::new(10)),
        );
        let g = b.build().unwrap();
        let oa = OrderedAssignment {
            assignment: vec![PeId::new(0)],
            order: vec![vec![t], vec![], vec![], vec![]],
        };
        let bad = retime(&g, &p, &oa).unwrap();
        let (out, _) = search_and_repair(&g, &p, bad);
        assert_eq!(out.deadline_misses(&g).len(), 1);
    }

    /// A schedule struck by a PE fault is evacuated, re-timed on the
    /// faulted platform and repaired — never placing anything on the
    /// dead PE.
    #[test]
    fn repair_with_faults_evacuates_dead_pes() {
        use crate::scheduler::Scheduler;
        let pristine = platform();
        let mut b = TaskGraph::builder("fault", 4);
        let mk = |n: &str| {
            Task::uniform(n, 4, Time::new(100), Energy::from_nj(1.0))
                .with_deadline(Time::new(1_000))
        };
        let a = b.add_task(mk("a"));
        let c = b.add_task(mk("c"));
        let d = b.add_task(mk("d"));
        b.add_edge(a, c, noc_platform::units::Volume::from_bits(320))
            .unwrap();
        let g = b.build().unwrap();
        let schedule = crate::EasScheduler::full()
            .schedule(&g, &pristine)
            .unwrap()
            .schedule;

        // Kill the PE hosting task `a` (corner kills keep 2x2 connected).
        let dead = schedule.task(a).pe;
        let faulted = Platform::builder()
            .topology(TopologySpec::mesh(2, 2))
            .link_bandwidth(32.0)
            .faults(FaultSet::parse(&format!("tile:{}", dead.index())).unwrap())
            .build()
            .unwrap();
        let (repaired, _) =
            repair_with_faults(&g, &faulted, &schedule).expect("evacuation re-times");
        for t in [a, c, d] {
            assert_ne!(repaired.task(t).pe, dead, "task {t} still on dead PE");
        }
        validate(&repaired, &g, &faulted).expect("valid on the faulted platform");
        // Deterministic: a second run reproduces the schedule exactly.
        let (again, _) = repair_with_faults(&g, &faulted, &schedule).unwrap();
        assert_eq!(again, repaired);
    }

    /// Link faults alone re-time the schedule onto detour routes.
    #[test]
    fn repair_with_faults_handles_link_faults() {
        use crate::scheduler::Scheduler;
        let pristine = Platform::builder()
            .topology(TopologySpec::mesh(2, 2))
            .pe_mix(PeCatalog::date04().cycle_mix())
            .build()
            .unwrap();
        let mut b = TaskGraph::builder("linkfault", 4);
        let a = b.add_task(
            Task::uniform("a", 4, Time::new(100), Energy::from_nj(1.0))
                .with_deadline(Time::new(2_000)),
        );
        let c = b.add_task(
            Task::uniform("c", 4, Time::new(100), Energy::from_nj(1.0))
                .with_deadline(Time::new(2_000)),
        );
        b.add_edge(a, c, noc_platform::units::Volume::from_bits(640))
            .unwrap();
        let g = b.build().unwrap();
        let schedule = crate::EasScheduler::full()
            .schedule(&g, &pristine)
            .unwrap()
            .schedule;
        let faulted = Platform::builder()
            .topology(TopologySpec::mesh(2, 2))
            .pe_mix(PeCatalog::date04().cycle_mix())
            .faults(FaultSet::parse("link:0-1").unwrap())
            .build()
            .unwrap();
        let (repaired, _) = repair_with_faults(&g, &faulted, &schedule).expect("re-times");
        validate(&repaired, &g, &faulted).expect("valid with detour routes");
    }

    /// GTM prefers the energetically cheapest destination that fixes the
    /// miss.
    #[test]
    fn gtm_tries_cheap_destinations_first() {
        // Heterogeneous energies: moving to PE1 is cheaper than PE2/PE3.
        let p = platform();
        let mut b = TaskGraph::builder("cheap", 4);
        let t0 = b.add_task(
            Task::new(
                "t0",
                vec![Time::new(100); 4],
                vec![
                    Energy::from_nj(1.0),
                    Energy::from_nj(2.0),
                    Energy::from_nj(50.0),
                    Energy::from_nj(50.0),
                ],
            )
            .with_deadline(Time::new(110)),
        );
        let t1 = b.add_task(
            Task::new(
                "t1",
                vec![Time::new(100); 4],
                vec![
                    Energy::from_nj(1.0),
                    Energy::from_nj(2.0),
                    Energy::from_nj(50.0),
                    Energy::from_nj(50.0),
                ],
            )
            .with_deadline(Time::new(110)),
        );
        let g = b.build().unwrap();
        let oa = OrderedAssignment {
            assignment: vec![PeId::new(0), PeId::new(0)],
            order: vec![vec![t0, t1], vec![], vec![], vec![]],
        };
        let bad = retime(&g, &p, &oa).unwrap();
        let (fixed, _) = search_and_repair(&g, &p, bad);
        assert!(fixed.deadline_misses(&g).is_empty());
        // One stays on PE0, the migrated one went to the cheap PE1.
        let pes: Vec<PeId> = vec![fixed.task(t0).pe, fixed.task(t1).pe];
        assert!(pes.contains(&PeId::new(0)));
        assert!(pes.contains(&PeId::new(1)));
    }
}

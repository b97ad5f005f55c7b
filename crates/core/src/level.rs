//! Step 2 of EAS: level-based scheduling.
//!
//! Repeatedly, for every ready task `t_i` and every PE `p_k`, the
//! earliest finish `F(i,k)` is computed by trial-scheduling the task's
//! receiving transactions and the task itself (Eq. 4, tables restored
//! afterwards). Then:
//!
//! * if some task already busts its budgeted deadline
//!   (`min_F(i) >= BD_i`), the most-over-budget task is scheduled
//!   immediately on its fastest PE (urgency rule, Step 2.3);
//! * otherwise every task could still meet its budget somewhere; each
//!   task's budget-feasible PE list `L_i` is ranked by energy (execution
//!   plus incoming communication) and the task with the largest energy
//!   regret `δE = E2 − E1` — the one that would lose the most by not
//!   getting its favourite PE — is scheduled on its cheapest feasible PE
//!   (Step 2.4).

use noc_ctg::task::TaskId;
use noc_platform::tile::PeId;
use noc_platform::units::{Energy, Time};

use crate::budget::SlackBudgets;
use crate::limit::{ComputeBudget, Interrupt};
use crate::placer::{Placer, Trial};
use crate::scheduler::CommModel;
use crate::trace::{EventKind, Tracer};

/// Runs level-based scheduling to completion, mutating `placer` until
/// every task is placed.
pub fn level_schedule(placer: &mut Placer<'_>, budgets: &SlackBudgets, model: CommModel) {
    level_schedule_traced(
        placer,
        budgets,
        model,
        &ComputeBudget::unlimited(),
        &mut Tracer::off(),
    )
    .expect("unlimited budget never interrupts");
}

/// [`level_schedule`] under its pre-serial signature: `threads` is
/// ignored, because F(i,k) trials are always evaluated serially (a
/// per-round thread fan-out ran at 0.40–0.47× the serial speed on two
/// CPUs). Called only by perf_ledger's replay, outside the workspace;
/// it goes once that replay calls [`level_schedule`].
pub fn level_schedule_threads(
    placer: &mut Placer<'_>,
    budgets: &SlackBudgets,
    model: CommModel,
    threads: usize,
) {
    let _ = threads;
    level_schedule(placer, budgets, model);
}

/// Level scheduling with a [`ComputeBudget`] poll at every round
/// boundary and decision tracing into `tracer` (pass [`Tracer::off`]
/// when untraced).
///
/// Each round evaluates `F(i,k)` for the whole ready level, task-major
/// in PE order, through the placer's epoch-validated trial cache. The
/// budget is polled once per round, *before* any trial of the round
/// runs: an interrupt can therefore only land between fully committed
/// placements, never mid-commit. On interrupt the placer holds only
/// committed placements — discarding it leaves no observable state, and
/// an uninterrupted rerun of the same problem is byte-identical.
///
/// # Errors
///
/// The [`Interrupt`] that fired.
pub(crate) fn level_schedule_traced(
    placer: &mut Placer<'_>,
    budgets: &SlackBudgets,
    model: CommModel,
    budget: &ComputeBudget,
    tracer: &mut Tracer<'_>,
) -> Result<(), Interrupt> {
    // Candidate PEs: dead ones (platform faults) are masked out.
    let pes: Vec<PeId> = placer.platform().alive_pes().collect();
    let n_pe = pes.len();
    // `energy_for(t, k)` reads only the placements of `t`'s senders,
    // which are fixed once `t` is ready: each task's row (one energy per
    // candidate PE) is computed the first round it is ready.
    let task_count = placer.graph().task_count();
    let mut energies = vec![Energy::ZERO; task_count * n_pe];
    let mut energies_known = vec![false; task_count];
    // Per-round buffers, reused: the ready level and its F(i,k) trials,
    // task-major in PE order (row `i` is ready task `i`).
    let mut ready: Vec<TaskId> = Vec::new();
    let mut trials: Vec<Trial> = Vec::new();
    let mut round = 0usize;
    while !placer.is_done() {
        budget.check()?;
        ready.clear();
        ready.extend_from_slice(placer.ready_tasks());
        debug_assert!(!ready.is_empty(), "DAG guarantees progress");

        let span = tracer.on().then(|| format!("level:{round}"));
        if let Some(span) = &span {
            tracer.begin(span);
        }
        round += 1;

        trials.clear();
        for &t in &ready {
            if !energies_known[t.index()] {
                energies_known[t.index()] = true;
                let row = &mut energies[t.index() * n_pe..][..n_pe];
                for (e, &k) in row.iter_mut().zip(&pes) {
                    *e = placer.energy_for(t, k);
                }
            }
            for &k in &pes {
                let (trial, cache_hit) = placer.cached_trial(t, k, model);
                if tracer.on() {
                    tracer.emit(EventKind::Trial {
                        task: t.index(),
                        pe: k.index(),
                        start: trial.start.ticks(),
                        finish: trial.finish.ticks(),
                        cache_hit,
                    });
                }
                trials.push(trial);
            }
        }
        let trials_of = |i: usize| &trials[i * n_pe..][..n_pe];
        let energies_of = |t: TaskId| &energies[t.index() * n_pe..][..n_pe];

        // Urgency rule: schedule the most-over-budget task ASAP.
        let mut urgent: Option<(usize, Time)> = None; // (ready idx, excess)
        for (i, &t) in ready.iter().enumerate() {
            let bd = budgets.budgeted_deadline(t);
            if bd.is_infinite() {
                continue;
            }
            let min_f = trials_of(i)
                .iter()
                .map(|trial| trial.finish)
                .min()
                .expect("at least one PE");
            if min_f >= bd {
                let excess = min_f - bd;
                if urgent.is_none_or(|(_, e)| excess > e) {
                    urgent = Some((i, excess));
                }
            }
        }
        if let Some((i, excess)) = urgent {
            let t = ready[i];
            let j = best_finish_pe(&pes, trials_of(i), energies_of(t));
            if tracer.on() {
                tracer.emit(EventKind::Select {
                    task: t.index(),
                    pe: pes[j].index(),
                    rule: "urgency",
                    excess_ticks: Some(excess.ticks()),
                    regret_nj: None,
                    feasible: feasible(trials_of(i), budgets.budgeted_deadline(t)),
                    energy_nj: energies_of(t)[j].as_nj(),
                    start: trials_of(i)[j].start.ticks(),
                    finish: trials_of(i)[j].finish.ticks(),
                });
            }
            placer.commit_traced(t, pes[j], tracer);
            if let Some(span) = &span {
                tracer.end(span);
            }
            continue;
        }

        // Energy-regret rule: δE = E2 − E1 over the budget-feasible PEs.
        let mut best: Option<(usize, f64, usize)> = None; // (ready idx, δE, E1's PE idx)
        for (i, &t) in ready.iter().enumerate() {
            let bd = budgets.budgeted_deadline(t);
            let row = trials_of(i);
            let mut e1: Option<(Energy, Time, usize)> = None;
            let mut e2: Option<Energy> = None;
            for (j, &e) in energies_of(t).iter().enumerate() {
                let f = row[j].finish;
                if f > bd {
                    continue; // not budget-feasible
                }
                match e1 {
                    None => e1 = Some((e, f, j)),
                    Some((be, bf, bj)) => {
                        if (e, f, pes[j].index()) < (be, bf, pes[bj].index()) {
                            e2 = Some(be);
                            e1 = Some((e, f, j));
                        } else if e2.is_none_or(|s| e < s) {
                            e2 = Some(e);
                        }
                    }
                }
            }
            let (e1, j1) = match e1 {
                Some((e, _, j)) => (e, j),
                // All PEs bust the budget, yet the urgency rule did not
                // fire: only possible when min_F == BD triggers urgency
                // first, so this branch is unreachable for finite BD; for
                // safety fall back to the fastest PE.
                None => {
                    let j = best_finish_pe(&pes, row, energies_of(t));
                    (energies_of(t)[j], j)
                }
            };
            let delta = match e2 {
                Some(e2) => (e2 - e1).as_nj(),
                None => f64::INFINITY, // single feasible PE: must take it now
            };
            if best.is_none_or(|(_, d, _)| delta > d) {
                best = Some((i, delta, j1));
            }
        }
        let (i, delta, j) = best.expect("nonempty ready list");
        let t = ready[i];
        if tracer.on() {
            tracer.emit(EventKind::Select {
                task: t.index(),
                pe: pes[j].index(),
                rule: "regret",
                excess_ticks: None,
                regret_nj: delta.is_finite().then_some(delta),
                feasible: feasible(trials_of(i), budgets.budgeted_deadline(t)),
                energy_nj: energies_of(t)[j].as_nj(),
                start: trials_of(i)[j].start.ticks(),
                finish: trials_of(i)[j].finish.ticks(),
            });
        }
        placer.commit_traced(t, pes[j], tracer);
        if let Some(span) = &span {
            tracer.end(span);
        }
    }
    Ok(())
}

/// The index into `pes` of the PE giving the earliest finish (ties:
/// lower energy, then lower id). `trials` and `energies` are indexed
/// like `pes`.
fn best_finish_pe(pes: &[PeId], trials: &[Trial], energies: &[Energy]) -> usize {
    let key = |j: usize| (trials[j].finish, energies[j], pes[j].index());
    (1..pes.len()).fold(0, |best, j| if key(j) < key(best) { j } else { best })
}

/// How many of a task's trials finish within its budgeted deadline.
fn feasible(trials: &[Trial], bd: Time) -> usize {
    trials.iter().filter(|trial| trial.finish <= bd).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::WeightFunction;
    use noc_ctg::task::Task;
    use noc_ctg::TaskGraph;
    use noc_platform::prelude::*;
    use noc_platform::units::Volume;
    use noc_schedule::validate;

    fn platform() -> Platform {
        Platform::builder()
            .topology(TopologySpec::mesh(2, 2))
            .link_bandwidth(32.0)
            .build()
            .unwrap()
    }

    /// One task, cheap on PE2, fast on PE0, loose deadline: the energy
    /// rule must pick the cheap PE.
    #[test]
    fn loose_deadline_prefers_cheap_pe() {
        let p = platform();
        let mut b = TaskGraph::builder("cheap", 4);
        let t = b.add_task(
            Task::new(
                "t",
                vec![
                    Time::new(50),
                    Time::new(100),
                    Time::new(200),
                    Time::new(100),
                ],
                vec![
                    Energy::from_nj(100.0),
                    Energy::from_nj(60.0),
                    Energy::from_nj(10.0),
                    Energy::from_nj(60.0),
                ],
            )
            .with_deadline(Time::new(1_000)),
        );
        let g = b.build().unwrap();
        let budgets = SlackBudgets::compute(&g, WeightFunction::VarEnergyTimesVarTime);
        let mut placer = Placer::new(&g, &p).unwrap();
        level_schedule(&mut placer, &budgets, CommModel::Contention);
        let s = placer.into_schedule();
        assert_eq!(s.task(t).pe, PeId::new(2));
        assert!(validate(&s, &g, &p).unwrap().meets_deadlines());
    }

    /// Same task with a deadline only the fast PE can meet: the urgency /
    /// feasibility machinery must pick the fast PE.
    #[test]
    fn tight_deadline_forces_fast_pe() {
        let p = platform();
        let mut b = TaskGraph::builder("tight", 4);
        let t = b.add_task(
            Task::new(
                "t",
                vec![
                    Time::new(50),
                    Time::new(100),
                    Time::new(200),
                    Time::new(100),
                ],
                vec![
                    Energy::from_nj(100.0),
                    Energy::from_nj(60.0),
                    Energy::from_nj(10.0),
                    Energy::from_nj(60.0),
                ],
            )
            .with_deadline(Time::new(60)),
        );
        let g = b.build().unwrap();
        let budgets = SlackBudgets::compute(&g, WeightFunction::VarEnergyTimesVarTime);
        let mut placer = Placer::new(&g, &p).unwrap();
        level_schedule(&mut placer, &budgets, CommModel::Contention);
        let s = placer.into_schedule();
        assert_eq!(s.task(t).pe, PeId::new(0));
        assert!(validate(&s, &g, &p).unwrap().meets_deadlines());
    }

    /// A diamond with remote data: the result must always be a valid
    /// schedule (dependencies, link compatibility) whatever the choices.
    #[test]
    fn diamond_schedule_is_structurally_valid() {
        let p = platform();
        let mut b = TaskGraph::builder("diamond", 4);
        let mk = |n: &str| Task::uniform(n, 4, Time::new(100), Energy::from_nj(10.0));
        let a = b.add_task(mk("a"));
        let x = b.add_task(mk("x"));
        let y = b.add_task(mk("y"));
        let d = b.add_task(mk("d").with_deadline(Time::new(5_000)));
        b.add_edge(a, x, Volume::from_bits(640)).unwrap();
        b.add_edge(a, y, Volume::from_bits(640)).unwrap();
        b.add_edge(x, d, Volume::from_bits(640)).unwrap();
        b.add_edge(y, d, Volume::from_bits(640)).unwrap();
        let g = b.build().unwrap();
        let budgets = SlackBudgets::compute(&g, WeightFunction::VarEnergyTimesVarTime);
        let mut placer = Placer::new(&g, &p).unwrap();
        level_schedule(&mut placer, &budgets, CommModel::Contention);
        let s = placer.into_schedule();
        let report = validate(&s, &g, &p).expect("structurally valid");
        assert!(report.meets_deadlines());
    }

    /// Two urgent tasks: the one further over its budget is scheduled
    /// first (largest `min_F - BD`, Step 2.3).
    #[test]
    fn most_over_budget_task_goes_first() {
        let p = platform();
        let mut b = TaskGraph::builder("urgent", 4);
        // Both impossible budgets; `worse` exceeds its budget by more.
        let slightly = b.add_task(
            Task::uniform("slightly", 4, Time::new(100), Energy::from_nj(1.0))
                .with_deadline(Time::new(90)),
        );
        let worse = b.add_task(
            Task::uniform("worse", 4, Time::new(100), Energy::from_nj(1.0))
                .with_deadline(Time::new(10)),
        );
        let g = b.build().unwrap();
        let budgets = SlackBudgets::compute(&g, WeightFunction::VarEnergyTimesVarTime);
        let mut placer = Placer::new(&g, &p).unwrap();
        level_schedule(&mut placer, &budgets, CommModel::Contention);
        let s = placer.into_schedule();
        // Both start at 0 on different PEs, but `worse` must have been
        // committed first: with identical costs it gets the lowest
        // finish-optimal PE id.
        assert!(s.task(worse).pe.index() <= s.task(slightly).pe.index());
        assert_eq!(s.task(worse).start, Time::ZERO);
    }

    /// With zero heterogeneity and no deadlines, the energy rule ties on
    /// energy everywhere; scheduling must still terminate and validate.
    #[test]
    fn homogeneous_graph_terminates() {
        let p = Platform::builder()
            .topology(TopologySpec::mesh(2, 2))
            .pes(PeCatalog::homogeneous().mix_for(4))
            .build()
            .unwrap();
        let mut b = TaskGraph::builder("homo", 4);
        let mut prev: Option<TaskId> = None;
        for i in 0..6 {
            let t = b.add_task(Task::uniform(
                format!("t{i}"),
                4,
                Time::new(50),
                Energy::from_nj(5.0),
            ));
            if let Some(pr) = prev {
                b.add_edge(pr, t, Volume::from_bits(320)).unwrap();
            }
            prev = Some(t);
        }
        let g = b.build().unwrap();
        let budgets = SlackBudgets::compute(&g, WeightFunction::VarEnergyTimesVarTime);
        let mut placer = Placer::new(&g, &p).unwrap();
        level_schedule(&mut placer, &budgets, CommModel::Contention);
        let s = placer.into_schedule();
        validate(&s, &g, &p).expect("valid");
        // A chain on identical PEs should stay local: zero comm cost.
        let stats = noc_schedule::ScheduleStats::compute(&s, &g, &p);
        assert_eq!(stats.avg_hops_per_packet, 1.0);
    }
}

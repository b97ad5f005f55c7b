//! Shared placement machinery: ready-list tracking, trial `F(i,k)`
//! evaluation with rollback, and commit.
//!
//! Both the EAS level scheduler and the EDF baseline are list schedulers
//! over this state: they differ only in *which* ready task they pick and
//! *which* PE they give it.

use noc_ctg::task::TaskId;
use noc_ctg::TaskGraph;
use noc_platform::tile::PeId;
use noc_platform::units::{Energy, Time};
use noc_platform::Platform;
use noc_schedule::{CommPlacement, ResourceTables, Schedule, TaskPlacement};

use crate::cache::TrialCache;
use crate::comm::{incoming_comm_energy, schedule_incoming};
use crate::scheduler::CommModel;
use crate::trace::{EventKind, Tracer};
use crate::SchedulerError;

/// Outcome of a trial placement: when the task would run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trial {
    /// Execution start (after DRT and PE availability).
    pub start: Time,
    /// `F(i,k)` — the earliest finish of Eq. 4.
    pub finish: Time,
}

/// Incremental scheduling state over one graph and platform.
#[derive(Debug, Clone)]
pub struct Placer<'a> {
    graph: &'a TaskGraph,
    platform: &'a Platform,
    tables: ResourceTables,
    placements: Vec<Option<TaskPlacement>>,
    comms: Vec<Option<CommPlacement>>,
    unplaced_preds: Vec<usize>,
    ready: Vec<TaskId>,
    placed_count: usize,
    /// Commit counters per PE / per link; a trial's epoch stamp sums the
    /// counters of every table it reads, so an unchanged stamp proves
    /// the cached result is still exact (see [`TrialCache`]).
    pe_epochs: Vec<u64>,
    link_epochs: Vec<u64>,
    cache: TrialCache,
}

impl<'a> Placer<'a> {
    /// Creates the initial state: nothing placed, sources ready.
    ///
    /// # Errors
    ///
    /// [`SchedulerError::PeCountMismatch`] if the graph's cost vectors do
    /// not target the platform's PE count.
    pub fn new(graph: &'a TaskGraph, platform: &'a Platform) -> Result<Self, SchedulerError> {
        if graph.pe_count() != platform.tile_count() {
            return Err(SchedulerError::PeCountMismatch {
                graph: graph.pe_count(),
                platform: platform.tile_count(),
            });
        }
        let unplaced_preds: Vec<usize> =
            graph.task_ids().map(|t| graph.incoming(t).len()).collect();
        let ready: Vec<TaskId> = graph
            .task_ids()
            .filter(|t| unplaced_preds[t.index()] == 0)
            .collect();
        Ok(Placer {
            graph,
            platform,
            tables: ResourceTables::new(platform),
            placements: vec![None; graph.task_count()],
            comms: vec![None; graph.edge_count()],
            unplaced_preds,
            ready,
            placed_count: 0,
            pe_epochs: vec![0; platform.tile_count()],
            link_epochs: vec![0; platform.link_count()],
            cache: TrialCache::new(graph.task_count(), platform.tile_count()),
        })
    }

    /// The Ready Tasks List (RTL): unplaced tasks whose predecessors are
    /// all placed, ascending task id.
    #[must_use]
    pub fn ready_tasks(&self) -> &[TaskId] {
        &self.ready
    }

    /// `true` once every task is placed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.placed_count == self.graph.task_count()
    }

    /// The graph being scheduled (with the placer's full borrow
    /// lifetime, so callers can hold it across mutations of `self`).
    #[must_use]
    pub fn graph(&self) -> &'a TaskGraph {
        self.graph
    }

    /// The platform being scheduled onto (full borrow lifetime, like
    /// [`graph`](Self::graph)).
    #[must_use]
    pub fn platform(&self) -> &'a Platform {
        self.platform
    }

    /// Current (partial) placements, task-id order.
    #[must_use]
    pub fn placements(&self) -> &[Option<TaskPlacement>] {
        &self.placements
    }

    /// Computes `F(i,k)`: trial-schedules `task`'s incoming transactions
    /// and the task itself on `pe`, then restores all schedule tables
    /// (Sec. 5 Step 2.2 — "the schedule tables of both links and the PEs
    /// will be restored every time a `F(i,k)` is calculated").
    ///
    /// # Panics
    ///
    /// Panics if `task` is not ready (has unplaced predecessors).
    #[must_use]
    pub fn trial(&mut self, task: TaskId, pe: PeId, model: CommModel) -> Trial {
        let mark = self.tables.checkpoint();
        let incoming = schedule_incoming(
            self.graph,
            self.platform,
            &mut self.tables,
            &self.placements,
            task,
            pe,
            model,
        );
        let exec = self.graph.task(task).exec_time(pe);
        let start = self.tables.earliest_pe_slot(pe, incoming.drt, exec);
        self.tables.rollback(mark);
        Trial {
            start,
            finish: start + exec,
        }
    }

    /// The epoch stamp of a `(task, pe)` trial: the sum of the commit
    /// counters of every schedule table the trial reads — the PE's own
    /// table plus, under [`CommModel::Contention`], each link on the
    /// routes from the task's placed senders to `pe`'s tile. Epochs are
    /// monotone, so two equal stamps imply every summand (hence every
    /// table the trial depends on) is unchanged.
    fn trial_stamp(&self, task: TaskId, pe: PeId, model: CommModel) -> u64 {
        let mut stamp = self.pe_epochs[pe.index()];
        if model == CommModel::Contention {
            let dst_tile = pe.tile();
            for &e in self.graph.incoming(task) {
                let edge = self.graph.edge(e);
                let sender = self.placements[edge.src.index()]
                    .as_ref()
                    .expect("predecessor placed");
                let src_tile = sender.pe.tile();
                if src_tile == dst_tile || edge.volume.is_zero() {
                    continue;
                }
                for l in self.platform.route(src_tile, dst_tile) {
                    stamp += self.link_epochs[l.index()];
                }
            }
        }
        stamp
    }

    /// Cached variant of [`trial`](Self::trial): returns the memoized
    /// `F(i,k)` when the epoch stamp proves it is still exact, else
    /// recomputes and stores it. The trial is always identical to
    /// [`trial`](Self::trial)'s; the flag says whether the cache
    /// answered it.
    #[must_use]
    pub fn cached_trial(&mut self, task: TaskId, pe: PeId, model: CommModel) -> (Trial, bool) {
        // Trials roll their tables back and never touch the epochs, so
        // one stamp serves both the probe and the store.
        let stamp = self.trial_stamp(task, pe, model);
        if let Some(hit) = self.cache.probe(task.index(), pe.index(), model, stamp) {
            return (hit, true);
        }
        let trial = self.trial(task, pe, model);
        self.cache
            .store(task.index(), pe.index(), model, stamp, trial);
        (trial, false)
    }

    /// `(hits, misses)` of the trial cache since construction.
    #[must_use]
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Commits `task` to `pe`: permanently reserves its incoming
    /// transactions' link slots (always contention-aware, so the final
    /// artifact is valid regardless of the trial model) and its PE slot,
    /// and updates the ready list.
    ///
    /// # Panics
    ///
    /// Panics if `task` is not ready or was already placed.
    pub fn commit(&mut self, task: TaskId, pe: PeId) {
        self.commit_traced(task, pe, &mut Tracer::off());
    }

    /// Like [`commit`](Self::commit), recording the committed link-slot
    /// reservations (one [`CommReserve`](EventKind::CommReserve) per
    /// incoming transaction, in the deterministic LCT scheduling order)
    /// under a `comm` span.
    ///
    /// # Panics
    ///
    /// Panics if `task` is not ready or was already placed.
    pub fn commit_traced(&mut self, task: TaskId, pe: PeId, tracer: &mut Tracer<'_>) {
        let pos = self
            .ready
            .iter()
            .position(|&t| t == task)
            .expect("committed task must be in the ready list");
        self.ready.remove(pos);

        tracer.begin("comm");
        let incoming = schedule_incoming(
            self.graph,
            self.platform,
            &mut self.tables,
            &self.placements,
            task,
            pe,
            CommModel::Contention,
        );
        for (e, placement) in incoming.transactions {
            if tracer.on() {
                let src = self.graph.edge(e).src;
                let sender_finish = self.placements[src.index()]
                    .as_ref()
                    .map_or(Time::ZERO, |p| p.finish);
                tracer.emit(EventKind::CommReserve {
                    edge: e.index(),
                    src: src.index(),
                    dst: task.index(),
                    start: placement.start.ticks(),
                    finish: placement.finish.ticks(),
                    hops: placement.route.len(),
                    wait_ticks: placement.start.saturating_sub(sender_finish).ticks(),
                });
            }
            // Every committed link reservation invalidates cached trials
            // whose routes cross it (local placements have empty routes).
            for l in &placement.route {
                self.link_epochs[l.index()] += 1;
            }
            self.comms[e.index()] = Some(placement);
        }
        tracer.end("comm");
        let exec = self.graph.task(task).exec_time(pe);
        let start = self.tables.earliest_pe_slot(pe, incoming.drt, exec);
        self.tables.reserve_pe(pe, start, exec);
        self.pe_epochs[pe.index()] += 1;
        self.placements[task.index()] = Some(TaskPlacement::new(pe, start, start + exec));
        self.placed_count += 1;

        for s in self.graph.successors(task) {
            self.unplaced_preds[s.index()] -= 1;
            if self.unplaced_preds[s.index()] == 0 {
                let at = self.ready.partition_point(|&t| t < s);
                self.ready.insert(at, s);
            }
        }
    }

    /// The energy cost the paper ranks PEs by: execution energy on `pe`
    /// plus incoming communication energy given the already-placed
    /// senders (footnote 2).
    ///
    /// # Panics
    ///
    /// Panics if `task` has unplaced predecessors.
    #[must_use]
    pub fn energy_for(&self, task: TaskId, pe: PeId) -> Energy {
        self.graph.task(task).exec_energy(pe)
            + incoming_comm_energy(self.graph, self.platform, &self.placements, task, pe)
    }

    /// Finalizes into a [`Schedule`].
    ///
    /// # Panics
    ///
    /// Panics if not [`is_done`](Self::is_done).
    #[must_use]
    pub fn into_schedule(self) -> Schedule {
        assert!(self.is_done(), "cannot finalize a partial schedule");
        let tasks = self
            .placements
            .into_iter()
            .map(|p| p.expect("all tasks placed"))
            .collect();
        let comms = self
            .comms
            .into_iter()
            .map(|c| c.expect("all transactions placed"))
            .collect();
        Schedule::new(tasks, comms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_ctg::task::Task;
    use noc_platform::prelude::*;
    use noc_platform::units::Volume;

    fn platform() -> Platform {
        Platform::builder()
            .topology(TopologySpec::mesh(2, 2))
            .link_bandwidth(32.0)
            .build()
            .unwrap()
    }

    fn chain() -> TaskGraph {
        let mut b = TaskGraph::builder("chain", 4);
        let a = b.add_task(Task::uniform("a", 4, Time::new(100), Energy::from_nj(10.0)));
        let c = b.add_task(Task::uniform("c", 4, Time::new(100), Energy::from_nj(10.0)));
        b.add_edge(a, c, Volume::from_bits(320)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn sources_start_ready() {
        let p = platform();
        let g = chain();
        let placer = Placer::new(&g, &p).unwrap();
        assert_eq!(placer.ready_tasks(), &[TaskId::new(0)]);
        assert!(!placer.is_done());
    }

    #[test]
    fn pe_count_mismatch_is_rejected() {
        let p = Platform::builder()
            .topology(TopologySpec::mesh(3, 3))
            .build()
            .unwrap();
        let g = chain(); // 4-PE vectors
        assert!(matches!(
            Placer::new(&g, &p),
            Err(SchedulerError::PeCountMismatch {
                graph: 4,
                platform: 9
            })
        ));
    }

    #[test]
    fn trial_is_side_effect_free() {
        let p = platform();
        let g = chain();
        let mut placer = Placer::new(&g, &p).unwrap();
        let t1 = placer.trial(TaskId::new(0), PeId::new(0), CommModel::Contention);
        let t2 = placer.trial(TaskId::new(0), PeId::new(0), CommModel::Contention);
        assert_eq!(t1, t2, "repeated trials must see identical tables");
        assert_eq!(t1.finish, Time::new(100));
    }

    #[test]
    fn commit_updates_ready_list_and_tables() {
        let p = platform();
        let g = chain();
        let mut placer = Placer::new(&g, &p).unwrap();
        placer.commit(TaskId::new(0), PeId::new(0));
        assert_eq!(placer.ready_tasks(), &[TaskId::new(1)]);
        // Same PE is now busy until 100: remote comm (10 ticks) then exec.
        let remote = placer.trial(TaskId::new(1), PeId::new(1), CommModel::Contention);
        assert_eq!(remote.start, Time::new(110));
        // Local placement waits for the PE to free up but needs no comm.
        let local = placer.trial(TaskId::new(1), PeId::new(0), CommModel::Contention);
        assert_eq!(local.start, Time::new(100));
    }

    #[test]
    fn full_pipeline_yields_valid_schedule() {
        let p = platform();
        let g = chain();
        let mut placer = Placer::new(&g, &p).unwrap();
        placer.commit(TaskId::new(0), PeId::new(0));
        placer.commit(TaskId::new(1), PeId::new(3));
        assert!(placer.is_done());
        let schedule = placer.into_schedule();
        let report = noc_schedule::validate(&schedule, &g, &p).expect("valid");
        assert!(report.meets_deadlines());
        // Wormhole transfer occupies all route links for one 10-tick
        // window: the packet arrives at 110 regardless of hop count.
        assert_eq!(schedule.task(TaskId::new(1)).start, Time::new(110));
    }

    #[test]
    fn energy_for_accounts_distance() {
        let p = platform();
        let g = chain();
        let mut placer = Placer::new(&g, &p).unwrap();
        placer.commit(TaskId::new(0), PeId::new(0));
        let near = placer.energy_for(TaskId::new(1), PeId::new(0));
        let far = placer.energy_for(TaskId::new(1), PeId::new(3));
        assert!(far > near);
    }

    #[test]
    #[should_panic(expected = "ready list")]
    fn committing_unready_task_panics() {
        let p = platform();
        let g = chain();
        let mut placer = Placer::new(&g, &p).unwrap();
        placer.commit(TaskId::new(1), PeId::new(0));
    }

    #[test]
    fn cached_trial_hits_when_tables_are_untouched() {
        let p = platform();
        let g = chain();
        let mut placer = Placer::new(&g, &p).unwrap();
        let (first, first_hit) =
            placer.cached_trial(TaskId::new(0), PeId::new(0), CommModel::Contention);
        let (second, second_hit) =
            placer.cached_trial(TaskId::new(0), PeId::new(0), CommModel::Contention);
        assert_eq!(first, second);
        assert!(!first_hit && second_hit);
        let (hits, misses) = placer.cache_stats();
        assert_eq!((hits, misses), (1, 1), "second probe must be a hit");
    }

    #[test]
    fn commit_on_a_pe_invalidates_cached_trials_for_it() {
        let p = platform();
        // Two independent tasks: both ready from the start.
        let mut b = TaskGraph::builder("indep", 4);
        let a = b.add_task(Task::uniform("a", 4, Time::new(100), Energy::from_nj(1.0)));
        let c = b.add_task(Task::uniform("c", 4, Time::new(100), Energy::from_nj(1.0)));
        let g = b.build().unwrap();
        let mut placer = Placer::new(&g, &p).unwrap();
        let (before, _) = placer.cached_trial(c, PeId::new(0), CommModel::Contention);
        assert_eq!(before.start, Time::ZERO);
        placer.commit(a, PeId::new(0));
        // The PE epoch bump must force a recomputation that sees the
        // occupied [0, 100) slot; a stale hit would return start 0.
        let (after, _) = placer.cached_trial(c, PeId::new(0), CommModel::Contention);
        assert_eq!(after.start, Time::new(100));
    }

    #[test]
    fn committed_route_reservation_invalidates_overlapping_trials() {
        let p = platform();
        // One producer fanning out to two consumers; both transfers leave
        // tile 0 over the shared link 0 -> 1.
        let mut b = TaskGraph::builder("fan", 4);
        let a = b.add_task(Task::uniform("a", 4, Time::new(100), Energy::from_nj(1.0)));
        let c = b.add_task(Task::uniform("c", 4, Time::new(100), Energy::from_nj(1.0)));
        let d = b.add_task(Task::uniform("d", 4, Time::new(100), Energy::from_nj(1.0)));
        b.add_edge(a, c, Volume::from_bits(320)).unwrap(); // 10 ticks
        b.add_edge(a, d, Volume::from_bits(320)).unwrap(); // 10 ticks
        let g = b.build().unwrap();
        let mut placer = Placer::new(&g, &p).unwrap();
        placer.commit(a, PeId::new(0));
        // Trial c on tile 3: route 0->1->3, comm [100, 110), start 110.
        let (before, _) = placer.cached_trial(c, PeId::new(3), CommModel::Contention);
        assert_eq!(before.start, Time::new(110));
        // Committing d on tile 1 reserves link 0->1 for [100, 110). PE 3's
        // table is untouched — only the link epoch can invalidate c's
        // cached trial, whose transfer must now wait for the link.
        placer.commit(d, PeId::new(1));
        let (after, _) = placer.cached_trial(c, PeId::new(3), CommModel::Contention);
        assert_eq!(after.start, Time::new(120));
    }
}

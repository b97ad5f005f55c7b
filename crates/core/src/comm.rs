//! The Fig. 3 communication scheduler.
//!
//! Given a task about to be placed on a destination PE, the scheduler
//! places each of the task's *receiving communication transactions* (the
//! paper's LCT) onto the schedule tables of its route's links:
//!
//! ```text
//! sort LCT by the finish time of its sender;
//! for each trans in LCT {
//!     path  = get_path(trans);
//!     dur   = trans.bandwidth();
//!     path.build_schedule_table();                 // merge link tables
//!     start = path.find_earliest(sender_ft, dur);  // honour contention
//!     for each link in path: link.update_schedule_table(start, dur);
//! }
//! ```
//!
//! The *data ready time* (DRT) of the task is the latest arrival among
//! its transactions (Eq. 4). Transfers that stay on one tile or carry no
//! data never enter the network and arrive at the producer's finish.

use noc_ctg::edge::EdgeId;
use noc_ctg::task::TaskId;
use noc_ctg::TaskGraph;
use noc_platform::routing::LinkId;
use noc_platform::tile::PeId;
use noc_platform::units::Time;
use noc_platform::Platform;
use noc_schedule::{CommPlacement, ResourceTables, TaskPlacement};

use crate::scheduler::CommModel;

/// Result of scheduling one task's incoming transactions.
#[derive(Debug, Clone)]
pub struct IncomingSchedule {
    /// Latest arrival over all receiving transactions — the DRT of
    /// Eq. 4 (zero when the task has no predecessors).
    pub drt: Time,
    /// Placement per scheduled incoming edge, in LCT order.
    pub transactions: Vec<(EdgeId, CommPlacement)>,
}

/// The Fig. 3 transaction step over one graph and platform: the one
/// place that orders a task's LCT, applies the local/zero-volume rule,
/// finds each transaction's earliest common slot on its route and
/// reserves it. It keeps the LCT buffer between calls, so a step
/// allocates nothing; callers decide what to keep of each transaction.
#[derive(Debug, Clone)]
pub(crate) struct CommScheduler<'a> {
    graph: &'a TaskGraph,
    platform: &'a Platform,
    lct: Vec<EdgeId>,
}

impl<'a> CommScheduler<'a> {
    pub(crate) fn new(graph: &'a TaskGraph, platform: &'a Platform) -> Self {
        CommScheduler {
            graph,
            platform,
            lct: Vec::new(),
        }
    }

    /// Schedules every receiving transaction of `task` for `dst_pe`,
    /// reading each placed predecessor through `sender`, and returns the
    /// DRT. Each transaction goes to `emit(edge, route, start, finish)`
    /// in LCT order; a local or zero-volume transfer has an empty route
    /// and arrives at its sender's finish. See [`schedule_incoming`] for
    /// the two models.
    pub(crate) fn schedule(
        &mut self,
        tables: &mut ResourceTables,
        sender: impl Fn(TaskId) -> TaskPlacement,
        task: TaskId,
        dst_pe: PeId,
        model: CommModel,
        mut emit: impl FnMut(EdgeId, &'a [LinkId], Time, Time),
    ) -> Time {
        let graph = self.graph;
        // LCT sorted by sender finish time (ties: edge id, for
        // determinism; the keys are distinct, so unstable is exact).
        self.lct.clear();
        self.lct.extend_from_slice(graph.incoming(task));
        self.lct
            .sort_unstable_by_key(|&e| (sender(graph.edge(e).src).finish, e));

        let dst_tile = dst_pe.tile();
        let mut drt = Time::ZERO;
        for &e in &self.lct {
            let edge = graph.edge(e);
            let from = sender(edge.src);
            let src_tile = from.pe.tile();
            let (route, start, finish) = if src_tile == dst_tile || edge.volume.is_zero() {
                (&[][..], from.finish, from.finish)
            } else {
                let route = self.platform.route(src_tile, dst_tile);
                let duration = self
                    .platform
                    .transfer_duration(src_tile, dst_tile, edge.volume);
                let start = match model {
                    CommModel::Contention => {
                        let s = tables.earliest_path_slot(route, from.finish, duration);
                        tables.reserve_path(route, s, duration);
                        s
                    }
                    CommModel::FixedDelay => from.finish,
                };
                (route, start, start + duration)
            };
            drt = drt.max(finish);
            emit(e, route, start, finish);
        }
        drt
    }
}

/// Schedules all receiving transactions of `task` assuming it executes
/// on `dst_pe`, reserving link slots on `tables` (roll back via a
/// [`noc_schedule::resources::Mark`] for trial runs).
///
/// With [`CommModel::Contention`] each transaction starts at the
/// earliest slot where *every* link of its route is free (the paper's
/// scheduler). With [`CommModel::FixedDelay`] the network is assumed
/// idle — transactions notionally start right at the sender's finish and
/// **no link slots are reserved**; this is the naive model the paper
/// argues against and exists for the ablation study.
///
/// # Panics
///
/// Panics if any predecessor of `task` has no placement yet (callers
/// schedule in dependency order by construction).
#[must_use]
pub fn schedule_incoming(
    graph: &TaskGraph,
    platform: &Platform,
    tables: &mut ResourceTables,
    placements: &[Option<TaskPlacement>],
    task: TaskId,
    dst_pe: PeId,
    model: CommModel,
) -> IncomingSchedule {
    let mut transactions = Vec::with_capacity(graph.incoming(task).len());
    let drt = CommScheduler::new(graph, platform).schedule(
        tables,
        |s| placements[s.index()].expect("predecessor placed"),
        task,
        dst_pe,
        model,
        |e, route, start, finish| {
            transactions.push((e, CommPlacement::new(route.to_vec(), start, finish)));
        },
    );
    IncomingSchedule { drt, transactions }
}

/// The communication energy `Σ v(c) · e(r)` of `task`'s incoming data
/// edges if the task were placed on `dst_pe` — the energy the paper adds
/// to `E1`/`E2` when ranking PEs (footnote 2: sender placements are
/// already known).
///
/// # Panics
///
/// Panics if any predecessor of `task` has no placement yet.
#[must_use]
pub fn incoming_comm_energy(
    graph: &TaskGraph,
    platform: &Platform,
    placements: &[Option<TaskPlacement>],
    task: TaskId,
    dst_pe: PeId,
) -> noc_platform::units::Energy {
    graph
        .incoming(task)
        .iter()
        .map(|&e| {
            let edge = graph.edge(e);
            let sender = placements[edge.src.index()]
                .as_ref()
                .expect("predecessor placed");
            platform.transfer_energy(sender.pe.tile(), dst_pe.tile(), edge.volume)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_ctg::task::Task;
    use noc_platform::prelude::*;
    use noc_platform::units::{Energy, Volume};

    fn platform() -> Platform {
        Platform::builder()
            .topology(TopologySpec::mesh(2, 2))
            .link_bandwidth(32.0)
            .build()
            .unwrap()
    }

    /// Two producers on tiles 0 and 2 feeding one consumer.
    fn fan_in_graph() -> TaskGraph {
        let mut b = TaskGraph::builder("fan", 4);
        let a = b.add_task(Task::uniform("a", 4, Time::new(100), Energy::from_nj(1.0)));
        let c = b.add_task(Task::uniform("c", 4, Time::new(50), Energy::from_nj(1.0)));
        let d = b.add_task(Task::uniform("d", 4, Time::new(10), Energy::from_nj(1.0)));
        b.add_edge(a, d, Volume::from_bits(320)).unwrap(); // 10 ticks
        b.add_edge(c, d, Volume::from_bits(640)).unwrap(); // 20 ticks
        b.build().unwrap()
    }

    fn placements(p0: TaskPlacement, p1: TaskPlacement) -> Vec<Option<TaskPlacement>> {
        vec![Some(p0), Some(p1), None]
    }

    #[test]
    fn drt_is_latest_arrival() {
        let p = platform();
        let g = fan_in_graph();
        let mut tables = ResourceTables::new(&p);
        let placed = placements(
            TaskPlacement::new(PeId::new(0), Time::ZERO, Time::new(100)),
            TaskPlacement::new(PeId::new(2), Time::ZERO, Time::new(50)),
        );
        let inc = schedule_incoming(
            &g,
            &p,
            &mut tables,
            &placed,
            TaskId::new(2),
            PeId::new(3),
            CommModel::Contention,
        );
        // From tile 0 -> 3: starts at 100, 10 ticks -> 110.
        // From tile 2 -> 3: starts at 50, 20 ticks -> 70.
        assert_eq!(inc.drt, Time::new(110));
        assert_eq!(inc.transactions.len(), 2);
        // LCT order: c (finish 50) before a (finish 100).
        assert_eq!(inc.transactions[0].0, noc_ctg::edge::EdgeId::new(1));
    }

    #[test]
    fn local_and_zero_volume_arrive_instantly() {
        let p = platform();
        let mut b = TaskGraph::builder("l", 4);
        let a = b.add_task(Task::uniform("a", 4, Time::new(100), Energy::from_nj(1.0)));
        let c = b.add_task(Task::uniform("c", 4, Time::new(100), Energy::from_nj(1.0)));
        let d = b.add_task(Task::uniform("d", 4, Time::new(10), Energy::from_nj(1.0)));
        b.add_edge(a, d, Volume::from_bits(320)).unwrap(); // will be local
        b.add_control_edge(c, d).unwrap(); // zero volume, remote
        let g = b.build().unwrap();
        let mut tables = ResourceTables::new(&p);
        let placed = placements(
            TaskPlacement::new(PeId::new(3), Time::ZERO, Time::new(100)),
            TaskPlacement::new(PeId::new(0), Time::ZERO, Time::new(100)),
        );
        let inc = schedule_incoming(
            &g,
            &p,
            &mut tables,
            &placed,
            TaskId::new(2),
            PeId::new(3),
            CommModel::Contention,
        );
        assert_eq!(inc.drt, Time::new(100));
        assert!(inc.transactions.iter().all(|(_, c)| c.is_local()));
        // Nothing reserved on any link.
        for l in 0..p.link_count() as u32 {
            assert!(tables.link_table(LinkId::new(l)).is_empty());
        }
    }

    #[test]
    fn contention_delays_second_transaction_on_shared_link() {
        let p = platform();
        // Producers on tile 0 and tile 0's neighbour... both transfers
        // share the link 0 -> 1 when going from tile 0 to tiles 1 and 3.
        let mut b = TaskGraph::builder("shared", 4);
        let a = b.add_task(Task::uniform("a", 4, Time::new(100), Energy::from_nj(1.0)));
        let c = b.add_task(Task::uniform("c", 4, Time::new(100), Energy::from_nj(1.0)));
        let d = b.add_task(Task::uniform("d", 4, Time::new(10), Energy::from_nj(1.0)));
        b.add_edge(a, d, Volume::from_bits(320)).unwrap();
        b.add_edge(c, d, Volume::from_bits(320)).unwrap();
        let g = b.build().unwrap();
        let mut tables = ResourceTables::new(&p);
        // Both producers on tile 0, same finish time.
        let placed = placements(
            TaskPlacement::new(PeId::new(0), Time::ZERO, Time::new(100)),
            TaskPlacement::new(PeId::new(0), Time::ZERO, Time::new(100)),
        );
        let inc = schedule_incoming(
            &g,
            &p,
            &mut tables,
            &placed,
            TaskId::new(2),
            PeId::new(1),
            CommModel::Contention,
        );
        // Both use the single link 0->1 (10 ticks each): serialized.
        let starts: Vec<Time> = inc.transactions.iter().map(|(_, c)| c.start).collect();
        assert_eq!(starts, vec![Time::new(100), Time::new(110)]);
        assert_eq!(inc.drt, Time::new(120));
    }

    #[test]
    fn fixed_delay_ignores_contention_and_reserves_nothing() {
        let p = platform();
        let g = fan_in_graph();
        let mut tables = ResourceTables::new(&p);
        let mark = tables.checkpoint();
        let placed = placements(
            TaskPlacement::new(PeId::new(0), Time::ZERO, Time::new(100)),
            TaskPlacement::new(PeId::new(0), Time::ZERO, Time::new(100)),
        );
        let inc = schedule_incoming(
            &g,
            &p,
            &mut tables,
            &placed,
            TaskId::new(2),
            PeId::new(1),
            CommModel::FixedDelay,
        );
        // Both start at 100 even though they share the link.
        assert!(inc
            .transactions
            .iter()
            .all(|(_, c)| c.start == Time::new(100)));
        assert_eq!(mark, tables.checkpoint(), "fixed-delay must not reserve");
    }

    #[test]
    fn incoming_energy_prefers_closer_pes() {
        let p = platform();
        let g = fan_in_graph();
        let placed = placements(
            TaskPlacement::new(PeId::new(0), Time::ZERO, Time::new(100)),
            TaskPlacement::new(PeId::new(0), Time::ZERO, Time::new(50)),
        );
        let near = incoming_comm_energy(&g, &p, &placed, TaskId::new(2), PeId::new(0));
        let far = incoming_comm_energy(&g, &p, &placed, TaskId::new(2), PeId::new(3));
        assert!(near < far);
    }
}

//! Schedule diffing: what changed between two schedules of the same
//! graph — the tool for inspecting what search-and-repair or an
//! annealer actually did.

use serde::{Deserialize, Serialize};
use std::fmt;

use noc_ctg::task::TaskId;
use noc_ctg::TaskGraph;
use noc_platform::Platform;

use crate::schedule::Schedule;
use crate::stats::ScheduleStats;

/// One migrated task: where it ran before and after.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Migration {
    /// The task that moved.
    pub task: TaskId,
    /// PE in the first schedule.
    pub from: noc_platform::tile::PeId,
    /// PE in the second schedule.
    pub to: noc_platform::tile::PeId,
}

/// Structural and energetic difference between two schedules.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleDiff {
    /// Tasks assigned to different PEs.
    pub migrations: Vec<Migration>,
    /// Tasks whose start time changed (including migrated ones).
    pub retimed_tasks: usize,
    /// Energy difference `second - first`, nJ (negative = second is
    /// cheaper).
    pub energy_delta_nj: f64,
    /// Makespan difference `second - first`, ticks (negative = second
    /// is shorter).
    pub makespan_delta: i64,
    /// Deadline-miss difference `second - first`.
    pub miss_delta: i64,
}

impl ScheduleDiff {
    /// Diffs `second` against `first` for the same graph/platform.
    ///
    /// # Panics
    ///
    /// Panics if either schedule's shape does not match `graph`.
    #[must_use]
    pub fn between(
        first: &Schedule,
        second: &Schedule,
        graph: &TaskGraph,
        platform: &Platform,
    ) -> Self {
        assert_eq!(
            first.task_count(),
            graph.task_count(),
            "first schedule shape"
        );
        assert_eq!(
            second.task_count(),
            graph.task_count(),
            "second schedule shape"
        );
        let mut migrations = Vec::new();
        let mut retimed = 0usize;
        for t in graph.task_ids() {
            let (a, b) = (first.task(t), second.task(t));
            if a.pe != b.pe {
                migrations.push(Migration {
                    task: t,
                    from: a.pe,
                    to: b.pe,
                });
            }
            if a.start != b.start || a.pe != b.pe {
                retimed += 1;
            }
        }
        let ea = ScheduleStats::compute(first, graph, platform)
            .energy
            .total();
        let eb = ScheduleStats::compute(second, graph, platform)
            .energy
            .total();
        ScheduleDiff {
            migrations,
            retimed_tasks: retimed,
            energy_delta_nj: eb.as_nj() - ea.as_nj(),
            makespan_delta: second.makespan().ticks() as i64 - first.makespan().ticks() as i64,
            miss_delta: second.deadline_misses(graph).len() as i64
                - first.deadline_misses(graph).len() as i64,
        }
    }
}

impl fmt::Display for ScheduleDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} migrations, {} retimed tasks, energy {:+.1} nJ, makespan {:+}, misses {:+}",
            self.migrations.len(),
            self.retimed_tasks,
            self.energy_delta_nj,
            self.makespan_delta,
            self.miss_delta
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{CommPlacement, TaskPlacement};
    use noc_ctg::task::Task;
    use noc_platform::prelude::*;
    use noc_platform::units::{Energy, Time, Volume};

    fn fixture() -> (Platform, TaskGraph, Schedule) {
        let platform = Platform::builder()
            .topology(TopologySpec::mesh(2, 2))
            .link_bandwidth(32.0)
            .build()
            .unwrap();
        let mut b = TaskGraph::builder("x", 4);
        let a = b.add_task(Task::uniform("a", 4, Time::new(100), Energy::from_nj(1.0)));
        let c = b.add_task(Task::uniform("c", 4, Time::new(100), Energy::from_nj(1.0)));
        b.add_edge(a, c, Volume::from_bits(320)).unwrap();
        let graph = b.build().unwrap();
        let route = platform.route(TileId::new(0), TileId::new(1)).to_vec();
        let schedule = Schedule::new(
            vec![
                TaskPlacement::new(PeId::new(0), Time::ZERO, Time::new(100)),
                TaskPlacement::new(PeId::new(1), Time::new(110), Time::new(210)),
            ],
            vec![CommPlacement::new(route, Time::new(100), Time::new(110))],
        );
        (platform, graph, schedule)
    }

    #[test]
    fn identical_schedules_diff_empty() {
        let (p, g, s) = fixture();
        let d = ScheduleDiff::between(&s, &s, &g, &p);
        assert!(d.migrations.is_empty());
        assert_eq!(d.retimed_tasks, 0);
        assert_eq!(d.energy_delta_nj, 0.0);
        assert_eq!(d.makespan_delta, 0);
    }

    #[test]
    fn migration_and_retiming_are_detected() {
        let (p, g, s) = fixture();
        // Move the consumer local to the producer: shorter and cheaper.
        let local = Schedule::new(
            vec![
                TaskPlacement::new(PeId::new(0), Time::ZERO, Time::new(100)),
                TaskPlacement::new(PeId::new(0), Time::new(100), Time::new(200)),
            ],
            vec![CommPlacement::local(Time::new(100))],
        );
        let d = ScheduleDiff::between(&s, &local, &g, &p);
        assert_eq!(d.migrations.len(), 1);
        assert_eq!(d.migrations[0].task, TaskId::new(1));
        assert_eq!(d.retimed_tasks, 1);
        assert!(d.energy_delta_nj < 0.0, "local placement must be cheaper");
        assert_eq!(d.makespan_delta, -10);
        assert!(d.to_string().contains("1 migrations"));
    }
}

//! Mapping-then-scheduling baseline (two-phase decomposition).
//!
//! Before the paper's co-scheduling approach, the usual NoC flow — and
//! the authors' own earlier work (energy-aware *mapping* under
//! performance constraints, the paper's ref. \[13\]) — decomposed the
//! problem: first assign tasks to PEs minimizing an energy objective
//! under a load-balance constraint, then order execution on the fixed
//! assignment. This module implements that decomposition so the benefit
//! of the paper's *concurrent* communication/computation scheduling can
//! be measured directly:
//!
//! 1. **Mapping phase**: tasks are visited in descending total
//!    communication volume; each is greedily placed on the PE minimizing
//!    `exec_energy + Σ transfer_energy(placed neighbours)`, subject to a
//!    load cap of 1.5× the average load (keeping the
//!    mapping schedulable at all).
//! 2. **Scheduling phase**: with `M()` frozen, tasks are ordered by
//!    effective deadline and re-timed with the exact Fig. 3
//!    communication scheduler (shared with every other scheduler here).
//!
//! The phase split is the point: the mapping phase cannot see contention
//! or slack, so it under-uses fast PEs near deadlines — exactly the gap
//! the paper's integrated EAS closes.

use noc_ctg::analysis::effective_deadlines;
use noc_ctg::task::TaskId;
use noc_ctg::TaskGraph;
use noc_platform::tile::PeId;
use noc_platform::units::Energy;
use noc_platform::Platform;
use noc_schedule::{validate, ScheduleStats};

use crate::repair::RepairStats;
use crate::retime::{retime, OrderedAssignment};
use crate::scheduler::{ScheduleOutcome, Scheduler};
use crate::SchedulerError;

/// Load cap multiplier over the average per-PE mean execution load.
const BALANCE_FACTOR: f64 = 1.5;

/// The two-phase mapping-then-scheduling baseline; see the
/// [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct MapThenScheduleScheduler;

impl MapThenScheduleScheduler {
    /// Creates the baseline.
    #[must_use]
    pub fn new() -> Self {
        MapThenScheduleScheduler
    }

    /// Phase 1: the greedy energy-aware mapping.
    fn map(&self, graph: &TaskGraph, platform: &Platform) -> Vec<PeId> {
        let n = graph.task_count();
        let pe_count = platform.tile_count();
        let total_mean: f64 = graph
            .task_ids()
            .map(|t| graph.task(t).mean_exec_time())
            .sum();
        let load_cap = (total_mean / pe_count as f64) * BALANCE_FACTOR;

        // Order tasks by descending adjacent communication volume
        // (heavy communicators are placed first so their neighbours can
        // cluster around them), ties by id.
        let mut order: Vec<TaskId> = graph.task_ids().collect();
        let comm_weight = |t: TaskId| -> u64 {
            graph
                .incoming(t)
                .iter()
                .chain(graph.outgoing(t))
                .map(|&e| graph.edge(e).volume.bits())
                .sum()
        };
        order.sort_by_key(|&t| (std::cmp::Reverse(comm_weight(t)), t));

        let mut assignment: Vec<Option<PeId>> = vec![None; n];
        let mut load = vec![0.0f64; pe_count];
        for t in order {
            let mut best: Option<(Energy, usize, PeId)> = None;
            for k in platform.alive_pes() {
                // Hard cap unless every PE is capped (then fall through).
                let capped = load[k.index()] + graph.task(t).mean_exec_time() > load_cap;
                let mut energy = graph.task(t).exec_energy(k);
                for &e in graph.incoming(t) {
                    let edge = graph.edge(e);
                    if let Some(src_pe) = assignment[edge.src.index()] {
                        energy += platform.transfer_energy(src_pe.tile(), k.tile(), edge.volume);
                    }
                }
                for &e in graph.outgoing(t) {
                    let edge = graph.edge(e);
                    if let Some(dst_pe) = assignment[edge.dst.index()] {
                        energy += platform.transfer_energy(k.tile(), dst_pe.tile(), edge.volume);
                    }
                }
                let key = (energy, usize::from(capped), k);
                // Prefer uncapped PEs, then lower energy, then lower id —
                // encoded as (capped, energy, id) lexicographic.
                let better = match best {
                    None => true,
                    Some((be, bc, bk)) => {
                        (usize::from(capped), energy, k.index()) < (bc, be, bk.index())
                    }
                };
                if better {
                    best = Some((key.0, key.1, k));
                }
            }
            let (_, _, k) = best.expect("at least one PE");
            assignment[t.index()] = Some(k);
            load[k.index()] += graph.task(t).mean_exec_time();
        }
        assignment
            .into_iter()
            .map(|a| a.expect("all mapped"))
            .collect()
    }
}

impl Scheduler for MapThenScheduleScheduler {
    fn name(&self) -> &str {
        "map-then-schedule"
    }

    fn schedule(
        &self,
        graph: &TaskGraph,
        platform: &Platform,
    ) -> Result<ScheduleOutcome, SchedulerError> {
        if graph.pe_count() != platform.tile_count() {
            return Err(SchedulerError::PeCountMismatch {
                graph: graph.pe_count(),
                platform: platform.tile_count(),
            });
        }
        let assignment = self.map(graph, platform);

        // Phase 2: per-PE order by (effective deadline, topological
        // position) — a deadline-monotonic list on the frozen mapping.
        let eff = effective_deadlines(graph);
        let topo_pos = {
            let mut pos = vec![0usize; graph.task_count()];
            for (i, &t) in graph.topological_order().iter().enumerate() {
                pos[t.index()] = i;
            }
            pos
        };
        let mut order: Vec<Vec<TaskId>> = vec![Vec::new(); platform.tile_count()];
        for &t in graph.topological_order() {
            order[assignment[t.index()].index()].push(t);
        }
        for queue in &mut order {
            queue.sort_by_key(|&t| (eff[t.index()], topo_pos[t.index()]));
        }
        let oa = OrderedAssignment { assignment, order };
        let schedule = retime(graph, platform, &oa).ok_or(SchedulerError::RetimeDeadlock)?;
        let report = validate(&schedule, graph, platform)?;
        let stats = ScheduleStats::compute(&schedule, graph, platform);
        Ok(ScheduleOutcome {
            schedule,
            report,
            stats,
            repair: RepairStats::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EasScheduler, EdfScheduler};
    use noc_ctg::prelude::*;
    use noc_platform::prelude::*;

    fn platform() -> Platform {
        Platform::builder()
            .topology(TopologySpec::mesh(4, 4))
            .build()
            .unwrap()
    }

    #[test]
    fn produces_valid_schedules() {
        let p = platform();
        for seed in 0..4u64 {
            let g = TgffGenerator::new(TgffConfig::small(seed))
                .generate(&p)
                .unwrap();
            let out = MapThenScheduleScheduler::new()
                .schedule(&g, &p)
                .expect("schedules");
            validate(&out.schedule, &g, &p).expect("valid");
        }
    }

    #[test]
    fn mapping_clusters_heavy_communicators() {
        // Two tasks exchanging a huge volume end up co-located (or at
        // least adjacent) by the greedy mapping.
        let p = platform();
        let mut b = TaskGraph::builder("pair", 16);
        let synth = noc_ctg::costs::CostSynthesizer::new(p.pe_classes());
        let (t1, e1) = synth.vectors(100.0, 0.5);
        let (t2, e2) = synth.vectors(100.0, 0.5);
        let a = b.add_task(Task::new("a", t1, e1));
        let c = b.add_task(Task::new("c", t2, e2));
        b.add_edge(a, c, Volume::from_bits(1 << 20)).unwrap();
        let g = b.build().unwrap();
        let out = MapThenScheduleScheduler::new().schedule(&g, &p).unwrap();
        let d = p
            .coord(out.schedule.task(a).pe.tile())
            .manhattan(p.coord(out.schedule.task(c).pe.tile()));
        assert!(d <= 1, "heavy communicators should cluster, distance {d}");
    }

    #[test]
    fn beats_edf_on_energy_but_not_eas() {
        let p = platform();
        let mut better_than_edf = 0;
        let mut eas_wins = 0;
        for seed in 0..4u64 {
            let g = TgffGenerator::new(TgffConfig::small(seed))
                .generate(&p)
                .unwrap();
            let two_phase = MapThenScheduleScheduler::new().schedule(&g, &p).unwrap();
            let edf = EdfScheduler::new().schedule(&g, &p).unwrap();
            let eas = EasScheduler::full().schedule(&g, &p).unwrap();
            if two_phase.stats.energy.total() < edf.stats.energy.total() {
                better_than_edf += 1;
            }
            if eas.stats.energy.total() <= two_phase.stats.energy.total() {
                eas_wins += 1;
            }
        }
        assert!(
            better_than_edf >= 3,
            "energy-aware mapping should usually beat EDF"
        );
        assert!(
            eas_wins >= 3,
            "co-scheduling should match or beat the two-phase split"
        );
    }
}

//! Dynamic-Level Scheduling (DLS) baseline.
//!
//! Sih & Lee's compile-time heuristic for interconnection-constrained
//! heterogeneous processors (IEEE TPDS 1993) is the second related-work
//! baseline the paper discusses (its ref. \[10\]): performance-driven like
//! EDF, but *communication-aware* in its priority function. At every
//! step it picks the (ready task, PE) pair maximizing the **dynamic
//! level**
//!
//! ```text
//! DL(t, p) = SL(t) − max(DA(t, p), TF(p)) + Δ(t, p)
//! ```
//!
//! where `SL(t)` is the static level (longest mean-exec path from `t` to
//! any sink — how much work still hangs below the task), `DA(t, p)` the
//! data-available time on `p` (our contention-aware DRT), `TF(p)` the
//! PE's free time, and `Δ(t, p) = M_t − r_t^p` rewards PEs that execute
//! the task faster than average.
//!
//! Comparing EAS to *both* EDF and DLS shows the energy gap is not an
//! artifact of a weak baseline: DLS produces shorter makespans than EDF
//! on communication-heavy graphs yet remains energy-blind.

use noc_ctg::task::TaskId;
use noc_ctg::TaskGraph;
use noc_platform::tile::PeId;

use crate::placer::Placer;
use crate::scheduler::CommModel;

/// Static levels: longest mean-execution path from each task to a sink,
/// inclusive of the task itself.
#[must_use]
fn static_levels(graph: &TaskGraph) -> Vec<f64> {
    let mut level = vec![0.0f64; graph.task_count()];
    for &t in graph.topological_order().iter().rev() {
        let below = graph
            .successors(t)
            .map(|s| level[s.index()])
            .fold(0.0f64, f64::max);
        level[t.index()] = below + graph.task(t).mean_exec_time();
    }
    level
}

/// Runs DLS list scheduling to completion, mutating `placer`.
pub fn dls_schedule(placer: &mut Placer<'_>) {
    let levels = static_levels(placer.graph());
    let pes: Vec<PeId> = placer.platform().alive_pes().collect();
    let means: Vec<f64> = {
        let graph = placer.graph();
        graph
            .task_ids()
            .map(|t| graph.task(t).mean_exec_time())
            .collect()
    };

    while !placer.is_done() {
        let ready: Vec<TaskId> = placer.ready_tasks().to_vec();
        let mut best: Option<(f64, TaskId, PeId)> = None;
        for &t in &ready {
            for &k in &pes {
                let trial = placer.trial(t, k, CommModel::Contention);
                let exec = placer.graph().task(t).exec_time(k).as_f64();
                let start = trial.start.as_f64();
                let delta = means[t.index()] - exec;
                let dl = levels[t.index()] - start + delta;
                let better = match best {
                    None => true,
                    // Ties: lower task id, then lower PE id (determinism).
                    Some((b, bt, bk)) => {
                        dl > b + 1e-9
                            || ((dl - b).abs() <= 1e-9 && (t, k.index()) < (bt, bk.index()))
                    }
                };
                if better {
                    best = Some((dl, t, k));
                }
            }
        }
        let (_, t, k) = best.expect("nonempty ready list");
        placer.commit(t, k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_ctg::task::Task;
    use noc_platform::prelude::*;
    use noc_platform::units::{Energy, Time, Volume};
    use noc_schedule::validate;

    fn platform() -> Platform {
        Platform::builder()
            .topology(TopologySpec::mesh(2, 2))
            .link_bandwidth(32.0)
            .build()
            .unwrap()
    }

    #[test]
    fn static_levels_count_work_below() {
        let mut b = TaskGraph::builder("sl", 4);
        let a = b.add_task(Task::uniform("a", 4, Time::new(100), Energy::from_nj(1.0)));
        let c = b.add_task(Task::uniform("c", 4, Time::new(200), Energy::from_nj(1.0)));
        let d = b.add_task(Task::uniform("d", 4, Time::new(50), Energy::from_nj(1.0)));
        b.add_edge(a, c, Volume::from_bits(8)).unwrap();
        b.add_edge(a, d, Volume::from_bits(8)).unwrap();
        let g = b.build().unwrap();
        let sl = static_levels(&g);
        assert_eq!(sl[c.index()], 200.0);
        assert_eq!(sl[d.index()], 50.0);
        assert_eq!(sl[a.index()], 300.0); // via c
    }

    #[test]
    fn dls_prefers_faster_pes() {
        let p = platform();
        let mut b = TaskGraph::builder("fast", 4);
        let t = b.add_task(Task::new(
            "t",
            vec![
                Time::new(50),
                Time::new(100),
                Time::new(200),
                Time::new(100),
            ],
            vec![Energy::from_nj(9.0); 4],
        ));
        let g = b.build().unwrap();
        let mut placer = Placer::new(&g, &p).unwrap();
        dls_schedule(&mut placer);
        let s = placer.into_schedule();
        assert_eq!(s.task(t).pe, PeId::new(0));
    }

    #[test]
    fn dls_respects_dependencies_and_contention() {
        let p = platform();
        let mut b = TaskGraph::builder("dag", 4);
        let mk = |n: &str| Task::uniform(n, 4, Time::new(80), Energy::from_nj(2.0));
        let a = b.add_task(mk("a"));
        let x = b.add_task(mk("x"));
        let y = b.add_task(mk("y"));
        let z = b.add_task(mk("z"));
        b.add_edge(a, x, Volume::from_bits(640)).unwrap();
        b.add_edge(a, y, Volume::from_bits(640)).unwrap();
        b.add_edge(x, z, Volume::from_bits(640)).unwrap();
        b.add_edge(y, z, Volume::from_bits(640)).unwrap();
        let g = b.build().unwrap();
        let mut placer = Placer::new(&g, &p).unwrap();
        dls_schedule(&mut placer);
        let s = placer.into_schedule();
        validate(&s, &g, &p).expect("valid");
    }

    #[test]
    fn dls_prioritizes_critical_chains() {
        // Two ready tasks: one heads a long chain (high SL), one is a
        // leaf. DLS must schedule the chain head first.
        let p = platform();
        let mut b = TaskGraph::builder("prio", 4);
        let mk = |n: &str, t: u64| Task::uniform(n, 4, Time::new(t), Energy::from_nj(1.0));
        let head = b.add_task(mk("head", 50));
        let leaf = b.add_task(mk("leaf", 50));
        let tail1 = b.add_task(mk("tail1", 300));
        let tail2 = b.add_task(mk("tail2", 300));
        b.add_edge(head, tail1, Volume::from_bits(8)).unwrap();
        b.add_edge(tail1, tail2, Volume::from_bits(8)).unwrap();
        let g = b.build().unwrap();
        let mut placer = Placer::new(&g, &p).unwrap();
        dls_schedule(&mut placer);
        let s = placer.into_schedule();
        // head should start at 0 on the fastest PE; the leaf may share
        // t=0 on another PE but never displaces head.
        assert_eq!(s.task(head).start, Time::ZERO);
        let _ = leaf;
    }
}

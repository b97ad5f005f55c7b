//! Delta-scheduling integration tests: per-edit-kind mask computation,
//! every forced fallback-to-full-reschedule path, and property tests
//! that `repair_from` on random edit sequences always validates.

use std::collections::BTreeSet;

use proptest::prelude::*;

use noc_ctg::prelude::*;
use noc_eas::delta::{
    REASON_EDIT_STORM, REASON_NO_ALIVE_PE, REASON_RETIME_DEADLOCK, REASON_WARM_START,
};
use noc_eas::prelude::*;
use noc_eas::trace::EventKind;
use noc_platform::prelude::*;
use noc_schedule::validate;

fn mesh(cols: u16, rows: u16) -> Platform {
    Platform::builder()
        .topology(TopologySpec::mesh(cols, rows))
        .pe_mix(PeCatalog::date04().cycle_mix())
        .build()
        .expect("mesh builds")
}

/// t0 -> t1 -> t2 chain plus an isolated t3, uniform per-PE costs.
fn chain_graph(pe_count: usize) -> TaskGraph {
    let mut b = TaskGraph::builder("delta_chain", pe_count);
    let t0 = b.add_task(Task::uniform(
        "t0",
        pe_count,
        Time::new(40),
        Energy::from_nj(12.0),
    ));
    let t1 = b.add_task(Task::uniform(
        "t1",
        pe_count,
        Time::new(60),
        Energy::from_nj(18.0),
    ));
    let t2 = b.add_task(
        Task::uniform("t2", pe_count, Time::new(50), Energy::from_nj(15.0))
            .with_deadline(Time::new(100_000)),
    );
    let _t3 = b.add_task(Task::uniform(
        "t3",
        pe_count,
        Time::new(30),
        Energy::from_nj(9.0),
    ));
    b.add_edge(t0, t1, Volume::from_bits(2048)).expect("edge");
    b.add_edge(t1, t2, Volume::from_bits(1024)).expect("edge");
    b.build().expect("chain builds")
}

/// `t` plus its transitive successors, as raw indices.
fn cone(graph: &TaskGraph, t: TaskId) -> BTreeSet<u32> {
    let mut hit = BTreeSet::new();
    let mut stack = vec![t];
    while let Some(x) = stack.pop() {
        if hit.insert(x.index() as u32) {
            stack.extend(graph.successors(x));
        }
    }
    hit
}

fn as_set(mask: Vec<TaskId>) -> BTreeSet<u32> {
    mask.into_iter().map(|t| t.index() as u32).collect()
}

fn set(ids: &[u32]) -> BTreeSet<u32> {
    ids.iter().copied().collect()
}

#[test]
fn set_exec_time_mask_is_the_cone() {
    let platform = mesh(2, 2);
    let graph = chain_graph(platform.tile_count());
    let prior = EasScheduler::full()
        .schedule(&graph, &platform)
        .expect("schedules");
    let edits = vec![Edit::SetExecTime {
        task: 1,
        exec_times: vec![90; 4],
        exec_energies: vec![20.0; 4],
    }];
    let applied = apply_edits(&graph, &edits).expect("applies");
    // t1's new cost can shift t1 and everything downstream of it, but
    // not its predecessor t0 or the unrelated t3.
    assert_eq!(
        as_set(applied.edit_mask(0, &graph, &prior.schedule)),
        set(&[1, 2])
    );
}

#[test]
fn set_deadline_mask_is_the_task_alone() {
    let platform = mesh(2, 2);
    let graph = chain_graph(platform.tile_count());
    let prior = EasScheduler::full()
        .schedule(&graph, &platform)
        .expect("schedules");
    let edits = vec![Edit::SetDeadline {
        task: 1,
        deadline: Some(5_000),
    }];
    let applied = apply_edits(&graph, &edits).expect("applies");
    // A deadline changes feasibility judgements, not timing: only the
    // task itself is in the affected region.
    assert_eq!(
        as_set(applied.edit_mask(0, &graph, &prior.schedule)),
        set(&[1])
    );
}

#[test]
fn set_edge_volume_mask_is_src_plus_dst_cone() {
    let platform = mesh(2, 2);
    let graph = chain_graph(platform.tile_count());
    let prior = EasScheduler::full()
        .schedule(&graph, &platform)
        .expect("schedules");
    let edits = vec![Edit::SetEdgeVolume {
        src: 0,
        dst: 1,
        bits: 8192,
    }];
    let applied = apply_edits(&graph, &edits).expect("applies");
    // The producer re-sends, the consumer and its cone re-receive.
    assert_eq!(
        as_set(applied.edit_mask(0, &graph, &prior.schedule)),
        set(&[0, 1, 2])
    );
}

#[test]
fn add_task_mask_is_the_new_cone() {
    let platform = mesh(2, 2);
    let graph = chain_graph(platform.tile_count());
    let prior = EasScheduler::full()
        .schedule(&graph, &platform)
        .expect("schedules");
    let edits = vec![
        // x0 feeds t0: its cone is itself plus the whole chain -- and
        // x1 below, which hangs off the chain's tail in the edited
        // graph.
        Edit::AddTask {
            name: "x0".to_owned(),
            exec_times: vec![25; 4],
            exec_energies: vec![8.0; 4],
            deadline: None,
            edges_in: Vec::new(),
            edges_out: vec![EdgeRef { task: 0, bits: 512 }],
        },
        // x1 is a pure sink off t2: its cone is itself alone.
        Edit::AddTask {
            name: "x1".to_owned(),
            exec_times: vec![25; 4],
            exec_energies: vec![8.0; 4],
            deadline: None,
            edges_in: vec![EdgeRef { task: 2, bits: 512 }],
            edges_out: Vec::new(),
        },
    ];
    let applied = apply_edits(&graph, &edits).expect("applies");
    assert_eq!(applied.added.len(), 2);
    assert_eq!(
        as_set(applied.edit_mask(0, &graph, &prior.schedule)),
        set(&[0, 1, 2, 4, 5])
    );
    assert_eq!(
        as_set(applied.edit_mask(1, &graph, &prior.schedule)),
        set(&[5])
    );
}

#[test]
fn remove_task_mask_covers_successors_and_pe_mates() {
    let platform = mesh(2, 2);
    let graph = chain_graph(platform.tile_count());
    let prior = EasScheduler::full()
        .schedule(&graph, &platform)
        .expect("schedules");
    let edits = vec![Edit::RemoveTask { task: 1 }];
    let applied = apply_edits(&graph, &edits).expect("applies");
    let mask = as_set(applied.edit_mask(0, &graph, &prior.schedule));

    // t2 (new id 1) lost its input: its cone must be in the mask.
    let t2_new = applied.id_map[2].expect("t2 survives");
    assert!(mask.is_superset(&cone(&applied.graph, t2_new)));
    // The removed task itself has no new id.
    assert_eq!(applied.id_map[1], None);
    // Exactly: successor cones plus the cones of survivors that shared
    // t1's prior PE (the gap it left lets them slide).
    let pe = prior.schedule.task(TaskId::new(1)).pe;
    let mut expected = cone(&applied.graph, t2_new);
    for old in 0..graph.task_count() {
        if let Some(new) = applied.id_map[old] {
            if prior.schedule.task(TaskId::new(old as u32)).pe == pe {
                expected.extend(cone(&applied.graph, new));
            }
        }
    }
    assert_eq!(mask, expected);
}

#[test]
fn fail_pe_mask_covers_the_stranded_cones() {
    let platform = mesh(2, 2);
    let graph = chain_graph(platform.tile_count());
    let prior = EasScheduler::full()
        .schedule(&graph, &platform)
        .expect("schedules");
    let pe = prior.schedule.task(TaskId::new(0)).pe;
    let edits = vec![Edit::FailPe {
        pe: pe.index() as u32,
    }];
    let applied = apply_edits(&graph, &edits).expect("applies");
    let mask = as_set(applied.edit_mask(0, &graph, &prior.schedule));
    // Every task that sat on the failed PE must evacuate, dragging its
    // cone along; nothing else is affected.
    let mut expected = BTreeSet::new();
    for t in graph.task_ids() {
        if prior.schedule.task(t).pe == pe {
            expected.extend(cone(
                &applied.graph,
                applied.id_map[t.index()].expect("survives"),
            ));
        }
    }
    assert_eq!(mask, expected);
    assert!(
        mask.contains(&0),
        "the task that defined the PE is stranded"
    );
}

#[test]
fn restore_pe_mask_is_empty() {
    let platform = mesh(2, 2);
    let graph = chain_graph(platform.tile_count());
    let prior = EasScheduler::full()
        .schedule(&graph, &platform)
        .expect("schedules");
    let edits = vec![Edit::FailPe { pe: 3 }, Edit::RestorePe { pe: 3 }];
    let applied = apply_edits(&graph, &edits).expect("applies");
    // Restoring capacity forces nothing to move.
    assert_eq!(applied.edit_mask(1, &graph, &prior.schedule), Vec::new());
}

#[test]
fn link_edit_masks_cover_every_task() {
    let platform = mesh(2, 2);
    let graph = chain_graph(platform.tile_count());
    let prior = EasScheduler::full()
        .schedule(&graph, &platform)
        .expect("schedules");
    let edits = vec![
        Edit::FailLink { from: 0, to: 1 },
        Edit::RestoreLink { from: 0, to: 1 },
    ];
    let applied = apply_edits(&graph, &edits).expect("applies");
    // Routing changes can reroute any transfer: the conservative mask
    // is the whole graph, for both fail and restore.
    let all = set(&[0, 1, 2, 3]);
    assert_eq!(as_set(applied.edit_mask(0, &graph, &prior.schedule)), all);
    assert_eq!(as_set(applied.edit_mask(1, &graph, &prior.schedule)), all);
}

#[test]
fn is_platform_edit_classifies_the_edit_kinds() {
    assert!(Edit::FailPe { pe: 0 }.is_platform_edit());
    assert!(Edit::RestorePe { pe: 0 }.is_platform_edit());
    assert!(Edit::FailLink { from: 0, to: 1 }.is_platform_edit());
    assert!(Edit::RestoreLink { from: 0, to: 1 }.is_platform_edit());
    assert!(!Edit::RemoveTask { task: 0 }.is_platform_edit());
    assert!(!Edit::SetDeadline {
        task: 0,
        deadline: None
    }
    .is_platform_edit());
}

#[test]
fn single_edit_repair_warm_starts() {
    let platform = mesh(2, 2);
    let graph = chain_graph(platform.tile_count());
    let prior = EasScheduler::full()
        .schedule(&graph, &platform)
        .expect("schedules");
    let edits = vec![Edit::SetDeadline {
        task: 2,
        deadline: Some(200_000),
    }];
    let applied = apply_edits(&graph, &edits).expect("applies");
    let delta = repair_from(&graph, &prior.schedule, &platform, &applied).expect("repairs");
    assert!(delta.warm_start);
    assert_eq!(delta.reason, REASON_WARM_START);
    assert_eq!(delta.edits, 1);
    assert_eq!(delta.mask_tasks, 1);
    assert!(validate(&delta.outcome.schedule, &applied.graph, &platform).is_ok());
}

#[test]
fn edit_storm_falls_back_to_full_reschedule() {
    let platform = mesh(2, 2);
    let graph = chain_graph(platform.tile_count());
    let prior = EasScheduler::full()
        .schedule(&graph, &platform)
        .expect("schedules");
    // As many edits as tasks: rebasing would re-touch everything, so
    // the warm start is rejected up front.
    let edits: Vec<Edit> = (0..graph.task_count() as u32)
        .map(|t| Edit::SetDeadline {
            task: t,
            deadline: None,
        })
        .collect();
    let applied = apply_edits(&graph, &edits).expect("applies");
    let delta = repair_from(&graph, &prior.schedule, &platform, &applied).expect("reschedules");
    assert!(!delta.warm_start);
    assert_eq!(delta.reason, REASON_EDIT_STORM);
    assert!(validate(&delta.outcome.schedule, &applied.graph, &platform).is_ok());
}

#[test]
fn failing_every_pe_is_rejected_before_repair() {
    let platform = mesh(2, 2);
    let pe_count = platform.tile_count();
    let edits: Vec<Edit> = (0..pe_count as u32).map(|pe| Edit::FailPe { pe }).collect();
    // The platform builder refuses a fault set with no alive PE, so the
    // edit sequence dies at apply_platform_edits -- which is why the
    // repair-side REASON_NO_ALIVE_PE guard is unreachable from
    // well-formed inputs: it only fires if a caller hands repair_from a
    // platform that bypassed apply_platform_edits.
    let err = apply_platform_edits(&platform, &edits).expect_err("all-dead platform rejected");
    assert!(err.contains("no PE left"), "unexpected error: {err}");
}

#[test]
fn fallback_reasons_are_distinct_and_traced() {
    // The decision vocabulary the trace and the service surface: four
    // distinct, stable strings.
    let reasons = [
        REASON_WARM_START,
        REASON_EDIT_STORM,
        REASON_NO_ALIVE_PE,
        REASON_RETIME_DEADLOCK,
    ];
    let unique: BTreeSet<&str> = reasons.iter().copied().collect();
    assert_eq!(unique.len(), reasons.len());

    // Every repair_from run emits exactly one DeltaDecision carrying
    // one of them, before the repair pipeline starts.
    let platform = mesh(2, 2);
    let graph = chain_graph(platform.tile_count());
    let prior = EasScheduler::full()
        .schedule(&graph, &platform)
        .expect("schedules");
    let edits = vec![Edit::SetDeadline {
        task: 2,
        deadline: Some(200_000),
    }];
    let applied = apply_edits(&graph, &edits).expect("applies");
    let mut sink = BufferSink::new();
    repair_from_traced(
        &graph,
        &prior.schedule,
        &platform,
        &applied,
        &ComputeBudget::unlimited(),
        &mut sink,
    )
    .expect("repairs");
    let decisions: Vec<(bool, &str)> = sink
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::DeltaDecision {
                warm_start, reason, ..
            } => Some((warm_start, reason)),
            _ => None,
        })
        .collect();
    assert_eq!(decisions, vec![(true, REASON_WARM_START)]);
}

#[test]
fn conflicting_insertion_reports_retime_deadlock() {
    // Two independent tasks whose costs pin them to PE 0; a new task
    // wired *after* the later one and *before* the earlier one forces
    // an insertion the rebased per-PE order cannot satisfy.
    let platform = mesh(2, 1);
    let pe_count = platform.tile_count();
    let pinned = |name: &str| {
        Task::new(
            name,
            vec![Time::new(50), Time::new(50_000)],
            vec![Energy::from_nj(1.0), Energy::from_nj(1_000_000.0)],
        )
    };
    let mut b = TaskGraph::builder("deadlock", pe_count);
    let a = b.add_task(pinned("a"));
    let c = b.add_task(pinned("c"));
    let graph = b.build().expect("builds");
    let prior = EasScheduler::full()
        .schedule(&graph, &platform)
        .expect("schedules");
    let (pa, pc) = (prior.schedule.task(a), prior.schedule.task(c));
    assert_eq!(pa.pe, pc.pe, "cost bias must colocate both tasks");
    let (earlier, later) = if pa.start <= pc.start {
        (0u32, 1u32)
    } else {
        (1u32, 0u32)
    };
    let edits = vec![Edit::AddTask {
        name: "wedge".to_owned(),
        exec_times: vec![50, 50_000],
        exec_energies: vec![1.0, 1_000_000.0],
        deadline: None,
        edges_in: vec![EdgeRef {
            task: later,
            bits: 0,
        }],
        edges_out: vec![EdgeRef {
            task: earlier,
            bits: 0,
        }],
    }];
    let applied = apply_edits(&graph, &edits).expect("applies");
    let delta = repair_from(&graph, &prior.schedule, &platform, &applied).expect("reschedules");
    assert!(!delta.warm_start);
    assert_eq!(delta.reason, REASON_RETIME_DEADLOCK);
    assert!(validate(&delta.outcome.schedule, &applied.graph, &platform).is_ok());
}

/// Strategy: a small random CTG configuration (the delta twin of the
/// one in `integration_properties.rs`, kept small -- each case runs a
/// full schedule plus two repairs).
fn tgff_config() -> impl Strategy<Value = TgffConfig> {
    (
        0u64..1_000,
        8usize..20,
        1.5f64..3.0,
        (64u64..512, 512u64..4096),
    )
        .prop_map(|(seed, task_count, laxity, (vol_lo, vol_hi))| {
            let mut cfg = TgffConfig::small(seed);
            cfg.task_count = task_count;
            cfg.deadline_laxity = laxity;
            cfg.volume_range = (vol_lo, vol_hi);
            cfg.width = (task_count / 4).max(2);
            cfg
        })
}

/// Turns an abstract `(kind, a, b)` script into an edit sequence that
/// is valid against `graph` by construction: task references probe past
/// removed tasks, edge edits pick surviving edges, and at most two of
/// the four PEs fail so the fallback always has somewhere to place.
fn concrete_edits(graph: &TaskGraph, script: &[(u8, u64, u64)]) -> Vec<Edit> {
    let n = graph.task_count() as u64;
    let pe_count = graph.pe_count();
    let mut removed: BTreeSet<u64> = BTreeSet::new();
    let mut failed_pes = 0usize;
    let mut edits = Vec::new();
    let alive = |seed: u64, removed: &BTreeSet<u64>| -> Option<u64> {
        (0..n)
            .map(|k| (seed + k) % n)
            .find(|t| !removed.contains(t))
    };
    for (i, &(kind, a, b)) in script.iter().enumerate() {
        match kind % 5 {
            0 => {
                if let Some(t) = alive(a % n, &removed) {
                    let task = graph.task(TaskId::new(t as u32));
                    edits.push(Edit::SetExecTime {
                        task: t as u32,
                        exec_times: task
                            .exec_times()
                            .iter()
                            .map(|w| w.ticks() + b % 17 + 1)
                            .collect(),
                        exec_energies: task
                            .exec_energies()
                            .iter()
                            .map(|e| e.as_nj() * 1.1 + 0.5)
                            .collect(),
                    });
                }
            }
            1 => {
                if let Some(t) = alive(a % n, &removed) {
                    edits.push(Edit::SetDeadline {
                        task: t as u32,
                        deadline: None,
                    });
                }
            }
            2 => {
                let live: Vec<_> = graph
                    .edges()
                    .iter()
                    .filter(|e| {
                        !removed.contains(&(e.src.index() as u64))
                            && !removed.contains(&(e.dst.index() as u64))
                    })
                    .collect();
                if !live.is_empty() {
                    let e = live[(a as usize) % live.len()];
                    edits.push(Edit::SetEdgeVolume {
                        src: e.src.index() as u32,
                        dst: e.dst.index() as u32,
                        bits: e.volume.bits() / 2 + b % 256 + 1,
                    });
                }
            }
            3 => {
                if let Some(t) = alive(a % n, &removed) {
                    edits.push(Edit::AddTask {
                        name: format!("delta_{i}"),
                        exec_times: vec![40 + b % 60; pe_count],
                        exec_energies: vec![(b % 100) as f64 + 1.0; pe_count],
                        deadline: None,
                        edges_in: vec![EdgeRef {
                            task: t as u32,
                            bits: 256 + b % 1024,
                        }],
                        edges_out: Vec::new(),
                    });
                }
            }
            _ => {
                if removed.len() + 3 < n as usize {
                    if let Some(t) = alive(a % n, &removed) {
                        removed.insert(t);
                        edits.push(Edit::RemoveTask { task: t as u32 });
                    }
                } else if failed_pes < 2 {
                    failed_pes += 1;
                    edits.push(Edit::FailPe {
                        pe: (a % pe_count as u64) as u32,
                    });
                }
            }
        }
    }
    edits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the edit sequence, the repaired (or fallback) schedule
    /// passes full validation against the edited graph and platform,
    /// and the per-edit masks union to the sequence mask.
    #[test]
    fn repaired_schedules_always_validate(
        cfg in tgff_config(),
        script in prop::collection::vec((0u8..5, 0u64..u64::MAX, 0u64..u64::MAX), 1..6),
    ) {
        let platform = mesh(2, 2);
        let graph = TgffGenerator::new(cfg).generate(&platform).expect("generates");
        let prior = EasScheduler::full().schedule(&graph, &platform).expect("schedules");
        let edits = concrete_edits(&graph, &script);
        let applied = apply_edits(&graph, &edits).expect("edits apply by construction");
        let edited = apply_platform_edits(&platform, &applied.edits).expect("platform applies");
        let delta = repair_from(&graph, &prior.schedule, &edited, &applied)
            .expect("repairs");
        prop_assert!(validate(&delta.outcome.schedule, &applied.graph, &edited).is_ok());
        prop_assert_eq!(delta.edits, applied.edits.len());

        let union: BTreeSet<u32> = (0..applied.edits.len())
            .flat_map(|i| applied.edit_mask(i, &graph, &prior.schedule))
            .map(|t| t.index() as u32)
            .collect();
        let full = as_set(applied.mask(&graph, &prior.schedule));
        prop_assert_eq!(union.len(), delta.mask_tasks);
        prop_assert_eq!(union, full);
    }
}

//! Differential gate for search and repair (Step 3): `search_and_repair`
//! and `repair_with_faults` must return the same schedule and the same
//! `RepairStats` as a straightforward copy of the repair loop kept here,
//! which re-times every LTS/GTM candidate in full through the public
//! `retime`. The library resumes each candidate at its first changed
//! step, stops it once it cannot win, and materialises only accepted
//! moves; none of that may change a byte or a counter.

use proptest::prelude::*;

use noc_ctg::prelude::*;
use noc_eas::comm::incoming_comm_energy;
use noc_eas::prelude::*;
use noc_eas::repair::{repair_with_faults, search_and_repair, RepairStats, MAX_REPAIR_TRIALS};
use noc_eas::retime::{retime, OrderedAssignment};
use noc_platform::prelude::*;
use noc_schedule::{Schedule, TaskPlacement};

type Badness = (usize, Time);

fn badness(schedule: &Schedule, graph: &TaskGraph) -> Badness {
    let misses = schedule.deadline_misses(graph);
    let tardiness: Time = misses.iter().map(|(_, t)| *t).sum();
    (misses.len(), tardiness)
}

fn critical_tasks(graph: &TaskGraph, schedule: &Schedule) -> Vec<TaskId> {
    let analysis = GraphAnalysis::new(graph);
    let mut critical = vec![false; graph.task_count()];
    for (m, _) in schedule.deadline_misses(graph) {
        critical[m.index()] = true;
        for a in analysis.ancestors_of(m) {
            critical[a.index()] = true;
        }
    }
    graph.task_ids().filter(|t| critical[t.index()]).collect()
}

fn migration_energy(
    graph: &TaskGraph,
    platform: &Platform,
    schedule: &Schedule,
    t: TaskId,
    k: PeId,
) -> Energy {
    let placements: Vec<Option<TaskPlacement>> = schedule
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

/// Destinations in increasing migration energy (ties: PE id).
fn destinations(
    graph: &TaskGraph,
    platform: &Platform,
    schedule: &Schedule,
    t: TaskId,
    pes: impl Iterator<Item = PeId>,
) -> Vec<(Energy, PeId)> {
    let mut dests: Vec<(Energy, PeId)> = pes
        .map(|k| (migration_energy(graph, platform, schedule, t, k), k))
        .collect();
    dests.sort_by(|a, b| {
        (a.0, a.1.index())
            .partial_cmp(&(b.0, b.1.index()))
            .expect("finite energies")
    });
    dests
}

/// Position in `dst`'s queue before the first task starting after
/// `old_start`.
fn anchor(oa: &OrderedAssignment, schedule: &Schedule, dst: PeId, old_start: Time) -> usize {
    let queue = &oa.order[dst.index()];
    queue
        .iter()
        .position(|&x| schedule.task(x).start > old_start)
        .unwrap_or(queue.len())
}

/// The Fig. 4 loop, re-timing every candidate from scratch.
fn reference_repair(
    graph: &TaskGraph,
    platform: &Platform,
    schedule: Schedule,
) -> (Schedule, RepairStats) {
    let mut stats = RepairStats::default();
    if badness(&schedule, graph).0 == 0 {
        return (schedule, stats);
    }
    let mut oa = OrderedAssignment::from_schedule(&schedule, platform);
    let Some(mut current) = retime(graph, platform, &oa) else {
        return (schedule, stats);
    };
    let mut best = badness(&current, graph);
    if best.0 == 0 {
        return (current, stats);
    }
    loop {
        let mut lts_improved = true;
        'lts: while lts_improved && best.0 > 0 && stats.trials < MAX_REPAIR_TRIALS {
            lts_improved = false;
            let crit = critical_tasks(graph, &current);
            let mut is_crit = vec![false; graph.task_count()];
            for &c in &crit {
                is_crit[c.index()] = true;
            }
            for &t1 in &crit {
                let pe = oa.assignment[t1.index()];
                for pos2 in 0..oa.position(t1) {
                    let t2 = oa.order[pe.index()][pos2];
                    if is_crit[t2.index()] {
                        continue;
                    }
                    oa.swap(t1, t2);
                    stats.trials += 1;
                    if let Some(c) = retime(graph, platform, &oa) {
                        if badness(&c, graph) < best {
                            best = badness(&c, graph);
                            current = c;
                            stats.lts_accepted += 1;
                            lts_improved = true;
                            continue 'lts;
                        }
                    }
                    oa.swap(t1, t2);
                    if stats.trials >= MAX_REPAIR_TRIALS {
                        break 'lts;
                    }
                }
            }
        }
        if best.0 == 0 || stats.trials >= MAX_REPAIR_TRIALS {
            break;
        }
        let mut migrated = false;
        'gtm: for t in critical_tasks(graph, &current) {
            let src = oa.assignment[t.index()];
            let alive = platform.alive_pes().filter(|&k| k != src);
            let dests = destinations(graph, platform, &current, t, alive);
            let old_start = current.task(t).start;
            let src_pos = oa.position(t);
            for (_, dst) in dests {
                if stats.trials >= MAX_REPAIR_TRIALS {
                    break 'gtm;
                }
                let at = anchor(&oa, &current, dst, old_start);
                oa.migrate(t, dst, at);
                stats.trials += 1;
                if let Some(c) = retime(graph, platform, &oa) {
                    if badness(&c, graph) < best {
                        best = badness(&c, graph);
                        current = c;
                        stats.gtm_accepted += 1;
                        migrated = true;
                        break 'gtm;
                    }
                }
                oa.migrate(t, src, src_pos);
            }
        }
        if !migrated {
            break;
        }
    }
    (current, stats)
}

/// The evacuate-then-repair path of `repair_with_faults`, over
/// [`reference_repair`].
fn reference_repair_with_faults(
    graph: &TaskGraph,
    platform: &Platform,
    schedule: &Schedule,
) -> Option<(Schedule, RepairStats)> {
    let mut oa = OrderedAssignment::from_schedule(schedule, platform);
    for t in graph.task_ids() {
        if platform.pe_alive(oa.assignment[t.index()]) {
            continue;
        }
        let dests = destinations(graph, platform, schedule, t, platform.alive_pes());
        let dst = dests.first()?.1;
        let at = anchor(&oa, schedule, dst, schedule.task(t).start);
        oa.migrate(t, dst, at);
    }
    let rebased = retime(graph, platform, &oa)?;
    Some(reference_repair(graph, platform, rebased))
}

fn mesh(side: u16, faults: Option<String>) -> Platform {
    let mut builder = Platform::builder()
        .topology(TopologySpec::mesh(side, side))
        .pe_mix(PeCatalog::date04().cycle_mix());
    if let Some(spec) = faults {
        builder = builder.faults(FaultSet::parse(&spec).expect("fault spec parses"));
    }
    builder
        .build()
        .expect("one dead tile or link keeps a mesh connected")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// On random tight TGFF graphs, pristine and with one dead tile or
    /// link, the library's repair equals the full re-timing loop's.
    #[test]
    fn repair_matches_the_full_retime_loop(
        seed in 0u64..10_000,
        side in 2u16..5,
        tasks in 16usize..56,
        laxity in 0.8f64..1.0,
        fault in 0u8..3,
        spot in 0u16..16,
    ) {
        let pristine = mesh(side, None);
        let mut cfg = TgffConfig::category_i(seed);
        cfg.task_count = tasks;
        cfg.deadline_laxity = laxity;
        let graph = TgffGenerator::new(cfg).generate(&pristine).expect("generates");

        let tile = spot % (side * side);
        let col = tile % side;
        let beside = if col + 1 < side { tile + 1 } else { tile - 1 };
        let faults = match fault {
            0 => None,
            1 => Some(format!("tile:{tile}")),
            _ => Some(format!("link:{tile}-{beside}")),
        };
        let platform = mesh(side, faults.clone());

        let base = EasScheduler::base().schedule(&graph, &platform).expect("eas-base");
        let got = search_and_repair(&graph, &platform, base.schedule.clone());
        let want = reference_repair(&graph, &platform, base.schedule);
        prop_assert_eq!(&got, &want);

        if faults.is_some() {
            let prior = EasScheduler::full().schedule(&graph, &pristine).expect("eas");
            let got = repair_with_faults(&graph, &platform, &prior.schedule);
            let want = reference_repair_with_faults(&graph, &platform, &prior.schedule);
            prop_assert_eq!(got, want);
        }
    }
}

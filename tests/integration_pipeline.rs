//! End-to-end pipeline integration: platform -> CTG -> scheduler ->
//! validated schedule, across topologies, schedulers and workloads.

use noc_ctg::prelude::*;
use noc_eas::prelude::*;
use noc_platform::prelude::*;
use noc_schedule::{validate, ScheduleStats};

fn mesh(cols: u16, rows: u16) -> Platform {
    Platform::builder()
        .topology(TopologySpec::mesh(cols, rows))
        .pe_mix(PeCatalog::date04().cycle_mix())
        .build()
        .expect("mesh builds")
}

#[test]
fn all_schedulers_produce_valid_schedules_on_random_graphs() {
    let platform = mesh(4, 4);
    let eas_base = EasScheduler::base();
    let eas = EasScheduler::full();
    let edf = EdfScheduler::new();
    for seed in 0..5u64 {
        let graph = TgffGenerator::new(TgffConfig::small(seed))
            .generate(&platform)
            .expect("generates");
        for scheduler in [&eas_base as &dyn Scheduler, &eas, &edf] {
            let outcome = scheduler.schedule(&graph, &platform).expect("schedules");
            // Independent re-validation of the artifact.
            let report =
                validate(&outcome.schedule, &graph, &platform).expect("structurally valid");
            assert_eq!(report, outcome.report, "seed {seed} {}", scheduler.name());
        }
    }
}

#[test]
fn eas_energy_never_exceeds_edf_on_benchmarks() {
    let platform = mesh(4, 4);
    let eas = EasScheduler::full();
    let edf = EdfScheduler::new();
    for seed in 0..5u64 {
        let graph = TgffGenerator::new(TgffConfig::small(seed))
            .generate(&platform)
            .expect("generates");
        let e = eas.schedule(&graph, &platform).expect("eas");
        let d = edf.schedule(&graph, &platform).expect("edf");
        assert!(
            e.stats.energy.total().as_nj() <= d.stats.energy.total().as_nj() * 1.001,
            "seed {seed}: EAS {} vs EDF {}",
            e.stats.energy.total(),
            d.stats.energy.total()
        );
    }
}

#[test]
fn scheduling_is_deterministic() {
    let platform = mesh(4, 4);
    let graph = TgffGenerator::new(TgffConfig::small(3))
        .generate(&platform)
        .expect("generates");
    let a = EasScheduler::full().schedule(&graph, &platform).expect("a");
    let b = EasScheduler::full().schedule(&graph, &platform).expect("b");
    assert_eq!(a.schedule, b.schedule);
    let a = EdfScheduler::new().schedule(&graph, &platform).expect("a");
    let b = EdfScheduler::new().schedule(&graph, &platform).expect("b");
    assert_eq!(a.schedule, b.schedule);
}

#[test]
fn multimedia_apps_schedule_on_their_paper_platforms() {
    for (app, mesh_dims) in [
        (MultimediaApp::AvEncoder, (2, 2)),
        (MultimediaApp::AvDecoder, (2, 2)),
        (MultimediaApp::AvIntegrated, (3, 3)),
    ] {
        let platform = mesh(mesh_dims.0, mesh_dims.1);
        for clip in Clip::all() {
            let graph = app.build(clip, &platform).expect("builds");
            let outcome = EasScheduler::full()
                .schedule(&graph, &platform)
                .expect("schedules");
            assert!(
                outcome.report.meets_deadlines(),
                "{app} {clip}: misses {:?}",
                outcome.report.deadline_misses
            );
        }
    }
}

#[test]
fn eas_works_on_torus_and_honeycomb() {
    for (topology, routing) in [
        (TopologySpec::torus(4, 4), RoutingSpec::Xy),
        (TopologySpec::honeycomb(4, 4), RoutingSpec::ShortestPath),
        (TopologySpec::mesh(4, 4), RoutingSpec::Yx),
    ] {
        let platform = Platform::builder()
            .topology(topology.clone())
            .routing(routing)
            .build()
            .expect("builds");
        let graph = TgffGenerator::new(TgffConfig::small(1))
            .generate(&platform)
            .expect("generates");
        let outcome = EasScheduler::full()
            .schedule(&graph, &platform)
            .expect("schedules");
        validate(&outcome.schedule, &graph, &platform).expect("valid");
    }
}

#[test]
fn search_and_repair_fixes_base_misses_with_small_energy_cost() {
    let platform = mesh(4, 4);
    let mut fixed_any = false;
    for seed in 0..12u64 {
        let mut cfg = TgffConfig::small(seed);
        cfg.deadline_laxity = 0.95; // provoke misses
        let graph = TgffGenerator::new(cfg)
            .generate(&platform)
            .expect("generates");
        let base = EasScheduler::base()
            .schedule(&graph, &platform)
            .expect("base");
        let full = EasScheduler::full()
            .schedule(&graph, &platform)
            .expect("full");
        assert!(
            full.report.deadline_misses.len() <= base.report.deadline_misses.len(),
            "seed {seed}"
        );
        if !base.report.meets_deadlines() && full.report.meets_deadlines() {
            fixed_any = true;
            // Paper: "negligible increase in the energy consumption".
            let increase = full.stats.energy.total().as_nj() / base.stats.energy.total().as_nj();
            assert!(increase < 1.25, "seed {seed}: repair cost {increase}");
        }
    }
    assert!(
        fixed_any,
        "expected at least one repaired benchmark in the sweep"
    );
}

#[test]
fn stats_energy_split_adds_up() {
    let platform = mesh(2, 2);
    let graph = MultimediaApp::AvEncoder
        .build(Clip::Foreman, &platform)
        .expect("builds");
    let outcome = EasScheduler::full()
        .schedule(&graph, &platform)
        .expect("schedules");
    let stats = ScheduleStats::compute(&outcome.schedule, &graph, &platform);
    let total = stats.energy.computation + stats.energy.communication;
    assert!((total.as_nj() - stats.energy.total().as_nj()).abs() < 1e-9);
    assert!(stats.energy.computation.as_nj() > 0.0);
    assert!(stats.energy.communication.as_nj() > 0.0);
}

#[test]
fn graph_platform_mismatch_is_surfaced() {
    let p22 = mesh(2, 2);
    let p33 = mesh(3, 3);
    let graph = MultimediaApp::AvEncoder
        .build(Clip::Akiyo, &p22)
        .expect("builds");
    assert!(matches!(
        EasScheduler::full().schedule(&graph, &p33),
        Err(SchedulerError::PeCountMismatch {
            graph: 4,
            platform: 9
        })
    ));
}

/// 64-bit FNV-1a, the digest the golden-byte oracle pins.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One pinned run: the FNV-1a digest of the serialized schedule and the
/// `(lts_accepted, gtm_accepted, trials)` repair counters.
type Golden = (u64, (usize, usize, usize));

fn golden(outcome: &ScheduleOutcome) -> Golden {
    let json = serde_json::to_string(&outcome.schedule).expect("schedules serialize");
    let r = outcome.repair;
    (
        fnv1a(json.as_bytes()),
        (r.lts_accepted, r.gtm_accepted, r.trials),
    )
}

/// A category-I TGFF graph resized to `tasks` at deadline `laxity`.
fn tgff(platform: &Platform, seed: u64, tasks: usize, laxity: f64) -> TaskGraph {
    let mut cfg = TgffConfig::category_i(seed);
    cfg.task_count = tasks;
    cfg.deadline_laxity = laxity;
    TgffGenerator::new(cfg)
        .generate(platform)
        .expect("generates")
}

/// Digests pinned by [`schedules_and_repair_counters_match_golden_digests`],
/// in its run order: EAS on the three svc_cold-like graphs, EAS on the
/// three tight graphs, EAS-base on the svc_cold-like graphs, the
/// warm-start repair, EAS on Fig. 6 benchmark 5, then the default
/// annealer on the three tight graphs.
const GOLDEN: [Golden; 14] = [
    (0xf58cae58ab0b9e69, (0, 0, 0)),
    (0xc5fb7c05d2dcaaa6, (0, 0, 0)),
    (0xfde4ccce16983222, (0, 0, 0)),
    (0x0d40be53824a717d, (7, 12, 1137)),
    (0x305f61161c00ac90, (0, 3, 213)),
    (0x8df2ef3835fc3f9b, (9, 2, 183)),
    (0xf58cae58ab0b9e69, (0, 0, 0)),
    (0xc5fb7c05d2dcaaa6, (0, 0, 0)),
    (0xfde4ccce16983222, (0, 0, 0)),
    (0x69cb6bd0a53d3da3, (2, 31, 1994)),
    (0xd69c5772b862eab2, (17, 6, 13228)),
    (0xb579ff337a5c6bf2, (0, 0, 0)),
    (0x436f46aec353ae39, (0, 0, 0)),
    (0xd8d0366596fdc184, (0, 0, 0)),
];

/// Golden-byte oracle for the scheduler hot path: F(i,k) evaluation,
/// the trial cache, level selection, LTS/GTM candidate order and trial
/// accounting all feed these digests, so any change that alters a
/// schedule byte or a repair counter fails here.
#[test]
fn schedules_and_repair_counters_match_golden_digests() {
    let p44 = mesh(4, 4);
    let p22 = mesh(2, 2);
    // Like svc_cold: category I on mesh:4x4, 60-250 tasks, laxity 2.6.
    let cold = [(1, 60), (2, 160), (3, 250)].map(|(seed, n)| tgff(&p44, seed, n, 2.6));
    // Tight 40-task graphs on mesh:2x2: level scheduling misses
    // deadlines, so LTS and GTM both run.
    let tight = [2, 3, 9].map(|seed| tgff(&p22, seed, 40, 0.9));

    let mut got = Vec::new();
    for g in &cold {
        let out = EasScheduler::full().schedule(g, &p44).expect("eas");
        got.push(golden(&out));
    }
    for g in &tight {
        let out = EasScheduler::full().schedule(g, &p22).expect("eas");
        got.push(golden(&out));
    }
    for g in &cold {
        let out = EasScheduler::base().schedule(g, &p44).expect("eas-base");
        got.push(golden(&out));
    }
    let prior = EasScheduler::full().schedule(&tight[0], &p22).expect("eas");
    let edits = vec![
        Edit::SetDeadline {
            task: 5,
            deadline: Some(1_500),
        },
        Edit::FailPe { pe: 3 },
    ];
    let applied = apply_edits(&tight[0], &edits).expect("edits apply");
    let edited = apply_platform_edits(&p22, &applied.edits).expect("platform edits apply");
    let delta = repair_from(&tight[0], &prior.schedule, &edited, &applied).expect("repairs");
    assert!(delta.warm_start, "reason: {}", delta.reason);
    got.push(golden(&delta.outcome));
    // Paper scale: category-II seed 5, the cheapest Fig. 6 benchmark
    // that needs repair (500 tasks, 13k candidate re-timings).
    let fig6 = tgff(&p44, 5, 500, 1.55);
    let out = EasScheduler::full().schedule(&fig6, &p44).expect("eas");
    got.push(golden(&out));
    // The annealer as `noceas --scheduler anneal` and the service run it.
    for g in &tight {
        let out = AnnealScheduler::default()
            .schedule(g, &p22)
            .expect("anneal");
        got.push(golden(&out));
    }

    let tight_runs = &got[3..6];
    assert!(tight_runs.iter().any(|(_, (lts, _, _))| *lts > 0));
    assert!(tight_runs.iter().any(|(_, (_, gtm, _))| *gtm > 0));
    let rendered: Vec<String> = got
        .iter()
        .map(|(d, (l, g, t))| format!("    ({d:#018x}, ({l}, {g}, {t})),"))
        .collect();
    assert_eq!(got, GOLDEN, "actual:\n{}", rendered.join("\n"));
}

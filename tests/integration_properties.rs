//! Property-based integration tests: every randomly generated CTG on
//! every platform shape must yield structurally valid schedules, stable
//! re-timings, and monotone budgets.

use proptest::prelude::*;

use noc_ctg::prelude::*;
use noc_eas::prelude::*;
use noc_eas::retime::{retime, OrderedAssignment};
use noc_platform::prelude::*;
use noc_schedule::validate;

fn platform(cols: u16, rows: u16) -> Platform {
    Platform::builder()
        .topology(TopologySpec::mesh(cols, rows))
        .pe_mix(PeCatalog::date04().cycle_mix())
        .build()
        .expect("mesh builds")
}

/// Strategy: a small random CTG configuration.
fn tgff_config() -> impl Strategy<Value = TgffConfig> {
    (
        0u64..1_000,
        8usize..40,
        1.2f64..3.0,
        0.0f64..0.3,
        (64u64..512, 512u64..4096),
    )
        .prop_map(
            |(seed, task_count, laxity, control_prob, (vol_lo, vol_hi))| {
                let mut cfg = TgffConfig::small(seed);
                cfg.task_count = task_count;
                cfg.deadline_laxity = laxity;
                cfg.control_edge_prob = control_prob;
                cfg.volume_range = (vol_lo, vol_hi);
                cfg.width = (task_count / 4).max(2);
                cfg
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the workload, every scheduler's output passes the full
    /// Def. 3/4 + dependency validation.
    #[test]
    fn schedules_always_validate(cfg in tgff_config(), dims in 2u16..5) {
        let platform = platform(dims, 2);
        let graph = TgffGenerator::new(cfg).generate(&platform).expect("generates");
        for scheduler in [&EasScheduler::full() as &dyn Scheduler,
                          &EasScheduler::base(), &EdfScheduler::new()] {
            let outcome = scheduler.schedule(&graph, &platform).expect("schedules");
            prop_assert!(validate(&outcome.schedule, &graph, &platform).is_ok());
        }
    }

    /// retime() is a fixpoint on its own output: re-extracting the
    /// (assignment, order) and re-timing reproduces the same schedule.
    #[test]
    fn retime_is_a_fixpoint(cfg in tgff_config()) {
        let platform = platform(4, 4);
        let graph = TgffGenerator::new(cfg).generate(&platform).expect("generates");
        let outcome = EasScheduler::base().schedule(&graph, &platform).expect("schedules");
        let oa = OrderedAssignment::from_schedule(&outcome.schedule, &platform);
        let retimed = retime(&graph, &platform, &oa).expect("feasible");
        let oa2 = OrderedAssignment::from_schedule(&retimed, &platform);
        let retimed2 = retime(&graph, &platform, &oa2).expect("feasible");
        prop_assert_eq!(retimed, retimed2);
    }

    /// Search-and-repair never increases the (miss count, tardiness)
    /// badness and leaves assignments valid.
    #[test]
    fn repair_is_monotone(cfg in tgff_config()) {
        let platform = platform(4, 4);
        let graph = TgffGenerator::new(cfg).generate(&platform).expect("generates");
        let base = EasScheduler::base().schedule(&graph, &platform).expect("base");
        let full = EasScheduler::full().schedule(&graph, &platform).expect("full");
        prop_assert!(full.report.deadline_misses.len()
            <= base.report.deadline_misses.len());
        prop_assert!(validate(&full.schedule, &graph, &platform).is_ok());
    }

    /// Tracing is pure observation: a traced run yields a schedule
    /// byte-identical to the untraced run on every workload, and the
    /// trace itself is non-empty.
    #[test]
    fn tracing_never_perturbs_the_schedule(cfg in tgff_config()) {
        let platform = platform(4, 4);
        let graph = TgffGenerator::new(cfg).generate(&platform).expect("generates");
        let scheduler = EasScheduler::full();
        let plain = scheduler.schedule(&graph, &platform).expect("plain");
        let mut sink = BufferSink::new();
        let traced = scheduler
            .schedule_traced(&graph, &platform, &ComputeBudget::unlimited(), &mut sink)
            .expect("traced");
        prop_assert_eq!(&traced.schedule, &plain.schedule);
        prop_assert_eq!(
            serde_json::to_string(&traced.schedule).expect("serializes"),
            serde_json::to_string(&plain.schedule).expect("serializes"),
            "traced and untraced schedule artifacts must serialize to the same bytes"
        );
        prop_assert!(!sink.events().is_empty(), "a traced run emits events");
    }

    /// Budgeted deadlines never exceed the task's own deadline and are
    /// monotone along dependency chains (BD(pred) <= BD(succ) whenever
    /// both are finite).
    #[test]
    fn budgets_are_consistent(cfg in tgff_config()) {
        let platform = platform(4, 4);
        let graph = TgffGenerator::new(cfg).generate(&platform).expect("generates");
        let budgets = noc_eas::budget::SlackBudgets::compute_with_comm(
            &graph, WeightFunction::VarEnergyTimesVarTime, platform.link_bandwidth());
        for t in graph.task_ids() {
            let bd = budgets.budgeted_deadline(t);
            if let Some(d) = graph.task(t).deadline() {
                prop_assert!(bd <= d, "task {t}: BD {bd} > deadline {d}");
            }
            for s in graph.successors(t) {
                let bs = budgets.budgeted_deadline(s);
                if !bs.is_infinite() {
                    prop_assert!(bd <= bs, "BD({t})={bd} > BD({s})={bs}");
                }
            }
        }
    }

    /// The two-phase mapping baseline respects its load-balance cap on
    /// every workload (no PE carries more than 1.5x the
    /// average mean load, unless capping was infeasible everywhere).
    #[test]
    fn mapping_baseline_is_load_balanced(cfg in tgff_config()) {
        use noc_eas::prelude::MapThenScheduleScheduler;
        let platform = platform(4, 4);
        let graph = TgffGenerator::new(cfg).generate(&platform).expect("generates");
        let outcome = MapThenScheduleScheduler::new()
            .schedule(&graph, &platform)
            .expect("schedules");
        let mut load = vec![0.0f64; platform.tile_count()];
        for t in graph.task_ids() {
            load[outcome.schedule.task(t).pe.index()] += graph.task(t).mean_exec_time();
        }
        let total: f64 = load.iter().sum();
        let cap = (total / platform.tile_count() as f64) * 1.5;
        let max_task = graph.task_ids()
            .map(|t| graph.task(t).mean_exec_time())
            .fold(0.0, f64::max);
        // The cap is only meaningful when the average PE load exceeds a
        // single task (on near-empty platforms heavy communicators
        // legitimately cluster past it); allow one task of overshoot
        // since the cap is checked before adding.
        if total / platform.tile_count() as f64 > max_task {
            for (i, &l) in load.iter().enumerate() {
                prop_assert!(l <= cap + max_task + 1e-9, "PE{i} load {l} exceeds cap {cap}");
            }
        }
    }

    /// Energy accounting is placement-determined: recomputing stats on
    /// the same schedule yields identical numbers, and moving every task
    /// to PE 0 gives exactly the sum of PE-0 energies with zero
    /// communication energy beyond local switch traversals.
    #[test]
    fn energy_accounting_is_consistent(cfg in tgff_config()) {
        let platform = platform(4, 4);
        let graph = TgffGenerator::new(cfg).generate(&platform).expect("generates");
        // All tasks sequentially on PE 0, in topological order.
        let oa = OrderedAssignment {
            assignment: vec![PeId::new(0); graph.task_count()],
            order: {
                let mut order = vec![Vec::new(); platform.tile_count()];
                order[0] = graph.topological_order().to_vec();
                order
            },
        };
        let schedule = retime(&graph, &platform, &oa).expect("sequential is feasible");
        let stats = noc_schedule::ScheduleStats::compute(&schedule, &graph, &platform);
        let expected_comp: f64 = graph.task_ids()
            .map(|t| graph.task(t).exec_energy(PeId::new(0)).as_nj())
            .sum();
        prop_assert!((stats.energy.computation.as_nj() - expected_comp).abs() < 1e-6);
        // Local data transfers only pay the single switch traversal.
        let e_sbit = platform.energy_model().e_sbit.as_nj();
        let expected_comm: f64 = graph.edges().iter()
            .filter(|e| !e.volume.is_zero())
            .map(|e| e_sbit * e.volume.as_f64())
            .sum();
        prop_assert!((stats.energy.communication.as_nj() - expected_comm).abs() < 1e-6);
        prop_assert_eq!(stats.avg_hops_per_packet.max(0.0),
            if graph.edges().iter().any(|e| !e.volume.is_zero()) { 1.0 } else { 0.0 });
    }
}

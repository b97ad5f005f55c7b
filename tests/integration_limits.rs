//! Property-based tests for compute budgets and cooperative
//! cancellation: an interrupted run must be *clean* — it reports a
//! typed error, corrupts nothing, and a subsequent unlimited run on the
//! very same scheduler reproduces the reference schedule exactly.

use std::cell::Cell;

use proptest::prelude::*;

use noc_ctg::prelude::*;
use noc_eas::prelude::*;
use noc_platform::prelude::*;
use noc_schedule::validate;

fn platform() -> Platform {
    Platform::builder()
        .topology(TopologySpec::mesh(3, 3))
        .pe_mix(PeCatalog::date04().cycle_mix())
        .build()
        .expect("mesh builds")
}

/// Iterations of the annealer under test: short enough for a step
/// budget drawn below to run out inside its iteration loop.
const ANNEAL_ITERATIONS: usize = 1_000;

/// The schedulers under test, each with the fewest budget checkpoints
/// an unlimited run must visit: full EAS polls at every level round,
/// and the annealer, after its EAS warm start, at every iteration.
fn schedulers() -> [(Box<dyn Scheduler>, u64); 2] {
    [
        (Box::new(EasScheduler::full()), 1),
        (
            Box::new(AnnealScheduler::new(AnnealConfig {
                iterations: ANNEAL_ITERATIONS,
                ..AnnealConfig::default()
            })),
            ANNEAL_ITERATIONS as u64,
        ),
    ]
}

/// Strategy: a small random CTG configuration.
fn tgff_config() -> impl Strategy<Value = TgffConfig> {
    (0u64..1_000, 8usize..32, 1.2f64..3.0).prop_map(|(seed, task_count, laxity)| {
        let mut cfg = TgffConfig::small(seed);
        cfg.task_count = task_count;
        cfg.deadline_laxity = laxity;
        cfg.width = (task_count / 4).max(2);
        cfg
    })
}

/// A step budget lets the search finish with a valid schedule when it
/// covers every checkpoint an unlimited run visits, and fails with the
/// typed exhaustion error otherwise — and either way the same scheduler
/// afterwards reproduces the reference schedule byte for byte, so an
/// interrupt leaves no residue.
///
/// The allowance is drawn as a fraction of each scheduler's own
/// unlimited checkpoint count (full EAS visits fewer than 30 on these
/// graphs, the annealer over a thousand), so every scheduler takes both
/// the finish and the exhaustion branch; the run counts the interrupted
/// cases per scheduler and requires some of each kind.
#[test]
fn step_budgets_interrupt_cleanly() {
    const CASES: u32 = 24;
    let interrupted: [Cell<u32>; 2] = Default::default();
    proptest::test_runner::run_cases(
        ProptestConfig::with_cases(CASES),
        "step_budgets_interrupt_cleanly",
        &(tgff_config(), 0.0f64..2.0),
        |(cfg, fraction)| {
            let platform = platform();
            let graph = TgffGenerator::new(cfg)
                .generate(&platform)
                .expect("generates");
            for (n, (scheduler, min_checkpoints)) in schedulers().into_iter().enumerate() {
                let name = scheduler.name();
                let unlimited = ComputeBudget::unlimited();
                let reference = scheduler
                    .schedule_traced(&graph, &platform, &unlimited, &mut NullSink)
                    .expect("schedules");
                let checkpoints = unlimited.steps_used();
                prop_assert!(
                    checkpoints >= min_checkpoints,
                    "{name}: {checkpoints} checkpoints, expected at least {min_checkpoints}"
                );

                let steps = (fraction * checkpoints as f64) as u64;
                let budget = ComputeBudget::steps(steps);
                match scheduler.schedule_traced(&graph, &platform, &budget, &mut NullSink) {
                    Ok(outcome) => {
                        prop_assert!(
                            steps >= checkpoints,
                            "{name}: {steps} < {checkpoints} steps"
                        );
                        prop_assert!(validate(&outcome.schedule, &graph, &platform).is_ok());
                        prop_assert_eq!(
                            &outcome.schedule,
                            &reference.schedule,
                            "{}: a budget that suffices must not change the result",
                            name
                        );
                    }
                    Err(SchedulerError::BudgetExhausted(cause)) => {
                        prop_assert_eq!(cause, Interrupt::Steps);
                        prop_assert!(
                            steps < checkpoints,
                            "{name}: {steps} >= {checkpoints} steps"
                        );
                        interrupted[n].set(interrupted[n].get() + 1);
                    }
                    Err(other) => prop_assert!(false, "{name}: unexpected error: {other}"),
                }

                // The interrupted (or finished) scheduler is still pristine.
                let again = scheduler
                    .schedule_traced(
                        &graph,
                        &platform,
                        &ComputeBudget::unlimited(),
                        &mut NullSink,
                    )
                    .expect("unlimited budget always finishes");
                prop_assert_eq!(again.schedule, reference.schedule);
            }
        },
    );
    for ((scheduler, _), count) in schedulers().iter().zip(&interrupted) {
        let name = scheduler.name();
        assert!(count.get() > 0, "{name}: no case exhausted its step budget");
        assert!(
            count.get() < CASES,
            "{name}: no case finished within its budget"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A token cancelled before the call interrupts every scheduler
    /// immediately, as the dedicated `Interrupted` error.
    #[test]
    fn pre_cancelled_tokens_interrupt_immediately(cfg in tgff_config()) {
        let platform = platform();
        let graph = TgffGenerator::new(cfg).generate(&platform).expect("generates");
        let token = CancelToken::new();
        token.cancel();
        let budget = ComputeBudget::unlimited().with_cancel(token);
        for (scheduler, _) in schedulers() {
            let result = scheduler.schedule_traced(&graph, &platform, &budget, &mut NullSink);
            prop_assert!(
                matches!(result, Err(SchedulerError::Interrupted)),
                "{}: got {result:?}", scheduler.name()
            );
        }
    }
}

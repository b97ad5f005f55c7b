//! Public scheduler API: configurations, outcomes and the [`Scheduler`]
//! trait.

use serde::{Deserialize, Serialize};
use std::fmt;

use noc_ctg::task::Task;
use noc_ctg::TaskGraph;
use noc_platform::Platform;
use noc_schedule::{validate, Schedule, ScheduleStats, ValidationReport};

use crate::budget::SlackBudgets;
use crate::edf::edf_schedule;
use crate::level::level_schedule_traced;
use crate::limit::ComputeBudget;
use crate::placer::Placer;
use crate::repair::{search_and_repair_traced, RepairStats};
use crate::trace::{EventKind, NullSink, TraceSink, Tracer};
use crate::SchedulerError;

/// How communication delay is modelled during `F(i,k)` estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CommModel {
    /// Contention-aware: transactions occupy link schedule tables and
    /// wait for a common free slot (the paper's Fig. 3 scheduler).
    #[default]
    Contention,
    /// Naive fixed delay proportional to volume, ignoring the network
    /// state — the assumption the paper criticizes in related work.
    /// Trial estimates use it; committed schedules are always
    /// materialized contention-aware so they stay valid. Exists for the
    /// ablation study.
    FixedDelay,
}

/// The task weight used by slack budgeting (Step 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum WeightFunction {
    /// The paper's weight `W = VAR_e · VAR_r`.
    #[default]
    VarEnergyTimesVarTime,
    /// Energy variance only (ablation).
    VarEnergy,
    /// Execution-time variance only (ablation).
    VarTime,
    /// Mean execution time (ablation: longer tasks get more slack).
    MeanTime,
    /// Equal weights (ablation: uniform slack split).
    Uniform,
}

impl WeightFunction {
    /// Evaluates the weight of one task.
    #[must_use]
    pub fn weight(self, task: &Task) -> f64 {
        match self {
            WeightFunction::VarEnergyTimesVarTime => {
                task.exec_energy_variance() * task.exec_time_variance()
            }
            WeightFunction::VarEnergy => task.exec_energy_variance(),
            WeightFunction::VarTime => task.exec_time_variance(),
            WeightFunction::MeanTime => task.mean_exec_time(),
            WeightFunction::Uniform => 1.0,
        }
    }

    /// Short name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WeightFunction::VarEnergyTimesVarTime => "var-e*var-r",
            WeightFunction::VarEnergy => "var-e",
            WeightFunction::VarTime => "var-r",
            WeightFunction::MeanTime => "mean-time",
            WeightFunction::Uniform => "uniform",
        }
    }
}

/// Configuration of the [`EasScheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EasConfig {
    /// Step 1 weight function (paper: `VAR_e · VAR_r`).
    pub weight_function: WeightFunction,
    /// Run the Step 3 search-and-repair pass (paper's full EAS). With
    /// `false` this is the paper's **EAS-base**.
    pub search_and_repair: bool,
    /// Communication model for trial placements (ablation knob).
    pub comm_model: CommModel,
    /// Use slack budgeting. With `false` every budget is infinite and
    /// Step 2 degenerates to pure greedy energy minimization (ablation).
    pub budgeting: bool,
}

impl Default for EasConfig {
    /// The paper's full EAS.
    fn default() -> Self {
        EasConfig {
            weight_function: WeightFunction::VarEnergyTimesVarTime,
            search_and_repair: true,
            comm_model: CommModel::Contention,
            budgeting: true,
        }
    }
}

impl EasConfig {
    /// EAS without search-and-repair (the paper's EAS-base).
    #[must_use]
    pub fn base() -> Self {
        EasConfig {
            search_and_repair: false,
            ..EasConfig::default()
        }
    }
}

/// Everything a scheduling run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleOutcome {
    /// The (validated) schedule artifact.
    pub schedule: Schedule,
    /// Structural validation outcome, including deadline misses.
    pub report: ValidationReport,
    /// Energy / makespan / hops statistics.
    pub stats: ScheduleStats,
    /// Search-and-repair counters (zeroes for schedulers that do not
    /// repair).
    pub repair: RepairStats,
}

/// A static scheduler for CTGs on NoC platforms.
pub trait Scheduler {
    /// Short name for reports (e.g. `"eas"`, `"edf"`).
    fn name(&self) -> &str;

    /// Produces a validated schedule for `graph` on `platform`.
    ///
    /// # Errors
    ///
    /// * [`SchedulerError::PeCountMismatch`] on graph/platform mismatch,
    /// * [`SchedulerError::InvalidSchedule`] if (due to an internal bug)
    ///   the produced schedule fails validation.
    fn schedule(
        &self,
        graph: &TaskGraph,
        platform: &Platform,
    ) -> Result<ScheduleOutcome, SchedulerError>;

    /// Like [`schedule`](Scheduler::schedule), bounded by a
    /// [`ComputeBudget`] polled at the scheduler's coarse checkpoints and
    /// emitting decision [`trace`](crate::trace) events into `sink`.
    ///
    /// The default implementation ignores both: appropriate for the
    /// cheap polynomial baselines (EDF, DLS), whose runtime is bounded by
    /// construction and whose decisions have no interesting structure.
    /// Schedulers with unbounded search (EAS repair, annealing) override
    /// it and stop early with clean state: no partial placement or link
    /// reservation survives an interrupt, so an uninterrupted rerun is
    /// byte-identical to a run that never had a budget. Tracing is
    /// strictly observational: the returned outcome is byte-identical to
    /// an untraced run.
    ///
    /// # Errors
    ///
    /// Everything [`schedule`](Scheduler::schedule) returns, plus
    /// [`SchedulerError::Interrupted`] /
    /// [`SchedulerError::BudgetExhausted`] when the budget fires.
    fn schedule_traced(
        &self,
        graph: &TaskGraph,
        platform: &Platform,
        budget: &ComputeBudget,
        sink: &mut dyn TraceSink,
    ) -> Result<ScheduleOutcome, SchedulerError> {
        let _ = (budget, sink);
        self.schedule(graph, platform)
    }
}

/// The paper's Energy-Aware Scheduler.
#[derive(Debug, Clone, Default)]
pub struct EasScheduler {
    config: EasConfig,
    name: String,
}

impl EasScheduler {
    /// Creates a scheduler with the given configuration.
    #[must_use]
    pub fn new(config: EasConfig) -> Self {
        let name = if config.search_and_repair {
            "eas"
        } else {
            "eas-base"
        };
        EasScheduler {
            config,
            name: name.to_owned(),
        }
    }

    /// The paper's full EAS (budgeting + level scheduling + repair).
    #[must_use]
    pub fn full() -> Self {
        EasScheduler::new(EasConfig::default())
    }

    /// The paper's EAS-base (no search-and-repair).
    #[must_use]
    pub fn base() -> Self {
        EasScheduler::new(EasConfig::base())
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &EasConfig {
        &self.config
    }
}

impl Scheduler for EasScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn schedule(
        &self,
        graph: &TaskGraph,
        platform: &Platform,
    ) -> Result<ScheduleOutcome, SchedulerError> {
        self.schedule_traced(graph, platform, &ComputeBudget::unlimited(), &mut NullSink)
    }

    fn schedule_traced(
        &self,
        graph: &TaskGraph,
        platform: &Platform,
        budget: &ComputeBudget,
        sink: &mut dyn TraceSink,
    ) -> Result<ScheduleOutcome, SchedulerError> {
        let mut tracer = Tracer::new(sink);
        // Step 1: slack budgeting (communication-aware: see DESIGN.md §6).
        tracer.begin("budgeting");
        let budgets = if self.config.budgeting {
            SlackBudgets::compute_with_comm(
                graph,
                self.config.weight_function,
                platform.link_bandwidth(),
            )
        } else {
            SlackBudgets::unbounded(graph)
        };
        if tracer.on() {
            for t in graph.task_ids() {
                let task = graph.task(t);
                let bd = budgets.budgeted_deadline(t);
                tracer.emit(EventKind::TaskBudget {
                    task: t.index(),
                    task_name: task.name().to_owned(),
                    weight: self.config.weight_function.weight(task),
                    bd_ticks: (!bd.is_infinite()).then(|| bd.ticks()),
                });
            }
        }
        tracer.poll("budgeting", budget);
        tracer.end("budgeting");
        // Step 2: level-based scheduling. An interrupt drops the placer —
        // trial evaluation always rolls its table checkpoints back and
        // only committed placements live in it, so nothing escapes.
        let mut placer = Placer::new(graph, platform)?;
        tracer.begin("level");
        level_schedule_traced(
            &mut placer,
            &budgets,
            self.config.comm_model,
            budget,
            &mut tracer,
        )?;
        tracer.poll("level", budget);
        tracer.end("level");
        let mut schedule = placer.into_schedule();
        // Step 3: search and repair.
        let mut repair = RepairStats::default();
        if self.config.search_and_repair {
            tracer.begin("repair");
            let (repaired, stats) =
                search_and_repair_traced(graph, platform, schedule, budget, &mut tracer)?;
            schedule = repaired;
            repair = stats;
            tracer.poll("repair", budget);
            tracer.end("repair");
        }
        tracer.begin("validate");
        let report = validate(&schedule, graph, platform)?;
        let stats = ScheduleStats::compute(&schedule, graph, platform);
        tracer.end("validate");
        Ok(ScheduleOutcome {
            schedule,
            report,
            stats,
            repair,
        })
    }
}

impl fmt::Display for EasScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.config.weight_function.name())
    }
}

/// The Dynamic-Level Scheduling baseline of Sih & Lee (see
/// [`crate::dls`]): communication-aware but energy-blind.
#[derive(Debug, Clone, Default)]
pub struct DlsScheduler;

impl DlsScheduler {
    /// Creates the baseline scheduler.
    #[must_use]
    pub fn new() -> Self {
        DlsScheduler
    }
}

impl Scheduler for DlsScheduler {
    fn name(&self) -> &str {
        "dls"
    }

    fn schedule(
        &self,
        graph: &TaskGraph,
        platform: &Platform,
    ) -> Result<ScheduleOutcome, SchedulerError> {
        let mut placer = Placer::new(graph, platform)?;
        crate::dls::dls_schedule(&mut placer);
        let schedule = placer.into_schedule();
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

/// The EDF baseline scheduler (see [`crate::edf`]).
#[derive(Debug, Clone, Default)]
pub struct EdfScheduler;

impl EdfScheduler {
    /// Creates the baseline scheduler.
    #[must_use]
    pub fn new() -> Self {
        EdfScheduler
    }
}

impl Scheduler for EdfScheduler {
    fn name(&self) -> &str {
        "edf"
    }

    fn schedule(
        &self,
        graph: &TaskGraph,
        platform: &Platform,
    ) -> Result<ScheduleOutcome, SchedulerError> {
        let mut placer = Placer::new(graph, platform)?;
        edf_schedule(&mut placer);
        let schedule = placer.into_schedule();
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
    use noc_ctg::prelude::*;
    use noc_platform::prelude::*;

    fn platform(n: u16) -> Platform {
        Platform::builder()
            .topology(TopologySpec::mesh(n, n))
            .build()
            .unwrap()
    }

    #[test]
    fn eas_beats_edf_on_random_graph_energy() {
        let p = platform(4);
        let g = TgffGenerator::new(TgffConfig::small(11))
            .generate(&p)
            .unwrap();
        let eas = EasScheduler::full().schedule(&g, &p).expect("eas");
        let edf = EdfScheduler::new().schedule(&g, &p).expect("edf");
        assert!(
            eas.stats.energy.total() < edf.stats.energy.total(),
            "EAS {} should beat EDF {}",
            eas.stats.energy.total(),
            edf.stats.energy.total()
        );
    }

    #[test]
    fn eas_meets_deadlines_on_multimedia_apps() {
        for app in [MultimediaApp::AvEncoder, MultimediaApp::AvDecoder] {
            let p = platform(2);
            let g = app.build(Clip::Foreman, &p).unwrap();
            let out = EasScheduler::full().schedule(&g, &p).expect("schedules");
            assert!(
                out.report.meets_deadlines(),
                "{app}: {:?}",
                out.report.deadline_misses
            );
        }
    }

    #[test]
    fn eas_base_vs_eas_names() {
        assert_eq!(EasScheduler::base().name(), "eas-base");
        assert_eq!(EasScheduler::full().name(), "eas");
        assert_eq!(EdfScheduler::new().name(), "edf");
    }

    #[test]
    fn repair_never_worsens_misses() {
        let p = platform(4);
        for seed in 0..4 {
            let mut cfg = TgffConfig::small(seed);
            cfg.deadline_laxity = 0.95; // very tight: provoke misses
            let g = TgffGenerator::new(cfg).generate(&p).unwrap();
            let base = EasScheduler::base().schedule(&g, &p).expect("base");
            let full = EasScheduler::full().schedule(&g, &p).expect("full");
            assert!(
                full.report.deadline_misses.len() <= base.report.deadline_misses.len(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn mismatched_platform_is_rejected() {
        let p4 = platform(2);
        let p9 = platform(3);
        let g = MultimediaApp::AvEncoder.build(Clip::Akiyo, &p4).unwrap();
        assert!(matches!(
            EasScheduler::full().schedule(&g, &p9),
            Err(SchedulerError::PeCountMismatch { .. })
        ));
        assert!(matches!(
            EdfScheduler::new().schedule(&g, &p9),
            Err(SchedulerError::PeCountMismatch { .. })
        ));
    }

    #[test]
    fn weight_function_names_are_distinct() {
        let fns = [
            WeightFunction::VarEnergyTimesVarTime,
            WeightFunction::VarEnergy,
            WeightFunction::VarTime,
            WeightFunction::MeanTime,
            WeightFunction::Uniform,
        ];
        let mut names: Vec<&str> = fns.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), fns.len());
    }
}

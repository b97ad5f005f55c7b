//! A simulated-annealing schedule refiner: the quality-reference
//! optimizer.
//!
//! The paper positions EAS as a fast heuristic for an NP-hard problem
//! (Sec. 4 cites Garey & Johnson). To quantify how much energy the
//! heuristic leaves on the table, this module anneals over the same
//! decision space the repair step uses — (PE assignment, per-PE order)
//! pairs re-timed exactly — with random task migrations and adjacent
//! swaps, a Metropolis acceptance rule on an energy-plus-lateness cost,
//! and geometric cooling. Warm-started from any schedule (normally the
//! EAS result), it is hundreds of times slower than EAS and serves as an
//! asymptotic quality bar in the ablation experiments, not as a
//! production scheduler.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use noc_ctg::TaskGraph;
use noc_platform::tile::PeId;
use noc_platform::Platform;
use noc_schedule::{Schedule, ScheduleStats};

use crate::limit::{ComputeBudget, Interrupt};
use crate::retime::{retime, OrderedAssignment};
use crate::scheduler::{repair_and_validate, ScheduleOutcome, Scheduler};
use crate::trace::{EventKind, TraceSink, Tracer};
use crate::{EasScheduler, SchedulerError};

/// Annealer parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnnealConfig {
    /// RNG seed (runs are deterministic per seed).
    pub seed: u64,
    /// Number of proposed moves.
    pub iterations: usize,
    /// Initial temperature as a *fraction of the initial cost* (e.g.
    /// `0.05` lets early moves worsen cost by a few percent).
    pub initial_temperature: f64,
    /// Geometric cooling factor applied per iteration (e.g. `0.9995`).
    pub cooling: f64,
    /// Cost penalty per tick of deadline tardiness, in nJ-equivalents.
    pub tardiness_penalty_nj: f64,
    /// Flat cost penalty per missed deadline, in nJ-equivalents.
    pub miss_penalty_nj: f64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            seed: 1,
            iterations: 5_000,
            initial_temperature: 0.05,
            cooling: 0.999,
            tardiness_penalty_nj: 10.0,
            miss_penalty_nj: 10_000.0,
        }
    }
}

/// Simulated-annealing refinement of a warm-start schedule.
#[derive(Debug, Clone, Default)]
pub struct AnnealScheduler {
    config: AnnealConfig,
}

impl AnnealScheduler {
    /// Creates an annealer with the given parameters.
    #[must_use]
    pub fn new(config: AnnealConfig) -> Self {
        AnnealScheduler { config }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &AnnealConfig {
        &self.config
    }

    fn cost(&self, schedule: &Schedule, graph: &TaskGraph, platform: &Platform) -> f64 {
        let stats = ScheduleStats::compute(schedule, graph, platform);
        let misses = schedule.deadline_misses(graph);
        let tardiness: u64 = misses.iter().map(|(_, t)| t.ticks()).sum();
        stats.energy.total().as_nj()
            + misses.len() as f64 * self.config.miss_penalty_nj
            + tardiness as f64 * self.config.tardiness_penalty_nj
    }

    /// Anneals from `start`: one Metropolis chain seeded
    /// [`AnnealConfig::seed`], polling `budget` once per iteration and
    /// tracing one [`EventKind::AnnealChain`] when it finishes. Returns
    /// the best schedule the chain visited, never worse than `start`
    /// under the annealer's cost. An interrupt drops all chain state;
    /// `start` is untouched.
    fn refine(
        &self,
        start: Schedule,
        graph: &TaskGraph,
        platform: &Platform,
        budget: &ComputeBudget,
        tracer: &mut Tracer<'_>,
    ) -> Result<Schedule, Interrupt> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut oa = OrderedAssignment::from_schedule(&start, platform);
        let mut accepted = 0usize;
        let (best, best_cost) = 'chain: {
            let Some(mut current) = retime(graph, platform, &oa) else {
                // The warm start cannot be re-timed: keep it.
                let cost = self.cost(&start, graph, platform);
                break 'chain (start, cost);
            };
            let mut current_cost = self.cost(&current, graph, platform);
            let mut best = current.clone();
            let mut best_cost = current_cost;
            let mut temperature = (current_cost * self.config.initial_temperature).max(1e-9);
            // Migration targets: only alive PEs (identical RNG stream to the
            // pre-fault code on pristine platforms, where all PEs are alive).
            let alive: Vec<PeId> = platform.alive_pes().collect();
            let pe_count = platform.tile_count();
            let task_count = graph.task_count();

            for _ in 0..self.config.iterations {
                budget.check()?;
                // Propose: 50% migration, 50% adjacent swap on one PE.
                let backup = oa.clone();
                if rng.random_bool(0.5) {
                    let t = noc_ctg::task::TaskId::new(rng.random_range(0..task_count as u32));
                    let dst = alive[rng.random_range(0..alive.len() as u32) as usize];
                    if dst == oa.assignment[t.index()] {
                        continue;
                    }
                    let anchor = if oa.order[dst.index()].is_empty() {
                        0
                    } else {
                        rng.random_range(0..=oa.order[dst.index()].len())
                    };
                    oa.migrate(t, dst, anchor);
                } else {
                    let pe = rng.random_range(0..pe_count);
                    let len = oa.order[pe].len();
                    if len < 2 {
                        continue;
                    }
                    let i = rng.random_range(0..len - 1);
                    let (a, b) = (oa.order[pe][i], oa.order[pe][i + 1]);
                    oa.swap(a, b);
                }

                let candidate = retime(graph, platform, &oa);
                let accepted_move = match candidate {
                    None => false, // ordering contradicts the DAG
                    Some(cand) => {
                        let cand_cost = self.cost(&cand, graph, platform);
                        let delta = cand_cost - current_cost;
                        let take = delta <= 0.0
                            || rng.random_range(0.0..1.0) < (-delta / temperature).exp();
                        if take {
                            current = cand;
                            current_cost = cand_cost;
                            if cand_cost < best_cost {
                                best = current.clone();
                                best_cost = cand_cost;
                            }
                        }
                        take
                    }
                };
                if accepted_move {
                    accepted += 1;
                } else {
                    oa = backup;
                }
                temperature = (temperature * self.config.cooling).max(1e-9);
            }
            (best, best_cost)
        };
        if tracer.on() {
            tracer.emit(EventKind::AnnealChain {
                chain: 0,
                seed: self.config.seed,
                accepted,
                best_cost_nj: best_cost,
            });
        }
        Ok(best)
    }
}

impl Scheduler for AnnealScheduler {
    fn name(&self) -> &str {
        "anneal"
    }

    /// Runs full EAS as the warm start, then anneals.
    ///
    /// # Errors
    ///
    /// Propagates EAS errors and the final validation.
    fn schedule(
        &self,
        graph: &TaskGraph,
        platform: &Platform,
    ) -> Result<ScheduleOutcome, SchedulerError> {
        self.schedule_traced(
            graph,
            platform,
            &ComputeBudget::unlimited(),
            &mut crate::trace::NullSink,
        )
    }

    fn schedule_traced(
        &self,
        graph: &TaskGraph,
        platform: &Platform,
        budget: &ComputeBudget,
        sink: &mut dyn TraceSink,
    ) -> Result<ScheduleOutcome, SchedulerError> {
        // The warm start traces its own budgeting/level/repair stages.
        let warm = EasScheduler::full().schedule_traced(graph, platform, budget, sink)?;
        let mut tracer = Tracer::new(sink);
        tracer.begin("anneal");
        let schedule = self.refine(warm.schedule, graph, platform, budget, &mut tracer)?;
        tracer.poll("anneal", budget);
        tracer.end("anneal");
        repair_and_validate(graph, platform, schedule, false, budget, &mut tracer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_ctg::prelude::*;
    use noc_platform::prelude::*;
    use noc_schedule::validate;

    fn platform() -> Platform {
        Platform::builder()
            .topology(TopologySpec::mesh(2, 2))
            .build()
            .unwrap()
    }

    fn small_config() -> AnnealConfig {
        AnnealConfig {
            iterations: 400,
            ..AnnealConfig::default()
        }
    }

    #[test]
    fn refinement_never_worsens_the_cost() {
        let p = platform();
        let g = MultimediaApp::AvDecoder.build(Clip::Foreman, &p).unwrap();
        let warm = EasScheduler::full().schedule(&g, &p).unwrap();
        let annealer = AnnealScheduler::new(small_config());
        let warm_cost = annealer.cost(&warm.schedule, &g, &p);
        let refined = annealer
            .refine(
                warm.schedule,
                &g,
                &p,
                &ComputeBudget::unlimited(),
                &mut Tracer::off(),
            )
            .expect("unlimited budget never interrupts");
        let refined_cost = annealer.cost(&refined, &g, &p);
        assert!(refined_cost <= warm_cost + 1e-9);
        validate(&refined, &g, &p).expect("still valid");
    }

    #[test]
    fn annealing_is_deterministic_per_seed() {
        let p = platform();
        let g = MultimediaApp::AvDecoder.build(Clip::Akiyo, &p).unwrap();
        let a = AnnealScheduler::new(small_config())
            .schedule(&g, &p)
            .unwrap();
        let b = AnnealScheduler::new(small_config())
            .schedule(&g, &p)
            .unwrap();
        assert_eq!(a.schedule, b.schedule);
    }

    #[test]
    fn annealed_energy_at_most_eas_energy_when_feasible() {
        let p = platform();
        let g = MultimediaApp::AvEncoder.build(Clip::Foreman, &p).unwrap();
        let eas = EasScheduler::full().schedule(&g, &p).unwrap();
        let annealed = AnnealScheduler::new(small_config())
            .schedule(&g, &p)
            .unwrap();
        assert!(annealed.report.meets_deadlines());
        assert!(annealed.stats.energy.total().as_nj() <= eas.stats.energy.total().as_nj() + 1e-9);
    }

    #[test]
    fn scheduler_name() {
        assert_eq!(AnnealScheduler::default().name(), "anneal");
    }
}

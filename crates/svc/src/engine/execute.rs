//! Execution: the worker loop, and the one shell every job runs in.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use noc_ctg::prelude::TaskGraph;
use noc_eas::prelude::{
    repair_from_traced, ComputeBudget, EdfScheduler, Scheduler, SchedulerError, SummarySink,
    TraceSink, TraceSummary,
};
use noc_platform::prelude::Platform;
use noc_schedule::Schedule;

use super::{Engine, Job, JobPhase, JobWork, ScheduleWork};
use crate::api::{DeltaResponse, ScheduleResponse};
use crate::cache::JobOutput;
use crate::hash::ContentHash;
use crate::journal::Record;
use crate::obs::{span_us, LogLevel};

impl Engine {
    /// Runs jobs until the queue is closed and drained. Spawn one
    /// thread per scheduling worker on this.
    pub fn worker_loop(&self) {
        while let Some(job) = self.queue.pop_blocking() {
            self.metrics
                .queue_depth
                .store(self.queue.depth() as u64, Ordering::Relaxed);
            self.run_job(&job);
        }
    }

    fn run_job(&self, job: &Job) {
        let Some(work) = job.work.lock().expect("job lock").take() else {
            return; // already executed (double enqueue cannot happen, but stay safe)
        };
        job.set_phase(JobPhase::Running);
        self.metrics.jobs_inflight.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        // Panic isolation: a panicking scheduler fails *this* job with a
        // typed error; the worker thread survives to run the next one.
        let result = catch_unwind(AssertUnwindSafe(|| self.execute(&work)));
        let elapsed = started.elapsed().as_secs_f64();
        let (result, compute_outcome) = match result {
            Ok(Ok(output)) => (Ok(output), "ok"),
            Ok(Err(message)) => (Err(message), "failed"),
            Err(payload) => {
                self.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
                let message = format!(
                    "scheduler worker panicked: {}",
                    noc_par::WorkerPanic::from_payload(payload).message
                );
                (Err(message), "panic")
            }
        };
        self.recorder.record(
            &self.recorder.child(&job.trace),
            "compute",
            compute_outcome,
            span_us(started),
        );
        self.metrics.jobs_inflight.fetch_sub(1, Ordering::Relaxed);
        let journaled = job.journaled.load(Ordering::Acquire);
        let phase = match result {
            Ok(output) => {
                self.metrics
                    .schedules_executed
                    .fetch_add(1, Ordering::Relaxed);
                if output.degraded {
                    self.metrics.degraded.fetch_add(1, Ordering::Relaxed);
                    self.log.event(
                        LogLevel::Warn,
                        "degraded-schedule",
                        "compute budget expired; served the EDF fallback schedule",
                        &[("id", &job.id)],
                    );
                }
                self.metrics.observe_latency(elapsed);
                let write_started = Instant::now();
                let durable = self.store_output(&job.id, &job.key, &output);
                self.recorder.record(
                    &self.recorder.child(&job.trace),
                    "store_write",
                    if durable { "durable" } else { "memory" },
                    span_us(write_started),
                );
                if let Some(cluster) = &self.cluster {
                    cluster.replicate(&job.id, &job.key, &output, &job.trace);
                }
                if journaled {
                    // With the bytes durable in the store, the journal
                    // records only the completion fact — replay
                    // resolves the body from the store, and compaction
                    // keeps the journal bounded.
                    let record = if durable {
                        Record::DoneStored {
                            id: job.id.clone(),
                            degraded: output.degraded,
                        }
                    } else {
                        Record::Done {
                            id: job.id.clone(),
                            degraded: output.degraded,
                            body: output.body.as_str().to_owned(),
                        }
                    };
                    let append_started = Instant::now();
                    self.journal_append(&record);
                    self.recorder.record(
                        &self.recorder.child(&job.trace),
                        "journal_append",
                        if durable { "done-stored" } else { "done" },
                        span_us(append_started),
                    );
                }
                JobPhase::Done(output)
            }
            Err(message) => {
                self.metrics.schedule_errors.fetch_add(1, Ordering::Relaxed);
                if journaled {
                    self.journal_append(&Record::Failed {
                        id: job.id.clone(),
                        error: message.clone(),
                    });
                }
                JobPhase::Failed(message)
            }
        };
        job.set_phase(phase);
        self.retire(&job.id);
    }

    /// Runs one job's work. A schedule job runs its scheduler. A delta
    /// job obtains its prior schedule, then warm-start repairs it under
    /// the edits via [`repair_from_traced`]. Both run in the same shell
    /// ([`run_traced`](Engine::run_traced)), so a budget interrupt
    /// degrades a delta to EDF on the *edited* problem, exactly like
    /// plain scheduling.
    fn execute(&self, work: &JobWork) -> Result<JobOutput, String> {
        match work {
            JobWork::Schedule(work) => self.run_traced(
                (&work.graph, &work.platform),
                |budget, sink| {
                    let outcome = work.scheduler.schedule_traced(
                        &work.graph,
                        &work.platform,
                        budget,
                        sink,
                    )?;
                    Ok(ScheduleResponse::from_outcome(&work.scheduler_name, &outcome).to_json())
                },
                |response| response.to_json(),
            ),
            JobWork::Delta {
                prior,
                prior_key,
                prior_hash,
                platform,
                applied,
            } => {
                let prior_schedule = self.prior_schedule(prior, *prior_hash, prior_key)?;
                self.run_traced(
                    (&applied.graph, platform),
                    |budget, sink| {
                        let delta = repair_from_traced(
                            &prior.graph,
                            &prior_schedule,
                            platform,
                            applied,
                            budget,
                            sink,
                        )?;
                        let decision = if delta.warm_start {
                            &self.metrics.delta_warm
                        } else {
                            &self.metrics.delta_fallback
                        };
                        decision.fetch_add(1, Ordering::Relaxed);
                        Ok(DeltaResponse::from_outcome(&delta).to_json())
                    },
                    |result| {
                        self.metrics.delta_fallback.fetch_add(1, Ordering::Relaxed);
                        DeltaResponse {
                            warm_start: false,
                            reason: "budget-exhausted".to_owned(),
                            edits: applied.edits.len(),
                            mask_tasks: 0,
                            result,
                        }
                        .to_json()
                    },
                )
            }
        }
    }

    /// The shell every job runs in: `run` renders a body under the
    /// configured compute budget, traced into a [`SummarySink`]. The
    /// sink folds each event into the job's [`TraceSummary`] as it
    /// arrives and reads the clock only at stage boundaries; the
    /// summary feeds the `noc_svc_stage_seconds` histograms and the
    /// per-job stats block, while the body stays byte-identical to an
    /// untraced run: tracing only observes. A budget interrupt is
    /// answered by the energy-blind EDF fallback on the job's problem,
    /// wrapped by `degrade` and marked `"degraded": true`, so an expired budget
    /// degrades quality instead of failing the request. Any other
    /// error fails the job.
    fn run_traced(
        &self,
        (graph, platform): (&TaskGraph, &Platform),
        run: impl FnOnce(&ComputeBudget, &mut dyn TraceSink) -> Result<String, SchedulerError>,
        degrade: impl FnOnce(ScheduleResponse) -> String,
    ) -> Result<JobOutput, String> {
        let mut sink = SummarySink::new();
        match run(&self.budget(), &mut sink) {
            Ok(body) => Ok(self.render_with_stats(&sink.into_summary(), body)),
            Err(SchedulerError::Interrupted | SchedulerError::BudgetExhausted(_))
                if self.config.budget_ms.is_some() =>
            {
                edf_fallback(graph, platform, degrade)
            }
            Err(e) => Err(e.to_string()),
        }
    }

    /// The configured compute budget for one run.
    fn budget(&self) -> ComputeBudget {
        match self.config.budget_ms {
            None => ComputeBudget::unlimited(),
            Some(ms) => ComputeBudget::wall_clock(Duration::from_millis(ms)),
        }
    }

    /// A delta job's prior schedule: from the store when the prior
    /// request's result is there and not degraded, recomputed
    /// otherwise. Both paths yield byte-identical prior schedules, so
    /// the delta answer never depends on cache luck.
    fn prior_schedule(
        &self,
        prior: &ScheduleWork,
        prior_hash: ContentHash,
        prior_key: &str,
    ) -> Result<Schedule, String> {
        // Warm-start source: the prior request's stored response —
        // memory LRU first, then the persistent disk tier, so priors
        // resolve even after a restart or an LRU eviction. A degraded
        // (EDF-fallback) entry is ignored — warm-starting from it
        // would make the answer depend on *when* the prior ran, so
        // the prior is recomputed in full instead.
        let cached = self
            .store
            .get_at(prior_hash, prior_key)
            .filter(|output| !output.degraded);
        match cached {
            Some(output) => {
                self.metrics
                    .delta_prior_hits
                    .fetch_add(1, Ordering::Relaxed);
                let response: ScheduleResponse = serde_json::from_str(output.body.as_str())
                    .map_err(|e| format!("cached prior body unparseable: {e}"))?;
                Ok(response.schedule)
            }
            None => {
                let outcome = prior
                    .scheduler
                    .schedule(&prior.graph, &prior.platform)
                    .map_err(|e| format!("prior schedule failed: {e}"))?;
                // Populate the store so the prior request itself (and
                // the next delta against it) is served without work.
                let response = ScheduleResponse::from_outcome(&prior.scheduler_name, &outcome);
                self.store_output(
                    &prior_hash.to_string(),
                    prior_key,
                    &JobOutput::new(Arc::new(response.to_json())),
                );
                Ok(outcome.schedule)
            }
        }
    }

    /// Renders a finished body with the producing run's stats block
    /// riding alongside (never inside) it, and feeds the per-stage
    /// histograms.
    fn render_with_stats(&self, summary: &TraceSummary, body: String) -> JobOutput {
        for (stage, micros) in &summary.stage_micros {
            #[allow(clippy::cast_precision_loss)]
            self.metrics
                .observe_stage(stage, *micros as f64 / 1_000_000.0);
        }
        let stats = serde_json::to_string(summary).expect("serialization is infallible");
        let mut output = JobOutput::new(Arc::new(body));
        output.stats = Some(Arc::new(stats));
        output
    }

    /// Records `id` as finished and prunes the oldest finished jobs
    /// past the retention bound.
    fn retire(&self, id: &str) {
        let mut table = self.jobs.lock().expect("jobs lock");
        table.finished.push_back(id.to_owned());
        table.prune();
    }
}

/// The answer to a run its compute budget interrupted: the EDF
/// schedule of the same problem, labelled truthfully as `edf` and
/// marked `"degraded": true`, whatever was asked for. `render` wraps
/// that schedule response into the final body. The interrupted run's
/// half-finished trace is dropped, so there is no stats block.
fn edf_fallback(
    graph: &TaskGraph,
    platform: &Platform,
    render: impl FnOnce(ScheduleResponse) -> String,
) -> Result<JobOutput, String> {
    let outcome = EdfScheduler::new()
        .schedule(graph, platform)
        .map_err(|e| format!("degraded EDF fallback failed: {e}"))?;
    let mut response = ScheduleResponse::from_outcome("edf", &outcome);
    response.degraded = true;
    Ok(JobOutput {
        body: Arc::new(render(response)),
        degraded: true,
        stats: None,
    })
}

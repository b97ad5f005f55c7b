//! Journal replay at startup, and the compaction that follows it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use super::admission::{Keyed, RequestKind};
use super::{Engine, Job, JobPhase, Submission};
use crate::cache::JobOutput;
use crate::hash::ContentHash;
use crate::journal::Record;
use crate::obs::{LogLevel, TraceCtx};

impl Engine {
    /// Applies the journal backlog: one pass folds the records per job
    /// id (keeping first-seen order), then each job is restored to its
    /// recorded terminal phase or, lacking one, re-enqueued to run.
    /// Restored jobs obey the same retention bound as live ones: only
    /// the newest [`FINISHED_JOBS_RETAINED`](super::FINISHED_JOBS_RETAINED)
    /// in replay order stay pollable. Each journaled body is keyed by
    /// [`rekey`], as the endpoint that admitted it keyed it.
    ///
    /// The journal is then compacted to the records it still needs. A
    /// record can be dropped once the response bytes it protects are
    /// durable (and verified readable) in the persistent store;
    /// everything else is kept. The `journal-replay` log event times
    /// the restart from `started` (before the journal opened) through
    /// compaction.
    pub(super) fn replay(&self, backlog: Vec<Record>, started: Instant) {
        let mut order: Vec<String> = Vec::new();
        let mut accepted: HashMap<String, String> = HashMap::new();
        let mut terminal: HashMap<String, Record> = HashMap::new();
        let total = backlog.len();
        for record in backlog {
            let id = record.id().to_owned();
            if !accepted.contains_key(&id) && !terminal.contains_key(&id) {
                order.push(id.clone());
            }
            match record {
                Record::Accepted { body, .. } => {
                    accepted.insert(id, body);
                }
                done_or_failed => {
                    terminal.insert(id, done_or_failed);
                }
            }
        }
        let mut kept: Vec<Record> = Vec::new();
        let (mut from_store, mut rerun) = (0, 0);
        let keep_accepted = |kept: &mut Vec<Record>, id: &str| {
            if let Some(body) = accepted.get(id) {
                kept.push(Record::Accepted {
                    id: id.to_owned(),
                    body: body.clone(),
                });
            }
        };
        // Re-admits a job from its `acc` body: deterministic scheduling
        // owes the same bytes the interrupted run or the lost record did.
        let mut rerun_job = |kept: &mut Vec<Record>, id: &str| {
            let Some(body) = accepted.get(id) else {
                let lost = "stored response unavailable after restart".to_owned();
                return self.restore_finished(id, JobPhase::Failed(lost));
            };
            keep_accepted(kept, id);
            match self.recover(id, body) {
                Ok(()) => rerun += 1,
                Err(reason) => self.restore_finished(id, JobPhase::Failed(reason)),
            }
        };
        for id in order {
            match terminal.remove(&id) {
                Some(Record::Done { degraded, body, .. }) => {
                    // The journal records response bytes only; stage
                    // stats do not survive a restart.
                    let output = JobOutput {
                        body: Arc::new(body.clone()),
                        degraded,
                        stats: None,
                    };
                    // Re-key the accepted body so resubmissions of the
                    // same problem hit the store; the write-through also
                    // persists pre-store journal bodies, which is what
                    // lets compaction drop them.
                    let durable = accepted
                        .get(&id)
                        .and_then(|body| rekey(&id, body))
                        .is_some_and(|keyed| {
                            self.store.insert_at(keyed.hash, &keyed.key, &output, true)
                        });
                    if !durable {
                        keep_accepted(&mut kept, &id);
                        kept.push(Record::Done {
                            id: id.clone(),
                            degraded,
                            body,
                        });
                    }
                    self.restore_finished(&id, JobPhase::Done(output));
                }
                Some(Record::DoneStored { .. }) => {
                    // Both store tiers are addressed by the id's own
                    // content hash; a record counts only if its stored
                    // key hashes back to the id. A disk read re-verifies
                    // the checksum, so a quarantined or degraded store
                    // falls through to a re-run — never to wrong bytes.
                    match self.lookup_record(&id) {
                        Some((_, output)) => {
                            from_store += 1;
                            self.restore_finished(&id, JobPhase::Done(output));
                        }
                        None => rerun_job(&mut kept, &id),
                    }
                }
                Some(Record::Failed { error, .. }) => {
                    kept.push(Record::Failed {
                        id: id.clone(),
                        error: error.clone(),
                    });
                    self.restore_finished(&id, JobPhase::Failed(error));
                }
                Some(Record::Accepted { .. }) => unreachable!("acc records never land in terminal"),
                // Accepted but never finished: the crash interrupted it.
                None => rerun_job(&mut kept, &id),
            }
        }
        self.jobs.lock().expect("jobs lock").prune();
        self.compact_journal(kept, total);
        self.metrics
            .journal_replayed
            .fetch_add(total as u64, Ordering::Relaxed);
        if total > 0 {
            self.log.event(
                LogLevel::Info,
                "journal-replay",
                &format!("replayed {total} journal records after restart"),
                &[
                    ("records", &total.to_string()),
                    (
                        "recovery_ms",
                        &format!("{:.1}", started.elapsed().as_secs_f64() * 1e3),
                    ),
                    ("from_store", &from_store.to_string()),
                    ("rerun", &rerun.to_string()),
                ],
            );
        }
        self.metrics
            .queue_depth
            .store(self.queue.depth() as u64, Ordering::Relaxed);
    }

    /// Rewrites the journal down to `kept` when the store's disk tier
    /// made some records redundant. Skipped without a healthy disk
    /// tier — compaction must never drop bytes the store cannot serve.
    fn compact_journal(&self, kept: Vec<Record>, total: usize) {
        let Some(journal) = &self.journal else { return };
        if kept.len() >= total {
            return;
        }
        let disk_ok = self.store.disk().is_some_and(|d| !d.is_degraded());
        if !disk_ok {
            return;
        }
        match journal.compact(&kept) {
            Ok(()) => {
                self.metrics
                    .journal_compacted
                    .fetch_add((total - kept.len()) as u64, Ordering::Relaxed);
            }
            Err(err) => self.log.event(
                LogLevel::Warn,
                "journal-compact-failed",
                &format!("journal compaction failed: {err}"),
                &[],
            ),
        }
    }

    /// Inserts a journal-recovered job directly in a terminal phase.
    fn restore_finished(&self, id: &str, phase: JobPhase) {
        let job = Arc::new(Job {
            id: id.to_owned(),
            key: String::new(),
            journaled: AtomicBool::new(false),
            trace: TraceCtx::untraced(),
            work: Mutex::new(None),
            state: Mutex::new(phase),
            watchers: Mutex::new(Vec::new()),
        });
        let mut table = self.jobs.lock().expect("jobs lock");
        table.map.insert(id.to_owned(), job);
        table.finished.push_back(id.to_owned());
    }

    /// Re-admits one accepted-but-unfinished journal record, under the
    /// request kind [`rekey`] finds. Unlike [`submit`](Engine::submit)
    /// this bypasses the capacity bound and never re-journals the
    /// acceptance (the original `acc` record is still on disk).
    fn recover(&self, id: &str, body: &str) -> Result<(), String> {
        let (work, key) = match rekey(id, body).map(|keyed| keyed.build(body)) {
            Some(Ok(built)) => built,
            Some(Err(Submission::BadSpec(e))) => return Err(e),
            _ => return Err("journaled body unparseable as the request its id names".to_owned()),
        };
        let job = Arc::new(Job {
            id: id.to_owned(),
            key,
            journaled: AtomicBool::new(true),
            trace: TraceCtx::untraced(),
            work: Mutex::new(Some(work)),
            state: Mutex::new(JobPhase::Queued),
            watchers: Mutex::new(Vec::new()),
        });
        let mut table = self.jobs.lock().expect("jobs lock");
        self.queue
            .push_unbounded(Arc::clone(&job))
            .map_err(|_| "queue closed during recovery".to_owned())?;
        table.map.insert(id.to_owned(), job);
        Ok(())
    }
}

/// Re-keys a journaled body with admission's own keying under each
/// request kind, and keeps the kind whose key hashes to the journaled
/// job id. The journal records a body but not its endpoint, and one
/// body can be valid for both endpoints, since each ignores the members
/// it does not define; the id, the hash of the key admission wrote,
/// names the endpoint that admitted it. `None` when no kind keys the
/// body to `id`.
fn rekey(id: &str, body: &str) -> Option<Keyed> {
    let hash = ContentHash::parse(id)?;
    [RequestKind::Schedule, RequestKind::Delta]
        .into_iter()
        .find_map(|kind| kind.key(body).ok().filter(|keyed| keyed.hash == hash))
}

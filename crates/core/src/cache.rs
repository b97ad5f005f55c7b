//! Epoch-validated memoization of trial `F(i,k)` evaluations.
//!
//! The level scheduler recomputes the whole `ready × PEs` matrix of
//! `F(i,k)` values every round, yet a single commit only touches one PE
//! table and the link tables along the committed routes — most of the
//! matrix is unchanged from the previous round. [`TrialCache`] exploits
//! this: every `(task, PE)` cell stores the last [`Trial`] together with
//! a *resource-epoch stamp* summarizing the state of every table the
//! trial read. The [`crate::placer::Placer`] bumps a PE's epoch on every
//! committed execution slot and a link's epoch on every committed
//! reservation; since epochs are monotone non-decreasing, an unchanged
//! stamp (a sum of the relevant epochs) proves that *none* of the tables
//! the trial depends on has changed, so the cached value is exactly what
//! recomputation would produce. Hits are therefore invisible to the
//! scheduling decisions — the schedule is byte-identical with the cache
//! on or off.

use crate::placer::Trial;
use crate::scheduler::CommModel;

#[derive(Debug, Clone, Copy)]
struct Entry {
    model: CommModel,
    stamp: u64,
    trial: Trial,
}

/// Per-`(task, PE)` memo of trial placements, validated by epoch stamps.
#[derive(Debug, Clone)]
pub struct TrialCache {
    pe_count: usize,
    entries: Vec<Option<Entry>>,
    hits: u64,
    misses: u64,
}

impl TrialCache {
    /// An empty cache for a `task_count × pe_count` trial matrix.
    #[must_use]
    pub fn new(task_count: usize, pe_count: usize) -> Self {
        TrialCache {
            pe_count,
            entries: vec![None; task_count * pe_count],
            hits: 0,
            misses: 0,
        }
    }

    fn slot(&self, task: usize, pe: usize) -> usize {
        task * self.pe_count + pe
    }

    /// Returns the cached trial for `(task, pe)` if one was stored under
    /// the same communication model and an identical epoch stamp.
    pub fn probe(&mut self, task: usize, pe: usize, model: CommModel, stamp: u64) -> Option<Trial> {
        let slot = self.slot(task, pe);
        match self.entries[slot] {
            Some(e) if e.model == model && e.stamp == stamp => {
                self.hits += 1;
                Some(e.trial)
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores `trial` for `(task, pe)` under `stamp`.
    pub fn store(&mut self, task: usize, pe: usize, model: CommModel, stamp: u64, trial: Trial) {
        let slot = self.slot(task, pe);
        self.entries[slot] = Some(Entry {
            model,
            stamp,
            trial,
        });
    }

    /// `(hits, misses)` counters since construction.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_platform::units::Time;

    fn trial(start: u64) -> Trial {
        Trial {
            start: Time::new(start),
            finish: Time::new(start + 10),
        }
    }

    #[test]
    fn probe_hits_only_on_matching_stamp_and_model() {
        let mut c = TrialCache::new(2, 3);
        assert_eq!(c.probe(1, 2, CommModel::Contention, 7), None);
        c.store(1, 2, CommModel::Contention, 7, trial(5));
        assert_eq!(c.probe(1, 2, CommModel::Contention, 7), Some(trial(5)));
        // A bumped epoch invalidates the entry.
        assert_eq!(c.probe(1, 2, CommModel::Contention, 8), None);
        // So does a different communication model.
        assert_eq!(c.probe(1, 2, CommModel::FixedDelay, 7), None);
        assert_eq!(c.stats(), (1, 3));
    }

    #[test]
    fn store_overwrites_previous_entry() {
        let mut c = TrialCache::new(1, 1);
        c.store(0, 0, CommModel::Contention, 1, trial(0));
        c.store(0, 0, CommModel::Contention, 2, trial(100));
        assert_eq!(c.probe(0, 0, CommModel::Contention, 1), None);
        assert_eq!(c.probe(0, 0, CommModel::Contention, 2), Some(trial(100)));
    }
}

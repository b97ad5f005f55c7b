//! Compute budgets and cooperative cancellation.
//!
//! The EAS pipeline has an unbounded worst case: level scheduling is
//! polynomial but search-and-repair runs up to [`MAX_REPAIR_TRIALS`]
//! LTS/GTM trials and annealing runs thousands of iterations. A
//! long-running service fronting the scheduler needs a way to say
//! "spend at most this much" and get control back *with clean state*.
//!
//! [`ComputeBudget`] bounds a single `schedule()` call by wall-clock
//! time and/or an abstract step count, and carries an optional
//! [`CancelToken`] that an external owner can flip at any moment. The
//! scheduler polls [`ComputeBudget::check`] at coarse, deterministic
//! checkpoints — level-scheduling round boundaries, repair trials, GTM
//! candidate blocks and annealing iterations — and
//! unwinds with a typed [`Interrupt`] when the budget is gone. No
//! committed reservation is ever left behind: interruption propagates
//! as an error before any partial schedule escapes, so re-running the
//! same problem without a budget is byte-identical to a run that was
//! never interrupted.
//!
//! Step budgets are deterministic (the checkpoint sequence is a pure
//! function of the problem); wall-clock budgets are inherently not —
//! callers that need byte-stable behaviour across machines should
//! bound steps, or treat a wall-clock interruption as a signal to fall
//! back to a cheap deterministic baseline (the service falls back to
//! EDF; see `noc_svc`).
//!
//! [`MAX_REPAIR_TRIALS`]: crate::repair::MAX_REPAIR_TRIALS

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a budgeted run stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// The [`CancelToken`] was cancelled by its owner.
    Cancelled,
    /// The wall-clock deadline passed.
    WallClock,
    /// The step allowance was consumed.
    Steps,
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Interrupt::Cancelled => write!(f, "cancelled by owner"),
            Interrupt::WallClock => write!(f, "wall-clock budget exhausted"),
            Interrupt::Steps => write!(f, "step budget exhausted"),
        }
    }
}

/// A shareable flag for cooperative cancellation.
///
/// Cloning is cheap (an `Arc` bump); any clone can cancel, and all
/// clones observe it. Cancellation is sticky — there is no reset.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation; every holder sees it at its next check.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// A per-call compute allowance: wall-clock, steps, cancellation.
///
/// Budgets are passed by shared reference and are safe to poll from
/// any thread (`check` only touches atomics and a monotonic clock
/// read). An unlimited budget never interrupts and costs one atomic
/// increment per checkpoint.
#[derive(Debug, Default)]
pub struct ComputeBudget {
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    max_steps: Option<u64>,
    steps: AtomicU64,
}

impl ComputeBudget {
    /// A budget that never interrupts.
    #[must_use]
    pub fn unlimited() -> Self {
        ComputeBudget::default()
    }

    /// A budget that interrupts once `limit` has elapsed.
    #[must_use]
    pub fn wall_clock(limit: Duration) -> Self {
        ComputeBudget {
            deadline: Some(Instant::now() + limit),
            ..ComputeBudget::default()
        }
    }

    /// A budget that interrupts after `max_steps` checkpoint visits.
    ///
    /// Steps are abstract units (one per checkpoint), so the same
    /// problem always interrupts at the same point — this is the
    /// deterministic flavour of budgeting.
    #[must_use]
    pub fn steps(max_steps: u64) -> Self {
        ComputeBudget {
            max_steps: Some(max_steps),
            ..ComputeBudget::default()
        }
    }

    /// Attaches a cancellation token (checked before other limits).
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Adds a wall-clock limit to an existing budget.
    #[must_use]
    pub fn with_wall_clock(mut self, limit: Duration) -> Self {
        self.deadline = Some(Instant::now() + limit);
        self
    }

    /// Steps consumed so far (checkpoint visits).
    #[must_use]
    pub fn steps_used(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Records one checkpoint visit and interrupts if any limit is hit.
    ///
    /// Check order is cancellation, then steps, then wall clock, so a
    /// run with both a step and a time limit reports the deterministic
    /// cause when both would fire.
    ///
    /// # Errors
    ///
    /// The [`Interrupt`] naming the first exhausted limit.
    pub fn check(&self) -> Result<(), Interrupt> {
        if let Some(cancel) = &self.cancel {
            if cancel.is_cancelled() {
                return Err(Interrupt::Cancelled);
            }
        }
        let used = self.steps.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(max) = self.max_steps {
            if used > max {
                return Err(Interrupt::Steps);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(Interrupt::WallClock);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_interrupts() {
        let budget = ComputeBudget::unlimited();
        for _ in 0..10_000 {
            budget.check().expect("unlimited");
        }
        assert_eq!(budget.steps_used(), 10_000);
    }

    #[test]
    fn step_budget_interrupts_exactly_after_allowance() {
        let budget = ComputeBudget::steps(3);
        assert_eq!(budget.check(), Ok(()));
        assert_eq!(budget.check(), Ok(()));
        assert_eq!(budget.check(), Ok(()));
        assert_eq!(budget.check(), Err(Interrupt::Steps));
        assert_eq!(budget.check(), Err(Interrupt::Steps), "sticky");
    }

    #[test]
    fn zero_step_budget_interrupts_immediately() {
        assert_eq!(ComputeBudget::steps(0).check(), Err(Interrupt::Steps));
    }

    #[test]
    fn expired_wall_clock_interrupts() {
        let budget = ComputeBudget::wall_clock(Duration::ZERO);
        assert_eq!(budget.check(), Err(Interrupt::WallClock));
    }

    #[test]
    fn generous_wall_clock_passes() {
        let budget = ComputeBudget::wall_clock(Duration::from_secs(3600));
        assert_eq!(budget.check(), Ok(()));
    }

    #[test]
    fn cancel_token_wins_over_other_limits() {
        let token = CancelToken::new();
        let budget = ComputeBudget::steps(0).with_cancel(token.clone());
        assert_eq!(budget.check(), Err(Interrupt::Steps), "not yet cancelled");
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(budget.check(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn cancellation_is_visible_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        clone.cancel();
        assert!(token.is_cancelled());
    }
}

//! # noc-eas
//!
//! **Energy-Aware Scheduling (EAS)** of communication transactions and
//! computation tasks onto heterogeneous Network-on-Chip architectures
//! under real-time constraints — a from-scratch reproduction of
//! Hu & Marculescu, DATE 2004.
//!
//! Given a [`noc_ctg::TaskGraph`] (Def. 1) and a
//! [`noc_platform::Platform`] (whose precomputed ACG is Def. 2), the
//! schedulers in this crate produce a static, non-preemptive
//! [`noc_schedule::Schedule`] assigning every task to a PE and every
//! communication transaction to link time slots, minimizing the Eq. 3
//! energy subject to deadlines:
//!
//! * [`EasScheduler`] — the paper's three-step heuristic:
//!   1. **slack budgeting** ([`budget`]): weights `W = VAR_e · VAR_r`
//!      distribute path slack into per-task budgeted deadlines,
//!   2. **level-based scheduling** ([`level`]): contention-aware trial
//!      placement using the Fig. 3 communication scheduler ([`comm`]),
//!      choosing by urgency or by the energy-regret `δE = E2 − E1`,
//!   3. **search & repair** ([`repair`]): local task swapping and global
//!      task migration until deadline misses disappear (Fig. 4).
//! * [`EdfScheduler`] — the paper's baseline: an energy-blind,
//!   performance-driven earliest-deadline-first list scheduler sharing
//!   the same communication machinery.
//!
//! # Example
//!
//! ```
//! use noc_eas::prelude::*;
//! use noc_ctg::prelude::*;
//! use noc_platform::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let platform = Platform::builder()
//!     .topology(TopologySpec::mesh(2, 2))
//!     .build()?;
//! let graph = MultimediaApp::AvEncoder.build(Clip::Foreman, &platform)?;
//!
//! let eas = EasScheduler::new(EasConfig::default());
//! let outcome = eas.schedule(&graph, &platform)?;
//! assert!(outcome.report.meets_deadlines());
//!
//! let edf = EdfScheduler::new();
//! let baseline = edf.schedule(&graph, &platform)?;
//! // EAS optimizes energy; EDF optimizes speed.
//! assert!(outcome.stats.energy.total() <= baseline.stats.energy.total());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anneal;
pub mod budget;
pub mod cache;
pub mod comm;
pub mod delta;
pub mod dls;
pub mod edf;
mod error;
pub mod level;
pub mod limit;
pub mod mapping;
pub mod placer;
pub mod repair;
pub mod retime;
pub mod scheduler;
pub mod trace;

pub use error::SchedulerError;
pub use scheduler::{
    DlsScheduler, EasConfig, EasScheduler, EdfScheduler, ScheduleOutcome, Scheduler, WeightFunction,
};

/// Convenient glob import of the most commonly used scheduler types.
pub mod prelude {
    pub use crate::anneal::{AnnealConfig, AnnealScheduler};
    pub use crate::budget::SlackBudgets;
    pub use crate::delta::{
        apply_edits, apply_platform_edits, repair_from, repair_from_traced, AppliedEdits,
        DeltaOutcome, EdgeRef, Edit,
    };
    pub use crate::limit::{CancelToken, ComputeBudget, Interrupt};
    pub use crate::mapping::MapThenScheduleScheduler;
    pub use crate::scheduler::{
        CommModel, DlsScheduler, EasConfig, EasScheduler, EdfScheduler, ScheduleOutcome, Scheduler,
        WeightFunction,
    };
    pub use crate::trace::{BufferSink, NullSink, SummarySink, TraceSink, TraceSummary, Tracer};
    pub use crate::SchedulerError;
}

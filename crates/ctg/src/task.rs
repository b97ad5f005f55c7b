//! Tasks: the vertices of a CTG (Def. 1).

use serde::{Deserialize, Serialize};
use std::fmt;

use noc_platform::tile::PeId;
use noc_platform::units::{Energy, Time};

/// Identifies a task within a [`crate::TaskGraph`]. Ids are dense indices
/// in `0..task_count`.
///
/// ```
/// use noc_ctg::task::TaskId;
/// assert_eq!(TaskId::new(4).to_string(), "t4");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct TaskId(u32);

impl TaskId {
    /// Creates a task id from a dense index.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        TaskId(index)
    }

    /// Returns the dense index as a `usize`, for slice indexing.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` index.
    #[must_use]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(&format!("t{}", self.0))
    }
}

/// A computation task with per-PE execution costs and an optional
/// deadline.
///
/// The `j`-th element of [`exec_times`](Task::exec_times) /
/// [`exec_energies`](Task::exec_energies) is the execution time / energy
/// of the task on PE `j` of the target architecture — the paper's `R_i`
/// and `E_i` arrays. A deadline of [`Time::INFINITY`] means "unspecified"
/// (the paper's `d(t_i) = ∞`).
///
/// ```
/// use noc_ctg::task::Task;
/// use noc_platform::units::{Energy, Time};
///
/// let t = Task::new(
///     "fir",
///     vec![Time::new(80), Time::new(120)],
///     vec![Energy::from_nj(40.0), Energy::from_nj(12.0)],
/// )
/// .with_deadline(Time::new(500));
/// assert_eq!(t.deadline(), Some(Time::new(500)));
/// assert_eq!(t.pe_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Task {
    name: String,
    exec_times: Vec<Time>,
    exec_energies: Vec<Energy>,
    deadline: Time,
}

impl Task {
    /// Creates a task from explicit per-PE cost vectors and no deadline.
    ///
    /// The two vectors must have the same length, equal to the PE count
    /// of the [`crate::TaskGraph`] the task will join (checked at
    /// [`crate::TaskGraphBuilder::build`] time).
    #[must_use]
    pub fn new(name: impl Into<String>, exec_times: Vec<Time>, exec_energies: Vec<Energy>) -> Self {
        Task {
            name: name.into(),
            exec_times,
            exec_energies,
            deadline: Time::INFINITY,
        }
    }

    /// Creates a task with identical cost on all `pe_count` PEs — handy
    /// for homogeneous examples and tests.
    #[must_use]
    pub fn uniform(name: impl Into<String>, pe_count: usize, time: Time, energy: Energy) -> Self {
        Task::new(name, vec![time; pe_count], vec![energy; pe_count])
    }

    /// Sets the deadline (builder style).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Time) -> Self {
        self.deadline = deadline;
        self
    }

    /// Human-readable task name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Execution time on a specific PE.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is out of range.
    #[must_use]
    pub fn exec_time(&self, pe: PeId) -> Time {
        self.exec_times[pe.index()]
    }

    /// Execution energy on a specific PE.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is out of range.
    #[must_use]
    pub fn exec_energy(&self, pe: PeId) -> Energy {
        self.exec_energies[pe.index()]
    }

    /// The full per-PE execution-time vector (`R_i`).
    #[must_use]
    pub fn exec_times(&self) -> &[Time] {
        &self.exec_times
    }

    /// The full per-PE energy vector (`E_i`).
    #[must_use]
    pub fn exec_energies(&self) -> &[Energy] {
        &self.exec_energies
    }

    /// Number of PEs the cost vectors cover.
    #[must_use]
    pub fn pe_count(&self) -> usize {
        self.exec_times.len()
    }

    /// The deadline, or `None` if unspecified.
    #[must_use]
    pub fn deadline(&self) -> Option<Time> {
        if self.deadline.is_infinite() {
            None
        } else {
            Some(self.deadline)
        }
    }

    /// The deadline as a raw [`Time`] (`Time::INFINITY` when
    /// unspecified), convenient for min/compare chains.
    #[must_use]
    pub fn deadline_or_infinity(&self) -> Time {
        self.deadline
    }

    /// `true` if the task carries an explicit deadline.
    #[must_use]
    pub fn has_deadline(&self) -> bool {
        !self.deadline.is_infinite()
    }

    /// Mean execution time across PEs (the paper's `M_ti`).
    #[must_use]
    pub fn mean_exec_time(&self) -> f64 {
        if self.exec_times.is_empty() {
            return 0.0;
        }
        self.exec_times.iter().map(|t| t.as_f64()).sum::<f64>() / self.exec_times.len() as f64
    }

    /// Population variance of execution time across PEs (`VAR_ri`).
    #[must_use]
    pub fn exec_time_variance(&self) -> f64 {
        variance(self.exec_times.iter().map(|t| t.as_f64()))
    }

    /// Population variance of execution energy across PEs (`VAR_ei`).
    #[must_use]
    pub fn exec_energy_variance(&self) -> f64 {
        variance(self.exec_energies.iter().map(|e| e.as_nj()))
    }
}

fn variance(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / v.len() as f64
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} PEs", self.name, self.pe_count())?;
        if let Some(d) = self.deadline() {
            write!(f, ", deadline {d}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Task {
        Task::new(
            "t",
            vec![Time::new(100), Time::new(200), Time::new(300)],
            vec![
                Energy::from_nj(10.0),
                Energy::from_nj(20.0),
                Energy::from_nj(60.0),
            ],
        )
    }

    #[test]
    fn mean_and_variance() {
        let t = sample();
        assert!((t.mean_exec_time() - 200.0).abs() < 1e-12);
        // Population variance of {100,200,300} = 6666.66..
        assert!((t.exec_time_variance() - 20000.0 / 3.0).abs() < 1e-9);
        assert!(t.exec_energy_variance() > 0.0);
    }

    #[test]
    fn uniform_task_has_zero_variance() {
        let t = Task::uniform("u", 5, Time::new(50), Energy::from_nj(5.0));
        assert_eq!(t.exec_time_variance(), 0.0);
        assert_eq!(t.exec_energy_variance(), 0.0);
        assert_eq!(t.pe_count(), 5);
    }

    #[test]
    fn deadline_handling() {
        let t = sample();
        assert_eq!(t.deadline(), None);
        assert!(!t.has_deadline());
        assert!(t.deadline_or_infinity().is_infinite());
        let t = t.with_deadline(Time::new(999));
        assert_eq!(t.deadline(), Some(Time::new(999)));
        assert!(t.has_deadline());
    }

    #[test]
    fn per_pe_lookup() {
        let t = sample();
        assert_eq!(t.exec_time(PeId::new(1)), Time::new(200));
        assert!((t.exec_energy(PeId::new(2)).as_nj() - 60.0).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_deadline() {
        let t = sample().with_deadline(Time::new(5));
        assert!(t.to_string().contains("deadline 5"));
    }
}

//! A single resource's schedule table: a sorted list of disjoint busy
//! intervals with earliest-gap search.
//!
//! Intervals are half-open `[start, end)`. Zero-length intervals are
//! no-ops (local or zero-volume transfers occupy nothing).

use serde::{Deserialize, Serialize};
use std::fmt;

use noc_platform::units::Time;

/// A half-open busy interval `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Slot {
    /// Inclusive start.
    pub start: Time,
    /// Exclusive end.
    pub end: Time,
}

impl Slot {
    /// Creates a slot.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `end < start`.
    #[must_use]
    pub fn new(start: Time, end: Time) -> Self {
        debug_assert!(end >= start, "slot end before start");
        Slot { start, end }
    }

    /// `true` if the slot covers no time.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// `true` if `self` and `other` share any instant.
    #[must_use]
    pub fn overlaps(&self, other: &Slot) -> bool {
        self.start < other.end && other.start < self.end
    }
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// Busy-interval table for one shared resource (a PE or a link).
///
/// Maintains the invariant that stored slots are non-empty, disjoint and
/// sorted by start; adjacent slots are *not* merged so that every
/// [`occupy`](ScheduleTable::occupy) can be undone by an exact
/// [`release`](ScheduleTable::release).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleTable {
    slots: Vec<Slot>,
}

impl ScheduleTable {
    /// Creates an empty (fully idle) table.
    #[must_use]
    pub fn new() -> Self {
        ScheduleTable::default()
    }

    /// The earliest start `s >= ready` such that `[s, s + duration)` is
    /// completely idle. A zero `duration` fits anywhere, returning
    /// `ready`.
    #[must_use]
    pub fn find_earliest(&self, ready: Time, duration: Time) -> Time {
        if duration == Time::ZERO {
            return ready;
        }
        let mut candidate = ready;
        // Slots are sorted; scan gaps from the first slot that could
        // interfere.
        let start_idx = self.slots.partition_point(|s| s.end <= ready);
        for slot in &self.slots[start_idx..] {
            if slot.start >= candidate.saturating_add(duration) {
                break; // gap before this slot is large enough
            }
            if slot.end > candidate {
                candidate = slot.end;
            }
        }
        candidate
    }

    /// `true` if `[start, start + duration)` is completely idle.
    #[must_use]
    pub fn is_free(&self, start: Time, duration: Time) -> bool {
        if duration == Time::ZERO {
            return true;
        }
        let probe = Slot::new(start, start.saturating_add(duration));
        let idx = self.slots.partition_point(|s| s.end <= start);
        self.slots.get(idx).is_none_or(|s| !s.overlaps(&probe))
    }

    /// Marks `[start, start + duration)` busy. Zero durations are
    /// ignored.
    ///
    /// # Panics
    ///
    /// Panics if the interval overlaps an existing busy slot (schedulers
    /// must query [`find_earliest`](Self::find_earliest) /
    /// [`is_free`](Self::is_free) first; double-booking a resource is a
    /// scheduler bug, not a recoverable condition).
    pub fn occupy(&mut self, start: Time, duration: Time) {
        if duration == Time::ZERO {
            return;
        }
        let slot = Slot::new(start, start.saturating_add(duration));
        let idx = self.slots.partition_point(|s| s.end <= start);
        if let Some(next) = self.slots.get(idx) {
            assert!(
                !next.overlaps(&slot),
                "double booking: {slot} overlaps {next}"
            );
        }
        self.slots.insert(idx, slot);
    }

    /// Removes a previously occupied interval (exact match), undoing one
    /// [`occupy`](Self::occupy). Zero durations are ignored.
    ///
    /// # Panics
    ///
    /// Panics if no exactly matching slot exists.
    pub fn release(&mut self, start: Time, duration: Time) {
        if duration == Time::ZERO {
            return;
        }
        let slot = Slot::new(start, start.saturating_add(duration));
        let idx = self
            .slots
            .binary_search(&slot)
            .unwrap_or_else(|_| panic!("releasing unoccupied slot {slot}"));
        self.slots.remove(idx);
    }

    /// The busy slots, sorted by start.
    #[must_use]
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// `true` if the resource is never busy.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// End of the last busy slot, or zero when idle.
    #[must_use]
    pub fn horizon(&self) -> Time {
        self.slots.last().map_or(Time::ZERO, |s| s.end)
    }

    /// Total busy time.
    #[must_use]
    pub fn busy_time(&self) -> Time {
        self.slots.iter().map(|s| s.end - s.start).sum()
    }
}

impl fmt::Display for ScheduleTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.slots.is_empty() {
            return write!(f, "(idle)");
        }
        for (i, s) in self.slots.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

/// The earliest start `s >= ready` at which *all* the given tables are
/// simultaneously idle for `duration` — the Fig. 3 "path schedule table"
/// built by merging the occupied slots of a route's links.
///
/// `tables` is walked once per candidate bump, so it must be cheap to
/// clone (a slice iterator, or a route mapped to its link tables).
///
/// Runs in `O(total slots)` per candidate bump; candidates only move
/// forward, so overall `O(k * total slots)` with `k` small in practice.
#[must_use]
pub fn find_earliest_across<'a, I>(tables: I, ready: Time, duration: Time) -> Time
where
    I: IntoIterator<Item = &'a ScheduleTable>,
    I::IntoIter: Clone,
{
    if duration == Time::ZERO {
        return ready;
    }
    let tables = tables.into_iter();
    let mut candidate = ready;
    loop {
        let mut moved = false;
        for t in tables.clone() {
            let earliest = t.find_earliest(candidate, duration);
            if earliest > candidate {
                candidate = earliest;
                moved = true;
            }
        }
        if !moved {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: u64) -> Time {
        Time::new(x)
    }

    #[test]
    fn empty_table_returns_ready_time() {
        let table = ScheduleTable::new();
        assert_eq!(table.find_earliest(t(5), t(10)), t(5));
        assert!(table.is_free(t(0), t(100)));
        assert_eq!(table.horizon(), Time::ZERO);
    }

    #[test]
    fn gap_search_skips_busy_slots() {
        let mut table = ScheduleTable::new();
        table.occupy(t(10), t(10)); // [10,20)
        table.occupy(t(30), t(10)); // [30,40)
        assert_eq!(table.find_earliest(t(0), t(10)), t(0)); // fits before
        assert_eq!(table.find_earliest(t(0), t(11)), t(40)); // too big for both gaps
        assert_eq!(table.find_earliest(t(12), t(5)), t(20)); // inside busy -> next gap
        assert_eq!(table.find_earliest(t(20), t(10)), t(20)); // exact gap fit
        assert_eq!(table.find_earliest(t(35), t(1)), t(40));
    }

    #[test]
    fn occupy_release_round_trip() {
        let mut table = ScheduleTable::new();
        table.occupy(t(10), t(10));
        table.occupy(t(0), t(5));
        assert_eq!(table.slots().len(), 2);
        table.release(t(10), t(10));
        table.release(t(0), t(5));
        assert!(table.is_empty());
    }

    #[test]
    #[should_panic(expected = "double booking")]
    fn overlapping_occupy_panics() {
        let mut table = ScheduleTable::new();
        table.occupy(t(10), t(10));
        table.occupy(t(15), t(1));
    }

    #[test]
    #[should_panic(expected = "releasing unoccupied")]
    fn bad_release_panics() {
        let mut table = ScheduleTable::new();
        table.occupy(t(10), t(10));
        table.release(t(11), t(2));
    }

    #[test]
    fn zero_duration_is_noop() {
        let mut table = ScheduleTable::new();
        table.occupy(t(5), Time::ZERO);
        assert!(table.is_empty());
        assert_eq!(table.find_earliest(t(7), Time::ZERO), t(7));
        table.release(t(5), Time::ZERO); // must not panic
    }

    #[test]
    fn adjacent_slots_are_allowed() {
        let mut table = ScheduleTable::new();
        table.occupy(t(0), t(10));
        table.occupy(t(10), t(10)); // touching is fine (half-open)
        assert_eq!(table.find_earliest(t(0), t(1)), t(20));
        assert_eq!(table.busy_time(), t(20));
    }

    #[test]
    fn is_free_matches_find_earliest() {
        let mut table = ScheduleTable::new();
        table.occupy(t(10), t(10));
        assert!(table.is_free(t(0), t(10)));
        assert!(!table.is_free(t(5), t(10)));
        assert!(table.is_free(t(20), t(1)));
    }

    #[test]
    fn across_tables_finds_common_gap() {
        let mut a = ScheduleTable::new();
        let mut b = ScheduleTable::new();
        a.occupy(t(0), t(10)); // a busy [0,10)
        b.occupy(t(15), t(10)); // b busy [15,25)
                                // Need 6 ticks in both: [10,15) too small, so 25.
        assert_eq!(find_earliest_across([&a, &b], t(0), t(6)), t(25));
        // 5 ticks fit exactly in [10,15).
        assert_eq!(find_earliest_across([&a, &b], t(0), t(5)), t(10));
    }

    #[test]
    fn across_empty_list_returns_ready() {
        assert_eq!(find_earliest_across([], t(9), t(5)), t(9));
    }

    #[test]
    fn display_formats() {
        let mut table = ScheduleTable::new();
        assert_eq!(table.to_string(), "(idle)");
        table.occupy(t(1), t(2));
        assert_eq!(table.to_string(), "[1, 3)");
    }
}

//! Property-based tests of the schedule-table invariants — the data
//! structure every scheduler decision rests on.

use proptest::prelude::*;

use noc_platform::units::Time;
use noc_schedule::table::{find_earliest_across, ScheduleTable};

/// A random request stream: (ready, duration) pairs with small values so
/// collisions are frequent.
fn requests() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..200, 1u64..40), 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// find_earliest always returns a feasible, at-or-after-ready slot,
    /// and occupying it keeps the table consistent.
    #[test]
    fn find_earliest_returns_feasible_minimal_slots(reqs in requests()) {
        let mut table = ScheduleTable::new();
        for (ready, dur) in reqs {
            let (ready, dur) = (Time::new(ready), Time::new(dur));
            let start = table.find_earliest(ready, dur);
            prop_assert!(start >= ready);
            prop_assert!(table.is_free(start, dur));
            // Minimality: no earlier feasible start at tick granularity.
            if start > ready {
                let probe = start - Time::new(1);
                prop_assert!(
                    !table.is_free(probe.max(ready), dur),
                    "slot {} not minimal for ready {} dur {}", start, ready, dur
                );
            }
            table.occupy(start, dur);
        }
        // Slots are sorted and disjoint.
        let slots = table.slots();
        for w in slots.windows(2) {
            prop_assert!(w[0].end <= w[1].start);
        }
    }

    /// occupy/release round-trips restore the table exactly.
    #[test]
    fn occupy_release_is_involutive(reqs in requests()) {
        let mut table = ScheduleTable::new();
        let mut placed = Vec::new();
        for (ready, dur) in reqs {
            let (ready, dur) = (Time::new(ready), Time::new(dur));
            let start = table.find_earliest(ready, dur);
            table.occupy(start, dur);
            placed.push((start, dur));
        }
        let full = table.clone();
        // Release half, re-occupy, compare.
        let half = placed.len() / 2;
        for &(s, d) in &placed[..half] {
            table.release(s, d);
        }
        for &(s, d) in &placed[..half] {
            prop_assert!(table.is_free(s, d));
            table.occupy(s, d);
        }
        prop_assert_eq!(table, full);
    }

    /// The merged path search agrees with a brute-force scan over ticks.
    #[test]
    fn path_search_matches_brute_force(
        reqs_a in requests(), reqs_b in requests(),
        ready in 0u64..100, dur in 1u64..20,
    ) {
        let mut a = ScheduleTable::new();
        for (r, d) in reqs_a {
            let start = a.find_earliest(Time::new(r), Time::new(d));
            a.occupy(start, Time::new(d));
        }
        let mut b = ScheduleTable::new();
        for (r, d) in reqs_b {
            let start = b.find_earliest(Time::new(r), Time::new(d));
            b.occupy(start, Time::new(d));
        }
        let (ready, dur) = (Time::new(ready), Time::new(dur));
        let fast = find_earliest_across([&a, &b], ready, dur);
        // Brute force from `ready` upwards.
        let mut t = ready;
        let brute = loop {
            if a.is_free(t, dur) && b.is_free(t, dur) {
                break t;
            }
            t += Time::new(1);
        };
        prop_assert_eq!(fast, brute);
    }

    /// busy_time equals the sum of what was occupied.
    #[test]
    fn busy_time_is_conserved(reqs in requests()) {
        let mut table = ScheduleTable::new();
        let mut total = 0u64;
        for (ready, dur) in reqs {
            let start = table.find_earliest(Time::new(ready), Time::new(dur));
            table.occupy(start, Time::new(dur));
            total += dur;
        }
        prop_assert_eq!(table.busy_time(), Time::new(total));
    }
}

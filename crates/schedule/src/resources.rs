//! Combined PE and link schedule tables with an undo log.
//!
//! The EAS level scheduler computes `F(i,k)` by *trial-scheduling* the
//! candidate task's receiving communication transactions onto link
//! tables and the task onto a PE table, then restoring every table
//! ("the schedule tables of both links and the PEs will be restored
//! every time a `F(i,k)` is calculated", Sec. 5 Step 2). Cloning all
//! tables per trial would be quadratic; [`ResourceTables`] instead keeps
//! an append-only reservation log and rolls back to a [`Mark`].

use noc_platform::routing::LinkId;
use noc_platform::tile::PeId;
use noc_platform::units::Time;
use noc_platform::Platform;

use crate::table::{find_earliest_across, ScheduleTable};

/// A checkpoint into the reservation log; see
/// [`ResourceTables::checkpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark(usize);

#[derive(Debug, Clone, Copy)]
enum Reservation {
    Pe {
        pe: PeId,
        start: Time,
        duration: Time,
    },
    Link {
        link: LinkId,
        start: Time,
        duration: Time,
    },
}

/// Per-PE and per-link busy tables for one platform, with checkpoint /
/// rollback.
///
/// ```
/// use noc_platform::prelude::*;
/// use noc_schedule::resources::ResourceTables;
///
/// # fn main() -> Result<(), PlatformError> {
/// let platform = Platform::builder().topology(TopologySpec::mesh(2, 2)).build()?;
/// let mut tables = ResourceTables::new(&platform);
/// let mark = tables.checkpoint();
/// tables.reserve_pe(PeId::new(0), Time::ZERO, Time::new(100));
/// assert_eq!(tables.earliest_pe_slot(PeId::new(0), Time::ZERO, Time::new(10)), Time::new(100));
/// tables.rollback(mark);
/// assert_eq!(tables.earliest_pe_slot(PeId::new(0), Time::ZERO, Time::new(10)), Time::ZERO);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ResourceTables {
    pe: Vec<ScheduleTable>,
    link: Vec<ScheduleTable>,
    log: Vec<Reservation>,
}

impl ResourceTables {
    /// Creates all-idle tables sized for `platform`.
    #[must_use]
    pub fn new(platform: &Platform) -> Self {
        ResourceTables {
            pe: vec![ScheduleTable::new(); platform.tile_count()],
            link: vec![ScheduleTable::new(); platform.link_count()],
            log: Vec::new(),
        }
    }

    /// Current log position; pass to [`rollback`](Self::rollback) to undo
    /// everything reserved after this call.
    #[must_use]
    pub fn checkpoint(&self) -> Mark {
        Mark(self.log.len())
    }

    /// Releases every reservation made after `mark`, restoring the
    /// tables to their checkpointed state.
    ///
    /// # Panics
    ///
    /// Panics if `mark` is ahead of the log (from a different/later
    /// state).
    pub fn rollback(&mut self, mark: Mark) {
        assert!(mark.0 <= self.log.len(), "mark from a later state");
        while self.log.len() > mark.0 {
            match self.log.pop().expect("len checked") {
                Reservation::Pe {
                    pe,
                    start,
                    duration,
                } => {
                    self.pe[pe.index()].release(start, duration);
                }
                Reservation::Link {
                    link,
                    start,
                    duration,
                } => {
                    self.link[link.index()].release(start, duration);
                }
            }
        }
    }

    /// Earliest start `>= ready` at which `pe` is idle for `duration`.
    #[must_use]
    pub fn earliest_pe_slot(&self, pe: PeId, ready: Time, duration: Time) -> Time {
        self.pe[pe.index()].find_earliest(ready, duration)
    }

    /// Earliest start `>= ready` at which *every link of `route`* is idle
    /// for `duration` — the merged "path schedule table" of Fig. 3.
    #[must_use]
    pub fn earliest_path_slot(&self, route: &[LinkId], ready: Time, duration: Time) -> Time {
        find_earliest_across(route.iter().map(|l| &self.link[l.index()]), ready, duration)
    }

    /// Reserves `[start, start + duration)` on `pe` (logged).
    ///
    /// # Panics
    ///
    /// Panics if the interval is already busy (double booking is a
    /// scheduler bug).
    pub fn reserve_pe(&mut self, pe: PeId, start: Time, duration: Time) {
        self.pe[pe.index()].occupy(start, duration);
        if duration > Time::ZERO {
            self.log.push(Reservation::Pe {
                pe,
                start,
                duration,
            });
        }
    }

    /// Reserves `[start, start + duration)` on every link of `route`
    /// (logged) — committing one communication transaction.
    ///
    /// # Panics
    ///
    /// Panics if any link is already busy in the interval.
    pub fn reserve_path(&mut self, route: &[LinkId], start: Time, duration: Time) {
        if duration == Time::ZERO {
            return;
        }
        for &l in route {
            self.link[l.index()].occupy(start, duration);
            self.log.push(Reservation::Link {
                link: l,
                start,
                duration,
            });
        }
    }

    /// Read access to one link's table.
    #[must_use]
    pub fn link_table(&self, link: LinkId) -> &ScheduleTable {
        &self.link[link.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_platform::prelude::*;

    fn platform() -> Platform {
        Platform::builder()
            .topology(TopologySpec::mesh(2, 2))
            .build()
            .unwrap()
    }

    fn t(x: u64) -> Time {
        Time::new(x)
    }

    #[test]
    fn nested_checkpoints_roll_back_in_order() {
        let p = platform();
        let mut r = ResourceTables::new(&p);
        let outer = r.checkpoint();
        r.reserve_pe(PeId::new(0), t(0), t(50));
        let inner = r.checkpoint();
        r.reserve_pe(PeId::new(0), t(50), t(50));
        r.rollback(inner);
        assert_eq!(r.earliest_pe_slot(PeId::new(0), t(0), t(10)), t(50));
        r.rollback(outer);
        assert_eq!(r.earliest_pe_slot(PeId::new(0), t(0), t(10)), t(0));
    }

    #[test]
    fn path_reservation_blocks_all_links() {
        let p = platform();
        let mut r = ResourceTables::new(&p);
        // Route 0 -> 3 on 2x2 XY: 0 -> 1 -> 3 (two links).
        let route: Vec<LinkId> = p.route(TileId::new(0), TileId::new(3)).to_vec();
        assert_eq!(route.len(), 2);
        r.reserve_path(&route, t(10), t(20));
        // The whole path is busy [10,30): earliest 15-tick slot from 0 is 30... no:
        // gap [0,10) fits only 10 ticks.
        assert_eq!(r.earliest_path_slot(&route, t(0), t(10)), t(0));
        assert_eq!(r.earliest_path_slot(&route, t(0), t(11)), t(30));
        // A disjoint link is unaffected.
        let other: Vec<LinkId> = p.route(TileId::new(3), TileId::new(0)).to_vec();
        assert_eq!(r.earliest_path_slot(&other, t(0), t(100)), t(0));
    }

    #[test]
    fn rollback_releases_path_reservations() {
        let p = platform();
        let mut r = ResourceTables::new(&p);
        let route: Vec<LinkId> = p.route(TileId::new(0), TileId::new(3)).to_vec();
        let mark = r.checkpoint();
        r.reserve_path(&route, t(0), t(100));
        r.rollback(mark);
        assert_eq!(r.earliest_path_slot(&route, t(0), t(100)), t(0));
        for l in &route {
            assert!(r.link_table(*l).is_empty());
        }
    }

    #[test]
    fn partial_path_conflicts_delay_the_whole_path() {
        let p = platform();
        let mut r = ResourceTables::new(&p);
        let route: Vec<LinkId> = p.route(TileId::new(0), TileId::new(3)).to_vec();
        // Busy only the second link.
        r.reserve_path(&route[1..], t(0), t(40));
        assert_eq!(r.earliest_path_slot(&route, t(0), t(10)), t(40));
    }

    #[test]
    fn zero_duration_reservations_do_not_log() {
        let p = platform();
        let mut r = ResourceTables::new(&p);
        let mark = r.checkpoint();
        r.reserve_pe(PeId::new(1), t(5), Time::ZERO);
        let route: Vec<LinkId> = p.route(TileId::new(0), TileId::new(1)).to_vec();
        r.reserve_path(&route, t(5), Time::ZERO);
        assert_eq!(
            mark,
            r.checkpoint(),
            "zero reservations must not grow the log"
        );
    }
}

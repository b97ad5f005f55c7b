//! Textual platform and scheduler specifications shared by the CLI and
//! the HTTP service, e.g. `mesh:4x4`, `torus:3x3:yx`, `honeycomb:4x4`,
//! `eas`, `eas-base`, `edf`, `dls`, and fault sets like
//! `tile:4,link:1-2`. Keeping one parser here guarantees a request body
//! and a command line describing the same problem resolve to the same
//! platform and scheduler.

use noc_eas::prelude::*;
use noc_platform::prelude::*;

/// Parses a platform spec of the form
/// `<topology>:<cols>x<rows>[:<routing>]` with topology one of `mesh`,
/// `torus`, `honeycomb` and routing one of `xy`, `yx`, `bfs`
/// (shortest-path). Routing defaults to `xy` for grids and `bfs` for
/// honeycombs.
///
/// # Errors
///
/// Returns a human-readable message on malformed specs or invalid
/// combinations.
pub fn parse_platform(spec: &str) -> Result<Platform, String> {
    parse_platform_faulted(spec, None)
}

/// Parses a fault-set spec: comma-separated `tile:<id>`,
/// `link:<a>-<b>` (both directions) and `link:<a>><b>` (one direction)
/// entries, e.g. `tile:4,link:1-2` (see
/// [`noc_platform::fault::FaultSet::parse`]).
///
/// # Errors
///
/// Returns a human-readable message on malformed entries.
pub fn parse_faults(spec: &str) -> Result<FaultSet, String> {
    FaultSet::parse(spec).map_err(|e| e.to_string())
}

/// [`parse_platform`] with an optional fault-set spec masked into the
/// platform: dead PEs leave every candidate list and routes detour
/// around dead links.
///
/// # Errors
///
/// As [`parse_platform`] and [`parse_faults`]; additionally rejects
/// fault sets that reference missing resources or disconnect the
/// surviving tiles.
pub fn parse_platform_faulted(spec: &str, faults: Option<&str>) -> Result<Platform, String> {
    PlatformSpec::parse(spec, faults)?.build()
}

/// Largest platform the service builds for a request, in tiles: a
/// 16×16 grid. Building computes the all-pairs route table, so its
/// cost grows with the square of the tile count; the experiments use
/// at most 6×6.
pub(crate) const MAX_SERVICE_TILES: usize = 256;

/// A platform spec parsed but not yet built, so its size can be
/// checked before anything is allocated for it.
pub(crate) struct PlatformSpec {
    topology: TopologySpec,
    routing: RoutingSpec,
    faults: Option<FaultSet>,
}

impl PlatformSpec {
    /// Parses the spec and fault-set strings of [`parse_platform_faulted`].
    pub(crate) fn parse(spec: &str, faults: Option<&str>) -> Result<PlatformSpec, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        if parts.len() < 2 || parts.len() > 3 {
            return Err(format!(
                "platform spec `{spec}` must look like mesh:4x4 or torus:3x3:yx"
            ));
        }
        let dims: Vec<&str> = parts[1].split('x').collect();
        if dims.len() != 2 {
            return Err(format!("dimensions `{}` must look like 4x4", parts[1]));
        }
        let cols: u16 = dims[0]
            .parse()
            .map_err(|_| format!("bad column count `{}`", dims[0]))?;
        let rows: u16 = dims[1]
            .parse()
            .map_err(|_| format!("bad row count `{}`", dims[1]))?;
        let topology = match parts[0] {
            "mesh" => TopologySpec::mesh(cols, rows),
            "torus" => TopologySpec::torus(cols, rows),
            "honeycomb" => TopologySpec::honeycomb(cols, rows),
            other => return Err(format!("unknown topology `{other}`")),
        };
        let default_routing = if parts[0] == "honeycomb" {
            RoutingSpec::ShortestPath
        } else {
            RoutingSpec::Xy
        };
        let routing = match parts.get(2) {
            None => default_routing,
            Some(&"xy") => RoutingSpec::Xy,
            Some(&"yx") => RoutingSpec::Yx,
            Some(&"bfs") => RoutingSpec::ShortestPath,
            Some(other) => return Err(format!("unknown routing `{other}` (use xy, yx or bfs)")),
        };
        Ok(PlatformSpec {
            topology,
            routing,
            faults: faults.map(parse_faults).transpose()?,
        })
    }

    /// Builds the platform for a graph targeting `graph_pes` PEs. It
    /// first checks, without building anything, that the spec has
    /// exactly that many tiles and at most [`MAX_SERVICE_TILES`], so an
    /// untrusted spec can neither stall an event loop nor exhaust
    /// memory.
    pub(crate) fn build_for(self, graph_pes: usize) -> Result<Platform, String> {
        let tiles = self.topology.tile_count();
        if graph_pes != tiles {
            return Err(SchedulerError::PeCountMismatch {
                graph: graph_pes,
                platform: tiles,
            }
            .to_string());
        }
        if tiles > MAX_SERVICE_TILES {
            return Err(format!(
                "platform has {tiles} tiles; the service builds at most {MAX_SERVICE_TILES} (16x16)"
            ));
        }
        self.build()
    }

    fn build(self) -> Result<Platform, String> {
        let mut builder = Platform::builder()
            .topology(self.topology)
            .routing(self.routing)
            .pe_mix(PeCatalog::date04().cycle_mix());
        if let Some(faults) = self.faults {
            builder = builder.faults(faults);
        }
        builder.build().map_err(|e| e.to_string())
    }
}

/// A chaos-testing scheduler that always panics mid-schedule. It exists
/// to drive the service's panic isolation end to end: a request naming
/// it must fail with a typed 500 while the scheduler worker — and every
/// other request — carries on. Deliberately absent from the
/// unknown-scheduler error message; it is a test hook, not a scheduler.
struct ChaosPanicScheduler;

impl Scheduler for ChaosPanicScheduler {
    fn name(&self) -> &str {
        "chaos-panic"
    }

    fn schedule(
        &self,
        _graph: &noc_ctg::prelude::TaskGraph,
        _platform: &Platform,
    ) -> Result<ScheduleOutcome, SchedulerError> {
        panic!("chaos-panic scheduler always panics");
    }
}

/// Parses a scheduler name into a boxed [`Scheduler`]. `threads` sets
/// the restart-chain worker count of `anneal` (`0` means all hardware
/// threads, and no more workers than restarts ever spawn); every other
/// scheduler, EAS included, runs serially and ignores it. Results are
/// identical for every thread count.
///
/// The special name `chaos-panic` resolves to a scheduler that panics
/// on execution — a fault-injection hook for exercising the service's
/// panic isolation (`svc_load --chaos` uses it).
///
/// # Errors
///
/// Returns a message listing the valid names on unknown input.
pub fn parse_scheduler(
    name: &str,
    threads: usize,
) -> Result<Box<dyn Scheduler + Send + Sync>, String> {
    match name {
        "chaos-panic" => Ok(Box::new(ChaosPanicScheduler)),
        "eas" => Ok(Box::new(EasScheduler::full())),
        "eas-base" => Ok(Box::new(EasScheduler::base())),
        "edf" => Ok(Box::new(EdfScheduler::new())),
        "dls" => Ok(Box::new(DlsScheduler::new())),
        "anneal" => Ok(Box::new(AnnealScheduler::new(AnnealConfig {
            threads,
            ..AnnealConfig::default()
        }))),
        "map-then-schedule" => Ok(Box::new(MapThenScheduleScheduler::new())),
        other => Err(format!(
            "unknown scheduler `{other}` (use eas, eas-base, edf, dls, anneal or map-then-schedule)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_mesh_default_xy() {
        let p = parse_platform("mesh:4x4").expect("parses");
        assert_eq!(p.tile_count(), 16);
        assert_eq!(p.routing_name(), "xy");
    }

    #[test]
    fn parses_torus_with_routing() {
        let p = parse_platform("torus:3x3:yx").expect("parses");
        assert_eq!(p.tile_count(), 9);
        assert_eq!(p.routing_name(), "yx");
    }

    #[test]
    fn honeycomb_defaults_to_bfs() {
        let p = parse_platform("honeycomb:4x4").expect("parses");
        assert_eq!(p.routing_name(), "shortest-path");
    }

    #[test]
    fn rejects_bad_specs() {
        assert!(parse_platform("mesh").is_err());
        assert!(parse_platform("mesh:4").is_err());
        assert!(parse_platform("mesh:ax4").is_err());
        assert!(parse_platform("ring:4x4").is_err());
        assert!(parse_platform("mesh:4x4:zigzag").is_err());
        assert!(
            parse_platform("honeycomb:4x4:xy").is_err(),
            "xy cannot route honeycombs"
        );
    }

    #[test]
    fn parses_faulted_platforms() {
        let p = parse_platform_faulted("mesh:3x3", Some("tile:4,link:0-1")).expect("parses");
        assert!(!p.tile_alive(TileId::new(4)));
        assert!(p.tile_alive(TileId::new(0)));
        assert_eq!(p.faults().failed_links().len(), 2);
        // No fault spec: identical to the plain parse.
        let plain = parse_platform_faulted("mesh:2x2", None).expect("parses");
        assert!(plain.faults().is_empty());
    }

    #[test]
    fn rejects_bad_fault_specs() {
        assert!(parse_platform_faulted("mesh:2x2", Some("tile:nine")).is_err());
        assert!(parse_platform_faulted("mesh:2x2", Some("tile:9")).is_err());
        assert!(
            parse_platform_faulted("mesh:3x1", Some("tile:1")).is_err(),
            "disconnecting faults are rejected"
        );
        assert!(parse_faults("gibberish").is_err());
        assert_eq!(parse_faults("link:0-1").unwrap().len(), 2);
    }

    #[test]
    fn parses_all_schedulers() {
        for name in [
            "eas",
            "eas-base",
            "edf",
            "dls",
            "anneal",
            "map-then-schedule",
        ] {
            for threads in [1usize, 4] {
                assert_eq!(parse_scheduler(name, threads).expect("parses").name(), name);
            }
        }
        assert!(parse_scheduler("magic", 1).is_err());
        assert_eq!(
            parse_scheduler("chaos-panic", 1).expect("parses").name(),
            "chaos-panic",
            "the chaos hook resolves"
        );
        let Err(msg) = parse_scheduler("magic", 1) else {
            panic!("unknown scheduler must not parse");
        };
        assert!(
            !msg.contains("chaos"),
            "the chaos hook stays out of the advertised names"
        );
    }
}

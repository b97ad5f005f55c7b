//! The assembled NoC platform and its Architecture Characterization Graph.
//!
//! [`Platform`] is the crate's main type: a validated combination of
//! topology, heterogeneous PE mix, routing algorithm, link bandwidth and
//! energy model. At construction it precomputes the paper's ACG (Def. 2):
//! for every ordered pair of tiles the deterministic route `r_ij`, its
//! per-bit energy `e(r_ij)` (Eq. 2) and its bandwidth `b(r_ij)`.

use serde::{Deserialize, Serialize};

use crate::catalog::{CycleMix, PeCatalog, PeClass};
use crate::energy::EnergyModel;
use crate::fault::FaultSet;
use crate::routing::{compute_routes_with_faults, LinkId, RoutingSpec};
use crate::tile::{Coord, PeId, TileId};
use crate::topology::{Link, TopologySpec};
use crate::units::{Energy, Time, Volume};
use crate::PlatformError;

/// Default link bandwidth: one 32-bit flit per tick.
const DEFAULT_LINK_BANDWIDTH: f64 = 32.0;

/// A validated heterogeneous NoC platform with a precomputed ACG.
///
/// Construct with [`Platform::builder`]. See the [crate-level
/// documentation](crate) for an end-to-end example.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Platform {
    topology: TopologySpec,
    routing_name: String,
    coords: Vec<Coord>,
    pes: Vec<PeClass>,
    links: Vec<Link>,
    /// `routes[src][dst]` — link ids of the deterministic route.
    routes: Vec<Vec<Vec<LinkId>>>,
    energy: EnergyModel,
    /// Uniform link bandwidth in bits per tick.
    link_bandwidth: f64,
    /// Permanently failed resources (empty on a pristine platform).
    #[serde(default)]
    faults: FaultSet,
}

impl Platform {
    /// Starts building a platform.
    #[must_use]
    pub fn builder() -> PlatformBuilder {
        PlatformBuilder::new()
    }

    /// Number of tiles (== number of PEs).
    #[must_use]
    pub fn tile_count(&self) -> usize {
        self.coords.len()
    }

    /// Number of directed links.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// All tile ids, in order.
    pub fn tiles(&self) -> impl Iterator<Item = TileId> + '_ {
        (0..self.coords.len() as u32).map(TileId::new)
    }

    /// All PE ids, in order.
    pub fn pes(&self) -> impl Iterator<Item = PeId> + '_ {
        (0..self.coords.len() as u32).map(PeId::new)
    }

    /// The PE class hosted on the given tile.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is out of range.
    #[must_use]
    pub fn pe_class(&self, pe: PeId) -> &PeClass {
        &self.pes[pe.index()]
    }

    /// All PE classes, tile order.
    #[must_use]
    pub fn pe_classes(&self) -> &[PeClass] {
        &self.pes
    }

    /// Grid coordinate of a tile.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is out of range.
    #[must_use]
    pub fn coord(&self, tile: TileId) -> Coord {
        self.coords[tile.index()]
    }

    /// All directed links; [`LinkId`] indexes into this slice.
    #[must_use]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The endpoints of a link.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[must_use]
    pub fn link(&self, link: LinkId) -> Link {
        self.links[link.index()]
    }

    /// The deterministic route `src -> dst` as a link sequence. Empty for
    /// `src == dst` (local communication does not enter the network).
    ///
    /// # Panics
    ///
    /// Panics if either tile is out of range.
    #[must_use]
    pub fn route(&self, src: TileId, dst: TileId) -> &[LinkId] {
        &self.routes[src.index()][dst.index()]
    }

    /// Number of link traversals on the route (`n_hops - 1` of Eq. 2).
    #[must_use]
    pub fn hop_links(&self, src: TileId, dst: TileId) -> usize {
        self.route(src, dst).len()
    }

    /// The ACG per-bit energy `e(r_ij)` of Def. 2 (Eq. 2). A local
    /// transfer costs one switch traversal.
    #[must_use]
    pub fn bit_energy(&self, src: TileId, dst: TileId) -> Energy {
        self.energy.bit_energy_for_hops(self.hop_links(src, dst))
    }

    /// Energy of moving `volume` bits from `src` to `dst` —
    /// `v(c_ij) * e(r_ij)` of Eq. 3. Zero-volume (control) dependencies
    /// are free.
    #[must_use]
    pub fn transfer_energy(&self, src: TileId, dst: TileId, volume: Volume) -> Energy {
        if volume.is_zero() {
            return Energy::ZERO;
        }
        self.energy
            .transfer_energy(self.hop_links(src, dst), volume)
    }

    /// The ACG bandwidth `b(r_ij)` in bits per tick. Local transfers are
    /// modeled as infinitely fast (they go through the tile's internal
    /// port, not the network).
    #[must_use]
    pub fn bandwidth(&self, src: TileId, dst: TileId) -> f64 {
        if src == dst {
            f64::INFINITY
        } else {
            self.link_bandwidth
        }
    }

    /// The uniform link bandwidth, in bits per tick.
    #[must_use]
    pub fn link_bandwidth(&self) -> f64 {
        self.link_bandwidth
    }

    /// Time to move `volume` bits from `src` to `dst` once the route is
    /// granted: `ceil(volume / bandwidth)`. Local or zero-volume
    /// transfers take zero time.
    #[must_use]
    pub fn transfer_duration(&self, src: TileId, dst: TileId, volume: Volume) -> Time {
        if src == dst || volume.is_zero() {
            return Time::ZERO;
        }
        let ticks = (volume.as_f64() / self.link_bandwidth).ceil() as u64;
        Time::new(ticks.max(1))
    }

    /// The energy model in force.
    #[must_use]
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// The topology specification the platform was built from.
    #[must_use]
    pub fn topology(&self) -> &TopologySpec {
        &self.topology
    }

    /// Name of the routing algorithm in force.
    #[must_use]
    pub fn routing_name(&self) -> &str {
        &self.routing_name
    }

    /// The permanent faults this platform was built with (empty for a
    /// pristine platform).
    #[must_use]
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// `true` if the tile (PE + router) survived the fault set.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is out of range.
    #[must_use]
    pub fn tile_alive(&self, tile: TileId) -> bool {
        assert!(tile.index() < self.coords.len(), "tile {tile} out of range");
        !self.faults.tile_failed(tile)
    }

    /// `true` if the PE survived the fault set (schedulers must not
    /// place tasks on dead PEs).
    ///
    /// # Panics
    ///
    /// Panics if `pe` is out of range.
    #[must_use]
    pub fn pe_alive(&self, pe: PeId) -> bool {
        self.tile_alive(pe.tile())
    }

    /// All surviving PE ids, in order — the candidate list schedulers
    /// draw from. Equals [`Platform::pes`] on a pristine platform.
    pub fn alive_pes(&self) -> impl Iterator<Item = PeId> + '_ {
        self.pes().filter(|&pe| self.pe_alive(pe))
    }

    /// `true` if the directed link is usable: neither the link itself
    /// nor an endpoint tile failed.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[must_use]
    pub fn link_alive(&self, link: LinkId) -> bool {
        !self.faults.blocks_link(self.link(link))
    }

    /// Validates that a tile id is within range.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownTile`] if out of range.
    pub fn check_tile(&self, tile: TileId) -> Result<(), PlatformError> {
        if tile.index() < self.coords.len() {
            Ok(())
        } else {
            Err(PlatformError::UnknownTile {
                tile,
                tile_count: self.coords.len(),
            })
        }
    }
}

/// Builder for [`Platform`].
///
/// ```
/// use noc_platform::prelude::*;
///
/// # fn main() -> Result<(), PlatformError> {
/// let platform = Platform::builder()
///     .topology(TopologySpec::mesh(2, 2))
///     .routing(RoutingSpec::Xy)
///     .pes(PeCatalog::date04().mix_for(4))
///     .link_bandwidth(64.0)
///     .build()?;
/// assert_eq!(platform.link_bandwidth(), 64.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PlatformBuilder {
    topology: TopologySpec,
    routing: RoutingSpec,
    pes: PeSource,
    energy: EnergyModel,
    link_bandwidth: f64,
    faults: FaultSet,
}

#[derive(Debug, Clone)]
enum PeSource {
    Catalog(PeCatalog),
    Explicit(Vec<PeClass>),
}

impl PlatformBuilder {
    /// Creates a builder with the paper's defaults: 4x4 mesh, XY routing,
    /// the DATE'04 heterogeneous PE mix, default energy model and
    /// bandwidth.
    #[must_use]
    pub fn new() -> Self {
        PlatformBuilder {
            topology: TopologySpec::mesh(4, 4),
            routing: RoutingSpec::Xy,
            pes: PeSource::Catalog(PeCatalog::date04()),
            energy: EnergyModel::date04(),
            link_bandwidth: DEFAULT_LINK_BANDWIDTH,
            faults: FaultSet::new(),
        }
    }

    /// Sets the topology.
    #[must_use]
    pub fn topology(mut self, spec: TopologySpec) -> Self {
        self.topology = spec;
        self
    }

    /// Sets the routing algorithm.
    #[must_use]
    pub fn routing(mut self, spec: RoutingSpec) -> Self {
        self.routing = spec;
        self
    }

    /// Assigns PE classes round-robin from a catalog view.
    #[must_use]
    pub fn pe_mix(mut self, mix: CycleMix<'_>) -> Self {
        self.pes = PeSource::Explicit(mix.materialize(self.topology.tile_count()));
        self
    }

    /// Assigns one explicit PE class per tile (length must equal the tile
    /// count at [`build`](Self::build) time).
    #[must_use]
    pub fn pes(mut self, pes: Vec<PeClass>) -> Self {
        self.pes = PeSource::Explicit(pes);
        self
    }

    /// Sets the energy model.
    #[must_use]
    pub fn energy_model(mut self, model: EnergyModel) -> Self {
        self.energy = model;
        self
    }

    /// Sets the uniform link bandwidth in bits per tick.
    #[must_use]
    pub fn link_bandwidth(mut self, bits_per_tick: f64) -> Self {
        self.link_bandwidth = bits_per_tick;
        self
    }

    /// Sets the permanent fault set. Routes are computed fault-aware
    /// (see [`compute_routes_with_faults`]) and dead PEs are exposed
    /// through [`Platform::alive_pes`] for schedulers to mask.
    #[must_use]
    pub fn faults(mut self, faults: FaultSet) -> Self {
        self.faults = faults;
        self
    }

    /// Validates the configuration and assembles the platform, computing
    /// the full ACG.
    ///
    /// # Errors
    ///
    /// * [`PlatformError::EmptyTopology`] for zero tiles,
    /// * [`PlatformError::PeCountMismatch`] if explicit PEs do not match
    ///   the tile count,
    /// * [`PlatformError::InvalidBandwidth`] for non-positive bandwidth,
    /// * [`PlatformError::InvalidFaultSpec`] if the fault set references
    ///   a resource the topology does not have, or kills every tile,
    /// * routing errors from [`compute_routes_with_faults`]
    ///   ([`PlatformError::IncompatibleRouting`],
    ///   [`PlatformError::Disconnected`], [`PlatformError::InvalidRoute`]).
    pub fn build(self) -> Result<Platform, PlatformError> {
        let tile_count = self.topology.tile_count();
        if tile_count == 0 {
            return Err(PlatformError::EmptyTopology);
        }
        if !(self.link_bandwidth.is_finite() && self.link_bandwidth > 0.0) {
            return Err(PlatformError::InvalidBandwidth(self.link_bandwidth));
        }
        let pes = match self.pes {
            PeSource::Catalog(cat) => cat.mix_for(tile_count),
            PeSource::Explicit(v) => {
                if v.len() != tile_count {
                    return Err(PlatformError::PeCountMismatch {
                        tiles: tile_count,
                        pes: v.len(),
                    });
                }
                v
            }
        };
        let coords = self.topology.coords();
        let links = self.topology.links();
        for &t in self.faults.failed_tiles() {
            if t.index() >= tile_count {
                return Err(PlatformError::UnknownTile {
                    tile: t,
                    tile_count,
                });
            }
        }
        for &l in self.faults.failed_links() {
            if links.binary_search(&l).is_err() {
                return Err(PlatformError::InvalidFaultSpec(format!(
                    "failed link {l} does not exist in the topology"
                )));
            }
        }
        if self.faults.failed_tiles().len() >= tile_count {
            return Err(PlatformError::InvalidFaultSpec(
                "every tile failed: no PE left to schedule on".into(),
            ));
        }
        let routes = compute_routes_with_faults(
            &self.topology,
            &self.routing,
            &coords,
            &links,
            &self.faults,
        )?;
        Ok(Platform {
            routing_name: self.routing.name().to_owned(),
            topology: self.topology,
            coords,
            pes,
            links,
            routes,
            energy: self.energy,
            link_bandwidth: self.link_bandwidth,
            faults: self.faults,
        })
    }
}

impl Default for PlatformBuilder {
    fn default() -> Self {
        PlatformBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh(n: u16) -> Platform {
        Platform::builder()
            .topology(TopologySpec::mesh(n, n))
            .routing(RoutingSpec::Xy)
            .build()
            .expect("mesh builds")
    }

    #[test]
    fn default_builder_builds_4x4() {
        let p = Platform::builder().build().expect("default platform");
        assert_eq!(p.tile_count(), 16);
        assert_eq!(p.routing_name(), "xy");
        assert_eq!(p.link_count(), 2 * (4 * 3 + 4 * 3));
    }

    #[test]
    fn bit_energy_grows_with_manhattan_distance() {
        let p = mesh(4);
        let origin = TileId::new(0);
        let e1 = p.bit_energy(origin, TileId::new(1)); // 1 hop link
        let e6 = p.bit_energy(origin, TileId::new(15)); // 6 hop links
        assert!(e6 > e1);
        // Eq. 2 exact check.
        let m = p.energy_model();
        let expect = m.e_sbit * 7.0 + m.e_lbit * 6.0;
        assert!((e6.as_nj() - expect.as_nj()).abs() < 1e-12);
    }

    #[test]
    fn local_transfer_is_instant_and_link_free() {
        let p = mesh(2);
        let t = TileId::new(3);
        assert_eq!(
            p.transfer_duration(t, t, Volume::from_bits(1_000_000)),
            Time::ZERO
        );
        assert!(p.route(t, t).is_empty());
        assert_eq!(p.bandwidth(t, t), f64::INFINITY);
    }

    #[test]
    fn transfer_duration_is_ceil_of_volume_over_bandwidth() {
        let p = Platform::builder()
            .topology(TopologySpec::mesh(2, 1))
            .link_bandwidth(10.0)
            .build()
            .unwrap();
        let (a, b) = (TileId::new(0), TileId::new(1));
        assert_eq!(
            p.transfer_duration(a, b, Volume::from_bits(100)),
            Time::new(10)
        );
        assert_eq!(
            p.transfer_duration(a, b, Volume::from_bits(101)),
            Time::new(11)
        );
        assert_eq!(
            p.transfer_duration(a, b, Volume::from_bits(1)),
            Time::new(1)
        );
        assert_eq!(p.transfer_duration(a, b, Volume::ZERO), Time::ZERO);
    }

    #[test]
    fn zero_volume_transfer_has_zero_energy() {
        let p = mesh(3);
        assert_eq!(
            p.transfer_energy(TileId::new(0), TileId::new(8), Volume::ZERO),
            Energy::ZERO
        );
    }

    #[test]
    fn explicit_pe_mismatch_is_rejected() {
        let err = Platform::builder()
            .topology(TopologySpec::mesh(2, 2))
            .pes(vec![PeClass::mid_cpu()])
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            PlatformError::PeCountMismatch { tiles: 4, pes: 1 }
        ));
    }

    #[test]
    fn invalid_bandwidth_is_rejected() {
        let err = Platform::builder().link_bandwidth(0.0).build().unwrap_err();
        assert!(matches!(err, PlatformError::InvalidBandwidth(_)));
        let err = Platform::builder()
            .link_bandwidth(f64::NAN)
            .build()
            .unwrap_err();
        assert!(matches!(err, PlatformError::InvalidBandwidth(_)));
    }

    #[test]
    fn check_tile_bounds() {
        let p = mesh(2);
        assert!(p.check_tile(TileId::new(3)).is_ok());
        assert!(p.check_tile(TileId::new(4)).is_err());
    }

    #[test]
    fn honeycomb_platform_builds_with_shortest_path() {
        let p = Platform::builder()
            .topology(TopologySpec::honeycomb(4, 4))
            .routing(RoutingSpec::ShortestPath)
            .build()
            .expect("honeycomb builds");
        assert_eq!(p.tile_count(), 16);
        // All pairs routed.
        for s in p.tiles() {
            for d in p.tiles() {
                if s != d {
                    assert!(!p.route(s, d).is_empty());
                }
            }
        }
    }

    #[test]
    fn faulted_platform_masks_pes_and_reroutes() {
        let faults = FaultSet::parse("tile:5,link:1-2").unwrap();
        let p = Platform::builder()
            .topology(TopologySpec::mesh(4, 4))
            .faults(faults)
            .build()
            .expect("faulted 4x4 stays connected");
        assert!(!p.tile_alive(TileId::new(5)));
        assert!(p.tile_alive(TileId::new(0)));
        assert_eq!(p.alive_pes().count(), 15);
        assert!(!p.pe_alive(PeId::new(5)));
        // No route may use a blocked link.
        for s in p.tiles() {
            for d in p.tiles() {
                for &l in p.route(s, d) {
                    assert!(p.link_alive(l), "route {s}->{d} crosses dead {l}");
                }
            }
        }
        // Dead-tile pairs carry no traffic.
        assert!(p.route(TileId::new(5), TileId::new(0)).is_empty());
        assert!(p.route(TileId::new(0), TileId::new(5)).is_empty());
    }

    #[test]
    fn fault_referencing_missing_resources_is_rejected() {
        let err = Platform::builder()
            .topology(TopologySpec::mesh(2, 2))
            .faults(FaultSet::parse("tile:9").unwrap())
            .build()
            .unwrap_err();
        assert!(matches!(err, PlatformError::UnknownTile { .. }));
        let err = Platform::builder()
            .topology(TopologySpec::mesh(2, 2))
            .faults(FaultSet::parse("link:0-3").unwrap()) // diagonal: no such link
            .build()
            .unwrap_err();
        assert!(matches!(err, PlatformError::InvalidFaultSpec(_)));
    }

    #[test]
    fn killing_every_tile_is_rejected() {
        let err = Platform::builder()
            .topology(TopologySpec::mesh(2, 1))
            .faults(FaultSet::parse("tile:0,tile:1").unwrap())
            .build()
            .unwrap_err();
        assert!(matches!(err, PlatformError::InvalidFaultSpec(_)));
    }

    #[test]
    fn disconnecting_faults_are_a_typed_error() {
        let err = Platform::builder()
            .topology(TopologySpec::mesh(3, 1))
            .faults(FaultSet::parse("tile:1").unwrap())
            .build()
            .unwrap_err();
        assert!(matches!(err, PlatformError::Disconnected { .. }));
    }

    #[test]
    fn faulted_platform_serde_round_trip() {
        let p = Platform::builder()
            .topology(TopologySpec::mesh(3, 3))
            .faults(FaultSet::parse("tile:4").unwrap())
            .build()
            .unwrap();
        let json = serde_json::to_string(&p).expect("serialize");
        let back: Platform = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.faults(), p.faults());
        assert!(!back.tile_alive(TileId::new(4)));
    }

    #[test]
    fn platform_serde_round_trip() {
        let p = mesh(2);
        let json = serde_json::to_string(&p).expect("serialize");
        let back: Platform = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.tile_count(), p.tile_count());
        assert_eq!(
            back.route(TileId::new(0), TileId::new(3)),
            p.route(TileId::new(0), TileId::new(3))
        );
    }

    #[test]
    fn routes_follow_links_consistently() {
        let p = mesh(4);
        for s in p.tiles() {
            for d in p.tiles() {
                let route = p.route(s, d);
                if route.is_empty() {
                    assert_eq!(s, d);
                    continue;
                }
                assert_eq!(p.link(route[0]).src, s);
                assert_eq!(p.link(route[route.len() - 1]).dst, d);
                for w in route.windows(2) {
                    assert_eq!(p.link(w[0]).dst, p.link(w[1]).src);
                }
            }
        }
    }
}

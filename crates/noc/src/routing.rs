//! Deterministic routing algorithms.
//!
//! The paper uses dimension-ordered XY routing on the 2D mesh "for the
//! sake of simplicity" and notes the algorithm works with any
//! *deterministic* routing scheme (Sec. 3.1, Sec. 7). Accordingly this
//! module provides XY and YX dimension-ordered routing for meshes and
//! tori, a deterministic breadth-first shortest-path router for arbitrary
//! topologies (honeycomb, custom), and fully explicit routing tables.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

use crate::fault::FaultSet;
use crate::tile::{Coord, TileId};
use crate::topology::{Link, TopologySpec};
use crate::PlatformError;

/// Identifies a directed link within a platform. Ids are dense indices in
/// `0..link_count`, assigned in the sorted order of
/// [`TopologySpec::links`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct LinkId(u32);

impl LinkId {
    /// Creates a link id from a dense index.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        LinkId(index)
    }

    /// Returns the dense index as a `usize`, for slice indexing.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(&format!("L{}", self.0)) // honours width/alignment flags
    }
}

/// Declarative routing algorithm selection.
///
/// ```
/// use noc_platform::routing::RoutingSpec;
/// assert_eq!(RoutingSpec::Xy.name(), "xy");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
#[non_exhaustive]
pub enum RoutingSpec {
    /// Dimension-ordered: route along X (columns) first, then Y. The
    /// paper's choice. Applicable to meshes and tori.
    #[default]
    Xy,
    /// Dimension-ordered: Y first, then X. Applicable to meshes and tori.
    Yx,
    /// Deterministic breadth-first shortest path (smallest-next-tile tie
    /// break). Applicable to any connected topology.
    ShortestPath,
    /// A fully explicit routing table: for every ordered pair of distinct
    /// tiles, the tile-by-tile path (including both endpoints).
    Table(RoutingTable),
}

impl RoutingSpec {
    /// Short algorithm name for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            RoutingSpec::Xy => "xy",
            RoutingSpec::Yx => "yx",
            RoutingSpec::ShortestPath => "shortest-path",
            RoutingSpec::Table(_) => "table",
        }
    }
}

/// An explicit routing table mapping ordered tile pairs to tile paths.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RoutingTable {
    paths: HashMap<(TileId, TileId), Vec<TileId>>,
}

impl RoutingTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        RoutingTable::default()
    }

    /// Registers the path (both endpoints included) for `src -> dst`.
    pub fn insert(&mut self, src: TileId, dst: TileId, path: Vec<TileId>) {
        self.paths.insert((src, dst), path);
    }

    /// Looks up the path for `src -> dst`.
    #[must_use]
    pub fn get(&self, src: TileId, dst: TileId) -> Option<&[TileId]> {
        self.paths.get(&(src, dst)).map(Vec::as_slice)
    }

    /// Number of registered pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// `true` if no pair is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }
}

/// Computes, for every ordered pair `(src, dst)` of distinct tiles, the
/// route as a sequence of [`LinkId`]s.
///
/// Returns a dense `routes[src][dst]` matrix with empty routes on the
/// diagonal (local communication does not enter the network).
///
/// # Errors
///
/// * [`PlatformError::IncompatibleRouting`] if a dimension-ordered
///   algorithm is requested on a non-grid topology,
/// * [`PlatformError::Disconnected`] if no path exists for some pair,
/// * [`PlatformError::InvalidRoute`] if an explicit table entry is
///   missing or does not follow existing links.
#[allow(clippy::needless_range_loop)] // routes[s][d] is clearest with dual indices
fn compute_routes(
    topology: &TopologySpec,
    routing: &RoutingSpec,
    coords: &[Coord],
    links: &[Link],
) -> Result<Vec<Vec<Vec<LinkId>>>, PlatformError> {
    let n = coords.len();
    let link_index: HashMap<Link, LinkId> = links
        .iter()
        .enumerate()
        .map(|(i, l)| (*l, LinkId::new(i as u32)))
        .collect();

    let tile_path_to_links =
        |src: TileId, dst: TileId, path: &[TileId]| path_to_links(src, dst, path, &link_index);

    let mut routes: Vec<Vec<Vec<LinkId>>> = vec![vec![Vec::new(); n]; n];

    match routing {
        RoutingSpec::Xy | RoutingSpec::Yx => {
            let (cols, rows, wrap) = match topology {
                TopologySpec::Mesh2d { cols, rows } => (*cols, *rows, false),
                TopologySpec::Torus2d { cols, rows } => (*cols, *rows, true),
                other => {
                    return Err(PlatformError::IncompatibleRouting {
                        routing: routing.name(),
                        topology: other.to_string(),
                    })
                }
            };
            let x_first = matches!(routing, RoutingSpec::Xy);
            for s in 0..n {
                for d in 0..n {
                    if s == d {
                        continue;
                    }
                    let src = TileId::new(s as u32);
                    let dst = TileId::new(d as u32);
                    let path =
                        dimension_ordered_path(coords[s], coords[d], cols, rows, wrap, x_first);
                    routes[s][d] = tile_path_to_links(src, dst, &path)?;
                }
            }
        }
        RoutingSpec::ShortestPath => {
            let mut adjacency: Vec<Vec<TileId>> = vec![Vec::new(); n];
            for l in links {
                adjacency[l.src.index()].push(l.dst);
            }
            for adj in &mut adjacency {
                adj.sort();
            }
            for s in 0..n {
                let parents = bfs_parents(TileId::new(s as u32), &adjacency);
                for d in 0..n {
                    if s == d {
                        continue;
                    }
                    let src = TileId::new(s as u32);
                    let dst = TileId::new(d as u32);
                    let path = reconstruct_path(src, dst, &parents)
                        .ok_or(PlatformError::Disconnected { src, dst })?;
                    routes[s][d] = tile_path_to_links(src, dst, &path)?;
                }
            }
        }
        RoutingSpec::Table(table) => {
            for s in 0..n {
                for d in 0..n {
                    if s == d {
                        continue;
                    }
                    let src = TileId::new(s as u32);
                    let dst = TileId::new(d as u32);
                    let path = table
                        .get(src, dst)
                        .ok_or_else(|| PlatformError::InvalidRoute {
                            src,
                            dst,
                            reason: "missing routing table entry".into(),
                        })?;
                    routes[s][d] = tile_path_to_links(src, dst, path)?;
                }
            }
        }
    }
    Ok(routes)
}

/// Converts a tile-by-tile path into link ids, validating endpoints and
/// link existence.
fn path_to_links(
    src: TileId,
    dst: TileId,
    path: &[TileId],
    link_index: &HashMap<Link, LinkId>,
) -> Result<Vec<LinkId>, PlatformError> {
    if path.first() != Some(&src) || path.last() != Some(&dst) {
        return Err(PlatformError::InvalidRoute {
            src,
            dst,
            reason: "path endpoints do not match the pair".into(),
        });
    }
    path.windows(2)
        .map(|w| {
            link_index
                .get(&Link::new(w[0], w[1]))
                .copied()
                .ok_or_else(|| PlatformError::InvalidRoute {
                    src,
                    dst,
                    reason: format!("no link {} -> {}", w[0], w[1]),
                })
        })
        .collect()
}

/// Like `compute_routes`, but detours around the resources listed in
/// `faults`.
///
/// Pairs whose primary route (dimension-ordered path or table entry)
/// survives the faults keep it unchanged. Severed pairs fall back to a
/// per-pair detour computed on the residual (fault-free) graph: on
/// meshes a **west-first turn-model** path is preferred (deadlock-free
/// under wormhole routing), with a plain deterministic shortest path as
/// the last resort when the turn model cannot reach the destination.
/// Pairs involving a failed tile keep an empty route: a dead tile hosts
/// no tasks, so no traffic may originate or terminate there (schedulers
/// mask such PEs; [`crate::Platform::tile_alive`] exposes the mask).
///
/// # Errors
///
/// Everything `compute_routes` returns, plus
/// [`PlatformError::Disconnected`] when two *alive* tiles have no
/// residual path between them.
#[allow(clippy::needless_range_loop)] // routes[s][d] is clearest with dual indices
pub fn compute_routes_with_faults(
    topology: &TopologySpec,
    routing: &RoutingSpec,
    coords: &[Coord],
    links: &[Link],
    faults: &FaultSet,
) -> Result<Vec<Vec<Vec<LinkId>>>, PlatformError> {
    if faults.is_empty() {
        return compute_routes(topology, routing, coords, links);
    }
    let n = coords.len();
    let link_index: HashMap<Link, LinkId> = links
        .iter()
        .enumerate()
        .map(|(i, l)| (*l, LinkId::new(i as u32)))
        .collect();

    // Residual adjacency: only links usable despite the faults.
    let mut adjacency: Vec<Vec<TileId>> = vec![Vec::new(); n];
    for l in links {
        if !faults.blocks_link(*l) {
            adjacency[l.src.index()].push(l.dst);
        }
    }
    for adj in &mut adjacency {
        adj.sort();
    }

    let grid = match topology {
        TopologySpec::Mesh2d { cols, rows } => Some((*cols, *rows, false)),
        TopologySpec::Torus2d { cols, rows } => Some((*cols, *rows, true)),
        _ => None,
    };
    if matches!(routing, RoutingSpec::Xy | RoutingSpec::Yx) && grid.is_none() {
        return Err(PlatformError::IncompatibleRouting {
            routing: routing.name(),
            topology: topology.to_string(),
        });
    }
    let path_alive = |path: &[TileId]| {
        path.windows(2)
            .all(|w| !faults.blocks_link(Link::new(w[0], w[1])))
    };

    let mut routes: Vec<Vec<Vec<LinkId>>> = vec![vec![Vec::new(); n]; n];
    for s in 0..n {
        let src = TileId::new(s as u32);
        if faults.tile_failed(src) {
            continue;
        }
        let parents = bfs_parents(src, &adjacency);
        for d in 0..n {
            if s == d {
                continue;
            }
            let dst = TileId::new(d as u32);
            if faults.tile_failed(dst) {
                continue;
            }
            let primary: Option<Vec<TileId>> = match routing {
                RoutingSpec::Xy | RoutingSpec::Yx => {
                    let (cols, rows, wrap) = grid.expect("grids checked above");
                    let x_first = matches!(routing, RoutingSpec::Xy);
                    Some(dimension_ordered_path(
                        coords[s], coords[d], cols, rows, wrap, x_first,
                    ))
                }
                RoutingSpec::ShortestPath => None,
                RoutingSpec::Table(table) => Some(
                    table
                        .get(src, dst)
                        .ok_or_else(|| PlatformError::InvalidRoute {
                            src,
                            dst,
                            reason: "missing routing table entry".into(),
                        })?
                        .to_vec(),
                ),
            };
            let path = match primary {
                Some(p) if path_alive(&p) => p,
                _ => {
                    let turn_model = match grid {
                        Some((_, _, false)) => west_first_path(src, dst, coords, &adjacency),
                        _ => None,
                    };
                    match turn_model {
                        Some(p) => p,
                        None => reconstruct_path(src, dst, &parents)
                            .ok_or(PlatformError::Disconnected { src, dst })?,
                    }
                }
            };
            routes[s][d] = path_to_links(src, dst, &path, &link_index)?;
        }
    }
    Ok(routes)
}

/// West-first turn-model path on a mesh: every westward hop must precede
/// the first non-westward hop, which keeps the fallback routes
/// deadlock-free under wormhole switching (Glass & Ni). Breadth-first
/// over `(tile, phase)` states with sorted neighbour order, so the
/// result is deterministic and hop-minimal among west-first paths.
/// Returns `None` when no west-first path survives the faults.
fn west_first_path(
    src: TileId,
    dst: TileId,
    coords: &[Coord],
    adjacency: &[Vec<TileId>],
) -> Option<Vec<TileId>> {
    let n = adjacency.len();
    // State: tile * 2 + phase. Phase 0: westward hops still allowed.
    let state = |t: TileId, phase: usize| t.index() * 2 + phase;
    let mut parent: Vec<Option<usize>> = vec![None; 2 * n];
    let mut visited = vec![false; 2 * n];
    let start = state(src, 0);
    visited[start] = true;
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(start);
    let mut goal = None;
    'bfs: while let Some(cur) = queue.pop_front() {
        let (tile, phase) = (TileId::new((cur / 2) as u32), cur % 2);
        for &next in &adjacency[tile.index()] {
            let west = coords[next.index()].x < coords[tile.index()].x;
            let next_phase = if west {
                if phase == 1 {
                    continue; // no west turns after leaving phase 0
                }
                0
            } else {
                1
            };
            let ns = state(next, next_phase);
            if visited[ns] {
                continue;
            }
            visited[ns] = true;
            parent[ns] = Some(cur);
            if next == dst {
                goal = Some(ns);
                break 'bfs; // BFS: first arrival is hop-minimal
            }
            queue.push_back(ns);
        }
    }
    let mut cur = goal?;
    let mut rev = vec![TileId::new((cur / 2) as u32)];
    while let Some(p) = parent[cur] {
        cur = p;
        rev.push(TileId::new((cur / 2) as u32));
    }
    rev.reverse();
    Some(rev)
}

/// Dimension-ordered path on a (possibly wrapping) grid, as tile ids.
fn dimension_ordered_path(
    from: Coord,
    to: Coord,
    cols: u16,
    rows: u16,
    wrap: bool,
    x_first: bool,
) -> Vec<TileId> {
    let id = |x: u16, y: u16| TileId::new(u32::from(y) * u32::from(cols) + u32::from(x));
    let mut path = vec![id(from.x, from.y)];
    let (mut x, mut y) = (from.x, from.y);

    let step_axis = |cur: u16, target: u16, len: u16| -> u16 {
        if cur == target {
            return cur;
        }
        if !wrap {
            return if target > cur { cur + 1 } else { cur - 1 };
        }
        // On a torus take the shorter wrap direction; ties go "up".
        let fwd = (target + len - cur) % len; // steps going +1 mod len
        let bwd = (cur + len - target) % len;
        if fwd <= bwd {
            (cur + 1) % len
        } else {
            (cur + len - 1) % len
        }
    };

    if x_first {
        while x != to.x {
            x = step_axis(x, to.x, cols);
            path.push(id(x, y));
        }
        while y != to.y {
            y = step_axis(y, to.y, rows);
            path.push(id(x, y));
        }
    } else {
        while y != to.y {
            y = step_axis(y, to.y, rows);
            path.push(id(x, y));
        }
        while x != to.x {
            x = step_axis(x, to.x, cols);
            path.push(id(x, y));
        }
    }
    path
}

/// Breadth-first parents with smallest-neighbour tie break (deterministic).
fn bfs_parents(src: TileId, adjacency: &[Vec<TileId>]) -> Vec<Option<TileId>> {
    let n = adjacency.len();
    let mut parents: Vec<Option<TileId>> = vec![None; n];
    let mut visited = vec![false; n];
    visited[src.index()] = true;
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(src);
    while let Some(t) = queue.pop_front() {
        for &next in &adjacency[t.index()] {
            if !visited[next.index()] {
                visited[next.index()] = true;
                parents[next.index()] = Some(t);
                queue.push_back(next);
            }
        }
    }
    parents
}

fn reconstruct_path(src: TileId, dst: TileId, parents: &[Option<TileId>]) -> Option<Vec<TileId>> {
    let mut rev = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = parents[cur.index()]?;
        rev.push(cur);
    }
    rev.reverse();
    Some(rev)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // dual-index matrix checks read best as loops
mod tests {
    use super::*;

    fn mesh_routes(cols: u16, rows: u16, spec: RoutingSpec) -> Vec<Vec<Vec<LinkId>>> {
        let topo = TopologySpec::mesh(cols, rows);
        let coords = topo.coords();
        let links = topo.links();
        compute_routes(&topo, &spec, &coords, &links).expect("routes")
    }

    #[test]
    fn xy_route_length_is_manhattan_distance() {
        let topo = TopologySpec::mesh(4, 4);
        let coords = topo.coords();
        let routes = mesh_routes(4, 4, RoutingSpec::Xy);
        for s in 0..16 {
            for d in 0..16 {
                assert_eq!(
                    routes[s][d].len() as u32,
                    coords[s].manhattan(coords[d]),
                    "pair {s}->{d}"
                );
            }
        }
    }

    #[test]
    fn xy_goes_horizontal_first() {
        // On a 4x4 mesh from tile 0 (0,0) to tile 5 (1,1): XY passes tile 1,
        // YX passes tile 4.
        let topo = TopologySpec::mesh(4, 4);
        let coords = topo.coords();
        let links = topo.links();
        let xy = compute_routes(&topo, &RoutingSpec::Xy, &coords, &links).unwrap();
        let yx = compute_routes(&topo, &RoutingSpec::Yx, &coords, &links).unwrap();
        let first_link = |routes: &Vec<Vec<Vec<LinkId>>>| links[routes[0][5][0].index()];
        assert_eq!(first_link(&xy).dst, TileId::new(1));
        assert_eq!(first_link(&yx).dst, TileId::new(4));
    }

    #[test]
    fn routes_are_empty_on_diagonal() {
        let routes = mesh_routes(3, 3, RoutingSpec::Xy);
        for s in 0..9 {
            assert!(routes[s][s].is_empty());
        }
    }

    #[test]
    fn torus_uses_wraparound_when_shorter() {
        let topo = TopologySpec::torus(4, 1);
        let coords = topo.coords();
        let links = topo.links();
        let routes = compute_routes(&topo, &RoutingSpec::Xy, &coords, &links).unwrap();
        // 0 -> 3 should be one hop via the wrap link, not three hops.
        assert_eq!(routes[0][3].len(), 1);
    }

    #[test]
    fn shortest_path_matches_xy_length_on_mesh() {
        let topo = TopologySpec::mesh(4, 3);
        let coords = topo.coords();
        let links = topo.links();
        let sp = compute_routes(&topo, &RoutingSpec::ShortestPath, &coords, &links).unwrap();
        let xy = compute_routes(&topo, &RoutingSpec::Xy, &coords, &links).unwrap();
        for s in 0..12 {
            for d in 0..12 {
                assert_eq!(sp[s][d].len(), xy[s][d].len(), "pair {s}->{d}");
            }
        }
    }

    #[test]
    fn shortest_path_routes_honeycomb() {
        let topo = TopologySpec::honeycomb(4, 4);
        let coords = topo.coords();
        let links = topo.links();
        let routes = compute_routes(&topo, &RoutingSpec::ShortestPath, &coords, &links)
            .expect("honeycomb should be connected");
        // Honeycomb detours: route length >= Manhattan distance.
        for s in 0..16 {
            for d in 0..16 {
                assert!(routes[s][d].len() as u32 >= coords[s].manhattan(coords[d]));
            }
        }
    }

    #[test]
    fn xy_on_honeycomb_is_rejected() {
        let topo = TopologySpec::honeycomb(4, 4);
        let coords = topo.coords();
        let links = topo.links();
        let err = compute_routes(&topo, &RoutingSpec::Xy, &coords, &links).unwrap_err();
        assert!(matches!(err, PlatformError::IncompatibleRouting { .. }));
    }

    #[test]
    fn table_routing_validates_entries() {
        let topo = TopologySpec::mesh(2, 1);
        let coords = topo.coords();
        let links = topo.links();
        let mut table = RoutingTable::new();
        table.insert(
            TileId::new(0),
            TileId::new(1),
            vec![TileId::new(0), TileId::new(1)],
        );
        // Missing 1 -> 0 entry.
        let err =
            compute_routes(&topo, &RoutingSpec::Table(table.clone()), &coords, &links).unwrap_err();
        assert!(matches!(err, PlatformError::InvalidRoute { .. }));
        table.insert(
            TileId::new(1),
            TileId::new(0),
            vec![TileId::new(1), TileId::new(0)],
        );
        let routes = compute_routes(&topo, &RoutingSpec::Table(table), &coords, &links).unwrap();
        assert_eq!(routes[0][1].len(), 1);
        assert_eq!(routes[1][0].len(), 1);
    }

    #[test]
    fn table_routing_rejects_disconnected_path() {
        let topo = TopologySpec::mesh(3, 1);
        let coords = topo.coords();
        let links = topo.links();
        let mut table = RoutingTable::new();
        // Claims a direct 0 -> 2 link which does not exist.
        table.insert(
            TileId::new(0),
            TileId::new(2),
            vec![TileId::new(0), TileId::new(2)],
        );
        let err = compute_routes(&topo, &RoutingSpec::Table(table), &coords, &links).unwrap_err();
        assert!(matches!(err, PlatformError::InvalidRoute { .. }));
    }

    #[test]
    fn empty_fault_set_reproduces_plain_routes() {
        let topo = TopologySpec::mesh(4, 4);
        let coords = topo.coords();
        let links = topo.links();
        let plain = compute_routes(&topo, &RoutingSpec::Xy, &coords, &links).unwrap();
        let faulted =
            compute_routes_with_faults(&topo, &RoutingSpec::Xy, &coords, &links, &FaultSet::new())
                .unwrap();
        assert_eq!(plain, faulted);
    }

    #[test]
    fn unaffected_pairs_keep_their_xy_route() {
        let topo = TopologySpec::mesh(4, 4);
        let coords = topo.coords();
        let links = topo.links();
        let plain = compute_routes(&topo, &RoutingSpec::Xy, &coords, &links).unwrap();
        // Kill the 0-1 channel: only routes crossing it may change.
        let faults = FaultSet::parse("link:0-1").unwrap();
        let faulted =
            compute_routes_with_faults(&topo, &RoutingSpec::Xy, &coords, &links, &faults).unwrap();
        let crosses = |route: &[LinkId]| {
            route.iter().any(|l| {
                let link = links[l.index()];
                faults.blocks_link(link)
            })
        };
        for s in 0..16 {
            for d in 0..16 {
                if !crosses(&plain[s][d]) {
                    assert_eq!(plain[s][d], faulted[s][d], "pair {s}->{d} must not change");
                }
                assert!(!crosses(&faulted[s][d]), "pair {s}->{d} uses a dead link");
            }
        }
    }

    #[test]
    fn severed_pair_detours_around_dead_link() {
        let topo = TopologySpec::mesh(4, 4);
        let coords = topo.coords();
        let links = topo.links();
        let faults = FaultSet::parse("link:0-1").unwrap();
        let routes =
            compute_routes_with_faults(&topo, &RoutingSpec::Xy, &coords, &links, &faults).unwrap();
        // 0 -> 1 must still be reachable, now via a detour (> 1 hop).
        assert!(routes[0][1].len() > 1);
        let first = links[routes[0][1][0].index()];
        assert_eq!(first.src, TileId::new(0));
    }

    #[test]
    fn dead_tile_pairs_have_empty_routes() {
        let topo = TopologySpec::mesh(3, 3);
        let coords = topo.coords();
        let links = topo.links();
        let faults = FaultSet::parse("tile:4").unwrap(); // mesh centre
        let routes =
            compute_routes_with_faults(&topo, &RoutingSpec::Xy, &coords, &links, &faults).unwrap();
        for d in 0..9 {
            assert!(routes[4][d].is_empty());
            assert!(routes[d][4].is_empty());
        }
        // Alive pairs previously routed through the centre detour around it.
        assert!(!routes[3][5].is_empty());
        for l in &routes[3][5] {
            let link = links[l.index()];
            assert_ne!(link.src, TileId::new(4));
            assert_ne!(link.dst, TileId::new(4));
        }
    }

    #[test]
    fn disconnected_alive_pair_is_a_typed_error() {
        // 3x1 line: killing the middle tile disconnects 0 from 2.
        let topo = TopologySpec::mesh(3, 1);
        let coords = topo.coords();
        let links = topo.links();
        let faults = FaultSet::parse("tile:1").unwrap();
        let err = compute_routes_with_faults(&topo, &RoutingSpec::Xy, &coords, &links, &faults)
            .unwrap_err();
        assert!(matches!(err, PlatformError::Disconnected { .. }));
    }

    #[test]
    fn fault_detours_are_deterministic() {
        let topo = TopologySpec::mesh(4, 4);
        let coords = topo.coords();
        let links = topo.links();
        let faults = FaultSet::parse("tile:5,link:2-6").unwrap();
        let a =
            compute_routes_with_faults(&topo, &RoutingSpec::Xy, &coords, &links, &faults).unwrap();
        let b =
            compute_routes_with_faults(&topo, &RoutingSpec::Xy, &coords, &links, &faults).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn west_first_detour_keeps_west_hops_first() {
        // Kill 1-2 on the top row of a 4x4 mesh: the XY route 1 -> 3 is
        // severed and must detour; whatever path is chosen, all westward
        // hops (x decreasing) must precede the first non-westward hop.
        let topo = TopologySpec::mesh(4, 4);
        let coords = topo.coords();
        let links = topo.links();
        let faults = FaultSet::parse("link:1-2").unwrap();
        let routes =
            compute_routes_with_faults(&topo, &RoutingSpec::Xy, &coords, &links, &faults).unwrap();
        let route = &routes[1][3];
        assert!(route.len() > 2, "detour expected, got {route:?}");
        let mut seen_non_west = false;
        for l in route {
            let link = links[l.index()];
            let west = coords[link.dst.index()].x < coords[link.src.index()].x;
            if west {
                assert!(!seen_non_west, "westward hop after a non-west hop");
            } else {
                seen_non_west = true;
            }
        }
    }

    #[test]
    fn bfs_is_deterministic() {
        let topo = TopologySpec::mesh(4, 4);
        let coords = topo.coords();
        let links = topo.links();
        let a = compute_routes(&topo, &RoutingSpec::ShortestPath, &coords, &links).unwrap();
        let b = compute_routes(&topo, &RoutingSpec::ShortestPath, &coords, &links).unwrap();
        assert_eq!(a, b);
    }
}

//! Mesh topology, coordinates, routing, and engine placement.
//!
//! PANIC's logical switch addresses engines by [`EngineId`]; the
//! topology maps those logical addresses onto physical tiles. Keeping
//! the mapping explicit (a [`Placement`]) lets experiments vary where
//! engines sit — one of the paper's §6 open questions ("How should
//! different engines be placed in this topology?") — without touching
//! the routing or engine code.

use packet::EngineId;
use std::collections::HashMap;
use std::fmt;

/// A tile coordinate in the 2D mesh: `x` is the column, `y` the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Coord {
    /// Column, `0..width`.
    pub x: u8,
    /// Row, `0..height`.
    pub y: u8,
}

impl Coord {
    /// Builds a coordinate.
    #[must_use]
    pub const fn new(x: u8, y: u8) -> Coord {
        Coord { x, y }
    }

    /// Manhattan distance — the hop count under XY routing.
    #[must_use]
    pub fn distance(self, other: Coord) -> u32 {
        let dx = (i32::from(self.x) - i32::from(other.x)).unsigned_abs();
        let dy = (i32::from(self.y) - i32::from(other.y)).unsigned_abs();
        dx + dy
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// A `width × height` 2D mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    width: u8,
    height: u8,
}

impl Topology {
    /// Builds a mesh.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn mesh(width: u8, height: u8) -> Topology {
        assert!(width > 0 && height > 0, "degenerate mesh");
        Topology { width, height }
    }

    /// The paper's two reference topologies (Table 3).
    #[must_use]
    pub fn mesh6x6() -> Topology {
        Topology::mesh(6, 6)
    }

    /// 8×8 mesh, the larger Table 3 configuration.
    #[must_use]
    pub fn mesh8x8() -> Topology {
        Topology::mesh(8, 8)
    }

    /// Mesh width (columns).
    #[must_use]
    pub fn width(self) -> u8 {
        self.width
    }

    /// Number of tiles.
    #[must_use]
    pub fn nodes(self) -> usize {
        usize::from(self.width) * usize::from(self.height)
    }

    /// True if `c` is inside the mesh.
    #[must_use]
    pub fn contains(self, c: Coord) -> bool {
        c.x < self.width && c.y < self.height
    }

    /// Linear index of a coordinate (row-major).
    ///
    /// # Panics
    /// Panics if the coordinate is outside the mesh.
    #[must_use]
    pub fn index(self, c: Coord) -> usize {
        assert!(self.contains(c), "{c} outside {self}");
        usize::from(c.y) * usize::from(self.width) + usize::from(c.x)
    }

    /// Coordinate of a linear index.
    ///
    /// # Panics
    /// Panics if the index is out of range.
    #[must_use]
    pub fn coord(self, index: usize) -> Coord {
        assert!(index < self.nodes(), "index {index} out of range");
        Coord {
            x: (index % usize::from(self.width)) as u8,
            y: (index / usize::from(self.width)) as u8,
        }
    }

    /// All coordinates in row-major order.
    pub fn coords(self) -> impl Iterator<Item = Coord> {
        let w = self.width;
        let h = self.height;
        (0..h).flat_map(move |y| (0..w).map(move |x| Coord { x, y }))
    }

    /// The neighbor of `c` in direction `dir`, if it exists (mesh edges
    /// have no wraparound — this is a mesh, not a torus).
    #[must_use]
    pub fn neighbor(self, c: Coord, dir: Direction) -> Option<Coord> {
        let (x, y) = (i32::from(c.x), i32::from(c.y));
        let (nx, ny) = match dir {
            Direction::North => (x, y - 1),
            Direction::South => (x, y + 1),
            Direction::East => (x + 1, y),
            Direction::West => (x - 1, y),
        };
        if nx < 0 || ny < 0 || nx >= i32::from(self.width) || ny >= i32::from(self.height) {
            None
        } else {
            Some(Coord {
                x: nx as u8,
                y: ny as u8,
            })
        }
    }

    /// XY dimension-ordered routing: the direction of the next hop from
    /// `from` toward `to`, or `None` when already there. Routing X first
    /// then Y is deadlock-free on a mesh (no turn from Y back into X
    /// can close a cycle).
    #[must_use]
    pub fn route_xy(self, from: Coord, to: Coord) -> Option<Direction> {
        if from.x < to.x {
            Some(Direction::East)
        } else if from.x > to.x {
            Some(Direction::West)
        } else if from.y < to.y {
            Some(Direction::South)
        } else if from.y > to.y {
            Some(Direction::North)
        } else {
            None
        }
    }

    /// Directed channels in the mesh (each bidirectional link counts
    /// twice): `2 · [h·(w−1) + w·(h−1)]`.
    #[must_use]
    pub fn directed_channels(self) -> u64 {
        let w = u64::from(self.width);
        let h = u64::from(self.height);
        2 * (h * (w - 1) + w * (h - 1))
    }

    /// Directed channels crossing the vertical bisection: `2·height ·
    /// ceil(width is even ? ... )` — for the even-width meshes the paper
    /// uses this is `2·height` links each way ⇒ `2·h` directed channels
    /// per direction pair, i.e. `2·h` in total each direction = `2·h`
    /// channels counted both ways.
    ///
    /// Concretely: cutting a 6×6 mesh down the middle severs 6 links;
    /// each carries traffic both ways, so 12 directed channels — which
    /// is how Table 3 reaches 384 Gbps at 32 Gbps/channel.
    #[must_use]
    pub fn bisection_directed_channels(self) -> u64 {
        2 * u64::from(self.height.min(self.width))
    }

    /// Tiles on the mesh perimeter — where the paper places engines
    /// with external interfaces (Ethernet ports, DMA/PCIe).
    pub fn edge_coords(self) -> impl Iterator<Item = Coord> {
        let t = self;
        t.coords()
            .filter(move |c| c.x == 0 || c.y == 0 || c.x == t.width - 1 || c.y == t.height - 1)
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{} mesh", self.width, self.height)
    }
}

/// The four mesh directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Toward row 0.
    North,
    /// Toward the last row.
    South,
    /// Toward the last column.
    East,
    /// Toward column 0.
    West,
}

impl Direction {
    /// All four directions.
    pub const ALL: [Direction; 4] = [
        Direction::North,
        Direction::South,
        Direction::East,
        Direction::West,
    ];

    /// The opposite direction (the port a neighbor receives on).
    #[must_use]
    pub fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::South => Direction::North,
            Direction::East => Direction::West,
            Direction::West => Direction::East,
        }
    }
}

/// Maps logical engine addresses to tiles (and back).
///
/// The inverse map is what ejection uses: a tile hosts exactly one
/// engine. Multiple engines per tile are deliberately not supported —
/// in PANIC every engine *is* a tile with its own router (Figure 3c).
#[derive(Debug, Clone, Default)]
pub struct Placement {
    to_coord: HashMap<EngineId, Coord>,
    to_engine: HashMap<Coord, EngineId>,
}

impl Placement {
    /// An empty placement.
    #[must_use]
    pub fn new() -> Placement {
        Placement::default()
    }

    /// Places `engine` at `tile`.
    ///
    /// # Panics
    /// Panics if the engine is already placed or the tile is occupied —
    /// silent double-placement would corrupt routing.
    pub fn place(&mut self, engine: EngineId, tile: Coord) {
        assert!(
            !self.to_coord.contains_key(&engine),
            "{engine} placed twice"
        );
        assert!(
            !self.to_engine.contains_key(&tile),
            "tile {tile} already occupied"
        );
        self.to_coord.insert(engine, tile);
        self.to_engine.insert(tile, engine);
    }

    /// Tile hosting `engine`.
    #[must_use]
    pub fn coord_of(&self, engine: EngineId) -> Option<Coord> {
        self.to_coord.get(&engine).copied()
    }

    /// Engine hosted at `tile`.
    #[must_use]
    pub fn engine_at(&self, tile: Coord) -> Option<EngineId> {
        self.to_engine.get(&tile).copied()
    }

    /// Number of placed engines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.to_coord.len()
    }

    /// True if nothing is placed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.to_coord.is_empty()
    }

    /// Places engines `0..topology.nodes()` in row-major order — the
    /// default placement used when an experiment doesn't care.
    #[must_use]
    pub fn row_major(topology: Topology) -> Placement {
        let mut p = Placement::new();
        for (i, c) in topology.coords().enumerate() {
            p.place(EngineId(i as u16), c);
        }
        p
    }

    /// Iterates all `(engine, coord)` pairs in engine-id order.
    pub fn iter(&self) -> impl Iterator<Item = (EngineId, Coord)> + '_ {
        let mut pairs: Vec<(EngineId, Coord)> =
            self.to_coord.iter().map(|(&e, &c)| (e, c)).collect();
        pairs.sort_by_key(|&(e, _)| e);
        pairs.into_iter()
    }
}

/// Dense routing caches derived from a finished [`Placement`]: engine →
/// coordinate and engine → tile index as direct array loads. Routers
/// resolve a destination once per head flit per hop, and the hash-map
/// [`Placement`] was the single hottest lookup in the saturated tick
/// loop — the LUT replaces it on every per-flit path (see
/// `docs/PERF.md`). The `Placement` remains the mutable build-time
/// source of truth; the LUT is a frozen snapshot.
#[derive(Debug, Clone)]
pub struct RouteLut {
    /// `coords[engine.0]` — coordinate of the engine's tile.
    coords: Vec<Option<Coord>>,
    /// `tiles[engine.0]` — row-major tile index, `u32::MAX` if absent.
    tiles: Vec<u32>,
}

impl RouteLut {
    /// Snapshots `placement` over `topology` into dense tables.
    #[must_use]
    pub fn build(placement: &Placement, topology: Topology) -> RouteLut {
        let max_id = placement
            .iter()
            .map(|(e, _)| usize::from(e.0) + 1)
            .max()
            .unwrap_or(0);
        let mut coords = vec![None; max_id];
        let mut tiles = vec![u32::MAX; max_id];
        for (e, c) in placement.iter() {
            coords[usize::from(e.0)] = Some(c);
            tiles[usize::from(e.0)] = topology.index(c) as u32;
        }
        RouteLut { coords, tiles }
    }

    /// Tile coordinate of `engine`, if placed.
    #[inline]
    #[must_use]
    pub fn coord_of(&self, engine: EngineId) -> Option<Coord> {
        self.coords.get(usize::from(engine.0)).copied().flatten()
    }

    /// Row-major tile index of `engine`, if placed.
    #[inline]
    #[must_use]
    pub fn tile_of(&self, engine: EngineId) -> Option<usize> {
        match self.tiles.get(usize::from(engine.0)) {
            Some(&t) if t != u32::MAX => Some(t as usize),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_distance_is_manhattan() {
        assert_eq!(Coord::new(0, 0).distance(Coord::new(3, 4)), 7);
        assert_eq!(Coord::new(5, 5).distance(Coord::new(5, 5)), 0);
        assert_eq!(Coord::new(2, 1).distance(Coord::new(0, 3)), 4);
    }

    #[test]
    fn index_coord_roundtrip() {
        let t = Topology::mesh6x6();
        for i in 0..t.nodes() {
            assert_eq!(t.index(t.coord(i)), i);
        }
        assert_eq!(t.index(Coord::new(0, 0)), 0);
        assert_eq!(t.index(Coord::new(5, 0)), 5);
        assert_eq!(t.index(Coord::new(0, 1)), 6);
    }

    #[test]
    fn neighbors_respect_edges() {
        let t = Topology::mesh(3, 3);
        let corner = Coord::new(0, 0);
        assert_eq!(t.neighbor(corner, Direction::North), None);
        assert_eq!(t.neighbor(corner, Direction::West), None);
        assert_eq!(t.neighbor(corner, Direction::East), Some(Coord::new(1, 0)));
        assert_eq!(t.neighbor(corner, Direction::South), Some(Coord::new(0, 1)));
        let mid = Coord::new(1, 1);
        for d in Direction::ALL {
            assert!(t.neighbor(mid, d).is_some());
        }
    }

    #[test]
    fn xy_routing_goes_x_first_and_terminates() {
        let t = Topology::mesh8x8();
        let from = Coord::new(1, 6);
        let to = Coord::new(5, 2);
        assert_eq!(t.route_xy(from, to), Some(Direction::East));
        // Walk the route to completion; it must take exactly
        // distance(from, to) hops.
        let mut at = from;
        let mut hops = 0;
        while let Some(dir) = t.route_xy(at, to) {
            at = t.neighbor(at, dir).expect("route leads inside the mesh");
            hops += 1;
            assert!(hops <= 64, "routing loop");
        }
        assert_eq!(at, to);
        assert_eq!(hops, from.distance(to));
    }

    #[test]
    fn xy_routing_y_only_when_column_matches() {
        let t = Topology::mesh6x6();
        assert_eq!(
            t.route_xy(Coord::new(2, 5), Coord::new(2, 0)),
            Some(Direction::North)
        );
        assert_eq!(t.route_xy(Coord::new(2, 2), Coord::new(2, 2)), None);
    }

    #[test]
    fn channel_counts_match_paper_topologies() {
        // 6x6: 2*(6*5 + 6*5) = 120 directed channels; bisection 12.
        let t6 = Topology::mesh6x6();
        assert_eq!(t6.directed_channels(), 120);
        assert_eq!(t6.bisection_directed_channels(), 12);
        // 8x8: 2*(8*7 + 8*7) = 224; bisection 16.
        let t8 = Topology::mesh8x8();
        assert_eq!(t8.directed_channels(), 224);
        assert_eq!(t8.bisection_directed_channels(), 16);
    }

    #[test]
    fn edge_coords_are_the_perimeter() {
        let t = Topology::mesh(4, 4);
        let edges: Vec<Coord> = t.edge_coords().collect();
        assert_eq!(edges.len(), 12); // 4*4 - 2*2 interior
        assert!(edges
            .iter()
            .all(|c| c.x == 0 || c.y == 0 || c.x == 3 || c.y == 3));
    }

    #[test]
    fn direction_opposites() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
        }
        assert_eq!(Direction::North.opposite(), Direction::South);
        assert_eq!(Direction::East.opposite(), Direction::West);
    }

    #[test]
    fn placement_bijection() {
        let t = Topology::mesh(2, 2);
        let p = Placement::row_major(t);
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
        for i in 0..4u16 {
            let c = p.coord_of(EngineId(i)).unwrap();
            assert_eq!(p.engine_at(c), Some(EngineId(i)));
        }
        assert_eq!(p.coord_of(EngineId(99)), None);
        let pairs: Vec<_> = p.iter().collect();
        assert_eq!(pairs[0], (EngineId(0), Coord::new(0, 0)));
        assert_eq!(pairs[3], (EngineId(3), Coord::new(1, 1)));
    }

    #[test]
    #[should_panic(expected = "placed twice")]
    fn double_place_engine_panics() {
        let mut p = Placement::new();
        p.place(EngineId(0), Coord::new(0, 0));
        p.place(EngineId(0), Coord::new(1, 0));
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_place_tile_panics() {
        let mut p = Placement::new();
        p.place(EngineId(0), Coord::new(0, 0));
        p.place(EngineId(1), Coord::new(0, 0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Coord::new(1, 2).to_string(), "(1,2)");
        assert_eq!(Topology::mesh6x6().to_string(), "6x6 mesh");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// XY routing always reaches the destination in exactly the
        /// Manhattan distance, for any mesh and any pair of tiles.
        #[test]
        fn xy_routing_terminates_exactly(
            w in 1u8..12, h in 1u8..12,
            a in 0usize..144, b in 0usize..144,
        ) {
            let t = Topology::mesh(w, h);
            let from = t.coord(a % t.nodes());
            let to = t.coord(b % t.nodes());
            let mut at = from;
            let mut hops = 0u32;
            while let Some(dir) = t.route_xy(at, to) {
                at = t.neighbor(at, dir).expect("route stays in mesh");
                hops += 1;
                prop_assert!(hops <= 144, "routing loop");
            }
            prop_assert_eq!(at, to);
            prop_assert_eq!(hops, from.distance(to));
        }

        /// Neighbor relations are symmetric: if B is A's neighbor in
        /// direction d, then A is B's neighbor in d.opposite().
        #[test]
        fn neighbors_are_symmetric(w in 1u8..12, h in 1u8..12, idx in 0usize..144) {
            let t = Topology::mesh(w, h);
            let c = t.coord(idx % t.nodes());
            for d in Direction::ALL {
                if let Some(n) = t.neighbor(c, d) {
                    prop_assert_eq!(t.neighbor(n, d.opposite()), Some(c));
                }
            }
        }

        /// index/coord are inverse bijections for every mesh size.
        #[test]
        fn index_coord_bijection(w in 1u8..12, h in 1u8..12) {
            let t = Topology::mesh(w, h);
            for i in 0..t.nodes() {
                prop_assert_eq!(t.index(t.coord(i)), i);
            }
            let mut seen: Vec<usize> = t.coords().map(|c| t.index(c)).collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..t.nodes()).collect::<Vec<_>>());
        }
    }
}

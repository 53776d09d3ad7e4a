//! 3D torus topology: coordinates, links, and dimension-ordered routing.
//!
//! The BG/P point-to-point network is a 3D torus with six links per node
//! (one per direction per dimension) and deterministic dimension-ordered
//! routing (DOR): a packet first travels in X to the destination X
//! coordinate (taking the shorter way around the ring), then Y, then Z.
//!
//! Links are identified by a dense integer id so the flow simulator can
//! store per-link state in flat arrays.

/// Coordinates of a node in the torus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeCoord {
    pub x: u16,
    pub y: u16,
    pub z: u16,
}

impl NodeCoord {
    pub fn new(x: u16, y: u16, z: u16) -> Self {
        NodeCoord { x, y, z }
    }
}

/// One of the six torus directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    XPlus,
    XMinus,
    YPlus,
    YMinus,
    ZPlus,
    ZMinus,
}

impl Direction {
    /// All six directions in a fixed order matching link-id layout.
    pub const ALL: [Direction; 6] = [
        Direction::XPlus,
        Direction::XMinus,
        Direction::YPlus,
        Direction::YMinus,
        Direction::ZPlus,
        Direction::ZMinus,
    ];

    fn index(self) -> usize {
        match self {
            Direction::XPlus => 0,
            Direction::XMinus => 1,
            Direction::YPlus => 2,
            Direction::YMinus => 3,
            Direction::ZPlus => 4,
            Direction::ZMinus => 5,
        }
    }
}

/// A 3D torus of `dims = (nx, ny, nz)` nodes.
///
/// Node ids are dense in `0..num_nodes()`, laid out x-fastest. Each node
/// owns six outgoing directed links; link ids are dense in
/// `0..num_links()`.
///
/// ```
/// use pvr_bgp::Torus;
///
/// // An 8x8x8 partition (512 nodes, BG/P half-rack).
/// let t = Torus::near_cubic(512);
/// assert_eq!(t.num_nodes(), 512);
///
/// // Dimension-ordered routing takes the short way around each ring:
/// // node 0 to node 7 along x wraps backward in one hop.
/// let route = t.route(0, 7);
/// assert_eq!(route.len(), 1);
/// assert_eq!(t.hops(t.coord(0), t.coord(7)), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Torus {
    nx: u16,
    ny: u16,
    nz: u16,
}

impl Torus {
    /// Create a torus with the given dimensions. Panics if any dimension
    /// is zero.
    pub fn new(nx: u16, ny: u16, nz: u16) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "torus dims must be nonzero");
        Torus { nx, ny, nz }
    }

    /// Choose a near-cubic torus shape for `nodes` nodes, the way BG/P
    /// partitions are allocated (powers of two per dimension).
    ///
    /// Panics if `nodes` is not a power of two.
    pub fn near_cubic(nodes: usize) -> Self {
        assert!(
            nodes.is_power_of_two(),
            "partition size must be a power of two"
        );
        let log = nodes.trailing_zeros();
        // Split the exponent as evenly as possible across x, y, z.
        let ex = log.div_ceil(3);
        let ey = (log - ex).div_ceil(2);
        let ez = log - ex - ey;
        Torus::new(1 << ex, 1 << ey, 1 << ez)
    }

    pub fn dims(&self) -> (u16, u16, u16) {
        (self.nx, self.ny, self.nz)
    }

    pub fn num_nodes(&self) -> usize {
        self.nx as usize * self.ny as usize * self.nz as usize
    }

    /// Six directed links per node.
    pub fn num_links(&self) -> usize {
        self.num_nodes() * 6
    }

    /// Dense node id for a coordinate (x fastest).
    pub fn node_id(&self, c: NodeCoord) -> usize {
        debug_assert!(c.x < self.nx && c.y < self.ny && c.z < self.nz);
        (c.z as usize * self.ny as usize + c.y as usize) * self.nx as usize + c.x as usize
    }

    /// Coordinate for a dense node id.
    pub fn coord(&self, id: usize) -> NodeCoord {
        debug_assert!(id < self.num_nodes());
        let x = (id % self.nx as usize) as u16;
        let y = ((id / self.nx as usize) % self.ny as usize) as u16;
        let z = (id / (self.nx as usize * self.ny as usize)) as u16;
        NodeCoord { x, y, z }
    }

    /// Dense id of the directed link leaving `node` in `dir`.
    pub fn link_id(&self, node: usize, dir: Direction) -> u32 {
        (node * 6 + dir.index()) as u32
    }

    /// The neighbouring node reached by following `dir` from `c`
    /// (with wraparound).
    pub fn neighbor(&self, c: NodeCoord, dir: Direction) -> NodeCoord {
        let step = |v: u16, n: u16, up: bool| -> u16 {
            if up {
                if v + 1 == n {
                    0
                } else {
                    v + 1
                }
            } else if v == 0 {
                n - 1
            } else {
                v - 1
            }
        };
        match dir {
            Direction::XPlus => NodeCoord::new(step(c.x, self.nx, true), c.y, c.z),
            Direction::XMinus => NodeCoord::new(step(c.x, self.nx, false), c.y, c.z),
            Direction::YPlus => NodeCoord::new(c.x, step(c.y, self.ny, true), c.z),
            Direction::YMinus => NodeCoord::new(c.x, step(c.y, self.ny, false), c.z),
            Direction::ZPlus => NodeCoord::new(c.x, c.y, step(c.z, self.nz, true)),
            Direction::ZMinus => NodeCoord::new(c.x, c.y, step(c.z, self.nz, false)),
        }
    }

    /// Hop distance along one ring dimension, taking the shorter way.
    fn ring_hops(from: u16, to: u16, n: u16) -> (u16, bool) {
        // Returns (hops, plus_direction).
        let fwd = (to + n - from) % n;
        let bwd = (from + n - to) % n;
        if fwd <= bwd {
            (fwd, true)
        } else {
            (bwd, false)
        }
    }

    /// Minimal hop count between two nodes.
    pub fn hops(&self, a: NodeCoord, b: NodeCoord) -> usize {
        let (hx, _) = Self::ring_hops(a.x, b.x, self.nx);
        let (hy, _) = Self::ring_hops(a.y, b.y, self.ny);
        let (hz, _) = Self::ring_hops(a.z, b.z, self.nz);
        hx as usize + hy as usize + hz as usize
    }

    /// The dimension-ordered route from `src` to `dst` as a sequence of
    /// directed link ids. Empty when `src == dst`.
    pub fn route(&self, src: usize, dst: usize) -> Vec<u32> {
        let mut links = Vec::new();
        self.route_into(src, dst, &mut links);
        links
    }

    /// Like [`Torus::route`] but appending into a caller-provided buffer,
    /// for allocation-free use in the flow simulator's hot path.
    pub fn route_into(&self, src: usize, dst: usize, links: &mut Vec<u32>) {
        let mut cur = self.coord(src);
        let dstc = self.coord(dst);
        // X, then Y, then Z — classic DOR.
        let plan = [
            (cur.x, dstc.x, self.nx, Direction::XPlus, Direction::XMinus),
            (cur.y, dstc.y, self.ny, Direction::YPlus, Direction::YMinus),
            (cur.z, dstc.z, self.nz, Direction::ZPlus, Direction::ZMinus),
        ];
        for &(from, to, n, dplus, dminus) in &plan {
            let (hops, plus) = Self::ring_hops(from, to, n);
            let dir = if plus { dplus } else { dminus };
            for _ in 0..hops {
                links.push(self.link_id(self.node_id(cur), dir));
                cur = self.neighbor(cur, dir);
            }
        }
        debug_assert_eq!(cur, dstc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        let t = Torus::new(4, 3, 5);
        for id in 0..t.num_nodes() {
            assert_eq!(t.node_id(t.coord(id)), id);
        }
    }

    #[test]
    fn near_cubic_shapes() {
        let t = Torus::near_cubic(64);
        assert_eq!(t.num_nodes(), 64);
        let (x, y, z) = t.dims();
        assert_eq!(x as usize * y as usize * z as usize, 64);
        // Near-cubic: no dimension more than 2x another.
        assert!(x <= 2 * z && x <= 2 * y);

        let t = Torus::near_cubic(8192);
        let (x, y, z) = t.dims();
        assert_eq!(x as usize * y as usize * z as usize, 8192);
        assert!(x / z <= 2);
    }

    #[test]
    fn wraparound_takes_shorter_way() {
        let t = Torus::new(8, 8, 8);
        // 0 -> 7 in x should be one hop (wrap), not seven.
        let a = NodeCoord::new(0, 0, 0);
        let b = NodeCoord::new(7, 0, 0);
        assert_eq!(t.hops(a, b), 1);
        let route = t.route(t.node_id(a), t.node_id(b));
        assert_eq!(route.len(), 1);
        assert_eq!(route[0], t.link_id(t.node_id(a), Direction::XMinus));
    }

    #[test]
    fn route_length_matches_hops() {
        let t = Torus::new(8, 4, 4);
        for (a, b) in [(0, 17), (5, 120), (3, 3), (127, 0), (64, 65)] {
            let r = t.route(a, b);
            assert_eq!(r.len(), t.hops(t.coord(a), t.coord(b)));
        }
    }

    #[test]
    fn route_is_dimension_ordered() {
        let t = Torus::new(4, 4, 4);
        let r = t.route(
            t.node_id(NodeCoord::new(0, 0, 0)),
            t.node_id(NodeCoord::new(1, 1, 1)),
        );
        assert_eq!(r.len(), 3);
        // First link leaves node (0,0,0) in +x, second leaves (1,0,0) in +y.
        assert_eq!(
            r[0],
            t.link_id(t.node_id(NodeCoord::new(0, 0, 0)), Direction::XPlus)
        );
        assert_eq!(
            r[1],
            t.link_id(t.node_id(NodeCoord::new(1, 0, 0)), Direction::YPlus)
        );
        assert_eq!(
            r[2],
            t.link_id(t.node_id(NodeCoord::new(1, 1, 0)), Direction::ZPlus)
        );
    }

    #[test]
    fn neighbor_is_inverse() {
        let t = Torus::new(5, 6, 7);
        let c = NodeCoord::new(4, 0, 3);
        for dir in Direction::ALL {
            let n = t.neighbor(c, dir);
            let back = match dir {
                Direction::XPlus => Direction::XMinus,
                Direction::XMinus => Direction::XPlus,
                Direction::YPlus => Direction::YMinus,
                Direction::YMinus => Direction::YPlus,
                Direction::ZPlus => Direction::ZMinus,
                Direction::ZMinus => Direction::ZPlus,
            };
            assert_eq!(t.neighbor(n, back), c);
        }
    }
}

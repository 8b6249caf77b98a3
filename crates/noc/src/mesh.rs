//! Mesh topology and X-Y routing distances.

/// A tile coordinate in the mesh (column `x`, row `y`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Coord {
    /// Column, `0..width`.
    pub x: u16,
    /// Row, `0..height`.
    pub y: u16,
}

impl Coord {
    /// Creates a coordinate.
    pub const fn new(x: u16, y: u16) -> Self {
        Self { x, y }
    }
}

impl std::fmt::Display for Coord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// A rectangular mesh of tiles with deterministic X-Y (dimension-ordered)
/// routing. Hop counts are Manhattan distances, which X-Y routing realizes
/// exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh {
    width: u16,
    height: u16,
}

impl Mesh {
    /// Creates a `width × height` mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "mesh must be non-empty");
        Self { width, height }
    }

    /// Mesh width (columns).
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Mesh height (rows).
    pub fn height(&self) -> u16 {
        self.height
    }

    /// Number of tiles.
    pub fn tiles(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Whether `c` is inside the mesh.
    pub fn contains(&self, c: Coord) -> bool {
        c.x < self.width && c.y < self.height
    }

    /// X-Y routing hop count between two tiles (Manhattan distance).
    ///
    /// # Panics
    ///
    /// Panics (debug) if either coordinate is outside the mesh.
    pub fn hops(&self, a: Coord, b: Coord) -> u64 {
        debug_assert!(self.contains(a) && self.contains(b));
        let dx = (a.x as i32 - b.x as i32).unsigned_abs() as u64;
        let dy = (a.y as i32 - b.y as i32).unsigned_abs() as u64;
        dx + dy
    }

    /// Iterates all tile coordinates in row-major order.
    pub fn iter_coords(&self) -> impl Iterator<Item = Coord> + '_ {
        let w = self.width;
        (0..self.height).flat_map(move |y| (0..w).map(move |x| Coord::new(x, y)))
    }

    /// Tile index of a coordinate (row-major).
    pub fn index_of(&self, c: Coord) -> usize {
        debug_assert!(self.contains(c));
        c.y as usize * self.width as usize + c.x as usize
    }

    /// Coordinate of a tile index (row-major).
    pub fn coord_of(&self, index: usize) -> Coord {
        debug_assert!(index < self.tiles());
        Coord::new(
            (index % self.width as usize) as u16,
            (index / self.width as usize) as u16,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hops_are_manhattan() {
        let m = Mesh::new(5, 5);
        assert_eq!(m.hops(Coord::new(0, 0), Coord::new(4, 4)), 8);
        assert_eq!(m.hops(Coord::new(2, 2), Coord::new(2, 2)), 0);
        assert_eq!(m.hops(Coord::new(1, 3), Coord::new(3, 1)), 4);
    }

    #[test]
    fn index_roundtrip() {
        let m = Mesh::new(5, 3);
        for (i, c) in m.iter_coords().enumerate() {
            assert_eq!(m.index_of(c), i);
            assert_eq!(m.coord_of(i), c);
        }
        assert_eq!(m.tiles(), 15);
    }

    #[test]
    fn symmetry() {
        let m = Mesh::new(7, 7);
        let a = Coord::new(0, 6);
        let b = Coord::new(5, 1);
        assert_eq!(m.hops(a, b), m.hops(b, a));
    }
}

//! Planar geometry primitives for atom positions.

use std::fmt;

/// A point in the 2D trap plane, in micrometres.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate (µm).
    pub x: f64,
    /// Vertical coordinate (µm).
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance(self, other: Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Whether two points coincide within `tol`.
    pub fn approx_eq(self, other: Point, tol: f64) -> bool {
        self.distance(other) <= tol
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point { x, y }
    }
}

/// Groups indices whose positions form connected clusters under the
/// `radius` adjacency relation (distance ≤ radius links two points).
/// Returned clusters preserve index order; singleton clusters are included.
///
/// Points are bucketed into a uniform grid whose cells are slightly wider
/// than `radius`, so a linked pair always lies in the same or adjacent
/// cells; only those pairs are tested, with the distance test of an
/// all-pairs scan. The components, and so the output, are those of the
/// all-pairs scan.
pub fn proximity_clusters(points: &[Point], radius: f64) -> Vec<Vec<usize>> {
    let n = points.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    for_each_nearby_pair(points, radius, |i, j| {
        if points[i].distance(points[j]) <= radius {
            let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
            if ri != rj {
                parent[ri] = rj;
            }
        }
    });
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    let mut cluster_of_root = vec![usize::MAX; n];
    for i in 0..n {
        let r = find(&mut parent, i);
        if cluster_of_root[r] == usize::MAX {
            cluster_of_root[r] = clusters.len();
            clusters.push(Vec::new());
        }
        clusters[cluster_of_root[r]].push(i);
    }
    clusters
}

/// Most grid cells along one axis before [`for_each_nearby_pair`] gives up
/// and puts every point in one cell (an all-pairs scan). It keeps the
/// rounding of a cell coordinate far below the cells' margin over the
/// radius.
const MAX_CELLS_PER_AXIS: f64 = (1u64 << 24) as f64;

/// Calls `f(i, j)` once for every unordered pair of points that lie in the
/// same or adjacent cells of a uniform grid whose cells are a little wider
/// than `radius` — a superset of the pairs within `radius`.
fn for_each_nearby_pair(points: &[Point], radius: f64, mut f: impl FnMut(usize, usize)) {
    // The 2⁻²⁰ margin makes two points within `radius` of each other
    // differ by less than one cell along each axis even after rounding.
    let cell = radius * (1.0 + 1.0 / (1u64 << 20) as f64);
    let (mut lo, mut hi) = (
        Point::new(f64::INFINITY, f64::INFINITY),
        Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
    );
    for p in points {
        lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
        hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
    }
    // No useful grid, so one cell holds every point: for a huge spread, a
    // non-finite or non-positive radius, or one below 1e-150, where `dx²`
    // can underflow and the distance test link points far more than
    // `radius` apart.
    let gridded = radius.is_finite()
        && radius >= 1e-150
        && (hi.x - lo.x) / cell < MAX_CELLS_PER_AXIS
        && (hi.y - lo.y) / cell < MAX_CELLS_PER_AXIS;
    // `((row, column), index)` per point, sorted by cell.
    let mut cells: Vec<((i64, i64), usize)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let key = if gridded {
                (
                    ((p.y - lo.y) / cell).floor() as i64,
                    ((p.x - lo.x) / cell).floor() as i64,
                )
            } else {
                (0, 0)
            };
            (key, i)
        })
        .collect();
    cells.sort_unstable();

    let cells = &cells;
    let run_end = |start: usize| {
        let key = cells[start].0;
        start + cells[start..].partition_point(|&(k, _)| k == key)
    };
    let find = |key: (i64, i64)| {
        let start = cells.partition_point(|&(k, _)| k < key);
        (start < cells.len() && cells[start].0 == key).then_some(start)
    };
    let mut start = 0;
    while start < cells.len() {
        let end = run_end(start);
        let (row, col) = cells[start].0;
        let own = &cells[start..end];
        for (a, &(_, i)) in own.iter().enumerate() {
            for &(_, j) in &own[a + 1..] {
                f(i, j);
            }
        }
        // The forward half of the 8-neighbourhood, so each pair of cells is
        // visited once.
        for (dr, dc) in [(0, 1), (1, -1), (1, 0), (1, 1)] {
            if let Some(other) = find((row + dr, col + dc)) {
                for &(_, i) in own {
                    for &(_, j) in &cells[other..run_end(other)] {
                        f(i, j);
                    }
                }
            }
        }
        start = end;
    }
}

/// Whether all pairwise distances within the cluster are equal within `tol`
/// (required by the paper's "digital computation" assumption: a Rydberg
/// pulse on three atoms is a clean CCZ only if they are equidistant).
pub fn is_equidistant(points: &[Point], tol: f64) -> bool {
    if points.len() < 3 {
        return true;
    }
    let mut dists = Vec::new();
    for i in 0..points.len() {
        for j in i + 1..points.len() {
            dists.push(points[i].distance(points[j]));
        }
    }
    let first = dists[0];
    dists.iter().all(|d| (d - first).abs() <= tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_basics() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(b), 5.0);
        assert!(a.approx_eq(Point::new(0.0, 1e-12), 1e-9));
    }

    #[test]
    fn clusters_partition_points() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.5, 0.0),
            Point::new(50.0, 50.0),
        ];
        let clusters = proximity_clusters(&pts, 2.0);
        assert_eq!(clusters.len(), 3);
        let sizes: Vec<usize> = clusters.iter().map(|c| c.len()).collect();
        assert!(sizes.contains(&2));
        assert!(sizes.contains(&1));
        let total: usize = sizes.iter().sum();
        assert_eq!(total, 5);
    }

    /// The all-pairs scan [`proximity_clusters`] replaced, verbatim: the
    /// oracle for the grid.
    fn proximity_clusters_reference(points: &[Point], radius: f64) -> Vec<Vec<usize>> {
        let n = points.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, i: usize) -> usize {
            if parent[i] != i {
                let root = find(parent, parent[i]);
                parent[i] = root;
            }
            parent[i]
        }
        for i in 0..n {
            for j in i + 1..n {
                if points[i].distance(points[j]) <= radius {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[ri] = rj;
                    }
                }
            }
        }
        let mut clusters: Vec<Vec<usize>> = Vec::new();
        let mut root_to_cluster: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        for i in 0..n {
            let r = find(&mut parent, i);
            let idx = *root_to_cluster.entry(r).or_insert_with(|| {
                clusters.push(Vec::new());
                clusters.len() - 1
            });
            clusters[idx].push(i);
        }
        clusters
    }

    /// splitmix64 as a uniform `[0, 1)` stream.
    fn uniform(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    #[test]
    fn grid_clusters_match_the_all_pairs_scan() {
        // Each set mixes uniform points, lattice points exactly `radius`
        // apart along an axis, points on the grid's cell boundaries
        // (multiples of the cell width from the minimum corner) and
        // duplicates.
        for seed in 0..300u64 {
            let mut next = uniform(seed);
            let radius = [0.5, 1.5, 2.0, 6.0, 0.1 + 5.0 * next()][seed as usize % 5];
            let cell = radius * (1.0 + 1.0 / (1u64 << 20) as f64);
            let n = 1 + (next() * 60.0) as usize;
            let extent = radius * (1.0 + 12.0 * next());
            let origin = Point::new(next() * 100.0 - 50.0, next() * 100.0 - 50.0);
            let mut pts: Vec<Point> = Vec::with_capacity(n + 1);
            pts.push(origin);
            for _ in 0..n {
                let k = |next: &mut dyn FnMut() -> f64| (next() * 8.0).floor();
                let p = match (next() * 4.0) as usize {
                    0 => Point::new(origin.x + next() * extent, origin.y + next() * extent),
                    1 => Point::new(
                        origin.x + k(&mut next) * radius,
                        origin.y + k(&mut next) * radius,
                    ),
                    2 => Point::new(
                        origin.x + k(&mut next) * cell,
                        origin.y + k(&mut next) * cell,
                    ),
                    _ => pts[(next() * pts.len() as f64) as usize],
                };
                pts.push(p);
            }
            assert_eq!(
                proximity_clusters(&pts, radius),
                proximity_clusters_reference(&pts, radius),
                "seed {seed}, radius {radius}"
            );
        }
    }

    #[test]
    fn degenerate_radii_and_coordinates_match_the_all_pairs_scan() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(1e-200, 0.0),
            Point::new(-1e-200, 0.0),
            Point::new(3.0, 4.0),
            Point::new(f64::NAN, 1.0),
            Point::new(1e12, -1e12),
            Point::new(f64::INFINITY, 0.0),
        ];
        for radius in [0.0, -1.0, 1e-300, 5.0, 1e300, f64::INFINITY, f64::NAN] {
            for len in [0, 1, 4, 5, 6, pts.len()] {
                assert_eq!(
                    proximity_clusters(&pts[..len], radius),
                    proximity_clusters_reference(&pts[..len], radius),
                    "radius {radius}, {len} points"
                );
            }
        }
    }

    #[test]
    fn rounding_and_underflow_edges_match_the_all_pairs_scan() {
        // `b − a` is exactly the radius, but `(a − lo)/r` and `(b − lo)/r`
        // round to floors two apart: cells exactly `r` wide would miss the
        // pair.
        let pts = [
            Point::new(-37.63959363293954, 0.0),
            Point::new(5.260406367060462, 0.0),
            Point::new(6.360406367060461, 0.0),
        ];
        assert_eq!(proximity_clusters(&pts, 1.1), vec![vec![0], vec![1, 2]]);
        // `dx²` underflows, so the distance test links points 10⁵ radii
        // apart.
        let pts = [Point::new(0.0, 0.0), Point::new(1e-165, 0.0)];
        assert_eq!(
            proximity_clusters(&pts, 1e-170),
            proximity_clusters_reference(&pts, 1e-170)
        );
        assert_eq!(proximity_clusters(&pts, 1e-170).len(), 1);
    }

    #[test]
    fn transitive_chaining_merges_clusters() {
        // a—b and b—c within radius, a—c not: still one cluster.
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(1.5, 0.0),
            Point::new(3.0, 0.0),
        ];
        let clusters = proximity_clusters(&pts, 1.6);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0], vec![0, 1, 2]);
    }

    #[test]
    fn equidistance_check() {
        // Equilateral triangle.
        let tri = [
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(1.0, 3f64.sqrt()),
        ];
        assert!(is_equidistant(&tri, 1e-9));
        // Right line of 3 is not equidistant.
        let line = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
        ];
        assert!(!is_equidistant(&line, 1e-9));
        // Pairs are trivially equidistant.
        assert!(is_equidistant(&line[..2], 1e-9));
    }
}

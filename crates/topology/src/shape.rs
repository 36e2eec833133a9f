//! Mesh shapes and row-major linear indexing.
//!
//! A [`Shape`] is the list of axis lengths `ℓ₁ × ℓ₂ × ⋯ × ℓ_k` of a mesh or
//! torus. Nodes are addressed either by coordinate vectors or by a linear
//! index in row-major order with the *last* axis varying fastest, matching
//! the usual C layout. All embedding code in the workspace converts between
//! the two through this type, so the convention lives in exactly one place.

use crate::hamming::{ceil_pow2, cube_dim};
use std::fmt;

/// The shape `ℓ₁ × ℓ₂ × ⋯ × ℓ_k` of a mesh. Axis lengths are `≥ 1`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Largest admissible axis length, `2¹⁵`. The paper's meshes top out
    /// at `512³`; a factor-64 margin per axis keeps every `idx * extent`
    /// row-major step provably inside `u64` (`2⁴⁸ · 2¹⁵ ≤ 2⁶³`).
    pub const MAX_AXIS: usize = 1 << 15;

    /// Largest admissible node count, `2⁴⁶`. Together with `MAX_AXIS`
    /// this bounds every linear index, edge index (`≤ 3·nodes < 2⁴⁸`),
    /// and minimal-cube address the workspace computes.
    pub const MAX_NODES: usize = 1 << 46;

    /// The extent rule every shape obeys: at least one axis, each axis
    /// length in `1..=`[`Self::MAX_AXIS`], and a node count within
    /// [`Self::MAX_NODES`] (computed without overflow). Axes are checked
    /// in order, so the error names the first axis that breaks the rule.
    /// Allocates nothing; untrusted extents pass here before
    /// [`Shape::new`].
    pub fn check(dims: &[usize]) -> Result<(), ShapeError> {
        if dims.is_empty() {
            return Err(ShapeError::NoAxes);
        }
        let mut nodes: usize = 1;
        for &d in dims {
            if d == 0 {
                return Err(ShapeError::ZeroExtent);
            }
            if d > Self::MAX_AXIS {
                return Err(ShapeError::AxisTooLong(d));
            }
            nodes = match nodes.checked_mul(d) {
                Some(n) if n <= Self::MAX_NODES => n,
                _ => return Err(ShapeError::TooManyNodes),
            };
        }
        Ok(())
    }

    /// Create a shape from axis lengths.
    ///
    /// # Panics
    /// Panics if `dims` breaks [`Shape::check`]: it is empty, an axis
    /// length is zero or exceeds [`Self::MAX_AXIS`], or the node count
    /// exceeds [`Self::MAX_NODES`].
    pub fn new(dims: &[usize]) -> Self {
        assert_eq!(Self::check(dims), Ok(()), "invalid shape {dims:?}");
        Shape(dims.to_vec())
    }

    /// Number of axes `k`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Axis lengths.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Length of axis `i`.
    #[inline]
    pub fn len(&self, axis: usize) -> usize {
        self.0[axis]
    }

    /// Total number of nodes `Π ℓᵢ`.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.0.iter().product()
    }

    /// Dimension of the minimal Boolean cube able to host this shape
    /// one-to-one: `⌈log₂ Πℓᵢ⌉`.
    #[inline]
    pub fn minimal_cube_dim(&self) -> u32 {
        cube_dim(self.nodes() as u64)
    }

    /// `⌈Πℓᵢ⌉₂`: node count of the minimal cube.
    #[inline]
    pub fn minimal_cube_nodes(&self) -> u64 {
        ceil_pow2(self.nodes() as u64)
    }

    /// Dimension of the cube a binary-reflected Gray-code embedding needs:
    /// `Σᵢ ⌈log₂ ℓᵢ⌉`.
    #[inline]
    pub fn gray_cube_dim(&self) -> u32 {
        self.0.iter().map(|&d| cube_dim(d as u64)).sum()
    }

    /// `true` when a Gray-code embedding is already minimal-expansion, i.e.
    /// `Σ⌈log₂ ℓᵢ⌉ = ⌈log₂ Πℓᵢ⌉` (method 1 of §5 of the paper).
    #[inline]
    pub fn gray_is_minimal(&self) -> bool {
        self.gray_cube_dim() == self.minimal_cube_dim()
    }

    /// Convert a coordinate vector to the row-major linear index.
    ///
    /// # Panics
    /// Panics (in debug builds) if the coordinate rank mismatches or any
    /// coordinate is out of range.
    #[inline]
    pub fn index(&self, coords: &[usize]) -> usize {
        debug_assert_eq!(coords.len(), self.rank());
        let mut idx = 0usize;
        for (c, extent) in coords.iter().zip(&self.0) {
            debug_assert!(c < extent, "coordinate out of range");
            idx = idx * extent + c;
        }
        idx
    }

    /// Convert a linear index back to coordinates.
    #[inline]
    pub fn coords(&self, mut index: usize) -> Vec<usize> {
        debug_assert!(index < self.nodes());
        let mut out = vec![0usize; self.rank()];
        for (o, d) in out.iter_mut().zip(&self.0).rev() {
            *o = index % d;
            index /= d;
        }
        out
    }

    /// Write coordinates of `index` into `out` without allocating.
    #[inline]
    pub fn coords_into(&self, mut index: usize, out: &mut [usize]) {
        debug_assert_eq!(out.len(), self.rank());
        for (o, d) in out.iter_mut().zip(&self.0).rev() {
            *o = index % d;
            index /= d;
        }
    }

    /// Advance `coords` in place to the next coordinate vector in
    /// row-major order (last axis fastest). Returns `false` — wrapping
    /// back to all zeros — after the last coordinate. The allocation-free
    /// companion to [`Shape::iter_coords`] for hot sweeps.
    #[inline]
    pub fn advance_coords(&self, coords: &mut [usize]) -> bool {
        debug_assert_eq!(coords.len(), self.rank());
        for a in (0..self.rank()).rev() {
            coords[a] += 1;
            if coords[a] < self.0[a] {
                return true;
            }
            coords[a] = 0;
        }
        false
    }

    /// Iterate over all coordinate vectors in row-major order.
    pub fn iter_coords(&self) -> CoordIter<'_> {
        CoordIter {
            shape: self,
            next: Some(vec![0; self.rank()]),
        }
    }

    /// The shape with axes sorted ascending — the canonical representative
    /// under axis permutation. All embedding-existence questions in the paper
    /// are permutation-invariant, so censuses enumerate canonical shapes.
    pub fn canonical(&self) -> Shape {
        let mut d = self.0.clone();
        d.sort_unstable();
        Shape(d)
    }

    /// Shape of the Cartesian product of `self` and `other` (same rank):
    /// per-axis products, per Corollary 2 of the paper.
    ///
    /// # Panics
    /// Panics if the ranks differ.
    pub fn product(&self, other: &Shape) -> Shape {
        assert_eq!(
            self.rank(),
            other.rank(),
            "product of shapes with different ranks"
        );
        Shape(self.0.iter().zip(&other.0).map(|(a, b)| a * b).collect())
    }

    /// `true` if `self` fits inside `other` axis-by-axis (i.e. the `self`
    /// mesh is a submesh of the `other` mesh without permutation).
    pub fn fits_in(&self, other: &Shape) -> bool {
        self.rank() == other.rank() && self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }

    /// Number of mesh edges: `Σᵢ (ℓᵢ−1) Πⱼ≠ᵢ ℓⱼ`.
    pub fn mesh_edges(&self) -> usize {
        let n = self.nodes();
        self.0.iter().map(|&d| n / d * (d - 1)).sum()
    }

    /// Number of torus edges. Axes of length 1 contribute no edges; axes of
    /// length 2 contribute one edge per line (the wrap edge coincides with
    /// the mesh edge).
    pub fn torus_edges(&self) -> usize {
        let n = self.nodes();
        self.0
            .iter()
            .map(|&d| match d {
                1 => 0,
                2 => n / 2,
                _ => n,
            })
            .sum()
    }
}

/// Why extents are not a [`Shape`]: the rule [`Shape::check`] applies.
/// The messages are part of the plan service's wire format (its bad-key
/// errors quote them), so they do not change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShapeError {
    /// No axes at all.
    NoAxes,
    /// An axis of length zero.
    ZeroExtent,
    /// An axis longer than [`Shape::MAX_AXIS`].
    AxisTooLong(usize),
    /// More than [`Shape::MAX_NODES`] nodes.
    TooManyNodes,
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeError::NoAxes => write!(f, "no axes"),
            ShapeError::ZeroExtent => write!(f, "zero extent"),
            ShapeError::AxisTooLong(d) => write!(f, "extent {d} exceeds {}", Shape::MAX_AXIS),
            ShapeError::TooManyNodes => write!(f, "node count exceeds {}", Shape::MAX_NODES),
        }
    }
}

impl std::error::Error for ShapeError {}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape({})", self)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.0.iter().map(|d| d.to_string()).collect();
        write!(f, "{}", parts.join("x"))
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl<const K: usize> From<[usize; K]> for Shape {
    fn from(dims: [usize; K]) -> Self {
        Shape::new(&dims)
    }
}

/// Iterator over all coordinates of a shape in row-major order.
pub struct CoordIter<'a> {
    shape: &'a Shape,
    next: Option<Vec<usize>>,
}

impl Iterator for CoordIter<'_> {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let current = self.next.take()?;
        let mut succ = current.clone();
        let mut advanced = false;
        for axis in (0..self.shape.rank()).rev() {
            if succ[axis] + 1 < self.shape.len(axis) {
                succ[axis] += 1;
                advanced = true;
                break;
            }
            succ[axis] = 0;
        }
        if advanced {
            self.next = Some(succ);
        }
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        let s = Shape::new(&[3, 4, 5]);
        for i in 0..s.nodes() {
            assert_eq!(s.index(&s.coords(i)), i);
        }
    }

    #[test]
    fn row_major_last_axis_fastest() {
        let s = Shape::new(&[2, 3]);
        assert_eq!(s.index(&[0, 0]), 0);
        assert_eq!(s.index(&[0, 1]), 1);
        assert_eq!(s.index(&[0, 2]), 2);
        assert_eq!(s.index(&[1, 0]), 3);
    }

    #[test]
    fn advance_coords_walks_row_major() {
        let s = Shape::new(&[2, 1, 3]);
        let mut c = vec![0usize; 3];
        for i in 0..s.nodes() {
            assert_eq!(s.index(&c), i);
            let more = s.advance_coords(&mut c);
            assert_eq!(more, i + 1 < s.nodes());
        }
        assert_eq!(c, vec![0, 0, 0], "wraps back to the origin");
    }

    #[test]
    fn iter_coords_matches_linear_order() {
        let s = Shape::new(&[2, 2, 3]);
        let all: Vec<Vec<usize>> = s.iter_coords().collect();
        assert_eq!(all.len(), s.nodes());
        for (i, c) in all.iter().enumerate() {
            assert_eq!(s.index(c), i);
        }
    }

    #[test]
    fn edge_counts() {
        // 3x4 mesh: 3*(4-1) horizontal + 4*(3-1) vertical = 9 + 8 = 17.
        assert_eq!(Shape::new(&[3, 4]).mesh_edges(), 17);
        // Product-graph edge identity |E(G1xG2)| = |V1||E2| + |V2||E1|.
        let g1 = Shape::new(&[3, 4]);
        let g2 = Shape::new(&[2, 5]);
        let prod = g1.product(&g2);
        assert_eq!(prod.dims(), &[6, 20]);
        // A product of meshes is NOT the mesh of the product shape, so only
        // sanity-check the mesh count of the product shape directly.
        assert_eq!(prod.mesh_edges(), 6 * 19 + 20 * 5);
    }

    #[test]
    fn torus_edge_counts() {
        assert_eq!(Shape::new(&[3, 3]).torus_edges(), 18);
        assert_eq!(Shape::new(&[2, 3]).torus_edges(), 3 + 6);
        assert_eq!(Shape::new(&[1, 5]).torus_edges(), 5);
        assert_eq!(Shape::new(&[4]).torus_edges(), 4);
        assert_eq!(Shape::new(&[2]).torus_edges(), 1);
        assert_eq!(Shape::new(&[1]).torus_edges(), 0);
    }

    #[test]
    fn minimal_cube_and_gray() {
        let s = Shape::new(&[5, 6, 7]); // 210 nodes -> 8-cube
        assert_eq!(s.minimal_cube_dim(), 8);
        assert_eq!(s.gray_cube_dim(), 3 + 3 + 3);
        assert!(!s.gray_is_minimal());

        let t = Shape::new(&[3, 3]); // 9 nodes -> 4-cube, Gray needs 2+2
        assert!(t.gray_is_minimal());
    }

    #[test]
    fn canonical_sorts() {
        assert_eq!(Shape::new(&[7, 3, 5]).canonical(), Shape::new(&[3, 5, 7]));
    }

    #[test]
    fn fits_in_is_axiswise() {
        assert!(Shape::new(&[3, 3, 23]).fits_in(&Shape::new(&[3, 3, 25])));
        assert!(!Shape::new(&[3, 4, 23]).fits_in(&Shape::new(&[3, 3, 25])));
    }

    #[test]
    #[should_panic]
    fn zero_axis_rejected() {
        let _ = Shape::new(&[3, 0]);
    }

    /// Each rejection, with the text the plan service sends for it; the
    /// first axis that breaks the rule decides.
    #[test]
    fn check_names_the_first_broken_rule() {
        let max = Shape::MAX_AXIS;
        for (dims, want, text) in [
            (&[][..], ShapeError::NoAxes, "no axes".to_owned()),
            (&[3, 0, 5], ShapeError::ZeroExtent, "zero extent".to_owned()),
            (
                &[0, max + 1],
                ShapeError::ZeroExtent,
                "zero extent".to_owned(),
            ),
            (
                &[max + 1, 0],
                ShapeError::AxisTooLong(max + 1),
                "extent 32769 exceeds 32768".to_owned(),
            ),
            (
                &[max; 5],
                ShapeError::TooManyNodes,
                "node count exceeds 70368744177664".to_owned(),
            ),
            (
                &[usize::MAX],
                ShapeError::AxisTooLong(usize::MAX),
                format!("extent {} exceeds 32768", usize::MAX),
            ),
        ] {
            assert_eq!(Shape::check(dims), Err(want), "{dims:?}");
            assert_eq!(want.to_string(), text, "{dims:?}");
        }
    }

    #[test]
    fn check_admits_the_limits() {
        let max = Shape::MAX_AXIS;
        for dims in [&[1][..], &[max], &[max, max, max, 2], &[512, 512, 512]] {
            assert_eq!(Shape::check(dims), Ok(()), "{dims:?}");
        }
        assert_eq!(
            Shape::check(&[max, max, max, 3]),
            Err(ShapeError::TooManyNodes)
        );
    }
}

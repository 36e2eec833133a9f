//! Flattened storage for edge routes, in one of two forms.
//!
//! A route is the host-cube path assigned to one guest edge, read as the
//! full node sequence *including both endpoints* (so a dilation-`d` route
//! has `d + 1` nodes and a dilation-1 route has 2). A [`RouteSet`] holds
//! the routes of one embedding, indexed densely by guest-edge number, as
//! either
//!
//! * [`HopRoutes`] — what the paper's constructions emit. A route from
//!   `φ(u)` to `φ(v)` is fixed by the cube dimensions it flips, and its
//!   last hop is implied by `φ(v)`, so only the dimensions of the
//!   interior nodes are stored: one `u8` each, at a fixed width per set.
//!   A route decodes to `[φ(u)] ++ interior ++ [φ(v)]`, the interior
//!   nodes coming from flipping the stored dimensions in order from
//!   `φ(u)`. A set of one-hop routes stores nothing and a dilation-2 set
//!   one byte per route. Decoding needs the node map and the edge's
//!   endpoints, so hop-form routes are read through
//!   [`Embedding::route`](crate::Embedding::route) and
//!   [`Embedding::route_paths`](crate::Embedding::route_paths); this
//!   module owns the slot layout, which other code reads through
//!   [`HopRoutes::interiors`] and writes through [`HopWriter`].
//! * [`PathRoutes`] — every node of every route in one arena plus an
//!   offsets table (8 bytes per node and 4 per route). It holds routes
//!   nobody has proven to run between their edge's images: the router's
//!   and the search assigner's output, files read back from disk, tori,
//!   many-to-one maps, reshapes and test fixtures.

/// The routes of an embedding, one per guest edge, in either form.
#[derive(Clone, Debug)]
pub enum RouteSet {
    /// Every route as its node path.
    Paths(PathRoutes),
    /// Every route as the cube dimensions it flips.
    Hops(HopRoutes),
}

impl RouteSet {
    /// Number of routes.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            RouteSet::Paths(p) => p.len(),
            RouteSet::Hops(h) => h.len(),
        }
    }

    /// `true` if no routes stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of host-edge traversals over all routes (the numerator
    /// of both average dilation and average congestion).
    pub fn total_length(&self) -> u64 {
        match self {
            RouteSet::Paths(p) => p.total_length(),
            RouteSet::Hops(h) => h.total_length(),
        }
    }
}

impl From<PathRoutes> for RouteSet {
    fn from(p: PathRoutes) -> Self {
        RouteSet::Paths(p)
    }
}

impl From<HopRoutes> for RouteSet {
    fn from(h: HopRoutes) -> Self {
        RouteSet::Hops(h)
    }
}

/// Routes as node paths: route `i` is `nodes[offsets[i]..offsets[i + 1]]`.
#[derive(Clone, Debug)]
pub struct PathRoutes {
    offsets: Vec<u32>,
    nodes: Vec<u64>,
}

impl Default for PathRoutes {
    /// Same as [`PathRoutes::new`]. (A derived `Default` would leave
    /// `offsets` empty, violating the `offsets[0] == 0` invariant every
    /// accessor relies on.)
    fn default() -> Self {
        PathRoutes::new()
    }
}

impl PathRoutes {
    /// An empty set.
    pub fn new() -> Self {
        PathRoutes::with_capacity(0, 0)
    }

    /// An empty set with room for `edges` routes totalling about
    /// `total_nodes` path nodes.
    pub fn with_capacity(edges: usize, total_nodes: usize) -> Self {
        let mut offsets = Vec::with_capacity(edges + 1);
        offsets.push(0);
        PathRoutes {
            offsets,
            nodes: Vec::with_capacity(total_nodes),
        }
    }

    /// Append a route (full node path, endpoints included). Returns its
    /// index.
    ///
    /// # Panics
    /// Panics if the path is empty (guest graphs have no self-loops, so
    /// even an edge whose endpoints share an address carries the
    /// one-node path).
    pub fn push(&mut self, path: &[u64]) -> usize {
        self.push_iter(path.iter().copied())
    }

    /// Append a route given as an iterator. Same panics as
    /// [`PathRoutes::push`].
    pub fn push_iter(&mut self, path: impl IntoIterator<Item = u64>) -> usize {
        let before = self.nodes.len();
        self.nodes.extend(path);
        assert!(self.nodes.len() > before, "empty route");
        self.offsets.push(self.nodes.len() as u32);
        self.offsets.len() - 2
    }

    /// Number of routes.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` if no routes stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The node path of route `i`; `None` past the end.
    #[inline]
    pub fn path(&self, i: usize) -> Option<&[u64]> {
        let (&lo, &hi) = (self.offsets.get(i)?, self.offsets.get(i + 1)?);
        self.nodes.get(lo as usize..hi as usize)
    }

    /// Every node path, in route order.
    pub fn paths(&self) -> impl Iterator<Item = &[u64]> + '_ {
        self.paths_from(0)
    }

    /// The node paths of routes `first..`, in order.
    pub(crate) fn paths_from(&self, first: usize) -> impl Iterator<Item = &[u64]> + '_ {
        let first = first.min(self.len());
        self.offsets[first..]
            .windows(2)
            .map(|w| &self.nodes[w[0] as usize..w[1] as usize])
    }

    /// Total number of host-edge traversals over all routes.
    pub fn total_length(&self) -> u64 {
        (self.nodes.len() - self.len()) as u64
    }
}

/// The slot value that ends a route's interior. Any dimension a cube can
/// flip is below [`Hypercube::MAX_DIM`](cubemesh_topology::Hypercube::MAX_DIM).
const PAD: u8 = u8::MAX;

/// Routes as cube dimensions. Every route takes `width` slots, the
/// longest route's hop count minus 1: route `i` owns
/// `dims[i·width..(i + 1)·width]`, flips its slots in order up to the
/// first pad, then steps onto its end node. So a run of routes starting
/// at route `i` starts at slot `width · i`, and there is no offsets
/// table.
#[derive(Clone, Debug)]
pub struct HopRoutes {
    len: usize,
    width: usize,
    dims: Vec<u8>,
}

impl HopRoutes {
    /// `len` one-hop routes: nothing is stored.
    pub fn one_hop(len: usize) -> Self {
        HopRoutes::blank(len, 0)
    }

    /// `len` routes with room for `width` interior nodes each, every one
    /// a single hop until a [`HopWriter`] from [`HopRoutes::writers`]
    /// gives it its interior.
    pub fn blank(len: usize, width: usize) -> Self {
        HopRoutes {
            len,
            width,
            // Saturating: an overflowing slot count could not be
            // allocated anyway.
            dims: vec![PAD; len.saturating_mul(width)],
        }
    }

    /// The hop form of node paths that run between their edge's images:
    /// route `i` keeps the dimensions of its first `len − 2` steps, and
    /// its last is implied by its end. (Any other path comes out as the
    /// hop route between the images.)
    pub fn from_paths(paths: &PathRoutes) -> Self {
        let width = paths
            .paths()
            .map(|p| p.len().saturating_sub(2))
            .max()
            .unwrap_or(0);
        let mut hops = HopRoutes::blank(paths.len(), width);
        if let Some(mut writer) = hops.writers([paths.len()]).pop() {
            for p in paths.paths() {
                let steps = p.len().saturating_sub(2);
                writer.push(
                    p.windows(2)
                        .take(steps)
                        .map(|w| (w[0] ^ w[1]).trailing_zeros() as u8),
                );
            }
        }
        hops
    }

    /// Number of routes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no routes stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Interior slots per route: the longest route's hop count minus 1
    /// (after [`HopRoutes::narrowed`]).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The dimensions route `i` flips before its last hop; `None` past
    /// the end.
    #[inline]
    pub fn interior(&self, i: usize) -> Option<&[u8]> {
        self.interiors(i).next()
    }

    /// The interiors of routes `first..`, in order.
    #[inline]
    pub fn interiors(&self, first: usize) -> Interiors<'_> {
        let first = first.min(self.len);
        Interiors {
            slots: &self.dims[first * self.width..],
            width: self.width,
            left: self.len - first,
        }
    }

    /// Total number of host-edge traversals over all routes: one last hop
    /// per route plus its interior.
    pub fn total_length(&self) -> u64 {
        let interiors: usize = self.interiors(0).map(<[u8]>::len).sum();
        (self.len + interiors) as u64
    }

    /// Writers for consecutive runs of routes, the `k`-th ending before
    /// route `ends[k]` (ascending), so the runs fill in parallel.
    ///
    /// # Panics
    /// Panics if an end is below the one before it or past the last
    /// route.
    pub fn writers(&mut self, ends: impl IntoIterator<Item = usize>) -> Vec<HopWriter<'_>> {
        let width = self.width;
        let mut rest = &mut self.dims[..];
        let mut at = 0;
        let mut writers = Vec::new();
        for end in ends {
            let (slots, tail) = std::mem::take(&mut rest).split_at_mut((end - at) * width);
            writers.push(HopWriter { width, slots });
            rest = tail;
            at = end;
        }
        writers
    }

    /// The same routes at the narrowest width that holds them: a product
    /// cut back from a larger mesh may have dropped every route of its
    /// factors' longest length.
    pub fn narrowed(mut self) -> Self {
        let width = self.width;
        let used = (0..width)
            .rev()
            .find(|&k| self.dims.chunks_exact(width).any(|s| s[k] != PAD))
            .map_or(0, |k| k + 1);
        if used < width {
            for i in 0..self.len {
                self.dims.copy_within(i * width..i * width + used, i * used);
            }
            self.dims.truncate(self.len * used);
            self.dims.shrink_to_fit();
            self.width = used;
        }
        self
    }
}

/// The interiors of a run of hop-form routes, in order
/// ([`HopRoutes::interiors`]).
pub struct Interiors<'a> {
    slots: &'a [u8],
    width: usize,
    left: usize,
}

impl<'a> Iterator for Interiors<'a> {
    type Item = &'a [u8];

    #[inline]
    fn next(&mut self) -> Option<&'a [u8]> {
        self.left = self.left.checked_sub(1)?;
        let (route, rest) = self.slots.split_at(self.width);
        self.slots = rest;
        let end = route.iter().position(|&d| d == PAD).unwrap_or(route.len());
        Some(&route[..end])
    }
}

/// Writes the interiors of a run of hop-form routes, in order
/// ([`HopRoutes::writers`]).
pub struct HopWriter<'a> {
    width: usize,
    slots: &'a mut [u8],
}

impl HopWriter<'_> {
    /// Give the next route of the run its interior: the dimensions it
    /// flips before its last hop.
    ///
    /// # Panics
    /// Panics past the run's last route, or if the interior does not fit
    /// the width.
    pub fn push(&mut self, interior: impl IntoIterator<Item = u8>) {
        let (route, rest) = std::mem::take(&mut self.slots).split_at_mut(self.width);
        self.slots = rest;
        let mut dims = interior.into_iter();
        for (slot, d) in route.iter_mut().zip(&mut dims) {
            *slot = d;
        }
        assert!(dims.next().is_none(), "route interior wider than the set");
    }
}

/// The node one hop from `node` along stored dimension `d`. A slot is a
/// byte, so a corrupted one may name a dimension past 63; the shift wraps
/// instead of overflowing, which keeps every decoder total.
#[inline]
pub(crate) fn flip(node: u64, d: u8) -> u64 {
    node ^ 1u64.wrapping_shl(u32::from(d))
}

/// Append the decoded path `[start] ++ interior ++ [end]` to `out`.
pub(crate) fn decode_into(start: u64, interior: &[u8], end: u64, out: &mut Vec<u64>) {
    let mut cur = start;
    out.push(cur);
    for &d in interior {
        cur = flip(cur, d);
        out.push(cur);
    }
    out.push(end);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut rs = PathRoutes::new();
        assert!(rs.is_empty());
        let a = rs.push(&[0, 1]);
        let b = rs.push(&[3, 2, 6]);
        let c = rs.push_iter([5u64]);
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(rs.len(), 3);
        assert_eq!(rs.path(0), Some(&[0, 1][..]));
        assert_eq!(rs.path(1), Some(&[3, 2, 6][..]));
        assert_eq!(rs.path(2), Some(&[5][..]));
        assert_eq!(rs.path(3), None);
        assert_eq!(rs.total_length(), 3);
        let from_one: Vec<&[u64]> = rs.paths_from(1).collect();
        assert_eq!(from_one, [&[3, 2, 6][..], &[5][..]]);
        assert_eq!(rs.paths_from(9).count(), 0);
    }

    #[test]
    fn paths_match_indexing() {
        let mut rs = PathRoutes::with_capacity(2, 5);
        rs.push(&[1, 0]);
        rs.push(&[2, 3, 7]);
        let collected: Vec<Vec<u64>> = rs.paths().map(|r| r.to_vec()).collect();
        assert_eq!(collected, vec![vec![1, 0], vec![2, 3, 7]]);
    }

    #[test]
    #[should_panic]
    fn empty_route_rejected() {
        PathRoutes::new().push(&[]);
    }

    #[test]
    fn default_is_usable() {
        let rs = RouteSet::from(PathRoutes::default());
        assert!(rs.is_empty());
        assert_eq!(rs.len(), 0);
        assert_eq!(rs.total_length(), 0);
    }

    /// Three routes at width 2: interiors `[4]`, `[]` and `[1, 3]`.
    fn three_routes() -> HopRoutes {
        let mut hops = HopRoutes::blank(3, 2);
        let mut writers = hops.writers([1, 3]);
        writers[0].push([4]);
        writers[1].push([]);
        writers[1].push([1, 3]);
        hops
    }

    #[test]
    fn hop_form_reads_what_its_writers_wrote() {
        let hops = three_routes();
        assert_eq!(hops.len(), 3);
        assert_eq!(hops.width(), 2);
        assert_eq!(hops.interior(0), Some(&[4][..]));
        assert_eq!(hops.interior(1), Some(&[][..]));
        assert_eq!(hops.interior(2), Some(&[1, 3][..]));
        assert_eq!(hops.interior(3), None);
        let from_one: Vec<&[u8]> = hops.interiors(1).collect();
        assert_eq!(from_one, [&[][..], &[1, 3][..]]);
        assert_eq!(hops.interiors(3).count(), 0);
        // 2 + 1 + 3 hops.
        assert_eq!(hops.total_length(), 6);
        assert_eq!(RouteSet::from(hops).total_length(), 6);
        let one_hop = HopRoutes::one_hop(5);
        assert_eq!(one_hop.total_length(), 5);
        assert_eq!(one_hop.interior(4), Some(&[][..]));
        assert_eq!(one_hop.interiors(2).count(), 3);
    }

    #[test]
    #[should_panic]
    fn an_interior_wider_than_the_set_is_rejected() {
        HopRoutes::blank(1, 1).writers([1])[0].push([0, 1]);
    }

    #[test]
    #[should_panic]
    fn writing_past_the_run_is_rejected() {
        let mut hops = HopRoutes::blank(2, 1);
        let mut writers = hops.writers([1, 2]);
        writers[0].push([0]);
        writers[0].push([1]);
    }

    #[test]
    fn narrowing_drops_slots_no_route_uses() {
        // Width 3, longest interior 1: narrows to width 1.
        let mut hops = HopRoutes::blank(3, 3);
        let mut writers = hops.writers([3]);
        writers[0].push([2]);
        writers[0].push([]);
        writers[0].push([5]);
        let narrow = hops.narrowed();
        assert_eq!(narrow.width(), 1);
        let interiors: Vec<&[u8]> = narrow.interiors(0).collect();
        assert_eq!(interiors, [&[2][..], &[][..], &[5][..]]);
        // Nothing written: width 0. Already tight: unchanged.
        assert_eq!(HopRoutes::blank(4, 2).narrowed().width(), 0);
        assert_eq!(three_routes().narrowed().width(), 2);
    }

    #[test]
    fn paths_convert_to_their_hops() {
        let mut paths = PathRoutes::new();
        paths.push(&[0b000, 0b001]);
        paths.push(&[0b000, 0b010, 0b110, 0b111]);
        paths.push(&[0b011, 0b001, 0b101]);
        let hops = HopRoutes::from_paths(&paths);
        assert_eq!(hops.width(), 2);
        let interiors: Vec<&[u8]> = hops.interiors(0).collect();
        assert_eq!(interiors, [&[][..], &[1, 2][..], &[1][..]]);
        assert_eq!(hops.total_length(), paths.total_length());
    }

    #[test]
    fn decode_flips_in_order() {
        let mut out = Vec::new();
        decode_into(0b000, &[0, 1], 0b111, &mut out);
        assert_eq!(out, [0b000, 0b001, 0b011, 0b111]);
        out.clear();
        decode_into(2, &[], 3, &mut out);
        assert_eq!(out, [2, 3]);
        // A corrupted slot past 63 wraps instead of overflowing.
        out.clear();
        decode_into(0, &[200], 1, &mut out);
        assert_eq!(out, [0, 1 << 8, 1]);
    }
}
